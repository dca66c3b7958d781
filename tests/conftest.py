import pytest
from hypothesis import settings

from structctrl import structmat

# Oracle-backed properties mix fast and slow examples; wall-clock
# deadlines only add noise there.
settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


@pytest.fixture
def walks(monkeypatch):
    """Collect the lines that the parsers read one at a time."""
    lines = []
    read = structmat._integers

    def counted(text):
        lines.append(text)
        return read(text)

    monkeypatch.setattr(structmat, "_integers", counted)
    return lines
