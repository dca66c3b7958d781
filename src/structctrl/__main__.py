"""``python -m structctrl``: the same command line as the ``structctrl`` entry point."""

from .cli import run

if __name__ == "__main__":
    run()
