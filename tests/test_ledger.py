"""Traced peak memory of entry points at 10^5 states, bounded by a multiple of the star count.

``tracemalloc`` peaks are deterministic where wall times drift with host load.  Each bound is
four times the bytes per star that the entry point took when the bound was set, so only a cost
that grows with the wrong quantity, or grows several times over, fails.
"""

import tracemalloc

import numpy as np
import pytest

from structctrl.cli import main
from structctrl.ctrl import is_structurally_controllable
from structctrl.mincis import dedicated_input_selection, leader_selection_unconstrained
from structctrl.structmat import StructMatrix, parse_instance

N = 100_000
SELECTION_BYTES_PER_STAR = 4 * 38
CLI_BYTES_PER_STAR = 4 * 83
PARSE_BYTES_PER_STAR = 4 * 71
CONTROLLABILITY_BYTES_PER_STAR = 4 * 23


def _state_stars(seed: int, diagonal: bool) -> np.ndarray:
    """3N random (row, col) stars, without repeats, plus the diagonal if asked."""
    pairs = np.random.default_rng(seed).integers(0, N, size=(3 * N, 2))
    if diagonal:
        pairs = np.concatenate((pairs, np.repeat(np.arange(N), 2).reshape(-1, 2)))
    return np.unique(pairs, axis=0)


def _write_instance(path, state: np.ndarray, inputs: np.ndarray, p: int) -> None:
    lines = [f"{N} {N}", *(f"{r} {c}" for r, c in state.tolist()), "---", f"{N} {p}"]
    lines.extend(f"{r} {c}" for r, c in inputs.tolist())
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def feasible_file(tmp_path_factory):
    """N self-looped states with 3N random stars, each actuated by one of N/10 inputs; and its star count."""
    state = _state_stars(15, diagonal=True)
    inputs = np.column_stack((np.arange(N), np.random.default_rng(16).integers(0, N // 10, N)))
    path = tmp_path_factory.mktemp("ledger") / "feasible.instance"
    _write_instance(path, state, inputs, N // 10)
    return path, len(state) + N


def _traced_peak(call):
    """``call()``'s result and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "select, diagonal",
    [(dedicated_input_selection, False), (leader_selection_unconstrained, True)],
    ids=["dedicated", "leaders"],
)
def test_selection_peak(select, diagonal):
    a = StructMatrix(N, N, _state_stars(12, diagonal))
    result, peak = _traced_peak(lambda: select(a))
    assert 0 < result.objective < N
    assert peak <= SELECTION_BYTES_PER_STAR * a.csc[1].size, f"{peak / a.csc[1].size:.0f} bytes per star"


def test_reduce_on_an_infeasible_file(tmp_path, capsys):
    # thousands of source SCCs and 50 one-star inputs: most sources go unactuated
    state = _state_stars(13, diagonal=True)
    inputs = np.column_stack((np.random.default_rng(14).choice(N, 50, replace=False), np.arange(50)))
    path = tmp_path / "unactuated.instance"
    _write_instance(path, state, inputs, 50)
    code, peak = _traced_peak(lambda: main(["reduce", str(path)]))
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    stars = len(state) + len(inputs)
    assert peak <= CLI_BYTES_PER_STAR * stars, f"{peak / stars:.0f} bytes per star"
    # the error names ten SCCs and counts the rest, so its one line stays short at any size
    assert captured.err.startswith("error: infeasible instance: non-top-linked SCCs [")
    assert " more actuated by no input" in captured.err
    assert captured.err.count("\n") == 1 and len(captured.err) < 200


def test_parse_peak(feasible_file):
    path, stars = feasible_file
    text = path.read_text()
    inst, peak = _traced_peak(lambda: parse_instance(text))
    assert inst.n == N and inst.p == N // 10
    assert peak <= PARSE_BYTES_PER_STAR * stars, f"{peak / stars:.0f} bytes per star"


def test_controllability_peak(feasible_file):
    path, stars = feasible_file
    inst = parse_instance(path.read_text())
    verdict, peak = _traced_peak(lambda: is_structurally_controllable(inst, range(inst.p)))
    assert verdict
    assert peak <= CONTROLLABILITY_BYTES_PER_STAR * stars, f"{peak / stars:.0f} bytes per star"


@pytest.mark.parametrize("argv", [["check"], ["solve", "--mode", "greedy"], ["solve"]], ids=" ".join)
def test_cli_peak(argv, feasible_file, capsys):
    path, stars = feasible_file
    code, peak = _traced_peak(lambda: main([argv[0], str(path), *argv[1:]]))
    assert code == 0, capsys.readouterr().err
    assert peak <= CLI_BYTES_PER_STAR * stars, f"{peak / stars:.0f} bytes per star"
