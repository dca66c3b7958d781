"""Seeded inputs for the benchmark's workloads.

Every instance is drawn from numpy's PCG64 seeded with (seed, workload,
instance), so one seed pins every file byte for byte.  Stars are drawn
as index pairs, so the cost grows with the number of stars, never with
rows x cols.  Files use the package's instance format: a state block,
a ``---`` line and an input block, each a ``ROWS COLS`` header followed
by one 0-based ``R C`` star per line.

Rebuild the inputs of every workload for one seed:

    python3 perfbench/gen.py --seed 7 --out perfbench/out/inputs
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from referees import scc_sources

WORKLOADS = ("check-greedy-16k", "exact-mix", "dedicated-3k")
GREEDY_N = 16000
GREEDY_BLOCK = 4  # instance 3 of every 4 leaves one source SCC unactuated
EXACT_POOL = 480
EXACT_BLOCK = 40  # two of every (kind, degree, universe) stratum
EXACT_DEGREES = (6, 7)
DEDICATED_BLOCK = 8
TINY_N = 40


@dataclass
class Instance:
    """One generated instance; ``op`` names the call the benchmark makes on it."""

    name: str
    op: str
    n: int
    a_rows: np.ndarray
    a_cols: np.ndarray
    p: int
    b_rows: np.ndarray
    b_cols: np.ndarray


def _rng(seed: int, workload: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), index])


def _unique_pairs(rows, cols, width: int) -> tuple[np.ndarray, np.ndarray]:
    code = np.unique(np.asarray(rows, np.int64) * width + np.asarray(cols, np.int64))
    return code // width, code % width


def sparse_state_pattern(rng, n: int, diagonal: bool) -> tuple[np.ndarray, np.ndarray]:
    """About 3n random stars, plus the full diagonal when asked."""
    rows, cols = rng.integers(0, n, 3 * n), rng.integers(0, n, 3 * n)
    if diagonal:
        rows, cols = np.concatenate([rows, np.arange(n)]), np.concatenate([cols, np.arange(n)])
    return _unique_pairs(rows, cols, n)


def regular_cover(rng, elements: int, sets: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Each element joins exactly ``degree`` distinct sets of nearly equal size.

    Sets are dealt from a stream of shuffled decks of all set indices, so
    the family is random but every instance of a stratum is built alike.
    Independent random families spread the exact search's cost far wider:
    one of 150 such instances took 6.3 s, so one or two instances could
    decide a 20 s run.
    """
    deck = np.concatenate([rng.permutation(sets) for _ in range(degree * elements // sets + 2)])
    elems, picks, at = [], [], 0
    for e in rng.permutation(elements):
        chosen: list[int] = []
        while len(chosen) < degree:
            if deck[at] not in chosen:
                chosen.append(int(deck[at]))
            at += 1
        elems.extend([int(e)] * degree)
        picks.extend(chosen)
    return np.asarray(elems, np.int64), np.asarray(picks, np.int64)


def greedy_instance(rng, name: str, n: int, negative: bool) -> Instance:
    """Full diagonal plus ~3n stars; p = n/10 inputs, each state on one input.

    A negative instance strips the input stars of one source SCC, so
    ``check`` answers NOT CONTROLLABLE and ``solve`` INFEASIBLE.
    """
    a_rows, a_cols = sparse_state_pattern(rng, n, diagonal=True)
    p = n // 10
    b_rows, b_cols = np.arange(n), rng.integers(0, p, n)
    if negative:
        label, sources = scc_sources(n, a_rows, a_cols)
        keep = label[b_rows] != rng.choice(sources)
        b_rows, b_cols = b_rows[keep], b_cols[keep]
    return Instance(name, "check+greedy", n, a_rows, a_cols, p, b_rows, b_cols)


def reduction_instance(rng, name: str, n: int, degree: int) -> Instance:
    """Full diagonal plus ~3n stars with 20-24 source SCCs; twice as many inputs, ~3n input stars.

    The state pattern is redrawn until its source SCC count lies in
    [20, 24].  Each source SCC is actuated by exactly ``degree`` inputs
    (at one random member each); the remaining input stars land on
    states outside the source SCCs, so they leave the cover unchanged.
    """
    while True:
        a_rows, a_cols = sparse_state_pattern(rng, n, diagonal=True)
        label, sources = scc_sources(n, a_rows, a_cols)
        if 20 <= len(sources) <= 24:
            break
    p = 2 * len(sources)
    source_of, inputs = regular_cover(rng, len(sources), p, degree)
    in_source = np.isin(label, sources)
    hit_rows = [int(rng.choice(np.flatnonzero(label == sources[t]))) for t in source_of]
    inner = np.flatnonzero(~in_source)
    rest = 3 * n - len(hit_rows)
    b_rows = np.concatenate([hit_rows, rng.choice(inner, rest)])
    b_cols = np.concatenate([inputs, rng.integers(0, p, rest)])
    b_rows, b_cols = _unique_pairs(b_rows, b_cols, p)
    return Instance(name, "exact", n, a_rows, a_cols, p, b_rows, b_cols)


def cover_family_instance(rng, name: str, universe: int, degree: int) -> Instance:
    """A regular covering family over ``universe`` elements with twice as many
    sets, embedded as setcover_to_mincis does: identity state pattern,
    input j actuating the members of set j."""
    b_rows, b_cols = regular_cover(rng, universe, 2 * universe, degree)
    b_rows, b_cols = _unique_pairs(b_rows, b_cols, 2 * universe)
    diag = np.arange(universe)
    return Instance(name, "exact", universe, diag, diag, 2 * universe, b_rows, b_cols)


def dedicated_instance(rng, name: str, n: int, diagonal: bool) -> Instance:
    """~3n stars with no inputs; self-looped patterns go to leader selection."""
    a_rows, a_cols = sparse_state_pattern(rng, n, diagonal)
    empty = np.zeros(0, dtype=np.int64)
    return Instance(name, "leader" if diagonal else "dedicated", n, a_rows, a_cols, 0, empty, empty)


def exact_instance(rng, name: str, index: int) -> Instance:
    """Even positions are sparse reductions, odd ones embedded covering families.

    Pairs of positions cycle through each element's degree, 6 or 7 (the
    number of inputs that reach it), and, for families, universes 20 to
    24, so every 20 positions hold every stratum once.
    """
    degree = EXACT_DEGREES[index // 2 % len(EXACT_DEGREES)]
    if index % 2 == 0:
        return reduction_instance(rng, name, int(rng.integers(400, 501)), degree)
    return cover_family_instance(rng, name, 20 + index // 2 % 5, degree)


def workload_instances(workload: str, seed: int) -> tuple[Instance, list[Instance], int]:
    """The tiny warm-up instance, the pool of instances and the block size.

    A run goes through the pool in order, a block at a time, and stops
    at the end of the first block that ends after its time is up; every
    block holds the workload's strata in the same proportions.
    """
    tiny_rng = _rng(seed, workload, 10**6)
    if workload == "check-greedy-16k":
        tiny = greedy_instance(tiny_rng, "tiny", TINY_N, negative=False)
        pool = [
            greedy_instance(_rng(seed, workload, i), f"g{i:03d}", GREEDY_N, i % GREEDY_BLOCK == 3)
            for i in range(GREEDY_BLOCK)
        ]
        return tiny, pool, GREEDY_BLOCK
    if workload == "exact-mix":
        tiny = cover_family_instance(tiny_rng, "tiny", 8, 3)
        pool = [exact_instance(_rng(seed, workload, i), f"x{i:03d}", i) for i in range(EXACT_POOL)]
        return tiny, pool, EXACT_BLOCK
    if workload == "dedicated-3k":
        tiny = dedicated_instance(tiny_rng, "tiny", TINY_N, diagonal=False)
        sizes = np.linspace(2000, 3000, DEDICATED_BLOCK).round().astype(int)
        pool = [
            dedicated_instance(_rng(seed, workload, i), f"d{i:03d}", int(n), diagonal=i % 2 == 1)
            for i, n in enumerate(sizes)
        ]
        return tiny, pool, DEDICATED_BLOCK
    raise ValueError(f"unknown workload {workload!r}")


def _block(rows, cols, shape: tuple[int, int]) -> str:
    lines = [f"{shape[0]} {shape[1]}"]
    lines.extend(f"{r} {c}" for r, c in zip(rows.tolist(), cols.tolist()))
    return "\n".join(lines) + "\n"


def instance_text(inst: Instance) -> str:
    return (
        _block(inst.a_rows, inst.a_cols, (inst.n, inst.n))
        + "---\n"
        + _block(inst.b_rows, inst.b_cols, (inst.n, inst.p))
    )


def write_workload(workload: str, seed: int, out: Path) -> tuple[list[Instance], Path]:
    """Write the workload's files and manifest; return the pool and the manifest path."""
    tiny, pool, block = workload_instances(workload, seed)
    folder = out / f"{workload}-seed{seed}"
    folder.mkdir(parents=True, exist_ok=True)
    entries = []
    for inst in [tiny, *pool]:
        path = folder / f"{inst.name}.instance"
        path.write_text(instance_text(inst))
        entries.append({"name": inst.name, "op": inst.op, "file": str(path)})
    manifest = folder / "manifest.json"
    manifest.write_text(
        json.dumps({"workload": workload, "block": block, "tiny": entries[0], "pool": entries[1:]})
    )
    return pool, manifest


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", default="perfbench/out/inputs")
    args = parser.parse_args()
    for workload in WORKLOADS:
        pool, manifest = write_workload(workload, args.seed, Path(args.out))
        print(f"{workload}: {len(pool)} instances, manifest {manifest}")


if __name__ == "__main__":
    main()
