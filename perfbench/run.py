"""The structctrl benchmark: seeded workloads, timed end to end, refereed.

Run from the repository root; the package is taken from ./src:

    python3 perfbench/run.py --workload exact-mix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload runs in a fresh interpreter (perfbench/worker.py), one
operation after another: a closed loop with one caller.  With --trace 0
the run reports the end-to-end metrics; with --trace 1 it reports the
per-layer metrics of a traced pass over the same operations.  Every
operation's output is checked against perfbench/referees.py.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import gen
import referees
import tracing

SRC = Path("src")
OUT = Path("perfbench/out")
WORKER = Path(__file__).parent / "worker.py"
SETUP_RUNS = 5
WORKER_GRACE_SECONDS = 120

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "inputs_selected": "count",
}
PER_LAYER = {
    "structmat.self_ms": "ms",
    "structmat.stars": "count",
    "graph.self_ms": "ms",
    "graph.calls": "count",
    "graph.sccs": "count",
    "graph.source_sccs": "count",
    "matching.self_ms": "ms",
    "matching.calls": "count",
    "matching.deficiency": "count",
    "ctrl.self_ms": "ms",
    "ctrl.calls": "count",
    "setcover.self_ms": "ms",
    "setcover.calls": "count",
    "setcover.universe": "count",
    "setcover.sets": "count",
    "mincis.self_ms": "ms",
    "mincis.calls": "count",
    "cli.self_ms": "ms",
    "trace.overhead_ms": "ms",
}

_SELECTION = re.compile(r"FEASIBLE (\d+):((?: \d+)*) \[(\w+)\]")


class RefereeMismatch(Exception):
    """An operation's output disagrees with the referees."""


def _selection(line: str, certificate: str) -> list[int]:
    """0-based input columns of a ``FEASIBLE k: j... [certificate]`` report line."""
    match = _SELECTION.fullmatch(line)
    if not match or match.group(3) != certificate:
        raise RefereeMismatch(f"unexpected solve line {line[:80]!r}")
    chosen = [int(j) - 1 for j in match.group(2).split()]
    if len(chosen) != int(match.group(1)):
        raise RefereeMismatch(f"solve line counts {match.group(1)} but lists {len(chosen)}")
    return chosen


def _check_report(lines: list[str], label: np.ndarray, sources: np.ndarray) -> None:
    """The SCC report must list the referee's SCCs, marking exactly its sources NON-TOP."""
    n = len(label)
    group = np.full(n, -1)
    nontop_labels = []
    for s, line in enumerate(lines):
        head, _, body = line.partition(": ")
        names = body.split()
        if head != f"SCC {s + 1}" or not names:
            raise RefereeMismatch(f"unexpected report line {line[:80]!r}")
        marked = names[-1] == "NON-TOP"
        members = np.array([int(name[1:]) - 1 for name in names[: len(names) - marked]])
        if (group[members] >= 0).any():
            raise RefereeMismatch(f"state listed twice in SCC {s + 1}")
        group[members] = s
        if marked:
            nontop_labels.append(label[members[0]])
    scc_count = int(label.max()) + 1
    if (group < 0).any() or len(lines) != scc_count:
        raise RefereeMismatch(f"report has {len(lines)} SCCs, referee {scc_count}")
    if len(np.unique(group * scc_count + label)) != scc_count:
        raise RefereeMismatch("report partition differs from the referee's SCCs")
    if sorted(nontop_labels) != sorted(sources.tolist()):
        raise RefereeMismatch("NON-TOP marks differ from the referee's source SCCs")


def _check_greedy(inst: gen.Instance, output: dict) -> int:
    n = inst.n
    label, sources = referees.scc_sources(n, inst.a_rows, inst.a_cols)
    reach = referees.controllable(n, inst.a_rows, inst.a_cols, inst.b_rows, inst.b_cols)
    matchable = referees.matching_size(inst.a_rows, inst.a_cols, n, n) == n
    incidence = referees.cover_incidence(label, sources, inst.p, inst.b_rows, inst.b_cols)
    feasible = bool(incidence.any(axis=0).all())
    lines = output["stdout"].splitlines()
    if output["codes"] != [0 if reach else 1, 0 if feasible else 1] or len(lines) < 3:
        raise RefereeMismatch(f"exit codes {output['codes']}, controllable {reach}, feasible {feasible}")
    _check_report(lines[:-2], label, sources)
    verdict = (
        f"{'CONTROLLABLE' if reach else 'NOT CONTROLLABLE'}, "
        f"non-top-linked SCCs: {len(sources)}, Assumption 1: {'YES' if matchable else 'NO'}"
    )
    if lines[-2] != verdict:
        raise RefereeMismatch(f"check said {lines[-2]!r}, referee {verdict!r}")
    if not feasible:
        if lines[-1] != "INFEASIBLE":
            raise RefereeMismatch(f"solve said {lines[-1][:80]!r} on an infeasible instance")
        return 0
    chosen = _selection(lines[-1], "greedy")
    if chosen != referees.greedy_picks(incidence):
        raise RefereeMismatch("greedy picks differ from the referee's lowest-index greedy")
    if not referees.controllable_with(n, inst.a_rows, inst.a_cols, inst.b_rows, inst.b_cols, chosen):
        raise RefereeMismatch("greedy selection is not controllable")
    return len(chosen)


def _check_exact(inst: gen.Instance, output: dict) -> int:
    lines = output["stdout"].splitlines()
    if output["codes"] != [0] or len(lines) != 1:
        raise RefereeMismatch(f"exit codes {output['codes']} on a feasible instance")
    chosen = _selection(lines[0], "exact")
    label, sources = referees.scc_sources(inst.n, inst.a_rows, inst.a_cols)
    optimum = referees.min_cover_size(
        referees.cover_incidence(label, sources, inst.p, inst.b_rows, inst.b_cols)
    )
    if len(chosen) != optimum:
        raise RefereeMismatch(f"exact selection has {len(chosen)} inputs, optimum {optimum}")
    if not referees.controllable_with(inst.n, inst.a_rows, inst.a_cols, inst.b_rows, inst.b_cols, chosen):
        raise RefereeMismatch("exact selection is not controllable")
    return len(chosen)


def _check_dedicated(inst: gen.Instance, output: dict) -> int:
    chosen = output["chosen"]
    if len(set(chosen)) != len(chosen) or not all(0 <= v < inst.n for v in chosen):
        raise RefereeMismatch("selection repeats a state or leaves the range")
    fewest = referees.dedicated_count(inst.n, inst.a_rows, inst.a_cols)
    if len(chosen) != fewest:
        raise RefereeMismatch(f"{len(chosen)} dedicated inputs, referee count {fewest}")
    if not referees.dedicated_controllable(inst.n, inst.a_rows, inst.a_cols, chosen):
        raise RefereeMismatch("dedicated selection is not controllable")
    return len(chosen)


CHECKS = {
    "check+greedy": _check_greedy,
    "exact": _check_exact,
    "dedicated": _check_dedicated,
    "leader": _check_dedicated,
}


def check_records(pool: list[gen.Instance], records: list[dict]) -> tuple[list, int, list[str]]:
    """Referee every operation.

    Returns the selection size of each operation (None where it raised
    or disagreed), the number that raised, and the disagreements.
    Outputs repeat exactly when the pool wraps around, so each distinct
    output is refereed once.
    """
    verdicts: dict[tuple[int, str], int | str] = {}
    sizes, failed, mismatches = [], 0, []
    for record in records:
        if record["error"] is not None:
            failed += 1
            sizes.append(None)
            print(f"operation on {pool[record['index']].name} raised:\n{record['error']}", file=sys.stderr)
            continue
        inst = pool[record["index"]]
        key = (record["index"], json.dumps(record["output"], sort_keys=True))
        if key not in verdicts:
            try:
                verdicts[key] = CHECKS[inst.op](inst, record["output"])
            except RefereeMismatch as exc:
                verdicts[key] = f"{inst.name}: {exc}"
        verdict = verdicts[key]
        if isinstance(verdict, str):
            mismatches.append(verdict)
            sizes.append(None)
        else:
            sizes.append(verdict)
    return sizes, failed, mismatches


def _worker(manifest: Path, *extra: str, timeout: float) -> float:
    """Run the worker in a fresh interpreter on the checkout's package; return its wall time."""
    env = dict(os.environ, PYTHONPATH=str(SRC.resolve()))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(WORKER), str(manifest), *extra], env=env, timeout=timeout
    )
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"worker exited with code {done.returncode}")
    return elapsed


def setup_seconds(manifest: Path) -> float:
    """Median wall time of fresh interpreters that import structctrl.cli and run the warm-up.

    One untimed start comes first, so the file cache is warm for all the
    timed ones, as it is for a user running the command again.
    """
    _worker(manifest, "--setup", timeout=WORKER_GRACE_SECONDS)
    return statistics.median(
        _worker(manifest, "--setup", timeout=WORKER_GRACE_SECONDS) for _ in range(SETUP_RUNS)
    )


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    phases = [time.perf_counter()]
    compileall.compile_dir(str(SRC / "structctrl"), quiet=1)
    pool, manifest = gen.write_workload(workload, seed, OUT / "inputs")
    phases.append(time.perf_counter())
    block = json.loads(manifest.read_text())["block"]
    stem = f"{workload}-seed{seed}"
    result_path = OUT / "results" / f"{stem}-trace{int(trace)}.json"
    result_path.parent.mkdir(parents=True, exist_ok=True)
    extra = ["--seconds", str(seconds), "--result", str(result_path)]
    if trace:
        spans_path = OUT / "trace" / f"{stem}.jsonl"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        extra += ["--spans", str(spans_path)]
    else:
        setup = setup_seconds(manifest)
    phases.append(time.perf_counter())
    _worker(manifest, *extra, timeout=seconds + WORKER_GRACE_SECONDS)
    phases.append(time.perf_counter())
    run = json.loads(result_path.read_text())
    records = run["records"]

    sizes, failed, mismatches = check_records(pool, records)
    phases.append(time.perf_counter())
    spent = ", ".join(
        f"{name} {later - earlier:.1f} s"
        for name, earlier, later in zip(("inputs", "setup", "worker", "referees"), phases, phases[1:])
    )
    print(f"{workload}: {spent}", file=sys.stderr)
    ok = len(records) - failed
    if trace:
        installed, spans = tracing.load(spans_path)
        missing = [f"{t.layer}.{t.name}" for t in tracing.TRACED if f"{t.layer}.{t.name}" not in installed]
        if missing:
            print(f"{workload}: not found, so not traced: {', '.join(missing)}", file=sys.stderr)
        found = tracing.layer_metrics(spans, len(records))
        # Traced-first and traced-second records each carry the warmth bias
        # one way; the mean of their two means cancels it.
        order_means = []
        for traced_first in (False, True):
            gaps = [r["traced_seconds"] - r["seconds"] for r in records if r["traced_first"] == traced_first]
            if gaps:
                order_means.append(sum(gaps) / len(gaps))
        found["trace.overhead_ms"] = sum(order_means) / len(order_means) * 1000.0
        metrics = {name: {"value": found[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        times = [r["seconds"] for r in records if r["error"] is None]
        values = {
            "setup_s": setup,
            "op_p50_ms": statistics.median(times) * 1000.0 if times else float("nan"),
            "ops_per_s": ok / run["wall_seconds"],
            "peak_rss_mb": run["peak_rss_mb"],
            "inputs_selected": sum(size for size in sizes[:block] if size is not None),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    for message in mismatches[:5]:
        print(f"{workload}: {message}", file=sys.stderr)
    return {
        "correct": not mismatches,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*gen.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "structctrl" / "__init__.py").is_file():
        print("error: run from a checkout of the repository: src/structctrl is missing", file=sys.stderr)
        return 2

    workloads = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        results[workload] = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        for name, metric in results[workload]["metrics"].items():
            print(f"{workload:18s} {name:22s} {metric['value']:14.6g} {metric['unit']}")
    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}/{name}": metric for w, r in results.items() for name, metric in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
