"""Run one workload's operations in a fresh interpreter and record them.

The parent (run.py) puts the checkout's ``src`` on PYTHONPATH.  Modes:

    worker.py MANIFEST --setup
        import structctrl.cli and run the warm-up operation once: this is
        what the parent times for setup_s.
    worker.py MANIFEST --seconds S --result OUT.json [--spans SPANS.jsonl]
        run the warm-up operation and the pool's first operation, untimed,
        then the pool's operations one after another, a whole block at a
        time, until S seconds have passed.  With --spans every operation
        also runs traced, right before or right after its untraced run.

Operation outputs, times and the process's peak resident memory go to
OUT.json; checking them is the parent's job.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import time
import traceback
from pathlib import Path

from structctrl import cli, mincis
from structctrl.structmat import parse_instance


def make_op(entry: dict):
    """A zero-argument callable for one manifest entry; it returns the output to check."""
    path = entry["file"]
    if entry["op"] == "check+greedy":

        def op():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                codes = [cli.main(["check", path]), cli.main(["solve", path, "--mode", "greedy"])]
            return {"codes": codes, "stdout": buf.getvalue()}

    elif entry["op"] == "exact":

        def op():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                codes = [cli.main(["solve", path])]
            return {"codes": codes, "stdout": buf.getvalue()}

    else:
        a = parse_instance(Path(path).read_text()).a
        name = "leader_selection_unconstrained" if entry["op"] == "leader" else "dedicated_input_selection"

        def op():
            return {"chosen": list(getattr(mincis, name)(a).chosen)}

    return op


def timed(op) -> tuple[float, object, str | None]:
    """Wall time, output and formatted exception (or None) of one operation."""
    start = time.perf_counter()
    try:
        output, error = op(), None
    except Exception:
        output, error = None, traceback.format_exc()
    return time.perf_counter() - start, output, error


def traced_run(tracer, operation: int, op) -> tuple[float, object, str | None]:
    """``timed(op)`` with the tracer installed, its spans filed under ``operation``."""
    tracer.operation = operation
    with tracer.installed():
        return timed(op)


def run_blocks(ops, block: int, seconds: float, tracer=None) -> tuple[list[dict], float]:
    """Closed loop over the pool, cycling, a whole block at a time.

    Stops at the end of the first block that ends once ``seconds`` have
    passed.  With a tracer each operation runs twice in a row, untraced
    and traced, so the tracing overhead is measured on the same operation
    under the same machine load.  The traced run goes second in even
    blocks and first in odd ones, so the warmth the first run leaves to
    the second favours neither; whole blocks alternate, so every stratum
    of the pool is seen in both orders.
    """
    records = []
    start = time.perf_counter()
    while True:
        for _ in range(block):
            index = len(records) % len(ops)
            traced_first = tracer is not None and len(records) // block % 2 == 1
            if traced_first:
                traced = traced_run(tracer, len(records), ops[index])
            took, output, error = timed(ops[index])
            record = {"index": index, "seconds": took, "output": output, "error": error}
            if tracer is not None:
                if not traced_first:
                    traced = traced_run(tracer, len(records), ops[index])
                record["traced_seconds"], traced_output, traced_error = traced
                record["traced_first"] = traced_first
                if error is None and (traced_error is not None or traced_output != output):
                    record["error"] = traced_error or "traced output differs from the untraced one"
            records.append(record)
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return records, elapsed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("manifest")
    parser.add_argument("--setup", action="store_true")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--result")
    parser.add_argument("--spans")
    args = parser.parse_args()
    manifest = json.loads(Path(args.manifest).read_text())

    make_op(manifest["tiny"])()
    if args.setup:
        return

    ops = [make_op(entry) for entry in manifest["pool"]]
    ops[0]()  # warm-up at full size, not counted
    tracer = None
    if args.spans:
        from tracing import Tracer

        tracer = Tracer()
    records, elapsed = run_blocks(ops, manifest["block"], args.seconds, tracer)
    result = {
        "records": records,
        "wall_seconds": elapsed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.dump(args.spans)
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
