"""Command line interface.

Human-readable reports use 1-based state and input numbers; every file
format read or written stays 0-based.

Exit codes: 0 success (feasible, controllable, probe agreement), 1 a
negative verdict (infeasible, not controllable, probe disagreement),
2 unreadable or malformed input, 3 the requested method needs a
perfectly matchable state pattern and the instance has none.  Commands
raise, and ``main`` alone maps the library's exception types to these
codes through ``_FAILURES``.
"""

from __future__ import annotations

import argparse
import functools
import signal
import sys
from pathlib import Path

from .bench import condense_times, dedicated_selection_times, loglog_slope
from .ctrl import is_structurally_controllable, numeric_probe
from .generate import random_instance
from .graph import condensation_report
from .matching import PerfectMatchingRequired, has_perfect_matching
from .mincis import (
    InfeasibleInstance,
    brute_force_mincis,
    mincis_reduce,
    solve_mincis,
)
from .setcover import parse_set_cover, serialize_set_cover, setcover_to_mincis
from .structmat import ProblemInstance, parse_instance_blocks, serialize_instance, transpose

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3

_REPORTED = (OSError, ValueError, IndexError)  # any other exception is a bug and keeps its traceback
# Each failure's exit code and the hint after its message.  The first row
# whose type matches wins, so the ValueError subclasses come first.
_FAILURES = (
    (PerfectMatchingRequired, EXIT_PRECONDITION, "; 'solve --mode brute' needs no perfect matching"),
    (InfeasibleInstance, EXIT_NEGATIVE, ""),
    (_REPORTED, EXIT_INPUT, ""),
)

_FORMAT_NOTES = """\
instance files hold two 0-based pattern blocks (state pattern, then
input pattern) separated by a line containing only '---'; each block is
a 'ROWS COLS' header followed by one 'R C' star position per line.
Reports number states and inputs from 1.  Exit codes: 0 success,
1 negative verdict, 2 bad input, 3 perfect-matching precondition
violated (try 'solve --mode brute')."""


def _load_instance(path: str, dual: bool) -> ProblemInstance:
    a, second = parse_instance_blocks(Path(path).read_text())
    if dual:
        # Output selection: the second block lists measured states per
        # row; transposing both patterns turns it into input selection.
        return ProblemInstance(transpose(a), transpose(second))
    return ProblemInstance(a, second)


def _cmd_check(args: argparse.Namespace) -> int:
    inst = _load_instance(args.file, args.dual)
    cond = inst.a.condensation
    sys.stdout.write(condensation_report(cond))
    verdict = is_structurally_controllable(inst, range(inst.p))
    matchable = has_perfect_matching(inst.a)
    print(
        f"{'CONTROLLABLE' if verdict else 'NOT CONTROLLABLE'}, "
        f"non-top-linked SCCs: {len(cond.sources)}, "
        f"Assumption 1: {'YES' if matchable else 'NO'}"
    )
    return EXIT_OK if verdict else EXIT_NEGATIVE


def _cmd_solve(args: argparse.Namespace) -> int:
    inst = _load_instance(args.file, args.dual)
    if args.mode == "brute":
        result = brute_force_mincis(inst, cap=args.brute_cap)
    else:
        result = solve_mincis(inst, mode=args.mode)
    print(result.report())
    return EXIT_OK if result.feasible else EXIT_NEGATIVE


def _cmd_reduce(args: argparse.Namespace) -> int:
    sys.stdout.write(serialize_set_cover(mincis_reduce(_load_instance(args.file, args.dual))))
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.from_setcover is not None:
        if args.assumption1:
            raise ValueError("--assumption1 only applies to --random")
        cover = parse_set_cover(Path(args.from_setcover).read_text())
        inst = setcover_to_mincis(cover)
    else:
        raw_n, raw_p, raw_density, raw_seed = args.random
        try:
            n, p = int(raw_n), int(raw_p)
            density, seed = float(raw_density), int(raw_seed)
        except ValueError:
            raise ValueError("--random takes N P DENSITY SEED") from None
        inst = random_instance(n, p, density, seed, full_diagonal=args.assumption1)
    sys.stdout.write(serialize_instance(inst))
    return EXIT_OK


def _cmd_probe(args: argparse.Namespace) -> int:
    inst = _load_instance(args.file, args.dual)
    everything = range(inst.p)
    structural = is_structurally_controllable(inst, everything)
    numeric = numeric_probe(
        inst, everything, trials=args.trials, seed=args.seed, tol=args.tol
    )
    print(f"structural: {'CONTROLLABLE' if structural else 'NOT CONTROLLABLE'}")
    print(
        f"numeric: {'FULL RANK' if numeric else 'RANK DEFICIENT'} "
        f"({args.trials} trials, tol {args.tol:g})"
    )
    if structural == numeric:
        print(f"AGREE (both {'true' if structural else 'false'})")
        return EXIT_OK
    print(
        f"DISAGREE (structural {str(structural).lower()}, "
        f"numeric {str(numeric).lower()})"
    )
    return EXIT_NEGATIVE


def _cmd_bench(args: argparse.Namespace) -> int:
    try:
        sizes = [int(token) for token in args.sizes.split(",") if token.strip()]
    except ValueError:
        raise ValueError("--sizes takes a comma-separated list of integers") from None
    if len(set(sizes)) < 2:
        raise ValueError("need at least two sizes, not all equal")
    timer = dedicated_selection_times if args.target == "dedicated" else condense_times
    samples = timer(sizes, seed=args.seed)
    for n, seconds in samples:
        print(f"n={n} time={seconds * 1000.0:.2f} ms")
    print(f"log-log slope: {loglog_slope(samples):.2f}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first call and shared by every later one."""
    parser = argparse.ArgumentParser(
        prog="structctrl",
        description="Structural controllability analysis and minimum input selection.",
        epilog=_FORMAT_NOTES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_dual(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--dual",
            action="store_true",
            help="treat the second block as an output pattern and solve the transposed problem",
        )

    check = sub.add_parser("check", help="report SCC structure and controllability")
    check.add_argument("file")
    add_dual(check)
    check.set_defaults(handler=_cmd_check)

    solve = sub.add_parser("solve", help="select a minimum set of input columns")
    solve.add_argument("file")
    solve.add_argument("--mode", choices=("exact", "greedy", "brute"), default="exact")
    solve.add_argument(
        "--brute-cap",
        type=int,
        default=20,
        metavar="N",
        help="refuse brute-force enumeration beyond N input columns (default 20)",
    )
    add_dual(solve)
    solve.set_defaults(handler=_cmd_solve)

    reduce_ = sub.add_parser("reduce", help="emit the equivalent set covering instance")
    reduce_.add_argument("file")
    add_dual(reduce_)
    reduce_.set_defaults(handler=_cmd_reduce)

    gen = sub.add_parser("gen", help="write an instance file to stdout")
    source = gen.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--from-setcover",
        metavar="FILE",
        help="embed a set covering instance (header 'M N', one element line per set)",
    )
    source.add_argument(
        "--random",
        nargs=4,
        metavar=("N", "P", "DENSITY", "SEED"),
        help="random instance: states, inputs, star probability in (0, 1], seed",
    )
    gen.add_argument(
        "--assumption1",
        action="store_true",
        help="force a full diagonal so the state pattern is perfectly matchable",
    )
    gen.set_defaults(handler=_cmd_gen)

    probe = sub.add_parser("probe", help="compare the structural verdict with numeric rank tests")
    probe.add_argument("file")
    probe.add_argument("--trials", type=int, default=3)
    probe.add_argument("--seed", type=int, default=0)
    probe.add_argument("--tol", type=float, default=1e-8)
    add_dual(probe)
    probe.set_defaults(handler=_cmd_probe)

    bench = sub.add_parser("bench", help="time the polynomial kernels on growing sizes")
    bench.add_argument("--target", choices=("dedicated", "condense"), default="dedicated")
    bench.add_argument("--sizes", default="100,200,400")
    bench.add_argument("--seed", type=int, default=0)
    bench.set_defaults(handler=_cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except _REPORTED as exc:
        code, hint = next((code, hint) for kind, code, hint in _FAILURES if isinstance(exc, kind))
        print(f"error: {exc}{hint}", file=sys.stderr)
        return code


def run() -> None:
    if hasattr(signal, "SIGPIPE"):  # a closed stdout pipe ends the process quietly, like cat
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    run()
