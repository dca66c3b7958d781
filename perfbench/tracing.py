"""Spans around the package's public functions, recorded from outside it.

While ``Tracer.installed`` is active, each traced function is replaced
in every structctrl module that holds it, so calls from other modules
and from ``cli`` go through the wrapper; the dataclasses' validators
(``__post_init__``) are wrapped on the class.  A span is (id, parent,
operation, layer, name, kind, start, end, counters), where kind is
``call`` or ``init`` (a validator).  Spans stay in memory until
``dump``.

A layer's self time is the sum over its spans of the span's duration
minus the durations of its direct children.  ``calls`` counts entries
into a layer: public-function spans whose parent is in another layer
or absent.  Counters are read from arguments and return values.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable

LAYERS = ("structmat", "graph", "matching", "ctrl", "setcover", "mincis", "cli")
COUNTERS = (
    "structmat.stars",
    "graph.sccs",
    "graph.source_sccs",
    "matching.deficiency",
    "setcover.universe",
    "setcover.sets",
)


@dataclass(frozen=True)
class Traced:
    layer: str
    name: str
    counters: Callable | None = None  # (args, result) -> dict of counts
    entry_only: bool = False  # count only when entered from another layer
    validator: bool = False  # a dataclass __post_init__, not a public call


def _stars(args, blocks):
    return {"stars": len(blocks[0].stars) + len(blocks[1].stars)}


def _sccs(args, cond):
    return {"sccs": cond.scc_count, "source_sccs": len(cond.non_top_linked)}


def _deficiency(args, matching):
    return {"deficiency": len(matching.right_unmatched)}


def _cover_size(args, chosen):
    return {"universe": args[0].universe_size, "sets": len(args[0].sets)}


TRACED = (
    Traced("structmat", "parse_instance_blocks", _stars),
    Traced("structmat", "parse_instance"),
    Traced("structmat", "parse_struct_matrix"),
    Traced("structmat", "transpose"),
    Traced("structmat", "identity_pattern"),
    Traced("structmat", "column_submatrix"),
    Traced("structmat", "StructMatrix", validator=True),
    Traced("structmat", "ProblemInstance", validator=True),
    Traced("graph", "state_digraph"),
    Traced("graph", "system_digraph"),
    Traced("graph", "condense", _sccs),
    Traced("graph", "input_coverage"),
    Traced("graph", "Digraph", validator=True),
    Traced("graph", "Condensation", validator=True),
    Traced("matching", "state_bipartite"),
    Traced("matching", "maximum_matching", _deficiency),
    Traced("matching", "has_perfect_matching"),
    Traced("matching", "BipartiteGraph", validator=True),
    Traced("matching", "Matching", validator=True),
    Traced("ctrl", "is_structurally_controllable"),
    Traced("ctrl", "is_structurally_controllable_pm"),
    Traced("ctrl", "numeric_probe"),
    Traced("setcover", "greedy_cover", _cover_size, entry_only=True),
    Traced("setcover", "exact_min_cover", _cover_size, entry_only=True),
    Traced("setcover", "is_cover"),
    Traced("setcover", "SetCoverInstance", validator=True),
    Traced("mincis", "mincis_reduce"),
    Traced("mincis", "solve_mincis"),
    Traced("mincis", "brute_force_mincis"),
    Traced("mincis", "dedicated_input_selection"),
    Traced("mincis", "leader_selection_unconstrained"),
    Traced("mincis", "leader_selection_constrained"),
    Traced("mincis", "linear_sum_assignment"),
    Traced("mincis", "SelectionResult", validator=True),
    Traced("cli", "main"),
)


class Tracer:
    """Records spans while ``installed``; build it after structctrl is imported."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.layer_of: list[str] = []
        self.operation = -1
        self.installed_names: list[str] = []
        self.patches: list[tuple[object, str, object, object]] = []
        modules = [m for name, m in sys.modules.items() if name.startswith("structctrl")]
        for spec in TRACED:
            home = importlib.import_module(f"structctrl.{spec.layer}")
            target = getattr(home, spec.name, None)
            if target is None:
                continue
            self.installed_names.append(f"{spec.layer}.{spec.name}")
            if spec.validator:
                original = target.__post_init__
                self.patches.append((target, "__post_init__", original, self.wrap(spec, original)))
                continue
            wrapped = self.wrap(spec, target)
            for module in modules:
                for attr, value in vars(module).items():
                    if value is target:
                        self.patches.append((module, attr, target, wrapped))

    def wrap(self, spec: Traced, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else -1
            sid = len(tracer.spans)
            tracer.spans.append(None)
            tracer.layer_of.append(spec.layer)
            tracer.stack.append(sid)
            counts = None
            start = time.perf_counter()
            end = None
            try:
                result = fn(*args, **kwargs)
                end = time.perf_counter()
                entry = parent < 0 or tracer.layer_of[parent] != spec.layer
                if spec.counters and (entry or not spec.entry_only):
                    counts = spec.counters(args, result)
                return result
            finally:
                if end is None:
                    end = time.perf_counter()
                tracer.stack.pop()
                kind = "init" if spec.validator else "call"
                tracer.spans[sid] = (
                    sid, parent, tracer.operation, spec.layer, spec.name, kind, start, end, counts
                )

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Route every structctrl lookup of a traced function through its wrapper."""
        for owner, attr, _, wrapped in self.patches:
            setattr(owner, attr, wrapped)
        try:
            yield self
        finally:
            for owner, attr, original, _ in self.patches:
                setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w") as out:
            out.write(json.dumps({"installed": self.installed_names}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def load(path) -> tuple[list[str], list[tuple]]:
    with open(path) as src:
        installed = json.loads(src.readline())["installed"]
        return installed, [tuple(json.loads(line)) for line in src]


def layer_metrics(spans, operations: int) -> dict[str, float]:
    """Per-operation self time, entries and counters of every layer."""
    child_time = [0.0] * len(spans)
    for sid, parent, _, _, _, _, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    metrics = dict.fromkeys(COUNTERS, 0.0)
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = 0.0
        metrics[f"{layer}.calls"] = 0.0
    for sid, parent, _, layer, _, kind, start, end, counts in spans:
        metrics[f"{layer}.self_ms"] += (end - start - child_time[sid]) * 1000.0
        if kind == "call" and (parent < 0 or spans[parent][3] != layer):
            metrics[f"{layer}.calls"] += 1
        for key, value in (counts or {}).items():
            metrics[f"{layer}.{key}"] += value
    return {key: value / operations for key, value in metrics.items()}
