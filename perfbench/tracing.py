"""Span recording around the package's public functions, from outside the package.

``install`` replaces every module-level binding of a traced function (in the
defining module, in every other ``flattree`` module that imported it, and in
the package's re-exports) with a wrapper that opens a span, and replaces three
``HyperellipticSurface`` layout methods with count-only hooks.  Spans stay in
memory as parallel arrays; ``layer_metrics`` turns them into the per-layer
metrics listed in BENCHMARK.json once the traced pass is over.
"""

from __future__ import annotations

import sys
import types
from array import array
from time import perf_counter

LAYERS = ("halftree", "surface", "flow", "deform", "collapse", "cover", "lemmas", "cli")

# The CLI layer is traced at its entry point only: the subcommand handlers are
# CLI code too, so their time belongs to cli.main's self time.
CLI_TRACED = ("main",)

COUNTED_METHODS = ("port_start", "top_start", "circumference")

NO_PARENT = -1


class SpanRecorder:
    """Spans as parallel arrays: name id, start, end, parent span index.

    ``raised`` holds the indices of spans whose call raised.

    Recording is paused except inside ``with recorder:``.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.raised: set[int] = set()
        self.counts: dict[str, int] = {}
        self.stack: list[int] = []
        self.paused = True

    def __enter__(self) -> "SpanRecorder":
        self.paused = False
        return self

    def __exit__(self, *exc) -> None:
        self.paused = True

    def name_id(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def enter(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else NO_PARENT)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def exit(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def add(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def __len__(self) -> int:
        return len(self.start)


def self_times(start, end, parent) -> list[float]:
    """Per span: its duration minus the durations of its direct children.

    Children nest inside their parent, so subtracting each direct child's
    whole duration removes exactly the part of the interval they cover.
    """
    out = [end[i] - start[i] for i in range(len(start))]
    for i in range(len(start)):
        p = parent[i]
        if p != NO_PARENT:
            out[p] -= end[i] - start[i]
    return out


# -- result observers --------------------------------------------------------
# Work counts read off a traced call's result, keyed by span name.


def _classes(rec: SpanRecorder, result) -> None:
    rec.add("halftree.enumerate_halftrees.classes", len(result))


def _intervals(rec: SpanRecorder, result) -> None:
    rec.add("flow.intervals", sum(len(c.crossings) for c in result))
    rec.add("flow.vertical_cylinders", len(result))


def _candidate(rec: SpanRecorder, result) -> None:
    rec.add("deform.check_candidate.accepted", int(result.ok))


def _cases(rec: SpanRecorder, result) -> None:
    rec.add("lemmas.cases", result.cases_checked)


OBSERVERS = {
    "halftree.enumerate_halftrees": _classes,
    "flow.vertical_decomposition": _intervals,
    "deform.check_candidate": _candidate,
    "lemmas.verify_balls_lemma": _cases,
    "lemmas.verify_interval_lemma": _cases,
    "lemmas.verify_colored_tree_lemma": _cases,
}


def _span_wrapper(rec: SpanRecorder, name: str, fn):
    nid = rec.name_id(name)
    observe = OBSERVERS.get(name)

    def traced(*args, **kwargs):
        if rec.paused:
            return fn(*args, **kwargs)
        idx = rec.enter(nid)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.raised.add(idx)
            raise
        finally:
            rec.exit(idx)
        if observe is not None:
            observe(rec, result)
        return result

    traced.__wrapped__ = fn
    return traced


def _count_wrapper(rec: SpanRecorder, key: str, fn):
    def counted(*args, **kwargs):
        if not rec.paused:
            rec.add(key)
        return fn(*args, **kwargs)

    counted.__wrapped__ = fn
    return counted


def traced_functions() -> dict[object, str]:
    """Function object -> span name ``<layer>.<function>`` for every traced function."""
    out: dict[object, str] = {}
    for layer in LAYERS:
        module = sys.modules[f"flattree.{layer}"]
        for attr, value in vars(module).items():
            if (
                isinstance(value, types.FunctionType)
                and value.__module__ == module.__name__
                and not attr.startswith("_")
                and (layer != "cli" or attr in CLI_TRACED)
            ):
                out[value] = f"{layer}.{attr}"
    return out


def install(rec: SpanRecorder):
    """Patch the loaded ``flattree`` modules; returns a function that undoes it."""
    names = traced_functions()
    wrappers = {fn: _span_wrapper(rec, name, fn) for fn, name in names.items()}
    undo: list[tuple[object, str, object]] = []
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "flattree" or modname.startswith("flattree.")):
            continue
        for attr, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType) and value in wrappers:
                undo.append((module, attr, value))
                setattr(module, attr, wrappers[value])
    cls = sys.modules["flattree.surface"].HyperellipticSurface
    for meth in COUNTED_METHODS:
        original = cls.__dict__[meth]
        undo.append((cls, meth, original))
        setattr(cls, meth, _count_wrapper(rec, f"surface.{meth}.calls", original))

    def restore() -> None:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore


# -- aggregation ---------------------------------------------------------------

SPAN_METRICS = (
    "halftree.enumerate_halftrees",
    "halftree.canonical_form",
    "halftree.validate",
    "surface.build",
    "surface.random_metric",
    "surface.lower",
    "surface.certify_glued",
    "surface.singularity_profile",
    "surface.weierstrass_points",
    "surface.involution_check",
    "surface.canonical_metric",
    "flow.vertical_decomposition",
    "flow.standard_position",
    "collapse.horizontal_collapse",
    "collapse.vertical_collapse",
    "cover.pullback",
    "cover.quotient",
    "cover.certify_cover",
    "deform.check_candidate",
    "deform.shear_class",
    "deform.dilate_class",
    "cli.main",
)
LEMMAS = ("lemmas.verify_balls_lemma", "lemmas.verify_interval_lemma", "lemmas.verify_colored_tree_lemma")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: SpanRecorder) -> dict[str, tuple[float, str]]:
    """Per-layer metric name -> (value, unit), from the recorded spans and counts."""
    own = self_times(rec.start, rec.end, rec.parent)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    refused: dict[str, int] = {}
    for i in range(len(rec)):
        name = rec.names[rec.name[i]]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own[i]
        total_s[name] = total_s.get(name, 0.0) + rec.end[i] - rec.start[i]
        if i in rec.raised:
            refused[name] = refused.get(name, 0) + 1

    enum_id = rec.name_id("halftree.enumerate_halftrees")
    canon_id = rec.name_id("halftree.canonical_form")
    canon_in_enum = 0
    for i in range(len(rec)):
        if rec.name[i] != canon_id:
            continue
        p = rec.parent[i]
        while p != NO_PARENT and rec.name[p] != enum_id:
            p = rec.parent[p]
        canon_in_enum += p != NO_PARENT

    counts = rec.counts
    m: dict[str, tuple[float, str]] = {}
    for name in SPAN_METRICS:
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for name in LEMMAS:
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    classes = counts.get("halftree.enumerate_halftrees.classes", 0)
    m["halftree.enumerate_halftrees.classes"] = (classes, "count")
    m["halftree.enumerate_halftrees.yield"] = (_ratio(classes, canon_in_enum), "ratio")
    for meth in COUNTED_METHODS:
        key = f"surface.{meth}.calls"
        m[key] = (counts.get(key, 0), "count")
    intervals = counts.get("flow.intervals", 0)
    m["flow.intervals"] = (intervals, "count")
    m["flow.vertical_cylinders"] = (counts.get("flow.vertical_cylinders", 0), "count")
    m["flow.us_per_interval"] = (
        _ratio(1e6 * total_s.get("flow.vertical_decomposition", 0.0), intervals),
        "us",
    )
    m["collapse.horizontal_collapse.refused"] = (refused.get("collapse.horizontal_collapse", 0), "count")
    m["cover.quotient.refused"] = (refused.get("cover.quotient", 0), "count")
    m["deform.check_candidate.accept_ratio"] = (
        _ratio(counts.get("deform.check_candidate.accepted", 0), calls.get("deform.check_candidate", 0)),
        "ratio",
    )
    cases = counts.get("lemmas.cases", 0)
    m["lemmas.cases"] = (cases, "count")
    m["lemmas.us_per_case"] = (_ratio(1e6 * sum(total_s.get(n, 0.0) for n in LEMMAS), cases), "us")
    m["cli.stdout_bytes"] = (counts.get("cli.stdout_bytes", 0), "bytes")
    return m
