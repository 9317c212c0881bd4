"""Per-layer spans for `balsub`, recorded from outside the package.

`Tracer` replaces each traced public function at every name a `balsub`
module binds it to (so `balsub.assemble.build_hub` and
`balsub.gadgets.build_hub` are both caught), plus `Graph.induced` on the
class, and puts the originals back on exit.  Each call becomes one span:
``[id, parent id, operation id, name, start, end, note]``.  Spans stay in
memory; `layer_metrics` reduces one pass's spans to the per-layer metrics.

Per-call helpers such as `Graph.neighbors` stay unwrapped: they run
millions of times per operation and a wrapper would dominate their cost.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# (module, function): span name is "<module suffix>.<function>"
FUNCTIONS = (
    ("assemble", "top_level"),
    ("assemble", "find_balanced_subdivision"),
    ("expander", "extract_bipartite_expander"),
    ("expander", "verify_expander"),
    ("drc", "dense_tk2"),
    ("drc", "drc_select"),
    ("gadgets", "build_unit"),
    ("gadgets", "build_hub"),
    ("gadgets", "build_simple_adjuster"),
    ("gadgets", "validate_hub"),
    ("gadgets", "validate_unit"),
    ("gadgets", "validate_adjuster"),
    ("router", "exact_path_in_region"),
    ("connect", "short_connect"),
    ("graph", "min_degree_peel"),
    ("certify", "verify_subdivision"),
    ("certify", "best_balanced_clique"),
    ("generators", "from_edge_list"),
)
METHODS = (("graph", "Graph", "induced"),)


def _is_failure(result) -> bool:
    return type(result).__name__ == "BuildFailure"


def _note_dense(result):
    if not _is_failure(result):
        return "found"
    return "budget_exhausted" if "budget" in result.detail else None


def _note_verdict(result):
    return (result.sets_checked, result.status == "refuted")


# span name -> function of the call's result giving the span's note
NOTES = {
    "drc.dense_tk2": _note_dense,
    "gadgets.build_unit": lambda r: "failed" if _is_failure(r) else None,
    "gadgets.build_hub": lambda r: "failed" if _is_failure(r) else None,
    "router.exact_path_in_region": lambda r: None if r is None else "found",
    "connect.short_connect": lambda r: None if r is None else "found",
    "expander.verify_expander": _note_verdict,
}

# (metric prefix, span names it covers, whether a .calls count is reported)
TIMED = (
    ("assemble.find_balanced_subdivision", ("assemble.find_balanced_subdivision",), True),
    ("expander.extract_bipartite_expander", ("expander.extract_bipartite_expander",), True),
    ("expander.verify_expander", ("expander.verify_expander",), True),
    ("drc.dense_tk2", ("drc.dense_tk2",), True),
    ("drc.drc_select", ("drc.drc_select",), True),
    ("gadgets.build_unit", ("gadgets.build_unit",), True),
    ("gadgets.build_hub", ("gadgets.build_hub",), True),
    ("gadgets.build_simple_adjuster", ("gadgets.build_simple_adjuster",), False),
    ("gadgets.validate",
     ("gadgets.validate_hub", "gadgets.validate_unit", "gadgets.validate_adjuster"), False),
    ("router.exact_path_in_region", ("router.exact_path_in_region",), True),
    ("connect.short_connect", ("connect.short_connect",), True),
    ("graph.induced", ("graph.induced",), True),
    ("graph.min_degree_peel", ("graph.min_degree_peel",), True),
    ("certify.verify_subdivision", ("certify.verify_subdivision",), True),
    ("certify.best_balanced_clique", ("certify.best_balanced_clique",), True),
    ("generators.from_edge_list", ("generators.from_edge_list",), False),
)
# metric -> (span name, note counted)
NOTE_COUNTS = {
    "drc.dense_tk2.found": ("drc.dense_tk2", "found"),
    "drc.dense_tk2.budget_exhausted": ("drc.dense_tk2", "budget_exhausted"),
    "gadgets.build_unit.failed": ("gadgets.build_unit", "failed"),
    "gadgets.build_hub.failed": ("gadgets.build_hub", "failed"),
    "router.exact_path_in_region.found": ("router.exact_path_in_region", "found"),
    "connect.short_connect.found": ("connect.short_connect", "found"),
}


def layer_metric_units() -> dict[str, str]:
    """Every name `layer_metrics` returns, with its unit."""
    units = {"assemble.top_level.self_s": "s"}
    for prefix, _names, calls in TIMED:
        units[prefix + ".s"] = "s"
        if calls:
            units[prefix + ".calls"] = "count"
    for name in NOTE_COUNTS:
        units[name] = "count"
    units["expander.sets_checked"] = "count"
    units["expander.refuted"] = "count"
    return units


class Tracer:
    """Context manager that wraps the traced functions of the imported
    `balsub` package and records spans into `self.spans`."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, note = self.spans, self._stack, NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [len(spans), stack[-1] if stack else -1, self.op, name, 0.0, 0.0, None]
            spans.append(record)
            stack.append(record[0])
            record[4] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[5] = perf_counter()
                stack.pop()
            if note is not None:
                record[6] = note(result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = [
            m for key, m in sys.modules.items()
            if m is not None and (key == "balsub" or key.startswith("balsub."))
        ]
        wrappers = {}
        for mod, attr in FUNCTIONS:
            fn = getattr(sys.modules[f"balsub.{mod}"], attr)
            wrappers[id(fn)] = (fn, self._wrap(f"{mod}.{attr}", fn))
        try:
            for module in modules:
                for key, value in list(vars(module).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        self._patched.append((module, key, value))
                        setattr(module, key, hit[1])
            for mod, cls_name, attr in METHODS:
                cls = getattr(sys.modules[f"balsub.{mod}"], cls_name)
                original = cls.__dict__[attr]
                self._patched.append((cls, attr, original))
                setattr(cls, attr, self._wrap(f"{mod}.{attr}", original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def _outermost_busy(spans: list[list], names: frozenset[str]) -> float:
    """Seconds covered by spans named in `names`, counting a span only when
    no enclosing span is also in `names`."""
    total = 0.0
    for span in spans:
        if span[3] not in names:
            continue
        parent = span[1]
        while parent >= 0 and spans[parent][3] not in names:
            parent = spans[parent][1]
        if parent < 0:
            total += span[5] - span[4]
    return total


def layer_metrics(spans: list[list]) -> dict[str, float | int]:
    """Per-layer metrics of one pass from its spans (ids index `spans`)."""
    out: dict[str, float | int] = {}
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[1] >= 0:
            child_time[span[1]] += span[5] - span[4]
    out["assemble.top_level.self_s"] = sum(
        span[5] - span[4] - child_time[span[0]]
        for span in spans if span[3] == "assemble.top_level"
    )
    for prefix, names, calls in TIMED:
        out[prefix + ".s"] = _outermost_busy(spans, frozenset(names))
        if calls:
            out[prefix + ".calls"] = sum(1 for s in spans if s[3] in names)
    for metric, (name, note) in NOTE_COUNTS.items():
        out[metric] = sum(1 for s in spans if s[3] == name and s[6] == note)
    verdicts = [s[6] for s in spans if s[3] == "expander.verify_expander"]
    out["expander.sets_checked"] = sum(v[0] for v in verdicts)
    out["expander.refuted"] = sum(1 for v in verdicts if v[1])
    return out
