"""Spans and counters recorded around topomi's layer calls.

Nothing inside the package is instrumented.  For a traced op, ``Tracer``
swaps wrappers in for the package's public functions (and the few cached
table properties that carry the per-subset work), records one span per
call, and swaps the originals back afterwards, so an untraced op runs the
unmodified code.  Spans stay in memory until the run ends.

A span name is ``<module>.<call>``; the module is the layer.  A function
imported by name into other modules is replaced everywhere it is bound.
"""

from __future__ import annotations

import functools
import time
import weakref
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property

from topomi import engine, graphs, grid, masks, scenarios, stabilizer

LAYERS = ("scenarios", "engine", "masks", "grid", "graphs", "stabilizer")
_MODULES = (scenarios, engine, masks, grid, graphs, stabilizer)

#: module function -> span name
_FUNCTION_SPANS = (
    (scenarios.run_suite, "scenarios.suite"),
    (scenarios.load_scenario, "scenarios.load"),
    (scenarios.run_scenario, "scenarios.run"),
    (engine.multipartite_information, "engine.information"),
    (engine.connectivity_count, "engine.connectivity"),
    (engine.recursion_check, "engine.recursion"),
    (engine.subloop_revival, "engine.subloop"),
    (engine.annular_order, "engine.annular"),
    (grid.find_holes, "grid.holes"),
    (grid.loop_around_hole, "grid.loops"),
    (grid.restrict_css, "grid.restrict"),
    (grid.adjacency_graph, "grid.adjacency"),
    (grid.euler_characteristic, "grid.euler"),
    (graphs.rho, "graphs.rho"),
    (graphs.sigma_of_css, "graphs.sigma"),
    (stabilizer.build_code, "stabilizer.build_code"),
    (stabilizer.rasterize_css, "stabilizer.rasterize"),
    (stabilizer.multipartite_information_exact, "stabilizer.exact"),
    (stabilizer.entropy_bits, "stabilizer.entropy_bits"),
)

#: UnionTopology cached property -> span name (None: counters only)
_TABLE_SPANS = (
    ("euler_table", "masks.euler"),
    ("boundary_links_table", "masks.links"),
    ("component_table", "masks.components"),
    ("masks", None),
    ("popcounts", None),
    ("signs", None),
    ("j_table", None),
    ("_cell_component_graph", None),
)

#: every UnionTopology table indexed by subset mask (2**N entries)
_MASK_TABLES = ("masks", "popcounts", "signs", "euler_table",
                "boundary_links_table", "component_table", "j_table")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    op: int


@dataclass
class Tracer:
    """Span and counter store plus the patching that feeds it."""

    spans: list[Span] = field(default_factory=list)
    counters: dict[int, dict[str, int]] = field(default_factory=lambda: defaultdict(lambda: defaultdict(int)))
    op: int = -1
    _stack: list[int] = field(default_factory=list)
    #: id -> CSS returned by restrict_css in this op (weak, so ids are not reused)
    _restricted: weakref.WeakValueDictionary = field(default_factory=weakref.WeakValueDictionary)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        self._stack.append(idx)
        return idx

    def leave(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, value: int) -> None:
        self.counters[self.op][name] += value

    def begin_op(self, op: int) -> int:
        self.op = op
        self._restricted.clear()
        return self.enter("bench.op")

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Swap span-recording wrappers in for the package's layer calls."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for func, name in _FUNCTION_SPANS:
            self._replace_everywhere(func, self._wrap(func, name, _COUNTERS.get(name)))
        # the hole pass: _information_value on a CSS produced by restrict_css
        self._replace_everywhere(engine._information_value, self._wrap_hole_pass(engine._information_value))
        cls = masks.UnionTopology
        for attr, name in _TABLE_SPANS:
            prop = vars(cls)[attr]
            new = cached_property(self._wrap(prop.func, name, self._table_counter(attr)))
            new.__set_name__(cls, attr)
            self._set(cls, attr, new)
        post_init = grid.GridCss.__post_init__
        self._set(grid.GridCss, "__post_init__", self._wrap(post_init, "grid.validate", _count_cells))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper) -> None:
        for module in _MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def _wrap(self, func, name, counter=None):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = tracer.enter(name) if name else -1
            try:
                result = func(*args, **kwargs)
            finally:
                if idx >= 0:
                    tracer.leave(idx)
            if counter is not None:
                counter(tracer, args, result)
            return result

        return traced

    def _wrap_hole_pass(self, func):
        tracer = self

        @functools.wraps(func)
        def traced(model, topo):
            if tracer._restricted.get(id(topo.css)) is not topo.css:
                return func(model, topo)
            idx = tracer.enter("engine.hole_pass")
            try:
                return func(model, topo)
            finally:
                tracer.leave(idx)

        return traced

    @staticmethod
    def _table_counter(attr: str):
        def count(tracer: "Tracer", args, result) -> None:
            if attr in _MASK_TABLES:
                tracer.count("masks.table_bytes", int(result.nbytes))
            if attr == "masks":
                tracer.count("masks.subsets", len(result) - 1)
            if attr == "_cell_component_graph":
                _, cv_mask, _ = result
                tracer.count("masks.split_subsystems", sum(1 for m in cv_mask if m.bit_count() > 1))

        return count


def _count_cells(tracer: Tracer, args, result) -> None:
    css = args[0]
    tracer.count("grid.cells", css.width * css.height)


def _note_restricted(tracer: Tracer, args, result) -> None:
    tracer._restricted[id(result)] = result


def _count_rank(tracer: Tracer, args, result) -> None:
    tracer.count("stabilizer.ranks", 1)


def _count_qubits(tracer: Tracer, args, result) -> None:
    tracer.count("stabilizer.qubits", result.n)


_COUNTERS = {
    "grid.restrict": _note_restricted,
    "stabilizer.entropy_bits": _count_rank,
    "stabilizer.build_code": _count_qubits,
}


# ----------------------------------------------------------------------
# per-op summaries
# ----------------------------------------------------------------------

def op_summary(tracer: Tracer, op: int) -> dict[str, float]:
    """Per-op span totals, layer self times and counters.

    ``<name>_s`` is the wall time inside spans of that name, a call nested
    in a call of the same name counted once.  ``<layer>.layer_self_s`` is
    the time in the layer's spans not covered by a child span, so the
    layer self times (with ``bench`` for the harness) add up to the op.
    """
    spans = tracer.spans
    mine = [k for k, s in enumerate(spans) if s.op == op]
    child_time: dict[int, float] = defaultdict(float)
    for k in mine:
        s = spans[k]
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    out: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for k in mine:
        s = spans[k]
        dur = s.end - s.start
        self_time = dur - child_time[k]
        calls[s.name] += 1
        out[s.name.split(".")[0] + ".layer_self_s"] += self_time
        if s.name == "engine.information":
            out["engine.self_s"] += self_time
        if not _nested_in_same_name(spans, s):
            out[s.name + "_s"] += dur
    for name, value in tracer.counters[op].items():
        out[name] += value
    out["trace.spans"] = len(mine)
    if calls["stabilizer.entropy_bits"]:
        out["stabilizer.entropy_bits_s"] /= calls["stabilizer.entropy_bits"]
    return out


def _nested_in_same_name(spans: list[Span], span: Span) -> bool:
    parent = span.parent
    while parent >= 0:
        if spans[parent].name == span.name:
            return True
        parent = spans[parent].parent
    return False
