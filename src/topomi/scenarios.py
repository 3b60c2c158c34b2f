"""Scenario files: data-driven golden checks for grids, graphs and codes.

A scenario is a JSON object with a payload (grid CSS, simple graph, or code
lattice plus regions) and an optional ``expected`` block in integer units
(counts, multiples of log D or log 2).  Every check compares integers: a
multiple of log D is checked as -C, the integer the engine holds (C^N, or
the C around a loop), so a check means the same at every D >= 1.  The
runner dispatches on payload kind and reports one check per expected key:
a check that raises a TopomiError fails alone and names the error, and an
error before any check is the single failed ``evaluate`` check.  No check
builds a 2^N table, whether it passes or fails: C^N comes from the frontier
walk, and a failing integer check reads the value got and the one expected.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import NamedTuple

from . import engine, graphs, stabilizer
from .engine import SCHEMA, CssAnalysis
from .errors import NotAnnular, ParseError, TopomiError, ValidationError
from .grid import GridCss, ascii_rows, hole_name, is_json_int, parse_grid_json, read_input, subset_letters
from .model import EntropyModel


@dataclass(frozen=True)
class Check:
    label: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ScenarioResult:
    name: str
    kind: str
    passed: bool
    checks: tuple[Check, ...]
    elapsed: float
    report: dict = field(default_factory=dict)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "passed": self.passed,
            "checks": [
                {"label": c.label, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }


class _Kind(NamedTuple):
    wrap: str  # the key a wrapped payload sits under
    marks: tuple[str, ...]  # top-level keys that mark the kind
    bare: tuple[str, ...]  # the keys of a bare payload
    expected: dict  # expected key -> int, bool, or the size field of a loop list


#: every scenario kind, in the order inference tries their marks: analytic is the default
_KINDS = {
    "graph": _Kind("graph", ("graph", "v"), ("v", "edges"), {"rho": int}),
    "stabilizer": _Kind(
        "lattice", ("lattice", "Lx"), ("Lx", "Ly", "boundary", "regions", "css"),
        {"i_exact_over_log2": int, "matches_counting": bool},
    ),
    "analytic": _Kind("css", (), ("ascii", "width", "height", "labels"), {
        "n": int, "c_n": int, "i_over_log_d": int, "d_nn": int, "n_h": int, "chi": int,
        "annular": bool, "per_hole": "loop_size", "constraint_over_log_d": int,
        "subloops": "size", "sigma": int,
    }),
}
#: the top-level keys of every kind
_COMMON_KEYS = ("name", "kind", "case", "expected")


@dataclass(frozen=True)
class Scenario:
    name: str
    kind: str  # analytic | graph | stabilizer
    payload: dict
    expected: dict
    case: str = ""

    @staticmethod
    def from_dict(obj: Mapping, source_path: str = "") -> "Scenario":
        if not isinstance(obj, Mapping):
            raise ParseError("scenario must be a JSON object")
        name = str(obj.get("name") or Path(source_path).stem or "scenario")
        if "kind" in obj:
            kind = str(obj["kind"])
        else:
            kind = next(k for k, spec in _KINDS.items()
                        if not spec.marks or not obj.keys().isdisjoint(spec.marks))
        if kind not in _KINDS:
            raise ParseError(f"unknown scenario kind {kind!r}")
        spec = _KINDS[kind]
        for key in obj:
            if key not in (*_COMMON_KEYS, spec.wrap, *spec.bare):
                raise ParseError(f"{kind} scenarios have no top-level key {key!r}")
        expected = obj.get("expected", {})
        if not isinstance(expected, Mapping):
            raise ParseError(f"'expected' must be an object, got {expected!r}")
        for key, value in expected.items():
            if key not in spec.expected:
                raise ParseError(f"{kind} scenarios have no expected key {key!r}")
            _check_expected(key, value, spec.expected[key])
        return Scenario(
            name=name,
            kind=kind,
            payload=dict(obj),
            expected=dict(expected),
            case=str(obj.get("case", "")),
        )

    @property
    def kind_payload(self):
        """The kind's payload: the value under its key, else the scenario object itself."""
        return self.payload.get(_KINDS[self.kind].wrap, self.payload)


def _check_expected(key: str, value, want) -> None:
    """ParseError naming ``key`` unless ``value`` has the JSON type ``want``:
    int, bool, or the size field of a loop list."""
    if want is int:
        ok, what = is_json_int(value), "an integer"
    elif want is bool:
        ok, what = isinstance(value, bool), "true or false"
    else:
        fields = (want, "i_over_log_d")
        ok = isinstance(value, list) and all(
            isinstance(e, Mapping) and all(is_json_int(e.get(f)) for f in fields) for e in value
        )
        what = f"a list of objects with integer {want!r} and 'i_over_log_d'"
    if not ok:
        raise ParseError(f"expected {key!r} must be {what}, got {value!r}")


def load_scenario(path, kind: str | None = None) -> Scenario:
    """The scenario in a ``.json`` file, or the payload in a text file: an edge
    list when ``kind`` is "graph", else an ASCII grid.  ParseError unless the
    scenario is of ``kind``, when one is given."""
    data = read_input(path)
    if isinstance(data, str):
        if kind == "graph":
            graph = graphs.parse_graph_text(data)
            data = {"kind": kind, "graph": {"v": graph.vertex_count, "edges": graph.edges}}
        else:
            data = {"kind": "analytic", "css": {"ascii": ascii_rows(data)}}
    scn = Scenario.from_dict(data, source_path=str(path))
    if kind is not None and scn.kind != kind:
        raise ParseError(f"{path} is a {scn.kind!r} scenario where a {kind!r} one is needed")
    return scn


def scenario_css(scn: Scenario) -> GridCss:
    return parse_grid_json(scn.kind_payload, name=scn.name)


# ----------------------------------------------------------------------
# running
# ----------------------------------------------------------------------

def run_scenario(scn: Scenario, model: EntropyModel | None = None) -> ScenarioResult:
    return evaluate_scenario(scn, model)[0]


def evaluate_scenario(
    scn: Scenario, model: EntropyModel | None = None
) -> tuple[ScenarioResult, CssAnalysis | None]:
    """``run_scenario`` plus the analysis of an analytic scenario whose grid
    parsed, even when a check then raised, else None.

    Each expected key is one check, in ``_KINDS`` order, and a check that
    raises a TopomiError fails alone, labelled by its key and naming the
    error.  An error before any check (reading the payload, the N >= 3 rule,
    a cap) is the single failed ``evaluate`` check."""
    model = model or EntropyModel()
    start = time.perf_counter()
    analysis = None
    try:
        if scn.kind == "analytic":
            analysis = CssAnalysis(scenario_css(scn))
            report, matchers = _run_analytic(model, analysis)
        elif scn.kind == "graph":
            report, matchers = _run_graph(scn)
        else:
            report, matchers = _run_stabilizer(scn)
    except TopomiError as exc:
        checks, report = [Check("evaluate", False, f"{type(exc).__name__}: {exc}")], {}
    else:
        checks = [_check(key, matchers[key], scn.expected[key])
                  for key in _KINDS[scn.kind].expected if key in scn.expected]
    checks = checks or [Check("evaluate", True, "no expectations; evaluated cleanly")]
    elapsed = time.perf_counter() - start
    passed = all(c.passed for c in checks)
    result = ScenarioResult(scn.name, scn.kind, passed, tuple(checks), elapsed, report)
    return result, analysis


def _check(key: str, match, want) -> Check:
    """``match(want)``, or a failed check labelled ``key`` naming the TopomiError it raised."""
    try:
        return match(want)
    except TopomiError as exc:
        return Check(key, False, f"{type(exc).__name__}: {exc}")


def _match_int(label: str, got: int, want: int, unit: str = "") -> Check:
    return Check(label, got == want, f"got {got}{unit}, expected {want}")


def _match_loops(label: str, loops, entries, size_key: str) -> Check:
    """Compare the (size, -C) pairs of (loop, -C) ``loops`` with expected
    ``{size_key, "i_over_log_d"}`` entries; a failure names a loop in excess."""
    want = sorted((e[size_key], e["i_over_log_d"]) for e in entries)
    got = sorted((len(loop), units) for loop, units in loops)
    detail = f"got {got}, expected {want}"
    excess = Counter(got) - Counter(want)
    for loop, units in loops:
        if (len(loop), units) in excess:  # the first loop whose pair is not expected
            letters = subset_letters(sum(1 << i for i in loop))
            detail += f"; loop {letters} gives ({len(loop)}, {units}), not expected"
            break
    return Check(label, got == want, detail)


def _match_annular(analysis: CssAnalysis, want: bool) -> Check:
    try:
        engine.annular_order(analysis)
        is_annular = True
    except NotAnnular:
        is_annular = False
    return Check("annular", is_annular == want, f"annular={is_annular}")


def _match_constraint(analysis: CssAnalysis, report, want: int) -> Check:
    if report.constraint_sum is None:  # name each hole without a loop by its first cell, and why
        holes, missing = analysis.holes.holes, []
        for k, (hole, h) in enumerate(zip(holes, report.holes), 1):
            if h.error:
                missing.append(f"{hole_name(k, len(holes), hole)} has no loop: {h.error}")
        return Check("constraint_over_log_d", False, "; ".join(missing) or "the CSS has no hole")
    return _match_int("constraint_over_log_d", sum(abs(h.c) for h in report.holes), want, " units")


def _match_subloops(model: EntropyModel, analysis: CssAnalysis, want) -> Check:
    sub = engine.subloop_revival(model, analysis)
    return _match_loops("subloops", [(sub.loop_p, -sub.c_p), (sub.loop_q, -sub.c_q)], want, "size")


def _run_analytic(model: EntropyModel, analysis: CssAnalysis) -> tuple[dict, dict]:
    """The report of an analytic scenario, and the check of each of its kind's expected keys."""
    report = engine.information_summary(model, analysis)
    return report.to_json_dict(), {
        "n": lambda want: _match_int("n_subsystems", report.n_subsystems, want),
        "c_n": lambda want: _match_int("c_n", report.c_n, want),
        "i_over_log_d": lambda want: _match_int("i_over_log_d", -report.c_n, want, " units"),
        "d_nn": lambda want: _match_int("d_nn", analysis.graph.d_nn, want),
        "n_h": lambda want: _match_int("n_h", analysis.holes.n_h, want),
        "chi": lambda want: _match_int("chi", analysis.chi, want),
        "annular": partial(_match_annular, analysis),
        "per_hole": lambda want: _match_loops(
            "per_hole", [(h.loop, -h.c) for h in report.holes if h.loop], want, "loop_size"),
        "constraint_over_log_d": partial(_match_constraint, analysis, report),
        "subloops": partial(_match_subloops, model, analysis),
        "sigma": lambda want: _match_int("sigma", graphs.sigma_of_css(analysis), want),
    }


def _run_graph(scn: Scenario):
    graph = graphs.parse_graph_json(scn.kind_payload)
    value = graphs.rho(graph)
    report = {"schema": SCHEMA, "name": scn.name, "v": graph.vertex_count,
              "edges": [list(e) for e in graph.edges], "rho": value}
    return report, {"rho": partial(_match_int, "rho", value)}


def _match_counting(value: int, region_map, want: bool) -> Check:
    if region_map.css is None:
        return Check("matches_counting", False, "no grid payload to count on")
    # a torus grid is rasterized in its planar cut, which is what is counted here
    counting = -engine.connectivity_count(region_map.css).c_n
    return Check("matches_counting", (value == counting) == want, f"oracle {value}, counting {counting}")


def _run_stabilizer(scn: Scenario):
    lattice, region_map = stabilizer.parse_lattice_scenario(scn.kind_payload)
    if region_map.n_subsystems < 3:
        raise ValidationError("N-partite information needs N >= 3")
    state = stabilizer.build_code(lattice)
    value = stabilizer.multipartite_information_exact(state, region_map)
    report = {"schema": SCHEMA, "name": scn.name, "n_qubits": lattice.n_qubits,
              "boundary": lattice.boundary, "n_regions": region_map.n_subsystems,
              "i_exact_log2": value, "i_exact_nats": value * math.log(2.0)}
    return report, {"i_exact_over_log2": partial(_match_int, "i_exact_over_log2", value),
                     "matches_counting": partial(_match_counting, value, region_map)}


# ----------------------------------------------------------------------
# suites
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SuiteResult:
    results: tuple[ScenarioResult, ...]

    @property
    def n_failed(self) -> int:
        return sum(1 for r in self.results if not r.passed)

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "scenarios": [r.to_json_dict() for r in self.results],
            "failed": self.n_failed,
            "total": len(self.results),
        }


def suite_paths(directory) -> list[Path]:
    """The ``*.json`` files of an existing directory, in name order."""
    path = Path(directory)
    if not path.is_dir():
        raise ParseError(f"{directory} is not a directory")
    return sorted(path.glob("*.json"), key=lambda p: p.name)


def run_suite(directory, model: EntropyModel | None = None) -> SuiteResult:
    """Run every scenario file in a directory, in name order.

    A file that cannot be loaded becomes a failed scenario and the suite
    goes on.
    """
    results = []
    for path in suite_paths(directory):
        try:
            scn = load_scenario(path)
        except TopomiError as exc:
            results.append(ScenarioResult(
                path.stem, "unknown", False,
                (Check("parse", False, f"{type(exc).__name__}: {exc}"),), 0.0,
            ))
            continue
        results.append(run_scenario(scn, model))
    return SuiteResult(tuple(results))


def gallery_dir() -> Path:
    """Directory with the built-in scenario gallery."""
    return Path(__file__).resolve().parent / "gallery"
