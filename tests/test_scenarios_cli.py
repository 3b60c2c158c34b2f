"""Scenario files, suite running and the command-line front-end."""

import argparse
import contextlib
import copy
import importlib.util
import io
import itertools
import json
import math
import random
import re
import string
import subprocess
import sys
import tempfile
import time
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from topomi import builders, engine, grid, masks, scenarios
from topomi.cli import build_parser, main
from topomi.errors import NotAnnular, ParseError, TopomiError
from topomi.grid import parse_grid_json
from topomi.model import EntropyModel
from topomi.scenarios import (
    Scenario,
    gallery_dir,
    load_scenario,
    ScenarioResult,
    run_scenario,
    run_suite,
    suite_paths,
)

GALLERY = gallery_dir()

#: every catalog case the shipped gallery must cover
REQUIRED_CASES = {
    "ring-baseline",
    "open-chain",
    "ring-plus-island",
    "ring-plus-appendage",
    "punched-subsystem",
    "self-handle",
    "nn-handle",
    "far-handle",
    "far-handle-small-loop",
    "far-handle-large-loop",
    "two-hole-spine",
    "six-hole-lattice",
    "ring-dual-graph",
    "chain-dual-graph",
    "code-ring-min-torus",
    "code-ring-min-planar",
    "code-ring-fat-torus",
    "code-ring-fat-planar",
}


def test_gallery_covers_catalog():
    cases = {load_scenario(p).case for p in suite_paths(GALLERY)}
    assert REQUIRED_CASES <= cases


def test_gallery_generator_reproduces_gallery(tmp_path, monkeypatch, capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / "generate_gallery.py"
    spec = importlib.util.spec_from_file_location("generate_gallery", script)
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    monkeypatch.setattr(generator, "gallery_dir", lambda: tmp_path)
    generator.main()

    def files(root):
        return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    generated, shipped = files(tmp_path), files(GALLERY)
    assert sorted(generated) == sorted(shipped)
    assert [p for p in shipped if generated[p] != shipped[p]] == []


def test_gallery_all_pass():
    suite = run_suite(GALLERY, EntropyModel(2.0))
    failed = [r.name for r in suite.results if not r.passed]
    assert failed == []
    assert len(suite.results) >= len(REQUIRED_CASES)


def test_gallery_passes_for_other_dimensions():
    # integer-unit expectations hold for any D >= 1, in either unit
    for model in [EntropyModel(1.0), EntropyModel(math.sqrt(2)), EntropyModel(3.0),
                  EntropyModel(3.0, log_base="2")]:
        assert run_suite(GALLERY, model).n_failed == 0, model


def test_wrong_multiples_of_log_d_fail_in_a_trivial_phase(tmp_path, capsys):
    # at D = 1 every I is 0, so only the integer -C tells these expectations wrong
    ring = json.loads((GALLERY / "annulus-n4.json").read_text())
    ring["expected"].update(i_over_log_d=7, constraint_over_log_d=5)
    ring["expected"]["per_hole"][0]["i_over_log_d"] = 99
    handle = json.loads((GALLERY / "far-handle-n6-span3.json").read_text())
    for entry in handle["expected"]["subloops"]:
        entry["i_over_log_d"] = 42
    for obj, labels in [(ring, ["i_over_log_d", "per_hole", "constraint_over_log_d"]),
                        (handle, ["subloops"])]:
        path = tmp_path / f"{obj['name']}.json"
        path.write_text(json.dumps(obj))
        result = run_scenario(load_scenario(path), EntropyModel(1.0))
        assert [c.label for c in result.failures()] == labels
        assert main(["analyze", str(path), "--dimension", "1"]) == 1
    capsys.readouterr()


def test_empty_suite(tmp_path):
    suite = run_suite(tmp_path)
    assert suite.results == ()
    assert suite.n_failed == 0


def test_corrupted_scenario_fails_alone(tmp_path):
    good = (GALLERY / "annulus-n4.json").read_text()
    (tmp_path / "a-good.json").write_text(good)
    (tmp_path / "b-broken.json").write_text("{not json")
    suite = run_suite(tmp_path)
    assert [r.passed for r in suite.results] == [True, False]
    assert suite.n_failed == 1


def test_scenario_detects_wrong_expectation(tmp_path):
    obj = json.loads((GALLERY / "annulus-n4.json").read_text())
    obj["expected"]["c_n"] = 5
    result = run_scenario(Scenario.from_dict(obj))
    assert not result.passed
    labels = [c.label for c in result.failures()]
    assert labels == ["c_n"]


def _labels_payload(css) -> dict:
    return {"width": css.width, "height": css.height, "labels": list(css.labels)}


def _with_expected(name: str, **expected) -> Scenario:
    obj = json.loads((GALLERY / f"{name}.json").read_text())
    obj["expected"] = expected
    return Scenario.from_dict(obj)


@pytest.mark.parametrize("key, got", [("c_n", 2), ("i_over_log_d", -2)])
def test_failing_order_check_reads_got_and_expected(key, got):
    """A wrong C^N reads the C^N got and the one expected, and nothing more."""
    (check,) = run_scenario(_with_expected("annulus-n5", **{key: 3})).checks
    assert check.label == key and not check.passed
    assert check.detail == f"got {got}{' units' if key == 'i_over_log_d' else ''}, expected 3"


@pytest.mark.parametrize("key, got", [("c_n", -2), ("i_over_log_d", 2)])
def test_failing_order_check_beyond_the_table_cap_keeps_its_label(key, got):
    """Above 24 subsystems C^N still answers, so a wrong expectation fails its
    own check, with the same detail as below the cap."""
    css = builders.annulus(30)
    payload = _labels_payload(css)
    scn = Scenario.from_dict({"name": "annulus-n30", "css": payload, "expected": {key: 3}})
    (check,) = run_scenario(scn).checks
    assert check.label == key and not check.passed
    assert check.detail == f"got {got}{' units' if key == 'i_over_log_d' else ''}, expected 3"


def test_passing_checks_keep_their_detail():
    result = run_scenario(_with_expected("annulus-n5", c_n=2, i_over_log_d=-2))
    assert [c.detail for c in result.checks] == ["got 2, expected 2", "got -2 units, expected -2"]


def test_failing_loop_check_names_the_first_unexpected_loop():
    # two-hole-five's loops (A, B, C) and (A, D, E) both give (3, -2)
    wrong = [{"loop_size": 3, "i_over_log_d": -2}, {"loop_size": 3, "i_over_log_d": 2}]
    (check,) = run_scenario(_with_expected("two-hole-five", per_hole=wrong)).checks
    assert not check.passed
    assert check.detail == (
        "got [(3, -2), (3, -2)], expected [(3, -2), (3, 2)]; "
        "loop {A, B, C} gives (3, -2), not expected"
    )
    wrong = [{"size": 4, "i_over_log_d": -2}, {"size": 4, "i_over_log_d": -2}]
    (check,) = run_scenario(_with_expected("far-handle-n6-span3", subloops=wrong)).checks
    assert not check.passed
    assert check.detail.endswith("; loop {A, D, E, F} gives (4, 2), not expected")


#: the builders whose N passes the 52 grid letters, by name
WIDE_BUILDERS = {
    "annulus": builders.annulus, "open_chain": builders.open_chain, "island": builders.annulus_with_island,
    "appendage": builders.annulus_with_appendage, "punched": builders.annulus_with_punched_hole,
    "self_handle": builders.annulus_with_self_handle, "nn_handle": builders.annulus_with_nn_handle,
    "far_handle": lambda n: builders.far_handle_annulus(n, 3),
    "random": lambda n: builders.random_css(random.Random(n), n, 44, 44, growth=800),
}
#: the builders of the wrong-check test at each N: the fixed ones at N = 53, 60 and 80, random draws at 53, 80 and 200
WIDE_NAMES = {53: list(WIDE_BUILDERS), 60: [name for name in WIDE_BUILDERS if name != "random"],
              80: list(WIDE_BUILDERS), 200: ["random"]}


def _check_labels(kind: str, keys) -> list[str]:
    """The labels of the checks of the expected ``keys`` of a ``kind``, in ``_KINDS`` order."""
    return ["n_subsystems" if key == "n" else key for key in scenarios._KINDS[kind].expected if key in keys]


ANALYTIC_LABELS = _check_labels("analytic", scenarios._KINDS["analytic"].expected)


def _loop_text(loop) -> str:
    """A loop named as a failing check names it: its ids' grid letters, and
    the numbers of the ids past them."""
    letters = string.ascii_uppercase + string.ascii_lowercase
    return "loop {" + ", ".join(letters[i] if i < len(letters) else str(i) for i in sorted(loop)) + "}"


def _all_wrong(css, rng: random.Random) -> dict:
    """Every analytic expected key of ``css`` set to a seeded wrong value."""
    try:
        engine.annular_order(engine.CssAnalysis(css))
        annular = True
    except NotAnnular:
        annular = False
    far = 1000 + rng.randrange(1000)  # no count of these CSSs reaches 1000
    return {**dict.fromkeys(("n", "c_n", "i_over_log_d", "d_nn", "n_h", "chi", "constraint_over_log_d", "sigma"), far),
            "annular": not annular, "per_hole": [{"loop_size": css.n_subsystems, "i_over_log_d": far}],
            "subloops": [{"size": css.n_subsystems, "i_over_log_d": far}]}


@pytest.mark.parametrize("n", WIDE_NAMES)
def test_every_wrong_check_past_the_letters_exits_1_naming_its_loop(n, tmp_path):
    """Each builder at N past the 52 grid letters, with every expected key
    set to a seeded wrong value at once, through ``analyze`` and ``analyze
    --json``: exit 1 with no exception or traceback, one failed check per
    key in ``_KINDS`` order, and the failing ``per_hole`` and ``subloops``
    checks name a loop, its ids past the letters by number."""
    rng, start = random.Random(n), time.perf_counter()
    for name in WIDE_NAMES[n]:
        css = WIDE_BUILDERS[name](n)
        loops = [_loop_text(loop) for loop in engine.CssAnalysis(css).hole_loops if not isinstance(loop, str)]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"name": name, "css": _labels_payload(css), "expected": _all_wrong(css, rng)}))
        for flags in ([], ["--json"]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                assert main(["analyze", str(path), *flags]) == 1, (name, out.getvalue())
            printed = out.getvalue()
            assert "Traceback" not in printed
            if flags:
                checks = [(c["label"], c["passed"], c["detail"]) for c in json.loads(printed)["checks"]]
            else:
                lines = [line.split(": ", 1) for line in printed.splitlines()[1:]]
                checks = [(label.split()[1], label.split()[0] == "ok", detail) for label, detail in lines]
            assert [(label, passed) for label, passed, _ in checks] == [(label, False) for label in ANALYTIC_LABELS]
            details = {label: detail for label, _, detail in checks}
            if loops:
                assert any(f"; {loop} gives (" in details["per_hole"] for loop in loops), (name, details["per_hole"])
            if name == "far_handle":
                assert any(f"; {loop} gives (" in details["subloops"] for loop in loops), (name, details["subloops"])
    # 18 runs, about 0.3 s at N = 80 on a 2-core VM
    assert time.perf_counter() - start < 30


def test_a_check_that_raises_fails_alone_naming_its_error():
    """A ring of 52 arcs and an island with every expected key wrong: the
    checks that raise (chi on a footprint in two pieces, subloops without
    two holes, sigma's precondition) fail with the error's type and text,
    and every other key still gets its own failed check."""
    css = builders.annulus_with_island(53)
    obj = {"name": "island-n53", "css": _labels_payload(css), "expected": _all_wrong(css, random.Random(53))}
    result = run_scenario(Scenario.from_dict(obj))
    assert [(c.label, c.passed) for c in result.checks] == [(label, False) for label in ANALYTIC_LABELS]
    details = {c.label: c.detail for c in result.checks}
    assert details["chi"] == "DisconnectedCss: footprint has 2 components"
    assert details["subloops"].startswith("ValidationError: expected exactly 2 holes")
    assert details["sigma"].startswith("PreconditionViolated: hole 1 of 1")
    assert details["n_subsystems"].startswith("got 53, expected ")
    assert result.report["n"] == 53  # the report survives a check that raised


LOOPLESS_HOLES = {
    # the ring's hole has its loop of 4; the hole punched inside A has none
    "punched": (builders.annulus_with_punched_hole(4),
                "hole 1 of 2 (column 1, row 1) has no loop: only 1 subsystems around the hole"),
    "no-hole": (parse_grid_json({"ascii": ["ABC"]}), "the CSS has no hole"),
}


@pytest.mark.parametrize("name", LOOPLESS_HOLES)
def test_failing_constraint_check_names_each_hole_without_a_loop(name, tmp_path, capsys):
    """Without a loop around every hole there is no constraint sum: the
    detail names each hole that has none and why, or says there is no hole,
    in the scenario's result and in ``topomi analyze``, which exits 1."""
    css, detail = LOOPLESS_HOLES[name]
    payload = _labels_payload(css)
    obj = {"name": name, "css": payload, "expected": {"constraint_over_log_d": 2}}
    if name == "punched":
        obj["expected"]["per_hole"] = [{"loop_size": 4, "i_over_log_d": 2}]
    *passing, check = run_scenario(Scenario.from_dict(obj)).checks
    assert all(c.passed for c in passing)
    assert (check.label, check.passed, check.detail) == ("constraint_over_log_d", False, detail)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(obj))
    assert main(["analyze", str(path)]) == 1
    assert f"FAIL constraint_over_log_d: {detail}\n" in capsys.readouterr().out


#: a gallery file and an edit of its ``expected`` block that leaves a value of the wrong JSON type
#: or a key its scenario kind does not check
BAD_EXPECTED = {
    "c-n-string": ("annulus-n4.json", lambda e: e.update(c_n="x")),
    "c-n-float": ("annulus-n4.json", lambda e: e.update(c_n=2.5)),
    "c-n-bool": ("annulus-n4.json", lambda e: e.update(c_n=True)),
    "annular-int": ("annulus-n4.json", lambda e: e.update(annular=1)),
    "recursion-residual-key": (
        "annulus-n4.json", lambda e: e.update(recursion_residual_below=1e-9)
    ),
    "per-hole-size-string": (
        "annulus-n4.json", lambda e: e["per_hole"][0].update(loop_size="4")
    ),
    "rho-null": ("graph-cycle-n5.json", lambda e: e.update(rho=None)),
    "unknown-key": ("annulus-n4.json", lambda e: e.update(c_N=99)),
    "graph-key-on-grid": (
        "annulus-n4.json", lambda e: e.update(rho=99, i_exact_over_log2=5)
    ),
    "grid-key-on-graph": ("graph-cycle-n5.json", lambda e: e.update(c_n=99)),
}


#: a payload number that is not a JSON integer: gallery file, key path to the number, value
#: (a "css" path edits the grid in its width/height/labels form)
BAD_NUMBER = {
    "grid-width-float": ("annulus-n4.json", ("css", "width"), 3.9),
    "grid-width-string": ("annulus-n4.json", ("css", "width"), "3"),
    "grid-height-bool": ("annulus-n4.json", ("css", "height"), True),
    "grid-label-float": ("annulus-n4.json", ("css", "labels", 2), 1.7),
    "graph-v-float": ("graph-cycle-n5.json", ("graph", "v"), 5.5),
    "graph-edge-float": ("graph-cycle-n5.json", ("graph", "edges", 0, 1), 1.9),
    "lattice-lx-float": ("stab-torus4-n3.json", ("lattice", "Lx"), 4.7),
    "lattice-qubit-float": ("stab-torus4-n3.json", ("lattice", "regions", "A", 0), 4.5),
}

#: an "expected" value that is not an object, falsy ones included
EXPECTED_NOT_OBJECT = {
    "expected-list": [1, 2],
    "expected-null": None,
    "expected-false": False,
    "expected-zero": 0,
    "expected-empty-string": "",
}

#: stab-torus4-n3 with fewer than three of its regions, and the value the exact walk gives them
FEW_REGIONS = {
    "lattice-no-regions": ("", 0),
    "lattice-one-region": ("A", 1),
    "lattice-two-regions": ("AB", 1),
}

#: graph payloads past the vertex cap of a bitmask graph (the first is the
#: edge list "0 1000000"), and a brick wall one row past it: bricks two cells
#: wide, every other row shifted by one cell, one subsystem each.  Each ends
#: in the cap's TooManySubsystems before any mask is built
PAST_VERTEX_CAP = {
    "graph-edge-past-vertex-cap": {"v": 1_000_001, "edges": [[0, 1_000_000]]},
    "graph-v-1e30": {"v": 10**30, "edges": [[0, 1]]},
    "graph-v-1e8-no-edges": {"v": 10**8, "edges": []},
    "brick-wall-past-vertex-cap": None,
}

#: the error a bad input ends in, where it is not a bare ParseError
ERROR_OF = {
    "lattice-too-large": "TooManyQubits",
    "recursion-residual-key":
        "ParseError: analytic scenarios have no expected key 'recursion_residual_below'",
    "misspelt-expected": "ParseError: analytic scenarios have no top-level key 'expect'",
    "lattice-regions-and-css": "ParseError: a lattice takes 'regions' or 'css', not both",
    "lattice-region-int": "ParseError: bad lattice regions: ",
}
ERROR_OF.update(dict.fromkeys(FEW_REGIONS, "ValidationError: N-partite information needs N >= 3"))
ERROR_OF.update(dict.fromkeys(EXPECTED_NOT_OBJECT, "ParseError: 'expected' must be an object"))
ERROR_OF.update(dict.fromkeys(PAST_VERTEX_CAP, f"exceed the graph cap of {grid.MAX_VERTICES}"))


def _write_bad_input(kind: str, path) -> None:
    if kind in BAD_EXPECTED:
        name, edit = BAD_EXPECTED[kind]
        obj = json.loads((GALLERY / name).read_text())
        edit(obj["expected"])
        path.write_text(json.dumps(obj))
    elif kind in BAD_NUMBER:
        name, keys, value = BAD_NUMBER[kind]
        obj = json.loads((GALLERY / name).read_text())
        if keys[0] == "css":
            css = parse_grid_json(obj["css"])
            obj["css"] = _labels_payload(css)
        parent = obj
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = value
        path.write_text(json.dumps(obj))
    elif kind == "lattice-without-lx":
        obj = json.loads((GALLERY / "stab-torus4-n3.json").read_text())
        del obj["lattice"]["Lx"]
        path.write_text(json.dumps(obj))
    elif kind in FEW_REGIONS:
        obj = json.loads((GALLERY / "stab-torus4-n3.json").read_text())
        names, value = FEW_REGIONS[kind]
        regions = obj["lattice"]["regions"]
        obj["lattice"]["regions"] = {name: regions[name] for name in names}
        obj["expected"]["i_exact_over_log2"] = value
        path.write_text(json.dumps(obj))
    elif kind == "lattice-too-large":
        obj = json.loads((GALLERY / "stab-torus4-n3.json").read_text())
        obj["lattice"].update(Lx=3000, Ly=3000)
        path.write_text(json.dumps(obj))
    elif kind in EXPECTED_NOT_OBJECT:
        obj = json.loads((GALLERY / "annulus-n4.json").read_text())
        obj["expected"] = EXPECTED_NOT_OBJECT[kind]
        path.write_text(json.dumps(obj))
    elif kind == "per-hole-without-loop-size":
        obj = json.loads((GALLERY / "annulus-n4.json").read_text())
        del obj["expected"]["per_hole"][0]["loop_size"]
        path.write_text(json.dumps(obj))
    elif kind == "lattice-regions-list":
        obj = json.loads((GALLERY / "stab-torus4-n3.json").read_text())
        obj["lattice"]["regions"] = [5]
        path.write_text(json.dumps(obj))
    elif kind == "misspelt-expected":
        obj = json.loads((GALLERY / "annulus-n4.json").read_text())
        obj["expect"] = obj.pop("expected")
        path.write_text(json.dumps(obj))
    elif kind == "lattice-regions-and-css":
        obj = json.loads((GALLERY / "stab-torus4-n3.json").read_text())
        raster = json.loads((GALLERY / "stab-torus8-n3-raster.json").read_text())
        obj["lattice"]["css"] = raster["lattice"]["css"]
        path.write_text(json.dumps(obj))
    elif kind == "lattice-region-int":
        obj = json.loads((GALLERY / "stab-torus4-n3.json").read_text())
        obj["lattice"]["regions"]["A"] = 5
        path.write_text(json.dumps(obj))
    elif kind == "lattice-region-xy":
        obj = json.loads((GALLERY / "stab-torus4-n3.json").read_text())
        obj["lattice"]["regions"]["A"] = ["xy"]
        path.write_text(json.dumps(obj))
    elif kind == "brick-wall-past-vertex-cap":
        cols = 128
        rows = grid.MAX_VERTICES // cols + 1
        width = 2 * cols + 1
        labels = [grid.OUTSIDE] * (width * rows)
        for y in range(rows):
            for c in range(cols):
                x = y * width + y % 2 + 2 * c
                labels[x] = labels[x + 1] = y * cols + c
        path.write_text(json.dumps({"name": kind, "css": {"width": width, "height": rows, "labels": labels}}))
    elif kind in PAST_VERTEX_CAP:
        path.write_text(json.dumps({"name": kind, "graph": PAST_VERTEX_CAP[kind]}))
    elif kind == "not-utf8":
        path.write_bytes(b'{"name": "\xff\xfe"}')
    else:
        path.mkdir()


@pytest.mark.parametrize(
    "kind",
    ["per-hole-without-loop-size", "misspelt-expected", "lattice-regions-and-css",
     "lattice-region-xy", "lattice-region-int", "lattice-regions-list", "not-utf8", "directory",
     *EXPECTED_NOT_OBJECT, *BAD_EXPECTED, *BAD_NUMBER,
     "lattice-without-lx", "lattice-too-large", *FEW_REGIONS, *PAST_VERTEX_CAP],
)
def test_bad_input_ends_as_topomi_error(kind, tmp_path, capsys):
    (tmp_path / "a-good.json").write_text((GALLERY / "annulus-n4.json").read_text())
    bad = tmp_path / "b-bad.json"
    _write_bad_input(kind, bad)
    error = ERROR_OF.get(kind, "ParseError")

    commands = ["analyze", "stabilizer"] if kind.startswith("lattice") else ["analyze"]
    for command in commands:
        start = time.perf_counter()
        assert main([command, str(bad)]) == 1
        if kind in PAST_VERTEX_CAP:
            assert time.perf_counter() - start < 1
        out = capsys.readouterr()
        assert error in out.out + out.err
        assert "Traceback" not in out.out + out.err

    suite = run_suite(tmp_path)
    assert [r.passed for r in suite.results] == [True, False]
    assert error in suite.results[1].checks[0].detail


_INTS = st.integers(-2, 12)
#: JSON leaves and containers, small enough that any grid, graph or lattice they form runs fast
_JSON = st.recursive(
    st.none() | st.booleans() | _INTS | st.text("AB.#", max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text("AB", max_size=2), inner, max_size=3),
    max_leaves=8,
) | st.lists(_INTS, max_size=4)


def _or_junk(valid):
    """A well-typed value five times in six, else any JSON value."""
    return st.sampled_from([valid] * 5 + [_JSON]).flatmap(lambda strategy: strategy)


def _object(keys, optional=False):
    """A JSON object with ``keys`` (or some of them), each holding a well-typed value or junk."""
    values = {k: _or_junk(v) for k, v in keys.items()}
    return st.fixed_dictionaries({}, optional=values) if optional else st.fixed_dictionaries(values)


_ROWS = st.integers(1, 4).flatmap(
    lambda w: st.lists(st.text("ABCD.", min_size=w, max_size=w), min_size=1, max_size=4)
)
_SIZES = st.tuples(st.integers(1, 4), st.integers(1, 4))
_CSS = _object({"ascii": _ROWS}) | _SIZES.flatmap(lambda wh: _object({
    "width": st.just(wh[0]), "height": st.just(wh[1]),
    "labels": st.lists(st.integers(-1, 3), min_size=wh[0] * wh[1], max_size=wh[0] * wh[1]),
}))
_EDGE = st.lists(_INTS, min_size=2, max_size=2) | st.lists(_INTS, max_size=3)
_GRAPH = _object({"v": _INTS, "edges": st.lists(_EDGE, max_size=6)})
_LATTICE = st.sampled_from([
    {"regions": st.dictionaries(st.text("ABC", max_size=1), st.lists(_INTS, max_size=6), max_size=4)
     | st.lists(_INTS, max_size=3)},
    {"css": _CSS},
]).flatmap(lambda region_key: _object({
    "Lx": _INTS, "Ly": _INTS, "boundary": st.sampled_from(["torus", "planar"]), **region_key,
}))
_LOOPS = st.lists(_object({k: _INTS for k in ("loop_size", "size", "i_over_log_d")}), max_size=3)
#: the well-typed value of every expected key
_EXPECTED_VALUES = {
    **{key: {int: _INTS, bool: st.booleans()}.get(want, _LOOPS)
       for spec in scenarios._KINDS.values() for key, want in spec.expected.items()},
    "recursion_residual_below": st.none() | st.floats(-1, 1, allow_nan=False),
}
_PAYLOADS = {"analytic": ("css", _CSS), "graph": ("graph", _GRAPH), "stabilizer": ("lattice", _LATTICE)}


@st.composite
def _scenario_objects(draw):
    """A scenario of one kind, with the payload key and expected keys of
    that kind, each of which may be junk, missing or of another kind."""
    kind = draw(st.sampled_from(sorted(_PAYLOADS)))
    payload_key, payload = _PAYLOADS[kind]
    own_keys = sorted(scenarios._KINDS[kind].expected)
    pool = draw(st.sampled_from([own_keys] * 3 + [sorted(_EXPECTED_VALUES)]))
    expected_keys = draw(st.lists(st.sampled_from(pool), max_size=3))
    return draw(_object({
        "kind": st.just(kind),
        payload_key: payload,
        "expected": st.fixed_dictionaries({k: _EXPECTED_VALUES[k] for k in expected_keys}),
    }))


#: the gallery scenarios small enough to run many times over
_GALLERY_OBJECTS = [
    json.loads(path.read_text()) for path in sorted(GALLERY.glob("*.json"))
    if path.stem != "six-hole-eighteen"
]


@st.composite
def _mutated_gallery(draw):
    """A gallery scenario with some of its values, at any depth, dropped or
    replaced by junk, at a rate drawn per example."""
    rng = draw(st.randoms(use_true_random=False))
    rate = rng.choice([0.0, 0.02, 0.1, 0.3])

    def mutate(value):
        if rng.random() < rate:
            return draw(_JSON)
        if isinstance(value, dict):
            return {k: mutate(v) for k, v in value.items() if rng.random() >= rate}
        if isinstance(value, list):
            return [mutate(v) for v in value]
        return value

    return mutate(rng.choice(_GALLERY_OBJECTS))


#: per kind, the payload keys a free-form scenario draws from: wrapped and bare
_FREE_KEYS = {
    "analytic": {"css": _CSS},
    "graph": {"graph": _GRAPH, "v": _INTS, "edges": _JSON},
    "stabilizer": {"lattice": _LATTICE, "Lx": _INTS, "Ly": _INTS},
}
#: a free-form scenario: its kind, then some of that kind's payload and expected keys
_FREE_FORM = st.sampled_from(sorted(_FREE_KEYS)).flatmap(lambda kind: st.builds(
    lambda head, rest: {**head, **rest},
    _object({"kind": st.just(kind)}),
    _object({
        **_FREE_KEYS[kind],
        "expected": _object({k: _EXPECTED_VALUES[k] for k in scenarios._KINDS[kind].expected}, True),
    }, optional=True),
))
_SCENARIOS = _mutated_gallery() | _scenario_objects() | _FREE_FORM

_ERROR_NAMES = tuple(f"{cls.__name__}: " for cls in TopomiError.__subclasses__())
#: the head of a detail that names an error type
_ERROR_TYPE = re.compile(r"[A-Z]\w*: ")


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_SCENARIOS)
def test_json_shaped_scenarios_end_in_a_result_or_a_topomi_error(obj):
    """A scenario built from the real key vocabulary with junk values parses
    or is a ParseError, and runs to a result with one check per expected key
    in ``_KINDS`` order, or else the single check ``evaluate``, which passes
    when nothing is expected; every failed check that names an error, and
    a failed ``evaluate`` always does, names a TopomiError."""
    try:
        scn = Scenario.from_dict(obj)
    except ParseError:
        return
    result = run_scenario(scn)
    assert isinstance(result, ScenarioResult)
    labels = [c.label for c in result.checks]
    if not any(c.label == "evaluate" for c in result.failures()):
        assert labels == (_check_labels(scn.kind, scn.expected) or ["evaluate"]), (labels, scn.expected)
    for check in result.failures():
        if check.label == "evaluate" or _ERROR_TYPE.match(check.detail):
            assert check.detail.startswith(_ERROR_NAMES), check.detail


def _ascii_css(obj: dict) -> dict | None:
    """The grid payload of a gallery scenario, if its rows are "ascii"."""
    css = obj.get("css", obj.get("lattice", {}).get("css"))
    return css if isinstance(css, dict) and "ascii" in css else None


@st.composite
def _row_edited_gallery(draw):
    """A gallery grid with one "ascii" row emptied, made a comment or split by a newline."""
    obj = copy.deepcopy(draw(st.sampled_from([obj for obj in _GALLERY_OBJECTS if _ascii_css(obj)])))
    rows = _ascii_css(obj)["ascii"]
    j = draw(st.integers(0, len(rows) - 1))
    rows[j] = draw(st.sampled_from(["", "#" + rows[j][1:], rows[j][:1] + "\n" + rows[j][1:]]))
    return obj


@settings(max_examples=150, deadline=timedelta(seconds=5), derandomize=True, database=None)
@given(st.one_of(_mutated_gallery().map(lambda obj: (obj, False)),
                 _row_edited_gallery().map(lambda obj: (obj, True))))
def test_mutated_gallery_files_through_the_cli_exit_0_or_1(case):
    """Every command on a mutated gallery file returns 0 or 1, raises nothing
    and prints no traceback; a file with a grid row that cannot be read
    fails, and analyze names the row."""
    obj, row_edited = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(obj))
        for command in ("analyze", "stabilizer", "rho"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, str(path)])
            printed = out.getvalue() + err.getvalue()
            assert code in (0, 1), (command, code, printed)
            assert "Traceback" not in printed
            if row_edited:
                assert code == 1 and "ParseError: " in printed, (command, printed)
                assert command != "analyze" or "grid row" in printed, printed


def test_unknown_expected_key_names_key_and_kind():
    obj = json.loads((GALLERY / "graph-cycle-n5.json").read_text())
    obj["expected"]["c_n"] = 99
    with pytest.raises(ParseError, match="graph scenarios have no expected key 'c_n'"):
        Scenario.from_dict(obj)


def test_analyze_rejects_fewer_than_three_subsystems(tmp_path, capsys):
    path = tmp_path / "pair.txt"
    path.write_text("AB\nAB\n")
    assert main(["analyze", str(path)]) == 1
    out = capsys.readouterr().out
    assert "ValidationError: N-partite information needs N >= 3" in out


def _count_calls(monkeypatch, owner, name: str) -> list:
    """Record the arguments of every call of ``owner.name``."""
    calls: list = []
    function = getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return function(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _count_analysis_work(monkeypatch) -> tuple[list, list]:
    """Record the CSS of every UnionTopology build and footprint flood (find_holes)."""
    builds: list = []
    floods: list = []
    init = masks.UnionTopology.__init__
    find_holes = grid.find_holes

    def counting_init(self, css):
        builds.append(css)
        init(self, css)

    def counting_find_holes(css):
        floods.append(css)
        return find_holes(css)

    monkeypatch.setattr(masks.UnionTopology, "__init__", counting_init)
    for module in (grid, engine):
        monkeypatch.setattr(module, "find_holes", counting_find_holes)
    return builds, floods


#: CssAnalysis.c_within calls of a scenario run: one for C^N, one per hole loop
#: and one per loop of the sub-loop revival
C_WITHIN_CALLS = {"annulus-n3": 2, "far-handle-n6-span3": 5, "six-hole-eighteen": 7}
#: frontier walks (masks.signed_component_sum) of the same runs: one per distinct
#: sub-collection, as the annulus's hole loop is the whole CSS and the sub-loop
#: revival reads the two loops the hole pass walked
WALKS = {"annulus-n3": 1, "far-handle-n6-span3": 3, "six-hole-eighteen": 7}
#: block walks (masks._frontier_walk) of the same runs: one per block that is
#: not a plain cycle and meets every subsystem of a sub-collection, here each
#: C^N of a ring with a chord; every hole loop is a plain cycle, read in closed form
BLOCK_WALKS = {"annulus-n3": 0, "far-handle-n6-span3": 1, "six-hole-eighteen": 1}


@pytest.mark.parametrize("name", sorted(C_WITHIN_CALLS))
def test_run_scenario_analyses_each_css_once(name, monkeypatch):
    builds, floods = _count_analysis_work(monkeypatch)
    c_within = _count_calls(monkeypatch, engine.CssAnalysis, "c_within")
    walks = _count_calls(monkeypatch, engine, "signed_component_sum")
    block_walks = _count_calls(monkeypatch, masks, "_frontier_walk")
    scn = load_scenario(GALLERY / f"{name}.json")
    assert run_scenario(scn).passed
    # one analysis of the full CSS: its holes are read once, and C^N and the C
    # of every hole loop come from it, each distinct sub-collection walked once
    assert builds == [scenarios.scenario_css(scn)]
    assert floods == builds
    assert len(c_within) == C_WITHIN_CALLS[name]
    assert len(walks) == WALKS[name]
    assert len(block_walks) == BLOCK_WALKS[name]


def test_analytic_scenarios_build_no_subset_table(monkeypatch):
    """No analytic gallery scenario builds a 2^N table, the sigma checks
    included, whether its checks pass or every expected key is wrong: none
    is left on its analysis, and no table builder of ``masks`` is called,
    under any name it is bound to."""
    built = []
    for owner, name in ((masks, "add_components"), (masks, "meet_histogram"), (masks, "subset_table"),
                        (masks, "subset_sums"), (masks, "subset_signs"), (engine, "subset_sums")):
        monkeypatch.setattr(owner, name, lambda *args, name=name, **kwargs: built.append(name))
    assert not hasattr(engine, "subset_signs") and not hasattr(scenarios, "np")
    rng = random.Random(40)
    analytic = with_sigma = 0
    for path in suite_paths(GALLERY):
        scn = load_scenario(path)
        if scn.kind == "analytic":
            wrong = Scenario.from_dict({**scn.payload, "expected": _all_wrong(scenarios.scenario_css(scn), rng)})
            for run, passes in ((scn, True), (wrong, False)):
                result, analysis = scenarios.evaluate_scenario(run)
                assert [c.passed for c in result.checks] == [passes] * len(result.checks), scn.name
                assert not set(vars(analysis)) & {"j_table", "euler_table", "component_table"}, scn.name
            analytic += 1
            with_sigma += "sigma" in scn.expected
    assert built == []
    assert analytic == 40 and with_sigma == 11


def test_gallery_suite_builds_no_entropy_table(monkeypatch):
    # every check compares integers: no float 2^N table is built
    tables = _count_calls(monkeypatch, engine, "subset_entropy_table")
    c_within = _count_calls(monkeypatch, engine.CssAnalysis, "c_within")
    walks = _count_calls(monkeypatch, engine, "signed_component_sum")
    block_walks = _count_calls(monkeypatch, masks, "_frontier_walk")
    assert run_suite(GALLERY).n_failed == 0
    assert tables == []
    assert len(c_within) == 101
    assert len(walks) == 72  # one per distinct sub-collection of each analysis
    # only the blocks with a chord are walked: the C^N of six-hole-eighteen
    # (18 vertices, 23 edges) and of the six far-handle rings
    assert len(block_walks) == 7


@pytest.mark.parametrize("name", ["stab-torus8-n3-raster", "stab-planar9-n4-raster"])
def test_rasterized_stabilizer_scenario_validates_its_grid_once(name, monkeypatch):
    validated = []
    post_init = grid.GridCss.__post_init__

    def counting_post_init(self):
        validated.append(self)
        post_init(self)

    monkeypatch.setattr(grid.GridCss, "__post_init__", counting_post_init)
    result = run_scenario(load_scenario(GALLERY / f"{name}.json"))
    assert result.passed
    assert [c.label for c in result.checks] == ["i_exact_over_log2", "matches_counting"]
    # one grid rasterized onto the lattice and counted on
    assert len(validated) == 1


def test_cli_csv_reads_and_analyses_once(tmp_path, monkeypatch, capsys):
    builds, floods = _count_analysis_work(monkeypatch)
    reads = []
    read_input = scenarios.read_input

    def counting_read_input(path):
        reads.append(path)
        return read_input(path)

    monkeypatch.setattr(scenarios, "read_input", counting_read_input)
    out = tmp_path / "table.csv"
    assert main(["analyze", str(GALLERY / "annulus-n3.json"), "--csv", str(out)]) == 0
    assert len(reads) == 1
    # the full CSS only: its hole loop is read from the same tables
    assert len(builds) == len(floods) == 1
    assert out.read_bytes() == (
        b"mask,m,J,sign\r\n1,1,1,1\r\n2,1,1,1\r\n3,2,1,-1\r\n4,1,1,1\r\n"
        b"5,2,1,-1\r\n6,2,1,-1\r\n7,3,2,1\r\n"
    )


def test_cli_csv_of_a_22_subsystem_ring_in_seconds(tmp_path, capsys):
    """``analyze --csv`` of a 22-subsystem ring writes its 2^22 - 1 rows a
    block at a time, each block one string: about 1.4 s on a 2-core x86-64
    VM, against 5-6 s for rows written through ``csv.writer``."""
    path = tmp_path / "annulus-n22.json"
    path.write_text(json.dumps({"css": _labels_payload(builders.annulus(22))}))
    out = tmp_path / "table.csv"
    start = time.perf_counter()
    assert main(["analyze", str(path), "--csv", str(out)]) == 0
    assert time.perf_counter() - start < 3
    table = out.read_bytes()
    assert table.count(b"\r\n") == 1 << 22
    assert table.startswith(b"mask,m,J,sign\r\n1,1,1,1\r\n")
    assert table.endswith(b"\r\n4194303,22,2,-1\r\n")


def test_cli_options_belong_to_their_command():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        name: {opt for action in sub._actions for opt in action.option_strings} - {"-h", "--help"}
        for name, sub in commands.choices.items()
    }
    model = {"--log-base", "--dimension"}
    assert options == {
        "analyze": model | {"--json", "--csv"},
        "suite": {"--json"},
        "rho": {"--json"},
        "stabilizer": {"--json"},
        "vector": model | {"--json"},
    }


def _seam_ring() -> dict:
    """annulus(4), each cell a 2x2 block, at row offset 2 and column offset 7
    on a 10x10 torus: the ring crosses the torus seam between columns 9 and 0."""
    base = builders.annulus(4)
    rows = [["."] * 10 for _ in range(10)]
    for k, label in enumerate(base.labels):
        if label == grid.OUTSIDE:
            continue
        x, y = k % base.width, k // base.width
        for dx, dy in itertools.product(range(2), repeat=2):
            rows[(2 + 2 * y + dy) % 10][(7 + 2 * x + dx) % 10] = "ABCD"[label]
    return {
        "name": "seam-ring", "kind": "stabilizer",
        "lattice": {"Lx": 10, "Ly": 10, "boundary": "torus",
                    "css": {"ascii": ["".join(row) for row in rows]}},
        "expected": {"i_exact_over_log2": 2, "matches_counting": True},
    }


def test_torus_ring_across_the_seam_matches_counting(tmp_path, capsys):
    # A and C are cut in two by the seam; the planar cut of the torus counts the ring
    obj = _seam_ring()
    assert [row[-1] + row[0] for row in obj["lattice"]["css"]["ascii"][2:8]] == [
        "AA", "AA", "..", "..", "CC", "CC"
    ]
    path = tmp_path / "seam-ring.json"
    path.write_text(json.dumps(obj))
    assert main(["stabilizer", str(path)]) == 0
    out = capsys.readouterr().out
    assert "ok  matches_counting: oracle 2, counting 2" in out


def test_matches_counting_false_asserts_a_mismatch(tmp_path, capsys):
    obj = json.loads((GALLERY / "stab-torus8-n3-raster.json").read_text())
    obj["expected"]["matches_counting"] = False
    result = run_scenario(Scenario.from_dict(obj))
    assert [(c.label, c.detail) for c in result.failures()] == [
        ("matches_counting", "oracle -2, counting -2")
    ]
    path = tmp_path / "raster.json"
    path.write_text(json.dumps(obj))
    assert main(["stabilizer", str(path)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("command, name, own, wanted", [
    ("rho", "annulus-n4.json", "analytic", "graph"),
    ("stabilizer", "graph-cycle-n5.json", "graph", "stabilizer"),
    ("vector", "graph-cycle-n5.json", "graph", "analytic"),
])
def test_cli_reads_only_the_kind_of_its_command(command, name, own, wanted, tmp_path, capsys):
    path = GALLERY / name
    if command == "vector":  # a family directory holding one graph file
        (tmp_path / name).write_text(path.read_text())
        path = tmp_path / name
    assert main([command, str(path.parent if command == "vector" else path)]) == 1
    err = capsys.readouterr().err
    assert f"ParseError: {path} is a '{own}' scenario where a '{wanted}' one is needed" in err


def test_load_scenario_reads_an_edge_list_as_a_graph(tmp_path):
    path = tmp_path / "path.txt"
    path.write_text("# a path\n0 1\n1 2\n")
    scn = load_scenario(path, "graph")
    assert (scn.name, scn.kind, scn.kind_payload) == (
        "path", "graph", {"v": 3, "edges": ((0, 1), (1, 2))}
    )
    assert load_scenario(path).kind == "analytic"  # without a kind, a text file is a grid
    with pytest.raises(ParseError, match="is a 'analytic' scenario where a 'stabilizer' one"):
        load_scenario(path, "stabilizer")


def test_scenario_kind_inference():
    scn = Scenario.from_dict({"name": "g", "graph": {"v": 3, "edges": []}})
    assert scn.kind == "graph"
    scn = Scenario.from_dict({"name": "s", "lattice": {"Lx": 2, "Ly": 2, "regions": {"A": [0]}}})
    assert scn.kind == "stabilizer"
    scn = Scenario.from_dict({"name": "a", "css": {"ascii": ["AB"]}})
    assert scn.kind == "analytic"


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def test_cli_analyze_pass(capsys):
    code = main(["analyze", str(GALLERY / "annulus-n5.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("PASS")


def test_cli_analyze_json_deterministic(capsys):
    main(["analyze", str(GALLERY / "two-hole-five.json"), "--json"])
    first = capsys.readouterr().out
    main(["analyze", str(GALLERY / "two-hole-five.json"), "--json"])
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["passed"] is True
    assert payload["report"]["schema"] == "topo-mpi/1"


def test_cli_analyze_failure_exit(tmp_path, capsys):
    obj = json.loads((GALLERY / "annulus-n3.json").read_text())
    obj["expected"]["c_n"] = -7
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main(["analyze", str(path)]) == 1


def test_cli_suite_default_gallery(capsys):
    code = main(["suite"])
    out = capsys.readouterr().out
    assert code == 0
    assert "scenarios passed" in out


def test_cli_suite_json_byte_identical(capsys):
    main(["suite", "--json"])
    first = capsys.readouterr().out
    main(["suite", "--json"])
    second = capsys.readouterr().out
    assert first == second


def test_cli_suite_exit_counts_failures(tmp_path, capsys):
    for k in range(3):
        obj = json.loads((GALLERY / "annulus-n4.json").read_text())
        obj["name"] = f"bad-{k}"
        obj["expected"]["c_n"] = 99
        (tmp_path / f"bad-{k}.json").write_text(json.dumps(obj))
    assert main(["suite", str(tmp_path)]) == 3


@pytest.mark.parametrize("command", ["suite", "vector"])
@pytest.mark.parametrize("kind", ["missing", "file"])
def test_cli_directory_argument_must_be_a_directory(command, kind, tmp_path, capsys):
    path = tmp_path / "no-such-dir"
    if kind == "file":
        path = tmp_path / "scenario.json"
        path.write_text((GALLERY / "annulus-n4.json").read_text())
    assert main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert f"ParseError: {path} is not a directory" in err


def test_cli_rho(tmp_path, capsys):
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps({"v": 6, "edges": [[i, (i + 1) % 6] for i in range(6)]}))
    assert main(["rho", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rho"] == 0
    text = tmp_path / "path.txt"
    text.write_text("0 1\n1 2\n2 3\n")
    assert main(["rho", str(text)]) == 0
    assert "rho = -1" in capsys.readouterr().out
    # "1_0" is not read as vertex 10
    text.write_text("0 1_0\n")
    assert main(["rho", str(text)]) == 1
    out = capsys.readouterr()
    assert "ParseError: line 1: vertex id '1_0' is not a run of digits 0-9" in out.out + out.err
    assert "Traceback" not in out.out + out.err


@pytest.mark.installed
def test_cli_rho_rejects_a_graph_past_the_vertex_cap(tmp_path, capsys):
    """The edge list "0 1000000" names a graph of 1000001 vertices: rho
    exits 1 with the vertex cap's TooManySubsystems before any mask is built,
    not a MemoryError, and a path at the cap answers."""
    text = tmp_path / "far-edge.txt"
    text.write_text("0 1000000\n")
    start = time.perf_counter()
    assert main(["rho", str(text)]) == 1
    assert time.perf_counter() - start < 1
    out = capsys.readouterr()
    assert f"TooManySubsystems: 1000001 vertices exceed the graph cap of {grid.MAX_VERTICES}" in out.out + out.err
    assert "Traceback" not in out.out + out.err
    path = tmp_path / "path-at-cap.txt"
    path.write_text("".join(f"{i} {i + 1}\n" for i in range(grid.MAX_VERTICES - 1)))
    start = time.perf_counter()
    assert main(["rho", str(path), "--json"]) == 0
    # its blocks are found in one depth-first pass (about 0.2 s for rho on a
    # 2-core VM, against 52 s at 10000 vertices for a peel in rounds)
    assert time.perf_counter() - start < 10
    payload = json.loads(capsys.readouterr().out)
    assert (payload["v"], payload["rho"]) == (grid.MAX_VERTICES, -1)


@pytest.mark.parametrize("as_json", [False, True])
def test_cli_rho_runs_the_expected_checks(as_json, tmp_path, capsys):
    """``rho`` on a graph file exits 1 and shows the failed check when its
    expected rho is wrong, as ``analyze`` does."""
    obj = json.loads((GALLERY / "graph-cycle-n5.json").read_text())
    obj["expected"]["rho"] = 99
    path = tmp_path / "wrong-rho.json"
    path.write_text(json.dumps(obj))
    assert main(["rho", str(path), *(["--json"] if as_json else [])]) == 1
    out = capsys.readouterr().out
    if as_json:
        payload = json.loads(out)
        assert payload["passed"] is False
        assert payload["checks"] == [{"label": "rho", "passed": False, "detail": "got 0, expected 99"}]
    else:
        assert "FAIL rho: got 0, expected 99" in out
    assert main(["analyze", str(path)]) == 1
    capsys.readouterr()


def test_cli_stabilizer(capsys):
    assert main(["stabilizer", str(GALLERY / "stab-torus4-n3.json")]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_vector(capsys):
    assert main(["vector", str(GALLERY / "family"), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sizes"] == [3, 4, 5, 6]
    assert all(abs(x - 1.0) < 1e-12 for x in payload["normalized"])
    assert payload["is_zero"] is False


def test_cli_vector_analyses_each_member_once(monkeypatch, capsys):
    builds, floods = _count_analysis_work(monkeypatch)
    assert main(["vector", str(GALLERY / "family"), "--json"]) == 0
    # one flood (the annular check) and one set of tables (|I^p|) per member
    assert [css.n_subsystems for css in floods] == [3, 4, 5, 6]
    assert builds == floods


def test_cli_vector_trivial_phase(capsys):
    assert main(["vector", str(GALLERY / "family"), "--dimension", "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["is_zero"] is True


@pytest.mark.installed
def test_cli_csv_emission(tmp_path, capsys):
    """One row per non-empty subset mask, whose signed J sum is C^N."""
    out = tmp_path / "table.csv"
    assert main(["analyze", str(GALLERY / "annulus-n3.json"), "--json", "--csv", str(out)]) == 0
    c_n = json.loads(capsys.readouterr().out)["report"]["c_n"]
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "mask,m,J,sign"
    rows = [[int(v) for v in line.split(",")] for line in lines[1:]]
    assert [mask for mask, *_ in rows] == list(range(1, 8))  # the 7 non-empty subsets
    assert sum(sign * j for _, _, j, sign in rows) == c_n == 2


@pytest.mark.installed
def test_cli_analyze_beyond_the_table_cap(tmp_path, capsys):
    """``analyze`` answers C^N for 30 and 48 subsystems; its ``--csv`` asks
    for the 2^30 J table and ends in the cap's TopomiError, writing no file."""
    for n in (48, 30):
        path = tmp_path / f"annulus-n{n}.json"
        path.write_text(json.dumps({"css": _labels_payload(builders.annulus(n))}))
        start = time.perf_counter()
        assert main(["analyze", str(path), "--json"]) == 0
        # C^N comes from the frontier walk, far above the J table's cap of 24
        # subsystems, in milliseconds: a walk gone exponential fails here
        assert time.perf_counter() - start < 5
        assert json.loads(capsys.readouterr().out)["report"]["c_n"] == -2
    out = tmp_path / "table.csv"
    assert main(["analyze", str(path), "--csv", str(out)]) == 1
    assert "TooManySubsystems: 30 subsystems exceed the cap of 24" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.installed
def test_cli_analyze_fails_a_wrong_c_n_at_the_table_cap_at_once(tmp_path, capsys):
    """A wrong ``c_n`` on a ring of 24 arcs, at the J table's cap: ``analyze``
    exits 1 with the C^N got and the one expected, and builds no 2^24 table."""
    path = tmp_path / "annulus-n24.json"
    path.write_text(json.dumps({"css": _labels_payload(builders.annulus(24)), "expected": {"c_n": 99}}))
    start = time.perf_counter()
    assert main(["analyze", str(path)]) == 1
    # milliseconds on a 2-core VM, against 5.6-6.7 s for a failing check that
    # built the J table to list its sums by subset size
    assert time.perf_counter() - start < 1
    assert "FAIL c_n: got -2, expected 99" in capsys.readouterr().out


@pytest.mark.installed
def test_cli_analyze_names_a_failed_sigma_precondition(tmp_path, capsys):
    """A ring of 29 arcs and an island outside it fails sigma's precondition:
    the ring's hole is not walled by the island.  ``analyze`` exits 1 with
    the PreconditionViolated naming the hole, above the table cap, not a
    TooManySubsystems."""
    path = tmp_path / "island-n30.json"
    path.write_text(json.dumps({"css": _labels_payload(builders.annulus_with_island(30)),
                                "expected": {"sigma": 0}}))
    start = time.perf_counter()
    assert main(["analyze", str(path), "--json"]) == 1
    # sigma reads its precondition from the labelling and builds no 2^N table
    # (milliseconds on a 2-core VM)
    assert time.perf_counter() - start < 5
    out = capsys.readouterr()
    assert "PreconditionViolated: hole 1 of 1 (column 1, row 1) is not walled by subsystem 29" in out.out + out.err


@pytest.mark.installed
def test_cli_analyze_labels_a_grid_near_the_cell_cap(tmp_path, capsys):
    """A 12-ring with every cell scaled to 120 x 120: 705 600 cells, near
    ``grid.CELL_CAP``, read and analysed by ``analyze``."""
    ring, s = builders.annulus(12), 120
    width, height = ring.width * s, ring.height * s
    labels = [ring.labels[y // s * ring.width + x // s] for y in range(height) for x in range(width)]
    path = tmp_path / "annulus-n12-x120.json"
    path.write_text(json.dumps({"css": {"width": width, "height": height, "labels": labels}}))
    start = time.perf_counter()
    assert main(["analyze", str(path), "--json"]) == 0
    # the grid is labelled in one linear, iterative pass (about 2 s for the
    # command on a 2-core VM); one that turns recursive or quadratic fails here
    assert time.perf_counter() - start < 60
    assert json.loads(capsys.readouterr().out)["report"]["c_n"] == -2


def test_cli_csv_is_written_when_a_check_raises(tmp_path, monkeypatch, capsys):
    """Two subsystems have no N-partite information, so the scenario fails,
    but its grid parsed and its J table is written, from the one analysis."""
    builds, _ = _count_analysis_work(monkeypatch)
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"css": {"ascii": ["AB"]}}))
    out = tmp_path / "table.csv"
    assert main(["analyze", str(path), "--csv", str(out)]) == 1
    assert "ValidationError: N-partite information needs N >= 3" in capsys.readouterr().out
    assert len(builds) == 1
    assert out.read_bytes() == b"mask,m,J,sign\r\n1,1,1,1\r\n2,1,1,1\r\n3,2,1,-1\r\n"


def test_cli_csv_says_so_when_the_grid_does_not_parse(tmp_path, capsys):
    path = tmp_path / "pinch.json"
    path.write_text(json.dumps({"css": {"ascii": ["AB", "BA"]}}))
    out = tmp_path / "table.csv"
    assert main(["analyze", str(path), "--csv", str(out)]) == 1
    captured = capsys.readouterr()
    assert "diagonal pinch" in captured.out
    assert "no CSV written: the grid did not parse" in captured.err
    assert not out.exists()


def test_cli_analyze_bare_ascii_grid(tmp_path, capsys):
    """A text file's empty lines and comments are no rows."""
    path = tmp_path / "ring.txt"
    path.write_text("# a ring\nAAB\n\nD.B\nDCC\n")
    assert main(["analyze", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["c_n"] == -2


@pytest.mark.installed
@pytest.mark.parametrize("rows, error", [
    (["AAAA", "B..C", "", "B..C", "DDDD"], "ParseError: grid row 2 is empty"),
    (["AAAA", "B..C", "#..C", "DDDD"], "ParseError: bad cell character '#' at column 0 of grid row 2"),
    (["AAAA", "B..C\nB..C", "DDDD"], "ParseError: grid row 1 holds a newline"),
])
def test_cli_analyze_rejects_a_json_grid_row_it_cannot_read(rows, error, tmp_path, capsys):
    """A JSON "ascii" list is the grid's rows as given, not the lines of a
    text file: no row is dropped as empty or as a comment, or split."""
    path = tmp_path / "ring.json"
    path.write_text(json.dumps({"css": {"ascii": rows}}))
    assert main(["analyze", str(path)]) == 1
    assert error in capsys.readouterr().out


@pytest.mark.parametrize(
    "option", [("--dimension", "inf"), ("--dimension", "nan"), ("--alpha", "nan"), ("--alpha", "inf")]
)
def test_cli_rejects_non_finite_model_parameters(option, capsys):
    argv = ["analyze", str(GALLERY / "annulus-n3.json"), "--json", *option]
    if option[0] == "--alpha":  # alpha is a library parameter: any value is a usage error
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 64
        return
    assert main(argv) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "ValidationError" in out.err


@pytest.mark.parametrize("argv", [
    ["suite", "--dimension", "3"],
    ["analyze", str(GALLERY / "annulus-n3.json"), "--alpha", "1"],
    ["vector", str(GALLERY / "family"), "--alpha", "1"],
], ids=["suite-dimension", "analyze-alpha", "vector-alpha"])
def test_cli_model_option_outside_its_command_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 64
    assert capsys.readouterr().out == ""


def test_cli_usage_error_is_64():
    with pytest.raises(SystemExit) as err:
        main(["analyze"])  # missing file argument
    assert err.value.code == 64


def test_cli_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "topomi.cli", "rho", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
