"""The constructor's one pass (``grid._scan``) against the two it replaced.

Each grid is validated and labelled by one row-major union-find pass when
it is built.  ``flood_reference.pinch_scan`` (the window scan that rejected
corner-only contacts and recorded the junction corners) and
``flood_reference.flood_labelling`` (one flood per component from its first
cell) are those two passes, kept unchanged.  The junctions, the labelling
and every pinch message must equal theirs.  The pass also records the
corner windows (``GridCss.corners``) that chi of every union is read from;
that chi table must equal the flood fill's components less holes
(``flood_reference.union_euler``) in every mask.
"""

import random
from types import SimpleNamespace

import numpy as np
import pytest

from topomi import builders, masks
from topomi.errors import ValidationError
from topomi.grid import GridCss, connected_components, parse_ascii, union_region
from topomi.masks import UnionTopology

from flood_reference import flood_labelling, pinch_scan, union_euler
from table_reference import euler_entries
from test_engine import brick_css
from test_grid import window_frame


def reference_scan(css):
    """The junctions and the labelling by the two reference passes, or the
    text of the ValidationError the window scan raises."""
    try:
        return pinch_scan(css), flood_labelling(css)
    except ValidationError as exc:
        return str(exc)


def built_scan(width, height, labels):
    """The junctions and the labelling ``GridCss`` records, or the text of the
    ValidationError it raises."""
    try:
        css = GridCss(width, height, labels)
    except ValidationError as exc:
        return str(exc)
    return css.junctions, css.labelling


def test_scan_matches_the_reference_on_builders_frames_and_walls(junction_css):
    """On the builders, seeded ``random_css``, window frames, brick walls and
    the junction fixture: the same junctions and labelling, and the footprint
    components of the flood fill over its cells."""
    cases = [*junction_css, builders.theta_pair(), builders.two_hole_five(), builders.six_hole_eighteen()]
    for n in (3, 4, 7, 12, 40):
        cases += [builders.annulus(n), builders.open_chain(n)]
    for n in (5, 7, 12):
        cases += [builders.far_handle_annulus(n), builders.far_handle_annulus(n, 3),
                  builders.annulus_with_island(n), builders.annulus_with_appendage(n),
                  builders.annulus_with_punched_hole(n), builders.annulus_with_self_handle(n),
                  builders.annulus_with_nn_handle(n)]
    cases += [builders.random_css(random.Random(s), n, 16, 16, growth=200) for s in range(10) for n in (5, 20)]
    cases += [window_frame(k) for k in (1, 2, 5, 50)]
    cases += [brick_css(cols, rows) for cols, rows in ((1, 1), (3, 3), (7, 10), (20, 20))]
    junctions = disconnected = 0
    for css in cases:
        assert (css.junctions, css.labelling) == reference_scan(css), css.name
        footprint = connected_components(union_region(css, range(css.n_subsystems)))[0]
        assert css.footprint_components == footprint, css.name
        junctions += len(css.junctions)
        disconnected += footprint > 1
    assert len(cases) == 362
    assert (junctions, disconnected) == (1431, 56)


def seeded_small_grids():
    """20 000 seeded (width, height, labels) of 1-6 x 1-6 cells with labels
    -1..3 (each draws its top label and how often a cell is OUTSIDE), their
    ids renumbered to 0..k-1; about half have a pinch."""
    rng = random.Random(57)
    for _ in range(20_000):
        width, height = rng.randint(1, 6), rng.randint(1, 6)
        top, outside = rng.randint(0, 3), rng.choice((0.1, 0.2, 0.4))  # fewer labels, more rings
        drawn = [-1 if rng.random() < outside else rng.randint(0, top) for _ in range(width * height)]
        drawn[rng.randrange(len(drawn))] = rng.randint(0, 3)  # at least one subsystem cell
        ids = {label: k for k, label in enumerate(sorted(set(drawn) - {-1}))}
        yield width, height, tuple(ids.get(label, -1) for label in drawn)


def test_scan_matches_the_reference_on_seeded_small_grids():
    """On the seeded small grids: the same junctions and labelling, or the
    same pinch message, naming the first window in row-major order."""
    accepted = rejected = junctions = holes = 0
    for width, height, labels in seeded_small_grids():
        want = reference_scan(SimpleNamespace(width=width, height=height, labels=labels))
        assert built_scan(width, height, labels) == want, (width, height, labels)
        if isinstance(want, str):
            rejected += 1
        else:
            accepted += 1
            junctions += len(want[0])
            holes += len(want[1][2])
    assert (accepted, rejected) == (10042, 9958)
    assert (junctions, holes) == (951, 327)


def assert_corner_chi_is_the_flood(css):
    """chi of every union read from the corner windows (the Euler table) is
    the flood fill's components less holes."""
    chi = UnionTopology(css).euler_table.tolist()
    assert chi[0] == 0, css.name
    for mask in range(1, 1 << css.n_subsystems):
        assert chi[mask] == union_euler(css, mask), (css.name, css.labels, mask)


def test_corner_chi_is_the_flood_on_small_grids_and_builders():
    """In every mask of the 10 042 seeded small grids that are accepted, and
    of the builders up to N = 7, whose rings, handles, islands and punched
    holes give chi 0, 1 and below."""
    accepted = 0
    for width, height, labels in seeded_small_grids():
        try:
            css = GridCss(width, height, labels)
        except ValidationError:
            continue
        assert_corner_chi_is_the_flood(css)
        accepted += 1
    assert accepted == 10042
    cases = [builders.theta_pair(), builders.two_hole_five()]
    for n in (3, 4, 7):
        cases += [builders.annulus(n), builders.open_chain(n)]
    for n in (5, 7):
        cases += [builders.far_handle_annulus(n), builders.far_handle_annulus(n, 3),
                  builders.annulus_with_island(n), builders.annulus_with_appendage(n),
                  builders.annulus_with_punched_hole(n), builders.annulus_with_self_handle(n),
                  builders.annulus_with_nn_handle(n)]
    for css in cases:
        assert_corner_chi_is_the_flood(css)
    assert {union_euler(css, (1 << css.n_subsystems) - 1) for css in cases} == {-1, 0, 1}


@pytest.mark.parametrize("ascii, corners, junctions, chi", [
    # round a hole: A alone at the lower left of the grid's corner window
    # . . / A ., the hole alone at the lower left of A A / . A, and A in all
    # but the upper right of A . / A A, where S = {A} counts -1
    ("AAA\nA.A\nAAA", (((0, -1, -1), (-1, 0, 0)), ((-1, 0, 0), (0, -1, -1))), (), [0, 0]),
    # the L-corner A A / B A of two subsystems: B alone at the lower left
    ("AA\nBA", (((0, -1, -1), (1, 0, 0)), ((0, -1, 1), (1, -1, -1), (0, 1, -1))), (), [0, 1, 1, 1]),
    # A B / C C, three subsystems with B alone at the upper right: the
    # grid's one junction corner, where S = {A, C} counts -1 and all three +1
    ("AB\nCC", (((0, -1, 1), (1, -1, -1), (2, 1, -1)), ((0, -1, 2), (1, 0, 2), (2, -1, -1))), ((0, 1, 2, 2),),
     [0, 1, 1, 1, 1, 1, 1, 1]),
    # A A / B ., a T-window of A twice with B and OUTSIDE: B alone at the lower left
    ("AA\nB.", (((0, -1, -1), (1, 0, -1)), ((0, -1, 1), (1, -1, -1))), (), [0, 1, 1, 1]),
], ids=["l-corners-round-a-hole", "l-corner-of-two-subsystems", "t-of-three-subsystems", "t-with-outside"])
def test_corner_windows_of_hand_checked_grids(ascii, corners, junctions, chi):
    """Each kind of window, recorded by hand: ``(c, a, d)`` of each window
    ``a b / c d`` whose lower-left label is in no other of its cells, and
    ``(b, a, d)`` of each whose upper-right label is in no other, in
    row-major order; the junction corners; and chi of every union."""
    css = parse_ascii(ascii)
    assert css.corners == corners
    assert css.junctions == junctions
    assert UnionTopology(css).euler_table.tolist() == chi


def test_j_table_reads_no_feature_rows(monkeypatch):
    """On 20 seeded random CSS of N = 20 on 16 x 16 grids, the J table's chi
    entries come from the corner windows: neither the feature rows
    (``UnionTopology._cell_bits``) nor the entry builder over them
    (``masks.meet_entries``) is called, and the entries are those of the
    feature-row construction (``table_reference.euler_entries``)."""
    cases = [builders.random_css(random.Random(f"corners-{i}"), 20, 16, 16, growth=200) for i in range(20)]
    want = [{mask: w for mask, w in euler_entries(UnionTopology(css), -1).items() if w} for css in cases]

    def refuse(*args):
        raise AssertionError("the feature rows were read")

    monkeypatch.setattr(masks, "meet_entries", refuse)
    monkeypatch.setattr(UnionTopology, "_cell_bits", property(refuse))
    for css, entries in zip(cases, want):
        topo = UnionTopology(css)
        assert {mask: w for mask, w in topo._chi_entries(-1).items() if w} == entries, css.name
        j = topo.j_table
        assert j.dtype == np.int8 and j[0] == 0 and j.max() > 0, css.name
