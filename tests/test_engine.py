"""Connectivity counts, information values and the derived identities."""

import csv
import io
import itertools
import math
import random
import re
import time
import tracemalloc
from collections import Counter
from functools import cached_property
from types import SimpleNamespace

import numpy as np
import pytest

from topomi import builders, engine, grid, masks, walk
from topomi.engine import (
    CssAnalysis,
    CssFamily,
    annular_order,
    connectivity_count,
    entanglement_vector,
    information_summary,
    multipartite_information,
    recursion_check,
    subloop_revival,
    subset_entropy_table,
)
from topomi.errors import (
    DisconnectedCss,
    EmptySubset,
    NotACycle,
    NotAnnular,
    TooManySubsystems,
    ValidationError,
)
from topomi.grid import (
    OUTSIDE,
    GridCss,
    _boundary_walk_labels,
    boundary_component_count,
    connected_components,
    count_components,
    euler_characteristic,
    find_holes,
    parse_ascii,
    restrict_css,
    union_boundary_count,
    union_region,
)
from topomi.masks import UnionTopology, alternating_sum, subset_signs, write_subset_table_csv
from topomi.model import EntropyModel

from flood_reference import boundary_walk_labels, entropy_of_region, model_entropy_source, perimeter_links, region_holes
from oracle_reference import annulus_family, strong_subadditivity_combination
from table_reference import feature_labels
from test_grid import window_frame

LN2 = math.log(2)
D2 = EntropyModel(2.0)


def rect(x0, x1, y0, y1):
    return frozenset((x, y) for x in range(x0, x1 + 1) for y in range(y0, y1 + 1))


# ----------------------------------------------------------------------
# entropy of explicit regions
# ----------------------------------------------------------------------

def test_entropy_of_region_examples():
    m = EntropyModel(2.0, alpha=LN2)
    assert entropy_of_region(m, rect(0, 2, 0, 2)) == pytest.approx(11 * LN2)
    annulus = rect(0, 4, 0, 4) - rect(1, 3, 1, 3)
    trivial = EntropyModel(1.0, alpha=0.37)
    assert entropy_of_region(trivial, annulus) == pytest.approx(
        0.37 * perimeter_links(annulus)
    )
    topo_only = EntropyModel(2.0, alpha=0.0)
    assert entropy_of_region(topo_only, annulus) == pytest.approx(-2 * LN2)


# ----------------------------------------------------------------------
# C^N
# ----------------------------------------------------------------------

def test_annular_universality():
    for n in range(3, 15):
        result = connectivity_count(builders.annulus(n))
        assert result.c_n == 2 * (-1) ** (n - 1), n


def test_annular_universality_at_22():
    """C^N of the 22-ring comes from the frontier walk over its cell-component
    ring, with no 2^22 table."""
    analysis = connectivity_count(builders.annulus(22))
    assert analysis.c_n == -2
    assert "tables" not in vars(analysis)


def test_vanishing_set():
    for n in range(4, 9):
        assert connectivity_count(builders.open_chain(n)).c_n == 0
        assert connectivity_count(builders.annulus_with_island(n)).c_n == 0
        assert connectivity_count(builders.annulus_with_appendage(n)).c_n == 0
        assert connectivity_count(builders.far_handle_annulus(n, 2)).c_n == 0


def test_deformation_invariance():
    for n in range(4, 7):
        base = connectivity_count(builders.annulus(n)).c_n
        assert connectivity_count(builders.annulus_with_punched_hole(n)).c_n == base
        assert connectivity_count(builders.annulus_with_self_handle(n)).c_n == base
        assert connectivity_count(builders.annulus_with_nn_handle(n)).c_n == base


def test_per_subset_table_covers_everything():
    css = builders.annulus(4)
    result = connectivity_count(css)
    assert len(result.tables.j_table) == 16
    assert all(result.tables.j_table[1:] >= 1)


def test_alternating_binomial_identity():
    for n in range(2, 25):
        total = sum((-1) ** (m - 1) * math.comb(n - 1, m - 1) for m in range(1, n + 1))
        assert total == 0, n


def _analytic_gallery_css():
    from topomi.scenarios import gallery_dir, load_scenario, scenario_css, suite_paths

    for path in suite_paths(gallery_dir()):
        scn = load_scenario(path)
        if scn.kind == "analytic":
            yield scenario_css(scn)


def _gallery_and_random_css():
    yield from _analytic_gallery_css()
    for n in range(3, 13):
        for seed in (1, 2):
            yield builders.random_css(random.Random(seed), n, 12, 12, growth=60)


def test_alternating_link_and_euler_sums():
    """Why I^N needs no alpha-weighted link term, and no second route.

    Every grid segment borders at most two subsystems, so for N >= 3 the
    alternating sum of perimeter links vanishes.  The alternating Euler
    sum counts the lattice corners touching all N subsystems; a corner
    touches at most four, so it vanishes for N >= 5.
    """
    n_cases = 0
    for css in _gallery_and_random_css():
        n = css.n_subsystems
        topo = UnionTopology(css)
        assert int(topo.signs @ topo.boundary_links_table) == 0, css.name
        corners = sum(
            1
            for y in range(css.height + 1)
            for x in range(css.width + 1)
            if {css.label_at(x - dx, y - dy) for dx in (0, 1) for dy in (0, 1)}
            >= set(range(n))
        )
        assert int(topo.signs @ topo.euler_table) == corners, css.name
        if n >= 5:
            assert corners == 0, css.name
        n_cases += 1
    assert n_cases == 60


# ----------------------------------------------------------------------
# C of a sub-collection, read from the full CSS's J table
# ----------------------------------------------------------------------

def _sub_collections(rng: random.Random):
    """(analysis, hole loops, three seeded random sub-collections) of each CSS."""
    for css in _gallery_and_random_css():
        analysis = CssAnalysis(css)
        loops = [loop for loop in analysis.hole_loops if not isinstance(loop, str)]
        n = css.n_subsystems
        picks = [tuple(rng.sample(range(n), rng.randint(1, n))) for _ in range(3)]
        yield analysis, loops, picks


def test_c_within_matches_restricted_css():
    """The reference: C^N of a CSS of its own, built by restrict_css."""
    n_loops = 0
    for analysis, loops, picks in _sub_collections(random.Random(7)):
        css = analysis.css
        for ids in [*loops, *picks, tuple(range(css.n_subsystems))]:
            want = connectivity_count(restrict_css(css, ids)).c_n
            assert analysis.c_within(ids) == want, (css.name, ids)
        n_loops += len(loops)
    assert n_loops == 47  # every one from the gallery


def test_hole_loops_on_fuzzed_css():
    """Each hole loop of p subsystems has C = 2(-1)^(p-1), in the parent J table
    and in the loop's restricted CSS."""
    n_loops = 0
    for seed in range(300):
        rng = random.Random(seed)
        css = builders.random_css(rng, rng.randint(4, 10), 8, 8, growth=rng.choice([150, 300, 600]))
        analysis = CssAnalysis(css)
        for loop in analysis.hole_loops:
            if isinstance(loop, str):
                continue
            want = 2 * (-1) ** (len(loop) - 1)
            assert analysis.c_within(loop) == want, (seed, loop)
            assert connectivity_count(restrict_css(css, loop)).c_n == want, (seed, loop)
            n_loops += 1
    assert n_loops >= 100


def test_hole_loop_neighbours_are_adjacent(junction_css):
    """Consecutive members of every hole loop, the last and first included,
    share a wall: under the pinch rule the boundary walk never steps
    between two subsystems that do not touch."""
    n_holes = n_loops = 0
    for css in junction_css:
        analysis = CssAnalysis(css)
        n_holes += analysis.holes.n_h
        for loop in analysis.hole_loops:
            if isinstance(loop, str):
                continue
            for a, b in zip(loop, loop[1:] + loop[:1]):
                assert (min(a, b), max(a, b)) in analysis.graph.edges, (css, loop)
            n_loops += 1
    assert (n_holes, n_loops) == (189, 161)


def _chi_or_disconnected(chi):
    try:
        return chi()
    except DisconnectedCss:
        return DisconnectedCss


def test_chi_matches_euler_characteristic(junction_css):
    """``CssAnalysis.chi`` against ``grid.euler_characteristic``, its
    flood-fill reference: the same value, or DisconnectedCss from both."""
    outcomes = []
    for css in [*_analytic_gallery_css(), *junction_css]:
        analysis = CssAnalysis(css)
        got = _chi_or_disconnected(lambda: analysis.chi)
        assert got == _chi_or_disconnected(lambda: euler_characteristic(css)), css
        outcomes.append(got is DisconnectedCss)
    assert (len(outcomes), sum(outcomes)) == (340, 38)


def test_c_within_matches_flood_fill():
    n_checked = 0
    for analysis, loops, picks in _sub_collections(random.Random(11)):
        for ids in [*loops, *picks]:
            if len(ids) > 8:
                continue
            want = sum(
                (-1) ** (m - 1) * boundary_component_count(union_region(analysis.css, q))
                for m in range(1, len(ids) + 1)
                for q in itertools.combinations(ids, m)
            )
            assert analysis.c_within(ids) == want, (analysis.css.name, ids)
            n_checked += 1
    assert n_checked == 220


def random_n(n):
    """The random CSS of the ``random-n20`` benchmark's shape, seeded."""
    return builders.random_css(random.Random(4), n, 16, 16, growth=200)


def signed_reference(j, ids) -> int:
    """The signed-tensordot C of the sub-collection ``ids``: ``subset_signs(n) @ J``
    in int64, over the masks inside ``ids``."""
    n = len(j).bit_length() - 1
    masks = np.arange(1 << n)
    inside = (masks & ~sum(1 << i for i in ids)) == 0
    return int(subset_signs(n)[inside].astype(np.int64) @ j[inside].astype(np.int64))


def test_c_within_matches_signed_reference(junction_css):
    """``c_within`` (the frontier walk) against the signed reference on the J
    table, on the hole loops, seeded sub-collections of every size 1..N and
    all N, for the gallery, the junction CSS and an N = 20 random CSS.  A
    sign error on odd sizes would show: C is non-zero on sub-collections of
    both parities."""
    rng = random.Random(17)
    nonzero = Counter()
    for css in [*_analytic_gallery_css(), *junction_css, random_n(20)]:
        analysis = CssAnalysis(css)
        n, j = css.n_subsystems, analysis.tables.j_table
        loops = [loop for loop in analysis.hole_loops if not isinstance(loop, str)]
        picks = [tuple(rng.sample(range(n), k)) for k in range(1, n + 1)]
        for ids in [*loops, *picks, tuple(range(n))]:
            want = signed_reference(j, ids)
            assert analysis.c_within(ids) == want, (css.name, ids)
            nonzero["odd" if len(ids) % 2 else "even"] += want != 0
    assert nonzero == {"odd": 528, "even": 278}


def test_alternating_sum_is_exact_beyond_int32():
    """A synthetic int32 J whose partial differences leave int32: the C read
    from its sub-collection views stays exact."""
    n = 10
    sizes = np.bitwise_count(np.arange(1 << n))
    # every term of C is -(2^31 - 1): the first halving already leaves int32
    extreme = np.where(sizes % 2, -(2**31 - 1), 2**31 - 1).astype(np.int32)
    noise = np.random.default_rng(3).integers(-2**31, 2**31, size=1 << n).astype(np.int32)
    for j in (extreme, noise):
        j[0] = 0
        for ids in [(0, 1, 2), (1, 3, 5, 7), (0, 2, 4, 6, 8), tuple(range(n))]:
            want = sum(
                (-1) ** (m - 1) * int(j[sum(1 << i for i in q)])
                for m in range(1, len(ids) + 1)
                for q in itertools.combinations(ids, m)
            )
            axes = tuple(slice(None) if bit in ids else 0 for bit in reversed(range(n)))
            assert alternating_sum(j.reshape((2,) * n)[axes]) == want == signed_reference(j, ids), ids
    assert alternating_sum(extreme.reshape((2,) * n)) == -(2**31 - 1) * ((1 << n) - 1)


def test_csv_sign_column_is_the_signed_reference():
    """Each CSV row's sign is (-1)^(m-1), and its int64 contraction with J is C^N."""
    report = multipartite_information(D2, builders.annulus(5))
    buf = io.StringIO()
    write_subset_table_csv(report.per_subset_j, buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == ["mask", "m", "J", "sign"]
    mask, m, j, sign = (np.array(col, dtype=np.int64) for col in zip(*rows[1:]))
    assert mask.tolist() == list(range(1, 1 << report.n_subsystems))
    assert m.tolist() == [q.bit_count() for q in mask.tolist()]
    assert sign.tolist() == [(-1) ** (k - 1) for k in m.tolist()]
    assert j.tolist() == report.per_subset_j[1:].tolist()
    assert int(sign @ j) == report.c_n == 2


def test_csv_writer_holds_one_block_of_rows_at_a_time():
    """Writing the 2^20 J table of a random N = 20 CSS allocates less than
    twice the table's bytes: its rows are formatted a block at a time, each
    block one string that the file's ``write`` takes and drops here, not as
    2^20-entry lists beside the table."""
    j_table = CssAnalysis(random_n(20)).tables.j_table
    written = []
    tracemalloc.start()
    try:
        write_subset_table_csv(j_table, SimpleNamespace(write=lambda text: written.append(len(text))))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 0.8 MB against a 1 MB int8 table; whole-table lists peaked at 65 MB
    assert peak < 2 * j_table.nbytes, (peak, j_table.nbytes)
    buf = io.StringIO()
    write_subset_table_csv(j_table, buf)
    assert len(written) == 1 + len(j_table) // masks.CSV_BLOCK and sum(written) == len(buf.getvalue())


def test_capped_walk_falls_back_to_the_table(monkeypatch):
    """With the walk capped at 2 states, C comes from the component table of
    its sub-collection up to 24 subsystems and is a TooManySubsystems naming
    both caps above it; no long walk starts.  Each C^N below but the ring's
    walks a block with a chord, so it reads the table; the ring and the hole
    loops are plain cycles, read in closed form."""
    monkeypatch.setattr("topomi.walk.MAX_WALK_STATES", 2)
    tables = _count_calls(monkeypatch, [(masks, "component_counts")])
    for css, reads in ((builders.six_hole_eighteen(), 1), (builders.annulus(12), 0),
                       (builders.far_handle_annulus(8, 3), 1)):
        analysis = CssAnalysis(css)
        j = analysis.tables.j_table
        before = tables["component_counts"]
        for ids in [*analysis.hole_loops, tuple(range(css.n_subsystems))]:
            assert analysis.c_within(ids) == signed_reference(j, ids), (css.name, ids)
        assert tables["component_counts"] - before == reads, css.name
    start = time.perf_counter()
    with pytest.raises(TooManySubsystems, match="cap of 2 states, and 30 groups exceed the table's cap of 24"):
        CssAnalysis(builders.far_handle_annulus(30, 3)).c_n
    assert time.perf_counter() - start < 1


def test_capped_walk_reads_a_table_of_its_own_sub_collection(monkeypatch):
    """A capped walk falls back to the 2^k table of its k groups, not to the
    2^N J table: six bricks of a 70-brick wall answer as the uncapped walk
    does, while the whole wall raises naming both caps.  A 30-subsystem far
    handle's 4-loop and 28-loop are plain cycles, so they answer under the
    cap, with no table."""
    wall = brick_css(7, 10)
    patch = (0, 1, 2, 7, 8, 9)  # three bricks of each of two rows: a block with chords
    uncapped = CssAnalysis(wall).c_within(patch)
    css = builders.far_handle_annulus(30, 3)
    loops = sorted(CssAnalysis(css).hole_loops, key=len)
    assert [len(loop) for loop in loops] == [4, 28]
    monkeypatch.setattr("topomi.walk.MAX_WALK_STATES", 2)
    tables = []
    table = masks.component_counts
    monkeypatch.setattr(masks, "component_counts", lambda adj, groups: tables.append(len(groups)) or table(adj, groups))
    analysis = CssAnalysis(wall)
    restricted = CssAnalysis(restrict_css(wall, patch))
    assert analysis.c_within(patch) == uncapped == signed_reference(restricted.tables.j_table, range(len(patch)))
    assert tables == [6]
    with pytest.raises(TooManySubsystems, match="cap of 2 states, and 70 groups exceed the table's cap of 24"):
        analysis.c_n
    assert "tables" not in vars(analysis)
    analysis = CssAnalysis(css)
    assert [analysis.c_within(loop) for loop in loops] == [-2, -2]
    assert tables == [6] and "tables" not in vars(analysis)


RING_BUILDERS = (builders.annulus, builders.annulus_with_punched_hole,
                 builders.annulus_with_self_handle, builders.annulus_with_nn_handle)


@pytest.mark.parametrize("n", [32, 48, 64])
@pytest.mark.parametrize("build", RING_BUILDERS, ids=lambda b: b.__name__)
def test_ring_c_n_beyond_the_table_cap(build, n):
    """|C^N| = chi = 2 for every annular builder well above 24 subsystems."""
    start = time.perf_counter()
    assert connectivity_count(build(n)).c_n == 2 * (-1) ** (n - 1)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("n", [30, 64, pytest.param(200, marks=pytest.mark.installed)])
@pytest.mark.parametrize("build", RING_BUILDERS, ids=lambda b: b.__name__)
def test_ring_c_n_is_read_in_closed_form(build, n, monkeypatch):
    """Each ring builder's cell-component graph is one plain cycle through
    every subsystem, so C^N = 2(-1)^(N-1) comes with no walk and no table,
    even with the walk capped at 0 states."""
    monkeypatch.setattr(walk, "MAX_WALK_STATES", 0)
    walks = _count_calls(monkeypatch, [(walk, "_frontier_walk"), (masks, "component_counts")])
    assert connectivity_count(build(n)).c_n == -2
    assert not walks


@pytest.mark.parametrize("n", [32, 48])
def test_far_handle_beyond_the_table_cap(n):
    """The far handle kills C^N and revives a ring around each of its holes."""
    analysis = CssAnalysis(builders.far_handle_annulus(n, 3))
    assert analysis.c_n == 0
    result = subloop_revival(D2, analysis)
    assert result.p + result.q - 2 == n
    assert abs(result.c_p) == abs(result.c_q) == 2


def brick_css(cols: int, rows: int) -> GridCss:
    """Bricks two cells wide, every other row shifted by one cell: each corner
    inside is a junction of three bricks."""
    width = 2 * cols + 1
    labels = [OUTSIDE] * (width * rows)
    for y in range(rows):
        for c in range(cols):
            x = y * width + y % 2 + 2 * c
            labels[x] = labels[x + 1] = y * cols + c
    return GridCss(width, rows, tuple(labels), name=f"brick-{cols}x{rows}")


def test_c_within_at_seventy_subsystems_is_the_restricted_c_n():
    """Above 62 subsystems an int64 mask per feature would overflow; the chi
    term of a 3-subsystem C counts only their junction corners, and a C of
    more subsystems has none.  Each C inside the 70-brick CSS equals the
    J-table C^N of its restricted CSS."""
    css = brick_css(7, 10)
    analysis = CssAnalysis(css)
    corners = feature_labels(css)[0][0]
    junctions = {tuple(sorted(set(row))) for row in corners.tolist() if min(row) >= 56 and len(set(row)) == 3}
    assert len(junctions) >= 10
    rng = random.Random(70)
    picks = sorted(junctions)[:6]
    picks += [tuple(sorted({*junction, junction[0] - 1})) for junction in picks]  # size 4
    picks += [tuple(rng.sample(range(55, 70), 5)) for _ in range(4)]
    for ids in picks:
        restricted = CssAnalysis(restrict_css(css, ids))
        want = signed_reference(restricted.tables.j_table, range(len(ids)))
        assert analysis.c_within(ids) == want, ids
    assert sorted({len(ids) for ids in picks}) == [3, 4, 5]


def held_by_scan(analysis: CssAnalysis, keep) -> int:
    """The chi term of C by its definition: the weight of every corner,
    segment and cell row of the grid whose cells hold every id of ``keep``."""
    held = 0
    for labels, weight in feature_labels(analysis.css):
        rows = np.all([(labels == i).any(axis=1) for i in keep], axis=0)
        held += weight * int(np.count_nonzero(rows))
    return held


def test_junction_index_matches_the_full_scan(junction_css):
    """The chi term of three ids, counted from the junction corners of the
    grid's validation scan, equals the scan of every feature row, and that
    scan finds no chi term of four ids: on each junction's ids, each
    junction's ids with one id more, and seeded random keeps of 3 or 4 ids,
    over the junction fixture and the 70-brick wall."""
    rng = random.Random(68)
    checked = held = 0
    for css in [*junction_css, brick_css(7, 10)]:
        analysis = CssAnalysis(css)
        n = css.n_subsystems
        junctions = set(map(frozenset, css.junctions))
        keeps = {tuple(sorted(ids)) for ids in junctions}
        keeps |= {tuple(sorted({*ids, rng.randrange(n)})) for ids in junctions}
        keeps |= {tuple(sorted(rng.sample(range(n), rng.choice([3, 4])))) for _ in range(20)}
        for keep in keeps:
            want = held_by_scan(analysis, keep)
            assert want == (analysis._junction_counts[frozenset(keep)] if len(keep) == 3 else 0), (css.name, keep)
            checked += 1
            held += want > 0
    assert checked > 5000 and held > 600, (checked, held)


def test_information_of_a_thousand_hole_frame_is_per_hole():
    """Each 4-id loop has no chi term, as no window holds four labels, so
    no feature row of the grid is read, and each loop's block is a plain
    cycle, read with no walk: the summary of the 3 001-subsystem frame,
    C^N and 1 000 loops of C = -2, takes about 0.09 s on a 2-core x86-64
    VM."""
    css = window_frame(1000)
    start = time.perf_counter()
    summary = information_summary(D2, css)
    assert time.perf_counter() - start < 0.35
    assert summary.c_n == 0 and [h.c for h in summary.holes] == [-2] * 1000


def test_information_of_a_wide_annulus_walks_its_hole_from_one_cell():
    """The 801 x 801 grid of annulus(1600) holds one hole of 638 401 cells.
    Its loop is walked from the hole's first cell over the labels, so no
    set of the hole's cells is built, and the grid is validated and
    labelled by its constructor's one pass: building it and its summary
    take 0.13-0.14 s on a 2-core x86-64 VM, nearly all of it that pass,
    against 0.36-0.38 s when the constructor's window scan was followed by
    a flood of every cell at first use."""
    start = time.perf_counter()
    css = builders.annulus(1600)
    summary = information_summary(D2, css)
    assert time.perf_counter() - start < 0.3
    assert [h.c for h in summary.holes] == [-2]


def test_c_of_one_to_five_ids_builds_no_features():
    """C of one or two ids is read from the labelling, of three ids from the
    junction corners the grid's validation scan recorded, and of more ids
    has no chi term: no C of one to five ids builds the feature rows of the
    2^N tables."""
    for css in (builders.annulus(12), brick_css(3, 3)):
        analysis = CssAnalysis(css)
        j_table = CssAnalysis(css).tables.j_table
        assert analysis.c_n == signed_reference(j_table, range(css.n_subsystems))
        for ids in (range(1), range(3, 4), range(2), range(1, 3), range(3), range(2, 5), range(4), range(1, 5),
                    range(5)):
            assert analysis.c_within(ids) == signed_reference(j_table, ids), (css.name, ids)
        assert "tables" not in analysis.__dict__


def scan_cases(junction_css) -> list[GridCss]:
    """The junction fixture, the builders, seeded random 16x16 CSS, brick
    walls and window frames."""
    built = [
        *annulus_family(12), builders.open_chain(6), builders.annulus_with_island(6),
        builders.annulus_with_appendage(6), builders.annulus_with_punched_hole(8),
        builders.annulus_with_self_handle(6), builders.annulus_with_nn_handle(6),
        builders.far_handle_annulus(8, 3), builders.theta_pair(), builders.two_hole_five(),
        builders.six_hole_eighteen(),
    ]
    rng = random.Random(43)
    randoms = [builders.random_css(rng, rng.randint(3, 20), 16, 16, growth=rng.choice([60, 200])) for _ in range(30)]
    return [*junction_css, *built, *randoms, brick_css(3, 3), brick_css(7, 10), window_frame(3), window_frame(40)]


def test_validation_scan_records_the_junction_corners(junction_css):
    """The junction corners of the grid's validation scan are, in order, the
    corner rows of the feature decomposition, as windows, that hold three or
    more distinct subsystems."""
    found = 0
    for css in scan_cases(junction_css):
        corners = feature_labels(css)[0][0].tolist()
        want = [tuple(row) for row in corners if len(set(row) - {OUTSIDE}) >= 3]
        assert list(css.junctions) == want, css.name
        found += len(want)
    assert found == 710, found


def test_no_window_holds_four_labels(junction_css):
    """The invariant the C of three ids or more rests on: the pinch rule
    leaves no 2x2 window of a valid grid, its OUTSIDE border included, with
    four distinct labels, OUTSIDE counted.  On the scan cases and seeded
    dense ``random_css`` draws of up to 30 subsystems."""
    rng = random.Random(44)
    draws = [builders.random_css(rng, rng.randint(3, 30), rng.randint(4, 24), rng.randint(4, 24),
                                 growth=rng.choice([20, 200, 600])) for _ in range(60)]
    seen = Counter()
    for css in [*scan_cases(junction_css), *draws]:
        grid = np.pad(np.array(css.labels).reshape(css.height, css.width), 1, constant_values=OUTSIDE)
        windows = np.sort(np.stack([grid[:-1, :-1], grid[:-1, 1:], grid[1:, :-1], grid[1:, 1:]], axis=-1), axis=-1)
        distinct = 1 + np.count_nonzero(np.diff(windows, axis=-1), axis=-1)
        seen.update(distinct.ravel().tolist())
    assert set(seen) == {1, 2, 3} and seen[3] > 1000, seen


@pytest.mark.installed
def test_union_boundary_count_matches_the_flood_fill(junction_css):
    """J read from the labelling (``grid.union_boundary_count``) equals the
    flood fill of the union's own cells on seeded 1-, 2- and 3-id unions and
    the full set of every scan case, and the C of one and two ids equals the
    signed reference of the J table on the junction fixture."""
    rng = random.Random(45)
    checked = 0
    for css in scan_cases(junction_css):
        n = css.n_subsystems
        for ids in [*(rng.sample(range(n), k) for k in (1, 2, 3) if k <= n), range(n)]:
            assert union_boundary_count(css, ids) == boundary_component_count(union_region(css, ids)), (css.name, ids)
            checked += 1
    assert checked > 1000, checked
    for css in junction_css:
        analysis, n = CssAnalysis(css), css.n_subsystems
        j = analysis.tables.j_table
        for ids in [*itertools.combinations(range(n), 1), *rng.sample(list(itertools.combinations(range(n), 2)), 4)]:
            assert analysis.c_within(ids) == signed_reference(j, ids), (css.name, ids)


def test_count_components_matches_the_flood_fill(junction_css):
    """``grid.count_components`` over the labelling's walls counts, for seeded
    1-, 2- and 3-id unions and the full set of every scan case, the union's
    components and those of the rest of the padded grid as the flood fill of
    the same cells does: the rest is the outside and the union's holes."""
    rng = random.Random(48)
    checked = 0
    for css in scan_cases(junction_css):
        labels, near, _ = css.labelling
        n = css.n_subsystems
        for ids in [*(rng.sample(range(n), k) for k in (1, 2, 3) if k <= n), range(n)]:
            union = union_region(css, ids)
            inside = count_components(near, (c for c, label in enumerate(labels) if label in ids))
            rest = count_components(near, (c for c, label in enumerate(labels) if label not in ids))
            assert (inside, rest) == (connected_components(union)[0], 1 + len(region_holes(union))), (css.name, ids)
            checked += 1
    assert checked > 1000, checked


def test_hole_walk_matches_the_dict_walk(junction_css):
    """The corner-by-corner walk from each hole's first cell over the labels
    records the labels of the walk over a dict of every boundary edge of the
    hole's cells, those of the flood-fill reference."""
    walked = 0
    for css in scan_cases(junction_css):
        reference = region_holes(union_region(css, range(css.n_subsystems)))
        assert len(reference) == find_holes(css).n_h, css.name
        for hole, cells in zip(find_holes(css).holes, reference):
            assert _boundary_walk_labels(css, hole) == boundary_walk_labels(css, cells), css.name
            walked += 1
    assert walked == 262, walked


@pytest.mark.installed
def test_walk_past_its_cap_on_a_brick_wall_gives_up_at_once():
    """The 16 384-brick wall, at the vertex cap, passes the walk's state cap
    within its first rows: C^N stops at that step, with no whole-graph
    vertex order built first, and raises naming both caps."""
    start = time.perf_counter()
    with pytest.raises(TooManySubsystems, match="^the frontier walk over 16384 groups exceeds its cap of 4096 "
                                                "states, and 16384 groups exceed the table's cap of 24"):
        CssAnalysis(brick_css(128, 128)).c_n
    # about a second for the command on a 2-core VM, against 28 s for a walk
    # that built its whole vertex order first
    assert time.perf_counter() - start < 3


def test_c_within_rejects_ids_outside_the_css():
    analysis = CssAnalysis(builders.annulus(4))
    for ids in ([], [4], [-1, 0]):
        for _ in range(2):  # on every call: an invalid sub-collection is never kept
            with pytest.raises(ValidationError):
                analysis.c_within(ids)
    assert analysis._c_memo == {}


def test_c_within_takes_ids_through_operator_index():
    """An id that is no integer is a ValidationError naming it, never a bare
    TypeError or a C; ints, bools and numpy integers read the same C."""
    analysis = CssAnalysis(builders.annulus(6))
    for ids in ([0.5], [0.5, 1, 2], [1, 2.0], ["1"], [None]):
        bad = next(i for i in ids if not isinstance(i, int))
        with pytest.raises(ValidationError, match=f"^subsystem id must be an integer, got {re.escape(repr(bad))}$"):
            analysis.c_within(ids)
    for ids in (2, np.int64(2), None, 1.5):  # one id, or none, in place of a collection
        with pytest.raises(ValidationError, match=f"^subsystem ids must be a collection of integers, got {re.escape(repr(ids))}$"):
            analysis.c_within(ids)
    assert analysis._c_memo == {}
    assert analysis.c_within([True, 2, 3]) == analysis.c_within((1, 2, 3))
    assert analysis.c_within(np.arange(3)) == analysis.c_within([np.int8(0), np.uint64(1), 2]) == analysis.c_within([0, 1, 2])
    assert set(analysis._c_memo) == {(1, 2, 3), (0, 1, 2)}
    assert {type(i) for key in analysis._c_memo for i in key} == {int}


def test_c_within_keeps_each_sub_collection_once():
    """Permuted and repeated ids read the C kept under their sorted ids, which
    is the C a fresh analysis walks."""
    rng = random.Random(11)
    for analysis, loops, picks in _sub_collections(rng):
        kept = set()
        for ids in [*loops, *picks]:
            want = CssAnalysis(analysis.css).c_within(ids)
            shuffled = [*ids, *ids]
            rng.shuffle(shuffled)
            assert analysis.c_within(ids) == want, (analysis.css.name, ids)
            assert analysis.c_within(shuffled) == analysis.c_within(reversed(ids)) == want
            kept.add(tuple(sorted(ids)))
        assert set(analysis._c_memo) == kept


def _information_peak_per_subset(css) -> float:
    tracemalloc.start()
    try:
        multipartite_information(EntropyModel(), css)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (1 << css.n_subsystems)


def test_information_allocation_peak_is_bounded():
    """The 2^18-subset analysis of six-hole-eighteen allocates at most 20 bytes per subset."""
    peak = _information_peak_per_subset(builders.six_hole_eighteen())
    assert peak <= 20, peak


@pytest.mark.parametrize("n", [20, 22])
def test_random_information_allocation_peak_is_bounded(n):
    """The analysis of an N = 20 or 22 random CSS allocates at most 20 bytes per subset."""
    peak = _information_peak_per_subset(random_n(n))
    assert peak <= 20, peak


def _count_calls(monkeypatch, targets) -> Counter:
    calls = Counter()
    for owner, attr in targets:
        function = getattr(owner, attr)

        def counting(*args, function=function, attr=attr):
            calls[attr] += 1
            return function(*args)

        monkeypatch.setattr(owner, attr, counting)
    return calls


@pytest.mark.parametrize("name", ["random-n20", "six-hole-eighteen"])
def test_information_builds_j_alone(name, monkeypatch):
    """``multipartite_information`` builds J with one walk of the blocks with
    a chord (none when there is no such block, as in this random-n20
    input), and no Euler, component or sign table; C^N and each hole loop's
    C take one frontier walk."""
    css = random_n(20) if name == "random-n20" else builders.six_hole_eighteen()
    calls = _count_calls(monkeypatch, [
        (masks, "_walk_components"), (engine, "signed_component_sum"), (masks, "subset_signs"),
    ])
    analysis = CssAnalysis(css)
    report = multipartite_information(D2, analysis)
    built = set(vars(analysis.tables))
    assert "j_table" in built and report.per_subset_j is analysis.tables.j_table
    assert built.isdisjoint({"euler_table", "component_table", "signs", "popcounts", "masks"}), built
    loops = sum(isinstance(loop, tuple) for loop in analysis.hole_loops)
    block_walks = int(name == "six-hole-eighteen")
    adj = analysis.css.cell_components[0]
    chorded = [block for block in walk._cycle_blocks(adj, (1 << len(adj)) - 1)
               if sum((adj[v] & block).bit_count() for v in range(len(adj)) if block >> v & 1) > 2 * block.bit_count()]
    assert bool(chorded) == block_walks
    assert calls == Counter(_walk_components=block_walks, signed_component_sum=1 + loops)


@pytest.mark.parametrize("name", ["random-n20", "six-hole-eighteen"])
def test_information_labels_the_grid_and_builds_its_graph_once(name, monkeypatch):
    """Each grid is labelled once, by its constructor (``grid._scan``), and
    ``multipartite_information`` labels nothing again: it builds the
    cell-component graph once and finds the blocks of that whole graph
    once: C^N, the hole loops' C and the J table share
    ``GridCss.cell_components``, and C^N and the J table share
    ``GridCss.cell_blocks``."""
    built = Counter()
    for attr in ("cell_components", "cell_blocks"):
        func = vars(GridCss)[attr].func
        prop = cached_property(lambda css, func=func, attr=attr: built.update([attr]) or func(css))
        prop.__set_name__(GridCss, attr)
        monkeypatch.setattr(GridCss, attr, prop)
    scan = grid._scan
    monkeypatch.setattr(grid, "_scan", lambda css: built.update(["labelling"]) or scan(css))
    whole = []  # the vertex masks of the _cycle_blocks calls on the whole graph
    cycle_blocks = walk._cycle_blocks

    def counting(adj, keep):
        if keep == (1 << len(adj)) - 1:
            whole.append(keep)
        return cycle_blocks(adj, keep)

    monkeypatch.setattr(walk, "_cycle_blocks", counting)
    monkeypatch.setattr(masks, "_cycle_blocks", counting)
    css = random_n(20) if name == "random-n20" else builders.six_hole_eighteen()
    assert built == Counter(labelling=1)
    analysis = CssAnalysis(css)
    multipartite_information(D2, analysis)
    assert built == Counter(labelling=1, cell_components=1, cell_blocks=1)
    assert len(whole) == 1
    assert analysis.css.labelling is css.labelling
    assert analysis.tables._cell_component_graph is css.cell_components


@pytest.mark.parametrize("name", ["random-n20", "six-hole-eighteen"])
def test_information_summary_builds_no_table(name, monkeypatch):
    """The summary (C^N, chi and the hole loops) walks no subset table, and its
    JSON is the full report's."""
    css = random_n(20) if name == "random-n20" else builders.six_hole_eighteen()
    calls = _count_calls(monkeypatch, [(masks, "_walk_components"), (masks, "meet_entries")])
    analysis = CssAnalysis(css)
    summary = information_summary(D2, analysis)
    assert not calls and "tables" not in vars(analysis)
    assert summary.to_json_dict() == multipartite_information(D2, css).to_json_dict()


@pytest.mark.parametrize("alpha", [None, 0.0])
@pytest.mark.parametrize("grid", ["A", "AB", "AB\nAB"])
def test_information_needs_three_subsystems(grid, alpha):
    with pytest.raises(ValidationError, match="N >= 3"):
        multipartite_information(EntropyModel(2.0, alpha=alpha), parse_ascii(grid))


def test_subsystem_guard(monkeypatch):
    """Above 24 subsystems C^N comes from the frontier walk while the J table
    raises; when the walk passes its state cap too, so does C^N.  A ring's
    C^N is its cycle's closed form, so it answers under any cap."""
    chain = CssAnalysis(GridCss(25, 1, tuple(range(25))))
    assert connectivity_count(chain).c_n == 0
    with pytest.raises(TooManySubsystems, match="25 subsystems exceed the cap of 24"):
        chain.tables.j_table
    assert connectivity_count(builders.far_handle_annulus(25, 3)).c_n == 0
    monkeypatch.setattr("topomi.walk.MAX_WALK_STATES", 1)
    with pytest.raises(TooManySubsystems, match="cap of 1 states, and 25 groups exceed the table's cap of 24"):
        connectivity_count(builders.far_handle_annulus(25, 3))
    assert connectivity_count(builders.annulus(25)).c_n == 2


def test_cap_leaves_holes_loops_graph_and_chi(monkeypatch):
    monkeypatch.setattr("topomi.masks.MAX_SUBSYSTEMS", 4)
    analysis = CssAnalysis(builders.far_handle_annulus(5, 2))
    assert len(analysis.css.cell_components[1]) == 5
    assert analysis.holes.n_h == 2
    assert sorted(len(loop) for loop in analysis.hole_loops) == [3, 4]
    assert analysis.graph.d_nn == 6
    assert analysis.chi == 2
    assert analysis.c_n == 0  # from the frontier walk of its one block, a 5-cycle with a chord
    monkeypatch.setattr("topomi.walk.MAX_WALK_STATES", 1)
    assert analysis.c_within(range(4, -1, -1)) == 0  # kept from c_n, not walked again
    with pytest.raises(TooManySubsystems, match="5 groups exceed the table's cap of 4"):
        CssAnalysis(analysis.css).c_within(range(4, -1, -1))
    assert CssAnalysis(builders.annulus(5)).c_n == 2  # a plain cycle: no walk, no table


def test_annulus_beyond_the_cap_has_chi_and_annular_order():
    analysis = CssAnalysis(builders.annulus(30))
    assert analysis.css.n_subsystems > masks.MAX_SUBSYSTEMS
    assert analysis.chi == 2
    assert sorted(annular_order(analysis)) == list(range(30))


# ----------------------------------------------------------------------
# I^N and the invariant checks
# ----------------------------------------------------------------------

def test_information_values_match_counting():
    for dim in (math.sqrt(2), 2.0, 3.0):
        model = EntropyModel(dim)
        for n in range(3, 9):
            report = multipartite_information(model, builders.annulus(n))
            assert report.i_n == pytest.approx((-1) ** n * 2 * math.log(dim), abs=1e-12)


def test_alpha_sweep_leaves_information_unchanged():
    # I^N summed from alpha-weighted entropies; multipartite_information never reads alpha
    analysis = CssAnalysis(builders.far_handle_annulus(6, 3))
    for alpha in (0.0, 0.5, LN2, 3.7):
        model = EntropyModel(2.0, alpha=alpha)
        value = recursion_check(model, analysis).lhs
        assert value == pytest.approx(-analysis.c_n * model.s_topo, rel=1e-9, abs=1e-12)


def test_report_fields_and_json():
    report = multipartite_information(D2, builders.annulus(4))
    assert report.c_n == -2
    assert report.i_n_nats == pytest.approx(2 * LN2)
    assert report.i_n_log2 == pytest.approx(2.0)
    payload = report.to_json_dict()
    assert payload["schema"] == "topo-mpi/1"
    assert payload["s_intersection"] == 0.0
    assert payload["chi"] == 2
    assert len(payload["holes"]) == 1
    assert payload["holes"][0]["loop"] == [0, 1, 2, 3]
    assert payload["constraint_sum"] == pytest.approx(2 * LN2)


def test_island_report_has_no_chi():
    report = multipartite_information(D2, builders.annulus_with_island(5))
    assert report.chi is None
    assert report.c_n == 0


def test_annular_information_base_and_deformed():
    for css in (builders.annulus(8), builders.annulus_with_self_handle(5),
                builders.annulus_with_punched_hole(6), builders.annulus_with_nn_handle(4)):
        n = css.n_subsystems
        assert len(annular_order(css)) == n
        report = multipartite_information(D2, css)
        assert report.i_n == pytest.approx((-1) ** n * 2 * D2.s_topo, abs=1e-9)


def test_annular_check_rejects_non_annular():
    for css in (builders.open_chain(4), builders.annulus_with_island(5),
                builders.far_handle_annulus(5, 2)):
        with pytest.raises(NotAnnular):
            annular_order(css)


def test_annular_order_is_ring_order():
    order = annular_order(builders.annulus(6))
    start = order.index(0)
    rotated = order[start:] + order[:start]
    assert rotated in ((0, 1, 2, 3, 4, 5), (0, 5, 4, 3, 2, 1))


# ----------------------------------------------------------------------
# sub-loop revival
# ----------------------------------------------------------------------

def test_subloop_revival_n6_symmetric():
    result = subloop_revival(D2, builders.far_handle_annulus(6, 3))
    assert (result.p, result.q) == (4, 4)
    assert result.info_p == pytest.approx(2 * LN2)
    assert result.info_q == pytest.approx(2 * LN2)
    assert result.p + result.q - 2 == 6


def test_subloop_revival_n5():
    result = subloop_revival(D2, builders.far_handle_annulus(5, 2))
    assert (result.p, result.q) == (3, 4)
    assert result.info_p == pytest.approx(-2 * LN2)
    assert result.info_q == pytest.approx(2 * LN2)


def test_subloop_rejects_degenerate_two_arc_loop():
    with pytest.raises(NotACycle):
        subloop_revival(D2, builders.theta_pair())


def test_subloop_needs_two_holes():
    with pytest.raises(ValidationError):
        subloop_revival(D2, builders.annulus(5))


def test_subloop_rejects_two_loops_that_are_no_single_handle():
    """two-hole-five's loops (A, B, C) and (A, D, E) share one subsystem, not a handle's two."""
    with pytest.raises(ValidationError, match=r"^loop sizes 3 \+ 3 - 2 != N = 5; not a single-handle deformation$"):
        subloop_revival(D2, builders.two_hole_five())


# ----------------------------------------------------------------------
# the multi-hole constraint: sum of |I| around the holes = 2 n_h S_topo
# ----------------------------------------------------------------------

def test_hole_sum_two_hole_five():
    report = multipartite_information(D2, builders.two_hole_five())
    assert len(report.holes) == 2
    assert report.chi == 2
    assert report.constraint_sum == pytest.approx(4 * LN2)
    assert report.i_n == pytest.approx(0.0, abs=1e-12)


def test_hole_sum_six_hole_eighteen():
    report = multipartite_information(D2, builders.six_hole_eighteen())
    assert len(report.holes) == 6
    assert report.chi == 2
    assert report.constraint_sum == pytest.approx(12 * LN2)
    assert report.i_n == pytest.approx(0.0, abs=1e-12)
    assert sorted(abs(round(h.info / LN2)) for h in report.holes) == [2] * 6


def test_hole_sum_integer_form():
    # sum over holes of |C| equals 2 n_h
    for css in (builders.two_hole_five(), builders.six_hole_eighteen()):
        report = multipartite_information(D2, css)
        assert sum(abs(round(h.info / LN2)) for h in report.holes) == 2 * len(report.holes)


def test_hole_sum_annulus_is_the_ring_invariant():
    report = multipartite_information(D2, builders.annulus(5))
    assert len(report.holes) == 1
    assert report.chi == 2
    assert report.constraint_sum == pytest.approx(2 * LN2)
    assert report.i_n == pytest.approx(-2 * LN2)


def test_hole_sum_requires_cycles():
    report = multipartite_information(D2, builders.annulus_with_self_handle(5))
    assert report.constraint_sum is None
    assert [h.error is None for h in report.holes] == [False, True]
    assert report.holes[0].loop is None and report.holes[0].info is None
    report = multipartite_information(D2, builders.open_chain(4))
    assert report.holes == ()
    assert report.constraint_sum is None


def test_ringed_holes_sum_to_two_per_hole(junction_css):
    """On every CSS whose holes are all ringed by cycles, each loop has
    |C| = 2, so the hole sum is 2 n_h S_topo: the plane's chi = 2 times n_h.
    Disconnected footprints, where ``chi`` raises, are included."""
    n_css = n_loops = n_disconnected = 0
    for css in [*_analytic_gallery_css(), *junction_css]:
        analysis = CssAnalysis(css)
        n_h = analysis.holes.n_h
        if not n_h or any(isinstance(loop, str) for loop in analysis.hole_loops):
            continue
        # |C| = 2 on every loop, hence sum |C| = 2 n_h
        assert [abs(analysis.c_within(loop)) for loop in analysis.hole_loops] == [2] * n_h, css
        report = multipartite_information(D2, analysis)
        assert abs(report.constraint_sum - 2 * n_h * D2.s_topo) < 1e-9, css
        n_css += 1
        n_loops += n_h
        n_disconnected += report.chi is None
    assert (n_css, n_loops, n_disconnected) == (141, 192, 11)


# ----------------------------------------------------------------------
# invariance under grid transforms
# ----------------------------------------------------------------------

def _remap(css, width, height, source):
    """The width x height CSS whose cell (x, y) carries ``source(x, y)``."""
    labels = tuple(source(x, y) for y in range(height) for x in range(width))
    return GridCss(width, height, labels)


def _rotate(css, rng):
    return _remap(css, css.height, css.width, lambda x, y: css.label_at(y, css.height - 1 - x))


def _reflect(css, rng):
    return _remap(css, css.width, css.height, lambda x, y: css.label_at(css.width - 1 - x, y))


def _refine(css, rng):
    return _remap(css, 2 * css.width, 2 * css.height, lambda x, y: css.label_at(x // 2, y // 2))


def _pad(css, rng):
    return _remap(css, css.width + 2, css.height + 2, lambda x, y: css.label_at(x - 1, y - 1))


def _relabel(css, rng):
    ids = list(range(css.n_subsystems))
    rng.shuffle(ids)
    return GridCss(css.width, css.height, tuple(v if v == OUTSIDE else ids[v] for v in css.labels))


def _signature(css):
    """C^N, n_h and the sorted (|C|, size) of each hole loop; (0, 0) for a
    hole without one, since a loop has at least three subsystems."""
    analysis = CssAnalysis(css)
    loops = sorted(
        (0, 0) if isinstance(loop, str) else (abs(analysis.c_within(loop)), len(loop))
        for loop in analysis.hole_loops
    )
    return analysis.c_n, analysis.holes.n_h, loops


@pytest.mark.parametrize(
    "transform", [_rotate, _reflect, _refine, _pad, _relabel], ids=lambda f: f.__name__[1:]
)
def test_counts_invariant_under_grid_transforms(transform, junction_css):
    rng = random.Random(5)
    n_changed = 0
    for css in junction_css:
        moved = transform(css, rng)
        n_changed += moved.labels != css.labels
        assert _signature(moved) == _signature(css), css
    assert n_changed > 0


# ----------------------------------------------------------------------
# strong subadditivity combination
# ----------------------------------------------------------------------

def test_ssa_combination_analytic():
    for dim, want in ((1.0, 0.0), (2.0, -2 * LN2)):
        model = EntropyModel(dim)
        css = builders.annulus(4)
        value = strong_subadditivity_combination(css, model_entropy_source(model, css))
        assert value == pytest.approx(want, abs=1e-12)
        assert value <= 1e-12


def test_ssa_equals_information_for_deformed_rings():
    for css in (builders.annulus(5), builders.annulus_with_nn_handle(5),
                builders.annulus_with_self_handle(6)):
        value = strong_subadditivity_combination(css, model_entropy_source(D2, css))
        assert value == pytest.approx(-2 * LN2, abs=1e-12)


def test_ssa_requires_annular():
    css = builders.open_chain(4)
    with pytest.raises(NotAnnular):
        strong_subadditivity_combination(css, model_entropy_source(D2, css))


@pytest.mark.parametrize("n", [30, 64])
def test_ssa_combination_beyond_the_table_cap(n):
    """The combination reads 2N + 1 entropies, each from its own region, so
    it answers above the cap on the 2^N tables and builds none of them."""
    analysis = CssAnalysis(builders.annulus(n))
    assert n > masks.MAX_SUBSYSTEMS
    value = strong_subadditivity_combination(analysis, model_entropy_source(D2, analysis))
    assert value == pytest.approx(-2 * LN2, abs=1e-9)
    assert "tables" not in vars(analysis)


def test_model_entropy_source_rejects_unknown_ids():
    css = builders.annulus(4)
    source = model_entropy_source(D2, css)
    for ids in ([-1], [4], [0, 4]):
        with pytest.raises(ValidationError, match="unknown subsystem ids"):
            source(frozenset(ids))
    with pytest.raises(EmptySubset):
        source(frozenset())


def test_model_entropies_match_the_subset_entropy_table():
    """Each entropy from its own region is the subset entropy table's entry,
    bit for bit, on seeded random CSS with N = 2..9 (each N twice)."""
    rng = random.Random(20261018)
    for k in range(16):
        n = 2 + k % 8
        css = builders.random_css(rng, n)
        for alpha in (None, 0.0, 1.7):
            model = EntropyModel(2.0, alpha=alpha)
            source = model_entropy_source(model, css)
            entropies = [source([i for i in range(n) if mask >> i & 1]) for mask in range(1, 1 << n)]
            assert np.array(entropies).tobytes() == subset_entropy_table(model, css)[1:].tobytes(), (css.name, alpha)


# ----------------------------------------------------------------------
# entanglement vector
# ----------------------------------------------------------------------

def test_entanglement_vector_topological():
    family = CssFamily(tuple(annulus_family(6)))
    vec = entanglement_vector(D2, family)
    assert not vec.is_zero
    assert all(abs(x - 1.0) < 1e-12 for x in vec.normalized)


def test_entanglement_vector_trivial_phase():
    family = CssFamily(tuple(annulus_family(6)))
    vec = entanglement_vector(EntropyModel(1.0), family)
    assert vec.is_zero
    assert all(x == 0.0 for x in vec.normalized)


def test_family_rejects_non_annular_member():
    members = annulus_family(5)
    members[1] = builders.open_chain(4)
    with pytest.raises(NotAnnular):
        CssFamily(tuple(members))
    with pytest.raises(ValidationError):
        CssFamily((builders.annulus(4),))
