"""Per-mask topology tables against the flood-fill definitions."""

import functools
import itertools
import operator
import random
import tracemalloc
from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from topomi import builders, masks, scenarios
from topomi.engine import CssAnalysis
from topomi.errors import DisconnectedCss, TooManySubsystems
from topomi.grid import (
    MAX_VERTICES,
    OUTSIDE,
    GridCss,
    SimpleGraph,
    adjacency_graph,
    boundary_component_count,
    connected_components,
    euler_characteristic,
    find_holes,
    pack_bits,
    set_bits,
    union_region,
)
from topomi.masks import (
    BLOCK_BITS,
    ROW_BITS,
    UnionTopology,
    _two_core,
    _walk_components,
    component_counts,
    alternating_sum,
    meet_histogram,
    signed_component_sum,
    subset_signs,
    subset_sums,
)
from flood_reference import perimeter_links, region_holes
from test_engine import brick_css


def reference_tables(css):
    """Flood-fill J, links and components for every non-empty mask."""
    n = css.n_subsystems
    j = [0] * (1 << n)
    links = [0] * (1 << n)
    comps = [0] * (1 << n)
    for mask in range(1, 1 << n):
        region = union_region(css, mask)
        j[mask] = boundary_component_count(region)
        links[mask] = perimeter_links(region)
        comps[mask] = connected_components(region)[0]
    return j, links, comps


def comb(width):
    """A top row alternating subsystems 0 and 1 over a bar of subsystem 2:
    width + 1 cell-components."""
    return GridCss(width, 2, tuple(x % 2 for x in range(width)) + (2,) * width, name=f"comb-{width}")


CASES = [
    builders.annulus(3),
    builders.annulus(6),
    builders.open_chain(5),
    builders.annulus_with_island(5),
    builders.annulus_with_appendage(5),
    builders.annulus_with_punched_hole(5),
    builders.annulus_with_self_handle(5),
    builders.annulus_with_nn_handle(5),
    builders.far_handle_annulus(6, 3),
    builders.two_hole_five(),
    builders.theta_pair(),
    comb(150),  # more than 64 cell-components: Python-int vertex masks
    comb(50),  # 33 to 64: uint64 vertex masks
]


@pytest.mark.parametrize("css", CASES, ids=lambda c: c.name)
def test_tables_match_flood_fill(css):
    topo = UnionTopology(css)
    j_ref, links_ref, comp_ref = reference_tables(css)
    assert topo.j_table[1:].tolist() == j_ref[1:]
    assert topo.boundary_links_table[1:].tolist() == links_ref[1:]
    assert topo.component_table[1:].tolist() == comp_ref[1:]


def merge_two_subsystems(css, rng):
    """``css`` with two non-adjacent subsystems relabelled as one, split, subsystem."""
    edges = set(adjacency_graph(css).edges)
    n = css.n_subsystems
    a, b = rng.choice([(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in edges])
    labels = tuple(a if v == b else v - (v > b) for v in css.labels)
    return GridCss(css.width, css.height, labels, name=f"{css.name}-merged")


def fuzzed_cases():
    """25 seeded random CSS, then 20 with one split subsystem."""
    rng = random.Random(987)
    cases = [builders.random_css(rng, rng.randint(2, 6), width=9, height=9) for _ in range(25)]
    # a split subsystem puts several cell-components in one group of the component walk
    merge_rng = random.Random(988)
    for _ in range(20):
        css = builders.random_css(merge_rng, merge_rng.randint(4, 7), width=9, height=9)
        cases.append(merge_two_subsystems(css, merge_rng))
    return cases


def test_tables_match_on_fuzzed_grids():
    cases = fuzzed_cases()
    for css in cases:
        topo = UnionTopology(css)
        j_ref, links_ref, comp_ref = reference_tables(css)
        assert topo.j_table[1:].tolist() == j_ref[1:]
        assert topo.boundary_links_table[1:].tolist() == links_ref[1:]
        assert topo.component_table[1:].tolist() == comp_ref[1:]
    split = [css for css in cases if UnionTopology(css)._cell_component_graph[2] > css.n_subsystems]
    assert split == cases[25:]


def reference_cell_component_graph(css):
    """The cell-component graph by one flood fill per subsystem: vertices
    numbered subsystem by subsystem, each in first-cell order."""
    owner = {}
    cv_mask = []
    n_cv = 0
    for i in range(css.n_subsystems):
        count, labeling = connected_components(css.subsystem_cells(i))
        for cell, k in labeling.items():
            owner[cell] = n_cv + k
        cv_mask.append(((1 << count) - 1) << n_cv)
        n_cv += count
    adj = [0] * n_cv
    for (x, y), cv in owner.items():
        for nb in ((x + 1, y), (x, y + 1)):
            other = owner.get(nb)
            if other is not None and other != cv:
                adj[cv] |= 1 << other
                adj[other] |= 1 << cv
    return adj, cv_mask, n_cv


def reference_adjacency_graph(css):
    """The adjacency graph from the label pairs of every grid edge."""
    edges = set()
    for y in range(css.height):
        for x in range(css.width):
            a = css.label_at(x, y)
            for b in (css.label_at(x + 1, y), css.label_at(x, y + 1)):
                if OUTSIDE not in (a, b) and a != b:
                    edges.add((min(a, b), max(a, b)))
    return SimpleGraph(css.n_subsystems, tuple(edges))


def test_labelling_matches_flood_fill_reference(junction_css):
    """Every structure read from the grid's one labelling against its flood-fill
    definition, on the analytic gallery, the junction fixture and the fuzzed
    grids, split subsystems and islands included."""
    gallery = [scenarios.scenario_css(scenarios.load_scenario(path))
               for path in scenarios.suite_paths(scenarios.gallery_dir())
               if scenarios.load_scenario(path).kind == "analytic"]
    cases = [*gallery, *junction_css, *fuzzed_cases()]
    disconnected = split = holes = 0
    for css in cases:
        analysis = CssAnalysis(css)
        assert analysis._cell_component_graph == reference_cell_component_graph(css), css.name
        split += analysis._cell_component_graph[2] > css.n_subsystems
        footprint = union_region(css, range(css.n_subsystems))
        assert find_holes(css).holes == tuple(region_holes(footprint)), css.name
        labels, near, hole_components = css.labelling
        for hole, c in hole_components.items():
            assert {labels[b] for b in near[c]} == {
                css.label_at(*nb) for x, y in hole for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1))
            } - {OUTSIDE}
            holes += 1
        assert adjacency_graph(css) == reference_adjacency_graph(css), css.name
        n_comp = connected_components(footprint)[0]
        if n_comp == 1:
            assert euler_characteristic(css) == analysis.chi == 2
        else:
            disconnected += 1
            for read in (euler_characteristic, lambda _: analysis.chi):
                with pytest.raises(DisconnectedCss, match=f"^footprint has {n_comp} components$"):
                    read(css)
    assert len(cases) == 385
    assert (disconnected, split, holes) == (74, 20, 247)


def test_j_table_is_twice_components_minus_euler(junction_css):
    """The one-pass int32 J against 2 components - chi formed in int64."""
    cases = [*fuzzed_cases(), *junction_css, builders.six_hole_eighteen(),
             builders.random_css(random.Random(4), 20, 16, 16, growth=200)]
    for css in cases:
        topo = UnionTopology(css)
        want = 2 * topo.component_table.astype(np.int64) - topo.euler_table.astype(np.int64)
        assert topo.j_table.dtype == np.int32
        assert np.array_equal(topo.j_table, want), css.name


@pytest.mark.installed
@pytest.mark.parametrize("n", [20, 22])
def test_j_table_past_the_row_cut_off_matches_flood_fill(n, monkeypatch):
    """A random CSS whose J histogram takes the row path of ``subset_sums``:
    the passes above ROW_BITS add the blocks that the histogram's live rows
    predict, fewer entries than whole-table passes; J at 64 seeded masks
    equals the flood fill, and the alternating sum of J equals the C^N of
    the frontier walk, read before any table exists."""
    css = builders.random_css(random.Random(5), n, 16, 16, growth=200)
    analysis = CssAnalysis(css)
    c_n = analysis.c_n
    assert "j_table" not in analysis.__dict__  # from the walk, not the table
    live_rows = spy_live_rows(monkeypatch)
    calls = spy_row_passes(monkeypatch)
    j = analysis.j_table
    (live,) = live_rows
    runs = [shape for shape, bits in calls if bits == range(ROW_BITS)]
    assert sum(rows for rows, _ in runs) == len(live) > 0
    added = high_pass_additions(calls, n)
    assert added == expected_high_additions(live, n)
    assert sum(added) < (n - ROW_BITS) << n - 1
    rng = random.Random(n)
    for mask in [rng.randrange(1, 1 << n) for _ in range(63)] + [(1 << n) - 1]:
        assert j[mask] == boundary_component_count(union_region(css, mask)), mask
    assert alternating_sum(j.reshape((2,) * n)) == c_n


@pytest.mark.installed
@pytest.mark.parametrize("n", [20, 22])
def test_j_table_matches_flood_fill_in_every_row(n):
    """J at one seeded mask in each row of 2^ROW_BITS entries (256 and 1024
    masks) equals the flood fill, so every row that the passes above
    ROW_BITS add to or skip is checked against the definition."""
    css = builders.random_css(random.Random(5), n, 16, 16, growth=200)
    j = UnionTopology(css).j_table
    rng = random.Random(f"rows-{n}")
    for row in range(1 << n - ROW_BITS):
        mask = row << ROW_BITS | rng.randrange(row == 0, 1 << ROW_BITS)
        assert j[mask] == boundary_component_count(union_region(css, mask)), mask


def cored_graph(rng, n, core_groups):
    """A graph whose vertices are dealt into n groups so that exactly the
    groups ``core_groups`` own 2-core vertices: 1-3 vertices each, shuffled
    round a cycle with a chord; the other groups own 1-2 vertices each, hung
    off earlier vertices as trees or left alone."""
    owner = [g for g in core_groups for _ in range(rng.randint(1, 3))]
    while 0 < len(owner) < 3:
        owner.append(owner[0])
    rng.shuffle(owner)
    cycle = len(owner)
    edges = [(v, (v + 1) % cycle) for v in range(cycle)] + ([(0, cycle // 2)] if cycle > 3 else [])
    for g in sorted(set(range(n)) - set(core_groups)):
        for _ in range(rng.randint(1, 2)):
            owner.append(g)
            v = len(owner) - 1
            if v and rng.random() < 0.9:
                edges.append((rng.randrange(v), v))
    groups = [sum(1 << v for v, o in enumerate(owner) if o == g) for g in range(n)]
    return neighbor_masks(len(owner), edges), groups


def broadcast_add_components(hist, adj, groups, scale=1):
    """``add_components`` with the core's walked table added by one broadcast
    over the (2,)*n view of ``hist``: the reference for the row-at-a-time add."""
    n = len(groups)
    core = _two_core(adj)
    owner = pack_bits(((v, g) for g, mask in enumerate(groups) for v in set_bits(mask)), len(adj))
    outside = [v for v in range(len(adj)) if not core >> v & 1]
    np.add.at(hist, [owner[v] for v in outside], scale)
    edges = [owner[v] | owner[u] for v in outside for u in set_bits(adj[v]) if u < v or core >> u & 1]
    np.add.at(hist, edges, -scale)
    subset_sums(hist)
    table = _walk_components(*masks._induced(adj, [mask for mask in groups if mask & core], core))
    shape = [2 if groups[g] & core else 1 for g in reversed(range(n))]
    hist.reshape((2,) * n)[...] += scale * table.reshape(shape)
    return hist


@pytest.mark.parametrize("scale", [1, 2])
@pytest.mark.parametrize("n, core_groups", [
    (6, ()), (20, ()),  # no core group
    (5, range(5)), (14, range(14)),  # every group in the core
    (16, (0, 3, 7, 11)),  # core groups only below ROW_BITS
    (20, (12, 15, 19)), (22, (13, 21)),  # only above it
    (13, (2, 12)), (22, (0, 5, 11, 12, 17, 21)),  # on both sides
    (ROW_BITS, (0, 6, 11)), (3, (1,)),  # n <= ROW_BITS: one row
])
def test_add_components_adds_the_core_a_row_at_a_time(n, core_groups, scale):
    """The core's table added a row of 2^ROW_BITS entries at a time equals
    the (2,)^n broadcast, byte for byte, on a seeded sparse histogram."""
    rng = random.Random(f"{n}-{tuple(core_groups)}-{scale}")
    adj, groups = cored_graph(rng, n, tuple(core_groups))
    core = _two_core(adj)
    assert [g for g in range(n) if groups[g] & core] == list(core_groups)
    hist = np.zeros(1 << n, dtype=np.int32)
    hist[[rng.randrange(1 << n) for _ in range(40)]] = [rng.randint(-9, 9) for _ in range(40)]
    want = broadcast_add_components(hist.copy(), adj, groups, scale)
    assert masks.add_components(hist, adj, groups, scale).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 6, 13, 20])
def test_add_components_with_no_core_walks_nothing(n, monkeypatch):
    """With no group owning a 2-core vertex the core's table is a single 0:
    the histogram is byte-equal to the broadcast reference, and the core is
    never walked."""
    rng = random.Random(f"no-core-{n}")
    adj, groups = cored_graph(rng, n, ())
    assert _two_core(adj) == 0
    hist = np.zeros(1 << n, dtype=np.int32)
    hist[[rng.randrange(1 << n) for _ in range(40)]] = [rng.randint(-9, 9) for _ in range(40)]
    want = broadcast_add_components(hist.copy(), adj, groups, 2)
    walks = []
    monkeypatch.setattr(masks, "_walk_components", lambda *args: walks.append(args))
    assert masks.add_components(hist, adj, groups, 2).tobytes() == want.tobytes()
    assert walks == []


@pytest.mark.parametrize("n", range(7))
def test_meet_expansion_matches_indicator(n):
    """Subset sums of ``meet_histogram`` give weight * [U & S != 0] for every user
    set U of at most 4 bits, alone and all at once."""
    masks = np.arange(1 << n)
    users = [u for u in range(1 << n) if u.bit_count() <= 4]
    for u in users:
        hist = meet_histogram(n, [(np.array([u]), 3)])
        assert subset_sums(hist).tolist() == (3 * (masks & u != 0)).tolist(), u
    hist = meet_histogram(n, [(np.array([u, u]), u - 5) for u in users])
    want = sum(2 * (u - 5) * (masks & u != 0) for u in users)
    assert subset_sums(hist).tolist() == want.tolist()


def test_disconnected_subsystem_supported():
    # one subsystem made of two islands (no pinch): its group in the component
    # walk holds two cell-components
    css = GridCss(5, 1, (0, -1, 1, -1, 0), name="split")
    topo = UnionTopology(css)
    assert topo.component_table[0b01].item() == 2
    assert topo.j_table[0b01].item() == 2
    assert topo.j_table[0b11].item() == 3


@pytest.mark.parametrize("width", [150, 50])
def test_comb_has_width_plus_one_pieces(width):
    topo = UnionTopology(comb(width))
    adj, _, n_cv = topo._cell_component_graph
    assert n_cv == width + 1
    # every piece lies in the 2-core, so the walk sees Python-int (150) and uint64 (50) vertex masks
    assert _two_core(adj) == (1 << n_cv) - 1
    assert topo.component_table.tolist() == [0, width // 2, width // 2, 1, 1, 1, 1, 1]


def check_sampled_blocks(css, rng):
    """Flood-fill components and J on three random masks and the last mask of every block."""
    topo = UnionTopology(css)
    block = 1 << BLOCK_BITS
    for start in range(0, 1 << css.n_subsystems, block):
        masks = [start + rng.randrange(block) for _ in range(3)] + [start + block - 1]
        for mask in masks:
            region = union_region(css, mask)
            assert topo.component_table[mask].item() == connected_components(region)[0], mask
            assert topo.j_table[mask].item() == boundary_component_count(region), mask


def test_twenty_subsystems_sampled_in_every_block():
    check_sampled_blocks(builders.random_css(random.Random(4), 20, 16, 16, growth=200), random.Random(6))


def test_six_hole_components_sampled_in_every_block():
    css = builders.six_hole_eighteen()
    adj, groups, _ = UnionTopology(css)._cell_component_graph
    core = _two_core(adj)
    # the subsystems owning core pieces span more than one block of the core walk
    assert sum(1 for cvs in groups if cvs & core) > BLOCK_BITS
    check_sampled_blocks(css, random.Random(7))


def ring(k, width):
    """A cycle of k * width vertices in k groups of ``width`` adjacent ones."""
    n_vertices = k * width
    adj = [1 << (v - 1) % n_vertices | 1 << (v + 1) % n_vertices for v in range(n_vertices)]
    return adj, [((1 << width) - 1) << width * g for g in range(k)]


@pytest.mark.parametrize(
    "k, width, blocks", [(17, 1, 2), (18, 2, 4), (20, 1, 16)], ids=["C17-uint32", "C36-uint64", "C20-uint32"]
)
def test_ring_component_counts_match_closed_form(k, width, blocks):
    """:func:`ring`, every table entry: the whole cycle is its 2-core, so all
    2^k subsets are walked, over several blocks.  S has one component per
    i in S with i + 1 (mod k) outside it; the full set has 1."""
    adj, groups = ring(k, width)
    assert _two_core(adj) == (1 << k * width) - 1
    assert 1 << k >> BLOCK_BITS == blocks
    masks = np.arange(1 << k)
    successors = masks >> 1 | (masks & 1) << (k - 1)  # bit i is bit i + 1 (mod k) of S
    expected = np.bitwise_count(masks & ~successors)
    expected[-1] = 1
    table = component_counts(adj, groups)
    assert table.dtype == np.int32
    assert np.array_equal(table, expected)


def test_split_ring_component_counts_match_closed_form():
    """A cycle of 2k vertices in k groups of two opposite ones, {g, g + k},
    every table entry: S's vertices are its pattern twice round the cycle,
    so S has two components per i in S with i + 1 (mod k) outside it; the
    full set has 1.  In every other S a group's two vertices lie in
    different components."""
    k = 17
    adj, _ = ring(2 * k, 1)
    groups = [1 << g | 1 << g + k for g in range(k)]
    subsets = np.arange(1 << k)
    successors = subsets >> 1 | (subsets & 1) << (k - 1)
    expected = 2 * np.bitwise_count(subsets & ~successors)
    expected[-1] = 1
    assert np.array_equal(component_counts(adj, groups), expected)


@pytest.mark.parametrize("n", [20, 22])
def test_component_counts_peak_memory(n):
    css = builders.random_css(random.Random(4), n, 16, 16, growth=200)
    adj, groups, _ = UnionTopology(css)._cell_component_graph
    tracemalloc.start()
    try:
        component_counts(adj, groups)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the int32 table is 4 bytes per subset
    assert peak <= 4.5 * (1 << n)


def neighbor_masks(n, edges):
    return list(SimpleGraph(n, tuple(edges)).neighbor_masks)


def bfs_counts(adj, groups):
    """Components of every subset of groups, by breadth-first search."""
    counts = []
    for mask in range(1 << len(groups)):
        vertices = sum(vs for g, vs in enumerate(groups) if mask >> g & 1)
        present = {v for v in range(len(adj)) if vertices >> v & 1}
        seen, count = set(), 0
        for start in present:
            if start in seen:
                continue
            count += 1
            seen.add(start)
            queue = deque([start])
            while queue:
                v = queue.popleft()
                for u in present - seen:
                    if adj[v] >> u & 1:
                        seen.add(u)
                        queue.append(u)
        counts.append(count)
    return counts


def singletons(n):
    return [1 << v for v in range(n)]


def _comb_graph(width):
    adj, groups, _ = UnionTopology(comb(width))._cell_component_graph
    return adj, groups


CYCLE4 = [(0, 1), (1, 2), (2, 3), (3, 0)]
TWO_TRIANGLES_AND_A_PATH = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6), (6, 4)]

# (adjacency, groups, the 2-core: "empty", "full" or "partial")
SHAPES = {
    "path": (neighbor_masks(6, [(i, i + 1) for i in range(5)]), singletons(6), "empty"),
    "star": (neighbor_masks(6, [(0, i) for i in range(1, 6)]), singletons(6), "empty"),
    "forest": (neighbor_masks(8, [(0, 1), (1, 2), (3, 4), (3, 5), (3, 6)]), singletons(8), "empty"),
    "cycle": (neighbor_masks(6, [(i, (i + 1) % 6) for i in range(6)]), singletons(6), "full"),
    "comb-50": (*_comb_graph(50), "full"),
    # the joining path stays in the 2-core: its vertices have degree 2
    "two-cycles-joined-by-a-path": (neighbor_masks(7, TWO_TRIANGLES_AND_A_PATH), singletons(7), "full"),
    "two-cycles-joined-by-a-path-with-a-tail": (
        neighbor_masks(9, TWO_TRIANGLES_AND_A_PATH + [(3, 7), (7, 8)]), singletons(9), "partial"),
    "cycle-with-pendant-trees": (
        neighbor_masks(8, CYCLE4 + [(0, 4), (2, 5), (5, 6), (5, 7)]), singletons(8), "partial"),
    # group 1 holds vertex 1 on the cycle and vertex 4 hanging off vertex 0
    "split-group-across-the-core": (
        neighbor_masks(5, CYCLE4 + [(0, 4)]), [0b00001, 0b10010, 0b00100, 0b01000], "partial"),
}


@pytest.mark.parametrize("name", SHAPES)
def test_component_counts_on_shapes(name):
    adj, groups, kind = SHAPES[name]
    core = _two_core(adj)
    assert kind == ("empty" if core == 0 else "full" if core == (1 << len(adj)) - 1 else "partial")
    assert component_counts(adj, groups).tolist() == bfs_counts(adj, groups)


def test_cell_component_graph_cap():
    """One row of single cells of one subsystem, one cell-component past
    grid.MAX_VERTICES: the graph raises before any mask is built."""
    labels = (0, OUTSIDE) * MAX_VERTICES + (0,)
    topo = UnionTopology(GridCss(len(labels), 1, labels))
    with pytest.raises(TooManySubsystems, match=f"^{MAX_VERTICES + 1} cell-components exceed the graph cap of "):
        topo._cell_component_graph


def test_two_core_matches_the_round_by_round_peel():
    """The worklist peel against its definition, rounds that each delete
    every vertex of degree <= 1, on seeded sparse graphs (forests, cycles
    with trees hanging off them, isolated vertices)."""
    rng = random.Random(2)
    kinds = set()
    for _ in range(300):
        v = rng.randint(1, 30)
        pairs = list(itertools.combinations(range(v), 2))
        adj = neighbor_masks(v, rng.sample(pairs, min(len(pairs), rng.randint(0, v + 3))))
        core = (1 << v) - 1
        while peel := sum(1 << u for u in set_bits(core) if (adj[u] & core).bit_count() <= 1):
            core ^= peel
        assert _two_core(adj) == core
        kinds.add("empty" if core == 0 else "full" if core == (1 << v) - 1 else "partial")
    assert kinds == {"empty", "full", "partial"}


@st.composite
def grouped_graphs(draw):
    """A graph on at most 10 vertices, its vertices dealt into groups in random order."""
    n = draw(st.integers(1, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    size = draw(st.integers(0, len(pairs)))  # from forests to dense cores
    edges = draw(st.permutations(pairs))[:size]
    owner = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    ids = draw(st.permutations(sorted(set(owner))))
    groups = [sum(1 << v for v in range(n) if owner[v] == i) for i in ids]
    return neighbor_masks(n, edges), groups


def table_signed_sum(adj, groups, ids):
    """The sum over the subsets S of the groups ``ids`` of (-1)^|S| times the
    components of S's induced subgraph, read from the component table."""
    n = len(groups)
    axes = tuple(slice(None) if g in ids else 0 for g in reversed(range(n)))
    return -alternating_sum(component_counts(adj, groups).reshape((2,) * n)[axes])


@pytest.mark.parametrize("name", SHAPES)
def test_signed_component_sum_on_shapes(name):
    adj, groups, _ = SHAPES[name]
    everything = range(len(groups))
    assert signed_component_sum(adj, groups) == table_signed_sum(adj, groups, everything)


@st.composite
def grouped_graphs_and_ids(draw):
    """A grouped graph and a non-empty set of its groups."""
    adj, groups = draw(grouped_graphs())
    ids = draw(st.sets(st.integers(0, len(groups) - 1), min_size=1))
    return adj, groups, ids


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(grouped_graphs_and_ids())
def test_signed_component_sum_matches_component_counts(graph):
    """Split groups, groups with no core vertex and groups left out of the
    sum (their vertices leave the graph) all agree with the table."""
    adj, groups, ids = graph
    chosen = [groups[g] for g in sorted(ids)]
    assert signed_component_sum(adj, chosen) == table_signed_sum(adj, groups, ids)


def test_signed_component_sum_stops_at_its_state_cap(monkeypatch):
    """The 8x8 grid graph needs hundreds of states: with the cap at 5 the walk
    gives up within a few vertices.  A ring needs five states at most."""
    adj = SimpleGraph(64, tuple(
        (v, u) for v in range(64) for u in (v + 1, v + 8) if u < 64 and (u == v + 8 or u % 8)
    )).neighbor_masks
    monkeypatch.setattr(masks, "MAX_WALK_STATES", 5)
    with pytest.raises(TooManySubsystems, match="64 groups exceeds its cap of 5 states"):
        signed_component_sum(adj, singletons(64))
    ring = neighbor_masks(64, [(i, (i + 1) % 64) for i in range(64)])
    # one component on the whole ring, and sum_S (-1)^|S| = 0 otherwise
    assert signed_component_sum(ring, singletons(64)) == 1


def frontier_order(adj, core, groups, owner):
    """The greedy vertex order of the frontier walk, built whole before its
    first step: each step takes, among the unvisited neighbours of the
    visited vertices (the lowest unvisited vertex when there are none), the
    one that adds the fewest frontier vertices plus open groups, the lowest
    on a tie.  ``groups`` are the groups' core vertex masks."""
    order = []
    frontier, left = 0, core
    while left:
        near = 0
        for u in set_bits(frontier):
            near |= adj[u]
        best = None
        for v in set_bits(near & left or left & -left):
            rest = left ^ 1 << v
            # v joins the frontier unless all its neighbours are visited; a
            # frontier vertex whose last unvisited neighbour is v leaves it
            width = bool(adj[v] & rest) - sum(1 for u in set_bits(frontier & adj[v]) if not adj[u] & rest)
            group = groups[owner[v]]  # does v open or close its group?
            width += bool(group & rest) - bool(group & ~left and group & left)
            if best is None or width < best[0]:
                best = (width, v)
        v = best[1]
        order.append(v)
        left ^= 1 << v
        frontier = sum(1 << u for u in set_bits(frontier | 1 << v) if adj[u] & left)
    return order


def assert_walk_takes_the_greedy_order(monkeypatch, adj, groups):
    """The vertices the frontier walk of ``groups`` visits, recorded from
    ``masks._next_vertex``, against :func:`frontier_order` on the same
    induced graph and core: the whole order, or its prefix up to the step
    where the walk stopped at its state cap.  Returns whether it stopped."""
    choices, stopped = [], []
    choose, table = masks._next_vertex, masks.component_counts
    monkeypatch.setattr(masks, "_next_vertex", lambda *args: choices.append(choose(*args)) or choices[-1])
    monkeypatch.setattr(masks, "component_counts", lambda *args: stopped.append(True) or table(*args))
    try:
        signed_component_sum(adj, groups)
    except TooManySubsystems:
        stopped.append(True)
    adj, groups = masks._induced(adj, groups, functools.reduce(operator.or_, groups))
    core = _two_core(adj) if len(groups) > 2 else (1 << len(adj)) - 1
    if not all(mask & core for mask in groups):
        assert choices == []  # the sum is 0 before any step
        return False
    owner = {v: i for i, mask in enumerate(groups) for v in set_bits(mask)}
    order = frontier_order(adj, core, [mask & core for mask in groups], owner)
    assert choices == (order[:len(choices)] if stopped else order)
    return bool(stopped)


def test_walk_takes_the_greedy_order_on_grids(junction_css, monkeypatch):
    """C^N and every hole loop of the analytic gallery, a 100-brick wall and
    the junction fixture: the walk picks the greedy order vertex for vertex."""
    gallery = [scenarios.scenario_css(scenarios.load_scenario(path))
               for path in scenarios.suite_paths(scenarios.gallery_dir())
               if scenarios.load_scenario(path).kind == "analytic"]
    loops = 0
    for css in [*gallery, brick_css(10, 10), *junction_css]:
        analysis = CssAnalysis(css)
        adj, cv_mask, _ = analysis._cell_component_graph
        ids = [loop for loop in analysis.hole_loops if not isinstance(loop, str)]
        loops += len(ids)
        for keep in [range(css.n_subsystems), *ids]:
            assert not assert_walk_takes_the_greedy_order(monkeypatch, adj, [cv_mask[i] for i in keep]), css.name
    assert loops > 100


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(grouped_graphs_and_ids())
def test_walk_takes_the_greedy_order_on_grouped_graphs(graph):
    adj, groups, ids = graph
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_walk_takes_the_greedy_order(monkeypatch, adj, [groups[g] for g in sorted(ids)])


@pytest.mark.parametrize("side", [4, 8])
def test_walk_past_its_cap_stops_on_the_greedy_order(side, monkeypatch):
    """With the cap at 5 states, the walk over a grid graph stops after a
    prefix of the greedy order: on 16 groups it reads the table, on 64 it
    raises."""
    adj = SimpleGraph(side * side, tuple(
        (v, u) for v in range(side * side) for u in (v + 1, v + side) if u < side * side and (u == v + side or u % side)
    )).neighbor_masks
    monkeypatch.setattr(masks, "MAX_WALK_STATES", 5)
    assert assert_walk_takes_the_greedy_order(monkeypatch, adj, singletons(side * side))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(grouped_graphs())
def test_component_counts_match_bfs(graph):
    adj, groups = graph
    assert component_counts(adj, groups).tolist() == bfs_counts(adj, groups)


def small_blocks(monkeypatch, block_bits=3):
    """Walk the subsets in blocks of 2^block_bits, so that a graph of a few
    groups is walked over several blocks."""
    monkeypatch.setattr(masks, "BLOCK_BITS", block_bits)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(grouped_graphs())
def test_small_block_walk_matches_bfs(graph):
    adj, groups = graph
    with pytest.MonkeyPatch.context() as monkeypatch:
        small_blocks(monkeypatch)
        assert _walk_components(adj, groups).tolist() == bfs_counts(adj, groups)


def ring_with_chords(n):
    """A cycle on vertices 0..n-1 with chords from vertex 0 to every third vertex."""
    return neighbor_masks(n, [(v, (v + 1) % n) for v in range(n)] + [(0, v) for v in range(3, n - 1, 3)])


#: the block size in bits for the walks below: n = M groups fill one block
M = 12


@pytest.mark.parametrize("at", ["top", "middle"])
def test_walk_copies_the_block_below_an_empty_group(at, monkeypatch):
    """In blocks of 2^M subsets, groups M and M + 1 pick the block.  One of
    them is empty, so each block with it has the counts of the block
    without it."""
    small_blocks(monkeypatch, M)
    adj = ring_with_chords(M + 1)
    groups = singletons(M + 1)
    empty = M + (at == "top")
    groups.insert(empty, 0)
    table = _walk_components(adj, groups)
    assert table.tolist() == bfs_counts(adj, groups)
    halves = table.reshape(-1, 2, 1 << empty)
    assert np.array_equal(halves[:, 1], halves[:, 0])


@pytest.mark.parametrize("n", [M, M + 1], ids=["n=m", "n=m+1"])
def test_walk_with_split_groups_matches_bfs(n, monkeypatch):
    """In blocks of 2^m subsets, m = M: n = m groups fill one block, m + 1
    two.  Group n - 1 holds vertex n - 1 of a chorded cycle and a vertex n
    hanging off vertex 0 alone: without group 0 they are two components.
    Group 1 holds vertex 1 and a vertex n + 1 joined to vertices 5 and 9."""
    small_blocks(monkeypatch, M)
    adj = ring_with_chords(n) + [0, 0]
    for u, v in [(n, 0), (n + 1, 5), (n + 1, 9)]:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    groups = singletons(n)
    groups[n - 1] |= 1 << n
    groups[1] |= 1 << n + 1
    assert _walk_components(adj, groups).tolist() == bfs_counts(adj, groups)


@pytest.mark.parametrize("n_vertices", [48, 80], ids=["uint64", "python-int"])
def test_walk_on_wide_masks_matches_bfs(n_vertices, monkeypatch):
    """Seeded graphs of 48 and 80 vertices dealt into 7 groups, split ones
    included, walked over several blocks."""
    small_blocks(monkeypatch)
    rng = random.Random(n_vertices)
    edges = [(u, v) for u in range(n_vertices) for v in range(u + 1, n_vertices) if rng.random() < 2.5 / n_vertices]
    owner = [v % 7 for v in range(n_vertices)]
    rng.shuffle(owner)
    groups = [sum(1 << v for v in range(n_vertices) if owner[v] == g) for g in range(7)]
    adj = neighbor_masks(n_vertices, edges)
    assert _walk_components(adj, groups).tolist() == bfs_counts(adj, groups)


def test_six_hole_sampled_masks():
    css = builders.six_hole_eighteen()
    topo = UnionTopology(css)
    rng = random.Random(5)
    masks = [rng.randrange(1, 1 << 18) for _ in range(40)]
    masks += [1, (1 << 18) - 1, 0b101, 0b111111]
    for mask in masks:
        region = union_region(css, mask)
        assert topo.j_table[mask].item() == boundary_component_count(region)
        assert topo.boundary_links_table[mask].item() == perimeter_links(region)


def test_subsystem_cap():
    labels = tuple(range(25))
    css = GridCss(25, 1, labels)
    with pytest.raises(TooManySubsystems):
        UnionTopology(css).j_table


#: every UnionTopology table indexed by subset mask (2^N entries)
SUBSET_TABLES = ("masks", "popcounts", "signs", "euler_table",
                 "boundary_links_table", "component_table", "j_table")


def test_cap_guards_every_subset_table(monkeypatch):
    """Each 2^N table raises above the cap; the cell-component graph does not.
    A table without the guard builds 32 entries here and fails, not 2^30."""
    monkeypatch.setattr("topomi.masks.MAX_SUBSYSTEMS", 4)
    topo = UnionTopology(builders.annulus(5))
    for table in SUBSET_TABLES:
        with pytest.raises(TooManySubsystems, match="5 subsystems exceed the cap of 4"):
            getattr(topo, table)
    adj, groups, n_vertices = topo._cell_component_graph
    assert len(groups) == n_vertices == len(adj) == 5


def plain_subset_sums(table):
    """One ``view[:, 1, :] += view[:, 0, :]`` per bit, on a copy: the reference pass."""
    table = table.copy()
    for i in range(len(table).bit_length() - 1):
        view = table.reshape(-1, 2, 1 << i)
        view[:, 1, :] += view[:, 0, :]
    return table


@pytest.mark.parametrize("n", range(11))
def test_subset_sums_match_brute_force(n):
    """In place, in int32, int64 and float64, for the long-axis passes of
    bits 1 and 2 and every other bit."""
    rng = np.random.default_rng(n)
    for dtype in (np.int32, np.int64, np.float64):
        if dtype is np.float64:
            table = rng.normal(size=1 << n)
        else:
            table = rng.integers(-50, 50, size=1 << n).astype(dtype)
        given = table.tolist()
        expected = [sum(given[q] for q in range(1 << n) if q & s == q) for s in range(1 << n)]
        out = subset_sums(table)
        assert out is table
        assert out.dtype == dtype
        if dtype is np.float64:
            # the brute-force sum adds in another order; the plain pass adds in the same one
            np.testing.assert_allclose(out, expected, rtol=0, atol=1e-9)
            assert out.tobytes() == plain_subset_sums(np.array(given)).tobytes()
        else:
            assert out.tolist() == expected, dtype


def spy_row_passes(monkeypatch) -> list:
    """Record the (shape, bits) of every ``masks._bit_passes`` call; a 2-D
    shape is the passes below ROW_BITS on one run of live rows."""
    calls = []
    bit_passes = masks._bit_passes

    def spy(table, bits):
        calls.append((table.shape, bits))
        return bit_passes(table, bits)

    monkeypatch.setattr(masks, "_bit_passes", spy)
    return calls


def spy_live_rows(monkeypatch) -> list:
    """Record the live rows (of 2^ROW_BITS entries) of each table that
    ``masks.subset_sums`` is given, as a set of row numbers."""
    seen = []
    subset_sums = masks.subset_sums

    def spy(table):
        seen.append(set(np.flatnonzero(table.reshape(-1, 1 << ROW_BITS).any(axis=1)).tolist()))
        return subset_sums(table)

    monkeypatch.setattr(masks, "subset_sums", spy)
    return seen


def high_pass_additions(calls, n) -> list[int]:
    """Entries added by the recorded passes for each bit from ROW_BITS up."""
    return [sum(rows * size // 2 for (rows, size), bits in calls if bits == range(i, i + 1))
            for i in range(ROW_BITS, n)]


def expected_high_additions(live: set[int], n) -> list[int]:
    """What the passes above ROW_BITS should add, from the live rows alone:
    the pass for bit ROW_BITS + k adds the 2^k rows of each block's half
    without bit k when that half holds a live row, and then each row with
    bit k is live if the row without it was."""
    added = []
    for k in range(n - ROW_BITS):
        sources = {row >> k + 1 for row in live if not row >> k & 1}
        added.append(len(sources) << k + ROW_BITS)
        live = live | {row | 1 << k for row in live}
    return added


@pytest.mark.parametrize("n", range(ROW_BITS + 1, ROW_BITS + 5))
def test_subset_sums_row_path_matches_plain_pass(n, monkeypatch):
    """Tables with no, one, a few scattered, 1/8, one more than 1/8 and all
    of their rows of 2^ROW_BITS entries live: int32, int64 and float64 all
    take the row path, and each equals the plain pass byte for byte.  The
    passes above ROW_BITS add just the blocks that the live rows predict: fewer entries than the whole table when
    fewer than half the rows are live, and every entry, one whole-table
    pass per bit, when all are."""
    calls = spy_row_passes(monkeypatch)
    n_rows = 1 << n - ROW_BITS
    rng = np.random.default_rng(n)
    for count in sorted({0, 1, min(3, n_rows), n_rows // 8, n_rows // 8 + 1, n_rows}):
        live = rng.choice(n_rows, count, replace=False)
        for dtype in (np.int32, np.int64, np.float64):
            rows = np.zeros((n_rows, 1 << ROW_BITS), dtype=dtype)
            if dtype is np.float64:
                rows[live] = rng.normal(size=(count, 1 << ROW_BITS))
            else:
                rows[live] = rng.integers(-50, 50, size=(count, 1 << ROW_BITS))
            rows[live, rng.integers(1 << ROW_BITS, size=count)] = 7  # no live row is all zero
            table = rows.reshape(-1)
            want = plain_subset_sums(table)
            calls.clear()
            out = subset_sums(table)
            assert out is table
            assert out.tobytes() == want.tobytes(), (count, dtype)
            runs = [shape for shape, bits in calls if bits == range(ROW_BITS)]
            assert sum(rows for rows, _ in runs) == count
            added = high_pass_additions(calls, n)
            assert all(bits == range(ROW_BITS) or len(bits) == 1 and bits[0] >= ROW_BITS for _, bits in calls)
            assert added == expected_high_additions(set(live.tolist()), n), (count, dtype)
            if count < n_rows // 2:
                assert sum(added) < (n - ROW_BITS) << n - 1, (count, dtype)
            if count == n_rows:
                assert calls[len(runs):] == [((1 << n - i - 1, 2 << i), range(i, i + 1))
                                             for i in range(ROW_BITS, n)]


def test_subset_sums_allocate_no_table():
    """The passes on a 2^20 int32 table (4 MB) stay in place: no transposed
    copy.  With every other row live, the row path copies no row."""
    table = np.ones(1 << 20, dtype=np.int32)
    tracemalloc.start()
    try:
        subset_sums(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert table[-1] == 1 << 20

    rows = np.zeros((1 << 20 - ROW_BITS, 1 << ROW_BITS), dtype=np.int32)
    rows[::2] = 1
    table = rows.reshape(-1)
    want = plain_subset_sums(table)
    tracemalloc.start()
    try:
        subset_sums(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 18, peak  # a copy of the live rows would be 2 MB
    assert np.array_equal(table, want)


def full_set_weight(css):
    """Corners minus segments plus cells whose surrounding cells carry every subsystem."""
    everyone = set(range(css.n_subsystems))

    def count(cells_of, xs, ys):
        return sum({css.label_at(*c) for c in cells_of(x, y)} >= everyone for x in xs for y in ys)

    w, h = range(css.width), range(css.height)
    wide, tall = range(css.width + 1), range(css.height + 1)
    corners = count(lambda x, y: ((x - 1, y - 1), (x, y - 1), (x - 1, y), (x, y)), wide, tall)
    horizontal = count(lambda x, y: ((x, y - 1), (x, y)), w, tall)
    vertical = count(lambda x, y: ((x - 1, y), (x, y)), wide, h)
    cells = count(lambda x, y: ((x, y),), w, h)
    return corners - horizontal - vertical + cells


def test_alternating_euler_sum_is_full_set_weight():
    # sum_S (-1)^(|S|-1) [S meets U] is 1 for U = everything and 0 otherwise
    for css in fuzzed_cases():
        topo = UnionTopology(css)
        assert int(subset_signs(css.n_subsystems) @ topo.euler_table) == full_set_weight(css)


# ----------------------------------------------------------------------
# the connected-set identity: an independent oracle for the component table
# ----------------------------------------------------------------------

def connected_sets(adj):
    """Every connected vertex set of the graph, as a bitmask, once each.

    Each set is grown from its lowest vertex; a branch either takes the
    lowest candidate next to the set or bans it for the rest of the branch.
    """
    out = []

    def grow(s, candidates, banned):
        out.append(s)
        while candidates:
            v = candidates & -candidates
            candidates ^= v
            grow(s | v, (candidates | adj[v.bit_length() - 1]) & ~(s | v | banned), banned)
            banned |= v

    for root in range(len(adj)):
        below = (1 << root) - 1
        grow(1 << root, adj[root] & ~below, below)
    return out


def _or_over(mask, values):
    """The OR of ``values[v]`` over the set bits v of ``mask``."""
    return functools.reduce(operator.or_, (x for v, x in enumerate(values) if mask >> v & 1), 0)


def connected_set_terms(adj, groups):
    """(g(T), g(N(T))) -> how many connected sets T have them, over the T
    with g(T) and g(N(T)) disjoint; g maps vertices to their groups' bits."""
    group_bit = [sum(1 << g for g, mask in enumerate(groups) if mask >> v & 1) for v in range(len(adj))]
    terms = Counter()
    for t in connected_sets(adj):
        inside, near = _or_over(t, group_bit), _or_over(_or_over(t, adj) & ~t, group_bit)
        if not inside & near:
            terms[inside, near] += 1
    return terms


def connected_set_counts(n, terms):
    """c(S) = sum over connected T of [g(T) in S][g(N(T)) disjoint from S], per
    subset S of n groups: a component of S's subgraph is a connected set
    inside S whose neighbours all lie outside it."""
    masks = np.arange(1 << n)
    out = np.zeros(1 << n, dtype=np.int64)
    for (inside, near), count in terms.items():
        out += count * (((masks & inside) == inside) & ((masks & near) == 0))
    return out


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(grouped_graphs())
def test_connected_set_sum_matches_component_counts_on_grouped_graphs(graph):
    adj, groups = graph
    counts = connected_set_counts(len(groups), connected_set_terms(adj, groups))
    assert counts.tolist() == component_counts(adj, groups).tolist()


def test_connected_set_sum_matches_tables_at_junctions(junction_css):
    """On the junction CSS and the fuzzed ones with a split subsystem, the
    connected-set c(S) is the component table, and with M the alternating
    sum of C^N, C^N = 2 M(c) - M(chi_S) is ``CssAnalysis.c_n``."""
    n_split = 0
    for css in [*junction_css, *fuzzed_cases()[25:]]:
        analysis = CssAnalysis(css)
        adj, groups, _ = analysis._cell_component_graph
        counts = connected_set_counts(css.n_subsystems, connected_set_terms(adj, groups))
        assert np.array_equal(counts, analysis.component_table), css
        signs = subset_signs(css.n_subsystems)
        assert 2 * int(signs @ counts) - int(signs @ analysis.euler_table) == analysis.c_n, css
        n_split += len(adj) > css.n_subsystems
    assert n_split == 20


#: seed of the ``junction_css`` fixture -> C^N: every hole is ringed by a
#: cycle, no hole loop holds all N subsystems, yet C^N != 0
JUNCTION_SEEDS = {30: -2, 79: -2, 92: -2, 118: 2, 139: 2, 148: -2, 280: 2, 299: 2}


@pytest.mark.parametrize("seed", sorted(JUNCTION_SEEDS))
def test_junction_c_n_is_one_signed_connected_set_term(seed, junction_css):
    """C^N = 2 (-1)^(N-1) sum_T (-1)^|g(N(T))| - M(chi_S) over the connected
    sets with g(T) and g(N(T)) splitting the N subsystems between them: on
    these CSS the sum is +-1, though no ring of all N subsystems exists."""
    analysis = CssAnalysis(junction_css[seed])
    n = analysis.css.n_subsystems
    loops = analysis.hole_loops
    assert loops and all(isinstance(loop, tuple) and len(loop) < n for loop in loops)
    adj, groups, _ = analysis._cell_component_graph
    signed = sum(
        count * (-1) ** near.bit_count()
        for (inside, near), count in connected_set_terms(adj, groups).items()
        if inside | near == (1 << n) - 1
    )
    m_chi = int(subset_signs(n) @ analysis.euler_table)
    assert abs(signed) == 1 and m_chi == 0
    assert 2 * (-1) ** (n - 1) * signed - m_chi == analysis.c_n == JUNCTION_SEEDS[seed]
