"""The induced-subgraph invariant and its bridge to subsystem counting."""

import itertools
import random
import re
import time
from collections import Counter

import numpy as np
import pytest

from topomi import builders, graphs, masks, walk
from topomi.engine import CssAnalysis
from topomi.errors import ParseError, PreconditionViolated, TooManySubsystems, ValidationError
from topomi.graphs import (
    SimpleGraph,
    parse_graph_json,
    parse_graph_text,
    rho,
    sigma_of_css,
)
from topomi.grid import MAX_VERTICES, GridCss, adjacency_graph, count_components, parse_ascii, set_bits
from topomi.masks import UnionTopology, subset_signs

from oracle_reference import cycle_graph, path_graph
from test_engine import brick_css


def brute_rho(graph):
    """Direct itertools enumeration, independent of the bitmask walk."""
    vertices = range(graph.vertex_count)
    adjacency = {v: set() for v in vertices}
    for i, j in graph.edges:
        adjacency[i].add(j)
        adjacency[j].add(i)

    def components(subset):
        subset = set(subset)
        count = 0
        while subset:
            stack = [subset.pop()]
            while stack:
                v = stack.pop()
                for w in adjacency[v] & subset:
                    subset.discard(w)
                    stack.append(w)
            count += 1
        return count

    total = 0
    for size in range(1, graph.vertex_count):
        for subset in itertools.combinations(vertices, size):
            total += (-1) ** size * components(subset)
    return total


def test_rho_paths_and_cycles():
    """rho(P_n) = (-1)^(n-1) from n = 3 on; P_1 has no nontrivial induced
    subgraph and P_2 has two single vertices, as the brute force agrees."""
    for n, want in ((1, 0), (2, -2)):
        assert rho(path_graph(n)) == brute_rho(path_graph(n)) == want, n
    for n in range(3, 13):
        assert rho(path_graph(n)) == (-1) ** (n - 1), n
        assert rho(cycle_graph(n)) == 0, n


def test_rho_paths_and_cycles_extended():
    for n in (14, 16):
        assert rho(path_graph(n)) == (-1) ** (n - 1)
        assert rho(cycle_graph(n)) == 0


def test_rho_edge_plus_isolated_vertex():
    graph = SimpleGraph(3, ((0, 1),))
    # six nontrivial induced subgraphs: sizes 1 give -3; size 2 gives
    # +(1 + 2 + 2); total 2.  The brute enumeration agrees.
    assert brute_rho(graph) == 2
    assert rho(graph) == 2


def test_rho_matches_brute_force_on_small_graphs():
    cases = [
        SimpleGraph(4, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2))),  # chorded cycle
        SimpleGraph(5, ((0, 1), (0, 2), (0, 3), (0, 4))),  # star
        SimpleGraph(6, ((0, 1), (2, 3), (4, 5))),  # matching
        SimpleGraph(5, ()),  # empty graph
    ]
    for graph in cases:
        assert rho(graph) == brute_rho(graph)


def chorded_cycle(n: int) -> SimpleGraph:
    """The n-cycle plus the chord (0, n // 2): one block that is not a cycle."""
    return SimpleGraph(n, (*cycle_graph(n).edges, (0, n // 2)))


def test_rho_guard(monkeypatch):
    """rho needs no table on a long cycle or path; the table cap guards only
    the table, read when the frontier walk of a block with a chord passes
    its state cap.  A cycle is read in closed form under any cap."""
    assert rho(cycle_graph(40)) == 0
    assert rho(path_graph(40)) == -1
    assert rho(SimpleGraph(21, ())) == 21  # (-1)^(v-1) v on v isolated vertices
    walked = rho(chorded_cycle(20))
    # the signed sum is 0 (the outer cycle cancels the whole graph), so rho is -(-1)^v
    assert walked == brute_rho(chorded_cycle(8)) == -1
    monkeypatch.setattr("topomi.walk.MAX_WALK_STATES", 1)
    assert rho(chorded_cycle(20)) == walked  # from the table
    with pytest.raises(TooManySubsystems, match="cap of 1 states.*cap of 24"):
        rho(chorded_cycle(25))
    for cap in (0, 1):
        monkeypatch.setattr("topomi.walk.MAX_WALK_STATES", cap)
        assert rho(cycle_graph(25)) == 0


def union_find_components(v: int, edges, keep) -> int:
    """Components of the subgraph that the vertices ``keep`` induce, by a
    union-find over the edges with both ends kept."""
    keep = set(keep)
    root = {u: u for u in keep}

    def find(u):
        while root[u] != u:
            root[u] = root[root[u]]
            u = root[u]
        return u

    for i, j in edges:
        if i in keep and j in keep:
            root[find(i)] = find(j)
    return len({find(u) for u in keep})


def random_graph(rng: random.Random, v: int) -> SimpleGraph:
    """A seeded graph on v vertices: a forest, or each pair an edge with a
    drawn density, isolated vertices included."""
    if rng.random() < 0.3:  # a forest: each vertex but the roots hangs from an earlier one
        edges = [(rng.randrange(u), u) for u in range(1, v) if rng.random() < 0.8]
    else:
        p = rng.choice([0.05, 0.15, 0.3, 0.6])
        edges = [pair for pair in itertools.combinations(range(v), 2) if rng.random() < p]
    return SimpleGraph(v, tuple(edges))


def test_count_components_matches_a_union_find():
    """``grid.count_components`` over a graph's neighbour sets equals a
    union-find on seeded random graphs, forests and isolated vertices
    included, and random kept vertex subsets, the empty one among them."""
    rng = random.Random(48)
    checked = Counter()
    for _ in range(300):
        graph = random_graph(rng, rng.randint(1, 40))
        v = graph.vertex_count
        near = [set(set_bits(mask)) for mask in graph.neighbor_masks]
        for keep in (range(v), rng.sample(range(v), rng.randint(0, v)), []):
            got = count_components(near, keep)
            assert got == union_find_components(v, graph.edges, keep), (graph, keep)
            checked[min(got, 3)] += 1
    assert checked[0] >= 300 and checked[1] > 100 and checked[3] > 200, checked


def is_two_connected(graph: SimpleGraph) -> bool:
    """At least three vertices, connected, and still connected with any one
    vertex removed, by the union-find."""
    v = graph.vertex_count
    return v >= 3 and all(union_find_components(v, graph.edges, set(range(v)) - {cut}) == 1
                          for cut in [None, *range(v)])


def test_rho_of_a_graph_that_is_not_two_connected():
    """With v >= 3 vertices and no block holding every vertex, the signed
    component sum over every vertex set is 0, so rho = -(-1)^v c(G): on
    every graph of 3 to 5 vertices that is not 2-connected, and on seeded
    random ones of up to 16, disconnected graphs and forests included.
    This checks the block split against a union-find, with no walk."""
    graphs_ = [SimpleGraph(v, edges) for v in (3, 4, 5)
               for k in range(v * (v - 1) // 2 + 1)
               for edges in itertools.combinations(itertools.combinations(range(v), 2), k)]
    rng = random.Random(49)
    graphs_ += [random_graph(rng, rng.randint(3, 16)) for _ in range(300)]
    checked = Counter()
    for graph in graphs_:
        if is_two_connected(graph):
            continue
        v = graph.vertex_count
        c = union_find_components(v, graph.edges, range(v))
        assert rho(graph) == -(-1) ** v * c, graph
        checked[min(c, 2)] += 1
    assert checked[1] > 500 and checked[2] > 500, checked


def test_rho_of_a_long_path():
    """The blocks are found in one depth-first pass, not in one round per
    pair of path ends: a 10 000-vertex path answers at once."""
    start = time.perf_counter()
    assert rho(path_graph(10_000)) == -1
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("graph", [cycle_graph, path_graph])
def test_rho_at_the_vertex_cap(graph):
    """The block pass is iterative: a cycle (one block, read in closed form)
    and a path (no block with a cycle) of ``grid.MAX_VERTICES`` vertices
    answer within a second, with no RecursionError."""
    big = graph(MAX_VERTICES)
    start = time.perf_counter()
    assert rho(big) == (0 if graph is cycle_graph else -1)
    assert time.perf_counter() - start < 1


def test_rho_of_a_grid_graph_gives_up_at_once():
    """The 128x128 grid graph passes the walk's state cap within its first
    rows: rho stops at that step, with no whole-graph vertex order built
    first, and raises naming both caps."""
    side = 128
    graph = SimpleGraph(side * side, tuple(
        (v, u) for v in range(side * side) for u in (v + 1, v + side) if u < side * side and (u == v + side or u % side)
    ))
    start = time.perf_counter()
    with pytest.raises(TooManySubsystems, match="exceeds its cap of 4096 states, and 16384 groups exceed the "
                                                "table's cap of 24"):
        rho(graph)
    assert time.perf_counter() - start < 3


def complete_graph(v):
    return SimpleGraph(v, tuple(itertools.combinations(range(v), 2)))


@pytest.mark.installed
def test_rho_of_complete_graphs_up_to_the_table_cap():
    """Every induced subgraph of K_v is connected, so rho = -1 - (-1)^v.  The
    walk's states double with each vertex, so from K_13 on rho is read from
    the induced component table, up to its cap of 24 vertices; K_25 raises
    at once, naming both caps."""
    for v in range(12, 22):
        assert rho(complete_graph(v)) == -1 - (-1) ** v, v
    # the walk over K_22 holds 2^k states after k vertices and passes its
    # cap of 4096 at the 13th; rho is then read from the 2^22 induced
    # component table (about 0.5 s on a 2-core VM)
    start = time.perf_counter()
    assert rho(complete_graph(22)) == -2
    assert time.perf_counter() - start < 10
    start = time.perf_counter()
    with pytest.raises(TooManySubsystems, match="25 groups exceeds its cap of 4096 states, and 25 groups exceed "
                                                "the table's cap of 24"):
        rho(complete_graph(25))
    assert time.perf_counter() - start < 1


def test_induced_component_table_cap():
    """25 vertices exceed the table's cap of 24: the induced component table
    raises before it allocates its 2^25 entries."""
    start = time.perf_counter()
    with pytest.raises(TooManySubsystems, match="^25 groups exceed the table's cap of 24$"):
        masks.component_counts(cycle_graph(25).neighbor_masks, [1 << i for i in range(25)])
    assert time.perf_counter() - start < 1


def test_induction_contributions_by_subgraph_type():
    """Tag the nontrivial induced subgraphs of P_{n+1} by how they use the
    last two vertices; the three buckets must satisfy the bookkeeping
    identities type(b) = -beta and type(c) = (-1)^n - alpha."""
    for n in range(3, 10):
        big = path_graph(n + 1)
        adjacency = {v: set() for v in range(n + 1)}
        for i, j in big.edges:
            adjacency[i].add(j)
            adjacency[j].add(i)

        def components(subset):
            subset = set(subset)
            count = 0
            while subset:
                stack = [subset.pop()]
                while stack:
                    v = stack.pop()
                    for w in adjacency[v] & subset:
                        subset.discard(w)
                        stack.append(w)
                count += 1
            return count

        contrib = {"a": 0, "b": 0, "c": 0}
        for size in range(1, n + 1):
            for subset in itertools.combinations(range(n + 1), size):
                chosen = set(subset)
                sign = (-1) ** size
                value = sign * components(chosen)
                if n not in chosen:
                    kind = "a"
                elif n - 1 in chosen:
                    kind = "b"
                else:
                    kind = "c"
                contrib[kind] += value

        # beta: contribution of nontrivial induced subgraphs of P_n through
        # the last vertex; alpha: all nontrivial induced subgraphs of P_{n-1}
        beta = 0
        for size in range(1, n):
            for subset in itertools.combinations(range(n), size):
                if n - 1 in subset:
                    beta += (-1) ** size * components(set(subset))
        alpha = 0
        for size in range(1, n - 1):
            for subset in itertools.combinations(range(n - 1), size):
                alpha += (-1) ** size * components(set(subset))

        assert contrib["b"] == -beta, n
        assert contrib["c"] == (-1) ** n - alpha, n
        assert contrib["a"] + contrib["b"] + contrib["c"] == rho(big), n


def test_disjoint_union_components_split():
    g1 = cycle_graph(4)
    g2 = path_graph(3)
    edges = list(g1.edges) + [(i + 4, j + 4) for i, j in g2.edges]
    both = SimpleGraph(7, tuple(edges))
    tables = {id(g): masks.component_counts(g.neighbor_masks, [1 << i for i in range(g.vertex_count)])
              for g in (g1, g2, both)}

    def components(graph, subset):
        mask = 0
        for v in subset:
            mask |= 1 << v
        return int(tables[id(graph)][mask])

    for size in range(1, 7):
        for subset in itertools.combinations(range(7), size):
            left = [v for v in subset if v < 4]
            right = [v - 4 for v in subset if v >= 4]
            total = components(both, subset)
            split = (components(g1, left) if left else 0) + (
                components(g2, right) if right else 0
            )
            assert total == split


def test_graph_table_matches_css_component_table():
    """On CSS whose subsystems are each one cell-component, the union of a
    subset has as many components as its induced adjacency subgraph."""
    rng = random.Random(31)
    for _ in range(20):
        css = builders.random_css(rng, rng.randint(2, 8), width=9, height=9)
        topo = UnionTopology(css)
        assert topo._cell_component_graph[2] == css.n_subsystems
        graph_table = masks.component_counts(adjacency_graph(css).neighbor_masks,
                                             [1 << i for i in range(css.n_subsystems)])
        assert graph_table.tolist() == topo.component_table.tolist()


@pytest.mark.installed
def test_sigma_of_css_families():
    for n in range(3, 8):
        assert sigma_of_css(builders.annulus(n)) == -rho(cycle_graph(n))
    for n in [*range(3, 8), 21, 22]:
        assert sigma_of_css(builders.open_chain(n)) == -rho(path_graph(n)) == (-1) ** n
    # past the table cap of 24 subsystems: the precondition is read from the
    # labelling and C^N is walked, with no 2^N table
    start = time.perf_counter()
    for n in (32, 48):
        assert sigma_of_css(builders.open_chain(n)) == (-1) ** n
    assert sigma_of_css(builders.annulus(48)) == 0
    assert time.perf_counter() - start < 1.0


@pytest.mark.installed
def test_sigma_above_the_cap_names_the_failed_condition():
    """Above the table cap a failed precondition is a PreconditionViolated
    naming the hole, not a TooManySubsystems."""
    css = builders.annulus_with_island(30)  # the ring's hole is not walled by the island
    with pytest.raises(PreconditionViolated) as err:
        sigma_of_css(css)
    assert str(err.value) == ("hole 1 of 1 (column 1, row 1) is not walled by subsystem 29 "
                              "(a subsystem or proper union is not a disk arrangement)")


@pytest.mark.parametrize("rows, fault", [
    (["ABA"], "subsystem 0 has more than one component"),
    (["AAA", "ABA", "AAA"], "subsystem 1 does not wall the outside"),
    (["AAAC", "A.AC", "AAAC", "BBBB"], "hole 1 of 1 (column 1, row 1) is not walled by subsystem 1"),
], ids=["split", "enclosed", "hole"])
def test_sigma_names_each_condition_past_the_cap(rows, fault):
    """Each of conditions (a)-(c) is named as it is above the table cap."""
    css = parse_ascii("\n".join(rows))
    assert graphs.disk_arrangement_fault(css) == fault
    with pytest.raises(PreconditionViolated) as err:
        sigma_of_css(css)
    assert str(err.value) == f"{fault} (a subsystem or proper union is not a disk arrangement)"


def test_sigma_open_chain_combines_to_zero_connectivity():
    from topomi.engine import connectivity_count

    css = builders.open_chain(4)
    sigma = sigma_of_css(css)
    assert sigma == 1
    j_full = int(connectivity_count(css).tables.j_table[-1])
    assert sigma + (-1) ** 3 * j_full == 0


def test_sigma_star_hub():
    # fat hub with three petals; adjacency graph is the star S_3
    css = parse_ascii("\n".join([
        ".BB.",
        ".AA.",
        "CAAD",
        "CAAD",
    ]))
    graph = SimpleGraph(css.n_subsystems, adjacency_graph(css).edges)
    assert graph.edges == ((0, 1), (0, 2), (0, 3))
    assert sigma_of_css(css) == -brute_rho(graph)


def test_sigma_names_the_hole_below_the_cap():
    """The hole between A, B and C is not walled by D: {A, B, C} encloses it."""
    with pytest.raises(PreconditionViolated) as err:
        sigma_of_css(builders.two_hole_five())
    assert str(err.value) == ("hole 1 of 2 (column 1, row 1) is not walled by subsystem 3 "
                              "(a subsystem or proper union is not a disk arrangement)")


def test_graph_validation_and_parsing():
    with pytest.raises(ValidationError):
        SimpleGraph(3, ((0, 0),))
    with pytest.raises(ValidationError):
        SimpleGraph(3, ((0, 1), (1, 0)))
    with pytest.raises(ValidationError):
        SimpleGraph(2, ((0, 5),))
    for v in (MAX_VERTICES + 1, 10**30):  # before any mask is built
        with pytest.raises(TooManySubsystems, match=f"^{v} vertices exceed the graph cap of {MAX_VERTICES}$"):
            SimpleGraph(v, ((0, 1),))
    graph = parse_graph_json({"v": 3, "edges": [[2, 0]]})
    assert graph.edges == ((0, 2),)
    graph = parse_graph_text("0 1\n1 2\n")
    assert graph.vertex_count == 3
    with pytest.raises(ParseError):
        parse_graph_text("0 1 2\n")
    # lines are numbered as in the file, from 1, comments and blank lines counted
    with pytest.raises(ParseError, match="^line 4: "):
        parse_graph_text("# c\n\n0 1\n1 x\n")
    with pytest.raises(ParseError, match="^line 1: expected 'i j'"):
        parse_graph_text("0\n")
    # a vertex id is a run of ASCII digits: no sign, separator, point or other script
    for token in ("1_0", "+1", "-1", "\u0661", "1.0"):
        with pytest.raises(ParseError, match=f"^line 2: vertex id '{re.escape(token)}' is not a run of digits"):
            parse_graph_text(f"0 1\n0 {token}\n")
    with pytest.raises(ParseError):
        parse_graph_json({"edges": []})


def test_graph_vertex_count_and_edge_ends_are_integers():
    """A vertex count or edge end that is no integer, or an edge that is no
    pair, is a ValidationError at construction, not a TypeError or ValueError
    here or in rho (each edge case in the test below); ints, bools and numpy
    integers pass."""
    for args, text in (
        ((2.0, ((0, 1),)), "vertex count must be an integer, got 2.0"),
        ((None, ()), "vertex count must be an integer, got None"),
    ):
        with pytest.raises(ValidationError, match=f"^{re.escape(text)}$"):
            SimpleGraph(*args)
    graph = SimpleGraph(np.int64(3), ((np.int32(2), True),))
    assert graph == SimpleGraph(3, ((1, 2),))
    assert {type(graph.vertex_count), *(type(end) for edge in graph.edges for end in edge)} == {int}
    assert rho(graph) == rho(SimpleGraph(3, ((1, 2),)))


@pytest.mark.parametrize("args, want", [
    ((3, ((np.int64(0), np.int32(1)), (np.uint8(2), np.int16(1)))), ((0, 1), (1, 2))),
    ((3, ((True, False), (False, 2))), ((0, 1), (0, 2))),
    ((3, ([0, 1], [2, 1])), ((0, 1), (1, 2))),
    ((3, ((0, 1), [1, 2])), ((0, 1), (1, 2))),
    ((3, [(0, 1), (2, 1)]), ((0, 1), (1, 2))),
    ((4, ((3, 0), (2, 1), (1, 0))), ((0, 1), (0, 3), (1, 2))),
    ((3, ()), ()),
    ((3, ((1, 2), (2, 1))), "duplicate edge (1, 2)"),
    ((3, ((0, 1), (1, 2), (0, 1))), "duplicate edge (0, 1)"),
    ((3, ((1, 1),)), "self-loop at vertex 1"),
    ((3, ((0, 1), (2, 2))), "self-loop at vertex 2"),
    ((3, ((True, 1),)), "self-loop at vertex 1"),
    ((3, ((0, 3),)), "edge (0, 3) out of range"),
    ((3, ((-1, 0),)), "edge (-1, 0) out of range"),
    ((3, ((0, 1, 2),)), "edge (0, 1, 2) is not a pair of vertex ids"),
    ((3, ((0,),)), "edge (0,) is not a pair of vertex ids"),
    ((3, (5,)), "edge 5 is not a pair of vertex ids"),
    ((3, (None,)), "edge None is not a pair of vertex ids"),
    ((3, ("01",)), "an edge end must be an integer, got '0'"),
    ((3, (("0", 1),)), "an edge end must be an integer, got '0'"),
    ((3, ((0, "1"),)), "an edge end must be an integer, got '1'"),
    ((3, ((None, 1),)), "an edge end must be an integer, got None"),
    ((3, ((0, 1.5),)), "an edge end must be an integer, got 1.5"),
])
def test_graph_fast_path_keeps_the_boundary(args, want):
    """Tuples of two distinct in-range ``int`` ends take a fast path in
    ``SimpleGraph``; every other input builds the same sorted edges as the
    checking loop, or raises the same ValidationError naming the offender:
    numpy-integer and bool ends, list edges, reversed pairs, repeats either
    way round, self-loops, out-of-range ends, 3-tuples, strings, floats and
    None."""
    if isinstance(want, str):
        with pytest.raises(ValidationError) as err:
            SimpleGraph(*args)
        assert str(err.value) == want
    else:
        graph = SimpleGraph(*args)
        assert graph.edges == want
        assert {type(end) for edge in graph.edges for end in edge} <= {int}


def _signed_proper_sum(table) -> int:
    """The signed-tensordot reference over the proper non-empty masks, in int64."""
    n = len(table).bit_length() - 1
    return int(subset_signs(n)[1:-1].astype(np.int64) @ table[1:-1].astype(np.int64))


def test_rho_and_sigma_match_the_signed_reference():
    rng = random.Random(43)
    for _ in range(40):
        v = rng.randint(1, 12)
        pairs = list(itertools.combinations(range(v), 2))
        graph = SimpleGraph(v, tuple(rng.sample(pairs, rng.randint(0, len(pairs)))))
        table = masks.component_counts(graph.neighbor_masks, [1 << i for i in range(v)])
        assert rho(graph) == -_signed_proper_sum(table), graph
    checked = 0
    for css in [*map(builders.annulus, range(3, 9)), *map(builders.open_chain, range(3, 9)),
                builders.random_css(random.Random(5), 16, 16, 16, growth=40)]:
        analysis = CssAnalysis(css)
        try:
            sigma = sigma_of_css(analysis)
        except PreconditionViolated:
            continue
        assert sigma == _signed_proper_sum(analysis.tables.j_table), css.name
        checked += 1
    assert checked == 13


def test_rho_and_sigma_are_exact_beyond_int32(monkeypatch):
    """Synthetic int32 tables whose alternating sums leave int32.  With the
    walk capped at 0 states, the signed sums of rho and of sigma's C^N are
    read from ``masks.component_counts``, here the synthetic table, as the
    graphs of both are one block that is not a cycle; sigma's J of the full
    set is read from the labelling."""
    n = 10
    table = np.random.default_rng(5).integers(-2**31, 2**31, size=1 << n).astype(np.int32)
    table[0], table[-1] = 0, 1  # a cycle's one component, which rho counts apart
    monkeypatch.setattr(masks, "component_counts", lambda adj, groups: table)
    monkeypatch.setattr(walk, "MAX_WALK_STATES", 0)  # every walk reads the table
    want = sum((-1) ** (mask.bit_count() - 1) * int(table[mask]) for mask in range(1, (1 << n) - 1))
    assert rho(chorded_cycle(n)) == -want == -_signed_proper_sum(table)
    # C^N = -2 s = 2 (want - table[-1]) on 10 two-cell bricks, whose graph is
    # one block with chords, less (-1)^9 J of the full wall, its one component
    assert sigma_of_css(brick_css(5, 2)) == 2 * want - 1


def _sigma_cases(junction_css):
    """Every builder at N = 1-9, three hand-made grids, seeded ``random_css``
    draws of mixed size and growth, the same with the last subsystem
    relabelled as subsystem 0 (split unless they share a wall), and the
    junction fixture."""
    low = {builders.annulus: 3, builders.open_chain: 2, builders.annulus_with_island: 4,
           builders.annulus_with_appendage: 4, builders.annulus_with_punched_hole: 2,
           builders.annulus_with_self_handle: 2, builders.annulus_with_nn_handle: 3}
    cases = [build(n) for build, n0 in low.items() for n in range(n0, 10)]
    cases += [builders.far_handle_annulus(n, span) for n in range(4, 10) for span in range(2, n - 1)]
    cases += [builders.theta_pair(), builders.two_hole_five(), builders.six_hole_eighteen()]
    cases += [parse_ascii(text) for text in ("A", "AAA\nA.A\nAAA", "AAA\nABA\nAAA")]
    rng = random.Random(35)
    for k in range(500):
        css = builders.random_css(rng, rng.randint(1 + (k >= 300), 10), rng.randint(6, 10), rng.randint(6, 10),
                                  growth=rng.choice([0, 20, 80, 300]))
        if k >= 300:
            n = css.n_subsystems
            try:
                css = GridCss(css.width, css.height, tuple(0 if v == n - 1 else v for v in css.labels))
            except ValidationError:  # the merge made a diagonal pinch
                continue
        cases.append(css)
    return [*cases, *junction_css]


def test_disk_arrangement_fault_agrees_with_the_tables(junction_css):
    """The precondition read from the labelling passes exactly where the J
    table equals the induced component table on every proper mask.  Passing
    CSSs give sigma = the signed proper sum of the J table; failing ones
    raise naming the failed condition.  N = 1 always passes."""
    seen = set()
    for css in _sigma_cases(junction_css):
        analysis = CssAnalysis(css)
        n = css.n_subsystems
        h0 = masks.component_counts(analysis.graph.neighbor_masks, [1 << i for i in range(n)])
        bad = np.flatnonzero(analysis.tables.j_table[1:-1] != h0[1:-1])
        fault = graphs.disk_arrangement_fault(css)
        assert (fault is None) == (bad.size == 0), (css.to_ascii(), fault)
        if fault is None:
            assert sigma_of_css(analysis) == _signed_proper_sum(analysis.tables.j_table), css.to_ascii()
        else:
            with pytest.raises(PreconditionViolated) as err:
                sigma_of_css(analysis)
            assert str(err.value) == f"{fault} (a subsystem or proper union is not a disk arrangement)"
        words = (fault or "").split()
        seen.add((min(n, 3), fault and f"{words[0]} {words[2]}"))
    # each condition fails at N = 2 and above, and N = 1, 2 and more pass
    failed = {(n, kind) for n in (2, 3) for kind in ("subsystem has", "subsystem does", "hole of")}
    assert seen >= {(1, None), (2, None), (3, None), *failed}, seen
