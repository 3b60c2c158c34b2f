"""Oracle-vs-engine contracts: exact code entropies against the counting."""

import math
import random
from functools import partial

import pytest

from topomi import builders
from topomi.engine import CssAnalysis, connectivity_count
from topomi.grid import GridCss, OUTSIDE
from topomi.model import EntropyModel
from topomi.scenarios import gallery_dir, load_scenario, scenario_css
from topomi.stabilizer import (
    CodeLattice,
    QubitRegionMap,
    _echelon,
    _overlaps,
    _region_bases,
    _signed_rank_sum,
    build_code,
    entropy_bits,
    multipartite_information_exact,
    rasterize_css,
)

from oracle_reference import (
    flag_overlaps,
    h_edge,
    region_entropy_source,
    region_union,
    strong_subadditivity_combination,
    v_edge,
)

LN2 = math.log(2)


def block(x0, x1, y0, y1):
    return [(x, y) for x in range(x0, x1 + 1) for y in range(y0, y1 + 1)]


def band_css(w, h, arcs, name):
    labels = [OUTSIDE] * (w * h)
    for label, cells in enumerate(arcs):
        for (x, y) in cells:
            labels[y * w + x] = label
    return GridCss(w, h, tuple(labels), name=name)


def torus_skeleton_map():
    """Thin annular 3-region map on the 4x4 torus (32 qubits)."""
    lattice = CodeLattice(4, 4, "torus")
    h, v = partial(h_edge, lattice), partial(v_edge, lattice)
    regions = (
        frozenset({h(0, 1), v(1, 1), v(1, 0), h(2, 2)}),
        frozenset({h(1, 1), h(2, 1), v(2, 0), v(2, 2)}),
        frozenset({v(2, 1), h(1, 2), h(0, 2), v(1, 2)}),
    )
    return lattice, QubitRegionMap(lattice.n_qubits, regions)


def planar_skeleton_map():
    """Thin annular 4-region map on the 5x5 planar patch (40 qubits)."""
    lattice = CodeLattice(5, 5, "planar")
    h, v = partial(h_edge, lattice), partial(v_edge, lattice)
    regions = (
        frozenset({h(0, 1), h(1, 1), v(1, 0)}),
        frozenset({h(2, 1), h(0, 2), v(1, 1)}),
        frozenset({h(2, 2), v(2, 1), v(1, 2)}),
        frozenset({h(1, 2), v(2, 0), v(2, 2)}),
    )
    return lattice, QubitRegionMap(lattice.n_qubits, regions)


def test_minimal_torus_ring_gives_minus_two():
    lattice, region_map = torus_skeleton_map()
    state = build_code(lattice)
    assert multipartite_information_exact(state, region_map) == -2


def test_minimal_planar_ring_gives_plus_two():
    lattice, region_map = planar_skeleton_map()
    state = build_code(lattice)
    assert multipartite_information_exact(state, region_map) == 2


def fat_ring3():
    return band_css(8, 8, [
        block(1, 6, 1, 2),
        block(5, 6, 3, 6),
        block(1, 2, 3, 6) + block(3, 4, 5, 6),
    ], "fat-ring3")


def fat_ring4():
    return band_css(8, 8, [
        block(1, 6, 1, 2),
        block(5, 6, 3, 6),
        block(1, 4, 5, 6),
        block(1, 2, 3, 4),
    ], "fat-ring4")


def test_rasterized_torus_ring_matches_counting():
    css = fat_ring3()
    lattice = CodeLattice(8, 8, "torus")
    state = build_code(lattice)
    exact = multipartite_information_exact(state, rasterize_css(lattice, css))
    assert exact == -connectivity_count(css).c_n == -2


def test_rasterized_planar_ring_matches_counting():
    css = fat_ring4()
    lattice = CodeLattice(9, 9, "planar")
    state = build_code(lattice)
    exact = multipartite_information_exact(state, rasterize_css(lattice, css))
    assert exact == -connectivity_count(css).c_n == 2


def test_rasterized_open_chain_vanishes():
    chain = band_css(8, 8, [
        block(1, 2, 3, 4),
        block(3, 4, 3, 4),
        block(5, 6, 3, 4),
    ], "fat-chain3")
    assert connectivity_count(chain).c_n == 0
    lattice = CodeLattice(9, 9, "planar")
    state = build_code(lattice)
    exact = multipartite_information_exact(state, rasterize_css(lattice, chain))
    assert exact == 0


def test_oracle_ssa_combination():
    lattice, region_map = torus_skeleton_map()
    state = build_code(lattice)
    source = region_entropy_source(state, region_map)
    order = (0, 1, 2)
    value = source(frozenset(order))
    for k in range(3):
        i, j = order[k], order[(k + 1) % 3]
        value += source(frozenset([i])) - source(frozenset([i, j]))
    assert value == pytest.approx(-2 * LN2)
    assert value <= 0


def test_oracle_ssa_via_engine_helper_on_fat_ring():
    css = fat_ring3()
    lattice = CodeLattice(8, 8, "torus")
    state = build_code(lattice)
    region_map = rasterize_css(lattice, css)
    source = region_entropy_source(state, region_map)
    value = strong_subadditivity_combination(css, source)
    assert value == pytest.approx(-2 * LN2)


def test_oracle_agrees_with_model_for_d2():
    """Full-report cross-check: counting I^N equals the oracle for D = 2."""
    css = fat_ring4()
    model = EntropyModel(2.0)
    from topomi.engine import multipartite_information

    report = multipartite_information(model, css)
    lattice = CodeLattice(9, 9, "planar")
    state = build_code(lattice)
    exact = multipartite_information_exact(state, rasterize_css(lattice, css))
    assert report.i_n == pytest.approx(exact * LN2)


def scaled_on_torus(css: GridCss, scale: int = 2, pad: int = 1) -> tuple[CodeLattice, GridCss]:
    """``css`` with each cell scaled to a scale x scale block, ``pad`` empty
    cells around it, on a torus with one face per cell."""
    w, h = css.width * scale + 2 * pad, css.height * scale + 2 * pad
    labels = [OUTSIDE] * (w * h)
    for y in range(css.height * scale):
        for x in range(css.width * scale):
            labels[(y + pad) * w + x + pad] = css.label_at(x // scale, y // scale)
    return CodeLattice(w, h, "torus"), GridCss(w, h, tuple(labels), name=css.name)


def twelve_arc_ring(side: int, scale: int, seed: int) -> GridCss:
    """The 12-arc annulus with each cell scaled to a scale x scale block, its
    ids shuffled and a seeded offset on a side x side grid, as the benchmark's
    oracle workload places it."""
    base = builders.annulus(12)
    rng = random.Random(seed)
    relabel = list(range(12))
    rng.shuffle(relabel)
    ox = rng.randint(0, side - base.width * scale)
    oy = rng.randint(0, side - base.height * scale)
    labels = [OUTSIDE] * (side * side)
    for y in range(base.height * scale):
        for x in range(base.width * scale):
            label = base.label_at(x // scale, y // scale)
            if label != OUTSIDE:
                labels[(oy + y) * side + ox + x] = relabel[label]
    return GridCss(side, side, tuple(labels), name=f"ring-n12-torus{side}")


#: (torus side, cell scale) of the benchmark's two rings
TWELVE_ARC_LATTICES = [(16, 2), (24, 3)]


@pytest.mark.parametrize("side, scale", TWELVE_ARC_LATTICES)
def test_oracle_on_twelve_arc_rings(side, scale):
    """The N = 12 ring, x2 on a 16x16 and x3 on a 24x24 torus, at seeded
    labels and offsets: oracle == -C^N == 2."""
    lattice = CodeLattice(side, side, "torus")
    state = build_code(lattice)
    for seed in range(3):
        css = twelve_arc_ring(side, scale, seed)
        exact = multipartite_information_exact(state, rasterize_css(lattice, css))
        assert exact == -connectivity_count(css).c_n == 2, (seed, css)


@pytest.mark.parametrize("side, scale", TWELVE_ARC_LATTICES)
def test_twelve_arc_ring_relations_are_the_non_additive_entropy(side, scale):
    """Each region basis has rank(G|_A) vectors, and the relations among the
    stacked bases, their length less their rank, number
    sum_j S(A_j) - S(union)."""
    lattice = CodeLattice(side, side, "torus")
    state = build_code(lattice)
    region_map = rasterize_css(lattice, twelve_arc_ring(side, scale, 0))
    bases = _region_bases(state, region_map)
    regions = sorted(region_map.regions, key=min)  # the bases' order
    entropies = [entropy_bits(state, region) for region in regions]
    assert [len(b) for b in bases] == [s + len(r) for s, r in zip(entropies, regions)]
    stacked = [v for basis in bases for v in basis]
    union = entropy_bits(state, region_union(region_map, range(12)))
    assert len(stacked) - len(_echelon(stacked)) == sum(entropies) - union > 0


@pytest.mark.parametrize("side, scale", TWELVE_ARC_LATTICES)
def test_overlaps_match_the_reference_basis_on_twelve_arc_rings(side, scale):
    """On the benchmark's rings the elimination hands over the overlaps and
    dimensions the reference flag basis gives; the last region has none
    ahead, and the others overlap those ahead."""
    lattice = CodeLattice(side, side, "torus")
    state = build_code(lattice)
    for seed in range(3):
        bases = _region_bases(state, rasterize_css(lattice, twelve_arc_ring(side, scale, seed)))
        overlaps, dims = _overlaps(bases)
        assert (overlaps, dims) == flag_overlaps(bases)
        assert all(overlaps[:-1]) and overlaps[-1] == ()


ANALYTIC_GALLERY = [
    path.stem for path in sorted(gallery_dir().glob("*.json"))
    if load_scenario(path).kind == "analytic"
]


def test_analytic_gallery_is_all_there():
    assert len(ANALYTIC_GALLERY) == 40 and "six-hole-eighteen" in ANALYTIC_GALLERY


@pytest.mark.parametrize("name", ANALYTIC_GALLERY)
def test_oracle_matches_counting_on_gallery(name):
    """Every analytic gallery CSS, scaled x2 and padded on a torus: oracle == -C^N."""
    css = scenario_css(load_scenario(gallery_dir() / f"{name}.json"))
    lattice, big = scaled_on_torus(css)
    exact = multipartite_information_exact(build_code(lattice), rasterize_css(lattice, big))
    assert exact == -connectivity_count(css).c_n


def _peak_states(lattice: CodeLattice, css: GridCss) -> int:
    """The most states the exact pass over the regions holds at once."""
    return _signed_rank_sum(_region_bases(build_code(lattice), rasterize_css(lattice, css)))[1]


@pytest.mark.parametrize("side, scale", TWELVE_ARC_LATTICES)
def test_exact_pass_holds_few_states_on_twelve_arc_rings(side, scale):
    """The pass goes round a ring of regions however they are labelled and
    placed: a handful of states, where the subsets of 12 regions are 4095."""
    lattice = CodeLattice(side, side, "torus")
    peaks = [_peak_states(lattice, twelve_arc_ring(side, scale, seed)) for seed in range(3)]
    assert max(peaks) <= 8, peaks


@pytest.mark.parametrize("name, most", [
    *((f"annulus-n{n}", 8) for n in range(3, 9)), ("six-hole-eighteen", 40),
])
def test_exact_pass_state_counts_on_the_gallery(name, most):
    """The gallery annuli scaled on a torus hold a handful of states; the
    18 regions around six holes, 2^18 - 1 subsets, hold a few dozen."""
    lattice, big = scaled_on_torus(scenario_css(load_scenario(gallery_dir() / f"{name}.json")))
    assert _peak_states(lattice, big) <= most


def test_oracle_matches_counting_at_junction_corners(junction_css):
    """The fuzzed CSS whose every hole is ringed by a cycle, where three or
    four subsystems meet at interior corners: oracle == -C^N on each, scaled
    x2 and padded on the same 18x18 torus (648 qubits)."""
    ringed = [
        analysis for analysis in map(CssAnalysis, junction_css)
        if analysis.holes.n_h and not any(isinstance(loop, str) for loop in analysis.hole_loops)
    ]
    lattice = scaled_on_torus(ringed[0].css)[0]
    state = build_code(lattice)
    nonzero = 0
    for analysis in ringed:
        big_lattice, big = scaled_on_torus(analysis.css)
        assert big_lattice == lattice
        assert multipartite_information_exact(state, rasterize_css(lattice, big)) == -analysis.c_n, analysis.css
        nonzero += analysis.c_n != 0
    assert (len(ringed), nonzero) == (115, 11)
