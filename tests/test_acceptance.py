"""Acceptance criteria, one test per criterion.

Every test prints a single ``ACCEPTANCE nn PASS/FAIL`` line (visible with
``pytest -s`` or in captured output on failure).  Tolerances are exact
integer equality for counts and 1e-9 for float identities; the two runtime
budgets are asserted with wall clocks.
"""

import functools
import itertools
import math
import random
import time

from topomi import builders
from topomi.engine import (
    CssAnalysis,
    CssFamily,
    connectivity_count,
    entanglement_vector,
    multipartite_information,
    recursion_check,
    subloop_revival,
)
from topomi.graphs import rho, sigma_of_css
from topomi.model import EntropyModel
from topomi.scenarios import gallery_dir, load_scenario, scenario_css, suite_paths
from topomi.stabilizer import (
    CodeLattice,
    QubitRegionMap,
    build_code,
    entropy_bits,
    multipartite_information_exact,
)

from flood_reference import model_entropy_source
from oracle_reference import (
    annulus_family,
    brute_force_entropy,
    cycle_graph,
    h_edge,
    path_graph,
    region_entropy_source,
    strong_subadditivity_combination,
    v_edge,
)

LN2 = math.log(2)
D2 = EntropyModel(2.0)


def criterion(number, text):
    def wrap(func):
        @functools.wraps(func)
        def run():
            try:
                func()
            except BaseException:
                print(f"ACCEPTANCE {number:02d} FAIL - {text}")
                raise
            print(f"ACCEPTANCE {number:02d} PASS - {text}")

        return run

    return wrap


@criterion(1, "annular invariant: C^N = 2(-1)^(N-1), I^N = (-1)^N 2 log D, N=3..8")
def test_criterion_01_annular_invariant():
    start = time.perf_counter()
    for n in range(3, 9):
        css = builders.annulus(n)
        assert connectivity_count(css).c_n == 2 * (-1) ** (n - 1)
        for dim in (math.sqrt(2), 2.0, 3.0):
            report = multipartite_information(EntropyModel(dim), css)
            want = (-1) ** n * 2 * math.log(dim)
            assert abs(report.i_n - want) < 1e-9
    assert time.perf_counter() - start < 1.0


@criterion(2, "vanishing set: chains, islands, appendages, far handles give C^N = 0")
def test_criterion_02_vanishing_set():
    for n in range(4, 9):
        assert connectivity_count(builders.open_chain(n)).c_n == 0
        assert connectivity_count(builders.annulus_with_island(n)).c_n == 0
        assert connectivity_count(builders.annulus_with_appendage(n)).c_n == 0
        assert connectivity_count(builders.far_handle_annulus(n, 2)).c_n == 0


@criterion(3, "deformation robustness: punched/self-handle/nn-handle keep C^N")
def test_criterion_03_deformations():
    for n in range(4, 7):
        base = connectivity_count(builders.annulus(n)).c_n
        assert connectivity_count(builders.annulus_with_punched_hole(n)).c_n == base
        assert connectivity_count(builders.annulus_with_self_handle(n)).c_n == base
        assert connectivity_count(builders.annulus_with_nn_handle(n)).c_n == base


@criterion(4, "sub-loop revival: handle loops carry (-1)^p 2 log D while I^N = 0")
def test_criterion_04_subloop_revival():
    css = builders.far_handle_annulus(6, 3)  # handle between subsystems 1 and 4
    assert connectivity_count(css).c_n == 0
    result = subloop_revival(D2, css)
    assert (result.p, result.q) == (4, 4)
    assert round(result.info_p / D2.s_topo) == 2
    assert round(result.info_q / D2.s_topo) == 2
    assert abs(result.info_p - 2 * LN2) < 1e-9

    css = builders.far_handle_annulus(5, 2)  # handle between subsystems 1 and 3
    assert connectivity_count(css).c_n == 0
    result = subloop_revival(D2, css)
    assert (result.p, result.q) == (3, 4)
    assert round(result.info_p / D2.s_topo) == -2
    assert round(result.info_q / D2.s_topo) == 2


@criterion(5, "hole constraint: sums 4 log D (two holes) and 12 log D (six holes)")
def test_criterion_05_hole_sum():
    report = multipartite_information(D2, builders.two_hole_five())
    assert [round(abs(h.info) / D2.s_topo) for h in report.holes] == [2, 2]
    assert round(report.constraint_sum / D2.s_topo) == 4
    assert abs(report.i_n) < 1e-12

    css = builders.six_hole_eighteen()
    from topomi.grid import adjacency_graph, find_holes

    assert css.n_subsystems == 18
    assert adjacency_graph(css).d_nn == 23
    assert find_holes(css).n_h == 6
    report = multipartite_information(D2, css)
    assert round(report.constraint_sum / D2.s_topo) == 12
    assert abs(report.i_n) < 1e-12


@criterion(6, "graph invariants: rho(P_n) = (-1)^(n-1), rho(C_n) = 0, sigma = -rho")
def test_criterion_06_graph_invariants():
    for n in range(3, 13):
        assert rho(path_graph(n)) == (-1) ** (n - 1)
        assert rho(cycle_graph(n)) == 0
    for n in range(3, 9):
        assert sigma_of_css(builders.annulus(n)) == -rho(cycle_graph(n)) == 0
        assert sigma_of_css(builders.open_chain(n)) == -rho(path_graph(n))


@criterion(7, "recursion residual < 1e-9 on the gallery and 100 fuzzed CSS")
def test_criterion_07_recursion():
    checked = 0
    for path in suite_paths(gallery_dir()):
        scn = load_scenario(path)
        if scn.kind != "analytic":
            continue
        css = scenario_css(scn)
        if css.n_subsystems > 12:
            continue  # documented enumeration guard on the expansion
        assert recursion_check(D2, css).residual < 1e-9, scn.name
        checked += 1
    assert checked >= 35
    rng = random.Random(424242)
    for _ in range(100):
        css = builders.random_css(rng, rng.randint(2, 8))
        assert recursion_check(D2, css).residual < 1e-9, css.name


@criterion(8, "geometric cancellation: alpha sweep leaves I^N fixed to 1e-9")
def test_criterion_08_alpha_sweep():
    shapes = [
        builders.annulus(3),
        builders.annulus(6),
        builders.annulus_with_self_handle(5),
        builders.annulus_with_nn_handle(4),
        builders.far_handle_annulus(6, 3),
        builders.two_hole_five(),
    ]
    # I^N summed from the alpha-weighted subset entropies, against -C^N log D
    for css in shapes:
        analysis = CssAnalysis(css)
        for alpha in (0.0, 0.5, LN2, 3.7):
            model = EntropyModel(2.0, alpha=alpha)
            value = recursion_check(model, analysis).lhs
            want = -analysis.c_n * model.s_topo
            assert abs(value - want) <= 1e-9 * max(1.0, abs(want)), (css.name, alpha)


@criterion(9, "stabilizer cross-check: -2 log 2 on 4x4 torus, +2 log 2 on 5x5 planar")
def test_criterion_09_stabilizer_cross_check():
    start = time.perf_counter()
    torus = load_scenario(gallery_dir() / "stab-torus4-n3.json")
    lattice_obj = torus.payload["lattice"]
    from topomi.stabilizer import parse_lattice_scenario

    lattice, region_map = parse_lattice_scenario(lattice_obj)
    assert (lattice.lx, lattice.ly, lattice.boundary) == (4, 4, "torus")
    state = build_code(lattice)
    exact3 = multipartite_information_exact(state, region_map)
    assert exact3 == -2

    planar = load_scenario(gallery_dir() / "stab-planar5-n4.json")
    lattice, region_map = parse_lattice_scenario(planar.payload["lattice"])
    assert (lattice.lx, lattice.ly, lattice.boundary) == (5, 5, "planar")
    state = build_code(lattice)
    exact4 = multipartite_information_exact(state, region_map)
    assert exact4 == 2

    # integer agreement with the counting engine at D = 2
    assert exact3 == -connectivity_count(builders.annulus(3)).c_n
    assert exact4 == -connectivity_count(builders.annulus(4)).c_n
    assert time.perf_counter() - start < 10.0


@criterion(10, "oracle self-validation: GF(2) rank matches the dense state vector")
def test_criterion_10_oracle_self_validation():
    state = build_code(CodeLattice(2, 2, "torus"))
    count = 0
    for r in range(1, 9):
        for combo in itertools.combinations(range(8), r):
            assert abs(
                brute_force_entropy(state, combo) - entropy_bits(state, combo) * LN2
            ) < 1e-9
            count += 1
    assert count == 255
    patch = build_code(CodeLattice(2, 4, "planar"))
    assert patch.n == 10
    rng = random.Random(99)
    for _ in range(200):
        combo = rng.sample(range(10), rng.randint(1, 9))
        assert abs(
            brute_force_entropy(patch, combo) - entropy_bits(patch, combo) * LN2
        ) < 1e-9


@criterion(11, "strong subadditivity combination: -2 log D analytic, oracle, <= 0")
def test_criterion_11_subadditivity():
    for dim, want in ((1.0, 0.0), (2.0, -2 * LN2)):
        model = EntropyModel(dim)
        css = builders.annulus(4)
        value = strong_subadditivity_combination(css, model_entropy_source(model, css))
        assert abs(value - want) < 1e-9
        assert value <= 1e-12

    lattice = CodeLattice(4, 4, "torus")
    h, v = functools.partial(h_edge, lattice), functools.partial(v_edge, lattice)
    region_map = QubitRegionMap(lattice.n_qubits, (
        frozenset({h(0, 1), v(1, 1), v(1, 0), h(2, 2)}),
        frozenset({h(1, 1), h(2, 1), v(2, 0), v(2, 2)}),
        frozenset({v(2, 1), h(1, 2), h(0, 2), v(1, 2)}),
    ))
    state = build_code(lattice)
    source = region_entropy_source(state, region_map)
    value = source(frozenset([0, 1, 2]))
    for k in range(3):
        value += source(frozenset([k])) - source(frozenset([k, (k + 1) % 3]))
    assert abs(value + 2 * LN2) < 1e-9
    assert value <= 0


@criterion(12, "entanglement vector: (1,1,1,1) at D = 2, flagged zero at D = 1")
def test_criterion_12_entanglement_vector():
    family = CssFamily(tuple(annulus_family(6)))
    vec = entanglement_vector(D2, family)
    assert not vec.is_zero
    assert len(vec.normalized) == 4
    assert all(abs(x - 1.0) < 1e-12 for x in vec.normalized)
    zero = entanglement_vector(EntropyModel(1.0), family)
    assert zero.is_zero
    assert all(x == 0.0 for x in zero.normalized)
