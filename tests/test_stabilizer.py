"""Code construction, GF(2) entropies and the dense oracle."""

import itertools
import math
import random

import pytest

from topomi.errors import (
    EmptyRegion,
    LatticeTooSmall,
    TooManyQubits,
    TooManySubsystems,
    ValidationError,
    WindingRegion,
)
from topomi.grid import GridCss, OUTSIDE, parse_ascii, parse_grid_json
from topomi.scenarios import gallery_dir, load_scenario
from topomi.stabilizer import (
    MAX_QUBITS,
    CodeLattice,
    QubitRegionMap,
    StabilizerState,
    brute_force_entropy,
    build_code,
    entropy_bits,
    multipartite_information_exact,
    parse_lattice_scenario,
    rasterize_css,
)

LN2 = math.log(2)


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------

def test_lattice_counts():
    assert CodeLattice(2, 2, "torus").n_qubits == 8
    assert CodeLattice(3, 3, "torus").n_qubits == 18
    assert CodeLattice(4, 4, "torus").n_qubits == 32
    assert CodeLattice(2, 2, "planar").n_qubits == 4
    assert CodeLattice(2, 4, "planar").n_qubits == 10
    assert CodeLattice(5, 5, "planar").n_qubits == 40


def test_lattice_too_small():
    with pytest.raises(LatticeTooSmall):
        CodeLattice(1, 4, "torus")
    with pytest.raises(ValidationError):
        CodeLattice(3, 3, "weird")


def test_lattice_qubit_cap():
    assert CodeLattice(48, 48, "torus").n_qubits == MAX_QUBITS
    with pytest.raises(TooManyQubits, match=f"9408 qubits; the cap is {MAX_QUBITS}"):
        CodeLattice(49, 96, "torus")
    with pytest.raises(TooManyQubits):
        CodeLattice(3000, 3000, "planar")


def test_build_code_rank_and_commutation():
    # StabilizerState verifies independence and pairwise commutation
    for lattice in (CodeLattice(2, 2, "torus"), CodeLattice(3, 3, "torus"),
                    CodeLattice(2, 2, "planar"), CodeLattice(3, 4, "planar")):
        state = build_code(lattice)
        assert state.n == lattice.n_qubits
        assert len(state.rows) == state.n


def test_torus_row_budget():
    # 3x3 torus: 8 stars + 8 plaquettes + 2 logical loops
    lattice = CodeLattice(3, 3, "torus")
    state = build_code(lattice)
    n = state.n
    x_rows = sum(1 for r in state.rows if r < (1 << n))
    z_rows = len(state.rows) - x_rows
    assert (x_rows, z_rows) == (8, 10)


def test_state_validation_rejects_anticommuting():
    # X on qubit 0 and Z on qubit 0 anticommute
    with pytest.raises(ValidationError):
        StabilizerState(2, (0b01, 0b01 << 2))
    # dependent rows
    with pytest.raises(ValidationError):
        StabilizerState(2, (0b01, 0b01))


# ----------------------------------------------------------------------
# entropies
# ----------------------------------------------------------------------

def test_single_qubit_and_full_region():
    state = build_code(CodeLattice(2, 2, "torus"))
    assert entropy_bits(state, [0]) == 1
    assert entropy_bits(state, range(8)) == 0  # pure state
    with pytest.raises(EmptyRegion):
        entropy_bits(state, [])
    with pytest.raises(ValidationError):
        entropy_bits(state, [99])


def test_exhaustive_oracle_match_2x2_torus():
    state = build_code(CodeLattice(2, 2, "torus"))
    for r in range(1, 9):
        for combo in itertools.combinations(range(8), r):
            bits = entropy_bits(state, combo)
            dense = brute_force_entropy(state, combo)
            assert abs(dense - bits * LN2) < 1e-9, combo


def test_purity_symmetry():
    state = build_code(CodeLattice(2, 2, "torus"))
    full = set(range(8))
    for r in range(1, 8):
        for combo in itertools.combinations(range(8), r):
            assert entropy_bits(state, combo) == entropy_bits(state, full - set(combo))


def test_random_subsets_10_qubit_planar_patch():
    state = build_code(CodeLattice(2, 4, "planar"))
    rng = random.Random(1234)
    for _ in range(200):
        size = rng.randint(1, 9)
        combo = rng.sample(range(10), size)
        bits = entropy_bits(state, combo)
        dense = brute_force_entropy(state, combo)
        assert abs(dense - bits * LN2) < 1e-9, combo


def test_strong_subadditivity_sampled():
    state = build_code(CodeLattice(2, 2, "torus"))
    rng = random.Random(77)
    for _ in range(60):
        qubits = list(range(8))
        rng.shuffle(qubits)
        a, b, c = set(qubits[0:2]), set(qubits[2:4]), set(qubits[4:6])
        lhs = entropy_bits(state, a | b) + entropy_bits(state, b | c)
        rhs = entropy_bits(state, b) + entropy_bits(state, a | b | c)
        assert lhs >= rhs


def test_brute_force_guard():
    state = build_code(CodeLattice(3, 3, "torus"))
    with pytest.raises(TooManyQubits):
        brute_force_entropy(state, [0])


def test_contractible_disk_matches_link_counting():
    """A 2x2 cell block rasterized onto the 4x4 torus carries 12 qubits
    and S = (n_boundary - 1) log 2 with n_boundary = 8 perimeter links."""
    lattice = CodeLattice(4, 4, "torus")
    state = build_code(lattice)
    labels = [OUTSIDE] * 16
    for (x, y) in ((0, 0), (1, 0), (0, 1), (1, 1)):
        labels[y * 4 + x] = 0
    css = GridCss(4, 4, tuple(labels), name="disk")
    region_map = rasterize_css(lattice, css)
    qubits = region_map.regions[0]
    assert len(qubits) == 12
    from topomi.grid import perimeter_links

    n_links = perimeter_links(css.subsystem_cells(0))
    assert n_links == 8
    assert entropy_bits(state, qubits) == n_links - 1


# ----------------------------------------------------------------------
# region maps and rasterization
# ----------------------------------------------------------------------

def test_region_map_validation():
    with pytest.raises(ValidationError):
        QubitRegionMap(4, (frozenset({0}), frozenset({0})))
    with pytest.raises(ValidationError):
        QubitRegionMap(4, (frozenset(),))
    with pytest.raises(ValidationError):
        QubitRegionMap(4, (frozenset({7}),))


def test_multipartite_exact_guard():
    state = build_code(CodeLattice(4, 4, "torus"))
    regions = tuple(frozenset({q}) for q in range(13))
    with pytest.raises(TooManySubsystems):
        multipartite_information_exact(state, QubitRegionMap(32, regions))


def test_rasterize_dimension_check():
    lattice = CodeLattice(4, 4, "torus")
    css = parse_ascii("AB\nAB")
    with pytest.raises(ValidationError):
        rasterize_css(lattice, css)


def test_rasterize_rejects_winding():
    lattice = CodeLattice(4, 4, "torus")
    labels = [OUTSIDE] * 16
    for x in range(4):
        labels[0 * 4 + x] = 0  # full row wraps around
    css = GridCss(4, 4, tuple(labels))
    with pytest.raises(WindingRegion):
        rasterize_css(lattice, css)


def test_rasterize_ownership_is_a_partition():
    lattice = CodeLattice(8, 8, "torus")
    grid_labels = [OUTSIDE] * 64
    for (x, y) in [(x, y) for x in range(1, 7) for y in (1, 2)]:
        grid_labels[y * 8 + x] = 0
    for (x, y) in [(x, y) for x in (5, 6) for y in range(3, 7)]:
        grid_labels[y * 8 + x] = 1
    css = GridCss(8, 8, tuple(grid_labels))
    region_map = rasterize_css(lattice, css)
    seen = set()
    for region in region_map.regions:
        assert not (region & seen)
        seen |= region


def test_parse_lattice_scenario_regions_and_css():
    lattice, region_map = parse_lattice_scenario({
        "Lx": 2, "Ly": 2, "boundary": "torus",
        "regions": {"A": [0, 1], "B": [2]},
    })
    assert lattice.n_qubits == 8
    assert region_map.n_subsystems == 2
    assert region_map.css is None
    with pytest.raises(ValidationError):
        parse_lattice_scenario({"Lx": 2, "Ly": 2})
    payload = load_scenario(gallery_dir() / "stab-torus8-n3-raster.json").payload["lattice"]
    _, region_map = parse_lattice_scenario(payload)
    assert region_map.css == parse_grid_json(payload["css"])
    assert region_map.n_subsystems == 3
