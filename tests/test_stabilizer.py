"""Code construction, GF(2) entropies and the dense oracle."""

import itertools
import json
import math
import random
import re
import time
from collections import Counter
from functools import partial

import numpy as np
import pytest

from topomi.builders import annulus, random_css, six_hole_eighteen
from topomi.cli import main
from topomi.engine import connectivity_count
from topomi.errors import (
    EmptyRegion,
    LatticeTooSmall,
    ParseError,
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
    _echelon,
    _join,
    _overlaps,
    _region_bases,
    _signed_rank_sum,
    _split,
    build_code,
    entropy_bits,
    multipartite_information_exact,
    parse_lattice_scenario,
    rasterize_css,
    torus_cut,
)

from flood_reference import perimeter_links
from oracle_reference import (
    brute_force_entropy,
    flag_basis,
    flag_overlaps,
    generator_rows,
    h_edge,
    region_entropy_source,
    region_union,
    state_from_rows,
    v_edge,
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


@pytest.mark.parametrize("make, value", [
    (lambda: CodeLattice(3.5, 3, "torus"), "3.5"),
    (lambda: CodeLattice("4", 3, "torus"), "'4'"),
    (lambda: CodeLattice(None, 3, "torus"), "None"),
    (lambda: CodeLattice(3, 2.5, "planar"), "2.5"),
    (lambda: StabilizerState(2.0, (0, 1, 0, 1)), "2.0"),
    (lambda: StabilizerState("2", (0, 1, 0, 1)), "'2'"),
    (lambda: QubitRegionMap(4.0, (frozenset({0}),)), "4.0"),
    (lambda: QubitRegionMap("4", (frozenset({0}),)), "'4'"),
], ids=["lx-float", "lx-str", "lx-none", "ly-float", "n-float", "n-str", "map-float", "map-str"])
def test_scalar_fields_that_are_no_integer_are_named(make, value):
    """A lattice side, a state's qubit count or a map's qubit count that is
    no integer is a ValidationError naming it, not a bare TypeError later
    or a string doubled into the column count."""
    with pytest.raises(ValidationError, match=f"must be an integer, got {re.escape(value)}$"):
        make()


@pytest.mark.parametrize("make, message", [
    (lambda: StabilizerState(1, ("a", 1)), "column 0 must be an integer, got 'a'"),
    (lambda: StabilizerState(1, (0, None)), "column 1 must be an integer, got None"),
    (lambda: QubitRegionMap(4, (frozenset({"a"}),)), "a qubit of region 0 must be an integer, got 'a'"),
    (lambda: QubitRegionMap(4, (frozenset({0}), frozenset({"b"}))), "a qubit of region 1 must be an integer, got 'b'"),
], ids=["column-str", "column-none", "qubit-str", "second-region-str"])
def test_columns_and_qubits_that_no_int_compares_with_are_named(make, message):
    """A column or a qubit that no int compares with is a ValidationError
    naming it, not the bare TypeError of the range check's comparison."""
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        make()


@pytest.mark.parametrize("regions, message", [
    ((frozenset({1.0}),), "a qubit of region 0 must be an integer, got 1.0"),
    ((frozenset({0, 1}), frozenset({2.0, 3})), "a qubit of region 1 must be an integer, got 2.0"),
], ids=["float", "second-region-float"])
def test_a_float_qubit_in_range_is_named(regions, message):
    """A float qubit compares with ints and lies in range, but the exact pass
    cannot shift by it: the map is not built, and the ValidationError names
    it.  Bool and numpy integer qubits are still built."""
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        QubitRegionMap(4, regions)
    assert QubitRegionMap(4, (frozenset({True}), frozenset({np.int64(2)}))).n_subsystems == 2


@pytest.mark.parametrize("columns, message", [
    ((0.0, 1.0), "column 0 must be an integer, got 0.0"),
    ((0, 1.0), "column 1 must be an integer, got 1.0"),
    ((np.int64(0), np.float64(1.0)), f"column 1 must be an integer, got {np.float64(1.0)!r}"),
], ids=["float", "second-float", "numpy-float"])
def test_a_float_column_in_range_is_named(columns, message):
    """A float column compares with ints and lies in range, but the exact
    pass cannot XOR or shift it: the state is not built, and the
    ValidationError names the column, not a bare AttributeError at the first
    entropy."""
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        StabilizerState(1, columns)


def test_numpy_integer_and_bool_columns_are_ints():
    """A numpy integer or a bool column is made an int, so the entropies
    read the same state as from plain ints; out of range it is named."""
    state = build_code(CodeLattice(4, 4, "torus"))  # 32 qubits: every column fits an int64
    mixed = StabilizerState(state.n, tuple(map(np.int64, state.columns)))
    assert mixed == state and set(map(type, mixed.columns)) == {int}
    small = StabilizerState(1, (np.uint8(0), True))
    assert small.columns == (0, 1) and list(map(type, small.columns)) == [int, int]
    assert entropy_bits(StabilizerState(1, (np.int32(0), np.int32(1))), [0]) == 0
    with pytest.raises(ValidationError, match=re.escape("column 1 is 2; columns lie in 0..2**1 - 1")):
        StabilizerState(1, (np.int64(0), np.int64(2)))


def test_numpy_integer_scalar_fields_are_ints():
    lattice = CodeLattice(np.int64(4), np.int64(4), "torus")
    assert type(lattice.lx) is type(lattice.n_qubits) is int and lattice.n_qubits == 32
    state = build_code(lattice)
    assert type(StabilizerState(np.int64(state.n), state.columns).n) is int
    assert type(QubitRegionMap(np.int64(32), (frozenset({0}),)).n_qubits) is int


def test_lattice_qubit_cap():
    assert CodeLattice(48, 48, "torus").n_qubits == MAX_QUBITS
    with pytest.raises(TooManyQubits, match=f"9408 qubits; the cap is {MAX_QUBITS}"):
        CodeLattice(49, 96, "torus")
    with pytest.raises(TooManyQubits):
        CodeLattice(3000, 3000, "planar")


LATTICES = [
    CodeLattice(lx, ly, boundary)
    for boundary in ("torus", "planar") for lx in range(2, 6) for ly in range(2, 6)
]


def _lattice_id(lattice: CodeLattice) -> str:
    return f"{lattice.boundary}-{lattice.lx}x{lattice.ly}"


def _edge_ends(lattice: CodeLattice) -> tuple[list, list]:
    """End vertices of the horizontal and the vertical edges, each in row-major order."""
    lx, ly = lattice.lx, lattice.ly
    torus = lattice.boundary == "torus"
    horizontal = [
        ((i, j), ((i + 1) % lx, j)) for j in range(ly) for i in range(lx if torus else lx - 1)
    ]
    vertical = [
        ((i, j), (i, (j + 1) % ly)) for j in range(ly if torus else ly - 1) for i in range(lx)
    ]
    return horizontal, vertical


@pytest.mark.parametrize("lattice", LATTICES, ids=_lattice_id)
def test_lattice_numbering_from_first_principles(lattice):
    horizontal, vertical = _edge_ends(lattice)
    # every qubit once, as a Python int: horizontal edges first, each orientation row-major
    numbering = [h_edge(lattice, *a) for a, _ in horizontal]
    numbering += [v_edge(lattice, *a) for a, _ in vertical]
    assert numbering == list(range(lattice.n_qubits))
    assert {type(q) for q in numbering} == {int}
    # the grids behind them are shared by every reader, so none may write to them
    h, v = lattice.edge_qubits
    assert {type(lattice.edge_qubits), type(h), type(v), *(type(row) for row in (*h, *v))} == {tuple}


@pytest.mark.parametrize("lattice", LATTICES, ids=_lattice_id)
def test_lattice_edges_off_the_patch(lattice):
    """The torus wraps every coordinate; the patch rejects what lies beyond its edge."""
    lx, ly = lattice.lx, lattice.ly
    torus = lattice.boundary == "torus"
    for method, what, sites in (
        (partial(h_edge, lattice), "horizontal edge", [(-1, 0), (lx - 1, 0), (0, ly)]),
        (partial(v_edge, lattice), "vertical edge", [(-1, 0), (lx, 0), (0, ly - 1)]),
    ):
        for i, j in sites:
            if torus:
                assert method(i, j) == method(i % lx, j % ly)
            else:
                with pytest.raises(ValidationError, match=re.escape(f"no {what} at ({i},{j})")):
                    method(i, j)


def test_build_code_rank_and_commutation():
    # independence and commutation: test_build_code_generators_pass_every_check
    for lattice in (CodeLattice(2, 2, "torus"), CodeLattice(3, 3, "torus"),
                    CodeLattice(2, 2, "planar"), CodeLattice(3, 4, "planar")):
        state = build_code(lattice)
        assert state.n == lattice.n_qubits
        assert len(generator_rows(state)) == state.n


def _gallery_lattices() -> list[CodeLattice]:
    lattices = []
    for path in sorted(gallery_dir().glob("*.json")):
        scenario = load_scenario(path)
        if scenario.kind == "stabilizer":
            payload = scenario.payload
            lattices.append(parse_lattice_scenario(payload.get("lattice", payload))[0])
    return lattices


#: build_code skips the checks of state_from_rows: every square side from 2
#: to 24 (the benchmark's 16x16 and 24x24 tori among them), rectangles of
#: both shapes and the 48x48 lattices of LARGEST_LATTICES (the torus at
#: MAX_QUBITS), on both boundaries, and the gallery's lattices
BUILT_LATTICES = [
    *(CodeLattice(lx, ly, boundary) for boundary in ("torus", "planar")
      for lx, ly in [*((side, side) for side in range(2, 25)),
                     (2, 3), (3, 2), (3, 4), (4, 9), (11, 5), (16, 7), (18, 22), (24, 13), (48, 48)]),
    *_gallery_lattices(),
]


@pytest.mark.parametrize("lattice", BUILT_LATTICES, ids=_lattice_id)
def test_build_code_generators_pass_every_check(lattice):
    """The star and plaquette generators build_code makes unchecked are
    independent and commute: state_from_rows accepts them."""
    state = build_code(lattice)
    assert state_from_rows(state.n, generator_rows(state)) == state


def _per_vertex_rows(lattice: CodeLattice) -> tuple[int, ...]:
    """The generators assembled star by star and plaquette by plaquette from
    the edge ends (:func:`_edge_ends`, in qubit order), without the last star
    (and on the torus the last plaquette, then the Z loops along row 0 and
    column 0): a star holds the edges that end at its vertex, a plaquette
    the edges around its face."""
    n, lx, ly = lattice.n_qubits, lattice.lx, lattice.ly
    horizontal, vertical = _edge_ends(lattice)
    stars = dict.fromkeys(((i, j) for j in range(ly) for i in range(lx)), 0)
    for q, pair in enumerate(horizontal + vertical):
        for vertex in pair:
            stars[vertex] |= 1 << q
    h = {a: q for q, (a, _) in enumerate(horizontal)}
    v = {a: len(horizontal) + q for q, (a, _) in enumerate(vertical)}
    cols, rows = (lx, ly) if lattice.boundary == "torus" else (lx - 1, ly - 1)
    plaquettes = [
        (1 << h[i, j] | 1 << h[i, (j + 1) % ly] | 1 << v[i, j] | 1 << v[(i + 1) % lx, j]) << n
        for j in range(rows) for i in range(cols)
    ]
    generators = list(stars.values())[:-1]
    if lattice.boundary == "planar":
        return tuple(generators + plaquettes)
    row_loop = sum(1 << h[i, 0] for i in range(lx)) << n
    column_loop = sum(1 << v[0, j] for j in range(ly)) << n
    return tuple(generators + plaquettes[:-1] + [row_loop, column_loop])


def _bit_transpose(n: int, rows) -> tuple[int, ...]:
    """Column c of the generator matrix: bit g set where row g has bit c."""
    columns = [0] * (2 * n)
    for g, row in enumerate(rows):
        while row:
            low = row & -row
            columns[low.bit_length() - 1] |= 1 << g
            row ^= low
    return tuple(columns)


@pytest.mark.parametrize("lattice", BUILT_LATTICES, ids=_lattice_id)
def test_build_code_matches_the_per_vertex_construction(lattice):
    """build_code's column table is the bit transpose of the stars,
    plaquettes and loops of the lattice, as the checked path builds it, and
    the rows read off it are those generators."""
    state = build_code(lattice)
    rows = _per_vertex_rows(lattice)
    assert generator_rows(state) == rows
    assert state.columns == _bit_transpose(state.n, rows)
    assert state.columns == state_from_rows(state.n, generator_rows(state)).columns


def test_gallery_lattices_are_all_there():
    assert len(_gallery_lattices()) == 4


def test_torus_row_budget():
    # 3x3 torus: 8 stars + 8 plaquettes + 2 logical loops
    lattice = CodeLattice(3, 3, "torus")
    state = build_code(lattice)
    n = state.n
    x_rows = sum(1 for r in generator_rows(state) if r < (1 << n))
    z_rows = len(generator_rows(state)) - x_rows
    assert (x_rows, z_rows) == (8, 10)


def _first_anticommuting_pair(n: int, rows) -> tuple[int, int] | None:
    """The first pair a < b of generators whose symplectic product is 1, by definition."""
    xs = [r & ((1 << n) - 1) for r in rows]
    zs = [r >> n for r in rows]
    for a in range(n):
        for b in range(a + 1, n):
            if ((xs[a] & zs[b]).bit_count() + (zs[a] & xs[b]).bit_count()) % 2:
                return a, b
    return None


def _is_independent(rows) -> bool:
    basis: list[int] = []
    for row in rows:
        for v in sorted(basis, reverse=True):  # distinct top bits, highest first
            row = min(row, row ^ v)
        if row == 0:
            return False
        basis.append(row)
    return True


def _random_pauli_rows(rng: random.Random) -> tuple[int, list[int]]:
    """n and n rows: a code state under random local Cliffords and row
    products (commuting), possibly with one bit flipped, or random rows."""
    if rng.random() < 0.3:
        n = rng.randint(1, 6)
        return n, [rng.randrange(1 << 2 * n) for _ in range(n)]
    lattice = rng.choice([CodeLattice(2, 2, "torus"), CodeLattice(2, 2, "planar"),
                          CodeLattice(2, 3, "planar"), CodeLattice(3, 2, "torus")])
    state = build_code(lattice)
    n, rows = state.n, list(generator_rows(state))
    for _ in range(3 * n):
        q = rng.randrange(n)
        move = rng.randrange(3)
        for g, row in enumerate(rows):
            x, z = row >> q & 1, row >> (q + n) & 1
            if move == 0:  # Hadamard on q: swap its X and Z bits
                rows[g] ^= (x ^ z) * ((1 << q) | (1 << (q + n)))
            elif move == 1:  # phase on q: Z part picks up the X part
                rows[g] ^= x << (q + n)
        if move == 2:
            a, b = rng.sample(range(n), 2)
            rows[a] ^= rows[b]
    rng.shuffle(rows)
    if rng.random() < 0.5:
        rows[rng.randrange(n)] ^= 1 << rng.randrange(2 * n)
    return n, rows


def test_column_commutation_check_names_the_first_pair():
    """The column-table check raises on the same first pair as the pairwise definition."""
    rng = random.Random(2024)
    outcomes = {"commute": 0, "anticommute": 0}
    for _ in range(400):
        n, rows = _random_pauli_rows(rng)
        if not _is_independent(rows):
            continue
        pair = _first_anticommuting_pair(n, rows)
        if pair is None:
            state = state_from_rows(n, tuple(rows))
            assert all(
                (state.columns[c] >> g & 1) == (row >> c & 1)
                for g, row in enumerate(rows) for c in range(2 * n)
            )
            outcomes["commute"] += 1
        else:
            message = re.escape(f"generators {pair[0]} and {pair[1]} anticommute") + "$"
            with pytest.raises(ValidationError, match=message):
                state_from_rows(n, tuple(rows))
            outcomes["anticommute"] += 1
    assert min(outcomes.values()) >= 80, outcomes


def test_state_validation_rejects_anticommuting():
    # X on qubit 0 and Z on qubit 0 anticommute
    with pytest.raises(ValidationError):
        state_from_rows(2, (0b01, 0b01 << 2))
    # dependent rows
    with pytest.raises(ValidationError):
        state_from_rows(2, (0b01, 0b01))


def test_state_checks_the_column_table_shape():
    """The constructor takes a column table: 2n columns of n bits each."""
    state = StabilizerState(1, (0b0, 0b1))  # |0>, stabilized by Z
    assert generator_rows(state) == (0b10,)
    assert state_from_rows(1, (0b10,)) == state
    with pytest.raises(ValidationError, match=re.escape("3 columns for 1 qubits; need 2")):
        StabilizerState(1, (0, 1, 0))
    with pytest.raises(ValidationError, match=re.escape("column 1 is 2; columns lie in 0..2**1 - 1")):
        StabilizerState(1, (1, 2))
    with pytest.raises(ValidationError, match="^column 0 is -1;"):
        StabilizerState(1, (-1, 0))


def test_exact_pass_reads_no_rows():
    """The state holds one copy of the generator matrix: the entropies and
    the exact I^N read the column table, and the rows are never built."""
    payload = json.loads((gallery_dir() / "stab-torus8-n3-raster.json").read_text())
    lattice, regions = parse_lattice_scenario(payload["lattice"])
    state = build_code(lattice)
    assert entropy_bits(state, regions.regions[0]) > 0
    assert multipartite_information_exact(state, regions) == payload["expected"]["i_exact_over_log2"]
    assert "rows" not in state.__dict__
    assert set(state.__dict__) == {"n", "columns"}


def test_state_validation_rejects_rows_outside_their_bits():
    """A row holds 2n bits: one with a higher bit, or a negative one, is
    rejected by the generator's index."""
    with pytest.raises(ValidationError, match="^generator 0 is 4;"):
        state_from_rows(1, (0b100,))
    with pytest.raises(ValidationError, match="^generator 1 is -1;"):
        state_from_rows(2, (0b0001, -1))
    with pytest.raises(ValidationError, match="^generator 1 is 16;"):
        state_from_rows(2, (0b0001, 1 << 4))


def _span(vectors) -> set[int]:
    """Every vector of the span, by enumeration."""
    span = {0}
    for v in vectors:
        span |= {s ^ v for s in span}
    return span


def _span_dimension(vectors) -> int:
    return len(_span(vectors)).bit_length() - 1


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


@pytest.mark.parametrize(
    "lattice", [CodeLattice(2, 3, "torus"), CodeLattice(3, 3, "planar")], ids=_lattice_id
)
def test_entropy_bits_matches_dense_oracle(lattice):
    state = build_code(lattice)
    assert state.n == 12
    rng = random.Random(f"dense-{_lattice_id(lattice)}")
    sizes = []
    for _ in range(200):
        combo = rng.sample(range(12), rng.randint(1, 12))
        sizes.append(len(combo))
        bits = entropy_bits(state, combo)
        assert abs(brute_force_entropy(state, combo) - bits * LN2) < 1e-9, combo
    assert sum(size > 6 for size in sizes) >= 50


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


def test_region_entropy_source_rejects_unknown_ids():
    """On a 4x4 torus with 3 regions, ids -1 and 3 name no region and no id
    names no qubit."""
    lattice = CodeLattice(4, 4, "torus")
    h, v = partial(h_edge, lattice), partial(v_edge, lattice)
    region_map = QubitRegionMap(lattice.n_qubits, (
        frozenset({h(0, 1), v(1, 1), v(1, 0), h(2, 2)}),
        frozenset({h(1, 1), h(2, 1), v(2, 0), v(2, 2)}),
        frozenset({v(2, 1), h(1, 2), h(0, 2), v(1, 2)}),
    ))
    source = region_entropy_source(build_code(lattice), region_map)
    for ids in ([-1], [3], [0, 3]):
        with pytest.raises(ValidationError, match=f"no region {ids[-1]} of 3"):
            source(frozenset(ids))
    with pytest.raises(EmptyRegion):
        source(frozenset())
    assert source(frozenset([2])) == entropy_bits(build_code(lattice), region_map.regions[2]) * LN2


def test_multipartite_exact_guard():
    state = build_code(CodeLattice(4, 4, "torus"))
    regions = tuple(frozenset({q}) for q in range(19))
    with pytest.raises(TooManySubsystems):
        multipartite_information_exact(state, QubitRegionMap(32, regions))
    with pytest.raises(ValidationError, match="region map and state disagree on qubit count"):
        multipartite_information_exact(state, QubitRegionMap(33, regions[:3]))


def _alternating_entropy_sum(entropy, region_map: QubitRegionMap) -> int:
    """I^N by its definition: one entropy per nonempty union of regions."""
    n = region_map.n_subsystems
    total = 0
    for mask in range(1, 1 << n):
        s = entropy(region_union(region_map, (i for i in range(n) if mask >> i & 1)))
        total += s if mask.bit_count() % 2 else -s
    return total


def _random_region_map(rng: random.Random, n_qubits: int, n: int,
                       cover: bool = False) -> QubitRegionMap:
    """n disjoint scattered regions; they cover every qubit on some draws,
    and on every draw with ``cover``."""
    qubits = list(range(n_qubits))
    rng.shuffle(qubits)
    used = n_qubits if cover or rng.random() < 0.3 else rng.randint(n, n_qubits)
    cuts = sorted(rng.sample(range(1, used), n - 1))
    bounds = [0, *cuts, used]
    return QubitRegionMap(n_qubits, tuple(
        frozenset(qubits[lo:hi]) for lo, hi in zip(bounds, bounds[1:])
    ))


@pytest.mark.parametrize("lattice", [
    CodeLattice(2, 3, "torus"), CodeLattice(3, 3, "planar"),
    CodeLattice(4, 4, "torus"), CodeLattice(5, 4, "planar"),
], ids=_lattice_id)
def test_exact_walk_matches_per_subset_entropies(lattice):
    """The exact pass equals the alternating sum of entropy_bits, and of the
    dense entropies where the state vector fits."""
    state = build_code(lattice)
    dense = state.n <= 12
    rng = random.Random(f"walk-{_lattice_id(lattice)}")
    values = set()
    for n in range(1, 13):
        for _ in range(2 if dense or n > 8 else 4):
            region_map = _random_region_map(rng, state.n, n)
            exact = multipartite_information_exact(state, region_map)
            assert exact == _alternating_entropy_sum(
                lambda qubits: entropy_bits(state, qubits), region_map
            ), (n, region_map.regions)
            if dense and n <= 8:
                nats = _alternating_entropy_sum(
                    lambda qubits: brute_force_entropy(state, qubits), region_map
                )
                assert abs(nats - exact * LN2) < 1e-8, (n, region_map.regions)
            values.add(exact)
    assert len(values) > 3  # the maps are not all alike


@pytest.mark.parametrize("lattice", [
    CodeLattice(2, 3, "torus"), CodeLattice(3, 3, "torus"), CodeLattice(4, 3, "planar"),
], ids=_lattice_id)
def test_exact_walk_one_two_and_covering_regions(lattice):
    """N = 1 (S(A_1) itself), N = 2, and regions that cover every qubit
    match the alternating sum of entropy_bits."""
    state = build_code(lattice)
    rng = random.Random(f"branches-{_lattice_id(lattice)}")
    for n in (1, 2, 3, 5):
        for cover in (False, True):
            for _ in range(3):
                region_map = _random_region_map(rng, state.n, n, cover)
                exact = multipartite_information_exact(state, region_map)
                assert exact == _alternating_entropy_sum(
                    lambda qubits: entropy_bits(state, qubits), region_map
                ), (n, region_map.regions)
                if cover and n <= 2:  # pure: S(all) = 0 and S(A) = S(complement)
                    assert exact == n * entropy_bits(state, region_map.regions[0])


FAR_APART = """
AA....BB....
AA....BB....
............
............
............
............
CC....DD....
CC....DD....
............
............
............
............
"""

NEIGHBOURS_AND_A_FAR_ONE = """
AABB........
AABB........
............
............
............
............
......CC....
......CC....
............
............
............
............
"""


def test_exact_walk_far_apart_regions_vanish():
    """On a 12x12 torus, the bases of regions far apart are independent when
    stacked (no relations), and a pair that shares a wall has relations but
    the far region's span meets the others' only in 0, so every state of the
    pass cancels: I^N = 0 on both, as the alternating sum of entropy_bits
    gives."""
    lattice = CodeLattice(12, 12, "torus")
    state = build_code(lattice)
    relations = {}
    for name, art in (("far", FAR_APART), ("neighbours", NEIGHBOURS_AND_A_FAR_ONE)):
        region_map = rasterize_css(lattice, parse_ascii(art))
        bases = _region_bases(state, region_map)
        stacked = [v for basis in bases for v in basis]
        relations[name] = len(stacked) - len(_echelon(stacked))
        # the far region, C or D, has the highest lowest qubit: its basis comes last
        assert min(region_map.regions[-1]) == max(map(min, region_map.regions))
        others = [v for basis in bases[:-1] for v in basis]
        assert len(_echelon(stacked)) == len(bases[-1]) + len(_echelon(others))
        assert multipartite_information_exact(state, region_map) == 0
        assert _alternating_entropy_sum(lambda qubits: entropy_bits(state, qubits), region_map) == 0
    assert relations["far"] == 0 and relations["neighbours"] > 0, relations


def _random_spaces(rng: random.Random, width: int, n: int) -> list[list[int]]:
    """n spanning sets in GF(2)^width, some empty, some sharing vectors."""
    spaces = []
    for _ in range(n):
        vectors = [rng.randrange(1 << width) for _ in range(rng.randint(0, 3))]
        if spaces and rng.random() < 0.3:
            vectors.append(rng.choice([v for space in spaces for v in space] or [0]))
        spaces.append(vectors)
    return spaces


def test_join_is_the_reduced_basis_of_the_sum():
    """_join against span enumeration: the rows span the sum, each pivot is
    clear in every other row, and the highest pivot comes first."""
    rng = random.Random(23)
    for _ in range(300):
        width = rng.randint(1, 7)
        rows = _join((), [rng.randrange(1 << width) for _ in range(rng.randint(0, 4))])
        vectors = [rng.randrange(1 << width) for _ in range(rng.randint(0, 4))]
        joined = _join(rows, vectors)
        assert _span(joined) == _span([*rows, *vectors])
        assert len(_span(joined)) == 1 << len(joined)
        tops = [r.bit_length() - 1 for r in joined]
        assert tops == sorted(tops, reverse=True) and 0 not in joined
        assert all(r >> top & 1 == (r == p) for r in joined for p, top in zip(joined, tops))


def test_flag_basis_intersection_matches_span_enumeration():
    """In the flag coordinates, a subspace W of Z_j meets Z_{j+1} in the rows
    of its reduced basis below bit dim Z_{j+1}, as span enumeration finds,
    and V_j holds the basis vector of each bit of Z_j above Z_{j+1}; the
    elimination's overlaps are those the reference basis gives, and each
    spans V_j & Z_{j+1}."""
    rng = random.Random(1723)
    cut_somewhere = 0
    for _ in range(200):
        width, n = rng.randint(1, 6), rng.randint(1, 5)
        spaces = _random_spaces(rng, width, n)
        basis, coordinates, dims = flag_basis(spaces)
        overlaps, got_dims = _overlaps(spaces)
        assert (overlaps, got_dims) == flag_overlaps(spaces)

        def vector(c):  # coordinates back to a vector
            out = 0
            for t, b in enumerate(basis):
                if c >> t & 1:
                    out ^= b
            return out

        assert len(_span(basis)) == 1 << len(basis) and dims[n] == 0
        for j in range(n):
            z_j, z_next = _span(v for space in spaces[j:] for v in space), _span(
                v for space in spaces[j + 1:] for v in space)
            assert len(z_j) == 1 << dims[j] and _span(basis[:dims[j]]) == z_j
            assert [vector(c) for c in coordinates[j]] == list(spaces[j])
            assert all(basis[t] in _span(spaces[j]) for t in range(dims[j + 1], dims[j]))
            assert {vector(c) for c in _span(overlaps[j])} == _span(spaces[j]) & z_next
            w = [rng.randrange(1 << dims[j]) for _ in range(rng.randint(0, 3))] if dims[j] else []
            rows = _join((), w)
            cut = _split(rows, dims[j + 1])
            want = {vector(c) for c in _span(w)} & z_next
            assert {vector(c) for c in _span(rows[cut:])} == want
            cut_somewhere += 0 < cut < len(rows)
    assert cut_somewhere > 20


def _signed_rank_reference(spaces) -> int:
    """sum over subsets T of (-1)^(N-|T|) dim(sum of spaces in T), by enumeration."""
    n, total = len(spaces), 0
    for mask in range(1 << n):
        dim = _span_dimension(v for j, space in enumerate(spaces) if mask >> j & 1 for v in space)
        total += (-1) ** (n - mask.bit_count()) * dim
    return total


def test_signed_rank_sum_matches_subset_enumeration():
    """The pass over the spaces equals the signed sum over all 2^N subsets,
    and an empty space anywhere cancels every state: the sum is 0."""
    rng = random.Random(1724)
    values = set()
    for _ in range(300):
        spaces = _random_spaces(rng, rng.randint(1, 6), rng.randint(1, 7))
        total, peak = _signed_rank_sum(spaces)
        assert total == _signed_rank_reference(spaces), spaces
        assert 1 <= peak <= 1 << len(spaces)
        values.add(total)
        if all(spaces):
            empty = rng.randrange(len(spaces) + 1)
            assert _signed_rank_sum([*spaces[:empty], [], *spaces[empty:]])[0] == 0
            assert _signed_rank_sum([*spaces[:empty], [0, 0], *spaces[empty:]])[0] == 0
    assert len(values) > 5


@pytest.mark.parametrize("lattice", [
    CodeLattice(3, 3, "torus"), CodeLattice(4, 3, "planar"), CodeLattice(6, 6, "torus"),
], ids=_lattice_id)
def test_exact_is_invariant_under_region_permutation(lattice):
    """Relabelling the regions (a seeded permutation) leaves I^N as it was,
    however the pass orders them."""
    state = build_code(lattice)
    rng = random.Random(f"permute-{_lattice_id(lattice)}")
    nonzero = 0
    for n in range(2, 11):
        region_map = _random_region_map(rng, state.n, n)
        exact = multipartite_information_exact(state, region_map)
        nonzero += exact != 0
        for _ in range(3):
            regions = list(region_map.regions)
            rng.shuffle(regions)
            permuted = QubitRegionMap(state.n, tuple(regions))
            assert multipartite_information_exact(state, permuted) == exact, (n, regions)
    assert nonzero >= 3


def test_rasterize_dimension_check():
    lattice = CodeLattice(4, 4, "torus")
    css = parse_ascii("AB\nAB")
    with pytest.raises(ValidationError, match="^CSS is 2x2 but the lattice has 4x4 faces$"):
        rasterize_css(lattice, css)


def test_rasterize_rejects_winding():
    lattice = CodeLattice(4, 4, "torus")
    labels = [OUTSIDE] * 16
    for x in range(4):
        labels[0 * 4 + x] = 0  # full row wraps around
    css = GridCss(4, 4, tuple(labels))
    with pytest.raises(WindingRegion):
        rasterize_css(lattice, css)


#: footprints that meet every row, and every column, of a 4x4 torus
WINDS_ROWS = "A...\nAA..\n.A..\n.A.."
WINDS_COLUMNS = "AA..\n.AAA\n....\n...."


def test_torus_cut_rejects_a_footprint_meeting_every_row():
    # no cell meets another across the seam, but no row is left to cut along
    lattice = CodeLattice(4, 4, "torus")
    css = parse_ascii(WINDS_ROWS)
    with pytest.raises(WindingRegion, match="footprint meets every row of the 4x4 torus"):
        rasterize_css(lattice, css)
    # rolled so that the empty row 0 and column 1 come last: A is whole again
    assert torus_cut(parse_ascii("....\n..AA\n...A\nA..A")) == parse_ascii("AA..\n.A..\n.AA.\n....")


#: A at (4,1) and (0,2), B at (0,1), C at (4,2): A's two cells meet only at a
#: corner across the seam between columns 4 and 0, which the grid rolled by one
#: column shows at (0,1)..(1,2); in the grid as given those cells hold B and OUTSIDE
SEAM_PINCH = ".....\nB...A\nA...C\n.....\n....."
SEAM_PINCH_TEXT = "diagonal pinch of label 0 at cells (0,1)..(1,2) of the grid rolled by 1 columns and 0 rows"


def test_a_pinch_across_the_seam_names_the_roll(tmp_path, capsys):
    css = parse_ascii(SEAM_PINCH)
    assert (css.label_at(0, 1), css.label_at(1, 2)) == (1, OUTSIDE)
    with pytest.raises(ValidationError) as caught:
        rasterize_css(CodeLattice(5, 5, "torus"), css)
    assert type(caught.value) is ValidationError
    assert str(caught.value) == SEAM_PINCH_TEXT
    lattice = {"Lx": 5, "Ly": 5, "boundary": "torus", "css": {"ascii": SEAM_PINCH.splitlines()}}
    path = tmp_path / "seam-pinch.json"
    path.write_text(json.dumps({"name": "seam-pinch", "kind": "stabilizer", "lattice": lattice}))
    assert main(["stabilizer", str(path)]) == 1
    assert f"FAIL evaluate: ValidationError: {SEAM_PINCH_TEXT}\n" in capsys.readouterr().out


def _on_torus(css: GridCss, dx: int, dy: int, side: int = 9, name: str = "") -> GridCss:
    """``css`` placed at offset (dx, dy) on a side x side torus grid, wrapping."""
    labels = [OUTSIDE] * side * side
    for k, label in enumerate(css.labels):
        labels[(k // css.width + dy) % side * side + (k % css.width + dx) % side] = label
    return GridCss(side, side, tuple(labels), name=name)


def test_torus_cut_counts_every_placement_alike():
    """A CSS placed anywhere on the torus, across the seam or not, has a planar
    cut with empty last row and column and the CSS's own C^N; the region map
    keeps the cut it rasterized."""
    lattice = CodeLattice(9, 9, "torus")
    n_rolled = 0
    for seed in range(30):
        rng = random.Random(seed)
        css = random_css(rng, rng.randint(3, 8), 7, 6, growth=rng.choice([20, 60, 150]))
        placed = _on_torus(css, rng.randrange(9), rng.randrange(9))
        cut = torus_cut(placed)
        last_row_and_column = {cut.label_at(8, k) for k in range(9)} | {cut.label_at(k, 8) for k in range(9)}
        assert last_row_and_column == {OUTSIDE}
        assert connectivity_count(cut).c_n == connectivity_count(css).c_n
        assert rasterize_css(lattice, placed).css == cut
        n_rolled += cut is not placed
    corner = _on_torus(css, 0, 0)
    assert torus_cut(corner) is corner
    assert n_rolled == 25


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


def _rasterized_cases():
    """The gallery's rasterized grids, fuzzed planar CSS and CSS placed across
    the torus seam, each with its lattice."""
    for name in ("stab-torus8-n3-raster", "stab-planar9-n4-raster"):
        payload = load_scenario(gallery_dir() / f"{name}.json").payload["lattice"]
        yield parse_lattice_scenario(payload)[0], parse_grid_json(payload["css"])
    for seed in range(30):
        rng = random.Random(seed)
        css = random_css(rng, rng.randint(3, 8), 7, 6, growth=rng.choice([20, 60, 150]))
        yield CodeLattice(8, 7, "planar"), css
        yield CodeLattice(9, 9, "torus"), _on_torus(css, rng.randrange(9), rng.randrange(9))


def test_rasterized_subsystem_owns_south_edge_of_each_cell():
    """The north/west rule hands every cell its south edge, so no subsystem goes empty."""
    n_cases = 0
    for lattice, css in _rasterized_cases():
        region_map = rasterize_css(lattice, css)
        css = region_map.css
        for k, label in enumerate(css.labels):
            if label != OUTSIDE:
                x, y = k % css.width, k // css.width
                assert h_edge(lattice, x, y + 1) in region_map.regions[label]
        n_cases += 1
    assert n_cases == 62


def _rasterize_by_edge(lattice: CodeLattice, css: GridCss) -> QubitRegionMap:
    """Each edge assigned on its own: the north (west) cell's subsystem, else
    the south (east) cell's, with cells off the grid OUTSIDE."""
    if lattice.boundary == "torus":
        css = torus_cut(css)
    regions: list[set] = [set() for _ in range(css.n_subsystems)]

    def assign(qubit: int, primary: int, secondary: int) -> None:
        if primary != OUTSIDE:
            regions[primary].add(qubit)
        elif secondary != OUTSIDE:
            regions[secondary].add(qubit)

    cols, rows = lattice.face_shape
    for j in range(lattice.ly):
        for i in range(cols):
            assign(h_edge(lattice, i, j), css.label_at(i, j - 1), css.label_at(i, j))
    for j in range(rows):
        for i in range(lattice.lx):
            assign(v_edge(lattice, i, j), css.label_at(i - 1, j), css.label_at(i, j))
    return QubitRegionMap(lattice.n_qubits, tuple(frozenset(r) for r in regions), css)


def _scaled(css: GridCss, scale: int) -> GridCss:
    """``css`` with every cell a scale x scale block."""
    width = css.width * scale
    labels = [css.label_at(x // scale, y // scale) for y in range(css.height * scale) for x in range(width)]
    return GridCss(width, css.height * scale, tuple(labels))


def _padded(css: GridCss, width: int, height: int) -> dict:
    """``css`` one empty cell in from the top left of a width x height grid,
    as a "labels" payload."""
    labels = [css.label_at(x - 1, y - 1) if 0 < x <= css.width and 0 < y <= css.height else OUTSIDE
              for y in range(height) for x in range(width)]
    return {"width": width, "height": height, "labels": labels}


#: (Lx, Ly, boundary), the grid's width and height, (CSS, scale) and its
#: I/log2; each time is that of the ``stabilizer`` command through
#: ``topomi.cli.main``, warm, on a 2-core x86-64 VM (the range of runs)
LARGEST_LATTICES = {
    # the 18-region ring, each cell scaled x2, on a 22x22 torus: the exact
    # oracle at its region cap, where the subsets of regions number 262,143.
    # Its pass over the regions holds 5 states (4-7 ms)
    "annulus-n18-torus22": ((22, 22, "torus"), (22, 22), (annulus(18), 2), 2),
    # the same ring with 4-cell arcs on a 48x48 torus: 4608 qubits,
    # MAX_QUBITS (12-20 ms).  The generators and column table come from two
    # grids of generator bits (3-5 ms to build, against about 43 ms for a
    # per-vertex build and transpose), the grid's parse, cut and
    # rasterization take 1-2 ms, and the exact pass 4-8 ms
    "annulus-n18-torus48": ((48, 48, "torus"), (48, 48), (annulus(18), 4), 2),
    # the same scaled ring on a 48x48-vertex planar patch: 47x47 faces and
    # 4512 qubits, through build_code's patch padding, where a plaquette
    # past the last row or column is the zero entry (12-19 ms)
    "annulus-n18-planar48": ((48, 48, "planar"), (47, 47), (annulus(18), 4), 2),
    # six-hole-eighteen, each cell scaled x2, on a 28x20 torus: 1120 qubits
    # and 18 regions that form no ring, where the order of the pass (the
    # regions' lowest qubits, a sweep across the lattice) matters.  It holds
    # 20 states, and the exact pass takes 6-10 ms (10-17 ms in all)
    "six-hole-eighteen-torus28x20": ((28, 20, "torus"), (28, 20), (six_hole_eighteen(), 2), 0),
}


@pytest.mark.installed
@pytest.mark.parametrize("name", LARGEST_LATTICES)
def test_cli_stabilizer_answers_on_the_largest_lattices(name, tmp_path, capsys):
    """``stabilizer`` gives the exact I/log2, matching the count, at the
    region cap, on the largest torus and planar patch, and on the window
    frame, each CSS one empty cell in from the lattice's corner."""
    (lx, ly, boundary), (width, height), (css, scale), want = LARGEST_LATTICES[name]
    lattice = {"Lx": lx, "Ly": ly, "boundary": boundary, "css": _padded(_scaled(css, scale), width, height)}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"name": name, "kind": "stabilizer", "lattice": lattice,
                                "expected": {"i_exact_over_log2": want, "matches_counting": True}}))
    start = time.perf_counter()
    assert main(["stabilizer", str(path), "--json"]) == 0
    # a pass whose states grow like 2^N fails here
    assert time.perf_counter() - start < 5
    assert json.loads(capsys.readouterr().out)["passed"] is True


def _benchmark_rings():
    """annulus(12) with 2-cell arcs on the 16x16 torus and 3-cell arcs on the
    24x24 torus, at seeded offsets, all of these across the seam."""
    ring = annulus(12)
    rng = random.Random(26)
    for side, scale in ((16, 2), (24, 3)):
        lattice, css = CodeLattice(side, side, "torus"), _scaled(ring, scale)
        for _ in range(12):
            yield lattice, _on_torus(css, rng.randrange(side), rng.randrange(side), side)


def _planar_fuzz():
    """Seeded random CSS filling the faces of planar lattices of many shapes."""
    rng = random.Random(260)
    for _ in range(40):
        width, height = rng.randint(4, 14), rng.randint(4, 14)
        n = rng.randint(1, 8)
        css = random_css(rng, n, width, height, growth=rng.choice([5, 40, 200]))
        yield CodeLattice(width + 1, height + 1, "planar"), css


#: patch footprints that reach the grid's edge on all four sides: a full
#: patch, and an L along the top row and the left column
EDGE_FOOTPRINTS = ("AAAB\nAAAB\nCCCC", "AAAAA\nB....\nB....\nB....")


def _edge_footprints():
    for text in EDGE_FOOTPRINTS:
        css = parse_ascii(text)
        yield CodeLattice(css.width + 1, css.height + 1, "planar"), css


def _largest_cases():
    """The 48x48 torus and patch of LARGEST_LATTICES, each with its CSS."""
    for name in ("annulus-n18-torus48", "annulus-n18-planar48"):
        (lx, ly, boundary), (width, height), (css, scale), _ = LARGEST_LATTICES[name]
        yield CodeLattice(lx, ly, boundary), parse_grid_json(_padded(_scaled(css, scale), width, height))


def test_rasterize_matches_the_per_edge_assignment():
    """The cell walk gives every region, and the grid kept, of the
    per-edge assignment, on the planar patch (footprints on its edge among
    them) and on the torus's cut (every benchmark ring needs one), up to
    the 48x48 lattices."""
    n_rolled = 0
    cases = [*_rasterized_cases(), *_benchmark_rings(), *_planar_fuzz(), *_edge_footprints(), *_largest_cases()]
    for lattice, css in cases:
        region_map = rasterize_css(lattice, css)
        reference = _rasterize_by_edge(lattice, css)
        assert region_map.regions == reference.regions
        assert region_map.css == reference.css
        n_rolled += region_map.css is not css
    assert len(cases) == 62 + 24 + 40 + 2 + 2
    assert n_rolled == 25 + 24


def _cut_by_roll(css: GridCss) -> GridCss:
    """The torus cut by whole-array numpy: the empty rows and columns from
    an ``all`` along each axis, the grid rolled by ``np.roll``."""
    labels = np.array(css.labels).reshape(css.height, css.width)
    empty_rows = np.flatnonzero((labels == OUTSIDE).all(axis=1))
    empty_cols = np.flatnonzero((labels == OUTSIDE).all(axis=0))
    if not (empty_rows.size and empty_cols.size):
        what = "column" if empty_rows.size else "row"
        raise WindingRegion(f"footprint meets every {what} of the {css.width}x{css.height} torus")
    shift = (css.height - 1 - int(empty_rows[-1]), css.width - 1 - int(empty_cols[-1]))
    if shift == (0, 0):
        return css
    rolled = np.roll(labels, shift, axis=(0, 1))
    try:
        return GridCss(css.width, css.height, tuple(rolled.ravel().tolist()), name=css.name)
    except ValidationError as exc:
        raise ValidationError(f"{exc} of the grid rolled by {shift[1]} columns and {shift[0]} rows") from exc


def _cut_or_error(cut, css: GridCss):
    """``cut(css)``, or the type and text of the error it raises."""
    try:
        return cut(css)
    except (ValidationError, WindingRegion) as exc:
        return type(exc), str(exc)


def _tight_placements(count: int = 30) -> list[GridCss]:
    """Seeded random CSS, each named, placed on a torus at most two cells
    wider than itself: some roll, some lie in place and some meet every row
    or column.  A placement that pinches as given is no torus grid and is
    drawn again."""
    rng = random.Random(45)
    placements: list[GridCss] = []
    while len(placements) < count:
        width, height = rng.randint(3, 7), rng.randint(3, 7)
        side = max(width, height) + rng.randint(0, 2)
        try:
            css = random_css(rng, rng.randint(2, 5), width, height, growth=rng.choice([20, 60, 150]))
            placements.append(_on_torus(css, rng.randrange(side), rng.randrange(side), side,
                                        name=f"placement-{len(placements)}"))
        except ValidationError:
            continue
    return placements


def test_torus_cut_matches_the_roll_reference():
    """torus_cut gives the grid and name of the whole-array roll, ``css``
    itself when nothing rolls, and the same error type and text, on every
    torus case the rasterizer is checked on (the benchmark rings among
    them), tight placements and the three error texts.  The per-edge
    reference calls torus_cut itself, so only this catches a wrong but
    self-consistent cut."""
    grids = [css for lattice, css in [*_rasterized_cases(), *_benchmark_rings()] if lattice.periodic]
    grids += _tight_placements()
    grids += [parse_ascii(text) for text in (WINDS_ROWS, WINDS_COLUMNS, SEAM_PINCH)]
    outcomes = Counter()
    for css in grids:
        cut, reference = _cut_or_error(torus_cut, css), _cut_or_error(_cut_by_roll, css)
        assert cut == reference
        if isinstance(cut, GridCss):
            assert cut.name == reference.name == css.name
            assert (cut is css) == (reference is css)
            outcomes["kept" if cut is css else "rolled"] += 1
        else:
            outcomes[cut[0].__name__] += 1
    assert outcomes == {"kept": 6 + 7, "rolled": 49 + 17, "WindingRegion": 6 + 2, "ValidationError": 1}
    assert [_cut_or_error(torus_cut, grid) for grid in grids[-3:]] == [
        (WindingRegion, "footprint meets every row of the 4x4 torus"),
        (WindingRegion, "footprint meets every column of the 4x4 torus"),
        (ValidationError, SEAM_PINCH_TEXT),
    ]


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
    # a boundary that is not a string is a malformed payload; an unknown one is invalid
    for boundary in (None, 5, ["torus"]):
        with pytest.raises(ParseError, match=f"^lattice 'boundary' must be a string, got {re.escape(repr(boundary))}$"):
            parse_lattice_scenario({"Lx": 2, "Ly": 2, "boundary": boundary, "regions": {"A": [0]}})
    with pytest.raises(ValidationError, match="^boundary must be 'torus' or 'planar', got 'klein'$"):
        parse_lattice_scenario({"Lx": 2, "Ly": 2, "boundary": "klein", "regions": {"A": [0]}})
    payload = load_scenario(gallery_dir() / "stab-torus8-n3-raster.json").payload["lattice"]
    _, region_map = parse_lattice_scenario(payload)
    assert region_map.css == parse_grid_json(payload["css"])
    assert region_map.n_subsystems == 3
