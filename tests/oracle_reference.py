"""The test-only oracles and inputs that no command runs.

The dense state-vector entropy (``brute_force_entropy``) checks the GF(2)
ranks of ``topomi.stabilizer`` independently, from the generators read off
the state's column table (``generator_rows``); ``state_from_rows`` is the
checked way back from generators to a state, ``h_edge`` and ``v_edge`` look
up an edge's qubit, and ``region_union`` joins regions by id;
``region_entropy_source`` and ``strong_subadditivity_combination`` compute
the subadditivity combination from any entropy source; ``flag_basis`` is
the exact pass's elimination with its basis and coordinates kept, which
``flag_overlaps`` reduces to the overlaps of ``stabilizer._overlaps``;
``annulus_family``, ``path_graph`` and ``cycle_graph`` are inputs whose
answers are known in closed form.  The file's name does not start with ``test_``, so pytest does
not collect it; the test modules import it from ``tests/``.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from topomi.builders import annulus
from topomi.engine import CssAnalysis, annular_order
from topomi.errors import TooManyQubits, ValidationError
from topomi.grid import GridCss, SimpleGraph, pack_bits, set_bits
from topomi.stabilizer import (
    CodeLattice,
    QubitRegionMap,
    StabilizerState,
    _as_qubit_mask,
    _echelon,
    _join,
    entropy_bits,
)

#: dense 2**n state vectors
BRUTE_CAP = 12

LN2 = math.log(2.0)

EntropySource = Callable[[frozenset], float]


def generator_rows(state: StabilizerState) -> tuple[int, ...]:
    """The generators, read off the columns: the dense oracle's input."""
    return tuple(pack_bits(((g, c) for c, column in enumerate(state.columns) for g in set_bits(column)), state.n))


def state_from_rows(n: int, rows: Sequence[int]) -> StabilizerState:
    """The state of n independent commuting generators (X part in the low
    ``n`` bits, Z part in the high ``n``), checked and transposed once."""
    if len(rows) != n:
        raise ValidationError(f"{len(rows)} generators for {n} qubits")
    for g, row in enumerate(rows):
        if not 0 <= row < 1 << 2 * n:
            raise ValidationError(f"generator {g} is {row}; rows lie in 0..2**{2 * n} - 1")
    if len(_echelon(rows)) != n:
        raise ValidationError("generators are not independent over GF(2)")
    cols = pack_bits(((c, g) for g, row in enumerate(rows) for c in set_bits(row)), 2 * n)
    # bit b of the XOR of row a's opposite-type columns is the symplectic
    # product of generators a and b; report the first anticommuting pair
    for a, row in enumerate(rows):
        products = 0
        for c in set_bits(row):
            products ^= cols[c + n if c < n else c - n]
        later = products >> (a + 1)
        if later:
            b = a + (later & -later).bit_length()
            raise ValidationError(f"generators {a} and {b} anticommute")
    return StabilizerState(n, tuple(cols))


def _edge_qubit(lattice: CodeLattice, grid: tuple[tuple[int, ...], ...], i: int, j: int, what: str) -> int:
    """The qubit at ``[j][i]`` of one of :attr:`CodeLattice.edge_qubits`,
    wrapped on the torus; nothing lies beyond the edge of the patch."""
    height, width = len(grid), len(grid[0])
    if lattice.periodic:
        i, j = i % width, j % height
    if not (0 <= i < width and 0 <= j < height):
        raise ValidationError(f"no {what} at ({i},{j})")
    return grid[j][i]


def h_edge(lattice: CodeLattice, i: int, j: int) -> int:
    """Qubit on the edge (i, j)-(i+1, j)."""
    return _edge_qubit(lattice, lattice.edge_qubits[0], i, j, "horizontal edge")


def v_edge(lattice: CodeLattice, i: int, j: int) -> int:
    """Qubit on the edge (i, j)-(i, j+1)."""
    return _edge_qubit(lattice, lattice.edge_qubits[1], i, j, "vertical edge")


def flag_basis(spaces: Sequence[Sequence[int]]) -> tuple[list[int], list[list[int]], list[int]]:
    """A basis b_0, b_1, ... adapted to the flag Z_{N-1} <= ... <= Z_0,
    Z_j = the span of ``spaces[j:]``, each space's vectors in it, and dim Z_j
    for j = 0..N (dim Z_N = 0).

    b_0..b_{dim Z_j - 1} span Z_j, so a subspace of Z_j meets Z_{j+1} in the
    rows of its reduced echelon basis (in these coordinates) whose pivot lies
    below bit dim Z_{j+1} (``stabilizer._split``).  The spaces are eliminated
    last first, and each vector of ``spaces[j]`` independent of those before
    it is the next basis vector itself, so V_j holds b_t for every bit t of
    Z_j above Z_{j+1}.
    """
    basis: list[int] = []
    pivots: dict[int, tuple[int, int]] = {}  # highest bit -> (vector, its coordinates)
    coordinates: list[list[int]] = [[] for _ in spaces]
    dims = [0] * (len(spaces) + 1)
    for j in reversed(range(len(spaces))):
        for v in spaces[j]:
            r, c = v, 0  # v = r + the vectors whose coordinates XOR to c
            while r:
                top = r.bit_length() - 1
                if top not in pivots:
                    new = 1 << len(basis)
                    pivots[top] = (r, new ^ c)
                    basis.append(v)
                    c = new
                    break
                p, pc = pivots[top]
                r ^= p
                c ^= pc
            coordinates[j].append(c)
        dims[j] = len(basis)
    return basis, coordinates, dims


def flag_overlaps(spaces: Sequence[Sequence[int]]) -> tuple[list[tuple[int, ...]], list[int]]:
    """Each space's overlap V_j & Z_{j+1}, the reduced echelon basis of its
    coordinates' bits below dim Z_{j+1}, and the dimensions, from
    :func:`flag_basis`."""
    _, coordinates, dims = flag_basis(spaces)
    low = [(1 << dims[j + 1]) - 1 for j in range(len(spaces))]
    return [_join((), [c & low[j] for c in space]) for j, space in enumerate(coordinates)], dims


def region_union(region_map: QubitRegionMap, ids: Iterable[int]) -> frozenset:
    """The qubits of the regions ``ids``; ValidationError for an id outside 0..N-1."""
    out: set[int] = set()
    for i in ids:
        if not 0 <= i < len(region_map.regions):
            raise ValidationError(f"no region {i} of {len(region_map.regions)}")
        out |= region_map.regions[i]
    return frozenset(out)


def brute_force_entropy(state: StabilizerState, qubits: Iterable[int]) -> float:
    """Entropy (nats) from the dense ground-state vector.

    Builds the state by projecting |0...0> onto the +1 eigenspace of every
    generator, then diagonalizes the reduced density matrix.  Independent
    of the GF(2) rank route; capped at 12 qubits.
    """
    n = state.n
    if n > BRUTE_CAP:
        raise TooManyQubits(f"{n} qubits exceed the dense-oracle cap of {BRUTE_CAP}")
    mask = _as_qubit_mask(state, qubits)

    dim = 1 << n
    idx = np.arange(dim, dtype=np.int64)
    psi = np.zeros(dim)
    psi[0] = 1.0
    full = (1 << n) - 1
    for row in generator_rows(state):
        x = row & full
        z = row >> n
        signs = 1.0 - 2.0 * (np.bitwise_count(idx & z) % 2)
        psi = 0.5 * (psi + (signs * psi)[idx ^ x])
    norm = math.sqrt(float(psi @ psi))
    if norm < 1e-12:
        raise ValidationError("generators project |0...0> to zero; no +1 ground state")
    psi /= norm

    region = sorted(q for q in range(n) if mask >> q & 1)
    rest = [q for q in range(n) if not mask >> q & 1]
    # qubit q is bit q of the index, i.e. axis n-1-q of the reshaped tensor
    tensor = psi.reshape([2] * n)
    perm = [n - 1 - q for q in region] + [n - 1 - q for q in rest]
    matrix = np.transpose(tensor, perm).reshape(1 << len(region), -1)
    # eigenvalues of rho_A are squared singular values of the bipartition
    lams = np.linalg.svd(matrix, compute_uv=False) ** 2
    lams = lams[lams > 1e-14]
    return float(-(lams * np.log(lams)).sum())


def region_entropy_source(state: StabilizerState, region_map: QubitRegionMap):
    """Entropy in nats of a set of region ids, for the subadditivity combination."""

    def source(ids: Iterable[int]) -> float:
        return entropy_bits(state, region_union(region_map, ids)) * LN2

    return source


def strong_subadditivity_combination(css: GridCss | CssAnalysis, entropy: EntropySource) -> float:
    """S_union + sum_i (S_i - S_{i, i+1 mod N}) over the annular cyclic order.

    Equals -2 log(D) under the topology model; with a physical entropy
    source it is bounded above by 0, with equality only in a trivial phase.
    """
    order = annular_order(css)  # every subsystem, in ring order
    value = entropy(frozenset(order))
    for i, j in zip(order, order[1:] + order[:1]):
        value += entropy(frozenset([i])) - entropy(frozenset([i, j]))
    return value


def annulus_family(max_n: int) -> list[GridCss]:
    """Plain annuli of every size 3..max_n (entanglement-vector input)."""
    return [annulus(p) for p in range(3, max_n + 1)]


def path_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> SimpleGraph:
    if n < 3:
        raise ValidationError("cycle graph needs at least 3 vertices")
    return SimpleGraph(n, tuple((i, (i + 1) % n) for i in range(n)))
