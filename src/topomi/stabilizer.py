"""Exact stabilizer-code ground states and their region entropies.

The square-lattice code places one qubit on every edge, an X-type star on
every vertex and a Z-type plaquette on every face.  One member numbers the
qubits, :attr:`CodeLattice.edge_qubits`: the horizontal edges first, then
the vertical ones, each row by row; the code, the rasterizer and the qubit
ids of a ``"regions"`` payload all read it.  On the torus the two
global product relations are removed and the generator set is completed by
the two non-contractible Z loops along row 0 and column 0, fixing a single
ground state; the open-boundary (planar) patch already has a unique ground
state.  Region entropies are integer multiples of log 2 read from the
region itself: S(A) = rank(G|_A) - |A| in units of log 2, where G|_A is the
generator matrix restricted to the columns of A (Fattal, Cafaro, Haas and
Chuang, quant-ph/0406168).  A state is its column table (column c as an
integer over the generators): rank(G|_A) is the rank of A's X and Z
columns in it.  The code ORs each column from two grids of generator bits,
one of the stars and one of the plaquettes, on Python lists, and checks
none (the tests do, with ``oracle_reference.state_from_rows``).  The exact
I^N, for up to 18 regions, reduces each region's columns to a basis of
their span: for two regions or more the |A| terms cancel in the
alternating sum, which leaves the signed sum of the dimensions of the
regions' joint column spans.  One elimination hands each region's overlap
with the regions ahead to one pass over the regions in the order of their
lowest qubits, a sweep across the lattice, whose states are the subspaces
the regions behind share with those ahead: a handful on a ring of regions,
where a walk over the subsets would visit 2^N - 1.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    EmptyRegion,
    LatticeTooSmall,
    ParseError,
    TooManyQubits,
    TooManySubsystems,
    ValidationError,
    WindingRegion,
)
from .grid import OUTSIDE, GridCss, index_int, json_int, parse_grid_json, set_bits

#: regions of an exact I^N; its pass over the regions keeps one state per
#: subspace shared by the regions behind and ahead, and a scattered map can
#: have thousands
EXACT_SUBSET_CAP = 18

#: qubits of a code lattice (a 48 x 48 torus); its generators and column
#: table build in about 5 ms on a 2-core x86-64 VM
MAX_QUBITS = 4608


@dataclass(frozen=True)
class CodeLattice:
    """Square lattice of ``lx`` x ``ly`` vertices with edge qubits."""

    lx: int
    ly: int
    boundary: str = "torus"  # "torus" or "planar"

    def __post_init__(self):
        for name in ("lx", "ly"):
            object.__setattr__(self, name, index_int(getattr(self, name), f"lattice {name}"))
        if self.boundary not in ("torus", "planar"):
            raise ValidationError(f"boundary must be 'torus' or 'planar', got {self.boundary!r}")
        if self.lx < 2 or self.ly < 2:
            raise LatticeTooSmall(f"{self.lx}x{self.ly} lattice; need at least 2x2")
        if self.n_qubits > MAX_QUBITS:
            raise TooManyQubits(
                f"{self.lx}x{self.ly} lattice has {self.n_qubits} qubits; the cap is {MAX_QUBITS}"
            )

    @cached_property
    def periodic(self) -> bool:
        return self.boundary == "torus"

    @cached_property
    def face_shape(self) -> tuple[int, int]:
        """Cell grid the lattice faces form: (columns, rows)."""
        if self.periodic:
            return self.lx, self.ly
        return self.lx - 1, self.ly - 1

    @property
    def n_qubits(self) -> int:
        cols, rows = self.face_shape
        return cols * self.ly + self.lx * rows

    @cached_property
    def edge_qubits(self) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        """The qubit numbering, two grids of nested tuples: horizontal edge
        (i, j)-(i+1, j) has its qubit at ``[j][i]`` of the first, numbered
        row by row and first; vertical edge (i, j)-(i, j+1) at ``[j][i]`` of
        the second, row by row after them."""
        cols, rows = self.face_shape
        first = cols * self.ly
        return (
            tuple(tuple(range(j * cols, (j + 1) * cols)) for j in range(self.ly)),
            tuple(tuple(range(first + j * self.lx, first + (j + 1) * self.lx)) for j in range(rows)),
        )


@dataclass(frozen=True)
class StabilizerState:
    """Pure stabilizer state of ``n`` qubits as the column table of its
    generator matrix: bit g of column c is bit c of generator g, columns
    0..n-1 the qubits' X parts and n..2n-1 their Z parts.  Only the table's
    shape is checked, not the generators."""

    n: int
    columns: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", index_int(self.n, "qubit count"))
        if len(self.columns) != 2 * self.n:
            raise ValidationError(f"{len(self.columns)} columns for {self.n} qubits; need {2 * self.n}")
        # a column that is no int is named if it is no integer either, and
        # made an int otherwise (a bool or a numpy integer); the exact pass
        # shifts and XORs the columns, and a float would pass the range check
        if list(map(type, self.columns)).count(int) != len(self.columns):
            object.__setattr__(self, "columns", tuple(
                int(index_int(column, f"column {c}")) for c, column in enumerate(self.columns)))
        top = 1 << self.n
        if self.columns and (min(self.columns) < 0 or max(self.columns) >= top):
            c = next(c for c, column in enumerate(self.columns) if not 0 <= column < top)
            raise ValidationError(f"column {c} is {self.columns[c]}; columns lie in 0..2**{self.n} - 1")


def _echelon(rows: Iterable[int]) -> dict[int, int]:
    """An echelon basis of the rows' GF(2) span: highest bit -> vector."""
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            bit = row.bit_length() - 1
            if bit in pivots:
                row ^= pivots[bit]
            else:
                pivots[bit] = row
                break
    return pivots


def build_code(lattice: CodeLattice) -> StabilizerState:
    """Ground state of the star/plaquette code on the lattice.

    Stars are X-type and plaquettes Z-type, and a star meets a plaquette in
    zero or two edges, so the generators commute; without the last star (and
    on the torus the last plaquette, with the two non-contractible Z loops)
    they are independent, so the state takes its column table without the
    checks of ``state_from_rows`` in the tests.  An edge's X column is the
    OR of the bits of the two stars at its ends, its Z column that of the
    two plaquettes beside it, read from two grids of generator bits: one of
    the stars, the last 0, and one of the plaquettes, the last 0 on the
    torus and padded by a zero column and a zero row on the patch.  So the
    index of the next star or plaquette along a row or column, taken
    negative, wraps on the torus and lands on the padding on the patch.  The
    Z loops along row 0 and column 0 are ORed into those edges, and each
    column goes to its edge's qubit in :attr:`CodeLattice.edge_qubits`.
    """
    n, lx, ly = lattice.n_qubits, lattice.lx, lattice.ly
    cols, rows = lattice.face_shape
    # all stars, and on the torus all plaquettes, multiply to 1: the last is no generator
    stars = [[1 << (j * lx + i) for i in range(lx)] for j in range(ly)]
    stars[-1][-1] = 0
    first = lx * ly - 1  # generator of plaquette (0, 0)
    faces = [[1 << (first + j * cols + i) for i in range(cols)] for j in range(rows)]
    if lattice.periodic:
        faces[-1][-1] = 0
    else:
        faces = [row + [0] for row in faces] + [[0] * (cols + 1)]
    h, v = lattice.edge_qubits
    x, z = [0] * n, [0] * n
    for j in range(ly):
        s, t, f, g = stars[j], stars[j + 1 - ly], faces[j], faces[j - 1]
        # horizontal edge (i, j)-(i+1, j): stars (i, j), (i+1, j); plaquettes (i, j-1), (i, j)
        for i, q in enumerate(h[j]):
            x[q] = s[i] | s[i + 1 - lx]
            z[q] = f[i] | g[i]
        # vertical edge (i, j)-(i, j+1): stars (i, j), (i, j+1); plaquettes (i-1, j), (i, j)
        if j < rows:
            for i, q in enumerate(v[j]):
                x[q] = s[i] | t[i]
                z[q] = f[i] | f[i - 1]
        # no later edge reads star row j or plaquette row j - 1 (star row 0
        # and the last plaquette row, read again where the torus wraps,
        # stay); the bits are as wide as the columns, and held to the end
        # they raise a 104x104 torus's peak RSS from about 93 to 122 MB
        if j:
            stars[j] = faces[j - 1] = None
    if lattice.periodic:  # the Z loops along row 0 and column 0
        for q in h[0]:
            z[q] |= 1 << (n - 2)
        for row in v:
            z[row[0]] |= 1 << (n - 1)
    return StabilizerState(n, tuple(x + z))


# ----------------------------------------------------------------------
# entropies
# ----------------------------------------------------------------------

def _as_qubit_mask(state: StabilizerState, qubits: Iterable[int]) -> int:
    mask = 0
    for q in qubits:
        if not 0 <= q < state.n:
            raise ValidationError(f"qubit {q} out of range 0..{state.n - 1}")
        mask |= 1 << q
    if mask == 0:
        raise EmptyRegion("entropy of an empty qubit set is undefined")
    return mask


def _column_echelon(state: StabilizerState, qubits: Iterable[int]) -> dict[int, int]:
    """An echelon basis of the qubits' X and Z columns in ``state.columns``."""
    cols, n = state.columns, state.n
    return _echelon([c for q in qubits for c in (cols[q], cols[q + n])])


def entropy_bits(state: StabilizerState, qubits: Iterable[int]) -> int:
    """Entanglement entropy of a qubit set A, in units of log 2 (exact).

    S(A)/log 2 = rank(G|_A) - |A|, the GF(2) rank of the generators
    restricted to the columns of A (Fattal, Cafaro, Haas and Chuang,
    quant-ph/0406168), which is the rank of A's X and Z columns; the full
    set returns 0 by purity.
    """
    mask = _as_qubit_mask(state, qubits)
    return len(_column_echelon(state, set_bits(mask))) - mask.bit_count()


@dataclass(frozen=True)
class QubitRegionMap:
    """Disjoint qubit sets realizing subsystems on the lattice."""

    n_qubits: int
    regions: tuple[frozenset, ...]
    css: GridCss | None = None  # the grid the regions were rasterized from, if any

    def __post_init__(self):
        object.__setattr__(self, "n_qubits", index_int(self.n_qubits, "qubit count"))
        # one union, its sum's type (int when every qubit is an int or a bool; a
        # float or a numpy integer takes the loop below, which names the float),
        # a size sum and its bounds; the loop below names the first offender
        qubits = set().union(*self.regions)
        try:
            if type(sum(qubits)) is int and all(self.regions) and len(qubits) == sum(map(len, self.regions)) and (
                not qubits or 0 <= min(qubits) and max(qubits) < self.n_qubits
            ):
                return
        except TypeError:  # a qubit no int adds to or compares with, named below
            pass
        seen: set[int] = set()
        for k, region in enumerate(self.regions):
            if not region:
                raise ValidationError(f"region {k} is empty")
            for q in region:
                if not 0 <= index_int(q, f"a qubit of region {k}") < self.n_qubits:
                    raise ValidationError(f"region {k}: qubit {q} out of range")
                if q in seen:
                    raise ValidationError(f"qubit {q} appears in two regions")
                seen.add(q)

    @property
    def n_subsystems(self) -> int:
        return len(self.regions)


def _region_bases(state: StabilizerState, region_map: QubitRegionMap) -> list[list[int]]:
    """Each region's X and Z columns in ``state.columns``, reduced to a basis
    of their span, the regions in the order of their lowest qubits.  The
    lattice numbers its qubits row by row, so that order sweeps across the
    map; the regions are disjoint and none is empty, so it is unique."""
    return [list(_column_echelon(state, region).values()) for region in sorted(region_map.regions, key=min)]


def _join(rows: tuple[int, ...], vectors: Iterable[int]) -> tuple[int, ...]:
    """The reduced row echelon basis of span(rows) + span(vectors), highest
    pivot first (each row's pivot, its top bit, is clear in every other),
    for ``rows`` in that form already; ``()`` reduces the vectors alone.

    Only the vectors are reduced, each against the pivots kept so far; a
    vector that stays nonzero clears its pivot from the rows before it.
    """
    pivots, mask = {}, 0
    for r in rows:
        top = r.bit_length() - 1
        pivots[top] = r
        mask |= 1 << top
    for v in vectors:
        held = v & mask  # the pivots v holds; a reduced row holds no other pivot
        while held:
            top = held.bit_length() - 1
            v ^= pivots[top]
            held ^= 1 << top
        if v:
            top = v.bit_length() - 1
            for p, r in pivots.items():
                if r >> top & 1:
                    pivots[p] = r ^ v
            pivots[top] = v
            mask |= 1 << top
    if len(pivots) == len(rows):
        return rows
    return tuple(sorted(pivots.values(), reverse=True))


def _split(rows: tuple[int, ...], dim: int) -> int:
    """The index of the first row whose pivot lies below bit ``dim``: for a
    reduced echelon basis, the rows from it on span span(rows) & span(bits
    0..dim-1)."""
    for i, r in enumerate(rows):
        if r >> dim == 0:
            return i
    return len(rows)


def _overlaps(spaces: Sequence[Sequence[int]]) -> tuple[list[tuple[int, ...]], list[int]]:
    """Each space's overlap V_j & Z_{j+1} with the spaces after it, Z_j the
    span of ``spaces[j:]``, and dim Z_j for j = 0..N (dim Z_N = 0).

    The spaces are eliminated last first, and each vector of ``spaces[j]``
    independent of those before it is the next basis vector b_t itself, so
    the first dim Z_j of b_0, b_1, ... span Z_j and V_j holds b_t for every
    bit t of Z_j above Z_{j+1}.  In these flag coordinates a subspace of Z_j
    meets Z_{j+1} in the rows of its reduced echelon basis whose pivot lies
    below bit dim Z_{j+1} (:func:`_split`), and the coordinates' bits below
    it of the vectors that reduce to 0 span the overlap, kept as a reduced
    echelon basis (:func:`_join`).
    """
    pivots: dict[int, tuple[int, int]] = {}  # highest bit -> (vector, its coordinates)
    overlaps: list[tuple[int, ...]] = [()] * len(spaces)
    dims = [0] * (len(spaces) + 1)
    for j in reversed(range(len(spaces))):
        low, kept = (1 << len(pivots)) - 1, []
        for v in spaces[j]:
            c = 0  # the vector read = v + the basis vectors of coordinates c
            while v:
                top = v.bit_length() - 1
                if top not in pivots:
                    pivots[top] = (v, (1 << len(pivots)) ^ c)
                    break
                p, pc = pivots[top]
                v ^= p
                c ^= pc
            else:
                kept.append(c & low)
        overlaps[j] = _join((), kept)
        dims[j] = len(pivots)
    return overlaps, dims


def _signed_rank_sum(spaces: Sequence[Sequence[int]]) -> tuple[int, int]:
    """sum over every subset T of the spaces of (-1)^(N-|T|) dim W_T, with
    W_T = sum_{j in T} V_j, and the peak number of states on the way.

    One pass over the spaces, V_j taken in or left out at step j.  With
    Z_j = sum_{i >= j} V_i, the dimension V_j adds to W_T is
    dim V_j - dim(W_T & V_j), which depends only on W = W_T & Z_j, and
    (W_T + V_j) & Z_{j+1} = (W + V_j) & Z_{j+1}.  So the subsets that reach
    step j with the same W share one state, keyed by its reduced echelon
    basis in the flag coordinates of :func:`_overlaps`, whose value is
    (sum of signs, sum of sign * dim W_T): leaving V_j out negates it and
    keeps W & Z_{j+1} (:func:`_split`), taking V_j in adds
    sign * (dimension gained) to the second term, and a state whose value
    is (0, 0) is dropped.  The states number with the relations between
    the spaces behind and ahead of the step, not with 2^N.

    V_j holds the basis vector of each bit of Z_j above Z_{j+1}, so W + V_j
    is those bits plus (W + V_j) & Z_{j+1}, which W's rows with their high
    bits dropped span together with the overlap V_j & Z_{j+1}.

    The ``dims[j] - ahead`` in the dimension gained is the same for every
    state at step j, so a mutant such as ``dims[j] + ahead`` changes no
    result: a term that depends only on the step adds to W_T's dimension
    for every T that holds j, and those T carry alternating signs that sum
    to 0 for N >= 2; at N = 1, ``ahead`` is 0.
    """
    overlaps, dims = _overlaps(spaces)
    states: dict[tuple[int, ...], tuple[int, int]] = {(): (1, 0)}
    peak = 1
    for j, within in enumerate(overlaps):
        ahead = dims[j + 1]
        low = (1 << ahead) - 1
        step: dict[tuple[int, ...], tuple[int, int]] = {}
        for key, (sign, total) in states.items():
            below = key[_split(key, ahead):]
            joined = _join(within, [r & low for r in key])
            gained = dims[j] - ahead + len(joined) - len(key)
            for rows, ds, dt in ((below, -sign, -total), (joined, sign, total + sign * gained)):
                s, t = step.get(rows, (0, 0))
                step[rows] = (s + ds, t + dt)
        states = {key: value for key, value in step.items() if value != (0, 0)}
        peak = max(peak, len(states))
    return sum(total for _, total in states.values()), peak


def multipartite_information_exact(state: StabilizerState, region_map: QubitRegionMap) -> int:
    """Alternating entropy sum over all unions, in units of log 2 (exact).

    The sum of (-1)^(|S|+1) S(A_S) over the 2^N - 1 nonempty subsets S of
    regions, with S(A) = rank(G|_A) - |A|.  The regions are disjoint, so
    |A_S| is the sum of the regions' sizes, and for N >= 2 the alternating
    sum cancels it, leaving

        I^N = (-1)^(N+1) sum_{T} (-1)^(N-|T|) dim W_T,   W_T = sum_{j in T} V_j,

    with V_j the span of region j's X and Z columns, reduced to a basis
    (:func:`_region_bases`).  The sum is one pass over the regions' overlaps
    (:func:`_overlaps`) in the order of their lowest qubits, whose states are
    the subspaces the regions placed share with those still ahead
    (:func:`_signed_rank_sum`), a handful on a ring.  N = 1 is S(A_1) itself.
    """
    n = region_map.n_subsystems
    if n > EXACT_SUBSET_CAP:
        raise TooManySubsystems(f"{n} regions exceed the cap of {EXACT_SUBSET_CAP}")
    if region_map.n_qubits != state.n:
        raise ValidationError("region map and state disagree on qubit count")
    bases = _region_bases(state, region_map)
    if n == 1:
        return len(bases[0]) - len(region_map.regions[0])
    return (-1) ** (n + 1) * _signed_rank_sum(bases)[0]


# ----------------------------------------------------------------------
# grid CSS -> qubit regions
# ----------------------------------------------------------------------

def torus_cut(css: GridCss) -> GridCss:
    """A torus grid rolled so that its last row and last column are empty.

    Cut along that row and column, the torus is a rectangle that holds the
    whole footprint with the same walls between the same cells, so the
    rolled grid is the torus grid's planar form: the grid to rasterize and
    to count on.  ``css`` itself when its last row and column are empty
    already.  WindingRegion when the footprint meets every row or every
    column, as every footprint that winds around the torus does; a
    ValidationError that names the roll for a pinch across the seam, which
    only the rolled grid shows.  An empty row is a row slice of the labels,
    an empty column a strided slice, all OUTSIDE; the roll moves the rows
    after the last empty one to the top and, in each row, the cells after
    the last empty column to its front.
    """
    width, height, labels = css.width, css.height, css.labels
    empty_rows = [y for y in range(height) if labels[y * width:(y + 1) * width].count(OUTSIDE) == width]
    empty_cols = [x for x in range(width) if labels[x::width].count(OUTSIDE) == height]
    if not (empty_rows and empty_cols):
        what = "column" if empty_rows else "row"
        raise WindingRegion(f"footprint meets every {what} of the {width}x{height} torus")
    shift = (height - 1 - empty_rows[-1], width - 1 - empty_cols[-1])
    if shift == (0, 0):
        return css
    top, left = (empty_rows[-1] + 1) * width, empty_cols[-1] + 1
    rows = labels[top:] + labels[:top]
    rolled = []
    for k in range(0, len(rows), width):
        rolled += rows[k + left:k + width]
        rolled += rows[k:k + left]
    try:
        return GridCss(width, height, tuple(rolled), name=css.name)
    except ValidationError as exc:
        raise ValidationError(f"{exc} of the grid rolled by {shift[1]} columns and {shift[0]} rows") from exc


def rasterize_css(lattice: CodeLattice, css: GridCss) -> QubitRegionMap:
    """Overlay a grid CSS onto the lattice faces and assign edge qubits.

    A cell of the CSS is a lattice face.  Every edge bordering at least one
    subsystem cell is owned: a wall between two subsystem cells goes to the
    north (horizontal walls) or west (vertical walls) cell's subsystem, any
    other bordering edge to its unique subsystem side, so every subsystem
    cell owns at least its south edge.  On the torus the grid is replaced by
    its planar cut (:func:`torus_cut`); the region map keeps the grid it
    rasterized.  The owners come from one walk over the grid's cells, the
    rule stated per cell: a subsystem cell owns its south and east edges,
    and its north (west) edge when the cell above (to its left) is OUTSIDE
    or off the grid, each edge by its qubit in
    :attr:`CodeLattice.edge_qubits`.
    """
    cols, rows = lattice.face_shape
    if (css.width, css.height) != (cols, rows):
        raise ValidationError(
            f"CSS is {css.width}x{css.height} but the lattice has {cols}x{rows} faces"
        )
    if lattice.periodic:
        css = torus_cut(css)  # so every face across the seam is OUTSIDE, as off the grid
    h, v = lattice.edge_qubits
    labels = css.labels
    regions: list[list[int]] = [[] for _ in range(css.n_subsystems)]
    above = (OUTSIDE,) * cols  # the row off the grid
    for y in range(rows):
        row = labels[y * cols:(y + 1) * cols]
        # the torus's last row is empty, so h[0] in its place is never read
        north, south, west = h[y], h[y + 1 - lattice.ly], v[y]
        for x, label, up, left in zip(range(cols), row, above, (OUTSIDE,) + row):
            if label != OUTSIDE:
                region = regions[label]
                region += (south[x], west[x + 1])
                if up == OUTSIDE:
                    region.append(north[x])
                if left == OUTSIDE:
                    region.append(west[x])
        above = row
    return QubitRegionMap(lattice.n_qubits, tuple(map(frozenset, regions)), css)


# ----------------------------------------------------------------------
# lattice scenario payloads
# ----------------------------------------------------------------------

def parse_lattice_scenario(obj: Mapping) -> tuple[CodeLattice, QubitRegionMap]:
    """Parse ``{"Lx", "Ly", "boundary", "regions": {name: [qubit, ...]}}``.

    Region names are sorted for deterministic subsystem order.  A "css"
    grid payload may replace "regions", in which case it is rasterized and
    the region map keeps the grid; a lattice takes one of the two.
    """
    if not isinstance(obj, Mapping) or not {"Lx", "Ly"} <= obj.keys():
        raise ParseError("a lattice must be an object with integer 'Lx' and 'Ly'")
    boundary = obj.get("boundary", "torus")
    if not isinstance(boundary, str):
        raise ParseError(f"lattice 'boundary' must be a string, got {boundary!r}")
    lattice = CodeLattice(json_int(obj["Lx"], "lattice 'Lx'"), json_int(obj["Ly"], "lattice 'Ly'"), boundary)
    if "regions" in obj and "css" in obj:
        raise ParseError("a lattice takes 'regions' or 'css', not both")
    if "css" in obj:
        return lattice, rasterize_css(lattice, parse_grid_json(obj["css"]))
    if "regions" not in obj:
        raise ValidationError("lattice scenario needs 'regions' or 'css'")
    named = obj["regions"]
    if not isinstance(named, Mapping):
        raise ParseError(f"lattice 'regions' must be an object, got {named!r}")
    try:
        regions = tuple(
            frozenset(json_int(q, f"a qubit of region {key!r}") for q in named[key])
            for key in sorted(named)
        )
    except TypeError as exc:
        raise ParseError(f"bad lattice regions: {exc}") from exc
    return lattice, QubitRegionMap(lattice.n_qubits, regions)
