"""Multipartite information of a grid CSS.

The N-partite information of subsystems A_1..A_N is the alternating
inclusion-exclusion sum of union entropies

    I^N = sum_{m=1..N} (-1)^(m-1) sum_{|Q|=m} S(union Q)  -  S(intersection),

with the global intersection empty by construction (disjoint subsystems),
so its term is identically zero.  Under the topology entropy model the
per-link coefficient cancels and

    I^N = -C^N log(D),    C^N = alternating sum of boundary counts J.

C^N is an exact integer and is the primary quantity of record; reported
information values are C^N scaled by the topological entropy.  The link
terms need no evaluation: a grid segment borders at most two subsystems,
so their alternating sum vanishes for N >= 3.  Entry points take a
GridCss or a CssAnalysis, the one object of a CSS: its holes, hole loops,
graph and chi and, as a UnionTopology, its 2^N tables (the only capped
part), each computed once.  C of a sub-collection reads only the grid's
labelling, its cell-component graph and the junction corners of its
validation scan (``GridCss.junctions``), no 2^N table, and so answers
beyond the cap: one or two ids give the J of their unions
(``grid.union_boundary_count``, two ``grid.count_components`` over the
labelling's walls); from three on, the signed component sum
(``masks.signed_component_sum``) is split over the blocks of the
sub-collection's graph, a plain cycle (every hole loop of the gallery) is
read in closed form, only a block with a chord is walked, and a walk past
its state cap reads a table of its own groups.  The J table is read only
when a caller asks for it (``multipartite_information``,
``analyze --csv``); sigma reads no table, and a failing sigma precondition
is named from the labelling.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import (
    DisconnectedCss,
    NotACycle,
    NotAnnular,
    TooManySubsystems,
    ValidationError,
)
from .grid import (
    GridCss,
    HoleSet,
    SimpleGraph,
    adjacency_graph,
    euler_characteristic,
    find_holes,
    loop_around_hole,
    union_boundary_count,
)
from .masks import (
    UnionTopology,
    signed_component_sum,
    subset_sums,
)
from .model import EntropyModel

#: the schema tag of every JSON report
SCHEMA = "topo-mpi/1"

#: cap on N for the recursion check, which builds 2^N float tables
RECURSION_CAP = 12


# ----------------------------------------------------------------------
# one analysis per CSS, the connectivity count and the information value
# ----------------------------------------------------------------------

class CssAnalysis(UnionTopology):
    """Holes, hole loops, adjacency graph, chi and C of one CSS on top of its
    2^N tables, each computed on first use and kept as long as the analysis.
    The holes, graph and chi are read from the grid's one labelling
    (``GridCss.labelling``), and the C of each sub-collection is walked once
    and kept by its sorted ids.  Only the tables are capped: the rest answers
    at any N, and C of any ids unless the frontier walk of a block with a
    chord passes its state cap and they number more than
    ``masks.MAX_SUBSYSTEMS``."""

    @staticmethod
    def of(css: GridCss | CssAnalysis) -> CssAnalysis:
        return css if isinstance(css, CssAnalysis) else CssAnalysis(css)

    @cached_property
    def holes(self) -> HoleSet:
        return find_holes(self.css)

    @cached_property
    def graph(self) -> SimpleGraph:
        return adjacency_graph(self.css)

    @cached_property
    def hole_loops(self) -> tuple[tuple[int, ...] | str, ...]:
        """Loop around each hole, or the NotACycle message for a hole without one."""
        loops: list[tuple[int, ...] | str] = []
        for hole in self.holes.holes:
            try:
                loops.append(loop_around_hole(self.css, hole, self.graph))
            except NotACycle as exc:
                loops.append(str(exc))
        return tuple(loops)

    @cached_property
    def chi(self) -> int:
        """The plane's Euler characteristic, 2 (``grid.euler_characteristic``);
        DisconnectedCss unless the footprint is connected."""
        return euler_characteristic(self.css)

    @cached_property
    def c_n(self) -> int:
        """C^N, the alternating sum of J over every non-empty subset."""
        return self.c_within(range(self.css.n_subsystems))

    @cached_property
    def _c_memo(self) -> dict[tuple[int, ...], int]:
        """C of each sub-collection computed so far, keyed by its sorted ids."""
        return {}

    def c_within(self, ids: Iterable[int]) -> int:
        """C of the sub-collection ``ids`` (the C^N of ``restrict_css(css, ids)``):
        the alternating sum of J over the non-empty subsets of ``ids``.

        One or two ids give J(i), or J(i) + J(j) - J(ij), read from the
        labelling (``grid.union_boundary_count``).  From three on, with
        J = 2 components - chi, this is -2 s - (the junction corners of
        exactly ``ids``, as only a corner holds three subsystems and none
        four; 0 beyond three ids), s being the signed component sum of the
        subsystems' cell-components (``masks.signed_component_sum``), so no
        2^N table is built: a ring is a plain cycle, read in closed form,
        and only a block with a chord is walked.  A walk past its state cap
        reads its block's term from the 2^k component table of the k ids
        alone, which raises TooManySubsystems above ``masks.MAX_SUBSYSTEMS``
        ids.  Valid ids are computed once per analysis, kept by their sorted ids.
        """
        n, keep = self.css.n_subsystems, tuple(sorted(set(ids)))
        if not keep or keep[0] < 0 or keep[-1] >= n:
            raise ValidationError(f"no sub-collection {list(keep)} of {n} subsystems")
        if keep not in self._c_memo:
            self._c_memo[keep] = self._c_of(keep)
        return self._c_memo[keep]

    def _c_of(self, keep: tuple[int, ...]) -> int:
        """:meth:`c_within` of valid sorted ids, computed."""
        if len(keep) <= 2:  # J(i), or J(i) + J(j) - J(ij)
            c = sum(union_boundary_count(self.css, [i]) for i in keep)
            return c if len(keep) == 1 else c - union_boundary_count(self.css, keep)
        adj, cv_mask, _ = self._cell_component_graph
        s = signed_component_sum(adj, [cv_mask[i] for i in keep])
        # sum over S in keep of (-1)^|S| chi(S) is minus the junction corners
        # of keep, which hold three ids: no window holds four subsystems
        return -2 * s - (self._junction_counts[frozenset(keep)] if len(keep) == 3 else 0)

    @cached_property
    def _junction_counts(self) -> Counter[frozenset[int]]:
        """The junction corners (``GridCss.junctions``) per set of three ids."""
        return Counter(map(frozenset, self.css.junctions))


def connectivity_count(css: GridCss | CssAnalysis) -> CssAnalysis:
    """The analysis of ``css`` with its C^N (``c_n``) computed, with no J table."""
    analysis = CssAnalysis.of(css)
    analysis.c_n  # computed in this call, not at the caller's first read
    return analysis


def _information_value(model: EntropyModel, analysis: CssAnalysis) -> tuple[int, float]:
    """(C^N, I^N = -C^N S_topo); the N-partite information needs N >= 3."""
    if analysis.css.n_subsystems < 3:
        raise ValidationError("N-partite information needs N >= 3")
    return analysis.c_n, -analysis.c_n * model.s_topo


def subset_entropy_table(model: EntropyModel, css: GridCss | CssAnalysis) -> np.ndarray:
    """Model entropy of every subset union, indexed by bitmask (entry 0 = 0)."""
    analysis = CssAnalysis.of(css)
    return model.entropy(analysis.boundary_links_table, analysis.j_table)


# ----------------------------------------------------------------------
# full report
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class HoleReport:
    loop: tuple[int, ...] | None
    info: float | None  # I around the hole, selected units
    error: str | None = None
    c: int | None = None  # C around the hole: info = -c S_topo


@dataclass(frozen=True)
class InfoSummary:
    """I^N of a CSS and the I around each hole, with no 2^N table."""

    name: str
    n_subsystems: int
    c_n: int
    i_n: float  # selected units
    dimension: float
    chi: int | None
    holes: tuple[HoleReport, ...]
    constraint_sum: float | None

    @property
    def i_n_nats(self) -> float:
        return -self.c_n * math.log(self.dimension)

    @property
    def i_n_log2(self) -> float:
        return -self.c_n * math.log2(self.dimension)

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "name": self.name,
            "n": self.n_subsystems,
            "c_n": self.c_n,
            "i_n_nats": self.i_n_nats,
            "i_n_log2": self.i_n_log2,
            "s_intersection": 0.0,
            "chi": self.chi,
            "holes": [
                {"loop": list(h.loop) if h.loop else None, "i": h.info, "error": h.error}
                for h in self.holes
            ],
            "constraint_sum": self.constraint_sum,
        }


@dataclass(frozen=True)
class InfoReport(InfoSummary):
    """The summary plus the J of every subset mask."""

    per_subset_j: np.ndarray


def multipartite_information(model: EntropyModel, css: GridCss | CssAnalysis) -> InfoReport:
    """:func:`information_summary` plus the 2^N J table, built in this call."""
    analysis = CssAnalysis.of(css)
    return InfoReport(**vars(information_summary(model, analysis)), per_subset_j=analysis.j_table)


def information_summary(model: EntropyModel, css: GridCss | CssAnalysis) -> InfoSummary:
    """I^N of the whole CSS plus the per-hole loop decomposition."""
    analysis = CssAnalysis.of(css)
    c_n, i_n = _information_value(model, analysis)

    try:
        chi: int | None = analysis.chi
    except DisconnectedCss:
        chi = None

    hole_reports = []  # I = -C S_topo around each hole; a loop has >= 3 subsystems
    for loop in analysis.hole_loops:
        if isinstance(loop, str):
            hole_reports.append(HoleReport(None, None, loop))
        else:
            c = analysis.c_within(loop)
            hole_reports.append(HoleReport(loop, -c * model.s_topo, c=c))

    if hole_reports and all(h.error is None for h in hole_reports):
        constraint_sum: float | None = sum(abs(h.info) for h in hole_reports)
    else:
        constraint_sum = None

    return InfoSummary(
        name=analysis.css.name,
        n_subsystems=analysis.css.n_subsystems,
        c_n=c_n,
        i_n=i_n,
        dimension=model.quantum_dimension,
        chi=chi,
        holes=tuple(hole_reports),
        constraint_sum=constraint_sum,
    )


#: rows of the J table that ``write_subset_table_csv`` converts at a time
CSV_BLOCK = 1 << 16


def write_subset_table_csv(j_table: np.ndarray, fileobj) -> None:
    """Debug CSV of a 2^N J table: mask, m, J, sign, with the ``\\r\\n`` row
    ends of ``csv.writer``, written a block of rows at a time, each block as
    one string (:func:`_csv_rows`), so no 2^N array is built beside the table."""
    fileobj.write("mask,m,J,sign\r\n")
    for start in range(1, len(j_table), CSV_BLOCK):
        fileobj.write(_csv_rows(start, j_table[start:start + CSV_BLOCK]))


def _csv_rows(start: int, j: np.ndarray) -> str:
    """The CSV rows of the masks from ``start`` on, whose J values are ``j``:
    the masks' strings interleaved with each row's ``,m,J,sign`` tail, looked
    up from the block's distinct (J, m) pairs."""
    stop = start + len(j)
    m = np.bitwise_count(np.arange(start, stop, dtype=np.uint32))
    # each (J, m) as J * 32 + m, as m <= 24 < 32
    pairs, row_pair = np.unique(j.astype(np.int64) * 32 + m, return_inverse=True)
    tails = np.array([f",{k & 31},{k >> 5},{k % 2 * 2 - 1}\r\n" for k in pairs.tolist()], dtype=object)
    parts = [""] * (2 * len(j))
    parts[::2] = map(str, range(start, stop))
    parts[1::2] = tails[row_pair].tolist()
    return "".join(parts)


# ----------------------------------------------------------------------
# annular structure
# ----------------------------------------------------------------------

def annular_order(css: GridCss | CssAnalysis) -> tuple[int, ...]:
    """Cyclic subsystem order of an annular CSS.

    A CSS counts as annular when exactly one of its holes is ringed by a
    cycle through every subsystem.  Extra holes punched inside single
    subsystems or under nearest-neighbour handles do not yield such a
    cycle and are ignored here.
    """
    analysis = CssAnalysis.of(css)
    if analysis.holes.n_h == 0:
        raise NotAnnular("CSS has no hole")
    n = analysis.css.n_subsystems
    full_loops = [
        loop for loop in analysis.hole_loops if not isinstance(loop, str) and len(loop) == n
    ]
    if len(full_loops) != 1:
        raise NotAnnular(f"{len(full_loops)} holes are ringed by all {n} subsystems")
    return full_loops[0]


# ----------------------------------------------------------------------
# sub-loop revival under a further-neighbour handle
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SubloopResult:
    p: int
    q: int
    loop_p: tuple[int, ...]
    loop_q: tuple[int, ...]
    info_p: float
    info_q: float
    c_p: int  # C around each loop: info_p = -c_p S_topo
    c_q: int


def subloop_revival(model: EntropyModel, css: GridCss | CssAnalysis) -> SubloopResult:
    """I^p and I^q of the two loops created by a further-neighbour handle.

    Requires exactly two holes whose loops are proper cycles sharing the
    two handle endpoints, so that p + q - 2 = N.
    """
    analysis = CssAnalysis.of(css)
    n_h = analysis.holes.n_h
    if n_h != 2:
        raise ValidationError(
            f"expected exactly 2 holes from a further-neighbour handle, found {n_h}"
        )
    for loop in analysis.hole_loops:
        if isinstance(loop, str):
            raise NotACycle(loop)
    loops = sorted(analysis.hole_loops, key=len)
    p, q = len(loops[0]), len(loops[1])
    n = analysis.css.n_subsystems
    if p + q - 2 != n:
        raise ValidationError(
            f"loop sizes {p} + {q} - 2 != N = {n}; not a single-handle deformation"
        )
    c_p, c_q = (analysis.c_within(loop) for loop in loops)
    return SubloopResult(
        p=p,
        q=q,
        loop_p=loops[0],
        loop_q=loops[1],
        info_p=-c_p * model.s_topo,
        info_q=-c_q * model.s_topo,
        c_p=c_p,
        c_q=c_q,
    )


# ----------------------------------------------------------------------
# recursion over lower-order informations
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RecursionResult:
    lhs: float
    rhs: float

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.rhs)


def recursion_check(model: EntropyModel, css: GridCss | CssAnalysis) -> RecursionResult:
    """Expand I^N over all lower-order informations and compare.

    I^N = sum_{mu=1..N-2} (-1)^(mu-1) sum_{|R|=N-mu} I_R
          + (-1)^N (sum_i S_i - S_union).

    By inclusion-exclusion the expansion holds for any set function S, so
    the residual measures only float rounding in ``subset_sums``.  No
    scenario runs it; it stays a library check of the subset transform.
    """
    analysis = CssAnalysis.of(css)
    n = analysis.css.n_subsystems
    if n < 2:
        raise ValidationError("recursion needs at least 2 subsystems")
    if n > RECURSION_CAP:
        raise TooManySubsystems(f"recursion check capped at N = {RECURSION_CAP}")
    s = subset_entropy_table(model, analysis)
    info = subset_sums(analysis.signs * s)  # I_R for every subset R
    popcounts = analysis.popcounts

    lhs = float(info[-1])
    middle = 0.0
    for mu in range(1, n - 1):
        size = n - mu
        sign = (-1) ** (mu - 1)
        middle += sign * float(info[popcounts == size].sum())
    singles = sum(float(s[1 << i]) for i in range(n))
    tail = (-1) ** n * (singles - float(s[-1]))
    return RecursionResult(lhs, middle + tail)


# ----------------------------------------------------------------------
# entanglement vector over an annular family
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CssFamily:
    """Annular CSS of every size p = 3..N, one per size."""

    members: tuple[GridCss, ...]

    def __post_init__(self):
        if not self.members:
            raise ValidationError("family is empty")
        for k, analysis in enumerate(self.analyses):
            n = analysis.css.n_subsystems
            if n != k + 3:
                raise ValidationError(f"family member {k} has {n} subsystems, expected {k + 3}")
            annular_order(analysis)  # raises NotAnnular on bad members

    @cached_property
    def analyses(self) -> tuple[CssAnalysis, ...]:
        """One analysis per member, shared by the annular check and the vector."""
        return tuple(CssAnalysis(css) for css in self.members)

    @property
    def max_n(self) -> int:
        return len(self.members) + 2


@dataclass(frozen=True)
class EntanglementVector:
    magnitudes: tuple[float, ...]  # |I^p|, p = 3..N
    normalized: tuple[float, ...]
    is_zero: bool


def entanglement_vector(model: EntropyModel, family: CssFamily) -> EntanglementVector:
    """Normalized vector of |I^p|, p = 3..N.

    The normalisation sqrt((N-2) / sum |I^p|^2) maps a topologically
    ordered family to (1, ..., 1); an all-zero family is returned
    unnormalised with the zero flag set.
    """
    mags = tuple(
        abs(_information_value(model, analysis)[1]) for analysis in family.analyses
    )
    total = sum(m * m for m in mags)
    if total == 0.0:
        return EntanglementVector(mags, mags, True)
    scale = math.sqrt(len(mags) / total)
    return EntanglementVector(mags, tuple(m * scale for m in mags), False)
