"""Exact per-subset topology tables for a grid CSS.

For every non-empty subset of subsystems (a bitmask) we need the number of
disconnected boundaries J of the union and its perimeter-link count.  Doing
a flood fill per mask is exact but O(2^N * cells); instead we decompose the
counts combinatorially:

* the union of closed cells is a cubical complex whose Euler characteristic
  V - E + F is read from the grid's 2x2 windows ``a b / c d`` by a bit-quad
  count, after S. B. Gray (IEEE Trans. Comput. C-20, 551 (1971)): let
  each lattice vertex own the cell north-east of it and that cell's west
  and south edges, and chi(S) is the number of windows where S holds c
  alone, less those where S holds every cell but b, less those where S
  holds a and d only, which the pinch rule leaves none of.  The grid's
  one pass records the windows that can count (``GridCss.corners``), and
  they spread into signed entries of one {mask: weight} dict in Python,
  with no numpy call (``UnionTopology._chi_entries``).  The table is
  their subset sums
  (:func:`subset_table`): entry S sums the weights of the entries whose
  mask lies in S.  The perimeter-link count is a weighted sum over the
  segments, each present for a mask iff it meets the segment's user set
  U, the subsystems on its two sides.  Totalled per distinct U first, from
  the counts of one ``np.unique`` over the user sets tagged with the index
  of their (users, weight) pair, the Moebius expansion
  [U meets S] = sum over non-empty V in U of (-1)^(|V|-1) [V in S] spreads
  each U into signed entries of the same kind (:func:`meet_entries`).
  The entries are few, so no 2^N histogram is filled:
  seen as rows of 2^``ROW_BITS`` entries, the entries are grouped by row
  in Python, only the rows that hold one are built and summed over their
  low bits, and the table is filled by doubling, one higher bit at a time:
  the half with the bit is the half without it plus each live row whose
  top bit it is, over the masks that hold that row;
* the component count of a union equals the component count of the induced
  subgraph on per-subsystem cell-components (:func:`component_counts`).
  For every induced subgraph, components = |V| - |E| + cycle rank, and the
  cycle rank is the sum of those of its blocks (2-connected pieces, found
  once per grid: ``GridCss.cell_blocks``).  So a subset S counts +1 per
  vertex whose group is in S, -1 per edge whose groups are in S and +1 per
  plain-cycle block whose groups are all in S (more entries, in the same
  dict).  The blocks with a chord are
  walked together on their own edges, every subset whole, in blocks of
  2^``BLOCK_BITS`` subsets (:func:`_walk_components`): each numpy pass
  grows every subset's component through per-byte neighbour tables, and
  one that stopped growing counts it and restarts from its lowest
  remaining vertex (uint32, uint64 or Python int vertex masks; split
  subsystems take no branch).  That walk counts |V| - |E| + cycle rank of
  those blocks, so their vertices and edges add no entry;
* pinch-freeness (enforced by grid validation) makes the complex
  homotopy-faithful, so holes = components - chi and J = 2*components - chi.
  J is built in one table: the -chi corner entries and twice the
  component entries are summed over subsets once, and twice the chorded
  blocks' walked table is added to it a row of 2^``ROW_BITS`` entries at
  a time.  That table is the narrowest of int8, int16 and int32 that holds
  L - 1, L being the number of components of the grid's labelling, which
  bounds every J (:attr:`UnionTopology.j_table`).  Its sums are taken in
  that type modulo 2^bits, which is exact as every final entry lies in
  [0, L - 1]; widen before arithmetic that can leave the range.  The Euler,
  link and component tables are int32.

C and rho read no table (:mod:`topomi.walk`) unless a walk passes its state
cap, and then its block's :func:`alternating_sum`.  This is the one module
that imports numpy; every 2^n table is capped at ``MAX_SUBSYSTEMS`` groups.

The flood-fill definition stays available in :mod:`topomi.grid`; the test
suite compares every table with it, for every width of vertex mask.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import TooManySubsystems
from .grid import GridCss, pack_bits, set_bits
from .walk import _cycle_blocks, _induced, _plain_cycle

#: cap on the groups of any 2^n table, a CSS's subsystems or a graph's vertices (2**24 masks)
MAX_SUBSYSTEMS = 24
#: the component walk takes its subsets in blocks of 2**BLOCK_BITS
BLOCK_BITS = 16
#: :func:`subset_table` sums its entries over the low ROW_BITS bits in the
#: live rows of 2**ROW_BITS entries and fills the higher bits by doubling;
#: :func:`add_components` adds the chorded blocks' table a row at a time.
#: add_components on the merged J entries of 20 ``random-n20`` inputs (seed
#: 1, int8 tables), mean of the best of 7, five runs on a 2-core x86-64 VM,
#: at 8, 9, 10, 11, 12 and 14: 0.23-0.31, 0.21-0.23, 0.21-0.23, 0.22-0.23,
#: 0.25-0.27 and 0.44-0.47 ms
ROW_BITS = 10


def subset_signs(n: int) -> np.ndarray:
    """(-1)**(m-1) for the size m of every subset mask of n bits, as int8; entry 0 is 0."""
    odd = np.bitwise_count(np.arange(1 << n, dtype=np.uint32)) & 1
    signs = np.where(odd, np.int8(1), np.int8(-1))
    signs[0] = 0
    return signs


def subset_sums(table: np.ndarray) -> np.ndarray:
    """In place over the last axis, of 2^n entries, of the C-ordered ``table``:
    entry S becomes the sum of the entries of S's subsets.

    One pass per bit i adds each entry without bit i to its partner with it,
    viewing the table as (-1, 2, 2^i).  Bits 1, 2 and 3 leave contiguous
    runs of only 2, 4 and 8 entries, so numpy's inner loop would be that
    short; their pass iterates the transposed views in C order instead, so
    the inner loop runs along the long axis.  On the live rows of a
    ``random-n20`` J table (12-17 x 1024, int8) that is faster for bit 3
    too, but not for bit 4 (runs of 16).  Every pass writes into the table
    itself, with no temporary of its size.
    """
    for i in range(table.shape[-1].bit_length() - 1):
        view = table.reshape(-1, 2, 1 << i)
        if i in (1, 2, 3):
            upper = view[:, 1, :].T
            np.add(upper, view[:, 0, :].T, out=upper, order="C")
        else:
            view[:, 1, :] += view[:, 0, :]
    return table


def meet_entries(weighted_users) -> dict[int, int]:
    """The {mask: weight} entries whose subset sums (:func:`subset_table`)
    give, per mask S, the total weight of the features meeting S, given as
    a sequence of (user-set array, weight) pairs; no pairs give no entries.

    The weights are first totalled per distinct user set, from one
    ``np.unique(keys, return_counts=True)``.  A feature's key is its user
    set shifted left by (pairs - 1).bit_length() bits, a field that holds
    the index of its pair for any number of pairs.  So a distinct key is
    one user set under one weight, and its count times that weight adds to
    the set's total.  Then [U meets S] = sum over the non-empty submasks V
    of U of (-1)^(|V|-1) [V subset of S] spreads each distinct set over its
    submasks, walked as V -> (V - 1) & U, into one dict of Python ints.  A
    grid's user sets have at most 3 bits (no window holds four labels), so
    a set spreads into at most 7 entries.
    """
    if not weighted_users:
        return {}
    field = (len(weighted_users) - 1).bit_length()
    keys = np.concatenate([users.ravel() << field | i for i, (users, _) in enumerate(weighted_users)])
    keys, counts = np.unique(keys, return_counts=True)
    totals: dict[int, int] = {}
    for key, count in zip(keys.tolist(), counts.tolist()):
        u = key >> field
        totals[u] = totals.get(u, 0) + count * weighted_users[key & (1 << field) - 1][1]
    entries: dict[int, int] = {}
    for u, w in totals.items():
        sub = u if w else 0  # a set whose weights cancel adds nothing
        while sub:
            entries[sub] = entries.get(sub, 0) + (w if sub.bit_count() & 1 else -w)
            sub = (sub - 1) & u
    return entries


def subset_table(n: int, entries: dict[int, int], dtype=np.int32) -> np.ndarray:
    """The 2^n table of signed integer ``dtype`` whose entry S is the summed
    weight of the {mask: weight} ``entries`` whose mask is a subset of S.

    The sums are taken in ``dtype`` itself, modulo 2^bits: numpy's integer
    add and its narrowing assignment wrap, so a partial sum may leave the
    type's range, and each entry is exact when its final value lies in it.

    The entries come merged, one weight per mask, and those of weight 0 are
    dropped.  Seen as rows of 2^r entries, r = min(n, ``ROW_BITS``), a row
    is live when an entry falls in it.  The entries are grouped into their
    live rows in Python, and the live rows alone are built: one (rows, 2^r)
    array of zeros, filled by one fancy assignment from an int64 array of
    the weights (which wraps into ``dtype``), and summed over the low r bits
    at once (:func:`subset_sums`).  Row H of the table is then the sum of
    the summed live rows R with R a subset of H, and it is filled by
    doubling: rows 0 .. 2^j - 1 hold their sums, and rows 2^j .. 2^(j+1) - 1
    are a copy of them plus each live row R whose top bit is j, added over
    the sub-view of the rows that hold R's other bits.  A live row that is
    bit j alone is added in the copy.  So no 2^n histogram is filled first,
    and each entry of the table is written once plus once per live row it
    holds.
    """
    r = min(n, ROW_BITS)
    rows: dict[int, int] = {}  # each live row's index in the array of live rows
    at, cols, weights = [], [], []
    for key, weight in entries.items():
        if weight:
            at.append(rows.setdefault(key >> r, len(rows)))
            cols.append(key & (1 << r) - 1)
            weights.append(weight)
    low = np.zeros((len(rows), 1 << r), dtype=dtype)
    low[at, cols] = np.array(weights, dtype=np.int64)
    live = dict(zip(rows, subset_sums(low)))
    table = np.empty(1 << n, dtype=dtype)
    by_row = table.reshape(-1, 1 << r)
    by_row[0] = live.pop(0, 0)
    for j in range(n - r):
        lower, upper = by_row[:1 << j], by_row[1 << j:2 << j]
        if 1 << j in live:
            np.add(lower, live.pop(1 << j), out=upper)
        else:
            upper[...] = lower
        for row in [row for row in live if row >> j == 1]:
            # the axes of the (2,)*j view run from bit j - 1 down
            held = tuple(1 if row >> k & 1 else slice(None) for k in reversed(range(j)))
            upper.reshape(*(2,) * j, 1 << r)[held] += live.pop(row)
    return table


def alternating_sum(view: np.ndarray) -> int:
    """Sum of (-1)**(|S|-1) * view[S] over the non-empty subsets S of the axes of
    a (2,)*k view.

    That is the empty-set entry plus (-1)**(k-1) times the top Moebius
    coefficient, read by halving each axis as ``view[1] - view[0]``, the
    first time into int64, so a narrow table sums exactly and no table of
    signs is built.
    """
    top = view
    for _ in range(view.ndim):
        top = np.subtract(top[1], top[0], dtype=np.int64)
    return int(view[(0,) * view.ndim]) - (-1) ** view.ndim * int(top)


def _or_table(items: list[int], dtype) -> np.ndarray:
    """Entry S is the OR of ``items[i]`` over the bits i of S (2^len(items) entries)."""
    table = np.zeros(1, dtype=dtype)
    for item in items:
        table = np.concatenate([table, table | np.array(item, dtype=dtype)])
    return table


def component_counts(adj: list[int], groups: list[int]) -> np.ndarray:
    """Components of the subgraph induced by every subset of vertex groups.

    ``adj[v]`` is the neighbour bitmask of vertex v and ``groups[i]`` the
    vertex bitmask of group i; the groups are disjoint and cover the
    vertices.  Entry ``mask`` (int32) counts the components induced by the
    union of the groups in ``mask`` (entry 0 is 0).  TooManySubsystems above
    ``MAX_SUBSYSTEMS`` groups, the cap of every 2^n table.
    """
    if len(groups) > MAX_SUBSYSTEMS:
        raise TooManySubsystems(f"{len(groups)} groups exceed the table's cap of {MAX_SUBSYSTEMS}")
    return add_components({}, adj, groups)


def add_components(entries, adj: list[int], groups: list[int], scale=1, dtype=np.int32, blocks=None) -> np.ndarray:
    """The :func:`subset_table` of ``dtype`` of the {mask: weight}
    ``entries`` over the n = len(groups) groups, plus ``scale`` times
    :func:`component_counts` of ``adj`` and ``groups``, summed modulo
    2^bits of ``dtype`` as in :func:`subset_table`.

    Components = |V| - |E| + cycle rank for every induced subgraph, and its
    cycle rank is the sum of its blocks' own, each the cycle rank of the
    subgraph a block of the whole graph induces: ``blocks``, the graph's
    :func:`_cycle_blocks` when not given.  So the count joins the entries,
    added to the dict itself: +1 at each vertex's group bit, -1 at each
    edge's group bits and +1 at each plain cycle's groups (a block with
    as many edges as vertices: its cycle rank is 1 when all of it is chosen
    and 0 otherwise), each times ``scale``.  The blocks with a chord are
    walked instead (:func:`_walk_components`), together, on their own edges
    and over the groups that own their vertices: that walk counts their
    vertices, edges and cycle rank at once, so those add no entry.  With no
    such block nothing is walked.  The walked table, cast to ``dtype``
    (which wraps, as the sums do), is spread once over a row of 2^r
    entries, r = min(n, ``ROW_BITS``), for each setting of its groups at
    bit r and above, and added over the (2,)*(n-r) x 2^r view of the
    table, whose inner loop is one whole row.
    """
    n = len(groups)
    owner = pack_bits(((v, g) for g, mask in enumerate(groups) for v in set_bits(mask)), len(adj))  # v's group's bit
    own = [0] * len(adj)  # each vertex's neighbours along a chorded block's edges
    for block in _cycle_blocks(adj, (1 << len(adj)) - 1) if blocks is None else blocks:
        if _plain_cycle(adj, block):
            key = functools.reduce(operator.or_, (owner[v] for v in set_bits(block)))
            entries[key] = entries.get(key, 0) + scale
        else:
            for v in set_bits(block):
                own[v] |= adj[v] & block
    for v, near in enumerate(adj):
        if not own[v]:
            entries[owner[v]] = entries.get(owner[v], 0) + scale
        for u in set_bits(near & ~own[v] & (1 << v) - 1):
            key = owner[v] | owner[u]
            entries[key] = entries.get(key, 0) - scale
    table = subset_table(n, entries, dtype)
    chorded = sum(1 << v for v in range(len(adj)) if own[v])
    if not chorded:
        return table

    walk = _walk_components(*_induced(own, [mask for mask in groups if mask & chorded], chorded))
    walk = (walk * scale).astype(dtype)  # narrowed modulo 2^bits, so the add below stays in dtype
    # the axes of the (2,)*n view run from the top bit down; the last r form a row
    shape = [2 if groups[g] & chorded else 1 for g in reversed(range(n))]
    r = min(n, ROW_BITS)
    high = shape[:n - r]
    row = np.broadcast_to(walk.reshape(shape), (*high, *(2,) * r)).reshape(*high, 1 << r)
    table.reshape(*(2,) * (n - r), 1 << r)[...] += row
    return table


def _walk_components(adj: list[int], groups: list[int]) -> np.ndarray:
    """:func:`component_counts` by walking every subset's vertex mask, in
    blocks of the low ``BLOCK_BITS`` groups: each pass grows every live
    subset's component, and one that stopped growing is counted, XORed out
    and replaced by the lowest vertex left; emptied subsets drop out.
    Vertex masks are uint32 up to 32 vertices, uint64 up to 64, else ints.
    """
    dtype = np.uint32 if len(adj) <= 32 else np.uint64 if len(adj) <= 64 else object
    low = _or_table(groups[:BLOCK_BITS], dtype)
    # neighbours of the vertices set in byte k of a mask, per value of that byte
    byte_tables = [_or_table(adj[k:k + 8], dtype) for k in range(0, len(adj), 8)]
    out = np.zeros(len(low) << max(len(groups) - BLOCK_BITS, 0), dtype=np.int32)
    for count, high in zip(out.reshape(-1, len(low)), _or_table(groups[BLOCK_BITS:], dtype)):
        left = low | high
        live = np.flatnonzero(left)
        left = left[live]
        comp = left & -left  # the lowest vertex, grown into its component
        while live.size:
            near = comp.copy()
            for k, table in enumerate(byte_tables):
                near |= table[((comp >> 8 * k) & 255).astype(np.intp)]
            near &= left
            done = near == comp  # stopped growing: count it, start the next
            count[live[done]] += 1
            left = np.where(done, left ^ comp, left)
            comp = np.where(done, left & -left, near)
            keep = left != 0
            live, left, comp = live[keep], left[keep], comp[keep]
    return out


@dataclass(frozen=True)
class UnionTopology:
    """Per-mask J, perimeter-link and component tables for one CSS, capped by :attr:`n`."""

    css: GridCss

    @property
    def n(self) -> int:
        """N, which sizes every 2^N table: TooManySubsystems above ``MAX_SUBSYSTEMS``."""
        n = self.css.n_subsystems
        if n > MAX_SUBSYSTEMS:
            raise TooManySubsystems(f"{n} subsystems exceed the cap of {MAX_SUBSYSTEMS}")
        return n

    @cached_property
    def masks(self) -> np.ndarray:
        return np.arange(1 << self.n, dtype=np.int64)

    @cached_property
    def popcounts(self) -> np.ndarray:
        return np.bitwise_count(self.masks).astype(np.int64)

    @cached_property
    def signs(self) -> np.ndarray:
        """(-1)**(m-1) for subset size m; entry 0 is 0."""
        return subset_signs(self.n)

    # ------------------------------------------------------------------
    # chi from the grid's corner windows
    # ------------------------------------------------------------------

    def _chi_entries(self, sign: int) -> dict[int, int]:
        """The {mask: weight} entries whose subset sums (:func:`subset_table`)
        are ``sign`` times chi of each union, read from the grid's corner
        windows ``a b / c d`` (``GridCss.corners``) by the bit-quad count:
        chi(S) is the number of windows where S holds c alone less those
        where S holds every cell but b.

        A window whose label c is in no other cell gives
        [c in S][a not in S][d not in S] (b's label is a's or d's): +1 at
        c, -1 at c with a and at c with d, +1 at all three.  One whose label
        b is in no other cell gives -[a in S][d in S][b not in S]: -1 at a
        with d, +1 at all three.  Bits are ORed, so an L-corner, where a and
        d share a label, comes out right with the same terms.  OUTSIDE is
        never in S: it reads a bit above the subsystems' here, and the
        terms holding it are dropped."""
        sw, ne = self.css.corners
        bit = [1 << i for i in range(self.css.n_subsystems + 1)]  # OUTSIDE, -1, reads the last
        entries: dict[int, int] = {}
        get = entries.get
        for c, a, d in sw:
            for mask, weight in ((0, 1), (bit[a], -1), (bit[d], -1), (bit[a] | bit[d], 1)):
                mask |= bit[c]
                entries[mask] = get(mask, 0) + weight
        for b, a, d in ne:
            mask = bit[a] | bit[d]
            entries[mask] = get(mask, 0) - 1
            entries[mask | bit[b]] = get(mask | bit[b], 0) + 1
        top = bit[-1]
        return {mask: sign * weight for mask, weight in entries.items() if mask < top}

    @cached_property
    def euler_table(self) -> np.ndarray:
        """V - E + F of the closed-cell union, per mask."""
        return subset_table(self.n, self._chi_entries(1))

    # ------------------------------------------------------------------
    # the perimeter links from the feature rows
    # ------------------------------------------------------------------

    @cached_property
    def _cell_bits(self) -> np.ndarray:
        """The grid padded by one OUTSIDE cell on every side, each cell as its
        user set: 1 << its label, 0 for OUTSIDE.  The labels are read with
        one ``np.fromiter`` of known count and looked up in the bits."""
        css = self.css
        bit = np.array([1 << i for i in range(self.n)] + [0], dtype=np.int64)  # OUTSIDE, -1, reads the 0
        bits = np.zeros((css.height + 2, css.width + 2), dtype=np.int64)
        labels = np.fromiter(css.labels, np.intp, count=css.width * css.height)
        bits[1:-1, 1:-1] = bit[labels.reshape(css.height, css.width)]
        return bits

    @cached_property
    def boundary_links_table(self) -> np.ndarray:
        """Perimeter links of the union, per mask: segments with exactly one side in it."""
        n, bits = self.n, self._cell_bits
        sides = ((bits[:-1, 1:-1], bits[1:, 1:-1]), (bits[1:-1, :-1], bits[1:-1, 1:]))  # horizontal, vertical
        # [a xor b meets S] = 2 [a|b meets S] - [a meets S] - [b meets S]
        return subset_table(n, meet_entries([(a | b, 2) for a, b in sides] + [(a, -1) for side in sides for a in side]))

    # ------------------------------------------------------------------
    # component counts
    # ------------------------------------------------------------------

    @cached_property
    def _cell_component_graph(self):
        """The grid's cell-component graph (``GridCss.cell_components``)."""
        return self.css.cell_components

    def _add_components(self, entries: dict[int, int], scale: int, dtype=np.int32) -> np.ndarray:
        """:func:`add_components` on the cell-component graph and its ``GridCss.cell_blocks``."""
        self.n  # TooManySubsystems above the cap
        adj, cv_mask, _ = self._cell_component_graph
        return add_components(entries, adj, cv_mask, scale, dtype, self.css.cell_blocks)

    @cached_property
    def component_table(self) -> np.ndarray:
        return self._add_components({}, 1)

    @cached_property
    def j_table(self) -> np.ndarray:
        """Disconnected-boundary count J of the union, per mask, in the
        narrowest of int8, int16 and int32 that holds L - 1, L being the
        number of components of the grid's labelling.

        J(S) <= L - 1: each component of S's union holds a labelling
        component with a label in S, and each hole of the union holds one
        that is not component 0, the outside.  The bound is tight (a
        subsystem with k one-cell holes, one of them filled by another).
        Every J lies in [0, L - 1], so the sums taken modulo 2^bits
        (:func:`subset_table`) are exact; widen before arithmetic that can
        leave the range.

        components + holes, with holes = components - chi for a pinch-free
        complex: the -chi corner entries and twice the component entries,
        summed over subsets once (:func:`subset_table`, which fills no 2^N
        histogram first), plus twice the chorded blocks' walked table, added
        a row of 2^``ROW_BITS`` entries at a time (:func:`add_components`).
        """
        bound = len(self.css.labelling[0]) - 1
        dtype = next(t for t in (np.int8, np.int16, np.int32) if bound <= np.iinfo(t).max)
        return self._add_components(self._chi_entries(-1), 2, dtype)


#: rows of the J table that ``write_subset_table_csv`` converts at a time;
#: its peak memory, about 100 bytes a row, scales with this (0.8 MB at 2^13)
CSV_BLOCK = 1 << 13


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
