"""Exact per-subset topology tables for a grid CSS.

For every non-empty subset of subsystems (a bitmask) we need the number of
disconnected boundaries J of the union and its perimeter-link count.  Doing
a flood fill per mask is exact but O(2^N * cells); instead we decompose the
counts combinatorially:

* the union of closed cells is a cubical complex whose Euler characteristic
  V - E + F, like the perimeter-link count, is a weighted sum over
  corner/segment/cell features present for a mask iff it meets the
  feature's user set U.  The Moebius expansion
  [U meets S] = sum over non-empty V in U of (-1)^(|V|-1) [V in S]
  turns each feature into at most 15 signed histogram entries (a user set
  has at most 4 bits), so one subset sum (:func:`subset_sums`) of the
  histogram gives the table.  Its one pass per bit runs in place; the
  passes for bits 1 and 2, whose contiguous runs are 2 and 4 entries, walk
  transposed views so that numpy's inner loop is the long axis.  Such a
  histogram is sparse: seen as rows of 2^``ROW_BITS`` entries, an N = 20
  table has about 10 live rows (rows with a non-zero entry) of 256.  The
  passes for the bits below ``ROW_BITS`` keep a zero row zero, so they run
  on the live rows alone, in place, and each pass for a higher bit adds
  only the blocks of rows that held a live row;
* the component count of a union equals the component count of the induced
  subgraph on per-subsystem cell-components (:func:`component_counts`).
  For every induced subgraph, components = |V| - |E| + cycle rank, and
  every cycle lies in the 2-core (what is left after repeatedly deleting
  vertices of degree <= 1, peeled from one worklist).  So a subset S counts
  +1 per vertex outside the core whose subsystem is in S and -1 per edge
  with an endpoint outside the core whose subsystems are in S (more
  histogram entries), plus the components of the core's own induced
  subgraph.  Only the core is walked,
  every subset whole, in blocks of 2^``BLOCK_BITS`` subsets
  (:func:`_walk_components`): each numpy pass grows every subset's
  component through per-byte neighbour tables, and one that stopped
  growing counts it and restarts from its lowest remaining vertex (uint32,
  uint64 or Python int vertex masks; split subsystems take no branch).
  Each histogram term depends on at most two subsystems, so its
  alternating sum over the subsets of three or more is 0: the component
  part of C^N (N >= 3) comes from the core alone, and the chains and
  appendages outside add nothing;
* pinch-freeness (enforced by grid validation) makes the complex
  homotopy-faithful, so holes = components - chi and J = 2*components - chi.
  J is built in one int32 pass: the -chi feature entries and twice the
  outside-core entries share one histogram, summed over subsets once, and
  twice the core's walked table is added to it a row of 2^``ROW_BITS``
  entries at a time.

C^N and the C of a sub-collection X need no table.  With J = 2c - chi,
C(X) = -2 s(X) - (the weight of the features whose user set holds X),
where s(X) = sum over S in X of (-1)^|S| c(S) is the signed component sum
(:func:`signed_component_sum`).  It runs on the subgraph induced by X's own
vertices, renumbered: one dynamic-programming pass over its 2-core (for
|X| >= 3; the whole graph for |X| <= 2) that picks each vertex as it goes
(:func:`_next_vertex`), whose states are the in/out choices of the open
groups and the component partition of the frontier.  The states grow with
the width of the frontier, not with N, and the walk gives up at the step
that leaves more than ``MAX_WALK_STATES`` of them; s(X) is then read from
the 2^|X| component table of X's own groups, as the top Moebius
coefficient of its (2,)*k view (:func:`alternating_sum`), in int64 and
without a table of signs.  Every 2^n table, a CSS's or a graph's, is
capped at ``MAX_SUBSYSTEMS`` groups.

The flood-fill definition stays available in :mod:`topomi.grid`; the test
suite compares every table with it, for every width of vertex mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import TooManySubsystems
from .grid import MAX_VERTICES, OUTSIDE, GridCss, pack_bits, set_bits

#: cap on the groups of any 2^n table, a CSS's subsystems or a graph's vertices (2**24 masks)
MAX_SUBSYSTEMS = 24
#: the frontier walk (:func:`signed_component_sum`) falls back to a table
#: when one vertex leaves more states than this
MAX_WALK_STATES = 1 << 12
#: the component walk takes its subsets in blocks of 2**BLOCK_BITS
BLOCK_BITS = 16
#: :func:`subset_sums` runs its passes for the bits below ROW_BITS only on
#: the live rows of 2**ROW_BITS entries, and those for the higher bits only
#: on the blocks of rows that hold a live row;
#: :func:`add_components` adds the core's table a row at a time.  On the J
#: histograms of 20 ``random-n20`` inputs (seed 1; 9-13 live rows of 256 at
#: 12), mean of the best of 7, two runs on a 2-core x86-64 VM, at 8, 10, 12
#: and 14: subset sums 1.8-2.1, 1.9, 1.5-1.9 and 2.0-2.1 ms, against
#: 8.8-9.4 ms with every pass on the whole table; add_components, subset
#: sums included, 2.6-2.7, 1.9-2.6, 2.2 and 2.5-3.0 ms.  The callers'
#: histograms measured have at most 7 of 64 rows live (six-hole-eighteen);
#: a 2^20 table with every other row live takes 13.0-13.1 ms against
#: 8.6-9.9, and one with every row live 9.2-9.3 against 8.7-8.8
ROW_BITS = 12


def subset_signs(n: int) -> np.ndarray:
    """(-1)**(m-1) for the size m of every subset mask of n bits, as int8; entry 0 is 0."""
    odd = np.bitwise_count(np.arange(1 << n, dtype=np.uint32)) & 1
    signs = np.where(odd, np.int8(1), np.int8(-1))
    signs[0] = 0
    return signs


def subset_sums(table: np.ndarray) -> np.ndarray:
    """In place over a 2^n table: entry S becomes the sum of the entries of S's subsets.

    One pass per bit i adds each entry without bit i to its partner with it,
    viewing the table as (2^(n-i-1), 2, 2^i).  Bits 1 and 2 leave contiguous
    runs of only 2 and 4 entries, so numpy's inner loop would be that short;
    their pass iterates the transposed views in C order instead, so the inner
    loop runs along the long axis of 2^(n-i-1) entries.

    The table is seen as rows of 2^r entries, r = min(n, ``ROW_BITS``).
    The passes for the bits below r stay inside a row and keep a zero row
    zero, so those passes run on the live rows (rows with a non-zero entry)
    alone, one in-place slice per run of consecutive live rows.  The pass
    for a higher bit i sees the rows as (-1, 2, 2^(i-r)) blocks and adds a
    bit-clear source half to its bit-set target half only if the source
    held a live row at the start, one slice per run of such blocks.  The
    passes before it move entries only within such a half, so a half with
    no live row at the start is still zero.  Every pass writes into the
    table itself, with no 2^n temporary, and a skipped addition would only
    have added zeros, so the result is that of the whole-table passes bit
    for bit, except that a float zero may stay -0.0 where they give 0.0.
    """
    n = len(table).bit_length() - 1
    r = min(n, ROW_BITS)
    rows = table.reshape(-1, 1 << r)
    live = rows.any(axis=1)
    for start, stop in _runs(live):
        _bit_passes(rows[start:stop], range(r))
    for i in range(r, n):
        # per block of rows, whether its bit-clear half (the source) held a live row
        sources = live.reshape(-1, 2, 1 << i - r)[:, 0].any(axis=1)
        for start, stop in _runs(sources):
            _bit_passes(table.reshape(-1, 2 << i)[start:stop], range(i, i + 1))
    return table


def _runs(live: np.ndarray) -> list[list[int]]:
    """The [start, stop) of each run of consecutive True entries of ``live``, in turn."""
    padded = np.zeros(len(live) + 2, dtype=bool)
    padded[1:-1] = live
    return np.flatnonzero(padded[1:] != padded[:-1]).reshape(-1, 2).tolist()


def _bit_passes(table: np.ndarray, bits: range) -> np.ndarray:
    """The :func:`subset_sums` passes for ``bits``, in place over the C-ordered
    ``table``, whose size is a multiple of 2^(top bit + 1)."""
    for i in bits:
        view = table.reshape(-1, 2, 1 << i)
        if i in (1, 2):
            upper = view[:, 1, :].T
            np.add(upper, view[:, 0, :].T, out=upper, order="C")
        else:
            view[:, 1, :] += view[:, 0, :]
    return table


def meet_histogram(n: int, weighted_users) -> np.ndarray:
    """The int32 2^n histogram whose subset sums give, per mask S, the total
    weight of the (user-set array, weight) features meeting S.

    [U meets S] = sum over the non-empty submasks V of U of (-1)^(|V|-1) [V
    subset of S]: each user set is spread over its submasks, walked as
    V -> (V - 1) & U.  A grid's user sets have at most 4 bits, so every
    partial subset sum is bounded by 15 times the summed |weight|.
    """
    users = np.concatenate([u for u, _ in weighted_users])
    weights = np.concatenate([np.full(len(u), w) for u, w in weighted_users])
    hist = np.zeros(1 << n, dtype=np.int32)
    sub = users
    while True:
        keep = sub != 0
        sub, users, weights = sub[keep], users[keep], weights[keep]
        if not sub.size:
            return hist
        np.add.at(hist, sub, np.where(np.bitwise_count(sub) & 1, weights, -weights))
        sub = (sub - 1) & users


def alternating_sum(view: np.ndarray) -> int:
    """Sum of (-1)**(|S|-1) * view[S] over the non-empty subsets S of the axes of
    a (2,)*k view.

    That is the empty-set entry plus (-1)**(k-1) times the top Moebius
    coefficient, read by halving each axis as ``view[1] - view[0]``, the
    first time into int64, so an int32 table sums exactly and no table of
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


def _user_masks(labels: np.ndarray) -> np.ndarray:
    """Per row of subsystem labels, the int64 mask of its subsystems; OUTSIDE adds no bit."""
    bits = np.where(labels == OUTSIDE, 0, np.left_shift(1, labels.clip(0)))
    return np.bitwise_or.reduce(bits, axis=1)


def _two_core(adj: list[int]) -> int:
    """Vertex mask of the 2-core: what is left after repeatedly deleting the
    vertices of degree <= 1, each once from a worklist that a neighbour joins
    when its degree falls to 1.  Every cycle of every induced subgraph lies in it."""
    degree = [a.bit_count() for a in adj]
    peel = [v for v, d in enumerate(degree) if d <= 1]
    core = (1 << len(adj)) - 1
    while peel:
        v = peel.pop()
        core ^= 1 << v
        for u in set_bits(adj[v] & core):
            degree[u] -= 1
            if degree[u] == 1:
                peel.append(u)
    return core


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
    return add_components(np.zeros(1 << len(groups), dtype=np.int32), adj, groups)


def add_components(hist: np.ndarray, adj: list[int], groups: list[int], scale: int = 1) -> np.ndarray:
    """Sum the 2^n int32 histogram ``hist`` over subsets, in place, plus ``scale``
    times :func:`component_counts` of ``adj`` and ``groups``.

    Components = |V| - |E| + cycle rank for every induced subgraph, and each
    of its cycles lies in the 2-core.  The part outside the core is weights
    on owner masks (+1 per vertex outside the core, -1 per edge with an
    endpoint outside it), added to ``hist`` before its subset sums; the
    cycle rank plus the core's own |V| - |E| is the component count of the
    core, walked (:func:`_walk_components`) on the groups that own core
    vertices; with no core vertex it is a single 0, neither walked nor
    added.  That table is spread once over a row of 2^r entries, r =
    min(n, ``ROW_BITS``), for each setting of the k core groups at bit r
    and above (2^(k+r) entries, at most the size of ``hist``), and added
    over the (2,)*(n-r) x 2^r view of ``hist``, whose inner loop is one
    whole row.
    """
    n = len(groups)
    core = _two_core(adj)
    owner = pack_bits(((v, g) for g, mask in enumerate(groups) for v in set_bits(mask)), len(adj))  # v's group's bit
    outside = [v for v in range(len(adj)) if not core >> v & 1]
    np.add.at(hist, [owner[v] for v in outside], scale)
    # each edge once: from its endpoint outside the core, or the higher one if both are
    edges = [owner[v] | owner[u] for v in outside for u in set_bits(adj[v]) if u < v or core >> u & 1]
    np.add.at(hist, edges, -scale)
    subset_sums(hist)
    if not core:  # no group owns a core vertex: the core's table is a single 0
        return hist

    table = _walk_components(*_induced(adj, [mask for mask in groups if mask & core], core))
    table *= scale
    # the axes of the (2,)*n view run from the top bit down; the last r form a row
    shape = [2 if groups[g] & core else 1 for g in reversed(range(n))]
    r = min(n, ROW_BITS)
    high = shape[:n - r]
    row = np.broadcast_to(table.reshape(shape), (*high, *(2,) * r)).reshape(*high, 1 << r)
    hist.reshape(*(2,) * (n - r), 1 << r)[...] += row
    return hist


def _induced(adj: list[int], groups: list[int], keep: int) -> tuple[list[int], list[int]]:
    """The subgraph induced on the vertex mask ``keep``, its vertices renumbered
    in order, and each group's part of it."""
    position = {v: i for i, v in enumerate(set_bits(keep))}

    def on_keep(mask: int) -> int:
        return sum(1 << position[v] for v in set_bits(mask & keep))

    return [on_keep(adj[v]) for v in position], [on_keep(mask) for mask in groups]


def count_components(adj: list[int]) -> int:
    """Components of the whole graph with neighbour bitmasks ``adj``."""
    count, left = 0, (1 << len(adj)) - 1
    while left:
        count += 1
        comp = frontier = left & -left
        while frontier:
            near = 0
            for v in set_bits(frontier):
                near |= adj[v]
            frontier = near & ~comp
            comp |= frontier
        left &= ~comp
    return count


def signed_component_sum(adj: list[int], groups: list[int]) -> int:
    """The sum over every subset S of the groups of (-1)^|S| times the
    components of the subgraph induced by the union of S, with no 2^n table.

    ``adj[v]`` is the neighbour bitmask of vertex v and ``groups[i]`` the
    vertex bitmask of group i; the groups are disjoint.  The walk runs on the
    subgraph induced by their union, renumbered (:func:`_induced`), and
    visits its core one vertex at a time, each chosen as it goes
    (:func:`_next_vertex`): the 2-core for n >= 3 (as in
    :func:`add_components`, a term outside it depends on at most two groups,
    and a group with no core vertex cancels the rest), the whole union for
    n <= 2.  A state holds the in/out choice of each open group (one with
    visited and unvisited vertices) and the component partition of the
    chosen frontier vertices (visited ones with an unvisited neighbour); its
    value is the pair (sum of signs, sum of sign times closed components)
    over the choices that lead to it, and a state whose value is (0, 0) is
    dropped, since every later value is linear in it.  At the vertex that
    leaves more than ``MAX_WALK_STATES`` states the walk stops, and the sum
    is read from the :func:`component_counts` of the groups on their union, a
    2^n table: TooManySubsystems naming both caps above ``MAX_SUBSYSTEMS``
    groups.
    """
    union = 0
    for mask in groups:
        union |= mask
    adj, groups = _induced(adj, groups, union)
    unvisited = _two_core(adj) if len(groups) > 2 else (1 << len(adj)) - 1
    if not all(mask & unvisited for mask in groups):
        return 0
    owner = {v: i for i, mask in enumerate(groups) for v in set_bits(mask)}

    states = {(0, ()): (1, 0)}  # (chosen open groups, frontier labels) -> (signs, closed)
    frontier: list[int] = []
    seen = 0
    while unvisited:
        v = _next_vertex(adj, groups, owner, frontier, unvisited, seen)
        g = 1 << owner[v]
        first = not seen & g
        seen |= g
        unvisited ^= 1 << v
        last = not groups[owner[v]] & unvisited
        touching = [p for p, u in enumerate(frontier) if adj[u] >> v & 1]
        fresh = len(frontier) + 1  # a label no state uses
        frontier.append(v)
        keep = [p for p, u in enumerate(frontier) if adj[u] & unvisited]
        frontier = [frontier[p] for p in keep]
        drop = ~g if last else -1
        moves: dict = {}  # (labels, v chosen) -> (next labels, components closed)
        after: dict = {}
        for (chosen, labels), (signs, closed) in states.items():
            options = ((chosen, signs, closed), (chosen | g, -signs, -closed)) if first else ((chosen, signs, closed),)
            for bits, signs, closed in options:
                move = (labels, bits & g)
                if move not in moves:
                    moves[move] = _next_labels(labels, bits & g, touching, keep, fresh)
                labels_after, ended = moves[move]
                key = (bits & drop, labels_after)
                had = after.get(key, (0, 0))
                after[key] = (had[0] + signs, had[1] + closed + signs * ended)
        states = {key: value for key, value in after.items() if value != (0, 0)}  # they stay 0
        if len(states) > MAX_WALK_STATES:
            if len(groups) > MAX_SUBSYSTEMS:
                raise TooManySubsystems(f"the frontier walk over {len(groups)} groups exceeds its cap of "
                                        f"{MAX_WALK_STATES} states, and {len(groups)} groups exceed the table's "
                                        f"cap of {MAX_SUBSYSTEMS}")
            return -alternating_sum(component_counts(adj, groups).reshape((2,) * len(groups)))
    return sum(closed for _, closed in states.values())


def _next_labels(labels: tuple, chosen: int, touching: list[int], keep: list[int], fresh: int):
    """The frontier labels after a vertex, chosen or not, joins ``labels`` at the
    end, merging the components at positions ``touching``; only positions
    ``keep`` stay.  Returns them renumbered in order of first appearance,
    and the number of components left with no frontier vertex."""
    if chosen:
        joined = {labels[p] for p in touching}
        row = [fresh if x and x in joined else x for x in labels] + [fresh]
    else:
        row = [*labels, 0]
    kept = [row[p] for p in keep]
    canon = {0: 0}
    return tuple([canon.setdefault(x, len(canon)) for x in kept]), len(set(row).difference(kept, (0,)))


def _next_vertex(adj: list[int], groups: list[int], owner: dict[int, int], frontier: list[int],
                 unvisited: int, seen: int) -> int:
    """The vertex the frontier walk visits next, chosen greedily to keep it
    narrow: among the ``unvisited`` neighbours of the ``frontier`` vertices
    (the lowest unvisited vertex when there are none), the one that adds the
    fewest frontier vertices plus open groups, less those it closes, the
    lowest on a tie.  ``seen`` has the bits of the groups already visited."""
    near = 0
    for u in frontier:
        near |= adj[u]

    def width(v: int) -> int:
        rest = unvisited ^ 1 << v
        # v joins the frontier unless all its neighbours are visited; a
        # frontier vertex whose last unvisited neighbour is v leaves it
        grown = bool(adj[v] & rest) - sum(1 for u in frontier if adj[u] >> v & 1 and not adj[u] & rest)
        # v's group is open after v if it has unvisited vertices left, and was before if it was seen
        return grown + bool(groups[owner[v]] & rest) - (seen >> owner[v] & 1)

    return min(set_bits(near & unvisited or unvisited & -unvisited), key=width)


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
    # feature decomposition of the cell complex
    # ------------------------------------------------------------------

    @cached_property
    def _feature_labels(self):
        """(labels, weight) of the corners, segments and cells: one row per
        feature, holding the labels of the cells around it (its four cells,
        the cells on either side of each horizontal then vertical segment, or
        the cell itself; OUTSIDE off the grid).  The closed-cell union of
        subsystems S has V - E + F = the weight of the features with a label in S."""
        css = self.css
        labels = np.array(css.labels, dtype=np.int64).reshape(css.height, css.width)
        grid = np.pad(labels, 1, constant_values=OUTSIDE)
        corners = np.stack([grid[:-1, :-1], grid[:-1, 1:], grid[1:, :-1], grid[1:, 1:]], axis=-1)
        segments = np.concatenate([
            np.stack([grid[:-1, 1:-1], grid[1:, 1:-1]], axis=-1).reshape(-1, 2),
            np.stack([grid[1:-1, :-1], grid[1:-1, 1:]], axis=-1).reshape(-1, 2),
        ])
        return (corners.reshape(-1, 4), 1), (segments, -1), (labels.reshape(-1, 1), 1)

    @property
    def _euler_features(self):
        """(user sets, weight) of the corners, segments and cells: the closed-cell
        union of mask S has V - E + F = the weight of the features meeting S."""
        return tuple((_user_masks(labels), weight) for labels, weight in self._feature_labels)

    @cached_property
    def euler_table(self) -> np.ndarray:
        """V - E + F of the closed-cell union, per mask."""
        return subset_sums(meet_histogram(self.n, self._euler_features))

    @cached_property
    def boundary_links_table(self) -> np.ndarray:
        """Perimeter links of the union, per mask: segments with exactly one side in it."""
        _, (segments, _), _ = self._feature_labels
        a, b = _user_masks(segments[:, :1]), _user_masks(segments[:, 1:])
        # [a xor b meets S] = 2 [a|b meets S] - [a meets S] - [b meets S]
        return subset_sums(meet_histogram(self.n, ((a | b, 2), (a, -1), (b, -1))))

    # ------------------------------------------------------------------
    # component counts
    # ------------------------------------------------------------------

    @cached_property
    def _cell_component_graph(self):
        """Cell-components of each subsystem and their wall adjacency: the grid's
        labelling, numbered by subsystem and, within one, in first-cell order."""
        labels, near, _ = self.css.labelling
        order = sorted((label, c) for c, label in enumerate(labels) if label != OUTSIDE)
        if len(order) > MAX_VERTICES:
            raise TooManySubsystems(f"{len(order)} cell-components exceed the graph cap of {MAX_VERTICES}")
        vertex = {c: v for v, (_, c) in enumerate(order)}
        # the cell-components of each subsystem, as a vertex mask
        cv_mask = pack_bits(((label, v) for v, (label, _) in enumerate(order)), self.css.n_subsystems)
        adj = [sum(1 << vertex[b] for b in near[c] if b in vertex) for _, c in order]
        return adj, cv_mask, len(order)

    @cached_property
    def component_table(self) -> np.ndarray:
        adj, cv_mask, _ = self._cell_component_graph
        return add_components(np.zeros(1 << self.n, dtype=np.int32), adj, cv_mask)

    @cached_property
    def j_table(self) -> np.ndarray:
        """Disconnected-boundary count J of the union, per mask (int32).

        components + holes, with holes = components - chi for a pinch-free
        complex: one histogram of the -chi feature entries and twice the
        components' outside-core entries, summed over subsets once
        (:func:`subset_sums`, which skips the rows and blocks of rows that
        are still zero), plus twice the core's walked table, added a row of
        2^``ROW_BITS`` entries at a time (:func:`add_components`).
        """
        hist = meet_histogram(self.n, [(users, -weight) for users, weight in self._euler_features])
        adj, cv_mask, _ = self._cell_component_graph
        return add_components(hist, adj, cv_mask, scale=2)
