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
  turns each feature into at most 7 signed (mask, weight) entries
  (:func:`meet_histogram`; a user set has at most 3 bits), and the table is
  their subset sums (:func:`subset_table`): entry S sums the weights of the
  entries whose mask lies in S.  The entries are few (about 35 distinct
  masks at N = 20), so no 2^N histogram is filled: seen as rows of
  2^``ROW_BITS`` entries, only the rows that hold an entry are built and
  summed over their low bits, and the table is filled by doubling, one
  higher bit at a time: the half with the bit is the half without it plus
  each live row whose top bit it is, over the masks that hold that row;
* the component count of a union equals the component count of the induced
  subgraph on per-subsystem cell-components (:func:`component_counts`).
  For every induced subgraph, components = |V| - |E| + cycle rank, and the
  cycle rank is the sum of those of its blocks (2-connected pieces,
  :func:`_cycle_blocks`).  So a subset S counts +1 per vertex whose group
  is in S, -1 per edge whose groups are in S and +1 per plain-cycle block
  whose groups are all in S (more entries).  The blocks with a chord are
  walked together on their own edges, every subset whole, in blocks of
  2^``BLOCK_BITS`` subsets (:func:`_walk_components`): each numpy pass
  grows every subset's component through per-byte neighbour tables, and
  one that stopped growing counts it and restarts from its lowest
  remaining vertex (uint32, uint64 or Python int vertex masks; split
  subsystems take no branch).  That walk counts |V| - |E| + cycle rank of
  those blocks, so their vertices and edges add no entry;
* pinch-freeness (enforced by grid validation) makes the complex
  homotopy-faithful, so holes = components - chi and J = 2*components - chi.
  J is built in one int32 table: the -chi feature entries and twice the
  component entries are summed over subsets once, and twice the chorded
  blocks' walked table is added to it a row of 2^``ROW_BITS`` entries at
  a time.

C^N and the C of a sub-collection X read no table and none of these
features.  For |X| <= 2 it is the J of unions (``grid.union_boundary_count``);
beyond, with J = 2c - chi, C(X) = -2 s(X) - (the features whose user set
holds X: the junction corners of X's ids if they are three, none beyond),
where s(X) = sum over S in X of (-1)^|S| c(S) is the signed component sum
(:func:`signed_component_sum`).  For |X| >= 3 it is split over the blocks
(2-connected pieces) of the subgraph X's own vertices induce, found in one
iterative Hopcroft-Tarjan pass (:func:`_cycle_blocks`): only a block that
meets every group of X adds a term, a plain cycle adds (-1)^|X| with no
walk, and only a block with a chord is walked; for |X| <= 2 the whole
subgraph is walked.  The walk (:func:`_frontier_walk`) is one
dynamic-programming pass over the block's vertices, renumbered, that picks
each vertex as it goes (:func:`_next_vertex`), whose states are the in/out
choices of the open groups and the component partition of the frontier.
The states grow with the width of the frontier, not with N, and the walk
gives up at the step that leaves more than ``MAX_WALK_STATES`` of them; the
block's term is then read from the 2^|X| component table of X's groups on
that block, as the top Moebius coefficient of its (2,)*k view
(:func:`alternating_sum`), in int64 and without a table of signs.  Every
2^n table, a CSS's or a graph's, is capped at ``MAX_SUBSYSTEMS`` groups.

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
from .grid import MAX_VERTICES, OUTSIDE, GridCss, pack_bits, set_bits

#: cap on the groups of any 2^n table, a CSS's subsystems or a graph's vertices (2**24 masks)
MAX_SUBSYSTEMS = 24
#: the frontier walk (:func:`_frontier_walk`) falls back to a table
#: when one vertex leaves more states than this
MAX_WALK_STATES = 1 << 12
#: the component walk takes its subsets in blocks of 2**BLOCK_BITS
BLOCK_BITS = 16
#: :func:`subset_table` sums its entries over the low ROW_BITS bits in the
#: live rows of 2**ROW_BITS entries and fills the higher bits by doubling;
#: :func:`add_components` adds the chorded blocks' table a row at a time.
#: On the J entries of 20 ``random-n20`` inputs (seed 1), mean of the best
#: of 7, two runs on a 2-core x86-64 VM, at 8, 9, 10, 11, 12 and 14:
#: subset_table 1.02-1.20, 0.97-1.02, 0.91-0.95, 0.89-0.97, 1.06-1.09 and
#: 1.45-1.51 ms; add_components, subset_table included, 1.25-1.34,
#: 1.10-1.21, 1.09-1.12, 1.12-1.23, 1.23-1.27 and 1.67-1.76 ms
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
    viewing the table as (-1, 2, 2^i).  Bits 1 and 2 leave contiguous runs
    of only 2 and 4 entries, so numpy's inner loop would be that short;
    their pass iterates the transposed views in C order instead, so the
    inner loop runs along the long axis.  Every pass writes into the table
    itself, with no temporary of its size.
    """
    for i in range(table.shape[-1].bit_length() - 1):
        view = table.reshape(-1, 2, 1 << i)
        if i in (1, 2):
            upper = view[:, 1, :].T
            np.add(upper, view[:, 0, :].T, out=upper, order="C")
        else:
            view[:, 1, :] += view[:, 0, :]
    return table


#: (masks, weights) of no entry
NO_ENTRIES = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))


def meet_histogram(weighted_users) -> tuple[np.ndarray, np.ndarray]:
    """The (masks, weights) entries whose subset sums (:func:`subset_table`)
    give, per mask S, the total weight of the (user-set array, weight)
    features meeting S.

    [U meets S] = sum over the non-empty submasks V of U of (-1)^(|V|-1) [V
    subset of S]: each user set is spread over its submasks, walked as
    V -> (V - 1) & U.  A grid's user sets have at most 3 bits (no window
    holds four labels), so every partial subset sum is bounded by 7 times
    the summed |weight|.
    """
    users = np.concatenate([u for u, _ in weighted_users])
    weights = np.concatenate([np.full(len(u), w) for u, w in weighted_users])
    keys, values = [], []
    sub = users
    while True:
        keep = sub != 0
        sub, users, weights = sub[keep], users[keep], weights[keep]
        if not sub.size:
            return np.concatenate([*keys, sub]), np.concatenate([*values, weights])
        keys.append(sub)
        values.append(np.where(np.bitwise_count(sub) & 1, weights, -weights))
        sub = (sub - 1) & users


def subset_table(n: int, entries: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The int32 2^n table whose entry S is the summed weight of the
    (masks, weights) ``entries`` whose mask is a subset of S.

    Entries of one mask are merged and those of weight 0 dropped.  Seen as
    rows of 2^r entries, r = min(n, ``ROW_BITS``), a row is live when an
    entry falls in it.  The live rows alone are built, as one (rows, 2^r)
    array, and summed over the low r bits at once (:func:`subset_sums`).
    Row H of the table is then the sum of the summed live rows R with R a
    subset of H, and it is filled by doubling: rows 0 .. 2^j - 1 hold their
    sums, and rows 2^j .. 2^(j+1) - 1 are a copy of them plus each live row
    R whose top bit is j, added over the sub-view of the rows that hold R's
    other bits.  A live row that is bit j alone is added in the copy.  So
    no 2^n histogram is filled first, and each entry of the table is
    written once plus once per live row it holds.
    """
    keys, at = np.unique(entries[0], return_inverse=True)
    weights = np.zeros(len(keys), dtype=np.int64)
    np.add.at(weights, at, entries[1])
    keys, weights = keys[weights != 0], weights[weights != 0]
    r = min(n, ROW_BITS)
    rows, at = np.unique(keys >> r, return_inverse=True)
    low = np.zeros((len(rows), 1 << r), dtype=np.int32)
    low[at, keys & (1 << r) - 1] = weights
    live = dict(zip(rows.tolist(), subset_sums(low)))
    table = np.empty(1 << n, dtype=np.int32)
    table[:1 << r] = live.pop(0, 0)
    for j in range(n - r):
        size = 1 << j + r
        lower, upper = table[:size].reshape(-1, 1 << r), table[size:2 * size].reshape(-1, 1 << r)
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
    return add_components(NO_ENTRIES, adj, groups)


def add_components(entries, adj: list[int], groups: list[int], scale: int = 1) -> np.ndarray:
    """The int32 :func:`subset_table` of the (masks, weights) ``entries`` over
    the n = len(groups) groups, plus ``scale`` times :func:`component_counts`
    of ``adj`` and ``groups``.

    Components = |V| - |E| + cycle rank for every induced subgraph, and its
    cycle rank is the sum of its blocks' own, each the cycle rank of the
    subgraph a block of the whole graph (:func:`_cycle_blocks`) induces.
    So the count joins the entries: +1 at each vertex's group bit, -1 at
    each edge's group bits and +1 at each plain cycle's groups (a block with
    as many edges as vertices: its cycle rank is 1 when all of it is chosen
    and 0 otherwise), each times ``scale``.  The blocks with a chord are
    walked instead (:func:`_walk_components`), together, on their own edges
    and over the groups that own their vertices: that walk counts their
    vertices, edges and cycle rank at once, so those add no entry.  With no
    such block nothing is walked.  The walked table is spread once over a
    row of 2^r entries, r = min(n, ``ROW_BITS``), for each setting of its
    groups at bit r and above, and added over the (2,)*(n-r) x 2^r view of
    the table, whose inner loop is one whole row.
    """
    n = len(groups)
    owner = pack_bits(((v, g) for g, mask in enumerate(groups) for v in set_bits(mask)), len(adj))  # v's group's bit
    own = [0] * len(adj)  # each vertex's neighbours along a chorded block's edges
    cycles = []
    for block in _cycle_blocks(adj, (1 << len(adj)) - 1):
        if _plain_cycle(adj, block):
            cycles.append(functools.reduce(operator.or_, (owner[v] for v in set_bits(block))))
        else:
            for v in set_bits(block):
                own[v] |= adj[v] & block
    keys = [owner[v] for v in range(len(adj)) if not own[v]] + cycles
    edges = [owner[v] | owner[u] for v in range(len(adj)) for u in set_bits(adj[v] & ~own[v]) if u < v]
    table = subset_table(n, (np.concatenate([entries[0], np.array(keys + edges, dtype=np.int64)]),
                             np.concatenate([entries[1], np.repeat([scale, -scale], [len(keys), len(edges)])])))
    chorded = sum(1 << v for v in range(len(adj)) if own[v])
    if not chorded:
        return table

    walk = _walk_components(*_induced(own, [mask for mask in groups if mask & chorded], chorded))
    walk *= scale
    # the axes of the (2,)*n view run from the top bit down; the last r form a row
    shape = [2 if groups[g] & chorded else 1 for g in reversed(range(n))]
    r = min(n, ROW_BITS)
    high = shape[:n - r]
    row = np.broadcast_to(walk.reshape(shape), (*high, *(2,) * r)).reshape(*high, 1 << r)
    table.reshape(*(2,) * (n - r), 1 << r)[...] += row
    return table


def _induced(adj: list[int], groups: list[int], keep: int) -> tuple[list[int], list[int]]:
    """The subgraph induced on the vertex mask ``keep``, its vertices renumbered
    in order, and each group's part of it: the graph itself when ``keep``
    holds every vertex."""
    if keep == (1 << len(adj)) - 1:
        return adj, groups
    position = {v: i for i, v in enumerate(set_bits(keep))}

    def on_keep(mask: int) -> int:
        return sum(1 << position[v] for v in set_bits(mask & keep))

    return [on_keep(adj[v]) for v in position], [on_keep(mask) for mask in groups]


def signed_component_sum(adj: list[int], groups: list[int]) -> int:
    """The sum over every subset S of the groups of (-1)^|S| times the
    components of the subgraph induced by the union of S, with no 2^n table.

    ``adj[v]`` is the neighbour bitmask of vertex v and ``groups[i]`` the
    vertex bitmask of group i; the groups are disjoint, and an empty one
    makes the sum 0.  It runs on the subgraph induced by their union.  For
    n <= 2 groups that whole subgraph is walked (:func:`_frontier_walk`),
    renumbered (:func:`_induced`).  For n >= 3 it is split over the blocks
    of the subgraph (:func:`_cycle_blocks`): components = |V| - |E| + cycle
    rank, and the |V| and |E| terms each depend on at most two groups, so
    their alternating sums over n >= 3 groups are 0.  Every cycle lies in
    one block, which holds every edge between its own vertices, so the cycle
    rank is the sum of the blocks' own.  A block's term depends only on the
    groups it meets and cancels unless it meets all n; a block that is a
    plain cycle (as many edges as vertices) has cycle rank 1 only when every
    group is chosen, so it adds (-1)^n; any other block that meets every
    group is walked on its own vertices, renumbered, and its walk past the
    state cap reads the 2^n component table of the groups on that block.
    """
    if not all(groups):
        return 0
    union = 0
    for mask in groups:
        union |= mask
    if len(groups) <= 2:
        return _frontier_walk(*_induced(adj, groups, union))
    total = 0
    for block in _cycle_blocks(adj, union):
        if all(mask & block for mask in groups):
            if _plain_cycle(adj, block):
                total += (-1) ** len(groups)
            else:
                total += _frontier_walk(*_induced(adj, groups, block))
    return total


def _cycle_blocks(adj: list[int], keep: int) -> list[int]:
    """Vertex masks of the blocks (maximal 2-connected subgraphs) that hold a
    cycle, i.e. have three or more vertices, of the subgraph induced by the
    vertex mask ``keep`` of the graph with neighbour bitmasks ``adj``;
    bridges are left out.  One iterative Hopcroft-Tarjan depth-first pass
    over the vertices of ``keep``: a vertex's low point is the lowest
    discovery number reached from its subtree by one edge, and a child whose
    low point is not below its parent's number closes a block, the child's
    subtree vertices still on the path plus the parent."""
    order: dict[int, int] = {}  # discovery number of each vertex reached
    low: dict[int, int] = {}
    left: dict[int, int] = {}  # neighbours of each vertex not yet tried
    blocks: list[int] = []
    for root in set_bits(keep):
        if root in order:
            continue
        order[root] = low[root] = len(order)
        left[root] = adj[root] & keep
        path, todo = [root], [root]  # todo: the depth-first stack
        while todo:
            v = todo[-1]
            if left[v]:
                bit = left[v] & -left[v]
                left[v] ^= bit
                u = bit.bit_length() - 1
                if u in order:
                    low[v] = min(low[v], order[u])
                else:
                    order[u] = low[u] = len(order)
                    left[u] = adj[u] & keep
                    path.append(u)
                    todo.append(u)
                continue
            todo.pop()
            if todo:
                parent = todo[-1]
                low[parent] = min(low[parent], low[v])
                if low[v] >= order[parent]:
                    block, w = 1 << parent, parent
                    while w != v:
                        w = path.pop()
                        block |= 1 << w
                    if block.bit_count() > 2:
                        blocks.append(block)
    return blocks


def _plain_cycle(adj: list[int], block: int) -> bool:
    """Whether the block with vertex mask ``block`` is a plain cycle: as many
    edges as vertices, counting every edge between its vertices."""
    return sum((adj[v] & block).bit_count() for v in set_bits(block)) == 2 * block.bit_count()


def _frontier_walk(adj: list[int], groups: list[int]) -> int:
    """:func:`signed_component_sum` of the whole graph ``adj`` over the
    disjoint, non-empty ``groups`` that cover it, by a dynamic-programming
    walk that visits one vertex at a time, each chosen as it goes
    (:func:`_next_vertex`).

    A state holds the in/out choice of each open group (one with visited and
    unvisited vertices) and the component partition of the chosen frontier
    vertices (visited ones with an unvisited neighbour); its value is the
    pair (sum of signs, sum of sign times closed components) over the
    choices that lead to it, and a state whose value is (0, 0) is dropped,
    since every later value is linear in it.  At the vertex that leaves more
    than ``MAX_WALK_STATES`` states the walk stops, and the sum is read from
    the :func:`component_counts` of the groups on this graph, a 2^n table:
    TooManySubsystems naming both caps above ``MAX_SUBSYSTEMS`` groups.
    """
    unvisited = (1 << len(adj)) - 1
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
        grid = np.full((css.height + 2, css.width + 2), OUTSIDE, dtype=np.int64)
        grid[1:-1, 1:-1] = labels
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
        return subset_table(self.n, meet_histogram(self._euler_features))

    @cached_property
    def boundary_links_table(self) -> np.ndarray:
        """Perimeter links of the union, per mask: segments with exactly one side in it."""
        _, (segments, _), _ = self._feature_labels
        a, b = _user_masks(segments[:, :1]), _user_masks(segments[:, 1:])
        # [a xor b meets S] = 2 [a|b meets S] - [a meets S] - [b meets S]
        return subset_table(self.n, meet_histogram(((a | b, 2), (a, -1), (b, -1))))

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

    def _add_components(self, entries, scale: int) -> np.ndarray:
        """:func:`add_components` on the cell-component graph, over the N subsystems."""
        self.n  # TooManySubsystems above the cap
        adj, cv_mask, _ = self._cell_component_graph
        return add_components(entries, adj, cv_mask, scale)

    @cached_property
    def component_table(self) -> np.ndarray:
        return self._add_components(NO_ENTRIES, 1)

    @cached_property
    def j_table(self) -> np.ndarray:
        """Disconnected-boundary count J of the union, per mask (int32).

        components + holes, with holes = components - chi for a pinch-free
        complex: the -chi feature entries and twice the component entries,
        summed over subsets once (:func:`subset_table`, which fills no 2^N
        histogram first), plus twice the chorded blocks' walked table, added
        a row of 2^``ROW_BITS`` entries at a time (:func:`add_components`).
        """
        return self._add_components(meet_histogram([(users, -weight) for users, weight in self._euler_features]), 2)
