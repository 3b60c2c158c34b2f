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
  transposed views so that numpy's inner loop is the long axis;
* the component count of a union equals the component count of the induced
  subgraph on per-subsystem cell-components (:func:`component_counts`).
  For every induced subgraph, components = |V| - |E| + cycle rank, and
  every cycle lies in the 2-core (what is left after repeatedly deleting
  vertices of degree <= 1).  So a subset S counts +1 per vertex outside the
  core whose subsystem is in S and -1 per edge with an endpoint outside the
  core whose subsystems are in S (more histogram entries), plus the
  components of the core's own induced subgraph.  Only the core is walked:
  each numpy pass grows every subset's component through per-byte
  neighbour tables, and one that stopped growing counts it and restarts
  from its lowest remaining vertex (uint32, uint64 or Python int vertex
  masks; split subsystems take no branch).  The subsets below 2^12 are
  walked whole; the rest go in order of their top group h, in blocks of
  2^16, each growing the component of group h's lowest vertex and, once
  what is left is whole groups below h, reading the rest from the table
  (:func:`_walk_components`).  Each histogram term
  depends on at most two subsystems, so its alternating sum over the
  subsets of three or more is 0: the component part of C^N (N >= 3) comes
  from the core alone, and the chains and appendages outside add nothing;
* pinch-freeness (enforced by grid validation) makes the complex
  homotopy-faithful, so holes = components - chi and J = 2*components - chi.
  J is built in one int32 pass: the -chi feature entries and twice the
  outside-core entries share one histogram, summed over subsets once, and
  twice the core's walked table is added on top.

C^N and the C of a sub-collection are alternating sums of J, read as the top
Moebius coefficient of a (2,)*k view (:func:`alternating_sum`), in int64 and
without a table of signs.

The flood-fill definition stays available in :mod:`topomi.grid`; the test
suite compares every table with it, for every width of vertex mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import TooManySubsystems
from .grid import OUTSIDE, GridCss, connected_components, set_bits

#: hard cap on subset enumeration (2**24 masks)
MAX_SUBSYSTEMS = 24
#: the component walk takes its subsets in blocks of 2**BLOCK_BITS
BLOCK_BITS = 16
#: the component walk takes the subsets below 2**WHOLE_WALK_BITS whole, in one
#: block (so WHOLE_WALK_BITS <= BLOCK_BITS), and the rest in top-group
#: order, whose small blocks are mostly per-pass overhead.  Best of 35 walks
#: on a 2-core VM, at 8, 12, 14 and 16: six-hole-eighteen's core 28.5, 21.3,
#: 21.9 and 25.4 ms, the 14-ring's 3.4, 2.2, 2.0 and 2.0 ms, the 20-ring's
#: 89, 83, 80 and 86 ms
WHOLE_WALK_BITS = 12


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
    loop runs along the long axis of 2^(n-i-1) entries.  Every pass writes
    into the table itself, with no 2^n temporary, and each entry still gets
    the same single addition, so the result is bit-identical either way.
    """
    for i in range(len(table).bit_length() - 1):
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


def _or_bytes(tables: list[np.ndarray], masks: np.ndarray, out: np.ndarray) -> np.ndarray:
    """OR into ``out``, per vertex mask, the entry of ``tables[k]`` for byte k of the mask."""
    for k, table in enumerate(tables):
        out |= table[((masks >> 8 * k) & 255).astype(np.intp)]
    return out


def _owner_bits(n_vertices: int, groups: list[int]) -> list[int]:
    """The bit of the group holding each vertex."""
    owner = [0] * n_vertices
    for g, mask in enumerate(groups):
        for v in set_bits(mask):
            owner[v] = 1 << g
    return owner


def _two_core(adj: list[int]) -> int:
    """Vertex mask of the 2-core: what is left after repeatedly deleting the
    vertices of degree <= 1.  Every cycle of every induced subgraph lies in it."""
    core = (1 << len(adj)) - 1
    while True:
        peel = sum(1 << v for v in set_bits(core) if (adj[v] & core).bit_count() <= 1)
        if not peel:
            return core
        core ^= peel


def component_counts(adj: list[int], groups: list[int]) -> np.ndarray:
    """Components of the subgraph induced by every subset of vertex groups.

    ``adj[v]`` is the neighbour bitmask of vertex v and ``groups[i]`` the
    vertex bitmask of group i; the groups are disjoint and cover the
    vertices.  Entry ``mask`` (int32) counts the components induced by the
    union of the groups in ``mask`` (entry 0 is 0).
    """
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
    vertices and broadcast over the other axes.
    """
    n = len(groups)
    core = _two_core(adj)
    owner = _owner_bits(len(adj), groups)
    outside = [v for v in range(len(adj)) if not core >> v & 1]
    np.add.at(hist, [owner[v] for v in outside], scale)
    # each edge once: from its endpoint outside the core, or the higher one if both are
    edges = [owner[v] | owner[u] for v in outside for u in set_bits(adj[v]) if u < v or core >> u & 1]
    np.add.at(hist, edges, -scale)
    subset_sums(hist)

    core_vertices = list(set_bits(core))
    position = {v: i for i, v in enumerate(core_vertices)}

    def on_core(mask: int) -> int:
        return sum(1 << position[v] for v in set_bits(mask & core))

    core_groups = [g for g in range(n) if groups[g] & core]
    table = _walk_components(
        [on_core(adj[v]) for v in core_vertices], [on_core(groups[g]) for g in core_groups]
    )
    table *= scale
    # the axes of the (2,)*n view run from the top bit down
    shape = [2 if groups[g] & core else 1 for g in reversed(range(n))]
    hist.reshape((2,) * n)[...] += table.reshape(shape)
    return hist


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


def _walk_components(adj: list[int], groups: list[int]) -> np.ndarray:
    """:func:`component_counts` by walking the subsets' vertex masks in
    numpy passes.  Each pass grows every live subset's component, and one
    that stopped growing is counted, XORed out and replaced by the lowest
    vertex left; emptied subsets drop out.

    The subsets below 2^``WHOLE_WALK_BITS`` are walked whole, in one block.
    The rest go in order of their top group h, in blocks of at most
    2^``BLOCK_BITS``: the first component grows from the lowest vertex of
    group h, the same for the whole block, and once the vertices left are
    the union of whole groups R (all below h, so the entry of R is final)
    the count is the components walked so far plus the entry of R.  With
    no group split over components that happens after the first one.  A
    block with an empty top group copies the one below it.  Vertex masks
    are uint32 up to 32 vertices, uint64 up to 64, else ints.
    """
    dtype = np.uint32 if len(adj) <= 32 else np.uint64 if len(adj) <= 64 else object
    low = _or_table(groups[:BLOCK_BITS], dtype)
    high = _or_table(groups[BLOCK_BITS:], dtype)
    # per byte k of a vertex mask and value of that byte: the neighbours of
    # the vertices set in it, and their groups
    neighbours = [_or_table(adj[k:k + 8], dtype) for k in range(0, len(adj), 8)]
    owner = _owner_bits(len(adj), groups)
    owners = [_or_table(owner[k:k + 8], np.int64) for k in range(0, len(adj), 8)]
    out = np.zeros(1 << len(groups), dtype=np.int32)

    def walk(start: int, stop: int, seed: int | None) -> None:
        count = out[start:stop]
        # a block never straddles a multiple of 2^BLOCK_BITS
        left = low[start % len(low):][:stop - start] | high[start >> BLOCK_BITS]
        live = np.flatnonzero(left)
        left = left[live]
        comp = left & -left if seed is None else np.full(live.size, seed, dtype)
        while live.size:
            near = _or_bytes(neighbours, comp, comp.copy()) & left
            done = near == comp  # stopped growing: count it, start the next
            count[live[done]] += 1
            left = np.where(done, left ^ comp, left)
            if seed is not None:  # read the rest of a subset left with whole groups
                ended = np.flatnonzero(done)
                rest = left[ended]
                union = _or_bytes(owners, rest, np.zeros(rest.size, dtype=np.int64))
                whole = (low[union & len(low) - 1] | high[union >> BLOCK_BITS]) == rest
                count[live[ended[whole]]] += out[union[whole]]
                left[ended[whole]] = 0
            comp = np.where(done, left & -left, near)
            keep = left != 0
            live, left, comp = live[keep], left[keep], comp[keep]

    walk(0, 1 << min(len(groups), WHOLE_WALK_BITS), None)
    for h in range(WHOLE_WALK_BITS, len(groups)):
        if not groups[h]:
            out[1 << h:2 << h] = out[:1 << h]
            continue
        for start in range(1 << h, 2 << h, 1 << BLOCK_BITS):
            walk(start, min(start + (1 << BLOCK_BITS), 2 << h), groups[h] & -groups[h])
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
    def _user_sets(self):
        """(corners, a, b, cells): subset masks of each corner's four cells, of the
        cells on either side of each horizontal then vertical segment, and of
        each cell; OUTSIDE contributes no bit."""
        css = self.css
        labels = np.array(css.labels, dtype=np.int64).reshape(css.height, css.width)
        bits = np.zeros((css.height + 2, css.width + 2), dtype=np.int64)
        cells = bits[1:-1, 1:-1]
        inside = labels != OUTSIDE
        cells[inside] = 1 << labels[inside]
        corners = bits[:-1, :-1] | bits[:-1, 1:] | bits[1:, :-1] | bits[1:, 1:]
        a = np.concatenate([bits[:-1, 1:-1].ravel(), bits[1:-1, :-1].ravel()])
        b = np.concatenate([bits[1:, 1:-1].ravel(), bits[1:-1, 1:].ravel()])
        return corners.ravel(), a, b, cells.ravel()

    @property
    def _euler_features(self):
        """(user sets, weight) of the corners, segments and cells: the closed-cell
        union of mask S has V - E + F = the weight of the features meeting S."""
        corners, a, b, cells = self._user_sets
        return (corners, 1), (a | b, -1), (cells, 1)

    @cached_property
    def euler_table(self) -> np.ndarray:
        """V - E + F of the closed-cell union, per mask."""
        return subset_sums(meet_histogram(self.n, self._euler_features))

    @cached_property
    def boundary_links_table(self) -> np.ndarray:
        """Perimeter links of the union, per mask: segments with exactly one side in it."""
        _, a, b, _ = self._user_sets
        # [a xor b meets S] = 2 [a|b meets S] - [a meets S] - [b meets S]
        return subset_sums(meet_histogram(self.n, ((a | b, 2), (a, -1), (b, -1))))

    # ------------------------------------------------------------------
    # component counts
    # ------------------------------------------------------------------

    @cached_property
    def _cell_component_graph(self):
        """Cell-components of each subsystem and their wall adjacency."""
        css = self.css
        owner: dict[tuple[int, int], int] = {}
        cv_mask: list[int] = []  # the cell-components of each subsystem, as a vertex mask
        n_cv = 0
        for i in range(css.n_subsystems):
            cells = css.subsystem_cells(i)
            count, labeling = connected_components(cells)
            for cell, k in labeling.items():
                owner[cell] = n_cv + k
            cv_mask.append(((1 << count) - 1) << n_cv)
            n_cv += count
        adj = [0] * n_cv
        for (x, y), cv in owner.items():
            for nb in ((x + 1, y), (x, y + 1)):
                other = owner.get(nb)
                if other is not None and other != cv:
                    adj[cv] |= 1 << other
                    adj[other] |= 1 << cv
        return adj, cv_mask, n_cv

    @cached_property
    def component_table(self) -> np.ndarray:
        adj, cv_mask, _ = self._cell_component_graph
        return add_components(np.zeros(1 << self.n, dtype=np.int32), adj, cv_mask)

    @cached_property
    def j_table(self) -> np.ndarray:
        """Disconnected-boundary count J of the union, per mask (int32).

        components + holes, with holes = components - chi for a pinch-free
        complex: one histogram of the -chi feature entries and twice the
        components' outside-core entries, summed over subsets once, plus
        twice the core's walked table.
        """
        hist = meet_histogram(self.n, [(users, -weight) for users, weight in self._euler_features])
        adj, cv_mask, _ = self._cell_component_graph
        return add_components(hist, adj, cv_mask, scale=2)
