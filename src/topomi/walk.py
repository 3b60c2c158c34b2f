"""The signed component sum behind C^N, the C of a sub-collection and rho.

C^N and the C of a sub-collection X read no table.  For |X| <= 2 it is the
J of unions (``grid.union_boundary_count``); beyond, with J = 2c - chi,
C(X) = -2 s(X) - (the features whose user set holds X: the junction corners
of X's ids if they are three, none beyond), where s(X) = sum over S in X of
(-1)^|S| c(S) is the signed component sum (:func:`signed_component_sum`).
For |X| >= 3 it is split over the blocks (2-connected pieces) of the
subgraph X's own vertices induce, found in one iterative Hopcroft-Tarjan
pass (:func:`_cycle_blocks`): only a block that meets every group of X adds
a term, a plain cycle adds (-1)^|X| with no walk, and only a block with a
chord is walked; for |X| <= 2 the whole subgraph is walked.  The walk
(:func:`_frontier_walk`) is one dynamic-programming pass over the block's
vertices, renumbered, that picks each vertex as it goes
(:func:`_next_vertex`), whose states are the in/out choices of the open
groups and the component partition of the frontier.  The states grow with
the width of the frontier, not with N; past ``MAX_WALK_STATES`` of them
the block's term is read from a 2^|X| table (:mod:`topomi.masks`, numpy).
"""

from __future__ import annotations

from .errors import TooManySubsystems
from .grid import set_bits

#: the frontier walk (:func:`_frontier_walk`) falls back to a table
#: when one vertex leaves more states than this
MAX_WALK_STATES = 1 << 12


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


def signed_component_sum(adj: list[int], groups: list[int], blocks=None) -> int:
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
    ``blocks``, when given, are the subgraph's, found beforehand.
    """
    if not all(groups):
        return 0
    union = 0
    for mask in groups:
        union |= mask
    if len(groups) <= 2:
        return _frontier_walk(*_induced(adj, groups, union))
    total = 0
    for block in _cycle_blocks(adj, union) if blocks is None else blocks:
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
    subtree vertices still on the path plus the parent.  Its state is kept in
    lists indexed by vertex."""
    n = len(adj)
    order = [-1] * n  # discovery number of each vertex reached, -1 before
    low = [0] * n
    left = [0] * n  # neighbours of each vertex not yet tried
    reached = 0
    blocks: list[int] = []
    for root in set_bits(keep):
        if order[root] >= 0:
            continue
        order[root] = low[root] = reached
        reached += 1
        left[root] = adj[root] & keep
        path, todo = [root], [root]  # todo: the depth-first stack
        while todo:
            v = todo[-1]
            rest = left[v]
            if rest:
                bit = rest & -rest
                left[v] = rest ^ bit
                u = bit.bit_length() - 1
                if order[u] >= 0:
                    if order[u] < low[v]:
                        low[v] = order[u]
                else:
                    order[u] = low[u] = reached
                    reached += 1
                    left[u] = adj[u] & keep
                    path.append(u)
                    todo.append(u)
                continue
            todo.pop()
            if todo:
                parent = todo[-1]
                if low[v] < low[parent]:
                    low[parent] = low[v]
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
    the ``masks.component_counts`` of the groups on this graph, a 2^n table:
    TooManySubsystems naming both caps above ``masks.MAX_SUBSYSTEMS`` groups.
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
            from .masks import MAX_SUBSYSTEMS, alternating_sum, component_counts

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
