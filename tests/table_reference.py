"""The per-subset J construction that the tests read as the reference.

``topomi.masks`` totals the weight of each distinct user set of the grid's
corners, segments and cells before it spreads the sets over their submasks
(``masks.meet_entries``), and sums the merged entries over the live rows
of the table only (``masks.subset_table``).  Here every feature row is kept
(:func:`feature_labels`), each feature is spread on its own
(:func:`meet_histogram`), and the entries are summed by the plain dense
pass: an int64 histogram of all 2^N masks, then ``masks.subset_sums``
(:func:`dense_j_table`).  ``topomi.masks`` reads chi's entries from the
grid's corner windows (``GridCss.corners``); :func:`euler_entries` is the
feature-row construction it replaced, kept unchanged.  The file's name does
not start with ``test_``, so pytest does not collect it; the test modules
import it from ``tests/``.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from topomi.grid import OUTSIDE, GridCss, pack_bits, set_bits
from topomi.masks import UnionTopology, _walk_components, meet_entries, subset_sums
from topomi.walk import _cycle_blocks, _induced, _plain_cycle


def feature_labels(css: GridCss):
    """(labels, weight) of the corners, segments and cells: one row per
    feature, holding the labels of the cells around it (its four cells,
    the cells on either side of each horizontal then vertical segment, or
    the cell itself; OUTSIDE off the grid).  The closed-cell union of
    subsystems S has V - E + F = the weight of the features with a label in S."""
    labels = np.array(css.labels, dtype=np.int64).reshape(css.height, css.width)
    grid = np.full((css.height + 2, css.width + 2), OUTSIDE, dtype=np.int64)
    grid[1:-1, 1:-1] = labels
    corners = np.stack([grid[:-1, :-1], grid[:-1, 1:], grid[1:, :-1], grid[1:, 1:]], axis=-1)
    segments = np.concatenate([
        np.stack([grid[:-1, 1:-1], grid[1:, 1:-1]], axis=-1).reshape(-1, 2),
        np.stack([grid[1:-1, :-1], grid[1:-1, 1:]], axis=-1).reshape(-1, 2),
    ])
    return (corners.reshape(-1, 4), 1), (segments, -1), (labels.reshape(-1, 1), 1)


def euler_entries(topo: UnionTopology, sign: int) -> dict[int, int]:
    """:func:`meet_entries` of the corners, segments and cells, each the OR of
    its cells' bits: the union of mask S has V - E + F = the weight of those meeting S."""
    bits = topo._cell_bits
    across = bits[:-1] | bits[1:]  # each horizontal segment's two sides, the border columns included
    return meet_entries(((across[:, :-1] | across[:, 1:], sign), (across[:, 1:-1], -sign),
                         ((bits[:, :-1] | bits[:, 1:])[1:-1], -sign), (bits[1:-1, 1:-1], sign)))


def user_masks(labels: np.ndarray) -> np.ndarray:
    """Per row of subsystem labels, the int64 mask of its subsystems; OUTSIDE adds no bit."""
    bits = np.where(labels == OUTSIDE, 0, np.left_shift(1, labels.clip(0)))
    return np.bitwise_or.reduce(bits, axis=1)


def euler_features(css: GridCss):
    """(user sets, weight) of the corners, segments and cells: the closed-cell
    union of mask S has V - E + F = the weight of the features meeting S."""
    return tuple((user_masks(labels), weight) for labels, weight in feature_labels(css))


def meet_histogram(weighted_users) -> tuple[np.ndarray, np.ndarray]:
    """The (masks, weights) entries, one mask repeated as often as it comes,
    whose subset sums give, per mask S, the total weight of the (user-set
    array, weight) features meeting S: each user set U is spread over its
    non-empty submasks V with sign (-1)^(|V|-1), walked as V -> (V - 1) & U."""
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


def dense_j_table(css: GridCss) -> np.ndarray:
    """J of every mask in int64: the -chi feature entries of each feature
    row (:func:`meet_histogram`) and twice the component entries (+1 per
    vertex, -1 per edge, +1 per plain-cycle block of the cell-component
    graph, none on a block with a chord) in one 2^N histogram, summed by
    ``subset_sums``, plus twice the chorded blocks' walked component table
    broadcast over the (2,)*N view."""
    n = css.n_subsystems
    adj, groups, _ = css.cell_components
    hist = np.zeros(1 << n, dtype=np.int64)
    np.add.at(hist, *meet_histogram([(users, -weight) for users, weight in euler_features(css)]))
    owner = pack_bits(((v, g) for g, mask in enumerate(groups) for v in set_bits(mask)), len(adj))
    own = [0] * len(adj)
    for block in _cycle_blocks(adj, (1 << len(adj)) - 1):
        if _plain_cycle(adj, block):
            hist[functools.reduce(operator.or_, (owner[v] for v in set_bits(block)))] += 2
        else:
            for v in set_bits(block):
                own[v] |= adj[v] & block
    np.add.at(hist, np.array([owner[v] for v in range(len(adj)) if not own[v]], dtype=np.int64), 2)
    edges = [owner[v] | owner[u] for v in range(len(adj)) for u in set_bits(adj[v] & ~own[v]) if u < v]
    np.add.at(hist, np.array(edges, dtype=np.int64), -2)
    subset_sums(hist)
    chorded = sum(1 << v for v in range(len(adj)) if own[v])
    if chorded:
        walked = _walk_components(*_induced(own, [mask for mask in groups if mask & chorded], chorded))
        shape = [2 if groups[g] & chorded else 1 for g in reversed(range(n))]
        hist.reshape((2,) * n)[...] += 2 * walked.reshape(shape)
    return hist
