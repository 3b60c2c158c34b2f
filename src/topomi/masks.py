"""Exact per-subset topology tables for a grid CSS.

For every non-empty subset of subsystems (a bitmask) we need the number of
disconnected boundaries J of the union and its perimeter-link count.  Doing
a flood fill per mask is exact but O(2^N * cells); instead we decompose the
counts combinatorially:

* the union of closed cells is a cubical complex whose Euler characteristic
  V - E + F splits over corner/segment/cell features, each feature being
  "present" for a mask iff the mask hits the feature's user set -- a form
  that vectorizes over all masks at once;
* the component count of a union equals the component count of the induced
  subgraph on per-subsystem cell-components (:func:`component_counts`): a
  lowest-bit dynamic program over masks, or a walk memoized on vertex sets
  when some subsystem is split into several cell-components;
* pinch-freeness (enforced by grid validation) makes the complex
  homotopy-faithful, so holes = components - chi and J = 2*components - chi.

The flood-fill definition stays available in :mod:`topomi.grid`; the test
suite compares every table with it, on both branches of the component walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import TooManySubsystems
from .grid import OUTSIDE, GridCss, connected_components

#: hard cap on subset enumeration (2**24 masks)
MAX_SUBSYSTEMS = 24


def subset_signs(n: int) -> np.ndarray:
    """(-1)**(m-1) for the size m of every subset mask of n bits; entry 0 is 0."""
    signs = np.where(np.bitwise_count(np.arange(1 << n, dtype=np.int64)) & 1, 1, -1)
    signs[0] = 0
    return signs


def _closure(seed: int, allowed: int, adj: list[int]) -> int:
    """Connected closure of ``seed`` within ``allowed`` (bitmask vertices)."""
    comp = frontier = seed
    while frontier:
        grow = 0
        while frontier:
            low = frontier & -frontier
            grow |= adj[low.bit_length() - 1]
            frontier ^= low
        grow &= allowed & ~comp
        comp |= grow
        frontier = grow
    return comp


def component_counts(adj: list[int], groups: list[int]) -> np.ndarray:
    """Components of the subgraph induced by every subset of vertex groups.

    ``adj[v]`` is the neighbour bitmask of vertex v and ``groups[i]`` the
    vertex bitmask of group i; entry ``mask`` counts the components induced
    by the union of the groups in ``mask`` (entry 0 is 0).
    """
    total = 1 << len(groups)
    if all(g == 1 << i for i, g in enumerate(groups)):
        # subset mask == vertex mask: remove the lowest bit's component
        comp = [0] * total
        for mask in range(1, total):
            comp[mask] = 1 + comp[mask ^ _closure(mask & -mask, mask, adj)]
        return np.array(comp, dtype=np.int64)
    # split groups: memoize on the induced vertex set
    memo = {0: 0}
    out = np.zeros(total, dtype=np.int64)
    active = [0] * total
    for mask in range(1, total):
        low = mask & -mask
        cur = active[mask] = active[mask ^ low] | groups[low.bit_length() - 1]
        pending = []
        while cur not in memo:
            pending.append(cur)
            cur ^= _closure(cur & -cur, cur, adj)
        count = memo[cur]
        for m in reversed(pending):
            count += 1
            memo[m] = count
        out[mask] = count
    return out


@dataclass(frozen=True)
class UnionTopology:
    """Per-mask J, perimeter-link and component tables for one CSS."""

    css: GridCss

    def __post_init__(self):
        if self.css.n_subsystems > MAX_SUBSYSTEMS:
            raise TooManySubsystems(
                f"{self.css.n_subsystems} subsystems exceed the cap of {MAX_SUBSYSTEMS}"
            )

    @property
    def n(self) -> int:
        return self.css.n_subsystems

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
    def _features(self):
        css = self.css
        corner_groups: dict[int, int] = {}
        seg_groups: dict[tuple[int, int], int] = {}

        def bit(label: int) -> int:
            return 0 if label == OUTSIDE else 1 << label

        for y in range(css.height + 1):
            for x in range(css.width + 1):
                mu = (
                    bit(css.label_at(x - 1, y - 1))
                    | bit(css.label_at(x, y - 1))
                    | bit(css.label_at(x - 1, y))
                    | bit(css.label_at(x, y))
                )
                if mu:
                    corner_groups[mu] = corner_groups.get(mu, 0) + 1
        # horizontal segments (x,y)-(x+1,y): cells above and below
        for y in range(css.height + 1):
            for x in range(css.width):
                pair = (bit(css.label_at(x, y - 1)), bit(css.label_at(x, y)))
                if pair != (0, 0):
                    seg_groups[pair] = seg_groups.get(pair, 0) + 1
        # vertical segments (x,y)-(x,y+1): cells left and right
        for y in range(css.height):
            for x in range(css.width + 1):
                pair = (bit(css.label_at(x - 1, y)), bit(css.label_at(x, y)))
                if pair != (0, 0):
                    seg_groups[pair] = seg_groups.get(pair, 0) + 1

        areas = [0] * self.n
        for v in css.labels:
            if v != OUTSIDE:
                areas[v] += 1
        return corner_groups, seg_groups, areas

    @cached_property
    def euler_table(self) -> np.ndarray:
        """V - E + F of the closed-cell union, per mask."""
        corner_groups, seg_groups, areas = self._features
        masks = self.masks
        chi = np.zeros(masks.shape, dtype=np.int64)
        for mu, cnt in sorted(corner_groups.items()):
            chi += cnt * ((masks & mu) != 0)
        for (ma, mb), cnt in sorted(seg_groups.items()):
            chi -= cnt * ((masks & (ma | mb)) != 0)
        for i, area in enumerate(areas):
            chi += area * ((masks >> i) & 1)
        return chi

    @cached_property
    def boundary_links_table(self) -> np.ndarray:
        """Perimeter links of the union, per mask."""
        _, seg_groups, _ = self._features
        masks = self.masks
        links = np.zeros(masks.shape, dtype=np.int64)
        for (ma, mb), cnt in sorted(seg_groups.items()):
            links += cnt * (((masks & ma) != 0) ^ ((masks & mb) != 0))
        return links

    # ------------------------------------------------------------------
    # component counts
    # ------------------------------------------------------------------

    @cached_property
    def _cell_component_graph(self):
        """Cell-components of each subsystem and their wall adjacency."""
        css = self.css
        owner: dict[tuple[int, int], int] = {}
        comp_of_subsystem: list[list[int]] = [[] for _ in range(self.n)]
        n_cv = 0
        for i in range(self.n):
            cells = css.subsystem_cells(i)
            count, labeling = connected_components(cells)
            for cell, k in labeling.items():
                owner[cell] = n_cv + k
            comp_of_subsystem[i] = list(range(n_cv, n_cv + count))
            n_cv += count
        adj = [0] * n_cv
        for (x, y), cv in owner.items():
            for nb in ((x + 1, y), (x, y + 1)):
                other = owner.get(nb)
                if other is not None and other != cv:
                    adj[cv] |= 1 << other
                    adj[other] |= 1 << cv
        cv_mask = [0] * self.n
        for i, cvs in enumerate(comp_of_subsystem):
            for cv in cvs:
                cv_mask[i] |= 1 << cv
        return adj, cv_mask, n_cv

    @cached_property
    def component_table(self) -> np.ndarray:
        adj, cv_mask, _ = self._cell_component_graph
        return component_counts(adj, cv_mask)

    @cached_property
    def j_table(self) -> np.ndarray:
        """Disconnected-boundary count J of the union, per mask.

        components + holes, with holes = components - chi for a
        pinch-free complex.
        """
        return 2 * self.component_table - self.euler_table
