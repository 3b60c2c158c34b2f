"""The flood fills over sets of cells that the tests read as the reference.

The package reads every J, perimeter and hole from one labelling pass per
grid (``GridCss.labelling``).  These functions compute the same quantities
of an explicit cell set by flood fills of their own, so the tests compare
the package against an independent definition; ``boundary_walk_labels``
is the hole-boundary walk over a dict of every boundary edge of the hole's
cells, against which the package's corner-by-corner walk is checked.  The
rest of that layer
(``connected_components``, ``boundary_component_count``, ``union_region``,
``restrict_css``) stays in ``topomi.grid``, where the benchmark's
correctness gate binds it.  The file's name does not start with ``test_``,
so pytest does not collect it; the test modules import it from ``tests/``.
"""

from __future__ import annotations

from typing import Iterable

from topomi.engine import CssAnalysis
from topomi.errors import EmptyRegion
from topomi.grid import (
    Cell,
    GridCss,
    Region,
    _complement_components,
    _neighbors4,
    boundary_component_count,
    union_region,
)
from topomi.model import EntropyModel

from oracle_reference import EntropySource


def region_holes(region: Iterable[Cell]) -> list[Region]:
    """Bounded complement components of a region, ordered by their first cell."""
    cells = set(region)
    if not cells:
        raise EmptyRegion("holes of an empty region are undefined")
    count, labeling = _complement_components(cells)
    holes: list[set] = [set() for _ in range(count)]
    for cell, k in labeling.items():
        holes[k].add(cell)
    return [frozenset(h) for h in holes[1:]]


def perimeter_links(region: Iterable[Cell]) -> int:
    """Grid edges with exactly one endpoint cell inside the region."""
    cells = set(region)
    if not cells:
        raise EmptyRegion("perimeter of an empty region is undefined")
    return sum(1 for c in cells for nb in _neighbors4(c) if nb not in cells)


def entropy_of_region(model: EntropyModel, region) -> float:
    """Model entropy alpha*n - J*log(D) of an explicit cell region."""
    return model.entropy(perimeter_links(region), boundary_component_count(region))


def model_entropy_source(model: EntropyModel, css: GridCss | CssAnalysis) -> EntropySource:
    """Entropy of a set of subsystem ids under the topology model, from the
    union's own cells (:func:`entropy_of_region`), so no 2^N table is built
    and any N is answered.  ValidationError for an id outside 0..N-1,
    EmptySubset for no ids."""
    grid_css = CssAnalysis.of(css).css
    return lambda ids: entropy_of_region(model, union_region(grid_css, ids))


def boundary_walk_labels(css: GridCss, hole: frozenset) -> list[int]:
    """Labels of cells just outside the hole along its clockwise boundary.

    Directed boundary edges of a pinch-free cell set form disjoint simple
    loops; the loop through the topmost-leftmost corner is the outer
    boundary, traversed clockwise in screen coordinates.
    """
    # corner -> (next corner, outside cell) for each directed boundary edge
    step: dict[Cell, tuple[Cell, Cell]] = {}
    for (x, y) in hole:
        if (x, y - 1) not in hole:
            step[(x, y)] = ((x + 1, y), (x, y - 1))
        if (x + 1, y) not in hole:
            step[(x + 1, y)] = ((x + 1, y + 1), (x + 1, y))
        if (x, y + 1) not in hole:
            step[(x + 1, y + 1)] = ((x, y + 1), (x, y + 1))
        if (x - 1, y) not in hole:
            step[(x, y + 1)] = ((x, y), (x - 1, y))
    start = min(step, key=lambda c: (c[1], c[0]))
    labels: list[int] = []
    cur = start
    while True:
        nxt, outside_cell = step[cur]
        labels.append(css.label_at(*outside_cell))
        cur = nxt
        if cur == start:
            break
    return labels
