"""The flood fills over sets of cells that the tests read as the reference.

The package validates and labels each grid in one union-find pass
(``grid._scan``, run by the constructor) and reads every J, perimeter and
hole from that labelling (``GridCss.labelling``).  ``pinch_scan`` and
``flood_labelling`` are the two passes it replaced, kept unchanged: the
window scan that rejected corner-only contacts and recorded the junction
corners, and the flood from each component's first cell.  The other
functions compute the same quantities of an explicit cell set by flood
fills of their own, so the tests compare the package against an
independent definition: ``union_euler`` is chi of a union, against which
the chi table of the grid's corner windows is checked, and
``boundary_walk_labels`` is the hole-boundary walk over a dict of every
boundary edge of the hole's cells, against which the package's
corner-by-corner walk is checked.  The rest of that layer
(``connected_components``, ``boundary_component_count``, ``union_region``,
``restrict_css``) stays in ``topomi.grid``, where the benchmark's
correctness gate binds it.  The file's name does not start with ``test_``,
so pytest does not collect it; the test modules import it from ``tests/``.
"""

from __future__ import annotations

from typing import Iterable

from topomi.engine import CssAnalysis
from topomi.errors import EmptyRegion, ValidationError
from topomi.grid import (
    OUTSIDE,
    Cell,
    GridCss,
    Region,
    _complement_components,
    _neighbors4,
    boundary_component_count,
    connected_components,
    union_region,
    window_pinch,
)
from topomi.model import EntropyModel

from oracle_reference import EntropySource


def padded(css) -> list[int]:
    """The labels, row-major, of the grid padded by one OUTSIDE cell on every side."""
    w = css.width
    cells = [OUTSIDE] * (w + 3)  # the top border and the first left border
    for y in range(css.height):
        cells += css.labels[y * w:(y + 1) * w]
        cells += (OUTSIDE, OUTSIDE)  # this right border, the next left border
    return cells + [OUTSIDE] * (w + 1)


def pinch_scan(css) -> tuple[tuple[int, int, int, int], ...]:
    """Reject corner-only contacts (``grid.window_pinch``): the 2x2 windows
    whose four edges all separate different labels.  So no window left holds
    four labels.  Returns the junction corners: the labels ``(a, b, c, d)``
    of each window ``a b / c d`` of three subsystems, in row-major order.

    ``css`` needs only ``width``, ``height`` and ``labels``, so a grid that
    ``GridCss`` rejects can be scanned.  Every window is scanned, including
    a virtual OUTSIDE border.
    """
    row, cells = css.width + 2, padded(css)
    junctions = []
    # a window across the wrap of two padded rows has two border cells side by side
    for k, (a, b, c, d) in enumerate(zip(cells, cells[1:], cells[row:], cells[row + 1:])):
        if a != b and a != c and b != d and c != d:
            x, y = k % row - 1, k // row - 1
            raise ValidationError(f"{window_pinch(a, b, c, d)} at cells ({x},{y})..({x + 1},{y + 1})")
        # with no pinch, a window with both diagonals split that is no
        # straight wall between two labels holds exactly three labels
        if a != d and b != c and (a != b or c != d) and (a != c or b != d) and OUTSIDE not in (a, b, c, d):
            junctions.append((a, b, c, d))
    return tuple(junctions)


def flood_labelling(css) -> tuple[tuple[int, ...], tuple[set[int], ...], dict[Cell, int]]:
    """The 4-connected same-label components of the grid padded by one
    OUTSIDE cell on every side, by one flood each from its first cell, so
    numbered in row-major order of their first cells.  Component 0 is the
    outside; every other OUTSIDE component is a hole.  Returns the label of
    each component, the components sharing a grid edge with each, and the
    first cell (x, y) of each hole, its seed, -> its component."""
    row, cells = css.width + 2, padded(css)
    n = len(cells)
    cells += [None] * row  # read, also at negative indices, off the padding
    comp, labels, near, holes = [-1] * (n + row), [], [], {}
    for seed in range(n):
        if comp[seed] >= 0:
            continue
        c, label = len(labels), cells[seed]
        labels.append(label)
        near.append(set())
        comp[seed], stack = c, [seed]
        for k in stack:  # the stack grows while it is read, and ends as the component
            for nb in (k - row, k - 1, k + 1, k + row):
                other = comp[nb]
                if other < 0 and cells[nb] == label:
                    comp[nb] = c
                    stack.append(nb)
                elif 0 <= other != c:  # a wall with a component flooded before
                    near[c].add(other)
                    near[other].add(c)
        if label == OUTSIDE and c:
            holes[seed % row - 1, seed // row - 1] = c
    return tuple(labels), tuple(near), holes


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


def union_euler(css: GridCss, mask: int) -> int:
    """chi of the union of the subsystems in ``mask``: its components less
    its holes, the bounded components of its complement, by flood fills."""
    region = union_region(css, mask)
    return connected_components(region)[0] - (_complement_components(set(region))[0] - 1)


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
