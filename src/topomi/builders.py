"""Deterministic constructors for the CSS shapes used by the gallery and tests.

Every builder returns a validated :class:`GridCss`.  Ring-based shapes place
subsystems as contiguous arcs on the perimeter of a k x k box, walked
clockwise from the top-left cell, so the adjacency graph of a plain ring is
the cycle graph in id order.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from .errors import ValidationError
from .grid import OUTSIDE, GridCss, parse_ascii, window_pinch


def _grid_from_cells(width: int, height: int, cells: dict, name: str) -> GridCss:
    labels = [OUTSIDE] * (width * height)
    for (x, y), label in cells.items():
        if not (0 <= x < width and 0 <= y < height):
            raise ValidationError(f"builder bug: cell ({x},{y}) outside {width}x{height}")
        labels[y * width + x] = label
    return GridCss(width, height, tuple(labels), name=name)


def ring_cells(k: int) -> list[tuple[int, int]]:
    """Perimeter cells of a k x k box, clockwise from (0, 0)."""
    if k < 3:
        raise ValidationError("ring needs k >= 3")
    cells = [(i, 0) for i in range(k)]
    cells += [(k - 1, j) for j in range(1, k)]
    cells += [(i, k - 1) for i in range(k - 2, -1, -1)]
    cells += [(0, j) for j in range(k - 2, 0, -1)]
    return cells


def _split_sizes(total: int, parts: int, forced: Sequence[int] = ()) -> list[int]:
    """Contiguous chunk sizes, at least 2 cells each among the unforced ones.

    An arc shorter than 2 cells can sit exactly on a box corner, which puts
    its two neighbours in diagonal contact and trips grid validation.
    """
    sizes = list(forced)
    rest = total - sum(forced)
    free = parts - len(forced)
    if free < 0 or (free and rest < 2 * free) or (not free and rest):
        raise ValidationError(f"cannot split {total} cells into {parts} arcs")
    if free:
        base, extra = divmod(rest, free)
        sizes += [base + (1 if i < extra else 0) for i in range(free)]
    return sizes


def _arcs_on_ring(ring: list, sizes: Sequence[int]) -> dict:
    cells = {}
    pos = 0
    for label, size in enumerate(sizes):
        for cell in ring[pos : pos + size]:
            cells[cell] = label
        pos += size
    return cells


def _ring_side(n: int) -> int:
    k = 3
    while 4 * (k - 1) < 2 * n:
        k += 1
    return k


def annulus(n: int, name: str = "") -> GridCss:
    """Plain ring of n arcs around a single hole."""
    if n < 3:
        raise ValidationError("an annulus needs at least 3 subsystems")
    k = _ring_side(n)
    ring = ring_cells(k)
    cells = _arcs_on_ring(ring, _split_sizes(len(ring), n))
    return _grid_from_cells(k, k, cells, name or f"annulus-n{n}")


def open_chain(n: int) -> GridCss:
    """Row of n blocks touching in a line."""
    if n < 2:
        raise ValidationError("a chain needs at least 2 subsystems")
    cells = {(i, 0): i for i in range(n)}
    return _grid_from_cells(n, 1, cells, f"open-chain-n{n}")


def annulus_with_island(n: int) -> GridCss:
    """Ring of n-1 arcs plus one disjoint island subsystem."""
    if n < 4:
        raise ValidationError("needs at least 4 subsystems (ring of 3 + island)")
    k = _ring_side(n - 1)
    ring = ring_cells(k)
    cells = _arcs_on_ring(ring, _split_sizes(len(ring), n - 1))
    cells[(0, k + 1)] = n - 1
    return _grid_from_cells(k, k + 2, cells, f"island-n{n}")


def annulus_with_appendage(n: int) -> GridCss:
    """Ring of n-1 arcs with a dangling extra subsystem attached to one arc.

    The appendage hangs off the interior of the top-row arc so that its
    only contacts, including diagonal ones, are with that single arc.
    """
    if n < 4:
        raise ValidationError("needs at least 4 subsystems (ring of 3 + appendage)")
    k, arc_cells = _ring_with_top_row_arc(n - 1)
    cells = {(x, y + 1): label for (x, y), label in arc_cells.items()}
    cells[(1, 0)] = n - 1  # shares a wall with ring cell (1, 1) of arc 0
    return _grid_from_cells(k, k + 1, cells, f"appendage-n{n}")


def _ring_with_top_row_arc(n: int) -> tuple[int, dict]:
    """Ring whose arc 0 is exactly the whole top row."""
    k = 3
    while 3 * k - 4 < 2 * (n - 1):  # ring minus top row vs remaining arcs
        k += 1
    ring = ring_cells(k)
    sizes = _split_sizes(len(ring), n, forced=[k])
    return k, _arcs_on_ring(ring, sizes)


def annulus_with_punched_hole(n: int) -> GridCss:
    """Ring deformed by punching a hole through subsystem 0.

    Arc 0 grows a 3x3 blob above the ring with an empty center, so its own
    boundary acquires a second component while the adjacency is unchanged.
    """
    k, arc_cells = _ring_with_top_row_arc(n)
    cells = {(x, y + 3): label for (x, y), label in arc_cells.items()}
    for x in range(3):
        for y in range(3):
            if (x, y) != (1, 1):
                cells[(x, y)] = 0
    return _grid_from_cells(k, k + 3, cells, f"punched-n{n}")


def annulus_with_self_handle(n: int) -> GridCss:
    """Ring deformed by a thin handle from subsystem 0 back to itself."""
    k, arc_cells = _ring_with_top_row_arc(n)
    cells = {(x, y + 3): label for (x, y), label in arc_cells.items()}
    handle = [(0, 0), (1, 0), (2, 0), (0, 1), (2, 1), (0, 2), (2, 2)]
    for cell in handle:
        cells[cell] = 0
    return _grid_from_cells(k, k + 3, cells, f"self-handle-n{n}")


def annulus_with_nn_handle(n: int) -> GridCss:
    """Ring deformed by an extra handle between neighbours 0 and 1.

    The handle arches around one empty cell to the right of the box, so
    the pair union gains a boundary component while single-subsystem
    boundaries stay simple.
    """
    if n < 3:
        raise ValidationError("needs at least 3 subsystems")
    k = 3
    while 3 * k - 4 - 2 < 2 * (n - 2):  # ring minus top row minus arc 1 vs rest
        k += 1
    ring = ring_cells(k)
    sizes = _split_sizes(len(ring), n, forced=[k, 2])
    cells = _arcs_on_ring(ring, sizes)
    # arc 0 = top row, arc 1 = cells (k-1, 1) and (k-1, 2)
    cells[(k, 0)] = 0
    cells[(k + 1, 0)] = 0
    cells[(k + 1, 1)] = 1
    cells[(k + 1, 2)] = 1
    cells[(k, 2)] = 1
    return _grid_from_cells(k + 2, k, cells, f"nn-handle-n{n}")


def far_handle_annulus(n: int, span: int = 2) -> GridCss:
    """Ring with a handle between subsystems 0 and ``span`` across the hole.

    The bridge belongs to subsystem 0 and splits the hole in two; the loop
    around one hole has span+1 subsystems, the other n-span+1.
    """
    if n < 4:
        raise ValidationError("needs at least 4 subsystems")
    if not 2 <= span <= n - 2:
        raise ValidationError(f"span must be in 2..{n - 2}, got {span}")
    right_arcs = span - 1
    left_arcs = n - 1 - span
    k = 5
    while True:
        x_m = k // 2
        right_cells = (k - 2) + (k - 2 - (x_m + 1))  # right column + bottom right of arc span
        left_cells = (x_m - 1) + (k - 2)  # bottom left of arc span + left column
        if right_cells >= 2 * right_arcs and left_cells >= 2 * left_arcs and 2 <= x_m <= k - 3:
            break
        k += 1
    ring = ring_cells(k)
    # ring positions: top row 0..k-1; right column k..2k-2 (ends at the
    # bottom-right corner); bottom row 2k-1..3k-3 walking right to left;
    # left column 3k-2..4k-5
    pos_span_start = 2 * k - 1 + (k - 2 - (x_m + 1))
    sizes = [k]
    sizes += _split_sizes(pos_span_start - k, right_arcs)
    sizes += [3]  # arc span: bottom cells x_m+1, x_m, x_m-1
    sizes += _split_sizes(len(ring) - pos_span_start - 3, left_arcs)
    cells = _arcs_on_ring(ring, sizes)
    for y in range(1, k - 1):
        cells[(x_m, y)] = 0
    return _grid_from_cells(k, k, cells, f"far-handle-n{n}-span{span}")


def theta_pair() -> GridCss:
    """Two-subsystem theta shape: both holes ringed by only two subsystems."""
    ascii_rows = [
        "AAAAA",
        "A.B.A",
        "A.B.A",
        "AAAAA",
    ]
    return parse_ascii("\n".join(ascii_rows), name="theta-pair")


def two_hole_five() -> GridCss:
    """Five subsystems sharing one spine, two holes: loops (A,B,C) and (A,D,E)."""
    ascii_rows = [
        "AAAAAAA",
        "B..A..D",
        "B..A..D",
        "CCCAEEE",
    ]
    return parse_ascii("\n".join(ascii_rows), name="two-hole-five")


def six_hole_eighteen() -> GridCss:
    """Window-frame CSS: 18 subsystems, 23 walls, 6 holes.

    Wall lines one cell thick cross at 12 junctions (A-L, row by row); each
    junction blob keeps the four adjacent wall cells, six wall middles stand
    alone as their own subsystems (M-R) and the remaining middles merge into
    a neighbour junction, so the adjacency graph is the 4x3 grid graph with
    six subdivided edges.
    """
    ascii_rows = [
        "AAABBBNCCCCDD",
        "A...B...C...D",
        "Q...B...C...D",
        "E...F...G...H",
        "EEMFFFFGGGPHH",
        "E...F...G...H",
        "E...F...G...R",
        "I...J...K...L",
        "IIIJJJOKKKKLL",
    ]
    return parse_ascii("\n".join(ascii_rows), name="six-hole-eighteen")


# ----------------------------------------------------------------------
# fuzzing
# ----------------------------------------------------------------------

def random_css(rng: random.Random, n: int, width: int = 12, height: int = 12, growth: int = 60) -> GridCss:
    """Random valid CSS: seeded blobs grown with local pinch rejection.

    Every window a placed cell changes is checked as it is placed, so the
    grid is pinch-free with ids 0..n-1; only the cell cap can reject it."""
    if n < 1:
        raise ValidationError("needs at least 1 subsystem")
    for _ in range(200):
        cells = _try_random_css(rng, n, width, height, growth)
        if cells is not None:
            return _grid_from_cells(width, height, cells, f"fuzz-n{n}")
    raise ValidationError("random CSS generation failed to converge")


def _try_random_css(rng, n, width, height, growth):
    cells: dict = {}
    spots = [(x, y) for x in range(width) for y in range(height)]
    rng.shuffle(spots)
    placed = 0
    for spot in spots:
        if placed == n:
            break
        cells[spot] = placed
        if _local_pinch_free(cells, spot):
            placed += 1
        else:
            del cells[spot]
    if placed < n:
        return None
    for _ in range(growth):
        x, y = rng.choice(list(cells))
        label = cells[(x, y)]
        dx, dy = rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1)))
        spot = (x + dx, y + dy)
        if spot in cells or not (0 <= spot[0] < width and 0 <= spot[1] < height):
            continue
        cells[spot] = label
        if not _local_pinch_free(cells, spot):
            del cells[spot]
    return cells


def _local_pinch_free(cells: dict, spot: tuple) -> bool:
    """Check the four 2x2 windows around a just-added cell."""
    x0, y0 = spot

    def lab(x, y):
        return cells.get((x, y), OUTSIDE)

    return all(
        window_pinch(lab(bx, by), lab(bx + 1, by), lab(bx, by + 1), lab(bx + 1, by + 1)) is None
        for bx in (x0 - 1, x0)
        for by in (y0 - 1, y0)
    )
