"""Labeled planar grids of subsystems and their topology queries.

A collection of subsystems (CSS) is stored as a rectangular grid of cells,
each cell either OUTSIDE or owned by exactly one subsystem.  All topology
(connected components, disconnected boundary counts, holes, adjacency,
Euler characteristic) is computed with 4-adjacency for both regions and
their complements.  Grids containing a diagonal pinch -- a 2x2 block in
which two regions, or a region and its complement, meet only at a corner --
are rejected at construction time so that every boundary-curve count is
unambiguous; so no window holds four labels.  The constructor validates
and labels each grid in one row-major union-find pass (``_scan``): it
rejects the first pinch window, records the junction corners, windows of
three subsystems (``GridCss.junctions``), and labels the grid once
(``GridCss.labelling``), numbering its components in first-cell order;
it also counts the footprint's components (``GridCss.footprint_components``,
chi's connectivity check) and records the 2x2 windows that the Euler
characteristic of every union is read from (``GridCss.corners``).
Every other CSS-level structure is read from these; a hole is its first
cell.  J and chi's footprint count come from
the labelling's components joined over their walls by ``count_components``,
the one component count, which rho runs on a graph's neighbour sets.
``SimpleGraph`` takes a fast path when its edges are plain int pairs.  The
flood fills over sets of cells below (``connected_components`` to
``union_region``, and ``restrict_css``) are called by no package path:
they stay as the independent definition that the benchmark's correctness
gate and the tests compare against.
"""

from __future__ import annotations

import json
import operator
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice

from .errors import (
    DisconnectedCss,
    EmptyRegion,
    EmptySubset,
    NotACycle,
    ParseError,
    TooManySubsystems,
    ValidationError,
)

OUTSIDE = -1

#: width * height above this is rejected so flood fills stay desk-scale
CELL_CAP = 1_048_576

#: vertices of a SimpleGraph or a CSS's cell-component graph; rho of a path at the cap peaks at 85 MB RSS
MAX_VERTICES = 1 << 14

#: subsystem id -> single character used by the ASCII format
_ID_CHARS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"

#: ASCII cell character -> label
_CHAR_LABELS = {".": OUTSIDE, **{ch: k for k, ch in enumerate(_ID_CHARS)}}

Cell = tuple[int, int]
Region = frozenset  # frozenset[Cell]


def _neighbors4(cell: Cell) -> tuple[Cell, Cell, Cell, Cell]:
    x, y = cell
    return ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1))


@dataclass(frozen=True)
class GridCss:
    """A planar CSS: disjoint labeled subsystems on a cell grid.

    ``labels`` is row-major; value ``OUTSIDE`` (-1) marks background cells,
    values ``0..n_subsystems-1`` mark subsystem cells.  Every id in that
    range must occur at least once.  The constructor's one pass
    (:func:`_scan`) sets the rest.  ``junctions`` holds the labels
    ``(a, b, c, d)`` of each 2x2 window ``a b / c d`` of three subsystems,
    in row-major order.  ``labelling``, the grid's one labelling, from which
    every CSS-level structure is read, is the 4-connected same-label
    components of the grid padded by one OUTSIDE cell on every side,
    numbered in row-major order of their first cells: component 0 is the
    outside, and every other OUTSIDE component is a hole.  It holds the
    label of each component, the components sharing a grid edge with each,
    and the first cell (x, y) of each hole -> its component.
    ``footprint_components`` counts the components of the subsystem cells.
    ``corners`` holds two tuples of the 2x2 windows ``a b / c d`` of the
    padded grid that Euler characteristics are read from, each in row-major
    order: ``(c, a, d)`` of each window whose lower-left label c is in no
    other of its cells, and ``(b, a, d)`` of each whose upper-right label b
    is in no other.
    """

    width: int
    height: int
    labels: tuple[int, ...]
    name: str = ""
    n_subsystems: int = field(init=False, repr=False, compare=False)
    junctions: tuple[tuple[int, int, int, int], ...] = field(init=False, repr=False, compare=False)
    labelling: tuple[tuple[int, ...], tuple[set[int], ...], dict[Cell, int]] = field(
        init=False, repr=False, compare=False)
    footprint_components: int = field(init=False, repr=False, compare=False)
    corners: tuple[tuple[tuple[int, int, int], ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("width", "height"):
            object.__setattr__(self, name, index_int(getattr(self, name), f"grid {name}"))
        if self.width <= 0 or self.height <= 0:
            raise ValidationError("grid dimensions must be positive")
        if self.width * self.height > CELL_CAP:
            raise ValidationError(
                f"grid has {self.width * self.height} cells, cap is {CELL_CAP}"
            )
        try:
            object.__setattr__(self, "labels", tuple(self.labels))  # no copy of a tuple
            distinct = set(self.labels)
        except TypeError:
            raise ValidationError(f"grid labels must be a sequence of integers, got {self.labels!r}") from None
        if len(self.labels) != self.width * self.height:
            raise ValidationError(
                f"expected {self.width * self.height} labels, got {len(self.labels)}"
            )
        for value in distinct:  # each distinct value once, not each cell
            index_int(value, "a grid label")
        present = sorted(distinct - {OUTSIDE})
        if not present:
            raise ValidationError("grid contains no subsystem cells")
        if present[0] < 0 or present != list(range(len(present))):
            raise ValidationError(
                f"subsystem ids must be exactly 0..{len(present) - 1}, got {present}"
            )
        object.__setattr__(self, "n_subsystems", len(present))
        junctions, labelling, corners = _scan(self)
        object.__setattr__(self, "junctions", junctions)
        object.__setattr__(self, "labelling", labelling)
        object.__setattr__(self, "corners", corners)
        labels, near, _ = labelling
        footprint = count_components(near, (c for c, label in enumerate(labels) if label != OUTSIDE))
        object.__setattr__(self, "footprint_components", footprint)

    @cached_property
    def cell_components(self) -> tuple[list[int], list[int], int]:
        """Cell-components of each subsystem and their wall adjacency: the grid's
        labelling, numbered by subsystem and, within one, in first-cell order."""
        labels, near, _ = self.labelling
        order = sorted((label, c) for c, label in enumerate(labels) if label != OUTSIDE)
        if len(order) > MAX_VERTICES:
            raise TooManySubsystems(f"{len(order)} cell-components exceed the graph cap of {MAX_VERTICES}")
        vertex = {c: v for v, (_, c) in enumerate(order)}
        # the cell-components of each subsystem, as a vertex mask
        cv_mask = pack_bits(((label, v) for v, (label, _) in enumerate(order)), self.n_subsystems)
        adj = [sum(1 << vertex[b] for b in near[c] if b in vertex) for _, c in order]
        return adj, cv_mask, len(order)

    @cached_property
    def cell_blocks(self) -> list[int]:
        """The blocks that hold a cycle of the whole cell-component graph
        (``walk._cycle_blocks``), found once for C^N and the J table."""
        from .walk import _cycle_blocks

        adj, _, n_vertices = self.cell_components
        return _cycle_blocks(adj, (1 << n_vertices) - 1)

    def label_at(self, x: int, y: int) -> int:
        """Label of cell (x, y); OUTSIDE for coordinates off the grid."""
        if 0 <= x < self.width and 0 <= y < self.height:
            return self.labels[y * self.width + x]
        return OUTSIDE

    def subsystem_cells(self, i: int) -> Region:
        if not 0 <= i < self.n_subsystems:
            raise ValidationError(f"no subsystem {i}")
        w = self.width
        return frozenset(
            (k % w, k // w) for k, v in enumerate(self.labels) if v == i
        )

    def to_ascii(self) -> str:
        if self.n_subsystems > len(_ID_CHARS):
            raise ValidationError(f"ASCII format carries at most {len(_ID_CHARS)} subsystem ids")
        chars = ["." if v == OUTSIDE else _ID_CHARS[v] for v in self.labels]
        return "\n".join("".join(chars[y * self.width:(y + 1) * self.width]) for y in range(self.height))


def window_pinch(a: int, b: int, c: int, d: int) -> str | None:
    """The corner-only contact in the 2x2 window ``a b / c d``, or None.

    A diagonal pair of cells must not share a label interrupted by both
    anti-diagonal cells, and two distinct subsystems must not meet only
    diagonally.
    """
    for (p, q), (r, s) in (((a, d), (b, c)), ((b, c), (a, d))):
        if p == q and r != p and s != p:
            return f"diagonal pinch of label {p}"
        if p != q and p != OUTSIDE and q != OUTSIDE and r not in (p, q) and s not in (p, q):
            return f"subsystems {p} and {q} meet only diagonally"
    return None


def _padded(css: GridCss) -> list[int]:
    """The labels, row-major, of the grid padded by one OUTSIDE cell on every side."""
    w = css.width
    cells = [OUTSIDE] * (w + 3)  # the top border and the first left border
    for y in range(css.height):
        cells += css.labels[y * w:(y + 1) * w]
        cells += (OUTSIDE, OUTSIDE)  # this right border, the next left border
    return cells + [OUTSIDE] * (w + 1)


def _scan(css: GridCss) -> tuple[tuple[tuple[int, int, int, int], ...], tuple, tuple]:
    """Validate and label the grid in one row-major pass over the cells of the
    grid padded by one OUTSIDE cell on every side (a union-find labelling, as
    Hoshen and Kopelman's, Phys. Rev. B 14, 3438 (1976)).

    At each cell d it reads the window ``a b / c d`` of d and its upper-left,
    upper and left neighbours.  A window whose four edges all separate
    different labels is a corner-only contact (:func:`window_pinch`): the
    first in row-major order is a ValidationError naming it, so no window
    left holds four labels.  Under this rule every union of subsystems, and
    every complement of such a union, has identical 4-adjacency and homotopy
    component structure.

    Every other window is uniform, a straight wall between two labels (two
    cells each), or holds some label in one cell only.  The pass records
    the windows that chi is read from (:attr:`GridCss.corners`), OUTSIDE
    included: each whose lower-left cell c holds a label no other of its
    cells holds, as ``(c, a, d)``, and each whose upper-right cell b does,
    as ``(b, a, d)``.  Let each lattice vertex own the cell north-east of
    it and that cell's west and south edges.  Then V - E + F of the union
    of a set S of subsystems counts +1 at each window where S holds c
    alone, -1 where S holds every cell but b, and -1 where S holds a and d
    only: the bit-quad count of chi (:mod:`topomi.masks`).  No window holds
    S on one diagonal only, for then each of its four edges would part a
    cell of S from one outside S, two different labels, and the window
    would be a pinch.  A window of three subsystems is a junction corner,
    returned as ``(a, b, c, d)``, in row-major order.

    d joins c and b when it shares their label, and otherwise starts a
    provisional label; the walls between labels are kept as pairs of
    provisional labels.  A union keeps the lower root, so each component's
    root is the provisional label of its first cell, and the components are
    numbered in row-major order of their first cells.  Returns the
    junctions, the labelling (:attr:`GridCss.labelling`) and the corners.
    """
    row, cells = css.width + 2, _padded(css)
    n = len(cells)
    # per provisional label: its parent, lower, or itself at a root; its first cell
    parent, first = [0], [0]
    # the provisional label of each cell; the top border and the next left border are the outside's, 0
    lab = [0] * n
    walls: set[tuple[int, int]] = set()
    junctions, sw, ne = [], [], []
    left = 0  # the provisional label of the cell before
    # a window across the wrap of two padded rows has four border cells
    for j, a, b, c, d, up in zip(range(row + 1, n), cells, cells[1:], cells[row:], cells[row + 1:],
                                 islice(lab, 1, None)):
        if c == d and b == d:
            if up != left:
                ru, rl = up, left
                while parent[ru] != ru:
                    parent[ru] = ru = parent[parent[ru]]
                while parent[rl] != rl:
                    parent[rl] = rl = parent[parent[rl]]
                if ru < rl:
                    parent[rl] = left = ru
                else:
                    parent[ru] = left = rl
            lab[j] = left
            continue
        if c == d:
            walls.add((up, left))
            if a != b:  # b's label is in no other cell
                ne.append((b, a, d))
                if a != d and OUTSIDE not in (a, b, c, d):
                    junctions.append((a, b, c, d))
        elif b == d:
            walls.add((left, up))
            left = up
            if a != c:  # c's label is in no other cell
                sw.append((c, a, d))
                if a != d and OUTSIDE not in (a, b, c, d):
                    junctions.append((a, b, c, d))
        else:
            if a != b and a != c:
                x, y = j % row - 2, j // row - 2
                raise ValidationError(f"{window_pinch(a, b, c, d)} at cells ({x},{y})..({x + 1},{y + 1})")
            walls.add((left, len(parent)))
            walls.add((up, len(parent)))
            left = len(parent)
            parent.append(left)
            first.append(j)
            if b != c:  # three labels, a's twice; else d alone differs, and chi reads nothing here
                if a == b:
                    sw.append((c, a, d))
                else:
                    ne.append((b, a, d))
                if OUTSIDE not in (a, b, c, d):
                    junctions.append((a, b, c, d))
        lab[j] = left
    final, labels, holes = [], [], {}  # the component of each provisional label
    for p, q in enumerate(parent):
        if p != q:  # q < p: a label of the same component, numbered already
            final.append(final[q])
            continue
        seed, c = first[p], len(labels)
        final.append(c)
        labels.append(cells[seed])
        if cells[seed] == OUTSIDE and c:
            holes[seed % row - 1, seed // row - 1] = c
    near: list[set[int]] = [set() for _ in labels]
    for p, q in walls:
        p, q = final[p], final[q]
        near[p].add(q)
        near[q].add(p)
    return tuple(junctions), (tuple(labels), tuple(near), holes), (tuple(sw), tuple(ne))


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------

def is_json_int(value) -> bool:
    """True for a JSON integer; a bool, a float or a numeric string is not one."""
    return type(value) is int


def json_int(value, what: str) -> int:
    """``value`` if it is a JSON integer, else ParseError naming ``what``."""
    if not is_json_int(value):
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def index_int(value, what: str) -> int:
    """``operator.index(value)``: an int, bool or numpy integer; else ValidationError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{what} must be an integer, got {value!r}") from None


def ascii_rows(text: str) -> list[str]:
    """The grid rows of an ASCII text: its lines but the empty ones and the
    comments, the lines starting with ``#``."""
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def parse_ascii(text: str, name: str = "") -> GridCss:
    """Parse the one-character-per-cell text format: each line is a row of
    :func:`parse_grid_json`'s ``"ascii"`` list, but for the empty lines and
    the comments (:func:`ascii_rows`)."""
    if not isinstance(text, str):
        raise ParseError(f"grid text must be a string, got {text!r}")
    return parse_grid_json({"ascii": ascii_rows(text)}, name)


def parse_grid_json(obj: Mapping, name: str = "") -> GridCss:
    """Parse a JSON grid payload: ``{"ascii": [row, ...]}``, or
    ``{"width", "height", "labels", "name"}`` with -1 = OUTSIDE.

    An ``"ascii"`` row has one character per cell: ``.`` is OUTSIDE, ``A``-``Z``
    then ``a``-``z`` are subsystem ids 0..51.  An empty row, a row holding a
    newline and a ragged row are a ParseError naming the row.
    """
    if not (isinstance(obj, Mapping) and "ascii" in obj):
        try:
            width, height, labels = obj["width"], obj["height"], list(obj["labels"])
        except (KeyError, TypeError) as exc:
            raise ParseError(f"bad grid object: {exc}") from exc
        return GridCss(
            json_int(width, "grid 'width'"),
            json_int(height, "grid 'height'"),
            tuple(json_int(v, "a grid label") for v in labels),
            name=str(obj.get("name", name)),
        )
    rows = obj["ascii"]
    if not isinstance(rows, list) or not all(isinstance(r, str) for r in rows):
        raise ParseError("'ascii' must be a list of strings")
    if not rows:
        raise ParseError("no grid rows found")
    width = len(rows[0])
    labels: list[int] = []
    for j, row in enumerate(rows):
        if not row:
            raise ParseError(f"grid row {j} is empty")
        if "\n" in row:
            raise ParseError(f"grid row {j} holds a newline: {row!r}")
        if len(row) != width:
            raise ParseError(f"grid row {j} is ragged: expected {width} cells, got {len(row)}")
        try:
            labels += map(_CHAR_LABELS.__getitem__, row)
        except KeyError:
            i, ch = next((i, ch) for i, ch in enumerate(row) if ch not in _CHAR_LABELS)
            raise ParseError(f"bad cell character {ch!r} at column {i} of grid row {j}") from None
    try:
        return GridCss(width, len(rows), tuple(labels), name=name)
    except ValidationError as exc:
        raise ValidationError(f"{name or 'ascii grid'}: {exc}") from exc


def read_input(path) -> str | dict:
    """A file's JSON object if its name ends in ``.json``, else its text.

    ParseError when it cannot be read, is not UTF-8 or is not a JSON object."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if not str(path).endswith(".json"):
            return text
        obj = json.loads(text)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected a JSON object")
    return obj


# ----------------------------------------------------------------------
# Region topology
# ----------------------------------------------------------------------

def connected_components(region: Iterable[Cell]) -> tuple[int, dict[Cell, int]]:
    """4-adjacency components of a cell set.

    Returns the component count and a cell -> component-id labeling.
    Component ids are assigned in order of each component's smallest cell
    (sorted by (y, x)), so the labeling is deterministic.
    """
    cells = set(region)
    labeling: dict[Cell, int] = {}
    count = 0
    for seed in sorted(cells, key=lambda c: (c[1], c[0])):
        if seed in labeling:
            continue
        stack = [seed]
        labeling[seed] = count
        while stack:
            cur = stack.pop()
            for nb in _neighbors4(cur):
                if nb in cells and nb not in labeling:
                    labeling[nb] = count
                    stack.append(nb)
        count += 1
    return count, labeling


def _complement_components(region: set) -> tuple[int, dict[Cell, int]]:
    """``connected_components`` of the complement within a 1-cell-padded bounding box.

    The padding puts everything outside the bounding box in one outer
    component; it holds the box's first corner, so it gets id 0 and the
    bounded components (the holes) get ids 1, 2, ...
    """
    xs = [c[0] for c in region]
    ys = [c[1] for c in region]
    x0, x1 = min(xs) - 1, max(xs) + 1
    y0, y1 = min(ys) - 1, max(ys) + 1
    return connected_components(
        (x, y)
        for x in range(x0, x1 + 1)
        for y in range(y0, y1 + 1)
        if (x, y) not in region
    )


def boundary_component_count(region: Iterable[Cell]) -> int:
    """Number of disjoint closed curves bounding the region.

    Equals (# components of the region) + (# bounded components of its
    complement in a 1-cell-padded bounding grid).
    """
    cells = set(region)
    if not cells:
        raise EmptyRegion("boundary count of an empty region is undefined")
    n_comp, _ = connected_components(cells)
    n_complement, _ = _complement_components(cells)
    return n_comp + n_complement - 1


def union_region(css: GridCss, subset: Iterable[int] | int) -> Region:
    """Cells labeled by any id in ``subset`` (ids or a bitmask)."""
    if isinstance(subset, int):
        if not 0 <= subset < 1 << css.n_subsystems:
            raise ValidationError(f"mask {subset:#x} has bits outside 0..{css.n_subsystems - 1}")
        ids = {i for i in range(css.n_subsystems) if subset >> i & 1}
    else:
        ids = set(subset)
    if not ids:
        raise EmptySubset("union of an empty subset is undefined")
    bad = [i for i in ids if not 0 <= i < css.n_subsystems]
    if bad:
        raise ValidationError(f"unknown subsystem ids {sorted(bad)}")
    w = css.width
    return frozenset(
        (k % w, k // w) for k, v in enumerate(css.labels) if v in ids
    )


# ----------------------------------------------------------------------
# CSS-level structures
# ----------------------------------------------------------------------

def set_bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of a non-negative int, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def pack_bits(pairs: Iterable[tuple[int, int]], size: int) -> list[int]:
    """Per key 0..size-1, the int with every bit paired with that key set;
    a repeated pair sets its bit once."""
    out = [0] * size
    for key, bit in pairs:
        out[key] |= 1 << bit
    return out


def subset_letters(mask: int) -> str:
    """The subsystems in a subset mask, as ``{A, B, C}``: each id by its grid
    letter, and an id past the letters by its number, as in ``{z, 52}``."""
    return "{" + ", ".join(_ID_CHARS[i] if i < len(_ID_CHARS) else str(i) for i in set_bits(mask)) + "}"


def hole_name(k: int, n_holes: int, hole: Cell) -> str:
    """Hole ``k`` of ``n_holes`` named by its first cell (:func:`find_holes`),
    as ``hole 1 of 2 (column 3, row 1)``."""
    x, y = hole
    return f"hole {k} of {n_holes} (column {x}, row {y})"


@dataclass(frozen=True)
class SimpleGraph:
    """Simple graph, edges sorted as (i, j) with i < j; also a CSS's adjacency graph."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "vertex_count", index_int(self.vertex_count, "vertex count"))
        if self.vertex_count < 1:
            raise ValidationError("graph needs at least one vertex")
        if self.vertex_count > MAX_VERTICES:
            raise TooManySubsystems(f"{self.vertex_count} vertices exceed the graph cap of {MAX_VERTICES}")
        plain = _plain_edges(self.edges, self.vertex_count)
        if plain is not None:
            object.__setattr__(self, "edges", plain)
            return
        seen = set()
        for edge in self.edges:
            ends = tuple(edge) if isinstance(edge, Iterable) else ()
            if len(ends) != 2:
                raise ValidationError(f"edge {edge!r} is not a pair of vertex ids")
            i, j = (index_int(end, "an edge end") for end in ends)
            if i == j:
                raise ValidationError(f"self-loop at vertex {i}")
            if not (0 <= i < self.vertex_count and 0 <= j < self.vertex_count):
                raise ValidationError(f"edge {edge} out of range")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValidationError(f"duplicate edge {key}")
            seen.add(key)
        object.__setattr__(self, "edges", tuple(sorted(seen)))

    @property
    def d_nn(self) -> int:
        return len(self.edges)

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        """The neighbour bitmask of each vertex, built once per graph."""
        return tuple(pack_bits([*self.edges, *((j, i) for i, j in self.edges)], self.vertex_count))


def _plain_edges(edges, n: int) -> tuple[tuple[int, int], ...] | None:
    """The sorted edges of :class:`SimpleGraph` in the common case, or None:
    ``edges`` is a tuple of ``(i, j)`` tuples of two distinct ``int`` ends in
    0..n-1, and no pair repeats either way round.  Anything else takes the
    constructor's loop, which names the offending edge."""
    if type(edges) is not tuple or set(map(type, edges)) - {tuple}:
        return None
    try:
        keys = sorted({(i, j) if i < j else (j, i) for i, j in edges})
    except (TypeError, ValueError):  # an edge that is no pair, or ends that do not compare
        return None
    ends = list(chain.from_iterable(keys))
    if len(keys) != len(edges) or set(map(type, ends)) - {int} or any(map(operator.eq, ends[::2], ends[1::2])):
        return None
    if keys and not (0 <= keys[0][0] and max(ends[1::2]) < n):
        return None
    return tuple(keys)


def restrict_css(css: GridCss, keep: Iterable[int], name: str = "") -> GridCss:
    """Sub-CSS on a subset of subsystems.

    Cells of dropped subsystems become OUTSIDE; kept ids are relabeled to
    0..k-1 in increasing order of their original id.
    """
    ids = sorted(set(keep))
    bad = [i for i in ids if not 0 <= i < css.n_subsystems]
    if bad or not ids:
        raise ValidationError(f"cannot restrict to ids {ids}")
    remap = {old: new for new, old in enumerate(ids)}
    labels = tuple(remap.get(v, OUTSIDE) for v in css.labels)
    return GridCss(css.width, css.height, labels, name=name or css.name)


def adjacency_graph(css: GridCss) -> SimpleGraph:
    """Edge (i, j) iff a cell of i shares a grid edge with a cell of j."""
    labels, near, _ = css.labelling
    edges = {(labels[a], labels[b]) for a in range(len(labels)) for b in near[a] if OUTSIDE < labels[a] < labels[b]}
    return SimpleGraph(css.n_subsystems, tuple(edges))


@dataclass(frozen=True)
class HoleSet:
    """Bounded complement components of the full CSS footprint, by first cell."""

    holes: tuple[Cell, ...]

    @property
    def n_h(self) -> int:
        return len(self.holes)


def find_holes(css: GridCss) -> HoleSet:
    """The holes of the labelling: the footprint's bounded complement
    components, each as its first cell in row order, in that order."""
    return HoleSet(tuple(css.labelling[2]))


def count_components(near: Sequence[set[int]], keep: Iterable[int]) -> int:
    """Components of the subgraph induced by the vertices ``keep``, where
    ``near[v]`` is the set of v's neighbours: the one count behind J, chi and rho."""
    left, n_comp = set(keep), 0
    while left:
        n_comp, stack = n_comp + 1, [left.pop()]
        for v in stack:  # grows while it is read
            stack += [b for b in near[v] if b in left]
            left -= near[v]
    return n_comp


def union_boundary_count(css: GridCss, ids: Iterable[int]) -> int:
    """J of the union of the subsystems ``ids`` (``boundary_component_count``):
    the components of the labelling's components in it, plus those of the
    rest, OUTSIDE and the other subsystems, less the one holding the outside."""
    labels, near, _ = css.labelling
    union = set(ids)
    inside = count_components(near, (c for c, label in enumerate(labels) if label in union))
    return inside + count_components(near, (c for c, label in enumerate(labels) if label not in union)) - 1


def euler_characteristic(css: GridCss) -> int:
    """2, the plane's Euler characteristic: V - E + F of the adjacency map with
    a face for every hole, junction corner and the outside, by Euler's formula,
    and the chi of |I^N| = chi S_topo.  Requires an edge-connected footprint,
    whose components the constructor counted (``GridCss.footprint_components``)."""
    if css.footprint_components != 1:
        raise DisconnectedCss(f"footprint has {css.footprint_components} components")
    return 2


def loop_around_hole(css: GridCss, hole: Cell, graph: SimpleGraph) -> tuple[int, ...]:
    """Subsystems around a hole, in clockwise first-touch order.

    ``hole`` is a hole's first cell, one of ``find_holes(css).holes`` (else
    ValidationError), and ``graph`` is ``adjacency_graph(css)``.  Walks the
    hole's boundary clockwise recording the adjacent subsystem of each
    boundary edge, collapsing consecutive repeats.  The touching set must
    induce a single cycle in the adjacency graph; a subsystem touching the
    hole on two separated arcs, or a second structure inside the hole,
    raises NotACycle.
    """
    labels, near, holes = css.labelling
    try:
        c = holes[hole]
    except (KeyError, TypeError):  # TypeError: a value that cannot be a key
        raise ValidationError("not a hole of this CSS (a hole is its first cell)") from None
    touching = {labels[b] for b in near[c]}

    walk = _boundary_walk_labels(css, hole)
    loop = [lbl for k, lbl in enumerate(walk) if not k or lbl != walk[k - 1]]
    if len(loop) > 1 and loop[0] == loop[-1]:
        loop.pop()
    if set(loop) != touching:
        raise NotACycle(
            "hole boundary walk does not meet every touching subsystem; "
            "the hole encloses extra structure"
        )
    if len(loop) != len(set(loop)):
        raise NotACycle(
            "a subsystem touches the hole on disconnected arcs: "
            f"walk order {tuple(loop)}"
        )
    if len(loop) < 3:
        raise NotACycle(f"only {len(loop)} subsystems around the hole")

    # the touching set must induce exactly one cycle, and the walk is it: under
    # the pinch rule, consecutive walk labels always share a wall
    within = sum(1 << i for i in touching)  # each edge inside it is seen from both ends
    sub_edges = sum((graph.neighbor_masks[i] & within).bit_count() for i in touching) // 2
    if sub_edges != len(loop):
        raise NotACycle(
            f"induced subgraph on {sorted(touching)} has {sub_edges} edges, "
            f"a single cycle needs {len(loop)}"
        )
    return tuple(loop)


#: the cells around a corner (x, y), clockwise from the north-east one, as offsets
_CORNER_CELLS = ((0, -1), (0, 0), (-1, 0), (-1, -1))


def _boundary_walk_labels(css: GridCss, hole: Cell) -> list[int]:
    """Labels of cells just outside the hole along its clockwise boundary.

    The boundary of a pinch-free cell set is disjoint simple loops; the
    outer one passes the north edge of the hole's first cell ``hole``, and
    is walked from its west corner heading east, the hole on the right.
    At each corner the walk turns left into the cell ahead on the left if
    it is in the hole, else goes straight if the cell ahead on the right
    is, else turns right.  Heading h from a corner, the cell on the left is
    the corner's ``_CORNER_CELLS[h]`` and the one on the right the next.
    A cell ahead is in the hole exactly when it is OUTSIDE, by the pinch
    rule: the one on the right shares an edge with the hole cell behind
    it, and an OUTSIDE one on the left beside a subsystem cell on the right
    would meet that hole cell only diagonally, the cell behind on the left
    being a subsystem cell.  A hole never touches the grid's edge, so every
    cell tested lies inside the grid.
    """
    labels, w = css.labels, css.width
    # corner (x, y) is index y * w + x, its cells and the steps east, south,
    # west and north are index offsets; no corner of a hole cell is on the edge
    left, step = [dy * w + dx for dx, dy in _CORNER_CELLS], (1, w, -1, -w)
    start = p = hole[1] * w + hole[0]
    h, out = 0, []
    while True:
        out.append(labels[p + left[h]])
        p += step[h]
        if p == start:
            return out
        if labels[p + left[h]] == OUTSIDE:
            h = (h - 1) % 4
        elif labels[p + left[(h + 1) % 4]] != OUTSIDE:
            h = (h + 1) % 4
