"""Labeled planar grids of subsystems and their topology queries.

A collection of subsystems (CSS) is stored as a rectangular grid of cells,
each cell either OUTSIDE or owned by exactly one subsystem.  All topology
(connected components, disconnected boundary counts, holes, adjacency,
Euler characteristic) is computed with 4-adjacency for both regions and
their complements.  Grids containing a diagonal pinch -- a 2x2 block in
which two regions, or a region and its complement, meet only at a corner --
are rejected at construction time so that every boundary-curve count is
unambiguous; so no window holds four labels.  The same window scan records
the junction corners, windows of three subsystems (``GridCss.junctions``).
Each grid is labelled once (``GridCss.labelling``), and every other
CSS-level structure is read from that and the scan; a hole is its first
cell, the seed of its flood.  J and chi count the labelling's components
joined over their walls with ``count_components``, the one component
count, which rho runs on a graph's neighbour sets.  The flood fills over
sets of cells below (``connected_components`` to ``union_region``, and
``restrict_css``) are called by no package path: they stay as the
independent definition that the benchmark's correctness gate and the
tests compare against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

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
    range must occur at least once.  ``junctions`` holds the labels
    ``(a, b, c, d)`` of each 2x2 window ``a b / c d`` of three subsystems,
    in row-major order (:func:`_reject_diagonal_pinches`).
    """

    width: int
    height: int
    labels: tuple[int, ...]
    name: str = ""
    n_subsystems: int = field(init=False, repr=False, compare=False)
    junctions: tuple[tuple[int, int, int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValidationError("grid dimensions must be positive")
        if self.width * self.height > CELL_CAP:
            raise ValidationError(
                f"grid has {self.width * self.height} cells, cap is {CELL_CAP}"
            )
        if len(self.labels) != self.width * self.height:
            raise ValidationError(
                f"expected {self.width * self.height} labels, got {len(self.labels)}"
            )
        present = sorted(set(self.labels) - {OUTSIDE})
        if not present:
            raise ValidationError("grid contains no subsystem cells")
        if present[0] < 0 or present != list(range(len(present))):
            raise ValidationError(
                f"subsystem ids must be exactly 0..{len(present) - 1}, got {present}"
            )
        object.__setattr__(self, "n_subsystems", len(present))
        object.__setattr__(self, "junctions", _reject_diagonal_pinches(self))

    @cached_property
    def labelling(self) -> tuple[tuple[int, ...], tuple[set[int], ...], dict[Cell, int]]:
        """The grid's one labelling, from which every CSS-level structure is read:
        the 4-connected same-label components of the grid padded by one OUTSIDE
        cell on every side, by one flood each from its first cell, so numbered
        in row-major order of their first cells.  Component 0 is the outside;
        every other OUTSIDE component is a hole.  Returns the label of each
        component, the components sharing a grid edge with each, and the
        first cell (x, y) of each hole, its seed, -> its component."""
        row, cells = self.width + 2, _padded(self)
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
            raise ValidationError(
                f"ASCII format carries at most {len(_ID_CHARS)} subsystem ids"
            )
        rows = []
        for y in range(self.height):
            row = self.labels[y * self.width : (y + 1) * self.width]
            rows.append(
                "".join("." if v == OUTSIDE else _ID_CHARS[v] for v in row)
            )
        return "\n".join(rows)


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


def _reject_diagonal_pinches(css: GridCss) -> tuple[tuple[int, int, int, int], ...]:
    """Reject corner-only contacts (:func:`window_pinch`): the 2x2 windows
    whose four edges all separate different labels.  So no window left holds
    four labels.  Returns the junction corners: the labels ``(a, b, c, d)``
    of each window ``a b / c d`` of three subsystems, in row-major order.

    Every window is scanned, including a virtual OUTSIDE border.  Under this
    rule every union of subsystems, and every complement of such a union,
    has identical 4-adjacency and homotopy component structure.
    """
    row, cells = css.width + 2, _padded(css)
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


def ascii_rows(text: str) -> list[str]:
    """The grid rows of an ASCII text: its lines but the empty ones and the
    comments, the lines starting with ``#``."""
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def parse_ascii(text: str, name: str = "") -> GridCss:
    """Parse the one-character-per-cell text format: each line is a row of
    :func:`parse_grid_json`'s ``"ascii"`` list, but for the empty lines and
    the comments (:func:`ascii_rows`)."""
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
        if self.vertex_count < 1:
            raise ValidationError("graph needs at least one vertex")
        if self.vertex_count > MAX_VERTICES:
            raise TooManySubsystems(f"{self.vertex_count} vertices exceed the graph cap of {MAX_VERTICES}")
        seen = set()
        for edge in self.edges:
            i, j = edge
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
    and the chi of |I^N| = chi S_topo.  Requires an edge-connected footprint."""
    labels, near, _ = css.labelling
    n_comp = count_components(near, (c for c, label in enumerate(labels) if label != OUTSIDE))
    if n_comp != 1:
        raise DisconnectedCss(f"footprint has {n_comp} components")
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
