"""Grid parsing, validation and region topology."""

import itertools
import random
import time
from collections import Counter

import pytest

from topomi import builders
from topomi.errors import (
    DisconnectedCss,
    EmptyRegion,
    EmptySubset,
    NotACycle,
    ParseError,
    ValidationError,
)
from topomi.grid import (
    OUTSIDE,
    GridCss,
    adjacency_graph,
    boundary_component_count,
    connected_components,
    euler_characteristic,
    find_holes,
    loop_around_hole,
    pack_bits,
    parse_ascii,
    parse_grid_json,
    restrict_css,
    union_region,
    window_pinch,
)

from flood_reference import perimeter_links, region_holes


def test_pack_bits_matches_a_set_per_key():
    """Each key's int has exactly the bits paired with it, for seeded pairs
    with repeats and keys in any order, keys with no bit and no pairs at all."""
    assert pack_bits(iter([]), 0) == []
    assert pack_bits([], 3) == [0, 0, 0]
    repeats = unpaired = 0
    for seed in range(200):
        rng = random.Random(seed)
        size, width = rng.randint(1, 12), rng.randint(1, 70)
        pairs = [(rng.randrange(size), rng.randrange(width)) for _ in range(rng.randint(0, 30))]
        pairs += rng.choices(pairs, k=len(pairs) // 2)  # repeated, some an even number of times
        rng.shuffle(pairs)
        bits: list[set] = [set() for _ in range(size)]
        for key, bit in pairs:
            bits[key].add(bit)
        assert pack_bits(iter(pairs), size) == [sum(1 << b for b in s) for s in bits]
        repeats += len(set(pairs)) < len(pairs)
        unpaired += not all(bits)
    assert repeats > 100 and unpaired > 100


def rect(x0, x1, y0, y1):
    return frozenset((x, y) for x in range(x0, x1 + 1) for y in range(y0, y1 + 1))


# ----------------------------------------------------------------------
# construction and parsing
# ----------------------------------------------------------------------

def test_labels_must_be_contiguous():
    with pytest.raises(ValidationError):
        GridCss(2, 1, (0, 2))


def test_grid_needs_subsystems():
    with pytest.raises(ValidationError):
        GridCss(2, 2, (OUTSIDE,) * 4)


def test_cell_cap():
    with pytest.raises(ValidationError):
        GridCss(2048, 2048, ())


def test_ascii_round_trip():
    css = builders.two_hole_five()
    again = parse_ascii(css.to_ascii())
    assert again.labels == css.labels
    assert again.width == css.width


def test_ascii_rejects_ragged():
    with pytest.raises(ParseError):
        parse_ascii("AB\nA")


def test_ascii_comments_and_chars():
    css = parse_ascii("# comment\nAB\nAB")
    assert css.n_subsystems == 2
    with pytest.raises(ParseError):
        parse_ascii("A?\nAA")


def test_ascii_lowercase_ids():
    rows = ["".join(chr(ord("A") + k) for k in range(26))
            + "".join(chr(ord("a") + k) for k in range(26))]
    css = parse_ascii("\n".join(rows))
    assert css.n_subsystems == 52
    assert css.to_ascii() == rows[0]


def test_grid_json():
    css = parse_grid_json({"width": 2, "height": 1, "labels": [0, 1], "name": "pair"})
    assert css.name == "pair"
    assert css.n_subsystems == 2
    with pytest.raises(ParseError):
        parse_grid_json({"width": 2, "labels": [0, 1]})


def test_diagonal_pinch_same_label_rejected():
    with pytest.raises(ValidationError):
        parse_ascii("A.\n.A")


def test_diagonal_pinch_two_subsystems_rejected():
    with pytest.raises(ValidationError):
        parse_ascii("A.\n.B")


def test_outside_pinch_rejected():
    # complement meets itself only at a corner between two subsystems
    with pytest.raises(ValidationError):
        parse_ascii(".A\nB.")


def reference_pinches(width, height, labels):
    """Every corner-only contact, as its ValidationError text and window, by
    the window scan over ``label_at`` with a virtual OUTSIDE border, in
    row-major window order."""
    def lab(x, y):
        return labels[y * width + x] if 0 <= x < width and 0 <= y < height else OUTSIDE

    found = []
    for y in range(-1, height):
        for x in range(-1, width):
            pinch = window_pinch(lab(x, y), lab(x + 1, y), lab(x, y + 1), lab(x + 1, y + 1))
            if pinch is not None:
                found.append((f"{pinch} at cells ({x},{y})..({x + 1},{y + 1})", x, y))
    return found


def test_a_pinch_is_a_window_of_four_walls():
    for a, b, c, d in itertools.product(range(-1, 4), repeat=4):
        four_walls = a != b and a != c and b != d and c != d
        assert (window_pinch(a, b, c, d) is not None) == four_walls, (a, b, c, d)


def _inject_pinch(css, rng):
    """``css`` labels with a pinch pattern of a random kind written into the
    on-grid cells of one window, which may cross the virtual border."""
    labels = list(css.labels)
    x, y = rng.randint(-1, css.width - 1), rng.randint(-1, css.height - 1)
    ids = range(-1, css.n_subsystems)
    kind = rng.choice(["same", "two", "background"])
    if kind == "same":
        p = rng.choice(ids[1:])
        diagonal = (p, p)
        others = [v for v in ids if v != p]
    elif kind == "two":
        diagonal = tuple(rng.sample(ids[1:], 2))
        others = [v for v in ids if v not in diagonal]
    else:
        diagonal = (OUTSIDE, OUTSIDE)
        others = list(ids[1:])
    anti = (rng.choice(others), rng.choice(others))
    window = ((diagonal[0], anti[0]), (anti[1], diagonal[1])) if rng.random() < 0.5 else (
        (anti[0], diagonal[0]), (diagonal[1], anti[1]))
    for dy in (0, 1):
        for dx in (0, 1):
            if 0 <= x + dx < css.width and 0 <= y + dy < css.height:
                labels[(y + dy) * css.width + x + dx] = window[dy][dx]
    return labels


def test_pinch_rejection_matches_the_window_scan(junction_css):
    """The ValidationError text, which suite JSON details carry, is the window
    scan's on dense random grids and on fixture grids with an injected pinch,
    whose window may cross the virtual border: pinches of all three kinds, at
    the grid's edge and several in one grid."""
    rng = random.Random(5)
    grids = []
    for _ in range(600):
        width, height, k = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 4)
        grids.append((width, height, [rng.randint(-1, k - 1) for _ in range(width * height)]))
    for css in junction_css[:150]:
        grids.append((css.width, css.height, _inject_pinch(css, rng)))
    seen = Counter()
    for width, height, labels in grids:
        present = sorted(set(labels) - {OUTSIDE})
        if not present:
            continue
        labels = tuple(present.index(v) if v != OUTSIDE else OUTSIDE for v in labels)
        found = reference_pinches(width, height, labels)
        if not found:
            GridCss(width, height, labels)
            seen["valid"] += 1
            continue
        with pytest.raises(ValidationError) as exc:
            GridCss(width, height, labels)
        message, x, y = found[0]
        assert str(exc.value) == message
        seen["background" if "label -1" in message else "same" if "label" in message else "two"] += 1
        # a window over the virtual border holds two off-grid cells that share
        # an edge, so it never pinches: the first and last rows and columns do
        seen["edge"] += x in (0, width - 2) or y in (0, height - 2)
        seen["several"] += len(found) > 1
    assert min(seen.values()) >= 50, seen


# ----------------------------------------------------------------------
# region topology
# ----------------------------------------------------------------------

def test_connected_components_trivia():
    count, labeling = connected_components(rect(0, 2, 0, 2))
    assert count == 1
    assert set(labeling.values()) == {0}
    two = rect(0, 0, 0, 2) | rect(2, 2, 0, 2)
    count, labeling = connected_components(two)
    assert count == 2
    assert connected_components(frozenset())[0] == 0


def test_boundary_count_examples():
    assert boundary_component_count(rect(0, 3, 0, 2)) == 1
    annulus = rect(0, 4, 0, 4) - rect(1, 3, 1, 3)
    assert boundary_component_count(annulus) == 2
    two = rect(0, 1, 0, 1) | rect(3, 4, 0, 1)
    assert boundary_component_count(two) == 2
    with pytest.raises(EmptyRegion):
        boundary_component_count(frozenset())


def test_boundary_count_ring_with_extra_hole_12x12():
    # 12x12 square, central 6x6 opening, plus a pocket punched in the bar:
    # curves = outer + central + pocket = 3
    region = rect(0, 11, 0, 11) - rect(3, 8, 3, 8) - rect(1, 1, 1, 1)
    assert boundary_component_count(region) == 3


def test_perimeter_links_examples():
    assert perimeter_links(rect(0, 0, 0, 0)) == 4
    assert perimeter_links(rect(0, 1, 0, 1)) == 8
    assert perimeter_links(rect(0, 2, 0, 0)) == 8
    with pytest.raises(EmptyRegion):
        perimeter_links(frozenset())


def test_boundary_count_vs_components_property():
    rng = random.Random(42)
    for _ in range(50):
        cells = set()
        for _ in range(rng.randint(1, 40)):
            cells.add((rng.randint(0, 7), rng.randint(0, 7)))
        region = frozenset(cells)
        j = boundary_component_count(region)
        n_comp, _ = connected_components(region)
        holes = region_holes(region)
        assert j == n_comp + len(holes)
        assert j >= n_comp
        assert (j == n_comp) == (len(holes) == 0)


# ----------------------------------------------------------------------
# CSS-level queries
# ----------------------------------------------------------------------

def test_union_region():
    css = builders.annulus(4)
    assert union_region(css, [0]) == css.subsystem_cells(0)
    full = union_region(css, (1 << 4) - 1)
    assert len(full) == sum(len(css.subsystem_cells(i)) for i in range(4))
    opposite = union_region(css, [0, 2])
    assert connected_components(opposite)[0] == 2
    with pytest.raises(EmptySubset):
        union_region(css, [])
    with pytest.raises(EmptySubset):
        union_region(css, 0)
    with pytest.raises(ValidationError):
        union_region(css, [9])
    for mask in (-1, -16, 1 << 4):
        with pytest.raises(ValidationError, match=r"has bits outside 0\.\.3"):
            union_region(css, mask)


def test_adjacency_graph_cycle_and_path():
    ring = builders.annulus(4)
    graph = adjacency_graph(ring)
    assert graph.d_nn == 4
    assert graph.edges == ((0, 1), (0, 3), (1, 2), (2, 3))
    chain = builders.open_chain(3)
    graph = adjacency_graph(chain)
    assert graph.edges == ((0, 1), (1, 2))


def test_adjacency_graph_two_hole_five():
    graph = adjacency_graph(builders.two_hole_five())
    assert graph.vertex_count == 5
    assert graph.d_nn == 6
    assert graph.edges == ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4))


def test_find_holes():
    solid = parse_ascii("AABB\nAACC")
    assert find_holes(solid).n_h == 0
    assert find_holes(builders.annulus(5)).n_h == 1
    assert find_holes(builders.two_hole_five()).n_h == 2


def test_euler_characteristic():
    assert euler_characteristic(builders.annulus(5)) == 2
    assert euler_characteristic(builders.two_hole_five()) == 2
    assert euler_characteristic(builders.six_hole_eighteen()) == 2
    with pytest.raises(DisconnectedCss):
        euler_characteristic(builders.annulus_with_island(5))


def test_loop_around_hole_annulus():
    css = builders.annulus(6)
    hole = find_holes(css).holes[0]
    loop = loop_around_hole(css, hole, adjacency_graph(css))
    assert sorted(loop) == list(range(6))
    # ids appear in ring order up to rotation
    start = loop.index(0)
    rotated = loop[start:] + loop[:start]
    assert rotated in ((0, 1, 2, 3, 4, 5), (0, 5, 4, 3, 2, 1))


def test_loop_around_hole_two_hole_five():
    css = builders.two_hole_five()
    loops = sorted(sorted(loop_around_hole(css, h, adjacency_graph(css))) for h in find_holes(css).holes)
    assert loops == [[0, 1, 2], [0, 3, 4]]


def window_frame(holes: int) -> GridCss:
    """A one-row window frame: vertical bars 0..holes between the holes, and
    a top and a bottom bar over each hole (3 * holes + 1 subsystems)."""
    width = 2 * holes + 1
    labels = [OUTSIDE] * (3 * width)
    for k in range(holes + 1):
        labels[2 * k::width] = [k] * 3
    for k in range(holes):
        labels[2 * k + 1] = holes + 1 + k
        labels[2 * width + 2 * k + 1] = 2 * holes + 1 + k
    return GridCss(width, 3, tuple(labels), name=f"frame-{holes}")


def test_loops_of_a_thousand_hole_frame_are_per_hole():
    """Each loop costs its own hole's walk, not a scan of every edge of the
    graph: the 1 000 loops of a 3 001-subsystem frame in well under 0.1 s."""
    css = window_frame(1000)
    holes, graph = find_holes(css).holes, adjacency_graph(css)
    start = time.perf_counter()
    loops = [loop_around_hole(css, hole, graph) for hole in holes]
    assert time.perf_counter() - start < 0.1
    assert sorted(loops) == [(1001 + k, k + 1, 2001 + k, k) for k in range(1000)]


def test_loop_around_hole_rejects_two_arc_contact():
    css = builders.theta_pair()
    for hole in find_holes(css).holes:
        with pytest.raises(NotACycle):
            loop_around_hole(css, hole, adjacency_graph(css))


def test_loop_around_hole_rejects_self_handle_hole():
    css = builders.annulus_with_self_handle(5)
    holes = find_holes(css).holes
    errors = 0
    for hole in holes:
        try:
            loop_around_hole(css, hole, adjacency_graph(css))
        except NotACycle:
            errors += 1
    assert errors == 1  # the handle hole touches one subsystem only


def test_loop_around_hole_validates_argument(junction_css):
    """The check read from a region's own cells is membership in find_holes.

    Each hole is accepted (a loop or NotACycle); a hole minus any one cell,
    a hole plus an outer cell, the union of two holes, a subsystem cell and
    an off-grid cell are each a ValidationError.
    """
    css = builders.annulus(4)
    with pytest.raises(ValidationError):
        loop_around_hole(css, frozenset({(0, 0)}), adjacency_graph(css))

    counts = dict.fromkeys(("holes", "minus", "plus", "union", "subsystem", "off-grid"), 0)
    for css in junction_css:
        graph = adjacency_graph(css)
        holes = find_holes(css).holes
        in_holes = set().union(*holes)
        cells = [(x, y) for y in range(css.height) for x in range(css.width)]
        outer = [c for c in cells if css.label_at(*c) == OUTSIDE and c not in in_holes]
        # a subsystem cell is the hardest case when its four neighbours are subsystem cells
        inner = [(x, y) for x, y in cells if OUTSIDE not in {
            css.label_at(x + dx, y + dy) for dx, dy in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))}]
        not_holes = [("subsystem", frozenset({c})) for c in inner]
        not_holes += [("off-grid", frozenset({(-1, 0)})), ("off-grid", frozenset({(css.width, css.height - 1)}))]
        for hole in holes:
            try:
                loop_around_hole(css, hole, graph)
            except NotACycle:
                pass
            counts["holes"] += 1
            not_holes += [("minus", hole - {c}) for c in hole]
            not_holes += [("plus", hole | {c}) for c in outer[:1]]
        not_holes += [("union", a | b) for a, b in zip(holes, holes[1:])]
        for kind, region in not_holes:
            with pytest.raises(ValidationError, match="not a hole"):
                loop_around_hole(css, region, graph)
            counts[kind] += 1
    assert counts == {"holes": 189, "minus": 468, "plus": 146, "union": 47,
                      "subsystem": 6096, "off-grid": 600}, counts


def test_restrict_css():
    css = builders.two_hole_five()
    sub = restrict_css(css, [0, 1, 2])
    assert sub.n_subsystems == 3
    assert find_holes(sub).n_h == 1
    with pytest.raises(ValidationError):
        restrict_css(css, [])


def test_determinism():
    css = builders.six_hole_eighteen()
    assert adjacency_graph(css) == adjacency_graph(builders.six_hole_eighteen())
    h1 = find_holes(css)
    h2 = find_holes(builders.six_hole_eighteen())
    assert h1 == h2
