"""The constructor's one pass (``grid._scan``) against the two it replaced.

Each grid is validated and labelled by one row-major union-find pass when
it is built.  ``flood_reference.pinch_scan`` (the window scan that rejected
corner-only contacts and recorded the junction corners) and
``flood_reference.flood_labelling`` (one flood per component from its first
cell) are those two passes, kept unchanged.  The junctions, the labelling
and every pinch message must equal theirs.
"""

import random
from types import SimpleNamespace

from topomi import builders
from topomi.errors import ValidationError
from topomi.grid import GridCss, connected_components, union_region

from flood_reference import flood_labelling, pinch_scan
from test_engine import brick_css
from test_grid import window_frame


def reference_scan(css):
    """The junctions and the labelling by the two reference passes, or the
    text of the ValidationError the window scan raises."""
    try:
        return pinch_scan(css), flood_labelling(css)
    except ValidationError as exc:
        return str(exc)


def built_scan(width, height, labels):
    """The junctions and the labelling ``GridCss`` records, or the text of the
    ValidationError it raises."""
    try:
        css = GridCss(width, height, labels)
    except ValidationError as exc:
        return str(exc)
    return css.junctions, css.labelling


def test_scan_matches_the_reference_on_builders_frames_and_walls(junction_css):
    """On the builders, seeded ``random_css``, window frames, brick walls and
    the junction fixture: the same junctions and labelling, and the footprint
    components of the flood fill over its cells."""
    cases = [*junction_css, builders.theta_pair(), builders.two_hole_five(), builders.six_hole_eighteen()]
    for n in (3, 4, 7, 12, 40):
        cases += [builders.annulus(n), builders.open_chain(n)]
    for n in (5, 7, 12):
        cases += [builders.far_handle_annulus(n), builders.far_handle_annulus(n, 3),
                  builders.annulus_with_island(n), builders.annulus_with_appendage(n),
                  builders.annulus_with_punched_hole(n), builders.annulus_with_self_handle(n),
                  builders.annulus_with_nn_handle(n)]
    cases += [builders.random_css(random.Random(s), n, 16, 16, growth=200) for s in range(10) for n in (5, 20)]
    cases += [window_frame(k) for k in (1, 2, 5, 50)]
    cases += [brick_css(cols, rows) for cols, rows in ((1, 1), (3, 3), (7, 10), (20, 20))]
    junctions = disconnected = 0
    for css in cases:
        assert (css.junctions, css.labelling) == reference_scan(css), css.name
        footprint = connected_components(union_region(css, range(css.n_subsystems)))[0]
        assert css.footprint_components == footprint, css.name
        junctions += len(css.junctions)
        disconnected += footprint > 1
    assert len(cases) == 362
    assert (junctions, disconnected) == (1431, 56)


def test_scan_matches_the_reference_on_seeded_small_grids():
    """20 000 seeded grids of 1-6 x 1-6 cells with labels -1..3 (each draws
    its top label and how often a cell is OUTSIDE), their ids renumbered to
    0..k-1: the same junctions and labelling, or the same
    pinch message, naming the first window in row-major order."""
    rng = random.Random(57)
    accepted = rejected = junctions = holes = 0
    for _ in range(20_000):
        width, height = rng.randint(1, 6), rng.randint(1, 6)
        top, outside = rng.randint(0, 3), rng.choice((0.1, 0.2, 0.4))  # fewer labels, more rings
        drawn = [-1 if rng.random() < outside else rng.randint(0, top) for _ in range(width * height)]
        drawn[rng.randrange(len(drawn))] = rng.randint(0, 3)  # at least one subsystem cell
        ids = {label: k for k, label in enumerate(sorted(set(drawn) - {-1}))}
        labels = tuple(ids.get(label, -1) for label in drawn)
        want = reference_scan(SimpleNamespace(width=width, height=height, labels=labels))
        assert built_scan(width, height, labels) == want, (width, height, labels)
        if isinstance(want, str):
            rejected += 1
        else:
            accepted += 1
            junctions += len(want[0])
            holes += len(want[1][2])
    assert (accepted, rejected) == (10042, 9958)
    assert (junctions, holes) == (951, 327)
