"""Structural guarantees of the scenario constructors."""

import random

import pytest

from topomi import builders
from topomi.engine import subloop_revival
from topomi.errors import ValidationError
from topomi.grid import (
    adjacency_graph,
    boundary_component_count,
    connected_components,
    euler_characteristic,
    find_holes,
    loop_around_hole,
)
from topomi.model import EntropyModel

from oracle_reference import annulus_family


def test_annulus_structure():
    for n in range(3, 13):
        css = builders.annulus(n)
        graph = adjacency_graph(css)
        assert graph.d_nn == n
        assert find_holes(css).n_h == 1
        assert euler_characteristic(css) == 2
        for i in range(n):
            assert boundary_component_count(css.subsystem_cells(i)) == 1


def test_six_hole_eighteen_structure():
    css = builders.six_hole_eighteen()
    assert css.n_subsystems == 18
    assert adjacency_graph(css).d_nn == 23
    holes = find_holes(css)
    assert holes.n_h == 6
    assert euler_characteristic(css) == 2
    for i in range(18):
        cells = css.subsystem_cells(i)
        assert connected_components(cells)[0] == 1
        assert boundary_component_count(cells) == 1
    sizes = sorted(len(loop_around_hole(css, hole, adjacency_graph(css))) for hole in holes.holes)
    assert sizes == [5, 5, 5, 5, 6, 6]


def test_two_hole_five_structure():
    css = builders.two_hole_five()
    assert css.n_subsystems == 5
    assert adjacency_graph(css).edges == (
        (0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4),
    )
    loops = sorted(sorted(loop_around_hole(css, h, adjacency_graph(css))) for h in find_holes(css).holes)
    assert loops == [[0, 1, 2], [0, 3, 4]]


@pytest.mark.parametrize("n,span", [(4, 2), (5, 2), (6, 2), (6, 3), (7, 3), (8, 4)])
def test_far_handle_loop_arithmetic(n, span):
    css = builders.far_handle_annulus(n, span)
    result = subloop_revival(EntropyModel(2.0), css)
    assert result.p + result.q - 2 == n
    assert {result.p, result.q} == {span + 1, n - span + 1}


def test_far_handle_span_bounds():
    with pytest.raises(ValidationError):
        builders.far_handle_annulus(5, 1)
    with pytest.raises(ValidationError):
        builders.far_handle_annulus(5, 4)


def test_deformations_keep_single_central_ring():
    for n in range(4, 7):
        for maker in (builders.annulus_with_punched_hole,
                      builders.annulus_with_self_handle,
                      builders.annulus_with_nn_handle):
            css = maker(n)
            assert find_holes(css).n_h == 2, css.name


def test_island_and_appendage_counts():
    for n in range(4, 8):
        island = builders.annulus_with_island(n)
        assert adjacency_graph(island).d_nn == n - 1
        appendage = builders.annulus_with_appendage(n)
        assert adjacency_graph(appendage).d_nn == n


def test_random_css_is_deterministic_per_seed():
    a = builders.random_css(random.Random(5), 5)
    b = builders.random_css(random.Random(5), 5)
    assert a.labels == b.labels
    c = builders.random_css(random.Random(6), 5)
    assert a.labels != c.labels


@pytest.mark.parametrize("n", [0, -1])
def test_random_css_rejects_fewer_than_one_subsystem(n):
    with pytest.raises(ValidationError, match="needs at least 1 subsystem"):
        builders.random_css(random.Random(1), n, 6, 6)


def test_annulus_family_sizes():
    family = annulus_family(7)
    assert [css.n_subsystems for css in family] == [3, 4, 5, 6, 7]
