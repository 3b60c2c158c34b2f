"""Expansion of I^N over lower-order informations."""

import itertools
import math
import random

import pytest

from topomi import builders, engine
from topomi.engine import CssAnalysis, recursion_check, subset_entropy_table
from topomi.errors import TooManySubsystems
from topomi.grid import GridCss
from topomi.model import EntropyModel

LN2 = math.log(2)
D2 = EntropyModel(2.0)


def test_recursion_on_annuli():
    for n in range(3, 9):
        result = recursion_check(D2, builders.annulus(n))
        assert result.residual < 1e-9, n


def test_recursion_on_gallery_shapes():
    shapes = [
        builders.open_chain(5),
        builders.annulus_with_island(6),
        builders.annulus_with_appendage(5),
        builders.annulus_with_punched_hole(5),
        builders.annulus_with_self_handle(6),
        builders.annulus_with_nn_handle(4),
        builders.far_handle_annulus(6, 3),
        builders.two_hole_five(),
        builders.theta_pair(),
    ]
    for css in shapes:
        assert recursion_check(D2, css).residual < 1e-9, css.name


def test_recursion_on_fuzzed_css():
    rng = random.Random(20260808)
    for _ in range(100):
        n = rng.randint(2, 8)
        css = builders.random_css(rng, n)
        result = recursion_check(D2, css)
        assert result.residual < 1e-9, css.name


def test_recursion_alpha_independent_residual():
    css = builders.two_hole_five()
    for alpha in (0.0, 1.3):
        assert recursion_check(EntropyModel(2.0, alpha=alpha), css).residual < 1e-9


def test_two_hole_five_intermediate_terms():
    """The expansion terms of the two-hole CSS: I^5 = 0, the two ring
    triples each contribute -2 log D, all other triples vanish."""
    css = builders.two_hole_five()
    analysis = CssAnalysis(css)
    assert recursion_check(D2, analysis).lhs == pytest.approx(0.0, abs=1e-12)

    def info(ids):  # I_R = -C(R) log D for |R| >= 3
        return -analysis.c_within(ids) * D2.s_topo

    abc, ade = (0, 1, 2), (0, 3, 4)  # A, B, C and A, D, E
    assert info(abc) == pytest.approx(-2 * LN2)
    assert info(ade) == pytest.approx(-2 * LN2)
    assert info(abc) + info(ade) == pytest.approx(-2 * 2 * LN2)
    for size in (3, 4):
        for ids in itertools.combinations(range(5), size):
            if ids not in (abc, ade):
                assert info(ids) == pytest.approx(0.0, abs=1e-12), ids


def test_recursion_builds_entropy_table_once(monkeypatch):
    calls = []
    build = engine.subset_entropy_table

    def counting_build(model, css):
        calls.append(css)
        return build(model, css)

    monkeypatch.setattr(engine, "subset_entropy_table", counting_build)
    css = builders.annulus(8)
    result = recursion_check(D2, css)
    assert result.residual < 1e-9
    assert len(calls) == 1
    # the signed sum of the subset entropies, which is I^N, summed in another order
    analysis = CssAnalysis(css)
    signed = float((analysis.tables.signs * subset_entropy_table(D2, analysis)).sum())
    assert result.lhs == pytest.approx(signed, abs=1e-12)
    assert result.lhs == pytest.approx(-analysis.c_n * D2.s_topo, abs=1e-12)


def test_recursion_guard():
    labels = tuple(range(13))
    with pytest.raises(TooManySubsystems):
        recursion_check(D2, GridCss(13, 1, labels))
