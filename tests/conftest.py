"""Fixtures shared across test modules."""

from random import Random

import pytest

from topomi import builders


@pytest.fixture(scope="session")
def junction_css():
    """300 seeded 8x8 random CSS, dense enough that subsystems meet at
    junction corners and many holes are ringed by cycles.

    Seed s draws N and the growth from ``Random(s)`` and grows the CSS from
    a second ``Random(s)``.
    """
    out = []
    for s in range(300):
        rng = Random(s)
        out.append(builders.random_css(Random(s), rng.randint(4, 10), 8, 8, growth=rng.choice([150, 300, 600])))
    return tuple(out)
