"""Entropy model."""

import math

import pytest

from topomi.errors import ValidationError
from topomi.model import EntropyModel


def test_defaults_reproduce_string_net_form():
    m = EntropyModel(quantum_dimension=2.0)
    # S = (n - J) log 2 when alpha defaults to log D
    assert m.entropy(12, 1) == pytest.approx(11 * math.log(2))


def test_alpha_zero_gives_pure_topological_term():
    m = EntropyModel(2.0, alpha=0.0)
    assert m.entropy(100, 2) == pytest.approx(-2 * math.log(2))


def test_trivial_dimension():
    m = EntropyModel(1.0, alpha=0.7)
    assert m.s_topo == 0.0
    assert m.entropy(10, 3) == pytest.approx(7.0)


def test_log_base_2_units():
    m = EntropyModel(2.0, log_base="2")
    assert m.s_topo == pytest.approx(1.0)
    assert m.entropy(12, 1) == pytest.approx(11.0)


def test_validation():
    with pytest.raises(ValidationError):
        EntropyModel(0.5)
    with pytest.raises(ValidationError):
        EntropyModel(2.0, alpha=-1.0)
    with pytest.raises(ValidationError):
        EntropyModel(2.0, log_base="10")


@pytest.mark.parametrize("kwargs", [
    {"quantum_dimension": math.inf},
    {"quantum_dimension": math.nan},
    {"alpha": math.inf},
    {"alpha": math.nan},
])
def test_rejects_non_finite_parameters(kwargs):
    with pytest.raises(ValidationError, match="finite"):
        EntropyModel(**kwargs)



@pytest.mark.parametrize("kwargs, match", [
    ({"alpha": "a"}, "alpha must be finite and >= 0, got 'a'"),
    ({"alpha": [1.0]}, r"alpha must be finite and >= 0, got \[1.0\]"),
    ({"quantum_dimension": "2"}, "quantum dimension must be finite and >= 1, got '2'"),
    ({"quantum_dimension": None}, "quantum dimension must be finite and >= 1, got None"),
    ({"log_base": ["e"]}, r"log_base must be 'e' or '2', got \['e'\]"),
])
def test_parameters_that_are_no_numbers_are_validation_errors(kwargs, match):
    with pytest.raises(ValidationError, match=f"^{match}$"):
        EntropyModel(**kwargs)
