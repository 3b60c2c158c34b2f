"""Entropy model and quantum dimension helpers."""

import math

import pytest

from topomi.errors import SingularK, ValidationError
from topomi.model import EntropyModel, quantum_dimension_from_K


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


def test_quantum_dimension_from_K():
    assert quantum_dimension_from_K([[2]]) == pytest.approx(math.sqrt(2))
    assert quantum_dimension_from_K([[1]]) == pytest.approx(1.0)
    assert quantum_dimension_from_K([[0, 1], [1, 0]]) == pytest.approx(1.0)
    assert quantum_dimension_from_K([[3, 1], [1, 3]]) == pytest.approx(math.sqrt(8))


def test_singular_K():
    with pytest.raises(SingularK):
        quantum_dimension_from_K([[1, 1], [1, 1]])
    with pytest.raises(ValidationError):
        quantum_dimension_from_K([[1, 2]])
