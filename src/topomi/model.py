"""Entropy model mapping region topology to entanglement entropies.

A region with n perimeter links and J disconnected boundaries is assigned

    S = alpha * n - J * log(D)

where D is the total quantum dimension of the phase.  The per-link
coefficient alpha is non-universal and cancels identically from every
multipartite combination reported by the engine; it defaults to log(D),
which reproduces the zero-correlation-length string-net value.  It is a
library parameter, not a command-line option: it reaches the recursion
check through the subset entropy table, never C^N or a reported
information value.

Entropies are reported in the units of the selected log base (nats for
``e``, bits for ``2``).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import ValidationError

_BASE_SCALE = {"e": 1.0, "2": math.log(2.0)}


@dataclass(frozen=True)
class EntropyModel:
    quantum_dimension: float = 2.0
    alpha: float | None = None
    log_base: str = "e"

    def __post_init__(self):
        if not (isinstance(self.log_base, str) and self.log_base in _BASE_SCALE):
            raise ValidationError(f"log_base must be 'e' or '2', got {self.log_base!r}")
        if not (isinstance(self.quantum_dimension, numbers.Real) and 1.0 <= self.quantum_dimension < math.inf):
            raise ValidationError(
                f"quantum dimension must be finite and >= 1, got {self.quantum_dimension!r}"
            )
        if self.alpha is not None and not (isinstance(self.alpha, numbers.Real) and 0 <= self.alpha < math.inf):
            raise ValidationError(f"alpha must be finite and >= 0, got {self.alpha!r}")

    def log(self, x: float) -> float:
        """log of x in the selected base."""
        return math.log(x) / _BASE_SCALE[self.log_base]

    @property
    def s_topo(self) -> float:
        """Topological entanglement entropy log(D), in selected units."""
        return self.log(self.quantum_dimension)

    @property
    def alpha_value(self) -> float:
        """Effective per-link coefficient, in selected units."""
        return self.s_topo if self.alpha is None else self.alpha

    def entropy(self, perimeter, boundaries):
        """alpha * n - J * log(D); elementwise on per-subset integer tables."""
        return self.alpha_value * perimeter - boundaries * self.s_topo

