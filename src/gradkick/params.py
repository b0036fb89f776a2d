"""Algorithm parameter tuple and the planning error, shared across the package."""

from __future__ import annotations

import math
from dataclasses import dataclass


class PlannerError(ValueError):
    """Parameter planning failed: the grid would exceed the memory guard, no
    grid meets the targets, or a planning inequality cannot be evaluated."""


@dataclass(frozen=True)
class AlgorithmParams:
    """The four knobs of the estimator A(n, nu, lambda, mu; x).

    n is the bit width per grid axis, nu the arithmetic precision carried by
    the range register, lam the phase scale applied by the rotation operator,
    and mu the grid spacing around the evaluation point. Records spell lam
    as "lambda" (a reserved word in Python).
    """

    n: int
    nu: float
    lam: float
    mu: float

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        for name in ("nu", "lam", "mu"):
            value = float(getattr(self, name))
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
