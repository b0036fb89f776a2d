"""Black-box objectives with certified derivative bounds.

The estimator treats f as an oracle: only evaluate() ever feeds the pipeline,
which reads it through evaluate_points() over a whole grid at once. A built-in
model's evaluate() is its batch formula at one point, so the two agree bit for
bit; a model without a batch formula has evaluate() mapped over the points.
gradient() exists for the verification side (reference states, success
windows, finite-difference comparisons); the algorithm itself never calls it.
grad_bound is an infinity-norm bound on the gradient over the domain box and
hess_bound a spectral-norm bound on the Hessian there. The built-in
constructors compute both bounds exactly from the coefficients rather than by
sampling, so the verification checks are meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np


@dataclass(frozen=True)
class DomainBox:
    """Axis-aligned box D described by center and per-axis half-width."""

    center: tuple[float, ...]
    half_width: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.center) != len(self.half_width):
            raise ValueError("center and half_width must have equal length")
        if len(self.center) == 0:
            raise ValueError("box must have at least one axis")
        if any(not w > 0 for w in self.half_width):
            raise ValueError("half widths must be positive")

    @property
    def dimension(self) -> int:
        return len(self.center)

    @classmethod
    def cube(cls, p: int, half_width: float,
             center: float | Sequence[float] = 0.0) -> DomainBox:
        if np.ndim(center) == 0:
            mid = (float(center),) * p
        else:
            mid = tuple(float(v) for v in center)
            if len(mid) != p:
                raise ValueError(f"center must have {p} components")
        return cls(center=mid, half_width=(float(half_width),) * p)

    def contains(self, point: Sequence[float]) -> bool:
        return self.contains_box(point, 0.0)

    def contains_points(self, points: np.ndarray) -> np.ndarray:
        """contains() for each row of a (k, p) array, as a boolean array,
        checked one axis (column) at a time."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dimension:
            raise ValueError(f"expected a (k, {self.dimension}) array of points, "
                             f"got shape {pts.shape}")
        inside = np.ones(pts.shape[0], dtype=bool)
        for axis, (c, w) in enumerate(zip(self.center, self.half_width)):
            inside &= np.abs(pts[:, axis] - c) <= w
        return inside

    def contains_box(self, point: Sequence[float], radius: float) -> bool:
        """True when the cube point + [-radius, radius]^p lies inside D."""
        pt = np.asarray(point, dtype=float)
        c = np.asarray(self.center)
        w = np.asarray(self.half_width)
        return bool(np.all(np.abs(pt - c) + radius <= w))


@dataclass(frozen=True)
class FunctionModel:
    """Objective f with exact evaluator and verification-only derivatives.

    evaluate and gradient work in float64, the widest native float here.
    evaluate_batch, when given, maps a (k, p) array of points to the k values
    evaluate would return for its rows, bit for bit: a built-in model's
    evaluate is at_one_point(evaluate_batch), so this holds by construction.
    """

    p: int
    evaluate: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    grad_bound: float
    hess_bound: float
    domain_box: DomainBox
    evaluate_batch: Callable[[np.ndarray], np.ndarray] | None = field(
        default=None, repr=False)

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError("p must be at least 1")
        if self.domain_box.dimension != self.p:
            raise ValueError("domain box dimension disagrees with p")
        if not (0 <= self.grad_bound < np.inf and 0 <= self.hess_bound < np.inf):
            raise ValueError(f"derivative bounds must be finite and nonnegative, got "
                             f"L={self.grad_bound!r} and M={self.hess_bound!r}")

    def evaluate_points(self, points: np.ndarray) -> np.ndarray:
        """f at each row of a (k, p) array of points, as a float64 array."""
        if self.evaluate_batch is not None:
            return np.asarray(self.evaluate_batch(points), dtype=float)
        return np.fromiter((self.evaluate(row) for row in points), dtype=float,
                           count=len(points))


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.dot(a[i], b[i]) for each row i (b may be one shared vector), bit for bit.

    np.dot multiplies length-1 vectors as scalars, and so does this; np.vecdot
    would add the product to +0.0 and turn a -0.0 into +0.0. Longer rows go
    through np.vecdot, which sums in np.dot's order, as a matrix-vector
    product would not.
    """
    if a.shape[-1] == 1:
        return a[:, 0] * b[..., 0]
    return np.vecdot(a, b)


def at_one_point(batch: Callable[[np.ndarray], np.ndarray]) -> Callable[[np.ndarray], float]:
    """The scalar evaluate of a batch formula: the formula at the one-row array of x."""
    return lambda x: float(batch(np.asarray(x, dtype=float)[None, :])[0])


def _as_vector(a: Sequence[float]) -> np.ndarray:
    v = np.asarray(a, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("expected a nonempty 1-d coefficient vector")
    return v


def linear_model(a: Sequence[float], domain_box: DomainBox) -> FunctionModel:
    """f(x) = a . x, gradient constant a, so grad_bound = max|a_m| and hess_bound = 0."""
    coeff = _as_vector(a)
    if domain_box.dimension != coeff.size:
        raise ValueError("domain box dimension disagrees with coefficients")

    def evaluate_batch(points: np.ndarray) -> np.ndarray:
        return row_dots(points, coeff)

    def gradient(x: np.ndarray) -> np.ndarray:
        return coeff.copy()

    return FunctionModel(
        p=coeff.size,
        evaluate=at_one_point(evaluate_batch),
        gradient=gradient,
        grad_bound=float(np.max(np.abs(coeff))),
        hess_bound=0.0,
        domain_box=domain_box,
        evaluate_batch=evaluate_batch,
    )


def quadratic_model(a: Sequence[float], hessian: Sequence[Sequence[float]],
                    domain_box: DomainBox) -> FunctionModel:
    """f(x) = a . x + x^T H x / 2 with constant symmetric Hessian H.

    hess_bound is the exact spectral norm of H. grad_bound is the exact
    supremum of |a + H x| (infinity norm) over the box: each component is
    affine in x, so its maximum is |value at center| plus the absolute row
    sums weighted by the half-widths.
    """
    coeff = _as_vector(a)
    H = np.asarray(hessian, dtype=float)
    if H.shape != (coeff.size, coeff.size):
        raise ValueError("hessian shape disagrees with coefficients")
    if not np.array_equal(H, H.T):
        raise ValueError("hessian must be exactly symmetric")
    if domain_box.dimension != coeff.size:
        raise ValueError("domain box dimension disagrees with coefficients")

    def evaluate_batch(points: np.ndarray) -> np.ndarray:
        # matmul over a stack calls the kernel of H @ v once per row.
        hv = np.matmul(H, points[:, :, None])[:, :, 0]
        return row_dots(points, coeff) + 0.5 * row_dots(points, hv)

    def gradient(x: np.ndarray) -> np.ndarray:
        return coeff + H @ np.asarray(x, dtype=float)

    center = np.asarray(domain_box.center)
    widths = np.asarray(domain_box.half_width)
    # Finite coefficients can still overflow a bound. FunctionModel rejects
    # a bound that is not finite, so the overflow needs no warning of its own.
    with np.errstate(over="ignore", invalid="ignore"):
        grad_sup = float(np.max(np.abs(coeff + H @ center) + np.abs(H) @ widths))
        hess_sup = float(np.linalg.norm(H, 2))

    return FunctionModel(
        p=coeff.size,
        evaluate=at_one_point(evaluate_batch),
        gradient=gradient,
        grad_bound=grad_sup,
        hess_bound=hess_sup,
        domain_box=domain_box,
        evaluate_batch=evaluate_batch,
    )


def sinusoidal_model(c: float, b: Sequence[float], domain_box: DomainBox) -> FunctionModel:
    """f(x) = c sin(b . x).

    gradient = c cos(b . x) b, so |df/dx_m| <= |c||b_m| and grad_bound =
    |c| max|b_m|. The Hessian is -c sin(b . x) b b^T with spectral norm at
    most |c| |b|_2^2, taken as hess_bound.
    """
    freq = _as_vector(b)
    amp = float(c)
    if domain_box.dimension != freq.size:
        raise ValueError("domain box dimension disagrees with coefficients")

    def evaluate_batch(points: np.ndarray) -> np.ndarray:
        return amp * np.sin(row_dots(points, freq))

    def gradient(x: np.ndarray) -> np.ndarray:
        return amp * float(np.cos(np.dot(freq, np.asarray(x, dtype=float)))) * freq

    with np.errstate(over="ignore"):  # as in quadratic_model
        grad_bound = abs(amp) * float(np.max(np.abs(freq)))
        hess_bound = abs(amp) * float(np.dot(freq, freq))
    return FunctionModel(
        p=freq.size,
        evaluate=at_one_point(evaluate_batch),
        gradient=gradient,
        grad_bound=grad_bound,
        hess_bound=hess_bound,
        domain_box=domain_box,
        evaluate_batch=evaluate_batch,
    )
