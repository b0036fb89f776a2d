"""Verification side: parameter planning, bounds, and the success guarantee.

Everything here may touch the model's exact gradient and Hessian bounds,
because this module verifies the estimator instead of being part of it. The
pipeline itself only ever sees evaluate().

The success guarantee traded here: with parameters satisfying the five
planning inequalities, the amplitude that the output state puts on grid
indices decoding to within delta (infinity norm) of the true gradient is at
least epsilon. The checker recomputes every quantity in that argument
numerically: the error split of the pre-transform state, its two norm
bounds, the per-axis leakage bound for linear objectives, the projection
floors, and the triangle chain connecting them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algorithm import (axis_decode_values, plan_run_format, run_pipeline,
                        sampling_radius)
from .models import FunctionModel, row_dots
from .operators import complex_array, complex_product, unit_phases
from .oracle import DomainError, FixedPointFormat, grid_center, quantize
from .params import AlgorithmParams
from .qft import qft_amplitudes
from .states import (DEFAULT_MAX_GRID_BITS, GridState, grid_offsets,
                     grid_point_of, represented_points)

# Numerical slack applied when deciding whether an inequality "holds": the
# closed-form parameters make the curvature and precision inequalities
# algebraically tight, so their float slacks land within an ulp of zero on
# either side. Raw slacks are always reported unmodified.
DEFAULT_CHECK_TOL = 1e-12

RECONSTRUCTION_TOL = 1e-12
DUAL_PATH_TOL = 1e-10
FACTORIZATION_TOL = 1e-10
LEAKAGE_AMPLITUDE_TOL = 1e-12

# Distance from an integer within which geometric_sum uses the half-angle form.
NEAR_INTEGER = 2.0 ** -16


class PlannerError(ValueError):
    """Parameter planning failed: the grid would exceed the memory guard, or
    no grid meets the targets."""


class BoundViolation(RuntimeError):
    """A bound that holds by construction was violated; an implementation bug."""


@dataclass(frozen=True)
class AccuracySpec:
    """Accuracy targets: margin gamma around x, window delta, amplitude epsilon."""

    gamma: float
    delta: float
    epsilon: float

    def __post_init__(self) -> None:
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if not self.delta > 0:
            raise ValueError("delta must be positive")
        # epsilon = 1 is excluded: the closed forms divide by 1 - epsilon.
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must lie strictly between 0 and 1")


@dataclass(frozen=True)
class InequalityCheck:
    """One planning inequality.

    slack is oriented as the margin by which the inequality holds: bound
    minus value for upper bounds, value minus bound for lower bounds, so
    slack >= 0 always means satisfied. holds applies the checker's numerical
    tolerance; slack itself is reported raw. slack is None when the check
    could not be evaluated (see note).
    """

    name: str
    value: float | None
    bound: float | None
    slack: float | None
    holds: bool
    note: str = ""


@dataclass(frozen=True)
class InequalityReport:
    """The five planning inequalities in canonical order, and their tolerance."""

    tol: float
    checks: tuple[InequalityCheck, ...]

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks)


def select_parameters(spec: AccuracySpec, L: float, M: float, p: int,
                      max_grid_bits: int | None = None) -> AlgorithmParams:
    """Closed-form parameters meeting every planning inequality.

    n = ceil(-log2(sin^2(pi delta / (2 (L + delta))) w)) with the window
    w = 1 - ((2 + epsilon) / 3)^(2/p); lam takes the larger of the margin
    branch 2^(n-2) / (gamma (L + delta)) and the curvature branch
    3 4^(n-2) pi M / (sqrt(5) (L + delta)^2 (1 - epsilon)); mu =
    1 / (2 lam (L + delta)); nu = (1 - epsilon) / (6 pi lam). With M = 0
    the curvature branch vanishes and the margin branch decides lam.
    """
    if L < 0 or M < 0:
        raise ValueError("L and M must be nonnegative")
    if p < 1:
        raise ValueError("p must be at least 1")
    window = 1.0 - ((2.0 + spec.epsilon) / 3.0) ** (2.0 / p)
    s = math.sin(math.pi * spec.delta / (2.0 * (L + spec.delta)))
    if not s * s * window > 0:
        raise PlannerError(
            f"no grid meets delta={spec.delta!r} with L={L!r} and p={p}: "
            "sin^2(pi delta / (2 (L + delta))) w underflows to 0")
    n = math.ceil(-math.log2(s * s * window))
    assert n >= 1  # the argument of log2 is strictly below 1
    limit = DEFAULT_MAX_GRID_BITS if max_grid_bits is None else int(max_grid_bits)
    if n * p > limit:
        raise PlannerError(
            f"planning needs {n} bits per axis ({n * p} total, guard {limit}); "
            "try a looser delta or epsilon, or raise max_grid_bits"
        )
    lam = max(
        2.0 ** (n - 2) / (spec.gamma * (L + spec.delta)),
        3.0 * 4.0 ** (n - 2) * math.pi * M
        / (math.sqrt(5.0) * (L + spec.delta) ** 2 * (1.0 - spec.epsilon)),
    )
    mu = 1.0 / (2.0 * lam * (L + spec.delta))
    nu = (1.0 - spec.epsilon) / (6.0 * math.pi * lam)
    return AlgorithmParams(n=n, nu=nu, lam=lam, mu=mu)


def check_inequalities(params: AlgorithmParams, spec: AccuracySpec, L: float, M: float,
                       p: int) -> InequalityReport:
    """Evaluate the five planning inequalities and report value/bound/slack."""
    n, lam, mu, nu = params.n, params.lam, params.mu, params.nu
    eps = spec.epsilon
    third = (1.0 - eps) / 3.0
    checks = []

    value = 4.0 ** (n - 1) * math.pi * lam * M * mu * mu / math.sqrt(5.0)
    checks.append(_upper("curvature", value, third,
                         "4^(n-1) pi lam M mu^2 / sqrt(5) <= (1 - eps) / 3"))

    value = 2.0 * math.pi * lam * nu
    checks.append(_upper("precision", value, third,
                         "2 pi lam nu <= (1 - eps) / 3"))

    value = 2.0 ** (n - 1) * mu
    checks.append(_upper("margin", value, spec.gamma,
                         "2^(n-1) mu <= gamma"))

    value = 1.0 / (2.0 * lam * mu)
    slack = value - (L + spec.delta)
    checks.append(InequalityCheck(name="bandwidth", value=value, bound=L + spec.delta,
                                  slack=slack, holds=slack >= -DEFAULT_CHECK_TOL,
                                  note="1 / (2 lam mu) >= L + delta"))

    theta = math.pi * lam * mu * spec.delta
    window = 1.0 - ((2.0 + eps) / 3.0) ** (2.0 / p)
    bound = math.sqrt(2.0 ** n * window)
    if 0.0 < theta < math.pi:
        value = 1.0 / math.sin(theta)
        slack = bound - value
        checks.append(InequalityCheck(
            name="leakage", value=value, bound=bound, slack=slack,
            holds=slack >= -DEFAULT_CHECK_TOL,
            note="csc(pi lam mu delta) <= sqrt(2^n (1 - ((2 + eps)/3)^(2/p)))"))
    else:
        checks.append(InequalityCheck(
            name="leakage", value=None, bound=bound, slack=None, holds=False,
            note=f"pi lam mu delta = {theta!r} outside (0, pi); "
                 "cosecant bound inapplicable"))

    return InequalityReport(checks=tuple(checks), tol=DEFAULT_CHECK_TOL)


def _upper(name: str, value: float, bound: float, note: str) -> InequalityCheck:
    slack = bound - value
    return InequalityCheck(name=name, value=value, bound=bound, slack=slack,
                           holds=slack >= -DEFAULT_CHECK_TOL, note=note)


@dataclass(eq=False)
class ErrorDecomposition:
    """Split of the pre-transform state into linear, curvature, rounding parts.

    psi is the actual (quantized-phase) state, 2^(-pn/2) exp(2 pi i lam
    c_r(c_f(c_p(base, h)))) at each grid point h, built straight from that
    definition without running any operator; it is the reference the
    pipeline is checked against. psi_L carries the linearized phase, psi_N
    the curvature correction, psi_D the rounding correction, so psi_L +
    psi_N + psi_D reconstructs psi up to float addition error. The parts are
    not individually normalized, but psi_L has unit norm. eps_N and eps_D
    are the per-point phase-argument errors.
    """

    n: int
    p: int
    psi: np.ndarray
    psi_L: np.ndarray
    psi_N: np.ndarray
    psi_D: np.ndarray
    eps_N: np.ndarray
    eps_D: np.ndarray

    @property
    def psi_N_norm(self) -> float:
        return float(np.linalg.norm(self.psi_N))

    @property
    def psi_D_norm(self) -> float:
        return float(np.linalg.norm(self.psi_D))

    @property
    def reconstruction_error(self) -> float:
        return float(np.max(np.abs(self.psi_L + self.psi_N + self.psi_D - self.psi)))


def decompose_state(model: FunctionModel, x: Sequence[float], params: AlgorithmParams,
                    fmt: FixedPointFormat) -> ErrorDecomposition:
    """Build the three-part error split, checking both per-point error bounds.

    Raises BoundViolation if a rounding error exceeds nu or a curvature error
    exceeds M mu^2 |h - g0|^2 / 2; both hold by construction for truthful
    models, so a violation means a bug (or a lying hess_bound).
    """
    pt = np.asarray(x, dtype=float)
    n, p = params.n, model.p
    if fmt.a1 > params.nu:
        raise ValueError("format step exceeds nu; plan the format from params")
    radius = sampling_radius(params)
    if not model.domain_box.contains_box(pt, radius):
        raise DomainError(
            f"sampling box of half-width {radius} around {pt.tolist()} exits the domain"
        )
    grad = model.gradient(pt)
    fx = model.evaluate(pt)
    lam, mu = params.lam, params.mu
    # The offsets are dropped before f is evaluated over the grid, which
    # builds an array of the same size.
    off = grid_offsets(None, n, p)
    f_lin = fx + mu * row_dots(off, grad)
    cap = 0.5 * model.hess_bound * mu * mu * row_dots(off, off)
    del off
    f_true = model.evaluate_points(represented_points(pt, mu, None, n))
    amp = 1.0 / math.sqrt(f_true.size)
    f_q = fmt.decode(quantize(fmt, f_true))
    eps_N = f_true - f_lin
    eps_D = f_q - f_true
    rounding_bad = np.abs(eps_D) > params.nu
    curvature_bad = np.abs(eps_N) > cap + 1e-12 * np.maximum(1.0, cap)
    bad = np.flatnonzero(rounding_bad | curvature_bad)
    if bad.size:
        i = int(bad[0])
        h = grid_point_of(i, n, p)
        if rounding_bad[i]:
            raise BoundViolation(
                f"rounding error {float(eps_D[i])!r} above nu={params.nu!r} at grid {h}"
            )
        raise BoundViolation(
            f"curvature error {float(eps_N[i])!r} above M mu^2 |h-g0|^2 / 2 = "
            f"{float(cap[i])!r} at grid {h}"
        )
    lin_re, lin_im = unit_phases(lam, f_lin)
    true_re, true_im = unit_phases(lam, f_true)
    q_re, q_im = unit_phases(lam, f_q)
    return ErrorDecomposition(
        n=n, p=p,
        psi=complex_array(*complex_product(amp, 0.0, q_re, q_im)),
        psi_L=complex_array(*complex_product(amp, 0.0, lin_re, lin_im)),
        psi_N=complex_array(*complex_product(amp, 0.0, true_re - lin_re, true_im - lin_im)),
        psi_D=complex_array(*complex_product(amp, 0.0, q_re - true_re, q_im - true_im)),
        eps_N=eps_N, eps_D=eps_D)


def psi_N_norm_bound(params: AlgorithmParams, M: float) -> float:
    """Closed-form curvature norm bound 4^(n-1) pi lam M mu^2 / sqrt(5)."""
    return 4.0 ** (params.n - 1) * math.pi * params.lam * M * params.mu ** 2 / math.sqrt(5.0)


def psi_D_norm_bound(params: AlgorithmParams) -> float:
    """Rounding norm bound 2 pi lam nu; holds for every model and format."""
    return 2.0 * math.pi * params.lam * params.nu


def success_projection(chi: GridState, true_grad: Sequence[float], delta: float,
                       params: AlgorithmParams) -> tuple[float, float]:
    """Amplitude norm and probability inside the strict delta window.

    The projector factors per axis, so the window mask is the outer product
    of per-axis masks |decode(g_m) - grad_m| < delta (strict).
    """
    tg = np.asarray(true_grad, dtype=float)
    if tg.shape != (chi.p,):
        raise ValueError(f"true gradient must have {chi.p} components")
    vals = axis_decode_values(params)
    mask = np.abs(vals - tg[0]) < delta
    for m in range(1, chi.p):
        mask = np.logical_and.outer(mask, np.abs(vals - tg[m]) < delta)
    probability = float(np.sum(chi.probabilities()[mask.reshape(-1)]))
    return math.sqrt(probability), probability


@dataclass(frozen=True)
class LeakageReport:
    """Out-of-window amplitude bound for a linear objective.

    bound is 2^(-n) |csc(pi lam mu delta)|; vacuous means it is >= 1 and so
    says nothing (inner products never exceed 1). per_axis_max holds the
    largest out-of-window factor amplitude per axis (0 when the whole axis
    is in the window). factorization_error is the largest deviation between
    the transformed linear-phase state and global phase times the tensor
    product of the per-axis factors.
    """

    bound: float
    vacuous: bool
    per_axis_max: tuple[float, ...]
    amplitude_ok: bool
    factorization_error: float
    factorization_ok: bool


def geometric_sum(theta: float, size: int) -> complex:
    """sum_k exp(2 pi i theta k) over k < size.

    The closed form (1 - z^size) / (1 - z), z = exp(2 pi i theta), loses its
    phase near an integer: cos(2 pi theta) rounds to 1, so 1 - z keeps only
    its imaginary part, an error of about pi d relative at a distance d
    (3.7e-9 at d = 1e-9). Within NEAR_INTEGER of an integer the half-angle
    form exp(i pi (size - 1) d) sin(pi size d) / sin(pi d) of the reduced
    angle d is exact to rounding instead. Elsewhere the closed form is
    accurate and is kept, so the factors of existing records keep their bits.
    """
    d = theta - round(theta)
    if abs(d) < NEAR_INTEGER:
        if d == 0:
            return complex(size)
        return (cmath.exp(1j * math.pi * (size - 1) * d)
                * (math.sin(math.pi * size * d) / math.sin(math.pi * d)))
    z = cmath.exp(2j * math.pi * theta)
    return (1.0 - cmath.exp(2j * math.pi * size * theta)) / (1.0 - z)


def leakage_check(model: FunctionModel, x: Sequence[float], params: AlgorithmParams,
                  delta: float) -> LeakageReport:
    """Check the per-axis cosecant bound and the tensor factorization.

    Requires a linear model (the pre-transform state then equals its linear
    part exactly) and the bandwidth condition 1 / (2 lam mu) >= L + delta;
    the sampling box must also stay inside the domain. Both are verified
    before the bound is applied, because together they confine the phase
    angle to where the cosecant estimate is valid.
    """
    if model.hess_bound != 0.0:
        raise ValueError("leakage check requires a linear model (hess_bound 0)")
    pt = np.asarray(x, dtype=float)
    if not model.domain_box.contains_box(pt, sampling_radius(params)):
        raise DomainError("sampling box exits the domain")
    n, p, lam, mu = params.n, model.p, params.lam, params.mu
    if 1.0 / (2.0 * lam * mu) < model.grad_bound + delta:
        raise ValueError("bandwidth precondition 1 / (2 lam mu) >= L + delta fails")
    grad = model.gradient(pt)
    fx = model.evaluate(pt)
    size = 1 << n
    g0 = grid_center(n)

    # Per-axis factors by the closed-form geometric sum.
    factors = []
    for m in range(p):
        phi = np.array([geometric_sum(g / size + lam * mu * float(grad[m]), size)
                        for g in range(size)], dtype=complex)
        factors.append(phi / size)

    # Independent dense route: transform the linear-phase state directly.
    axes = [np.exp(2j * math.pi * lam * mu * float(grad[m]) * (np.arange(size) - g0))
            / math.sqrt(size) for m in range(p)]
    psi_L = axes[0]
    for m in range(1, p):
        psi_L = np.multiply.outer(psi_L, axes[m])
    psi_L = cmath.exp(2j * math.pi * lam * fx) * psi_L.reshape(-1)
    chi_L = qft_amplitudes(psi_L, n, p)

    global_phase = cmath.exp(2j * math.pi * lam * (fx - mu * float(np.sum(grad)) * g0))
    predicted = factors[0]
    for m in range(1, p):
        predicted = np.multiply.outer(predicted, factors[m])
    predicted = global_phase * predicted.reshape(-1)
    factorization_error = float(np.max(np.abs(chi_L - predicted)))

    theta0 = math.pi * lam * mu * delta
    bound = 1.0 / (float(size) * abs(math.sin(theta0)))
    vals = axis_decode_values(params)
    per_axis_max = []
    for m in range(p):
        outside = np.abs(vals - float(grad[m])) >= delta
        per_axis_max.append(float(np.max(np.abs(factors[m])[outside])) if outside.any() else 0.0)

    return LeakageReport(
        bound=bound,
        vacuous=bound >= 1.0,
        per_axis_max=tuple(per_axis_max),
        amplitude_ok=all(v <= bound + LEAKAGE_AMPLITUDE_TOL for v in per_axis_max),
        factorization_error=factorization_error,
        factorization_ok=factorization_error <= FACTORIZATION_TOL,
    )


def classical_baseline(model: FunctionModel, x: Sequence[float],
                       step: float) -> tuple[np.ndarray, int]:
    """One-sided finite-difference reference: p + 1 evaluations, since f(x)
    is shared across the axes."""
    if not step > 0:
        raise ValueError("step must be positive")
    pt = np.asarray(x, dtype=float)
    calls = 0

    def evaluate(point: np.ndarray) -> float:
        nonlocal calls
        if not model.domain_box.contains(point):
            raise DomainError(f"evaluation point {point.tolist()} outside the domain box")
        calls += 1
        return model.evaluate(point)

    est = np.empty(model.p, dtype=float)
    f0 = evaluate(pt)
    for m in range(model.p):
        y = pt.copy()
        y[m] += step
        est[m] = (evaluate(y) - f0) / step
    return est, calls


@dataclass(frozen=True)
class TheoremReport:
    """Everything the success-guarantee audit measured, plus what it asserts.

    Slack orientation matches InequalityCheck: nonnegative means satisfied.
    failures lists the asserted checks that did not hold; the projection
    floors are asserted only when all five planning inequalities hold
    (guarantee_asserted), since the guarantee promises nothing otherwise.
    """

    params: AlgorithmParams
    accuracy: AccuracySpec
    p: int
    grad_bound: float
    hess_bound: float
    true_gradient: tuple[float, ...]
    oracle_calls: int
    inequalities: InequalityReport
    psi_D_norm: float
    psi_D_bound: float
    psi_N_norm: float
    psi_N_bound: float
    psi_N_asserted: bool
    reconstruction_error: float
    dual_path_error: float
    projected_linear: float
    linear_floor: float
    projected_amplitude: float
    amplitude_floor: float
    success_probability: float
    triangle_floor: float
    guarantee_asserted: bool
    leakage: LeakageReport | None
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_theorem(model: FunctionModel, x: Sequence[float], spec: AccuracySpec,
                   params: AlgorithmParams | None = None, *,
                   group_mode: str = "modular", phase_variant: str = "direct",
                   max_grid_bits: int | None = None) -> TheoremReport:
    """Run the pipeline and the full audit, and collect a TheoremReport.

    Plans parameters when none are given. The audit always measures
    everything; what it asserts (and lists under failures) is the set of
    checks that must hold unconditionally, plus the projection floors when
    the planning inequalities all hold.
    """
    pt = np.asarray(x, dtype=float)
    if params is None:
        params = select_parameters(spec, model.grad_bound, model.hess_bound,
                                   model.p, max_grid_bits)
    fmt = plan_run_format(model, pt, params, group_mode)
    dec = decompose_state(model, pt, params, fmt)
    chi, oracle_calls = run_pipeline(model, pt, params, group_mode,
                                     phase_variant=phase_variant,
                                     max_grid_bits=max_grid_bits, range_format=fmt)

    aligned = chi.amplitudes
    if phase_variant == "per-bit":
        # The per-bit rotation omits the constant a0 phase, a global factor;
        # restore it before comparing against the reference construction.
        aligned = aligned * cmath.exp(2j * math.pi * params.lam * fmt.a0)
    dual_path_error = float(np.max(np.abs(
        aligned - qft_amplitudes(dec.psi, params.n, model.p))))

    grad = model.gradient(pt)
    projected_amplitude, success_probability = success_projection(
        chi, grad, spec.delta, params)
    chi_L = GridState(n=params.n, p=model.p,
                      amplitudes=qft_amplitudes(dec.psi_L, params.n, model.p))
    projected_linear, _ = success_projection(chi_L, grad, spec.delta, params)

    inequalities = check_inequalities(params, spec, model.grad_bound,
                                      model.hess_bound, model.p)
    # The factorized leakage audit only makes sense for linear objectives and
    # needs the bandwidth condition, which confines the phase angle to where
    # the cosecant estimate is valid. Outside that, it is skipped (None); the
    # bandwidth inequality check above still records the failure.
    can_leak_check = (model.hess_bound == 0.0
                      and 1.0 / (2.0 * params.lam * params.mu)
                      >= model.grad_bound + spec.delta)
    leakage = (leakage_check(model, pt, params, spec.delta)
               if can_leak_check else None)

    psi_D_norm = dec.psi_D_norm
    psi_D_bound = psi_D_norm_bound(params)
    psi_N_norm = dec.psi_N_norm
    psi_N_bound = psi_N_norm_bound(params, model.hess_bound)
    psi_N_asserted = model.p == 1
    linear_floor = (2.0 + spec.epsilon) / 3.0
    triangle_floor = projected_linear - psi_N_norm - psi_D_norm
    guarantee_asserted = inequalities.all_hold

    reconstruction_error = dec.reconstruction_error
    failures: list[str] = []
    if reconstruction_error > RECONSTRUCTION_TOL:
        failures.append(f"reconstruction error {reconstruction_error!r} "
                        f"above {RECONSTRUCTION_TOL}")
    if dual_path_error > DUAL_PATH_TOL:
        failures.append(f"pipeline/reference disagreement {dual_path_error!r} "
                        f"above {DUAL_PATH_TOL}")
    if psi_D_norm > psi_D_bound + DEFAULT_CHECK_TOL:
        failures.append(f"psi_D norm {psi_D_norm!r} above bound {psi_D_bound!r}")
    if psi_N_asserted and psi_N_norm > psi_N_bound + DEFAULT_CHECK_TOL:
        failures.append(f"psi_N norm {psi_N_norm!r} above bound {psi_N_bound!r}")
    if projected_amplitude < triangle_floor - DUAL_PATH_TOL:
        failures.append("triangle chain violated: projected amplitude "
                        f"{projected_amplitude!r} below {triangle_floor!r}")
    if leakage is not None and not leakage.amplitude_ok:
        failures.append("leakage amplitude bound violated")
    if leakage is not None and not leakage.factorization_ok:
        failures.append("leakage factorization check failed")
    if guarantee_asserted:
        if projected_linear < linear_floor - DEFAULT_CHECK_TOL:
            failures.append(f"linear projection {projected_linear!r} below "
                            f"floor {linear_floor!r}")
        if projected_amplitude < spec.epsilon - DEFAULT_CHECK_TOL:
            failures.append(f"projected amplitude {projected_amplitude!r} below "
                            f"epsilon {spec.epsilon!r}")

    return TheoremReport(
        params=params,
        accuracy=spec,
        p=model.p,
        grad_bound=model.grad_bound,
        hess_bound=model.hess_bound,
        true_gradient=tuple(float(v) for v in grad),
        oracle_calls=oracle_calls,
        inequalities=inequalities,
        psi_D_norm=psi_D_norm,
        psi_D_bound=psi_D_bound,
        psi_N_norm=psi_N_norm,
        psi_N_bound=psi_N_bound,
        psi_N_asserted=psi_N_asserted,
        reconstruction_error=reconstruction_error,
        dual_path_error=dual_path_error,
        projected_linear=projected_linear,
        linear_floor=linear_floor,
        projected_amplitude=projected_amplitude,
        amplitude_floor=spec.epsilon,
        success_probability=success_probability,
        triangle_floor=triangle_floor,
        guarantee_asserted=guarantee_asserted,
        leakage=leakage,
        failures=tuple(failures),
    )
