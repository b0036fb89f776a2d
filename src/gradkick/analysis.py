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

from .algorithm import (axis_decode_values, check_sampling_box, plan_run_format,
                        run_pipeline, sampling_radius)
from .models import FunctionModel, row_dots
from .operators import unit_phases
from .oracle import DomainError, FixedPointFormat, grid_center, quantize
from .params import AlgorithmParams, PlannerError
from .qft import qft_amplitudes
from .states import (GridState, axis_offsets, check_grid_bits, grid_offset_norms,
                     grid_offsets, grid_outer, grid_point_of, probabilities,
                     represented_points)

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

    def __post_init__(self) -> None:
        for field, number in (("value", self.value), ("bound", self.bound), ("slack", self.slack)):
            if number is not None and not math.isfinite(number):
                raise PlannerError(f"the {self.name} inequality's {field} is {number!r}")


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
    Targets for which any of them overflows, divides by zero or is not
    finite and positive raise PlannerError naming them.
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
    check_grid_bits(n, p, max_grid_bits)
    try:
        lam = max(
            2.0 ** (n - 2) / (spec.gamma * (L + spec.delta)),
            3.0 * 4.0 ** (n - 2) * math.pi * M
            / (math.sqrt(5.0) * (L + spec.delta) ** 2 * (1.0 - spec.epsilon)),
        )
        mu = 1.0 / (2.0 * lam * (L + spec.delta))
        nu = (1.0 - spec.epsilon) / (6.0 * math.pi * lam)
        return AlgorithmParams(n=n, nu=nu, lam=lam, mu=mu)
    except (OverflowError, ZeroDivisionError, ValueError) as exc:
        raise PlannerError(f"the targets gamma={spec.gamma!r}, delta={spec.delta!r}, "
                           f"epsilon={spec.epsilon!r} with L={L!r} and M={M!r} cannot be "
                           f"planned: {exc.args[-1]}") from None


def check_inequalities(params: AlgorithmParams, spec: AccuracySpec, L: float, M: float,
                       p: int) -> InequalityReport:
    """Evaluate the five planning inequalities and report value/bound/slack;
    a row that overflows, divides by zero or is not finite raises PlannerError."""
    n, lam, mu = params.n, params.lam, params.mu
    eps = spec.epsilon
    third = (1.0 - eps) / 3.0
    checks = []
    try:
        value = 4.0 ** (n - 1) * math.pi * lam * M * mu * mu / math.sqrt(5.0)
        checks.append(_upper("curvature", value, third,
                             "4^(n-1) pi lam M mu^2 / sqrt(5) <= (1 - eps) / 3"))

        checks.append(_upper("precision", psi_D_norm_bound(params), third,
                             "2 pi lam nu <= (1 - eps) / 3"))

        checks.append(_upper("margin", sampling_radius(params), spec.gamma,
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
    except (OverflowError, ZeroDivisionError) as exc:
        row = ("curvature", "precision", "margin", "bandwidth", "leakage")[len(checks)]
        raise PlannerError(f"the {row} inequality cannot be evaluated: {exc.args[-1]}") from None
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

    psi comes from the range words: when the format has no more words than
    the grid has points, unit_phases and the amplitude scaling run once over
    every decoded word and each point gathers its word's value. decode,
    unit_phases and the scaling are elementwise, so each point gets the bits
    of the direct construction. The words come from quantize and the model,
    never from an operator, so psi stays an independent reference for the
    pipeline. The curvature cap sums squared half-integer offsets, which is
    exact in any order (grid_offset_norms).
    """
    pt = np.asarray(x, dtype=float)
    n, p = params.n, model.p
    if fmt.a1 > params.nu:
        raise ValueError("format step exceeds nu; plan the format from params")
    check_sampling_box(model, pt, params)
    grad = model.gradient(pt)
    fx = model.evaluate(pt)
    lam, mu = params.lam, params.mu
    # The offsets are dropped before f is evaluated over the grid, which
    # builds an array of the same size.
    off = grid_offsets(n, p)
    f_lin = fx + mu * row_dots(off, grad)
    del off
    cap = 0.5 * model.hess_bound * mu * mu * grid_offset_norms(n, p)
    f_true = model.evaluate_points(represented_points(pt, mu, n))
    amp = 1.0 / math.sqrt(f_true.size)
    words = quantize(fmt, f_true)
    eps_N = f_true - f_lin
    eps_D = fmt.decode(words) - f_true
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
    del cap, rounding_bad, curvature_bad, bad
    # Each part is written in place and each input dropped once read. psi
    # comes last: gathered by word from its table, it needs no grid-sized
    # input beyond the words.
    lin_re, lin_im = unit_phases(lam, f_lin)
    del f_lin
    psi_L = _scaled_phases(amp, lin_re, lin_im)
    true_re, true_im = unit_phases(lam, f_true)
    del f_true
    np.subtract(true_re, lin_re, out=lin_re)
    np.subtract(true_im, lin_im, out=lin_im)
    psi_N = _scaled_phases(amp, lin_re, lin_im)
    del lin_re, lin_im
    table = fmt.num_words <= words.size
    q_re, q_im = unit_phases(lam, fmt.decode(np.arange(fmt.num_words) if table else words))
    np.subtract(q_re.take(words) if table else q_re, true_re, out=true_re)
    np.subtract(q_im.take(words) if table else q_im, true_im, out=true_im)
    psi_D = _scaled_phases(amp, true_re, true_im)
    del true_re, true_im
    psi = _scaled_phases(amp, q_re, q_im)
    if table:
        psi = psi.take(words)
    return ErrorDecomposition(n=n, p=p, psi=psi, psi_L=psi_L, psi_N=psi_N, psi_D=psi_D,
                              eps_N=eps_N, eps_D=eps_D)


def _scaled_phases(amp: float, re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """amp * (re + i im), written part by part into one new array."""
    out = np.empty(re.size, dtype=np.complex128)
    np.multiply(amp, re, out=out.real)
    np.multiply(amp, im, out=out.imag)
    return out


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
    of per-axis masks |decode(g_m) - grad_m| < delta (strict). Only the
    window's amplitudes are squared, in index order, so the sum equals that
    of chi.probabilities() over the window bit for bit.
    """
    tg = np.asarray(true_grad, dtype=float)
    if tg.shape != (chi.p,):
        raise ValueError(f"true gradient must have {chi.p} components")
    vals = axis_decode_values(params)
    mask = grid_outer(np.logical_and, [np.abs(vals - v) < delta for v in tg])
    probability = float(np.sum(probabilities(chi.amplitudes[mask])))
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
    check_sampling_box(model, pt, params)
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
    offsets = axis_offsets(n)
    axes = [np.exp(2j * math.pi * lam * mu * float(grad[m]) * offsets) / math.sqrt(size)
            for m in range(p)]
    psi_L = cmath.exp(2j * math.pi * lam * fx) * grid_outer(np.multiply, axes)
    chi_L = qft_amplitudes(psi_L, n, p)

    global_phase = cmath.exp(2j * math.pi * lam * (fx - mu * float(np.sum(grad)) * g0))
    predicted = global_phase * grid_outer(np.multiply, factors)
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
    # Refused here, before any grid work and in plan's order, if a row cannot
    # be evaluated or the grid is over the guard.
    inequalities = check_inequalities(params, spec, model.grad_bound,
                                      model.hess_bound, model.p)
    check_grid_bits(params.n, model.p, max_grid_bits)
    fmt = plan_run_format(model, pt, params, group_mode)
    dec = decompose_state(model, pt, params, fmt)
    # Only psi and psi_L are read after this; the rest is dropped before the
    # pipeline runs.
    psi_N_norm, psi_D_norm = dec.psi_N_norm, dec.psi_D_norm
    reconstruction_error = dec.reconstruction_error
    psi, psi_L = dec.psi, dec.psi_L
    del dec
    chi, oracle_calls = run_pipeline(model, pt, params, group_mode,
                                     phase_variant=phase_variant,
                                     max_grid_bits=max_grid_bits, range_format=fmt)

    aligned = chi.amplitudes
    if phase_variant == "per-bit":
        # The per-bit rotation omits the constant a0 phase, a global factor;
        # restore it before comparing against the reference construction.
        aligned = aligned * cmath.exp(2j * math.pi * params.lam * fmt.a0)
    # psi and psi_L belong to the audit, so each is transformed in place.
    dual_path_error = float(np.max(np.abs(
        aligned - qft_amplitudes(psi, params.n, model.p, out=psi))))

    grad = model.gradient(pt)
    projected_amplitude, success_probability = success_projection(
        chi, grad, spec.delta, params)
    chi_L = GridState(n=params.n, p=model.p,
                      amplitudes=qft_amplitudes(psi_L, params.n, model.p, out=psi_L))
    projected_linear, _ = success_projection(chi_L, grad, spec.delta, params)

    # The factorized leakage audit only makes sense for linear objectives and
    # needs the bandwidth condition, which confines the phase angle to where
    # the cosecant estimate is valid. Outside that, it is skipped (None); the
    # bandwidth inequality check above still records the failure.
    can_leak_check = (model.hess_bound == 0.0
                      and 1.0 / (2.0 * params.lam * params.mu)
                      >= model.grad_bound + spec.delta)
    leakage = (leakage_check(model, pt, params, spec.delta)
               if can_leak_check else None)

    psi_D_bound = psi_D_norm_bound(params)
    psi_N_bound = psi_N_norm_bound(params, model.hess_bound)
    psi_N_asserted = model.p == 1
    linear_floor = (2.0 + spec.epsilon) / 3.0
    triangle_floor = projected_linear - psi_N_norm - psi_D_norm
    guarantee_asserted = inequalities.all_hold

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
