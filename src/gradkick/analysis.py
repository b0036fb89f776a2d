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

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .algorithm import (axis_decode_values, check_sampling_box, plan_run_format,
                        run_pipeline, sampling_radius)
from .models import FunctionModel
from .operators import complex_array, complex_product, unit_phases
from .oracle import DomainError, FixedPointFormat, grid_center, quantize
from .params import AlgorithmParams, PlannerError
from .qft import qft_amplitudes
from .states import (GridState, axis_columns, axis_offsets, blocks, check_grid_bits,
                     grid_blocks, grid_outer, grid_point_of, probabilities,
                     represented_tables)

# Numerical slack applied when deciding whether an inequality "holds": the
# closed-form parameters make the curvature and precision inequalities
# algebraically tight, so their float slacks land within an ulp of zero on
# either side. Raw slacks are always reported unmodified.
DEFAULT_CHECK_TOL = 1e-12

RECONSTRUCTION_TOL = 1e-12
DUAL_PATH_TOL = 1e-10
FACTORIZATION_TOL = 1e-10
LEAKAGE_AMPLITUDE_TOL = 1e-12


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
    tolerance (the margin row none); slack itself is reported raw. slack is
    None when the check could not be evaluated (see note).
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
    3 4^(n-2) pi M / (sqrt(5) (L + delta)^2 (1 - epsilon)), which is 0 at
    M = 0; mu = 1 / (2 lam (L + delta)), less an ulp while rounding leaves
    2^(n-1) mu above gamma or 1 / (2 lam mu) below L + delta, so the margin
    and bandwidth rows hold exactly; nu = (1 - epsilon) / (6 pi lam).
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
        params = AlgorithmParams(n=n, nu=nu, lam=lam, mu=mu)
    except (OverflowError, ZeroDivisionError, ValueError) as exc:
        raise PlannerError(f"the targets gamma={spec.gamma!r}, delta={spec.delta!r}, "
                           f"epsilon={spec.epsilon!r} with L={L!r} and M={M!r} cannot be "
                           f"planned: {exc.args[-1]}") from None
    while (sampling_radius(params) > spec.gamma
           or 1.0 / (2.0 * lam * params.mu) < L + spec.delta):
        params = AlgorithmParams(n=n, nu=nu, lam=lam, mu=math.nextafter(params.mu, 0.0))
    return params


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

        radius = sampling_radius(params)  # exact, as the domain check is
        checks.append(InequalityCheck("margin", radius, spec.gamma, spec.gamma - radius,
                                      radius <= spec.gamma, "2^(n-1) mu <= gamma"))

        checks.append(_bandwidth_row(params, L, spec.delta))

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


def _bandwidth_row(params: AlgorithmParams, L: float, delta: float) -> InequalityCheck:
    """The bandwidth inequality, which leakage_check also needs to hold."""
    value = 1.0 / (2.0 * params.lam * params.mu)
    slack = value - (L + delta)
    return InequalityCheck(name="bandwidth", value=value, bound=L + delta, slack=slack,
                           holds=slack >= -DEFAULT_CHECK_TOL, note="1 / (2 lam mu) >= L + delta")


def _upper(name: str, value: float, bound: float, note: str) -> InequalityCheck:
    slack = bound - value
    return InequalityCheck(name=name, value=value, bound=bound, slack=slack,
                           holds=slack >= -DEFAULT_CHECK_TOL, note=note)


# Each command's steps beside the grid guard and the box, which all run (plan
# only notes a box outside the domain). run_pipeline and verify_theorem take
# run's and verify's, decompose_state and leakage_check bench's.
STEPS = {"plan": ("inequalities",), "run": ("box", "format"),
         "verify": ("inequalities", "box", "format"), "bench": ("box",)}


class Experiment(NamedTuple):
    """What plan_experiment's steps gave, None for a step not run: grid is
    the guard's (bits, size, bytes) and box_note plan's note on the box."""

    model: FunctionModel
    x: np.ndarray
    params: AlgorithmParams
    inequalities: InequalityReport | None
    grid: tuple[int, int, int]
    box_note: str | None
    range_format: FixedPointFormat | None


def plan_experiment(command: str, model: FunctionModel, x: Sequence[float],
                    params: AlgorithmParams | None = None, spec: AccuracySpec | None = None,
                    *, max_grid_bits: int | None = None, group_mode: str = "modular",
                    range_format: FixedPointFormat | None = None) -> Experiment:
    """Run command's steps, STEPS[command], in the one order that every
    command and library entry point shares; each refuses the config when:

    1. the model (resolved by the caller) and x: x lacks one value per axis;
    2. the params, explicit or planned from spec: no grid meets the targets;
    3. the planning inequalities: a row cannot be evaluated;
    4. the grid guard: the grid is over max_grid_bits;
    5. the sampling box x +- 2^(n-1) mu: it leaves the domain;
    6. the range format, unless given: it needs more than 43 bits.
    """
    steps = STEPS[command]
    pt = np.asarray(x, dtype=float)
    if pt.shape != (model.p,):
        raise ValueError(f"x must have {model.p} components")
    L, M, p = model.grad_bound, model.hess_bound, model.p
    if params is None:
        params = select_parameters(spec, L, M, p, max_grid_bits)
    inequalities = check_inequalities(params, spec, L, M, p) if "inequalities" in steps else None
    grid = check_grid_bits(params.n, p, max_grid_bits)
    box_note = None
    try:
        check_sampling_box(model, pt, params)
    except DomainError as exc:
        if "box" in steps:
            raise
        box_note = str(exc)
    if "format" in steps:
        if range_format is None:
            range_format = plan_run_format(model, pt, params, group_mode)
        elif range_format.group_mode != group_mode:
            raise ValueError("range_format group_mode disagrees with group_mode argument")
    return Experiment(model, pt, params, inequalities, grid, box_note, range_format)


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
    are the per-point phase-argument errors. decompose_block gives the split
    over one block of grid points, whose arrays are the whole grid's read at
    those points.
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
        return math.sqrt(_squared_norm(self.psi_N))

    @property
    def psi_D_norm(self) -> float:
        return math.sqrt(_squared_norm(self.psi_D))

    @property
    def reconstruction_error(self) -> float:
        """max |psi_L + psi_N + psi_D - psi|, from real squares. Complex
        addition rounds each part on its own, so the sums are formed on the
        real and imaginary parts, in place."""
        squares = []
        for part in ("real", "imag"):
            total = np.add(getattr(self.psi_L, part), getattr(self.psi_N, part))
            total += getattr(self.psi_D, part)
            total -= getattr(self.psi, part)
            squares.append(np.multiply(total, total, out=total))
        return math.sqrt(float(np.max(np.add(*squares, out=squares[0]))))


class AuditTables(NamedTuple):
    """What decompose_block reads that no block changes, built once per
    audit by audit_tables: per-axis tables whose grids give the represented
    points, the linear part's offset terms and the squared offsets, and,
    when the format has no more words than the grid has points, every
    word's decoded value, phase and psi amplitude, which each point gathers
    by its word (None otherwise)."""

    points: list[np.ndarray]
    linear: list[np.ndarray]
    squares: list[np.ndarray]
    fx: float
    cap_scale: float
    amp: float
    decoded: np.ndarray | None
    phases: tuple[np.ndarray, np.ndarray] | None
    psi: np.ndarray | None


def audit_tables(model: FunctionModel, pt: np.ndarray, params: AlgorithmParams,
                 fmt: FixedPointFormat) -> AuditTables:
    """The tables of decompose_block for a planned pt (plan_experiment); a
    format step above nu is refused here, before any grid work."""
    n, p = params.n, model.p
    if fmt.a1 > params.nu:
        raise ValueError("format step exceeds nu; plan the format from params")
    mu = params.mu
    fx = model.evaluate(pt)
    linear = _linear_tables(model.gradient(pt), n)
    squares = [np.square(axis_offsets(n))] * p
    amp = 1.0 / math.sqrt(1 << (n * p))
    decoded = phases = psi = None
    if fmt.num_words <= 1 << (n * p):
        decoded = fmt.decode(np.arange(fmt.num_words))
        phases = unit_phases(params.lam, decoded)
        psi = _scaled_phases(amp, *phases)
    return AuditTables(represented_tables(pt, mu, n), linear, squares, fx,
                       0.5 * model.hess_bound * mu * mu, amp, decoded, phases, psi)


def decompose_block(model: FunctionModel, params: AlgorithmParams, fmt: FixedPointFormat,
                    tables: AuditTables, block: slice) -> ErrorDecomposition:
    """The error split over one aligned block of grid points
    (states.grid_blocks), checking both per-point error bounds there.

    Raises BoundViolation, naming the block's first violating grid point,
    if a rounding error exceeds nu or a curvature error exceeds M mu^2 |h -
    g0|^2 / 2. Every value is elementwise, and the linear part and the
    curvature cap are outer sums of per-axis tables whose terms are added
    in axis order, as models.row_dots adds them (the cap's sums are exact
    in any order, see states.grid_offset_norms), so each point gets the
    bits it gets in the whole grid's split. psi's words come from quantize
    and the model, never from an operator, so psi stays an independent
    reference for the pipeline.
    """
    n, p, lam = params.n, model.p, params.lam
    f_true = model.evaluate_points(axis_columns(block, n, p, tables.points))
    words = quantize(fmt, f_true)
    f_lin = _linear_phase_argument(tables.fx, tables.linear, params.mu, block)
    eps_N = f_true - f_lin
    eps_D = (fmt.decode(words) if tables.decoded is None
             else tables.decoded.take(words)) - f_true
    cap = tables.cap_scale * grid_outer(np.add, tables.squares, block)
    rounding_bad = np.abs(eps_D) > params.nu
    curvature_bad = np.abs(eps_N) > cap + 1e-12 * np.maximum(1.0, cap)
    bad = np.flatnonzero(rounding_bad | curvature_bad)
    if bad.size:
        i = int(bad[0])
        h = grid_point_of(block.start + i, n, p)
        if rounding_bad[i]:
            raise BoundViolation(
                f"rounding error {float(eps_D[i])!r} above nu={params.nu!r} at grid {h}"
            )
        raise BoundViolation(
            f"curvature error {float(eps_N[i])!r} above M mu^2 |h-g0|^2 / 2 = "
            f"{float(cap[i])!r} at grid {h}"
        )
    del cap, rounding_bad, curvature_bad, bad
    # Each part is written in place and each input dropped once read.
    lin_re, lin_im = unit_phases(lam, f_lin)
    del f_lin
    psi_L = _scaled_phases(tables.amp, lin_re, lin_im)
    true_re, true_im = unit_phases(lam, f_true)
    del f_true
    np.subtract(true_re, lin_re, out=lin_re)
    np.subtract(true_im, lin_im, out=lin_im)
    psi_N = _scaled_phases(tables.amp, lin_re, lin_im)
    del lin_re, lin_im
    # psi comes last: gathered by word from its table, it needs no
    # block-sized input beyond the words.
    table = tables.psi is not None
    q_re, q_im = tables.phases if table else unit_phases(lam, fmt.decode(words))
    np.subtract(q_re.take(words) if table else q_re, true_re, out=true_re)
    np.subtract(q_im.take(words) if table else q_im, true_im, out=true_im)
    psi_D = _scaled_phases(tables.amp, true_re, true_im)
    del true_re, true_im
    psi = tables.psi.take(words) if table else _scaled_phases(tables.amp, q_re, q_im)
    return ErrorDecomposition(n=n, p=p, psi=psi, psi_L=psi_L, psi_N=psi_N, psi_D=psi_D,
                              eps_N=eps_N, eps_D=eps_D)


def decompose_state(model: FunctionModel, x: Sequence[float], params: AlgorithmParams,
                    fmt: FixedPointFormat) -> ErrorDecomposition:
    """Build the three-part error split over the whole grid, checking both
    per-point error bounds: decompose_block with the grid as its one block.

    Raises BoundViolation if a rounding error exceeds nu or a curvature error
    exceeds M mu^2 |h - g0|^2 / 2; both hold by construction for truthful
    models, so a violation means a bug (or a lying hess_bound). x must pass
    bench's steps (plan_experiment).
    """
    pt = plan_experiment("bench", model, x, params).x
    tables = audit_tables(model, pt, params, fmt)
    return decompose_block(model, params, fmt, tables, slice(0, 1 << (params.n * model.p)))


def _linear_tables(grad: np.ndarray, n: int) -> list[np.ndarray]:
    """(g - g0) df/dx_m for every single-axis coordinate g, one table per axis m."""
    off = axis_offsets(n)
    return [off * g for g in grad]


def _linear_phase_argument(fx: float, linear: list[np.ndarray], mu: float,
                           block: slice | None = None) -> np.ndarray:
    """psi_L's phase argument f(x) + mu (h - g0) . grad f(x) at each grid
    point h (of the block, if given), from _linear_tables: the dot product's
    terms are added in axis order, as models.row_dots adds them."""
    return fx + mu * grid_outer(np.add, linear, block)


def _squared_norm(z: np.ndarray) -> float:
    """Squared 2-norm of a complex array, as np.linalg.norm sums it before
    its square root: the real parts' dot product plus the imaginary parts'."""
    return z.real.dot(z.real) + z.imag.dot(z.imag)


def _max_abs_difference(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b| from real squares (probabilities), a block at a time."""
    return math.sqrt(max(float(np.max(probabilities(a[s] - b[s])))
                         for s in blocks(a.size, a.itemsize)))


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
    of chi.probabilities() over the window bit for bit. chi may also be one
    axis's state (p = 1, one gradient component): verify_theorem projects the
    linear part that way, axis by axis.
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


def geometric_sum(theta: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of sum_k exp(2 pi i theta k), k < size, at
    each angle: exp(i pi (size - 1) d) sin(pi size d) / sin(pi d) with
    d = theta - rint(theta), which keeps the phase near an integer. Where
    sin(pi d) is zero or subnormal its rounding is not relative (4.333 for
    4 at d = 5e-324), so the quotient is its limit, size."""
    d = theta - np.rint(theta)
    re, im = unit_phases(0.5 * (size - 1), d)
    denominator = np.sin(np.pi * d)
    limit = np.abs(denominator) < np.finfo(float).tiny
    ratio = np.where(limit, float(size),
                     np.sin(np.pi * size * d) / np.where(limit, 1.0, denominator))
    return re * ratio, im * ratio


def leakage_check(model: FunctionModel, x: Sequence[float], params: AlgorithmParams,
                  delta: float) -> LeakageReport:
    """Check the per-axis cosecant bound and the tensor factorization.

    Requires a linear model (the pre-transform state then equals its linear
    part exactly) and the bandwidth row 1 / (2 lam mu) >= L + delta to hold
    (_bandwidth_row, within DEFAULT_CHECK_TOL, as in the planning report);
    x must pass bench's steps (plan_experiment) unless it is the Experiment
    that passed verify's. Both are verified before the bound is applied,
    because together they confine the phase angle to where the cosecant
    estimate is valid. All p axes' factors come from one geometric_sum
    call, and every value from real arithmetic, so none depends on numpy's
    SIMD path.
    """
    if model.hess_bound != 0.0:
        raise ValueError("leakage check requires a linear model (hess_bound 0)")
    pt = (x if isinstance(x, Experiment) else plan_experiment("bench", model, x, params)).x
    n, p, lam, mu = params.n, model.p, params.lam, params.mu
    if not _bandwidth_row(params, model.grad_bound, delta).holds:
        raise ValueError("bandwidth precondition 1 / (2 lam mu) >= L + delta fails")
    grad = model.gradient(pt)
    fx = model.evaluate(pt)
    size = 1 << n

    # Per-axis factors by the geometric sum, one row per axis.
    factor_re, factor_im = (v / size for v in geometric_sum(
        np.arange(size) / size + lam * mu * grad[:, None], size))

    # Independent dense route: transform the linear-phase state directly.
    psi_L = _scaled_phases(1.0 / math.sqrt(1 << (n * p)), *unit_phases(
        lam, _linear_phase_argument(fx, _linear_tables(grad, n), mu)))
    chi_L = qft_amplitudes(psi_L, n, p, out=psi_L)

    re, im = unit_phases(lam, fx - mu * float(np.sum(grad)) * grid_center(n))
    for m in range(p):
        re, im = complex_product(re[..., None], im[..., None], factor_re[m], factor_im[m])
    factorization_error = _max_abs_difference(chi_L, complex_array(re, im).reshape(-1))

    theta0 = math.pi * lam * mu * delta
    bound = 1.0 / (float(size) * abs(math.sin(theta0)))
    outside = np.abs(axis_decode_values(params) - grad[:, None]) >= delta
    per_axis_max = tuple(float(v) for v in np.sqrt(np.max(
        np.where(outside, factor_re * factor_re + factor_im * factor_im, 0.0), axis=1)))

    return LeakageReport(
        bound=bound,
        vacuous=bound >= 1.0,
        per_axis_max=per_axis_max,
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
    failures lists the asserted checks that did not hold, each entry led by
    its stable code and a colon: reconstruction, dual_path, psi_D_bound,
    psi_N_bound, triangle, leakage_amplitude, leakage_factorization,
    linear_floor or epsilon_floor. The projection floors are asserted only
    when all five planning inequalities hold (guarantee_asserted), since the
    guarantee promises nothing otherwise.
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
                   max_grid_bits: int | None = None,
                   range_format: FixedPointFormat | None = None) -> TheoremReport:
    """Run the pipeline and the full audit, and collect a TheoremReport.

    verify's steps (plan_experiment) refuse a config before any grid work,
    and plan the params and the range format when none are given. The audit
    always measures everything; what it asserts (and lists under failures)
    is the set of checks that must hold unconditionally, plus the
    projection floors when the planning inequalities all hold.

    It holds one grid-sized reference, psi, and transforms it in place. psi_L
    is a global phase times a product of one-axis states a_m(g) =
    exp(2 pi i lam mu df/dx_m (g - g0)) / 2^(n/2), and the window is a box,
    so projected_linear is the square root of the product, in axis order, of
    the a_m's window probabilities, each from success_projection.
    """
    experiment = plan_experiment("verify", model, x, params, spec,
                                 max_grid_bits=max_grid_bits, group_mode=group_mode,
                                 range_format=range_format)
    pt, params, range_format = experiment.x, experiment.params, experiment.range_format
    # The split is reduced a block at a time, so psi is its only grid-sized
    # array. A block that breaks a per-point bound is refused only after f
    # is read and quantized at every later block, as over the whole grid.
    n, p = params.n, model.p
    tables = audit_tables(model, pt, params, range_format)
    psi = np.empty(1 << (n * p), dtype=np.complex128)
    psi_N_squared = psi_D_squared = reconstruction_error = 0.0
    parts = grid_blocks(n, p)
    for block in parts:
        try:
            dec = decompose_block(model, params, range_format, tables, block)
        except BoundViolation:
            for later in parts:
                quantize(range_format,
                         model.evaluate_points(axis_columns(later, n, p, tables.points)))
            raise
        psi[block] = dec.psi
        psi_N_squared += _squared_norm(dec.psi_N)
        psi_D_squared += _squared_norm(dec.psi_D)
        reconstruction_error = max(reconstruction_error, dec.reconstruction_error)
        del dec
    del tables
    psi_N_norm, psi_D_norm = math.sqrt(psi_N_squared), math.sqrt(psi_D_squared)
    chi, oracle_calls = run_pipeline(model, pt, params, group_mode,
                                     phase_variant=phase_variant,
                                     max_grid_bits=max_grid_bits,
                                     range_format=range_format)

    if phase_variant == "per-bit":
        # The per-bit rotation omits the global a0 phase: take it off psi.
        psi.real, psi.imag = complex_product(psi.real, psi.imag,
                                             *unit_phases(-params.lam, range_format.a0))
    # psi belongs to the audit, so it is transformed in place.
    dual_path_error = _max_abs_difference(
        chi.amplitudes, qft_amplitudes(psi, params.n, model.p, out=psi))

    grad = model.gradient(pt)
    projected_amplitude, success_probability = success_projection(
        chi, grad, spec.delta, params)
    axes = _scaled_phases(1.0 / math.sqrt(1 << params.n), *unit_phases(
        params.lam, np.outer(params.mu * grad, axis_offsets(params.n)).reshape(-1)))
    projected_linear = math.sqrt(math.prod(
        success_projection(GridState(params.n, 1, qft_amplitudes(row, params.n, 1, out=row)),
                           [g], spec.delta, params)[1]
        for row, g in zip(axes.reshape(model.p, -1), grad)))

    # A linear f gets the leakage audit exactly when the bandwidth row holds.
    leakage = (leakage_check(model, experiment, params, spec.delta) if model.hess_bound == 0.0
               and experiment.inequalities.checks[3].holds else None)

    psi_D_bound = psi_D_norm_bound(params)
    psi_N_bound = psi_N_norm_bound(params, model.hess_bound)
    psi_N_asserted = model.p == 1
    linear_floor = (2.0 + spec.epsilon) / 3.0
    triangle_floor = projected_linear - psi_N_norm - psi_D_norm
    guarantee_asserted = experiment.inequalities.all_hold

    failures: list[str] = []
    if reconstruction_error > RECONSTRUCTION_TOL:
        failures.append(f"reconstruction: error {reconstruction_error!r} "
                        f"above {RECONSTRUCTION_TOL}")
    if dual_path_error > DUAL_PATH_TOL:
        failures.append(f"dual_path: pipeline/reference disagreement {dual_path_error!r} "
                        f"above {DUAL_PATH_TOL}")
    if psi_D_norm > psi_D_bound + DEFAULT_CHECK_TOL:
        failures.append(f"psi_D_bound: psi_D norm {psi_D_norm!r} above bound {psi_D_bound!r}")
    if psi_N_asserted and psi_N_norm > psi_N_bound + DEFAULT_CHECK_TOL:
        failures.append(f"psi_N_bound: psi_N norm {psi_N_norm!r} above bound {psi_N_bound!r}")
    if projected_amplitude < triangle_floor - DUAL_PATH_TOL:
        failures.append(f"triangle: projected amplitude {projected_amplitude!r} "
                        f"below {triangle_floor!r}")
    if leakage is not None and not leakage.amplitude_ok:
        failures.append(f"leakage_amplitude: out-of-window amplitude "
                        f"{max(leakage.per_axis_max)!r} above bound {leakage.bound!r}")
    if leakage is not None and not leakage.factorization_ok:
        failures.append(f"leakage_factorization: factorization error "
                        f"{leakage.factorization_error!r} above {FACTORIZATION_TOL}")
    if guarantee_asserted:
        if projected_linear < linear_floor - DEFAULT_CHECK_TOL:
            failures.append(f"linear_floor: linear projection {projected_linear!r} below "
                            f"floor {linear_floor!r}")
        if projected_amplitude < spec.epsilon - DEFAULT_CHECK_TOL:
            failures.append(f"epsilon_floor: projected amplitude {projected_amplitude!r} "
                            f"below epsilon {spec.epsilon!r}")

    return TheoremReport(
        params=params,
        accuracy=spec,
        p=model.p,
        grad_bound=model.grad_bound,
        hess_bound=model.hess_bound,
        true_gradient=tuple(float(v) for v in grad),
        oracle_calls=oracle_calls,
        inequalities=experiment.inequalities,
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
