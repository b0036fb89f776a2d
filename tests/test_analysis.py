"""Planner, error decomposition, leakage bound, and the theorem audit."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradkick import (AccuracySpec, DomainBox, FixedPointFormat, FunctionModel,
                      GridState, TheoremReport, check_inequalities,
                      classical_baseline, decompose_state, leakage_check,
                      linear_model, quadratic_model, select_parameters,
                      success_projection, verify_theorem)
from gradkick.algorithm import plan_run_format
from gradkick.analysis import (BoundViolation, PlannerError, geometric_sum,
                               psi_D_norm_bound, psi_N_norm_bound)
from gradkick.config import from_tree, record_json, to_tree
from gradkick.oracle import DomainError
from gradkick.params import AlgorithmParams

WORKED = AccuracySpec(gamma=1.0, delta=0.5, epsilon=0.5)


def worked_params():
    return select_parameters(WORKED, L=1.0, M=1.0, p=1)


def test_select_parameters_worked_example_exact():
    params = worked_params()
    assert params.n == 4
    assert params.lam == 59.94508570488086
    assert params.mu == 0.005560644870446696
    assert params.nu == 0.0004425020589550919


def test_check_inequalities_worked_example_slacks():
    report = check_inequalities(worked_params(), WORKED, L=1.0, M=1.0, p=1)
    assert report.all_hold
    by_name = {c.name: c for c in report.checks}
    assert by_name["curvature"].slack == pytest.approx(2.7755575615628914e-17, abs=1e-18)
    assert by_name["precision"].slack == pytest.approx(-2.7755575615628914e-17, abs=1e-18)
    assert by_name["precision"].holds  # negative by one float tie, inside tol
    assert by_name["margin"].slack == pytest.approx(0.9555148410364265, rel=1e-12)
    assert by_name["bandwidth"].slack == 0.0
    assert by_name["leakage"].slack == pytest.approx(0.21108319357026595, rel=1e-12)


def test_planner_tightening_delta_grows_the_grid():
    p1 = select_parameters(AccuracySpec(1.0, 0.5, 0.5), 1.0, 1.0, 1)
    p2 = select_parameters(AccuracySpec(1.0, 0.05, 0.5), 1.0, 1.0, 1)
    assert p2.n > p1.n
    assert p2.nu < p1.nu
    for spec, params in ((AccuracySpec(1.0, 0.05, 0.5), p2),):
        assert check_inequalities(params, spec, 1.0, 1.0, 1).all_hold


def test_planner_rejects_oversized_grid():
    with pytest.raises(PlannerError, match="max_grid_bits"):
        select_parameters(AccuracySpec(1.0, 1e-6, 0.99), 1.0, 1.0, 3,
                          max_grid_bits=8)


def test_planner_handles_linear_objectives():
    # M = 0 removes the curvature branch; everything must still hold.
    spec = AccuracySpec(gamma=2.0, delta=0.25, epsilon=0.5)
    params = select_parameters(spec, L=3.0, M=0.0, p=2)
    report = check_inequalities(params, spec, 3.0, 0.0, 2)
    assert report.all_hold
    assert math.isfinite(params.lam) and params.lam > 0


EXACT_BOX = DomainBox.cube(1, 4.0)


def test_decompose_state_exact_linear_case():
    # nu = 2^-4 and mu = 2^-3 make every grid value representable exactly,
    # so both error branches vanish identically.
    params = AlgorithmParams(n=3, nu=0.0625, lam=1.0, mu=0.125)
    model = linear_model([-1.0], EXACT_BOX)
    fmt = plan_run_format(model, [0.0], params)
    dec = decompose_state(model, [0.0], params, fmt)
    assert dec.psi_D_norm == 0.0
    assert dec.psi_N_norm == 0.0
    assert dec.reconstruction_error == 0.0
    assert np.all(dec.eps_N == 0.0)
    assert np.all(dec.eps_D == 0.0)


def test_decompose_state_rejects_coarse_format():
    params = AlgorithmParams(n=3, nu=0.0625, lam=1.0, mu=0.125)
    model = linear_model([-1.0], EXACT_BOX)
    coarse = FixedPointFormat(bits=5, a0=-1.0, a1=0.125)
    with pytest.raises(ValueError, match="nu"):
        decompose_state(model, [0.0], params, coarse)


def test_decompose_state_catches_lying_hessian_bound():
    quad = quadratic_model([1.0], [[2.0]], EXACT_BOX)
    liar = FunctionModel(p=1, evaluate=quad.evaluate, gradient=quad.gradient,
                         grad_bound=quad.grad_bound, hess_bound=0.0,
                         domain_box=EXACT_BOX)
    params = AlgorithmParams(n=3, nu=1e-6, lam=1.0, mu=0.125)
    fmt = plan_run_format(liar, [0.0], params)
    with pytest.raises(BoundViolation, match="curvature error"):
        decompose_state(liar, [0.0], params, fmt)


def test_norm_bound_formulas():
    params = AlgorithmParams(n=4, nu=0.001, lam=2.0, mu=0.01)
    assert psi_D_norm_bound(params) == pytest.approx(2.0 * math.pi * 2.0 * 0.001)
    assert psi_N_norm_bound(params, 3.0) == pytest.approx(
        64.0 * math.pi * 2.0 * 3.0 * 1e-4 / math.sqrt(5.0))


def test_success_projection_hand_case():
    # n=2, scale 1: decode values per axis are [0, -1, +2, +1]
    params = AlgorithmParams(n=2, nu=1e-9, lam=1.0, mu=0.25)
    chi = GridState(n=2, p=1, amplitudes=np.full(4, 0.5, dtype=complex))
    norm, prob = success_projection(chi, [0.0], 1.5, params)
    assert prob == pytest.approx(0.75)
    assert norm == pytest.approx(math.sqrt(0.75))
    _, prob_tight = success_projection(chi, [0.0], 1.0, params)
    assert prob_tight == pytest.approx(0.25)  # strict window excludes -1, +1


def test_success_projection_rejects_wrong_gradient_shape():
    params = AlgorithmParams(n=2, nu=1e-9, lam=1.0, mu=0.25)
    chi = GridState(n=2, p=1, amplitudes=np.full(4, 0.5, dtype=complex))
    with pytest.raises(ValueError, match="components"):
        success_projection(chi, [0.0, 0.0], 1.0, params)


def test_leakage_check_preconditions():
    params = AlgorithmParams(n=3, nu=1e-9, lam=1.0, mu=0.125)
    quad = quadratic_model([0.0], [[1.0]], EXACT_BOX)
    with pytest.raises(ValueError, match="linear"):
        leakage_check(quad, [0.0], params, delta=0.5)
    lin = linear_model([1.0], EXACT_BOX)
    wide = AlgorithmParams(n=3, nu=1e-9, lam=4.0, mu=0.125)
    with pytest.raises(ValueError, match="bandwidth"):
        leakage_check(lin, [0.0], wide, delta=0.5)  # 1/(2 lam mu) = 1 < 1.5
    cramped = linear_model([1.0], DomainBox.cube(1, 0.1))
    with pytest.raises(DomainError):
        leakage_check(cramped, [0.0], params, delta=0.5)


def test_leakage_check_bound_holds_on_plain_linear_case():
    params = AlgorithmParams(n=4, nu=1e-9, lam=2.0, mu=0.125)
    lin = linear_model([0.7], DomainBox.cube(1, 2.0))
    report = leakage_check(lin, [0.0], params, delta=0.5)
    assert not report.vacuous
    assert report.amplitude_ok
    assert report.factorization_ok
    assert all(v <= report.bound + 1e-12 for v in report.per_axis_max)


def reduced_sum(d: float, size: int) -> complex:
    """sum_k exp(2 pi i d k) over k < size, term by term: the geometric sum
    at any angle an integer away from d."""
    angles = [2.0 * math.pi * d * k for k in range(size)]
    return complex(math.fsum(map(math.cos, angles)), math.fsum(map(math.sin, angles)))


@given(d=st.floats(1e-12, 1e-5), sign=st.sampled_from([-1.0, 1.0]),
       n=st.integers(2, 8), k=st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_geometric_sum_keeps_its_phase_near_an_integer(d, sign, n, k):
    size = 1 << n
    theta = k + sign * d
    exact = reduced_sum(theta - k, size)
    assert abs(geometric_sum(theta, size) - exact) <= 1e-13 * size


@given(d=st.floats(1e-12, 1e-5), sign=st.sampled_from([-1.0, 1.0]),
       n=st.integers(2, 8), p=st.integers(1, 3), near=st.integers(0, 1))
@settings(max_examples=60, deadline=None)
def test_leakage_factorization_holds_near_integer_phases(d, sign, n, p, near):
    # With lam mu = 2^-n, axis m's phase at grid index g is
    # (g + c_m) / 2^n; c_m = near + sign d 2^n puts it d from an integer,
    # at g = 0 (near 0) or g = 2^n - 1 (near 1).
    n = min(n, 12 // p)
    size = 1 << n
    params = AlgorithmParams(n=n, nu=1e-9, lam=1.0, mu=1.0 / size)
    model = linear_model([near + sign * d * size] * p, DomainBox.cube(p, 1.0))
    report = leakage_check(model, [0.0] * p, params, delta=0.5)
    assert report.factorization_error <= 1e-12
    assert report.factorization_ok


def test_classical_baseline_counts_and_linear_exactness():
    model = linear_model([2.0, -3.0], DomainBox.cube(2, 1.0))
    est, calls = classical_baseline(model, [0.0, 0.0], step=0.25)
    assert calls == 3  # p + 1 one-sided
    assert np.allclose(est, [2.0, -3.0])
    with pytest.raises(ValueError, match="step"):
        classical_baseline(model, [0.0, 0.0], step=0.0)
    hugged = linear_model([1.0], DomainBox.cube(1, 0.1))
    with pytest.raises(DomainError):
        classical_baseline(hugged, [0.0], step=0.5)


# Half-width 1 makes the model's own derivative bounds equal the planner
# inputs (L = M = 1), so the audit asserts the guarantee.
QUAD_BOX = DomainBox.cube(1, 1.0)


def test_verify_theorem_quadratic_frozen_audit():
    model = quadratic_model([0.0], [[1.0]], QUAD_BOX)
    report = verify_theorem(model, [0.0], WORKED, worked_params())
    assert report.ok
    assert report.oracle_calls == 2
    assert report.guarantee_asserted
    assert report.psi_N_asserted
    assert report.psi_N_norm == pytest.approx(0.1650672422678015, rel=1e-12)
    assert report.psi_N_norm <= report.psi_N_bound
    assert report.psi_N_bound == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert report.psi_D_norm == pytest.approx(0.04384392520300302, rel=1e-12)
    assert report.projected_amplitude == pytest.approx(0.9990889929668544, rel=1e-12)
    assert report.success_probability == pytest.approx(0.9981788158675232, rel=1e-12)
    assert report.projected_linear == 1.0
    assert report.reconstruction_error <= 1e-12
    assert report.dual_path_error <= 1e-10
    assert report.success_probability >= WORKED.epsilon
    assert report.leakage is None  # curved objective, leakage path not valid


def test_verify_theorem_negative_control_reports_without_asserting():
    # Inflating nu breaks the precision inequality; the audit must record
    # that and drop the floor assertions, not fail.
    base = worked_params()
    bloated = AlgorithmParams(n=base.n, nu=base.nu * 1000.0, lam=base.lam,
                              mu=base.mu)
    model = quadratic_model([0.0], [[1.0]], QUAD_BOX)
    report = verify_theorem(model, [0.0], WORKED, bloated)
    assert not report.guarantee_asserted
    assert [c.name for c in report.inequalities.checks if not c.holds] == ["precision"]
    assert report.failures == ()
    assert report.ok


def test_verify_theorem_runs_leakage_path_for_linear_models():
    spec = AccuracySpec(gamma=4.0, delta=0.5, epsilon=0.5)
    model = linear_model([0.5], DomainBox.cube(1, 8.0))
    report = verify_theorem(model, [0.0], spec)
    assert report.ok
    assert report.guarantee_asserted
    assert report.leakage is not None
    assert report.leakage.amplitude_ok
    assert report.psi_N_norm == 0.0


def test_theorem_report_round_trips_through_dict():
    model = quadratic_model([0.0], [[1.0]], QUAD_BOX)
    report = verify_theorem(model, [0.0], WORKED, worked_params())
    text = record_json(to_tree(report))
    clone = from_tree(TheoremReport, json.loads(text), "theorem")
    assert clone == report
    assert record_json(to_tree(clone)) == text
