"""The array kernel against a term-by-term reference, plus its exactness,
evaluation-count and memory contracts."""

import cmath
import itertools
import tracemalloc

import numpy as np
import pytest

import gradkick.states as states
from gradkick import (DomainBox, DomainLabel, FunctionModel, OracleCallCounter,
                      ResidualEntanglementError, SparseTripartiteState,
                      apply_phase_rotation, apply_qft, apply_u_f,
                      apply_u_f_inverse, apply_u_plus, collapse_to_grid,
                      linear_model, plan_run_format, qft_amplitudes,
                      quadratic_model, run_pipeline, sinusoidal_model)
from gradkick.params import AlgorithmParams


def reference_chi(model, x, params, fmt, variant):
    """The seven steps composed term by term with Python ints and cmath.

    A term is [shift, word, grid, amplitude], shift None for BASE. Only the
    two dense grid transforms use the package (qft_amplitudes).
    """
    n, p = params.n, model.p
    size = 1 << (n * p)
    g0 = float(1 << (n - 1)) - 0.5
    grids = list(itertools.product(range(1 << n), repeat=p))
    start = np.zeros(size, dtype=complex)
    start[0] = 1.0
    terms = [[None, 0, g, complex(a)]
             for g, a in zip(grids, qft_amplitudes(start, n, p))]

    def shift(t):
        if t[0] is None:
            t[0] = t[2]
        elif t[0] == t[2]:
            t[0] = None

    def oracle(t):
        point = np.asarray(x, dtype=float)
        if t[0] is not None:
            point = point + params.mu * (np.asarray(t[0], dtype=float) - g0)
        word = round((float(model.evaluate(point)) - fmt.a0) / fmt.a1)
        assert 0 <= word < fmt.num_words
        return word

    mask = fmt.num_words - 1
    for t in terms:
        shift(t)
    for t in terms:
        w = oracle(t)
        t[1] = t[1] ^ w if fmt.group_mode == "xor" else (t[1] + w) & mask
    for t in terms:
        if variant == "direct":
            t[3] = t[3] * cmath.exp(2j * cmath.pi * params.lam
                                    * (fmt.a0 + fmt.a1 * t[1]))
        else:
            for k in range(fmt.bits):
                if (t[1] >> k) & 1:
                    t[3] = t[3] * cmath.exp(2j * cmath.pi * params.lam * fmt.a1
                                            * float(1 << k))
    for t in terms:
        w = oracle(t)
        t[1] = t[1] ^ w if fmt.group_mode == "xor" else (t[1] - w) & mask
    for t in terms:
        shift(t)
    assert all(t[0] is None and t[1] == 0 for t in terms)
    dense = np.array([t[3] for t in terms])  # already in grid-index order
    return qft_amplitudes(dense, n, p)


def built_in(kind, p):
    box = DomainBox.cube(p, 4.0)
    a = [0.7, -1.3, 0.45][:p]
    if kind == "linear":
        return linear_model(a, box)
    if kind == "quadratic":
        H = np.array([[1.1, 0.3, -0.2], [0.3, -0.8, 0.5], [-0.2, 0.5, 0.6]])[:p, :p]
        return quadratic_model(a, H.tolist(), box)
    return sinusoidal_model(-0.9, [1.3, -0.6, 0.8][:p], box)


@pytest.mark.parametrize("kind", ["linear", "quadratic", "sinusoidal"])
@pytest.mark.parametrize("p,n", [(1, 4), (2, 3), (3, 2)])
@pytest.mark.parametrize("group_mode", ["modular", "xor"])
@pytest.mark.parametrize("variant", ["direct", "per-bit"])
def test_pipeline_chi_bit_identical_to_term_reference(kind, p, n, group_mode, variant):
    model = built_in(kind, p)
    x = [0.2, -0.15, 0.1][:p]
    params = AlgorithmParams(n=n, nu=1e-4, lam=0.37, mu=0.4 / (1 << n))
    fmt = plan_run_format(model, x, params, group_mode)
    chi, calls = run_pipeline(model, x, params, group_mode, phase_variant=variant,
                              range_format=fmt)
    assert calls == 2
    assert np.array_equal(chi.amplitudes, reference_chi(model, x, params, fmt, variant))


def counting_model(base, drift_after=None, drift=0.0):
    """base's evaluate with a call log and no batch evaluator; past
    drift_after calls every value moves by drift."""
    log = []

    def evaluate(y):
        log.append(1)
        late = drift_after is not None and len(log) > drift_after
        return base.evaluate(y) + (drift if late else 0.0)

    model = FunctionModel(p=base.p, evaluate=evaluate, gradient=base.gradient,
                          grad_bound=base.grad_bound, hess_bound=base.hess_bound,
                          domain_box=base.domain_box)
    return model, log


PARAMS_2D = AlgorithmParams(n=3, nu=1e-3, lam=0.5, mu=0.05)
BASE_2D = quadratic_model([0.4, -0.3], [[1.0, 0.2], [0.2, -0.5]], DomainBox.cube(2, 2.0))


def test_f_is_evaluated_twice_per_grid_point_without_caching():
    fmt = plan_run_format(BASE_2D, [0.0, 0.0], PARAMS_2D)
    model, log = counting_model(BASE_2D)
    chi, calls = run_pipeline(model, [0.0, 0.0], PARAMS_2D, range_format=fmt)
    assert calls == 2 and len(log) == 2 * (1 << 6)
    expected, _ = run_pipeline(BASE_2D, [0.0, 0.0], PARAMS_2D, range_format=fmt)
    assert np.array_equal(chi.amplitudes, expected.amplitudes)


def test_batch_evaluator_called_once_per_oracle_pass():
    sizes = []

    def batch(points):
        sizes.append(len(points))
        return BASE_2D.evaluate_batch(points)

    model = FunctionModel(p=2, evaluate=BASE_2D.evaluate, gradient=BASE_2D.gradient,
                          grad_bound=BASE_2D.grad_bound, hess_bound=BASE_2D.hess_bound,
                          domain_box=BASE_2D.domain_box, evaluate_batch=batch)
    run_pipeline(model, [0.0, 0.0], PARAMS_2D)
    assert sizes == [1 << 6, 1 << 6]


def test_drifting_oracle_leaves_residual_entanglement():
    # The inverse oracle must read f again: if it reused the forward words,
    # a drift between the passes would go unnoticed.
    fmt = plan_run_format(BASE_2D, [0.0, 0.0], PARAMS_2D)
    model, _ = counting_model(BASE_2D, drift_after=1 << 6, drift=5 * PARAMS_2D.nu)
    with pytest.raises(ResidualEntanglementError):
        run_pipeline(model, [0.0, 0.0], PARAMS_2D, range_format=fmt)


def test_missing_inverse_shift_leaves_shifted_labels():
    params = AlgorithmParams(n=2, nu=1e-3, lam=0.5, mu=0.1)
    model = linear_model([0.6], DomainBox.cube(1, 1.0))
    fmt = plan_run_format(model, [0.0], params)
    base = DomainLabel.base((0.0,))
    counter = OracleCallCounter()
    state = apply_qft(SparseTripartiteState.initial(2, 1, base))
    state = apply_u_plus(state, params)
    state = apply_u_f(state, model, fmt, params, counter)
    state = apply_phase_rotation(state, params.lam, fmt)
    state = apply_u_f_inverse(state, model, fmt, params, counter)
    state = apply_qft(state)  # the inverse shift is skipped
    with pytest.raises(ResidualEntanglementError, match="SHIFTED"):
        collapse_to_grid(state, base, expected_word=0)


def test_pipeline_memory_and_no_term_objects(monkeypatch):
    built = []

    class CountingTerm(states.SparseTerm):
        def __new__(cls, *args, **kwargs):
            built.append(1)
            return super().__new__(cls, *args, **kwargs)

    params = AlgorithmParams(n=8, nu=1e-6, lam=0.3, mu=2.0 ** -9)
    model = quadratic_model([0.3, -0.2], [[1.0, 0.25], [0.25, 1.0]], DomainBox.cube(2, 1.0))
    run_pipeline(model, [0.0, 0.0], params)  # warm caches outside the measurement
    monkeypatch.setattr(states, "SparseTerm", CountingTerm)
    tracemalloc.start()
    try:
        run_pipeline(model, [0.0, 0.0], params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / float(1 << 16) <= 160.0
    assert built == []
