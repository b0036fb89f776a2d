"""The array kernel against a term-by-term reference, plus its exactness,
evaluation-count and memory contracts."""

import cmath
import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gradkick.states as states
from gradkick import (AccuracySpec, DomainBox, FixedPointFormat, FunctionModel,
                      decompose_state, linear_model, quadratic_model,
                      run_pipeline, sinusoidal_model, verify_theorem)
from gradkick import analysis
from gradkick.algorithm import axis_decode_values, plan_run_format
from gradkick.analysis import geometric_sum, leakage_check, success_projection
from gradkick.models import row_dots
from gradkick.operators import (OracleCallCounter, ResidualEntanglementError,
                                _per_bit_table, _phase_kick,
                                apply_phase_rotation, apply_qft, apply_u_f,
                                apply_u_f_inverse, apply_u_plus,
                                collapse_to_grid, complex_array,
                                complex_product, unit_phases)
from gradkick.oracle import DomainLabel, grid_center, quantize
from gradkick.params import AlgorithmParams
from gradkick.qft import qft_amplitudes
from gradkick.states import (GridAlignedState, GridSizeError, GridState,
                             SparseTripartiteState, axis_columns, axis_offsets,
                             grid_offset_norms, grid_offsets, grid_points,
                             represented_points)


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


def collapse_without_inverse_shift(state):
    """Run the pipeline's middle on a prepared state, skip the inverse
    shift, and collapse."""
    params = AlgorithmParams(n=2, nu=1e-3, lam=0.5, mu=0.1)
    model = linear_model([0.6], DomainBox.cube(1, 1.0))
    fmt = plan_run_format(model, [0.0], params)
    counter = OracleCallCounter()
    state = apply_u_plus(state, params)
    state = apply_u_f(state, model, fmt, params, counter)
    state = apply_phase_rotation(state, params.lam, fmt)
    state = apply_u_f_inverse(state, model, fmt, params, counter)
    return collapse_to_grid(state, DomainLabel.base((0.0,)), expected_word=0)


def test_missing_inverse_shift_is_caught_on_the_aligned_form():
    # The message names the first stray term, label, word and grid.
    with pytest.raises(ResidualEntanglementError, match=r"label=DomainLabel\(x=\(0.0,\), "
                       r"SHIFTED\(0,\)\), word=0, grid=\(0,\)"):
        collapse_without_inverse_shift(GridAlignedState.prepared(2, 1, (0.0,)))


def pipeline_peak_per_point(monkeypatch, n, p):
    """tracemalloc peak of run_pipeline per grid point on a p-axis
    quadratic, asserting that no SparseTerm is built."""
    built = []

    class CountingTerm(states.SparseTerm):
        def __new__(cls, *args, **kwargs):
            built.append(1)
            return super().__new__(cls, *args, **kwargs)

    params = AlgorithmParams(n=n, nu=1e-6, lam=0.3, mu=2.0 ** -(n + 1))
    H = [[1.0, 0.25, -0.1], [0.25, 1.0, 0.2], [-0.1, 0.2, 0.5]]
    model = quadratic_model([0.3, -0.2, 0.1][:p], [row[:p] for row in H[:p]],
                            DomainBox.cube(p, 1.0))
    run_pipeline(model, [0.0] * p, params)  # warm caches outside the measurement
    monkeypatch.setattr(states, "SparseTerm", CountingTerm)
    tracemalloc.start()
    try:
        run_pipeline(model, [0.0] * p, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert built == []
    return peak / float(1 << (n * p))


def test_pipeline_memory_and_no_term_objects(monkeypatch):
    assert pipeline_peak_per_point(monkeypatch, 8, 2) <= 40.0


def test_pipeline_memory_with_three_axes(monkeypatch):
    assert pipeline_peak_per_point(monkeypatch, 6, 3) <= 36.0


def test_decomposition_and_audit_memory():
    # verify-sin3d's grid: a p=3 sinusoidal at n=5, xor and per-bit.
    spec = AccuracySpec(gamma=1.0, delta=0.6, epsilon=0.5)
    model = sinusoidal_model(2.39, [0.073, 0.418, -0.291], DomainBox.cube(3, 2.0))
    x = [0.48, 0.2, -0.27]
    params = AlgorithmParams(n=5, nu=1.99e-4, lam=133.4, mu=2.34e-3)
    fmt = plan_run_format(model, x, params, "xor")
    points = float(1 << 15)
    peaks = []
    for call in (lambda: decompose_state(model, x, params, fmt),
                 lambda: verify_theorem(model, x, spec, params, group_mode="xor",
                                        phase_variant="per-bit")):
        call()  # warm caches outside the measurement
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1] / points)
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 112.0 and peaks[1] <= 64.0


# Every (n, p) with n p <= 20: the grids the closed form must match.
SMALL_GRIDS = [(n, p) for p in range(1, 21) for n in range(1, 20 // p + 1)]


@pytest.mark.parametrize("n,p", SMALL_GRIDS)
def test_prepared_state_is_the_transformed_basis_state(n, p):
    x = (0.25,) * p
    prepared = GridAlignedState.prepared(n, p, x)
    basis = np.zeros(1 << (n * p), dtype=np.complex128)
    basis[0] = 1.0
    transformed = qft_amplitudes(basis, n, p)
    assert prepared.amplitudes.ndim == 0
    assert not prepared.shifted and not prepared.words.any()
    # Compared as bit patterns, so a -0.0 imaginary part would fail.
    bits = transformed.view(np.uint64).reshape(-1, 2)
    assert (bits == prepared.amplitudes.reshape(1).view(np.uint64)).all()


@pytest.mark.parametrize("n,p", SMALL_GRIDS)
def test_offset_norms_equal_row_dots(n, p):
    # Sums of squared half-integers are exact, so the per-axis outer sum
    # must give the bits of the per-row dot product the cap used before.
    off = grid_offsets(n, p)
    assert grid_offset_norms(n, p).tobytes() == row_dots(off, off).tobytes()


SIGNED = [0.0, -0.0, 1.5, -2.25]


def axis_order_dot(u, v):
    """u . v with Python floats: the first product, then each further one
    added in axis order."""
    total = float(u[0]) * float(v[0])
    for a, b in zip(u[1:], v[1:]):
        total += float(a) * float(b)
    return total


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_row_dots_and_batches_give_per_row_dot_bits_with_signed_zeros(p):
    # Every row of signed zeros is drawn, so each p has rows whose products
    # are all -0.0; their sum is -0.0, where a sum started at +0.0 (as
    # np.vecdot's is) reads +0.0. The general floats round differently
    # wherever a product is fused into its sum or the order changes.
    rng = np.random.default_rng(p)
    zeros = np.array(list(itertools.product([0.0, -0.0], repeat=p)))
    points = np.concatenate([zeros, rng.choice(SIGNED, size=(100, p)),
                             rng.standard_normal((100, p)) * 1e3])
    box = DomainBox.cube(p, 4.0)
    cases = [(np.full(p, sign), rng.choice(SIGNED, size=(p, p))) for sign in (-1.0, 1.0)]
    cases += [(rng.choice(SIGNED, size=p), rng.choice(SIGNED, size=(p, p))) for _ in range(4)]
    cases += [(rng.standard_normal(p), rng.standard_normal((p, p))) for _ in range(4)]
    for coeff, half in cases:
        other = rng.choice(SIGNED + [0.1, -7.3], size=points.shape)
        H = half + half.T

        def quadratic(v):
            hv = [axis_order_dot(v, row) for row in H]
            return axis_order_dot(v, coeff) + 0.5 * axis_order_dot(v, hv)

        dots = [axis_order_dot(v, coeff) for v in points]
        pairs = [(row_dots(points, coeff), dots),
                 (row_dots(points, other), [axis_order_dot(v, w) for v, w in zip(points, other)]),
                 (linear_model(coeff, box).evaluate_points(points), dots),
                 (quadratic_model(coeff, H, box).evaluate_points(points),
                  [quadratic(v) for v in points]),
                 (sinusoidal_model(-0.5, coeff, box).evaluate_points(points),
                  -0.5 * np.sin(np.array(dots)))]
        for got, expected in pairs:
            assert got.tobytes() == np.array(expected, dtype=float).tobytes()
    # The all -1 coefficient met rows of +0.0: the -0.0 case was drawn.
    assert np.signbit([axis_order_dot(v, cases[0][0]) for v in zeros]).any()


def float_bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


# Signed zeros, the smallest subnormal and magnitudes whose products or
# squares overflow.
EDGES = [0.0, -0.0, 5e-324, 1.3e154, -1.3e154, 1.7e308, -1.7e308]


@given(p=st.integers(1, 4), data=st.data())
@settings(max_examples=300, deadline=None)
def test_a_rows_value_depends_on_that_row_alone(p, data):
    # A blocked pipeline evaluates f over slices of the grid, so each row
    # must get the same bits whole, sliced or alone.
    coordinate = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGES)
    # Coefficients small enough for finite derivative bounds.
    coefficient = (st.floats(min_value=-1e150, max_value=1e150)
                   | st.sampled_from(EDGES[:3]))
    k = data.draw(st.integers(1, 40))
    rows = st.lists(coordinate, min_size=p, max_size=p)
    points = np.array(data.draw(st.lists(rows, min_size=k, max_size=k)))
    other = np.array(data.draw(st.lists(rows, min_size=k, max_size=k)))
    coeff = np.array(data.draw(st.lists(coefficient, min_size=p, max_size=p)))
    upper = data.draw(st.lists(coefficient, min_size=p * p, max_size=p * p))
    H = np.array(upper).reshape(p, p)
    H = np.triu(H) + np.triu(H, 1).T
    start = data.draw(st.integers(0, k - 1))
    stop = data.draw(st.integers(start + 1, k))
    box = DomainBox.cube(p, 4.0)
    models = [linear_model(coeff, box), quadratic_model(coeff, H, box),
              sinusoidal_model(-0.5, coeff, box)]
    with np.errstate(all="ignore"):
        for b in (coeff, other):
            whole = float_bits(row_dots(points, b))
            part = b if b.ndim == 1 else b[start:stop]
            assert (float_bits(row_dots(points[start:stop], part)) == whole[start:stop]).all()
            for r in range(k):
                alone = row_dots(points[r:r + 1], b if b.ndim == 1 else b[r:r + 1])
                assert float_bits(alone)[0] == whole[r]
        for model in models:
            whole = float_bits(model.evaluate_points(points))
            assert (float_bits(model.evaluate_points(points[start:stop]))
                    == whole[start:stop]).all()
            assert (float_bits([model.evaluate(v) for v in points]) == whole).all()


@given(bits=st.integers(1, 14), lam=st.floats(min_value=-1e3, max_value=1e3),
       a1=st.floats(min_value=1e-6, max_value=1.0),
       modulus=st.floats(min_value=1e-3, max_value=1.0),
       angle=st.floats(min_value=-4.0, max_value=4.0))
@settings(max_examples=200, deadline=None)
def test_doubled_per_bit_table_equals_the_per_bit_loop(bits, lam, a1, modulus, angle):
    # apply_phase_rotation passes the shared amplitude's parts as 0-d arrays.
    fmt = FixedPointFormat(bits=bits, a0=-a1 * float(1 << (bits - 1)), a1=a1)
    amp = np.asarray(cmath.rect(modulus, angle))
    table = _per_bit_table(amp.real, amp.imag, lam, fmt)
    loop = _phase_kick(amp.real, amp.imag, np.arange(fmt.num_words), lam, fmt, "per-bit")
    for got, want in zip(table, loop):
        assert got.shape == (fmt.num_words,)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bits", [5, 6, 7])
def test_decomposition_psi_equals_the_direct_phase_construction(bits):
    # 64 grid points: the format has fewer, as many and more words, so psi's
    # phases come from the gathered word table twice and directly once.
    n, p = 3, 2
    model = quadratic_model([0.3, -0.2], [[0.5, 0.1], [0.1, -0.4]], DomainBox.cube(2, 1.0))
    x = [0.05, -0.1]
    params = AlgorithmParams(n=n, nu=0.01, lam=7.3, mu=0.05)
    fmt = FixedPointFormat(bits=bits, a0=-0.01 * float(1 << (bits - 1)), a1=0.01)
    dec = decompose_state(model, x, params, fmt)
    f_true = model.evaluate_points(represented_points(x, params.mu, n))
    words = quantize(fmt, f_true)
    assert len(set(words.tolist())) > 8
    re, im = unit_phases(params.lam, fmt.decode(words))
    amp = 1.0 / math.sqrt(1 << (n * p))
    assert dec.psi.tobytes() == complex_array(*complex_product(amp, 0.0, re, im)).tobytes()


@pytest.mark.parametrize("delta,inside", [(1e-9, 0), (0.7, 2), (1e9, 64)])
def test_window_projection_equals_the_full_probability_sum(delta, inside):
    # Only the window's amplitudes are squared; the sum must equal the one
    # over the whole grid's probabilities, masked, for empty and full
    # windows too.
    n, p = 2, 3
    params = AlgorithmParams(n=n, nu=1e-3, lam=0.5, mu=0.5)
    amps = np.random.default_rng(7).normal(size=(64, 2)) @ np.array([1.0, 1j])
    chi = GridState(n, p, amps / np.linalg.norm(amps))
    grad = np.array([0.15, -0.4, 0.9])
    vals = axis_decode_values(params)
    mask = np.logical_and.outer(np.abs(vals - grad[0]) < delta, np.abs(vals - grad[1]) < delta)
    mask = np.logical_and.outer(mask, np.abs(vals - grad[2]) < delta).reshape(-1)
    assert mask.sum() == inside
    expected = float(np.sum(chi.probabilities()[mask]))
    assert success_projection(chi, grad, delta, params) == (math.sqrt(expected), expected)


def origin_model(kind, p, data):
    """A linear, quadratic or sinusoidal model with f(0) = 0, on the cube of
    half-width 4."""
    box = DomainBox.cube(p, 4.0)
    coeffs = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=p, max_size=p))
    if kind == "linear":
        return linear_model(coeffs, box)
    if kind == "quadratic":
        upper = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=p * p,
                                            max_size=p * p))).reshape(p, p)
        return quadratic_model(coeffs, np.triu(upper) + np.triu(upper, 1).T, box)
    return sinusoidal_model(data.draw(st.floats(-2.0, 2.0)), coeffs, box)


@given(kind=st.sampled_from(["linear", "quadratic", "sinusoidal"]), p=st.integers(1, 4),
       data=st.data())
@settings(max_examples=60, deadline=None)
def test_linear_projection_per_axis_equals_the_dense_transform(kind, p, data):
    # verify_theorem projects psi_L axis by axis; the dense route transforms
    # the whole of decompose_state's psi_L and projects it over the grid.
    model = origin_model(kind, p, data)
    spec = AccuracySpec(gamma=data.draw(st.floats(0.1, 4.0)),
                        delta=data.draw(st.floats(0.5, 2.0)),
                        epsilon=data.draw(st.floats(0.05, 0.9)))
    try:
        params = analysis.select_parameters(spec, model.grad_bound, model.hess_bound, p,
                                            max_grid_bits=12)
    except GridSizeError:
        assume(False)
    x = np.zeros(p)
    report = verify_theorem(model, x, spec, params, max_grid_bits=12)
    psi_L = decompose_state(model, x, params, plan_run_format(model, x, params)).psi_L
    dense, _ = success_projection(GridState(params.n, p, qft_amplitudes(psi_L, params.n, p)),
                                  model.gradient(x), spec.delta, params)
    assert abs(report.projected_linear - dense) <= 1e-15


def test_linear_projection_matches_a_high_precision_value():
    # lam = 1.6e4 and f(x) = 0.64: the dense route, which adds lam f(x) into
    # every phase angle, read 0.9963197622076462, 1.0e-14 from the exact
    # 0.99631976220765631755 (mpmath, 40 digits).
    x = [-0.8711552874345903]
    model = quadratic_model([-0.3578651547756264], [[0.867440650973824]],
                            DomainBox.cube(1, 4.0, center=x))
    spec = AccuracySpec(gamma=1.745871608306963, delta=0.1564445008304532,
                        epsilon=0.34114216011110654)
    report = verify_theorem(model, x, spec)
    assert report.params.n == 10
    assert abs(report.projected_linear - 0.99631976220765631755) <= 4.4e-16


@given(parts=st.lists(st.tuples(st.floats(-1e150, 1e150), st.floats(-1e150, 1e150)),
                     min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_probabilities_are_real_squares_in_python_floats(parts):
    z = np.array([complex(re, im) for re, im in parts])
    expected = np.array([re * re + im * im for re, im in parts])
    assert states.probabilities(z).tobytes() == expected.tobytes()


def python_geometric_sum(theta, size):
    """geometric_sum at one angle in Python floats: the phase angle
    pi (size - 1) d, rounded as unit_phases rounds it (adding 0.0 fixes the
    sign of a zero angle), and the limit size where sin(pi d) is zero or
    subnormal."""
    d = theta - round(theta)
    angle = 0.0 + math.pi * (size - 1) * d
    s = math.sin(math.pi * d)
    ratio = float(size) if abs(s) < sys.float_info.min else math.sin(math.pi * size * d) / s
    return math.cos(angle) * ratio, math.sin(angle) * ratio


ANGLES = (st.floats(-4.0, 4.0) | st.sampled_from([0.0, 5e-324, -5e-324, 1e-320, 0.5, 2.5])
          | st.integers(-3, 3).flatmap(lambda k: st.floats(-1e-5, 1e-5).map(lambda d: k + d)))


@given(n=st.integers(0, 12), thetas=st.lists(ANGLES, min_size=1, max_size=16))
@settings(max_examples=200, deadline=None)
def test_geometric_sum_equals_its_formula_in_python_floats(n, thetas):
    re, im = geometric_sum(np.array(thetas), 1 << n)
    expected = np.array([python_geometric_sum(theta, 1 << n) for theta in thetas])
    assert re.tobytes() == np.ascontiguousarray(expected[:, 0]).tobytes()
    assert im.tobytes() == np.ascontiguousarray(expected[:, 1]).tobytes()


@given(n=st.integers(1, 4), p=st.integers(1, 3), data=st.data())
@settings(max_examples=60, deadline=None)
def test_leakage_factors_and_prediction_equal_python_floats(n, p, data):
    # The factors by Python-float geometric sums, and the predicted state as
    # their product with Python complex multiplies, from the global phase
    # on; factorization_error and per_axis_max then follow bit for bit.
    n = min(n, 8 // p)
    size, delta, mu = 1 << n, 0.5, 0.01
    coeffs = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=p, max_size=p))
    x = np.array(data.draw(st.lists(st.floats(-0.5, 0.5), min_size=p, max_size=p)))
    lam = data.draw(st.floats(0.1, 0.99)) / (2.0 * mu * (max(map(abs, coeffs)) + delta))
    params = AlgorithmParams(n=n, nu=1e-6, lam=lam, mu=mu)
    model = linear_model(coeffs, DomainBox.cube(p, 1.0))
    compared = []
    original = analysis._max_abs_difference
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_max_abs_difference",
                      lambda a, b: compared.append((a, b)) or original(a, b))
        report = leakage_check(model, x, params, delta)

    grad = [float(v) for v in model.gradient(x)]
    fx = model.evaluate(x)
    factors = []
    for gm in grad:
        sums = [python_geometric_sum(g / size + lam * mu * gm, size) for g in range(size)]
        factors.append([complex(re / size, im / size) for re, im in sums])
    angle = 0.0 + 2.0 * math.pi * lam * (fx - mu * float(np.sum(grad)) * grid_center(n))
    predicted = [complex(math.cos(angle), math.sin(angle))]
    for axis in factors:
        predicted = [a * b for a in predicted for b in axis]
    (chi_L, got), = compared
    assert got.tobytes() == np.array(predicted).tobytes()
    fmt = plan_run_format(model, x, params)
    psi_L = decompose_state(model, x, params, fmt).psi_L
    assert chi_L.tobytes() == qft_amplitudes(psi_L, n, p).tobytes()
    gaps = [complex(c) - q for c, q in zip(chi_L, predicted)]
    assert report.factorization_error == math.sqrt(max(g.real * g.real + g.imag * g.imag
                                                       for g in gaps))
    vals = axis_decode_values(params)
    expected = tuple(math.sqrt(max((f.real * f.real + f.imag * f.imag
                                    for v, f in zip(vals, axis) if abs(v - gm) >= delta),
                                   default=0.0))
                     for gm, axis in zip(grad, factors))
    assert report.per_axis_max == expected


@given(n=st.integers(1, 4), p=st.integers(1, 3), bits=st.integers(1, 12),
       variant=st.sampled_from(["direct", "per-bit"]), shifted=st.booleans(),
       data=st.data())
@settings(max_examples=300, deadline=None)
def test_per_word_kick_equals_per_term_kick(n, p, bits, variant, shifted, data):
    # With 2^bits at most the grid size the aligned state kicks a table of
    # every word and gathers it; above, it kicks each term. Either way each
    # term's bits must equal the per-term kick of the general form.
    size = 1 << (n * p)
    top = (1 << bits) - 1
    pool = data.draw(st.lists(st.integers(0, top), min_size=1, max_size=4))
    words = np.array(data.draw(st.lists(st.sampled_from(pool + [0, top]),
                                        min_size=size, max_size=size)), dtype=np.int64)
    lam = data.draw(st.floats(min_value=-1e3, max_value=1e3))
    a1 = data.draw(st.floats(min_value=1e-6, max_value=1.0))
    fmt = FixedPointFormat(bits=bits, a0=-a1 * float(1 << (bits - 1)), a1=a1)
    amplitude = cmath.rect(size ** -0.5, data.draw(st.floats(min_value=-4.0, max_value=4.0)))
    x = (0.5,) * p
    aligned = GridAlignedState(n, p, x, shifted, words, amplitude)
    general = SparseTripartiteState(n, p, [aligned.term(h) for h in range(size)])
    kicked = apply_phase_rotation(aligned, lam, fmt, variant)
    expected = apply_phase_rotation(general, lam, fmt, variant)
    assert kicked.amplitudes.tobytes() == expected.amplitudes.tobytes()
    assert kicked.shifted == shifted and kicked.words is aligned.words


def test_aligned_qft_matches_the_general_form_and_refuses_two_sectors():
    # The general form's terms, in any order, scattered into one dense grid
    # and transformed: the aligned form must give the same bits.
    n, p, x = 2, 2, (0.1, -0.3)
    state = apply_phase_rotation(GridAlignedState.prepared(n, p, x), 0.37,
                                 FixedPointFormat(bits=4, a0=-1.0, a1=0.125))
    grid = np.random.default_rng(5).permutation(16)
    general = SparseTripartiteState(n, p, [state.term(h) for h in grid])
    dense = np.zeros(16, dtype=np.complex128)
    dense[general.grid] = general.amplitudes
    out = apply_qft(state)
    assert out.amplitudes.tobytes() == qft_amplitudes(dense, n, p).tobytes()
    assert not out.shifted and out.words is state.words
    for other in (state.replace(shifted=True), state.replace(words=np.arange(16))):
        with pytest.raises(ValueError, match="one .label, word. sector"):
            apply_qft(other)


def test_broken_inverse_oracle_raises_before_the_final_transform():
    # An inverse oracle that misreads f leaves one (label, word) sector per
    # distinct stray word; transforming them all would take a dense grid
    # each, so the sector check must come first.
    params = AlgorithmParams(n=6, nu=1e-3, lam=0.5, mu=0.01)
    fmt = plan_run_format(BASE_2D, [0.0, 0.0], params)
    passes = []

    def batch(points):
        passes.append(len(points))
        values = BASE_2D.evaluate_batch(points)
        return values if len(passes) == 1 else np.zeros_like(values)

    model = FunctionModel(p=2, evaluate=BASE_2D.evaluate, gradient=BASE_2D.gradient,
                          grad_bound=BASE_2D.grad_bound, hess_bound=BASE_2D.hess_bound,
                          domain_box=BASE_2D.domain_box, evaluate_batch=batch)
    run_pipeline(BASE_2D, [0.0, 0.0], params, range_format=fmt)  # warm caches
    tracemalloc.start()
    try:
        with pytest.raises(ResidualEntanglementError, match="outside the expected sector"):
            run_pipeline(model, [0.0, 0.0], params, range_format=fmt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert passes == [1 << 12, 1 << 12]
    assert peak / float(1 << 12) <= 160.0


# The row-major (k, p) formulas the axis-major construction replaced.

def rowwise_grid_points(indices, n, p):
    shifts = n * np.arange(p - 1, -1, -1, dtype=np.int64)
    return (np.asarray(indices, dtype=np.int64)[:, None] >> shifts) & ((1 << n) - 1)


def rowwise_grid_offsets(indices, n, p):
    return rowwise_grid_points(indices, n, p).astype(float) - grid_center(n)


def rowwise_contains(box, points):
    c = np.asarray(box.center)
    w = np.asarray(box.half_width)
    return np.all(np.abs(np.asarray(points, dtype=float) - c) <= w, axis=1)


FINITE = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@given(n=st.integers(1, 8), p=st.integers(1, 4), data=st.data())
@settings(max_examples=200, deadline=None)
def test_axis_major_grid_arrays_equal_rowwise_formulas(n, p, data):
    bits = n * p
    if bits <= 12 and data.draw(st.booleans()):
        indices, given_indices = np.arange(1 << bits, dtype=np.int64), None
    else:
        indices = np.array(data.draw(st.lists(st.integers(0, (1 << bits) - 1),
                                              max_size=50)), dtype=np.int64)
        given_indices = indices
    x = np.array(data.draw(st.lists(FINITE, min_size=p, max_size=p)))
    mu = data.draw(st.floats(min_value=1e-9, max_value=10.0))
    points = grid_points(indices, n, p)
    assert points.dtype == np.int64
    assert np.array_equal(points, rowwise_grid_points(indices, n, p))
    # Given indices read float tables through axis_columns' index path.
    offsets = (grid_offsets(n, p) if given_indices is None
               else axis_columns(given_indices, n, p, [axis_offsets(n)] * p))
    assert np.array_equal(offsets, rowwise_grid_offsets(indices, n, p))
    if given_indices is None:
        represented = represented_points(x, mu, n)
        expected = x + mu * rowwise_grid_offsets(indices, n, p)
        assert represented.shape == (indices.size, p)
        assert represented.tobytes() == expected.tobytes()


@given(p=st.integers(1, 4), data=st.data())
@settings(max_examples=200, deadline=None)
def test_contains_points_matches_rowwise_check(p, data):
    center = data.draw(st.lists(FINITE, min_size=p, max_size=p))
    half = data.draw(st.lists(st.floats(min_value=1e-6, max_value=1e6),
                              min_size=p, max_size=p))
    box = DomainBox(center=tuple(center), half_width=tuple(half))
    k = data.draw(st.integers(0, 30))
    rows = []
    for _ in range(k):
        row = []
        for c, w in zip(center, half):
            edge = np.array([c - w, c + w])
            row.append(data.draw(st.one_of(
                FINITE, st.sampled_from([float("nan"), float("inf"), float("-inf")]),
                st.sampled_from(edge.tolist()),
                st.sampled_from(np.nextafter(edge, [-np.inf, np.inf]).tolist()))))
        rows.append(row)
    points = np.array(rows, dtype=float).reshape(k, p)
    inside = box.contains_points(points)
    assert inside.dtype == bool
    assert np.array_equal(inside, rowwise_contains(box, points))
    assert inside.tolist() == [box.contains(row) for row in points]


def test_contains_points_rejects_wrong_width():
    with pytest.raises(ValueError, match="points"):
        DomainBox.cube(2, 1.0).contains_points(np.zeros((3, 3)))


@pytest.mark.parametrize("group_mode", ["modular", "xor"])
def test_u_f_on_base_and_partial_labels_matches_term_oracle(group_mode):
    # Both label modes of the aligned form, from words the oracle has not
    # written: BASE reads f at x for every term, SHIFTED(h) at term h's
    # represented point.
    n, p = 3, 2
    params = AlgorithmParams(n=n, nu=1e-3, lam=0.5, mu=0.05)
    model = quadratic_model([0.3, -0.2], [[1.0, 0.25], [0.25, 1.0]], DomainBox.cube(2, 1.0))
    x = [0.1, -0.2]
    fmt = plan_run_format(model, x, params, group_mode)
    size = 1 << (n * p)
    words = np.random.default_rng(11).integers(0, fmt.num_words, size)
    g0 = float(1 << (n - 1)) - 0.5
    counter = OracleCallCounter()
    for shifted in (False, True):
        state = GridAlignedState(n, p, x, shifted, words, size ** -0.5)
        out = apply_u_f(state, model, fmt, params, counter)
        expected = []
        for h, word in enumerate(words.tolist()):
            point = np.asarray(x, dtype=float)
            if shifted:
                g = np.array(states.grid_point_of(h, n, p), dtype=float)
                point = point + params.mu * (g - g0)
            w = round((float(model.evaluate(point)) - fmt.a0) / fmt.a1)
            expected.append(word ^ w if group_mode == "xor"
                            else (word + w) & (fmt.num_words - 1))
        assert out.words.tolist() == expected and out.shifted == shifted
        back = apply_u_f_inverse(out, model, fmt, params, counter)
        assert back.words.tolist() == words.tolist()
    assert counter.count == 4
