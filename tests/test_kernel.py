"""The array kernel against a term-by-term reference, plus its exactness,
evaluation-count and memory contracts."""

import cmath
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gradkick.states as states
from gradkick import (AccuracySpec, DomainBox, FixedPointFormat, FunctionModel,
                      decompose_state, linear_model, quadratic_model,
                      run_pipeline, sinusoidal_model, verify_theorem)
from gradkick.algorithm import plan_run_format
from gradkick.operators import (OracleCallCounter, ResidualEntanglementError,
                                apply_phase_rotation, apply_qft, apply_u_f,
                                apply_u_f_inverse, apply_u_plus,
                                collapse_to_grid)
from gradkick.oracle import BASE_CODE, DomainLabel, grid_center
from gradkick.params import AlgorithmParams
from gradkick.qft import qft_amplitudes
from gradkick.states import (GridAlignedState, SparseTripartiteState,
                             grid_offsets, grid_points, represented_points)


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


def test_missing_inverse_shift_leaves_shifted_labels():
    state = apply_qft(SparseTripartiteState.initial(2, 1, DomainLabel.base((0.0,))))
    with pytest.raises(ResidualEntanglementError, match="SHIFTED"):
        collapse_without_inverse_shift(state)


def test_missing_inverse_shift_is_caught_on_the_aligned_form():
    # The same message as the general form's, naming the first term.
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
    assert pipeline_peak_per_point(monkeypatch, 8, 2) <= 88.0


def test_pipeline_memory_with_three_axes(monkeypatch):
    assert pipeline_peak_per_point(monkeypatch, 6, 3) <= 104.0


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
    assert peaks[0] <= 144.0 and peaks[1] <= 160.0


# Every (n, p) with n p <= 20: the grids the closed form must match.
SMALL_GRIDS = [(n, p) for p in range(1, 21) for n in range(1, 20 // p + 1)]


@pytest.mark.parametrize("n,p", SMALL_GRIDS)
def test_prepared_state_is_the_transformed_basis_state(n, p):
    x = (0.25,) * p
    prepared = GridAlignedState.prepared(n, p, x)
    transformed = apply_qft(SparseTripartiteState.initial(n, p, DomainLabel.base(x)))
    assert prepared.amplitudes.ndim == 0
    assert not prepared.shifted and not prepared.words.any()
    # Compared as bit patterns, so a -0.0 imaginary part would fail.
    bits = transformed.amplitudes.view(np.uint64).reshape(-1, 2)
    assert (bits == prepared.amplitudes.reshape(1).view(np.uint64)).all()


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
    grid = np.arange(size, dtype=np.int64)
    general = SparseTripartiteState.from_arrays(
        n, p, x, grid if shifted else np.full(size, BASE_CODE), words, grid,
        np.full(size, amplitude))
    kicked = apply_phase_rotation(aligned, lam, fmt, variant)
    expected = apply_phase_rotation(general, lam, fmt, variant)
    assert kicked.amplitudes.tobytes() == expected.amplitudes.tobytes()
    assert kicked.shifted == shifted and kicked.words is aligned.words


def test_aligned_qft_matches_the_general_form_and_refuses_two_sectors():
    n, p, x = 2, 2, (0.1, -0.3)
    state = apply_phase_rotation(GridAlignedState.prepared(n, p, x), 0.37,
                                 FixedPointFormat(bits=4, a0=-1.0, a1=0.125))
    general = SparseTripartiteState.from_arrays(
        n, p, x, np.full(16, BASE_CODE), np.zeros(16), np.arange(16),
        np.broadcast_to(state.amplitudes, (16,)))
    assert apply_qft(state).amplitudes.tobytes() == apply_qft(general).amplitudes.tobytes()
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
    offsets = grid_offsets(given_indices, n, p)
    assert np.array_equal(offsets, rowwise_grid_offsets(indices, n, p))
    represented = represented_points(x, mu, given_indices, n)
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


def batched_qft(s):
    """The dense route on a single-sector state: scatter into one grid,
    transform it, then repeat labels and words."""
    size = 1 << (s.n * s.p)
    dense = np.zeros(size, dtype=np.complex128)
    dense[s.grid] = s.amplitudes
    out = qft_amplitudes(dense, s.n, s.p)
    return (np.repeat(s.labels[:1], size), np.repeat(s.words[:1], size),
            np.arange(size, dtype=np.int64), out)


@given(n=st.integers(1, 4), p=st.integers(1, 3), data=st.data())
@settings(max_examples=150, deadline=None)
def test_one_sector_qft_equals_the_batched_path(n, p, data):
    size = 1 << (n * p)
    layout = data.draw(st.sampled_from(["in order", "permuted", "partial"]))
    grid = np.arange(size, dtype=np.int64)
    if layout == "permuted":
        grid = np.array(data.draw(st.permutations(grid.tolist())), dtype=np.int64)
    elif layout == "partial":
        grid = np.array(sorted(data.draw(st.sets(st.integers(0, size - 1), min_size=1,
                                                 max_size=size - 1))), dtype=np.int64)
        grid = np.array(data.draw(st.permutations(grid.tolist())), dtype=np.int64)
    parts = st.floats(min_value=-1.0, max_value=1.0)
    amps = np.array([complex(data.draw(parts), data.draw(parts)) for _ in grid])
    # Normalize the real and imaginary parts as reals: complex division
    # overflows on subnormal inputs.
    parts_of = amps.view(float)
    assume(np.any(parts_of))
    parts_of = parts_of / np.max(np.abs(parts_of))
    amps = (parts_of / np.linalg.norm(parts_of)).view(complex)
    label = data.draw(st.sampled_from([BASE_CODE, 0, size - 1]))
    word = data.draw(st.integers(0, 7))
    x = (0.5,) * p
    state = SparseTripartiteState.from_arrays(
        n, p, x, np.full(grid.size, label), np.full(grid.size, word), grid, amps)
    out = apply_qft(state)
    labels, words, out_grid, out_amps = batched_qft(state)
    assert np.array_equal(out.labels, labels) and np.array_equal(out.words, words)
    assert np.array_equal(out.grid, out_grid)
    assert out.amplitudes.tobytes() == out_amps.tobytes()


@pytest.mark.parametrize("group_mode", ["modular", "xor"])
def test_u_f_on_base_and_partial_labels_matches_term_oracle(group_mode):
    # The pipeline's labels are SHIFTED(h) for every grid index h in order;
    # any other label set, BASE included, takes the general point gather.
    n, p = 3, 2
    params = AlgorithmParams(n=n, nu=1e-3, lam=0.5, mu=0.05)
    model = quadratic_model([0.3, -0.2], [[1.0, 0.25], [0.25, 1.0]], DomainBox.cube(2, 1.0))
    x = [0.1, -0.2]
    fmt = plan_run_format(model, x, params, group_mode)
    labels = np.array([BASE_CODE, 5, 63, BASE_CODE, 0, 17, 5])
    words = np.array([0, 1, 2, 3, 0, 7, 4])
    grid = np.array([0, 1, 2, 3, 4, 5, 1])
    state = SparseTripartiteState.from_arrays(n, p, x, labels, words, grid,
                                              np.full(labels.size, labels.size ** -0.5))
    counter = OracleCallCounter()
    out = apply_u_f(state, model, fmt, params, counter)
    g0 = float(1 << (n - 1)) - 0.5
    expected = []
    for label, word in zip(labels.tolist(), words.tolist()):
        point = np.asarray(x, dtype=float)
        if label != BASE_CODE:
            g = np.array(states.grid_point_of(label, n, p), dtype=float)
            point = point + params.mu * (g - g0)
        w = round((float(model.evaluate(point)) - fmt.a0) / fmt.a1)
        expected.append(word ^ w if group_mode == "xor" else (word + w) & (fmt.num_words - 1))
    assert out.words.tolist() == expected
    back = apply_u_f_inverse(out, model, fmt, params, counter)
    assert back.words.tolist() == words.tolist()


def test_replace_checks_only_the_replaced_arrays(monkeypatch):
    base = DomainLabel.base((0.0,))
    state = apply_qft(SparseTripartiteState.initial(2, 1, base))
    scans = []
    real = states._first_duplicate
    monkeypatch.setattr(states, "_first_duplicate",
                        lambda *a: scans.append(1) or real(*a))
    state.replace(amplitudes=state.amplitudes[::-1].copy())
    assert scans == []
    state.replace(words=np.array([0, 1, 2, 3]))
    assert scans == [1]
    # Each replaced array is still checked in full.
    with pytest.raises(ValueError, match="duplicate"):
        state.replace(grid=np.array([0, 1, 1, 3]))
    with pytest.raises(ValueError, match="grid index 4 out of range"):
        state.replace(grid=np.array([0, 1, 2, 4]))
    with pytest.raises(ValueError, match="label code 4 out of range"):
        state.replace(labels=np.array([0, 1, 2, 4]))
    with pytest.raises(ValueError, match="norm"):
        state.replace(amplitudes=np.full(4, 0.6 + 0j))
    fresh = state.replace(words=np.array([0, 1, 2, 3]))
    assert not fresh.words.flags.writeable and fresh.labels is state.labels

