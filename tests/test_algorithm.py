"""End-to-end estimator: decoding, format planning, pipeline, sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradkick import (DomainBox, FixedPointFormat, decode_gradient,
                      decompose_state, linear_model, run_pipeline,
                      sinusoidal_model)
from gradkick.algorithm import (axis_decode_values, bucket_bounds, bucketed_search,
                                plan_run_format, sample_blocks, sample_measurements,
                                sampling_radius)
from gradkick.oracle import DomainError
from gradkick.params import AlgorithmParams
from gradkick.qft import qft_amplitudes
from gradkick.states import GridSizeError

EXACT = AlgorithmParams(n=3, nu=1e-9, lam=1.0, mu=0.125)
BOX = DomainBox.cube(1, 4.0)
NEG_X = linear_model([-1.0], BOX)


def test_sampling_radius():
    assert sampling_radius(EXACT) == 0.5
    assert sampling_radius(AlgorithmParams(n=5, nu=1.0, lam=1.0, mu=0.25)) == 4.0


def test_decode_gradient_frozen_values():
    # scale = 2^n lam mu = 1, so indices decode to small integers
    assert decode_gradient((1,), EXACT)[0] == -1.0
    assert decode_gradient((7,), EXACT)[0] == 1.0
    assert decode_gradient((4,), EXACT)[0] == 4.0
    assert decode_gradient((0,), EXACT)[0] == 0.0
    got = decode_gradient((3, 5), AlgorithmParams(n=3, nu=1e-9, lam=2.0, mu=0.125))
    assert np.allclose(got, [-1.5, 1.5])


def test_decode_gradient_rejects_out_of_range_index():
    with pytest.raises(ValueError, match="out of range"):
        decode_gradient((8,), EXACT)
    with pytest.raises(ValueError, match="out of range"):
        decode_gradient((-1,), EXACT)


def test_axis_decode_values_matches_decode_gradient():
    for n in (1, 2, 3, 4):
        params = AlgorithmParams(n=n, nu=1e-9, lam=0.7, mu=0.31)
        table = axis_decode_values(params)
        for g in range(1 << n):
            assert table[g] == decode_gradient((g,), params)[0]


def test_plan_run_format_frozen_case():
    fmt = plan_run_format(NEG_X, [0.0], EXACT)
    # bound = |f(0)| + L * p * radius = 0.5; nu (2^N - 1) >= 1.0 first at N=30
    assert fmt.bits == 30
    assert fmt.a1 == 1e-9
    assert fmt.a0 == -1e-9 * 2.0**29


def test_plan_run_format_floors_bound_at_nu():
    zero = linear_model([0.0], BOX)
    fmt = plan_run_format(zero, [0.0], AlgorithmParams(n=2, nu=0.5, lam=1.0, mu=0.125))
    assert fmt.bits == 2  # range_bound = nu = 0.5, nu * 3 >= 1.0


def test_pipeline_exact_linear_point_mass():
    chi, calls = run_pipeline(NEG_X, [0.0], EXACT)
    assert calls == 2
    probs = chi.probabilities()
    top = int(np.argmax(probs))
    assert chi.grid_of(top) == (1,)
    assert probs[top] > 1.0 - 1e-9
    assert decode_gradient((1,), EXACT)[0] == -1.0


def test_pipeline_rejects_wrong_x_shape():
    with pytest.raises(ValueError, match="components"):
        run_pipeline(NEG_X, [0.0, 0.0], EXACT)


def test_pipeline_rejects_sampling_box_outside_domain():
    tight = linear_model([-1.0], DomainBox.cube(1, 0.4))
    with pytest.raises(DomainError, match="half-width"):
        run_pipeline(tight, [0.0], EXACT)  # radius 0.5 > 0.4


def test_pipeline_respects_grid_bit_cap():
    with pytest.raises(GridSizeError):
        run_pipeline(NEG_X, [0.0], EXACT, max_grid_bits=2)


def test_pipeline_rejects_mismatched_range_format_mode():
    fmt = plan_run_format(NEG_X, [0.0], EXACT, group_mode="xor")
    with pytest.raises(ValueError, match="group_mode"):
        run_pipeline(NEG_X, [0.0], EXACT, group_mode="modular", range_format=fmt)


def test_pipeline_matches_reference_construction():
    # Dual route: operator pipeline vs direct transform of the phase state.
    box = DomainBox.cube(2, 3.0)
    model = sinusoidal_model(0.8, [1.3, -0.7], box)
    params = AlgorithmParams(n=3, nu=1e-6, lam=0.4, mu=0.05)
    fmt = plan_run_format(model, [0.2, -0.1], params)
    chi, calls = run_pipeline(model, [0.2, -0.1], params, range_format=fmt)
    assert calls == 2
    psi = decompose_state(model, [0.2, -0.1], params, fmt).psi
    expected = qft_amplitudes(psi, params.n, model.p)
    assert np.max(np.abs(chi.amplitudes - expected)) < 1e-12


def test_sample_measurements_deterministic_and_consistent():
    chi, _ = run_pipeline(NEG_X, [0.0], EXACT)
    a = sample_measurements(chi, 32, seed=11, params=EXACT)
    b = sample_measurements(chi, 32, seed=11, params=EXACT)
    assert a == b
    c = sample_measurements(chi, 32, seed=12, params=EXACT)
    assert len(c) == 32
    probs = chi.probabilities()
    for est in a:
        assert est.gradient == tuple(decode_gradient(est.g, EXACT))
    indices = np.concatenate([block.indices for block in sample_blocks(chi, 32, 11, EXACT)])
    assert [est.g[0] for est in a] == indices.tolist()
    assert (probs[indices] > 0).all()


def test_sample_measurements_rejects_bad_inputs():
    chi, _ = run_pipeline(NEG_X, [0.0], EXACT)
    with pytest.raises(ValueError, match="shots"):
        sample_measurements(chi, 0, seed=1, params=EXACT)
    from gradkick import GridState
    lopsided = GridState(n=3, p=1, amplitudes=np.full(8, 8 ** -0.5, dtype=complex))
    # Construction checks the norm, so break it afterwards to reach the
    # sampler's own check.
    lopsided.amplitudes = np.full(8, 0.5, dtype=complex)
    with pytest.raises(ValueError, match="not normalized"):
        sample_measurements(lopsided, 4, seed=1, params=EXACT)


@given(weights=st.lists(st.sampled_from([0.0, 0.0, 1e-300, 1e-12, 0.25, 1.0, 3.0])
                        | st.floats(0.0, 1.0), min_size=1, max_size=300),
       end=st.sampled_from(["sum", "below", "above"]), shots=st.integers(1, 5000),
       run=st.integers(1, 1 << 17), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
def test_bucketed_search_equals_searchsorted(weights, end, shots, run, seed):
    weights = np.asarray(weights)
    if not weights.sum() > 0:
        weights[-1] = 1.0
    cdf = np.cumsum(weights / weights.sum())
    # A cdf that ends just short of 1 leaves draws above its last entry;
    # one that overshoots has entries at or above 1.
    if end == "below":
        cdf[-1] = np.nextafter(cdf[-1] if cdf[-1] < 1.0 else 1.0, 0.0)
    elif end == "above":
        cdf[-1] = np.nextafter(max(cdf[-1], 1.0), 2.0)
    cdf = np.maximum.accumulate(cdf)
    rng = np.random.default_rng(seed)
    # Draws exactly on the cdf entries and on the bucket edges b / 2^k test
    # the ties of side="right".
    edges = np.arange(64) / 64.0
    draws = np.concatenate([rng.random(shots), cdf[cdf < 1.0], edges,
                            np.nextafter(edges[1:], 0.0)])
    # The buckets are sized for a whole run of shots, searched a block at a
    # time, so their count is independent of the draws searched.
    assert np.array_equal(bucketed_search(cdf, draws, bucket_bounds(cdf, run)),
                          np.searchsorted(cdf, draws, side="right"))
