"""The run command's tail: blocked sampling, the sample mean and the record
write, against their unblocked formulas, plus their memory bounds."""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gradkick.algorithm import MeasurementSamples, axis_decode_values, sample_measurements
from gradkick.cli import write_text
from gradkick.config import sample_summary
from gradkick.params import AlgorithmParams
from gradkick.states import BLOCK_BYTES, GridState

MIB = 1 << 20
# Shots and summed values per block: BLOCK_BYTES of 8-byte items.
BLOCK = BLOCK_BYTES // 8


def random_chi(n, p, seed, zeros=0.0):
    """A normalized grid state with random amplitudes, a share of them zero."""
    rng = np.random.default_rng(seed)
    size = 1 << (n * p)
    amplitudes = rng.normal(size=size) + 1j * rng.normal(size=size)
    amplitudes[rng.random(size) < zeros] = 0.0
    amplitudes[0] = 1.0
    return GridState(n=n, p=p, amplitudes=amplitudes / np.linalg.norm(amplitudes))


@given(n=st.integers(2, 4), p=st.integers(1, 3), shots=st.integers(1, 3 * BLOCK + 1),
       zeros=st.sampled_from([0.0, 0.5, 0.9]), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_blocked_sampling_equals_the_unblocked_formula(n, p, shots, zeros, seed):
    # n >= 2, so every axis decodes to 0.0 and to values of both signs.
    chi = random_chi(n, p, seed, zeros)
    params = AlgorithmParams(n=n, nu=1e-6, lam=0.75, mu=0.1)
    samples = sample_measurements(chi, shots, seed, params)

    cdf = np.cumsum(chi.probabilities())
    draws = np.random.default_rng(seed).random(shots)
    indices = np.minimum(np.searchsorted(cdf, draws, side="right"), cdf.size - 1)
    coords = (indices[:, None] >> (n * np.arange(p - 1, -1, -1))) & ((1 << n) - 1)
    gradients = axis_decode_values(params)[coords]

    assert np.array_equal(samples.indices, indices)
    assert samples.gradients.shape == (shots, p)
    assert np.array_equal(samples.gradients.view(np.int64), gradients.view(np.int64))


DECODED = (0.0, -0.0, 0.5, -0.75, 1.0 / 3.0, -1.0 / 7.0, 1e-3, -2.5e5)


@given(p=st.integers(1, 3), shots=st.integers(1, 3 * BLOCK + 1),
       values=st.integers(1, len(DECODED)), column_major=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_sample_mean_has_the_bits_of_np_mean(p, shots, values, column_major, seed):
    # Few distinct values make columns that are all zeros of either sign,
    # where the order and the starting value of the additions show.
    rng = np.random.default_rng(seed)
    gradients = np.asarray(DECODED[:values])[rng.integers(0, values, size=(shots, p))]
    expected = np.mean(gradients, axis=0)
    if column_major:
        gradients = np.asfortranarray(gradients)
    samples = MeasurementSamples(3, p, np.zeros(shots, dtype=np.intp), gradients)
    mean = np.array(sample_summary(samples, shots, seed)["mean_gradient"])
    assert np.array_equal(mean.view(np.int64), expected.view(np.int64))


def test_sampling_and_summary_hold_little_beyond_their_outputs():
    # 100,000 shots of a 2^14-point grid, as the run-quad2d benchmark draws.
    chi = random_chi(7, 2, seed=3)
    params = AlgorithmParams(n=7, nu=1e-6, lam=0.75, mu=0.1)
    sample_summary(sample_measurements(chi, 1000, 1, params), 1000, 1)  # warm caches
    tracemalloc.start()
    try:
        samples = sample_measurements(chi, 100_000, 1, params)
        summary = sample_summary(samples, 100_000, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    table = summary["outcome_counts"]
    outputs = (samples.indices.nbytes + samples.gradients.nbytes
               + sum(values.nbytes + (0 if codes is None else codes.nbytes)
                     for values, codes in table.fields.values()))
    assert peak <= outputs + MIB


def test_record_write_allocates_no_copy_of_the_text(tmp_path):
    text = "".join(f'{{"row": {i}, "p": {i * 1e-7!r}}},\n' for i in range(100_000))
    assert len(text) > 3_000_000
    path = tmp_path / "record.json"
    write_text(str(path), "warm")  # warm caches outside the measurement
    tracemalloc.start()
    try:
        write_text(str(path), text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= MIB
    assert path.read_bytes() == text.encode("ascii")
