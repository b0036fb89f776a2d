"""The run command's tail: blocked sampling, the counted sample summary and
the record write, against their unblocked formulas, plus their memory
bounds."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradkick import config
from gradkick.algorithm import ShotBlock, axis_decode_values, sample_blocks
from gradkick.cli import write_text
from gradkick.config import MAX_SHOTS, sample_summary, signed_index_mean
from gradkick.params import AlgorithmParams
from gradkick.states import BLOCK_BYTES, GridState, axis_columns, blocks, grid_points

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


def every_shot(chi, shots, seed, params):
    """Every shot sample_blocks draws, joined in draw order: the flat
    indices (shots,) and the decoded gradients (shots, p)."""
    indices = np.concatenate([block.indices for block in sample_blocks(chi, shots, seed)])
    return indices, axis_columns(indices, chi.n, chi.p, [axis_decode_values(params)] * chi.p)


def exact_mean(indices, n, p, params):
    """Each axis's exact mean of every shot's estimate k / s, rounded once,
    from the shots' flat grid indices: k folds the axis coordinate g to -g
    below 2^(n-1) and to 2^n - g from there on, s is the double
    2^n lam mu, and the mean sum_shots (k / s) / shots is one Fraction,
    sum_shots k / (shots s)."""
    size = 2 ** n
    scale = Fraction(float(size) * params.lam * params.mu)
    sums = [0] * p
    for i in indices.tolist():
        for m in range(p):
            g = i // size ** (p - 1 - m) % size
            sums[m] += -g if g < size // 2 else size - g
    return np.array([float(total / (len(indices) * scale)) for total in sums])


@given(n=st.integers(2, 4), p=st.integers(1, 3), shots=st.integers(1, 3 * BLOCK + 1),
       zeros=st.sampled_from([0.0, 0.5, 0.9]), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_blocked_sampling_equals_the_unblocked_formula(n, p, shots, zeros, seed):
    # n >= 2, so every axis decodes to 0.0 and to values of both signs.
    chi = random_chi(n, p, seed, zeros)
    params = AlgorithmParams(n=n, nu=1e-6, lam=0.75, mu=0.1)
    sampled_indices, sampled_gradients = every_shot(chi, shots, seed, params)

    cdf = np.cumsum(chi.probabilities())
    draws = np.random.default_rng(seed).random(shots)
    indices = np.minimum(np.searchsorted(cdf, draws, side="right"), cdf.size - 1)
    coords = (indices[:, None] >> (n * np.arange(p - 1, -1, -1))) & ((1 << n) - 1)
    gradients = axis_decode_values(params)[coords]

    assert np.array_equal(sampled_indices, indices)
    assert sampled_gradients.shape == (shots, p)
    assert np.array_equal(sampled_gradients.view(np.int64), gradients.view(np.int64))


@given(seed=st.integers(0, 2 ** 64 - 1),
       sizes=st.lists(st.integers(0, 3 * BLOCK + 1), max_size=5))
@settings(max_examples=50, deadline=None)
def test_generator_random_in_consecutive_chunks_gives_the_doubles_of_one_call(seed, sizes):
    # The sampler draws each block of shots with its own rng.random call;
    # the shots are those one call for all of them would draw.
    whole = np.random.default_rng(seed).random(sum(sizes))
    rng = np.random.default_rng(seed)
    chunks = np.concatenate([np.empty(0)] + [rng.random(size) for size in sizes])
    assert np.array_equal(chunks.view(np.int64), whole.view(np.int64))


def summary_of_every_shot(indices, n, p, params):
    """The run command's summary from every shot at once: (outcomes by
    falling count, their counts, the mean), counted by one np.bincount and
    averaged exactly (exact_mean)."""
    counts = np.bincount(indices, minlength=1 << (n * p))
    outcomes = np.flatnonzero(counts)
    counts = counts[outcomes]
    order = np.argsort(-counts, kind="stable")
    return outcomes[order], counts[order], exact_mean(indices, n, p, params)


@given(n=st.integers(2, 4), p=st.integers(1, 3), shots=st.integers(1, 3 * BLOCK + 1),
       zeros=st.sampled_from([0.0, 0.5, 0.9]), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_folded_summary_equals_the_summary_of_every_shot(n, p, shots, zeros, seed):
    chi = random_chi(n, p, seed, zeros)
    params = AlgorithmParams(n=n, nu=1e-6, lam=0.75, mu=0.1)
    summary = sample_summary(chi, shots, seed, params)
    indices, _ = every_shot(chi, shots, seed, params)
    outcomes, counts, mean = summary_of_every_shot(indices, n, p, params)

    table = summary["outcome_counts"]
    assert (summary["shots"], summary["seed"]) == (shots, seed)
    assert np.array_equal(table.column("g"), grid_points(outcomes, n, p))
    assert np.array_equal(table.column("count"), counts)
    assert np.array_equal(np.array(summary["mean_gradient"]).view(np.int64),
                          mean.view(np.int64))


@given(n=st.integers(1, 5), p=st.integers(1, 3), lam=st.floats(1e-3, 1e3),
       mu=st.floats(1e-6, 1.0), shots=st.integers(1, 3 * BLOCK + 1),
       coordinates=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_sample_mean_is_the_exact_mean_of_the_estimates(n, p, lam, mu, shots, coordinates,
                                                         seed):
    # Each axis's shots fall on a few coordinates, index 0 among them, so a
    # column can hold index 0 alone (the mean is then +0.0) or mix signs;
    # the summary counts the shots as the sampler hands them over, in
    # blocks, and decodes none of them.
    rng = np.random.default_rng(seed)
    axes = [rng.choice(np.append(0, rng.integers(0, 1 << n, size=coordinates - 1)), size=shots)
            for _ in range(p)]
    indices = sum(axis << (n * (p - 1 - m)) for m, axis in enumerate(axes))
    params = AlgorithmParams(n=n, nu=1e-6, lam=lam, mu=mu)

    def drawn(chi, shots, seed):
        for block in blocks(shots, 8):
            yield ShotBlock(block, indices[block])

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(config, "sample_blocks", drawn)
        mean = np.array(sample_summary(random_chi(n, p, seed), shots, seed,
                                       params)["mean_gradient"])
    assert np.array_equal(mean.view(np.int64), exact_mean(indices, n, p, params).view(np.int64))


@st.composite
def edge_marginals(draw):
    """Synthetic marginal counts C and signed indices k of an n-bit axis,
    n >= 32, where sum C k leaves int64: the counts add up to near 2^32 and
    each |k| is near 2^31, 0, or anywhere up to 2^(n-1)."""
    n = draw(st.integers(32, 62))
    half = 2 ** (n - 1)
    size = draw(st.integers(1, 6))
    k = draw(st.lists(st.one_of(st.integers(-2 ** 31 - 2, -2 ** 31 + 2),
                                st.integers(2 ** 31 - 2, 2 ** 31 + 2), st.just(0),
                                st.integers(-half + 1, half)), min_size=size, max_size=size))
    shots = draw(st.integers(MAX_SHOTS - 2 ** 16, MAX_SHOTS))
    cuts = sorted(draw(st.lists(st.integers(0, shots), min_size=size - 1, max_size=size - 1)))
    return n, np.diff([0, *cuts, shots]), np.array(k, dtype=np.int64), shots


@given(marginals=edge_marginals(), lam=st.floats(1e-3, 1e3), mu=st.floats(1e-20, 1.0))
@example(marginals=(32, np.array([MAX_SHOTS]), np.array([2 ** 31]), MAX_SHOTS), lam=1.0,
         mu=1.0)
@settings(max_examples=200, deadline=None)
def test_signed_index_mean_is_exact_at_the_int64_edge(marginals, lam, mu):
    # The example's sum is 2^63, one past int64.
    n, counts, k, shots = marginals
    scale = float(2 ** n) * lam * mu
    expected = float(sum((Fraction(int(c)) * int(v) / Fraction(scale)
                          for c, v in zip(counts, k)), Fraction(0)) / shots)
    mean = signed_index_mean(counts, k, shots, scale)
    assert np.array_equal(np.float64(mean).view(np.int64), np.float64(expected).view(np.int64))


def test_sampling_and_summary_hold_little_beyond_their_outputs():
    # 100,000 shots of a 2^14-point grid, as the run-quad2d benchmark draws,
    # and ten times as many, over two axes and over one: the shots are
    # counted as they are drawn, so only the outcome table grows with them.
    for n, p in ((7, 2), (14, 1)):
        chi = random_chi(n, p, seed=3)
        params = AlgorithmParams(n=n, nu=1e-6, lam=0.75, mu=0.1)
        sample_summary(chi, 1000, 1, params)  # warm caches
        for shots in (100_000, 1_000_000):
            tracemalloc.start()
            try:
                summary = sample_summary(chi, shots, 1, params)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            table = summary["outcome_counts"]
            outputs = sum(values.nbytes + (0 if codes is None else codes.nbytes)
                          for values, codes in table.fields.values())
            assert peak <= outputs + MIB, (p, shots)


def test_record_write_allocates_no_copy_of_the_text(tmp_path):
    # write_text writes one block of record text; it encodes BLOCK_BYTES
    # characters at a time, so its own copies stay within a few of those
    # however long the block is.
    text = "".join(f'{{"row": {i}, "p": {i * 1e-7!r}}},\n' for i in range(100_000))
    assert len(text) > 3_000_000
    path = tmp_path / "record.json"
    with open(path, "wb") as handle:
        write_text(handle, "warm")  # warm caches outside the measurement
        handle.seek(0)
        handle.truncate()
        tracemalloc.start()
        try:
            write_text(handle, text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak <= 4 * BLOCK_BYTES
    assert path.read_bytes() == text.encode("ascii")
