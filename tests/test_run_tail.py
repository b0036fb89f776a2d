"""The run command's tail: blocked sampling, the folded sample summary and
the record write, against their unblocked formulas, plus their memory
bounds."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradkick import config
from gradkick.algorithm import ShotBlock, axis_decode_values, sample_blocks
from gradkick.cli import write_text
from gradkick.config import sample_summary
from gradkick.params import AlgorithmParams
from gradkick.states import BLOCK_BYTES, GridState, blocks, grid_points

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
    drawn = list(sample_blocks(chi, shots, seed, params))
    return (np.concatenate([block.indices for block in drawn]),
            np.concatenate([block.gradients for block in drawn]))


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


def summary_of_every_shot(indices, gradients, n, p):
    """The run command's summary before shots were folded, from every shot
    at once: (outcomes by falling count, their counts, the mean), counted
    by one np.bincount and averaged by np.mean over the C-ordered (shots, p)
    gradients."""
    counts = np.bincount(indices, minlength=1 << (n * p))
    outcomes = np.flatnonzero(counts)
    counts = counts[outcomes]
    order = np.argsort(-counts, kind="stable")
    mean = np.mean(np.ascontiguousarray(gradients), axis=0)
    return outcomes[order], counts[order], mean


@given(n=st.integers(2, 4), p=st.integers(1, 3), shots=st.integers(1, 3 * BLOCK + 1),
       zeros=st.sampled_from([0.0, 0.5, 0.9]), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_folded_summary_equals_the_summary_of_every_shot(n, p, shots, zeros, seed):
    chi = random_chi(n, p, seed, zeros)
    params = AlgorithmParams(n=n, nu=1e-6, lam=0.75, mu=0.1)
    summary = sample_summary(chi, shots, seed, params)
    outcomes, counts, mean = summary_of_every_shot(*every_shot(chi, shots, seed, params), n, p)

    table = summary["outcome_counts"]
    assert (summary["shots"], summary["seed"]) == (shots, seed)
    assert np.array_equal(table.column("g"), grid_points(outcomes, n, p))
    assert np.array_equal(table.column("count"), counts)
    assert np.array_equal(np.array(summary["mean_gradient"]).view(np.int64),
                          mean.view(np.int64))


DECODED = (0.0, -0.0, 0.5, -0.75, 1.0 / 3.0, -1.0 / 7.0, 1e-3, -2.5e5)


@given(p=st.integers(1, 3), shots=st.integers(1, 3 * BLOCK + 1),
       values=st.integers(1, len(DECODED)), column_major=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_sample_mean_has_the_bits_of_np_mean(p, shots, values, column_major, seed):
    # Few distinct values make columns that are all zeros of either sign,
    # where the order and the starting value of the additions show. The
    # summary folds them as the sampler would hand them over, in blocks.
    rng = np.random.default_rng(seed)
    gradients = np.asarray(DECODED[:values])[rng.integers(0, values, size=(shots, p))]
    expected = np.mean(gradients, axis=0)
    if column_major:
        gradients = np.asfortranarray(gradients)

    def drawn(chi, shots, seed, params):
        for block in blocks(shots, 8):
            yield ShotBlock(block, np.zeros(block.stop - block.start, dtype=np.intp),
                            gradients[block])

    chi = random_chi(3, p, seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(config, "sample_blocks", drawn)
        mean = np.array(sample_summary(chi, shots, seed, None)["mean_gradient"])
    assert np.array_equal(mean.view(np.int64), expected.view(np.int64))


def test_sampling_and_summary_hold_little_beyond_their_outputs():
    # 100,000 shots of a 2^14-point grid, as the run-quad2d benchmark draws,
    # and ten times as many: the shots are folded as they are drawn, so
    # only the outcome table grows with them.
    chi = random_chi(7, 2, seed=3)
    params = AlgorithmParams(n=7, nu=1e-6, lam=0.75, mu=0.1)
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
        assert peak <= outputs + MIB, shots


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
