"""The gradient estimator: preparation, seven-operator pipeline, decoding.

One run touches the oracle exactly twice (the oracle operator and its
inverse), independent of the dimension p. The measured grid index decodes to
a gradient estimate on a lattice of spacing 1 / (2^n lam mu) per axis, with
indices at or above 2^(n-1) folded to negative frequencies.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .models import FunctionModel
from .oracle import DomainError, DomainLabel, FixedPointFormat, plan_format
from .operators import (OracleCallCounter, apply_phase_rotation, apply_u_f,
                        apply_u_f_inverse, apply_u_plus, apply_u_plus_inverse,
                        collapse_to_grid)
from .params import AlgorithmParams
from .qft import qft_amplitudes
from .states import (BLOCK_BYTES, GridAlignedState, GridState, axis_columns, blocks,
                     grid_points)


@dataclass(frozen=True)
class GradientEstimate:
    """One measurement outcome: grid index and decoded gradient."""

    g: tuple[int, ...]
    gradient: tuple[float, ...]


def sampling_radius(params: AlgorithmParams) -> float:
    """Half-width 2^(n-1) mu of the box the grid can reach around x."""
    return float(1 << (params.n - 1)) * params.mu


def check_sampling_box(model: FunctionModel, pt: np.ndarray, params: AlgorithmParams) -> None:
    """Raise DomainError unless the box the grid reaches around pt lies in the domain."""
    radius = sampling_radius(params)
    if not model.domain_box.contains_box(pt, radius):
        raise DomainError(
            f"sampling box of half-width {radius} around {pt.tolist()} exits the domain")


def axis_signed_indices(n: int) -> np.ndarray:
    """Signed lattice index k of every single-axis index g, as an int64 array
    of length 2^n: -g below 2^(n-1), 2^n - g from there on."""
    k = -np.arange(1 << n, dtype=np.int64)
    k[1 << (n - 1):] += 1 << n
    return k


# One decode table per params: the sampler, the distribution rows and every
# window projection of an audit read the same one. A few are kept, not all,
# since a table is 8 bytes per axis index.
@functools.lru_cache(maxsize=8)
def axis_decode_values(params: AlgorithmParams) -> np.ndarray:
    """Decoded gradient component of every single-axis index, as one
    read-only array of length 2^n: k / (2^n lam mu), k its signed index."""
    values = axis_signed_indices(params.n) / (float(1 << params.n) * params.lam * params.mu)
    values.flags.writeable = False
    return values


def decode_gradient(g: Sequence[int], params: AlgorithmParams) -> np.ndarray:
    """Gradient estimate of one measured grid index, axis by axis."""
    idx = [int(v) for v in g]
    if any(not 0 <= v < 1 << params.n for v in idx):
        raise ValueError(f"grid index {tuple(idx)} out of range for n={params.n}")
    return axis_decode_values(params)[idx]


def plan_run_format(model: FunctionModel, x: Sequence[float], params: AlgorithmParams,
                    group_mode: str = "modular") -> FixedPointFormat:
    """Range format sized from a certified bound on |f| over the sampling box.

    |f(y)| <= |f(x)| + L * |y - x|_1 <= |f(x)| + L * p * 2^(n-1) mu on the
    box, so the planner never needs to evaluate f on the grid. The bound is
    floored at nu to keep it positive for identically-zero objectives.
    """
    pt = np.asarray(x, dtype=float)
    bound = abs(model.evaluate(pt)) + model.grad_bound * model.p * sampling_radius(params)
    return plan_format(nu=params.nu, range_bound=max(bound, params.nu),
                       group_mode=group_mode)


def run_pipeline(model: FunctionModel, x: Sequence[float], params: AlgorithmParams,
                 group_mode: str = "modular", *, phase_variant: str = "direct",
                 max_grid_bits: int | None = None,
                 range_format: FixedPointFormat | None = None) -> tuple[GridState, int]:
    """Execute the estimator and return (grid state chi, oracle call count).

    Starts from the grid transform of |base label> |0> |0...0>, built in
    closed form (GridAlignedState.prepared), applies shift, oracle, phase
    rotation, inverse oracle and inverse shift, then checks and collapses
    onto the grid register, verifying the domain and range registers
    returned to their initial basis states, then applies the final grid
    transform (the same positive-kernel transform as the first).
    """
    from .analysis import plan_experiment  # imported here: analysis imports this module

    experiment = plan_experiment("run", model, x, params, max_grid_bits=max_grid_bits,
                                 group_mode=group_mode, range_format=range_format)
    pt, range_format = experiment.x, experiment.range_format
    base = DomainLabel.base(pt)
    counter = OracleCallCounter()
    state = GridAlignedState.prepared(params.n, model.p, base.x)
    state = apply_u_plus(state, params)
    state = apply_u_f(state, model, range_format, params, counter)
    state = apply_phase_rotation(state, params.lam, range_format, variant=phase_variant)
    state = apply_u_f_inverse(state, model, range_format, params, counter)
    state = apply_u_plus_inverse(state, params)
    # The transform acts on the grid register alone, so the other two are
    # checked and dropped before it: a broken inverse pair raises here and
    # names a stray term.
    chi = collapse_to_grid(state, base, expected_word=0)
    del state
    # A copy is transformed in place: ifftn without out allocates each axis anew.
    amplitudes = chi.amplitudes.copy()
    chi = GridState(n=chi.n, p=chi.p,
                    amplitudes=qft_amplitudes(amplitudes, chi.n, chi.p, out=amplitudes))
    return chi, counter.count


class ShotBlock(NamedTuple):
    """One block of consecutive shots: its slice of the draw order and each
    shot's flat grid index."""

    block: slice
    indices: np.ndarray


def sample_blocks(chi: GridState, shots: int, seed: int) -> Iterator[ShotBlock]:
    """Draw i.i.d. outcomes from |chi_g|^2 with a seeded generator, one
    block of shots (states.blocks, 8,192 of them) at a time.

    Inverse-CDF over the row-major outcome order, so identical (chi, shots,
    seed) give identical sequences on any platform with the same generator.
    Each block takes the next rng.random draws, which are the doubles one
    call for all shots would give; the cdf search runs on that block alone,
    so no temporary grows with the number of shots. No shot is decoded
    here. The checks run when the first block is drawn.
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    probs = chi.probabilities()
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-8:
        raise ValueError(f"chi is not normalized: probabilities sum to {total!r}")
    cdf = np.cumsum(probs)
    del probs
    shots = int(shots)
    buckets = bucket_bounds(cdf, shots)
    rng = np.random.default_rng(seed)
    for block in blocks(shots, np.dtype(np.intp).itemsize):
        indices = bucketed_search(cdf, rng.random(block.stop - block.start), buckets)
        np.minimum(indices, cdf.size - 1, out=indices)
        yield ShotBlock(block, indices)


def sample_measurements(chi: GridState, shots: int, seed: int,
                        params: AlgorithmParams) -> list[GradientEstimate]:
    """Every shot of sample_blocks(chi, shots, seed), in draw order, decoded
    to its GradientEstimate. The run command counts the blocks' outcomes
    instead and decodes none (config.sample_summary)."""
    tables = [axis_decode_values(params)] * chi.p
    return [GradientEstimate(g=tuple(g), gradient=tuple(gradient))
            for _, indices in sample_blocks(chi, shots, seed)
            for g, gradient in zip(grid_points(indices, chi.n, chi.p).tolist(),
                                   axis_columns(indices, chi.n, chi.p, tables).tolist())]


def bucket_bounds(cdf: np.ndarray, draws: int) -> tuple[float, np.ndarray, np.ndarray]:
    """(2^k, first, last): the buckets bucketed_search sorts draws into,
    16 to 32 of a run of that many draws per bucket, and no more buckets
    than one block of 8-byte bounds (states.BLOCK_BYTES) holds, so the
    tables stay within a block however many shots are drawn.

    Bucket b holds the draws in [b / 2^k, (b + 1) / 2^k); first[b] is
    searchsorted(cdf, b / 2^k, "right") and last[b] is searchsorted(cdf,
    (b + 1) / 2^k, "left").
    """
    bits = max(0, min(draws.bit_length() - 5, cdf.size.bit_length(),
                      (BLOCK_BYTES // 8).bit_length() - 1))
    scale = float(1 << bits)
    edges = np.arange((1 << bits) + 1) / scale
    return (scale, np.searchsorted(cdf, edges[:-1], side="right"),
            np.searchsorted(cdf, edges[1:], side="left"))


def bucketed_search(cdf: np.ndarray, draws: np.ndarray,
                    buckets: tuple[float, np.ndarray, np.ndarray]) -> np.ndarray:
    """np.searchsorted(cdf, draws, side="right") for draws in [0, 1), with
    buckets = bucket_bounds(cdf, shots) for any shot count.

    Draw d lies in bucket b = floor(d * 2^k); the product, the floor and
    the bucket edges b / 2^k are all exact. A draw of bucket b has its index
    between first[b] and last[b], so where those agree it is that index,
    and only the other draws are searched.
    """
    scale, first, last = buckets
    bucket = (draws * scale).astype(np.intp)
    indices = first[bucket]
    open_draws = np.flatnonzero(indices != last[bucket])
    indices[open_draws] = np.searchsorted(cdf, draws[open_draws], side="right")
    return indices
