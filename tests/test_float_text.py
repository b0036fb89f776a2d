"""Vectorized float texts: equal to float.__repr__ for every float64.

_block_texts is the vectorized path itself, whatever the array's size;
float_texts adds the cut-over to the per-value loop and the blocks.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradkick import floattext
from gradkick.algorithm import run_pipeline
from gradkick.config import ExperimentConfig, distribution_entries
from gradkick.floattext import _block_texts, float_texts, shortest_digits


def reprs(values: np.ndarray) -> list[str]:
    return list(map(float.__repr__, values.tolist()))


def assert_texts(values) -> None:
    values = np.asarray(values, dtype=np.float64)
    assert _block_texts(values) == reprs(values)


def with_neighbours(values, steps: int = 3) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    below, above = [values], [values]
    with np.errstate(over="ignore"):  # the largest finite float steps to inf
        for _ in range(steps):
            below.append(np.nextafter(below[-1], -np.inf))
            above.append(np.nextafter(above[-1], np.inf))
    return np.concatenate(below[1:][::-1] + above)


finite_bits = st.integers(0, 2 ** 64 - 1).filter(lambda bits: (bits >> 52) & 0x7FF != 0x7FF)
# A zero mantissa field: the powers of two (and zero), whose round-trip
# interval is twice as wide above the value as below it.
power_of_two_bits = st.builds(lambda sign, exponent: sign << 63 | exponent << 52,
                              st.integers(0, 1), st.integers(0, 0x7FE))


def bit_arrays(bits: list[int]) -> np.ndarray:
    return np.array(bits, dtype=np.uint64).view(np.float64)


@given(bits=st.lists(finite_bits | power_of_two_bits, min_size=1, max_size=64))
@settings(max_examples=500, deadline=None)
def test_texts_equal_repr_for_any_finite_bit_pattern(bits):
    assert_texts(bit_arrays(bits))


@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                       max_size=64))
@settings(max_examples=300, deadline=None)
def test_texts_equal_repr_for_hypothesis_floats(values):
    assert_texts(with_neighbours(values, 1))


# A 16- or 17-digit decimal ending in 5 sits on the rounding boundary of
# the next shorter length; the doubles next to it test the digit rounding.
@given(digits=st.sampled_from((16, 17)), data=st.data())
@settings(max_examples=300, deadline=None)
def test_texts_equal_repr_next_to_decimals_ending_in_five(digits, data):
    stem = data.draw(st.integers(10 ** (digits - 2), 10 ** (digits - 1) - 1))
    power = data.draw(st.integers(-300, 290))
    value = float(f"{stem}5e{power}")
    assert_texts(with_neighbours([value, -value]))


def test_zeros_subnormals_and_extremes():
    assert_texts([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
                  1.7976931348623157e308, -1.7976931348623157e308, 1e280, 9.99e279])
    assert_texts(with_neighbours([1e-280, 1e280], 20))


def test_every_power_of_two():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    assert_texts(np.concatenate([powers, -powers]))
    assert_texts(with_neighbours(powers, 2))


@pytest.mark.parametrize("power", [1e16, 1e-4, 1e-5, 1e17, 1.0, 1e22, 1e23])
def test_neighbours_of_powers_of_ten(power):
    assert_texts(with_neighbours([power], 40))
    assert_texts(with_neighbours([power * (1 + k * 2.0 ** -52) for k in range(-40, 41)], 1))


def test_every_decade_and_notation_switch():
    values = np.array([float(f"{m}e{e}") for e in range(-300, 301)
                       for m in ("1", "9.999999999999999", "1.2345", "5")])
    assert_texts(np.concatenate([values, -values]))


def test_exact_ties_and_round_trip_midpoints():
    # Values exactly halfway in the 16- or 15-digit rounding ...
    ties = [1234567890123456.5, 123456789012345.25, 2251799813685248.5,
            1000000000000000.5, 0.5 + 2.0 ** -40]
    # ... and decimals exactly halfway between two doubles: above 2^54 the
    # doubles are 4 apart, so 2^54 + 4j + 2 is a midpoint, and a multiple of
    # 10 there is a 16-digit decimal; above 2^55 they are 8 apart, and a
    # multiple of 100 at 4 mod 8 is a 15-digit one. Reading one rounds half
    # to even, so it is the shortest text of one neighbour only.
    midpoints = [m for m in range(2 ** 54 + 2, 2 ** 54 + 2000, 4) if m % 10 == 0]
    midpoints += [m for m in range(2 ** 55 + 4, 2 ** 55 + 8000, 8) if m % 100 == 0]
    assert len(midpoints) > 50
    assert_texts(with_neighbours(ties + [float(m) for m in midpoints], 2))


def test_specials_fall_back_to_repr():
    values = np.array([np.inf, -np.inf, np.nan, 1.5, 0.0])
    assert _block_texts(values) == ["inf", "-inf", "nan", "1.5", "0.0"]
    _, _, _, proven = shortest_digits(values)
    assert proven.tolist() == [False, False, False, True, False]


def test_float_texts_crosses_blocks_and_keeps_short_arrays_per_value(monkeypatch):
    rng = np.random.default_rng(7)
    values = np.concatenate([rng.random(floattext.BLOCK_VALUES * 2 + 5),
                             bit_arrays(rng.integers(0, 2 ** 64, 3000, dtype=np.uint64))])
    assert float_texts(values) == reprs(values)

    # The tables of small commands (at most 256 values) stay on repr's
    # per-value loop, which costs less below the cut-over.
    def vectorized(_):
        raise AssertionError("short array took the vectorized path")

    monkeypatch.setattr(floattext, "_block_texts", vectorized)
    short = rng.random(max(256, floattext.VECTOR_MIN_VALUES - 1))
    assert float_texts(short) == reprs(short)


# The benchmark's run-quad2d config at seed 1: a p=2 quadratic the planner
# runs at n=7, 2^14 grid points.
RUN_QUAD2D = {
    "function": {"kind": "quadratic",
                 "coefficients": [0.3007625887972089, -0.9489776545153054],
                 "hessian": [[-0.0412995354814957, 0.2684349975522365],
                             [0.2684349975522365, 0.48053580681581054]]},
    "x": [0.43361578564314884, 0.16970807454704584],
    "accuracy": {"gamma": 1.0, "delta": 0.3, "epsilon": 0.5},
    "shots": 100000,
    "seed": 1567336992,
}


def test_run_quad2d_probabilities_take_the_vectorized_path():
    cfg = ExperimentConfig.from_dict(RUN_QUAD2D)
    model = cfg.resolve_model()
    params = cfg.resolve_params(model)
    chi, _ = run_pipeline(model, np.asarray(cfg.x), params)
    column = distribution_entries(chi, params, cfg.prob_floor).column("probability")
    assert column.size == 16383
    _, _, _, proven = shortest_digits(column)
    assert proven.mean() >= 0.99
    assert float_texts(column) == reprs(column)


def test_power_of_ten_table_is_exact():
    hi, lo, _ = floattext._tables()
    for e in (floattext._MIN_EXP, -23, -1, 0, 22, 23, floattext._MAX_EXP):
        exact = Fraction(10) ** e
        h, low = hi[e - floattext._MIN_EXP], lo[e - floattext._MIN_EXP]
        assert h == float(exact)
        assert low == float(exact - Fraction(h))
        assert math.isfinite(low) and (low == 0 or abs(low) > 2.2250738585072014e-308)
