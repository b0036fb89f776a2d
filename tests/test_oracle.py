"""Fixed-point encoding, range group, and domain-label tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradkick import DomainBox, FixedPointFormat, linear_model
from gradkick.oracle import (DomainError, DomainLabel, RangeOverflowError,
                             grid_center, oracle_value, plan_format, quantize,
                             range_add, range_sub, shift_label)
from gradkick.params import AlgorithmParams


def test_plan_format_power_of_two_case():
    # nu (2^N - 1) >= 2 * range_bound: 0.5 * 7 = 3.5 >= 2 at N = 3, and
    # 0.5 * 3 = 1.5 < 2 at N = 2, so the planner must pick exactly 3 bits.
    fmt = plan_format(nu=0.5, range_bound=1.0)
    assert fmt.bits == 3
    assert fmt.a1 == 0.5
    assert fmt.a0 == -2.0
    assert fmt.top == 1.5


def test_plan_format_boundary_value_is_representable():
    fmt = plan_format(nu=0.5, range_bound=0.5)
    assert fmt.bits == 2
    assert fmt.a0 == -1.0
    assert fmt.top == 0.5
    assert fmt.decode(quantize(fmt, 0.5)) == 0.5
    assert fmt.decode(quantize(fmt, -0.5)) == -0.5


def test_plan_format_rejects_absurd_precision():
    with pytest.raises(ValueError, match="62"):
        plan_format(nu=1e-18, range_bound=1e6)


def test_plan_format_rejects_nonpositive_arguments():
    with pytest.raises(ValueError):
        plan_format(nu=0.0, range_bound=1.0)
    with pytest.raises(ValueError):
        plan_format(nu=0.1, range_bound=0.0)


def test_quantize_ties_round_to_even_word():
    fmt = plan_format(nu=0.5, range_bound=1.0)  # a0 = -2.0, step 0.5
    # -0.75 sits exactly between words 2 and 3; the even word wins.
    assert quantize(fmt, -0.75) == 2
    # -0.25 sits exactly between words 3 and 4; again the even word.
    assert quantize(fmt, -0.25) == 4


def test_quantize_half_step_closure_at_the_ends():
    fmt = plan_format(nu=0.5, range_bound=1.0)  # representable [-2.0, 1.5]
    assert quantize(fmt, 1.75) == fmt.num_words - 1
    assert quantize(fmt, -2.25) == 0
    with pytest.raises(RangeOverflowError):
        quantize(fmt, 1.7500001)
    with pytest.raises(RangeOverflowError):
        quantize(fmt, -2.2500001)


def test_quantize_round_trip_fixes_representable_values():
    fmt = plan_format(nu=0.25, range_bound=2.0)
    for word in range(fmt.num_words):
        assert quantize(fmt, fmt.decode(word)) == word


@given(
    nu=st.floats(min_value=1e-6, max_value=10.0, allow_nan=False),
    bound=st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
    frac=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_quantize_error_within_half_step(nu, bound, frac):
    fmt = plan_format(nu=nu, range_bound=bound)
    v = frac * bound
    err = abs(fmt.decode(quantize(fmt, v)) - v)
    # Half a step, plus float headroom for the quotient and decode rounding.
    assert err <= 0.5 * nu + 4e-16 * (abs(v) + abs(fmt.a0) + nu)


@given(
    bits=st.integers(min_value=1, max_value=62),
    mode=st.sampled_from(["modular", "xor"]),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_range_group_sub_inverts_add(bits, mode, data):
    fmt = FixedPointFormat(bits=bits, a0=-1.0, a1=2.0 / ((1 << bits) - 1)
                           if bits > 1 else 1.0, group_mode=mode)
    w = data.draw(st.integers(min_value=0, max_value=fmt.num_words - 1))
    r = data.draw(st.integers(min_value=0, max_value=fmt.num_words - 1))
    assert range_sub(fmt, range_add(fmt, w, r), r) == w
    assert range_add(fmt, range_sub(fmt, w, r), r) == w


def test_xor_mode_oracle_is_self_inverse():
    fmt = FixedPointFormat(bits=5, a0=-1.0, a1=0.0625, group_mode="xor")
    for w in range(fmt.num_words):
        assert range_add(fmt, range_add(fmt, w, 19), 19) == w


def test_range_ops_reject_out_of_range_words():
    fmt = FixedPointFormat(bits=3, a0=-1.0, a1=0.25)
    with pytest.raises(ValueError):
        range_add(fmt, 8, 0)
    with pytest.raises(ValueError):
        range_sub(fmt, 0, -1)
    with pytest.raises(ValueError):
        fmt.decode(8)


def test_grid_center_values():
    assert grid_center(1) == 0.5
    assert grid_center(3) == 3.5
    assert grid_center(4) == 7.5


def test_shift_label_swap_table_exhaustive():
    # For every label (BASE or any SHIFTED(h)) and every g, the map swaps
    # BASE <-> SHIFTED(g) and fixes everything else; applying it twice is
    # the identity. Checked exhaustively for n <= 3, p <= 2.
    for n in (1, 2, 3):
        for p in (1, 2):
            size = 1 << n
            grids = [tuple(idx) for idx in np.ndindex(*(size,) * p)]
            labels = [DomainLabel.base((0.25,) * p)]
            labels += [DomainLabel.shifted((0.25,) * p, h) for h in grids]
            for g in grids:
                for d in labels:
                    once = shift_label(d, g, n)
                    if d.shift is None:
                        assert once == DomainLabel.shifted(d.x, g)
                    elif d.shift == g:
                        assert once.shift is None
                    else:
                        assert once == d
                    assert shift_label(once, g, n) == d


def test_shift_label_rejects_bad_grid_index():
    d = DomainLabel.base((0.0,))
    with pytest.raises(ValueError):
        shift_label(d, (4,), 2)
    with pytest.raises(ValueError):
        shift_label(d, (0, 0), 2)


def test_shifted_label_point_is_exact():
    # The label stores g itself, so the represented point is bitwise
    # x + mu * (g - g0): the shift axiom holds with zero error.
    n, mu = 3, 0.125
    x = (0.3, -1.7)
    g0 = grid_center(n)
    for g in ((0, 0), (5, 2), (7, 7)):
        label = DomainLabel.shifted(x, g)
        expected = np.asarray(x) + mu * (np.asarray(g, dtype=float) - g0)
        assert np.array_equal(label.point(n, mu), expected)
    assert np.array_equal(DomainLabel.base(x).point(n, mu), np.asarray(x))


def test_oracle_value_quantizes_the_represented_point():
    box = DomainBox.cube(1, 4.0)
    model = linear_model([-1.0], box)
    params = AlgorithmParams(n=3, nu=0.0625, lam=1.0, mu=0.125)
    fmt = plan_format(nu=params.nu, range_bound=1.0)
    for g in range(8):
        label = DomainLabel.shifted((0.0,), (g,))
        word = oracle_value(model, fmt, params, label)
        point = label.point(params.n, params.mu)
        # First oracle axiom: the decoded word is within nu / 2 of f.
        assert abs(fmt.decode(word) - model.evaluate(point)) <= params.nu / 2


def test_oracle_value_rejects_points_outside_the_domain():
    box = DomainBox.cube(1, 0.25)
    model = linear_model([1.0], box)
    params = AlgorithmParams(n=3, nu=0.0625, lam=1.0, mu=0.125)
    fmt = plan_format(nu=params.nu, range_bound=1.0)
    label = DomainLabel.shifted((0.0,), (7,))  # x + 0.125 * 3.5 = 0.4375
    with pytest.raises(DomainError):
        oracle_value(model, fmt, params, label)


def test_format_validation():
    with pytest.raises(ValueError):
        FixedPointFormat(bits=0, a0=0.0, a1=1.0)
    with pytest.raises(ValueError):
        FixedPointFormat(bits=63, a0=0.0, a1=1.0)
    with pytest.raises(ValueError):
        FixedPointFormat(bits=4, a0=0.0, a1=0.0)
    with pytest.raises(ValueError):
        FixedPointFormat(bits=4, a0=0.0, a1=1.0, group_mode="nand")
