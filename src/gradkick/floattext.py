"""float.__repr__ of every value of a float64 array, computed with numpy.

repr writes the shortest decimal that reads back to the same double, and
among those the one nearest the double, laid out as 0.000123, 12.5, 1e-05
or 1.5e+16. float_texts produces that text byte for byte for a whole array:
it scales each value by a power of ten in double-double arithmetic, rounds
it to 17, 16 and 15 significant digits, and keeps the shortest candidate
that lies within half an ulp. Every step is IEEE arithmetic that is exact
or has a stated error bound, so the texts do not depend on numpy's SIMD
path.

A value is not guessed at: where a rounding or round-trip test falls within
MARGIN of its boundary, float.__repr__ writes it. So it does for zeros,
subnormals, magnitudes outside [1e-280, 1e280), exact powers of two (their
round-trip interval is twice as wide above as below), the doubles within an
ulp or two of a power of ten (where the decade is not proven), infinities
and NaNs.
"""

from __future__ import annotations

import functools

import numpy as np

# Arrays shorter than this go to float.__repr__ one value at a time. On
# outcome probabilities repr takes about 0.85 us a value and the vectorized
# path 150 us plus 0.18 us a value (2-vCPU AVX-512 host), so they cross at
# about 200 values; repr is faster still on short decimals. The cut-over
# sits well above that, and keeps the tables of grids up to 2^8 points,
# at most 256 values, on repr.
VECTOR_MIN_VALUES = 512
# Values formatted per pass, not states.blocks' 8,192: a value's temporaries
# take about 20 times its 8 bytes, and on 16,383 outcome probabilities 8,192
# values a pass raise float_texts' peak from 2.0 to 2.7 MB.
BLOCK_VALUES = 1 << 12

# Magnitudes written by the vectorized path. In this range the scaled value
# is about 1e16, so no product of the double-double steps below overflows
# or underflows, and the low parts of the powers of ten are normal doubles.
_LOWEST, _HIGHEST = 1e-280, 1e280
# Exponents of the power-of-ten table: 10^(16 - e10) for every decade e10
# that log10 can guess in that range.
_MIN_EXP, _MAX_EXP = -270, 300

# The scaled value s = |v| * 10^(16 - e10) is computed as s_hi + s_lo with
# an absolute error below s * 2^-104 < 5e-15: the power's 2^-106 relative
# error, 2^-106 from rounding |v| times its low part, and 2^-105 from adding
# the two small terms; the split product is exact. Each digit and distance
# test adds at most 100 * 2^-53 < 1.2e-14 of rounding, and the scaled half
# ulp is within 11 * 2^-53 < 1.3e-15. So every test is within 2e-14 of its
# exact value, and one within MARGIN of its boundary is left to repr.
MARGIN = 1e-9

_SPLIT = 134217729.0  # 2^27 + 1: Dekker's split of a double into 26-bit halves
_POWERS = 10 ** np.arange(19, dtype=np.int64)


def float_texts(values: np.ndarray) -> list[str]:
    """[float.__repr__(v) for v in values] for a 1-D float64 array.

    Arrays below VECTOR_MIN_VALUES take the per-value loop, longer ones the
    vectorized path, BLOCK_VALUES at a time.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size < VECTOR_MIN_VALUES:
        return list(map(float.__repr__, values.tolist()))
    texts: list[str] = []
    for start in range(0, values.size, BLOCK_VALUES):
        texts += _block_texts(values[start:start + BLOCK_VALUES])
    return texts


def shortest_digits(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(digits, count, decpt, proven) of each value of a float64 array.

    Where proven, |v|'s shortest round-trip decimal is 0.d1d2...dk * 10^decpt,
    with digits the integer d1d2...dk and count its k. Elsewhere the three
    are meaningless and the value needs float.__repr__.
    """
    a = np.abs(values)
    with np.errstate(invalid="ignore"):
        proven = (a >= _LOWEST) & (a < _HIGHEST)
    a = np.where(proven, a, 1.5)
    mantissa, exponent = np.frexp(a)
    proven &= mantissa != 0.5
    # A guess at the decade, 10^e10 <= |v| < 10^(e10 + 1); the scaled value
    # below proves it or sends the value to repr.
    e10 = np.floor(np.log10(a)).astype(np.int64)

    # s = |v| * 10^(16 - e10) = s_hi + s_lo: Dekker's exact product of |v|
    # and the power's high part, plus |v| times its low part.
    hi, lo, _ = _tables()
    index = 16 - _MIN_EXP - e10
    p_hi, p_lo = hi.take(index, mode="clip"), lo.take(index, mode="clip")
    product = a * p_hi
    a1, a2 = _split(a)
    p1, p2 = _split(p_hi)
    small = (((a1 * p1 - product) + a1 * p2 + a2 * p1) + a2 * p2) + a * p_lo
    s_hi = product + small
    s_lo = small - (s_hi - product)
    # s = n17 + r with n17 an integer and |r| <= 1/2, both exact: s_hi is an
    # integer once it exceeds 2^53, and s_lo - rint(s_lo) needs no rounding.
    whole = np.rint(s_lo)
    r = s_lo - whole
    n17 = s_hi.astype(np.int64) + whole.astype(np.int64)
    # 10^16 < n17 < 10^17 puts s in (10^16, 10^17): the guess was right.
    proven &= (n17 > _POWERS[16]) & (n17 < _POWERS[17])
    # Half the ulp of |v|, scaled like s.
    half_ulp = np.ldexp(p_hi, exponent - 54)

    # 16 digits: s / 10 = q16 + tail16 / 10 rounds up when tail16 > 5, and
    # the rounded value lies gap16 = 5 - |tail16 - 5| from s. Likewise 15.
    q16 = n17 // 10
    q15 = n17 // 100
    tail16 = (n17 - q16 * 10) + r
    tail15 = (n17 - q15 * 100) + r
    tie16 = np.abs(tail16 - 5.0)
    tie15 = np.abs(tail15 - 50.0)
    gap16 = 5.0 - tie16
    gap15 = 50.0 - tie15
    proven &= ((np.minimum(tie16, tie15) >= MARGIN) & (0.5 - np.abs(r) >= MARGIN)
               & (np.abs(gap16 - half_ulp) >= MARGIN) & (np.abs(gap15 - half_ulp) >= MARGIN))

    # A 15-digit decimal within half an ulp is unique, and a shorter one
    # padded with zeros would be it. Among 16- or 17-digit ones repr picks
    # the nearest. The 15-digit candidate is a 16-digit one too, so use15
    # implies use16.
    use15 = gap15 < half_ulp
    use16 = gap16 < half_ulp
    digits = np.where(use15, q15 + (tail15 > 50.0),
                      np.where(use16, q16 + (tail16 > 5.0), n17))
    count = 17 - use16 - use15
    decpt = e10 + 1
    # Rounding up to 10^count carries into the next decade.
    carry = digits == _POWERS[count]
    digits[carry] //= 10
    decpt += carry
    zeros = np.flatnonzero(proven & (digits % 10 == 0))
    while zeros.size:
        digits[zeros] //= 10
        count[zeros] -= 1
        zeros = zeros[digits[zeros] % 10 == 0]
    return digits, count, decpt, proven


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x = high + low exactly, each with at most 26 significant bits."""
    c = _SPLIT * x
    high = c - (c - x)
    return high, x - high


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(hi, lo, quads), built at first use from exact integers.

    hi[e - _MIN_EXP] is the double nearest 10^e and lo the double nearest
    10^e - hi. quads[i] is the four ASCII digits of i, 0000 to 9999, as one
    little-endian uint32.
    """
    hi, lo = [], []
    for e in range(_MIN_EXP, _MAX_EXP + 1):
        power = 10 ** abs(e)
        if e >= 0:
            h = float(power)
            low = float(power - int(h))
        else:
            h = 1 / power  # int / int is correctly rounded
            num, den = h.as_integer_ratio()
            low = (den - num * power) / (den * power)
        hi.append(h)
        lo.append(low)
    numbers = np.arange(10000)
    quads = np.stack([numbers // 1000, numbers // 100 % 10, numbers // 10 % 10,
                      numbers % 10], axis=1).astype(np.uint8) + ord("0")
    return np.array(hi), np.array(lo), quads.view("<u4").ravel()


def _block_texts(values: np.ndarray) -> list[str]:
    """float_texts of one block, built as one ASCII buffer.

    The values are sorted by layout group: sign, digit count, and the point
    position (fixed notation) or the exponent's sign and width. Each group's
    texts then fill one (rows, length) slice of the buffer from its
    template. Texts are separated by commas; group 0, the values left to
    float.__repr__, holds empty texts until repr fills them in.
    """
    digits, count, decpt, proven = shortest_digits(values)
    exponent = decpt - 1
    place = np.where((decpt <= -4) | (decpt > 16),
                     20 + 2 * (exponent < 0) + (np.abs(exponent) >= 100), decpt + 3)
    group = np.where(proven, 1 + (np.signbit(values) * 18 + count) * 24 + place, 0)
    order = np.argsort(group.astype(np.int16), kind="stable")
    sizes = np.bincount(group)
    digits, count, exponent = digits[order], count[order], np.abs(exponent[order])

    # One row per value: the exponent's three digits, then the value's
    # digits, left-aligned (digit i in column 3 + i).
    _, _, quads = _tables()
    chars = np.empty((values.size, 20), dtype=np.uint8)
    words = chars.view("<u4")
    left = digits * _POWERS[17 - count]
    lead = left // _POWERS[16]
    rest = left - lead * _POWERS[16]
    high = rest // _POWERS[8]
    for j, part in ((1, high), (3, rest - high * _POWERS[8])):
        top = part // 10000
        words[:, j] = quads[top]
        words[:, j + 1] = quads[part - top * 10000]
    words[:, 0] = quads[exponent * 10 + lead]

    keys = np.flatnonzero(sizes).tolist()
    templates = [_template(key) for key in keys]
    counts = sizes[keys].tolist()
    buffer = np.empty(sum(m * base.size for m, (base, _) in zip(counts, templates)),
                      dtype=np.uint8)
    at = start = 0
    for m, (base, runs) in zip(counts, templates):
        rows = buffer[at:at + m * base.size].reshape(m, base.size)
        rows[:] = base
        for column, first, width in runs:
            rows[:, column:column + width] = chars[start:start + m, first:first + width]
        at += rows.size
        start += m
    texts = buffer.tobytes().decode("ascii").split(",")
    texts.pop()
    for i in range(sizes[0]):
        texts[i] = float.__repr__(float(values[order[i]]))
    ordered = np.empty(values.size, dtype=object)
    ordered[order] = texts
    return ordered.tolist()


@functools.cache
def _template(group: int) -> tuple[np.ndarray, tuple[tuple[int, int, int], ...]]:
    """(characters, runs) of a layout group's texts.

    characters is the text and its separator as ASCII, constant characters
    in place. Each run (column, first, width) copies columns first to
    first + width of _block_texts' character rows to the text's columns
    from column on. Group 0 is the empty text.
    """
    if group == 0:
        return np.frombuffer(b",", dtype=np.uint8), ()
    negative, rest = divmod(group - 1, 18 * 24)
    count, place = divmod(rest, 24)
    text = "-" if negative else ""
    runs = []

    def copy(first: int, width: int) -> None:
        nonlocal text
        runs.append((len(text), first, width))
        text += "?" * width

    if place >= 20:  # scientific notation
        copy(3, 1)
        if count > 1:
            text += "."
            copy(4, count - 1)
        text += "e-" if place >= 22 else "e+"
        copy(*((0, 3) if place % 2 else (1, 2)))
    else:
        decpt = place - 3
        if decpt <= 0:
            text += "0." + "0" * -decpt
            copy(3, count)
        elif decpt < count:
            copy(3, decpt)
            text += "."
            copy(3 + decpt, count - decpt)
        else:
            copy(3, count)
            text += "0" * (decpt - count) + ".0"
    return np.frombuffer((text + ",").encode("ascii"), dtype=np.uint8), tuple(runs)
