"""Grid and sparse tripartite state containers."""

import numpy as np
import pytest

from gradkick import GridState
from gradkick.oracle import DomainLabel
from gradkick.states import (GridSizeError, SparseTerm, SparseTripartiteState,
                             check_grid_bits, grid_index_of, grid_point_of)


def test_grid_index_row_major_first_axis_slowest():
    # (g1, g2) -> g1 * 2^n + g2 for p = 2.
    n = 3
    assert grid_index_of((0, 0), n, 2) == 0
    assert grid_index_of((0, 5), n, 2) == 5
    assert grid_index_of((1, 0), n, 2) == 8
    assert grid_index_of((7, 7), n, 2) == 63
    assert grid_index_of((2, 3), n, 2) == 19


def test_grid_index_round_trip_exhaustive():
    for n, p in ((1, 1), (2, 1), (2, 3), (3, 2)):
        for flat in range(1 << (n * p)):
            g = grid_point_of(flat, n, p)
            assert grid_index_of(g, n, p) == flat
        # Lexicographic order of tuples agrees with flat order.
        points = [grid_point_of(i, n, p) for i in range(1 << (n * p))]
        assert points == sorted(points)


def test_grid_index_validation():
    with pytest.raises(ValueError):
        grid_index_of((4,), 2, 1)
    with pytest.raises(ValueError):
        grid_index_of((0,), 2, 2)
    with pytest.raises(ValueError):
        grid_point_of(16, 2, 2)
    with pytest.raises(ValueError):
        grid_point_of(-1, 2, 2)


def test_grid_state_basis_one_hot():
    expected = np.zeros(16, dtype=complex)
    expected[7] = 1.0
    state = GridState(n=2, p=2, amplitudes=expected)
    assert np.array_equal(state.amplitudes, expected)
    assert state.grid_of(7) == (1, 3)
    assert state.norm() == 1.0


def test_grid_state_rejects_unnormalized():
    amps = np.ones(4, dtype=complex)
    with pytest.raises(ValueError, match="norm"):
        GridState(n=2, p=1, amplitudes=amps)
    with pytest.raises(ValueError, match="norm"):
        GridState(n=2, p=1, amplitudes=np.zeros(4, dtype=complex))
    assert GridState(n=2, p=1, amplitudes=amps / 2).norm() == 1.0


def test_grid_state_shape_validation():
    with pytest.raises(ValueError):
        GridState(n=2, p=1, amplitudes=np.full(3, 3 ** -0.5, dtype=complex))
    with pytest.raises(ValueError):
        GridState(n=0, p=1, amplitudes=np.ones(1, dtype=complex))


def test_check_grid_bits_guard():
    check_grid_bits(13, 2)  # 26 bits: exactly at the default guard
    with pytest.raises(GridSizeError, match="27"):
        check_grid_bits(27, 1)
    with pytest.raises(GridSizeError):
        check_grid_bits(14, 2)
    check_grid_bits(14, 2, max_grid_bits=28)  # explicit override
    with pytest.raises(GridSizeError):
        check_grid_bits(3, 1, max_grid_bits=2)
    with pytest.raises(ValueError):
        check_grid_bits(0, 1)


def test_sparse_state_rejects_duplicate_triples():
    label = DomainLabel.base((0.0,))
    terms = (
        SparseTerm(label, 0, (1,), 0.5 ** 0.5 + 0j),
        SparseTerm(label, 0, (1,), 0.5 ** 0.5 + 0j),
    )
    with pytest.raises(ValueError, match="duplicate"):
        SparseTripartiteState(n=2, p=1, terms=terms)


def test_sparse_state_rejects_bad_grid_and_norm():
    label = DomainLabel.base((0.0,))
    with pytest.raises(ValueError, match="out of range"):
        SparseTripartiteState(
            n=2, p=1, terms=(SparseTerm(label, 0, (4,), 1.0 + 0j),))
    with pytest.raises(ValueError, match="norm"):
        SparseTripartiteState(
            n=2, p=1, terms=(SparseTerm(label, 0, (0,), 0.5 + 0j),))
    with pytest.raises(ValueError, match="norm"):
        SparseTripartiteState(n=2, p=1, terms=())
    # The norm is checked again whenever an operator swaps the amplitudes.
    state = SparseTripartiteState(
        n=2, p=1, terms=(SparseTerm(label, 0, (0,), 1.0 + 0j),))
    with pytest.raises(ValueError, match="norm"):
        state.replace(amplitudes=np.array([0.5 + 0j]))


def test_sparse_state_rejects_mixed_evaluation_points():
    terms = (
        SparseTerm(DomainLabel.base((0.0,)), 0, (0,), 0.6 + 0j),
        SparseTerm(DomainLabel.base((0.5,)), 0, (1,), 0.8 + 0j),
    )
    with pytest.raises(ValueError, match="mix evaluation points"):
        SparseTripartiteState(n=2, p=1, terms=terms)


def test_sparse_state_terms_round_trip_through_arrays():
    x = (0.25, -0.5)
    terms = (
        SparseTerm(DomainLabel.base(x), 3, (1, 2), 0.6 + 0j),
        SparseTerm(DomainLabel.shifted(x, (3, 0)), 0, (3, 0), 0.0 + 0.8j),
    )
    state = SparseTripartiteState(n=2, p=2, terms=terms)
    assert tuple(state) == terms
    assert state.terms[-1] == terms[-1]
    assert state.labels.tolist() == [-1, 12] and state.grid.tolist() == [6, 12]
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0  # arrays are shared between states, so frozen


def test_from_arrays_checks_every_array():
    def build(labels=(0, 1, 2, 3), grid=(0, 1, 2, 3), amplitudes=np.full(4, 0.5 + 0j)):
        return SparseTripartiteState.from_arrays(2, 1, (0.0,), np.array(labels),
                                                 np.zeros(4), np.array(grid), amplitudes)

    with pytest.raises(ValueError, match="label code 4 out of range"):
        build(labels=(0, 1, 2, 4))
    with pytest.raises(ValueError, match="grid index 4 out of range"):
        build(grid=(0, 1, 2, 4))
    with pytest.raises(ValueError, match="duplicate"):
        build(labels=(0, 1, 1, 3), grid=(0, 1, 1, 3))
    with pytest.raises(ValueError, match="norm"):
        build(amplitudes=np.full(4, 0.6 + 0j))
    state = build()
    rotated = state.replace(amplitudes=state.amplitudes[::-1] * 1j)
    assert rotated.labels is state.labels and not rotated.amplitudes.flags.writeable
