"""Dense and gate-level Fourier transform tests.

The dense path is checked against an explicitly built DFT matrix with the
positive kernel, so the fft library's conventions are pinned down by an
independent construction, not assumed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradkick.qft import (ControlledPhase, Hadamard, Swap, apply_gates,
                          qft_amplitudes, qft_gate_circuit)


def dft_matrix(n: int) -> np.ndarray:
    """Positive-kernel DFT: F[h, g] = exp(+2 pi i h g / 2^n) / sqrt(2^n)."""
    size = 1 << n
    h, g = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    return np.exp(2j * np.pi * h * g / size) / np.sqrt(size)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_forward_matches_explicit_positive_kernel(n):
    rng = np.random.default_rng(n)
    size = 1 << n
    v = rng.normal(size=size) + 1j * rng.normal(size=size)
    out = qft_amplitudes(v, n, 1)
    assert np.max(np.abs(out - dft_matrix(n) @ v)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_inverse_matches_conjugate_kernel(n):
    # The package applies only the forward transform; tests undo it with
    # numpy's orthonormal forward FFT, which must be the conjugate kernel.
    rng = np.random.default_rng(10 + n)
    size = 1 << n
    v = rng.normal(size=size) + 1j * rng.normal(size=size)
    assert np.max(np.abs(np.fft.fft(v, norm="ortho") - dft_matrix(n).conj() @ v)) < 1e-12
    out = qft_amplitudes(v, n, 1)
    assert np.max(np.abs(dft_matrix(n).conj() @ out - v)) < 1e-12


def test_two_axis_transform_is_kronecker_of_single_axis():
    n, p = 2, 2
    rng = np.random.default_rng(3)
    v = rng.normal(size=16) + 1j * rng.normal(size=16)
    out = qft_amplitudes(v, n, p)
    F = dft_matrix(n)
    assert np.max(np.abs(out - np.kron(F, F) @ v)) < 1e-12


@given(n=st.integers(min_value=1, max_value=6), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_forward_then_inverse_is_identity(n, seed):
    rng = np.random.default_rng(seed)
    size = 1 << n
    v = rng.normal(size=size) + 1j * rng.normal(size=size)
    v /= np.linalg.norm(v)
    out = qft_amplitudes(v, n, 1)
    back = np.fft.fft(out, norm="ortho")
    assert np.max(np.abs(back - v)) < 1e-12
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


@pytest.mark.parametrize("n,p", [(1, 1), (5, 1), (3, 2), (5, 3), (2, 7)])
def test_in_place_transform_equals_the_copying_call(n, p):
    v = np.random.default_rng(n * 10 + p).normal(size=(1 << (n * p), 2)) @ np.array([1.0, 1j])
    expected = qft_amplitudes(v, n, p)
    out = qft_amplitudes(v, n, p, out=v)
    assert out is v
    assert v.tobytes() == expected.tobytes()
    with pytest.raises(ValueError, match="C-contiguous"):
        qft_amplitudes(expected, n, p, out=np.empty(2 * v.size, dtype=complex)[::2])


@pytest.mark.parametrize("n", range(1, 9))
def test_gate_circuit_counts(n):
    gates = qft_gate_circuit(n)
    hadamards = [g for g in gates if isinstance(g, Hadamard)]
    phases = [g for g in gates if isinstance(g, ControlledPhase)]
    swaps = [g for g in gates if isinstance(g, Swap)]
    assert len(hadamards) == n
    assert len(phases) == n * (n - 1) // 2
    assert len(swaps) == n // 2
    assert len(gates) == len(hadamards) + len(phases) + len(swaps)


def test_gate_circuit_guard():
    with pytest.raises(ValueError):
        qft_gate_circuit(0)
    with pytest.raises(ValueError):
        qft_gate_circuit(13)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_gate_circuit_matrix_equals_dense_forward(n):
    size = 1 << n
    gates = qft_gate_circuit(n)
    for column in range(size):
        e = np.zeros(size, dtype=complex)
        e[column] = 1.0
        via_gates = apply_gates(e, gates)
        via_dense = qft_amplitudes(e, n, 1)
        assert np.max(np.abs(via_gates - via_dense)) < 1e-10


def test_hadamard_gate_matrix():
    h = apply_gates(np.array([1.0, 0.0], dtype=complex), [Hadamard(0)])
    assert np.allclose(h, np.array([1.0, 1.0]) / np.sqrt(2.0))
    h = apply_gates(np.array([0.0, 1.0], dtype=complex), [Hadamard(0)])
    assert np.allclose(h, np.array([1.0, -1.0]) / np.sqrt(2.0))


def test_controlled_phase_only_touches_the_11_block():
    v = np.ones(4, dtype=complex)
    out = apply_gates(v, [ControlledPhase(control=0, target=1, angle=np.pi / 2)])
    # Index 3 is |11>; qubit 0 is the most significant bit.
    expected = np.ones(4, dtype=complex)
    expected[3] = np.exp(1j * np.pi / 2)
    assert np.allclose(out, expected)


def test_swap_gate_reorders_bits():
    v = np.zeros(4, dtype=complex)
    v[1] = 1.0  # |01>
    out = apply_gates(v, [Swap(0, 1)])
    expected = np.zeros(4, dtype=complex)
    expected[2] = 1.0  # |10>
    assert np.allclose(out, expected)


def test_apply_gates_validation():
    with pytest.raises(ValueError):
        apply_gates(np.zeros(3, dtype=complex), [])
    with pytest.raises(ValueError):
        apply_gates(np.zeros(4, dtype=complex), [Hadamard(2)])
    with pytest.raises(ValueError):
        apply_gates(np.zeros(4, dtype=complex),
                    [ControlledPhase(control=1, target=1, angle=0.1)])


def test_apply_gates_does_not_mutate_input():
    v = np.ones(4, dtype=complex) / 2.0
    original = v.copy()
    apply_gates(v, [Hadamard(0), Swap(0, 1)])
    assert np.array_equal(v, original)
