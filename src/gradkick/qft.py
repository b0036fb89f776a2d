"""Quantum Fourier transform, dense and gate-level.

Convention: there is one transform, with the positive kernel,
amplitudes[h] <- 2^(-n/2) sum_g exp(+2 pi i h g / 2^n) a[g] per axis, and
the pipeline applies it both times (no conjugate on the second
application). Its inverse, the conjugate kernel, is never applied. numpy's
inverse FFT with orthonormal scaling is exactly this kernel, so the dense
path rides on pocketfft, which is deterministic. The gate path is built
independently and includes the final bit-reversal swaps so its matrix
equals the dense transform rather than a permutation of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

MAX_GATE_QUBITS = 12  # dense verification guard

_SQRT2 = math.sqrt(2.0)


def qft_amplitudes(amplitudes: np.ndarray, n: int, p: int, *,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Per-axis transform of one raw length-2^(pn) array; no norm requirement.

    out, a contiguous complex128 array of 2^(pn) values, receives the result
    and is returned; it may be amplitudes itself, which is then transformed in
    place with the bits of the copying call (tests/test_qft.py checks both).
    numpy's ifftn takes out from numpy 2.0 on.
    """
    shape = (1 << n,) * p
    arr = np.asarray(amplitudes, dtype=complex).reshape(shape)
    if out is None:
        return np.fft.ifftn(arr, norm="ortho").reshape(-1)
    if not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous, so that its grid view is not a copy")
    np.fft.ifftn(arr, norm="ortho", out=out.reshape(shape))
    return out


@dataclass(frozen=True)
class Hadamard:
    target: int


@dataclass(frozen=True)
class ControlledPhase:
    control: int
    target: int
    angle: float


@dataclass(frozen=True)
class Swap:
    a: int
    b: int


Gate = Union[Hadamard, ControlledPhase, Swap]


def qft_gate_circuit(n: int) -> list[Gate]:
    """Standard circuit: n Hadamards, n(n-1)/2 controlled phases, then swaps.

    Qubit 0 is the most significant bit of the register index. The trailing
    swaps undo the bit-reversed output order so the circuit's matrix equals
    qft_amplitudes' single-axis transform.
    """
    if not 1 <= n <= MAX_GATE_QUBITS:
        raise ValueError(f"n must be in 1..{MAX_GATE_QUBITS}, got {n}")
    gates: list[Gate] = []
    for q in range(n):
        gates.append(Hadamard(target=q))
        for t in range(q + 1, n):
            gates.append(ControlledPhase(control=t, target=q,
                                         angle=2.0 * math.pi / float(1 << (t - q + 1))))
    for q in range(n // 2):
        gates.append(Swap(a=q, b=n - 1 - q))
    return gates


def apply_gates(state: np.ndarray, gates: Sequence[Gate]) -> np.ndarray:
    """Apply a gate list to a dense register state of length 2^w."""
    vec = np.asarray(state, dtype=complex)
    width = vec.size.bit_length() - 1
    if vec.ndim != 1 or vec.size != (1 << width) or vec.size < 2:
        raise ValueError("register state length must be a power of two, at least 2")
    arr = vec.reshape((2,) * width).copy()
    for gate in gates:
        if isinstance(gate, Hadamard):
            _check_qubit(gate.target, width)
            view = np.moveaxis(arr, gate.target, 0)
            top = view[0].copy()
            bottom = view[1].copy()
            view[0] = (top + bottom) / _SQRT2
            view[1] = (top - bottom) / _SQRT2
        elif isinstance(gate, ControlledPhase):
            _check_qubit(gate.control, width)
            _check_qubit(gate.target, width)
            if gate.control == gate.target:
                raise ValueError("control and target must differ")
            view = np.moveaxis(arr, (gate.control, gate.target), (0, 1))
            view[1, 1] = view[1, 1] * np.exp(1j * gate.angle)
        elif isinstance(gate, Swap):
            _check_qubit(gate.a, width)
            _check_qubit(gate.b, width)
            arr = np.ascontiguousarray(np.swapaxes(arr, gate.a, gate.b))
        else:
            raise TypeError(f"unknown gate {gate!r}")
    return arr.reshape(-1)


def _check_qubit(q: int, width: int) -> None:
    if not 0 <= q < width:
        raise ValueError(f"qubit index {q} outside register of width {width}")
