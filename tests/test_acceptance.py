"""Acceptance gate: the nine contract criteria, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print. Every criterion both prints its verdict and asserts it, so a red
line and a red test always agree.
"""

import cmath
import math
import time

import numpy as np

from gradkick import (AccuracySpec, DomainBox, FixedPointFormat,
                      classical_baseline, decode_gradient, decompose_state,
                      leakage_check, linear_model, quadratic_model,
                      run_pipeline, select_parameters, sinusoidal_model,
                      verify_theorem)
from gradkick.algorithm import (axis_decode_values, plan_run_format,
                                sample_measurements)
from gradkick.analysis import psi_D_norm_bound, psi_N_norm_bound
from gradkick.operators import (ResidualEntanglementError,
                                apply_phase_rotation, collapse_to_grid)
from gradkick.oracle import DomainLabel
from gradkick.params import AlgorithmParams
from gradkick.qft import (ControlledPhase, Hadamard, apply_gates,
                          qft_amplitudes, qft_gate_circuit)
from gradkick.states import SparseTerm, SparseTripartiteState

WORKED_SPEC = AccuracySpec(gamma=1.0, delta=0.5, epsilon=0.5)

EXACT_PARAMS = AlgorithmParams(n=3, nu=1e-9, lam=1.0, mu=0.125)
EXACT_MODEL = linear_model([-1.0], DomainBox.cube(1, 1.0))


def report(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def worked_setup():
    params = select_parameters(WORKED_SPEC, L=1.0, M=1.0, p=1)
    model = quadratic_model([0.0], [[1.0]], DomainBox.cube(1, 1.0))
    return model, params


def test_criterion_1_exact_linear_determinism():
    started = time.perf_counter()
    chi, calls = run_pipeline(EXACT_MODEL, [0.0], EXACT_PARAMS)
    elapsed = time.perf_counter() - started
    probs = chi.probabilities()
    top = int(np.argmax(probs))
    decoded = decode_gradient(chi.grid_of(top), EXACT_PARAMS)[0]
    ok = (calls == 2 and chi.grid_of(top) == (1,)
          and probs[top] >= 1.0 - 1e-6 and decoded == -1.0 and elapsed < 1.0)
    report(1, "exact linear determinism", ok,
           f"g={chi.grid_of(top)}, prob={probs[top]:.15f}, "
           f"decode={decoded}, calls={calls}, {elapsed:.3f}s")


def test_criterion_2_worked_example_guarantee():
    started = time.perf_counter()
    model, params = worked_setup()
    rep = verify_theorem(model, [0.0], WORKED_SPEC, params)
    elapsed = time.perf_counter() - started
    min_slack = min(c.slack for c in rep.inequalities.checks)
    ok = (rep.projected_amplitude >= 0.5 and min_slack >= -1e-12
          and rep.guarantee_asserted and rep.ok and elapsed < 5.0)
    report(2, "planned-parameter success floor", ok,
           f"|P chi|={rep.projected_amplitude:.12f}, min slack={min_slack:.3e}, "
           f"{elapsed:.3f}s")


def test_criterion_3_error_split_bounds():
    box = DomainBox.cube(1, 2.0)
    models = (linear_model([-0.9], box),
              quadratic_model([0.3], [[1.0]], box),
              sinusoidal_model(0.7, [1.1], box))
    worst_rec = 0.0
    worst_d = -math.inf
    worst_n = -math.inf
    for model in models:
        for n in range(1, 7):
            params = AlgorithmParams(n=n, nu=1e-4, lam=0.3, mu=2.0 ** -n)
            fmt = plan_run_format(model, [0.0], params)
            dec = decompose_state(model, [0.0], params, fmt)
            worst_rec = max(worst_rec, dec.reconstruction_error)
            worst_d = max(worst_d, dec.psi_D_norm - psi_D_norm_bound(params))
            worst_n = max(worst_n, dec.psi_N_norm
                          - psi_N_norm_bound(params, model.hess_bound))
    ok = worst_rec <= 1e-12 and worst_d <= 1e-12 and worst_n <= 1e-12
    report(3, "state split within both norm bounds", ok,
           f"worst reconstruction={worst_rec:.3e}, "
           f"worst rounding excess={worst_d:.3e}, "
           f"worst curvature excess={worst_n:.3e}")


def test_criterion_4_leakage_tail_bound():
    worst_excess = -math.inf
    worst_fact = 0.0
    vacuous = False
    for n in range(2, 9):
        params = AlgorithmParams(n=n, nu=1e-9, lam=1.0, mu=0.25)
        # Gradient half a decode step off the grid: the hardest case for
        # the out-of-window tail.
        a = 1.5 / ((1 << n) * params.lam * params.mu)
        model = linear_model([a], DomainBox.cube(1, 64.0))
        rep = leakage_check(model, [0.0], params, delta=0.5)
        vacuous = vacuous or rep.vacuous
        worst_excess = max(worst_excess, max(rep.per_axis_max) - rep.bound)
        worst_fact = max(worst_fact, rep.factorization_error)
    ok = not vacuous and worst_excess <= 1e-12 and worst_fact <= 1e-10
    report(4, "off-grid leakage within cosecant bound", ok,
           f"worst bound excess={worst_excess:.3e} (n=2 saturates exactly), "
           f"worst factorization gap={worst_fact:.3e}")


def test_criterion_5_clean_uncomputation():
    box1 = DomainBox.cube(1, 2.0)
    box2 = DomainBox.cube(2, 2.0)
    models = (linear_model([-0.9], box1),
              linear_model([-0.9, 0.4], box2),
              quadratic_model([0.3], [[1.0]], box1),
              quadratic_model([0.3, -0.2], [[1.0, 0.25], [0.25, 1.0]], box2),
              sinusoidal_model(0.7, [1.1], box1),
              sinusoidal_model(0.7, [1.1, -0.6], box2))
    runs = 0
    worst_norm_gap = 0.0
    for model in models:
        for n in range(1, 6):
            params = AlgorithmParams(n=n, nu=1e-4, lam=0.3, mu=2.0 ** -n)
            chi, calls = run_pipeline(model, [0.0] * model.p, params)
            runs += 1
            worst_norm_gap = max(worst_norm_gap,
                                 abs(float(np.sum(chi.probabilities())) - 1.0))
            assert calls == 2
    # Negative control: a term left outside the measured sector must raise.
    label = DomainLabel.base((0.0,))
    stray = SparseTripartiteState(n=2, p=1, terms=(
        SparseTerm(label, 0, (0,), math.sqrt(1.0 - 1e-18) + 0j),
        SparseTerm(DomainLabel.shifted((0.0,), (1,)), 0, (1,), 1e-9 + 0j)))
    try:
        collapse_to_grid(stray, label, expected_word=0)
        caught = False
    except ResidualEntanglementError:
        caught = True
    ok = runs == 30 and worst_norm_gap < 1e-9 and caught
    report(5, "registers disentangle before measurement", ok,
           f"{runs} clean collapses, worst norm gap={worst_norm_gap:.3e}, "
           f"stray term raised={caught}")


def test_criterion_6_circuit_and_phase_equivalence():
    worst_gate = 0.0
    counts_ok = True
    for n in range(1, 7):
        gates = qft_gate_circuit(n)
        n_h = sum(isinstance(g, Hadamard) for g in gates)
        n_cp = sum(isinstance(g, ControlledPhase) for g in gates)
        counts_ok = counts_ok and n_h == n and n_cp == n * (n - 1) // 2
        size = 1 << n
        for col in range(size):
            e = np.zeros(size, dtype=complex)
            e[col] = 1.0
            diff = np.abs(apply_gates(e, gates) - qft_amplitudes(e, n, 1))
            worst_gate = max(worst_gate, float(np.max(diff)))
    worst_phase = 0.0
    label = DomainLabel.base((0.0,))
    for bits in range(1, 13):
        fmt = FixedPointFormat(bits=bits, a0=-0.01 * (1 << (bits - 1)), a1=0.01)
        align = cmath.exp(2j * math.pi * 0.3 * fmt.a0)
        for word in range(fmt.num_words):
            state = SparseTripartiteState(
                n=1, p=1, terms=(SparseTerm(label, word, (0,), 1.0 + 0j),))
            direct = apply_phase_rotation(state, 0.3, fmt, variant="direct")
            perbit = apply_phase_rotation(state, 0.3, fmt, variant="per-bit")
            gap = abs(perbit.terms[0].amplitude * align
                      - direct.terms[0].amplitude)
            worst_phase = max(worst_phase, gap)
    ok = counts_ok and worst_gate <= 1e-10 and worst_phase <= 1e-12
    report(6, "gate circuit and per-bit phase agree", ok,
           f"gate/dense gap={worst_gate:.3e}, per-bit/direct gap="
           f"{worst_phase:.3e}, counts_ok={counts_ok}")


def test_criterion_7_oracle_call_counts():
    _, quantum_calls = run_pipeline(EXACT_MODEL, [0.0], EXACT_PARAMS)
    classical = []
    for p in range(1, 5):
        model = linear_model([0.5] * p, DomainBox.cube(p, 1.0))
        _, calls = classical_baseline(model, [0.0] * p, step=0.125)
        classical.append(calls)
    ok = quantum_calls == 2 and classical == [2, 3, 4, 5]
    report(7, "two oracle calls beat p+1 classical", ok,
           f"quantum={quantum_calls}, classical={classical}")


def test_criterion_8_sampling_statistics():
    started = time.perf_counter()
    model, params = worked_setup()
    chi, _ = run_pipeline(model, [0.0], params)
    vals = axis_decode_values(params)
    window = np.flatnonzero(np.abs(vals) < WORKED_SPEC.delta)
    q = float(np.sum(chi.probabilities()[window]))
    shots = 100000
    estimates = sample_measurements(chi, shots, seed=42, params=params)
    in_window = frozenset(int(g) for g in window)
    freq = sum(1 for e in estimates if e.g[0] in in_window) / shots
    sigma3 = 3.0 * math.sqrt(q * (1.0 - q) / shots)
    elapsed = time.perf_counter() - started
    ok = abs(freq - q) <= sigma3 and elapsed < 10.0
    report(8, "measured frequency matches projection", ok,
           f"q={q:.12f}, freq={freq:.5f}, |diff|={abs(freq - q):.3e} "
           f"<= 3sigma={sigma3:.3e}, {elapsed:.3f}s")


def test_criterion_9_implementation_invariance():
    chi_mod, _ = run_pipeline(EXACT_MODEL, [0.0], EXACT_PARAMS,
                              group_mode="modular")
    chi_xor, _ = run_pipeline(EXACT_MODEL, [0.0], EXACT_PARAMS,
                              group_mode="xor")
    group_gap = float(np.max(np.abs(chi_mod.amplitudes - chi_xor.amplitudes)))
    fmt = plan_run_format(EXACT_MODEL, [0.0], EXACT_PARAMS)
    chi_bit, _ = run_pipeline(EXACT_MODEL, [0.0], EXACT_PARAMS,
                              phase_variant="per-bit")
    align = cmath.exp(2j * math.pi * EXACT_PARAMS.lam * fmt.a0)
    phase_gap = float(np.max(np.abs(chi_bit.amplitudes * align
                                    - chi_mod.amplitudes)))
    ok = group_gap <= 1e-12 and phase_gap <= 1e-12
    report(9, "group and phase variants agree", ok,
           f"modular/xor gap={group_gap:.3e}, direct/per-bit gap={phase_gap:.3e}")
