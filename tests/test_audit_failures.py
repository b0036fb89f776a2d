"""Each asserted check of the theorem audit can fail, alone, and `verify`
then reports that one failure and exits 1.

Each case perturbs one input of verify_theorem by patching a name bound in
gradkick.analysis, then runs the command on a config whose audit otherwise
passes.
"""

import cmath
import dataclasses
import json

import numpy as np
import pytest

from gradkick import analysis
from gradkick.cli import main
from gradkick.config import ResultRecord

# The worked example: planned parameters, every inequality holds and the
# audit passes (projected amplitude 0.999, linear part 1, |psi_N| 0.165,
# |psi_D| 0.044).
QUADRATIC = {
    "function": {"kind": "quadratic", "coefficients": [0.0], "hessian": [[1.0]]},
    "x": [0.0],
    "accuracy": {"gamma": 1.0, "delta": 0.5, "epsilon": 0.5},
    "domain": {"center": [0.0], "half_width": [1.0]},
}

# A linear objective whose audit runs the leakage check, and passes it.
LINEAR = {
    "function": {"kind": "linear", "coefficients": [0.5]},
    "x": [0.0],
    "accuracy": {"gamma": 4.0, "delta": 0.5, "epsilon": 0.5},
    "domain": {"center": [0.0], "half_width": [8.0]},
}

# The worked example's planned parameters, audited against a higher epsilon.
STRICT = {**QUADRATIC, "accuracy": {**QUADRATIC["accuracy"], "epsilon": 0.9995},
          "params": {"n": 4, "nu": 0.0004425020589550919,
                     "lambda": 59.94508570488086, "mu": 0.005560644870446696}}


def wrap(monkeypatch, name, change):
    """Patch analysis.<name> to pass its result through change."""
    original = getattr(analysis, name)
    monkeypatch.setattr(analysis, name, lambda *a, **k: change(original(*a, **k)))


def perturb_psi_D(monkeypatch):
    def change(dec):
        dec.psi_D = dec.psi_D + 1e-9
        return dec
    wrap(monkeypatch, "decompose_block", change)


def rotate_chi(monkeypatch):
    def change(result):
        chi, calls = result
        amps = chi.amplitudes.copy()
        top = int(np.argmax(np.abs(amps)))
        amps[top] *= cmath.exp(1e-3j)
        chi.amplitudes = amps
        return chi, calls
    wrap(monkeypatch, "run_pipeline", change)


def zero_bound(name):
    def patch(monkeypatch):
        monkeypatch.setattr(analysis, name, lambda *args: 0.0)
    return patch


def low_projection(call, amplitude):
    """Replace the result of success_projection's call-th call: verify_theorem
    projects the pipeline's state first, then the linear part's axis by axis,
    so call 1 is axis 0's window probability (the only axis at p = 1)."""
    def patch(monkeypatch):
        original = analysis.success_projection
        calls = []

        def projection(*args):
            calls.append(args)
            if len(calls) == call + 1:
                return amplitude, amplitude ** 2
            return original(*args)
        monkeypatch.setattr(analysis, "success_projection", projection)
    return patch


def failing_leakage(field):
    def patch(monkeypatch):
        wrap(monkeypatch, "leakage_check",
             lambda report: dataclasses.replace(report, **{field: False}))
    return patch


def inequalities_at_half_epsilon(monkeypatch):
    # The parameters were planned for epsilon 0.5, so they hold there.
    original = analysis.check_inequalities
    spec = analysis.AccuracySpec(**QUADRATIC["accuracy"])
    monkeypatch.setattr(analysis, "check_inequalities",
                        lambda params, _, *rest: original(params, spec, *rest))


CASES = [
    ("reconstruction", QUADRATIC, perturb_psi_D, "error "),
    ("dual_path", QUADRATIC, rotate_chi, "pipeline/reference disagreement "),
    ("psi_D_bound", QUADRATIC, zero_bound("psi_D_norm_bound"), "psi_D norm "),
    ("psi_N_bound", QUADRATIC, zero_bound("psi_N_norm_bound"), "psi_N norm "),
    ("triangle", QUADRATIC, low_projection(0, 0.6), "projected amplitude 0.6 below "),
    ("leakage_amplitude", LINEAR, failing_leakage("amplitude_ok"),
     "out-of-window amplitude "),
    ("leakage_factorization", LINEAR, failing_leakage("factorization_ok"),
     "factorization error "),
    ("linear_floor", QUADRATIC, low_projection(1, 0.8), "linear projection "),
    ("epsilon_floor", STRICT, inequalities_at_half_epsilon, "projected amplitude "),
]


@pytest.mark.parametrize("config", [QUADRATIC, LINEAR])
def test_unperturbed_configs_pass(config, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["verify", "--config", str(path)]) == 0
    assert "all asserted checks passed" in capsys.readouterr().out


@pytest.mark.parametrize("code, config, perturb, message", CASES,
                         ids=[case[0] for case in CASES])
def test_each_asserted_check_fails_alone(code, config, perturb, message, tmp_path,
                                         capsys, monkeypatch):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "verify.json"
    perturb(monkeypatch)
    assert main(["verify", "--config", str(path), "--out", str(out)]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("FAILED: ")]
    # Each failure is led by its stable code, the case's id.
    assert len(failed) == 1 and failed[0].startswith(f"FAILED: {code}: {message}"), failed
    record = ResultRecord.from_json(out.read_text())
    assert record.theorem.failures == (failed[0][len("FAILED: "):],)
