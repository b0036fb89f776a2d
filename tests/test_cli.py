"""CLI behavior: exit codes, records on disk, determinism, bench table."""

import json
import math

import numpy as np
import pytest

from gradkick import TheoremReport, verify_theorem
from gradkick import analysis, cli
from gradkick.cli import main, top_rows
from gradkick.config import ResultRecord, RowTable
from gradkick.states import GridAlignedState

PLANNED_QUADRATIC = {
    "function": {"kind": "quadratic", "coefficients": [0.0], "hessian": [[1.0]]},
    "x": [0.0],
    "accuracy": {"gamma": 1.0, "delta": 0.5, "epsilon": 0.5},
    "domain": {"center": [0.0], "half_width": [1.0]},
}

EXACT_LINEAR = {
    "function": {"kind": "linear", "coefficients": [-1.0]},
    "x": [0.0],
    "params": {"n": 3, "nu": 1e-9, "lambda": 1.0, "mu": 0.125},
    "domain": {"center": [0.0], "half_width": [1.0]},
    "shots": 12,
    "seed": 5,
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_plan_writes_record_and_exits_zero(tmp_path, capsys):
    cfg = write_config(tmp_path, PLANNED_QUADRATIC)
    out = tmp_path / "plan.json"
    assert main(["plan", "--config", cfg, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "n      = 4" in text
    assert "planning inequalities:" in text
    record = ResultRecord.from_json(out.read_text())
    assert record.command == "plan"
    assert record.params.n == 4
    assert record.inequalities.all_hold


def test_plan_requires_accuracy(tmp_path, capsys):
    cfg = write_config(tmp_path, EXACT_LINEAR)
    assert main(["plan", "--config", cfg]) == 2
    assert "accuracy" in capsys.readouterr().err


def test_plan_with_failing_inequalities_still_exits_zero(tmp_path, capsys):
    payload = dict(PLANNED_QUADRATIC)
    payload["params"] = {"n": 2, "nu": 0.1, "lambda": 1.0, "mu": 0.125}
    cfg = write_config(tmp_path, payload)
    assert main(["plan", "--config", cfg]) == 0
    text = capsys.readouterr().out
    assert "parameters (explicit)" in text
    assert "note: at least one inequality fails" in text


def test_run_records_are_byte_identical(tmp_path, capsys):
    cfg = write_config(tmp_path, EXACT_LINEAR)
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["run", "--config", cfg, "--out", str(first)]) == 0
    assert main(["run", "--config", cfg, "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    text = capsys.readouterr().out
    assert "2 oracle calls" in text
    assert "true gradient: [-1.0]" in text
    record = ResultRecord.from_json(first.read_text())
    assert record.oracle_calls == 2
    assert record.samples["shots"] == 12
    top = max(record.distribution, key=lambda e: e["probability"])
    assert top["g"] == [1] and top["gradient"] == [-1.0]


@pytest.mark.parametrize("column", [
    np.full(40, 1 / 40),
    np.array([0.5, 0.1, 0.1, 0.3, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.3]),
    np.array([0.2, 0.7, 0.1]),
    np.random.default_rng(3).integers(0, 4, 500) / 4.0,
    np.random.default_rng(4).random(1000),
])
def test_top_rows_equal_the_stable_argsort(column):
    for count in (1, 3, 8, 12):
        assert np.array_equal(top_rows(column, count),
                              np.argsort(-column, kind="stable")[:count])


def test_run_prints_tied_top_outcomes_in_grid_order(tmp_path, capsys, monkeypatch):
    # Every outcome at 1/16: the eight printed are the first eight rows.
    def uniform(chi, params, floor):
        g = np.arange(16)
        return RowTable(g=(g, g[:, None]), gradient=(g * 0.5, g[:, None]),
                        probability=(np.full(16, 1 / 16), None))

    monkeypatch.setattr(cli, "distribution_entries", uniform)
    assert main(["run", "--config", write_config(tmp_path, EXACT_LINEAR)]) == 0
    lines = capsys.readouterr().out.splitlines()
    start = lines.index("top outcomes (floor 1e-12, 16 recorded):") + 1
    assert lines[start:start + 8] == [
        f"  g=({g},)  gradient=[{g * 0.5}]  p=6.250000e-02" for g in range(8)]
    assert lines[start + 8].startswith("sampled 12 shots")


def test_run_config_shots_and_seed_reach_the_record(tmp_path):
    cfg = write_config(tmp_path, dict(EXACT_LINEAR, shots=5, seed=9))
    out = tmp_path / "run.json"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    record = ResultRecord.from_json(out.read_text())
    assert record.config.shots == 5
    assert record.config.seed == 9
    assert record.samples["shots"] == 5
    assert sum(c["count"] for c in record.samples["outcome_counts"]) == 5


@pytest.mark.parametrize("command", ["plan", "run", "verify", "bench"])
@pytest.mark.parametrize("flag, value", [
    ("--seed", "9"), ("--shots", "5"), ("--group-mode", "xor"),
    ("--phase-variant", "per-bit"), ("--max-grid-bits", "2"),
    ("--prob-floor", "0.1")])
def test_config_fields_have_no_flags(command, flag, value, tmp_path, capsys):
    # The config file is the only source of a run's values.
    cfg = write_config(tmp_path, PLANNED_QUADRATIC)
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--config", cfg, flag, value])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]


def test_verify_quadratic_passes(tmp_path, capsys):
    cfg = write_config(tmp_path, PLANNED_QUADRATIC)
    out = tmp_path / "verify.json"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "guarantee asserted" in text
    assert "all asserted checks passed" in text
    record = ResultRecord.from_json(out.read_text())
    assert record.theorem.ok
    assert record.theorem.success_probability > 0.99


def test_verify_negative_control_reports_but_exits_zero(tmp_path, capsys):
    payload = dict(PLANNED_QUADRATIC)
    # nu far above plan: precision inequality fails, nothing asserted breaks
    payload["params"] = {"n": 4, "nu": 0.4425020589550919,
                         "lambda": 59.94508570488086,
                         "mu": 0.005560644870446696}
    cfg = write_config(tmp_path, payload)
    assert main(["verify", "--config", cfg]) == 0
    text = capsys.readouterr().out
    assert "guarantee NOT asserted" in text
    assert "all asserted checks passed" in text


def test_verify_passes_a_linear_run_whose_phase_lies_near_an_integer(tmp_path, capsys):
    # At g = 5 the phase is 1 + 3.75e-10, where the closed form of the
    # leakage factor loses its phase and reports a factorization failure.
    cfg = write_config(tmp_path, {
        "function": {"kind": "linear", "coefficients": [3.000000003]},
        "x": [0.0],
        "accuracy": {"gamma": 1.0, "delta": 0.5, "epsilon": 0.5},
        "params": {"n": 3, "nu": 1e-9, "lambda": 1.0, "mu": 0.125},
    })
    assert main(["verify", "--config", cfg]) == 0
    assert "all asserted checks passed" in capsys.readouterr().out


def test_verify_record_reproduces_the_report(tmp_path):
    # Re-audit from the echoed config: every float must come back within
    # 1e-10 of the recorded report.
    cfg = write_config(tmp_path, PLANNED_QUADRATIC)
    out = tmp_path / "verify.json"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    record = ResultRecord.from_json(out.read_text())
    again = verify_theorem(record.config.resolve_model(), record.config.x,
                           record.config.accuracy, record.params)
    for name in ("psi_D_norm", "psi_N_norm", "projected_amplitude",
                 "success_probability", "reconstruction_error"):
        assert getattr(again, name) == pytest.approx(
            getattr(record.theorem, name), abs=1e-10)
    assert isinstance(record.theorem, TheoremReport)


def test_missing_config_file_is_usage_error(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_function_kind_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "function": {"kind": "septic", "coefficients": [1.0]},
        "x": [0.0],
        "accuracy": {"gamma": 1.0, "delta": 0.5, "epsilon": 0.5},
    })
    assert main(["run", "--config", cfg]) == 2
    assert "kind" in capsys.readouterr().err


def test_domain_violation_is_pipeline_failure(tmp_path, capsys):
    payload = dict(EXACT_LINEAR)
    payload["domain"] = {"center": [0.0], "half_width": [0.25]}
    cfg = write_config(tmp_path, payload)
    assert main(["run", "--config", cfg]) == 1
    assert "pipeline failure (DomainError)" in capsys.readouterr().err


def test_grid_guard_trips_as_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(PLANNED_QUADRATIC, max_grid_bits=2))
    assert main(["plan", "--config", cfg]) == 2
    assert "max_grid_bits" in capsys.readouterr().err


def test_bench_counts_scale_with_dimension(tmp_path, capsys):
    payload = {
        "function": {"kind": "linear", "coefficients": [0.5]},
        "x": [0.0],
        "accuracy": {"gamma": 1.0, "delta": 0.5, "epsilon": 0.5},
        "sweep": [{"p": 1}, {"p": 2}, {"p": 3}, {"p": 4}],
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "bench.json"
    assert main(["bench", "--config", cfg, "--out", str(out)]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines()
             if l and not l.startswith("record written")]
    assert lines[0].split("\t") == ["index", "p", "n", "nu", "grid_size",
                                    "quantum_calls", "classical_calls"]
    body = [line.split("\t") for line in lines[1:]]
    assert [row[1] for row in body] == ["1", "2", "3", "4"]
    assert all(row[5] == "2" for row in body)
    assert [row[6] for row in body] == ["2", "3", "4", "5"]
    payload_out = json.loads(out.read_text())
    assert payload_out["command"] == "bench"
    assert [r["classical_oracle_calls"] for r in payload_out["rows"]] == [2, 3, 4, 5]
    assert all(r["quantum_oracle_calls"] == 2 for r in payload_out["rows"])


def test_bench_empty_sweep_prints_header_only(tmp_path, capsys):
    cfg = write_config(tmp_path, PLANNED_QUADRATIC)
    assert main(["bench", "--config", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["index\tp\tn\tnu\tgrid_size\tquantum_calls\tclassical_calls"]


MALFORMED = [
    # Each escaped as a traceback with exit 1 ...
    ({"x": 5}, "config.x"),
    ({"accuracy": 5}, "config.accuracy"),
    ({"function": {"kind": "linear", "coefficients": ["a"]}}, "config.function.coefficients[0]"),
    ({"x": [math.nan]}, "config.x[0]"),  # json.load reads NaN; a record cannot hold it
    ({"function": {"kind": "linear", "coefficients": []}, "x": []}, "config.function"),
    ({"function": {"kind": "sinusoidal", "amplitude": 1.0, "frequencies": []}, "x": []},
     "config.function"),
    ({"sweep": [{"p": "x"}]}, "config.sweep[0].p"),
    ({"function": {"kind": "quadratic", "coefficients": [0.5, 0.1],
                   "hessian": [[1.0, 2.0], [0.0, 1.0]]}, "x": [0.0, 0.0]}, "config.function"),
    # ... or ran with a silently truncated value.
    ({"params": {"n": 2.5, "nu": 1e-3, "lambda": 1.0, "mu": 0.125}}, "config.params.n"),
    ({"shots": 1.9}, "config.shots"),
    ({"seed": True}, "config.seed"),
    ({"sweep": [{"p": 2}, {"p": 2.5}]}, "config.sweep[1].p"),
    # Every axis takes a grid bit, so p is refused above 62: at p = 1e12,
    # bench ended in a MemoryError traceback building the coefficients.
    ({"sweep": [{"p": 1e12}]}, "config.sweep[0].p"),
    ({"sweep": [{"p": 1}, {"p": 63}]}, "config.sweep[1].p"),
]


@pytest.mark.parametrize("override, path", MALFORMED)
def test_malformed_config_is_a_usage_error_naming_its_path(override, path, tmp_path, capsys):
    payload = {**PLANNED_QUADRATIC, "function": {"kind": "linear", "coefficients": [0.5]},
               **override}
    cfg = write_config(tmp_path, payload)
    commands = ["bench"] if "sweep" in override else ["plan", "run"]
    for command in commands:
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: "), err


INFEASIBLE = [
    # select_parameters: sin^2(pi delta / (2 (L + delta))) underflows to 0.
    (["plan", "run", "verify"],
     {"function": {"kind": "linear", "coefficients": [1e308, 1e308]}, "x": [0.0, 0.0],
      "domain": {"center": [0.0, 0.0], "half_width": [1.0, 1.0]}}),
    # plan_format: the range format would need more than 43 bits.
    (["run", "verify"], {"params": {"n": 3, "nu": 1e-300, "lambda": 1.0, "mu": 0.125}}),
    # select_parameters: lam = 2^(n-2) / (gamma (L + delta)) overflows to
    # inf, and mu and nu to 0.
    (["plan", "run", "verify"], {"accuracy": {"gamma": 1e-320, "delta": 0.5, "epsilon": 0.5}}),
    # ... gamma (L + delta) underflows to 0, and lam divides by it.
    (["plan", "run", "verify"], {"function": {"kind": "linear", "coefficients": [0.0]},
                                 "accuracy": {"gamma": 1e-320, "delta": 1e-6, "epsilon": 0.5}}),
    # ... (L + delta)^2 overflows in the curvature branch.
    (["plan", "run", "verify"], {"function": {"kind": "quadratic", "coefficients": [0.5],
                                              "hessian": [[1.0]]},
                                 "accuracy": {"gamma": 1.0, "delta": 1e300, "epsilon": 0.5}}),
]


@pytest.mark.parametrize("commands, override", INFEASIBLE,
                         ids=["huge-gradient", "tiny-nu", "tiny-gamma", "zero-margin",
                              "huge-delta"])
def test_infeasible_parameters_are_a_usage_error(commands, override, tmp_path, capsys):
    # Each escaped as a bare ValueError, ZeroDivisionError or OverflowError
    # traceback with exit 1.
    payload = {**PLANNED_QUADRATIC, "function": {"kind": "linear", "coefficients": [0.5]},
               **override}
    cfg = write_config(tmp_path, payload)
    for command in commands:
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


# The sinusoidal of ROADMAP item 4(a): the planner would size a 55-bit format,
# whose float64 quantization errs by up to 1.7 nu.
WIDE_FORMAT = {"function": {"kind": "sinusoidal", "amplitude": 0.8, "frequencies": [1.1]},
               "x": [0.2], "accuracy": {"gamma": 1.0, "delta": 0.5, "epsilon": 0.5},
               "params": {"n": 5, "nu": 7.07e-5 * 2.0 ** -42, "lambda": 375.07,
                          "mu": 0.00113}}


def test_a_format_wider_than_float64_keeps_is_a_usage_error(tmp_path, capsys):
    # run exited 0, and verify exited 1 with a BoundViolation: rounding error
    # 2.78e-17 above nu = 1.61e-17. plan sizes no format.
    cfg = write_config(tmp_path, WIDE_FORMAT)
    out = tmp_path / "record.json"
    assert main(["plan", "--config", cfg]) == 0
    capsys.readouterr()
    for command in ("run", "verify"):
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == ("error: range format would need more than 43 bits; "
                       "raise nu or shrink range_bound\n"), err
        assert not out.exists()


def test_an_allocation_the_host_cannot_make_is_a_usage_error(tmp_path, capsys):
    # 1e15 shots keep a 7.11 PiB column of gradients for p = 1, more than a
    # 47-bit (128 TiB) address space maps, so no overcommit setting grants
    # it: run ended in a MemoryError traceback.
    cfg = write_config(tmp_path, {**EXACT_LINEAR, "shots": 1e15})
    out = tmp_path / "record.json"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1, err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["config.json"]


NON_FINITE_BOUNDS = [
    # M = inf from the spectral norm; run exited 0 on this config, and
    # plan and verify failed writing inf into the record.
    {"function": {"kind": "quadratic", "coefficients": [0.0, 0.0],
                  "hessian": [[1e308, 1e308], [1e308, 1e308]]},
     "x": [0.0, 0.0], "domain": {"center": [0.0, 0.0], "half_width": [1e-300, 1e-300]},
     "params": {"n": 1, "nu": 0.01, "lambda": 1.0, "mu": 1e-300}},
    # L = M = inf from |c| max|b| and |c| |b|^2.
    {"function": {"kind": "sinusoidal", "amplitude": 1e300, "frequencies": [1e10]},
     "x": [0.0], "params": {"n": 1, "nu": 0.01, "lambda": 1.0, "mu": 0.001}},
]


@pytest.mark.parametrize("override", NON_FINITE_BOUNDS, ids=["quadratic", "sinusoidal"])
def test_non_finite_model_bounds_are_a_usage_error(override, tmp_path, capsys):
    cfg = write_config(tmp_path, {**PLANNED_QUADRATIC, **override})
    out = tmp_path / "record.json"
    for command in ("plan", "run", "verify"):
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config.function: "), err
        assert not out.exists()


UNEVALUABLE_INEQUALITIES = [
    # 4.0 ** (n - 1) overflows; verify refuses it too, before the grid guard
    # and the range format.
    ({"n": 600, "nu": 1e-3, "lambda": 1.5, "mu": 0.25},
     "error: the curvature inequality cannot be evaluated", None),
    # The curvature value is inf * M = nan, which no record can hold.
    ({"n": 3, "nu": 10.0, "lambda": 1e308, "mu": 0.25},
     "error: the curvature inequality's value is nan", None),
    # lam * mu underflows to 0, and the bandwidth row divides by it.
    ({"n": 3, "nu": 1e-3, "lambda": 1e-200, "mu": 1e-200},
     "error: the bandwidth inequality cannot be evaluated", None),
]


@pytest.mark.parametrize("params, plan_error, verify_error", UNEVALUABLE_INEQUALITIES,
                         ids=["overflow", "nan", "zero-division"])
def test_unevaluable_inequalities_are_a_usage_error(params, plan_error, verify_error,
                                                    tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("decompose_state ran")

    monkeypatch.setattr(analysis, "decompose_state", refuse)
    cfg = write_config(tmp_path, {"function": {"kind": "linear", "coefficients": [0.5]},
                                  "x": [0.0], "accuracy": PLANNED_QUADRATIC["accuracy"],
                                  "params": params})
    out = tmp_path / "record.json"
    for command, error in (("plan", plan_error), ("verify", verify_error or plan_error)):
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(error) and "Traceback" not in err, err
        assert not out.exists()


OVER_GUARD_LINEAR = {"function": {"kind": "linear", "coefficients": [0.5, 0.25]},
                     "x": [0.0, 0.0], "accuracy": PLANNED_QUADRATIC["accuracy"],
                     "max_grid_bits": 4}
ALL_COMMANDS = ("plan", "run", "verify", "bench")
# How each refusal ends: a grid of at most 62 bits fits a larger guard, a
# wider one fits none, and its refusal must not suggest one.
OVERRIDE = "; pass a larger max_grid_bits to override"
NO_OVERRIDE = "; flat grid indices are int64, so no max_grid_bits admits more than 62 bits"
OVER_GUARD = [
    # The planner picks n = 4 per axis, an 8-bit grid.
    ({}, "grid needs 8 bits (2 axes of 4 bits), over the 4-bit guard" + OVERRIDE,
     ALL_COMMANDS),
    # Explicit params skip the planner: plan exited 0, and run and verify
    # exited 1 at run_pipeline's guard, verify after decompose_state had
    # built the grid.
    ({"params": {"n": 3, "nu": 1e-3, "lambda": 1.0, "mu": 0.05}},
     "grid needs 6 bits (2 axes of 3 bits), over the 4-bit guard" + OVERRIDE, ALL_COMMANDS),
    # The widest grid a guard can admit, and the narrowest none can.
    ({"params": {"n": 31, "nu": 1e-3, "lambda": 1.0, "mu": 0.05}},
     "grid needs 62 bits (2 axes of 31 bits), over the 4-bit guard" + OVERRIDE, ALL_COMMANDS),
    ({"params": {"n": 32, "nu": 1e-3, "lambda": 1.0, "mu": 0.05}, "max_grid_bits": 62},
     "grid needs 64 bits (2 axes of 32 bits), over the 62-bit guard" + NO_OVERRIDE,
     ALL_COMMANDS),
    # bench exited 0 and recorded a 2^80-point grid.
    ({"params": {"n": 40, "nu": 1e-3, "lambda": 1.0, "mu": 0.05}},
     "grid needs 80 bits (2 axes of 40 bits), over the 4-bit guard" + NO_OVERRIDE,
     ALL_COMMANDS),
    # bench ended in a ValueError traceback writing the 12,042-digit grid
    # size, and run in an OverflowError from plan_run_format. plan and verify
    # refuse this config's curvature inequality first.
    ({"params": {"n": 20000, "nu": 1e-3, "lambda": 1.0, "mu": 0.05}},
     "grid needs 40000 bits (2 axes of 20000 bits), over the 4-bit guard" + NO_OVERRIDE,
     ("run", "bench")),
    # At the default guard, with a range format that would need more than
    # 62 bits: run named the format while plan and verify named the grid.
    ({"function": {"kind": "linear", "coefficients": [0.5]}, "x": [0.0],
      "params": {"n": 30, "nu": 1e-30, "lambda": 1e-3, "mu": 1e-12},
      "max_grid_bits": None},
     "grid needs 30 bits (1 axis of 30 bits), over the 26-bit guard" + OVERRIDE, ALL_COMMANDS),
    # No accuracy block, so the default domain's half-width is the sampling
    # radius, and 2^(n-1) overflowed a float before the guard: run and bench
    # ended in an OverflowError traceback. plan and verify need accuracy.
    ({"function": {"kind": "linear", "coefficients": [0.5]}, "x": [0.0], "accuracy": None,
      "params": {"n": 1100, "nu": 1e-3, "lambda": 1.5, "mu": 0.25}, "max_grid_bits": None},
     "grid needs 1100 bits (1 axis of 1100 bits), over the 26-bit guard" + NO_OVERRIDE,
     ("run", "bench")),
]


@pytest.mark.parametrize("override, error, commands", OVER_GUARD,
                         ids=["planned", "explicit", "explicit-62-bits",
                              "explicit-64-bits-at-the-62-bit-guard", "explicit-n40",
                              "explicit-n20000", "explicit-format-over-62-bits",
                              "explicit-default-domain-n1100"])
def test_a_grid_over_the_guard_is_a_usage_error(override, error, commands, tmp_path,
                                                capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("format, baseline or grid work ran")

    monkeypatch.setattr(analysis, "decompose_state", refuse)
    monkeypatch.setattr(analysis, "run_pipeline", refuse)
    monkeypatch.setattr(analysis, "plan_run_format", refuse)
    monkeypatch.setattr(cli, "plan_run_format", refuse)
    monkeypatch.setattr(cli, "classical_baseline", refuse)
    monkeypatch.setattr(GridAlignedState, "prepared", refuse)
    cfg = write_config(tmp_path, {**OVER_GUARD_LINEAR, **override})
    # bench reads the same override as its one sweep entry.
    bench_cfg = write_config(tmp_path, {**OVER_GUARD_LINEAR, "sweep": [override]},
                             name="bench.json")
    out = tmp_path / "record.json"
    for command in commands:
        bench = command == "bench"
        argv = [command, "--config", bench_cfg if bench else cfg, "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        expected = f"error: {'config.sweep[0]: ' if bench else ''}{error}\n"
        assert err == expected and "max_grid_bits" in err, err
        assert (OVERRIDE in err) == error.endswith(OVERRIDE), err
        assert not out.exists()


def test_a_guard_wider_than_a_flat_index_is_a_usage_error(tmp_path, capsys):
    # Flat grid indices are int64. With this guard, run ended in an
    # OverflowError traceback from the range format, and bench in a
    # ValueError writing the 6,021-digit grid size.
    over = {**OVER_GUARD_LINEAR, "function": {"kind": "linear", "coefficients": [0.5]},
            "x": [0.0], "params": {"n": 20000, "nu": 1e-3, "lambda": 1.5, "mu": 0.25},
            "max_grid_bits": 100000}
    cfg = write_config(tmp_path, {**over, "sweep": [{}]})
    out = tmp_path / "record.json"
    for command in ALL_COMMANDS:
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: config: max_grid_bits must be in 1..62\n", err
        assert not out.exists()


@pytest.mark.parametrize("case", ["config-is-a-directory", "config-is-not-utf8",
                                  "out-is-a-directory"])
def test_unreadable_config_or_unwritable_record_path_is_a_usage_error(case, tmp_path, capsys):
    cfg = write_config(tmp_path, EXACT_LINEAR)
    argv = ["run", "--config", cfg]
    if case == "config-is-a-directory":
        argv[2] = str(tmp_path)
    elif case == "config-is-not-utf8":
        bad = tmp_path / "latin1.json"
        bad.write_bytes('{"x": ["\xe9"]}'.encode("latin-1"))
        argv[2] = str(bad)
    else:
        argv += ["--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:"), err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("where", ["directory", "missing-directory"])
def test_unwritable_record_path_is_refused_before_any_work(command, where, tmp_path,
                                                           capsys, monkeypatch):
    # Both commands used to run the whole computation and fail on the write.
    def refuse(*args, **kwargs):
        raise AssertionError("the computation started")

    monkeypatch.setattr(cli, "run_pipeline", refuse)
    monkeypatch.setattr(cli, "verify_theorem", refuse)
    cfg = write_config(tmp_path, {**EXACT_LINEAR, "accuracy": PLANNED_QUADRATIC["accuracy"]})
    out = tmp_path if where == "directory" else tmp_path / "missing" / "record.json"
    before = sorted(tmp_path.rglob("*"))
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(out) in err, err
    assert sorted(tmp_path.rglob("*")) == before


def test_failed_run_leaves_no_record(tmp_path, capsys):
    payload = dict(EXACT_LINEAR)
    payload["domain"] = {"center": [0.0], "half_width": [0.25]}
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "run.json"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    assert "pipeline failure (DomainError)" in capsys.readouterr().err
    assert not out.exists()


# A p=2 quadratic at 2^14 grid points: about 16,000 distribution rows, so
# the record is written in four blocks of 4,096 rows.
RUN_2D = {"function": {"kind": "quadratic", "coefficients": [0.4, -0.3],
                       "hessian": [[0.2, 0.05], [0.05, -0.1]]},
          "x": [0.1, -0.2], "params": {"n": 7, "nu": 1e-4, "lambda": 20.0, "mu": 0.001},
          "shots": 1000, "seed": 7}


def test_run_record_is_written_block_by_block(tmp_path, monkeypatch, capsys):
    written = []
    write_text = cli.write_text

    def counted(handle, text):
        written.append(text)
        write_text(handle, text)

    monkeypatch.setattr(cli, "write_text", counted)
    out = tmp_path / "run.json"
    assert main(["run", "--config", write_config(tmp_path, RUN_2D), "--out", str(out)]) == 0
    text = out.read_text()
    assert len(written) == 4 and "".join(written) == text
    assert ResultRecord.from_json(text).to_json() == text
    assert sorted(path.name for path in tmp_path.iterdir()) == ["config.json", "run.json"]


class DiskFull(OSError):
    def __init__(self):
        super().__init__(28, "No space left on device")


@pytest.mark.parametrize("error, status", [(DiskFull, 2), (KeyboardInterrupt, None)])
@pytest.mark.parametrize("older", [None, b"an older record\n"])
def test_a_record_write_failing_mid_table_leaves_no_new_file(error, status, older, tmp_path,
                                                             monkeypatch, capsys):
    # The second block is the second of the distribution's four row blocks.
    written = []
    write_text = cli.write_text

    def failing(handle, text):
        written.append(text)
        if len(written) == 2:
            raise error()
        write_text(handle, text)

    monkeypatch.setattr(cli, "write_text", failing)
    cfg = write_config(tmp_path, RUN_2D)
    out = tmp_path / "run.json"
    if older is not None:
        out.write_bytes(older)
    argv = ["run", "--config", cfg, "--out", str(out)]
    if status is None:
        with pytest.raises(error):
            main(argv)
    else:
        assert main(argv) == status
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert len(written) == 2
    assert (out.read_bytes() if out.exists() else None) == older
    names = ["config.json"] + ([] if older is None else ["run.json"])
    assert sorted(path.name for path in tmp_path.iterdir()) == names


def test_bench_model_error_names_its_sweep_entry(tmp_path, capsys):
    payload = {**EXACT_LINEAR, "sweep": [{}, NON_FINITE_BOUNDS[1]]}
    cfg = write_config(tmp_path, payload)
    assert main(["bench", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config.sweep[1].function: "), err
