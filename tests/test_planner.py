"""The one planned experiment: every refusal check runs in
analysis.plan_experiment, each command runs it a pinned number of times,
planned parameters meet the bandwidth row exactly, and the leakage audit
runs exactly when that row holds."""

import ast
import contextlib
import io
import json
import pathlib
import sys
from collections import Counter

import numpy as np
import pytest

import gradkick
from gradkick import AccuracySpec, check_inequalities, select_parameters
from gradkick.analysis import DEFAULT_CHECK_TOL
from gradkick.cli import main
from gradkick.config import ResultRecord
from gradkick.params import PlannerError

SRC = pathlib.Path(gradkick.__file__).resolve().parent
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

# The functions each refusal check may be called from. The guard also runs in
# select_parameters and resolve_domain, where 2^(n-2) or 2^(n-1) would
# overflow before any plan exists.
ALLOWED_CALLERS = {
    "check_inequalities": {"plan_experiment"},
    "check_grid_bits": {"plan_experiment", "select_parameters", "resolve_domain"},
    "check_sampling_box": {"plan_experiment"},
    "plan_run_format": {"plan_experiment"},
}


class CallSites(ast.NodeVisitor):
    """(innermost enclosing function or None, callee) of every call by name."""

    def __init__(self) -> None:
        self.functions: list[str] = []
        self.calls: list[tuple[str | None, str]] = []

    def visit_FunctionDef(self, node) -> None:
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ALLOWED_CALLERS:
            self.calls.append((self.functions[-1] if self.functions else None, name))
        self.generic_visit(node)


def test_only_the_planner_calls_the_refusal_checks():
    sites = CallSites()
    for path in sorted(SRC.glob("*.py")):
        sites.visit(ast.parse(path.read_text(encoding="utf-8")))
    callers = {name: set() for name in ALLOWED_CALLERS}
    for caller, name in sites.calls:
        callers[name].add(caller)
    assert callers == ALLOWED_CALLERS


# Calls of (check_inequalities, check_grid_bits, check_sampling_box,
# plan_run_format) per golden config through its command. verify and
# run_pipeline, which the command calls, each plan once more where they are
# entered; the audit tables and the leakage check plan no more.
PINNED_COUNTS = {
    "plan": (1, 2, 1, 0),
    "run": (0, 2, 2, 1),
    "verify": (2, 3, 3, 1),
    "verify-linear": (2, 4, 3, 1),
    "bench": (0, 4, 2, 0),
}


@pytest.mark.parametrize("name", list(PINNED_COUNTS))
def test_each_command_runs_each_check_a_pinned_number_of_times(name, monkeypatch):
    counts = Counter()
    modules = [m for key, m in sys.modules.items()
               if key == "gradkick" or key.startswith("gradkick.")]
    for check in ALLOWED_CALLERS:
        original = next(getattr(m, check) for m in modules if hasattr(m, check))

        def counted(*args, _check=check, _original=original, **kwargs):
            counts[_check] += 1
            return _original(*args, **kwargs)

        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    config = GOLDEN / f"{name}.config.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([name.split("-")[0], "--config", str(config)]) == 0
    assert tuple(counts[check] for check in ALLOWED_CALLERS) == PINNED_COUNTS[name]


LINEAR_TARGET = {
    "function": {"kind": "linear",
                 "coefficients": [-0.9638649292429398, 0.5754766079608684]},
    "x": [0.0, 0.0],
    "accuracy": {"gamma": 0.02915666878558584, "delta": 0.279445469253843,
                 "epsilon": 0.0581705481375756}}


def verified_theorem(config, tmp_path, capsys):
    """The theorem record of a verify of config that exits 0 with the
    guarantee asserted."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "verify.json"
    assert main(["verify", "--config", str(path), "--out", str(out)]) == 0
    assert "guarantee asserted" in capsys.readouterr().out
    return ResultRecord.from_json(out.read_text()).theorem


def test_a_planned_linear_verify_runs_its_leakage_check(tmp_path, capsys):
    # mu = 1 / (2 lam (L + delta)) put 1 / (2 lam mu) an ulp below L + delta:
    # the bandwidth row held within its tolerance, so the guarantee was
    # asserted, while the leakage check was skipped and recorded as null.
    theorem = verified_theorem(LINEAR_TARGET, tmp_path, capsys)
    assert theorem.leakage is not None and theorem.ok
    assert theorem.inequalities.checks[3].slack >= 0.0


def test_the_leakage_check_runs_exactly_when_the_bandwidth_row_holds(tmp_path, capsys):
    # Explicit params an ulp short of the bandwidth condition: the row holds
    # within its tolerance, so the guarantee is asserted and the leakage
    # audit runs too, where it used to be skipped and recorded as null.
    theorem = verified_theorem({**LINEAR_TARGET, "params": {
        "n": 5, "nu": 0.00022641157525078888, "lambda": 220.6848488899021,
        "mu": 0.001822291799099115}}, tmp_path, capsys)
    bandwidth = theorem.inequalities.checks[3]
    assert bandwidth.name == "bandwidth" and bandwidth.holds
    assert -DEFAULT_CHECK_TOL <= bandwidth.slack < 0.0
    assert theorem.leakage is not None and theorem.ok


def test_planned_params_meet_the_bandwidth_row_exactly():
    # About one planned linear target in ten used to land 1 / (2 lam mu) an
    # ulp below L + delta.
    rng = np.random.default_rng(31)
    planned = 0
    for _ in range(3000):
        L, gamma, delta, epsilon = rng.uniform((0.0, 0.01, 0.05, 0.05), (3.0, 3.0, 1.0, 0.95))
        M = rng.choice((0.0, rng.uniform(0.0, 3.0)))
        p = int(rng.integers(1, 4))
        spec = AccuracySpec(gamma, delta, epsilon)
        try:
            params = select_parameters(spec, L, M, p, max_grid_bits=62)
        except PlannerError:
            continue
        planned += 1
        bandwidth = check_inequalities(params, spec, L, M, p).checks[3]
        assert bandwidth.name == "bandwidth" and bandwidth.slack >= 0.0, (L, M, spec, p)
        assert 1.0 / (2.0 * params.lam * params.mu) >= L + delta
    assert planned > 2500
