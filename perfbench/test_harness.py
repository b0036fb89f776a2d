"""Tests of the benchmark harness: python3 -m pytest perfbench"""

import contextlib
import copy
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

cli = run.import_gradkick()

import gradkick.algorithm  # noqa: E402
import gradkick.analysis  # noqa: E402
from gradkick.config import ExperimentConfig  # noqa: E402
from gradkick.states import SparseTripartiteState  # noqa: E402


def test_wrappers_are_installed_then_fully_removed():
    bindings = [(cli, "run_pipeline"), (gradkick.analysis, "run_pipeline"),
                (gradkick.algorithm, "apply_u_f"), (cli, "main")]
    originals = [getattr(owner, name) for owner, name in bindings]
    post_init = SparseTripartiteState.__post_init__
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for owner, name in bindings:
            assert getattr(getattr(owner, name), tracing.MARK, False), name
        assert getattr(SparseTripartiteState.__post_init__, tracing.MARK, False)
        assert len(tracing.installed_wrappers()) >= len(tracing.SPANS)
    finally:
        tracer.uninstall()
    assert tracing.installed_wrappers() == []
    for (owner, name), original in zip(bindings, originals):
        assert getattr(owner, name) is original
    assert SparseTripartiteState.__post_init__ is post_init


def _traced_counts(tmp_path, seed):
    _, argvs = workloads.prepare("sweep-small", seed, str(tmp_path))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        phase = run.run_phase(cli, argvs, 0.0, min_cycles=2, tracer=tracer)
    finally:
        tracer.uninstall()
    assert all(phase.ok)
    metrics = tracing.per_layer_metrics(tracer, len(phase.durations))
    counts = {k: v for k, (v, unit) in metrics.items()
              if unit in ("count", "B", "B-computed") or k.endswith("ratio")}
    return counts, phase.hashes


def test_counters_repeat_exactly_for_the_same_seed(tmp_path):
    first, first_hashes = _traced_counts(tmp_path / "a", 3)
    second, second_hashes = _traced_counts(tmp_path / "b", 3)
    assert first == second
    assert first_hashes == second_hashes
    assert first["operators.oracle_calls"] == 2.0
    assert first["oracle.oracle_value.calls"] > 0


def test_every_timed_command_gets_a_reference_time(tmp_path, monkeypatch):
    _, argvs = workloads.prepare("sweep-small", 5, str(tmp_path))
    monkeypatch.setattr(run, "REF_EVERY_S", 0.0)  # a reference after each command
    phase = run.run_phase(cli, argvs[:4], 0.0, min_cycles=2)
    assert len(phase.refs) == len(phase.durations) == 8
    assert all(r > 0 for r in phase.refs)
    # Each command gets the mean of the timings either side of it; with a
    # timing after every command, no two commands get the same pair.
    assert len(set(phase.refs)) == len(phase.refs)


@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_seed_changes_inputs_but_not_grid_sizes(workload):
    def sizes(seed):
        out = []
        for cmd in workloads.generate(workload, seed):
            cfg = ExperimentConfig.from_dict(cmd.config)
            model = cfg.resolve_model()
            params = cfg.resolve_params(model)
            out.append(1 << (params.n * model.p))
        return out

    expected = [cmd.grid_points for cmd in workloads.generate(workload, 0)]
    for seed in (1, 2, 12345, workloads.HELD_BACK_SEED):
        assert sizes(seed) == expected
    assert workloads.generate(workload, 1) == workloads.generate(workload, 1)
    assert workloads.generate(workload, 1) != workloads.generate(workload, 2)


def test_reference_check_rejects_a_wrong_answer(tmp_path):
    commands, argvs = workloads.prepare("sweep-small", 4, str(tmp_path))
    index = [c.command for c in commands].index("verify")
    for i in (index - 1, index):
        with contextlib.redirect_stdout(run._Discard()):
            assert cli.main(argvs[i]) == 0
    ran = json.loads(open(argvs[index - 1][-1]).read())
    verified = json.loads(open(argvs[index][-1]).read())
    assert reference.check_record(commands[index - 1], ran) == []
    assert reference.check_record(commands[index], verified) == []

    rows = copy.deepcopy(ran)
    rows["distribution"][0]["probability"] += 1e-6
    rows["distribution"][1]["probability"] -= 1e-6
    assert reference.check_record(commands[index - 1], rows)
    report = copy.deepcopy(verified)
    report["theorem"]["success_probability"] *= 1.0 + 1e-6
    assert reference.check_record(commands[index], report)
    report = copy.deepcopy(verified)
    report["oracle_calls"] = 3
    assert reference.check_record(commands[index], report)


def test_stored_digests_are_compared_within_tolerance():
    stored = reference.load_stored()
    want = stored["sweep-small:3"]
    assert reference.check_stored("sweep-small", 3, want, stored) == {}
    nudged = {k: [v * (1.0 + 1e-12) for v in values] for k, values in want.items()}
    assert reference.check_stored("sweep-small", 3, nudged, stored) == {}
    wrong = dict(want, verify=[v * (1.0 + 1e-6) for v in want["verify"]])
    assert list(reference.check_stored("sweep-small", 3, wrong, stored)) == ["verify"]
    assert reference.check_stored("sweep-small", 123456, wrong, stored) == {}
