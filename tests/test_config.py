"""Config schema, defaults, sweep merging, and record serialization."""

import dataclasses
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradkick import AccuracySpec, DomainBox, GridState, config, run_pipeline
from gradkick.algorithm import ShotBlock, sample_measurements
from gradkick.config import (FUNCTION_KINDS, ConfigError, ExperimentConfig,
                             FunctionSpec, ResultRecord, distribution_entries,
                             from_tree, record_json, sample_summary, to_tree)
from gradkick.operators import PHASE_VARIANTS
from gradkick.oracle import GROUP_MODES, FixedPointFormat
from gradkick.params import AlgorithmParams
from gradkick.states import blocks, check_grid_bits, grid_points


GOLDEN = pathlib.Path(__file__).parent / "golden"


def linear_spec(coeffs=(0.5,)):
    return FunctionSpec(kind="linear", coefficients=tuple(coeffs))


class TestFunctionSpec:
    def test_linear_requires_coefficients(self):
        with pytest.raises(ConfigError, match="coefficients"):
            FunctionSpec(kind="linear")

    def test_linear_rejects_foreign_fields(self):
        with pytest.raises(ConfigError):
            FunctionSpec(kind="linear", coefficients=(1.0,), amplitude=2.0)

    def test_quadratic_requires_square_hessian(self):
        with pytest.raises(ConfigError):
            FunctionSpec(kind="quadratic", coefficients=(1.0, 2.0),
                         hessian=((1.0,),))

    def test_sinusoidal_requires_amplitude_and_frequencies(self):
        spec = FunctionSpec(kind="sinusoidal", amplitude=0.5,
                            frequencies=(1.0, 2.0))
        assert spec.dimension == 2
        with pytest.raises(ConfigError):
            FunctionSpec(kind="sinusoidal", amplitude=0.5)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            FunctionSpec(kind="cubic", coefficients=(1.0,))

    def test_custom_coefficients_picks_model_by_hessian(self):
        box = DomainBox.cube(1, 1.0)
        lin = FunctionSpec(kind="custom-coefficients", coefficients=(2.0,))
        model = lin.build(box)
        assert model.hess_bound == 0.0
        quad = FunctionSpec(kind="custom-coefficients", coefficients=(2.0,),
                            hessian=((1.0,),))
        assert quad.build(box).hess_bound == 1.0

    def test_round_trip(self):
        spec = FunctionSpec(kind="quadratic", coefficients=(1.0, 0.0),
                            hessian=((2.0, 1.0), (1.0, 2.0)))
        assert from_tree(FunctionSpec, to_tree(spec), "function") == spec


class TestExperimentConfig:
    def test_minimal_dict(self):
        cfg = ExperimentConfig.from_dict({
            "function": {"kind": "linear", "coefficients": [0.5]},
            "x": [0.0],
            "accuracy": {"gamma": 1.0, "delta": 0.5, "epsilon": 0.5},
        })
        assert cfg.shots == 0
        assert cfg.group_mode == "modular"
        assert cfg.phase_variant == "direct"
        assert cfg.prob_floor == 1e-12
        assert cfg.params is None

    def test_requires_accuracy_or_params(self):
        with pytest.raises(ConfigError, match="accuracy or params"):
            ExperimentConfig(function=linear_spec(), x=(0.0,))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ConfigError, match="dimension"):
            ExperimentConfig(function=linear_spec((1.0, 2.0)), x=(0.0,),
                             accuracy=AccuracySpec(1.0, 0.5, 0.5))

    def test_rejects_unknown_keys_everywhere(self):
        base = {
            "function": {"kind": "linear", "coefficients": [0.5]},
            "x": [0.0],
            "accuracy": {"gamma": 1.0, "delta": 0.5, "epsilon": 0.5},
        }
        for poison in (
            {"turbo": True},
            {"function": {**base["function"], "order": 3}},
            {"accuracy": {**base["accuracy"], "sigma": 1.0}},
            {"params": {"n": 2, "nu": 1e-3, "lambda": 1.0, "mu": 0.1,
                        "extra": 0}},
            {"domain": {"center": [0.0], "half_width": [1.0], "shape": "cube"}},
        ):
            with pytest.raises(ConfigError):
                ExperimentConfig.from_dict({**base, **poison})

    def test_rejects_bad_enums_and_ranges(self):
        ok = dict(function=linear_spec(), x=(0.0,),
                  accuracy=AccuracySpec(1.0, 0.5, 0.5))
        with pytest.raises(ConfigError, match="group_mode"):
            ExperimentConfig(**ok, group_mode="additive")
        with pytest.raises(ConfigError, match="phase_variant"):
            ExperimentConfig(**ok, phase_variant="bulk")
        with pytest.raises(ConfigError, match="shots"):
            ExperimentConfig(**ok, shots=-1)
        with pytest.raises(ConfigError, match="prob_floor"):
            ExperimentConfig(**ok, prob_floor=1.0)

    def test_shots_stop_at_two_to_the_32(self):
        # About ten minutes of sampling, and the most counts whose exact
        # mean sample_summary sums in int64.
        ok = dict(function=linear_spec(), x=(0.0,),
                  accuracy=AccuracySpec(1.0, 0.5, 0.5))
        assert ExperimentConfig(**ok, shots=2 ** 32).shots == 2 ** 32
        with pytest.raises(ConfigError, match=r"shots must lie in 0\.\.2\^32 = 4294967296, "
                                              "got 4294967297"):
            ExperimentConfig(**ok, shots=2 ** 32 + 1)
        _, params, chi, _ = small_run()
        with pytest.raises(ValueError, match="shots must be at most 2"):
            sample_summary(chi, 2 ** 32 + 1, 0, params)

    def test_domain_defaults(self):
        acc = ExperimentConfig(function=linear_spec(), x=(0.25,),
                               accuracy=AccuracySpec(2.0, 0.5, 0.5))
        box = acc.resolve_domain()
        assert box.center == (0.25,)
        assert box.half_width == (2.0,)

        params = AlgorithmParams(n=3, nu=1e-9, lam=1.0, mu=0.125)
        explicit = ExperimentConfig(function=linear_spec(), x=(0.25,),
                                    params=params)
        assert explicit.resolve_domain().half_width == (0.5,)

        given = DomainBox.cube(1, 9.0)
        pinned = ExperimentConfig(function=linear_spec(), x=(0.25,),
                                  accuracy=AccuracySpec(2.0, 0.5, 0.5),
                                  domain=given)
        assert pinned.resolve_domain() is given

    def test_explicit_params_win_over_accuracy(self):
        params = AlgorithmParams(n=3, nu=1e-9, lam=1.0, mu=0.125)
        cfg = ExperimentConfig(function=linear_spec(), x=(0.0,),
                               accuracy=AccuracySpec(1.0, 0.5, 0.5),
                               params=params)
        assert cfg.resolve_params(cfg.resolve_model()) is params

    def test_round_trip(self):
        cfg = ExperimentConfig(
            function=linear_spec((0.5, -1.5)), x=(0.1, -0.2),
            accuracy=AccuracySpec(1.0, 0.5, 0.5),
            domain=DomainBox(center=(0.1, -0.2), half_width=(3.0, 4.0)),
            shots=100, seed=7, group_mode="xor", phase_variant="per-bit",
            max_grid_bits=20, prob_floor=1e-9,
            sweep=({"p": 2}, {"seed": 9}))
        assert ExperimentConfig.from_dict(to_tree(cfg)) == cfg

    def test_merged_sweep_entry_overrides(self):
        cfg = ExperimentConfig(function=linear_spec(), x=(0.0,),
                               accuracy=AccuracySpec(1.0, 0.5, 0.5),
                               shots=10, sweep=({"p": 3},))
        merged = cfg.merged({"seed": 5})
        assert merged.seed == 5
        assert merged.shots == 10
        assert merged.sweep == ()

    def test_merged_p_shorthand(self):
        cfg = ExperimentConfig(function=linear_spec(), x=(0.0,),
                               accuracy=AccuracySpec(1.0, 0.5, 0.5),
                               domain=DomainBox.cube(1, 5.0))
        merged = cfg.merged({"p": 3})
        assert merged.function.coefficients == (0.5, 0.5, 0.5)
        assert merged.x == (0.0, 0.0, 0.0)
        assert merged.domain is None
        assert merged.params is None
        with pytest.raises(ConfigError, match="positive"):
            cfg.merged({"p": 0})


def small_run():
    params = AlgorithmParams(n=3, nu=1e-9, lam=1.0, mu=0.125)
    cfg = ExperimentConfig(function=linear_spec((-1.0,)), x=(0.0,),
                           params=params, shots=16, seed=3)
    model = cfg.resolve_model()
    chi, calls = run_pipeline(model, cfg.x, params)
    return cfg, params, chi, calls


def test_distribution_entries_floor_and_order():
    _, params, chi, _ = small_run()
    rows = distribution_entries(chi, params, floor=1e-12)
    assert sum(r["probability"] for r in rows) >= 1.0 - 1e-12 * 8
    gs = [tuple(r["g"]) for r in rows]
    assert gs == sorted(gs)
    everything = distribution_entries(chi, params, floor=0.0)
    top = max(everything, key=lambda r: r["probability"])
    assert top["g"] == [1] and top["gradient"] == [-1.0]
    assert distribution_entries(chi, params, floor=1.0) == []


def test_sample_summary_counts_and_mean():
    _, params, chi, _ = small_run()
    estimates = sample_measurements(chi, 16, seed=3, params=params)
    summary = sample_summary(chi, 16, 3, params)
    assert summary["shots"] == 16 and summary["seed"] == 3
    counts = summary["outcome_counts"]
    assert sum(c["count"] for c in counts) == 16
    assert [c["count"] for c in counts] == sorted(
        (c["count"] for c in counts), reverse=True)
    assert summary["mean_gradient"] == [pytest.approx(
        np.mean([e.gradient[0] for e in estimates]))]


@given(n=st.integers(1, 5), p=st.integers(1, 3), shots=st.integers(1, 3000),
       skew=st.floats(0.0, 4.0), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_sample_summary_counts_equal_np_unique(n, p, shots, skew, seed):
    rng = np.random.default_rng(seed)
    size = 1 << (n * p)
    # Skewed draws leave some outcomes unsampled and tie others.
    indices = np.minimum((rng.random(shots) ** (1 + skew) * size).astype(np.intp), size - 1)

    def drawn(chi, shots, seed):
        # These shots, handed over in the sampler's blocks.
        for block in blocks(shots, 8):
            yield ShotBlock(block, indices[block])

    chi = GridState(n=n, p=p, amplitudes=np.eye(1, size, dtype=complex)[0])
    params = AlgorithmParams(n=n, nu=1e-6, lam=0.75, mu=0.1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(config, "sample_blocks", drawn)
        table = sample_summary(chi, shots, seed, params)["outcome_counts"]
    outcomes, counts = np.unique(indices, return_counts=True)
    order = np.argsort(-counts, kind="stable")
    assert np.array_equal(table.column("count"), counts[order])
    assert np.array_equal(table.column("g"), grid_points(outcomes[order], n, p))


def test_grid_geometry():
    # The record's grid block: bits, grid size, bytes for one dense sector.
    params = AlgorithmParams(n=3, nu=1e-9, lam=1.0, mu=0.125)
    bits, size, mem = check_grid_bits(params.n, 2)
    assert (bits, size, mem) == (6, 64, 1024)


def test_format_dict_round_trip():
    fmt = FixedPointFormat(bits=30, a0=-1e-9 * 2.0**29, a1=1e-9,
                           group_mode="xor")
    assert to_tree(fmt) == {"bits": 30, "a0": -1e-9 * 2.0**29, "a1": 1e-9,
                            "group_mode": "xor"}
    assert from_tree(FixedPointFormat, to_tree(fmt), "format") == fmt


def test_result_record_round_trips_byte_identically():
    cfg, params, chi, calls = small_run()
    model = cfg.resolve_model()
    record = ResultRecord(
        command="run",
        config=cfg,
        params=params,
        grid_bits=3,
        grid_size=8,
        memory_estimate_bytes=128,
        format=FixedPointFormat(bits=30, a0=-1e-9 * 2.0**29, a1=1e-9),
        oracle_calls=calls,
        true_gradient=(-1.0,),
        prob_floor=cfg.prob_floor,
        distribution=distribution_entries(chi, params, cfg.prob_floor),
        samples=sample_summary(chi, cfg.shots, cfg.seed, params),
    )
    text = record.to_json()
    clone = ResultRecord.from_json(text)
    assert clone.to_json() == text
    assert clone.config == cfg
    assert clone.params == params


def test_result_record_has_no_wall_clock_field():
    # A record is a pure function of config and seed: the commands print
    # their wall-clock times, and no field of the record can hold one.
    names = [f.name for f in dataclasses.fields(ResultRecord)]
    assert names == ["command", "config", "params", "grid_bits", "grid_size",
                     "memory_estimate_bytes", "format", "oracle_calls",
                     "true_gradient", "prob_floor", "distribution", "samples",
                     "theorem", "inequalities"]
    cfg, params, chi, calls = small_run()
    record = ResultRecord(command="run", config=cfg, params=params,
                          grid_bits=3, grid_size=8, memory_estimate_bytes=128,
                          oracle_calls=calls, true_gradient=(-1.0,), prob_floor=0.0)
    assert list(to_tree(record)) == names


finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-9, max_value=1e9)
json_values = (st.none() | st.booleans() | st.integers(-10, 10) | finite
               | st.text(max_size=4) | st.lists(finite, max_size=3))


@st.composite
def experiment_configs(draw):
    """Any valid ExperimentConfig: the four kinds, p 1..4, every optional part."""
    p = draw(st.integers(1, 4))
    vector = st.lists(finite, min_size=p, max_size=p).map(tuple)
    kind = draw(st.sampled_from(FUNCTION_KINDS))
    if kind == "sinusoidal":
        function = FunctionSpec(kind=kind, amplitude=draw(finite), frequencies=draw(vector))
    else:
        hessian = None
        if kind == "quadratic" or (kind == "custom-coefficients" and draw(st.booleans())):
            rows = [list(draw(vector)) for _ in range(p)]
            hessian = tuple(tuple(rows[min(i, j)][max(i, j)] for j in range(p))
                            for i in range(p))
        function = FunctionSpec(kind=kind, coefficients=draw(vector), hessian=hessian)
    accuracy = draw(st.none() | st.builds(AccuracySpec, gamma=positive, delta=positive,
                                          epsilon=st.floats(0.01, 0.99)))
    params = st.builds(AlgorithmParams, n=st.integers(1, 30), nu=positive, lam=positive,
                       mu=positive)
    return ExperimentConfig(
        function=function, x=draw(vector), accuracy=accuracy,
        params=draw(params if accuracy is None else st.none() | params),
        domain=draw(st.none() | st.builds(
            DomainBox, center=vector,
            half_width=st.lists(positive, min_size=p, max_size=p).map(tuple))),
        shots=draw(st.integers(0, 10 ** 6)), seed=draw(st.integers(0, 2 ** 64)),
        group_mode=draw(st.sampled_from(GROUP_MODES)),
        phase_variant=draw(st.sampled_from(PHASE_VARIANTS)),
        max_grid_bits=draw(st.none() | st.integers(1, 40)),
        prob_floor=draw(st.floats(0.0, 0.99)),
        sweep=tuple(draw(st.lists(st.dictionaries(st.sampled_from(("p", "seed", "x")),
                                                  json_values, max_size=3),
                                  max_size=3))))


@given(cfg=experiment_configs())
@settings(max_examples=300, deadline=None)
def test_codec_round_trips_every_config(cfg):
    text = record_json(to_tree(cfg))
    clone = ExperimentConfig.from_dict(json.loads(text))
    assert clone == cfg
    assert record_json(to_tree(clone)) == text


def test_codec_writes_field_names_in_order_with_one_alias():
    params = AlgorithmParams(n=3, nu=1e-9, lam=1.5, mu=0.125)
    assert list(to_tree(params)) == ["n", "nu", "lambda", "mu"]
    assert to_tree(linear_spec((0.5, 1))) == {"kind": "linear", "coefficients": [0.5, 1]}
    cfg = ExperimentConfig(function=linear_spec(), x=(0.0,), params=params)
    tree = to_tree(cfg)
    assert list(tree) == [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert tree["accuracy"] is None and tree["domain"] is None and tree["sweep"] == []


def test_codec_reads_integral_floats_as_ints():
    cfg = ExperimentConfig.from_dict({
        "function": {"kind": "linear", "coefficients": [1]},
        "x": [0],
        "params": {"n": 3.0, "nu": 1, "lambda": 1, "mu": 0.125},
        "shots": 12.0,
    })
    assert type(cfg.params.n) is int and cfg.params.n == 3
    assert type(cfg.shots) is int and cfg.shots == 12
    assert type(cfg.x[0]) is float and type(cfg.params.lam) is float


def golden_tree(command):
    return json.loads((GOLDEN / f"{command}.json").read_text(encoding="utf-8"))


def set_at(tree, path, value):
    *parents, last = path
    for key in parents:
        tree = tree[key]
    tree[last] = value


@pytest.mark.parametrize("command, path, value, message", [
    ("verify-linear", ("theorem", "leakage", "spread"), 1.0,
     r"record\.theorem\.leakage: unknown field\(s\) 'spread'"),
    ("verify-linear", ("theorem", "leakage", "vacuous"), 0,
     r"record\.theorem\.leakage\.vacuous: expected true or false, got 0"),
    ("verify-linear", ("theorem", "leakage", "per_axis_max", 1), "0",
     r"record\.theorem\.leakage\.per_axis_max\[1\]: expected a finite number"),
    ("plan", ("inequalities", "checks", 2, "margin"), 0.5,
     r"record\.inequalities\.checks\[2\]: unknown field\(s\) 'margin'"),
    ("plan", ("inequalities", "checks", 2, "holds"), "yes",
     r"record\.inequalities\.checks\[2\]\.holds: expected true or false"),
    ("plan", ("inequalities", "checks", 4, "slack"), [0.5],
     r"record\.inequalities\.checks\[4\]\.slack: expected a finite number, got an array"),
    ("run", ("format", "scale"), 2.0, r"record\.format: unknown field\(s\) 'scale'"),
    ("run", ("format", "bits"), 30.5, r"record\.format\.bits: expected an integer, got 30\.5"),
    ("run", ("format", "group_mode"), None,
     r"record\.format\.group_mode: expected a string, got null"),
])
def test_record_decoder_names_the_bad_field(command, path, value, message):
    tree = golden_tree(command)
    ResultRecord.from_json(json.dumps(tree))
    set_at(tree, path, value)
    with pytest.raises(ConfigError, match=message):
        ResultRecord.from_json(json.dumps(tree))


def test_record_decoder_requires_every_field_without_a_default():
    tree = golden_tree("verify-linear")
    del tree["theorem"]["leakage"]["bound"]
    with pytest.raises(ConfigError,
                       match=r"record\.theorem\.leakage: missing required field 'bound'"):
        ResultRecord.from_json(json.dumps(tree))
