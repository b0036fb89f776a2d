"""Seeded inputs for the three benchmark workloads.

A workload is a cycle of gradkick commands, each a (command, config) pair.
The seed picks coefficients, the evaluation point x and the sampling seed;
the coefficients are then rescaled so that the gradient bound L is the same
for every seed. Together with fixed accuracy targets that pins the grid
size, so seeds vary the numbers the program sees but not the work it does.

- run-quad2d: one `run` of a p=2 quadratic. The planner picks n=7, 2^14
  grid points, and the command draws 100,000 shots and writes a record of
  about 2.8 MB. Exercises the per-grid-point layers (operators, oracle,
  states, models) and the per-row and per-shot ones (distribution rows,
  sampling, the JSON record).
- verify-sin3d: one `verify` of a p=3 sinusoidal with explicit n=5, 2^15
  grid points, in xor group mode with the per-bit phase rotation. The only
  workload where `analysis` does grid work, and the only large one on the
  xor, per-bit and three-axis branches of `operators` and `qft`.
- sweep-small: plan, run and verify over 24 small configs: four function
  kinds, p in {1, 2, 3}, n*p <= 8, 100 shots. Grid work is negligible, so
  the per-command fixed cost (parsing, model construction, planning,
  inequality checks, format sizing, leakage checks, small records) sets
  the time.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

import numpy as np

WORKLOAD_NAMES = ("run-quad2d", "verify-sin3d", "sweep-small")

# Not used while the benchmark was tuned (seeds 1-10 were): a later
# performance claim is confirmed on it.
HELD_BACK_SEED = 9001

GAMMA = 1.0


@dataclass(frozen=True)
class Command:
    """One gradkick invocation of a workload cycle."""

    command: str
    config: dict
    grid_points: int
    planned: bool

    def argv(self, config_path: str, out_path: str) -> list[str]:
        return [self.command, "--config", config_path, "--out", out_path]


def closed_form_params(n: int, L: float, M: float, delta: float,
                       epsilon: float) -> dict:
    """The paper's closed forms for lambda, mu and nu at a given n."""
    lam = max(2.0 ** (n - 2) / (GAMMA * (L + delta)),
              3.0 * 4.0 ** (n - 2) * math.pi * M
              / (math.sqrt(5.0) * (L + delta) ** 2 * (1.0 - epsilon)))
    mu = 1.0 / (2.0 * lam * (L + delta))
    nu = (1.0 - epsilon) / (6.0 * math.pi * lam)
    return {"n": n, "nu": nu, "lambda": lam, "mu": mu}


def _point(rng: random.Random, p: int) -> list[float]:
    return [rng.uniform(-0.5, 0.5) for _ in range(p)]


def _quadratic_bound(a: list[float], H: list[list[float]], x: list[float]) -> float:
    """sup |a + H y|_inf over the cube of half-width GAMMA around x."""
    p = len(a)
    return max(abs(a[m] + sum(H[m][j] * x[j] for j in range(p)))
               + GAMMA * sum(abs(v) for v in H[m]) for m in range(p))


def _quadratic(rng: random.Random, p: int, x: list[float], L: float):
    """Random a and symmetric H, scaled so the gradient bound is L."""
    a = [rng.uniform(-1.0, 1.0) for _ in range(p)]
    H = [[0.0] * p for _ in range(p)]
    for i in range(p):
        for j in range(i, p):
            H[i][j] = H[j][i] = rng.uniform(-0.5, 0.5)
    s = L / _quadratic_bound(a, H, x)
    return [v * s for v in a], [[v * s for v in row] for row in H]


def _spectral_norm(H: list[list[float]]) -> float:
    return float(np.linalg.norm(np.asarray(H), 2))


def run_quad2d(seed: int) -> list[Command]:
    rng = random.Random(f"run-quad2d:{seed}")
    x = _point(rng, 2)
    # L = 1.5 with delta 0.3 and epsilon 0.5 makes the planner pick n = 7.
    a, H = _quadratic(rng, 2, x, 1.5)
    config = {
        "function": {"kind": "quadratic", "coefficients": a, "hessian": H},
        "x": x,
        "accuracy": {"gamma": GAMMA, "delta": 0.3, "epsilon": 0.5},
        "shots": 100_000,
        "seed": rng.randrange(2 ** 31),
    }
    return [Command("run", config, 1 << 14, planned=True)]


def verify_sin3d(seed: int) -> list[Command]:
    rng = random.Random(f"verify-sin3d:{seed}")
    x = _point(rng, 3)
    b = [rng.uniform(-1.0, 1.0) for _ in range(3)]
    c = rng.choice((-1.0, 1.0)) / max(abs(v) for v in b)  # L = |c| max|b| = 1
    M = abs(c) * sum(v * v for v in b)
    # delta 0.6 and epsilon 0.5 are met at n = 5, so the guarantee is asserted.
    config = {
        "function": {"kind": "sinusoidal", "amplitude": c, "frequencies": b},
        "x": x,
        "accuracy": {"gamma": GAMMA, "delta": 0.6, "epsilon": 0.5},
        "params": closed_form_params(5, 1.0, M, 0.6, 0.5),
        "group_mode": "xor",
        "phase_variant": "per-bit",
    }
    return [Command("verify", config, 1 << 15, planned=False)]


SWEEP_KINDS = ("linear", "quadratic", "sinusoidal", "custom-coefficients")
SWEEP_VARIANTS = (("modular", "direct"), ("xor", "per-bit"))
# Planned n at L = 1, delta = 1, epsilon = 0.5 is 3 for p = 1 and 4 for p = 2;
# the planner cannot go below n = 3 at p = 3, so p = 3 gets explicit n = 2.
SWEEP_GRID_BITS = {1: 3, 2: 8, 3: 6}


def _sweep_function(kind: str, variant: int, rng: random.Random, p: int,
                    x: list[float]) -> tuple[dict, float]:
    """Function spec with gradient bound exactly or nearly 1, and its M."""
    if kind == "sinusoidal":
        b = [rng.uniform(-1.0, 1.0) for _ in range(p)]
        c = 1.0 / max(abs(v) for v in b)
        return ({"kind": kind, "amplitude": c, "frequencies": b},
                c * sum(v * v for v in b))
    if kind == "linear" or (kind == "custom-coefficients" and variant == 0):
        a = [rng.uniform(-1.0, 1.0) for _ in range(p)]
        top = max(abs(v) for v in a)
        # Dividing by the max makes L exactly 1, so the bandwidth condition
        # holds exactly and verify runs the leakage audit.
        return {"kind": kind, "coefficients": [v / top for v in a]}, 0.0
    a, H = _quadratic(rng, p, x, 1.0)
    return ({"kind": kind, "coefficients": a, "hessian": H}, _spectral_norm(H))


def sweep_small(seed: int) -> list[Command]:
    rng = random.Random(f"sweep-small:{seed}")
    commands = []
    for p in (1, 2, 3):
        for kind in SWEEP_KINDS:
            for variant, (group_mode, phase_variant) in enumerate(SWEEP_VARIANTS):
                x = _point(rng, p)
                function, M = _sweep_function(kind, variant, rng, p, x)
                config = {
                    "function": function,
                    "x": x,
                    "accuracy": {"gamma": GAMMA, "delta": 1.0, "epsilon": 0.5},
                    "shots": 100,
                    "seed": rng.randrange(2 ** 31),
                    "group_mode": group_mode,
                    "phase_variant": phase_variant,
                }
                planned = p < 3
                if not planned:
                    config["params"] = closed_form_params(2, 1.0, M, 1.0, 0.5)
                points = 1 << SWEEP_GRID_BITS[p]
                commands += [Command(name, config, points, planned)
                             for name in ("plan", "run", "verify")]
    return commands


GENERATORS = {"run-quad2d": run_quad2d, "verify-sin3d": verify_sin3d,
              "sweep-small": sweep_small}


def generate(workload: str, seed: int) -> list[Command]:
    return GENERATORS[workload](seed)


def prepare(workload: str, seed: int, work_dir: str):
    """Generate a workload, write its configs and parse them with gradkick.

    Returns (commands, argvs): argvs[i] runs commands[i] with its own record
    path under work_dir. Parsing here means a malformed config fails set-up,
    not a timed command.
    """
    from gradkick.config import ExperimentConfig

    commands = generate(workload, seed)
    os.makedirs(work_dir, exist_ok=True)
    argvs = []
    written: dict[int, str] = {}
    for i, cmd in enumerate(commands):
        key = id(cmd.config)
        if key not in written:
            path = os.path.join(work_dir, f"config-{len(written):02d}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(cmd.config, handle)
            ExperimentConfig.from_json_file(path)
            written[key] = path
        out = os.path.join(work_dir, f"record-{i:02d}-{cmd.command}.json")
        argvs.append(cmd.argv(written[key], out))
    return commands, argvs
