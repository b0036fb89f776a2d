"""Independent numpy reference for the outcomes the benchmark checks.

Nothing here calls gradkick. The pre-transform state is built directly from
its definition, amplitude 2^(-pn/2) exp(2 pi i lam q(f(x + mu (h - g0)))),
with vectorized model evaluation and quantization, and the output state is
its orthonormal inverse FFT. Records are compared against these values
within a tolerance, so a kernel that only moves the last float bits passes
and a wrong answer fails.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from workloads import Command, closed_form_params

TOL = 1e-9  # absolute, scaled by max(1, |expected|)
DUAL_PATH_LIMIT = 1e-10
SIGMAS = 6.0  # sampled means may stray this many standard errors

STORED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "reference.json")


def _close(value, expected, tol: float = TOL) -> bool:
    return abs(float(value) - float(expected)) <= tol * max(1.0, abs(float(expected)))


class Problem:
    """The objective of one config as numpy arrays, with L, M and its gradient."""

    def __init__(self, config: dict):
        fn = config["function"]
        self.x = np.asarray(config["x"], dtype=float)
        self.p = self.x.size
        self.accuracy = config["accuracy"]
        self.group_mode = config.get("group_mode", "modular")
        if config.get("domain") is not None:
            raise ValueError("reference supports the default gamma cube only")
        width = self.accuracy["gamma"]
        if fn["kind"] == "sinusoidal":
            self.c = float(fn["amplitude"])
            self.b = np.asarray(fn["frequencies"], dtype=float)
            self.L = abs(self.c) * float(np.max(np.abs(self.b)))
            self.M = abs(self.c) * float(self.b @ self.b)
            self.kind = "sinusoidal"
        else:
            self.a = np.asarray(fn["coefficients"], dtype=float)
            hess = fn.get("hessian")
            self.H = (np.zeros((self.p, self.p)) if hess is None
                      else np.asarray(hess, dtype=float))
            self.kind = "linear" if hess is None else "quadratic"
            self.L = float(np.max(np.abs(self.a + self.H @ self.x)
                                  + np.abs(self.H) @ np.full(self.p, width)))
            self.M = float(np.linalg.norm(self.H, 2)) if hess is not None else 0.0
        self.explicit = config.get("params")

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        if self.kind == "sinusoidal":
            return self.c * np.sin(points @ self.b)
        out = points @ self.a
        if self.kind == "quadratic":
            out = out + 0.5 * np.einsum("ij,ij->i", points, points @ self.H.T)
        return out

    def gradient(self) -> np.ndarray:
        if self.kind == "sinusoidal":
            return self.c * math.cos(float(self.b @ self.x)) * self.b
        return self.a + self.H @ self.x

    def params(self) -> dict:
        """Explicit params, or the closed-form plan for the accuracy targets."""
        if self.explicit is not None:
            return dict(self.explicit)
        delta, eps = self.accuracy["delta"], self.accuracy["epsilon"]
        window = 1.0 - ((2.0 + eps) / 3.0) ** (2.0 / self.p)
        s = math.sin(math.pi * delta / (2.0 * (self.L + delta)))
        n = math.ceil(-math.log2(s * s * window))
        return closed_form_params(n, self.L, self.M, delta, eps)

    def range_format(self, params: dict) -> tuple[int, float, float]:
        """(bits, a0, a1) sized from |f(x)| + L p 2^(n-1) mu."""
        nu = params["nu"]
        fx = float(self.evaluate(self.x[None, :])[0])
        bound = max(abs(fx) + self.L * self.p * 2.0 ** (params["n"] - 1) * params["mu"], nu)
        bits = 1
        while nu * ((1 << bits) - 1) < 2.0 * bound:
            bits += 1
        return bits, -nu * float(1 << (bits - 1)), nu


def _decode_axis(params: dict) -> np.ndarray:
    size = 1 << params["n"]
    scale = float(size) * params["lambda"] * params["mu"]
    g = np.arange(size)
    return np.where(g < size // 2, -g / scale, (size - g) / scale)


def _window_mask(vals: np.ndarray, grad: np.ndarray, delta: float) -> np.ndarray:
    mask = np.abs(vals - grad[0]) < delta
    for m in range(1, grad.size):
        mask = np.logical_and.outer(mask, np.abs(vals - grad[m]) < delta)
    return mask.reshape(-1)


def expected(cmd: Command) -> dict:
    """Reference outcomes of one command."""
    prob = Problem(cmd.config)
    params = prob.params()
    n, p = params["n"], prob.p
    out = {"params": params, "grid_size": 1 << (n * p), "gradient": prob.gradient()}
    if cmd.command == "plan":
        return out
    bits, a0, a1 = prob.range_format(params)
    out["format"] = {"bits": bits, "a0": a0, "a1": a1, "group_mode": prob.group_mode}
    size = 1 << n
    offsets = np.indices((size,) * p).reshape(p, -1).T - (float(size // 2) - 0.5)
    f_true = prob.evaluate(prob.x + params["mu"] * offsets)
    words = np.clip(np.rint((f_true - a0) / a1), 0, (1 << bits) - 1)
    f_q = a0 + a1 * words
    lam = params["lambda"]
    amp = 1.0 / math.sqrt(out["grid_size"])
    psi = amp * np.exp(2j * math.pi * lam * f_q)
    chi = np.fft.ifftn(psi.reshape((size,) * p), norm="ortho").reshape(-1)
    probs = np.abs(chi) ** 2
    vals = _decode_axis(params)
    decoded = np.stack(np.meshgrid(*([vals] * p), indexing="ij"), axis=-1).reshape(-1, p)
    out["probabilities"] = probs
    out["decoded"] = decoded
    if cmd.command == "run":
        mean = probs @ decoded
        out["mean"] = mean
        out["std"] = np.sqrt(np.maximum(probs @ (decoded - mean) ** 2, 0.0))
        return out
    grad = out["gradient"]
    fx = float(prob.evaluate(prob.x[None, :])[0])
    f_lin = fx + params["mu"] * (offsets @ grad)
    e_lin = np.exp(2j * math.pi * lam * f_lin)
    e_true = np.exp(2j * math.pi * lam * f_true)
    psi_L = amp * e_lin
    chi_L = np.fft.ifftn(psi_L.reshape((size,) * p), norm="ortho").reshape(-1)
    mask = _window_mask(vals, grad, prob.accuracy["delta"])
    success = float(np.sum(probs[mask]))
    out.update(
        psi_D_norm=float(np.linalg.norm(psi - amp * e_true)),
        psi_N_norm=float(np.linalg.norm(amp * (e_true - e_lin))),
        success_probability=success,
        projected_amplitude=math.sqrt(success),
        projected_linear=math.sqrt(float(np.sum(np.abs(chi_L[mask]) ** 2))),
    )
    return out


def _check_common(cmd: Command, record: dict, ref: dict, problems: list[str]) -> None:
    if record.get("command") != cmd.command:
        problems.append(f"record command {record.get('command')!r}")
    if record["grid_size"] != ref["grid_size"] or record["grid_size"] != cmd.grid_points:
        problems.append(f"grid size {record['grid_size']} != {ref['grid_size']}")
    got = record["params"]
    want = ref["params"]
    if got["n"] != want["n"] or not all(_close(got[k], want[k], 1e-12)
                                        for k in ("nu", "lambda", "mu")):
        problems.append(f"params {got} != reference {want}")
    if cmd.command != "plan":
        if record["oracle_calls"] != 2:
            problems.append(f"oracle_calls {record['oracle_calls']} != 2")
        fmt, want = record["format"], ref["format"]
        if not (fmt["bits"] == want["bits"] and fmt["group_mode"] == want["group_mode"]
                and _close(fmt["a0"], want["a0"], 1e-12)
                and _close(fmt["a1"], want["a1"], 1e-12)):
            problems.append(f"format {fmt} != reference {want}")


def _check_plan(cmd: Command, record: dict, ref: dict, problems: list[str]) -> None:
    checks = record["inequalities"]["checks"]
    if [c["name"] for c in checks] != ["curvature", "precision", "margin",
                                      "bandwidth", "leakage"]:
        problems.append("inequality report is incomplete")
    if cmd.planned and not all(c["holds"] for c in checks):
        problems.append("planned parameters fail a planning inequality")


def _check_run(cmd: Command, record: dict, ref: dict, problems: list[str]) -> None:
    rows = record["distribution"]
    n, p = ref["params"]["n"], len(ref["gradient"])
    g = np.asarray([row["g"] for row in rows], dtype=np.int64).reshape(-1, p)
    flat = np.ravel_multi_index(g.T, (1 << n,) * p) if rows else np.zeros(0, np.int64)
    got = np.asarray([row["probability"] for row in rows], dtype=float)
    total = float(got.sum())
    if abs(total - 1.0) > 1e-9:
        problems.append(f"distribution sums to {total!r}")
    probs = ref["probabilities"]
    if got.size and float(np.max(np.abs(got - probs[flat]))) > TOL:
        problems.append("distribution probabilities differ from the reference")
    floor = record["prob_floor"]
    missing = np.setdiff1d(np.flatnonzero(probs > floor + TOL), flat)
    if missing.size:
        problems.append(f"{missing.size} outcomes above the floor are missing")
    grads = np.asarray([row["gradient"] for row in rows], dtype=float).reshape(-1, p)
    if grads.size and not np.allclose(grads, ref["decoded"][flat], rtol=1e-12, atol=0):
        problems.append("decoded gradients differ from the reference")
    if not np.allclose(record["true_gradient"], ref["gradient"], rtol=1e-12, atol=1e-15):
        problems.append("true gradient differs from the reference")
    samples = record["samples"]
    shots = cmd.config["shots"]
    if samples["shots"] != shots or sum(c["count"] for c in samples["outcome_counts"]) != shots:
        problems.append("sample counts do not add up to the shot count")
    slack = SIGMAS * ref["std"] / math.sqrt(shots) + TOL
    if np.any(np.abs(np.asarray(samples["mean_gradient"]) - ref["mean"]) > slack):
        problems.append(f"sampled mean {samples['mean_gradient']} is off "
                        f"the reference mean {ref['mean'].tolist()}")


def _check_verify(cmd: Command, record: dict, ref: dict, problems: list[str]) -> None:
    report = record["theorem"]
    if report["failures"]:
        problems.append(f"verify failures: {report['failures']}")
    if not report["dual_path_error"] <= DUAL_PATH_LIMIT:
        problems.append(f"dual_path_error {report['dual_path_error']!r}")
    for key in ("psi_D_norm", "psi_N_norm", "success_probability",
                "projected_amplitude", "projected_linear"):
        if not _close(report[key], ref[key]):
            problems.append(f"{key} {report[key]!r} != reference {ref[key]!r}")
    if not np.allclose(report["true_gradient"], ref["gradient"], rtol=1e-12, atol=1e-15):
        problems.append("true gradient differs from the reference")
    if cmd.planned and not report["guarantee_asserted"]:
        problems.append("guarantee not asserted for planned parameters")


CHECKS = {"plan": _check_plan, "run": _check_run, "verify": _check_verify}


def check_record(cmd: Command, record: dict) -> list[str]:
    """Problems found in one record; empty when it matches the reference."""
    ref = expected(cmd)
    problems: list[str] = []
    try:
        _check_common(cmd, record, ref, problems)
        CHECKS[cmd.command](cmd, record, ref, problems)
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"malformed record: {type(exc).__name__}: {exc}")
    return problems


def digest(command: str, record: dict) -> list[float]:
    """A few outcome numbers of one record, for the stored reference table."""
    params = record["params"]
    head = [float(params[k]) for k in ("n", "nu", "lambda", "mu")]
    if command == "plan":
        return head
    if command == "run":
        rows = record["distribution"]
        return head + [max(r["probability"] for r in rows),
                       sum(r["probability"] * sum(r["gradient"]) for r in rows),
                       sum(record["samples"]["mean_gradient"])]
    report = record["theorem"]
    return head + [float(report[k]) for k in ("psi_D_norm", "psi_N_norm",
                                              "success_probability",
                                              "projected_linear")]


def workload_digest(commands: list[Command], records: list[dict]) -> dict:
    """Per command kind, the element-wise sum of the digests of its records."""
    out: dict[str, list[float]] = {}
    for cmd, record in zip(commands, records):
        values = digest(cmd.command, record)
        acc = out.setdefault(cmd.command, [0.0] * len(values))
        out[cmd.command] = [a + v for a, v in zip(acc, values)]
    return out


def load_stored() -> dict:
    with open(STORED_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def check_stored(workload: str, seed: int, found: dict, stored: dict) -> dict[str, str]:
    """Per command kind, how its digest differs from the stored one; empty
    when the seed has no stored digest or everything matches."""
    want = stored.get(f"{workload}:{seed}", {})
    problems = {}
    for kind, values in want.items():
        got = found.get(kind)
        if got is None or len(got) != len(values) or not all(
                _close(a, b) for a, b in zip(got, values)):
            problems[kind] = f"{kind} outcomes {got} != stored reference {values}"
    return problems
