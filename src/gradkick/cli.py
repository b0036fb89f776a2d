"""Command-line front end: plan, run, verify, bench.

Every subcommand takes exactly two options. --config names the JSON config
tree, the only source of the run's values; --out, when given, names the file
the canonical record is written to. A record path that names a directory,
or a directory that does not exist, is refused before the command does any
work.

Exit status: 0 on success, 1 when an asserted check or the pipeline itself
failed, 2 for configuration and usage problems. A verify run whose planning
inequalities fail is not by itself an error (the report records the broken
inequality); only asserted checks decide the status.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import sys
import time
from typing import Sequence

import numpy as np

from . import __version__
from .algorithm import plan_run_format, run_pipeline, sample_measurements
from .analysis import (BoundViolation, PlannerError, check_inequalities,
                       classical_baseline, verify_theorem)
from .config import (ConfigError, ExperimentConfig, ResultRecord,
                     distribution_entries, grid_geometry, record_json,
                     sample_summary, to_tree)
from .oracle import DomainError, FormatError, RangeOverflowError
from .operators import ResidualEntanglementError
from .states import GridSizeError

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2

# Failures the harness asserts against: these exit 1, not 2.
PIPELINE_ERRORS = (DomainError, RangeOverflowError, ResidualEntanglementError,
                   GridSizeError, BoundViolation)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="gradkick",
        description="Gradient-estimation pipeline simulator and verifier.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("plan", "select parameters from accuracy targets and report slacks"),
        ("run", "execute the pipeline, decode, and sample"),
        ("verify", "audit the success guarantee end to end"),
        ("bench", "sweep configurations, comparing oracle-call counts"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", default=None, help="write the record to this path")
    return parser


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    """The config named by --config, the only source of a run's values. Its
    own function so that perfbench/tracing.py can time it as a span."""
    return ExperimentConfig.from_json_file(args.config)


# Characters of record text encoded per write: a 64 KiB slice for ASCII.
WRITE_BLOCK = 1 << 16


def check_record_path(path: str) -> None:
    """Raise, before any work is done, the OSError that writing a record to
    path would raise when path names a directory or a directory that does
    not exist. No file is created."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not os.path.isdir(os.path.dirname(path) or os.curdir):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def write_text(path: str, text: str) -> None:
    """Write text to path as UTF-8, one WRITE_BLOCK slice at a time, so no
    full-size encoded copy of a large record is ever held."""
    with open(path, "wb") as handle:
        for start in range(0, len(text), WRITE_BLOCK):
            handle.write(text[start:start + WRITE_BLOCK].encode("utf-8"))
    print(f"record written to {path}")


def print_params(params) -> None:
    print(f"  n      = {params.n}")
    print(f"  nu     = {params.nu!r}")
    print(f"  lambda = {params.lam!r}")
    print(f"  mu     = {params.mu!r}")


def print_inequalities(report) -> None:
    print(f"  {'inequality':<10} {'value':>14} {'bound':>14} {'slack':>14}  holds")
    for c in report.checks:
        value = "n/a" if c.value is None else f"{c.value:.6e}"
        slack = "n/a" if c.slack is None else f"{c.slack:.6e}"
        bound = "n/a" if c.bound is None else f"{c.bound:.6e}"
        print(f"  {c.name:<10} {value:>14} {bound:>14} {slack:>14}  "
              f"{'yes' if c.holds else 'NO'}")


def cmd_plan(cfg: ExperimentConfig, path: str | None) -> int:
    if cfg.accuracy is None:
        raise ConfigError("plan requires an accuracy block (gamma, delta, epsilon)")
    model = cfg.resolve_model()
    params = cfg.resolve_params(model)
    ineqs = check_inequalities(params, cfg.accuracy, model.grad_bound,
                               model.hess_bound, model.p)
    bits, size, mem = grid_geometry(params, model.p)
    source = "explicit" if cfg.params is not None else "planned"
    print(f"parameters ({source}) for p={model.p}, L={model.grad_bound!r}, "
          f"M={model.hess_bound!r}:")
    print_params(params)
    print(f"  grid   = 2^{bits} points ({size}), "
          f"about {mem} bytes per dense sector")
    print("planning inequalities:")
    print_inequalities(ineqs)
    if not ineqs.all_hold:
        print("note: at least one inequality fails; the success guarantee "
              "is not asserted for these parameters")
    record = ResultRecord(command="plan", config=cfg, params=params,
                          grid_bits=bits, grid_size=size,
                          memory_estimate_bytes=mem, inequalities=ineqs)
    if path:
        write_text(path, record.to_json())
    return EXIT_OK


def top_rows(column: np.ndarray, count: int) -> np.ndarray:
    """Indices of the count largest entries, largest first, ties in index
    order: np.argsort(-column, kind="stable")[:count] without sorting all.

    Only the entries at or above the count-th largest value are sorted.
    """
    if column.size <= count:
        return np.argsort(-column, kind="stable")
    threshold = np.partition(column, column.size - count)[column.size - count]
    candidates = np.flatnonzero(column >= threshold)
    return candidates[np.argsort(-column[candidates], kind="stable")[:count]]


def cmd_run(cfg: ExperimentConfig, path: str | None) -> int:
    model = cfg.resolve_model()
    params = cfg.resolve_params(model)
    x = np.asarray(cfg.x, dtype=float)
    fmt = plan_run_format(model, x, params, cfg.group_mode)
    started = time.perf_counter()
    chi, calls = run_pipeline(model, x, params, cfg.group_mode,
                              phase_variant=cfg.phase_variant,
                              max_grid_bits=cfg.max_grid_bits,
                              range_format=fmt)
    pipeline_seconds = time.perf_counter() - started
    entries = distribution_entries(chi, params, cfg.prob_floor)
    samples = None
    if cfg.shots > 0:
        # Only the summary is kept: the per-shot arrays are freed before the
        # record is written.
        samples = sample_summary(sample_measurements(chi, cfg.shots, cfg.seed, params),
                                 cfg.shots, cfg.seed)
    bits, size, mem = grid_geometry(params, model.p)
    true_grad = tuple(float(v) for v in model.gradient(x))
    record = ResultRecord(command="run", config=cfg, params=params,
                          grid_bits=bits, grid_size=size,
                          memory_estimate_bytes=mem, format=fmt,
                          oracle_calls=calls, true_gradient=true_grad,
                          prob_floor=cfg.prob_floor, distribution=entries,
                          samples=samples)
    print(f"pipeline finished in {pipeline_seconds:.3f} s with {calls} oracle calls")
    print(f"true gradient: {list(true_grad)}")
    top = top_rows(entries.column("probability"), 8)
    print(f"top outcomes (floor {cfg.prob_floor:g}, {len(entries)} recorded):")
    for i in top.tolist():
        e = entries[i]
        print(f"  g={tuple(e['g'])}  gradient={e['gradient']}  "
              f"p={e['probability']:.6e}")
    if samples is not None:
        print(f"sampled {samples['shots']} shots (seed {samples['seed']}): "
              f"mean gradient {samples['mean_gradient']}")
    if path:
        write_text(path, record.to_json())
    return EXIT_OK


def cmd_verify(cfg: ExperimentConfig, path: str | None) -> int:
    if cfg.accuracy is None:
        raise ConfigError("verify requires an accuracy block (gamma, delta, epsilon)")
    model = cfg.resolve_model()
    params = cfg.resolve_params(model)
    x = np.asarray(cfg.x, dtype=float)
    fmt = plan_run_format(model, x, params, cfg.group_mode)
    started = time.perf_counter()
    report = verify_theorem(model, x, cfg.accuracy, params,
                            group_mode=cfg.group_mode,
                            phase_variant=cfg.phase_variant,
                            max_grid_bits=cfg.max_grid_bits)
    verify_seconds = time.perf_counter() - started
    bits, size, mem = grid_geometry(params, model.p)
    record = ResultRecord(command="verify", config=cfg, params=params,
                          grid_bits=bits, grid_size=size,
                          memory_estimate_bytes=mem, format=fmt,
                          oracle_calls=report.oracle_calls,
                          true_gradient=report.true_gradient,
                          theorem=report)
    print(f"verification finished in {verify_seconds:.3f} s "
          f"({report.oracle_calls} oracle calls)")
    print_params(params)
    print("planning inequalities:")
    print_inequalities(report.inequalities)
    print(f"  |psi_D| = {report.psi_D_norm:.6e}  bound {report.psi_D_bound:.6e}")
    print(f"  |psi_N| = {report.psi_N_norm:.6e}  bound {report.psi_N_bound:.6e}"
          f"{'' if report.psi_N_asserted else '  (reported, not asserted for p > 1)'}")
    print(f"  reconstruction error {report.reconstruction_error:.3e}, "
          f"pipeline/reference gap {report.dual_path_error:.3e}")
    print(f"  projected amplitude {report.projected_amplitude:.6f} "
          f"(floor {report.amplitude_floor}); "
          f"linear part {report.projected_linear:.6f} "
          f"(floor {report.linear_floor:.6f})")
    print(f"  success probability {report.success_probability:.6f}")
    if report.leakage is not None:
        leak = report.leakage
        print(f"  leakage: per-axis max {max(leak.per_axis_max):.6e} "
              f"bound {leak.bound:.6e}"
              f"{' (vacuous)' if leak.vacuous else ''}, "
              f"factorization gap {leak.factorization_error:.3e}")
    if report.guarantee_asserted:
        print("guarantee asserted: all planning inequalities hold")
    else:
        print("guarantee NOT asserted: some planning inequality fails; "
              "measured values are still recorded")
    if report.failures:
        for failure in report.failures:
            print(f"FAILED: {failure}")
    else:
        print("all asserted checks passed")
    if path:
        write_text(path, record.to_json())
    return EXIT_FAILED if report.failures else EXIT_OK


def cmd_bench(cfg: ExperimentConfig, path: str | None) -> int:
    rows = []
    print("index\tp\tn\tnu\tgrid_size\tquantum_calls\tclassical_calls")
    for index, entry in enumerate(cfg.sweep):
        context = f"config.sweep[{index}]"
        sub = cfg.merged(entry, context)
        model = sub.resolve_model(context)
        params = sub.resolve_params(model)
        bits, size, mem = grid_geometry(params, model.p)
        # The pipeline makes exactly two oracle applications by construction
        # (forward and inverse); the classical count is measured by running
        # the one-sided baseline at step mu.
        _, classical_calls = classical_baseline(model, np.asarray(sub.x, float),
                                                step=params.mu)
        print(f"{index}\t{model.p}\t{params.n}\t{params.nu!r}\t{size}\t2\t"
              f"{classical_calls}")
        rows.append({
            "index": index,
            "config": to_tree(sub),
            "params": to_tree(params),
            "grid_bits": bits,
            "grid_size": size,
            "memory_estimate_bytes": mem,
            "quantum_oracle_calls": 2,
            "classical_oracle_calls": classical_calls,
        })
    payload = {"command": "bench", "rows": rows}
    if path:
        write_text(path, record_json(payload))
    return EXIT_OK


COMMANDS = {"plan": cmd_plan, "run": cmd_run, "verify": cmd_verify,
            "bench": cmd_bench}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args)
        if args.out:
            check_record_path(args.out)
        return COMMANDS[args.command](cfg, args.out)
    except (ConfigError, PlannerError, FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PIPELINE_ERRORS as exc:
        print(f"pipeline failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
