"""Command-line front end: plan, run, verify, bench.

Every subcommand takes exactly two options. --config names the JSON config
tree, the only source of the run's values; --out, when given, names the file
the canonical record is written to. A record path that names a directory,
or a directory that does not exist, is refused before the command does any
work. The record is streamed, one block at a time, into a temporary file
beside that path and renamed onto it at the end, so a failed write leaves
no partial record and any older one intact.

Exit status: 0 on success, 1 when an asserted check or the pipeline itself
failed, 2 for configuration and usage problems, among them running out of
memory, a grid over max_grid_bits, planned or explicit, and a sampling box
outside the domain. All four commands check that guard, and take the
record's grid size from it, before the range format, the classical baseline
or any grid work; run, verify and bench check the box next, and plan
notes a box outside the domain without failing. plan and verify
check the planning inequalities first, so an unevaluable one is refused
ahead of the guard. bench names the sweep entry, config.sweep[i], in these
errors. A verify run whose planning inequalities fail is not by itself an
error (the report records the broken inequality); only asserted checks
decide the status.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import sys
import time
from typing import Any, BinaryIO, Callable, Sequence

import numpy as np

from . import __version__
from .algorithm import check_sampling_box, plan_run_format, run_pipeline
from .analysis import (BoundViolation, check_inequalities, classical_baseline,
                       verify_theorem)
from .config import (ConfigError, ExperimentConfig, ResultRecord,
                     distribution_entries, record_json, sample_summary,
                     to_tree)
from .oracle import DomainError, FormatError, RangeOverflowError
from .operators import ResidualEntanglementError
from .params import PlannerError
from .states import blocks, check_grid_bits

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2

# Failures the harness asserts against: these exit 1, not 2.
PIPELINE_ERRORS = (RangeOverflowError, ResidualEntanglementError, BoundViolation)


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


def check_record_path(path: str) -> None:
    """Raise, before any work is done, the OSError that writing a record to
    path would raise when path names a directory or a directory that does
    not exist. No file is created."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not os.path.isdir(os.path.dirname(path) or os.curdir):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def write_record(path: str, emit: Callable[[Callable[[str], None]], Any]) -> None:
    """Write the record text that emit hands to its writer, block by block,
    to path.

    The blocks go through write_text into a temporary file beside path,
    which replaces path once the last block is written. On any exception
    the temporary file is removed and path is left as it was, so a failed
    write never leaves a truncated record that looks whole. A temporary
    file of the same name, left by a killed process of the same pid, is
    not overwritten: opening it raises FileExistsError.
    """
    directory, name = os.path.split(path)
    temporary = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    handle = open(temporary, "xb")
    try:
        with handle:
            emit(functools.partial(write_text, handle))
        os.replace(temporary, path)
    except BaseException:
        os.unlink(temporary)
        raise
    print(f"record written to {path}")


def write_text(handle: BinaryIO, text: str) -> None:
    """Write one block of record text to handle as UTF-8, BLOCK_BYTES
    characters at a time, so no encoded copy of a whole block is held."""
    for block in blocks(len(text), 1):
        handle.write(text[block].encode("utf-8"))


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
    bits, size, mem = check_grid_bits(params.n, model.p, cfg.max_grid_bits)
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
    try:
        check_sampling_box(model, np.asarray(cfg.x, dtype=float), params)
    except DomainError as exc:
        print(f"note: {exc}; run, verify and bench refuse this config")
    record = ResultRecord(command="plan", config=cfg, params=params,
                          grid_bits=bits, grid_size=size,
                          memory_estimate_bytes=mem, inequalities=ineqs)
    if path:
        write_record(path, record.to_json)
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
    bits, size, mem = check_grid_bits(params.n, model.p, cfg.max_grid_bits)
    x = np.asarray(cfg.x, dtype=float)
    check_sampling_box(model, x, params)
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
        # Only the summary is kept: the shots are counted as they are drawn.
        samples = sample_summary(chi, cfg.shots, cfg.seed, params)
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
        write_record(path, record.to_json)
    return EXIT_OK


def cmd_verify(cfg: ExperimentConfig, path: str | None) -> int:
    if cfg.accuracy is None:
        raise ConfigError("verify requires an accuracy block (gamma, delta, epsilon)")
    model = cfg.resolve_model()
    params = cfg.resolve_params(model)
    x = np.asarray(cfg.x, dtype=float)
    # verify_theorem's order of refusals: an unevaluable inequality, the
    # guard, the sampling box, then the one range format of the command.
    check_inequalities(params, cfg.accuracy, model.grad_bound, model.hess_bound, model.p)
    bits, size, mem = check_grid_bits(params.n, model.p, cfg.max_grid_bits)
    check_sampling_box(model, x, params)
    fmt = plan_run_format(model, x, params, cfg.group_mode)
    started = time.perf_counter()
    report = verify_theorem(model, x, cfg.accuracy, params,
                            group_mode=cfg.group_mode,
                            phase_variant=cfg.phase_variant,
                            max_grid_bits=cfg.max_grid_bits,
                            range_format=fmt)
    verify_seconds = time.perf_counter() - started
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
        write_record(path, record.to_json)
    return EXIT_FAILED if report.failures else EXIT_OK


def cmd_bench(cfg: ExperimentConfig, path: str | None) -> int:
    rows = []
    print("index\tp\tn\tnu\tgrid_size\tquantum_calls\tclassical_calls")
    for index, entry in enumerate(cfg.sweep):
        context = f"config.sweep[{index}]"
        sub = cfg.merged(entry, context)
        try:
            model = sub.resolve_model(context)
            params = sub.resolve_params(model)
            bits, size, mem = check_grid_bits(params.n, model.p, sub.max_grid_bits)
            x = np.asarray(sub.x, float)
            check_sampling_box(model, x, params)
        except (PlannerError, DomainError) as exc:
            raise type(exc)(f"{context}: {exc}") from None
        # The pipeline makes exactly two oracle applications by construction
        # (forward and inverse); the classical count is measured by running
        # the one-sided baseline at step mu.
        _, classical_calls = classical_baseline(model, x, step=params.mu)
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
        write_record(path, functools.partial(record_json, payload))
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
    except (ConfigError, PlannerError, FormatError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_USAGE
    except PIPELINE_ERRORS as exc:
        print(f"pipeline failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
