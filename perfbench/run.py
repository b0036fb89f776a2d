"""gradkick benchmark: one client in a closed loop over one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload run-quad2d --seed 1 --seconds 38 --trace 0

The benchmark imports gradkick from the checkout's own ``src`` directory and
drives ``gradkick.cli.main([...])`` in-process: one process, one thread,
each command started only after the previous one returned. The workloads
(see workloads.py) cycle through fixed command lists; a run measures whole
cycles until --seconds have passed.

--trace 0 measures the end-to-end metrics with no wrappers installed, after
one untimed warm-up cycle. Command times are reported in "ref" units: each
command's wall time divided by the wall time of a fixed reference work
(reference_work below, which never calls gradkick) timed in the same process
before and after every quarter second or so of commands. The shared host
this runs on changes speed by tens of percent over seconds to minutes; the
reference slows with it, so the ratio stays put while a faster gradkick
still lowers it. Raw wall times are printed on the summary line and, with
--trace 1, as bench.op_p50_s beside the reference time bench.ref_s.
--trace 1 runs a traced phase (tracing.py) for about half the time, removes
every wrapper, then runs an untraced phase for the rest, and reports the
per-layer metrics plus the tracing overhead between the two phases.

Every record is checked after the timed loop: exit status 0, repeats of a
command byte-identical, outcomes equal to the independent reference of
reference.py within a tolerance, and, for seeds it lists, to the stored
digests in reference.json. The traced phase must write the same bytes as the
untraced one. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. The process exits 2 without a result
when gradkick's source is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench-out")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up probes per side of the timed loop; their median is setup_s.
SETUP_PROBES = 4
# The reference work is timed again after at least this much command time,
# repeated for at least this share of the block's time: a reference taken
# often tracks the host's speed closely, a long one averages out its own
# noise, and the share gives each command a reference of about equal weight.
REF_EVERY_S = 0.25
REF_SHARE = 0.1
REF_LOOP = 200_000
REF_TERMS = 2_048
REF_ROUNDS = 5


class _Discard:
    """stdout/stderr sink for the commands: they print, nobody reads it."""

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


def import_gradkick():
    """Import gradkick from this checkout's src, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "gradkick", "__init__.py")):
        raise FileNotFoundError(f"gradkick source not found under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import gradkick.cli

    if not os.path.abspath(gradkick.cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"gradkick imported from {gradkick.cli.__file__}, not {SRC}")
    return gradkick.cli


def setup(workload: str, seed: int, work_dir: str):
    """Import gradkick, then generate, write and parse the workload's inputs."""
    import_gradkick()
    import workloads

    return workloads.prepare(workload, seed, work_dir)


def measure_setup(workload: str, seed: int, work_dir: str) -> list[float]:
    """Wall time from spawning a fresh interpreter until it finished setup()."""
    times = []
    for k in range(SETUP_PROBES):
        probe_dir = os.path.join(work_dir, f"probe-{k}")
        started = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, os.path.join(HERE, "probe.py"), workload,
                 str(seed), probe_dir],
                cwd=ROOT, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - started)
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe exited {code} after {line!r}")
        shutil.rmtree(probe_dir, ignore_errors=True)
    return times


def reference_work() -> None:
    """Fixed work of the kinds gradkick's pipeline does: an integer loop,
    tuple-keyed dicts of complex values read in scattered order, and array
    passes. It never calls gradkick and holds well under 1 MB at a time, so
    it barely moves peak_rss_mib."""
    total = 0
    for i in range(REF_LOOP):
        total += i * i % 7
    for r in range(REF_ROUNDS):
        table = {}
        for i in range(REF_TERMS):
            table[(i, i >> 3, r)] = complex(i % 13, i % 5)
        keys = list(table)
        acc = 0j
        for j in range(REF_TERMS):
            acc += table[keys[j * 7919 % REF_TERMS]]
    arr = np.arange(REF_TERMS * 4, dtype=np.float64)
    for _ in range(50):
        arr = np.sqrt(arr * arr + 1.0)


def time_reference(block_s: float) -> float:
    """Mean wall time of reference_work(), the unit "ref" of the timings,
    over repeats that last at least REF_SHARE * block_s (at least one).

    It is taken in the same process between commands, so when the shared
    host slows down or speeds up, commands and reference move together and
    the ratio holds.
    """
    started = time.perf_counter()
    repeats = 0
    while True:
        reference_work()
        repeats += 1
        elapsed = time.perf_counter() - started
        if elapsed >= REF_SHARE * block_s:
            return elapsed / repeats


@dataclass
class Phase:
    """Outcome of one timed loop over whole workload cycles."""

    durations: list[float] = field(default_factory=list)
    # Per command, the mean of the reference times taken before and after
    # the block of commands it ran in (only after, for a phase's first block).
    refs: list[float] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)  # exit 0, no exception
    hashes: list[str | None] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    wall: float = 0.0
    cycles: int = 0
    peak_rss_mib: float = 0.0


def _sha256(path: str) -> str | None:
    try:
        with open(path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()
    except FileNotFoundError:
        return None


def run_phase(cli, argvs: list[list[str]], seconds: float, min_cycles: int = 1,
              tracer=None) -> Phase:
    phase = Phase()
    sink = _Discard()
    started = time.perf_counter()
    deadline = started + seconds
    # The first reference comes after the first commands, so the process's
    # first pipeline, whose memory growth the tracer measures, runs first.
    ref_before = None
    block_start, block_began = 0, time.perf_counter()

    def close_block() -> None:
        nonlocal ref_before, block_start, block_began
        ref_after = time_reference(time.perf_counter() - block_began)
        mean = ref_after if ref_before is None else (ref_before + ref_after) / 2
        phase.refs.extend([mean] * (len(phase.durations) - block_start))
        ref_before, block_start = ref_after, len(phase.durations)
        block_began = time.perf_counter()

    while True:
        cycle_start = time.perf_counter()
        for i, argv in enumerate(argvs):
            out_path = argv[-1]
            with contextlib.suppress(FileNotFoundError):
                os.remove(out_path)
            error = None
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    code = cli.main(argv)
                except Exception:  # the loop must go on; the failure is counted
                    code = None
                    error = traceback.format_exc()
            phase.durations.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.end_command()
            phase.ok.append(code == 0)
            phase.hashes.append(_sha256(out_path))
            if code != 0:
                phase.errors.append(error or f"{' '.join(argv)} exited {code}")
            if time.perf_counter() - block_began >= REF_EVERY_S:
                close_block()
        phase.cycles += 1
        if tracer is not None and tracer.points is None:
            # From the second cycle on, so the first pipeline's memory
            # figure does not include the point set.
            tracer.points = set()
        now = time.perf_counter()
        # Stop at the cycle boundary nearest the deadline.
        if phase.cycles >= min_cycles and now + (now - cycle_start) / 2 >= deadline:
            break
    if block_start < len(phase.durations):
        close_block()
    phase.wall = time.perf_counter() - started
    # Taken here, before the checks parse the records.
    phase.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return phase


def failed_attempts(phase: Phase, first_hashes: list[str | None],
                    problems: dict[int, list[str]]) -> int:
    """Failed attempts: not ok, or not byte-identical to the first record of
    their command, or that record had problems."""
    n = len(first_hashes)
    failed = 0
    for k, (ok, digest) in enumerate(zip(phase.ok, phase.hashes)):
        if not ok or digest is None or digest != first_hashes[k % n] or problems[k % n]:
            failed += 1
    return failed


def record_problems(commands, argvs, first_hashes, workload: str, seed: int):
    """Check the first record of every command against the references."""
    import reference

    problems: dict[int, list[str]] = {}
    records = []
    for i, (cmd, argv) in enumerate(zip(commands, argvs)):
        found = []
        record = None
        if first_hashes[i] is None:
            found.append("no record written")
        elif _sha256(argv[-1]) != first_hashes[i]:
            found.append("record changed between repeats")
        else:
            with open(argv[-1], "r", encoding="utf-8") as handle:
                record = json.load(handle)
            found += reference.check_record(cmd, record)
        problems[i] = found
        records.append(record)
    if all(r is not None for r in records):
        stored = reference.check_stored(workload, seed,
                                        reference.workload_digest(commands, records),
                                        reference.load_stored())
        for i, cmd in enumerate(commands):
            if cmd.command in stored:
                problems[i].append(stored[cmd.command])
    return problems


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile by statistics.quantiles (exclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def normalized(phase: Phase) -> list[float]:
    """Each command's wall time in ref units (see time_reference)."""
    return [d / r for d, r in zip(phase.durations, phase.refs)]


def end_to_end(phase: Phase, setup_times: list[float], failed: int,
               attempted: int) -> dict:
    times = normalized(phase)
    return {
        "ops_per_ref": (len(times) / sum(times), "1/ref"),
        "op_p50_ref": (statistics.median(times), "ref"),
        "op_p90_ref": (quantile(times, 90), "ref"),
        "peak_rss_mib": (phase.peak_rss_mib, "MiB"),
        "setup_s": (statistics.median(setup_times), "s"),
        "passed_frac": ((attempted - failed) / attempted, "ratio"),
    }


def parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    args = parse_args(argv)
    work_dir = os.path.join(OUT_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        return _run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _run(args, work_dir: str) -> int:
    try:
        cli = import_gradkick()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    commands, argvs = setup(args.workload, args.seed, work_dir)
    n = len(argvs)
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_phase(cli, argvs, args.seconds / 2, min_cycles=2, tracer=tracer)
        finally:
            tracer.uninstall()
        leftover = tracing.installed_wrappers()
        if leftover:
            raise RuntimeError(f"wrappers left installed: {leftover}")
        untraced = run_phase(cli, argvs, args.seconds - traced.wall)
        phases = [traced, untraced]
    else:
        # Probes on both sides of the loop, so setup_s samples two moments
        # of a machine whose speed drifts.
        setup_times = measure_setup(args.workload, args.seed, work_dir)
        # One untimed cycle first, so lazy set-up and first-touch memory
        # stay out of the timings; its records are checked like the rest.
        warm = run_phase(cli, argvs, 0.0)
        untraced = run_phase(cli, argvs, args.seconds - warm.wall)
        setup_times += measure_setup(args.workload, args.seed, work_dir)
        phases = [warm, untraced]
    first = untraced.hashes[:n]  # a phase runs whole cycles
    problems = record_problems(commands, argvs, first, args.workload, args.seed)
    if args.trace:
        for i in range(n):
            if traced.hashes[i] != first[i]:
                problems[i] = problems[i] + ["traced record differs from untraced record"]
    failed = sum(failed_attempts(ph, first, problems) for ph in phases)
    attempted = sum(len(ph.durations) for ph in phases)

    if args.trace:
        metrics = tracing.per_layer_metrics(tracer, len(traced.durations))
        overhead = (statistics.median(normalized(traced))
                    / statistics.median(normalized(untraced)) - 1.0)
        metrics["trace.overhead_frac"] = (overhead, "ratio")
        metrics["bench.op_p50_s"] = (statistics.median(untraced.durations), "s")
        metrics["bench.ref_s"] = (statistics.median(untraced.refs), "s")
        os.makedirs(OUT_ROOT, exist_ok=True)
        tracer.write(os.path.join(OUT_ROOT, f"trace-{args.workload}-seed{args.seed}.json"))
    else:
        metrics = end_to_end(untraced, setup_times, failed, attempted)

    for i, found in problems.items():
        for text in found:
            print(f"check failed: command {i} ({commands[i].command}): {text}",
                  file=sys.stderr)
    for ph in phases:
        for text in ph.errors[:5]:
            print(f"command failed: {text}", file=sys.stderr)
    samples = len(untraced.durations)
    print(f"{args.workload} seed {args.seed}: {attempted} commands attempted, "
          f"{failed} failed (failed_frac {failed / attempted:.6g}); timings over "
          f"{samples} untraced commands in {untraced.cycles} cycles; median wall "
          f"{statistics.median(untraced.durations):.4g} s, median ref "
          f"{statistics.median(untraced.refs):.4g} s")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
