"""Regenerate reference.json, the stored outcome digests of every workload.

    python3 perfbench/make_reference.py

Runs each workload's command cycle once for every stored seed, checks each
record against the independent reference first, and stops without writing
if any check fails. run.py then compares the digests of the seeds listed
here within reference.TOL. Regenerate only at a commit whose outputs are
trusted, and say so in the change that does.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys

import reference
import run
import workloads

STORED_SEEDS = tuple(range(40)) + (workloads.HELD_BACK_SEED,)


def digest_of(cli, workload: str, seed: int, work_dir: str) -> dict:
    commands, argvs = workloads.prepare(workload, seed, work_dir)
    records = []
    for cmd, argv in zip(commands, argvs):
        with contextlib.redirect_stdout(run._Discard()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"{workload} seed {seed}: {' '.join(argv)} exited {code}")
        with open(argv[-1], "r", encoding="utf-8") as handle:
            record = json.load(handle)
        problems = reference.check_record(cmd, record)
        if problems:
            raise RuntimeError(f"{workload} seed {seed} {cmd.command}: {problems}")
        records.append(record)
    return reference.workload_digest(commands, records)


def main() -> int:
    cli = run.import_gradkick()
    work_dir = os.path.join(run.OUT_ROOT, f"make-reference-{os.getpid()}")
    table = {}
    try:
        for workload in workloads.WORKLOAD_NAMES:
            table[workload] = {str(seed): digest_of(cli, workload, seed, work_dir)
                               for seed in STORED_SEEDS}
            print(f"{workload}: {len(STORED_SEEDS)} seeds", file=sys.stderr)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    write_table(table, reference.STORED_PATH)
    return 0


def write_table(table: dict, path: str) -> None:
    """One line per workload and seed, so a regeneration diffs by seed."""
    entries = [f'  "{workload}:{seed}": {json.dumps(table[workload][seed], sort_keys=True)}'
               for workload in sorted(table) for seed in sorted(table[workload], key=int)]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(entries) + "\n}\n")


if __name__ == "__main__":
    sys.exit(main())
