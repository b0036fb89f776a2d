"""Set-up probe: python3 perfbench/probe.py WORKLOAD SEED WORK_DIR

Imports gradkick, generates, writes and parses one workload's inputs, prints
"ready" and exits. run.py times it from spawn to that line for setup_s.
"""

import sys

from run import setup

if __name__ == "__main__":
    setup(sys.argv[1], int(sys.argv[2]), sys.argv[3])
    print("ready", flush=True)
