"""Set-up probe: import qvar from the checkout and write one workload's
configs, then print `ready`.  run.py times this from process start to the
`ready` line to measure set-up time.

usage: python3 bench/probe.py WORKLOAD SEED WORKDIR
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402  (needs the path above)

workloads.build(sys.argv[1], int(sys.argv[2]), sys.argv[3])
print("ready", flush=True)
