"""Set-up probe: import coinweigh from the checkout, build one workload's
inputs, then print ``ready``.  ``run.py`` times this process from its start
to that line and reports the median over several starts as ``setup_s``.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys

import workloads

workloads.make_inputs(sys.argv[1], int(sys.argv[2]))
print("ready", flush=True)
