"""Set-up probe: ``python3 perfbench/probe.py <workload> <seed>``.

Runs one workload's set-up in a fresh interpreter, then prints the
monotonic clock; ``run.py`` takes the interval from just before it
started this process to that reading as ``setup_s``.
"""

import sys
import time

import bootstrap

if __name__ == "__main__":
    bootstrap.prepare()
    import workloads

    name, seed = sys.argv[1], int(sys.argv[2])
    workloads.WORKLOADS[name]().setup(seed)
    print(time.monotonic())
