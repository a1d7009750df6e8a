"""Time one workload set-up in a fresh interpreter and print the seconds.

The clock starts before ``import tortken`` and stops once every algebra,
polynomial, substitution list and expected output of the workload is built.
The time is scaled by reference times taken just before and after it (see
reference.py).

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import reference  # noqa: E402

workload, seed = sys.argv[1], int(sys.argv[2])
ref_before = reference.reference_seconds()
start = time.perf_counter()
import workloads  # noqa: E402  (imports tortken inside the timed interval)
workloads.build(workload, seed)
elapsed = time.perf_counter() - start
print(reference.scaled(elapsed, ref_before, reference.reference_seconds()))
