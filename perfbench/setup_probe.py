"""Set-up cost in a fresh interpreter: import every homkit module and build
one workload's inputs, then print the seconds that took.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR
"""

import time

T0 = time.perf_counter()

if __name__ == "__main__":
    import os
    import sys

    HERE = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

    import homkit.cli  # noqa: F401  (imports every homkit module)
    import workloads

    workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), sys.argv[3])
    print(time.perf_counter() - T0)
