"""Set-up time probe, run by run.py in a fresh interpreter:

    python3 perfbench/setup_probe.py WORKLOAD

Prints the seconds taken by `import morreykit` (with numpy and scipy) plus
one warm-up call of the workload, which is what every CLI invocation pays
before its first result.
"""

import sys
import time

start = time.perf_counter()
import workloads  # noqa: E402  (imports morreykit from the checkout)

workloads.WORKLOADS[sys.argv[1]].warm_up()
print(time.perf_counter() - start)
