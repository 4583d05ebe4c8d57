"""Set-up probe: import the CLI, build one job's hierarchy, print the clock.

Usage::

    python3 perfbench/setup_probe.py [TYPE MAX_FLOW_K OMEGA_MAX_K]

Prints ``time.monotonic()`` (a clock shared by all processes) once the work
is done, so the caller can time it from the moment it launched this process.
Without arguments only the import is timed, as for a job with no hierarchy.
"""

import sys
import time

import dshierarchy.cli  # noqa: F401  (the import is what is timed)

if len(sys.argv) == 4:
    from dshierarchy.hierarchy import DSHierarchy

    DSHierarchy(sys.argv[1], 0, max_flow_k=int(sys.argv[2]),
                omega_max_k=int(sys.argv[3]))
print(repr(time.monotonic()))
