"""One set-up, as a fresh process pays it: import the package, make the inputs.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints `time.monotonic_ns()` once set-up is done; the caller subtracts the
moment it started this process.  Exits non-zero when the package cannot be
imported from this checkout's ``src``.
"""

import sys
import time

import run

if __name__ == "__main__":
    run.set_up(sys.argv[1], int(sys.argv[2]))
    print(time.monotonic_ns())
