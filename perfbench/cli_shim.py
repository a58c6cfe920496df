"""Run the newton2d CLI like ``python -m newton2d.cli`` and report its import
time, for the traced cli-session run.

Usage: cli_shim.py TIMING_FILE CLI_ARG...

Writes ``[import_start, import_end]`` in ``time.perf_counter`` seconds to
TIMING_FILE.  On Linux that clock is CLOCK_MONOTONIC, shared by all
processes, so the parent can place the import span inside its own span of
the subprocess.
"""

import json
import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    import newton2d.cli

    t1 = time.perf_counter()
    with open(sys.argv[1], "w") as fh:
        json.dump([t0, t1], fh)
    sys.exit(newton2d.cli.main(sys.argv[2:]))
