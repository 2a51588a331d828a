"""Child process for the `setup_s` measurement.

Run as `python3 setup_probe.py SRC_DIR`.  It imports qmol from SRC_DIR,
builds the CLI parser, serves one warm-up request (`qmol spectrum`, output
discarded) and prints the CLOCK_MONOTONIC time at which it got there.  The
parent subtracts the time at which it started the process, so the figure
includes interpreter start-up.
"""

import contextlib
import io
import sys
import time

sys.path.insert(0, sys.argv[1])

import qmol  # noqa: E402
import qmol.cli  # noqa: E402

qmol.cli.build_parser()
with contextlib.redirect_stdout(io.StringIO()):
    code = qmol.cli.main(["spectrum"])
ready = time.monotonic()
print(repr(ready), code)
