"""Child process of the corred benchmark: measures set-up time.

    python3 bench/setup_probe.py SRC_DIR CLI_ARG...
    python3 bench/setup_probe.py

With arguments, imports ``corred`` from SRC_DIR and makes one CLI call with
the given arguments (its output discarded). Without, imports only numpy and
the standard modules corred uses: the calibration for set-up time, work of
the same kind that no change to corred can move. Prints the seconds taken.
"""

import time

start = time.perf_counter()

import argparse  # noqa: E402,F401
import contextlib  # noqa: E402
import dataclasses  # noqa: E402,F401
import json  # noqa: E402,F401
import logging  # noqa: E402,F401
import os  # noqa: E402
import sys  # noqa: E402

import numpy  # noqa: E402,F401

if len(sys.argv) > 1:
    sys.path.insert(0, sys.argv[1])
    from corred import cli

    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        code = cli.main(sys.argv[2:])
    if code != 0:
        sys.exit(f"warm-up call exited with {code}")
print(repr(time.perf_counter() - start))
