"""Benchmark of the corred command line.

Run from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S]
    python3 bench/run.py --self-test

The program is ``corred`` imported from ``src/``. One caller runs
``corred.cli.main`` in a closed loop inside this process, one invocation at a
time, until S seconds have passed (at least three invocations). Every
invocation's output is checked against an analytic oracle (workloads.py); a
nonzero exit, a dropped time point, a verdict other than ``converged`` or a
value outside the oracle's tolerance is a failed operation. An operation is
a time point for ``run`` and an invocation for ``reduce``.

``--trace 0`` reports the end-to-end metrics, with tracing off:

* setup_s: median over seven child processes of the time to import corred
  and make one warm-up call on a toy-size input of the workload, scaled by
  calibration children that import only numpy and the standard modules.
* run_s, cpu_s: median wall and process CPU time of one invocation, scaled
  to the reference speed of the workload's calibration kernel, which runs
  before and after every invocation (calibrate.py says why).
* peak_mem_mb: peak tracemalloc bytes of one more invocation, made in its
  own untimed pass.

``--trace 1`` runs untraced invocations for half the time and traced ones for
the other half (spans.py), and reports per-layer metrics: the self time per
call (p50/p95) of each layer span, 0 for a layer the workload never calls;
sweep counts and verdicts per invocation; ``cli.other_ms``, the part of a
traced invocation outside every top-level span; ``trace.covered_ms``, the
part inside them; and ``trace.overhead_s``, traced minus untraced run time.

``--workload all`` prints every end-to-end metric of every workload as a
table, with fail_ratio, and exits 1 if any oracle check failed.
``--self-test`` runs every workload at toy size through both modes and checks
that the oracle flags a deliberately perturbed output value.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it records fail_ratio, the
sample counts, unscaled times and the environment (nproc, BLAS vendor and
thread count, Python and numpy versions, corred commit and source digest,
seed). The exit code is 0 only if every check passed.
"""

import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# BLAS may use one thread per available core, never more. This must be set
# before numpy loads; the set-up child processes inherit it.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = str(len(os.sched_getaffinity(0)))

if __name__ == "__main__":
    if not (SRC / "corred" / "__init__.py").is_file():
        sys.exit(f"error: no corred sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from harness import main

    sys.exit(main())
