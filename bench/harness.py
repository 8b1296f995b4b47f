"""Measuring loop, oracle tally and traced replay of the corred benchmark.

Imported by run.py once the BLAS thread count is fixed and ``src`` is on the
import path; see run.py for usage and the meaning of each metric.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import tracemalloc
from pathlib import Path

import numpy as np
from corred import cli, matrixcore, models, reduction

import spans
from workloads import WORKLOADS, Outcome

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_SAMPLES = 3
SETUP_REPEATS = 7
#: Reference time of the set-up calibration probe, close to its median on
#: the host of the baseline (see calibrate.py for why times are scaled).
SETUP_NOMINAL_S = 0.1

END_TO_END = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_mem_mb": "MB"}

#: Layer spans, reported as self time per call in ms at p50 and p95.
#: reduction.condition is a separate probe: one conditioned_reduce call per
#: sampled state. reduction.sweep is a correlated_reduce call's whole
#: duration divided by its sweeps.
SPANS = (
    "models.state",
    "models.evolution",
    "states.validate",
    "matrixcore.partial_trace",
    "reduction.neumann",
    "reduction.condition",
    "reduction.correlated",
    "reduction.sweep",
    "matrixcore.from_json",
    "matrixcore.to_json",
    "cli.json_load",
    "cli.json_dump",
)
VERDICTS = ("converged", "max_iter", "oscillating", "degenerate")
#: Sweeps of the slowest points, as a share of all sweeps: reduction.tail_share.
TAIL_POINTS = 10


# ---------------------------------------------------------------- environment


def _blas_threads() -> int | None:
    """Thread count that the OpenBLAS bundled with numpy reports, if found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        vendor = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "corred").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": vendor,
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "corred_commit": commit,
        "corred_source_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


# ---------------------------------------------------------------- measuring


def _invoke(argv: list[str], out_path: Path) -> tuple[int, float, float]:
    """One CLI call, standard output to a file: (exit code, wall s, CPU s)."""
    gc.collect()
    with open(out_path, "w") as out, contextlib.redirect_stdout(out):
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed invocation; keep measuring
            traceback.print_exc()
            code = 1
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    return code, wall, cpu


def _probe(*argv: str) -> float:
    """Seconds reported by one setup_probe.py child process."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), *argv],
        capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


class Session:
    """One workload's inputs, scratch files and oracle tally."""

    def __init__(self, workload, seed: int, workdir: Path, toy: bool):
        (workdir / "toy").mkdir()
        (workdir / "main").mkdir()
        # The warm-up input is the same for every seed: a shifted toy grid can
        # land next to a tie and turn set-up into thousands of sweeps.
        self.warm = workload.build(workdir / "toy", 0, True)
        self.case = workload.build(workdir / "main", seed, toy)
        self.calibration = workload.calibration()
        self.out = workdir / "out.txt"
        self.tally = Outcome(0, 0)
        self._last: tuple[int, str, Outcome] | None = None

    def check(self, code: int) -> None:
        """Judge the output of the invocation just made and add it to the tally.

        An output identical to the previous one gets the previous verdict, so
        that parsing a large output does not eat into the measured time.
        """
        out = self.out.read_text()
        if self._last is None or self._last[:2] != (code, out):
            self._last = (code, out, self.case.check(code, out))
        self.tally.add(self._last[2])

    def invoke(self) -> tuple[float, float]:
        """Run and check one invocation of the case: (wall s, CPU s)."""
        code, wall, cpu = _invoke(self.case.argv, self.out)
        self.check(code)
        return wall, cpu

    def closed_loop(self, seconds: float, min_samples: int, calibrated: bool = False):
        """Invocations until ``seconds`` pass: (wall s, CPU s, speed factors).

        When ``calibrated``, the calibration kernel runs before the first
        invocation and after each one; an invocation's speed factor is the
        kernel's nominal time over the mean of the two runs around it.
        """
        walls, cpus, cals = [], [], []
        deadline = time.perf_counter() + seconds
        if calibrated:
            cals.append(self.calibration())
        while len(walls) < min_samples or time.perf_counter() < deadline:
            wall, cpu = self.invoke()
            walls.append(wall)
            cpus.append(cpu)
            if calibrated:
                cals.append(self.calibration())
        nominal = self.calibration.nominal_s
        speeds = [2 * nominal / (a + b) for a, b in zip(cals, cals[1:])]
        return walls, cpus, speeds

    def warm_up(self) -> None:
        code, _, _ = _invoke(self.warm.argv, self.out)
        if code != 0:
            raise RuntimeError(f"warm-up call exited with {code}")

    def setup_seconds(self, repeats: int) -> tuple[float, float]:
        """Median set-up time, scaled and unscaled.

        Calibration probes, which import numpy and the standard modules
        only, run before and after each set-up probe; the scaled time is the
        median set-up time times SETUP_NOMINAL_S over their median.
        """
        base = [_probe()]
        runs = []
        for _ in range(repeats):
            runs.append(_probe(str(SRC), *self.warm.argv))
            base.append(_probe())
        raw = statistics.median(runs)
        return raw * SETUP_NOMINAL_S / statistics.median(base), raw

    def peak_mem_mb(self) -> float:
        gc.collect()
        tracemalloc.start()
        try:
            code, _, _ = _invoke(self.case.argv, self.out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.check(code)
        return peak / 1e6

    def end_to_end(self, seconds: float, min_samples: int, setup_repeats: int):
        setup, raw_setup = self.setup_seconds(setup_repeats)
        walls, cpus, speeds = self.closed_loop(seconds, min_samples, calibrated=True)
        metrics = {
            "setup_s": setup,
            "run_s": statistics.median(w * f for w, f in zip(walls, speeds)),
            "cpu_s": statistics.median(c * f for c, f in zip(cpus, speeds)),
            "peak_mem_mb": self.peak_mem_mb(),
        }
        details = {
            "run_samples": len(walls),
            "setup_samples": setup_repeats,
            "raw_setup_s": raw_setup,
            "raw_run_s": statistics.median(walls),
            "raw_cpu_s": statistics.median(cpus),
            "speed_factor": statistics.median(speeds),
        }
        return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, details

    def layers(self, seconds: float, min_samples: int):
        walls, _, _ = self.closed_loop(seconds / 2, min_samples)
        run_s = statistics.median(walls)
        tracer = spans.Tracer()
        traced = []
        deadline = time.perf_counter() + seconds / 2
        while len(traced) < 1 or time.perf_counter() < deadline:
            tracer.invocation = len(traced)
            with tracer.installed(cli, models, reduction, matrixcore):
                code, wall, _ = _invoke(self.case.argv, self.out)
            self.check(code)
            traced.append(wall)

        per_call = tracer.self_times()
        per_call["reduction.condition"] = self.condition_probe()
        correlated = [s for s in tracer.named("reduction.correlated") if s.note]
        per_call["reduction.sweep"] = [
            (s.end - s.start) / s.note[0] for s in correlated if s.note[0]
        ]
        metrics = {}
        for name in SPANS:
            values = per_call.get(name) or [0.0]
            metrics[f"{name}_ms.p50"] = (_percentile(values, 50) * 1e3, "ms")
            metrics[f"{name}_ms.p95"] = (_percentile(values, 95) * 1e3, "ms")

        runs = len(traced)
        sweeps = [[s.note[0] for s in correlated if s.invocation == i] for i in range(runs)]
        totals = [sum(x) for x in sweeps]
        tails = [sum(sorted(x)[-TAIL_POINTS:]) / sum(x) if sum(x) else 0.0 for x in sweeps]
        metrics["reduction.iterations"] = (statistics.median(totals), "count")
        metrics["reduction.iterations_max"] = (max(max(x, default=0) for x in sweeps), "count")
        metrics["reduction.tail_share"] = (statistics.median(tails), "share")
        for verdict in VERDICTS:
            count = sum(1 for s in correlated if s.note[1] == verdict)
            metrics[f"reduction.verdict.{verdict}"] = (count / runs, "count")

        # A traced invocation's time is its top-level spans plus cli.other_ms;
        # the untraced run_s is that sum minus trace.overhead_s.
        covered = tracer.covered()
        metrics["trace.covered_ms"] = (statistics.median(covered.values()) * 1e3, "ms")
        metrics["cli.other_ms"] = (
            statistics.median(w - covered.get(i, 0.0) for i, w in enumerate(traced)) * 1e3, "ms"
        )
        metrics["trace.overhead_s"] = (statistics.median(traced) - run_s, "s")
        details = {"run_samples": len(walls), "traced_samples": runs, "spans": len(tracer.spans)}
        return metrics, details

    def condition_probe(self) -> list[float]:
        """Seconds of one conditioned_reduce call on each sampled state."""
        times = []
        for rho, sys_ in self.case.probe():
            sigma = matrixcore.partial_trace(rho, sys_, over="beta")
            start = time.perf_counter()
            reduction.conditioned_reduce(rho, sys_, sigma, "alpha")
            times.append(time.perf_counter() - start)
        return times


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


@contextlib.contextmanager
def _session(name: str, seed: int, toy: bool = False):
    # Scratch files live inside the checkout and are removed on exit.
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        session = Session(WORKLOADS[name], seed, Path(tmp), toy)
        session.warm_up()
        yield session


def _result(session: Session, metrics: dict) -> dict:
    tally = session.tally
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    with _session(name, seed) as session:
        if trace:
            metrics, details = session.layers(seconds, MIN_SAMPLES)
        else:
            metrics, details = session.end_to_end(seconds, MIN_SAMPLES, SETUP_REPEATS)
        result = _result(session, metrics)
        details.update(
            workload=name,
            trace=int(trace),
            fail_ratio=session.tally.failed / session.tally.attempted,
            worst_oracle_error=session.tally.worst_error,
            env=environment(seed),
        )
    print(json.dumps(details))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(seed: int, seconds: float) -> int:
    print(json.dumps({"env": environment(seed), "seconds": seconds}))
    print(f"{'workload':<22}" + "".join(f"{k + ' [' + u + ']':>18}" for k, u in END_TO_END.items())
          + f"{'fail_ratio':>12}{'samples':>9}")
    failed = False
    for name in WORKLOADS:
        with _session(name, seed) as session:
            metrics, details = session.end_to_end(seconds, MIN_SAMPLES, SETUP_REPEATS)
            tally = session.tally
        failed |= tally.failed > 0
        print(f"{name:<22}" + "".join(f"{metrics[k][0]:>18.6g}" for k in END_TO_END)
              + f"{tally.failed / tally.attempted:>12.3g}{details['run_samples']:>9}")
    return 1 if failed else 0


def self_test() -> int:
    """Every workload at toy size through both modes, and the oracle's teeth."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True

    def report(label: str, passed: bool, note: str = "") -> None:
        nonlocal ok
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {label} {note}".rstrip())

    expect = {
        False: {m["name"] for m in declared["end_to_end"]},
        True: {m["name"] for m in declared["per_layer"]},
    }
    for name in WORKLOADS:
        for trace in (False, True):
            with _session(name, 0, toy=True) as session:
                if trace:
                    metrics, _ = session.layers(0.0, 1)
                else:
                    metrics, _ = session.end_to_end(0.0, 1, 1)
                tally = session.tally
            report(f"{name} trace={int(trace)} smoke", tally.failed == 0,
                   f"({tally.attempted} attempted, {tally.failed} failed)")
            report(f"{name} trace={int(trace)} metric names", set(metrics) == expect[trace])
        with _session(name, 0, toy=True) as session:
            code, _, _ = _invoke(session.case.argv, session.out)
            good = session.out.read_text()
            clean = session.case.check(code, good)
            bad = session.case.check(code, session.case.perturb(good))
        report(f"{name} oracle flags a perturbed value",
               clean.failed == 0 and bad.failed == 1,
               f"(clean {clean.failed} failed, perturbed {bad.failed} failed)")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py")
    parser.add_argument("--workload", help=f"one of {', '.join(WORKLOADS)}, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
