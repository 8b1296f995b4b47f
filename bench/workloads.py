"""Workloads of the corred benchmark.

Each workload is one ``corred`` CLI command on inputs made from a seed, plus
the analytic oracle that every row of its output must match. Seed 0 gives
the reference configurations exactly. Any other seed shifts the time grid by
a small part of one step and draws another random state, so no two seeds
feed the program the same matrices.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from calibrate import Calibration, dense, sweeps, text
from corred import models
from corred.matrixcore import BipartiteSystem

#: Largest grid shift, as a share of one time step. The correlated fixed
#: point slows sharply as a grid point nears a tie of the step limit: on a
#: 500-step spin-pair grid, shifts of -0.05 and +0.1 step put a point so close
#: to a tie that it ends with verdict max_iter after 10,000 sweeps, and on the
#: 200-step JCM grid a shift of 0.3 step does. Shifts in [0, 0.02] keep every
#: point converging and move the total sweep count by at most 3.4 % (spin
#: pair) and 0.5 % (JCM), so the seed barely moves the run time.
MAX_SHIFT = 0.02

#: Oracle tolerances: max-abs error of one population or matrix entry. The
#: worst errors at seed 0 are 2.1e-11 (JCM step limit), 3.8e-11 (spin-pair
#: step limit; 1.7e-10 on a 500-step grid), 2.2e-16 (vacuum Rabi) and 4e-16
#: (fixed-point identity); a wrong reduction is off by far more.
TOL_STEP_LIMIT = 1e-8
TOL_NEUMANN = 1e-12
TOL_FIXED_POINT = 1e-9

#: Time points whose states feed the conditioning probe of the traced replay.
PROBE_POINTS = 10
#: Repeats of the conditioning probe for the single state of a reduce workload.
PROBE_REPEATS = 10

#: Size of a deliberate error that the oracle must flag.
PERTURBATION = 1e-6


@dataclass
class Outcome:
    """Operations attempted and failed by one invocation, judged by the oracle."""

    attempted: int
    failed: int
    worst_error: float = 0.0

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.worst_error = max(self.worst_error, other.worst_error)


@dataclass
class Case:
    """One workload made concrete: CLI arguments, oracle, probe inputs."""

    argv: list[str]
    #: (exit code, standard output) -> Outcome.
    check: Callable[[int, str], Outcome]
    #: Standard output with one deliberately wrong value.
    perturb: Callable[[str], str]
    #: (composite matrix, system) pairs for the conditioning probe.
    probe: Callable[[], list[tuple[np.ndarray, BipartiteSystem]]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[Path, int, bool], Case]
    calibration: Callable[[], Calibration]


# ---------------------------------------------------------------- run


def _grid(seed: int, steps: int, stop: float = 10.0) -> tuple[float, float]:
    """(start, stop) of the seed's time grid: [0, stop] shifted by part of a step."""
    if seed == 0:
        return 0.0, stop
    shift = random.Random(seed).uniform(0.0, MAX_SHIFT) * stop / (steps - 1)
    return shift, stop + shift


def _run_case(workdir, seed, experiment, params, steps, method, expected, state) -> Case:
    """A ``corred run`` case.

    ``expected(t) -> [(column, value), ...]`` lists what the oracle wants in
    the output row of time t; ``state(t)`` builds the composite state.
    """
    start, stop = _grid(seed, steps)
    reduction = {"method": method}
    if method == "correlated":
        reduction.update(tol=1e-12, max_iter=10_000)
    cfg = {
        "experiment": experiment,
        "params": params,
        "time_grid": {"start": start, "stop": stop, "steps": steps},
        "reduction": reduction,
        "output": {"format": "csv"},
    }
    path = workdir / "config.json"
    path.write_text(json.dumps(cfg))
    grid = np.linspace(start, stop, steps)
    step = (stop - start) / (steps - 1)
    tol = TOL_STEP_LIMIT if method == "correlated" else TOL_NEUMANN

    def check(rc: int, out: str) -> Outcome:
        if rc != 0:
            return Outcome(steps, steps)
        passed: set[int] = set()
        worst = 0.0
        for row in _csv_rows(out):
            try:
                t = float(row["t"])
                errors = [abs(float(row[col]) - want) for col, want in expected(t)]
                converged = method != "correlated" or row["verdict"] == "converged"
            except (KeyError, TypeError, ValueError):
                continue
            i = int(round((t - start) / step))
            if not 0 <= i < steps or abs(t - grid[i]) > 1e-2 * step or i in passed:
                continue
            worst = max([worst, *errors])
            if converged and max(errors) <= tol:
                passed.add(i)
        return Outcome(steps, steps - len(passed), worst)

    def probe():
        picks = np.linspace(0, steps - 1, min(steps, PROBE_POINTS)).round().astype(int)
        return [state(float(grid[i])) for i in picks]

    return Case(["run", "--config", str(path)], check, _perturb_csv, probe)


def _csv_rows(out: str) -> list[dict]:
    lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _perturb_csv(out: str) -> str:
    lines = out.splitlines(keepends=True)
    first = next(i for i, ln in enumerate(lines) if ln[0].isdigit() or ln[0] == "-")
    header = next(ln for ln in lines if ln.startswith("t,")).strip().split(",")
    cells = lines[first].rstrip("\n").split(",")
    col = header.index("pop_alpha_0")
    cells[col] = repr(float(cells[col]) + PERTURBATION)
    lines[first] = ",".join(cells) + "\n"
    return "".join(lines)


def _jcm_correlated(workdir: Path, seed: int, toy: bool) -> Case:
    p = models.JcmParams(omega=1.0, rabi=1.0, n_max=2 if toy else 16)

    def expected(t):
        c, s = models.jcm_correlated_limit(t, p)
        return [("pop_alpha_0", c), ("pop_alpha_1", s), ("pop_beta_0", c), ("pop_beta_1", s)]

    return _run_case(
        workdir, seed, "jcm_vacuum",
        {"omega": p.omega, "rabi": p.rabi, "n_max": p.n_max},
        5 if toy else 200, "correlated", expected,
        lambda t: (models.jcm_vacuum_density(p, t).matrix, models.jcm_system(p)),
    )


def _jcm_neumann(workdir: Path, seed: int, toy: bool) -> Case:
    p = models.JcmParams(omega=1.0, rabi=1.0, n_max=4 if toy else 256)

    def expected(t):
        e, g = models.vacuum_rabi_populations(p, t)
        return [("pop_alpha_0", e), ("pop_alpha_1", g), ("pop_beta_0", e), ("pop_beta_1", g)]

    return _run_case(
        workdir, seed, "jcm_vacuum",
        {"omega": p.omega, "rabi": p.rabi, "n_max": p.n_max},
        5 if toy else 10, "neumann", expected,
        lambda t: (models.jcm_vacuum_density(p, t).matrix, models.jcm_system(p)),
    )


SPIN_PAIR = {"omega": 1.0, "c": 1.0, "j": 0.3, "d": 0.2, "phi": 0.3}


def _spin_pair_correlated(workdir: Path, seed: int, toy: bool) -> Case:
    p = models.SpinPairParams(
        omega=SPIN_PAIR["omega"], j_coupling=SPIN_PAIR["j"],
        c_coupling=SPIN_PAIR["c"], d_coupling=SPIN_PAIR["d"],
    )
    phi = SPIN_PAIR["phi"]

    def expected(t):
        # Step limit of the |21>, |12> populations: the pair settles in
        # whichever of the two product states is more populated.
        up, down = models.spin_pair_populations(phi, p.c_coupling, t)
        lim = 0.5 if abs(up - down) < 1e-12 else float(up > down)
        return [("pop_alpha_0", lim), ("pop_alpha_1", 1 - lim),
                ("pop_beta_0", 1 - lim), ("pop_beta_1", lim)]

    return _run_case(
        workdir, seed, "spin_pair", dict(SPIN_PAIR), 5 if toy else 200, "correlated",
        expected,
        lambda t: (models.spin_pair_density(p, phi, t).matrix, models.SPIN_PAIR_SYSTEM),
    )


# ---------------------------------------------------------------- reduce


def wishart_state(seed: int, n: int) -> np.ndarray:
    """Full-rank random density matrix G G^dag / Tr, G complex Gaussian n x n."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return rho / rho.trace().real


def condition_dense(rho: np.ndarray, sys: BipartiteSystem, sigma: np.ndarray,
                    given_side: str) -> np.ndarray:
    """Reference conditioned reduction Sp_given(rho sigma') / Sp(rho sigma')."""
    r = rho.reshape(sys.dim_alpha, sys.dim_beta, sys.dim_alpha, sys.dim_beta)
    if given_side == "alpha":
        out = np.einsum("ibjc,ji->bc", r, sigma)
    else:
        out = np.einsum("ibjc,cb->ij", r, sigma)
    out = 0.5 * (out + out.conj().T)
    return out / out.trace().real


def _matrix(obj: dict) -> np.ndarray:
    data = np.asarray(obj["data"], dtype=float)
    return (data[:, 0] + 1j * data[:, 1]).reshape(int(obj["rows"]), int(obj["cols"]))


def _reduce_file(workdir: Path, seed: int, toy: bool) -> Case:
    sys = BipartiteSystem(2, 5 if toy else 257)
    rho = wishart_state(seed, sys.dim)
    pairs = np.stack([rho.real.ravel(), rho.imag.ravel()], axis=1).tolist()
    path = workdir / "state.json"
    path.write_text(json.dumps(
        {"rows": sys.dim, "cols": sys.dim, "data": pairs, "kind": "density", "validation": "strict"}
    ))

    def check(rc: int, out: str) -> Outcome:
        if rc != 0:
            return Outcome(1, 1)
        try:
            obj = json.loads(out)
            ra, rb = _matrix(obj["rho_alpha"]), _matrix(obj["rho_beta"])
        except (KeyError, TypeError, ValueError):
            return Outcome(1, 1)
        # The correlated pair is a fixed point: each side is the other's
        # conditioned reduction.
        worst = max(
            float(np.max(np.abs(condition_dense(rho, sys, ra, "alpha") - rb))),
            float(np.max(np.abs(condition_dense(rho, sys, rb, "beta") - ra))),
        )
        ok = obj["verdict"] == "converged" and worst <= TOL_FIXED_POINT
        return Outcome(1, 0 if ok else 1, worst)

    def perturb(out: str) -> str:
        obj = json.loads(out)
        obj["rho_beta"]["data"][0][0] += PERTURBATION
        return json.dumps(obj)

    argv = ["reduce", str(path), "--dims", str(sys.dim_alpha), str(sys.dim_beta),
            "--method", "correlated"]
    return Case(argv, check, perturb, lambda: [(rho, sys)] * PROBE_REPEATS)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "jcm_n16_correlated",
            "README config; about 85 % of the time is correlated_reduce sweeps at N=34, "
            "so solver and small-kernel changes show here",
            _jcm_correlated,
            lambda: Calibration((sweeps(2, 17, 1600),), nominal_s=0.15),
        ),
        Workload(
            "jcm_n256_neumann",
            "N=514 Neumann run with no sweeps; state build and validation dominate, "
            "so the JCM build and lazy validation show and solver changes must not",
            _jcm_neumann,
            lambda: Calibration((dense(514, 3),), nominal_s=0.23),
        ),
        Workload(
            "spin_pair_correlated",
            "about 6,400 sweeps at 4x4, where fixed per-call cost dominates; "
            "an O(N^3) to O(N^2) kernel gains nothing and added overhead shows",
            _spin_pair_correlated,
            lambda: Calibration((sweeps(2, 2, 2000),), nominal_s=0.13),
        ),
        Workload(
            "reduce_n256_file",
            "the only file I/O: strict validation and JSON of an N=514 state, "
            "and the only large-N conditioning kernel inside the solver",
            _reduce_file,
            lambda: Calibration((text(200), dense(514, 1), sweeps(2, 257, 2)), nominal_s=0.26),
        ),
    )
}
