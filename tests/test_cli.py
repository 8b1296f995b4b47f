import argparse
import contextlib
import copy
import csv
import gc
import io
import itertools
import json
import logging
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import corred
from corred import cli, matrixcore as mc, models, reduction
from corred.errors import DegenerateOverlap, ValidationError
from corred.states import DensityMatrix, epr_state, minimum_information_state, projector_state

from conftest import matrices_close, random_density


def write_state(tmp_path, name, dm):
    path = tmp_path / name
    path.write_text(json.dumps(dm.to_json()))
    return str(path)


def write_config(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestRun:
    def test_jcm_neumann_csv(self, tmp_path, capsys):
        cfg = {
            "experiment": "jcm_vacuum",
            "params": {"omega": 1.0, "rabi": 1.0, "n_max": 2},
            "time_grid": {"start": 0.0, "stop": 3.0, "steps": 7},
            "reduction": {"method": "neumann"},
        }
        rc = cli.main(["run", "--config", write_config(tmp_path, cfg)])
        assert rc == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
        header = lines[0].split(",")
        assert header[:3] == ["t", "pop_alpha_0", "pop_alpha_1"]
        for ln in lines[1:]:
            cells = ln.split(",")
            t = float(cells[0])
            pop = float(cells[header.index("pop_alpha_0")])
            assert pop == pytest.approx(math.cos(t / 2) ** 2, abs=1e-10)

    def test_config_header_line(self, tmp_path, capsys):
        cfg = {"experiment": "epr", "reduction": {"method": "neumann"}}
        assert cli.main(["run", "--config", write_config(tmp_path, cfg)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# config: ")

    def test_json_output_to_file(self, tmp_path):
        cfg = {
            "experiment": "spin_pair",
            "params": {"omega": 1.0, "c": 0.5, "phi": 0.2},
            "time_grid": {"start": 0.0, "stop": 2.0, "steps": 5},
            "reduction": {"method": "neumann"},
        }
        out_path = tmp_path / "series.json"
        rc = cli.main(
            ["run", "--config", write_config(tmp_path, cfg),
             "--format", "json", "--out", str(out_path)]
        )
        assert rc == 0
        data = json.loads(out_path.read_text())
        assert len(data["rows"]) == 5
        row0 = data["rows"][0]
        # the |21> population maps to pop_alpha upper-level = cos^2(phi)... via
        # the alpha reduction: pop_alpha_0 = cos^2(phi) at t=0
        assert row0["pop_alpha"][0] == pytest.approx(math.cos(0.2) ** 2, abs=1e-12)

    def test_correlated_run_reports_verdict(self, tmp_path, capsys):
        cfg = {
            "experiment": "jcm_vacuum",
            "params": {"rabi": 1.0, "n_max": 1},
            "time_grid": {"start": 0.25, "stop": 0.5, "steps": 2},
            "reduction": {"method": "correlated"},
        }
        assert cli.main(["run", "--config", write_config(tmp_path, cfg)]) == 0
        out = capsys.readouterr().out
        data_lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
        for ln in data_lines[1:]:
            cells = ln.split(",")
            assert cells[-2] == "converged"
            # both time points sit on the excited plateau
            assert float(cells[1]) == pytest.approx(1.0, abs=1e-9)

    def test_a_grid_point_on_a_tie_is_sampled_as_given(self, tmp_path, capsys):
        # Nothing is nudged: the grid point on the step tie t = pi/2 is sampled as given.
        cfg = {
            "experiment": "jcm_vacuum",
            "params": {"rabi": 1.0, "n_max": 1},
            "time_grid": {"start": 0.0, "stop": math.pi, "steps": 3},
            "reduction": {"method": "neumann"},
        }
        assert cli.main(["run", "--config", write_config(tmp_path, cfg)]) == 0
        out = capsys.readouterr().out
        ts = [float(ln.split(",")[0]) for ln in out.splitlines()[2:]]
        assert ts == np.linspace(0.0, math.pi, 3).tolist()
        assert ts[1] == math.pi / 2

    def test_include_ties_is_no_option_and_the_grid_keeps_its_ties(self, tmp_path, capsys):
        # The grid keeps its ties without an option, and --include-ties is no option.
        cfg = {
            "experiment": "jcm_vacuum",
            "params": {"rabi": 1.0, "n_max": 1},
            "time_grid": {"start": 0.0, "stop": math.pi, "steps": 3},
            "reduction": {"method": "neumann"},
        }
        config = write_config(tmp_path, cfg)
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--config", config, "--include-ties"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --include-ties" in capsys.readouterr().err
        assert cli.main(["run", "--config", config]) == 0
        out = capsys.readouterr().out
        ts = [float(ln.split(",")[0]) for ln in out.splitlines()[2:]]
        assert any(abs(t - math.pi / 2) < 1e-12 for t in ts)

    @pytest.mark.parametrize("flag", [False, True])
    def test_unwritable_output_fails_before_the_computation(self, tmp_path, monkeypatch, flag):
        def computed(*args):
            raise AssertionError("the time series was computed")

        monkeypatch.setattr(reduction, "neumann_reduce", computed)
        out = str(tmp_path / "no" / "out.csv")
        cfg = {"experiment": "epr", "output": {} if flag else {"path": out}}
        argv = ["run", "--config", write_config(tmp_path, cfg)] + (["--out", out] if flag else [])
        assert cli.main(argv) == 4

    def test_unknown_experiment_exits_config(self, tmp_path):
        cfg = {"experiment": "nope"}
        assert cli.main(["run", "--config", write_config(tmp_path, cfg)]) == 2

    def test_missing_config_exits_io(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "absent.json")]) == 4

    def test_invalid_json_exits_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["run", "--config", str(bad)]) == 2

    @pytest.mark.parametrize(
        "reduction_cfg",
        [
            {"method": "bogus"},
            {"method": "projective"},
            {"method": "projective", "level": 5},
            {"method": "conditioned"},
            {"method": "correlated", "scheme": "bogus"},
            {"method": "correlated", "scheme": "gauss-seidel"},
            {"method": "correlated", "max_iters": 5},
            {"method": "correlated", "max_iter": 0},
            "correlated",
        ],
    )
    def test_bad_reduction_exits_config(self, tmp_path, reduction_cfg):
        cfg = {
            "experiment": "epr",
            "time_grid": {"start": 0.0, "stop": 1.0, "steps": 3},
            "reduction": reduction_cfg,
        }
        assert cli.main(["run", "--config", write_config(tmp_path, cfg)]) == 2

    def test_non_object_config_exits_config(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        assert cli.main(["run", "--config", str(path)]) == 2
        assert "config must be a JSON object" in capsys.readouterr().err

    def test_conditioned_on_beta_leaves_error_cell_empty(self, tmp_path, capsys):
        sigma = write_state(tmp_path, "sigma.json", minimum_information_state(2))
        cfg = {
            "experiment": "epr",
            "reduction": {"method": "conditioned", "state": sigma},
        }
        assert cli.main(["run", "--config", write_config(tmp_path, cfg)]) == 0
        lines = capsys.readouterr().out.splitlines()
        header, row = lines[1].split(","), lines[2].split(",")
        assert row[header.index("reconstruction_error")] == ""

    def test_wrong_shaped_conditioning_state_exits_config(self, tmp_path):
        from corred.states import projector_state

        sigma = write_state(tmp_path, "sigma.json", projector_state(3, 0))
        cfg = {
            "experiment": "epr",
            "reduction": {"method": "conditioned", "state": sigma},
        }
        assert cli.main(["run", "--config", write_config(tmp_path, cfg)]) == 2

    def test_custom_dims_mismatch_exits_config(self, tmp_path):
        state = write_state(tmp_path, "epr.json", epr_state())
        cfg = {"experiment": "custom", "params": {"state": state, "dims": [2, 3]}}
        assert cli.main(["run", "--config", write_config(tmp_path, cfg)]) == 2


def forbid_composite_matrices(monkeypatch):
    """Make every builder of an N x N composite state raise, and the
    contraction kernel reject any composite that is not amplitude vectors."""
    def forbidden(*args, **kwargs):
        raise AssertionError("an N x N composite array was formed")

    for module, name in [(models, "jcm_vacuum_density"), (models, "spin_pair_density"),
                         (np, "kron"), (np, "outer")]:
        monkeypatch.setattr(module, name, forbidden)
    contract = mc._contract

    def vector_only(state, *args):
        # 2-D is the N x N composite; an amplitude vector is 1-D, a stack of them 3-D.
        assert state.ndim != 2, f"an N x N composite {state.shape} reached the contraction"
        return contract(state, *args)

    monkeypatch.setattr(mc, "_contract", vector_only)


@pytest.mark.parametrize("experiment, params", [
    ("jcm_vacuum", {"n_max": 64}),
    ("spin_pair", {"c": 0.5, "phi": 0.2, "j": 0.3}),
])
@pytest.mark.parametrize("reduction_cfg", [
    {"method": "projective", "level": 0},
    {"method": "conditioned", "state": "{sigma}", "given_side": "alpha"},
    {"method": "conditioned", "state": "{sigma}", "given_side": "beta"},
    {"method": "correlated"},
], ids=["projective", "conditioned-alpha", "conditioned-beta", "correlated"])
def test_pure_conditioned_and_correlated_runs_form_no_composite_matrix(
        tmp_path, capsys, monkeypatch, experiment, params, reduction_cfg):
    side = reduction_cfg.get("given_side")
    sys_ = models.SPIN_PAIR_SYSTEM if experiment == "spin_pair" else models.jcm_system(
        models.JcmParams(1.0, 1.0, n_max=params["n_max"]))
    dim = sys_.dim_alpha if side == "alpha" else sys_.dim_beta
    sigma = write_state(tmp_path, "sigma.json", minimum_information_state(dim))
    rcfg = {k: sigma if v == "{sigma}" else v for k, v in reduction_cfg.items()}
    forbid_composite_matrices(monkeypatch)
    cfg = {
        "experiment": experiment,
        "params": params,
        "time_grid": {"start": 0.0, "stop": 6.0, "steps": 9},
        "reduction": rcfg,
        "output": {"format": "json"},
    }
    assert cli.main(["run", "--config", write_config(tmp_path, cfg)]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(rows) == 9
    if rcfg["method"] == "correlated":
        assert all(row["verdict"] == "converged" for row in rows)


@pytest.mark.parametrize("experiment, params, populations", [
    ("jcm_vacuum", {"n_max": 64}, lambda t: (math.cos(t / 2) ** 2, math.sin(t / 2) ** 2)),
    ("spin_pair", {"c": 0.5, "phi": 0.2},
     lambda t: models.spin_pair_populations(0.2, 0.5, t)),
])
def test_pure_neumann_run_forms_no_composite_matrix(tmp_path, capsys, monkeypatch,
                                                    experiment, params, populations):
    forbid_composite_matrices(monkeypatch)
    cfg = {
        "experiment": experiment,
        "params": params,
        "time_grid": {"start": 0.0, "stop": 6.0, "steps": 9},
        "reduction": {"method": "neumann"},
        "output": {"format": "json"},
    }
    assert cli.main(["run", "--config", write_config(tmp_path, cfg)]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(rows) == 9
    for row in rows:
        assert row["pop_alpha"][:2] == pytest.approx(populations(row["t"]), abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    tie_step=st.floats(1e-3, 10.0),
    start_half_steps=st.integers(-4, 40),
    span_half_steps=st.integers(0, 60),
    per_half_step=st.integers(1, 4),
    extra=st.integers(0, 3),
    jitter=st.sampled_from([0.0, 5e-10, -5e-10, 2e-9, -2e-9]),
)
def test_the_t_column_is_linspace_near_ties(tmp_path_factory, tie_step, start_half_steps,
                                            span_half_steps, per_half_step, extra, jitter):
    # No sample is nudged off a tie: the reference the emitted t column must
    # equal is linspace itself. JCM ties sit at odd multiples of
    # pi / (2 rabi) = tie_step; the grids start and end on (near) multiples of
    # half of it, so samples often hit a tie.
    start = start_half_steps * tie_step / 2 + jitter
    stop = start + span_half_steps * tie_step / 2
    steps = span_half_steps * per_half_step + 1 + extra
    cfg = {
        "experiment": "jcm_vacuum",
        "params": {"rabi": math.pi / (2 * tie_step), "n_max": 1},
        "time_grid": {"start": start, "stop": stop, "steps": steps},
        "reduction": {"method": "neumann"},
        "output": {"format": "json"},
    }
    path = tmp_path_factory.mktemp("grid") / "config.json"
    path.write_text(json.dumps(cfg))
    out = path.with_name("rows.json")
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert [row["t"] for row in rows] == np.linspace(start, stop, steps).tolist()


@pytest.mark.parametrize("experiment, params, stop, steps, tie", [
    ("jcm_vacuum", {"rabi": 1.0, "n_max": 16}, math.pi, 101, math.pi / 2),
    ("spin_pair", {"c": 1.0, "phi": 0.3}, math.pi / 2, 3, math.pi / 4),
    ("spin_pair", {"c": -1.3, "phi": 1.2}, 3 * math.pi / 5.2, 7, math.pi / 5.2),
])
def test_correlated_run_reports_the_tie_in_one_sweep(tmp_path, capsys, experiment, params,
                                                     stop, steps, tie):
    # At a tie the step limit is exactly 1/2, and the closed-form start reaches it in one sweep.
    cfg = {
        "experiment": experiment,
        "params": params,
        "time_grid": {"start": 0.0, "stop": stop, "steps": steps},
        "reduction": {"method": "correlated"},
        "output": {"format": "json"},
    }
    assert cli.main(["run", "--config", write_config(tmp_path, cfg)]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(rows) == steps
    assert all(row["verdict"] == "converged" for row in rows)
    row = min(rows, key=lambda row: abs(row["t"] - tie))
    assert row["t"] == pytest.approx(tie, abs=1e-15)
    assert row["iterations"] == 1
    assert row["pop_alpha"][0] == pytest.approx(0.5, abs=1e-12)


def run_peak_bytes(tmp_path, n_max: int, steps: int, method: str, fmt: str = "csv") -> int:
    """Peak tracemalloc bytes of a JCM vacuum ``run`` that writes to a file
    in the format ``fmt``, after one untraced run of the same config, so
    that first-call caches do not count."""
    cfg = {
        "experiment": "jcm_vacuum",
        "params": {"omega": 1.0, "rabi": 1.0, "n_max": n_max},
        "time_grid": {"start": 0.0, "stop": 10.0, "steps": steps},
        "reduction": {"method": method},
        "output": {"format": fmt},
    }
    argv = ["run", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / f"out.{fmt}")]
    assert cli.main(argv) == 0
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_memory_does_not_grow_with_steps(tmp_path):
    # Rows are written as each time point completes, not held to the end.
    growth = run_peak_bytes(tmp_path, 16, 400, "correlated") - run_peak_bytes(
        tmp_path, 16, 40, "correlated")
    assert growth < 32 * 1024


def test_large_neumann_run_holds_one_time_point(tmp_path):
    # The reduced field state is a 257 x 257 complex matrix; one time point's
    # reduction is live at a time, never the previous point's as well.
    assert run_peak_bytes(tmp_path, 256, 10, "neumann") < 2 * 257**2 * 16


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_failing_time_point_leaves_the_rows_before_it(tmp_path, capsys, fmt):
    # c * t overflows from t = 2 on.
    cfg = {
        "experiment": "spin_pair",
        "params": {"c": 1e308},
        "time_grid": {"start": 0.0, "stop": 10.0, "steps": 11},
        "output": {"format": fmt},
    }
    assert cli.main(["run", "--config", write_config(tmp_path, cfg)]) == 2
    out, err = capsys.readouterr()
    assert err == "error: c * t overflows at t=2.0\n"
    lines = out.splitlines()
    if fmt == "csv":
        assert lines[0].startswith("# config: ") and lines[1].startswith("t,pop_alpha_0,")
        assert [float(line.split(",")[0]) for line in lines[2:]] == [0.0, 1.0]
    else:  # the unfinished document up to the last complete row
        assert lines[-1] == "    }"
        rows = json.loads(out + "\n  ]\n}")["rows"]
        assert [row["t"] for row in rows] == [0.0, 1.0]


def test_large_neumann_run_forms_no_field_matrix(tmp_path):
    # Rows come from the reduced states on the two levels that hold the
    # state, so no 257 x 257 field state is formed.
    assert run_peak_bytes(tmp_path, 256, 10, "neumann") < 257**2 * 16


@st.composite
def chunked_runs(draw):
    """A JCM vacuum or spin-pair ``run`` config of K - 1, K, K + 1 or 2 K + 1
    points, K = ``cli.CHUNK``, whose first or last point is a tie of the
    correlated step limit, 1e-8 from one, or neither; and, for half the
    correlated ones, the random alpha state of a ``file:`` seed (else None)."""
    k = cli.CHUNK
    steps = draw(st.sampled_from([k - 1, k, k + 1, 2 * k + 1]))
    odd = 2 * draw(st.integers(0, 3)) + 1
    if draw(st.booleans()):
        experiment = "jcm_vacuum"
        rabi = draw(st.floats(0.2, 3.0))
        params = {"omega": draw(st.floats(-3.0, 3.0)), "rabi": rabi,
                  "n_max": draw(st.integers(1, 40))}
        tie = odd * math.pi / (2 * rabi)  # cos^2(rabi t / 2) = 1/2
    else:
        experiment = "spin_pair"
        c = draw(st.floats(0.2, 2.0))
        params = {"omega": draw(st.floats(-2.0, 2.0)), "c": c, "j": draw(st.floats(-1.0, 1.0)),
                  "d": draw(st.floats(-1.0, 1.0)), "phi": draw(st.floats(-1.5, 1.5))}
        tie = odd * math.pi / (4 * c)  # cos(2 c t) = 0
    span = draw(st.floats(0.05, 5.0))
    edge = tie + draw(st.sampled_from([0.0, 1e-8, -1e-8, draw(st.floats(-1.0, 1.0))]))
    start, stop = (edge, edge + span) if draw(st.booleans()) else (edge - span, edge)
    method = draw(st.sampled_from(["correlated", "correlated", "neumann", "projective"]))
    reduction_cfg = {"method": method, "level": 0} if method == "projective" else {"method": method}
    seed = None
    if method == "correlated" and draw(st.booleans()):
        seed = random_density(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), 2)
    return {
        "experiment": experiment,
        "params": params,
        "time_grid": {"start": start, "stop": stop, "steps": steps},
        "reduction": reduction_cfg,
    }, seed


@settings(max_examples=60, deadline=None)
@given(chunked_runs())
def test_chunked_run_equals_point_by_point_run(tmp_path_factory, case):
    cfg, seed = case
    path = tmp_path_factory.mktemp("chunks") / "config.json"
    if seed is not None:
        cfg["reduction"]["seed"] = "file:" + write_state(path.parent, "seed.json", seed)
    path.write_text(json.dumps(cfg))
    for fmt in ("csv", "json"):
        outs = []
        for chunk in (cli.CHUNK, 1):
            out = path.with_name(f"{chunk}.{fmt}")
            with mock.patch.object(cli, "CHUNK", chunk):
                code = cli.main(["run", "--config", str(path), "--format", fmt, "--out", str(out)])
            outs.append((code, out.read_bytes()))
        assert outs[0] == outs[1]


def test_overflow_inside_a_chunk_leaves_the_rows_before_it(tmp_path, capsys):
    # c * t overflows from the point in the middle of the second chunk on.
    fail = cli.CHUNK + cli.CHUNK // 2
    step = np.finfo(float).max / 1e308 / (fail - 0.5)
    cfg = {
        "experiment": "spin_pair",
        "params": {"c": 1e308},
        "time_grid": {"start": 0.0, "stop": 2 * cli.CHUNK * step, "steps": 2 * cli.CHUNK + 1},
    }
    assert cli.main(["run", "--config", write_config(tmp_path, cfg)]) == 2
    out, err = capsys.readouterr()
    ts = np.linspace(0.0, 2 * cli.CHUNK * step, 2 * cli.CHUNK + 1)
    assert err == f"error: c * t overflows at t={float(ts[fail])!r}\n"
    assert [float(line.split(",")[0]) for line in out.splitlines()[2:]] == ts[:fail].tolist()


def stack_rows(ts: list[float], stack: reduction.Stack, sys_) -> list[dict]:
    """The row of each point ts of a piece of ``cli._series`` as a dict, none
    if its stack is not done: the reference for ``cli._lines``.

    The populations are a list of every level of a side: the diagonal of
    its reduced state on the leading levels that the state covers and exact
    zeros on the others. Its coherence is the largest off-diagonal there.
    """
    if not stack.done[0]:
        return []
    sides = {"alpha": (stack.rho_alpha, sys_.dim_alpha)}
    if stack.rho_beta is not None:
        sides["beta"] = (stack.rho_beta, sys_.dim_beta)
    pops, cohs = {}, {}
    for side, (m, n) in sides.items():
        pops[side] = populations(m.diagonal(axis1=-2, axis2=-1).real, n)
        cohs[side] = cli._max_coherence(m).tolist()
    errors = [None] * len(stack.done) if stack.error is None else stack.error.tolist()

    def row(j: int, t: float) -> dict:
        out = {
            "t": t,
            "pop_alpha": pops["alpha"][j],
            "coh_alpha": cohs["alpha"][j],
            "reconstruction_error": errors[j],
            "verdict": stack.verdict,
            "iterations": stack.iterations,
        }
        if "beta" in pops:
            out["pop_beta"] = pops["beta"][j]
            out["coh_beta"] = cohs["beta"][j]
        return out

    # Point j is entry j, or the only entry.
    return list(map(row, np.broadcast_to(np.arange(len(stack.done)), len(ts)).tolist(), ts))


def populations(diag: np.ndarray, n: int) -> list[list[float]]:
    """The populations of each state of a stack as a list of n: the diagonal
    ``diag`` (K, r) of its reduced states on the leading r levels, exact
    zeros on the others."""
    rows = []
    for values in diag.tolist():
        pops = [0.0] * n
        for level, x in enumerate(values):
            pops[level] = x
        rows.append(pops)
    return rows


def rows_of(pieces, sys_) -> list[dict]:
    """The rows that JSON writes of the pieces of ``cli._series``."""
    return [row for ts, stack in pieces for row in stack_rows(ts, stack, sys_)]


def test_degenerate_and_near_degenerate_points_inside_a_chunk(tmp_path, capsys, caplog):
    # Projective on the excited atom's field vacuum: the overlap cos^2(t / 2)
    # is 0 at t = pi, 1e-12 at pi + 2e-6. Each sits inside a chunk.
    mid = cli.CHUNK // 2
    ts = np.concatenate([np.linspace(0.5, 3.0, mid), [math.pi], np.linspace(3.2, 3.9, cli.CHUNK),
                         [math.pi + 2e-6], np.linspace(4.0, 5.0, 3)])
    cfg = {
        "experiment": "jcm_vacuum",
        "params": {"n_max": 3},
        "reduction": {"method": "projective", "level": 0},
        "output": {"format": "json"},
    }
    caplog.set_level(logging.WARNING, logger="corred")
    sys_, model = cli._state_factory(cfg)
    reducer = cli._reducer(cfg["reduction"], sys_)
    rows = rows_of(cli._series(ts, sys_, model, reducer), sys_)
    assert [row["t"] for row in rows] == [t for t in ts.tolist() if t != math.pi]
    messages = [r.getMessage() for r in caplog.records]
    assert messages[0].startswith(f"t={math.pi:g}: overlap denominator")
    assert messages[1].startswith(f"t={math.pi + 2e-6:g}: near-degenerate overlap denominator")
    assert len(messages) == 2


@pytest.mark.parametrize("seed", ["ground", "random"])
def test_a_seeded_run_has_the_per_point_verdicts(tmp_path, rng, caplog, seed):
    # JCM vacuum over two chunks with a file: seed. Where the start is the
    # excited atom, it does not overlap a ground-state seed, and the loop
    # runs from the seed: degenerate at t = 0, near-degenerate at 1e-5.
    # Elsewhere the stack settles a point. Either way its verdict,
    # iterations, warnings and row are those of the point reduced alone, up
    # to the last bit of a population.
    sigma = projector_state(2, 1) if seed == "ground" else random_density(rng, 2)
    path = write_state(tmp_path, "seed.json", sigma)
    cfg = {"experiment": "jcm_vacuum", "params": {"n_max": 3},
           "reduction": {"method": "correlated", "seed": "file:" + path}}
    ts = np.concatenate([[0.0, 1e-5, 3e-5, math.pi / 2],
                         np.linspace(0.3, 10.0, 2 * cli.CHUNK - 4)])
    sys_, model = cli._state_factory(cfg)
    reducer = cli._reducer(cfg["reduction"], sys_)
    caplog.set_level(logging.WARNING, logger="corred")
    with mock.patch.object(reduction, "_reduce_one", wraps=reduction._reduce_one) as spy:
        rows = rows_of(cli._series(ts, sys_, model, reducer), sys_)
    assert 0 < spy.call_count < len(ts)  # some points on the stack, some alone
    messages = [r.getMessage() for r in caplog.records]
    want_messages, want_rows = [], []
    for t in ts.tolist():
        try:
            psi = models.jcm_vacuum_amplitudes(models.JcmParams(1.0, 1.0, 3), t)
            res = reduction.correlated_reduce(psi, sys_, sigma)
        except DegenerateOverlap as exc:
            want_messages.append(f"t={t:g}: {exc}")
            continue
        want_messages += [f"t={t:g}: {w}" for w in res.warnings]
        want_rows.append({
            "t": t,
            "pop_alpha": res.rho_alpha.matrix.diagonal().real,
            "pop_beta": res.rho_beta.matrix.diagonal().real,
            "coh_alpha": float(max_coherence_dense(res.rho_alpha.matrix)),
            "coh_beta": float(max_coherence_dense(res.rho_beta.matrix)),
            "reconstruction_error": res.reconstruction_error,
            "verdict": res.verdict,
            "iterations": res.iterations,
        })
    assert messages == want_messages
    if seed == "ground":
        assert messages[0].startswith("t=0: overlap denominator")
        assert messages[1].startswith("t=1e-05: near-degenerate overlap denominator")
    assert len(rows) == len(want_rows)
    for row, want in zip(rows, want_rows):
        for side in ("pop_alpha", "pop_beta"):
            np.testing.assert_array_max_ulp(np.array(row.pop(side)), want.pop(side), maxulp=1)
        assert row == want


@pytest.mark.parametrize("experiment", ["epr", "custom"])
def test_a_state_that_does_not_change_is_reduced_once(tmp_path, rng, experiment):
    # Each row is the row of that point reduced alone; the state is reduced
    # at the first t only.
    if experiment == "epr":
        sys_, rho, params = mc.BipartiteSystem(2, 2), epr_state(), {}
    else:
        sys_, rho = mc.BipartiteSystem(2, 3), random_density(rng, 6)
        params = {"state": write_state(tmp_path, "state.json", rho), "dims": [2, 3]}
    cfg = {"experiment": experiment, "params": params,
           "time_grid": {"start": 0.0, "stop": 1.0, "steps": 3}, "reduction": {"method": "correlated"}}
    out = tmp_path / "out.json"
    argv = ["run", "--config", write_config(tmp_path, cfg), "--format", "json", "--out", str(out)]
    with mock.patch.object(reduction, "_reduce_one", wraps=reduction._reduce_one) as spy:
        assert cli.main(argv) == 0
    assert spy.call_count == 1
    reducer = cli._reducer(cfg["reduction"], sys_)
    want = [row for t in (0.0, 0.5, 1.0)
            for row in stack_rows([t], cli._alone(t, rho, sys_, reducer), sys_)]
    assert json.loads(out.read_text())["rows"] == want


@pytest.mark.parametrize("level,message", [
    (1, "t=0: overlap denominator 0.000e+00 below 1e-14"),
    (2, "t=0: near-degenerate overlap denominator 1.000e-12"),
])
def test_a_state_that_does_not_change_logs_its_warning_once(tmp_path, caplog, level, message):
    # A custom 2 x 3 state with beta level 1 empty and level 2 at 1e-12:
    # projective on it is degenerate, or near it, at every t.
    rho = DensityMatrix(np.diag([1 - 1e-12, 0.0, 1e-12, 0.0, 0.0, 0.0]))
    cfg = {"experiment": "custom",
           "params": {"state": write_state(tmp_path, "state.json", rho), "dims": [2, 3]},
           "time_grid": {"start": 0.0, "stop": 1.0, "steps": 3},
           "reduction": {"method": "projective", "level": level}}
    caplog.set_level(logging.WARNING, logger="corred")
    code = cli.main(["run", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out.csv")])
    assert code == (3 if level == 1 else 0)
    messages = [r.getMessage() for r in caplog.records]
    assert len(messages) == 1 and messages[0].startswith(message)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_degenerate_at_every_time_point_writes_nothing(tmp_path, capsys, fmt):
    cfg = {
        "experiment": "custom",
        "params": {"state": write_state(tmp_path, "product.json", projector_state(4, 0)),
                   "dims": [2, 2]},
        "time_grid": {"start": 0.0, "stop": 1.0, "steps": 3},
        "reduction": {"method": "conditioned",
                      "state": write_state(tmp_path, "beta1.json", projector_state(2, 1))},
        "output": {"format": fmt},
    }
    assert cli.main(["run", "--config", write_config(tmp_path, cfg)]) == 3
    assert capsys.readouterr() == ("", "error: degenerate overlap at every time point\n")


@pytest.mark.parametrize("rcfg", [
    {"method": "neumann"},
    {"method": "conditioned", "state": "{sigma_alpha}", "given_side": "alpha"},
    {"method": "conditioned", "state": "{sigma_beta}", "given_side": "beta"},
    {"method": "projective", "level": 1},
    {"method": "correlated"},
    {"method": "correlated", "seed": "file:{sigma_alpha}"},
], ids=["neumann", "conditioned-alpha", "conditioned-beta", "projective", "correlated",
        "correlated-file-seed"])
def test_a_point_reduced_alone_has_the_public_reductions_row(tmp_path, rng, rcfg):
    # A custom 2 x 3 state is N x N, so each point is reduced alone and its
    # row read off a stack of one.
    files = {name: write_state(tmp_path, f"{name}.json", random_density(rng, n))
             for name, n in (("state", 6), ("sigma_alpha", 2), ("sigma_beta", 3))}
    rcfg = {key: value.format(**files) if isinstance(value, str) else value
            for key, value in rcfg.items()}
    cfg = {"experiment": "custom", "params": {"state": files["state"], "dims": [2, 3]},
           "time_grid": {"start": 0.0, "stop": 1.0, "steps": 2}, "reduction": rcfg}
    out = tmp_path / "out.json"
    argv = ["run", "--config", write_config(tmp_path, cfg), "--format", "json", "--out", str(out)]
    assert cli.main(argv) == 0
    sys_ = mc.BipartiteSystem(2, 3)
    reducer = cli._reducer(rcfg, sys_)
    public = getattr(reduction, f"{reducer.pop('method')}_reduce")
    res = public(cli._load_density(files["state"]), sys_, **reducer)
    want = {
        "pop_alpha": res.rho_alpha.matrix.diagonal().real.tolist(),
        "coh_alpha": float(max_coherence_dense(res.rho_alpha.matrix)),
        "reconstruction_error": res.reconstruction_error,
        "verdict": res.verdict,
        "iterations": res.iterations,
    }
    if rcfg.get("given_side") == "beta":
        assert res.reconstruction_error is None and res.rho_beta is None
    else:
        want["pop_beta"] = res.rho_beta.matrix.diagonal().real.tolist()
        want["coh_beta"] = float(max_coherence_dense(res.rho_beta.matrix))
    assert res.verdict == ("converged" if rcfg["method"] == "correlated" else "-")
    rows = json.loads(out.read_text())["rows"]
    assert rows == [{"t": 0.0, **want}, {"t": 1.0, **want}]


def test_kernels_run_without_the_full_length_stack(tmp_path):
    # K = CHUNK whole vectors of length N = 514 would be a (K, N) array of
    # 16 K N bytes; a chunk is made on the two levels that can hold the
    # state, so neither reduce_stack's start nor its kernels see one.
    k, n = cli.CHUNK, 2 * 257
    cfg = {
        "experiment": "jcm_vacuum",
        "params": {"omega": 1.0, "rabi": 1.0, "n_max": 256},
        "time_grid": {"start": 0.0, "stop": 10.0, "steps": 2 * k},
        "reduction": {"method": "neumann"},
    }
    argv = ["run", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out.csv")]
    reduce_stack, seen = reduction.reduce_stack, []

    def traced(block, *args, **kwargs):
        tracemalloc.reset_peak()  # to the memory in use at the start
        stack = reduce_stack(block, *args, **kwargs)
        seen.append((len(block), tracemalloc.get_traced_memory()[1]))
        return stack

    assert cli.main(argv) == 0
    with mock.patch.object(reduction, "reduce_stack", traced):
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
        finally:
            tracemalloc.stop()
    assert [size for size, _ in seen] == [k, k]
    assert all(peak < 16 * k * n for _, peak in seen)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_jcm_run_holds_no_k_by_n_array(tmp_path, fmt):
    # Each chunk is made on its two levels, and each row is formatted from
    # its stack's template, so a run at n_max = 4096 (N = 8194) over two
    # chunks peaks below one (K, N) complex array of 16 K N bytes, where a
    # chunk made as K whole vectors peaked at 2.3 MB. A JSON row is about
    # 53 KB of text here, and the run holds its stack's template and one
    # row: it peaks at about 0.18 MB (0.15 MB in CSV), where a dict and a
    # list of the 4,097 field populations per row peaked at 0.36 MB.
    k, n = cli.CHUNK, 2 * 4097
    peak = run_peak_bytes(tmp_path, 4096, 2 * k, "neumann", fmt)
    assert peak < (16 * k * n if fmt == "csv" else 270_000)


@pytest.mark.parametrize("params,grid,rcfg,code", [
    ({}, {"start": math.pi / 2, "stop": math.pi / 2 + 1.0, "steps": 3}, {"method": "correlated"}, 0),
    # omega * t overflows at t = 1.81, inside the third chunk.
    ({"omega": 1e308}, {"start": 0.0, "stop": 10.0, "steps": 200}, {"method": "neumann"}, 2),
    ({}, {"start": math.pi - 2e-6, "stop": math.pi + 4e-6, "steps": 7},
     {"method": "projective", "level": 0}, 0),
    ({}, {"start": 0.0, "stop": 2 * math.pi, "steps": 41},
     {"method": "conditioned", "state": "{ground}", "given_side": "alpha"}, 0),
], ids=["tie", "overflow", "projective-near-zero", "conditioned-near-zero"])
def test_a_point_reduced_alone_holds_no_large_array(tmp_path, params, grid, rcfg, code):
    # Each run reduces points alone: a tie the start does not certify, the
    # points of a chunk before an overflow, and overlaps below 1e-10. A
    # point alone is its own one-point block, so none is made as a whole
    # vector of N = 2050 or reduced to a 1025 x 1025 field state, and each
    # run peaks below one (K, N) complex array, as a chunk does.
    k, n = cli.CHUNK, 2 * 1025
    ground = write_state(tmp_path, "ground.json", projector_state(2, 1))
    rcfg = {key: value.format(ground=ground) if isinstance(value, str) else value
            for key, value in rcfg.items()}
    cfg = {"experiment": "jcm_vacuum", "params": {"n_max": 1024, **params}, "time_grid": grid,
           "reduction": rcfg}
    argv = ["run", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out.csv")]
    with mock.patch.object(reduction, "_reduce_one", wraps=reduction._reduce_one) as spy:
        assert cli.main(argv) == code
    assert spy.call_count > 0
    tracemalloc.start()
    try:
        assert cli.main(argv) == code
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * k * n


def test_a_degenerate_point_alone_holds_no_levels():
    # Projective level 5 lies outside the JCM vacuum's field levels {0, 1},
    # so every overlap is 0 and a point reduced alone is not done. Its stack
    # holds no reduced state and nothing of the 10**6 + 1 field levels, of
    # which a list is 8 MB.
    p = models.JcmParams(1.0, 1.0, 10**6)
    sys_ = models.jcm_system(p)
    reducer = cli._reducer({"method": "projective", "level": 5}, sys_)
    block = models._jcm_vacuum_block(p, np.array([0.3]))
    tracemalloc.start()
    try:
        stack = cli._alone(0.3, block, sys_, reducer, block=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not stack.done[0] and stack.rho_alpha is stack.rho_beta is stack.error is None
    assert peak < 1_000_000


def max_coherence_dense(m):
    """Reference for ``cli._max_coherence``: one |m| of the whole stack."""
    n = m.shape[-1]
    if n < 2:
        return np.zeros(m.shape[:-2])
    off = np.abs(m)
    off[..., range(n), range(n)] = 0.0
    return off.max(axis=(-2, -1))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 4), max_size=2), st.integers(1, 80), st.integers(0, 2**32 - 1))
def test_max_coherence_equals_the_whole_matrix_maximum(lead, n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((*lead, n, n)) + 1j * rng.standard_normal((*lead, n, n))
    m *= rng.random(m.shape) < 0.3
    assert cli._max_coherence(m).tobytes() == max_coherence_dense(m).tobytes()


def test_max_coherence_of_a_large_state_equals_the_whole_matrix_maximum(rng):
    m = random_density(rng, 257).matrix
    assert cli._max_coherence(m) == max_coherence_dense(m)


def csv_line_per_cell(r: dict) -> str:
    """The CSV line of a reference row (``stack_rows``), each cell formatted
    on its own."""
    def fmt(x):
        return f"{x:.17g}"

    cells = [fmt(r["t"])] + [fmt(x) for x in r["pop_alpha"]]
    cells += [fmt(x) for x in r.get("pop_beta", [])]
    cells.append(fmt(r["coh_alpha"]))
    if "coh_beta" in r:
        cells.append(fmt(r["coh_beta"]))
    error = r["reconstruction_error"]
    cells += ["" if error is None else fmt(error), str(r["verdict"]), str(r["iterations"])]
    return ",".join(cells) + "\n"


_cells = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, math.nan, math.inf])


@pytest.mark.parametrize("na,nb", [(2, 0), (3, 0), (2, 17), (2, 1016), (2, 1017), (2, 4097)])
def test_csv_header_is_the_joined_column_names(na, nb):
    # 1,024 columns (na 2, nb 1016) are one piece, 1,025 two; n_max = 4096 is 8,200 columns.
    names = ["t", *(f"pop_alpha_{i}" for i in range(na)), *(f"pop_beta_{i}" for i in range(nb)),
             "coh_alpha", *(["coh_beta"] if nb else []), "reconstruction_error", "verdict",
             "iterations"]
    pieces = list(cli._csv_header(na, nb))
    assert "".join(pieces) == ",".join(names) + "\n"
    assert len(pieces) == -(-len(names) // 1024)


@st.composite
def csv_pieces(draw):
    """(system, stack, points) of a run: 1 to ``cli.CHUNK`` points on a
    stack of as many entries, or on a stack of one (a state that does not
    change). Its levels are the leading ones of the system, fewer than the
    system's or all of them; its populations, coherences, errors and points
    any floats, -0.0 and subnormals among them; its done mask any, undone
    points inside it."""
    sys_ = mc.BipartiteSystem(draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    k = draw(st.integers(1, cli.CHUNK))
    entries = draw(st.sampled_from([k, 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.array(draw(st.lists(_cells, min_size=1, max_size=6)))

    def floats(*shape):
        x = rng.standard_normal(shape)
        drawn = rng.random(shape) < 0.5
        x[drawn] = rng.choice(pool, size=drawn.sum())
        return x

    def matrices(n):
        levels = n if n == 1 or draw(st.booleans()) else draw(st.integers(1, n - 1))
        m = np.empty((entries, levels, levels), dtype=complex)
        m.real, m.imag = floats(*m.shape), floats(*m.shape)
        return m

    stack = reduction.Stack(
        matrices(sys_.dim_alpha), matrices(sys_.dim_beta) if draw(st.booleans()) else None,
        draw(st.sampled_from([None, floats(entries)])),
        np.array(draw(st.lists(st.booleans(), min_size=entries, max_size=entries))),
        draw(st.sampled_from(["-", "converged", "max_iter", "oscillating", "50% done"]) | st.text()),
        draw(st.integers(0, 10**6)))
    return sys_, stack, floats(k).tolist()


def chunked(piece) -> tuple:
    """(system, pieces, rows) of a ``csv_pieces`` draw: the pieces that
    ``cli._chunk`` makes of its stack, each run of done points and each
    undone point as a stack of one that is not done, and the reference rows
    (``stack_rows``) of its done points."""
    sys_, stack, ts = piece
    done = stack.done.tolist()
    pieces, first = [], 0
    for j in [j for j, ok in enumerate(done) if not ok] if len(done) > 1 else []:
        if first < j:
            pieces.append((ts[first:j], cli._part(stack, first, j)))
        pieces.append((ts[j:j + 1], stack._replace(done=np.zeros(1, dtype=bool))))
        first = j + 1
    if first < len(ts):
        pieces.append((ts[first:], cli._part(stack, first, len(ts)) if len(done) > 1 else stack))
    every = stack_rows(ts, stack._replace(done=np.ones_like(stack.done)), sys_)
    return sys_, pieces, [row for row, ok in zip(every, np.broadcast_to(done, len(ts))) if ok]


def written(sys_, pieces, cfg: dict, fmt: str) -> str | None:
    """What ``cli._write_series`` writes of the pieces, or None where it
    raises that no point is done, having written nothing."""
    out = io.StringIO()
    try:
        cli._write_series(iter(pieces), cfg, fmt, out, sys_)
    except DegenerateOverlap as exc:
        assert str(exc) == "degenerate overlap at every time point" and out.getvalue() == ""
        return None
    return out.getvalue()


@settings(max_examples=300, deadline=None)
@given(csv_pieces())
def test_csv_lines_equal_the_per_cell_writer_of_the_json_rows(piece):
    sys_, pieces, rows = chunked(piece)
    want = None
    if rows:
        nb = len(rows[0].get("pop_beta", ()))
        names = ["t", *(f"pop_alpha_{i}" for i in range(len(rows[0]["pop_alpha"]))),
                 *(f"pop_beta_{i}" for i in range(nb)), "coh_alpha", *(["coh_beta"] if nb else []),
                 "reconstruction_error", "verdict", "iterations"]
        want = "".join(['# config: {"experiment": "epr"}\n', ",".join(names) + "\n",
                        *map(csv_line_per_cell, rows)])
    assert written(sys_, pieces, {"experiment": "epr"}, "csv") == want


@settings(max_examples=300, deadline=None)
@given(csv_pieces())
def test_json_rows_equal_the_dumps_of_the_reference_rows(piece):
    # NaN, Infinity, -0.0 and subnormals, a None error and a verdict with
    # "%" or non-ASCII text are written as the encoder writes them.
    sys_, pieces, rows = chunked(piece)
    cfg = {"experiment": "epr", "params": {}, "time_grid": {"start": 0.0, "stop": 1.0, "steps": 3}}
    want = cli._dumps({"config": cfg, "rows": rows}) + "\n" if rows else None
    assert written(sys_, pieces, cfg, "json") == want


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_the_writer_lets_a_piece_go_before_the_next_is_made(fmt):
    # A piece's arrays are dead when the next piece is made, so a chunk's
    # states are not held while the next chunk's kernels run.
    def pieces():
        dead = []
        for t in (0.0, 1.0, 2.0):
            assert all(ref() is None for ref in dead)
            rho = np.full((1, 2, 2), 0.25 + 0j)
            dead.append(weakref.ref(rho))
            yield [t], reduction.Stack(rho, rho.copy(), np.zeros(1), np.ones(1, dtype=bool))
            del rho

    cli._write_series(pieces(), {"experiment": "epr"}, fmt, io.StringIO(), mc.BipartiteSystem(2, 2))


@st.composite
def time_grids(draw):
    """(start, stop, steps) with steps of 1 or 2, start == stop, a step that
    underflows to 0, a subnormal span, or any other span."""
    start = draw(st.floats(-1e307, 1e307) | st.sampled_from([0.0, -0.0, 5e-324, 1.0]))
    kind = draw(st.sampled_from(["equal", "next", "subnormal", "any"]))
    if kind == "equal":
        stop = start
    elif kind == "next":
        stop = float(np.nextafter(start, math.inf))
    elif kind == "subnormal":
        start = draw(st.sampled_from([0.0, -0.0, -5e-324, 5e-324]))
        stop = start + draw(st.sampled_from([5e-324, 1e-323, 2.5e-310, 2.2e-308]))
    else:
        stop = start + abs(draw(st.floats(0.0, 1e307)))
    steps = draw(st.sampled_from([1, 2, 3]) | st.integers(1, 3000))
    return start, stop, steps


@settings(max_examples=300, deadline=None)
@given(time_grids(), st.integers(1, 40))
def test_time_grid_slices_equal_linspace(grid, chunk):
    start, stop, steps = grid
    ts = cli._time_grid({"start": start, "stop": stop, "steps": steps})
    got = np.concatenate([ts[i:i + chunk] for i in range(0, steps, chunk)])
    assert got.tobytes() == np.linspace(start, stop, steps).tobytes()


class _DiskFullAfter:
    """A text stream that takes ``lines`` writes and then fails as a full disk does."""

    def __init__(self, lines: int):
        self.left, self.text = lines, []

    def write(self, text: str) -> None:
        if not self.left:
            raise OSError(28, "No space left on device")
        self.left -= 1
        self.text.append(text)


def test_huge_time_grid_runs_a_chunk_at_a_time(tmp_path, monkeypatch):
    # np.linspace of 10**12 points would need 7.3 TiB; the grid is made a
    # chunk at a time, so the first chunk's rows come out in well under 1 MB.
    steps = 10**12
    cfg = {
        "experiment": "jcm_vacuum",
        "params": {"n_max": 2},
        "time_grid": {"start": 0.0, "stop": 10.0, "steps": steps},
        "reduction": {"method": "neumann"},
    }
    argv = ["run", "--config", write_config(tmp_path, cfg)]
    monkeypatch.setattr(sys, "stdout", _DiskFullAfter(2 + cli.CHUNK))
    assert cli.main(argv) == cli.EXIT_IO
    out = _DiskFullAfter(2 + cli.CHUNK)
    monkeypatch.setattr(sys, "stdout", out)
    tracemalloc.start()
    try:
        assert cli.main(argv) == cli.EXIT_IO
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    ts = [float(line.split(",")[0]) for line in out.text[2:]]
    assert ts == (np.arange(cli.CHUNK) * (10.0 / (steps - 1))).tolist()


class TestReduce:
    def test_neumann_on_epr(self, tmp_path, capsys):
        path = write_state(tmp_path, "epr.json", epr_state())
        assert cli.main(["reduce", path, "--dims", "2", "2"]) == 0
        obj = json.loads(capsys.readouterr().out)
        ra = mc.matrix_from_json(obj["rho_alpha"])
        assert matrices_close(ra, np.eye(2) / 2, 1e-12)
        assert obj["reconstruction_error"] == pytest.approx(0.5, abs=1e-12)

    def test_projective(self, tmp_path, capsys):
        path = write_state(tmp_path, "epr.json", epr_state())
        rc = cli.main(["reduce", path, "--dims", "2", "2",
                       "--method", "projective", "--level", "1"])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        ra = mc.matrix_from_json(obj["rho_alpha"])
        assert matrices_close(ra, np.diag([1.0, 0.0]), 1e-12)

    def test_conditioned(self, tmp_path, capsys):
        path = write_state(tmp_path, "epr.json", epr_state())
        sigma = write_state(tmp_path, "sigma.json", minimum_information_state(2))
        rc = cli.main(["reduce", path, "--dims", "2", "2",
                       "--method", "conditioned", "--sigma", sigma])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        ra = mc.matrix_from_json(obj["rho_alpha"])
        assert matrices_close(ra, np.eye(2) / 2, 1e-12)

    def test_conditioned_on_beta_has_no_reconstruction_error(self, tmp_path, capsys):
        path = write_state(tmp_path, "epr.json", epr_state())
        sigma = write_state(tmp_path, "sigma.json", minimum_information_state(2))
        rc = cli.main(["reduce", path, "--dims", "2", "2",
                       "--method", "conditioned", "--sigma", sigma])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["reconstruction_error"] is None
        assert "rho_beta" not in obj

    def test_conditioned_on_alpha_reports_reconstruction_error(self, tmp_path, capsys):
        # both sides are I/2, and the EPR coherence 1/2 is what the product misses
        path = write_state(tmp_path, "epr.json", epr_state())
        sigma = write_state(tmp_path, "sigma.json", minimum_information_state(2))
        rc = cli.main(["reduce", path, "--dims", "2", "2", "--method", "conditioned",
                       "--sigma", sigma, "--given-side", "alpha"])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["reconstruction_error"] == pytest.approx(0.5, abs=1e-12)

    def test_correlated_report(self, tmp_path, capsys):
        path = write_state(tmp_path, "epr.json", epr_state())
        rc = cli.main(["reduce", path, "--dims", "2", "2", "--method", "correlated"])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["verdict"] == "converged"
        assert obj["iterations"] >= 1

    def test_correlated_report_extends_the_result_shape(self, tmp_path, capsys):
        path = write_state(tmp_path, "epr.json", epr_state())
        assert cli.main(["reduce", path, "--dims", "2", "2", "--method", "correlated"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["method"] == "correlated"
        assert set(obj) >= {"reconstruction_error", "rho_alpha", "rho_beta", "residuals"}

    def test_correlated_seed_file(self, tmp_path, capsys):
        path = write_state(tmp_path, "epr.json", epr_state())
        from corred.states import projector_state

        seed = write_state(tmp_path, "seed.json", projector_state(2, 0))
        rc = cli.main(["reduce", path, "--dims", "2", "2",
                       "--method", "correlated", "--seed", f"file:{seed}"])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["verdict"] == "converged"
        ra = mc.matrix_from_json(obj["rho_alpha"])
        assert ra[0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_wrong_shaped_seed_file_exits_config(self, tmp_path, capsys):
        path = write_state(tmp_path, "epr.json", epr_state())
        from corred.states import projector_state

        seed = write_state(tmp_path, "seed.json", projector_state(3, 0))
        rc = cli.main(["reduce", path, "--dims", "2", "2",
                       "--method", "correlated", "--seed", f"file:{seed}"])
        assert rc == 2
        assert "does not match dim_alpha=2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit,message",
        [
            ({"data": [[0.5, 0.0]] * 3}, "data length 3 != rows*cols = 4"),
            ({"validation": "bogus"}, "bogus"),
            ({"rows": None}, "lacks key 'rows'"),
            ({"cols": None}, "lacks key 'cols'"),
            ({"data": None}, "lacks key 'data'"),
        ],
    )
    def test_bad_state_file_exits_config(self, tmp_path, capsys, edit, message):
        obj = minimum_information_state(2).to_json()
        for key, value in edit.items():
            if value is None:
                del obj[key]
            else:
                obj[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        assert cli.main(["reduce", str(path), "--dims", "2", "1"]) == 2
        assert message in capsys.readouterr().err

    def test_missing_state_exits_io(self, tmp_path):
        assert cli.main(["reduce", str(tmp_path / "none.json"), "--dims", "2", "2"]) == 4


# Key order of the result JSON that ``reduce`` prints. A correlated result
# leads with its verdict and trajectory; "warnings" closes a result only when
# a sweep met a near-degenerate overlap. "{dir}" stands for the test's
# directory, which holds the EPR state, sigma = I/2, the beta state |1><1| and
# a state with weight 1e-12 on |11>, where that seed meets an overlap of 1e-12.
ONE_SHOT_KEYS = ["method", "reconstruction_error", "rho_alpha", "rho_beta"]
CORRELATED_KEYS = ["verdict", "iterations", "residuals", *ONE_SHOT_KEYS]
SHAPE_CASES = [
    ("neumann", "epr", [], ONE_SHOT_KEYS),
    ("projective", "epr", ["--method", "projective", "--level", "1"], ONE_SHOT_KEYS),
    (
        "conditioned-beta",
        "epr",
        ["--method", "conditioned", "--sigma", "{dir}/sigma.json"],
        ONE_SHOT_KEYS[:3],
    ),
    (
        "conditioned-alpha",
        "epr",
        ["--method", "conditioned", "--sigma", "{dir}/sigma.json", "--given-side", "alpha"],
        ONE_SHOT_KEYS,
    ),
    ("correlated", "epr", ["--method", "correlated"], CORRELATED_KEYS),
    (
        "correlated-warnings",
        "faint",
        ["--method", "correlated", "--seed", "file:{dir}/beta1.json"],
        [*CORRELATED_KEYS, "warnings"],
    ),
]


@pytest.mark.parametrize("state,argv,keys", [c[1:] for c in SHAPE_CASES],
                         ids=[c[0] for c in SHAPE_CASES])
def test_reduce_result_json_shape(tmp_path, capsys, monkeypatch, state, argv, keys):
    write_state(tmp_path, "epr.json", epr_state())
    write_state(tmp_path, "sigma.json", minimum_information_state(2))
    write_state(tmp_path, "beta1.json", projector_state(2, 1))
    write_state(tmp_path, "faint.json", DensityMatrix(np.diag([1 - 1e-12, 0.0, 0.0, 1e-12])))
    argv = [a.replace("{dir}", str(tmp_path)) for a in argv]
    argv = ["reduce", str(tmp_path / f"{state}.json"), "--dims", "2", "2", *argv]
    # reduce writes the result from its arrays; keep the result to encode it here
    results = []
    encode = reduction.ReductionResult._to_json
    monkeypatch.setattr(reduction.ReductionResult, "_to_json",
                        lambda self, matrix: results.append(self) or encode(self, matrix))
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    # the bytes of the stdlib's indented encoding of the public to_json()
    assert len(results) == 1
    assert out == json.dumps(results[0].to_json(), indent=2) + "\n"
    obj = json.loads(out)
    assert list(obj) == keys
    assert obj.get("warnings", ["non-empty"])


@pytest.mark.parametrize("method", [{"method": "neumann"}, {"method": "projective", "level": 0}])
def test_run_json_one_shot_rows_carry_no_iteration(tmp_path, capsys, method):
    cfg = {
        "experiment": "spin_pair",
        "params": {"c": 0.5, "phi": 0.2},
        "time_grid": {"start": 0.0, "stop": 2.0, "steps": 3},
        "reduction": method,
    }
    assert cli.main(["run", "--config", write_config(tmp_path, cfg), "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(rows) == 3
    assert all(row["verdict"] == "-" and row["iterations"] == 0 for row in rows)


# Commands besides ``reduce`` (see test_reduce_result_json_shape) that print
# indented JSON, run once with ``cli._dumps`` and once with the stdlib
# encoder in its place: the bytes must agree.
JSON_OUTPUT_CASES = [
    ("decompose-epr", None, ["decompose", "epr", "--theta", "0.7"]),
    ("decompose-triplet", None, ["decompose", "triplet", "--theta", "1.1"]),
    ("decompose-spin-pair-initial", None, ["decompose", "spin_pair_initial", "--phi", "0.3"]),
    (
        "decompose-spin-pair-t",
        None,
        ["decompose", "spin_pair_t", "--phi", "0.3", "--c", "0.7", "--t", "0.4"],
    ),
    (
        "run-jcm-correlated",
        {
            "experiment": "jcm_vacuum",
            "params": {"omega": 1.0, "rabi": 1.0, "n_max": 3},
            "time_grid": {"start": 0.0, "stop": 3.0, "steps": 4},
            "reduction": {"method": "correlated"},
        },
        ["run", "--format", "json"],
    ),
]


@pytest.mark.parametrize("config,argv", [c[1:] for c in JSON_OUTPUT_CASES],
                         ids=[c[0] for c in JSON_OUTPUT_CASES])
def test_json_output_matches_stdlib_encoder(tmp_path, capsys, monkeypatch, config, argv):
    if config is not None:
        argv = [*argv, "--config", write_config(tmp_path, config)]
    code = cli.main(argv)
    ours = capsys.readouterr().out
    monkeypatch.setattr(cli, "_dumps", lambda obj: json.dumps(obj, indent=2))
    assert cli.main(argv) == code
    assert ours == capsys.readouterr().out
    assert ours.count("\n") > 10


def assert_same_text(ours: str, expected: str) -> None:
    """``ours == expected``, reporting only the first difference: pytest's own
    diff of two megabyte strings takes minutes."""
    if ours != expected:
        pairs = zip(ours, expected)
        at = next((i for i, (a, b) in enumerate(pairs) if a != b), min(len(ours), len(expected)))
        window = slice(max(at - 40, 0), at + 40)
        pytest.fail(f"texts differ at {at}: {ours[window]!r} != {expected[window]!r}")


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072014e-308, 1e300]
NUMBERS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([10**400, -(2**64)]),
    st.floats(),
    st.sampled_from(SPECIAL_FLOATS),
)
# strings of brackets, separators, quotes, escapes, controls and non-ASCII
# characters, as keys and values, which must come out escaped as the stdlib
# escapes them
TEXT = st.text(st.sampled_from(["[", "]", ",", " ", '"', "\\", "\n", "1", "é", "中", "\x00"]))
JSON_VALUES = st.recursive(
    NUMBERS | TEXT | st.lists(st.lists(NUMBERS, max_size=4), max_size=4),
    lambda children: st.lists(children, max_size=5) | st.dictionaries(TEXT, children, max_size=5),
    max_leaves=30,
)


@settings(max_examples=150, deadline=None)
@given(JSON_VALUES)
@example(["a, b", "[[", "]]", {"x": [[1, -0.0], [1e300, 5e-324]], "y": []}])
def test_dumps_matches_stdlib_encoder(value):
    assert_same_text(cli._dumps(value), json.dumps(value, indent=2))


def test_dumps_matches_stdlib_encoder_on_a_large_matrix():
    # the shapes of a 2 x 257 reduction's result, with special values in the
    # data, as lists and as the arrays that reduce writes; rho_beta is
    # bit-hermitian but where a special value breaks the mirror, "general"
    # is not hermitian, and "rows" not square
    rng = np.random.default_rng(7)
    general = rng.standard_normal((257, 257)) + 1j * rng.standard_normal((257, 257))
    beta = mc.hermitize(general)
    for m in (general, beta):
        m.real.flat[:len(SPECIAL_FLOATS)] = SPECIAL_FLOATS
        m.imag.flat[-len(SPECIAL_FLOATS):] = SPECIAL_FLOATS
    alpha = np.eye(2) / 2

    def result(matrix):
        return {"verdict": "converged", "residuals": [1e-3, 0.0], "rho_alpha": matrix(alpha),
                "rho_beta": matrix(beta), "general": matrix(general), "rows": matrix(beta[:2])}

    want = json.dumps(result(mc.matrix_to_json), indent=2)
    assert_same_text(cli._dumps(result(mc.matrix_to_json)), want)
    assert_same_text(cli._dumps(result(mc._matrix_fields)), want)


# Matrices for the array writer (cli._matrix_block): any finite or special
# floats; bit-hermitian ones, m[i, j] == conj(m[j, i]) bit for bit, which it
# writes from one triangle; such a one with one mirrored entry 1 ulp off in
# its real or imaginary part; and ones whose imaginary parts are all +0.0 or
# -0.0, matched with their mirrors or not. Each comes C-ordered, Fortran-
# ordered or as a transposed view.
WRITER_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([*SPECIAL_FLOATS, -5e-324, 1e-310, -1e300, 0.0]),
)


@st.composite
def written_matrices(draw):
    kind = draw(st.sampled_from(["any", "hermitian", "ulp-re", "ulp-im", "zeros"]))
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6)) if kind == "any" else rows
    parts = st.lists(WRITER_FLOATS, min_size=rows * cols, max_size=rows * cols)
    m = np.array(draw(parts), dtype=complex).reshape(rows, cols)
    m.imag = np.reshape(draw(st.lists(st.sampled_from([0.0, -0.0]) if kind == "zeros"
                                      else WRITER_FLOATS,
                                      min_size=rows * cols, max_size=rows * cols)), m.shape)
    if kind != "any":
        lower = np.tri(rows, k=-1, dtype=bool)
        mirrored = m.conj().T
        if kind == "zeros":
            mirrored.imag = m.imag  # signs drawn independently: some match, some not
        m[lower] = mirrored[lower]
        if kind.startswith("ulp") and rows > 1:
            i, j = draw(st.sampled_from(list(zip(*np.nonzero(lower)))))
            part = m.real if kind == "ulp-re" else m.imag
            toward = draw(st.sampled_from([-np.inf, np.inf]))
            if abs(part[i, j]) == np.finfo(float).max:
                toward = 0.0  # the finite side: a step past +-max would overflow to +-inf
            part[i, j] = np.nextafter(part[i, j], toward)
    layout = draw(st.sampled_from(["C", "F", "transposed"]))
    if layout == "F":
        return np.asfortranarray(m)
    return np.ascontiguousarray(m.T).T if layout == "transposed" else m


@settings(max_examples=200, deadline=None)
@given(written_matrices())
def test_matrix_block_matches_stdlib_encoder(m):
    want = json.dumps(mc.matrix_to_json(m), indent=2)
    assert cli._dumps(mc._matrix_fields(m)) == want
    # the same matrix nested, where its lines carry more indentation
    assert cli._dumps([{"x": mc._matrix_fields(m)}]) == json.dumps([{"x": mc.matrix_to_json(m)}],
                                                                   indent=2)


def test_run_refuses_an_unknown_key_at_any_depth(tmp_path, capsys):
    # A config that json.load reads is refused for its unknown key, however
    # deep the key's value nests; one nested deeper than json.load reads is
    # invalid JSON. Either way the run exits 2 with one error line.
    def run(depth: int) -> str:
        note = "[" * depth + '{"a": [[1.5, -0.0]], "b": "x"}' + "]" * depth
        path = tmp_path / "config.json"
        path.write_text('{"experiment": "epr", "note": ' + note + "}")
        code = cli.main(["run", "--config", str(path), "--format", "json"])
        out, err = capsys.readouterr()
        assert (code, out, len(err.splitlines())) == (2, "", 1)
        return err

    unknown = "error: unknown config key 'note'\n"
    readable, unreadable = 0, sys.getrecursionlimit()
    assert run(readable) == unknown
    while unreadable - readable > 1:
        depth = (readable + unreadable) // 2
        readable, unreadable = (depth, unreadable) if run(depth) == unknown else (readable, depth)
    assert run(readable) == unknown
    err = run(unreadable)
    assert err.startswith("error: invalid JSON in ") and "recursion" in err


README_CONFIG = {
    "experiment": "jcm_vacuum",
    "params": {"omega": 1.0, "rabi": 1.0, "n_max": 16},
    "time_grid": {"start": 0.0, "stop": 10.0, "steps": 200},
    "reduction": {"method": "correlated", "tol": 1e-12, "max_iter": 10000},
    "output": {"format": "csv"},
}


@pytest.fixture(scope="module")
def wishart_514(tmp_path_factory):
    """A random full-rank 2 x 257 state (seed 0) and the path of its state file."""
    rng = np.random.default_rng(0)
    g = rng.standard_normal((514, 514)) + 1j * rng.standard_normal((514, 514))
    rho = g @ g.conj().T
    rho = 0.5 * (rho + rho.conj().T) / np.trace(rho).real
    path = tmp_path_factory.mktemp("wishart") / "wishart-514.json"
    data = np.stack([rho.real.ravel(), rho.imag.ravel()], axis=1).tolist()
    path.write_text(json.dumps({"rows": 514, "cols": 514, "data": data}))
    return rho, str(path)


def test_a_dense_state_file_reduces_to_its_fixed_point_in_stdlib_json(tmp_path, capsys, wishart_514):
    rho, path = wishart_514
    assert cli.main(["reduce", path, "--method", "correlated", "--dims", "2", "257"]) == 0
    reduced = capsys.readouterr().out
    assert cli.main(["decompose", "epr"]) == 0
    decomposed = capsys.readouterr().out
    run_out = tmp_path / "run-out.json"
    argv = ["run", "--config", write_config(tmp_path, README_CONFIG), "--format", "json",
            "--out", str(run_out)]
    assert cli.main(argv) == 0
    for out in (reduced, decomposed, run_out.read_text()):
        assert_same_text(out, json.dumps(json.loads(out), indent=2) + "\n")

    out = json.loads(reduced)
    ra, rb = mc.matrix_from_json(out["rho_alpha"]), mc.matrix_from_json(out["rho_beta"])

    def conditioned(sigma, given):
        # Sp_given(rho sigma') / Sp(rho sigma'), sigma' = sigma extended by the identity
        ext = np.kron(sigma, np.eye(257)) if given == "alpha" else np.kron(np.eye(2), sigma)
        num = (rho @ ext).reshape(2, 257, 2, 257)
        num = np.einsum("ibic->bc", num) if given == "alpha" else np.einsum("ibjb->ij", num)
        return num / np.trace(num).real

    errors = (abs(rb - conditioned(ra, "alpha")).max(), abs(ra - conditioned(rb, "beta")).max())
    assert (out["verdict"], out["iterations"]) == ("converged", 1)
    assert max(errors) <= 1e-9
    assert cli.main(["decompose", "epr", "--theta=1e7"]) == 0


def test_a_point_reduced_alone_has_the_diagonals_reduce_prints(tmp_path, capsys, wishart_514):
    _, path = wishart_514
    cfg = {
        "experiment": "custom",
        "params": {"state": path, "dims": [2, 257]},
        "time_grid": {"start": 0.0, "stop": 1.0, "steps": 3},
        "reduction": {"method": "neumann"},
        "output": {"format": "csv"},
    }
    assert cli.main(["run", "--config", write_config(tmp_path, cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert cli.main(["reduce", path, "--method", "neumann", "--dims", "2", "257"]) == 0
    reduced = json.loads(capsys.readouterr().out)
    want = {}
    for side in ("alpha", "beta"):
        diagonal = mc.matrix_from_json(reduced[f"rho_{side}"]).diagonal().real.tolist()
        want.update((f"pop_{side}_{i}", x) for i, x in enumerate(diagonal))
    rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
    pops = [key for key in rows[0] if key.startswith("pop_")] if rows else []
    assert len(rows) == 3 and sorted(pops) == sorted(want)
    assert [row["t"] for row in rows if any(float(row[k]) != v for k, v in want.items())] == []


def run_rows(tmp_path, cfg: dict) -> list[dict]:
    """The CSV rows that ``corred run`` writes to its ``--out`` file for ``cfg``."""
    out = tmp_path / "run.csv"
    assert cli.main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    with open(out) as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def jcm_config(n_max: int, grid: dict, method: str) -> dict:
    return {
        "experiment": "jcm_vacuum",
        "params": {"omega": 1.0, "rabi": 1.0, "n_max": n_max},
        "time_grid": grid,
        "reduction": {"method": method},
        "output": {"format": "csv"},
    }


def test_an_exact_tie_on_the_grid_converges_to_one_half(tmp_path):
    rows = run_rows(tmp_path, jcm_config(16, {"start": 0.0, "stop": math.pi, "steps": 101},
                                         "correlated"))
    assert len(rows) == 101
    assert [row["t"] for row in rows if row["verdict"] != "converged"] == []
    # the step limit is exactly 1/2 at the tie t = pi/2 (rabi = 1)
    tie = min(rows, key=lambda row: abs(float(row["t"]) - math.pi / 2))
    assert abs(float(tie["pop_alpha_0"]) - 0.5) <= 1e-12


# rabi = 1: the step limit of pop_alpha_0 is 0 above the tie t = pi/2 and 1 below it
@pytest.mark.parametrize("sign,limit", [(1, 0.0), (-1, 1.0)], ids=["above", "below"])
def test_near_tie_grids_converge_to_the_step_limit(tmp_path, sign, limit):
    lo, hi = sorted(math.pi / 2 + sign * d for d in (1e-8, 1e-4))
    rows = run_rows(tmp_path, jcm_config(16, {"start": lo, "stop": hi, "steps": 50}, "correlated"))
    assert len(rows) == 50
    assert [row["t"] for row in rows if row["verdict"] != "converged"
            or not abs(float(row["pop_alpha_0"]) - limit) <= 1e-12] == []


def test_a_spin_pair_run_converges_to_the_step_limit(tmp_path):
    cfg = {
        "experiment": "spin_pair",
        "params": {"omega": 1.0, "c": 1.0, "j": 0.3, "d": 0.2, "phi": 0.3},
        "time_grid": {"start": 0.0, "stop": 10.0, "steps": 200},
        "reduction": {"method": "correlated", "tol": 1e-12, "max_iter": 10000},
        "output": {"format": "csv"},
    }
    rows = run_rows(tmp_path, cfg)
    bad = []
    for row in rows:
        # The step limit: the pair settles in the more populated of |21> and |12>.
        up, down = models.spin_pair_populations(0.3, 1.0, float(row["t"]))
        lim = 0.5 if abs(up - down) < 1e-12 else float(up > down)
        want = {"pop_alpha_0": lim, "pop_alpha_1": 1 - lim, "pop_beta_0": 1 - lim, "pop_beta_1": lim}
        if row["verdict"] != "converged" or any(abs(float(row[k]) - v) > 1e-8
                                                for k, v in want.items()):
            bad.append(row["t"])
    assert len(rows) == 200
    assert bad == []


N256_GRID = {"start": 0.0, "stop": 10.0, "steps": 10}


def test_a_pure_state_run_at_n_max_256_follows_the_rabi_oscillation(tmp_path):
    rows = run_rows(tmp_path, jcm_config(256, N256_GRID, "neumann"))
    assert len(rows) == 10
    # rabi = 1: the excited-atom population is cos^2(t / 2)
    assert [row["t"] for row in rows
            if not abs(float(row["pop_alpha_0"]) - math.cos(float(row["t"]) / 2) ** 2) <= 1e-12] == []


def test_a_large_correlated_run_converges_to_the_step_limit(tmp_path):
    p = models.JcmParams(1.0, 1.0, n_max=256)
    rows = run_rows(tmp_path, jcm_config(256, N256_GRID, "correlated"))
    assert len(rows) == 10
    assert [row["t"] for row in rows if row["verdict"] != "converged"
            or not abs(float(row["pop_alpha_0"]) - models.jcm_correlated_limit(float(row["t"]), p)[0])
            <= 1e-12] == []


def seed_alpha_file(tmp_path) -> str:
    """The path of a random full-rank 2 x 2 alpha state (seed 1), written as JSON."""
    rng = np.random.default_rng(1)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    seed = g @ g.conj().T
    seed = 0.5 * (seed + seed.conj().T) / np.trace(seed).real
    path = tmp_path / "seed-alpha.json"
    data = np.stack([seed.real.ravel(), seed.imag.ravel()], axis=1).tolist()
    path.write_text(json.dumps({"rows": 2, "cols": 2, "data": data}))
    return str(path)


@pytest.mark.parametrize("seeded", [False, True], ids=["readme", "file-seed"])
def test_the_readme_run_is_byte_identical_at_chunk_1(tmp_path, seeded):
    # The README config, and the same with a file: seed: the chunked run
    # writes the bytes of the point-by-point run, and all 200 rows converge.
    cfg = README_CONFIG
    if seeded:
        cfg = {**cfg, "reduction": {**cfg["reduction"], "seed": "file:" + seed_alpha_file(tmp_path)}}
    config = write_config(tmp_path, cfg)
    outs = []
    for chunk in (cli.CHUNK, 1):
        out = tmp_path / f"run-chunk{chunk}.csv"
        with mock.patch.object(cli, "CHUNK", chunk):
            assert cli.main(["run", "--config", config, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    lines = outs[0].decode().splitlines()
    rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
    assert len(rows) == 200
    assert [row["t"] for row in rows if row["verdict"] != "converged"] == []


def test_run_rss_does_not_grow_with_steps(tmp_path):
    # JCM vacuum, n_max = 256, Neumann, each run in a process of its own:
    # the max RSS at 5,000 steps is within 16 MiB of that at 10. os.wait4
    # gives each child's own peak; RUSAGE_CHILDREN would be the largest of
    # every child this process has waited for, other tests' children too.
    src = str(Path(corred.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    rss = {}
    for steps in (10, 5000):
        cfg = jcm_config(256, {"start": 0.0, "stop": 10.0, "steps": steps}, "neumann")
        config = tmp_path / f"rss-{steps}-config.json"
        config.write_text(json.dumps(cfg))
        out = tmp_path / f"rss-{steps}-run.csv"
        argv = [sys.executable, "-m", "corred.cli", "run", "--config", str(config), "--out", str(out)]
        pid = os.posix_spawn(sys.executable, argv, env)
        _, status, usage = os.wait4(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert len(out.read_text().splitlines()) == steps + 2
        rss[steps] = usage.ru_maxrss  # KiB
    assert (rss[5000] - rss[10]) / 1024 < 16


def test_the_library_alone_runs_from_a_copy(tmp_path):
    # A copy of src/corred outside the checkout, with no tests on the path:
    # every module imports from the copy, and decompose epr and the README
    # config run.
    lib = tmp_path / "lib"
    shutil.copytree(Path(corred.__file__).parent, lib / "corred",
                    ignore=shutil.ignore_patterns("__pycache__"))
    work = tmp_path / "work"
    work.mkdir()
    env = {**os.environ, "PYTHONPATH": str(lib)}
    imports = (
        "import importlib, pkgutil, sys, corred\n"
        "if not corred.__file__.startswith(sys.argv[1]):\n"
        "    sys.exit(f'corred imported from {corred.__file__}, not from {sys.argv[1]}')\n"
        "for m in pkgutil.iter_modules(corred.__path__, 'corred.'):\n"
        "    importlib.import_module(m.name)\n"
    )
    commands = [
        ["-c", imports, str(lib)],
        ["-m", "corred.cli", "decompose", "epr"],
        ["-m", "corred.cli", "run", "--config", write_config(work, README_CONFIG),
         "--out", str(work / "copy-run.csv")],
    ]
    for command in commands:
        proc = subprocess.run([sys.executable, *command], cwd=work, env=env,
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
    assert len((work / "copy-run.csv").read_text().splitlines()) == 202


class TestDecompose:
    def test_epr_matches(self, capsys):
        assert cli.main(["decompose", "epr", "--theta", "0.7"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["verification"]["matches"] is True
        assert len(obj["terms"]) == 4

    def test_triplet_matches(self, capsys):
        assert cli.main(["decompose", "triplet"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["verification"]["matches"] is True

    def test_spin_pair_initial_discrepancy_reported(self, capsys):
        # the printed two-term branch does not reproduce the state; without
        # --report-only the command signals the verification failure
        rc = cli.main(["decompose", "spin_pair_initial", "--phi", "0.3"])
        assert rc == 3
        out = capsys.readouterr().out
        obj = json.loads(out)
        assert obj["verification"]["matches"] is False

    def test_spin_pair_initial_report_only(self, capsys):
        rc = cli.main(
            ["decompose", "spin_pair_initial", "--phi", "0.3", "--report-only"]
        )
        assert rc == 0

    def test_spin_pair_t_tie_exits_numerical(self, capsys):
        rc = cli.main(
            ["decompose", "spin_pair_t", "--phi", "0.0", "--c", "1.0",
             "--t", str(math.pi / 4)]
        )
        assert rc == 3

    @pytest.mark.parametrize("theta", ["1e7", "-1e7", "1e300", "-1e300"])
    @pytest.mark.parametrize("kind", ["epr", "triplet", "spin_pair_initial", "spin_pair_t"])
    def test_a_large_hidden_phase_still_assembles_the_state(self, capsys, kind, theta):
        # The phase is unobservable; the quarter turns the terms add to it
        # are exact, where theta + pi / 2 would lose them to rounding.
        phi = ["--phi", str(math.pi / 4)] if kind.startswith("spin_pair") else []
        assert cli.main(["decompose", kind, f"--theta={theta}", *phi]) == 0
        assert json.loads(capsys.readouterr().out)["verification"]["max_error"] <= 1e-15


class TestValidate:
    def test_valid_state(self, tmp_path, capsys):
        path = write_state(tmp_path, "epr.json", epr_state())
        assert cli.main(["validate", path]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["valid"] is True
        assert obj["dim"] == 4
        assert obj["purity"] == pytest.approx(1.0, abs=1e-12)

    def test_invalid_state(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(mc.matrix_to_json(np.eye(2))))
        assert cli.main(["validate", str(path)]) == 2
        obj = json.loads(capsys.readouterr().out)
        assert obj["valid"] is False

    def test_non_finite_state_reason(self, tmp_path, capsys):
        m = np.eye(2) / 2
        m[0, 1] = np.nan
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(mc.matrix_to_json(m)))
        assert cli.main(["validate", str(path)]) == 2
        obj = json.loads(capsys.readouterr().out)
        assert obj["reason"] == f"{path}: density matrix has non-finite entries"

    def test_non_object_state_reported_invalid(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert cli.main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        obj = json.loads(captured.out)
        assert obj["valid"] is False
        assert "must be a JSON object, got list" in obj["reason"]
        assert captured.err == ""

    @pytest.mark.parametrize("name, valid", [
        ("size-fractional", False), ("size-bool", False), ("size-integral-float", True),
    ])
    def test_rows_and_cols_must_be_integers(self, tmp_path, capsys, name, valid):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(SIZE_FILES[name]))
        assert cli.main(["validate", str(path)]) == (0 if valid else 2)
        obj = json.loads(capsys.readouterr().out)
        assert obj["valid"] is valid
        if not valid:
            assert "rows must be an integer, got " in obj["reason"]

    @pytest.mark.parametrize("name, reason", [
        ("int-overflow", "int too large to convert to float"),
        ("deep", "maximum recursion depth exceeded"),
        ("data-bool", "data entries must be numbers"),
        ("not-utf8", "invalid JSON in "),
    ])
    def test_unreadable_number_or_depth_reported_invalid(self, tmp_path, capsys, name, reason):
        path = tmp_path / "state.json"
        write_text(path, STATE_TEXTS[name])
        assert cli.main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        obj = json.loads(captured.out)
        assert obj["valid"] is False
        assert reason in obj["reason"]
        assert captured.err == ""

    @pytest.mark.parametrize("level", ["strict", "relaxed"])
    @pytest.mark.parametrize("diagonal", [[0.75, 0.25], [1.5, -0.5]], ids=["positive", "negative"])
    def test_one_eigensolve_and_no_cholesky(self, tmp_path, capsys, monkeypatch, level, diagonal):
        m = np.diag(diagonal).astype(complex)
        path = tmp_path / "state.json"
        path.write_text(json.dumps(mc.matrix_to_json(m)))
        refused = level == "strict" and min(diagonal) < 0
        with pytest.raises(ValidationError) if refused else contextlib.nullcontext() as exc:
            dm = DensityMatrix(m, level)
        want = ({"valid": False, "reason": f"{path}: {exc.value}"} if refused else
                {"valid": True, "dim": 2, "min_eigenvalue": dm.min_eigenvalue, "purity": dm.purity()})
        calls = []
        for name in ("cholesky", "eigvalsh"):
            fn = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda *a, _name=name, _fn=fn: calls.append(_name) or _fn(*a))
        assert cli.main(["validate", str(path), "--level", level]) == (2 if refused else 0)
        assert capsys.readouterr().out == json.dumps(want) + "\n"
        assert calls == ["eigvalsh"]

    def test_relaxed_level(self, tmp_path, capsys):
        m = np.diag([1.5, -0.5])
        path = tmp_path / "neg.json"
        path.write_text(json.dumps(mc.matrix_to_json(m)))
        assert cli.main(["validate", str(path)]) == 2
        assert cli.main(["validate", str(path), "--level", "relaxed"]) == 0
        out = capsys.readouterr().out.splitlines()[-1]
        assert json.loads(out)["min_eigenvalue"] == pytest.approx(-0.5)


# One row per exit code and per class of malformed input. "{dir}" in the
# config text and in the arguments stands for the test's directory, which
# also holds a product state |00><00| (dims 2 2), the beta state |1><1|,
# whose overlap vanishes, and the state files of SIZE_FILES.
RUN = ["run", "--config", "{cfg}"]
PRODUCT = ["{dir}/product.json", "--dims", "2", "2"]
DECOMPOSE = ["decompose", "spin_pair_t"]
# State files whose rows and cols are no integer (I/2 read as 2 x 2, or [1]
# read as 1 x 1, if they were truncated), and one whose 2.0 is an integer;
# then files that parse but hold no state: a data entry that is no [re, im]
# pair, a 1 x 4 matrix and a matrix that is not hermitian.
HALF = [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]
SIZE_FILES = {
    "size-fractional": {"rows": 2.5, "cols": 2.5, "data": HALF},
    "size-bool": {"rows": True, "cols": True, "data": [[1.0, 0.0]]},
    "size-integral-float": {"rows": 2.0, "cols": 2.0, "data": HALF},
    "entry-not-pair": {"rows": 2, "cols": 2, "data": [*HALF[:3], [0.5]]},
    "not-square": {"rows": 1, "cols": 4, "data": HALF},
    "not-hermitian": {"rows": 2, "cols": 2, "data": [HALF[0], [0.25, 0.0], *HALF[2:]]},
}
# State files that json.load reads but no float holds (an integer of 401
# digits), or that json.load cannot read for their nesting depth or encoding.
STATE_TEXTS = {
    "int-overflow": '{"rows": 1, "cols": 1, "data": [[1' + "0" * 400 + ", 0]]}",
    "deep": "[" * 200_000 + "]" * 200_000,
    # JSON booleans, which would read as 1 and 0 and give trace 1.5.
    "data-bool": '{"rows": 2, "cols": 2, "data": [[0.5, 0], [0, 0], [0, 0], [true, false]]}',
    # A valid state file written as UTF-16 with its byte order mark, which
    # json.loads would take from bytes but a UTF-8 text read cannot decode.
    "not-utf8": b"\xff\xfe" + json.dumps(projector_state(4, 0).to_json()).encode("utf-16-le"),
}


def write_text(path: Path, text: str | bytes) -> None:
    path.write_bytes(text.encode() if isinstance(text, str) else text)


OVERFLOW_GRID = '{"experiment": %s, "time_grid": {"start": 0, "stop": 10, "steps": 11}}'
SPAN_OVERFLOW_GRID = '{"experiment": %s, "time_grid": {"start": -1e308, "stop": 1e308, "steps": 3}}'
# Keys that the table does not list where they stand, an output.format that
# --format overrides, and the paths of PATH_KEYS below: each exits 2 with
# one error line that names the key, before the output file is opened.
# name -> (config, flags, message)
KEY_ERRORS = {
    "n_mx": ('{"experiment": "jcm_vacuum", "params": {"n_mx": 64}}', [],
             "unknown params key 'n_mx' for experiment 'jcm_vacuum'"),
    "time_gird": ('{"experiment": "jcm_vacuum", "time_gird": {"start": 0, "stop": 10, "steps": 200}}',
                  [], "unknown config key 'time_gird'"),
    "c_coupling": ('{"experiment": "spin_pair", "params": {"c_coupling": 1.0}}', [],
                   "unknown params key 'c_coupling' for experiment 'spin_pair'"),
    "fromat": ('{"experiment": "epr", "output": {"fromat": "json"}}', [],
               "unknown output key 'fromat'"),
    "spin-pair-n_max": ('{"experiment": "spin_pair", "params": {"n_max": 4}}', [],
                        "unknown params key 'n_max' for experiment 'spin_pair'"),
    "neumann-tol": ('{"experiment": "epr", "reduction": {"method": "neumann", "tol": 1e-9}}', [],
                    "unknown reduction key 'tol' for method 'neumann'"),
    "epr-params": ('{"experiment": "epr", "params": {"omega": 1.0}}', [],
                   "unknown params key 'omega' for experiment 'epr'"),
    "format-under-flag": ('{"experiment": "epr", "output": {"format": "xml"}}', ["--format", "csv"],
                          "output.format must be 'csv' or 'json', got 'xml'"),
    # Four mistakes in one config: the first key read names the first.
    "four-mistakes": ('{"experiment": "spin_pair", "params": {"c_coupling": 1.0},'
                      ' "reduction": {"method": "neumann", "tol": 1e-9},'
                      ' "output": {"fromat": "json"}, "notes": "x"}', [],
                      "unknown config key 'notes'"),
}
# Paths that no file can have, under each key that names a file: a NUL
# character, a lone surrogate that the file system encoding refuses, and
# the empty path. ``open`` would raise ValueError, UnicodeEncodeError or
# FileNotFoundError on them; an empty output.path would write to stdout.
PATH_KEYS = {
    "output.path": ('{"experiment": "epr", "output": {"path": %s}}', ""),
    "params.state": ('{"experiment": "custom", "params": {"state": %s, "dims": [2, 2]}}', ""),
    "reduction.state": ('{"experiment": "epr", "reduction": {"method": "conditioned", "state": %s}}',
                        ""),
    "reduction.seed": ('{"experiment": "epr", "reduction": {"method": "correlated", "seed": %s}}',
                       "file:"),
}
KEY_ERRORS |= {
    f"{key}-{what}": (config % json.dumps(prefix + path), [],
                      f"{key} must be a nonempty file path, got ''" if not path else
                      f"{key} must be a file path the file system can encode, with no NUL "
                      f"character, got {path!r}")
    for key, (config, prefix) in PATH_KEYS.items()
    for what, path in (("nul", "a\u0000b"), ("surrogate", "a\ud800b"), ("empty", ""))
}
EXIT_CASES = [
    ("ok", '{"experiment": "epr"}', RUN, 0),
    ("out-empty", '{"experiment": "epr"}', [*RUN, "--out", ""], 2),
    ("params-list", '{"experiment": "spin_pair", "params": [1, 2]}', RUN, 2),
    ("time-grid-list", '{"experiment": "spin_pair", "time_grid": [1]}', RUN, 2),
    ("output-list", '{"experiment": "epr", "output": [1]}', RUN, 2),
    ("reduction-list", '{"experiment": "epr", "reduction": []}', RUN, 2),
    (
        "max-iter-overflow",
        '{"experiment": "epr", "reduction": {"method": "correlated", "max_iter": 1e400}}',
        RUN,
        2,
    ),
    (
        "stop-infinite",
        '{"experiment": "spin_pair", "time_grid": {"start": 0, "stop": Infinity, "steps": 3}}',
        RUN,
        2,
    ),
    (
        "stop-nan",
        '{"experiment": "spin_pair", "time_grid": {"start": 0, "stop": NaN, "steps": 3}}',
        RUN,
        2,
    ),
    ("steps-zero", '{"experiment": "epr", "time_grid": {"start": 0, "stop": 1, "steps": 0}}', RUN, 2),
    (
        "steps-beyond-int64",
        '{"experiment": "epr", "time_grid": {"start": 0, "stop": 1, "steps": 9223372036854775808}}',
        RUN,
        2,
    ),
    ("stop-before-start", '{"experiment": "epr", "time_grid": {"start": 1, "stop": 0, "steps": 2}}', RUN, 2),
    # A span stop - start that overflows a float.
    ("span-overflow-epr", SPAN_OVERFLOW_GRID % '"epr"', RUN, 2),
    ("span-overflow-spin-pair", SPAN_OVERFLOW_GRID % '"spin_pair"', RUN, 2),
    ("rabi-nan", '{"experiment": "jcm_vacuum", "params": {"rabi": NaN, "n_max": 2}}', RUN, 2),
    ("grid-key-missing", '{"experiment": "epr", "time_grid": {"stop": 1, "steps": 2}}', RUN, 2),
    ("custom-key-missing", '{"experiment": "custom", "params": {"dims": [2, 2]}}', RUN, 2),
    ("unknown-format", '{"experiment": "epr", "output": {"format": "xml"}}', RUN, 2),
    ("path-not-string", '{"experiment": "epr", "output": {"path": 1}}', RUN, 2),
    (
        "state-path-not-string",
        '{"experiment": "custom", "params": {"state": 0, "dims": [2, 2]}}',
        RUN,
        2,
    ),
    ("n_max-fractional", '{"experiment": "jcm_vacuum", "params": {"n_max": 2.9}}', RUN, 2),
    (
        "steps-fractional",
        '{"experiment": "epr", "time_grid": {"start": 0, "stop": 1, "steps": 3.7}}',
        RUN,
        2,
    ),
    (
        "level-fractional",
        '{"experiment": "epr", "reduction": {"method": "projective", "level": 0.6}}',
        RUN,
        2,
    ),
    (
        "dims-fractional",
        '{"experiment": "custom", "params": {"state": "{dir}/product.json", "dims": [2.5, 2]}}',
        RUN,
        2,
    ),
    (
        "max_iter-integral-float",
        '{"experiment": "epr", "reduction": {"method": "correlated", "max_iter": 1e4}}',
        RUN,
        0,
    ),
    ("c-string", '{"experiment": "spin_pair", "params": {"c": "0.5"}}', RUN, 2),
    (
        "steps-bool",
        '{"experiment": "epr", "time_grid": {"start": 0, "stop": 1, "steps": true}}',
        RUN,
        2,
    ),
    ("config-not-object", "[1, 2]", RUN, 2),
    ("bad-json", "{not json", RUN, 2),
    ("reduce-tol-nan", "{}", ["reduce", *PRODUCT, "--method", "correlated", "--tol", "nan"], 2),
    ("reduce-tol-zero", "{}", ["reduce", *PRODUCT, "--method", "correlated", "--tol", "0"], 2),
    (
        "tol-negative",
        '{"experiment": "epr", "reduction": {"method": "correlated", "tol": -1}}',
        RUN,
        2,
    ),
    ("missing-config", "{}", ["run", "--config", "{dir}/absent.json"], 4),
    ("missing-state", "{}", ["reduce", "{dir}/absent.json", "--dims", "2", "2"], 4),
    ("unwritable-output", '{"experiment": "epr", "output": {"path": "{dir}/no/out.csv"}}', RUN, 4),
    # The output section is read before the reduction section and its state file.
    (
        "bad-output-key-and-missing-state",
        '{"experiment": "epr", "output": {"bogus": 1},'
        ' "reduction": {"method": "conditioned", "state": "{dir}/absent.json"}}',
        RUN,
        2,
    ),
    (
        "degenerate-at-every-time",
        '{"experiment": "custom", "params": {"state": "{dir}/product.json", "dims": [2, 2]},'
        ' "reduction": {"method": "conditioned", "state": "{dir}/beta1.json"}}',
        RUN,
        3,
    ),
    (
        "reduce-degenerate",
        "{}",
        ["reduce", *PRODUCT, "--method", "conditioned", "--sigma", "{dir}/beta1.json"],
        3,
    ),
    (
        "decompose-tie",
        "{}",
        ["decompose", "spin_pair_t", "--phi", "0", "--c", "1", "--t", str(math.pi / 4)],
        3,
    ),
    ("decompose-c-nan", "{}", [*DECOMPOSE, "--c", "nan"], 2),
    ("decompose-t-inf", "{}", [*DECOMPOSE, "--t", "inf"], 2),
    ("decompose-omega-nan", "{}", [*DECOMPOSE, "--omega", "nan"], 2),
    ("decompose-omega-neg-inf", "{}", [*DECOMPOSE, "--omega", "-inf"], 2),
    ("decompose-omega-no-value", "{}", [*DECOMPOSE, "--omega"], 2),
    ("decompose-omega-eq-neg-inf", "{}", [*DECOMPOSE, "--omega=-inf"], 2),
    ("decompose-phi-nan", "{}", ["decompose", "spin_pair_initial", "--phi", "nan"], 2),
    ("decompose-theta-nan", "{}", ["decompose", "epr", "--theta", "nan"], 2),
    ("decompose-tol-nan", "{}", ["decompose", "epr", "--tol", "nan"], 2),
    ("decompose-tol-negative", "{}", ["decompose", "epr", "--tol", "-1"], 2),
    ("decompose-tol-zero", "{}", ["decompose", "epr", "--tol", "0"], 2),
    # CORRED_LOG (set by MOCKS) names no level: logging.BASIC_FORMAT is an
    # attribute of logging, but no level.
    ("log-basic-format", "{}", ["decompose", "epr"], 2),
    ("log-nonsense", "{}", ["decompose", "epr"], 2),
    (
        "reduce-size-fractional",
        "{}",
        ["reduce", "{dir}/size-fractional.json", "--dims", "2", "1"],
        2,
    ),
    ("reduce-size-bool", "{}", ["reduce", "{dir}/size-bool.json", "--dims", "1", "1"], 2),
    (
        "reduce-size-integral-float",
        "{}",
        ["reduce", "{dir}/size-integral-float.json", "--dims", "2", "1"],
        0,
    ),
    (
        "custom-size-fractional",
        '{"experiment": "custom",'
        ' "params": {"state": "{dir}/size-fractional.json", "dims": [2, 1]}}',
        RUN,
        2,
    ),
    (
        "custom-size-bool",
        '{"experiment": "custom", "params": {"state": "{dir}/size-bool.json", "dims": [1, 1]}}',
        RUN,
        2,
    ),
    ("reduce-int-overflow", "{}", ["reduce", "{dir}/int-overflow.json", "--dims", "1", "1"], 2),
    (
        "custom-int-overflow",
        '{"experiment": "custom", "params": {"state": "{dir}/int-overflow.json", "dims": [1, 1]}}',
        RUN,
        2,
    ),
    (
        "sigma-int-overflow",
        "{}",
        ["reduce", *PRODUCT, "--method", "conditioned", "--sigma", "{dir}/int-overflow.json"],
        2,
    ),
    (
        "seed-int-overflow",
        '{"experiment": "epr",'
        ' "reduction": {"method": "correlated", "seed": "file:{dir}/int-overflow.json"}}',
        RUN,
        2,
    ),
    ("reduce-deep", "{}", ["reduce", "{dir}/deep.json", "--dims", "1", "1"], 2),
    # Refusals of a state file that parses (STATE_ERRORS), and of dims < 1.
    ("reduce-entry-not-pair", "{}", ["reduce", "{dir}/entry-not-pair.json", "--dims", "2", "2"], 2),
    ("validate-entry-not-pair", "{}", ["validate", "{dir}/entry-not-pair.json"], 2),
    ("reduce-not-square", "{}", ["reduce", "{dir}/not-square.json", "--dims", "2", "2"], 2),
    ("validate-not-square", "{}", ["validate", "{dir}/not-square.json"], 2),
    (
        "sigma-not-hermitian",
        "{}",
        ["reduce", *PRODUCT, "--method", "conditioned", "--sigma", "{dir}/not-hermitian.json"],
        2,
    ),
    (
        "seed-not-hermitian",
        "{}",
        ["reduce", *PRODUCT, "--method", "correlated", "--seed", "file:{dir}/not-hermitian.json"],
        2,
    ),
    (
        "custom-not-hermitian",
        '{"experiment": "custom", "params": {"state": "{dir}/not-hermitian.json", "dims": [2, 1]}}',
        RUN,
        2,
    ),
    ("reduce-dims-zero-alpha", "{}", ["reduce", "{dir}/product.json", "--dims", "0", "4"], 2),
    ("reduce-dims-zero-beta", "{}", ["reduce", "{dir}/product.json", "--dims", "4", "0"], 2),
    # A negative dimension after a space reaches the dims check, as it does after 4.
    ("reduce-dims-negative-alpha", "{}", ["reduce", "{dir}/product.json", "--dims", "-1", "4"], 2),
    ("reduce-dims-negative-beta", "{}", ["reduce", "{dir}/product.json", "--dims", "4", "-1"], 2),
    ("reduce-data-bool", "{}", ["reduce", "{dir}/data-bool.json", "--dims", "2", "1"], 2),
    ("validate-data-bool", "{}", ["validate", "{dir}/data-bool.json"], 2),
    ("reduce-not-utf8", "{}", ["reduce", "{dir}/not-utf8.json", "--dims", "2", "2"], 2),
    ("validate-not-utf8", "{}", ["validate", "{dir}/not-utf8.json"], 2),
    # Dims whose levels numpy cannot allocate, checked against the state first.
    (
        "custom-dims-huge",
        '{"experiment": "custom", "params": {"state": "{dir}/product.json", "dims": [1e308, 1]}}',
        RUN,
        2,
    ),
    ("experiment-deep", '{"experiment": ' + "[" * 200_000 + "]" * 200_000 + "}", RUN, 2),
    # Phases rate * t that overflow a float from t = 2 on (grid 0, 1, ..., 10).
    ("spin-pair-omega-overflow", OVERFLOW_GRID % '"spin_pair", "params": {"omega": 1e308}', RUN, 2),
    ("spin-pair-c-overflow", OVERFLOW_GRID % '"spin_pair", "params": {"c": 1e308}', RUN, 2),
    ("spin-pair-j-overflow", OVERFLOW_GRID % '"spin_pair", "params": {"j": 1e308}', RUN, 2),
    ("jcm-rabi-overflow", OVERFLOW_GRID % '"jcm_vacuum", "params": {"rabi": 1e308, "n_max": 2}',
     RUN, 2),
    ("decompose-omega-overflow", "{}", [*DECOMPOSE, "--omega=1e308", "--t=2"], 2),
    ("decompose-c-overflow", "{}", [*DECOMPOSE, "--c=1e308", "--t=2"], 2),
    # 2 * phi overflows, though phi is finite.
    ("decompose-phi-overflow", "{}", [*DECOMPOSE, "--phi=1e308", "--t", "1"], 2),
    # A row of more field populations than a list can hold, and one that a
    # mock of its allocation finds no memory for (see MOCKS).
    ("n_max-too-big", '{"experiment": "jcm_vacuum", "params": {"n_max": 1e18}}', RUN, 2),
    ("n_max-out-of-memory", '{"experiment": "jcm_vacuum", "params": {"n_max": 1000}}', RUN, 2),
    # Reduction settings that do not fit the system (JCM n_max = 3: 2 x 4),
    # refused before the output file is opened (SETTINGS_ERRORS).
    *[(name, '{"experiment": "jcm_vacuum", "params": {"n_max": 3}, "reduction": %s}' % rcfg,
       [*RUN, "--out", "{dir}/out.csv"], 2) for name, rcfg in [
        ("run-level-out-of-range", '{"method": "projective", "level": 5}'),
        ("run-state-shape", '{"method": "conditioned", "state": "{dir}/beta1.json"}'),
        ("run-seed-shape", '{"method": "correlated", "seed": "file:{dir}/product.json"}'),
    ]],
    *[(f"key-{name}", config, [*RUN, "--out", "{dir}/out.csv", *flags], 2)
      for name, (config, flags, _) in KEY_ERRORS.items()],
]
# The error line of each refused state file, which names the file.
STATE_ERRORS = {
    "reduce-entry-not-pair": "{dir}/entry-not-pair.json: bad state file: "
                             "data entries must be [re, im] pairs",
    "reduce-not-square": "{dir}/not-square.json: density matrix must be square, got (1, 4)",
    **{f"{name}-not-hermitian": "{dir}/not-hermitian.json: density matrix is not hermitian "
                                "within tolerance" for name in ("sigma", "seed", "custom")},
}
SETTINGS_ERRORS = {
    "run-level-out-of-range": "level 5 outside [0, 4)",
    "run-state-shape": "matrix shape (2, 2) does not match dim_beta=4",
    "run-seed-shape": "matrix shape (4, 4) does not match dim_alpha=2",
}


def run_exit_case(tmp_path, capsys, config, argv) -> tuple[int, str]:
    """Exit code and stderr of one EXIT_CASES row."""
    write_state(tmp_path, "product.json", projector_state(4, 0))
    write_state(tmp_path, "beta1.json", projector_state(2, 1))
    for name, obj in SIZE_FILES.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    for name, text in STATE_TEXTS.items():
        write_text(tmp_path / f"{name}.json", text)
    cfg = tmp_path / "config.json"
    cfg.write_text(config.replace("{dir}", str(tmp_path)))
    argv = [a.replace("{cfg}", str(cfg)).replace("{dir}", str(tmp_path)) for a in argv]
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    return code, capsys.readouterr().err


def _no_memory_for_jcm_rows(n, _zeros=cli._zeros):
    """``cli._zeros``, the first allocation of a JCM run that grows with
    n_max, but out of memory for the 1001 field populations of n_max =
    1000, as it is for a huge n_max."""
    if n == 1001:
        raise MemoryError
    return _zeros(n)


#: Patches that EXIT_CASES rows run under.
MOCKS = {
    "n_max-out-of-memory": lambda: mock.patch.object(cli, "_zeros", _no_memory_for_jcm_rows),
    "log-basic-format": lambda: mock.patch.dict(os.environ, {"CORRED_LOG": "basic_format"}),
    "log-nonsense": lambda: mock.patch.dict(os.environ, {"CORRED_LOG": "nonsense"}),
}


# Rows that argparse rejects before corred sees them. Their stderr is
# argparse's usage and one "corred <cmd>: error:" line.
USAGE_ERRORS = {
    "decompose-omega-no-value": "corred decompose: error: argument --omega: expected one argument",
}


@pytest.mark.parametrize("name,config,argv,code", EXIT_CASES, ids=[c[0] for c in EXIT_CASES])
def test_exit_code_map(tmp_path, capsys, name, config, argv, code):
    with MOCKS.get(name, contextlib.nullcontext)():
        got, err = run_exit_case(tmp_path, capsys, config, argv)
    assert got == code
    if code == 0:
        assert err == ""
    elif name in USAGE_ERRORS:
        assert err.startswith("usage: corred ")
        assert err.splitlines()[-1] == USAGE_ERRORS[name]
    elif argv[0] == "validate":  # reports its verdict on stdout
        assert err == ""
    else:
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("value", ["basic_format", "BASIC_FORMAT", "warn", "10", " error"])
def test_corred_log_names_the_accepted_levels(monkeypatch, capsys, value):
    monkeypatch.setenv("CORRED_LOG", value)
    assert cli.main(["decompose", "epr"]) == 2
    assert capsys.readouterr() == ("", "error: CORRED_LOG must be 'debug', 'info', 'warning', "
                                       f"'error' or 'critical', got {value!r}\n")


@pytest.mark.parametrize("value, level", [
    ("debug", logging.DEBUG), ("Info", logging.INFO), ("WARNING", logging.WARNING),
    ("critical", logging.CRITICAL), ("error", logging.ERROR), ("", logging.ERROR), (None, logging.ERROR),
])
def test_corred_log_sets_its_level(monkeypatch, value, level):
    if value is None:
        monkeypatch.delenv("CORRED_LOG", raising=False)
    else:
        monkeypatch.setenv("CORRED_LOG", value)
    seen = []
    monkeypatch.setattr(logging, "basicConfig", lambda **kwargs: seen.append(kwargs))
    assert cli.main(["decompose", "epr"]) == 0
    assert seen == [{"level": level}]


@pytest.mark.parametrize("name", SETTINGS_ERRORS)
def test_reduction_settings_are_refused_before_the_output_is_opened(tmp_path, capsys, name):
    _, config, argv, _ = next(case for case in EXIT_CASES if case[0] == name)
    _, err = run_exit_case(tmp_path, capsys, config, argv)
    assert err == f"error: {SETTINGS_ERRORS[name]}\n"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("name", STATE_ERRORS)
def test_a_refused_state_file_is_named(tmp_path, capsys, name):
    _, config, argv, _ = next(case for case in EXIT_CASES if case[0] == name)
    _, err = run_exit_case(tmp_path, capsys, config, argv)
    assert err == f"error: {STATE_ERRORS[name]}\n".replace("{dir}", str(tmp_path))


@pytest.mark.parametrize("name", KEY_ERRORS)
def test_a_key_error_is_refused_before_the_output_is_opened(tmp_path, capsys, name):
    _, config, argv, _ = next(case for case in EXIT_CASES if case[0] == f"key-{name}")
    _, err = run_exit_case(tmp_path, capsys, config, argv)
    assert err == f"error: {KEY_ERRORS[name][2]}\n"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("key", ["n_max", "steps", "level", "dims"])
def test_fractional_integer_names_its_key(tmp_path, capsys, key):
    _, config, argv, _ = next(c for c in EXIT_CASES if c[0] == f"{key}-fractional")
    _, err = run_exit_case(tmp_path, capsys, config, argv)
    assert f"{key} must be an integer, got " in err


@pytest.mark.parametrize("case,key", [
    ("c-string", "c"),
    ("steps-bool", "steps"),
    ("decompose-c-nan", "--c"),
    ("decompose-t-inf", "--t"),
    ("decompose-omega-nan", "--omega"),
    ("decompose-omega-neg-inf", "--omega"),
    ("decompose-omega-eq-neg-inf", "--omega"),
    ("decompose-phi-nan", "--phi"),
    ("decompose-theta-nan", "--theta"),
    ("decompose-tol-nan", "--tol"),
])
def test_non_number_names_its_key(tmp_path, capsys, case, key):
    _, config, argv, _ = next(c for c in EXIT_CASES if c[0] == case)
    _, err = run_exit_case(tmp_path, capsys, config, argv)
    assert f"{key} must be a finite number, got " in err


@pytest.mark.parametrize("case,product", [
    ("spin-pair-omega-overflow", "hypot(omega, d) * t"),
    ("spin-pair-c-overflow", "c * t"),
    ("spin-pair-j-overflow", "j * t"),
    ("jcm-rabi-overflow", "rabi * t"),
    ("decompose-omega-overflow", "hypot(omega, d) * t"),
    ("decompose-c-overflow", "2 * c * t"),
])
def test_overflowing_phase_names_its_product(tmp_path, capsys, case, product):
    _, config, argv, _ = next(c for c in EXIT_CASES if c[0] == case)
    _, err = run_exit_case(tmp_path, capsys, config, argv)
    assert err == f"error: {product} overflows at t=2.0\n"


@pytest.mark.parametrize("case", ["span-overflow-epr", "span-overflow-spin-pair"])
def test_overflowing_span_is_a_bad_time_grid(tmp_path, capsys, case):
    _, config, argv, _ = next(c for c in EXIT_CASES if c[0] == case)
    _, err = run_exit_case(tmp_path, capsys, config, argv)
    assert err.startswith("error: bad time grid ")


def test_state_file_that_is_not_utf8_is_invalid_json(tmp_path, capsys):
    _, config, argv, _ = next(c for c in EXIT_CASES if c[0] == "reduce-not-utf8")
    _, err = run_exit_case(tmp_path, capsys, config, argv)
    assert err.startswith(f"error: invalid JSON in {tmp_path}/not-utf8.json: ")


@pytest.mark.parametrize("command", [["reduce", "--dims", "2", "2"], ["validate"]],
                         ids=["reduce", "validate"])
def test_state_files_are_read_as_utf8_in_an_ascii_locale(tmp_path, command):
    # a C locale whose preferred encoding is ASCII: no coercion, no UTF-8 mode
    src = str(Path(corred.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0",
           "PYTHONUTF8": "0"}
    write_text(tmp_path / "note.json", json.dumps({**epr_state().to_json(), "note": "état"},
                                                  ensure_ascii=False))
    write_text(tmp_path / "not-utf8.json", STATE_TEXTS["not-utf8"])
    codes = {}
    for name in ("note", "not-utf8"):
        proc = subprocess.run(
            [sys.executable, "-m", "corred.cli", command[0], str(tmp_path / f"{name}.json"),
             *command[1:]],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert "Traceback" not in proc.stderr
        codes[name] = proc.returncode
    assert codes == {"note": 0, "not-utf8": 2}


@pytest.fixture(scope="module")
def mutation_files(tmp_path_factory):
    """A 2 x 2 custom state, a 2 x 2 conditioning state and seed, and an output path."""
    d = tmp_path_factory.mktemp("mutations")
    rng = np.random.default_rng(7)
    return {"custom": write_state(d, "custom.json", random_density(rng, 4)),
            "sigma": write_state(d, "sigma.json", random_density(rng, 2)),
            "seed": "file:" + write_state(d, "seed.json", random_density(rng, 2)),
            "out": str(d / "out.txt")}


# A valid value of each config key by section, besides the experiment and
# method, small: n_max, steps and dims at most 8. "{name}" stands for the
# file ``name`` of mutation_files.
SMALL = st.floats(-2.0, 2.0)
CONFIG_VALUES = {
    "params": {"omega": SMALL, "j": SMALL, "c": SMALL, "d": SMALL, "phi": SMALL, "rabi": SMALL,
               "n_max": st.integers(1, 8), "state": st.just("{custom}"), "dims": st.just([2, 2])},
    "time_grid": {"start": st.floats(0.0, 1.0), "stop": st.floats(1.0, 3.0),
                  "steps": st.integers(1, 8)},
    "reduction": {"level": st.integers(0, 3),
                  "state": st.just("{sigma}"), "given_side": st.sampled_from(["alpha", "beta"]),
                  "tol": st.floats(1e-12, 1e-3), "max_iter": st.integers(1, 50),
                  "seed": st.sampled_from(["neumann", "{seed}"])},
    "output": {"format": st.sampled_from(["csv", "json"]), "path": st.sampled_from([None, "{out}"])},
}
# Values of another kind than a key's; "{out}.x" names a file that does not exist.
SWAPPED = st.sampled_from(["{out}.x", "", "a\u0000b", "a\ud800b", True, None, [1], {"k": 1}, -1, 0,
                           0.5, math.nan, math.inf])
ALL_KEYS = sorted({*cli.SECTIONS["config"], "method",
                   *(key for keys in CONFIG_VALUES.values() for key in keys)})


def test_config_values_cover_the_table():
    keys = {"params": set().union(*cli.PARAMS.values()),
            "reduction": set().union(*cli.REDUCTION.values()),
            "time_grid": set(cli.SECTIONS["time_grid"]), "output": set(cli.SECTIONS["output"])}
    assert keys == {section: set(values) for section, values in CONFIG_VALUES.items()}


@st.composite
def mutated_configs(draw):
    """(config, mutation, key): a valid config drawn from the table, with
    each optional key and section present or not, then one mutation: an
    unknown or misplaced key, a null or a value of another kind."""
    experiment = draw(st.sampled_from(list(cli.PARAMS)))
    method = draw(st.sampled_from(list(cli.REDUCTION)))

    def section(name: str, keys: dict) -> dict:
        return {key: draw(CONFIG_VALUES[name][key]) for key, (_, default) in keys.items()
                if default is cli.REQUIRED or draw(st.booleans())}

    cfg = {"experiment": experiment, "params": section("params", cli.PARAMS[experiment]),
           "time_grid": section("time_grid", cli.SECTIONS["time_grid"]),
           "reduction": {"method": method, **section("reduction", cli.REDUCTION[method])},
           "output": section("output", cli.SECTIONS["output"])}
    for name in ("params", "time_grid", "reduction", "output"):
        if not cfg[name] and draw(st.booleans()):
            del cfg[name]
    tables = {"config": cli.SECTIONS["config"], "params": cli.PARAMS[experiment],
              "time_grid": cli.SECTIONS["time_grid"],
              "reduction": {"method": cli.METHOD, **cli.REDUCTION[method]},
              "output": cli.SECTIONS["output"]}
    where = draw(st.sampled_from(["config", *(name for name in tables if name in cfg)]))
    target, listed = (cfg if where == "config" else cfg[where]), tables[where]
    mutation = draw(st.sampled_from(["unknown", "misplaced", "null", "swap", "none"]))
    key = None
    if mutation in ("unknown", "misplaced"):
        names = (st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=10)
                 if mutation == "unknown" else st.sampled_from(ALL_KEYS))
        key = draw(names.filter(lambda k: k not in listed))
        target[key] = draw(SMALL)
    elif mutation in ("null", "swap") and target:
        key = draw(st.sampled_from(sorted(target)))
        target[key] = None if mutation == "null" else draw(SWAPPED)
    return cfg, mutation, key


@settings(max_examples=200, deadline=None)
@given(mutated_configs())
@example(({"experiment": "epr", "output": {"path": "a\u0000b"}}, "swap", "path"))
def test_a_mutated_config_keeps_the_exit_code_contract(mutation_files, case):
    cfg, mutation, key = case
    text = json.dumps(cfg)
    for name, path in mutation_files.items():
        text = text.replace("{%s}" % name, path)
    config = Path(mutation_files["out"]).with_name("config.json")
    config.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["run", "--config", str(config)])
    assert code in (0, 2, 3, 4)
    if code:
        assert len(err.getvalue().splitlines()) == 1 and err.getvalue().startswith("error: ")
    if mutation in ("unknown", "misplaced"):
        assert code == 2 and f" key {key!r}" in err.getvalue()


# A valid 2 x 2 state file, and values to put in its place: of other
# kinds, not finite, and sizes that are small or at least 2**63, so that no
# mutation asks for a large allocation. Each draw is a fresh copy, so that no
# mutation stores a list or dict inside itself or changes a later example's.
STATE_FILE = {"rows": 2, "cols": 2, "kind": "density", "validation": "strict",
              "data": [[0.5, 0.0], [0.25, 0.125], [0.25, -0.125], [0.5, 0.0]]}
HUGE = st.sampled_from([2**63, 2**63 + 1, 2**64, 10**30, 9.3e18, 1e300])
STATE_VALUES = (st.sampled_from(["", "0.5", "strict", "relaxed", True, False, None, [], [1], {},
                                 {"k": 1}, -1, 0, 1, 2, 0.5, math.nan, math.inf, -math.inf])
                .map(copy.deepcopy) | HUGE)
# The command lines that read a state file "{file}": as the state, as
# sigma, as a seed, and as a custom run's state. "{config}" is a config
# file that holds a config of the row, and "{epr}" the EPR state.
STATE_FILE_PATHS = {
    "reduce": (None, ["reduce", "{file}", "--dims", "2", "1"]),
    "validate": (None, ["validate", "{file}"]),
    "sigma": (None, ["reduce", "{epr}", "--dims", "2", "2", "--method", "conditioned",
                     "--sigma", "{file}"]),
    "seed": ({"experiment": "epr", "reduction": {"method": "correlated", "seed": "file:{file}"}},
             ["run", "--config", "{config}"]),
    "custom": ({"experiment": "custom", "params": {"state": "{file}", "dims": [2, 1]},
                "time_grid": {"start": 0.0, "stop": 1.0, "steps": 2}},
               ["run", "--config", "{config}"]),
}


@st.composite
def mutated_state_files(draw):
    """``STATE_FILE`` with one to three mutations: a value swapped for one of
    another kind (the whole file, a key's, an entry's or a number's), a
    missing key, an entry that is no pair, or rows or cols small or at least
    2**63."""
    obj = json.loads(json.dumps(STATE_FILE))
    for _ in range(draw(st.integers(1, 3))):
        if not isinstance(obj, dict):
            break
        mutation = draw(st.sampled_from(["file", "key", "missing", "size", "entry", "pair", "number"]))
        cells = obj.get("data")
        if mutation in ("entry", "pair", "number") and not (isinstance(cells, list) and cells):
            mutation = "key"
        if mutation == "file":
            obj = draw(STATE_VALUES)
        elif mutation == "key":
            obj[draw(st.sampled_from(sorted(STATE_FILE)))] = draw(STATE_VALUES)
        elif mutation == "missing":
            obj.pop(draw(st.sampled_from(sorted(STATE_FILE))), None)
        elif mutation == "size":
            obj[draw(st.sampled_from(["rows", "cols"]))] = draw(st.integers(-2, 5) | HUGE)
        else:
            i = draw(st.integers(0, len(cells) - 1))
            if mutation == "entry":
                cells[i] = draw(STATE_VALUES)
            elif mutation == "pair":
                cells[i] = draw(st.lists(st.floats(-1.0, 1.0), max_size=4).filter(lambda x: len(x) != 2))
            elif isinstance(cells[i], list) and cells[i]:
                cells[i][draw(st.integers(0, len(cells[i]) - 1))] = draw(STATE_VALUES)
    return obj


@pytest.fixture(scope="module")
def state_file_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("state-files")
    write_state(d, "epr.json", epr_state())
    return d


@settings(max_examples=150, deadline=None)
@given(mutated_state_files())
def test_a_mutated_state_file_keeps_the_exit_code_contract(state_file_dir, obj):
    # Each command line that reads the file exits 0, 2, 3 or 4, raises
    # nothing out of main, and on a failure writes one "error:" line, or
    # validate's {"valid": false} report and nothing on stderr.
    d = state_file_dir
    names = {"file": str(d / "state.json"), "config": str(d / "config.json"), "epr": str(d / "epr.json")}
    (d / "state.json").write_text(json.dumps(obj))
    for name, (cfg, argv) in STATE_FILE_PATHS.items():
        if cfg is not None:
            (d / "config.json").write_text(json.dumps(cfg).replace("{file}", names["file"]))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([arg.format(**names) for arg in argv])
        assert code in (0, 2, 3, 4), name
        if name == "validate" and code == 2:
            assert err.getvalue() == "" and json.loads(out.getvalue())["valid"] is False
        elif code:
            assert len(err.getvalue().splitlines()) == 1 and err.getvalue().startswith("error: "), name


# Valid values of the command-line arguments, for ``mutated_command_lines``:
# the files in ``argv_dir`` by dest, and numbers by type, no integer above 8.
ARGV_FILES = {"config": ["{dir}/jcm.json", "{dir}/spin-pair.json", "{dir}/epr.json"],
              "out": ["{dir}/out.txt"], "state": ["{dir}/state.json"], "sigma": ["{dir}/sigma.json"],
              "seed": ["neumann", "file:{dir}/sigma.json"]}
ARGV_NUMBERS = {int: ["0", "1", "2", "8"], float: ["0.5", "1", "0", "2.5e-3", "1e-12"]}
# Values to put in a value's place: of other kinds, negative, special, or
# integers that are small or at least 2**63, so that no size is large.
ARGV_SWAPS = ["", "x", "-", "0.5", "-1", "-0", "-1e5", "-2.5E-3", "-inf", "-nan", "nan", "inf", "1e400",
              "9223372036854775808", "-9223372036854775809", "18446744073709551616", "true", "[]",
              "neumann", "file:", "file:{dir}/absent.json", "{dir}", "csv", "strict", "epr", "alpha"]
ARGV_UNKNOWN = ["--bogus", "--Config", "--dims3", "-x", "-h", "--he", "--", "--report-only=1", "--tol="]


@st.composite
def mutated_command_lines(draw):
    """A valid command line of one of the four commands (its positionals,
    required flags and some other flags, each with valid values), with one
    to three mutations: a flag or positional dropped or duplicated, an
    unknown flag added, a value swapped for one of another kind (negative,
    special or huge among them), or a flag's value glued on as --flag=value.
    """
    command = draw(st.sampled_from(list(cli.COMMANDS)))
    arguments = cli.COMMANDS[command][2]

    def values(name):
        kw = arguments[name]
        if "action" in kw:  # a switch
            return []
        pool = (ARGV_FILES.get(name.lstrip("-")) or [str(c) for c in kw.get("choices", ())]
                or ARGV_NUMBERS[kw.get("type")])
        return [draw(st.sampled_from(pool)) for _ in range(kw.get("nargs", 1))]

    flags = [name for name in arguments if name.startswith("-")]
    items = [[flag, *values(flag)] for flag in flags
             if arguments[flag].get("required") or draw(st.booleans())]
    items += [values(name) for name in arguments if name not in flags]
    for _ in range(draw(st.integers(1, 3))):
        mutation = draw(st.sampled_from(["drop", "duplicate", "unknown", "swap", "glue"]))
        at = draw(st.integers(0, len(items)))
        item = items[at] if at < len(items) else None
        if mutation == "unknown":
            items.insert(at, [draw(st.sampled_from(ARGV_UNKNOWN)), *draw(st.lists(st.sampled_from(
                ARGV_SWAPS), max_size=1))])
        elif item is None:
            continue
        elif mutation == "drop":
            del items[at]
        elif mutation == "duplicate":
            items.insert(draw(st.integers(0, len(items))), list(item))
        elif mutation == "swap":
            i = draw(st.integers(0, len(item) - 1))
            if i or not item[0].startswith("-"):
                item[i] = draw(st.sampled_from(ARGV_SWAPS))
        elif len(item) == 2 and item[0].startswith("--"):  # glue
            items[at] = [f"{item[0]}={item[1]}"]
    return [command, *itertools.chain.from_iterable(draw(st.permutations(items)))]


@pytest.fixture(scope="module")
def argv_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("argv")
    write_state(d, "state.json", DensityMatrix(np.diag([0.5, 0.25, 0.125, 0.125]).astype(complex)))
    write_state(d, "sigma.json", DensityMatrix(np.diag([0.75, 0.25]).astype(complex)))
    grid = {"start": 0.0, "stop": 1.0, "steps": 3}
    for name, experiment, params in [("jcm", "jcm_vacuum", {"n_max": 2}), ("spin-pair", "spin_pair", {}),
                                     ("epr", "epr", {})]:
        (d / f"{name}.json").write_text(json.dumps({
            "experiment": experiment, "params": params, "time_grid": grid,
            "reduction": {"method": "correlated"}}))
    return d


@settings(max_examples=300, deadline=None)
@given(mutated_command_lines())
def test_a_mutated_command_line_keeps_the_exit_code_contract(argv_dir, argv):
    # Each command line exits 0, 2, 3 or 4 and raises nothing out of main but
    # argparse's SystemExit. A failure writes one "error:" line, argparse's
    # usage and its one error line, or validate's {"valid": false} report and
    # nothing on stderr. Relative paths, an --out among them, land in argv_dir.
    argv = [arg.replace("{dir}", str(argv_dir)) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(argv_dir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's usage error or help
                code = exc.code
    finally:
        os.chdir(cwd)
    lines = err.getvalue().splitlines()
    assert code in (0, 2, 3, 4)
    if argv[0] == "validate" and code == 2 and not lines:
        assert json.loads(out.getvalue())["valid"] is False
    elif code and lines[0].startswith("usage: corred"):
        assert [line for line in lines if ": error: " in line] == lines[-1:]
        assert re.match(rf"corred( {argv[0]})?: error: ", lines[-1])
    elif code:
        assert len(lines) == 1 and lines[0].startswith("error: ")


def readme_config_table() -> dict:
    """(section, for) -> [(key, default)] from README's table of config keys."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| section | for | keys (default) |")
    rows = {}
    for line in itertools.takewhile(lambda line: line.startswith("|"), lines[start + 2:]):
        section, chosen, keys = (cell.strip() for cell in line.strip("|").split("|"))
        rows[section.strip("`"), chosen.strip("`")] = re.findall(r"`(\w+)` \(([^)]*)\)", keys)
    return rows


def test_readme_lists_the_config_table():
    def listed(keys: dict) -> list:
        return [(key, "required" if default is cli.REQUIRED else json.dumps(default))
                for key, (_, default) in keys.items()]

    assert readme_config_table() == {
        ("top level", ""): listed(cli.SECTIONS["config"]),
        **{("params", name): listed(keys) for name, keys in cli.PARAMS.items()},
        ("time_grid", ""): listed(cli.SECTIONS["time_grid"]),
        ("reduction", "every method"): listed({"method": cli.METHOD}),
        **{("reduction", name): listed(keys) for name, keys in cli.REDUCTION.items()},
        ("output", ""): listed(cli.SECTIONS["output"]),
    }


def test_huge_custom_dims_name_the_mismatch(tmp_path, capsys):
    _, config, argv, _ = next(c for c in EXIT_CASES if c[0] == "custom-dims-huge")
    _, err = run_exit_case(tmp_path, capsys, config, argv)
    assert err == f"error: matrix shape (4, 4) does not match composite dimension {int(1e308)}\n"


@pytest.mark.parametrize("text, error", [
    ('{"a": [[0.5, 0.0]]}', None),
    ("{not json", ValidationError),
    (STATE_TEXTS["deep"], ValidationError),
    (STATE_TEXTS["not-utf8"], ValidationError),
    (None, OSError),  # no file
], ids=["good", "invalid", "deep", "not-utf8", "missing"])
@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_load_json_parses_with_the_collector_paused(tmp_path, monkeypatch, text, error, enabled):
    path = tmp_path / "in.json"
    if text is not None:
        write_text(path, text)
    seen = []
    load = json.load
    monkeypatch.setattr(json, "load", lambda fh: seen.append(gc.isenabled()) or load(fh))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with pytest.raises(error) if error else contextlib.nullcontext():
            cli._load_json(str(path))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == ([] if text is None else [False])


@pytest.mark.parametrize("flag,value", [("--t", "-1e5"), ("--t", "-2.5E-3"), ("--omega", "-inf"),
                                        ("--c", "-nan"), ("--tol", "-1")])
def test_negative_value_after_a_space_reads_as_after_equals(capsys, flag, value):
    runs = []
    for argv in ([*DECOMPOSE, flag, value], [*DECOMPOSE, f"{flag}={value}"]):
        code = cli.main(argv)
        runs.append((code, *capsys.readouterr()))
    assert runs[0] == runs[1]
    code, out, err = runs[0]
    if math.isfinite(float(value)) and flag != "--tol":
        assert json.loads(out)["verification"]["tolerance"] == 1e-10
    else:
        assert (code, out) == (2, "") and err.startswith(f"error: {flag} must be ")


def test_module_entry_point_exit_status(tmp_path):
    src = str(Path(corred.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "corred.cli", "run", "--config", str(tmp_path / "absent.json")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert proc.returncode == 4
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


def test_a_state_file_tree_is_never_walked_by_the_collector(tmp_path, rng):
    # 4,096 [re, im] lists, each of which a collection during the load would walk.
    path = write_state(tmp_path, "rho.json", random_density(rng, 64))
    walked = []

    def record(phase, info):
        if phase == "start":
            walked.append(len(gc.get_objects(info["generation"])))

    was = gc.isenabled()
    gc.enable()
    gc.collect()
    gc.callbacks.append(record)
    try:
        rho = cli._load_density(path)
    finally:
        gc.callbacks.remove(record)
        (gc.enable if was else gc.disable)()
    assert rho.dim == 64
    assert max(walked, default=0) < 64 * 64


# Every command name and every flag of every command, values that look like
# flags, and tokens argparse must refuse.
PARSER_TOKENS = [
    *cli.COMMANDS,
    "--config", "--out", "--format", "--dims", "--method", "--level", "--sigma", "--given-side",
    "--tol", "--max-iter", "--seed", "--theta", "--phi", "--c", "--t", "--omega", "--report-only",
    "-1e5", "-inf", "-nan", "-1", "2", "0.5", "1e-3",
    "csv", "json", "neumann", "correlated", "strict", "relaxed", "epr", "spin_pair_t", "alpha",
    "file:s.json", "s.json",
    "--", "-h", "--help", "--he", "--conf", "--tol=-1e5", "-x", "--bogus", "bogus", "",
]


def parsed(parse, argv):
    """What ``parse(argv)`` gives: the Namespace's fields, or the SystemExit
    code, with what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


def full_parse(argv):
    """argv parsed by the full parser, its negative values glued to their
    flags first, as ``_parse`` hands a line to argparse."""
    return cli.build_parser().parse_args(cli._glue_negative_values(argv))


def assert_parsed_as_by_the_full_parser(argv):
    assert parsed(cli._parse, argv) == parsed(full_parse, argv)


def test_parser_tokens_name_every_flag():
    for command in cli.COMMANDS:
        _, out, _ = parsed(cli.build_parser().parse_args, [command, "--help"])
        assert set(re.findall(r"--[a-z-]+", out)) <= set(PARSER_TOKENS)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([[], *([name] for name in cli.COMMANDS)]),
       st.lists(st.sampled_from(PARSER_TOKENS), max_size=8))
def test_the_invoked_commands_parser_parses_as_the_full_parser(command, tokens):
    assert_parsed_as_by_the_full_parser(command + tokens)


@pytest.mark.parametrize("argv", [
    ["--help"], ["run", "--help"], ["reduce", "--help"], ["decompose", "-h"], ["validate", "--help"],
    ["run"], ["reduce", "s.json"], ["decompose"], ["validate"],  # a missing required argument
    ["run", "--config", "x", "--bogus"], ["validate", "s.json", "--bogus"],  # an unknown flag
    ["reduce", "s.json", "--dims", "2", "2", "--method", "nope"], ["decompose", "nope"],  # a bad choice
    ["--bogus"], ["--bogus", "run", "--config", "x"],  # an unknown top-level argument
    [], ["bogus"], ["Run", "--config", "x"],  # no argv, an unknown command
    ["run", "--config", "x"], ["reduce", "s.json", "--dims", "2", "2", "--tol", "-1e5"],
    ["decompose", "spin_pair_t", "--t", "-inf"], ["validate", "s.json", "--level", "relaxed"],
], ids=" ".join)
def test_parser_cases(argv):
    assert_parsed_as_by_the_full_parser(argv)


#: Values that only argparse reads, or that it refuses, for ``plain_lines``.
OTHER_VALUES = ["-1", "-1e5", "x", "", "2.5", "csv", "neumann", "--", "-h", "--con", "--config=x"]


@st.composite
def plain_lines(draw):
    """A command's name, then its positionals, its required flags and some
    of its other flags in any order, each flag followed by values of its
    type and among its choices; in half of the lines, one token is then
    added, replaced or removed."""
    command = draw(st.sampled_from(list(cli.COMMANDS)))
    arguments = cli.COMMANDS[command][2]
    typed = {int: ["2", "0", "7"], float: ["0.5", "1e-3", "inf", "2"], str: ["s.json", "x", ""]}

    def values(name):
        kw = arguments[name]
        pool = [str(c) for c in kw["choices"]] if "choices" in kw else typed[kw.get("type", str)]
        return [draw(st.sampled_from(pool)) for _ in range(0 if "action" in kw else kw.get("nargs", 1))]

    flags = [name for name in arguments if name.startswith("-")]
    items = [[flag, *values(flag)] for flag in flags
             if arguments[flag].get("required") or draw(st.booleans())]
    items += [values(name) for name in arguments if name not in flags]
    line = [command, *itertools.chain.from_iterable(draw(st.permutations(items)))]
    if draw(st.booleans()):
        at = draw(st.integers(1, len(line)))
        token = draw(st.sampled_from([*OTHER_VALUES, *flags]))
        line[at:at + draw(st.integers(0, 1))] = draw(st.sampled_from([[], [token]]))
    return line


@settings(max_examples=400, deadline=None)
@given(plain_lines())
def test_plain_lines_parse_as_by_the_full_parser(argv):
    assert_parsed_as_by_the_full_parser(argv)


@pytest.mark.parametrize("argv", [
    # The benchmark's workloads: run on a config, and reduce on a 2 x 257 state.
    ["run", "--config", "x"], ["reduce", "s.json", "--dims", "2", "257", "--method", "correlated"],
    ["run", "--format", "json", "--out", "o.csv", "--config", "x"],
    ["reduce", "s.json", "--dims", "2", "2", "--method", "correlated", "--tol", "1e-9"],
    ["reduce", "--dims", "2", "3", "s.json", "--seed", "file:s.json", "--max-iter", "5"],
    ["decompose", "spin_pair_t", "--t", "0.5", "--report-only"], ["decompose", "epr"],
    ["validate", "s.json", "--level", "relaxed"], ["validate", ""],
], ids=" ".join)
def test_a_plain_command_line_is_read_without_a_parser(monkeypatch, argv):
    want = parsed(full_parse, argv)
    monkeypatch.setattr(argparse, "ArgumentParser", None)  # no parser can be made
    assert parsed(cli._parse, argv) == want


@pytest.mark.parametrize("argv", [
    ["run"], ["run", "--conf", "x"], ["run", "--config=x"], ["run", "--config", "x", "-h"],
    ["run", "--config", "x", "--format", "xml"], ["run", "--config", "x", "y"],
    ["reduce", "s.json", "--dims", "2"], ["reduce", "s.json", "--dims", "2", "-1"],
    ["reduce", "s.json", "--dims", "2", "2", "--level", "0.5"], ["validate", "-"],
    ["decompose", "--", "epr"], ["bogus"], [],
], ids=" ".join)
def test_a_command_line_that_is_not_plain_is_left_to_argparse(argv):
    assert cli._plain(argv) is None


@settings(max_examples=300, deadline=None)
@given(plain_lines(), st.data())
def test_a_line_that_the_glue_changes_is_not_plain(line, data):
    # A negative number added or put in place of a token after the command,
    # so often after a flag: only argparse's lines need the glue, and _parse
    # glues only those.
    at = data.draw(st.integers(1, len(line)))
    number = data.draw(st.sampled_from(["-1e5", "-2.5E-3", "-inf", "-nan", "-1", "-.5"]))
    line[at:at + data.draw(st.integers(0, 1))] = [number]
    assert cli._glue_negative_values(line) == line or cli._plain(line) is None


def test_an_argument_that_plain_cannot_read_fails_loudly(monkeypatch):
    help_, func, arguments = cli.COMMANDS["validate"]
    monkeypatch.setitem(cli.COMMANDS, "validate",
                        (help_, func, {**arguments, "--verbose": {"action": "count"}}))
    with pytest.raises(TypeError, match="_plain does not read action='count'"):
        cli._plain(["validate", "s.json"])


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("argv, code, parsers", [
    # A plain command line makes no parser; any other makes the full one:
    # one top-level parser and one subparser per command.
    (["decompose", "epr"], 0, 0),
    (["decompose", "--bogus"], 2, 1 + len(cli.COMMANDS)),
    (["decompose", "--help"], 0, 1 + len(cli.COMMANDS)),
    (["decompose", "epr", "--bogus"], 2, 1 + len(cli.COMMANDS)),
], ids=["command", "usage-error", "help", "left-over-token"])
def test_main_frees_its_parsers_before_the_command_runs(monkeypatch, capsys, enabled, argv, code,
                                                         parsers):
    # A parser is a reference cycle, which only the cyclic collector frees.
    # Every parser that main makes is gone when the command function starts,
    # and the collector is on or off after main as it was before, also
    # where argparse exits. The youngest generation is collected at every
    # allocation and no older one ever, so a parser made with the collector
    # on would be promoted while it is made and outlive main.
    made, alive = [], []
    init = argparse.ArgumentParser.__init__

    def record(self, *args, **kwargs):
        made.append(weakref.ref(self))
        init(self, *args, **kwargs)

    def command(args):
        alive.extend(ref for ref in made if ref() is not None)
        return 0

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", record)
    help_, _, arguments = cli.COMMANDS["decompose"]
    monkeypatch.setitem(cli.COMMANDS, "decompose", (help_, command, arguments))
    was, thresholds = gc.isenabled(), gc.get_threshold()
    (gc.enable if enabled else gc.disable)()
    gc.set_threshold(1, 10**9, 10**9)
    try:
        try:
            got = cli.main(argv)
        except SystemExit as exc:  # argparse's usage error or help
            got = exc.code
        assert gc.isenabled() is enabled
    finally:
        gc.set_threshold(*thresholds)
        (gc.enable if was else gc.disable)()
    assert got == code
    assert len(made) == parsers
    assert alive == []


@pytest.mark.parametrize("command", [[], *([name] for name in cli.COMMANDS)], ids=str)
def test_console_help_is_the_full_parsers(command, monkeypatch, capsys):
    src = str(Path(corred.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "corred.cli", *command, "--help"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src, "COLUMNS": "80"},
        timeout=60,
    )
    monkeypatch.setenv("COLUMNS", "80")
    assert parsed(cli.build_parser().parse_args, [*command, "--help"]) == (("exit", 0), proc.stdout, "")
    assert (proc.returncode, proc.stderr) == (0, "")
