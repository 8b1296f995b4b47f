import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corred
from corred import cli, matrixcore as mc, models, reduction
from corred.states import DensityMatrix, epr_state, minimum_information_state, projector_state


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

    def test_tie_nudging_default(self, tmp_path, capsys):
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

    def test_include_ties_keeps_grid(self, tmp_path, capsys):
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


@pytest.mark.parametrize("experiment, params, populations", [
    ("jcm_vacuum", {"n_max": 64}, lambda t: (math.cos(t / 2) ** 2, math.sin(t / 2) ** 2)),
    ("spin_pair", {"c": 0.5, "phi": 0.2},
     lambda t: models.spin_pair_populations(0.2, 0.5, t)),
])
def test_pure_neumann_run_forms_no_composite_matrix(tmp_path, capsys, monkeypatch,
                                                    experiment, params, populations):
    def forbidden(*args, **kwargs):
        raise AssertionError("an N x N composite array was formed")

    for module, name in [(models, "jcm_evolution"), (models, "jcm_vacuum_density"),
                         (models, "spin_pair_density"), (mc, "projector"),
                         (np, "kron"), (np, "outer")]:
        monkeypatch.setattr(module, name, forbidden)
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
def test_tie_nudging_matches_reference(tmp_path_factory, tie_step, start_half_steps,
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


class TestReduce:
    def test_neumann_on_epr(self, tmp_path, capsys):
        path = write_state(tmp_path, "epr.json", epr_state())
        assert cli.main(["reduce", path, "--dims", "2", "2"]) == 0
        obj = json.loads(capsys.readouterr().out)
        ra = mc.matrix_from_json(obj["rho_alpha"])
        assert mc.matrices_close(ra, np.eye(2) / 2, 1e-12)
        assert obj["reconstruction_error"] == pytest.approx(0.5, abs=1e-12)

    def test_projective(self, tmp_path, capsys):
        path = write_state(tmp_path, "epr.json", epr_state())
        rc = cli.main(["reduce", path, "--dims", "2", "2",
                       "--method", "projective", "--level", "1"])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        ra = mc.matrix_from_json(obj["rho_alpha"])
        assert mc.matrices_close(ra, np.diag([1.0, 0.0]), 1e-12)

    def test_conditioned(self, tmp_path, capsys):
        path = write_state(tmp_path, "epr.json", epr_state())
        sigma = write_state(tmp_path, "sigma.json", minimum_information_state(2))
        rc = cli.main(["reduce", path, "--dims", "2", "2",
                       "--method", "conditioned", "--sigma", sigma])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        ra = mc.matrix_from_json(obj["rho_alpha"])
        assert mc.matrices_close(ra, np.eye(2) / 2, 1e-12)

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
def test_reduce_result_json_shape(tmp_path, capsys, state, argv, keys):
    write_state(tmp_path, "epr.json", epr_state())
    write_state(tmp_path, "sigma.json", minimum_information_state(2))
    write_state(tmp_path, "beta1.json", projector_state(2, 1))
    write_state(tmp_path, "faint.json", DensityMatrix(np.diag([1 - 1e-12, 0.0, 0.0, 1e-12])))
    argv = [a.replace("{dir}", str(tmp_path)) for a in argv]
    assert cli.main(["reduce", str(tmp_path / f"{state}.json"), "--dims", "2", "2", *argv]) == 0
    obj = json.loads(capsys.readouterr().out)
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
        assert obj["reason"] == "density matrix has non-finite entries"

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
# read as 1 x 1, if they were truncated), and one whose 2.0 is an integer.
HALF = [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]
SIZE_FILES = {
    "size-fractional": {"rows": 2.5, "cols": 2.5, "data": HALF},
    "size-bool": {"rows": True, "cols": True, "data": [[1.0, 0.0]]},
    "size-integral-float": {"rows": 2.0, "cols": 2.0, "data": HALF},
}
EXIT_CASES = [
    ("ok", '{"experiment": "epr"}', RUN, 0),
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
    ("decompose-phi-nan", "{}", ["decompose", "spin_pair_initial", "--phi", "nan"], 2),
    ("decompose-theta-nan", "{}", ["decompose", "epr", "--theta", "nan"], 2),
    ("decompose-tol-nan", "{}", ["decompose", "epr", "--tol", "nan"], 2),
    ("decompose-tol-negative", "{}", ["decompose", "epr", "--tol", "-1"], 2),
    ("decompose-tol-zero", "{}", ["decompose", "epr", "--tol", "0"], 2),
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
]


def run_exit_case(tmp_path, capsys, config, argv) -> tuple[int, str]:
    """Exit code and stderr of one EXIT_CASES row."""
    write_state(tmp_path, "product.json", projector_state(4, 0))
    write_state(tmp_path, "beta1.json", projector_state(2, 1))
    for name, obj in SIZE_FILES.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    cfg = tmp_path / "config.json"
    cfg.write_text(config.replace("{dir}", str(tmp_path)))
    argv = [a.replace("{cfg}", str(cfg)).replace("{dir}", str(tmp_path)) for a in argv]
    code = cli.main(argv)
    return code, capsys.readouterr().err


@pytest.mark.parametrize("config,argv,code", [c[1:] for c in EXIT_CASES],
                         ids=[c[0] for c in EXIT_CASES])
def test_exit_code_map(tmp_path, capsys, config, argv, code):
    got, err = run_exit_case(tmp_path, capsys, config, argv)
    assert got == code
    if code == 0:
        assert err == ""
    else:
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


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
    ("decompose-phi-nan", "--phi"),
    ("decompose-theta-nan", "--theta"),
    ("decompose-tol-nan", "--tol"),
])
def test_non_number_names_its_key(tmp_path, capsys, case, key):
    _, config, argv, _ = next(c for c in EXIT_CASES if c[0] == case)
    _, err = run_exit_case(tmp_path, capsys, config, argv)
    assert f"{key} must be a finite number, got " in err


def test_module_entry_point_exit_status(tmp_path):
    src = str(Path(corred.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "corred.cli", "run", "--config", str(tmp_path / "absent.json")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert proc.returncode == 4
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
