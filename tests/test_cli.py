import hashlib
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import gmdiff.cli
import gmdiff.metrics
import gmdiff.solvers
from gmdiff.cli import main
from gmdiff.fileio import save_spec
from gmdiff.mixture import validate_spec
from gmdiff.suite import standard_mixture_1d, standard_normal_spec

from conftest import glibc_only, minor_faults


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "anchor.json"
    save_spec(standard_mixture_1d(), path)
    return str(path)


@pytest.fixture
def normal_spec_file(tmp_path):
    path = tmp_path / "normal.json"
    save_spec(standard_normal_spec(1), path)
    return str(path)


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _one_component_spec(**field):
    return {"dim": 1, "components": [{"weight": 1.0, "mean": [0.0], "cov": [[1.0]], **field}]}


class TestBoundsCommand:
    def test_standard_normal_report(self, normal_spec_file, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["bounds", "--spec", normal_spec_file, "--out", str(out),
                   "--seed", "1", "--t-list", "0.5", "1.0"])
        assert rc == 0
        reports = json.loads((out / "bounds.json").read_text())
        assert [r["t"] for r in reports] == [0.0, 0.5, 1.0]
        assert reports[0]["kl_upper"] == pytest.approx(0.0, abs=1e-12)
        assert reports[0]["M2"] == pytest.approx(1.0)
        assert "heuristic step count" in capsys.readouterr().out

    def test_anchor_spec_golden_report(self, tmp_path):
        # regenerated worked example from the README (seed 1, t = 0)
        repo_spec = Path(__file__).resolve().parents[1] / "specs" / "standard_mixture_1d.json"
        out = tmp_path / "out"
        rc = main(["bounds", "--spec", str(repo_spec), "--out", str(out),
                   "--seed", "1"])
        assert rc == 0
        rep = json.loads((out / "bounds.json").read_text())[0]
        assert rep["M2"] == pytest.approx(4.25, rel=1e-12)
        assert rep["m2"] == pytest.approx(2.0615528128088303, rel=1e-12)
        assert rep["kl_upper"] == pytest.approx(2.3181471805599454, rel=1e-12)
        assert rep["sigma_min"] == pytest.approx(0.25, rel=1e-12)
        assert rep["log_L"] == pytest.approx(15.570747303736757, rel=1e-9)

    @staticmethod
    def _reject_non_standard_constant(name):
        raise ValueError(f"bounds.json is not strict JSON: it holds {name}")

    @pytest.mark.parametrize("d", [200, 400])
    def test_high_dimension_report_stays_finite_in_log_space(self, tmp_path, capsys, d):
        # at d = 200 L^2 overflows; at d = 400 L itself does, but log L never
        spec = tmp_path / "normal.json"
        save_spec(standard_normal_spec(d), spec)
        out = tmp_path / "out"
        rc = main(["bounds", "--spec", str(spec), "--out", str(out), "--seed", "1"])
        assert rc == 0
        rep = json.loads((out / "bounds.json").read_text(),
                         parse_constant=self._reject_non_standard_constant)[0]
        assert math.isfinite(rep["log_L"])
        # past the double range L is written as null, keeping the file strict JSON
        assert rep["L"] == (None if d == 400 else pytest.approx(math.exp(rep["log_L"])))
        assert "heuristic step count" in capsys.readouterr().out

    def test_underflowing_determinant_report(self, tmp_path, capsys):
        # 0.01 I at d = 400: the determinant e^-1842 is 0 in doubles, its log is not
        spec = tmp_path / "tight.json"
        save_spec(validate_spec([(1.0, np.zeros(400), 0.01 * np.eye(400))]), spec)
        out = tmp_path / "out"
        rc = main(["bounds", "--spec", str(spec), "--out", str(out), "--seed", "1"])
        assert rc == 0
        rep = json.loads((out / "bounds.json").read_text(),
                         parse_constant=self._reject_non_standard_constant)[0]
        assert math.isfinite(rep["log_L"])
        assert rep["log_det_min"] == pytest.approx(400 * math.log(0.01), rel=1e-12)
        assert rep["det_min"] == 0.0
        assert "heuristic step count" in capsys.readouterr().out

    def test_overflowing_determinant_written_as_null(self, tmp_path):
        # 1e300 I at d = 3: the determinant e^2072 is past the double range
        spec = tmp_path / "wide.json"
        spec.write_text(json.dumps([[1.0, [0.0] * 3, (1e300 * np.eye(3)).tolist()]]))
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["bounds", "--spec", str(spec), "--out", str(out), "--seed", "1"])
        assert rc == 0
        rep = json.loads((out / "bounds.json").read_text(),
                         parse_constant=self._reject_non_standard_constant)[0]
        assert rep["det_min"] is None
        assert rep["log_det_min"] == pytest.approx(3 * math.log(1e300), rel=1e-12)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_overflowing_region_distance_exit_2_without_output(self, tmp_path, capsys):
        # a valid spec whose squared distances to the mean overflow: R was
        # written as 1.0 from a NaN percentile
        bad = tmp_path / "wide.json"
        bad.write_text(json.dumps([[1.0, [0.0], [[8e307]]]]))
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["bounds", "--spec", str(bad), "--out", str(out), "--seed", "1"])
        assert rc == 2
        assert "region calibration overflows the double range" in capsys.readouterr().err
        assert not (out / "bounds.json").exists() and not (out / "run.meta.json").exists()
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_malformed_covariance_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "dim": 2,
            "components": [
                {"weight": 1.0, "mean": [0.0, 0.0], "cov": [[1.0, 2.0], [2.0, 1.0]]}
            ],
        }))
        rc = main(["bounds", "--spec", str(bad), "--out", str(tmp_path / "o"),
                   "--seed", "1"])
        assert rc == 2
        assert "component 0" in capsys.readouterr().err

    @pytest.mark.parametrize("raw, where", [
        (True, "a spec is"), (None, "a spec is"), (-1, "a spec is"), ([1e308], "a spec is"),
        (_one_component_spec(weight=None), "component 0: weight"),
        (_one_component_spec(weight=[[1.0]]), "component 0: weight"),
        (_one_component_spec(mean={}), "component 0: mean"),
        (_one_component_spec(cov={}), "component 0: cov"),
        ({**_one_component_spec(), "dim": [1]}, "declared dim [1]"),
        ([[1.0, [0.0]]], "component 0: expected a (weight, mean, cov) triple"),
        (["ab"], "component 0: expected a (weight, mean, cov) triple"),
        ([[1.0, [0.0], [[1.0]]], [0.5, [0.0], [[1.0]], 7]],
         "component 1: expected a (weight, mean, cov) triple"),
        ({"dim": 1, "components": [{"weight": 1.0, "cov": [[1.0]]}]},
         "component 0: missing field 'mean'"),
        ([[1.0, [1e200], [[1.0]]]], "component 0: |mean|^2 + tr(cov) overflows"),
        ([[1.0, [0.0, 0.0], [[1e308, 0.0], [0.0, 1e293]]]],
         "component 0: cov (symmetrized) overflows"),
        # each component passes; the KL bound's d sigma_max + mu_max does not
        ([[0.5, [1.3e154], [[1.0]]], [0.5, [0.0], [[8.9e307]]]],
         "component 1: d * largest cov eigenvalue + largest |mean|^2 overflows"),
    ], ids=["true", "null", "-1", "[1e308]", "weight-null", "weight-nested",
            "mean-object", "cov-object", "dim-list", "pair", "string", "four-items",
            "mean-missing", "mean-1e200", "cov-1e308", "kl-across-components"])
    def test_malformed_spec_exit_2_without_output(self, tmp_path, capsys, raw, where):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        out = tmp_path / "o"
        rc = main(["bounds", "--spec", str(bad), "--out", str(out), "--seed", "1"])
        assert rc == 2
        assert where in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cov", [
        # v v^T for v = (0.7, 0.2): rank 1, but a Cholesky of the float product
        # succeeds, and the report certified L = 1.25e52
        [[0.48999999999999994, 0.13999999999999999],
         [0.13999999999999999, 0.04000000000000001]],
        # subnormal: its precision overflows
        [[1e-310]],
    ], ids=["rank-one", "subnormal"])
    def test_singular_covariance_exit_2_without_output(self, tmp_path, capsys, cov):
        bad = tmp_path / "singular.json"
        bad.write_text(json.dumps([[1.0, [0.0] * len(cov), cov]]))
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["bounds", "--spec", str(bad), "--out", str(out), "--seed", "1"])
        assert rc == 2
        assert "component 0: covariance is not positive definite" in capsys.readouterr().err
        assert not out.exists()
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_nan_weight_exit_2_without_samples(self, tmp_path, capsys):
        bad = tmp_path / "nan.json"
        # json.dumps writes the literal NaN, which json.loads accepts
        bad.write_text(json.dumps({
            "dim": 1,
            "components": [
                {"weight": 0.5, "mean": [0.0], "cov": [[1.0]]},
                {"weight": float("nan"), "mean": [1.0], "cov": [[1.0]]},
            ],
        }))
        out = tmp_path / "o"
        rc = main(["sample", "--spec", str(bad), "--out", str(out), "--seed", "1",
                   "--N", "8", "--n", "10"])
        assert rc == 2
        assert "finite" in capsys.readouterr().err
        assert not (out / "samples.csv").exists()

    @pytest.mark.parametrize("eps", ["nan", "inf", "0", "-1"])
    def test_bad_eps_exit_2_before_any_work(self, normal_spec_file, tmp_path, capsys, eps):
        out = tmp_path / "o"
        rc = main(["bounds", "--spec", normal_spec_file, "--out", str(out),
                   "--seed", "1", "--eps", eps])
        assert rc == 2
        assert "--eps must be positive and finite" in capsys.readouterr().err
        assert not (out / "bounds.json").exists()
        assert not (out / "run.meta.json").exists()

    def test_missing_spec_exit_2(self, tmp_path):
        rc = main(["bounds", "--spec", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "o"), "--seed", "1"])
        assert rc == 2


class TestSampleCommand:
    def test_non_finite_sample_csv_exit_2(self, spec_file, tmp_path, monkeypatch, capsys):
        # no command reads a sample CSV itself, so the sampler is replaced by
        # a read of a CSV holding a NaN cell; its error must map to exit 2
        from gmdiff.samples import SampleBatch

        csv = tmp_path / "bad.csv"
        csv.write_text("x0\n0.5\nnan\n")
        monkeypatch.setattr(gmdiff.cli, "run_sampler",
                            lambda *args, **kwargs: SampleBatch.from_csv(csv))
        out = tmp_path / "o"
        rc = main(["sample", "--spec", spec_file, "--out", str(out), "--seed", "1",
                   "--N", "8", "--n", "10", "--solver", "ei"])
        assert rc == 2
        assert "non-finite" in capsys.readouterr().err
        assert not (out / "samples.csv").exists()

    def test_writes_csv_and_meta(self, spec_file, tmp_path):
        out = tmp_path / "run"
        rc = main(["sample", "--spec", spec_file, "--out", str(out),
                   "--solver", "ei", "--T", "4", "--N", "64", "--n", "500",
                   "--seed", "7"])
        assert rc == 0
        assert (out / "samples.csv").exists()
        meta = json.loads((out / "samples.meta.json").read_text())
        assert meta["config"]["seed"] == 7
        assert meta["config"]["epsilon0"] == 0.0
        run_meta = json.loads((out / "run.meta.json").read_text())
        assert run_meta["command"] == "sample"

    def test_epsilon0_recorded(self, spec_file, tmp_path):
        out = tmp_path / "run"
        main(["sample", "--spec", spec_file, "--out", str(out), "--N", "16",
              "--n", "50", "--seed", "3", "--epsilon0", "0.1"])
        meta = json.loads((out / "samples.meta.json").read_text())
        assert meta["epsilon0"] == 0.1

    def test_rerun_is_byte_identical(self, spec_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["sample", "--spec", spec_file, "--solver", "em", "--T", "3",
                "--N", "32", "--n", "400", "--seed", "11"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert sha256(out1 / "samples.csv") == sha256(out2 / "samples.csv")

    def test_replay_from_metadata(self, spec_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["sample", "--spec", spec_file, "--out", str(out1), "--N", "32",
              "--n", "300", "--seed", "9"])
        rc = main(["replay", str(out1 / "run.meta.json"), "--out", str(out2)])
        assert rc == 0
        assert sha256(out1 / "samples.csv") == sha256(out2 / "samples.csv")

    def test_recorded_threads_replay_byte_identical(self, spec_file, tmp_path):
        """A run.meta.json that still carries a threads value replays."""
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["sample", "--spec", spec_file, "--out", str(out1), "--N", "32",
                     "--n", "300", "--seed", "9"]) == 0
        meta = json.loads((out1 / "run.meta.json").read_text())
        meta["config"]["threads"] = 4
        (tmp_path / "threads.json").write_text(json.dumps(meta))
        assert main(["replay", str(tmp_path / "threads.json"), "--out", str(out2)]) == 0
        assert sha256(out1 / "samples.csv") == sha256(out2 / "samples.csv")

    def test_predictor_corrector_solvers(self, spec_file, tmp_path):
        for solver in ("dpom", "dpum"):
            out = tmp_path / solver
            rc = main(["sample", "--spec", spec_file, "--out", str(out),
                       "--solver", solver, "--T", "2", "--N", "32",
                       "--n", "200", "--seed", "5"])
            assert rc == 0
            meta = json.loads((out / "samples.meta.json").read_text())
            assert meta["solver"] == solver

    @pytest.mark.parametrize("solver", ["dpom", "dpum"])
    @pytest.mark.parametrize("args, name", [
        (["--T", "inf"], "T must be"),
        (["--T", "nan"], "T must be"),
        (["--friction", "-1"], "friction"),
        (["--friction", "nan"], "friction"),
        (["--n", "0"], "n must be"),
        (["--h-corr", "inf"], "h_corr"),
        (["--h-pred", "nan"], "h_pred"),
        (["--h-pred", "1e-300"], "h_pred=1e-300 needs"),
        (["--N", "0"], "--N must be >= 1"),
    ])
    def test_bad_predictor_corrector_argument_exit_2(self, spec_file, tmp_path, capsys,
                                                     solver, args, name):
        out = tmp_path / "o"
        rc = main(["sample", "--spec", spec_file, "--out", str(out), "--seed", "1",
                   "--solver", solver, "--N", "8", "--n", "10"] + args)
        assert rc == 2
        assert name in capsys.readouterr().err
        assert not (out / "samples.csv").exists()
        assert not (out / "run.meta.json").exists()

    @pytest.mark.parametrize("solver", ["dpom", "dpum"])
    def test_huge_corr_steps_exit_2_before_the_loop(self, spec_file, tmp_path, capsys,
                                                    monkeypatch, solver):
        # a loop of 10^11 corrector steps per node would run until killed
        def loop(*args, **kwargs):
            raise AssertionError("the sampler loop started")

        monkeypatch.setattr(gmdiff.solvers, "_reverse_loop", loop)
        out = tmp_path / "o"
        rc = main(["sample", "--spec", spec_file, "--out", str(out), "--seed", "1",
                   "--solver", solver, "--corr-steps", "100000000000", "--n", "5", "--N", "2"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "corr_steps_per_node=100000000000" in err and "200000000000" in err
        assert not (out / "run.meta.json").exists()

    @pytest.mark.parametrize("args, name", [
        (["--solver", "ei", "--N", "-1"], "--N must be >= 1"),
        (["--solver", "ei", "--epsilon0", "nan"], "epsilon0 must be finite"),
        (["--solver", "em", "--epsilon0", "inf"], "epsilon0 must be finite"),
        # flags EI does not read are checked all the same
        (["--solver", "ei", "--K", "nan"], "K must be positive and finite"),
        (["--solver", "ei", "--K", "-1"], "K must be positive and finite"),
        (["--solver", "ei", "--h-pred", "nan"], "h_pred must be positive and finite"),
        (["--solver", "ei", "--friction", "-1"], "friction must be finite and >= 0"),
        (["--solver", "ei", "--corr-steps", "-5"], "corr_steps_per_node must be >= 0"),
    ])
    def test_bad_sampler_argument_exit_2(self, spec_file, tmp_path, capsys, args, name):
        out = tmp_path / "o"
        rc = main(["sample", "--spec", spec_file, "--out", str(out), "--seed", "1",
                   "--N", "8", "--n", "10"] + args)
        assert rc == 2
        assert name in capsys.readouterr().err
        assert not (out / "samples.csv").exists()
        assert not (out / "run.meta.json").exists()

    def test_expdecay_schedule(self, spec_file, tmp_path):
        out = tmp_path / "run"
        rc = main(["sample", "--spec", spec_file, "--out", str(out),
                   "--schedule", "expdecay", "--T", "4", "--N", "4096",
                   "--n", "100", "--seed", "2"])
        assert rc == 0

    @staticmethod
    def _no_bound_report(*args, **kwargs):
        raise AssertionError("bound_report ran before the grid arguments were checked")

    def test_expdecay_zero_budget_constant_exit_2(self, spec_file, tmp_path, capsys,
                                                   monkeypatch):
        monkeypatch.setattr(gmdiff.cli, "bound_report", self._no_bound_report)
        out = tmp_path / "run"
        rc = main(["sample", "--spec", spec_file, "--out", str(out),
                   "--schedule", "expdecay", "--K", "0", "--n", "10", "--seed", "2"])
        assert rc == 2
        assert "K must be positive and finite" in capsys.readouterr().err
        assert not (out / "samples.csv").exists()

    @pytest.mark.parametrize("args, name", [
        (["--K", "nan"], "K must be positive and finite"),
        (["--T", "inf"], "horizon T must be positive and finite"),
        (["--delta", "6", "--T", "6"], "delta must lie in [0, T)"),
    ], ids=["K-nan", "T-inf", "delta-is-T"])
    def test_expdecay_bad_grid_argument_exit_2_before_report(self, spec_file, tmp_path,
                                                            capsys, monkeypatch, args, name):
        monkeypatch.setattr(gmdiff.cli, "bound_report", self._no_bound_report)
        out = tmp_path / "run"
        rc = main(["sample", "--spec", spec_file, "--out", str(out), "--schedule",
                   "expdecay", "--n", "10", "--seed", "2"] + args)
        assert rc == 2
        assert name in capsys.readouterr().err
        assert not (out / "samples.csv").exists()

    def test_expdecay_past_double_range_exit_2(self, tmp_path, capsys):
        # L = e^{log L} is inf for a d = 400 standard normal
        spec = tmp_path / "normal.json"
        save_spec(standard_normal_spec(400), spec)
        out = tmp_path / "run"
        rc = main(["sample", "--spec", str(spec), "--out", str(out),
                   "--schedule", "expdecay", "--n", "10", "--seed", "2"])
        assert rc == 2
        assert "Lipschitz constant must be finite" in capsys.readouterr().err
        assert not (out / "samples.csv").exists()

    def test_divergence_exits_3(self, spec_file, tmp_path, capsys):
        rc = main(["sample", "--spec", spec_file, "--out", str(tmp_path / "d"),
                   "--solver", "em", "--T", "2", "--N", "8", "--n", "20",
                   "--seed", "1", "--epsilon0", "1e9"])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err


    def test_unexpected_error_exits_4(self, spec_file, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(gmdiff.cli, "run_sampler", broken)
        rc = main(["sample", "--spec", spec_file, "--out", str(tmp_path / "x"),
                   "--n", "10", "--N", "4", "--seed", "1"])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("internal error: RuntimeError: boom")
        assert err.count("\n") == 1


@pytest.mark.parametrize("command", [["sample"], ["verify", "score"]])
def test_negative_seed_exit_2_before_any_output(spec_file, tmp_path, capsys, command):
    out = tmp_path / "o"
    rc = main(command + ["--spec", spec_file, "--out", str(out), "--seed", "-1"])
    assert rc == 2
    assert "--seed must be a non-negative integer" in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_in_replayed_config_exit_2(spec_file, tmp_path, capsys):
    out = tmp_path / "o"
    meta = tmp_path / "run.meta.json"
    meta.write_text(json.dumps({"command": "sample", "config": {
        "command": "sample", "spec": spec_file, "out": str(out), "seed": -1}}))
    assert main(["replay", str(meta)]) == 2
    assert "--seed must be a non-negative integer" in capsys.readouterr().err
    assert not out.exists()


def _replay_config(tmp_path, spec_file, **config):
    """Replay a run.meta.json whose sample config holds config; return the
    exit code and the output directory it names."""
    out = tmp_path / "o"
    meta = tmp_path / "run.meta.json"
    meta.write_text(json.dumps({"command": "sample", "config": {
        "command": "sample", "spec": spec_file, "out": str(out), "seed": 1,
        "N": 4, "n": 10, **config}}))
    return main(["replay", str(meta)]), out


def test_unknown_key_in_replayed_config_exit_2(spec_file, tmp_path, capsys):
    rc, out = _replay_config(tmp_path, spec_file, trace=1)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "trace" in err
    assert not out.exists()


def test_missing_key_in_replayed_config_exit_2(spec_file, tmp_path, capsys):
    """A sweep recorded without T must not run at the sample default of 6."""
    out = tmp_path / "sw"
    assert main(["sweep", "N", "--spec", spec_file, "--out", str(out), "--values", "2", "4",
                 "8", "16", "--n", "20", "--bins", "10", "--seed", "1"]) == 0
    meta = json.loads((out / "run.meta.json").read_text())
    del meta["config"]["T"]
    (tmp_path / "noT.json").write_text(json.dumps(meta))
    again = tmp_path / "again"
    assert main(["replay", str(tmp_path / "noT.json"), "--out", str(again)]) == 2
    assert capsys.readouterr().err == f"error: {tmp_path / 'noT.json'}: config is missing T\n"
    assert not again.exists()


@pytest.mark.parametrize("text", ["{}", "[]", '{"command": "sample"}'])
def test_replayed_file_without_config_exit_2(tmp_path, capsys, text):
    meta = tmp_path / "run.meta.json"
    meta.write_text(text)
    assert main(["replay", str(meta)]) == 2
    assert capsys.readouterr().err == f"error: {meta}: no 'config' key to replay\n"


def test_fractional_seed_in_replayed_config_exit_2(spec_file, tmp_path, capsys):
    rc, out = _replay_config(tmp_path, spec_file, seed=1.5)
    assert rc == 2
    assert "--seed must be a non-negative integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config, key", [
    ({"solver": "xx"}, "solver"),
    ({"schedule": "xx"}, "schedule"),
    ({"solver": "EI"}, "solver"),
    ({"command": "verify", "suite": "xx"}, "suite"),
    ({"command": "sweep", "axis": "xx", "values": [1, 2, 4, 8]}, "axis"),
    # a sample solver the sweep parser does not offer
    ({"command": "sweep", "solver": "dpum", "values": [1, 2, 4, 8]}, "solver"),
    ({"command": "xx"}, "command"),
])
def test_out_of_choice_value_in_replayed_config_exit_2(spec_file, tmp_path, capsys,
                                                        config, key):
    """argparse's choices are checked again on replay: no fall-through to
    another solver or schedule."""
    rc, out = _replay_config(tmp_path, spec_file, **config)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be one of ")
    assert not out.exists()


@pytest.mark.parametrize("argv, time", [
    (["sample", "--T", "800", "--n", "50", "--N", "4"], "800.0"),
    (["sample", "--T", "1e300", "--n", "50", "--N", "4"], "1e+300"),
    (["bounds", "--t-list", "800"], "800.0"),
])
def test_horizon_past_scale_underflow_exit_2(spec_file, tmp_path, capsys, argv, time):
    out = tmp_path / "o"
    rc = main([*argv, "--spec", spec_file, "--out", str(out), "--seed", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: time {time}: ")
    assert "underflows to 0 past t of about 745.1" in err
    assert not (out / "run.meta.json").exists()


def test_horizon_with_subnormal_scale_runs(spec_file, tmp_path):
    """a(740) = 4.2e-322 is subnormal but positive: the run is valid."""
    out = tmp_path / "o"
    assert main(["sample", "--spec", spec_file, "--out", str(out), "--seed", "1",
                 "--T", "740", "--n", "50", "--N", "1024"]) == 0
    assert (out / "run.meta.json").exists()


@pytest.mark.parametrize("argv, named", [
    # 1e300 passes the integer check, so the grid itself refuses it
    (["sweep", "N", "--values", "1e300", "2", "3", "4", "--n", "50"], "N=1000000000"),
    (["sample", "--N", str(2 ** 63), "--n", "50"], f"N={2 ** 63}"),
    (["sample", "--N", str(2 ** 64), "--n", "50"], f"N={2 ** 64}"),
])
def test_grid_past_numpy_size_limit_names_n(spec_file, tmp_path, capsys, argv, named):
    """More than 2^63 grid points: numpy refuses before allocating, and the
    error names N rather than numpy's size limit alone."""
    out = tmp_path / "o"
    rc = main([*argv, "--spec", spec_file, "--out", str(out), "--seed", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}") and "more than can be allocated" in err
    assert not (out / "run.meta.json").exists()


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_sweep_threads_below_one_exit_2(spec_file, tmp_path, capsys, threads):
    out = tmp_path / "o"
    rc = main(["sweep", "N", "--spec", spec_file, "--out", str(out), "--values", "8", "16",
               "--T", "4", "--n", "100", "--seed", "1", "--threads", threads])
    assert rc == 2
    assert "--threads must be an integer >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_threads_below_one_in_replayed_config_exit_2(spec_file, tmp_path, capsys):
    rc, out = _replay_config(tmp_path, spec_file, threads=0)
    assert rc == 2
    assert "--threads must be an integer >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["bounds"], ["sample"], ["verify", "score"]])
def test_threads_is_a_sweep_flag_only(spec_file, tmp_path, command):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--spec", spec_file, "--out", str(tmp_path / "o"),
                        "--threads", "2"])
    assert exc.value.code == 2


class TestKeepFreedHeap:
    @staticmethod
    def _sample_faults(spec_file, out, N, **env):
        """Minor page faults of one `gmdiff sample` call in a fresh process."""
        code = ("with contextlib.redirect_stdout(io.StringIO()):\n"
                "    rc = main(sys.argv[1:])\n"
                "assert rc == 0, rc")
        argv = ["sample", "--spec", spec_file, "--out", out, "--solver", "ei",
                "--T", "6", "--n", "12000", "--N", N, "--epsilon0", "0.1",
                "--seed", "1"]
        return minor_faults("import contextlib, io\nfrom gmdiff.cli import main",
                            code, *argv, **env)

    @glibc_only
    def test_sampler_steps_do_not_refault_the_heap(self, spec_file, tmp_path):
        # the difference of two runs cancels imports, set-up and the CSV write;
        # glibc's dynamic trimming costs about 136 faults per step here
        low = self._sample_faults(spec_file, tmp_path / "low", 64)
        high = self._sample_faults(spec_file, tmp_path / "high", 320)
        assert (high - low) / 256 < 10, (low, high)

    @glibc_only
    @pytest.mark.parametrize("name, value", [
        ("MALLOC_TRIM_THRESHOLD_", "131072"),
        ("MALLOC_MMAP_THRESHOLD_", "131072"),
        ("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=131072"),
    ])
    def test_user_setting_leaves_allocator_alone(self, spec_file, tmp_path, name, value):
        # a threshold the user set switches glibc's dynamic rule off, so the
        # steps fault again (about 360 per step)
        low = self._sample_faults(spec_file, tmp_path / "low", 64, **{name: value})
        high = self._sample_faults(spec_file, tmp_path / "high", 320, **{name: value})
        assert (high - low) / 256 > 50, (low, high)


class TestVerifyCommand:
    def test_score_suite_passes(self, spec_file, tmp_path):
        out = tmp_path / "v"
        rc = main(["verify", "score", "--spec", spec_file, "--out", str(out),
                   "--seed", "1"])
        assert rc == 0
        checks = json.loads((out / "verify.json").read_text())
        assert all(c["passed"] for c in checks)
        assert {"check", "measured", "threshold", "passed"} <= set(checks[0])

    def test_lipschitz_suite_on_standard_normal(self, normal_spec_file, tmp_path):
        rc = main(["verify", "lipschitz", "--spec", normal_spec_file,
                   "--out", str(tmp_path / "v"), "--seed", "1"])
        assert rc == 0

    def test_mixture_suite(self, spec_file, tmp_path):
        rc = main(["verify", "mixture", "--spec", spec_file,
                   "--out", str(tmp_path / "v"), "--seed", "1", "--T", "1.5"])
        assert rc == 0

    def test_seed_reaches_the_suite_and_replays(self, spec_file, tmp_path):
        measured = []
        for seed in ("1", "2"):
            out = tmp_path / seed
            assert main(["verify", "mixture", "--spec", spec_file, "--out", str(out),
                         "--seed", seed]) == 0
            measured.append([c["measured"] for c in
                             json.loads((out / "verify.json").read_text())])
        assert all(a != b for a, b in zip(*measured))
        again = tmp_path / "again"
        assert main(["replay", str(tmp_path / "2" / "run.meta.json"),
                     "--out", str(again)]) == 0
        assert sha256(again / "verify.json") == sha256(tmp_path / "2" / "verify.json")

    def test_failed_check_exits_1_and_records_the_run(self, spec_file, tmp_path,
                                                      monkeypatch, capsys):
        from gmdiff.verify import CheckResult

        monkeypatch.setitem(gmdiff.cli.SUITES, "score", lambda *args, **kwargs: [
            CheckResult("always_fails", 2.0, 1.0, False)])
        out = tmp_path / "v"
        rc = main(["verify", "score", "--spec", spec_file, "--out", str(out),
                   "--seed", "1"])
        assert rc == 1
        assert "[FAIL] always_fails" in capsys.readouterr().out
        assert json.loads((out / "run.meta.json").read_text())["command"] == "verify"


class TestSweepCommand:
    def test_single_value_sweep_rejected(self, spec_file, tmp_path, capsys):
        out = tmp_path / "s"
        rc = main(["sweep", "N", "--spec", spec_file, "--out", str(out),
                   "--values", "64", "--seed", "1"])
        assert rc == 2
        assert "sweep needs at least 4 values" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()
        assert not (out / "run.meta.json").exists()

    @pytest.mark.parametrize("axis, bad", [
        ("N", "inf"), ("N", "nan"), ("N", "8.5"), ("N", "0"), ("N", "-0.1"),
        ("epsilon0", "inf"), ("epsilon0", "nan"), ("epsilon0", "0"), ("epsilon0", "-0.1"),
    ])
    def test_bad_value_exit_2_before_any_run(self, spec_file, tmp_path, capsys,
                                             monkeypatch, axis, bad):
        monkeypatch.setattr(gmdiff.metrics, "run_sampler", lambda *args, **kwargs:
                            pytest.fail("a sampler ran before the values were checked"))
        out = tmp_path / "s"
        rc = main(["sweep", axis, "--spec", spec_file, "--out", str(out),
                   "--values", bad, "16", "32", "64", "--seed", "1"])
        assert rc == 2
        assert f"{axis} sweep values must be finite" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("argv, message", [
        (["N", "--values", "8", "8", "8", "8"], "N sweep needs at least two distinct values"),
        (["epsilon0", "--values", "0.1", "0.1", "0.1", "0.1"],
         "epsilon0 sweep needs at least two distinct values"),
        # the fixed value of the axis that is not swept, read or not
        (["N", "--values", "8", "16", "32", "64", "--N", "-5"],
         "need at least one step, got N=-5"),
        (["epsilon0", "--values", "0.1", "0.2", "0.4", "0.8", "--epsilon0", "nan"],
         "epsilon0 must be finite"),
    ])
    def test_unusable_sweep_exit_2_before_any_run(self, spec_file, tmp_path, capsys,
                                                  monkeypatch, argv, message):
        monkeypatch.setattr(gmdiff.metrics, "run_sampler", lambda *args, **kwargs:
                            pytest.fail("a sampler ran before the sweep was checked"))
        out = tmp_path / "s"
        rc = main(["sweep", *argv, "--spec", spec_file, "--out", str(out), "--seed", "1"])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()
        assert not (out / "run.meta.json").exists()

    def test_small_n_sweep_runs_and_writes(self, spec_file, tmp_path):
        out = tmp_path / "s"
        rc = main(["sweep", "N", "--spec", spec_file, "--out", str(out),
                   "--values", "8", "16", "32", "64", "--T", "4",
                   "--n", "2000", "--seed", "1", "--bins", "40"])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "axis_value,metric,value,stderr"
        assert len(lines) == 5
        assert json.loads((out / "run.meta.json").read_text())["command"] == "sweep"
        summary = json.loads((out / "sweep.summary.json").read_text())
        assert "slope" in summary

    def test_epsilon0_axis(self, spec_file, tmp_path):
        out = tmp_path / "s"
        rc = main(["sweep", "epsilon0", "--spec", spec_file, "--out", str(out),
                   "--values", "0.05", "0.1", "0.2", "0.4", "--T", "4",
                   "--N", "64", "--n", "1500", "--seed", "5", "--bins", "40"])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert [float(l.split(",")[0]) for l in lines[1:]] == [0.05, 0.1, 0.2, 0.4]

    def test_threads_do_not_change_output(self, spec_file, tmp_path):
        args = ["sweep", "N", "--spec", spec_file, "--values", "8", "16", "32",
                "64", "--T", "4", "--n", "1000", "--seed", "2", "--bins", "40"]
        out1, out2 = tmp_path / "t1", tmp_path / "t4"
        assert main(args + ["--out", str(out1), "--threads", "1"]) == 0
        assert main(args + ["--out", str(out2), "--threads", "4"]) == 0
        assert sha256(out1 / "sweep.csv") == sha256(out2 / "sweep.csv")

    def test_delta_rows_match_the_library(self, spec_file, tmp_path):
        """The CLI bins over the marginal at delta, as convergence_sweep does."""
        out = tmp_path / "d"
        assert main(["sweep", "N", "--spec", spec_file, "--out", str(out),
                     "--values", "8", "16", "32", "64", "--T", "4", "--n", "1000",
                     "--seed", "2", "--delta", "0.5"]) == 0
        result = gmdiff.metrics.convergence_sweep(
            standard_mixture_1d(), "ei", "N", [8.0, 16.0, 32.0, 64.0], 1000, 2,
            T=4.0, delta=0.5)
        cli_rows = [tuple(line.split(",")) for line in
                    (out / "sweep.csv").read_text().splitlines()[1:]]
        assert cli_rows == [(repr(r.axis_value), r.metric, repr(r.value), repr(r.stderr))
                            for r in result.rows]
