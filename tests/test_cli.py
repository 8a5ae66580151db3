import json
import math
import warnings
from dataclasses import fields

import numpy as np
import pytest

from sloc import rgd, targets
from sloc.cli import DEFAULTS, main, validate_config
from sloc.sde import generator
from sloc.suites import SuiteBudget


def write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestValidateConfig:
    def test_minimal_config_fills_defaults(self, tmp_path):
        path = write_config(
            tmp_path, {"target": {"kind": "gaussian", "mean": [0.0], "cov": [[1.0]]}}
        )
        cfg, errors, warnings = validate_config(path)
        assert not errors and not warnings
        assert cfg.dt == DEFAULTS["dt"]
        assert cfg.paths == DEFAULTS["paths"]
        assert cfg.seed == DEFAULTS["seed"]

    def test_negative_dt_names_field(self, tmp_path):
        path = write_config(tmp_path, {"dt": -0.001})
        cfg, errors, _ = validate_config(path)
        assert cfg is None
        assert any("dt" in e for e in errors)

    def test_unknown_key_warns_but_accepts(self, tmp_path):
        path = write_config(tmp_path, {"foo": 1})
        cfg, errors, warnings = validate_config(path)
        assert cfg is not None and not errors
        assert any("foo" in w for w in warnings)

    def test_errors_are_aggregated(self, tmp_path):
        path = write_config(tmp_path, {"dt": -1, "paths": 0, "level": 3})
        cfg, errors, _ = validate_config(path)
        assert cfg is None
        assert len(errors) >= 3

    def test_booleans_rejected_in_numeric_fields(self, tmp_path):
        cfg, errors, _ = validate_config(write_config(tmp_path, {"dt": True, "horizon": True}))
        assert cfg is None
        assert [e.split()[0] for e in errors] == ["dt", "horizon"]
        numeric = ["dt", "horizon", "alpha", "eta", "paths", "particles", "samples",
                   "workers", "tau", "eps_clip", "level", "seed"]
        for value in (True, False):
            cfg, errors, _ = validate_config(write_config(tmp_path, dict.fromkeys(numeric, value)))
            assert cfg is None
            assert sorted(e.split()[0] for e in errors) == sorted(numeric)

    def test_out_must_be_a_non_empty_string(self, tmp_path):
        for value in (None, 3, "", ["a"]):
            cfg, errors, _ = validate_config(write_config(tmp_path, {"out": value}))
            assert cfg is None
            assert [e.split()[0] for e in errors] == ["out"]

    def test_config_is_the_suite_budget(self):
        cfg, errors, _ = validate_config(None)
        assert not errors and isinstance(cfg, SuiteBudget)
        for f in fields(SuiteBudget):
            assert getattr(cfg, f.name) == getattr(SuiteBudget(), f.name) == DEFAULTS[f.name]

    def test_dt_must_leave_every_interval_a_step(self, tmp_path):
        cfg, errors, _ = validate_config(write_config(tmp_path, {"dt": 2.5, "horizon": 5.0}))
        assert cfg is None
        assert errors == ["dt 2.5 leaves tau = 0.5 with no grid step",
                          "dt 2.5 leaves 1 - eps_clip = 0.999 with no grid step"]
        cfg, errors, _ = validate_config(write_config(tmp_path, {"dt": 1.0, "horizon": 0.4, "tau": 0.6}))
        assert errors == ["dt 1.0 leaves horizon = 0.4 with no grid step"]
        cfg, errors, _ = validate_config(write_config(tmp_path, {"dt": 0.5, "horizon": 0.4, "tau": 0.3}))
        assert not errors and cfg.dt == 0.5

    def test_a_run_larger_than_memory_is_a_config_error(self, tmp_path):
        # Never run: at dt 1e-9 one chunk's noise alone is 4096 x 1e9 doubles.
        for dt in (1e-9, 5e-324):
            cfg, errors, _ = validate_config(write_config(tmp_path, {"dt": dt}))
            assert cfg is None and len(errors) == 1
            assert errors[0].startswith(f"dt {dt!r} and paths 10000 need an array of")
            assert "physical memory; raise dt or lower paths" in errors[0]

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        cfg, errors, _ = validate_config(str(path))
        assert cfg is None
        assert any("malformed" in e for e in errors)

    def test_bad_target_reported(self, tmp_path):
        path = write_config(tmp_path, {"target": {"kind": "dirac"}})
        cfg, errors, _ = validate_config(path)
        assert cfg is None
        assert any("target" in e for e in errors)


class TestCliRuns:
    @pytest.mark.parametrize(
        "target, message",
        [
            ({"kind": "gaussian", "mean": [math.inf], "cov": [[1.0]]}, "mixture means must be finite"),
            ({"kind": "gaussian", "mean": [math.nan], "cov": [[1.0]]}, "mixture means must be finite"),
            ({"kind": "gaussian", "mean": [0.0], "cov": [[math.inf]]}, "mixture covariances must be finite"),
            (
                {"kind": "mixture", "components": [
                    {"weight": math.nan, "mean": [-1.0], "cov": [[1.0]]},
                    {"weight": 0.5, "mean": [1.0], "cov": [[1.0]]},
                ]},
                "mixture weights must be finite",
            ),
            ({"kind": "dirac"}, "unknown target kind 'dirac'"),
        ],
    )
    def test_a_bad_target_is_one_config_error(self, tmp_path, capsys, target, message):
        # json writes the non-finite floats as Infinity and NaN, which json reads back.
        out = tmp_path / "out"
        assert main(["equiv", "--paths", "200", "--config", write_config(tmp_path, {"target": target}),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: target: {message}\n"
        assert not out.exists()

    def test_config_error_exits_two(self, tmp_path, capsys):
        path = write_config(tmp_path, {"dt": -1})
        code = main(["lsi", "--config", path, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_a_dt_with_no_grid_step_exits_two(self, tmp_path, capsys):
        # round(0.4 / 1.0) and round(0.5 / 1.0) are both 0: simulate would
        # write trajectories that stop at t = 0, and equiv would fail to find
        # t = 0.5 on its grid.
        for command, config in (("simulate", {"dt": 1.0, "horizon": 0.4}), ("equiv", {"dt": 1.0})):
            out = tmp_path / command
            assert main([command, "--config", write_config(tmp_path, config), "--out", str(out)]) == 2
            assert "config error: dt 1.0 leaves" in capsys.readouterr().err
            assert not out.exists()

    def test_a_dt_whose_grid_misses_a_snapshot_time_runs(self, tmp_path, capsys):
        # At dt 0.3 the tilt grid is 0, 1/3, 2/3, 1: t = 0.5 is joined to it.
        out = tmp_path / "out"
        assert main(["equiv", "--dt", "0.3", "--paths", "200", "--out", str(out)]) in (0, 1)
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert (out / "report.json").exists()

    def test_a_non_finite_run_fails_its_check_and_the_rest_run(self, tmp_path, capsys):
        # A Gaussian of mean 1e308 keeps every path finite and fails its checks
        # as verdicts; the +-1e308 mixture's log-masses are inf - inf, so each
        # ensemble check stops with a NonFiniteStateError.
        huge = [{"weight": 0.5, "mean": [m], "cov": [[1.0]]} for m in (-1e308, 1e308)]
        runs = {"gaussian": {"kind": "gaussian", "mean": [1e308], "cov": [[1.0]]},
                "mixture": {"kind": "mixture", "components": huge}}
        rows, reports = {}, {}
        for label, target in runs.items():
            out = tmp_path / label
            config = write_config(tmp_path, {"target": target})
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main(["equiv", "--paths", "200", "--config", config, "--out", str(out)]) == 1
            # Every non-finite value fails a verdict or is a run error; numpy does not warn of it.
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
            captured = capsys.readouterr()
            assert "Traceback" not in captured.out + captured.err
            assert captured.err == ""
            rows[label] = (out / "report.csv").read_text().splitlines()
            reports[label] = json.loads((out / "report.json").read_text())
        ks = next(row for row in rows["gaussian"] if row.startswith("backward-vs-tilt/ks-gaussian,"))
        assert ks.endswith(",0")
        assert not any("run-error" in row for row in rows["gaussian"])
        assert rows["gaussian"][-1].startswith("flow/potential-equation,")
        # One failed run-error row per check that met the error, and the checks after it still run.
        errors = [row.split(",")[0] for row in rows["mixture"] if "/run-error," in row]
        assert errors == ["tilt-vs-channel/run-error", "particles/run-error", "backward-diffusion/run-error",
                          "renormalization-flow/run-error"]
        assert "backward-diffusion/run-error,nan,0,0" in rows["mixture"]
        error = next(c for c in reports["mixture"]["checks"] if c["name"] == "backward-diffusion/run-error")
        assert error["detail"] == "NonFiniteStateError: non-finite state at step 2250 (time 0.5)"

    def test_too_few_paths_for_a_ks_check_exits_two(self, tmp_path, capsys):
        for command in ("equiv", "rgd"):
            out = tmp_path / command
            assert main([command, "--paths", "10", "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:") and "diagnostics.MIN_KS_SAMPLES" in err
            assert not out.exists()
        # Neither subcommand runs a KS check, so a small ensemble is no config error.
        assert main(["simulate", "--paths", "4", "--out", str(tmp_path / "simulate")]) == 0
        assert main(["bridge", "--paths", "10", "--out", str(tmp_path / "bridge")]) in (0, 1)
        assert "config error" not in capsys.readouterr().err

    def test_a_single_particle_is_one_config_error(self, tmp_path, capsys):
        # A particle run needs two particles; the check would raise a ValueError.
        out = tmp_path / "out"
        config = write_config(tmp_path, {"particles": 1})
        assert main(["equiv", "--paths", "100", "--dt", "0.05", "--config", config, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: particles must be an integer of at least 2, got 1\n"
        assert not out.exists()

    def test_lsi_subcommand_tabulates(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["lsi", "--seed", "7", "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "global: PASS" in captured
        schedule = (out / "lsi_schedule.csv").read_text()
        assert schedule.splitlines()[0] == "tau,lam,big_lam,gamma,factor"
        bounds = (out / "lsi_bounds.csv").read_text().splitlines()
        row_eta_one = [r for r in bounds if r.startswith("1,")][0]
        assert row_eta_one.split(",")[1] == "0.5"
        report = json.loads((out / "report.json").read_text())
        assert report["global_pass"] is True

    def test_csv_outputs_byte_identical_across_runs(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["lsi", "--seed", "11", "--out", str(out)]) == 0
        for name in ("report.csv", "lsi_schedule.csv", "lsi_bounds.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_simulate_emits_trajectories(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["simulate", "--seed", "3", "--out", str(out), "--paths", "4", "--dt", "0.05"]
        )
        assert code == 0
        tilt_lines = (out / "tilt_trajectories.csv").read_text().splitlines()
        assert tilt_lines[0] == "stream_id,t,c_1,m_1"
        assert len(tilt_lines) == 1 + 4 * 21
        chan_lines = (out / "channel_trajectories.csv").read_text().splitlines()
        assert chan_lines[0] == "stream_id,time,x_1"

    def test_simulate_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["simulate", "--seed", "5", "--out", str(out), "--paths", "2", "--dt", "0.1"]) == 0
        assert (out_a / "tilt_trajectories.csv").read_bytes() == (
            out_b / "tilt_trajectories.csv"
        ).read_bytes()

    def test_simulate_with_samples_at_the_ess_floor_of_a_generic_target_exits_two(self, tmp_path, capsys):
        # The effective sample size of 64 weighted draws is at most 64, so it can never clear the floor.
        config = {"target": {"kind": "potential-ref", "name": "quartic"}, "samples": int(targets.DEFAULT_ESS_FLOOR)}
        out = tmp_path / "out"
        argv = ["simulate", "--config", write_config(tmp_path, config), "--seed", "7", "--paths", "4", "--dt", "0.01"]
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: samples must exceed the effective-sample-size floor 64 for a generic target, got 64\n"
        )
        assert not out.exists()

    def test_a_run_error_in_simulate_is_one_line_and_exit_one(self, tmp_path, capsys, monkeypatch):
        def collapsed(m, budget, rng):
            raise targets.EffectiveSampleSizeError(58.6, targets.DEFAULT_ESS_FLOOR)

        monkeypatch.setattr(targets, "_generic_is_moments", collapsed)
        config = {"target": {"kind": "potential-ref", "name": "quartic"}, "samples": 80}
        out = tmp_path / "out"
        argv = ["simulate", "--config", write_config(tmp_path, config), "--seed", "7", "--paths", "4", "--dt", "0.01"]
        assert main(argv + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"run error: EffectiveSampleSizeError: {targets.EffectiveSampleSizeError(58.6, 64.0)}\n"
        assert list(out.iterdir()) == []

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("SLOC_SEED", "123")
        assert main(["simulate", "--out", str(out_a), "--paths", "2", "--dt", "0.1"]) == 0
        monkeypatch.delenv("SLOC_SEED")
        assert main(["simulate", "--seed", "123", "--out", str(out_b), "--paths", "2", "--dt", "0.1"]) == 0
        assert (out_a / "tilt_trajectories.csv").read_bytes() == (
            out_b / "tilt_trajectories.csv"
        ).read_bytes()

    def test_report_subcommand_exit_codes(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        payload = {
            "global_pass": False,
            "checks": [
                {
                    "name": "x",
                    "observed": 1.0,
                    "tolerance": 0.5,
                    "passed": False,
                    "runtime": 0.0,
                    "detail": "",
                }
            ],
        }
        (out / "report.json").write_text(json.dumps(payload))
        assert main(["report", "--out", str(out)]) == 1
        assert "FAIL" in capsys.readouterr().out
        assert main(["report", "--out", str(tmp_path / "missing")]) == 2

    def test_workers_do_not_change_reports(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["lsi", "--seed", "2", "--out", str(out_a), "--workers", "1"]) == 0
        assert main(["lsi", "--seed", "2", "--out", str(out_b), "--workers", "4"]) == 0
        assert (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()

    def test_equiv_subcommand_reduced_budget(self, tmp_path, capsys):
        # Full budgets live in the acceptance battery; this exercises the CLI
        # dispatch, report files, and exit code on a small run.
        config = write_config(
            tmp_path,
            {"paths": 2000, "dt": 2e-3, "particles": 400, "seed": 7},
        )
        out = tmp_path / "out"
        code = main(["equiv", "--config", config, "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "tilt-vs-channel/ks" in captured and "global: PASS" in captured
        report = json.loads((out / "report.json").read_text())
        assert report["global_pass"] is True
        names = [c["name"] for c in report["checks"]]
        assert "tweedie/finite-difference" in names
        assert "flow/potential-equation" in names

    def test_bridge_subcommand_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["bridge", "--seed", "9", "--out", str(out), "--paths", "2000"])
        assert code == 0
        assert (out / "coupling.csv").exists()
        assert json.loads((out / "sinkhorn_trace.json").read_text())["converged"] is True

    def test_rgd_subcommand_writes_artifacts(self, tmp_path):
        out = tmp_path / "out"
        code = main(["rgd", "--seed", "9", "--out", str(out), "--paths", "2000"])
        assert code == 0
        lines = (out / "chain_trace.csv").read_text().splitlines()
        assert lines[0] == "iteration,x_1,kl"
        stability = json.loads((out / "stability_report.json").read_text())
        assert stability["all_pass"] is True

    def test_rgd_chain_trace_is_the_loop_of_fresh_tilts(self, tmp_path):
        # The default target N(0, 1) at eta = 1, 50 steps on the seed's block 21,
        # written from a loop that tilts and samples afresh at every step.
        out = tmp_path / "out"
        assert main(["rgd", "--seed", "7", "--out", str(out)]) == 0
        target, rng = targets.GaussianMeasure([0.0], [[1.0]]), generator(7, 0, 21)
        x, trace = np.zeros(1), [np.zeros(1)]
        for _ in range(50):
            y = x + rng.standard_normal(1)
            x = targets.sample(targets.tilt(target, y, 1.0), 1, rng)[0]
            trace.append(x)
        _, kls = rgd.chain_law_propagate(targets.GaussianMeasure([1.0], [[1.0]]), target, 1.0, 50)
        rgd.write_chain_csv(np.array(trace), tmp_path / "want.csv", kls=kls)
        assert (out / "chain_trace.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_non_gaussian_target_warns_for_rgd(self, tmp_path, capsys):
        config = write_config(tmp_path, {"target": {"kind": "potential-ref", "name": "quartic"}, "paths": 2000})
        code = main(["rgd", "--config", config, "--seed", "9", "--out", str(tmp_path / "out")])
        assert code == 0
        assert "rgd artifacts use the standard normal instead" in capsys.readouterr().err

    def test_csv_format_prints_rows(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["lsi", "--seed", "4", "--out", str(out), "--format", "csv"]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first == "name,observed,tolerance,passed"

    def test_non_gaussian_target_warns_for_equiv(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {
                "target": {"kind": "potential-ref", "name": "quartic"},
                "paths": 2000,
                "dt": 2e-3,
                "particles": 400,
                "seed": 7,
            },
        )
        out = tmp_path / "out"
        code = main(["equiv", "--config", config, "--out", str(out)])
        assert code == 0
        assert "standard normal instead" in capsys.readouterr().err
