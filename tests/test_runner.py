"""End-to-end tests for configuration parsing, the runner, and the CLI.

Everything here runs in quadrature (noiseless) mode on tiny lattices so the
whole module stays fast; the Monte Carlo paths get their own coverage in the
sampler and acceptance suites.
"""

import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rotor_tvmc import cli, exact, integrator, observables, quadrature, runner, tdvp
from rotor_tvmc.ansatz import CircularRBM, VariationalState, make_ansatz, random_alpha
from rotor_tvmc.config import ConfigError, config_echo, load_config
from rotor_tvmc.exact import OracleGuardError
from rotor_tvmc.runner import (
    RunnerError,
    load_checkpoint,
    run_ground_state,
    run_oracle_benchmark,
    run_quench,
    run_sampler_check,
    save_checkpoint,
    write_csv,
)

BASE_INI = """
[lattice]
dims = 2
periodic = true

[ansatz]
kind = jastrow

[physics]
g_initial = 3.0
g_final = 6.0
t_max = 0.05

[ode]
dt0 = 0.01
dt_max = 0.05

[ground-state]
tau = 0.05
tolerance = 1e-6
window = 10
max_iters = 500

[run]
seed = 7
sampling = quadrature
quadrature_points = 12
"""


@pytest.fixture
def base_config(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(BASE_INI)
    return load_config(path, {"out_dir": tmp_path / "out"})


def write_ini(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestConfigParsing:
    def test_base_fields(self, base_config):
        cfg = base_config
        assert cfg.lattice.n_sites == 2
        assert cfg.ansatz_kind == "jastrow"
        assert cfg.physics.g_initial == 3.0
        assert cfg.physics.g_final == 6.0
        assert cfg.sampling == "quadrature"
        assert cfg.seed == 7

    def test_equal_configs(self, tmp_path):
        path = write_ini(tmp_path, BASE_INI)
        assert load_config(path) == load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.ini")

    def test_missing_section(self, tmp_path):
        path = write_ini(tmp_path, "[lattice]\ndims = 2\nperiodic = true\n")
        with pytest.raises(ConfigError, match="physics|ansatz"):
            load_config(path)

    def test_boundary_conditions_must_be_explicit(self, tmp_path):
        path = write_ini(
            tmp_path, BASE_INI.replace("periodic = true\n", "")
        )
        with pytest.raises(ConfigError, match="boundary"):
            load_config(path)

    def test_per_axis_boundary_flags(self, tmp_path):
        text = BASE_INI.replace("dims = 2", "dims = 3 2")
        text = text.replace("periodic = true", "periodic = true false")
        cfg = load_config(write_ini(tmp_path, text))
        assert cfg.lattice.dims == (3, 2)
        assert cfg.lattice.periodic == (True, False)

    def test_boundary_flag_count_mismatch(self, tmp_path):
        text = BASE_INI.replace("periodic = true", "periodic = true false")
        with pytest.raises(ConfigError, match="per axis"):
            load_config(write_ini(tmp_path, text))

    def test_bad_bool(self, tmp_path):
        text = BASE_INI.replace("periodic = true", "periodic = maybe")
        with pytest.raises(ConfigError):
            load_config(write_ini(tmp_path, text))

    def test_unknown_ansatz_key(self, tmp_path):
        text = BASE_INI.replace("kind = jastrow", "kind = jastrow\nwidth = 4")
        with pytest.raises(ConfigError, match="unknown"):
            load_config(write_ini(tmp_path, text))

    def test_negative_coupling_rejected(self, tmp_path):
        text = BASE_INI.replace("g_initial = 3.0", "g_initial = -1.0")
        with pytest.raises((ConfigError, ValueError)):
            load_config(write_ini(tmp_path, text))

    def test_overrides_win(self, tmp_path):
        path = write_ini(tmp_path, BASE_INI)
        cfg = load_config(path, {"seed": 99, "quadrature_points": 6})
        assert cfg.seed == 99
        assert cfg.quadrature_points == 6

    def test_run_section_ignores_unknown_keys(self, tmp_path):
        # configurations written for older versions may still set these
        retired = "n_workers = 2\nresample = per-step\ncheckpoint_stride = 5\n"
        path = write_ini(tmp_path, BASE_INI + retired)
        assert load_config(path).quadrature_points == 12

    @pytest.mark.parametrize("section, key", [
        ("lattice", "dim"), ("ansatz", "n_hiden"), ("physics", "g_inital"),
        ("hmc", "n_chain"), ("regularization", "ac"), ("ode", "dtmax"),
        ("ground-state", "max_iter"), ("run", "sed"),
    ])
    def test_misspelt_key_rejected(self, tmp_path, section, key):
        header = f"[{section}]\n"
        text = BASE_INI if header in BASE_INI else BASE_INI + "\n" + header
        text = text.replace(header, f"{header}{key} = 1\n")
        with pytest.raises(ConfigError, match=re.escape(f"[{section}]") + f".*'{key}'"):
            load_config(write_ini(tmp_path, text))

    def test_echo_round_trip(self, tmp_path):
        rbm = HMC_INI.replace("kind = jastrow", "kind = rbm\nn_hidden = 3")
        cnn = HMC_INI.replace("kind = jastrow", "kind = cnn\nkernel = 3 3")
        cnn = cnn.replace("dims = 2\n", "dims = 3 3\n")
        for text in (rbm, cnn):
            text += "[regularization]\nr_c = 0.05\n"
            echo = config_echo(load_config(write_ini(tmp_path, text)))
            lines = []
            for section, keys in echo.items():
                lines.append(f"[{section.replace('_', '-')}]")  # [ground-state]
                for key, value in keys.items():
                    if isinstance(value, list):
                        value = " ".join(map(str, value))
                    lines.append(f"{key} = {value}")
            path = write_ini(tmp_path, "\n".join(lines) + "\n", "echo.ini")
            assert config_echo(load_config(path)) == echo
        assert echo["ansatz"] == {"kind": "cnn", "kernel": [3, 3]}

    @pytest.mark.parametrize("section", ["groundstate", "ODE", "runs"])
    def test_unknown_section_rejected(self, tmp_path, section):
        text = BASE_INI + f"\n[{section}]\nmax_iters = 5\n"
        with pytest.raises(ConfigError, match=re.escape(f"unknown section [{section}]")):
            load_config(write_ini(tmp_path, text))

    def test_echo_is_json_serializable(self, base_config):
        echo = config_echo(base_config)
        text = json.dumps(echo)
        assert "jastrow" in text
        assert "quadrature" in text


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        from rotor_tvmc.lattice import build_lattice

        lat = build_lattice((3,), (True,))
        state = make_ansatz("jastrow", lat)
        alpha = random_alpha(state, np.random.default_rng(5))
        state = state.with_alpha(alpha)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, state, 0.75, extra={"note": "x"})

        fresh = make_ansatz("jastrow", lat)
        alpha2, t, extra = load_checkpoint(path, fresh)
        np.testing.assert_array_equal(alpha2, alpha)
        assert t == 0.75
        assert extra["note"] == "x"

    def test_kind_mismatch_rejected(self, tmp_path):
        from rotor_tvmc.lattice import build_lattice

        lat = build_lattice((3,), (True,))
        state = make_ansatz("jastrow", lat)
        state = state.with_alpha(random_alpha(state, np.random.default_rng(5)))
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, state, 0.0)
        other = make_ansatz("rbm", lat, n_hidden=2)
        with pytest.raises(RunnerError):
            load_checkpoint(path, other)


class TestCsv:
    def test_formatting(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b", "c"], [{"a": 1, "b": 0.5, "c": None}])
        lines = path.read_text().splitlines()
        assert lines[0] == "a,b,c"
        assert lines[1] == "1,0.5,nan"

    def test_float_repr_is_lossless(self, tmp_path):
        value = 1.0 / 3.0
        path = tmp_path / "t.csv"
        write_csv(path, ["x"], [{"x": value}])
        back = float(path.read_text().splitlines()[1])
        assert back == value


class TestGroundState:
    def test_converges_and_persists(self, base_config, tmp_path):
        out = tmp_path / "gs"
        result = run_ground_state(base_config, out_dir=out)
        assert result.converged
        # energy trace decreases overall in imaginary time
        assert result.energies[-1] < result.energies[0]
        assert (out / "ground_state.npz").is_file()
        assert (out / "ground_state.csv").is_file()
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["mode"] == "ground-state"
        assert meta["converged"] is True

    def test_nonconvergence_raises(self, base_config, tmp_path):
        from dataclasses import replace

        cfg = replace(
            base_config,
            ground_state=replace(base_config.ground_state, max_iters=2, window=2),
        )
        with pytest.raises(RunnerError) as excinfo:
            run_ground_state(cfg, out_dir=tmp_path / "gs-bad")
        assert excinfo.value.reason == "ground-state-nonconvergence"
        # the partial trace is still persisted for inspection
        assert (tmp_path / "gs-bad" / "ground_state.npz").is_file()


class TestQuench:
    @pytest.fixture
    def gs_state(self, base_config):
        return run_ground_state(base_config).state

    def test_trajectory_outputs(self, base_config, gs_state, tmp_path):
        out = tmp_path / "quench"
        record = run_quench(base_config, gs_state, out_dir=out)
        assert record.status == "ok"
        times = record.times
        assert times[0] == 0.0
        assert np.all(np.diff(times) > 0)
        assert times[-1] == pytest.approx(base_config.physics.t_max)
        # R^2 accumulates monotonically
        r2_int = record.column("r2_integral")
        assert np.all(np.diff(r2_int) >= 0)
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header == ",".join(runner.TRAJECTORY_COLUMNS)
        assert (out / "final_state.npz").is_file()
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["mode"] == "quench"

    def test_dt_is_the_step_that_produced_the_row(self, base_config, gs_state):
        record = run_quench(base_config, gs_state)
        t, dt = record.times, record.column("dt")
        assert len(t) >= 3
        assert dt[0] == 0.0
        assert np.all(np.abs(dt[1:] - np.diff(t)) <= 1e-15)

    def test_rerun_is_byte_identical(self, base_config, gs_state, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run_quench(base_config, gs_state, out_dir=out_a)
        run_quench(base_config, gs_state, out_dir=out_b)
        assert (out_a / "trajectory.csv").read_bytes() == (
            out_b / "trajectory.csv"
        ).read_bytes()

    @pytest.mark.parametrize("error, status", [
        (RunnerError("draw-degenerate", "forced failure"), "draw-degenerate"),
        (KeyboardInterrupt(), "KeyboardInterrupt"),
    ], ids=["typed", "interrupt"])
    def test_failure_after_a_step_keeps_the_rows_so_far(self, base_config, gs_state,
                                                         tmp_path, monkeypatch,
                                                         error, status):
        clean = tmp_path / "clean"
        run_quench(base_config, gs_state, out_dir=clean)
        # the second step's right-hand side fails
        real_advance, calls = runner.AdaptiveStepper.advance, []

        def advance(self, rhs, *args):
            calls.append(rhs)

            def failing(t, alpha):
                raise error

            return real_advance(self, failing if len(calls) == 2 else rhs, *args)

        monkeypatch.setattr(runner.AdaptiveStepper, "advance", advance)
        out = tmp_path / "failed"
        with pytest.raises(type(error)):
            run_quench(base_config, gs_state, out_dir=out)
        rows = (out / "trajectory.csv").read_text().splitlines()
        assert rows == (clean / "trajectory.csv").read_text().splitlines()[:3]
        _, t, extra = load_checkpoint(out / "final_state.npz", gs_state)
        assert extra == {"status": status}
        assert t == float(rows[-1].split(",")[0]) > 0.0
        meta = json.loads((out / "metadata.json").read_text())
        assert (meta["mode"], meta["status"], meta["steps"]) == ("quench", status, 1)

    def test_row_failure_after_an_accepted_step_keeps_the_last_row_state(
            self, base_config, gs_state, tmp_path, monkeypatch):
        # the second step is accepted, then its row loses the overlap
        real_fidelity = observables.fidelity_of_log_ratios
        real_advance = runner.AdaptiveStepper.advance
        fidelities, accepted_alphas = [], []

        def fidelity(*args, **kwargs):
            fidelities.append(real_fidelity(*args, **kwargs))
            return replace(fidelities[-1], overlap_lost=len(fidelities) == 3)

        def advance(self, *args):
            alpha, t, dt = real_advance(self, *args)
            accepted_alphas.append(alpha)
            return alpha, t, dt

        monkeypatch.setattr(observables, "fidelity_of_log_ratios", fidelity)
        monkeypatch.setattr(runner.AdaptiveStepper, "advance", advance)
        out = tmp_path / "failed"
        with pytest.raises(RunnerError, match="overlap") as excinfo:
            run_quench(base_config, gs_state, out_dir=out)
        assert excinfo.value.reason == "fidelity-overlap-loss"
        assert len(accepted_alphas) == 2
        rows = (out / "trajectory.csv").read_text().splitlines()[1:]
        assert len(rows) == 2
        last_t = float(rows[-1].split(",")[0])
        alpha, t, extra = load_checkpoint(out / "final_state.npz", gs_state)
        assert t == last_t > 0.0
        assert np.array_equal(alpha, accepted_alphas[0])
        assert extra == {"status": "fidelity-overlap-loss"}
        meta = json.loads((out / "metadata.json").read_text())
        assert (meta["status"], meta["final_time"], meta["steps"]) == (
            "fidelity-overlap-loss", last_t, len(rows) - 1)
        # steps.csv keeps every attempt, the failed row's accepted step included
        steps = (out / "steps.csv").read_text().splitlines()[1:]
        assert [line.split(",")[2] for line in steps].count("true") == 2

    @pytest.mark.parametrize("tol", [1e-3, 1e-7], ids=["default", "tight"])
    def test_steps_csv_lists_every_attempt(self, base_config, gs_state, tmp_path, tol):
        config = replace(base_config,
                         controller=replace(base_config.controller, atol=tol, rtol=tol))
        out = tmp_path / "quench"
        record = run_quench(config, gs_state, out_dir=out)
        lines = (out / "steps.csv").read_text().splitlines()
        assert lines[0] == ",".join(runner.STEP_COLUMNS) == "t,dt,accepted,err_norm"
        attempts = [line.split(",") for line in lines[1:]]
        accepted = [a for a in attempts if a[2] == "true"]
        assert len(accepted) == len(record.rows) - 1
        trajectory = (out / "trajectory.csv").read_text().splitlines()[1:]
        assert [a[1] for a in accepted] == [row.split(",")[1] for row in trajectory[1:]]
        # an accepted attempt starts from the last row's t; a rejected one
        # has err_norm above 1 and is retried from the same t
        assert [a[0] for a in accepted] == [row.split(",")[0] for row in trajectory[:-1]]
        for a, after in zip(attempts, attempts[1:]):
            if a[2] == "false":
                assert float(a[3]) > 1.0 and after[0] == a[0]
        if tol < 1e-3:
            assert len(attempts) > len(accepted)

    def test_failure_at_t0_writes_nothing(self, base_config, gs_state, tmp_path,
                                          monkeypatch):
        def draw(self, *args, **kwargs):
            raise RunnerError("draw-degenerate", "forced failure")

        monkeypatch.setattr(runner._QuadratureEngine, "draw", draw)
        with pytest.raises(RunnerError, match="forced failure"):
            run_quench(base_config, gs_state, out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_oracle_benchmark_pairs_rows(self, base_config, gs_state, tmp_path):
        out = tmp_path / "bench"
        record, exact_rows, summary = run_oracle_benchmark(
            base_config, initial_state=gs_state, out_dir=out
        )
        assert len(exact_rows) == len(record.rows)
        assert summary["alias_mass"] < 1e-6
        assert (out / "exact_reference.csv").is_file()

    def test_oracle_benchmark_writes_the_quench_files(self, base_config, gs_state, tmp_path):
        quench, oracle = tmp_path / "quench", tmp_path / "oracle"
        run_quench(base_config, gs_state, out_dir=quench)
        run_oracle_benchmark(base_config, initial_state=gs_state, out_dir=oracle)
        for name in ("trajectory.csv", "steps.csv"):
            assert (oracle / name).read_bytes() == (quench / name).read_bytes()
        alpha, t, extra = load_checkpoint(oracle / "final_state.npz", gs_state)
        assert np.array_equal(alpha, load_checkpoint(quench / "final_state.npz", gs_state)[0])
        assert extra == {"status": "ok"}
        meta = json.loads((oracle / "metadata.json").read_text())
        assert (meta["mode"], meta["status"], meta["final_time"]) == ("oracle-benchmark", "ok", t)
        assert set(meta["summary"]) == {"alias_mass", "max_e_pot_error", "max_fidelity_error"}

    def test_oracle_failure_keeps_the_rows_so_far(self, base_config, gs_state, tmp_path,
                                                  monkeypatch):
        clean = tmp_path / "clean"
        run_oracle_benchmark(base_config, initial_state=gs_state, out_dir=clean)
        # the second step's right-hand side fails
        real_advance, calls = runner.AdaptiveStepper.advance, []

        def advance(self, rhs, *args):
            calls.append(rhs)

            def failing(t, alpha):
                raise RunnerError("draw-degenerate", "forced failure")

            return real_advance(self, failing if len(calls) == 2 else rhs, *args)

        monkeypatch.setattr(runner.AdaptiveStepper, "advance", advance)
        out = tmp_path / "failed"
        with pytest.raises(RunnerError, match="forced failure"):
            run_oracle_benchmark(base_config, initial_state=gs_state, out_dir=out)
        rows = (out / "trajectory.csv").read_text().splitlines()
        assert rows == (clean / "trajectory.csv").read_text().splitlines()[:3]
        assert not (out / "exact_reference.csv").exists()
        _, t, extra = load_checkpoint(out / "final_state.npz", gs_state)
        assert extra == {"status": "draw-degenerate"}
        assert t == float(rows[-1].split(",")[0]) > 0.0
        meta = json.loads((out / "metadata.json").read_text())
        assert (meta["mode"], meta["status"], meta["steps"]) == (
            "oracle-benchmark", "draw-degenerate", 1)
        assert "summary" not in meta


VERBS = ["ground-state", "quench", "oracle-benchmark", "sampler-check"]


class TestCli:
    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = write_ini(tmp_path, "[lattice]\ndims = 2\n")
        code = cli.main(["ground-state", "--config", str(path)])
        assert code == cli.EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("n_modes", [0, -1])
    def test_cnn_without_modes_exits_2(self, tmp_path, capsys, n_modes):
        text = BASE_INI.replace("kind = jastrow", f"kind = cnn\nn_modes = {n_modes}")
        code = cli.main(["ground-state", "--config", str(write_ini(tmp_path, text)),
                         "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        assert "n_modes must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("kind,key", [("jastrow", "n_hidden = 4"),
                                          ("rbm", "depth = 2"),
                                          ("rbm", "kernel = 3")])
    def test_key_the_kind_does_not_take_exits_2(self, tmp_path, capsys, kind, key):
        text = BASE_INI.replace("kind = jastrow", f"kind = {kind}\n{key}")
        code = cli.main(["ground-state", "--config", str(write_ini(tmp_path, text)),
                         "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        # the message names the key as the INI file writes it
        assert re.search(rf"kind {kind!r} takes no key {key.split()[0]}\b", err)

    def test_short_warmup_exits_2_before_any_work(self, tmp_path, capsys):
        # a first slow window of one draw has zero variance, so every metric
        # entry would sit at the floor and warmup would fail midway
        text = HMC_INI.replace("n_warmup = 150", "n_warmup = 71")
        out = tmp_path / "out"
        code = cli.main(["ground-state", "--config", str(write_ini(tmp_path, text)),
                         "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert "n_warmup must be >= 72" in capsys.readouterr().err
        assert not out.exists()

    def test_ground_state_exits_0(self, tmp_path, capsys):
        path = write_ini(tmp_path, BASE_INI)
        out = tmp_path / "out"
        code = cli.main(["ground-state", "--config", str(path), "--out", str(out)])
        assert code == cli.EXIT_OK
        assert "converged" in capsys.readouterr().out
        assert (out / "ground_state.npz").is_file()

    def test_numerical_failure_exits_3_with_report(self, tmp_path, capsys):
        text = BASE_INI.replace("window = 10\nmax_iters = 500",
                                "window = 2\nmax_iters = 2")
        path = write_ini(tmp_path, text)
        out = tmp_path / "out"
        code = cli.main(["ground-state", "--config", str(path), "--out", str(out)])
        assert code == cli.EXIT_NUMERICAL
        report = json.loads((out / "failure.json").read_text())
        assert report["reason"] == "ground-state-nonconvergence"

    @pytest.mark.parametrize("content,why", [
        (None, "no such file"),
        ("alpha = 1\n", "not an npz checkpoint"),
        ("", "not an npz checkpoint"),
        (np.zeros(3), "not an npz checkpoint"),
        ({"alpha": np.zeros(1)}, "missing field 'format_version'"),
    ], ids=["missing", "text", "empty", "npy", "partial"])
    def test_unreadable_checkpoint_exits_3(self, tmp_path, capsys, content, why):
        ckpt = tmp_path / "init.npz"
        if isinstance(content, str):
            ckpt.write_text(content)
        elif isinstance(content, np.ndarray):
            with open(ckpt, "wb") as fh:
                np.save(fh, content)
        elif content is not None:
            np.savez(ckpt, **content)
        path = write_ini(tmp_path, BASE_INI)
        for verb in VERBS:
            out = tmp_path / verb
            code = cli.main([verb, "--config", str(path), "--out", str(out),
                             "--resume", str(ckpt)])
            assert code == cli.EXIT_NUMERICAL
            report = json.loads((out / "failure.json").read_text())
            assert report["reason"] == "checkpoint-unreadable"
            # every verb reads the checkpoint before it starts any work
            assert [p.name for p in out.iterdir()] == ["failure.json"]
            err = capsys.readouterr().err
            assert err.startswith("checkpoint error [checkpoint-unreadable]: ")
            assert err.rstrip().endswith(why)
            assert "pickle" not in err

    def test_degenerate_quadrature_draw_exits_3(self, tmp_path):
        # c1's 3-rotor RBM descent at tau = 0.1 instead of 0.02 moves all of
        # the Born weight onto one grid point within a few iterations; its
        # energy trace then goes flat at 2.5e7 and would read as converged
        text = """
[lattice]
dims = 3
periodic = true

[ansatz]
kind = rbm
n_hidden = 6

[physics]
g_initial = 3.0
g_final = 6.0
t_max = 1.0

[ground-state]
tau = 0.1
tolerance = 1e-7
window = 20
max_iters = 4000

[run]
seed = 7
sampling = quadrature
quadrature_points = 16
"""
        out = tmp_path / "out"
        code = cli.main(["ground-state", "--config", str(write_ini(tmp_path, text)),
                         "--out", str(out)])
        assert code == cli.EXIT_NUMERICAL
        report = json.loads((out / "failure.json").read_text())
        assert report["reason"] == "draw-degenerate"
        assert not (out / "ground_state.npz").exists()

    def test_non_finite_log_psi_exits_3(self, tmp_path, capsys):
        # parameters that overflow ln psi are a numerical failure of the run
        ini = write_ini(tmp_path, BASE_INI.replace("kind = jastrow", "kind = rbm"))
        state = make_ansatz("rbm", load_config(ini).lattice)
        ckpt = tmp_path / "init.npz"
        save_checkpoint(ckpt, state.with_alpha(np.full(state.n_params, 1e154)), 0.0)
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            code = cli.main(["quench", "--config", str(ini), "--out", str(out),
                             "--resume", str(ckpt)])
        assert code == cli.EXIT_NUMERICAL
        report = json.loads((out / "failure.json").read_text())
        assert report["reason"] == "log-psi-nonfinite"
        assert capsys.readouterr().err.startswith(
            "numerical failure [log-psi-nonfinite]: non-finite log_psi")

    def test_guard_exits_4(self, tmp_path):
        # 5 sites at m_cut = 5 have 8801 states with total M = 0, which trips
        # the dense-evolution guard on the resume path too
        from rotor_tvmc.lattice import build_lattice

        lat = build_lattice((5,), (True,))
        state = make_ansatz("jastrow", lat)
        state = state.with_alpha(random_alpha(state, np.random.default_rng(3)))
        ckpt = tmp_path / "init.npz"
        save_checkpoint(ckpt, state, 0.0)

        text = BASE_INI.replace("dims = 2", "dims = 5")
        path = write_ini(tmp_path, text)
        code = cli.main([
            "oracle-benchmark", "--config", str(path),
            "--out", str(tmp_path / "out"), "--resume", str(ckpt),
        ])
        assert code == cli.EXIT_GUARD

    def test_guard_precedes_ground_state(self, tmp_path, monkeypatch, capsys):
        # the oracle stops before it spends any time on its ground-state stage
        def ground_state(*args, **kwargs):
            raise AssertionError("the ground-state stage ran")

        monkeypatch.setattr(runner, "run_ground_state", ground_state)
        for edits, message in [
            # 5 rotors at m_cut = 5: 8801 states with M = 0 cannot be evolved densely
            ([("dims = 2", "dims = 5")], "sector of dim 8801 > 5000"),
            # 2 x 3 rotors at m_cut = 2: the largest sector (1751 states) is
            # admitted, but the state's projection grid has 16^6 points
            ([("dims = 2", "dims = 2 3"), ("sampling = quadrature", "sampling = hmc\nm_cut = 2")],
             "grid size 16^6 exceeds guard 10000000"),
        ]:
            text = BASE_INI
            for old, new in edits:
                text = text.replace(old, new)
            code = cli.main(["oracle-benchmark", "--config", str(write_ini(tmp_path, text)),
                             "--out", str(tmp_path / "out")])
            assert code == cli.EXIT_GUARD
            assert message in capsys.readouterr().err

    def test_oracle_benchmark_never_loads_scipy(self, tmp_path):
        # the program needs NumPy alone: a whole 2-rotor oracle run, ground
        # state included, in a fresh interpreter imports no SciPy module
        path = write_ini(tmp_path, BASE_INI)
        out = tmp_path / "out"
        script = (
            "import json, sys\n"
            "from rotor_tvmc import cli\n"
            f"code = cli.main(['oracle-benchmark', '--config', {str(path)!r}, "
            f"'--out', {str(out)!r}])\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
            "sys.exit(code)\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        assert (out / "exact_reference.csv").is_file()
        assert json.loads(proc.stdout.splitlines()[-1]) == []

    @pytest.mark.parametrize("verb", ["quench", "oracle-benchmark"])
    def test_runs_with_scipy_blocked(self, tmp_path, verb):
        # the program needs NumPy alone, although the test extra installs
        # SciPy: with every SciPy import made to fail, a 2-rotor quadrature
        # run of the RBM (descent, then quench or oracle) still exits 0.  The
        # descent takes c1's tau: at 0.05 it diverges, and |psi|^2 collapses
        # onto one grid point (exit 3, draw-degenerate)
        text = (BASE_INI.replace("kind = jastrow", "kind = rbm\nn_hidden = 2")
                .replace("quadrature_points = 12", "quadrature_points = 8\nm_cut = 3")
                .replace("tau = 0.05\ntolerance = 1e-6\nwindow = 10\nmax_iters = 500",
                         "tau = 0.02\ntolerance = 1e3\nwindow = 4\nmax_iters = 5"))
        path = write_ini(tmp_path, text)
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from rotor_tvmc import cli\n"
            f"sys.exit(cli.main([{verb!r}, '--config', {str(path)!r}, "
            f"'--out', {str(tmp_path / 'out')!r}]))\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == cli.EXIT_OK, proc.stderr

    def test_seed_override_changes_output(self, tmp_path):
        path = write_ini(tmp_path, BASE_INI)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["ground-state", "--config", str(path), "--out",
                         str(out_a), "--seed", "1"]) == cli.EXIT_OK
        assert cli.main(["ground-state", "--config", str(path), "--out",
                         str(out_b), "--seed", "2"]) == cli.EXIT_OK
        a = np.load(out_a / "ground_state.npz")["alpha"]
        b = np.load(out_b / "ground_state.npz")["alpha"]
        assert not np.array_equal(a, b)

    def test_sampler_check_resume_is_the_state_call(self, tmp_path):
        path = write_ini(tmp_path, HMC_INI)
        config = load_config(path)
        state = make_ansatz("jastrow", config.lattice)
        alpha = random_alpha(state, np.random.default_rng(5), 0.2)
        ckpt = tmp_path / "init.npz"
        save_checkpoint(ckpt, state.with_alpha(alpha), 0.0)
        out, direct = tmp_path / "cli", tmp_path / "direct"
        assert cli.main(["sampler-check", "--config", str(path), "--out", str(out),
                         "--resume", str(ckpt)]) == cli.EXIT_OK
        state = state.with_alpha(load_checkpoint(ckpt, state)[0])
        run_sampler_check(config, state=state, out_dir=direct)
        for name in ("ns_sweep.csv", "l_sweep.csv"):
            assert (out / name).read_bytes() == (direct / name).read_bytes()

    def test_quench_resume_skips_ground_state(self, base_config, tmp_path):
        gs = run_ground_state(base_config)
        ckpt = tmp_path / "gs.npz"
        save_checkpoint(ckpt, gs.state, 0.0)
        path = write_ini(tmp_path, BASE_INI)
        out = tmp_path / "out"
        code = cli.main(["quench", "--config", str(path), "--out", str(out),
                         "--resume", str(ckpt)])
        assert code == cli.EXIT_OK
        assert (out / "trajectory.csv").is_file()

    def test_quench_keeps_the_ground_state_record(self, tmp_path):
        path = write_ini(tmp_path, BASE_INI)
        out = tmp_path / "out"
        assert cli.main(["quench", "--config", str(path), "--out", str(out)]) == cli.EXIT_OK
        assert json.loads((out / "metadata.json").read_text())["mode"] == "quench"
        gs_meta = json.loads((out / "ground-state" / "metadata.json").read_text())
        assert gs_meta["mode"] == "ground-state"
        assert (out / "ground-state" / "ground_state.npz").is_file()
        assert (out / "trajectory.csv").is_file()


HMC_INI = BASE_INI.replace("sampling = quadrature", "sampling = hmc") + """
[hmc]
n_chains = 2
n_samples = 50
n_warmup = 150
n_slow_windows = 3
l0 = 4
"""

WARNING = "split-Rhat 1.234 exceeds 1.1 on some coordinate"


class TestSamplerWarnings:
    @staticmethod
    def _patch_warnings(monkeypatch, warnings):
        """Let the real sampler run, then replace its diagnostics' warnings."""
        real_sample = runner.sample

        def patched(*args, **kwargs):
            flat, diag = real_sample(*args, **kwargs)
            diag.warnings = list(warnings)
            return flat, diag

        monkeypatch.setattr(runner, "sample", patched)

    def test_ground_state_metadata_counts_warnings(self, tmp_path, monkeypatch, capsys):
        self._patch_warnings(monkeypatch, [WARNING])
        text = HMC_INI.replace("window = 10\nmax_iters = 500", "window = 2\nmax_iters = 3")
        path = write_ini(tmp_path, text.replace("tolerance = 1e-6", "tolerance = 1e3"))
        out = tmp_path / "gs"
        assert cli.main(["ground-state", "--config", str(path), "--out", str(out)]) == cli.EXIT_OK
        meta = json.loads((out / "metadata.json").read_text())
        # one draw per iteration; the loose tolerance stops after window + 1
        assert meta["sampler_warnings"] == {WARNING: 3}
        assert capsys.readouterr().err.count(WARNING) == 1

    def test_sampler_check_draws_through_one_engine(self, tmp_path, monkeypatch, capsys):
        self._patch_warnings(monkeypatch, [WARNING])
        calls = TestGradCalls._count_grad_calls(monkeypatch)
        config = load_config(write_ini(tmp_path, HMC_INI))
        state = make_ansatz("jastrow", config.lattice)
        state = state.with_alpha(random_alpha(state, np.random.default_rng(5), 0.2))
        out = tmp_path / "check"
        run_sampler_check(config, state=state, out_dir=out)
        meta = json.loads((out / "metadata.json").read_text())
        # one draw per row of both sweeps, each message printed once
        n_draws = len(runner.SAMPLER_NS_SWEEP) + len(runner.SAMPLER_L_SWEEP)
        assert meta["sampler_warnings"] == {WARNING: n_draws}
        assert capsys.readouterr().err.count(WARNING) == 1
        assert meta["hmc_grad_calls"] == len(calls) > 0

    def test_quench_metadata_counts_warnings(self, tmp_path, monkeypatch, capsys):
        path = write_ini(tmp_path, HMC_INI)
        state = make_ansatz("jastrow", load_config(path, {}).lattice)
        state = state.with_alpha(random_alpha(state, np.random.default_rng(5), 0.2))
        ckpt = tmp_path / "init.npz"
        save_checkpoint(ckpt, state, 0.0)

        def quench(name, warnings):
            self._patch_warnings(monkeypatch, warnings)
            out = tmp_path / name
            args = ["quench", "--config", str(path), "--out", str(out), "--resume", str(ckpt)]
            assert cli.main(args) == cli.EXIT_OK
            return json.loads((out / "metadata.json").read_text())

        assert quench("quiet", [])["sampler_warnings"] == {}
        assert "sampler warning" not in capsys.readouterr().err

        counts = quench("warned", [WARNING])["sampler_warnings"]
        # one draw at t = 0, one per RK attempt
        assert list(counts) == [WARNING] and counts[WARNING] >= 3
        assert capsys.readouterr().err.count(WARNING) == 1
        # telemetry stays out of the trajectory
        assert (tmp_path / "warned" / "trajectory.csv").read_bytes() == (
            tmp_path / "quiet" / "trajectory.csv"
        ).read_bytes()


class TestGradCalls:
    """``hmc_grad_calls`` in metadata.json counts every gradient call that
    the fresh draws' warmup and sampling make."""

    @staticmethod
    def _count_grad_calls(monkeypatch):
        calls = []
        real = VariationalState.grad_log_prob

        def counting(self, theta):
            calls.append(len(theta))
            return real(self, theta)

        monkeypatch.setattr(VariationalState, "grad_log_prob", counting)
        return calls

    def test_quench(self, tmp_path, monkeypatch):
        config = load_config(write_ini(tmp_path, HMC_INI))
        state = make_ansatz("jastrow", config.lattice)
        state = state.with_alpha(random_alpha(state, np.random.default_rng(5), 0.2))
        calls = self._count_grad_calls(monkeypatch)
        out = tmp_path / "out"
        run_quench(config, state, out_dir=out)
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["hmc_grad_calls"] == len(calls) > 0
        # every call is on one (n_chains, N) batch
        assert set(calls) == {config.hmc.n_chains}

    def test_ground_state(self, tmp_path, monkeypatch):
        text = HMC_INI.replace("window = 10\nmax_iters = 500", "window = 2\nmax_iters = 3")
        config = load_config(write_ini(tmp_path, text.replace("tolerance = 1e-6", "tolerance = 1e3")))
        calls = self._count_grad_calls(monkeypatch)
        out = tmp_path / "gs"
        run_ground_state(config, out_dir=out)
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["hmc_grad_calls"] == len(calls) > 0

    def test_quadrature_makes_none(self, tmp_path):
        config = load_config(write_ini(tmp_path, BASE_INI))
        state = make_ansatz("jastrow", config.lattice)
        state = state.with_alpha(random_alpha(state, np.random.default_rng(5), 0.2))
        out = tmp_path / "out"
        run_quench(config, state, out_dir=out)
        assert json.loads((out / "metadata.json").read_text())["hmc_grad_calls"] == 0


class TestStripWithoutPlaquettes:
    @pytest.mark.parametrize("ini", [BASE_INI, HMC_INI], ids=["quadrature", "hmc"])
    def test_vorticity_is_nan(self, tmp_path, ini):
        # an open 1 x 3 strip is 2D but has no 1x1 plaquette
        text = ini.replace("dims = 2\nperiodic = true", "dims = 1 3\nperiodic = false")
        config = load_config(write_ini(tmp_path, text))
        assert config.lattice.plaquettes(1).shape[0] == 0
        state = make_ansatz("jastrow", config.lattice)
        state = state.with_alpha(random_alpha(state, np.random.default_rng(5), 0.2))
        record = run_quench(config, state)
        assert record.status == "ok"
        assert np.all(np.isnan(record.column("vort_1")))
        assert np.all(np.isnan(record.column("vort_sigma")))


class TestDrawCount:
    @pytest.mark.parametrize(
        "ini, engine",
        [(BASE_INI, runner._QuadratureEngine), (HMC_INI, runner._HmcEngine)],
        ids=["quadrature", "hmc"],
    )
    def test_one_draw_per_parameter_vector(self, tmp_path, monkeypatch, ini, engine):
        # loose tolerances: every attempt is accepted
        text = ini.replace("dt_max = 0.05", "dt_max = 0.05\natol = 10.0\nrtol = 10.0")
        config = load_config(write_ini(tmp_path, text))
        state = make_ansatz("jastrow", config.lattice)
        state = state.with_alpha(random_alpha(state, np.random.default_rng(5), 0.2))
        real_draw = engine.draw
        draws = []

        def counted(self, *args):
            draws.append(args[0].alpha)
            return real_draw(self, *args)

        monkeypatch.setattr(engine, "draw", counted)
        record = run_quench(config, state)
        assert len(record.rows) >= 3
        # t = 0 shares one draw; each step adds its last stage, which also
        # serves the row, and quadrature its two interior stages besides
        per_step = 3 if engine is runner._QuadratureEngine else 1
        assert len(draws) == 1 + per_step * (len(record.rows) - 1)

    def test_hmc_stages_draw_afresh_below_the_ess_floor(self, tmp_path, monkeypatch):
        # a Kish ESS/n floor above 1 refuses every reweighting, so each RK
        # attempt draws for all three of its new stages
        monkeypatch.setattr(runner, "MIN_REWEIGHT_ESS", 1.5)
        text = HMC_INI.replace("dt_max = 0.05", "dt_max = 0.05\natol = 10.0\nrtol = 10.0")
        config = load_config(write_ini(tmp_path, text))
        state = make_ansatz("jastrow", config.lattice)
        state = state.with_alpha(random_alpha(state, np.random.default_rng(5), 0.2))
        real_draw = runner._HmcEngine.draw
        draws = []

        def counted(self, *args):
            draws.append(args[0].alpha)
            return real_draw(self, *args)

        monkeypatch.setattr(runner._HmcEngine, "draw", counted)
        record = run_quench(config, state)
        assert len(record.rows) >= 3
        assert len(draws) == 1 + 3 * (len(record.rows) - 1)
        assert (record.fresh_draws, record.reweighted_stages) == (len(draws), 0)
        assert 0.0 < record.min_reweight_ess <= 1.0


CHAIN_INI = """
[lattice]
dims = {n}
periodic = true

[ansatz]
kind = rbm
n_hidden = {hidden}

[physics]
g_initial = 3.0
g_final = 6.0
t_max = 0.03

[ode]
dt0 = 0.015625
dt_max = 0.015625

[run]
seed = 7
sampling = quadrature
quadrature_points = {q}
"""


def _chain(tmp_path, n, hidden, q, scale=0.3):
    config = load_config(write_ini(tmp_path, CHAIN_INI.format(n=n, hidden=hidden, q=q)))
    state = make_ansatz("rbm", config.lattice, n_hidden=hidden)
    return config, state.with_alpha(random_alpha(state, np.random.default_rng(3), scale))


def _chunked(method, points, *args):
    """``method`` evaluated on consecutive chunks of CHUNK_ROWS points."""
    rows = tdvp.CHUNK_ROWS
    return np.concatenate([method(points[lo:lo + rows], *args)
                           for lo in range(0, len(points), rows)])


def _assert_estimate_is(qgt, o, e, weights):
    """X and y of ``qgt`` are, bit for bit, those of O and E_L under the
    weights (None: uniform), as ``estimate_qgt`` forms them."""
    n = len(e)
    weights = np.full(n, 1.0 / n) if weights is None else weights / np.sum(weights)
    root_w = np.sqrt(weights)
    x = o.copy()
    x -= weights @ x
    x *= root_w[:, None]
    e_mean = weights @ e
    assert np.array_equal(qgt.x, x)
    assert np.array_equal(qgt.y, root_w * (e - e_mean))
    assert qgt.e_mean == e_mean


class TestQuadratureOnePass:
    """The quadrature engine evaluates its grid once per draw."""

    @pytest.mark.parametrize("n, hidden, q", [(2, 4, 16), (3, 6, 12)])
    def test_matches_the_reference_estimate(self, tmp_path, n, hidden, q):
        config, state = _chain(tmp_path, n, hidden, q)
        draw, qgt = runner._QuadratureEngine(config).draw(state, 6.0, 1.0)
        points = quadrature.grid_points(n, q)
        ref = quadrature.quadrature_qgt(state, 6.0, 1.0, q=q)
        assert np.array_equal(draw.points, points)
        assert np.array_equal(draw.log_psi, exact.log_psi_on_points(state, points))
        assert np.array_equal(draw.weights, quadrature.born_weights(state, points))
        assert np.array_equal(qgt.x, ref.x)
        assert np.array_equal(qgt.y, ref.y)
        assert qgt.e_mean == ref.e_mean

    def test_matches_the_reference_on_c1_grid(self, tmp_path):
        config, state = _chain(tmp_path, 3, 6, 16)
        draw, qgt = runner._QuadratureEngine(config).draw(state, 6.0, 1.0)
        points = quadrature.grid_points(3, 16)
        ref = quadrature.quadrature_qgt(state, 6.0, 1.0, q=16)
        assert np.array_equal(draw.log_psi, exact.log_psi_on_points(state, points))
        assert np.array_equal(draw.weights, quadrature.born_weights(state, points))
        assert np.array_equal(qgt.x, ref.x)
        assert np.array_equal(qgt.y, ref.y)
        assert qgt.e_mean == ref.e_mean

    def test_one_forward_per_chunk(self, tmp_path, monkeypatch):
        config, state = _chain(tmp_path, 3, 6, 16)
        calls = []
        forward = CircularRBM._forward

        def counted(self, theta):
            calls.append(len(theta))
            return forward(self, theta)

        monkeypatch.setattr(CircularRBM, "_forward", counted)
        runner._QuadratureEngine(config).draw(state, 6.0, 1.0)
        # 4096 grid points in chunks of 512 rows
        assert calls == [512] * 8

    def test_draws_at_two_alphas_match_the_public_calls(self, tmp_path):
        # the grid's cos, sin and bond-cosine sums are built once per run; a
        # second draw at another alpha must not read anything of the first
        config, state = _chain(tmp_path, 3, 6, 12)
        engine = runner._QuadratureEngine(config)
        points = quadrature.grid_points(3, 12)
        for seed in (21, 22):
            st = state.with_alpha(random_alpha(state, np.random.default_rng(seed), 0.3))
            draw, qgt = engine.draw(st, 6.0, 1.0)
            assert np.array_equal(draw.log_psi, _chunked(st.log_psi, points))
            _assert_estimate_is(qgt, _chunked(st.log_derivatives, points),
                                _chunked(st.local_energy, points, 6.0, 1.0), draw.weights)

    def test_quench_never_calls_log_psi(self, tmp_path, monkeypatch):
        # the fidelity of each row reads the ln psi of its draw and of draw_0
        config, state = _chain(tmp_path, 2, 4, 16)
        calls = []
        log_psi = VariationalState.log_psi

        def counted(self, theta):
            calls.append(len(theta))
            return log_psi(self, theta)

        monkeypatch.setattr(VariationalState, "log_psi", counted)
        record = run_quench(config, state)
        assert len(record.rows) >= 3
        assert calls == []
        assert record.rows[0]["fidelity"] == 1.0


class TestHmcDraw:
    def test_kernels_match_the_public_calls(self, tmp_path):
        # the draw's cos, sin and bond-cosine sums are built once per draw;
        # 600 samples make two chunks
        text = HMC_INI.replace("kind = jastrow", "kind = rbm\nn_hidden = 3")
        text = text.replace("n_chains = 2\nn_samples = 50", "n_chains = 2\nn_samples = 300")
        config = load_config(write_ini(tmp_path, text.replace("dims = 2", "dims = 3")))
        state = make_ansatz("rbm", config.lattice, n_hidden=3)
        state = state.with_alpha(random_alpha(state, np.random.default_rng(5), 0.3))
        draw, qgt = runner._HmcEngine(config, 1).draw(state, 6.0, 1.0)
        points = draw.points.reshape(-1, 3)
        assert np.array_equal(draw.log_psi.ravel(), _chunked(state.log_psi, points))
        _assert_estimate_is(qgt, _chunked(state.log_derivatives, points),
                            _chunked(state.local_energy, points, 6.0, 1.0), None)


class TestHmcFidelity:
    """An HMC row's fidelity reads the ln psi that its two draws hold."""

    def test_row_evaluates_only_the_cross_sets(self, tmp_path, monkeypatch):
        # loose tolerances: every attempt is accepted
        text = HMC_INI.replace("dt_max = 0.05", "dt_max = 0.05\natol = 10.0\nrtol = 10.0")
        config = load_config(write_ini(tmp_path, text))
        state = make_ansatz("jastrow", config.lattice)
        state = state.with_alpha(random_alpha(state, np.random.default_rng(5), 0.2))
        draws, calls, drawing = [], [], []
        real_draw, log_psi = runner._HmcEngine.draw, VariationalState.log_psi

        def counted_draw(self, st, *args):
            drawing.append(True)
            try:
                draw, qgt = real_draw(self, st, *args)
            finally:
                drawing.pop()
            draws.append((st.alpha, draw))
            return draw, qgt

        def counted(self, theta):
            if not drawing:  # the sampler's own calls are not the row's
                calls.append((self.alpha, theta))
            return log_psi(self, theta)

        monkeypatch.setattr(runner._HmcEngine, "draw", counted_draw)
        monkeypatch.setattr(VariationalState, "log_psi", counted)
        record = run_quench(config, state)
        assert len(record.rows) >= 3
        # t = 0 evaluates nothing; each later row ln psi_t at the points of
        # draw_0 and ln psi_0 at its own draw's points, and nothing else
        assert len(calls) == 2 * (len(record.rows) - 1)
        n_sites = state.n_sites
        x_0 = draws[0][1].points.reshape(-1, n_sites)
        for i, row in enumerate(record.rows[1:], start=1):
            alpha_t, draw_t = draws[i]
            (alpha_a, at_a), (alpha_b, at_b) = calls[2 * i - 2: 2 * i]
            assert np.array_equal(alpha_a, alpha_t) and np.array_equal(at_a, x_0)
            assert np.array_equal(alpha_b, state.alpha)
            assert np.array_equal(at_b, draw_t.points.reshape(-1, n_sites))
            ref = observables.fidelity(state, state.with_alpha(alpha_t),
                                       draws[0][1].points, draw_t.points)
            assert (row["fidelity"], row["fidelity_sigma"]) == (ref.value, ref.sigma)


class TestReweightedStages:
    """Under HMC the interior RK stages reweight the draw at the step's
    accepted point instead of drawing."""

    def test_reweighted_grid_matches_the_born_estimate(self, tmp_path):
        # the grid with the Born weights of alpha, reweighted to alpha', is
        # the grid with the Born weights of alpha'
        config, state = _chain(tmp_path, 3, 6, 12)
        anchor, _ = runner._QuadratureEngine(config).draw(state, 6.0, 1.0)
        moved = state.with_alpha(
            state.alpha + random_alpha(state, np.random.default_rng(8), 0.1))
        engine = runner._HmcEngine(config, 1)
        qgt, ess = engine.reweight(moved, 6.0, 1.0, anchor)
        assert engine.counter == 0
        points = quadrature.grid_points(3, 12)
        weights = quadrature.born_weights(moved, points)
        ref = tdvp.estimate_qgt(moved, points, 6.0, 1.0, weights=weights)
        np.testing.assert_allclose(qgt.x, ref.x, rtol=0, atol=1e-12)
        np.testing.assert_allclose(qgt.y, ref.y, rtol=0, atol=1e-12)
        assert abs(qgt.e_mean - ref.e_mean) <= 1e-12
        assert ess == pytest.approx(1.0 / (len(weights) * float(weights @ weights)), rel=1e-10)

    def test_reweighting_a_draw_to_its_own_alpha_is_the_draw(self, tmp_path):
        config = load_config(write_ini(tmp_path, HMC_INI))
        state = make_ansatz("jastrow", config.lattice)
        state = state.with_alpha(random_alpha(state, np.random.default_rng(5), 0.2))
        engine = runner._HmcEngine(config, 1)
        draw, ref = engine.draw(state, 6.0, 1.0)
        qgt, ess = engine.reweight(state, 6.0, 1.0, draw)
        assert engine.counter == 1
        assert ess == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(qgt.x, ref.x, rtol=0, atol=1e-12)
        np.testing.assert_allclose(qgt.y, ref.y, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("ini", [BASE_INI, HMC_INI], ids=["quadrature", "hmc"])
    def test_metadata_counts_draws_and_stages(self, tmp_path, ini):
        config = load_config(write_ini(tmp_path, ini))
        state = make_ansatz("jastrow", config.lattice)
        state = state.with_alpha(random_alpha(state, np.random.default_rng(5), 0.2))
        out = tmp_path / "out"
        record = run_quench(config, state, out_dir=out)
        meta = json.loads((out / "metadata.json").read_text())
        attempts = len(record.stepper.attempts)
        assert attempts >= 2
        if ini is BASE_INI:
            assert meta["fresh_draws"] == 1 + 3 * attempts
            assert (meta["reweighted_stages"], meta["min_reweight_ess"]) == (0, None)
        else:
            assert meta["fresh_draws"] == 1 + attempts
            assert meta["reweighted_stages"] == 2 * attempts
            assert runner.MIN_REWEIGHT_ESS <= meta["min_reweight_ess"] <= 1.0
        # telemetry stays out of the trajectory
        header = (out / "trajectory.csv").read_text().splitlines()[0].split(",")
        assert not {"fresh_draws", "reweighted_stages", "min_reweight_ess",
                    "hmc_grad_calls"} & set(header)

    def test_a_rejected_attempt_never_becomes_the_anchor(self, tmp_path, monkeypatch):
        # the first attempt of each of the first two steps is rejected; each
        # stage must reweight the draw at the last accepted point, never the
        # rejected attempt's last stage
        norms = []

        def rejecting(*args):
            norms.append(2.0 if len(norms) in (0, 2) else 0.5)
            return norms[-1]

        monkeypatch.setattr(integrator, "error_norm", rejecting)
        events = []
        real_draw, real_reweight = runner._HmcEngine.draw, runner._HmcEngine.reweight

        def draw(self, *args):
            out = real_draw(self, *args)
            events.append(("draw", out[0]))
            return out

        def reweight(self, state, g, J, anchor):
            events.append(("reweight", anchor))
            return real_reweight(self, state, g, J, anchor)

        monkeypatch.setattr(runner._HmcEngine, "draw", draw)
        monkeypatch.setattr(runner._HmcEngine, "reweight", reweight)
        config = load_config(write_ini(tmp_path, HMC_INI))
        state = make_ansatz("jastrow", config.lattice)
        state = state.with_alpha(random_alpha(state, np.random.default_rng(5), 0.2))
        record = run_quench(config, state)
        attempts = record.stepper.attempts
        assert [a.accepted for a in attempts] == [False, True, False] + [True] * (
            len(attempts) - 3)
        assert len(attempts) >= 5
        # t = 0 draws; then each attempt reweights twice and draws its last stage
        assert [kind for kind, _ in events] == (
            ["draw"] + ["reweight", "reweight", "draw"] * len(attempts))
        anchor = events[0][1]
        for i, attempt in enumerate(attempts):
            stages = events[1 + 3 * i: 4 + 3 * i]
            assert stages[0][1] is anchor and stages[1][1] is anchor
            if attempt.accepted:
                anchor = stages[2][1]
        assert record.last.draw is anchor
