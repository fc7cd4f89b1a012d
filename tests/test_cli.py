"""Config ingestion, experiment runners, and the command-line interface."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from scipy.special import eval_laguerre

from fockmet import ConfigError, HilbertSpec, __version__, default_spec, fock_state, wigner_value
from fockmet.cli import MAX_DIM, OUTDIR_ENV, RunConfig, _truncation, load_config, main, run

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "configs").glob("*.yaml"))


def _write_config(path, payload):
    with open(path, "w") as fh:
        yaml.safe_dump(payload, fh)
    return str(path)


def _csv_rows(path):
    lines = [l for l in Path(path).read_text().splitlines() if not l.startswith("#")][1:]
    return [l.split(",") for l in lines]


DISPLACEMENT = {
    "experiment": "DisplacementSweep",
    "grids": {"N": 4, "beta": {"start": 0.0, "stop": 1.0, "step": 0.05}},
    "shots": 2000,
    "seed": 11,
}


# Grids that ``run`` rejects with a config error naming the field.
BAD_GRIDS = [
    pytest.param({"experiment": "RamseyScan", "grids": {"n_values": [3.7, 5]}}, "grids.n_values",
                 id="fractional-n"),
    pytest.param({"experiment": "RamseyScan", "grids": {"n_values": [3, 5], "target_n": 1.5}},
                 "grids.target_n", id="fractional-target"),
    pytest.param({"experiment": "DisplacementSweep",
                  "grids": {"N": 2, "beta": {"start": 1.0, "stop": 0.0, "step": 0.1}}}, "grids.beta",
                 id="empty-range"),
    pytest.param({"experiment": "DisplacementSweep", "grids": {"N": 2, "beta": []}}, "grids.beta",
                 id="empty-list"),
    pytest.param({"experiment": "DisplacementSweep",
                  "grids": {"N": 2, "beta": {"start": "0", "stop": 1.0, "step": 0.1}}}, "grids.beta",
                 id="string-start"),
    pytest.param({"experiment": "ResolvedSweep", "grids": {"alpha": "1.5", "m": 3}}, "grids.alpha",
                 id="string-alpha"),
]

# Each config with a substring of the one stderr line both commands must print.
REJECTED = BAD_GRIDS + [
    pytest.param({"experiment": "PrepareFock", "grids": {"N": 3, "init_alpha": "1.5"}},
                 "config error: grids.init_alpha", id="string-init-alpha"),
    pytest.param({"experiment": "ToyModelStudy", "grids": {"N": {"start": 1, "stop": 200, "step": 1}}},
                 "ModelBreakdownError", id="toy-model-past-breakdown"),
    pytest.param({"experiment": "ScalingStudy", "grids": {"N": [0, 1, 2]}},
                 "must be positive", id="scaling-zero-photons"),
    pytest.param({"experiment": "ScalingStudy", "grids": {"N": [2.5, 3, 4]}},
                 "config error: grids.N[0]", id="scaling-fractional-n"),
    pytest.param({"experiment": "ScalingStudy", "grids": {"N": {"start": 1, "stop": 3, "step": 0.5}}},
                 "config error: grids.N.step", id="scaling-fractional-step"),
    pytest.param({"experiment": "ToyModelStudy", "grids": {"N": [2.5, 3, 4]}},
                 "config error: grids.N[0]", id="toy-fractional-n"),
    pytest.param({"experiment": "PhaseSweep", "grids": {"N": 3, "phi": [0.1, "x"]}},
                 "config error: grids.phi[1]", id="string-in-list"),
    pytest.param({"experiment": "PrepareFock",
                  "grids": {"N": 3, "schedule": {"kind": "gaussian", "sigma": 0.9}}},
                 "config error: grids.schedule", id="schedule-mapping"),
    pytest.param({"experiment": "PrepareFock", "grids": {"N": 3, "gaussian_sigma": "0.9"}},
                 "config error: grids.gaussian_sigma", id="string-gaussian-sigma"),
    pytest.param({"experiment": "PrepareFock",
                  "grids": {"N": 3, "schedule": [{"kind": "sinusoidal", "theta": "1.5"}]}},
                 "config error: grids.schedule[0].theta", id="string-schedule-theta"),
    pytest.param({"experiment": "PrepareFock",
                  "grids": {"N": 3, "schedule": [{"kind": "sinusoidal", "theta": 7.0}]}},
                 "config error: grids.schedule[0]: theta must be in", id="schedule-theta-range"),
    pytest.param({"experiment": "ResolvedSweep", "grids": {"alpha": 1.0, "m": 0}},
                 "m must be in [1, 6]", id="cascade-depth"),
    pytest.param({"experiment": "ResolvedSweep", "grids": {"alpha": 1.0, "m": 7}},
                 "m must be in [1, 6]", id="cascade-depth-above-range"),
    pytest.param({"experiment": "ResolvedSweep", "grids": {"alpha": 1.0, "m": 5000}},
                 "m must be in [1, 6]", id="cascade-depth-past-ceiling"),
    pytest.param({"experiment": "ResolvedSweep", "grids": {"alpha": 1.0, "m": True}},
                 "config error: grids.m: must be an integer", id="boolean-cascade-depth"),
    pytest.param(dict(DISPLACEMENT, device={"T_M": "1e-6"}), "config error: device.T_M", id="string-device"),
    pytest.param(dict(DISPLACEMENT, device={"kappa1": True}), "config error: device.kappa1",
                 id="boolean-device"),
    pytest.param({"experiment": "DisplacementSweep", "grids": {"N": 2, "beta": [math.nan, 0.1]}},
                 "config error: grids.beta[0]: must be a finite number", id="nan-in-list"),
    pytest.param({"experiment": "PhaseSweep", "grids": {"N": 2, "phi": {"start": 0.0, "stop": math.inf,
                  "step": 0.1}}}, "config error: grids.phi.stop", id="infinite-stop"),
    pytest.param(dict(DISPLACEMENT, device={"T_M": -math.inf}), "config error: device.T_M",
                 id="infinite-device"),
    pytest.param({"experiment": "ResolvedSweep", "grids": {"alpha": 10**400, "m": 3}},
                 "config error: grids.alpha: must be a finite number", id="integer-past-float-range"),
    pytest.param({"experiment": "ResolvedSweep", "grids": {"alpha": 1.0e6, "m": 3}},
                 "config error: grids.alpha: needs a truncation above dim", id="alpha-past-ceiling"),
    pytest.param({"experiment": "DisplacementSweep", "grids": {"N": 3_000_000, "beta": [0.1]}},
                 "config error: grids.N: needs a truncation above dim", id="photons-past-ceiling"),
    pytest.param({"experiment": "DisplacementSweep", "grids": {"N": 10**400, "beta": [0.1]}},
                 "config error: grids.N: needs a truncation above dim", id="photons-past-float-range"),
    pytest.param({"experiment": "ResolvedSweep", "grids": {"alpha": 1.0e200, "m": 3}},
                 "config error: grids.alpha: needs a truncation above dim", id="alpha-square-overflows"),
    pytest.param({"experiment": "PrepareFock", "grids": {"N": 3, "init_alpha": 1.0e6}},
                 "config error: grids.init_alpha: needs a truncation above dim", id="init-alpha-past-ceiling"),
    pytest.param({"experiment": "PrepareFock", "grids": {"N": 10**400}},
                 "config error: grids.N: needs a truncation above dim", id="fock-n-past-ceiling"),
]


class TestLoadConfig:
    def test_valid_config(self, tmp_path):
        cfg = load_config(_write_config(tmp_path / "c.yaml", DISPLACEMENT))
        assert cfg.experiment == "DisplacementSweep"
        assert cfg.seed == 11 and cfg.shots == 2000

    def test_unknown_top_level_key_names_field(self, tmp_path):
        bad = dict(DISPLACEMENT, bogus=1)
        with pytest.raises(ConfigError) as err:
            load_config(_write_config(tmp_path / "c.yaml", bad))
        assert "bogus" in str(err.value)

    def test_unknown_experiment(self, tmp_path):
        bad = dict(DISPLACEMENT, experiment="Nope")
        with pytest.raises(ConfigError) as err:
            load_config(_write_config(tmp_path / "c.yaml", bad))
        assert "experiment" in str(err.value)

    def test_unknown_device_field(self, tmp_path):
        bad = dict(DISPLACEMENT, device={"kappa9": 1.0})
        with pytest.raises(ConfigError) as err:
            load_config(_write_config(tmp_path / "c.yaml", bad))
        assert "kappa9" in str(err.value)

    def test_bad_shots(self, tmp_path):
        bad = dict(DISPLACEMENT, shots=-5)
        with pytest.raises(ConfigError):
            load_config(_write_config(tmp_path / "c.yaml", bad))

    def test_bad_seed(self, tmp_path):
        bad = dict(DISPLACEMENT, seed="abc")
        with pytest.raises(ConfigError):
            load_config(_write_config(tmp_path / "c.yaml", bad))

    def test_device_override(self, tmp_path):
        cfg = load_config(
            _write_config(tmp_path / "c.yaml", dict(DISPLACEMENT, device={"T_M": 1e-6}))
        )
        assert cfg.device.T_M == pytest.approx(1e-6)


class TestRun:
    def test_writes_csv_with_provenance(self, tmp_path):
        cfg = load_config(_write_config(tmp_path / "c.yaml", DISPLACEMENT))
        paths = run(cfg, out_dir=tmp_path / "out")
        csv_path = [p for p in paths if p.suffix == ".csv"][0]
        text = csv_path.read_text()
        header = [line for line in text.splitlines() if line.startswith("# ")]
        assert any(f"fockmet version = {__version__}" in line for line in header)
        assert any("seed = 11" in line for line in header)
        assert any("shots = 2000" in line for line in header)
        body = [line for line in text.splitlines() if not line.startswith("#")]
        assert body[0].startswith("beta")
        assert len(body) == 1 + 21

    def test_twelve_significant_digits(self, tmp_path):
        cfg = load_config(
            _write_config(tmp_path / "c.yaml", dict(DISPLACEMENT, shots=None))
        )
        paths = run(cfg, out_dir=tmp_path / "out")
        csv_path = [p for p in paths if p.suffix == ".csv"][0]
        rows = [l for l in csv_path.read_text().splitlines() if not l.startswith("#")][1:]
        # beta = 0.15 row: p_g to 12 significant digits
        from fockmet import parity_curve_ideal

        value = float(rows[3].split(",")[1])
        assert value == pytest.approx(parity_curve_ideal(4, 0.15), rel=1e-11)

    def test_threads_do_not_change_output(self, tmp_path):
        cfg = load_config(_write_config(tmp_path / "c.yaml", DISPLACEMENT))
        a = run(cfg, out_dir=tmp_path / "a", threads=1)
        b = run(cfg, out_dir=tmp_path / "b", threads=4)
        assert a[1].read_bytes() == b[1].read_bytes()

    def test_env_var_overrides_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTDIR_ENV, str(tmp_path / "env_out"))
        cfg = load_config(_write_config(tmp_path / "c.yaml", DISPLACEMENT))
        paths = run(cfg, out_dir=tmp_path / "ignored")
        assert all(p.parent == tmp_path / "env_out" for p in paths)

    def test_config_echo_round_trips(self, tmp_path):
        cfg = load_config(_write_config(tmp_path / "c.yaml", DISPLACEMENT))
        paths = run(cfg, out_dir=tmp_path / "out")
        echo = yaml.safe_load(paths[0].read_text())
        assert echo["experiment"] == "DisplacementSweep"
        assert echo["seed"] == 11


class TestExperiments:
    @pytest.mark.parametrize(
        "payload",
        [
            {"experiment": "PhaseSweep", "grids": {"N": 3, "phi": {"start": 0.0, "stop": 0.4, "step": 0.02}}},
            {"experiment": "RamseyScan", "grids": {"n_values": [3, 5]}},
            {"experiment": "PrepareFock", "grids": {"N": 5}},
            {"experiment": "ResolvedSweep", "grids": {"alpha": 1.5, "m": 3}},
            {"experiment": "ScalingStudy", "grids": {"N": {"start": 10, "stop": 20, "step": 2}}},
            {"experiment": "ToyModelStudy", "grids": {"N": {"start": 1, "stop": 30, "step": 1}}},
            {"experiment": "WignerMap", "grids": {"N": 1, "re": {"start": -1.0, "stop": 1.0, "step": 0.5}, "im": [0.0]}},
        ],
    )
    def test_every_runner_produces_output(self, tmp_path, payload):
        cfg = load_config(_write_config(tmp_path / "c.yaml", payload))
        paths = run(cfg, out_dir=tmp_path / "out")
        assert paths[1].exists() and paths[1].stat().st_size > 0

    def test_explicit_beta_list(self, tmp_path):
        payload = {
            "experiment": "DisplacementSweep",
            "grids": {"N": 2, "beta": [0.0, 0.1, 0.2]},
        }
        cfg = load_config(_write_config(tmp_path / "c.yaml", payload))
        paths = run(cfg, out_dir=tmp_path / "out")
        rows = [l for l in paths[1].read_text().splitlines() if not l.startswith("#")]
        assert len(rows) == 1 + 3

    def test_missing_grid_key(self, tmp_path):
        payload = {"experiment": "DisplacementSweep", "grids": {"beta": [0.0, 0.1]}}
        cfg = load_config(_write_config(tmp_path / "c.yaml", payload))
        with pytest.raises(ConfigError) as err:
            run(cfg, out_dir=tmp_path / "out")
        assert "N" in str(err.value)


class TestShippedConfigs:
    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
    def test_validates_and_runs(self, tmp_path, path, capsys):
        assert main(["validate", str(path)]) == 0
        assert main(["run", str(path), "--out", str(tmp_path)]) == 0
        assert len(list(tmp_path.glob("*_results.csv"))) == 1

    def test_wigner_map_matches_cahill_glauber(self, tmp_path):
        path = next(p for p in CONFIGS if p.name == "wigner_map.yaml")
        cfg = load_config(path)
        n = cfg.grids["N"]
        rows = np.array(_csv_rows(run(cfg, out_dir=tmp_path)[1]), dtype=float)
        assert rows.shape == (3721, 3)
        r2 = rows[:, 0] ** 2 + rows[:, 1] ** 2
        exact = (2.0 / math.pi) * (-1.0) ** n * np.exp(-2.0 * r2) * eval_laguerre(n, 4.0 * r2)
        assert np.max(np.abs(rows[:, 2] - exact)) <= 1e-12


class TestWignerMap:
    def test_closed_form_matches_dense_wigner(self, tmp_path):
        grid = {"start": -1.0, "stop": 1.0, "step": 0.25}
        payload = {"experiment": "WignerMap", "grids": {"N": 4, "re": grid, "im": grid}}
        paths = run(load_config(_write_config(tmp_path / "c.yaml", payload)), out_dir=tmp_path)
        rho = fock_state(4, HilbertSpec(60)).to_mixed()
        rows = _csv_rows(paths[1])
        assert len(rows) == 81
        for re_alpha, im_alpha, w in rows:
            alpha = complex(float(re_alpha), float(im_alpha))
            assert abs(alpha) <= 1.5
            assert float(w) == pytest.approx(wigner_value(rho, alpha), abs=1e-12)

    def test_row_order_is_im_outer_re_inner(self, tmp_path):
        payload = {"experiment": "WignerMap", "grids": {"N": 1, "re": [0.0, 0.5], "im": [-1.0, 1.0]}}
        paths = run(load_config(_write_config(tmp_path / "c.yaml", payload)), out_dir=tmp_path)
        points = [(float(x), float(y)) for x, y, _ in _csv_rows(paths[1])]
        assert points == [(0.0, -1.0), (0.5, -1.0), (0.0, 1.0), (0.5, 1.0)]


class TestSampling:
    RAMSEY = {
        "experiment": "RamseyScan",
        "grids": {"theta": {"start": 0.0, "stop": 6.0, "step": 0.1}},
        "shots": 100,
        "seed": 5,
    }

    def _trace_values(self, tmp_path, n_values):
        payload = dict(self.RAMSEY, grids=dict(self.RAMSEY["grids"], n_values=n_values))
        path = _write_config(tmp_path / f"r{len(n_values)}.yaml", payload)
        paths = run(load_config(path), out_dir=tmp_path / f"out{len(n_values)}")
        return [row[2] for row in _csv_rows(paths[1])]

    def test_ramsey_traces_draw_independent_noise(self, tmp_path):
        both = self._trace_values(tmp_path, [3, 3])
        first, second = both[: len(both) // 2], both[len(both) // 2 :]
        assert first != second
        # The first trace draws exactly what a one-trace run draws.
        assert first == self._trace_values(tmp_path, [3])


class TestMain:
    def test_version(self, capsys):
        assert main(["version"]) == 0
        assert capsys.readouterr().out.strip() == __version__

    def test_validate_ok(self, tmp_path, capsys):
        path = _write_config(tmp_path / "c.yaml", DISPLACEMENT)
        assert main(["validate", path]) == 0
        assert "DisplacementSweep" in capsys.readouterr().out

    def test_validate_failure_names_field_and_writes_nothing(self, tmp_path, capsys):
        bad = dict(DISPLACEMENT, shots="many")
        path = _write_config(tmp_path / "c.yaml", bad)
        before = set(tmp_path.iterdir())
        assert main(["validate", path]) == 2
        assert "shots" in capsys.readouterr().err
        assert set(tmp_path.iterdir()) == before

    def test_run_with_seed_and_out(self, tmp_path, capsys):
        path = _write_config(tmp_path / "c.yaml", DISPLACEMENT)
        out = tmp_path / "results"
        assert main(["run", path, "--seed", "99", "--out", str(out)]) == 0
        csv_files = list(out.glob("*_results.csv"))
        assert len(csv_files) == 1
        assert "seed = 99" in csv_files[0].read_text()

    def test_validate_is_a_dry_run(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        path = _write_config(tmp_path / "c.yaml", DISPLACEMENT)
        assert main(["validate", path]) == 0
        assert os.listdir(tmp_path) == ["c.yaml"]

    @pytest.mark.parametrize("below_file", [False, True], ids=["existing-file", "below-a-file"])
    def test_uncreatable_out_is_a_user_error(self, tmp_path, capsys, below_file):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / "sub" if below_file else blocker
        path = _write_config(tmp_path / "c.yaml", DISPLACEMENT)
        assert main(["run", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip()
        assert str(out) in err and len(err.splitlines()) == 1
        assert "cannot read config" not in err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "missing.yaml")]) == 2

    def test_threads_below_one_is_a_user_error(self, tmp_path, capsys):
        path = _write_config(tmp_path / "c.yaml", DISPLACEMENT)
        with pytest.raises(ValueError):
            run(load_config(path), out_dir=tmp_path / "a", threads=0)
        assert main(["run", path, "--threads", "0", "--out", str(tmp_path / "b")]) == 2
        err = capsys.readouterr().err.strip()
        assert "threads" in err and len(err.splitlines()) == 1
        assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()

    def test_model_breakdown_is_a_user_error(self, tmp_path, capsys):
        payload = {"experiment": "ToyModelStudy", "grids": {"N": {"start": 1, "stop": 200, "step": 1}}}
        path = _write_config(tmp_path / "c.yaml", payload)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.strip()
        assert "ModelBreakdownError" in err and len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "override, field",
        [
            ({"grids": {"N": True, "beta": [0.0, 0.1]}}, "grids.N"),
            ({"shots": True}, "shots"),
            ({"seed": True}, "seed"),
        ],
        ids=["N", "shots", "seed"],
    )
    def test_validate_rejects_booleans_for_integers(self, tmp_path, capsys, override, field):
        path = _write_config(tmp_path / "c.yaml", dict(DISPLACEMENT, **override))
        assert main(["validate", path]) == 2
        assert field in capsys.readouterr().err

    def test_run_rejects_boolean_grid_integer(self, tmp_path):
        config = RunConfig(experiment="DisplacementSweep", grids={"N": True, "beta": [0.0, 0.1]})
        with pytest.raises(ConfigError, match="grids.N"):
            run(config, out_dir=tmp_path)

    @pytest.mark.parametrize("payload, field", BAD_GRIDS)
    def test_run_rejects_bad_grid(self, tmp_path, capsys, payload, field):
        path = _write_config(tmp_path / "c.yaml", payload)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("config error") and field in err and len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("payload, expected", REJECTED)
def test_validate_agrees_with_run(tmp_path, monkeypatch, capsys, payload, expected):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(OUTDIR_ENV, raising=False)
    path = _write_config(tmp_path / "c.yaml", payload)
    assert main(["validate", path]) == 2
    validate_err = capsys.readouterr().err.strip()
    assert os.listdir(tmp_path) == ["c.yaml"]
    assert main(["run", path]) == 2
    run_err = capsys.readouterr().err.strip()
    assert validate_err == run_err and len(run_err.splitlines()) == 1
    assert expected in run_err
    assert os.listdir(tmp_path) == ["c.yaml"]


def test_truncation_ceiling():
    # The ceiling admits the largest photon number the package is built for.
    assert _truncation(400, "grids.N") == default_spec(400)
    assert default_spec(400).dim == 540 <= MAX_DIM
    last = max(n for n in range(MAX_DIM) if default_spec(n).dim <= MAX_DIM)
    assert _truncation(last + 0.5, "grids.alpha").dim <= MAX_DIM
    for photons in (last + 1, 1.0e12, math.inf):
        with pytest.raises(ConfigError, match="grids.alpha"):
            _truncation(photons, "grids.alpha")


def test_cli_import_loads_no_scipy():
    code = "import sys, fockmet.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
