import json
import os

import numpy as np
import pytest

from fluxlab.cli import main, run
from fluxlab.runio import ConfigError, RunConfig, fmt17, read_csv, write_csv


BASE_CFG = """
profile.kind = uniform_field
profile.B0 = 2.0
grid.n_r = 400
grid.r_max = 10.0
channels.j_max = 2
window.E0 = 3.0
"""

COUPLED_CFG = """
profile.kind = power_law
profile.lambda = 1.0
profile.sigma = 1.5
grid.n_r = 160
grid.r_max = 10.0
channels.j_max = 6
w.form = gevrey_exp
w.amp = 0.2
w.a = 1.5
w.mu = 0.5
w.s = 1.0
window.E0 = 1.0
time.t0 = 1.0
time.t1 = 50.0
time.n = 12
seed.j0 = 4
seed.r0 = 2.6
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_config_parsing_and_typed_access(tmp_path):
    path = write_cfg(tmp_path, "a.x = 3\nb.y = 2.5  # trailing comment\nc.z = hello\n")
    cfg = RunConfig.parse(path)
    assert cfg.get_int("a.x") == 3
    assert cfg.get_float("b.y") == 2.5
    assert cfg.get_str("c.z") == "hello"
    assert cfg.get_float("missing.key", 7.0) == 7.0


def test_config_errors_name_the_key(tmp_path):
    path = write_cfg(tmp_path, "a.x = notanumber\n")
    cfg = RunConfig.parse(path)
    with pytest.raises(ConfigError) as err:
        cfg.get_int("a.x")
    assert "a.x" in str(err.value)
    with pytest.raises(ConfigError) as err:
        cfg.get_float("grid.n_r", required=True)
    assert "grid.n_r" in str(err.value)
    with pytest.raises(ConfigError):
        RunConfig.parse(write_cfg(tmp_path, "a.x = 1\na.x = 2\n", "dup.cfg"))
    with pytest.raises(ConfigError):
        RunConfig.parse(write_cfg(tmp_path, "just some words\n", "bad.cfg"))


def test_missing_window_key_gives_exit_2_naming_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE_CFG.replace("window.E0 = 3.0", ""))
    status = main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")])
    assert status == 2
    assert "window.E0" in capsys.readouterr().err


def test_unknown_subcommand_rejected():
    with pytest.raises(ValueError):
        run("not-a-command", "x", "y")


def test_spectrum_landau_minimum(tmp_path):
    cfg = write_cfg(tmp_path, BASE_CFG)
    out = tmp_path / "out"
    assert run("spectrum", cfg, str(out)) == 0
    header, rows = read_csv(out / "eigenvalues.csv")
    assert header == ["index", "lambda"]
    vals = np.array([float(r[1]) for r in rows])
    assert vals.min() == pytest.approx(2.0, rel=1e-3)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["constants"]["e0"] == pytest.approx(2.0, rel=1e-3)
    assert "wall_time_s" in manifest


def test_project_metadata(tmp_path):
    cfg = write_cfg(tmp_path, BASE_CFG)
    out = tmp_path / "out"
    assert run("project", cfg, str(out), verify=True) == 0
    meta = json.loads((out / "projection.json").read_text())
    assert meta["rank"] > 0
    assert meta["idempotency_error"] <= 1e-10
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["verify"]["passed"]


def test_evolve_with_zero_w_has_conserved_ratio(tmp_path):
    text = BASE_CFG + "time.t0 = 1.0\ntime.t1 = 100.0\ntime.n = 16\n" \
        + "seed.kind = eigenvector\nseed.index = 0\nevolve.nu = 1.0\n"
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert run("evolve", cfg, str(out), verify=True) == 0
    report = json.loads((out / "evolve_report.json").read_text())
    assert report["thm1"]["passed"]
    # single-eigenvector seed: ratio is constant over the grid
    assert report["thm1"]["last_quartile_mean"] == pytest.approx(
        report["thm1"]["first_quartile_mean"], rel=1e-9)
    assert report["norm_drift"] <= 1e-10


def test_full_pipeline_coupled_model(tmp_path):
    cfg = write_cfg(tmp_path, COUPLED_CFG)
    for command in ("tunnel", "validate-weights", "evolve"):
        out = tmp_path / command
        assert run(command, cfg, str(out), verify=True) == 0, command
    weights = json.loads((tmp_path / "validate-weights" / "weights_report.json").read_text())
    assert weights["all_passed"]
    tunnel = json.loads((tmp_path / "tunnel" / "tunnel_report.json").read_text())
    assert tunnel["interior"]["tail_ratio"] < 1.0


def test_determinism_bitwise_artifacts(tmp_path):
    cfg = write_cfg(tmp_path, COUPLED_CFG)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run("tunnel", cfg, str(out1)) == 0
    assert run("tunnel", cfg, str(out2)) == 0
    for name in sorted(os.listdir(out1)):
        b1 = (out1 / name).read_bytes()
        b2 = (out2 / name).read_bytes()
        if name == "manifest.json":
            m1 = json.loads(b1)
            m2 = json.loads(b2)
            m1.pop("wall_time_s")
            m2.pop("wall_time_s")
            assert m1 == m2
        else:
            assert b1 == b2, name


def test_warnings_reach_stderr_and_manifest(tmp_path, capsys):
    # the lowest Landau level is 2, so a window up to 1 selects nothing
    text = BASE_CFG.replace("window.E0 = 3.0", "window.E0 = 1.0\nwindow.delta0 = 0.1")
    out = tmp_path / "out"
    assert run("project", write_cfg(tmp_path, text), str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["warnings"] == [
        "spectral window selected no eigenvalues (rank-0 projection)"]
    assert "rank-0 projection" in capsys.readouterr().err
    assert run("project", write_cfg(tmp_path, BASE_CFG), str(tmp_path / "ok")) == 0
    assert json.loads((tmp_path / "ok" / "manifest.json").read_text())["warnings"] == []


def test_mobility_requires_linear_w_free_model(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE_CFG)
    assert main(["mobility", "--config", cfg, "--out", str(tmp_path / "m")]) == 2
    assert "profile.kind" in capsys.readouterr().err


def test_fmt17_and_csv_round_trip(tmp_path):
    x = 0.1234567890123456789
    assert float(fmt17(x)) == x
    assert fmt17(3) == "3"
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [(1.0 / 3.0, 2), ("txt", np.pi)])
    header, rows = read_csv(path)
    assert header == ["a", "b"]
    assert float(rows[0][0]) == 1.0 / 3.0
    assert float(rows[1][1]) == np.pi
