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


def test_write_csv_bytes_equal_fmt17_per_cell(tmp_path):
    # write_csv formats a row at a time; each cell must read as fmt17 renders it
    cells = [0, -3, 2 ** 70, np.int64(-5), np.int64(2 ** 62 + 1), np.int32(9),
             True, False, np.bool_(True), 0.1, 1.0 / 3.0, np.float64(-1e300),
             np.float32(0.1), 0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf,
             5e-324, -2.2250738585072014e-308 / 3, "txt", np.str_("s,t")]
    rows = [tuple(cells), cells[::-1], list(cells), (1.5, "a"), (2, 0.25)]
    path = tmp_path / "cells.csv"
    write_csv(path, ["h"], rows)
    expected = "h\n" + "".join(
        ",".join(c if isinstance(c, str) else fmt17(c) for c in row) + "\n"
        for row in rows)
    assert path.read_bytes() == expected.encode()


def test_weight_params_carry_only_their_own_kind(tmp_path):
    # j0 belongs to the interior weight; exterior and mobility weights have none
    linear = ("profile.kind = linear\nprofile.lambda = 1.0\ngrid.n_r = 200\n"
              "grid.r_max = 16.0\nchannels.j_max = 8\nwindow.E0 = 0.9\n")
    expected = {"coupled": {"interior": True, "exterior": False},
                "linear": {"mobility": False}}
    for name, text in (("coupled", COUPLED_CFG), ("linear", linear)):
        out = tmp_path / name
        assert run("validate-weights", write_cfg(tmp_path, text, f"{name}.cfg"),
                   str(out)) == 0
        report = json.loads((out / "weights_report.json").read_text())
        constants = json.loads((out / "manifest.json").read_text())["constants"]
        assert set(report) - {"forbidden_region", "all_passed"} == set(expected[name])
        for kind, has_j0 in expected[name].items():
            assert ("j0" in report[kind]["params"]) == has_j0, kind
            assert (f"{kind}_j0" in constants) == has_j0, kind


def test_weight_parameter_keys_are_not_read(tmp_path):
    # weight parameters always come from the grid scans; a config that still
    # sets them gets them listed as unused and the built parameters unchanged
    keys = {"weights.eps": 0.3, "weights.j0": 2, "weights.c": 0.1, "weights.eta": 2.0}
    text = COUPLED_CFG + "".join(f"{k} = {v}\n" for k, v in keys.items())
    out, plain = tmp_path / "keys", tmp_path / "plain"
    assert run("validate-weights", write_cfg(tmp_path, text), str(out)) == 0
    assert run("validate-weights", write_cfg(tmp_path, COUPLED_CFG, "plain.cfg"),
               str(plain)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(keys) <= set(manifest["unused_keys"])
    assert (out / "weights_report.json").read_bytes() \
        == (plain / "weights_report.json").read_bytes()
    linear = ("profile.kind = linear\nprofile.lambda = 1.0\ngrid.n_r = 200\n"
              "grid.r_max = 16.0\nchannels.j_max = 8\nwindow.E0 = 0.9\n"
              "weights.delta1 = 0.1\nweights.eta1 = 9.0\n")
    assert run("validate-weights", write_cfg(tmp_path, linear, "linear.cfg"),
               str(tmp_path / "linear")) == 0
    manifest = json.loads((tmp_path / "linear" / "manifest.json").read_text())
    assert {"weights.delta1", "weights.eta1"} <= set(manifest["unused_keys"])


def test_validate_weights_evaluates_the_potential_table_a_few_times(tmp_path, monkeypatch):
    # each consumer (assembly, both scans, weight_validate per weight, the
    # forbidden-region check) evaluates V_j once for all channels
    from fluxlab.flux import FluxProfile
    calls = []
    table = FluxProfile.effective_potential

    def counted(self, j, r):
        calls.append(j)
        return table(self, j, r)

    monkeypatch.setattr(FluxProfile, "effective_potential", counted)
    assert run("validate-weights", write_cfg(tmp_path, COUPLED_CFG),
               str(tmp_path / "out")) == 0
    assert len(calls) <= 6, calls
