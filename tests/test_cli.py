import hashlib
import json
import math
import os
import platform
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

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

# w.amp = 0.5 widens Weyl's bracket at the window top to [3, 5], so the
# window count takes the node-block inertia (spectral.band_inertia)
STRONG_CFG = COUPLED_CFG.replace("w.amp = 0.2", "w.amp = 0.5")

LINEAR_CFG = """
profile.kind = linear
profile.lambda = 1.0
grid.n_r = 200
grid.r_max = 16.0
channels.j_max = 8
window.E0 = 0.9
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


def next_below(x):
    return math.nextafter(x, -math.inf)


def next_above(x):
    return math.nextafter(x, math.inf)


@pytest.mark.parametrize("bound, value, admitted", [
    ({"above": 0.0}, 0.0, False), ({"above": 0.0}, next_below(0.0), False),
    ({"above": 0.0}, next_above(0.0), True),
    ({"at_least": 1.0}, 1.0, True), ({"at_least": 1.0}, next_below(1.0), False),
    ({"at_least": 1.0}, next_above(1.0), True),
    ({"at_most": 1.0}, 1.0, True), ({"at_most": 1.0}, next_below(1.0), True),
    ({"at_most": 1.0}, next_above(1.0), False),
], ids=["above_at", "above_below", "above_above", "at_least_at", "at_least_below",
        "at_least_above", "at_most_at", "at_most_below", "at_most_above"])
def test_a_float_key_is_refused_outside_its_declared_bound(bound, value, admitted):
    cfg = RunConfig(raw={"k.x": repr(value)})
    if admitted:
        assert cfg.get_float("k.x", **bound) == value
    else:
        with pytest.raises(ConfigError, match=r"^k\.x: must be "):
            cfg.get_float("k.x", **bound)


@pytest.mark.parametrize("bound, value, admitted", [
    ({"above": 0}, 0, False), ({"above": 0}, -1, False), ({"above": 0}, 1, True),
    ({"at_least": 8}, 8, True), ({"at_least": 8}, 7, False), ({"at_least": 8}, 9, True),
    ({"at_most": 3}, 3, True), ({"at_most": 3}, 2, True), ({"at_most": 3}, 4, False),
], ids=["above_at", "above_below", "above_above", "at_least_at", "at_least_below",
        "at_least_above", "at_most_at", "at_most_below", "at_most_above"])
def test_an_integer_key_is_refused_outside_its_declared_bound(bound, value, admitted):
    cfg = RunConfig(raw={"k.n": str(value)})
    if admitted:
        assert cfg.get_int("k.n", **bound) == value
    else:
        with pytest.raises(ConfigError, match=r"^k\.n: must be "):
            cfg.get_int("k.n", **bound)


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400"])
def test_a_float_key_refuses_a_non_finite_number(text):
    with pytest.raises(ConfigError, match=r"^k\.x: expected a finite number"):
        RunConfig(raw={"k.x": text}).get_float("k.x")


def test_a_default_outside_the_bound_is_returned_unchecked():
    cfg = RunConfig()
    assert cfg.get_float("k.x", -1.0, above=0) == -1.0
    assert math.isnan(cfg.get_float("k.y", math.nan, at_least=1, at_most=2))
    assert cfg.get_int("k.n", 0, at_least=1) == 0


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


@pytest.mark.parametrize("command", ["spectrum", "project", "tunnel", "validate-weights",
                                     "evolve", "mobility"])
def test_determinism_bitwise_artifacts(tmp_path, command):
    # mobility needs linear flux and W = 0; every other subcommand runs the
    # coupled model and the strongly coupled one, whose count is the inertia
    texts = [LINEAR_CFG] if command == "mobility" else [COUPLED_CFG, STRONG_CFG]
    for i, text in enumerate(texts):
        cfg = write_cfg(tmp_path, text, f"run{i}.cfg")
        out1, out2 = tmp_path / f"{i}-r1", tmp_path / f"{i}-r2"
        assert run(command, cfg, str(out1)) == 0
        assert run(command, cfg, str(out2)) == 0
        assert sorted(os.listdir(out1)) == sorted(os.listdir(out2))
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


def test_validate_weights_on_an_empty_window_sets_e0_to_E0(tmp_path):
    # below the lowest Landau level, 2: e0 = E0, and the manifest keeps the
    # rank-0 warning the window solve's projection used to raise
    text = BASE_CFG.replace("window.E0 = 3.0", "window.E0 = 1.0\nwindow.delta0 = 0.1")
    out = tmp_path / "out"
    assert run("validate-weights", write_cfg(tmp_path, text), str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["constants"]["e0"] == 1.0
    assert manifest["constants"]["E_tilde"] == pytest.approx(1.1, rel=1e-15)
    assert manifest["constants"]["e0_solver"] == "channel_tridiagonal"
    assert manifest["constants"]["e0_lower_bound"] == pytest.approx(2.0, rel=1e-3)
    assert manifest["warnings"] == [
        "spectral window selected no eigenvalues (rank-0 projection)"]
    # the report bytes for this config; they pin both twisted lambda_min,
    # the Ritz values that polish the tridiagonal route's bisected minimum,
    # their lower bounds, and each weight's derivative margin over F' != 0
    report = (out / "weights_report.json").read_bytes()
    assert json.loads(report)["all_passed"]
    assert hashlib.sha256(report).hexdigest() \
        == "3ab03b0ff6c36182f22cdd77348ef19f9383d7ccecf7f5d59cef22fde8d0e61a"


def test_an_empty_window_without_delta0_takes_a_tenth_of_the_gap_to_the_spectrum(tmp_path):
    # below the lowest Landau level, about 2, with no window.delta0: e0 = E0,
    # so 0.1 (E0 - e0) would be 0, and delta0 is 0.1 (lambda_min - E0)
    # instead; every window subcommand exits 0 with the rank-0 warning
    text = BASE_CFG.replace("window.E0 = 3.0", "window.E0 = 1.0")
    cfg = write_cfg(tmp_path, text)
    for command in ("spectrum", "project", "tunnel", "validate-weights", "evolve"):
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out)]) == 0, command
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["warnings"] == [
            "spectral window selected no eigenvalues (rank-0 projection)"], command
        constants = manifest["constants"]
        assert constants["e0"] == 1.0, command
        if "delta0" in constants:
            assert constants["delta0"] == pytest.approx(0.1, rel=1e-3), command
        if "E_tilde" in constants:
            assert constants["E_tilde"] == pytest.approx(1.1, rel=1e-3), command


def test_lowest_eigenvalue_just_above_E0_leaves_the_window_empty(tmp_path):
    # the lowest Landau level, about 2, lies above E0 = 1.96 but below the
    # top the window solve reaches: e0 = E0, not the level, so the window is
    # empty rather than inverted
    text = BASE_CFG.replace("window.E0 = 3.0", "window.E0 = 1.96\nwindow.delta0 = 0.1")
    cfg = write_cfg(tmp_path, text)
    for command in ("spectrum", "project", "validate-weights"):
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out)]) == 0, command
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["constants"]["e0"] == 1.96, command
        assert manifest["warnings"] == [
            "spectral window selected no eigenvalues (rank-0 projection)"], command


def test_validate_weights_makes_no_window_solve(tmp_path, monkeypatch):
    # e0 is H's lowest eigenvalue, certified without a window eigensolve, and
    # equals the spectrum's e0 to the accuracy of the route that found it
    from fluxlab import spectral

    for name, text in (("coupled", COUPLED_CFG), ("linear", LINEAR_CFG)):
        cfg = write_cfg(tmp_path, text, f"{name}.cfg")
        assert run("spectrum", cfg, str(tmp_path / f"{name}-spectrum")) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("validate-weights ran a window solve")

    monkeypatch.setattr(spectral, "diagonalize", refuse)
    monkeypatch.setattr(spectral, "band_inertia", refuse)
    for name, solver in (("coupled", "band_cholesky_lanczos"),
                         ("linear", "channel_tridiagonal")):
        out = tmp_path / f"{name}-weights"
        assert run("validate-weights", str(tmp_path / f"{name}.cfg"), str(out)) == 0
        assert json.loads((out / "weights_report.json").read_text())["all_passed"]
        constants = json.loads((out / "manifest.json").read_text())["constants"]
        spectrum = json.loads(
            (tmp_path / f"{name}-spectrum" / "manifest.json").read_text())["constants"]
        assert constants["e0_solver"] == solver
        assert constants["e0_lower_bound"] <= constants["e0"]
        if name == "coupled":
            assert constants["e0"] == pytest.approx(spectrum["e0"], rel=1e-12, abs=0)
        else:
            # both are Ritz values of the window solve's tridiagonal kernel
            tol = np.finfo(float).eps * spectrum["norm_inf"]
            assert abs(constants["e0"] - spectrum["e0"]) <= tol


# the two benchmark models: H's largest norm, and so the widest e0 tolerance
REF_COUPLED_CFG = COUPLED_CFG.replace("grid.n_r = 160", "grid.n_r = 270") \
    .replace("grid.r_max = 10.0", "grid.r_max = 18.0") \
    .replace("channels.j_max = 6", "channels.j_max = 12")
REF_LINEAR_CFG = LINEAR_CFG.replace("grid.n_r = 200", "grid.n_r = 800") \
    .replace("grid.r_max = 16.0", "grid.r_max = 32.0") \
    .replace("channels.j_max = 8", "channels.j_max = 20")


@pytest.mark.parametrize("text", [COUPLED_CFG, LINEAR_CFG, REF_COUPLED_CFG, REF_LINEAR_CFG,
                                  BASE_CFG],
                         ids=["coupled", "linear", "ref-coupled", "ref-linear", "uniform-field"])
def test_validate_weights_and_spectrum_agree_on_e0(tmp_path, text):
    # validate-weights certifies e0 with lowest_eigenvalue, the window
    # subcommands read it off the window solve.  On coupled H both are the
    # lowest pair of shift-inverted Lanczos on one band Cholesky factor below
    # the spectrum, so they agree to rounding in e0 itself; the per-channel
    # routes resolve it to eps |H|_inf
    cfg = write_cfg(tmp_path, text)
    constants = {}
    for command in ("spectrum", "validate-weights"):
        assert run(command, cfg, str(tmp_path / command)) == 0, command
        constants[command] = json.loads(
            (tmp_path / command / "manifest.json").read_text())["constants"]
    e0 = constants["spectrum"]["e0"]
    eps = np.finfo(float).eps
    if constants["spectrum"]["solver"] == "shift_invert_window":
        tol = 4 * eps * max(1.0, abs(e0))
    else:
        tol = eps * constants["spectrum"]["norm_inf"]
    assert abs(constants["validate-weights"]["e0"] - e0) <= tol


@pytest.mark.parametrize("text", [COUPLED_CFG, REF_COUPLED_CFG], ids=["coupled", "ref-coupled"])
def test_coupled_windows_are_counted_by_weyl_and_the_determinant_sign(tmp_path, text):
    # Weyl's bracket from the channel tridiagonals is one wide on both
    # models, the band LU's determinant sign settles it, and the count it
    # picks is the node-block inertia count at the same top
    from fluxlab.cli import _assemble_from_config
    from fluxlab.spectral import WINDOW_MARGIN, band_inertia
    cfg = write_cfg(tmp_path, text)
    assert run("spectrum", cfg, str(tmp_path / "out")) == 0
    constants = json.loads((tmp_path / "out" / "manifest.json").read_text())["constants"]
    assert constants["count_certificate"] == "weyl_determinant_sign"
    n = constants["n_eigenvalues"]
    assert constants["weyl_bracket"] in ([n, n + 1], [n - 1, n])
    h = _assemble_from_config(RunConfig.parse(cfg))[-1]
    top = constants["E0"] * (1 + WINDOW_MARGIN)
    assert n == band_inertia(h.to_band()[0], top)


def test_a_strongly_coupled_window_is_counted_by_the_inertia(tmp_path):
    # a bracket two wide: the node-block inertia gives the count, which is
    # the dense count below the top, and every window subcommand verifies
    from fluxlab.cli import _assemble_from_config
    from fluxlab.spectral import WINDOW_MARGIN
    cfg = write_cfg(tmp_path, STRONG_CFG)
    for command in ("spectrum", "project", "tunnel", "evolve"):
        out = tmp_path / command
        assert run(command, cfg, str(out), verify=True) == 0, command
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["verify"]["passed"], command
        constants = manifest["constants"]
        assert constants["count_certificate"] == "inertia", command
        assert constants["weyl_bracket"] == [3, 5] and constants["n_eigenvalues"] == 4
        assert constants["factor_nnz"] == constants["lu_solves"] == 0
    h = _assemble_from_config(RunConfig.parse(cfg))[-1]
    top = 1.0 + WINDOW_MARGIN                   # E0 = 1
    assert int(np.sum(np.linalg.eigvalsh(h.to_dense()) < top)) == 4


def test_an_empty_coupled_window_factors_h_once(tmp_path, monkeypatch):
    # below the spectrum the sweep still solves H's lowest pair, and that
    # pair gives delta0: each window subcommand builds one band Cholesky
    # factor, and delta0 is the one lowest_eigenvalue gives
    from fluxlab import spectral
    from fluxlab.cli import _assemble_from_config
    text = COUPLED_CFG.replace("window.E0 = 1.0", "window.E0 = 0.5")
    cfg = write_cfg(tmp_path, text)
    lowest = spectral.lowest_eigenvalue(
        _assemble_from_config(RunConfig.parse(cfg))[-1].to_band()[0]).value
    assert lowest > 0.5
    init, shifts = spectral.BandCholesky.__init__, []

    def recorded(self, ab, sigma):
        shifts.append(sigma)
        init(self, ab, sigma)

    monkeypatch.setattr(spectral.BandCholesky, "__init__", recorded)
    for command in ("spectrum", "project", "tunnel", "evolve"):
        shifts.clear()
        out = tmp_path / command
        assert run(command, cfg, str(out)) == 0, command
        assert len(shifts) == 1, command
        constants = json.loads((out / "manifest.json").read_text())["constants"]
        assert constants["e0"] == 0.5 and constants["n_eigenvalues"] == 0, command
        if "delta0" in constants:
            assert constants["delta0"] == 0.1 * (lowest - 0.5), command


WINDOW_SOLVE_KEYS = ("solver", "count_certificate", "weyl_bracket", "coupling_bound",
                     "n_eigenvalues", "factor_nnz", "lu_solves", "sweep_shift",
                     "sweep_shift_route", "cholesky_solves", "residual_max", "norm_inf")


@pytest.mark.parametrize("text, certificate", [(COUPLED_CFG, "weyl_determinant_sign"),
                                               (LINEAR_CFG, "channel_sturm")],
                         ids=["coupled", "linear"])
def test_every_window_subcommand_writes_the_window_solve_diagnostics(tmp_path, text,
                                                                     certificate):
    cfg = write_cfg(tmp_path, text)
    written = {}
    for command in ("spectrum", "project", "tunnel", "evolve"):
        out = tmp_path / command
        assert run(command, cfg, str(out)) == 0, command
        constants = json.loads((out / "manifest.json").read_text())["constants"]
        written[command] = {key: constants[key] for key in WINDOW_SOLVE_KEYS}
        if command == "project":
            meta = json.loads((out / "projection.json").read_text())
            assert constants["gram_error"] == meta["gram_error"]
    diagnostics = written["spectrum"]
    assert all(d == diagnostics for d in written.values())
    assert diagnostics["count_certificate"] == certificate
    if certificate == "channel_sturm":
        assert diagnostics["weyl_bracket"] is diagnostics["coupling_bound"] \
            is diagnostics["sweep_shift"] is diagnostics["sweep_shift_route"] is None
        assert diagnostics["factor_nnz"] == diagnostics["lu_solves"] \
            == diagnostics["cholesky_solves"] == 0
    else:
        assert 0 < diagnostics["coupling_bound"] < 1
        # the LU's only solves are the determinant sign's inverse-power steps
        assert diagnostics["factor_nnz"] > 0 and diagnostics["lu_solves"] == 2
        assert diagnostics["cholesky_solves"] > 0
        assert diagnostics["sweep_shift_route"] == "trial"
        assert diagnostics["sweep_shift"] < json.loads(
            (tmp_path / "spectrum" / "manifest.json").read_text())["constants"]["e0"]


WINDOW_RECORD_KEYS = ("e0", "E0", "delta0", "c0", "E_tilde")


@pytest.mark.parametrize("text", [COUPLED_CFG, LINEAR_CFG], ids=["coupled", "linear"])
def test_every_window_subcommand_writes_one_window_record(tmp_path, text):
    # spectrum, project, tunnel and evolve record the same window, model
    # size, rank and window solve; validate-weights the same window, its e0
    # from H's lowest eigenvalue alone, equal to rounding
    cfg = write_cfg(tmp_path, text)
    keys = WINDOW_RECORD_KEYS + ("dim", "dropped_coupling_tail", "rank") + WINDOW_SOLVE_KEYS
    written = {}
    for command in ("spectrum", "project", "tunnel", "evolve", "validate-weights"):
        out = tmp_path / command
        assert run(command, cfg, str(out)) == 0, command
        written[command] = json.loads((out / "manifest.json").read_text())["constants"]
    record = {key: written["spectrum"][key] for key in keys}
    assert record["rank"] > 0 and record["delta0"] > 0
    for command in ("project", "tunnel", "evolve"):
        assert {key: written[command][key] for key in keys} == record, command
    window = json.loads((tmp_path / "project" / "projection.json").read_text())["window"]
    assert window == {key: record[key] for key in WINDOW_RECORD_KEYS}
    weights = written["validate-weights"]
    assert weights["E0"] == record["E0"] and weights["c0"] == record["c0"]
    for key in ("e0", "delta0", "E_tilde"):
        assert weights[key] == pytest.approx(record[key], rel=1e-12, abs=1e-14), key


def test_evolve_on_a_tabulated_profile_without_sigma_minus_is_a_config_error(tmp_path,
                                                                            capfd):
    # beta = zeta nu / sigma_- is NaN without sigma_-, which would write NaN
    # moments and a theorem-1 verdict that cannot pass
    r = np.linspace(0.01, 12.0, 400)
    table = tmp_path / "flux.csv"
    write_csv(table, ["r", "phi"], zip(r, r ** 1.5))
    text = (f"profile.kind = tabulated\nprofile.table = {table}\ngrid.n_r = 160\n"
            "grid.r_max = 10.0\nchannels.j_max = 6\nwindow.E0 = 1.0\n")
    out = tmp_path / "out"
    assert main(["evolve", "--config", write_cfg(tmp_path, text), "--out", str(out),
                 "--verify"]) == 2
    err = capfd.readouterr().err
    assert err.startswith("config error: profile.sigma_minus:") and "Traceback" not in err
    assert not (out / "observables.csv").exists()


def test_validate_weights_runs_each_lanczos_from_the_trial_shift(tmp_path):
    # e0's Lanczos run and each twisted check's start from a trial shift next
    # to the channel tridiagonals' minimum, which its band Cholesky factor
    # certifies: one pair then converges in 8 solves (21 from Weyl's shift),
    # so a silent return to Weyl's shift breaks the budget
    out = tmp_path / "out"
    assert run("validate-weights", write_cfg(tmp_path, COUPLED_CFG), str(out)) == 0
    constants = json.loads((out / "manifest.json").read_text())["constants"]
    assert constants["e0_shift_route"] == "trial"
    assert 0 < constants["e0_cholesky_solves"] <= 10
    assert constants["e0_lower_bound"] <= constants["e0"]
    report = json.loads((out / "weights_report.json").read_text())
    for name in ("interior", "exterior"):
        gap = report[name]["twisted_gap"]
        assert gap["shift_route"] == "trial", name
        assert 0 < gap["cholesky_solves"] <= 11, name
        assert gap["threshold"] <= gap["lower_bound"] <= gap["lambda_min"], name


@pytest.mark.parametrize("text", [LINEAR_CFG, REF_LINEAR_CFG], ids=["linear", "ref-linear"])
def test_validate_weights_e0_is_the_window_solves_ritz_value(tmp_path, text):
    # on W = 0 both subcommands read e0 from the Ritz step of one kernel on
    # the channel that holds it, so E_tilde and the weights built from it agree
    cfg = write_cfg(tmp_path, text)
    e0 = {}
    for command in ("spectrum", "validate-weights"):
        assert run(command, cfg, str(tmp_path / command)) == 0, command
        e0[command] = json.loads(
            (tmp_path / command / "manifest.json").read_text())["constants"]["e0"]
    assert abs(e0["validate-weights"] - e0["spectrum"]) \
        <= 1e-14 * max(1.0, abs(e0["spectrum"]))


# W = 0 power law with sigma > 2: the channel floors rise with |j|
STEEP_CFG = """
profile.kind = power_law
profile.lambda = 1.0
profile.sigma = 2.5
grid.n_r = 160
grid.r_max = 10.0
channels.j_max = 6
window.E0 = 3.0
"""


@pytest.mark.parametrize("text, channel, outermost", [
    (LINEAR_CFG, 8, True), (COUPLED_CFG, 6, True), (STEEP_CFG, 0, False),
], ids=["linear", "coupled", "steep"])
def test_validate_weights_names_the_channel_that_holds_e0(tmp_path, text, channel,
                                                          outermost):
    out = tmp_path / "out"
    assert run("validate-weights", write_cfg(tmp_path, text), str(out)) == 0
    constants = json.loads((out / "manifest.json").read_text())["constants"]
    assert constants["e0_channel"] == channel
    assert constants["e0_channel_outermost"] is outermost


def test_validate_weights_gives_every_tridiagonal_solve_one_channel(tmp_path, monkeypatch):
    # a tridiagonal solve over more rows than one channel (a value slice
    # over all of H's channel tridiagonals) must not come back
    from fluxlab import grid, spectral

    rows = []
    original = grid._tridiagonal_eigh

    def recorded(d, *args, **kwargs):
        rows.append(len(d))
        return original(d, *args, **kwargs)

    for module in (grid, spectral):
        monkeypatch.setattr(module, "_tridiagonal_eigh", recorded)
    for name, text in (("linear", LINEAR_CFG), ("coupled", COUPLED_CFG)):
        cfg = write_cfg(tmp_path, text, f"{name}.cfg")
        n_r = RunConfig.parse(cfg).get_int("grid.n_r")
        rows.clear()
        assert run("validate-weights", cfg, str(tmp_path / name)) == 0
        assert rows, name
        assert max(rows) <= n_r, name


def test_mobility_csv_writes_each_shifts_resolution(tmp_path):
    from fluxlab.dynamics import mobility_edge_scan
    from fluxlab.grid import build_grid

    assert run("mobility", write_cfg(tmp_path, LINEAR_CFG), str(tmp_path / "out")) == 0
    header, rows = read_csv(str(tmp_path / "out" / "mobility_localized.csv"))
    assert header == ["j", "eigenvalue", "decay_rate", "eigenvalue_shift", "shift_resolution"]
    report = mobility_edge_scan(1.0, build_grid(200, 16.0), 8)
    assert [fmt17(rec.shift_resolution) for rec in report.localized] == [r[4] for r in rows]
    assert rows and all(float(r[4]) > 0 for r in rows)


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
    expected = {"coupled": {"interior": True, "exterior": False},
                "linear": {"mobility": False}}
    for name, text in (("coupled", COUPLED_CFG), ("linear", LINEAR_CFG)):
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
    linear = LINEAR_CFG + "weights.delta1 = 0.1\nweights.eta1 = 9.0\n"
    assert run("validate-weights", write_cfg(tmp_path, linear, "linear.cfg"),
               str(tmp_path / "linear")) == 0
    manifest = json.loads((tmp_path / "linear" / "manifest.json").read_text())
    assert {"weights.delta1", "weights.eta1"} <= set(manifest["unused_keys"])
    # the tunnel parameters, theorem 1's beta = zeta nu / sigma_-, theorem 2's
    # slack and the seed widths are fixed too; zeta and a come from W alone,
    # so a W = 0 run reads no w.zeta; the uniform time grid starts at 0, and
    # W = 0 has no couplings to truncate
    uniform = LINEAR_CFG + "time.kind = uniform\ntime.t1 = 20.0\ntime.n = 8\n"
    for i, (command, base, extra) in enumerate((
            ("tunnel", COUPLED_CFG, {"tunnel.c_plus": 0.3, "tunnel.delta_plus": 0.2,
                                     "tunnel.c_minus": 2.5, "tunnel.delta_minus": 0.1}),
            ("evolve", COUPLED_CFG, {"evolve.beta": 1.0, "evolve.slack": 0.5,
                                     "seed.width_j": 3.0, "seed.width_r": 0.5}),
            ("validate-weights", LINEAR_CFG, {"w.zeta": 0.5}),
            ("evolve", LINEAR_CFG, {"w.zeta": 0.5}),
            ("evolve", uniform, {"time.t0": 3.0}),
            ("spectrum", LINEAR_CFG, {"channels.m_max": 3}))):
        text = base + "".join(f"{k} = {v}\n" for k, v in extra.items())
        out, plain = tmp_path / f"{i}-keys", tmp_path / f"{i}-plain"
        assert run(command, write_cfg(tmp_path, text), str(out)) == 0
        assert run(command, write_cfg(tmp_path, base, "plain.cfg"), str(plain)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(extra) <= set(manifest["unused_keys"]), command
        plain_manifest = json.loads((plain / "manifest.json").read_text())
        assert manifest["constants"] == plain_manifest["constants"], command
        for name in manifest["artifacts"]:
            assert (out / name).read_bytes() == (plain / name).read_bytes(), name
        if command == "tunnel":
            assert {"c_plus", "delta_plus", "c_minus", "delta_minus"} \
                <= set(manifest["constants"])


def test_tunnel_builds_no_mobility_weight(tmp_path):
    # tunnel sums over the interior and exterior weights only; on linear flux
    # with E~ above the edge lam^2 = 1 the mobility weight cannot be built,
    # and tunnel, which never reads it, still runs
    text = LINEAR_CFG.replace("window.E0 = 0.9", "window.E0 = 0.95")
    out = tmp_path / "out"
    assert main(["tunnel", "--config", write_cfg(tmp_path, text), "--out", str(out),
                 "--verify"]) == 0
    assert json.loads((out / "tunnel_report.json").read_text()) == {}
    assert json.loads((out / "manifest.json").read_text())["constants"]["E_tilde"] > 1.0


def test_validate_weights_reports_a_mobility_weight_above_the_edge(tmp_path):
    # E~ above the edge lam^2 = 1 lies outside the mobility weight's
    # hypothesis: the run records why instead of exiting on the build error,
    # and with no weight checked, all_passed is null and --verify fails
    text = LINEAR_CFG.replace("window.E0 = 0.9", "window.E0 = 0.95")
    out = tmp_path / "out"
    assert main(["validate-weights", "--config", write_cfg(tmp_path, text),
                 "--out", str(out)]) == 0
    report = json.loads((out / "weights_report.json").read_text())
    assert report["mobility"]["status"] == "not_applicable"
    assert "below the edge" in report["mobility"]["reason"]
    assert report["all_passed"] is None
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["constants"]["E_tilde"] > 1.0
    assert main(["validate-weights", "--config", write_cfg(tmp_path, text),
                 "--out", str(out), "--verify"]) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["verify"]["failures"] == ["built_weights_validate"]


def test_derivative_margin_is_read_where_the_weight_has_a_slope(tmp_path):
    # hypothesis (i), (F')^2 <= V - E~ chi_perp, binds only where F' != 0;
    # elsewhere its margin is V >= 0, whose minimum, on an allowed node, is
    # the same for every weight
    from fluxlab.cli import _assemble_from_config, _build_weights, _window
    from fluxlab.spectral import lowest_eigenvalue
    path, out = write_cfg(tmp_path, COUPLED_CFG), tmp_path / "out"
    assert run("validate-weights", path, str(out)) == 0
    report = json.loads((out / "weights_report.json").read_text())
    cfg = RunConfig.parse(path)
    profile, w, grid, j_max, h = _assemble_from_config(cfg)
    window = _window(cfg, h, w, lowest_eigenvalue(h.to_band()[0]).value)
    built, _, _ = _build_weights(profile, window, grid, j_max, w)
    assert set(built) == {"interior", "exterior"}
    margins = {}
    for name, weight in built.items():
        worst = np.inf
        for j in range(-j_max, j_max + 1):
            slope = weight.evaluate(np.array([j]), grid.nodes)[1][0]
            v = profile.effective_potential(np.array([j]), grid.nodes)[0]
            rhs = np.where(v <= window.e_tilde, v, v - window.e_tilde)
            active = slope != 0
            worst = min(worst, np.min(rhs[active] - slope[active] ** 2, initial=np.inf))
        margins[name] = report[name]["hypotheses"]["derivative_worst_margin"]
        assert np.isfinite(worst) and margins[name] == pytest.approx(worst, rel=1e-12)
    assert margins["interior"] != margins["exterior"]


def test_manifest_records_the_source_trees_version(tmp_path):
    # a run from the source tree, with no installed distribution, still
    # records the version the package and pyproject.toml declare
    import re
    import fluxlab
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml")) as fh:
        (declared,) = re.findall(r'^version\s*=\s*"([^"]+)"', fh.read(), re.M)
    out = tmp_path / "out"
    assert run("spectrum", write_cfg(tmp_path, BASE_CFG), str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["versions"]["fluxlab"] == fluxlab.__version__ == declared


@pytest.mark.parametrize("command, text, n_blocks", [
    ("tunnel", COUPLED_CFG, 1), ("evolve", COUPLED_CFG, 1), ("evolve", LINEAR_CFG, 17),
], ids=["coupled-tunnel", "coupled-evolve", "linear-evolve"])
def test_a_run_restricts_each_eigensystem_block_to_the_window_once(tmp_path, monkeypatch,
                                                                   command, text, n_blocks):
    # SpectralProjection.blocks restricts the eigensystem's blocks (one when
    # coupled, one per channel otherwise) on first access; channel norms,
    # prepare_state and record_observables read those views and build none
    from fluxlab.spectral import BasisBlock
    restricted, original = [], BasisBlock.restrict

    def recording_restrict(block, lo, hi):
        restricted.append(block)
        return original(block, lo, hi)

    monkeypatch.setattr(BasisBlock, "restrict", recording_restrict)
    assert run(command, write_cfg(tmp_path, text), str(tmp_path / "out")) == 0
    assert len(restricted) == len({id(b) for b in restricted}) == n_blocks


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc mallopt only")
def test_warm_runs_fault_in_no_fresh_pages(tmp_path):
    # with malloc's thresholds pinned, a repeated validate-weights call at
    # dim 32,800 reuses the heap the first call grew; under glibc's dynamic
    # thresholds it maps and faults in about 7 MB again on every call
    cfg = write_cfg(tmp_path, LINEAR_CFG.replace("grid.n_r = 200", "grid.n_r = 800")
                    .replace("grid.r_max = 16.0", "grid.r_max = 32.0")
                    .replace("channels.j_max = 8", "channels.j_max = 20"))
    probe = f"""
import resource
from fluxlab.cli import run
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert run("validate-weights", {cfg!r}, {str(tmp_path / "out")!r}) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), NUMPY_MADVISE_HUGEPAGE="0")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout.split()[-1]) < 200


def test_power_law_with_sigma_one_is_linear_flux(tmp_path):
    # Phi = lam r under either kind: validate-weights checks the mobility
    # weight and mobility scans the model, with the linear kind's artifacts
    text = LINEAR_CFG.replace("profile.kind = linear",
                              "profile.kind = power_law\nprofile.sigma = 1.0")
    for command, name in (("validate-weights", "weights_report.json"),
                          ("mobility", "mobility_report.json")):
        out, linear = tmp_path / f"{command}-pl", tmp_path / f"{command}-linear"
        assert run(command, write_cfg(tmp_path, text), str(out), verify=True) == 0
        assert run(command, write_cfg(tmp_path, LINEAR_CFG, "linear.cfg"), str(linear)) == 0
        assert (out / name).read_bytes() == (linear / name).read_bytes(), command
    report = json.loads((tmp_path / "validate-weights-pl" / "weights_report.json").read_text())
    assert report["mobility"]["passed"] and report["all_passed"]


def _declared_bounds(source):
    """Each config key ``cli.py`` reads, with the bounds its reads declare
    ({"above": 0.0, ...}); every read of one key must declare the same."""
    import ast
    declared = {}
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("get_str", "get_float", "get_int")):
            key = node.args[0].value
            bounds = {kw.arg.replace("_", " "): float(ast.literal_eval(kw.value))
                      for kw in node.keywords if kw.arg in ("above", "at_least", "at_most")}
            assert declared.setdefault(key, bounds) == bounds, key
    return declared


def test_readme_lists_every_config_key():
    # the README's key table names exactly the keys the CLI reads, and each
    # row's "above / at least / at most <number>" words are the bounds that
    # key's read declares
    import re
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "src", "fluxlab", "cli.py")) as fh:
        declared = _declared_bounds(fh.read())
    with open(os.path.join(root, "README.md")) as fh:
        readme = fh.read()
    table = readme.split("| key | read by | default |", 1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \|[^|]*\|(.*)\|$", table, flags=re.M)
    listed = [key for key, _ in rows]
    assert len(listed) == len(set(listed))
    assert set(listed) == set(declared)
    for key, text in rows:
        words = re.findall(r"\b(above|at least|at most) (-?\d+(?:\.\d+)?)\b", text)
        assert {word: float(number) for word, number in words} == declared[key], key


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


def test_mobility_evaluates_the_potential_table_once_per_box(tmp_path, monkeypatch):
    # the scan builds every channel operator of a box from one V_j table:
    # the base box, the grown box and the doubled box
    from fluxlab.flux import FluxProfile
    calls = []
    table = FluxProfile.effective_potential

    def counted(self, j, r):
        calls.append(j)
        return table(self, j, r)

    monkeypatch.setattr(FluxProfile, "effective_potential", counted)
    cfg = write_cfg(tmp_path, "profile.kind = linear\nprofile.lambda = 1.0\n"
                    "grid.n_r = 200\ngrid.r_max = 16.0\nchannels.j_max = 8\n")
    assert run("mobility", cfg, str(tmp_path / "out")) == 0
    report = json.loads((tmp_path / "out" / "mobility_report.json").read_text())
    assert report["n_localized"] > 0 and not report["empty_high_band"]
    assert len(calls) <= 3, calls


def strict_json(path):
    """Parse a JSON file as RFC 8259 JSON: NaN and Infinity are rejected."""
    def reject(name):
        raise ValueError(f"{path}: {name} is not JSON")

    with open(path) as fh:
        return json.load(fh, parse_constant=reject)


def linear_on_grid(text):
    """The linear-flux, W = 0 model on ``text``'s grid and channels, as the
    benchmark's mobility call builds it for a coupled model."""
    keep = [line for line in text.splitlines() if line.startswith(("grid.", "channels."))]
    return "profile.kind = linear\nprofile.lambda = 1.0\n" + "\n".join(keep) + "\n"


@pytest.mark.parametrize("text", [LINEAR_CFG, COUPLED_CFG], ids=["linear", "coupled"])
def test_no_subcommand_calls_scipys_tridiagonal_wrapper(tmp_path, monkeypatch, text):
    # every tridiagonal solve goes through the ?stebz/?stein kernel; every
    # JSON artifact parses as strict JSON
    import scipy.linalg

    def forbidden(*args, **kwargs):
        raise AssertionError("scipy.linalg.eigh_tridiagonal was called")

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", forbidden)
    for command in ("spectrum", "project", "tunnel", "validate-weights", "evolve",
                    "mobility"):
        cfg = write_cfg(tmp_path, linear_on_grid(text) if command == "mobility" else text,
                        f"{command}.cfg")
        out = tmp_path / command
        assert run(command, cfg, str(out), verify=True) == 0, command
        for name in os.listdir(out):
            if name.endswith(".json"):
                strict_json(out / name)


def test_json_artifacts_write_a_missing_number_as_null(tmp_path):
    # a low band (0.1, 0.1001] holds no state, so the scan has no decay rate
    # and no shift: the report and the manifest say null, not NaN
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, LINEAR_CFG + "mobility.low_hi = 0.1001\n")
    assert run("mobility", cfg, str(out)) == 0
    report = strict_json(out / "mobility_report.json")
    constants = strict_json(out / "manifest.json")["constants"]
    for values in (report, constants):
        assert values["empty_low_band"] is True
        assert values["min_decay_rate"] is None
        assert values["max_eigenvalue_shift"] is None


UNIFORM = "time.kind = uniform\n"
COS_EXP_CFG = COUPLED_CFG.replace("w.form = gevrey_exp", "w.form = cos_exp")


@pytest.mark.parametrize("command, text, key", [
    ("mobility", LINEAR_CFG + "mobility.box_growth = 1.0\n", "mobility.box_growth"),
    ("mobility", LINEAR_CFG + "mobility.box_growth = 0.5\n", "mobility.box_growth"),
    ("mobility", LINEAR_CFG + "mobility.box_growth = inf\n", "mobility.box_growth"),
    ("mobility", LINEAR_CFG + "mobility.low_lo = 0.8\nmobility.low_hi = 0.1\n",
     "mobility.low_lo"),
    ("mobility", LINEAR_CFG + "mobility.high_lo = 2.0\nmobility.high_hi = 2.0\n",
     "mobility.high_lo"),
    ("evolve", COUPLED_CFG + "seed.kind = eigenvector\nseed.index = 50\n", "seed.index"),
    ("evolve", COUPLED_CFG + "seed.kind = eigenvector\nseed.index = -1\n", "seed.index"),
    ("evolve", COUPLED_CFG + "seed.kind = channel_bump\nseed.j = 9\n", "seed.j"),
    ("evolve", COUPLED_CFG.replace("time.n = 12", "time.n = 1"), "time.n"),
    ("evolve", COUPLED_CFG.replace("time.t0 = 1.0", "time.t0 = 0"), "time.t0"),
    ("evolve", COUPLED_CFG.replace("time.t1 = 50.0", "time.t1 = 0.5"), "time.t1"),
    ("evolve", COUPLED_CFG.replace("time.n = 12", "time.n = 1") + UNIFORM, "time.n"),
    ("evolve", COUPLED_CFG + "evolve.nu = -1\n", "evolve.nu"),
    ("evolve", LINEAR_CFG + UNIFORM + "time.t1 = -5\n", "time.t1"),
    ("evolve", LINEAR_CFG + UNIFORM + "time.n = 1\n", "time.n"),
    ("spectrum", LINEAR_CFG.replace("grid.n_r = 200", "grid.n_r = 4"), "grid.n_r"),
    ("mobility", LINEAR_CFG.replace("grid.n_r = 200", "grid.n_r = 7"), "grid.n_r"),
    ("project", LINEAR_CFG.replace("grid.r_max = 16.0", "grid.r_max = 0"), "grid.r_max"),
    ("tunnel", LINEAR_CFG.replace("channels.j_max = 8", "channels.j_max = 0"),
     "channels.j_max"),
    ("spectrum", COUPLED_CFG + "channels.m_max = 0\n", "channels.m_max"),
    ("evolve", LINEAR_CFG.replace("profile.lambda = 1.0", "profile.lambda = 0"),
     "profile.lambda"),
    ("spectrum", COUPLED_CFG.replace("profile.sigma = 1.5", "profile.sigma = 0.5"),
     "profile.sigma"),
    ("validate-weights", BASE_CFG.replace("profile.B0 = 2.0", "profile.B0 = -2"),
     "profile.B0"),
    ("spectrum", COUPLED_CFG.replace("w.a = 1.5", "w.a = 0"), "w.a"),
    ("validate-weights", COUPLED_CFG + "w.zeta = 1.5\n", "w.zeta"),
    ("tunnel", COUPLED_CFG + "w.zeta = 0\n", "w.zeta"),
    ("spectrum", COUPLED_CFG.replace("w.mu = 0.5", "w.mu = 0"), "w.mu"),
    ("project", COUPLED_CFG.replace("w.s = 1.0", "w.s = -1"), "w.s"),
    ("spectrum", COUPLED_CFG.replace("window.E0 = 1.0", "window.E0 = inf"), "window.E0"),
    ("spectrum", LINEAR_CFG + "window.delta0 = nan\n", "window.delta0"),
    ("spectrum", COUPLED_CFG.replace("w.amp = 0.2", "w.amp = nan"), "w.amp"),
    ("evolve", COUPLED_CFG.replace("time.t1 = 50.0", "time.t1 = inf"), "time.t1"),
    ("evolve", COUPLED_CFG.replace("seed.r0 = 2.6", "seed.r0 = nan"), "seed.r0"),
    ("spectrum", COS_EXP_CFG + "w.m_mode = 0\n", "w.m_mode"),
    ("spectrum", COS_EXP_CFG + "w.m_mode = -1\nw.zeta = 0.5\n", "w.m_mode"),
], ids=["growth_1", "growth_half", "growth_inf", "low_inverted", "high_empty", "seed_index_past_rank",
        "seed_index_negative", "seed_j_past_j_max", "geometric_n_1", "geometric_t0_0",
        "geometric_t1_below_t0", "uniform_n_1_coupled", "nu_negative", "uniform_t1_negative",
        "uniform_n_1_linear", "n_r_4", "mobility_n_r_7", "r_max_0", "j_max_0", "m_max_0",
        "lambda_0", "sigma_half", "B0_negative", "a_0", "zeta_above_1", "zeta_0", "mu_0",
        "s_negative", "E0_inf", "delta0_nan", "amp_nan", "t1_inf", "r0_nan", "m_mode_0",
        "m_mode_negative"])
def test_mobility_rejects_inputs_whose_verdict_cannot_fail(tmp_path, capfd, command, text,
                                                           key):
    # a box that does not grow makes every shift rounding, and an empty band
    # fails before LAPACK can print to stderr; evolve's seed, time and moment
    # keys and the model's grid, channel, profile, window and W keys are
    # checked where the CLI reads them (a number must be finite, and a cos
    # form's mode at least 1, for its envelope to bound it), so the error
    # names the key instead of a library message, a traceback, or a series or
    # window no verdict can fail on
    cfg = write_cfg(tmp_path, text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "m")]) == 2
    err = capfd.readouterr().err
    assert err.startswith(f"config error: {key}:")
    assert "illegal value" not in err and "Traceback" not in err


def test_mobility_manifest_counts_the_solves_of_each_box(tmp_path):
    out = tmp_path / "out"
    assert run("mobility", write_cfg(tmp_path, LINEAR_CFG), str(out)) == 0
    constants = json.loads((out / "manifest.json").read_text())["constants"]
    solves = constants["tridiagonal_solves"]
    values, vectors = constants["eigenvalues_computed"], constants["eigenvectors_computed"]
    n_ch = 2 * 8 + 1
    # two base solves per channel (one per band), eigenvalues only on the grown box
    assert solves["base"] == 2 * n_ch
    assert 0 < solves["grown"] <= n_ch and 0 < solves["doubled"] <= n_ch
    assert vectors == dict(values, grown=0)
    assert values["base"] >= constants["n_localized"] > 0


def test_spectrum_of_a_complex_hermitian_coefficient_table(tmp_path):
    # W = e^{-r/2} (cos t + sin 2t / 2) has imaginary Fourier coefficients:
    # its table, written with save_table_csv and read by the CLI, gives a
    # complex H, whose window eigenvalues must be the dense oracle's
    from fluxlab.angular import (AngularPotential, DecayClass, GevreyEnvelope,
                                 fourier_coefficients, load_table_csv, save_table_csv)
    from fluxlab.flux import FluxProfile
    from fluxlab.grid import build_grid
    from fluxlab.spectral import assemble_hamiltonian
    grid = build_grid(90, 8.0)
    table = fourier_coefficients(
        lambda r, t: 0.3 * np.exp(-r / 2) * (np.cos(t) + 0.5 * np.sin(2 * t)),
        grid, m_max=3, n_theta=32)
    assert np.max(np.abs(table.values.imag)) > 0.01
    path = tmp_path / "w.csv"
    save_table_csv(table, path)
    model = COUPLED_CFG.replace("grid.n_r = 160", "grid.n_r = 90") \
        .replace("grid.r_max = 10.0", "grid.r_max = 8.0")
    text = "\n".join(line for line in model.splitlines() if not line.startswith("w.")) \
        + f"\nw.form = table\nw.table = {path}\nw.a = 1.5\nchannels.m_max = 3\n"
    out = tmp_path / "out"
    assert run("spectrum", write_cfg(tmp_path, text), str(out)) == 0
    _, rows = read_csv(out / "eigenvalues.csv")
    vals = np.array([float(r[1]) for r in rows])
    constants = json.loads((out / "manifest.json").read_text())["constants"]
    assert constants["solver"] == "shift_invert_window" and vals.size > 0

    w = AngularPotential(table=load_table_csv(path), decay=DecayClass.none(),
                         envelope=GevreyEnvelope(a=1.5, zeta=1.0, b=np.ones_like))
    h = assemble_hamiltonian(FluxProfile.power_law(1.0, 1.5), w, grid, 6, m_max=3)
    assert np.iscomplexobj(h.to_band()[0])
    dense = scipy.linalg.eigh(h.to_dense(), eigvals_only=True,
                              subset_by_value=(-np.inf, 1.05))   # E0 + WINDOW_MARGIN
    assert vals.size == dense.size
    assert np.max(np.abs(vals - dense)) <= 1e-9 * constants["norm_inf"]


COS_POWER_CFG = "\n".join(line for line in COUPLED_CFG.splitlines()
                          if not line.startswith("w.")) + "\nw.form = cos_power\nw.p = 4.0\n"


@pytest.mark.parametrize("text, thm2_kind", [
    (COS_POWER_CFG, "power"),                                          # fitted as t^x
    (COUPLED_CFG.replace("seed.j0 = 4", "seed.kind = channel_bump\nseed.j = 4"), "log_power"),
], ids=["cos_power", "channel_bump"])
def test_evolve_with_a_power_law_w_or_a_channel_bump_seed(tmp_path, text, thm2_kind):
    out = tmp_path / "out"
    assert run("evolve", write_cfg(tmp_path, text), str(out), verify=True) == 0
    report = json.loads((out / "evolve_report.json").read_text())
    assert report["norm_drift"] <= 1e-10
    assert report["thm2"]["kind"] == thm2_kind
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["unused_keys"] == []
    if "channel_bump" in text:
        # the window's part of a bump in channel 4 stays there at t0 = 1
        _, rows = read_csv(out / "channel_norms.csv")
        first = {int(j): float(n2) for t, j, n2 in rows if t == rows[0][0]}
        assert max(first, key=first.get) == 4 and first[4] > 0.99


@pytest.mark.parametrize("command", ["spectrum", "project", "tunnel", "evolve"])
def test_verify_fails_a_residual_above_the_contract(tmp_path, command):
    # every window subcommand's manifest carries norm_inf, so verify checks
    # residual_max <= 1e-9 |H|_inf on each; a residual above it must fail
    from fluxlab.cli import _verify_artifacts
    out = tmp_path / "out"
    assert run(command, write_cfg(tmp_path, LINEAR_CFG), str(out), verify=True) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["verify"]["passed"]
    consts = manifest["constants"]
    consts["residual_max"] = 2e-9 * consts["norm_inf"]
    report = _verify_artifacts(command, str(out), manifest)
    assert not report["passed"]
    assert report["failures"] == ["residuals_within_contract"]


def test_evolve_on_an_empty_window_writes_its_report_and_manifest(tmp_path):
    # the lowest Landau level is 2, so a window up to 1 selects nothing:
    # evolve has no state to propagate, yet exits 0 and records why
    text = BASE_CFG.replace("window.E0 = 3.0", "window.E0 = 1.0\nwindow.delta0 = 0.1")
    out = tmp_path / "out"
    assert main(["evolve", "--config", write_cfg(tmp_path, text), "--out", str(out),
                 "--verify"]) == 0
    skipped = {"status": "not_applicable", "reason": "rank-0 projection"}
    report = json.loads((out / "evolve_report.json").read_text())
    assert report == {"thm1": skipped, "thm2": skipped}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["warnings"] == [
        "spectral window selected no eigenvalues (rank-0 projection)"]
    assert manifest["artifacts"] == ["evolve_report.json"]
    assert manifest["constants"]["rank"] == 0 and manifest["verify"]["passed"]


def test_evolve_outside_theorem_2_hypothesis_reports_thm2_not_applicable(tmp_path):
    # gevrey_power with p = 1 <= sigma_+ / zeta = 1.5 is outside theorem 2's
    # hypothesis: evolve still writes its report, with theorem 1's verdict
    text = "\n".join(line for line in COUPLED_CFG.splitlines()
                     if not line.startswith("w.")) \
        + "\nw.form = gevrey_power\nw.p = 1.0\nw.amp = 0.2\nw.a = 1.5\n"
    out = tmp_path / "out"
    assert main(["evolve", "--config", write_cfg(tmp_path, text), "--out", str(out),
                 "--verify"]) == 0
    report = json.loads((out / "evolve_report.json").read_text())
    assert report["thm2"] == {"status": "not_applicable",
                              "reason": "power decay needs p > sigma_plus / zeta"}
    assert "passed" in report["thm1"]
    constants = json.loads((out / "manifest.json").read_text())["constants"]
    assert "thm1_sup_ratio" in constants
    assert not any(key.startswith("thm2_") for key in constants)
