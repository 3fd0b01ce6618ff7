import hashlib
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
    # the Ritz values that polish the tridiagonal route's bisected minimum
    report = (out / "weights_report.json").read_bytes()
    assert json.loads(report)["all_passed"]
    assert hashlib.sha256(report).hexdigest() \
        == "9ebab0f9f9cc70812eb478d3254babf0c375e9968fd197dd811faba453f969fb"


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
    monkeypatch.setattr(spectral, "ShiftedFactor", refuse)
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


@pytest.mark.parametrize("text", [COUPLED_CFG, LINEAR_CFG, REF_COUPLED_CFG, REF_LINEAR_CFG],
                         ids=["coupled", "linear", "ref-coupled", "ref-linear"])
def test_validate_weights_and_spectrum_agree_on_e0(tmp_path, text):
    # validate-weights certifies e0 with lowest_eigenvalue, the window
    # subcommands read it off the window solve: both resolve it to eps |H|_inf
    cfg = write_cfg(tmp_path, text)
    constants = {}
    for command in ("spectrum", "validate-weights"):
        assert run(command, cfg, str(tmp_path / command)) == 0, command
        constants[command] = json.loads(
            (tmp_path / command / "manifest.json").read_text())["constants"]
    tol = np.finfo(float).eps * constants["spectrum"]["norm_inf"]
    assert abs(constants["validate-weights"]["e0"] - constants["spectrum"]["e0"]) <= tol


@pytest.mark.parametrize("text", [COUPLED_CFG, REF_COUPLED_CFG], ids=["coupled", "ref-coupled"])
def test_coupled_windows_are_counted_by_weyl_and_the_determinant_sign(tmp_path, text):
    # Weyl's bracket from the channel tridiagonals is one wide on both
    # models, the band LU's determinant sign settles it, and the count it
    # picks is SuperLU's inertia count at the same top
    from fluxlab.cli import _assemble_from_config
    from fluxlab.spectral import WINDOW_MARGIN, ShiftedFactor
    cfg = write_cfg(tmp_path, text)
    assert run("spectrum", cfg, str(tmp_path / "out")) == 0
    constants = json.loads((tmp_path / "out" / "manifest.json").read_text())["constants"]
    assert constants["count_certificate"] == "weyl_determinant_sign"
    n = constants["n_eigenvalues"]
    assert constants["weyl_bracket"] in ([n, n + 1], [n - 1, n])
    h = _assemble_from_config(RunConfig.parse(cfg))[-1]
    top = constants["E0"] * (1 + WINDOW_MARGIN)
    assert n == ShiftedFactor(h.to_band()[0], top).n_below


WINDOW_SOLVE_KEYS = ("solver", "count_certificate", "weyl_bracket", "coupling_bound",
                     "n_eigenvalues", "factor_nnz", "lu_solves", "residual_max")


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
        assert diagnostics["weyl_bracket"] is diagnostics["coupling_bound"] is None
        assert diagnostics["factor_nnz"] == diagnostics["lu_solves"] == 0
    else:
        assert 0 < diagnostics["coupling_bound"] < 1
        assert diagnostics["factor_nnz"] > 0 and diagnostics["lu_solves"] > 0


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


@pytest.mark.parametrize("extra, key", [
    ("mobility.box_growth = 1.0", "mobility.box_growth"),
    ("mobility.box_growth = 0.5", "mobility.box_growth"),
    ("mobility.low_lo = 0.8\nmobility.low_hi = 0.1", "mobility.low_lo"),
    ("mobility.high_lo = 2.0\nmobility.high_hi = 2.0", "mobility.high_lo"),
], ids=["growth_1", "growth_half", "low_inverted", "high_empty"])
def test_mobility_rejects_inputs_whose_verdict_cannot_fail(tmp_path, capfd, extra, key):
    # a box that does not grow makes every shift rounding (or infinite), and
    # an empty band fails before LAPACK can print to stderr
    cfg = write_cfg(tmp_path, LINEAR_CFG + extra + "\n")
    assert main(["mobility", "--config", cfg, "--out", str(tmp_path / "m")]) == 2
    err = capfd.readouterr().err
    assert err.startswith(f"config error: {key}:")
    assert "illegal value" not in err


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
