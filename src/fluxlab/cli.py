"""Command line driver: config in, deterministic CSV/JSON artifacts out.

Subcommands: spectrum, project, tunnel, validate-weights, evolve, mobility.
Every run writes a manifest.json with the resolved config, library versions,
wall time, every warning raised during the run, and every extracted constant
that feeds a pass/fail verdict.
Numerical imports happen after --threads is applied so the BLAS pool size
can be pinned.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
import warnings

from . import __version__
from .runio import ConfigError, RunConfig, read_csv, write_csv, write_json

_SUBCOMMANDS = ("spectrum", "project", "tunnel", "validate-weights",
                "evolve", "mobility")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fluxlab")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--threads", type=int, default=0,
                       help="BLAS/OpenMP threads (0 = library default)")
        p.add_argument("--verify", action="store_true",
                       help="run the invariant suite on the produced artifacts")
    args = parser.parse_args(argv)
    if args.threads > 0:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ[var] = str(args.threads)
    try:
        return run(args.command, args.config, args.out, verify=args.verify)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ValueError) as exc:
        print(f"fluxlab {args.command} failed: {exc}", file=sys.stderr)
        return 1


def run(command: str, config_path, out_dir, verify: bool = False) -> int:
    """Execute one subcommand; returns the process exit status."""
    if command not in _SUBCOMMANDS:
        raise ValueError(f"unknown subcommand {command!r}")
    t_start = time.perf_counter()
    _pin_malloc_thresholds()
    cfg = RunConfig.parse(config_path)
    os.makedirs(out_dir, exist_ok=True)

    runner = {
        "spectrum": _run_spectrum,
        "project": _run_project,
        "tunnel": _run_tunnel,
        "validate-weights": _run_validate_weights,
        "evolve": _run_evolve,
        "mobility": _run_mobility,
    }[command]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        artifacts, constants = runner(cfg, out_dir)
    raised = [str(w.message) for w in caught]
    for message in raised:
        print(f"warning: {message}", file=sys.stderr)

    import numpy
    import scipy
    unused = sorted(set(cfg.raw) - cfg.consumed)
    if unused:
        print(f"warning: config keys never consumed by {command}: "
              f"{', '.join(unused)}", file=sys.stderr)
    manifest = {
        "subcommand": command,
        "config": cfg.echo(),
        "unused_keys": unused,
        "warnings": raised,
        "versions": {
            "python": ".".join(map(str, sys.version_info[:3])),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "fluxlab": __version__,
        },
        "constants": constants,
        "artifacts": sorted(artifacts),
        "wall_time_s": time.perf_counter() - t_start,
    }
    if verify:
        manifest["verify"] = _verify_artifacts(command, out_dir, manifest)
    write_json(os.path.join(out_dir, "manifest.json"), manifest)
    if verify and not manifest["verify"]["passed"]:
        print(f"verify failed: {manifest['verify']['failures']}", file=sys.stderr)
        return 1
    return 0


def _pin_malloc_thresholds() -> None:
    """Fix glibc malloc's mmap threshold at 32 MiB and its trim threshold at
    64 MiB, the largest values its dynamic rule reaches on 64-bit.

    The dynamic rule raises both only when a mapped block above the mmap
    threshold (128 KiB at start) is freed, so without this the cost of a run
    in a long-lived process depends on what earlier runs freed: each array
    above the current threshold is a fresh mapping whose pages fault in on
    every call (about 1,900 minor faults per warm validate-weights call on
    linear flux at dim 32,800).  Does nothing where the C library has no
    ``mallopt``.
    """
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    mallopt(m_mmap_threshold, 32 << 20)
    mallopt(m_trim_threshold, 64 << 20)


# --------------------------------------------------------------------------
# model construction from config


def _profile_from_config(cfg: RunConfig):
    from .flux import FluxProfile
    kind = cfg.get_str("profile.kind", required=True,
                       choices={"power_law", "linear", "uniform_field", "tabulated"})
    if kind in ("power_law", "linear"):
        lam = cfg.get_float("profile.lambda", required=True, above=0)
        if kind == "linear":
            return FluxProfile.linear(lam)
        sigma = cfg.get_float("profile.sigma", required=True, at_least=1)
        return FluxProfile.power_law(lam, sigma)
    if kind == "uniform_field":
        return FluxProfile.uniform_field(cfg.get_float("profile.B0", required=True, above=0))
    import numpy as np
    path = cfg.get_str("profile.table", required=True)
    header, rows = read_csv(path)
    if header[:2] != ["r", "phi"]:
        raise ConfigError("profile.table", f"expected columns r,phi in {path}")
    nodes = np.array([float(r[0]) for r in rows])
    values = np.array([float(r[1]) for r in rows])
    return FluxProfile.tabulated(
        nodes, values,
        lambda_plus=cfg.get_float("profile.lambda_plus", np.nan),
        sigma_plus=cfg.get_float("profile.sigma_plus", np.nan),
        lambda_minus=cfg.get_float("profile.lambda_minus", np.nan),
        sigma_minus=cfg.get_float("profile.sigma_minus", np.nan),
        r0=cfg.get_float("profile.r0", 1.0))


def _w_from_config(cfg: RunConfig, grid):
    """AngularPotential (or None) with its envelope and decay class."""
    import numpy as np
    from .angular import AngularPotential, DecayClass, GevreyEnvelope, load_table_csv
    form = cfg.get_str("w.form", default="none",
                       choices={"none", "cos_power", "cos_exp",
                                "gevrey_power", "gevrey_exp", "table"})
    if form == "none":
        return None

    a = cfg.get_float("w.a", None if form == "table" else 1.0, required=form == "table",
                      above=0)
    zeta = cfg.get_float("w.zeta", 1.0, above=0, at_most=1)
    if form == "table":
        table = load_table_csv(cfg.get_str("w.table", required=True))
        scale = float(np.max(np.abs(table.values))) * np.exp(a)
        env = GevreyEnvelope(a=a, zeta=zeta, b=lambda r: np.full_like(r, scale))
        return AngularPotential(table=table, envelope=env, decay=DecayClass.none())

    amp = cfg.get_float("w.amp", 0.25)
    if form.endswith("_power"):
        p = cfg.get_float("w.p", required=True)
        radial = lambda r: amp * (1.0 + r) ** (-p)
        decay = DecayClass.power(p)
    else:
        mu = cfg.get_float("w.mu", 1.0, above=0)
        s = cfg.get_float("w.s", 1.0, above=0)
        radial = lambda r: amp * np.exp(-mu * r ** s)
        decay = DecayClass.stretched_exponential(mu, s)

    # W = f(r) sum_m c_m cos(m theta), with envelope b(r) e^{-a m^zeta};
    # the cos form is the one-mode sum, its envelope raised to cover mode m0
    if form.startswith("cos_"):
        m0 = cfg.get_int("w.m_mode", 1, at_least=1)
        modes, mode_amp, boost = np.array([m0]), np.ones(1), np.exp(a * m0 ** zeta)
    else:
        n_modes = 1
        while a * (n_modes + 1) ** zeta < 37.0 and n_modes < 200:
            n_modes += 1
        modes = np.arange(1, n_modes + 1)
        mode_amp, boost = np.exp(-a * modes ** zeta), 1.0

    def w_fn(r, theta):
        ang = np.tensordot(mode_amp, np.cos(modes[:, None, None] * theta[None, :, :]),
                           axes=(0, 0))
        return radial(r) * ang

    env = GevreyEnvelope(a=a, zeta=zeta,
                         b=lambda r: np.sqrt(np.pi / 2.0) * boost * np.abs(radial(r)))
    return AngularPotential(w=w_fn, envelope=env, decay=decay)


def _grid_from_config(cfg: RunConfig):
    """The radial grid and the channel cutoff j_max."""
    from .grid import build_grid
    n_r = cfg.get_int("grid.n_r", required=True, at_least=8)
    r_max = cfg.get_float("grid.r_max", required=True, above=0)
    return build_grid(n_r, r_max), cfg.get_int("channels.j_max", required=True, at_least=1)


def _assemble_from_config(cfg: RunConfig):
    from .spectral import assemble_hamiltonian
    profile = _profile_from_config(cfg)
    grid, j_max = _grid_from_config(cfg)
    w = _w_from_config(cfg, grid)
    m_max = cfg.get_int("channels.m_max", at_least=1) if w is not None else None
    h = assemble_hamiltonian(profile, w, grid, j_max, m_max=m_max)
    return profile, w, grid, j_max, h


def _window(cfg: RunConfig, h, w, lowest):
    """H's window at the configured E0 and delta0, given H's lowest
    eigenvalue ``lowest`` (:func:`~fluxlab.spectral.make_window`)."""
    from .spectral import make_window
    try:
        return make_window(h, lowest, cfg.get_float("window.E0", required=True),
                           delta0=cfg.get_float("window.delta0"),
                           envelope=None if w is None else w.envelope)
    except ValueError as exc:
        raise ConfigError("window.delta0", str(exc)) from None


def _window_record(window) -> dict:
    """The window's manifest record: I = [e0, E0], delta0, c0 and E~."""
    return {"e0": window.e0, "E0": window.E0, "delta0": window.delta0,
            "c0": window.c0, "E_tilde": window.e_tilde}


def _window_solve_constants(eigensys) -> dict:
    """The window solve's diagnostics, for the manifest constants of every
    subcommand that runs it: route, count certificate, Weyl's bracket and
    the coupling bound it rests on (null on the per-channel route), pair
    count, the band LU's storage and the count's solves with it (0 unless
    Weyl's bracket is one wide), the sweep's shift below the spectrum, that
    shift's route (trial or weyl) and its band Cholesky solves (0 or null
    on the per-channel route), the largest residual, |H|_inf, the scale of
    its 1e-9 contract, and on the per-channel route the CPUs in the affinity
    mask, the most threads a batch of its channel solves is dealt to."""
    from .grid import channel_workers
    bracket = eigensys.weyl_bracket
    constants = {
        "solver": eigensys.method,
        "count_certificate": eigensys.count_certificate,
        "weyl_bracket": None if bracket is None else list(bracket),
        "coupling_bound": eigensys.coupling_bound,
        "n_eigenvalues": int(eigensys.k),
        "factor_nnz": eigensys.factor_nnz,
        "lu_solves": eigensys.lu_solves,
        "sweep_shift": eigensys.sweep_shift,
        "sweep_shift_route": eigensys.sweep_shift_route,
        "cholesky_solves": eigensys.cholesky_solves,
        "residual_max": eigensys.residual_max,
        "norm_inf": eigensys.norm_h,
    }
    if eigensys.method == "channel_tridiagonal":
        constants["channel_workers"] = channel_workers()
    return constants


def _windowed_model(cfg: RunConfig):
    """The model (profile, w, grid, j_max, h), the projection onto its
    window, and the constants every window subcommand's manifest records:
    the window record, dim, the dropped coupling tail, the rank and the
    window solve's diagnostics."""
    from .spectral import diagonalize, spectral_projection
    model = _assemble_from_config(cfg)
    _, w, _, _, h = model
    eigensys = diagonalize(h, window_upper=cfg.get_float("window.E0", required=True))
    proj = spectral_projection(h, _window(cfg, h, w, eigensys.lowest), eigensystem=eigensys)
    constants = {**_window_record(proj.window), "dim": h.dim,
                 "dropped_coupling_tail": h.dropped_tail_bound, "rank": int(proj.rank),
                 **_window_solve_constants(eigensys)}
    return model, proj, constants


# --------------------------------------------------------------------------
# subcommands


def _run_spectrum(cfg, out_dir):
    _, proj, constants = _windowed_model(cfg)
    write_csv(os.path.join(out_dir, "eigenvalues.csv"), ["index", "lambda"],
              [(i, v) for i, v in enumerate(proj.eigensystem.eigenvalues)])
    return ["eigenvalues.csv"], constants


def _run_project(cfg, out_dir):
    _, proj, constants = _windowed_model(cfg)
    write_csv(os.path.join(out_dir, "eigenvalues.csv"), ["index", "lambda"],
              [(i, v) for i, v in enumerate(proj.eigenvalues)])
    meta = {
        "window": _window_record(proj.window),
        "rank": int(proj.rank),
        "rank_deficient": proj.rank == 0,
        "residual_max": proj.eigensystem.residual_max,
        "idempotency_error": proj.idempotency_error(),
        "gram_error": proj.eigensystem.gram_error(),
    }
    write_json(os.path.join(out_dir, "projection.json"), meta)
    constants.update(idempotency_error=meta["idempotency_error"],
                     gram_error=meta["gram_error"])
    return ["eigenvalues.csv", "projection.json"], constants


def _gevrey(w):
    """W's envelope exponent and rate (zeta, a); (1, None) when W = 0."""
    return (1.0, None) if w is None else (w.envelope.zeta, w.envelope.a)


def _build_weights(profile, window, grid, j_max, w):
    """Interior/exterior weights with grid-extracted parameters, each where
    its flux growth exponent exceeds 1."""
    from .weights import build_weight
    zeta, a = _gevrey(w)
    applies = {"interior": profile.sigma_plus > 1, "exterior": profile.sigma_minus > 1}
    built = {kind: build_weight(kind, profile, window, grid, zeta, j_max, a=a)
             for kind, ok in applies.items() if ok}
    return built, zeta, a


def _fit_upper_half(j, norms, j_max):
    """Log-linear decay fit of shell-maximal norms over the upper half of |j|.

    The theorem bounds the norms per |j|, and for monotone flux only one sign
    carries spectral weight, so each shell contributes max(|+m|, |-m|);
    shells at or below 1e-13 are left out.
    """
    import numpy as np
    from .weights import decay_rate_fit
    half = max(2, j_max // 2)
    ms, shell = [], []
    for m in range(half, j_max + 1):
        v = float(np.max(norms[np.abs(j) == m]))
        if v > 1e-13:
            ms.append(m)
            shell.append(v)
    if len(ms) < 4:
        return {"slope": np.nan, "intercept": np.nan, "r2": np.nan,
                "n_points": len(ms), "reliable": False}
    slope, intercept, r2 = decay_rate_fit(np.array(ms, dtype=float),
                                          np.array(shell))
    return {"slope": slope, "intercept": intercept, "r2": r2,
            "n_points": len(ms), "reliable": True}


def _run_tunnel(cfg, out_dir):
    from .weights import tunnelling_exterior_sum, tunnelling_interior_sum
    (profile, w, grid, j_max, _), proj, constants = _windowed_model(cfg)
    built, zeta, _ = _build_weights(profile, proj.window, grid, j_max, w)
    artifacts, report = [], {}
    if "interior" in built:
        wint = built["interior"]
        c_plus, delta_plus = 0.4, wint.eps
        res = tunnelling_interior_sum(proj, c_plus, delta_plus, zeta,
                                      profile.sigma_plus)
        write_csv(os.path.join(out_dir, "interior_norms.csv"),
                  ["j", "norm", "weighted_term"],
                  list(zip(res.j.tolist(), res.norms, res.terms)))
        artifacts.append("interior_norms.csv")
        fit = _fit_upper_half(res.j, res.norms, j_max)
        constants.update(interior_eps=wint.eps, interior_j0=wint.j0,
                         c_plus=c_plus, delta_plus=delta_plus,
                         interior_sum=res.partial_sum,
                         interior_tail_ratio=res.tail_ratio,
                         interior_fit_slope=fit["slope"],
                         interior_fit_r2=fit["r2"])
        report["interior"] = {"sum": res.partial_sum, "tail_ratio": res.tail_ratio,
                              "fit": fit, "params": res.params}
    if "exterior" in built:
        wext = built["exterior"]
        # the proof lower-bounds G_j by (c/2) r^{zeta sigma_-} on the mask
        # starting at eta (2(1+|j|))^{1/sigma_-}
        c_minus = max(1.5, wext.eta * 2.0 ** (1.0 / profile.sigma_minus))
        delta_minus = 0.5 * wext.c
        res = tunnelling_exterior_sum(proj, c_minus, delta_minus, zeta,
                                      profile.sigma_minus)
        write_csv(os.path.join(out_dir, "exterior_norms.csv"),
                  ["j", "norm", "weighted_term"],
                  list(zip(res.j.tolist(), res.norms, res.terms)))
        artifacts.append("exterior_norms.csv")
        constants.update(exterior_c=wext.c, exterior_eta=wext.eta,
                         c_minus=c_minus, delta_minus=delta_minus,
                         exterior_sum=res.partial_sum,
                         exterior_tail_ratio=res.tail_ratio)
        report["exterior"] = {"sum": res.partial_sum, "tail_ratio": res.tail_ratio,
                              "params": res.params}
    write_json(os.path.join(out_dir, "tunnel_report.json"), report)
    artifacts.append("tunnel_report.json")
    return artifacts, constants


def _run_validate_weights(cfg, out_dir):
    # the hypotheses and the coercivity check read the window only through
    # e0, c0, delta0 and E~, so H's lowest eigenvalue replaces the window solve
    from .spectral import RANK_ZERO_WARNING, lowest_eigenvalue
    from .weights import (build_weight, forbidden_region_check, twisted_gap_check,
                          weight_validate)
    profile, w, grid, j_max, h = _assemble_from_config(cfg)
    lowest = lowest_eigenvalue(h.to_band()[0])
    window = _window(cfg, h, w, lowest.value)
    if lowest.value > window.E0:
        # e0 = E0: the window holds no eigenvalue, as a rank-0 projection says
        warnings.warn(RANK_ZERO_WARNING, stacklevel=2)
    built, zeta, a = _build_weights(profile, window, grid, j_max, w)
    report = {}
    if profile.kind == "linear":
        try:
            built["mobility"] = build_weight("mobility", profile, window, grid, zeta,
                                             j_max, a=a)
        except ValueError as exc:
            # E~ at or above the edge lam^2 lies outside the weight's hypothesis
            report["mobility"] = {"status": "not_applicable", "reason": str(exc)}

    e0_channel = int(h.channels[lowest.channel])
    constants = {
        **_window_record(window),
        "e0_solver": lowest.method, "e0_lower_bound": lowest.lower_bound,
        "e0_cholesky_solves": lowest.cholesky_solves, "e0_shift_route": lowest.shift_route,
        "e0_channel": e0_channel, "e0_channel_outermost": abs(e0_channel) == j_max,
    }
    all_pass = True
    for name, weight in built.items():
        validation = weight_validate(weight, profile, window, grid, j_max, a=a)
        gap = twisted_gap_check(h, weight, window)
        all_pass &= validation.passed and gap.passed
        params = {k: v for k, v in dataclasses.asdict(weight).items()
                  if isinstance(v, (int, float)) and v == v}
        report[name] = {
            "params": params,
            "hypotheses": dict(dataclasses.asdict(validation),
                               derivative_ok=bool(validation.derivative_ok.all())),
            "twisted_gap": dataclasses.asdict(gap),
            "passed": bool(validation.passed and gap.passed),
        }
        for key, value in params.items():
            constants[f"{name}_{key}"] = value
        constants[f"{name}_twisted_slack"] = gap.slack
        constants[f"{name}_derivative_margin"] = validation.derivative_worst_margin
        constants[f"{name}_lipschitz_excess"] = validation.lipschitz_worst_excess
    if profile.sigma_plus > 1 and profile.sigma_minus > 1:
        frr = forbidden_region_check(profile, window.e_tilde, grid, j_max)
        report["forbidden_region"] = {
            "interior_ok": frr.interior_ok, "exterior_ok": frr.exterior_ok,
            "interior_j0": frr.interior_j0, "interior_eps": frr.interior_eps,
            "exterior_eta": frr.exterior_eta, "exterior_level": frr.exterior_level,
        }
    # null when no weight was checked: there is nothing to pass
    report["all_passed"] = bool(all_pass) if built else None
    write_json(os.path.join(out_dir, "weights_report.json"), report)
    return ["weights_report.json"], constants


def _run_evolve(cfg, out_dir):
    import numpy as np
    from .dynamics import (bound_check_thm1, geometric_times, growth_fit_thm2,
                           heisenberg_check, prepare_state, propagate,
                           record_observables)
    (profile, w, grid, j_max, h), proj, constants = _windowed_model(cfg)
    if proj.rank == 0:
        # no state to evolve: neither theorem has a moment to bound
        skipped = {"status": "not_applicable", "reason": "rank-0 projection"}
        write_json(os.path.join(out_dir, "evolve_report.json"),
                   {"thm1": skipped, "thm2": skipped})
        return ["evolve_report.json"], constants

    seed_kind = cfg.get_str("seed.kind", "gaussian",
                            choices={"gaussian", "eigenvector", "channel_bump"})
    seed = {"kind": seed_kind}
    if seed_kind == "eigenvector":
        seed["index"] = cfg.get_int("seed.index", 0)
        if not 0 <= seed["index"] < proj.rank:
            raise ConfigError("seed.index", f"{seed['index']} is not a window eigenvector: "
                                            f"the window has rank {proj.rank}")
    elif seed_kind == "gaussian":
        seed.update(j0=cfg.get_float("seed.j0", round(j_max / 2)),
                    r0=cfg.get_float("seed.r0", grid.r_max / 3.0))
    else:
        seed.update(j=cfg.get_int("seed.j", required=True),
                    r0=cfg.get_float("seed.r0", required=True))
        if abs(seed["j"]) > j_max:
            raise ConfigError("seed.j", f"channel {seed['j']} lies outside |j| <= {j_max}")
    state0 = prepare_state(proj, seed)

    kind = cfg.get_str("time.kind", "geometric", choices={"geometric", "uniform"})
    t1 = cfg.get_float("time.t1", 1000.0)
    # theorem 1's trend compares the first and last quartiles of the series
    n_t = cfg.get_int("time.n", 48, at_least=2)
    # the uniform grid starts at 0, so only the geometric one reads t0
    t0 = cfg.get_float("time.t0", 1.0, above=0) if kind == "geometric" else 0.0
    if not t1 > t0:
        raise ConfigError("time.t1", f"the {kind} grid needs t1 > {t0:g}, got {t1:g}")
    times = geometric_times(t0, t1, n_t) if kind == "geometric" else np.linspace(t0, t1, n_t)

    zeta, _ = _gevrey(w)
    nu = cfg.get_float("evolve.nu", 1.5, at_least=0)
    # theorem 1's bound holds for beta = zeta nu / sigma_- only
    if not profile.sigma_minus > 0:
        raise ConfigError("profile.sigma_minus", "theorem 1's beta = zeta nu / sigma_- needs "
                                                 f"sigma_- > 0, got {profile.sigma_minus:g}")
    beta = zeta * nu / profile.sigma_minus
    series = record_observables(proj, state0, times, nu, beta)

    write_csv(os.path.join(out_dir, "observables.csv"),
              ["t", "x_moment", "j_moment", "norm"],
              list(zip(series.times, series.x_moment, series.j_moment,
                       series.norms)))
    js = series.channels.tolist()
    write_csv(os.path.join(out_dir, "channel_norms.csv"), ["t", "j", "norm2"],
              [(t, j, v) for t, norms in zip(series.times.tolist(),
                                             series.channel_norm2.tolist())
               for j, v in zip(js, norms)])

    thm1 = bound_check_thm1(series)
    report = {
        "nu": nu, "beta": beta,
        "norm_drift": float(np.max(np.abs(series.norms - series.norms[0]))),
        "thm1": {k: v for k, v in dataclasses.asdict(thm1).items() if k != "ratios"},
    }
    constants.update(nu=nu, beta=beta, thm1_sup_ratio=thm1.sup_ratio)

    if w is not None and w.decay.kind != "none":
        from .dynamics import moment_j
        try:
            fit = growth_fit_thm2(series, w.decay.kind, zeta, profile.sigma_plus,
                                  p=w.decay.p, s=w.decay.s,
                                  baseline=moment_j(state0, beta))
        except ValueError as exc:
            # W lies outside theorem 2's hypothesis; theorem 1 still stands
            report["thm2"] = {"status": "not_applicable", "reason": str(exc)}
        else:
            report["thm2"] = dataclasses.asdict(fit)
            constants.update(thm2_fitted=fit.fitted_exponent, thm2_bound=fit.bound)
    if kind == "uniform" and w is not None and h.couplings:
        hb = heisenberg_check(propagate(proj, state0, times), h)
        report["heisenberg_max_residual"] = hb.max_residual
        constants["heisenberg_max_residual"] = hb.max_residual
    write_json(os.path.join(out_dir, "evolve_report.json"), report)
    return ["observables.csv", "channel_norms.csv", "evolve_report.json"], constants


def _run_mobility(cfg, out_dir):
    from .dynamics import mobility_edge_scan
    from .grid import channel_workers
    profile = _profile_from_config(cfg)
    if profile.kind != "linear":
        raise ConfigError("profile.kind", "mobility scan requires linear flux")
    if cfg.get_str("w.form", "none") != "none":
        raise ConfigError("w.form", "mobility scan requires W = 0")
    grid, j_max = _grid_from_config(cfg)
    # inputs that would leave a verdict unable to fail
    low = (cfg.get_float("mobility.low_lo", 0.1), cfg.get_float("mobility.low_hi", 0.8))
    high = (cfg.get_float("mobility.high_lo", 1.8), cfg.get_float("mobility.high_hi", 2.2))
    for key, (lo, hi) in (("mobility.low_lo", low), ("mobility.high_lo", high)):
        if not lo < hi:
            raise ConfigError(key, f"the band ({lo:g}, {hi:g}] is empty: it needs lo < hi")
    box_growth = cfg.get_float("mobility.box_growth", 1.5)
    if not round(grid.n_r * box_growth) > grid.n_r:
        raise ConfigError("mobility.box_growth", f"the scan needs a factor that grows the box "
                                                 f"of n_r = {grid.n_r} nodes, got {box_growth:g}")
    report = mobility_edge_scan(profile.lam, grid, j_max, low_band=low, high_band=high,
                                box_growth=box_growth)
    write_csv(os.path.join(out_dir, "mobility_localized.csv"),
              ["j", "eigenvalue", "decay_rate", "eigenvalue_shift", "shift_resolution"],
              [(rec.j, rec.eigenvalue, rec.decay_rate, rec.eigenvalue_shift,
                rec.shift_resolution) for rec in report.localized])
    write_csv(os.path.join(out_dir, "mobility_width_ratios.csv"),
              ["ratio"], [(r,) for r in report.extended_width_ratios])
    summary = {
        "lambda": report.lam, "edge": report.lam ** 2,
        "n_localized": len(report.localized),
        "min_decay_rate": report.min_decay_rate,
        "max_eigenvalue_shift": report.max_eigenvalue_shift,
        "min_width_ratio": report.min_width_ratio,
        "empty_low_band": report.empty_low_band,
        "empty_high_band": report.empty_high_band,
    }
    write_json(os.path.join(out_dir, "mobility_report.json"), summary)
    constants = dict(summary,
                     tridiagonal_solves=report.tridiagonal_solves,
                     eigenvalues_computed=report.eigenvalues_computed,
                     eigenvectors_computed=report.eigenvectors_computed,
                     channel_workers=channel_workers())
    return ["mobility_localized.csv", "mobility_width_ratios.csv",
            "mobility_report.json"], constants


# --------------------------------------------------------------------------
# artifact verification (--verify)


def _verify_artifacts(command: str, out_dir, manifest) -> dict:
    failures = []

    def check(name, ok):
        if not ok:
            failures.append(name)

    consts = manifest["constants"]
    if command in ("spectrum", "project", "tunnel", "evolve"):
        check("residuals_within_contract",
              consts["residual_max"] <= 1e-9 * consts["norm_inf"] + 1e-30)
    if command in ("spectrum", "project"):
        _, rows = read_csv(os.path.join(out_dir, "eigenvalues.csv"))
        vals = [float(r[1]) for r in rows]
        check("eigenvalues_ascending", all(b >= a for a, b in zip(vals, vals[1:])))
    if command == "project":
        with open(os.path.join(out_dir, "projection.json")) as fh:
            meta = json.load(fh)
        check("idempotency", meta["idempotency_error"] <= 1e-10)
    if command == "tunnel":
        for name in ("interior_norms.csv", "exterior_norms.csv"):
            path = os.path.join(out_dir, name)
            if not os.path.exists(path):
                continue
            _, rows = read_csv(path)
            norms = [float(r[1]) for r in rows]
            check(f"{name}_nonnegative", all(v >= 0 for v in norms))
            if name.startswith("interior"):
                check("interior_norms_contraction", all(v <= 1 + 1e-6 for v in norms))
    if command == "validate-weights":
        with open(os.path.join(out_dir, "weights_report.json")) as fh:
            report = json.load(fh)
        check("built_weights_validate", report.get("all_passed", False))
    if command == "evolve" and "observables.csv" in manifest["artifacts"]:
        _, rows = read_csv(os.path.join(out_dir, "observables.csv"))
        norms = [float(r[3]) for r in rows]
        check("norm_drift", max(abs(v - norms[0]) for v in norms) <= 1e-10)
        check("moments_nonnegative",
              all(float(r[1]) >= 0 and float(r[2]) >= 0 for r in rows))
    if command == "mobility":
        _, rows = read_csv(os.path.join(out_dir, "mobility_localized.csv"))
        check("no_low_band_from_nonpositive_j",
              all(int(r[0]) > 0 for r in rows))
    return {"passed": not failures, "failures": failures}


if __name__ == "__main__":
    sys.exit(main())
