"""Traced runs: the benchmark tracer's hooks against the library."""

import os
import sys
import threading

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

from tracing import Tracer  # noqa: E402

from fluxlab import cli  # noqa: E402

from test_cli import COUPLED_CFG, LINEAR_CFG  # noqa: E402

W0_EVOLVE = """
profile.kind = linear
profile.lambda = 1.0
grid.n_r = 120
grid.r_max = 12.0
channels.j_max = 4
window.E0 = 0.9
time.t0 = 1.0
time.t1 = 50.0
time.n = 6
seed.j0 = 2
seed.r0 = 3.0
"""


def traced_run(tmp_path, command, text):
    """Run one subcommand under an installed tracer, restore it, and check
    that every patched name is back; returns the tracer."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    tracer = Tracer()
    tracer.install()
    patched = list(tracer._originals)
    try:
        status = tracer.call("cli", cli.run, command, str(cfg), str(tmp_path / "out"),
                             verify=True)
    finally:
        tracer.restore()
    assert status == 0
    assert patched and all(getattr(owner, name) is original
                           for owner, name, original in patched)
    return tracer


# test_integration's uniform-grid coupled evolve, whose Heisenberg check
# reads propagated states
UNIFORM_COUPLED_EVOLVE = """
profile.kind = power_law
profile.lambda = 1.0
profile.sigma = 1.5
grid.n_r = 120
grid.r_max = 9.0
channels.j_max = 5
w.form = gevrey_exp
w.amp = 0.25
w.a = 1.2
w.mu = 0.5
w.s = 1.0
window.E0 = 1.0
time.kind = uniform
time.t1 = 6.0
time.n = 61
seed.j0 = 3
seed.r0 = 2.5
"""


def test_traced_evolve_counts_propagate_bytes_and_restores(tmp_path):
    # the moments come from the window coefficients: no state is propagated
    tracer = traced_run(tmp_path, "evolve", W0_EVOLVE)
    metrics = {span[0] for span in tracer.spans}
    assert "dynamics.observables" in metrics
    assert "dynamics.propagate" not in metrics
    assert tracer.counts_by_root()[0]["dynamics.propagate_bytes"] == 0
    # the Heisenberg check on a uniform grid with coupled W still propagates
    tracer = traced_run(tmp_path, "evolve", UNIFORM_COUPLED_EVOLVE)
    assert tracer.counts_by_root()[0]["dynamics.propagate_bytes"] > 0
    assert tracer.self_times()[0]["dynamics.propagate"] > 0


def test_traced_validate_weights_makes_no_window_solve(tmp_path):
    # e0 comes from a band Cholesky and one shift-inverted Lanczos run, not
    # from the LU-factored window solve
    tracer = traced_run(tmp_path, "validate-weights", COUPLED_CFG)
    assert not any(span[0] == "spectral.diagonalize" for span in tracer.spans)
    counts = tracer.counts_by_root()[0]
    assert counts["spectral.lu_solves"] == 0
    assert counts["spectral.eigsh_calls"] >= 1


def test_traced_coupled_spectrum_counts_the_band_lu_and_forms_no_superlu(tmp_path,
                                                                        monkeypatch):
    # the window solve builds its band LU through spectral.splu, the name the
    # tracer wraps: one factorization span, and the traced solves are the
    # solves the manifest reports; the count needs no inertia
    import json

    from fluxlab import spectral

    def refuse(*args, **kwargs):
        raise AssertionError("the window count took the inertia route")

    monkeypatch.setattr(spectral, "band_inertia", refuse)
    tracer = traced_run(tmp_path, "spectrum", COUPLED_CFG)
    counts = tracer.counts_by_root()[0]
    constants = json.loads((tmp_path / "out" / "manifest.json").read_text())["constants"]
    assert constants["count_certificate"] == "weyl_determinant_sign"
    assert counts["spectral.eigsh_calls"] >= 1
    assert counts["spectral.lu_solves"] == constants["lu_solves"] > 0
    assert sum(span[0] == "spectral.factorize" for span in tracer.spans) == 1


@pytest.mark.parametrize("command", ["spectrum", "mobility"])
def test_traced_functions_run_only_on_the_main_thread(tmp_path, monkeypatch, command):
    # the tracer's span stack is single-threaded, so the channel pool runs
    # the LAPACK kernel and nothing the tracer wraps
    from fluxlab import grid
    monkeypatch.setattr(grid, "channel_workers", lambda: 2)
    kernel_threads, traced_threads = set(), set()
    kernel = grid._tridiagonal_eigh

    def recorded_kernel(*args, **kwargs):
        kernel_threads.add(threading.current_thread())
        return kernel(*args, **kwargs)

    def recorded(method):
        def record(self, *args, **kwargs):
            traced_threads.add(threading.current_thread())
            return method(self, *args, **kwargs)
        return record

    monkeypatch.setattr(grid, "_tridiagonal_eigh", recorded_kernel)
    for name in ("call", "count"):
        monkeypatch.setattr(Tracer, name, recorded(getattr(Tracer, name)))
    traced_run(tmp_path, command, LINEAR_CFG)
    main = threading.current_thread()
    assert traced_threads == {main}
    assert main in kernel_threads and len(kernel_threads) == 2
