"""Traced runs: the benchmark tracer's hooks against the library."""

import os
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

from tracing import Tracer  # noqa: E402

from fluxlab import cli  # noqa: E402

from test_cli import COUPLED_CFG  # noqa: E402

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


def test_traced_evolve_counts_propagate_bytes_and_restores(tmp_path):
    tracer = traced_run(tmp_path, "evolve", W0_EVOLVE)
    counts = tracer.counts_by_root()[0]
    assert counts["dynamics.propagate_bytes"] > 0
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
    # solves the manifest reports; the count needs no SuperLU factor
    import json

    from fluxlab import spectral

    def refuse(*args, **kwargs):
        raise AssertionError("the window count formed a SuperLU factor")

    monkeypatch.setattr(spectral, "ShiftedFactor", refuse)
    tracer = traced_run(tmp_path, "spectrum", COUPLED_CFG)
    counts = tracer.counts_by_root()[0]
    constants = json.loads((tmp_path / "out" / "manifest.json").read_text())["constants"]
    assert constants["count_certificate"] == "weyl_determinant_sign"
    assert counts["spectral.eigsh_calls"] >= 1
    assert counts["spectral.lu_solves"] == constants["lu_solves"] > 0
    assert sum(span[0] == "spectral.factorize" for span in tracer.spans) == 1
