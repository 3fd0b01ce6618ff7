"""A traced evolve run: the benchmark tracer's hooks against the library."""

import os
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

from tracing import Tracer  # noqa: E402

from fluxlab import cli  # noqa: E402

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


def test_traced_evolve_counts_propagate_bytes_and_restores(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(W0_EVOLVE)
    tracer = Tracer()
    tracer.install()
    patched = list(tracer._originals)
    try:
        status = tracer.call("cli", cli.run, "evolve", str(cfg), str(tmp_path / "out"),
                             verify=True)
    finally:
        tracer.restore()
    assert status == 0
    assert patched and all(getattr(owner, name) is original
                           for owner, name, original in patched)
    counts = tracer.counts_by_root()[0]
    assert counts["dynamics.propagate_bytes"] > 0
    assert tracer.self_times()[0]["dynamics.propagate"] > 0
