"""Traced runs: wrap each layer's public functions and keep spans in memory.

A span records its metric, start, end and parent.  A layer's self time is
its span's duration minus the durations of its direct child spans.  Counts
(LU solves, eigsh calls, bytes) are recorded where the work happens, through
proxies on the names each module imported.  ``Tracer.install`` replaces the
module attributes and ``Tracer.restore`` puts every original back.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict

SPAN_METRICS = (
    "angular.coefficients", "spectral.assemble", "spectral.diagonalize",
    "spectral.factorize", "spectral.window", "spectral.channel_norm",
    "weights.build", "weights.validate", "weights.twisted_gap",
    "weights.gap_factorize", "weights.tunnel_sum", "dynamics.prepare",
    "dynamics.propagate", "dynamics.observables", "dynamics.fit",
    "dynamics.mobility_scan", "grid.channel_solve", "runio.write",
)
COUNT_METRICS = (
    "spectral.lu_solves", "spectral.eigsh_calls", "spectral.channel_norm_calls",
    "weights.gap_lu_solves", "grid.channel_solves", "dynamics.propagate_bytes",
    "runio.bytes_written",
)


class _CountingLU:
    """SuperLU proxy that counts right-hand sides solved."""

    def __init__(self, lu, tracer, counter):
        self._lu, self._tracer, self._counter = lu, tracer, counter

    def solve(self, rhs, *args, **kwargs):
        self._tracer.count(self._counter, rhs.shape[1] if rhs.ndim == 2 else 1)
        return self._lu.solve(rhs, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Spans and counts of one process, grouped by the enclosing root span."""

    def __init__(self):
        self.spans = []          # (metric, start, end, parent index or None, root index)
        self.counts = []         # (counter, value, root index)
        self._stack = []
        self._originals = []

    # -- recording ---------------------------------------------------------

    def count(self, counter: str, value=1) -> None:
        root = self._stack[0] if self._stack else None
        self.counts.append((counter, value, root))

    def call(self, metric: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``metric``."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        root = self._stack[0] if self._stack else index
        self.spans.append([metric, time.perf_counter(), None, parent, root])
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def _wrap(self, metric, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(metric, fn, *args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result
        return traced

    # -- installing --------------------------------------------------------

    def _patch(self, owner, name, replacement) -> None:
        self._originals.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def install(self) -> None:
        """Wrap every traced layer function; ``restore`` undoes it."""
        from fluxlab import angular, cli, dynamics, grid, spectral, weights

        def wrap(owner, name, metric, after=None):
            self._patch(owner, name, self._wrap(metric, getattr(owner, name), after))

        wrap(angular.AngularPotential, "coefficients", "angular.coefficients")
        wrap(spectral, "assemble_hamiltonian", "spectral.assemble")

        eigsh_k = []

        def count_eigsh(original):
            def eigsh(a, k=6, *args, **kwargs):
                self.count("spectral.eigsh_calls")
                eigsh_k.append(k)
                return original(a, k, *args, **kwargs)
            return eigsh

        def diagonalize(original):
            def traced(*args, **kwargs):
                before = len(eigsh_k)
                result = self.call("spectral.diagonalize", original, *args, **kwargs)
                computed = sum(eigsh_k[before:]) if len(eigsh_k) > before else result.k
                self.count("spectral.eigenpairs_computed", computed)
                return result
            return traced

        def counting_splu(original, metric, counter):
            def splu(*args, **kwargs):
                lu = self.call(metric, original, *args, **kwargs)
                return _CountingLU(lu, self, counter)
            return splu

        self._patch(spectral, "eigsh", count_eigsh(spectral.eigsh))
        self._patch(spectral, "diagonalize", diagonalize(spectral.diagonalize))
        self._patch(spectral, "splu", counting_splu(spectral.splu, "spectral.factorize",
                                                    "spectral.lu_solves"))
        wrap(spectral, "make_window", "spectral.window")
        wrap(spectral.SpectralProjection, "idempotency_error", "spectral.window")
        wrap(spectral.EigenSystem, "gram_error", "spectral.window")
        wrap(spectral, "spectral_projection", "spectral.window",
             after=lambda p, *a, **k: self.count("spectral.window_rank", p.rank))
        for module in (spectral, weights):
            # weights binds its own name for channel_projection_norm at import
            wrap(module, "channel_projection_norm", "spectral.channel_norm",
                 after=lambda r, *a, **k: self.count("spectral.channel_norm_calls"))

        wrap(weights, "build_weight", "weights.build")
        wrap(weights, "weight_validate", "weights.validate")
        wrap(weights, "forbidden_region_check", "weights.validate")
        wrap(weights, "twisted_gap_check", "weights.twisted_gap")
        self._patch(weights, "splu", counting_splu(weights.splu, "weights.gap_factorize",
                                                   "weights.gap_lu_solves"))
        wrap(weights, "tunnelling_interior_sum", "weights.tunnel_sum")
        wrap(weights, "tunnelling_exterior_sum", "weights.tunnel_sum")

        def propagate_bytes(states, p, state, times):
            dim, rank = p.basis.shape
            self.count("dynamics.propagate_bytes", len(times) * dim * rank * 8)

        wrap(dynamics, "prepare_state", "dynamics.prepare")
        wrap(dynamics, "propagate", "dynamics.propagate", after=propagate_bytes)
        wrap(dynamics, "record_observables", "dynamics.observables")
        wrap(dynamics, "bound_check_thm1", "dynamics.fit")
        wrap(dynamics, "growth_fit_thm2", "dynamics.fit")
        wrap(dynamics, "mobility_edge_scan", "dynamics.mobility_scan")
        wrap(grid.ChannelOperator, "eigenpairs", "grid.channel_solve",
             after=lambda r, *a, **k: self.count("grid.channel_solves"))

        def bytes_written(result, path, *args, **kwargs):
            # the manifest's wall_time_s makes its size vary from call to call
            if os.path.basename(path) != "manifest.json":
                self.count("runio.bytes_written", os.path.getsize(path))

        # cli binds write_csv / write_json from runio at import
        wrap(cli, "write_csv", "runio.write", after=bytes_written)
        wrap(cli, "write_json", "runio.write", after=bytes_written)

    def restore(self) -> None:
        while self._originals:
            owner, name, original = self._originals.pop()
            setattr(owner, name, original)

    # -- reporting ---------------------------------------------------------

    def self_times(self) -> dict:
        """{root index: {metric: self seconds}} over all recorded spans."""
        child_time = defaultdict(float)
        for metric, start, end, parent, root in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(Counter)
        for index, (metric, start, end, parent, root) in enumerate(self.spans):
            out[root][metric] += end - start - child_time[index]
        return out

    def counts_by_root(self) -> dict:
        out = defaultdict(Counter)
        for counter, value, root in self.counts:
            out[root][counter] += value
        return out


def layer_metrics(self_times, counts) -> dict:
    """Per-layer metric values from the self times and counts of some calls."""
    values = {f"{m}_s": self_times.get(m, 0.0) for m in SPAN_METRICS}
    values["cli.self_s"] = self_times.get("cli", 0.0)
    values.update({m: counts.get(m, 0) for m in COUNT_METRICS})
    computed = counts.get("spectral.eigenpairs_computed", 0)
    values["spectral.window_yield"] = \
        counts.get("spectral.window_rank", 0) / computed if computed else 0.0
    propagate_s = values["dynamics.propagate_s"]
    values["dynamics.propagate_gbs"] = \
        values["dynamics.propagate_bytes"] / propagate_s / 1e9 if propagate_s > 0 else 0.0
    return values
