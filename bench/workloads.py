"""Workload definitions: one fluxlab model per workload, configs per subcommand.

Every workload issues all six CLI subcommands, because every end-to-end
metric is reported on every workload.  The coupled models have no mobility
edge (the scan needs linear flux and W = 0), so their `mobility` call scans
the linear-flux, W = 0 model on the same grid.

The seed varies only inputs that leave the Hamiltonian and the window
unchanged (the evolve seed-state centre and the time-grid endpoints), so the
stored reference outputs apply to every seed.
"""

from __future__ import annotations

import random

SUBCOMMANDS = ("spectrum", "project", "tunnel", "validate-weights", "evolve",
               "mobility")

_POWER_LAW = {"profile.kind": "power_law", "profile.lambda": 1.0,
              "profile.sigma": 1.5}
_LINEAR = {"profile.kind": "linear", "profile.lambda": 1.0, "w.form": "none"}
_GEVREY_EXP = {"w.form": "gevrey_exp", "w.amp": 0.2, "w.a": 1.5, "w.mu": 0.5,
               "w.s": 1.0}


def _grid(n_r, r_max, j_max):
    return {"grid.n_r": n_r, "grid.r_max": r_max, "channels.j_max": j_max}


class Workload:
    """A model, the centre of its evolve seed state, and a warm-up model.

    ``model`` holds the keys every subcommand reads.  ``warmup`` is a small
    model that takes the same solver routes, so first-call costs are paid
    before timing starts; it uses the CLI's default seed state and times.
    """

    def __init__(self, name, model, j0, r0, warmup):
        self.name = name
        self.model = model
        self.j0, self.r0 = j0, r0
        self.warmup = warmup

    def configs(self, seed: int) -> dict:
        """Config text per subcommand for this seed."""
        rng = random.Random(seed)
        return _configs(self.model, {
            "seed.j0": self.j0 + rng.randint(-1, 1),
            "seed.r0": round(self.r0 * rng.uniform(0.9, 1.1), 6),
            "time.t0": round(rng.uniform(0.5, 2.0), 6),
            "time.t1": round(rng.uniform(500.0, 2000.0), 6),
            "time.n": 48,
        })

    def warmup_configs(self) -> dict:
        return _configs(self.warmup, {})


def _configs(model, evolve) -> dict:
    grid = {k: v for k, v in model.items() if k.startswith(("grid.", "channels."))}
    out = {}
    for sub in SUBCOMMANDS:
        if sub == "mobility":
            keys = {**_LINEAR, **grid}
        elif sub == "evolve":
            keys = {**model, **evolve}
        else:
            keys = model
        out[sub] = "".join(f"{k} = {v}\n" for k, v in keys.items())
    return out


WORKLOADS = {w.name: w for w in (
    # The README/ROADMAP reference model on the first rung of the ROADMAP's
    # size ladder (270 x 12): shift-invert window solve plus the twisted-gap
    # Lanczos, which dominates validate-weights.
    Workload("coupled-ref",
             {**_POWER_LAW, **_grid(270, 18.0, 12), **_GEVREY_EXP,
              "window.E0": 1.0},
             j0=6, r0=5.2,
             warmup={**_POWER_LAW, **_grid(180, 18.0, 11), **_GEVREY_EXP,
                     "window.E0": 1.0}),
    # Linear flux with W = 0: per-channel tridiagonal route, no shift-invert;
    # evolve is dominated by propagation over a large real basis, and the
    # mobility scan runs on the workload's own model.
    Workload("uncoupled-linear",
             {**_LINEAR, **_grid(800, 32.0, 20), "window.E0": 0.9},
             j0=10, r0=10.0,
             warmup={**_LINEAR, **_grid(200, 16.0, 8), "window.E0": 0.9}),
)}
