"""Regenerate the stored reference outputs of every workload.

Run from the repository root on a commit whose outputs are trusted:

    python3 bench/make_reference.py

Each workload's six subcommands run once with seed 0; the quantities the
correctness gate compares (see ``gate.py``) are written to
``bench/reference/<workload>.json``.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from gate import TOLERANCE_REL, observe  # noqa: E402
from workloads import SUBCOMMANDS, WORKLOADS  # noqa: E402


def reference_for(workload, work_dir) -> dict:
    from fluxlab import cli
    configs = workload.configs(0)
    window_top = float(workload.model["window.E0"])
    outputs = {}
    for command in SUBCOMMANDS:
        cfg = os.path.join(work_dir, f"{command}.cfg")
        with open(cfg, "w") as fh:
            fh.write(configs[command])
        out = os.path.join(work_dir, command)
        if cli.run(command, cfg, out, verify=True) != 0:
            raise RuntimeError(f"{workload.name} {command} failed")
        if command == "spectrum":
            with open(os.path.join(out, "manifest.json")) as fh:
                norm_h = json.load(fh)["constants"]["norm_inf"]
            with open(os.path.join(out, "eigenvalues.csv")) as fh:
                edge_gap = min(abs(float(line.split(",")[1]) - window_top)
                               for line in fh.read().splitlines()[1:])
        outputs[command] = observe(command, out, window_top)
    # an eigenvalue within the tolerance of the window edge could change
    # sides under a solver that still meets the residual contract
    if edge_gap <= 2 * TOLERANCE_REL * norm_h:
        raise RuntimeError(f"{workload.name}: an eigenvalue lies within two "
                           "tolerances of the window edge")
    return {"workload": workload.name, "norm_h": norm_h, "window_top": window_top,
            "outputs": outputs}


def main() -> int:
    scratch = os.path.join(os.path.dirname(HERE), ".bench_run")
    os.makedirs(scratch, exist_ok=True)
    for workload in WORKLOADS.values():
        with tempfile.TemporaryDirectory(dir=scratch) as work_dir:
            reference = reference_for(workload, work_dir)
        path = os.path.join(HERE, "reference", f"{workload.name}.json")
        with open(path, "w") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{workload.name}: rank {reference['outputs']['project']['rank']}, "
              f"tolerance {TOLERANCE_REL * reference['norm_h']:.3g} -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
