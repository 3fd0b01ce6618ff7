"""Correctness gate: compare a subcommand's artifacts with the stored reference.

Only quantities the Hamiltonian and the window fix are compared: the window
rank, the in-window eigenvalues, the weight verdicts with the twisted
lambda_min, the theorem-1 verdict, and the mobility count with its verdict
flags.  Manifest bytes and the solver route are never compared, because a
solver change may legitimately alter them.

Eigenvalues (and the twisted lambda_min) must agree within
``TOLERANCE_REL * norm_h``: the eigensolver's residual contract is
|H v - lambda v| <= 1e-9 |H|, and for a Hermitian matrix that residual bounds
the eigenvalue error.
"""

from __future__ import annotations

import json
import os

TOLERANCE_REL = 1e-9


def _load_json(out_dir, name):
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def _read_column(out_dir, name, col):
    with open(os.path.join(out_dir, name)) as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:] if line]
    return [float(r[col]) for r in rows]


def observe(command: str, out_dir, window_top: float) -> dict:
    """The reference-relevant quantities of one subcommand's artifacts."""
    consts = _load_json(out_dir, "manifest.json")["constants"]
    if command == "spectrum":
        vals = _read_column(out_dir, "eigenvalues.csv", 1)
        inside = [v for v in vals if v <= window_top]
        return {"rank": len(inside), "eigenvalues": inside}
    if command == "project":
        return {"rank": _load_json(out_dir, "projection.json")["rank"],
                "eigenvalues": _read_column(out_dir, "eigenvalues.csv", 1)}
    if command == "tunnel":
        return {"rank": consts["rank"]}
    if command == "validate-weights":
        report = _load_json(out_dir, "weights_report.json")
        obs = {"all_passed": report["all_passed"]}
        for name, entry in report.items():
            if name == "forbidden_region":
                obs["forbidden_region"] = {k: entry[k] for k in
                                           ("interior_ok", "exterior_ok")}
            elif isinstance(entry, dict):
                hyp = entry["hypotheses"]
                obs[name] = {
                    "passed": entry["passed"],
                    "derivative_ok": hyp["derivative_ok"],
                    "bounded_ok": hyp["bounded_ok"],
                    "lipschitz_ok": hyp["lipschitz_ok"],
                    "gap_passed": entry["twisted_gap"]["passed"],
                    "lambda_min": entry["twisted_gap"]["lambda_min"],
                }
        return obs
    if command == "evolve":
        report = _load_json(out_dir, "evolve_report.json")
        return {"rank": consts["rank"], "thm1_passed": report["thm1"]["passed"]}
    if command == "mobility":
        report = _load_json(out_dir, "mobility_report.json")
        return {k: report[k] for k in
                ("n_localized", "empty_low_band", "empty_high_band")}
    raise ValueError(f"unknown subcommand {command!r}")


def compare(observed, expected, tol: float, path: str = "") -> list:
    """Mismatch descriptions; floats within ``tol``, everything else exact."""
    if isinstance(expected, dict):
        if not isinstance(observed, dict) or set(observed) != set(expected):
            return [f"{path or 'result'}: keys differ"]
        out = []
        for key in sorted(expected):
            out += compare(observed[key], expected[key], tol, f"{path}.{key}".lstrip("."))
        return out
    if isinstance(expected, list):
        if not isinstance(observed, list) or len(observed) != len(expected):
            return [f"{path}: length {len(observed)} != {len(expected)}"]
        out = []
        for i, (o, e) in enumerate(zip(observed, expected)):
            out += compare(o, e, tol, f"{path}[{i}]")
        return out
    if isinstance(expected, float):
        if isinstance(observed, bool) or not isinstance(observed, (int, float)):
            return [f"{path}: {observed!r} is not a number"]
        if not abs(observed - expected) <= tol:
            return [f"{path}: {observed!r} differs from {expected!r} by more than {tol:.3g}"]
        return []
    if observed != expected or type(observed) is not type(expected):
        return [f"{path}: {observed!r} != {expected!r}"]
    return []


class Gate:
    """A workload's stored reference and the tolerance derived from it."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.tol = TOLERANCE_REL * reference["norm_h"]

    @staticmethod
    def load(path) -> "Gate":
        with open(path) as fh:
            return Gate(json.load(fh))

    def check(self, command: str, out_dir) -> list:
        """Mismatches between the artifacts in ``out_dir`` and the reference."""
        obs = observe(command, out_dir, self.reference["window_top"])
        return compare(obs, self.reference["outputs"][command], self.tol, command)
