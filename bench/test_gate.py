"""Negative controls for the correctness gate, and a check of the tracer.

Run from the repository root:

    python3 -m pytest -q bench/test_gate.py

The true reference must count no failure; a reference with one eigenvalue
shifted past the tolerance, or with one verdict flipped, must count one.
"""

import copy
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from gate import Gate  # noqa: E402
from tracing import Tracer  # noqa: E402
from worker import Client, _write_configs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKLOAD = "coupled-ref"
COMMANDS = ("spectrum", "validate-weights", "evolve", "mobility")


@pytest.fixture(scope="module")
def gate():
    return Gate.load(os.path.join(HERE, "reference", f"{WORKLOAD}.json"))


@pytest.fixture(scope="module")
def outputs(gate, tmp_path_factory):
    """Real artifacts of the workload's subcommands, seed 3."""
    work = tmp_path_factory.mktemp("bench")
    configs = _write_configs(str(work / "config"), WORKLOADS[WORKLOAD].configs(3))
    client = Client(str(work), gate)
    for command in COMMANDS:
        client.issue(command, configs[command])
    assert client.failures == []
    return work / "runs", configs


def perturbed(gate, edit) -> Gate:
    reference = copy.deepcopy(gate.reference)
    edit(reference["outputs"])
    return Gate(reference)


def test_true_reference_counts_no_failure(gate, outputs):
    runs, _ = outputs
    for command in COMMANDS:
        assert gate.check(command, str(runs / command)) == []


def shift_eigenvalue(outputs, by):
    outputs["spectrum"]["eigenvalues"][3] += by


def test_shift_within_tolerance_passes(gate, outputs):
    runs, _ = outputs
    shifted = perturbed(gate, lambda o: shift_eigenvalue(o, 0.5 * gate.tol))
    assert shifted.check("spectrum", str(runs / "spectrum")) == []


def drop_eigenvalue(outputs, tol):
    outputs["spectrum"]["eigenvalues"].pop()


def shift_lambda_min(outputs, tol):
    outputs["validate-weights"]["interior"]["lambda_min"] -= 2.0 * tol


def flip_weight_verdict(outputs, tol):
    outputs["validate-weights"]["exterior"]["passed"] = False


def flip_thm1_verdict(outputs, tol):
    outputs["evolve"]["thm1_passed"] = not outputs["evolve"]["thm1_passed"]


def flip_mobility_flag(outputs, tol):
    outputs["mobility"]["empty_low_band"] = not outputs["mobility"]["empty_low_band"]


@pytest.mark.parametrize("command, edit", [
    ("spectrum", lambda o, tol: shift_eigenvalue(o, 2.0 * tol)),
    ("spectrum", drop_eigenvalue),
    ("validate-weights", shift_lambda_min),
    ("validate-weights", flip_weight_verdict),
    ("evolve", flip_thm1_verdict),
    ("mobility", flip_mobility_flag),
])
def test_perturbed_reference_counts_one_failure(gate, outputs, command, edit):
    runs, configs = outputs
    bad = perturbed(gate, lambda o: edit(o, gate.tol))
    assert bad.check(command, str(runs / command)) != []
    client = Client(str(runs.parent / "negative"), bad)
    client.issue(command, configs[command])
    assert len(client.failures) == 1 and client.attempted == 1


def test_tracer_counts_and_restores(gate, outputs, tmp_path):
    from fluxlab import cli, spectral, weights
    _, configs = outputs
    before = (spectral.splu, spectral.eigsh, spectral.diagonalize, weights.splu,
              weights.channel_projection_norm, cli.write_json)
    tracer = Tracer()
    tracer.install()
    try:
        Client(str(tmp_path), gate).issue("spectrum", configs["spectrum"], tracer=tracer)
    finally:
        tracer.restore()
    assert before == (spectral.splu, spectral.eigsh, spectral.diagonalize, weights.splu,
                      weights.channel_projection_norm, cli.write_json)
    counts = tracer.counts_by_root()[0]
    assert counts["spectral.eigsh_calls"] >= 1 and counts["spectral.lu_solves"] > 0
    self_times = tracer.self_times()[0]
    _, start, end, _, _ = tracer.spans[0]
    assert sum(self_times.values()) == pytest.approx(end - start, rel=1e-9)
    assert self_times["spectral.diagonalize"] > self_times["spectral.assemble"]
