"""Workload child process: warm up, then issue the subcommands back to back.

Closed loop, one client: each round calls ``fluxlab.cli.run(subcommand,
config, out, verify=True)`` once per subcommand, and the next call starts
when the previous one returns.  A new round starts while it is expected to
end within ``--seconds`` (the last round's duration is the estimate).
Every call is checked against the workload's reference; a call that
raises, returns nonzero, fails ``--verify`` or disagrees with the reference
counts as failed.

With ``--trace 1`` rounds alternate untraced and traced, so the tracing
overhead is measured within one process.  The result goes to
``<out>/result.json``; ``run.py`` turns it into metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter

from gate import Gate
from tracing import Tracer, layer_metrics
from workloads import SUBCOMMANDS, WORKLOADS

class Client:
    """Issues subcommand calls and keeps the tally of failures."""

    def __init__(self, out_dir, gate):
        from fluxlab import cli
        self.cli = cli
        self.out_dir = out_dir
        self.gate = gate
        self.attempted = 0
        self.failures = []

    def issue(self, command, config_path, checked=True, tracer=None):
        """Run one call; returns (seconds, root span index or None)."""
        out = os.path.join(self.out_dir, "runs", command)
        shutil.rmtree(out, ignore_errors=True)
        root = len(tracer.spans) if tracer is not None else None
        self.attempted += 1
        problem = None
        start = time.perf_counter()
        try:
            if tracer is not None:
                status = tracer.call("cli", self.cli.run, command, config_path, out,
                                     verify=True)
            else:
                status = self.cli.run(command, config_path, out, verify=True)
        except Exception as exc:  # a failed call is counted, not fatal
            status, problem = None, f"raised {exc!r}"
        seconds = time.perf_counter() - start
        if problem is None and status != 0:
            problem = f"returned {status}"
        if problem is None and checked:
            try:
                mismatches = self.gate.check(command, out)
            except (OSError, KeyError, ValueError) as exc:
                mismatches = [f"artifacts unreadable: {exc!r}"]
            if mismatches:
                problem = "; ".join(mismatches[:3])
        if problem is not None:
            self.failures.append(f"{command}: {problem}")
        return seconds, root


def _write_configs(directory, configs) -> dict:
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for command, text in configs.items():
        paths[command] = os.path.join(directory, f"{command}.cfg")
        with open(paths[command], "w") as fh:
            fh.write(text)
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    here = os.path.dirname(os.path.abspath(__file__))
    gate = Gate.load(os.path.join(here, "reference", f"{workload.name}.json"))
    client = Client(args.out, gate)
    warm = _write_configs(os.path.join(args.out, "warmup"), workload.warmup_configs())
    timed = _write_configs(os.path.join(args.out, "config"), workload.configs(args.seed))

    for command in SUBCOMMANDS:
        client.issue(command, warm[command], checked=False)

    tracer = Tracer() if args.trace else None
    times = {command: [] for command in SUBCOMMANDS}
    round_s = {"untraced": [], "traced": []}
    layer_rounds, traced_roots = [], []
    deadline = time.perf_counter() + args.seconds
    n_round = 0
    while True:
        traced = bool(args.trace) and n_round % 2 == 1
        if traced:
            tracer.install()
        try:
            calls = {command: client.issue(command, timed[command],
                                           tracer=tracer if traced else None)
                     for command in SUBCOMMANDS}
        finally:
            if traced:
                tracer.restore()
        round_s["traced" if traced else "untraced"].append(
            sum(seconds for seconds, _ in calls.values()))
        if traced:
            traced_roots.append({command: root for command, (_, root) in calls.items()})
        else:
            for command, (seconds, _) in calls.items():
                times[command].append(seconds)
        n_round += 1
        # start a round only if it should end before the deadline
        last = round_s["traced" if traced else "untraced"][-1]
        if time.perf_counter() + last > deadline and n_round >= 1 + args.trace:
            break

    breakdown = {}
    if tracer is not None:
        self_times, counts = tracer.self_times(), tracer.counts_by_root()
        for roots in traced_roots:
            total_self, total_counts = Counter(), Counter()
            for command, root in roots.items():
                total_self.update(self_times[root])
                total_counts.update(counts[root])
                for metric, value in self_times[root].items():
                    breakdown.setdefault(command, {}).setdefault(metric, []).append(value)
            layer_rounds.append(layer_metrics(total_self, total_counts))
        overhead = statistics.median(round_s["traced"]) - statistics.median(round_s["untraced"])
        for values in layer_rounds:
            values["trace.overhead_s"] = overhead
        breakdown = {command: {metric: statistics.median(v) for metric, v in per.items()}
                     for command, per in breakdown.items()}

    import numpy
    import scipy
    result = {
        "times": times,
        "round_s": round_s,
        "attempted": client.attempted,
        "failures": client.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layer_rounds": layer_rounds,
        "breakdown": breakdown,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
