"""fluxlab benchmark: warm per-subcommand wall times, set-up time and memory.

Usage, from the repository root:

    python3 bench/run.py --workload coupled-ref --seed 1 --seconds 50 --trace 0

The workload runs in one child process (``worker.py``) with the BLAS/OpenMP
thread count pinned before numpy loads.  ``setup_s`` is the median wall time
of several fresh interpreters that import numpy, scipy and the fluxlab solver
modules.  With ``--trace 1`` the child wraps each layer's public functions
and the per-layer metrics are reported instead.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
THREADS = 1
SETUP_SPAWNS = 9
WORKER_TIMEOUT_S = 160.0
_IMPORTS = "import numpy, scipy, fluxlab.cli, fluxlab.spectral, fluxlab.weights, fluxlab.dynamics"


def _environment() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = str(THREADS)
    # Whether the kernel can back numpy's large arrays with huge pages depends
    # on host memory fragmentation, so page-fault cost would vary from run to
    # run; with 4 KB pages every allocation pays the same cost.
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    return env


def _setup_seconds(env) -> list:
    """Wall time of fresh interpreters importing the solver stack."""
    samples = []
    for _ in range(SETUP_SPAWNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", _IMPORTS], env=env, check=True,
                       cwd=ROOT, timeout=60)
        samples.append(time.perf_counter() - start)
    return samples


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _src_lines() -> int:
    total = 0
    for path in sorted(glob.glob(os.path.join(SRC, "fluxlab", "*.py"))):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def _run_worker(args, env, out_dir) -> dict:
    log_path = os.path.join(out_dir, "worker.log")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=log, stderr=log)
        try:
            status = proc.wait(timeout=WORKER_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    result_path = os.path.join(out_dir, "result.json")
    if status != 0 or not os.path.exists(result_path):
        with open(log_path) as fh:
            sys.stderr.write(fh.read()[-4000:])
        raise RuntimeError(f"workload process exited with status {status}")
    with open(result_path) as fh:
        return json.load(fh)


def _metric_values(spec, result, setup) -> dict:
    """{name: (value, how it was taken)} for the metrics this mode reports."""
    if setup is None:
        rounds = result["layer_rounds"]
        return {e["name"]: (statistics.median(r[e["name"]] for r in rounds),
                            f"median of {len(rounds)} traced rounds")
                for e in spec["per_layer"]}
    values = {"setup_s": (statistics.median(setup), f"median of {len(setup)} spawns"),
              "peak_rss_mb": (result["peak_rss_mb"], "peak of the workload process")}
    for command, samples in result["times"].items():
        values[command.replace("-", "_") + "_s"] = (
            min(samples), f"fastest of {len(samples)} calls, median {statistics.median(samples):.4g}")
    return {e["name"]: values[e["name"]] for e in spec["end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fluxlab", "__init__.py")):
        print(f"benchmark: no fluxlab sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"benchmark: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    env = _environment()
    out_dir = os.path.join(ROOT, ".bench_run", f"{args.workload}-{os.getpid()}")
    os.makedirs(out_dir)
    try:
        setup = None if args.trace else _setup_seconds(env)
        result = _run_worker(args, env, out_dir)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(out_dir))
        except OSError:
            pass  # another run is still using it

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "nproc": os.cpu_count(), "threads": THREADS,
              **result["versions"], "cpu": _cpu_model(), "commit": _git_commit(),
              "src_lines": _src_lines()}
    print("environment " + json.dumps(record))
    units = {e["name"]: e["unit"] for e in spec["end_to_end"] + spec["per_layer"]}
    metrics = _metric_values(spec, result, setup)
    for name, (value, how) in metrics.items():
        print(f"{name:32s} {value:14.6g} {units[name]:6s} {how}")
    if args.trace:
        print("self seconds per call, by subcommand (median over traced rounds):")
        for command, per in result["breakdown"].items():
            top = sorted(per.items(), key=lambda kv: -kv[1])[:6]
            print(f"  {command:17s} " + ", ".join(f"{m} {v:.3g}" for m, v in top))
    attempted, failed = result["attempted"], len(result["failures"])
    print(f"failed_frac {failed}/{attempted} = {failed / attempted:.4g}")
    for failure in result["failures"][:10]:
        print(f"  failure: {failure}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
