"""The rieszpoints benchmark.

    python3 perfbench/run.py --workload fekete-sphere --seed 1 --seconds 20 --trace 0

Runs one workload (see README.md) from the root of a checkout. Set-up is
measured over seven fresh worker processes, each timed from its start
until it has imported rieszpoints and built the workload's inputs; the
fourth of them goes on to run the timed rounds. Prints a machine record
and the per-operation timings, then, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Exits non-zero without a result when a worker fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("fekete-sphere", "leja-study-ball", "verify-oracles")
SETUP_RUNS = 7  # set-up samples per run, odd; the median is reported
DEADLINE_S = 170.0  # a run must end within 180 s


class WorkerFailed(Exception):
    pass


def start_worker(args, extra, deadline):
    """Start a worker and wait for its ``ready`` line; returns the process
    and the seconds from its start to ready."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc, deadline)
        raise WorkerFailed(f"worker did not get ready (exit {proc.returncode})")
    return proc, setup


def finish(proc, deadline) -> str:
    """Wait for a worker to end and return the rest of its stdout."""
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerFailed("worker ran past the deadline")
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with {proc.returncode}")
    return out


def measure(args) -> dict:
    """Set-up is sampled before and after the timed worker, so that its
    median spans the whole run rather than the machine's state at its start."""
    deadline = time.monotonic() + DEADLINE_S

    def setup_only():
        proc, setup = start_worker(args, ["--setup-only"], deadline)
        finish(proc, deadline)
        return setup

    setups = [setup_only() for _ in range(SETUP_RUNS // 2)]
    proc, setup = start_worker(args, ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    setups.append(setup)
    result = json.loads(finish(proc, deadline).strip().splitlines()[-1])
    setups += [setup_only() for _ in range(SETUP_RUNS // 2)]
    result["setup_s"] = statistics.median(setups)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        r = measure(args)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print("machine " + json.dumps(r["machine"], sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {r['rounds']} rounds, "
          f"{r['attempted']} operations attempted per round, {r['failed']} failed")
    print("operations " + json.dumps({k: {"value": v, "unit": "s"} for k, v in r["operations"].items()}))
    for problem in r["problems"]:
        print(f"check failed: {problem}")
    if args.trace:
        print(f"traced round minus untraced round: {r['round_diff_s']:.3f} s (median over pairs)")
        metrics = r["per_layer"]
    else:
        metrics = {
            "setup_s": {"value": r["setup_s"], "unit": "s"},
            "wall_s": {"value": r["wall_s"], "unit": "s"},
            "peak_rss_mib": {"value": r["peak_rss_mib"], "unit": "MiB"},
        }
    print(json.dumps({"correct": not r["problems"], "attempted": r["attempted"],
                      "failed": r["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
