"""Runs one benchmark workload in this process and reports it as JSON.

Started by run.py. The worker imports rieszpoints from the checkout's
``src`` directory, builds the workload's inputs, prints ``ready`` and,
unless ``--setup-only`` is given, runs whole rounds of the workload's
operations until ``--seconds`` have passed. With ``--trace 1`` each
round is followed by a round with every layer traced. Outputs are
checked after the timed rounds; the last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import rieszpoints  # noqa: E402
from rieszpoints import FeketeSearchParams, KernelSpec, sphere_surface  # noqa: E402
# called through their modules, so that a traced run sees the calls
from rieszpoints import cli, configurations  # noqa: E402
from rieszpoints.acceptance import DEFAULT_SEED  # noqa: E402
from rieszpoints.oracles import reference_energy  # noqa: E402
from rieszpoints.seeding import child_seed  # noqa: E402

import checks  # noqa: E402
from spans import LAYERS, Tracer, summarize, wrapper_cost_s  # noqa: E402

WORK = ROOT / ".perfbench"

# per-layer metrics of a traced run: name -> unit
TIMED_FUNCTIONS = [
    "configurations.leja_next", "sets.project_to_set", "sets.sample_candidates", "sets.sample_uniform",
    "measures.discrete_energy", "measures.discrete_potential", "discrepancy.discrepancy_bound",
    "discrepancy.sup_potential_deficit", "oracles.reference_energy", "oracles.sphere_potential_quadrature",
    "oracles.grid_fekete", "oracles.replay_ledger",
]
COUNTED_FUNCTIONS = ["configurations.leja_next", "sets.project_to_set", "measures.discrete_energy"]
PAIRED_FUNCTIONS = ["configurations.leja_next", "measures.discrete_potential"]
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{name}.s": "s" for name in TIMED_FUNCTIONS},
    **{f"{name}.calls": "count" for name in COUNTED_FUNCTIONS},
    **{f"{name}.pairs": "count" for name in PAIRED_FUNCTIONS},
    "kernel.calls": "count",
    "configurations.fekete.iterations.n40": "count",
    "configurations.fekete.iterations.n200": "count",
    "configurations.fekete.excess.n200": "1",
    "trace.overhead_s": "s",
}


@dataclass
class Outcome:
    failed: bool
    fingerprint: Any  # equal across rounds iff the output is bitwise equal
    payload: Any  # what the check reads


@dataclass
class Op:
    name: str  # the operation's timing name, e.g. "fekete_s.n40"
    run: Callable[[], Outcome]
    check: Callable[[Any], list]


def _quiet_cli(argv) -> int:
    """cli.main with its console output kept off the worker's stdout."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _cli_outcome(argv, out: Path) -> Outcome:
    """Run a CLI command that writes ``out``; it failed on a nonzero exit.
    A failed ``verify`` still writes its verdict, which the check then
    reads; where no file was written the payload is None."""
    out.unlink(missing_ok=True)
    rc = _quiet_cli(argv)
    text = out.read_text(encoding="utf-8") if out.exists() else None
    return Outcome(rc != 0, text, text)


# ---------------------------------------------------------------------------
# workloads: each builds its inputs in the constructor (the set-up)
# ---------------------------------------------------------------------------

class Workload:
    ops: list

    @staticmethod
    def layer_metrics(outcomes) -> dict:
        """Per-layer metrics read from the first round's outputs."""
        return {}


class FeketeSphere(Workload):
    """fekete_search_run on the unit sphere with the acceptance suite's
    settings at its default seed. The seed argument does not change the
    inputs: the n = 200 solve is a known, seed-independent failure, and
    only pinned restarts are known to reach the n = 40 optimum.

    n = 40 runs the suite's 6 restarts. n = 200 runs the first of its 3
    restarts, which reaches the iteration cap just as all three do; that
    keeps a round near 6 s, so a run holds several rounds."""

    SIZES = {40: 6, 200: 1}  # n -> restarts

    def __init__(self, seed, workdir):
        self.sphere = sphere_surface([0.0, 0.0, 0.0], 1.0)
        self.spec = KernelSpec(alpha=2.0, dim=3)
        self.params = {
            n: FeketeSearchParams(n=n, restarts=r, max_iters=3000, tol=1e-14,
                                  seed=child_seed(DEFAULT_SEED, "fekete", "sphere", n))
            for n, r in self.SIZES.items()
        }
        self.ops = [Op(f"fekete_s.n{n}", self._solver(n), self._checker(n)) for n in self.SIZES]

    def _solver(self, n):
        def solve():
            run = configurations.fekete_search_run(self.sphere, self.spec, self.params[n])
            pts = run.config.points
            return Outcome(not run.converged, (run.energy, pts.tobytes(), run.iterations, run.converged), run)
        return solve

    def _checker(self, n):
        def check(run):
            return checks.check_fekete(n, run.energy, run.config.points, reference_energy(run.config, self.spec))
        return check

    @staticmethod
    def layer_metrics(outcomes):
        run40, run200 = outcomes["fekete_s.n40"].payload, outcomes["fekete_s.n200"].payload
        return {
            "configurations.fekete.iterations.n40": run40.iterations,
            "configurations.fekete.iterations.n200": run200.iterations,
            "configurations.fekete.excess.n200": run200.energy - checks.thomson_normalized(200),
        }


class LejaStudyBall(Workload):
    """``rieszpoints study --method leja`` on the unit ball."""

    SCHEDULE = [50, 100, 200, 400]

    def __init__(self, seed, workdir):
        set_path = workdir / "ball.txt"
        set_path.write_text("shape = ball\ncenter = 0 0 0\nradius = 1.0\n", encoding="utf-8")
        self.out = workdir / "study.csv"
        self.argv = ["study", "--set", str(set_path), "--method", "leja",
                     "--schedule", ",".join(map(str, self.SCHEDULE)), "--seed", str(seed),
                     "--out", str(self.out)]
        self.ops = [Op("study_s", lambda: _cli_outcome(self.argv, self.out),
                       lambda text: checks.check_study(text, self.SCHEDULE))]


class VerifyOracles(Workload):
    """``rieszpoints verify --only <name>``, one criterion at a time."""

    CRITERIA = ["energy_correctness", "robin_constant_unit_ball", "fekete_small_n_optimality", "provenance"]

    def __init__(self, seed, workdir):
        self.ops = []
        for name in self.CRITERIA:
            out = workdir / f"verdict-{name}.json"
            argv = ["verify", "--only", name, "--seed", str(seed), "--out", str(out)]
            self.ops.append(Op(f"verify_s.{name}", lambda argv=argv, out=out: _cli_outcome(argv, out),
                               lambda text, name=name: checks.check_verdict(text, name)))


WORKLOADS = {
    "fekete-sphere": FeketeSphere,
    "leja-study-ball": LejaStudyBall,
    "verify-oracles": VerifyOracles,
}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def run_round(ops):
    """Every op once; returns (round wall, {op name: (op wall, Outcome)})."""
    t0 = time.perf_counter()
    results = {}
    for op in ops:
        t = time.perf_counter()
        outcome = op.run()
        results[op.name] = (time.perf_counter() - t, outcome)
    return time.perf_counter() - t0, results


def run_rounds(ops, seconds, tracer=None):
    """Whole rounds until ``seconds`` have passed. With a tracer, each
    untraced round is followed by a traced one, so that both see the
    machine in the same state. Returns (untraced rounds, traced rounds)."""
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        untraced.append(run_round(ops))
        if tracer is not None:
            tracer.install()
            try:
                traced.append(run_round(ops))
            finally:
                tracer.uninstall()
        if time.perf_counter() - start >= seconds:
            return untraced, traced


def verify_outputs(ops, untraced, traced) -> list[str]:
    """Every round's output of an op is bitwise equal to the first one,
    traced rounds included; the first one passes the op's check."""
    problems = []
    for op in ops:
        first = untraced[0][1][op.name][1]
        for label, rounds in (("untraced", untraced), ("traced", traced)):
            for i, (_, results) in enumerate(rounds):
                if results[op.name][1].fingerprint != first.fingerprint:
                    problems.append(f"{op.name}: {label} round {i} output differs from the first round")
        problems.extend(f"{op.name}: {p}" for p in op.check(first.payload))
    return problems


def layer_metrics(tracer, rounds, workload_metrics):
    s = summarize(tracer.spans)
    metrics = {f"{layer}.self_s": s["self_s"].get(layer, 0.0) / rounds for layer in LAYERS}
    metrics.update({f"{n}.s": s["inclusive_s"].get(n, 0.0) / rounds for n in TIMED_FUNCTIONS})
    metrics.update({f"{n}.calls": s["calls"].get(n, 0) / rounds for n in COUNTED_FUNCTIONS})
    metrics.update({f"{n}.pairs": tracer.pairs.get(n, 0) / rounds for n in PAIRED_FUNCTIONS})
    metrics["kernel.calls"] = s["layer_calls"].get("kernel", 0) / rounds
    metrics.update({name: 0 for name in PER_LAYER if name.startswith("configurations.fekete.")})
    metrics.update(workload_metrics)
    return metrics


def machine_record() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    package = Path(rieszpoints.__file__).resolve()
    if ROOT / "src" not in package.parents:
        print(f"error: imported rieszpoints from {package}, not from this checkout", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        ops = workload.ops
        tracer = Tracer() if args.trace else None
        untraced, traced = run_rounds(ops, args.seconds, tracer)
        if tracer is not None:
            (WORK / "traces").mkdir(exist_ok=True)
            tracer.write(WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
        problems = verify_outputs(ops, untraced, traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # every round reproduces the first bitwise, so the first one's
    # counts hold for all of them, however many rounds the run held
    first = {name: o for name, (_, o) in untraced[0][1].items()}
    wall = statistics.median(w for w, _ in untraced)
    op_times = {op.name: statistics.median(r[op.name][0] for _, r in untraced) for op in ops}
    result = {
        "rounds": len(untraced),
        "attempted": len(first),
        "failed": sum(o.failed for o in first.values()),
        "problems": problems,
        "machine": machine_record(),
        "operations": op_times,
        "wall_s": wall,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        metrics = layer_metrics(tracer, len(traced), workload.layer_metrics(first))
        metrics["trace.overhead_s"] = wrapper_cost_s() * len(tracer.spans) / len(traced)
        result["round_diff_s"] = statistics.median(t[0] - u[0] for u, t in zip(untraced, traced))
        result["per_layer"] = {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER.items()}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
