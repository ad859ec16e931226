"""Run the benchmark in two checkouts as alternating pairs and summarize.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload fekete-sphere leja-study-ball --seed 1 --seconds 20 --pairs 10 --out BENCH_x.json

Each pair runs ``perfbench/run.py --workload <w> --seed <s> --seconds <t>
--trace <0|1>`` once from the root of each checkout, one after the other;
pair 0 starts with the parent, pair 1 with the change, and so on, so a
drift of the machine's speed falls on both sides alike. ``--workload``
takes one or more names, and each pair then runs every one of them in
turn, so one command covers several workloads. The runs are
appended to the ``--out`` JSON file (created when missing), and its
``summary`` is rebuilt over all its pairs, one entry per workload, seed
and trace setting: per metric, the medians and quartiles of each side,
how many pairs the change won (lower is better for every metric the
benchmark reports), the parent median minus the change median, the
parent's interquartile distance, and ``claim_met``: whether the change
won at least nine tenths of the pairs and the median difference exceeds
that interquartile distance. Each end-to-end metric of ``BENCHMARK.json``
(read only, from the root of this repository) also gets
``within_bound``: whether the change's median is at most the parent's
median times 1 + its ``bound``, and ``unresolved``: whether the parent's
interquartile distance over its median exceeds that bound, so the pairs
cannot tell a regression from noise. Quartiles are linear percentiles 25
and 75, as numpy's default. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def end_to_end_bounds() -> dict:
    """The ``bound`` of each end-to-end metric of ``BENCHMARK.json``, by name."""
    return {m["name"]: m["bound"] for m in json.loads(BENCHMARK.read_text())["end_to_end"]}


def run_once(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One ``perfbench/run.py`` run from the root of ``checkout``: its
    result line, round line, operation timings and machine record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        err = proc.stderr.strip().splitlines()
        return {"error": f"exit {proc.returncode}: {err[-1] if err else 'no output'}"}
    result = json.loads(lines[-1])
    run = {k: result[k] for k in ("correct", "attempted", "failed")}
    run["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    for line in lines[:-1]:
        if line.startswith("workload "):
            run["rounds"] = line
        elif line.startswith("operations "):
            run["operations"] = {k: v["value"] for k, v in json.loads(line[len("operations "):]).items()}
        elif line.startswith("machine "):
            run["machine"] = json.loads(line[len("machine "):])
    return run


def percentile(values: list, q: float) -> float:
    """Linear-interpolation percentile ``q`` in [0, 100] of a non-empty list."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def _stats(values: list) -> dict:
    return {"median": percentile(values, 50), "q1": percentile(values, 25), "q3": percentile(values, 75),
            "n": len(values)}


def _values(run: dict) -> dict:
    """A run's metrics and operation timings, by name."""
    out = dict(run.get("metrics", {}))
    out.update({f"operations.{k}": v for k, v in run.get("operations", {}).items()})
    return out


def summarize(pairs: list, bounds: dict = None) -> dict:
    """Per workload, seed and trace setting, per metric that both sides of
    a pair report: each side's median and quartiles over the pairs, the
    change's wins (strictly lower), the parent median minus the change
    median, the parent's interquartile distance, and whether a gain is
    shown (``claim_met``: wins in at least nine tenths of the pairs and a
    median difference above that distance). A metric named in ``bounds``
    (name -> relative bound) also gets ``within_bound`` (the change's
    median at most the parent's times 1 + bound) and ``unresolved`` (the
    parent's interquartile distance above bound times its median); by
    default the bounds are ``BENCHMARK.json``'s. Pairs where a side failed
    to run count in ``errors`` only."""
    if bounds is None:
        bounds = end_to_end_bounds()
    groups: dict = {}
    for p in pairs:
        key = f"{p['workload']} seed {p['seed']}" + (" traced" if p["trace"] else "")
        groups.setdefault(key, []).append(p)
    summary = {}
    for key, group in groups.items():
        ok = [p for p in group if not any("error" in p[side] for side in SIDES)]
        entry = {"pairs": len(ok), "errors": len(group) - len(ok), "metrics": {}}
        names = sorted(set.intersection(*(set(_values(p[s])) for p in ok for s in SIDES))) if ok else []
        for name in names:
            parent = [_values(p["parent"])[name] for p in ok]
            change = [_values(p["change"])[name] for p in ok]
            ps, cs = _stats(parent), _stats(change)
            wins = sum(c < q for q, c in zip(parent, change))
            difference, spread = ps["median"] - cs["median"], ps["q3"] - ps["q1"]
            entry["metrics"][name] = {
                "parent": ps,
                "change": cs,
                "change_wins": wins,
                "median_difference": difference,
                "parent_interquartile": spread,
                "claim_met": 10 * wins >= 9 * len(ok) and difference > spread,
            }
            if name in bounds:
                entry["metrics"][name]["within_bound"] = cs["median"] <= ps["median"] * (1.0 + bounds[name])
                entry["metrics"][name]["unresolved"] = spread > bounds[name] * ps["median"]
        summary[key] = entry
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--parent", type=Path, required=True, help="root of the parent checkout")
    p.add_argument("--change", type=Path, required=True, help="root of the changed checkout")
    p.add_argument("--workload", required=True, nargs="+", help="one or more workloads, each run in every pair")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--out", type=Path, required=True, help="BENCH_<name>.json to create or extend")
    p.add_argument("--description", help="what the two checkouts are; kept from an existing file otherwise")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    doc = json.loads(args.out.read_text()) if args.out.exists() else {"pairs": []}
    if args.description:
        doc["description"] = args.description
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for workload in args.workload:
            pair = {"pair": len(doc["pairs"]), "workload": workload, "seed": args.seed, "trace": args.trace,
                    "first": order[0]}
            for side in order:
                pair[side] = run_once(checkouts[side], workload, args.seed, args.seconds, args.trace)
                machine = pair[side].pop("machine", None)
                if machine and not doc.get("machine"):
                    doc["machine"] = machine
            doc["pairs"].append(pair)
            print(json.dumps({side: pair[side].get("metrics", pair[side].get("error")) for side in order}), flush=True)
            doc["summary"] = summarize(doc["pairs"])
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
