"""Canned convergence experiment: minimum-energy and greedy points on the
unit sphere across a doubling schedule, with all diagnostics written as
CSV for offline plotting.

Usage:
    python scripts/run_convergence_study.py [--outdir outputs] [--seed 7]
"""

import argparse
import tempfile
from pathlib import Path

from rieszpoints.cli import main as cli_main

SPHERE = """\
shape = sphere
center = 0 0 0
radius = 1.0
"""


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--outdir", default="outputs")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--schedule", default="10,20,40,80,160")
    args = ap.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        set_file = Path(tmp) / "sphere.txt"
        set_file.write_text(SPHERE, encoding="utf-8")
        for method in ("fekete", "leja", "random"):
            out = outdir / f"study_{method}.csv"
            manifest = outdir / f"study_{method}.json"
            rc = cli_main([
                "study", "--set", str(set_file), "--method", method,
                "--schedule", args.schedule, "--seed", str(args.seed),
                "--out", str(out), "--manifest", str(manifest),
            ])
            if rc != 0:
                raise SystemExit(rc)
            print(f"{method}: wrote {out}")


if __name__ == "__main__":
    main()
