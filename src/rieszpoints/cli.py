"""Command-line surface: generation, convergence studies, verification,
and single-point potential queries.

Set definition grammar (plain text, one ``key = value`` per line, ``#``
comments allowed)::

    shape = ball | sphere | box | union
    center = <d numbers>            # ball, sphere
    radius = <number>               # ball, sphere
    low  = <d numbers>              # box
    high = <d numbers>              # box
    ball = <d numbers> <radius>     # union, repeatable
    holder_s = <number>             # optional Holder exponent s, 0 < s <= 1,
                                    # of the Green function near E (default
                                    # 1 for ball/sphere/union, none for box:
                                    # a box edge gives 2/3, a vertex ~0.45)

Vectors accept spaces or commas between numbers. The ambient dimension is
inferred from the vector lengths.

Commands: ``generate`` (points CSV + run manifest), ``study`` (one CSV
row per configuration size), ``verify`` (acceptance criteria, verdict
JSON), ``potential`` (single-point deficit query).

Exit codes: 0 success, 1 verification failure, 2 parse error, invalid
value (including a kernel evaluated at a coincidence or a floating-point
overflow) or unreadable/unwritable file, 3 infeasible input, 4
unsupported set/oracle, a non-Newtonian kernel (alpha != 2) for leja,
study or potential, or a missing Holder exponent.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .acceptance import DEFAULT_SEED, run_criteria, verdict_json
from .configurations import FeketeSearchParams, fekete_search_run, leja_sequence, random_config
from .discrepancy import (discrepancy_bound, equilibrium_oracle, moment_distance, phi_for_potential,
                          potential_error, sup_potential_deficit)
from .errors import (
    CoincidentPointsError,
    InfeasiblePointError,
    SetDefinitionError,
    UnsupportedOracleError,
)
from .kernel import KernelSpec
from .measures import discrete_energy, discrete_potential, read_points_csv, write_points_csv
from .sets import MEMBERSHIP_TOL, _parse_floats, distance_to_set, parse_set_definition, project_to_set
from .seeding import child_seed

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_INFEASIBLE = 3
EXIT_UNSUPPORTED = 4

# error type -> exit code; an error takes the code of its nearest listed base
_EXIT_CODES = {
    SetDefinitionError: EXIT_PARSE_ERROR,
    ValueError: EXIT_PARSE_ERROR,
    OSError: EXIT_PARSE_ERROR,
    CoincidentPointsError: EXIT_PARSE_ERROR,
    FloatingPointError: EXIT_PARSE_ERROR,
    OverflowError: EXIT_PARSE_ERROR,
    InfeasiblePointError: EXIT_INFEASIBLE,
    UnsupportedOracleError: EXIT_UNSUPPORTED,
}

STUDY_COLUMNS = ["n", "energy", "energy_gap", "m_E", "moment_distance",
                 "sup_deficit", "lhs", "rhs", "r"]


def _load_set(path: str):
    text = Path(path).read_text(encoding="utf-8")
    return parse_set_definition(text), text


def _write_manifest(path, command, set_text, spec, seed, params, outputs, result=None):
    manifest = {
        "command": command,
        "set_definition": set_text,
        "kernel": {"alpha": spec.alpha, "dim": spec.dim},
        "seed": seed,
        "params": params,
        "outputs": [str(p) for p in outputs],
        "tool_version": __version__,
        "result": result,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _default_probe(E) -> np.ndarray:
    """Deterministic exterior probe at distance 1 from E: a point far out
    along +e1 moved to distance 1 toward its nearest point of E, which
    every point of that segment shares."""
    far = np.array(E.enclosing_center, dtype=float)
    far[0] += E.enclosing_radius + 10.0
    near = project_to_set(E, far)
    return near + (far - near) / np.linalg.norm(far - near)


def _leja_start(E, args) -> np.ndarray:
    """The checked leja start: ``--xi0``, which must be a point of E, or by
    default the point of E nearest to one beyond it along +e1."""
    if args.candidates < 1:
        raise SetDefinitionError("--candidates must be >= 1")
    if args.xi0 is None:
        return project_to_set(E, E.enclosing_center + np.eye(E.dim)[0] * (E.enclosing_radius + 1.0))
    xi0 = np.array(_parse_floats(args.xi0, "--xi0"))
    if distance_to_set(E, xi0) > MEMBERSHIP_TOL:  # raises on a wrong dimension
        raise InfeasiblePointError("xi0 must lie in the set")
    return xi0


_NO_RUN = {"iterations": None, "converged": None, "grad_norm": None}


def _generate_config(E, spec, method, n, seed, args):
    """The configuration and its run record, with ``final_energy`` from a Fekete run only."""
    if method == "fekete":
        params = FeketeSearchParams(
            n=n, restarts=args.restarts, max_iters=args.max_iters,
            tol=args.tol, seed=seed,
        )
        run = fekete_search_run(E, spec, params)
        return run.config, {"final_energy": run.energy, "iterations": run.iterations,
                            "converged": run.converged, "grad_norm": run.grad_norm}
    if method == "leja":
        config = leja_sequence(E, spec, n, _leja_start(E, args), candidate_count=args.candidates, seed=seed)
    else:
        config = random_config(E, n, seed)
    return config, dict(_NO_RUN)


def cmd_generate(args) -> int:
    E, set_text = _load_set(args.set)
    spec = KernelSpec(alpha=args.alpha, dim=E.dim)
    if args.method == "fekete" and args.n < 2:
        raise SetDefinitionError("fekete needs --n >= 2")
    if args.n < 1:
        raise SetDefinitionError("--n must be >= 1")
    config, result = _generate_config(E, spec, args.method, args.n, args.seed, args)
    if "final_energy" not in result:
        result["final_energy"] = discrete_energy(config, spec) if config.n >= 2 else None
    write_points_csv(config, args.out)
    outputs = [args.out]
    if args.manifest:
        outputs.append(args.manifest)
        _write_manifest(
            args.manifest, "generate", set_text, spec, args.seed,
            {"method": args.method, "n": args.n, "restarts": args.restarts,
             "max_iters": args.max_iters, "tol": args.tol,
             "candidates": args.candidates, "xi0": args.xi0, "out": str(args.out)},
            outputs, result,
        )
    if result["final_energy"] is not None:
        print(f"energy {result['final_energy']!r}")
    else:
        print("energy n/a (single point)")
    return EXIT_OK


def cmd_study(args) -> int:
    E, set_text = _load_set(args.set)
    spec = KernelSpec(alpha=args.alpha, dim=E.dim)
    schedule = [int(t) for t in args.schedule.replace(",", " ").split()]
    if not schedule or any(n < 2 for n in schedule):
        raise SetDefinitionError("study schedule needs one or more entries, each >= 2")
    probe = np.array(_parse_floats(args.probe, "--probe")) if args.probe else _default_probe(E)
    if distance_to_set(E, probe) <= 0:
        raise InfeasiblePointError("probe must lie outside the set")
    start = _leja_start(E, args) if args.method == "leja" else None
    r_a = args.r_a if args.r_a is not None else 1.0 / E.dim
    radii = [args.r_c * n ** (-r_a) for n in schedule]
    if not all(0 < r < np.inf for r in radii):  # NaN fails too
        raise ValueError("r must be positive and finite")  # discrepancy_bound's check, made early
    if args.method == "fekete":  # raises ValueError on a bad option
        FeketeSearchParams(n=min(schedule), restarts=args.restarts, max_iters=args.max_iters, tol=args.tol)
    # after the cheap checks: on a box or union this builds a Fekete support
    oracle = equilibrium_oracle(E, spec)  # exit 4 when unsupported
    W = oracle.robin_constant
    phi = phi_for_potential(E, probe)

    # Leja rows are the n-point prefixes of one greedy sequence: leja_sequence
    # guarantees a prefix equals the shorter run, and the seed names no n, so
    # a row depends on (seed, n) alone and the greedy steps are shared
    longest = None
    if start is not None:
        longest = leja_sequence(E, spec, max(schedule), start, candidate_count=args.candidates,
                                seed=child_seed(args.seed, "study", "leja"))
    rows, runs = [], []
    for n, r_n in zip(schedule, radii):
        if longest is not None:
            config, result = longest.prefix(n), _NO_RUN
        else:
            config, result = _generate_config(E, spec, args.method, n, child_seed(args.seed, "study", n), args)
        runs.append({"n": n, "iterations": result["iterations"], "converged": result["converged"],
                     "grad_norm": result["grad_norm"]})
        rep = discrepancy_bound(oracle, config, phi, r_n)
        rows.append({
            "n": n,
            "energy": rep.energy,
            "energy_gap": rep.energy - W,
            "m_E": rep.m_term / 2.0,
            "moment_distance": moment_distance(config, oracle),
            "sup_deficit": sup_potential_deficit(oracle, config),
            "lhs": rep.lhs,
            "rhs": rep.rhs,
            "r": r_n,
        })

    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        w = csv.DictWriter(fh, fieldnames=STUDY_COLUMNS)
        w.writeheader()
        for row in rows:
            w.writerow({k: (repr(v) if isinstance(v, float) else v) for k, v in row.items()})
    outputs = [args.out]
    if args.manifest:
        outputs.append(args.manifest)
        _write_manifest(
            args.manifest, "study", set_text, spec, args.seed,
            {"method": args.method, "schedule": schedule, "probe": probe.tolist(),
             "r_c": args.r_c, "r_a": r_a, "restarts": args.restarts,
             "max_iters": args.max_iters, "tol": args.tol, "candidates": args.candidates,
             "xi0": args.xi0, "out": str(args.out)},
            outputs, {"runs": runs},
        )
    print(f"study written to {args.out} ({len(rows)} rows)")
    return EXIT_OK


def cmd_potential(args) -> int:
    E, _ = _load_set(args.set)
    spec = KernelSpec(alpha=args.alpha, dim=E.dim)
    X = read_points_csv(args.points)
    y = np.array(_parse_floats(args.y, "--y"))
    d_E = float(distance_to_set(E, y))
    if d_E <= 0:
        raise InfeasiblePointError("query point must lie outside the set")
    oracle = equilibrium_oracle(E, spec)
    u_eq = float(oracle.potential(y))
    u_X = discrete_potential(X, spec, y)
    out = {
        "y": y.tolist(),
        "d_E": d_E,
        "equilibrium_potential": u_eq,
        "discrete_potential": u_X,
        "deficit": u_eq - u_X,
    }
    if E.holder_s is not None and bool(np.all(distance_to_set(E, X.points) <= MEMBERSHIP_TOL)):
        _, shape = potential_error(oracle, X, y)
        out["bound_shape"] = shape
    print(json.dumps(out, sort_keys=True, indent=2))
    return EXIT_OK


def cmd_verify(args) -> int:
    only = args.only.split(",") if args.only else None
    results = run_criteria(seed=args.seed, only=only, ledger_path=args.ledger)
    text = verdict_json(results, args.seed)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    failed = [r.name for r in results if not r.passed]
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}", file=sys.stderr)
    if failed:
        print(f"failed criteria: {', '.join(failed)}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


class _OneLineParser(argparse.ArgumentParser):
    def error(self, message):  # one line, not the usage block; subparsers share the class
        self.exit(EXIT_PARSE_ERROR, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _OneLineParser(prog="rieszpoints", description=__doc__,
                            formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common_gen(p):
        p.add_argument("--set", required=True, help="set definition file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--alpha", type=float, default=2.0)
        p.add_argument("--restarts", type=int, default=FeketeSearchParams.restarts)
        p.add_argument("--max-iters", dest="max_iters", type=int, default=FeketeSearchParams.max_iters)
        p.add_argument("--tol", type=float, default=FeketeSearchParams.tol)
        p.add_argument("--candidates", type=int, default=4096,
                       help="size of the one candidate grid per leja sequence (default 4096); "
                            "a very small grid gives poor sequences")
        p.add_argument("--xi0", default=None, help="start point for leja, e.g. '1,0,0'")
        p.add_argument("--method", required=True, choices=["fekete", "leja", "random"])
        p.add_argument("--out", required=True)
        p.add_argument("--manifest", default=None)

    g = sub.add_parser("generate", help="write a configuration CSV and manifest")
    common_gen(g)
    g.add_argument("--n", type=int, required=True)
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("study", help="convergence study: one CSV row per n")
    common_gen(s)
    s.add_argument("--schedule", required=True, help="comma-separated n values")
    s.add_argument("--probe", default=None, help="exterior probe point (default: distance 1 along +e1)")
    s.add_argument("--r-c", dest="r_c", type=float, default=1.0)
    s.add_argument("--r-a", dest="r_a", type=float, default=None, help="smoothing decay r_n = c*n^-a (default 1/d)")
    s.set_defaults(func=cmd_study)

    q = sub.add_parser("potential", help="single-point deficit query")
    q.add_argument("--set", required=True)
    q.add_argument("--points", required=True, help="configuration CSV")
    q.add_argument("--y", required=True, help="query point, e.g. '2,0,0'")
    q.add_argument("--alpha", type=float, default=2.0)
    q.set_defaults(func=cmd_potential)

    v = sub.add_parser("verify", help="run the acceptance criteria")
    v.add_argument("--only", default=None, help="comma-separated name filters, e.g. 'energy'")
    v.add_argument("--seed", type=int, default=DEFAULT_SEED)
    v.add_argument("--out", default=None, help="write the verdict JSON here instead of stdout")
    v.add_argument("--ledger", default=None, help="path to oracle_ledger.csv")
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # an overflow means an input beyond floating-point range: exit 2, not garbage
        with np.errstate(over="raise", invalid="raise"):
            return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(_EXIT_CODES[t] for t in type(exc).__mro__ if t in _EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
