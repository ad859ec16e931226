"""Acceptance criteria: self-contained seeded checks with deterministic,
JSON-serializable outcomes.

Each criterion returns a CriterionResult whose details carry only values
derived from the seed (never wall-clock data), so two runs at the same
seed serialize to bitwise-identical verdicts. The ``reproducibility``
criterion re-runs every other selected criterion from scratch and
compares the serialized verdicts byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .configurations import FeketeSearchParams, fekete_search_run, leja_sequence, random_config
from .discrepancy import (closeness_m_E, discrepancy_bound, equilibrium_oracle, moment_distance, phi_for_potential,
                          potential_error, radial_hat, sphere_probe_rule)
from .kernel import KernelSpec, potential_sums
from .measures import PointConfig, discrete_energy
from .oracles import (
    describe_mismatch,
    reference_energy,
    replay_ledger,
    simplex_energy,
    sphere_potential_quadrature,
)
from .seeding import child_seed, substream
from .sets import ball, project_to_set, random_rotation, sample_uniform, sphere_surface

DEFAULT_SEED = 1601

# Minimum Coulomb energy of 40 unit charges on the unit sphere,
# E = 660.675278835 (Wales & Ulker, Phys. Rev. B 74, 2006), normalized
# as 2E / (n(n-1)) like every energy in this package.
THOMSON_40_NORMALIZED = 2.0 * 660.675278835 / (40 * 39)


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    details: dict


def _result(name: str, passed: bool, **details) -> CriterionResult:
    return CriterionResult(name=name, passed=bool(passed), details=details)


_SPEC3 = KernelSpec(alpha=2.0, dim=3)
_SPHERE = sphere_surface([0.0, 0.0, 0.0], 1.0)
_BALL = ball([0.0, 0.0, 0.0], 1.0)


def _fekete_cached(ctx: dict, seed: int, set_key: str, E, n: int):
    key = ("fekete", set_key, n)
    if key not in ctx:
        params = FeketeSearchParams(
            n=n,
            restarts=6 if n <= 60 else (4 if n <= 150 else 3),
            tol=1e-14,
            seed=child_seed(seed, "fekete", set_key, n),
        )
        ctx[key] = fekete_search_run(E, _SPEC3, params)
    return ctx[key]


def _leja_cached(ctx: dict, seed: int, set_key: str, E, n: int):
    # one long run per set; prefixes coincide with shorter runs by the
    # incrementality contract of the greedy sequence
    key = ("leja", set_key)
    if key not in ctx or ctx[key].n < n:
        target = 500 if n > 200 else 200
        north = project_to_set(E, E.enclosing_center + np.array([0.0, 0.0, E.enclosing_radius]))
        ctx[key] = leja_sequence(E, _SPEC3, target, north, seed=child_seed(seed, "leja", set_key))
    return ctx[key].prefix(n)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def criterion_energy_correctness(seed: int, ctx: dict) -> CriterionResult:
    """Vectorized energy vs the exact-rounded reference on 100 random
    configs (rel. tol 1e-12)."""
    rng = substream(seed, "acc-energy")
    max_rel = 0.0
    for _ in range(100):
        d = int(rng.choice([3, 4]))
        n = int(rng.integers(2, 301))
        alpha = float(rng.uniform(0.5, d - 0.5))
        spec = KernelSpec(alpha=alpha, dim=d)
        X = PointConfig(rng.normal(size=(n, d)))
        e1 = discrete_energy(X, spec)
        ref = reference_energy(X, spec)
        max_rel = max(max_rel, abs(e1 - ref) / abs(ref))
    return _result("energy_correctness", max_rel <= 1e-12, max_rel_diff=max_rel)


def criterion_robin_constant_unit_ball(seed: int, ctx: dict) -> CriterionResult:
    """Quadrature potential constant = 1 (within 1e-2) inside the unit
    ball, pinning the Robin constant used throughout."""
    probes = sample_uniform(ball([0.0, 0.0, 0.0], 0.85), 20, substream(seed, "acc-robin"))
    worst = 0.0
    for y in probes:
        u = sphere_potential_quadrature(1.0, _SPEC3, y, nodes=20_000)
        worst = max(worst, abs(u - 1.0))
    return _result("robin_constant_unit_ball", worst <= 1e-2, max_abs_error=worst, probes=20)


def criterion_fekete_bound_monotonicity(seed: int, ctx: dict) -> CriterionResult:
    """Minimum energies on the unit sphere stay below the Robin constant
    and increase with n; the final clause pins the n = 40 level to the
    published Thomson optimum within 1e-9 (every other local minimum for
    40 charges lies at least ~1e-6 higher)."""
    energies = [_fekete_cached(ctx, seed, "sphere", _SPHERE, n).energy for n in range(2, 41)]
    below_w = all(e <= 1.0 for e in energies)
    monotone = all(b >= a - 1e-5 for a, b in zip(energies, energies[1:]))
    final_matches = abs(energies[-1] - THOMSON_40_NORMALIZED) <= 1e-9
    passed = below_w and monotone and final_matches
    return _result(
        "fekete_bound_monotonicity",
        passed,
        below_robin_constant=below_w,
        nondecreasing_within_1e5=monotone,
        final_energy=energies[-1],
        published_optimum=THOMSON_40_NORMALIZED,
        final_matches_published_optimum=final_matches,
        energies=energies,
    )


def criterion_fekete_small_n_optimality(seed: int, ctx: dict) -> CriterionResult:
    """Optimizer energies match the regular simplex's closed-form minimum
    at n = 2, 3, 4."""
    diffs = {}
    for n in (2, 3, 4):
        e_exact = simplex_energy(_SPEC3, n)
        e_opt = _fekete_cached(ctx, seed, "sphere", _SPHERE, n).energy
        diffs[f"n{n}"] = {"exact": e_exact, "optimizer": e_opt, "abs_diff": abs(e_exact - e_opt)}
    passed = all(v["abs_diff"] <= 1e-12 for v in diffs.values())
    return _result("fekete_small_n_optimality", passed, **diffs)


def criterion_leja_energy_bound(seed: int, ctx: dict) -> CriterionResult:
    """Every greedy prefix up to n = 500 on the unit sphere keeps its
    energy at or below the Robin constant (tolerance 1e-6 for the
    grid-approximate argmin)."""
    L = _leja_cached(ctx, seed, "sphere", _SPHERE, 500)
    P = L.points
    raw_prefix = np.cumsum([potential_sums(_SPEC3, P[m:m + 1], P[:m])[0] for m in range(L.n)])
    prefix_energy = [2.0 * raw_prefix[m] / ((m + 1) * m) for m in range(1, L.n)]
    worst = max(prefix_energy)
    passed = worst <= 1.0 + 1e-6
    return _result("leja_energy_bound", passed, max_prefix_energy=worst, final_energy=prefix_energy[-1], n=500)


def criterion_test_function_bound_matrix(seed: int, ctx: dict) -> CriterionResult:
    """30 randomized trials over sets x n x methods x r x test functions:
    in every trial the composite energy term I_value is >= 0 and the
    discrepancy inequality lhs <= rhs holds, with the exact lhs and no
    slack. A minimizer's orientation is arbitrary, so a Fekete trial's lhs
    is the max over phi and three seeded rotations of phi about the set's
    centre; mu_E, and so the rhs, is invariant under them."""
    sets = [("sphere", _SPHERE), ("ball", _BALL)]
    ns = [20, 50, 100]
    methods = ["fekete", "leja", "random"]
    rs = [0.05, 0.1, 0.3]
    phis = [("pfp_0.5", 1.5), ("pfp_1.0", 2.0), ("pfp_2.0", 3.0), ("hat", None)]
    matrix = [(s, n, m, r, p) for s in sets for n in ns for m in methods for r in rs for p in phis]
    rng = substream(seed, "acc-matrix")
    picks = rng.choice(len(matrix), size=30, replace=False)

    oracles = {k: equilibrium_oracle(E, _SPEC3) for k, E in sets}
    trials = []
    all_ok = True
    for t, i in enumerate(picks):
        (set_key, E), n, method, r, (phi_name, probe_dist) = matrix[int(i)]
        if method == "fekete":
            X = _fekete_cached(ctx, seed, set_key, E, n).config
        elif method == "leja":
            X = _leja_cached(ctx, seed, set_key, E, n)
        else:
            X = random_config(E, n, seed=child_seed(seed, "acc-matrix-random", set_key, n))
        if phi_name == "hat":
            # off-center so the hat actually varies over the set
            phi = radial_hat([0.5, 0.0, 0.0], radius=2.0)
        else:
            phi = phi_for_potential(E, np.array([probe_dist, 0.0, 0.0]))
        rep = discrepancy_bound(oracles[set_key], X, phi, r)
        lhs = rep.lhs
        if method == "fekete":
            # rotating X by Q^T about the centre is rotating phi by Q
            c = E.enclosing_center
            rng_rot = substream(seed, "acc-matrix-rotations", t)
            for _ in range(3):
                moved = c + (X.points - c) @ random_rotation(rng_rot, 3)
                lhs = max(lhs, abs(float(np.mean(phi.evaluator(moved))) - rep.phi_integral))
        ok = rep.I_value >= 0.0 and lhs <= rep.rhs
        all_ok = all_ok and ok
        trials.append({
            "set": set_key, "n": n, "method": method, "r": r, "phi": phi_name,
            "lhs": lhs, "rhs": rep.rhs, "I_value": rep.I_value, "ok": bool(ok),
        })
    return _result("test_function_bound_matrix", all_ok, trials=trials)


def criterion_potential_decay(seed: int, ctx: dict) -> CriterionResult:
    """Potential error of sphere minimizers on the exterior probe sphere
    |y| = 2 decays in n. Both its root mean square, by a product rule
    exact to degree 61 (so independent of the minimizer's orientation),
    and its max over those probes plus (2, 0, 0) have log-log slope
    <= -0.3; the max sits under the fitted-constant decay shape at every
    n in the schedule."""
    schedule = [25, 50, 100, 200, 400]
    probes, weights = sphere_probe_rule(np.zeros(3), 2.0)
    probes = np.vstack([probes, [2.0, 0.0, 0.0]])
    oracle = equilibrium_oracle(_SPHERE, _SPEC3)
    rms, measured, shapes = [], [], []
    for n in schedule:
        X = _fekete_cached(ctx, seed, "sphere", _SPHERE, n).config
        err, shape = potential_error(oracle, X, probes)
        rms.append(float(np.sqrt(weights @ err[:-1] ** 2)))
        measured.append(float(err.max()))
        # every probe lies at distance 1 from the sphere; take (2, 0, 0)'s
        shapes.append(float(shape[-1]))
    rms_slope = float(np.polyfit(np.log(schedule), np.log(rms), 1)[0])
    slope = float(np.polyfit(np.log(schedule), np.log(measured), 1)[0])
    # minimal admissible constant for the decay-shape envelope
    c_fit = max(m / s for m, s in zip(measured, shapes))
    under_envelope = all(m <= c_fit * s * (1.0 + 1e-12) for m, s in zip(measured, shapes))
    passed = rms_slope <= -0.3 and slope <= -0.3 and under_envelope
    return _result(
        "potential_decay",
        passed,
        rms_slope=rms_slope,
        rms=rms,
        slope=slope,
        fitted_constant=c_fit,
        measured=measured,
        bound_shape=shapes,
        schedule=schedule,
        probes=len(probes),
    )


def criterion_weak_star_diagnostics(seed: int, ctx: dict) -> CriterionResult:
    """Moment closeness to the equilibrium measure at n = 200 for both
    generators (with zero closeness functional), against a hemisphere-
    clustered control that the diagnostic must reject."""
    oracle = equilibrium_oracle(_SPHERE, _SPEC3)
    out = {}
    ok = True
    for name in ("fekete", "leja"):
        X = (_fekete_cached(ctx, seed, "sphere", _SPHERE, 200).config
             if name == "fekete" else _leja_cached(ctx, seed, "sphere", _SPHERE, 200))
        md = moment_distance(X, oracle)
        me = closeness_m_E(X, oracle)
        out[name] = {"moment_distance": md, "m_E": me}
        ok = ok and md < 0.05 and me == 0.0
    control = oracle.sampler(200, child_seed(seed, "acc-ws-control"))
    control = np.column_stack([control[:, 0], control[:, 1], np.abs(control[:, 2])])
    md_control = moment_distance(PointConfig(control), oracle)
    out["hemisphere_control"] = {"moment_distance": md_control}
    ok = ok and md_control > 0.1
    return _result("weak_star_diagnostics", ok, **out)


def criterion_converse_witness(seed: int, ctx: dict) -> CriterionResult:
    """Configurations pushed to |x| = 1 + 1/n have closeness functional
    below 1/n, decreasing through the schedule: leaving the set slowly
    keeps the Green-function mass vanishing."""
    oracle = equilibrium_oracle(_SPHERE, _SPEC3)
    values = []
    ok = True
    for n in (10, 100, 1000):
        pts = oracle.sampler(n, child_seed(seed, "acc-converse", n)) * (1.0 + 1.0 / n)
        m = closeness_m_E(PointConfig(pts), oracle)
        values.append({"n": n, "m_E": m, "bound_1_over_n": 1.0 / n})
        ok = ok and m <= 1.0 / n + 1e-15
    ok = ok and values[0]["m_E"] > values[1]["m_E"] > values[2]["m_E"]
    return _result("converse_witness", ok, values=values)


def criterion_provenance(seed: int, ctx: dict) -> CriterionResult:
    """Replay the oracle ledger at ``ctx["ledger_path"]``, or the committed
    one; every row must reproduce bitwise in every field. Each mismatch
    names the fields that differ, with their committed and recomputed
    values, and for floats their distance in ulp."""
    path = ctx.get("ledger_path") or find_default_ledger()
    if path is None or not Path(path).exists():
        return _result("provenance", False, error="oracle ledger not found")
    try:
        rows = replay_ledger(path)
    except Exception as exc:
        return _result("provenance", False, error=f"ledger replay failed: {exc}")
    bad = [describe_mismatch(rec, new) for rec, new, ok in rows if not ok]
    return _result("provenance", not bad and bool(rows), rows=len(rows), mismatched=bad)


def find_default_ledger():
    # current directory first, then the repository root of a src layout
    for cand in (Path.cwd() / "oracle_ledger.csv",
                 Path(__file__).resolve().parents[2] / "oracle_ledger.csv"):
        if cand.exists():
            return cand
    return None


CRITERIA = [
    ("energy_correctness", criterion_energy_correctness),
    ("robin_constant_unit_ball", criterion_robin_constant_unit_ball),
    ("fekete_bound_monotonicity", criterion_fekete_bound_monotonicity),
    ("fekete_small_n_optimality", criterion_fekete_small_n_optimality),
    ("leja_energy_bound", criterion_leja_energy_bound),
    ("test_function_bound_matrix", criterion_test_function_bound_matrix),
    ("potential_decay", criterion_potential_decay),
    ("weak_star_diagnostics", criterion_weak_star_diagnostics),
    ("converse_witness", criterion_converse_witness),
    ("provenance", criterion_provenance),
]

REPRODUCIBILITY = "reproducibility"
ALL_NAMES = [name for name, _ in CRITERIA] + [REPRODUCIBILITY]


def _select(only):
    if not only:
        return [name for name, _ in CRITERIA], True
    pats = [p.strip() for p in only if p.strip()]
    names = [name for name, _ in CRITERIA if any(p in name for p in pats)]
    include_repro = any(p in REPRODUCIBILITY for p in pats)
    return names, include_repro


def _run_pass(names, seed, ledger_path=None):
    # the inputs the criteria share: the ledger path and the cached runs
    ctx: dict = {"ledger_path": ledger_path}
    lookup = dict(CRITERIA)
    return [lookup[name](seed, ctx) for name in names]


def verdict_json(results, seed: int) -> str:
    """The verdict as sorted, indented JSON; numpy scalars and arrays in
    the details serialize as their Python values."""
    payload = {
        "tool_version": __version__,
        "seed": seed,
        "all_passed": all(r.passed for r in results),
        "criteria": [{"name": r.name, "passed": r.passed, "details": r.details} for r in results],
    }
    return json.dumps(payload, sort_keys=True, indent=2, default=lambda v: v.tolist())


def run_criteria(seed: int = DEFAULT_SEED, only=None, ledger_path=None):
    """Run the selected criteria; the reproducibility criterion re-runs
    the whole selection from scratch and compares serialized verdicts."""
    names, include_repro = _select(only)
    if not names:
        raise ValueError(f"no criterion besides {REPRODUCIBILITY} matches {','.join(only)!r}")
    results = _run_pass(names, seed, ledger_path=ledger_path)
    if include_repro:
        second = _run_pass(names, seed, ledger_path=ledger_path)
        identical = verdict_json(results, seed) == verdict_json(second, seed)
        results.append(_result(REPRODUCIBILITY, identical, reran=names, bitwise_identical=identical))
    return results
