"""Low-energy configuration generators.

Approximate Fekete points come from projected gradient descent on the
n-fold product of the set with backtracking line search and random
restarts; greedy (Leja) points come from an argmin over a seeded
candidate grid followed by a local projected-descent polish of the new
point. A seeded uniform baseline rounds out the benchmark trio.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CoincidentPointsError, InfeasiblePointError
from .kernel import KernelSpec, kernel_gradient, pair_energy_forces, potential_sums, require_newtonian
from .measures import PointConfig, discrete_energy
from .sets import MEMBERSHIP_TOL, CompactSetModel, distance_to_set, project_to_set, sample_candidates, sample_uniform
from .seeding import child_seed, substream


@dataclass(frozen=True)
class FeketeSearchParams:
    """Knobs of the projected-descent energy minimizer.

    tol is the relative energy-decrease stopping tolerance. The first
    step moves the point under the largest force by 0.1 * (set radius) /
    sqrt(n): repulsion forces scale with local spacing.
    """

    n: int
    restarts: int = 4
    max_iters: int = 2000
    tol: float = 1e-13
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class FeketeRun:
    """Detailed outcome of one fekete_search call."""

    config: PointConfig
    energy: float
    iterations: int
    converged: bool
    initial_energies: tuple


# a largest force at or below this counts as a stationary configuration
_FORCE_FLOOR = 1e-300


def _projected_descent(E, spec, X0, max_iters, step0, tol, work):
    """Monotone projected gradient descent from X0; returns (X, raw, iters, converged).

    ``work`` is the restart's own pair_energy_forces workspace."""
    X = project_to_set(E, X0)
    energy, F = pair_energy_forces(spec, X, work)
    fmax = float(np.linalg.norm(F, axis=1).max())
    t = step0 / fmax if fmax > _FORCE_FLOOR else 1.0
    radius = E.enclosing_radius
    stall = 0
    it = 0
    converged = False
    for it in range(1, max_iters + 1):
        if fmax <= _FORCE_FLOOR:
            converged = True
            break
        # cap the largest single-point move at one diameter
        t = min(t, 2.0 * radius / fmax)
        accepted = False
        tt = t
        for _ in range(64):
            Xt = project_to_set(E, X + tt * F)
            # each trial's forces come with its energy; the accepted
            # trial's forces drive the next iteration
            Et, Ft = pair_energy_forces(spec, Xt, work)
            if Et < energy:
                rel = (energy - Et) / abs(energy) if energy != 0 else 0.0
                X, energy, F = Xt, Et, Ft
                fmax = float(np.linalg.norm(F, axis=1).max())
                t = tt * 1.5
                stall = stall + 1 if rel < tol else 0
                accepted = True
                break
            tt *= 0.5
        if not accepted:
            converged = True
            break
        if stall >= 8:
            converged = True
            break
    return X, energy, it, converged


def _one_restart(E, spec, params, step0, r):
    radius = E.enclosing_radius
    rng = substream(params.seed, "fekete-init", r)
    work = np.empty((spec.dim + 2, params.n, params.n))
    X0 = project_to_set(E, sample_uniform(E, params.n, rng))
    raw0, _ = pair_energy_forces(spec, X0, work)
    # re-jitter exact collisions in the initial draw before evaluation
    while raw0 == np.inf:
        X0 = project_to_set(E, X0 + rng.normal(size=X0.shape) * 1e-6 * radius)
        raw0, _ = pair_energy_forces(spec, X0, work)
    initial = 2.0 / (params.n * (params.n - 1)) * raw0
    X, raw, iters, converged = _projected_descent(E, spec, X0, params.max_iters, step0, params.tol, work)
    return initial, X, raw, iters, converged


def fekete_search_run(
    E: CompactSetModel, spec: KernelSpec, params: FeketeSearchParams, workers: int = 1
) -> FeketeRun:
    """Minimize the discrete energy over n-tuples from E; best of restarts.

    Restarts are independent; with workers > 1 they run on a thread pool
    and the outcome is identical to the serial run (the best restart is
    selected in restart order, ties to the lowest index)."""
    step0 = 0.1 * E.enclosing_radius / np.sqrt(params.n)
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(lambda r: _one_restart(E, spec, params, step0, r),
                                     range(params.restarts)))
    else:
        outcomes = [_one_restart(E, spec, params, step0, r) for r in range(params.restarts)]
    initial_energies = [o[0] for o in outcomes]
    best = None
    for initial, X, raw, iters, converged in outcomes:
        if best is None or raw < best[1]:
            best = (X, raw, iters, converged)
    X, raw, iters, converged = best
    config = PointConfig(X)
    if not converged:
        warnings.warn(
            f"fekete_search hit max_iters={params.max_iters} before converging; returning best-so-far",
            RuntimeWarning,
        )
    return FeketeRun(
        config=config,
        energy=discrete_energy(config, spec),
        iterations=iters,
        converged=converged,
        initial_energies=tuple(initial_energies),
    )


def fekete_search(E: CompactSetModel, spec: KernelSpec, params: FeketeSearchParams) -> PointConfig:
    """Approximate Fekete points of E (see fekete_search_run for details)."""
    return fekete_search_run(E, spec, params).config


@dataclass(frozen=True)
class LejaState:
    """Prefix of a greedy sequence plus the candidate grid for the next
    step. ``set_model`` drives the projected polish; with None the step
    is the bare grid argmin."""

    prefix: PointConfig
    candidates: np.ndarray
    dim: int
    set_model: Optional[CompactSetModel] = None


def _polish_new_point(E, prefix_pts, spec, x0, value0, step0, iters=60):
    x, val = x0, value0
    t = step0
    for _ in range(iters):
        grad = kernel_gradient(spec, x - prefix_pts).sum(axis=0)
        gn = float(np.linalg.norm(grad))
        if gn == 0.0:
            break
        xt = project_to_set(E, x - t * grad)
        vt = float(potential_sums(spec, xt[None, :], prefix_pts)[0])
        if vt < val:
            x, val = xt, vt
            t *= 1.3
        else:
            t *= 0.5
            if t < 1e-15:
                break
    return x, val


def leja_next(state: LejaState, spec: KernelSpec) -> np.ndarray:
    """Next greedy point: candidate minimizing the potential sum against
    the prefix (exponent 2-d), then a local projected polish that can
    only improve the objective. Ties break to the lowest candidate index.
    """
    require_newtonian(spec, "greedy (Leja) selection")
    if state.prefix.n < 1:
        raise ValueError("prefix must be nonempty")
    cands = np.asarray(state.candidates, dtype=float)
    if cands.size == 0:
        raise ValueError("candidate list is empty")
    prefix_pts = state.prefix.points
    u = potential_sums(spec, cands, prefix_pts)
    if np.all(u == np.inf):
        raise CoincidentPointsError("every candidate coincides with a prefix point")
    i0 = int(np.argmin(u))
    x0, u0 = cands[i0], float(u[i0])
    if state.set_model is None:
        return x0
    step0 = 0.05 * state.set_model.enclosing_radius
    x, val = _polish_new_point(state.set_model, prefix_pts, spec, x0, u0, step0)
    return x if val <= u0 else x0


def leja_sequence(
    E: CompactSetModel,
    spec: KernelSpec,
    n: int,
    xi0,
    candidate_count: int = 4096,
    seed: int = 0,
) -> PointConfig:
    """Greedy sequence of length n started at xi0 in E.

    Each step draws a fresh seeded candidate grid keyed by the step index
    only, so a prefix of the output coincides with the shorter run at the
    same seed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    x0 = np.asarray(xi0, dtype=float)
    if distance_to_set(E, x0) > MEMBERSHIP_TOL:
        raise InfeasiblePointError(f"xi0 is not in the set (distance {distance_to_set(E, x0):.3g})")
    pts = [project_to_set(E, x0)]
    for k in range(1, n):
        cands = sample_candidates(E, candidate_count, child_seed(seed, "leja-candidates", k))
        state = LejaState(PointConfig(np.array(pts)), cands, E.dim, set_model=E)
        pts.append(leja_next(state, spec))
    return PointConfig(np.array(pts))


def random_config(E: CompactSetModel, n: int, seed: int) -> PointConfig:
    """Baseline: n i.i.d. draws from the set's uniform sampler."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = substream(seed, "random-config")
    return PointConfig(sample_uniform(E, n, rng))
