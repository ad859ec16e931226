"""Low-energy configuration generators.

Approximate Fekete points come from a projected L-BFGS (Nocedal, Math.
Comp. 35, 1980) on the n-fold product of the set, with seeded random
restarts. On a sphere it is a Riemannian method whose vector transport is
the tangent projection (Absil, Mahony and Sepulchre, Optimization
Algorithms on Matrix Manifolds, 2008); on balls, boxes and unions it
holds the active boundary each iteration, as L-BFGS-B does. A run
converges when the largest per-point projected force is at most sqrt(tol)
times the mean force magnitude. Greedy (Leja) points come from an argmin
over one seeded candidate grid per sequence, whose prefix potential gains
one column per step (the discrete Leja points of Bos, De Marchi, Sommariva
and Vianello, SIAM J. Numer. Anal. 48, 2010); the same projected L-BFGS
then polishes the new point as a one-point configuration in the prefix's
potential. A seeded uniform baseline rounds out the benchmark trio.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import CoincidentPointsError, InfeasiblePointError
from .kernel import KernelSpec, pair_energy_forces, potential_sums, probe_potential_gradient, require_newtonian
from .measures import PointConfig, discrete_energy
from .sets import (MEMBERSHIP_TOL, CompactSetModel, _nearest_ball, distance_to_set, project_to_set,
                   sample_candidates, sample_uniform)
from .seeding import child_seed, substream


@dataclass(frozen=True)
class FeketeSearchParams:
    """Knobs of the projected L-BFGS energy minimizer.

    tol is the relative energy accuracy of the result. The energy error
    of a configuration is quadratic in its gradient, so a run converges
    when the largest per-point projected force is at most sqrt(tol)
    times the mean force magnitude. The first step moves the point under
    the largest projected force by 0.1 * (set radius) / sqrt(n):
    repulsion forces scale with local spacing.
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
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if not 0 < self.tol < np.inf:  # NaN fails too
            raise ValueError("tol must be positive and finite")


@dataclass(frozen=True)
class FeketeRun:
    """Detailed outcome of one fekete_search_run call.

    ``grad_norm`` is the best restart's final largest per-point projected
    force over the mean force magnitude; ``converged`` means it is at most
    sqrt(tol)."""

    config: PointConfig
    energy: float
    iterations: int
    converged: bool
    grad_norm: float


# a mean force at or below this counts as a stationary configuration
_FORCE_FLOOR = 1e-300
# number of (s, y) pairs the L-BFGS direction remembers
_MEMORY = 8
# Armijo sufficient-decrease constant and the halvings a line search may try
_ARMIJO = 1e-4
_BACKTRACKS = 40
# a ball point within this fraction of the radius of its sphere is on it
_ON_SPHERE = 1e-12
# relative accuracy and iteration cap of the greedy polish
_POLISH_TOL = 1e-13
_POLISH_STEPS = 60


def _rowdot(A, B):
    return np.einsum("ij,ij->i", A, B)


def _active_face(E, X, F):
    """The face of the n-fold product of E that a step from X stays on.

    Returns ``(key, restrict)``. ``restrict`` maps an (n, dim) array to
    its component along the face: a sphere's points, and boundary points
    of a ball or union whose force points out of their ball, keep only
    the part tangent to that ball's sphere; a box coordinate on a face
    whose force points out of it is held. ``key`` marks what is held, so
    two faces at the same X are equal when their keys are."""
    if E.kind == "box":
        held = ((X <= E.low) & (F < 0.0)) | ((X >= E.high) & (F > 0.0))
        return held, lambda V: np.where(held, 0.0, V)
    if E.kind == "union":
        centers, radii, j = _nearest_ball(E, X)
        center, radius = centers[j], radii[j]
    else:
        center, radius = E.center, E.radius
    V = X - center
    rho = np.linalg.norm(V, axis=1)
    U = np.divide(V, rho[:, None], out=np.zeros_like(V), where=rho[:, None] > 0)
    if E.kind == "sphere":
        held = np.ones(len(X), dtype=bool)
    else:
        held = (rho >= (1.0 - _ON_SPHERE) * radius) & (_rowdot(F, U) > 0.0)
    N = np.where(held[:, None], U, 0.0)
    return held, lambda V: V - N * _rowdot(V, N)[:, None]


def _relative_force(P, F):
    """Largest per-point norm of P over the mean per-point norm of F."""
    mean = float(np.linalg.norm(F, axis=1).mean())
    if mean <= _FORCE_FLOOR:
        return 0.0
    return float(np.linalg.norm(P, axis=1).max()) / mean


def _lbfgs_direction(P, pairs, gamma):
    """Two-loop recursion: the inverse-Hessian estimate applied to the
    projected force P, from the (s, y, 1 / s.y) pairs, oldest first, and
    the initial scaling gamma."""
    q = P.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * np.vdot(s, q)
        q -= a * y
        alphas.append(a)
    q *= gamma
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        q += (a - rho * np.vdot(y, q)) * s
    return q


def _projected_lbfgs(E, energy_forces, X0, max_iters, step0, tol):
    """Monotone projected L-BFGS from X0; returns (X, energy, iters, converged, grad_norm).

    ``energy_forces(X)`` gives the objective at an (n, dim) configuration
    and its forces, minus its gradient. Each trial point is the
    projection of X + t * d onto E, accepted when the energy strictly
    decreases by at least the Armijo fraction of the full force along
    the actual move."""
    X = project_to_set(E, X0)
    energy, F = energy_forces(X)
    held, restrict = _active_face(E, X, F)
    P = restrict(F)
    pairs = deque(maxlen=_MEMORY)
    gamma = None
    max_move = 2.0 * E.enclosing_radius
    target = float(np.sqrt(tol))
    converged = False
    it = 0
    while True:
        grad_norm = _relative_force(P, F)
        if grad_norm <= target:
            converged = True
            break
        if it == max_iters:
            break
        it += 1
        if gamma is None:
            d = P * (step0 / float(np.linalg.norm(P, axis=1).max()))
        else:
            d = restrict(_lbfgs_direction(P, pairs, gamma))
            if not np.vdot(d, P) > 0.0:
                pairs.clear()
                d = gamma * P
        # cap the largest single-point move at one diameter
        move = float(np.linalg.norm(d, axis=1).max())
        if move > max_move:
            d *= max_move / move
        t = 1.0
        for _ in range(_BACKTRACKS):
            Xt = project_to_set(E, X + t * d)
            # each trial's forces come with its energy; the accepted
            # trial's forces drive the next iteration
            Et, Ft = energy_forces(Xt)
            if Et < energy and Et <= energy - _ARMIJO * np.vdot(F, Xt - X):
                break
            t *= 0.5
        else:
            # a failed line search takes no step
            it -= 1
            break
        held_t, restrict_t = _active_face(E, Xt, Ft)
        Pt = restrict_t(Ft)
        if np.array_equal(held_t, held):
            # old vectors reach the new tangent space by projection
            s = restrict_t(Xt - X)
            y = restrict_t(P) - Pt
            sy = float(np.vdot(s, y))
            if sy > 0.0:
                pairs.append((s, y, 1.0 / sy))
                gamma = sy / float(np.vdot(y, y))
        else:
            pairs.clear()
        X, energy, F, held, restrict, P = Xt, Et, Ft, held_t, restrict_t, Pt
    return X, energy, it, converged, grad_norm


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
    return _projected_lbfgs(E, lambda X: pair_energy_forces(spec, X, work), X0, params.max_iters, step0, params.tol)


def fekete_search_run(E: CompactSetModel, spec: KernelSpec, params: FeketeSearchParams) -> FeketeRun:
    """Minimize the discrete energy over n-tuples from E; best of restarts.

    Restarts are independent, run in restart order; the best restart wins,
    ties to the lowest index."""
    step0 = 0.1 * E.enclosing_radius / np.sqrt(params.n)
    outcomes = [_one_restart(E, spec, params, step0, r) for r in range(params.restarts)]
    X, _, iters, converged, grad_norm = min(outcomes, key=lambda o: o[1])
    config = PointConfig(X)
    if not converged:
        # iterations counts accepted steps, so fewer than max_iters means
        # the line search failed
        reason = f"hit max_iters={params.max_iters}" if iters == params.max_iters else "line search failed"
        warnings.warn(
            f"fekete_search {reason} before converging (relative projected force {grad_norm:.3g}); "
            "returning best-so-far",
            RuntimeWarning,
        )
    return FeketeRun(
        config=config,
        energy=discrete_energy(config, spec),
        iterations=iters,
        converged=converged,
        grad_norm=grad_norm,
    )


@dataclass(frozen=True)
class LejaState:
    """Prefix of a greedy sequence, the candidate grid for the next step
    and ``sums``, the prefix's potential at each candidate;
    ``set_model`` is the set the projected polish stays on."""

    prefix: PointConfig
    candidates: np.ndarray
    sums: np.ndarray
    set_model: CompactSetModel


def leja_next(state: LejaState, spec: KernelSpec) -> np.ndarray:
    """Next greedy point: candidate minimizing the potential sum against
    the prefix (exponent 2-d), read from ``state.sums``, polished by the
    projected L-BFGS as a one-point configuration, with a first step of
    0.05 * (set radius) and at most 60 steps. The polish can only improve
    the objective. Ties break to the lowest candidate index.
    """
    require_newtonian(spec, "greedy (Leja) selection")
    if state.prefix.n < 1:
        raise ValueError("prefix must be nonempty")
    cands = np.asarray(state.candidates, dtype=float)
    if cands.size == 0:
        raise ValueError("candidate list is empty")
    prefix_pts = state.prefix.points
    u = np.asarray(state.sums, dtype=float)
    if u.shape != (len(cands),):
        raise ValueError(f"sums has shape {u.shape}, expected {(len(cands),)}")
    if np.all(u == np.inf):
        raise CoincidentPointsError("every candidate coincides with a prefix point")
    i0 = int(np.argmin(u))
    x0, u0 = cands[i0], float(u[i0])

    def value_forces(X):
        value, gradient = probe_potential_gradient(spec, X[0], prefix_pts)
        return value, -gradient[None, :]

    E = state.set_model
    X, val, *_ = _projected_lbfgs(E, value_forces, x0[None, :], _POLISH_STEPS,
                                  0.05 * E.enclosing_radius, _POLISH_TOL)
    return X[0] if val <= u0 else x0


def leja_sequence(
    E: CompactSetModel,
    spec: KernelSpec,
    n: int,
    xi0,
    candidate_count: int = 4096,
    seed: int = 0,
) -> PointConfig:
    """Greedy sequence of length n started at xi0 in E.

    One seeded candidate grid serves the whole sequence. Its prefix
    potential is kept and gains one kernel column per new point, so a
    step costs O(candidate_count), not O(candidate_count * k). The grid's
    seed names no length, so a prefix of the output coincides with the
    shorter run at the same seed. A very small grid gives poor sequences:
    the argmin then starts the polish far from the greedy minimizer.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    x0 = np.asarray(xi0, dtype=float)
    if distance_to_set(E, x0) > MEMBERSHIP_TOL:
        raise InfeasiblePointError(f"xi0 is not in the set (distance {distance_to_set(E, x0):.3g})")
    points = np.empty((n, E.dim))
    points[0] = project_to_set(E, x0)
    if n > 1:
        cands = sample_candidates(E, candidate_count, child_seed(seed, "leja-candidates"))
        sums = np.zeros(len(cands))
        for k in range(1, n):
            # a new array, so a state handed out earlier keeps its sums
            sums = sums + potential_sums(spec, cands, points[k - 1:k])
            points[k] = leja_next(LejaState(PointConfig(points[:k]), cands, sums, E), spec)
    return PointConfig(points)


def random_config(E: CompactSetModel, n: int, seed: int) -> PointConfig:
    """Baseline: n i.i.d. draws from the set's uniform sampler."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = substream(seed, "random-config")
    return PointConfig(sample_uniform(E, n, rng))
