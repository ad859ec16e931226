"""Low-energy configuration generators.

Fekete and greedy (Leja) points come from one monotone projected descent
(``_projected_descent``) with two direction rules. The descent holds each
iterate's active face (``sets._active_face``: held box coordinates, or
points held to their ball's sphere), caps each point's move and
backtracks to an Armijo decrease on projected trial points (Nocedal and
Wright, Numerical Optimization, 2006, ch. 3); it converges when the
largest per-point projected force is at most sqrt(tol) times the mean
force magnitude.
Approximate Fekete points take L-BFGS directions (Nocedal, Math. Comp.
35, 1980) on the n-fold product of the set, with seeded random restarts:
on a sphere a Riemannian method whose vector transport is the tangent
projection (Absil, Mahony and Sepulchre, Optimization Algorithms on
Matrix Manifolds, 2008), elsewhere an active-set method like L-BFGS-B.
L-BFGS converges only linearly, so once the relative projected force is
at most 1e-3 and every point is held to one sphere, a solve with at most
96 tangent unknowns (n <= 48 on the 2-sphere) takes Riemannian Newton
steps from the exact pair Hessian (``_newton_rule``; Absil, Mahony and
Sepulchre, ch. 6), which converge quadratically. The cutoff is the
largest system whose Cholesky factor and solve keep their bits from 1
to 2 OpenBLAS threads; beyond it the dense Hessian also costs more than
the steps it saves. Where the factorization fails, near a saddle, L-BFGS
takes the steps until the force has dropped tenfold.
A greedy step takes the argmin over one seeded candidate grid per
sequence, whose prefix potential gains one column per step (the discrete
Leja points of Bos, De Marchi, Sommariva and Vianello, SIAM J. Numer.
Anal. 48, 2010), and polishes it by Newton directions from the exact
Hessian, with a held sphere's curvature term (Absil, Mahony and
Sepulchre, ch. 6). That step is ``_potential_min``, the minimum over a
set of a configuration's potential; ``discrepancy.sup_potential_deficit``
calls it too. On a ball or union both search its spheres, which lie in E
and hold its boundary (``sets._min_surface``): a potential is
superharmonic, so by the minimum principle (Landkof, Foundations of
Modern Potential Theory, 1972) its minimum lies there. A seeded uniform
baseline rounds out the benchmark trio.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import CoincidentPointsError, InfeasiblePointError
from .kernel import (KernelSpec, pair_energy_forces, pair_hessian, potential_sums, probe_potential_derivatives,
                     require_newtonian)
from .measures import PointConfig, discrete_energy
from .sets import (MEMBERSHIP_TOL, CompactSetModel, _active_face, _min_surface, _norms, _restrict, _rowdot,
                   distance_to_set, project_to_set, sample_candidates, sample_uniform)
from .seeding import child_seed, substream


@dataclass(frozen=True)
class FeketeSearchParams:
    """Knobs of the Fekete solve: the projected descent with L-BFGS
    directions and, at small n on a sphere, a Newton tail.

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
# the Newton tail of the Fekete solve: the most tangent unknowns it
# serves, n * (dim - 1), so n <= 48 on the 2-sphere (the largest size
# whose Cholesky factor and solve keep their bits from 1 to 2 OpenBLAS
# threads), and the relative projected force at which it starts
_NEWTON_UNKNOWNS = 96
_NEWTON_FORCE = 1e-3
# Armijo sufficient-decrease constant and the halvings a line search may try
_ARMIJO = 1e-4
_BACKTRACKS = 40
# relative accuracy and iteration cap of the greedy polish
_POLISH_TOL = 1e-13
_POLISH_STEPS = 60


def _relative_force(P, F):
    """Largest per-point norm of P over the mean per-point norm of F."""
    mean = float(np.add.reduce(_norms(F)) / len(F))
    if mean <= _FORCE_FLOOR:
        return 0.0
    return float(_norms(P).max()) / mean


def _projected_descent(E, evaluate, X, direction, cap, max_steps, tol):
    """Monotone projected descent from X; returns (X, value, steps, converged, grad_norm).

    ``evaluate(X)`` gives the objective at an (n, dim) X, its forces (minus
    its gradient) and data for ``direction(X, F, P, face, data, force)``,
    the step from X, with ``face`` X's ``_active_face``, P the forces on
    it and ``force`` their ``_relative_force(P, F)``. A run converges
    when that force is at most sqrt(tol). No point moves farther than
    ``cap`` in a step; a trial, the projection of X + t * d onto E, is
    accepted on a strict Armijo decrease along the actual move, and a
    failed line search takes no step and ends the run."""
    X = project_to_set(E, X)
    value, F, data = evaluate(X)
    target = float(np.sqrt(tol))
    steps = 0
    while True:
        face = _active_face(E, X, F)
        P = _restrict(F, face[0], face[1])
        grad_norm = _relative_force(P, F)
        if grad_norm <= target or steps == max_steps:
            break
        d = direction(X, F, P, face, data, grad_norm)
        move = float(_norms(d).max())
        if move > cap:
            d = d * (cap / move)
        t = 1.0
        for _ in range(_BACKTRACKS):
            Xt = project_to_set(E, X + t * d)
            # each trial's forces come with its value; the accepted
            # trial's forces drive the next step
            vt, Ft, data_t = evaluate(Xt)
            if vt < value and vt <= value - _ARMIJO * np.vdot(F, Xt - X):
                break
            t *= 0.5
        else:
            break
        steps += 1
        X, value, F, data = Xt, vt, Ft, data_t
    return X, value, steps, grad_norm <= target, grad_norm


def _lbfgs_rule(step0, newton):
    """The L-BFGS direction rule of the Fekete solve: step0 along P for the
    point under the largest projected force until a curvature pair is
    stored, then the two-loop recursion on the face. Each call first stores
    the (s, y) pair of the step since the last call; a change of face
    clears the memory. The ``newton`` rule is asked next, and its
    direction, unless None, is taken without the two-loop recursion."""
    pairs = deque(maxlen=_MEMORY)
    gamma = None
    last = None

    def direction(X, F, P, face, data, force):
        nonlocal gamma, last
        held, normals, _ = face
        if last is not None:
            X0, P0, held0 = last
            if np.array_equal(held, held0):
                # old vectors reach the new tangent space by projection
                s = _restrict(X - X0, held, normals)
                y = _restrict(P0, held, normals) - P
                sy = float(np.vdot(s, y))
                if sy > 0.0:
                    pairs.append((s, y, 1.0 / sy))
                    gamma = sy / float(np.vdot(y, y))
            else:
                pairs.clear()
        last = X, P, held
        d = newton(X, F, P, face, data, force)
        if d is not None:
            return d
        if gamma is None:
            return P * (step0 / float(_norms(P).max()))
        q = P.copy()
        alphas = []
        for s, y, rho in reversed(pairs):
            a = rho * np.vdot(s, q)
            q -= a * y
            alphas.append(a)
        q *= gamma
        for (s, y, rho), a in zip(pairs, reversed(alphas)):
            q += (a - rho * np.vdot(y, q)) * s
        d = _restrict(q, held, normals)
        if not np.vdot(d, P) > 0.0:
            pairs.clear()
            d = gamma * P
        return d

    return direction


def _tangent_bases(normals):
    """Per row of the (n, dim) unit ``normals``, an orthonormal basis of
    its orthogonal complement, shape (n, dim, dim - 1): columns 1 to
    dim - 1 of the Householder reflection that maps e_1 to -+ the normal."""
    u = normals.copy()
    u[:, 0] += np.where(normals[:, 0] < 0.0, -1.0, 1.0)
    scale = 1.0 / (1.0 + np.abs(normals[:, 0]))
    return np.eye(normals.shape[1])[:, 1:] - u[:, :, None] * (u[:, None, 1:] * scale[:, None, None])


def _newton_rule(spec):
    """The Fekete solve's Newton tail: once the relative projected force
    is at most ``_NEWTON_FORCE`` and every point is held to one sphere of
    radius R, with at most ``_NEWTON_UNKNOWNS`` tangent unknowns, the
    Riemannian Newton direction (Absil, Mahony and Sepulchre, 2008,
    ch. 6), else None. ``work`` is the workspace of the last
    ``pair_energy_forces`` call, at X. In a tangent basis of each point
    the pair Hessian gains (F_i . nu_i) / R on each diagonal block
    and (s / n) G G^T, with G the rotation generators (nu_i)_b e_a -
    (nu_i)_a e_b, a < b, and s the largest diagonal entry: the energy is
    invariant along G, so the force is orthogonal to it, and the shift
    lifts the rotations' near-zero curvature. A failed Cholesky
    factorization marks a saddle: the rule then returns None until the
    relative force has dropped tenfold."""
    start = _NEWTON_FORCE

    def newton(X, F, P, face, work, force):
        nonlocal start
        held, normals, radius = face
        n, dim = X.shape
        m = n * (dim - 1)
        # a union's held points can lie on different spheres
        if force > start or m > _NEWTON_UNKNOWNS or normals is None or np.ndim(radius) or not held.all():
            return None
        Q = _tangent_bases(normals)
        # Q_i^T H_ij Q_j, as batches of small products
        QH = Q.transpose(0, 2, 1) @ pair_hessian(spec, work).reshape(n, dim, n * dim)
        A = (QH.reshape(m, n, dim).transpose(1, 0, 2) @ Q).transpose(1, 0, 2).reshape(m, m)
        A.flat[::m + 1] += np.repeat(_rowdot(F, normals) / radius, dim - 1)
        a, b = np.triu_indices(dim, 1)
        G = (Q[:, a] * normals[:, b, None] - Q[:, b] * normals[:, a, None]).transpose(1, 0, 2).reshape(len(a), m)
        A += (A.diagonal().max() / n) * np.einsum("kx,ky->xy", G, G)
        # the factor only tests positive definiteness: numpy has no
        # triangular solve, and one LU solve costs less than two
        try:
            np.linalg.cholesky(A)
        except np.linalg.LinAlgError:
            start = force / 10.0
            return None
        z = np.linalg.solve(A, np.einsum("iap,ia->ip", Q, P).ravel())
        return np.einsum("iap,ip->ia", Q, z.reshape(n, dim - 1))

    return newton


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
    # the move cap is one diameter; the workspace, left at the accepted
    # point, is the data of the Newton tail
    return _projected_descent(E, lambda X: (*pair_energy_forces(spec, X, work), work), X0,
                              _lbfgs_rule(step0, _newton_rule(spec)), 2.0 * radius, params.max_iters, params.tol)


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


def _potential_min(E: CompactSetModel, spec: KernelSpec, points: np.ndarray, grid: np.ndarray,
                   sums: np.ndarray) -> tuple:
    """Minimum over E of the potential of ``points`` (exponent 2-d), as
    ``(x, value)``: the grid point with the smallest of ``sums``, the
    points' potential at each grid point (ties to the lowest index),
    polished by ``_projected_descent`` with a Newton direction rule: the
    exact Hessian on the point's active face, plus the curvature term of
    the Riemannian Hessian on a held sphere, for at most 60 steps of at
    most 0.05 * (set radius) each. Each eigenvalue enters by its
    magnitude, so at a saddle, at a free point of a harmonic potential or
    at a degenerate minimum the step still descends (Hessian
    modification; Nocedal and Wright, sec. 3.4). The polish can only
    improve the value and stays near the grid argmin; it can miss a
    deeper neighbouring basin, so the value is an upper bound of the
    minimum, not a certificate.
    """
    if np.all(sums == np.inf):
        raise CoincidentPointsError("every grid point coincides with a point")
    i0 = int(np.argmin(sums))
    x0, u0 = grid[i0], float(sums[i0])
    eye = np.eye(E.dim)

    def evaluate(X):
        val, gradient, H = probe_potential_derivatives(spec, X[0], points)
        return val, -gradient[None], H

    def newton(X, F, P, face, H, force):
        held, normals, radius = face
        if normals is None:
            T = np.diag(np.where(held[0], 0.0, 1.0))
            curvature = 0.0
        else:
            T = eye - np.outer(normals[0], normals[0])
            # the Riemannian Hessian on a sphere of radius rho adds
            # (F . nu) / rho times the tangent projector
            curvature = (F[0] @ normals[0]) / radius
        w, V = np.linalg.eigh(T @ H @ T + curvature * T + (eye - T))
        w = np.abs(w)
        # the floor keeps a zero eigenvalue finite; restricting again
        # keeps held coordinates exactly on their face
        return _restrict((V @ ((V.T @ P[0]) / np.maximum(w, 1e-12 * w.max())))[None], held, normals)

    X, val, *_ = _projected_descent(E, evaluate, x0[None], newton, 0.05 * E.enclosing_radius, _POLISH_STEPS,
                                    _POLISH_TOL)
    return (X[0], val) if val <= u0 else (x0, u0)


def leja_sequence(
    E: CompactSetModel,
    spec: KernelSpec,
    n: int,
    xi0,
    candidate_count: int = 4096,
    seed: int = 0,
) -> PointConfig:
    """Greedy sequence of length n started at xi0 in E.

    Greedy steps on a ball or union search its spheres (``_min_surface``),
    so from a boundary xi0 a ball gives its sphere's sequence; xi0 may lie inside.
    One seeded candidate grid serves the whole sequence. Its prefix
    potential is kept and gains one kernel column per new point, so a
    step costs O(candidate_count), not O(candidate_count * k), and its
    point is the grid argmin polished by projected Newton with the exact
    Hessian (``_potential_min``). The grid's seed names no length, so a prefix of the output coincides with the
    shorter run at the same seed. A very small grid gives poor sequences:
    the argmin then starts the polish far from the greedy minimizer.
    """
    if E.dim != spec.dim:
        raise ValueError(f"set dimension {E.dim} != kernel dimension {spec.dim}")
    require_newtonian(spec, "greedy (Leja) selection")
    if n < 1:
        raise ValueError("n must be >= 1")
    x0 = np.asarray(xi0, dtype=float)
    if distance_to_set(E, x0) > MEMBERSHIP_TOL:
        raise InfeasiblePointError(f"xi0 is not in the set (distance {distance_to_set(E, x0):.3g})")
    points = np.empty((n, E.dim))
    points[0] = project_to_set(E, x0)
    if n > 1:
        S = _min_surface(E)
        cands = sample_candidates(S, candidate_count, child_seed(seed, "leja-candidates"))
        sums = np.zeros(len(cands))
        for k in range(1, n):
            # a new array, so the sums of an earlier step stay as they were
            sums = sums + potential_sums(spec, cands, points[k - 1:k])
            points[k], _ = _potential_min(S, spec, points[:k], cands, sums)
    return PointConfig(points)


def random_config(E: CompactSetModel, n: int, seed: int) -> PointConfig:
    """Baseline: n i.i.d. draws from the set's uniform sampler."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = substream(seed, "random-config")
    return PointConfig(sample_uniform(E, n, rng))
