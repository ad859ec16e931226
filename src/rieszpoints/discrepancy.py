"""Equilibrium data of a compact set and quantitative equidistribution
machinery.

Holds the equilibrium oracles (Robin constant, potential and Green
function of mu_E, with its exact low-order moments) and the diagnostics
that compare a configuration with them: the closeness functional m_E and
the moment distance. Builds test functions that carry closed-form bounds
on their modulus of continuity and Dirichlet integral, assembles the
smoothing-based discrepancy bound for test-function means, with the
Green function's maximum near E read on fixed probes of a widened set,
measures potential errors against the equilibrium potential with their
predicted decay shapes, and reads the sup of the potential deficit off the
greedy step's minimum.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import UnsupportedOracleError
from .kernel import KernelSpec, potential_sums, require_newtonian
from .measures import PointConfig, discrete_energy, discrete_potential
from .configurations import FeketeSearchParams, _potential_min, fekete_search_run
from .sets import (
    CompactSetModel,
    MEMBERSHIP_TOL,
    _min_surface,
    _one_ball,
    _radius,
    _vec,
    _widened_grid,
    distance_to_set,
    sample_candidates,
    sample_uniform,
)
from .seeding import substream

# grid points of the potential minimum in sup_potential_deficit, and of
# each widened sphere that max_green_on_shell reads
_MIN_GRID = 4096


# ---------------------------------------------------------------------------
# equilibrium oracles
# ---------------------------------------------------------------------------

def _monomials(points: np.ndarray) -> np.ndarray:
    """The monomials of degree 1 and 2 at each point: the d coordinates,
    then x_i x_j for i <= j in row-major order, one row per point."""
    d = points.shape[1]
    quad = [points[:, i] * points[:, j] for i in range(d) for j in range(i, d)]
    return np.column_stack([points] + quad)


@dataclass(frozen=True, eq=False)
class EquilibriumOracle:
    """Equilibrium data for the set ``set_model`` under the kernel
    ``spec``, which fix mu_E: Robin constant W(E), the equilibrium
    potential U, the Green function (``green``, derived from W and U), an
    i.i.d. sampler of the equilibrium measure, and its exact ``moments``:
    the means of the monomials of degree 1 and 2, in the order of
    ``_monomials``. Consumers read E and the kernel from here."""

    set_model: CompactSetModel
    spec: KernelSpec
    robin_constant: float
    potential: Callable[[np.ndarray], np.ndarray]
    sampler: Callable[[int, int], np.ndarray]  # (count, seed) -> points
    moments: np.ndarray

    def green(self, x):
        """The Green function g_E(x) = max(W(E) - U(x), 0), from this
        oracle's ``robin_constant`` and ``potential``; 0 within
        ``MEMBERSHIP_TOL`` of E, where g_E vanishes and U is not
        evaluated (a quadrature-backed U is singular at its support)."""
        pts = _vec(x, self.set_model.dim)
        off = np.asarray(distance_to_set(self.set_model, pts)) > MEMBERSHIP_TOL
        g = np.zeros(off.shape)
        g[off] = np.maximum(self.robin_constant - self.potential(pts[off]), 0.0)
        return float(g) if g.ndim == 0 else g


def _analytic_ball_oracle(E: CompactSetModel, spec: KernelSpec) -> EquilibriumOracle:
    d = spec.dim
    c, R = _one_ball(E)

    def potential(x):
        rho = np.linalg.norm(_vec(x, d) - c, axis=-1)
        out = np.maximum(rho, R) ** (2.0 - d)
        return float(out) if out.ndim == 0 else out

    def sampler(count, seed):
        return sample_uniform(_min_surface(E), count, substream(seed, "equilibrium-sampler"))

    # uniform measure on the sphere: E[x] = c, E[x x^T] = c c^T + (R^2/d) I
    second = np.outer(c, c) + (R * R / d) * np.eye(d)

    return EquilibriumOracle(
        set_model=E,
        spec=spec,
        robin_constant=R ** (2.0 - d),
        potential=potential,
        sampler=sampler,
        moments=np.concatenate([c, second[np.triu_indices(d)]]),
    )


def _quadrature_backed_oracle(E: CompactSetModel, spec: KernelSpec) -> EquilibriumOracle:
    # The equilibrium measure is approximated by a dense low-energy
    # configuration on E and its discrete potential; documented as
    # approximate, never used by the acceptance bounds.
    run = fekete_search_run(E, spec, FeketeSearchParams(n=400, restarts=1, tol=1e-10, seed=20406))
    support = run.config

    def potential(x):
        return discrete_potential(support, spec, x)

    def sampler(count, seed):
        rng = substream(seed, "equilibrium-sampler")
        idx = rng.integers(0, support.n, size=count)
        return support.points[idx]

    return EquilibriumOracle(
        set_model=E,
        spec=spec,
        robin_constant=run.energy,
        potential=potential,
        sampler=sampler,
        moments=_monomials(support.points).mean(axis=0),
    )


def equilibrium_oracle(E: CompactSetModel, spec: KernelSpec) -> EquilibriumOracle:
    """Equilibrium oracle for E under the given kernel.

    One ball or sphere gets the exact Newtonian closed forms (classical:
    the equilibrium measure is the uniform surface measure, so W = R**(2-d)
    and U(x) = max(|x-c|, R)**(2-d)). Boxes and several balls get the
    approximate quadrature-backed oracle, whose 400-point Fekete support
    is solved on each call; a caller that needs the oracle again keeps
    the immutable oracle it got. Either records E and the kernel as
    ``set_model`` and ``spec``.
    Non-Newtonian kernels have no fallback and raise.
    """
    if E.dim != spec.dim:
        raise ValueError(f"set dimension {E.dim} != kernel dimension {spec.dim}")
    require_newtonian(spec, "equilibrium oracle")
    if _one_ball(E) is not None:
        return _analytic_ball_oracle(E, spec)
    return _quadrature_backed_oracle(E, spec)


def _require_config_dim(X: PointConfig, spec: KernelSpec) -> None:
    if X.dim != spec.dim:
        raise ValueError(f"config dimension {X.dim} != kernel dimension {spec.dim}")


def closeness_m_E(X: PointConfig, oracle: EquilibriumOracle) -> float:
    """Average of the Green function over configuration points outside
    the oracle's set E.

    Exactly zero when every point lies in E: ``oracle.green`` is 0 within
    ``MEMBERSHIP_TOL`` of E, which absorbs projection rounding.
    """
    return float(np.sum(oracle.green(X.points)) / X.n)


def moment_distance(X: PointConfig, oracle: EquilibriumOracle) -> float:
    """Max deviation of the coordinate-monomial means of total degree 1
    and 2 between the counting measure and the equilibrium measure, whose
    means are the oracle's exact ``moments``. Quantifies weak-star
    closeness through a fixed finite test family; the unit sphere's
    octahedron, which matches every equilibrium moment of degree <= 2,
    reads 0."""
    _require_config_dim(X, oracle.spec)
    return float(np.max(np.abs(_monomials(X.points).mean(axis=0) - oracle.moments)))


# ---------------------------------------------------------------------------
# test functions and the discrepancy bound
# ---------------------------------------------------------------------------

def unit_sphere_area(d: int) -> float:
    """Surface area of the unit (d-1)-sphere: 2 pi^{d/2} / Gamma(d/2)."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


@dataclass(frozen=True, eq=False)
class TestFunction:
    """A continuous compactly supported test function.

    ``evaluator`` is vectorized over (m, d) batches and vanishes outside
    the ball of ``support_radius`` about ``support_center``.
    ``modulus_model`` dominates the true modulus of continuity and
    ``dirichlet`` dominates the true Dirichlet integral, so bounds
    assembled from them stay valid. ``equilibrium_mean(oracle)`` is the
    exact integral of the function against the oracle's mu_E.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    support_center: np.ndarray
    support_radius: float
    modulus_model: Callable[[float], float]
    dirichlet: float
    equilibrium_mean: Callable[[EquilibriumOracle], float]

    __test__ = False  # not a pytest class despite the name


def phi_for_potential(E: CompactSetModel, y) -> TestFunction:
    """Truncated Newtonian-kernel test function tied to an exterior probe.

    phi(x) = max((|y-x| + d_E(x))**(2-d) - R**(2-d), 0) with d = E.dim and
    R = 2 * enclosing_radius + d_E(y) + 1 > |y-x| for x in E. On E it is
    |y-x|**(2-d) - R**(2-d), so its mean against a configuration in E
    recovers the discrete potential at y up to the constant truncation,
    and its mean against mu_E (on E) is exactly U^{mu_E}(y) - R**(2-d).
    """
    d = E.dim
    yv = np.asarray(y, dtype=float)
    dEy = float(distance_to_set(E, yv))
    if dEy <= 0.0:
        raise ValueError("probe point must lie strictly outside the set")
    R = 2.0 * E.enclosing_radius + dEy + 1.0
    expo = 2.0 - d
    tail = R ** expo

    def evaluator(x):
        p = np.asarray(x, dtype=float)
        f = np.linalg.norm(yv - p, axis=-1) + distance_to_set(E, p)
        return np.maximum(f ** expo - tail, 0.0)

    # |grad phi| <= 2(d-2) sqrt(d) / d_E(y)**(d-1) a.e., hence the linear
    # modulus and the two-region Dirichlet bound below
    lip = 2.0 * (d - 2) * math.sqrt(d) * dEy ** (1 - d)
    omega_d = unit_sphere_area(d)
    dirichlet_bound = 8.0 * (d - 2) * (d - 1) * omega_d * dEy ** (2 - d)
    return TestFunction(
        evaluator=evaluator,
        support_center=yv,
        support_radius=R,
        modulus_model=lambda r: lip * r,
        dirichlet=dirichlet_bound,
        equilibrium_mean=lambda oracle: float(oracle.potential(yv)) - tail,
    )


def radial_hat(center, radius: float = 1.0) -> TestFunction:
    """Hat bump max(1 - |x-c|/a, 0): exact modulus min(r/a, 1) and exact
    Dirichlet integral a**(d-2) * vol(unit ball).

    Its equilibrium mean is closed-form on one ball or sphere in d = 3,
    where mu_E is uniform on the sphere of radius R about E's center
    (Archimedes): at distance s from the hat's center, rho = |x - c| has
    density rho/(2Rs) on [|R-s|, R+s]. Elsewhere it raises
    UnsupportedOracleError. A non-finite center or a radius outside
    0 < a < inf raises ValueError.
    """
    c = np.asarray(center, dtype=float)
    if not np.isfinite(c).all():
        raise ValueError("center must be finite")
    d = c.size
    a = _radius(radius)

    def evaluator(x):
        return np.maximum(1.0 - np.linalg.norm(np.asarray(x, dtype=float) - c, axis=-1) / a, 0.0)

    def antiderivative(rho):
        return rho * rho / 2.0 - rho ** 3 / (3.0 * a)

    def equilibrium_mean(oracle):
        E = oracle.set_model
        if (one := _one_ball(E)) is None or E.dim != 3:
            raise UnsupportedOracleError(
                f"the radial hat's equilibrium mean needs one ball or sphere in d = 3, not this set in d = {E.dim}"
            )
        center, R = one
        s = float(np.linalg.norm(c - center))
        if s == 0.0:
            return max(1.0 - R / a, 0.0)
        lo, hi = abs(R - s), min(R + s, a)
        if hi <= lo:
            return 0.0
        return (antiderivative(hi) - antiderivative(lo)) / (2.0 * R * s)

    return TestFunction(
        evaluator=evaluator,
        support_center=c,
        support_radius=a,
        modulus_model=lambda r: min(r / a, 1.0),
        dirichlet=a ** (d - 2) * unit_sphere_area(d) / d,
        equilibrium_mean=equilibrium_mean,
    )


def max_green_on_shell(oracle: EquilibriumOracle, offset: float) -> float:
    """Max of the oracle's Green function over {x : d_E(x) <= offset}, read
    on fixed probes of the boundary of a compact D that holds it
    (``sets._widened_grid``); g_E is 0 on E and subharmonic off it, so its
    max over D bounds the slab's. On a ball or sphere set D is each ball
    widened by ``offset``, read on a ``_MIN_GRID``-point grid of its sphere:
    W - (R + offset)**(2-d) up to rounding on one ball, a grid estimate on
    several. On a box D is the widened box, read at its
    2^d corners: g_E of a convex E has convex sublevel sets (Lewis, 1977),
    so its max over D lies at a corner, past the slab."""
    return float(np.max(oracle.green(_widened_grid(oracle.set_model, offset, _MIN_GRID))))


@dataclass(frozen=True)
class DiscrepancyReport:
    """All terms of the smoothing-based discrepancy bound for one trial.

    ``lhs`` is |mean of phi over X - phi_integral|, with ``phi_integral``
    the exact integral of phi against mu_E (``phi.equilibrium_mean``);
    ``rhs`` is omega_term + sqrt(D[phi]/((d-2) omega_d)) * sqrt(max(I_value, 0)).
    ``I_value`` bounds the energy of tau_r - mu_E, which is >= 0 (the
    Newtonian kernel is positive definite), so a correct run has
    I_value >= 0 and lhs <= rhs. ``energy`` is E_n, the configuration's
    ``discrete_energy``, computed once here for callers; ``energy_gap`` is
    I_value's (n-1)/n * E_n - W, not the ``study`` CSV's E_n - W.
    """

    lhs: float
    phi_integral: float
    omega_term: float
    energy: float
    energy_gap: float
    smoothing_term: float
    green_term: float
    m_term: float
    I_value: float
    rhs: float


def discrepancy_bound(
    oracle: EquilibriumOracle,
    X: PointConfig,
    phi: TestFunction,
    r: float,
) -> DiscrepancyReport:
    """Assemble the test-function discrepancy bound for one configuration
    against the oracle's set E and kernel.

    lhs = |mean of phi over X - integral of phi d(mu_E)| with the exact
    integral ``phi.equilibrium_mean(oracle)``, which raises
    UnsupportedOracleError where phi has none; rhs combines the modulus
    term with the square root of the composite energy term

        I = 2 m_E(X) + (n-1)/n * energy - W(E) + r**(2-d)/n
            + 2 max over {d_E <= 2r} of g_E (``max_green_on_shell``),

    the last read on fixed probes, so the report depends on
    (oracle, X, phi, r) alone. A negative I or lhs > rhs comes only from
    a wrong oracle or input, and warns.
    """
    spec = oracle.spec
    require_newtonian(spec, "discrepancy bound")
    _require_config_dim(X, spec)
    if not 0 < r < np.inf:  # NaN fails too
        raise ValueError("r must be positive and finite")
    if not np.isfinite(oracle.robin_constant):
        raise ValueError("oracle must provide a finite Robin constant")
    d = spec.dim
    n = X.n
    W = oracle.robin_constant
    integral = float(phi.equilibrium_mean(oracle))
    lhs = abs(float(np.mean(phi.evaluator(X.points))) - integral)

    m_term = 2.0 * closeness_m_E(X, oracle)
    energy = discrete_energy(X, spec)
    energy_gap = (n - 1) / n * energy - W
    smoothing_term = r ** (2.0 - d) / n
    green_term = 2.0 * max_green_on_shell(oracle, 2.0 * r)
    I_value = m_term + energy_gap + smoothing_term + green_term

    omega_term = float(phi.modulus_model(r))
    D = float(phi.dirichlet)
    rhs = omega_term + math.sqrt(D / ((d - 2) * unit_sphere_area(d))) * math.sqrt(max(I_value, 0.0))
    if I_value < 0.0 or lhs > rhs:
        warnings.warn(
            f"discrepancy bound violated (lhs={lhs:.6g}, rhs={rhs:.6g}, I_value={I_value:.6g}); "
            "this indicates a bug somewhere in the inputs",
            RuntimeWarning,
        )
    return DiscrepancyReport(
        lhs=lhs,
        phi_integral=integral,
        omega_term=omega_term,
        energy=energy,
        energy_gap=energy_gap,
        smoothing_term=smoothing_term,
        green_term=green_term,
        m_term=m_term,
        I_value=I_value,
        rhs=rhs,
    )


# Gauss-Legendre nodes of the probe rule; the rule is exact to degree 61
_PROBE_RULE_NODES = 31


def sphere_probe_rule(center, radius: float) -> tuple:
    """Product quadrature on the 2-sphere |y - center| = radius in R^3.

    Gauss-Legendre in the polar cosine (31 nodes) times the trapezoid
    rule in azimuth (62 nodes): exact for spherical polynomials of degree
    up to 61. Returns ``(probes, weights)``, shapes (1922, 3) and
    (1922,), the weights summing to 1, so a weighted sum is a mean over
    the sphere.
    """
    m = _PROBE_RULE_NODES
    z, wz = np.polynomial.legendre.leggauss(m)
    z, az = np.meshgrid(z, np.pi * np.arange(2 * m) / m, indexing="ij")
    rho = np.sqrt(1.0 - z * z)
    unit = np.column_stack([(rho * np.cos(az)).ravel(), (rho * np.sin(az)).ravel(), z.ravel()])
    weights = np.repeat(wz / (4.0 * m), 2 * m)
    return np.asarray(center, dtype=float) + radius * unit, weights


def potential_error(oracle: EquilibriumOracle, X: PointConfig, y) -> tuple:
    """Measured potential error at exterior probes of the oracle's set E
    and the predicted decay shape (no constant is claimed; callers fit one
    empirically).

    measured = |U^{mu_E}(y) - U^{tau(X)}(y)|
    shape    = d_E(y)**(1-d) n**(-p/s) + d_E(y)**(1-d/2) n**(-p/2),
    with p = s/(d+s-2) from the set's declared Holder exponent
    ``holder_s``; a set that declares none raises UnsupportedOracleError.
    ``y`` is one probe (dim,), giving two floats, or a batch (m, dim),
    giving two arrays of length m.
    """
    E, spec = oracle.set_model, oracle.spec
    require_newtonian(spec, "potential error bound")
    if E.holder_s is None:
        raise UnsupportedOracleError("the set declares no Holder exponent s")
    yv = np.asarray(y, dtype=float)
    dEy = distance_to_set(E, yv)
    if np.any(dEy <= 0.0):
        raise ValueError("probe point must lie strictly outside the set")
    if np.any(distance_to_set(E, X.points) > MEMBERSHIP_TOL):
        raise ValueError("configuration must lie inside the set")
    d = spec.dim
    s = E.holder_s
    p = s / (d + s - 2.0)
    n = X.n
    measured = abs(oracle.potential(yv) - discrete_potential(X, spec, yv))
    shape = dEy ** (1.0 - d) * n ** (-p / s) + dEy ** (1.0 - d / 2.0) * n ** (-p / 2.0)
    return measured, shape


def sup_potential_deficit(oracle: EquilibriumOracle, X: PointConfig) -> float:
    """W - min over S of U^{tau(X)}, for the oracle's set E and kernel, where
    S is the spheres of a ball or union and E itself for a sphere or box
    (``_min_surface``). The minimum is ``_potential_min`` on a
    ``_MIN_GRID``-point (4096) grid of S at a fixed seed, on a union its
    boundary: the grid minimum polished by projected Newton with the exact
    Hessian, so the value is a lower bound of the supremum, not a certificate.

    On one ball or sphere B this is sup over R^d of U^{mu_E} - U^{tau(X)}
    wherever the points lie: off the sphere the difference is subharmonic
    (U^{mu_E} is harmonic there, U^{tau(X)} superharmonic) and tends to 0
    at infinity, so its sup is max(W - min over the sphere of U^{tau(X)}, 0);
    and the first term is >= 0, because the mean of U^{tau(X)} against
    mu_E is the mean of U^{mu_E} over X, at most W. On a box or union it
    reads W - min over E of U^{tau(X)} with the approximate oracle's W.
    """
    E, spec = oracle.set_model, oracle.spec
    require_newtonian(spec, "potential deficit")
    _require_config_dim(X, spec)
    S = _min_surface(E)
    grid = sample_candidates(S, _MIN_GRID, 0)
    _, u = _potential_min(S, spec, X.points, grid, potential_sums(spec, grid, X.points))
    return float(oracle.robin_constant - u / X.n)
