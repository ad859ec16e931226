"""Quantitative equidistribution machinery.

Builds test functions that carry closed-form bounds on their modulus of
continuity and Dirichlet integral, assembles the smoothing-based
discrepancy bound for test-function means, measures potential errors
against the equilibrium potential with their predicted decay shapes, and
reads the sup of the potential deficit off the greedy step's minimum.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import MissingHolderDataError, UnsupportedOracleError
from .kernel import KernelSpec, potential_sums, require_newtonian
from .measures import PointConfig, closeness_m_E, discrete_energy, discrete_potential
from .configurations import _min_surface, _potential_min
from .sets import (
    CompactSetModel,
    EquilibriumOracle,
    MEMBERSHIP_TOL,
    distance_to_set,
    points_at_offset,
    sample_candidates,
    sample_shell,
)
from .seeding import substream

# shell points the Green-function scan starts from
_SHELL_COUNT = 512
# proposal rounds of the scan's shrinking local search
_ASCENT_STEPS = 40
# grid points of the potential minimum in sup_potential_deficit
_MIN_GRID = 4096


def unit_sphere_area(d: int) -> float:
    """Surface area of the unit (d-1)-sphere: 2 pi^{d/2} / Gamma(d/2)."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


@dataclass(frozen=True)
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


def phi_for_potential(E: CompactSetModel, y, spec: KernelSpec) -> TestFunction:
    """Truncated-kernel test function tied to an exterior probe point.

    phi(x) = max((|y-x| + d_E(x))**(2-d) - R**(2-d), 0) with
    R = diam(E) + d_E(y) + 1. On E it reduces to |y-x|**(2-d) - R**(2-d),
    so its mean against a configuration in E recovers the discrete
    potential at y up to the constant truncation, and its mean against
    mu_E, which lives on E, is exactly U^{mu_E}(y) - R**(2-d).
    """
    require_newtonian(spec, "potential test function")
    d = spec.dim
    yv = np.asarray(y, dtype=float)
    dEy = float(distance_to_set(E, yv))
    if dEy <= 0.0:
        raise ValueError("probe point must lie strictly outside the set")
    R = E.diameter + dEy + 1.0
    expo = 2.0 - d
    tail = R ** expo

    def evaluator(x):
        pts = np.asarray(x, dtype=float)
        scalar = pts.ndim == 1
        p = pts[None, :] if scalar else pts
        f = np.linalg.norm(yv - p, axis=-1) + distance_to_set(E, p)
        out = np.maximum(f ** expo - tail, 0.0)
        return float(out[0]) if scalar else out

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

    Its equilibrium mean is closed-form on a ball or sphere in d = 3,
    where mu_E is uniform on the sphere of radius R about E's center
    (Archimedes): at distance s from the hat's center, rho = |x - c| has
    density rho/(2Rs) on [|R-s|, R+s]. Elsewhere it raises
    UnsupportedOracleError.
    """
    c = np.asarray(center, dtype=float)
    d = c.size
    a = float(radius)

    def evaluator(x):
        pts = np.asarray(x, dtype=float)
        scalar = pts.ndim == 1
        p = pts[None, :] if scalar else pts
        out = np.maximum(1.0 - np.linalg.norm(p - c, axis=-1) / a, 0.0)
        return float(out[0]) if scalar else out

    def antiderivative(rho):
        return rho * rho / 2.0 - rho ** 3 / (3.0 * a)

    def equilibrium_mean(oracle):
        E = oracle.set_model
        if E.kind not in ("ball", "sphere") or E.dim != 3:
            raise UnsupportedOracleError(
                f"the radial hat's equilibrium mean needs a ball or sphere in d = 3, got a {E.kind} in d = {E.dim}"
            )
        R = E.radius
        s = float(np.linalg.norm(c - E.center))
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
    """Max of the oracle's Green function over the shell {x : d_E(x) = offset}
    of its set E, where the slab max {d_E <= offset} lies for the shipped
    regular sets: ``_SHELL_COUNT`` (512) shell points and ``_ASCENT_STEPS``
    (40) rounds of a shrinking local search, on one fixed stream. Exact up
    to rounding on a ball or sphere, where g_E is constant on the shell,
    W - (R + offset)**(2-d); a lower estimate on a box or union."""
    E = oracle.set_model
    rng = substream(0, "green-shell")
    shell = sample_shell(E, _SHELL_COUNT, offset, rng)
    g = oracle.green(shell)
    best_i = int(np.argmax(g))
    x, gx = shell[best_i], float(g[best_i])
    scale = offset
    d = E.dim
    for _ in range(_ASCENT_STEPS):
        props = points_at_offset(E, x + rng.normal(size=(8, d)) * scale, offset)
        gp = oracle.green(props)
        j = int(np.argmax(gp))
        if gp[j] > gx:
            x, gx = props[j], float(gp[j])
            continue
        scale *= 0.5
        if scale < 1e-12 * max(1.0, offset):
            break
    return gx


@dataclass(frozen=True)
class DiscrepancyReport:
    """All terms of the smoothing-based discrepancy bound for one trial.

    ``lhs`` is |mean of phi over X - phi_integral|, with ``phi_integral``
    the exact integral of phi against mu_E (``phi.equilibrium_mean``);
    ``rhs`` is omega_term + sqrt(D[phi]/((d-2) omega_d)) * sqrt(max(I_value, 0));
    ``vacuous`` flags a negative I_value (possible under numerical noise),
    in which case the inequality is not asserted. ``energy`` is the
    configuration's ``discrete_energy``, computed once here for callers.
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
    r: float
    vacuous: bool
    bound_satisfied: Optional[bool]
    n: int


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

    so the report depends on (oracle, X, phi, r) alone.
    """
    spec = oracle.spec
    require_newtonian(spec, "discrepancy bound")
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
    vacuous = I_value < 0.0
    bound_satisfied = None if vacuous else bool(lhs <= rhs)
    if bound_satisfied is False:
        warnings.warn(
            f"discrepancy bound violated (lhs={lhs:.6g}, rhs={rhs:.6g}); "
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
        r=r,
        vacuous=vacuous,
        bound_satisfied=bound_satisfied,
        n=n,
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
    ``holder_s``; a set that declares none raises MissingHolderDataError.
    ``y`` is one probe (dim,), giving two floats, or a batch (m, dim),
    giving two arrays of length m.
    """
    E, spec = oracle.set_model, oracle.spec
    require_newtonian(spec, "potential error bound")
    if E.holder_s is None:
        raise MissingHolderDataError("the set declares no Holder exponent s")
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
    S is the boundary sphere of a ball and E itself for a sphere, box or
    union (``_min_surface``). The minimum is ``_potential_min`` on a
    ``_MIN_GRID``-point (4096) grid of S at a fixed seed: the polished grid
    minimum, so the value is a lower bound of the supremum, not a certificate.

    On a ball or sphere B this is sup over R^d of U^{mu_E} - U^{tau(X)}
    wherever the points lie: off the sphere the difference is subharmonic
    (U^{mu_E} is harmonic there, U^{tau(X)} superharmonic) and tends to 0
    at infinity, so its sup is max(W - min over the sphere of U^{tau(X)}, 0);
    and the first term is >= 0, because the mean of U^{tau(X)} against
    mu_E is the mean of U^{mu_E} over X, at most W. On a box or union it
    reads W - min over E of U^{tau(X)} with the approximate oracle's W.
    """
    E, spec = oracle.set_model, oracle.spec
    require_newtonian(spec, "potential deficit")
    S = _min_surface(E)
    grid = sample_candidates(S, _MIN_GRID, 0)
    _, u = _potential_min(S, spec, X.points, grid, potential_sums(spec, grid, X.points))
    return float(oracle.robin_constant - u / X.n)
