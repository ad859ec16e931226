"""Quantitative equidistribution machinery.

Builds the truncated-kernel test function, computes moduli of continuity
and Dirichlet integrals, assembles the smoothing-based discrepancy bound
for test-function means, and measures potential errors against the
equilibrium potential together with their predicted decay shapes.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np

from .errors import MissingHolderDataError
from .kernel import KernelSpec, potential_sums, require_newtonian
from .measures import PointConfig, closeness_m_E, discrete_energy, discrete_potential
from .sets import (
    CompactSetModel,
    EquilibriumOracle,
    MEMBERSHIP_TOL,
    ball,
    distance_to_set,
    points_at_offset,
    random_directions,
    sample_candidates,
    sample_shell,
    sample_uniform,
)
from .seeding import child_seed, substream


def unit_sphere_area(d: int) -> float:
    """Surface area of the unit (d-1)-sphere: 2 pi^{d/2} / Gamma(d/2)."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


@dataclass(frozen=True)
class TestFunction:
    """A continuous compactly supported test function.

    ``evaluator`` is vectorized over (m, d) batches and vanishes outside
    the ball of ``support_radius`` about ``support_center``. When known
    in closed form, ``modulus_model`` dominates the true modulus of
    continuity and ``dirichlet`` dominates the true Dirichlet integral,
    so bounds assembled from them stay valid.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    support_center: np.ndarray
    support_radius: float
    modulus_model: Optional[Callable[[float], float]] = None
    dirichlet: Optional[float] = None
    lipschitz: Optional[float] = None

    __test__ = False  # not a pytest class despite the name


def phi_for_potential(E: CompactSetModel, y, spec: KernelSpec) -> TestFunction:
    """Truncated-kernel test function tied to an exterior probe point.

    phi(x) = max((|y-x| + d_E(x))**(2-d) - R**(2-d), 0) with
    R = diam(E) + d_E(y) + 1. On E it reduces to |y-x|**(2-d) - R**(2-d),
    so its mean against a configuration in E recovers the discrete
    potential at y up to the constant truncation.
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
        lipschitz=lip,
    )


def radial_hat(center, radius: float = 1.0) -> TestFunction:
    """Hat bump max(1 - |x-c|/a, 0): exact modulus min(r/a, 1) and exact
    Dirichlet integral a**(d-2) * vol(unit ball)."""
    c = np.asarray(center, dtype=float)
    d = c.size
    a = float(radius)

    def evaluator(x):
        pts = np.asarray(x, dtype=float)
        scalar = pts.ndim == 1
        p = pts[None, :] if scalar else pts
        out = np.maximum(1.0 - np.linalg.norm(p - c, axis=-1) / a, 0.0)
        return float(out[0]) if scalar else out

    return TestFunction(
        evaluator=evaluator,
        support_center=c,
        support_radius=a,
        modulus_model=lambda r: min(r / a, 1.0),
        dirichlet=a ** (d - 2) * unit_sphere_area(d) / d,
        lipschitz=1.0 / a,
    )


def modulus_of_continuity(phi: TestFunction, r: float, probes: int = 2000, seed: int = 0) -> float:
    """omega(phi; r): closed form when the function carries a model,
    otherwise a seeded random-probe lower estimate inflated by 1.2."""
    if r <= 0:
        raise ValueError("r must be positive")
    if phi.modulus_model is not None:
        return float(phi.modulus_model(r))
    rng = substream(seed, "modulus-probes")
    d = phi.support_center.size
    x = phi.support_center + (rng.random((probes, d)) * 2.0 - 1.0) * (phi.support_radius + r)
    u = random_directions(rng, probes, d)
    t = rng.random(probes) * r
    vals = np.abs(phi.evaluator(x) - phi.evaluator(x + t[:, None] * u))
    return 1.2 * float(vals.max())


def dirichlet_integral(phi: TestFunction, samples: int = 200_000, seed: int = 0) -> float:
    """D[phi] = integral of |grad phi|^2: the closed-form value/bound when
    present, otherwise Monte Carlo over the support ball with central
    finite differences (step 1e-5)."""
    if phi.dirichlet is not None:
        return float(phi.dirichlet)
    d = phi.support_center.size
    R = phi.support_radius
    x = sample_uniform(ball(phi.support_center, R), samples, substream(seed, "dirichlet-mc"))
    h = 1e-5
    grad_sq = np.zeros(samples)
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        gi = (phi.evaluator(x + e) - phi.evaluator(x - e)) / (2.0 * h)
        grad_sq += gi * gi
    vol = unit_sphere_area(d) / d * R ** d
    return vol * float(grad_sq.mean())


def max_green_on_shell(
    E: CompactSetModel,
    oracle: EquilibriumOracle,
    offset: float,
    count: int = 512,
    seed: int = 0,
    ascent_iters: int = 40,
) -> float:
    """Max of the Green function over the shell {x : d_E(x) = offset}.

    The slab max {d_E <= offset} is attained on this shell for the
    shipped regular sets, so sampling the shell plus a shrinking local
    search suffices.
    """
    rng = substream(seed, "green-shell")
    shell = sample_shell(E, count, offset, rng)
    if len(shell) == 0:
        raise RuntimeError("no shell points constructed; unexpected for shipped shapes")
    g = np.atleast_1d(oracle.green(shell))
    best_i = int(np.argmax(g))
    x, gx = shell[best_i], float(g[best_i])
    scale = offset
    d = E.dim
    for _ in range(ascent_iters):
        props = points_at_offset(E, x + rng.normal(size=(8, d)) * scale, offset)
        if len(props) > 0:
            gp = np.atleast_1d(oracle.green(props))
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

    ``lhs`` is |mean of phi over X - phi_integral|, the integral of phi
    against mu_E by seeded Monte Carlo;
    ``rhs`` is omega_term + sqrt(D[phi]/((d-2) omega_d)) * sqrt(max(I_value, 0));
    ``vacuous`` flags a negative I_value (possible under numerical noise),
    in which case the inequality is not asserted.
    """

    lhs: float
    phi_integral: float
    omega_term: float
    energy_gap: float
    smoothing_term: float
    green_term: float
    m_term: float
    I_value: float
    rhs: float
    r: float
    lhs_stderr: float
    vacuous: bool
    bound_satisfied: Optional[bool]
    omega_estimated: bool
    n: int

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def discrepancy_bound(
    E: CompactSetModel,
    oracle: EquilibriumOracle,
    X: PointConfig,
    phi: TestFunction,
    r: float,
    spec: KernelSpec,
    mc_samples: int = 100_000,
    shell_count: int = 512,
    seed: int = 0,
) -> DiscrepancyReport:
    """Assemble the test-function discrepancy bound for one configuration.

    lhs = |mean of phi over X - integral of phi d(mu_E)| with the integral
    taken by seeded Monte Carlo (standard error reported); rhs combines
    the modulus term with the square root of the composite energy term

        I = 2 m_E(X) + (n-1)/n * energy - W(E) + r**(2-d)/n
            + 2 max over {d_E <= 2r} of g_E.
    """
    require_newtonian(spec, "discrepancy bound")
    if r <= 0:
        raise ValueError("r must be positive")
    if not np.isfinite(oracle.robin_constant):
        raise ValueError("oracle must provide a finite Robin constant")
    d = spec.dim
    n = X.n
    W = oracle.robin_constant

    m_term = 2.0 * closeness_m_E(X, E, oracle)
    energy_gap = (n - 1) / n * discrete_energy(X, spec) - W
    smoothing_term = r ** (2.0 - d) / n
    green_term = 2.0 * max_green_on_shell(E, oracle, 2.0 * r, count=shell_count, seed=child_seed(seed, "shell"))
    I_value = m_term + energy_gap + smoothing_term + green_term

    omega_estimated = phi.modulus_model is None
    omega_term = modulus_of_continuity(phi, r, seed=child_seed(seed, "modulus"))
    D = dirichlet_integral(phi, seed=child_seed(seed, "dirichlet"))

    mc = oracle.sampler(mc_samples, child_seed(seed, "phi-integral"))
    vals = np.atleast_1d(phi.evaluator(mc))
    integral = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(mc_samples))
    lhs = abs(float(np.mean(phi.evaluator(X.points))) - integral)

    rhs = omega_term + math.sqrt(D / ((d - 2) * unit_sphere_area(d))) * math.sqrt(max(I_value, 0.0))
    vacuous = I_value < 0.0
    bound_satisfied = None if vacuous else bool(lhs <= rhs + 3.0 * stderr)
    if bound_satisfied is False:
        warnings.warn(
            f"discrepancy bound violated beyond Monte Carlo error (lhs={lhs:.6g}, rhs={rhs:.6g}); "
            "this indicates a bug somewhere in the inputs",
            RuntimeWarning,
        )
    return DiscrepancyReport(
        lhs=lhs,
        phi_integral=integral,
        omega_term=omega_term,
        energy_gap=energy_gap,
        smoothing_term=smoothing_term,
        green_term=green_term,
        m_term=m_term,
        I_value=I_value,
        rhs=rhs,
        r=r,
        lhs_stderr=stderr,
        vacuous=vacuous,
        bound_satisfied=bound_satisfied,
        omega_estimated=omega_estimated,
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


def potential_error(
    E: CompactSetModel,
    oracle: EquilibriumOracle,
    X: PointConfig,
    y,
    spec: KernelSpec,
) -> tuple:
    """Measured potential error at exterior probes and the predicted decay
    shape (no constant is claimed; callers fit one empirically).

    measured = |U^{mu_E}(y) - U^{tau(X)}(y)|
    shape    = d_E(y)**(1-d) n**(-p/s) + d_E(y)**(1-d/2) n**(-p/2),
    with p = s/(d+s-2) from the set's declared Holder exponent s. ``y`` is
    one probe (dim,), giving two floats, or a batch (m, dim), giving two
    arrays of length m.
    """
    require_newtonian(spec, "potential error bound")
    if E.holder is None:
        raise MissingHolderDataError("the set carries no Holder data (A, s)")
    yv = np.asarray(y, dtype=float)
    dEy = distance_to_set(E, yv)
    if np.any(dEy <= 0.0):
        raise ValueError("probe point must lie strictly outside the set")
    if np.any(np.atleast_1d(distance_to_set(E, X.points)) > MEMBERSHIP_TOL):
        raise ValueError("configuration must lie inside the set")
    d = spec.dim
    _, s = E.holder
    p = s / (d + s - 2.0)
    n = X.n
    measured = abs(oracle.potential(yv) - discrete_potential(X, spec, yv))
    shape = dEy ** (1.0 - d) * n ** (-p / s) + dEy ** (1.0 - d / 2.0) * n ** (-p / 2.0)
    return measured, shape


def sup_potential_deficit(
    oracle: EquilibriumOracle,
    X: PointConfig,
    E: CompactSetModel,
    spec: KernelSpec,
    grid: int = 512,
    seed: int = 0,
) -> float:
    """Max over a seeded grid on E and a surrounding shell of
    U^{mu_E}(y) - U^{tau(X)}(y).

    The global sup is governed by values near E (the discrete potential
    is superharmonic and attains its minimum over the complement of a
    neighborhood on that neighborhood's boundary), so probing E and a few
    offset shells suffices.
    """
    require_newtonian(spec, "potential deficit")
    pts = [sample_candidates(E, grid, child_seed(seed, "sup-grid"))]
    rng = substream(seed, "sup-shell")
    radius = E.enclosing_radius
    for rel in (0.05, 0.15, 0.4):
        pts.append(sample_shell(E, max(grid // 4, 8), rel * radius, rng))
    probes = np.concatenate(pts)
    u = potential_sums(spec, probes, X.points)
    # exclude probes sitting exactly on configuration atoms
    keep = np.isfinite(u)
    deficit = np.atleast_1d(oracle.potential(probes[keep])) - u[keep] / X.n
    return float(deficit.max())
