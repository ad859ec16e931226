"""Compact sets in R^d: distance/projection queries, samplers, and
equilibrium oracles.

Shipped shapes: solid ball, sphere surface, axis-aligned box, finite
union of balls. Balls and spheres carry exact Newtonian equilibrium
oracles (Robin constant, equilibrium potential, Green function); boxes
and unions fall back to a quadrature-backed oracle built from a dense
low-energy configuration, clearly labeled approximate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.stats import qmc

from .errors import SetDefinitionError, UnsupportedOracleError
from .kernel import KernelSpec, newtonian_flag
from .seeding import child_seed, substream

# Numeric membership threshold: projected points land on boundaries up to
# floating error, so the indicator "x in E" needs a tolerance.
MEMBERSHIP_TOL = 1e-9


@dataclass(frozen=True)
class CompactSetModel:
    """A compact set E with geometric queries and optional Holder data.

    ``holder`` is the user-declared pair (A, s) bounding the Green
    function by A * d_E(x)**s; the toolkit never estimates s.
    """

    dim: int
    kind: str  # "ball" | "sphere" | "box" | "union"
    center: Optional[np.ndarray] = None
    radius: Optional[float] = None
    low: Optional[np.ndarray] = None
    high: Optional[np.ndarray] = None
    balls: Optional[tuple] = None  # tuple of (center ndarray, radius)
    holder: Optional[tuple] = None  # (A, s)

    def __post_init__(self):
        if self.holder is not None:
            A, s = self.holder
            if not (A > 0 and 0 < s <= 1):
                raise ValueError(f"holder data needs A > 0 and 0 < s <= 1, got {self.holder}")

    @property
    def diameter(self) -> float:
        if self.kind in ("ball", "sphere"):
            return 2.0 * self.radius
        if self.kind == "box":
            return float(np.linalg.norm(self.high - self.low))
        best = 0.0
        for i, (ci, ri) in enumerate(self.balls):
            for cj, rj in self.balls[i:]:
                best = max(best, float(np.linalg.norm(ci - cj)) + ri + rj)
        return best

    @property
    def enclosing_center(self) -> np.ndarray:
        if self.kind in ("ball", "sphere"):
            return self.center
        if self.kind == "box":
            return 0.5 * (self.low + self.high)
        return np.mean([c for c, _ in self.balls], axis=0)

    @property
    def enclosing_radius(self) -> float:
        if self.kind in ("ball", "sphere"):
            return float(self.radius)
        if self.kind == "box":
            return float(np.linalg.norm(self.high - self.low)) / 2.0
        m = self.enclosing_center
        return max(float(np.linalg.norm(c - m)) + r for c, r in self.balls)


def _vec(x, dim, name="point"):
    a = np.asarray(x, dtype=float)
    if a.shape[-1] != dim:
        raise ValueError(f"{name} has dimension {a.shape[-1]}, set has {dim}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite")
    return a


def ball(center, radius: float, holder=(1.0, 1.0)) -> CompactSetModel:
    c = np.array(center, dtype=float)
    if radius <= 0:
        raise ValueError("radius must be positive")
    c.setflags(write=False)
    return CompactSetModel(dim=c.size, kind="ball", center=c, radius=float(radius), holder=holder)


def sphere_surface(center, radius: float, holder=(1.0, 1.0)) -> CompactSetModel:
    c = np.array(center, dtype=float)
    if radius <= 0:
        raise ValueError("radius must be positive")
    c.setflags(write=False)
    return CompactSetModel(dim=c.size, kind="sphere", center=c, radius=float(radius), holder=holder)


def box(low, high, holder=(1.0, 1.0)) -> CompactSetModel:
    lo = np.array(low, dtype=float)
    hi = np.array(high, dtype=float)
    if lo.shape != hi.shape or lo.ndim != 1:
        raise ValueError("low/high must be 1-d vectors of equal length")
    if not np.all(hi > lo):
        raise ValueError("box needs high > low componentwise")
    lo.setflags(write=False)
    hi.setflags(write=False)
    return CompactSetModel(dim=lo.size, kind="box", low=lo, high=hi, holder=holder)


def union_of_balls(balls_list, holder=None) -> CompactSetModel:
    if not balls_list:
        raise ValueError("union needs at least one ball")
    packed = []
    dim = None
    for c, r in balls_list:
        cv = np.array(c, dtype=float)
        if dim is None:
            dim = cv.size
        elif cv.size != dim:
            raise ValueError("all union balls must share a dimension")
        if r <= 0:
            raise ValueError("ball radii must be positive")
        cv.setflags(write=False)
        packed.append((cv, float(r)))
    return CompactSetModel(dim=dim, kind="union", balls=tuple(packed), holder=holder)


# ---------------------------------------------------------------------------
# distance and projection
# ---------------------------------------------------------------------------

def distance_to_set(E: CompactSetModel, x):
    """Euclidean distance d_E(x) = min over t in E of |x - t|.

    Exact for all shipped shapes; vectorized over leading axes.
    """
    p = _vec(x, E.dim)
    if E.kind == "ball":
        rho = np.linalg.norm(p - E.center, axis=-1)
        out = np.maximum(rho - E.radius, 0.0)
    elif E.kind == "sphere":
        rho = np.linalg.norm(p - E.center, axis=-1)
        out = np.abs(rho - E.radius)
    elif E.kind == "box":
        g = np.clip(p, E.low, E.high)
        out = np.linalg.norm(p - g, axis=-1)
    else:
        ds = [np.maximum(np.linalg.norm(p - c, axis=-1) - r, 0.0) for c, r in E.balls]
        out = np.minimum.reduce(ds)
    return float(out) if out.ndim == 0 else out


def _project_to_sphere_shell(p, center, radius):
    """Radial projection onto |x - center| = radius; center maps to +e1."""
    v = p - center
    rho = np.linalg.norm(v, axis=-1, keepdims=True)
    unit = np.divide(v, rho, out=np.zeros_like(v), where=rho > 0)
    # deterministic tie-break for the shell's center: fixed direction +e1
    deg = (rho[..., 0] == 0)
    if np.any(deg):
        unit = np.array(unit, copy=True)
        unit[deg] = 0.0
        unit[deg, ..., 0] = 1.0
    return center + radius * unit


def _project_to_ball(q, center, radius):
    """Nearest point of the solid ball: inside points stay, outside points
    go radially to the boundary."""
    inside = np.linalg.norm(q - center, axis=-1, keepdims=True) <= radius
    return np.where(inside, q, _project_to_sphere_shell(q, center, radius))


def project_to_set(E: CompactSetModel, x):
    """Nearest point of E; deterministic tie-breaks (sphere center -> +e1,
    equidistant union balls -> lowest index)."""
    p = _vec(x, E.dim)
    scalar = p.ndim == 1
    q = p[None, :] if scalar else p
    if E.kind == "ball":
        out = _project_to_ball(q, E.center, E.radius)
    elif E.kind == "sphere":
        out = _project_to_sphere_shell(q, E.center, E.radius)
    elif E.kind == "box":
        out = np.clip(q, E.low, E.high)
    else:
        ds = np.stack([np.maximum(np.linalg.norm(q - c, axis=-1) - r, 0.0) for c, r in E.balls], axis=0)
        idx = np.argmin(ds, axis=0)  # lowest index wins ties
        out = np.empty_like(q)
        for i, (c, r) in enumerate(E.balls):
            sel = idx == i
            if np.any(sel):
                out[sel] = _project_to_ball(q[sel], c, r)
    return out[0] if scalar else out


def points_at_offset(E: CompactSetModel, seeds_xyz, offset: float):
    """Move each seed point onto the shell {x : d_E(x) = offset}.

    Fixed-point iteration of z <- proj(z) + offset * (z - proj(z))/|z - proj(z)|;
    exact after one step for the convex shipped shapes. Points whose
    distance misses the shell by more than 1e-9 are dropped.
    """
    z = np.array(_vec(seeds_xyz, E.dim), copy=True)
    if z.ndim == 1:
        z = z[None, :]
    cen = E.enclosing_center
    for _ in range(4):
        p = project_to_set(E, z)
        u = z - p
        nu = np.linalg.norm(u, axis=-1, keepdims=True)
        degenerate = nu[..., 0] < 1e-300
        if np.any(degenerate):
            # seed landed inside E: walk radially from the enclosing center
            w = z[degenerate] - cen
            nw = np.linalg.norm(w, axis=-1, keepdims=True)
            w = np.where(nw > 0, w / np.maximum(nw, 1e-300), 0.0)
            w[np.linalg.norm(w, axis=-1) == 0, 0] = 1.0
            u[degenerate] = w
            nu[degenerate] = 1.0
        z = p + offset * u / nu
    keep = np.abs(distance_to_set(E, z) - offset) <= 1e-9 * max(1.0, offset)
    return z[keep]


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def fibonacci_sphere(count: int) -> np.ndarray:
    """Quasi-uniform lattice on the unit 2-sphere (d = 3 only)."""
    i = np.arange(count)
    phi = np.pi * (3.0 - np.sqrt(5.0)) * i
    z = 1.0 - (2.0 * i + 1.0) / count
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def random_rotation(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A Haar-random orthogonal matrix (QR of a Gaussian matrix, signs fixed)."""
    A = rng.normal(size=(dim, dim))
    Q, R = np.linalg.qr(A)
    return Q * np.sign(np.diag(R))


def _halton(rng_seed: int, dim: int, count: int) -> np.ndarray:
    eng = qmc.Halton(d=dim, scramble=True, seed=np.random.default_rng(rng_seed))
    return eng.random(count)


def _gauss_from_uniform(u: np.ndarray) -> np.ndarray:
    from scipy.stats import norm

    eps = np.finfo(float).tiny
    return norm.ppf(np.clip(u, eps, 1 - 1e-16))


def random_directions(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """``count`` i.i.d. uniform unit vectors in R^dim (normalized Gaussian rows)."""
    v = rng.normal(size=(count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _halton_ball(center, radius, dim, count, seed, solid) -> np.ndarray:
    """Exactly ``count`` low-discrepancy points in the solid ball, or on its
    boundary sphere when ``solid`` is False. The direction is the Gaussian
    ppf of ``dim`` scrambled Halton coordinates; a solid ball takes its
    radius from one more coordinate raised to the power 1/dim."""
    u = _halton(seed, dim + solid, count)
    g = _gauss_from_uniform(u[:, :dim])
    v = g / np.linalg.norm(g, axis=1, keepdims=True)
    if solid:
        return center + radius * u[:, dim:] ** (1.0 / dim) * v
    return center + radius * v


def sample_uniform(E: CompactSetModel, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` i.i.d. draws from the natural uniform measure on E
    (volume measure for solids, surface measure for the sphere shell).

    A union first picks each draw's ball with probability proportional to
    its volume; spheres, balls and unions then share one direction draw
    and one radius draw, in that order (choice, normal, random)."""
    d = E.dim
    if E.kind == "box":
        return E.low + rng.random((count, d)) * (E.high - E.low)
    if E.kind == "union":
        vols = np.array([r ** d for _, r in E.balls])
        idx = rng.choice(len(E.balls), size=count, p=vols / vols.sum())
        center = np.array([c for c, _ in E.balls])[idx]
        radius = np.array([r for _, r in E.balls])[idx, None]
    else:
        center, radius = E.center, E.radius
    v = random_directions(rng, count, d)
    if E.kind == "sphere":
        return center + radius * v
    return center + radius * rng.random((count, 1)) ** (1.0 / d) * v


def sample_shell(E: CompactSetModel, count: int, offset: float, rng: np.random.Generator) -> np.ndarray:
    """Points on the shell {x : d_E(x) = offset}: ``count`` uniform draws on
    E, each pushed ``offset`` along a random direction and snapped to the
    shell by points_at_offset (which drops any seed that misses it)."""
    base = sample_uniform(E, count, rng)
    return points_at_offset(E, base + random_directions(rng, count, E.dim) * offset, offset)


def sample_candidates(E: CompactSetModel, count: int, seed: int) -> np.ndarray:
    """Deterministic quasi-uniform candidate points covering E.

    Used as argmin grids for the greedy sequence and as probe grids; the
    mesh norm shrinks toward zero as count grows for every shipped shape.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    d = E.dim
    if E.kind == "sphere" and d == 3:
        base = fibonacci_sphere(count)
        rot = random_rotation(substream(seed, "candidates", "rotation"), 3)
        return E.center + E.radius * (base @ rot.T)
    if E.kind in ("ball", "sphere"):
        return _halton_ball(E.center, E.radius, d, count, child_seed(seed, "candidates"), solid=E.kind == "ball")
    if E.kind == "box":
        u = _halton(child_seed(seed, "candidates"), d, count)
        return E.low + u * (E.high - E.low)
    # union: allocate by volume, at least one candidate per ball
    vols = np.array([r ** d for _, r in E.balls])
    alloc = np.maximum((count * vols / vols.sum()).astype(int), 1)
    while alloc.sum() > count:
        alloc[np.argmax(alloc)] -= 1
    while alloc.sum() < count:
        alloc[np.argmax(vols)] += 1
    parts = [
        _halton_ball(c, r, d, k, child_seed(seed, "candidates", i), solid=True)
        for i, ((c, r), k) in enumerate(zip(E.balls, alloc))
        if k > 0
    ]
    return np.concatenate(parts)


# ---------------------------------------------------------------------------
# equilibrium oracles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquilibriumOracle:
    """Equilibrium data for a set: Robin constant W(E), the equilibrium
    potential, the Green function W(E) - U(x), and an i.i.d. sampler of
    the equilibrium measure. ``approximate`` marks quadrature-backed
    oracles whose values carry discretization error."""

    robin_constant: float
    potential: Callable[[np.ndarray], np.ndarray]
    green: Callable[[np.ndarray], np.ndarray]
    sampler: Callable[[int, int], np.ndarray]  # (count, seed) -> points
    approximate: bool = False
    label: str = ""


def _analytic_ball_oracle(E: CompactSetModel, spec: KernelSpec) -> EquilibriumOracle:
    d = spec.dim
    R = E.radius
    c = E.center
    W = R ** (2.0 - d)

    def potential(x):
        rho = np.linalg.norm(_vec(x, d) - c, axis=-1)
        out = np.maximum(rho, R) ** (2.0 - d)
        return float(out) if out.ndim == 0 else out

    def green(x):
        g = W - potential(x)
        # clamp tiny negative rounding noise; g is >= 0 by construction
        out = np.maximum(g, 0.0)
        return float(out) if np.ndim(out) == 0 else out

    def sampler(count, seed):
        rng = substream(seed, "equilibrium-sampler")
        return c + R * random_directions(rng, count, d)

    return EquilibriumOracle(
        robin_constant=W,
        potential=potential,
        green=green,
        sampler=sampler,
        approximate=False,
        label=f"analytic-{E.kind}",
    )


def _quadrature_backed_oracle(E: CompactSetModel, spec: KernelSpec, support_n: int = 400) -> EquilibriumOracle:
    # The equilibrium measure is approximated by a dense low-energy
    # configuration on E and its discrete potential; documented as
    # approximate, never used by the acceptance bounds.
    from .configurations import FeketeSearchParams, fekete_search
    from .measures import discrete_energy, discrete_potential

    params = FeketeSearchParams(n=support_n, restarts=1, tol=1e-10, seed=20406)
    support = fekete_search(E, spec, params)
    W_hat = discrete_energy(support, spec)

    def potential(x):
        return discrete_potential(support, spec, x)

    def green(x):
        pts = _vec(x, E.dim)
        u = discrete_potential(support, spec, pts)
        g = np.maximum(W_hat - u, 0.0)
        inside = distance_to_set(E, pts) <= MEMBERSHIP_TOL
        g = np.where(inside, 0.0, g)
        return float(g) if np.ndim(g) == 0 else g

    def sampler(count, seed):
        rng = substream(seed, "equilibrium-sampler")
        idx = rng.integers(0, support.n, size=count)
        return support.points[idx]

    return EquilibriumOracle(
        robin_constant=W_hat,
        potential=potential,
        green=green,
        sampler=sampler,
        approximate=True,
        label=f"quadrature-backed-{E.kind}(n={support_n})",
    )


def equilibrium_oracle(E: CompactSetModel, spec: KernelSpec) -> EquilibriumOracle:
    """Equilibrium oracle for E under the given kernel.

    Balls and spheres get the exact Newtonian closed forms (classical:
    the equilibrium measure is the uniform surface measure, so
    W = R**(2-d) and U(x) = max(|x-c|, R)**(2-d)). Boxes and unions get
    the approximate quadrature-backed oracle. Non-Newtonian kernels have
    no fallback and raise.
    """
    if E.dim != spec.dim:
        raise ValueError(f"set dimension {E.dim} != kernel dimension {spec.dim}")
    if not newtonian_flag(spec):
        raise UnsupportedOracleError(
            f"equilibrium oracle requires the Newtonian kernel (alpha = 2), got alpha={spec.alpha}"
        )
    if E.kind in ("ball", "sphere"):
        return _analytic_ball_oracle(E, spec)
    return _quadrature_backed_oracle(E, spec)


# ---------------------------------------------------------------------------
# set definition files
# ---------------------------------------------------------------------------

def _parse_floats(value: str, what: str):
    try:
        return [float(t) for t in value.replace(",", " ").split()]
    except ValueError as exc:
        raise SetDefinitionError(f"cannot parse numbers in {what}: {value!r}") from exc


def parse_set_definition(text: str) -> CompactSetModel:
    """Parse the plain-text key=value set grammar (see the cli module)."""
    shape = None
    fields: dict = {}
    union_balls = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SetDefinitionError(f"expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key == "shape":
            shape = value.lower()
        elif key == "ball":
            nums = _parse_floats(value, "ball")
            if len(nums) < 2:
                raise SetDefinitionError("ball entries need center coordinates plus a radius")
            union_balls.append((nums[:-1], nums[-1]))
        elif key in ("center", "low", "high"):
            fields[key] = _parse_floats(value, key)
        elif key in ("radius", "holder_a", "holder_s"):
            nums = _parse_floats(value, key)
            if len(nums) != 1:
                raise SetDefinitionError(f"{key} takes a single number")
            fields[key] = nums[0]
        else:
            raise SetDefinitionError(f"unknown key {key!r}")

    holder = None
    if "holder_a" in fields or "holder_s" in fields:
        if not ("holder_a" in fields and "holder_s" in fields):
            raise SetDefinitionError("holder_A and holder_s must be given together")
        holder = (fields["holder_a"], fields["holder_s"])

    try:
        if shape in ("ball", "sphere"):
            if "center" not in fields or "radius" not in fields:
                raise SetDefinitionError(f"{shape} needs center and radius")
            make = ball if shape == "ball" else sphere_surface
            return make(fields["center"], fields["radius"], holder=holder or (1.0, 1.0))
        if shape == "box":
            if "low" not in fields or "high" not in fields:
                raise SetDefinitionError("box needs low and high corners")
            return box(fields["low"], fields["high"], holder=holder or (1.0, 1.0))
        if shape == "union":
            if not union_balls:
                raise SetDefinitionError("union needs at least one ball line")
            return union_of_balls(union_balls, holder=holder)
    except ValueError as exc:
        raise SetDefinitionError(str(exc)) from exc
    raise SetDefinitionError(f"unknown or missing shape {shape!r}")


def load_set_definition(path) -> CompactSetModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SetDefinitionError(f"cannot read set definition {path}: {exc}") from exc
    return parse_set_definition(text)
