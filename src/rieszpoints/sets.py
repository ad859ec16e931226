"""Compact sets in R^d: distance/projection queries, samplers, and
equilibrium oracles.

Shipped shapes: solid ball, sphere surface, axis-aligned box, finite
union of balls. Balls and spheres carry exact Newtonian equilibrium
oracles (Robin constant W, equilibrium potential U); boxes and unions
fall back to a quadrature-backed oracle built from a dense low-energy
configuration, clearly labeled approximate. Every oracle derives its
Green function max(W - U, 0) from its own W and U.

Candidate grids on balls, boxes, unions and spheres outside d = 3 come
from one seeded Kronecker lattice, shifted at random (``_lattice``); the
2-sphere in R^3 keeps a rotated Fibonacci lattice.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from statistics import NormalDist
from typing import Callable, Optional

import numpy as np

from .errors import SetDefinitionError
from .kernel import KernelSpec, require_newtonian
from .seeding import child_seed, substream

# Numeric membership threshold: projected points land on boundaries up to
# floating error, so the indicator "x in E" needs a tolerance.
MEMBERSHIP_TOL = 1e-9


@dataclass(frozen=True)
class CompactSetModel:
    """A compact set E with geometric queries and an optional Holder exponent.

    ``holder_s`` is the user-declared exponent s, 0 < s <= 1, of a bound
    g_E(x) <= A * d_E(x)**s on the Green function; the constant A never
    enters a result, and the toolkit never estimates s. Balls and spheres
    default to s = 1, which holds: g_E(x) <= (d-2) d_E(x) / R**(d-1) there.
    Boxes and unions declare none by default: outside a box the Green
    function grows like d_E**(2/3) at an edge and like about d_E**0.45 at
    a vertex.
    """

    dim: int
    kind: str  # "ball" | "sphere" | "box" | "union"
    center: Optional[np.ndarray] = None
    radius: Optional[float] = None
    low: Optional[np.ndarray] = None
    high: Optional[np.ndarray] = None
    balls: Optional[tuple] = None  # tuple of (center ndarray, radius)
    holder_s: Optional[float] = None

    def __post_init__(self):
        if self.holder_s is not None and not 0 < self.holder_s <= 1:  # NaN fails too
            raise ValueError(f"holder_s needs a finite 0 < s <= 1, got {self.holder_s!r}")

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
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
    return a


def _frozen_finite(x, name):
    """A read-only float copy of the caller's array, checked finite."""
    a = np.array(x, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
    a.setflags(write=False)
    return a


def _radius(r, name="radius"):
    if not 0 < r < np.inf:  # NaN fails too
        raise ValueError(f"{name} must be positive and finite")
    return float(r)


def ball(center, radius: float, holder_s=1.0) -> CompactSetModel:
    c = _frozen_finite(center, "center")
    return CompactSetModel(dim=c.size, kind="ball", center=c, radius=_radius(radius), holder_s=holder_s)


def sphere_surface(center, radius: float, holder_s=1.0) -> CompactSetModel:
    c = _frozen_finite(center, "center")
    return CompactSetModel(dim=c.size, kind="sphere", center=c, radius=_radius(radius), holder_s=holder_s)


def box(low, high, holder_s=None) -> CompactSetModel:
    lo = _frozen_finite(low, "low")
    hi = _frozen_finite(high, "high")
    if lo.shape != hi.shape or lo.ndim != 1:
        raise ValueError("low/high must be 1-d vectors of equal length")
    if not np.all(hi > lo):
        raise ValueError("box needs high > low componentwise")
    return CompactSetModel(dim=lo.size, kind="box", low=lo, high=hi, holder_s=holder_s)


def union_of_balls(balls_list, holder_s=None) -> CompactSetModel:
    if not balls_list:
        raise ValueError("union needs at least one ball")
    packed = []
    dim = None
    for c, r in balls_list:
        cv = _frozen_finite(c, "ball center")
        if dim is None:
            dim = cv.size
        elif cv.size != dim:
            raise ValueError("all union balls must share a dimension")
        packed.append((cv, _radius(r, "ball radius")))
    return CompactSetModel(dim=dim, kind="union", balls=tuple(packed), holder_s=holder_s)


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


def _norms(A):
    """Row norms of a 2-D array by ``np.linalg.norm(A, axis=1)``'s own formula."""
    return np.sqrt(np.add.reduce(A * A, axis=1))


def _shell_point(v, rho, center, radius):
    """center + radius * v / rho for rows v = p - center of norm rho
    (shape (k, 1)); a row at the center maps to center + radius * e1."""
    if rho.all():
        return center + radius * (v / rho)
    unit = np.divide(v, rho, out=np.zeros_like(v), where=rho > 0)
    # deterministic tie-break for the shell's center: fixed direction +e1
    deg = rho[:, 0] == 0
    if deg.any():
        unit[deg, 0] = 1.0
    return center + radius * unit


def _project_to_sphere_shell(p, center, radius):
    """Radial projection onto |x - center| = radius; center maps to +e1."""
    v = p - center
    return _shell_point(v, _norms(v)[:, None], center, radius)


def _project_to_ball(q, center, radius):
    """Nearest point of the solid ball: inside points stay, outside points
    go radially to the boundary."""
    v = q - center
    rho = _norms(v)[:, None]
    inside = rho <= radius
    if inside.all():
        return q.copy()
    return np.where(inside, q, _shell_point(v, rho, center, radius))


def _nearest_ball(E: CompactSetModel, q):
    """Centers and radii of E's balls (a ball or sphere is one), and each
    row's nearest: least signed gap |x - c| - r, lowest index on ties."""
    balls = E.balls or ((E.center, E.radius),)
    centers = np.array([c for c, _ in balls])
    radii = np.array([r for _, r in balls])
    gaps = np.linalg.norm(q[:, None, :] - centers, axis=2) - radii
    return centers, radii, np.argmin(gaps, axis=1)


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
        centers, radii, j = _nearest_ball(E, q)
        out = _project_to_ball(q, centers[j], radii[j, None])
    return out[0] if scalar else out


def points_at_offset(E: CompactSetModel, seeds_xyz, offset: float):
    """One point of the shell {x : d_E(x) = offset} per seed, exact up to
    rounding. A box moves a seed along z - clip(z), or out through its
    nearest face from inside. A ball, union or sphere moves it along the ray
    from its nearest ball's center (+e1 from the center) to the farthest exit
    from the balls dilated by offset; a seed inside a sphere of radius R >
    offset goes to radius R - offset instead."""
    z = _vec(seeds_xyz, E.dim).reshape(-1, E.dim)
    if E.kind == "box":
        p = np.clip(z, E.low, E.high)
        v = z - p
        nv = np.linalg.norm(v, axis=1, keepdims=True)
        out = p + offset * np.divide(v, nv, out=np.zeros_like(v), where=nv > 0)
        inside = np.flatnonzero(nv[:, 0] == 0)
        face = np.argmin(np.concatenate([z - E.low, E.high - z], axis=1)[inside], axis=1)
        axis = face % E.dim
        out[inside, axis] = np.where(face < E.dim, E.low[axis] - offset, E.high[axis] + offset)
        return out
    centers, radii, j = _nearest_ball(E, z)
    v = z - centers[j]
    rho = np.linalg.norm(v, axis=1, keepdims=True)
    u = _shell_point(v, rho, 0.0, 1.0)
    # the larger root t of |w + t u| = r_k + offset, w = c_j - c_k, taken
    # without squaring r_k + offset; a ray that misses dilated ball k has none
    w = centers[j][:, None, :] - centers
    b = np.sum(w * u[:, None, :], axis=2)
    reach = radii + offset
    miss = np.linalg.norm(w - b[..., None] * u[:, None, :], axis=2) / reach
    root = reach * np.sqrt(np.maximum((1.0 - miss) * (1.0 + miss), 0.0)) - b
    t = np.max(np.where(miss <= 1.0, root, -np.inf), axis=1, keepdims=True)
    if E.kind == "sphere":
        t = np.where((rho < E.radius) & (offset < E.radius), E.radius - offset, t)
    return centers[j] + t * u


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


def _lattice(seed: int, dim: int, count: int) -> np.ndarray:
    """The points frac(s + i a), i < count, of a Kronecker lattice in
    [0, 1)^dim with the Cranley-Patterson shift s = default_rng(seed).random(dim).
    a_j = g**-(j + 1) for the root g > 1 of g**(dim + 1) = g + 1 (Roberts'
    generalised golden ratio), by Newton's method down from 2 and with
    +, -, * and / alone, so no build's pow can move the grid."""
    g, after = 3.0, 2.0
    while after < g:
        g, gd = after, 1.0
        for _ in range(dim):
            gd *= g
        after = g - (gd * g - g - 1.0) / ((dim + 1) * gd - 1.0)
    a = np.cumprod(np.full(dim, 1.0 / g))
    s = np.random.default_rng(seed).random(dim)
    return (s + np.arange(count)[:, None] * a) % 1.0


def random_directions(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """``count`` i.i.d. uniform unit vectors in R^dim (normalized Gaussian rows)."""
    v = rng.normal(size=(count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _lattice_ball(center, radius, dim, count, seed, solid) -> np.ndarray:
    """Exactly ``count`` low-discrepancy points in the solid ball, or on its
    boundary sphere when ``solid`` is False. The direction is the Gaussian
    ppf of ``dim`` lattice coordinates, ``statistics.NormalDist().inv_cdf``
    (Wichura's AS 241) in one flat pass over the clipped coordinates; a
    solid ball takes its radius from one more coordinate raised to the
    power 1/dim."""
    u = _lattice(seed, dim + solid, count)
    clipped = np.clip(u[:, :dim], np.finfo(float).tiny, 1 - 1e-16)
    g = np.array(list(map(NormalDist().inv_cdf, clipped.ravel().tolist()))).reshape(count, dim)
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
    """Exactly ``count`` points on the shell {x : d_E(x) = offset}: uniform
    draws on E, each pushed ``offset`` along a random direction and moved
    onto the shell by points_at_offset."""
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
        return _lattice_ball(E.center, E.radius, d, count, child_seed(seed, "candidates"), solid=E.kind == "ball")
    if E.kind == "box":
        u = _lattice(child_seed(seed, "candidates"), d, count)
        return E.low + u * (E.high - E.low)
    # union: allocate by volume, at least one candidate per ball
    vols = np.array([r ** d for _, r in E.balls])
    alloc = np.maximum((count * vols / vols.sum()).astype(int), 1)
    while alloc.sum() > count:
        alloc[np.argmax(alloc)] -= 1
    while alloc.sum() < count:
        alloc[np.argmax(vols)] += 1
    parts = [
        _lattice_ball(c, r, d, k, child_seed(seed, "candidates", i), solid=True)
        for i, ((c, r), k) in enumerate(zip(E.balls, alloc))
        if k > 0
    ]
    return np.concatenate(parts)


# ---------------------------------------------------------------------------
# equilibrium oracles
# ---------------------------------------------------------------------------

def _monomials(points: np.ndarray) -> np.ndarray:
    """The monomials of degree 1 and 2 at each point: the d coordinates,
    then x_i x_j for i <= j in row-major order, one row per point."""
    d = points.shape[1]
    quad = [points[:, i] * points[:, j] for i in range(d) for j in range(i, d)]
    return np.column_stack([points] + quad)


@dataclass(frozen=True)
class EquilibriumOracle:
    """Equilibrium data for the set ``set_model`` under the kernel
    ``spec``, which fix mu_E: Robin constant W(E), the equilibrium
    potential U, the Green function (``green``, derived from W and U), an
    i.i.d. sampler of the equilibrium measure, and its exact ``moments``:
    the means of the monomials of degree 1 and 2, in the order of
    ``_monomials``. ``approximate`` marks quadrature-backed oracles whose
    values carry discretization error. Consumers read E and the kernel
    from here."""

    set_model: CompactSetModel
    spec: KernelSpec
    robin_constant: float
    potential: Callable[[np.ndarray], np.ndarray]
    sampler: Callable[[int, int], np.ndarray]  # (count, seed) -> points
    moments: np.ndarray
    approximate: bool = False
    # accepted and dropped, so that replacing every callable of an oracle (as
    # perfbench/spans.py does) keeps working; its default is the method below
    green: InitVar[Callable[[np.ndarray], np.ndarray]]

    def green(self, x):
        """The Green function g_E(x) = max(W(E) - U(x), 0), from this
        oracle's ``robin_constant`` and ``potential``; 0 within
        ``MEMBERSHIP_TOL`` of E, where g_E vanishes."""
        pts = _vec(x, self.set_model.dim)
        g = np.maximum(self.robin_constant - self.potential(pts), 0.0)
        g = np.where(distance_to_set(self.set_model, pts) <= MEMBERSHIP_TOL, 0.0, g)
        return float(g) if g.ndim == 0 else g


def _analytic_ball_oracle(E: CompactSetModel, spec: KernelSpec) -> EquilibriumOracle:
    d = spec.dim
    R = E.radius
    c = E.center

    def potential(x):
        rho = np.linalg.norm(_vec(x, d) - c, axis=-1)
        out = np.maximum(rho, R) ** (2.0 - d)
        return float(out) if out.ndim == 0 else out

    def sampler(count, seed):
        rng = substream(seed, "equilibrium-sampler")
        return c + R * random_directions(rng, count, d)

    # uniform measure on the sphere: E[x] = c, E[x x^T] = c c^T + (R^2/d) I
    second = np.outer(c, c) + (R * R / d) * np.eye(d)

    return EquilibriumOracle(
        set_model=E,
        spec=spec,
        robin_constant=R ** (2.0 - d),
        potential=potential,
        sampler=sampler,
        moments=np.concatenate([c, second[np.triu_indices(d)]]),
        approximate=False,
    )


def _quadrature_backed_oracle(E: CompactSetModel, spec: KernelSpec) -> EquilibriumOracle:
    # The equilibrium measure is approximated by a dense low-energy
    # configuration on E and its discrete potential; documented as
    # approximate, never used by the acceptance bounds.
    from .configurations import FeketeSearchParams, fekete_search_run
    from .measures import discrete_potential

    run = fekete_search_run(E, spec, FeketeSearchParams(n=400, restarts=1, tol=1e-10, seed=20406))
    support, W_hat = run.config, run.energy

    def potential(x):
        return discrete_potential(support, spec, x)

    def sampler(count, seed):
        rng = substream(seed, "equilibrium-sampler")
        idx = rng.integers(0, support.n, size=count)
        return support.points[idx]

    return EquilibriumOracle(
        set_model=E,
        spec=spec,
        robin_constant=W_hat,
        potential=potential,
        sampler=sampler,
        moments=_monomials(support.points).mean(axis=0),
        approximate=True,
    )


def equilibrium_oracle(E: CompactSetModel, spec: KernelSpec) -> EquilibriumOracle:
    """Equilibrium oracle for E under the given kernel.

    Balls and spheres get the exact Newtonian closed forms (classical:
    the equilibrium measure is the uniform surface measure, so
    W = R**(2-d) and U(x) = max(|x-c|, R)**(2-d)). Boxes and unions get
    the approximate quadrature-backed oracle. Either records E and the
    kernel as ``set_model`` and ``spec``. Non-Newtonian kernels have no
    fallback and raise.
    """
    if E.dim != spec.dim:
        raise ValueError(f"set dimension {E.dim} != kernel dimension {spec.dim}")
    require_newtonian(spec, "equilibrium oracle")
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
        elif key in ("radius", "holder_s"):
            nums = _parse_floats(value, key)
            if len(nums) != 1:
                raise SetDefinitionError(f"{key} takes a single number")
            fields[key] = nums[0]
        else:
            raise SetDefinitionError(f"unknown key {key!r}")

    # an undeclared exponent takes the constructor's default for the shape
    holder = {"holder_s": fields["holder_s"]} if "holder_s" in fields else {}

    try:
        if shape in ("ball", "sphere"):
            if "center" not in fields or "radius" not in fields:
                raise SetDefinitionError(f"{shape} needs center and radius")
            make = ball if shape == "ball" else sphere_surface
            return make(fields["center"], fields["radius"], **holder)
        if shape == "box":
            if "low" not in fields or "high" not in fields:
                raise SetDefinitionError("box needs low and high corners")
            return box(fields["low"], fields["high"], **holder)
        if shape == "union":
            if not union_balls:
                raise SetDefinitionError("union needs at least one ball line")
            return union_of_balls(union_balls, **holder)
    except ValueError as exc:
        raise SetDefinitionError(str(exc)) from exc
    raise SetDefinitionError(f"unknown or missing shape {shape!r}")
