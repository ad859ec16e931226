"""Compact sets in R^d: shapes, distance and projection queries,
samplers and the plain-text set grammar.

Shipped shapes: solid ball, sphere surface, axis-aligned box, finite
union of balls. Their equilibrium data (Robin constant, potential, Green
function) live with the bound machinery, in ``discrepancy``.

This is the one module that reads a shape's fields. A ball, a sphere and
a union share one list of (center, radius) pairs (``_balls``). The other
layers ask it for the active face of a descent step (``_active_face``),
the surface a potential's minimum is searched on (``_min_surface``), the
probes of the Green function's maximum near E (``_widened_grid``: a grid
of each widened ball's sphere, or the widened box's corners) and the
support cache's key (``_shape_key``).

Candidate grids on balls, boxes, unions and spheres outside d = 3 come
from one seeded Kronecker lattice, shifted at random (``_lattice``); the
2-sphere in R^3 keeps a rotated Fibonacci lattice.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from statistics import NormalDist
from typing import Optional

import numpy as np

from .errors import SetDefinitionError
from .seeding import child_seed, substream

# Numeric membership threshold: projected points land on boundaries up to
# floating error, so the indicator "x in E" needs a tolerance.
MEMBERSHIP_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class CompactSetModel:
    """A compact set E: its shape's parameters and an optional Holder
    exponent. The geometric queries are this module's functions.

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
    def enclosing_center(self) -> np.ndarray:
        if self.kind == "box":
            return 0.5 * (self.low + self.high)
        if self.kind == "union":
            return np.mean([c for c, _ in self.balls], axis=0)
        # the mean of one center, without the reduction
        return self.center.copy()

    @property
    def enclosing_radius(self) -> float:
        if self.kind == "box":
            return float(np.linalg.norm(self.high - self.low)) / 2.0
        if self.kind == "union":
            m = self.enclosing_center
            return max(float(np.linalg.norm(c - m)) + r for c, r in self.balls)
        return self.radius


def _balls(E: CompactSetModel) -> tuple:
    """The ``(center, radius)`` pairs of a ball, sphere or union: one
    pair for a ball or sphere."""
    return E.balls or ((E.center, E.radius),)


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


def _shape_key(E: CompactSetModel) -> tuple:
    """E's shape as a hashable key: every field but ``holder_s``, with
    arrays by their bytes, so two sets share a key when they are the same
    shape with the same parameters."""
    def exact(v):
        if isinstance(v, np.ndarray):
            return v.tobytes()
        return tuple(map(exact, v)) if isinstance(v, tuple) else v
    return tuple(exact(getattr(E, f.name)) for f in fields(E) if f.name != "holder_s")


# ---------------------------------------------------------------------------
# distance and projection
# ---------------------------------------------------------------------------

def distance_to_set(E: CompactSetModel, x):
    """Euclidean distance d_E(x) = min over t in E of |x - t|.

    Exact for all shipped shapes; vectorized over leading axes.
    """
    p = _vec(x, E.dim)
    if E.kind == "sphere":
        out = np.abs(np.linalg.norm(p - E.center, axis=-1) - E.radius)
    elif E.kind == "box":
        out = np.linalg.norm(p - np.clip(p, E.low, E.high), axis=-1)
    else:
        out = np.minimum.reduce([np.maximum(np.linalg.norm(p - c, axis=-1) - r, 0.0) for c, r in _balls(E)])
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
    balls = _balls(E)
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
    if E.kind == "sphere":
        out = _project_to_sphere_shell(q, E.center, E.radius)
    elif E.kind == "box":
        out = np.clip(q, E.low, E.high)
    elif E.kind == "ball":
        out = _project_to_ball(q, E.center, E.radius)
    else:
        centers, radii, j = _nearest_ball(E, q)
        out = _project_to_ball(q, centers[j], radii[j, None])
    return out[0] if scalar else out


# a ball point within this fraction of the radius of its sphere is on it
_ON_SPHERE = 1e-12


def _rowdot(A, B):
    return np.einsum("ij,ij->i", A, B)


def _active_face(E: CompactSetModel, X, F):
    """The face of the n-fold product of E that a step from X stays on.

    Returns ``(held, normals, radius)``. On a box ``held`` is an (n, dim)
    mask of the coordinates on a face whose force points out of it, and
    ``normals`` and ``radius`` are None. Otherwise ``held`` is an (n,)
    mask of the points held to their ball's sphere: every point of a
    sphere, and boundary points of a ball or union whose force points out
    of their ball; ``normals`` holds their unit outward normals (zero rows
    for the rest) and ``radius`` the sphere's radius, per point on a
    union. Two faces at the same X are equal when their ``held`` are."""
    if E.kind == "box":
        held = ((X <= E.low) & (F < 0.0)) | ((X >= E.high) & (F > 0.0))
        return held, None, None
    if E.kind == "union":
        centers, radii, j = _nearest_ball(E, X)
        center, radius = centers[j], radii[j]
    else:
        center, radius = E.center, E.radius
    V = X - center
    rho = _norms(V)[:, None]
    U = V / rho if rho.all() else np.divide(V, rho, out=np.zeros_like(V), where=rho > 0)
    if E.kind == "sphere":
        held = np.ones(len(X), dtype=bool)
    else:
        held = (rho[:, 0] >= (1.0 - _ON_SPHERE) * radius) & (_rowdot(F, U) > 0.0)
    N = U if held.all() else np.where(held[:, None], U, 0.0)
    return held, N, radius


def _restrict(V, held, normals):
    """The component of an (n, dim) array V along the face (held, normals)
    of ``_active_face``: held box coordinates are zeroed, and the rows of
    held sphere points keep only their part tangent to the sphere."""
    if normals is None:
        return np.where(held, 0.0, V)
    return V - normals * _rowdot(V, normals)[:, None]


def _min_surface(E: CompactSetModel) -> CompactSetModel:
    """Where a potential's minimum over E lies: a ball's boundary sphere, E otherwise."""
    return sphere_surface(E.center, E.radius) if E.kind == "ball" else E


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

    Spheres, balls and unions share one path: a union's ball chosen in
    proportion to its volume, one direction draw and one radius draw
    (choice, normal, random). A union's draw from ball i that lies in a
    ball j < i is drawn again the same way, so an overlap is not drawn
    twice as often; a disjoint union draws nothing more."""
    d = E.dim
    if E.kind == "box":
        return E.low + rng.random((count, d)) * (E.high - E.low)
    balls = _balls(E)
    centers, radii = np.array([c for c, _ in balls]), np.array([r for _, r in balls])
    vols = np.array([r ** d for _, r in balls])
    out, todo = np.empty((count, d)), np.arange(count)
    while todo.size:
        k = todo.size
        idx = rng.choice(len(balls), size=k, p=vols / vols.sum()) if E.kind == "union" else np.zeros(k, dtype=int)
        v = random_directions(rng, k, d)
        scale = radii[idx, None] if E.kind == "sphere" else radii[idx, None] * rng.random((k, 1)) ** (1.0 / d)
        out[todo] = centers[idx] + scale * v
        inside = np.linalg.norm(out[todo, None, :] - centers, axis=2) < radii
        todo = todo[(inside & (np.arange(len(balls)) < idx[:, None])).any(axis=1)]
    return out


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


def _widened_grid(E: CompactSetModel, offset: float, count: int) -> np.ndarray:
    """Probes of the boundary of a compact set that holds
    {x : d_E(x) <= offset}: the ``count``-point candidate grid (seed 0) of
    each ball's sphere widened by ``offset`` (ball, sphere, union), or the
    2^dim corners of the box widened by ``offset``, where the Green
    function of a convex E peaks on that boundary."""
    if E.kind != "box":
        return np.concatenate([sample_candidates(sphere_surface(c, r + offset), count, 0) for c, r in _balls(E)])
    corners = (np.arange(2 ** E.dim)[:, None] >> np.arange(E.dim)) & 1
    return (E.low - offset) + corners * (E.high - E.low + 2.0 * offset)


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
