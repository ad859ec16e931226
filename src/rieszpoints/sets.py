"""Compact sets in R^d: shapes, distance and projection queries,
samplers and the plain-text set grammar.

Shipped shapes (``kind``): "ball", one solid ball or a finite union of
them; "sphere", a sphere surface; "box", an axis-aligned box. Their
equilibrium data live with the bound machinery, in ``discrepancy``.

This is the one module that reads a shape's fields. A ball or sphere set
keeps one or more (center, radius) pairs (``balls``), the union of the
solid balls or of their spheres; every query branches on solid, shell or
box. Other layers ask it for a descent step's active face
(``_active_face``), the surface a potential's minimum is searched on
(``_min_surface``), a one-ball set's pair (``_one_ball``) and the probes
of the Green function's maximum near E (``_widened_grid``).

Candidate grids on balls, boxes and spheres outside d = 3 come from one
seeded Kronecker lattice, shifted at random (``_lattice``); the 2-sphere
in R^3 keeps a rotated Fibonacci lattice.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
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
    exponent. A box keeps its corners ``low`` and ``high``; a ball or
    sphere set keeps ``balls``, a tuple of one or more (center, radius)
    pairs, and is the union of the solid balls or of their spheres. The
    geometric queries are this module's functions.

    ``holder_s`` is the user-declared exponent s, 0 < s <= 1, of a bound
    g_E(x) <= A * d_E(x)**s on the Green function; the constant A never
    enters a result, and the toolkit never estimates s. Balls, unions of
    balls and spheres default to s = 1, which holds: for one ball,
    g_E(x) <= (d-2) d_E(x) / R**(d-1), as rho**(2-d) has slope at most
    (d-2) R**(1-d) beyond R. For a ball B_j in a union E, cap(E) >=
    cap(B_j), so W(E) <= W(B_j); then g_{B_j} - g_E is harmonic off E, is
    >= 0 on the boundary of E and has a limit W(B_j) - W(E) >= 0 at
    infinity, so g_E <= g_{B_j}. With B_j the ball nearest x this gives
    g_E(x) <= (d-2) d_E(x) / r_min**(d-1). Boxes declare none by default:
    outside a box the Green function grows like d_E**(2/3) at an edge and
    like about d_E**0.45 at a vertex.
    """

    dim: int
    kind: str  # "ball" (solid balls) | "sphere" (their spheres) | "box"
    low: Optional[np.ndarray] = None
    high: Optional[np.ndarray] = None
    balls: Optional[tuple] = None  # tuple of (center ndarray, radius)
    holder_s: Optional[float] = None

    def __post_init__(self):
        if self.holder_s is not None and not 0 < self.holder_s <= 1:  # NaN fails too
            raise ValueError(f"holder_s needs a finite 0 < s <= 1, got {self.holder_s!r}")

    # computed once per set: the greedy polish reads the radius on every point
    @cached_property
    def enclosing_center(self) -> np.ndarray:
        m = 0.5 * (self.low + self.high) if self.kind == "box" else np.mean([c for c, _ in self.balls], axis=0)
        m.setflags(write=False)
        return m

    @cached_property
    def enclosing_radius(self) -> float:
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
    return union_of_balls([(center, radius)], holder_s=holder_s)


def sphere_surface(center, radius: float, holder_s=1.0) -> CompactSetModel:
    c = _frozen_finite(center, "center")
    return CompactSetModel(dim=c.size, kind="sphere", balls=((c, _radius(radius)),), holder_s=holder_s)


def box(low, high, holder_s=None) -> CompactSetModel:
    lo = _frozen_finite(low, "low")
    hi = _frozen_finite(high, "high")
    if lo.shape != hi.shape or lo.ndim != 1:
        raise ValueError("low/high must be 1-d vectors of equal length")
    if not np.all(hi > lo):
        raise ValueError("box needs high > low componentwise")
    return CompactSetModel(dim=lo.size, kind="box", low=lo, high=hi, holder_s=holder_s)


def union_of_balls(balls_list, holder_s=1.0) -> CompactSetModel:
    packed = tuple((_frozen_finite(c, "ball center"), _radius(r, "ball radius")) for c, r in balls_list)
    if not packed:
        raise ValueError("union needs at least one ball")
    if len({c.size for c, _ in packed}) > 1:
        raise ValueError("all union balls must share a dimension")
    return CompactSetModel(dim=packed[0][0].size, kind="ball", balls=packed, holder_s=holder_s)


# ---------------------------------------------------------------------------
# distance and projection
# ---------------------------------------------------------------------------

def distance_to_set(E: CompactSetModel, x):
    """Euclidean distance d_E(x) = min over t in E of |x - t|.

    Exact for all shipped shapes; vectorized over leading axes.
    """
    p = _vec(x, E.dim)
    if E.kind == "box":
        out = np.linalg.norm(p - np.clip(p, E.low, E.high), axis=-1)
    else:
        gap = np.abs if E.kind == "sphere" else lambda g: np.maximum(g, 0.0)
        out = np.minimum.reduce([gap(np.linalg.norm(p - c, axis=-1) - r) for c, r in E.balls])
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


def _nearest_ball(E: CompactSetModel, q):
    """The center and radius of each row's nearest ball of E (least gap
    |x - c| - r, in magnitude on a shell, lowest index on ties), as an
    (n, dim) array and an (n, 1) column; a one-ball set gives its own pair."""
    if len(E.balls) == 1:
        return E.balls[0]
    centers = np.array([c for c, _ in E.balls])
    radii = np.array([r for _, r in E.balls])
    gaps = np.linalg.norm(q[:, None, :] - centers, axis=2) - radii
    j = np.argmin(np.abs(gaps) if E.kind == "sphere" else gaps, axis=1)
    return centers[j], radii[j, None]


def project_to_set(E: CompactSetModel, x):
    """Nearest point of E; deterministic tie-breaks (sphere center -> +e1,
    equidistant balls -> lowest index). A point of a solid ball stays;
    any other goes radially to its nearest ball's sphere."""
    p = _vec(x, E.dim)
    scalar = p.ndim == 1
    q = p[None, :] if scalar else p
    if E.kind == "box":
        out = np.clip(q, E.low, E.high)
    else:
        center, radius = _nearest_ball(E, q)
        v = q - center
        rho = _norms(v)[:, None]
        if E.kind == "sphere":
            out = _shell_point(v, rho, center, radius)
        else:
            inside = rho <= radius
            out = q.copy() if inside.all() else np.where(inside, q, _shell_point(v, rho, center, radius))
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
    shell, and boundary points of a solid set whose force points out of
    their ball; ``normals`` holds their unit outward normals (zero rows
    for the rest) and ``radius`` their ball's radius (``_nearest_ball``:
    one float for a one-ball set, an (n, 1) column otherwise). Two faces
    at the same X are equal when their ``held`` are."""
    if E.kind == "box":
        held = ((X <= E.low) & (F < 0.0)) | ((X >= E.high) & (F > 0.0))
        return held, None, None
    center, radius = _nearest_ball(E, X)
    V = X - center
    rho = _norms(V)[:, None]
    U = V / rho if rho.all() else np.divide(V, rho, out=np.zeros_like(V), where=rho > 0)
    if E.kind == "sphere":
        held = np.ones(len(X), dtype=bool)
    else:
        held = (rho >= (1.0 - _ON_SPHERE) * radius)[:, 0] & (_rowdot(F, U) > 0.0)
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
    """Where a potential's minimum over E lies: a solid set's spheres, E otherwise."""
    return replace(E, kind="sphere") if E.kind == "ball" else E


def _one_ball(E: CompactSetModel):
    """The (center, radius) pair of a ball or sphere set of one ball, else None."""
    return E.balls[0] if E.kind != "box" and len(E.balls) == 1 else None


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
    (volume measure for solids, surface measure for shells).

    Balls and spheres share one path: with two or more balls a ball chosen
    in proportion to its volume (area on a shell), one direction draw and
    a solid's radius draw (choice, normal, random). A solid's draw from
    ball i that lies in a ball j < i is drawn again the same way, so an
    overlap is not drawn twice as often; a disjoint union draws no more."""
    d = E.dim
    if E.kind == "box":
        return E.low + rng.random((count, d)) * (E.high - E.low)
    balls, solid = E.balls, E.kind == "ball"
    centers, radii = np.array([c for c, _ in balls]), np.array([r for _, r in balls])
    sizes = np.array([r ** (d - 1 + solid) for _, r in balls])
    out, todo = np.empty((count, d)), np.arange(count)
    while todo.size:
        k = todo.size
        idx = rng.choice(len(balls), size=k, p=sizes / sizes.sum()) if len(balls) > 1 else np.zeros(k, dtype=int)
        v = random_directions(rng, k, d)
        scale = radii[idx, None] * rng.random((k, 1)) ** (1.0 / d) if solid else radii[idx, None]
        out[todo] = centers[idx] + scale * v
        inside = np.linalg.norm(out[todo, None, :] - centers, axis=2) < radii
        todo = todo[(inside & (np.arange(len(balls)) < idx[:, None])).any(axis=1) & solid]
    return out


def sample_candidates(E: CompactSetModel, count: int, seed: int) -> np.ndarray:
    """Deterministic quasi-uniform candidate points covering E.

    Used as argmin grids for the greedy sequence and as probe grids; the
    mesh norm shrinks toward zero as count grows for every shipped shape.
    A box, one ball or sphere, or a disjoint union gets exactly ``count``
    points. Several balls share them by volume (area on a shell), one each
    at least, so ``count`` must reach their number. A solid drops each
    ball's points in an earlier ball, as ``sample_uniform`` redraws them,
    and a shell each sphere's points strictly inside another ball, so its
    grid is the boundary of the union; an overlap so returns fewer points.
    """
    least = len(E.balls) if E.balls else 1
    if count < least:
        raise ValueError(f"count must be >= {least}")
    d = E.dim
    if E.kind == "box":
        u = _lattice(child_seed(seed, "candidates"), d, count)
        return E.low + u * (E.high - E.low)
    shell = E.kind == "sphere"
    sizes = np.array([r ** (d - shell) for _, r in E.balls])
    alloc = np.maximum((count * sizes / sizes.sum()).astype(int), 1)
    while alloc.sum() > count:
        alloc[np.argmax(alloc)] -= 1
    while alloc.sum() < count:
        alloc[np.argmax(sizes)] += 1
    parts = []
    for i, ((c, r), k) in enumerate(zip(E.balls, alloc)):
        names = ("candidates",) if len(E.balls) == 1 else ("candidates", i)
        if shell and d == 3:
            rot = random_rotation(substream(seed, *names, "rotation"), 3)
            pts = c + r * (fibonacci_sphere(k) @ rot.T)
        else:
            pts = _lattice_ball(c, r, d, k, child_seed(seed, *names), solid=not shell)
        for c0, r0 in E.balls[:i] + (E.balls[i + 1:] if shell else ()):
            pts = pts[np.linalg.norm(pts - c0, axis=1) >= r0]
        parts.append(pts)
    return np.concatenate(parts) if len(parts) > 1 else parts[0]


def _widened_grid(E: CompactSetModel, offset: float, count: int) -> np.ndarray:
    """Probes of the boundary of a compact set that holds
    {x : d_E(x) <= offset}: the ``count``-point candidate grid (seed 0) of
    each ball's sphere widened by ``offset`` (ball, sphere), or the
    2^dim corners of the box widened by ``offset``, where the Green
    function of a convex E peaks on that boundary."""
    if E.kind != "box":
        return np.concatenate([sample_candidates(sphere_surface(c, r + offset), count, 0) for c, r in E.balls])
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
