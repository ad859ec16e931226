"""Discrete counting measures: energies, potentials, the closeness
functional over the Green function, and moment distances to the
equilibrium measure."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import SingularityError
from .kernel import KernelSpec, pair_terms, potential_sums
from .sets import MEMBERSHIP_TOL, CompactSetModel, EquilibriumOracle, distance_to_set

# Fixed chunk size of the deterministic pairwise reduction. Partial sums
# are always taken over these exact slices and added in slice order.
_REDUCTION_CHUNK = 4096


@dataclass(frozen=True)
class PointConfig:
    """An ordered n-tuple of points in R^d with its counting measure.

    Order is significant (greedy prefixes) and preserved by the CSV
    round-trip. The underlying array is read-only.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("points must be a (n, dim) array with n >= 1")
        if not np.all(np.isfinite(pts)):
            raise ValueError("all points must be finite")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def prefix(self, m: int) -> "PointConfig":
        return PointConfig(self.points[:m])


def write_points_csv(config: PointConfig, path) -> None:
    """CSV with header x1..xd, one point per row, round-trip precision."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow([f"x{i+1}" for i in range(config.dim)])
        for row in config.points:
            w.writerow([repr(float(v)) for v in row])


def read_points_csv(path) -> PointConfig:
    with open(path, "r", newline="", encoding="utf-8") as fh:
        r = csv.reader(fh)
        header = next(r, None)
        if header is None:
            raise ValueError(f"point CSV {path} is empty")
        dim = len(header)
        expected = [f"x{i+1}" for i in range(dim)]
        if header != expected:
            raise ValueError(f"bad point CSV header {header!r}, expected {expected!r}")
        rows = [[float(v) for v in row] for row in r if row]
    return PointConfig(np.array(rows, dtype=float))


def _deterministic_sum(values: np.ndarray) -> float:
    """Chunked reduction: each chunk's sum, added in chunk order."""
    total = 0.0
    for a in range(0, len(values), _REDUCTION_CHUNK):
        total += float(np.add.reduce(values[a:a + _REDUCTION_CHUNK]))
    return total


def discrete_energy(X: PointConfig, spec: KernelSpec) -> float:
    """Normalized pair energy 2/(n(n-1)) * sum over j<k of k(x_j - x_k)."""
    if X.n < 2:
        raise ValueError("discrete energy needs n >= 2")
    s = _deterministic_sum(pair_terms(spec, X.points))
    return 2.0 * s / (X.n * (X.n - 1))


def discrete_potential(X: PointConfig, spec: KernelSpec, y):
    """Potential of the counting measure: (1/n) sum over k of k(y - x_k).

    ``y`` may be one point (dim,) or a batch (m, dim). Raises if any
    evaluation point coincides with a configuration point.
    """
    if X.dim != spec.dim:
        raise ValueError(f"config dimension {X.dim} != kernel dimension {spec.dim}")
    yv = np.asarray(y, dtype=float)
    scalar = yv.ndim == 1
    u = potential_sums(spec, yv[None, :] if scalar else yv, X.points)
    if np.any(u == np.inf):
        raise SingularityError("potential evaluated at a configuration point")
    u /= X.n
    return float(u[0]) if scalar else u


def closeness_m_E(X: PointConfig, E: CompactSetModel, oracle: EquilibriumOracle) -> float:
    """Average of the Green function over configuration points outside E.

    Exactly zero when every point lies in E (membership uses the
    distance threshold 1e-9 to absorb projection rounding).
    """
    dists = distance_to_set(E, X.points)
    outside = np.atleast_1d(dists) > MEMBERSHIP_TOL
    if not np.any(outside):
        return 0.0
    g = np.atleast_1d(oracle.green(X.points[outside]))
    return float(np.sum(g) / X.n)


def _monomial_means(points: np.ndarray, degree: int) -> np.ndarray:
    cols = [points]
    if degree == 2:
        d = points.shape[1]
        quad = [points[:, i] * points[:, j] for i in range(d) for j in range(i, d)]
        cols.append(np.column_stack(quad))
    feats = np.column_stack(cols)
    return feats.mean(axis=0)


def moment_distance(
    X: PointConfig,
    oracle: EquilibriumOracle,
    degree: int = 2,
    samples: int = 100_000,
    seed: int = 0,
) -> float:
    """Max deviation of coordinate-monomial means (total degree <= degree)
    between the counting measure and a Monte Carlo draw of the
    equilibrium measure. Quantifies weak-star closeness through a fixed
    finite test family."""
    if degree not in (1, 2):
        raise ValueError("degree must be 1 or 2")
    mc = oracle.sampler(samples, seed)
    mx = _monomial_means(X.points, degree)
    mm = _monomial_means(mc, degree)
    return float(np.max(np.abs(mx - mm)))
