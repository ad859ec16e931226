"""Point configurations and their counting measures: the CSV round-trip,
the normalized pair energy and the discrete potential."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import CoincidentPointsError
from .kernel import KernelSpec, pair_terms, potential_sums


@dataclass(frozen=True, eq=False)
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


def discrete_energy(X: PointConfig, spec: KernelSpec) -> float:
    """Normalized pair energy 2/(n(n-1)) * sum over j<k of k(x_j - x_k)."""
    if X.n < 2:
        raise ValueError("discrete energy needs n >= 2")
    s = float(np.add.reduce(pair_terms(spec, X.points)))
    return 2.0 * s / (X.n * (X.n - 1))


def discrete_potential(X: PointConfig, spec: KernelSpec, y):
    """Potential of the counting measure: (1/n) sum over k of k(y - x_k).

    ``y`` may be one point (dim,) or a batch (m, dim). Raises if any
    evaluation point coincides with a configuration point.
    """
    if X.dim != spec.dim:
        raise ValueError(f"config dimension {X.dim} != kernel dimension {spec.dim}")
    yv = np.asarray(y, dtype=float)
    if yv.ndim not in (1, 2) or yv.shape[-1] != X.dim:
        raise ValueError(f"probe shape {yv.shape} does not match config dimension {X.dim}")
    scalar = yv.ndim == 1
    u = potential_sums(spec, yv[None, :] if scalar else yv, X.points)
    if np.any(u == np.inf):
        raise CoincidentPointsError("potential evaluated at a configuration point")
    u /= X.n
    return float(u[0]) if scalar else u
