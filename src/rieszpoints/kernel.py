"""Riesz kernel family k(x) = |x|**(alpha - dim): the one library
implementation of every kernel quantity the toolkit reports.

Besides the pointwise ``kernel_value`` and ``kernel_gradient``, three
array primitives carry all the pair and probe work:

- ``pair_terms``: the kernel over every pair j < k (energies);
- ``pair_forces``: minus the gradient of the pair sum (Fekete descent);
- ``potential_sums``: per probe, the kernel summed over the points,
  optionally with the distance capped from below (potentials, the greedy
  objective).

Callers choose their own summation of ``pair_terms``. ``oracles.py``
deliberately does not use this module's array primitives: its
reference paths are the independent second opinion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .errors import CoincidentPointsError, SingularityError


@dataclass(frozen=True)
class KernelSpec:
    """Riesz kernel parameters.

    ``alpha = 2`` is the Newtonian case required by the discrepancy
    machinery; generic energies are well defined for any 0 < alpha < dim.
    The planar logarithmic kernel (dim = 2) is a different object and is
    rejected at construction.
    """

    alpha: float
    dim: int

    def __post_init__(self):
        if int(self.dim) != self.dim or self.dim < 3:
            raise ValueError(f"dim must be an integer >= 3, got {self.dim!r}")
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "alpha", float(self.alpha))
        if not 0.0 < self.alpha < self.dim:
            raise ValueError(
                f"alpha must satisfy 0 < alpha < dim, got alpha={self.alpha}, dim={self.dim}"
            )

    @property
    def exponent(self) -> float:
        """The radial power alpha - dim (negative)."""
        return self.alpha - self.dim


def newtonian_flag(spec: KernelSpec) -> bool:
    """True iff the kernel is Newtonian (alpha = 2)."""
    return spec.alpha == 2.0


def require_newtonian(spec: KernelSpec, what: str) -> None:
    if not newtonian_flag(spec):
        raise ValueError(f"{what} requires the Newtonian kernel (alpha = 2), got alpha={spec.alpha}")


def kernel_value(spec: KernelSpec, displacement):
    """Evaluate |displacement|**(alpha - dim).

    Accepts one vector of shape (dim,) or a batch (..., dim). Any zero
    displacement raises SingularityError: energy sums must exclude
    self-pairs structurally rather than propagate infinities.
    """
    disp = np.asarray(displacement, dtype=float)
    if disp.shape[-1] != spec.dim:
        raise ValueError(f"displacement has dimension {disp.shape[-1]}, kernel has {spec.dim}")
    r = np.linalg.norm(disp, axis=-1)
    if np.any(r == 0.0):
        raise SingularityError("kernel evaluated at zero displacement")
    out = r ** spec.exponent
    return float(out) if out.ndim == 0 else out


def kernel_gradient(spec: KernelSpec, displacement):
    """Gradient of kernel_value with respect to the displacement.

    grad |x|**e = e * |x|**(e-2) * x with e = alpha - dim; antisymmetric
    under negation of the displacement.
    """
    disp = np.asarray(displacement, dtype=float)
    if disp.shape[-1] != spec.dim:
        raise ValueError(f"displacement has dimension {disp.shape[-1]}, kernel has {spec.dim}")
    r = np.linalg.norm(disp, axis=-1, keepdims=True)
    if np.any(r == 0.0):
        raise SingularityError("kernel gradient at zero displacement")
    return spec.exponent * r ** (spec.exponent - 2.0) * disp


def pair_terms(spec: KernelSpec, points: np.ndarray) -> np.ndarray:
    """Kernel over every pair j < k of an (n, dim) array, in pdist order.

    Raises CoincidentPointsError when two points coincide exactly.
    """
    if points.shape[-1] != spec.dim:
        raise ValueError(f"config dimension {points.shape[-1]} != kernel dimension {spec.dim}")
    d = pdist(points)
    if np.any(d == 0.0):
        raise CoincidentPointsError("configuration contains coincident points")
    return d ** spec.exponent


def pair_forces(spec: KernelSpec, points: np.ndarray) -> np.ndarray:
    """Minus the gradient of the pair sum with respect to each point:
    the mutual repulsion, shape (n, dim)."""
    expo = spec.exponent
    diff = points[:, None, :] - points[None, :, :]
    r2 = np.einsum("ijk,ijk->ij", diff, diff)
    np.fill_diagonal(r2, 1.0)
    w = r2 ** ((expo - 2.0) / 2.0)
    np.fill_diagonal(w, 0.0)
    return -expo * np.einsum("ij,ijk->ik", w, diff)


def potential_sums(spec: KernelSpec, probes: np.ndarray, points: np.ndarray, cap: float = 0.0) -> np.ndarray:
    """For each probe (m, dim), the sum over points (n, dim) of
    max(r, cap)**(alpha - dim), r the probe-point distance.

    A probe sitting exactly on a point gets +inf unless cap > 0.
    """
    r = cdist(probes, points)
    np.maximum(r, cap, out=r)
    with np.errstate(divide="ignore"):
        return np.add.reduce(r ** spec.exponent, axis=1)
