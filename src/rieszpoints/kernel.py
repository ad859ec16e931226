"""Riesz kernel family k(x) = |x|**(alpha - dim): the one library
implementation of every kernel quantity the toolkit reports.

Besides the pointwise ``kernel_value`` and ``kernel_gradient``, three
array primitives carry all the pair and probe work:

- ``pair_terms``: the kernel over every pair j < k (energies);
- ``pair_energy_forces``: the pair sum and minus its gradient together
  (the Fekete optimizer), every n-by-n intermediate in a workspace the
  caller owns;
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


def pair_energy_forces(spec: KernelSpec, points: np.ndarray, work: np.ndarray):
    """Pair sum and forces of an (n, dim) array from one pass over the pairs.

    Returns ``(energy, forces)``: the kernel summed over every pair j < k,
    and minus its gradient with respect to each point, shape (n, dim).
    An exact coincidence gives energy +inf (the forces are then
    meaningless). ``work`` is a caller-owned float64 array of shape
    (dim + 2, n, n) that receives every n-by-n intermediate, so a warm
    call allocates nothing of size n**2; it must not be shared between
    concurrent calls. The energy sums the full symmetric matrix, so it can
    differ from ``pair_terms(...).sum()`` in the last bits.
    """
    n, dim = points.shape
    if dim != spec.dim:
        raise ValueError(f"config dimension {dim} != kernel dimension {spec.dim}")
    if work.shape != (dim + 2, n, n):
        raise ValueError(f"workspace has shape {work.shape}, expected {(dim + 2, n, n)}")
    diff, r2, t = work[:dim], work[dim], work[dim + 1]
    coords = points.T
    for k in range(dim):
        np.subtract(coords[k][:, None], coords[k][None, :], out=diff[k])
    np.multiply(diff[0], diff[0], out=r2)
    for k in range(1, dim):
        np.multiply(diff[k], diff[k], out=t)
        r2 += t
    # an infinite self-distance gives the diagonal zero energy and weight
    np.fill_diagonal(r2, np.inf)
    expo = spec.exponent
    with np.errstate(divide="ignore", invalid="ignore"):
        # t gets the kernel terms r**expo; r2 is overwritten with the force
        # weights r**(expo - 2)
        if expo == -1.0:
            # alpha = 2 in three dimensions: 1/r cubed, no pow
            np.sqrt(r2, out=t)
            np.divide(1.0, t, out=t)
            np.multiply(t, t, out=r2)
            r2 *= t
        else:
            np.power(r2, expo / 2.0, out=t)
            np.divide(t, r2, out=r2)
        energy = 0.5 * float(np.add.reduce(t, axis=None))
        forces = np.empty((dim, n))
        for k in range(dim):
            diff[k] *= r2
            np.add.reduce(diff[k], axis=1, out=forces[k])
    forces *= -expo
    return energy, forces.T


def potential_sums(spec: KernelSpec, probes: np.ndarray, points: np.ndarray, cap: float = 0.0) -> np.ndarray:
    """For each probe (m, dim), the sum over points (n, dim) of
    max(r, cap)**(alpha - dim), r the probe-point distance.

    A probe sitting exactly on a point gets +inf unless cap > 0.
    """
    r = cdist(probes, points)
    np.maximum(r, cap, out=r)
    with np.errstate(divide="ignore"):
        return np.add.reduce(r ** spec.exponent, axis=1)
