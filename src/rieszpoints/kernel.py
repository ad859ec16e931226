"""Riesz kernel family k(x) = |x|**(alpha - dim): the one library
implementation of every kernel quantity the toolkit reports.

Five array primitives carry all the pair and probe work:

- ``pair_terms``: the kernel over every pair j < k (energies);
- ``pair_energy_forces``: the pair sum and minus its gradient together
  (the Fekete optimizer), every n-by-n intermediate in a C-contiguous
  workspace the caller owns, r**2 and the forces einsum reductions;
- ``pair_hessian``: the pair sum's Hessian, read from the workspace that
  ``pair_energy_forces`` left (the Fekete solve's Newton tail);
- ``potential_sums``: per probe, the kernel summed over the points
  (potentials, the greedy objective);
- ``probe_potential_derivatives``: the potential at one probe, its
  gradient and its Hessian from one pass over the points (the greedy
  polish, a projected Newton method with the exact Hessian).

``pair_terms`` and ``potential_sums`` take their distances from
``_distances``, which subtracts, squares and adds the coordinate planes
in coordinate order and then takes the square root: bitwise what
scipy's ``cdist`` and ``pdist`` return. Both run over row blocks sized
by entries, about ``_ENTRIES`` distances each, so beyond its output a
call holds memory bounded by that budget, not by n**2 or m * n, and
each row sums in the same order as an unblocked evaluation; a
4096-probe column against one point is a single block.

Callers choose their own summation of ``pair_terms``. The einsum sums
of ``pair_energy_forces`` repeat bitwise on one machine, not across
CPUs. ``oracles.py`` deliberately does not use this module's array
primitives: its reference paths are the independent second opinion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CoincidentPointsError, UnsupportedOracleError

# distances per row block of pair_terms and potential_sums
_ENTRIES = 1 << 17


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


def require_newtonian(spec: KernelSpec, what: str) -> None:
    """Raise UnsupportedOracleError unless the kernel is Newtonian (alpha = 2)."""
    if spec.alpha != 2.0:
        raise UnsupportedOracleError(f"{what} requires the Newtonian kernel (alpha = 2), got alpha={spec.alpha}")


def _distances(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[i, j] = |a[i] - b[j]| for (m, dim) and (n, dim) arrays into an
    (m, n) ``out``: per coordinate the planes are subtracted, squared and
    added in coordinate order, then the square root is taken. Uses one
    scratch array the size of ``out``."""
    t = np.empty_like(out)
    np.subtract(a[:, 0, None], b[None, :, 0], out=out)
    np.multiply(out, out, out=out)
    for k in range(1, a.shape[1]):
        np.subtract(a[:, k, None], b[None, :, k], out=t)
        np.multiply(t, t, out=t)
        out += t
    return np.sqrt(out, out=out)


def pair_terms(spec: KernelSpec, points: np.ndarray) -> np.ndarray:
    """Kernel over every pair j < k of an (n, dim) array, in pdist order.

    Rows j are taken in blocks against the points after the block's first
    row, and each block keeps its pairs j < k; no n-by-n array is built.
    Raises CoincidentPointsError when two points coincide exactly.
    """
    if points.shape[-1] != spec.dim:
        raise ValueError(f"config dimension {points.shape[-1]} != kernel dimension {spec.dim}")
    n = len(points)
    d = np.empty(n * (n - 1) // 2)
    rows = max(1, _ENTRIES // max(n, 1))
    pos = 0
    for i in range(0, n - 1, rows):
        a = points[i:min(i + rows, n - 1)]
        block = _distances(a, points[i + 1:], np.empty((len(a), n - 1 - i)))
        above = block[np.arange(n - 1 - i) >= np.arange(len(a))[:, None]]
        d[pos:pos + len(above)] = above
        pos += len(above)
    if np.any(d == 0.0):
        raise CoincidentPointsError("configuration contains coincident points")
    return _kernel_of_distance(d, spec.exponent, d)


def pair_energy_forces(spec: KernelSpec, points: np.ndarray, work: np.ndarray):
    """Pair sum and forces of an (n, dim) array from one pass over the pairs.

    Returns ``(energy, forces)``: the kernel summed over every pair j < k,
    and minus its gradient with respect to each point, shape (n, dim).
    An exact coincidence gives energy +inf (the forces are then
    meaningless). ``work`` is a caller-owned C-contiguous float64 array of
    shape (dim + 2, n, n), not shared between concurrent calls; a warm
    call allocates nothing of size n**2. It is left holding the coordinate
    differences x_i - x_j (``work[:dim]``), the force weights r**(e - 2)
    and the kernel terms r**e (e = alpha - dim, both 0 on the diagonal).
    r**2 and the forces are einsum reductions, whose summation loop
    follows the memory layout: the bits repeat on one machine, not across
    CPUs. The energy sums the full symmetric matrix, so it can differ from
    ``pair_terms(...).sum()`` in the last bits.
    """
    n, dim = points.shape
    if dim != spec.dim:
        raise ValueError(f"config dimension {dim} != kernel dimension {spec.dim}")
    if work.shape != (dim + 2, n, n) or work.dtype != np.float64 or not work.flags.c_contiguous:
        raise ValueError(f"workspace must be C-contiguous float64 of shape {(dim + 2, n, n)}, got {work.dtype} "
                         f"{work.shape} with strides {work.strides}")
    diff, r2, t = work[:dim], work[dim], work[dim + 1]
    coords = np.ascontiguousarray(points.T)
    diff[...] = coords[:, :, None]
    np.subtract(diff, coords[:, None, :], out=diff)
    np.einsum("kij,kij->ij", diff, diff, out=r2)
    # an infinite self-distance gives the diagonal zero energy and weight
    r2.flat[::n + 1] = np.inf
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
        forces = np.einsum("kij,ij->ik", diff, r2)
    forces *= -expo
    return energy, forces


def pair_hessian(spec: KernelSpec, work: np.ndarray) -> np.ndarray:
    """Hessian of the pair sum at the points of the last
    ``pair_energy_forces(spec, points, work)`` call, as an (n * dim,
    n * dim) array in the row-major order of ``points``.

    With e = alpha - dim and delta = x_i - x_j, the block (i, j != i) is
    -(e * r**(e - 2) * I + e * (e - 2) * r**(e - 4) * delta delta^T) and
    the block (i, i) is minus the sum of the others in its row, so every
    block row sums to zero up to rounding (translations are a null
    space). r**(e - 4) is read off the workspace as r**(e - 2) squared
    over r**e. The result is made exactly symmetric; ``work`` is not
    changed, and a workspace of coincident points gives a meaningless
    Hessian.
    """
    dim = work.shape[0] - 2
    n = work.shape[1]
    diff, w, t = work[:dim], work[dim], work[dim + 1]
    expo = spec.exponent
    with np.errstate(divide="ignore", invalid="ignore"):
        v = w * w / t
    # the diagonal's 0 / 0
    v.flat[::n + 1] = 0.0
    v *= expo * (expo - 2.0)
    # blocks[i, :, j, :] is the pair (i, j)'s own second derivative
    blocks = np.einsum("aij,bij->iajb", diff * v, diff)
    ew = expo * w
    for a in range(dim):
        blocks[:, a, :, a] += ew
    rows = np.arange(n)
    row_sums = blocks.sum(axis=2)
    np.negative(blocks, out=blocks)
    blocks[rows, :, rows, :] = row_sums
    H = blocks.reshape(n * dim, n * dim)
    H = H + H.T
    H *= 0.5
    return H


def _kernel_of_distance(r, expo, out):
    """out = r**expo; for expo = -1 the division, which equals the power bitwise."""
    if expo == -1.0:
        return np.divide(1.0, r, out=out)
    return np.power(r, expo, out=out)


def potential_sums(spec: KernelSpec, probes: np.ndarray, points: np.ndarray) -> np.ndarray:
    """For each probe (m, dim), the sum over points (n, dim) of
    r**(alpha - dim), r the probe-point distance.

    A probe sitting exactly on a point gets +inf; with no points every
    sum is 0.
    """
    m = len(probes)
    out = np.empty(m)
    rows = max(1, _ENTRIES // max(len(points), 1))
    buf = np.empty((min(m, rows), len(points)))
    with np.errstate(divide="ignore"):
        for i in range(0, m, rows):
            r = _distances(probes[i:i + rows], points, buf[:min(rows, m - i)])
            _kernel_of_distance(r, spec.exponent, r)
            np.add.reduce(r, axis=1, out=out[i:i + len(r)])
    return out


def probe_potential_derivatives(spec: KernelSpec, x: np.ndarray, points: np.ndarray):
    """Potential at one probe x (dim,) of the points (n, dim), with its
    gradient and Hessian in x, from one pass over the displacements.

    Returns ``(value, gradient, hessian)``: the value is bitwise
    ``potential_sums(spec, x[None], points)[0]``; with e = alpha - dim and
    delta = x - point, the gradient sums e * r**(e - 2) * delta and the
    Hessian sums e * r**(e - 2) * I + e * (e - 2) * r**(e - 4) * delta
    delta^T over the points, made exactly symmetric. A probe sitting on
    a point gives value +inf (the derivatives are then meaningless).
    """
    disp = x - points
    r2 = np.add.reduce(disp * disp, axis=1, keepdims=True)
    r = np.sqrt(r2)
    expo = spec.exponent
    with np.errstate(divide="ignore", invalid="ignore"):
        value = float(np.add.reduce(_kernel_of_distance(r[:, 0], expo, None)))
        w = expo * r ** (expo - 2.0)
        gradient = (w * disp).sum(axis=0)
        outer = (disp * ((expo - 2.0) * w / r2)).T @ disp
    hessian = outer + outer.T
    hessian *= 0.5
    hessian.flat[::len(x) + 1] += np.add.reduce(w[:, 0])
    return value, gradient, hessian
