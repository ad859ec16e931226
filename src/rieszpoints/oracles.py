"""Independent brute-force and quadrature references.

Everything here exists to anchor derived test values against a second
computation path that shares no code with the library's kernel: an
exact-rounded energy sum, the closed-form minimum energy of n <= dim + 1
points on a sphere, a spherical quadrature for equilibrium potentials, and
Monte Carlo Dirichlet integrals and equilibrium means that check the
closed forms of the test functions and oracles.
These functions back the test harness and the provenance ledger; they
are not part of the library's top-level API.

The energy sum and the quadrature evaluate arrays with elementwise
subtract, multiply, add, sqrt and divide only, which round exactly on
every numpy build; other powers are the C library's scalar ``pow``
(Python's ``**``, or ``math.pow`` in the energy sum) and every sum is
``math.fsum``, so their ledgered values replay bitwise across numpy
builds. Single-threaded by design: determinism outranks speed for ground
truth.

Their working memory is bounded: the energy sum, the quadrature and the
ledger's covering radius stream their squared distances through blocks
of at most ``_PAIRS`` (one row of n - 1 pairs when that is more), and
each block's terms go straight into one ``math.fsum``, which is exact
rounded and so returns the same bits in any order of its terms. Beyond
the input, only the quadrature rules (cached, read-only (count, dim)
arrays) grow with the problem.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import struct
import warnings
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .errors import CoincidentPointsError
from .kernel import KernelSpec, require_newtonian
from .measures import PointConfig
from .sets import sample_candidates, sphere_surface
from .seeding import substream

# The most squared distances one block of a reference path holds: pairs in
# reference_energy, nodes in the quadrature, probe-candidate pairs in the
# ledger's covering radius.
_PAIRS = 2 ** 13


@dataclass(frozen=True)
class OracleRecord:
    """One auditable ground-truth value: rerunning the named oracle with
    the recorded inputs and seed reproduces ``value`` bitwise."""

    name: str
    inputs: str  # JSON-serialized parameters
    value: float
    error_estimate: float
    seed: int


def _squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (len(a), len(b)) squared distances between the rows of ``a`` and
    of ``b``, summed coordinate by coordinate with elementwise subtract,
    multiply and add, which round exactly."""
    r2 = np.empty((len(a), len(b)))
    t = np.empty_like(r2)
    with np.errstate(over="ignore"):  # like Python floats: inf, no warning
        np.subtract(a[:, 0, None], b[None, :, 0], out=r2)
        r2 *= r2
        for c in range(1, a.shape[1]):
            np.subtract(a[:, c, None], b[None, :, c], out=t)
            t *= t
            r2 += t
    return r2


def reference_energy(X: PointConfig, spec: KernelSpec) -> float:
    """Ground-truth discrete energy, sharing no code with the library's
    kernel path.

    The pairs j < k are taken in blocks of consecutive rows j, each against
    the points after its first row, so a block holds at most ``_PAIRS``
    squared distances (one row, when n - 1 exceeds it), read from
    contiguous coordinate planes. Each pair's power is ``math.pow``, the C
    library's scalar ``pow`` as Python's ``float ** float`` is, streamed
    from a memoryview of the block's squared distances into one
    exact-rounded ``math.fsum``, so the value does not depend on the block
    size and replays bitwise across numpy builds.
    """
    n = X.n
    if n < 2:
        raise ValueError("reference energy needs n >= 2")
    planes = np.ascontiguousarray(np.asarray(X.points, dtype=float).T)
    half_expo = (spec.alpha - spec.dim) / 2.0

    def blocks():
        j = 0
        while j < n - 1:
            later = planes[:, j + 1:].T
            rows = planes[:, j:j + max(1, _PAIRS // len(later))].T
            r2 = _squared_distances(rows, later)
            upper = np.arange(len(later)) >= np.arange(len(rows))[:, None]  # k > j
            terms = r2[upper]
            if not terms.all():
                a, b = np.unravel_index(np.argmax(upper & (r2 == 0.0)), r2.shape)
                raise CoincidentPointsError(f"points {j + a} and {j + 1 + b} coincide")
            yield map(math.pow, memoryview(terms), repeat(half_expo))
            j += len(rows)

    return 2.0 * math.fsum(chain.from_iterable(blocks())) / (n * (n - 1))


# ---------------------------------------------------------------------------
# small-n Fekete minima in closed form
# ---------------------------------------------------------------------------

def simplex_energy(spec: KernelSpec, n: int) -> float:
    """Minimum normalized energy of n points on the unit sphere of R^dim,
    for 2 <= n <= dim + 1: the energy of the regular simplex.

    For unit vectors x_1..x_n, the sum over the pairs j < k of
    |x_j - x_k|^2 is n^2 - |sum x_j|^2 <= n^2, so the mean squared pair
    distance is at most 2n / (n - 1). The map t -> t^(exponent / 2) is
    convex and decreasing, so by Jensen's inequality the mean pair term,
    the normalized energy, is at least (2n / (n - 1))^(exponent / 2).
    Equality needs every pair at the same distance and sum x_j = 0, which
    is the regular simplex; it fits in R^dim exactly when n <= dim + 1
    (Cohn and Kumar, J. AMS 20, 2007).
    """
    if not 2 <= n <= spec.dim + 1:
        raise ValueError(f"the simplex bound needs 2 <= n <= dim + 1 = {spec.dim + 1}, got n={n}")
    return (2.0 * n / (n - 1)) ** (spec.exponent / 2.0)


# ---------------------------------------------------------------------------
# spherical quadrature for equilibrium potentials
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=4)
def _sphere_nodes(count: int, dim: int) -> np.ndarray:
    """Quasi-uniform unit directions in R^dim as a read-only (count, dim)
    array, built with scalar ``math`` calls only, so the ledgered
    quadrature values do not depend on how a numpy build vectorizes sin,
    cos or sqrt.

    The d = 3 rule is a Fibonacci lattice. For d > 3 the directions are
    Richtmyer's Kronecker lattice, u_j = frac((i + 1/2) sqrt(p_j)) over
    the first primes p_j, two coordinates at a time mapped to a Gaussian
    pair by the Box-Muller transform and normalized.
    """
    if dim == 3:
        golden = math.pi * (3.0 - math.sqrt(5.0))

        def node(i):
            z = 1.0 - (2.0 * i + 1.0) / count
            r = math.sqrt(max(1.0 - z * z, 0.0))
            phi = golden * i
            return r * math.cos(phi), r * math.sin(phi), z
    else:
        steps, p = [], 1
        while len(steps) < dim + dim % 2:
            p += 1
            if all(p % q for q in range(2, math.isqrt(p) + 1)):
                steps.append(math.sqrt(p) % 1.0)

        def node(i):
            u = [(i + 0.5) * a % 1.0 for a in steps]
            g = []
            for a, b in zip(u[::2], u[1::2]):
                rho, theta = math.sqrt(-2.0 * math.log(a)), 2.0 * math.pi * b
                g += rho * math.cos(theta), rho * math.sin(theta)
            norm = math.sqrt(math.fsum(v * v for v in g[:dim]))
            return [v / norm for v in g[:dim]]
    nodes = np.fromiter(chain.from_iterable(map(node, range(count))), float, count * dim).reshape(count, dim)
    nodes.flags.writeable = False
    return nodes


def sphere_potential_quadrature(
    radius: float,
    spec: KernelSpec,
    y,
    nodes: int = 20_000,
):
    """Potential of the uniform unit-mass measure on the origin-centered
    sphere of ``radius``, by quasi-uniform surface quadrature, as
    ``(value, error estimate)``.

    The error estimate is the change under node doubling; the returned
    value uses the doubled node count. Probes within 5% of the surface
    trigger a near-singular warning and a 4x refined rule. For d > 3 the
    estimate does not bound the error: at d = 4, ``nodes=1000``, the unit
    sphere and probe (1.01, 0, 0, 0) it reads 0.0025, the error 0.024.

    Evaluated over blocks of ``_PAIRS`` nodes with elementwise subtract,
    multiply, add, sqrt and divide only, which IEEE rounds exactly on
    every numpy build, and one exact-rounded ``math.fsum`` mean over all
    blocks, so the values replay bitwise across numpy builds.
    """
    require_newtonian(spec, "spherical quadrature")
    if nodes < 1000:
        raise ValueError("use at least 1000 quadrature nodes")
    yv = np.asarray(y, dtype=float)
    if yv.shape != (spec.dim,):
        raise ValueError(f"probe must be a single point in R^{spec.dim}")
    yt = tuple(yv.tolist())
    rho = math.sqrt(math.fsum(t * t for t in yt))
    if abs(rho - radius) < 0.05 * radius:
        warnings.warn(
            "probe is near the sphere surface; refining the quadrature rule 4x",
            RuntimeWarning,
        )
        nodes *= 4
    power = spec.dim - 2  # Newtonian kernel |x|^(2-d)

    def value(m: int) -> float:
        grid = _sphere_nodes(m, spec.dim)

        def blocks():
            for start in range(0, m, _PAIRS):
                block = grid[start:start + _PAIRS]
                r2 = np.zeros(len(block))
                for a, col in zip(yt, block.T):
                    t = a - radius * col
                    r2 += t * t
                if not r2.all():
                    raise ZeroDivisionError("probe coincides with a quadrature node")
                inv = 1.0 / np.sqrt(r2)
                # d = 3 stays clear of pow: sqrt and division round exactly, and
                # a memoryview yields the Python floats without a list; d > 3
                # takes Python's scalar pow, never a vectorized np.power
                yield memoryview(inv) if power == 1 else map(pow, inv.tolist(), repeat(power))

        with np.errstate(over="ignore"):  # like Python floats: inf, no warning
            return math.fsum(chain.from_iterable(blocks())) / m

    v1 = value(nodes)
    v2 = value(2 * nodes)
    return v2, abs(v2 - v1)


# ---------------------------------------------------------------------------
# Monte Carlo Dirichlet integrals and equilibrium means
# ---------------------------------------------------------------------------

def dirichlet_integral_mc(phi, samples: int = 200_000, seed: int = 0) -> float:
    """Monte Carlo estimate of the Dirichlet integral of |grad phi|^2 for a
    test function ``phi``: seeded uniform draws in its support ball,
    central finite differences (step 1e-5). A second opinion on the
    closed-form bound ``phi.dirichlet``, not a bound itself."""
    c = np.asarray(phi.support_center, dtype=float)
    radius = phi.support_radius
    d = c.size
    rng = substream(seed, "dirichlet-mc")
    v = rng.normal(size=(samples, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    x = c + radius * rng.random((samples, 1)) ** (1.0 / d) * v
    h = 1e-5
    grad_sq = np.zeros(samples)
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        gi = (phi.evaluator(x + e) - phi.evaluator(x - e)) / (2.0 * h)
        grad_sq += gi * gi
    vol = math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0) * radius ** d
    return vol * float(grad_sq.mean())


def equilibrium_mean_mc(oracle, f, samples: int = 100_000, seed: int = 0) -> tuple:
    """Monte Carlo mean of ``f`` against the equilibrium measure over
    ``samples`` seeded ``oracle.sampler`` draws, with its standard error.
    ``f`` maps an (m, d) batch to (m,) values or (m, k) columns; the
    result is ``(mean, stderr)``, scalars or length-k arrays to match. A
    second opinion on the closed-form equilibrium means, not the
    library's path."""
    vals = np.asarray(f(oracle.sampler(samples, seed)), dtype=float)
    return vals.mean(axis=0), vals.std(axis=0, ddof=1) / math.sqrt(samples)


# ---------------------------------------------------------------------------
# provenance ledger
# ---------------------------------------------------------------------------

LEDGER_FIELDS = ["name", "inputs", "value", "error_estimate", "seed"]


def write_ledger(path, records) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(LEDGER_FIELDS)
        for rec in records:
            w.writerow([rec.name, rec.inputs, repr(rec.value), repr(rec.error_estimate), rec.seed])


def read_ledger(path):
    records = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        r = csv.reader(fh)
        header = next(r)
        if header != LEDGER_FIELDS:
            raise ValueError(f"bad ledger header {header!r}")
        for row in r:
            if not row:
                continue
            name, inputs, value, err, seed = row
            records.append(OracleRecord(name, inputs, float(value), float(err), int(seed)))
    return records


def make_default_ledger_records() -> list:
    """Regenerate the committed ground-truth rows from scratch."""
    spec = KernelSpec(alpha=2.0, dim=3)
    sphere = sphere_surface([0.0, 0.0, 0.0], 1.0)
    records = []

    for tag, probe in [
        ("unit_ball_potential_at_origin", [0.0, 0.0, 0.0]),
        ("unit_ball_potential_inside", [0.5, 0.0, 0.0]),
        ("unit_ball_potential_at_2e1", [2.0, 0.0, 0.0]),
    ]:
        v, err = sphere_potential_quadrature(1.0, spec, probe, nodes=20_000)
        records.append(OracleRecord(
            name=tag,
            inputs=json.dumps({"radius": 1.0, "alpha": 2.0, "dim": 3, "y": probe, "nodes": 20000}, sort_keys=True),
            value=v, error_estimate=err, seed=0,
        ))

    for n in (2, 3, 4):
        records.append(OracleRecord(
            name=f"simplex_energy_sphere_n{n}",
            inputs=json.dumps({"alpha": 2.0, "dim": 3, "n": n}, sort_keys=True),
            value=simplex_energy(spec, n), error_estimate=0.0, seed=0,
        ))

    cands = sample_candidates(sphere, 4096, seed=11)
    rng = substream(11, "covering-probes")
    probes = rng.normal(size=(100, 3))
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    step = max(1, _PAIRS // len(cands))
    nearest = [_squared_distances(probes[i:i + step], cands).min(axis=1) for i in range(0, len(probes), step)]
    cover = float(np.sqrt(np.concatenate(nearest)).max())
    records.append(OracleRecord(
        name="covering_radius_sphere_4096",
        inputs=json.dumps({"shape": "sphere", "count": 4096, "probes": 100}, sort_keys=True),
        value=cover, error_estimate=0.0, seed=11,
    ))

    rng = substream(5, "ledger-reference-config")
    pts = rng.normal(size=(20, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    records.append(OracleRecord(
        name="reference_energy_sphere20",
        inputs=json.dumps({"n": 20, "alpha": 2.0, "dim": 3}, sort_keys=True),
        value=reference_energy(PointConfig(pts), spec), error_estimate=0.0, seed=5,
    ))
    return records


def replay_ledger(path):
    """Recompute every committed row; returns (record, recomputed, ok) triples."""
    fresh = {rec.name: rec for rec in make_default_ledger_records()}
    out = []
    for rec in read_ledger(path):
        new = fresh.get(rec.name)
        ok = new == rec
        out.append((rec, new, ok))
    return out


def _ulp_distance(a: float, b: float) -> int:
    """Number of representable doubles separating ``a`` and ``b``."""
    def ordered(x: float) -> int:
        i = struct.unpack("<q", struct.pack("<d", x))[0]
        return i if i >= 0 else -(i & 0x7FFF_FFFF_FFFF_FFFF)

    return abs(ordered(a) - ordered(b))


def describe_mismatch(rec: OracleRecord, new) -> str:
    """One line naming a ledger row that failed to replay, and each field
    that differs."""
    if new is None:
        return f"{rec.name}: no oracle recomputes this row"
    parts = []
    for field in LEDGER_FIELDS[1:]:
        old_v, new_v = getattr(rec, field), getattr(new, field)
        if old_v == new_v:
            continue
        part = f"{field} committed {old_v!r}, recomputed {new_v!r}"
        if isinstance(old_v, float):
            part += f" ({_ulp_distance(old_v, new_v)} ulp apart)"
        parts.append(part)
    return f"{rec.name}: " + "; ".join(parts)
