import csv
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from rieszpoints import CoincidentPointsError, KernelSpec, PointConfig, sphere_surface
from rieszpoints.acceptance import criterion_provenance, find_default_ledger
from rieszpoints.measures import discrete_energy
from rieszpoints.seeding import substream
from rieszpoints.sets import sample_candidates
from rieszpoints.oracles import (
    _PAIRS,
    _sphere_nodes,
    describe_mismatch,
    make_default_ledger_records,
    read_ledger,
    reference_energy,
    replay_ledger,
    simplex_energy,
    sphere_potential_quadrature,
    write_ledger,
)

SPEC = KernelSpec(2.0, 3)
UNIT_SPHERE = sphere_surface([0.0, 0.0, 0.0], 1.0)


@pytest.fixture(scope="module")
def default_records():
    return make_default_ledger_records()


def _bits(values):
    return [float(v).hex() for v in values]


def _loop_reference_energy(X, spec):
    """The scalar double loop that reference_energy replaced."""
    n = X.n
    pts = [tuple(float(v) for v in row) for row in X.points]
    half_expo = (spec.alpha - spec.dim) / 2.0
    terms = []
    for j in range(n):
        xj = pts[j]
        for k in range(j + 1, n):
            xk = pts[k]
            r2 = 0.0
            for a, b in zip(xj, xk):
                t = a - b
                r2 += t * t
            if r2 == 0.0:
                raise CoincidentPointsError(f"points {j} and {k} coincide")
            terms.append(r2 ** half_expo)
    return 2.0 * math.fsum(terms) / (n * (n - 1))


def _loop_quadrature(radius, spec, y, nodes):
    """The scalar per-node loop that sphere_potential_quadrature replaced;
    returns (value, error estimate)."""
    yt = tuple(np.asarray(y, dtype=float).tolist())
    rho = math.sqrt(math.fsum(t * t for t in yt))
    if abs(rho - radius) < 0.05 * radius:
        warnings.warn("probe is near the sphere surface", RuntimeWarning)
        nodes *= 4
    power = spec.dim - 2

    def value(m):
        terms = []
        for node in _sphere_nodes(m, spec.dim).tolist():
            r2 = 0.0
            for a, b in zip(yt, node):
                t = a - radius * b
                r2 += t * t
            inv = 1.0 / math.sqrt(r2)
            terms.append(inv if power == 1 else inv ** power)
        return math.fsum(terms) / m

    v1, v2 = value(nodes), value(2 * nodes)
    return v2, abs(v2 - v1)


def test_reference_energy_trivial_pairs():
    assert reference_energy(PointConfig([[0.0, 0, 0], [1.0, 0, 0]]), SPEC) == 1.0
    tet = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float) / (2 * np.sqrt(2))
    assert reference_energy(PointConfig(tet), SPEC) == pytest.approx(1.0, rel=1e-14)


def test_reference_energy_coincident_error():
    with pytest.raises(CoincidentPointsError):
        reference_energy(PointConfig([[1.0, 0, 0], [1.0, 0, 0]]), SPEC)


def test_reference_energy_matches_scalar_loop_bitwise():
    rng = np.random.default_rng(12)
    configs = []
    for _ in range(50):
        d = int(rng.choice([3, 4]))
        n = int(rng.integers(2, 60))
        spec = KernelSpec(float(rng.uniform(0.1, d - 0.1)), d)
        configs.append((PointConfig(rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0)), spec))
    # sizes that span several blocks of pairs
    for n in (200, 400):
        for d in (3, 4):
            configs.append((PointConfig(rng.normal(size=(n, d))), KernelSpec(float(rng.uniform(0.1, d - 0.1)), d)))
    assert 200 * 199 // 2 > _PAIRS
    # squared distances that overflow to inf
    configs.append((PointConfig([[1e200, 0, 0], [-1e200, 0, 0], [0.0, 1, 0]]), SPEC))
    for X, spec in configs:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert reference_energy(X, spec).hex() == _loop_reference_energy(X, spec).hex()


def test_reference_energy_names_first_coincident_pair_in_loop_order():
    # (1, 3) and (0, 4) coincide; the loop over j < k meets (0, 4) first
    pts = [[0.0, 0, 1], [1.0, 0, 0], [0.0, 1, 0], [1.0, 0, 0], [0.0, 0, 1]]
    X = PointConfig(np.array(pts))
    with pytest.raises(CoincidentPointsError) as loop:
        _loop_reference_energy(X, SPEC)
    with pytest.raises(CoincidentPointsError) as fast:
        reference_energy(X, SPEC)
    assert str(fast.value) == str(loop.value) == "points 0 and 4 coincide"


def test_reference_energy_names_first_coincident_pair_of_a_later_block():
    # of 400 points, the first block holds rows j < _PAIRS // 399; (350, 390)
    # and (300, 399) coincide, and the loop over j < k meets (300, 399) first
    pts = np.random.default_rng(4).normal(size=(400, 3))
    assert _PAIRS // 399 <= 300
    pts[390] = pts[350]
    pts[399] = pts[300]
    X = PointConfig(pts)
    with pytest.raises(CoincidentPointsError) as loop:
        _loop_reference_energy(X, SPEC)
    with pytest.raises(CoincidentPointsError) as fast:
        reference_energy(X, SPEC)
    assert str(fast.value) == str(loop.value) == "points 300 and 399 coincide"


def test_reference_agrees_with_main_path():
    rng = np.random.default_rng(0)
    for _ in range(30):
        d = int(rng.choice([3, 4]))
        n = int(rng.integers(2, 80))
        spec = KernelSpec(float(rng.uniform(0.5, d - 0.5)), d)
        X = PointConfig(rng.normal(size=(n, d)))
        assert discrete_energy(X, spec) == pytest.approx(reference_energy(X, spec), rel=1e-12)


def _simplex_vertices(n):
    """The n vertices of a regular simplex on the unit sphere of R^(n-1):
    the standard basis of R^n, centred and scaled to unit length, written
    in an orthonormal basis of the hyperplane orthogonal to (1, ..., 1)."""
    V = np.eye(n) - 1.0 / n
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    Q = np.linalg.qr(V[:, :-1])[0]
    return V @ Q


@pytest.mark.parametrize("alpha", [1.5, 2.0, 2.5])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_simplex_energy_is_the_energy_of_the_simplex_in_R3(n, alpha):
    """The antipodal pair, the equatorial triangle and the tetrahedron,
    embedded in R^3."""
    spec = KernelSpec(alpha, 3)
    X = np.zeros((n, 3))
    X[:, :n - 1] = _simplex_vertices(n)
    assert np.allclose(np.linalg.norm(X, axis=1), 1.0, rtol=0, atol=1e-15)
    want = reference_energy(PointConfig(X), spec)
    assert simplex_energy(spec, n) == pytest.approx(want, rel=1e-15)


def test_simplex_energy_of_five_points_in_R4_and_the_small_optima():
    spec = KernelSpec(2.0, 4)
    X = PointConfig(_simplex_vertices(5))
    assert simplex_energy(spec, 5) == pytest.approx(reference_energy(X, spec), rel=1e-15)
    # the committed minima of 2, 3 and 4 charges on the unit sphere in R^3
    got = [simplex_energy(SPEC, n) for n in (2, 3, 4)]
    assert got == [0.5, 0.5773502691896257, 0.6123724356957946]
    assert got[1] == pytest.approx(1 / math.sqrt(3), rel=1e-15)
    assert got[2] == pytest.approx(math.sqrt(3 / 8), rel=1e-15)


@pytest.mark.parametrize("dim", [3, 4])
@pytest.mark.parametrize("alpha", [1.5, 2.0, 2.5])
def test_simplex_energy_bounds_every_configuration_below(dim, alpha):
    """Jensen's bound: no n <= dim + 1 unit vectors have a smaller energy."""
    spec = KernelSpec(alpha, dim)
    rng = np.random.default_rng(7)
    for n in range(2, dim + 2):
        floor = simplex_energy(spec, n)
        for _ in range(50):
            pts = rng.normal(size=(n, dim))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            assert discrete_energy(PointConfig(pts), spec) >= floor


def test_simplex_energy_rejects_n_outside_the_simplex_range():
    for dim in (3, 4):
        spec = KernelSpec(2.0, dim)
        for n in (1, dim + 2):
            with pytest.raises(ValueError):
                simplex_energy(spec, n)


def test_quadrature_interior_and_exterior():
    v, err = sphere_potential_quadrature(1.0, SPEC, np.array([0.0, 0, 0]), nodes=2000, return_error=True)
    assert v == pytest.approx(1.0, abs=1e-3)
    v2 = sphere_potential_quadrature(1.0, SPEC, np.array([2.0, 0, 0]), nodes=2000)
    assert v2 == pytest.approx(0.5, abs=1e-3)
    v3 = sphere_potential_quadrature(1.0, SPEC, np.array([0.5, 0, 0]), nodes=2000)
    assert abs(v3 - v) <= 2e-3


def test_quadrature_node_doubling_error():
    rng = np.random.default_rng(6)
    for _ in range(20):
        y = rng.normal(size=3)
        rho = rng.uniform(0.2, 3.0)
        if abs(rho - 1.0) < 0.08:
            continue
        y *= rho / np.linalg.norm(y)
        v, err = sphere_potential_quadrature(1.0, SPEC, y, nodes=1000, return_error=True)
        v2 = sphere_potential_quadrature(1.0, SPEC, y, nodes=2000)
        assert abs(v - v2) <= max(err, 1e-12) + 1e-9


@pytest.mark.parametrize("y", [
    [0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [-0.3, 0.6, 0.2],
    [2.0, 0.0, 0.0], [0.7, -1.9, 3.1], [1e200, 0.0, 0.0],
], ids=["origin", "inside", "inside-oblique", "outside", "outside-oblique", "overflow"])
@pytest.mark.parametrize("dim", [3, 4])
def test_quadrature_matches_scalar_loop_bitwise(y, dim):
    spec = KernelSpec(2.0, dim)
    probe = np.array(y + [0.25] * (dim - 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sphere_potential_quadrature(1.3, spec, probe, nodes=1000, return_error=True)
    assert _bits(got) == _bits(_loop_quadrature(1.3, spec, probe, 1000))


@pytest.mark.parametrize("dim", [3, 4])
def test_quadrature_over_several_blocks_matches_scalar_loop_bitwise(dim):
    """9000 and 18 000 nodes span two and three blocks of nodes."""
    assert _PAIRS < 9000 and 2 * _PAIRS < 18_000
    spec = KernelSpec(2.0, dim)
    for y in ([0.4, -0.2, 0.1], [1.6, 0.3, -0.9]):
        probe = np.array(y + [0.25] * (dim - 3))
        got = sphere_potential_quadrature(1.3, spec, probe, nodes=9000, return_error=True)
        assert _bits(got) == _bits(_loop_quadrature(1.3, spec, probe, 9000))


@pytest.mark.parametrize("dim", [3, 4])
def test_quadrature_near_surface_matches_scalar_loop_bitwise(dim):
    spec = KernelSpec(2.0, dim)
    probe = np.array([1.01] + [0.0] * (dim - 1))
    with pytest.warns(RuntimeWarning):
        got = sphere_potential_quadrature(1.0, spec, probe, nodes=1000, return_error=True)
    with pytest.warns(RuntimeWarning):
        want = _loop_quadrature(1.0, spec, probe, 1000)
    assert _bits(got) == _bits(want)


def test_quadrature_probe_on_a_node_raises_like_the_scalar_loop():
    # a node of the 4x refined coarse rule only; the doubled rule misses it
    probe = np.array(_sphere_nodes(4000, 3)[7])
    for quadrature in (sphere_potential_quadrature, _loop_quadrature):
        with pytest.warns(RuntimeWarning), pytest.raises(ZeroDivisionError):
            quadrature(1.0, SPEC, probe, 1000)


def test_sphere_nodes_are_the_tuple_formulas_bitwise():
    """The d = 3 nodes are the Fibonacci lattice's scalar expressions;
    every rule is a read-only array of unit vectors."""
    golden = math.pi * (3.0 - math.sqrt(5.0))
    for count in (1000, 40_000):
        want = []
        for i in range(count):
            z = 1.0 - (2.0 * i + 1.0) / count
            r = math.sqrt(max(1.0 - z * z, 0.0))
            want.append((r * math.cos(golden * i), r * math.sin(golden * i), z))
        got = _sphere_nodes(count, 3)
        assert got.shape == (count, 3) and _bits(got.ravel()) == _bits(np.ravel(want))
    for dim in (3, 4, 5):
        nodes = _sphere_nodes(2000, dim)
        assert not nodes.flags.writeable
        np.testing.assert_allclose(np.linalg.norm(nodes, axis=1), 1.0, rtol=0, atol=1e-15)


def test_covering_radius_row_is_the_three_plane_formula(default_records):
    cands = sample_candidates(UNIT_SPHERE, 4096, seed=11)
    probes = substream(11, "covering-probes").normal(size=(100, 3))
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    r2 = np.zeros((len(probes), len(cands)))
    for c in range(3):
        t = probes[:, c, None] - cands[None, :, c]
        r2 += t * t
    [row] = [rec for rec in default_records if rec.name == "covering_radius_sphere_4096"]
    assert row.value.hex() == float(np.sqrt(r2.min(axis=1)).max()).hex()


def _traced_peak_mib(f, *args, **kwargs):
    tracemalloc.start()
    try:
        f(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_reference_energy_memory_is_bounded():
    X = PointConfig(np.random.default_rng(8).normal(size=(2000, 3)))
    assert _traced_peak_mib(reference_energy, X, SPEC) < 2.0


def test_ledger_memory_is_bounded_with_a_cold_and_a_warm_node_cache():
    _sphere_nodes.cache_clear()
    assert _traced_peak_mib(make_default_ledger_records) < 4.0
    assert _traced_peak_mib(make_default_ledger_records) < 4.0


def test_quadrature_working_memory_is_bounded():
    """With its rules cached, a near-surface probe at 20 000 nodes sums
    80 000 and 160 000 terms in blocks."""
    probe = [1.01, 0.0, 0.0]
    with pytest.warns(RuntimeWarning):
        sphere_potential_quadrature(1.0, SPEC, probe, nodes=20_000)
    with pytest.warns(RuntimeWarning):
        assert _traced_peak_mib(sphere_potential_quadrature, 1.0, SPEC, probe, nodes=20_000) < 4.0


def test_quadrature_near_surface_warns():
    with pytest.warns(RuntimeWarning):
        sphere_potential_quadrature(1.0, SPEC, np.array([1.01, 0, 0]), nodes=1000)


def test_ledger_round_trip(tmp_path, default_records):
    path = tmp_path / "ledger.csv"
    write_ledger(path, default_records)
    back = read_ledger(path)
    assert back == default_records
    assert all(ok for _, _, ok in replay_ledger(path))


def test_regenerated_ledger_is_the_committed_file(tmp_path, default_records):
    path = tmp_path / "ledger.csv"
    write_ledger(path, default_records)
    assert path.read_bytes() == find_default_ledger().read_bytes()


def test_committed_ledger_replays():
    path = find_default_ledger()
    assert path is not None, "committed oracle_ledger.csv not found"
    rows = replay_ledger(path)
    assert rows, "committed oracle_ledger.csv holds no rows"
    bad = [describe_mismatch(rec, new) for rec, new, ok in rows if not ok]
    assert not bad, "ledger rows do not replay bitwise:\n" + "\n".join(bad)


@pytest.mark.parametrize("field, drift", [
    ("error_estimate", lambda v: repr(math.nextafter(float(v), math.inf))),
    ("seed", lambda v: str(int(v) + 1)),
], ids=["error_estimate", "seed"])
def test_provenance_names_a_drifted_column(tmp_path, field, drift):
    with open(find_default_ledger(), newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index(field)
    rows[2][col] = drift(rows[2][col])
    path = tmp_path / "oracle_ledger.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    r = criterion_provenance(1, {"ledger_path": path})
    assert not r.passed
    [line] = r.details["mismatched"]
    assert line.startswith(f"{rows[2][0]}: {field} committed ")
    assert "; " not in line
