import csv
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from rieszpoints import CoincidentPointsError, KernelSpec, PointConfig, ball, sphere_surface
from rieszpoints.acceptance import criterion_provenance, find_default_ledger
from rieszpoints.measures import discrete_energy
from rieszpoints.oracles import (
    _grid_polish,
    _sphere_nodes,
    _sphere_product_grid,
    describe_mismatch,
    grid_fekete,
    make_default_ledger_records,
    read_ledger,
    reference_energy,
    replay_ledger,
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
        for node in _sphere_nodes(m, spec.dim):
            r2 = 0.0
            for a, b in zip(yt, node):
                t = a - radius * b
                r2 += t * t
            inv = 1.0 / math.sqrt(r2)
            terms.append(inv if power == 1 else inv ** power)
        return math.fsum(terms) / m

    v1, v2 = value(nodes), value(2 * nodes)
    return v2, abs(v2 - v1)


def _dense_grid_fekete(E, spec, n, grid_size):
    """The dense N x N enumeration that the streamed n <= 4 search replaced,
    followed by the same polish."""
    G, meridian = _sphere_product_grid(E.center, E.radius, grid_size, grid_size)
    N = len(G)
    expo = spec.alpha - spec.dim
    diff = G[:, None, :] - G[None, :, :]
    r = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    np.fill_diagonal(r, np.inf)
    K = r ** expo
    np.fill_diagonal(K, np.inf)
    k0 = K[0]
    if n == 2:
        idx = (0, int(np.argmin(k0)))
    elif n == 3:
        best = (np.inf, None)
        for i1 in meridian:
            tot = k0 + K[i1] + k0[i1]
            j = int(np.argmin(tot))
            if tot[j] < best[0]:
                best = (float(tot[j]), (0, i1, j))
        idx = best[1]
    else:
        iu = np.triu_indices(N, 1)
        best = (np.inf, None)
        for i1 in meridian:
            w = k0 + K[i1]
            M = w[:, None] + w[None, :] + K
            v = M[iu]
            j = int(np.argmin(v))
            if v[j] + k0[i1] < best[0]:
                best = (float(v[j] + k0[i1]), (0, i1, int(iu[0][j]), int(iu[1][j])))
        idx = best[1]
    polished, _ = _grid_polish(G[list(idx)], expo, E.radius, E.center)
    return polished


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


def test_reference_agrees_with_main_path():
    rng = np.random.default_rng(0)
    for _ in range(30):
        d = int(rng.choice([3, 4]))
        n = int(rng.integers(2, 80))
        spec = KernelSpec(float(rng.uniform(0.5, d - 0.5)), d)
        X = PointConfig(rng.normal(size=(n, d)))
        assert discrete_energy(X, spec) == pytest.approx(reference_energy(X, spec), rel=1e-12)


def test_grid_fekete_known_small_optima():
    e2 = discrete_energy(grid_fekete(UNIT_SPHERE, SPEC, 2, grid_size=32), SPEC)
    assert e2 == pytest.approx(0.5, abs=1e-10)
    e3 = discrete_energy(grid_fekete(UNIT_SPHERE, SPEC, 3, grid_size=32), SPEC)
    assert e3 == pytest.approx(1 / np.sqrt(3), abs=1e-8)
    e4 = discrete_energy(grid_fekete(UNIT_SPHERE, SPEC, 4, grid_size=24), SPEC)
    assert e4 == pytest.approx(0.6123724356957945, abs=1e-8)


@pytest.mark.parametrize("E", [
    UNIT_SPHERE,
    sphere_surface([1.0, -2.0, 0.5], 2.0),
    ball([0.0, 0.0, 0.0], 1.0),
], ids=["unit-sphere", "offset-sphere", "unit-ball"])
@pytest.mark.parametrize("alpha", [2.0, 1.5, 2.5])
def test_streamed_grid_search_matches_dense_enumeration(E, alpha):
    spec = KernelSpec(alpha, 3)
    for grid_size in (8, 12, 16, 24):
        for n in (2, 3, 4):
            got = grid_fekete(E, spec, n, grid_size=grid_size).points
            want = _dense_grid_fekete(E, spec, n, grid_size)
            assert got.tobytes() == want.tobytes(), (grid_size, n)


def test_grid_fekete_n4_allocates_no_grid_by_grid_array():
    grid_fekete(UNIT_SPHERE, SPEC, 4, grid_size=8)
    tracemalloc.start()
    try:
        grid_fekete(UNIT_SPHERE, SPEC, 4, grid_size=48)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one 2210 x 2210 float array alone would take 37 MiB
    assert peak < 16 * 2**20


def test_grid_fekete_budget_and_validation():
    for n, grid_size in [(5, 16), (6, 16), (1, 16), (4, 3), (4, 65)]:
        with pytest.raises(ValueError):
            grid_fekete(UNIT_SPHERE, SPEC, n, grid_size=grid_size)


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
    r = criterion_provenance(1, {}, ledger_path=path)
    assert not r.passed
    [line] = r.details["mismatched"]
    assert line.startswith(f"{rows[2][0]}: {field} committed ")
    assert "; " not in line
