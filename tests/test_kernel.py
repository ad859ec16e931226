import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist, pdist

import rieszpoints
from rieszpoints import CoincidentPointsError, KernelSpec, UnsupportedOracleError
from rieszpoints.kernel import (_ENTRIES, pair_energy_forces, pair_hessian, pair_terms, potential_sums,
                               probe_potential_derivatives,
                                require_newtonian)


def kernel_value(spec, displacement):
    """Reference: |displacement|**(alpha - dim) for one vector or a batch;
    a zero displacement raises CoincidentPointsError."""
    disp = np.asarray(displacement, dtype=float)
    r = np.linalg.norm(disp, axis=-1)
    if np.any(r == 0.0):
        raise CoincidentPointsError("kernel evaluated at zero displacement")
    out = r ** spec.exponent
    return float(out) if out.ndim == 0 else out


def kernel_gradient(spec, displacement):
    """Reference: e * |x|**(e-2) * x with e = alpha - dim."""
    disp = np.asarray(displacement, dtype=float)
    r = np.linalg.norm(disp, axis=-1, keepdims=True)
    if np.any(r == 0.0):
        raise CoincidentPointsError("kernel gradient at zero displacement")
    return spec.exponent * r ** (spec.exponent - 2.0) * disp


def test_unit_distance_newtonian():
    spec = KernelSpec(alpha=2.0, dim=3)
    assert kernel_value(spec, [1.0, 0.0, 0.0]) == 1.0


def test_distance_two():
    spec = KernelSpec(alpha=2.0, dim=3)
    assert kernel_value(spec, [0.0, 2.0, 0.0]) == 0.5


def test_alpha_one_distance_four():
    spec = KernelSpec(alpha=1.0, dim=3)
    assert kernel_value(spec, [0.0, 0.0, 4.0]) == pytest.approx(0.0625, abs=0.0)


def test_zero_displacement_raises():
    spec = KernelSpec(alpha=2.0, dim=3)
    with pytest.raises(CoincidentPointsError):
        kernel_value(spec, [0.0, 0.0, 0.0])
    with pytest.raises(CoincidentPointsError):
        kernel_gradient(spec, np.zeros(3))


def test_batch_with_zero_row_raises():
    spec = KernelSpec(alpha=2.0, dim=3)
    batch = np.array([[1.0, 0, 0], [0, 0, 0]])
    with pytest.raises(CoincidentPointsError):
        kernel_value(spec, batch)


def test_gradient_examples():
    spec = KernelSpec(alpha=2.0, dim=3)
    np.testing.assert_allclose(kernel_gradient(spec, [1.0, 0, 0]), [-1.0, 0, 0], atol=1e-15)
    np.testing.assert_allclose(kernel_gradient(spec, [0, 2.0, 0]), [0, -0.25, 0], atol=1e-15)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    h = 1e-5
    for _ in range(100):
        d = int(rng.choice([3, 4, 5]))
        spec = KernelSpec(alpha=float(rng.uniform(0.5, d - 0.5)), dim=d)
        x = rng.normal(size=d)
        x *= max(0.3, np.linalg.norm(x)) / np.linalg.norm(x)
        g = kernel_gradient(spec, x)
        fd = np.empty(d)
        for i in range(d):
            e = np.zeros(d)
            e[i] = h
            fd[i] = (kernel_value(spec, x + e) - kernel_value(spec, x - e)) / (2 * h)
        np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-9)


def _workspace(spec, n):
    return np.empty((spec.dim + 2, n, n))


def _energy_forces(spec, X):
    return pair_energy_forces(spec, X, _workspace(spec, len(X)))


@pytest.mark.parametrize("dim", [3, 4, 5])
@pytest.mark.parametrize("frac", [0.2, 0.5, 0.8])
def test_pair_forces_match_finite_differences(dim, frac):
    spec = KernelSpec(alpha=frac * dim, dim=dim)
    X = np.random.default_rng(dim).normal(size=(6, dim))
    h = 1e-6
    fd = np.empty_like(X)
    for idx in np.ndindex(X.shape):
        Xp, Xm = X.copy(), X.copy()
        Xp[idx] += h
        Xm[idx] -= h
        fd[idx] = (_energy_forces(spec, Xp)[0] - _energy_forces(spec, Xm)[0]) / (2 * h)
    energy, forces = _energy_forces(spec, X)
    np.testing.assert_allclose(forces, -fd, rtol=1e-6, atol=1e-8)
    assert energy == pytest.approx(pair_terms(spec, X).sum(), rel=1e-13, abs=0.0)


def test_pair_energy_forces_newtonian_fast_path_matches_pow():
    """alpha = 2 in dim 3 skips pow; the generic formula is the reference."""
    spec = KernelSpec(alpha=2.0, dim=3)
    X = np.random.default_rng(11).normal(size=(50, 3))
    diff = X[:, None, :] - X[None, :, :]
    r2 = np.einsum("ijk,ijk->ij", diff, diff)
    np.fill_diagonal(r2, np.inf)
    terms = r2 ** (spec.exponent / 2.0)
    forces = -spec.exponent * np.einsum("ij,ijk->ik", terms / r2, diff)
    energy, F = _energy_forces(spec, X)
    assert energy == pytest.approx(0.5 * terms.sum(), rel=1e-13, abs=0.0)
    np.testing.assert_allclose(F, forces, rtol=1e-13, atol=1e-13 * np.abs(forces).max())


@pytest.mark.parametrize("alpha,dim", [(2.0, 3), (1.5, 3), (2.0, 4)])
def test_pair_energy_forces_coincidence_is_inf(alpha, dim):
    spec = KernelSpec(alpha=alpha, dim=dim)
    X = np.random.default_rng(1).normal(size=(5, dim))
    X[3] = X[1]
    assert _energy_forces(spec, X)[0] == np.inf


def test_pair_energy_forces_reused_workspace_is_bitwise_fresh():
    spec = KernelSpec(alpha=2.0, dim=3)
    rng = np.random.default_rng(4)
    X, Y = rng.normal(size=(30, 3)), rng.normal(size=(30, 3))
    fresh_energy, fresh_forces = _energy_forces(spec, X)
    work = _workspace(spec, 30)
    pair_energy_forces(spec, Y, work)
    energy, forces = pair_energy_forces(spec, X, work)
    assert energy == fresh_energy
    assert forces.tobytes() == fresh_forces.tobytes()


def _plane_by_plane(spec, X):
    """Reference: the pair sum and forces built one coordinate plane at a
    time, with numpy's pairwise row sums."""
    n, dim = X.shape
    diff = [X[:, k, None] - X[None, :, k] for k in range(dim)]
    r2 = diff[0] * diff[0]
    for k in range(1, dim):
        r2 += diff[k] * diff[k]
    np.fill_diagonal(r2, np.inf)
    with np.errstate(divide="ignore"):
        if spec.exponent == -1.0:
            terms = 1.0 / np.sqrt(r2)
            weights = terms * terms * terms
        else:
            terms = r2 ** (spec.exponent / 2.0)
            weights = terms / r2
    forces = np.stack([np.add.reduce(diff[k] * weights, axis=1) for k in range(dim)], axis=1)
    return 0.5 * float(np.add.reduce(terms, axis=None)), -spec.exponent * forces


def _offset_workspace(spec, n, offset):
    """A C-contiguous workspace that starts ``offset`` floats into a larger buffer."""
    return np.empty((spec.dim + 2) * n * n + offset)[offset:].reshape(spec.dim + 2, n, n)


@pytest.mark.parametrize("alpha,dim", [(2.0, 3), (1.5, 3), (2.0, 4), (3.5, 5)])
@pytest.mark.parametrize("n", [2, 7, 40, 129])
def test_pair_energy_forces_match_the_plane_by_plane_formula(alpha, dim, n):
    spec = KernelSpec(alpha, dim)
    X = np.random.default_rng(n * dim).normal(size=(n, dim))
    before = X.copy()
    energy, forces = _energy_forces(spec, X)
    assert forces.shape == (n, dim)
    assert np.array_equal(X, before)
    ref_energy, ref_forces = _plane_by_plane(spec, X)
    assert energy == pytest.approx(ref_energy, rel=1e-15, abs=0.0)
    np.testing.assert_allclose(forces, ref_forces, rtol=0.0, atol=1e-14 * np.abs(ref_forces).max())


@pytest.mark.parametrize("n", [5, 40, 200])
def test_pair_energy_forces_repeat_bitwise_across_workspaces(n):
    """Fresh, reused and offset workspaces give the same bits."""
    spec = KernelSpec(2.0, 3)
    X = np.random.default_rng(n).normal(size=(n, 3))
    energy, forces = _energy_forces(spec, X)
    for work in (_workspace(spec, n), _offset_workspace(spec, n, 1), _offset_workspace(spec, n, 3)):
        for _ in range(2):
            again, again_forces = pair_energy_forces(spec, X, work)
            assert again == energy
            assert again_forces.tobytes() == forces.tobytes()


def test_pair_energy_forces_rejects_a_bad_workspace():
    """A float32 workspace rounds the planes, and a strided one changes
    the einsum loops: both are refused, not silently used."""
    spec = KernelSpec(2.0, 3)
    n = 10
    X = np.random.default_rng(0).normal(size=(n, 3))
    for work in (np.empty((5, n, n), dtype=np.float32), np.empty((5, n, 2 * n))[:, :, ::2],
                 np.empty((5, n, n), order="F"), np.empty((5, n + 1, n))):
        with pytest.raises(ValueError, match="workspace must be C-contiguous float64"):
            pair_energy_forces(spec, X, work)


def test_pair_energy_forces_warm_call_allocates_no_pair_array():
    """Fresh n-by-n temporaries on every call cost page faults and system
    time as the heap is trimmed and regrown; a warm workspace avoids them."""
    n = 200
    spec = KernelSpec(alpha=2.0, dim=3)
    X = np.random.default_rng(8).normal(size=(n, 3))
    work = _workspace(spec, n)
    pair_energy_forces(spec, X, work)
    tracemalloc.start()
    try:
        pair_energy_forces(spec, X, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8


def test_pair_terms_coincident_raises():
    spec = KernelSpec(alpha=2.0, dim=3)
    with pytest.raises(CoincidentPointsError):
        pair_terms(spec, np.array([[1.0, 0, 0], [0, 1.0, 0], [1.0, 0, 0]]))


def test_potential_sums_match_kernel_value():
    rng = np.random.default_rng(5)
    for d in (3, 4, 5):
        spec = KernelSpec(alpha=float(rng.uniform(0.5, d - 0.5)), dim=d)
        probes, points = rng.normal(size=(7, d)), rng.normal(size=(11, d))
        expected = [kernel_value(spec, y - points).sum() for y in probes]
        np.testing.assert_allclose(potential_sums(spec, probes, points), expected, rtol=1e-13)


def test_potential_sums_coincidence_and_cap():
    spec = KernelSpec(alpha=2.0, dim=3)
    points = np.array([[0.0, 0, 0], [0.5, 0, 0], [0, 3.0, 0]])
    probes = np.array([[0.5, 0, 0], [0.1, 0, 0]])
    u = potential_sums(spec, probes, points)
    assert u[0] == np.inf
    assert u[1] == pytest.approx(1 / 0.1 + 1 / 0.4 + 1 / np.hypot(0.1, 3.0), rel=1e-15)


def _unblocked_potential_sums(spec, probes, points):
    r = cdist(probes, points)
    with np.errstate(divide="ignore"):
        return np.add.reduce(r ** spec.exponent, axis=1)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_potential_sums_row_blocks_match_unblocked_bitwise(d):
    rng = np.random.default_rng(d)
    points = rng.normal(size=(50, d))
    rows = _ENTRIES // len(points)
    for alpha in (2.0, 0.7):
        spec = KernelSpec(alpha, d)
        for m in (1, rows - 1, rows, rows + 1, 2 * rows + 3):
            probes = rng.normal(size=(m, d))
            if m > rows:
                # a coincidence in a later block
                probes[-1] = points[7]
            got = potential_sums(spec, probes, points)
            assert np.array_equal(got, _unblocked_potential_sums(spec, probes, points))
            if m > rows:
                assert got[-1] == np.inf


@pytest.mark.parametrize("d", [3, 4, 5])
def test_pair_terms_and_potential_sums_match_scipy_bitwise(d):
    """The kernel's own distances are scipy's pdist and cdist bitwise, for
    pair sets inside one row block and across several, and probe counts on
    both sides of a block boundary."""
    rng = np.random.default_rng(30 + d)
    for alpha in (2.0, 0.7):
        spec = KernelSpec(alpha, d)
        for n in (1, 2, 64, 65, 363, 700, 1500):
            points = rng.normal(size=(n, d))
            assert np.array_equal(pair_terms(spec, points), pdist(points) ** spec.exponent)
            rows = _ENTRIES // n
            for m in (1, 2, rows - 1, rows + 1):
                probes = rng.normal(size=(m, d))
                assert np.array_equal(potential_sums(spec, probes, points),
                                      _unblocked_potential_sums(spec, probes, points))
        probes = rng.normal(size=(5, d))
        assert np.array_equal(potential_sums(spec, probes, probes[:0]), np.zeros(5))


def test_pair_terms_allocates_no_pair_square():
    spec = KernelSpec(alpha=2.0, dim=3)
    n = 2000
    points = np.random.default_rng(12).normal(size=(n, 3))
    tracemalloc.start()
    try:
        pair_terms(spec, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the output is half an n-by-n array; a row block holds 1 MiB
    assert peak < n * (n - 1) // 2 * 8 + n * n * 8 / 4


def test_potential_sums_warm_call_allocates_no_probe_by_point_array():
    spec = KernelSpec(alpha=2.0, dim=3)
    rng = np.random.default_rng(11)
    m, n = 4096, 400
    probes, points = rng.normal(size=(m, 3)), rng.normal(size=(n, 3))
    potential_sums(spec, probes, points)
    tracemalloc.start()
    try:
        potential_sums(spec, probes, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one m-by-n array is 13 MB; a block buffer is 1/8 of it
    assert peak < m * n * 8 / 4


@pytest.mark.parametrize("d", [3, 4, 5])
def test_probe_potential_derivatives_matches_the_two_primitives_bitwise(d):
    rng = np.random.default_rng(20 + d)
    points = rng.normal(size=(300, d))
    for alpha in (2.0, 0.7):
        spec = KernelSpec(alpha, d)
        for x in rng.normal(size=(5, d)):
            value, gradient, _ = probe_potential_derivatives(spec, x, points)
            assert value == potential_sums(spec, x[None], points)[0]
            assert np.array_equal(gradient, kernel_gradient(spec, x - points).sum(axis=0))
        value, _, _ = probe_potential_derivatives(spec, points[3].copy(), points)
        assert value == np.inf


@pytest.mark.parametrize("d", [3, 4, 5])
def test_probe_potential_hessian(d):
    """The Hessian is the central difference of the primitive's own
    gradient, exactly symmetric, and at alpha = 2 trace-free: the
    Newtonian potential is harmonic off the points."""
    rng = np.random.default_rng(40 + d)
    points = rng.normal(size=(300, d))
    h = 1e-5
    for alpha in (2.0, 0.7):
        spec = KernelSpec(alpha, d)
        for x in rng.normal(size=(5, d)):
            _, _, H = probe_potential_derivatives(spec, x, points)
            assert np.array_equal(H, H.T)
            diff = np.array([probe_potential_derivatives(spec, x + h * e, points)[1]
                             - probe_potential_derivatives(spec, x - h * e, points)[1] for e in np.eye(d)]) / (2 * h)
            np.testing.assert_allclose(H, diff, rtol=0.0, atol=1e-6 * np.abs(H).max())
            if alpha == 2.0:
                assert abs(np.trace(H)) <= 1e-12 * np.abs(H).sum()


@pytest.mark.parametrize("alpha, dim", [(2.0, 3), (1.0, 3), (0.5, 3), (2.0, 4), (2.5, 4)])
@pytest.mark.parametrize("n", [2, 3, 7, 20, 48])
def test_pair_hessian_is_the_central_difference_of_the_forces(alpha, dim, n):
    """Against central differences of ``pair_energy_forces``' forces; and
    exactly symmetric, with every block row summing to zero (a common
    translation of all points changes nothing) up to rounding."""
    spec = KernelSpec(alpha, dim)
    X = np.random.default_rng(7 * n + dim).normal(size=(n, dim))
    work = np.empty((dim + 2, n, n))
    pair_energy_forces(spec, X, work)
    kept = work.copy()
    H = pair_hessian(spec, work)
    assert H.shape == (n * dim, n * dim)
    assert np.array_equal(work, kept)
    assert np.array_equal(H, H.T)
    scale = np.abs(H).max()
    row_sums = H.reshape(n, dim, n, dim).sum(axis=2)
    assert np.abs(row_sums).max() <= 1e-14 * n * scale
    h = 1e-5
    fresh = np.empty_like(work)
    columns = []
    for k in range(n * dim):
        step = np.zeros(n * dim)
        step[k] = h
        Fp = pair_energy_forces(spec, X + step.reshape(n, dim), fresh)[1]
        Fm = pair_energy_forces(spec, X - step.reshape(n, dim), fresh)[1]
        columns.append(-(Fp - Fm).ravel() / (2 * h))
    np.testing.assert_allclose(H, np.array(columns).T, rtol=0.0, atol=1e-7 * scale)


def test_no_module_imports_scipy_distance():
    """Pair and probe distances belong to the kernel layer, which computes
    them itself: the allowance kernel.py and oracles.py once held is
    empty, and no package module imports scipy.spatial.distance."""
    package = Path(rieszpoints.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            if any(n == "scipy.spatial.distance" or n.startswith("scipy.spatial.distance.") for n in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_gradient_antisymmetric():
    spec = KernelSpec(alpha=1.5, dim=4)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.normal(size=4)
        np.testing.assert_allclose(kernel_gradient(spec, x), -kernel_gradient(spec, -x), rtol=1e-15)


@settings(deadline=None, max_examples=100)
@given(
    c=st.floats(min_value=1e-3, max_value=1e3),
    alpha=st.floats(min_value=0.1, max_value=2.9),
)
def test_homogeneity(c, alpha):
    spec = KernelSpec(alpha=alpha, dim=3)
    x = np.array([0.3, -1.2, 0.7])
    lhs = kernel_value(spec, c * x)
    rhs = c ** spec.exponent * kernel_value(spec, x)
    assert lhs == pytest.approx(rhs, rel=1e-12)
    X = np.array([x, -x, [1.0, 0.0, 0.0]])
    np.testing.assert_allclose(pair_terms(spec, c * X), c ** spec.exponent * pair_terms(spec, X), rtol=1e-12)
    np.testing.assert_allclose(potential_sums(spec, c * X[:1], c * X[1:]),
                               c ** spec.exponent * potential_sums(spec, X[:1], X[1:]), rtol=1e-12)
    energy, forces = _energy_forces(spec, X)
    scaled_energy, scaled_forces = _energy_forces(spec, c * X)
    assert scaled_energy == pytest.approx(c ** spec.exponent * energy, rel=1e-12)
    expected = c ** (spec.exponent - 1.0) * forces
    np.testing.assert_allclose(scaled_forces, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())


@settings(deadline=None, max_examples=50)
@given(st.lists(st.floats(min_value=-10, max_value=10), min_size=3, max_size=3))
def test_positivity(coords):
    x = np.asarray(coords)
    if np.linalg.norm(x) == 0:
        return
    spec = KernelSpec(alpha=2.0, dim=3)
    assert kernel_value(spec, x) > 0


def test_require_newtonian_raises_unsupported():
    require_newtonian(KernelSpec(2.0, 3), "x")
    require_newtonian(KernelSpec(2.0, 5), "x")
    with pytest.raises(UnsupportedOracleError, match="greedy step requires the Newtonian kernel"):
        require_newtonian(KernelSpec(1.5, 3), "greedy step")


def test_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(alpha=0.0, dim=3)
    with pytest.raises(ValueError):
        KernelSpec(alpha=3.0, dim=3)
    with pytest.raises(ValueError):
        KernelSpec(alpha=1.0, dim=2)
    # 2 < alpha < d stays constructible: only the discrepancy layer is Newtonian-only
    KernelSpec(alpha=2.5, dim=4)
