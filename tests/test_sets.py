import dataclasses

import numpy as np
import pytest
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist
from scipy.special import ndtri

from rieszpoints import (
    KernelSpec,
    PointConfig,
    SetDefinitionError,
    UnsupportedOracleError,
    ball,
    box,
    closeness_m_E,
    discrete_potential,
    distance_to_set,
    equilibrium_oracle,
    parse_set_definition,
    project_to_set,
    sample_candidates,
    sphere_surface,
    union_of_balls,
)
from rieszpoints.discrepancy import _monomials, max_green_on_shell
from rieszpoints.oracles import equilibrium_mean_mc, sphere_potential_quadrature
from rieszpoints.sets import (MEMBERSHIP_TOL, _active_face, _lattice, _lattice_ball, _min_surface, _widened_grid,
                              sample_uniform)
from rieszpoints.seeding import child_seed, substream

SPEC = KernelSpec(2.0, 3)
UNIT_BALL = ball([0.0, 0.0, 0.0], 1.0)
UNIT_SPHERE = sphere_surface([0.0, 0.0, 0.0], 1.0)
BOX = box([0.0, 0, 0], [1.0, 2, 1])
TWO_BALLS = union_of_balls([([-1.0, 0, 0], 1.0), ([1.0, 0, 0], 1.0)])


def test_distance_examples():
    assert distance_to_set(UNIT_BALL, [2.0, 0, 0]) == 1.0
    assert distance_to_set(UNIT_SPHERE, [0.0, 0, 0]) == 1.0
    two = union_of_balls([([3.0, 0, 0], 1.0), ([-3.0, 0, 0], 1.0)])
    assert distance_to_set(two, [0.0, 0, 0]) == 2.0


def test_distance_inside_is_zero():
    assert distance_to_set(UNIT_BALL, [0.3, 0, 0]) == 0.0
    B = box([0.0, 0, 0], [1.0, 2, 3])
    assert distance_to_set(B, [0.5, 1.0, 1.5]) == 0.0
    assert distance_to_set(B, [2.0, 1.0, 1.5]) == 1.0


def test_projection_examples():
    np.testing.assert_allclose(project_to_set(UNIT_SPHERE, [2.0, 0, 0]), [1.0, 0, 0])
    np.testing.assert_allclose(project_to_set(UNIT_BALL, [0.3, 0, 0]), [0.3, 0, 0])
    # deterministic tie-break: the sphere's center maps to +e1
    np.testing.assert_allclose(project_to_set(UNIT_SPHERE, [0.0, 0, 0]), [1.0, 0, 0])


def test_ball_projection_matches_radial_reference_bitwise():
    rng = np.random.default_rng(12)
    center, radius = np.array([0.5, -1.0, 2.0]), 1.5
    E = ball(center, radius)
    x = np.vstack([center + rng.normal(scale=1.5, size=(500, 3)), center])
    v = x - center
    rho = np.linalg.norm(v, axis=1, keepdims=True)
    unit = np.divide(v, rho, out=np.zeros_like(v), where=rho > 0)
    expected = np.where(rho <= radius, x, center + radius * unit)
    assert np.array_equal(project_to_set(E, x), expected)
    for row, want in zip(x[::50], expected[::50]):
        assert np.array_equal(project_to_set(E, row), want)


@pytest.mark.parametrize("center, radius", [([0.0, 0, 0], 1.0), ([0.5, -1.0, 2.0], 2.5), ([0.1, 0.2, -0.3, 0.4], 0.7)])
def test_ball_and_sphere_reads_are_the_balls_path_bitwise(center, radius):
    """A ball and a sphere give bitwise what the general (center, radius)
    list gives: the mean of one center, the largest |c - m| + r, and a
    one-ball union's distance, projection and active face; a sphere's
    distance is the shell's |rho - r|."""
    union = union_of_balls([(center, radius)])
    for E in (ball(center, radius), sphere_surface(center, radius)):
        assert np.array_equal(E.enclosing_center, union.enclosing_center)
        assert E.enclosing_radius == union.enclosing_radius
        assert E.enclosing_radius == max(float(np.linalg.norm(c - union.enclosing_center)) + r for c, r in union.balls)
    rng = np.random.default_rng(5)
    x = np.vstack([np.asarray(center) + rng.normal(scale=radius, size=(300, len(center))), center])
    E = ball(center, radius)
    assert np.array_equal(distance_to_set(E, x), distance_to_set(union, x))
    assert np.array_equal(project_to_set(E, x), project_to_set(union, x))
    for row in x[::30]:
        assert distance_to_set(E, row) == distance_to_set(union, row)
        assert np.array_equal(project_to_set(E, row), project_to_set(union, row))
    # boundary points with forces pointing in and out, and the center
    X = np.vstack([project_to_set(sphere_surface(center, radius), x[:-1]), center])
    F = rng.normal(size=X.shape)
    for got, want in zip(_active_face(E, X, F), _active_face(union, X, F)):
        assert np.array_equal(got, want)
    shell = np.abs(np.linalg.norm(x - np.asarray(center), axis=-1) - radius)
    assert np.array_equal(distance_to_set(sphere_surface(center, radius), x), shell)


@pytest.mark.parametrize("make", [ball, sphere_surface])
def test_ball_and_sphere_keep_their_shape_in_the_balls_list(make):
    """A ball or sphere stores its one (center, radius) pair in ``balls``,
    as a union does, and has no fields of its own."""
    E = make([0.5, -1.0, 2.0], 2.5)
    (c, r), = E.balls
    assert np.array_equal(c, [0.5, -1.0, 2.0]) and r == 2.5
    assert [f.name for f in dataclasses.fields(E)] == ["dim", "kind", "low", "high", "balls", "holder_s"]
    assert not hasattr(E, "center") and not hasattr(E, "radius")


def test_projection_realizes_distance():
    rng = np.random.default_rng(1)
    shapes = [
        UNIT_BALL,
        UNIT_SPHERE,
        box([-1.0, -2, 0], [1.0, 0, 3]),
        union_of_balls([([2.0, 0, 0], 0.5), ([-1.0, 1, 0], 1.0)]),
    ]
    for E in shapes:
        x = rng.normal(scale=3.0, size=(200, 3))
        p = project_to_set(E, x)
        d = distance_to_set(E, x)
        assert np.all(distance_to_set(E, p) <= 1e-10)
        np.testing.assert_allclose(np.linalg.norm(x - p, axis=1), d, atol=1e-10)


def test_distance_is_lipschitz():
    rng = np.random.default_rng(7)
    shapes = [UNIT_BALL, UNIT_SPHERE, box([0.0, 0, 0], [1.0, 1, 1]),
              union_of_balls([([0.0, 0, 0], 1.0), ([3.0, 0, 0], 0.5)])]
    for E in shapes:
        a = rng.normal(scale=2.0, size=(1000, 3))
        b = rng.normal(scale=2.0, size=(1000, 3))
        gap = np.abs(distance_to_set(E, a) - distance_to_set(E, b))
        assert np.all(gap <= np.linalg.norm(a - b, axis=1) + 1e-12)


def test_union_tie_break_lowest_index():
    two = union_of_balls([([1.0, 0, 0], 0.5), ([-1.0, 0, 0], 0.5)])
    # origin is equidistant; the first ball wins
    np.testing.assert_allclose(project_to_set(two, [0.0, 0, 0]), [0.5, 0, 0])
    # the least signed gap picks the second ball, the least clamped gap the
    # first: a point inside both balls, and one on the first ball's sphere
    lapped = union_of_balls([([0.0, 0, 0], 1.0), ([1.5, 0, 0], 1.0)])
    for x in ([0.9, 0.1, 0], [1.0, 0, 0]):
        np.testing.assert_array_equal(project_to_set(lapped, x), x)


@pytest.mark.parametrize("make", [
    lambda c: ball(c, 1.0),
    lambda c: sphere_surface(c, 1.0),
    lambda c: box(c, c + 1.0),
    lambda c: union_of_balls([(c, 1.0)]),
], ids=["ball", "sphere_surface", "box", "union_of_balls"])
def test_constructor_copies_callers_array(make):
    c = np.zeros(3)
    E = make(c)
    probe = np.array([3.0, 0.5, 0.0])
    before = distance_to_set(E, probe)
    c[0] = 1.0  # the caller's array stays writable
    assert distance_to_set(E, probe) == before


@pytest.mark.parametrize("make", [
    lambda: ball([0.0, 0, 0], np.nan),
    lambda: ball([0.0, np.nan, 0], 1.0),
    lambda: sphere_surface([0.0, 0, np.inf], 1.0),
    lambda: sphere_surface([0.0, 0, 0], np.inf),
    lambda: box([0.0, 0, 0], [1.0, 1, np.inf]),
    lambda: box([-np.inf, 0, 0], [1.0, 1, 1]),
    lambda: union_of_balls([([0.0, 0, 0], np.inf)]),
    lambda: union_of_balls([([0.0, 0, 0], 1.0), ([np.nan, 0, 0], 1.0)]),
    lambda: ball([0.0, 0, 0], 1.0, holder_s=np.nan),
], ids=["ball-radius", "ball-center", "sphere-center", "sphere-radius", "box-high", "box-low",
        "union-radius", "union-center", "holder-s"])
def test_constructors_reject_non_finite(make):
    with pytest.raises(ValueError, match="finite"):
        make()


def test_lattice_stream_is_pinned():
    """The first points of one draw, written out, so the candidate grids
    stay fixed whatever later numpy or libm releases do."""
    assert _lattice(7, 3, 4).tolist() == [
        [0.625095466604667, 0.8972138009695755, 0.7756856902451935],
        [0.44426798000083134, 0.5682574076733644, 0.3253861681471637],
        [0.2634404933969958, 0.23930101437715345, 0.8750866460491338],
        [0.08261300679316008, 0.9103446210809425, 0.42478712395110385],
    ]


@pytest.mark.parametrize("solid", [False, True], ids=["sphere", "ball"])
@pytest.mark.parametrize("dim", [3, 4, 5, 7])
def test_lattice_ball_ppf_agrees_with_ndtri(dim, solid):
    """The standard library's Gaussian ppf in _lattice_ball agrees with
    scipy's ndtri within a few ulp: the unit-ball points built from
    ndtri differ by at most 4 machine epsilons (2.25 when recorded)."""
    u = _lattice(9, dim + solid, 2000)
    g = ndtri(np.clip(u[:, :dim], np.finfo(float).tiny, 1 - 1e-16))
    want = g / np.linalg.norm(g, axis=1, keepdims=True)
    if solid:
        want = u[:, dim:] ** (1.0 / dim) * want
    got = _lattice_ball(np.zeros(dim), 1.0, dim, 2000, 9, solid)
    assert np.abs(got - want).max() <= 4 * np.finfo(float).eps


def _covering_radii(grids, probes):
    """For each grid, the largest distance from a probe to its nearest grid
    point. A probe's distance is at most that of its nearest probe among
    the first 4000 plus the gap between the two, so only the probes whose
    bound exceeds the first 4000's largest distance are measured."""
    head = probes[:4000]
    gap, near = cKDTree(head).query(probes)
    radii = []
    for grid in grids:
        tree = cKDTree(grid)
        d = tree.query(head)[0]
        far = probes[d[near] + gap > d.max()]
        radii.append(max(d.max(), tree.query(far)[0].max(initial=0.0)))
    return np.array(radii)


@pytest.mark.parametrize("E", [UNIT_BALL, BOX, TWO_BALLS, sphere_surface(np.zeros(4), 1.0)],
                         ids=["ball", "box", "union", "sphere-d4"])
def test_lattice_grids_cover_better_than_iid_draws(E):
    """Over seeds 0-9 the median covering radius of 4096 candidates beats
    that of 4096 i.i.d. draws, and at every seed the radius shrinks by at
    least 1.5x from 512 to 4096 candidates (1.62x or more when recorded)."""
    probes = sample_uniform(E, 20000, substream(0, "covering-probes"))
    fine = _covering_radii([sample_candidates(E, 4096, seed) for seed in range(10)], probes)
    iid = _covering_radii([sample_uniform(E, 4096, substream(seed, "iid")) for seed in range(10)], probes)
    coarse = _covering_radii([sample_candidates(E, 512, seed) for seed in range(10)], probes)
    assert np.median(fine) < np.median(iid)
    assert np.all(coarse >= 1.5 * fine), coarse / fine


def test_candidates_on_sphere_count_one():
    pts = sample_candidates(UNIT_SPHERE, 1, seed=3)
    assert pts.shape == (1, 3)
    assert abs(np.linalg.norm(pts[0]) - 1.0) <= 1e-12


@pytest.mark.parametrize("E", [UNIT_SPHERE, UNIT_BALL, BOX, TWO_BALLS], ids=["sphere", "ball", "box", "union"])
def test_candidates_deterministic(E):
    a = sample_candidates(E, 128, seed=9)
    b = sample_candidates(E, 128, seed=9)
    np.testing.assert_array_equal(a, b)
    c = sample_candidates(E, 128, seed=10)
    assert not np.array_equal(a, c)


def test_union_draws_are_uniform_on_the_overlap():
    """Unit balls one apart: their lens holds 5/27 of the union's volume
    (lens 5 pi / 12, union 27 pi / 12), and the draws' fraction in it sits
    within 4 standard errors of that, not at the 5/16 a per-ball draw
    would give."""
    lapped = union_of_balls([([0.0, 0, 0], 1.0), ([1.0, 0, 0], 1.0)])
    x = sample_uniform(lapped, 400_000, np.random.default_rng(0))
    assert np.all(distance_to_set(lapped, x) == 0.0)
    lens = np.mean((np.linalg.norm(x, axis=1) <= 1.0) & (np.linalg.norm(x - [1.0, 0, 0], axis=1) <= 1.0))
    p = 5.0 / 27.0
    assert abs(lens - p) <= 4.0 * np.sqrt(p * (1.0 - p) / x.shape[0]), lens


def test_union_candidates_cover_the_overlap_once():
    """Unit balls one apart: the second ball's grid points in the first
    ball are dropped, so the lens holds about its volume share 5/27 of
    the grid, not the 5/16 of each ball's grid, and the grid has fewer
    points than asked for. Fewer points than balls are refused: the drop
    could leave none."""
    lapped = union_of_balls([([0.0, 0, 0], 1.0), ([1.0, 0, 0], 1.0)])
    x = sample_candidates(lapped, 4096, seed=0)
    assert len(x) < 4096
    assert np.all(distance_to_set(lapped, x) <= MEMBERSHIP_TOL)
    lens = np.mean((np.linalg.norm(x, axis=1) <= 1.0) & (np.linalg.norm(x - [1.0, 0, 0], axis=1) <= 1.0))
    assert abs(lens - 5.0 / 27.0) <= 0.005, lens
    nested = union_of_balls([([0.0, 0, 0], 2.0), ([0.5, 0, 0], 0.5)])
    assert len(sample_candidates(nested, 2, seed=0)) == 1
    with pytest.raises(ValueError, match="count must be >= 2"):
        sample_candidates(nested, 1, seed=0)


@pytest.mark.parametrize("second", [1.0, 2.5], ids=["overlapping", "disjoint"])
def test_union_search_grid_lies_on_its_boundary(second):
    """A union's potential minimum is searched on its spheres
    (``_min_surface``), on a grid of the union's boundary: every point lies
    on a sphere and in no other ball. Overlapping unit balls one apart each
    lose a quarter of their sphere, a cap of height 1/2, so 3/4 of the grid
    stays. The shell's distance and projection read the nearer sphere."""
    E = union_of_balls([([0.0, 0, 0], 1.0), ([second, 0, 0], 1.0)])
    S = _min_surface(E)
    assert S.kind == "sphere" and S.balls is E.balls
    x = sample_candidates(S, 4096, 5)
    rho = np.linalg.norm(x[:, None, :] - np.array([c for c, _ in E.balls]), axis=2)
    assert np.abs(rho - 1.0).min(axis=1).max() <= 1e-12
    assert np.all(rho >= 1.0 - 1e-12)
    if second == 1.0:
        assert abs(len(x) - 3072) <= 0.01 * 3072, len(x)
    else:
        assert len(x) == 4096
    y = np.random.default_rng(3).normal(scale=2.0, size=(500, 3))
    gap = np.linalg.norm(y[:, None, :] - np.array([c for c, _ in E.balls]), axis=2) - 1.0
    near = np.abs(gap).min(axis=1)
    np.testing.assert_allclose(distance_to_set(S, y), near, rtol=0, atol=1e-15)
    p = project_to_set(S, y)
    np.testing.assert_allclose(np.linalg.norm(y - p, axis=1), near, rtol=0, atol=1e-12)
    np.testing.assert_allclose(distance_to_set(S, p), 0.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("E", [union_of_balls([([0.0, 0, 0], 1.0), ([2.5, 0, 0], 1.0)]),
                               union_of_balls([([0.0, 0, 0], 1.0), ([4.0, 0, 0], 2.0), ([0.0, 5.0, 0], 0.5)])],
                         ids=["two", "three"])
def test_disjoint_union_candidates_are_each_balls_grid(E):
    """A disjoint union drops no grid point: its grid is each ball's
    volume-allocated lattice grid, in order, with exactly ``count`` points."""
    x = sample_candidates(E, 1000, seed=4)
    assert len(x) == 1000
    vols = np.array([r ** 3 for _, r in E.balls])
    alloc = np.maximum((1000 * vols / vols.sum()).astype(int), 1)
    alloc[np.argmax(vols)] += 1000 - alloc.sum()
    want = np.concatenate([_lattice_ball(c, r, 3, k, child_seed(4, "candidates", i), solid=True)
                           for i, ((c, r), k) in enumerate(zip(E.balls, alloc))])
    assert x.tobytes() == want.tobytes()


@pytest.mark.parametrize("E", [union_of_balls([([0.0, 0, 0], 1.0), ([2.5, 0, 0], 1.0)]),
                               union_of_balls([([0.0, 0, 0], 1.0), ([4.0, 0, 0], 2.0), ([0.0, 5.0, 0], 0.5)])],
                         ids=["two", "three"])
def test_disjoint_union_draws_keep_their_bits(E):
    """A disjoint union rejects nothing, so its draws are bitwise one
    volume-weighted ball choice, one direction draw and one radius draw,
    and the generator is left where those three leave it."""
    got_rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    got = sample_uniform(E, 1000, got_rng)
    vols = np.array([r ** 3 for _, r in E.balls])
    idx = ref_rng.choice(len(E.balls), size=1000, p=vols / vols.sum())
    center = np.array([c for c, _ in E.balls])[idx]
    radius = np.array([r for _, r in E.balls])[idx, None]
    v = ref_rng.normal(size=(1000, 3))
    v = v / np.linalg.norm(v, axis=1, keepdims=True)
    want = center + radius * ref_rng.random((1000, 1)) ** (1.0 / 3.0) * v
    assert got.tobytes() == want.tobytes()
    assert got_rng.random() == ref_rng.random()


def test_candidates_feasible_all_shapes():
    shapes = [UNIT_BALL, UNIT_SPHERE, box([0.0, 0, 0], [1.0, 2, 1]),
              union_of_balls([([0.0, 0, 0], 1.0), ([4.0, 0, 0], 2.0)])]
    for E in shapes:
        pts = sample_candidates(E, 257, seed=4)
        assert pts.shape == (257, 3)
        assert np.all(distance_to_set(E, pts) <= 1e-9)
    # d = 10: exactly count points, all in the ball and uniform in
    # radius, so about 2**-10 of them lie within radius 1/2
    B10 = ball(np.zeros(10), 1.0)
    pts = sample_candidates(B10, 4096, seed=4)
    assert pts.shape == (4096, 10)
    assert np.all(distance_to_set(B10, pts) <= 1e-9)
    inner = np.mean(np.linalg.norm(pts, axis=1) <= 0.5)
    assert abs(inner * 2 ** 10 - 1.0) <= 0.5


def test_sphere_covering_radius():
    # frozen from the committed provenance ledger: measured 0.0351 at seed 11
    cands = sample_candidates(UNIT_SPHERE, 4096, seed=11)
    rng = substream(11, "covering-probes")
    probes = rng.normal(size=(100, 3))
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    cover = cdist(probes, cands).min(axis=1).max()
    assert cover < 0.12


def test_equilibrium_oracle_ball_values():
    oracle = equilibrium_oracle(UNIT_BALL, SPEC)
    assert oracle.set_model is UNIT_BALL and oracle.spec == SPEC
    assert oracle.robin_constant == 1.0
    assert oracle.green(np.array([2.0, 0, 0])) == 0.5
    assert oracle.green(np.array([0.5, 0, 0])) == 0.0
    assert oracle.potential(np.array([0.25, 0, 0])) == 1.0


def test_oracle_requires_newtonian():
    with pytest.raises(UnsupportedOracleError):
        equilibrium_oracle(UNIT_BALL, KernelSpec(1.5, 3))


def test_oracle_matches_quadrature():
    # analytic potential vs independent surface quadrature at 50 probes
    oracle = equilibrium_oracle(UNIT_BALL, SPEC)
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(50):
        y = rng.normal(size=3)
        y *= rng.uniform(0.2, 3.0) / np.linalg.norm(y)
        if abs(np.linalg.norm(y) - 1.0) < 0.1:
            continue
        q = sphere_potential_quadrature(1.0, SPEC, y, nodes=4000)
        worst = max(worst, abs(q - float(oracle.potential(y))))
    assert worst <= 1e-2


@pytest.mark.parametrize("E", [UNIT_BALL, UNIT_SPHERE], ids=["ball", "sphere"])
def test_green_is_derived_from_robin_constant_and_potential(E):
    """g_E = max(W - U, 0) off E and exactly 0 within 1e-10 of E, read from
    the oracle's own W and U, so replacing the potential moves g_E too."""
    oracle = equilibrium_oracle(E, SPEC)
    rng = np.random.default_rng(17)
    u = rng.normal(size=(200, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    off = u * rng.uniform(1.01, 3.0, size=(200, 1))
    W, U = oracle.robin_constant, oracle.potential
    np.testing.assert_array_equal(oracle.green(off), np.maximum(W - U(off), 0.0))
    near = u * (1.0 + rng.uniform(-1e-10, 1e-10, size=(200, 1)))
    assert np.all(oracle.green(near) == 0.0)
    raised = dataclasses.replace(oracle, potential=lambda x: U(x) + 0.25)
    np.testing.assert_array_equal(raised.green(off), np.maximum(W - U(off) - 0.25, 0.0))
    # no field holds g_E, and the constructor takes no green= keyword
    assert "green" not in {f.name for f in dataclasses.fields(oracle)}
    with pytest.raises(TypeError):
        dataclasses.replace(oracle, green=lambda x: np.ones(len(x)))


def test_green_on_E_does_not_evaluate_the_potential():
    """A potential that is singular on E, as a quadrature-backed one is at
    its support points (a cube's corners among them), still gives g_E = 0
    there, so the closeness functional of the support reads 0."""
    support = PointConfig(np.vstack([np.eye(3), -np.eye(3)]))
    oracle = dataclasses.replace(equilibrium_oracle(UNIT_SPHERE, SPEC),
                                 potential=lambda x: discrete_potential(support, SPEC, x))
    np.testing.assert_array_equal(oracle.green(support.points), np.zeros(6))
    assert oracle.green(support.points[0]) == 0.0
    assert closeness_m_E(support, oracle) == 0.0
    mixed = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 3.0]])
    np.testing.assert_array_equal(oracle.green(mixed), [0.0, 1.0 - discrete_potential(support, SPEC, mixed[1])])


def test_green_positive_exactly_outside():
    for E in (UNIT_BALL, UNIT_SPHERE):
        oracle = equilibrium_oracle(E, SPEC)
        rng = np.random.default_rng(5)
        pts = rng.normal(scale=1.5, size=(500, 3))
        g = np.atleast_1d(oracle.green(pts))
        outside_unbounded = np.linalg.norm(pts, axis=1) > 1.0
        assert np.all((g > 0) == outside_unbounded)


def test_holder_witness_unit_ball():
    # the declared exponent s = 1, with the unit ball's constant A = 1
    # (g_E <= d_E / R**2 in R^3), dominates the Green function outside
    oracle = equilibrium_oracle(UNIT_BALL, SPEC)
    A, s = 1.0, UNIT_BALL.holder_s
    assert s == 1.0
    rng = np.random.default_rng(13)
    pts = rng.normal(size=(1000, 3))
    pts *= (1.0 + 3.0 * rng.random(1000))[:, None] / np.linalg.norm(pts, axis=1)[:, None]
    g = oracle.green(pts)
    d = distance_to_set(UNIT_BALL, pts)
    assert np.all(g <= A * d ** s + 1e-12)


def test_sampler_on_surface_and_deterministic():
    oracle = equilibrium_oracle(UNIT_BALL, SPEC)
    a = oracle.sampler(1000, 3)
    b = oracle.sampler(1000, 3)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)


def test_quadrature_backed_oracle_for_box():
    B = box([0.0, 0, 0], [1.0, 1, 1])
    oracle = equilibrium_oracle(B, SPEC)
    assert oracle.set_model is B and oracle.spec == SPEC
    assert oracle.robin_constant > 0
    # Green vanishes on the set and grows away from it
    assert oracle.green(np.array([0.5, 0.5, 0.5])) == 0.0
    assert oracle.green(np.array([5.0, 5.0, 5.0])) > 0
    # the widened box's faces bound a set that holds the slab, so their
    # maximum is at least the Green function at points at distance t, even
    # below the probes' spacing: the clip onto the cube of a point outside
    # it, plus t along the outward normal there
    v = np.random.default_rng(11).normal(size=(512, 3))
    far = 0.5 + 2.0 * v / np.linalg.norm(v, axis=1, keepdims=True)
    near = np.clip(far, 0.0, 1.0)
    normal = (far - near) / np.linalg.norm(far - near, axis=1, keepdims=True)
    for t in (0.02, 0.1, 0.6):
        shell = near + t * normal
        np.testing.assert_allclose(distance_to_set(B, shell), t, rtol=1e-14)
        assert max_green_on_shell(oracle, t) >= np.max(oracle.green(shell)) > 0.0, t
    # the exact moments are the support's means; its sampler draws the support
    mc, stderr = equilibrium_mean_mc(oracle, _monomials, seed=3)
    assert np.all(np.abs(oracle.moments - mc) <= 4.0 * stderr)


def test_box_read_reaches_the_green_function_at_the_widened_corners():
    """g_E of a convex E has convex sublevel sets, so its maximum over the
    widened box lies at one of its corners, and the read reaches it."""
    B = box([0.0, 0, 0], [1.0, 1, 1])
    oracle = equilibrium_oracle(B, SPEC)
    bits = np.array([[(i >> k) & 1 for k in range(3)] for i in range(8)])
    for t in (0.02, 0.1, 0.5):
        corners = B.low - t + bits * (B.high - B.low + 2 * t)
        assert max_green_on_shell(oracle, t) >= np.max(oracle.green(corners)) > 0.0, t


def test_box_probes_are_the_corners_of_the_widened_box():
    """On a box the Green function's maximum is read at the 2^d corners of
    the box widened by the offset, and nowhere else."""
    B = box([0.0, 0, 0], [1.0, 2, 1])
    bits = np.array([[(i >> k) & 1 for k in range(3)] for i in range(8)])
    for t in (0.02, 0.1):
        np.testing.assert_array_equal(_widened_grid(B, t, 4096), B.low - t + bits * (B.high - B.low + 2 * t))


def _corners_and_faces(B, t, count=4096):
    """The box's earlier probes: the widened box's 2^d corners, then
    lattice points on its faces, each face picked by its area."""
    low, side = B.low - t, B.high - B.low + 2.0 * t
    u = _lattice(child_seed(0, "widened-box"), B.dim + 1, count)
    area = np.repeat(np.prod(side) / side, 2)
    face = np.searchsorted(np.cumsum(area)[:-1] / area.sum(), u[:, -1], side="right")
    out = low + u[:, :-1] * side
    out[np.arange(count), face // 2] = low[face // 2] + (face % 2) * side[face // 2]
    bits = (np.arange(2 ** B.dim)[:, None] >> np.arange(B.dim)) & 1
    out[:len(bits)] = low + bits * side
    return out


@pytest.mark.parametrize("low, high", [([0.0, 0, 0], [1.0, 1, 1]), ([0.0, 0, 0], [1.0, 2, 1]),
                                       ([-1.0, 0, 0], [3.0, 0.5, 0.2])], ids=["unit-cube", "box-1x2x1", "box-4x0.5x0.2"])
def test_box_corner_read_equals_the_face_lattice_read(low, high):
    """No probe on the widened box's faces reads above its corners, so the
    corners alone give the value of the earlier 4096-probe read."""
    oracle = equilibrium_oracle(box(low, high), SPEC)
    for t in (0.02, 0.05, 0.1, 0.2, 0.5, 1.0):
        reference = float(np.max(oracle.green(_corners_and_faces(oracle.set_model, t))))
        assert max_green_on_shell(oracle, t) == reference, t


def test_dimension_four_sphere_candidates_and_oracle():
    S4 = sphere_surface([0.0, 0, 0, 0], 1.0)
    a = sample_candidates(S4, 200, seed=8)
    b = sample_candidates(S4, 200, seed=8)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-9)
    spec4 = KernelSpec(2.0, 4)
    oracle = equilibrium_oracle(S4, spec4)
    assert oracle.set_model is S4 and oracle.spec == spec4
    assert oracle.robin_constant == 1.0
    assert oracle.green(np.array([2.0, 0, 0, 0])) == pytest.approx(1 - 0.25)
    q = sphere_potential_quadrature(1.0, spec4, np.array([0.5, 0, 0, 0]), nodes=4000)
    assert q == pytest.approx(1.0, abs=1e-2)


def test_parse_set_definition_ball():
    E = parse_set_definition("""
    # a unit ball
    shape = ball
    center = 0 0 0
    radius = 1.0
    """)
    assert E.kind == "ball" and E.dim == 3 and E.balls[0][1] == 1.0
    assert E.holder_s == 1.0


def test_parse_set_definition_union_and_holder():
    E = parse_set_definition("""
    shape = union
    ball = 3 0 0 1
    ball = -3, 0, 0, 1
    holder_s = 0.5
    """)
    assert E.kind == "ball" and len(E.balls) == 2
    assert E.holder_s == 0.5
    # a box and a union declare no exponent unless the file gives one
    assert parse_set_definition("shape = box\nlow = 0 0 0\nhigh = 1 1 1\n").holder_s is None
    assert parse_set_definition("shape = union\nball = 0 0 0 1\n").holder_s is None


def test_parse_errors():
    with pytest.raises(SetDefinitionError):
        parse_set_definition("shape = pyramid\n")
    with pytest.raises(SetDefinitionError):
        parse_set_definition("shape = ball\ncenter = 0 0 0\n")  # no radius
    with pytest.raises(SetDefinitionError):
        parse_set_definition("shape = ball\ncenter = 0 0 zero\nradius = 1\n")
    with pytest.raises(SetDefinitionError):
        parse_set_definition("shape = ball\ncenter = 0 0 0\nradius = 1\nholder_A = 1\n")
    with pytest.raises(SetDefinitionError):
        parse_set_definition("shape = ball\ncenter = 0 0 0\nradius = 1\nholder_s = 1.5\n")
