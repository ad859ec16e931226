import dataclasses

import numpy as np
import pytest
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist
from scipy.special import ndtri

from rieszpoints import (
    KernelSpec,
    SetDefinitionError,
    UnsupportedOracleError,
    ball,
    box,
    distance_to_set,
    equilibrium_oracle,
    parse_set_definition,
    project_to_set,
    sample_candidates,
    sphere_surface,
    union_of_balls,
)
from rieszpoints.discrepancy import max_green_on_shell
from rieszpoints.oracles import equilibrium_mean_mc, sphere_potential_quadrature
from rieszpoints.sets import _lattice, _lattice_ball, _monomials, points_at_offset, sample_shell, sample_uniform
from rieszpoints.seeding import substream

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
    assert not oracle.approximate


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
    # no field holds g_E; a green= keyword is accepted and dropped
    assert "green" not in {f.name for f in dataclasses.fields(oracle)}
    ignored = dataclasses.replace(oracle, green=lambda x: np.ones(len(x)))
    np.testing.assert_array_equal(ignored.green(off), oracle.green(off))


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
    assert oracle.approximate
    assert oracle.robin_constant > 0
    # Green vanishes on the set and grows away from it
    assert oracle.green(np.array([0.5, 0.5, 0.5])) == 0.0
    assert oracle.green(np.array([5.0, 5.0, 5.0])) > 0
    # the shell search runs on one fixed stream
    assert max_green_on_shell(oracle, 0.1) == max_green_on_shell(oracle, 0.1)
    # the exact moments are the support's means; its sampler draws the support
    mc, stderr = equilibrium_mean_mc(oracle, _monomials, seed=3)
    assert np.all(np.abs(oracle.moments - mc) <= 4.0 * stderr)


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


def test_points_at_offset():
    shapes = [
        UNIT_BALL,
        UNIT_SPHERE,
        sphere_surface([0.0, 0, 0, 0], 1.0),
        box([0.0, 0, 0], [1.0, 2, 1]),
        union_of_balls([([-1.0, 0, 0], 1.0), ([1.0, 0, 0], 1.0)]),
        union_of_balls([([0.0, 0, 0], 1.0), ([1.5, 0, 0], 1.0), ([0.7, 1.2, 0], 0.8)]),
    ]
    for E in shapes:
        for rel in (1e-9, 1e-5, 1e-3, 1e-2, 0.1, 1.0, 10.0):
            offset = rel * E.enclosing_radius
            shell = sample_shell(E, 512, offset, np.random.default_rng(3))
            assert shell.shape == (512, E.dim), (E.kind, offset)
            assert np.all(np.abs(distance_to_set(E, shell) - offset) <= 1e-12 * max(1.0, offset)), (E.kind, offset)
        # a seed at a center, or on a face of the box
        seeds = np.array([[0.5, 1.0, 0.0], [0.5, 1.0, 0.5]]) if E.kind == "box" else np.zeros((1, E.dim))
        for offset in (0.25, 3.0):
            np.testing.assert_allclose(distance_to_set(E, points_at_offset(E, seeds, offset)), offset, rtol=1e-15)


def test_parse_set_definition_ball():
    E = parse_set_definition("""
    # a unit ball
    shape = ball
    center = 0 0 0
    radius = 1.0
    """)
    assert E.kind == "ball" and E.dim == 3 and E.radius == 1.0
    assert E.holder_s == 1.0


def test_parse_set_definition_union_and_holder():
    E = parse_set_definition("""
    shape = union
    ball = 3 0 0 1
    ball = -3, 0, 0, 1
    holder_s = 0.5
    """)
    assert E.kind == "union" and len(E.balls) == 2
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
