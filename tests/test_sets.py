import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist

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
from rieszpoints.oracles import equilibrium_mean_mc, sphere_potential_quadrature
from rieszpoints.sets import _halton, _monomials, _primes, points_at_offset, sample_shell
from rieszpoints.seeding import substream

SPEC = KernelSpec(2.0, 3)
UNIT_BALL = ball([0.0, 0.0, 0.0], 1.0)
UNIT_SPHERE = sphere_surface([0.0, 0.0, 0.0], 1.0)


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


def test_halton_matches_scipy_bitwise():
    """The module's scrambled Halton draw is scipy's engine, byte for byte
    and in the same column-major layout: ten seeds for each dim 1-11, each
    at counts 1, 2, 512, 4096 and around the largest power b**k <= 512 of
    one of its bases b, where the number of varying digits changes."""
    from scipy.stats import qmc

    for seed in range(110):
        dim = 1 + seed % 11
        b = _primes(dim)[seed % dim]
        power = b ** int(math.log(512, b) + 1e-9)
        for count in (1, 2, 512, 4096, power - 1, power, power + 1):
            ours = _halton(seed, dim, count)
            ref = qmc.Halton(d=dim, scramble=True, seed=np.random.default_rng(seed)).random(count)
            assert ours.tobytes() == ref.tobytes(), (seed, dim, count)
            assert ours.strides == ref.strides


def test_halton_stream_is_pinned():
    """The first points of one draw, written out, so the candidate grids
    stay fixed whatever later scipy releases do to their engine."""
    assert _halton(7, 3, 4).tolist() == [
        [0.9739290315223428, 0.9514162026412822, 0.22224154570517254],
        [0.4739290315223428, 0.618082869307949, 0.6222415457051729],
        [0.7239290315223428, 0.28474953597461544, 0.4222415457051726],
        [0.22392903152234278, 0.7291939804190601, 0.022241545705172554],
    ]


def test_candidates_on_sphere_count_one():
    pts = sample_candidates(UNIT_SPHERE, 1, seed=3)
    assert pts.shape == (1, 3)
    assert abs(np.linalg.norm(pts[0]) - 1.0) <= 1e-12


def test_candidates_deterministic():
    a = sample_candidates(UNIT_SPHERE, 128, seed=9)
    b = sample_candidates(UNIT_SPHERE, 128, seed=9)
    np.testing.assert_array_equal(a, b)
    c = sample_candidates(UNIT_SPHERE, 128, seed=10)
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
