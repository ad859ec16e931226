import dataclasses
import inspect
import json
import math

import numpy as np
import pytest

from rieszpoints import (
    DiscrepancyReport,
    KernelSpec,
    PointConfig,
    UnsupportedOracleError,
    ball,
    box,
    equilibrium_oracle,
    phi_for_potential,
    radial_hat,
    sphere_surface,
    sup_potential_deficit,
    union_of_balls,
    discrepancy_bound,
    discrete_energy,
    moment_distance,
    potential_error,
)
from rieszpoints import discrepancy
from rieszpoints.configurations import FeketeSearchParams, fekete_search_run, leja_sequence, random_config
from rieszpoints.discrepancy import TestFunction, max_green_on_shell, unit_sphere_area
from rieszpoints.kernel import potential_sums
from rieszpoints.seeding import child_seed, substream
from rieszpoints.sets import random_directions, sample_candidates
from rieszpoints.oracles import dirichlet_integral_mc, equilibrium_mean_mc, sphere_potential_quadrature

SPEC = KernelSpec(2.0, 3)
UNIT_BALL = ball([0.0, 0.0, 0.0], 1.0)
UNIT_SPHERE = sphere_surface([0.0, 0.0, 0.0], 1.0)


def test_unit_sphere_area_values():
    assert unit_sphere_area(3) == pytest.approx(4 * math.pi, rel=1e-12)
    assert unit_sphere_area(4) == pytest.approx(2 * math.pi ** 2, rel=1e-12)


def test_phi_for_potential_values():
    y = np.array([2.0, 0, 0])
    phi = phi_for_potential(UNIT_BALL, y)
    assert phi.support_radius == 4.0
    assert phi.evaluator(y[None]) == pytest.approx(0.75)
    assert phi.evaluator(np.array([1.0, 0, 0])[None]) == pytest.approx(0.75)
    # truncation: zero once |y-x| + d_E(x) reaches the support radius
    assert phi.evaluator(np.array([-3.0, 0, 0])[None]) == 0.0


def test_phi_support():
    y = np.array([2.0, 0, 0])
    phi = phi_for_potential(UNIT_BALL, y)
    rng = np.random.default_rng(1)
    dirs = rng.normal(size=(1000, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    outside = y + dirs * (phi.support_radius + rng.random(1000)[:, None] * 10)
    assert np.all(phi.evaluator(outside) == 0.0)


def test_phi_support_holds_an_unequal_union():
    """On an unequal union the support radius R = 2 * enclosing_radius
    + d_E(y) + 1 exceeds the union's diameter plus d_E(y) + 1, yet still
    bounds |y - x| over E, so on E phi is the untruncated kernel minus
    R**(2-d), and lhs is the one with R = diameter + d_E(y) + 1."""
    U = union_of_balls([([0.0, 0, 0], 1.0), ([2.5, 0, 0], 0.5)])
    y = np.array([-2.0, 0, 0])
    phi = phi_for_potential(U, y)
    assert U.enclosing_radius == 2.25 and phi.support_radius == 4.5 + 1.0 + 1.0
    pts = np.vstack([sample_candidates(U, 20_000, seed=2), [[3.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]]])
    values = phi.evaluator(pts)
    assert np.all(values > 0.0)
    np.testing.assert_allclose(values, 1.0 / np.linalg.norm(y - pts, axis=1) - 1.0 / phi.support_radius,
                               rtol=1e-14, atol=0)
    oracle = equilibrium_oracle(U, SPEC)
    X = PointConfig(sample_candidates(U, 200, seed=5))
    rep = discrepancy_bound(oracle, X, phi, r=0.1)
    tail = 1.0 / (4.0 + 1.0 + 1.0)
    old_lhs = abs(float(np.mean(1.0 / np.linalg.norm(y - X.points, axis=1) - tail))
                  - (float(oracle.potential(y)) - tail))
    assert abs(rep.lhs - old_lhs) <= 1e-15


def test_phi_rejects_inside_probe():
    with pytest.raises(ValueError):
        phi_for_potential(UNIT_BALL, np.array([0.5, 0, 0]))


def test_phi_lipschitz_certificate():
    """Random pairs never change a test function by more than its modulus
    model: slope 2 (d-2) sqrt(d) / d_E(y)**(d-1) for the potential test
    function, min(r/a, 1) for the hat."""
    lip = 2 * (3 - 2) * math.sqrt(3) * 1.0 ** (1 - 3)
    cases = [
        (phi_for_potential(UNIT_BALL, np.array([2.0, 0, 0])), lambda r: lip * r),
        (radial_hat([0.5, 0, 0], radius=2.0), lambda r: min(r / 2.0, 1.0)),
    ]
    for f, model in cases:
        rng = np.random.default_rng(2)
        a = f.support_center + rng.normal(scale=2.0, size=(10_000, 3))
        b = a + rng.normal(scale=0.5, size=(10_000, 3))
        num = np.abs(f.evaluator(a) - f.evaluator(b))
        den = np.linalg.norm(a - b, axis=1)
        bound = np.array([f.modulus_model(t) for t in den])
        assert np.array_equal(bound, [model(t) for t in den])
        assert np.all(num <= bound + 1e-12)


def test_modulus_model_value():
    y = np.array([2.0, 0, 0])
    phi = phi_for_potential(UNIT_BALL, y)
    # d_E(y) = 1, d = 3: slope 2 * 1 * sqrt(3)
    assert phi.modulus_model(0.1) == pytest.approx(2 * math.sqrt(3) * 0.1, rel=1e-12)


def test_dirichlet_hat_exact_and_mc():
    hat = radial_hat([0.0, 0, 0], radius=1.0)
    assert hat.dirichlet == pytest.approx(4 * math.pi / 3, rel=1e-12)
    mc = dirichlet_integral_mc(hat, samples=100_000, seed=4)
    assert mc == pytest.approx(4 * math.pi / 3, rel=0.05)
    # the Monte Carlo ball draw leaves the caller's center writable
    assert hat.support_center.flags.writeable


def test_dirichlet_mc_self_consistency_for_potential_phi():
    y = np.array([2.0, 0, 0])
    phi = phi_for_potential(UNIT_BALL, y)
    coarse = dirichlet_integral_mc(phi, samples=200_000, seed=5)
    fine = dirichlet_integral_mc(phi, samples=1_000_000, seed=6)
    assert coarse == pytest.approx(fine, rel=0.2)
    # the closed-form bound dominates the measured integral
    assert phi.dirichlet >= fine


@pytest.mark.parametrize("E", [
    UNIT_SPHERE,
    UNIT_BALL,
    ball([0.3, -1.0, 2.0], 2.5),
], ids=["sphere", "ball", "ball-off-centre"])
@pytest.mark.parametrize("offset", [1e-6, 0.1, 2.0])
def test_max_green_on_shell_exact(E, offset):
    # the Green function is constant on each shell about a ball or sphere:
    # g = W - (R + offset)**(2-d) with W = R**(2-d)
    oracle = equilibrium_oracle(E, SPEC)
    g = max_green_on_shell(oracle, offset=offset)
    R = E.balls[0][1]
    assert abs(g - (1.0 / R - 1.0 / (R + offset))) <= 1e-15


def test_one_ball_union_gets_the_closed_form_oracle(monkeypatch):
    """A union of one ball is that ball: its oracle is the closed form,
    W = 1/R exactly, with no support solve."""
    monkeypatch.setattr(discrepancy, "fekete_search_run", None)
    E = union_of_balls([([0.5, -1, 2], 2.5)])
    oracle = equilibrium_oracle(E, SPEC)
    assert E.kind == "ball" and oracle.set_model is E
    assert oracle.robin_constant == 1.0 / 2.5
    ball_oracle = equilibrium_oracle(ball([0.5, -1, 2], 2.5), SPEC)
    assert oracle.moments.tobytes() == ball_oracle.moments.tobytes()
    y = np.array([[4.0, 0, 0], [0.5, -1, 2]])
    assert oracle.potential(y).tobytes() == ball_oracle.potential(y).tobytes()


def test_quadrature_backed_oracle_solves_its_support_on_each_call(monkeypatch):
    """No support outlives its oracle: two oracles on one box run two
    solves, each records its caller's set, and each solve warns on its own
    when it stops before converging."""
    solved, supports = [], []

    def small_solve(E, spec, params):
        run = fekete_search_run(E, spec, dataclasses.replace(params, n=40, max_iters=5))
        solved.append(E)
        supports.append(run.config)
        return run

    monkeypatch.setattr(discrepancy, "fekete_search_run", small_solve)
    bare, declared = box([0.0, 0, 0], [1.0, 1, 1]), box([0.0, 0, 0], [1.0, 1, 1], holder_s=0.5)
    with pytest.warns(RuntimeWarning, match="before converging"):
        first = equilibrium_oracle(bare, SPEC)
    with pytest.warns(RuntimeWarning, match="before converging"):
        second = equilibrium_oracle(declared, SPEC)
    assert len(solved) == 2 and solved[0] is bare and solved[1] is declared
    assert first.set_model is bare and second.set_model is declared
    assert first.robin_constant == second.robin_constant
    assert first.moments.tobytes() == second.moments.tobytes()
    assert not any(support.points.flags.writeable for support in supports)


def test_discrepancy_bound_composite_term_antipodal_pair():
    # analytic arithmetic: I = 0 + (1/2)(0.5) - 1 + 0.5 + 2*(2/3) = 13/12
    X = PointConfig([[0.0, 0, 1.0], [0.0, 0, -1.0]])
    oracle = equilibrium_oracle(UNIT_SPHERE, SPEC)
    phi = radial_hat([0.5, 0, 0], radius=2.0)
    rep = discrepancy_bound(oracle, X, phi, r=1.0)
    assert rep.I_value == pytest.approx(13.0 / 12.0, abs=1e-9)
    assert rep.m_term == 0.0
    assert rep.smoothing_term == pytest.approx(0.5)
    assert rep.energy_gap == pytest.approx(0.25 - 1.0)
    assert rep.lhs <= rep.rhs


def test_discrepancy_bound_zero_phi():
    zero = TestFunction(
        evaluator=lambda x: np.zeros(np.asarray(x).shape[0]) if np.asarray(x).ndim > 1 else 0.0,
        support_center=np.zeros(3),
        support_radius=1.0,
        modulus_model=lambda r: 0.0,
        dirichlet=0.0,
        equilibrium_mean=lambda oracle: 0.0,
    )
    X = PointConfig([[0.0, 0, 1.0], [0.0, 0, -1.0]])
    oracle = equilibrium_oracle(UNIT_SPHERE, SPEC)
    rep = discrepancy_bound(oracle, X, zero, r=0.5)
    assert rep.lhs == 0.0
    assert rep.lhs <= rep.rhs


def test_discrepancy_bound_warns_on_a_negative_composite_term():
    # the composite term bounds a Newtonian energy, which is >= 0, so a
    # negative one comes only from a wrong oracle and must warn, not pass:
    # feed an oracle whose Robin constant overstates the energy scale by 9,
    # with its potential raised by 9 too, so that g = W - U is unchanged
    base = equilibrium_oracle(UNIT_SPHERE, SPEC)
    inflated = dataclasses.replace(
        base,
        robin_constant=10.0,
        potential=lambda x: base.potential(x) + 9.0,
    )
    X = PointConfig([[0.0, 0, 1.0], [0.0, 0, -1.0]])
    phi = radial_hat([0.5, 0, 0], radius=2.0)
    with pytest.warns(RuntimeWarning, match="discrepancy bound violated"):
        rep = discrepancy_bound(inflated, X, phi, r=0.1)
    assert rep.I_value < 0


def test_discrepancy_bound_reads_the_oracle_potential():
    # phi_for_potential's equilibrium mean is U^{mu_E}(y) - R**(2-d), so an
    # oracle whose potential is off by +10 puts the lhs near 10. The shift
    # zeroes the derived Green function too: at r = 0.5 the composite term
    # turns negative (about -0.11), which no correct oracle gives; at
    # r = 0.25 it is about 0.22 and the rhs, about 2.75, sits below the lhs.
    # Both warn
    base = equilibrium_oracle(UNIT_SPHERE, SPEC)
    shifted = dataclasses.replace(base, potential=lambda x: base.potential(x) + 10.0)
    X = PointConfig(np.vstack([np.eye(3), -np.eye(3)]))
    phi = phi_for_potential(UNIT_SPHERE, np.array([2.0, 0, 0]))
    with pytest.warns(RuntimeWarning, match="discrepancy bound violated"):
        rep = discrepancy_bound(shifted, X, phi, r=0.5)
    assert rep.green_term == 0.0
    assert rep.I_value < 0
    with pytest.warns(RuntimeWarning, match="discrepancy bound violated"):
        rep = discrepancy_bound(shifted, X, phi, r=0.25)
    assert rep.I_value > 0
    assert rep.lhs > rep.rhs


def test_bound_and_shell_search_take_no_seed():
    """The Green-function maximum reads fixed probes, so the bound depends
    on (oracle, X, phi, r) alone."""
    assert "seed" not in inspect.signature(discrepancy_bound).parameters
    assert "seed" not in inspect.signature(max_green_on_shell).parameters


def test_discrepancy_bound_hat_off_ball_is_unsupported():
    # the hat's closed form reads only the oracle's set, so the unit ball's
    # oracle relabelled as the unit cube reaches the raise without the 2.5 s
    # Fekete solve of a box oracle
    cube = dataclasses.replace(equilibrium_oracle(UNIT_BALL, SPEC), set_model=box([0.0, 0, 0], [1.0, 1, 1]))
    X = PointConfig([[0.5, 0.5, 0.5], [0.25, 0.5, 0.5]])
    with pytest.raises(UnsupportedOracleError, match="ball or sphere"):
        discrepancy_bound(cube, X, radial_hat([0.5, 0, 0], radius=2.0), r=0.5)


@pytest.mark.parametrize("E", [UNIT_SPHERE, UNIT_BALL], ids=["sphere", "ball"])
@pytest.mark.parametrize("probe", [1.5, 2.0, 3.0])
def test_phi_for_potential_mean_matches_quadrature(E, probe):
    y = np.array([probe, 0.0, 0.0])
    phi = phi_for_potential(E, y)
    q, err = sphere_potential_quadrature(1.0, SPEC, y)
    mean = phi.equilibrium_mean(equilibrium_oracle(E, SPEC))
    assert abs(mean - (q - 1.0 / phi.support_radius)) <= err


def _at(E, *offset):
    """The point c + R * offset of the ball or sphere E."""
    c, R = E.balls[0]
    return c + R * np.array(offset)


@pytest.mark.parametrize("E", [UNIT_SPHERE, UNIT_BALL, ball([0.3, -0.2, 0.1], 1.5)], ids=["sphere", "ball", "ball-off"])
@pytest.mark.parametrize("make_phi", [
    lambda E: phi_for_potential(E, _at(E, 1.5, 0.0, 0.0)),
    lambda E: phi_for_potential(E, _at(E, 0.0, 3.0, 2.0)),
    lambda E: radial_hat(_at(E, 0.5, 0.0, 0.0), radius=2.0 * E.balls[0][1]),
    lambda E: radial_hat(_at(E, 0.5, 0.0, 0.0), radius=E.balls[0][1]),
    lambda E: radial_hat(_at(E, 1.2, 0.3, 0.0), radius=0.6 * E.balls[0][1]),
], ids=["pfp-1.5", "pfp-far", "hat-matrix", "hat-cut", "hat-rim"])
def test_equilibrium_means_match_monte_carlo(E, make_phi):
    phi = make_phi(E)
    oracle = equilibrium_oracle(E, SPEC)
    mc, stderr = equilibrium_mean_mc(oracle, phi.evaluator, seed=11)
    assert stderr > 0.0
    assert abs(phi.equilibrium_mean(oracle) - mc) <= 4.0 * stderr


def test_radial_hat_mean_closed_form_edges():
    oracle = equilibrium_oracle(UNIT_SPHERE, SPEC)
    # centred hat: every point of the sphere sits at rho = 1
    assert radial_hat([0.0, 0, 0], radius=4.0).equilibrium_mean(oracle) == 0.75
    assert radial_hat([0.0, 0, 0], radius=0.5).equilibrium_mean(oracle) == 0.0
    # support ball disjoint from the sphere
    assert radial_hat([3.0, 0, 0], radius=1.5).equilibrium_mean(oracle) == 0.0


@pytest.mark.parametrize("center,radius", [
    ([0.0, 0, 0], -1.0),
    ([0.0, 0, 0], 0.0),
    ([0.0, 0, 0], math.nan),
    ([0.0, 0, 0], math.inf),
    ([math.nan, 0, 0], 1.0),
    ([0.0, math.inf, 0], 1.0),
])
def test_radial_hat_rejects_a_bad_center_or_radius(center, radius):
    with pytest.raises(ValueError):
        radial_hat(center, radius)


def test_report_json_keys():
    X = PointConfig([[0.0, 0, 1.0], [0.0, 0, -1.0]])
    oracle = equilibrium_oracle(UNIT_SPHERE, SPEC)
    phi = radial_hat([0.5, 0, 0], radius=2.0)
    rep = discrepancy_bound(oracle, X, phi, r=0.5)
    payload = json.loads(json.dumps(dataclasses.asdict(rep)))
    assert set(payload) == {f.name for f in dataclasses.fields(DiscrepancyReport)}
    # the stored rhs reproduces its defining combination
    expected = payload["omega_term"] + math.sqrt(
        phi.dirichlet / ((3 - 2) * unit_sphere_area(3))
    ) * math.sqrt(max(payload["I_value"], 0.0))
    assert payload["rhs"] == pytest.approx(expected, rel=1e-12)


def test_bound_energy_term_examples():
    """The bound's smoothed self-energy (n-1)/n * energy + r**(2-d)/n, read
    back from the report as energy_gap + W + smoothing_term."""
    oracle = equilibrium_oracle(UNIT_BALL, SPEC)
    phi = radial_hat([0.5, 0, 0], radius=2.0)
    pair = PointConfig([[-0.5, 0, 0], [0.5, 0, 0]])  # distance 1
    tetra = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / (2.0 * math.sqrt(2.0))  # edge 1
    for X, r, expected in [(pair, 1.0, 1.0), (pair, 0.5, 1.5), (PointConfig(tetra), 1.0, 1.0)]:
        rep = discrepancy_bound(oracle, X, phi, r)
        assert rep.energy == discrete_energy(X, SPEC)
        got = rep.energy_gap + oracle.robin_constant + rep.smoothing_term
        assert got == pytest.approx(expected, rel=1e-14)


def test_potential_error_shapes():
    # p = s/(d+s-2) = 1/2 at d=3, s=1; shape at n=100, d_E=1 is
    # 100**-0.5 + 100**-0.25
    oracle = equilibrium_oracle(UNIT_SPHERE, SPEC)
    X = PointConfig(oracle.sampler(100, 9))
    measured, shape = potential_error(oracle, X, np.array([2.0, 0, 0]))
    assert shape == pytest.approx(100 ** -0.5 + 100 ** -0.25, rel=1e-12)
    assert measured >= 0


def test_potential_error_mc_configs_converge():
    oracle = equilibrium_oracle(UNIT_SPHERE, SPEC)
    X = PointConfig(oracle.sampler(10_000, 10))
    measured, _ = potential_error(oracle, X, np.array([2.0, 0, 0]))
    assert measured < 0.02


def test_potential_error_requires_holder_and_inside_config():
    no_holder = sphere_surface([0.0, 0, 0], 1.0, holder_s=None)
    oracle = equilibrium_oracle(no_holder, SPEC)
    X = PointConfig(oracle.sampler(10, 1))
    with pytest.raises(UnsupportedOracleError, match="Holder exponent"):
        potential_error(oracle, X, np.array([2.0, 0, 0]))
    oracle2 = equilibrium_oracle(UNIT_SPHERE, SPEC)
    outside = PointConfig([[3.0, 0, 0], [0.0, 0, 1.0]])
    with pytest.raises(ValueError):
        potential_error(oracle2, outside, np.array([2.0, 0, 0]))
    # a probe inside the solid ball sits in E, not in its complement
    oracle3 = equilibrium_oracle(UNIT_BALL, SPEC)
    with pytest.raises(ValueError):
        potential_error(oracle3, PointConfig(oracle3.sampler(5, 2)), np.array([0.2, 0, 0]))


def test_sup_deficit_directions():
    oracle = equilibrium_oracle(UNIT_SPHERE, SPEC)
    far = PointConfig([[50.0, 0, 0]])
    big = sup_potential_deficit(oracle, far)
    # a distant charge contributes almost nothing on E: its least
    # potential on the sphere is at (-1, 0, 0)
    assert big == pytest.approx(1.0 - 1.0 / 51.0, rel=0.0, abs=1e-14)
    mc = PointConfig(oracle.sampler(10_000, 11))
    small = sup_potential_deficit(oracle, mc)
    assert small < 0.05


def test_sup_deficit_decreases_with_n():
    oracle = equilibrium_oracle(UNIT_SPHERE, SPEC)
    small_n = fekete_search_run(UNIT_SPHERE, SPEC, FeketeSearchParams(n=20, restarts=2, seed=8)).config
    large_n = fekete_search_run(UNIT_SPHERE, SPEC,
                                FeketeSearchParams(n=200, restarts=1, max_iters=1200, seed=8)).config
    d_small = sup_potential_deficit(oracle, small_n)
    d_large = sup_potential_deficit(oracle, large_n)
    assert d_large < d_small


_A = math.sqrt(2.0 - 2.0 / math.sqrt(3.0))
_B = math.sqrt(2.0 + 2.0 / math.sqrt(3.0))
OCTAHEDRON = np.vstack([np.eye(3), -np.eye(3)])


@pytest.mark.parametrize("E,points,expected", [
    # antipodal pair: least potential on the equator, sqrt(2) from both
    (UNIT_SPHERE, [[0.0, 0, 1.0], [0.0, 0, -1.0]], 1.0 - 1.0 / math.sqrt(2.0)),
    # octahedron: least potential at the face centres, three vertices at
    # distance a and three at b
    (UNIT_SPHERE, OCTAHEDRON, 1.0 - (3.0 / _A + 3.0 / _B) / 6.0),
    # a charge inside the ball: its boundary sphere carries the minimum
    (UNIT_BALL, [[0.5, 0, 0]], 1.0 - 1.0 / 1.5),
], ids=["antipodal-pair", "octahedron", "ball-inner-charge"])
def test_sup_deficit_closed_forms(E, points, expected):
    oracle = equilibrium_oracle(E, SPEC)
    assert sup_potential_deficit(oracle, PointConfig(points)) == pytest.approx(expected, rel=0.0, abs=1e-14)


@pytest.mark.parametrize("measure,points", [
    (sup_potential_deficit, [[0.0, 1.0]]),
    (sup_potential_deficit, [[0.0, 0, 0, 1.0]]),
    (lambda oracle, X: moment_distance(X, oracle), np.eye(4)),
    (lambda oracle, X: discrepancy_bound(oracle, X, radial_hat([0.5, 0, 0], radius=2.0), r=0.5), np.eye(4)),
], ids=["2d", "4d", "moment-distance-4d", "discrepancy-bound-4d"])
def test_sup_deficit_rejects_points_of_another_dimension(measure, points):
    """Every measure of a configuration against an oracle refuses one of
    another dimension with the same one-line message."""
    oracle = equilibrium_oracle(UNIT_SPHERE, SPEC)
    with pytest.raises(ValueError, match="^config dimension .* != kernel dimension 3$"):
        measure(oracle, PointConfig(points))


def _probe_max_deficit(oracle, X, seed):
    """The earlier seeded estimator: the max of U^{mu_E} - U^{tau(X)} over
    512 grid points of E and 128 random points on each sphere at distance
    0.05, 0.15 and 0.4 times the radius R from E: radius R(1 + rel), and
    on a sphere also R(1 - rel)."""
    E = oracle.set_model
    c, R = E.balls[0]
    probes = [sample_candidates(E, 512, child_seed(seed, "sup-grid"))]
    rng = substream(seed, "sup-shell")
    scales = [1.0 + rel for rel in (0.05, 0.15, 0.4)]
    if E.kind == "sphere":
        scales += [1.0 - rel for rel in (0.05, 0.15, 0.4)]
    for scale in scales:
        probes.append(c + scale * R * random_directions(rng, 128, E.dim))
    probes = np.concatenate(probes)
    u = potential_sums(SPEC, probes, X.points)
    keep = np.isfinite(u)
    return float((oracle.potential(probes[keep]) - u[keep] / X.n).max())


@pytest.mark.parametrize("E", [UNIT_BALL, UNIT_SPHERE], ids=["ball", "sphere"])
def test_sup_deficit_is_at_least_every_seeded_probe_maximum(E):
    oracle = equilibrium_oracle(E, SPEC)
    leja = leja_sequence(E, SPEC, 200, [0.0, 0, 1.0], seed=1)
    for X in (leja.prefix(50), leja, random_config(E, 50, seed=1), random_config(E, 200, seed=1)):
        value = sup_potential_deficit(oracle, X)
        assert value >= max(_probe_max_deficit(oracle, X, seed) for seed in range(10)), X.n
