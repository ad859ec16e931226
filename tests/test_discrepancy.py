import dataclasses
import inspect
import json
import math

import numpy as np
import pytest

from rieszpoints import (
    DiscrepancyReport,
    KernelSpec,
    MissingHolderDataError,
    PointConfig,
    UnsupportedOracleError,
    ball,
    box,
    equilibrium_oracle,
    phi_for_potential,
    radial_hat,
    sphere_surface,
    sup_potential_deficit,
    discrepancy_bound,
    discrete_energy,
    potential_error,
    unit_sphere_area,
)
from rieszpoints.configurations import FeketeSearchParams, fekete_search_run, leja_sequence, random_config
from rieszpoints.discrepancy import TestFunction, max_green_on_shell
from rieszpoints.kernel import potential_sums
from rieszpoints.seeding import child_seed, substream
from rieszpoints.sets import sample_candidates, sample_shell
from rieszpoints.oracles import dirichlet_integral_mc, equilibrium_mean_mc, sphere_potential_quadrature

SPEC = KernelSpec(2.0, 3)
UNIT_BALL = ball([0.0, 0.0, 0.0], 1.0)
UNIT_SPHERE = sphere_surface([0.0, 0.0, 0.0], 1.0)


def test_unit_sphere_area_values():
    assert unit_sphere_area(3) == pytest.approx(4 * math.pi, rel=1e-12)
    assert unit_sphere_area(4) == pytest.approx(2 * math.pi ** 2, rel=1e-12)


def test_phi_for_potential_values():
    y = np.array([2.0, 0, 0])
    phi = phi_for_potential(UNIT_BALL, y, SPEC)
    assert phi.support_radius == 4.0
    assert phi.evaluator(y) == pytest.approx(0.75)
    assert phi.evaluator(np.array([1.0, 0, 0])) == pytest.approx(0.75)
    # truncation: zero once |y-x| + d_E(x) reaches the support radius
    assert phi.evaluator(np.array([-3.0, 0, 0])) == 0.0


def test_phi_support():
    y = np.array([2.0, 0, 0])
    phi = phi_for_potential(UNIT_BALL, y, SPEC)
    rng = np.random.default_rng(1)
    dirs = rng.normal(size=(1000, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    outside = y + dirs * (phi.support_radius + rng.random(1000)[:, None] * 10)
    assert np.all(phi.evaluator(outside) == 0.0)


def test_phi_rejects_inside_probe():
    with pytest.raises(ValueError):
        phi_for_potential(UNIT_BALL, np.array([0.5, 0, 0]), SPEC)


def test_phi_lipschitz_certificate():
    """Random pairs never change a test function by more than its modulus
    model: slope 2 (d-2) sqrt(d) / d_E(y)**(d-1) for the potential test
    function, min(r/a, 1) for the hat."""
    lip = 2 * (3 - 2) * math.sqrt(3) * 1.0 ** (1 - 3)
    cases = [
        (phi_for_potential(UNIT_BALL, np.array([2.0, 0, 0]), SPEC), lambda r: lip * r),
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
    phi = phi_for_potential(UNIT_BALL, y, SPEC)
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
    phi = phi_for_potential(UNIT_BALL, y, SPEC)
    coarse = dirichlet_integral_mc(phi, samples=200_000, seed=5)
    fine = dirichlet_integral_mc(phi, samples=1_000_000, seed=6)
    assert coarse == pytest.approx(fine, rel=0.2)
    # the closed-form bound dominates the measured integral
    assert phi.dirichlet >= fine


@pytest.mark.parametrize("E", [UNIT_SPHERE, UNIT_BALL], ids=["sphere", "ball"])
@pytest.mark.parametrize("offset", [1e-6, 0.1, 2.0])
def test_max_green_on_shell_exact(E, offset):
    # the Green function is constant on each shell about a ball or sphere:
    # g = W - (R + offset)**(2-d) with W = R**(2-d) = 1
    oracle = equilibrium_oracle(E, SPEC)
    g = max_green_on_shell(oracle, offset=offset)
    assert abs(g - (1.0 - 1.0 / (1.0 + offset))) <= 1e-15


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
    assert not rep.vacuous
    assert rep.bound_satisfied


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


def test_discrepancy_bound_vacuous_flag():
    # an artificially negative composite term must flag, not crash: feed an
    # oracle whose Robin constant overstates the energy scale by 9, with its
    # potential raised by 9 too, so that g = W - U is unchanged
    base = equilibrium_oracle(UNIT_SPHERE, SPEC)
    inflated = dataclasses.replace(
        base,
        robin_constant=10.0,
        potential=lambda x: base.potential(x) + 9.0,
        approximate=True,
    )
    X = PointConfig([[0.0, 0, 1.0], [0.0, 0, -1.0]])
    phi = radial_hat([0.5, 0, 0], radius=2.0)
    rep = discrepancy_bound(inflated, X, phi, r=0.1)
    assert rep.I_value < 0
    assert rep.vacuous
    assert rep.bound_satisfied is None


def test_discrepancy_bound_reads_the_oracle_potential():
    # phi_for_potential's equilibrium mean is U^{mu_E}(y) - R**(2-d), so an
    # oracle whose potential is off by +10 puts the lhs near 10. The shift
    # zeroes the derived Green function too: at r = 0.5 the composite term
    # turns negative (about -0.11) and the bound is vacuous; at r = 0.25 it
    # is about 0.22 and the rhs, about 2.75, sits below the lhs
    base = equilibrium_oracle(UNIT_SPHERE, SPEC)
    shifted = dataclasses.replace(base, potential=lambda x: base.potential(x) + 10.0)
    X = PointConfig(np.vstack([np.eye(3), -np.eye(3)]))
    phi = phi_for_potential(UNIT_SPHERE, np.array([2.0, 0, 0]), SPEC)
    rep = discrepancy_bound(shifted, X, phi, r=0.5)
    assert rep.green_term == 0.0
    assert rep.vacuous and rep.bound_satisfied is None
    with pytest.warns(RuntimeWarning, match="discrepancy bound violated"):
        rep = discrepancy_bound(shifted, X, phi, r=0.25)
    assert rep.I_value > 0
    assert rep.lhs > rep.rhs
    assert rep.bound_satisfied is False


def test_bound_and_shell_search_take_no_seed():
    """The shell search runs on one fixed stream, so the bound depends on
    (oracle, X, phi, r) alone."""
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
    phi = phi_for_potential(E, y, SPEC)
    q, err = sphere_potential_quadrature(1.0, SPEC, y, return_error=True)
    mean = phi.equilibrium_mean(equilibrium_oracle(E, SPEC))
    assert abs(mean - (q - 1.0 / phi.support_radius)) <= err


@pytest.mark.parametrize("E", [UNIT_SPHERE, UNIT_BALL, ball([0.3, -0.2, 0.1], 1.5)], ids=["sphere", "ball", "ball-off"])
@pytest.mark.parametrize("make_phi", [
    lambda E: phi_for_potential(E, E.center + E.radius * np.array([1.5, 0.0, 0.0]), SPEC),
    lambda E: phi_for_potential(E, E.center + E.radius * np.array([0.0, 3.0, 2.0]), SPEC),
    lambda E: radial_hat(E.center + E.radius * np.array([0.5, 0.0, 0.0]), radius=2.0 * E.radius),
    lambda E: radial_hat(E.center + E.radius * np.array([0.5, 0.0, 0.0]), radius=E.radius),
    lambda E: radial_hat(E.center + E.radius * np.array([1.2, 0.3, 0.0]), radius=0.6 * E.radius),
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
    with pytest.raises(MissingHolderDataError):
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


def _probe_max_deficit(oracle, X, seed):
    """The earlier seeded estimator: the max of U^{mu_E} - U^{tau(X)} over
    512 grid points of E and 128 points on each of three shells, at 0.05,
    0.15 and 0.4 times the enclosing radius."""
    E = oracle.set_model
    probes = [sample_candidates(E, 512, child_seed(seed, "sup-grid"))]
    rng = substream(seed, "sup-shell")
    for rel in (0.05, 0.15, 0.4):
        probes.append(sample_shell(E, 128, rel * E.enclosing_radius, rng))
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
