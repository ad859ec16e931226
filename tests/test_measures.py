import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rieszpoints import (
    CoincidentPointsError,
    KernelSpec,
    PointConfig,
    ball,
    closeness_m_E,
    discrete_energy,
    discrete_potential,
    equilibrium_oracle,
    moment_distance,
    read_points_csv,
    sphere_surface,
    write_points_csv,
)
from rieszpoints.discrepancy import _monomials
from rieszpoints.oracles import equilibrium_mean_mc, reference_energy

SPEC = KernelSpec(2.0, 3)
UNIT_BALL = ball([0.0, 0.0, 0.0], 1.0)
UNIT_SPHERE = sphere_surface([0.0, 0.0, 0.0], 1.0)


def unit_edge_tetrahedron():
    pts = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)
    return PointConfig(pts / (2.0 * np.sqrt(2.0)))  # edge length 1


def test_two_points_distance_one():
    X = PointConfig([[0.0, 0, 0], [1.0, 0, 0]])
    assert discrete_energy(X, SPEC) == 1.0


def test_tetrahedron_edge_one():
    assert discrete_energy(unit_edge_tetrahedron(), SPEC) == pytest.approx(1.0, rel=1e-14)


def test_energy_matches_reference_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 60))
        X = PointConfig(rng.random((n, 3)) * 2 - 1)
        e = discrete_energy(X, SPEC)
        ref = reference_energy(X, SPEC)
        assert e == pytest.approx(ref, rel=1e-12)


def test_energy_coincident_points_error():
    X = PointConfig([[0.0, 0, 0], [0.0, 0, 0], [1.0, 0, 0]])
    with pytest.raises(CoincidentPointsError):
        discrete_energy(X, SPEC)


def test_energy_needs_two_points():
    with pytest.raises(ValueError):
        discrete_energy(PointConfig([[0.0, 0, 0]]), SPEC)


def test_permutation_then_sort_bitwise():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(40, 3))
    canon = pts[np.lexsort(pts.T)]
    e0 = discrete_energy(PointConfig(canon), SPEC)
    for seed in range(5):
        perm = np.random.default_rng(seed).permutation(40)
        shuffled = pts[perm]
        resorted = shuffled[np.lexsort(shuffled.T)]
        assert discrete_energy(PointConfig(resorted), SPEC) == e0
        # raw permutation is mathematically equal up to roundoff
        assert discrete_energy(PointConfig(shuffled), SPEC) == pytest.approx(e0, rel=1e-13)


@settings(deadline=None, max_examples=30)
@given(c=st.floats(min_value=1e-2, max_value=1e2))
def test_energy_scaling_law(c):
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(15, 3))
    e = discrete_energy(PointConfig(pts), SPEC)
    e_scaled = discrete_energy(PointConfig(c * pts), SPEC)
    assert e_scaled == pytest.approx(c ** SPEC.exponent * e, rel=1e-10)


def test_potential_examples():
    X = PointConfig([[0.0, 0, 0]])
    assert discrete_potential(X, SPEC, [2.0, 0, 0]) == 0.5
    X2 = PointConfig([[1.0, 0, 0], [-1.0, 0, 0]])
    assert discrete_potential(X2, SPEC, [0.0, 2.0, 0]) == pytest.approx(1 / np.sqrt(5), rel=1e-15)


def test_potential_matches_loop_oracle():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(100, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    X = PointConfig(pts)
    y = np.array([3.0, 0, 0])
    direct = sum(1.0 / np.linalg.norm(y - p) for p in pts) / 100
    assert discrete_potential(X, SPEC, y) == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("y", [[2.0, 0.0], [2.0, 0.0, 0.0, 0.0], [[2.0, 0.0], [0.0, 3.0]],
                               [[2.0, 0.0, 0.0, 0.0], [0.0, 3.0, 0.0, 0.0]]],
                         ids=["2d-probe", "4d-probe", "2d-batch", "4d-batch"])
def test_potential_rejects_a_probe_of_another_dimension(y):
    """A probe whose dimension differs from the configuration's raises
    ValueError naming both, not a potential of the leading coordinates or
    an IndexError from the distance kernel."""
    X = PointConfig([[0.0, 0, 1], [0.0, 1, 0]])
    with pytest.raises(ValueError, match=re.escape(f"probe shape {np.shape(y)} does not match config dimension 3")):
        discrete_potential(X, SPEC, y)


def test_potential_singular_at_config_point():
    X = PointConfig([[1.0, 0, 0], [-1.0, 0, 0]])
    with pytest.raises(CoincidentPointsError):
        discrete_potential(X, SPEC, [1.0, 0, 0])


def test_m_E_zero_inside():
    oracle = equilibrium_oracle(UNIT_BALL, SPEC)
    X = PointConfig([[0.1, 0, 0], [0.0, 0.99, 0], [0.0, 0, -1.0]])
    assert closeness_m_E(X, oracle) == 0.0


def test_m_E_single_outside_point():
    oracle = equilibrium_oracle(UNIT_BALL, SPEC)
    X = PointConfig([[2.0, 0, 0]])
    assert closeness_m_E(X, oracle) == pytest.approx(0.5, abs=1e-12)


def test_m_E_mixed():
    oracle = equilibrium_oracle(UNIT_BALL, SPEC)
    X = PointConfig([[0.5, 0, 0], [2.0, 0, 0]])
    assert closeness_m_E(X, oracle) == pytest.approx(0.25, abs=1e-12)


def test_m_E_bounded_by_robin_constant():
    oracle = equilibrium_oracle(UNIT_BALL, SPEC)
    rng = np.random.default_rng(4)
    for _ in range(20):
        X = PointConfig(rng.normal(scale=5.0, size=(int(rng.integers(1, 30)), 3)))
        m = closeness_m_E(X, oracle)
        assert 0.0 <= m <= oracle.robin_constant


def test_csv_round_trip_preserves_order_and_values(tmp_path):
    rng = np.random.default_rng(3)
    X = PointConfig(rng.normal(size=(17, 4)))
    path = tmp_path / "pts.csv"
    write_points_csv(X, path)
    header = path.read_text().splitlines()[0]
    assert header == "x1,x2,x3,x4"
    Y = read_points_csv(path)
    np.testing.assert_array_equal(X.points, Y.points)


def test_moment_distance_octahedron_and_poles():
    oracle = equilibrium_oracle(UNIT_SPHERE, SPEC)
    # the octahedron +-e_i matches every equilibrium moment of degree <= 2
    # (means 0, x_i^2 means 1/3), and the moments are exact, so it reads 0
    octahedron = PointConfig(np.vstack([np.eye(3), -np.eye(3)]))
    assert moment_distance(octahedron, oracle) <= 1e-15
    # the pole pair's z^2 mean is 1, not 1/3
    poles = PointConfig([[0.0, 0, 1.0], [0.0, 0, -1.0]])
    assert moment_distance(poles, oracle) > 0.5


@pytest.mark.parametrize("E", [ball([0.3, -0.2, 0.1], 1.5), sphere_surface([1.0, 0, 0, -2.0], 0.5)],
                         ids=["ball-3d", "sphere-4d"])
def test_oracle_moments_match_monte_carlo(E):
    oracle = equilibrium_oracle(E, KernelSpec(2.0, E.dim))
    mc, stderr = equilibrium_mean_mc(oracle, _monomials, seed=13)
    assert np.all(np.abs(oracle.moments - mc) <= 4.0 * stderr)
