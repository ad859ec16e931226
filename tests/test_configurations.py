import warnings

import numpy as np
import pytest

from rieszpoints import (
    CoincidentPointsError,
    FeketeSearchParams,
    InfeasiblePointError,
    KernelSpec,
    LejaState,
    PointConfig,
    ball,
    box,
    discrete_energy,
    distance_to_set,
    fekete_search_run,
    leja_next,
    leja_sequence,
    random_config,
    sample_candidates,
    sphere_surface,
    union_of_balls,
)
from rieszpoints import configurations
from rieszpoints.discrepancy import potential_error, sphere_probe_rule
from rieszpoints.kernel import potential_sums
from rieszpoints.oracles import reference_energy
from rieszpoints.seeding import substream
from rieszpoints.sets import MEMBERSHIP_TOL, equilibrium_oracle, project_to_set, random_rotation, sample_uniform

SPEC = KernelSpec(2.0, 3)
UNIT_SPHERE = sphere_surface([0.0, 0.0, 0.0], 1.0)
UNIT_BALL = ball([0.0, 0.0, 0.0], 1.0)

GOLDEN = np.sqrt(5.0) / 2.0 + 0.5


def known_optimum_energy(n):
    """Energies of the classical optimal sphere configurations, evaluated
    through the independent reference sum on exact coordinates."""
    if n == 2:
        pts = [[0, 0, 1.0], [0, 0, -1.0]]
    elif n == 3:
        pts = [[1.0, 0, 0], [-0.5, np.sqrt(3) / 2, 0], [-0.5, -np.sqrt(3) / 2, 0]]
    elif n == 4:
        pts = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3.0)
    elif n == 6:
        pts = np.vstack([np.eye(3), -np.eye(3)])
    elif n == 12:
        raw = []
        for a, b in [(0.0, 1.0), (0.0, -1.0)]:
            for i in range(3):
                for s in (1.0, -1.0):
                    v = np.zeros(3)
                    v[i] = s * GOLDEN
                    v[(i + 1) % 3] = b
                    raw.append(v)
        pts = np.array(raw) / np.sqrt(1.0 + GOLDEN ** 2)
    else:
        raise ValueError(n)
    return reference_energy(PointConfig(np.asarray(pts, dtype=float)), SPEC)


def test_fekete_two_points_antipodal():
    cfg = fekete_search_run(UNIT_SPHERE, SPEC, FeketeSearchParams(n=2, restarts=4, seed=0)).config
    assert discrete_energy(cfg, SPEC) == pytest.approx(0.5, abs=1e-6)
    assert np.dot(cfg.points[0], cfg.points[1]) == pytest.approx(-1.0, abs=1e-6)


def test_fekete_tetrahedron():
    cfg = fekete_search_run(UNIT_SPHERE, SPEC, FeketeSearchParams(n=4, restarts=4, seed=0)).config
    assert discrete_energy(cfg, SPEC) == pytest.approx(0.6123724356957945, abs=1e-4)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 12])
def test_fekete_reproduces_known_optima(n):
    cfg = fekete_search_run(UNIT_SPHERE, SPEC, FeketeSearchParams(n=n, restarts=6, seed=1)).config
    assert discrete_energy(cfg, SPEC) == pytest.approx(known_optimum_energy(n), abs=1e-4)


def test_fekete_below_robin_constant():
    cfg = fekete_search_run(UNIT_SPHERE, SPEC, FeketeSearchParams(n=50, restarts=3, seed=2)).config
    assert discrete_energy(cfg, SPEC) < 1.0


def test_fekete_feasible_and_deterministic():
    params = FeketeSearchParams(n=20, restarts=2, seed=5)
    a = fekete_search_run(UNIT_BALL, SPEC, params).config
    b = fekete_search_run(UNIT_BALL, SPEC, params).config
    np.testing.assert_array_equal(a.points, b.points)
    assert np.all(distance_to_set(UNIT_BALL, a.points) <= 1e-9)


def test_fekete_beats_every_initial_config():
    run = fekete_search_run(UNIT_SPHERE, SPEC, FeketeSearchParams(n=15, restarts=5, seed=3))
    # restart r starts from the projected uniform draw of its own substream
    starts = [project_to_set(UNIT_SPHERE, sample_uniform(UNIT_SPHERE, 15, substream(3, "fekete-init", r)))
              for r in range(5)]
    assert run.energy <= min(discrete_energy(PointConfig(X0), SPEC) for X0 in starts)
    assert run.energy == discrete_energy(run.config, SPEC)


def test_fekete_energies_nondecreasing_small_range():
    es = [
        fekete_search_run(UNIT_SPHERE, SPEC, FeketeSearchParams(n=n, restarts=4, seed=7)).energy
        for n in range(2, 11)
    ]
    assert all(b >= a - 1e-5 for a, b in zip(es, es[1:]))


@pytest.mark.parametrize("E, n", [(UNIT_SPHERE, 200), (UNIT_BALL, 50), (box([0, 0, 0], [1, 2, 1]), 100)],
                         ids=["sphere-200", "ball-50", "box-100"])
def test_fekete_converges_on_projected_gradient(E, n):
    params = FeketeSearchParams(n=n, restarts=1, seed=11)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        run = fekete_search_run(E, SPEC, params)
    assert run.converged
    assert run.grad_norm <= np.sqrt(params.tol)
    assert run.iterations < params.max_iters
    assert np.all(distance_to_set(E, run.config.points) <= 1e-9)


def test_fekete_reports_the_iteration_cap():
    params = FeketeSearchParams(n=30, restarts=1, max_iters=5, seed=11)
    with pytest.warns(RuntimeWarning, match="fekete_search hit max_iters=5"):
        run = fekete_search_run(UNIT_SPHERE, SPEC, params)
    assert not run.converged
    assert run.iterations == 5
    assert run.grad_norm > np.sqrt(params.tol)


@pytest.fixture(scope="module")
def sphere_minimizers():
    return {
        n: fekete_search_run(UNIT_SPHERE, SPEC, FeketeSearchParams(n=n, restarts=3, tol=1e-14, seed=4))
        for n in (25, 50, 100, 200, 400)
    }


@pytest.mark.parametrize("n", [100, 200, 400])
def test_fekete_sphere_energy_asymptotics(sphere_minimizers, n):
    # minimal Coulomb energy on the unit sphere: n^2/2 - 0.5523 n^(3/2) + ...
    # (Rakhmanov, Saff and Zhou, Math. Res. Lett. 1, 1994)
    run = sphere_minimizers[n]
    assert run.converged
    raw = run.energy * n * (n - 1) / 2.0
    asymptotic = n * n / 2.0 - 0.5523 * n ** 1.5
    assert abs(raw - asymptotic) <= 2e-4 * asymptotic


def test_probe_rule_rms_is_rotation_invariant(sphere_minimizers):
    probes, weights = sphere_probe_rule(np.zeros(3), 2.0)
    assert weights.sum() == pytest.approx(1.0, abs=1e-15)
    oracle = equilibrium_oracle(UNIT_SPHERE, SPEC)
    rng = np.random.default_rng(2024)
    rotations = [random_rotation(rng, 3) for _ in range(3)]

    def rms(points):
        err, _ = potential_error(oracle, PointConfig(points), probes)
        return float(np.sqrt(weights @ err ** 2))

    for n, run in sphere_minimizers.items():
        base = rms(run.config.points)
        for Q in rotations:
            assert abs(rms(run.config.points @ Q) - base) <= 1e-10 * base, n


def test_leja_next_antipode_of_single_point():
    prefix = PointConfig([[0.0, 0.0, 1.0]])
    cands = sample_candidates(UNIT_SPHERE, 4096, seed=1)
    state = LejaState(
        prefix=prefix,
        candidates=cands,
        sums=potential_sums(SPEC, cands, prefix.points),
        set_model=UNIT_SPHERE,
    )
    nxt = leja_next(state, SPEC)
    np.testing.assert_allclose(nxt, [0.0, 0.0, -1.0], atol=1e-6)


def test_leja_next_equator_after_antipodal_pair():
    prefix = PointConfig([[1.0, 0, 0], [-1.0, 0, 0]])
    cands = sample_candidates(UNIT_SPHERE, 10_000, seed=2)
    state = LejaState(
        prefix=prefix,
        candidates=cands,
        sums=potential_sums(SPEC, cands, prefix.points),
        set_model=UNIT_SPHERE,
    )
    nxt = leja_next(state, SPEC)
    assert abs(nxt[0]) < 1e-4
    assert np.linalg.norm(nxt) == pytest.approx(1.0, abs=1e-9)


def test_leja_next_candidates_equal_prefix_raises():
    prefix = PointConfig([[0.0, 0, 1.0], [1.0, 0, 0]])
    cands = np.array(prefix.points)
    state = LejaState(prefix=prefix, candidates=cands, sums=potential_sums(SPEC, cands, prefix.points),
                      set_model=UNIT_SPHERE)
    with pytest.raises(CoincidentPointsError):
        leja_next(state, SPEC)


def test_leja_next_rejects_sums_of_another_grid():
    prefix = PointConfig([[0.0, 0, 1.0]])
    cands = sample_candidates(UNIT_SPHERE, 64, seed=1)
    state = LejaState(prefix, cands, potential_sums(SPEC, cands[:10], prefix.points), UNIT_SPHERE)
    with pytest.raises(ValueError, match="sums has shape"):
        leja_next(state, SPEC)


LEJA_SETS = [
    UNIT_BALL,
    UNIT_SPHERE,
    sphere_surface([0.0, 0, 0, 0], 1.0),
    box([0.0, 0, 0], [1.0, 2.0, 1.0]),
    union_of_balls([([-1.0, 0, 0], 1.0), ([1.0, 0, 0], 1.0)]),
]
LEJA_SET_IDS = ["ball", "sphere-d3", "sphere-d4", "box", "union"]


@pytest.mark.parametrize("E", LEJA_SETS, ids=LEJA_SET_IDS)
def test_leja_next_refinement_never_worse_than_grid(E):
    spec = KernelSpec(2.0, E.dim)
    rng = np.random.default_rng(17)
    for trial in range(20):
        prefix_pts = sample_uniform(E, int(rng.integers(1, 9)), rng)
        cands = sample_candidates(E, 10_000, seed=trial)
        sums = potential_sums(spec, cands, prefix_pts)
        x = leja_next(LejaState(PointConfig(prefix_pts), cands, sums, E), spec)
        assert distance_to_set(E, x) <= MEMBERSHIP_TOL
        expo = spec.exponent
        val = np.sum(np.linalg.norm(x - prefix_pts, axis=1) ** expo)
        grid_min = np.min(np.sum(np.linalg.norm(cands[:, None, :] - prefix_pts, axis=2) ** expo, axis=1))
        assert val <= grid_min + 1e-15


def test_leja_sequence_basics():
    one = leja_sequence(UNIT_SPHERE, SPEC, 1, [0.0, 0, 1.0], seed=0)
    assert one.n == 1
    two = leja_sequence(UNIT_SPHERE, SPEC, 2, [0.0, 0, 1.0], seed=0)
    np.testing.assert_allclose(two.points[0], [0.0, 0, 1.0])
    np.testing.assert_allclose(two.points[1], [0.0, 0, -1.0], atol=1e-6)


def test_leja_sequence_prefix_incrementality():
    short = leja_sequence(UNIT_SPHERE, SPEC, 10, [0.0, 0, 1.0], candidate_count=512, seed=42)
    long = leja_sequence(UNIT_SPHERE, SPEC, 25, [0.0, 0, 1.0], candidate_count=512, seed=42)
    np.testing.assert_array_equal(short.points, long.points[:10])


def test_leja_sequence_prefix_on_the_ball():
    """The ball draws its one candidate grid from the scrambled Halton
    sampler, keyed by the seed alone, so the prefix claim holds there too."""
    xi0 = [0.0, 0, 1.0]
    short = leja_sequence(UNIT_BALL, SPEC, 20, xi0, seed=5)
    long = leja_sequence(UNIT_BALL, SPEC, 30, xi0, seed=5)
    assert short.points.tobytes() == long.points[:20].tobytes()


def test_leja_sequence_energy_bound():
    L = leja_sequence(UNIT_SPHERE, SPEC, 100, [0.0, 0, 1.0], candidate_count=2048, seed=3)
    assert discrete_energy(L, SPEC) <= 1.0 + 1e-6
    assert np.all(distance_to_set(UNIT_SPHERE, L.points) <= 1e-9)


def _recorded_leja_states(monkeypatch, E, n, **kwargs):
    """(state, chosen point) of every greedy step of one leja_sequence."""
    steps = []
    step = configurations.leja_next

    def recorded(state, spec):
        x = step(state, spec)
        steps.append((state, x))
        return x

    monkeypatch.setattr(configurations, "leja_next", recorded)
    north = project_to_set(E, E.enclosing_center + E.enclosing_radius * np.eye(E.dim)[-1])
    L = leja_sequence(E, KernelSpec(2.0, E.dim), n, north, **kwargs)
    assert len(steps) == n - 1
    return L, steps


@pytest.mark.parametrize("E", [LEJA_SETS[0], LEJA_SETS[3], LEJA_SETS[4]], ids=["ball", "box", "union"])
def test_leja_polish_never_worse_than_the_grid(E, monkeypatch):
    """At every step the chosen point's from-scratch potential against the
    prefix is at most the smallest running sum on the grid; the only slack
    is for summation order."""
    spec = KernelSpec(2.0, E.dim)
    L, steps = _recorded_leja_states(monkeypatch, E, 100, seed=2)
    for k, (state, x) in enumerate(steps, start=1):
        np.testing.assert_array_equal(x, L.points[k])
        u = potential_sums(spec, x[None], state.prefix.points)[0]
        assert u <= state.sums.min() * (1.0 + 1e-12), k


def test_leja_running_sums_match_a_fresh_sum(monkeypatch):
    """The running sums of the last step of a 200-point sequence, after
    199 one-column additions, equal a from-scratch sum up to summation order."""
    _, steps = _recorded_leja_states(monkeypatch, UNIT_BALL, 200, seed=4)
    state, _ = steps[-1]
    assert state.prefix.n == 199
    fresh = potential_sums(SPEC, state.candidates, state.prefix.points)
    np.testing.assert_allclose(state.sums, fresh, rtol=1e-12, atol=0.0)


def test_leja_sequence_draws_one_candidate_grid(monkeypatch):
    calls = []
    draw = configurations.sample_candidates

    def counted(*args, **kwargs):
        calls.append(args)
        return draw(*args, **kwargs)

    monkeypatch.setattr(configurations, "sample_candidates", counted)
    for n, expected in [(1, 0), (2, 1), (30, 1)]:
        calls.clear()
        leja_sequence(UNIT_BALL, SPEC, n, [0.0, 0, 1.0], seed=1)
        assert len(calls) == expected, n


def test_leja_prefix_energies_on_the_ball_stay_below_robin():
    """At the default 4096 candidates every prefix up to n = 400 keeps its
    energy at or below W = 1, within the 1e-6 of the grid argmin."""
    L = leja_sequence(UNIT_BALL, SPEC, 400, [0.0, 0, 1.0], seed=0)
    P = L.points
    raw_prefix = np.cumsum([potential_sums(SPEC, P[m:m + 1], P[:m])[0] for m in range(L.n)])
    m = np.arange(1, L.n)
    prefix_energy = 2.0 * raw_prefix[1:] / ((m + 1) * m)
    assert prefix_energy.max() <= 1.0 + 1e-6


def test_leja_sequence_infeasible_start():
    with pytest.raises(InfeasiblePointError):
        leja_sequence(UNIT_SPHERE, SPEC, 5, [5.0, 0, 0], seed=0)


def test_random_config_deterministic_and_feasible():
    a = random_config(UNIT_BALL, 200, seed=4)
    b = random_config(UNIT_BALL, 200, seed=4)
    np.testing.assert_array_equal(a.points, b.points)
    assert np.all(distance_to_set(UNIT_BALL, a.points) <= 1e-9)
    assert random_config(UNIT_BALL, 1, seed=0).n == 1


def test_random_config_worse_than_fekete():
    rnd = random_config(UNIT_SPHERE, 200, seed=6)
    fek = fekete_search_run(UNIT_SPHERE, SPEC, FeketeSearchParams(n=200, restarts=1, max_iters=800, seed=6)).config
    e_rnd = discrete_energy(rnd, SPEC)
    assert np.isfinite(e_rnd)
    assert e_rnd > discrete_energy(fek, SPEC)
