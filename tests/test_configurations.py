import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rieszpoints import (
    CoincidentPointsError,
    FeketeSearchParams,
    InfeasiblePointError,
    KernelSpec,
    PointConfig,
    UnsupportedOracleError,
    ball,
    box,
    discrete_energy,
    distance_to_set,
    fekete_search_run,
    leja_sequence,
    random_config,
    sample_candidates,
    sphere_surface,
    union_of_balls,
)
import rieszpoints
from rieszpoints import configurations
from rieszpoints.acceptance import DEFAULT_SEED, THOMSON_40_NORMALIZED
from rieszpoints.discrepancy import equilibrium_oracle, potential_error, sphere_probe_rule
from rieszpoints.kernel import potential_sums, probe_potential_derivatives
from rieszpoints.oracles import reference_energy
from rieszpoints.seeding import child_seed, substream
from rieszpoints.sets import (MEMBERSHIP_TOL, _active_face, _min_surface, _nearest_ball, _restrict, project_to_set,
                              random_rotation, sample_uniform)

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


def _sweep_params(n, **changes):
    """The acceptance suite's pinned sphere solve at n."""
    return replace(FeketeSearchParams(n=n, restarts=6, tol=1e-14, seed=child_seed(DEFAULT_SEED, "fekete", "sphere", n)),
                   **changes)


def test_newton_tail_reaches_thomson_40_in_fewer_steps():
    """The pinned n = 40 solve matches the published Thomson optimum within
    1e-9, in fewer accepted steps than the 80 that L-BFGS alone takes."""
    run = fekete_search_run(UNIT_SPHERE, SPEC, _sweep_params(40))
    assert run.converged
    assert abs(run.energy - THOMSON_40_NORMALIZED) <= 1e-9
    assert run.iterations < 80


def test_newton_tail_falls_back_to_lbfgs_at_a_saddle(monkeypatch):
    """Restart 0 of the pinned n = 10 solve first reaches a relative force
    of 1e-3 near a saddle (8.1e-4, shifted tangent Hessian eigenvalue
    -0.068): the factorization fails, L-BFGS takes the steps until the
    force has dropped tenfold, Newton then resumes, and the run converges
    to the n = 10 Thomson minimum, 32.716949460 (Wales and Ulker, 2006)."""
    step0 = 0.1 / np.sqrt(10)
    _, _, _, _, start = configurations._one_restart(UNIT_SPHERE, SPEC, _sweep_params(10, tol=1e-6), step0, 0)
    assert 8e-4 < start < 1e-3
    log = []
    relative_force, cholesky = configurations._relative_force, np.linalg.cholesky

    def recording_force(P, F):
        log.append(relative_force(P, F))
        return log[-1]

    def recording_cholesky(A):
        force = log[-1]
        try:
            L = cholesky(A)
        except np.linalg.LinAlgError:
            log.append(("failed", force, np.linalg.eigvalsh(A)[0]))
            raise
        log.append(("factored", force))
        return L

    monkeypatch.setattr(configurations, "_relative_force", recording_force)
    monkeypatch.setattr(np.linalg, "cholesky", recording_cholesky)
    _, raw, _, converged, _ = configurations._one_restart(UNIT_SPHERE, SPEC, _sweep_params(10), step0, 0)
    attempts = [entry for entry in log if isinstance(entry, tuple)]
    assert attempts[0][:2] == ("failed", start)
    assert attempts[0][2] == pytest.approx(-0.068, abs=1e-3)
    assert attempts[1][0] == "factored" and attempts[1][1] <= start / 10.0
    assert converged
    assert raw == pytest.approx(32.716949460, abs=1e-8)


_BITS_OF_SOLVES = """
import hashlib, sys
from rieszpoints import FeketeSearchParams, KernelSpec, fekete_search_run, sphere_surface
from rieszpoints.acceptance import DEFAULT_SEED
from rieszpoints.seeding import child_seed
for n in map(int, sys.argv[1:]):
    params = FeketeSearchParams(n=n, restarts=6, tol=1e-14, seed=child_seed(DEFAULT_SEED, "fekete", "sphere", n))
    run = fekete_search_run(sphere_surface([0.0, 0.0, 0.0], 1.0), KernelSpec(2.0, 3), params)
    print(n, run.iterations, hashlib.sha256(run.config.points.tobytes()).hexdigest())
"""


def test_newton_tail_bits_do_not_depend_on_the_blas_thread_count():
    """The largest n with a Newton tail on the 2-sphere and the n = 40
    solve give bitwise the same points under 1 and 2 OpenBLAS threads:
    their Cholesky factor and solve stay below the size where the
    threaded LAPACK path changes the bits."""
    n_max = configurations._NEWTON_UNKNOWNS // 2
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(Path(rieszpoints.__file__).resolve().parents[1]),
                   OPENBLAS_NUM_THREADS=threads)
        argv = [sys.executable, "-c", _BITS_OF_SOLVES, str(n_max), "40"]
        outputs.append(subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout)
    assert outputs[0] == outputs[1]
    assert [line.split()[0] for line in outputs[0].splitlines()] == [str(n_max), "40"]


DRIVER_BOX = box([0.0, 0, 0], [1.0, 2.0, 1.0])


def _linear(pull):
    """evaluate(X) of ``_projected_descent`` for the objective -sum(pull * X),
    whose forces are the constant ``pull``."""
    return lambda X: (-float(np.sum(pull * X)), pull, None)


def test_projected_descent_caps_every_move_of_every_point():
    """With a step ten times the projected force, every accepted move of
    any point is at most the cap, and the run ends at the box corners the
    constant forces point to."""
    rng = np.random.default_rng(3)
    pull = rng.normal(size=(6, 3))
    iterates = []

    def direction(X, F, P, face, data, force):
        iterates.append(X)
        return 10.0 * P

    cap = 0.1
    X, _, steps, converged, _ = configurations._projected_descent(
        DRIVER_BOX, _linear(pull), sample_uniform(DRIVER_BOX, 6, rng), direction, cap, 200, 1e-13)
    iterates.append(X)
    assert converged
    assert steps == len(iterates) - 1 > 20
    moves = [np.linalg.norm(b - a, axis=1).max() for a, b in zip(iterates, iterates[1:])]
    assert max(moves) <= cap * (1.0 + 1e-12)
    np.testing.assert_array_equal(X, np.where(pull > 0, DRIVER_BOX.high, DRIVER_BOX.low))


def test_projected_descent_takes_no_uphill_step():
    """A direction against the force fails every Armijo trial: the run
    returns the projected start, unconverged, after 0 steps."""
    rng = np.random.default_rng(4)
    pull = rng.normal(size=(6, 3))
    X0 = 3.0 * rng.normal(size=(6, 3))
    X, value, steps, converged, grad_norm = configurations._projected_descent(
        DRIVER_BOX, _linear(pull), X0, lambda X, F, P, face, data, force: -P, 0.1, 200, 1e-13)
    start = project_to_set(DRIVER_BOX, X0)
    np.testing.assert_array_equal(X, start)
    assert value == -float(np.sum(pull * start))
    assert (steps, converged) == (0, False)
    assert grad_norm > 0.0


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


def _next_point(E, prefix_pts, grid, spec=SPEC):
    """The greedy step's point against the prefix, by the potential-minimum helper."""
    x, _ = configurations._potential_min(E, spec, prefix_pts, grid, potential_sums(spec, grid, prefix_pts))
    return x


def test_potential_min_antipode_of_single_point():
    nxt = _next_point(UNIT_SPHERE, np.array([[0.0, 0.0, 1.0]]), sample_candidates(UNIT_SPHERE, 4096, seed=1))
    np.testing.assert_allclose(nxt, [0.0, 0.0, -1.0], atol=1e-12)


def test_potential_min_equator_after_antipodal_pair():
    nxt = _next_point(UNIT_SPHERE, np.array([[1.0, 0, 0], [-1.0, 0, 0]]),
                      sample_candidates(UNIT_SPHERE, 10_000, seed=2))
    assert abs(nxt[0]) < 1e-4
    assert np.linalg.norm(nxt) == pytest.approx(1.0, abs=1e-9)


def test_potential_min_grid_equal_to_the_points_raises():
    prefix_pts = np.array([[0.0, 0, 1.0], [1.0, 0, 0]])
    with pytest.raises(CoincidentPointsError):
        _next_point(UNIT_SPHERE, prefix_pts, prefix_pts.copy())


LEJA_SETS = [
    UNIT_BALL,
    UNIT_SPHERE,
    sphere_surface([0.0, 0, 0, 0], 1.0),
    box([0.0, 0, 0], [1.0, 2.0, 1.0]),
    union_of_balls([([-1.0, 0, 0], 1.0), ([1.0, 0, 0], 1.0)]),
]
LEJA_SET_IDS = ["ball", "sphere-d3", "sphere-d4", "box", "union"]


@pytest.mark.parametrize("E", LEJA_SETS, ids=LEJA_SET_IDS)
def test_potential_min_never_worse_than_grid(E):
    spec = KernelSpec(2.0, E.dim)
    rng = np.random.default_rng(17)
    for trial in range(20):
        prefix_pts = sample_uniform(E, int(rng.integers(1, 9)), rng)
        cands = sample_candidates(E, 10_000, seed=trial)
        x = _next_point(E, prefix_pts, cands, spec)
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
    """The ball draws its one candidate grid from the shifted lattice,
    keyed by the seed alone, so the prefix claim holds there too."""
    xi0 = [0.0, 0, 1.0]
    short = leja_sequence(UNIT_BALL, SPEC, 20, xi0, seed=5)
    long = leja_sequence(UNIT_BALL, SPEC, 30, xi0, seed=5)
    assert short.points.tobytes() == long.points[:20].tobytes()


def test_leja_sequence_energy_bound():
    L = leja_sequence(UNIT_SPHERE, SPEC, 100, [0.0, 0, 1.0], candidate_count=2048, seed=3)
    assert discrete_energy(L, SPEC) <= 1.0 + 1e-6
    assert np.all(distance_to_set(UNIT_SPHERE, L.points) <= 1e-9)


def _recorded_leja_states(monkeypatch, E, n, **kwargs):
    """(prefix, grid, sums, chosen point) of every greedy step of one
    leja_sequence."""
    steps = []
    step = configurations._potential_min

    def recorded(E, spec, points, grid, sums):
        x, value = step(E, spec, points, grid, sums)
        steps.append((points, grid, sums, x))
        return x, value

    monkeypatch.setattr(configurations, "_potential_min", recorded)
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
    for k, (prefix_pts, _, sums, x) in enumerate(steps, start=1):
        np.testing.assert_array_equal(x, L.points[k])
        u = potential_sums(spec, x[None], prefix_pts)[0]
        assert u <= sums.min() * (1.0 + 1e-12), k


def test_leja_running_sums_match_a_fresh_sum(monkeypatch):
    """The running sums of the last step of a 200-point sequence, after
    199 one-column additions, equal a from-scratch sum up to summation order."""
    _, steps = _recorded_leja_states(monkeypatch, UNIT_BALL, 200, seed=4)
    prefix_pts, grid, sums, _ = steps[-1]
    assert len(prefix_pts) == 199
    fresh = potential_sums(SPEC, grid, prefix_pts)
    np.testing.assert_allclose(sums, fresh, rtol=1e-12, atol=0.0)


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


BALL_AND_SPHERE = [([0.0, 0.0, 0.0], 1.0), ([0.5, -1.0, 2.0], 2.5)]


@pytest.mark.parametrize("center,radius", BALL_AND_SPHERE, ids=["unit", "offset"])
def test_ball_leja_is_the_sphere_leja_from_a_boundary_start(center, radius):
    """The prefix potential is superharmonic, so its minimum over a ball
    lies on the boundary sphere and a ball's greedy steps search there:
    from a start on the sphere the two sequences are bitwise equal."""
    xi0 = np.array(center) + [0.0, 0.0, radius]  # exactly on the sphere
    on_ball = leja_sequence(ball(center, radius), SPEC, 60, xi0, candidate_count=1024, seed=3)
    on_sphere = leja_sequence(sphere_surface(center, radius), SPEC, 60, xi0, candidate_count=1024, seed=3)
    assert on_ball.points.tobytes() == on_sphere.points.tobytes()


@pytest.mark.parametrize("center,radius", BALL_AND_SPHERE, ids=["unit", "offset"])
def test_ball_leja_after_an_interior_start_lies_on_the_sphere(center, radius):
    xi0 = np.array(center) + [0.1 * radius, -0.3 * radius, 0.2 * radius]
    L = leja_sequence(ball(center, radius), SPEC, 60, xi0, candidate_count=1024, seed=3)
    np.testing.assert_array_equal(L.points[0], xi0)
    off = np.abs(np.linalg.norm(L.points[1:] - np.array(center), axis=1) - radius)
    assert off.max() <= 1e-15 * radius


@pytest.mark.parametrize("center,radius", BALL_AND_SPHERE, ids=["unit", "offset"])
def test_ball_potential_minimum_lies_on_the_sphere(center, radius):
    """The minimum principle behind the boundary search: for 30 random
    prefixes of 1 to 20 points in the ball, the smallest potential on a
    20 000-point lattice of the solid ball is at least the polished
    minimum on the sphere (smallest relative margin 4.5e-4 at both
    centres)."""
    E = ball(center, radius)
    S = _min_surface(E)
    assert S.kind == "sphere" and S.balls[0][1] == radius
    lattice = sample_candidates(E, 20_000, seed=1)
    grid = sample_candidates(S, 4096, seed=0)
    rng = np.random.default_rng(7)
    for trial in range(30):
        prefix_pts = sample_uniform(E, int(rng.integers(1, 21)), rng)
        _, u = configurations._potential_min(S, SPEC, prefix_pts, grid, potential_sums(SPEC, grid, prefix_pts))
        assert potential_sums(SPEC, lattice, prefix_pts).min() >= u, trial


def test_ball_leja_polish_is_near_a_dense_boundary_minimum(monkeypatch):
    """How close each greedy step's polished value comes to the step's
    true minimum: against a 65 536-point grid of the unit sphere, over a
    150-point sequence from the 4096-point default grid (seed 0), the
    worst relative excess measured is 6.9e-4, at step 131, and 2 of the
    149 steps exceed the dense minimum at all, none before step 100. The
    polish starts from the grid argmin and stays in its basin, so a
    neighbouring deeper basin can be missed."""
    L, steps = _recorded_leja_states(monkeypatch, UNIT_BALL, 150, seed=0)
    dense = sample_candidates(UNIT_SPHERE, 65_536, seed=0)
    dense_sums = np.zeros(len(dense))
    excess = []
    for k, (prefix_pts, _, _, x) in enumerate(steps, start=1):
        dense_sums += potential_sums(SPEC, dense, L.points[k - 1:k])
        u = potential_sums(SPEC, x[None], prefix_pts)[0]
        excess.append(u / dense_sums.min() - 1.0)
    assert max(excess[:99]) <= 1e-8
    assert max(excess) <= 1e-3


@pytest.mark.parametrize("E,S", [(UNIT_SPHERE, UNIT_SPHERE),
                                 (ball(*BALL_AND_SPHERE[1]), _min_surface(ball(*BALL_AND_SPHERE[1]))),
                                 (LEJA_SETS[3], LEJA_SETS[3]), (LEJA_SETS[4], LEJA_SETS[4])],
                         ids=["sphere", "ball-boundary", "box", "union"])
def test_potential_min_returns_a_stationary_point(E, S):
    """Wherever the polish moves off the grid argmin, it ends where the
    force along the active face is at most sqrt(_POLISH_TOL) times the
    force: 5 grid seeds, prefixes of 5 to 100 random points of E."""
    spec = KernelSpec(2.0, E.dim)
    rng = np.random.default_rng(11)
    target = np.sqrt(configurations._POLISH_TOL)
    for seed in range(5):
        prefix_pts = sample_uniform(E, int(rng.integers(5, 101)), rng)
        grid = sample_candidates(S, 4096, seed=seed)
        sums = potential_sums(spec, grid, prefix_pts)
        x, _ = configurations._potential_min(S, spec, prefix_pts, grid, sums)
        if np.array_equal(x, grid[np.argmin(sums)]):
            continue
        _, gradient, _ = probe_potential_derivatives(spec, x, prefix_pts)
        F = -gradient[None]
        held, normals, _ = _active_face(S, x[None], F)
        P = _restrict(F, held, normals)
        assert np.linalg.norm(P) <= target * np.linalg.norm(F), seed


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_leja_polish_stays_on_the_ball_of_its_grid_argmin(seed, monkeypatch):
    """Each polish move is capped at 0.05 * (set radius), so on two
    tangent unit balls no polished point crosses to the other ball than
    the one of its grid argmin."""
    E = LEJA_SETS[4]
    _, steps = _recorded_leja_states(monkeypatch, E, 200, seed=seed)
    for k, (_, grid, sums, x) in enumerate(steps, start=1):
        start = grid[np.argmin(sums)]
        assert np.array_equal(_nearest_ball(E, start[None])[0], _nearest_ball(E, x[None])[0]), k


def test_leja_sequence_refuses_nonnewtonian_even_at_one_point():
    for n in (1, 5):
        with pytest.raises(UnsupportedOracleError):
            leja_sequence(UNIT_SPHERE, KernelSpec(1.5, 3), n, [0.0, 0, 1.0], seed=0)


def test_leja_sequence_rejects_a_kernel_of_another_dimension():
    for n in (1, 5):
        with pytest.raises(ValueError, match="set dimension 3 != kernel dimension 4"):
            leja_sequence(UNIT_BALL, KernelSpec(2.0, 4), n, [0.0, 0, 1.0])


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
