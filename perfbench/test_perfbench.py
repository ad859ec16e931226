"""Tests of the benchmark's own code: span arithmetic and output checks.

    python3 -m pytest perfbench
"""

import io
import json
import csv
from pathlib import Path

import numpy as np
import pytest

import checks
from spans import Span, self_times, summarize


def test_self_time_on_hand_built_tree():
    # root [0, 100) holds a [10, 40) and b [50, 90); a holds c [15, 25)
    spans = [
        Span(2, 1, "sets.project_to_set", 15, 25),
        Span(1, 0, "configurations.leja_next", 10, 40),
        Span(3, 0, "measures.discrete_energy", 50, 90),
        Span(0, -1, "cli.main", 0, 100),
    ]
    assert self_times(spans) == {0: 30, 1: 20, 2: 10, 3: 40}
    s = summarize(spans)
    assert s["self_s"] == pytest.approx({"cli": 30e-9, "configurations": 20e-9, "sets": 10e-9, "measures": 40e-9})
    assert s["inclusive_s"]["configurations.leja_next"] == pytest.approx(30e-9)
    assert s["calls"]["sets.project_to_set"] == 1
    assert s["layer_calls"] == {"cli": 1, "configurations": 1, "sets": 1, "measures": 1}


def test_nested_calls_of_one_function_count_once_inclusive():
    spans = [
        Span(0, -1, "configurations.fekete_search", 0, 100),
        Span(1, 0, "configurations.fekete_search_run", 5, 95),
        Span(2, 1, "configurations.fekete_search", 10, 20),
    ]
    s = summarize(spans)
    assert s["inclusive_s"]["configurations.fekete_search"] == pytest.approx(100e-9)
    assert s["self_s"]["configurations"] == pytest.approx(100e-9)
    assert s["calls"]["configurations.fekete_search"] == 2


def test_tracer_leaves_outputs_identical_and_restores_functions():
    import worker  # puts the checkout's src on sys.path
    from rieszpoints import cli, configurations, sets
    from rieszpoints.seeding import child_seed
    from spans import Tracer

    original = sets.project_to_set
    params = worker.FeketeSearchParams(n=8, restarts=2, max_iters=200, tol=1e-12, seed=child_seed(3, "t"))
    sphere = worker.sphere_surface([0.0, 0.0, 0.0], 1.0)
    spec = worker.KernelSpec(alpha=2.0, dim=3)
    plain = configurations.fekete_search_run(sphere, spec, params)
    tracer = Tracer()
    tracer.install()
    try:
        assert configurations.project_to_set is not original
        assert cli.project_to_set is configurations.project_to_set
        traced = configurations.fekete_search_run(sphere, spec, params)
    finally:
        tracer.uninstall()
    assert configurations.project_to_set is original and sets.project_to_set is original
    assert traced.energy == plain.energy
    assert traced.config.points.tobytes() == plain.config.points.tobytes()
    names = {s.name for s in tracer.spans}
    assert {"configurations.fekete_search_run", "sets.project_to_set", "measures.discrete_energy"} <= names


def _fibonacci_sphere(n):
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(1.0 - z * z)
    phi = np.pi * (3.0 - np.sqrt(5.0)) * i
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def test_fekete_check_accepts_published_optimum_and_rejects_offsets():
    opt = checks.thomson_normalized(40)
    pts = _fibonacci_sphere(40)
    assert checks.check_fekete(40, opt, pts, opt) == []
    assert checks.check_fekete(40, opt + 1e-8, pts, opt + 1e-8)
    moved = pts.copy()
    moved[7] *= 1.0 + 1e-6
    assert checks.check_fekete(40, opt, moved, opt)
    assert checks.check_fekete(40, opt, pts, opt * (1.0 + 1e-11))


def test_fekete_check_bounds_n200_by_optimum_and_robin_constant():
    opt = checks.thomson_normalized(200)
    pts = _fibonacci_sphere(200)
    e = opt + 1e-5
    assert checks.check_fekete(200, e, pts, e) == []
    assert checks.check_fekete(200, opt * (1.0 - 1e-9), pts, opt * (1.0 - 1e-9))
    assert checks.check_fekete(200, 1.0 + 1e-9, pts, 1.0 + 1e-9)


def _study_csv(rows):
    out = io.StringIO()
    w = csv.DictWriter(out, fieldnames=["n", "energy", "m_E", "lhs", "rhs"])
    w.writeheader()
    w.writerows(rows)
    return out.getvalue()


GOOD_ROWS = [{"n": n, "energy": repr(0.8 + n / 4000), "m_E": "0.0", "lhs": "0.001", "rhs": "2.5"}
             for n in (50, 100, 200, 400)]


def test_study_check_accepts_good_rows():
    assert checks.check_study(_study_csv(GOOD_ROWS), [50, 100, 200, 400]) == []


@pytest.mark.parametrize("field, value", [("lhs", "3.0"), ("m_E", "1e-12"), ("energy", "1.00001"), ("energy", "0.0")])
def test_study_check_rejects_a_corrupted_row(field, value):
    rows = [dict(r) for r in GOOD_ROWS]
    rows[2][field] = value
    assert checks.check_study(_study_csv(rows), [50, 100, 200, 400])


def test_study_check_rejects_missing_row():
    assert checks.check_study(_study_csv(GOOD_ROWS[:3]), [50, 100, 200, 400])


def _verdict(name, passed):
    return json.dumps({"all_passed": passed, "seed": 1,
                       "criteria": [{"name": name, "passed": passed, "details": {}}]})


def test_verdict_check():
    assert checks.check_verdict(_verdict("provenance", True), "provenance") == []
    assert checks.check_verdict(_verdict("provenance", False), "provenance")
    assert checks.check_verdict(_verdict("energy_correctness", True), "provenance")
    assert checks.check_verdict(None, "provenance")
    assert checks.check_study(None, [50])


def test_failed_criterion_is_counted_and_reported(tmp_path, monkeypatch):
    import worker

    def failing_verify(argv):
        out = Path(argv[argv.index("--out") + 1])
        out.write_text(_verdict("provenance", False) + "\n", encoding="utf-8")
        return 1  # cli.EXIT_VERIFY_FAILED

    monkeypatch.setattr(worker, "_quiet_cli", failing_verify)
    workload = worker.VerifyOracles(seed=1, workdir=tmp_path)
    ops = [op for op in workload.ops if op.name == "verify_s.provenance"]
    rounds = [worker.run_round(ops) for _ in range(2)]
    assert rounds[0][1]["verify_s.provenance"][1].failed
    problems = worker.verify_outputs(ops, rounds, [])
    assert problems == ["verify_s.provenance: criterion provenance did not pass"]


def test_missing_output_is_reported(tmp_path, monkeypatch):
    import worker

    monkeypatch.setattr(worker, "_quiet_cli", lambda argv: 2)
    workload = worker.LejaStudyBall(seed=1, workdir=tmp_path)
    outcome = workload.ops[0].run()
    assert outcome.failed and outcome.payload is None
    assert worker.verify_outputs(workload.ops, [worker.run_round(workload.ops)], []) == [
        "study_s: the study wrote no CSV"]


def test_wrapper_cost_is_small_and_positive():
    from spans import wrapper_cost_s

    cost = wrapper_cost_s(calls=2000, repeats=3)
    assert 0.0 < cost < 1e-4


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    import worker

    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == worker.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(worker.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "wall_s", "peak_rss_mib"]
