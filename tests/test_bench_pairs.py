import importlib.util
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _run(wall, setup=0.3, **operations):
    return {"correct": True, "attempted": 2, "failed": 0,
            "metrics": {"setup_s": setup, "wall_s": wall, "peak_rss_mib": 60.0},
            "operations": operations}


def _pair(i, parent, change, workload="fekete-sphere", trace=0):
    return {"pair": i, "workload": workload, "seed": 1, "trace": trace,
            "first": "parent" if i % 2 == 0 else "change", "parent": parent, "change": change}


@pytest.mark.parametrize("values", [[3.0], [2.0, 1.0], [5.0, 1.0, 4.0, 2.0], list(np.linspace(0.1, 2.3, 11)[::-1])])
def test_percentile_is_numpy_linear(values):
    for q in (0, 25, 50, 75, 100):
        assert bench_pairs.percentile(values, q) == pytest.approx(float(np.percentile(values, q)), rel=1e-15)


def test_summarize_counts_wins_medians_and_quartiles():
    parent = [0.40, 0.38, 0.41, 0.39, 0.42]
    change = [0.31, 0.39, 0.30, 0.32, 0.33]
    pairs = [_pair(i, _run(p, **{"fekete_s.n40": 2 * p}), _run(c, **{"fekete_s.n40": 2 * c}))
             for i, (p, c) in enumerate(zip(parent, change))]
    entry = bench_pairs.summarize(pairs)["fekete-sphere seed 1"]
    assert entry["pairs"] == 5 and entry["errors"] == 0
    wall = entry["metrics"]["wall_s"]
    # pair 1 is a loss: 0.39 against 0.38
    assert wall["change_wins"] == 4
    assert wall["parent"] == pytest.approx({"median": 0.40, "q1": 0.39, "q3": 0.41, "n": 5})
    assert wall["change"]["median"] == pytest.approx(0.32)
    assert wall["median_difference"] == pytest.approx(0.08)
    assert wall["parent_interquartile"] == pytest.approx(0.02)
    assert entry["metrics"]["operations.fekete_s.n40"]["change_wins"] == 4
    # equal values are not a win
    assert entry["metrics"]["setup_s"]["change_wins"] == 0
    # 4 wins of 5 are fewer than nine tenths
    assert wall["claim_met"] is False


@pytest.mark.parametrize("change, met", [
    # 9 wins of 10, median difference 0.10 against an interquartile distance of 0.035
    ([0.30] * 9 + [0.50], True),
    # 8 wins of 10
    ([0.30] * 8 + [0.50] * 2, False),
    # 10 wins, but a median difference of 0.01 within the spread
    ([0.35, 0.36, 0.37, 0.38, 0.39, 0.39, 0.40, 0.41, 0.42, 0.43], False),
    # 9 wins, but a median difference of 0.03 within the spread
    ([0.35, 0.365] + [0.37] * 7 + [0.50], False),
])
def test_claim_met_needs_nine_tenths_of_the_wins_and_a_difference_beyond_the_spread(change, met):
    parent = [0.36, 0.37, 0.38, 0.39, 0.40, 0.40, 0.41, 0.42, 0.43, 0.44]
    pairs = [_pair(i, _run(p), _run(c)) for i, (p, c) in enumerate(zip(parent, change))]
    wall = bench_pairs.summarize(pairs)["fekete-sphere seed 1"]["metrics"]["wall_s"]
    assert wall["claim_met"] is met


def test_summarize_groups_by_workload_and_trace_and_skips_failed_runs():
    pairs = [_pair(0, _run(1.0), _run(0.9)),
             _pair(1, _run(1.0), {"error": "exit 1: worker ran past the deadline"}),
             _pair(2, _run(2.0), _run(2.5), workload="leja-study-ball"),
             _pair(3, {"correct": True, "attempted": 1, "failed": 0, "metrics": {"kernel.calls": 5.0}},
                   {"correct": True, "attempted": 1, "failed": 0, "metrics": {"kernel.calls": 4.0}}, trace=1)]
    summary = bench_pairs.summarize(pairs)
    assert set(summary) == {"fekete-sphere seed 1", "leja-study-ball seed 1", "fekete-sphere seed 1 traced"}
    assert summary["fekete-sphere seed 1"]["pairs"] == 1 and summary["fekete-sphere seed 1"]["errors"] == 1
    assert summary["fekete-sphere seed 1"]["metrics"]["wall_s"]["change_wins"] == 1
    assert summary["leja-study-ball seed 1"]["metrics"]["wall_s"]["change_wins"] == 0
    assert list(summary["fekete-sphere seed 1 traced"]["metrics"]) == ["kernel.calls"]
    every_pair_failed = bench_pairs.summarize(pairs[1:2])["fekete-sphere seed 1"]
    assert every_pair_failed == {"pairs": 0, "errors": 1, "metrics": {}}


@pytest.mark.parametrize("change, within", [
    # medians 0.29 and 0.31 against 0.24 * 1.25 = 0.30
    ([0.29] * 5, True),
    ([0.31] * 5, False),
    # a faster change is within its bound
    ([0.20] * 5, True),
])
def test_within_bound_compares_the_change_median_with_the_parent_median_times_one_plus_bound(change, within):
    parent = [0.23, 0.235, 0.24, 0.245, 0.25]
    pairs = [_pair(i, _run(1.0, setup=p), _run(1.0, setup=c)) for i, (p, c) in enumerate(zip(parent, change))]
    metrics = bench_pairs.summarize(pairs, {"setup_s": 0.25})["fekete-sphere seed 1"]["metrics"]
    assert metrics["setup_s"]["within_bound"] is within
    assert metrics["setup_s"]["unresolved"] is False
    # a metric without a bound gets neither flag
    assert "within_bound" not in metrics["wall_s"] and "unresolved" not in metrics["wall_s"]


def test_unresolved_when_the_parent_spread_exceeds_the_bound():
    # parent median 0.40, interquartile distance 0.12: 0.3 of the median
    # exceeds a 0.25 bound, but not a 0.35 one
    parent = [0.30, 0.34, 0.40, 0.46, 0.50]
    pairs = [_pair(i, _run(p), _run(p)) for i, p in enumerate(parent)]
    wall = bench_pairs.summarize(pairs, {"wall_s": 0.25})["fekete-sphere seed 1"]["metrics"]["wall_s"]
    assert wall["parent_interquartile"] == pytest.approx(0.12)
    assert wall["unresolved"] is True and wall["within_bound"] is True
    wall = bench_pairs.summarize(pairs, {"wall_s": 0.35})["fekete-sphere seed 1"]["metrics"]["wall_s"]
    assert wall["unresolved"] is False


def test_summarize_reads_the_benchmark_bounds_by_default():
    pairs = [_pair(i, _run(0.4), _run(0.45)) for i in range(3)]
    metrics = bench_pairs.summarize(pairs)["fekete-sphere seed 1"]["metrics"]
    assert {name for name, m in metrics.items() if "within_bound" in m} == {"setup_s", "wall_s", "peak_rss_mib"}
    assert metrics["wall_s"]["within_bound"] is True
