"""Acceptance gate: every criterion runs at its stated tolerance through
the verification machinery, one pass/fail line printed per criterion.

Run with ``pytest -v tests/test_acceptance.py`` (the full pass takes
about 23-25 s on a 2-core machine; the reproducibility criterion re-runs
everything once)."""

import sys

import numpy as np
import pytest

from rieszpoints.acceptance import ALL_NAMES, DEFAULT_SEED, CriterionResult, run_criteria, verdict_json


@pytest.fixture(scope="module")
def verdicts():
    results = {r.name: r for r in run_criteria(seed=DEFAULT_SEED)}
    for name in ALL_NAMES:
        r = results.get(name)
        status = "PASS" if (r and r.passed) else "FAIL"
        print(f"ACCEPTANCE {status} {name}", file=sys.stderr)
    return results


def _crit(verdicts, name):
    assert name in verdicts, f"criterion {name} did not run"
    return verdicts[name]


def test_criterion_01_energy_correctness(verdicts):
    r = _crit(verdicts, "energy_correctness")
    assert r.details["max_rel_diff"] <= 1e-12
    assert r.passed


def test_criterion_02_robin_constant_unit_ball(verdicts):
    r = _crit(verdicts, "robin_constant_unit_ball")
    assert r.details["max_abs_error"] <= 1e-2
    assert r.passed


def test_criterion_03_fekete_bound_and_monotonicity(verdicts):
    r = _crit(verdicts, "fekete_bound_monotonicity")
    assert r.details["below_robin_constant"], "some minimum energy exceeded the Robin constant"
    assert r.details["nondecreasing_within_1e5"], "minimum energies failed to increase with n"
    assert r.details["final_matches_published_optimum"], (
        "the n=40 minimum energy is {!r}; the published Thomson optimum for 40 unit "
        "charges normalizes to {!r} and the two must agree within 1e-9"
        .format(r.details["final_energy"], r.details["published_optimum"])
    )
    assert r.passed


def test_criterion_04_fekete_small_n_optimality(verdicts):
    r = _crit(verdicts, "fekete_small_n_optimality")
    for key in ("n2", "n3", "n4"):
        assert r.details[key]["abs_diff"] <= 1e-12, r.details[key]
    assert r.passed


def test_criterion_05_leja_energy_bound(verdicts):
    r = _crit(verdicts, "leja_energy_bound")
    assert r.details["max_prefix_energy"] <= 1.0 + 1e-6
    assert r.passed


def test_criterion_06_test_function_bound_matrix(verdicts):
    r = _crit(verdicts, "test_function_bound_matrix")
    assert len(r.details["trials"]) == 30
    bad = [t for t in r.details["trials"] if not t["ok"]]
    assert not bad, f"bound violated in trials: {bad}"
    # no trial is excused: each has a composite term >= 0 and lhs <= rhs
    assert all(t["I_value"] >= 0.0 and t["lhs"] <= t["rhs"] for t in r.details["trials"])
    assert set(r.details) == {"trials"}
    assert r.passed


def test_criterion_07_potential_decay(verdicts):
    r = _crit(verdicts, "potential_decay")
    assert r.details["rms_slope"] <= -0.3
    assert r.details["slope"] <= -0.3
    c = r.details["fitted_constant"]
    for m, s in zip(r.details["measured"], r.details["bound_shape"]):
        assert m <= c * s * (1 + 1e-12)
    assert r.passed


def test_criterion_08_weak_star_diagnostics(verdicts):
    r = _crit(verdicts, "weak_star_diagnostics")
    for method in ("fekete", "leja"):
        assert r.details[method]["moment_distance"] < 0.05
        assert r.details[method]["m_E"] == 0.0
    assert r.details["hemisphere_control"]["moment_distance"] > 0.1
    assert r.passed


def test_criterion_09_converse_witness(verdicts):
    r = _crit(verdicts, "converse_witness")
    vals = r.details["values"]
    for entry in vals:
        assert entry["m_E"] <= entry["bound_1_over_n"] + 1e-15
    assert vals[0]["m_E"] > vals[1]["m_E"] > vals[2]["m_E"]
    assert r.passed


def test_criterion_10_reproducibility(verdicts):
    r = _crit(verdicts, "reproducibility")
    assert r.details["bitwise_identical"]
    assert r.passed


def test_provenance_ledger(verdicts):
    r = _crit(verdicts, "provenance")
    assert r.details["mismatched"] == [], (
        "ledger rows do not replay bitwise:\n" + "\n".join(r.details["mismatched"]))
    assert r.passed


def test_verdict_json_writes_numpy_values_as_their_python_values():
    """numpy scalars and arrays in a criterion's details give the bytes
    of the same details in plain Python types."""
    numpy_details = {"x": np.float64(0.1), "k": np.int64(7), "ok": np.bool_(True),
                     "v": np.array([1.5, -0.0]), "pair": (np.float64(2.0), 3), "nested": {"m": [np.int64(1)]}}
    plain_details = {"x": 0.1, "k": 7, "ok": True, "v": [1.5, -0.0], "pair": [2.0, 3], "nested": {"m": [1]}}
    as_numpy = verdict_json([CriterionResult("c", True, numpy_details)], 5)
    assert as_numpy == verdict_json([CriterionResult("c", True, plain_details)], 5)
