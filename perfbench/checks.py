"""Correctness checks on the benchmark's outputs.

Each check returns a list of problems; an empty list means the output
passed. The checks compare with published values or with properties the
method must have, never with the program's own later output.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

# Minimum Coulomb energies of n unit charges on the unit sphere
# (Wales & Ulker, Phys. Rev. B 74, 2006), normalized as 2E / (n(n-1)).
THOMSON_RAW = {40: 660.675278835, 100: 4448.350634331, 200: 18438.842717530}
ROBIN_UNIT = 1.0  # W = R^(2-d) for the unit ball and sphere in d = 3


def thomson_normalized(n: int) -> float:
    return 2.0 * THOMSON_RAW[n] / (n * (n - 1))


def check_fekete(n: int, energy: float, points, reference: float) -> list[str]:
    """A Fekete solve on the unit sphere.

    ``reference`` is the exact-rounded energy of the same points from an
    independent summation. At n = 40 the solve must reach the published
    optimum within 1e-9; at larger n it must lie between the published
    optimum and the Robin constant.
    """
    problems = []
    pts = np.asarray(points, dtype=float)
    if pts.shape != (n, 3):
        problems.append(f"n={n}: points have shape {pts.shape}, expected ({n}, 3)")
        return problems
    off = float(np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)))
    if not off <= 1e-9:
        problems.append(f"n={n}: a point lies {off:.3g} off the unit sphere")
    if not abs(energy - reference) <= 1e-12 * abs(reference):
        problems.append(f"n={n}: energy {energy!r} differs from the reference sum {reference!r}")
    opt = thomson_normalized(n)
    if n == 40:
        if not abs(energy - opt) <= 1e-9:
            problems.append(f"n=40: energy {energy!r} is not within 1e-9 of the published optimum {opt!r}")
    elif not opt * (1.0 - 1e-12) <= energy <= ROBIN_UNIT:
        problems.append(f"n={n}: energy {energy!r} lies outside [{opt!r}, W = 1]")
    return problems


def check_study(text: str, schedule) -> list[str]:
    """A Leja study CSV on the unit ball: one row per scheduled n, the
    paper's discrepancy inequality lhs <= rhs, every point in the set
    (m_E == 0), and 0 < energy <= W + 1e-6, because each greedy step picks
    a point where the prefix potential is at most W."""
    if text is None:
        return ["the study wrote no CSV"]
    rows = list(csv.DictReader(io.StringIO(text)))
    ns = [int(r["n"]) for r in rows]
    if ns != list(schedule):
        return [f"study rows have n = {ns}, expected {list(schedule)}"]
    problems = []
    for r in rows:
        n = r["n"]
        lhs, rhs = float(r["lhs"]), float(r["rhs"])
        energy, m_E = float(r["energy"]), float(r["m_E"])
        if not lhs <= rhs:
            problems.append(f"n={n}: lhs {lhs!r} > rhs {rhs!r}")
        if m_E != 0.0:
            problems.append(f"n={n}: m_E = {m_E!r}, expected 0")
        if not 0.0 < energy <= ROBIN_UNIT + 1e-6:
            problems.append(f"n={n}: energy {energy!r} outside (0, W + 1e-6]")
    return problems


def check_verdict(text: str, name: str) -> list[str]:
    """A verdict JSON from ``verify --only name``: exactly that criterion,
    and it passed."""
    if text is None:
        return [f"verify --only {name} wrote no verdict"]
    verdict = json.loads(text)
    names = [c["name"] for c in verdict["criteria"]]
    if names != [name]:
        return [f"verdict holds criteria {names}, expected [{name!r}]"]
    if not (verdict["all_passed"] and verdict["criteria"][0]["passed"]):
        return [f"criterion {name} did not pass"]
    return []
