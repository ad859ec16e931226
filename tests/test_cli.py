import contextlib
import csv
import dataclasses
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rieszpoints import cli, configurations, discrepancy, measures
from rieszpoints.cli import STUDY_COLUMNS, main
from rieszpoints.configurations import leja_sequence
from rieszpoints.kernel import KernelSpec
from rieszpoints.measures import discrete_energy, read_points_csv
from rieszpoints.seeding import child_seed
from rieszpoints.sets import ball, box, distance_to_set, project_to_set, union_of_balls

SPHERE_DEF = """\
shape = sphere
center = 0 0 0
radius = 1.0
"""


@pytest.fixture
def sphere_file(tmp_path):
    p = tmp_path / "sphere.txt"
    p.write_text(SPHERE_DEF)
    return p


def test_generate_leja_writes_points_and_energy(sphere_file, tmp_path, capsys):
    out = tmp_path / "pts.csv"
    manifest = tmp_path / "run.json"
    code = main([
        "generate", "--set", str(sphere_file), "--method", "leja", "--n", "100",
        "--seed", "7", "--out", str(out), "--manifest", str(manifest),
        "--candidates", "1024",
    ])
    assert code == 0
    X = read_points_csv(out)
    assert X.n == 100 and X.dim == 3
    printed = capsys.readouterr().out
    assert printed.startswith("energy ")
    energy = float(printed.split()[1])
    assert energy <= 1.0 + 1e-6
    m = json.loads(manifest.read_text())
    for key in ("command", "set_definition", "kernel", "seed", "params", "outputs", "tool_version"):
        assert key in m
    assert m["kernel"] == {"alpha": 2.0, "dim": 3}
    assert m["seed"] == 7


def test_generate_fekete_two_points_antipodal(sphere_file, tmp_path):
    out = tmp_path / "pts.csv"
    manifest = tmp_path / "run.json"
    code = main([
        "generate", "--set", str(sphere_file), "--method", "fekete", "--n", "2",
        "--seed", "1", "--restarts", "3", "--out", str(out), "--manifest", str(manifest),
    ])
    assert code == 0
    X = read_points_csv(out)
    assert np.dot(X.points[0], X.points[1]) == pytest.approx(-1.0, abs=1e-6)
    result = json.loads(manifest.read_text())["result"]
    assert result["converged"] is True
    assert 0 < result["iterations"] < 2000
    assert 0.0 <= result["grad_norm"] <= np.sqrt(1e-13)


def test_generate_reproducible_bitwise(sphere_file, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    ma, mb = tmp_path / "a.json", tmp_path / "b.json"
    args = ["generate", "--set", str(sphere_file), "--method", "random", "--n", "50", "--seed", "3"]
    assert main(args + ["--out", str(a), "--manifest", str(ma)]) == 0
    assert main(args + ["--out", str(b), "--manifest", str(mb)]) == 0
    assert a.read_bytes() == b.read_bytes()
    # manifests differ only in the output paths they name
    da, db = json.loads(ma.read_text()), json.loads(mb.read_text())
    da.pop("outputs"), db.pop("outputs")
    da["params"].pop("out"), db["params"].pop("out")
    assert da == db


def test_manifest_alone_reproduces_run_bitwise(sphere_file, tmp_path):
    out1, m1 = tmp_path / "one.csv", tmp_path / "one.json"
    assert main(["generate", "--set", str(sphere_file), "--method", "leja", "--n", "30",
                 "--seed", "13", "--candidates", "512", "--out", str(out1),
                 "--manifest", str(m1)]) == 0
    m = json.loads(m1.read_text())
    # rebuild the command from manifest fields only
    set2 = tmp_path / "from_manifest.txt"
    set2.write_text(m["set_definition"])
    out2 = tmp_path / "two.csv"
    args = [
        "generate", "--set", str(set2), "--method", m["params"]["method"],
        "--n", str(m["params"]["n"]), "--seed", str(m["seed"]),
        "--alpha", str(m["kernel"]["alpha"]), "--restarts", str(m["params"]["restarts"]),
        "--max-iters", str(m["params"]["max_iters"]), "--tol", str(m["params"]["tol"]),
        "--candidates", str(m["params"]["candidates"]), "--out", str(out2),
    ]
    if m["params"]["xi0"] is not None:
        args += ["--xi0", m["params"]["xi0"]]
    assert main(args) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_generate_missing_set_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--method", "leja", "--n", "5", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", ["--r-c=abc", "--method=foo"])
def test_argument_error_is_one_line(sphere_file, tmp_path, capsys, flag):
    """An argument argparse rejects exits 2 with one 'error:' line on
    stderr, not the usage block."""
    argv = ["study", "--set", str(sphere_file), "--method", "random", "--schedule", "5",
            "--out", str(tmp_path / "s.csv"), flag]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert flag.split("=")[0] in err


def test_generate_unreadable_set_exits_2(tmp_path):
    code = main(["generate", "--set", str(tmp_path / "missing.txt"), "--method", "random",
                 "--n", "5", "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_generate_bad_set_file_exits_2(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("shape = dodecahedron\n")
    code = main(["generate", "--set", str(bad), "--method", "random", "--n", "5",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_generate_infeasible_xi0_exits_3(sphere_file, tmp_path):
    code = main(["generate", "--set", str(sphere_file), "--method", "leja", "--n", "5",
                 "--xi0", "5,0,0", "--out", str(tmp_path / "x.csv")])
    assert code == 3


def test_study_infeasible_xi0_exits_3_without_a_csv(sphere_file, tmp_path, capsys):
    out = tmp_path / "s.csv"
    code = main(["study", "--set", str(sphere_file), "--method", "leja", "--schedule", "5",
                 "--xi0", "5,0,0", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("flags, exit_code", [
    (["--method", "random", "--schedule", "1"], 2),
    (["--method", "random", "--schedule", "5", "--probe", "0.5,0.5,0.5"], 3),
    (["--method", "leja", "--schedule", "5", "--candidates", "0"], 2),
    (["--method", "leja", "--schedule", "5", "--xi0", "5,5,5"], 3),
    (["--method", "leja", "--schedule", "5", "--xi0", "1,0"], 2),
    (["--method", "random", "--schedule", "5", "--r-c", "0"], 2),
    (["--method", "random", "--schedule", "5", "--r-a", "nan"], 2),
    (["--method", "fekete", "--schedule", "5", "--restarts", "0"], 2),
    (["--method", "fekete", "--schedule", "5", "--tol", "nan"], 2),
], ids=["schedule-1", "probe-inside", "leja-candidates-0", "leja-xi0-outside", "leja-xi0-short",
        "r-c-0", "r-a-nan", "fekete-restarts-0", "fekete-tol-nan"])
def test_study_validates_before_building_the_oracle(tmp_path, monkeypatch, capsys, flags, exit_code):
    """An invalid study on the unit cube exits before the oracle builds its
    Fekete support."""
    calls = []
    monkeypatch.setattr(cli, "equilibrium_oracle", lambda *a, **k: calls.append(a))
    cube = tmp_path / "cube.txt"
    cube.write_text("shape = box\nlow = 0 0 0\nhigh = 1 1 1\n")
    code = main(["study", "--set", str(cube), *flags, "--out", str(tmp_path / "s.csv")])
    assert code == exit_code
    assert capsys.readouterr().err.startswith("error: ")
    assert calls == []


@pytest.mark.parametrize("points, y, exit_code", [("pts.csv", "0.5,0.5,0.5", 3), ("missing.csv", "2,0,0", 2)],
                         ids=["y-inside", "missing-points"])
def test_potential_validates_before_building_the_oracle(tmp_path, monkeypatch, capsys, points, y, exit_code):
    """An invalid potential query on the unit cube exits before the oracle
    builds its Fekete support."""
    cube = tmp_path / "cube.txt"
    cube.write_text("shape = box\nlow = 0 0 0\nhigh = 1 1 1\n")
    assert main(["generate", "--set", str(cube), "--method", "random", "--n", "5",
                 "--out", str(tmp_path / "pts.csv")]) == 0
    calls = []
    monkeypatch.setattr(cli, "equilibrium_oracle", lambda *a, **k: calls.append(a))
    code = main(["potential", "--set", str(cube), "--points", str(tmp_path / points), "--y", y])
    assert code == exit_code
    assert capsys.readouterr().err.startswith("error: ")
    assert calls == []


def test_generate_on_box_and_union_sets(tmp_path):
    box_file = tmp_path / "box.txt"
    box_file.write_text("shape = box\nlow = 0 0 0\nhigh = 1 2 1\n")
    union_file = tmp_path / "union.txt"
    union_file.write_text("shape = union\nball = 0 0 0 1\nball = 3 0 0 0.5\n")
    for set_file in (box_file, union_file):
        out = tmp_path / f"{set_file.stem}_pts.csv"
        code = main(["generate", "--set", str(set_file), "--method", "random",
                     "--n", "40", "--seed", "1", "--out", str(out)])
        assert code == 0
        assert read_points_csv(out).n == 40
    out = tmp_path / "box_fekete.csv"
    code = main(["generate", "--set", str(box_file), "--method", "fekete", "--n", "8",
                 "--seed", "1", "--restarts", "2", "--max-iters", "600", "--out", str(out)])
    assert code == 0


@pytest.mark.parametrize("E,expected", [
    (ball([0.0, 0, 0], 1.0), [2.0, 0.0, 0.0]),
    (box([0.0, 0, 0], [1.0, 2, 1]), [2.0, 1.0, 0.5]),
    (union_of_balls([([0.0, 0, 0], 1.0), ([3.0, 0, 0], 0.5)]), [4.5, 0.0, 0.0]),
], ids=["ball", "box", "union"])
def test_default_probe_is_pinned(E, expected):
    np.testing.assert_array_equal(cli._default_probe(E), expected)


def test_default_probe_on_a_three_ball_union_is_at_distance_one():
    E = union_of_balls([([0.0, 0, 0], 1.0), ([1.5, 0, 0], 1.0), ([0.7, 1.2, 0], 0.8)])
    assert abs(distance_to_set(E, cli._default_probe(E)) - 1.0) <= 1e-15


def test_study_columns_and_inequality(sphere_file, tmp_path):
    out = tmp_path / "study.csv"
    code = main([
        "study", "--set", str(sphere_file), "--method", "leja", "--schedule", "10,20,40",
        "--seed", "5", "--out", str(out), "--candidates", "512",
    ])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0].keys()) == STUDY_COLUMNS
    assert [int(r["n"]) for r in rows] == [10, 20, 40]
    for r in rows:
        assert float(r["m_E"]) == 0.0
        assert np.isfinite(float(r["rhs"]))
        assert float(r["lhs"]) <= float(r["rhs"])
    # the energy gap shrinks toward zero along the schedule
    gaps = [float(r["energy_gap"]) for r in rows]
    assert gaps[-1] > gaps[0]


def _leja_study_on_ball(tmp_path, monkeypatch, schedule):
    """Rows of a unit-ball ``study --method leja`` at seed 5, keyed by
    their n in schedule order, as raw CSV lines; and its greedy steps, the
    potential-minimum calls of leja_sequence."""
    ball_file = tmp_path / "ball.txt"
    ball_file.write_text("shape = ball\ncenter = 0 0 0\nradius = 1\n")
    calls = []
    step = configurations._potential_min

    def counted_step(*args, **kwargs):
        calls.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(configurations, "_potential_min", counted_step)
    out = tmp_path / f"study_{schedule.replace(',', '_')}.csv"
    assert main(["study", "--set", str(ball_file), "--method", "leja", "--schedule", schedule,
                 "--seed", "5", "--candidates", "512", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()[1:]
    return [(int(line.split(",")[0]), line) for line in lines], len(calls)


def test_study_leja_rows_are_prefixes_of_one_sequence(tmp_path, monkeypatch):
    rows, _ = _leja_study_on_ball(tmp_path, monkeypatch, "10,20,40")
    reordered, _ = _leja_study_on_ball(tmp_path, monkeypatch, "40,10")
    assert dict(reordered) == {n: line for n, line in rows if n in (10, 40)}
    E, spec = ball(np.zeros(3), 1.0), KernelSpec(alpha=2.0, dim=3)
    xi0 = project_to_set(E, np.array([2.0, 0.0, 0.0]))  # the default start
    longest = leja_sequence(E, spec, 40, xi0, candidate_count=512, seed=child_seed(5, "study", "leja"))
    for n, line in rows:
        assert float(line.split(",")[1]) == discrete_energy(longest.prefix(n), spec)


def test_study_leja_runs_the_greedy_steps_once(tmp_path, monkeypatch):
    _, calls = _leja_study_on_ball(tmp_path, monkeypatch, "10,20,40")
    assert calls == 39  # one 40-point sequence, not 9 + 19 + 39 steps
    rows, calls = _leja_study_on_ball(tmp_path, monkeypatch, "40,10,40")
    assert [n for n, _ in rows] == [40, 10, 40]
    assert rows[0] == rows[2]
    assert calls == 39


@pytest.mark.parametrize("method", ["leja", "random"])
def test_study_computes_each_row_energy_once(tmp_path, monkeypatch, method):
    """The bound computes a row's energy and the row reads it from the
    report, so a 4-row study evaluates the energy 4 times, not 8."""
    ball_file = tmp_path / "ball.txt"
    ball_file.write_text("shape = ball\ncenter = 0 0 0\nradius = 1\n")
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return discrete_energy(*args, **kwargs)

    for module in (cli, configurations, discrepancy, measures):
        monkeypatch.setattr(module, "discrete_energy", counted)
    out = tmp_path / "study.csv"
    assert main(["study", "--set", str(ball_file), "--method", method, "--schedule", "10,20,30,40",
                 "--seed", "5", "--candidates", "512", "--out", str(out)]) == 0
    assert len(calls) == 4
    for line in out.read_text().splitlines()[1:]:
        n, energy = line.split(",")[:2]
        assert float(energy) > 0.0, n


def test_study_fekete_gap_shrinks(sphere_file, tmp_path):
    out = tmp_path / "study.csv"
    code = main([
        "study", "--set", str(sphere_file), "--method", "fekete", "--schedule", "10,20,40",
        "--seed", "9", "--restarts", "3", "--out", str(out), "--manifest", str(tmp_path / "study.json"),
    ])
    assert code == 0
    runs = json.loads((tmp_path / "study.json").read_text())["result"]["runs"]
    assert [r["n"] for r in runs] == [10, 20, 40]
    assert all(r["converged"] and r["grad_norm"] <= np.sqrt(1e-13) for r in runs)
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    gaps = [float(r["energy_gap"]) for r in rows]
    # minimum energies increase toward the Robin constant, so the signed
    # gap grows toward zero and its magnitude shrinks
    assert all(b >= a - 1e-5 for a, b in zip(gaps, gaps[1:]))
    assert all(abs(b) <= abs(a) + 1e-5 for a, b in zip(gaps, gaps[1:]))
    assert all(g <= 0 for g in gaps)


def test_study_union_uses_approximate_oracle(tmp_path):
    union_file = tmp_path / "union.txt"
    union_file.write_text("shape = union\nball = 0 0 0 1\nball = 2.5 0 0 1\n")
    out = tmp_path / "study.csv"
    code = main(["study", "--set", str(union_file), "--method", "random",
                 "--schedule", "12", "--seed", "3", "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1 and float(rows[0]["m_E"]) == 0.0
    assert np.isfinite(float(rows[0]["rhs"]))


@pytest.mark.parametrize("method", ["leja", "random", "fekete"])
def test_one_ball_union_study_is_the_balls(tmp_path, method):
    """A union of one ball is that ball: the same closed-form oracle, grid
    and sampler, so its study CSV is byte-identical to the ball's."""
    written = []
    for name, text in [("ball", "shape = ball\ncenter = 0.5 -1 2\nradius = 2.5\n"),
                       ("union", "shape = union\nball = 0.5 -1 2 2.5\n")]:
        (tmp_path / f"{name}.txt").write_text(text)
        out = tmp_path / f"{name}.csv"
        assert main(["study", "--set", str(tmp_path / f"{name}.txt"), "--method", method, "--schedule", "12,20",
                     "--seed", "3", "--restarts", "1", "--candidates", "512", "--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]


def test_study_small_smoothing_radius_reaches_the_shell(tmp_path):
    # the green term reads a shell at offset 2 r_n, here below 1e-6
    ball_file = tmp_path / "ball.txt"
    ball_file.write_text("shape = ball\ncenter = 0 0 0\nradius = 1\n")
    out = tmp_path / "study.csv"
    code = main(["study", "--set", str(ball_file), "--method", "random", "--schedule", "10",
                 "--r-c", "1e-6", "--seed", "1", "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1 and np.isfinite(float(rows[0]["rhs"]))


def test_study_refuses_nonnewtonian_exit_4(sphere_file, tmp_path):
    for method in ("random", "leja"):
        code = main([
            "study", "--set", str(sphere_file), "--method", method, "--schedule", "10",
            "--alpha", "1.5", "--out", str(tmp_path / "s.csv"),
        ])
        assert code == 4, method


def test_generate_leja_refuses_nonnewtonian_exit_4(sphere_file, tmp_path, capsys):
    code = main(["generate", "--set", str(sphere_file), "--method", "leja", "--n", "5",
                 "--alpha", "1.5", "--out", str(tmp_path / "g.csv")])
    assert code == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "requires the Newtonian kernel" in err


def test_potential_query(sphere_file, tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    main(["generate", "--set", str(sphere_file), "--method", "leja", "--n", "50",
          "--seed", "2", "--out", str(pts), "--candidates", "512"])
    capsys.readouterr()
    code = main(["potential", "--set", str(sphere_file), "--points", str(pts), "--y", "2,0,0"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["d_E"] == 1.0
    assert payload["equilibrium_potential"] == 0.5
    assert abs(payload["deficit"]) < 0.05
    assert "bound_shape" in payload


def test_potential_bound_shape_needs_a_declared_exponent(tmp_path, capsys, monkeypatch):
    """A box declares no Holder exponent by default (its exterior Green
    function grows like d**(2/3) at an edge), so ``potential`` prints no
    decay shape until the file gives holder_s. The plumbing alone is under
    test, so the box's support is solved at n = 40."""
    def small_solve(E, spec, params):
        return configurations.fekete_search_run(E, spec, dataclasses.replace(params, n=40))

    monkeypatch.setattr(discrepancy, "fekete_search_run", small_solve)
    cube = "shape = box\nlow = 0 0 0\nhigh = 1 1 1\n"
    pts = tmp_path / "pts.csv"
    pts.write_text("x1,x2,x3\n0.5,0.5,0.5\n1.0,0.0,1.0\n")
    payloads = []
    for text in (cube, cube + "holder_s = 0.5\n"):
        set_file = tmp_path / "cube.txt"
        set_file.write_text(text)
        code = main(["potential", "--set", str(set_file), "--points", str(pts), "--y", "2,0.5,0.5"])
        assert code == 0
        payloads.append(json.loads(capsys.readouterr().out))
    bare, declared = payloads
    assert "bound_shape" not in bare
    # n = 2, d_E = 1, p = s/(d+s-2) = 1/3: 2**(-p/s) + 2**(-p/2)
    assert declared["bound_shape"] == pytest.approx(2 ** (-2 / 3) + 2 ** (-1 / 6), rel=1e-12)
    assert {k: v for k, v in declared.items() if k != "bound_shape"} == bare


def test_potential_bound_shape_of_a_one_ball_union_is_the_ball_s(tmp_path, capsys):
    """A union of balls defaults to s = 1 like one ball, so ``potential``
    reports the same output, decay shape included, for a one-ball union
    and for the ball."""
    pts = tmp_path / "pts.csv"
    pts.write_text("x1,x2,x3\n0.5,-1,2\n3.0,-1,2\n")
    payloads = []
    for text in ("shape = ball\ncenter = 0.5 -1 2\nradius = 2.5\n", "shape = union\nball = 0.5 -1 2 2.5\n"):
        set_file = tmp_path / "set.txt"
        set_file.write_text(text)
        assert main(["potential", "--set", str(set_file), "--points", str(pts), "--y", "4,0,0"]) == 0
        payloads.append(json.loads(capsys.readouterr().out))
    as_ball, as_union = payloads
    assert "bound_shape" in as_ball
    assert as_union == as_ball


def test_potential_inside_probe_exits_3(tmp_path, capsys):
    ball_file = tmp_path / "ball.txt"
    ball_file.write_text("shape = ball\ncenter = 0 0 0\nradius = 1.0\n")
    pts = tmp_path / "pts.csv"
    main(["generate", "--set", str(ball_file), "--method", "random", "--n", "10",
          "--seed", "2", "--out", str(pts)])
    capsys.readouterr()
    code = main(["potential", "--set", str(ball_file), "--points", str(pts), "--y", "0.5,0,0"])
    assert code == 3


@pytest.mark.parametrize("argv", [
    ["generate", "--set", "{set}", "--method", "fekete", "--n", "10", "--restarts", "0", "--out", "{tmp}/g.csv"],
    ["study", "--set", "{set}", "--method", "random", "--schedule", "20", "--r-c", "-1", "--out", "{tmp}/s.csv"],
    ["potential", "--set", "{set}", "--points", "{tmp}/two_column.csv", "--y", "2,0,0"],
    ["potential", "--set", "{set}", "--points", "{tmp}/nope.csv", "--y", "2,0,0"],
    ["potential", "--set", "{set}", "--points", "{tmp}/empty.csv", "--y", "2,0,0"],
    ["generate", "--set", "{set}", "--method", "random", "--n", "5", "--out", "{tmp}/no_such_dir/x.csv"],
    ["potential", "--set", "{set}", "--points", "{tmp}/on_probe.csv", "--y", "2,0,0"],
    ["generate", "--set", "{tmp}/nan_radius.txt", "--method", "random", "--n", "5", "--out", "{tmp}/g.csv"],
    ["generate", "--set", "{tmp}/inf_center.txt", "--method", "random", "--n", "5", "--out", "{tmp}/g.csv"],
    ["generate", "--set", "{tmp}/inf_union.txt", "--method", "random", "--n", "5", "--out", "{tmp}/g.csv"],
    ["generate", "--set", "{tmp}/inf_box.txt", "--method", "random", "--n", "5", "--out", "{tmp}/g.csv"],
    ["generate", "--set", "{set}", "--method", "fekete", "--n", "10", "--tol", "nan", "--out", "{tmp}/g.csv"],
    ["generate", "--set", "{set}", "--method", "fekete", "--n", "10", "--tol", "inf", "--out", "{tmp}/g.csv"],
    ["generate", "--set", "{set}", "--method", "fekete", "--n", "10", "--max-iters", "-1", "--out", "{tmp}/g.csv"],
    ["study", "--set", "{set}", "--method", "random", "--schedule", ",", "--out", "{tmp}/s.csv"],
    ["study", "--set", "{set}", "--method", "random", "--schedule", "20", "--r-c", "nan", "--out", "{tmp}/s.csv"],
    ["study", "--set", "{set}", "--method", "random", "--schedule", "20", "--r-c", "inf", "--out", "{tmp}/s.csv"],
    ["study", "--set", "{set}", "--method", "random", "--schedule", "20", "--r-a", "nan", "--out", "{tmp}/s.csv"],
    ["study", "--set", "{set}", "--method", "random", "--schedule", "20", "--r-a=-inf", "--out", "{tmp}/s.csv"],
    ["potential", "--set", "{set}", "--points", "{tmp}/huge.csv", "--y", "2,0,0"],
    ["generate", "--set", "{tmp}/holder_a.txt", "--method", "random", "--n", "5", "--out", "{tmp}/g.csv"],
    ["study", "--set", "{set}", "--method", "leja", "--schedule", "20", "--candidates", "0", "--out", "{tmp}/s.csv"],
    ["generate", "--set", "{set}", "--method", "leja", "--n", "5", "--candidates", "-3", "--out", "{tmp}/g.csv"],
], ids=["restarts-0", "negative-r-c", "points-of-wrong-dimension", "missing-points-file",
        "empty-points-file", "unwritable-out", "probe-on-a-point", "nan-ball-radius",
        "infinite-sphere-center", "infinite-union-radius", "infinite-box-corner", "nan-tol",
        "infinite-tol", "negative-max-iters", "empty-schedule", "nan-r-c", "infinite-r-c",
        "nan-r-a", "negative-infinite-r-a", "point-beyond-float-range", "holder-A",
        "study-zero-candidates", "generate-negative-candidates"])
def test_invalid_value_exits_2_with_one_line(argv, sphere_file, tmp_path, capsys):
    (tmp_path / "two_column.csv").write_text("x1,x2\n1.0,0.0\n0.0,1.0\n")
    (tmp_path / "empty.csv").write_text("")
    (tmp_path / "on_probe.csv").write_text("x1,x2,x3\n0.0,0.0,1.0\n2.0,0.0,0.0\n")
    (tmp_path / "huge.csv").write_text("x1,x2,x3\n0.0,0.0,1.0\n0.0,0.0,1e200\n")
    (tmp_path / "nan_radius.txt").write_text("shape = ball\ncenter = 0 0 0\nradius = nan\n")
    (tmp_path / "inf_center.txt").write_text("shape = sphere\ncenter = 0 0 inf\nradius = 1\n")
    (tmp_path / "inf_union.txt").write_text("shape = union\nball = 0 0 0 1\nball = 3 0 0 inf\n")
    (tmp_path / "inf_box.txt").write_text("shape = box\nlow = 0 0 0\nhigh = 1 1 inf\n")
    (tmp_path / "holder_a.txt").write_text("shape = sphere\ncenter = 0 0 0\nradius = 1\n"
                                           "holder_A = 1\nholder_s = 1\n")
    code = main([a.format(set=sphere_file, tmp=tmp_path) for a in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    if "--r-c" in argv or any(a.startswith("--r-a") for a in argv):
        assert err == "error: r must be positive and finite\n"
    if "--candidates" in argv:
        assert err == "error: --candidates must be >= 1\n"
    if "holder_a.txt" in argv[2]:
        assert err == "error: unknown key 'holder_a'\n"
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("extra", [
    ["--schedule", "10", "--r-a", "-400"],
    ["--schedule", "2", "--r-c", "1e-310", "--r-a", "0"],
], ids=["r-n-beyond-float-range", "smoothing-term-beyond-float-range"])
def test_study_float_overflow_exits_2_with_one_line(extra, sphere_file, tmp_path, capsys):
    # Python float ** raises OverflowError rather than returning inf
    out = tmp_path / "s.csv"
    code = main(["study", "--set", str(sphere_file), "--method", "random", "--out", str(out)] + extra)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


def test_verify_only_filter_and_reproducibility(tmp_path, capsys):
    va, vb = tmp_path / "a.json", tmp_path / "b.json"
    code_a = main(["verify", "--only", "energy_correctness,robin", "--out", str(va)])
    code_b = main(["verify", "--only", "energy_correctness,robin", "--out", str(vb)])
    assert code_a == 0 and code_b == 0
    assert va.read_bytes() == vb.read_bytes()
    payload = json.loads(va.read_text())
    names = [c["name"] for c in payload["criteria"]]
    assert names == ["energy_correctness", "robin_constant_unit_ball"]
    assert payload["all_passed"] is True


@pytest.mark.parametrize("only", ["nothing_matches", "reproducibility", ","])
def test_verify_only_without_a_criterion_to_run_exits_2(only, tmp_path, capsys):
    out = tmp_path / "v.json"
    code = main(["verify", "--only", only, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_verify_corrupted_ledger_names_provenance(tmp_path, capsys):
    from rieszpoints.acceptance import find_default_ledger

    good = find_default_ledger()
    bad = tmp_path / "oracle_ledger.csv"
    lines = good.read_text().splitlines()
    lines[1] = lines[1].replace("1.0", "1.5", 1)
    bad.write_text("\n".join(lines) + "\n")
    code = main(["verify", "--only", "provenance", "--ledger", str(bad),
                 "--out", str(tmp_path / "v.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert "provenance" in err
    payload = json.loads((tmp_path / "v.json").read_text())
    prov = [c for c in payload["criteria"] if c["name"] == "provenance"][0]
    assert prov["passed"] is False


def _mostly(common, rare, odds=8):
    """``rare`` about once in ``odds`` draws, else ``common``."""
    return st.integers(1, odds).flatmap(lambda k: rare if k == 1 else common)


# numbers as the set grammar and the flags read them: mostly moderate, so
# that runs get past parsing, else any double (zero, negatives, extremes,
# nan and infinities)
_ANY = st.floats().map(repr)
_NUMBER = _mostly(st.floats(-3.0, 3.0).map(repr), _ANY)
_POSITIVE = _mostly(st.floats(0.05, 5.0).map(repr), _NUMBER)
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=40)


def _numbers(number=_NUMBER, count=3):
    length = _mostly(st.just(count), st.integers(0, 4))
    return length.flatmap(lambda k: st.lists(number, min_size=k, max_size=k))


@st.composite
def _set_texts(draw):
    """Set definitions of balls and spheres (the shapes with closed-form
    oracles), with missing, malformed and out-of-range fields."""
    shape = draw(_mostly(st.sampled_from(["ball", "sphere"]), st.sampled_from(["Sphere", "torus"])))
    lines = [f"shape = {shape}"]
    if draw(_mostly(st.just(True), st.just(False))):
        lines.append("center = " + " ".join(draw(_numbers())))
    if draw(_mostly(st.just(True), st.just(False))):
        lines.append("radius = " + ", ".join(draw(_numbers(_POSITIVE, count=1))))
    if draw(st.integers(0, 4)) == 0:
        lines.append(f"holder_s = {draw(_POSITIVE)}")
    if draw(st.integers(0, 19)) == 0:  # a key the grammar no longer knows
        lines.append(f"holder_A = {draw(_POSITIVE)}")
    if draw(st.integers(0, 9)) == 0:
        lines.append(draw(_TEXT))
    return "\n".join(draw(st.permutations(lines))) + "\n"


@st.composite
def _points_csvs(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(_TEXT)
    header = draw(_mostly(st.just("x1,x2,x3"), st.sampled_from(["x1,x2", "x1,x2,x3,x4", "x2,x1,x3", ""])))
    rows = draw(st.lists(_numbers().map(",".join), max_size=6))
    return "\n".join([header] + rows) + "\n"


_COMMANDS = st.fixed_dictionaries({
    "command": st.sampled_from(["generate", "study", "potential"]),
    "set": _set_texts(),
    "points": _points_csvs(),
    "y": _numbers(_mostly(st.floats(-4.0, 4.0).map(repr), _ANY)).map(",".join),
    "n": st.integers(-2, 40),
    "seed": st.integers(-2 ** 70, 2 ** 70),
    "alpha": _mostly(st.just("2.0"), _NUMBER),
    "tol": _ANY,
    "max_iters": st.integers(-2, 50),
    "candidates": st.integers(-2, 64),
    "r_c": _POSITIVE,
    "r_a": _POSITIVE,
})


@settings(max_examples=200, deadline=None)
@given(cmd=_COMMANDS)
def test_cli_fuzz_exits_with_a_documented_code_and_one_line(cmd):
    """generate --method random, study --method random and potential on
    fuzzed sets, point files and flags: every outcome is a documented
    exit code, never 1 (reserved for verify), and a failure is exactly
    one 'error:' line on stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        set_file, points_file = Path(tmp, "set.txt"), Path(tmp, "pts.csv")
        set_file.write_text(cmd["set"], encoding="utf-8")
        points_file.write_text(cmd["points"], encoding="utf-8")
        if cmd["command"] == "potential":
            argv = ["potential", "--set", str(set_file), "--points", str(points_file), f"--y={cmd['y']}"]
        else:
            argv = [cmd["command"], "--set", str(set_file), "--method", "random",
                    f"--seed={cmd['seed']}", f"--tol={cmd['tol']}", f"--max-iters={cmd['max_iters']}",
                    f"--candidates={cmd['candidates']}", "--out", str(Path(tmp, "out.csv"))]
            if cmd["command"] == "generate":
                argv.append(f"--n={cmd['n']}")
            else:
                argv += [f"--schedule={cmd['n']}", f"--r-c={cmd['r_c']}", f"--r-a={cmd['r_a']}"]
        argv.append(f"--alpha={cmd['alpha']}")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    err = err.getvalue()
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err
    if code != 0:
        assert err.startswith("error: ") and err.count("\n") == 1, err
