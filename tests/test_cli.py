import csv
import json

import numpy as np
import pytest

from rieszpoints.cli import STUDY_COLUMNS, main
from rieszpoints.measures import read_points_csv

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


def test_study_refuses_nonnewtonian_exit_4(sphere_file, tmp_path):
    code = main([
        "study", "--set", str(sphere_file), "--method", "random", "--schedule", "10",
        "--alpha", "1.5", "--out", str(tmp_path / "s.csv"),
    ])
    assert code == 4


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
], ids=["restarts-0", "negative-r-c", "points-of-wrong-dimension", "missing-points-file",
        "empty-points-file", "unwritable-out"])
def test_invalid_value_exits_2_with_one_line(argv, sphere_file, tmp_path, capsys):
    (tmp_path / "two_column.csv").write_text("x1,x2\n1.0,0.0\n0.0,1.0\n")
    (tmp_path / "empty.csv").write_text("")
    code = main([a.format(set=sphere_file, tmp=tmp_path) for a in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


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
