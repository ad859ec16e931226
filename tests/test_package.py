import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import rieszpoints
from rieszpoints import KernelSpec, PointConfig, ball, equilibrium_oracle, radial_hat


def test_all_lists_public_names_not_modules():
    assert len(set(rieszpoints.__all__)) == len(rieszpoints.__all__)
    for name in rieszpoints.__all__:
        assert not isinstance(getattr(rieszpoints, name), types.ModuleType), name


def test_all_drops_the_estimators_and_the_grid_budget_error():
    """The bound machinery exports only paths that yield bounds, and no
    search budget needs an error class of its own."""
    for gone in ("modulus_of_continuity", "dirichlet_integral", "GridBudgetError", "SingularityError",
                 "unit_sphere_area", "MissingHolderDataError"):
        assert gone not in rieszpoints.__all__
        assert not hasattr(rieszpoints, gone)
    assert len(rieszpoints.__all__) == 36
    assert _public_parameter_count() == 99


def _public_parameter_count():
    """Parameters of every callable in ``__all__`` that has a signature
    (the exception classes have none), constructors included."""
    total = 0
    for name in rieszpoints.__all__:
        obj = getattr(rieszpoints, name)
        try:
            total += len(inspect.signature(obj).parameters)
        except ValueError:
            continue
    return total


def test_all_drops_the_greedy_step_and_the_dead_kernel_api():
    """The greedy step is a private helper shared with the sup deficit,
    the pointwise kernel formulas are test references, and one Newtonian
    check remains."""
    for gone in ("LejaState", "leja_next", "kernel_value", "kernel_gradient", "newtonian_flag"):
        assert gone not in rieszpoints.__all__
        assert not hasattr(rieszpoints, gone)
    assert not hasattr(rieszpoints.kernel, "newtonian_flag")
    assert not hasattr(rieszpoints.configurations, "leja_next")


def test_the_bound_path_carries_no_unread_field():
    """A set has no diameter (the test function's support takes twice the
    enclosing radius), an oracle no ``approximate`` flag (which shapes get
    the approximate oracle is documented on ``equilibrium_oracle``), and a
    discrepancy report does not restate the caller's ``r`` and ``n``."""
    assert not hasattr(rieszpoints.CompactSetModel, "diameter")
    assert "approximate" not in {f.name for f in dataclasses.fields(rieszpoints.EquilibriumOracle)}
    assert not {"r", "n"} & {f.name for f in dataclasses.fields(rieszpoints.DiscrepancyReport)}


def test_no_module_imports_scipy():
    """No package module imports any scipy module, oracles.py included,
    which once held the scipy.stats allowance: numpy is the only runtime
    dependency, the kernel computes its own distances and the standard
    library gives the Gaussian ppf. scipy stays a test-only second
    opinion."""
    package = Path(rieszpoints.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n == "scipy" or n.startswith("scipy.") for n in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def _package_sources():
    package = Path(rieszpoints.__file__).parent
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}


def test_no_import_inside_a_function():
    """Every import sits at module level: no module hides a dependency,
    or breaks an import cycle, inside a function body."""
    offenders = []
    for name, tree in _package_sources().items():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                offenders += [f"{name}.{func.name}:{node.lineno}" for node in ast.walk(func)
                              if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert offenders == []


def test_one_function_runs_the_line_search():
    """``configurations._BACKTRACKS`` is read in one function, the shared
    projected descent, so no second line search grows beside it."""
    readers = []
    for name, tree in _package_sources().items():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                readers += [f"{name}.{func.name}" for node in ast.walk(func)
                            if isinstance(node, ast.Name) and node.id == "_BACKTRACKS"
                            and isinstance(node.ctx, ast.Load)]
    assert readers == ["configurations._projected_descent"]


_SHAPE_FIELDS = {"kind", "center", "radius", "low", "high", "balls"}


def test_only_sets_reads_a_set_shape():
    """sets.py decides what a set's shape means. Outside it and the
    independent reference paths of oracles.py, no shape field is read: the
    closed-form oracle of one ball or sphere asks ``sets._one_ball``."""
    offenders = []
    for name, tree in _package_sources().items():
        if name in ("sets", "oracles"):
            continue
        for top in tree.body:
            where = f"{name}.{getattr(top, 'name', '<module>')}"
            offenders += [f"{where}:{node.lineno}" for node in ast.walk(top)
                          if isinstance(node, ast.Attribute) and node.attr in _SHAPE_FIELDS
                          and isinstance(node.ctx, ast.Load)]
    assert offenders == []


def test_array_holding_dataclasses_compare_by_identity():
    """A set, a configuration, an oracle and a test function hold arrays,
    so they compare and hash by identity: ``==`` gives a bool and each can
    be a dict key. The kernel keeps value equality."""
    spec = KernelSpec(2.0, 3)
    E = ball([0.0, 0, 0], 1.0)
    pairs = [(PointConfig(np.eye(3)), PointConfig(np.eye(3))), (E, ball([0.0, 0, 0], 1.0)),
             (equilibrium_oracle(E, spec), equilibrium_oracle(E, spec)),
             (radial_hat([0.5, 0, 0], 2.0), radial_hat([0.5, 0, 0], 2.0))]
    for a, b in pairs:
        assert (a == a) is True and (a == b) is False
        assert {a: 1, b: 2}[a] == 1
    assert KernelSpec(2.0, 3) == spec and hash(KernelSpec(2.0, 3)) == hash(spec)


def _package_imports(tree):
    """The package modules a module imports: ``from .x import ...`` gives x,
    and ``from . import y`` gives y."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {a.name for a in node.names}
    return found


@pytest.mark.parametrize("module, allowed", [("sets", {"errors", "seeding"}), ("measures", {"errors", "kernel"})],
                         ids=["sets", "measures"])
def test_sets_and_measures_are_low_layers(module, allowed):
    """sets.py is geometry alone and measures.py holds configurations,
    energies and potentials: neither reaches the equilibrium oracle or
    the optimizer, so neither can join an import cycle with them."""
    assert _package_imports(_package_sources()[module]) <= allowed


def test_oracles_import_only_the_inputs_of_their_second_opinion():
    """oracles.py takes from the package only its input and error types,
    the Newtonian check, the seeded streams and the sphere it pins a grid
    on; ``sample_candidates`` is called only in the ledger's covering row,
    which measures the library's own grid."""
    tree = _package_sources()["oracles"]
    imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1
                for a in node.names}
    assert imported == {"CoincidentPointsError", "KernelSpec", "require_newtonian", "PointConfig", "substream",
                        "sample_candidates", "sphere_surface"}
    callers = [func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
               for node in ast.walk(func) if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Name) and node.func.id == "sample_candidates"]
    assert callers == ["make_default_ledger_records"]


def test_import_loads_no_scipy():
    code = ("import sys, rieszpoints, rieszpoints.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(Path(rieszpoints.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _takes(param, type_name, names):
    return param.name in names or type_name in str(param.annotation)


def test_no_public_function_takes_an_oracle_with_its_set_or_kernel():
    """An EquilibriumOracle carries the set and kernel that fix mu_E, so a
    function that takes an oracle reads them there and takes neither
    separately: nothing can hand it a set or kernel the oracle disagrees
    with."""
    offenders = []
    for info in pkgutil.iter_modules(rieszpoints.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(f"rieszpoints.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            params = inspect.signature(obj).parameters.values()
            if not any(_takes(p, "EquilibriumOracle", {"oracle"}) for p in params):
                continue
            if any(_takes(p, "CompactSetModel", {"E", "set_model"}) or _takes(p, "KernelSpec", {"spec"})
                   for p in params):
                offenders.append(f"{info.name}.{name}")
    assert offenders == []
