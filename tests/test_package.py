import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import rieszpoints


def test_all_lists_public_names_not_modules():
    assert len(set(rieszpoints.__all__)) == len(rieszpoints.__all__)
    for name in rieszpoints.__all__:
        assert not isinstance(getattr(rieszpoints, name), types.ModuleType), name


def test_all_drops_the_estimators_and_the_grid_budget_error():
    """The bound machinery exports only paths that yield bounds; grid_fekete
    validates its inputs with ValueError."""
    for gone in ("modulus_of_continuity", "dirichlet_integral", "GridBudgetError"):
        assert gone not in rieszpoints.__all__
        assert not hasattr(rieszpoints, gone)
    assert len(rieszpoints.__all__) == 39
    assert _public_parameter_count() == 109


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


def test_only_oracles_imports_scipy_stats():
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
