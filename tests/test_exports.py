"""Every exported name resolves, so no deletion leaves a stale export behind."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

import zosah

MODULES = sorted(m.name for m in pkgutil.iter_modules(zosah.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"zosah.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def unused_imports(path: Path) -> list[str]:
    """``file:line: name`` for each imported name the module never uses.

    A name in the module's ``__all__`` is exported, so it counts as used, and
    an import statement whose first line carries ``# noqa: F401`` is skipped.
    """
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]  # import a.b binds a
            if name not in used:
                unused.append(f"{path.name}:{node.lineno}: {name}")
    return unused


def test_no_module_imports_a_name_it_never_uses():
    paths = sorted(Path(zosah.__file__).parent.glob("*.py"))
    assert [line for path in paths for line in unused_imports(path)] == []


def test_unused_import_check_flags_an_unused_name(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from json import dumps, loads  # noqa: F401\n"
        "from re import compile as rx, escape\n"
        "__all__ = ['escape']\n"
        "os.path.join(rx)\n"
    )
    assert unused_imports(path) == ["mod.py:2: math"]


def test_every_optimizer_runs_the_one_shared_step():
    # the base query, search, move and trace row have one home, so a second
    # step path cannot grow back in any algorithm the harness runs
    from zosah.baselines import BASELINES
    from zosah.harness import ALGORITHMS
    from zosah.optimizer import BudgetedOptimizer, ZosahOptimizer

    classes = {BASELINES.get(alg, ZosahOptimizer) for alg in ALGORITHMS}
    assert ZosahOptimizer in classes and set(BASELINES.values()) <= classes
    assert [cls for cls in classes if cls.step is not BudgetedOptimizer.step] == []


def benchmark_only_imports(path: Path) -> set[str]:
    """Names imported by a statement whose first line carries ``# noqa: F401``."""
    text = path.read_text()
    lines = text.splitlines()
    return {
        alias.asname or alias.name
        for node in ast.walk(ast.parse(text))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and "# noqa: F401" in lines[node.lineno - 1]
        for alias in node.names
    }


def test_every_unused_import_is_one_the_benchmark_tracer_replaces(monkeypatch):
    # a name kept only for bench/tracer.py must be one it still wraps on that
    # module, so it cannot outlive its one reader
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import tracer
    import workloads

    with tracer.Patcher() as patcher:
        tracer.Tracer().install(patcher, workloads.zosah_modules())
        replaced = {(owner.__name__, attr) for owner, attr, _ in patcher._saved
                    if isinstance(owner, types.ModuleType)}
    kept = {(f"zosah.{path.stem}", name)
            for path in sorted(Path(zosah.__file__).parent.glob("*.py"))
            for name in benchmark_only_imports(path)}
    assert kept and kept - replaced == set()


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_definitions(tree: ast.Module):
    """(node, name) of each private top-level name and private method."""
    methods = [item for node in tree.body if isinstance(node, ast.ClassDef)
               for item in node.body if isinstance(item, ast.FunctionDef)]
    for node in tree.body + methods:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        yield from ((node, name) for name in names if is_private(name))


def references(node: ast.AST) -> Counter:
    """How often each name is read under ``node``, as a name or an attribute."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(sub.ctx, ast.Load)
    )


def unused_private_names(paths: list[Path]) -> list[str]:
    """``file:line: name`` for each private top-level name or private method
    that no module reads outside its own definition.

    A read is a name or an attribute of that name anywhere in the modules, so
    a method reached as ``obj._m`` and a helper imported by another module
    both count; a function that only calls itself does not.
    """
    trees = {path: ast.parse(path.read_text()) for path in paths}
    read = sum(map(references, trees.values()), Counter())
    unused = []
    for path, tree in trees.items():
        for node, name in private_definitions(tree):
            if read[name] == references(node)[name]:
                unused.append(f"{path.name}:{node.lineno}: {name}")
    return unused


def test_every_private_name_is_used():
    assert unused_private_names(sorted(Path(zosah.__file__).parent.glob("*.py"))) == []


def test_unused_private_name_check_flags_an_unused_name(tmp_path):
    (tmp_path / "a.py").write_text(
        "_USED = 1\n"
        "_unused: int = 2\n"
        "def _helper():\n"
        "    return _USED\n"
        "def _loop(n):\n"
        "    return _loop(n - 1)\n"
        "def _imported():\n"
        "    pass\n"
        "class _Thing:\n"
        "    def _m(self):\n"
        "        return self._m2()\n"
        "    def _m2(self):\n"
        "        pass\n"
        "    def __repr__(self):\n"
        "        return ''\n"
    )
    (tmp_path / "b.py").write_text(
        "from a import _Thing, _imported\n"
        "_imported()\n"
        "_Thing()._m()\n"
    )
    assert unused_private_names([tmp_path / "a.py", tmp_path / "b.py"]) == [
        "a.py:2: _unused", "a.py:3: _helper", "a.py:5: _loop"]


def test_package_all_resolves():
    assert [n for n in zosah.__all__ if not hasattr(zosah, n)] == []


def test_package_surface():
    # The package exports what a user calls; internals are imported from
    # their modules.
    assert set(zosah.__all__) == {
        "ZosahConfig", "ZosahOptimizer", "run_zosah", "TraceRow",
        "BaselineConfig", "RspgOptimizer", "SignSgdOptimizer", "AdammOptimizer", "run_baseline",
        "Objective", "CountedOracle", "Dataset", "load_libsvm",
        "rosenbrock_objective", "quadratic_objective", "logistic_objective",
        "ExperimentConfig", "run_experiment", "run_single",
        "read_trace_csv", "write_trace_csv", "summarize",
        "__version__",
    }


def test_oracle_resolves_the_logistic_names():
    # The LIBSVM layer moved to zosah.logistic; zosah.oracle still hands out
    # its public names, and no others.
    import zosah.logistic
    import zosah.oracle

    for name in zosah.logistic.__all__:
        assert getattr(zosah.oracle, name) is getattr(zosah.logistic, name)
    for name in ("Dataset", "load_libsvm", "logistic_objective"):
        assert getattr(zosah, name) is getattr(zosah.logistic, name)
    with pytest.raises(AttributeError, match="_csr_matvec"):
        zosah.oracle._csr_matvec
    with pytest.raises(AttributeError, match="logistic_loss"):
        zosah.logistic_loss


# Runs in a fresh interpreter: the test process has already imported scipy.
IMPORT_BOUNDARY = """
import sys
import tempfile

import zosah
import zosah.cli
from zosah.harness import ExperimentConfig, read_trace_csv, resolve_objective, run_experiment

HEAVY = ("scipy.sparse", "multiprocessing", "concurrent.futures.process")


def loaded():
    return [name for name in HEAVY if name in sys.modules]


with tempfile.TemporaryDirectory() as out:
    cfg = ExperimentConfig(alg="zosah", obj="rosenbrock", max_evals=50, jobs=1)
    combined = run_experiment(cfg, out)[-1]
    zosah.summarize(read_trace_csv(combined), 10)
print(loaded())
if sys.argv[1] == "attribute":
    zosah.load_libsvm
else:
    resolve_objective("logistic:" + sys.argv[2])
print(loaded())
"""


@pytest.mark.parametrize("trigger", ["attribute", "resolve_objective"])
def test_scipy_is_imported_only_for_libsvm_objectives(trigger, synth123_path):
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_BOUNDARY, trigger, str(synth123_path)],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert result.stdout.splitlines() == ["[]", "['scipy.sparse']"]
