"""Every exported name resolves, so no deletion leaves a stale export behind."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import zosah

MODULES = sorted(m.name for m in pkgutil.iter_modules(zosah.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"zosah.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


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
