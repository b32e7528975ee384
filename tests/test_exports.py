"""Every exported name resolves, so no deletion leaves a stale export behind."""

import importlib
import pkgutil

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
