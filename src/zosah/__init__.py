"""Zeroth-order optimization with subspace-fitted approximate Hessians.

This package minimizes black-box functions using nothing but function
evaluations, and treats the number of evaluations as the only cost that
matters. The main optimizer works on randomly chosen coordinate pairs: it
measures each pair's 2-d gradient with two forward differences, recovers the
pair's 2x2 curvature by least-squares fitting a quadratic model to recently
banked evaluations (sampling fresh points only when the coordinate plan is
redrawn, every T steps), repairs the fit to be positive definite, and
accumulates the per-pair Newton directions into one update vetted by an
Armijo backtracking line search.

Also included: randomized-gradient baselines (plain descent, sign descent,
adaptive momentum) sharing the same metering and line search, benchmark
objectives (Rosenbrock, quadratics, sparse logistic regression with a LIBSVM
loader; scipy is imported only when the last is used), and a CLI harness
that writes deterministic, query-indexed convergence traces as CSV
(`zosah run`, `zosah summarize`).
"""

from .baselines import (
    AdammOptimizer,
    BaselineConfig,
    RspgOptimizer,
    SignSgdOptimizer,
    run_baseline,
)
from .harness import (
    ExperimentConfig,
    read_trace_csv,
    run_experiment,
    run_single,
    summarize,
    write_trace_csv,
)
from .optimizer import TraceRow, ZosahConfig, ZosahOptimizer, run_zosah
from .oracle import CountedOracle, Objective, quadratic_objective, rosenbrock_objective

__version__ = "0.1.0"

# What a user calls: the optimizer and its ablations, the baselines, the
# objectives and the experiment harness. Internals (estimator, cache,
# subspace plans, line search) are imported from their modules.
__all__ = [
    "ZosahConfig",
    "ZosahOptimizer",
    "run_zosah",
    "TraceRow",
    "BaselineConfig",
    "RspgOptimizer",
    "SignSgdOptimizer",
    "AdammOptimizer",
    "run_baseline",
    "Objective",
    "CountedOracle",
    "Dataset",
    "load_libsvm",
    "rosenbrock_objective",
    "quadratic_objective",
    "logistic_objective",
    "ExperimentConfig",
    "run_experiment",
    "run_single",
    "read_trace_csv",
    "write_trace_csv",
    "summarize",
    "__version__",
]

# Names of the LIBSVM layer, resolved on first access (PEP 562) so that
# ``import zosah`` does not import scipy.
_LOGISTIC_NAMES = frozenset({"Dataset", "load_libsvm", "logistic_objective"})


def __getattr__(name: str):
    if name in _LOGISTIC_NAMES:
        from . import logistic

        return getattr(logistic, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
