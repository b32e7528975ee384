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
loader), and a CLI harness that writes deterministic, query-indexed
convergence traces as CSV (`zosah run`, `zosah summarize`).
"""

from .baselines import (
    AdammOptimizer,
    BaselineConfig,
    RspgOptimizer,
    SignSgdOptimizer,
    rge_gradient,
    run_baseline,
)
from .cache import EvalCache
from .estimator import (
    FitSystem,
    GradientEstimate,
    build_fit_system,
    eig2x2,
    estimate_gradient,
    fd_subspace_hessian,
    make_pd,
    newton_direction,
    solve_hessian,
)
from .harness import (
    ExperimentConfig,
    read_trace_csv,
    run_experiment,
    run_single,
    summarize,
    write_trace_csv,
)
from .oracle import (
    CountedOracle,
    Dataset,
    Objective,
    load_libsvm,
    logistic_loss,
    logistic_objective,
    quadratic_model,
    quadratic_objective,
    rosenbrock,
    rosenbrock_objective,
)
from .optimizer import (
    TraceRow,
    ZosahConfig,
    ZosahOptimizer,
    armijo_search,
    run_zosah,
)
from .subspace import PairProjection, SubspacePlan, make_plan, pair_subspaces, select_intermediate

__version__ = "0.1.0"

__all__ = [
    "AdammOptimizer",
    "BaselineConfig",
    "CountedOracle",
    "Dataset",
    "EvalCache",
    "ExperimentConfig",
    "FitSystem",
    "GradientEstimate",
    "Objective",
    "PairProjection",
    "RspgOptimizer",
    "SignSgdOptimizer",
    "SubspacePlan",
    "TraceRow",
    "ZosahConfig",
    "ZosahOptimizer",
    "armijo_search",
    "build_fit_system",
    "eig2x2",
    "estimate_gradient",
    "fd_subspace_hessian",
    "load_libsvm",
    "logistic_loss",
    "logistic_objective",
    "make_pd",
    "make_plan",
    "newton_direction",
    "pair_subspaces",
    "quadratic_model",
    "quadratic_objective",
    "read_trace_csv",
    "rge_gradient",
    "rosenbrock",
    "rosenbrock_objective",
    "run_baseline",
    "run_experiment",
    "run_single",
    "run_zosah",
    "select_intermediate",
    "solve_hessian",
    "summarize",
    "write_trace_csv",
    "__version__",
]
