"""Driver for the subspace approximate-Hessian optimizer.

One outer step: refresh the coordinate-pair plan if the period rolled over,
pay one query for the current value, then measure every pair's 2-d slice
gradient (2 probes per pair), obtain every pair's 2x2 curvature matrix in one
batched pass (a stacked least-squares fit on cached evaluations by default,
coordinate finite differences in the ablation mode), then repair every matrix
to be positive definite and solve for every pair's Newton direction in one
more pass. The directions add up to one full-space update. A backtracking
line search along the negated update either accepts a step length or leaves
the iterate unchanged, so the accepted value sequence never increases.

The batched stages give the bits of the per-pair functions they replace
(``estimate_gradient``, ``build_fit_system`` + ``solve_hessian``,
``fd_subspace_hessian``, ``make_pd`` + ``newton_direction``), so traces do not
depend on which path ran.

The line search and the budgeted run loop live here and are shared verbatim
by the baseline optimizers, keeping query accounting comparable across
algorithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cache import EvalCache
from .estimator import (
    estimate_gradients,
    fd_hessians,
    fit_hessians,
    newton_directions,
    probe_values,
)
# Per-pair estimators the step does not call; bench/tracer.py looks them up
# in this module.
from .estimator import (  # noqa: F401
    build_fit_system,
    estimate_gradient,
    fd_subspace_hessian,
    make_pd,
    newton_direction,
    solve_hessian,
)
from .oracle import CountedOracle, DimensionMismatchError, Objective
from .subspace import make_plan

__all__ = [
    "ZosahConfig",
    "TraceRow",
    "StepStats",
    "armijo_search",
    "BudgetedOptimizer",
    "ZosahOptimizer",
    "run_zosah",
    "default_subspace_size",
    "HESSIAN_MODES",
]

HESSIAN_MODES = ("fit", "diag", "fd")

# Backtracking constants shared by every optimizer in the package: first
# trial step, Armijo sufficient-decrease factor, step shrink factor, and the
# step below which a search gives up.
INIT_STEP = 1.0
C1 = 1e-4
SHRINK = 0.5
MIN_STEP = 1e-6


@dataclass(frozen=True)
class ZosahConfig:
    """Hyperparameters of one optimizer run.

    ``m`` is the number of coordinates worked on per period (even, at most
    the problem dimension); None picks min(d, 20) rounded down to even.
    ``T`` is the number of steps a coordinate plan stays alive.
    """

    max_evals: int
    seed: int = 0
    m: int | None = None
    T: int = 20
    eps: float = 1e-3
    kappa: float = 0.1
    hess_radius: float = 0.05
    hessian_mode: str = "fit"

    def __post_init__(self):
        if self.max_evals < 0:
            raise ValueError("max_evals must be non-negative")
        if self.T < 1:
            raise ValueError(f"T must be >= 1, got {self.T}")
        for name in ("eps", "kappa", "hess_radius"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.m is not None and (self.m < 2 or self.m % 2 != 0):
            raise ValueError(f"m must be an even integer >= 2, got {self.m}")
        if self.hessian_mode not in HESSIAN_MODES:
            raise ValueError(
                f"hessian_mode must be one of {HESSIAN_MODES}, got {self.hessian_mode!r}"
            )


@dataclass(frozen=True)
class TraceRow:
    """One convergence record: completed steps, queries paid, accepted value."""

    step: int
    cum_evals: int
    f_value: float


@dataclass(frozen=True)
class StepStats:
    """Per-step query accounting (1 base query + the categories below)."""

    step: int
    grad_evals: int
    hess_evals: int  # fresh curvature samples paid this step
    search_evals: int
    pair_hess_evals: tuple[int, ...]
    accepted: bool
    rho: float
    degraded_pairs: int

    @property
    def total_evals(self) -> int:
        return 1 + self.grad_evals + self.hess_evals + self.search_evals


def default_subspace_size(d: int) -> int:
    """min(d, 20) rounded down to even; the default per-period coordinate count."""
    m = min(d, 20)
    return m - (m % 2)


def armijo_search(
    oracle: CountedOracle,
    x: np.ndarray,
    v: np.ndarray,
    f_x: float,
) -> tuple[float, bool, float]:
    """Backtracking line search along -v.

    Tries rho = INIT_STEP, then shrinks it by SHRINK, accepting the first
    rho with f(x - rho v) <= f_x - C1 rho ||v||^2. The floor test runs after
    each trial, so a search that never succeeds pays one trial per rho down
    to the first value below MIN_STEP. Returns (rho, accepted, f_new) with
    f_new == f_x when nothing was accepted; a zero direction returns
    immediately without spending queries.
    """
    v = np.asarray(v, dtype=float)
    vv = float(v @ v)
    if vv == 0.0:
        return 0.0, False, f_x
    rho = INIT_STEP
    while True:
        f_try = oracle(x - rho * v)
        if math.isfinite(f_try) and f_try <= f_x - C1 * rho * vv:
            return rho, True, f_try
        if rho < MIN_STEP:
            return rho, False, f_x
        rho *= SHRINK


class BudgetedOptimizer:
    """Shared run loop: one initial value row, then steps until the budget.

    The budget is checked between steps only; a step begun under budget runs
    to completion, so the final count can overshoot by at most one step's
    worst-case cost. A non-finite value at the start point raises
    ``FloatingPointError``: no step can descend from it.
    """

    def __init__(self, oracle: CountedOracle, x0: np.ndarray, max_evals: int):
        self.oracle = oracle
        self.x = np.array(x0, dtype=float)
        if self.x.shape != (oracle.dim,):
            raise DimensionMismatchError(
                f"x0 must have shape ({oracle.dim},), got {self.x.shape}"
            )
        self.max_evals = int(max_evals)
        self.k = 0  # completed steps
        self.trace: list[TraceRow] = []

    def step(self) -> TraceRow:
        raise NotImplementedError

    def run(self) -> list[TraceRow]:
        if not self.trace:
            f0 = self.oracle(self.x)
            if not np.isfinite(f0):
                raise FloatingPointError(
                    f"objective returned non-finite value {f0} at the start point "
                    f"x0 = {self.x.tolist()}"
                )
            self.trace.append(TraceRow(0, self.oracle.count, f0))
        while self.oracle.count < self.max_evals:
            self.step()
        return list(self.trace)


class ZosahOptimizer(BudgetedOptimizer):
    """Subspace approximate-Hessian optimizer with evaluation caching."""

    def __init__(self, oracle: CountedOracle, x0: np.ndarray, cfg: ZosahConfig):
        super().__init__(oracle, x0, cfg.max_evals)
        d = oracle.dim
        if d < 2:
            raise ValueError(f"need dimension >= 2 to form coordinate pairs, got d={d}")
        self.cfg = cfg
        self.m = cfg.m if cfg.m is not None else default_subspace_size(d)
        if self.m % 2 != 0 or not 2 <= self.m <= d:
            raise ValueError(f"m must be even with 2 <= m <= d={d}, got {self.m}")
        self.rng = np.random.default_rng(cfg.seed)
        self.plan = None
        self._idx = None  # (P, 2) coordinates of the plan's pairs
        self.cache = EvalCache()
        self.stats: list[StepStats] = []

    def step(self) -> TraceRow:
        cfg = self.cfg
        k = self.k
        if self.plan is None or k % cfg.T == 0:
            self.plan = make_plan(self.oracle.dim, self.m, self.rng, step=k)
            self.cache.reset(self.plan)
            self._idx = np.array([p.pair for p in self.plan.pairs])

        count0 = self.oracle.count
        f_x = self.oracle(self.x)
        idx = self._idx
        n_pairs = len(idx)
        g, probe_points, probe_f = estimate_gradients(self.oracle, self.x, idx, cfg.eps, f_x)
        grad_evals = 2 * n_pairs
        fresh_paid = 0  # per pair
        degraded = 0

        if cfg.hessian_mode == "fd":
            H = fd_hessians(self.oracle, self.x, idx, cfg.eps, f_x, probe_f)
            failed = np.zeros(n_pairs, dtype=bool)
            fresh_paid = 3
        else:
            theta = self.x[idx]
            if k % cfg.T == 0:
                points, flags = self.cache.draw_fresh(theta, self.rng, cfg.hess_radius)
                theta_bar = points - theta[:, None, :]
                # lifted as x[i] + (point - theta), the per-pair path's floats
                values = probe_values(
                    self.oracle, self.x, idx, theta[:, None, :] + theta_bar, "curvature sample"
                )
                self.cache.store_fresh(k, points, values)
                fresh_paid = 3
                degraded = int(flags.sum())
            else:
                points, values = self.cache.window(k, cfg.T)
                theta_bar = points - theta[:, None, :]
            H, failed = fit_hessians(theta_bar, values, g, f_x)
            self.cache.store_probes(k, probe_points, probe_f)

        if failed.any():
            H[failed] = cfg.kappa * np.eye(2)  # scaled gradient fallback
        if cfg.hessian_mode == "diag":
            H[:, 0, 1] = H[:, 1, 0] = 0.0
        v = np.zeros_like(self.x)
        v[idx] += newton_directions(H, g, cfg.kappa)

        hess_evals = fresh_paid * n_pairs
        rho, accepted, f_new = armijo_search(self.oracle, self.x, v, f_x)
        search_evals = self.oracle.count - count0 - 1 - grad_evals - hess_evals
        if accepted:
            self.x = self.x - rho * v
            f_accepted = f_new
        else:
            f_accepted = f_x

        self.k += 1
        row = TraceRow(self.k, self.oracle.count, f_accepted)
        self.trace.append(row)
        self.stats.append(
            StepStats(
                step=k,
                grad_evals=grad_evals,
                hess_evals=hess_evals,
                search_evals=search_evals,
                pair_hess_evals=(fresh_paid,) * n_pairs,
                accepted=accepted,
                rho=rho,
                degraded_pairs=degraded,
            )
        )
        return row


def run_zosah(
    objective: Objective, x0: np.ndarray, cfg: ZosahConfig
) -> list[TraceRow]:
    """Convenience wrapper: fresh oracle, fresh rng from cfg.seed, full run."""
    oracle = CountedOracle(objective)
    return ZosahOptimizer(oracle, x0, cfg).run()
