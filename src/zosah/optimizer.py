"""Driver for the subspace approximate-Hessian optimizer.

One outer step: pay one query for the current value, refresh the
coordinate-pair plan if the period rolled over, then measure every pair's 2-d
slice gradient (2 probes per pair), obtain every pair's 2x2 curvature matrix
(by default, a stacked least-squares fit on 3 fresh samples per pair at a
period's first step and secant updates from the paid gradients at every
later step; coordinate finite differences in the ablation mode), then repair
every matrix to be positive definite and solve for every pair's Newton
direction. The directions add up to one full-space update. A backtracking
line search along the negated update either accepts a step length or leaves
the iterate unchanged, so the accepted value sequence never increases.

The step runs all pairs through the estimator's rows pass: ``_gradients``,
then the curvature stage, then ``_newton_rows``. In ``fit`` and ``diag``
mode a period's first step fits every pair on its fresh samples
(``_fit_rows``, kappa * I where a fit fails), and every later step updates
that matrix from the secants of the gradients the period has paid for
(``_secant_rows``); the optimizer keeps this history per plan, and the diag
variant drops the off-diagonal at use. ``zosah-fd`` measures every step's
matrices with ``_fd_rows``. Each pair's matrix goes on as an (h0, h1, h2)
row of Python floats. A step whose direction inputs (f(x), gradients and
rows), concatenated as one byte string, repeat the previous step's bit for
bit, as at a point the line search cannot leave, reuses that step's
direction and skips the repair and solve; it still pays every query.
A plan switch drops the stored direction, so none outlives its plan. A plan
switch also builds the plan's probe-lift positions (``_lift_index``) once,
for the gradient probes and for the fd probes, so each of their lifts is one
``ndarray.repeat`` of x and one ``ndarray.put``; the positions are the
plan's coordinates added to row offsets built once per shape (P, n, d), so a
switch pays one addition. The fresh samples are drawn only at a plan switch,
so the step builds their positions where it queries them.
The per-pair functions
(``estimate_gradient``, ``fd_subspace_hessian``, ``make_pd``,
``newton_direction``) are one-pair views of the same pass, and the fit's
reference, ``build_fit_system`` + ``solve_hessian``, gives the same bits.

All six optimizers run one step, ``BudgetedOptimizer.step``: pay f(x), take
v from the subclass's ``_direction`` (for zosah, the stages above), search,
move x on acceptance, and append the trace row and a ``StepStats`` whose
query split the step measures on the oracle (``_direction`` adds only what
the direction knows), so query accounting is comparable across algorithms.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cache import EvalCache, _require_radius
from .estimator import (
    _FD_STEPS,
    _GRAD_STEPS,
    FAILED,
    _fd_rows,
    _fit_rows,
    _gradients,
    _lift_index,
    _newton_rows,
    _probe,
    _require_fd_eps,
    _secant_rows,
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
from .oracle import (
    CountedOracle,
    DimensionMismatchError,
    Objective,
    _require_integer,
    _require_positive,
)
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

# f(x) as the 8 bytes of a double: the first field of a step's direction key
_F64 = struct.Struct("<d")


@dataclass(frozen=True)
class ZosahConfig:
    """Hyperparameters of one optimizer run.

    ``m`` is the number of coordinates worked on per period (even, at most
    the problem dimension); None picks min(d, 20) rounded down to even.
    ``T`` is the number of steps a coordinate plan stays alive; it defaults
    to 3, which needed the fewest queries to the 20-d quadratic's target of
    T = 1, 3 and 20 and is within 2 of T = 1's 158 on the logistic set, over
    10 seeds (README's T sweep).
    """

    max_evals: int
    seed: int = 0
    m: int | None = None
    T: int = 3
    eps: float = 1e-3
    kappa: float = 0.1
    hess_radius: float = 0.05
    hessian_mode: str = "fit"

    def __post_init__(self):
        _require_integer("max_evals", self.max_evals, 0)
        _require_integer("seed", self.seed, 0)
        if self.m is not None:
            _require_integer("m", self.m)
        _require_integer("T", self.T, 1)
        for name in ("eps", "kappa"):
            _require_positive(name, getattr(self, name))
        _require_radius("hess_radius", self.hess_radius)
        if self.m is not None and (self.m < 2 or self.m % 2 != 0):
            raise ValueError(f"m must be an even integer >= 2, got {self.m}")
        if self.hessian_mode not in HESSIAN_MODES:
            raise ValueError(
                f"hessian_mode must be one of {HESSIAN_MODES}, got {self.hessian_mode!r}"
            )
        if self.hessian_mode == "fd":
            _require_fd_eps(self.eps)


class TraceRow(NamedTuple):
    """One convergence record: completed steps, queries paid, accepted value.

    An immutable NamedTuple: it compares equal to the plain tuple of its
    fields, and ``row._replace(...)`` takes the place of
    ``dataclasses.replace``.
    """

    step: int
    cum_evals: int
    f_value: float


class StepStats(NamedTuple):
    """Per-step query accounting (1 base query + the categories below).

    An immutable NamedTuple, like :class:`TraceRow`. Every optimizer's step
    appends one to ``.stats``; a baseline's q random-direction probes are its
    ``grad_evals``, and it pays no curvature queries and has no pairs.

    ``accepted`` means the line search's Armijo test passed, not that x
    moved: when rho * v rounds away against x, the trial is x itself, its
    value f(x), and the test passes once C1 * rho * ||v||^2 is below half an
    ulp of f(x). On the Rosenbrock benchmark workload 4,968 of ``zosah-fd``'s
    5,221 steps are such accepted steps that leave x bit-unchanged. ROADMAP
    item 7's ``stalled`` is the record that would tell them apart.
    """

    step: int
    grad_evals: int
    hess_evals: int  # fresh curvature samples paid this step
    search_evals: int
    pair_hess_evals: tuple[int, ...]
    accepted: bool
    rho: float
    degraded_pairs: int
    repeated: bool = False  # direction reused: its inputs repeated the last step's bits

    @property
    def total_evals(self) -> int:
        return 1 + self.grad_evals + self.hess_evals + self.search_evals


def default_subspace_size(d: int) -> int:
    """min(d, 20) rounded down to even; the default per-period coordinate count."""
    m = min(d, 20)
    return m - (m % 2)


@functools.lru_cache(maxsize=4)
def _step_lengths(init_step: float, shrink: float, min_step: float) -> tuple[float, tuple, np.ndarray]:
    """A search's trial step lengths, init_step, init_step * shrink, ... down
    to the first one below min_step: the first, then the rest as a tuple and
    as a read-only (n-1, 1) column."""
    rhos = [init_step]
    while rhos[-1] >= min_step:
        rhos.append(rhos[-1] * shrink)
    rest = np.array(rhos[1:])[:, None]
    rest.flags.writeable = False
    return init_step, tuple(rhos[1:]), rest


def _moved(x: np.ndarray, rho: float, v: np.ndarray) -> np.ndarray:
    """x - rho v, as one subtraction at rho = 1 (1.0 * v is v bit for bit)."""
    return x - v if rho == 1.0 else x - rho * v


def armijo_search(
    oracle: CountedOracle,
    x: np.ndarray,
    v: np.ndarray,
    f_x: float,
) -> tuple[float, bool, float]:
    """Backtracking line search along -v.

    Tries rho = INIT_STEP, then shrinks it by SHRINK, accepting the first
    rho with f(x - rho v) <= f_x - C1 rho ||v||^2 and f(x - rho v) finite.
    The floor test runs after each trial, so a search that never succeeds
    pays one trial per rho down to the first value below MIN_STEP. Returns
    (rho, accepted, f_new) with f_new == f_x when nothing was accepted; a
    zero direction returns immediately without spending queries.

    The first trial is formed and queried on its own. The trial points do
    not depend on the values queried, so after a rejected first trial the
    remaining ones are formed together as one (n-1, d) block, the same
    roundings row by row, and the loop queries its rows one at a time,
    stopping at the first accepted trial. A trial's value is tested against
    the bound before ``math.isfinite``, which then rejects an infinite value
    that passed it (-inf, or +inf against f_x = +inf); nan fails the bound.
    """
    v = np.asarray(v, dtype=float)
    vv = float(v.dot(v))  # ndarray.dot: the ddot of v @ v, with less call overhead
    if vv == 0.0:
        return 0.0, False, f_x
    rho, rest_rhos, rest = _step_lengths(INIT_STEP, SHRINK, MIN_STEP)
    f_try = oracle(_moved(x, rho, v))
    if f_try <= f_x - C1 * rho * vv and math.isfinite(f_try):
        return rho, True, f_try
    for rho, x_try in zip(rest_rhos, x - rest * v):
        f_try = oracle(x_try)
        if f_try <= f_x - C1 * rho * vv and math.isfinite(f_try):
            return rho, True, f_try
    return rho, False, f_x


class BudgetedOptimizer:
    """Shared run loop and step: one initial value row, then steps until the budget.

    The budget is checked between steps only; a step begun under budget runs
    to completion, so the final count can overshoot by at most one step's
    worst-case cost. A non-finite value at the start point raises
    ``FloatingPointError``: no step can descend from it. ``cfg`` gives the
    budget (``max_evals``) and the seed of the run's one generator. ``stats``
    holds one :class:`StepStats` per step, its query split measured on the oracle.
    """

    def __init__(self, oracle: CountedOracle, x0: np.ndarray, cfg):
        self.oracle = oracle
        self.x = np.array(x0, dtype=float)
        if self.x.shape != (oracle.dim,):
            raise DimensionMismatchError(f"x0 must have shape ({oracle.dim},), got {self.x.shape}")
        self.cfg = cfg
        self.max_evals = int(cfg.max_evals)
        self.rng = np.random.default_rng(cfg.seed)
        self.k = 0  # completed steps
        self.trace: list[TraceRow] = []
        self.stats: list[StepStats] = []  # one per step, as trace[1:]

    def _direction(self, x: np.ndarray, f_x: float) -> tuple[np.ndarray, tuple]:
        """v at x (f_x paid) and the ``StepStats`` fields only the direction
        knows, (hess_evals, pair_hess_evals, degraded_pairs, repeated)."""
        raise NotImplementedError

    def step(self) -> TraceRow:
        """Pay f(x), search along -v from ``_direction``, move x on acceptance;
        append the trace row and the step's ``StepStats``."""
        oracle = self.oracle
        x = self.x
        k = self.k
        count0 = oracle.count
        f_x = oracle(x)
        v, (hess_evals, pair_hess_evals, degraded, repeated) = self._direction(x, f_x)
        count1 = oracle.count
        rho, accepted, f_new = armijo_search(oracle, x, v, f_x)
        if accepted:
            self.x = _moved(x, rho, v)
        self.k = k + 1
        row = TraceRow(k + 1, oracle.count, f_new)
        self.trace.append(row)
        self.stats.append(StepStats(
            k, count1 - count0 - 1 - hess_evals, hess_evals, row.cum_evals - count1,
            pair_hess_evals, accepted, rho, degraded, repeated,
        ))
        return row

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
    """Subspace approximate-Hessian optimizer: each period's curvature is fitted
    on fresh samples at its first step and updated from paid gradients' secants."""

    def __init__(self, oracle: CountedOracle, x0: np.ndarray, cfg: ZosahConfig):
        super().__init__(oracle, x0, cfg)
        d = oracle.dim
        if d < 2:
            raise ValueError(f"need dimension >= 2 to form coordinate pairs, got d={d}")
        self.m = cfg.m if cfg.m is not None else default_subspace_size(d)
        if self.m > d:  # ZosahConfig has checked that m is even and >= 2
            raise ValueError(f"m must be even with 2 <= m <= d={d}, got {self.m}")
        self._idx = None  # the plan: (P, 2) coordinates of its pairs
        # the plan's _lift_index positions of the gradient probes and, in
        # zosah-fd, of the curvature probes
        self._grad_lift = self._fd_lift = None
        self.cache = EvalCache()
        # probe displacements of every step of the run
        self._grad_steps = cfg.eps * _GRAD_STEPS
        self._fd_steps = cfg.eps * _FD_STEPS
        # the key of _v, the last direction computed in this plan: the bytes
        # of its inputs, so -0.0 never matches 0.0 and a nan matches only its
        # own bits. A repeated step hands the same _v to its search, so
        # nothing may write to it.
        self._memo = self._v = None
        # the plan's secant history (fit and diag): the last step's slice
        # points and gradients, each pair's latest nonzero secant and its
        # carried matrix as an (h0, h1, h2) row; a period's first step
        # starts it over
        self._theta = self._g = self._last = self._B = None

    def _direction(self, x: np.ndarray, f_x: float) -> tuple[np.ndarray, tuple]:
        cfg = self.cfg
        k = self.k
        oracle = self.oracle
        if k % cfg.T == 0:  # k starts at 0, so the first step draws a plan
            d = oracle.dim
            self._idx = idx = make_plan(d, self.m, self.rng)
            self._grad_lift = _lift_index(idx, d, 2)
            if cfg.hessian_mode == "fd":
                self._fd_lift = _lift_index(idx, d, 3, by_probe=True)
            self._memo = None

        idx = self._idx
        n_pairs = len(idx)
        theta = x[idx]
        g, _, probe_f = _gradients(
            oracle, x, self._grad_lift, theta, self._grad_steps, cfg.eps, f_x
        )
        fresh_paid = 0  # per pair
        degraded = 0

        if cfg.hessian_mode == "fd":
            rows = _fd_rows(
                oracle, x, self._fd_lift, theta, self._fd_steps, cfg.eps, f_x, probe_f.tolist()
            )
            fresh_paid = 3
        else:
            if k % cfg.T == 0:
                points, flags = self.cache.draw_fresh(theta, self.rng, cfg.hess_radius)
                theta_bar = points - theta[:, None, :]
                # lifted as x[i] + (point - theta), the per-pair path's floats
                values = np.array(_probe(
                    oracle, x, _lift_index(idx, x.size, 3), theta[:, None, :] + theta_bar,
                    "curvature sample",
                )).reshape(n_pairs, 3)
                fresh_paid = 3
                degraded = int(flags.sum())
                fitted, outcome = _fit_rows(theta_bar, values, g, f_x)
                # a failed fit starts the pair at a scaled gradient step (kappa * I)
                kappa_eye = (cfg.kappa, 0.0, cfg.kappa)
                self._B = [kappa_eye if o == FAILED else h for h, o in zip(fitted, outcome)]
                self._last = [None] * n_pairs
            else:
                self._B, self._last = _secant_rows(
                    self._B, self._last, (theta - self._theta).tolist(), (g - self._g).tolist()
                )
            self._theta, self._g = theta, g
            # the diag variant drops the off-diagonal at use; B keeps it
            rows = ([(h0, 0.0, h2) for h0, _, h2 in self._B]
                    if cfg.hessian_mode == "diag" else self._B)
        # within a plan P is fixed, so equal keys mean equal inputs
        key = _F64.pack(f_x) + g.tobytes() + np.array(rows).tobytes()
        repeated = key == self._memo
        if not repeated:
            # 0.0 + w, the bits of adding w onto zeros (-0.0 becomes +0.0, a
            # nan keeps its payload); the plan's coordinates are distinct, so
            # one put writes each once
            w_rows = _newton_rows(rows, g.tolist(), cfg.kappa)
            self._v = np.zeros(x.size)
            self._v.put(idx, [c + 0.0 for w in w_rows for c in w])
            self._memo = key
        return self._v, (fresh_paid * n_pairs, (fresh_paid,) * n_pairs, degraded, repeated)


def run_zosah(
    objective: Objective, x0: np.ndarray, cfg: ZosahConfig
) -> list[TraceRow]:
    """Convenience wrapper: fresh oracle, fresh rng from cfg.seed, full run."""
    oracle = CountedOracle(objective)
    return ZosahOptimizer(oracle, x0, cfg).run()
