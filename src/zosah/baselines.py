"""Reference zeroth-order baselines sharing the package's metering and step.

All three descend along a direction derived from the randomized
forward-difference gradient estimate (average of q Gaussian directional
differences). They supply only that direction, ``_RgeDescent._direction``;
the base query, Armijo search, move, trace row and ``StepStats`` record are
the subspace optimizer's own ``BudgetedOptimizer.step``, so query counts
are comparable across algorithms. The estimate forms its directions, points
and terms as (q, d) blocks, with the bits of the per-direction loop, and
still pays its q queries one oracle call at a time:

- rspg:    the raw estimate;
- signsgd: its componentwise sign;
- adamm:   adaptive momentum (bias-unaware, max-stabilized second moment).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimator import _require_finite
from .oracle import CountedOracle, Objective, _require_integer, _require_positive
from .optimizer import BudgetedOptimizer, TraceRow, ZosahConfig

# Unused here: the shared step looks the search up in zosah.optimizer, and
# bench/tracer.py still wraps it on this module.
from .optimizer import armijo_search  # noqa: F401

__all__ = [
    "BaselineConfig",
    "rge_gradient",
    "RspgOptimizer",
    "SignSgdOptimizer",
    "AdammOptimizer",
    "BASELINES",
    "run_baseline",
]

# Adamm's first- and second-moment decay rates and the denominator offset.
BETA1 = 0.9
BETA2 = 0.5
DELTA = 1e-8


@dataclass(frozen=True)
class BaselineConfig:
    """Hyperparameters shared by the smoothing baselines."""

    max_evals: int
    seed: int = 0
    q: int = 10
    eps: float = ZosahConfig.eps

    def __post_init__(self):
        _require_integer("max_evals", self.max_evals, 0)
        _require_integer("seed", self.seed, 0)
        _require_integer("q", self.q, 1)
        _require_positive("eps", self.eps)


def rge_gradient(
    oracle: CountedOracle,
    x: np.ndarray,
    q: int,
    eps: float,
    rng: np.random.Generator,
    f_x: float,
) -> np.ndarray:
    """Averaged forward-difference gradient along q standard-normal directions.

    ``f_x`` is the already-paid value at x, so this spends exactly q queries
    (q+1 including the caller's f(x)), one oracle call per direction, in order.

    The directions, query points and terms are formed as (q, d) blocks. The
    bits are those of summing term by term from g = 0: one
    ``standard_normal((q, d))`` consumes the generator as q draws of d, and
    the sum is a sequential ``cumsum`` whose first row gets ``+ 0.0`` (what
    ``0 + t`` does to a -0.0). Only a nan's sign bit may differ (when two
    nans meet, which one an add returns depends on the loop), and a nan
    direction is rejected by the line search either way.

    Raises FloatingPointError naming the random-direction probe if a
    queried value is not finite.
    """
    x = np.asarray(x, dtype=float)
    u = rng.standard_normal((q, x.shape[0]))
    values = list(map(oracle, x + eps * u))
    _require_finite(values, "random-direction probe")
    diffs = [(value - f_x) / eps for value in values]
    terms = np.array(diffs)[:, None] * u
    terms[0] += 0.0
    return terms.cumsum(axis=0)[-1] / q


class _RgeDescent(BudgetedOptimizer):
    """Direction: the subclass's ``_rule`` applied to the q-direction estimate."""

    def _direction(self, x: np.ndarray, f_x: float) -> tuple[np.ndarray, tuple]:
        g = rge_gradient(self.oracle, x, self.cfg.q, self.cfg.eps, self.rng, f_x)
        return self._rule(g), (0, (), 0, False)  # no curvature queries, no pairs


class RspgOptimizer(_RgeDescent):
    """Randomized stochastic projected gradient: descend along the estimate."""

    def _rule(self, g: np.ndarray) -> np.ndarray:
        return g


class SignSgdOptimizer(_RgeDescent):
    """Descend along the componentwise sign of the estimate (0 stays 0)."""

    def _rule(self, g: np.ndarray) -> np.ndarray:
        return np.sign(g)


class AdammOptimizer(_RgeDescent):
    """Adaptive-momentum direction on the estimate.

    The momentum state advances on every step, whether or not the line
    search accepts the resulting move.
    """

    def __init__(self, oracle, x0, cfg):
        super().__init__(oracle, x0, cfg)
        d = oracle.dim
        self.m_avg = np.zeros(d)
        self.v_avg = np.zeros(d)
        self.v_hat = np.zeros(d)

    def _rule(self, g: np.ndarray) -> np.ndarray:
        self.m_avg = BETA1 * self.m_avg + (1.0 - BETA1) * g
        self.v_avg = BETA2 * self.v_avg + (1.0 - BETA2) * g * g
        self.v_hat = np.maximum(self.v_hat, self.v_avg)
        return self.m_avg / (np.sqrt(self.v_hat) + DELTA)


BASELINES = {
    "rspg": RspgOptimizer,
    "signsgd": SignSgdOptimizer,
    "adamm": AdammOptimizer,
}


def run_baseline(
    objective: Objective, x0: np.ndarray, cfg: BaselineConfig, method: str
) -> list[TraceRow]:
    """Fresh oracle, fresh rng from cfg.seed, full run of the named baseline."""
    try:
        cls = BASELINES[method]
    except KeyError:
        raise ValueError(
            f"unknown baseline {method!r}; expected one of {sorted(BASELINES)}"
        ) from None
    oracle = CountedOracle(objective)
    return cls(oracle, x0, cfg).run()
