"""Reuse of recent function evaluations for the curvature fits.

Sampling fresh points for every 2x2 fit would triple the per-step query
bill.  Instead the cache banks, for every pair of the current plan, the
gradient probes of the two preceding steps (plus the fresh samples drawn
when a subspace period begins) and replays them, recentred on the current
slice point:

- first step of a period: nothing to reuse, draw 3 fresh points on a small
  circle around the current point (re-drawn while their fit system is
  ill-conditioned); every pair's draws come from one scan of the generator's
  stream, which draws exactly the candidate sets it scans;
- second step: reuse the previous step's 2 probes and 3 fresh samples;
- every later step: reuse the 4 gradient probes of the two preceding steps.

The plan is the (P, 2) array of pair coordinates that ``make_plan`` draws,
and row j of the window belongs to its pair j. The window is two arrays,
``points`` (P, 7, 2) in absolute slice coordinates and ``values`` (P, 7),
split into three slot groups: the older probes, the newer probes and the
period's fresh samples, each tagged with the step it was recorded at. A
step's sample set is always one contiguous slot range (newer probes + fresh,
or older + newer probes), so every pair's samples come out as one (P, s, 2)
slab for the batched fit. A slot not written at its group's step holds NaN
and counts as missing. The window is cleared on every plan switch, so it
never serves points recorded under a different plan.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .estimator import GAMMA_FLOOR, _eigvalsh, _require_finite, quad_monomials
from .oracle import _require_positive
from .subspace import PairProjection

__all__ = ["EvalCache", "GatherResult", "PlanMismatchError"]

# Slot groups of the window.
_OLD = slice(0, 2)  # gradient probes recorded the step before the newer ones
_NEW = slice(2, 4)  # gradient probes of the latest recorded step
_FRESH = slice(4, 7)  # fresh samples of the period's first step
_SLOTS = 7

# Draws of one pair's fresh samples before it settles for the best-conditioned
# set; a draw is accepted when its Gram matrix clears GAMMA_FLOOR.
MAX_ATTEMPTS = 10

# Largest radius whose fresh samples' Gram matrix cannot overflow: at
# radius r each monomial is at most r^2 / 2 in magnitude, so each entry of
# the Gram over three points is at most 0.75 r^4, which stays below the
# largest double (about 1.8e308) up to r = 1.24e77 less rounding.
MAX_HESS_RADIUS = 1.2e77


def _require_radius(name: str, radius: float) -> None:
    """Reject a fresh-sample radius that is not finite and positive or is above MAX_HESS_RADIUS."""
    _require_positive(name, radius)
    if radius > MAX_HESS_RADIUS:
        raise ValueError(f"{name} must be at most {MAX_HESS_RADIUS:g}, beyond which the "
                         f"fresh samples' Gram matrix can overflow, got {radius:g}")


class PlanMismatchError(ValueError):
    """A record or query referenced a pair that is not in the current plan."""


class GatherResult(NamedTuple):
    samples: list[tuple[np.ndarray, float]]  # (theta_bar, f) recentred, ready to fit
    fresh: list[np.ndarray]  # absolute slice points still needing evaluation
    degraded: bool  # True if fresh sampling never met the conditioning floor


def _min_gram_eig(rel: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of phi^T phi for each (..., 3, 2) set of fit points."""
    phi = quad_monomials(rel)
    return _eigvalsh(np.swapaxes(phi, -1, -2) @ phi)[..., 0]


def _circle_points(rng: np.random.Generator, radius: float, n: int) -> np.ndarray:
    """(n, 3, 2) displacements, 3 uniform angles per set, on the radius circle."""
    angles = rng.uniform(0.0, 2.0 * np.pi, size=(n, 3))
    return radius * np.stack([np.cos(angles), np.sin(angles)], axis=-1)


class EvalCache:
    """Two-step evaluation window over every coordinate pair of the plan."""

    def __init__(self):
        self._rows: dict[tuple[int, int], int] = {}
        self.points = np.empty((0, _SLOTS, 2))
        self.values = np.empty((0, _SLOTS))
        self._old_step: int | None = None
        self._new_step: int | None = None
        self._fresh_step: int | None = None

    def reset(self, idx: np.ndarray) -> None:
        """Adopt a new plan, the (P, 2) pair coordinates from ``make_plan``,
        dropping everything recorded under the old one."""
        self._rows = {pair: j for j, pair in enumerate(map(tuple, idx.tolist()))}
        self.points = np.full((len(idx), _SLOTS, 2), np.nan)
        self.values = np.full((len(idx), _SLOTS), np.nan)
        self._old_step = self._new_step = self._fresh_step = None

    # --- all pairs at once ----------------------------------------------

    def window(self, k: int, T: int) -> tuple[np.ndarray, np.ndarray]:
        """Banked points (P, s, 2) and values (P, s) reused by step k's fits.

        Views into the window, valid until the next store; s = 0 on a
        period's first step or when nothing was recorded at the steps reused.
        """
        phase = k % T
        if phase == 0:
            return self.points[:, :0], self.values[:, :0]
        if phase == 1:
            first, second = _NEW, _FRESH
            use_first, use_second = self._new_step == k - 1, self._fresh_step == k - 1
        else:
            first, second = _OLD, _NEW
            use_first, use_second = self._old_step == k - 2, self._new_step == k - 1
        # the two groups are adjacent (first.stop == second.start)
        cols = slice(
            first.start if use_first else first.stop,
            second.stop if use_second else second.start,
        )
        return self.points[:, cols], self.values[:, cols]

    def store_probes(
        self, k: int, points: np.ndarray, values: np.ndarray, row=slice(None)
    ) -> None:
        """Bank step k's gradient probes: (P, 2, 2) points and (P, 2) values.

        The first store of a new step moves the newer probes to the older
        slots, so the window holds the probes of the last two steps recorded.
        ``row`` restricts the store to one pair's row.
        """
        values = _checked(values)
        if self._new_step != k:
            self.points[:, _OLD] = self.points[:, _NEW]
            self.values[:, _OLD] = self.values[:, _NEW]
            self.values[:, _NEW] = np.nan
            self._old_step, self._new_step = self._new_step, k
        self.points[row, _NEW] = points
        self.values[row, _NEW] = values

    def store_fresh(
        self, k: int, points: np.ndarray, values: np.ndarray, row=slice(None)
    ) -> None:
        """Bank step k's fresh samples: (P, 3, 2) points and (P, 3) values."""
        values = _checked(values)
        if self._fresh_step != k:
            self.values[:, _FRESH] = np.nan
            self._fresh_step = k
        self.points[row, _FRESH] = points
        self.values[row, _FRESH] = values

    def draw_fresh(
        self, theta: np.ndarray, rng: np.random.Generator, radius: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """3 conditioned points on the radius circle around each pair's point.

        ``theta`` is (P, 2); returns the (P, 3, 2) absolute points and a (P,)
        degraded mask.

        The pairs read one stream of candidate sets (3 angles each) in row
        order: a pair takes sets until one clears the floor or MAX_ATTEMPTS
        are spent, keeping the best, and the next pair goes on from the
        following set. The stream is drawn in blocks of one
        :func:`_circle_points` call, each as many sets as pairs remain. Each
        remaining pair takes at least one set, so every set drawn is scanned:
        none is spare, the generator is never rewound, and it ends where
        drawing the scanned sets one at a time leaves it.
        """
        _require_radius("radius", radius)
        n_pairs = len(theta)
        blocks = []
        eigs: list[float] = []  # smallest Gram eigenvalue of each set drawn
        chosen = []
        degraded = np.zeros(n_pairs, dtype=bool)
        i = 0  # next set of the stream
        for j in range(n_pairs):
            best, best_eig = -1, -math.inf
            for _ in range(MAX_ATTEMPTS):
                if i == len(eigs):
                    blocks.append(_circle_points(rng, radius, n_pairs - j))
                    eigs += _min_gram_eig(blocks[-1]).tolist()
                eig = eigs[i]
                if eig > best_eig:
                    best, best_eig = i, eig
                i += 1
                if eig >= GAMMA_FLOOR:
                    break
            else:
                degraded[j] = True
            chosen.append(best)
        return theta[:, None, :] + np.concatenate(blocks)[chosen], degraded

    # --- one pair ---------------------------------------------------------

    def _row(self, pair: PairProjection) -> int:
        try:
            return self._rows[pair.pair]
        except KeyError:
            raise PlanMismatchError(
                f"pair {pair.pair} is not part of the cache's current plan"
            ) from None

    def record_probes(self, k: int, pair: PairProjection, samples) -> None:
        """Bank one pair's 2 gradient probes, (point, value) as in GradientEstimate.probes."""
        self.store_probes(k, *_unzip(samples), row=self._row(pair))

    def record_fresh(self, k: int, pair: PairProjection, samples) -> None:
        """Bank one pair's 3 period-start fresh samples as (point, value)."""
        self.store_fresh(k, *_unzip(samples), row=self._row(pair))

    def gather_samples(
        self,
        k: int,
        T: int,
        pair: PairProjection,
        theta_current: np.ndarray,
        rng: np.random.Generator,
        radius: float,
    ) -> GatherResult:
        """One pair's share of the window for step k of the current plan.

        Returns recentred (theta_bar, f) samples plus any fresh absolute
        points the caller must still evaluate (non-empty only on a period's
        first step). The caller records fresh evaluations back via
        :meth:`record_fresh`.
        """
        j = self._row(pair)
        theta_current = np.asarray(theta_current, dtype=float)
        if k % T == 0:
            points, degraded = self.draw_fresh(theta_current[None], rng, radius)
            return GatherResult([], list(points[0]), bool(degraded[0]))
        points, values = self.window(k, T)
        samples = [
            (point - theta_current, float(value))
            for point, value in zip(points[j], values[j])
            if np.isfinite(value)
        ]
        return GatherResult(samples, [], False)


def _checked(values) -> np.ndarray:
    """``values`` as a float array; raises FloatingPointError if one is not finite."""
    values = np.asarray(values, dtype=float)
    _require_finite(values.ravel().tolist(), "cached sample")
    return values


def _unzip(samples) -> tuple[np.ndarray, np.ndarray]:
    points = np.array([point for point, _ in samples], dtype=float)
    values = np.array([value for _, value in samples], dtype=float)
    return points, values
