"""Random coordinate-subspace plans: index selection, pairing, projection.

A plan picks m distinct coordinates of R^d and partitions them into m/2
disjoint pairs, returned as the (m/2, 2) array of pair coordinates. Each pair
spans an axis-aligned 2-d slice of the full space, and projection onto it is
coordinate extraction. The driver redraws the plan every T steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PairProjection", "make_plan"]


@dataclass(frozen=True)
class PairProjection:
    """An ordered pair of coordinate indices spanning a 2-d slice."""

    i1: int
    i2: int

    @property
    def pair(self) -> tuple[int, int]:
        return (self.i1, self.i2)

    def project(self, x: np.ndarray) -> np.ndarray:
        """Extract the pair's coordinates: (x[i1], x[i2])."""
        return np.array([x[self.i1], x[self.i2]], dtype=float)


def make_plan(d: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Select m coordinates and pair them; one call per subspace period.

    The m distinct indices are drawn uniformly without replacement (sorted),
    then a random permutation of them is cut into consecutive pairs: row j of
    the returned (m/2, 2) int64 array is pair j. The caller checks m: it must
    be even with 2 <= m <= d.
    """
    return rng.permutation(np.sort(rng.choice(d, size=m, replace=False))).reshape(-1, 2)
