"""Random coordinate-subspace plans: index selection, pairing, project, lift.

A plan picks m distinct coordinates of R^d and partitions them into m/2
disjoint pairs. Each pair spans an axis-aligned 2-d slice of the full space;
projection is coordinate extraction and lifting adds a 2-d displacement back
into a full-dimensional vector. Plans are immutable and are redrawn by the
driver every T steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PairProjection", "SubspacePlan", "make_plan"]


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

    def lift(self, delta: np.ndarray, base: np.ndarray) -> np.ndarray:
        """Return a copy of ``base`` with ``delta`` added on the pair's axes."""
        out = np.array(base, dtype=float)
        out[self.i1] += delta[0]
        out[self.i2] += delta[1]
        return out


@dataclass(frozen=True)
class SubspacePlan:
    """m selected coordinates of R^d partitioned into disjoint pairs."""

    dim_full: int
    indices: tuple[int, ...]
    pairs: tuple[PairProjection, ...]
    created_at_step: int = 0

    def __post_init__(self):
        m = len(self.indices)
        if m < 2 or m % 2 != 0:
            raise ValueError(f"plan needs an even number (>= 2) of indices, got {m}")
        if len(set(self.indices)) != m:
            raise ValueError("plan indices must be distinct")
        if any(i < 0 or i >= self.dim_full for i in self.indices):
            raise ValueError(f"plan indices must lie in [0, {self.dim_full})")
        covered = [i for p in self.pairs for i in p.pair]
        if sorted(covered) != sorted(self.indices):
            raise ValueError("pairs must partition the plan's indices exactly")


def make_plan(d: int, m: int, rng: np.random.Generator, step: int = 0) -> SubspacePlan:
    """Select m coordinates and pair them; one call per subspace period.

    The m distinct indices are drawn uniformly without replacement (sorted),
    then a random permutation of them is cut into consecutive pairs.
    """
    if m % 2 != 0 or not 2 <= m <= d:
        raise ValueError(f"m must be even with 2 <= m <= d={d}, got {m}")
    idx = np.sort(rng.choice(d, size=m, replace=False))
    perm = rng.permutation(idx).tolist()
    pairs = tuple(PairProjection(perm[j], perm[j + 1]) for j in range(0, m, 2))
    return SubspacePlan(d, tuple(idx.tolist()), pairs, step)
