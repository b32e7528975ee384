"""Black-box objectives, evaluation metering, and dataset ingestion.

Every optimizer in this package treats its objective as a black box and pays
for each function value it requests.  ``CountedOracle`` is the single
chokepoint where that cost is tallied: line-search trials, gradient probes,
and curvature samples all flow through it, so convergence can be reported
against the number of function queries rather than wall time or iterations.

The benchmark objectives are the 2-d Rosenbrock function, arbitrary quadratic
models (used heavily by the tests), and full-batch logistic regression over a
sparse dataset read from LIBSVM-format text files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Objective",
    "CountedOracle",
    "Dataset",
    "DimensionMismatchError",
    "DatasetFormatError",
    "rosenbrock",
    "quadratic_model",
    "logistic_loss",
    "load_libsvm",
    "rosenbrock_objective",
    "quadratic_objective",
    "logistic_objective",
]


class DimensionMismatchError(ValueError):
    """Point dimension does not match the objective's dimension."""


class DatasetFormatError(ValueError):
    """A LIBSVM file could not be parsed; the message names the line."""


class Objective:
    """Deterministic scalar function of a fixed-dimension point.

    Thin wrapper pairing a callable with its dimension so drivers can size
    their state without evaluating anything.
    """

    def __init__(self, fn: Callable[[np.ndarray], float], dim: int, name: str = ""):
        if dim < 1:
            raise ValueError(f"objective dimension must be positive, got {dim}")
        self._fn = fn
        self.dim = int(dim)
        self.name = name or getattr(fn, "__name__", "objective")

    def __call__(self, x: np.ndarray) -> float:
        return float(self._fn(x))

    def __repr__(self) -> str:
        return f"Objective({self.name}, dim={self.dim})"


class CountedOracle:
    """Metering wrapper around an :class:`Objective`.

    ``count`` goes up by exactly one per successful evaluation and is never
    reset. A dimension mismatch is rejected before evaluating, leaving the
    counter untouched.
    """

    def __init__(self, objective: Objective):
        self.objective = objective
        self.count = 0

    @property
    def dim(self) -> int:
        return self.objective.dim

    def __call__(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.objective.dim,):
            raise DimensionMismatchError(
                f"expected point of shape ({self.objective.dim},), got {x.shape}"
            )
        value = float(self.objective(x))
        self.count += 1
        return value


def rosenbrock(x: np.ndarray) -> float:
    """Banana-valley benchmark on the plane: (x-1)^2 + 100 (y - x^2)^2."""
    x0 = float(x[0])
    x1 = float(x[1])
    return (x0 - 1.0) ** 2 + 100.0 * (x1 - x0 * x0) ** 2


def quadratic_model(A: np.ndarray, b: np.ndarray, c: float, theta: np.ndarray) -> float:
    """Evaluate 0.5 theta^T A theta + b^T theta + c (A symmetric)."""
    theta = np.asarray(theta, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(0.5 * theta @ (A @ theta) + b @ theta + c)


@dataclass(frozen=True)
class Dataset:
    """Sparse feature rows with labels in {-1, +1}.

    ``signed`` holds the rows -(y_i z_i), built once: a copy of ``features``
    with only ``.data`` scaled, so ``signed @ x`` sums each row in the same
    index order as ``features @ x`` and, the labels being +-1, has the bits of
    ``-(labels * (features @ x))``.
    """

    features: sp.csr_matrix  # shape (n, dim)
    labels: np.ndarray  # shape (n,), values -1.0 or +1.0
    signed: sp.csr_matrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, _ = self.features.shape
        if self.labels.shape != (n,):
            raise ValueError(
                f"label count {self.labels.shape} does not match {n} feature rows"
            )
        bad = ~np.isin(self.labels, (-1.0, 1.0))
        if bad.any():
            raise ValueError("labels must be -1 or +1")
        signed = self.features.copy()
        signed.data *= np.repeat(-self.labels, np.diff(signed.indptr))
        object.__setattr__(self, "signed", signed)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def logistic_loss(data: Dataset, x: np.ndarray) -> float:
    """Mean logistic loss (1/N) sum_i ln(1 + exp(-y_i z_i . x)).

    Uses log(1 + e^t) = logaddexp(0, t), which stays finite for any margin
    magnitude (raw exp overflows in double precision near t = 710).
    """
    if data.n == 0:
        raise ValueError("empty dataset")
    x = np.asarray(x, dtype=float)
    if x.shape != (data.dim,):
        raise DimensionMismatchError(
            f"expected point of shape ({data.dim},), got {x.shape}"
        )
    t = data.signed @ x  # -y_i z_i . x
    np.logaddexp(0.0, t, out=t)
    return float(np.add.reduce(t) / data.n)  # np.mean's sum and division


def load_libsvm(path, expected_dim: int | None = None) -> Dataset:
    """Read a LIBSVM sparse text file: one ``label idx:val ...`` row per line.

    Indices are 1-based in the file and 0-based in the returned matrix.
    Labels {0, 1} are mapped to {-1, +1}; labels already in {-1, +1} pass
    through; anything else is rejected. The feature dimension is the largest
    index seen, or ``expected_dim`` if that is larger.

    Raises :class:`DatasetFormatError` (naming the offending line) on
    malformed tokens, non-numeric values, indices < 1, duplicate indices
    within a line, or out-of-domain labels.
    """
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    labels: list[float] = []
    max_index = 0

    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue  # blank line
            try:
                raw_label = float(tokens[0])
            except ValueError:
                raise DatasetFormatError(
                    f"{path}:{lineno}: non-numeric label {tokens[0]!r}"
                ) from None
            if raw_label == 0.0:
                label = -1.0
            elif raw_label in (1.0, -1.0):
                label = raw_label
            else:
                raise DatasetFormatError(
                    f"{path}:{lineno}: label {tokens[0]!r} outside {{0, 1, -1, +1}}"
                )
            seen: set[int] = set()
            row = len(labels)
            for tok in tokens[1:]:
                idx_s, sep, val_s = tok.partition(":")
                if not sep:
                    raise DatasetFormatError(
                        f"{path}:{lineno}: malformed feature token {tok!r}"
                    )
                try:
                    idx = int(idx_s)
                    val = float(val_s)
                except ValueError:
                    raise DatasetFormatError(
                        f"{path}:{lineno}: non-numeric feature token {tok!r}"
                    ) from None
                if idx < 1:
                    raise DatasetFormatError(
                        f"{path}:{lineno}: feature index {idx} < 1"
                    )
                if idx in seen:
                    raise DatasetFormatError(
                        f"{path}:{lineno}: duplicate feature index {idx}"
                    )
                seen.add(idx)
                rows.append(row)
                cols.append(idx - 1)
                vals.append(val)
                max_index = max(max_index, idx)
            labels.append(label)

    if not labels:
        raise DatasetFormatError(f"{path}: file contains no examples")
    dim = max(max_index, expected_dim or 0)
    if dim == 0:
        raise DatasetFormatError(f"{path}: no features and no expected_dim given")
    mat = sp.csr_matrix(
        (vals, (rows, cols)), shape=(len(labels), dim), dtype=float
    )
    return Dataset(mat, np.asarray(labels, dtype=float))


def rosenbrock_objective() -> Objective:
    return Objective(rosenbrock, 2, "rosenbrock")


def quadratic_objective(A: np.ndarray, b: np.ndarray | None = None, c: float = 0.0) -> Objective:
    """Objective 0.5 x^T A x + b^T x + c with dimension taken from A."""
    A = np.asarray(A, dtype=float)
    d = A.shape[0]
    if A.shape != (d, d):
        raise ValueError(f"A must be square, got {A.shape}")
    b_arr = np.zeros(d) if b is None else np.asarray(b, dtype=float)
    if b_arr.shape != (d,):
        raise ValueError(f"b must have shape ({d},), got {b_arr.shape}")

    def fn(x: np.ndarray) -> float:
        return quadratic_model(A, b_arr, c, x)

    return Objective(fn, d, "quadratic")


def logistic_objective(data: Dataset) -> Objective:
    def fn(x: np.ndarray) -> float:
        return logistic_loss(data, x)

    return Objective(fn, data.dim, "logistic")
