"""Black-box objectives and evaluation metering.

Every optimizer in this package treats its objective as a black box and pays
for each function value it requests.  ``CountedOracle`` is the single
chokepoint where that cost is tallied: line-search trials, gradient probes,
and curvature samples all flow through it, so convergence can be reported
against the number of function queries rather than wall time or iterations.

The benchmark objectives are the 2-d Rosenbrock function, arbitrary quadratic
models (used heavily by the tests), and full-batch logistic regression over a
sparse dataset read from LIBSVM-format text files (:mod:`zosah.logistic`).

The quadratic objective evaluates its model with ``ndarray.dot`` rather
than calling :func:`quadratic_model`, which stays the reference for its bits:
on C- or F-ordered matrices and C-ordered vectors both reach the same BLAS
gemv and ddot, and the method skips the dispatch of ``@`` and ``np.dot``.
When the linear term is all zeros it is added as ``+ 0.0`` without a ddot,
its exact value wherever the quadratic part is finite (see the objective).

The sparse-data layer (``Dataset``, ``logistic_loss``, ``load_libsvm`` and
``logistic_objective``) lives in :mod:`zosah.logistic`, the package's only
module that imports scipy. Those names still resolve from this module: the
module ``__getattr__`` below imports :mod:`zosah.logistic` on first access,
so only a run that builds a logistic objective pays for ``scipy.sparse``.
"""

from __future__ import annotations

import math
import operator
from typing import Callable

import numpy as np

__all__ = [
    "Objective",
    "CountedOracle",
    "DimensionMismatchError",
    "DatasetFormatError",
    "rosenbrock",
    "quadratic_model",
    "rosenbrock_objective",
    "quadratic_objective",
]

# Names of zosah.logistic that also resolve from here (PEP 562).
_LOGISTIC_NAMES = frozenset({"Dataset", "logistic_loss", "load_libsvm", "logistic_objective"})


def __getattr__(name: str):
    if name in _LOGISTIC_NAMES:
        from . import logistic

        return getattr(logistic, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# The dtype of a point the oracle passes on unconverted (native-order float64).
_FLOAT64 = np.dtype(np.float64)


def _require_integer(name: str, value) -> None:
    """Reject a non-integral count field (numpy integers pass), naming it."""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


class DimensionMismatchError(ValueError):
    """Point dimension does not match the objective's dimension."""


class DatasetFormatError(ValueError):
    """A LIBSVM or trace CSV file could not be parsed; the message names the line."""


class Objective:
    """Deterministic scalar function of a fixed-dimension point.

    Thin wrapper pairing a callable with its dimension so drivers can size
    their state without evaluating anything.
    """

    def __init__(self, fn: Callable[[np.ndarray], float], dim: int, name: str = ""):
        _require_integer("dim", dim)
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
        self._shape = (objective.dim,)

    @property
    def dim(self) -> int:
        return self.objective.dim

    def __call__(self, x: np.ndarray) -> float:
        if type(x) is not np.ndarray or x.dtype is not _FLOAT64:
            x = np.asarray(x, dtype=float)
        if x.shape != self._shape:
            raise DimensionMismatchError(
                f"expected point of shape {self._shape}, got {x.shape}"
            )
        value = float(self.objective(x))
        self.count += 1
        return value


def rosenbrock(x: np.ndarray) -> float:
    """Banana-valley benchmark on the plane: (x-1)^2 + 100 (y - x^2)^2.

    Beyond |x| of about 1e154 a square overflows: the value is then inf (nan
    if the other term is nan), as in IEEE arithmetic, where Python's float
    ``**`` would raise OverflowError.

    A point reads as ``float(x[0])`` and ``float(x[1])``. A point whose
    ``tolist()`` gives two Python floats, as a float64 or float32 array of
    shape (2,) does, strided or not, is read from that list in one call: the
    same values. Every other input, lists included, takes the two reads.
    """
    try:
        x0, x1 = x.tolist()
    except (AttributeError, TypeError, ValueError):  # no tolist, or not two values
        x0 = x1 = None
    if type(x0) is not float or type(x1) is not float:
        x0 = float(x[0])
        x1 = float(x[1])
    try:
        return (x0 - 1.0) ** 2 + 100.0 * (x1 - x0 * x0) ** 2
    except OverflowError:
        a = x0 - 1.0
        t = x1 - x0 * x0
        return a * a + 100.0 * (t * t)


def quadratic_model(A: np.ndarray, b: np.ndarray, c: float, theta: np.ndarray) -> float:
    """Evaluate 0.5 theta^T A theta + b^T theta + c (A symmetric)."""
    theta = np.asarray(theta, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(0.5 * theta @ (A @ theta) + b @ theta + c)


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

    # ndarray.dot is np.dot's C routine without its Python-level dispatch, and
    # reaches the BLAS gemv and ddot that ``@`` does for a C- or F-ordered A
    # and C-ordered vectors. On other layouts (a strided A, a vector with a
    # negative or zero stride) it copies where matmul runs its own loop, and
    # at d = 1 it is the plain product, where matmul sums from +0.0 (the two
    # differ on a -0.0 product), so those keep quadratic_model's bits by
    # calling it.
    #
    # An all-zero b (b=None, or every entry +-0) is added as + 0.0 without its
    # ddot. That is exact while the quadratic part is finite: a finite part
    # needs a finite x (an inf or nan entry makes every entry of A x, and so
    # the part, inf or nan), each product b_i x_i is then +-0, and dot sums
    # them from +0.0, which gives +0.0. A non-finite part computes b.x.
    blas = d > 1 and (A.flags.c_contiguous or A.flags.f_contiguous) and b_arr.flags.c_contiguous
    zero_b = not b_arr.any()

    def fn(x: np.ndarray) -> float:
        if type(x) is not np.ndarray or x.dtype is not _FLOAT64:
            x = np.asarray(x, dtype=float)
        if blas and x.flags.c_contiguous:
            # quad stays a numpy float64 until c is added: a Python float plus
            # an np.float32 c would be computed in float32 (NEP 50).
            quad = (0.5 * x).dot(A.dot(x))
            if zero_b and math.isfinite(quad):
                return float(quad + 0.0 + c)
            return float(quad + b_arr.dot(x) + c)
        return quadratic_model(A, b_arr, c, x)

    return Objective(fn, d, "quadratic")
