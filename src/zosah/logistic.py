"""Full-batch logistic regression over a sparse LIBSVM data set.

This is the package's only module that imports scipy: ``zosah.oracle`` and
the package load it on first use of one of its names, so runs on the other
objectives never pay for ``scipy.sparse``.

The logistic objective keeps the point and the per-row losses of its last
full evaluation. A query that moves one coordinate away from the kept point
(a gradient probe does) recomputes only the rows holding that column, when
they are at most a third of the rows. A repeat of the kept point only sums
the kept losses. Every other query (the first one, moves of two or more
coordinates, line-search trials, the baselines' random directions) is a full
evaluation and becomes the kept point. The value has the bits of
:func:`logistic_loss` whichever path runs: a recomputed row's margin is
summed by the same kernel in the same index order, each loss is the same
elementwise ``logaddexp``, and the whole loss vector is reduced by the same
``np.add.reduce``. The kernels are ``csr_matvec`` (what ``signed @ x`` runs)
and ``csr_row_index`` (what gathering rows of a CSR matrix runs), private to
``scipy.sparse._sparsetools``. They are called directly because scipy's
public dispatch costs more than the kernel does on a block of about a
hundred rows; ``tests/test_oracle.py`` pins them against ``signed @ x``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec as _csr_matvec
from scipy.sparse._sparsetools import csr_row_index as _csr_row_index

from .oracle import DatasetFormatError, DimensionMismatchError, Objective

__all__ = ["Dataset", "logistic_loss", "load_libsvm", "logistic_objective"]


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
    n, dim = data.signed.shape
    # np.mean's sum and division
    return float(np.add.reduce(_row_losses(data.signed, _point(n, dim, x))) / n)


def _point(n: int, dim: int, x) -> np.ndarray:
    if n == 0:
        raise ValueError("empty dataset")
    x = np.asarray(x, dtype=float)
    if x.shape != (dim,):
        raise DimensionMismatchError(f"expected point of shape ({dim},), got {x.shape}")
    return x


def _row_losses(signed: sp.csr_matrix, x: np.ndarray) -> np.ndarray:
    """ln(1 + e^t_i) for t = signed @ x, computed by the kernel ``signed @ x`` runs."""
    n, dim = signed.shape
    t = np.zeros(n)  # -y_i z_i . x
    _csr_matvec(n, dim, signed.indptr, signed.indices, signed.data, x, t)
    np.logaddexp(0.0, t, out=t)
    return t


def load_libsvm(path, expected_dim: int | None = None) -> Dataset:
    """Read a LIBSVM sparse text file: one ``label idx:val ...`` row per line.

    Indices are 1-based in the file and 0-based in the returned matrix.
    Labels {0, 1} are mapped to {-1, +1}; labels already in {-1, +1} pass
    through; anything else is rejected. The feature dimension is the largest
    index seen, or ``expected_dim`` if that is larger.

    Raises :class:`DatasetFormatError` (naming the offending line) on
    malformed tokens, non-numeric or non-finite values, indices < 1,
    duplicate indices within a line, or out-of-domain labels, and (naming
    the file) on a file that is not ASCII.
    """
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    labels: list[float] = []
    max_index = 0

    with open(path, "r", encoding="ascii") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise DatasetFormatError(f"{path}: not an ASCII LIBSVM file ({exc.reason})") from None
        for lineno, line in enumerate(lines, start=1):
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
    data = np.asarray(vals, dtype=float)
    if not np.isfinite(data).all():
        k = int(np.argmin(np.isfinite(data)))
        lineno = [i for i, line in enumerate(lines, start=1) if line.split()][rows[k]]
        raise DatasetFormatError(f"{path}:{lineno}: non-finite feature {cols[k] + 1}:{vals[k]}")
    mat = sp.csr_matrix(
        (data, (rows, cols)), shape=(len(labels), dim), dtype=float
    )
    return Dataset(mat, np.asarray(labels, dtype=float))


# A one-column move takes the row path when the rows holding that column are
# at most 1/_ROW_PATH_SHARE of all rows. On the benchmark's 400 x 123 set
# (2-core x86_64 VM) the row path costs about 4 us plus 0.08 us per row
# (gather, sum, loss and scatter) and a full evaluation about 14.5 us, so they
# break even near 130 rows: every one-column move there (78-123 rows) gains.
_ROW_PATH_SHARE = 3


class _LogisticLoss:
    """``logistic_loss(data, x)`` that recomputes only the rows a one-column
    move touches.

    ``_kept`` is (point, per-row losses) of the last full evaluation. It is
    read once per call and rebound in one step, never changed in place, so
    threads sharing the objective never pair one call's point with another
    call's losses; the last full evaluation wins. Two threads may both build
    the column index; each builds the same one.
    """

    def __init__(self, data: Dataset):
        self.data = data
        self._n, self._dim = data.signed.shape
        # Built by the first one-column move, so that an objective whose
        # queries never take the row path (a baseline's) holds no index.
        self._index: tuple | None = None
        self._kept: tuple[np.ndarray, np.ndarray] | None = None

    def __call__(self, x) -> float:
        x = _point(self._n, self._dim, x)
        kept = self._kept
        if kept is not None:
            last, losses = kept
            cols = (x != last).nonzero()[0]
            if cols.size == 0:
                return float(np.add.reduce(losses) / self._n)
            if cols.size == 1:
                value = self._patched(x, losses, int(cols[0]))
                if value is not None:
                    return value
        losses = _row_losses(self.data.signed, x)
        self._kept = (x.copy(), losses)
        return float(np.add.reduce(losses) / self._n)

    def _column_index(self) -> tuple:
        """(bounds, rows, block_ptr): the rows holding column j are
        ``rows[bounds[j]:bounds[j+1]]`` (ascending, from ``signed.tocsc()``)
        and the CSR row pointers of their block of ``signed`` are
        ``block_ptr[bounds[j] + j:bounds[j+1] + j + 1]``. O(nnz) memory."""
        index = self._index
        if index is None:
            signed = self.data.signed
            idx = np.result_type(signed.indptr, signed.indices)  # the kernels' index type
            # Only the structure is needed; bool data keeps the build's
            # temporaries small.
            csc = sp.csr_matrix((np.ones(signed.nnz, dtype=bool), signed.indices, signed.indptr),
                                shape=signed.shape).tocsc()
            starts = csc.indptr[:-1] + np.arange(self._dim)
            rows = csc.indices.astype(idx, copy=False)
            row_nnz = np.diff(signed.indptr).astype(idx)
            # Each column's block pointers: a 0, then the running sum of its
            # rows' lengths. One running sum over all columns, with a 0 put
            # before each column, less its value at each column's 0. (np.insert
            # places the 0s in one call but raised peak RSS by about 0.4 MB
            # on the benchmark set.)
            block_ptr = np.zeros(rows.size + starts.size, dtype=idx)
            body = np.ones(block_ptr.size, dtype=bool)
            body[starts] = False
            block_ptr[body] = row_nnz[rows]
            np.cumsum(block_ptr, out=block_ptr)
            block_ptr -= np.repeat(block_ptr[starts], np.diff(csc.indptr) + 1)
            index = self._index = (csc.indptr.tolist(), rows, block_ptr)
        return index

    def _patched(self, x: np.ndarray, losses: np.ndarray, j: int) -> float | None:
        """The mean loss with the rows holding column ``j`` recomputed at
        ``x`` and the other rows' losses kept; None when those rows are more
        than 1/_ROW_PATH_SHARE of all rows."""
        bounds, col_rows, block_ptr = self._index or self._column_index()
        a, b = bounds[j], bounds[j + 1]
        if _ROW_PATH_SHARE * (b - a) > self._n:
            return None
        rows, ptr = col_rows[a:b], block_ptr[a + j:b + j + 1]
        signed = self.data.signed
        nnz = int(ptr[-1])
        block_cols = np.empty(nnz, dtype=rows.dtype)
        block_vals = np.empty(nnz, dtype=signed.data.dtype)
        _csr_row_index(rows.size, rows, signed.indptr, signed.indices, signed.data,
                       block_cols, block_vals)
        t = np.zeros(rows.size)
        _csr_matvec(rows.size, self._dim, ptr, block_cols, block_vals, x, t)
        np.logaddexp(0.0, t, out=t)
        out = losses.copy()
        out[rows.astype(np.intp)] = t  # scattering by intp beats by int32 indices
        return float(np.add.reduce(out) / self._n)


def logistic_objective(data: Dataset) -> Objective:
    """Mean logistic loss over ``data`` as an objective.

    Gives the bits of :func:`logistic_loss` at every point. It keeps the
    point and the per-row losses of its last full evaluation. A query that
    moves one coordinate away from the kept point (a gradient probe) and
    whose column is held by at most a third of the rows (every column of the
    benchmark set) recomputes only those rows; a repeat of the kept point
    only sums the kept losses; any other query (the first, moves of two or
    more coordinates, line-search trials, the baselines' random directions)
    is a full evaluation and becomes the kept point. The module docstring
    says why the bits match.
    """
    return Objective(_LogisticLoss(data), data.dim, "logistic")
