"""Full-batch logistic regression over a sparse LIBSVM data set.

This is the package's only module that imports scipy: ``zosah.oracle`` and
the package load it on first use of one of its names, so runs on the other
objectives never pay for ``scipy.sparse``.

The logistic objective keeps the point and the per-row losses of its last
full evaluation. A query that moves one coordinate away from the kept point
(a gradient probe does) recomputes only the rows holding that column, however
many they are. A repeat of the kept point only sums the kept losses. Every
other query (the first one, moves of two or more coordinates, line-search
trials, the baselines' random directions) is a full evaluation and becomes
the kept point. Against a full evaluation, a one-column move costs about
0.6-0.9 when half of the rows hold its column and 1.1-1.3 when every row
does (synthetic 400 x 123 and 32,561 x 123 sets, 2-core x86_64 VM); the
benchmark set's columns are held by 78-123 of its 400 rows. The value has
the bits of :func:`logistic_loss` whichever path runs: a recomputed row's
margin is summed by the same kernel in the same index order, each loss is
the same elementwise ``logaddexp``, and the whole loss vector is reduced by
the same ``np.add.reduce``.
The kernel is ``csr_matvec`` (what ``signed @ x`` runs),
private to ``scipy.sparse._sparsetools``. It is called directly because
scipy's public dispatch costs more than the kernel does on about a hundred
rows. A one-column move hands it the (start, end) pointers of the column's
rows into ``signed``, interleaved and in descending row order, as a row
pointer array of 2k - 1 rows: each even row is one held row, read in place,
and each odd row runs from one row's end back to a lower row's start, an
empty range that sums to +0.0. ``tests/test_oracle.py`` pins the kernel
against ``signed @ x``, read both ways.

``load_libsvm`` parses the file in blocks of about 64 KiB of text, each in a
few bulk passes with no Python statement per token: the block's lines
split, every feature token joined into one string, one check that each
token holds exactly one colon, one split of that string into index and
value strings, ``int`` and ``float`` mapped over them, and numpy checks of
the labels, the indices and duplicates in a row. It reports the error that
a line-by-line parse reports first, except that an index above 2^63 - 1
(which that parse let through to an ``OverflowError`` in ``sp.csr_matrix``)
is a syntax error of its line; only a block that fails a check is read
again line by line, to find it. ``tests/libsvm_reference.py`` keeps the
line-by-line loader it replaced, and ``tests/test_load_libsvm.py`` compares
the two on drawn files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec as _csr_matvec

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
    malformed tokens, non-numeric or non-finite values (a Python digit
    separator, as in "1_0", is non-numeric), indices < 1 or above 2^63 - 1,
    duplicate indices within a line, or out-of-domain labels, and (naming
    the file) on a file that is not ASCII. The error is
    the first in file order: the first line with a syntax error, and on it
    the label, then each feature token left to right (malformed,
    non-numeric, index < 1, index > 2^63 - 1, duplicate). "No examples",
    "no features" and a non-finite value are reported only when no line has
    a syntax error.

    The file is read once in text mode, so that CRLF and lone CR end lines
    as they do for ``readlines()``, and split at line feeds in blocks of
    about ``_BLOCK_CHARS`` characters, each ending at a line end, so that
    only one block's token strings are alive at a time. Each block is
    parsed in a few bulk passes (see ``_parse_block``) with ``float`` and
    ``int``, the converters of a line-by-line parse. Only a block that fails
    a bulk check is read again line by line (``_check_line``) to find the
    first error.
    """
    with open(path, "r", encoding="ascii") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise DatasetFormatError(f"{path}: not an ASCII LIBSVM file ({exc.reason})") from None
    blocks = []  # (labels, rows, indices, values) per block
    n = 0  # examples in the blocks before
    start, lineno = 0, 1  # the block's offset in text and its first line number
    while True:
        end = text.find("\n", start + _BLOCK_CHARS)
        lines = (text[start:] if end < 0 else text[start:end]).split("\n")
        block = _parse_block(lines, n)
        if block is None:  # a line has a syntax error
            for i, line in enumerate(lines, start=lineno):
                _check_line(path, i, line)
            raise DatasetFormatError(  # _check_line finds every error a bulk check finds
                f"{path}:{lineno}: this line or one of the next {len(lines) - 1} fails a bulk check"
            )
        blocks.append(block)
        n += block[0].size
        if end < 0:
            break
        start, lineno = end + 1, lineno + len(lines)

    if not n:
        raise DatasetFormatError(f"{path}: file contains no examples")
    labels, rows, idx, data = map(np.concatenate, zip(*blocks))
    del blocks
    dim = max(int(idx.max(initial=0)), expected_dim or 0)
    if dim == 0:
        raise DatasetFormatError(f"{path}: no features and no expected_dim given")
    finite = np.isfinite(data)
    if not finite.all():
        k = int(np.argmin(finite))
        lineno = [i for i, line in enumerate(text.split("\n"), start=1) if line.split()][rows[k]]
        raise DatasetFormatError(f"{path}:{lineno}: non-finite feature {idx[k]}:{float(data[k])}")
    del text
    mat = sp.csr_matrix(
        (data, (rows, idx - 1)), shape=(n, dim), dtype=float
    )
    return Dataset(mat, labels)


# The loader parses the file in blocks of about this many characters. With
# short tokens (a9a's "14:1 ") a block's token, index and value strings take
# about 40 bytes per character of text, a few MB for 64 KiB; the bulk passes
# cost a few numpy calls per block.
_BLOCK_CHARS = 1 << 16
# Every byte but ":" and " ": deleting them from a block's feature tokens
# joined by " " leaves ": : ... :" when each token holds exactly one colon.
_NOT_SEPARATORS = bytes(c for c in range(256) if c not in b": ")
# The largest feature index, the largest int64.
_MAX_INDEX = int(np.iinfo(np.int64).max)


def _parse_block(lines: list[str], first_row: int):
    """(labels, rows, indices, values) of the examples on ``lines``, with
    rows counted from ``first_row`` and 1-based indices, or None if a line
    has a syntax error.

    Bulk passes: each line split; the labels gathered in one list and the
    feature tokens joined by spaces into one string; one check that each
    token holds exactly one colon; one split of that string into index and
    value strings (twice the token count unless a side is empty), after one
    check that no label or token holds a digit separator; ``float`` and
    ``int`` mapped over them; numpy checks of the label domain, of
    indices < 1 and of duplicates in a row.
    """
    split = list(filter(None, map(str.split, lines)))  # each example's tokens
    n = len(split)
    lengths = np.fromiter(map(len, split), np.intp, n) - 1  # feature tokens per row
    t = int(lengths.sum())
    label_strings = list(map(itemgetter(0), split))
    joined = " ".join(chain.from_iterable(map(itemgetter(slice(1, None)), split)))
    del split
    if joined.encode().translate(None, _NOT_SEPARATORS) != (b": " * t)[:-1]:
        return None
    # int and float read digit separators ("1_0" is 10); LIBSVM has none
    if "_" in joined or "_" in " ".join(label_strings):
        return None
    pieces = joined.replace(":", " ").split()  # index, value, index, value, ...
    del joined
    if len(pieces) != 2 * t:  # an empty index or value
        return None
    try:
        labels = np.fromiter(map(float, label_strings), float, n)
        idx = np.fromiter(map(int, pieces[0::2]), np.int64, t)
        vals = np.fromiter(map(float, pieces[1::2]), float, t)
    except (ValueError, OverflowError):  # an index outside int64 overflows
        return None
    del pieces
    if not ((labels == 0.0) | (np.abs(labels) == 1.0)).all():
        return None
    rows = np.repeat(np.arange(first_row, first_row + n), lengths)
    if t and (idx.min() < 1 or _has_duplicate(rows, idx)):
        return None
    labels[labels == 0.0] = -1.0
    return labels, rows, idx, vals


def _has_duplicate(rows: np.ndarray, idx: np.ndarray) -> bool:
    """Whether a row holds an index twice (``rows`` ascending).

    Blocks whose rows all hold ascending indices, as LIBSVM files usually
    do, skip the sort: it costs about 13% of the load of an a9a-sized file.
    """
    if not (np.diff(idx)[rows[1:] == rows[:-1]] <= 0).any():
        return False  # every row's indices ascend
    order = np.lexsort((idx, rows))
    rows, idx = rows[order], idx[order]
    return bool(((rows[1:] == rows[:-1]) & (idx[1:] == idx[:-1])).any())


def _number(parse, text: str):
    """``parse(text)`` for ``int`` or ``float``, which also read a digit
    separator ("1_0" is 10); LIBSVM has none, so one is a ValueError here."""
    if "_" in text:
        raise ValueError(f"digit separator in {text!r}")
    return parse(text)


def _check_line(path, lineno: int, line: str) -> None:
    """Raise the :class:`DatasetFormatError` of the first syntax error on
    ``line``, if it has one: the label first, then each feature token left
    to right."""
    tokens = line.split()
    if not tokens:
        return  # blank line
    try:
        label = _number(float, tokens[0])
    except ValueError:
        raise DatasetFormatError(f"{path}:{lineno}: non-numeric label {tokens[0]!r}") from None
    if label not in (0.0, 1.0, -1.0):
        raise DatasetFormatError(f"{path}:{lineno}: label {tokens[0]!r} outside {{0, 1, -1, +1}}")
    seen: set[int] = set()
    for tok in tokens[1:]:
        idx_s, sep, val_s = tok.partition(":")
        if not sep:
            raise DatasetFormatError(f"{path}:{lineno}: malformed feature token {tok!r}")
        try:
            idx = _number(int, idx_s)
            _number(float, val_s)
        except ValueError:
            raise DatasetFormatError(
                f"{path}:{lineno}: non-numeric feature token {tok!r}"
            ) from None
        if idx < 1:
            raise DatasetFormatError(f"{path}:{lineno}: feature index {idx} < 1")
        if idx > _MAX_INDEX:
            raise DatasetFormatError(f"{path}:{lineno}: feature index {idx} > {_MAX_INDEX}")
        if idx in seen:
            raise DatasetFormatError(f"{path}:{lineno}: duplicate feature index {idx}")
        seen.add(idx)


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
                return self._patched(x, losses, int(cols[0]))
        losses = _row_losses(self.data.signed, x)
        self._kept = (x.copy(), losses)
        return float(np.add.reduce(losses) / self._n)

    def _column_index(self) -> tuple:
        """(ends, rows, ptr): the rows holding column j, in descending order,
        are ``rows[ends[j+1]:ends[j]]``, and ``ptr[2*ends[j+1]:2*ends[j]]``
        holds their (start, end) CSR pointers into ``signed``, interleaved.
        O(nnz) memory."""
        index = self._index
        if index is None:
            signed = self.data.signed
            idx = np.result_type(signed.indptr, signed.indices)  # the kernel's index type
            # Only the structure is needed; bool data keeps the build's
            # temporaries small.
            csc = sp.csr_matrix((np.ones(signed.nnz, dtype=bool), signed.indices, signed.indptr),
                                shape=signed.shape).tocsc()
            # Reversed, the CSC row indices run from the last column to the
            # first, each column's rows descending. Scattering by intp beats
            # by int32 indices.
            rows = csc.indices[::-1].astype(np.intp)
            ptr = np.stack((signed.indptr[rows], signed.indptr[rows + 1]), axis=1).astype(idx)
            index = self._index = ((csc.nnz - csc.indptr).tolist(), rows, ptr.ravel())
        return index

    def _patched(self, x: np.ndarray, losses: np.ndarray, j: int) -> float:
        """The mean loss with the rows holding column ``j`` recomputed at
        ``x`` and the other rows' losses kept."""
        ends, col_rows, ptr = self._column_index()
        a, b = ends[j + 1], ends[j]
        if a == b:  # no row holds column j (and 2k - 1 rows would be -1)
            return float(np.add.reduce(losses) / self._n)
        signed = self.data.signed
        t = np.zeros(2 * (b - a) - 1)  # the held rows' margins in the even slots
        _csr_matvec(t.size, self._dim, ptr[2 * a:2 * b], signed.indices, signed.data, x, t)
        out = losses.copy()
        out[col_rows[a:b]] = np.logaddexp(0.0, t[::2])
        return float(np.add.reduce(out) / self._n)


def logistic_objective(data: Dataset) -> Objective:
    """Mean logistic loss over ``data`` as an objective.

    Gives the bits of :func:`logistic_loss` at every point. It keeps the
    point and the per-row losses of its last full evaluation. A query that
    moves one coordinate away from the kept point (a gradient probe)
    recomputes only the rows holding that column; a repeat of the kept point
    only sums the kept losses; any other query (the first, moves of two or
    more coordinates, line-search trials, the baselines' random directions)
    is a full evaluation and becomes the kept point. The module docstring
    gives the measured costs and says why the bits match.
    """
    return Objective(_LogisticLoss(data), data.dim, "logistic")
