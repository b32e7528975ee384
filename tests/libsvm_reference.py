"""The line-by-line LIBSVM loader that ``zosah.logistic.load_libsvm``
replaced, kept as the reference of the differential loader test
(``test_load_libsvm.py``): one Python step per feature token. It differs
from the replaced loader in one rule: a label or feature token holding a
digit separator ("1_0", which ``int`` and ``float`` read as 10) is
non-numeric."""

import numpy as np
import scipy.sparse as sp

from zosah.logistic import Dataset
from zosah.oracle import DatasetFormatError


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
                if "_" in tokens[0]:
                    raise ValueError
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
                    if "_" in tok:
                        raise ValueError
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
