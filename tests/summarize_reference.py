"""The per-checkpoint ``summarize`` loop that ``zosah.harness.summarize``
replaced, kept as the reference of its differential test
(``test_harness.py``): one numpy mean, std, min and max call set per
checkpoint, where ``summarize`` reduces all checkpoints at once."""

import numpy as np

from zosah.harness import SummaryRow


def summarize(rows_by_seed, grid: int) -> list[SummaryRow]:
    """Per-checkpoint statistics over seeds with step-function interpolation:
    at each checkpoint (grid, 2*grid, ...) a seed contributes its last f-value
    at cum_evals <= checkpoint; checkpoints where some seed has no value yet
    are omitted; std is the sample standard deviation (0 for a single seed).
    Takes non-empty traces in cum_evals order."""
    last = max(rows[-1].cum_evals for rows in rows_by_seed.values() if rows)
    checkpoints = np.arange(grid, last + 1, grid)
    values = np.zeros((checkpoints.size, len(rows_by_seed)))
    have = np.ones(checkpoints.size, dtype=bool)
    for s, rows in enumerate(rows_by_seed.values()):
        evals = np.array([r.cum_evals for r in rows], dtype=np.int64)
        at = np.searchsorted(evals, checkpoints, side="right") - 1
        have &= at >= 0
        values[:, s] = np.array([r.f_value for r in rows])[np.maximum(at, 0)]
    out = []
    for checkpoint, arr in zip(checkpoints[have].tolist(), values[have]):
        std = float(np.std(arr, ddof=1)) if len(arr) > 1 else 0.0
        out.append(
            SummaryRow(checkpoint, float(arr.mean()), std, float(arr.min()), float(arr.max()))
        )
    return out
