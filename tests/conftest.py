"""Shared fixtures: a deterministic synthetic two-class LIBSVM dataset.

The synthetic set has 123 features, 400 examples, 30 nonzeros per row.
The first 60 feature columns carry large-scale values (sigma 60) but no
signal: their planted weight is zero, so they contribute curvature without
contributing separable structure. The remaining 63 columns are unit-scale
and carry the labels through a planted weight vector; 5% of labels are
flipped. The file is written in LIBSVM text format and read back through
the package's own loader so every consumer exercises the ingestion path.

It also registers and loads the one Hypothesis profile of the property
tests: the same examples on every run, no example database, no deadline.
"""

import numpy as np
import pytest
from hypothesis import settings

from zosah import load_libsvm

SYNTH_SEED = 1234
SYNTH_N = 400
SYNTH_DIM = 123
SYNTH_STIFF = 60

settings.register_profile("zosah", derandomize=True, database=None, deadline=None)
settings.load_profile("zosah")


def synth123_lines(seed=SYNTH_SEED, n=SYNTH_N, d=SYNTH_DIM, n_stiff=SYNTH_STIFF,
                   flip=0.05):
    """LIBSVM-format lines for the synthetic dataset (fixed rng stream)."""
    rng = np.random.default_rng(seed)
    soft = np.arange(n_stiff, d)
    dense = np.zeros((n, d))
    for i in range(n):
        stiff_sel = rng.choice(n_stiff, size=15, replace=False)
        soft_sel = rng.choice(soft, size=15, replace=False)
        for j in stiff_sel:
            dense[i, j] = rng.normal(0.0, 60.0)
        for j in soft_sel:
            dense[i, j] = rng.normal(0.0, 1.0)
    w_star = np.zeros(d)
    w_star[soft] = rng.normal(0.0, 2.0, soft.size)
    margins = dense @ w_star
    labels = np.where(margins >= 0.0, 1.0, -1.0)
    labels[rng.random(n) < flip] *= -1.0
    lines = []
    for i in range(n):
        nz = np.nonzero(dense[i])[0]
        feats = " ".join(f"{j + 1}:{format(dense[i, j], '.17g')}" for j in nz)
        lines.append(("+1 " if labels[i] > 0 else "-1 ") + feats)
    return lines


@pytest.fixture(scope="session")
def synth123_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synth123.txt"
    path.write_text("\n".join(synth123_lines()) + "\n", encoding="ascii")
    return path


@pytest.fixture(scope="session")
def synth123_data(synth123_path):
    return load_libsvm(synth123_path, expected_dim=SYNTH_DIM)
