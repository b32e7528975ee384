"""Objectives, metering, logistic loss, and the LIBSVM loader."""

import itertools
import math
import re
import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import zosah.logistic

from zosah import (
    CountedOracle,
    Dataset,
    Objective,
    ZosahConfig,
    ZosahOptimizer,
    load_libsvm,
    logistic_objective,
    quadratic_objective,
    rosenbrock_objective,
)
from zosah.logistic import logistic_loss
from zosah.oracle import DatasetFormatError, DimensionMismatchError, quadratic_model, rosenbrock


def make_dataset(rows, labels):
    return Dataset(sp.csr_matrix(np.asarray(rows, dtype=float)),
                   np.asarray(labels, dtype=float))


class TestRosenbrock:
    def test_minimizer(self):
        assert rosenbrock(np.array([1.0, 1.0])) == 0.0

    def test_origin(self):
        assert rosenbrock(np.array([0.0, 0.0])) == 1.0

    def test_standard_start_neighbour(self):
        assert rosenbrock(np.array([-1.0, 1.0])) == 4.0

    def test_nonnegative_grid_zero_only_at_minimum(self):
        for x in np.linspace(-2.0, 2.0, 21):
            for y in np.linspace(-1.0, 3.0, 21):
                v = rosenbrock(np.array([x, y]))
                if x == 1.0 and y == 1.0:
                    assert v == 0.0
                else:
                    assert v > 0.0

    def test_overflow_gives_inf(self):
        assert rosenbrock([1e200, 0.0]) == math.inf
        assert rosenbrock(np.array([0.0, 1e200])) == math.inf
        assert rosenbrock(np.array([-1e200, 1e200])) == math.inf
        assert math.isnan(rosenbrock(np.array([1e200, math.inf])))  # 1e200**2 + 100*nan

    def test_objective_wrapper(self):
        obj = rosenbrock_objective()
        assert obj.dim == 2
        assert obj(np.array([1.0, 1.0])) == 0.0


def two_reads(x):
    """The Rosenbrock value of float(x[0]) and float(x[1]), the reads
    rosenbrock keeps the bits of."""
    x0 = float(x[0])
    x1 = float(x[1])
    try:
        return (x0 - 1.0) ** 2 + 100.0 * (x1 - x0 * x0) ** 2
    except OverflowError:
        a = x0 - 1.0
        t = x1 - x0 * x0
        return a * a + 100.0 * (t * t)


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


# finite floats, +-0 and subnormals, +-1e200 (whose square overflows), +-inf, nan
ROSENBROCK_COORDINATE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308),
    st.sampled_from([0.0, -0.0, 1e200, -1e200, math.inf, -math.inf, math.nan]),
)


class TestRosenbrockPointRead:
    """A float64 pair is read with one tolist(); every query keeps the bits
    of float(x[0]) and float(x[1])."""

    @settings(max_examples=300)
    @given(x0=ROSENBROCK_COORDINATE, x1=ROSENBROCK_COORDINATE,
           layout=st.sampled_from(["plain", "strided", "row"]))
    def test_objective_has_the_bits_of_rosenbrock(self, x0, x1, layout):
        want = rosenbrock([x0, x1])  # a list takes the two reads
        assert same_bits(want, two_reads([x0, x1]))
        x = {
            "plain": np.array([x0, x1]),
            "strided": np.array([x0, 0.5, x1, -0.5])[::2],
            "row": np.array([[3.0, -4.0], [x0, x1], [5.0, 6.0]])[1],
        }[layout]
        oracle = CountedOracle(rosenbrock_objective())
        for f in (rosenbrock, rosenbrock_objective(), oracle):
            got = f(x)
            assert type(got) is float
            assert same_bits(got, want)
        assert oracle.count == 1

    @pytest.mark.parametrize("x", [
        [0.5, -2.0], (0.5, -2.0), [1, 3],
        np.array([0.1, 0.7], dtype=np.float32),
        np.array([0.1, 0.7], dtype=">f8"),
        np.array([10**10, 3]),  # int products are exact, float ones round
        np.array([True, False]),
        np.array([0.25, 1.5, 9.0]),  # the first two entries
        np.array([[0.25], [1.5]]),
        np.array([np.float64(0.3), 0.6], dtype=object),
        np.array([0.1, 0.7], dtype=np.longdouble),
    ], ids=lambda x: type(x).__name__ + (f"-{x.dtype}-{x.shape}" if hasattr(x, "dtype") else ""))
    def test_public_function_keeps_what_it_accepts(self, x):
        try:
            want = two_reads(x)
        except Exception as exc:
            with pytest.raises(type(exc)):
                rosenbrock(x)
            return
        got = rosenbrock(x)
        assert type(got) is type(want)
        assert same_bits(got, want)


class TestQuadraticModel:
    def test_identity(self):
        assert quadratic_model(np.eye(2), np.zeros(2), 0.0, np.ones(2)) == 1.0

    def test_axis_aligned(self):
        A = np.array([[10.0, 0.0], [0.0, 1.0]])
        assert quadratic_model(A, np.zeros(2), 0.0, np.ones(2)) == 5.5

    def test_rotated(self):
        A = np.array([[5.5, 4.5], [4.5, 5.5]])
        theta = np.array([1.0, -1.0])
        assert quadratic_model(A, np.zeros(2), 0.0, theta) == 1.0

    def test_linear_and_constant_terms(self):
        rng = np.random.default_rng(3)
        B = rng.standard_normal((3, 3))
        A = B + B.T
        b = rng.standard_normal(3)
        theta = rng.standard_normal(3)
        want = 0.5 * theta @ A @ theta + b @ theta + 2.5
        np.testing.assert_allclose(
            quadratic_model(A, b, 2.5, theta), want, rtol=1e-14)

    def test_quadratic_objective_validation(self):
        with pytest.raises(ValueError):
            quadratic_objective(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            quadratic_objective(np.eye(2), b=np.zeros(3))

    def test_quadratic_objective_matches_model(self):
        rng = np.random.default_rng(4)
        B = rng.standard_normal((4, 4))
        A = B + B.T
        b = rng.standard_normal(4)
        obj = quadratic_objective(A, b=b, c=1.5)
        assert obj.dim == 4
        x = rng.standard_normal(4)
        np.testing.assert_allclose(obj(x), quadratic_model(A, b, 1.5, x),
                                   rtol=1e-14)


def laid_out(a: np.ndarray, layout: str) -> np.ndarray:
    """The values of ``a`` in a given memory layout."""
    if layout == "C":
        return np.ascontiguousarray(a)
    if layout == "F":
        return np.asfortranarray(a)
    if layout == "strided":  # every other element of a larger array
        big = np.zeros(tuple(2 * n for n in a.shape))
        big[tuple(slice(None, None, 2) for _ in a.shape)] = a
        return big[tuple(slice(None, None, 2) for _ in a.shape)]
    if layout == "reversed":  # negative strides
        return np.flip(np.flip(a).copy())
    if layout == "broadcast":  # zero stride: the first entry everywhere
        return np.broadcast_to(a.flat[0], a.shape)
    raise ValueError(layout)


class TestQuadraticObjectiveBits:
    """``quadratic_objective`` gives the bits of ``quadratic_model`` on any layout."""

    @staticmethod
    def entries(rng, shape, e_max, special_share):
        """m * 10**e with |m| < 10 and e in [-e_max, e_max], some entries
        replaced by +-0, +-inf or nan."""
        values = rng.uniform(-10.0, 10.0, shape) * 10.0 ** rng.integers(-e_max, e_max + 1, shape)
        special = rng.random(shape) < special_share
        values[special] = rng.choice([0.0, -0.0, math.inf, -math.inf, math.nan], special.sum())
        return values

    # d from 2, where the objective takes the ndarray.dot path; a 1-d quadratic
    # calls quadratic_model itself (test_bits_at_signed_zeros_and_inf covers it).
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 12),
           e_max=st.sampled_from([0, 3, 30, 300]), special_share=st.sampled_from([0.0, 0.05, 0.3]),
           a_layout=st.sampled_from(["C", "F", "strided"]),
           b_kind=st.sampled_from(["drawn", "None", "zeros"]),
           b_layout=st.sampled_from(["C", "strided", "reversed"]),
           c_kind=st.sampled_from(["float", "int", "float32"]),
           x_layouts=st.lists(st.sampled_from(["C", "strided", "reversed", "broadcast"]),
                              min_size=1, max_size=4))
    def test_bits_of_quadratic_model(self, seed, d, e_max, special_share, a_layout, b_kind,
                                     b_layout, c_kind, x_layouts):
        rng = np.random.default_rng(seed)
        A = laid_out(self.entries(rng, (d, d), e_max, special_share), a_layout)
        if b_kind == "drawn":
            b = laid_out(self.entries(rng, d, e_max, special_share), b_layout)
        elif b_kind == "zeros":  # all +-0: the objective skips the linear term
            b = laid_out(rng.choice([0.0, -0.0], d), b_layout)
        else:
            b = None
        c = self.entries(rng, 1, e_max, special_share)[0]
        if c_kind == "int":
            c = int(rng.integers(-5, 6))
        else:
            with np.errstate(over="ignore"):  # a float32 c may overflow to inf
                c = float(c) if c_kind == "float" else np.float32(c)
        objective = quadratic_objective(A, b, c)
        b_ref = np.zeros(d) if b is None else b
        for x_layout in x_layouts:
            x = laid_out(self.entries(rng, d, e_max, special_share), x_layout)
            with np.errstate(all="ignore"):
                got = objective(x)
                want = quadratic_model(A, b_ref, c, x)
            assert (math.isnan(got) and math.isnan(want)) or (
                np.float64(got).tobytes() == np.float64(want).tobytes())

    def test_bits_at_signed_zeros_and_inf(self):
        # every mix of +-0, -1 and inf entries at d = 1 and 2: the order of the
        # adds decides the sign of a zero value, and an inf x makes the linear
        # term 0 * inf = nan even when b is all zeros
        for d in (1, 2):
            for a in itertools.product([0.0, -0.0, -1.0], repeat=d * d):
                A = np.array(a).reshape(d, d)
                for b in itertools.product([0.0, -0.0, 1.0], repeat=d):
                    for c in (0.0, -0.0):
                        objective = quadratic_objective(A, np.array(b), c)
                        for x in itertools.product([0.0, -0.0, 1.0, math.inf], repeat=d):
                            x = np.array(x)
                            with np.errstate(invalid="ignore"):
                                got = objective(x)
                                want = quadratic_model(A, np.array(b), c, x)
                            assert (math.isnan(got) and math.isnan(want)) or (
                                np.float64(got).tobytes() == np.float64(want).tobytes())

    def test_bits_on_every_layout_at_unit_scale(self):
        # at unit scale a different summation order shows in the last bits
        rng = np.random.default_rng(5)
        for d in (1, 2, 7, 20, 33):
            B = rng.standard_normal((d, d))
            for a_layout, b_layout in ((a, b) for a in ("C", "F", "strided")
                                       for b in ("C", "strided", "reversed")):
                A = laid_out((B + B.T) / 2.0, a_layout)
                # an all-zero b (None or zeros) skips the linear term's ddot;
                # an np.float32 c is added in float64, as quadratic_model does
                for b in (laid_out(rng.standard_normal(d), b_layout), None, np.zeros(d)):
                    for c in (0.25, 3, np.float32(0.1)):
                        objective = quadratic_objective(A, b, c)
                        b_ref = np.zeros(d) if b is None else b
                        for x_layout in ("C", "strided", "reversed", "broadcast") * 5:
                            x = laid_out(rng.standard_normal(d) * 10.0 ** rng.uniform(-3.0, 3.0),
                                         x_layout)
                            assert np.float64(objective(x)).tobytes() == np.float64(
                                quadratic_model(A, b_ref, c, x)).tobytes()


class TestCountedOracle:
    def test_count_and_determinism(self):
        oracle = CountedOracle(rosenbrock_objective())
        assert oracle.count == 0
        x = np.array([1.0, 1.0])
        v1 = oracle(x)
        assert v1 == 0.0
        assert oracle.count == 1
        v2 = oracle(x)
        assert v2 == v1
        assert oracle.count == 2

    def test_dimension_mismatch_leaves_count(self):
        oracle = CountedOracle(rosenbrock_objective())
        with pytest.raises(DimensionMismatchError):
            oracle(np.zeros(3))
        assert oracle.count == 0

    @pytest.mark.parametrize("kind", ["list", "float32", "big-endian", "strided", "2-d",
                                      "wrong-length"])
    def test_input_kinds_act_as_a_converted_point(self, kind):
        seen = []

        def fn(x):
            seen.append(x)
            return float((0.1 * x).sum())  # in float32 on a float32 x

        objective = Objective(fn, 3)
        base = np.random.default_rng(8).standard_normal(3)
        x = {"list": base.tolist(), "float32": base.astype(np.float32),
             "big-endian": base.astype(">f8"), "strided": np.repeat(base, 2)[::2],
             "2-d": base[None, :], "wrong-length": base[:2]}[kind]
        converted = np.asarray(x, dtype=float)
        oracle = CountedOracle(objective)
        if converted.shape != (3,):
            with pytest.raises(DimensionMismatchError,
                               match=re.escape(f"got {converted.shape}")):
                oracle(x)
            assert oracle.count == 0 and seen == []
            return
        got = oracle(x)
        assert oracle.count == 1
        assert np.float64(got).tobytes() == np.float64(objective(converted)).tobytes()
        assert all(type(s) is np.ndarray and s.dtype == np.float64 and s.dtype.isnative
                   for s in seen)

    def test_objective_dim_validation(self):
        with pytest.raises(ValueError):
            Objective(lambda x: 0.0, 0)
        with pytest.raises(ValueError, match="^dim must be an integer, got 2.5$"):
            Objective(lambda x: 0.0, 2.5)
        assert Objective(lambda x: 0.0, np.int64(3)).dim == 3

    def test_shadow_counter_over_full_run(self):
        calls = {"n": 0}

        def counted(x):
            calls["n"] += 1
            return float(x @ x)

        oracle = CountedOracle(Objective(counted, 4))
        opt = ZosahOptimizer(oracle, np.ones(4),
                             ZosahConfig(max_evals=120, seed=0, m=4, T=3))
        rows = opt.run()
        assert oracle.count == calls["n"]
        assert rows[-1].cum_evals == oracle.count


class TestLogisticLoss:
    def test_zero_point_is_ln2(self, synth123_data):
        f = logistic_loss(synth123_data, np.zeros(synth123_data.dim))
        assert abs(f - np.log(2.0)) <= 1e-15

    def test_single_example_closed_form(self):
        data = make_dataset([[1.0, 0.0]], [1.0])
        f = logistic_loss(data, np.array([np.log(3.0), 0.0]))
        np.testing.assert_allclose(f, np.log(4.0 / 3.0), rtol=1e-14)

    def test_symmetric_margin_identity(self):
        t = 2.0
        data = make_dataset([[1.0, 0.0], [1.0, 0.0]], [1.0, -1.0])
        f = logistic_loss(data, np.array([t, 0.0]))
        naive = 0.5 * (np.log(1.0 + np.exp(-t)) + np.log(1.0 + np.exp(t)))
        np.testing.assert_allclose(f, naive, rtol=1e-14)

    def test_large_margin_does_not_overflow(self):
        data = make_dataset([[1.0]], [1.0])
        f = logistic_loss(data, np.array([-1000.0]))
        assert np.isfinite(f)
        np.testing.assert_allclose(f, 1000.0, rtol=1e-12)

    def test_convex_along_lines(self, synth123_data):
        rng = np.random.default_rng(7)
        d = synth123_data.dim
        for _ in range(50):
            x1 = rng.standard_normal(d) * 0.05
            x2 = rng.standard_normal(d) * 0.05
            t = rng.uniform()
            lhs = logistic_loss(synth123_data, t * x1 + (1.0 - t) * x2)
            rhs = (t * logistic_loss(synth123_data, x1)
                   + (1.0 - t) * logistic_loss(synth123_data, x2))
            assert lhs <= rhs + 1e-12

    def test_bits_of_the_margin_formula(self, synth123_data):
        data = synth123_data
        features = data.features.copy()
        rng = np.random.default_rng(8)
        for _ in range(50):
            x = rng.standard_normal(data.dim) * 10.0 ** rng.uniform(-3.0, 2.0)
            margins = data.labels * (data.features @ x)
            assert logistic_loss(data, x) == float(np.mean(np.logaddexp(0.0, -margins)))
        assert (data.features != features).nnz == 0  # signed rows are a copy

    def test_empty_dataset_rejected(self):
        data = Dataset(sp.csr_matrix((0, 3)), np.zeros(0))
        with pytest.raises(ValueError):
            logistic_loss(data, np.zeros(3))

    def test_dimension_mismatch(self):
        data = make_dataset([[1.0, 0.0]], [1.0])
        with pytest.raises(DimensionMismatchError):
            logistic_loss(data, np.zeros(3))

    def test_objective_wrapper(self, synth123_data):
        obj = logistic_objective(synth123_data)
        assert obj.dim == synth123_data.dim
        assert abs(obj(np.zeros(obj.dim)) - np.log(2.0)) <= 1e-15


def loss_bits(value):
    """The bytes of a loss value, with every nan the same."""
    return b"nan" if math.isnan(value) else np.float64(value).tobytes()


def scaled_floats(lo, hi):
    """Finite floats m * 10**e with |m| < 10 and e in [lo, hi]."""
    mantissa = st.floats(-10.0, 10.0, exclude_min=True, exclude_max=True)
    return st.builds(lambda m, e: m * 10.0 ** e, mantissa, st.integers(lo, hi))


SPECIAL = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])
ENTRIES = st.one_of(scaled_floats(-2, 2), scaled_floats(-300, 300), SPECIAL)


@st.composite
def sparse_sets(draw):
    """A small dataset with a column in no row, a column in every row, and
    (in most examples) an empty row; stored entries may be +-0."""
    n = draw(st.integers(1, 16))
    d = draw(st.integers(3, 7))
    cells = st.lists(st.sampled_from([True, False, False, False]), min_size=n * d, max_size=n * d)
    held = np.array(draw(cells)).reshape(n, d)
    held[:, 0] = False  # column 0 is in no row
    held[:, 1] = True  # column 1 is in every row ...
    if n > 1 and draw(st.booleans()):
        held[0] = False  # ... but an empty row 0
    rows, cols = held.nonzero()
    values = draw(st.lists(st.one_of(scaled_floats(-2, 2), st.sampled_from([0.0, -0.0]),
                                     scaled_floats(-300, 300)),
                           min_size=rows.size, max_size=rows.size))
    labels = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
    features = sp.csr_matrix((np.array(values, dtype=float), (rows, cols)), shape=(n, d))
    return Dataset(features, np.array(labels))


@st.composite
def query_plans(draw, d):
    """(kind, values, coordinates) steps: fresh points, repeats of the last
    fresh point, and 1-, 2-, 3- and all-coordinate moves away from it."""
    steps = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["fresh", "repeat", 1, 2, 3, "all"]))
        k = d if kind in ("fresh", "all") else 0 if kind == "repeat" else kind
        coords = draw(st.permutations(range(d)))[:k]
        values = draw(st.lists(ENTRIES, min_size=k, max_size=k))
        steps.append((kind, values, coords))
    return steps


class TestLogisticObjectiveRows:
    """The logistic objective recomputes only the rows a query moves."""

    # No shrink phase: shrinking each data.draw of a failing run took minutes.
    @settings(max_examples=250, deadline=None, derandomize=True, database=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(data=st.data())
    def test_every_query_has_the_bits_of_logistic_loss(self, data):
        dataset = data.draw(sparse_sets())
        objective = logistic_objective(dataset)
        anchor = np.zeros(dataset.dim)
        for kind, values, coords in data.draw(query_plans(dataset.dim)):
            x = anchor.copy()
            x[coords] = values
            if kind == "fresh":
                anchor = x
            with np.errstate(all="ignore"):
                got, want = objective(x), logistic_loss(dataset, x)
            assert loss_bits(got) == loss_bits(want), (kind, coords)

    def test_one_coordinate_move_sums_only_its_rows(self, synth123_data, monkeypatch):
        data = synth123_data
        n_rows = []  # per kernel call, the rows it sums: its nonempty pointer ranges
        kernel = zosah.logistic._csr_matvec

        def spy(n_row, n_col, Ap, *args):
            n_rows.append(int(np.count_nonzero(np.diff(Ap[:n_row + 1]) > 0)))
            return kernel(n_row, n_col, Ap, *args)

        monkeypatch.setattr(zosah.logistic, "_csr_matvec", spy)
        objective = logistic_objective(data)
        x = np.random.default_rng(5).standard_normal(data.dim) * 0.1
        objective(x)
        assert n_rows == [data.n]
        holding = np.diff(data.features.tocsc().indptr)
        for j in (0, 17, data.dim - 1):
            probe = x.copy()
            probe[j] += 1e-4
            n_rows.clear()
            got = objective(probe)
            assert n_rows == [holding[j]]
            assert loss_bits(got) == loss_bits(logistic_loss(data, probe))
        n_rows.clear()
        assert objective(x) == logistic_loss(data, x)
        assert n_rows == [data.n]  # logistic_loss's only: the repeat sums the kept losses
        probe = x.copy()
        probe[[0, 17]] += 1e-4
        n_rows.clear()
        assert objective(probe) == logistic_loss(data, probe)
        assert n_rows == [data.n, data.n]  # a two-column move is a full evaluation

    def test_a_column_in_every_row_takes_the_row_path(self, monkeypatch):
        rng = np.random.default_rng(8)
        n, d = 40, 6
        held = rng.random((n, d)) < 0.3
        held[:, 2] = True  # column 2 is in every row
        rows, cols = held.nonzero()
        data = Dataset(sp.csr_matrix((rng.standard_normal(rows.size), (rows, cols)), shape=(n, d)),
                       rng.choice([-1.0, 1.0], n))
        calls = []  # per kernel call: (pointer rows, rows it sums)
        kernel = zosah.logistic._csr_matvec

        def spy(n_row, n_col, Ap, *args):
            calls.append((n_row, int(np.count_nonzero(np.diff(Ap[:n_row + 1]) > 0))))
            return kernel(n_row, n_col, Ap, *args)

        monkeypatch.setattr(zosah.logistic, "_csr_matvec", spy)
        objective = logistic_objective(data)
        x = rng.standard_normal(d)
        objective(x)
        probe = x.copy()
        probe[2] += 1e-4
        calls.clear()
        got = objective(probe)
        assert calls == [(2 * n - 1, n)]
        assert loss_bits(got) == loss_bits(logistic_loss(data, probe))

    def test_keeps_a_copy_of_the_point(self, synth123_data):
        objective = logistic_objective(synth123_data)
        x = np.zeros(synth123_data.dim)
        objective(x)
        x[3] = 1.0  # the caller reuses its array
        assert objective(x) == logistic_loss(synth123_data, x)

    def test_no_kernel_for_a_column_in_no_row(self, synth123_path, synth123_data, monkeypatch):
        dim = synth123_data.dim
        data = load_libsvm(synth123_path, expected_dim=dim + 3)  # 3 columns in no row
        kernel = zosah.logistic._csr_matvec
        calls = []

        def spy(*args):
            calls.append(args[0])
            return kernel(*args)

        monkeypatch.setattr(zosah.logistic, "_csr_matvec", spy)
        objective = logistic_objective(data)
        x = np.random.default_rng(7).standard_normal(data.dim) * 0.1
        objective(x)
        for j in range(dim, dim + 3):
            probe = x.copy()
            probe[j] = 3.0
            calls.clear()
            got = objective(probe)
            assert calls == []
            assert loss_bits(got) == loss_bits(logistic_loss(data, probe))

    def test_private_kernels_match_public_scipy(self, synth123_data):
        signed = synth123_data.signed
        n, d = signed.shape
        rng = np.random.default_rng(6)
        for _ in range(20):
            x = rng.standard_normal(d) * 10.0 ** rng.uniform(-3.0, 3.0)
            t = np.zeros(n)
            zosah.logistic._csr_matvec(n, d, signed.indptr, signed.indices, signed.data, x, t)
            assert t.tobytes() == (signed @ x).tobytes()
        # The row path's reading: (start, end) pointers of descending rows,
        # interleaved, as 2k - 1 rows.
        for rows in (np.sort(rng.choice(n, 37, replace=False)), np.array([123]), np.arange(n)):
            desc = rows[::-1]
            ptr = np.stack((signed.indptr[desc], signed.indptr[desc + 1]), axis=1).ravel()
            x = rng.standard_normal(d)
            t = np.zeros(2 * rows.size - 1)
            zosah.logistic._csr_matvec(t.size, d, ptr, signed.indices, signed.data, x, t)
            assert t[::2].tobytes() == (signed[rows] @ x)[::-1].tobytes()
            assert t[1::2].tobytes() == np.zeros(rows.size - 1).tobytes()  # +0.0

    def test_threads_sharing_the_objective_get_exact_values(self, synth123_data):
        data = synth123_data
        objective = logistic_objective(data)
        failures = []

        def worker(seed):
            rng = np.random.default_rng(seed)
            base = rng.standard_normal(data.dim) * 0.1
            for i in range(150):
                x = base.copy()
                if i % 10 == 0:
                    base = x = rng.standard_normal(data.dim) * 0.1
                else:
                    x[rng.choice(data.dim, i % 3 + 1, replace=False)] += 1e-3
                if objective(x) != logistic_loss(data, x):
                    failures.append((seed, i))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []


class TestDataset:
    def test_label_domain_enforced(self):
        with pytest.raises(ValueError):
            make_dataset([[1.0]], [2.0])

    def test_label_count_enforced(self):
        with pytest.raises(ValueError):
            Dataset(sp.csr_matrix(np.ones((2, 1))), np.ones(3))

    def test_shape_properties(self, synth123_data):
        assert synth123_data.n == 400
        assert synth123_data.dim == 123
        assert set(np.unique(synth123_data.labels)) <= {-1.0, 1.0}


class TestLoadLibsvm:
    def write(self, tmp_path, text):
        path = tmp_path / "data.txt"
        path.write_text(text, encoding="ascii")
        return path

    def test_basic_line(self, tmp_path):
        data = load_libsvm(self.write(tmp_path, "+1 3:1.5\n"))
        assert data.n == 1
        assert data.dim == 3
        assert data.labels[0] == 1.0
        assert data.features[0, 2] == 1.5

    def test_zero_one_labels_mapped(self, tmp_path):
        data = load_libsvm(self.write(tmp_path, "0 1:2.0\n1 2:1.0\n"))
        np.testing.assert_array_equal(data.labels, [-1.0, 1.0])

    def test_negative_label_passthrough_and_blank_lines(self, tmp_path):
        data = load_libsvm(self.write(tmp_path, "-1 1:1.0\n\n+1 2:1.0\n"))
        np.testing.assert_array_equal(data.labels, [-1.0, 1.0])
        assert data.n == 2

    def test_expected_dim_extends(self, tmp_path):
        data = load_libsvm(self.write(tmp_path, "+1 3:1.5\n"), expected_dim=10)
        assert data.dim == 10

    def test_expected_dim_never_shrinks(self, tmp_path):
        data = load_libsvm(self.write(tmp_path, "+1 5:1.0\n"), expected_dim=2)
        assert data.dim == 5

    def test_feature_free_line_needs_expected_dim(self, tmp_path):
        path = self.write(tmp_path, "+1\n")
        with pytest.raises(DatasetFormatError):
            load_libsvm(path)
        data = load_libsvm(path, expected_dim=3)
        assert data.dim == 3
        assert data.features[0].nnz == 0

    def test_label_domain_error_names_line(self, tmp_path):
        path = self.write(tmp_path, "+1 1:1.0\n2 1:0.5\n")
        with pytest.raises(DatasetFormatError, match=":2:"):
            load_libsvm(path)

    def test_non_numeric_label(self, tmp_path):
        with pytest.raises(DatasetFormatError, match=":1:"):
            load_libsvm(self.write(tmp_path, "foo 1:1.0\n"))

    def test_malformed_token(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="malformed"):
            load_libsvm(self.write(tmp_path, "+1 abc\n"))

    def test_non_numeric_value(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="non-numeric"):
            load_libsvm(self.write(tmp_path, "+1 1:x\n"))

    def test_index_below_one(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="< 1"):
            load_libsvm(self.write(tmp_path, "+1 0:1.0\n"))

    def test_duplicate_index(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="duplicate"):
            load_libsvm(self.write(tmp_path, "+1 2:1.0 2:3.0\n"))

    def test_non_ascii_file_names_the_path(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_bytes(b"+1 1:1.0\n-1 2:caf\xc3\xa9\n")
        with pytest.raises(DatasetFormatError, match=f"^{path}: not an ASCII LIBSVM file"):
            load_libsvm(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_value_names_the_line(self, tmp_path, bad):
        path = self.write(tmp_path, f"+1 1:1.0\n\n-1 3:2.0 2:{bad}\n")
        with pytest.raises(DatasetFormatError, match=f"^{path}:3: non-finite feature 2:"):
            load_libsvm(path)

    def test_empty_file(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="no examples"):
            load_libsvm(self.write(tmp_path, "\n"))

    def test_synthetic_round_trip(self, synth123_path):
        data = load_libsvm(synth123_path, expected_dim=123)
        assert data.n == 400
        assert data.dim == 123
        # 30 nonzeros planted per row, up to measure-zero exact cancellations
        assert data.features.nnz == 400 * 30
