"""Objectives, metering, logistic loss, and the LIBSVM loader."""

import numpy as np
import pytest
import scipy.sparse as sp

from zosah import (
    CountedOracle,
    Dataset,
    Objective,
    ZosahConfig,
    ZosahOptimizer,
    load_libsvm,
    logistic_loss,
    logistic_objective,
    quadratic_model,
    quadratic_objective,
    rosenbrock,
    rosenbrock_objective,
)
from zosah.oracle import DatasetFormatError, DimensionMismatchError


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

    def test_objective_wrapper(self):
        obj = rosenbrock_objective()
        assert obj.dim == 2
        assert obj(np.array([1.0, 1.0])) == 0.0


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

    def test_objective_dim_validation(self):
        with pytest.raises(ValueError):
            Objective(lambda x: 0.0, 0)

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

    def test_empty_file(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="no examples"):
            load_libsvm(self.write(tmp_path, "\n"))

    def test_synthetic_round_trip(self, synth123_path):
        data = load_libsvm(synth123_path, expected_dim=123)
        assert data.n == 400
        assert data.dim == 123
        # 30 nonzeros planted per row, up to measure-zero exact cancellations
        assert data.features.nnz == 400 * 30
