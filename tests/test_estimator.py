"""Gradient estimation, quadratic-model fitting, eigen math, PD repair."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zosah import (
    CountedOracle,
    Objective,
    PairProjection,
    build_fit_system,
    eig2x2,
    estimate_gradient,
    fd_subspace_hessian,
    make_pd,
    newton_direction,
    quadratic_model,
    quadratic_objective,
    solve_hessian,
)
from zosah.estimator import (
    HessianUnavailableError,
    InsufficientSamplesError,
    estimate_gradients,
    fd_hessians,
    fit_hessians,
    newton_directions,
    quad_monomials,
)


def random_symmetric(rng, scale=1.0):
    B = rng.standard_normal((2, 2))
    return scale * (B + B.T) / 2.0


def conditioned_symmetric(rng, max_cond=100.0):
    """Random symmetric 2x2 with condition number <= max_cond."""
    angle = rng.uniform(0.0, np.pi)
    c, s = np.cos(angle), np.sin(angle)
    V = np.array([[c, -s], [s, c]])
    lam1 = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-1.0, 1.0)
    lam2 = lam1 / (rng.choice([-1.0, 1.0]) * rng.uniform(1.0, max_cond))
    return (V * np.array([lam1, lam2])) @ V.T


class TestEstimateGradient:
    def test_exact_on_affine(self):
        obj = Objective(lambda x: 3.0 * x[1] + 2.0 * x[3] + 7.0, 4)
        oracle = CountedOracle(obj)
        x = np.zeros(4)
        est = estimate_gradient(oracle, x, PairProjection(1, 3), 0.25, obj(x))
        np.testing.assert_array_equal(est.g, [3.0, 2.0])
        assert oracle.count == 2

    def test_forward_difference_bias_closed_form(self):
        obj = Objective(lambda x: x[0] ** 2, 2)
        oracle = CountedOracle(obj)
        x = np.array([1.0, 0.0])
        est = estimate_gradient(oracle, x, PairProjection(0, 1), 1e-3, 1.0)
        np.testing.assert_allclose(est.g, [2.001, 0.0], rtol=1e-12, atol=1e-12)

    def test_probe_records(self):
        obj = Objective(lambda x: float(x @ x), 3)
        oracle = CountedOracle(obj)
        x = np.array([1.0, 2.0, 3.0])
        p = PairProjection(0, 2)
        est = estimate_gradient(oracle, x, p, 0.5, obj(x))
        assert est.epsilon == 0.5
        pt0, f0 = est.probes[0]
        pt1, f1 = est.probes[1]
        np.testing.assert_array_equal(pt0, [1.5, 3.0])
        np.testing.assert_array_equal(pt1, [1.0, 3.5])
        assert f0 == obj(np.array([1.5, 2.0, 3.0]))
        assert f1 == obj(np.array([1.0, 2.0, 3.5]))

    def test_eps_must_be_positive(self):
        oracle = CountedOracle(Objective(lambda x: 0.0, 2))
        with pytest.raises(ValueError):
            estimate_gradient(oracle, np.zeros(2), PairProjection(0, 1), 0.0, 0.0)

    def test_non_finite_probe_rejected(self):
        oracle = CountedOracle(Objective(lambda x: float("nan"), 2))
        with pytest.raises(FloatingPointError):
            estimate_gradient(oracle, np.zeros(2), PairProjection(0, 1), 1e-3, 0.0)


class TestFitSystem:
    def test_monomial_rows(self):
        np.testing.assert_array_equal(quad_monomials([1.0, 0.0]), [0.5, 0.0, 0.0])
        np.testing.assert_array_equal(quad_monomials([1.0, 1.0]), [0.5, 1.0, 0.5])
        np.testing.assert_array_equal(quad_monomials([2.0, 3.0]), [2.0, 6.0, 4.5])

    def test_design_matrix_rows(self):
        samples = [(np.array([1.0, 0.0]), 0.0),
                   (np.array([0.0, 1.0]), 0.0),
                   (np.array([1.0, 1.0]), 0.0)]
        sys = build_fit_system(samples, np.zeros(2), 0.0)
        want = np.array([[0.5, 0.0, 0.0], [0.0, 0.0, 0.5], [0.5, 1.0, 0.5]])
        np.testing.assert_array_equal(sys.phi, want)

    def test_targets_strip_linear_terms(self):
        # with the exact gradient supplied, only pure curvature remains in q
        A = np.array([[2.0, 1.0], [1.0, 3.0]])
        b = np.array([0.3, -0.7])
        center = np.array([0.4, -1.1])
        g = A @ center + b
        f_c = quadratic_model(A, b, 0.9, center)
        rng = np.random.default_rng(11)
        rel = rng.standard_normal((5, 2))
        samples = [(r, quadratic_model(A, b, 0.9, center + r)) for r in rel]
        sys = build_fit_system(samples, g, f_c)
        want = np.array([0.5 * r @ A @ r for r in rel])
        np.testing.assert_allclose(sys.q, want, rtol=1e-10, atol=1e-12)

    def test_degenerate_samples_flagged(self):
        samples = [(np.zeros(2), 1.0)] * 3
        sys = build_fit_system(samples, np.zeros(2), 1.0)
        np.testing.assert_array_equal(sys.phi, np.zeros((3, 3)))
        assert sys.min_eig_gram == 0.0

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamplesError):
            build_fit_system([(np.ones(2), 1.0)] * 2, np.zeros(2), 0.0)


class TestSolveHessian:
    def exact_system(self, A, rel):
        samples = [(r, float(0.5 * r @ A @ r)) for r in rel]
        return build_fit_system(samples, np.zeros(2), 0.0)

    def test_hand_worked_recovery(self):
        A = np.array([[2.0, 1.0], [1.0, 3.0]])
        rel = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0])]
        sys = self.exact_system(A, rel)
        np.testing.assert_allclose(sys.q, [1.0, 1.5, 3.5], rtol=1e-15)
        np.testing.assert_allclose(solve_hessian(sys), A, atol=1e-10)

    def test_zero_targets_give_zero_matrix(self):
        rel = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0])]
        samples = [(r, 0.0) for r in rel]
        sys = build_fit_system(samples, np.zeros(2), 0.0)
        np.testing.assert_array_equal(solve_hessian(sys), np.zeros((2, 2)))

    def test_random_recovery_matches_lstsq_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            A = conditioned_symmetric(rng)
            while True:
                angles = rng.uniform(0.0, 2.0 * np.pi, 4)
                rel = np.column_stack([np.cos(angles), np.sin(angles)])
                sys = self.exact_system(A, list(rel))
                if sys.min_eig_gram >= 1e-3:
                    break
            fitted = solve_hessian(sys)
            np.testing.assert_allclose(fitted, A, atol=1e-8)
            h, *_ = np.linalg.lstsq(sys.phi, sys.q, rcond=None)
            oracle_A = np.array([[h[0], h[1]], [h[1], h[2]]])
            np.testing.assert_allclose(fitted, oracle_A, atol=1e-8)

    def test_normal_equation_residual(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            rel = rng.standard_normal((6, 2))
            samples = [(r, float(rng.standard_normal())) for r in rel]
            sys = build_fit_system(samples, np.zeros(2), 0.0)
            if sys.min_eig_gram < 1e-10:
                continue
            A = solve_hessian(sys)
            h = np.array([A[0, 0], A[0, 1], A[1, 1]])
            gram = sys.phi.T @ sys.phi
            rhs = sys.phi.T @ sys.q
            resid = np.linalg.norm(gram @ h - rhs)
            assert resid <= 1e-8 * max(1.0, np.linalg.norm(rhs))

    def test_ridge_fallback_on_degenerate_geometry(self):
        A = np.array([[4.0, 0.5], [0.5, 2.0]])
        # colinear samples: rank-one design, min_eig_gram = 0
        rel = [np.array([0.1, 0.0]), np.array([0.2, 0.0]), np.array([0.3, 0.0])]
        sys = self.exact_system(A, rel)
        assert sys.min_eig_gram < 1e-10
        fitted = solve_hessian(sys)
        assert np.all(np.isfinite(fitted))
        assert fitted[0, 1] == fitted[1, 0]
        # the observable direction is still fit: a11 from pure x1 curvature
        np.testing.assert_allclose(fitted[0, 0], 4.0, rtol=1e-3)

    def test_unavailable_when_ridge_cannot_help(self):
        samples = [(np.zeros(2), 0.0)] * 3
        sys = build_fit_system(samples, np.zeros(2), 0.0)
        with pytest.raises(HessianUnavailableError):
            solve_hessian(sys)


def per_pair_fit(theta_bar, values, g_hat, f_theta):
    """build_fit_system + solve_hessian on one pair; None where it raises."""
    try:
        fit = build_fit_system(list(zip(theta_bar, values)), g_hat, f_theta)
        return fit.min_eig_gram, solve_hessian(fit, 1e-10)
    except (InsufficientSamplesError, HessianUnavailableError):
        return None, None


class TestBatchedFit:
    """fit_hessians against the per-pair path, bit for bit."""

    def mixed_stack(self, rng, s):
        # rows: well spread (exact solve), tiny scale (ridge), duplicated
        # samples (rank deficient, ridge), nearly on one axis (ridge that
        # dominates a Gram diagonal entry, so its bits reach the solution),
        # all at the origin (zero Gram and zero ridge: singular), and a
        # non-finite value
        kinds = ["exact", "ridge", "duplicate", "near_axis", "singular", "nonfinite"] * 2
        rng.shuffle(kinds)
        theta_bar = np.empty((len(kinds), s, 2))
        values = rng.standard_normal((len(kinds), s))
        for j, kind in enumerate(kinds):
            scale = {"exact": 1.0, "ridge": 1e-4}.get(kind, 0.1)
            theta_bar[j] = scale * rng.standard_normal((s, 2))
            if kind == "duplicate":
                theta_bar[j, 1] = theta_bar[j, 0]
                theta_bar[j, 2] = -theta_bar[j, 0]
                theta_bar[j, 3:] = theta_bar[j, 0]
            elif kind == "near_axis":
                theta_bar[j, :, 1] *= 1e-3
            elif kind == "singular":
                theta_bar[j] = 0.0
            elif kind == "nonfinite":
                values[j, s - 1] = np.inf
        return kinds, theta_bar, values

    @pytest.mark.parametrize("s", [3, 4, 5])
    def test_matches_per_pair_bits(self, s):
        rng = np.random.default_rng(100 + s)
        seen = set()
        for _ in range(40):
            kinds, theta_bar, values = self.mixed_stack(rng, s)
            g = rng.standard_normal((len(kinds), 2))
            f_theta = float(rng.standard_normal())
            H, failed = fit_hessians(theta_bar, values, g, f_theta, 1e-10)
            for j, kind in enumerate(kinds):
                min_eig, ref = per_pair_fit(theta_bar[j], values[j], g[j], f_theta)
                if ref is None:
                    assert failed[j], kind
                    assert kind in ("singular", "nonfinite")
                    seen.add("failed")
                else:
                    assert not failed[j], kind
                    assert np.array_equal(H[j], ref), kind
                    seen.add("exact" if min_eig >= 1e-10 else "ridge")
        assert seen == {"exact", "ridge", "failed"}

    def test_singular_pair_fails_alone(self):
        rng = np.random.default_rng(7)
        theta_bar = rng.standard_normal((3, 4, 2))
        theta_bar[1] = 0.0  # zero Gram, zero ridge: np.linalg.solve raises
        values = rng.standard_normal((3, 4))
        g = rng.standard_normal((3, 2))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(np.zeros((3, 3)), np.ones(3))
        H, failed = fit_hessians(theta_bar, values, g, 0.5)
        assert failed.tolist() == [False, True, False]
        for j in (0, 2):
            assert np.array_equal(H[j], per_pair_fit(theta_bar[j], values[j], g[j], 0.5)[1])

    def test_non_finite_point_fails_alone(self):
        # an overflowing monomial makes that pair's Gram matrix non-finite,
        # which would make a stacked eigvalsh raise for every pair
        rng = np.random.default_rng(8)
        theta_bar = rng.standard_normal((3, 4, 2))
        theta_bar[2, 1] = [1e200, 0.0]
        values = rng.standard_normal((3, 4))
        g = rng.standard_normal((3, 2))
        with np.errstate(over="ignore", invalid="ignore"):
            H, failed = fit_hessians(theta_bar, values, g, 0.5)
        assert failed.tolist() == [False, False, True]
        for j in (0, 1):
            assert np.array_equal(H[j], per_pair_fit(theta_bar[j], values[j], g[j], 0.5)[1])

    def test_fewer_than_three_samples_fail_every_pair(self):
        H, failed = fit_hessians(np.ones((4, 2, 2)), np.ones((4, 2)), np.zeros((4, 2)), 0.0)
        assert H.shape == (4, 2, 2)
        assert failed.all()


class TestBatchedProbes:
    def setup_problem(self):
        rng = np.random.default_rng(81)
        B = rng.standard_normal((7, 7))
        obj = quadratic_objective(B + B.T)
        x = rng.standard_normal(7)
        x[3] = -0.0
        idx = np.array([[4, 0], [3, 6], [1, 5]])
        return obj, x, idx

    def test_gradients_match_lifted_probes(self):
        obj, x, idx = self.setup_problem()
        eps = 1e-3
        oracle = CountedOracle(obj)
        f_x = obj(x)
        g, points, values = estimate_gradients(oracle, x, idx, eps, f_x)
        assert oracle.count == 2 * len(idx)
        for j, (i1, i2) in enumerate(idx):
            p = PairProjection(int(i1), int(i2))
            for r, delta in enumerate(((eps, 0.0), (0.0, eps))):
                f_probe = obj(p.lift(delta, x))
                assert values[j, r] == f_probe
                assert g[j, r] == (f_probe - f_x) / eps
                assert np.array_equal(points[j, r], p.project(x) + np.asarray(delta))

    def test_fd_matches_per_pair(self):
        obj, x, idx = self.setup_problem()
        eps = 1e-2
        oracle = CountedOracle(obj)
        f_x = obj(x)
        _, _, f_probes = estimate_gradients(oracle, x, idx, eps, f_x)
        before = oracle.count
        H = fd_hessians(oracle, x, idx, eps, f_x, f_probes)
        assert oracle.count - before == 3 * len(idx)
        for j, (i1, i2) in enumerate(idx):
            p = PairProjection(int(i1), int(i2))
            f_2e1 = obj(p.lift((2.0 * eps, 0.0), x))
            f_2e2 = obj(p.lift((0.0, 2.0 * eps), x))
            f_e1e2 = obj(p.lift((eps, eps), x))
            f1, f2 = f_probes[j]
            eps2 = eps * eps
            a11 = (f_2e1 - 2.0 * f1 + f_x) / eps2
            a22 = (f_2e2 - 2.0 * f2 + f_x) / eps2
            a12 = (f_e1e2 - f1 - f2 + f_x) / eps2
            assert np.array_equal(H[j], [[a11, a12], [a12, a22]])

    def test_non_finite_probe_names_the_probe(self):
        oracle = CountedOracle(Objective(lambda x: np.inf if x[1] > 0 else 0.0, 3))
        with pytest.raises(FloatingPointError, match="gradient probe"):
            estimate_gradients(oracle, np.zeros(3), np.array([[0, 2], [1, 0]]), 1e-3, 0.0)


class TestEig2x2:
    def test_rotated_example(self):
        lam, V = eig2x2(np.array([[5.5, 4.5], [4.5, 5.5]]))
        np.testing.assert_allclose(lam, [10.0, 1.0], rtol=1e-14)
        e1 = V[:, 0]
        np.testing.assert_allclose(np.abs(e1), [np.sqrt(0.5)] * 2, rtol=1e-14)

    def test_identity(self):
        lam, V = eig2x2(np.eye(2))
        np.testing.assert_array_equal(lam, [1.0, 1.0])
        np.testing.assert_allclose(V @ V.T, np.eye(2), atol=1e-15)

    def test_signed_tie_order(self):
        lam, _ = eig2x2(np.array([[-1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_array_equal(lam, [1.0, -1.0])
        lam, _ = eig2x2(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_array_equal(lam, [1.0, -1.0])

    def test_magnitude_order_diagonal_path(self):
        lam, V = eig2x2(np.array([[3.0, 0.0], [0.0, -5.0]]))
        np.testing.assert_array_equal(lam, [-5.0, 3.0])
        np.testing.assert_array_equal(np.abs(V), [[0.0, 1.0], [1.0, 0.0]])

    def test_reconstruction_property(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            A = random_symmetric(rng, scale=10.0 ** rng.uniform(-3, 3))
            lam, V = eig2x2(A)
            assert abs(lam[0]) >= abs(lam[1])
            np.testing.assert_allclose(V.T @ V, np.eye(2), atol=1e-12)
            recon = lam[0] * np.outer(V[:, 0], V[:, 0]) \
                + lam[1] * np.outer(V[:, 1], V[:, 1])
            assert np.linalg.norm(recon - A) <= 1e-10 * max(1.0, np.abs(lam[0]))


class TestMakePd:
    def test_absolute_value_repair(self):
        np.testing.assert_allclose(
            make_pd(np.diag([-1.0, 1.0]), 0.1), np.eye(2), atol=1e-15)

    def test_floor_clipping(self):
        np.testing.assert_allclose(
            make_pd(np.diag([0.05, 2.0]), 0.1), np.diag([0.1, 2.0]), atol=1e-15)

    def test_already_pd_unchanged(self):
        A = np.array([[2.0, 0.5], [0.5, 1.0]])
        np.testing.assert_allclose(make_pd(A, 0.1), A, atol=1e-12)

    def test_pd_property_random(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            A = random_symmetric(rng, scale=3.0)
            A_bar = make_pd(A, 0.1)
            np.testing.assert_allclose(A_bar, A_bar.T, atol=1e-12)
            assert np.linalg.eigvalsh(A_bar)[0] >= 0.1 - 1e-12
            x = rng.standard_normal(2)
            assert x @ A_bar @ x >= (0.1 - 1e-9) * (x @ x)

    def test_kappa_must_be_positive(self):
        with pytest.raises(ValueError):
            make_pd(np.eye(2), 0.0)


class TestNewtonDirection:
    def test_curvature_rescaling_example(self):
        w = newton_direction(np.diag([10.0, 1.0]), np.array([10.0, 1.0]))
        np.testing.assert_allclose(w, [1.0, 1.0], rtol=1e-14)

    def test_identity_returns_gradient(self):
        g = np.array([0.3, -0.8])
        np.testing.assert_array_equal(newton_direction(np.eye(2), g), g)

    def test_matches_solve_oracle(self):
        rng = np.random.default_rng(51)
        for _ in range(300):
            A_bar = make_pd(random_symmetric(rng, scale=5.0), 0.1)
            g = rng.standard_normal(2)
            np.testing.assert_allclose(
                newton_direction(A_bar, g), np.linalg.solve(A_bar, g),
                rtol=1e-9, atol=1e-12)

    def test_descent_property(self):
        rng = np.random.default_rng(52)
        for _ in range(300):
            A_bar = make_pd(random_symmetric(rng), 0.1)
            g = rng.standard_normal(2)
            if g @ g == 0.0:
                continue
            assert g @ newton_direction(A_bar, g) > 0.0


def ref_eig2x2(A):
    """The per-pair eig2x2 the batched pass replaced, verbatim."""
    a = float(A[0, 0])
    b = float(A[0, 1])
    d = float(A[1, 1])
    if b == 0.0:
        if (abs(a), a) >= (abs(d), d):
            return np.array([a, d]), np.eye(2)
        return np.array([d, a]), np.array([[0.0, 1.0], [1.0, 0.0]])
    half_tr = 0.5 * (a + d)
    disc = float(np.hypot(0.5 * (a - d), b))
    hi = half_tr + disc
    lo = half_tr - disc
    lam1, lam2 = (lo, hi) if abs(lo) > abs(hi) else (hi, lo)
    v_a = np.array([b, lam1 - a])
    v_b = np.array([lam1 - d, b])
    v = v_a if v_a @ v_a >= v_b @ v_b else v_b
    e1 = v / np.linalg.norm(v)
    e2 = np.array([-e1[1], e1[0]])
    return np.array([lam1, lam2]), np.column_stack([e1, e2])


def ref_make_pd(A, kappa):
    lam, V = ref_eig2x2(A)
    lam_bar = np.maximum(np.abs(lam), kappa)
    return (V * lam_bar) @ V.T


def ref_newton_direction(A_bar, g_hat):
    a = float(A_bar[0, 0])
    b = float(A_bar[0, 1])
    d = float(A_bar[1, 1])
    det = a * d - b * b
    g0 = float(g_hat[0])
    g1 = float(g_hat[1])
    return np.array([(d * g0 - b * g1) / det, (a * g1 - b * g0) / det])


def mixed_stack(rng, kappa):
    """Random (P, 2, 2) stack of the rows a step hands the pass, with the
    per-pair path's inputs: general, diagonal, -0.0 off-diagonal,
    equal-diagonal, negative-curvature and failed (kappa*I) rows."""
    n = int(rng.integers(1, 12))
    B = rng.standard_normal((n, 2, 2)) * 10.0 ** rng.uniform(-3, 3, (n, 1, 1))
    H = (B + B.transpose(0, 2, 1)) / 2.0
    kind = rng.integers(0, 6, n)
    H[kind == 1, 0, 1] = H[kind == 1, 1, 0] = 0.0
    H[kind == 2, 0, 1] = H[kind == 2, 1, 0] = -0.0
    H[kind == 3, 1, 1] = H[kind == 3, 0, 0]
    H[kind == 4] = -np.abs(H[kind == 4])
    failed = kind == 5
    per_pair = [None if f else A for f, A in zip(failed, H)]
    H[failed] = kappa * np.eye(2)
    return H, per_pair


class TestBatchedNewtonPass:
    """newton_directions against the per-pair loop it replaced, bit for bit."""

    def reference(self, per_pair, g, kappa, diag):
        w = np.empty((len(per_pair), 2))
        for j, A in enumerate(per_pair):
            if A is None:
                A_bar = kappa * np.eye(2)
            else:
                if diag:
                    A = np.diag(np.diag(A))
                A_bar = ref_make_pd(A, kappa)
            w[j] = ref_newton_direction(A_bar, g[j])
        return w

    @pytest.mark.parametrize("diag", [False, True])
    @pytest.mark.parametrize("kappa", [0.1, 1e-3, 7.5])
    def test_mixed_stacks_match_per_pair_loop(self, diag, kappa):
        rng = np.random.default_rng(61)
        for _ in range(300):
            H, per_pair = mixed_stack(rng, kappa)
            if diag:  # the step zeroes the off-diagonals before the pass
                H[:, 0, 1] = H[:, 1, 0] = 0.0
            g = rng.standard_normal((len(H), 2))
            expected = self.reference(per_pair, g, kappa, diag)
            assert np.array_equal(newton_directions(H, g, kappa), expected)

    def test_per_pair_functions_match_reference(self):
        rng = np.random.default_rng(62)
        for _ in range(300):
            H, per_pair = mixed_stack(rng, 0.1)
            for A in H:
                lam, V = eig2x2(A)
                ref_lam, ref_V = ref_eig2x2(A)
                assert np.array_equal(lam, ref_lam) and np.array_equal(V, ref_V)
                A_bar = make_pd(A, 0.1)
                assert np.array_equal(A_bar, ref_make_pd(A, 0.1))
                g = rng.standard_normal(2)
                assert np.array_equal(newton_direction(A_bar, g), ref_newton_direction(A_bar, g))

    @pytest.mark.parametrize("A,expected", [
        ([[1.0, 1e-300], [1e-300, 1.0]], np.eye(2)),  # squared norms underflowed: nan
        ([[2.0, 1e-170], [1e-170, 2.0]], 2.0 * np.eye(2)),
        ([[1.0, 1e200], [1e200, 1.0]], 1e200 * np.eye(2)),  # overflowed: zero matrix
    ])
    def test_extreme_scales_keep_the_contract(self, A, expected):
        A_bar = make_pd(np.array(A), 0.1)
        np.testing.assert_allclose(A_bar, expected, rtol=1e-15, atol=1e-15 * expected.max())
        g = np.array([[1.0, -2.0]])
        w = newton_directions(np.array([A]), g, 0.1)
        np.testing.assert_allclose(w[0], g[0] / expected.max(), rtol=1e-15)

    def test_singular_repair_solves_in_the_eigenbasis(self):
        # rank-one at 1e300: the repaired matrix's small eigenvalue (kappa)
        # is below its rounding, so the adjugate's determinant is not finite
        H = np.full((1, 2, 2), 1e300)
        w = newton_directions(H, np.array([[1.0, 2.0]]), 0.1)
        np.testing.assert_allclose(w, [[-5.0, 5.0]], rtol=1e-12)


def scaled_floats(lo, hi, mantissa=st.floats(-10.0, 10.0, exclude_min=True, exclude_max=True)):
    """Finite floats m * 10**e with e in [lo, hi] (|m| < 10 by default)."""
    return st.builds(lambda m, e: m * 10.0 ** e, mantissa, st.integers(lo, hi))


class TestPdRepairProperty:
    # g / kappa stays below 1e202, so the exact direction is finite
    @pytest.mark.filterwarnings("error")
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(a=scaled_floats(-300, 300), b=scaled_floats(-300, 300), d=scaled_floats(-300, 300),
           kappa=scaled_floats(-100, 100, st.floats(1.0, 10.0, exclude_max=True)),
           g0=scaled_floats(-100, 100), g1=scaled_floats(-100, 100))
    def test_repair_and_direction_at_any_finite_scale(self, a, b, d, kappa, g0, g1):
        A = np.array([[a, b], [b, d]])
        A_bar = make_pd(A, kappa)
        assert np.isfinite(A_bar).all()
        scale = np.abs(A_bar).max()
        assert abs(A_bar[0, 1] - A_bar[1, 0]) <= 1e-14 * scale
        lam = np.linalg.eigvalsh(A_bar)
        assert lam[0] >= kappa - 1e-12 * max(kappa, lam[1])
        w = newton_directions(A[None], np.array([[g0, g1]]), kappa)
        assert np.isfinite(w).all()


class TestFdSubspaceHessian:
    def run_fd(self, obj, x, pair, eps):
        oracle = CountedOracle(obj)
        f_x = obj(x)
        est = estimate_gradient(oracle, x, pair, eps, f_x)
        before = oracle.count
        A = fd_subspace_hessian(oracle, x, pair, eps, f_x,
                                est.probes[0][1], est.probes[1][1])
        return A, oracle.count - before

    def test_exact_on_quadratic(self):
        rng = np.random.default_rng(61)
        B = rng.standard_normal((4, 4))
        A_full = (B + B.T) / 2.0
        obj = quadratic_objective(A_full)
        x = rng.standard_normal(4)
        pair = PairProjection(0, 2)
        A, new_queries = self.run_fd(obj, x, pair, 1e-2)
        assert new_queries == 3
        block = A_full[np.ix_([0, 2], [0, 2])]
        np.testing.assert_allclose(A, block, atol=1e-9)

    def test_zero_on_affine(self):
        obj = Objective(lambda x: 3.0 * x[0] + 2.0 * x[1], 2)
        A, new_queries = self.run_fd(obj, np.zeros(2), PairProjection(0, 1), 0.25)
        assert new_queries == 3
        assert np.all(A == 0.0)

    def test_eps_must_be_positive(self):
        oracle = CountedOracle(Objective(lambda x: 0.0, 2))
        with pytest.raises(ValueError):
            fd_subspace_hessian(oracle, np.zeros(2), PairProjection(0, 1),
                                0.0, 0.0, 0.0, 0.0)

    def test_non_finite_rejected(self):
        oracle = CountedOracle(Objective(lambda x: float("nan"), 2))
        with pytest.raises(FloatingPointError):
            fd_subspace_hessian(oracle, np.zeros(2), PairProjection(0, 1),
                                1e-3, 0.0, 0.0, 0.0)


class TestGradientErrorBound:
    def test_bound_on_random_quadratics(self):
        # forward-difference error against the projected true gradient
        rng = np.random.default_rng(71)
        for _ in range(200):
            d = int(rng.integers(2, 7))
            B = rng.standard_normal((d, d))
            A = (B + B.T) * 10.0 ** rng.uniform(-2, 2)
            obj = quadratic_objective(A)
            x = rng.standard_normal(d)
            i1, i2 = rng.choice(d, size=2, replace=False)
            pair = PairProjection(int(i1), int(i2))
            eps = 10.0 ** rng.uniform(-4, -2)
            oracle = CountedOracle(obj)
            est = estimate_gradient(oracle, x, pair, eps, obj(x))
            true_sub = pair.project(A @ x)
            c1 = np.linalg.norm(A, 2)
            assert np.linalg.norm(est.g - true_sub) <= eps / np.sqrt(2.0) * c1 + 1e-12
