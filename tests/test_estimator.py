"""Gradient estimation, quadratic-model fitting, eigen math, PD repair."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zosah.estimator as estimator_mod
import zosah.logistic
from zosah.estimator import (
    _FD_STEPS,
    _GRAD_STEPS,
    EXACT,
    FAILED,
    GAMMA_FLOOR,
    RIDGE,
    HessianUnavailableError,
    InsufficientSamplesError,
    _eigs,
    _eigvalsh,
    _fd_rows,
    _fit_rows,
    _gradients,
    _lift_index,
    _newton_rows,
    _probe,
    _rows,
    _secant_rows,
    _solve,
    build_fit_system,
    estimate_gradient,
    fd_subspace_hessian,
    make_pd,
    newton_direction,
    quad_monomials,
    solve_hessian,
)
from zosah.logistic import logistic_loss, logistic_objective
from zosah.oracle import CountedOracle, Objective, quadratic_model, quadratic_objective
from zosah.subspace import PairProjection, make_plan


def _lift(pair, delta, base):
    """A copy of ``base`` with ``delta`` added on the pair's two axes."""
    out = np.array(base, dtype=float)
    out[pair.i1] += delta[0]
    out[pair.i2] += delta[1]
    return out


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

    @pytest.mark.parametrize("eps", [np.nan, np.inf, 0.0, -1.0])
    def test_bad_eps_rejected_before_any_query(self, eps):
        oracle = CountedOracle(Objective(lambda x: 0.0, 2))
        with pytest.raises(ValueError, match="eps must be finite and positive"):
            estimate_gradient(oracle, np.zeros(2), PairProjection(0, 1), eps, 0.0)
        assert oracle.count == 0

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
    """build_fit_system + solve_hessian on one pair, the fitted matrix as an
    (a, b, d) row; None where it raises."""
    try:
        fit = build_fit_system(list(zip(theta_bar, values)), g_hat, f_theta)
        H = solve_hessian(fit, 1e-10)
    except (InsufficientSamplesError, HessianUnavailableError):
        return None, None
    assert H[0, 1] == H[1, 0]
    return fit.min_eig_gram, _rows(H)[0]


class TestLapackSeam:
    """``_solve`` and ``_eigvalsh`` are np.linalg.solve and eigvalsh without the wrapper."""

    @staticmethod
    def outcome(fn, *args):
        """The result's bytes, or the LinAlgError it raised."""
        try:
            return fn(*args).tobytes()
        except np.linalg.LinAlgError:
            return np.linalg.LinAlgError

    def test_bytes_of_np_linalg_on_random_stacks(self):
        rng = np.random.default_rng(11)
        for n_pairs in (1, 2, 10, 37):
            for scale in (1e-150, 1e-6, 1.0, 1e6, 1e150):
                M = rng.standard_normal((n_pairs, 3, 3)) * scale
                gram = M @ M.transpose(0, 2, 1)
                rhs = rng.standard_normal((n_pairs, 3, 1)) * scale
                assert _solve(M, rhs).tobytes() == np.linalg.solve(M, rhs).tobytes()
                assert _solve(gram, rhs).tobytes() == np.linalg.solve(gram, rhs).tobytes()
                assert _solve(M[0], rhs[0]).tobytes() == np.linalg.solve(M[0], rhs[0]).tobytes()
                assert _eigvalsh(gram).tobytes() == np.linalg.eigvalsh(gram).tobytes()
                # eigvalsh reads the lower triangle only
                assert _eigvalsh(M).tobytes() == np.linalg.eigvalsh(M).tobytes()

    def test_failed_matrices_come_back_as_nan(self):
        # nan exactly on the matrices np.linalg raises on, taken alone, and
        # np.linalg's bytes on every other matrix of the stack; no warning
        rng = np.random.default_rng(12)
        stacks = {}
        stacks["singular"] = rng.standard_normal((3, 3, 3))
        stacks["singular"][1] = 0.0
        stacks["rank_one"] = np.ones((2, 3, 3))
        for name, bad in (("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf)):
            full = rng.standard_normal((3, 3, 3))
            full[2] = bad
            stacks[name] = full
            one = np.eye(3)[None].repeat(2, axis=0)
            one[1, 0, 0] = bad
            stacks[name + " entry"] = one
        failed = set()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name, a in stacks.items():
                b = np.ones((len(a), 3, 1))
                for fn, got, reference, args in (
                    ("solve", _solve(a, b), np.linalg.solve, lambda j: (a[j], b[j])),
                    ("eigvalsh", _eigvalsh(a), np.linalg.eigvalsh, lambda j: (a[j],)),
                ):
                    for j in range(len(a)):
                        want = self.outcome(reference, *args(j))
                        if want is np.linalg.LinAlgError:
                            assert np.isnan(got[j]).all(), (fn, name, j)
                            failed.add((fn, name))
                        else:
                            assert got[j].tobytes() == want, (fn, name, j)
        # np.linalg.solve returns nan on a non-finite matrix, it does not raise
        assert failed >= {("solve", "singular"), ("solve", "rank_one"),
                          ("eigvalsh", "nan"), ("eigvalsh", "inf"), ("eigvalsh", "-inf")}

    def test_floating_point_settings_are_restored(self):
        # the seams ignore every flag, whatever the caller's settings, and
        # leave those settings as they were
        with np.errstate(all="raise"):
            before = np.geterr(), np.geterrcall()
            assert np.isnan(_solve(np.zeros((3, 3)), np.ones((3, 1)))).all()
            assert np.isnan(_eigvalsh(np.full((1, 3, 3), math.nan))).all()
            assert (np.geterr(), np.geterrcall()) == before


class TestBatchedFit:
    """_fit_rows against the per-pair path, bit for bit."""

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
            rows, outcome = _fit_rows(theta_bar, values, g, f_theta)
            for j, kind in enumerate(kinds):
                min_eig, ref = per_pair_fit(theta_bar[j], values[j], g[j], f_theta)
                if ref is None:
                    assert outcome[j] == FAILED, kind
                    assert kind in ("singular", "nonfinite")
                    seen.add("failed")
                else:
                    assert outcome[j] != FAILED, kind
                    assert tuple(rows[j]) == ref, kind
                    assert outcome[j] == (EXACT if min_eig >= 1e-10 else RIDGE), kind
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
        rows, outcome = _fit_rows(theta_bar, values, g, 0.5)
        assert [o == FAILED for o in outcome] == [False, True, False]
        for j in (0, 2):
            assert tuple(rows[j]) == per_pair_fit(theta_bar[j], values[j], g[j], 0.5)[1]

    def test_non_finite_point_fails_alone(self):
        # an overflowing monomial makes that pair's Gram matrix non-finite,
        # which would make a stacked eigvalsh raise for every pair
        rng = np.random.default_rng(8)
        theta_bar = rng.standard_normal((3, 4, 2))
        theta_bar[2, 1] = [1e200, 0.0]
        values = rng.standard_normal((3, 4))
        g = rng.standard_normal((3, 2))
        with np.errstate(over="ignore", invalid="ignore"):
            rows, outcome = _fit_rows(theta_bar, values, g, 0.5)
        assert [o == FAILED for o in outcome] == [False, False, True]
        for j in (0, 1):
            assert tuple(rows[j]) == per_pair_fit(theta_bar[j], values[j], g[j], 0.5)[1]

    @pytest.mark.parametrize("kind, want_outcome, want_warnings", [
        ("overflow", [EXACT, EXACT, FAILED],
         {"invalid value encountered in matmul", "overflow encountered in multiply"}),
        ("inf point", [EXACT, FAILED, EXACT],
         {"invalid value encountered in matmul", "invalid value encountered in multiply"}),
        ("singular", [EXACT, FAILED, EXACT], set()),
    ])
    def test_failed_pairs_warn_only_in_the_fit_arithmetic(self, kind, want_outcome,
                                                          want_warnings):
        # numpy's default settings warn on the monomials and the Gram matmul
        # of a non-finite point; the LAPACK calls and the ridge of a failed
        # pair add no warning
        rng = np.random.default_rng(7 if kind == "singular" else 8)
        theta_bar = rng.standard_normal((3, 4, 2))
        values = rng.standard_normal((3, 4))
        g = rng.standard_normal((3, 2))
        if kind == "overflow":
            theta_bar[2, 1] = [1e200, 0.0]
        elif kind == "inf point":
            theta_bar[1, 1] = [math.inf, 0.0]
        else:
            theta_bar[1] = 0.0
        with warnings.catch_warnings(record=True) as caught, np.errstate(
                divide="warn", over="warn", under="ignore", invalid="warn"):
            warnings.simplefilter("always")
            rows, outcome = _fit_rows(theta_bar, values, g, 0.5)
        assert {str(w.message) for w in caught} == want_warnings
        assert outcome == want_outcome
        for j in range(3):
            if outcome[j] != FAILED:
                assert tuple(rows[j]) == per_pair_fit(theta_bar[j], values[j], g[j], 0.5)[1]

    def test_fewer_than_three_samples_fail_every_pair(self):
        rows, outcome = _fit_rows(np.ones((4, 2, 2)), np.ones((4, 2)), np.zeros((4, 2)), 0.0)
        assert len(rows) == 4
        assert outcome == [FAILED] * 4

    def test_small_traces_skip_eigvalsh(self, monkeypatch):
        # every Gram trace below half the floor: lambda_min <= trace / 3 cannot
        # clear it, so the stack is ridge without an eigvalsh call; one large
        # pair in the stack brings the call back
        rng = np.random.default_rng(9)
        theta_bar = 1e-4 * rng.standard_normal((3, 4, 2))
        values = rng.standard_normal((3, 4))
        g = rng.standard_normal((3, 2))
        calls = []
        real = estimator_mod._eigvalsh
        monkeypatch.setattr(estimator_mod, "_eigvalsh", lambda a: calls.append(a) or real(a))
        rows, outcome = _fit_rows(theta_bar, values, g, 0.5)
        assert calls == []
        assert outcome == [RIDGE] * 3
        for j in range(3):
            min_eig, ref = per_pair_fit(theta_bar[j], values[j], g[j], 0.5)
            assert min_eig < GAMMA_FLOOR
            assert tuple(rows[j]) == ref
        theta_bar[1] *= 1e4
        calls.clear()
        rows, outcome = _fit_rows(theta_bar, values, g, 0.5)
        assert len(calls) == 1
        assert outcome == [RIDGE, EXACT, RIDGE]
        for j in range(3):
            assert tuple(rows[j]) == per_pair_fit(theta_bar[j], values[j], g[j], 0.5)[1]


    def test_gram_just_above_the_floor_is_exact(self):
        # samples (r, 0), (0, r), (u, u), (u, -u) give a Gram matrix with
        # eigenvalues r^4/4, 2 u^4 and r^4/4 + u^4; at r^4/4 = 2 u^4 = 1.05 *
        # floor the trace is 3.5 * lambda_min, so a trace test looser than
        # trace < 3 * floor would wrongly call this fit ridge
        a = 1.05 * GAMMA_FLOOR
        r = (4.0 * a) ** 0.25
        u = (0.5 * a) ** 0.25
        theta_bar = np.array([[[r, 0.0], [0.0, r], [u, u], [u, -u]]])
        values = np.array([[0.3, -0.2, 0.1, 0.4]])
        g = np.array([[0.5, -1.0]])
        min_eig, ref = per_pair_fit(theta_bar[0], values[0], g[0], 0.2)
        assert GAMMA_FLOOR <= min_eig < 1.1 * GAMMA_FLOOR
        rows, outcome = _fit_rows(theta_bar, values, g, 0.2)
        assert outcome == [EXACT]
        assert tuple(rows[0]) == ref


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
        lift = _lift_index(idx, x.size, 2)
        g, points, values = _gradients(oracle, x, lift, x[idx], eps * _GRAD_STEPS, eps, f_x)
        assert oracle.count == 2 * len(idx)
        for j, (i1, i2) in enumerate(idx):
            p = PairProjection(int(i1), int(i2))
            for r, delta in enumerate(((eps, 0.0), (0.0, eps))):
                f_probe = obj(_lift(p, delta, x))
                assert values[j, r] == f_probe
                assert g[j, r] == (f_probe - f_x) / eps
                assert np.array_equal(points[j, r], p.project(x) + np.asarray(delta))

    def test_fd_matches_per_pair(self):
        obj, x, idx = self.setup_problem()
        eps = 1e-2
        oracle = CountedOracle(obj)
        f_x = obj(x)
        _, _, f_probes = _gradients(
            oracle, x, _lift_index(idx, x.size, 2), x[idx], eps * _GRAD_STEPS, eps, f_x)
        before = oracle.count
        lift = _lift_index(idx, x.size, 3, by_probe=True)
        rows = _fd_rows(oracle, x, lift, x[idx], eps * _FD_STEPS, eps, f_x, f_probes.tolist())
        assert oracle.count - before == 3 * len(idx)
        for j, (i1, i2) in enumerate(idx):
            p = PairProjection(int(i1), int(i2))
            f_2e1 = obj(_lift(p, (2.0 * eps, 0.0), x))
            f_2e2 = obj(_lift(p, (0.0, 2.0 * eps), x))
            f_e1e2 = obj(_lift(p, (eps, eps), x))
            f1, f2 = f_probes[j]
            eps2 = eps * eps
            a11 = (f_2e1 - 2.0 * f1 + f_x) / eps2
            a22 = (f_2e2 - 2.0 * f2 + f_x) / eps2
            a12 = (f_e1e2 - f1 - f2 + f_x) / eps2
            assert rows[j] == (a11, a12, a22)

    def test_fd_queries_every_axis_probe_before_the_mixed_ones(self):
        obj, x, idx = self.setup_problem()
        eps = 1e-2
        queried = []
        oracle = CountedOracle(Objective(lambda z: queried.append(z.copy()) or obj(z), obj.dim))
        f_x = obj(x)
        f_probes = [(obj(x), obj(x))] * len(idx)  # only the order is checked
        lift = _lift_index(idx, x.size, 3, by_probe=True)
        _fd_rows(oracle, x, lift, x[idx], eps * _FD_STEPS, eps, f_x, f_probes)
        want = [_lift(PairProjection(int(i1), int(i2)), delta, x)
                for delta in ((2 * eps, 0.0), (0.0, 2 * eps), (eps, eps)) for i1, i2 in idx]
        assert [z.tobytes() for z in queried] == [z.tobytes() for z in want]

    def test_fd_axis_probes_take_the_logistic_row_path(self, synth123_data, monkeypatch):
        full = []  # the points of the logistic objective's full evaluations
        row_losses = zosah.logistic._row_losses

        def spy(signed, z):
            full.append(z.copy())
            return row_losses(signed, z)

        monkeypatch.setattr(zosah.logistic, "_row_losses", spy)
        oracle = CountedOracle(logistic_objective(synth123_data))
        rng = np.random.default_rng(12)
        x = rng.standard_normal(synth123_data.dim) * 0.1
        idx = make_plan(synth123_data.dim, 20, rng)
        eps = 1e-4
        f_x = oracle(x)
        lift = _lift_index(idx, x.size, 2)
        _, _, f_probes = _gradients(oracle, x, lift, x[idx], eps * _GRAD_STEPS, eps, f_x)
        assert len(full) == 1  # f(x); the gradient probes took the row path
        full.clear()
        lift = _lift_index(idx, x.size, 3, by_probe=True)
        rows = _fd_rows(oracle, x, lift, x[idx], eps * _FD_STEPS, eps, f_x, f_probes.tolist())
        # every axis probe took the row path; each mixed probe is a full evaluation
        assert [np.flatnonzero(z != x).tolist() for z in full] == np.sort(idx).tolist()
        assert rows == _fd_rows(CountedOracle(Objective(
            lambda z: logistic_loss(synth123_data, z), synth123_data.dim)),
            x, lift, x[idx], eps * _FD_STEPS, eps, f_x, f_probes.tolist())

    def test_non_finite_curvature_probe_is_named(self):
        oracle = CountedOracle(Objective(lambda x: np.nan if x[0] > 1.5e-3 else 0.0, 3))
        x = np.zeros(3)
        idx = np.array([[1, 2], [0, 1]])
        with pytest.raises(FloatingPointError, match="at a curvature probe$"):
            _fd_rows(oracle, x, _lift_index(idx, 3, 3, by_probe=True), x[idx],
                     1e-3 * _FD_STEPS, 1e-3, 0.0, [(0.0, 0.0)] * 2)

    def test_non_finite_probe_names_the_probe(self):
        oracle = CountedOracle(Objective(lambda x: np.inf if x[1] > 0 else 0.0, 3))
        x = np.zeros(3)
        idx = np.array([[0, 2], [1, 0]])
        with pytest.raises(FloatingPointError, match="gradient probe"):
            _gradients(oracle, x, _lift_index(idx, 3, 2), x[idx], 1e-3 * _GRAD_STEPS, 1e-3, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_every_non_finite_kind_rejected(self, bad):
        # the check sums first; an inf beside a -inf, or a nan, must still
        # raise, naming the first non-finite value in query order
        def f(x):
            return {0: 1.0, 1: -np.inf if bad != -np.inf else np.inf}.get(int(x[2]), bad)

        oracle = CountedOracle(Objective(f, 3))
        points = np.array([[[0.0, 0.0], [0.0, 1.0]], [[0.0, 2.0], [0.0, 3.0]]])
        lift = _lift_index(np.array([[0, 2], [1, 2]]), 3, 2)
        first = -np.inf if bad != -np.inf else np.inf
        with pytest.raises(FloatingPointError,
                           match=f"^objective returned non-finite value {first} at a probe$"):
            _probe(oracle, np.zeros(3), lift, points, "probe")
        oracle = CountedOracle(Objective(lambda x: bad if x[2] > 0 else 1e308, 3))
        with pytest.raises(FloatingPointError,
                           match=f"^objective returned non-finite value {bad} at a probe$"):
            _probe(oracle, np.zeros(3), lift, points, "probe")

    def test_finite_values_whose_sum_overflows_pass(self):
        oracle = CountedOracle(Objective(lambda x: 1e308, 3))
        lift = _lift_index(np.array([[0, 2], [1, 2]]), 3, 2)
        values = _probe(oracle, np.zeros(3), lift, np.zeros((2, 2, 2)), "probe")
        assert values == [1e308] * 4


def naive_lifts(x, idx, points, by_probe=False):
    """The query points of (P, n, 2) slice ``points``, built one probe at a
    time: a copy of ``x`` with pair j's two coordinates set by item
    assignment, pair by pair (or probe by probe with ``by_probe``)."""
    n_pairs, n, _ = points.shape
    order = [(j, r) for r in range(n) for j in range(n_pairs)] if by_probe else [
        (j, r) for j in range(n_pairs) for r in range(n)]
    out = []
    for j, r in order:
        z = x.copy()
        z[idx[j, 0]] = points[j, r, 0]
        z[idx[j, 1]] = points[j, r, 1]
        out.append(z)
    return out


class TestLiftReference:
    """The lifted query points against naive per-probe copies, bit for bit:
    planned, the rows pass with the plan's lift index, as the step calls it;
    not planned, the per-pair views, pair after pair, each building its own."""

    SHAPES = [(2, 1), (20, 1), (20, 10), (123, 1), (123, 10)]

    @staticmethod
    def problem(d, n_pairs):
        rng = np.random.default_rng(d * 100 + n_pairs)
        idx = make_plan(d, 2 * n_pairs, rng)
        x = rng.standard_normal(d)
        x[rng.choice(d, size=max(1, d // 4), replace=False)] = -0.0
        x[idx[0, 1]] = -0.0  # theta holds -0.0
        x[idx[-1, 0]] = 5e-324
        queried = []

        def f(z):
            queried.append(z.copy())
            return float(np.sum(np.abs(z)))

        return x, idx, CountedOracle(Objective(f, d)), queried

    @staticmethod
    def same_bits(got, want):
        assert [z.tobytes() for z in got] == [z.tobytes() for z in want]

    @pytest.mark.parametrize("d, n_pairs", SHAPES)
    @pytest.mark.parametrize("planned", [False, True])
    def test_gradient_probes(self, d, n_pairs, planned):
        x, idx, oracle, queried = self.problem(d, n_pairs)
        eps = 1e-3
        steps = eps * _GRAD_STEPS
        theta = x[idx]
        if planned:
            _, points, _ = _gradients(oracle, x, _lift_index(idx, d, 2), theta, steps, eps, 1.0)
        else:
            points = np.array([[point for point, _ in estimate_gradient(
                oracle, x, PairProjection(int(i1), int(i2)), eps, 1.0).probes]
                for i1, i2 in idx])
        want = [[[theta[j, c] + steps[r, c] for c in range(2)] for r in range(2)]
                for j in range(n_pairs)]
        assert np.array(want).tobytes() == points.tobytes()
        self.same_bits(queried, naive_lifts(x, idx, np.array(want)))

    @pytest.mark.parametrize("d, n_pairs", SHAPES)
    @pytest.mark.parametrize("planned", [False, True])
    def test_fd_probes(self, d, n_pairs, planned):
        x, idx, oracle, queried = self.problem(d, n_pairs)
        eps = 1e-3
        steps = eps * _FD_STEPS
        theta = x[idx]
        if planned:
            lift = _lift_index(idx, d, 3, by_probe=True)
            _fd_rows(oracle, x, lift, theta, steps, eps, 1.0, [(1.0, 1.0)] * n_pairs)
        else:
            for i1, i2 in idx:
                fd_subspace_hessian(oracle, x, PairProjection(int(i1), int(i2)), eps, 1.0, 1.0, 1.0)
        want = np.array([[[theta[j, c] + steps[r, c] for c in range(2)] for r in range(3)]
                         for j in range(n_pairs)])
        self.same_bits(queried, naive_lifts(x, idx, want, by_probe=planned))

    @pytest.mark.parametrize("d, n_pairs", SHAPES)
    def test_probe_values(self, d, n_pairs):
        # the step's fresh samples: 3 points per pair, queried pair by pair
        x, idx, oracle, queried = self.problem(d, n_pairs)
        rng = np.random.default_rng(7)
        points = rng.standard_normal((n_pairs, 3, 2))
        points[0, 1] = (-0.0, 2.5e-320)
        points[-1, 2, 0] = -0.0
        values = _probe(oracle, x, _lift_index(idx, d, 3), points, "curvature sample")
        want = naive_lifts(x, idx, points)
        self.same_bits(queried, want)
        assert values == [float(np.sum(np.abs(z))) for z in want]

    @pytest.mark.parametrize("d", [2, 20, 123])
    @pytest.mark.parametrize("n_pairs", [1, 10])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("by_probe", [False, True])
    def test_lift_index_matches_uncached_formula(self, d, n_pairs, n, by_probe):
        # two plans of one shape share the memoized offsets; each gets its own
        # positions, the ones built without the memo
        rng = np.random.default_rng(d + n_pairs + n)
        for _ in range(2):
            idx = rng.integers(d, size=(n_pairs, 2))
            pairs = np.arange(n_pairs)[:, None]
            probes = np.arange(n)
            rows = probes * n_pairs + pairs if by_probe else pairs * n + probes
            want = rows[:, :, None] * d + idx[:, None, :]
            got = _lift_index(idx, d, n, by_probe)
            assert got.dtype == want.dtype and got.shape == (n_pairs, n, 2)
            assert np.array_equal(got, want)

    def test_memoized_offsets_are_read_only(self):
        offsets = estimator_mod._lift_offsets(10, 3, 20, True)
        assert offsets is estimator_mod._lift_offsets(10, 3, 20, True)
        assert not offsets.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            offsets[0, 0, 0] = 1


def eig2x2(A):
    """_eigs of one symmetric 2x2: (lam, V) with the eigenvectors as V's columns."""
    lam, V = _eigs(_rows(A))
    return np.array(lam[0]), np.array(V[0]).reshape(2, 2)


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

    @pytest.mark.parametrize("kappa", [np.nan, np.inf, 0.0, -1.0, "0.1", None, True, 1j])
    def test_bad_kappa_rejected(self, kappa):
        problem = "finite and positive" if isinstance(kappa, float) else "a real number"
        with pytest.raises(ValueError, match=f"^kappa must be {problem}, got "):
            make_pd(np.eye(2), kappa)


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


def newton_rows(H, g, kappa):
    """_newton_rows on a (P, 2, 2) stack and (P, 2) gradients, as a (P, 2) array."""
    return np.array(_newton_rows(_rows(H), g.tolist(), kappa)).reshape(-1, 2)


class TestBatchedNewtonPass:
    """_newton_rows against the per-pair loop it replaced, bit for bit."""

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
            assert np.array_equal(newton_rows(H, g, kappa), expected)

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
        w = newton_rows(np.array([A]), g, 0.1)
        np.testing.assert_allclose(w[0], g[0] / expected.max(), rtol=1e-15)

    def test_singular_repair_solves_in_the_eigenbasis(self):
        # rank-one at 1e300: the repaired matrix's small eigenvalue (kappa)
        # is below its rounding, so the adjugate's determinant is not finite
        H = np.full((1, 2, 2), 1e300)
        w = newton_rows(H, np.array([[1.0, 2.0]]), 0.1)
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
        w = newton_rows(A[None], np.array([[g0, g1]]), kappa)
        assert np.isfinite(w).all()


# A special entry put into one pair's finite draws: signed zeros, values whose
# monomials underflow (1e-160) or overflow (1e150, squared and summed), and
# non-finite values.
_SPECIAL_DISPLACEMENTS = [0.0, -0.0, 1e-160, -1e-160, 1e150, -1e150, math.inf, math.nan]


class TestOnePairPath:
    """One pair has the bits it has inside a stack: through _fit_rows by the
    stacked routines' contract, and through _newton_rows on its own path."""

    @settings(max_examples=400)
    @given(s=st.integers(3, 7),
           kind=st.sampled_from(["any", "tiny", "near_axis", "singular", "duplicate", "special",
                                 "bad_value"]),
           data=st.data())
    def test_fit_matches_row_zero_of_a_stack(self, s, kind, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        theta_bar = 10.0 ** -data.draw(st.integers(0, 6)) * rng.standard_normal((1, s, 2))
        values = rng.standard_normal((1, s))
        if kind == "tiny":  # every trace below half the floor: ridge, no eigvalsh
            theta_bar *= 1e-4
        elif kind == "near_axis":  # a ridge that dominates a Gram diagonal entry
            theta_bar[..., 1] *= 1e-3
        elif kind == "singular":  # zero Gram matrix, zero ridge
            theta_bar[:] = 0.0
        elif kind == "duplicate":  # rank-deficient Gram matrix
            theta_bar[0, 1:] = theta_bar[0, 0]
        elif kind == "special":
            theta_bar.flat[data.draw(st.integers(0, 2 * s - 1))] = data.draw(
                st.sampled_from(_SPECIAL_DISPLACEMENTS))
        elif kind == "bad_value":
            values[0, data.draw(st.integers(0, s - 1))] = data.draw(
                st.sampled_from([math.nan, math.inf, -math.inf]))
        g = rng.standard_normal(2)
        f_theta = float(rng.standard_normal())
        # the stack's second pair is the first with its samples reversed, at the same scale
        stack = (np.concatenate([theta_bar, theta_bar[:, ::-1]]),
                 np.concatenate([values, values[:, ::-1]]), np.stack([g, g[::-1]]))
        with np.errstate(all="ignore"):
            rows, outcome = _fit_rows(theta_bar, values, g[None], f_theta)
            stack_rows, stack_outcome = _fit_rows(*stack, f_theta)
        assert outcome == stack_outcome[:1]
        assert np.array(rows[0]).tobytes() == np.array(stack_rows[0]).tobytes()

    @settings(max_examples=400)
    @given(a=scaled_floats(-300, 300), b=scaled_floats(-300, 300), d=scaled_floats(-300, 300),
           kind=st.sampled_from(["any", "equal_diagonal", "tiny_off_diagonal", "rank_one",
                                 "diagonal", "nan", "inf"]),
           kappa=scaled_floats(-100, 100, st.floats(1.0, 10.0, exclude_max=True)),
           g0=scaled_floats(-100, 100), g1=scaled_floats(-100, 100))
    def test_newton_row_matches_the_same_row_in_a_stack(self, a, b, d, kind, kappa, g0, g1):
        # a and d at any scale put half-gaps above _BIG (4e153) in many draws
        if kind == "equal_diagonal":
            d = a
        elif kind == "tiny_off_diagonal":  # candidates' squared norms subnormal
            d = a
            b = math.copysign(1e-170, b)
        elif kind == "rank_one":  # the adjugate fails where a * d overflows
            b = d = a
        elif kind == "diagonal":  # b = +-0.0 keeps the diagonal branch
            b = math.copysign(0.0, b)
        elif kind == "nan":
            a = math.nan
        elif kind == "inf":
            b = math.copysign(math.inf, b)
        with np.errstate(all="ignore"):
            w = _newton_rows([(a, b, d)], [(g0, g1)], kappa)
            stacked = _newton_rows([(a, b, d), (1.0, 0.5, 2.0)], [(g0, g1), (1.0, 1.0)], kappa)
        assert np.array(w[0]).tobytes() == np.array(stacked[0]).tobytes()


def secant_reference(row, last, s, y):
    """One pair's secant update from np.linalg.lstsq and the PSB matrix formula:
    the new (h0, h1, h2) row and latest secant."""
    if s[0] == 0.0 and s[1] == 0.0:
        return tuple(row), last
    new = (*s, *y)
    if last is not None:
        (a0, a1, p0, p1) = last
        A = np.array([[a0, a1, 0.0], [0.0, a0, a1], [s[0], s[1], 0.0], [0.0, s[0], s[1]]])
        h, _, _, sv = np.linalg.lstsq(A, np.array([p0, p1, *y]), rcond=None)
        if sv[-1] > 1e-8 * sv[0] and np.isfinite(h).all():
            return tuple(h), new
    B = np.array([[row[0], row[1]], [row[1], row[2]]])
    s, y = np.array(s), np.array(y)
    r = y - B @ s
    ss = s @ s
    B = B + (np.outer(r, s) + np.outer(s, r)) / ss - (r @ s) * np.outer(s, s) / ss**2
    return (B[0, 0], B[0, 1], B[1, 1]), new


class TestSecantRows:
    """_secant_rows against a per-pair least-squares and PSB reference."""

    def random_history(self, rng, n_pairs, n_steps):
        """Per step, each pair's s and y. s is zero, on the first axis (two
        such steps in a row are parallel secants, whose 4x3 system has a
        zero column, so the PSB branch runs) or random at least 30 degrees
        from the first axis and from the pair's latest secant, so that the
        normal equations stay well conditioned."""
        def sin2(a, b):  # squared sine of the angle between a and b
            return (a[0] * b[1] - a[1] * b[0]) ** 2 / ((a @ a) * (b @ b))

        latest = [None] * n_pairs
        for _ in range(n_steps):
            steps, dg = [], []
            for j in range(n_pairs):
                kind = rng.choice(["random", "zero", "axis"], p=[0.5, 0.2, 0.3])
                s = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0) * np.array([1.0, 0.0])
                if kind == "zero":
                    s[:] = 0.0
                elif kind == "random":
                    while True:
                        s = rng.uniform(0.5, 2.0) * rng.standard_normal(2) / math.sqrt(2.0)
                        if sin2(s, np.array([1.0, 0.0])) >= 0.25 and (
                                latest[j] is None or sin2(s, latest[j]) >= 0.25):
                            break
                if s.any():
                    latest[j] = s
                steps.append(s.tolist())
                dg.append(rng.standard_normal(2).tolist())
            yield steps, dg

    def test_matches_the_per_pair_reference(self):
        rng = np.random.default_rng(33)
        n_pairs = 6
        branches = set()
        for _ in range(20):
            rows = [tuple(rng.standard_normal(3)) for _ in range(n_pairs)]
            last = [None] * n_pairs
            for steps, dg in self.random_history(rng, n_pairs, 8):
                got, got_last = _secant_rows(rows, last, steps, dg)
                for j in range(n_pairs):
                    want, want_last = secant_reference(rows[j], last[j], steps[j], dg[j])
                    assert got_last[j] == want_last
                    scale = max(map(abs, want))
                    assert max(abs(a - b) for a, b in zip(got[j], want)) <= 1e-12 * scale
                    branches.add("kept" if want == tuple(rows[j]) else
                                 "psb" if last[j] is None or want_last[0] * last[j][1]
                                 == want_last[1] * last[j][0] else "lstsq")
                rows, last = got, got_last
        assert branches == {"kept", "psb", "lstsq"}

    @pytest.mark.parametrize("s, y", [
        ((1e-170, 0.0), (1.0, 1.0)),  # s . s underflows to 0
        ((1e-170, 0.0), (1e308, -1e308)),
        ((-0.0, 1e-170), (1.0, -1.0)),
        ((1.0, 0.5), (1.7e308, -1.7e308)),  # the update overflows
        ((math.nan, 1.0), (1.0, 1.0)),
        ((1.0, 1.0), (math.inf, 0.0)),
    ])
    def test_an_unusable_secant_keeps_the_row(self, s, y):
        # one secant: the PSB branch
        row = (2.0, 0.25, 3.0)
        with np.errstate(all="raise"):
            rows, last = _secant_rows([row], [None], [s], [y])
        assert rows == [row]
        assert last == [(*s, *y)]

    def test_a_zero_step_adds_no_secant(self):
        last = (1.0, 0.5, 2.0, -1.0)
        for s in ((0.0, 0.0), (-0.0, 0.0), (0.0, -0.0)):
            rows, new_last = _secant_rows([(2.0, 0.25, 3.0)], [last], [s], [(5.0, 5.0)])
            assert rows == [(2.0, 0.25, 3.0)] and new_last == [last]


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

    @pytest.mark.parametrize("eps", [np.nan, np.inf, 0.0, -1.0])
    def test_bad_eps_rejected_before_any_query(self, eps):
        oracle = CountedOracle(Objective(lambda x: 0.0, 2))
        with pytest.raises(ValueError, match="eps must be finite and positive"):
            fd_subspace_hessian(oracle, np.zeros(2), PairProjection(0, 1),
                                eps, 0.0, 0.0, 0.0)
        assert oracle.count == 0

    def test_eps_whose_square_underflows_rejected_before_any_query(self):
        oracle = CountedOracle(Objective(lambda x: 0.0, 2))
        with pytest.raises(ValueError, match="^eps must be at least about 1.6e-162 in fd mode"):
            fd_subspace_hessian(oracle, np.zeros(2), PairProjection(0, 1),
                                1e-200, 0.0, 0.0, 0.0)
        assert oracle.count == 0
        # the smallest eps whose square is nonzero still gives finite rows
        A = fd_subspace_hessian(oracle, np.zeros(2), PairProjection(0, 1),
                                1.5717277847026288e-162, 0.0, 0.0, 0.0)
        assert np.all(A == 0.0)

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
