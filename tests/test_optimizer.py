"""Tests for the line search, step accounting, and the optimizer driver."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zosah.optimizer as optimizer_mod
from zosah.baselines import BASELINES, BaselineConfig
from zosah.cache import MAX_HESS_RADIUS, EvalCache
from zosah.estimator import (
    EXACT,
    FAILED,
    RIDGE,
    _fd_rows,
    _gradients,
    HessianUnavailableError,
    InsufficientSamplesError,
    build_fit_system,
    estimate_gradient,
    fd_subspace_hessian,
    make_pd,
    newton_direction,
    solve_hessian,
)
from zosah.oracle import (
    CountedOracle,
    DimensionMismatchError,
    Objective,
    quadratic_objective,
    rosenbrock,
    rosenbrock_objective,
)
from zosah.optimizer import (
    TraceRow,
    ZosahConfig,
    ZosahOptimizer,
    armijo_search,
    default_subspace_size,
    run_zosah,
)
from zosah.subspace import PairProjection, make_plan

ROTATED = np.array([[5.5, 4.5], [4.5, 5.5]])


def _lift(pair, delta, base):
    """A copy of ``base`` with ``delta`` added on the pair's two axes."""
    out = np.array(base, dtype=float)
    out[pair.i1] += delta[0]
    out[pair.i2] += delta[1]
    return out


def sphere(d):
    return Objective(lambda x: 0.5 * float(x @ x), d)


def capture_repairs(seen):
    """A stand-in for the step's repair-and-solve pass that records, in
    ``seen``, make_pd of each (a, b, d) row it receives: the matrices the
    pass solves with."""
    real_pass = optimizer_mod._newton_rows

    def capture(rows, g_rows, kappa):
        seen.extend(make_pd(np.array([[a, b], [b, d]]), kappa) for a, b, d in rows)
        return real_pass(rows, g_rows, kappa)

    return capture


class TestZosahConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_evals": -1},
            {"max_evals": 100, "T": 0},
            {"max_evals": 100, "eps": 0.0},
            {"max_evals": 100, "kappa": 0.0},
            {"max_evals": 100, "hess_radius": -0.05},
            {"max_evals": 100, "eps": float("nan")},
            {"max_evals": 100, "kappa": float("nan")},
            {"max_evals": 100, "hess_radius": float("inf")},
            {"max_evals": 100, "m": 3},
            {"max_evals": 100, "m": 0},
            {"max_evals": 100, "hessian_mode": "newton"},
            {"max_evals": 100, "hess_radius": 1e78},  # fresh samples' Gram overflows
            {"max_evals": 100, "m": 2.0},
            {"max_evals": 100, "T": 2.5},
            {"max_evals": 100, "T": 3.0},
            {"max_evals": 50.5},
            {"max_evals": 100, "seed": 1.5},
            {"max_evals": 100, "seed": -1},
            {"max_evals": 100, "hessian_mode": "fd", "eps": 1e-200},  # eps * eps is 0
            # not real numbers, or bools
            {"max_evals": 100, "eps": "1e-3"},
            {"max_evals": 100, "kappa": None},
            {"max_evals": 100, "hess_radius": 0.05j},
            {"max_evals": 100, "eps": True},
            {"max_evals": 100, "kappa": True},
            {"max_evals": 100, "eps": np.True_},
            {"max_evals": 100, "kappa": np.array(0.1)},
        ],
    )
    def test_invalid_fields(self, kwargs):
        with pytest.raises(ValueError, match=f"^{list(kwargs)[-1]} "):  # names the bad field
            ZosahConfig(**kwargs)

    @pytest.mark.parametrize("field,value", [("m", 2.0), ("T", 2.5), ("max_evals", 50.5),
                                             ("seed", 1.5), ("m", False), ("T", True),
                                             ("max_evals", False), ("seed", True)])
    def test_non_integral_count_names_its_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value}$"):
            ZosahConfig(**{"max_evals": 100, field: value})

    def test_numpy_integers_pass(self):
        cfg = ZosahConfig(max_evals=100, m=np.int64(4), T=np.int32(3))
        assert (cfg.m, cfg.T) == (4, 3)

    def test_numpy_reals_pass(self):
        cfg = ZosahConfig(max_evals=100, eps=np.float32(1e-3), kappa=np.int64(1),
                          hess_radius=np.float64(0.05))
        assert (cfg.eps, cfg.kappa, cfg.hess_radius) == (np.float32(1e-3), 1, 0.05)

    def test_zero_budget_is_legal(self):
        assert ZosahConfig(max_evals=0).max_evals == 0

    def test_largest_hess_radius_is_legal(self):
        assert ZosahConfig(max_evals=1, hess_radius=MAX_HESS_RADIUS).hess_radius == MAX_HESS_RADIUS
        with pytest.raises(ValueError, match="hess_radius must be at most"):
            ZosahConfig(max_evals=1, hess_radius=np.nextafter(MAX_HESS_RADIUS, np.inf))


class TestDefaultSubspaceSize:
    @pytest.mark.parametrize("d,m", [(2, 2), (3, 2), (4, 4), (7, 6), (20, 20), (21, 20), (100, 20)])
    def test_values(self, d, m):
        assert default_subspace_size(d) == m


class TestArmijoSearch:
    def test_accepts_full_step(self):
        oracle = CountedOracle(sphere(1))
        rho, accepted, f_new = armijo_search(oracle, np.array([1.0]), np.array([1.0]), 0.5)
        assert (rho, accepted, f_new) == (1.0, True, 0.0)
        assert oracle.count == 1

    def test_zero_direction_costs_nothing(self):
        oracle = CountedOracle(sphere(2))
        rho, accepted, f_new = armijo_search(oracle, np.ones(2), np.zeros(2), 1.0)
        assert (rho, accepted, f_new) == (0.0, False, 1.0)
        assert oracle.count == 0

    def test_total_failure_pays_twenty_one_trials(self):
        # f grows along -v, so every trial fails; one trial per rho down to
        # the first value below the floor: 0.5^0 .. 0.5^20 = 21 queries
        obj = Objective(lambda x: float(x[0]), 1)
        oracle = CountedOracle(obj)
        rho, accepted, f_new = armijo_search(oracle, np.array([0.0]), np.array([-1.0]), 0.0)
        assert oracle.count == 21
        assert not accepted
        assert f_new == 0.0
        assert rho == pytest.approx(0.5**20)
        assert rho < 1e-6

    # -inf passes the Armijo comparison, so only the finiteness test rejects it
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_trial_is_rejected_then_recovers(self, bad):
        def f(x):
            y = float(x[0])
            return bad if y < 0 else 0.5 * y * y

        oracle = CountedOracle(Objective(f, 1))
        rho, accepted, f_new = armijo_search(oracle, np.array([1.0]), np.array([2.0]), 0.5)
        assert accepted
        assert rho == 0.5
        assert f_new == 0.0
        assert oracle.count == 2

    def test_custom_constants(self, monkeypatch):
        constants = {"INIT_STEP": 0.25, "C1": 0.5, "SHRINK": 0.1, "MIN_STEP": 0.05}
        for name, value in constants.items():
            monkeypatch.setattr(optimizer_mod, name, value)
        obj = Objective(lambda x: float(x[0]) ** 2, 1)
        oracle = CountedOracle(obj)
        rho, accepted, f_new = armijo_search(oracle, np.array([1.0]), np.array([1.0]), 1.0)
        assert accepted and rho == 0.25
        assert f_new == pytest.approx(0.5625)
        assert oracle.count == 1
        # a failing search follows the patched schedule too: 0.25, then
        # 0.025, the first value below MIN_STEP
        oracle = CountedOracle(Objective(lambda x: float(x[0]), 1))
        rho, accepted, _ = armijo_search(oracle, np.array([0.0]), np.array([-1.0]), 0.0)
        assert not accepted and oracle.count == 2
        assert rho == 0.25 * 0.1

    def test_trial_points_have_the_bits_of_one_trial_at_a_time(self):
        # the trials after the first are formed as one block; each must equal
        # x - rho * v computed on its own, subnormal products and -0.0 included
        seen = []
        oracle = CountedOracle(Objective(lambda x: seen.append(x.copy()) or 1.0, 5))
        x = np.array([0.3, -0.0, 1e-300, -7.25, 0.0])
        # 5 * 2^-1074 * 2^-3 rounds up to 2^-1074, halving it three times
        # rounds down to 0
        v = np.array([1e-310, 3.7, -2.2e-308, 0.0, 5 * 2.0**-1074])
        armijo_search(oracle, x, v, 0.5)
        want = []
        rho = 1.0
        while True:
            want.append(x - rho * v)
            if rho < 1e-6:
                break
            rho *= 0.5
        assert len(seen) == len(want) == 21
        for got, exp in zip(seen, want):
            assert np.array_equal(got, exp)
            assert np.array_equal(np.signbit(got), np.signbit(exp))


# -0.0, subnormals and nan, for the bits of x - rho * v at rho = 1
SPECIAL_X = np.array([-0.0, 0.0, 5e-324, -2.5e-320, 1.5, np.nan, -0.0, 7.0])
SPECIAL_V = np.array([0.0, -0.0, -5e-324, 2.5e-320, np.nan, 0.5, 5e-324, -0.0])


class TestUnitStepBits:
    """At rho = 1 the search's first trial and the step's accepted point are
    x - 1.0 * v bit for bit."""

    @pytest.mark.parametrize("v", [SPECIAL_V, np.nan_to_num(SPECIAL_V, nan=0.25)])
    def test_first_trial(self, v):
        seen = []
        oracle = CountedOracle(Objective(lambda z: seen.append(z.copy()) or -1e300, 8))
        rho, accepted, _ = armijo_search(oracle, SPECIAL_X, v, 0.0)
        # a nan in v fails every trial; otherwise the first is accepted
        assert accepted == (not np.isnan(v).any())
        assert seen[0].tobytes() == (SPECIAL_X - 1.0 * v).tobytes()

    @pytest.mark.parametrize("mode", ["fit", "fd"])
    def test_accepted_point(self, mode, monkeypatch):
        directions = []

        def search(oracle, x, v, f_x):
            directions.append(v.copy())
            return 1.0, True, f_x

        w = SPECIAL_V.reshape(4, 2).tolist()
        monkeypatch.setattr(optimizer_mod, "_newton_rows", lambda rows, g, kappa: w)
        monkeypatch.setattr(optimizer_mod, "armijo_search", search)
        cfg = ZosahConfig(max_evals=100, m=8, hessian_mode=mode)
        opt = ZosahOptimizer(CountedOracle(Objective(lambda z: 1.0, 8)), SPECIAL_X, cfg)
        for _ in range(3):
            x = opt.x
            opt.step()
            assert opt.x.tobytes() == (x - 1.0 * directions[-1]).tobytes()
        # the direction holds 0.0 + w on the plan's coordinates, 0.0 elsewhere
        want = np.zeros(8)
        for (i1, i2), (w1, w2) in zip(opt._idx.tolist(), w):
            want[i1], want[i2] = 0.0 + w1, 0.0 + w2
        assert directions[-1].tobytes() == want.tobytes()

    @pytest.mark.parametrize("mode", ["fit", "fd"])
    def test_direction_has_the_bits_of_zero_plus_w(self, mode, monkeypatch):
        # quiet nans with payloads and either sign, -0.0, a subnormal and finite
        # components; the step stores 0.0 + w, the bits of += onto zeros
        payload_nans = np.array([0x7FF8000000000123, 0xFFF80000000ABCDE], dtype=np.uint64)
        nan1, nan2 = payload_nans.view(float).tolist()
        w = [(-0.0, nan1), (1.5, -0.0), (nan2, -5e-324), (-2.25, 0.0)]
        monkeypatch.setattr(optimizer_mod, "_newton_rows", lambda rows, g, kappa: w)
        cfg = ZosahConfig(max_evals=100, m=8, hessian_mode=mode)
        opt = ZosahOptimizer(CountedOracle(Objective(lambda z: 1.0, 8)), np.ones(8), cfg)
        opt.step()
        want = np.zeros(8)
        want[opt._idx] += np.array(w)
        assert opt._v.tobytes() == want.tobytes()
        bits = opt._v.view(np.uint64)
        assert bits[opt._idx[[0, 1], [0, 1]]].tolist() == [0, 0]  # -0.0 became +0.0
        assert bits[opt._idx[[0, 2], [1, 0]]].tolist() == payload_nans.tolist()


class TestStepAccounting:
    """Per-step query formulas on a quadratic where the full step is accepted."""

    def run_steps(self, T=5, n_steps=4):
        oracle = CountedOracle(sphere(6))
        cfg = ZosahConfig(max_evals=10_000, seed=0, m=6, T=T)
        opt = ZosahOptimizer(oracle, np.full(6, 1.5), cfg)
        f0 = oracle(opt.x)
        opt.trace.append(TraceRow(0, oracle.count, f0))
        for _ in range(n_steps):
            opt.step()
        return opt

    def test_period_start_and_mid_period_totals(self):
        m = 6
        opt = self.run_steps()
        start, mid = opt.stats[0], opt.stats[1]

        # first step of a period: 1 value + m gradient probes
        # + 3 fresh curvature samples per pair + 1 accepted search trial
        assert start.grad_evals == m
        assert start.pair_hess_evals == (3, 3, 3)
        assert start.search_evals == 1
        assert start.total_evals == 1 + m + 3 * (m // 2) + 1 == 17

        # later steps fit on cached probes: 1 + m + 1
        assert mid.grad_evals == m
        assert mid.pair_hess_evals == (0, 0, 0)
        assert mid.search_evals == 1
        assert mid.total_evals == 1 + m + 1 == 8

    def test_trace_deltas_match_stats(self):
        opt = self.run_steps(n_steps=6)
        for st, before, after in zip(opt.stats, opt.trace, opt.trace[1:]):
            assert after.cum_evals - before.cum_evals == st.total_evals
            assert st.total_evals == 1 + st.grad_evals + st.hess_evals + st.search_evals
            assert st.hess_evals == sum(st.pair_hess_evals)

    def test_fresh_sampling_profile_over_periods(self):
        # T=3 phases: fresh samples at steps 0, 3, 6 only
        oracle = CountedOracle(sphere(4))
        cfg = ZosahConfig(max_evals=10_000, seed=1, m=4, T=3)
        opt = ZosahOptimizer(oracle, np.full(4, 2.0), cfg)
        oracle(opt.x)
        for _ in range(7):
            opt.step()
        for st in opt.stats:
            expected = (3, 3) if st.step % 3 == 0 else (0, 0)
            assert st.pair_hess_evals == expected
            assert st.grad_evals == 4

    def test_fd_mode_pays_three_per_pair_every_step(self):
        oracle = CountedOracle(sphere(4))
        cfg = ZosahConfig(max_evals=10_000, seed=1, m=4, T=3, hessian_mode="fd")
        opt = ZosahOptimizer(oracle, np.full(4, 2.0), cfg)
        oracle(opt.x)
        for _ in range(5):
            opt.step()
        for st in opt.stats:
            assert st.pair_hess_evals == (3, 3)


class TestPlanSchedule:
    def test_plan_refreshes_every_T_steps(self, monkeypatch):
        oracle = CountedOracle(rosenbrock_objective())
        cfg = ZosahConfig(max_evals=100_000, seed=4, m=2, T=4)
        opt = ZosahOptimizer(oracle, np.array([-1.2, 1.0]), cfg)
        oracle(opt.x)
        drawn_at = []
        real = optimizer_mod.make_plan
        monkeypatch.setattr(optimizer_mod, "make_plan",
                            lambda *args: drawn_at.append(opt.k) or real(*args))
        for _ in range(10):
            opt.step()
        assert drawn_at == [0, 4, 8]

    def test_plan_indices_cover_m_coordinates(self):
        oracle = CountedOracle(sphere(10))
        cfg = ZosahConfig(max_evals=1000, seed=2, m=6, T=5)
        opt = ZosahOptimizer(oracle, np.ones(10), cfg)
        oracle(opt.x)
        opt.step()
        assert opt._idx.shape == (3, 2)
        assert len(set(opt._idx.ravel().tolist())) == 6


class TestDriverBehaviour:
    def test_zero_budget_returns_initial_row_only(self):
        oracle = CountedOracle(rosenbrock_objective())
        trace = ZosahOptimizer(oracle, np.array([-1.2, 1.0]), ZosahConfig(max_evals=0)).run()
        assert len(trace) == 1
        assert trace[0] == TraceRow(0, 1, pytest.approx(24.2))
        assert oracle.count == 1

    def test_budget_overshoot_is_bounded_by_one_step(self):
        oracle = CountedOracle(rosenbrock_objective())
        cfg = ZosahConfig(max_evals=100, seed=0, m=2, T=20)
        trace = ZosahOptimizer(oracle, np.array([-1.2, 1.0]), cfg).run()
        worst_step = 1 + 2 + 3 + 21  # value + probes + fresh samples + failed search
        assert trace[-1].cum_evals == oracle.count
        assert oracle.count <= 100 + worst_step
        assert trace[-2].cum_evals < 100

    def test_accepted_values_never_increase(self):
        for seed in range(5):
            trace = run_zosah(
                rosenbrock_objective(),
                np.array([-1.2, 1.0]),
                ZosahConfig(max_evals=800, seed=seed),
            )
            fs = [row.f_value for row in trace]
            assert all(b <= a for a, b in zip(fs, fs[1:]))
            cums = [row.cum_evals for row in trace]
            assert all(b > a for a, b in zip(cums, cums[1:]))
            assert [row.step for row in trace] == list(range(len(trace)))

    def test_newton_quality_first_step_on_sphere(self):
        oracle = CountedOracle(sphere(2))
        cfg = ZosahConfig(max_evals=10_000, seed=0, m=2)
        opt = ZosahOptimizer(oracle, np.array([0.8, -0.6]), cfg)
        f0 = oracle(opt.x)
        opt.trace.append(TraceRow(0, oracle.count, f0))
        row = opt.step()
        assert opt.stats[0].accepted
        assert row.f_value < 0.05 * f0

    def test_determinism_and_seed_sensitivity(self):
        cfg = ZosahConfig(max_evals=600, seed=7)
        a = run_zosah(rosenbrock_objective(), np.array([-1.2, 1.0]), cfg)
        b = run_zosah(rosenbrock_objective(), np.array([-1.2, 1.0]), cfg)
        assert a == b
        c = run_zosah(
            rosenbrock_objective(),
            np.array([-1.2, 1.0]),
            ZosahConfig(max_evals=600, seed=8),
        )
        assert [r.f_value for r in c] != [r.f_value for r in a]

    def test_run_zosah_matches_manual_driver(self):
        cfg = ZosahConfig(max_evals=300, seed=3)
        via_helper = run_zosah(rosenbrock_objective(), np.array([-1.2, 1.0]), cfg)
        oracle = CountedOracle(rosenbrock_objective())
        manual = ZosahOptimizer(oracle, np.array([-1.2, 1.0]), cfg).run()
        assert via_helper == manual

    def test_default_m_from_dimension(self):
        oracle = CountedOracle(sphere(30))
        opt = ZosahOptimizer(oracle, np.zeros(30), ZosahConfig(max_evals=10))
        assert opt.m == 20

    def test_dimension_and_shape_errors(self):
        with pytest.raises(ValueError, match="dimension >= 2"):
            ZosahOptimizer(CountedOracle(sphere(1)), np.zeros(1), ZosahConfig(max_evals=10))
        with pytest.raises(ValueError, match="m must be even"):
            ZosahOptimizer(
                CountedOracle(sphere(4)), np.zeros(4), ZosahConfig(max_evals=10, m=6)
            )
        with pytest.raises(DimensionMismatchError):
            ZosahOptimizer(CountedOracle(sphere(4)), np.zeros(3), ZosahConfig(max_evals=10))

    def test_hessian_failure_falls_back_to_scaled_gradient(self, monkeypatch):
        def always_fails(theta_bar, values, g_hat, f_theta):
            n = len(g_hat)
            return [(np.nan, np.nan, np.nan)] * n, [FAILED] * n

        seen = []
        monkeypatch.setattr(optimizer_mod, "_fit_rows", always_fails)
        monkeypatch.setattr(optimizer_mod, "_newton_rows", capture_repairs(seen))
        oracle = CountedOracle(sphere(2))
        opt = ZosahOptimizer(oracle, np.array([1.0, 1.0]), ZosahConfig(max_evals=10_000, seed=0, m=2))
        f0 = oracle(opt.x)
        opt.trace.append(TraceRow(0, oracle.count, f0))
        row = opt.step()
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0], 0.1 * np.eye(2))
        assert opt.stats[0].accepted
        assert row.f_value < f0


class TestDiagVariant:
    def test_off_diagonal_suppressed_before_pd_repair(self, monkeypatch):
        fitted = np.array([[2.0, 1.0], [1.0, 3.0]])
        seen = []

        def fit_all(theta_bar, values, g_hat, f_theta):
            n = len(g_hat)
            return [(2.0, 1.0, 3.0)] * n, [EXACT] * n

        monkeypatch.setattr(optimizer_mod, "_fit_rows", fit_all)
        monkeypatch.setattr(optimizer_mod, "_newton_rows", capture_repairs(seen))

        for mode, expected in (("diag", np.diag([2.0, 3.0])), ("fit", make_pd(fitted, 0.1))):
            seen.clear()
            oracle = CountedOracle(sphere(2))
            opt = ZosahOptimizer(
                oracle, np.array([1.0, -1.0]),
                ZosahConfig(max_evals=10_000, seed=0, m=2, hessian_mode=mode),
            )
            oracle(opt.x)
            opt.step()
            assert len(seen) == 1
            np.testing.assert_allclose(seen[0], expected, atol=1e-12)

    def test_diag_tracks_fit_on_axis_aligned_quadratic(self):
        obj = quadratic_objective(np.diag([3.0, 1.0, 6.0, 0.5]))
        x0 = np.array([1.0, -2.0, 0.5, 1.5])
        traces = {}
        for mode in ("fit", "diag"):
            cfg = ZosahConfig(max_evals=400, seed=3, m=4, T=5, hessian_mode=mode)
            traces[mode] = run_zosah(obj, x0, cfg)
        f0 = traces["fit"][0].f_value
        assert traces["diag"][0].f_value == f0
        for a, b in zip(traces["fit"], traces["diag"]):
            assert abs(a.f_value - b.f_value) <= 0.05 * max(1.0, a.f_value)
        assert traces["fit"][-1].f_value <= 1e-4 * f0
        assert traces["diag"][-1].f_value <= 1e-4 * f0

    def test_diag_diverges_from_fit_on_rotated_quadratic(self):
        obj = quadratic_objective(ROTATED)
        x0 = np.array([1.0, -1.0])
        finals = {}
        for mode in ("fit", "diag"):
            cfg = ZosahConfig(max_evals=60, seed=0, m=2, eps=1e-5, hessian_mode=mode)
            finals[mode] = run_zosah(obj, x0, cfg)[-1].f_value
        # coupled fit solves the pair exactly; the diagonal variant cannot
        assert finals["fit"] < 1e-8
        assert finals["diag"] > 1e-6


def reference_trace(obj, x0, cfg):
    """The optimizer's loop, pair by pair, from the public per-pair functions.

    Banks probes and fresh samples in plain per-pair dicts and draws each
    pair's fresh points with the per-pair EvalCache.gather_samples.
    """
    oracle = CountedOracle(obj)
    rng = np.random.default_rng(cfg.seed)
    sampler = EvalCache()
    x = np.array(x0, dtype=float)
    trace = [TraceRow(0, 1, oracle(x))]
    k = 0
    while oracle.count < cfg.max_evals:
        if k % cfg.T == 0:
            plan = make_plan(obj.dim, cfg.m, rng)
            sampler.reset(plan)
            pairs = [PairProjection(i1, i2) for i1, i2 in plan.tolist()]
            banked = {p.pair: {} for p in pairs}
        f_x = oracle(x)
        v = np.zeros_like(x)
        for p in pairs:
            theta = p.project(x)
            grad = estimate_gradient(oracle, x, p, cfg.eps, f_x)
            if cfg.hessian_mode == "fd":
                A = fd_subspace_hessian(oracle, x, p, cfg.eps, f_x,
                                        grad.probes[0][1], grad.probes[1][1])
            else:
                store = banked[p.pair]
                if k % cfg.T == 0:
                    fresh = sampler.gather_samples(k, cfg.T, p, theta, rng, cfg.hess_radius).fresh
                    store["fresh"] = [(pt, oracle(_lift(p, pt - theta, x))) for pt in fresh]
                    records = store["fresh"]
                elif k % cfg.T == 1:
                    records = store[k - 1] + store["fresh"]
                else:
                    records = store[k - 2] + store[k - 1]
                try:
                    fit = build_fit_system([(pt - theta, f) for pt, f in records], grad.g, f_x)
                    A = solve_hessian(fit)
                except (InsufficientSamplesError, HessianUnavailableError):
                    A = None
                store[k] = list(grad.probes)
            if A is None:
                A_bar = cfg.kappa * np.eye(2)
            else:
                if cfg.hessian_mode == "diag":
                    A = np.diag(np.diag(A))
                A_bar = make_pd(A, cfg.kappa)
            v = _lift(p, newton_direction(A_bar, grad.g), v)
        rho, accepted, f_new = armijo_search(oracle, x, v, f_x)
        if accepted:
            x = x - rho * v
        k += 1
        trace.append(TraceRow(k, oracle.count, f_new))
    return trace


class TestBatchedStepMatchesPerPairReference:
    """Whole-run traces of the batched step against reference_trace, exactly."""

    @pytest.mark.parametrize("mode", ["fit", "diag", "fd"])
    @pytest.mark.parametrize("radius", [0.05, 0.004])
    def test_rotated_quadratic_traces(self, mode, radius):
        # 6-d rotated quadratic, T=3: period phases 0, 1 and 2 all recur; the
        # small radius makes some fresh draws miss the Gram floor and redraw
        rng = np.random.default_rng(5)
        Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        A = (Q * 10.0 ** rng.uniform(0.0, 2.0, 6)) @ Q.T
        obj = quadratic_objective((A + A.T) / 2.0)
        x0 = rng.standard_normal(6)
        for seed in range(3):
            cfg = ZosahConfig(max_evals=700, seed=seed, m=6, T=3,
                              hess_radius=radius, hessian_mode=mode)
            got = run_zosah(obj, x0, cfg)
            want = reference_trace(obj, x0, cfg)
            assert len(got) > 20
            assert [(r.step, r.cum_evals) for r in got] == [
                (r.step, r.cum_evals) for r in want
            ]
            assert np.array_equal([r.f_value for r in got], [r.f_value for r in want])

    @pytest.mark.parametrize("mode", ["fit", "diag", "fd"])
    def test_rosenbrock_ridge_regime_traces(self, mode, monkeypatch):
        # criterion 1's settings (one pair, eps = 1e-5, T = 20), the regime of
        # the Rosenbrock benchmark: most fits take the ridge path, some of them
        # with every Gram trace below half the floor (no eigvalsh call)
        outcomes = []
        real_fit = optimizer_mod._fit_rows

        def fit(*args):
            rows, outcome = real_fit(*args)
            outcomes.extend(outcome)
            return rows, outcome

        monkeypatch.setattr(optimizer_mod, "_fit_rows", fit)
        obj = rosenbrock_objective()
        x0 = np.array([-1.2, 1.0])
        for seed in range(3):
            cfg = ZosahConfig(max_evals=600, seed=seed, m=2, T=20, eps=1e-5,
                              hessian_mode=mode)
            got = run_zosah(obj, x0, cfg)
            want = reference_trace(obj, x0, cfg)
            assert [(r.step, r.cum_evals) for r in got] == [
                (r.step, r.cum_evals) for r in want
            ]
            assert np.array_equal([r.f_value for r in got], [r.f_value for r in want])
        if mode != "fd":
            assert outcomes.count(RIDGE) > 0.5 * len(outcomes)
            assert outcomes.count(EXACT) > 0


ROSENBROCK_CRITERION_1 = dict(m=2, T=20, eps=1e-5)


def recorded_run(opt, monkeypatch, clear_memo=False):
    """Run ``opt``, recording every step's search direction and its x and
    plan before and after; with ``clear_memo`` the optimizer forgets its
    last direction before every step, so it computes them all."""
    directions = []

    def search(oracle, x, v, f_x):
        directions.append(np.array(v))
        return armijo_search(oracle, x, v, f_x)

    monkeypatch.setattr(optimizer_mod, "armijo_search", search)
    moves = []  # (x before, x after, plan before, plan after) per step
    real_step = opt.step

    def step():
        if clear_memo:
            opt._memo = None
        x, plan = opt.x, opt._idx
        row = real_step()
        moves.append((x, opt.x, plan, opt._idx))
        return row

    opt.step = step
    return opt.run(), directions, moves


def rotated_quadratic(d=6):
    rng = np.random.default_rng(5)
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    A = (Q * 10.0 ** rng.uniform(0.0, 2.0, d)) @ Q.T
    return quadratic_objective((A + A.T) / 2.0), rng.standard_normal(d)


class TestRepeatedDirection:
    """A step whose direction inputs repeat the last step's bits reuses its
    direction, and the run stays what it is when every direction is computed."""

    @pytest.mark.parametrize("mode", ["fit", "diag", "fd"])
    @pytest.mark.parametrize("problem", ["rosenbrock", "quadratic"])
    def test_reuse_changes_no_bit_of_the_run(self, mode, problem, monkeypatch):
        if problem == "rosenbrock":
            obj, x0 = rosenbrock_objective(), np.array([-1.2, 1.0])
            settings = dict(max_evals=1500, **ROSENBROCK_CRITERION_1)
        else:
            obj, x0 = rotated_quadratic()
            settings = dict(max_evals=1500, m=6, T=20)
        repeated = 0
        for seed in range(2):
            cfg = ZosahConfig(seed=seed, hessian_mode=mode, **settings)
            runs, opts = [], []
            for clear_memo in (False, True):
                opt = ZosahOptimizer(CountedOracle(obj), x0, cfg)
                trace, directions, _ = recorded_run(opt, monkeypatch, clear_memo)
                runs.append((
                    [(r.step, r.cum_evals, r.f_value.hex()) for r in trace],
                    opt.oracle.count,
                    [s._replace(repeated=False) for s in opt.stats],
                    [v.tobytes() for v in directions],
                ))
                opts.append(opt)
            assert runs[0] == runs[1]
            assert not any(s.repeated for s in opts[1].stats)
            repeated += sum(s.repeated for s in opts[0].stats)
        if (problem, mode) in {("rosenbrock", "fit"), ("rosenbrock", "fd"), ("quadratic", "fd")}:
            assert repeated > 0

    def test_fd_repeats_at_the_rosenbrock_fixed_point(self, monkeypatch):
        cfg = ZosahConfig(max_evals=1500, seed=0, hessian_mode="fd", **ROSENBROCK_CRITERION_1)
        opt = ZosahOptimizer(CountedOracle(rosenbrock_objective()), np.array([-1.2, 1.0]), cfg)
        _, directions, moves = recorded_run(opt, monkeypatch)
        repeated = [i for i, s in enumerate(opt.stats) if s.repeated]
        assert len(repeated) > 0.5 * len(opt.stats)
        for i in repeated:
            x_before, x_after, plan_before, plan_after = moves[i]
            assert x_after.tobytes() == x_before.tobytes()
            assert plan_after is plan_before
            assert directions[i].tobytes() == directions[i - 1].tobytes()

    @pytest.mark.parametrize("mode", ["fit", "fd"])
    @pytest.mark.parametrize("where", ["everywhere", "off the iterate"])
    def test_new_values_at_a_repeated_point_are_never_reused(self, mode, where, monkeypatch):
        # Rosenbrock, except that a point queried again gets a value 16 ulps
        # higher each time: at every point, or only away from the current
        # iterate, so that f(x) repeats exactly
        seen = {}

        def drifting(x):
            key = x.tobytes()
            n = seen[key] = seen.get(key, -1) + 1
            if where == "off the iterate" and key == opt.x.tobytes():
                n = 0
            return rosenbrock(x) * (1.0 + n * 2.0**-48)

        cfg = ZosahConfig(max_evals=1500, seed=0, hessian_mode=mode, **ROSENBROCK_CRITERION_1)
        opt = ZosahOptimizer(CountedOracle(Objective(drifting, 2)), np.array([-1.2, 1.0]), cfg)
        _, _, moves = recorded_run(opt, monkeypatch)
        assert not any(s.repeated for s in opt.stats)
        # the run does stall: many steps leave x and the plan as they were
        stalled = [m for m in moves if m[0].tobytes() == m[1].tobytes() and m[2] is m[3]]
        assert len(stalled) > 0.25 * len(moves)

    @pytest.mark.parametrize("mode, which", [
        ("fit", "gradients"), ("fit", "sample points"), ("fit", "sample values"),
        ("fd", "gradients"), ("fd", "fd rows"),
    ])
    def test_an_input_that_changes_is_never_reused(self, mode, which, monkeypatch):
        # the n-th step scales one input of its direction by 1 + n * 1e-9,
        # in the run and in its memo-cleared twin alike
        def drifting(fn, drift):
            calls = [0]

            def wrapped(*args):
                calls[0] += 1
                return drift(fn(*args), 1.0 + calls[0] * 1e-9)

            return wrapped

        def scale_window(out, c):
            # in place: the window is a view of the cache, and stays one
            out[0 if which == "sample points" else 1][...] *= c
            return out

        cfg = ZosahConfig(max_evals=1500, seed=0, hessian_mode=mode, **ROSENBROCK_CRITERION_1)
        real_window = EvalCache.window
        runs = []
        for clear_memo in (False, True):
            if which == "gradients":
                monkeypatch.setattr(optimizer_mod, "_gradients", drifting(
                    _gradients, lambda out, c: (out[0] * c, *out[1:])))
            elif which == "fd rows":
                monkeypatch.setattr(optimizer_mod, "_fd_rows", drifting(
                    _fd_rows, lambda out, c: (np.array(out) * c).tolist()))
            else:
                monkeypatch.setattr(EvalCache, "window", drifting(real_window, scale_window))
            opt = ZosahOptimizer(CountedOracle(rosenbrock_objective()), np.array([-1.2, 1.0]), cfg)
            _, directions, moves = recorded_run(opt, monkeypatch, clear_memo)
            runs.append([v.tobytes() for v in directions])
            assert not any(s.repeated for s in opt.stats)
        assert runs[0] == runs[1]
        # the run does stall: many steps leave x and the plan as they were
        stalled = [m for m in moves if m[0].tobytes() == m[1].tobytes() and m[2] is m[3]]
        assert len(stalled) > 0.25 * len(moves)

    def test_keys_compare_bits_not_values(self, monkeypatch):
        # zosah-fd on Rosenbrock with the n-th step's gradient replaced by
        # gradients[n % len(gradients)]: the direction is zero or nan, so x
        # never moves, and f(x) and the fd rows repeat every step
        cfg = ZosahConfig(max_evals=1000, seed=0, hessian_mode="fd", **ROSENBROCK_CRITERION_1)

        def repeated_steps(gradients):
            calls = [0]

            def replaced(*args):
                calls[0] += 1
                _, *rest = _gradients(*args)
                return (np.array([gradients[calls[0] % len(gradients)]]), *rest)

            monkeypatch.setattr(optimizer_mod, "_gradients", replaced)
            opt = ZosahOptimizer(CountedOracle(rosenbrock_objective()), np.array([-1.2, 1.0]), cfg)
            opt.run()
            assert len(opt.stats) > cfg.T  # the run switches plans
            return [s.step for s in opt.stats if s.repeated], len(opt.stats)

        # every step but each plan's first reuses the direction
        for gradients in ([(0.0, 0.0)], [(math.nan, 0.0)]):  # a nan matches its own bits
            steps, n = repeated_steps(gradients)
            assert steps == [k for k in range(n) if k % cfg.T != 0]
        # equal values, other bits
        assert repeated_steps([(0.0, 0.0), (-0.0, 0.0)])[0] == []

    def test_a_plan_switch_never_reuses_a_direction(self):
        # at T = 1 every step switches plans; a stalled zosah-fd step's
        # inputs repeat across them, and 92 of these 214 steps would reuse
        # the last plan's direction if the switch kept it
        cfg = ZosahConfig(max_evals=1500, seed=0, m=2, T=1, eps=1e-5, hessian_mode="fd")
        opt = ZosahOptimizer(CountedOracle(rosenbrock_objective()), np.array([-1.2, 1.0]), cfg)
        opt.run()
        assert len(opt.stats) == 214
        assert not any(s.repeated for s in opt.stats)


class TestTraceProperties:
    """Every algorithm, on small random convex quadratics: the trace never
    increases, it ends at the oracle's count, a rerun repeats it, and each
    step leaves one ``StepStats`` that accounts for its queries."""

    @staticmethod
    def run(alg, objective, x0, budget, seed, m, T):
        """(trace rows, the optimizer) of one run."""
        oracle = CountedOracle(objective)
        if alg in BASELINES:
            opt = BASELINES[alg](oracle, x0, BaselineConfig(max_evals=budget, seed=seed))
        else:
            cfg = ZosahConfig(max_evals=budget, seed=seed, m=m, T=T, hessian_mode=alg)
            opt = ZosahOptimizer(oracle, x0, cfg)
        return opt.run(), opt

    @settings(max_examples=200)
    @given(alg=st.sampled_from(optimizer_mod.HESSIAN_MODES + tuple(BASELINES)),
           d=st.integers(2, 8), T=st.integers(1, 5), budget=st.integers(50, 300),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_monotone_counted_and_repeatable(self, alg, d, T, budget, seed, data):
        m = 2 * data.draw(st.integers(1, d // 2), label="m / 2")
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((d, d))
        A = B @ B.T + 0.1 * np.eye(d)
        objective = quadratic_objective(A, rng.standard_normal(d), float(rng.standard_normal()))
        x0 = rng.standard_normal(d)
        rows, opt = self.run(alg, objective, x0, budget, seed, m, T)
        f = [row.f_value for row in rows]
        assert all(b <= a for a, b in zip(f, f[1:]))
        assert rows[-1].cum_evals == opt.oracle.count
        assert len(opt.stats) == len(rows) - 1
        assert [s.total_evals for s in opt.stats] == [
            b.cum_evals - a.cum_evals for a, b in zip(rows, rows[1:])]
        if alg in BASELINES:
            assert {(s.grad_evals, s.hess_evals, s.pair_hess_evals) for s in opt.stats} == {
                (opt.cfg.q, 0, ())}
        again, _ = self.run(alg, objective, x0, budget, seed, m, T)
        assert [(r.step, r.cum_evals, r.f_value.hex()) for r in again] == [
            (r.step, r.cum_evals, r.f_value.hex()) for r in rows]
