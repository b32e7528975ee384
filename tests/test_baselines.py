"""Tests for the randomized-gradient baselines."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zosah.baselines as baselines_mod
from zosah.baselines import (
    BASELINES,
    AdammOptimizer,
    BaselineConfig,
    RspgOptimizer,
    SignSgdOptimizer,
    rge_gradient,
    run_baseline,
)
from zosah.oracle import CountedOracle, Objective, rosenbrock_objective


def affine(c):
    c = np.asarray(c, dtype=float)
    return Objective(lambda x: float(c @ x), c.shape[0])


class TestBaselineConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"q": 0},
            {"eps": 0.0},
            {"eps": -1.0},
            {"eps": float("nan")},
            {"eps": float("inf")},
            {"q": 2.0},
            {"max_evals": 50.5},
            {"max_evals": -1},
            {"seed": 1.5},
            {"seed": -1},
            {"q": True},
            {"max_evals": False},
            {"seed": True},
            {"eps": 1j},  # not a real number
            {"eps": True},
        ],
    )
    def test_invalid_fields(self, kwargs):
        with pytest.raises(ValueError, match=f"^{next(iter(kwargs))} "):  # names the bad field
            BaselineConfig(**{"max_evals": 100, **kwargs})

    def test_defaults(self):
        cfg = BaselineConfig(max_evals=100)
        assert (cfg.q, cfg.eps) == (10, 1e-3)


class TestRgeGradient:
    def test_single_direction_on_affine_is_exact(self):
        c = np.array([3.0, 2.0])
        oracle = CountedOracle(affine(c))
        x = np.zeros(2)
        f_x = oracle(x)
        u = np.random.default_rng(5).standard_normal(2)
        expected = float(u @ c) * u
        got = rge_gradient(oracle, x, 1, 0.25, np.random.default_rng(5), f_x)
        np.testing.assert_allclose(got, expected, rtol=1e-9)

    def test_costs_exactly_q_queries(self):
        oracle = CountedOracle(affine([1.0, -1.0, 0.5]))
        f_x = oracle(np.zeros(3))
        before = oracle.count
        rge_gradient(oracle, np.zeros(3), 7, 1e-3, np.random.default_rng(0), f_x)
        assert oracle.count - before == 7

    def test_constant_function_gives_zero(self):
        oracle = CountedOracle(Objective(lambda x: 4.25, 3))
        f_x = oracle(np.ones(3))
        g = rge_gradient(oracle, np.ones(3), 20, 1e-3, np.random.default_rng(1), f_x)
        np.testing.assert_array_equal(g, np.zeros(3))

    def test_unbiased_on_linear_function(self):
        # E[(u^T g) u] = g; with 10,000 draws the Monte-Carlo error per
        # component is below 0.06, so 0.2 is a comfortable 3-sigma envelope
        c = np.array([3.0, -2.0])
        oracle = CountedOracle(affine(c))
        x = np.zeros(2)
        f_x = oracle(x)
        g = rge_gradient(oracle, x, 10_000, 1e-6, np.random.default_rng(123), f_x)
        assert np.max(np.abs(g - c)) < 0.2


def rge_gradient_loop(oracle, x, q, eps, rng, f_x):
    """The per-direction loop ``rge_gradient`` replaced, kept as its reference."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for _ in range(q):
        u = rng.standard_normal(x.shape[0])
        g += (oracle(x + eps * u) - f_x) / eps * u
    return g / q


class ReplayObjective:
    """Returns the given values in turn (cycling) and records each point."""

    def __init__(self, values):
        self.values = values
        self.points = []

    def __call__(self, x):
        self.points.append(np.array(x))
        return self.values[(len(self.points) - 1) % len(self.values)]


# f-values: m * 10**e, signed zeros and, rarely, infinities and nan
RGE_VALUES = st.one_of(
    st.builds(lambda m, e: m * 10.0 ** e,
              st.floats(-10.0, 10.0, exclude_min=True, exclude_max=True),
              st.integers(-30, 30)),
    st.sampled_from([0.0, -0.0, 1.5]),
    st.sampled_from([math.inf, -math.inf, math.nan]),
)


class TestRgeGradientBlocks:
    """The block estimator has the loop's bits and consumes the generator as it
    did; where the loop averages a non-finite value, it raises instead."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(d=st.integers(1, 29), q=st.integers(1, 11),
           eps=st.floats(1e-8, 1.0), seed=st.integers(0, 2**32 - 1),
           x_kind=st.sampled_from(["zero", "normal", "scaled"]),
           values=st.lists(RGE_VALUES, min_size=1, max_size=11),
           f_x=st.one_of(st.just(0.0), RGE_VALUES))
    def test_bits_and_generator_state_of_the_loop(self, d, q, eps, seed, x_kind, values, f_x):
        x = {"zero": np.zeros(d),
             "normal": np.random.default_rng(seed).standard_normal(d),
             "scaled": np.random.default_rng(seed).standard_normal(d) * 1e150}[x_kind]
        got_obj, want_obj = ReplayObjective(values), ReplayObjective(values)
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        queried = [values[i % len(values)] for i in range(q)]
        with np.errstate(all="ignore"):
            want = rge_gradient_loop(
                CountedOracle(Objective(want_obj, d)), x, q, eps, want_rng, f_x)
            if all(map(math.isfinite, queried)):
                got = rge_gradient(CountedOracle(Objective(got_obj, d)), x, q, eps, got_rng, f_x)
                # bytes equal, except that a nan's sign may differ: numpy's add
                # returns either operand's nan when both are nan, and the
                # loop's in-place add and cumsum choose differently
                nan = np.isnan(want)
                assert (np.isnan(got) == nan).all()
                assert got[~nan].tobytes() == want[~nan].tobytes()
            else:
                # a non-finite value is an error, raised after the q queries
                bad = next(v for v in queried if not math.isfinite(v))
                message = ("^objective returned non-finite value "
                           f"{bad} at a random-direction probe$")
                with pytest.raises(FloatingPointError, match=message):
                    rge_gradient(CountedOracle(Objective(got_obj, d)), x, q, eps, got_rng, f_x)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert len(got_obj.points) == len(want_obj.points) == q
        for p, r in zip(got_obj.points, want_obj.points):
            assert p.tobytes() == r.tobytes()

    def test_constant_zero_objective_gives_positive_zeros(self):
        # each term is +-0.0; summing from g = 0 turns a -0.0 into +0.0
        oracle = CountedOracle(Objective(lambda x: 0.0, 5))
        g = rge_gradient(oracle, np.zeros(5), 3, 1e-3, np.random.default_rng(2), 0.0)
        assert g.tobytes() == np.zeros(5).tobytes()


class TestDirections:
    def test_signsgd_componentwise_sign(self):
        opt = SignSgdOptimizer(
            CountedOracle(affine([1.0, 1.0, 1.0])), np.zeros(3), BaselineConfig(max_evals=10)
        )
        np.testing.assert_array_equal(
            opt._direction(np.array([2.5, -0.3, 0.0])), [1.0, -1.0, 0.0]
        )

    def test_signsgd_scale_invariance(self):
        opt = SignSgdOptimizer(
            CountedOracle(affine([1.0, 1.0])), np.zeros(2), BaselineConfig(max_evals=10)
        )
        g = np.array([0.7, -4.0])
        np.testing.assert_array_equal(opt._direction(g), opt._direction(30.0 * g))

    def test_rspg_direction_is_the_estimate(self):
        opt = RspgOptimizer(
            CountedOracle(affine([1.0, 1.0])), np.zeros(2), BaselineConfig(max_evals=10)
        )
        g = np.array([0.7, -4.0])
        np.testing.assert_array_equal(opt._direction(g), g)

    def test_signsgd_descends_on_l1_cone(self):
        obj = Objective(lambda x: float(np.sum(np.abs(x))), 3)
        cfg = BaselineConfig(max_evals=15, seed=2, q=10, eps=1e-4)
        trace = run_baseline(obj, np.array([0.7, -0.4, 1.2]), cfg, "signsgd")
        assert len(trace) >= 2
        assert trace[1].f_value < trace[0].f_value


class TestAdamm:
    def test_first_step_moment_updates(self):
        c = np.array([2.0, -1.0])
        cfg = BaselineConfig(max_evals=1000, seed=9, q=5)
        oracle = CountedOracle(affine(c))
        opt = AdammOptimizer(oracle, np.array([0.5, 0.5]), cfg)
        opt.step()

        # replay the estimator's exact arithmetic with a twin generator
        rng = np.random.default_rng(9)
        x = np.array([0.5, 0.5])
        f_x = float(c @ x)
        g = np.zeros(2)
        for _ in range(cfg.q):
            u = rng.standard_normal(2)
            g += (float(c @ (x + cfg.eps * u)) - f_x) / cfg.eps * u
        g /= cfg.q

        m_expected = (1.0 - baselines_mod.BETA1) * g
        v_expected = (1.0 - baselines_mod.BETA2) * g * g
        np.testing.assert_allclose(opt.m_avg, m_expected, rtol=1e-12)
        np.testing.assert_allclose(opt.v_avg, v_expected, rtol=1e-12)
        np.testing.assert_allclose(opt.v_hat, v_expected, rtol=1e-12)

    def test_v_hat_never_decreases(self):
        oracle = CountedOracle(rosenbrock_objective())
        opt = AdammOptimizer(
            oracle, np.array([-1.2, 1.0]), BaselineConfig(max_evals=10_000, seed=0)
        )
        previous = opt.v_hat.copy()
        for _ in range(12):
            opt.step()
            assert np.all(opt.v_hat >= previous)
            previous = opt.v_hat.copy()

    def test_moments_advance_even_when_search_rejects(self, monkeypatch):
        monkeypatch.setattr(
            baselines_mod, "armijo_search", lambda oracle, x, v, f_x: (1.0, False, f_x)
        )
        oracle = CountedOracle(affine([1.0, 0.0]))
        x0 = np.array([1.0, 1.0])
        opt = AdammOptimizer(oracle, x0.copy(), BaselineConfig(max_evals=10_000, seed=3, q=4))
        opt.step()
        after_one = opt.m_avg.copy()
        opt.step()
        assert np.any(after_one != 0.0)
        assert np.any(opt.m_avg != after_one)
        np.testing.assert_array_equal(opt.x, x0)

    def test_zero_gradient_freezes_iterate(self):
        oracle = CountedOracle(Objective(lambda x: 2.0, 2))
        cfg = BaselineConfig(max_evals=60, seed=1, q=5)
        opt = AdammOptimizer(oracle, np.array([0.3, -0.7]), cfg)
        trace = opt.run()
        assert all(row.f_value == 2.0 for row in trace)
        np.testing.assert_array_equal(opt.x, [0.3, -0.7])
        np.testing.assert_array_equal(opt.m_avg, np.zeros(2))
        # zero direction skips the line search entirely: 1 value + q probes
        deltas = [b.cum_evals - a.cum_evals for a, b in zip(trace, trace[1:])]
        assert all(delta == 1 + cfg.q for delta in deltas)


class TestRunBaseline:
    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown baseline"):
            run_baseline(rosenbrock_objective(), np.zeros(2), BaselineConfig(max_evals=10), "newton")

    def test_registry_contents(self):
        assert sorted(BASELINES) == ["adamm", "rspg", "signsgd"]
        assert BASELINES["rspg"] is RspgOptimizer
        assert BASELINES["signsgd"] is SignSgdOptimizer
        assert BASELINES["adamm"] is AdammOptimizer

    @pytest.mark.parametrize("method", ["rspg", "signsgd", "adamm"])
    def test_monotone_and_deterministic(self, method):
        cfg = BaselineConfig(max_evals=300, seed=5)
        x0 = np.array([-1.2, 1.0])
        a = run_baseline(rosenbrock_objective(), x0, cfg, method)
        b = run_baseline(rosenbrock_objective(), x0, cfg, method)
        assert a == b
        fs = [row.f_value for row in a]
        assert all(later <= earlier for earlier, later in zip(fs, fs[1:]))
        cums = [row.cum_evals for row in a]
        assert all(later > earlier for earlier, later in zip(cums, cums[1:]))

    def test_zero_budget_returns_initial_row_only(self):
        trace = run_baseline(
            rosenbrock_objective(), np.array([-1.2, 1.0]), BaselineConfig(max_evals=0), "rspg"
        )
        assert len(trace) == 1
        assert trace[0].cum_evals == 1
