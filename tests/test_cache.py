"""Tests for the evaluation window and its reuse schedule."""

import math

import numpy as np
import pytest

import zosah.cache as cache_mod
from zosah.cache import MAX_HESS_RADIUS, EvalCache, PlanMismatchError
from zosah.estimator import GAMMA_FLOOR, quad_monomials
from zosah.subspace import PairProjection


def two_pair_plan():
    return np.array([[0, 1], [2, 3]])


def sample_conditioned(theta, rng, radius):
    """Serial reference of EvalCache.draw_fresh for one pair.

    Draws sets of 3 points on the radius circle around theta one at a time
    until a set's Gram matrix clears the floor or MAX_ATTEMPTS sets are
    spent. Returns the best-conditioned set, whether it missed the floor and
    the number of sets drawn.
    """
    best_points, best_eig = None, -np.inf
    for attempt in range(1, cache_mod.MAX_ATTEMPTS + 1):
        angles = rng.uniform(0.0, 2.0 * np.pi, size=3)
        rel = radius * np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        phi = quad_monomials(rel)
        min_eig = float(np.linalg.eigvalsh(phi.T @ phi)[0])
        if min_eig > best_eig:
            best_points, best_eig = theta + rel, min_eig
        if min_eig >= cache_mod.GAMMA_FLOOR:
            return best_points, False, attempt
    return best_points, True, cache_mod.MAX_ATTEMPTS


def records_for(k, values, base=0.0):
    # (point, value) samples with distinct 2-d points, so provenance is
    # detectable downstream; k only documents the step they belong to
    return [
        (np.array([base + i, base - i], dtype=float), v)
        for i, v in enumerate(values)
    ]


class TestRecordValidation:
    def test_non_finite_value_rejected(self):
        cache = EvalCache()
        pair = PairProjection(0, 1)
        cache.reset(two_pair_plan())
        with pytest.raises(FloatingPointError, match="non-finite"):
            cache.record_probes(0, pair, records_for(0, [1.0, float("nan")]))
        with pytest.raises(FloatingPointError, match="non-finite"):
            cache.record_fresh(0, pair, records_for(0, [1.0, 2.0, float("inf")]))
        with pytest.raises(FloatingPointError, match="non-finite"):
            cache.store_fresh(0, np.zeros((2, 3, 2)), np.full((2, 3), np.inf))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_every_non_finite_kind_rejected(self, bad):
        # the check sums first; an inf beside a -inf, or a nan, must still raise
        cache = EvalCache()
        cache.reset(two_pair_plan())
        message = f"objective returned non-finite value {bad} at a cached sample"
        probes = np.array([[1.0, 2.0], [bad, -bad if np.isinf(bad) else 3.0]])
        with pytest.raises(FloatingPointError, match=f"^{message}$"):
            cache.store_probes(0, np.zeros((2, 2, 2)), probes)
        fresh = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, bad]])
        with pytest.raises(FloatingPointError, match=f"^{message}$"):
            cache.store_fresh(0, np.zeros((2, 3, 2)), fresh)

    def test_finite_values_whose_sum_overflows_are_stored(self):
        cache = EvalCache()
        cache.reset(two_pair_plan())
        big = np.full((2, 2), 1e308)
        cache.store_probes(0, np.zeros((2, 2, 2)), big)
        cache.store_fresh(0, np.zeros((2, 3, 2)), np.full((2, 3), -1e308))
        points, values = cache.window(1, 5)
        assert np.array_equal(values, [[1e308, 1e308, -1e308, -1e308, -1e308]] * 2)


class TestPlanHandling:
    def test_operations_before_reset_fail(self):
        cache = EvalCache()
        pair = PairProjection(0, 1)
        with pytest.raises(PlanMismatchError):
            cache.record_probes(0, pair, records_for(0, [1.0]))
        with pytest.raises(PlanMismatchError):
            cache.gather_samples(1, 5, pair, np.zeros(2), np.random.default_rng(0), 0.05)

    def test_unknown_pair_rejected(self):
        cache = EvalCache()
        cache.reset(two_pair_plan())
        stranger = PairProjection(4, 5)
        with pytest.raises(PlanMismatchError, match=r"\(4, 5\)"):
            cache.record_probes(0, stranger, records_for(0, [1.0]))
        with pytest.raises(PlanMismatchError):
            cache.record_fresh(0, stranger, records_for(0, [1.0]))
        with pytest.raises(PlanMismatchError):
            cache.gather_samples(2, 5, stranger, np.zeros(2), np.random.default_rng(0), 0.05)

    def test_reset_drops_old_records(self):
        cache = EvalCache()
        pair = PairProjection(0, 1)
        cache.reset(two_pair_plan())
        cache.record_probes(0, pair, records_for(0, [1.0, 2.0]))
        cache.record_probes(1, pair, records_for(1, [3.0, 4.0]))

        # new plan reuses the same coordinate pair: records must not survive
        cache.reset(np.array([[0, 1], [4, 5]]))
        got = cache.gather_samples(7, 5, pair, np.zeros(2), np.random.default_rng(0), 0.05)
        assert got.samples == []

        # pairs of the abandoned plan are unknown to the new one
        with pytest.raises(PlanMismatchError):
            cache.gather_samples(7, 5, PairProjection(2, 3), np.zeros(2),
                                 np.random.default_rng(0), 0.05)


class TestEviction:
    def test_records_older_than_two_steps_disappear(self):
        cache = EvalCache()
        pair = PairProjection(0, 1)
        cache.reset(two_pair_plan())
        cache.record_probes(5, pair, records_for(5, [50.0, 51.0]))
        cache.record_probes(8, pair, records_for(8, [80.0, 81.0]))

        got = cache.gather_samples(9, 20, pair, np.zeros(2), np.random.default_rng(0), 0.05)
        values = sorted(v for _, v in got.samples)
        assert values == [80.0, 81.0]

    def test_two_step_window_is_kept(self):
        cache = EvalCache()
        pair = PairProjection(0, 1)
        cache.reset(two_pair_plan())
        for k in range(4):
            cache.record_probes(k, pair, records_for(k, [10.0 * k, 10.0 * k + 1]))

        got = cache.gather_samples(4, 20, pair, np.zeros(2), np.random.default_rng(0), 0.05)
        values = sorted(v for _, v in got.samples)
        assert values == [20.0, 21.0, 30.0, 31.0]

    def test_fresh_store_evicts_too(self):
        cache = EvalCache()
        pair = PairProjection(0, 1)
        cache.reset(two_pair_plan())
        cache.record_fresh(0, pair, records_for(0, [1.0, 2.0, 3.0]))
        cache.record_fresh(5, pair, records_for(5, [7.0, 8.0, 9.0]))
        got = cache.gather_samples(6, 5, pair, np.zeros(2), np.random.default_rng(0), 0.05)
        values = sorted(v for _, v in got.samples)
        assert values == [7.0, 8.0, 9.0]


class TestGatherPhases:
    def test_period_start_requests_three_fresh_points(self):
        cache = EvalCache()
        pair = PairProjection(0, 1)
        cache.reset(two_pair_plan())
        theta = np.array([2.0, -1.0])
        got = cache.gather_samples(0, 5, pair, theta, np.random.default_rng(7), 0.05)
        assert got.samples == []
        assert len(got.fresh) == 3
        assert not got.degraded
        for p in got.fresh:
            assert np.linalg.norm(p - theta) == pytest.approx(0.05, rel=1e-12)

    def test_period_start_points_are_deterministic(self):
        cache = EvalCache()
        pair = PairProjection(0, 1)
        cache.reset(two_pair_plan())
        theta = np.zeros(2)
        a = cache.gather_samples(0, 5, pair, theta, np.random.default_rng(11), 0.05)
        b = cache.gather_samples(0, 5, pair, theta, np.random.default_rng(11), 0.05)
        for pa, pb in zip(a.fresh, b.fresh):
            np.testing.assert_array_equal(pa, pb)

    def test_second_step_reuses_probes_and_fresh(self):
        cache = EvalCache()
        pair = PairProjection(0, 1)
        cache.reset(two_pair_plan())
        fresh = records_for(0, [1.0, 2.0, 3.0], base=10.0)
        probes = records_for(0, [4.0, 5.0], base=20.0)
        cache.record_fresh(0, pair, fresh)
        cache.record_probes(0, pair, probes)

        theta1 = np.array([0.5, -0.25])
        got = cache.gather_samples(1, 5, pair, theta1, np.random.default_rng(0), 0.05)
        assert got.fresh == [] and not got.degraded
        assert len(got.samples) == 5
        # probes first, then fresh; recentring is exact subtraction
        for (s, v), (point, value) in zip(got.samples, probes + fresh):
            np.testing.assert_array_equal(s, point - theta1)
            assert v == value

    def test_mid_period_reuses_two_probe_sets(self):
        cache = EvalCache()
        pair = PairProjection(0, 1)
        cache.reset(two_pair_plan())
        cache.record_fresh(0, pair, records_for(0, [1.0, 2.0, 3.0], base=10.0))
        p0 = records_for(0, [4.0, 5.0], base=20.0)
        p1 = records_for(1, [6.0, 7.0], base=30.0)
        cache.record_probes(0, pair, p0)
        cache.record_probes(1, pair, p1)

        theta2 = np.array([-1.0, 2.0])
        got = cache.gather_samples(2, 5, pair, theta2, np.random.default_rng(0), 0.05)
        assert got.fresh == [] and not got.degraded
        assert len(got.samples) == 4
        for (s, v), (point, value) in zip(got.samples, p0 + p1):
            np.testing.assert_array_equal(s, point - theta2)
            assert v == value
        # fresh samples never reappear after the second step of a period
        assert all(v not in (1.0, 2.0, 3.0) for _, v in got.samples)

    def test_phase_wraps_with_period(self):
        cache = EvalCache()
        pair = PairProjection(0, 1)
        cache.reset(two_pair_plan())
        got = cache.gather_samples(10, 5, pair, np.zeros(2), np.random.default_rng(3), 0.05)
        assert got.samples == [] and len(got.fresh) == 3

    def test_missing_records_yield_empty_sample_set(self):
        cache = EvalCache()
        pair = PairProjection(0, 1)
        cache.reset(two_pair_plan())
        got = cache.gather_samples(1, 5, pair, np.zeros(2), np.random.default_rng(0), 0.05)
        assert got.samples == [] and got.fresh == []

    def test_gather_does_not_consume_records(self):
        cache = EvalCache()
        pair = PairProjection(0, 1)
        cache.reset(two_pair_plan())
        cache.record_probes(0, pair, records_for(0, [4.0, 5.0]))
        cache.record_probes(1, pair, records_for(1, [6.0, 7.0]))
        theta = np.array([0.1, 0.2])
        first = cache.gather_samples(2, 5, pair, theta, np.random.default_rng(0), 0.05)
        second = cache.gather_samples(2, 5, pair, theta, np.random.default_rng(0), 0.05)
        assert len(first.samples) == len(second.samples) == 4
        for (sa, va), (sb, vb) in zip(first.samples, second.samples):
            np.testing.assert_array_equal(sa, sb)
            assert va == vb


class TestConditioning:
    def test_radius_must_be_positive(self):
        cache = EvalCache()
        pair = PairProjection(0, 1)
        cache.reset(two_pair_plan())
        for bad in (0.0, -0.1):
            with pytest.raises(ValueError, match="radius"):
                cache.gather_samples(0, 5, pair, np.zeros(2), np.random.default_rng(0), bad)

    def test_tiny_radius_flags_degraded_but_still_returns_points(self):
        # Gram entries scale like radius^4 = 1e-16, far below the 1e-10 floor
        cache = EvalCache()
        pair = PairProjection(0, 1)
        cache.reset(two_pair_plan())
        theta = np.array([1.0, 1.0])
        got = cache.gather_samples(0, 5, pair, theta, np.random.default_rng(2), 1e-4)
        assert got.degraded
        assert len(got.fresh) == 3
        for p in got.fresh:
            assert np.linalg.norm(p - theta) == pytest.approx(1e-4, rel=1e-12)

    def test_returned_batch_meets_gram_floor(self):
        cache = EvalCache()
        pair = PairProjection(0, 1)
        cache.reset(two_pair_plan())
        theta = np.array([3.0, -2.0])
        for seed in range(25):
            got = cache.gather_samples(0, 5, pair, theta, np.random.default_rng(seed), 0.05)
            assert not got.degraded
            phi = np.vstack([quad_monomials(p - theta) for p in got.fresh])
            assert np.linalg.eigvalsh(phi.T @ phi)[0] >= GAMMA_FLOOR

    def test_single_attempt_cache_degrades_on_bad_geometry(self, monkeypatch):
        monkeypatch.setattr(cache_mod, "MAX_ATTEMPTS", 1)
        cache = EvalCache()
        pair = PairProjection(0, 1)
        cache.reset(two_pair_plan())
        rng = np.random.default_rng(0)
        got = cache.gather_samples(0, 5, pair, np.zeros(2), rng, 1e-4)
        assert got.degraded and len(got.fresh) == 3
        one_draw = np.random.default_rng(0)
        one_draw.uniform(size=3)
        assert rng.bit_generator.state == one_draw.bit_generator.state


class TestBatchedWindow:
    def test_window_slabs_follow_the_schedule(self):
        cache = EvalCache()
        cache.reset(two_pair_plan())
        rng = np.random.default_rng(0)
        fresh_pts, fresh_f = rng.standard_normal((2, 3, 2)), rng.standard_normal((2, 3))
        p0_pts, p0_f = rng.standard_normal((2, 2, 2)), rng.standard_normal((2, 2))
        p1_pts, p1_f = rng.standard_normal((2, 2, 2)), rng.standard_normal((2, 2))
        assert cache.window(0, 5)[0].shape == (2, 0, 2)

        cache.store_fresh(0, fresh_pts, fresh_f)
        cache.store_probes(0, p0_pts, p0_f)
        points, values = cache.window(1, 5)
        np.testing.assert_array_equal(points, np.concatenate([p0_pts, fresh_pts], axis=1))
        np.testing.assert_array_equal(values, np.concatenate([p0_f, fresh_f], axis=1))

        cache.store_probes(1, p1_pts, p1_f)
        points, values = cache.window(2, 5)
        np.testing.assert_array_equal(points, np.concatenate([p0_pts, p1_pts], axis=1))
        np.testing.assert_array_equal(values, np.concatenate([p0_f, p1_f], axis=1))

    def test_rejected_store_leaves_the_window_as_it_was(self):
        # the values are checked before the store moves or refills any slot
        cache = EvalCache()
        cache.reset(two_pair_plan())
        rng = np.random.default_rng(2)
        for k in range(2):
            cache.store_probes(k, rng.standard_normal((2, 2, 2)), rng.standard_normal((2, 2)))
        before = [a.copy() for a in cache.window(2, 5)]
        bad = np.array([[1.0, 2.0], [np.nan, 3.0]])
        for row in (slice(None), 1):
            with pytest.raises(FloatingPointError):
                cache.store_probes(2, np.zeros((2, 2, 2))[row], bad[row], row=row)
            after = cache.window(2, 5)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(after, before))

    def test_one_row_store_marks_the_other_rows_missing(self):
        cache = EvalCache()
        cache.reset(two_pair_plan())
        rng = np.random.default_rng(3)
        p0_pts, p0_f = rng.standard_normal((2, 2, 2)), rng.standard_normal((2, 2))
        cache.store_probes(0, p0_pts, p0_f)
        cache.store_probes(1, p0_pts[1] + 1.0, p0_f[1] + 1.0, row=1)
        _, values = cache.window(2, 5)
        np.testing.assert_array_equal(values[0], np.concatenate([p0_f[0], [np.nan] * 2]))
        np.testing.assert_array_equal(values[1], np.concatenate([p0_f[1], p0_f[1] + 1.0]))

    def test_pair_view_matches_batched_window(self):
        cache = EvalCache()
        plan = two_pair_plan()
        cache.reset(plan)
        rng = np.random.default_rng(1)
        for k in range(3):
            cache.store_probes(k, rng.standard_normal((2, 2, 2)), rng.standard_normal((2, 2)))
        theta = rng.standard_normal((2, 2))
        points, values = cache.window(3, 20)
        for j, pair in enumerate(PairProjection(i1, i2) for i1, i2 in plan.tolist()):
            got = cache.gather_samples(3, 20, pair, theta[j], rng, 0.05)
            for (tb, f), point, value in zip(got.samples, points[j], values[j]):
                np.testing.assert_array_equal(tb, point - theta[j])
                assert f == value

    @pytest.mark.parametrize("floor,radius,redraws", [
        (1e-10, 0.05, False),  # first draws all meet the floor
        (1e-8, 0.05, True),  # some first draws miss it and redraw
        (1e-10, 1e-4, True),  # every draw misses: every pair degraded
    ])
    def test_draw_fresh_consumes_rng_like_per_pair_draws(
        self, monkeypatch, floor, radius, redraws
    ):
        monkeypatch.setattr(cache_mod, "GAMMA_FLOOR", floor)
        cache = EvalCache()
        pairs = tuple(PairProjection(2 * j, 2 * j + 1) for j in range(8))
        cache.reset(np.array([p.pair for p in pairs]))
        theta = np.random.default_rng(9).standard_normal((8, 2))
        extra_draws = 0
        for seed in range(10):
            batched_rng = np.random.default_rng(seed)
            points, degraded = cache.draw_fresh(theta, batched_rng, radius)
            serial_rng = np.random.default_rng(seed)
            pair_rng = np.random.default_rng(seed)
            for j, pair in enumerate(pairs):
                want, want_degraded, _ = sample_conditioned(theta[j], serial_rng, radius)
                assert points[j].tobytes() == want.tobytes()
                assert degraded[j] == want_degraded
                # the per-pair view is draw_fresh on one pair
                got = cache.gather_samples(0, 5, pair, theta[j], pair_rng, radius)
                assert np.array(got.fresh).tobytes() == want.tobytes()
                assert got.degraded == want_degraded
            one_draw_each = np.random.default_rng(seed)
            one_draw_each.uniform(size=3 * len(pairs))
            extra_draws += batched_rng.bit_generator.state != one_draw_each.bit_generator.state
            assert batched_rng.bit_generator.state == serial_rng.bit_generator.state
            assert pair_rng.bit_generator.state == serial_rng.bit_generator.state
        assert (extra_draws > 0) == redraws
        assert degraded.all() == (radius < 1e-3)

    def test_draw_fresh_scans_one_stream_through_misses(self, monkeypatch):
        # about half the sets miss this floor at radius 0.05, so a draw has
        # several misses, outruns its first block and draws more blocks, and
        # with 3 attempts some pairs settle degraded
        monkeypatch.setattr(cache_mod, "GAMMA_FLOOR", 1e-7)
        monkeypatch.setattr(cache_mod, "MAX_ATTEMPTS", 3)
        blocks = []
        real = cache_mod._circle_points
        monkeypatch.setattr(cache_mod, "_circle_points",
                            lambda rng, radius, n: blocks.append(n) or real(rng, radius, n))
        cache = EvalCache()
        theta = np.random.default_rng(4).standard_normal((12, 2))
        multi_block = n_degraded = 0
        for seed in range(20):
            blocks.clear()
            batched_rng = np.random.default_rng(seed)
            points, degraded = cache.draw_fresh(theta, batched_rng, 0.05)
            multi_block += len(blocks) > 1
            n_degraded += int(degraded.sum())
            serial_rng = np.random.default_rng(seed)
            for j in range(len(theta)):
                want, want_degraded, _ = sample_conditioned(theta[j], serial_rng, 0.05)
                assert points[j].tobytes() == want.tobytes()
                assert degraded[j] == want_degraded
            assert batched_rng.bit_generator.state == serial_rng.bit_generator.state
        assert multi_block > 0
        assert 0 < n_degraded < 20 * len(theta)

    @pytest.mark.parametrize("floor,attempts", [(GAMMA_FLOOR, 10), (1e-7, 3)])
    def test_draw_fresh_draws_only_the_sets_it_scans(self, monkeypatch, floor, attempts):
        # the candidate sets drawn (the block sizes) are exactly the sets the
        # pairs take one at a time: no set is drawn and then given back
        monkeypatch.setattr(cache_mod, "GAMMA_FLOOR", floor)
        monkeypatch.setattr(cache_mod, "MAX_ATTEMPTS", attempts)
        blocks = []
        real = cache_mod._circle_points
        monkeypatch.setattr(cache_mod, "_circle_points",
                            lambda rng, radius, n: blocks.append(n) or real(rng, radius, n))
        cache = EvalCache()
        multi_block = 0
        for n_pairs in (1, 4, 10, 12):
            theta = np.random.default_rng(n_pairs).standard_normal((n_pairs, 2))
            for seed in range(15):
                blocks.clear()
                cache.draw_fresh(theta, np.random.default_rng(seed), 0.05)
                serial_rng = np.random.default_rng(seed)
                n_sets = sum(sample_conditioned(t, serial_rng, 0.05)[2] for t in theta)
                assert blocks[0] == n_pairs
                assert sum(blocks) == n_sets
                multi_block += len(blocks) > 1
        assert multi_block > 0

    def test_draw_fresh_rejects_bad_radius(self):
        # nan, inf and a radius whose Gram matrices overflow would give nan
        # eigenvalues, and points silently flagged degraded
        cache = EvalCache()
        cache.reset(two_pair_plan())
        for radius in (0.0, -1.0, math.nan, math.inf, np.nextafter(MAX_HESS_RADIUS, math.inf)):
            with pytest.raises(ValueError, match="radius"):
                cache.draw_fresh(np.zeros((2, 2)), np.random.default_rng(0), radius)
        points, degraded = cache.draw_fresh(np.zeros((2, 2)), np.random.default_rng(0),
                                            MAX_HESS_RADIUS)
        assert np.isfinite(points).all() and not degraded.any()
