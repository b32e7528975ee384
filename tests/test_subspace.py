"""Coordinate selection, pairing, projection, and lifting."""

import numpy as np
import pytest

from zosah.subspace import PairProjection, SubspacePlan, make_plan


class TestSelectIntermediate:
    def test_full_set_when_m_equals_d(self):
        rng = np.random.default_rng(0)
        assert make_plan(4, 4, rng).indices == (0, 1, 2, 3)

    def test_distinct_and_in_range(self):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            idx = make_plan(123, 20, rng).indices
            assert len(idx) == 20
            assert len(set(idx)) == 20
            assert list(idx) == sorted(idx)
            assert min(idx) >= 0 and max(idx) < 123

    def test_parameter_errors(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            make_plan(10, 3, rng)  # odd
        with pytest.raises(ValueError):
            make_plan(3, 4, rng)  # m > d
        with pytest.raises(ValueError):
            make_plan(10, 0, rng)  # m < 2

    def test_selection_uniformity(self):
        # d=6, m=2: every index should appear with frequency 1/3
        counts = np.zeros(6)
        n_draws = 10000
        for seed in range(n_draws):
            rng = np.random.default_rng(seed)
            counts[list(make_plan(6, 2, rng).indices)] += 1
        freqs = counts / n_draws
        assert np.all(np.abs(freqs - 1.0 / 3.0) <= 0.02)


class TestPairSubspaces:
    def test_single_pair(self):
        rng = np.random.default_rng(1)
        plan = make_plan(10, 2, rng)
        assert len(plan.pairs) == 1
        assert set(plan.pairs[0].pair) == set(plan.indices)

    def test_partition_and_all_matchings_reached(self):
        seen = set()
        for seed in range(200):
            rng = np.random.default_rng(seed)
            pairs = make_plan(4, 4, rng).pairs
            flat = [i for p in pairs for i in p.pair]
            assert sorted(flat) == [0, 1, 2, 3]
            seen.add(frozenset(frozenset(p.pair) for p in pairs))
        matchings = {
            frozenset({frozenset({0, 1}), frozenset({2, 3})}),
            frozenset({frozenset({0, 2}), frozenset({1, 3})}),
            frozenset({frozenset({0, 3}), frozenset({1, 2})}),
        }
        assert seen == matchings

    def test_odd_input_rejected(self):
        with pytest.raises(ValueError, match="m must be even"):
            make_plan(3, 3, np.random.default_rng(0))


class TestPairProjection:
    def test_project_extracts_coordinates(self):
        p = PairProjection(0, 2)
        np.testing.assert_array_equal(
            p.project(np.array([7.0, 8.0, 9.0])), [7.0, 9.0])

    def test_project_order_follows_pair(self):
        p = PairProjection(1, 0)
        np.testing.assert_array_equal(p.project(np.array([3.0, 4.0])), [4.0, 3.0])

    def test_lift_embeds_displacement(self):
        p = PairProjection(0, 2)
        out = p.lift(np.array([1.0, -1.0]), np.zeros(3))
        np.testing.assert_array_equal(out, [1.0, 0.0, -1.0])

    def test_lift_zero_is_identity_and_copies(self):
        p = PairProjection(0, 2)
        base = np.array([1.0, 2.0, 3.0])
        out = p.lift(np.zeros(2), base)
        np.testing.assert_array_equal(out, base)
        assert out is not base

    def test_project_of_lift_adds_exactly(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            p = PairProjection(1, 3)
            x = rng.standard_normal(5)
            delta = rng.standard_normal(2)
            np.testing.assert_array_equal(
                p.project(p.lift(delta, x)), p.project(x) + delta)

    def test_disjoint_lifts_commute(self):
        rng = np.random.default_rng(3)
        p1 = PairProjection(0, 2)
        p2 = PairProjection(1, 4)
        for _ in range(100):
            x = rng.standard_normal(5)
            d1 = rng.standard_normal(2)
            d2 = rng.standard_normal(2)
            np.testing.assert_array_equal(
                p1.lift(d1, p2.lift(d2, x)), p2.lift(d2, p1.lift(d1, x)))


class TestSubspacePlan:
    def test_make_plan_invariants(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            plan = make_plan(30, 8, rng, step=5)
            assert plan.dim_full == 30
            assert len(plan.indices) == 8
            assert plan.created_at_step == 5
            assert len(set(plan.indices)) == 8
            covered = sorted(i for p in plan.pairs for i in p.pair)
            assert covered == sorted(plan.indices)

    def test_validation_rejects_bad_plans(self):
        p01 = PairProjection(0, 1)
        with pytest.raises(ValueError):
            SubspacePlan(4, (0, 1, 2), (p01,))  # odd index count
        with pytest.raises(ValueError):
            SubspacePlan(4, (0, 0), (PairProjection(0, 0),))  # duplicates
        with pytest.raises(ValueError):
            SubspacePlan(2, (0, 5), (PairProjection(0, 5),))  # out of range
        with pytest.raises(ValueError):
            SubspacePlan(4, (0, 1, 2, 3), (p01, PairProjection(2, 0)))

    def test_accumulated_update_assembly(self):
        rng = np.random.default_rng(4)
        plan = make_plan(12, 6, rng)
        directions = {p: rng.standard_normal(2) for p in plan.pairs}
        v = np.zeros(12)
        for p, w in directions.items():
            v = p.lift(w, v)
        support = set(np.nonzero(v)[0].tolist())
        assert support <= set(plan.indices)
        for p, w in directions.items():
            np.testing.assert_array_equal(p.project(v), w)
