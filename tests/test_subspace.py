"""Coordinate selection, pairing and projection."""

import numpy as np
import pytest

from zosah.subspace import PairProjection, make_plan


def reference_plan(d, m, rng):
    """The plan's draws spelled out: m sorted distinct coordinates, then a
    permutation of them cut into consecutive pairs."""
    idx = np.sort(rng.choice(d, size=m, replace=False))
    perm = rng.permutation(idx).tolist()
    return np.array([(perm[j], perm[j + 1]) for j in range(0, m, 2)])


class TestSelectIntermediate:
    @pytest.mark.parametrize("d,m", [(2, 2), (20, 20), (123, 20), (30, 8)])
    def test_draws_match_the_reference(self, d, m):
        for seed in range(200):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            plan, want = make_plan(d, m, rng), reference_plan(d, m, ref_rng)
            assert plan.dtype == want.dtype == np.int64
            assert plan.shape == want.shape == (m // 2, 2)
            assert np.array_equal(plan, want)
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_full_set_when_m_equals_d(self):
        rng = np.random.default_rng(0)
        assert sorted(make_plan(4, 4, rng).ravel().tolist()) == [0, 1, 2, 3]

    def test_distinct_and_in_range(self):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            idx = make_plan(123, 20, rng).ravel().tolist()
            assert len(idx) == 20
            assert len(set(idx)) == 20
            assert min(idx) >= 0 and max(idx) < 123

    def test_selection_uniformity(self):
        # d=6, m=2: every index should appear with frequency 1/3
        counts = np.zeros(6)
        n_draws = 10000
        for seed in range(n_draws):
            rng = np.random.default_rng(seed)
            counts[make_plan(6, 2, rng).ravel()] += 1
        freqs = counts / n_draws
        assert np.all(np.abs(freqs - 1.0 / 3.0) <= 0.02)


class TestPairSubspaces:
    def test_single_pair(self):
        rng = np.random.default_rng(1)
        plan = make_plan(10, 2, rng)
        assert plan.shape == (1, 2)
        assert plan[0, 0] != plan[0, 1]

    def test_partition_and_all_matchings_reached(self):
        seen = set()
        for seed in range(200):
            rng = np.random.default_rng(seed)
            pairs = make_plan(4, 4, rng).tolist()
            assert sorted(i for pair in pairs for i in pair) == [0, 1, 2, 3]
            seen.add(frozenset(frozenset(pair) for pair in pairs))
        matchings = {
            frozenset({frozenset({0, 1}), frozenset({2, 3})}),
            frozenset({frozenset({0, 2}), frozenset({1, 3})}),
            frozenset({frozenset({0, 3}), frozenset({1, 2})}),
        }
        assert seen == matchings

    def test_make_plan_invariants(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            plan = make_plan(30, 8, rng)
            assert plan.shape == (4, 2)
            covered = plan.ravel().tolist()
            assert len(set(covered)) == 8
            assert min(covered) >= 0 and max(covered) < 30

    def test_accumulated_update_assembly(self):
        # the step adds every pair's direction into one update as v[idx] += w
        rng = np.random.default_rng(4)
        plan = make_plan(12, 6, rng)
        directions = rng.standard_normal((3, 2))
        v = np.zeros(12)
        v[plan] += directions
        support = set(np.nonzero(v)[0].tolist())
        assert support <= set(plan.ravel().tolist())
        for (i1, i2), w in zip(plan.tolist(), directions):
            np.testing.assert_array_equal(PairProjection(i1, i2).project(v), w)


class TestPairProjection:
    def test_project_extracts_coordinates(self):
        p = PairProjection(0, 2)
        np.testing.assert_array_equal(
            p.project(np.array([7.0, 8.0, 9.0])), [7.0, 9.0])

    def test_project_order_follows_pair(self):
        p = PairProjection(1, 0)
        np.testing.assert_array_equal(p.project(np.array([3.0, 4.0])), [4.0, 3.0])
