"""History aggregation and the shell-structured graph encoder.

Aggregates are checked against plain per-neighbor python loops, and the
attention path against an inline softmax oracle. Permutation invariance is
asserted bit-exactly, matching the guarantee the canonical neighbor ordering
provides.
"""

import numpy as np
import pytest

from socialstance.encoder import (
    AggregateParams,
    EncoderParams,
    aggregate_history_mean,
    aggregate_history_pe,
    gat_aggregate,
    gat_attention,
    gcn_aggregate,
    h2_layer,
    init_position_weights,
    social_encode,
)
from socialstance.model import ModelParams, TrainConfig
from socialstance.socialgraph import SocialGraph


def random_params(rng, in_dim, h):
    return AggregateParams(
        w_proj=rng.standard_normal((in_dim, h)),
        attn=rng.standard_normal(2 * h),
    )


class TestHistoryAggregation:
    def test_uniform_init(self):
        np.testing.assert_array_equal(init_position_weights(4), np.full(4, 0.25))
        with pytest.raises(ValueError):
            init_position_weights(0)

    def test_weighted_sum_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            lam = int(rng.integers(1, 6))
            n = int(rng.integers(0, lam + 1))
            history = [rng.standard_normal(7) for _ in range(n)]
            weights = rng.standard_normal(lam)
            got = aggregate_history_pe(history, weights, dim=7)
            expected = np.zeros(7)
            for m, vec in enumerate(history):
                expected += weights[m] * vec
            np.testing.assert_allclose(got, expected, atol=1e-15)

    def test_first_slot_only_returns_latest(self):
        history = [np.array([1.0, 2.0]), np.array([10.0, 20.0])]
        weights = np.array([1.0, 0.0, 0.0])
        np.testing.assert_array_equal(
            aggregate_history_pe(history, weights), [1.0, 2.0])

    def test_uniform_weights_equal_mean_on_full_history(self):
        rng = np.random.default_rng(1)
        lam = 3
        history = [rng.standard_normal(5) for _ in range(lam)]
        pe = aggregate_history_pe(history, np.full(lam, 1 / lam))
        mean = aggregate_history_mean(history)
        np.testing.assert_allclose(pe, mean, atol=1e-12)

    def test_empty_history(self):
        np.testing.assert_array_equal(
            aggregate_history_pe([], np.ones(3), dim=4), np.zeros(4))
        np.testing.assert_array_equal(aggregate_history_mean([], dim=4), np.zeros(4))
        with pytest.raises(ValueError):
            aggregate_history_pe([], np.ones(3))

    def test_overlong_history_rejected(self):
        with pytest.raises(ValueError):
            aggregate_history_pe([np.zeros(2)] * 4, np.ones(3))

    def test_mean_uses_actual_count(self):
        history = [np.array([2.0]), np.array([4.0])]
        np.testing.assert_array_equal(aggregate_history_mean(history), [3.0])


class TestGatAttention:
    def test_matches_inline_softmax(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            h, d, n = 4, 5, int(rng.integers(1, 7))
            params = random_params(rng, d, h)
            center = rng.standard_normal(d)
            neighbors = rng.standard_normal((n, d))

            got = gat_attention(center, neighbors, params)

            order = np.lexsort(neighbors.T[::-1]) if n > 1 else np.arange(n)
            canon = neighbors[order]
            scores = []
            pc = center @ params.w_proj
            for row in canon:
                pn = row @ params.w_proj
                s = np.concatenate([pc, pn]) @ params.attn
                scores.append(s if s > 0 else 0.2 * s)
            scores = np.array(scores)
            expected = np.exp(scores - scores.max())
            expected /= expected.sum()
            np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_weights_form_distribution(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            h = int(rng.integers(1, 6))
            d = int(rng.integers(1, 6))
            n = int(rng.integers(1, 9))
            params = random_params(rng, d, h)
            w = gat_attention(rng.standard_normal(d) * 3,
                              rng.standard_normal((n, d)) * 3, params)
            assert np.all(w >= 0)
            assert abs(w.sum() - 1.0) <= 1e-9


class TestAggregates:
    def test_gat_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            h, d, n = 3, 4, int(rng.integers(1, 6))
            params = random_params(rng, d, h)
            center = rng.standard_normal(d)
            neighbors = rng.standard_normal((n, d))
            got = gat_aggregate(center, neighbors, params)
            weights = gat_attention(center, neighbors, params)
            order = np.lexsort(neighbors.T[::-1]) if n > 1 else np.arange(n)
            canon = neighbors[order]
            expected = np.zeros(h)
            for w, row in zip(weights, canon):
                expected += w * (row @ params.w_proj)
            np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_gcn_is_projected_mean(self):
        rng = np.random.default_rng(5)
        w = rng.standard_normal((4, 3))
        neighbors = rng.standard_normal((5, 4))
        got = gcn_aggregate(neighbors, w)
        np.testing.assert_allclose(got, (neighbors @ w).mean(axis=0), atol=1e-12)

    def test_empty_shell_is_zeros(self):
        rng = np.random.default_rng(6)
        params = random_params(rng, 4, 3)
        np.testing.assert_array_equal(
            gat_aggregate(rng.standard_normal(4), [], params), np.zeros(3))
        np.testing.assert_array_equal(
            gcn_aggregate([], params.w_proj), np.zeros(3))

    def test_permutation_invariance_bit_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            h, d, n = 4, 5, int(rng.integers(2, 8))
            params = random_params(rng, d, h)
            center = rng.standard_normal(d)
            neighbors = rng.standard_normal((n, d))
            base_gat = gat_aggregate(center, neighbors, params)
            base_gcn = gcn_aggregate(neighbors, params.w_proj)
            for _ in range(4):
                perm = rng.permutation(n)
                assert np.array_equal(
                    gat_aggregate(center, neighbors[perm], params), base_gat)
                assert np.array_equal(
                    gcn_aggregate(neighbors[perm], params.w_proj), base_gcn)

    def test_single_neighbor_weight_is_one(self):
        rng = np.random.default_rng(8)
        params = random_params(rng, 3, 2)
        w = gat_attention(rng.standard_normal(3), rng.standard_normal((1, 3)), params)
        np.testing.assert_allclose(w, [1.0])


class TestH2Layer:
    def graph(self):
        # path a-b-c-d plus spur b-e
        return SocialGraph([("a", "b"), ("b", "c"), ("c", "d"), ("b", "e")])

    def test_matches_per_node_loop(self):
        rng = np.random.default_rng(9)
        g = self.graph()
        k, h = 2, 3
        states = rng.standard_normal((len(g), 4))
        layer = [random_params(rng, 4, h) for _ in range(k)]
        for kind in ("gat", "gcn"):
            got = h2_layer(g, states, layer, kind=kind)
            assert got.shape == (len(g), k * h)
            for i, node in enumerate(g.node_ids):
                shells = g.shells(node, k)
                for o in range(k):
                    members = sorted(shells[o])
                    rows = states[[g.index(m) for m in members]]
                    if kind == "gat":
                        part = gat_aggregate(states[i], rows, layer[o])
                    else:
                        part = gcn_aggregate(rows, layer[o].w_proj)
                    np.testing.assert_allclose(got[i, o * h:(o + 1) * h], part,
                                               atol=1e-12)

    def test_ego_state_excluded(self):
        # changing only node a's state must not change a's own aggregates
        rng = np.random.default_rng(10)
        g = self.graph()
        layer = [random_params(rng, 4, 3)]
        states = rng.standard_normal((len(g), 4))
        before = h2_layer(g, states, layer, kind="gcn")
        states2 = states.copy()
        states2[g.index("a")] += 100.0
        after = h2_layer(g, states2, layer, kind="gcn")
        ia = g.index("a")
        np.testing.assert_array_equal(before[ia], after[ia])

    def test_unknown_kind(self):
        rng = np.random.default_rng(11)
        g = self.graph()
        with pytest.raises(ValueError):
            h2_layer(g, np.zeros((len(g), 4)), [random_params(rng, 4, 3)], kind="sum")

    def test_attn_only_for_gat(self):
        # The mean aggregate reads only w_proj, so its params may omit attn;
        # attention may not.
        rng = np.random.default_rng(17)
        g = self.graph()
        states = rng.standard_normal((len(g), 4))
        with_attn = random_params(rng, 4, 3)
        without = AggregateParams(w_proj=with_attn.w_proj)
        assert without.attn is None
        np.testing.assert_array_equal(h2_layer(g, states, [without], kind="gcn"),
                                      h2_layer(g, states, [with_attn], kind="gcn"))
        with pytest.raises(ValueError, match="needs attn"):
            h2_layer(g, states, [without], kind="gat")
        with pytest.raises(ValueError, match="needs attn"):
            gat_aggregate(states[0], states[1:], without)


class TestSocialEncode:
    def test_output_width(self):
        rng = np.random.default_rng(12)
        g = SocialGraph([("a", "b"), ("b", "c")])
        for k in (1, 2, 3):
            config = TrainConfig(embed_dim=5, hidden_dim=4, hops=k)
            params = ModelParams(config).encoder_params()
            out = social_encode(g, rng.standard_normal((len(g), 5)), params)
            assert out.shape == (len(g), 4 * (1 + k * k))
            assert params.out_dim == 4 * (1 + k * k)

    def test_layer_zero_is_input_projection(self):
        rng = np.random.default_rng(13)
        g = SocialGraph([("a", "b")])
        params = ModelParams(TrainConfig(embed_dim=3, hidden_dim=2, hops=1)).encoder_params()
        z = rng.standard_normal((2, 3))
        out = social_encode(g, z, params)
        np.testing.assert_allclose(out[:, :2], z @ params.w_in + params.b_in,
                                   atol=1e-12)

    def test_matches_manual_layer_stack(self):
        rng = np.random.default_rng(14)
        g = SocialGraph([("a", "b"), ("b", "c"), ("c", "d")])
        params = ModelParams(TrainConfig(embed_dim=4, hidden_dim=3, hops=2)).encoder_params()
        z = rng.standard_normal((len(g), 4))
        got = social_encode(g, z, params, kind="gat")
        state = z @ params.w_in + params.b_in
        parts = [state]
        for layer in params.layers:
            state = h2_layer(g, state, layer, kind="gat")
            parts.append(state)
        np.testing.assert_array_equal(got, np.concatenate(parts, axis=1))

    def test_shape_mismatch_rejected(self):
        g = SocialGraph([("a", "b")])
        params = ModelParams(TrainConfig(embed_dim=4, hidden_dim=3, hops=1)).encoder_params()
        with pytest.raises(ValueError):
            social_encode(g, np.zeros((2, 9)), params)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            EncoderParams(w_in=np.zeros((3, 2)), b_in=np.zeros(5), layers=[])
        rng = np.random.default_rng(16)
        # layer count must equal per-layer aggregate count
        with pytest.raises(ValueError):
            EncoderParams(
                w_in=np.zeros((3, 2)), b_in=np.zeros(2),
                layers=[[random_params(rng, 2, 2)], [random_params(rng, 2, 2)]])
