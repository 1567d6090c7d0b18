"""Stance model: config, parameters, forward/gradients, optimizer, training.

The compiled training path is checked against the public-operation
composition in reference_probabilities, gradients against central finite
differences, and the optimizer against a hand-stepped scalar oracle.
"""

import inspect
import json
import math
import re
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
from collections import deque
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import hub_world

from socialstance import autograd as ag
from socialstance import model as model_module
from socialstance.autograd import DENSE_BANDS, Shell, Tensor, _Block, dense_blocks
from socialstance.corpus import Corpus, Post, StanceLabel, recent_posts
from socialstance.embed import HashedNgramEncoder, PrecomputedStore, precompute
from socialstance.errors import InputDataError, TrainingDivergedError
from socialstance.encoder import (AGGREGATOR_KINDS, LEAKY_SLOPE, AggregateParams,
                                  gat_aggregate)
from socialstance.model import (
    HISTORY_KINDS,
    AdamState,
    _batch_logits,
    _compile_balls,
    _compile_samples,
    _gradients_from_samples,
    _make_tensors,
    ModelParams,
    TrainConfig,
    adam_step,
    classify,
    classify_text_baseline,
    eligible_training_posts,
    evaluate,
    forward,
    forward_author,
    gradients,
    load_checkpoint,
    loss,
    reference_probabilities,
    save_checkpoint,
    save_metric_log,
    social_code_dim,
    split_dataset,
    sweep,
    train,
    train_text_baseline,
)
from socialstance.socialgraph import (SocialGraph, exact_order_neighborhood,
                                      induced_subgraph, khop_neighborhood)
from socialstance.synthetic import heterophily_benchmark


def toy_world(n_users=8, history=2, embed_dim=8, seed=0):
    """Ring of users, each with `history` older posts and one labelled post."""
    rng = np.random.default_rng(seed)
    users = [f"u{i}" for i in range(n_users)]
    edges = [(users[i], users[(i + 1) % n_users]) for i in range(n_users)]
    graph = SocialGraph(edges)
    posts = []
    for i, user in enumerate(users):
        for m in range(history):
            posts.append(Post(id=f"{user}h{m}", author_id=user, timestamp=10 + m,
                              text=f"history {user} {m} keeps typing along"))
        label = StanceLabel(i % 4)
        posts.append(Post(id=f"{user}t", author_id=user, timestamp=100,
                          text=f"target post by {user} number {i}", label=label))
    corpus = Corpus(posts)
    store = precompute(corpus, HashedNgramEncoder(dim=embed_dim))
    return corpus, graph, store


# Module limits that force each layout of ag.shell_aggregate: no block fits
# in zero cells, and every block is dense enough at density zero.
FORCED_LAYOUTS = {"scatter": ("DENSE_MAX_CELLS", 0), "dense": ("DENSE_MIN_DENSITY", 0.0)}


@contextmanager
def forced_layout(monkeypatch, layout):
    """Run the block with every shell aggregate on `layout`, and check that
    the op chose it at least once and never the other."""
    chosen = []
    choose = ag.dense_layout

    def spy(*shape):
        chosen.append(choose(*shape))
        return chosen[-1]

    with monkeypatch.context() as patch:
        patch.setattr(ag, *FORCED_LAYOUTS[layout])
        patch.setattr(ag, "dense_layout", spy)
        yield
    assert chosen and set(chosen) == {layout == "dense"}, layout


def small_config(**kw):
    base = dict(epochs=2, learning_rate=1e-3, weight_decay=1e-4, hops=2,
                history_len=2, embed_dim=8, hidden_dim=4, batch_size=4, seed=0,
                split=(0.5, 0.25, 0.25))
    base.update(kw)
    return TrainConfig(**base)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.epochs == 400
        assert cfg.learning_rate == 1e-5
        assert cfg.weight_decay == 5e-4
        assert cfg.hops == 2
        assert cfg.history_len == 3
        assert cfg.embed_dim == 64
        assert cfg.hidden_dim == 64
        assert cfg.batch_size == 32
        assert cfg.split == (0.8, 0.1, 0.1)
        assert cfg.aggregator == "gat"
        assert cfg.history == "pe"

    def test_round_trip(self):
        cfg = small_config(aggregator="gcn", history="mean")
        again = TrainConfig.from_dict(cfg.as_dict())
        assert again == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(InputDataError, match="unknown config key"):
            TrainConfig.from_dict({"epochs": 1, "warmup": 5})

    def test_validation(self):
        for bad in (dict(epochs=0), dict(learning_rate=0.0), dict(weight_decay=-1.0),
                    dict(hops=0), dict(aggregator="mean"), dict(history="latest"),
                    dict(split=(0.5, 0.5, 0.5))):
            with pytest.raises(InputDataError):
                small_config(**bad)

    @pytest.mark.parametrize("bad", [
        dict(learning_rate=float("nan")), dict(learning_rate=float("inf")),
        dict(weight_decay=float("nan")), dict(weight_decay=float("inf")),
        dict(split=(float("nan"), 0.5, 0.5)), dict(split=(0.5, float("inf"), 0.5)),
    ])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InputDataError):
            small_config(**bad)

    def test_bool_count_rejected(self):
        # A checkpoint saved with hops=True would not load back.
        with pytest.raises(InputDataError, match="^config key 'hops': expected int, got True$"):
            small_config(hops=True)

    def test_fractional_count_rejected(self):
        # train cannot run a fractional number of epochs.
        with pytest.raises(InputDataError,
                           match="^config key 'epochs': expected int, got 1.0$"):
            small_config(epochs=1.0)

    @pytest.mark.parametrize("numpy_value", [dict(epochs=np.int64(1)),
                                             dict(learning_rate=np.float32(1e-3))])
    def test_numpy_values_save_and_load(self, numpy_value, tmp_path):
        # A numpy scalar in the config would not serialize to JSON.
        config = small_config(**numpy_value)
        [(key, value)] = numpy_value.items()
        assert getattr(config, key) == value
        assert type(getattr(config, key)) is type(value.item())
        save_checkpoint(ModelParams(config), tmp_path / "model.npz")
        assert load_checkpoint(tmp_path / "model.npz").config == config


class TestModelParams:
    def test_tensor_names_and_shapes(self):
        cfg = small_config(hops=2, hidden_dim=4, embed_dim=8, history_len=3)
        params = ModelParams(cfg)
        t = params.tensors
        assert t["position_weights"].shape == (3,)
        np.testing.assert_array_equal(t["position_weights"], np.full(3, 1 / 3))
        assert t["input.w"].shape == (8, 4)
        assert t["layer1.order1.w"].shape == (4, 4)
        assert t["layer1.order2.a"].shape == (8,)
        # layer 2 consumes layer 1's concatenated k*h output
        assert t["layer2.order1.w"].shape == (8, 4)
        assert t["head.w"].shape == (social_code_dim(cfg) + 8, 4)
        assert t["head.b"].shape == (4,)
        assert social_code_dim(cfg) == 4 * (1 + 4)

    def test_mean_history_has_no_position_weights(self):
        params = ModelParams(small_config(history="mean"))
        assert "position_weights" not in params.tensors

    def test_copy_is_independent(self):
        params = ModelParams(small_config())
        dup = params.copy()
        dup.tensors["head.b"][0] = 99.0
        assert params.tensors["head.b"][0] == 0.0

    def test_seed_controls_init(self):
        a = ModelParams(small_config(seed=1))
        b = ModelParams(small_config(seed=1))
        c = ModelParams(small_config(seed=2))
        np.testing.assert_array_equal(a.tensors["head.w"], b.tensors["head.w"])
        assert not np.array_equal(a.tensors["head.w"], c.tensors["head.w"])

    def test_attention_vectors_only_under_gat(self):
        # GCN pools by the mean, so it has no attention to parameterise.
        gat = ModelParams(TrainConfig())
        gcn = ModelParams(TrainConfig(aggregator="gcn"))
        assert set(gat.tensors) - set(gcn.tensors) == {
            f"layer{layer}.order{order}.a" for layer in (1, 2) for order in (1, 2)}
        assert set(gcn.tensors) < set(gat.tensors)
        assert sum(arr.size for arr in gat.tensors.values()) == 30_791
        assert sum(arr.size for arr in gcn.tensors.values()) == 30_279


class TestForward:
    @pytest.mark.parametrize("aggregator", ["gat", "gcn"])
    @pytest.mark.parametrize("history", ["pe", "mean"])
    def test_matches_reference_composition(self, aggregator, history, monkeypatch):
        corpus, graph, store = toy_world()
        cfg = small_config(aggregator=aggregator, history=history)
        params = ModelParams(cfg)
        for layout in FORCED_LAYOUTS:
            for user in ("u0", "u3", "u7"):
                post = corpus.by_id[f"{user}t"]
                with forced_layout(monkeypatch, layout):
                    got = forward(post, graph, corpus, store, params, cfg)
                ref = reference_probabilities(post, graph, corpus, store, params, cfg)
                np.testing.assert_allclose(got.probabilities, ref, atol=1e-10,
                                           err_msg=f"{layout} {user}")

    def test_probabilities_normalized(self):
        corpus, graph, store = toy_world()
        cfg = small_config()
        params = ModelParams(cfg)
        pred = forward(corpus.by_id["u0t"], graph, corpus, store, params, cfg)
        assert pred.probabilities.shape == (4,)
        assert np.all(pred.probabilities > 0)
        np.testing.assert_allclose(pred.probabilities.sum(), 1.0, atol=1e-12)

    def test_classify_is_argmax(self):
        corpus, graph, store = toy_world()
        cfg = small_config()
        params = ModelParams(cfg)
        post = corpus.by_id["u2t"]
        pred = forward(post, graph, corpus, store, params, cfg)
        assert classify(post, graph, corpus, store, params, cfg) == StanceLabel(
            int(np.argmax(pred.probabilities)))

    @pytest.mark.parametrize("aggregator", ["gat", "gcn"])
    def test_forward_author_matches_forward_post_by_post(self, aggregator):
        corpus, graph, store = toy_world(history=3)
        cfg = small_config(aggregator=aggregator)
        params = ModelParams(cfg)
        for user in ("u0", "u5"):
            posts = corpus.posts_by(user)[::-1]
            got = forward_author(posts, graph, corpus, store, params, cfg)
            assert [p.probabilities.tobytes() for p in got] == \
                [forward(p, graph, corpus, store, params, cfg).probabilities.tobytes()
                 for p in posts]

    def test_forward_author_takes_one_author(self):
        corpus, graph, store = toy_world()
        cfg = small_config()
        params = ModelParams(cfg)
        assert list(forward_author([], graph, corpus, store, params, cfg)) == []
        mixed = [corpus.by_id["u0t"], corpus.by_id["u1t"]]
        with pytest.raises(ValueError, match="one author"):
            next(forward_author(mixed, graph, corpus, store, params, cfg))

    def test_no_history_user_still_classifies(self):
        # a user whose only post is the target: history is empty
        graph = SocialGraph([("a", "b")])
        posts = [
            Post(id="at", author_id="a", timestamp=50, text="lone post",
                 label=StanceLabel.PO),
            Post(id="bt", author_id="b", timestamp=50, text="other post",
                 label=StanceLabel.NG),
        ]
        corpus = Corpus(posts)
        store = precompute(corpus, HashedNgramEncoder(dim=8))
        cfg = small_config(hops=1)
        params = ModelParams(cfg)
        pred = forward(corpus.by_id["at"], graph, corpus, store, params, cfg)
        np.testing.assert_allclose(pred.probabilities.sum(), 1.0, atol=1e-12)

    def test_provider_dim_checked_on_every_engine_path(self):
        corpus, graph, store = toy_world(embed_dim=8)
        cfg = small_config(embed_dim=16)
        params = ModelParams(cfg)
        batch = corpus.labelled()[:2]
        calls = [
            lambda: forward(batch[0], graph, corpus, store, params, cfg),
            lambda: loss(batch, graph, corpus, store, params, cfg),
            lambda: gradients(batch, graph, corpus, store, params, cfg),
            lambda: evaluate(batch, graph, corpus, store, params, cfg),
            lambda: train(corpus, graph, store, cfg),
        ]
        for call in calls:
            with pytest.raises(InputDataError, match="provider dim 8"):
                call()


class TestGradients:
    # hops=3 runs an inner shell that layers 1 and 2 both aggregate.
    @pytest.mark.parametrize("hops", [1, 2, 3])
    @pytest.mark.parametrize("aggregator", ["gat", "gcn"])
    def test_matches_finite_differences(self, aggregator, hops, monkeypatch):
        corpus, graph, store = toy_world(n_users=6)
        cfg = small_config(hops=hops, hidden_dim=3, aggregator=aggregator)
        params = ModelParams(cfg)
        batch = [corpus.by_id[f"u{i}t"] for i in range(4)]
        for layout in FORCED_LAYOUTS:
            with forced_layout(monkeypatch, layout):
                grads = gradients(batch, graph, corpus, store, params, cfg)
                assert set(grads) == set(params.tensors)
                step = 1e-5
                rng = np.random.default_rng(0)
                for name, arr in params.tensors.items():
                    # probe a few coordinates per tensor
                    flat = arr.reshape(-1)
                    for _ in range(min(3, flat.size)):
                        i = int(rng.integers(flat.size))
                        orig = flat[i]
                        flat[i] = orig + step
                        hi = loss(batch, graph, corpus, store, params, cfg)
                        flat[i] = orig - step
                        lo = loss(batch, graph, corpus, store, params, cfg)
                        flat[i] = orig
                        fd = (hi - lo) / (2 * step)
                        got = grads[name].reshape(-1)[i]
                        assert got == pytest.approx(fd, abs=3e-6), f"{layout} {name}[{i}]"

    @pytest.mark.parametrize("aggregator", ["gat", "gcn"])
    def test_shell_empty_in_every_sample(self, aggregator, monkeypatch):
        # Graph a-b at hops 2: every order-2 shell is empty, so its
        # parameters get exact zero gradients and forward still matches
        # the reference route.
        graph = SocialGraph([("a", "b")])
        posts = [Post(id=f"{user}h", author_id=user, timestamp=10,
                      text=f"earlier words from {user}") for user in "ab"]
        posts += [Post(id=f"{user}t", author_id=user, timestamp=50,
                       text=f"target post by {user}", label=label)
                  for user, label in (("a", StanceLabel.PO), ("b", StanceLabel.NG))]
        corpus = Corpus(posts)
        store = precompute(corpus, HashedNgramEncoder(dim=8))
        cfg = small_config(hops=2, aggregator=aggregator)
        params = ModelParams(cfg)
        batch = corpus.labelled()
        order2 = [name for name in params.tensors if ".order2." in name]
        # .w of both layers, plus their attention vectors .a under GAT
        assert len(order2) == (4 if aggregator == "gat" else 2)
        for layout in FORCED_LAYOUTS:
            with forced_layout(monkeypatch, layout):
                grads = gradients(batch, graph, corpus, store, params, cfg)
                got = [forward(post, graph, corpus, store, params, cfg).probabilities
                       for post in batch]
            for name in order2:
                assert np.all(grads[name] == 0), f"{layout} {name}"
            for post, probs in zip(batch, got):
                ref = reference_probabilities(post, graph, corpus, store, params, cfg)
                np.testing.assert_allclose(probs, ref, atol=1e-10,
                                           err_msg=f"{layout} {post.id}")

    def test_loss_is_mean_of_sample_losses(self):
        corpus, graph, store = toy_world()
        cfg = small_config()
        params = ModelParams(cfg)
        posts = [corpus.by_id["u0t"], corpus.by_id["u1t"]]
        total = loss(posts, graph, corpus, store, params, cfg)
        parts = [loss([p], graph, corpus, store, params, cfg) for p in posts]
        assert total == pytest.approx(np.mean(parts), abs=1e-12)

    def test_unlabelled_post_rejected(self):
        corpus, graph, store = toy_world()
        cfg = small_config()
        params = ModelParams(cfg)
        bare = Post(id="u0h0", author_id="u0", timestamp=10, text="x")
        with pytest.raises(ValueError):
            loss([corpus.by_id["u0h0"]], graph, corpus, store, params, cfg)
        del bare


def composed_aggregate(projected, attn, shell, aggregator):
    """One shell aggregate as a chain of autograd ops, as the engine built it
    before ag.shell_aggregate fused them: the oracle for that op."""
    h = projected.data.shape[1]
    centers, neighbors, segments = shell.centers, shell.neighbors, shell.segments
    if aggregator == "gcn":
        sums = ag.segment_sum(projected[neighbors], segments, shell.size)
        counts = np.bincount(segments, minlength=shell.size)
        return sums * Tensor(1.0 / np.maximum(counts, 1)[:, None])
    center_scores = projected @ attn[:h]
    neighbor_scores = projected @ attn[h:]
    scores = ag.leaky_relu(center_scores[centers] + neighbor_scores[neighbors],
                           LEAKY_SLOPE)
    shift = np.full(shell.size, -np.inf)
    np.maximum.at(shift, segments, scores.data)
    expd = ag.exp(scores - Tensor(shift[segments]))
    denom = ag.segment_sum(expd, segments, shell.size)
    weights = expd / denom[segments]
    messages = weights.reshape((centers.size, 1)) * projected[neighbors]
    return ag.segment_sum(messages, segments, shell.size)


def oracle_shells():
    """(name, shell) cases over 7 rows: no edges; rows without edges and
    segments of one edge; segments that are not the centers (the author
    rows of a last layer); and random edges with repeated neighbours."""
    rng = np.random.default_rng(3)
    centers = np.sort(rng.integers(0, 7, 40))
    cases = {
        "empty": ([], [], [], 7),
        "single edges and bare rows": ([0, 2, 2, 4], [1, 0, 3, 3], [0, 2, 2, 4], 7),
        "author rows": ([1, 1, 3, 3, 3], [0, 2, 0, 2, 6], [0, 0, 1, 1, 1], 2),
        "random": (centers, rng.integers(0, 7, 40), centers, 7),
    }
    for name, (c, nb, seg, size) in cases.items():
        c, nb, seg = (np.asarray(a, dtype=np.intp) for a in (c, nb, seg))
        yield name, Shell(c, nb, seg, size)


class TestShellAggregate:
    @pytest.mark.parametrize("aggregator", ["gat", "gcn"])
    def test_matches_composed_ops(self, aggregator):
        h = 3
        rng = np.random.default_rng(0)
        x0, attn0 = rng.standard_normal((7, h)), rng.standard_normal(2 * h)
        for name, shell in oracle_shells():
            outs, grads = [], []
            for route in ("fused", "composed"):
                x, attn = Tensor(x0, requires_grad=True), Tensor(attn0, requires_grad=True)
                if route == "composed":
                    out = composed_aggregate(x, attn, shell, aggregator)
                elif aggregator == "gcn":
                    out = ag.shell_aggregate(x, shell)
                else:
                    out = ag.shell_aggregate(x, shell, attn)
                weights = np.arange(1.0, out.data.size + 1).reshape(out.data.shape)
                (out * Tensor(np.sin(weights))).sum().backward()
                outs.append(out.data)
                grads.append([np.zeros_like(t.data) if t.grad is None else t.grad
                              for t in (x, attn)])
            assert np.array_equal(outs[0], outs[1]), name
            for fused, composed in zip(*grads):
                np.testing.assert_allclose(fused, composed, rtol=0, atol=1e-12,
                                           err_msg=name)

    def test_gat_matches_encoder_oracle(self):
        # The op takes no slope: it scores with encoder.LEAKY_SLOPE, as the
        # straight-line gat_aggregate does. Some raw scores are negative.
        rng = np.random.default_rng(4)
        states, w, attn = (rng.standard_normal(shape) for shape in ((6, 3), (3, 2), 4))
        centre = np.zeros(5, dtype=np.intp)
        shell = Shell(centre, np.arange(1, 6), centre, 1)
        out = ag.shell_aggregate(Tensor(states @ w), shell, Tensor(attn)).data[0]
        want = gat_aggregate(states[0], states[1:], AggregateParams(w_proj=w, attn=attn))
        np.testing.assert_allclose(out, want, rtol=0, atol=1e-12)


def padded_shells():
    """(name, shell) cases of a two-sample batch, 5 and 3 rows padded to
    width 5: inner shells (one output row per row) with edges in both
    samples and with none, and a last layer's author rows (author 1 of
    sample 0, none of sample 1's rows has an edge)."""
    sample_of = np.array([0, 0, 0, 0, 0, 1, 1, 1])
    local = np.array([0, 1, 2, 3, 4, 0, 1, 2])
    pad = sample_of * 5 + local
    both = ([0, 0, 1, 3, 3, 4, 5, 6, 6, 7], [1, 3, 0, 4, 4, 2, 7, 5, 7, 6])
    cases = {
        "padded batch": (*both, both[0], 8),
        "padded batch, empty shell": ([], [], [], 8),
    }
    for name, (c, nb, seg, size) in cases.items():
        c, nb, seg = (np.asarray(a, dtype=np.intp) for a in (c, nb, seg))
        yield name, Shell(c, nb, seg, size, _Block.padded((2, 5, 5), pad, pad))
    c, nb, seg = (np.array(a, dtype=np.intp) for a in ([1, 1, 1], [0, 2, 2], [0, 0, 0]))
    yield "padded author rows", Shell(c, nb, seg, 2,
                                      _Block.padded((2, 1, 5), pad, np.arange(2)))


def dense_shells():
    """Every oracle_shells() case as one sample of 7 rows, then the
    padded two-sample cases."""
    for name, shell in oracle_shells():
        yield name, shell._replace(block=_Block.padded((1, shell.size, 7), np.arange(7),
                                                       np.arange(shell.size)))
    yield from padded_shells()


class TestDenseLayout:
    """The dense layout against the composed chain, within 1e-12: BLAS
    sums the block product in its own order."""

    @pytest.mark.parametrize("aggregator", ["gat", "gcn"])
    def test_matches_composed_ops(self, aggregator, monkeypatch):
        h = 3
        rng = np.random.default_rng(1)
        x0, attn0 = rng.standard_normal((8, h)), rng.standard_normal(2 * h)
        for name, shell in dense_shells():
            rows = x0[:len(shell.block.pad)]
            outs, grads = [], []
            for route in ("dense", "composed"):
                x, attn = Tensor(rows, requires_grad=True), Tensor(attn0, requires_grad=True)
                if route == "composed":
                    out = composed_aggregate(x, attn, shell, aggregator)
                else:
                    with forced_layout(monkeypatch, "dense"):
                        out = (ag.shell_aggregate(x, shell) if aggregator == "gcn"
                               else ag.shell_aggregate(x, shell, attn))
                weights = np.arange(1.0, out.data.size + 1).reshape(out.data.shape)
                (out * Tensor(np.sin(weights))).sum().backward()
                outs.append(out.data)
                grads.append([np.zeros_like(t.data) if t.grad is None else t.grad
                              for t in (x, attn)])
            np.testing.assert_allclose(outs[0], outs[1], rtol=0, atol=1e-12, err_msg=name)
            for dense, composed in zip(*grads):
                np.testing.assert_allclose(dense, composed, rtol=0, atol=1e-12,
                                           err_msg=name)


class TestConstantStates:
    """A GAT aggregate over an x that takes no gradient, as an input that
    is not trained: both pools still compute x's gradient, the op drops it,
    and attn's gradient is the composed chain's within 1e-12."""

    @pytest.mark.parametrize("layout", sorted(FORCED_LAYOUTS))
    def test_attention_gradient_matches_composed_ops(self, layout, monkeypatch):
        h = 3
        rng = np.random.default_rng(2)
        x0, attn0 = rng.standard_normal((8, h)), rng.standard_normal(2 * h)
        for name, shell in dense_shells():
            x = Tensor(x0[:len(shell.block.pad)])
            grads = []
            for route in ("fused", "composed"):
                attn = Tensor(attn0, requires_grad=True)
                if route == "composed":
                    out = composed_aggregate(x, attn, shell, "gat")
                else:
                    with forced_layout(monkeypatch, layout):
                        out = ag.shell_aggregate(x, shell, attn)
                weights = np.arange(1.0, out.data.size + 1).reshape(out.data.shape)
                (out * Tensor(np.sin(weights))).sum().backward()
                grads.append(np.zeros_like(attn0) if attn.grad is None else attn.grad)
            assert x.grad is None, name
            np.testing.assert_allclose(grads[0], grads[1], rtol=0, atol=1e-12, err_msg=name)


class TestDensePoolBands:
    """A mixed-size batch's banded dense pool against the one-band pool,
    byte for byte. Weights are multiples of 1/8 and rows small integers,
    so every sum is exact in any order and only the layout is tested."""

    def test_banded_pool_equals_one_band(self):
        rng = np.random.default_rng(11)
        sizes = np.array([5, 3, 7, 2, 6, 4, 7, 1])
        offsets = np.cumsum(sizes) - sizes
        n, width, h = int(sizes.sum()), int(sizes.max()), 3
        banded, _ = dense_blocks(sizes, offsets)
        assert len(banded.bands) == DENSE_BANDS
        assert len({band.shape[2] for band in banded.bands}) == DENSE_BANDS
        pad = np.arange(n) + np.repeat(np.arange(len(sizes)) * width - offsets, sizes)
        one = _Block.padded((len(sizes), width, width), pad, pad)
        # Edges within each ball, some (row, neighbour) pairs repeated.
        pairs = [(off + rng.integers(size, size=3 * size), off + rng.integers(size, size=3 * size))
                 for size, off in zip(sizes, offsets)]
        centers = np.concatenate([c for c, _ in pairs])
        neighbors = np.concatenate([nb for _, nb in pairs])
        weights = rng.integers(1, 9, centers.size) / 8.0
        x = rng.integers(-4, 5, (n, h)).astype(float)
        g = rng.integers(-4, 5, (n, h)).astype(float)
        runs = []
        for block in (banded, one):
            pool = ag._DensePool(x, Shell(centers, neighbors, centers, n, block), weights)
            dweights, dx = pool.grads(g)
            runs.append((pool.value.tobytes(), dweights.tobytes(), dx.tobytes()))
        assert runs[0] == runs[1]


class TestLayoutChoice:
    """dense_layout on the shapes of a classify_large ball of 259 nodes and
    16 hidden columns, whose order-1 shell holds 546 edges (0.8% of the
    block's cells) and whose order-2 shell holds 4,424 (6.6%)."""

    def test_sparse_order_one_scatters(self):
        assert not ag.dense_layout(1, 259, 259, 546, 16)

    def test_dense_order_two_goes_dense(self):
        assert ag.dense_layout(1, 259, 259, 4424, 16)

    def test_block_over_budget_scatters(self):
        samples = ag.DENSE_MAX_CELLS // (259 * 259)
        assert ag.dense_layout(samples, 259, 259, samples * 4424, 16)
        assert not ag.dense_layout(samples + 1, 259, 259, (samples + 1) * 259 * 259, 16)


def mixed_world():
    """Balls of different sizes in one batch: a ring with one chord, and a
    detached pair whose order-2 shells are empty; b has no history."""
    ring = [f"u{i}" for i in range(8)]
    edges = [(ring[i], ring[(i + 1) % 8]) for i in range(8)]
    edges += [("u0", "u4"), ("a", "b")]
    graph = SocialGraph(edges)
    posts = []
    for i, user in enumerate(ring + ["a", "b"]):
        for m in range(0 if user == "b" else 1 + i % 3):
            posts.append(Post(id=f"{user}h{m}", author_id=user, timestamp=10 + m,
                              text=f"history {user} {m} says something new"))
        posts.append(Post(id=f"{user}t", author_id=user, timestamp=100,
                          text=f"target post by {user} number {i}",
                          label=StanceLabel(i % 4)))
    corpus = Corpus(posts)
    store = precompute(corpus, HashedNgramEncoder(dim=8))
    return corpus, graph, store


@pytest.mark.parametrize("aggregator", ["gat", "gcn"])
@pytest.mark.parametrize("history", ["pe", "mean"])
class TestBatchedEngine:
    """A batch is one disjoint-union graph; it must agree with its posts
    run one at a time."""

    def setup_world(self, aggregator, history):
        corpus, graph, store = mixed_world()
        cfg = small_config(aggregator=aggregator, history=history, history_len=2,
                           batch_size=4)
        batch = eligible_training_posts(corpus, graph)
        assert len({len(khop_neighborhood(graph, p.author_id, 2)) for p in batch}) > 2
        assert not exact_order_neighborhood(graph, "a", 2)
        return corpus, graph, store, cfg, ModelParams(cfg), batch

    def test_loss_is_mean_of_single_post_losses(self, aggregator, history, monkeypatch):
        corpus, graph, store, cfg, params, batch = self.setup_world(aggregator, history)
        for layout in FORCED_LAYOUTS:
            with forced_layout(monkeypatch, layout):
                total = loss(batch, graph, corpus, store, params, cfg)
                singles = [loss([p], graph, corpus, store, params, cfg) for p in batch]
            assert abs(total - np.mean(singles)) <= 1e-12, layout

    def test_gradients_are_mean_of_single_post_gradients(self, aggregator, history,
                                                         monkeypatch):
        corpus, graph, store, cfg, params, batch = self.setup_world(aggregator, history)
        for layout in FORCED_LAYOUTS:
            with forced_layout(monkeypatch, layout):
                grads = gradients(batch, graph, corpus, store, params, cfg)
                singles = [gradients([p], graph, corpus, store, params, cfg)
                           for p in batch]
            for name, grad in grads.items():
                mean = np.mean([single[name] for single in singles], axis=0)
                np.testing.assert_allclose(grad, mean, rtol=0, atol=1e-12,
                                           err_msg=f"{layout} {name}")

    def test_evaluate_predicts_as_forward(self, aggregator, history, monkeypatch):
        corpus, graph, store, cfg, params, batch = self.setup_world(aggregator, history)
        for layout in FORCED_LAYOUTS:
            with forced_layout(monkeypatch, layout):
                # Relabel every post with forward()'s prediction: evaluate,
                # which runs batch_size posts at a time, must then score
                # every one.
                relabelled = [replace(p, label=forward(p, graph, corpus, store, params,
                                                       cfg).label) for p in batch]
                report = evaluate(relabelled, graph, corpus, store, params, cfg)
            assert report.accuracy == 1.0, layout


def bfs_distances(adj, start):
    dist = {start: 0}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for nxt in sorted(adj[node]):
            if nxt not in dist:
                dist[nxt] = dist[node] + 1
                queue.append(nxt)
    return dist


def oracle_compile(nodes, edges, author, k):
    """Ball and per-order (centers, neighbors) lists by one straight-line BFS
    per node: the ball around the author, then every ball node's exact
    distances inside the subgraph the ball induces."""
    adj = {v: set() for v in nodes}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    ball = sorted(v for v, d in bfs_distances(adj, author).items() if d <= k)
    inside = {v: adj[v] & set(ball) for v in ball}
    shells = [([], []) for _ in range(k)]
    for c, center in enumerate(ball):
        dist = bfs_distances(inside, center)
        for order in range(1, k + 1):
            for j, node in enumerate(ball):
                if dist.get(node) == order:
                    shells[order - 1][0].append(c)
                    shells[order - 1][1].append(j)
    return ball, shells


@st.composite
def compile_worlds(draw):
    """A random graph with isolated and degree-1 nodes, posts on a few of
    its nodes, an author and a hop count of 1 to 3."""
    n = draw(st.integers(1, 10))
    nodes = [f"v{i}" for i in range(n)]
    pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=14) if pairs else st.just([]))
    author = draw(st.sampled_from(nodes))
    stamps = draw(st.lists(st.tuples(st.sampled_from(nodes), st.integers(0, 6)),
                           max_size=12))
    posts = [Post(id=f"p{i}", author_id=user, timestamp=ts, text=f"post {i} by {user}")
             for i, (user, ts) in enumerate(stamps)]
    return nodes, edges, author, posts, draw(st.integers(1, 3)), draw(st.integers(1, 3))


class TestCompile:
    @settings(max_examples=150, deadline=None)
    @given(compile_worlds())
    def test_matches_per_node_bfs_oracle(self, world):
        nodes, edges, author, posts, k, lam = world
        graph = SocialGraph(edges, nodes=nodes)
        target = Post(id="target", author_id=author, timestamp=4, text="the target")
        corpus = Corpus(posts)
        encoder = HashedNgramEncoder(dim=4)
        cfg = small_config(hops=k, history_len=lam, embed_dim=4)
        sample = _compile_samples([target], graph, corpus, encoder, cfg)[0]
        ball, shells = oracle_compile(nodes, edges, author, k)
        assert sample.ball.nodes.size == len(ball)
        assert sample.ball.author_row == ball.index(author)
        assert len(sample.ball.shell_edges) == k
        for (centers, neighbors), (want_c, want_n) in zip(sample.ball.shell_edges, shells):
            assert centers.dtype == neighbors.dtype == np.intp
            assert centers.tolist() == want_c and neighbors.tolist() == want_n
        for i, node in enumerate(ball):
            earlier = sorted((p for p in posts if p.author_id == node
                              and p.timestamp < target.timestamp),
                             key=lambda p: (p.timestamp, p.id))
            history = earlier[::-1][:lam]
            assert sample.hist_counts[i] == len(history)
            want = np.zeros((lam, 4))
            for m, past in enumerate(history):
                want[m] = encoder.embed_post(past)
            assert np.array_equal(sample.hist[i], want)


@st.composite
def ball_worlds(draw):
    """A random graph with isolated and degree-1 nodes, a list of its
    nodes as authors (repeats allowed), a hop count of 1 to 3 and a chunk
    size of 1 to 4 authors."""
    n = draw(st.integers(1, 10))
    nodes = [f"v{i}" for i in range(n)]
    pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=14) if pairs else st.just([]))
    authors = draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=12))
    return nodes, edges, authors, draw(st.integers(1, 3)), draw(st.integers(1, 4))


class TestCompileBalls:
    @settings(max_examples=150, deadline=None)
    @given(ball_worlds())
    def test_authors_compiled_together_match_each_alone_and_the_set_oracle(self, world):
        nodes, edges, authors, k, chunk = world
        graph = SocialGraph(edges, nodes=nodes)
        alone = [_compile_balls([author], graph, k)[0] for author in authors]
        calls = []
        real = model_module.exact_shells

        def spy(*args):
            calls.append(args)
            return real(*args)

        # A position map of at most `chunk` balls: one BFS from every
        # author, then one BFS for each of several chunks.
        with mock.patch.object(ag, "DENSE_MAX_CELLS", chunk * len(graph)), \
                mock.patch.object(model_module, "exact_shells", spy):
            together = _compile_balls(authors, graph, k)
        assert len(calls[0][2]) == len(authors)
        assert len(calls) - 1 >= -(-len(authors) // chunk)
        assert len(together) == len(authors)
        for author, got, want in zip(authors, together, alone):
            assert got.nodes.dtype == want.nodes.dtype == np.intp
            assert got.nodes.tolist() == want.nodes.tolist()
            assert got.author_row == want.author_row
            assert len(got.shell_edges) == len(want.shell_edges) == k
            for (centers, neighbors), (want_c, want_n) in zip(got.shell_edges,
                                                              want.shell_edges):
                assert centers.dtype == neighbors.dtype == np.intp
                assert centers.tolist() == want_c.tolist()
                assert neighbors.tolist() == want_n.tolist()
            ball = sorted(khop_neighborhood(graph, author, k))
            assert [graph.node_ids[i] for i in got.nodes.tolist()] == ball
            assert got.author_row == ball.index(author)
            sub = induced_subgraph(graph, ball)
            for order, (centers, neighbors) in enumerate(got.shell_edges, 1):
                want_pairs = [(c, j) for c, center in enumerate(ball)
                              for j, node in enumerate(ball)
                              if node in exact_order_neighborhood(sub, center, order)]
                assert list(zip(centers.tolist(), neighbors.tolist())) == want_pairs

    @pytest.mark.parametrize("sizes, n, runs", [
        # Pair cells 9, 18, 19, then 44: the fourth ball starts a chunk,
        # and alone exceeds the budget of 20.
        ([3, 3, 1, 5, 2], 4, [(0, 3), (3, 4), (4, 5)]),
        # A position map of three balls over 8 nodes would take 24 cells.
        ([1, 1, 1], 8, [(0, 2), (2, 3)]),
        ([], 8, []),
    ])
    def test_chunks_keep_pair_cells_and_position_map_in_budget(self, sizes, n, runs,
                                                               monkeypatch):
        monkeypatch.setattr(ag, "DENSE_MAX_CELLS", 20)
        assert list(model_module._chunks(sizes, n)) == runs

    def test_compile_errors_come_in_post_order(self):
        # The first post's history lacks a vector and the second post's
        # author is not a graph node: compiled post by post, the first
        # post's KeyError comes first.
        corpus, graph, full = toy_world(n_users=5)
        stranger = Post(id="s", author_id="stranger", timestamp=100, text="who",
                        label=StanceLabel(0))
        store = store_without(full, {"u1h0"})
        cfg = small_config()
        params = ModelParams(cfg)
        posts = [corpus.by_id["u0t"], stranger]
        for call in (loss, gradients, evaluate):
            with pytest.raises(KeyError, match="unknown post id: 'u1h0'"):
                call(posts, graph, corpus, store, params, cfg)
        with pytest.raises(KeyError, match="user not in social graph: 'stranger'"):
            loss(posts[::-1], graph, corpus, store, params, cfg)

    def test_lone_sample_runs_on_its_balls_arrays(self, monkeypatch):
        # A batch of one joins nothing: the first layer pools the ball's
        # own shell arrays, with no offset added and no copy made.
        corpus, graph, store = toy_world()
        cfg = small_config()
        sample = _compile_samples([corpus.by_id["u2t"]], graph, corpus, store, cfg)[0]
        shells = []
        real = ag.shell_aggregate

        def spy(x, shell, attn=None):
            shells.append(shell)
            return real(x, shell, attn)

        monkeypatch.setattr(ag, "shell_aggregate", spy)
        _batch_logits(_make_tensors(ModelParams(cfg), False), [sample], cfg)
        for shell, (centers, neighbors) in zip(shells, sample.ball.shell_edges):
            assert shell.centers is centers and shell.neighbors is neighbors


def join_world():
    """One corpus and two graphs over it. g0-g3, x0 and x1 post; g4 and g5
    do not. x0 and x1 are nodes of the second graph only, g1, g3 and g4 of
    the first only."""
    authors = ["g0", "g1", "g2", "g3", "x0", "x1"]
    posts = [Post(id=f"{user}p{m}", author_id=user, timestamp=10 * m + i,
                  text=f"post {m} by {user}")
             for i, user in enumerate(authors) for m in range(3)]
    first = SocialGraph([("g0", "g1"), ("g1", "g2"), ("g2", "g3"), ("g3", "g4"),
                         ("g4", "g5"), ("g5", "g0"), ("g1", "g4")])
    second = SocialGraph([("g0", "x0"), ("x0", "g5"), ("g5", "x1"), ("x1", "g2"),
                          ("g2", "g0")])
    return Corpus(posts), first, second


class TestGraphCorpusJoin:
    """_compile_samples reads history through the corpus's per-graph join of
    node indices to authors; it must gather what recent_posts gives for the
    ball's node names."""

    def assert_compiles_as_by_name(self, graph, corpus, author, k=2, lam=2):
        encoder = HashedNgramEncoder(dim=4)
        target = Post(id="target", author_id=author, timestamp=25, text="the target")
        sample = _compile_samples([target], graph, corpus, encoder,
                                 small_config(hops=k, history_len=lam, embed_dim=4))[0]
        names = sorted(khop_neighborhood(graph, author, k))
        recent = [recent_posts(corpus, name, target.timestamp, lam) for name in names]
        counts = np.array([len(posts) for posts in recent])
        hist = np.zeros((len(names), lam, 4))
        for i, posts in enumerate(recent):
            for m, past in enumerate(posts):
                hist[i, m] = encoder.embed_post(past)
        assert np.array_equal(sample.hist_counts, counts)
        assert np.array_equal(sample.hist, hist)
        _, shells = oracle_compile(graph.node_ids, graph.edges(), author, k)
        assert [(c.tolist(), n.tolist()) for c, n in sample.ball.shell_edges] == \
            [tuple(shell) for shell in shells]
        return counts

    def test_compile_matches_history_by_name(self):
        corpus, first, _ = join_world()
        counts = [self.assert_compiles_as_by_name(first, corpus, author)
                  for author in first.node_ids]
        assert any((c == 0).any() for c in counts) and any((c == 2).any() for c in counts)

    def test_each_graph_gets_its_own_join(self):
        corpus, first, second = join_world()
        for graph in (first, second, first, second):
            for author in ("g0", "g5"):
                self.assert_compiles_as_by_name(graph, corpus, author)
        assert corpus.graph_authors(first).size == len(first)
        assert corpus.graph_authors(second).size == len(second)


class TestPermutationInvariance:
    @settings(max_examples=120, deadline=None)
    @given(compile_worlds(), st.data())
    def test_relabelled_nodes_predict_the_same(self, world, data):
        # Renaming nodes reorders every ball, so the engine's sums may run
        # in another order; the reference route must not move at all.
        nodes, edges, author, posts, k, lam = world
        rename = dict(zip(nodes, data.draw(st.permutations(nodes), label="names")))
        cfg = small_config(hops=k, history_len=lam, embed_dim=4,
                           aggregator=data.draw(st.sampled_from(AGGREGATOR_KINDS)),
                           history=data.draw(st.sampled_from(HISTORY_KINDS)),
                           seed=data.draw(st.integers(0, 2**32), label="seed"))
        params = ModelParams(cfg)
        encoder = HashedNgramEncoder(dim=4)
        target = Post(id="target", author_id=author, timestamp=4, text="the target")
        worlds = [(SocialGraph(edges, nodes=nodes), Corpus(posts), target),
                  (SocialGraph([(rename[a], rename[b]) for a, b in edges],
                               nodes=[rename[v] for v in nodes]),
                   Corpus([replace(p, author_id=rename[p.author_id]) for p in posts]),
                   replace(target, author_id=rename[author]))]

        def both(route):
            return [route(post, graph, corpus, encoder, params, cfg)
                    for graph, corpus, post in worlds]

        ref, ref_renamed = both(reference_probabilities)
        got, got_renamed = (pred.probabilities for pred in both(forward))
        assert ref.tobytes() == ref_renamed.tobytes()
        assert np.max(np.abs(got - got_renamed)) <= 1e-12

    @pytest.fixture(scope="class")
    def renamed_worlds(self):
        """A world's store, then its (corpus, graph) under the original user
        names and under a permutation of them that changes their order."""
        world = heterophily_benchmark(300, mean_degree=4, embed_dim=16, seed=5)
        names = list(world.graph.node_ids)
        rename = dict(zip(names, np.random.default_rng(0).permutation(names).tolist()))
        assert sorted(names, key=rename.get) != names
        renamed = (Corpus([replace(p, author_id=rename[p.author_id]) for p in world.corpus]),
                   SocialGraph([(rename[u], rename[v]) for u, v in world.graph.edges()],
                               nodes=[rename[v] for v in names]))
        return world.store, (world.corpus, world.graph), renamed

    @pytest.mark.parametrize("hops", [1, 2, 3])
    @pytest.mark.parametrize("history", HISTORY_KINDS)
    @pytest.mark.parametrize("aggregator", AGGREGATOR_KINDS)
    def test_renamed_users_train_the_same(self, renamed_worlds, aggregator, history, hops):
        # Renaming reorders every ball's rows, so training's sums run in
        # another order: parameters agree within rounding, not byte for byte.
        store, *worlds = renamed_worlds
        cfg = TrainConfig(epochs=3, learning_rate=5e-3, weight_decay=0.0, hops=hops,
                          history_len=3, embed_dim=16, hidden_dim=16, batch_size=64,
                          seed=0, aggregator=aggregator, history=history)
        (got, _), (got_renamed, _) = (train(corpus, graph, store, cfg)
                                      for corpus, graph in worlds)
        assert got.tensors.keys() == got_renamed.tensors.keys()
        for name, arr in got.tensors.items():
            assert np.max(np.abs(arr - got_renamed.tensors[name])) <= 1e-12, name


class TestAdam:
    def test_scalar_oracle_with_decay(self):
        lr, wd, b1, b2, eps = 0.01, 0.5, 0.9, 0.999, 1e-8
        theta = 1.0
        m = v = 0.0
        tensors = {"x": np.array([1.0])}
        state = AdamState.fresh(tensors)
        grads_seq = [0.3, -0.2, 0.7]
        for t, g in enumerate(grads_seq, start=1):
            adam_step(tensors, {"x": np.array([g])}, state, lr, weight_decay=wd)
            theta = theta - lr * wd * theta  # decay before the moment update
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1 ** t)
            v_hat = v / (1 - b2 ** t)
            theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
            assert tensors["x"][0] == pytest.approx(theta, abs=1e-15)

    def test_decay_applies_before_update(self):
        # with large rates the two orderings differ measurably
        lr, wd, g = 0.5, 0.9, 1.0
        tensors = {"x": np.array([2.0])}
        state = AdamState.fresh(tensors)
        adam_step(tensors, {"x": np.array([g])}, state, lr, weight_decay=wd)
        update = lr * 1.0  # m_hat/(sqrt(v_hat)+eps) ~ g/|g| = 1 at step 1
        before = 2.0 * (1 - lr * wd) - update
        after = (2.0 - update) * (1 - lr * wd)
        assert tensors["x"][0] == pytest.approx(before, abs=1e-7)
        assert abs(before - after) > 0.1  # orderings are distinguishable

    def test_no_decay_default(self):
        tensors = {"x": np.array([5.0])}
        state = AdamState.fresh(tensors)
        adam_step(tensors, {"x": np.array([0.0])}, state, 0.1)
        assert tensors["x"][0] == 5.0


class TestSplitDataset:
    def test_protocol_sizes(self):
        train_part, val_part, test_part = split_dataset(range(18246))
        assert (len(train_part), len(val_part), len(test_part)) == (14596, 1825, 1825)

    def test_partition(self):
        items = list(range(100))
        a, b, c = split_dataset(items, seed=3)
        assert sorted(a + b + c) == items
        assert not (set(a) & set(b)) and not (set(b) & set(c)) and not (set(a) & set(c))

    def test_seed_determinism(self):
        items = list(range(50))
        assert split_dataset(items, seed=7) == split_dataset(items, seed=7)
        assert split_dataset(items, seed=7) != split_dataset(items, seed=8)

    def test_cumulative_floor_cuts(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(10, 500))
            a, b, c = split_dataset(range(n))
            import math
            cut1 = math.floor(n * 0.8)
            cut2 = math.floor(n * 0.9)
            assert (len(a), len(b), len(c)) == (cut1, cut2 - cut1, n - cut2)

    def test_errors(self):
        with pytest.raises(InputDataError):
            split_dataset(range(5), fractions=(0.9, 0.05, 0.1))
        with pytest.raises(InputDataError):
            split_dataset(range(3), fractions=(0.98, 0.01, 0.01))

    def test_non_finite_fraction_rejected(self):
        with pytest.raises(InputDataError, match="finite"):
            split_dataset(range(20), fractions=(float("nan"), 0.5, 0.5))

    def test_default_fractions_are_train_config_split(self):
        default = inspect.signature(split_dataset).parameters["fractions"].default
        assert default == TrainConfig().split


def grad_bytes(grads):
    return {name: grad.tobytes() for name, grad in grads.items()}


@pytest.mark.parametrize("aggregator", ["gat", "gcn"])
@pytest.mark.parametrize("history", ["pe", "mean"])
class TestTrainingBatchMemory:
    """Training's gradient batches take compiled samples and pool dense
    shells band by band; neither may change a byte."""

    def setup_world(self, aggregator, history):
        corpus, graph, store = mixed_world()
        cfg = small_config(aggregator=aggregator, history=history, history_len=2)
        batch = eligible_training_posts(corpus, graph)
        samples = _compile_samples(batch, graph, corpus, store, cfg)
        return corpus, graph, store, cfg, ModelParams(cfg), batch, samples

    def test_workspace_gradients_equal_gradients(self, aggregator, history, monkeypatch):
        corpus, graph, store, cfg, params, batch, samples = self.setup_world(
            aggregator, history)
        for layout in FORCED_LAYOUTS:
            with forced_layout(monkeypatch, layout):
                want = grad_bytes(gradients(batch, graph, corpus, store, params, cfg))
                want_loss = loss(batch, graph, corpus, store, params, cfg)
                got_loss, got = _gradients_from_samples(_make_tensors(params, True),
                                                        samples, cfg)
                assert grad_bytes(got) == want, layout
                assert got_loss == want_loss, layout

    def test_banded_engine_matches_one_band(self, aggregator, history, monkeypatch):
        # BLAS may pick its kernel by matrix shape, so a band's sums can
        # differ from the padded block's in the last bits: within 1e-12,
        # as for every dense result. TestDensePoolBands pins the layout
        # byte for byte.
        corpus, graph, store, cfg, params, batch, samples = self.setup_world(
            aggregator, history)
        runs = []
        for bands in (DENSE_BANDS, 1):
            with forced_layout(monkeypatch, "dense"):
                monkeypatch.setattr("socialstance.autograd.DENSE_BANDS", bands)
                logits = _batch_logits(_make_tensors(params, False), samples, cfg)
                _, grads = _gradients_from_samples(_make_tensors(params, True), samples, cfg)
            runs.append((logits.data, grads))
        np.testing.assert_allclose(runs[0][0], runs[1][0], rtol=0, atol=1e-12)
        for name, grad in runs[0][1].items():
            np.testing.assert_allclose(grad, runs[1][1][name], rtol=0, atol=1e-12,
                                       err_msg=name)

    def test_batch_of_one_is_one_band(self, aggregator, history, monkeypatch):
        corpus, graph, store, cfg, params, batch, samples = self.setup_world(
            aggregator, history)
        blocks = []
        real = ag.shell_aggregate

        def spy(x, shell, attn=None):
            blocks.append(shell.block)
            return real(x, shell, attn)

        monkeypatch.setattr(ag, "shell_aggregate", spy)
        for post, sample in zip(batch, samples):
            forward(post, graph, corpus, store, params, cfg)
            width = sample.ball.nodes.size
            rows = np.arange(width)
            want = (_Block.padded((1, width, width), rows, rows),
                    _Block.padded((1, 1, width), rows, rows[:1]))
            for block in blocks:
                assert len(block.bands) == 1
                assert any(block.shape == w.shape and all(
                    np.array_equal(getattr(block, f), getattr(w, f))
                    for f in ("pad", "out", "row_cell", "place")) for w in want)
            blocks.clear()

    def test_two_trainings_in_one_process_match(self, aggregator, history, monkeypatch):
        corpus, graph, store = mixed_world()
        cfg = small_config(aggregator=aggregator, history=history, history_len=2,
                           epochs=3, batch_size=4)
        for layout in FORCED_LAYOUTS:
            with forced_layout(monkeypatch, layout):
                runs = [train(corpus, graph, store, cfg) for _ in range(2)]
            (p1, logs1), (p2, logs2) = runs
            assert logs1 == logs2, layout
            assert grad_bytes(p1.tensors) == grad_bytes(p2.tensors), layout


@contextmanager
def forced_chunks(monkeypatch, cells):
    """Run the block with every shell aggregate on the scatter layout, its
    edges in chunks of at most `cells` cells, and check that some
    aggregate took more than one chunk. cells=None scatters every shell
    in one chunk, whatever its size, and checks that none took more."""
    counts = []
    chunks_of = ag._edge_chunks

    def spy(segments, width):
        chunks = chunks_of(segments, width)
        counts.append(len(chunks))
        return chunks

    with monkeypatch.context() as patch:
        # No shell is dense enough at infinite density, however small.
        patch.setattr(ag, "DENSE_MIN_DENSITY", math.inf)
        patch.setattr(ag, "DENSE_MAX_CELLS", 1 << 40 if cells is None else cells)
        patch.setattr(ag, "_edge_chunks", spy)
        yield
    assert counts and (max(counts) > 1) == (cells is not None), cells


@settings(max_examples=200, deadline=None)
@given(sizes=st.lists(st.integers(0, 6), max_size=12), width=st.integers(1, 4),
       cells=st.integers(0, 30))
def test_edge_chunks_cut_between_segments_within_the_budget(sizes, width, cells):
    segments = np.repeat(np.arange(len(sizes)), sizes)
    with mock.patch.object(ag, "DENSE_MAX_CELLS", cells):
        chunks = ag._edge_chunks(segments, width)
    assert [start for start, _ in chunks] == [0] + [stop for _, stop in chunks[:-1]]
    assert chunks[-1][1] == segments.size
    if segments.size * width <= cells:
        assert chunks == [(0, segments.size)]
    for start, stop in chunks:
        part = segments[start:stop]
        assert stop > start or segments.size == 0
        assert (stop - start) * width <= cells or part[0] == part[-1]
        # No segment is split between two chunks.
        assert start == 0 or segments[start - 1] != segments[start]


@pytest.mark.parametrize("aggregator", ["gat", "gcn"])
@pytest.mark.parametrize("history", ["pe", "mean"])
class TestChunkedScatter:
    """The scatter layout in chunks of a few edges must give the bytes of
    one chunk: forward, gradients and training."""

    # With 4 hidden columns: chunks of one, three and ten edges. Only
    # chunks of several segments hold a neighbour twice, which backward's
    # running sum must add in edge order.
    CELLS = (4, 12, 40)

    def runs(self, monkeypatch, call):
        outputs = []
        for cells in (None,) + self.CELLS:
            with forced_chunks(monkeypatch, cells):
                outputs.append(call())
        return outputs

    def test_forward_and_gradients(self, aggregator, history, monkeypatch):
        corpus, graph, store = mixed_world()
        cfg = small_config(aggregator=aggregator, history=history, hidden_dim=4)
        params = ModelParams(cfg)
        batch = eligible_training_posts(corpus, graph)
        one, *chunked = self.runs(monkeypatch, lambda: (
            [forward(p, graph, corpus, store, params, cfg).probabilities.tobytes()
             for p in batch],
            grad_bytes(gradients(batch, graph, corpus, store, params, cfg))))
        assert all(run == one for run in chunked)

    def test_train(self, aggregator, history, monkeypatch):
        corpus, graph, store = mixed_world()
        cfg = small_config(aggregator=aggregator, history=history, hidden_dim=4,
                           epochs=2, batch_size=4)

        def trained():
            params, logs = train(corpus, graph, store, cfg)
            return grad_bytes(params.tensors), logs

        one, *chunked = self.runs(monkeypatch, trained)
        assert all(run == one for run in chunked)


def test_chunked_hub_forward_memory_is_linear_in_edges(monkeypatch):
    # A leaf of a 300-partner star with chords: its order-2 shell holds
    # about 90k of the ball's E edges. Each (E, h) array of one chunk
    # would take E * 64 * 8 bytes; in chunks of 2^14 cells the forward's
    # peak (compile included) stays within 16 E-length arrays.
    corpus, graph, store, params, cfg, post = hub_world.star_with_chords(300, hidden_dim=64)
    ball = _compile_samples([post], graph, corpus, store, cfg)[0].ball
    edges = sum(centers.size for centers, _ in ball.shell_edges)
    probs = forward(post, graph, corpus, store, params, cfg).probabilities
    with forced_chunks(monkeypatch, 1 << 14):
        tracemalloc.start()
        try:
            chunked = forward(post, graph, corpus, store, params, cfg).probabilities
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 16 * edges * 8, peak / (edges * 8)
    assert chunked.tobytes() == probs.tobytes()


def store_without(store, missing):
    return PrecomputedStore({pid: vec for pid, vec in store.items() if pid not in missing},
                            dim=store.dim)


class TestEmbeddingMemo:
    def test_history_is_read_from_the_store_in_place(self):
        # 20,008 posts, most of them by a user outside the graph. The
        # store's vectors take n * dim * 8 bytes; compiling one post must
        # not copy them.
        corpus, graph, _ = toy_world()
        filler = [Post(id=f"x{i}", author_id="x", timestamp=i, text="")
                  for i in range(20_000)]
        corpus = Corpus(corpus.posts + filler)
        rng = np.random.default_rng(0)
        store = PrecomputedStore({p.id: rng.standard_normal(16) for p in corpus})
        cfg = small_config(embed_dim=16)
        post = corpus.by_id["u3t"]
        corpus.graph_authors(graph)   # the history index and the author join
        tracemalloc.start()
        try:
            sample = _compile_samples([post], graph, corpus, store, cfg)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(corpus) * store.dim * 8
        names = recent_posts(corpus, "u3", post.timestamp, cfg.history_len)
        row = int(np.searchsorted(sample.ball.nodes, graph.index("u3")))
        np.testing.assert_array_equal(sample.hist[row, :len(names)],
                                      [store.vector(p.id) for p in names])

    def test_missing_vectors_name_the_lowest_corpus_row(self):
        # Every ball of a 5-ring at hops 2 holds every user. The corpus
        # runs newest user first, so u3h1 comes before u1h0 in corpus
        # order, not in id order; the target post's own vector is missing
        # too, and is checked after the history.
        corpus, graph, full = toy_world(n_users=5)
        corpus = Corpus(corpus.posts[::-1])
        store = store_without(full, {"u1h0", "u3h1", "u0t"})
        cfg = small_config()
        post = corpus.by_id["u0t"]
        calls = [lambda: forward(post, graph, corpus, store, ModelParams(cfg), cfg),
                 lambda: train(corpus, graph, store, cfg)]
        for call in calls:
            with pytest.raises(KeyError, match="unknown post id: 'u3h1'"):
                call()

    def test_text_provider_fills_its_own_memo_once(self):
        corpus, graph, store = toy_world()
        encoder = HashedNgramEncoder(dim=8)
        cfg = small_config()
        params = ModelParams(cfg)
        calls = []
        embed_post = encoder.embed_post
        encoder.embed_post = lambda p: calls.append(p.id) or embed_post(p)
        for _ in range(2):
            for user in ("u0", "u1"):
                post = corpus.by_id[f"{user}t"]
                got = forward(post, graph, corpus, encoder, params, cfg).probabilities
                want = forward(post, graph, corpus, store, params, cfg).probabilities
                assert got.tobytes() == want.tobytes()
        history = [c for c in calls if not c.endswith("t")]
        assert len(history) == len(set(history)) > 0


class TestTraining:
    def test_fifty_fullbatch_steps_halve_loss(self):
        phrases = {
            StanceLabel.PO: "booked my shot today feeling grateful protected",
            StanceLabel.NG: "never trusting this rushed experiment refuse it",
            StanceLabel.NE: "clinic opens tomorrow at nine downtown branch",
            StanceLabel.PD: "had mine months ago second dose done easy",
        }
        users = [f"u{i}" for i in range(20)]
        graph = SocialGraph([(users[i], users[(i + 1) % 20]) for i in range(20)])
        posts = []
        for i, user in enumerate(users):
            label = StanceLabel(i % 4)
            posts.append(Post(id=f"{user}h", author_id=user, timestamp=1,
                              text=phrases[label]))
            posts.append(Post(id=f"{user}t", author_id=user, timestamp=100,
                              text=phrases[label], label=label))
        corpus = Corpus(posts)
        store = precompute(corpus, HashedNgramEncoder(dim=32))
        cfg = small_config(hops=1, hidden_dim=8, embed_dim=32, history_len=1,
                           learning_rate=1e-2, weight_decay=0.0, batch_size=20)
        params = ModelParams(cfg)
        batch = eligible_training_posts(corpus, graph)
        assert len(batch) == 20
        initial = loss(batch, graph, corpus, store, params, cfg)
        state = AdamState.fresh(params.tensors)
        for _ in range(50):
            grads = gradients(batch, graph, corpus, store, params, cfg)
            adam_step(params.tensors, grads, state, cfg.learning_rate,
                      cfg.weight_decay)
        final = loss(batch, graph, corpus, store, params, cfg)
        assert final <= 0.5 * initial

    def test_train_returns_best_validation_snapshot(self):
        corpus, graph, store = toy_world(n_users=12)
        cfg = small_config(epochs=4, learning_rate=5e-3, split=(0.5, 0.25, 0.25))
        params, logs = train(corpus, graph, store, cfg)
        assert [s.epoch for s in logs] == [1, 2, 3, 4]
        labelled = eligible_training_posts(corpus, graph)
        _, val_posts, _ = split_dataset(labelled, cfg.split, cfg.seed)
        hits = sum(classify(p, graph, corpus, store, params, cfg) == p.label
                   for p in val_posts)
        assert hits / len(val_posts) == pytest.approx(
            max(s.val_accuracy for s in logs))

    def test_best_snapshot_is_the_shorter_run_byte_for_byte(self):
        # Batch order comes from the seeded generator, so the first b epochs
        # of a longer run repeat a run of b epochs exactly.
        corpus, graph, store = toy_world(n_users=20, seed=2)
        cfg = small_config(epochs=5, learning_rate=1e-2, seed=2)
        params, logs = train(corpus, graph, store, cfg)
        accuracies = [stat.val_accuracy for stat in logs]
        best = accuracies.index(max(accuracies)) + 1
        assert best < cfg.epochs
        shorter, _ = train(corpus, graph, store, replace(cfg, epochs=best))
        assert params.tensors.keys() == shorter.tensors.keys()
        for name, arr in params.tensors.items():
            assert arr.dtype == shorter.tensors[name].dtype
            assert arr.shape == shorter.tensors[name].shape
            assert arr.tobytes() == shorter.tensors[name].tobytes(), name

    def test_deterministic_and_log_bytes_identical(self, tmp_path):
        corpus, graph, store = toy_world(n_users=10)
        cfg = small_config(epochs=3)
        p1, logs1 = train(corpus, graph, store, cfg)
        p2, logs2 = train(corpus, graph, store, cfg)
        assert logs1 == logs2
        for name in p1.tensors:
            np.testing.assert_array_equal(p1.tensors[name], p2.tensors[name])
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_metric_log(logs1, f1)
        save_metric_log(logs2, f2)
        assert f1.read_bytes() == f2.read_bytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reports_epoch(self):
        corpus, graph, store = toy_world(n_users=10)
        cfg = small_config(epochs=4, learning_rate=1e25)
        params = ModelParams(cfg)
        batch = eligible_training_posts(corpus, graph)[:4]

        def outputs():
            return (grad_bytes(gradients(batch, graph, corpus, store, params, cfg)),
                    forward(batch[0], graph, corpus, store, params, cfg).probabilities.tobytes())

        before = outputs()
        with pytest.raises(TrainingDivergedError, match="training diverged at epoch"):
            train(corpus, graph, store, cfg)
        assert outputs() == before

    # train() reports a ValueError inside a batch as divergence; any other
    # exception propagates as it is.
    @pytest.mark.parametrize("error, reported", [(KeyboardInterrupt, KeyboardInterrupt),
                                                 (InputDataError, TrainingDivergedError)])
    def test_batch_error_is_mapped(self, error, reported, monkeypatch):
        corpus, graph, store = toy_world(n_users=10)
        cfg = small_config(epochs=2)
        real = ag.shell_aggregate
        calls = []

        def interrupt(*args):
            calls.append(args)
            if len(calls) == 3:
                raise error("stop")
            return real(*args)

        monkeypatch.setattr(ag, "shell_aggregate", interrupt)
        with pytest.raises(reported):
            train(corpus, graph, store, cfg)
        assert len(calls) == 3

    def test_evaluate_runs_and_bounds(self):
        corpus, graph, store = toy_world(n_users=10)
        cfg = small_config(epochs=2)
        params, _ = train(corpus, graph, store, cfg)
        labelled = eligible_training_posts(corpus, graph)
        report = evaluate(labelled, graph, corpus, store, params, cfg)
        for value in report.as_dict().values():
            assert 0.0 <= value <= 1.0

    def test_sweep_grid(self):
        corpus, graph, store = toy_world(n_users=10)
        cfg = small_config(epochs=1)
        rows = sweep(corpus, graph, store, cfg, hops_values=[1, 2],
                     history_len_values=[1, 2])
        assert [(r["hops"], r["history_len"]) for r in rows] == [
            (1, 1), (1, 2), (2, 1), (2, 2)]
        assert all(0.0 <= r["val_accuracy"] <= 1.0 for r in rows)

    def test_sweep_cells_equal_train(self):
        corpus, graph, store = toy_world(n_users=10, history=4)
        cfg = small_config(epochs=2)
        rows = sweep(corpus, graph, store, cfg, hops_values=[1, 2],
                     history_len_values=[3, 1])
        for row in rows:
            cell = replace(cfg, hops=row["hops"], history_len=row["history_len"])
            _, logs = train(corpus, graph, store, cell)
            assert row["val_accuracy"] == max(stat.val_accuracy for stat in logs)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        corpus, graph, store = toy_world()
        cfg = small_config()
        params = ModelParams(cfg)
        path = tmp_path / "model.npz"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.config == cfg
        assert set(loaded.tensors) == set(params.tensors)
        for name in params.tensors:
            np.testing.assert_array_equal(loaded.tensors[name], params.tensors[name])
        post = corpus.by_id["u0t"]
        a = forward(post, graph, corpus, store, params, cfg)
        b = forward(post, graph, corpus, store, loaded, cfg)
        np.testing.assert_array_equal(a.probabilities, b.probabilities)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, foo=np.zeros(3))
        with pytest.raises(InputDataError, match="checkpoint"):
            load_checkpoint(path)

    def test_wrong_version_rejected(self, tmp_path):
        import json
        params = ModelParams(small_config())
        path = tmp_path / "model.npz"
        save_checkpoint(params, path)
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(str(arrays["__meta__"][()]))
        meta["format_version"] = 999
        arrays["__meta__"] = np.asarray(json.dumps(meta))
        tampered = tmp_path / "tampered.npz"
        np.savez(tampered, **arrays)
        with pytest.raises(InputDataError, match="version"):
            load_checkpoint(tampered)

    @staticmethod
    def claimed_checkpoint(path, **claim):
        """An 8-wide checkpoint whose config claims `claim` over its arrays."""
        save_checkpoint(ModelParams(small_config(hidden_dim=8)), path)
        with np.load(path) as data:
            arrays = dict(data)
        meta = json.loads(str(arrays["__meta__"]))
        meta["config"].update(claim)
        arrays["__meta__"] = np.asarray(json.dumps(meta))
        np.savez(path, **arrays)
        return path

    @pytest.mark.parametrize("claim, needle", [
        ({"embed_dim": 400, "hidden_dim": 400}, "parameter 'input.w' does not match"),
        ({"hops": 40}, "first missing 'layer1.order3.w'"),
        ({"history_len": 10**7}, "parameter 'position_weights' does not match"),
    ], ids=["400-dims", "hops-40", "history-1e7"])
    def test_claimed_model_is_not_allocated(self, tmp_path, claim, needle):
        # The loader compares the file against the claimed config's layout;
        # it builds nothing of the model the config claims.
        path = self.claimed_checkpoint(tmp_path / "model.npz", **claim)
        tracemalloc.start()
        try:
            with pytest.raises(InputDataError, match=re.escape(needle)):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20, peak

    @pytest.mark.skipif(not Path("/proc/self/statm").exists(),
                        reason="the child reads its size from Linux's /proc")
    def test_deep_claim_refused_in_under_a_second(self, tmp_path):
        # hops = 300 claims 90,000 (layer, order) blocks. A loader that
        # built them would take minutes and gigabytes, so the child caps its
        # own address space 100 MB above its size after import.
        path = self.claimed_checkpoint(tmp_path / "model.npz", hops=300)
        child = textwrap.dedent("""
            import resource, sys, time
            from socialstance.errors import InputDataError
            from socialstance.model import load_checkpoint
            with open("/proc/self/statm") as fh:
                size = int(fh.read().split()[0]) * resource.getpagesize()
            resource.setrlimit(resource.RLIMIT_AS,
                               (size + (100 << 20), resource.RLIM_INFINITY))
            start = time.perf_counter()
            try:
                load_checkpoint(sys.argv[1])
            except InputDataError as exc:
                print(time.perf_counter() - start, exc)
        """)
        done = subprocess.run([sys.executable, "-c", child, str(path)],
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        seconds, message = done.stdout.split(" ", 1)
        assert float(seconds) < 1.0
        assert "first missing 'layer1.order3.w'" in message

    @settings(max_examples=40, deadline=None)
    @given(config=st.builds(
        TrainConfig, epochs=st.integers(1, 10**9),
        learning_rate=st.floats(0, 1e300, exclude_min=True),
        weight_decay=st.floats(0, 1e300), hops=st.integers(1, 2),
        history_len=st.integers(1, 4), embed_dim=st.integers(1, 4),
        hidden_dim=st.integers(1, 3), batch_size=st.integers(1, 10**9),
        seed=st.integers(0, 2**64), aggregator=st.sampled_from(AGGREGATOR_KINDS),
        history=st.sampled_from(HISTORY_KINDS)), data=st.data())
    def test_save_load_round_trip_is_bit_exact(self, config, data):
        finite = st.floats(allow_nan=False, allow_infinity=False)
        params = ModelParams(config, {
            name: data.draw(arrays(np.float64, arr.shape, elements=finite), label=name)
            for name, arr in ModelParams(config).tensors.items()})
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "model.npz"
            save_checkpoint(params, path)
            loaded = load_checkpoint(path)
        assert loaded.config == config
        assert {name: (arr.dtype, arr.shape, arr.tobytes())
                for name, arr in loaded.tensors.items()} == \
            {name: (arr.dtype, arr.shape, arr.tobytes())
             for name, arr in params.tensors.items()}


class TestTextBaseline:
    def test_learns_separable_embeddings(self):
        # one orthogonal direction per class, so a linear head is sufficient
        rng = np.random.default_rng(0)
        posts, vectors = [], {}
        for i in range(40):
            label = StanceLabel(i % 4)
            pid = f"p{i}"
            posts.append(Post(id=pid, author_id=f"u{i}", timestamp=0,
                              text="x", label=label))
            vec = np.zeros(8)
            vec[int(label)] = 1.0
            vectors[pid] = vec + 0.05 * rng.standard_normal(8)
        from socialstance.embed import PrecomputedStore
        store = PrecomputedStore(vectors)
        cfg = small_config(split=(0.6, 0.2, 0.2))
        baseline = train_text_baseline(posts, store, cfg)
        train_posts, _, _ = split_dataset(posts, cfg.split, cfg.seed)
        hits = sum(classify_text_baseline(baseline, p, store) == p.label
                   for p in train_posts)
        assert hits / len(train_posts) == 1.0
