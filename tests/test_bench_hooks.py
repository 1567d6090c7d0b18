"""The traced benchmark run patches library names in place (bench/layers.py).

A refactor that renames or drops one of those names would only show when
the traced run crashes, so instrument and close are run here.
"""

import importlib
from pathlib import Path

import numpy as np

from socialstance import model
from socialstance.corpus import Corpus, Post
from socialstance.embed import HashedNgramEncoder, PrecomputedStore, precompute
from socialstance.model import ModelParams, TrainConfig
from socialstance.socialgraph import SocialGraph

BENCH = Path(__file__).resolve().parents[1] / "bench"

# Names the per-layer metrics of a classify or train run hang on.
HOOKS = [(model, "khop_neighborhood"), (model, "recent_posts"),
         (model, "forward"), (model, "train"), (model, "adam_step"),
         (SocialGraph, "neighbors"), (PrecomputedStore, "embed_post")]


def test_instrument_then_close_restores_every_hook(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    tracing = importlib.import_module("tracing")
    originals = [owner.__dict__[attr] for owner, attr in HOOKS]

    posts = [Post(id=f"p{i}", author_id=f"u{i % 3}", timestamp=i, text=f"post {i}")
             for i in range(6)]
    corpus = Corpus(posts)
    graph = SocialGraph([("u0", "u1"), ("u1", "u2")])
    store = precompute(corpus, HashedNgramEncoder(dim=4))
    config = TrainConfig(hops=2, history_len=2, embed_dim=4, hidden_dim=2)

    tracer = tracing.Tracer()
    embedded = set()
    layers.instrument(tracer, embedded)
    try:
        assert all(owner.__dict__[attr] is not original
                   for (owner, attr), original in zip(HOOKS, originals))
        probs = model.forward(posts[-1], graph, corpus, store, ModelParams(config),
                              config).probabilities
    finally:
        tracer.close()
    assert all(owner.__dict__[attr] is original
               for (owner, attr), original in zip(HOOKS, originals))
    assert abs(probs.sum() - 1.0) <= 1e-12 and np.all(np.isfinite(probs))
    metrics = layers.per_layer_metrics(tracer, embedded, samples=1, extra={})
    assert metrics["model.forward_p50_ms"]["value"] > 0
    assert metrics["embed.embed_post_calls"]["value"] >= 1
