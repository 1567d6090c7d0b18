"""Stance classification model and training loop.

A labelled post is classified from two signals: the text embedding of the
post itself and a social code built by running a shell-attention encoder
over the author's k-hop neighborhood, where every neighborhood node is
summarized by a position-weighted aggregate of its recent post history.

Each post is first compiled into index arrays, with array operations and
no per-node Python loop, in two halves. The per-author half,
_compile_balls, builds the k-hop balls of many authors at once: one
frontier BFS from every author over the graph's CSR arrays gives the
balls, and one more BFS for each chunk of balls, from every row of the
union of the subgraphs they induce, gives the exact-distance shell
edges between all pairs of every ball's nodes. The per-post half,
_compile_post, gathers each ball node's last history_len posts before
the post's timestamp by the corpus's one batch history query,
Corpus.history_at, addressed by the corpus's join of graph node indices
to author codes (built once per graph), their vectors by one gather from
the corpus's memo for the provider (a store's own matrix, read in
place), and the post's own embedding. _compile_samples runs both for a
batch of posts at a time. forward_author runs the ball half once for all
of one author's posts (forward is it on one post), which is why CLI
classify groups a corpus by author: the ball is most of compile, and an
author with four posts would otherwise build it four times. One batched
forward, _batch_logits, then joins a batch of compiled posts into one
block-diagonal graph (each ball's node indices offset by the sizes of
the balls before it, in one whole-array add), encodes it and applies a
linear head to [z_social || z_text] at the author rows. Each (layer,
order) shell aggregate is one fused autograd op, autograd.shell_aggregate,
over an autograd.Shell. train, loss, gradients, evaluate and forward (a
batch of one) all run it through the autograd engine, so analytic
gradients come from the exact inference path. Logits become
probabilities through metrics.softmax, which gbdt shares. train() is the
one training path, and sweep is one train() call per grid cell.

reference_probabilities() recomputes forward() by composing the public
numpy ops from encoder.py; tests hold the two routes to 1e-10.
"""

import itertools
import json
import math
import zipfile
import zlib
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .corpus import StanceLabel, recent_posts
from .encoder import (AGGREGATOR_KINDS, AggregateParams, EncoderParams,
                      aggregate_history_mean, aggregate_history_pe, code_dim,
                      init_position_weights, social_encode)
from .errors import (InputDataError, TrainingDivergedError, checked_fields,
                     write_csv)
from .metrics import PROB_FLOOR, softmax, stance_report
from .socialgraph import (exact_shells, induced_csr, induced_subgraph,
                          khop_neighborhood)

HISTORY_KINDS = ("pe", "mean")
N_CLASSES = len(StanceLabel)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
CHECKPOINT_VERSION = 1
METRIC_LOG_HEADER = "epoch,train_loss,val_accuracy"
BASELINE_EPOCHS, BASELINE_LEARNING_RATE = 300, 0.05  # train_text_baseline's Adam


@dataclass
class TrainConfig:
    """Hyperparameters and data handling for one training run.

    hops is both the encoder depth and the shell range of every layer.
    history_len caps how many recent posts form a node's history vector.
    aggregator picks attention ("gat") or mean ("gcn") shell pooling;
    history picks trainable position weights ("pe") or a plain mean.
    """

    epochs: int = 400
    learning_rate: float = 1e-5
    weight_decay: float = 5e-4
    hops: int = 2
    history_len: int = 3
    embed_dim: int = 64
    hidden_dim: int = 64
    batch_size: int = 32
    seed: int = 0
    split: tuple = (0.8, 0.1, 0.1)
    aggregator: str = "gat"
    history: str = "pe"

    def __post_init__(self):
        checked_fields(self)
        # Written as "not (wanted)" so that NaN, which fails every
        # comparison, is rejected too.
        for name in ("epochs", "hops", "history_len", "embed_dim", "hidden_dim",
                     "batch_size"):
            if not getattr(self, name) >= 1:
                raise InputDataError(f"{name} must be >= 1")
        if not self.seed >= 0:
            raise InputDataError("seed must be >= 0")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise InputDataError("learning_rate must be finite and positive")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise InputDataError("weight_decay must be finite and non-negative")
        if self.aggregator not in AGGREGATOR_KINDS:
            raise InputDataError(f"unknown aggregator {self.aggregator!r}")
        if self.history not in HISTORY_KINDS:
            raise InputDataError(f"unknown history kind {self.history!r}")
        self.split = _split_fractions(self.split)

    def as_dict(self):
        out = {k: getattr(self, k) for k in self.__dataclass_fields__}
        out["split"] = list(self.split)
        return out

    @classmethod
    def from_dict(cls, data):
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise InputDataError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


def _split_fractions(fractions) -> tuple:
    """The train/val/test fractions as three floats, each finite and
    positive, summing to 1; InputDataError otherwise."""
    fractions = tuple(float(f) for f in fractions)
    if not (len(fractions) == 3
            and all(math.isfinite(f) and f > 0 for f in fractions)):
        raise InputDataError("split must be three finite positive fractions")
    if not abs(sum(fractions) - 1.0) <= 1e-9:
        raise InputDataError("split fractions must sum to 1")
    return fractions


def _xavier(rng, fan_in: int, fan_out: int, shape) -> np.ndarray:
    """Xavier-uniform draws of `shape` from the numpy Generator rng."""
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


@dataclass(frozen=True)
class Prediction:
    probabilities: np.ndarray  # (N_CLASSES,), sums to 1
    label: StanceLabel


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_accuracy: float


def social_code_dim(config: TrainConfig) -> int:
    return code_dim(config.hidden_dim, config.hops)


class ModelParams:
    """Named float64 parameter arrays of one model instance.

    tensors maps names ("position_weights", "input.w", "layer1.order2.a",
    "head.w", ...) to the live arrays; the optimizer updates them in place.
    The mean-history variant carries no position_weights entry, and only
    the attention ("gat") aggregator carries the ".a" attention vectors.
    """

    def __init__(self, config: TrainConfig, tensors=None):
        self.config = config
        if tensors is not None:
            self.tensors = {k: np.asarray(v, dtype=np.float64) for k, v in tensors.items()}
            return
        rng = np.random.default_rng(config.seed)
        d, h, k = config.embed_dim, config.hidden_dim, config.hops
        self.tensors = {}
        if config.history == "pe":
            self.tensors["position_weights"] = init_position_weights(config.history_len)
        self.tensors["input.w"] = _xavier(rng, d, h, (d, h))
        self.tensors["input.b"] = np.zeros(h, dtype=np.float64)
        for layer in range(1, k + 1):
            in_dim = h if layer == 1 else k * h
            for order in range(1, k + 1):
                base = f"layer{layer}.order{order}"
                self.tensors[base + ".w"] = _xavier(rng, in_dim, h, (in_dim, h))
                if config.aggregator == "gat":
                    self.tensors[base + ".a"] = _xavier(rng, 2 * h, 1, (2 * h,))
        z_dim = social_code_dim(config) + d
        self.tensors["head.w"] = _xavier(rng, z_dim, N_CLASSES, (z_dim, N_CLASSES))
        self.tensors["head.b"] = np.zeros(N_CLASSES, dtype=np.float64)

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, {k: v.copy() for k, v in self.tensors.items()})

    def encoder_params(self) -> EncoderParams:
        """View the encoder slice of the tensors as public EncoderParams."""
        k = self.config.hops
        layers = []
        for layer in range(1, k + 1):
            layers.append([
                AggregateParams(
                    w_proj=self.tensors[f"layer{layer}.order{order}.w"],
                    attn=self.tensors.get(f"layer{layer}.order{order}.a"),
                )
                for order in range(1, k + 1)
            ])
        return EncoderParams(w_in=self.tensors["input.w"],
                             b_in=self.tensors["input.b"], layers=layers)


# -- sample compilation ------------------------------------------------------


class _Ball(NamedTuple):
    """The per-author half of a compiled sample: the sorted graph node
    indices of the author's k-hop ball, the author's row in it, and the
    exact-distance shell edges between its rows."""

    nodes: np.ndarray
    author_row: int
    shell_edges: tuple        # per order: (centers, neighbors) int arrays


@dataclass
class _CompiledSample:
    post_id: str
    ball: _Ball
    hist: np.ndarray          # (B, history_len, d); zero-padded slots
    hist_counts: np.ndarray   # (B,) available history lengths
    z_text: np.ndarray        # (d,)
    gold: int | None


def _check_provider(provider, config: TrainConfig) -> None:
    if provider.dim != config.embed_dim:
        raise InputDataError(
            f"provider dim {provider.dim} != config embed_dim {config.embed_dim}")


def _chunks(sizes, n: int):
    """(first, last) runs of consecutive balls that compile as one: a run's
    position map (balls x n cells) and its pair cells (the sum of its
    squared ball sizes, a bound on its shell pairs and so on its BFS
    arrays) stay within ag.DENSE_MAX_CELLS, but for a ball that alone
    exceeds it."""
    first = cells = 0
    for last, size in enumerate(sizes):
        cells += size * size
        if last > first and ((last - first + 1) * n > ag.DENSE_MAX_CELLS
                             or cells > ag.DENSE_MAX_CELLS):
            yield first, last
            first, cells = last, size * size
    if first < len(sizes):
        yield first, len(sizes)


def _compile_balls(author_ids, graph, hops: int) -> list:
    """The _Ball of each author, in order: they depend on the author and
    hops alone, not on the post.

    One exact_shells call from every author at once gives every ball,
    keyed slot * n + node. Then each chunk of balls (_chunks) takes three
    whole-array steps. induced_csr joins the subgraphs its balls induce
    into one CSR over their (ball, node) rows. One exact_shells call from
    every row of that union gives every ball's shells, since no edge
    leaves a ball, with pairs sorted by (center, neighbor). Last, the rows
    split back into balls: each ball's arrays are slices of the chunk's,
    renumbered from 0 in place.
    """
    n = len(graph)
    authors = np.array([graph.index(author_id) for author_id in author_ids], dtype=np.intp)
    bases = np.arange(authors.size) * n
    own = bases + authors
    reached = exact_shells(graph.indptr, graph.indices, authors, hops)
    keys = np.concatenate([own] + [s * n + v for s, v in reached])
    keys.sort()
    # Ball i holds keys[bounds[i]:bounds[i + 1]], its author at author_rows[i].
    found = np.searchsorted(keys, np.concatenate([own, bases + n])).tolist()
    author_rows, bounds = found[:authors.size], [0] + found[authors.size:]
    balls = []
    for first, last in _chunks([b - a for a, b in zip(bounds, bounds[1:])], n):
        union = keys[bounds[first]:bounds[last]] - first * n
        union_indptr, union_indices = induced_csr(graph.indptr, graph.indices, union)
        shells = exact_shells(union_indptr, union_indices, np.arange(union.size), hops)
        nodes = union % n
        rows = [bound - bounds[first] for bound in bounds[first:last + 1]]
        cuts = [np.searchsorted(centers, rows).tolist() for centers, _ in shells]
        for i, row in enumerate(rows[:-1]):
            edges = []
            for (centers, neighbors), cut in zip(shells, cuts):
                pair = centers[cut[i]:cut[i + 1]], neighbors[cut[i]:cut[i + 1]]
                if row:  # the chunk's first ball starts at row 0
                    for array in pair:
                        array -= row
                edges.append(pair)
            balls.append(_Ball(nodes[row:rows[i + 1]], author_rows[first + i] - bounds[first + i],
                               tuple(edges)))
    return balls


def _compile_post(post, ball: _Ball, graph, corpus, provider,
                  config: TrainConfig) -> _CompiledSample:
    """The per-post half: the ball's history before the post's timestamp,
    its embeddings and the post's own. Every engine path compiles its posts
    here, so the provider's dimension is checked here and nowhere else in
    the engine."""
    _check_provider(provider, config)
    lam = config.history_len
    rows, counts = corpus.history_at(corpus.graph_authors(graph)[ball.nodes],
                                     post.timestamp, lam)
    real = rows >= 0
    matrix, where = corpus.embeddings(provider, rows[real])
    hist = np.zeros((ball.nodes.size, lam, config.embed_dim), dtype=np.float64)
    hist[real] = matrix[where]
    return _CompiledSample(
        post_id=post.id,
        ball=ball,
        hist=hist,
        hist_counts=counts,
        z_text=np.asarray(provider.embed_post(post), dtype=np.float64),
        gold=None if post.label is None else int(post.label),
    )


def _compile_samples(posts, graph, corpus, provider, config: TrainConfig) -> list:
    """Each post compiled whole, in order, batch_size posts at a time: the
    batch's balls from one _compile_balls call, then each post's history.

    train, loss, gradients and evaluate compile their posts this way;
    forward_author builds one ball for all of an author's posts. Errors
    come in post order, as a post-by-post compile gives them: a post whose
    author is not a graph node raises its KeyError only once the posts
    before it have compiled."""
    samples = []
    for start in range(0, len(posts), config.batch_size):
        batch = posts[start:start + config.batch_size]
        known = list(itertools.takewhile(lambda post: post.author_id in graph, batch))
        balls = _compile_balls([post.author_id for post in known], graph, config.hops)
        samples += [_compile_post(post, ball, graph, corpus, provider, config)
                    for post, ball in zip(known, balls)]
        if len(known) < len(batch):
            graph.index(batch[len(known)].author_id)
    return samples


# -- engine ------------------------------------------------------------------


def _make_tensors(params: ModelParams, requires_grad: bool):
    return {name: Tensor(arr, requires_grad=requires_grad)
            for name, arr in params.tensors.items()}


def _batch_logits(ts, samples, config: TrainConfig) -> Tensor:
    """Logits (S, N_CLASSES) of S compiled samples, run as one disjoint-union graph.

    Each sample's ball becomes a block of rows offset by the sizes of the
    balls before it, so shell edges never cross samples and every op runs
    once for the whole batch. Each shell carries the batch's padded blocks
    from ag.dense_blocks, for the aggregate's dense layout.
    """
    if not samples:
        raise ValueError("empty batch")
    k, n_samples = config.hops, len(samples)
    balls = [sample.ball for sample in samples]
    sizes = np.array([ball.nodes.size for ball in balls])
    offsets = np.cumsum(sizes) - sizes
    n = int(offsets[-1] + sizes[-1])
    authors = offsets + np.array([ball.author_row for ball in balls])
    inner_block, last_block = ag.dense_blocks(sizes, offsets)
    # Only author rows reach the head, so the last layer aggregates just
    # the edges centred on an author, into one row per sample.
    slot = np.full(n, -1)
    slot[authors] = np.arange(n_samples)
    inner, last = [], []
    for order in range(k):
        if n_samples == 1:
            # A lone ball's rows are the batch's: its arrays serve as they are.
            centers, neighbors = balls[0].shell_edges[order]
        else:
            pairs = [ball.shell_edges[order] for ball in balls]
            shift = np.repeat(offsets, [c.size for c, _ in pairs])
            centers = np.concatenate([c for c, _ in pairs])
            centers += shift
            neighbors = np.concatenate([nb for _, nb in pairs])
            neighbors += shift
            del shift  # as long as the batch's pairs: freed before the encoder runs
        inner.append(ag.Shell(centers, neighbors, centers, n, inner_block))
        keep = slot[centers] >= 0
        last.append(ag.Shell(centers[keep], neighbors[keep], slot[centers[keep]], n_samples,
                             last_block))
    hist = np.concatenate([sample.hist for sample in samples])
    if config.history == "pe":
        z_hist = ag.position_sum(ts["position_weights"], hist)
    else:
        counts = np.concatenate([sample.hist_counts for sample in samples])
        z_hist = Tensor(hist.sum(axis=1) / np.maximum(counts, 1)[:, None])
    state = z_hist @ ts["input.w"] + ts["input.b"]
    author_codes = [state[authors]]
    for layer in range(1, k + 1):
        shells = last if layer == k else inner
        state = ag.concat([
            ag.shell_aggregate(state @ ts[f"layer{layer}.order{order}.w"], shell,
                               ts.get(f"layer{layer}.order{order}.a"))
            for order, shell in enumerate(shells, 1)], axis=1)
        author_codes.append(state if layer == k else state[authors])
    z_text = Tensor(np.stack([sample.z_text for sample in samples]))
    z = ag.concat(author_codes + [z_text], axis=1)
    return ag.relu(z) @ ts["head.w"] + ts["head.b"]


def _mean_cross_entropy(logits: Tensor, golds: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy of (S, C) logits against gold class ids."""
    shifted = logits - Tensor(logits.data.max(axis=1, keepdims=True))
    expd = ag.exp(shifted)
    gold_probs = expd[np.arange(len(golds)), golds] / expd.sum(axis=1)
    return -ag.log(ag.clip_min(gold_probs, PROB_FLOOR)).mean()


def _batch_loss(ts, samples, config: TrainConfig) -> Tensor:
    for sample in samples:
        if sample.gold is None:
            raise ValueError(f"post {sample.post_id!r} has no label")
    golds = np.array([sample.gold for sample in samples], dtype=np.intp)
    return _mean_cross_entropy(_batch_logits(ts, samples, config), golds)


def _predicted_labels(ts, samples, config: TrainConfig) -> list:
    """Argmax class of each compiled sample, batch_size samples at a time."""
    labels = []
    for start in range(0, len(samples), config.batch_size):
        probs = softmax(_batch_logits(ts, samples[start:start + config.batch_size],
                                      config).data)
        labels.extend(int(label) for label in np.argmax(probs, axis=1))
    return labels


# -- public inference --------------------------------------------------------


def forward(post, graph, corpus, provider, params: ModelParams,
            config: TrainConfig) -> Prediction:
    """Class probabilities and argmax label for one post: forward_author()
    of that post alone.

    The author must be a node of `graph`; ties in the probabilities resolve
    to the lowest class index.
    """
    return next(forward_author([post], graph, corpus, provider, params, config))


def forward_author(posts, graph, corpus, provider, params: ModelParams,
                   config: TrainConfig):
    """The Prediction of each post, lazily and in order, for posts that
    share one author: the author's ball and shells are built once for all
    of them.

    forward() is this generator on one post, so each prediction is
    byte-identical to forward() of its post; every post runs as a batch of
    one. The ball is built on the first prediction asked for and dropped
    with the generator, so callers that stream one author at a time hold
    one ball at a time.
    """
    posts = list(posts)
    if len({post.author_id for post in posts}) > 1:
        raise ValueError("forward_author takes the posts of one author")
    if not posts:
        return
    ball = _compile_balls([posts[0].author_id], graph, config.hops)[0]
    ts = _make_tensors(params, requires_grad=False)
    for post in posts:
        sample = _compile_post(post, ball, graph, corpus, provider, config)
        probs = softmax(_batch_logits(ts, [sample], config).data[0])
        yield Prediction(probabilities=probs, label=StanceLabel(int(np.argmax(probs))))


def classify(post, graph, corpus, provider, params: ModelParams,
             config: TrainConfig) -> StanceLabel:
    return forward(post, graph, corpus, provider, params, config).label


def loss(batch, graph, corpus, provider, params: ModelParams,
         config: TrainConfig) -> float:
    """Mean cross-entropy of gold labels over a batch of labelled posts."""
    samples = _compile_samples(list(batch), graph, corpus, provider, config)
    ts = _make_tensors(params, requires_grad=False)
    return float(_batch_loss(ts, samples, config).data)


def gradients(batch, graph, corpus, provider, params: ModelParams,
              config: TrainConfig) -> dict:
    """Analytic gradient of loss() for every named parameter.

    Parameters a batch never touches (a shell that is empty in every
    sample) get zero gradients. Non-finite values raise immediately, naming
    the parameter.
    """
    samples = _compile_samples(list(batch), graph, corpus, provider, config)
    ts = _make_tensors(params, requires_grad=True)
    return _gradients_from_samples(ts, samples, config)[1]


def _gradients_from_samples(ts, samples, config):
    """(loss, gradients) of one batch of compiled samples."""
    total = _batch_loss(ts, samples, config)
    if not np.isfinite(total.data):
        raise ValueError("non-finite loss")
    total.backward()
    grads = {}
    for name, tensor in ts.items():
        grad = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        if not np.all(np.isfinite(grad)):
            raise ValueError(f"non-finite gradient for parameter {name!r}")
        grads[name] = grad
    return float(total.data), grads


# -- reference route ---------------------------------------------------------


def reference_probabilities(post, graph, corpus, provider, params: ModelParams,
                            config: TrainConfig) -> np.ndarray:
    """forward() recomputed by composing the public encoder ops.

    Kept deliberately straight-line; tests compare it against forward() so
    the vectorized engine path and the readable path must agree.
    """
    _check_provider(provider, config)
    if post.author_id not in graph:
        raise KeyError(f"user not in social graph: {post.author_id!r}")
    ball = sorted(khop_neighborhood(graph, post.author_id, config.hops))
    sub = induced_subgraph(graph, ball)
    d = config.embed_dim
    rows = []
    for node in sub.node_ids:
        history = [provider.embed_post(p)
                   for p in recent_posts(corpus, node, post.timestamp, config.history_len)]
        if config.history == "pe":
            rows.append(aggregate_history_pe(history, params.tensors["position_weights"], dim=d))
        else:
            rows.append(aggregate_history_mean(history, dim=d))
    codes = social_encode(sub, np.stack(rows), params.encoder_params(),
                          kind=config.aggregator)
    z = np.concatenate([codes[sub.index(post.author_id)], provider.embed_post(post)])
    logits = np.maximum(z, 0.0) @ params.tensors["head.w"] + params.tensors["head.b"]
    return softmax(logits)


# -- optimizer ---------------------------------------------------------------


@dataclass
class AdamState:
    m: dict
    v: dict
    step: int = 0

    @classmethod
    def fresh(cls, tensors) -> "AdamState":
        return cls(m={k: np.zeros_like(a) for k, a in tensors.items()},
                   v={k: np.zeros_like(a) for k, a in tensors.items()})


def adam_step(tensors: dict, grads: dict, state: AdamState, learning_rate: float,
              weight_decay: float = 0.0) -> None:
    """One in-place Adam update (ADAM_BETA1, ADAM_BETA2, ADAM_EPS) with
    decoupled weight decay.

    Decay shrinks the parameter before the moment update (theta -=
    lr * wd * theta), so it never enters the moment estimates.
    """
    state.step += 1
    t = state.step
    for name, arr in tensors.items():
        grad = grads[name]
        if weight_decay:
            arr -= learning_rate * weight_decay * arr
        state.m[name] = ADAM_BETA1 * state.m[name] + (1.0 - ADAM_BETA1) * grad
        state.v[name] = ADAM_BETA2 * state.v[name] + (1.0 - ADAM_BETA2) * grad * grad
        m_hat = state.m[name] / (1.0 - ADAM_BETA1 ** t)
        v_hat = state.v[name] / (1.0 - ADAM_BETA2 ** t)
        arr -= learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


# -- data splitting ----------------------------------------------------------


def split_dataset(items, fractions=TrainConfig.split, seed: int = 0):
    """Shuffle items with the seed and cut at cumulative-floor boundaries.

    Cut points are floor(n*f1) and floor(n*(f1+f2)), so for n=18246 at
    0.8/0.1/0.1 the parts hold 14596/1825/1825 items. Every part must be
    non-empty.
    """
    fractions = _split_fractions(fractions)
    items = list(items)
    n = len(items)
    perm = np.random.default_rng(seed).permutation(n)
    cut1 = math.floor(n * fractions[0])
    cut2 = math.floor(n * (fractions[0] + fractions[1]))
    train = [items[i] for i in perm[:cut1]]
    val = [items[i] for i in perm[cut1:cut2]]
    test = [items[i] for i in perm[cut2:]]
    if not train or not val or not test:
        raise InputDataError(f"split of {n} items leaves an empty part")
    return train, val, test


# -- training ----------------------------------------------------------------


# The float64 cells of the block train() frees before its first batch:
# the engine's cell budget (16 MiB), read once here, so that forcing a
# layout by narrowing or widening ag.DENSE_MAX_CELLS leaves it as it is.
_FREED_BLOCK_CELLS = ag.DENSE_MAX_CELLS


def eligible_training_posts(corpus, graph):
    """Labelled posts whose author is a graph node, in corpus order."""
    return [p for p in corpus.labelled() if p.author_id in graph]


def train(corpus, graph, provider, config: TrainConfig):
    """Train on the corpus's labelled in-graph posts.

    The labelled posts are split train/val/test with the config seed (the
    test part is left untouched for the caller). Minibatch Adam runs for
    config.epochs; the returned parameters are the snapshot with the best
    validation accuracy (earliest epoch wins ties). Also returns the per
    epoch EpochStats list.
    """
    labelled = eligible_training_posts(corpus, graph)
    train_samples, val_samples = (
        _compile_samples(part, graph, corpus, provider, config)
        for part in split_dataset(labelled, config.split, config.seed)[:2])
    val_golds = [sample.gold for sample in val_samples]
    params = ModelParams(config)
    state = AdamState.fresh(params.tensors)
    rng = np.random.default_rng(config.seed)
    logs = []
    best_acc, best_params = -1.0, None
    # glibc's malloc serves a block above its mmap threshold (128 KiB at
    # first) by mmap and unmaps it on free, so every batch would fault its
    # large arrays in anew. Freeing such a block of at most 32 MiB raises
    # the threshold to its size (mallopt(3), M_MMAP_THRESHOLD). One freed
    # block of the engine's cell budget lets the first batch reuse heap
    # memory already; other allocators ignore it.
    np.empty(_FREED_BLOCK_CELLS)
    # A diverging run overflows; the finite checks of the loss and the
    # gradients report that once, instead of a warning per operation.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.epochs + 1):
            order = rng.permutation(len(train_samples))
            batch_losses = []
            for start in range(0, len(order), config.batch_size):
                batch = [train_samples[i] for i in order[start:start + config.batch_size]]
                ts = _make_tensors(params, requires_grad=True)
                try:
                    batch_loss, grads = _gradients_from_samples(ts, batch, config)
                except ValueError as exc:
                    raise TrainingDivergedError(epoch, str(exc)) from None
                adam_step(params.tensors, grads, state, config.learning_rate,
                          config.weight_decay)
                batch_losses.append(batch_loss)
            eval_ts = _make_tensors(params, requires_grad=False)
            val_acc = stance_report(_predicted_labels(eval_ts, val_samples, config),
                                    val_golds).accuracy
            logs.append(EpochStats(epoch=epoch, train_loss=float(np.mean(batch_losses)),
                                   val_accuracy=val_acc))
            if val_acc > best_acc:
                best_acc = val_acc
                best_params = params.copy()
    return best_params, logs


def evaluate(posts, graph, corpus, provider, params: ModelParams,
             config: TrainConfig):
    """MetricReport of the model over labelled posts."""
    posts = list(posts)
    for post in posts:
        if post.label is None:
            raise ValueError(f"post {post.id!r} has no label")
    ts = _make_tensors(params, requires_grad=False)
    preds = []
    for start in range(0, len(posts), config.batch_size):
        batch = _compile_samples(posts[start:start + config.batch_size], graph, corpus,
                                 provider, config)
        preds += _predicted_labels(ts, batch, config)
    return stance_report(preds, [int(post.label) for post in posts])


def sweep(corpus, graph, provider, config: TrainConfig, hops_values,
          history_len_values):
    """Grid over (hops, history_len); reports best validation accuracy.

    Every cell's config is built before any training, so a bad grid value
    fails before the first cell trains. Each cell is then one train()
    call, so a sweep costs the train() runs of its cells.
    """
    cells = [replace(config, hops=hops, history_len=history_len)
             for hops in hops_values for history_len in history_len_values]
    rows = []
    for cell in cells:
        _, logs = train(corpus, graph, provider, cell)
        rows.append({
            "hops": cell.hops,
            "history_len": cell.history_len,
            "val_accuracy": max(stat.val_accuracy for stat in logs),
        })
    return rows


# -- metric log file ---------------------------------------------------------


def save_metric_log(logs, path) -> None:
    """Write EpochStats rows as CSV (epoch,train_loss,val_accuracy)."""
    write_csv(path, METRIC_LOG_HEADER,
              ([stat.epoch, repr(stat.train_loss), repr(stat.val_accuracy)]
               for stat in logs))


# -- checkpoints -------------------------------------------------------------


def save_checkpoint(params: ModelParams, path) -> None:
    """Write parameters plus the config echo; float64 round-trips bit-exactly."""
    meta = json.dumps({
        "format_version": CHECKPOINT_VERSION,
        "config": params.config.as_dict(),
    }, sort_keys=True)
    arrays = {f"param:{name}": arr for name, arr in params.tensors.items()}
    with open(path, "wb") as fh:
        np.savez(fh, __meta__=np.asarray(meta), **arrays)


# Raised by numpy, zipfile and zlib on a damaged, encrypted or unsupported
# archive; zipfile's NotImplementedError is a RuntimeError.
_UNREADABLE = (ValueError, EOFError, zipfile.BadZipFile, zlib.error, RuntimeError)


def _archive_array(data, key):
    """Member `key` of an open .npz archive as an array; None for an object
    array or a member that is damaged or not .npy data."""
    try:
        value = data[key]
    except (*_UNREADABLE, OSError):  # OSError: a member offset outside the file
        return None
    return value if isinstance(value, np.ndarray) else None


def load_checkpoint(path) -> ModelParams:
    try:
        archive = np.load(path, allow_pickle=False)
    except _UNREADABLE:
        archive = None  # text, pickle, empty or broken zip
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise InputDataError(f"not a model checkpoint (not an .npz archive): {path}")
    with archive as data:
        if "__meta__" not in data:
            raise InputDataError("not a model checkpoint (missing metadata)")
        try:
            meta = json.loads(str(_archive_array(data, "__meta__")[()]))
        except (ValueError, TypeError):  # not JSON, or None: not an array
            meta = None
        if not isinstance(meta, dict):
            raise InputDataError("not a model checkpoint (metadata is not a JSON object)")
        if meta.get("format_version") != CHECKPOINT_VERSION:
            raise InputDataError(
                f"unsupported checkpoint version {meta.get('format_version')!r}")
        if not isinstance(meta.get("config"), dict):
            raise InputDataError("checkpoint config is not a JSON object")
        config = TrainConfig.from_dict(meta["config"])
        tensors = {key[len("param:"):]: _archive_array(data, key)
                   for key in data.files if key.startswith("param:")}
    expected = ModelParams(config).tensors
    unexpected = sorted(set(tensors) - set(expected))
    missing = sorted(set(expected) - set(tensors))
    if unexpected or missing:
        raise InputDataError("checkpoint parameter names do not match its config: "
                             f"unexpected {unexpected}, missing {missing}")
    for name, arr in tensors.items():
        if arr is None or arr.shape != expected[name].shape or arr.dtype != np.float64:
            raise InputDataError(
                f"checkpoint parameter {name!r} does not match its config")
        if not np.isfinite(arr).all():
            raise InputDataError(f"checkpoint parameter {name!r} is not finite")
    return ModelParams(config, tensors)


# -- text-only baseline ------------------------------------------------------


def train_text_baseline(posts, provider, config: TrainConfig):
    """Softmax head on the post embedding alone, same split as train().

    Serves as the floor any graph-aware model must beat: it sees z_text and
    nothing else. Full-batch Adam for BASELINE_EPOCHS steps at
    BASELINE_LEARNING_RATE; returns {"w": ..., "b": ...}.
    """
    train_posts, _, _ = split_dataset(posts, config.split, config.seed)
    features = np.stack([provider.embed_post(p) for p in train_posts])
    golds = np.array([int(p.label) for p in train_posts])
    rng = np.random.default_rng(config.seed)
    tensors = {
        "w": _xavier(rng, provider.dim, N_CLASSES, (provider.dim, N_CLASSES)),
        "b": np.zeros(N_CLASSES, dtype=np.float64),
    }
    state = AdamState.fresh(tensors)
    for _ in range(BASELINE_EPOCHS):
        w = Tensor(tensors["w"], requires_grad=True)
        b = Tensor(tensors["b"], requires_grad=True)
        total = _mean_cross_entropy(Tensor(features) @ w + b, golds)
        total.backward()
        adam_step(tensors, {"w": w.grad, "b": b.grad}, state, BASELINE_LEARNING_RATE)
    return tensors


def classify_text_baseline(baseline, post, provider) -> StanceLabel:
    logits = provider.embed_post(post) @ baseline["w"] + baseline["b"]
    return StanceLabel(int(np.argmax(softmax(logits))))
