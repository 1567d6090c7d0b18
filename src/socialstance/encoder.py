"""Reference operations for the heterophily-aware social encoder.

These are straight-line numpy implementations of the encoder pieces: position
weighted history aggregation, single-head graph attention over one
exact-distance shell, the per-layer combine across shells, and the full
multi-layer encode. The training engine in model.py computes the same
functions on compiled per-sample graphs; tests hold the two routes against
each other.

Layer structure: the layer-0 state is a projection of the node's history
vector. Layer l maps every node's previous state through k shell aggregates
(one per exact distance 1..k, each with its own projection and, for GAT,
attention parameters) and concatenates them, so each layer emits k*h values
per node and the final per-node code is [H^0 || H^1 || ... || H^k] with
h * (1 + k^2) entries. The node's own state never enters the aggregates;
keeping the ego channel separate from neighbor channels is what lets the
model use anti-correlated (heterophilous) neighborhoods as signal.
"""

from dataclasses import dataclass

import numpy as np

AGGREGATOR_KINDS = ("gat", "gcn")
LEAKY_SLOPE = 0.2  # negative-side slope of the attention scores' LeakyReLU


def code_dim(hidden_dim: int, hops: int) -> int:
    """Width h * (1 + k^2) of the final per-node code [H^0 || ... || H^k]."""
    return hidden_dim * (1 + hops ** 2)


def init_position_weights(history_len: int) -> np.ndarray:
    """Uniform initial weights over history positions (most recent first)."""
    if history_len < 1:
        raise ValueError("history_len must be >= 1")
    return np.full(history_len, 1.0 / history_len, dtype=np.float64)


def aggregate_history_pe(history, weights, dim: int | None = None) -> np.ndarray:
    """Position-weighted sum of a user's recent post embeddings.

    history holds up to len(weights) vectors, most recent first; slot m is
    scaled by weights[m] and missing trailing slots contribute zero. An empty
    history yields the zero vector, which is why `dim` must be supplied when
    history can be empty.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 1 or weights.size < 1:
        raise ValueError("weights must be a non-empty vector")
    if len(history) > weights.size:
        raise ValueError(
            f"history has {len(history)} entries but only {weights.size} positions")
    if not history:
        if dim is None:
            raise ValueError("dim is required for an empty history")
        return np.zeros(dim, dtype=np.float64)
    vecs = [np.asarray(v, dtype=np.float64) for v in history]
    width = vecs[0].shape[0] if dim is None else dim
    for v in vecs:
        if v.shape != (width,):
            raise ValueError(f"history vector of shape {v.shape}, expected ({width},)")
    out = np.zeros(width, dtype=np.float64)
    for m, vec in enumerate(vecs):
        out += weights[m] * vec
    return out


def aggregate_history_mean(history, dim: int | None = None) -> np.ndarray:
    """Arithmetic mean of the available history vectors; empty -> zeros."""
    if not history:
        if dim is None:
            raise ValueError("dim is required for an empty history")
        return np.zeros(dim, dtype=np.float64)
    vecs = [np.asarray(v, dtype=np.float64) for v in history]
    width = vecs[0].shape[0] if dim is None else dim
    for v in vecs:
        if v.shape != (width,):
            raise ValueError(f"history vector of shape {v.shape}, expected ({width},)")
    return np.mean(np.stack(vecs), axis=0)


@dataclass
class AggregateParams:
    """Projection and (GAT only) attention parameters of one (layer, order)
    aggregate.

    w_proj: (in_dim, h) projection applied to center and neighbor states.
    attn:   (2h,) attention vector scoring [projected center || projected
            neighbor]; None for the mean ("gcn") aggregate, which has no
            attention.
    """

    w_proj: np.ndarray
    attn: np.ndarray | None = None

    def __post_init__(self):
        self.w_proj = np.asarray(self.w_proj, dtype=np.float64)
        if self.w_proj.ndim != 2:
            raise ValueError("w_proj must be a matrix")
        if self.attn is None:
            return
        self.attn = np.asarray(self.attn, dtype=np.float64)
        if self.attn.shape != (2 * self.w_proj.shape[1],):
            raise ValueError(
                f"attn must have shape ({2 * self.w_proj.shape[1]},), got {self.attn.shape}")

    @property
    def out_dim(self) -> int:
        return self.w_proj.shape[1]


def _leaky_relu(x, slope):
    return np.where(x > 0, x, slope * x)


def _canonical_rows(matrix: np.ndarray) -> np.ndarray:
    """Rows sorted lexicographically.

    Aggregates sum over neighbors; fixing a canonical row order makes them
    invariant to the caller's neighbor order bit-for-bit, not just up to
    float round-off.
    """
    if matrix.shape[0] < 2:
        return matrix
    order = np.lexsort(matrix.T[::-1])
    return matrix[order]


def gat_attention(center_state, neighbor_states, params: AggregateParams) -> np.ndarray:
    """Softmax attention weights of one center over its shell members.

    Scores are LeakyReLU(attn . [W c || W n_j]) with a single head; the
    softmax is computed max-shifted. Weights are returned in the canonical
    (lexicographically sorted) neighbor order used by gat_aggregate.
    """
    center = np.asarray(center_state, dtype=np.float64)
    neighbors = _canonical_rows(np.asarray(neighbor_states, dtype=np.float64))
    if neighbors.ndim != 2 or neighbors.shape[0] == 0:
        raise ValueError("neighbor_states must be a non-empty matrix")
    if params.attn is None:
        raise ValueError("gat attention needs attn")
    h = params.out_dim
    proj_center = center @ params.w_proj
    proj_neigh = neighbors @ params.w_proj
    scores = _leaky_relu(
        proj_center @ params.attn[:h] + proj_neigh @ params.attn[h:], LEAKY_SLOPE)
    scores -= np.max(scores)
    exp = np.exp(scores)
    return exp / np.sum(exp)


def gat_aggregate(center_state, neighbor_states, params: AggregateParams) -> np.ndarray:
    """Attention-weighted sum of projected neighbor states.

    The center state only steers the attention scores; the output mixes
    neighbor projections alone. An empty shell aggregates to zeros.
    """
    center = np.asarray(center_state, dtype=np.float64)
    if len(neighbor_states) == 0:
        return np.zeros(params.out_dim, dtype=np.float64)
    neighbors = _canonical_rows(np.asarray(neighbor_states, dtype=np.float64))
    weights = gat_attention(center, neighbors, params)
    return weights @ (neighbors @ params.w_proj)


def gcn_aggregate(neighbor_states, w_proj) -> np.ndarray:
    """Mean of projected neighbor states; empty shell -> zeros."""
    w_proj = np.asarray(w_proj, dtype=np.float64)
    if len(neighbor_states) == 0:
        return np.zeros(w_proj.shape[1], dtype=np.float64)
    neighbors = _canonical_rows(np.asarray(neighbor_states, dtype=np.float64))
    return np.mean(neighbors @ w_proj, axis=0)


def h2_layer(graph, states: np.ndarray, layer_params, kind: str = "gat") -> np.ndarray:
    """One encoder layer: per-shell aggregates, concatenated per node.

    states has one row per graph node in graph.node_ids order. layer_params
    holds one AggregateParams per exact distance 1..k. Output is
    (n_nodes, k*h). The ego state is deliberately absent from every shell.
    """
    if kind not in AGGREGATOR_KINDS:
        raise ValueError(f"unknown aggregator kind {kind!r}")
    states = np.asarray(states, dtype=np.float64)
    if states.shape[0] != len(graph):
        raise ValueError(
            f"states has {states.shape[0]} rows for a graph of {len(graph)} nodes")
    k = len(layer_params)
    if k < 1:
        raise ValueError("layer_params must be non-empty")
    h = layer_params[0].out_dim
    for p in layer_params:
        if p.out_dim != h:
            raise ValueError("all orders of a layer must share the output width")
        if p.w_proj.shape[0] != states.shape[1]:
            raise ValueError(
                f"w_proj expects input dim {p.w_proj.shape[0]}, states have {states.shape[1]}")
        if kind == "gat" and p.attn is None:
            raise ValueError("the gat aggregator needs attn in every AggregateParams")
    out = np.zeros((len(graph), k * h), dtype=np.float64)
    for i, node in enumerate(graph.node_ids):
        shells = graph.shells(node, k)
        for order_idx, params in enumerate(layer_params):
            members = sorted(shells[order_idx])
            rows = states[[graph.index(m) for m in members]]
            if kind == "gat":
                agg = gat_aggregate(states[i], rows, params)
            else:
                agg = gcn_aggregate(rows, params.w_proj)
            out[i, order_idx * h:(order_idx + 1) * h] = agg
    return out


@dataclass
class EncoderParams:
    """Input projection plus per-layer, per-order aggregate parameters.

    layers[l][o] holds the AggregateParams of layer l+1, exact distance o+1.
    Every layer must carry one entry per distance 1..k where k equals the
    number of layers.
    """

    w_in: np.ndarray
    b_in: np.ndarray
    layers: list

    def __post_init__(self):
        self.w_in = np.asarray(self.w_in, dtype=np.float64)
        self.b_in = np.asarray(self.b_in, dtype=np.float64)
        if self.w_in.ndim != 2 or self.b_in.shape != (self.w_in.shape[1],):
            raise ValueError("w_in must be (d, h) and b_in (h,)")
        k = len(self.layers)
        for layer in self.layers:
            if len(layer) != k:
                raise ValueError("each layer needs one aggregate per distance 1..k")

    @property
    def hops(self) -> int:
        return len(self.layers)

    @property
    def hidden_dim(self) -> int:
        return self.w_in.shape[1]

    @property
    def out_dim(self) -> int:
        return code_dim(self.hidden_dim, self.hops)


def social_encode(graph, z_hist: np.ndarray, params: EncoderParams,
                  kind: str = "gat") -> np.ndarray:
    """Full encoder: input projection, k layers, concat of all layer states.

    z_hist is (n_nodes, d) in graph.node_ids order; the result is
    (n_nodes, h * (1 + k^2)).
    """
    z_hist = np.asarray(z_hist, dtype=np.float64)
    if z_hist.shape != (len(graph), params.w_in.shape[0]):
        raise ValueError(
            f"z_hist must be ({len(graph)}, {params.w_in.shape[0]}), got {z_hist.shape}")
    state = z_hist @ params.w_in + params.b_in
    collected = [state]
    for layer_params in params.layers:
        state = h2_layer(graph, state, layer_params, kind=kind)
        collected.append(state)
    return np.concatenate(collected, axis=1)
