"""Interaction and follower graph construction plus k-hop neighborhood queries.

The pipeline is: count pairwise interactions into a weighted undirected graph,
prune weak edges, keep the largest connected component, then (optionally)
restrict a follower edge list to those core users and keep its largest
component. The result is a :class:`SocialGraph`, index arrays in CSR form,
the input the stance encoder aggregates over. Balls and exact-distance
shells all come from one vectorized frontier BFS, :func:`exact_shells`,
which sample compilation also runs inside each ball; components come from
vectorized min-label hooking (FastSV).
"""

import operator
from dataclasses import dataclass

import numpy as np

from .errors import InputDataError

INTERACTION_HEADER = "source,target,kind,timestamp"
FOLLOWER_HEADER = "u,v"
INTERACTION_KINDS = ("retweet", "mention")


@dataclass(frozen=True)
class InteractionRecord:
    source: str
    target: str
    kind: str
    timestamp: int


class WeightedGraph:
    """Undirected graph with integer edge weights (interaction counts)."""

    def __init__(self):
        self.nodes = set()
        self._weights = {}

    @staticmethod
    def _key(u, v):
        return (u, v) if u <= v else (v, u)

    def add_edge(self, u, v, weight=1):
        if u == v:
            raise ValueError("self-edges are not allowed")
        self.nodes.add(u)
        self.nodes.add(v)
        key = self._key(u, v)
        self._weights[key] = self._weights.get(key, 0) + weight

    def weight(self, u, v):
        return self._weights.get(self._key(u, v), 0)

    def edges(self):
        """(u, v, weight) triples with u < v, sorted."""
        return [(u, v, w) for (u, v), w in sorted(self._weights.items())]

    def n_edges(self):
        return len(self._weights)


def load_interactions(path):
    """Read interaction records from CSV (source,target,kind,timestamp).

    Self-interactions are dropped here, so every record relates two distinct
    users. Raises InputDataError with a line number on malformed rows.
    """
    records = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != INTERACTION_HEADER:
            raise InputDataError(
                f"expected header {INTERACTION_HEADER!r}, got {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise InputDataError(f"line {lineno}: expected 4 fields, got {len(parts)}")
            source, target, kind, ts = parts
            if not source or not target:
                raise InputDataError(f"line {lineno}: empty source or target")
            if kind not in INTERACTION_KINDS:
                raise InputDataError(f"line {lineno}: unknown interaction kind {kind!r}")
            try:
                timestamp = int(ts)
            except ValueError:
                raise InputDataError(f"line {lineno}: non-integer timestamp {ts!r}") from None
            if source == target:
                continue
            records.append(InteractionRecord(source, target, kind, timestamp))
    return records


def load_follower_edges(path):
    """Read (u, v) follower pairs from CSV with header u,v."""
    edges = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != FOLLOWER_HEADER:
            raise InputDataError(f"expected header {FOLLOWER_HEADER!r}, got {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2 or not parts[0] or not parts[1]:
                raise InputDataError(f"line {lineno}: expected two non-empty fields")
            edges.append((parts[0], parts[1]))
    return edges


def build_interaction_graph(records) -> WeightedGraph:
    """Count interactions per unordered user pair into edge weights."""
    graph = WeightedGraph()
    for rec in records:
        if rec.source == rec.target:
            continue
        graph.add_edge(rec.source, rec.target)
    return graph


def prune_edges(graph: WeightedGraph, min_weight: int = 2) -> WeightedGraph:
    """Keep edges with weight >= min_weight; every node is retained.

    min_weight=1 is the identity. Nodes whose edges are all pruned stay in
    the graph as isolated nodes; component extraction decides their fate.
    """
    if not min_weight >= 1:
        raise InputDataError("min_weight must be >= 1")
    pruned = WeightedGraph()
    pruned.nodes = set(graph.nodes)
    for u, v, w in graph.edges():
        if w >= min_weight:
            pruned.add_edge(u, v, w)
    return pruned


def largest_weakly_connected_component(graph) -> "SocialGraph":
    """Induced subgraph on the largest component, as a SocialGraph.

    Accepts a WeightedGraph or a SocialGraph; edge weights are not carried
    over (the encoder treats the graph as unweighted). Size ties break
    toward the component containing the smallest node id, so the choice is
    deterministic.
    """
    if not isinstance(graph, SocialGraph):
        graph = SocialGraph(graph._weights, nodes=graph.nodes)
    if not len(graph):
        raise InputDataError("empty graph")
    labels = _component_labels(graph.indptr, graph.indices)
    # A component's label is its smallest index, i.e. its smallest node id,
    # and argmax takes the first of equal sizes.
    root = int(np.argmax(np.bincount(labels)))
    return graph.subgraph(np.flatnonzero(labels == root))


def _component_labels(indptr, indices):
    """Each node's smallest node index in its connected component.

    FastSV (Zhang, Azad & Hu 2020): rounds of min-label hooking along every
    edge and shortcutting to the grandparent label, until the grandparent
    labels stop changing. A round is a few array ops over all edges; a
    20,000-node path with shuffled ids took 15 rounds, not 20,000.
    """
    n = len(indptr) - 1
    sources = np.repeat(np.arange(n), np.diff(indptr))
    labels = np.arange(n)
    grand = labels.copy()
    while True:
        np.minimum.at(labels, labels[sources], grand[indices])
        np.minimum.at(labels, sources, grand[indices])
        np.minimum(labels, grand, out=labels)
        new = labels[labels]
        if np.array_equal(new, grand):
            return labels
        grand = new


def _ranges(starts, counts):
    """The concatenation of arange(s, s + c) over (starts, counts)."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total) + np.repeat(starts - (ends - counts), counts)


def _run_starts(keys):
    """Mask of the first entry of each run of equal values in sorted keys."""
    starts = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    return starts


def exact_shells(indptr, indices, centers, depth: int):
    """Exact-distance shells around every center, by one frontier BFS.

    indptr/indices is an undirected graph in CSR form. All centers expand
    together: the frontier holds (slot, node) pairs keyed slot * n + node.
    Returns one (slots, nodes) pair of int arrays per distance 1..depth,
    sorted by slot then node: nodes[i] is at distance exactly that order
    from centers[slots[i]]. Orders past the graph's reach are empty.
    """
    n = len(indptr) - 1
    frontier = np.arange(len(centers)) * n + np.asarray(centers, dtype=np.intp)
    seen = frontier
    shells = []
    while frontier.size and len(shells) < depth:
        slots, nodes = np.divmod(frontier, n)
        starts = indptr[nodes]
        counts = indptr[nodes + 1] - starts
        reached = np.repeat(slots * n, counts) + indices[_ranges(starts, counts)]
        # One sort of the seen keys (flag bit 0) with the reached ones (flag
        # bit 1): a key is fresh iff the first entry of its run has flag 1.
        # np.unique plus a seen lookup was several times slower (its
        # hash-based path on numpy 2.4 is slow on int keys).
        merged = np.concatenate([seen * 2, reached * 2 + 1])
        merged.sort()
        merged = merged[_run_starts(merged >> 1)]
        seen = merged >> 1
        frontier = merged[(merged & 1) == 1] >> 1
        shells.append(np.divmod(frontier, n))
    empty = np.zeros(0, dtype=np.intp)
    return shells + [(empty, empty)] * (depth - len(shells))


def induced_csr(indptr, indices, keep):
    """CSR of the subgraph induced by the sorted node indices `keep`, its
    nodes renumbered 0..len(keep)-1 in the same order."""
    starts = indptr[keep]
    counts = indptr[keep + 1] - starts
    targets = indices[_ranges(starts, counts)]
    sources = np.repeat(np.arange(len(keep)), counts)
    pos = np.minimum(np.searchsorted(keep, targets), max(len(keep) - 1, 0))
    inside = keep[pos] == targets
    degree = np.bincount(sources[inside], minlength=len(keep))
    return np.concatenate([[0], np.cumsum(degree)]), pos[inside]


class SocialGraph:
    """Undirected social graph in CSR form over its sorted node ids.

    Node i is node_ids[i]; its neighbours are indices[indptr[i]:indptr[i +
    1]], ascending, so index order is also node-id order. Names are mapped
    to indices only at the API edge. Every neighbourhood query runs through
    exact_shells and nothing is cached.
    """

    def __init__(self, edges, nodes=()):
        edges = [(u, v) for u, v in edges]
        us = [u for u, _ in edges]
        vs = [v for _, v in edges]
        if any(map(operator.eq, us, vs)):
            raise ValueError("self-edges are not allowed")
        self._set_nodes(tuple(sorted({*nodes, *us, *vs})))
        n = len(self.node_ids)
        us = np.fromiter(map(self._index.__getitem__, us), np.intp, len(us))
        vs = np.fromiter(map(self._index.__getitem__, vs), np.intp, len(vs))
        keys = np.concatenate([us * n + vs, vs * n + us])
        keys.sort()
        keys = keys[_run_starts(keys)]
        rows, self.indices = np.divmod(keys, max(n, 1))
        self.indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])

    def _set_nodes(self, node_ids):
        self.node_ids = node_ids
        self._index = {node: i for i, node in enumerate(node_ids)}

    def subgraph(self, keep) -> "SocialGraph":
        """The subgraph induced by the sorted node indices `keep`."""
        graph = SocialGraph.__new__(SocialGraph)
        graph._set_nodes(tuple(self.node_ids[i] for i in keep.tolist()))
        graph.indptr, graph.indices = induced_csr(self.indptr, self.indices, keep)
        return graph

    def __len__(self):
        return len(self.node_ids)

    def __contains__(self, node):
        return node in self._index

    def index(self, node) -> int:
        """Position of node in the sorted node_ids tuple."""
        if node not in self._index:
            raise KeyError(f"user not in social graph: {node!r}")
        return self._index[node]

    def neighbors(self, node):
        i = self.index(node)
        return tuple(self.node_ids[j]
                     for j in self.indices[self.indptr[i]:self.indptr[i + 1]].tolist())

    def degree(self, node) -> int:
        i = self.index(node)
        return int(self.indptr[i + 1] - self.indptr[i])

    def n_edges(self) -> int:
        return len(self.indices) // 2

    def edges(self):
        """(u, v) pairs with u < v, sorted."""
        sources = np.repeat(np.arange(len(self)), np.diff(self.indptr))
        upper = sources < self.indices
        names = self.node_ids
        return [(names[u], names[v])
                for u, v in zip(sources[upper].tolist(), self.indices[upper].tolist())]

    def shells(self, node, depth: int):
        """Exact-distance neighbor sets at distances 1..depth (BFS layers)."""
        if depth < 1:
            raise ValueError("depth must be >= 1")
        reached = exact_shells(self.indptr, self.indices, [self.index(node)], depth)
        names = self.node_ids
        # Orders past the graph's radius are empty, so callers can zip
        # shells with per-order parameters.
        return tuple(frozenset(names[i] for i in nodes.tolist()) for _, nodes in reached)


def khop_neighborhood(graph: SocialGraph, node, k: int):
    """The closed ball {u : d(u, node) <= k}; always contains the node.

    k=0 gives {node}. Unknown nodes raise KeyError.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    out = {node}
    if node not in graph:
        raise KeyError(f"user not in social graph: {node!r}")
    if k:
        for shell in graph.shells(node, k):
            out |= shell
    return out


def exact_order_neighborhood(graph: SocialGraph, node, order: int):
    """Nodes at distance exactly `order` from `node`; order 0 gives {node}."""
    if order < 0:
        raise ValueError("order must be >= 0")
    if node not in graph:
        raise KeyError(f"user not in social graph: {node!r}")
    if order == 0:
        return {node}
    return set(graph.shells(node, order)[order - 1])


def induced_subgraph(graph: SocialGraph, nodes) -> SocialGraph:
    """Subgraph on `nodes`, keeping edges with both endpoints inside."""
    keep = set(nodes)
    missing = [node for node in keep if node not in graph]
    if missing:
        raise KeyError(f"user not in social graph: {sorted(missing)[0]!r}")
    return graph.subgraph(np.sort(np.fromiter(map(graph.index, keep), np.intp, len(keep))))


def build_social_graph(records, follower_edges=None, min_weight: int = 2) -> SocialGraph:
    """End-to-end graph construction.

    Interaction counting, edge pruning at min_weight, and largest-component
    extraction come first. When follower_edges is given, those edges are
    restricted to the interaction core's users and the largest component of
    that follower graph becomes the result; follower direction is ignored.
    """
    if not records:
        raise InputDataError("no interaction records")
    interaction = build_interaction_graph(records)
    core = largest_weakly_connected_component(prune_edges(interaction, min_weight))
    if follower_edges is None:
        return core
    keep = set(core.node_ids)
    pairs = [(u, v) for u, v in follower_edges if u != v and u in keep and v in keep]
    if not pairs:
        raise InputDataError("empty graph: no follower edges among core users")
    return largest_weakly_connected_component(SocialGraph(pairs))


@dataclass(frozen=True)
class GraphStats:
    n_nodes: int
    n_edges: int
    avg_degree: float

    def as_dict(self):
        return {"n_nodes": self.n_nodes, "n_edges": self.n_edges,
                "avg_degree": self.avg_degree}


def graph_stats(graph) -> GraphStats:
    """Node count, edge count, and mean degree of either graph type."""
    if isinstance(graph, SocialGraph):
        n, e = len(graph), graph.n_edges()
    else:
        n, e = len(graph.nodes), graph.n_edges()
    avg = (2.0 * e / n) if n else 0.0
    return GraphStats(n_nodes=n, n_edges=e, avg_degree=avg)


def write_edge_list(graph: SocialGraph, path) -> None:
    """Write the undirected edge list as CSV with header u,v."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(FOLLOWER_HEADER + "\n")
        for u, v in graph.edges():
            fh.write(f"{u},{v}\n")


def write_nodes(graph: SocialGraph, path) -> None:
    """Write the node set, one id per line, sorted."""
    with open(path, "w", encoding="utf-8") as fh:
        for node in graph.node_ids:
            fh.write(f"{node}\n")


def load_edge_list(path, nodes_path=None) -> SocialGraph:
    """Rebuild a SocialGraph from a write_edge_list file.

    A nodes file restores isolated nodes the edge list cannot carry.
    """
    nodes = ()
    if nodes_path is not None:
        with open(nodes_path, encoding="utf-8") as fh:
            nodes = [line.strip() for line in fh if line.strip()]
    return SocialGraph(load_follower_edges(path), nodes=nodes)
