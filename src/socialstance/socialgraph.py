"""Interaction and follower graph construction plus k-hop neighborhood queries.

load_interactions reads the interaction CSV in chunks of lines into a
columnar :class:`Interactions` table, users coded to sorted integer ids
and timestamps packed in one array; one row function checks each line. build_social_graph works on those
integer pairs: it counts interactions per unordered user pair (one sort of
pair keys), drops weak pairs (a mask over the counts), builds the graph of
the rest and keeps its largest connected component, then (optionally)
restricts a follower edge list to those core users and keeps its largest
component. There is one graph type, :class:`SocialGraph`, index arrays in
CSR form, the input the stance encoder aggregates over. Balls and
exact-distance shells all come from one vectorized frontier BFS,
:func:`exact_shells`, which sample compilation also runs inside each ball;
components come from vectorized min-label hooking (FastSV).
"""

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np

from .errors import InputDataError, checked_header, checked_lines

INTERACTION_HEADER = "source,target,kind,timestamp"
FOLLOWER_HEADER = "u,v"
INTERACTION_KINDS = ("retweet", "mention")
DEFAULT_MIN_WEIGHT = 2  # interactions a user pair needs to become an edge
_KIND_CODES = {kind: code for code, kind in enumerate(INTERACTION_KINDS)}
# Lines parsed and checked together by load_interactions. Small, so that a
# chunk's row tuples are freed before the garbage collector promotes them.
_CHUNK_LINES = 1024


@dataclass(frozen=True)
class InteractionRecord:
    source: str
    target: str
    kind: str
    timestamp: int


@dataclass(frozen=True, eq=False)
class Interactions(Sequence):
    """Interaction records as a read-only columnar table.

    names is the sorted tuple of users; source and target are int arrays of
    indices into it, kind an int array of indices into INTERACTION_KINDS,
    and timestamp one packed array of the timestamps: int64, 8 bytes a
    record, or an object array of Python ints when one of them does not fit
    in int64, so every timestamp stays exact. Item i is the
    InteractionRecord of row i, its timestamp a Python int, and the table
    compares equal to any sequence of equal records.
    """

    names: tuple
    source: np.ndarray
    target: np.ndarray
    kind: np.ndarray
    timestamp: np.ndarray

    def __len__(self):
        return len(self.timestamp)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return InteractionRecord(self.names[self.source[i]], self.names[self.target[i]],
                                 INTERACTION_KINDS[self.kind[i]], int(self.timestamp[i]))

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))


def _code_pairs(edges, nodes=()):
    """(sorted node ids, us, vs): the (u, v) name pairs of `edges` as int
    arrays of indices into the node ids, which also hold `nodes`."""
    edges = [(u, v) for u, v in edges]
    us = [u for u, _ in edges]
    vs = [v for _, v in edges]
    if any(map(operator.eq, us, vs)):
        raise ValueError("self-edges are not allowed")
    node_ids = tuple(sorted({*nodes, *us, *vs}))
    index = dict(zip(node_ids, range(len(node_ids))))
    return (node_ids, np.fromiter(map(index.__getitem__, us), np.intp, len(us)),
            np.fromiter(map(index.__getitem__, vs), np.intp, len(vs)))


def _count_pairs(n, us, vs):
    """(keys, counts): the sorted distinct undirected pair keys
    min * n + max of the int pairs (us, vs), and how often each occurs."""
    keys = np.minimum(us, vs) * n + np.maximum(us, vs)
    keys.sort()
    starts = np.flatnonzero(_run_starts(keys))
    return keys[starts], np.diff(np.append(starts, keys.size))


def _interaction_row(line):
    """(source, target, kind code, timestamp) of one CSV line, the ids
    stripped; None for a self-interaction."""
    parts = line.strip().split(",")
    if len(parts) != 4:
        raise InputDataError(f"expected 4 fields, got {len(parts)}")
    source, target, kind, ts = parts
    source, target = source.strip(), target.strip()
    if not source or not target:
        raise InputDataError("empty source or target")
    if kind not in _KIND_CODES:
        raise InputDataError(f"unknown interaction kind {kind!r}")
    try:
        timestamp = int(ts)
    except ValueError:
        raise InputDataError(f"non-integer timestamp {ts!r}") from None
    return None if source == target else (source, target, _KIND_CODES[kind], timestamp)


def _timestamp_column(timestamps) -> np.ndarray:
    """Python int timestamps as an int64 array, or as an object array when
    one of them does not fit in int64."""
    try:
        return np.array(timestamps, dtype=np.int64)
    except OverflowError:
        return np.array(timestamps, dtype=object)


def load_interactions(path) -> Interactions:
    """Read interaction records from CSV (source,target,kind,timestamp)
    into an Interactions table.

    Self-interactions are dropped here, so every record relates two distinct
    users. Raises InputDataError with a line number on malformed rows.
    """
    index = {}  # user -> code, in the order users were first coded
    sources, targets = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)]
    kinds, timestamps = [np.zeros(0, np.int8)], [np.zeros(0, np.int64)]
    with open(path, encoding="utf-8") as fh:
        checked_header(fh, INTERACTION_HEADER)
        lineno = 2
        while lines := list(islice(fh, _CHUNK_LINES)):
            rows = checked_lines(lines, _interaction_row, lineno)
            lineno += len(lines)
            source, target, kind, timestamp = (list(map(operator.itemgetter(i), rows))
                                               for i in range(4))
            new = set(source).union(target).difference(index)
            index.update(zip(new, range(len(index), len(index) + len(new))))
            sources.append(np.fromiter(map(index.__getitem__, source), np.intp, len(source)))
            targets.append(np.fromiter(map(index.__getitem__, target), np.intp, len(target)))
            kinds.append(np.array(kind, dtype=np.int8))
            timestamps.append(_timestamp_column(timestamp))
    names = tuple(sorted(index))
    rank = np.empty(len(names), dtype=np.intp)  # code -> sorted position
    rank[np.fromiter(map(index.__getitem__, names), np.intp, len(names))] = np.arange(len(names))
    return Interactions(names, rank[np.concatenate(sources)], rank[np.concatenate(targets)],
                        np.concatenate(kinds), np.concatenate(timestamps))


def _follower_row(line):
    parts = [part.strip() for part in line.split(",")]
    if len(parts) != 2 or not all(parts):
        raise InputDataError("expected two non-empty fields")
    return tuple(parts)


def _edge_row(line):
    u, v = _follower_row(line)
    if u == v:
        raise InputDataError(f"self-edge {u!r}")
    return u, v


def _read_pairs(path, row):
    with open(path, encoding="utf-8") as fh:
        checked_header(fh, FOLLOWER_HEADER)
        return checked_lines(fh, row, 2)


def load_follower_edges(path):
    """Read (u, v) follower pairs from CSV with header u,v."""
    return _read_pairs(path, _follower_row)


def largest_weakly_connected_component(graph: "SocialGraph") -> "SocialGraph":
    """The subgraph induced by the largest connected component of graph.

    Size ties break toward the component containing the smallest node id,
    so the choice is deterministic.
    """
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
    nodes = np.asarray(centers, dtype=np.intp)
    frontier = np.arange(nodes.size) * n + nodes
    merged = frontier * 2
    shells = []
    while frontier.size and len(shells) < depth:
        starts = indptr[nodes]
        counts = indptr[nodes + 1] - starts
        reached = np.repeat(frontier - nodes, counts) + indices[_ranges(starts, counts)]
        # One sort of the seen keys (flag bit 0) with the reached ones (flag
        # bit 1): a key is fresh iff the first entry of its run has flag 1.
        # np.unique plus a seen lookup was several times slower (its
        # hash-based path on numpy 2.4 is slow on int keys).
        reached <<= 1
        reached |= 1
        merged = np.concatenate([merged & -2, reached])
        merged.sort()
        merged = merged[_run_starts(merged >> 1)]
        frontier = merged[(merged & 1) == 1] >> 1
        shells.append(np.divmod(frontier, n))
        nodes = shells[-1][1]
    empty = np.zeros(0, dtype=np.intp)
    return shells + [(empty, empty)] * (depth - len(shells))


def induced_csr(indptr, indices, keys):
    """CSR of the subgraphs that sets of nodes induce, side by side.

    keys are sorted slot * n + node over the graph's n nodes. Row i of the
    result is node keys[i] % n of slot keys[i] // n, and its edges go to
    the rows of its own slot's nodes, so no edge joins two slots. Sorted
    node indices are the keys of one slot: the subgraph they induce, its
    nodes renumbered 0..len(keys)-1 in the same order.

    A position map places the neighbours: an array over the slots' keys
    holds each kept key's row and -1 elsewhere, so one read at the target
    keys renumbers them and its sign masks the edges that leave the slot.
    """
    n = len(indptr) - 1
    nodes = keys % max(n, 1)
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    where = np.full(keys[-1] - nodes[-1] + n if len(keys) else 0, -1, dtype=np.intp)
    where[keys] = np.arange(len(keys))
    targets = indices[_ranges(starts, counts)]
    targets += (keys - nodes).repeat(counts)
    loc = where[targets]
    inside = loc >= 0
    sources = np.repeat(np.arange(len(keys)), counts)
    degree = np.bincount(sources[inside], minlength=len(keys))
    return np.concatenate([[0], np.cumsum(degree)]), loc[inside]


class SocialGraph:
    """Undirected social graph in CSR form over its sorted node ids.

    Node i is node_ids[i]; its neighbours are indices[indptr[i]:indptr[i +
    1]], ascending, so index order is also node-id order. Names are mapped
    to indices only at the API edge. Every neighbourhood query runs through
    exact_shells and nothing is cached.
    """

    def __init__(self, edges, nodes=()):
        self._build(*_code_pairs(edges, nodes))

    def _build(self, node_ids, us, vs):
        """Set the CSR of the undirected int-coded pairs (us, vs) over node_ids."""
        self.node_ids = node_ids
        n = len(node_ids)
        keys = np.concatenate([us * n + vs, vs * n + us])
        keys.sort()
        keys = keys[_run_starts(keys)]
        rows, self.indices = np.divmod(keys, max(n, 1))
        self.indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])

    @cached_property
    def _index(self):
        return dict(zip(self.node_ids, range(len(self.node_ids))))

    def subgraph(self, keep) -> "SocialGraph":
        """The subgraph induced by the sorted node indices `keep`."""
        graph = SocialGraph.__new__(SocialGraph)
        graph.node_ids = tuple(self.node_ids[i] for i in keep.tolist())
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


def build_social_graph(records, follower_edges=None,
                       min_weight: int = DEFAULT_MIN_WEIGHT) -> SocialGraph:
    """End-to-end graph construction.

    records is an Interactions table or a sequence of InteractionRecords
    (self-interactions skipped). Interactions are counted per unordered user
    pair, pairs seen fewer than min_weight times are dropped (their users
    stay until the component step), and the largest component of what is
    left is the interaction core. When follower_edges is given, those edges
    are restricted to the core's users and the largest component of that
    follower graph becomes the result; follower direction is ignored.
    """
    if not records:
        raise InputDataError("no interaction records")
    if not min_weight >= 1:
        raise InputDataError("min_weight must be >= 1")
    if isinstance(records, Interactions):
        names, us, vs = records.names, records.source, records.target
    else:
        names, us, vs = _code_pairs((r.source, r.target) for r in records
                                    if r.source != r.target)
    keys, counts = _count_pairs(len(names), us, vs)
    core = SocialGraph.__new__(SocialGraph)
    core._build(names, *np.divmod(keys[counts >= min_weight], max(len(names), 1)))
    core = largest_weakly_connected_component(core)
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


def graph_stats(graph: SocialGraph) -> GraphStats:
    """Node count, edge count, and mean degree of a SocialGraph."""
    n, e = len(graph), graph.n_edges()
    avg = (2.0 * e / n) if n else 0.0
    return GraphStats(n_nodes=n, n_edges=e, avg_degree=avg)


def _check_writable_ids(graph: SocialGraph) -> None:
    """Refuse a node id that load_edge_list would read back changed or not
    at all, because its loaders strip fields and do not unquote."""
    for node in graph.node_ids:
        if not node or node != node.strip() or any(c in node for c in ",\n\r"):
            raise InputDataError(
                f"node id {node!r} cannot be written to an edge list or nodes file "
                "(empty, surrounding whitespace, a comma or a line break)")


def write_edge_list(graph: SocialGraph, path) -> None:
    """Write the undirected edge list as CSV with header u,v, one line per
    edge (u < v; a SocialGraph has no self-edges). An id the loader cannot
    read back raises InputDataError."""
    _check_writable_ids(graph)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(FOLLOWER_HEADER + "\n")
        for u, v in graph.edges():
            fh.write(f"{u},{v}\n")


def write_nodes(graph: SocialGraph, path) -> None:
    """Write the node set, one id per line, sorted; ids are checked as by
    write_edge_list."""
    _check_writable_ids(graph)
    with open(path, "w", encoding="utf-8") as fh:
        for node in graph.node_ids:
            fh.write(f"{node}\n")


def load_edge_list(path, nodes_path=None) -> SocialGraph:
    """Rebuild a SocialGraph from a write_edge_list file.

    A nodes file restores isolated nodes the edge list cannot carry. A
    self-edge line raises InputDataError with its line number.
    """
    nodes = ()
    if nodes_path is not None:
        with open(nodes_path, encoding="utf-8") as fh:
            nodes = [line.strip() for line in fh if line.strip()]
    return SocialGraph(_read_pairs(path, _edge_row), nodes=nodes)
