"""Graph construction, pruning, components, and neighborhood queries.

The neighborhood and component tests check the library against plain
BFS / union-find oracles written inline, on randomly generated graphs.
"""

import re
import tempfile
import tracemalloc
from collections import Counter, deque
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socialstance import socialgraph
from socialstance.errors import InputDataError
from socialstance.socialgraph import (
    INTERACTION_HEADER,
    INTERACTION_KINDS,
    Interactions,
    SocialGraph,
    _component_labels,
    build_social_graph,
    exact_order_neighborhood,
    graph_stats,
    induced_csr,
    induced_subgraph,
    khop_neighborhood,
    largest_weakly_connected_component,
    load_edge_list,
    load_follower_edges,
    load_interactions,
    write_edge_list,
    write_nodes,
)


# -- oracles -----------------------------------------------------------------

def bfs_distances(adj, start):
    """Hop distance from start to every reachable node."""
    dist = {start: 0}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in adj.get(u, ()):
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def random_graph(rng, max_nodes=50, p=0.1):
    n = int(rng.integers(2, max_nodes + 1))
    nodes = [f"n{i}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((nodes[i], nodes[j]))
    return nodes, edges


def adjacency(nodes, edges):
    adj = {u: set() for u in nodes}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


# -- basic containers --------------------------------------------------------

class TestSocialGraph:
    def test_dedup_and_sorted_neighbors(self):
        g = SocialGraph([("b", "a"), ("a", "b"), ("a", "c")])
        assert g.neighbors("a") == ("b", "c")
        assert g.n_edges() == 2
        assert len(g) == 3

    def test_isolated_nodes_kept(self):
        g = SocialGraph([("a", "b")], nodes=["a", "b", "lonely"])
        assert "lonely" in g
        assert g.neighbors("lonely") == ()
        assert len(g) == 3

    def test_unknown_node_raises_keyerror(self):
        g = SocialGraph([("a", "b")])
        with pytest.raises(KeyError):
            g.neighbors("zzz")

    def test_self_loops_rejected(self):
        with pytest.raises(ValueError):
            SocialGraph([("a", "a")])


# -- interaction pipeline ----------------------------------------------------

class TestInteractionGraph:
    """build_social_graph's counting and pruning of interaction pairs."""

    def test_weights_count_interactions(self):
        # u1-u2 twice, once in each direction; u1-u3 once
        records = [("u1", "u2"), ("u2", "u1"), ("u1", "u3")]
        assert build_social_graph(records, min_weight=2).edges() == [("u1", "u2")]
        assert build_social_graph(records, min_weight=1).edges() == [("u1", "u2"),
                                                                     ("u1", "u3")]

    def test_prune_keeps_nodes_drops_light_edges(self):
        records = [("u1", "u2"), ("u1", "u2"), ("u2", "u3")]
        g = build_social_graph(records, min_weight=2)
        assert g.edges() == [("u1", "u2")] and "u3" not in g
        # Users of pruned pairs keep their seat until the component step:
        # with every pair pruned, the smallest id is the largest component.
        lone = build_social_graph(records, min_weight=3)
        assert lone.node_ids == ("u1",) and lone.n_edges() == 0

    def test_prune_min_weight_one_is_identity(self):
        records = [("a", "b"), ("c", "b"), ("x", "y")]
        g = build_social_graph(records, min_weight=1)
        want = largest_weakly_connected_component(SocialGraph(records))
        assert g.node_ids == want.node_ids == ("a", "b", "c")
        assert g.edges() == want.edges()

    def test_prune_min_weight_below_one_is_input_error(self):
        records = [("a", "b")]
        with pytest.raises(InputDataError, match="^min_weight must be >= 1$"):
            build_social_graph(records, min_weight=0)


class TestLargestComponent:
    def test_against_union_find(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            nodes, edges = random_graph(rng, max_nodes=40, p=0.06)
            g = SocialGraph(edges, nodes=nodes)
            got = largest_weakly_connected_component(g)

            uf = UnionFind(nodes)
            for u, v in edges:
                uf.union(u, v)
            comps = {}
            for u in nodes:
                comps.setdefault(uf.find(u), set()).add(u)
            best = max(comps.values(), key=lambda c: (len(c), min(c)))
            # ties break toward the component holding the smallest node id
            tied = [c for c in comps.values() if len(c) == len(best)]
            best = min(tied, key=min)
            assert set(got.node_ids) == best

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 30).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                             max_size=40))))
    def test_component_labels_are_smallest_member(self, drawn):
        n, pairs = drawn
        names = [f"n{i:02d}" for i in range(n)]
        edges = [(names[a], names[b]) for a, b in pairs if a != b]
        g = SocialGraph(edges, nodes=names)
        uf = UnionFind(names)
        for u, v in edges:
            uf.union(u, v)
        want = [min(g.index(w) for w in names if uf.find(w) == uf.find(v))
                for v in g.node_ids]
        assert _component_labels(g.indptr, g.indices).tolist() == want

    def test_returns_social_graph_with_inner_edges(self):
        g = SocialGraph([("a", "b"), ("b", "c"), ("x", "y")])
        comp = largest_weakly_connected_component(g)
        assert isinstance(comp, SocialGraph)
        assert set(comp.node_ids) == {"a", "b", "c"}
        assert comp.neighbors("b") == ("a", "c")

    def test_empty_graph_is_error(self):
        with pytest.raises(InputDataError, match="empty graph"):
            largest_weakly_connected_component(SocialGraph([]))


# -- neighborhood queries vs BFS oracle --------------------------------------

class TestNeighborhoods:
    def test_khop_zero_is_self(self):
        g = SocialGraph([("a", "b")])
        assert khop_neighborhood(g, "a", 0) == {"a"}

    def test_khop_includes_center(self):
        g = SocialGraph([("a", "b"), ("b", "c")])
        assert khop_neighborhood(g, "a", 2) == {"a", "b", "c"}

    def test_exact_order_zero_is_self(self):
        g = SocialGraph([("a", "b")])
        assert exact_order_neighborhood(g, "a", 0) == {"a"}

    def test_against_bfs(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            nodes, edges = random_graph(rng)
            g = SocialGraph(edges, nodes=nodes)
            adj = adjacency(nodes, edges)
            start = nodes[int(rng.integers(len(nodes)))]
            dist = bfs_distances(adj, start)
            for k in range(4):
                ball = {u for u, d in dist.items() if d <= k}
                shell = {u for u, d in dist.items() if d == k}
                assert khop_neighborhood(g, start, k) == ball
                assert exact_order_neighborhood(g, start, k) == shell

    def test_shells_partition_ball(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            nodes, edges = random_graph(rng)
            g = SocialGraph(edges, nodes=nodes)
            start = nodes[0]
            k = 3
            union = set()
            for order in range(k + 1):
                shell = exact_order_neighborhood(g, start, order)
                assert not (union & shell)
                union |= shell
            assert union == khop_neighborhood(g, start, k)

    def test_negative_order_is_error(self):
        g = SocialGraph([("a", "b")])
        with pytest.raises(ValueError):
            khop_neighborhood(g, "a", -1)
        with pytest.raises(ValueError):
            exact_order_neighborhood(g, "a", -1)

    def test_unknown_node_is_error(self):
        g = SocialGraph([("a", "b")])
        with pytest.raises(KeyError):
            khop_neighborhood(g, "zzz", 1)


class TestInducedSubgraph:
    def test_keeps_only_inner_edges(self):
        g = SocialGraph([("a", "b"), ("b", "c"), ("c", "d")])
        sub = induced_subgraph(g, ["a", "b", "d"])
        assert set(sub.node_ids) == {"a", "b", "d"}
        assert sub.neighbors("a") == ("b",)
        assert sub.neighbors("d") == ()


@st.composite
def csr_and_keep(draw):
    """Target lists of a random CSR graph (self-loops, repeats and one-way
    edges allowed) and sorted keys slot * n + node over one to three slots,
    each slot's nodes empty, one node, every node or any subset."""
    n = draw(st.integers(0, 12))
    rows = draw(st.lists(st.lists(st.integers(0, max(n - 1, 0)), max_size=6),
                         min_size=n, max_size=n))
    keys = []
    for slot in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["empty", "single", "all", "subset"]))
        if kind == "empty" or not n:
            keep = []
        elif kind == "single":
            keep = [draw(st.integers(0, n - 1))]
        elif kind == "all":
            keep = list(range(n))
        else:
            keep = sorted(draw(st.sets(st.integers(0, n - 1))))
        keys += [slot * n + v for v in keep]
    return rows, keys


@settings(max_examples=300, deadline=None)
@given(csr_and_keep())
def test_induced_csr_matches_set_oracle(case):
    rows, keys = case
    n = len(rows)
    indptr = np.cumsum([0] + [len(row) for row in rows]).astype(np.intp)
    indices = np.array([t for row in rows for t in row], dtype=np.intp)
    got_indptr, got_indices = induced_csr(indptr, indices, np.array(keys, dtype=np.intp))
    number = {key: i for i, key in enumerate(keys)}
    want = [[number[key - key % n + t] for t in rows[key % n] if key - key % n + t in number]
            for key in keys]
    assert got_indptr.dtype == got_indices.dtype == np.intp
    assert got_indptr.tolist() == [0] + np.cumsum([len(w) for w in want]).tolist()
    assert got_indices.tolist() == [t for w in want for t in w]


# -- file IO -----------------------------------------------------------------

class TestIO:
    def test_interactions_csv(self, tmp_path):
        path = tmp_path / "inter.csv"
        path.write_text("source,target,kind,timestamp\n"
                        "u2,u1,mention,-3\nu1,u1,retweet,5\n\nu1,u3,retweet,7\n")
        records = load_interactions(path)
        assert records._fields == ("names", "source", "target")
        assert records.names == ("u1", "u2", "u3")
        assert records.source.tolist() == [1, 0] and records.target.tolist() == [0, 2]
        assert records.source.dtype == records.target.dtype == np.intp

    @pytest.mark.parametrize("chunk", [1, 2, 1024])
    def test_timestamps_beyond_int64_load(self, tmp_path, chunk):
        stamps = [0, -3, 2**63 - 1, -2**63, 2**63, -2**63 - 1, 10**20, -10**40]
        path = tmp_path / "inter.csv"
        path.write_text(INTERACTION_HEADER + "\n"
                        + "".join(f"u1,u{i + 2},mention,{ts}\n" for i, ts in enumerate(stamps)))
        with mock.patch.object(socialgraph, "_CHUNK_LINES", chunk):
            records = load_interactions(path)
        assert records.source.tolist() == [0] * len(stamps)
        assert [records.names[i] for i in records.target.tolist()] == [
            f"u{i + 2}" for i in range(len(stamps))]

    def test_table_retains_two_codes_a_record(self, tmp_path):
        # 16 bytes a record: the source and target codes, nothing else.
        n = 50_000
        path = tmp_path / "inter.csv"
        path.write_text(INTERACTION_HEADER + "\n" + "".join(
            f"u{i % 7},v{i % 5},{INTERACTION_KINDS[i % 2]},{i * 10**6}\n" for i in range(n)))
        tracemalloc.start()
        try:
            records = load_interactions(path)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(records.source) == n
        assert retained <= 17 * n + (64 << 10), retained

    def test_self_interactions_dropped_on_load(self, tmp_path):
        path = tmp_path / "inter.csv"
        path.write_text("source,target,kind,timestamp\nu1,u1,retweet,10\n")
        records = load_interactions(path)
        assert records.names == () and records.source.size == records.target.size == 0
        with pytest.raises(InputDataError, match="^no interaction records$"):
            build_social_graph(records)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "inter.csv"
        path.write_text("source,target,kind,timestamp\nu1,u2,like,10\n")
        with pytest.raises(InputDataError, match="unknown interaction kind"):
            load_interactions(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "inter.csv"
        path.write_text("src,dst,kind,timestamp\n")
        with pytest.raises(InputDataError, match="header"):
            load_interactions(path)

    def test_follower_csv(self, tmp_path):
        path = tmp_path / "fol.csv"
        path.write_text("u,v\nu1,u2\nu3,u2\n")
        edges = load_follower_edges(path)
        assert edges == [("u1", "u2"), ("u3", "u2")]

    def test_edge_list_round_trip(self, tmp_path):
        g = SocialGraph([("a", "b"), ("b", "c")], nodes=["a", "b", "c", "iso"])
        epath, npath = tmp_path / "edges.csv", tmp_path / "nodes.txt"
        write_edge_list(g, epath)
        write_nodes(g, npath)
        loaded = load_edge_list(epath, npath)
        assert loaded.node_ids == g.node_ids
        assert loaded.edges() == g.edges()

    @pytest.mark.parametrize("node", ["a,b", "a\nb", "a\rb", " a", "a\t", ""])
    @pytest.mark.parametrize("write", [write_edge_list, write_nodes])
    def test_unreadable_id_not_written(self, tmp_path, node, write):
        # load_edge_list would fail on these ids or read them back changed.
        g = SocialGraph([("a", node), ("a", "b")])
        path = tmp_path / "out.csv"
        with pytest.raises(InputDataError, match=re.escape(repr(node))):
            write(g, path)
        assert not path.exists()

    def test_ids_are_stripped(self, tmp_path):
        inter, fol = tmp_path / "inter.csv", tmp_path / "fol.csv"
        inter.write_text(f"{INTERACTION_HEADER}\nu2, u3 ,retweet,3\nu1 ,u2,retweet,3\n")
        fol.write_text("u,v\n u1 , u2\t\n")
        assert load_interactions(inter).names == ("u1", "u2", "u3")
        assert load_follower_edges(fol) == [("u1", "u2")]

    @pytest.mark.parametrize("line", ["u1, ,mention,1", "\t,u2,mention,1"])
    def test_blank_id_rejected(self, tmp_path, line):
        path = tmp_path / "inter.csv"
        path.write_text(f"{INTERACTION_HEADER}\n{line}\n")
        with pytest.raises(InputDataError, match="^line 2: empty source or target$"):
            load_interactions(path)


# Ids as load_interactions keeps them (no comma or line break), with
# whitespace around them that the loaders strip.
_ids = st.text(st.characters(codec="utf-8", exclude_characters=",\r\n"),
               min_size=1, max_size=4).map(str.strip).filter(bool)
_padded_ids = st.tuples(st.sampled_from(["", " ", "  ", "\t"]), _ids,
                        st.sampled_from(["", " ", "\t "])).map("".join)


@settings(max_examples=100, deadline=None)
@given(pairs=st.lists(st.tuples(_padded_ids, _padded_ids), min_size=1, max_size=12))
def test_edge_list_round_trip_of_built_graphs(pairs):
    """build-graph's files reload as the graph classify --interactions builds."""
    lines = [f"{u},{v},mention,0" for u, v in pairs]
    with tempfile.TemporaryDirectory() as root:
        root = Path(root)
        (root / "inter.csv").write_text("\n".join([INTERACTION_HEADER, *lines]) + "\n",
                                        encoding="utf-8")
        records = load_interactions(root / "inter.csv")
        if not records.names:  # every pair a self-interaction
            return
        graph = build_social_graph(records, min_weight=1)
        write_edge_list(graph, root / "edges.csv")
        write_nodes(graph, root / "nodes.txt")
        loaded = load_edge_list(root / "edges.csv", root / "nodes.txt")
    assert all(node == node.strip() for node in graph.node_ids)
    assert loaded.node_ids == graph.node_ids
    assert loaded.edges() == graph.edges()


# -- end-to-end builder ------------------------------------------------------

class TestBuildSocialGraph:
    def test_interaction_core_plus_followers(self):
        # u1-u2 interact twice (survives pruning); u3 brushes past once
        records = [("u1", "u2"), ("u1", "u2"), ("u2", "u3")]
        # follower edges only count between core members
        followers = [("u1", "u2"), ("u2", "u3"), ("u3", "u1")]
        g = build_social_graph(records, followers, min_weight=2)
        assert set(g.node_ids) == {"u1", "u2"}
        assert g.neighbors("u1") == ("u2",)

    def test_repeated_reversed_and_self_follows_collapse(self):
        records = [("a", "b"), ("b", "c"), ("c", "d")] * 2
        clean = build_social_graph(records, [("a", "b"), ("c", "b")])
        noisy = build_social_graph(records, [("a", "b"), ("b", "a"), ("c", "b"),
                                             ("a", "b"), ("d", "d"), ("c", "c")])
        assert noisy.node_ids == clean.node_ids == ("a", "b", "c")
        np.testing.assert_array_equal(noisy.indptr, clean.indptr)
        np.testing.assert_array_equal(noisy.indices, clean.indices)

    def test_no_records_is_error(self):
        with pytest.raises(InputDataError):
            build_social_graph([], [])

    def test_no_follower_edges_among_core_is_error(self):
        records = [("u1", "u2"), ("u1", "u2")]
        with pytest.raises(InputDataError, match="follower"):
            build_social_graph(records, [("u9", "u8")], min_weight=2)

    def test_interaction_only_when_no_followers_given(self):
        records = [("u1", "u2"), ("u1", "u2")]
        g = build_social_graph(records, None, min_weight=2)
        assert set(g.node_ids) == {"u1", "u2"}
        assert g.n_edges() == 1


class TestStats:
    def test_hand_counts(self):
        g = SocialGraph([("a", "b"), ("b", "c")], nodes=["a", "b", "c", "iso"])
        stats = graph_stats(g)
        assert stats.n_nodes == 4
        assert stats.n_edges == 2
        assert stats.avg_degree == pytest.approx(4 / 4)


# -- generative: chunked loading and array counting vs line-by-line + dicts ----

def reference_load_interactions(path):
    """The per-line loader the chunked one replaced: the (source, target)
    pair of each line that is not a self-interaction."""
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
            if kind not in ("retweet", "mention"):
                raise InputDataError(f"line {lineno}: unknown interaction kind {kind!r}")
            try:
                int(ts)
            except ValueError:
                raise InputDataError(f"line {lineno}: non-integer timestamp {ts!r}") from None
            if source == target:
                continue
            records.append((source, target))
    return records


def reference_largest_component(adj):
    """The largest BFS component of adj, ties to the smallest node id."""
    best, seen = set(), set()
    for start in sorted(adj):
        if start not in seen:
            comp = set(bfs_distances(adj, start))
            seen |= comp
            if len(comp) > len(best):
                best = comp
    return best


def reference_graph(records, min_weight, follower_edges=None):
    """Dict counting, pruning and the largest component, then the follower
    edges among its users and their largest component; as sorted node ids
    and CSR lists."""
    if not records:
        raise InputDataError("no interaction records")
    weights = Counter(tuple(sorted(pair)) for pair in records)
    adj = {u: set() for pair in records for u in pair}
    for (u, v), w in weights.items():
        if w >= min_weight:
            adj[u].add(v)
            adj[v].add(u)
    best = reference_largest_component(adj)
    if follower_edges is not None:
        pairs = [(u, v) for u, v in follower_edges if u != v and u in best and v in best]
        if not pairs:
            raise InputDataError("empty graph: no follower edges among core users")
        adj = {u: set() for pair in pairs for u in pair}
        for u, v in pairs:
            adj[u].add(v)
            adj[v].add(u)
        best = reference_largest_component(adj)
    node_ids = tuple(sorted(best))
    index = {u: i for i, u in enumerate(node_ids)}
    indptr, indices = [0], []
    for u in node_ids:
        indices += sorted(index[v] for v in adj[u])
        indptr.append(len(indices))
    return node_ids, indptr, indices


def pick_followers(picks, records, min_weight):
    """The follower pairs named by the index pairs `picks`. Indices run over
    the reference core's users first, then the other users and two
    outsiders."""
    core = outcome(reference_graph, records, min_weight)[0]
    core = () if core == "error" else core
    others = sorted({u for pair in records for u in pair}.difference(core))
    users = [*core, *others, "z", "outsider"]
    return [(users[a % len(users)], users[b % len(users)]) for a, b in picks]


def outcome(fn, *args):
    """fn's result, or ("error", message) for an InputDataError."""
    try:
        return fn(*args)
    except InputDataError as exc:
        return ("error", str(exc))


_names = st.sampled_from(["a", "b", "c", "d", "\u00e9", "a b", "B", "10"])
_timestamps = st.integers(-10**20, 10**20).map(str) | st.sampled_from(
    ["1_0", "+5", " 7", "\u0663", "-0"])
_good_lines = st.builds(lambda s, t, k, ts: f"{s},{t},{k},{ts}", _names, _names,
                        st.sampled_from(["retweet", "mention"]), _timestamps)
_bad_lines = st.sampled_from([
    "a,b,retweet", "a,b,retweet,1,2", "a,b,mention,1,", ",b,mention,1", "a,,mention,1",
    "a,b,like,1", "a,b,Mention,1", "a,b,mention,x", "a,b,mention,", "a,b,mention,1.5",
    "a,b,mention,0x1", ",,,", "a", "", "   ", "a,a,mention,3"])
_interaction_lines = st.lists(
    st.builds(lambda pad, line: f"{pad}{line}{pad[::-1]}", st.sampled_from(["", " ", "\t"]),
              _good_lines | _good_lines | _bad_lines), max_size=14)
# Follower lists as index pairs for pick_followers, self-follows included,
# with every other pair repeated reversed.
_follower_picks = st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=10).map(
    lambda pairs: pairs + [(b, a) for a, b in pairs[::2]])


@settings(max_examples=300, deadline=None)
@given(lines=_interaction_lines, chunk=st.integers(1, 4), min_weight=st.integers(1, 3),
       picks=st.none() | _follower_picks)
def test_loading_and_graph_match_line_by_line_reference(lines, chunk, min_weight, picks):
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "inter.csv"
        path.write_text("\n".join([INTERACTION_HEADER] + lines) + "\n", encoding="utf-8")
        want = outcome(reference_load_interactions, path)
        with mock.patch.object(socialgraph, "_CHUNK_LINES", chunk):
            got = outcome(load_interactions, path)
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, Interactions)
    assert [(got.names[u], got.names[v])
            for u, v in zip(got.source.tolist(), got.target.tolist())] == want
    assert got.names == tuple(sorted({u for pair in want for u in pair}))
    followers = None if picks is None else pick_followers(picks, want, min_weight)
    expected = outcome(reference_graph, want, min_weight, followers)
    for records in (got, want):
        graph = outcome(build_social_graph, records, followers, min_weight)
        if isinstance(expected, tuple) and expected[0] == "error":
            assert graph == expected
            continue
        assert (graph.node_ids, graph.indptr.tolist(), graph.indices.tolist()) == expected
        assert graph.indptr.dtype == graph.indices.dtype == np.intp


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=24),
       min_weight=st.integers(1, 3), picks=_follower_picks)
def test_follower_restriction_matches_reference(pairs, min_weight, picks):
    """The follower path on interaction cores of several users, which files
    of random lines rarely load."""
    records = [(f"u{a}", f"u{b}") for a, b in pairs if a != b]
    followers = pick_followers(picks, records, min_weight)
    expected = outcome(reference_graph, records, min_weight, followers)
    graph = outcome(build_social_graph, records, followers, min_weight)
    if expected[0] == "error":
        assert graph == expected
    else:
        assert (graph.node_ids, graph.indptr.tolist(), graph.indices.tolist()) == expected
