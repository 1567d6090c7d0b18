"""What one prediction may read: locality and causality of forward().

A post's stance is read from its own text and from the posts its author's
k-hop neighbours wrote strictly before it. Each metamorphic relation here
(Segura et al. 2016, "A Survey on Metamorphic Testing", IEEE TSE) changes
a small random world only outside that reach, and forward()'s
probabilities must keep their bytes. One positive control changes the
world inside the reach and must move them, so the relations can fail.
"""

from dataclasses import dataclass

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from socialstance.corpus import Corpus, Post
from socialstance.embed import HashedNgramEncoder
from socialstance.encoder import AGGREGATOR_KINDS
from socialstance.model import (HISTORY_KINDS, ModelParams, TrainConfig,
                                _compile_samples, forward)
from socialstance.socialgraph import SocialGraph, khop_neighborhood

CUTOFF = 5  # the target post's timestamp
DIM = 4
HIDDEN = 8


@dataclass
class World:
    nodes: list
    edges: list
    posts: list
    author: str
    config: TrainConfig

    @property
    def target(self):
        return Post(id="target", author_id=self.author, timestamp=CUTOFF,
                    text=f"the target post by {self.author}")

    def ball(self):
        graph = SocialGraph(self.edges, nodes=self.nodes)
        return sorted(khop_neighborhood(graph, self.author, self.config.hops))

    def outside(self):
        ball = set(self.ball())
        return [node for node in self.nodes if node not in ball]

    def probabilities(self, posts=(), edges=None, nodes=()) -> bytes:
        """forward()'s probability bytes for the target, with `posts`
        added to the corpus and the graph's edges replaced by `edges`."""
        graph = SocialGraph(self.edges if edges is None else edges,
                            nodes=self.nodes + list(nodes))
        corpus = Corpus([*self.posts, *posts, self.target])
        params = ModelParams(self.config)
        prediction = forward(self.target, graph, corpus, HashedNgramEncoder(dim=DIM),
                             params, self.config)
        return prediction.probabilities.tobytes()


def new_post(tag, user, timestamp):
    return Post(id=f"new-{tag}", author_id=user, timestamp=timestamp,
                text=f"added post {tag} from {user} on day {timestamp}")


def history_before(posts, user, cutoff):
    """The user's posts strictly before cutoff, newest first (timestamp,
    then id, as the history index orders them)."""
    mine = [p for p in posts if p.author_id == user and p.timestamp < cutoff]
    return sorted(mine, key=lambda p: (p.timestamp, p.id), reverse=True)


@st.composite
def worlds(draw):
    """A random tree over 2 to 12 users plus up to three chords, so that
    balls are small and users sit just past them; random posts by them and
    by two users outside the graph; an author; and a random checkpoint of
    1 to 3 hops."""
    n = draw(st.integers(2, 12))
    nodes = [f"v{i}" for i in range(n)]
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    tree = [(nodes[p], nodes[i]) for i, p in enumerate(parents, 1)]
    pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
    chords = draw(st.lists(st.sampled_from(pairs), max_size=3, unique=True))
    edges = tree + [e for e in chords if e not in tree and e[::-1] not in tree]
    users = nodes + ["x0", "x1"]
    stamps = draw(st.lists(st.tuples(st.sampled_from(users), st.integers(0, 2 * CUTOFF)),
                           max_size=20))
    posts = [Post(id=f"p{i}", author_id=user, timestamp=ts, text=f"post {i} by {user}")
             for i, (user, ts) in enumerate(stamps)]
    config = TrainConfig(hops=draw(st.integers(1, 3)), history_len=draw(st.integers(1, 3)),
                         embed_dim=DIM, hidden_dim=HIDDEN,
                         aggregator=draw(st.sampled_from(AGGREGATOR_KINDS)),
                         history=draw(st.sampled_from(HISTORY_KINDS)),
                         seed=draw(st.integers(0, 2**32 - 1)))
    return World(nodes, edges, posts, draw(st.sampled_from(nodes)), config)


class TestLocality:
    @settings(max_examples=100, deadline=None)
    @given(worlds(), st.data())
    def test_posts_outside_the_ball_are_ignored(self, world, data):
        users = world.outside() + ["x0", "x1", "stranger"]
        added = data.draw(st.lists(st.tuples(st.sampled_from(users),
                                             st.integers(0, 2 * CUTOFF)),
                                   min_size=1, max_size=6))
        posts = [new_post(i, user, ts) for i, (user, ts) in enumerate(added)]
        assert world.probabilities(posts) == world.probabilities()

    @settings(max_examples=100, deadline=None)
    @given(worlds(), st.data())
    def test_posts_at_or_after_the_cutoff_are_ignored(self, world, data):
        added = data.draw(st.lists(st.tuples(st.sampled_from(world.ball()),
                                             st.integers(CUTOFF, CUTOFF + 3)),
                                   min_size=1, max_size=6))
        posts = [new_post(i, user, ts) for i, (user, ts) in enumerate(added)]
        assert world.probabilities(posts) == world.probabilities()

    @settings(max_examples=100, deadline=None)
    @given(worlds(), st.data())
    def test_edges_outside_the_ball_are_ignored(self, world, data):
        outside = world.outside() + ["w0", "w1"]
        pairs = [(a, b) for i, a in enumerate(outside) for b in outside[i + 1:]]
        # A leak shows first just past the ball, so pairs of users at
        # distance hops + 1 are drawn as often as all pairs together.
        graph = SocialGraph(world.edges, nodes=world.nodes)
        rim = sorted(khop_neighborhood(graph, world.author, world.config.hops + 1)
                     - set(world.ball()))
        rim_pairs = [(a, b) for i, a in enumerate(rim) for b in rim[i + 1:]]
        pair = st.sampled_from(pairs)
        if rim_pairs:
            pair = st.sampled_from(rim_pairs) | pair
        added = data.draw(st.lists(pair, min_size=1, max_size=6))
        removable = [e for e in world.edges if set(e) <= set(outside)]
        removed = data.draw(st.sets(st.sampled_from(removable)) if removable
                            else st.just(set()))
        edges = [e for e in world.edges if e not in removed] + added
        assert world.probabilities(edges=edges, nodes=["w0", "w1"]) == \
            world.probabilities()

    @settings(max_examples=100, deadline=None)
    @given(worlds(), st.data())
    def test_posts_older_than_a_full_history_are_ignored(self, world, data):
        # One ball member gets history_len posts just before the cutoff, so
        # at least one member's history is full.
        lam = world.config.history_len
        member = data.draw(st.sampled_from(world.ball()), label="member")
        world.posts += [new_post(f"fill{m}", member, CUTOFF - 1) for m in range(lam)]
        full = [user for user in world.ball()
                if len(history_before(world.posts, user, CUTOFF)) >= lam]
        added = data.draw(st.lists(st.tuples(st.sampled_from(full), st.integers(1, 4)),
                                   min_size=1, max_size=6))
        posts = [new_post(i, user,
                          history_before(world.posts, user, CUTOFF)[lam - 1].timestamp - back)
                 for i, (user, back) in enumerate(added)]
        assert world.probabilities(posts) == world.probabilities()

    @settings(max_examples=100, deadline=None)
    @given(worlds())
    def test_same_timestamp_posts_compile_alike(self, world):
        # Two posts by one author at one timestamp share their structure and
        # their history, and neither enters the other's.
        twins = [Post(id=f"twin{i}", author_id=world.author, timestamp=CUTOFF,
                      text=f"twin post {i} by {world.author}") for i in range(2)]
        graph = SocialGraph(world.edges, nodes=world.nodes)
        encoder = HashedNgramEncoder(dim=DIM)
        with_twins = Corpus(world.posts + twins)
        without = Corpus(world.posts)
        samples = [_compile_samples([post], graph, corpus, encoder, world.config)[0]
                   for post in twins for corpus in (with_twins, without)]
        first = samples[0]
        for sample in samples[1:]:
            assert sample.ball.author_row == first.ball.author_row
            assert sample.ball.nodes.size == first.ball.nodes.size
            assert all(np.array_equal(c, c0) and np.array_equal(n, n0)
                       for (c, n), (c0, n0) in zip(sample.ball.shell_edges,
                                                   first.ball.shell_edges))
            assert np.array_equal(sample.hist_counts, first.hist_counts)
            assert sample.hist.tobytes() == first.hist.tobytes()


def control_world(seed, aggregator, history):
    """A path v0 - v1 - v2 - v3 with two older posts per user, authored at v1."""
    nodes = [f"v{i}" for i in range(4)]
    posts = [Post(id=f"{user}p{m}", author_id=user, timestamp=m,
                  text=f"older post {m} by {user} about the rollout")
             for user in nodes for m in range(2)]
    config = TrainConfig(hops=2, history_len=2, embed_dim=DIM, hidden_dim=HIDDEN,
                         aggregator=aggregator, history=history, seed=seed)
    return World(nodes, list(zip(nodes, nodes[1:])), posts, "v1", config)


def test_in_ball_post_before_the_cutoff_moves_the_output():
    # The positive control: a new post just before the cutoff by the author
    # or by a member at distance 1 or 2 enters a history the encoder reads.
    for seed in range(4):
        for aggregator in AGGREGATOR_KINDS:
            for history in HISTORY_KINDS:
                world = control_world(seed, aggregator, history)
                before = world.probabilities()
                for user in ("v1", "v0", "v3"):
                    post = new_post("late", user, CUTOFF - 1)
                    assert world.probabilities([post]) != before, \
                        (seed, aggregator, history, user)
