"""End-to-end walk through the stance pipeline on a hand-built community.

Two camps of users talk mostly across the divide. We build the interaction
graph, hash the post texts into embeddings, train the graph classifier for a
few epochs, and compare its test predictions against the authors' labels.

Run from the repository root:  python3 demos/stance_pipeline.py
"""

import numpy as np

from socialstance.corpus import Corpus, Post, StanceLabel
from socialstance.embed import HashedNgramEncoder, precompute
from socialstance.model import (TrainConfig, classify, eligible_training_posts,
                                evaluate, split_dataset, train)
from socialstance.socialgraph import build_social_graph, graph_stats

SUPPORT_PHRASES = [
    "got my shot today and it was painless, book yours",
    "the clinic staff were lovely, second dose done",
    "protecting my parents felt like the obvious choice",
    "vaccination drive reached our town, lines moved fast",
]
OPPOSE_PHRASES = [
    "not putting that rushed formula in my body",
    "nobody can tell me the long term effects, hard pass",
    "another mandate, another reason to distrust the rollout",
    "my cousin felt awful for a week, no thanks",
]


def build_world(n_users=40, seed=7):
    rng = np.random.default_rng(seed)
    users = [f"user{i:02d}" for i in range(n_users)]
    camps = {u: i % 2 for i, u in enumerate(users)}

    posts = []
    for i, user in enumerate(users):
        phrases = SUPPORT_PHRASES if camps[user] == 0 else OPPOSE_PHRASES
        for m in range(3):
            text = phrases[int(rng.integers(len(phrases)))]
            posts.append(Post(id=f"{user}-h{m}", author_id=user,
                              timestamp=100 + m, text=text))
        label = StanceLabel.PO if camps[user] == 0 else StanceLabel.NG
        posts.append(Post(id=f"{user}-t", author_id=user, timestamp=999,
                          text=phrases[int(rng.integers(len(phrases)))],
                          label=label))
    corpus = Corpus(posts)

    # arguments fly across the camps: most interactions are cross-camp
    pairs = []
    for _ in range(n_users * 6):
        a = users[int(rng.integers(n_users))]
        pool = [u for u in users if camps[u] != camps[a]] \
            if rng.random() < 0.85 else [u for u in users if u != a]
        b = pool[int(rng.integers(len(pool)))]
        if a != b:
            pairs.append((a, b))
    graph = build_social_graph(pairs, min_weight=1)
    return corpus, graph


def main():
    corpus, graph = build_world()
    stats = graph_stats(graph)
    print(f"community: {stats.n_nodes} users, {stats.n_edges} edges, "
          f"mean degree {stats.avg_degree:.1f}")

    store = precompute(corpus, HashedNgramEncoder(dim=32))
    config = TrainConfig(epochs=15, learning_rate=5e-3, weight_decay=0.0,
                         hops=2, history_len=3, embed_dim=32, hidden_dim=16,
                         batch_size=16, seed=0)
    params, logs = train(corpus, graph, store, config)
    print(f"trained {config.epochs} epochs: "
          f"loss {logs[0].train_loss:.3f} -> {logs[-1].train_loss:.3f}, "
          f"best val accuracy {max(s.val_accuracy for s in logs):.2f}")

    labelled = eligible_training_posts(corpus, graph)
    _, _, test_posts = split_dataset(labelled, config.split, config.seed)
    report = evaluate(test_posts, graph, corpus, store, params, config)
    print(f"held-out test ({len(test_posts)} posts): "
          f"accuracy {report.accuracy:.2f}")

    print("\nsample predictions:")
    for post in test_posts[:5]:
        got = classify(post, graph, corpus, store, params, config)
        marker = "ok " if got == post.label else "MISS"
        print(f"  [{marker}] {post.author_id}: gold={post.label.name} "
              f"predicted={got.name}  \"{post.text[:46]}\"")


if __name__ == "__main__":
    main()
