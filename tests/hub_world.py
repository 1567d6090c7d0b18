"""A star with chords: the hub world of the README's "What a hub costs".

One hub is joined to `partners` leaves, and every 7th leaf to the next.
Every user has three older posts, and the first leaf one more, the post
that is classified. The model has hops 2 and 16 hidden columns, so the
leaf's ball holds every user and about partners² order-2 pairs.

Run as a script, it measures one stage of that post in a fresh process
and prints one JSON line: the process's peak RSS (ru_maxrss) in MB and
the stage's seconds. The batch stage compiles BATCH copies of the post
in one call, as train and evaluate compile a batch.

    python tests/hub_world.py 2000 forward     # or: compile, batch

A limit in MB as a third argument makes the script exit 1 when the peak
RSS exceeds it.
"""

import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from socialstance import model  # noqa: E402
from socialstance.corpus import Corpus, Post  # noqa: E402
from socialstance.embed import PrecomputedStore  # noqa: E402
from socialstance.socialgraph import SocialGraph  # noqa: E402

HISTORY = 3
EMBED_DIM = 16
BATCH = 8


def star_with_chords(partners: int, hidden_dim: int = 16, seed: int = 0):
    """(corpus, graph, store, params, config, post): the world and the
    first leaf's post to classify."""
    leaves = [f"l{i:05d}" for i in range(partners)]
    edges = [("hub", leaf) for leaf in leaves]
    edges += [(leaves[i], leaves[i + 1]) for i in range(0, partners - 1, 7)]
    graph = SocialGraph(edges)
    posts = [Post(id=f"{user}.{m}", author_id=user, timestamp=m, text="")
             for user in ["hub"] + leaves for m in range(HISTORY)]
    post = Post(id="target", author_id=leaves[0], timestamp=HISTORY, text="")
    posts.append(post)
    rng = np.random.default_rng(seed)
    store = PrecomputedStore({p.id: rng.standard_normal(EMBED_DIM) for p in posts})
    config = model.TrainConfig(hops=2, history_len=HISTORY, embed_dim=EMBED_DIM,
                               hidden_dim=hidden_dim, seed=seed)
    return Corpus(posts), graph, store, model.ModelParams(config), config, post


def main(argv) -> int:
    partners, stage = int(argv[0]), argv[1]
    corpus, graph, store, params, config, post = star_with_chords(partners)
    start = time.perf_counter()
    if stage in ("compile", "batch"):
        copies = BATCH if stage == "batch" else 1
        model._compile_samples([post] * copies, graph, corpus, store, config)
    else:
        model.forward(post, graph, corpus, store, params, config)
    seconds = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"partners": partners, "stage": stage,
                      "peak_rss_mb": round(peak_mb, 1), "seconds": round(seconds, 3)}))
    return 1 if len(argv) > 2 and peak_mb > float(argv[2]) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
