"""One train() call in a fresh process: what a one-shot CLI `train` pays.

The call runs the criterion-4 configuration (see tests/test_acceptance.py)
on heterophily_benchmark(500, mean_degree=6, embed_dim=16, seed=5), the
world of the bench's train_small workload. Run as a script, it prints one
JSON line: the call's minor page faults, system seconds and wall seconds
(getrusage and the clock read around the call alone, not the world's
generation).

    python tests/one_shot_train.py 30000

The limit makes the script exit 1 when the call faults more than that
many times. Large arrays that the allocator maps anew for every batch
fault about 100k times over the 12 epochs; reused heap memory a few
thousand.
"""

import json
import resource
import sys
import time
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from socialstance.model import TrainConfig, train  # noqa: E402
from socialstance.synthetic import heterophily_benchmark  # noqa: E402

SEED = 5
CONFIG = TrainConfig(epochs=12, learning_rate=5e-3, weight_decay=0.0, hops=2, history_len=3,
                     embed_dim=16, hidden_dim=16, batch_size=64, seed=SEED)


def main(argv) -> int:
    limit = int(argv[0])
    world = heterophily_benchmark(500, mean_degree=6, embed_dim=16, seed=SEED)
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    train(world.corpus, world.graph, world.store, CONFIG)
    seconds = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    faults = after.ru_minflt - before.ru_minflt
    print(json.dumps({"minor_faults": faults,
                      "system_s": round(after.ru_stime - before.ru_stime, 3),
                      "wall_s": round(seconds, 3)}))
    return 1 if faults > limit else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
