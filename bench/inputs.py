"""Seeded input files for each workload, generated once per seed and cached.

The program under test only ever sees these files: workloads reload them
through the library's loaders, in the order the matching CLI command
does. Generation runs in its own process (``python3 bench/inputs.py
<workload> <seed>``) so that neither its time nor its memory lands in the
measured process. The cache key hashes the library sources and this file,
so a change to the generator or to a file format regenerates the inputs.

The interaction CSV carries two records per edge, so every edge survives
build_social_graph's default min_weight=2 pruning.
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CACHE = BENCH_DIR / ".cache"

# The criterion-4 training configuration (see tests/test_acceptance.py).
TRAIN_CONFIG = dict(epochs=12, learning_rate=5e-3, weight_decay=0.0, hops=2,
                    history_len=3, embed_dim=16, hidden_dim=16, batch_size=64)

WORLDS = {
    "train_small": dict(n_nodes=500, mean_degree=6, embed_dim=16),
    "classify_large": dict(n_nodes=20000, mean_degree=16, embed_dim=16),
}
CHANGE_SAMPLES = 200

WORKLOAD_NAMES = ("train_small", "classify_large", "change_predict")


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "socialstance").glob("*.py")) + [Path(__file__)]:
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def input_dir(workload: str, seed: int) -> Path:
    return CACHE / source_digest() / f"{workload}-seed{seed}"


def write_world(bench, out: Path) -> None:
    """Posts JSONL, interaction CSV and embedding store of a generated world."""
    from socialstance.corpus import write_posts
    from socialstance.embed import save_embedding_store
    from socialstance.socialgraph import INTERACTION_HEADER

    write_posts(bench.corpus, out / "posts.jsonl")
    with open(out / "interactions.csv", "w", encoding="utf-8") as fh:
        fh.write(INTERACTION_HEADER + "\n")
        for i, (u, v) in enumerate(bench.graph.edges()):
            fh.write(f"{u},{v},mention,{i}\n{v},{u},retweet,{i}\n")
    save_embedding_store(bench.store, out / "embeddings.txt")


def generate(workload: str, seed: int, out: Path) -> None:
    from socialstance.gbdt import write_training_csv
    from socialstance.model import ModelParams, TrainConfig, save_checkpoint
    from socialstance.synthetic import change_benchmark, heterophily_benchmark

    if workload == "change_predict":
        features, labels = change_benchmark(n_samples=CHANGE_SAMPLES, seed=seed)
        write_training_csv(features, labels, out / "training.csv")
        return
    write_world(heterophily_benchmark(seed=seed, **WORLDS[workload]), out)
    if workload == "classify_large":
        config = TrainConfig(seed=seed, **TRAIN_CONFIG)
        save_checkpoint(ModelParams(config), out / "checkpoint.npz")


def ensure(workload: str, seed: int) -> Path:
    """The cached input directory, generated in a child process if missing."""
    final = input_dir(workload, seed)
    if not final.is_dir():
        subprocess.run([sys.executable, str(Path(__file__)), workload, str(seed)],
                       check=True, timeout=600)
    return final


def main(argv) -> int:
    workload, seed = argv[0], int(argv[1])
    if workload not in WORKLOAD_NAMES:
        raise SystemExit(f"unknown workload {workload!r}")
    sys.path.insert(0, str(SRC))
    final = input_dir(workload, seed)
    if final.is_dir():
        return 0
    tmp = final.with_name(f"{final.name}.tmp{os.getpid()}")
    tmp.mkdir(parents=True)
    try:
        generate(workload, seed, tmp)
        os.replace(tmp, final)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
