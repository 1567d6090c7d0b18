"""End-to-end command-line checks through main(argv).

Each subcommand runs against small on-disk fixtures; exit codes and output
bytes are asserted, including the determinism guarantee (two identical
invocations produce byte-identical files and stdout).
"""

import contextlib
import inspect
import io
import json
import re
import tempfile
import warnings
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socialstance import gbdt
from socialstance.cli import (CLASSIFY_HEADER, build_parser, load_config_file, main,
                              parse_timestamp)
from socialstance.corpus import Corpus, Post, StanceLabel, write_posts
from socialstance.embed import (HashedNgramEncoder, load_embedding_store, precompute,
                                save_embedding_store)
from socialstance.errors import InputDataError, write_csv
from socialstance.model import (ModelParams, TrainConfig, forward, load_checkpoint,
                                save_checkpoint)
from socialstance.socialgraph import (DEFAULT_MIN_WEIGHT, build_social_graph,
                                      load_interactions)

DAY = 86_400


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """Posts, interactions, followers and embeddings on disk."""
    root = tmp_path_factory.mktemp("world")
    users = [f"u{i}" for i in range(8)]
    posts = []
    for i, user in enumerate(users):
        posts.append(Post(id=f"{user}h", author_id=user, timestamp=10 + i,
                          text=f"earlier thoughts from {user} on the rollout"))
        posts.append(Post(id=f"{user}t", author_id=user, timestamp=5 * DAY + i,
                          text=f"final word from {user} about the vaccine",
                          label=StanceLabel(i % 4)))
    corpus = Corpus(posts)
    posts_path = root / "posts.jsonl"
    write_posts(corpus, posts_path)

    inter_path = root / "interactions.csv"
    lines = ["source,target,kind,timestamp"]
    for i in range(8):
        a, b = users[i], users[(i + 1) % 8]
        lines.append(f"{a},{b},retweet,100")
        lines.append(f"{a},{b},mention,200")
    inter_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    followers_path = root / "followers.csv"
    follower_lines = ["u,v"] + [f"{users[i]},{users[(i + 1) % 8]}" for i in range(8)]
    followers_path.write_text("\n".join(follower_lines) + "\n", encoding="utf-8")

    store = precompute(corpus, HashedNgramEncoder(dim=8))
    emb_path = root / "embeddings.tsv"
    save_embedding_store(store, emb_path)
    return {"root": root, "posts": posts_path, "interactions": inter_path,
            "followers": followers_path, "embeddings": emb_path}


def write_config(path, world, **overrides):
    settings = {
        "posts": world["posts"],
        "interactions": world["interactions"],
        "embeddings": world["embeddings"],
        "epochs": 2,
        "learning_rate": 0.001,
        "hops": 1,
        "history_len": 2,
        "embed_dim": 8,
        "hidden_dim": 4,
        "batch_size": 4,
        "seed": 0,
        "split": "0.5,0.25,0.25",
    }
    settings.update(overrides)
    body = "# training settings\n" + "".join(
        f"{k} = {v}\n" for k, v in settings.items())
    path.write_text(body, encoding="utf-8")
    return path


def assert_input_error(code, capsys, needle):
    """Bad input: exit 2 and one clean error line naming the problem."""
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and needle in err
    assert "Traceback" not in err and "pickle" not in err


class TestConfigParsing:
    def test_comments_blanks_and_values(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# top\n\nepochs = 3  # inline\nseed=9\n", encoding="utf-8")
        assert load_config_file(path) == {"epochs": "3", "seed": "9"}

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("seed=1\nseed=2\n", encoding="utf-8")
        with pytest.raises(InputDataError, match="line 2: duplicate key"):
            load_config_file(path)

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("epochs\n", encoding="utf-8")
        with pytest.raises(InputDataError, match="line 1: expected key=value"):
            load_config_file(path)


class TestTimestampParsing:
    def test_integer_passthrough(self):
        assert parse_timestamp("12345") == 12345
        assert parse_timestamp("-5") == -5

    def test_utc_date(self):
        assert parse_timestamp("1970-01-01") == 0
        assert parse_timestamp("1970-01-02") == DAY
        assert parse_timestamp("2021-03-01") == 1614556800

    def test_garbage_rejected(self):
        with pytest.raises(InputDataError, match="expected integer seconds"):
            parse_timestamp("yesterday")


class TestBuildGraph:
    def test_exports_and_stats(self, world, tmp_path, capsys):
        out = tmp_path / "graph"
        out.mkdir()
        code = main(["build-graph", "--interactions", str(world["interactions"]),
                     "--out-dir", str(out)])
        assert code == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["n_nodes"] == 8
        assert (out / "edges.csv").exists()
        assert (out / "nodes.txt").read_text().splitlines() == [
            f"u{i}" for i in range(8)]
        assert json.loads((out / "stats.json").read_text()) == stats

    def test_empty_interactions_exit_2(self, tmp_path, capsys):
        inter = tmp_path / "empty.csv"
        inter.write_text("source,target,kind,timestamp\n", encoding="utf-8")
        code = main(["build-graph", "--interactions", str(inter),
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_min_weight_zero_exit_2(self, world, tmp_path, capsys):
        code = main(["build-graph", "--interactions", str(world["interactions"]),
                     "--min-weight", "0", "--out-dir", str(tmp_path)])
        assert_input_error(code, capsys, "min_weight")


class TestTrain:
    def test_trains_and_is_byte_deterministic(self, world, tmp_path, capsys):
        cfg = write_config(tmp_path / "train.cfg", world)
        outputs = []
        for run in ("a", "b"):
            ckpt = tmp_path / f"model_{run}.npz"
            log = tmp_path / f"log_{run}.csv"
            code = main(["train", "--config", str(cfg),
                         "--checkpoint-out", str(ckpt), "--log-out", str(log)])
            assert code == 0
            outputs.append((capsys.readouterr().out, ckpt.read_bytes(),
                            log.read_bytes()))
        assert outputs[0] == outputs[1]
        report = json.loads(outputs[0][0])
        assert set(report) >= {"accuracy", "precision", "recall", "f1"}
        log_lines = outputs[0][2].decode().splitlines()
        assert log_lines[0] == "epoch,train_loss,val_accuracy"
        assert len(log_lines) == 3

    def test_flag_overrides_config(self, world, tmp_path, capsys):
        cfg = write_config(tmp_path / "train.cfg", world)
        log = tmp_path / "log.csv"
        code = main(["train", "--config", str(cfg), "--epochs", "1",
                     "--log-out", str(log)])
        assert code == 0
        capsys.readouterr()
        assert len(log.read_text().splitlines()) == 2  # header + one epoch

    def test_unknown_config_key_exit_2(self, world, tmp_path, capsys):
        cfg = write_config(tmp_path / "t.cfg", world, warmup=5)
        assert main(["train", "--config", str(cfg)]) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_missing_settings_exit_2(self, world, tmp_path, capsys):
        cfg = tmp_path / "t.cfg"
        cfg.write_text(f"posts = {world['posts']}\nepochs = 1\n", encoding="utf-8")
        assert main(["train", "--config", str(cfg)]) == 2
        assert "missing settings" in capsys.readouterr().err

    def test_non_numeric_config_value_exit_2(self, world, tmp_path, capsys):
        cfg = write_config(tmp_path / "t.cfg", world, epochs="many")
        assert main(["train", "--config", str(cfg)]) == 2
        assert "expected integer" in capsys.readouterr().err

    def test_non_numeric_split_exit_2(self, world, tmp_path, capsys):
        cfg = write_config(tmp_path / "t.cfg", world, split="a,b,c")
        assert_input_error(main(["train", "--config", str(cfg)]), capsys, "split")

    @pytest.mark.parametrize("key,value", [("learning_rate", "nan"),
                                           ("weight_decay", "inf"),
                                           ("split", "nan,0.5,0.5")])
    def test_non_finite_config_value_exit_2(self, world, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path / "t.cfg", world, **{key: value})
        assert_input_error(main(["train", "--config", str(cfg)]), capsys, key)

    def test_negative_seed_exit_2(self, world, tmp_path, capsys):
        cfg = write_config(tmp_path / "t.cfg", world, seed=-1)
        assert_input_error(main(["train", "--config", str(cfg)]), capsys, "seed must be >= 0")

    def test_non_utf8_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "t.cfg"
        cfg.write_bytes(b"epochs = 1\n# caf\xe9\n")
        assert_input_error(main(["train", "--config", str(cfg)]), capsys, "utf-8")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exit_3(self, world, tmp_path, capsys):
        cfg = write_config(tmp_path / "t.cfg", world, learning_rate=1e200,
                           epochs=4)
        assert main(["train", "--config", str(cfg)]) == 3
        assert "training diverged" in capsys.readouterr().err

    def test_divergence_prints_one_line(self, world, tmp_path, capsys):
        cfg = write_config(tmp_path / "t.cfg", world, learning_rate=1e300)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["train", "--config", str(cfg)]) == 3
        assert [str(w.message) for w in caught] == []
        assert re.fullmatch(r"error: training diverged at epoch \d+: non-finite loss\n",
                            capsys.readouterr().err)


@pytest.fixture(scope="module")
def checkpoint(world, tmp_path_factory):
    root = tmp_path_factory.mktemp("ckpt")
    cfg = write_config(root / "train.cfg", world)
    path = root / "model.npz"
    assert main(["train", "--config", str(cfg),
                 "--checkpoint-out", str(path)]) == 0
    return path


class TestClassify:
    def test_writes_csv_and_is_deterministic(self, world, checkpoint, tmp_path,
                                             capsys):
        files = []
        for run in ("a", "b"):
            out = tmp_path / f"pred_{run}.csv"
            code = main(["classify", "--checkpoint", str(checkpoint),
                         "--posts", str(world["posts"]),
                         "--embeddings", str(world["embeddings"]),
                         "--interactions", str(world["interactions"]),
                         "--out", str(out)])
            assert code == 0
            files.append(out.read_bytes())
        capsys.readouterr()
        assert files[0] == files[1]
        lines = files[0].decode().splitlines()
        assert lines[0] == "post_id,label,p_PO,p_NG,p_NE,p_PD"
        assert len(lines) == 17  # 16 posts classified
        for line in lines[1:]:
            probs = [float(x) for x in line.split(",")[2:]]
            assert sum(probs) == pytest.approx(1.0, abs=1e-9)
            assert line.split(",")[1] in ("PO", "NG", "NE", "PD")

    @staticmethod
    def ring_classify(root, posts, embedded, config, *extra):
        """Run classify on `posts` over the ring a-b-c-d-e, with a store of
        the `embedded` posts and a fresh checkpoint of `config`."""
        users = ["a", "b", "c", "d", "e"]
        write_posts(Corpus(posts), root / "posts.jsonl")
        lines = ["source,target,kind,timestamp"]
        for u, v in zip(users, users[1:] + users[:1]):
            lines += [f"{u},{v},retweet,1", f"{v},{u},mention,2"]
        (root / "inter.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        save_embedding_store(precompute(Corpus(embedded), HashedNgramEncoder(dim=8)),
                             root / "emb.tsv")
        save_checkpoint(ModelParams(config), root / "model.npz")
        return main(["classify", "--checkpoint", str(root / "model.npz"),
                     "--posts", str(root / "posts.jsonl"), "--embeddings", str(root / "emb.tsv"),
                     "--interactions", str(root / "inter.csv"), *extra])

    def test_rows_follow_corpus_order_across_interleaved_authors(self, tmp_path, capsys):
        # classify builds each author's ball once; its rows must still be
        # forward()'s, post by post, in corpus order. Authors interleave, a
        # stranger is skipped midway, and a posts twice at one timestamp.
        order = ["a", "b", "a", "c", "b", "stranger", "d", "a", "e", "c", "b", "a"]
        stamps = [50, 40, 50, 30, 60, 45, 20, 10, 55, 70, 35, 65]
        posts = [Post(id=f"q{i}", author_id=user, timestamp=ts,
                      text=f"post {i} by {user} on the jab")
                 for i, (user, ts) in enumerate(zip(order, stamps))]
        config = TrainConfig(hops=2, history_len=2, embed_dim=8, hidden_dim=4, seed=3)
        out = tmp_path / "pred.csv"
        assert self.ring_classify(tmp_path, posts, posts, config, "--out", str(out)) == 0
        assert capsys.readouterr().err == "skipped user not in social graph: stranger\n"

        corpus = Corpus(posts)
        graph = build_social_graph(load_interactions(tmp_path / "inter.csv"))
        store = load_embedding_store(tmp_path / "emb.tsv", 8)
        params = load_checkpoint(tmp_path / "model.npz")
        rows = []
        for post in posts:
            if post.author_id != "stranger":
                prediction = forward(post, graph, corpus, store, params, config)
                rows.append([post.id, prediction.label.name,
                             *map(repr, map(float, prediction.probabilities))])
        write_csv(tmp_path / "want.csv", CLASSIFY_HEADER, rows)
        assert out.read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_first_failing_post_in_corpus_order_is_named(self, tmp_path, capsys):
        # c1 and a2 lack embeddings. Grouped by author, a2 (a's second post)
        # runs before c1, but c1 comes first in the corpus, so c1 is named.
        posts = [Post(id="a1", author_id="a", timestamp=10, text="first by a"),
                 Post(id="c1", author_id="c", timestamp=20, text="first by c"),
                 Post(id="a2", author_id="a", timestamp=30, text="second by a")]
        config = TrainConfig(hops=1, history_len=2, embed_dim=8, hidden_dim=4)
        code = self.ring_classify(tmp_path, posts, posts[:1], config)
        assert_input_error(code, capsys, "unknown post id: 'c1'")

    def test_edge_list_input(self, world, checkpoint, tmp_path, capsys):
        graph_dir = tmp_path / "graph"
        graph_dir.mkdir()
        assert main(["build-graph", "--interactions", str(world["interactions"]),
                     "--out-dir", str(graph_dir)]) == 0
        out = tmp_path / "pred.csv"
        code = main(["classify", "--checkpoint", str(checkpoint),
                     "--posts", str(world["posts"]),
                     "--embeddings", str(world["embeddings"]),
                     "--edges", str(graph_dir / "edges.csv"),
                     "--nodes", str(graph_dir / "nodes.txt"),
                     "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        assert len(out.read_text().splitlines()) == 17

    def test_self_edge_in_edge_list_exit_2(self, world, checkpoint, edge_list,
                                           tmp_path, capsys):
        lines = edge_list.read_text().splitlines() + ["u3,u3"]
        edges = tmp_path / "edges.csv"
        edges.write_text("\n".join(lines) + "\n")
        code = main(["classify", "--checkpoint", str(checkpoint),
                     "--posts", str(world["posts"]),
                     "--embeddings", str(world["embeddings"]),
                     "--edges", str(edges)])
        assert_input_error(code, capsys, f"line {len(lines)}: self-edge 'u3'")

    def test_superscript_store_dim_exit_2(self, world, checkpoint, tmp_path, capsys):
        # str.isdigit accepts "²", but int() does not.
        store = tmp_path / "store.tsv"
        store.write_text("d=²\n", encoding="utf-8")
        code = main(["classify", "--checkpoint", str(checkpoint),
                     "--posts", str(world["posts"]), "--embeddings", str(store),
                     "--interactions", str(world["interactions"])])
        assert_input_error(code, capsys, "expected 'd=<int>' header, got 'd=²'")

    def test_unknown_authors_skipped_all_empty_exit_4(self, world, checkpoint,
                                                      tmp_path, capsys):
        stray = Corpus([Post(id="x1", author_id="stranger", timestamp=0,
                             text="who am i")])
        posts = tmp_path / "stray.jsonl"
        write_posts(stray, posts)
        store = precompute(stray, HashedNgramEncoder(dim=8))
        emb = tmp_path / "stray.tsv"
        save_embedding_store(store, emb)
        code = main(["classify", "--checkpoint", str(checkpoint),
                     "--posts", str(posts), "--embeddings", str(emb),
                     "--interactions", str(world["interactions"])])
        assert code == 4
        err = capsys.readouterr().err
        assert "skipped user not in social graph: stranger" in err

    def test_non_checkpoint_file_exit_2(self, world, tmp_path, capsys):
        junk = tmp_path / "model.npz"
        junk.write_text("not an archive\n", encoding="utf-8")
        code = main(["classify", "--checkpoint", str(junk),
                     "--posts", str(world["posts"]),
                     "--embeddings", str(world["embeddings"]),
                     "--interactions", str(world["interactions"])])
        assert_input_error(code, capsys, "not a model checkpoint")

    @pytest.mark.parametrize("meta, needle", [
        ("not json", "not a model checkpoint"),
        ("[1,2]", "not a model checkpoint"),
        ('{"format_version": 1, "config": [1]}', "config is not a JSON object"),
        ('{"format_version": 1, "config": {"epochs": "x"}}', "config key 'epochs'"),
    ])
    def test_malformed_checkpoint_metadata_exit_2(self, world, tmp_path, capsys,
                                                  meta, needle):
        bad = tmp_path / "model.npz"
        np.savez(bad, __meta__=np.asarray(meta))
        code = main(["classify", "--checkpoint", str(bad),
                     "--posts", str(world["posts"]),
                     "--embeddings", str(world["embeddings"]),
                     "--interactions", str(world["interactions"])])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and needle in err
        assert "Traceback" not in err

    def test_misshapen_checkpoint_parameter_exit_2(self, world, checkpoint, tmp_path,
                                                  capsys):
        with np.load(checkpoint) as data:
            arrays = dict(data)
        arrays["param:input.w"] = arrays["param:input.w"][:, :1]
        bad = tmp_path / "model.npz"
        np.savez(bad, **arrays)
        code = main(["classify", "--checkpoint", str(bad),
                     "--posts", str(world["posts"]),
                     "--embeddings", str(world["embeddings"]),
                     "--interactions", str(world["interactions"])])
        assert_input_error(code, capsys, "parameter 'input.w' does not match")

    def test_object_checkpoint_parameter_exit_2(self, world, checkpoint, tmp_path,
                                                capsys):
        with np.load(checkpoint) as data:
            arrays = dict(data)
        arrays["param:input.w"] = arrays["param:input.w"].astype(object)
        bad = tmp_path / "model.npz"
        np.savez(bad, **arrays)
        code = main(["classify", "--checkpoint", str(bad),
                     "--posts", str(world["posts"]),
                     "--embeddings", str(world["embeddings"]),
                     "--interactions", str(world["interactions"])])
        assert_input_error(code, capsys, "parameter 'input.w' does not match")

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_checkpoint_parameter_exit_2(self, world, checkpoint, tmp_path,
                                                    capsys, value):
        with np.load(checkpoint) as data:
            arrays = dict(data)
        arrays["param:head.b"] = np.full_like(arrays["param:head.b"], value)
        bad = tmp_path / "model.npz"
        np.savez(bad, **arrays)
        code = main(["classify", "--checkpoint", str(bad),
                     "--posts", str(world["posts"]),
                     "--embeddings", str(world["embeddings"]),
                     "--interactions", str(world["interactions"])])
        assert_input_error(code, capsys, "parameter 'head.b' is not finite")

    def test_overflowing_checkpoint_exit_2(self, world, checkpoint, tmp_path, capsys):
        # Every parameter stays finite, so the checkpoint loads; the forward
        # pass overflows.
        with np.load(checkpoint) as data:
            arrays = {key: value * 1e300 if key.startswith("param:") else value
                      for key, value in data.items()}
        bad = tmp_path / "model.npz"
        np.savez(bad, **arrays)
        out = tmp_path / "pred.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["classify", "--checkpoint", str(bad),
                         "--posts", str(world["posts"]),
                         "--embeddings", str(world["embeddings"]),
                         "--interactions", str(world["interactions"]),
                         "--out", str(out)])
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1
        assert err.startswith("error: post 'u0h': class probabilities are not finite")
        assert not out.exists()

    def test_gcn_checkpoint_with_attention_vectors_exit_2(self, world, checkpoint,
                                                          tmp_path, capsys):
        # GCN checkpoints once carried unused attention vectors: the GAT
        # parameter names under an aggregator = gcn config.
        with np.load(checkpoint) as data:
            arrays = dict(data)
        meta = json.loads(str(arrays["__meta__"]))
        meta["config"]["aggregator"] = "gcn"
        arrays["__meta__"] = np.asarray(json.dumps(meta))
        old = tmp_path / "model.npz"
        np.savez(old, **arrays)
        code = main(["classify", "--checkpoint", str(old),
                     "--posts", str(world["posts"]),
                     "--embeddings", str(world["embeddings"]),
                     "--interactions", str(world["interactions"])])
        assert_input_error(code, capsys,
                           "unexpected ['layer1.order1.a'], missing []")

    def test_missing_checkpoint_named_exit_2(self, world, tmp_path, capsys):
        code = main(["classify", "--checkpoint", str(tmp_path / "x.npz"),
                     "--posts", str(world["posts"]),
                     "--embeddings", str(world["embeddings"]),
                     "--interactions", str(world["interactions"])])
        assert_input_error(code, capsys, "x.npz")

    def test_needs_a_graph_source_exit_2(self, world, checkpoint, capsys):
        code = main(["classify", "--checkpoint", str(checkpoint),
                     "--posts", str(world["posts"]),
                     "--embeddings", str(world["embeddings"])])
        assert code == 2
        assert "--edges or --interactions" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, needle", [
        (["--interactions", "interactions", "--nodes", "/nonexistent"],
         "--nodes needs --edges"),
        (["--edges", "edges", "--interactions", "/nonexistent"],
         "--edges excludes --interactions and --followers"),
        (["--edges", "edges", "--followers", "followers"],
         "--edges excludes --interactions and --followers"),
        (["--edges", "edges", "--min-weight", "2"],
         "--min-weight prunes --interactions, not --edges"),
    ])
    def test_one_graph_source_exit_2(self, world, checkpoint, edge_list, flags,
                                     needle, capsys):
        paths = {**world, "edges": edge_list}
        flags = [str(paths.get(flag, flag)) for flag in flags]
        code = main(["classify", "--checkpoint", str(checkpoint),
                     "--posts", str(world["posts"]),
                     "--embeddings", str(world["embeddings"]), *flags])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: {needle}\n"


class TestTrack:
    def make_posts(self, tmp_path):
        posts = [
            Post(id="a", author_id="u1", timestamp=10, text="x",
                 label=StanceLabel.PO),
            Post(id="b", author_id="u2", timestamp=20, text="x",
                 label=StanceLabel.PO),
            Post(id="c", author_id="u3", timestamp=30, text="x",
                 label=StanceLabel.NG),
            Post(id="d", author_id="u1", timestamp=DAY + 5, text="x",
                 label=StanceLabel.NE),
        ]
        path = tmp_path / "posts.jsonl"
        write_posts(Corpus(posts), path)
        return path

    def test_daily_fractions(self, tmp_path, capsys):
        posts = self.make_posts(tmp_path)
        out = tmp_path / "series.csv"
        code = main(["track", "--posts", str(posts), "--start", "1970-01-01",
                     "--end", "1970-01-03", "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[0] == "date,PO,NG,NE,PD"
        day1 = lines[1].split(",")
        assert day1[0] == "1970-01-01"
        assert [float(v) for v in day1[1:]] == pytest.approx(
            [2 / 3, 1 / 3, 0.0, 0.0])
        day2 = lines[2].split(",")
        assert [float(v) for v in day2[1:]] == pytest.approx([0, 0, 1.0, 0])

    def test_integer_and_date_forms_agree(self, tmp_path, capsys):
        posts = self.make_posts(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["track", "--posts", str(posts), "--start", "0",
                     "--end", str(2 * DAY), "--out", str(a)]) == 0
        assert main(["track", "--posts", str(posts), "--start", "1970-01-01",
                     "--end", "1970-01-03", "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_bad_date_exit_2(self, tmp_path, capsys):
        posts = self.make_posts(tmp_path)
        assert main(["track", "--posts", str(posts), "--start", "soon",
                     "--end", "later"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("start, end", [
        ("0", "100000000000000"),
        ("0", "100000000000000000000"),
        ("-100000000000000", "10"),
    ])
    def test_undatable_bound_exit_2(self, tmp_path, capsys, start, end):
        posts = self.make_posts(tmp_path)
        code = main(["track", "--posts", str(posts), "--start", start, "--end", end])
        typed = max(start, end, key=lambda bound: abs(int(bound)))  # the undatable one
        assert_input_error(code, capsys, f"timestamp {typed} is out of range")

    def test_missing_posts_file_named_exit_2(self, tmp_path, capsys):
        code = main(["track", "--posts", str(tmp_path / "missing.jsonl"),
                     "--start", "0", "--end", "10"])
        assert_input_error(code, capsys, "missing.jsonl")

    def test_non_utf8_posts_exit_2(self, tmp_path, capsys):
        posts = tmp_path / "posts.jsonl"
        posts.write_bytes(b'{"id": "a", "author_id": "u", "timestamp": 0, '
                          b'"text": "caf\xe9"}\n')
        code = main(["track", "--posts", str(posts), "--start", "0", "--end", "10"])
        assert_input_error(code, capsys, "utf-8")


# Post-shaped JSON objects with fields of any JSON type, and raw bytes.
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(
        st.text(max_size=3), inner, max_size=2),
    max_leaves=4)
_post_lines = st.dictionaries(
    st.sampled_from(["id", "author_id", "timestamp", "text", "kind",
                     "source_post_id", "retweet_count", "label"]),
    _json_values | st.sampled_from(["PO", "NG", "quote", "reply", "retweet", 0, 5]),
    max_size=8).map(lambda obj: json.dumps(obj).encode())
_post_files = st.lists(_post_lines | st.binary(max_size=40), max_size=4).map(
    b"\n".join)


@settings(max_examples=150, deadline=None)
@given(data=_post_files)
def test_track_on_arbitrary_bytes_never_exits_3(data):
    with tempfile.TemporaryDirectory() as root:
        posts = Path(root) / "posts.jsonl"
        posts.write_bytes(data)
        code = main(["track", "--posts", str(posts), "--start", "0",
                     "--end", str(3 * DAY), "--out", str(Path(root) / "out.csv")])
    assert code in (0, 2, 4)


# Interaction-shaped lines (any fields, some well formed) and raw bytes.
_interaction_files = st.lists(
    st.lists(st.sampled_from(["u0", "u1", "u2", "", "retweet", "mention", "7", "x", " "])
             | st.text(max_size=3), min_size=1, max_size=5).map(
        lambda fields: ",".join(fields).encode())
    | st.sampled_from([b"u0,u1,mention,1", b"u1,u2,retweet,2", b"u0,u0,mention,3"])
    | st.binary(max_size=30), max_size=8).map(
        lambda lines: b"\n".join([b"source,target,kind,timestamp"] + lines))


@settings(max_examples=150, deadline=None)
@given(data=_interaction_files | st.binary(max_size=60))
def test_build_graph_on_arbitrary_interactions_never_exits_3(data):
    with tempfile.TemporaryDirectory() as root:
        inter = Path(root) / "inter.csv"
        inter.write_bytes(data)
        code = main(["build-graph", "--interactions", str(inter), "--min-weight", "1",
                     "--out-dir", root])
    assert code in (0, 2, 4)


# Store-shaped lines for the world's posts (dim 8), some well formed, and bytes.
_store_files = st.lists(
    st.builds(lambda pid, toks: f"{pid}\t{' '.join(toks)}".encode(),
              st.sampled_from([f"u{i}{s}" for i in range(8) for s in "ht"] + ["", "zz"]),
              st.lists(st.sampled_from(["0.5", "-1e3", "nan", "inf", "1_0", "x", ""])
                       | st.floats(width=64).map(repr), min_size=7, max_size=9))
    | st.binary(max_size=30), max_size=18).map(
        lambda lines: b"\n".join([b"d=8"] + lines))


@settings(max_examples=60, deadline=None)
@given(data=_store_files | st.binary(max_size=60))
def test_classify_on_arbitrary_embeddings_never_exits_3(world, checkpoint, data):
    with tempfile.TemporaryDirectory() as root:
        store = Path(root) / "store.tsv"
        store.write_bytes(data)
        code = main(["classify", "--checkpoint", str(checkpoint),
                     "--posts", str(world["posts"]), "--embeddings", str(store),
                     "--interactions", str(world["interactions"]),
                     "--out", str(Path(root) / "pred.csv")])
    assert code in (0, 2, 4)


def run_quietly(argv):
    """Run main(argv) with its output captured: it exits 0, 2 or 4, and a
    nonzero exit prints exactly one `error:` line."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 4)
    if code:
        assert len(err.getvalue().splitlines()) == 1 and err.getvalue().startswith("error: ")


def _npy_bytes(array) -> bytes:
    buffer = io.BytesIO()
    np.lib.format.write_array(buffer, np.asanyarray(array), allow_pickle=True)
    return buffer.getvalue()


def _npz_bytes(members, method) -> bytearray:
    """A zip of {array name: member bytes}, laid out as np.savez lays it out."""
    archive = io.BytesIO()
    with zipfile.ZipFile(archive, "w", method) as zf:
        for name, body in members.items():
            zf.writestr(name + ".npy", body)
    return bytearray(archive.getvalue())


def _damaged_checkpoint(checkpoint, damage) -> bytes:
    """The checkpoint as a deflated zip, one of its members or its
    directory damaged."""
    with np.load(checkpoint) as data:
        members = {name: _npy_bytes(data[name]) for name in data.files}
    if damage in ("raw __meta__", "raw param:input.w"):
        members[damage[4:]] = b"not npy data"
    body = _npz_bytes(members, zipfile.ZIP_DEFLATED)
    last = body.rfind(b"PK\x01\x02")  # the last member's directory entry
    if damage == "encrypted":
        body[last + 8] |= 1  # its general purpose flags
    elif damage == "zip version":
        body[last + 6] = 99  # version needed to extract: 9.9
    elif damage == "deflate":  # the first member's data, after its local header
        start = 30 + sum(int.from_bytes(body[at:at + 2], "little") for at in (26, 28))
        body[start:start + 4] = b"\xff" * 4
    elif damage == "directory offset":  # members then start before the file
        at = body.rfind(b"PK\x05\x06") + 16
        offset = int.from_bytes(body[at:at + 4], "little") + 1000
        body[at:at + 4] = offset.to_bytes(4, "little")
    return bytes(body)


@pytest.mark.parametrize("damage, needle", [
    ("raw __meta__", "not a model checkpoint"),
    ("raw param:input.w", "parameter 'input.w' does not match"),
    ("encrypted", "parameter 'head.b' does not match"),
    ("zip version", "not a model checkpoint"),
    ("deflate", "not a model checkpoint"),
    ("directory offset", "not a model checkpoint"),
])
def test_damaged_checkpoint_archive_exit_2(world, checkpoint, tmp_path, capsys, damage,
                                           needle):
    bad = tmp_path / "model.npz"
    bad.write_bytes(_damaged_checkpoint(checkpoint, damage))
    code = main(["classify", "--checkpoint", str(bad), "--posts", str(world["posts"]),
                 "--embeddings", str(world["embeddings"]),
                 "--interactions", str(world["interactions"])])
    assert_input_error(code, capsys, needle)


# Edits of a checkpoint archive: a member dropped (None), replaced by a
# same-shape fill (a float), by another array, or by raw bytes.
_member_edits = st.dictionaries(
    st.sampled_from(["__meta__", "param:input.w", "param:head.b", "param:extra"]),
    st.none() | st.floats() | st.binary(max_size=20)
    | st.sampled_from([np.asarray("{}"), np.asarray("[1]"), np.zeros(2, dtype=object),
                       np.zeros((0,)), np.arange(3), np.asarray(b"x")]),
    max_size=2)


@settings(max_examples=80, deadline=None)
@given(edits=_member_edits, deflate=st.booleans(), flip=st.none() | st.integers(0, 10**6),
       cut=st.none() | st.integers(0, 10**6), raw=st.none() | st.binary(max_size=60))
def test_classify_on_arbitrary_checkpoint_never_exits_3(world, checkpoint, edits, deflate,
                                                        flip, cut, raw):
    with np.load(checkpoint) as data:
        members = {name: _npy_bytes(data[name]) for name in data.files}
        for name, value in edits.items():
            if value is None:
                members.pop(name, None)
            elif isinstance(value, float):
                members[name] = _npy_bytes(np.full_like(data.get(name, np.zeros(1)), value))
            else:
                members[name] = value if isinstance(value, bytes) else _npy_bytes(value)
    body = _npz_bytes(members, zipfile.ZIP_DEFLATED if deflate else zipfile.ZIP_STORED)
    if flip is not None:
        body[flip % len(body)] ^= 0xFF
    body = bytes(body[:cut]) if raw is None else raw
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "model.npz"
        path.write_bytes(body)
        run_quietly(["classify", "--checkpoint", str(path),
                     "--posts", str(world["posts"]),
                     "--embeddings", str(world["embeddings"]),
                     "--interactions", str(world["interactions"]),
                     "--out", str(Path(root) / "pred.csv")])


@pytest.fixture(scope="module")
def edge_list(world, tmp_path_factory):
    root = tmp_path_factory.mktemp("graph")
    assert main(["build-graph", "--interactions", str(world["interactions"]),
                 "--out-dir", str(root)]) == 0
    return root / "edges.csv"


# Nodes files: lines of graph users, strangers, blanks and junk, or raw bytes.
_node_files = st.lists(
    st.sampled_from(["u0", "u3", "u7", " u1 ", "stranger", "", " ", "u1,u2", "\r"])
    .map(str.encode) | st.text(max_size=4).map(str.encode) | st.binary(max_size=10),
    max_size=6).map(b"\n".join) | st.binary(max_size=60)


@settings(max_examples=60, deadline=None)
@given(data=_node_files)
def test_classify_on_arbitrary_nodes_never_exits_3(world, checkpoint, edge_list, data):
    with tempfile.TemporaryDirectory() as root:
        nodes = Path(root) / "nodes.txt"
        nodes.write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["classify", "--checkpoint", str(checkpoint),
                         "--posts", str(world["posts"]),
                         "--embeddings", str(world["embeddings"]),
                         "--edges", str(edge_list), "--nodes", str(nodes),
                         "--out", str(Path(root) / "pred.csv")])
    assert code in (0, 2, 4)
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert len(errors) == (0 if code == 0 else 1)


def _csv_files(header, lines, junk_cells, width):
    """Files of the header and `lines`, with at most one junk line put among
    them: about `width` cells from junk_cells or any short text, or raw
    bytes. Or a file of raw bytes."""
    junk = st.lists(st.sampled_from(junk_cells) | st.text(max_size=3),
                    min_size=width - 1, max_size=width + 1).map(
        lambda cells: ",".join(cells).encode()) | st.binary(max_size=20)
    return st.builds(
        lambda good, bad, at: b"\n".join([header.encode()] + good[:at] + bad + good[at:]),
        lines.map(lambda good: [line.encode() for line in good]),
        st.lists(junk, max_size=1), st.integers(0, 10)) | st.binary(max_size=60)


_followers = st.lists(st.builds("u{},u{}".format, st.integers(0, 9), st.integers(0, 9)),
                      max_size=8)


@settings(max_examples=100, deadline=None)
@given(data=_csv_files("u,v", _followers, ["u0", "u1", "u5", "", " ", "x"], 2))
def test_build_graph_on_arbitrary_followers_never_exits_3(world, data):
    with tempfile.TemporaryDirectory() as root:
        followers = Path(root) / "followers.csv"
        followers.write_bytes(data)
        run_quietly(["build-graph", "--interactions", str(world["interactions"]),
                     "--followers", str(followers), "--min-weight", "1", "--out-dir", root])


_ratings = st.lists(st.builds("i{},r{},{}".format, st.integers(0, 2), st.integers(0, 2),
                              st.sampled_from(["PO", "NG", "NE"])),
                    max_size=9, unique_by=lambda line: line.rsplit(",", 1)[0])


@settings(max_examples=100, deadline=None)
@given(data=_csv_files("item_id,rater_id,label", _ratings,
                       ["i0", "i1", "r0", "r1", "PO", "NG", ""], 3))
def test_agreement_on_arbitrary_ratings_never_exits_3(data):
    with tempfile.TemporaryDirectory() as root:
        ratings = Path(root) / "ratings.csv"
        ratings.write_bytes(data)
        run_quietly(["agreement", "--ratings", str(ratings)])


_examples = st.lists(st.builds(
    lambda cells, label: ",".join(cells + [label]),
    st.lists(st.sampled_from(["0", "1", "2.5", "-3"]), min_size=11, max_size=11),
    st.sampled_from(["increased", "decreased", "unchanged"])), max_size=10)


@settings(max_examples=100, deadline=None)
@given(data=_csv_files(gbdt.training_csv_header(), _examples,
                       ["0", "1", "nan", "inf", "1e400", "x", "", "increased"], 12))
def test_predict_change_on_arbitrary_data_never_exits_3(data):
    with tempfile.TemporaryDirectory() as root:
        training = Path(root) / "train.csv"
        training.write_bytes(data)
        run_quietly(["predict-change", "--data", str(training), "--rounds", "2",
                     "--sessions", "1"])


# Settings that replace or join those of the world's small config (all train
# keys but the output paths, and one unknown key) with values of every kind.
_overrides = st.dictionaries(
    st.sampled_from(["epochs", "learning_rate", "weight_decay", "hops", "history_len",
                     "embed_dim", "hidden_dim", "batch_size", "seed", "split", "aggregator",
                     "history", "min_weight", "followers", "colour"]),
    st.sampled_from(["0", "1", "2", "-1", "nan", "inf", "x", "", "0.5", "1e-3",
                     "0.5,0.25,0.25", "1,0,0", "0.5,0.5", "gcn", "mean"]),
    max_size=3)
_tails = st.just(b"") | st.lists(st.text(max_size=8), max_size=2).map(
    lambda lines: "".join(line + "\n" for line in lines).encode()) | st.binary(max_size=30)


@settings(max_examples=60, deadline=None)
@given(overrides=_overrides, tail=_tails, raw=st.none() | st.binary(max_size=60))
def test_train_on_arbitrary_config_never_exits_3(world, overrides, tail, raw):
    with tempfile.TemporaryDirectory() as root:
        config = write_config(Path(root) / "train.cfg", world, **{
            "epochs": 1, "checkpoint_out": Path(root) / "model.npz",
            "log_out": Path(root) / "log.csv", **overrides})
        config.write_bytes(config.read_bytes() + tail if raw is None else raw)
        run_quietly(["train", "--config", str(config)])


@pytest.mark.parametrize("field", ["id", "author_id"])
@pytest.mark.parametrize("value", [["a"], 5.0, True])
def test_non_string_post_ids_exit_2(tmp_path, capsys, field, value):
    posts = tmp_path / "posts.jsonl"
    posts.write_text(json.dumps({"id": "p", "author_id": "u", "timestamp": 0, "text": "x",
                                 field: value}) + "\n", encoding="utf-8")
    code = main(["track", "--posts", str(posts), "--start", "0", "--end", "10"])
    assert_input_error(code, capsys, "line 1: ")


@settings(max_examples=100, deadline=None)
@given(data=_post_files, bounds=st.lists(
    st.sampled_from(["0", "1", "100", str(DAY), str(3 * DAY), "1970-01-02", "x"]),
    min_size=2, max_size=2), margin=st.integers(-2, 3))
def test_hesitancy_period_on_arbitrary_posts(data, bounds, margin):
    with tempfile.TemporaryDirectory() as root:
        posts = Path(root) / "posts.jsonl"
        posts.write_bytes(data)
        run_quietly(["hesitancy", "--posts", str(posts),
                     "--period-start", bounds[0], "--period-end", bounds[1],
                     "--margin-days", str(margin), "--min-posts", "1",
                     "--out", str(Path(root) / "out.csv")])


class TestHesitancy:
    def make_posts(self, tmp_path):
        """u1 leans positive, u2 firmly negative; u2 softens after the period."""
        posts = []
        for m, label in enumerate((StanceLabel.PO, StanceLabel.PO, StanceLabel.NG)):
            posts.append(Post(id=f"u1b{m}", author_id="u1", timestamp=100 + m,
                              text="x", label=label))
        for m in range(3):
            posts.append(Post(id=f"u2b{m}", author_id="u2", timestamp=100 + m,
                              text="x", label=StanceLabel.NG))
        # after the period: u1 unchanged, u2 fully positive
        for m, label in enumerate((StanceLabel.PO, StanceLabel.PO, StanceLabel.NG)):
            posts.append(Post(id=f"u1a{m}", author_id="u1",
                              timestamp=10 * DAY + m, text="x", label=label))
        for m in range(3):
            posts.append(Post(id=f"u2a{m}", author_id="u2",
                              timestamp=10 * DAY + m, text="x", label=StanceLabel.PD))
        path = tmp_path / "posts.jsonl"
        write_posts(Corpus(posts), path)
        return path

    def test_window_scores(self, tmp_path, capsys):
        posts = self.make_posts(tmp_path)
        out = tmp_path / "scores.csv"
        code = main(["hesitancy", "--posts", str(posts), "--start", "0",
                     "--end", "1000", "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[0] == "user,window_start,window_end,n_pos,n_neg,score"
        assert lines[1].startswith("u1,0,1000,2,1,")
        assert float(lines[1].split(",")[-1]) == pytest.approx(1 / 3)
        assert lines[2] == "u2,0,1000,0,3,-1.0"

    def test_period_change(self, tmp_path, capsys):
        posts = self.make_posts(tmp_path)
        code = main(["hesitancy", "--posts", str(posts),
                     "--period-start", str(2 * DAY), "--period-end", str(9 * DAY),
                     "--margin-days", "2"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "user,before_score,after_score,change"
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert rows["u1"][3] == "unchanged"
        assert rows["u2"][1] == "-1.0"
        assert rows["u2"][2] == "1.0"
        assert rows["u2"][3] == "increased"

    def test_no_eligible_users_exit_4(self, tmp_path, capsys):
        posts = self.make_posts(tmp_path)
        assert main(["hesitancy", "--posts", str(posts), "--start",
                     str(100 * DAY), "--end", str(101 * DAY)]) == 4
        capsys.readouterr()

    def test_reversed_period_exit_2(self, tmp_path, capsys):
        posts = [Post(id=f"{label.name}{m}", author_id="u1", timestamp=t + m,
                      text="x", label=label)
                 for label, t in ((StanceLabel.PO, 100), (StanceLabel.NG, 500))
                 for m in range(3)]
        path = tmp_path / "posts.jsonl"
        write_posts(Corpus(posts), path)

        def hesitancy(start, end):
            return main(["hesitancy", "--posts", str(path), "--period-start", start,
                         "--period-end", end, "--margin-days", "1", "--min-posts", "1"])

        assert hesitancy("200", "300") == 0
        assert capsys.readouterr().out.splitlines()[1] == "u1,1.0,-1.0,decreased"
        assert hesitancy("300", "200") == 2
        assert capsys.readouterr().err == (
            "error: --period-end is earlier than --period-start\n")
        assert hesitancy("300", "300") == 0
        capsys.readouterr()

    @pytest.mark.parametrize("margin", ["0", "-3"])
    def test_margin_below_one_day_exit_2(self, tmp_path, capsys, margin):
        posts = self.make_posts(tmp_path)
        code = main(["hesitancy", "--posts", str(posts), "--period-start", "100",
                     "--period-end", "200", "--margin-days", margin])
        assert code == 2
        assert capsys.readouterr().err == "error: --margin-days must be >= 1\n"

    @pytest.mark.parametrize("min_posts", ["0", "-1"])
    @pytest.mark.parametrize("window", [["--start", "0", "--end", "1000"],
                                        ["--period-start", "100", "--period-end", "200"]])
    def test_min_posts_below_one_exit_2(self, tmp_path, capsys, min_posts, window):
        posts = self.make_posts(tmp_path)
        code = main(["hesitancy", "--posts", str(posts), *window, "--min-posts", min_posts])
        assert code == 2
        assert capsys.readouterr().err == "error: --min-posts must be >= 1\n"

    def test_margin_days_without_period_exit_2(self, tmp_path, capsys):
        posts = self.make_posts(tmp_path)
        code = main(["hesitancy", "--posts", str(posts), "--start", "0",
                     "--end", "1000", "--margin-days", "3"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: --margin-days needs --period-start/--period-end\n")

    def test_mode_flag_validation(self, tmp_path, capsys):
        posts = self.make_posts(tmp_path)
        assert main(["hesitancy", "--posts", str(posts), "--start", "0"]) == 2
        assert main(["hesitancy", "--posts", str(posts),
                     "--period-start", "0"]) == 2
        assert main(["hesitancy", "--posts", str(posts), "--start", "0",
                     "--end", "10", "--period-start", "0",
                     "--period-end", "10"]) == 2
        capsys.readouterr()


@pytest.fixture(scope="module")
def training_csv(tmp_path_factory):
    root = tmp_path_factory.mktemp("gbdt")
    rng = np.random.default_rng(0)
    features = rng.standard_normal((60, 11))
    labels = np.digitize(features[:, 0], [-0.4, 0.4])
    path = root / "train.csv"
    gbdt.write_training_csv(features, labels, path)
    return path


class TestPredictChange:
    @pytest.mark.parametrize("flag,value,needle", [
        ("--train-frac", "nan", "train fraction"),
        ("--shrinkage", "inf", "shrinkage"),
        ("--sessions", "0", "sessions"),
    ])
    def test_bad_value_exit_2(self, training_csv, capsys, flag, value, needle):
        code = main(["predict-change", "--data", str(training_csv), flag, value])
        assert_input_error(code, capsys, needle)

    def test_reports_mean_metrics(self, training_csv, capsys):
        code = main(["predict-change", "--data", str(training_csv),
                     "--rounds", "10", "--max-depth", "3", "--sessions", "2"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"accuracy", "precision", "recall", "f1",
                               "sessions", "majority_baseline_accuracy"}
        assert report["sessions"] == 2
        assert report["accuracy"] > report["majority_baseline_accuracy"]

    def test_stdout_deterministic(self, training_csv, capsys):
        argv = ["predict-change", "--data", str(training_csv),
                "--rounds", "5", "--sessions", "3", "--seed", "7"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_bad_train_frac_exit_2(self, training_csv, capsys):
        assert main(["predict-change", "--data", str(training_csv),
                     "--train-frac", "1.0"]) == 2
        capsys.readouterr()

    def test_bad_rounds_exit_2(self, training_csv, capsys):
        assert main(["predict-change", "--data", str(training_csv),
                     "--rounds", "-1"]) == 2
        capsys.readouterr()

    def test_overflowing_shrinkage_exit_2(self, training_csv, capsys):
        code = main(["predict-change", "--data", str(training_csv), "--rounds", "3",
                     "--shrinkage", "1e308"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == ("error: round 1: training scores are not finite "
                       "(shrinkage 1e+308 is too large)\n")

    def test_non_finite_feature_names_its_line(self, training_csv, tmp_path, capsys):
        lines = training_csv.read_text().splitlines()
        lines[2] = "nan" + lines[2][lines[2].index(","):]
        path = tmp_path / "nan.csv"
        path.write_text("\n".join(lines) + "\n")
        code = main(["predict-change", "--data", str(path), "--rounds", "2"])
        assert capsys.readouterr().err == "error: line 3: non-finite feature\n"
        assert code == 2

    def test_negative_seed_exit_2(self, training_csv, capsys):
        code = main(["predict-change", "--data", str(training_csv),
                     "--rounds", "2", "--seed", "-1"])
        assert_input_error(code, capsys, "--seed must be >= 0")


class TestAgreement:
    def test_complete_ratings(self, tmp_path, capsys):
        path = tmp_path / "ratings.csv"
        rows = ["item_id,rater_id,label"]
        labels = ("PO", "NG", "NE", "PD")
        for item in range(4):
            for rater in ("r1", "r2", "r3"):
                rows.append(f"i{item},{rater},{labels[item]}")
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert main(["agreement", "--ratings", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["overall"]["average_observed_agreement"] == 1.0
        assert report["overall"]["fleiss_kappa"] == 1.0
        assert report["overall"]["krippendorff_alpha"] == 1.0
        assert set(report["per_label"]) == {"PO", "NG", "NE", "PD"}

    def test_missing_file_exit_2(self, tmp_path, capsys):
        assert main(["agreement", "--ratings", str(tmp_path / "nope.csv")]) == 2
        capsys.readouterr()


class TestSweep:
    def test_grid_json_and_csv(self, world, tmp_path, capsys):
        cfg = write_config(tmp_path / "s.cfg", world, epochs=1)
        out = tmp_path / "grid.csv"
        code = main(["sweep", "--config", str(cfg), "--hops-grid", "1",
                     "--history-len-grid", "1,2", "--out", str(out)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [c["history_len"] for c in payload["cells"]] == [1, 2]
        assert payload["best"] in payload["cells"]
        lines = out.read_text().splitlines()
        assert lines[0] == "hops,history_len,val_accuracy"
        assert len(lines) == 3


    @pytest.mark.parametrize("flag", ["--hops", "--history-len", "--checkpoint-out",
                                      "--log-out"])
    def test_flags_it_would_ignore_exit_2(self, world, tmp_path, capsys, flag):
        cfg = write_config(tmp_path / "s.cfg", world, epochs=1)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(cfg), flag, "2"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err

    def test_config_keys_it_ignores_still_run(self, world, tmp_path, capsys):
        # write_config sets hops and history_len too; the grids override them.
        cfg = write_config(tmp_path / "s.cfg", world, epochs=1,
                           checkpoint_out=tmp_path / "model.npz",
                           log_out=tmp_path / "log.csv")
        assert main(["sweep", "--config", str(cfg), "--hops-grid", "1",
                     "--history-len-grid", "1"]) == 0
        assert len(json.loads(capsys.readouterr().out)["cells"]) == 1
        assert not (tmp_path / "model.npz").exists()
        assert not (tmp_path / "log.csv").exists()

    def test_min_weight_zero_exit_2(self, world, tmp_path, capsys):
        cfg = write_config(tmp_path / "s.cfg", world, epochs=1)
        code = main(["sweep", "--config", str(cfg), "--min-weight", "0"])
        assert_input_error(code, capsys, "min_weight")

    @pytest.mark.parametrize("flag", ["--hops-grid", "--history-len-grid"])
    def test_non_integer_grid_exit_2(self, world, tmp_path, capsys, flag):
        cfg = write_config(tmp_path / "s.cfg", world, epochs=1)
        code = main(["sweep", "--config", str(cfg), flag, "x"])
        assert_input_error(code, capsys, flag)


class TestArgparseSurface:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "build-graph" in capsys.readouterr().out

    def test_missing_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["build-graph", "train", "classify", "track",
                                         "hesitancy", "predict-change", "agreement",
                                         "sweep"])
    def test_subcommand_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: socialstance {command}")

    def test_predict_change_defaults_are_gbdt_config(self):
        args = build_parser().parse_args(["predict-change", "--data", "d.csv"])
        config = gbdt.GbdtConfig()
        assert (args.rounds, args.max_depth, args.shrinkage) == \
            (config.rounds, config.max_depth, config.shrinkage)

    def test_min_weight_default_is_the_graph_builders(self):
        args = build_parser().parse_args(["build-graph", "--interactions", "i.csv",
                                          "--out-dir", "out"])
        builder = inspect.signature(build_social_graph).parameters["min_weight"]
        assert args.min_weight == DEFAULT_MIN_WEIGHT == builder.default
