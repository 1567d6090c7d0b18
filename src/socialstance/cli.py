"""Command-line surface for the pipeline.

One executable with subcommands: build-graph, train, classify, track,
hesitancy, predict-change, agreement, sweep. Settings come from an optional
key=value config file; flags win over config values. Exit codes: 0 success,
2 bad input or configuration, 3 runtime failure (including divergence),
4 empty result.

Every command is deterministic: identical inputs and seed produce
byte-identical outputs.
"""

import argparse
import dataclasses
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from . import gbdt
from .corpus import StanceLabel, load_posts
from .errors import (EmptyResultError, InputDataError, TrainingDivergedError,
                     checked_lines, write_csv)
from .hesitancy import (DEFAULT_MIN_POSTS, classify_change, daily_label_proportions,
                        window_scores, write_hesitancy_csv, write_timeseries_csv)
from .embed import load_embedding_store
from .encoder import AGGREGATOR_KINDS
from .metrics import MetricReport, agreement_report, load_ratings_csv
from .model import (HISTORY_KINDS, TrainConfig, eligible_training_posts,
                    evaluate, forward_author, load_checkpoint, save_checkpoint,
                    save_metric_log, split_dataset, sweep, train)
from .socialgraph import (DEFAULT_MIN_WEIGHT, build_social_graph, graph_stats,
                          load_edge_list, load_follower_edges,
                          load_interactions, write_edge_list, write_nodes)

CLASSIFY_HEADER = ",".join(["post_id", "label"]
                           + [f"p_{label.name}" for label in StanceLabel])
SWEEP_HEADER = "hops,history_len,val_accuracy"
CHANGE_HEADER = "user,before_score,after_score,change"

SECONDS_PER_DAY = 86_400
DEFAULT_MARGIN_DAYS = 14

# Config keys that are not TrainConfig fields, with their types.
_PLUMBING_KEYS = {"posts": str, "interactions": str, "followers": str,
                  "embeddings": str, "checkpoint_out": str, "log_out": str,
                  "min_weight": int}
# Every key of train/sweep, typed; TrainConfig's own annotations type its fields.
_CONFIG_KEYS = {**_PLUMBING_KEYS,
                **{f.name: f.type for f in dataclasses.fields(TrainConfig)}}
_CHOICES = {"aggregator": AGGREGATOR_KINDS, "history": HISTORY_KINDS}
_EXPECTED = {int: "integer", float: "number", tuple: "comma-separated numbers"}
# Keys sweep has no flag for: its grids set hops and history_len per cell,
# and it writes no checkpoint or metric log. Its config file may still hold
# them, so one file serves both train and sweep.
_SWEEP_IGNORED = ("hops", "history_len", "checkpoint_out", "log_out")


def parse_timestamp(text: str) -> int:
    """Unix seconds from either an integer or a UTC YYYY-MM-DD date."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        day = datetime.strptime(text, "%Y-%m-%d")
    except ValueError:
        raise InputDataError(
            f"expected integer seconds or YYYY-MM-DD, got {text!r}") from None
    return int(day.replace(tzinfo=timezone.utc).timestamp())


def load_config_file(path) -> dict:
    """Parse UTF-8 key=value lines; '#' starts a comment; keys are unique."""
    seen = set()

    def setting(line):
        line = line.split("#", 1)[0].strip()
        if not line:
            return None
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise InputDataError("expected key=value")
        if key in seen:
            raise InputDataError(f"duplicate key {key!r}")
        seen.add(key)
        return key, value

    with open(path, encoding="utf-8") as fh:
        return dict(checked_lines(fh, setting))


def _typed_settings(raw: dict) -> dict:
    """Convert raw config strings to typed values; unknown keys rejected.

    Only the types are checked here; TrainConfig and the graph builder
    check the values.
    """
    out = {}
    for key, value in raw.items():
        kind = _CONFIG_KEYS.get(key)
        if kind is None:
            raise InputDataError(f"unknown config key {key!r}")
        try:
            out[key] = tuple(map(float, value.split(","))) if kind is tuple else kind(value)
        except ValueError:
            raise InputDataError(f"config key {key!r}: expected {_EXPECTED[kind]}, "
                                 f"got {value!r}") from None
    return out


def _train_settings(args) -> dict:
    """Config file merged with overriding flags."""
    settings = _typed_settings(load_config_file(args.config)) if args.config else {}
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = flag
    return settings


def _split_settings(settings: dict):
    """Separate path/plumbing keys from TrainConfig fields."""
    plumbing = {key: settings.pop(key) for key in _PLUMBING_KEYS if key in settings}
    return plumbing, TrainConfig(**settings)


def _require(plumbing: dict, keys) -> None:
    missing = [k for k in keys if k not in plumbing]
    if missing:
        raise InputDataError(f"missing settings: {', '.join(missing)}")


def _load_graph_from(plumbing: dict):
    records = load_interactions(plumbing["interactions"])
    followers = None
    if plumbing.get("followers"):
        followers = load_follower_edges(plumbing["followers"])
    # classify's unset --min-weight arrives as None.
    min_weight = plumbing.get("min_weight")
    return build_social_graph(records, followers, DEFAULT_MIN_WEIGHT
                              if min_weight is None else min_weight)


def _report_json(report: MetricReport) -> str:
    return json.dumps(report.as_dict(), sort_keys=True)


# -- subcommands ---------------------------------------------------------------


def cmd_build_graph(args) -> int:
    graph = _load_graph_from(vars(args))
    stats = graph_stats(graph)
    write_edge_list(graph, f"{args.out_dir}/edges.csv")
    write_nodes(graph, f"{args.out_dir}/nodes.txt")
    payload = json.dumps(stats.as_dict(), sort_keys=True)
    with open(f"{args.out_dir}/stats.json", "w", encoding="utf-8") as fh:
        fh.write(payload + "\n")
    print(payload)
    return 0


def cmd_train(args) -> int:
    plumbing, config = _split_settings(_train_settings(args))
    _require(plumbing, ("posts", "interactions", "embeddings"))
    corpus = load_posts(plumbing["posts"])
    graph = _load_graph_from(plumbing)
    provider = load_embedding_store(plumbing["embeddings"], config.embed_dim)
    params, logs = train(corpus, graph, provider, config)
    if plumbing.get("checkpoint_out"):
        save_checkpoint(params, plumbing["checkpoint_out"])
    if plumbing.get("log_out"):
        save_metric_log(logs, plumbing["log_out"])
    labelled = eligible_training_posts(corpus, graph)
    _, _, test_posts = split_dataset(labelled, config.split, config.seed)
    print(_report_json(evaluate(test_posts, graph, corpus, provider, params, config)))
    return 0


def cmd_classify(args) -> int:
    if args.edges and (args.interactions or args.followers):
        raise InputDataError("--edges excludes --interactions and --followers")
    if args.edges and args.min_weight is not None:
        raise InputDataError("--min-weight prunes --interactions, not --edges")
    if args.nodes and not args.edges:
        raise InputDataError("--nodes needs --edges")
    if not (args.edges or args.interactions):
        raise InputDataError("classify needs --edges or --interactions")
    params = load_checkpoint(args.checkpoint)
    config = params.config
    corpus = load_posts(args.posts)
    graph = (load_edge_list(args.edges, args.nodes) if args.edges
             else _load_graph_from(vars(args)))
    provider = load_embedding_store(args.embeddings, config.embed_dim)
    # Corpus positions per author, authors in the order of their first post:
    # forward_author builds each ball once, and one ball is held at a time.
    groups = {}
    skipped = []
    for position, post in enumerate(corpus):
        if post.author_id in graph:
            groups.setdefault(post.author_id, []).append(position)
        else:
            skipped.append(post.author_id)
    rows = [None] * len(corpus)  # by corpus position; None for a skipped post
    # (position, error) of the first failing post in corpus order: the error
    # a post-by-post pass would stop at. Whether a post fails depends on that
    # post alone, so posts after it are not run.
    failed = None
    # Finite parameters can still overflow; the check below reports that
    # once, as bad input, instead of a warning per operation.
    with np.errstate(over="ignore", invalid="ignore"):
        for author in list(groups):
            positions = groups.pop(author)  # freed as rows take its place
            predictions = forward_author([corpus.posts[i] for i in positions],
                                         graph, corpus, provider, params, config)
            for position in positions:
                if failed and position > failed[0]:
                    break
                post = corpus.posts[position]
                try:
                    prediction = next(predictions)
                    if not np.isfinite(prediction.probabilities).all():
                        raise InputDataError(
                            f"post {post.id!r}: class probabilities are not "
                            "finite (the checkpoint's parameters overflow)")
                except (InputDataError, KeyError) as exc:  # bad input, raised below
                    failed = (position, exc)
                    break
                rows[position] = [post.id, prediction.label.name,
                                  *(repr(float(p)) for p in prediction.probabilities)]
    if failed:
        raise failed[1]
    for user in sorted(set(skipped)):
        print(f"skipped user not in social graph: {user}", file=sys.stderr)
    rows = [row for row in rows if row is not None]
    if not rows:
        raise EmptyResultError("no posts could be classified")
    write_csv(args.out or sys.stdout, CLASSIFY_HEADER, rows)
    return 0


def cmd_track(args) -> int:
    corpus = load_posts(args.posts)
    start, end = parse_timestamp(args.start), parse_timestamp(args.end)
    per_day = daily_label_proportions(corpus, start, end)
    write_timeseries_csv(per_day, args.out or sys.stdout)
    return 0


def cmd_hesitancy(args) -> int:
    if not args.min_posts >= 1:
        raise InputDataError("--min-posts must be >= 1")
    corpus = load_posts(args.posts)
    if args.period_start or args.period_end:
        if not (args.period_start and args.period_end):
            raise InputDataError("--period-start and --period-end go together")
        if args.start or args.end:
            raise InputDataError("--start/--end and --period-start/--period-end "
                                 "are mutually exclusive")
        period_start = parse_timestamp(args.period_start)
        period_end = parse_timestamp(args.period_end)
        if period_end < period_start:
            raise InputDataError("--period-end is earlier than --period-start")
        margin_days = DEFAULT_MARGIN_DAYS if args.margin_days is None else args.margin_days
        if not margin_days >= 1:
            raise InputDataError("--margin-days must be >= 1")
        margin = margin_days * SECONDS_PER_DAY
        before = window_scores(corpus, period_start - margin, period_start,
                               args.min_posts)
        after = window_scores(corpus, period_end, period_end + margin, args.min_posts)
        users = [user for user in before if user in after]
        if not users:
            raise EmptyResultError("no users eligible in both windows")

        def change_row(user):
            b, a = before[user].score, after[user].score
            return [user, repr(b), repr(a), classify_change(b, a).name]

        write_csv(args.out or sys.stdout, CHANGE_HEADER, map(change_row, users))
        return 0
    if not (args.start and args.end):
        raise InputDataError("hesitancy needs --start/--end or "
                             "--period-start/--period-end")
    if args.margin_days is not None:
        raise InputDataError("--margin-days needs --period-start/--period-end")
    start, end = parse_timestamp(args.start), parse_timestamp(args.end)
    records = window_scores(corpus, start, end, args.min_posts)
    if not records:
        raise EmptyResultError("no eligible users in window")
    write_hesitancy_csv(records.values(), args.out or sys.stdout)
    return 0


def cmd_predict_change(args) -> int:
    features, labels = gbdt.load_training_csv(args.data)
    config = gbdt.GbdtConfig(rounds=args.rounds, max_depth=args.max_depth,
                             shrinkage=args.shrinkage)
    if not args.sessions >= 1:
        raise InputDataError("--sessions must be >= 1")
    if not args.seed >= 0:
        raise InputDataError("--seed must be >= 0")
    n = features.shape[0]
    cut = math.floor(n * args.train_frac) if math.isfinite(args.train_frac) else 0
    if not 2 <= cut < n:
        raise InputDataError(
            f"train fraction {args.train_frac} leaves no usable split of {n} rows")
    reports = []
    baselines = []
    for session in range(args.sessions):
        perm = np.random.default_rng(args.seed + session).permutation(n)
        train_idx, test_idx = perm[:cut], perm[cut:]
        model = gbdt.fit(features[train_idx], labels[train_idx], config)
        reports.append(gbdt.evaluate(model, features[test_idx], labels[test_idx]))
        baselines.append(
            gbdt.majority_baseline_accuracy(labels[train_idx], labels[test_idx]))
    mean = {key: sum(getattr(r, key) for r in reports) / len(reports)
            for key in ("accuracy", "precision", "recall", "f1")}
    mean["sessions"] = args.sessions
    mean["majority_baseline_accuracy"] = sum(baselines) / len(baselines)
    print(json.dumps(mean, sort_keys=True))
    return 0


def cmd_agreement(args) -> int:
    rows = load_ratings_csv(args.ratings)
    print(json.dumps(agreement_report(rows), sort_keys=True))
    return 0


def _int_grid(flag: str, text: str) -> list:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise InputDataError(f"{flag}: expected comma-separated integers, "
                             f"got {text!r}") from None


def cmd_sweep(args) -> int:
    plumbing, config = _split_settings(_train_settings(args))
    _require(plumbing, ("posts", "interactions", "embeddings"))
    hops_values = _int_grid("--hops-grid", args.hops_grid)
    lam_values = _int_grid("--history-len-grid", args.history_len_grid)
    corpus = load_posts(plumbing["posts"])
    graph = _load_graph_from(plumbing)
    provider = load_embedding_store(plumbing["embeddings"], config.embed_dim)
    cells = sweep(corpus, graph, provider, config, hops_values, lam_values)
    if args.out:
        write_csv(args.out, SWEEP_HEADER,
                  ([c["hops"], c["history_len"], repr(c["val_accuracy"])] for c in cells))
    best = max(cells, key=lambda c: (c["val_accuracy"],
                                     -c["hops"], -c["history_len"]))
    print(json.dumps({"cells": cells, "best": best}, sort_keys=True))
    return 0


# -- argument parsing ----------------------------------------------------------


def _add_train_flags(sub: argparse.ArgumentParser, skip=()) -> None:
    sub.add_argument("--config", help="key=value settings file")
    for key, kind in _CONFIG_KEYS.items():
        if kind is not tuple and key not in skip:  # split: config file only
            sub.add_argument(f"--{key.replace('_', '-')}", dest=key, type=kind,
                             choices=_CHOICES.get(key),
                             help=f"overrides config key {key}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="socialstance",
        description="Stance classification and attitude analytics for "
                    "social-network discourse.")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser(
        "build-graph", help="build the social graph and export it")
    sub.add_argument("--interactions", required=True,
                     help="CSV of source,target,kind,timestamp")
    sub.add_argument("--followers", help="optional CSV of follower pairs u,v")
    sub.add_argument("--min-weight", type=int, default=DEFAULT_MIN_WEIGHT,
                     help="minimum interaction count per edge (default: %(default)s)")
    sub.add_argument("--out-dir", required=True,
                     help="directory for edges.csv, nodes.txt, stats.json")
    sub.set_defaults(handler=cmd_build_graph)

    sub = commands.add_parser(
        "train", help="train the stance classifier; prints the test report")
    _add_train_flags(sub)
    sub.set_defaults(handler=cmd_train)

    sub = commands.add_parser(
        "classify", help="label posts with a trained checkpoint")
    sub.add_argument("--checkpoint", required=True, help="trained model file")
    sub.add_argument("--posts", required=True, help="JSONL posts file")
    sub.add_argument("--embeddings", required=True, help="embedding store file")
    sub.add_argument("--edges", help="graph edge list from build-graph")
    sub.add_argument("--nodes", help="graph nodes file from build-graph")
    sub.add_argument("--interactions",
                     help="interaction CSV (alternative to --edges)")
    sub.add_argument("--followers", help="optional follower CSV")
    sub.add_argument("--min-weight", type=int,
                     help="interaction pruning threshold; only with "
                          f"--interactions (default: {DEFAULT_MIN_WEIGHT})")
    sub.add_argument("--out", help="output CSV path (default: stdout)")
    sub.set_defaults(handler=cmd_classify)

    sub = commands.add_parser(
        "track", help="daily stance-label fractions over a date range")
    sub.add_argument("--posts", required=True, help="JSONL posts file")
    sub.add_argument("--start", required=True,
                     help="range start, YYYY-MM-DD or Unix seconds (inclusive)")
    sub.add_argument("--end", required=True,
                     help="range end, YYYY-MM-DD or Unix seconds (exclusive)")
    sub.add_argument("--out", help="output CSV path (default: stdout)")
    sub.set_defaults(handler=cmd_track)

    sub = commands.add_parser(
        "hesitancy", help="per-user attitude scores in a window, or "
                          "before/after changes around a period")
    sub.add_argument("--posts", required=True, help="JSONL posts file")
    sub.add_argument("--start", help="window start (with --end)")
    sub.add_argument("--end", help="window end, exclusive (with --start)")
    sub.add_argument("--period-start", help="period start (with --period-end)")
    sub.add_argument("--period-end", help="period end (with --period-start)")
    sub.add_argument("--margin-days", type=int,
                     help="days before/after the period; only with "
                          f"--period-start/--period-end (default: {DEFAULT_MARGIN_DAYS})")
    sub.add_argument("--min-posts", type=int, default=DEFAULT_MIN_POSTS,
                     help="stance-bearing posts required per user "
                          "(default: %(default)s)")
    sub.add_argument("--out", help="output CSV path (default: stdout)")
    sub.set_defaults(handler=cmd_hesitancy)

    sub = commands.add_parser(
        "predict-change", help="train and score the attitude-change predictor")
    sub.add_argument("--data", required=True,
                     help="training CSV of theme counts and change labels")
    sub.add_argument("--rounds", type=int, default=gbdt.GbdtConfig.rounds,
                     help="boosting rounds (default: %(default)s)")
    sub.add_argument("--max-depth", type=int, default=gbdt.GbdtConfig.max_depth,
                     help="tree depth bound (default: %(default)s)")
    sub.add_argument("--shrinkage", type=float, default=gbdt.GbdtConfig.shrinkage,
                     help="learning rate of the booster (default: %(default)s)")
    sub.add_argument("--train-frac", type=float, default=0.8,
                     help="training fraction per session (default: %(default)s)")
    sub.add_argument("--sessions", type=int, default=5,
                     help="seeded train/test sessions to average "
                          "(default: %(default)s)")
    sub.add_argument("--seed", type=int, default=0,
                     help="base RNG seed (default: %(default)s)")
    sub.set_defaults(handler=cmd_predict_change)

    sub = commands.add_parser(
        "agreement", help="inter-annotator agreement statistics")
    sub.add_argument("--ratings", required=True,
                     help="CSV of item_id,rater_id,label")
    sub.set_defaults(handler=cmd_agreement)

    # No abbreviations here: --hops and --history-len would otherwise be
    # read as --hops-grid and --history-len-grid.
    sub = commands.add_parser(
        "sweep", help="grid search over hops and history length",
        allow_abbrev=False)
    _add_train_flags(sub, skip=_SWEEP_IGNORED)
    sub.add_argument("--hops-grid", default="1,2,3",
                     help="comma-separated hops values (default: %(default)s)")
    sub.add_argument("--history-len-grid", default="1,2,3,4,5",
                     help="comma-separated history lengths (default: %(default)s)")
    sub.add_argument("--out", help="CSV path for the accuracy table")
    sub.set_defaults(handler=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except EmptyResultError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except TrainingDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InputDataError, OSError, KeyError, UnicodeDecodeError) as exc:
        # str() of a KeyError quotes its message; an OSError's args[0] is
        # the bare errno, while its str() names the file.
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    except Exception as exc:  # never abort uncleanly
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
