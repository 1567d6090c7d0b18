"""Attitude analytics over labelled posts: per-user scores in a time window,
change classification between windows, daily label tracking, popular-post
selection, and perceived-theme exposure counts.

Windows are half-open [start, end) in Unix seconds; days are UTC days.
Scores and daily mixes come from one label tally (_label_counts), and one
function (_record) holds the polarity rule and the score formula.
"""

import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from enum import IntEnum
from operator import attrgetter

import numpy as np

from .corpus import Corpus, StanceLabel, rank_authored
from .errors import InputDataError, checked_header, checked_lines, write_csv

THEME_ANNOTATION_HEADER = "post_id,theme"
TIMESERIES_HEADER = ",".join(["date"] + [label.name for label in StanceLabel])
HESITANCY_HEADER = "user,window_start,window_end,n_pos,n_neg,score"

# Score changes smaller than this are reported as "unchanged".
CHANGE_THRESHOLD = 0.05
# Stance-bearing posts a user needs in a window to be scored, by default.
DEFAULT_MIN_POSTS = 3


class Theme(IntEnum):
    """Content theme of a widely-shared post, from a fixed 11-way codebook.

    Indices are stable: they are the feature positions of a ThemeVector and
    of the change-prediction training data.
    """

    PositiveNews = 0
    NegativeNews = 1
    DistrustGovernment = 2
    DissatisfactionPolicy = 3
    PharmaPerception = 4
    Conspiracy = 5
    HealthBeliefs = 6
    PositivePersonal = 7
    NegativePersonal = 8
    PositiveInfo = 9
    NegativeInfo = 10


N_THEMES = len(Theme)


class ChangeLabel(IntEnum):
    """Direction of a user's attitude-score change between two windows."""

    increased = 0
    decreased = 1
    unchanged = 2


@dataclass(frozen=True)
class HesitancyRecord:
    """One user's attitude score over one window.

    score = (n_positive - n_negative) / (n_positive + n_negative), in
    [-1, 1]; higher means more supportive.
    """

    user: str
    window_start: int
    window_end: int
    n_positive: int
    n_negative: int
    score: float


def _check_window(start: int, end: int) -> None:
    if end <= start:
        raise InputDataError(f"empty window: [{start}, {end})")


def _label_counts(posts, start: int, end: int, key) -> dict:
    """{key(post): label counts indexed by StanceLabel} over the labelled
    posts in [start, end)."""
    _check_window(start, end)
    counts = {}
    for post in posts:
        if post.label is not None and start <= post.timestamp < end:
            counts.setdefault(key(post), [0] * len(StanceLabel))[post.label] += 1
    return counts


def _record(user: str, start: int, end: int, counts) -> HesitancyRecord:
    """Score one user's label counts: PO and PD count as positive, NG as
    negative, NE is ignored. No stance-bearing post means no score."""
    n_pos, n_neg = counts[StanceLabel.PO] + counts[StanceLabel.PD], counts[StanceLabel.NG]
    if n_pos + n_neg == 0:
        raise InputDataError(f"no stance-bearing posts for user {user!r} in window")
    return HesitancyRecord(user, start, end, n_pos, n_neg,
                           (n_pos - n_neg) / (n_pos + n_neg))


def hesitancy_score(corpus: Corpus, user: str, start: int, end: int) -> HesitancyRecord:
    """Score one user's labelled posts in [start, end).

    PO and PD count as positive, NG as negative, NE is ignored. Originals,
    quotes, and retweets all count. A user with no stance-bearing posts in
    the window has no score and is an error; use window_scores to filter.
    """
    counts = _label_counts(corpus.posts_by(user), start, end, attrgetter("author_id"))
    return _record(user, start, end, counts.get(user, [0] * len(StanceLabel)))


def window_scores(corpus: Corpus, start: int, end: int, min_posts: int) -> dict:
    """{user: HesitancyRecord}, in user order, for every user with at least
    `min_posts` stance-bearing posts in [start, end); one corpus pass."""
    if min_posts < 1:
        raise InputDataError("min_posts must be >= 1")
    tally = _label_counts(corpus.posts, start, end, attrgetter("author_id"))
    records = {}
    for user in sorted(tally):
        try:
            record = _record(user, start, end, tally[user])
        except InputDataError:  # NE posts only
            continue
        if record.n_positive + record.n_negative >= min_posts:
            records[user] = record
    return records


def classify_change(before: float, after: float) -> ChangeLabel:
    """Direction of the score change, with a dead zone of CHANGE_THRESHOLD.

    Strictly-smaller-than semantics: a change of exactly CHANGE_THRESHOLD is
    directional, not "unchanged". Categories follow the score value, so
    "increased" means the user got more supportive.
    """
    for name, value in (("before", before), ("after", after)):
        if not -1.0 <= value <= 1.0:
            raise InputDataError(f"{name} score {value} outside [-1, 1]")
    delta = after - before
    if abs(delta) < CHANGE_THRESHOLD:
        return ChangeLabel.unchanged
    return ChangeLabel.increased if delta > 0 else ChangeLabel.decreased


def eligible_users(corpus: Corpus, start: int, end: int, min_posts: int = DEFAULT_MIN_POSTS):
    """Users with at least `min_posts` stance-bearing posts in the window.

    Stance-bearing means labelled PO, PD, or NG; NE posts express no
    attitude and do not count toward eligibility.
    """
    return set(window_scores(corpus, start, end, min_posts))


def _day_of(timestamp: int, named: int = None):
    """The UTC date of timestamp. An undatable one raises InputDataError
    naming `named` (default: timestamp), the bound the caller was given."""
    try:
        return datetime.fromtimestamp(timestamp, tz=timezone.utc).date()
    except (ValueError, OverflowError, OSError):
        raise InputDataError(f"timestamp {timestamp if named is None else named} "
                             "is out of range for a UTC date") from None


def daily_label_proportions(corpus: Corpus, start: int, end: int) -> dict:
    """Per-UTC-day label mix of labelled posts in [start, end).

    Returns {iso_date: {label_name: fraction}} covering every day the
    window touches. On a day with posts the label fractions sum to 1; days
    without labelled posts map every label to None.
    """
    tallies = _label_counts(corpus.posts, start, end,
                            lambda post: _day_of(post.timestamp))
    out = {}
    cursor, last = _day_of(start), _day_of(end - 1, named=end)
    while cursor <= last:
        counts = tallies.get(cursor)
        out[cursor.isoformat()] = {
            label.name: None if counts is None else counts[label] / sum(counts)
            for label in StanceLabel}
        cursor += timedelta(days=1)
    return out


def select_popular(posts, quantile: float = 0.25):
    """The most-retweeted ceil(quantile * n) authored posts.

    Posts rank by rank_authored (retweets do not rank), so the output is a
    deterministic prefix of the ranking. Empty input yields [].
    """
    if not 0.0 < quantile <= 1.0:
        raise InputDataError(f"quantile must be in (0, 1], got {quantile}")
    ranked = rank_authored(posts)
    return ranked[:math.ceil(quantile * len(ranked))]


def perceived_theme_vector(graph, corpus: Corpus, themes: dict, user: str,
                           start: int, end: int) -> np.ndarray:
    """Counts of themed popular posts the user's neighbors put in front of
    them during [start, end).

    `themes` maps popular post ids to Theme. A neighbor exposes the user to
    a themed post by originating it or by retweeting it inside the window;
    every such event counts, so three neighbors retweeting one post add 3.
    Returns an int64 vector of length 11 indexed by Theme.
    """
    _check_window(start, end)
    counts = np.zeros(N_THEMES, dtype=np.int64)
    for neighbor in graph.neighbors(user):
        for post in corpus.posts_by(neighbor):
            if not start <= post.timestamp < end:
                continue
            theme = themes.get(post.source_post_id if post.kind == "retweet" else post.id)
            if theme is not None:
                counts[int(theme)] += 1
    return counts


def load_theme_annotations(path) -> dict:
    """Read post_id,theme CSV into {post_id: Theme}.

    Theme names must be canonical; duplicates and unknown names raise with
    the line number.
    """
    seen = set()

    def annotation(line):
        parts = line.strip().split(",")
        if len(parts) != 2 or not all(parts):
            raise InputDataError("expected two non-empty fields")
        post_id, name = parts
        if post_id in seen:
            raise InputDataError(f"duplicate theme for post {post_id!r}")
        seen.add(post_id)
        try:
            return post_id, Theme[name]
        except KeyError:
            raise InputDataError(f"unknown theme {name!r}") from None

    with open(path, encoding="utf-8") as fh:
        checked_header(fh, THEME_ANNOTATION_HEADER)
        return dict(checked_lines(fh, annotation, 2))


def write_hesitancy_csv(records, out) -> None:
    """Write HesitancyRecords as CSV to `out`, a path or an open text file;
    scores use repr for exact round-trip."""
    write_csv(out, HESITANCY_HEADER,
              ([rec.user, rec.window_start, rec.window_end, rec.n_positive,
                rec.n_negative, repr(rec.score)] for rec in records))


def write_timeseries_csv(per_day: dict, out) -> None:
    """Write daily_label_proportions output as TIMESERIES_HEADER rows (the
    date, then one fraction per StanceLabel) to `out`, a path or an open
    text file; days without posts leave their cells empty."""
    def row(day):
        fractions = [per_day[day][label.name] for label in StanceLabel]
        return [day] + ["" if value is None else repr(value) for value in fractions]

    write_csv(out, TIMESERIES_HEADER, map(row, sorted(per_day)))
