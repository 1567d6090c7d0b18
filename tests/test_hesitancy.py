"""Hesitancy scores, change labels, time series, and theme exposure counts."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socialstance.corpus import Corpus, Post, StanceLabel
from socialstance.errors import InputDataError
from socialstance.hesitancy import (
    CHANGE_THRESHOLD,
    N_THEMES,
    ChangeLabel,
    HesitancyRecord,
    Theme,
    classify_change,
    daily_label_proportions,
    eligible_users,
    hesitancy_score,
    load_theme_annotations,
    perceived_theme_vector,
    select_popular,
    window_scores,
    write_hesitancy_csv,
    write_timeseries_csv,
)
from socialstance.socialgraph import SocialGraph

DAY = 86400


def post(pid, user, ts, label=None, kind="original", source=None, rts=0):
    return Post(id=pid, author_id=user, timestamp=ts, text="t", label=label,
                kind=kind, source_post_id=source, retweet_count=rts)


def corpus_with_counts(n_pos, n_neg, n_neutral=0, user="u"):
    posts = []
    t = 0
    for i in range(n_pos):
        label = StanceLabel.PO if i % 2 == 0 else StanceLabel.PD
        posts.append(post(f"p{i}", user, t, label))
        t += 1
    for i in range(n_neg):
        posts.append(post(f"n{i}", user, t, StanceLabel.NG))
        t += 1
    for i in range(n_neutral):
        posts.append(post(f"e{i}", user, t, StanceLabel.NE))
        t += 1
    return Corpus(posts)


class TestThemes:
    def test_eleven_canonical_themes(self):
        assert N_THEMES == 11
        assert [t.name for t in Theme] == [
            "PositiveNews", "NegativeNews", "DistrustGovernment",
            "DissatisfactionPolicy", "PharmaPerception", "Conspiracy",
            "HealthBeliefs", "PositivePersonal", "NegativePersonal",
            "PositiveInfo", "NegativeInfo",
        ]
        assert [int(t) for t in Theme] == list(range(11))

    def test_change_labels(self):
        assert ChangeLabel.increased == 0
        assert ChangeLabel.decreased == 1
        assert ChangeLabel.unchanged == 2


class TestHesitancyScore:
    def test_formula_fixtures(self):
        # (n_pos, n_neg) -> expected score
        for n_pos, n_neg, expected in [(3, 1, 0.5), (0, 2, -1.0), (2, 2, 0.0)]:
            corpus = corpus_with_counts(n_pos, n_neg)
            rec = hesitancy_score(corpus, "u", 0, 100)
            assert rec.score == expected
            assert rec.n_positive == n_pos
            assert rec.n_negative == n_neg

    def test_pd_counts_positive_ne_ignored(self):
        posts = [
            post("a", "u", 0, StanceLabel.PD),
            post("b", "u", 1, StanceLabel.NE),
            post("c", "u", 2, StanceLabel.NE),
        ]
        rec = hesitancy_score(Corpus(posts), "u", 0, 10)
        assert rec.score == 1.0
        assert rec.n_positive == 1

    def test_retweets_count(self):
        posts = [
            post("a", "u", 0, StanceLabel.PO, kind="retweet", source="z"),
            post("b", "u", 1, StanceLabel.NG),
        ]
        rec = hesitancy_score(Corpus(posts), "u", 0, 10)
        assert rec.score == 0.0

    def test_window_is_half_open(self):
        posts = [
            post("a", "u", 0, StanceLabel.PO),
            post("b", "u", 10, StanceLabel.NG),  # at end: excluded
        ]
        rec = hesitancy_score(Corpus(posts), "u", 0, 10)
        assert rec.score == 1.0

    def test_no_stance_posts_is_error(self):
        corpus = corpus_with_counts(0, 0, n_neutral=3)
        with pytest.raises(InputDataError, match="no stance-bearing"):
            hesitancy_score(corpus, "u", 0, 100)

    def test_empty_window_is_error(self):
        with pytest.raises(InputDataError, match="empty window"):
            hesitancy_score(corpus_with_counts(1, 0), "u", 10, 10)


class TestClassifyChange:
    def test_directions(self):
        assert classify_change(-0.5, 0.5) is ChangeLabel.increased
        assert classify_change(0.5, -0.5) is ChangeLabel.decreased
        assert classify_change(0.2, 0.2) is ChangeLabel.unchanged

    def test_threshold_boundary_is_directional(self):
        assert CHANGE_THRESHOLD == 0.05
        # |delta| < threshold -> unchanged; exactly threshold -> directional
        assert classify_change(0.0, 0.049999) is ChangeLabel.unchanged
        assert classify_change(0.0, 0.05) is ChangeLabel.increased
        assert classify_change(0.0, -0.05) is ChangeLabel.decreased
        assert classify_change(0.0, -0.049999) is ChangeLabel.unchanged

    def test_score_range_validated(self):
        with pytest.raises(InputDataError):
            classify_change(1.5, 0.0)
        with pytest.raises(InputDataError):
            classify_change(0.0, -2.0)


class TestEligibleUsers:
    def test_threshold_counts_stance_posts_only(self):
        posts = [
            post("a1", "alice", 1, StanceLabel.PO),
            post("a2", "alice", 2, StanceLabel.NG),
            post("a3", "alice", 3, StanceLabel.PD),
            post("b1", "bob", 1, StanceLabel.PO),
            post("b2", "bob", 2, StanceLabel.NE),
            post("b3", "bob", 3, StanceLabel.NE),
            post("c1", "cara", 1, StanceLabel.PO),
            post("c2", "cara", 2),
        ]
        assert eligible_users(Corpus(posts), 0, 10) == {"alice"}
        assert eligible_users(Corpus(posts), 0, 10, min_posts=1) == {"alice", "bob", "cara"}

    def test_window_limits_count(self):
        posts = [post(f"p{i}", "u", i * 10, StanceLabel.PO) for i in range(4)]
        # [0, 20) holds two posts, [0, 21) holds three
        assert eligible_users(Corpus(posts), 0, 20, min_posts=3) == set()
        assert eligible_users(Corpus(posts), 0, 21, min_posts=3) == {"u"}


class TestWindowScores:
    POSTS = [
        post("a1", "alice", 1, StanceLabel.PO), post("a2", "alice", 2, StanceLabel.NG),
        post("a3", "alice", 3, StanceLabel.PD), post("a4", "alice", 30, StanceLabel.NG),
        post("b1", "bob", 1, StanceLabel.NE), post("b2", "bob", 2),
        post("c1", "cara", 5, StanceLabel.NG), post("c2", "cara", 6, StanceLabel.NE),
        post("d1", "dan", 4, StanceLabel.PO),
    ]

    def test_records_of_eligible_users_in_user_order(self):
        corpus = Corpus(self.POSTS)
        scores = window_scores(corpus, 0, 10, 1)
        # bob has NE and unlabelled posts only: no score, not eligible
        assert list(scores) == ["alice", "cara", "dan"]
        assert scores == {user: hesitancy_score(corpus, user, 0, 10) for user in scores}
        assert scores["alice"] == HesitancyRecord("alice", 0, 10, 2, 1, 1 / 3)
        assert list(window_scores(corpus, 0, 10, 2)) == ["alice"]
        assert window_scores(corpus, 0, 10, 4) == {}

    def test_bad_arguments(self):
        corpus = Corpus(self.POSTS)
        with pytest.raises(InputDataError, match="min_posts must be >= 1"):
            window_scores(corpus, 0, 10, 0)
        with pytest.raises(InputDataError, match="empty window"):
            window_scores(corpus, 10, 10, 1)


class TestDailyProportions:
    def test_mix_and_gap_days(self):
        posts = [
            post("a", "u", 0, StanceLabel.PO),
            post("b", "v", 1000, StanceLabel.PO),
            post("c", "w", 2000, StanceLabel.NG),
            # day 2 empty; day 3:
            post("d", "u", 3 * DAY + 5, StanceLabel.PD),
        ]
        out = daily_label_proportions(Corpus(posts), 0, 4 * DAY)
        assert list(out) == ["1970-01-01", "1970-01-02", "1970-01-03", "1970-01-04"]
        day1 = out["1970-01-01"]
        assert day1["PO"] == pytest.approx(2 / 3)
        assert day1["NG"] == pytest.approx(1 / 3)
        assert day1["NE"] == 0.0
        assert sum(day1.values()) == pytest.approx(1.0)
        assert all(v is None for v in out["1970-01-02"].values())
        assert out["1970-01-04"]["PD"] == 1.0

    def test_unlabelled_posts_ignored(self):
        posts = [post("a", "u", 0), post("b", "u", 1, StanceLabel.NE)]
        out = daily_label_proportions(Corpus(posts), 0, DAY)
        assert out["1970-01-01"]["NE"] == 1.0


class TestSelectPopular:
    def test_top_quartile_with_ceiling(self):
        posts = [post(f"p{i}", f"u{i}", 0, rts=i) for i in range(5)]
        top = select_popular(posts, quantile=0.25)
        # ceil(0.25 * 5) = 2 posts, highest retweet counts first
        assert [p.id for p in top] == ["p4", "p3"]

    def test_ties_break_by_id(self):
        posts = [post("b", "u1", 0, rts=7), post("a", "u2", 0, rts=7),
                 post("c", "u3", 0, rts=1)]
        top = select_popular(posts, quantile=0.5)
        assert [p.id for p in top] == ["a", "b"]

    def test_retweets_do_not_rank(self):
        posts = [post("a", "u1", 0, rts=1),
                 post("r", "u2", 0, kind="retweet", source="a", rts=99)]
        top = select_popular(posts, quantile=1.0)
        assert [p.id for p in top] == ["a"]

    def test_replies_rank_like_quotes(self):
        posts = [post("q", "u1", 0, kind="quote", source="x", rts=5),
                 post("p", "u2", 0, kind="reply", source="q", rts=5),
                 post("o", "u3", 0, rts=9)]
        assert [p.id for p in select_popular(posts, quantile=1.0)] == ["o", "p", "q"]

    def test_empty_and_bad_quantile(self):
        assert select_popular([]) == []
        with pytest.raises(InputDataError):
            select_popular([post("a", "u", 0)], quantile=0.0)
        with pytest.raises(InputDataError):
            select_popular([post("a", "u", 0)], quantile=1.5)


class TestPerceivedThemes:
    def test_counts_originations_and_retweets(self):
        graph = SocialGraph([("me", "n1"), ("me", "n2"), ("n1", "n2")])
        themes = {"pop1": Theme.Conspiracy, "pop2": Theme.PositiveNews}
        posts = [
            post("pop1", "n1", 5),                                   # origination
            post("rt1", "n2", 6, kind="retweet", source="pop1"),     # retweet of pop1
            post("rt2", "n2", 7, kind="retweet", source="pop2"),     # retweet of pop2
            post("x", "n1", 8),                                      # unthemed
            post("far", "n1", 50),                                   # outside window
            post("mine", "me", 5),                                   # own posts don't count
        ]
        vec = perceived_theme_vector(graph, Corpus(posts), themes, "me", 0, 20)
        expected = np.zeros(11, dtype=np.int64)
        expected[Theme.Conspiracy] = 2
        expected[Theme.PositiveNews] = 1
        np.testing.assert_array_equal(vec, expected)
        assert vec.dtype == np.int64

    def test_unknown_user_is_keyerror(self):
        graph = SocialGraph([("a", "b")])
        with pytest.raises(KeyError, match="not in social graph"):
            perceived_theme_vector(graph, Corpus([]), {}, "zzz", 0, 10)


class TestThemeAnnotations:
    def test_load(self, tmp_path):
        path = tmp_path / "themes.csv"
        path.write_text("post_id,theme\np1,Conspiracy\np2,PositiveNews\n")
        themes = load_theme_annotations(path)
        assert themes == {"p1": Theme.Conspiracy, "p2": Theme.PositiveNews}

    def test_unknown_theme_rejected(self, tmp_path):
        path = tmp_path / "themes.csv"
        path.write_text("post_id,theme\np1,Vibes\n")
        with pytest.raises(InputDataError, match="line 2"):
            load_theme_annotations(path)

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "themes.csv"
        path.write_text("post_id,theme\np1,Conspiracy\np1,HealthBeliefs\n")
        with pytest.raises(InputDataError, match="duplicate"):
            load_theme_annotations(path)


# Theme-shaped lines (two cells from ids, theme names and junk, or another
# number of cells), raw byte lines, or a file of raw bytes.
_theme_lines = st.lists(
    st.lists(st.sampled_from(["p1", "p2", "Conspiracy", "PositiveNews", "conspiracy",
                              "", " ", "post_id", "theme"]) | st.text(max_size=3),
             min_size=1, max_size=3).map(lambda cells: ",".join(cells).encode())
    | st.binary(max_size=20), max_size=6)
_theme_files = st.builds(lambda header, lines: b"\n".join([header] + lines),
                         st.sampled_from([b"post_id,theme", b"post_id,theme ", b"x"]),
                         _theme_lines) | st.binary(max_size=60)


@settings(max_examples=150, deadline=None)
@given(data=_theme_files)
def test_theme_annotations_on_arbitrary_bytes_raise_only_input_errors(data):
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "themes.csv"
        path.write_bytes(data)
        try:
            themes = load_theme_annotations(path)
        except (InputDataError, UnicodeDecodeError):
            return
    assert all(isinstance(post_id, str) and post_id and isinstance(theme, Theme)
               for post_id, theme in themes.items())


class TestCsvWriters:
    def test_hesitancy_rows(self, tmp_path):
        records = [HesitancyRecord("u1", 0, 100, 3, 1, 0.5),
                   HesitancyRecord("u2", 0, 100, 0, 2, -1.0)]
        path = tmp_path / "h.csv"
        write_hesitancy_csv(records, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "user,window_start,window_end,n_pos,n_neg,score"
        assert lines[1] == "u1,0,100,3,1,0.5"
        assert lines[2] == "u2,0,100,0,2,-1.0"

    def test_timeseries_rows(self, tmp_path):
        per_day = {
            "2021-03-01": {"PO": 0.5, "NG": 0.25, "NE": 0.25, "PD": 0.0},
            "2021-03-02": {"PO": None, "NG": None, "NE": None, "PD": None},
        }
        path = tmp_path / "ts.csv"
        write_timeseries_csv(per_day, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "date,PO,NG,NE,PD"
        assert lines[1] == "2021-03-01,0.5,0.25,0.25,0.0"
        assert lines[2] == "2021-03-02,,,,"
