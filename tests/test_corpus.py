"""Corpus container, JSONL round-trips, text cleanup, annotation selection."""

import json
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socialstance.corpus import (
    VACCINE_KEYWORDS,
    Corpus,
    Post,
    StanceLabel,
    clean_text,
    filter_vaccine_related,
    load_posts,
    recent_posts,
    relabel,
    select_annotation_set,
    write_posts,
)
from socialstance.errors import InputDataError


def make_post(pid, user="u1", ts=0, text="hello", **kw):
    return Post(id=pid, author_id=user, timestamp=ts, text=text, **kw)


class TestStanceLabel:
    def test_codes(self):
        assert StanceLabel.PO == 0
        assert StanceLabel.NG == 1
        assert StanceLabel.NE == 2
        assert StanceLabel.PD == 3

    def test_names_round_trip(self):
        for label in StanceLabel:
            assert StanceLabel[label.name] is label


class TestPost:
    def test_defaults(self):
        p = make_post("a")
        assert p.kind == "original"
        assert p.label is None
        assert p.source_post_id is None
        assert p.retweet_count == 0

    def test_frozen(self):
        p = make_post("a")
        with pytest.raises(AttributeError):
            p.text = "other"

    @pytest.mark.parametrize("bad", [
        dict(pid=""), dict(user=""), dict(ts=1.5), dict(ts=True), dict(text=5),
        dict(text=None), dict(retweet_count=-1), dict(retweet_count=True),
        dict(retweet_count=1.0), dict(kind="poll"), dict(kind="quote"),
    ])
    def test_invalid_fields_rejected_on_construction(self, bad):
        fields = dict(pid="a", user="u1", ts=0, text="hello")
        fields.update(bad)
        with pytest.raises(InputDataError):
            make_post(**fields)


class TestCorpus:
    def test_indexes(self):
        posts = [
            make_post("a", "u1", 5),
            make_post("b", "u2", 1),
            make_post("c", "u1", 3),
        ]
        corpus = Corpus(posts)
        assert len(corpus) == 3
        assert corpus.by_id["b"].author_id == "u2"
        assert [p.id for p in corpus.posts_by("u1")] == ["c", "a"]  # by timestamp
        assert corpus.posts_by("nobody") == []
        assert corpus.users() == ["u1", "u2"]

    def test_duplicate_id_rejected(self):
        with pytest.raises(InputDataError):
            Corpus([make_post("a"), make_post("a", "u2")])

    def test_labelled(self):
        posts = [
            make_post("a", label=StanceLabel.PO),
            make_post("b", "u2"),
            make_post("c", "u3", label=StanceLabel.NE),
        ]
        assert [p.id for p in Corpus(posts).labelled()] == ["a", "c"]


class TestJsonl:
    def test_round_trip(self, tmp_path):
        posts = [
            make_post("a", "u1", 5, "first post", label=StanceLabel.PD),
            make_post("b", "u2", 1, "second"),
            Post(id="c", author_id="u3", timestamp=9, text="",
                 kind="retweet", source_post_id="a", retweet_count=2),
        ]
        path = tmp_path / "posts.jsonl"
        write_posts(posts, path)
        loaded = load_posts(path)
        assert len(loaded) == 3
        assert loaded.by_id["a"].label == StanceLabel.PD
        assert loaded.by_id["b"].label is None
        assert loaded.by_id["c"].kind == "retweet"
        assert loaded.by_id["c"].source_post_id == "a"
        assert loaded.by_id["c"].retweet_count == 2

    def test_reply_round_trip(self, tmp_path):
        posts = [make_post("a", "u1", 5, "first post"),
                 Post(id="r", author_id="u2", timestamp=6, text="replying",
                      kind="reply", source_post_id="a", retweet_count=3)]
        path = tmp_path / "posts.jsonl"
        write_posts(posts, path)
        loaded = load_posts(path)
        assert loaded.by_id["r"] == posts[1]
        again = tmp_path / "again.jsonl"
        write_posts(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_reply_requires_source(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        path.write_text(json.dumps({"id": "r", "author_id": "u", "timestamp": 0,
                                    "text": "x", "kind": "reply"}) + "\n")
        with pytest.raises(InputDataError, match="line 1: .*requires source_post_id"):
            load_posts(path)

    def test_numeric_ids_link_retweet_to_source(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        rows = [{"id": 5, "author_id": 1, "timestamp": 0, "text": "x"},
                {"id": 6, "author_id": 2, "timestamp": 1, "text": "",
                 "kind": "retweet", "source_post_id": 5}]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        corpus = load_posts(path)
        assert corpus.by_id["6"].source_post_id == "5"
        # the retweeter counts as covered by the source post
        assert [p.id for p in select_annotation_set(corpus)] == ["5"]

    @pytest.mark.parametrize("source", [["5"], {"id": "5"}, 5.0, True])
    def test_non_string_source_rejected(self, tmp_path, source):
        path = tmp_path / "posts.jsonl"
        rows = [{"id": "5", "author_id": "u", "timestamp": 0, "text": "x"},
                {"id": "6", "author_id": "v", "timestamp": 1, "text": "",
                 "kind": "retweet", "source_post_id": source}]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        with pytest.raises(InputDataError, match="line 2: .*source_post_id must be a string"):
            load_posts(path)

    def test_label_is_name_string(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        rows = [
            {"id": "a", "author_id": "u", "timestamp": 0, "text": "x", "label": "NG"},
            {"id": "b", "author_id": "u", "timestamp": 1, "text": "x", "label": None},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        corpus = load_posts(path)
        assert corpus.by_id["a"].label == StanceLabel.NG
        assert corpus.by_id["b"].label is None

    def test_numeric_label_rejected(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        path.write_text(json.dumps(
            {"id": "a", "author_id": "u", "timestamp": 0, "text": "x", "label": 3}))
        with pytest.raises(InputDataError):
            load_posts(path)

    def test_bad_label_is_error(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        path.write_text(json.dumps(
            {"id": "a", "author_id": "u", "timestamp": 0, "text": "x", "label": "YES"}))
        with pytest.raises(InputDataError):
            load_posts(path)

    def test_missing_field_is_error(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        path.write_text(json.dumps({"id": "a", "author_id": "u", "text": "x"}))
        with pytest.raises(InputDataError):
            load_posts(path)

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        path.write_text('{"id": "a", "author_id": "u", "timestamp": 0, "text": "x"}\n{oops\n')
        with pytest.raises(InputDataError) as err:
            load_posts(path)
        assert "2" in str(err.value)

    @pytest.mark.parametrize("line", ['{"id": ' + "1" * 5000 + "}", "[" * 100_000],
                             ids=["huge-integer", "deep-nesting"])
    def test_json_past_parser_limits_is_input_error(self, tmp_path, line):
        path = tmp_path / "posts.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(InputDataError, match="line 1: invalid JSON"):
            load_posts(path)


class TestCleanText:
    def test_strips_urls_and_mentions(self):
        raw = "@alice check https://example.com/x now"
        assert clean_text(raw) == "check now"

    def test_repost_prefix_collapses(self):
        assert clean_text("RT @u: Get the vaccine! https://t.co/x") == "Get the vaccine!"
        # colon as its own token after a removed mention goes too
        assert clean_text("RT @bob : vaccines are fine") == "vaccines are fine"
        # a colon not following a mention survives
        assert clean_text("update : vaccines are fine") == "update : vaccines are fine"

    def test_interior_rt_kept(self):
        assert clean_text("the RT button exists") == "the RT button exists"

    def test_all_tokens_removed(self):
        assert clean_text("@a @b") == ""

    def test_hashtags_untouched(self):
        assert clean_text("support #VaccinesWork today") == "support #VaccinesWork today"

    def test_whitespace_collapsed(self):
        assert clean_text("  a \t b \n c ") == "a b c"

    def test_idempotent(self):
        raw = "RT @u : see https://x.co/a and @v more"
        once = clean_text(raw)
        assert clean_text(once) == once


class TestVaccineFilter:
    def test_keyword_list_is_fixed(self):
        assert VACCINE_KEYWORDS == (
            "vax", "vaccin", "covidvic", "impfstoff", "vacin", "vacuna", "impfung")

    def test_substring_match_case_insensitive(self):
        posts = [
            make_post("a", text="Get your VACCINE today"),
            make_post("b", text="antivax nonsense"),
            make_post("c", text="the weather is nice"),
            make_post("d", text="Impfstoff verfuegbar"),
        ]
        kept = filter_vaccine_related(Corpus(posts))
        assert sorted(p.id for p in kept) == ["a", "b", "d"]


class TestSelectAnnotationSet:
    def test_popularity_order_and_coverage(self):
        posts = [
            make_post("p1", "u1", 0, retweet_count=10),
            make_post("p2", "u2", 0, retweet_count=5),
            make_post("p3", "u3", 0, retweet_count=1),
            Post(id="r1", author_id="u3", timestamp=1, text="",
                 kind="retweet", source_post_id="p1"),
            Post(id="r2", author_id="u2", timestamp=1, text="",
                 kind="retweet", source_post_id="p1"),
        ]
        selected = select_annotation_set(Corpus(posts))
        # p1 covers u1 plus retweeters u2, u3: nothing more needed
        assert [p.id for p in selected] == ["p1"]

    def test_stops_once_everyone_covered(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n_users = int(rng.integers(2, 12))
            posts = []
            for i in range(n_users):
                posts.append(make_post(f"p{i}", f"u{i}", 0,
                                       retweet_count=int(rng.integers(0, 50))))
                if i and rng.random() < 0.5:
                    target = f"p{int(rng.integers(0, i))}"
                    posts.append(Post(id=f"r{i}", author_id=f"u{i}", timestamp=1,
                                      text="", kind="retweet", source_post_id=target))
            corpus = Corpus(posts)
            selected = select_annotation_set(corpus)
            retweeters = {}
            for p in corpus.posts:
                if p.kind == "retweet":
                    retweeters.setdefault(p.source_post_id, set()).add(p.author_id)
            covered = set()
            for p in selected:
                covered.add(p.author_id)
                covered |= retweeters.get(p.id, set())
            assert covered == {p.author_id for p in corpus.posts}
            # selected list is a prefix of the popularity ranking
            ranked = sorted((p for p in corpus.posts if p.kind != "retweet"),
                            key=lambda p: (-p.retweet_count, p.id))
            assert [p.id for p in selected] == [p.id for p in ranked[:len(selected)]]

    def test_no_retweets_selected(self):
        posts = [
            make_post("p1", "u1", 0, retweet_count=0),
            Post(id="r1", author_id="u2", timestamp=1, text="",
                 kind="retweet", source_post_id="p1", retweet_count=99),
        ]
        selected = select_annotation_set(Corpus(posts))
        assert all(p.kind != "retweet" for p in selected)

    def test_replies_rank_like_quotes(self):
        posts = [
            make_post("o", "u1", 0, retweet_count=4),
            Post(id="q", author_id="u2", timestamp=0, text="x", kind="quote",
                 source_post_id="o", retweet_count=7),
            Post(id="p", author_id="u3", timestamp=0, text="x", kind="reply",
                 source_post_id="o", retweet_count=7),
            Post(id="r", author_id="u4", timestamp=1, text="x", kind="reply",
                 source_post_id="q", retweet_count=9),
        ]
        # r leads on retweets; p and q tie and break by id.
        assert [p.id for p in select_annotation_set(Corpus(posts))] == ["r", "p", "q", "o"]

    def test_empty_corpus_is_error(self):
        with pytest.raises(InputDataError):
            select_annotation_set(Corpus([]))


class TestRecentPosts:
    def test_newest_first_strictly_before(self):
        posts = [make_post(f"p{t}", "u1", t) for t in (1, 3, 5, 7)]
        corpus = Corpus(posts)
        got = recent_posts(corpus, "u1", before=5, limit=3)
        assert [p.id for p in got] == ["p3", "p1"]

    def test_limit_truncates(self):
        posts = [make_post(f"p{t}", "u1", t) for t in range(10)]
        corpus = Corpus(posts)
        got = recent_posts(corpus, "u1", before=100, limit=4)
        assert [p.timestamp for p in got] == [9, 8, 7, 6]

    def test_unknown_user_empty(self):
        corpus = Corpus([make_post("a")])
        assert recent_posts(corpus, "ghost", before=10, limit=3) == []

    def test_negative_limit_is_error(self):
        corpus = Corpus([make_post("a")])
        with pytest.raises(ValueError):
            recent_posts(corpus, "u1", before=10, limit=-1)


def bisect_recent(posts, user, before, limit):
    """The per-user sorted list and bisect that history queries replaced."""
    seq = sorted((p for p in posts if p.author_id == user),
                 key=lambda p: (p.timestamp, p.id))
    cut = bisect_left([p.timestamp for p in seq], before)
    return list(reversed(seq[max(0, cut - limit):cut]))


BIG = 2 ** 70


@st.composite
def history_corpora(draw):
    """Posts by a few authors on few, often tied timestamps, some of them
    outside int64."""
    stamps = draw(st.lists(st.sampled_from([-BIG, -3, 0, 1, 2, 5, BIG]) | st.integers(-4, 9),
                           min_size=0, max_size=24))
    ids = draw(st.lists(st.text("abcxyz", min_size=1, max_size=3), unique=True,
                        min_size=len(stamps), max_size=len(stamps)))
    authors = draw(st.lists(st.sampled_from(["u1", "u2", "u3"]),
                            min_size=len(stamps), max_size=len(stamps)))
    return [make_post(i, a, ts) for i, a, ts in zip(ids, authors, stamps)]


class TestHistoryQuery:
    @settings(max_examples=150, deadline=None)
    @given(history_corpora(), st.integers(0, 4))
    def test_matches_bisect(self, posts, limit):
        corpus = Corpus(posts)
        users = ["u1", "u2", "u3", "ghost"]
        cutoffs = {-2 * BIG, 2 * BIG}
        for p in posts:
            cutoffs |= {p.timestamp - 1, p.timestamp, p.timestamp + 1}
        for before in sorted(cutoffs):
            rows, counts = corpus.history(users, before, limit)
            assert rows.shape == (len(users), limit)
            for user, row, count in zip(users, rows, counts):
                expected = bisect_recent(posts, user, before, limit)
                assert count == len(expected)
                assert [corpus.posts[r] for r in row[:count]] == expected
                assert (row[count:] == -1).all()
                assert recent_posts(corpus, user, before, limit) == expected


class TestRelabel:
    def test_applies_and_preserves_rest(self):
        corpus = Corpus([make_post("a"), make_post("b", "u2", label=StanceLabel.NE)])
        out = relabel(corpus, {"a": StanceLabel.PO})
        assert out.by_id["a"].label == StanceLabel.PO
        assert out.by_id["b"].label == StanceLabel.NE

    def test_unknown_id_is_error(self):
        corpus = Corpus([make_post("a")])
        with pytest.raises(InputDataError):
            relabel(corpus, {"zzz": StanceLabel.PO})
