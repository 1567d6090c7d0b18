"""Post corpus: loading, validation, text cleanup, and per-user history access.

Posts arrive as JSON Lines, one object per line, with the fields described on
:class:`Post`. Each input is checked once, where it enters: a :class:`Post`
validates its own fields, so every Post is valid by construction; a
:class:`Corpus` adds only the check that post ids are unique; and
:func:`load_posts` checks only what the JSON alone can tell. A Corpus indexes
its posts by id and, on first use, by (author, timestamp, id), so the recent
histories of a batch of users come from one searchsorted. A graph's nodes are
joined to that index's authors once per graph (:meth:`Corpus.graph_authors`),
so the one batch history query (:meth:`Corpus.history_at`) takes integer
codes, not names; :func:`recent_posts` codes a single name for it.
"""

import json
import weakref
from bisect import bisect_left
from dataclasses import dataclass, replace
from enum import IntEnum
from functools import cached_property
from urllib.parse import urlparse

import numpy as np

from .errors import InputDataError, checked_lines

POST_KINDS = ("original", "retweet", "quote", "reply")

# Case-insensitive substrings that mark a post as vaccine-related. "vaccin"
# covers vaccine/vaccinated/vaccination; the German and Spanish/Portuguese
# stems keep multilingual feeds in scope.
VACCINE_KEYWORDS = (
    "vax", "vaccin", "covidvic", "impfstoff", "vacin", "vacuna", "impfung",
)


class StanceLabel(IntEnum):
    """Four-way vaccination stance.

    PO: positive. NG: negative. NE: neutral. PD: positive about vaccination
    itself but dissatisfied with how the rollout is managed (negative surface
    emotion over a supportive stance, worth separating so the classifier is
    not misled by angry-but-pro texts). Integer values fix the class-index
    order used by the classifier head and by metric reports.
    """

    PO = 0
    NG = 1
    NE = 2
    PD = 3


@dataclass(frozen=True, slots=True)
class Post:
    """One social-media post, valid by construction.

    id and author_id are non-empty strings. kind is "original", "retweet",
    "quote", or "reply"; source_post_id points at the reposted, quoted or
    replied-to post and is required whenever kind != "original". Every kind
    but retweet is authored text. timestamp is Unix seconds (UTC), an int.
    retweet_count is an int >= 0. label is None for unannotated posts. A
    field that breaks any of this raises InputDataError.

    Posts are immutable and hashable. They keep their fields in slots, not
    in a per-instance __dict__, since a corpus holds one Post per line.
    """

    id: str
    author_id: str
    timestamp: int
    text: str
    kind: str = "original"
    source_post_id: str | None = None
    retweet_count: int = 0
    label: StanceLabel | None = None

    def __post_init__(self):
        # One read per field and no helper calls: every loaded line runs this.
        post_id, author, kind, source = self.id, self.author_id, self.kind, self.source_post_id
        timestamp, retweets = self.timestamp, self.retweet_count
        if not (isinstance(post_id, str) and post_id):
            raise InputDataError("post id must be a non-empty string")
        if not (isinstance(author, str) and author):
            raise InputDataError(f"post {post_id!r}: author_id must be a non-empty string")
        if kind not in POST_KINDS:
            raise InputDataError(f"post {post_id!r}: unknown kind {kind!r}")
        if not (source is None or isinstance(source, str)):
            raise InputDataError(f"post {post_id!r}: source_post_id must be a string")
        if kind != "original" and not source:
            raise InputDataError(
                f"post {post_id!r}: kind {kind!r} requires source_post_id")
        if not isinstance(timestamp, int) or isinstance(timestamp, bool):
            raise InputDataError(f"post {post_id!r}: timestamp must be an integer")
        if not isinstance(self.text, str):
            raise InputDataError(f"post {post_id!r}: text must be a string")
        if not isinstance(retweets, int) or isinstance(retweets, bool) or retweets < 0:
            raise InputDataError(
                f"post {post_id!r}: retweet_count must be a non-negative integer")


class Corpus:
    """Posts with unique ids, with an id index and a history index.

    Each Post checked itself when it was built; the corpus checks only that
    no id repeats. Row r of the corpus is posts[r]. The history index
    orders every post by (author, timestamp, id); it is built on first use,
    so loading stays a single pass. history_at is the one batch query of
    it: it takes author codes, which graph_authors gives for every node of
    a graph and keeps per graph, the way embeddings keeps a vector memo per
    provider; recent_posts is the one-user name form over it.
    """

    def __init__(self, posts):
        self.posts = list(posts)
        self.by_id = {}
        for post in self.posts:
            if post.id in self.by_id:
                raise InputDataError(f"duplicate post id: {post.id!r}")
            self.by_id[post.id] = post
        self._embeddings = weakref.WeakKeyDictionary()
        self._graph_authors = weakref.WeakKeyDictionary()

    def __len__(self):
        return len(self.posts)

    def __iter__(self):
        return iter(self.posts)

    @cached_property
    def _history(self) -> "_HistoryIndex":
        return _HistoryIndex(self.posts)

    def posts_by(self, user_id: str):
        """All posts by one user, oldest first. Unknown user yields []."""
        index = self._history
        user = index.user_index.get(user_id)
        if user is None:
            return []
        rows = index.rows[index.starts[user]:index.starts[user + 1]]
        return [self.posts[r] for r in rows.tolist()]

    def graph_authors(self, graph) -> np.ndarray:
        """Each graph node's author code, the integer form of its name that
        history_at takes.

        The join is computed once per graph and kept for as long as the
        graph lives.
        """
        if graph not in self._graph_authors:
            self._graph_authors[graph] = self._author_codes(graph.node_ids)
        return self._graph_authors[graph]

    def _author_codes(self, users) -> np.ndarray:
        index = self._history
        # An unknown user maps one past the last author, whose slice is empty.
        return np.fromiter((index.user_index.get(u, len(index.users)) for u in users),
                           np.intp, len(users))

    def history_at(self, authors, before: int, limit: int):
        """The last `limit` posts strictly before `before`, newest first, of
        each user given by author code (graph_authors), as corpus rows.

        Returns a (len(authors), limit) int array padded with -1 and the
        (len(authors),) count of real rows. Equal timestamps order by post
        id; unknown users get no rows.
        """
        index = self._history
        cuts = np.searchsorted(index.keys, authors * index.stride
                               + bisect_left(index.timestamps, before))
        counts = np.minimum(cuts - index.starts[authors], limit)
        back = np.arange(limit)
        real = back < counts[:, None]
        rows = np.full((len(authors), limit), -1, dtype=np.intp)
        rows[real] = index.rows[(cuts[:, None] - 1 - back)[real]]
        return rows, counts

    def embeddings(self, provider, rows):
        """(matrix, where): the vector of the post at corpus row rows[i] is
        matrix[where[i]].

        Every provider has one memo per corpus, kept for as long as the
        provider lives: a vector matrix and each corpus row's row of it. A
        provider with a lend method (a PrecomputedStore) lends its own
        matrix, indexed through its id map, so no vector is copied. Any
        other provider fills a (len(corpus), dim) matrix the corpus owns,
        embedding each post at most once, on first use. A row without a
        vector is passed to provider.embed_post in increasing row order, so
        a store raises its KeyError for the lowest such row.
        """
        memo = self._embeddings.get(provider)
        if memo is None:
            lend = getattr(provider, "lend", None)
            memo = (lend(post.id for post in self.posts) if lend is not None else
                    (np.zeros((len(self.posts), provider.dim)),
                     np.full(len(self.posts), -1, dtype=np.intp)))
            self._embeddings[provider] = memo
        matrix, index = memo
        where = index[rows]
        missing = where < 0
        if missing.any():
            for r in np.unique(rows[missing]).tolist():
                matrix[r] = provider.embed_post(self.posts[r])
                index[r] = r
            where = index[rows]
        return matrix, where

    def labelled(self):
        """Posts carrying a stance label, in corpus order."""
        return [p for p in self.posts if p.label is not None]


class _HistoryIndex:
    """A corpus's rows in one flat (author, timestamp, id) order.

    rows[starts[a]:starts[a + 1]] are the rows of users[a], oldest first.
    Timestamps are replaced by their rank among the distinct timestamps,
    so Python ints of any size sort as int64; keys[i] = author * stride +
    rank of flat position i never decreases, and one searchsorted finds
    every user's cut at a timestamp.
    """

    def __init__(self, posts):
        n = len(posts)
        self.users = sorted({post.author_id for post in posts})
        self.user_index = {user: a for a, user in enumerate(self.users)}
        self.timestamps = sorted({post.timestamp for post in posts})
        rank = {ts: i for i, ts in enumerate(self.timestamps)}
        authors = np.fromiter((self.user_index[p.author_id] for p in posts), np.intp, n)
        ranks = np.fromiter((rank[p.timestamp] for p in posts), np.intp, n)
        id_ranks = np.empty(n, dtype=np.intp)
        id_ranks[sorted(range(n), key=lambda r: posts[r].id)] = np.arange(n)
        self.rows = np.lexsort((id_ranks, ranks, authors))
        self.stride = len(self.timestamps) + 1
        self.keys = (authors * self.stride + ranks)[self.rows]
        self.starts = np.searchsorted(self.keys,
                                      np.arange(len(self.users) + 1) * self.stride)


def _parse_label(raw):
    try:
        return StanceLabel[raw]
    except (KeyError, TypeError):
        raise InputDataError(f"unknown label {raw!r}") from None


_raw_decode = json.JSONDecoder().raw_decode


def _json_value(line):
    """json.loads(line), with the same value and the same error.

    A line starting with '{' is scanned by one raw_decode call, the call
    json.loads makes for it, and accepted when only JSON whitespace
    follows; any other line goes through json.loads itself.
    """
    if line.startswith("{"):
        obj, end = _raw_decode(line)
        if not line[end:].strip(" \t\n\r"):
            return obj
    return json.loads(line)


# A loaded post's kind is one of these string objects, not its own copy.
_KIND_STRINGS = {kind: kind for kind in POST_KINDS}


def _post_row(line, authors):
    """The Post of one JSONL line.

    authors maps each author id met so far to its one string object: the
    post shares that object, and a new author id is added. Its kind is the
    POST_KINDS string object of that name.
    """
    try:
        obj = _json_value(line)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integer literals past the
        # int-string conversion limit; RecursionError deep nesting.
        raise InputDataError(f"invalid JSON ({getattr(exc, 'msg', exc)})") from None
    if not isinstance(obj, dict):
        raise InputDataError("expected a JSON object")
    for field in ("id", "author_id", "timestamp", "text"):
        if field not in obj:
            raise InputDataError(f"missing field {field!r}")
    post_id, author, source = obj["id"], obj["author_id"], obj.get("source_post_id")
    kind, label = obj.get("kind", "original"), obj.get("label")
    # Strings and None pass as they are; only other values need converting.
    if type(author) is not str:
        author = _as_id(author)
    if type(author) is str:
        author = authors.setdefault(author, author)
    if type(kind) is str:
        kind = _KIND_STRINGS.get(kind, kind)
    return Post(
        id=post_id if type(post_id) is str else _as_id(post_id),
        author_id=author,
        timestamp=obj["timestamp"],
        text=obj["text"],
        kind=kind,
        source_post_id=source if source is None or type(source) is str else _as_id(source),
        retweet_count=obj.get("retweet_count", 0),
        label=None if label is None else _parse_label(label),
    )


def load_posts(path) -> Corpus:
    """Read a JSONL post file into a Corpus.

    Raises InputDataError naming the offending line on malformed input, and
    naming the id on duplicates. Field values are checked by Post itself;
    id, author_id and source_post_id may be JSON strings or integers, and
    integers become their decimal strings. Posts by one author share one
    author_id string object, and posts of one kind one kind string object,
    so a corpus holds each such string once, not once a post.
    """
    authors = {}
    with open(path, encoding="utf-8") as fh:
        posts = checked_lines(fh, lambda line: _post_row(line, authors))
    return Corpus(posts)


def _as_id(value):
    """A JSON id field: integers become strings; Post refuses other non-strings."""
    return str(value) if isinstance(value, int) and not isinstance(value, bool) else value


def write_posts(posts, path) -> None:
    """Write posts as JSONL, the inverse of load_posts."""
    with open(path, "w", encoding="utf-8") as fh:
        for post in posts:
            obj = {
                "id": post.id,
                "author_id": post.author_id,
                "timestamp": post.timestamp,
                "text": post.text,
                "kind": post.kind,
            }
            if post.source_post_id is not None:
                obj["source_post_id"] = post.source_post_id
            if post.retweet_count:
                obj["retweet_count"] = post.retweet_count
            if post.label is not None:
                obj["label"] = post.label.name
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


def _is_url(token: str) -> bool:
    try:
        parsed = urlparse(token)
    except ValueError:
        return False
    return parsed.scheme in ("http", "https") and bool(parsed.netloc)


def clean_text(text: str) -> str:
    """Strip @mentions, URLs, and leading RT markers; collapse whitespace.

    Idempotent: cleaning a cleaned string is a no-op. Every leading RT token
    is dropped (repost-of-repost prefixes stack), RT later in the text is
    kept. A lone ":" right after a removed mention goes too, so "RT @u :
    text" collapses fully. May return the empty string.
    """
    kept = []
    after_mention = False
    for token in text.split():
        if token.startswith("@") and len(token) > 1:
            after_mention = True
            continue
        if after_mention and token == ":":
            after_mention = False
            continue
        after_mention = False
        if _is_url(token):
            continue
        if token == "RT" and not kept:
            continue
        kept.append(token)
    return " ".join(kept)


def filter_vaccine_related(corpus: Corpus, keywords=VACCINE_KEYWORDS) -> Corpus:
    """Posts whose raw text contains any keyword, case-insensitive.

    Matching runs on the raw text (mentions and URLs may carry the keyword);
    cleaning is a concern of the embedding step, not of topic filtering.
    """
    if not keywords:
        raise InputDataError("keyword list must be non-empty")
    lowered = [k.lower() for k in keywords]
    hits = [p for p in corpus.posts if any(k in p.text.lower() for k in lowered)]
    return Corpus(hits)


def rank_authored(posts):
    """Authored posts (every kind but retweet: a plain retweet adds no text
    and its popularity belongs to its source) by retweet_count descending,
    ties by id ascending."""
    return sorted((p for p in posts if p.kind != "retweet"),
                  key=lambda p: (-p.retweet_count, p.id))


def select_annotation_set(corpus: Corpus):
    """Greedy user-covering selection of high-visibility authored posts.

    Authored posts are taken in rank_authored order. Taking a post covers
    its author and every user whose retweet points at it. Selection stops
    as soon as every user in the corpus is covered, so the result is a
    prefix of the ranking.
    """
    if not corpus.posts:
        raise InputDataError("corpus is empty")
    retweeters = {}
    for post in corpus.posts:
        if post.kind == "retweet":
            retweeters.setdefault(post.source_post_id, set()).add(post.author_id)
    everyone = {p.author_id for p in corpus.posts}
    covered = set()
    selected = []
    for post in rank_authored(corpus.posts):
        if covered >= everyone:
            break
        covered.add(post.author_id)
        covered |= retweeters.get(post.id, set())
        selected.append(post)
    return selected


def recent_posts(corpus: Corpus, user_id: str, before: int, limit: int):
    """The user's last `limit` posts strictly before `before`, newest first.

    Unknown users yield an empty list. Equal timestamps order by post id, so
    the result is deterministic.
    """
    if limit < 0:
        raise InputDataError("limit must be non-negative")
    rows, counts = corpus.history_at(corpus._author_codes([user_id]), before, limit)
    return [corpus.posts[r] for r in rows[0, :counts[0]].tolist()]


def relabel(corpus: Corpus, labels) -> Corpus:
    """Return a new Corpus with labels attached from a post_id -> label map."""
    unknown = set(labels) - set(corpus.by_id)
    if unknown:
        raise InputDataError(f"labels reference unknown post ids: {sorted(unknown)[:5]}")
    out = []
    for post in corpus.posts:
        if post.id in labels:
            out.append(replace(post, label=labels[post.id]))
        else:
            out.append(post)
    return Corpus(out)
