"""Post corpus: loading, validation, text cleanup, and per-user history access.

Posts arrive as JSON Lines, one object per line, with the fields described on
:class:`Post`. Each input is checked once, where it enters: a :class:`Post`
validates its own fields, so every Post is valid by construction; a
:class:`Corpus` adds only the check that post ids are unique; and
:func:`load_posts` checks only what the JSON alone can tell. A Corpus indexes
its posts by id and, on first use, by (author, timestamp, id), so the recent
histories of a batch of users come from one searchsorted.
"""

import json
import weakref
from bisect import bisect_left
from dataclasses import dataclass, replace
from enum import IntEnum
from functools import cached_property
from urllib.parse import urlparse

import numpy as np

from .errors import InputDataError

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


@dataclass(frozen=True)
class Post:
    """One social-media post, valid by construction.

    kind is "original", "retweet", "quote", or "reply"; source_post_id
    points at the reposted, quoted or replied-to post and is required
    whenever kind != "original". Every kind but retweet is authored text.
    timestamp is Unix seconds (UTC), an int. retweet_count is an int >= 0.
    label is None for unannotated posts. A field that breaks any of this
    raises InputDataError.
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
        if not self.id:
            raise InputDataError("post id must be a non-empty string")
        if not self.author_id:
            raise InputDataError(f"post {self.id!r}: author_id must be non-empty")
        if self.kind not in POST_KINDS:
            raise InputDataError(f"post {self.id!r}: unknown kind {self.kind!r}")
        if not isinstance(self.source_post_id, (str, type(None))):
            raise InputDataError(f"post {self.id!r}: source_post_id must be a string")
        if self.kind != "original" and not self.source_post_id:
            raise InputDataError(
                f"post {self.id!r}: kind {self.kind!r} requires source_post_id")
        if not _is_int(self.timestamp):
            raise InputDataError(f"post {self.id!r}: timestamp must be an integer")
        if not isinstance(self.text, str):
            raise InputDataError(f"post {self.id!r}: text must be a string")
        if not (_is_int(self.retweet_count) and self.retweet_count >= 0):
            raise InputDataError(
                f"post {self.id!r}: retweet_count must be a non-negative integer")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


class Corpus:
    """Posts with unique ids, with an id index and a history index.

    Each Post checked itself when it was built; the corpus checks only that
    no id repeats. Row r of the corpus is posts[r]. The history index
    orders every post by (author, timestamp, id); it is built on first use,
    so loading stays a single pass.
    """

    def __init__(self, posts):
        self.posts = list(posts)
        self.by_id = {}
        for post in self.posts:
            if post.id in self.by_id:
                raise InputDataError(f"duplicate post id: {post.id!r}")
            self.by_id[post.id] = post
        self._embeddings = weakref.WeakKeyDictionary()

    def __len__(self):
        return len(self.posts)

    def __iter__(self):
        return iter(self.posts)

    @cached_property
    def _history(self) -> "_HistoryIndex":
        return _HistoryIndex(self.posts)

    def users(self):
        """Author ids present in the corpus, sorted."""
        return list(self._history.users)

    def posts_by(self, user_id: str):
        """All posts by one user, oldest first. Unknown user yields []."""
        index = self._history
        user = index.user_index.get(user_id)
        if user is None:
            return []
        rows = index.rows[index.starts[user]:index.starts[user + 1]]
        return [self.posts[r] for r in rows.tolist()]

    def history(self, users, before: int, limit: int):
        """Each user's last `limit` posts strictly before `before`, newest
        first, as corpus rows.

        Returns a (len(users), limit) int array padded with -1 and the
        (len(users),) count of real rows. Equal timestamps order by post
        id; unknown users get no rows.
        """
        index = self._history
        # An unknown user maps one past the last author, whose slice is empty.
        authors = np.fromiter((index.user_index.get(u, len(index.users)) for u in users),
                              np.intp, len(users))
        cuts = np.searchsorted(index.keys, authors * index.stride
                               + bisect_left(index.timestamps, before))
        counts = np.minimum(cuts - index.starts[authors], limit)
        back = np.arange(limit)
        real = back < counts[:, None]
        rows = np.full((len(users), limit), -1, dtype=np.intp)
        rows[real] = index.rows[(cuts[:, None] - 1 - back)[real]]
        return rows, counts

    def embeddings(self, provider, rows) -> np.ndarray:
        """provider.embed_post of the posts at `rows`, as (len(rows), dim).

        Vectors are kept per provider for as long as the provider lives,
        so each post is embedded at most once per provider.
        """
        if provider not in self._embeddings:
            self._embeddings[provider] = (
                np.zeros((len(self.posts), provider.dim)),
                np.zeros(len(self.posts), dtype=bool))
        table, done = self._embeddings[provider]
        for r in np.unique(rows[~done[rows]]).tolist():
            table[r] = provider.embed_post(self.posts[r])
            done[r] = True
        return table[rows]

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
    if raw is None:
        return None
    try:
        return StanceLabel[raw]
    except (KeyError, TypeError):
        raise InputDataError(f"unknown label {raw!r}") from None


def load_posts(path) -> Corpus:
    """Read a JSONL post file into a Corpus.

    Raises InputDataError naming the offending line on malformed input, and
    naming the id on duplicates. Field values are checked by Post itself.
    """
    posts = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:
                # ValueError covers JSONDecodeError and integer literals past
                # the int-string conversion limit; RecursionError deep nesting.
                raise InputDataError(
                    f"line {lineno}: invalid JSON ({getattr(exc, 'msg', exc)})") from None
            if not isinstance(obj, dict):
                raise InputDataError(f"line {lineno}: expected a JSON object")
            for field in ("id", "author_id", "timestamp", "text"):
                if field not in obj:
                    raise InputDataError(f"line {lineno}: missing field {field!r}")
            source = obj.get("source_post_id")
            try:
                posts.append(Post(
                    id=str(obj["id"]),
                    author_id=str(obj["author_id"]),
                    timestamp=obj["timestamp"],
                    text=obj["text"],
                    kind=obj.get("kind", "original"),
                    source_post_id=str(source) if _is_int(source) else source,
                    retweet_count=obj.get("retweet_count", 0),
                    label=_parse_label(obj.get("label")),
                ))
            except InputDataError as exc:
                raise InputDataError(f"line {lineno}: {exc}") from None
    return Corpus(posts)


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
    rows, counts = corpus.history([user_id], before, limit)
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
