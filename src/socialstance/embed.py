"""Post embedding providers.

Two providers cover the pipeline: a file-backed store of precomputed vectors
(the usual route when a sentence encoder ran offline) and a self-contained
hashed character n-gram encoder that needs no model weights, used by tests,
demos, and anywhere a deterministic lightweight text signal is enough. Both
expose `dim` and `embed_post`. The store holds its vectors as the rows of
one matrix; its loader reads the file in chunks of lines, splits each
chunk into ids and token lists with no Python loop over its lines, parses
its floats with one numpy call over the token lists and checks finiteness
once over the matrix, falling back to a line-by-line read only to name a
bad line.
"""

import string
from itertools import filterfalse, islice, repeat

import numpy as np

from .corpus import clean_text
from .errors import InputDataError, checked_lines

# 64-bit FNV-1a constants.
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF

# Strip punctuation but keep '#' so hashtags survive normalization.
_PUNCT_TABLE = str.maketrans("", "", string.punctuation.replace("#", ""))
# Lines parsed and checked together by load_embedding_store. Small, so that
# a chunk's token lists are freed before the garbage collector promotes
# them to the older generations it scans less often but at greater cost.
_CHUNK_LINES = 512


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash."""
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


class HashedNgramEncoder:
    """Character n-gram feature hashing into a fixed-width vector.

    Text is lowercased, stripped of punctuation except '#', and
    whitespace-collapsed. Every character 3-, 4-, and 5-gram of the result is
    hashed with 64-bit FNV-1a; the gram adds +1 or -1 (sign from the hash's
    top bit) to bucket hash % dim. The accumulated vector is L2-normalized,
    so any text with at least one n-gram embeds onto the unit sphere and
    shorter texts embed to the zero vector.
    """

    def __init__(self, dim: int = 64):
        if dim < 1:
            raise InputDataError("embedding dim must be >= 1")
        self.dim = dim

    @staticmethod
    def normalize(text: str) -> str:
        lowered = text.lower().translate(_PUNCT_TABLE)
        return " ".join(lowered.split())

    def _accumulate(self, normalized: str) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=np.float64)
        for n in (3, 4, 5):
            for i in range(len(normalized) - n + 1):
                h = fnv1a64(normalized[i:i + n].encode("utf-8"))
                sign = -1.0 if h >> 63 else 1.0
                vec[h % self.dim] += sign
        return vec

    def encode_text(self, text: str) -> np.ndarray:
        vec = self._accumulate(self.normalize(text))
        norm = np.linalg.norm(vec)
        if norm > 0.0:
            vec /= norm
        return vec

    def embed_post(self, post) -> np.ndarray:
        """Embed a post's text, cleaning mentions/URLs/RT markers first."""
        return self.encode_text(clean_text(post.text))


def _checked_dim(dim: int) -> int:
    """dim, if a store's vectors may have it: at least 1, and small enough
    for numpy to shape a (0, dim) float64 matrix. Both store constructors
    check it here, before they shape any array."""
    if dim < 1:
        raise InputDataError("embedding dim must be >= 1")
    try:
        np.empty((0, dim))
    except ValueError:  # beyond numpy's index or byte-size limits
        raise InputDataError(f"embedding dim {dim} is too large") from None
    return dim


class PrecomputedStore:
    """Embedding lookup for posts whose vectors were computed elsewhere.

    The vectors are the rows of one (n, dim) float64 matrix, found through
    an id -> row dict. Built from an id -> vector mapping, each vector must
    be 1-D of one length (dim, when given); the matrix is then checked for
    non-finite values once. The matrix is read-only, so a vector the store
    returns, or lends to a corpus (lend), cannot be changed through it.
    """

    def __init__(self, vectors, dim: int | None = None):
        rows = []
        for post_id, vec in vectors.items():
            arr = np.asarray(vec, dtype=np.float64)
            if arr.ndim != 1:
                raise InputDataError(f"embedding for {post_id!r} is not a vector")
            if dim is None:
                dim = arr.shape[0]
            if arr.shape[0] != dim:
                raise InputDataError(
                    f"embedding for {post_id!r} has dim {arr.shape[0]}, expected {dim}")
            rows.append(arr)
        if dim is None:
            raise InputDataError("embedding store is empty and no dim was given")
        dim = _checked_dim(dim)
        self._set(dict(zip(vectors, range(len(rows)))),
                  np.array(rows, dtype=np.float64).reshape(len(rows), dim))

    def _set(self, rows, matrix):
        """Hold the matrix and its id -> row dict, refusing non-finite rows."""
        finite = np.isfinite(matrix).all(axis=1)
        if not finite.all():
            post_id = next(islice(rows, int(np.argmin(finite)), None))
            raise InputDataError(f"embedding for {post_id!r} contains non-finite values")
        matrix.flags.writeable = False
        self._rows, self._matrix, self.dim = rows, matrix, matrix.shape[1]

    def __len__(self):
        return len(self._rows)

    def __contains__(self, post_id):
        return post_id in self._rows

    def vector(self, post_id: str) -> np.ndarray:
        if post_id not in self._rows:
            raise KeyError(f"unknown post id: {post_id!r}")
        return self._matrix[self._rows[post_id]]

    def embed_post(self, post) -> np.ndarray:
        return self.vector(post.id)

    def lend(self, post_ids):
        """(matrix, rows): the store's own read-only matrix, and each post
        id's row of it as an int array, -1 for an id the store lacks.
        Corpus.embeddings reads the store's vectors in place through it."""
        return self._matrix, np.fromiter(map(self._rows.get, post_ids, repeat(-1)), np.intp)

    def items(self):
        """(post id, vector) pairs in row order."""
        return zip(self._rows, self._matrix)


def precompute(corpus, encoder) -> PrecomputedStore:
    """Embed every post in the corpus with `encoder` into a store."""
    return PrecomputedStore(
        {post.id: encoder.embed_post(post) for post in corpus},
        dim=encoder.dim,
    )


def save_embedding_store(store: PrecomputedStore, path) -> None:
    """Write a store as 'd=<dim>' then one '<post_id>\\t<floats>' row per post.

    Floats are written with repr, which round-trips float64 bit-exactly.
    A post id that load_embedding_store could not read back (empty, or
    holding a tab or a line break) raises InputDataError before the file
    is opened.
    """
    for post_id in store._rows:
        if not post_id or any(c in post_id for c in "\t\n\r"):
            raise InputDataError(f"post id {post_id!r} cannot be written to an "
                                 "embedding store (empty, or holds a tab or line break)")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"d={store.dim}\n")
        for post_id in sorted(store._rows):
            floats = " ".join(map(repr, store.vector(post_id).tolist()))
            fh.write(f"{post_id}\t{floats}\n")


def _store_rows(lines, lineno, dim, rows):
    """(ids, (k, dim) float64 matrix) of a chunk of store lines, lineno
    being the first one's number; lines of only whitespace are skipped and
    `rows` holds the ids of earlier chunks.

    Each check runs once over the whole chunk, and all its floats are parsed
    by one np.array call of the lines' token lists, which accepts exactly
    the tokens float() accepts; a ragged chunk fails it and a chunk of the
    wrong width fails the shape check. A chunk that fails a check holds a
    bad line, which a line-by-line pass of _store_row names.
    """
    kept = list(map(str.rstrip, filterfalse(str.isspace, lines), repeat("\n")))
    if not kept:
        return (), np.zeros((0, dim))
    ids, seps, rests = zip(*map(str.partition, kept, repeat("\t")))
    new = set(ids)
    if "" not in seps and "" not in new and len(new) == len(ids) and rows.keys().isdisjoint(new):
        try:
            block = np.array(list(map(str.split, rests)), dtype=np.float64)
        except ValueError:
            pass
        else:
            if block.shape == (len(ids), dim):
                return ids, block
    seen = set(rows)
    checked_lines(lines, lambda line: _store_row(line, dim, seen), lineno)


def _store_row(line, dim, seen):
    """Check one '<post_id>\\t<floats>' line of `dim` floats against the
    rules below, in their order, and add its id to `seen`, the ids of the
    lines before it."""
    post_id, sep, rest = line.rstrip("\n").partition("\t")
    if not sep or not post_id:
        raise InputDataError("expected '<post_id>\\t<floats>'")
    parts = rest.split()
    if len(parts) != dim:
        raise InputDataError(f"expected {dim} floats, got {len(parts)}")
    try:
        list(map(float, parts))
    except ValueError:
        raise InputDataError("non-numeric embedding value") from None
    if post_id in seen:
        raise InputDataError(f"duplicate embedding for post {post_id!r}")
    seen.add(post_id)


def _header_dim(header: str) -> int:
    """The dimension a store's 'd=<int>' header line (stripped) declares."""
    digits = header[2:]
    if header.startswith("d=") and digits.isdecimal():
        try:
            return int(digits)
        except ValueError:  # more digits than int() converts
            pass
    raise InputDataError(f"expected 'd=<int>' header, got {header!r}")


def load_embedding_store(path, dim: int | None = None) -> PrecomputedStore:
    """Read a save_embedding_store file back into a PrecomputedStore.

    When `dim` is given it must match the file's declared dimension; rows
    are always validated against the declared dimension, with the offending
    line named in the error. The file is read in chunks of lines.
    """
    rows, blocks = {}, []
    with open(path, encoding="utf-8") as fh:
        file_dim = _checked_dim(_header_dim(fh.readline().strip()))
        if dim is not None and dim != file_dim:
            raise InputDataError(
                f"store declares d={file_dim}, expected d={dim}")
        lineno = 2
        while lines := list(islice(fh, _CHUNK_LINES)):
            ids, block = _store_rows(lines, lineno, file_dim, rows)
            lineno += len(lines)
            rows.update(zip(ids, range(len(rows), len(rows) + len(ids))))
            blocks.append(block)
    store = PrecomputedStore.__new__(PrecomputedStore)
    store._set(rows, np.concatenate(blocks + [np.zeros((0, file_dim))]))
    return store
