"""Hashed n-gram encoder and the precomputed vector store.

The hashing tests verify against an independent FNV-1a written inline and
against known reference digests of the 64-bit FNV-1a function.
"""

import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socialstance import embed
from socialstance.corpus import Corpus, Post
from socialstance.embed import (
    HashedNgramEncoder,
    PrecomputedStore,
    fnv1a64,
    load_embedding_store,
    precompute,
    save_embedding_store,
)
from socialstance.errors import InputDataError


def oracle_fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) % (1 << 64)
    return h


class TestFnv:
    def test_known_vectors(self):
        # published FNV-1a 64-bit digests
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a64(b"foobar") == 0x85944171F73967E8

    def test_matches_inline_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            data = bytes(rng.integers(0, 256, size=int(rng.integers(0, 20))))
            assert fnv1a64(data) == oracle_fnv1a64(data)


class TestNormalize:
    def test_lowercase_punct_whitespace(self):
        assert HashedNgramEncoder.normalize("Hello, World!  ") == "hello world"

    def test_hash_sign_kept(self):
        assert HashedNgramEncoder.normalize("#VaxFacts rocks.") == "#vaxfacts rocks"


class TestEncoder:
    def test_unit_norm(self):
        enc = HashedNgramEncoder(dim=32)
        vec = enc.encode_text("vaccines work fine")
        assert vec.shape == (32,)
        np.testing.assert_allclose(np.linalg.norm(vec), 1.0, atol=1e-12)

    def test_short_text_is_zero(self):
        enc = HashedNgramEncoder(dim=16)
        # normalized length < 3 leaves no character trigram
        assert np.all(enc.encode_text("ab") == 0.0)
        assert np.all(enc.encode_text("") == 0.0)

    def test_matches_bucket_oracle(self):
        enc = HashedNgramEncoder(dim=8)
        text = "Vax #Now!"
        norm = "vax #now"
        raw = np.zeros(8)
        for n in (3, 4, 5):
            for i in range(len(norm) - n + 1):
                h = oracle_fnv1a64(norm[i:i + n].encode("utf-8"))
                raw[h % 8] += -1.0 if h >> 63 else 1.0
        raw /= np.linalg.norm(raw)
        np.testing.assert_array_equal(enc.encode_text(text), raw)

    def test_deterministic(self):
        enc = HashedNgramEncoder(dim=64)
        a = enc.encode_text("some post text here")
        b = enc.encode_text("some post text here")
        np.testing.assert_array_equal(a, b)

    def test_embed_post_cleans_first(self):
        enc = HashedNgramEncoder(dim=64)
        noisy = Post(id="a", author_id="u", timestamp=0,
                     text="RT @x : vaccines are safe https://t.co/q")
        clean = Post(id="b", author_id="u", timestamp=0, text="vaccines are safe")
        np.testing.assert_array_equal(enc.embed_post(noisy), enc.embed_post(clean))

    def test_bad_dim(self):
        with pytest.raises(InputDataError):
            HashedNgramEncoder(dim=0)


class TestStore:
    def test_lookup_and_errors(self):
        store = PrecomputedStore({"a": [1.0, 2.0], "b": [0.0, 1.0]})
        assert store.dim == 2
        assert len(store) == 2
        np.testing.assert_array_equal(store.vector("a"), [1.0, 2.0])
        with pytest.raises(KeyError, match="unknown post id"):
            store.vector("zzz")

    def test_vectors_are_read_only(self, tmp_path):
        built = PrecomputedStore({"a": [1.0, 2.0], "b": [0.0, 1.0]})
        save_embedding_store(built, tmp_path / "store.txt")
        for store in (built, load_embedding_store(tmp_path / "store.txt")):
            matrix, rows = store.lend(["b", "zzz", "a"])
            assert rows.tolist() == [1, -1, 0]
            for vec in (store.vector("a"), store.embed_post(Post("a", "u", 0, "")),
                        next(iter(store.items()))[1], matrix[0]):
                with pytest.raises(ValueError, match="read-only"):
                    vec[0] = 5.0
            np.testing.assert_array_equal(store.vector("a"), [1.0, 2.0])

    def test_dim_mismatch_rejected(self):
        with pytest.raises(InputDataError):
            PrecomputedStore({"a": [1.0, 2.0], "b": [1.0]})

    def test_non_finite_rejected(self):
        with pytest.raises(InputDataError):
            PrecomputedStore({"a": [np.nan, 0.0]})

    def test_empty_needs_dim(self):
        with pytest.raises(InputDataError):
            PrecomputedStore({})
        assert PrecomputedStore({}, dim=4).dim == 4

    @pytest.mark.parametrize("dim", [0, -1, 10**30], ids=["zero", "negative", "1e30"])
    def test_dim_out_of_range_refused(self, dim):
        # The loader refuses the same dims in a store's header.
        with pytest.raises(InputDataError, match="^embedding dim"):
            PrecomputedStore({}, dim=dim)

    def test_precompute_covers_corpus(self):
        corpus = Corpus([
            Post(id="a", author_id="u", timestamp=0, text="vaccine drive today"),
            Post(id="b", author_id="v", timestamp=1, text="second dose done"),
        ])
        store = precompute(corpus, HashedNgramEncoder(dim=16))
        assert "a" in store and "b" in store
        assert store.dim == 16


class TestStoreIO:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        vectors = {f"p{i}": rng.standard_normal(6) for i in range(10)}
        store = PrecomputedStore(vectors)
        path = tmp_path / "store.tsv"
        save_embedding_store(store, path)
        loaded = load_embedding_store(path)
        assert loaded.dim == 6
        for pid, vec in vectors.items():
            np.testing.assert_array_equal(loaded.vector(pid), vec)

    def test_header_dim_validated(self, tmp_path):
        path = tmp_path / "store.tsv"
        path.write_text("d=3\na\t1.0 2.0 3.0\n")
        assert load_embedding_store(path, dim=3).dim == 3
        with pytest.raises(InputDataError, match="d=3"):
            load_embedding_store(path, dim=8)

    def test_row_width_validated(self, tmp_path):
        path = tmp_path / "store.tsv"
        path.write_text("d=3\na\t1.0 2.0\n")
        with pytest.raises(InputDataError, match="line 2"):
            load_embedding_store(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "store.tsv"
        path.write_text("dim: 3\n")
        with pytest.raises(InputDataError, match="header"):
            load_embedding_store(path)

    # Both pass str.isdigit, but int() refuses them.
    @pytest.mark.parametrize("digits", ["\u00b2", "1" * 4301], ids=["superscript", "4301-digits"])
    def test_header_dim_int_refuses(self, tmp_path, digits):
        path = tmp_path / "store.tsv"
        path.write_text(f"d={digits}\n", encoding="utf-8")
        with pytest.raises(InputDataError, match="header"):
            load_embedding_store(path)

    # int() converts both, but numpy cannot shape a (0, d) float64 matrix.
    @pytest.mark.parametrize("text", [
        "d=1000000000000000000000000000000\n",
        "d=9223372036854775807\n",
        "d=9223372036854775807\n\n  \n",
    ], ids=["1e30", "int64-max", "int64-max-blank-lines"])
    def test_unshapeable_header_dim_refused(self, tmp_path, text):
        path = tmp_path / "store.tsv"
        path.write_text(text)
        with pytest.raises(InputDataError, match="^embedding dim .* is too large"):
            load_embedding_store(path)

    def test_first_non_finite_row_named(self, tmp_path):
        path = tmp_path / "store.tsv"
        path.write_text("d=2\na\t1.0 2.0\nb\t1.0 inf\nc\tnan 0\n")
        with pytest.raises(InputDataError, match="embedding for 'b' contains non-finite"):
            load_embedding_store(path)
        with pytest.raises(InputDataError, match="embedding for 'c' contains non-finite"):
            PrecomputedStore({"a": [1.0, 2.0], "c": [np.nan, 0.0], "b": [1.0, np.inf]})

    def test_duplicate_post_rejected(self, tmp_path):
        path = tmp_path / "store.tsv"
        path.write_text("d=1\na\t1.0\na\t2.0\n")
        with pytest.raises(InputDataError, match="^line 3: duplicate"):
            load_embedding_store(path)

    @pytest.mark.parametrize("post_id", ["a\tb", "a\nb", "a\rb", "b\r", ""])
    def test_unreadable_post_id_not_written(self, tmp_path, post_id):
        # write_posts round-trips such ids, but the store's lines could not.
        store = PrecomputedStore({"a": [1.0, 2.0], post_id: [3.0, 4.0]})
        path = tmp_path / "store.tsv"
        with pytest.raises(InputDataError, match=re.escape(repr(post_id))):
            save_embedding_store(store, path)
        assert not path.exists()


# -- generative: the chunked, matrix-backed store vs line-by-line parsing ------

def reference_load_store(path, dim=None):
    """The line-by-line loader the chunked one replaced: {id: vector}."""
    vectors = {}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        try:
            if not header.startswith("d=") or not header[2:].isdecimal():
                raise ValueError
            file_dim = int(header[2:])
        except ValueError:
            raise InputDataError(f"expected 'd=<int>' header, got {header!r}") from None
        if file_dim < 1:
            raise InputDataError("embedding dim must be >= 1")
        if dim is not None and dim != file_dim:
            raise InputDataError(f"store declares d={file_dim}, expected d={dim}")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            post_id, sep, rest = line.partition("\t")
            if not sep or not post_id:
                raise InputDataError(f"line {lineno}: expected '<post_id>\\t<floats>'")
            parts = rest.split()
            if len(parts) != file_dim:
                raise InputDataError(
                    f"line {lineno}: expected {file_dim} floats, got {len(parts)}")
            try:
                vec = np.array([float(p) for p in parts], dtype=np.float64)
            except ValueError:
                raise InputDataError(f"line {lineno}: non-numeric embedding value") from None
            if post_id in vectors:
                raise InputDataError(f"line {lineno}: duplicate embedding for post {post_id!r}")
            vectors[post_id] = vec
    for post_id, vec in vectors.items():
        if not np.all(np.isfinite(vec)):
            raise InputDataError(f"embedding for {post_id!r} contains non-finite values")
    return vectors


def store_outcome(load, path):
    """(ids in row order, float64 bits) of a loaded store, or the error."""
    try:
        loaded = load(path)
    except InputDataError as exc:
        return ("error", str(exc))
    items = list(loaded.items())
    return [k for k, _ in items], [np.asarray(v).view(np.uint64).tolist() for _, v in items]


# Tokens float() accepts (underscores, other scripts' digits, any-case
# specials, huge exponents) and ones it refuses (hex, stray separators, NUL).
_TOKENS = ["1_0", "\u0661\u0662", "inF", "-iNfInItY", "nAn", "-nan", "1e400", "-0",
           "+.5", "1E5", "\uff11", "0x10", "1__0", "_1", "1_", "1.5e", ".", "e5",
           "0b1", "--1", "1e", "NaNa", "abc", "\u00bd", "1\x00"]
_float_tokens = st.floats(allow_nan=False, width=64).map(repr) | st.sampled_from(_TOKENS)


@settings(max_examples=300, deadline=None)
@given(tokens=st.lists(_float_tokens | st.text(max_size=4), max_size=6))
def test_numpy_parses_exactly_what_float_accepts(tokens):
    tokens = [t for t in tokens if t.split() == [t]]  # the loader's tokens
    for token in tokens:
        try:
            want = np.float64(float(token)).view(np.uint64)
        except ValueError:
            want = None
        try:
            got = np.array([token], dtype=np.float64).view(np.uint64)[0]
        except ValueError:
            got = None
        assert got == want, token
    try:
        want = np.array([float(t) for t in tokens], dtype=np.float64)
    except ValueError:
        with pytest.raises(ValueError):
            np.array(tokens, dtype=np.float64)
    else:
        np.testing.assert_array_equal(
            np.array(tokens, dtype=np.float64).view(np.uint64), want.view(np.uint64))


_store_ids = st.text(st.characters(blacklist_categories=("Cs",),
                                   blacklist_characters="\t\n\r"), min_size=1, max_size=6)


@settings(max_examples=200, deadline=None)
@given(dim=st.integers(1, 5), chunk=st.integers(1, 4), data=st.data())
def test_store_round_trip_is_bit_identical(dim, chunk, data):
    ids = data.draw(st.lists(_store_ids, unique=True, max_size=12))
    floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
    vectors = {pid: np.array(data.draw(st.lists(floats, min_size=dim, max_size=dim)))
               for pid in ids}
    store = PrecomputedStore(vectors, dim=dim)
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "store.tsv"
        save_embedding_store(store, path)
        with mock.patch.object(embed, "_CHUNK_LINES", chunk):
            loaded = load_embedding_store(path, dim)
    assert loaded.dim == dim and len(loaded) == len(ids)
    for pid, vec in vectors.items():
        assert loaded.vector(pid).tobytes() == vec.tobytes()


_store_lines = st.one_of(
    st.builds(lambda pid, toks: f"{pid}\t{' '.join(toks)}", st.sampled_from(["a", "b", "c", " d"]),
              st.lists(_float_tokens, min_size=1, max_size=3)),
    st.sampled_from(["", "   ", "\t", " \t ", "a", "\t1.0", "e 1.0", "a\t", "a\t1.0  2.0",
                     "b\t 1.0\t2.0 "]))


@settings(max_examples=300, deadline=None)
@given(dim=st.integers(1, 3), chunk=st.integers(1, 4), data=st.data())
def test_store_loading_matches_line_by_line_reference(dim, chunk, data):
    good = st.builds(lambda pid, toks: f"{pid}\t{' '.join(toks)}", st.sampled_from("abcdef"),
                     st.lists(_float_tokens, min_size=dim, max_size=dim))
    lines = data.draw(st.lists(good | good | _store_lines, max_size=10))
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "store.tsv"
        path.write_text("\n".join([f"d={dim}"] + lines) + "\n", encoding="utf-8")
        want = store_outcome(lambda p: PrecomputedStore(reference_load_store(p), dim=dim),
                             path)
        with mock.patch.object(embed, "_CHUNK_LINES", chunk):
            assert store_outcome(load_embedding_store, path) == want
