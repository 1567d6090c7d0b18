"""The checked line reader and the line numbers of every loader built on it,
the header check, and the CSV table writer."""

import io
from unittest import mock

import pytest

from socialstance import embed, socialgraph
from socialstance.cli import load_config_file
from socialstance.corpus import load_posts
from socialstance.embed import load_embedding_store
from socialstance.errors import InputDataError, checked_header, checked_lines, write_csv
from socialstance.gbdt import load_training_csv, training_csv_header
from socialstance.metrics import load_ratings_csv
from socialstance.socialgraph import load_follower_edges, load_interactions


def _row(line):
    line = line.strip()
    if line == "bad":
        raise InputDataError("bad row")
    return line or None


class TestCheckedLines:
    def test_skips_none_and_counts_every_line(self):
        assert checked_lines(["a\n", "\n", "b\n"], _row) == ["a", "b"]
        with pytest.raises(InputDataError, match="^line 5: bad row$"):
            checked_lines(["a\n", "\n", "  \n", "bad\n", "bad\n"], _row, 2)

    def test_other_errors_pass_through_unprefixed(self):
        def row(line):
            raise KeyError(line)

        with pytest.raises(KeyError):
            checked_lines(["x"], row)


class TestCheckedHeader:
    def test_reads_one_stripped_line(self):
        fh = io.StringIO(" a,b \nnext\n")
        checked_header(fh, "a,b")
        assert fh.readline() == "next\n"

    @pytest.mark.parametrize("text", ["", "a,c\n", "a\n"])
    def test_other_header_named(self, text):
        got = text.strip()
        with pytest.raises(InputDataError, match=f"^expected header 'a,b', got {got!r}$"):
            checked_header(io.StringIO(text), "a,b")


class TestWriteCsv:
    def test_path_and_open_file_get_the_same_bytes(self, tmp_path):
        rows = [["u", 1, repr(0.1)], ['say "hi"', 2, ""], ["a,b", -3, "nan"]]
        path = tmp_path / "out.csv"
        write_csv(path, "user,n,score", iter(rows))
        out = io.StringIO()
        write_csv(out, "user,n,score", rows)
        expected = 'user,n,score\nu,1,0.1\n"say ""hi""",2,\n"a,b",-3,nan\n'
        assert path.read_bytes() == expected.encode() and out.getvalue() == expected
        assert not out.closed

    def test_header_only_for_no_rows(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, "a,b", [])
        assert path.read_bytes() == b"a,b\n"


_POST = '{"id": "p", "author_id": "u", "timestamp": 0, "text": "x"}'
_FEATURES = ",".join(["0.5"] * 11)

# loader, header line (None: no header), a good line, a line that is bad
# after the good one, and the message it gets.
LOADERS = {
    "interactions": (load_interactions, socialgraph.INTERACTION_HEADER, "a,b,mention,1",
                     "a,b,like,1", "unknown interaction kind 'like'"),
    "followers": (load_follower_edges, "u,v", "a,b", "a,", "expected two non-empty fields"),
    "posts": (load_posts, None, _POST, "[1]", "expected a JSON object"),
    "ratings": (load_ratings_csv, "item_id,rater_id,label", "i,r,PO", "i,r,NG",
                "duplicate rating for item 'i' by 'r'"),
    "training": (load_training_csv, training_csv_header(), f"{_FEATURES},increased",
                 f"{_FEATURES},sideways", "unknown change label 'sideways'"),
    "config": (load_config_file, None, "epochs = 1", "epochs = 2", "duplicate key 'epochs'"),
    "store": (load_embedding_store, "d=1", "a\t1.0", "q\tx", "non-numeric embedding value"),
}


@pytest.mark.parametrize("blanks", [0, 1, 3])
@pytest.mark.parametrize("name", sorted(LOADERS))
def test_bad_line_named_by_its_number_in_the_file(tmp_path, name, blanks):
    loader, header, good, bad, message = LOADERS[name]
    pad = ["", "   ", "\t"][:blanks]
    if name == "config":
        pad = ["# settings"] + pad
    lines = ([] if header is None else [header]) + pad + [good] + pad + [bad, good]
    path = tmp_path / "input.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    # Chunks of two lines put the bad interaction or store row in a later
    # chunk.
    with mock.patch.object(socialgraph, "_CHUNK_LINES", 2), \
            mock.patch.object(embed, "_CHUNK_LINES", 2), \
            pytest.raises(InputDataError) as err:
        loader(path)
    assert str(err.value) == f"line {len(lines) - 1}: {message}"
