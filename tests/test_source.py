"""``model.TextSource``: a file's text read in pieces gives what the file's
text read whole gives, to both readers, wherever the pieces are cut."""

import io
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from sppam import ParseError, arff, csvio, model, parse_arff, parse_csv
from sppam.model import TextSource

BOM = b"\xef\xbb\xbf"
_LINE_ENDS = ["\n", "\r\n", "\r"]

_ARFF_HEADER = [
    "@RELATION 'r é'", "@ATTRIBUTE n numeric", "@ATTRIBUTE m {x, 'ü v', 日本}",
    "@ATTRIBUTE s string", "@DATA",
]
_ARFF_CELLS = [
    ["1", " 2.5 ", "-0.0", "?"],
    ["x", "'ü v'", "日本", "?"],
    ["é", "'a, b'", "naïve", "\U0001f30a", "€", "?"],
]
_ARFF_BAD_CELLS = ["zz", "١", "ü", "'open"]
_CSV_HEADERS = ["a", "é", " ü ", '"n,日"']
_CSV_CELLS = ["", "?", "1", " 2.5 ", "-0.0", "x", "é", "日本", "\U0001f30a", '"a, ü"', "١"]
_CSV_BAD_CELLS = ['"x\ry"', '"p\r\nq"']  # read as "x\ny" and "p\nq": no writer can write them


def _join(draw, lines) -> str:
    """``lines``, each ended by a line end drawn from ``_LINE_ENDS``, the
    last perhaps by none."""
    ends = [draw(st.sampled_from(_LINE_ENDS)) for _ in lines]
    if ends and draw(st.booleans()):
        ends[-1] = ""
    return "".join(map("".join, zip(lines, ends)))


@st.composite
def _arff_texts(draw):
    """ARFF text with non-ASCII cells; a tenth of the lines are blank, a
    comment or too short, a tenth hold a bad cell."""
    lines = list(_ARFF_HEADER)
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", "% é note", "1,x"])))
            continue
        cells = [draw(st.sampled_from(pool)) for pool in _ARFF_CELLS]
        if kind == 1:
            cells[draw(st.integers(0, 2))] = draw(st.sampled_from(_ARFF_BAD_CELLS))
        lines.append(",".join(cells))
    return _join(draw, lines)


@st.composite
def _csv_texts(draw):
    """CSV text with non-ASCII names and cells; a twentieth of the rows are
    too wide, and a quarter of the texts may hold a quoted line break."""
    names = draw(st.lists(st.sampled_from(_CSV_HEADERS), min_size=1, max_size=3, unique=True))
    cells = st.sampled_from(_CSV_CELLS)
    if draw(st.integers(0, 3)) == 0:
        cells = st.one_of(cells, st.sampled_from(_CSV_BAD_CELLS))
    lines = [",".join(names)]
    for _ in range(draw(st.integers(0, 10))):
        width = len(names) + (draw(st.integers(0, 19)) == 0)
        lines.append(",".join(draw(st.lists(cells, min_size=width, max_size=width))))
    return _join(draw, lines)


def _outcome(parse, text):
    try:
        dataset = parse(text)
    except ParseError as exc:
        return ("error", exc.line, str(exc))
    return ("dataset", dataset, repr(dataset.records))  # repr tells -0.0 from 0.0


def _through_pieces(parse, data: bytes, piece_bytes: int, chunk_chars: int):
    """The outcomes of ``parse`` on ``data`` written to a file: read whole
    as ``open(..., encoding="utf-8-sig")`` reads it, and through a
    ``TextSource`` that reads ``piece_bytes`` at a time into line chunks of
    ``chunk_chars``."""
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "in"
        path.write_bytes(data)
        with open(path, encoding="utf-8-sig") as file:
            whole = _outcome(parse, file.read())
        with mock.patch.object(model, "READ_PIECE_BYTES", piece_bytes), mock.patch.object(
            model, "READ_CHUNK_CHARS", chunk_chars
        ):
            return whole, _outcome(parse, TextSource(path))


_PIECES = st.integers(1, 64)
_CHUNKS = st.sampled_from([1, 5, model.READ_CHUNK_CHARS])


@settings(max_examples=400)
@given(_arff_texts(), st.booleans(), _PIECES, _CHUNKS)
# a \r\n cut between its \r and its \n, a late bad cell
@example("\r\n".join(_ARFF_HEADER) + "\r\n1,x,é\r\n2,y,€\r\n", False, 17, 1)
@example("\r".join(_ARFF_HEADER) + "\r1,x,é\rzz,x,€\r", True, 2, 5)
def test_arff_read_in_pieces_reads_as_the_whole_text(text, bom, piece_bytes, chunk_chars):
    data = BOM * bom + text.encode("utf-8")
    whole, pieces = _through_pieces(parse_arff, data, piece_bytes, chunk_chars)
    assert pieces == whole


@settings(max_examples=400)
@given(_csv_texts(), st.booleans(), _PIECES, _CHUNKS)
# a quoted \r, read as \n, cut from the cell's rest; then a BOM cut in two
@example('a,b\n1,"x\ry"\n', False, 7, 1)
@example("é,b\r\n1,ü\r\n2,日本\r\n", True, 1, 1)
def test_csv_read_in_pieces_reads_as_the_whole_text(text, bom, piece_bytes, chunk_chars):
    data = BOM * bom + text.encode("utf-8")
    whole, pieces = _through_pieces(parse_csv, data, piece_bytes, chunk_chars)
    assert pieces == whole


def _whole_file_error(data: bytes):
    """The (line, message) that decoding ``data`` whole gives for its first
    byte that is not UTF-8, or None: one more than the line feeds before
    that byte, after any byte-order mark."""
    try:
        data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        return line, f"input is not UTF-8: byte 0x{exc.object[exc.start]:02x} cannot be decoded"
    return None


@settings(max_examples=400)
@given(
    _csv_texts(), st.booleans(), st.sampled_from([b"\xff", b"\xe9", b"\xe2\x82", b"\xed\xa0\x80"]),
    st.integers(0, 10_000), _PIECES,
)
@example("a\n\né\n", True, b"\xe9", 0, 3)  # the bad byte right after the mark
@example("a\n\né\n", True, b"\xe2\x82", 10_000, 3)  # an unfinished character at the end
def test_a_bad_byte_is_named_with_its_line_wherever_the_pieces_cut(
    text, bom, bad, at, piece_bytes
):
    body = text.encode("utf-8")
    at = at % (len(body) + 1)
    data = BOM * bom + body[:at] + bad + body[at:]
    expected = _whole_file_error(data)
    assert expected is not None
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "in.csv"
        path.write_bytes(data)
        with mock.patch.object(model, "READ_PIECE_BYTES", piece_bytes):
            with pytest.raises(ParseError) as info:
                TextSource(path)
    assert (info.value.line, info.value.args[1]) == expected


@pytest.mark.parametrize("text", ["", "a\r\nb\rc", "é,\U0001f30a\r", "x" * 100])
def test_len_and_isascii_answer_for_the_text(tmp_path, text):
    path = tmp_path / "in.csv"
    path.write_bytes(BOM + text.encode("utf-8"))
    with mock.patch.object(model, "READ_PIECE_BYTES", 3):
        source = TextSource(path)
        read = "".join(source)
    assert read == path.read_text(encoding="utf-8-sig")
    assert (len(source), source.isascii()) == (len(read), read.isascii())
    assert "".join(source) == read  # each iteration reads the file again


@settings(max_examples=300)
@given(st.lists(st.text(alphabet="ab\n\r\x85 ", max_size=6), max_size=8), st.integers(1, 8))
def test_line_chunks_cut_any_pieces_at_whole_lines(pieces, chunk_chars):
    """Pieces of a text cut anywhere, between a \\r and its \\n too, give
    each reader the lines of the joined text."""
    text = "".join(pieces)
    with mock.patch.object(model, "READ_CHUNK_CHARS", chunk_chars):
        assert list(arff._lines(pieces)) == text.splitlines()
        assert list(csvio._lines(pieces)) == list(io.StringIO(text))
