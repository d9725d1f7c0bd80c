import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import SURF_TWO_DAYS
from helpers import (
    ZERO_SIGNS,
    decimal_format_number,
    oracle_parse_arff,
    oracle_scan_cells,
    oracle_write_arff,
    random_plain_dataset,
    write_datasets,
    write_outcome,
)
from sppam import AttributeSpec, Dataset, ParseError, SppamError, parse_arff, parse_csv, write_arff
from sppam import arff, model
from sppam.arff import _column_cells, _raw_cells
from sppam.model import format_number


def test_parses_sample_schema(surf_dataset):
    kinds = [(a.name, a.kind) for a in surf_dataset.schema]
    assert kinds == [
        ("Date", "string"),
        ("Wind_Knots", "numeric"),
        ("Wind_Dir", "nominal"),
        ("Surf", "nominal"),
    ]
    assert surf_dataset.attribute("Wind_Dir").values == (
        "N", "NE", "E", "SE", "S", "SW", "W", "NW",
    )
    assert surf_dataset.attribute("Surf").values == ("0", "1")
    assert len(surf_dataset.records) == 8
    assert surf_dataset.relation_name == "unnamed"


def test_record_order_and_values(surf_dataset):
    assert surf_dataset.records[0] == ("18-11-2010", 15.6, 3, 0)
    assert surf_dataset.records[7] == ("19-11-2010", 15.6, 2, 1)


def test_header_only_file():
    dataset = parse_arff("@ATTRIBUTE a numeric\n@DATA\n")
    assert len(dataset.records) == 0
    assert dataset.schema[0].name == "a"


def test_missing_value_roundtrip():
    text = SURF_TWO_DAYS + "18-11-2010,?,SE,0\n"
    dataset = parse_arff(text)
    assert len(dataset.records) == 9
    assert dataset.records[8][1] is None
    again = parse_arff(write_arff(dataset))
    assert again == dataset


def test_relation_line_roundtrip():
    text = "@RELATION rides\n@ATTRIBUTE a numeric\n@DATA\n1\n"
    dataset = parse_arff(text)
    assert dataset.relation_name == "rides"
    assert parse_arff(write_arff(dataset)) == dataset


def test_keywords_case_insensitive_and_comments():
    text = "% comment\n@attribute a NUMERIC\n% more\n@data\n1.5\n"
    dataset = parse_arff(text)
    assert dataset.records == ((1.5,),)


def test_quoted_cells_keep_commas_and_spaces():
    text = "@ATTRIBUTE name string\n@ATTRIBUTE v numeric\n@DATA\n'a, b',1\n\"c d\" , 2\n"
    dataset = parse_arff(text)
    assert dataset.records[0][0] == "a, b"
    assert dataset.records[1] == ("c d", 2.0)


def test_quoted_question_mark_is_literal():
    text = "@ATTRIBUTE name string\n@DATA\n'?'\n?\n"
    dataset = parse_arff(text)
    assert dataset.records[0][0] == "?"
    assert dataset.records[1][0] is None


@pytest.mark.parametrize(
    "text,bad_line",
    [
        ("@ATTRIBUTE broken\n@DATA\n", 1),
        ("@ATTRIBUTE a numeric\n@DATA\n1,2\n", 3),
        ("@ATTRIBUTE a {x, y}\n@DATA\nz\n", 3),
        ("@ATTRIBUTE a numeric\n@DATA\nhello\n", 3),
        ("@ATTRIBUTE a numeric\n@ATTRIBUTE a numeric\n@DATA\n", 2),
        ("@ATTRIBUTE a wibble\n@DATA\n", 1),
        ("@ATTRIBUTE a numeric\n@DATA\nnan\n", 3),
    ],
)
def test_errors_carry_line_numbers(text, bad_line):
    with pytest.raises(ParseError) as info:
        parse_arff(text)
    assert info.value.line == bad_line
    assert f"line {bad_line}" in str(info.value)


@pytest.mark.parametrize("space", ["\xa0", "\u3000", "\x1f"])
def test_unicode_whitespace_round_trips(space):
    texts = (f"{space}x", f"x{space}", f"x{space}y")
    dataset = Dataset(f"r{space}", (
        AttributeSpec.numeric(f"a{space}b"),
        AttributeSpec.numeric(f"{space}n{space}"),
        AttributeSpec.nominal(f"m{space}", texts),
        AttributeSpec.string("s"),
    ), tuple((1.0, None, i, text) for i, text in enumerate(texts)))
    assert parse_arff(write_arff(dataset)) == dataset
    from_csv = parse_csv(f"a{space}b,c\n1,x{space}y\n")
    assert parse_arff(write_arff(from_csv)) == from_csv


def test_line_breaks_are_where_splitlines_breaks():
    assert arff.LINE_BREAKS == {
        c for c in map(chr, range(0x110000)) if len(f"a{c}b".splitlines()) > 1
    }


@pytest.mark.parametrize("brk", list("\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"))
def test_writer_refuses_every_line_break(brk):
    for dataset in (
        Dataset("unnamed", (AttributeSpec.string("s"),), ((f"x{brk}y",),)),
        Dataset("unnamed", (AttributeSpec.numeric(f"a{brk}b"),), ()),
        Dataset("unnamed", (AttributeSpec.nominal("m", ("x", f"y{brk}")),), ()),
    ):
        with pytest.raises(SppamError, match="cannot write a value containing a line break"):
            write_arff(dataset)


def test_writer_refuses_both_quote_characters():
    for dataset in (
        Dataset("unnamed", (AttributeSpec.string("s"),), (("it's \"x\"",),)),
        Dataset("unnamed", (AttributeSpec.numeric("a'\"b"),), ()),
        Dataset("unnamed", (AttributeSpec.nominal("m", ("x", "y'\"")),), ()),
    ):
        with pytest.raises(SppamError, match="cannot write a value containing both quote characters"):
            write_arff(dataset)
    # a line break is named first
    with pytest.raises(SppamError, match="cannot write a value containing a line break"):
        write_arff(Dataset("unnamed", (AttributeSpec.string("s"),), (("'\n\"",),)))


def test_write_empty_dataset():
    dataset = Dataset("unnamed", (AttributeSpec.numeric("a"),), ())
    assert write_arff(dataset) == "@ATTRIBUTE a NUMERIC\n@DATA\n"


def test_sample_roundtrip_identity(surf_dataset):
    assert parse_arff(write_arff(surf_dataset)) == surf_dataset


def test_decimals_rounding_is_half_up():
    dataset = Dataset(
        "unnamed",
        (AttributeSpec.numeric("a"),),
        ((14.125,), (8.75,), (0.0,), (2.0,), (-1.005,)),
    )
    text = write_arff(dataset, decimals=2)
    assert text.splitlines()[2:] == ["14.13", "8.75", "0.0", "2.0", "-1.01"]


def test_format_number_shortest_form():
    assert format_number(0.1) == "0.1"
    assert format_number(14.125) == "14.125"
    assert float(format_number(1 / 3)) == 1 / 3


def test_random_roundtrip_identity():
    rng = random.Random(20)
    for _ in range(200):
        dataset = random_plain_dataset(rng)
        assert parse_arff(write_arff(dataset)) == dataset


def test_underscore_numeric_is_rejected():
    with pytest.raises(ParseError) as info:
        parse_arff("@ATTRIBUTE a numeric\n@DATA\n1\n1_000\n")
    assert info.value.line == 4
    assert "unparseable numeric value '1_000'" in str(info.value)


@pytest.mark.parametrize("digits", ["\u0661\u0662\u0663", "\uff11\uff12", "1\u0662.5"])
def test_non_ascii_digits_are_rejected(digits):
    # float() reads Arabic-Indic and full-width digits; the format does not
    text = f"@ATTRIBUTE a numeric\n@ATTRIBUTE s string\n@DATA\n1,\u00e9\n{digits},x\n"
    with pytest.raises(ParseError) as info:
        parse_arff(text)
    assert info.value.line == 5
    assert f"unparseable numeric value {digits!r}" in str(info.value)


def test_non_ascii_text_cells_still_parse():
    text = "@ATTRIBUTE a numeric\n@ATTRIBUTE s string\n@DATA\n1.5,\u0661\u0662\n"
    assert parse_arff(text).records == ((1.5, "\u0661\u0662"),)


def test_sparse_row_is_rejected_as_sparse():
    text = "@ATTRIBUTE a numeric\n@ATTRIBUTE b string\n@DATA\n{0 1, 1 a}\n"
    with pytest.raises(ParseError) as info:
        parse_arff(text)
    assert info.value.line == 4
    assert "sparse data rows" in str(info.value)


@pytest.mark.parametrize(
    "x,decimals,expected",
    [
        (14.125, 2, "14.13"),
        (2.675, 2, "2.68"),
        (0.005, 2, "0.01"),
        (-0.125, 2, "-0.13"),
        (-0.0, 2, "-0.0"),
        (-0.001, 2, "-0.0"),
        (9.995, 2, "10.0"),
        (2.5, 0, "3.0"),
        (1e-07, 7, "0.0000001"),
        (1.5e-07, 7, "0.0000002"),
        (1e16, 2, "10000000000000000.0"),
        (5e-324, 10, "0.0"),
        (1e30, 2, "1" + "0" * 30 + ".0"),
        (1.7976931348623157e308, 2, "17976931348623157" + "0" * 292 + ".0"),
    ],
)
def test_format_number_pinned_cases(x, decimals, expected):
    assert format_number(x, decimals) == expected
    assert decimal_format_number(x, decimals) == expected


@settings(max_examples=2000)
@given(st.floats(allow_nan=False, allow_infinity=False), st.integers(0, 10))
@example(14.125, 2)
@example(2.675, 2)
@example(0.005, 2)
@example(-0.125, 2)
@example(-0.0, 0)
@example(-0.001, 2)
@example(5e-324, 10)
@example(1.7976931348623157e308, 10)
def test_format_number_matches_decimal_oracle(x, decimals):
    assert format_number(x, decimals) == decimal_format_number(x, decimals)


@pytest.mark.parametrize("x", [float("inf"), float("-inf"), float("nan")])
def test_format_number_rejects_non_finite(x):
    with pytest.raises(ValueError):
        format_number(x, 2)


def test_format_number_rejects_negative_decimals():
    with pytest.raises(ValueError, match="decimals"):
        format_number(123.0, -1)


@given(st.text(st.one_of(st.sampled_from(" ,?'\"x\t"), st.characters()), max_size=40))
@example(" ? , a ,,?")
@example("1.5,  2 ,\t?\t")
@example("'a, b' ,\"?\", 'it''s',x'y'z, ?")
@example("1,'open")
def test_raw_cells_match_the_scanner_oracle(line):
    string = AttributeSpec.string("s")
    try:
        expected = oracle_scan_cells(line, 1)
    except ParseError:
        with pytest.raises(ValueError, match="unterminated quoted value"):
            _raw_cells(line)
    else:
        texts = [raw.strip() for raw in _raw_cells(line)]
        assert [None if t == "?" else _column_cells(string, [t])[0] for t in texts] == expected


# ARFF-ish text: header keywords, cell values and separators mixed with noise
_FUZZ_TEXT = st.lists(
    st.one_of(
        st.sampled_from([
            "@RELATION r", "@ATTRIBUTE a numeric", "@ATTRIBUTE b {x, y}", "@ATTRIBUTE c string",
            "@ATTRIBUTE 'q r' real", "@ATTRIBUTE d {", "@DATA", "@data", "%", "{0 1}", "1",
            "1.5", "1_0", "1e400", "nan", "x", "?", "'?'", ",", "'", '"', "{", "}", " ", "\t",
            "\r", "\n",
        ]),
        st.text(max_size=3),
    ),
    max_size=30,
).map("".join)


@settings(max_examples=500)
@given(st.one_of(
    st.text(max_size=60),
    _FUZZ_TEXT,
    _FUZZ_TEXT.map(lambda body: "@ATTRIBUTE a numeric\n@ATTRIBUTE b {x, y}\n@DATA\n" + body),
))
def test_parse_arff_raises_only_parse_error(text):
    try:
        parse_arff(text)
    except ParseError:
        pass


# raw data cells: texts that parse alike, the missing marker quoted and
# bare, numbers float() reads but the format does not, and quoted cells
_ARFF_CELLS = [
    "1", " 1 ", "1.0", "1.00", "0.0", "-0.0", " -0.0", "2.5", "1e-5", "?", " ? ", "'?'", '"?"',
    "x", " x ", "y", "'a b'", "'x'", '" 1 "', "''", "", "z", "1_000", "nan", "inf", "1e400",
    "\u0661\u0662", "'it''s'", "'open",
]
_ARFF_HEADER = (
    "@RELATION r\n@ATTRIBUTE n numeric\n@ATTRIBUTE m {x, y, 'a b'}\n"
    "@ATTRIBUTE s string\n@ATTRIBUTE k numeric\n@DATA\n"
)
_ARFF_WIDTH = 4
_ARFF_GOOD_NUMBERS = [
    "1", " 1 ", "1.0", "1.00", "0.0", "-0.0", " -0.0", "2.5", "1e-5", "?", '" 1 "',
]
_ARFF_GOOD_CELLS = [
    _ARFF_GOOD_NUMBERS,
    ["x", " x ", "y", "'a b'", "'x'", "?", " ? "],
    [cell for cell in _ARFF_CELLS if cell != "'open"],
    _ARFF_GOOD_NUMBERS,
]


@st.composite
def _arff_texts(draw):
    """ARFF text over a fixed four-attribute header: data lines from the cell
    pool, with blank, comment, sparse and wrong-width lines mixed in."""
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 19))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", "  ", "% note", "  % indented, note"])))
        elif kind == 1:
            lines.append(draw(st.sampled_from(["{0 1}", " {1 x}"])))
        elif kind == 2:
            width = draw(st.sampled_from([_ARFF_WIDTH - 1, _ARFF_WIDTH + 1]))
            cells = st.lists(st.sampled_from(_ARFF_CELLS), min_size=width, max_size=width)
            lines.append(",".join(draw(cells)))
        else:
            # mostly cells each column accepts, so that many texts parse
            lines.append(",".join(
                draw(st.sampled_from(_ARFF_CELLS if draw(st.integers(0, 39)) == 0 else good))
                for good in _ARFF_GOOD_CELLS
            ))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return _ARFF_HEADER.replace("\n", end) + end.join(lines) + draw(st.sampled_from([end, ""]))


def _arff_parse_outcome(parse, text):
    try:
        dataset = parse(text)
    except ParseError as exc:
        return ("error", exc.line, str(exc))
    # repr tells -0.0 from 0.0, which == does not
    return ("dataset", dataset, repr(dataset.records))


_CHUNK_CHARS = model.READ_CHUNK_CHARS
# a late chunk, for chunks of 64 characters: 40 short lines, then a bad cell
_LATE_LINES = "".join(f"{i},x,a,{i}\n" for i in range(40))


@settings(max_examples=1000)
@given(_arff_texts(), st.sampled_from([1, 8, 12, 4096]), st.integers(1, 64))
# a quoted '?' is the text "?", a bare ? is missing
@example(_ARFF_HEADER + "1,x,'?',2\n1,x,?,2\n?,?,\"?\",?\n", 8, _CHUNK_CHARS)
# a quoted line inside an otherwise quote-free block
@example(_ARFF_HEADER + "1,x,a,2\n1,'a b',' q ',2\n3,y,b,4\n", 12, _CHUNK_CHARS)
# the bad cell of the earlier line is further right: line order wins
@example(_ARFF_HEADER + "1,x,a,2\n2,y,b,zz\nzz,x,c,3\n", 12, _CHUNK_CHARS)
@example(_ARFF_HEADER + "1,x,a,2\n2,y,b,zz\nzz,x,c,3\n", 4096, _CHUNK_CHARS)
# a width error before a conversion error, in the same block
@example(_ARFF_HEADER + "1,x,a\nzz,x,a,2\n", 4096, _CHUNK_CHARS)
# comment and blank lines inside @DATA count toward line numbers
@example(_ARFF_HEADER + "1,x,a,2\n\n% note\n   \n2,w,b,3\n", 8, _CHUNK_CHARS)
@example(_ARFF_HEADER + "1,x,a,2\n\n% note\n   \n2,w,b,3\n", 4096, _CHUNK_CHARS)
# chunks of one line each: every line ends a chunk, blank and % lines too
@example(_ARFF_HEADER + "1,x,a,2\n\n% note\n   \n2,w,zz,b\n", 8, 1)
# a \r\n at each chunk end stays one line break
@example((_ARFF_HEADER + "1,x,a,2\n\n2,w,b,3\n3,y,c,zz\n").replace("\n", "\r\n"), 4096, 1)
@example((_ARFF_HEADER + "1,x,a,2\n\n2,w,b,3\n3,y,c,zz").replace("\n", "\r\n"), 8, 17)
# \x85 and \u2028 end lines that no line feed ends, just before a chunk's end
@example(_ARFF_HEADER + "1,x,a,2\x85\n2,y,b,3\u2028\n\x853,y,c,zz\n", 4096, 1)
@example(_ARFF_HEADER + "1,x,a,2\x852,y,b,3\u20283,y,c,4\n% a\u2028b\n5,x,zz,c\n", 8, 9)
# a bad cell in a late chunk keeps its line number
@example(_ARFF_HEADER + _LATE_LINES + "\n% note\n40,x,a,zz\n41,y,b,1\n", 8, 64)
@example(_ARFF_HEADER + _LATE_LINES + "\n% note\n40,x,a,zz\n41,y,b,1\n", 4096, 64)
def test_parse_arff_matches_row_at_a_time_oracle(text, block_cells, chunk_chars):
    # blocks of block_cells // 4 lines: 1, 2, 3 or the default; chunks of
    # one line or a few lines, or the default
    with mock.patch.object(arff, "READ_BLOCK_CELLS", block_cells), mock.patch.object(
        model, "READ_CHUNK_CHARS", chunk_chars
    ):
        assert _arff_parse_outcome(parse_arff, text) == _arff_parse_outcome(oracle_parse_arff, text)


def test_parse_arff_matches_oracle_over_many_full_blocks():
    rng = random.Random(6)
    good = [c for c in _ARFF_CELLS if c not in ("", "z", "1_000", "nan", "inf", "1e400", "'open")]
    good = [c for c in good if "\u0661" not in c]
    nominal = ["x", "y", " ? ", "'a b'"]
    lines = []
    for _ in range(3 * arff.READ_BLOCK_CELLS // _ARFF_WIDTH + 7):
        numeric = [rng.choice(["1", " 2.5", "-0.0", "0.0", "?", f"{rng.random():.3f}"]) for _ in "nk"]
        lines.append(f"{numeric[0]},{rng.choice(nominal)},{rng.choice(good)},{numeric[1]}")
        if rng.random() < 0.01:
            lines.append(rng.choice(["", "% note"]))
    text = _ARFF_HEADER + "\n".join(lines) + "\n"
    assert _arff_parse_outcome(parse_arff, text) == _arff_parse_outcome(oracle_parse_arff, text)
    # two bad cells in one column of the last block: the earlier line's is named
    bad = text + "1,x,a,1_000\n2,y,b,nan\n"
    outcome = _arff_parse_outcome(parse_arff, bad)
    assert outcome == _arff_parse_outcome(oracle_parse_arff, bad)
    assert outcome[2].endswith("unparseable numeric value '1_000' for attribute 'k'")


@settings(max_examples=300)
@given(st.text(alphabet="ab\n\r\x85\u2028", max_size=40), st.integers(1, 8))
def test_lines_are_the_lines_of_splitlines(text, chunk_chars):
    with mock.patch.object(model, "READ_CHUNK_CHARS", chunk_chars):
        assert list(arff._lines(text)) == text.splitlines()


@pytest.mark.parametrize("line_end", ["\n", "\r\n", "\r", "\u2028"])
def test_parse_arff_holds_no_list_of_its_lines(line_end):
    """Whatever line break ends its lines, the text is split one chunk at a
    time, never into a list of every line."""
    rng = random.Random(7)
    lines = [
        "@ATTRIBUTE Site STRING", "@ATTRIBUTE Hour NUMERIC", "@ATTRIBUTE Wave NUMERIC",
        "@ATTRIBUTE Dir {N, E, S, W}", "@ATTRIBUTE Sets {0, 1}", "@DATA",
    ]
    for r in range(20_000):
        wave = "?" if rng.random() < 0.02 else repr(round(rng.gauss(1.8, 0.7), 2))
        lines.append(f"site-{r % 150:04d},{r % 4 * 6},{wave},{rng.choice('NESW')},{r % 2}")
    text = line_end.join(lines) + line_end
    del lines
    tracemalloc.start()
    try:
        dataset = parse_arff(text)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(dataset.records) == 20_000
    # a list of every line of the text peaks at about 4.4 times the input
    assert peak - held < 2 * len(text)


def test_a_bad_block_raises_before_the_next_block_is_read():
    pulled = []

    def blocks():
        for block in (["1", " 2.5", "zz"], ["3"]):
            pulled.append(block)
            yield block

    with pytest.raises(ValueError, match="unparseable numeric value 'zz'"):
        arff._records(blocks(), [AttributeSpec.numeric("a")])
    assert pulled == [["1", " 2.5", "zz"]]


def test_equal_texts_share_one_cell_across_blocks():
    text = "@ATTRIBUTE a numeric\n@DATA\n" + "1.5\n" * (arff.READ_BLOCK_CELLS + 3)
    column = parse_arff(text).column("a")
    assert column[0] is column[-1]


@settings(max_examples=1000)
@given(write_datasets(), st.sampled_from([None, 0, 2, 3]), st.sampled_from([1, 5, 9, 20480]))
@example(ZERO_SIGNS, None, 20480)
@example(ZERO_SIGNS, 2, 20480)
@example(ZERO_SIGNS, None, 2)
@example(Dataset("unnamed", (), ((), (), ())), None, 2)
# the first unwritable string in row-major order wins over an earlier row's
# bad cell of a later column
@example(
    Dataset("unnamed", (AttributeSpec.string("s"), AttributeSpec.string("t")), (
        ("a", "it's \"x\""), ("two\nlines", "b"),
    )),
    None,
    20480,
)
def test_write_arff_matches_row_at_a_time_oracle(dataset, decimals, block_cells):
    with mock.patch.object(model, "WRITE_BLOCK_CELLS", block_cells):
        assert write_outcome(write_arff, dataset, decimals) == write_outcome(
            oracle_write_arff, dataset, decimals
        )


@pytest.mark.parametrize("decimals", [None, 2])
def test_write_arff_keeps_the_sign_of_zero(decimals):
    text = write_arff(ZERO_SIGNS, decimals)
    assert text.splitlines()[3:] == ["0.0,-0.0", "-0.0,1.0", "0.0,0.0", "?,-0.0", "-0.0,0.0"]
    assert repr(parse_arff(text).records) == repr(ZERO_SIGNS.records)
