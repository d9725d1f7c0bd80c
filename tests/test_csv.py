import csv
import io
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import SURF_TWO_DAYS, SURF_TWO_DAYS_CSV
from unittest import mock

from helpers import (
    ZERO_SIGNS,
    cell_text,
    oracle_parse_csv,
    oracle_write_csv,
    write_datasets,
    write_outcome,
)
from sppam import (
    Dataset,
    ParseError,
    TransformConfig,
    csvio,
    model,
    parse_arff,
    parse_csv,
    transform,
    write_arff,
    write_csv,
)


def cells_as_text(dataset):
    return [
        [cell_text(attr, cell) for attr, cell in zip(dataset.schema, record)]
        for record in dataset.records
    ]


def test_infers_numeric_column():
    dataset = parse_csv("x\n1\n2\n3.5\n")
    assert dataset.schema[0].kind == "numeric"
    assert dataset.column("x") == [1.0, 2.0, 3.5]


def test_mixed_column_becomes_nominal_first_seen_order():
    dataset = parse_csv("c\n1\n2\nx\n2\n")
    attr = dataset.schema[0]
    assert attr.kind == "nominal"
    assert attr.values == ("1", "2", "x")
    assert dataset.column("c") == [0, 1, 2, 1]


def test_underscore_column_becomes_nominal():
    dataset = parse_csv("a,b\n1_000,1\n2,2\n")
    attr = dataset.attribute("a")
    assert attr.kind == "nominal"
    assert attr.values == ("1_000", "2")
    assert dataset.column("a") == [0, 1]
    assert dataset.attribute("b").kind == "numeric"


def test_non_ascii_digit_column_becomes_nominal():
    dataset = parse_csv("a,b\n\u0661\u0662,1\n3,\u00e9\n")
    attr = dataset.attribute("a")
    assert attr.kind == "nominal"
    assert attr.values == ("\u0661\u0662", "3")
    assert dataset.attribute("b").kind == "nominal"


def test_non_ascii_text_keeps_ascii_numeric_columns():
    dataset = parse_csv("a,b\n12,\u00e9\n3.5,x\n")
    assert dataset.attribute("a").kind == "numeric"
    assert dataset.column("a") == [12.0, 3.5]


def test_missing_markers():
    dataset = parse_csv("a,b\n1,?\n,x\n")
    assert dataset.records[0] == (1.0, None)
    assert dataset.records[1] == (None, 0)


def test_forced_columns():
    dataset = parse_csv(
        "day,score\n01-01,5\n01-02,7\n",
        string_columns=("day",),
        nominal_columns=("score",),
    )
    assert dataset.attribute("day").kind == "string"
    assert dataset.attribute("score").kind == "nominal"
    assert dataset.attribute("score").values == ("5", "7")


@pytest.mark.parametrize(
    "text,message",
    [
        ("a,b\n1\n", "row has 1 values"),
        ("a,,c\n1,2,3\n", "empty header name"),
        ("a,b,a\n1,2,3\n", "duplicate header names"),
        ("", "empty CSV input"),
        ("a,b\n1,\"it's \"\"x\"\"\"\n", "line 2: column 'b': a value cannot hold both quote characters"),
        ("a,\"b'\"\"\"\n1,2\n", "line 1: column 'b\\'\"': a value cannot hold both quote characters"),
        ("a,b\n1,\"two\nlines\"\n", "line 3: column 'b': a value cannot hold a line break"),
        # a line break is named first, as the ARFF writer names it
        ("a,b\n1,\"it's\n\"\"x\"\"\"\n", "line 3: column 'b': a value cannot hold a line break"),
        ("a,\"b\rc\"\n1,2\n", "line 1: column 'b\\rc': a value cannot hold a line break"),
        ("a\n1\n" + "x" * 131073 + "\n", "line 3: malformed CSV: field larger than field limit"),
    ],
)
def test_errors(text, message):
    with pytest.raises(ParseError) as info:
        parse_csv(text)
    assert message in str(info.value)


@pytest.mark.parametrize("brk", list("\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"))
def test_line_breaks_that_need_no_quotes_are_rejected(brk):
    # the csv module reads these unquoted; parse_arff would end a line there
    with pytest.raises(ParseError, match="line 3: column 'b': a value cannot hold a line break"):
        parse_csv(f"a,b\n1,x\n2,x{brk}y\n")
    with pytest.raises(ParseError, match="line 1: column 'b.*c': a value cannot hold a line break"):
        parse_csv(f"a,b{brk}c\n1,2\n")
    assert parse_csv(f"a,b\n1,{brk}x{brk}\n").records == ((1.0, 0),)  # stripped away


def test_matches_arff_parse_up_to_nominal_domains():
    from_csv = parse_csv(
        SURF_TWO_DAYS_CSV,
        string_columns=("Date",),
        nominal_columns=("Surf",),
    )
    from_arff = parse_arff(SURF_TWO_DAYS)
    assert from_csv.attribute_names == from_arff.attribute_names
    assert [a.kind for a in from_csv.schema] == [a.kind for a in from_arff.schema]
    # CSV inference only sees observed values, so domains may be narrower
    assert set(from_csv.attribute("Wind_Dir").values) <= set(
        from_arff.attribute("Wind_Dir").values
    )
    assert cells_as_text(from_csv) == cells_as_text(from_arff)


def test_transform_agrees_across_parse_paths():
    config = TransformConfig("Date", "Surf")
    out_csv = transform(
        parse_csv(SURF_TWO_DAYS_CSV, string_columns=("Date",), nominal_columns=("Surf",)),
        config,
    )
    out_arff = transform(parse_arff(SURF_TWO_DAYS), config)

    # every column the CSV path produces must agree with the ARFF path
    arff_names = out_arff.attribute_names
    for name in out_csv.attribute_names:
        assert name in arff_names
        csv_attr = out_csv.attribute(name)
        arff_attr = out_arff.attribute(name)
        csv_col = [cell_text(csv_attr, c) for c in out_csv.column(name)]
        arff_col = [cell_text(arff_attr, c) for c in out_arff.column(name)]
        assert csv_col == arff_col
    # the extra ARFF-only columns are frequencies of never-observed values
    for name in set(arff_names) - set(out_csv.attribute_names):
        assert name.endswith("_PERC")
        assert all(c == 0.0 for c in out_arff.column(name))


def test_write_csv_roundtrips_through_parse():
    dataset = parse_arff(SURF_TWO_DAYS)
    text = write_csv(dataset)
    again = parse_csv(text, string_columns=("Date",), nominal_columns=("Surf",))
    assert cells_as_text(again) == cells_as_text(dataset)


def test_quoted_csv_cells():
    dataset = parse_csv('name,v\n"a, b",1\n')
    assert dataset.records[0] == (0, 1.0)
    assert dataset.attribute("name").values == ("a, b",)


def test_each_quote_character_alone_is_accepted():
    dataset = parse_csv("a,b\n\"it's\",\"say \"\"hi\"\"\"\n")
    assert cells_as_text(dataset) == [["it's", 'say "hi"']]


# CSV-ish text: separators, quotes and line ends mixed with noise
_CSV_FUZZ_TEXT = st.lists(
    st.one_of(
        st.sampled_from(["a", "b", "1", "1.5", "1_0", "nan", "inf", "?", ",", "'", '"', '""',
                         " ", "\r", "\n", "\r\n", "\x00", "\u0661", "\x0b", "\u2028"]),
        st.text(max_size=3),
    ),
    max_size=30,
).map("".join)


@settings(max_examples=500)
@given(st.one_of(
    st.text(max_size=60),
    _CSV_FUZZ_TEXT,
    _CSV_FUZZ_TEXT.map(lambda body: "a,b\n" + body),
))
@example("a\n" + "x" * 131073 + "\n")
@example("a,b\n\"it's \"\"x\"\"\",1\n")
def test_parse_csv_raises_only_parse_error(text):
    """``parse_csv`` raises nothing but ParseError, and what it accepts the
    ARFF writer writes back."""
    try:
        dataset = parse_csv(text)
    except ParseError:
        return
    assert parse_arff(write_arff(dataset)) == dataset


# raw CSV field texts: values that parse alike, missing markers, numbers
# that float() reads but the format does not, and quoted cells
_SAFE_CELLS = [
    "", "?", " ? ", "1", " 1 ", "1.0", "1.00", "0.0", "-0.0", " -0.0", "2.5",
    "1_000", "nan", "inf", "-inf", "1e400", "1e-5", "\u0661\u0662", "x", " x ", "y",
    '"a, b"', '"x"', '" 1 "', '"?"', "it's", '"say ""hi"""',
]
_RISKY_CELLS = [
    '"two\nlines"', '"cr\rhere"', '"it\'s ""x"""', "x\ry", '"open', "x\x0by", '"p\u2028q"',
    '"it\'s\r""x"""',
]
_HEADER_NAMES = ["a", "b", " c ", "d e", "it's", '"n,m"']
_BAD_HEADER_NAMES = ["a", "", '"n\nm"', '"q\'""x"""', "n\x1cm"]


@st.composite
def _csv_texts(draw):
    """CSV text from the cell pools, with blank lines and wrong-width rows,
    and the columns to force to string or to nominal. A quarter of the
    texts have a bad header, risky cells or wrong-width rows each."""
    names = draw(st.lists(st.sampled_from(_HEADER_NAMES), min_size=1, max_size=4, unique=True))
    if draw(st.integers(0, 3)) == 0:
        names[draw(st.integers(0, len(names) - 1))] = draw(st.sampled_from(_BAD_HEADER_NAMES))
    cells = st.sampled_from(_SAFE_CELLS)
    if draw(st.integers(0, 3)) == 0:
        cells = st.one_of(cells, st.sampled_from(_RISKY_CELLS))
    widths = [len(names)]
    if draw(st.integers(0, 3)) == 0:
        widths += [len(names) - 1, len(names) + 1]
    lines = [""] * draw(st.integers(0, 1)) + [",".join(names)]
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 9)) == 0:
            lines.append("")
            continue
        width = draw(st.sampled_from(widths))
        lines.append(",".join(draw(st.lists(cells, min_size=width, max_size=width))))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines) + draw(st.sampled_from([end, ""]))
    header = [name.strip().strip('"') for name in names]
    string_columns = draw(st.lists(st.sampled_from(header), max_size=2))
    nominal_columns = draw(st.lists(st.sampled_from(header), max_size=2))
    return text, tuple(string_columns), tuple(nominal_columns)


def _parse_outcome(parse, text, string_columns, nominal_columns):
    try:
        dataset = parse(text, string_columns, nominal_columns)
    except ParseError as exc:
        return ("error", exc.line, str(exc))
    # repr tells -0.0 from 0.0, which == does not
    return ("dataset", dataset, repr(dataset.records))


_BLOCK_ROWS = csvio.READ_BLOCK_ROWS
_CHUNK_CHARS = model.READ_CHUNK_CHARS


@settings(max_examples=1000)
@given(
    _csv_texts(),
    st.sampled_from([1, 2, 3, _BLOCK_ROWS]),
    st.sampled_from([1, 7, _CHUNK_CHARS]),
)
@example(("a,b\n1,2\n1,2,3\n" + "x" * 131073 + "\n", (), ()), _BLOCK_ROWS, _CHUNK_CHARS)
@example(("a,b\n" + "x" * 131073 + "\n1,2,3\n", (), ()), _BLOCK_ROWS, _CHUNK_CHARS)
@example(("a,b\n1,?\n1.0,\n", (), ("b",)), _BLOCK_ROWS, _CHUNK_CHARS)
@example(("\n\n", (), ()), _BLOCK_ROWS, _CHUNK_CHARS)
@example(("\na,b\n1,2\n", (), ()), _BLOCK_ROWS, _CHUNK_CHARS)
@example(("\r\n\na,,b\n1,2,3\n", (), ()), _BLOCK_ROWS, _CHUNK_CHARS)
# a block of blank rows only is not the end of the input
@example(("a\n\n?\n", (), ()), 1, _CHUNK_CHARS)
# a quoted line break across a chunk edge: the first chunk is 'a,b\n"x\n'
@example(("a,b\n\"x\ny\",1\n", (), ()), _BLOCK_ROWS, 7)
# a wrong-width row and then a csv.Error in the second block: the width error wins
@example(("a,b\n1,2\n3,4\n1,2,3\n" + "x" * 131073 + "\n", (), ()), 2, _CHUNK_CHARS)
@example(("a,b\r\n1,x\r\n\r\n2.5,y\r\n", (), ()), 1, 1)
# quote-free chunks are split at commas, then csv.reader reads from a quoted cell on
@example(("a,b\n1,x\n\n2,y\n3,\"z, w\"\n4,v\n", (), ()), _BLOCK_ROWS, 7)
@example(("a,b\n1,x\n2,y\n3,\"z\nw\"\n4,v\n", (), ()), 2, 7)
# a column numeric in the first two blocks turns non-numeric in the third
@example(("a,b\n1,x\n2,y\nz,w\n3,v\n", (), ()), 1, _CHUNK_CHARS)
@example(("a,b,c\n1,x,5\n2,y,6\nz,w,7\n", ("b",), ("c",)), 1, _CHUNK_CHARS)
@example(("a,b,c\n1,x,5\n2,y,6\nz,w,7\n", ("a",), ()), 1, _CHUNK_CHARS)
@example(("a,b,c\n1,,5\n2,y,?\nz,w,x\n3,1,7\n", (), ("b",)), 1, 7)
# \r\n line ends and a NUL cell after quote-free chunks
@example(("a,b\n1,x\n2,y\n3,z\r\n4,w\r\n", (), ()), 1, 7)
@example(("a,b\n1,x\n2,y\n3,z\rw\n", (), ()), _BLOCK_ROWS, 7)
@example(("a,b\n1,x\n2,y\n3,\0\n", (), ()), _BLOCK_ROWS, 7)
# a field over the csv module's limit after quote-free chunks: the error line is absolute
@example(("a,b\n1,x\n2,y\n\n3," + "x" * 131073 + "\n", (), ()), _BLOCK_ROWS, 7)
@example(("a,b\n1,x\n2,y\n\n3," + "x" * 131073 + "\n", (), ()), 1, _CHUNK_CHARS)
def test_parse_csv_matches_row_at_a_time_oracle(case, block_rows, chunk_chars):
    text, string_columns, nominal_columns = case
    with mock.patch.object(csvio, "READ_BLOCK_ROWS", block_rows), mock.patch.object(
        model, "READ_CHUNK_CHARS", chunk_chars
    ):
        outcome = _parse_outcome(parse_csv, text, string_columns, nominal_columns)
    assert outcome == _parse_outcome(oracle_parse_csv, text, string_columns, nominal_columns)


@pytest.mark.parametrize(
    "text",
    [
        "a,b\n1,xxxxxxxxxxx\n",  # a field over the limit
        "a,b\n12345,12345\n3,4\n",  # a line over the limit, no field over it
        "a,b\n1,2\n\n3,4\n",
    ],
)
def test_a_lowered_field_limit_holds_for_quote_free_text(text):
    limit = csv.field_size_limit(10)
    try:
        outcome = _parse_outcome(parse_csv, text, (), ())
        assert outcome == _parse_outcome(oracle_parse_csv, text, (), ())
    finally:
        csv.field_size_limit(limit)


@pytest.mark.parametrize(
    "text,block_rows,reads",
    [
        ("a,b\n1,x\n2,y\nz,w\n3,v\n", 2, 2),  # numbers in the first block, then text
        ("a,b\n1,x\n2,y\nz,w\n3,v\n", 3, 1),  # text in the first block
        ("a,b\n,x\n?,y\nz,w\n3,v\n", 2, 1),  # no number before the text
        ("a,b\n1,2\n3,4\nz,5\n6,w\n", 1, 3),  # a and b each turn late
    ],
)
def test_a_column_that_turns_nominal_late_costs_one_more_read(
    monkeypatch, text, block_rows, reads
):
    made = []

    class CountingColumns(model.TextColumns):
        def __init__(self, width, missing):
            made.append(width)
            super().__init__(width, missing)

    monkeypatch.setattr(csvio, "TextColumns", CountingColumns)
    monkeypatch.setattr(csvio, "READ_BLOCK_ROWS", block_rows)
    dataset = parse_csv(text)
    assert len(made) == reads
    assert repr(dataset) == repr(oracle_parse_csv(text))


@pytest.mark.parametrize("chunk_chars", [1, 7, _CHUNK_CHARS])
@pytest.mark.parametrize(
    "text", ["", "\n", "a", "a\n", "a\r\nb\rc\n\nd", "ab\ncd\n" * 5, "x" * 20 + "\n"]
)
def test_lines_match_a_stringio_over_the_whole_text(text, chunk_chars):
    with mock.patch.object(model, "READ_CHUNK_CHARS", chunk_chars):
        assert list(csvio._lines(text)) == list(io.StringIO(text))


def test_parse_csv_holds_no_copy_of_the_input_rows():
    rng = random.Random(7)
    lines = ["Site,Hour,Wave,Dir,Sets"]
    for r in range(20_000):
        wave = "" if rng.random() < 0.02 else repr(round(rng.gauss(1.8, 0.7), 2))
        lines.append(f"site-{r % 150:04d},{r % 4 * 6},{wave},{rng.choice('NESW')},{r % 2}")
    text = "\n".join(lines) + "\n"
    tracemalloc.start()
    try:
        dataset = parse_csv(text, ("Site",), ("Sets",))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(dataset.records) == 20_000
    # reading every row into a list before converting peaks at about 17 times the input
    assert peak - held < 8 * len(text)


def test_equal_texts_share_one_cell_and_padding_still_strips():
    dataset = parse_csv("a,b\n1.5,x\n 1.5 ,x \n1.5,?\n")
    assert dataset.column("a") == [1.5, 1.5, 1.5]
    assert dataset.column("b") == [0, 0, None]
    assert dataset.records[0][0] is dataset.records[2][0]


@pytest.mark.parametrize("parse", [parse_csv, oracle_parse_csv])
@pytest.mark.parametrize("text", ["\n", "\n\n", "\r\n\r\n"])
def test_blank_lines_only_are_empty_input(parse, text):
    with pytest.raises(ParseError, match="line 1: empty CSV input"):
        parse(text)


@pytest.mark.parametrize("parse", [parse_csv, oracle_parse_csv])
def test_blank_lines_before_the_header_are_skipped(parse):
    dataset = parse("\na,b\n1,2\n")
    assert dataset.attribute_names == ["a", "b"]
    assert dataset.records == ((1.0, 2.0),)
    with pytest.raises(ParseError, match="line 3: row has 1 values, header has 2 columns"):
        parse("\na,b\n1\n")
    with pytest.raises(ParseError, match="line 3: duplicate header names"):
        parse("\n\na,a\n1,2\n")


@settings(max_examples=500)
@given(write_datasets(), st.sampled_from([None, 0, 2]), st.sampled_from([1, 5, 9, 20480]))
@example(ZERO_SIGNS, None, 20480)
@example(ZERO_SIGNS, 2, 20480)
@example(ZERO_SIGNS, 2, 2)
@example(Dataset("unnamed", (), ((), (), ())), None, 2)
def test_write_csv_matches_row_at_a_time_oracle(dataset, decimals, block_cells):
    with mock.patch.object(model, "WRITE_BLOCK_CELLS", block_cells):
        assert write_outcome(write_csv, dataset, decimals) == write_outcome(
            oracle_write_csv, dataset, decimals
        )


@pytest.mark.parametrize("decimals", [None, 2])
def test_write_csv_keeps_the_sign_of_zero(decimals):
    text = write_csv(ZERO_SIGNS, decimals)
    assert text.splitlines()[1:] == ["0.0,-0.0", "-0.0,1.0", "0.0,0.0", "?,-0.0", "-0.0,0.0"]
