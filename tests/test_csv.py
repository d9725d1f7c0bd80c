import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import SURF_TWO_DAYS, SURF_TWO_DAYS_CSV
from sppam import ParseError, TransformConfig, parse_arff, parse_csv, transform, write_csv
from sppam.model import cell_text


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
        ("a,\"b\rc\"\n1,2\n", "line 1: column 'b\\rc': a value cannot hold a line break"),
        ("a\n1\n" + "x" * 131073 + "\n", "line 3: malformed CSV: field larger than field limit"),
    ],
)
def test_errors(text, message):
    with pytest.raises(ParseError) as info:
        parse_csv(text)
    assert message in str(info.value)


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


@pytest.mark.filterwarnings("ignore::sppam.MixedClassGroupWarning")
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
                         " ", "\r", "\n", "\r\n", "\x00", "\u0661"]),
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
    try:
        parse_csv(text)
    except ParseError:
        pass
