import logging
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import sppam
from conftest import GOLDEN_DATA_SECTION, SURF_TWO_DAYS_CSV
from sppam import (
    Dataset,
    TransformConfig,
    cli,
    csvio,
    parse_arff,
    parse_csv,
    sort_records,
    transform,
    write_arff,
    write_csv,
)


def test_transform_writes_expected_file(run_cli, surf_file, tmp_path):
    out = tmp_path / "daily.arff"
    code, stdout, stderr = run_cli(
        "transform", surf_file, "--pivot", "Date", "--class", "Surf",
        "--decimals", "2", "-o", out,
    )
    assert code == 0
    text = out.read_text()
    assert text[text.index("@DATA"):] == GOLDEN_DATA_SECTION
    assert "2 groups, 4 -> 15 attributes" in stdout
    assert "mixed class values" in stderr  # day two flips class mid-day


def test_transform_csv_input(run_cli, tmp_path):
    src = tmp_path / "surf.csv"
    src.write_text(SURF_TWO_DAYS_CSV)
    out = tmp_path / "daily.arff"
    code, stdout, _ = run_cli(
        "transform", src, "--pivot", "Date", "--class", "Surf",
        "--decimals", "2", "-o", out,
    )
    assert code == 0
    assert "2 groups" in stdout
    daily = parse_arff(out.read_text())
    assert daily.column("Wind_Knots_AVG") == [8.75, 14.13]


def test_transform_missing_class_flag_exits_2(run_cli, surf_file, tmp_path, capsys):
    code, _, stderr = run_cli("transform", surf_file, "--pivot", "Date",
                              "-o", tmp_path / "x.arff")
    assert code == 2
    assert "usage" in stderr


def test_transform_unknown_extension_exits_2(run_cli, tmp_path):
    src = tmp_path / "data.txt"
    src.write_text("x")
    code, _, stderr = run_cli("transform", src, "--pivot", "a", "--class", "b",
                              "-o", tmp_path / "o.arff")
    assert code == 2
    assert "extension" in stderr


@pytest.mark.parametrize("output", ["y.json", "y.txt", "y"])
@pytest.mark.parametrize("command", [
    ["transform", "missing.arff", "--pivot", "Date", "--class", "Sets"],
    ["gen-surf"],
])
def test_output_suffix_other_than_arff_or_csv_exits_2_before_any_work(
    run_cli, tmp_path, command, output
):
    # the input does not exist: reading it first would exit 3
    code, stdout, stderr = run_cli(*command, "-o", tmp_path / output)
    assert code == 2
    assert "cannot infer format" in stderr and "use a .arff or .csv extension" in stderr
    assert stdout == ""
    assert list(tmp_path.iterdir()) == []


def test_transform_parse_error_exits_1(run_cli, tmp_path):
    src = tmp_path / "broken.arff"
    src.write_text("@ATTRIBUTE a numeric\n@DATA\n1,2\n")
    code, _, stderr = run_cli("transform", src, "--pivot", "a", "--class", "a",
                              "-o", tmp_path / "o.arff")
    assert code == 1
    assert "line 3" in stderr


NOT_UTF8 = {
    ".arff": b"@RELATION r\n@ATTRIBUTE \xe9 numeric\n@ATTRIBUTE c {0,1}\n@DATA\n1,0\n",
    ".csv": b"a,c\n\xe9,0\n",
}
NOT_UTF8_ERROR = "error: {}: line 2: input is not UTF-8: byte 0xe9 cannot be decoded\n"


@pytest.mark.parametrize("suffix", sorted(NOT_UTF8))
def test_input_that_is_not_utf8_exits_1_naming_the_byte_and_line(tmp_path, suffix):
    src = tmp_path / f"latin1{suffix}"
    src.write_bytes(NOT_UTF8[suffix])
    assert _run_module(tmp_path, "eval", src.name, "--class", "c") == (
        1, "", NOT_UTF8_ERROR.format(src.name)
    )


@pytest.mark.parametrize("suffix", sorted(NOT_UTF8))
def test_a_bad_byte_after_a_byte_order_mark_keeps_its_line(run_cli, tmp_path, monkeypatch, suffix):
    monkeypatch.chdir(tmp_path)
    Path(f"in{suffix}").write_bytes(b"\xef\xbb\xbf" + NOT_UTF8[suffix])
    assert run_cli("eval", f"in{suffix}", "--class", "c") == (
        1, "", NOT_UTF8_ERROR.format(f"in{suffix}")
    )


BOM_INPUTS = {
    ".arff": "@RELATION r\n@ATTRIBUTE Date string\n@ATTRIBUTE a numeric\n"
             "@ATTRIBUTE c {0,1}\n@DATA\nd1,1.5,0\nd1,2.5,0\nd2,3,1\n",
    ".csv": "Date,a,c\nd1,1.5,0\nd1,2.5,0\nd2,3,1\n",
}


@pytest.mark.parametrize("suffix", sorted(BOM_INPUTS))
def test_transform_reads_a_byte_order_mark_as_no_text(run_cli, tmp_path, suffix):
    outputs = []
    for mark in (b"", b"\xef\xbb\xbf"):
        src = tmp_path / f"in{len(mark)}{suffix}"
        src.write_bytes(mark + BOM_INPUTS[suffix].encode())
        out = tmp_path / f"out{len(mark)}.arff"
        assert run_cli("transform", src, "--pivot", "Date", "--class", "c", "-o", out) == (
            0, "2 groups, 3 -> 6 attributes\n", ""
        )
        outputs.append(out.read_text())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("bad", [0, 1])
def test_compare_names_the_file_whose_parse_fails(run_cli, tmp_path, monkeypatch, bad):
    monkeypatch.chdir(tmp_path)
    Path("s.arff").write_text("@ATTRIBUTE a numeric\n@ATTRIBUTE c {0,1}\n@DATA\n1,0\n2,1\n")
    Path("ragged.csv").write_text("a,c\n1,0\n2,1,3\n")
    files = ["s.arff", "s.arff"]
    files[bad] = "ragged.csv"
    assert run_cli("compare", *files, "--class", "c") == (
        1, "", "error: ragged.csv: line 3: row has 3 values, header has 2 columns\n"
    )


@pytest.mark.parametrize("suffix", sorted(NOT_UTF8))
@pytest.mark.parametrize("command", [
    ["transform", "{src}", "--pivot", "a", "--class", "c", "-o", "out.arff"],
    ["schema", "{src}", "--pivot", "a", "--class", "c"],
    ["folds", "{src}", "--k", "2", "-o", "folds.csv"],
    ["compare", "{src}", "{src}", "--class", "c"],
])
def test_every_reading_subcommand_refuses_input_that_is_not_utf8(
    run_cli, tmp_path, monkeypatch, suffix, command
):
    monkeypatch.chdir(tmp_path)
    Path(f"in{suffix}").write_bytes(NOT_UTF8[suffix])
    args = [arg.format(src=f"in{suffix}") for arg in command]
    assert run_cli(*args) == (1, "", NOT_UTF8_ERROR.format(f"in{suffix}"))
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"in{suffix}"]


def test_transform_csv_cell_with_both_quotes_exits_1_without_output(run_cli, tmp_path):
    src = tmp_path / "quotes.csv"
    src.write_text("Date,Note,Surf\n18-11-2010,\"it's \"\"big\"\"\",0\n")
    out = tmp_path / "daily.arff"
    code, _, stderr = run_cli("transform", src, "--pivot", "Date", "--class", "Surf", "-o", out)
    assert code == 1
    assert "line 2: column 'Note'" in stderr
    assert not out.exists()


def test_transform_large_values_with_decimals(run_cli, tmp_path):
    src = tmp_path / "big.arff"
    src.write_text(
        "@ATTRIBUTE day string\n@ATTRIBUTE v numeric\n@ATTRIBUTE c {0,1}\n"
        "@DATA\nd1,1e30,0\nd2,2.5,1\n"
    )
    out = tmp_path / "daily.arff"
    code, stdout, stderr = run_cli("transform", src, "--pivot", "day", "--class", "c",
                                   "--decimals", "2", "-o", out)
    assert code == 0, stderr
    big = "1" + "0" * 30 + ".0"
    assert out.read_text().splitlines()[-2] == f"d1,{big},{big},{big},{big},0"


def test_transform_group_summing_past_the_largest_float(run_cli, tmp_path):
    src = tmp_path / "huge.arff"
    src.write_text(
        "@ATTRIBUTE day string\n@ATTRIBUTE v numeric\n@ATTRIBUTE c {0,1}\n"
        "@DATA\nd1,1.7976931348623157e308,0\nd1,1.7976931348623157e308,0\n"
    )
    out = tmp_path / "daily.arff"
    code, _, stderr = run_cli("transform", src, "--pivot", "day", "--class", "c", "-o", out)
    assert code == 0, stderr
    big = "1.7976931348623157e+308"
    assert out.read_text().splitlines()[-1] == f"d1,{big},{big},{big},{big},0"


def test_transform_csv_cell_with_line_break_exits_1_without_output(run_cli, tmp_path):
    src = tmp_path / "note.csv"
    src.write_text("Date,Note,Surf\n18-11-2010,\"two\nlines\",0\n")
    out = tmp_path / "daily.arff"
    code, _, stderr = run_cli("transform", src, "--pivot", "Date", "--class", "Surf", "-o", out)
    assert code == 1
    assert "line 3: column 'Note': a value cannot hold a line break" in stderr
    assert not out.exists()


def test_transform_refuses_a_csv_of_a_class_without_labels(run_cli, tmp_path):
    """``parse_csv`` builds a nominal domain from the values it sees, so a
    CSV whose class column is all missing could not be read back."""
    src = tmp_path / "surf.arff"
    run_cli("gen-surf", "-o", src, "--days", "6", "--zero-days", "2")
    dataset = parse_arff(src.read_text())
    j = dataset.attribute_index("Sets")
    cli._write_dataset(str(src), dataset.replace_records((*r[:j], None, *r[j + 1:]) for r in dataset.records))
    args = ("transform", src, "--pivot", "Date", "--class", "Sets", "-o")
    code, stdout, stderr = run_cli(*args, tmp_path / "daily.csv")
    assert (code, stdout) == (2, "")
    assert stderr == (
        "error: class attribute 'Sets' has no labelled record, so a CSV of it could not "
        "be read back; use a .arff output\n"
    )
    assert not (tmp_path / "daily.csv").exists()
    assert run_cli(*args, tmp_path / "daily.arff") == (0, "6 groups, 10 -> 45 attributes\n", "")


_DAYS = "@ATTRIBUTE day string\n@ATTRIBUTE x numeric\n@ATTRIBUTE c {a,b}\n@DATA\n"


@pytest.mark.parametrize("output", ["o.arff", "o.csv"])
@pytest.mark.parametrize("name, text, pivot, code, message", [
    # a record without a pivot value, then a malformed line: the parse error wins
    ("in.arff", _DAYS + "d1,1,a\n?,2,b\n" + "d2,3,a\n" * 5000 + "d3,zz,a\n", "day", 1,
     "{src}: line 5007: unparseable numeric value 'zz' for attribute 'x'"),
    ("in.csv", "day,x,c\nd1,1,a\n,2,b\n" + "d2,3,a\n" * 5000 + "d3,1,2,3\n", "day", 1,
     "{src}: line 5004: row has 4 values, header has 3 columns"),
    # a pivot that the schema lacks, then a malformed line
    ("in.arff", _DAYS + "d2,3,a\n" * 5000 + "d3,1\n", "nope", 1,
     "{src}: line 5005: row has 2 values, schema has 3 attributes"),
    ("in.arff", _DAYS + "d2,3,a\n" * 5000, "nope", 2, "pivot attribute 'nope' is not in the schema"),
    # a record without a pivot value, blocks after the first
    ("in.arff", _DAYS + "d1,1,a\n" + "d2,3,a\n" * 5000 + "?,2,b\n", "day", 2,
     "record 5001: missing pivot value"),
])
def test_transform_reports_the_first_error_of_the_read_then_of_the_groups(
    run_cli, tmp_path, name, text, pivot, code, message, output
):
    """The CLI folds each block of records into its groups as it reads:
    what it reports, and that it writes nothing, is as when it read every
    record first."""
    src = tmp_path / name
    src.write_text(text)
    args = ("transform", src, "--pivot", pivot, "--class", "c", "-o", tmp_path / output)
    assert run_cli(*args) == (code, "", f"error: {message.format(src=src)}\n")
    assert not (tmp_path / output).exists()


def test_transform_refuses_a_csv_of_a_class_without_labels_before_a_missing_pivot(
    run_cli, tmp_path
):
    src = tmp_path / "in.arff"
    src.write_text(_DAYS + "d1,1,?\n?,2,?\n")
    code, stdout, stderr = run_cli(
        "transform", src, "--pivot", "day", "--class", "c", "-o", tmp_path / "o.csv"
    )
    assert (code, stdout) == (2, "")
    assert stderr.startswith("error: class attribute 'c' has no labelled record")
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("output", ["o.arff", "o.csv"])
def test_transform_restarts_its_groups_when_a_csv_column_turns_nominal_late(
    run_cli, tmp_path, monkeypatch, output
):
    """``x`` holds numbers for two blocks, then a text, so ``parse_csv``
    reads again with ``x`` nominal; the groups folded so far are dropped."""
    text = "day,x,c\n" + "".join(f"d{i % 3},{i},{'ab'[i % 2]}\n" for i in range(5)) + "d1,zz,a\n"
    src = tmp_path / "in.csv"
    src.write_text(text)
    monkeypatch.setattr(csvio, "READ_BLOCK_ROWS", 2)
    code, stdout, _ = run_cli("transform", src, "--pivot", "day", "--class", "c",
                              "-o", tmp_path / output)
    assert (code, stdout) == (0, "3 groups, 3 -> 9 attributes\n")
    dataset = parse_csv(text, string_columns=("day",), nominal_columns=("c",))
    write = write_csv if output.endswith(".csv") else write_arff
    expected = write(transform(dataset, TransformConfig("day", "c")))
    assert (tmp_path / output).read_text() == expected


def test_transform_keeps_the_zeros_of_a_numeric_pivot_apart(run_cli, tmp_path):
    text = (
        "@ATTRIBUTE day numeric\n@ATTRIBUTE x numeric\n@ATTRIBUTE c {a,b}\n@DATA\n"
        "0.0,1,a\n-0.0,2,b\n0.0,3,a\n-0.0,4,b\n"
    )
    src, out = tmp_path / "in.arff", tmp_path / "o.arff"
    src.write_text(text)
    code, stdout, _ = run_cli("transform", src, "--pivot", "day", "--class", "c", "-o", out)
    assert (code, stdout) == (0, "2 groups, 3 -> 9 attributes\n")
    assert out.read_text() == write_arff(transform(parse_arff(text), TransformConfig("day", "c")))


def test_transform_sort_by_folds_the_sorted_records(run_cli, tmp_path):
    src, out = tmp_path / "surf.arff", tmp_path / "daily.arff"
    run_cli("gen-surf", "-o", src, "--days", "12", "--zero-days", "4")
    code, stdout, _ = run_cli("transform", src, "--pivot", "Date", "--class", "Sets",
                              "--sort-by", "Wave", "--decimals", "2", "-o", out)
    assert (code, stdout) == (0, "12 groups, 10 -> 45 attributes\n")
    dataset = sort_records(parse_arff(src.read_text()), "Wave")
    daily = transform(dataset, TransformConfig("Date", "Sets"))
    assert out.read_text() == write_arff(daily, 2)


def test_transform_never_holds_the_records_of_its_input(run_cli, tmp_path, monkeypatch):
    """Parsing, transforming and writing 40k interleaved records peaks
    clearly below what parsing them alone holds: the records go into their
    groups' cells as they are read."""
    rng = random.Random(7)
    lines = ["Site,Hour,Wave,Dir,Sets"]
    for r in range(40_000):
        wave = "" if rng.random() < 0.02 else repr(round(rng.gauss(1.8, 0.7), 2))
        lines.append(f"site-{r % 150:04d},{r % 4 * 6},{wave},{rng.choice('NESW')},{r % 2}")
    text = "\n".join(lines) + "\n"
    monkeypatch.setattr(cli, "_read_text", lambda path: text)  # as parse_csv gets it
    peaks = []
    for run in (
        lambda: parse_csv(text, ("Site",), ("Sets",)),
        lambda: run_cli("transform", "sites.csv", "--pivot", "Site", "--class", "Sets",
                        "-o", tmp_path / "daily.csv"),
    ):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (tmp_path / "daily.csv").read_text().count("\n") == 151
    # holding the parsed records too peaks at about 1.2 times parsing alone
    assert peaks[1] < 0.85 * peaks[0]


def test_transform_never_holds_the_records_of_its_arff_input(run_cli, tmp_path, monkeypatch):
    """The ARFF twin of the test above: the reader splits the text into
    lines one chunk at a time and hands each block of records to the fold."""
    rng = random.Random(7)
    lines = [
        "@ATTRIBUTE Site STRING", "@ATTRIBUTE Hour NUMERIC", "@ATTRIBUTE Wave NUMERIC",
        "@ATTRIBUTE Dir {N, E, S, W}", "@ATTRIBUTE Sets {0, 1}", "@DATA",
    ]
    for r in range(40_000):
        wave = "?" if rng.random() < 0.02 else repr(round(rng.gauss(1.8, 0.7), 2))
        lines.append(f"site-{r % 150:04d},{r % 4 * 6},{wave},{rng.choice('NESW')},{r % 2}")
    text = "\n".join(lines) + "\n"
    monkeypatch.setattr(cli, "_read_text", lambda path: text)  # as parse_arff gets it
    peaks = []
    for run in (
        lambda: parse_arff(text),
        lambda: run_cli("transform", "sites.arff", "--pivot", "Site", "--class", "Sets",
                        "-o", tmp_path / "daily.arff"),
    ):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (tmp_path / "daily.arff").read_text().count("\n") == 150 + 16
    # with a list of every line held while the records are folded, about 0.77
    assert peaks[1] < 0.7 * peaks[0]


def test_transform_writes_over_its_own_input_what_it_writes_elsewhere(
    run_cli, tmp_path, monkeypatch
):
    """The input is read whole before any of the output is written, which
    goes out a few characters at a time here."""
    src, other = tmp_path / "surf.arff", tmp_path / "daily.arff"
    run_cli("gen-surf", "-o", src, "--days", "30")
    expected = write_arff(transform(parse_arff(src.read_text()), TransformConfig("Date", "Sets")), 2)
    monkeypatch.setattr(cli, "WRITE_SLICE_CHARS", 7)
    args = ("--pivot", "Date", "--class", "Sets", "--decimals", "2", "-o")
    assert run_cli("transform", src, *args, other)[:2] == (0, "30 groups, 10 -> 45 attributes\n")
    assert run_cli("transform", src, *args, src)[:2] == (0, "30 groups, 10 -> 45 attributes\n")
    assert src.read_bytes() == other.read_bytes() == expected.encode()


def test_transform_negative_decimals_exits_2_before_parsing(run_cli, tmp_path):
    src = tmp_path / "broken.arff"
    src.write_text("@ATTRIBUTE a numeric\n@DATA\n1,2\n")
    out = tmp_path / "o.arff"
    code, _, stderr = run_cli("transform", src, "--pivot", "a", "--class", "a",
                              "--decimals", "-1", "-o", out)
    assert code == 2
    assert "--decimals" in stderr
    assert "line 3" not in stderr
    assert not out.exists()


def test_gen_surf_then_transform_summary(run_cli, tmp_path):
    src = tmp_path / "surf.arff"
    code, stdout, _ = run_cli("gen-surf", "-o", src)
    assert code == 0
    assert "192 records" in stdout
    out = tmp_path / "daily.arff"
    code, stdout, _ = run_cli(
        "transform", src, "--pivot", "Date", "--class", "Sets", "-o", out,
    )
    assert code == 0
    assert "48 groups, 10 -> 45 attributes" in stdout
    assert len(parse_arff(out.read_text()).records) == 48


@pytest.mark.parametrize("flip_rate", ["2", "-0.5", "nan", "inf"])
def test_gen_surf_flip_rate_outside_0_1_exits_2_without_output(run_cli, tmp_path, flip_rate):
    out = tmp_path / "surf.arff"
    code, stdout, stderr = run_cli("gen-surf", "-o", out, "--flip-rate", flip_rate)
    assert (code, stdout) == (2, "")
    assert stderr == f"error: flip_rate must be in [0, 1], got {float(flip_rate)}\n"
    assert not out.exists()


def test_schema_lists_derived_attributes(run_cli, surf_file):
    code, stdout, _ = run_cli("schema", surf_file, "--pivot", "Date", "--class", "Surf")
    assert code == 0
    lines = stdout.splitlines()
    assert sum(1 for l in lines if ":" in l and "attributes" not in l) == 15
    assert "15 attributes" in stdout
    assert lines[0].startswith("Date")


def test_schema_surf_counts_45(run_cli, tmp_path):
    src = tmp_path / "surf.arff"
    run_cli("gen-surf", "-o", src)
    code, stdout, _ = run_cli("schema", src, "--pivot", "Date", "--class", "Sets")
    assert code == 0
    assert "45 attributes" in stdout
    assert "every non-class nominal keeps its LAST column" in stdout


def test_folds_forced_partition_and_determinism(run_cli, surf_file, tmp_path):
    out1, out2 = tmp_path / "f1.csv", tmp_path / "f2.csv"
    for out in (out1, out2):
        code, _, _ = run_cli(
            "folds", surf_file, "--k", "2", "--group-by", "Date",
            "--class", "Surf", "--seed", "5", "-o", out,
        )
        assert code == 0
    assert out1.read_text() == out2.read_text()
    lines = out1.read_text().splitlines()
    assert lines[0] == "record_index,fold"
    folds = [int(l.split(",")[1]) for l in lines[1:]]
    assert len(set(folds[:4])) == 1 and len(set(folds[4:])) == 1
    assert folds[0] != folds[4]


def test_folds_k_above_group_count_exits_2(run_cli, surf_file, tmp_path):
    code, _, stderr = run_cli(
        "folds", surf_file, "--k", "3", "--group-by", "Date",
        "--class", "Surf", "-o", tmp_path / "f.csv",
    )
    assert code == 2
    assert "group count" in stderr


@pytest.mark.parametrize("output", ["f.arff", "f.CSV.txt", "f"])
def test_folds_output_other_than_csv_exits_2_before_reading(run_cli, tmp_path, output):
    # the input does not exist: reading it first would exit 3
    code, stdout, stderr = run_cli("folds", tmp_path / "missing.arff", "--k", "2",
                                   "-o", tmp_path / output)
    assert (code, stdout) == (2, "")
    assert stderr == f"error: folds are written as CSV; use a .csv extension for {str(tmp_path / output)!r}\n"
    assert list(tmp_path.iterdir()) == []


def test_diagnostics_are_one_stderr_line_each_and_leave_no_handler(run_cli, surf_file, tmp_path):
    """``main`` writes every diagnostic as one ``level: message`` line and
    removes its handler on return, so a second run prints each line once."""
    broken = tmp_path / "broken.arff"
    broken.write_text("@ATTRIBUTE a numeric\n@ATTRIBUTE c {x,y}\n@DATA\n1,x\nq,y\n")
    missing = tmp_path / "missing.arff"
    runs = [
        (("transform", surf_file, "--pivot", "Date", "--class", "Surf", "-o", tmp_path / "d.arff"),
         0, "warning: 1 group(s) have mixed class values (last value wins): 19-11-2010\n"),
        (("eval", broken, "--class", "c"),
         1, f"error: {broken}: line 5: unparseable numeric value 'q' for attribute 'a'\n"),
        (("eval", surf_file, "--class", "Surf", "--k", "1"),
         2, "error: fold count must be at least 2, got 1\n"),
        (("eval", missing, "--class", "c"),
         3, f"error: [Errno 2] No such file or directory: {str(missing)!r}\n"),
    ]
    for _ in range(2):
        for args, code, stderr in runs:
            assert run_cli(*args)[::2] == (code, stderr)
    assert logging.getLogger("sppam").handlers == []


def test_eval_text_report(run_cli, tmp_path):
    src = tmp_path / "surf.arff"
    run_cli("gen-surf", "-o", src, "--days", "30")
    code, stdout, _ = run_cli(
        "eval", src, "--class", "Sets", "--classifiers", "zeror",
        "--k", "5", "--repeats", "1",
    )
    assert code == 0
    assert "zeror" in stdout
    kappa_column = [line.split() for line in stdout.splitlines() if "average" in line]
    assert kappa_column[0][3] == "0.00"  # zeror kappa


def test_eval_naive_bayes_on_values_near_the_largest_float(run_cli, tmp_path):
    src = tmp_path / "huge.arff"
    values = ["1.7976931348623157e308", "1.0", "2.0", "-1.7976931348623157e308", "3.0",
              "4.0", "1.5e308", "5.0", "6.0", "7.0"]
    src.write_text(
        "@ATTRIBUTE x numeric\n@ATTRIBUTE c {0,1}\n@DATA\n"
        + "".join(f"{v},{i % 2}\n" for i, v in enumerate(values))
    )
    args = ("eval", src, "--class", "c", "--classifiers", "naive-bayes", "--k", "2", "--repeats", "3")
    code, first, stderr = run_cli(*args)
    assert code == 0, stderr
    assert run_cli(*args) == (0, first, "")


def test_eval_unknown_classifier_exits_2(run_cli, surf_file):
    code, _, stderr = run_cli("eval", surf_file, "--class", "Surf",
                              "--classifiers", "j48")
    assert code == 2
    assert "valid kinds" in stderr
    assert "zeror" in stderr


def test_eval_csv_accuracy_rows(run_cli, tmp_path):
    src = tmp_path / "surf.arff"
    run_cli("gen-surf", "-o", src, "--days", "40")
    code, stdout, _ = run_cli(
        "eval", src, "--class", "Sets", "--classifiers", "zeror,oner",
        "--k", "4", "--repeats", "3", "--csv",
    )
    assert code == 0
    for kind in ("zeror", "oner"):
        run_rows = [l for l in stdout.splitlines() if l.startswith(f"{kind},run,")]
        assert len(run_rows) == 12  # repeats * k


def test_compare_same_file_reports_zero_deltas(run_cli, tmp_path):
    src = tmp_path / "surf.arff"
    run_cli("gen-surf", "-o", src, "--days", "30")
    code, stdout, _ = run_cli(
        "compare", src, src, "--class", "Sets",
        "--classifiers", "zeror,oner", "--k", "5", "--repeats", "2",
    )
    assert code == 0
    assert "+0.00" in stdout
    assert "no-difference" in stdout
    assert "oner (reference)" in stdout


@pytest.mark.parametrize(
    "form, seed", [([], "0"), (["--csv"], "0"), ([], "1")], ids=["form0", "form1", "seed1"]
)
def test_compare_scores_a_csv_transform_as_its_arff_twin(run_cli, tmp_path, form, seed):
    # the CSV's Date texts would otherwise be read as a nominal feature with
    # one value per record, which OneR picks and then never matches; at seed 1
    # the first day's class is 1, so the CSV lists the class domain as (1, 0)
    src = tmp_path / "surf.arff"
    run_cli("gen-surf", "-o", src, "--days", "60", "--labels", "group-mean", "--seed", seed)
    outputs = []
    for name in ("days.arff", "daily.csv"):  # names of one length, so columns align alike
        run_cli("transform", src, "--pivot", "Date", "--class", "Sets", "--decimals", "2",
                "-o", tmp_path / name)
        code, stdout, _ = run_cli(
            "compare", src, tmp_path / name, "--class", "Sets", "--pivot", "Date",
            "--repeats", "2", *form,
        )
        assert code == 0
        outputs.append(stdout.replace(name, "<transformed>"))
    assert outputs[0] == outputs[1]
    assert "transformed-better" in outputs[0]


def test_compare_parses_a_csv_transform_once(run_cli, tmp_path, monkeypatch):
    src, daily = tmp_path / "surf.arff", tmp_path / "daily.csv"
    run_cli("gen-surf", "-o", src, "--days", "12", "--zero-days", "4")
    run_cli("transform", src, "--pivot", "Date", "--class", "Sets", "-o", daily)
    parse, calls = cli.parse_csv, []

    def counting(*args, **kwargs):
        calls.append(kwargs["string_columns"])
        return parse(*args, **kwargs)

    monkeypatch.setattr(cli, "parse_csv", counting)
    code, _, _ = run_cli(
        "compare", src, daily, "--class", "Sets", "--pivot", "Date",
        "--classifiers", "oner", "--k", "3", "--repeats", "1",
    )
    assert code == 0
    assert calls == [("Date",)]


@pytest.mark.parametrize("name, code, message", [
    ("daily.csv", 1, "forced column 'Date' is not in the header"),
    ("daily.arff", 2, "daily.arff has no group attribute 'Date'"),
], ids=["csv", "arff"])
def test_compare_refuses_a_transform_without_the_pivot(run_cli, tmp_path, monkeypatch, name, code, message):
    def refuse(*args, **kwargs):
        raise AssertionError("folds were assigned")

    src = tmp_path / "surf.arff"
    run_cli("gen-surf", "-o", src, "--days", "12", "--zero-days", "4")
    daily = transform(parse_arff(src.read_text()), TransformConfig("Date", "Sets"))
    j = daily.attribute_index("Date")
    undated = Dataset(daily.relation_name, daily.schema[:j] + daily.schema[j + 1:], (
        record[:j] + record[j + 1:] for record in daily.records
    ))
    cli._write_dataset(str(tmp_path / name), undated)
    monkeypatch.setattr(sppam.evaluate, "group_stratified_folds", refuse)
    result = run_cli("compare", src, tmp_path / name, "--class", "Sets", "--pivot", "Date")
    assert result[0] == code
    assert message in result[2]


def _run_module(cwd, *args):
    env = dict(os.environ, PYTHONPATH=str(Path(sppam.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-m", "sppam", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("labelled", [True, False], ids=["exit0", "exit2"])
def test_compare_as_a_process_prints_what_it_prints_in_order(
    run_cli, tmp_path, monkeypatch, labelled
):
    """``compare`` forks to cross-validate the transformed file; the child
    writes nothing itself, so the report appears once and stderr holds the
    warnings of both sides in order, as when nothing forks. Without
    ``--pivot`` a CSV transform's Date is a nominal that tells every record
    apart, which the child warns about."""
    monkeypatch.chdir(tmp_path)
    run_cli("gen-surf", "-o", "surf.arff", "--days", "30", "--labels", "group-mean")
    daily = transform(parse_arff(Path("surf.arff").read_text()), TransformConfig("Date", "Sets"))
    name = "daily.csv"
    if not labelled:  # an error of the child's side; a CSV cannot hold this class column
        j, name = daily.attribute_index("Sets"), "daily.arff"
        daily = daily.replace_records((*r[:j], None, *r[j + 1:]) for r in daily.records)
    cli._write_dataset(name, daily, 2)
    args = ("compare", "surf.arff", name, "--class", "Sets", "--k", "3", "--repeats", "2")
    forked = _run_module(tmp_path, *args)
    monkeypatch.delattr(os, "fork")
    assert forked == run_cli(*args)
    code, stdout, stderr = forked
    assert stderr.startswith("warning: no group attribute: the folds on surf.arff ignore groups")
    if labelled:
        assert code == 0 and stdout.count("comparison: surf.arff vs daily.csv") == 1
        assert stderr.splitlines()[1] == (
            "warning: attribute 'Date' has a different value on each of the 30 labelled "
            "records; as a feature it can only memorise the records"
        )
    else:
        assert (code, stdout) == (2, "")
        assert stderr.splitlines()[1:] == ["error: no labeled records to evaluate"]


@pytest.mark.parametrize("output", ["daily.arff", "daily.csv"])
def test_transform_as_a_process_writes_what_it_writes_in_order(
    run_cli, tmp_path, monkeypatch, output
):
    """``transform`` forks to aggregate and write the second half of its
    groups; the child prints nothing, so the file, stdout and stderr are
    those of running in one process."""
    monkeypatch.chdir(tmp_path)
    run_cli("gen-surf", "-o", "surf.arff", "--days", "30")
    args = ("transform", "surf.arff", "--pivot", "Date", "--class", "Sets", "--decimals", "2",
            "-o", output)
    forked = (_run_module(tmp_path, *args), Path(output).read_bytes())
    Path(output).unlink()
    monkeypatch.delattr(os, "fork")
    assert forked == (run_cli(*args), Path(output).read_bytes())
    code, stdout, stderr = forked[0]
    assert (code, stdout) == (0, "30 groups, 10 -> 45 attributes\n")
    assert stderr.startswith("warning: ") and stderr.count("\n") == 1


def test_transform_then_eval_matches_in_process_compare(run_cli, tmp_path):
    # no drift between the file path and the in-process path
    from sppam import compare_datasets

    src = tmp_path / "surf.arff"
    daily = tmp_path / "daily.arff"
    run_cli("gen-surf", "-o", src, "--days", "30")
    run_cli("transform", src, "--pivot", "Date", "--class", "Sets", "-o", daily)
    code, stdout, _ = run_cli(
        "eval", daily, "--class", "Sets", "--classifiers", "naive-bayes",
        "--k", "5", "--repeats", "2", "--seed", "3", "--csv",
    )
    assert code == 0
    cli_accuracies = [
        float(line.split(",")[3])
        for line in stdout.splitlines()
        if line.startswith("naive-bayes,run,")
    ]
    report = compare_datasets(
        parse_arff(src.read_text()),
        parse_arff(daily.read_text()),
        ["naive-bayes"], "Sets", k=5, repeats=2, seed=3, group_attribute="Date",
    )
    in_process = report.rows[0].transformed.fold_accuracies
    assert cli_accuracies == pytest.approx(in_process, abs=1e-6)


def test_module_entry_point(tmp_path):
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-m", "sppam", "gen-surf", "-o", str(tmp_path / "s.arff")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "192 records" in result.stdout
