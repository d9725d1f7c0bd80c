import logging

import pytest

import sppam
from conftest import GOLDEN_DATA_SECTION, SURF_TWO_DAYS_CSV
from sppam import Dataset, TransformConfig, cli, parse_arff, transform


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
         1, "error: line 5: unparseable numeric value 'q' for attribute 'a'\n"),
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
