"""Tests of the benchmark's own helpers: ``python3 -m pytest bench``."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import gen  # noqa: E402
import tracer  # noqa: E402
import verify  # noqa: E402
from sppam import cli, parse_arff, write_arff  # noqa: E402


def span(name, start, end, parent=-1, attrs=None):
    return [name, start, end, parent, attrs]


def test_self_time_subtracts_nested_children():
    spans = [
        span("cli", 0, 100),
        span("arff.parse", 10, 30, 0),
        span("transform", 40, 70, 0),
        span("transform.group", 50, 60, 2),
    ]
    assert tracer.self_times_ns(spans) == [50, 20, 20, 10]
    assert tracer.nesting_errors(spans) == []


def test_self_time_counts_overlapping_children_once():
    spans = [span("evaluate.cross_validate", 0, 100), span("a", 10, 30, 0), span("b", 20, 40, 0)]
    assert tracer.self_times_ns(spans)[0] == 70


def test_nesting_errors_flag_a_child_outside_its_parent():
    spans = [span("cli", 0, 50), span("arff.write", 40, 60, 0)]
    assert tracer.nesting_errors(spans) == ["span 0 (cli): a child lies outside it"]
    overlapping = [span("cli", 0, 50), span("a", 0, 40, 0), span("b", 10, 50, 0)]
    assert "children exceed its duration" in tracer.nesting_errors(overlapping)[0]


def test_generator_is_deterministic_per_seed(tmp_path):
    a = gen.daily_surf(tmp_path / "a.arff", 7, 30)
    b = gen.daily_surf(tmp_path / "b.arff", 7, 30)
    c = gen.daily_surf(tmp_path / "c.arff", 8, 30)
    assert a.path.read_bytes() == b.path.read_bytes() != c.path.read_bytes()
    assert (a.records, len(a.group_keys)) == (120, 30)
    assert a.bytes == a.path.stat().st_size


def test_attribute_count_identity(tmp_path):
    assert verify.expected_attribute_count(gen.surf_columns("Date")) == 45
    info = gen.interleaved_sites(tmp_path / "in.csv", 0, 2, 4)
    assert verify.expected_attribute_count(info.columns) == 44  # Hour reads as numeric


def _transform(tmp_path, info, output, decimals, capsys):
    argv = ["transform", str(info.path), "--pivot", info.columns[0].name, "--class", "Sets",
            "-o", str(tmp_path / output)]
    assert cli.main(argv + (["--decimals", str(decimals)] if decimals else [])) == 0
    captured = capsys.readouterr()
    return tmp_path / output, captured.out, captured.err


@pytest.mark.parametrize("kind", ["daily", "sites"])
def test_checker_accepts_real_transform_output(tmp_path, capsys, kind):
    if kind == "daily":
        info, output, decimals = gen.daily_surf(tmp_path / "in.arff", 1, 60), "out.arff", 2
    else:
        info, output, decimals = gen.interleaved_sites(tmp_path / "in.csv", 1, 5, 40), "out.csv", None
    path, out, err = _transform(tmp_path, info, output, decimals, capsys)
    assert verify.check_transform(path, info, decimals, out, err) == []


def _corrupt(data, record, attribute, value):
    j = [a.name for a in data.schema].index(attribute)
    records = list(data.records)
    row = list(records[record])
    row[j] = value
    records[record] = tuple(row)
    return data.replace_records(records)


def test_checker_rejects_corrupted_output(tmp_path, capsys):
    info = gen.daily_surf(tmp_path / "in.arff", 2, 40)
    path, out, err = _transform(tmp_path, info, "out.arff", 2, capsys)
    data = parse_arff(path.read_text())
    assert verify.check_dataset(data, info, 2) == []

    perc = _corrupt(data, 3, "Wind_Direction_N_PERC", 60.0)
    assert "percentages sum to" in verify.check_dataset(perc, info, 2)[0]
    last = _corrupt(data, 5, "Wave_LAST", 99.0)
    assert "inconsistent" in verify.check_dataset(last, info, 2)[0]
    dropped = data.replace_records(data.records[:-1])
    assert any("groups" in p for p in verify.check_dataset(dropped, info, 2))

    path.write_text(write_arff(perc, 2))
    assert verify.check_transform(path, info, 2, out, err)
    path.write_text("@DATA\n")
    assert "does not re-parse" in verify.check_transform(path, info, 2, out, err)[0]
    assert verify.check_messages(info, 45, out.replace(" groups", "0 groups"), err)


def test_compare_check_and_traced_run_match_untraced(tmp_path):
    info = gen.group_mean_surf(tmp_path / "surf.arff", 3, 40)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    transform = ["transform", "surf.arff", "--pivot", "Date", "--class", "Sets",
                 "--decimals", "2", "-o", "daily.arff"]
    compare = ["compare", "surf.arff", "daily.arff", "--class", "Sets", "--pivot", "Date",
               "--classifiers", "zeror,naive-bayes", "--k", "3", "--repeats", "1"]
    plain = [sys.executable, "-m", "sppam"]
    traced = [sys.executable, str(BENCH / "tracer.py"), "spans.json", "test-run", "--"]

    def run(prefix, argv):
        done = subprocess.run(prefix + argv, cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout

    run(plain, transform)
    report = run(plain, compare)
    assert verify.check_compare(report, ["zeror", "naive-bayes"], "surf.arff", "daily.arff") == []
    broken = report.replace(verify.delta_lines(report)[-1] + "\n", "")
    assert verify.check_compare(broken, ["zeror", "naive-bayes"], "surf.arff", "daily.arff")

    assert run(traced, compare) == report
    spans = tracer.load_spans(tmp_path / "spans.json")
    assert {s[5] for s in spans} == {"test-run"} and tracer.nesting_errors(spans) == []
    names = {s[0] for s in spans}
    assert {"cli", "arff.parse", "evaluate.compare", "evaluate.cross_validate", "folds.assign",
            "classifiers.fit.naive-bayes", "classifiers.predict.zeror", "metrics.matrix",
            "ttest", "evaluate.render"} <= names
    assert [s for s in spans if s[0] == "cli"][0][3] == -1
