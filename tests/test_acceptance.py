"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import math
import random
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from conftest import GOLDEN_DATA_SECTION, SURF_TWO_DAYS
from helpers import (
    naive_transform_rows,
    posteriors,
    random_plain_dataset,
    random_transform_dataset,
    random_transform_schema,
    rows_match,
)
from sppam import (
    AttributeSpec,
    Dataset,
    TransformConfig,
    aggregate_nominal,
    aggregate_numeric,
    attribute_count,
    classification_metrics,
    compare_datasets,
    corrected_t_test,
    derive_output_schema,
    fit,
    gen_surf,
    group_records,
    group_stratified_folds,
    parse_arff,
    transform,
    write_arff,
)
from sppam.generator import SURF_SCHEMA
from sppam.metrics import ConfusionMatrix
from test_classifiers import _random_labeled_dataset, brute_force_posteriors

def report(criterion, ok, detail=""):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {criterion} failed: {detail}"


def test_c01_golden_transformation(tmp_path):
    source = parse_arff(SURF_TWO_DAYS)
    started = time.perf_counter()
    daily = transform(source, TransformConfig("Date", "Surf"))
    elapsed = time.perf_counter() - started
    text = write_arff(daily, decimals=2)
    data_section = text[text.index("@DATA"):]
    for token in ("8.75", "14.13", "25.0", "75.0", "50.0", "NE", ",E,"):
        assert token in data_section
    report(
        1,
        data_section == GOLDEN_DATA_SECTION and elapsed < 0.1,
        f"byte-identical data section, transform took {elapsed * 1000:.1f} ms",
    )


def test_c02_attribute_count_conformance():
    rng = random.Random(101)
    for _ in range(1000):
        schema, config = random_transform_schema(rng, max_middle=6)
        assert attribute_count(schema, config) == len(derive_output_schema(schema, config))

    sample = parse_arff(SURF_TWO_DAYS)
    sample_count = attribute_count(sample.schema, TransformConfig("Date", "Surf"))
    surf_count = attribute_count(SURF_SCHEMA, TransformConfig("Date", "Sets"))

    readme = Path(__file__).resolve().parent.parent / "README.md"
    note_documented = "44" in readme.read_text(encoding="utf-8")
    report(
        2,
        sample_count == 15 and surf_count == 45 and note_documented,
        f"sample {sample_count}, surf schema {surf_count} "
        "(counts every nominal's LAST column; the alternative 44 tally is "
        "documented in README.md)",
    )


def test_c03_counting_law_on_synthetic_surf():
    dataset = gen_surf(days=48, per_day=4, seed=0, labels="record", zero_days=18)
    assert len(dataset.records) == 192
    class_j = dataset.attribute_index("Sets")
    date_j = dataset.attribute_index("Date")
    last_of_day = {}
    for record in dataset.records:
        last_of_day[record[date_j]] = record[class_j]
    expected_counts = Counter(last_of_day.values())

    daily = transform(dataset, TransformConfig("Date", "Sets"))
    got_counts = Counter(daily.column("Sets"))
    report(
        3,
        len(daily.records) == 48 and got_counts == expected_counts,
        f"48 records, class counts {dict(sorted(got_counts.items()))} == last-of-day labels",
    )


def test_c04_aggregation_properties():
    rng = random.Random(202)
    cases = 0

    for _ in range(4000):
        n = rng.randint(1, 12)
        values = [None if rng.random() < 0.2 else round(rng.uniform(-50, 50), 3)
                  for _ in range(n)]
        max_, min_, avg, last = aggregate_numeric(values)
        observed = [v for v in values if v is not None]
        if observed:
            assert min_ <= avg <= max_
            assert last in observed
            assert max_ in observed and min_ in observed
        else:
            assert (max_, min_, avg, last) == (None, None, None, None)
        cases += 1

    for _ in range(3000):
        size = rng.randint(1, 6)
        n = rng.randint(1, 12)
        values = [None if rng.random() < 0.2 else rng.randrange(size) for _ in range(n)]
        *percents, last = aggregate_nominal(values, size)
        observed = [v for v in values if v is not None]
        if observed:
            assert abs(sum(percents) - 100.0) <= 1e-9
            for v in range(size):
                assert (percents[v] == 0.0) == (v not in observed)
            assert last == observed[-1]
        else:
            assert all(p is None for p in percents)
        cases += 1

    stable_suffixes = ("_MAX", "_MIN", "_AVG", "_PERC")
    for _ in range(2000):
        dataset, config = random_transform_dataset(rng, max_groups=3, max_group_size=4)
        out = transform(dataset, config)
        pivot_j = dataset.attribute_index(config.pivot_attribute)
        buckets = {}
        for r in dataset.records:
            buckets.setdefault(r[pivot_j], []).append(r)
        for rows in buckets.values():
            rng.shuffle(rows)
        shuffled_records = tuple(
            r for key in dict.fromkeys(r[pivot_j] for r in dataset.records)
            for r in buckets[key]
        )
        out2 = transform(Dataset("unnamed", dataset.schema, shuffled_records), config)
        stable = [j for j, a in enumerate(out.schema) if a.name.endswith(stable_suffixes)]
        for row1, row2 in zip(out.records, out2.records):
            for j in stable:
                a, b = row1[j], row2[j]
                if isinstance(a, float):
                    assert b is not None and abs(a - b) <= 1e-9 * max(1.0, abs(a))
                else:
                    assert a == b
        cases += 1

    for _ in range(1200):
        dataset, config = random_transform_dataset(rng, max_groups=8, max_group_size=6)
        assert len(dataset.records) <= 50
        out = transform(dataset, config)
        assert rows_match(out.records, naive_transform_rows(dataset, config))
        cases += 1

    report(4, cases >= 10000, f"{cases} random cases")


def test_c05_roundtrip_identity():
    sample = parse_arff(SURF_TWO_DAYS)
    assert parse_arff(write_arff(sample)) == sample
    rng = random.Random(303)
    for _ in range(1000):
        dataset = random_plain_dataset(rng)
        assert parse_arff(write_arff(dataset)) == dataset
    report(5, True, "sample file and 1000 random datasets")


def test_c06_fold_integrity():
    rng = random.Random(404)
    checked = 0

    def check(dataset, k, seed):
        folds = group_stratified_folds(dataset, k, "label", "key", seed=seed)
        again = group_stratified_folds(dataset, k, "label", "key", seed=seed)
        assert folds == again
        assert len(folds.fold_of_record) == len(dataset.records)
        assert set(folds.fold_of_record) <= set(range(k))
        for group in group_records(dataset, "key"):
            assert len({folds.fold_of_record[i] for i in group.member_indices}) == 1

    schema = (
        AttributeSpec.string("key"),
        AttributeSpec.nominal("label", ("c0", "c1")),
    )
    for _ in range(25):
        n_groups = rng.randint(2, 80)
        records = []
        for g in range(n_groups):
            for _ in range(rng.randint(1, 10)):
                records.append((f"g{g}", rng.randrange(2)))
        dataset = Dataset("unnamed", schema, tuple(records))
        check(dataset, rng.randint(2, min(10, n_groups)), seed=rng.randrange(10_000))
        checked += 1

    big_records = []
    for g in range(500):
        for _ in range(20):
            big_records.append((f"g{g}", rng.randrange(2)))
    big = Dataset("unnamed", schema, tuple(big_records))
    assert len(big.records) == 10_000
    check(big, 10, seed=1)
    checked += 1
    report(6, True, f"{checked} grouped structures incl. 10,000 records / 500 groups")


def test_c07_metric_formulas():
    balanced = classification_metrics(
        ConfusionMatrix(("a", "b"), ((40, 10), (10, 40)))
    )
    assert balanced.cci_percent == pytest.approx(80.0, abs=1e-12)
    assert balanced.kappa == pytest.approx(0.600, abs=1e-12)
    for c in range(2):
        assert balanced.precision[c] == pytest.approx(0.8, abs=1e-12)
        assert balanced.recall[c] == pytest.approx(0.8, abs=1e-12)
        assert balanced.f_measure[c] == pytest.approx(0.8, abs=1e-12)

    rng = random.Random(505)
    for _ in range(500):
        majority = rng.randrange(2)
        column = [[0, 0], [0, 0]]
        column[0][majority] = rng.randint(0, 50)
        column[1][majority] = rng.randint(0, 50)
        if column[0][majority] + column[1][majority] == 0:
            continue
        single = classification_metrics(ConfusionMatrix(("a", "b"), column))
        minority = 1 - majority
        assert single.kappa == 0.0
        assert single.precision[minority] == 0.0
        assert single.recall[minority] == 0.0
        assert single.f_measure[minority] == 0.0
    report(7, True, "hand-checked matrix and 500 single-column matrices")


def test_c08_naive_bayes_oracle():
    rng = random.Random(606)
    compared = 0
    for _ in range(100):
        dataset = _random_labeled_dataset(rng, max_records=30)
        model = fit("naive-bayes", dataset, "label")
        for record in dataset.records:
            expected = brute_force_posteriors(dataset, "label", record)
            actual = posteriors(model, record)
            for e, a in zip(expected, actual):
                assert abs(a - e) <= 1e-9
            compared += 1
    report(8, True, f"100 datasets, {compared} posterior comparisons within 1e-9")


def test_c09_corrected_t_test():
    m = 10
    spread = 0.05 * 3.0 / math.sqrt(m)
    diffs = [0.05 + spread * (1 if i % 2 == 0 else -1) for i in range(m)]
    b = [0.5] * m
    a = [x + d for x, d in zip(b, diffs)]
    result = corrected_t_test(a, b, test_fraction=1.0 / 9.0, alpha=0.01)
    # exact hand evaluation: t = 0.05 / sqrt((1/10 + 1/9) * 0.05^2) = sqrt(90/19)
    expected_t = math.sqrt(90.0 / 19.0)
    assert result.t_statistic == pytest.approx(expected_t, abs=1e-3)
    assert result.verdict == "no-difference"

    same = corrected_t_test([0.7, 0.8, 0.9], [0.7, 0.8, 0.9], 1.0 / 9.0)
    assert same.t_statistic == 0.0 and same.verdict == "no-difference"
    report(9, True, f"t = {result.t_statistic:.4f} (== sqrt(90/19)), df 9, not significant at 0.01")


def test_c10_methodology_demonstration():
    started = time.perf_counter()
    original = gen_surf(days=48, per_day=4, seed=0, labels="group-mean")
    daily = transform(original, TransformConfig("Date", "Sets"))
    outcome = compare_datasets(
        original, daily, ["naive-bayes"], "Sets",
        k=10, repeats=10, seed=0, group_attribute="Date",
    )
    elapsed = time.perf_counter() - started
    row = outcome.rows[0]
    report(
        10,
        row.cci_delta >= 5.0 and elapsed < 30.0,
        f"naive-bayes CCI delta {row.cci_delta:+.2f} points "
        f"({row.original.metrics.cci_percent:.1f} -> "
        f"{row.transformed.metrics.cci_percent:.1f}), "
        f"verdict {row.verdict}, {elapsed:.1f} s",
    )


def _patterned_surf_dataset(days, per_day=4):
    """Big dataset built from small value pools, one class per day."""
    pool = [round(0.1 + (i % 997) * 0.037, 3) for i in range(1000)]
    records = []
    n = 0
    for d in range(days):
        key = f"day{d:07d}"
        for o in range(per_day):
            records.append((
                key, o % 4, pool[n % 1000], pool[(n + 7) % 1000], n % 8,
                pool[(n + 13) % 1000], pool[(n + 29) % 1000], (n + 3) % 8,
                pool[(n + 41) % 1000], d % 2,
            ))
            n += 1
    return Dataset("big", SURF_SCHEMA, tuple(records))


def test_c11_performance_and_memory():
    config = TransformConfig("Date", "Sets")

    big = _patterned_surf_dataset(250_000)
    assert len(big.records) == 1_000_000 and len(big.schema) == 10
    started, cpu_started = time.perf_counter(), time.process_time()
    out = transform(big, config)
    elapsed, cpu = time.perf_counter() - started, time.process_time() - cpu_started
    assert len(out.records) == 250_000
    del big, out

    # peak allocation during the transform scales linearly with input size
    peaks = []
    for days in (25_000, 50_000):
        dataset = _patterned_surf_dataset(days)
        tracemalloc.start()
        transform(dataset, config)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        peaks.append(peak)
        del dataset
    growth = peaks[1] / peaks[0]
    report(
        11,
        elapsed < 10.0 and growth < 2.6,
        f"1,000,000 x 10 transform in {elapsed:.2f} s ({cpu:.2f} s CPU); "
        f"peak allocation x{growth:.2f} for x2 input",
    )
