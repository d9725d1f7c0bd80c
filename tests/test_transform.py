import csv
import functools
import importlib
import io
import os
import random
import threading

import pytest
from hypothesis import given, settings, strategies as st

from conftest import GOLDEN_DATA_SECTION, SURF_TWO_DAYS_DAILY
from helpers import (
    assert_no_child_left,
    counting_forks,
    naive_transform_rows,
    on_two_cpus,
    random_transform_dataset,
    rows_match,
    write_datasets,
    write_outcome,
)
from sppam import (
    AttributeSpec,
    ConfigError,
    Dataset,
    SppamError,
    TransformConfig,
    aggregate_nominal,
    aggregate_numeric,
    attribute_count,
    derive_output_schema,
    gen_surf,
    group_records,
    parse_arff,
    sort_records,
    transform,
    write_arff,
    write_csv,
)
from sppam.transform import transform_text

CONFIG = TransformConfig("Date", "Surf")

# 10-attribute surf observation schema: date pivot, 5 numerics,
# nominals of 4/8/8 values, binary class
ROSE = ("N", "NE", "E", "SE", "S", "SW", "W", "NW")
SURF_SCHEMA = (
    AttributeSpec.string("Date"),
    AttributeSpec.nominal("Hour", ("0", "6", "12", "18")),
    AttributeSpec.numeric("Wave_Total"),
    AttributeSpec.numeric("Wave"),
    AttributeSpec.nominal("Wave_Direction", ROSE),
    AttributeSpec.numeric("Vaga"),
    AttributeSpec.numeric("Wind_Speed"),
    AttributeSpec.nominal("Wind_Direction", ROSE),
    AttributeSpec.numeric("Water_Temperature"),
    AttributeSpec.nominal("Sets", ("0", "1")),
)
SURF_CONFIG = TransformConfig("Date", "Sets")


class TestDeriveOutputSchema:
    def test_sample_schema_derives_15_column_layout(self, surf_dataset):
        derived = derive_output_schema(surf_dataset.schema, CONFIG)
        expected = parse_arff(SURF_TWO_DAYS_DAILY).schema
        assert derived == expected

    def test_pivot_and_class_only(self):
        schema = (AttributeSpec.string("key"), AttributeSpec.nominal("label", ("a", "b")))
        derived = derive_output_schema(schema, TransformConfig("key", "label"))
        assert derived == schema

    def test_surf_schema_has_45_columns(self):
        derived = derive_output_schema(SURF_SCHEMA, SURF_CONFIG)
        assert len(derived) == 45
        assert derived[0].name == "Date"
        assert derived[-1].name == "Sets"

    def test_unknown_attribute_rejected(self, surf_dataset):
        with pytest.raises(ConfigError):
            derive_output_schema(surf_dataset.schema, TransformConfig("Nope", "Surf"))

    def test_non_nominal_class_rejected(self, surf_dataset):
        with pytest.raises(ConfigError):
            derive_output_schema(surf_dataset.schema, TransformConfig("Date", "Wind_Knots"))

    def test_colliding_derived_names_rejected(self):
        # the copied string column collides with the numeric's MAX column
        schema = (
            AttributeSpec.string("key"),
            AttributeSpec.numeric("a"),
            AttributeSpec.string("a_MAX"),
            AttributeSpec.nominal("label", ("x", "y")),
        )
        with pytest.raises(ConfigError):
            derive_output_schema(schema, TransformConfig("key", "label"))


class TestAttributeCount:
    def test_sample_schema_counts_15(self, surf_dataset):
        assert attribute_count(surf_dataset.schema, CONFIG) == 15

    def test_class_only(self):
        schema = (AttributeSpec.nominal("label", ("a", "b")), AttributeSpec.string("key"))
        assert attribute_count(schema, TransformConfig("key", "label")) == 2

    def test_surf_schema_counts_45(self):
        # 1 class + 1 string + 4*5 numerics + (4+1)+(8+1)+(8+1) nominals
        assert attribute_count(SURF_SCHEMA, SURF_CONFIG) == 45

    def test_always_matches_derived_length(self):
        rng = random.Random(7)
        for _ in range(300):
            dataset, config = random_transform_dataset(rng)
            assert attribute_count(dataset.schema, config) == len(
                derive_output_schema(dataset.schema, config)
            )


class TestGroupRecords:
    def test_sample_groups(self, surf_dataset):
        groups = group_records(surf_dataset, "Date")
        assert [g.key for g in groups] == ["18-11-2010", "19-11-2010"]
        assert [g.member_indices for g in groups] == [(0, 1, 2, 3), (4, 5, 6, 7)]

    def test_unique_pivot_values_degenerate(self):
        schema = (AttributeSpec.string("key"), AttributeSpec.nominal("label", ("a",)))
        records = tuple((f"k{i}", 0) for i in range(5))
        groups = group_records(Dataset("unnamed", schema, records), "key")
        assert len(groups) == 5
        assert all(len(g.member_indices) == 1 for g in groups)

    def test_48_distinct_dates(self):
        records = []
        for day in range(48):
            for _ in range(4):
                records.append((f"day{day}", 0))
        schema = (AttributeSpec.string("key"), AttributeSpec.nominal("label", ("a",)))
        groups = group_records(Dataset("unnamed", schema, tuple(records)), "key")
        assert len(groups) == 48

    def test_missing_pivot_reports_record_index(self):
        schema = (AttributeSpec.string("key"), AttributeSpec.nominal("label", ("a",)))
        dataset = Dataset("unnamed", schema, (("k", 0), (None, 0)))
        with pytest.raises(ConfigError, match="record 1"):
            group_records(dataset, "key")

    def test_numeric_pivot_keeps_signed_zeros_apart(self):
        schema = (AttributeSpec.numeric("key"), AttributeSpec.nominal("label", ("a",)))
        records = ((0.0, 0), (-0.0, 0), (0.0, 0), (2.5, 0))
        groups = group_records(Dataset("unnamed", schema, records), "key")
        assert [(g.key, g.member_indices) for g in groups] == [
            ("0.0", (0, 2)), ("-0.0", (1,)), ("2.5", (3,)),
        ]

    def test_nominal_pivot_keys_groups_by_domain_value(self):
        schema = (AttributeSpec.nominal("key", ("n", "s")), AttributeSpec.nominal("label", ("a",)))
        records = ((1, 0), (0, 0), (1, 0))
        groups = group_records(Dataset("unnamed", schema, records), "key")
        assert [(g.key, g.member_indices) for g in groups] == [("s", (0, 2)), ("n", (1,))]

    @given(st.data())
    def test_each_key_is_the_text_write_csv_gives_the_pivot_cell(self, data):
        numeric = data.draw(st.booleans())
        if numeric:
            pivot = AttributeSpec.numeric("key")
            finite = st.floats(allow_nan=False, allow_infinity=False)
            cells = st.sampled_from([0.0, -0.0, 2.5]) | finite
        else:
            pivot = AttributeSpec.nominal("key", ("n", "s s", "0.0", "a,b"))
            cells = st.integers(min_value=0, max_value=3)
        column = data.draw(st.lists(cells, min_size=1, max_size=12))
        schema = (pivot, AttributeSpec.nominal("label", ("a",)))
        dataset = Dataset("unnamed", schema, tuple((cell, 0) for cell in column))
        keys = {i: g.key for g in group_records(dataset, "key") for i in g.member_indices}
        written = list(csv.reader(io.StringIO(write_csv(dataset))))[1:]
        assert [keys[i] for i in range(len(column))] == [row[0] for row in written]


class TestAggregateNumeric:
    def test_first_day_values(self):
        max_, min_, avg, last = aggregate_numeric([15.6, 9.7, 3.9, 5.8])
        assert (max_, min_, avg, last) == (15.6, 3.9, 8.75, 5.8)

    def test_second_day_values(self):
        max_, min_, avg, last = aggregate_numeric([11.7, 15.6, 13.6, 15.6])
        assert (max_, min_, avg, last) == (15.6, 11.7, 14.125, 15.6)

    def test_singleton(self):
        max_, min_, avg, last = aggregate_numeric([4.2])
        assert (max_, min_, avg, last) == (4.2, 4.2, 4.2, 4.2)

    def test_missing_skipped(self):
        max_, min_, avg, last = aggregate_numeric([None, 2.0, None, 6.0, None])
        assert (max_, min_, avg, last) == (6.0, 2.0, 4.0, 6.0)

    def test_all_missing(self):
        max_, min_, avg, last = aggregate_numeric([None, None])
        assert (max_, min_, avg, last) == (None, None, None, None)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_numeric([])

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_sum_overflow_keeps_a_finite_mean(self, sign):
        m = sign * 1.7976931348623157e308
        assert aggregate_numeric([m, m]) == (m, m, m, m)
        assert aggregate_numeric([m] * 3) == (m, m, m, m)
        # the scaled mean of three 1.7e308 rounds past them and is clamped back
        a = sign * 1.7e308
        assert aggregate_numeric([a] * 3) == (a, a, a, a)
        _, _, avg, _ = aggregate_numeric([m, m / 2, 1.0])
        assert min(m, 1.0) <= avg <= max(m, 1.0)

    @pytest.mark.parametrize("value", [0.7, 12.34])
    def test_mean_of_equal_values_is_that_value(self, value):
        # fsum/len of three equal values is one ulp below each of them
        assert aggregate_numeric([value] * 3) == (value, value, value, value)

    @settings(max_examples=300)
    @given(
        st.lists(
            st.one_of(
                # readings written with two decimals, as in the surf data
                st.integers(-10**6, 10**6).map(lambda i: i / 100),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=2,
        ),
        st.lists(st.integers(0, 1), min_size=2, max_size=9),
    )
    def test_mean_within_min_and_max_with_repeats(self, pool, picks):
        values = [pool[i % len(pool)] for i in picks]
        max_, min_, avg, _ = aggregate_numeric(values)
        assert min_ <= avg <= max_


class TestAggregateNominal:
    # domain indices over the 8-value wind rose; SE=3, NE=1, E=2
    def test_first_day_percentages(self):
        *percents, last = aggregate_nominal([3, 3, 3, 1], 8)
        assert tuple(percents) == (0.0, 25.0, 0.0, 75.0, 0.0, 0.0, 0.0, 0.0)
        assert last == 1

    def test_second_day_percentages(self):
        *percents, last = aggregate_nominal([1, 1, 2, 2], 8)
        assert tuple(percents) == (0.0, 50.0, 50.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert last == 2

    def test_singleton(self):
        *percents, last = aggregate_nominal([2], 4)
        assert tuple(percents) == (0.0, 0.0, 100.0, 0.0)
        assert last == 2

    def test_missing_excluded_from_both_sides(self):
        *percents, last = aggregate_nominal([None, 0, None, 1], 2)
        assert tuple(percents) == (50.0, 50.0)
        assert last == 1

    def test_all_missing(self):
        *percents, last = aggregate_nominal([None], 3)
        assert tuple(percents) == (None, None, None)
        assert last is None


class TestTransform:
    def test_sample_to_golden_bytes(self, surf_dataset):
        out = transform(surf_dataset, CONFIG)
        text = write_arff(out, decimals=2)
        assert text[text.index("@DATA"):] == GOLDEN_DATA_SECTION

    def test_sample_matches_expected_dataset(self, surf_dataset):
        out = transform(surf_dataset, CONFIG)
        expected = parse_arff(SURF_TWO_DAYS_DAILY)
        assert out.schema == expected.schema
        assert len(out.records) == 2
        # class of each day is its last record's class
        assert out.column("Surf") == [0, 1]
        assert out.column("Wind_Knots_AVG") == [8.75, 14.125]
        assert out.column("Wind_Dir_LAST") == [1, 2]  # NE, E

    def test_empty_dataset(self, surf_dataset):
        empty = surf_dataset.replace_records(())
        out = transform(empty, CONFIG)
        assert out.schema == derive_output_schema(surf_dataset.schema, CONFIG)
        assert out.records == ()

    def test_mixed_class_group_warns(self, surf_dataset, caplog):
        transform(surf_dataset, CONFIG)
        [record] = caplog.records
        assert record.levelname == "WARNING" and record.name.startswith("sppam")
        assert "19-11-2010" in record.getMessage()

    def test_id_attribute_keeps_last_value(self):
        schema = (
            AttributeSpec.string("key"),
            AttributeSpec.string("rec_id"),
            AttributeSpec.nominal("label", ("a", "b")),
        )
        records = (("k", "r1", 0), ("k", "r2", 0), ("k", "r3", 1))
        dataset = Dataset("unnamed", schema, records)
        out = transform(dataset, TransformConfig("key", "label", id_attribute="rec_id"))
        assert out.records == (("k", "r3", 1),)

    def test_output_record_count_is_group_count(self):
        rng = random.Random(3)
        for _ in range(50):
            dataset, config = random_transform_dataset(rng)
            out = transform(dataset, config)
            assert len(out.records) == len(group_records(dataset, config.pivot_attribute))
            assert len(out.schema) == attribute_count(dataset.schema, config)

    def test_matches_naive_oracle(self):
        rng = random.Random(11)
        for _ in range(200):
            dataset, config = random_transform_dataset(rng)
            out = transform(dataset, config)
            assert rows_match(out.records, naive_transform_rows(dataset, config))

    def test_group_permutation_permutes_output(self):
        rng = random.Random(5)
        dataset, config = random_transform_dataset(rng, max_groups=5, missing_rate=0.0)
        out = transform(dataset, config)
        pivot_j = dataset.attribute_index(config.pivot_attribute)
        keys = [g.key for g in group_records(dataset, config.pivot_attribute)]
        reordered_keys = list(reversed(keys))
        by_key = {k: [r for r in dataset.records if r[pivot_j] == k] for k in keys}
        reordered = Dataset(
            "unnamed",
            dataset.schema,
            tuple(r for k in reordered_keys for r in by_key[k]),
        )
        out2 = transform(reordered, config)
        key_to_row = {row[0]: row for row in out.records}
        assert [row[0] for row in out2.records] == reordered_keys
        for row in out2.records:
            assert rows_match([row], [key_to_row[row[0]]])

    def test_within_group_shuffle_keeps_non_last_cells(self):
        rng = random.Random(9)
        for _ in range(30):
            dataset, config = random_transform_dataset(rng, max_groups=3)
            out = transform(dataset, config)
            pivot_j = dataset.attribute_index(config.pivot_attribute)
            buckets: dict[str, list] = {}
            for r in dataset.records:
                buckets.setdefault(r[pivot_j], []).append(r)
            for rows in buckets.values():
                rng.shuffle(rows)
            shuffled = Dataset(
                "unnamed",
                dataset.schema,
                tuple(r for key in dict.fromkeys(r[pivot_j] for r in dataset.records)
                      for r in buckets[key]),
            )
            out2 = transform(shuffled, config)
            stable = [
                j for j, attr in enumerate(out.schema)
                if attr.name.endswith(("_MAX", "_MIN", "_AVG", "_PERC"))
            ]
            for row1, row2 in zip(out.records, out2.records):
                for j in stable:
                    a, b = row1[j], row2[j]
                    if isinstance(a, float) and isinstance(b, float):
                        assert a == pytest.approx(b, abs=1e-9)
                    else:
                        assert a == b

    def test_deterministic_output_bytes(self, surf_dataset, caplog):
        first = write_arff(transform(surf_dataset, CONFIG), decimals=2)
        second = write_arff(transform(surf_dataset, CONFIG), decimals=2)
        assert first == second
        assert [r.levelname for r in caplog.records] == ["WARNING", "WARNING"]


def test_sort_records_stable():
    schema = (
        AttributeSpec.string("key"),
        AttributeSpec.numeric("t"),
        AttributeSpec.nominal("label", ("a",)),
    )
    dataset = Dataset(
        "unnamed",
        schema,
        (("x", 2.0, 0), ("y", 1.0, 0), ("z", None, 0), ("w", 1.0, 0)),
    )
    out = sort_records(dataset, "t")
    assert [r[0] for r in out.records] == ["z", "y", "w", "x"]


SETS = TransformConfig("Date", "Sets")
TRANSFORM_MODULE = importlib.import_module("sppam.transform")  # sppam.transform is the function


def _text_outcome(caplog, dataset, config, write):
    """``transform_text``'s result, or the type and message of what it
    raised, and the log records, as (logger, level, message)."""
    caplog.clear()
    try:
        result = transform_text(dataset, config, write)
    except (SppamError, ValueError) as exc:
        result = (type(exc), str(exc))
    return result, [(r.name, r.levelname, r.getMessage()) for r in caplog.records]


def _noted(notes, cells):
    """Six days of two records each, the class mixed on days 1 and 4; day
    ``d``'s second record carries ``notes[d]`` and ``cells[d]``."""
    schema = (
        AttributeSpec.string("Date"),
        AttributeSpec.string("Note"),
        AttributeSpec.numeric("Wave"),
        AttributeSpec.nominal("Sets", ("0", "1")),
    )
    records = []
    for day in range(6):
        records.append((f"d{day}", "calm", 1.5, 0))
        records.append((f"d{day}", notes[day], cells[day], int(day in (1, 4))))
    return Dataset("unnamed", schema, tuple(records))


class TestTransformText:
    """``transform_text`` aggregates and writes the second half of the
    groups in a forked child: each case compares it with the run in order
    that a missing ``os.fork`` gives."""

    @pytest.mark.parametrize("writer", [write_arff, write_csv])
    @pytest.mark.parametrize("decimals", [None, 2])
    def test_two_halves_write_what_one_pass_writes(self, monkeypatch, caplog, writer, decimals):
        dataset = gen_surf(days=40, seed=2)
        write = functools.partial(writer, decimals=decimals)
        forks = counting_forks(monkeypatch)
        forked = _text_outcome(caplog, dataset, SETS, write)
        assert forks == [1]
        assert_no_child_left()
        caplog.clear()
        whole = transform(dataset, SETS)
        [warning] = [(r.name, r.levelname, r.getMessage()) for r in caplog.records]
        assert "mixed class values" in warning[2]
        assert forked == ((40, write(whole)), [warning])
        monkeypatch.delattr(os, "fork")
        assert _text_outcome(caplog, dataset, SETS, write) == forked

    @pytest.mark.parametrize("first, last", [(0, 4), (3, 8)], ids=["one-group", "half-in-the-last"])
    def test_runs_in_order_when_the_cut_leaves_no_second_half(
        self, monkeypatch, surf_dataset, first, last
    ):
        dataset = surf_dataset.replace_records(surf_dataset.records[first:last])
        config = TransformConfig("Date", "Surf")
        forks = counting_forks(monkeypatch)
        whole = transform(dataset, config)
        assert transform_text(dataset, config, write_arff) == (len(whole.records), write_arff(whole))
        assert forks == []

    @pytest.mark.parametrize("bad_days", [(0, 5), (5,)], ids=["both-halves", "child-half"])
    @pytest.mark.parametrize("column", ["Note", "Wave"])
    def test_an_unwritable_value_raises_what_it_raises_in_order(
        self, monkeypatch, caplog, bad_days, column
    ):
        if column == "Note":
            write, error = write_arff, SppamError
            dataset = _noted([f"line {d}\nbreak" if d in bad_days else "ok" for d in range(6)], [2.0] * 6)
        else:
            write, error = functools.partial(write_csv, decimals=2), ValueError
            dataset = _noted(["ok"] * 6, [float("inf") if d in bad_days else 2.0 for d in range(6)])
        forks = counting_forks(monkeypatch)
        forked = _text_outcome(caplog, dataset, SETS, write)
        assert forks == [1]
        assert_no_child_left()
        (raised, message), records = forked
        assert raised is error
        assert column == "Wave" or f"line {bad_days[0]}" in message  # the first bad cell's
        assert [r[2] for r in records] == [
            "2 group(s) have mixed class values (last value wins): d1, d4"
        ]
        monkeypatch.delattr(os, "fork")
        assert _text_outcome(caplog, dataset, SETS, write) == forked

    def test_runs_in_order_when_the_fork_fails(self, monkeypatch):
        def refuse():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        dataset = gen_surf(days=20, seed=2)
        expected = (20, write_arff(transform(dataset, SETS)))
        monkeypatch.setattr(os, "fork", refuse)
        on_two_cpus(monkeypatch)
        assert transform_text(dataset, SETS, write_arff) == expected

    def test_runs_in_order_on_one_cpu(self, monkeypatch):
        dataset = gen_surf(days=20, seed=2)
        expected = (20, write_arff(transform(dataset, SETS)))
        forks = counting_forks(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert transform_text(dataset, SETS, write_arff) == expected
        assert forks == []

    def test_runs_in_order_beside_another_thread(self, monkeypatch):
        dataset = gen_surf(days=20, seed=2)
        expected = (20, write_arff(transform(dataset, SETS)))
        forks, stop = counting_forks(monkeypatch), threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert transform_text(dataset, SETS, write_arff) == expected
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive() and forks == []

    def test_an_error_of_this_process_stops_the_child(self, monkeypatch):
        aggregate, parent = TRANSFORM_MODULE._aggregate, os.getpid()

        def failing(*args):
            if os.getpid() == parent:
                raise RuntimeError("the first half failed")
            return aggregate(*args)

        monkeypatch.setattr(TRANSFORM_MODULE, "_aggregate", failing)
        forks = counting_forks(monkeypatch)
        with pytest.raises(RuntimeError, match="the first half failed"):
            transform_text(gen_surf(days=20, seed=2), SETS, write_arff)
        assert forks == [1]
        assert_no_child_left()

    def test_a_child_that_ends_without_a_result_is_an_error(self, monkeypatch):
        aggregate, parent = TRANSFORM_MODULE._aggregate, os.getpid()

        def dying(*args):
            if os.getpid() != parent:
                os._exit(3)
            return aggregate(*args)

        monkeypatch.setattr(TRANSFORM_MODULE, "_aggregate", dying)
        on_two_cpus(monkeypatch)
        with pytest.raises(ChildProcessError, match="ended without a result"):
            transform_text(gen_surf(days=20, seed=2), SETS, write_arff)
        assert_no_child_left()


@given(write_datasets(), st.sampled_from([None, 2]))
def test_a_written_dataset_starts_with_the_text_of_its_schema(dataset, decimals):
    """What ``transform_text`` relies on to drop the child's copy of it."""
    for write in (write_arff, write_csv):
        outcome = write_outcome(write, dataset, decimals)
        if outcome[0] == "text":
            assert outcome[1].startswith(write(dataset.replace_records(()), decimals))
