import csv
import functools
import importlib
import io
import math
import os
import random
import threading
import tracemalloc
from fractions import Fraction

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
from sppam.transform import GroupFold, transform_text

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

    def test_equal_percents_of_a_transform_share_one_float(self):
        out = transform(gen_surf(days=40, seed=2), SETS)
        columns = [j for j, attr in enumerate(out.schema) if attr.name.endswith("_PERC")]
        percents = [record[j] for record in out.records for j in columns]
        assert len(set(percents)) < 40 < len(percents)
        assert len(set(map(id, percents))) == len(set(percents))


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


def _joined_text(dataset, config, write):
    """``transform_text``'s group count and its parts joined."""
    count, parts = transform_text(dataset, config, write)
    return count, "".join(parts)


def _text_outcome(caplog, dataset, config, write):
    """``transform_text``'s group count and joined parts, or the type and
    message of what it raised, and the log records, as (logger, level,
    message)."""
    caplog.clear()
    try:
        result = _joined_text(dataset, config, write)
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
        assert _joined_text(dataset, config, write_arff) == (len(whole.records), write_arff(whole))
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
        assert _joined_text(dataset, SETS, write_arff) == expected

    def test_runs_in_order_on_one_cpu(self, monkeypatch):
        dataset = gen_surf(days=20, seed=2)
        expected = (20, write_arff(transform(dataset, SETS)))
        forks = counting_forks(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert _joined_text(dataset, SETS, write_arff) == expected
        assert forks == []

    def test_runs_in_order_beside_another_thread(self, monkeypatch):
        dataset = gen_surf(days=20, seed=2)
        expected = (20, write_arff(transform(dataset, SETS)))
        forks, stop = counting_forks(monkeypatch), threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert _joined_text(dataset, SETS, write_arff) == expected
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

    def test_this_process_aggregates_holding_only_its_half_of_the_cells(self, monkeypatch):
        """Once forked, this process lets go of the child's groups: what it
        holds when it starts to aggregate is well below the whole fold."""
        dataset = gen_surf(days=2000, seed=2)
        aggregate, parent, held = TRANSFORM_MODULE._aggregate, os.getpid(), []

        def spying(*args):
            if os.getpid() == parent:
                held.append(tracemalloc.get_traced_memory()[0])
            return aggregate(*args)

        monkeypatch.setattr(TRANSFORM_MODULE, "_aggregate", spying)
        forks = counting_forks(monkeypatch)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            fold = GroupFold("Date").fold_dataset(dataset)  # the cells are the records'
            folded = tracemalloc.get_traced_memory()[0] - before
            count, _ = transform_text(dataset.replace_records(()), SETS, write_arff, fold)
        finally:
            tracemalloc.stop()
        assert (count, forks) == (2000, [1])
        assert_no_child_left()
        # holding the child's half too reads about 1.2 times the fold
        [at_start] = held
        assert at_start - before < 0.8 * folded

    def test_each_half_lets_go_of_its_cells_before_it_writes(self, monkeypatch):
        aggregate, parts, held = TRANSFORM_MODULE._aggregate, [], []

        def spying(part, *args):
            parts.append(part)
            return aggregate(part, *args)

        def write(dataset):
            held.append(len(parts[-1]))
            return write_arff(dataset)

        def refuse():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(TRANSFORM_MODULE, "_aggregate", spying)
        monkeypatch.setattr(os, "fork", refuse)  # both halves run here, in order
        on_two_cpus(monkeypatch)
        assert _joined_text(gen_surf(days=20, seed=2), SETS, write)[0] == 20
        assert len(parts) == 2 and held == [0, 0, 0]  # the second half writes its schema too

    def test_the_child_sends_its_text_in_slices_and_this_process_in_one_part(self, monkeypatch):
        dataset = gen_surf(days=20, seed=2)
        expected = write_arff(transform(dataset, SETS))
        monkeypatch.setattr(TRANSFORM_MODULE, "WRITE_SLICE_CHARS", 7)
        forks = counting_forks(monkeypatch)
        count, parts = transform_text(dataset, SETS, write_arff)
        assert (count, "".join(parts), forks) == (20, expected, [1])
        assert len(parts[0]) > 7 and {len(part) for part in parts[1:-1]} == {7}
        monkeypatch.delattr(os, "fork")
        assert transform_text(dataset, SETS, write_arff) == (20, [expected])

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


LARGEST = 1.7976931348623157e308
EDGE_SCHEMA = (
    AttributeSpec.string("Date"),
    AttributeSpec.numeric("Zero"),
    AttributeSpec.numeric("Tiny"),
    AttributeSpec.numeric("Huge"),
    AttributeSpec.numeric("Late"),
    AttributeSpec.nominal("Dir", ("N", "E", "S")),
    AttributeSpec.string("Note"),
    AttributeSpec.nominal("Sets", ("0", "1")),
)
_ = None
# per group, per column after Date, its seven cells in source order
EDGE_COLUMNS = {
    "d0": (
        [0.0, -0.0, -0.0, 0.0, -0.0, 0.0, -0.0],
        [5e-324, -5e-324, 1e-310, -2.5, 3.0, -1e-320, 2.5],
        [LARGEST, 1.7e308, -1e308, LARGEST, 1.5e308, 5e-324, LARGEST],  # the sum overflows
        [_, _, _, _, _, 1.5, 2.5],  # missing throughout the first chunks
        [0, 1, _, 2, 2, _, 1],
        ["p", "q", _, "r", _, _, _],
        [0, 0, 0, _, 1, _, _],  # mixed: its classes fall in different chunks
    ),
    "d1": (
        [-0.0] * 7,
        [1e-300, -1e-300, 5e-324, 0.1, 0.2, 0.3, -0.6],
        [-LARGEST, -LARGEST, -1.7e308, -1e308, _, -LARGEST, -5e-324],
        [_] * 7,
        [_] * 7,
        [_] * 7,
        [_] * 7,
    ),
    "d2": (
        [-0.0, 0.0, _, -0.0, 0.0, -0.0, _],
        [2.0 ** -1074, 2.0 ** -1022, -(2.0 ** -1023), 1e16, 1.0, -1e16, _],
        [LARGEST, LARGEST, -LARGEST, -LARGEST, LARGEST, 1.0, -LARGEST],  # finite, not at each step
        [1.0, _, _, _, _, _, _],  # present only in the first chunk
        [_, _, _, 0, 0, 0, _],
        [_, _, "s", _, _, _, _],
        [1, 1, 1, 1, 1, 1, 1],
    ),
}


def _edge_dataset() -> Dataset:
    """Three groups of seven records, interleaved, whose columns meet each
    edge of a running state: zeros of both signs, subnormals, sums past the
    largest float, a column missing from the first records on, and a group
    whose classes differ between its first and last records."""
    records = []
    for r in range(7):
        for day, columns in EDGE_COLUMNS.items():
            records.append((day, *(column[r] for column in columns)))
    return Dataset("edges", EDGE_SCHEMA, tuple(records))


def _folded_in_blocks(dataset: Dataset, pivot: str, block: int | None) -> GroupFold:
    """A GroupFold holding ``dataset``'s records, handed to it ``block``
    records at a time, as a reader hands them (all at once for None)."""
    fold = GroupFold(pivot)
    consume = fold.start(dataset.attribute_names, [attr.kind for attr in dataset.schema])
    step = block or max(1, len(dataset.records))
    for start in range(0, len(dataset.records), step):
        consume(dataset.records[start:start + step])
    return fold


class TestCompaction:
    """A group's cells fold into its running state once it holds
    ``COMPACT_RECORDS`` records; what it aggregates to must not change."""

    def _uncompacted(self, monkeypatch, dataset, config) -> Dataset:
        monkeypatch.setattr(TRANSFORM_MODULE, "COMPACT_RECORDS", 1 << 40)
        return transform(dataset, config)

    def _counting_compactions(self, monkeypatch) -> list:
        compactions, compact = [], TRANSFORM_MODULE._compact

        def counting(*args):
            compactions.append(1)
            return compact(*args)

        monkeypatch.setattr(TRANSFORM_MODULE, "_compact", counting)
        return compactions

    def test_the_edge_dataset_reaches_the_scaled_mean(self):
        """``float_mean`` scales the first group's ``Huge``; the third's
        overflows at a step of ``fsum`` though its sum is finite."""
        for day in ("d0", "d1", "d2"):
            with pytest.raises(OverflowError):
                math.fsum(v for v in EDGE_COLUMNS[day][2] if v is not None)
        assert math.isfinite(float(sum(map(Fraction, EDGE_COLUMNS["d2"][2]))))

    @pytest.mark.parametrize("records", [1, 2, 3, None], ids=["1", "2", "3", "default"])
    @pytest.mark.parametrize("block", [1, 2, 5, None], ids=["block1", "block2", "block5", "whole"])
    def test_compacted_groups_write_what_whole_groups_write(
        self, monkeypatch, caplog, records, block
    ):
        dataset = _edge_dataset()
        expected = self._uncompacted(monkeypatch, dataset, SETS)
        assert rows_match(expected.records, naive_transform_rows(dataset, SETS))
        if records is not None:
            monkeypatch.setattr(TRANSFORM_MODULE, "COMPACT_RECORDS", records)
        compactions = self._counting_compactions(monkeypatch)
        caplog.clear()
        assert repr(transform(dataset, SETS).records) == repr(expected.records)
        warnings = [r.getMessage() for r in caplog.records]
        assert warnings == ["1 group(s) have mixed class values (last value wins): d0"]
        texts = []
        for forking in (True, False):
            if forking:  # where the cut falls after a group that still holds cells
                on_two_cpus(monkeypatch)
            else:
                monkeypatch.delattr(os, "fork")
            caplog.clear()
            fold = _folded_in_blocks(dataset, "Date", block)
            count, parts = transform_text(dataset.replace_records(()), SETS, write_arff, fold)
            assert [r.getMessage() for r in caplog.records] == warnings
            texts.append((count, "".join(parts)))
        assert texts == [(3, write_arff(expected))] * 2
        assert bool(compactions) == (records is not None)

    @pytest.mark.parametrize("records", [1, 2, 3])
    def test_random_compacted_groups_match_the_naive_oracle(self, monkeypatch, records):
        rng = random.Random(records)
        cases = [random_transform_dataset(rng, max_groups=4, max_group_size=12) for _ in range(80)]
        expected = [self._uncompacted(monkeypatch, *case) for case in cases]
        monkeypatch.setattr(TRANSFORM_MODULE, "COMPACT_RECORDS", records)
        monkeypatch.delattr(os, "fork")
        for (dataset, config), whole in zip(cases, expected):
            out = transform(dataset, config)
            assert repr(out.records) == repr(whole.records)
            assert rows_match(out.records, naive_transform_rows(dataset, config))
            fold = _folded_in_blocks(dataset, "key", rng.randint(1, 4))
            count, parts = transform_text(dataset.replace_records(()), config, write_csv, fold)
            assert (count, "".join(parts)) == (len(whole.records), write_csv(whole))

    def test_a_class_seen_only_in_compacted_records_has_a_value(self, monkeypatch):
        monkeypatch.setattr(TRANSFORM_MODULE, "COMPACT_RECORDS", 2)
        schema = (AttributeSpec.string("Date"), AttributeSpec.numeric("Wave"), SURF_SCHEMA[-1])
        records = (("d0", None, 1), ("d0", None, 1), ("d0", None, None), ("d1", None, None))
        fold = _folded_in_blocks(Dataset("unnamed", schema, records), "Date", 1)
        assert fold.has_value(2)  # its cells are gone: the state holds it
        assert not fold.has_value(1)
        groups = fold.take_groups(schema)
        assert [(key, cells) for key, cells, _ in groups] == [
            ("d0", ["d0", None, None]), ("d1", ["d1", None, None])
        ]

    def test_a_whole_dataset_is_folded_without_states(self, monkeypatch):
        """``fold_dataset`` holds every cell already: folding them into
        states would save nothing, so the library ``transform`` and
        ``--sort-by`` aggregate whole groups."""
        monkeypatch.setattr(TRANSFORM_MODULE, "COMPACT_RECORDS", 1)
        compactions = self._counting_compactions(monkeypatch)
        dataset = _edge_dataset()
        fold = GroupFold("Date").fold_dataset(dataset)
        assert [state for _, _, state in fold.take_groups(dataset.schema)] == [None] * 3
        transform(dataset, SETS)
        assert compactions == []

    def test_states_follow_the_kind_of_each_column(self, monkeypatch):
        """A numeric column whose cells are ints, as a library Dataset may
        hold them, folds into a numeric state, as ``_plan`` aggregates it."""
        monkeypatch.setattr(TRANSFORM_MODULE, "COMPACT_RECORDS", 2)
        monkeypatch.delattr(os, "fork")
        schema = (AttributeSpec.string("Date"), AttributeSpec.numeric("Wave"), SURF_SCHEMA[-1])
        waves = (3, -1, 4, None, 1, 5)
        records = tuple(("d0", v, n % 2) for n, v in enumerate(waves)) + (("d1", 2, 0),)
        dataset = Dataset("ints", schema, records)
        whole = transform(dataset, SETS)
        assert rows_match(whole.records, naive_transform_rows(dataset, SETS))
        fold = _folded_in_blocks(dataset, "Date", 1)
        count, parts = transform_text(dataset.replace_records(()), SETS, write_arff, fold)
        assert (count, "".join(parts)) == (2, write_arff(whole))
