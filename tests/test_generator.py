from collections import Counter

import pytest

from sppam import ConfigError, TransformConfig, gen_surf, group_records, transform

CONFIG = TransformConfig("Date", "Sets")


def day_buckets(dataset):
    date_j = dataset.attribute_index("Date")
    buckets = {}
    for record in dataset.records:
        buckets.setdefault(record[date_j], []).append(record)
    return buckets


def test_default_shape():
    dataset = gen_surf()
    assert len(dataset.records) == 192
    assert len(dataset.schema) == 10
    assert len(group_records(dataset, "Date")) == 48
    kinds = Counter(a.kind for a in dataset.schema)
    assert kinds == {"numeric": 5, "nominal": 4, "string": 1}


def test_deterministic():
    assert gen_surf(seed=3) == gen_surf(seed=3)
    assert gen_surf(seed=3) != gen_surf(seed=4)


def test_record_mode_day_class_counts_survive_transform():
    dataset = gen_surf(days=48, per_day=4, seed=0, labels="record", zero_days=18)
    class_j = dataset.attribute_index("Sets")
    # day label = class of the day's final record, recomputed naively
    day_labels = [rows[-1][class_j] for rows in day_buckets(dataset).values()]
    assert sorted(Counter(day_labels).items()) == [(0, 18), (1, 30)]

    daily = transform(dataset, CONFIG)
    assert len(daily.records) == 48
    assert sorted(Counter(daily.column("Sets")).items()) == [(0, 18), (1, 30)]


def test_group_mean_mode_labels_follow_day_means():
    dataset = gen_surf(days=48, per_day=4, seed=2, labels="group-mean")
    class_j = dataset.attribute_index("Sets")
    wave_j = dataset.attribute_index("Wave")
    mean_by_label = {0: [], 1: []}
    for rows in day_buckets(dataset).values():
        labels = {r[class_j] for r in rows}
        assert len(labels) == 1  # constant within a day
        mean = sum(r[wave_j] for r in rows) / len(rows)
        mean_by_label[labels.pop()].append(mean)
    # the day-mean of the driving attribute separates the classes exactly
    assert max(mean_by_label[0]) < min(mean_by_label[1])
    assert len(mean_by_label[0]) == 24
    assert len(mean_by_label[1]) == 24


def test_bad_arguments_rejected():
    with pytest.raises(ConfigError):
        gen_surf(days=0)
    with pytest.raises(ConfigError):
        gen_surf(labels="banana")
    with pytest.raises(ConfigError):
        gen_surf(zero_days=100, days=10)
    for flip_rate in (2.0, -0.5, 1.0000001, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ConfigError, match="flip_rate"):
            gen_surf(days=4, zero_days=1, flip_rate=flip_rate)


@pytest.mark.parametrize("flip_rate", [0.0, 1.0])
def test_flip_rate_bounds_are_accepted(flip_rate):
    dataset = gen_surf(days=4, zero_days=1, flip_rate=flip_rate)
    assert len(dataset.records) == 16
