import random
from collections import Counter

import pytest

from helpers import oracle_group_folds
from sppam import AttributeSpec, ConfigError, Dataset, DatasetError, gen_surf, group_stratified_folds
from sppam.transform import group_records


def grouped_dataset(group_sizes, classes_per_record=None, n_classes=2):
    """Dataset with one string group key and a nominal class."""
    schema = (
        AttributeSpec.string("key"),
        AttributeSpec.nominal("label", tuple(f"c{i}" for i in range(n_classes))),
    )
    records = []
    rng = random.Random(42)
    r = 0
    for g, size in enumerate(group_sizes):
        for _ in range(size):
            cls = classes_per_record[r] if classes_per_record else rng.randrange(n_classes)
            records.append((f"g{g}", cls))
            r += 1
    return Dataset("unnamed", schema, tuple(records))


def test_two_groups_two_folds_forced_partition():
    dataset = grouped_dataset([4, 4])
    folds = group_stratified_folds(dataset, 2, "label", "key", seed=0)
    assert set(folds.fold_of_record[:4]) != set(folds.fold_of_record[4:])
    assert len(set(folds.fold_of_record[:4])) == 1
    assert len(set(folds.fold_of_record[4:])) == 1


def test_48_singleton_groups_pigeonhole_sizes():
    dataset = grouped_dataset([1] * 48)
    folds = group_stratified_folds(dataset, 10, "label", "key", seed=0)
    sizes = sorted(Counter(folds.fold_of_record).values())
    assert sizes == [4, 4, 5, 5, 5, 5, 5, 5, 5, 5]


def test_partition_properties_random_structures():
    rng = random.Random(1)
    for _ in range(40):
        n_groups = rng.randint(2, 40)
        sizes = [rng.randint(1, 8) for _ in range(n_groups)]
        dataset = grouped_dataset(sizes, n_classes=rng.randint(2, 4))
        k = rng.randint(2, n_groups)
        folds = group_stratified_folds(dataset, k, "label", "key", seed=rng.randrange(999))
        assert len(folds.fold_of_record) == len(dataset.records)
        assert set(folds.fold_of_record) == set(range(k))  # no fold is empty
        for group in group_records(dataset, "key"):
            fold_set = {folds.fold_of_record[i] for i in group.member_indices}
            assert len(fold_set) == 1


def test_ungrouped_stratification_within_one_per_class():
    rng = random.Random(2)
    for _ in range(30):
        n = rng.randint(20, 120)
        n_classes = rng.randint(2, 3)
        classes = [rng.randrange(n_classes) for _ in range(n)]
        dataset = grouped_dataset([1] * n, classes_per_record=classes, n_classes=n_classes)
        k = rng.randint(2, 10)
        folds = group_stratified_folds(dataset, k, "label", seed=rng.randrange(999))
        for c in range(n_classes):
            per_fold = Counter(
                folds.fold_of_record[i] for i in range(n) if classes[i] == c
            )
            counts = [per_fold.get(f, 0) for f in range(k)]
            assert max(counts) - min(counts) <= 1


def test_deterministic_under_seed():
    dataset = grouped_dataset([3, 1, 4, 1, 5, 9, 2, 6])
    a = group_stratified_folds(dataset, 4, "label", "key", seed=7)
    b = group_stratified_folds(dataset, 4, "label", "key", seed=7)
    c = group_stratified_folds(dataset, 4, "label", "key", seed=8)
    assert a == b
    assert a != c or a.fold_of_record == c.fold_of_record  # different seed may differ


def test_k_exceeding_group_count_rejected():
    dataset = grouped_dataset([2, 2, 2])
    with pytest.raises(ConfigError):
        group_stratified_folds(dataset, 4, "label", "key")


def test_k_exceeding_record_count_rejected():
    dataset = grouped_dataset([1, 1])
    with pytest.raises(ConfigError):
        group_stratified_folds(dataset, 3, "label")


def test_unknown_group_attribute_rejected():
    dataset = grouped_dataset([2, 2])
    with pytest.raises(DatasetError):
        group_stratified_folds(dataset, 2, "label", "nope")


def test_fold_of_record_holds_out_whole_groups():
    dataset = grouped_dataset([3, 3, 3, 3])
    folds = group_stratified_folds(dataset, 3, "label", "key", seed=0)
    held_out = [[] for _ in range(3)]
    for i, fold in enumerate(folds.fold_of_record):
        held_out[fold].append(i)
    assert sorted(map(len, held_out)) == [3, 3, 6]
    for test in held_out:  # records 3g, 3g+1 and 3g+2 are group g
        groups = sorted({i // 3 for i in test})
        assert test == [i for g in groups for i in range(3 * g, 3 * g + 3)]


def test_group_folds_match_exact_oracle_random_structures():
    rng = random.Random(5)
    for _ in range(60):
        n_groups = rng.randint(2, 60)
        sizes = [rng.randint(1, 9) for _ in range(n_groups)]
        dataset = grouped_dataset(sizes, n_classes=rng.randint(2, 4))
        k = rng.randint(2, min(n_groups, 12))
        seed = rng.randrange(999)
        folds = group_stratified_folds(dataset, k, "label", "key", seed=seed)
        assert folds.fold_of_record == oracle_group_folds(dataset, k, "label", "key", seed=seed)


def test_group_folds_match_exact_oracle_on_surf_record_labels():
    """751 days of record labels: the class targets n_c/10 are not binary
    fractions, so a float cost reads some exact ties as unequal."""
    surf = gen_surf(days=751, per_day=4, seed=0, labels="record")
    class_index = surf.attribute_index("Sets")
    labelled = surf.replace_records(r for r in surf.records if r[class_index] is not None)
    folds = group_stratified_folds(labelled, 10, "Sets", "Date", seed=0)
    assert folds.fold_of_record == oracle_group_folds(labelled, 10, "Sets", "Date", seed=0)
