import math
import random

import pytest

import sppam.evaluate
from sppam import (
    AttributeSpec,
    CLASSIFIER_KINDS,
    ConfigError,
    Dataset,
    SppamError,
    TransformConfig,
    compare_datasets,
    cross_validate,
    fit,
    gen_surf,
    group_stratified_folds,
    transform,
)
from sppam.evaluate import render_compare_csv, render_compare_text, render_eval_csv, render_eval_text
from sppam.metrics import matrix_from_pairs


def labeled_dataset(n, majority_fraction=0.7, seed=4):
    rng = random.Random(seed)
    schema = (
        AttributeSpec.numeric("x"),
        AttributeSpec.nominal("label", ("a", "b")),
    )
    n_major = round(n * majority_fraction)
    records = [(rng.uniform(0, 1), 0) for _ in range(n_major)]
    records += [(rng.uniform(0, 1), 1) for _ in range(n - n_major)]
    rng.shuffle(records)
    return Dataset("unnamed", schema, tuple(records))


def separable_dataset(n=40, seed=5):
    rng = random.Random(seed)
    schema = (
        AttributeSpec.numeric("x"),
        AttributeSpec.nominal("label", ("neg", "pos")),
    )
    records = [(rng.uniform(-10.0, -1.0), 0) for _ in range(n // 2)]
    records += [(rng.uniform(1.0, 10.0), 1) for _ in range(n // 2)]
    rng.shuffle(records)
    return Dataset("unnamed", schema, tuple(records))


def test_zeror_accuracy_near_majority_rate():
    n, k = 60, 10
    dataset = labeled_dataset(n, majority_fraction=0.7)
    [result] = cross_validate(dataset, ["zeror"], "label", k=k, repeats=1, seed=0)
    assert len(result.fold_accuracies) == k
    mean_accuracy = sum(result.fold_accuracies) / len(result.fold_accuracies)
    assert abs(mean_accuracy - 70.0) <= (k / n) * 100.0 + 1e-9


def test_repeats_with_same_seed_are_identical():
    dataset = labeled_dataset(50)
    [a] = cross_validate(dataset, ["naive-bayes"], "label", k=5, repeats=2, seed=9)
    [b] = cross_validate(dataset, ["naive-bayes"], "label", k=5, repeats=2, seed=9)
    assert a.fold_accuracies == b.fold_accuracies
    assert a.metrics == b.metrics


def test_decision_stump_separable_is_perfect():
    [result] = cross_validate(separable_dataset(), ["decision-stump"], "label", k=5, repeats=2, seed=0)
    assert all(acc == 100.0 for acc in result.fold_accuracies)
    assert result.metrics.cci_percent == 100.0


def test_accuracy_vector_length_is_repeats_times_k():
    dataset = labeled_dataset(45)
    [result] = cross_validate(dataset, ["oner"], "label", k=5, repeats=3, seed=1)
    assert len(result.fold_accuracies) == 15
    assert len(result.repeat_matrices) == 3
    for m in result.repeat_matrices:
        assert m.total == 45  # every record scored exactly once per repeat


def test_group_mode_uses_group_folds():
    # 10 groups of 3 identical records each; grouping must keep them together
    schema = (
        AttributeSpec.string("key"),
        AttributeSpec.numeric("x"),
        AttributeSpec.nominal("label", ("a", "b")),
    )
    rng = random.Random(6)
    records = []
    for g in range(10):
        cls = g % 2
        for _ in range(3):
            records.append((f"g{g}", rng.uniform(0, 1), cls))
    dataset = Dataset("unnamed", schema, tuple(records))
    [result] = cross_validate(dataset, ["zeror"], "label", k=5, repeats=1, seed=0,
                              group_attribute="key")
    assert len(result.fold_accuracies) == 5
    assert result.repeat_matrices[0].total == 30


def test_compare_same_dataset_is_a_wash():
    dataset = labeled_dataset(48)
    report = compare_datasets(
        dataset, dataset, ["zeror", "naive-bayes"], "label", k=5, repeats=2, seed=0
    )
    for row in report.rows:
        assert row.cci_delta == 0.0
        assert row.ttest.t_statistic == 0.0
        assert row.verdict == "no-difference"


@pytest.mark.filterwarnings("ignore::sppam.MixedClassGroupWarning")
def test_group_mean_labels_reward_aggregation():
    original = gen_surf(days=24, per_day=4, seed=1, labels="group-mean")
    daily = transform(original, TransformConfig("Date", "Sets"))
    report = compare_datasets(
        original, daily, ["naive-bayes"], "Sets",
        k=6, repeats=2, seed=0, group_attribute="Date",
    )
    row = report.rows[0]
    assert row.cci_delta > 0.0


def test_render_eval_text_columns():
    dataset = labeled_dataset(30)
    [result] = cross_validate(dataset, ["zeror"], "label", k=5, repeats=1, seed=0)
    text = render_eval_text([result])
    assert "CCI%" in text and "Kappa" in text and "F-Meas." in text
    assert "class=a" in text and "average" in text
    assert "0.00" in text  # zeror kappa


def test_render_eval_csv_run_rows():
    dataset = labeled_dataset(30)
    results = cross_validate(dataset, ("zeror", "oner"), "label", k=5, repeats=3, seed=0)
    lines = render_eval_csv(results).splitlines()
    assert lines[0].startswith("classifier,row,key,")
    run_rows = [l for l in lines if ",run," in l]
    assert len(run_rows) == 2 * 15  # repeats * k per classifier


def test_render_compare_outputs():
    dataset = labeled_dataset(48)
    report = compare_datasets(
        dataset, dataset, ["oner", "zeror"], "label", k=4, repeats=1, seed=0,
        original_name="before", transformed_name="after",
    )
    text = render_compare_text(report)
    assert "oner (reference)" in text
    assert "before" in text and "after" in text
    assert "no-difference" in text
    csv_text = render_compare_csv(report)
    assert "verdict" in csv_text.splitlines()[0]
    assert any(line.endswith("no-difference") for line in csv_text.splitlines())


def per_fold_reference(dataset, kind, k, repeats, seed, group_attribute):
    """cross_validate's accuracies and matrices, with every fold's model
    fitted by ``fit`` on a plain ``replace_records`` training set."""
    class_index = dataset.attribute_index("Sets")
    labeled = dataset.replace_records(r for r in dataset.records if r[class_index] is not None)
    accuracies, matrices = [], []
    for r in range(repeats):
        assignment = group_stratified_folds(labeled, k, "Sets", group_attribute, seed=seed + r)
        repeat_pairs = []
        for fold in range(k):
            train_idx, test_idx = assignment.split(fold)
            model = fit(kind, labeled.replace_records(labeled.records[i] for i in train_idx), "Sets")
            pairs = [(labeled.records[i][class_index], model.predict_index(labeled.records[i]))
                     for i in test_idx]
            accuracies.append(100.0 * sum(1 for a, p in pairs if a == p) / len(pairs))
            repeat_pairs += pairs
        matrices.append(matrix_from_pairs(labeled.schema[class_index].values, repeat_pairs))
    return tuple(accuracies), tuple(matrices)


def edge_dataset():
    """gen_surf records plus an extra column of adjacent floats, which puts
    non-separating midpoints into the folds; some cells and labels are
    missing."""
    surf = gen_surf(days=30, per_day=4, seed=2)
    rng = random.Random(8)
    close = [1.0, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0), -0.0, 0.0]
    schema = (*surf.schema, AttributeSpec.numeric("Edge"))
    records = []
    for record in surf.records:
        record = list(record)
        if rng.random() < 0.05:
            record[-1] = None
        if rng.random() < 0.05:
            record[2] = None
        records.append((*record, rng.choice(close + [None])))
    return Dataset("surf", schema, tuple(records))


@pytest.mark.parametrize("group_attribute", [None, "Date"])
@pytest.mark.parametrize("kind", CLASSIFIER_KINDS)
def test_presorted_cross_validate_matches_per_fold_fit(kind, group_attribute):
    dataset = edge_dataset()
    [result] = cross_validate(dataset, [kind], "Sets", k=5, repeats=2, seed=3,
                              group_attribute=group_attribute)
    accuracies, matrices = per_fold_reference(dataset, kind, 5, 2, 3, group_attribute)
    assert result.fold_accuracies == accuracies
    assert result.repeat_matrices == matrices


@pytest.mark.parametrize("group_attribute", [None, "Date"])
def test_all_kinds_in_one_call_match_each_alone(group_attribute):
    dataset = edge_dataset()
    kinds = list(CLASSIFIER_KINDS)
    together = cross_validate(dataset, kinds, "Sets", k=5, repeats=2, seed=3,
                              group_attribute=group_attribute)
    backwards = cross_validate(dataset, kinds[::-1], "Sets", k=5, repeats=2, seed=3,
                               group_attribute=group_attribute)
    assert [r.classifier for r in together] == kinds
    assert [r.classifier for r in backwards] == kinds[::-1]
    for kind, result, reversed_result in zip(kinds, together, backwards[::-1]):
        [alone] = cross_validate(dataset, [kind], "Sets", k=5, repeats=2, seed=3,
                                 group_attribute=group_attribute)
        accuracies, matrices = per_fold_reference(dataset, kind, 5, 2, 3, group_attribute)
        for candidate in (result, reversed_result, alone):
            assert candidate.fold_accuracies == accuracies
            assert candidate.repeat_matrices == matrices
        assert result == reversed_result == alone


def test_compare_assigns_folds_once_per_dataset_and_repeat(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs["seed"])
        return group_stratified_folds(*args, **kwargs)

    monkeypatch.setattr(sppam.evaluate, "group_stratified_folds", counting)
    dataset = labeled_dataset(48)
    compare_datasets(dataset, dataset, CLASSIFIER_KINDS, "label", k=4, repeats=2, seed=5)
    assert calls == [5, 6, 5, 6]  # 2 datasets x 2 repeats, not x 4 kinds as well


def test_kinds_must_be_a_sequence_not_a_string():
    with pytest.raises(ConfigError, match="sequence of names"):
        cross_validate(labeled_dataset(20), "oner", "label", k=5, repeats=1)


def test_compare_rejects_an_unsupported_alpha_before_cross_validating(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("cross_validate ran")

    monkeypatch.setattr(sppam.evaluate, "cross_validate", refuse)
    dataset = labeled_dataset(20)
    with pytest.raises(SppamError, match="unsupported significance level 0.02"):
        compare_datasets(dataset, dataset, CLASSIFIER_KINDS, "label", k=4, repeats=1, alpha=0.02)
