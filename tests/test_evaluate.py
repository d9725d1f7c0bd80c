import math
import os
import random

import pytest

import sppam.evaluate
from helpers import assert_no_child_left, counting_forks, on_two_cpus
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
    parse_arff,
    parse_csv,
    transform,
    write_arff,
    write_csv,
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
    monkeypatch.delattr(os, "fork")  # in order: a forked child's calls are not counted here
    dataset = labeled_dataset(48)
    compare_datasets(dataset, dataset, CLASSIFIER_KINDS, "label", k=4, repeats=2, seed=5)
    assert calls == [5, 6, 5, 6]  # 2 datasets x 2 repeats, not x 4 kinds as well


def _reversed_class_domain(dataset, class_attribute):
    j = dataset.attribute_index(class_attribute)
    values = dataset.schema[j].values
    schema = list(dataset.schema)
    schema[j] = AttributeSpec.nominal(class_attribute, values[::-1])
    return Dataset(dataset.relation_name, schema, (
        (*r[:j], None if r[j] is None else len(values) - 1 - r[j], *r[j + 1:])
        for r in dataset.records
    ))


def test_compare_reads_a_reordered_class_domain_in_the_original_order():
    original = gen_surf(days=40, labels="group-mean", seed=1)
    daily = transform(original, TransformConfig("Date", "Sets"))
    reordered = _reversed_class_domain(daily, "Sets")
    assert reordered.attribute("Sets").values == ("1", "0")
    args = (CLASSIFIER_KINDS, "Sets")
    kwargs = dict(k=4, repeats=2, seed=2, group_attribute="Date")
    assert (
        compare_datasets(original, reordered, *args, **kwargs)
        == compare_datasets(original, daily, *args, **kwargs)
    )


def test_compare_rejects_a_class_label_missing_from_the_original():
    original = labeled_dataset(20)
    widened = Dataset("unnamed", (
        AttributeSpec.numeric("x"), AttributeSpec.nominal("label", ("b", "a", "c")),
    ), original.records)
    with pytest.raises(SppamError, match=r"class domains differ between datasets: \('a', 'b'\) vs \('b', 'a', 'c'\)"):
        compare_datasets(original, widened, ["oner"], "label", k=4, repeats=1)


def test_unknown_kind_rejected_before_any_fold(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("folds were assigned")

    monkeypatch.setattr(sppam.evaluate, "group_stratified_folds", refuse)
    with pytest.raises(ConfigError, match="unknown classifier 'J48'; valid kinds: zeror, oner"):
        cross_validate(labeled_dataset(20), ["oner", "J48"], "label", k=5, repeats=1)


def test_kinds_are_reported_in_lower_case():
    dataset = labeled_dataset(20)
    [result] = cross_validate(dataset, ["OneR"], "label", k=4, repeats=1)
    assert result.classifier == "oner"
    [row] = compare_datasets(dataset, dataset, ["ZeroR"], "label", k=4, repeats=1).rows
    assert row.classifier == row.original.classifier == row.transformed.classifier == "zeror"


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


def _messages(caplog):
    return [(r.levelname, r.getMessage()) for r in caplog.records]


def test_an_identifier_feature_is_reported_once_per_call(caplog):
    """A CSV carries no types, so a transform's group key read back from
    CSV is a nominal with one value per record; its ARFF twin declares it
    a string, which no learner reads."""
    original = gen_surf(days=30, labels="group-mean", seed=1)
    daily = transform(original, TransformConfig("Date", "Sets"))
    as_csv = parse_csv(write_csv(daily, 2), nominal_columns=("Sets",))
    as_arff = parse_arff(write_arff(daily, 2))
    assert as_csv.attribute("Date").kind == "nominal"
    caplog.clear()
    cross_validate(as_arff, ["oner"], "Sets", k=5, repeats=2)
    assert _messages(caplog) == []
    cross_validate(as_csv, ["oner", "zeror"], "Sets", k=5, repeats=2)
    assert _messages(caplog) == [(
        "WARNING",
        "attribute 'Date' has a different value on each of the 30 labelled records; "
        "as a feature it can only memorise the records",
    )]


def test_a_nominal_missing_or_shared_on_a_labelled_record_is_not_reported(caplog):
    rng = random.Random(0)
    names = [f"r{i}" for i in range(20)]
    schema = (AttributeSpec.nominal("id", names), AttributeSpec.nominal("label", ("a", "b")))
    records = [(i, rng.randrange(2)) for i in range(20)]
    dataset = Dataset("unnamed", schema, records)
    cross_validate(dataset, ["oner"], "label", k=4, repeats=1)
    assert "'id'" in caplog.text
    caplog.clear()
    records[0] = (None, records[0][1])
    cross_validate(dataset.replace_records(records), ["oner"], "label", k=4, repeats=1)
    records[0] = (1, records[0][1])  # r1 now on two records
    cross_validate(dataset.replace_records(records), ["oner"], "label", k=4, repeats=1)
    assert _messages(caplog) == []


def test_compare_without_groups_says_its_folds_ignore_them(caplog):
    original = gen_surf(days=24, labels="group-mean", seed=1)
    daily = transform(original, TransformConfig("Date", "Sets"))
    caplog.clear()
    args = (original, daily, ["zeror"], "Sets")
    kwargs = dict(k=4, repeats=1, original_name="surf.arff")
    compare_datasets(*args, group_attribute="Date", **kwargs)
    assert _messages(caplog) == []
    compare_datasets(*args, **kwargs)
    assert _messages(caplog) == [(
        "WARNING",
        "no group attribute: the folds on surf.arff ignore groups, so records of one "
        "group can land on both sides of a split",
    )]


def _unlabelled(dataset, class_attribute):
    j = dataset.attribute_index(class_attribute)
    return dataset.replace_records((*r[:j], None, *r[j + 1:]) for r in dataset.records)


def test_compare_in_a_forked_child_matches_compare_in_order(monkeypatch):
    original = gen_surf(days=40, labels="group-mean", seed=3)
    daily = transform(original, TransformConfig("Date", "Sets"))
    args = (original, daily, CLASSIFIER_KINDS, "Sets")
    kwargs = dict(k=5, repeats=2, seed=1, group_attribute="Date")
    forks = counting_forks(monkeypatch)
    forked = compare_datasets(*args, **kwargs)
    assert forks == [1]
    assert_no_child_left()
    monkeypatch.delattr(os, "fork")
    assert forked == compare_datasets(*args, **kwargs)


def test_compare_runs_in_order_when_the_fork_fails(monkeypatch):
    def refuse():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    dataset = labeled_dataset(40)
    args = (dataset, dataset, ["oner", "naive-bayes"], "label")
    expected = compare_datasets(*args, k=4, repeats=2)
    monkeypatch.setattr(os, "fork", refuse)
    on_two_cpus(monkeypatch)
    assert compare_datasets(*args, k=4, repeats=2) == expected


def test_an_error_of_the_transformed_side_reaches_the_caller(monkeypatch):
    original = gen_surf(days=20, labels="group-mean", seed=3)
    daily = _unlabelled(transform(original, TransformConfig("Date", "Sets")), "Sets")
    args = (original, daily, ["oner"], "Sets")
    forks = counting_forks(monkeypatch)
    with pytest.raises(ConfigError) as forked:
        compare_datasets(*args, k=4, repeats=1, group_attribute="Date")
    assert forks == [1]
    assert_no_child_left()
    monkeypatch.delattr(os, "fork")
    with pytest.raises(ConfigError) as in_order:
        compare_datasets(*args, k=4, repeats=1, group_attribute="Date")
    assert type(forked.value) is type(in_order.value)
    assert str(forked.value) == str(in_order.value) == "no labeled records to evaluate"


def test_an_error_of_the_original_side_stops_the_child(monkeypatch):
    original = gen_surf(days=20, labels="group-mean", seed=3)
    daily = transform(original, TransformConfig("Date", "Sets"))
    forks = counting_forks(monkeypatch)
    with pytest.raises(ConfigError, match="no labeled records to evaluate"):
        compare_datasets(_unlabelled(original, "Sets"), daily, ["oner"], "Sets",
                         k=4, repeats=1, group_attribute="Date")
    assert forks == [1]
    assert_no_child_left()


def test_a_child_that_ends_without_a_result_is_an_error(monkeypatch):
    original = gen_surf(days=20, labels="group-mean", seed=3)
    daily = transform(original, TransformConfig("Date", "Sets"))
    cross_validate_, parent = sppam.evaluate.cross_validate, os.getpid()

    def dying(dataset, *args, **kwargs):
        if dataset is daily:
            assert os.getpid() != parent, "the transformed side did not fork"
            os._exit(3)
        return cross_validate_(dataset, *args, **kwargs)

    monkeypatch.setattr(sppam.evaluate, "cross_validate", dying)
    on_two_cpus(monkeypatch)
    with pytest.raises(ChildProcessError, match="ended without a result"):
        compare_datasets(original, daily, ["oner"], "Sets", k=4, repeats=1, group_attribute="Date")
    assert_no_child_left()


def _with_identifier(n, seed):
    """A labelled dataset whose nominal ``id`` tells its ``n`` records apart."""
    dataset = labeled_dataset(n, seed=seed)
    ids = AttributeSpec.nominal("id", tuple(f"r{i}" for i in range(n)))
    return Dataset("unnamed", (ids, *dataset.schema), (
        (i, *record) for i, record in enumerate(dataset.records)
    ))


def test_warnings_of_both_sides_arrive_original_first(monkeypatch, caplog):
    args = (_with_identifier(40, 1), _with_identifier(20, 2), ["oner"], "label")
    kwargs = dict(k=4, repeats=1, original_name="a", transformed_name="b")
    forks = counting_forks(monkeypatch)
    caplog.clear()
    compare_datasets(*args, **kwargs)
    assert forks == [1]
    forked = [(r.name, r.levelname, r.getMessage()) for r in caplog.records]
    identifier = (
        "attribute 'id' has a different value on each of the {} labelled records; "
        "as a feature it can only memorise the records"
    )
    assert forked == [
        ("sppam.evaluate", "WARNING", "no group attribute: the folds on a ignore groups, "
         "so records of one group can land on both sides of a split"),
        ("sppam.evaluate", "WARNING", identifier.format(40)),
        ("sppam.evaluate", "WARNING", identifier.format(20)),
    ]
    monkeypatch.delattr(os, "fork")
    caplog.clear()
    compare_datasets(*args, **kwargs)
    assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == forked
