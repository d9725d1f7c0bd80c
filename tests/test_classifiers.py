import math
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import SURF_TWO_DAYS_DAILY
from helpers import oracle_class_log_scores, oracle_fit, posteriors
from sppam import AttributeSpec, ConfigError, Dataset, fit, parse_arff
from sppam.classifiers import CLASSIFIER_KINDS, NB_VARIANCE_FLOOR, PresortedColumns


def single_feature_dataset(rows, feature_kind="numeric", classes=("a", "b")):
    if feature_kind == "numeric":
        feature = AttributeSpec.numeric("x")
    else:
        feature = AttributeSpec.nominal("x", ("u", "v", "w"))
    schema = (feature, AttributeSpec.nominal("label", classes))
    return Dataset("unnamed", schema, tuple(rows))


def brute_force_posteriors(dataset, class_attribute, record):
    """Direct probability-space Bayes evaluation from raw counts/moments."""
    class_j = dataset.attribute_index(class_attribute)
    rows = [r for r in dataset.records if r[class_j] is not None]
    class_values = dataset.schema[class_j].values
    k = len(class_values)
    joint = []
    for c in range(k):
        class_rows = [r for r in rows if r[class_j] == c]
        p = (len(class_rows) + 1.0) / (len(rows) + k)
        for j, attr in enumerate(dataset.schema):
            if j == class_j or attr.kind == "string":
                continue
            v = record[j]
            if v is None:
                continue
            observed = [r[j] for r in class_rows if r[j] is not None]
            if attr.kind == "numeric":
                if not observed:
                    continue
                mean = sum(observed) / len(observed)
                var = max(
                    sum((x - mean) ** 2 for x in observed) / len(observed),
                    NB_VARIANCE_FLOOR,
                )
                p *= math.exp(-((v - mean) ** 2) / (2.0 * var)) / math.sqrt(
                    2.0 * math.pi * var
                )
            else:
                hits = sum(1 for x in observed if x == v)
                p *= (hits + 1.0) / (len(observed) + len(attr.values))
        joint.append(p)
    total = sum(joint)
    return [p / total for p in joint]


class TestZeroR:
    def test_majority_training_accuracy(self):
        rows = [(float(i), 0) for i in range(9)] + [(float(i), 1) for i in range(39)]
        dataset = single_feature_dataset(rows)
        model = fit("zeror", dataset, "label")
        correct = sum(
            1 for r in dataset.records if model.predict_index(r) == r[1]
        )
        assert model.predict_index(dataset.records[0]) == 1
        assert 100.0 * correct / len(rows) == 81.25

    def test_tie_broken_by_class_domain_order(self):
        dataset = single_feature_dataset([(1.0, 1), (2.0, 0)])
        model = fit("zeror", dataset, "label")
        assert model.predict_index((9.9, None)) == 0


class TestOneR:
    def test_two_record_set_separates_perfectly(self):
        dataset = parse_arff(SURF_TWO_DAYS_DAILY)
        model = fit("oner", dataset, "Surf")
        assert [model.predict_index(r) for r in dataset.records] == [0, 1]

    def test_nominal_rule(self):
        rows = [(0, 0), (0, 0), (1, 1), (1, 1), (2, 0)]
        dataset = single_feature_dataset(rows, feature_kind="nominal")
        model = fit("oner", dataset, "label")
        assert model.predict_index((0, None)) == 0
        assert model.predict_index((1, None)) == 1
        assert model.predict_index((2, None)) == 0

    def test_numeric_discretization_finds_split(self):
        rng = random.Random(0)
        rows = [(rng.uniform(0, 1), 0) for _ in range(20)]
        rows += [(rng.uniform(9, 10), 1) for _ in range(20)]
        dataset = single_feature_dataset(rows)
        model = fit("oner", dataset, "label")
        assert model.predict_index((0.5, None)) == 0
        assert model.predict_index((9.5, None)) == 1

    def test_missing_goes_to_majority_branch(self):
        rows = [(0, 0)] * 5 + [(1, 1)] * 2
        dataset = single_feature_dataset(rows, feature_kind="nominal")
        model = fit("oner", dataset, "label")
        assert model.predict_index((None, None)) == 0


class TestNaiveBayes:
    def test_four_record_toy_matches_hand_computation(self):
        dataset = single_feature_dataset([(1.0, 0), (2.0, 0), (5.0, 1), (7.0, 1)])
        model = fit("naive-bayes", dataset, "label")
        for record in dataset.records + ((3.0, None), (6.5, None)):
            expected = brute_force_posteriors(dataset, "label", record)
            actual = posteriors(model, record)
            for e, a in zip(expected, actual):
                assert a == pytest.approx(e, abs=1e-12)

    def test_missing_feature_skipped(self):
        dataset = single_feature_dataset([(1.0, 0), (2.0, 0), (5.0, 1)])
        model = fit("naive-bayes", dataset, "label")
        prior = posteriors(model, (None, None))
        # with the only feature missing, the posterior is the smoothed prior
        assert prior[0] == pytest.approx(3 / 5, abs=1e-12)

    def test_constant_attribute_uses_variance_floor(self):
        dataset = single_feature_dataset([(2.0, 0), (2.0, 0), (5.0, 1), (5.0, 1)])
        model = fit("naive-bayes", dataset, "label")
        assert model.predict_index((2.0, None)) == 0
        assert model.predict_index((5.0, None)) == 1

    def test_values_near_the_largest_float_do_not_overflow(self):
        big = 1.7976931348623157e308
        # both classes' variances (and class 0's sum) overflow: no Gaussian
        rows = [(big, 0), (big, 0), (1.0, 0), (-big, 1), (2.0, 1)]
        model = fit("naive-bayes", single_feature_dataset(rows), "label")
        assert model.feature_stats[0][2] == [None, None]
        # a finite Gaussian scores a value whose distance to its mean overflows
        rows = [(1.0, 0), (2.0, 0), (5.0, 1)]
        model = fit("naive-bayes", single_feature_dataset(rows), "label")
        assert model.class_log_scores((big, None)) == [-math.inf, -math.inf]

    def test_far_value_scores_by_its_standardised_distance(self):
        # (1e200 - 0)^2 overflows, but class b's variance of 1e300 keeps the
        # standardised distance (1e50)^2 finite, so b wins instead of class 0
        rows = [(1.0, 0), (2.0, 0), (-1e150, 1), (1e150, 1)]
        model = fit("naive-bayes", single_feature_dataset(rows), "label")
        score_a, score_b = model.class_log_scores((1e200, None))
        assert score_a == -math.inf
        assert score_b == pytest.approx(-5e99, rel=1e-9)
        assert model.predict_index((1e200, None)) == 1

    def test_all_classes_beyond_the_float_range_pick_the_nearest(self):
        # x = 1e200 overflows every standardised square; class b's distance
        # (about 2e200) is far below class a's (about 3e204), so b wins
        # although it is not class 0
        rows = [(5.0, 0), (1.0, 1), (2.0, 1)]
        model = fit("naive-bayes", single_feature_dataset(rows), "label")
        assert model.class_log_scores((1e200, None)) == [-math.inf, -math.inf]
        assert model.predict_index((1e200, None)) == 1
        rows = [(1.0, 0), (2.0, 0), (5.0, 1)]
        model = fit("naive-bayes", single_feature_dataset(rows), "label")
        assert model.predict_index((1e200, None)) == 0

    def test_random_datasets_match_brute_force(self):
        rng = random.Random(17)
        for _ in range(40):
            dataset = _random_labeled_dataset(rng, max_records=30)
            model = fit("naive-bayes", dataset, "label")
            for record in dataset.records:
                expected = brute_force_posteriors(dataset, "label", record)
                actual = posteriors(model, record)
                for e, a in zip(expected, actual):
                    assert a == pytest.approx(e, abs=1e-9)


class TestDecisionStump:
    def test_separable_set_is_perfect(self):
        rows = [(-1.0 - i / 7.0, 0) for i in range(15)]
        rows += [(1.0 + i / 7.0, 1) for i in range(15)]
        dataset = single_feature_dataset(rows)
        model = fit("decision-stump", dataset, "label")
        assert all(model.predict_index(r) == r[1] for r in dataset.records)

    def test_nominal_split(self):
        rows = [(0, 0)] * 4 + [(1, 1)] * 4 + [(2, 1)] * 2
        dataset = single_feature_dataset(rows, feature_kind="nominal")
        model = fit("decision-stump", dataset, "label")
        assert model.predict_index((0, None)) == 0
        assert model.predict_index((1, None)) == 1
        assert model.predict_index((2, None)) == 1

    def test_missing_goes_to_majority_branch(self):
        rows = [(1.0, 0)] * 6 + [(9.0, 1)] * 3
        dataset = single_feature_dataset(rows)
        model = fit("decision-stump", dataset, "label")
        assert model.predict_index((None, None)) == 0


def _random_labeled_dataset(rng, max_records=30):
    attrs = [AttributeSpec.numeric("n0"), AttributeSpec.nominal("m0", ("p", "q", "r"))]
    if rng.random() < 0.5:
        attrs.append(AttributeSpec.numeric("n1"))
    attrs.append(AttributeSpec.nominal("label", ("a", "b", "c")[: rng.randint(2, 3)]))
    schema = tuple(attrs)
    n_classes = len(schema[-1].values)
    records = []
    for _ in range(rng.randint(4, max_records)):
        row = []
        for attr in schema[:-1]:
            if rng.random() < 0.1:
                row.append(None)
            elif attr.kind == "numeric":
                row.append(rng.uniform(-10.0, 10.0))
            else:
                row.append(rng.randrange(len(attr.values)))
        row.append(rng.randrange(n_classes))
        records.append(tuple(row))
    return Dataset("unnamed", schema, tuple(records))


def test_string_attributes_never_used():
    schema = (
        AttributeSpec.string("id"),
        AttributeSpec.numeric("x"),
        AttributeSpec.nominal("label", ("a", "b")),
    )
    records = (("r1", 1.0, 0), ("r2", 2.0, 0), ("r3", 8.0, 1), ("r4", 9.0, 1))
    dataset = Dataset("unnamed", schema, records)
    for kind in ("oner", "naive-bayes", "decision-stump"):
        model = fit(kind, dataset, "label")
        # an unseen id never influences the prediction
        assert model.predict_index(("zzz", 1.5, None)) == model.predict_index(
            ("r1", 1.5, None)
        )


def test_deterministic_fits():
    rng = random.Random(23)
    dataset = _random_labeled_dataset(rng)
    for kind in ("zeror", "oner", "naive-bayes", "decision-stump"):
        a = fit(kind, dataset, "label")
        b = fit(kind, dataset, "label")
        assert [a.predict_index(r) for r in dataset.records] == [
            b.predict_index(r) for r in dataset.records
        ]


def test_missing_class_records_ignored():
    dataset = single_feature_dataset([(1.0, 0), (2.0, None), (3.0, 0)])
    model = fit("zeror", dataset, "label")
    assert model.predict_index((1.0, None)) == 0


def test_empty_training_rejected():
    dataset = single_feature_dataset([])
    with pytest.raises(ConfigError, match="empty training set"):
        fit("zeror", dataset, "label")


def test_unknown_kind_rejected():
    dataset = single_feature_dataset([(1.0, 0)])
    with pytest.raises(ConfigError, match="valid kinds"):
        fit("j48", dataset, "label")


# Values whose midpoints round onto a neighbour or overflow to infinity,
# which the class-count errors must not be trusted for.
LARGEST = 1.7976931348623157e308
EDGE_VALUES = (0.0, -0.0, 1.0, 5e-324, -5e-324, LARGEST, -LARGEST, 1.5e308, -1.5e308)


def _with_neighbours(x):
    """``x`` with up to two float neighbours on each side."""
    out = [x]
    for direction in (math.inf, -math.inf):
        y = x
        for _ in range(2):
            y = math.nextafter(y, direction)
            if math.isfinite(y):
                out.append(y)
    return st.lists(st.sampled_from(out), min_size=1, max_size=3)


_anchors = st.sampled_from(EDGE_VALUES) | st.integers(-3, 3).map(float) | st.floats(
    allow_nan=False, allow_infinity=False
)


@st.composite
def classifier_datasets(draw):
    """Small datasets with 2-4 classes, nominal and numeric features,
    missing cells and unlabelled rows; numeric cells come from a few
    anchors and their float neighbours, so values repeat and adjacent
    floats and near-overflow pairs meet at cut points."""
    n_classes = draw(st.integers(2, 4))
    schema, cells = [], []
    for f in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            pool = [v for anchor in draw(st.lists(_anchors, min_size=1, max_size=4))
                    for v in draw(_with_neighbours(anchor))]
            schema.append(AttributeSpec.numeric(f"x{f}"))
            cells.append(st.sampled_from(pool))
        else:
            size = draw(st.integers(1, 4))
            schema.append(AttributeSpec.nominal(f"x{f}", [f"v{v}" for v in range(size)]))
            cells.append(st.integers(0, size - 1))
    class_position = draw(st.integers(0, len(schema)))
    label = AttributeSpec.nominal("label", [f"c{c}" for c in range(n_classes)])
    schema.insert(class_position, label)
    cells.insert(class_position, st.integers(0, n_classes - 1))
    # a cell is missing when its draw from 0-9 falls below this
    missing_tenths = draw(st.sampled_from((0, 1, 4)))
    rows = draw(st.lists(
        st.tuples(*(_maybe_missing(cell, missing_tenths) for cell in cells)),
        min_size=1, max_size=40,
    ))
    return Dataset("random", tuple(schema), tuple(rows))


def _maybe_missing(cell, missing_tenths):
    return st.tuples(st.integers(0, 9), cell).map(
        lambda drawn: None if drawn[0] < missing_tenths else drawn[1]
    )


def _edge_dataset(rows):
    schema = (
        AttributeSpec.numeric("x0"),
        AttributeSpec.nominal("x1", ("u", "v")),
        AttributeSpec.nominal("label", ("a", "b")),
    )
    return Dataset("edge", schema, tuple(rows))


ABOVE_ONE, BELOW_ONE = math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0)
# OneR: the midpoint of 1.0 and its upper neighbour rounds to 1.0
ONER_EDGE = _edge_dataset([
    (0.0, 0, 1), (ABOVE_ONE, 1, 1), (ABOVE_ONE, 0, 0), (1.0, 1, 1), (ABOVE_ONE, 0, 0), (0.0, 1, 0),
])
# stump: the midpoint of 1.0 and its lower neighbour rounds to 1.0
STUMP_EDGE = _edge_dataset([(BELOW_ONE, 0, 0), (1.0, 1, 1)])
# both: the midpoint of 1.5e308 and the largest float overflows to inf
OVERFLOW_EDGE = _edge_dataset([
    (0.0, 1, 0), (0.0, 0, 0), (0.0, 1, 1), (0.0, 0, 1),
    (LARGEST, 0, 0), (1.5e308, 1, 1), (1.5e308, 1, 1), (LARGEST, 0, 0),
])
# naive Bayes: -0.0 and 0.0, in different classes, share one run; class a's
# three 0.1s and three 0.7s sum to 2.4, but 3 * 0.1 + 3 * 0.7 rounds to
# 2.3999999999999995; the unlabelled row is in no class
SIGNED_ZERO_EDGE = _edge_dataset([
    (-0.0, 0, 0), (0.1, 1, 0), (0.7, 0, 0), (0.1, 0, 0), (0.7, 1, 0), (0.1, 1, 0), (0.7, 0, 0),
    (0.0, 1, 1), (0.7, 0, 1), (1.0, 0, 1), (5.0, 1, None),
])


@settings(max_examples=1000)
@given(classifier_datasets(), st.sampled_from(CLASSIFIER_KINDS), st.randoms())
@example(ONER_EDGE, "oner", random.Random(0))
@example(STUMP_EDGE, "decision-stump", random.Random(0))
@example(OVERFLOW_EDGE, "oner", random.Random(0))
@example(OVERFLOW_EDGE, "decision-stump", random.Random(0))
@example(OVERFLOW_EDGE, "naive-bayes", random.Random(0))
@example(SIGNED_ZERO_EDGE, "naive-bayes", random.Random(0))
def test_fit_matches_per_row_oracle(dataset, kind, rng):
    """Every kind fitted from the training view's shared counts and
    presorted columns equals the oracle's model, fitted directly and on a
    view that holds some records out of a presort."""
    class_index = dataset.attribute_index("label")
    if all(r[class_index] is None for r in dataset.records):
        with pytest.raises(ConfigError):
            fit(kind, dataset, "label")
        return
    assert fit(kind, dataset, "label") == oracle_fit(kind, dataset, "label")

    n = len(dataset.records)
    indices = sorted(rng.sample(range(n), rng.randint(1, n)))
    subset = dataset.replace_records(dataset.records[i] for i in indices)
    if all(r[class_index] is None for r in subset.records):
        return
    held_out = sorted(set(range(n)) - set(indices))
    training_set = PresortedColumns(dataset, "label").without(held_out)
    assert training_set.records == subset.records
    assert fit(kind, training_set, "label") == oracle_fit(kind, subset, "label")


_FAR_CELLS = (None, 1e200, -1e200, LARGEST, -LARGEST)


@settings(max_examples=500)
@given(classifier_datasets(), st.data())
def test_class_log_scores_match_the_per_feature_oracle(dataset, data):
    """The per-class compiled scorer adds the same terms in the same order
    as scoring feature by feature, so every score is bit-identical, also
    for missing cells and distances whose square overflows."""
    class_index = dataset.attribute_index("label")
    assume(any(r[class_index] is not None for r in dataset.records))
    model = fit("naive-bayes", dataset, "label")
    far = tuple(
        data.draw(st.sampled_from(_FAR_CELLS if attr.kind == "numeric" else (None, 0)))
        for attr in dataset.schema
    )
    for record in (*dataset.records, far):
        expected = oracle_class_log_scores(model, record)
        assert list(map(float.hex, model.class_log_scores(record))) == list(map(float.hex, expected))


def direct_counts(train, j):
    """Column j's class counts over the training set's labelled rows with a
    value, counted row by row: ``{value: per-class counts}``."""
    counts = {}
    for r in train.records:
        if r[j] is not None and r[2] is not None:
            counts.setdefault(r[j], [0, 0])[r[2]] += 1
    return counts


def runs_as_counts(runs):
    values, per_class = runs
    return dict(zip(values, map(list, zip(*per_class))))


def test_training_set_counts_each_column_once_for_all_learners():
    rng = random.Random(21)
    schema = (
        AttributeSpec.numeric("x0"),
        AttributeSpec.numeric("x1"),
        AttributeSpec.nominal("label", ("a", "b")),
        AttributeSpec.nominal("x3", ("u", "v", "w")),
    )
    rows = [
        (
            rng.choice([0.5, 1.0, 2.0, None]),
            rng.uniform(-1.0, 1.0),
            rng.choice([0, 1, 1, None]),
            rng.choice([0, 1, 2, None]),
        )
        for _ in range(60)
    ]
    train = PresortedColumns(Dataset("shared", schema, tuple(rows)), "label").without(
        sorted(set(range(60)) - set(rng.sample(range(60), 45)))
    )
    before = [train.runs(j) for j in (0, 1)]
    table = train.value_counts(3)
    counts = train.class_counts
    for kind in CLASSIFIER_KINDS:
        fit(kind, train, "label")
    for j, first in zip((0, 1), before):
        assert train.runs(j) is first
        assert first[0] == sorted(first[0])
        assert runs_as_counts(first) == direct_counts(train, j)
    assert train.value_counts(3) is table
    assert train.class_counts is counts
    labelled = [r for r in train.records if r[2] is not None]
    assert counts == [sum(1 for r in labelled if r[2] == c) for c in (0, 1)]
    by_value = direct_counts(train, 3)
    assert table == [by_value.get(v, [0, 0]) for v in (0, 1, 2)]


_SIGNED_ZEROS = st.sampled_from([0.0, -0.0, 1.0, -2.5, None])


@settings(max_examples=300)
@given(
    st.lists(
        st.tuples(_SIGNED_ZEROS, st.sampled_from([0, 1, 2, None]), st.sampled_from([0, 1, None])),
        min_size=1, max_size=30,
    ),
    st.randoms(),
)
def test_training_set_counts_equal_direct_counts(rows, rng):
    """Totals minus the held-out records equal counting the training rows,
    with unlabelled records, missing cells and both signed zeros."""
    schema = (
        AttributeSpec.numeric("x"),
        AttributeSpec.nominal("m", ("u", "v", "w")),
        AttributeSpec.nominal("label", ("a", "b")),
    )
    held_out = rng.sample(range(len(rows)), rng.randint(0, len(rows)))  # in any order
    train = PresortedColumns(Dataset("counts", schema, tuple(rows)), "label").without(held_out)
    assert train.records == tuple(r for i, r in enumerate(rows) if i not in held_out)
    labelled = [r for r in train.records if r[2] is not None]
    assert train.class_counts == [sum(1 for r in labelled if r[2] == c) for c in (0, 1)]
    by_value = direct_counts(train, 1)
    assert train.value_counts(1) == [by_value.get(v, [0, 0]) for v in (0, 1, 2)]
    values, per_class = train.runs(0)
    assert values == sorted(direct_counts(train, 0))
    assert runs_as_counts((values, per_class)) == direct_counts(train, 0)


def test_presorted_training_set_rejects_repeated_indices():
    dataset = single_feature_dataset([(1.0, 0), (2.0, 1), (3.0, 1)])
    with pytest.raises(ValueError, match="distinct"):
        PresortedColumns(dataset, "label").without([0, 1, 1])


def test_fit_refuses_a_view_presorted_on_another_class():
    schema = (AttributeSpec.nominal("x", ("u", "v")), AttributeSpec.nominal("label", ("a", "b")))
    view = PresortedColumns(Dataset("two", schema, ((0, 0), (1, 1))), "label").without(())
    with pytest.raises(ConfigError, match="of class 'label', not 'x'"):
        fit("zeror", view, "x")
