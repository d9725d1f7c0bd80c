"""Reference classifiers: ZeroR, OneR, Gaussian naive Bayes, decision stump.

All models are trained on a Dataset with a nominal class attribute
(``fit``) and predict a class-domain index (``model.predict_index``) or
label (``model.predict``).
String attributes are identifier-like and are never used as features.
Training records with a missing class value are ignored. Ties are always
broken towards the lower class-domain index, so fitting is deterministic
for a given dataset.

Missing feature values are skipped in the naive Bayes product and routed
to the majority branch in OneR and the decision stump. Naive Bayes has no
Gaussian for a class without values or with an overflowing variance; a
value scores ``-inf`` under a Gaussian only when its squared distance to
the mean, in units of the variance, overflows. When every class scores
``-inf``, the class with the smallest summed squared standardised distance
is predicted.

OneR and the stump pick the candidate attribute with the fewest training
errors. A candidate's errors are counted from the per-bin or per-side
class counts it is built from, plus the rows with a missing value whose
class differs from its majority branch's. The class counts equal
predicting every row only when each midpoint threshold separates its two
neighbouring values (``a < t <= b`` for OneR's bins, ``a <= t < b`` for
the stump's ``<=``); for a midpoint that rounds onto a neighbour or
overflows to infinity, the candidate's errors are counted row by row.

Every learner reads one training set, which computes each fact it needs
once for all of them: the labelled rows, the features, the class counts,
each nominal value-by-class table and each numeric column's (value, class)
pairs in sorted order. The sorted pairs come from ``PresortedColumns``,
which sorts each numeric column once per dataset; every training set
filters that order down to its own records. ``cross_validate`` takes one
training set per fold from one presort per dataset, and ``fit`` turns a
plain Dataset into a training set of all its records.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice

from .model import ConfigError, Dataset, float_mean

CLASSIFIER_KINDS = ("zeror", "oner", "naive-bayes", "decision-stump")

ONER_MAX_BINS = 6
ONER_MIN_BUCKET = 3
NB_VARIANCE_FLOOR = 1e-9
# (2 * 1.8e308 / sqrt(NB_VARIANCE_FLOOR) * _FAR_SCALE)**2 is still finite
_FAR_SCALE = 2.0 ** -600


def fit(kind: str, dataset: Dataset, class_attribute: str):
    """Train a classifier of the given kind (all four are deterministic)."""
    normalized = kind.lower()
    if normalized not in _FITTERS:
        raise ConfigError(
            f"unknown classifier {kind!r}; valid kinds: {', '.join(CLASSIFIER_KINDS)}"
        )
    class_index = dataset.attribute_index(class_attribute)
    if dataset.schema[class_index].kind != "nominal":
        raise ConfigError(f"class attribute {class_attribute!r} must be nominal")
    if not (isinstance(dataset, _TrainingSet) and dataset.presorted.class_index == class_index):
        presorted = PresortedColumns(dataset, class_attribute)
        dataset = presorted.training_set(range(len(dataset.records)))
    if not dataset.rows:
        raise ConfigError("empty training set")
    return _FITTERS[normalized](dataset)


class PresortedColumns:
    """A dataset's labelled record indices in (value, class) order, one
    list per numeric column, sorted on first use and shared by every
    training set taken from it."""

    def __init__(self, dataset: Dataset, class_attribute: str) -> None:
        self.dataset = dataset
        self.class_index = dataset.attribute_index(class_attribute)
        self._labelled: list[int] | None = None
        self._orders: dict[int, list[int]] = {}

    def order(self, j: int) -> list[int]:
        order = self._orders.get(j)
        if order is None:
            records, c = self.dataset.records, self.class_index
            if self._labelled is None:
                # one int object per record, referenced by every column's order
                self._labelled = [i for i, r in enumerate(records) if r[c] is not None]
            # stable sorts by class, then by value: (value, class) order
            # without a key tuple per record
            order = sorted(
                (i for i in self._labelled if records[i][j] is not None),
                key=lambda i: records[i][c],
            )
            order.sort(key=lambda i: records[i][j])
            self._orders[j] = order
        return order

    def training_set(self, indices) -> Dataset:
        """The records at ``indices`` (ascending, each once) as a Dataset
        that ``fit`` reads its columns and counts from, its numeric columns
        filtered from this presort."""
        records = self.dataset.records
        in_train = bytearray(len(records))
        for i in indices:
            in_train[i] = 1
        if in_train.count(1) != len(indices):
            raise ValueError("training set indices must be distinct")
        return _TrainingSet(
            self.dataset.relation_name,
            self.dataset.schema,
            tuple(records[i] for i in indices),
            presorted=self,
            in_train=bytes(in_train),
        )


@dataclass(frozen=True)
class _TrainingSet(Dataset):
    """Training records of one fold, with the presort they were taken from
    and one byte per record of the presorted dataset, 1 for those kept.
    Each fact below is computed on first use; learners only read them."""

    presorted: PresortedColumns | None = field(default=None, repr=False, compare=False)
    in_train: bytes = field(default=b"", repr=False, compare=False)
    _columns: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def class_index(self) -> int:
        return self.presorted.class_index

    @property
    def class_values(self) -> tuple[str, ...]:
        return self.schema[self.class_index].values

    @cached_property
    def rows(self) -> list[tuple]:
        """The records with a class value, in training order."""
        c = self.class_index
        return [r for r in self.records if r[c] is not None]

    @cached_property
    def features(self) -> list[int]:
        """Indices of the numeric and nominal attributes other than the class."""
        c = self.class_index
        return [j for j, attr in enumerate(self.schema) if j != c and attr.kind != "string"]

    @cached_property
    def class_counts(self) -> list[int]:
        counts, c = [0] * len(self.class_values), self.class_index
        for row in self.rows:
            counts[row[c]] += 1
        return counts

    def sorted_column(self, j: int) -> tuple[list, list]:
        """Numeric column j's (value, class) pairs in sorted order, as two
        lists: the presorted order filtered to this training set, which
        equals sorting the training set's own pairs."""
        column = self._columns.get(j)
        if column is None:
            presorted, keep = self.presorted, self.in_train
            records, c = presorted.dataset.records, presorted.class_index
            kept = [i for i in presorted.order(j) if keep[i]]
            column = self._columns[j] = [records[i][j] for i in kept], [records[i][c] for i in kept]
        return column

    def value_counts(self, j: int) -> list[list[int]]:
        """Nominal column j's counts, ``table[value][class]``, over the rows
        that have a value."""
        table = self._columns.get(j)
        if table is None:
            c = self.class_index
            table = self._columns[j] = [[0] * len(self.class_values) for _ in self.schema[j].values]
            for row in self.rows:
                if row[j] is not None:
                    table[row[j]][row[c]] += 1
        return table


@dataclass
class _BaseModel:
    class_index: int
    class_values: tuple[str, ...]

    def predict(self, record) -> str:
        return self.class_values[self.predict_index(record)]


@dataclass
class ZeroRModel(_BaseModel):
    """Always predicts the majority training class."""

    majority: int = 0

    def predict_index(self, record) -> int:
        return self.majority


@dataclass
class OneRModel(_BaseModel):
    """Single-attribute rule; numeric attributes are discretized."""

    attribute: int | None = None
    kind: str = "none"
    nominal_rule: tuple[int, ...] = ()
    thresholds: tuple[float, ...] = ()
    bin_rule: tuple[int, ...] = ()
    majority_branch: int = 0
    fallback: int = 0

    def predict_index(self, record) -> int:
        if self.attribute is None:
            return self.fallback
        v = record[self.attribute]
        if v is None:
            return self.majority_branch
        if self.kind == "nominal":
            return self.nominal_rule[v]
        return self.bin_rule[bisect_right(self.thresholds, v)]


@dataclass
class NaiveBayesModel(_BaseModel):
    """Gaussian likelihoods for numerics, add-one frequencies for nominals."""

    log_priors: tuple[float, ...] = ()
    # per feature: (j, "numeric", [(mean, var, log(2 pi var)) or None per class])
    #           or (j, "nominal", [per-class tuple of log P(value|class)])
    feature_stats: list = field(default_factory=list)

    def class_log_scores(self, record) -> list[float]:
        scores = list(self.log_priors)
        for j, kind, per_class in self.feature_stats:
            v = record[j]
            if v is None:
                continue
            if kind == "numeric":
                for c, stats in enumerate(per_class):
                    if stats is None:
                        continue
                    mean, var, log_norm = stats
                    d = v - mean
                    q = d * d / var
                    if q == math.inf:
                        # d * d overflows before the division; (d / sd)^2 may not
                        z = d / math.sqrt(var)
                        q = z * z
                    scores[c] += -0.5 * (log_norm + q)
            else:
                for c, log_probs in enumerate(per_class):
                    scores[c] += log_probs[v]
        return scores

    def predict_index(self, record) -> int:
        scores = self.class_log_scores(record)
        if max(scores) == -math.inf:
            # every density underflows: the class with the smallest summed
            # squared standardised distance wins, each distance scaled so
            # that neither it nor the sum overflows
            scores = [0.0] * len(scores)
            for j, kind, per_class in self.feature_stats:
                v = record[j]
                if kind == "numeric" and v is not None:
                    for c, stats in enumerate(per_class):
                        if stats is not None:
                            z = (v * _FAR_SCALE - stats[0] * _FAR_SCALE) / math.sqrt(stats[1])
                            scores[c] -= z * z
        return scores.index(max(scores))


@dataclass
class DecisionStumpModel(_BaseModel):
    """One split on one attribute; each side predicts its majority class."""

    attribute: int | None = None
    kind: str = "none"
    threshold: float = 0.0
    match_value: int = 0
    left_class: int = 0
    right_class: int = 0
    majority_branch_class: int = 0
    fallback: int = 0

    def predict_index(self, record) -> int:
        if self.attribute is None:
            return self.fallback
        v = record[self.attribute]
        if v is None:
            return self.majority_branch_class
        if self.kind == "numeric":
            return self.left_class if v <= self.threshold else self.right_class
        return self.left_class if v == self.match_value else self.right_class


def _majority(counts) -> int:
    """Index of the largest count; the lowest index wins a tie."""
    return counts.index(max(counts))


def _best_candidate(train, nominal, numeric, model_class):
    """The first candidate with the fewest training errors, from
    ``nominal(train, j)`` or ``numeric(train, j)`` per feature j, or else a
    ``model_class`` that predicts the majority class.

    A kernel returns None or ``(model, observed, observed_errors)``: the
    class counts of the rows that have a value and the errors on them; the
    rows with a missing value all get the model's missing-value class. When
    ``observed_errors`` is None (a threshold does not separate its
    neighbours), every row is predicted.
    """
    c = train.class_index
    best, best_errors = None, None
    for j in train.features:
        found = (nominal if train.schema[j].kind == "nominal" else numeric)(train, j)
        if found is None:
            continue
        candidate, observed, errors = found
        if errors is None:
            errors = sum(1 for row in train.rows if candidate.predict_index(row) != row[c])
        else:
            missing = [total - seen for total, seen in zip(train.class_counts, observed)]
            errors += sum(missing) - missing[candidate.predict_index((None,) * len(train.schema))]
        if best_errors is None or errors < best_errors:
            best, best_errors = candidate, errors
    if best is None:
        return model_class(
            train.class_index, train.class_values, attribute=None,
            fallback=_majority(train.class_counts),
        )
    return best


def _fit_zeror(train) -> ZeroRModel:
    return ZeroRModel(train.class_index, train.class_values, majority=_majority(train.class_counts))


def _fit_oner(train) -> OneRModel:
    return _best_candidate(train, _oner_nominal, _oner_numeric, OneRModel)


def _oner_nominal(train, j):
    buckets = train.value_counts(j)
    rule = tuple(_majority(b) for b in buckets)
    largest = max(range(len(buckets)), key=lambda v: (sum(buckets[v]), -v))
    model = OneRModel(
        train.class_index,
        train.class_values,
        attribute=j,
        kind="nominal",
        nominal_rule=rule,
        majority_branch=rule[largest],
    )
    observed = [sum(column) for column in zip(*buckets)]
    return model, observed, sum(observed) - sum(b[r] for b, r in zip(buckets, rule))


def _oner_numeric(train, j):
    """OneR candidate from column j's (value, class) pairs in sorted order."""
    values, classes = train.sorted_column(j)
    n = len(values)
    if not n:
        return None
    n_bins = min(ONER_MAX_BINS, max(1, n // ONER_MIN_BUCKET))
    # equal-frequency cuts, never splitting a run of identical values
    cut_positions: list[int] = []
    next_target = n / n_bins
    pos = 0
    while len(cut_positions) < n_bins - 1 and pos < n - 1:
        pos = max(pos + 1, round(next_target))
        while pos < n and values[pos] == values[pos - 1]:
            pos += 1
        if pos >= n:
            break
        cut_positions.append(pos)
        next_target += n / n_bins
    bounds = [0, *cut_positions, n]
    thresholds = tuple((values[p - 1] + values[p]) / 2.0 for p in cut_positions)
    bin_counts = []
    for lo, hi in zip(bounds, bounds[1:]):
        segment = classes[lo:hi]
        bin_counts.append([segment.count(c) for c in range(len(train.class_values))])
    rule = tuple(_majority(counts) for counts in bin_counts)
    largest = max(range(len(bin_counts)), key=lambda b: (bounds[b + 1] - bounds[b], -b))
    model = OneRModel(
        train.class_index,
        train.class_values,
        attribute=j,
        kind="numeric",
        thresholds=thresholds,
        bin_rule=rule,
        majority_branch=rule[largest],
    )
    observed = [sum(column) for column in zip(*bin_counts)]
    # bisect_right puts value v in bin b only if threshold b-1 <= v < threshold b
    separates = all(values[p - 1] < t <= values[p] for p, t in zip(cut_positions, thresholds))
    errors = n - sum(counts[r] for counts, r in zip(bin_counts, rule)) if separates else None
    return model, observed, errors


def _fit_naive_bayes(train) -> NaiveBayesModel:
    n_classes = len(train.class_values)
    # each class's rows in training order, the order float_mean sums them in
    by_class = [[] for _ in range(n_classes)]
    for row in train.rows:
        by_class[row[train.class_index]].append(row)
    total = len(train.rows)
    log_priors = tuple(
        math.log((count + 1.0) / (total + n_classes)) for count in train.class_counts
    )
    feature_stats = []
    for j in train.features:
        if train.schema[j].kind == "numeric":
            per_class = []
            for class_rows in by_class:
                values = [row[j] for row in class_rows if row[j] is not None]
                stats = None
                if values:
                    mean = float_mean(values)
                    # v - mean or its square overflows near the largest float
                    var = float_mean([(v - mean) * (v - mean) for v in values])
                    if math.isfinite(var):
                        var = max(var, NB_VARIANCE_FLOOR)
                        stats = (mean, var, math.log(2.0 * math.pi * var))
                per_class.append(stats)
            feature_stats.append((j, "numeric", per_class))
        else:
            table = train.value_counts(j)
            per_class = []
            for counts in zip(*table):  # one class's count of each value
                denominator = sum(counts) + len(table)
                per_class.append(tuple(math.log((n + 1.0) / denominator) for n in counts))
            feature_stats.append((j, "nominal", per_class))
    return NaiveBayesModel(
        train.class_index, train.class_values, log_priors=log_priors, feature_stats=feature_stats
    )


def _fit_decision_stump(train) -> DecisionStumpModel:
    return _best_candidate(train, _stump_nominal, _stump_numeric, DecisionStumpModel)


def _stump_numeric(train, j):
    """Stump candidate from column j's (value, class) pairs in sorted order."""
    values, classes = train.sorted_column(j)
    n = len(values)
    if n < 2 or values[0] == values[-1]:
        return None
    n_classes = len(train.class_values)
    right = [classes.count(c) for c in range(n_classes)]
    observed = right[:]
    left = [0] * n_classes
    # a split between two differing neighbours errs n - max(left) - max(right) times
    best = (n + 1,)  # (errors, below, above, left_size, left_class, right_class)
    for below, above, c in zip(values, islice(values, 1, None), classes):
        left[c] += 1
        right[c] -= 1
        if below != above:
            errors = n - max(left) - max(right)
            if errors < best[0]:
                best = (errors, below, above, sum(left), _majority(left), _majority(right))
    errors, below, above, left_size, lc, rc = best
    threshold = (below + above) / 2.0
    model = DecisionStumpModel(
        train.class_index,
        train.class_values,
        attribute=j,
        kind="numeric",
        threshold=threshold,
        left_class=lc,
        right_class=rc,
        majority_branch_class=lc if left_size >= n - left_size else rc,
    )
    # v <= threshold sends v left; the count holds only if below <= t < above
    return model, observed, errors if below <= threshold < above else None


def _stump_nominal(train, j):
    value_counts = train.value_counts(j)
    total_counts = [sum(column) for column in zip(*value_counts)]
    observed = sum(total_counts)
    if observed == 0:
        return None
    best = None  # (errors, value, left_class, right_class, left_size)
    for v, left in enumerate(value_counts):
        left_size = sum(left)
        if left_size in (0, observed):
            continue
        right = [total - seen for total, seen in zip(total_counts, left)]
        lc, rc = _majority(left), _majority(right)
        errors = (left_size - left[lc]) + (observed - left_size - right[rc])
        if best is None or errors < best[0]:
            best = (errors, v, lc, rc, left_size)
    if best is None:
        return None
    errors, v, lc, rc, left_size = best
    model = DecisionStumpModel(
        train.class_index,
        train.class_values,
        attribute=j,
        kind="nominal",
        match_value=v,
        left_class=lc,
        right_class=rc,
        majority_branch_class=lc if left_size >= observed - left_size else rc,
    )
    return model, total_counts, errors


_FITTERS = {
    "zeror": _fit_zeror,
    "oner": _fit_oner,
    "naive-bayes": _fit_naive_bayes,
    "decision-stump": _fit_decision_stump,
}
