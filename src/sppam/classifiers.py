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
errors. A candidate's errors are counted from the class counts of the runs
of equal values that its own thresholds send to each bin or side, plus the
rows with a missing value whose class differs from its majority branch's.

Every learner fits from one training set, which computes each fact it
needs once for all of them, and reads no record: the features, the class
counts, each nominal value-by-class table and each numeric column's runs
of equal values with their class counts, in sorted order. The counts come
from ``PresortedColumns``, which counts each column over the labelled
records once per dataset; a training set's counts are those totals minus
the labelled records it leaves out, about one fold in ``cross_validate``.
``cross_validate`` takes one training set per fold from one presort per
dataset, and ``fit`` turns a plain Dataset into a training set of all its
records.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain, compress, filterfalse, repeat
from operator import sub

from .model import ConfigError, Dataset, float_mean

CLASSIFIER_KINDS = ("zeror", "oner", "naive-bayes", "decision-stump")

ONER_MAX_BINS = 6
ONER_MIN_BUCKET = 3
NB_VARIANCE_FLOOR = 1e-9
# (2 * 1.8e308 / sqrt(NB_VARIANCE_FLOOR) * _FAR_SCALE)**2 is still finite
_FAR_SCALE = 2.0 ** -600


def check_kind(kind: str) -> str:
    """``kind`` in lower case, if it names one of ``CLASSIFIER_KINDS``."""
    normalized = kind.lower()
    if normalized not in CLASSIFIER_KINDS:
        raise ConfigError(
            f"unknown classifier {kind!r}; valid kinds: {', '.join(CLASSIFIER_KINDS)}"
        )
    return normalized


def fit(kind: str, dataset: Dataset, class_attribute: str):
    """Train a classifier of the given kind (all four are deterministic)."""
    normalized = check_kind(kind)
    class_index = dataset.attribute_index(class_attribute)
    if dataset.schema[class_index].kind != "nominal":
        raise ConfigError(f"class attribute {class_attribute!r} must be nominal")
    if not (isinstance(dataset, _TrainingSet) and dataset.presorted.class_index == class_index):
        presorted = PresortedColumns(dataset, class_attribute)
        dataset = presorted.training_set(range(len(dataset.records)))
    if not any(dataset.class_counts):
        raise ConfigError("empty training set")
    return _FITTERS[normalized](dataset)


class PresortedColumns:
    """A dataset's class totals over its labelled records, counted on first
    use and shared by every training set taken from it: the class totals,
    and per column either a nominal ``table[value][class]`` or a numeric
    column's sorted distinct values, their ``value -> run index`` map and
    ``counts[class][run]``."""

    def __init__(self, dataset: Dataset, class_attribute: str) -> None:
        self.dataset = dataset
        self.class_index = dataset.attribute_index(class_attribute)
        self._columns: dict[int, object] = {}

    @cached_property
    def labelled(self) -> list[int]:
        """Indices of the records with a class value."""
        c = self.class_index
        return [i for i, r in enumerate(self.dataset.records) if r[c] is not None]

    @cached_property
    def class_totals(self) -> list[int]:
        records, c = self.dataset.records, self.class_index
        totals = [0] * len(self.dataset.schema[c].values)
        for i in self.labelled:
            totals[records[i][c]] += 1
        return totals

    def column_totals(self, j: int):
        """Column j's class totals: ``table[value][class]`` for a nominal
        column, ``(values, run_of, counts)`` for a numeric one."""
        totals = self._columns.get(j)
        if totals is None:
            records, c = self.dataset.records, self.class_index
            rows = map(records.__getitem__, self.labelled)
            cells = [(r[j], r[c]) for r in rows if r[j] is not None]
            n_classes = len(self.dataset.schema[c].values)
            if self.dataset.schema[j].kind == "nominal":
                totals = [[0] * n_classes for _ in self.dataset.schema[j].values]
                for v, k in cells:
                    totals[v][k] += 1
            else:
                # 0.0 and -0.0 are equal, so they share one run
                values = sorted({v for v, _ in cells})
                run_of = {v: r for r, v in enumerate(values)}
                counts = [[0] * len(values) for _ in range(n_classes)]
                for v, k in cells:
                    counts[k][run_of[v]] += 1
                totals = values, run_of, counts
            self._columns[j] = totals
        return totals

    def training_set(self, indices) -> Dataset:
        """The records at ``indices`` (ascending, each once) as a Dataset
        that ``fit`` reads its counts from: these totals minus the labelled
        records that ``indices`` leave out."""
        kept = set(indices)
        if len(kept) != len(indices):
            raise ValueError("training set indices must be distinct")
        record_at = self.dataset.records.__getitem__
        return _TrainingSet(
            self.dataset.relation_name,
            self.dataset.schema,
            tuple(map(record_at, indices)),
            presorted=self,
            left_out=tuple(map(record_at, filterfalse(kept.__contains__, self.labelled))),
        )


@dataclass(frozen=True)
class _TrainingSet(Dataset):
    """Training records of one fold, with the presort they were taken from
    and the presorted dataset's labelled records that they leave out. Each
    count below is the presort's total minus the left-out records, computed
    on first use; learners only read them."""

    presorted: PresortedColumns | None = field(default=None, repr=False, compare=False)
    left_out: tuple[tuple, ...] = field(default=(), repr=False, compare=False)
    _columns: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def class_index(self) -> int:
        return self.presorted.class_index

    @property
    def class_values(self) -> tuple[str, ...]:
        return self.schema[self.class_index].values

    @cached_property
    def features(self) -> list[int]:
        """Indices of the numeric and nominal attributes other than the class."""
        c = self.class_index
        return [j for j, attr in enumerate(self.schema) if j != c and attr.kind != "string"]

    @cached_property
    def class_counts(self) -> list[int]:
        counts, c = self.presorted.class_totals[:], self.class_index
        for r in self.left_out:
            counts[r[c]] -= 1
        return counts

    def value_counts(self, j: int) -> list[list[int]]:
        """Nominal column j's counts, ``table[value][class]``, over the rows
        that have a value."""
        table = self._columns.get(j)
        if table is None:
            table = self._columns[j] = [row[:] for row in self.presorted.column_totals(j)]
            c = self.class_index
            for r in self.left_out:
                if r[j] is not None:
                    table[r[j]][r[c]] -= 1
        return table

    def runs(self, j: int) -> tuple[list, list[list[int]]]:
        """Numeric column j's distinct values in ascending order, and per
        class the count of each value, over the rows that have a value;
        values without a training row are dropped."""
        column = self._columns.get(j)
        if column is None:
            values, run_of, totals = self.presorted.column_totals(j)
            counts, c = [run_counts[:] for run_counts in totals], self.class_index
            for r in self.left_out:
                if r[j] is not None:
                    counts[r[c]][run_of[r[j]]] -= 1
            kept = bytes(map(any, zip(*counts)))
            column = self._columns[j] = (
                list(compress(values, kept)),
                [list(compress(run_counts, kept)) for run_counts in counts],
            )
        return column


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

    @cached_property
    def _class_terms(self) -> list[list[tuple]]:
        """``feature_stats`` per class: ``(j, mean, var, log_norm, None)``
        for each Gaussian and ``(j, None, None, None, log_probs)`` for each
        nominal feature, in feature order, leaving out missing Gaussians."""
        terms = [[] for _ in self.log_priors]
        for j, kind, per_class in self.feature_stats:
            for class_terms, stats in zip(terms, per_class):
                if kind == "nominal":
                    class_terms.append((j, None, None, None, stats))
                elif stats is not None:
                    class_terms.append((j, *stats, None))
        return terms

    def class_log_scores(self, record) -> list[float]:
        scores = []
        for score, terms in zip(self.log_priors, self._class_terms):
            for j, mean, var, log_norm, log_probs in terms:
                v = record[j]
                if v is None:
                    continue
                if log_probs is not None:
                    score += log_probs[v]
                    continue
                d = v - mean
                q = d * d / var
                if q == math.inf:
                    # d * d overflows before the division; (d / sd)^2 may not
                    z = d / math.sqrt(var)
                    q = z * z
                score += -0.5 * (log_norm + q)
            scores.append(score)
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
    rows with a missing value all get the model's missing-value class.
    """
    best, best_errors = None, None
    for j in train.features:
        found = (nominal if train.schema[j].kind == "nominal" else numeric)(train, j)
        if found is None:
            continue
        candidate, observed, errors = found
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
    model = OneRModel(
        train.class_index,
        train.class_values,
        attribute=j,
        kind="nominal",
        nominal_rule=rule,
        majority_branch=rule[_majority(list(map(sum, buckets)))],
    )
    observed = [sum(column) for column in zip(*buckets)]
    return model, observed, sum(observed) - sum(b[r] for b, r in zip(buckets, rule))


def _oner_numeric(train, j):
    """OneR candidate from column j's runs of equal values."""
    values, counts = train.runs(j)
    if not values:
        return None
    ends = list(accumulate(map(sum, zip(*counts))))  # where each run ends
    n = ends[-1]
    n_bins = min(ONER_MAX_BINS, max(1, n // ONER_MIN_BUCKET))
    # equal-frequency cuts, each after the run that reaches its target:
    # a cut never splits a run of identical values
    cuts: list[int] = []
    next_target = n / n_bins
    pos = 0
    while len(cuts) < n_bins - 1 and pos < n - 1:
        r = bisect_left(ends, max(pos + 1, round(next_target)))
        pos = ends[r]
        if pos >= n:
            break
        cuts.append(r)
        next_target += n / n_bins
    thresholds = tuple((values[r] + values[r + 1]) / 2.0 for r in cuts)
    bounds = [0, *(r + 1 for r in cuts), len(values)]
    bin_counts = [
        [sum(run_counts[lo:hi]) for run_counts in counts] for lo, hi in zip(bounds, bounds[1:])
    ]
    rule = tuple(map(_majority, bin_counts))
    model = OneRModel(
        train.class_index,
        train.class_values,
        attribute=j,
        kind="numeric",
        thresholds=thresholds,
        bin_rule=rule,
        majority_branch=rule[_majority(list(map(sum, bin_counts)))],
    )
    # predict_index puts v in bin b when threshold b-1 <= v < threshold b, so
    # bin b holds runs held[b]:held[b+1], even where a midpoint rounds onto a
    # neighbour or overflows
    held = [0, *(bisect_left(values, t) for t in thresholds), len(values)]
    correct = sum(sum(counts[k][lo:hi]) for k, lo, hi in zip(rule, held, held[1:]))
    return model, list(map(sum, counts)), n - correct


def _fit_naive_bayes(train) -> NaiveBayesModel:
    n_classes = len(train.class_values)
    total = sum(train.class_counts)
    log_priors = tuple(
        math.log((count + 1.0) / (total + n_classes)) for count in train.class_counts
    )
    feature_stats = []
    for j in train.features:
        if train.schema[j].kind == "numeric":
            values, counts = train.runs(j)
            per_class = []
            for class_counts in counts:
                # each value repeated its count in the class: math.fsum in
                # float_mean is correctly rounded, so these are the rows' mean
                # and variance; 0.0 and -0.0 share a run, and square alike
                stats = None
                if any(class_counts):
                    mean = float_mean(list(chain.from_iterable(map(repeat, values, class_counts))))
                    # v - mean or its square overflows near the largest float
                    squares = [(v - mean) * (v - mean) for v in values]
                    var = float_mean(list(chain.from_iterable(map(repeat, squares, class_counts))))
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
    """Stump candidate from column j's runs of equal values."""
    values, counts = train.runs(j)
    if len(values) < 2:
        return None
    observed = list(map(sum, counts))
    n = sum(observed)
    # per class, the counts left and right of each boundary between two runs
    lefts = [list(accumulate(run_counts[:-1])) for run_counts in counts]
    rights = [map(sub, repeat(total), left) for total, left in zip(observed, lefts)]
    # a split errs n - max(left) - max(right) times; repeat(0) serves one class
    most_left, most_right = map(max, *lefts, repeat(0)), map(max, *rights, repeat(0))
    errors = list(map(sub, map(sub, repeat(n), most_left), most_right))
    r = errors.index(min(errors))  # the first of the fewest
    left = [left[r] for left in lefts]
    lc = _majority(left)
    rc = _majority([total - seen for total, seen in zip(observed, left)])
    threshold = (values[r] + values[r + 1]) / 2.0
    model = DecisionStumpModel(
        train.class_index,
        train.class_values,
        attribute=j,
        kind="numeric",
        threshold=threshold,
        left_class=lc,
        right_class=rc,
        majority_branch_class=lc if 2 * sum(left) >= n else rc,
    )
    # v <= threshold sends the first k runs left: k == r + 1 unless the
    # midpoint rounds onto a neighbour or overflows
    k = bisect_right(values, threshold)
    return model, observed, n - sum(counts[lc][:k]) - sum(counts[rc][k:])


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
