"""Cross-validation harness and original-vs-transformed comparison.

``cross_validate`` runs repeated stratified k-fold evaluation (optionally
group-aware, so correlated records never straddle a train/test boundary)
of several classifiers at once and reports, per classifier, the per-run
test accuracies plus a metric suite averaged over the repeats. All the
classifiers share one fold plan: each repeat's fold assignment, and each
fold's training set with its class counts per column value, are built once
and every classifier is fitted and scored on them. ``compare_datasets``
evaluates the same classifiers on an original dataset and its aggregated
counterpart, with one ``cross_validate`` call per dataset, and attaches a
corrected resampled t-test verdict per classifier. Both log a warning
when the run cannot keep correlated records apart: a nominal feature that
tells every record apart, or folds on the original that ignore groups.
"""

from __future__ import annotations

import logging
import operator
from dataclasses import dataclass

from . import classifiers
from .folds import group_stratified_folds
from .metrics import MetricsReport, ConfusionMatrix, average_metrics, classification_metrics, matrix_from_pairs
from .model import NOMINAL, ConfigError, Dataset, SppamError, text_cells
from .ttest import A_BETTER, B_BETTER, TTestResult, check_alpha, corrected_t_test

REFERENCE_CLASSIFIER = "oner"

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CrossValResult:
    classifier: str
    class_values: tuple[str, ...]
    fold_accuracies: tuple[float, ...]  # percent, repeats * k entries
    repeat_matrices: tuple[ConfusionMatrix, ...]
    metrics: MetricsReport


@dataclass(frozen=True)
class ComparisonRow:
    classifier: str
    original: CrossValResult
    transformed: CrossValResult
    cci_delta: float
    ttest: TTestResult

    @property
    def verdict(self) -> str:
        if self.ttest.verdict == A_BETTER:
            return "transformed-better"
        if self.ttest.verdict == B_BETTER:
            return "original-better"
        return "no-difference"


@dataclass(frozen=True)
class EvalReport:
    original_name: str
    transformed_name: str
    rows: tuple[ComparisonRow, ...]


def cross_validate(
    dataset: Dataset,
    classifier_kinds,
    class_attribute: str,
    k: int = 10,
    repeats: int = 10,
    seed: int = 0,
    group_attribute: str | None = None,
) -> list[CrossValResult]:
    """Repeated (group-aware) stratified k-fold evaluation of each of
    ``classifier_kinds`` (a sequence of names, not one string), returned
    as one result per kind in the order given.

    Repeat r builds its folds with ``seed + r``, once for all the kinds,
    so every kind is trained and scored on the same splits. Records with
    a missing class value are left out entirely: they can neither train
    nor be scored.
    """
    if isinstance(classifier_kinds, str):
        raise ConfigError(f"classifier kinds must be a sequence of names, not {classifier_kinds!r}")
    kinds = list(map(classifiers.check_kind, classifier_kinds))  # before any fold
    if repeats < 1:
        raise ConfigError(f"repeats must be at least 1, got {repeats}")
    class_index = dataset.attribute_index(class_attribute)
    labeled = dataset.replace_records(
        r for r in dataset.records if r[class_index] is not None
    )
    if not labeled.records:
        raise ConfigError("no labeled records to evaluate")
    class_values = labeled.schema[class_index].values
    # each column's class counts are totalled once here; a fold subtracts
    # only the records it leaves out
    presorted = classifiers.PresortedColumns(labeled, class_attribute)

    records = labeled.records
    accuracies = [[] for _ in kinds]
    repeat_matrices = [[] for _ in kinds]
    for r in range(repeats):
        assignment = group_stratified_folds(
            labeled, k, class_attribute, group_attribute, seed=seed + r
        )
        # class indices in test order: the actual ones, and each kind's predictions
        actual = []
        predicted = [[] for _ in kinds]
        for fold in range(k):
            train_idx, test_idx = assignment.split(fold)
            train = presorted.training_set(train_idx)
            test = [records[i] for i in test_idx]
            fold_actual = [record[class_index] for record in test]
            actual += fold_actual
            for kind, kind_accuracies, kind_predicted in zip(kinds, accuracies, predicted):
                model = classifiers.fit(kind, train, class_attribute)
                fold_predicted = [model.predict_index(record) for record in test]
                correct = sum(map(operator.eq, fold_actual, fold_predicted))
                kind_accuracies.append(100.0 * correct / len(test))
                kind_predicted += fold_predicted
        for kind_matrices, kind_predicted in zip(repeat_matrices, predicted):
            kind_matrices.append(matrix_from_pairs(class_values, zip(actual, kind_predicted)))
    _log_identifier_features(presorted)
    return [
        CrossValResult(
            classifier=kind,
            class_values=class_values,
            fold_accuracies=tuple(kind_accuracies),
            repeat_matrices=tuple(kind_matrices),
            metrics=average_metrics(classification_metrics(m) for m in kind_matrices),
        )
        for kind, kind_accuracies, kind_matrices in zip(kinds, accuracies, repeat_matrices)
    ]


def _log_identifier_features(presorted: classifiers.PresortedColumns) -> None:
    """Warn about each non-class nominal attribute with a different value on
    every labelled record: as a feature it can only memorise the records."""
    n = len(presorted.labelled)
    for j, attr in enumerate(presorted.dataset.schema):
        if attr.kind != NOMINAL or j == presorted.class_index:
            continue
        per_value = [sum(row) for row in presorted.column_totals(j)]
        if sum(per_value) == n and max(per_value) == 1:
            log.warning(
                "attribute %r has a different value on each of the %d labelled records; "
                "as a feature it can only memorise the records", attr.name, n,
            )


def compare_datasets(
    original: Dataset,
    transformed: Dataset,
    classifier_kinds,
    class_attribute: str,
    k: int = 10,
    repeats: int = 10,
    seed: int = 0,
    group_attribute: str | None = None,
    alpha: float = 0.01,
    original_name: str = "original",
    transformed_name: str = "transformed",
) -> EvalReport:
    """Evaluate classifiers on both datasets and test the paired deltas.

    Folds on the original respect ``group_attribute`` (correlated records
    stay together); the transformed dataset has one record per group, so
    plain stratified folds apply. A transformed dataset without
    ``group_attribute`` is refused with ConfigError before any fold.
    """
    class_a = original.attribute(class_attribute)
    class_b = transformed.attribute(class_attribute)
    if class_a.values != class_b.values:
        if class_b.kind != NOMINAL or not set(class_b.values) <= set(class_a.values):
            raise SppamError(
                "class domains differ between datasets: "
                f"{class_a.values} vs {class_b.values}"
            )
        # a CSV lists a domain in first-seen order: index its labels as the original does
        j = transformed.attribute_index(class_attribute)
        index_of = {None: None, **dict(enumerate(text_cells(class_a, class_b.values)))}
        transformed = Dataset(
            transformed.relation_name,
            (*transformed.schema[:j], class_a, *transformed.schema[j + 1:]),
            ((*r[:j], index_of[r[j]], *r[j + 1:]) for r in transformed.records),
        )
    check_alpha(alpha)  # before any fold is fitted
    if group_attribute is None:
        log.warning(
            "no group attribute: the folds on %s ignore groups, so records of one group "
            "can land on both sides of a split", original_name,
        )
    elif group_attribute not in transformed.attribute_names:
        raise ConfigError(f"{transformed_name} has no group attribute {group_attribute!r}")
    kinds = list(classifier_kinds)
    results_orig = cross_validate(
        original, kinds, class_attribute, k, repeats, seed,
        group_attribute=group_attribute,
    )
    results_tr = cross_validate(transformed, kinds, class_attribute, k, repeats, seed)
    rows = []
    for result_orig, result_tr in zip(results_orig, results_tr):
        ttest = corrected_t_test(
            result_tr.fold_accuracies,
            result_orig.fold_accuracies,
            test_fraction=1.0 / (k - 1),
            alpha=alpha,
        )
        rows.append(
            ComparisonRow(
                classifier=result_orig.classifier,
                original=result_orig,
                transformed=result_tr,
                cci_delta=result_tr.metrics.cci_percent - result_orig.metrics.cci_percent,
                ttest=ttest,
            )
        )
    return EvalReport(original_name, transformed_name, tuple(rows))


def _classifier_label(kind: str) -> str:
    return f"{kind} (reference)" if kind == REFERENCE_CLASSIFIER else kind


def _metric_rows(result: CrossValResult):
    """(label, (cci, kappa, precision, recall, f)) per class, then the average."""
    m = result.metrics
    for c, label in enumerate(result.class_values):
        yield f"class={label}", (m.cci_percent, m.kappa, m.precision[c], m.recall[c], m.f_measure[c])
    yield "average", (m.cci_percent, m.kappa, m.macro_precision, m.macro_recall, m.macro_f_measure)


_TEXT_METRIC_HEADER = f"{'CCI%':>8}{'Kappa':>8}{'Precis.':>9}{'Recall':>8}{'F-Meas.':>9}"


def _text_cells(metrics) -> str:
    cci, kappa, p, r, f = metrics
    return f"{cci:>8.2f}{kappa:>8.2f}{p:>9.2f}{r:>8.2f}{f:>9.2f}"


def _csv_cells(metrics) -> str:
    return ",".join(f"{x:.6f}" for x in metrics)


def render_eval_text(results) -> str:
    lines = [f"{'classifier':<28}{'row':<16}{_TEXT_METRIC_HEADER}"]
    for result in results:
        name = _classifier_label(result.classifier)
        for label, metrics in _metric_rows(result):
            lines.append(f"{name:<28}{label:<16}{_text_cells(metrics)}")
    return "\n".join(lines) + "\n"


def render_eval_csv(results) -> str:
    lines = ["classifier,row,key,cci_percent,kappa,precision,recall,f_measure"]
    for result in results:
        for label, metrics in _metric_rows(result):
            row_kind, _, key = label.partition("=")
            lines.append(f"{result.classifier},{row_kind},{key},{_csv_cells(metrics)}")
        for i, accuracy in enumerate(result.fold_accuracies):
            lines.append(f"{result.classifier},run,{i},{accuracy:.6f},,,,")
    return "\n".join(lines) + "\n"


def render_compare_text(report: EvalReport) -> str:
    lines = [
        f"comparison: {report.original_name} vs {report.transformed_name}",
        "",
        f"{'':<44}{report.original_name:>42}{report.transformed_name:>45}",
        f"{'classifier':<28}{'row':<16}{_TEXT_METRIC_HEADER}   {_TEXT_METRIC_HEADER}",
    ]
    for row in report.rows:
        name = _classifier_label(row.classifier)
        for (label, orig), (_, tr) in zip(_metric_rows(row.original), _metric_rows(row.transformed)):
            lines.append(f"{name:<28}{label:<16}{_text_cells(orig)}   {_text_cells(tr)}")
    lines.append("")
    lines.append(f"{'classifier':<28}{'CCI delta':>10}  {'t':>9}  verdict")
    for row in report.rows:
        lines.append(
            f"{_classifier_label(row.classifier):<28}{row.cci_delta:>+10.2f}  "
            f"{row.ttest.t_statistic:>9.3f}  {row.verdict}"
        )
    return "\n".join(lines) + "\n"


def render_compare_csv(report: EvalReport) -> str:
    lines = ["dataset,classifier,row,key,cci_percent,kappa,precision,recall,f_measure,cci_delta,t_statistic,verdict"]
    for row in report.rows:
        for name, result in (
            (report.original_name, row.original),
            (report.transformed_name, row.transformed),
        ):
            for label, metrics in _metric_rows(result):
                row_kind, _, key = label.partition("=")
                lines.append(f"{name},{row.classifier},{row_kind},{key},{_csv_cells(metrics)},,,")
        lines.append(
            f",{row.classifier},delta,,,,,,,"
            f"{row.cci_delta:.6f},{row.ttest.t_statistic:.6f},{row.verdict}"
        )
    return "\n".join(lines) + "\n"
