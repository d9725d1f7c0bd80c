"""Confusion-matrix bookkeeping and the derived classification metrics.

Rows index the actual class, columns the predicted class. Metrics follow
the usual definitions: CCI is the percentage of correctly classified
instances, kappa is chance-corrected agreement, per-class precision and
recall come from the matrix margins and F is their harmonic mean. Macro
averages weight every class equally.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import SppamError


@dataclass(frozen=True)
class ConfusionMatrix:
    class_values: tuple[str, ...]
    counts: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        k = len(self.class_values)
        object.__setattr__(self, "counts", tuple(tuple(row) for row in self.counts))
        if len(self.counts) != k or any(len(row) != k for row in self.counts):
            raise SppamError(f"confusion matrix must be {k}x{k}")
        if any(c < 0 for row in self.counts for c in row):
            raise SppamError("confusion matrix counts must be non-negative")

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.counts)


def matrix_from_pairs(class_values, pairs) -> ConfusionMatrix:
    """Build a matrix from (actual_index, predicted_index) pairs."""
    k = len(class_values)
    counts = [[0] * k for _ in range(k)]
    for actual, predicted in pairs:
        counts[actual][predicted] += 1
    return ConfusionMatrix(tuple(class_values), tuple(tuple(r) for r in counts))


@dataclass(frozen=True)
class MetricsReport:
    cci_percent: float
    kappa: float
    precision: tuple[float, ...]
    recall: tuple[float, ...]
    f_measure: tuple[float, ...]
    macro_precision: float
    macro_recall: float
    macro_f_measure: float


def classification_metrics(matrix: ConfusionMatrix) -> MetricsReport:
    """Compute the metric suite from a confusion matrix (total must be > 0)."""
    total = matrix.total
    if total == 0:
        raise SppamError("empty confusion matrix")
    k = len(matrix.class_values)
    counts = matrix.counts
    row_sums = [sum(counts[c]) for c in range(k)]
    col_sums = [sum(counts[r][c] for r in range(k)) for c in range(k)]
    trace = sum(counts[c][c] for c in range(k))

    po = trace / total
    pe = sum(row_sums[c] * col_sums[c] for c in range(k)) / (total * total)
    kappa = 0.0 if pe == 1.0 else (po - pe) / (1.0 - pe)

    precision, recall, f_measure = [], [], []
    for c in range(k):
        p = counts[c][c] / col_sums[c] if col_sums[c] else 0.0
        r = counts[c][c] / row_sums[c] if row_sums[c] else 0.0
        f = 2.0 * p * r / (p + r) if p + r > 0 else 0.0
        precision.append(p)
        recall.append(r)
        f_measure.append(f)

    return MetricsReport(
        cci_percent=100.0 * po,
        kappa=kappa,
        precision=tuple(precision),
        recall=tuple(recall),
        f_measure=tuple(f_measure),
        macro_precision=sum(precision) / k,
        macro_recall=sum(recall) / k,
        macro_f_measure=sum(f_measure) / k,
    )


def average_metrics(reports) -> MetricsReport:
    """Field-wise mean of several MetricsReports over the same class list."""
    reports = list(reports)
    if not reports:
        raise SppamError("no metric reports to average")
    n = len(reports)
    k = len(reports[0].precision)

    def mean(values):
        return sum(values) / n

    return MetricsReport(
        cci_percent=mean([r.cci_percent for r in reports]),
        kappa=mean([r.kappa for r in reports]),
        precision=tuple(mean([r.precision[c] for r in reports]) for c in range(k)),
        recall=tuple(mean([r.recall[c] for r in reports]) for c in range(k)),
        f_measure=tuple(mean([r.f_measure[c] for r in reports]) for c in range(k)),
        macro_precision=mean([r.macro_precision for r in reports]),
        macro_recall=mean([r.macro_recall for r in reports]),
        macro_f_measure=mean([r.macro_f_measure for r in reports]),
    )
