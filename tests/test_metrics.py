import pytest
from hypothesis import given, strategies as st

from sppam import ConfusionMatrix, classification_metrics
from sppam.model import SppamError


def matrix(counts, labels=None):
    labels = labels or tuple(f"c{i}" for i in range(len(counts)))
    return ConfusionMatrix(tuple(labels), tuple(tuple(r) for r in counts))


def test_balanced_two_class_example():
    report = classification_metrics(matrix([[40, 10], [10, 40]]))
    assert report.cci_percent == pytest.approx(80.0, abs=1e-12)
    assert report.kappa == pytest.approx(0.6, abs=1e-12)
    for c in range(2):
        assert report.precision[c] == pytest.approx(0.8, abs=1e-12)
        assert report.recall[c] == pytest.approx(0.8, abs=1e-12)
        assert report.f_measure[c] == pytest.approx(0.8, abs=1e-12)


def test_perfect_diagonal():
    report = classification_metrics(matrix([[7, 0, 0], [0, 3, 0], [0, 0, 5]]))
    assert report.cci_percent == 100.0
    assert report.kappa == 1.0
    assert report.precision == (1.0, 1.0, 1.0)
    assert report.recall == (1.0, 1.0, 1.0)
    assert report.f_measure == (1.0, 1.0, 1.0)


def test_single_column_majority_predictor():
    # everything predicted as the majority class
    report = classification_metrics(matrix([[0, 12], [0, 30]]))
    assert report.kappa == 0.0
    assert report.precision[0] == 0.0
    assert report.recall[0] == 0.0
    assert report.f_measure[0] == 0.0
    assert report.recall[1] == 1.0


def test_degenerate_single_class_matrix():
    report = classification_metrics(matrix([[5]]))
    assert report.cci_percent == 100.0
    assert report.kappa == 0.0  # chance agreement is total agreement


def test_empty_matrix_rejected():
    with pytest.raises(SppamError):
        classification_metrics(matrix([[0, 0], [0, 0]]))


def test_mismatched_shape_rejected():
    with pytest.raises(SppamError):
        ConfusionMatrix(("a", "b"), ((1, 2, 3), (4, 5, 6)))


counts_2x2 = st.lists(st.integers(min_value=0, max_value=200), min_size=4, max_size=4)


@given(counts_2x2)
def test_single_column_matrices_have_zero_kappa(values):
    col = [[values[0], 0], [values[1], 0]]
    if sum(values[:2]) > 0:
        assert classification_metrics(matrix(col)).kappa == 0.0


@given(st.lists(st.lists(st.integers(min_value=0, max_value=100), min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_metric_identities(counts):
    total = sum(sum(row) for row in counts)
    if total == 0:
        return
    report = classification_metrics(matrix(counts))
    assert report.kappa <= 1.0 + 1e-12
    assert report.macro_f_measure <= max(report.f_measure) + 1e-12
    # CCI equals prevalence-weighted recall
    weighted = sum(
        report.recall[c] * sum(counts[c]) / total for c in range(3)
    )
    assert report.cci_percent == pytest.approx(100.0 * weighted, abs=1e-9)
    assert 0.0 <= report.cci_percent <= 100.0


def test_total_counts_every_cell():
    a = matrix([[1, 2], [3, 4]])
    assert a.total == 10
