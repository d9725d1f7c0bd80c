import math
import random

import pytest
from hypothesis import given, strategies as st

import sppam.ttest
from sppam import corrected_t_test
from sppam.model import SppamError
from sppam.ttest import SUPPORTED_ALPHAS, two_sided_p_value

TEN_FOLD_FRACTION = 1.0 / 9.0


def test_identical_vectors_no_difference():
    scores = [0.7, 0.8, 0.75, 0.9]
    result = corrected_t_test(scores, scores, TEN_FOLD_FRACTION)
    assert result.t_statistic == 0.0
    assert result.verdict == "no-difference"


def test_hand_evaluated_statistic():
    # mean difference 0.05, sample sd 0.05, m=10:
    # t = 0.05 / sqrt((1/10 + 1/9) * 0.0025) = sqrt(90/19) = 2.17643...
    m = 10
    spread = 0.05 * 3.0 / math.sqrt(m)  # alternating +/- gives sample sd 0.05
    diffs = [0.05 + spread * (1 if i % 2 == 0 else -1) for i in range(m)]
    mean = sum(diffs) / m
    sd = math.sqrt(sum((d - mean) ** 2 for d in diffs) / (m - 1))
    assert mean == pytest.approx(0.05, abs=1e-15)
    assert sd == pytest.approx(0.05, abs=1e-15)

    b = [0.5] * m
    a = [base + d for base, d in zip(b, diffs)]
    result = corrected_t_test(a, b, TEN_FOLD_FRACTION, alpha=0.01)
    assert result.t_statistic == pytest.approx(math.sqrt(90.0 / 19.0), abs=1e-9)
    assert result.t_statistic == pytest.approx(2.1764, abs=1e-3)
    assert result.degrees_of_freedom == 9
    assert result.verdict == "no-difference"  # 2.176 < 3.2498 at alpha 0.01
    at_005 = corrected_t_test(a, b, TEN_FOLD_FRACTION, alpha=0.05)
    assert at_005.verdict == "no-difference"  # still below 2.2622


def test_offset_invariance():
    a = [0.6, 0.7, 0.8, 0.9, 0.65]
    b = [0.55, 0.75, 0.7, 0.85, 0.6]
    base = corrected_t_test(a, b, TEN_FOLD_FRACTION)
    shifted = corrected_t_test([x + 0.03 for x in a], [x + 0.03 for x in b], TEN_FOLD_FRACTION)
    assert shifted.t_statistic == pytest.approx(base.t_statistic, rel=1e-12)


def test_symmetry_negates_t_and_swaps_verdict():
    a = [0.9, 0.95, 0.92, 0.99, 0.91, 0.94]
    b = [0.5, 0.52, 0.51, 0.53, 0.5, 0.52]
    ab = corrected_t_test(a, b, TEN_FOLD_FRACTION, alpha=0.05)
    ba = corrected_t_test(b, a, TEN_FOLD_FRACTION, alpha=0.05)
    assert ab.t_statistic == pytest.approx(-ba.t_statistic, rel=1e-12)
    assert ab.verdict == "a-better"
    assert ba.verdict == "b-better"


@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=30),
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=30),
)
def test_symmetry_property(a, b):
    m = min(len(a), len(b))
    a, b = a[:m], b[:m]
    ab = corrected_t_test(a, b, TEN_FOLD_FRACTION, alpha=0.05)
    ba = corrected_t_test(b, a, TEN_FOLD_FRACTION, alpha=0.05)
    assert ab.t_statistic == pytest.approx(-ba.t_statistic, rel=1e-9, abs=1e-12)
    swap = {"a-better": "b-better", "b-better": "a-better", "no-difference": "no-difference"}
    assert ba.verdict == swap[ab.verdict]


def test_zero_variance_nonzero_mean_is_significant():
    result = corrected_t_test([0.9] * 5, [0.8] * 5, TEN_FOLD_FRACTION)
    assert math.isinf(result.t_statistic)
    assert result.verdict == "a-better"


def test_length_mismatch_rejected():
    with pytest.raises(SppamError):
        corrected_t_test([0.1, 0.2], [0.1], TEN_FOLD_FRACTION)


def test_needs_two_scores():
    with pytest.raises(SppamError):
        corrected_t_test([0.1], [0.2], TEN_FOLD_FRACTION)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_scores_rejected(bad):
    with pytest.raises(SppamError, match=rf"score 2 of vector a is not finite: {bad}"):
        corrected_t_test([0.1, 0.2, bad, 0.4], [0.1, 0.2, 0.3, bad], TEN_FOLD_FRACTION)
    with pytest.raises(SppamError, match=rf"score 1 of vector b is not finite: {bad}"):
        corrected_t_test([0.1, 0.2, bad, 0.4], [0.1, bad, 0.3, 0.4], TEN_FOLD_FRACTION)


@pytest.mark.parametrize("fraction", [0.0, -0.1, math.nan, math.inf])
def test_test_fraction_must_be_finite_and_positive(fraction):
    with pytest.raises(SppamError, match="test fraction must be finite and positive"):
        corrected_t_test([0.1, 0.2], [0.3, 0.5], fraction)


def test_nan_t_has_a_nan_p_value_at_once(monkeypatch):
    def refuse(*args):
        raise AssertionError("the continued fraction ran")

    monkeypatch.setattr(sppam.ttest, "_beta_fraction", refuse)
    for df in (1, 5, 299):
        assert math.isnan(two_sided_p_value(math.nan, df))


def _brackets(value, df, alpha, tolerance=5e-5):
    """``value`` is within ``tolerance`` of the two-sided critical value of
    Student's t: p(value - tolerance) > alpha > p(value + tolerance)."""
    return two_sided_p_value(value - tolerance, df) > alpha > two_sided_p_value(value + tolerance, df)


def test_critical_value_table_spot_checks():
    # standard two-sided values
    assert _brackets(63.6567, 1, 0.01)
    assert _brackets(3.2498, 9, 0.01)
    assert _brackets(2.2622, 9, 0.05)
    assert _brackets(2.0423, 30, 0.05)
    assert _brackets(2.6006, 200, 0.01)
    # past df 200: exact, not the normal 2.5758 / 1.9600
    assert _brackets(2.5768, 5000, 0.01)
    assert _brackets(1.9604, 5000, 0.05)
    assert not _brackets(2.5758, 5000, 0.01)


def test_reference_table_brackets_the_exact_quantiles():
    for alpha, table in _TABLES.items():
        for df, value in enumerate(table, start=1):
            assert _brackets(value, df, alpha), (alpha, df, value)


@pytest.mark.parametrize(
    "df, at_001, at_005",
    [(201, 2.6005, 1.9718), (299, 2.5924, 1.9679), (999, 2.5808, 1.9623)],
)
def test_exact_quantiles_past_the_table(df, at_001, at_005):
    assert _brackets(at_001, df, 0.01)
    assert _brackets(at_005, df, 0.05)


def test_df_201_verdict_uses_the_exact_quantile():
    # |t| between the normal quantile 2.5758 and the exact 2.6005: significant
    # under a normal approximation, not under Student's t with 201 df
    m = 202
    spread = 1.0
    mean = 2.59 * math.sqrt((1.0 / m + TEN_FOLD_FRACTION) * spread**2 * m / (m - 1))
    b = [50.0] * m
    a = [x + mean + spread * (1 if i % 2 == 0 else -1) for i, x in enumerate(b)]
    result = corrected_t_test(a, b, TEN_FOLD_FRACTION, alpha=0.01)
    assert result.degrees_of_freedom == 201
    assert 2.5758 < result.t_statistic < 2.6005
    assert 0.01 < result.p_value < 0.0105
    assert result.verdict == "no-difference"
    assert corrected_t_test(a, b, TEN_FOLD_FRACTION, alpha=0.05).verdict == "a-better"


@given(
    st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=2, max_size=40),
    st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=2, max_size=40),
    st.sampled_from(SUPPORTED_ALPHAS),
)
def test_verdict_is_the_p_value_against_alpha(a, b, alpha):
    m = min(len(a), len(b))
    result = corrected_t_test(a[:m], b[:m], TEN_FOLD_FRACTION, alpha=alpha)
    t, p = result.t_statistic, result.p_value
    assert 0.0 <= p <= 1.0
    assert two_sided_p_value(-t, result.degrees_of_freedom) == p
    if p < alpha:
        assert result.verdict == ("a-better" if t > 0 else "b-better")
    else:
        assert result.verdict == "no-difference"


def test_p_value_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    rng = random.Random(0)
    for df in (1, 2, 3, 4, 5, 9, 19, 29, 99, 200, 201, 299, 999, 5000, 100000):
        for t in [0.0, 0.001, 0.3, 1.0, 1.9, 2.6, 4.0, 9.0, 40.0] + [rng.uniform(0, 12) for _ in range(20)]:
            expected = 2.0 * float(stats.t.sf(t, df))
            assert two_sided_p_value(t, df) == pytest.approx(expected, rel=1e-9, abs=1e-300), (df, t)


def test_unsupported_alpha_rejected():
    with pytest.raises(SppamError):
        corrected_t_test([0.1, 0.2], [0.1, 0.3], TEN_FOLD_FRACTION, alpha=0.10)


def test_table_is_monotone_decreasing():
    for table in _TABLES.values():
        assert all(x >= y for x, y in zip(table, table[1:]))
    # the tails thin as df grows, and stay heavier than the normal's at every df
    for t in (1.96, 2.6):
        values = [two_sided_p_value(t, df) for df in range(1, 1001)]
        assert all(x > y for x, y in zip(values, values[1:]))
        assert values[-1] > math.erfc(t / math.sqrt(2.0))
    assert two_sided_p_value(2.6, 10**6) > math.erfc(2.6 / math.sqrt(2.0))


# Reference data: published two-sided critical values of Student's t, df 1..200.
_TABLES = {
    0.01: (
        63.6567, 9.9248, 5.8409, 4.6041, 4.0321, 3.7074, 3.4995, 3.3554, 3.2498, 3.1693,
        3.1058, 3.0545, 3.0123, 2.9768, 2.9467, 2.9208, 2.8982, 2.8784, 2.8609, 2.8453,
        2.8314, 2.8188, 2.8073, 2.7969, 2.7874, 2.7787, 2.7707, 2.7633, 2.7564, 2.7500,
        2.7440, 2.7385, 2.7333, 2.7284, 2.7238, 2.7195, 2.7154, 2.7116, 2.7079, 2.7045,
        2.7012, 2.6981, 2.6951, 2.6923, 2.6896, 2.6870, 2.6846, 2.6822, 2.6800, 2.6778,
        2.6757, 2.6737, 2.6718, 2.6700, 2.6682, 2.6665, 2.6649, 2.6633, 2.6618, 2.6603,
        2.6589, 2.6575, 2.6561, 2.6549, 2.6536, 2.6524, 2.6512, 2.6501, 2.6490, 2.6479,
        2.6469, 2.6459, 2.6449, 2.6439, 2.6430, 2.6421, 2.6412, 2.6403, 2.6395, 2.6387,
        2.6379, 2.6371, 2.6364, 2.6356, 2.6349, 2.6342, 2.6335, 2.6329, 2.6322, 2.6316,
        2.6309, 2.6303, 2.6297, 2.6291, 2.6286, 2.6280, 2.6275, 2.6269, 2.6264, 2.6259,
        2.6254, 2.6249, 2.6244, 2.6239, 2.6235, 2.6230, 2.6226, 2.6221, 2.6217, 2.6213,
        2.6208, 2.6204, 2.6200, 2.6196, 2.6193, 2.6189, 2.6185, 2.6181, 2.6178, 2.6174,
        2.6171, 2.6167, 2.6164, 2.6161, 2.6157, 2.6154, 2.6151, 2.6148, 2.6145, 2.6142,
        2.6139, 2.6136, 2.6133, 2.6130, 2.6127, 2.6125, 2.6122, 2.6119, 2.6117, 2.6114,
        2.6111, 2.6109, 2.6106, 2.6104, 2.6102, 2.6099, 2.6097, 2.6095, 2.6092, 2.6090,
        2.6088, 2.6086, 2.6083, 2.6081, 2.6079, 2.6077, 2.6075, 2.6073, 2.6071, 2.6069,
        2.6067, 2.6065, 2.6063, 2.6061, 2.6060, 2.6058, 2.6056, 2.6054, 2.6052, 2.6051,
        2.6049, 2.6047, 2.6045, 2.6044, 2.6042, 2.6041, 2.6039, 2.6037, 2.6036, 2.6034,
        2.6033, 2.6031, 2.6030, 2.6028, 2.6027, 2.6025, 2.6024, 2.6022, 2.6021, 2.6020,
        2.6018, 2.6017, 2.6015, 2.6014, 2.6013, 2.6011, 2.6010, 2.6009, 2.6008, 2.6006,
    ),
    0.05: (
        12.7062, 4.3027, 3.1824, 2.7764, 2.5706, 2.4469, 2.3646, 2.3060, 2.2622, 2.2281,
        2.2010, 2.1788, 2.1604, 2.1448, 2.1314, 2.1199, 2.1098, 2.1009, 2.0930, 2.0860,
        2.0796, 2.0739, 2.0687, 2.0639, 2.0595, 2.0555, 2.0518, 2.0484, 2.0452, 2.0423,
        2.0395, 2.0369, 2.0345, 2.0322, 2.0301, 2.0281, 2.0262, 2.0244, 2.0227, 2.0211,
        2.0195, 2.0181, 2.0167, 2.0154, 2.0141, 2.0129, 2.0117, 2.0106, 2.0096, 2.0086,
        2.0076, 2.0066, 2.0057, 2.0049, 2.0040, 2.0032, 2.0025, 2.0017, 2.0010, 2.0003,
        1.9996, 1.9990, 1.9983, 1.9977, 1.9971, 1.9966, 1.9960, 1.9955, 1.9949, 1.9944,
        1.9939, 1.9935, 1.9930, 1.9925, 1.9921, 1.9917, 1.9913, 1.9908, 1.9905, 1.9901,
        1.9897, 1.9893, 1.9890, 1.9886, 1.9883, 1.9879, 1.9876, 1.9873, 1.9870, 1.9867,
        1.9864, 1.9861, 1.9858, 1.9855, 1.9853, 1.9850, 1.9847, 1.9845, 1.9842, 1.9840,
        1.9837, 1.9835, 1.9833, 1.9830, 1.9828, 1.9826, 1.9824, 1.9822, 1.9820, 1.9818,
        1.9816, 1.9814, 1.9812, 1.9810, 1.9808, 1.9806, 1.9804, 1.9803, 1.9801, 1.9799,
        1.9798, 1.9796, 1.9794, 1.9793, 1.9791, 1.9790, 1.9788, 1.9787, 1.9785, 1.9784,
        1.9782, 1.9781, 1.9780, 1.9778, 1.9777, 1.9776, 1.9774, 1.9773, 1.9772, 1.9771,
        1.9769, 1.9768, 1.9767, 1.9766, 1.9765, 1.9763, 1.9762, 1.9761, 1.9760, 1.9759,
        1.9758, 1.9757, 1.9756, 1.9755, 1.9754, 1.9753, 1.9752, 1.9751, 1.9750, 1.9749,
        1.9748, 1.9747, 1.9746, 1.9745, 1.9744, 1.9744, 1.9743, 1.9742, 1.9741, 1.9740,
        1.9739, 1.9739, 1.9738, 1.9737, 1.9736, 1.9735, 1.9735, 1.9734, 1.9733, 1.9732,
        1.9732, 1.9731, 1.9730, 1.9729, 1.9729, 1.9728, 1.9727, 1.9727, 1.9726, 1.9725,
        1.9725, 1.9724, 1.9723, 1.9723, 1.9722, 1.9721, 1.9721, 1.9720, 1.9720, 1.9719,
    ),
}
