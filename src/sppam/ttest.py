"""Corrected resampled t-test for comparing paired cross-validation scores.

Per-fold scores from resampled cross-validation are not independent: every
pair of runs shares most of its training data. The corrected test inflates
the variance term of the paired t statistic by the test/train size ratio:

    t = mean(d) / sqrt((1/m + n_test/n_train) * var(d))

with d the per-run score differences, m the number of runs and var the
unbiased sample variance (Nadeau & Bengio 2003). The verdict compares the
exact two-sided p-value of Student's t with m - 1 degrees of freedom
against the significance level; one formula serves every df.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import SppamError

A_BETTER = "a-better"
B_BETTER = "b-better"
NO_DIFFERENCE = "no-difference"
SUPPORTED_ALPHAS = (0.01, 0.05)


@dataclass(frozen=True)
class TTestResult:
    t_statistic: float
    degrees_of_freedom: int
    p_value: float
    alpha: float
    verdict: str


def check_alpha(alpha: float) -> None:
    """Raise SppamError unless ``alpha`` is a supported significance level."""
    if alpha not in SUPPORTED_ALPHAS:
        raise SppamError(
            f"unsupported significance level {alpha}; choose one of {list(SUPPORTED_ALPHAS)}"
        )


def corrected_t_test(scores_a, scores_b, test_fraction: float, alpha: float = 0.01) -> TTestResult:
    """Compare two equal-length paired vectors of finite scores.

    ``test_fraction`` is n_test/n_train of the underlying splits (1/9 for
    10-fold). The verdict is a-better or b-better, by the sign of t, when
    the two-sided p-value is below ``alpha``, and no-difference otherwise.
    """
    check_alpha(alpha)
    scores_a = list(scores_a)
    scores_b = list(scores_b)
    if len(scores_a) != len(scores_b):
        raise SppamError(
            f"score vectors differ in length: {len(scores_a)} vs {len(scores_b)}"
        )
    m = len(scores_a)
    if m < 2:
        raise SppamError(f"need at least 2 paired scores, got {m}")
    if not (math.isfinite(test_fraction) and test_fraction > 0):
        raise SppamError(f"test fraction must be finite and positive, got {test_fraction}")
    for i, pair in enumerate(zip(scores_a, scores_b)):
        for name, score in zip("ab", pair):
            if not math.isfinite(score):
                raise SppamError(f"score {i} of vector {name} is not finite: {score}")

    diffs = [a - b for a, b in zip(scores_a, scores_b)]
    mean = math.fsum(diffs) / m
    variance = math.fsum((d - mean) ** 2 for d in diffs) / (m - 1)
    df = m - 1
    if variance == 0.0:
        t = 0.0 if mean == 0.0 else math.copysign(math.inf, mean)
    else:
        t = mean / math.sqrt((1.0 / m + test_fraction) * variance)

    p = two_sided_p_value(t, df)
    if p < alpha:
        verdict = A_BETTER if t > 0 else B_BETTER
    else:
        verdict = NO_DIFFERENCE
    return TTestResult(t, df, p, alpha, verdict)


def two_sided_p_value(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's T with ``df`` (>= 1) degrees of freedom:
    the regularized incomplete beta I_x(a, b) at x = df / (df + t^2),
    a = df/2 and b = 1/2, from its continued fraction on whichever side of
    the mean that converges fast (Numerical Recipes, 3rd ed., section 6.4)."""
    if math.isnan(t):
        return math.nan
    square = t * t
    x, y = df / (df + square), square / (df + square)  # y = 1 - x, without cancellation
    if x == 0.0:  # t is infinite
        return 0.0
    if y == 0.0:
        return 1.0
    a, b = df / 2.0, 0.5
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log(y)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(x, a, b) / a
    return 1.0 - front * _beta_fraction(y, b, a) / b


_TINY = 1e-300  # stands in for a zero denominator
_MAX_TERMS = 1000  # df up to 1e9 needs under 50


def _beta_fraction(x: float, a: float, b: float) -> float:
    """The continued fraction of I_x(a, b), by the modified Lentz method,
    until a term changes it by less than 1e-15 (a NaN never does)."""
    c = 1.0
    d = 1.0 / (1.0 - (a + b) * x / (a + 1.0) or _TINY)
    h = d
    for m in range(1, _MAX_TERMS + 1):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 / (1.0 + numerator * d or _TINY)
            c = 1.0 + numerator / c or _TINY
            step = d * c
            h *= step
        if abs(step - 1.0) < 1e-15:
            break
    return h
