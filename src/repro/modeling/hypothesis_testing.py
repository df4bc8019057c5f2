"""Hypothesis tests for performance comparisons.

Sec. IV-B-1 lists hypothesis testing among the statistics techniques.  The
two tests I/O studies actually use are wrapped with a uniform result type:
Welch's t-test ("is configuration A faster than B?") and the two-sample
Kolmogorov-Smirnov test ("do these latency distributions differ?").

``scipy.stats`` is imported inside each test function, not at module top:
it costs more start-up time than the rest of :mod:`repro` together, and no
experiment, scenario or service path computes a test statistic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class TestResult:
    """Outcome of a hypothesis test."""

    test: str
    statistic: float
    p_value: float
    alpha: float = 0.05

    @property
    def significant(self) -> bool:
        """Reject the null hypothesis at level alpha."""
        return self.p_value < self.alpha

    def summary(self) -> str:
        verdict = "REJECT H0" if self.significant else "fail to reject H0"
        return (
            f"{self.test}: stat={self.statistic:.4g} p={self.p_value:.4g} "
            f"(alpha={self.alpha}) -> {verdict}"
        )


def _check(sample: Sequence[float], name: str, min_n: int = 2) -> np.ndarray:
    arr = np.asarray(list(sample), dtype=float)
    if arr.size < min_n:
        raise ValueError(f"{name} needs at least {min_n} observations")
    return arr


def t_test(
    a: Sequence[float], b: Sequence[float], alpha: float = 0.05
) -> TestResult:
    """Welch's two-sample t-test (unequal variances).

    Null hypothesis: the two samples have equal means.
    """
    arr_a = _check(a, "sample a")
    arr_b = _check(b, "sample b")
    from scipy import stats as sps

    stat, p = sps.ttest_ind(arr_a, arr_b, equal_var=False)
    return TestResult(test="welch-t", statistic=float(stat), p_value=float(p), alpha=alpha)


def ks_test(
    a: Sequence[float], b: Sequence[float], alpha: float = 0.05
) -> TestResult:
    """Two-sample Kolmogorov-Smirnov test.

    Null hypothesis: both samples are drawn from the same distribution.
    """
    arr_a = _check(a, "sample a")
    arr_b = _check(b, "sample b")
    from scipy import stats as sps

    stat, p = sps.ks_2samp(arr_a, arr_b)
    return TestResult(test="ks-2samp", statistic=float(stat), p_value=float(p), alpha=alpha)
