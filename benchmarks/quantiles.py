"""Harrell-Davis quantile estimate, for runs with few operations.

A ladder run times 24 operations.  Its plain median is the mean of two of
them and moved by a quarter between runs; the Harrell-Davis estimate, a
Beta-weighted mean of all order statistics, spreads the weight over the
neighbouring cells.  On thousands of operations it equals the plain
quantile to within a fraction of a percent.
"""

from __future__ import annotations

import math


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        for aa in (
            m * (b - m) * x / ((a - 1.0 + 2 * m) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 1.0 + 2 * m)),
        ):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-12:
            break
    return h


def _beta_cdf(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def quantile(values: list[float], p: float) -> float:
    """Weighted mean of the order statistics, Beta((n+1)p, (n+1)(1-p)) weights."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    total = prev = 0.0
    for i, x in enumerate(xs, start=1):
        cur = _beta_cdf(a, b, i / n)
        total += (cur - prev) * x
        prev = cur
    return total
