"""Small statistical helpers shared by the estimators.

Everything here operates on per-replicate sample arrays so that common
random numbers flow through ratio estimators with the correlations intact.
"""

from __future__ import annotations

import math

import numpy as np


def unit_scaled(w: np.ndarray) -> np.ndarray:
    """The nonnegative weights ``w`` times the power of two that puts the
    largest in [0.5, 1), so that their squares do not underflow. The scaling
    is exact, and ratios of sums of w and of w**2 keep their bits."""
    return np.ldexp(w, -math.frexp(float(np.max(w, initial=0.0)))[1])


def _sample_std(x: np.ndarray) -> float:
    """``np.std(x, ddof=1)``, with the deviations scaled before they are
    squared by the power of two that puts the largest |x| in [0.5, 1). The
    scaling is exact, so the result has the bits of ``np.std`` unless the
    squares would underflow or overflow, where it stays accurate."""
    e = math.frexp(max(float(x.max()), -float(x.min())))[1]
    dev = x - x.mean()
    np.ldexp(dev, -e, out=dev)
    dev *= dev
    return math.ldexp(math.sqrt(dev.sum() / (len(x) - 1)), e)


def mean_and_se(samples: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error."""
    n = len(samples)
    m = float(np.mean(samples)) if n else math.nan
    if n < 2:
        return m, 0.0
    return m, _sample_std(samples) / math.sqrt(n)


def ratio_and_se(num: np.ndarray, den: np.ndarray) -> tuple[float, float]:
    """Delta-method estimate of E[num]/E[den] from paired samples.

    Var(ratio) ~ Var(num - r*den) / (n * mean(den)**2); the covariance term
    matters because num and den share the same draws.
    """
    n = len(num)
    den_mean = float(np.mean(den))
    if den_mean == 0.0:
        return math.nan, math.inf
    r = float(np.mean(num)) / den_mean
    if n < 2:
        return r, 0.0
    resid = num - r * den
    return r, _sample_std(resid) / (math.sqrt(n) * abs(den_mean))


def weighted_means_and_se(moments: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``ratio_and_se(w * v, w)`` of every column v, from ``moments``, the
    (3, m) sums over the rows of w v, w**2 v and w**2 v**2, and the weights
    ``w``. ``lfexact.conditioned_law`` returns such sums.

    The residual sum of squares of w (v - r) is expanded as
    sum w**2 v**2 - 2 r sum w**2 v + r**2 sum w**2. Scale ``w`` so that its
    largest weight is near 1 (``unit_scaled``), or w**2 underflows.
    """
    count = len(w)
    total = float(w.sum())
    est = moments[0] / total
    if count < 2:
        return est, np.zeros_like(est)
    ss = moments[2] - 2.0 * est * moments[1] + est * est * float(np.dot(w, w))
    return est, np.sqrt(np.maximum(ss, 0.0) / (count - 1)) * math.sqrt(count) / total


def ratio_combined_se(num: np.ndarray, den: np.ndarray, scale: float = 1.0) -> float:
    """Conservative SE for a ratio: combine the two SEs without covariance
    credit. ``scale`` multiplies the denominator contribution (use the target
    ratio value). Inf where the mean denominator is 0, as in ``ratio_and_se``."""
    n = len(num)
    if n < 2:
        return 0.0
    den_mean = float(np.mean(den))
    if den_mean == 0.0:
        return math.inf
    se_num = _sample_std(num) / math.sqrt(n)
    se_den = _sample_std(den) / math.sqrt(n)
    # hypot, unlike sqrt(a**2 + b**2), does not underflow for tiny SEs
    return math.hypot(se_num, scale * se_den) / abs(den_mean)


def kish_neff(weights: np.ndarray) -> float:
    """Effective sample size of a weighted sample."""
    weights = unit_scaled(weights)
    s = float(np.sum(weights))
    s2 = float(np.sum(weights**2))
    if s2 == 0.0:
        return 0.0
    return s * s / s2


def weighted_pmf(
    values: np.ndarray, weights: np.ndarray
) -> dict[int, tuple[float, float]]:
    """Normalized weighted pmf with delta-method standard errors per atom:
    atom v has ``ratio_and_se(w * (values == v), w)``.

    One pass over the values: with w_v and w2_v the sums of w and w**2 over
    atom v, W2 the sum of w**2 over all n values, p_v = w_v / total and
    SE**2 = n/(n-1) ((1 - p_v)**2 w2_v + p_v**2 (W2 - w2_v)) / total**2.
    Totals come from the per-atom sums, so a point mass has SE exactly 0.
    """
    atoms, inverse = np.unique(values, return_inverse=True)
    weights = unit_scaled(np.asarray(weights, dtype=float))
    w = np.bincount(inverse, weights=weights, minlength=len(atoms))
    w2 = np.bincount(inverse, weights=weights**2, minlength=len(atoms))
    total = float(w.sum())
    if total == 0.0:
        return {}
    p = w / total
    n = len(values)
    se = np.zeros(len(atoms))
    if n > 1:
        se = np.sqrt((1.0 - p) ** 2 * w2 + p**2 * (w2.sum() - w2)) / total * math.sqrt(n / (n - 1))
    return {int(v): (float(pv), float(sv)) for v, pv, sv in zip(atoms, p, se)}


def pmf_tv_distance(p: dict[int, tuple[float, float]], q: dict[int, tuple[float, float]]) -> float:
    keys = set(p) | set(q)
    return 0.5 * math.fsum(abs(p.get(k, (0.0, 0.0))[0] - q.get(k, (0.0, 0.0))[0]) for k in keys)


def pmf_tv_budget(
    p: dict[int, tuple[float, float]],
    q: dict[int, tuple[float, float]],
    neff_p: float,
    neff_q: float,
) -> float:
    """Upper bound on the expected spurious TV distance of two empirical
    pmfs of the same law, from their effective sample sizes."""
    keys = set(p) | set(q)
    inv = 1.0 / max(neff_p, 1.0) + 1.0 / max(neff_q, 1.0)
    budget = 0.0
    for k in keys:
        pk = 0.5 * (p.get(k, (0.0, 0.0))[0] + q.get(k, (0.0, 0.0))[0])
        budget += math.sqrt(max(pk * (1.0 - pk), 0.0) * inv)
    return 0.5 * budget


def linear_r_squared(x: np.ndarray, y: np.ndarray) -> float:
    """R**2 of the best straight-line fit y ~ a + b*x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    b, a = np.polyfit(x, y, 1)
    resid = y - (a + b * x)
    ss_res = float(np.dot(resid, resid))
    yc = y - y.mean()
    ss_tot = float(np.dot(yc, yc))
    if ss_tot == 0.0:
        return 1.0
    return 1.0 - ss_res / ss_tot

