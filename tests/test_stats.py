import math

import numpy as np
import pytest

from bpre.stats import mean_and_se, ratio_and_se, ratio_combined_se, weighted_median, weighted_pmf


def _loop_weighted_pmf(values, weights):
    """Reference: one rescan of all values per atom."""
    total = float(np.sum(weights))
    out = {}
    if total == 0.0:
        return out
    n = len(values)
    for v in np.unique(values):
        ind = (values == v).astype(float)
        p = float(np.sum(weights * ind)) / total
        resid = weights * (ind - p)
        se = math.sqrt(float(np.sum(resid**2)) * n / (n - 1)) / total if n > 1 else 0.0
        out[int(v)] = (p, se)
    return out


@pytest.mark.parametrize("seed", range(6))
def test_weighted_pmf_matches_loop(seed):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, 5000))
    values = rng.geometric(rng.uniform(0.05, 0.9), size)
    weights = rng.exponential(size=size) * (rng.random(size) < 0.8)
    got, ref = weighted_pmf(values, weights), _loop_weighted_pmf(values, weights)
    assert list(got) == list(ref)
    for atom, (p, se) in ref.items():
        assert got[atom][0] == pytest.approx(p, rel=1e-12)
        assert got[atom][1] == pytest.approx(se, rel=1e-9)
        # the SE convention of every other ratio in the package
        ratio = ratio_and_se(weights * (values == atom), weights)
        assert got[atom] == pytest.approx(ratio, rel=1e-9)


def test_weighted_pmf_point_mass():
    weights = np.random.default_rng(7).random(50)
    assert weighted_pmf(np.full(50, 3), weights) == {3: (1.0, 0.0)}
    assert weighted_pmf(np.array([4]), np.array([2.0])) == {4: (1.0, 0.0)}


def test_weighted_pmf_zero_weight_is_empty():
    assert weighted_pmf(np.array([1, 2]), np.zeros(2)) == {}


def test_weighted_median_without_weight_is_nan():
    # a sampled WS Q-process whose every replicate overflows has no rows left
    assert math.isnan(weighted_median(np.array([], dtype=np.int64), np.array([])))
    assert math.isnan(weighted_median(np.array([1, 2]), np.zeros(2)))
    assert weighted_median(np.array([3, 1, 2]), np.ones(3)) == 2.0


def test_ratio_of_zero_denominator():
    num, den = np.zeros(4), np.zeros(4)
    value, se = ratio_and_se(num, den)
    assert math.isnan(value) and se == math.inf
    assert ratio_combined_se(num, den, scale=2.0) == math.inf


@pytest.mark.parametrize("factor", [1e-200, 1e200])
@pytest.mark.parametrize("seed", range(3))
def test_standard_errors_of_tiny_and_huge_samples(seed, factor):
    """SEs scale with the samples where squaring them under- or overflows,
    and keep the bits of np.std on ordinary samples."""
    rng = np.random.default_rng(seed)
    num = rng.exponential(size=1000) * (rng.random(1000) < 0.3)
    den = num + rng.exponential(size=1000)
    assert mean_and_se(num)[1] == float(np.std(num, ddof=1)) / math.sqrt(1000)
    assert mean_and_se(num * factor)[1] == pytest.approx(factor * mean_and_se(num)[1], rel=1e-12)
    assert ratio_and_se(num * factor, den * factor)[1] == pytest.approx(ratio_and_se(num, den)[1], rel=1e-12)
    combined = ratio_combined_se(num * factor, den * factor, scale=3.0)
    assert combined == pytest.approx(ratio_combined_se(num, den, scale=3.0), rel=1e-12)
