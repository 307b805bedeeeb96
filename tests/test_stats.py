import math

import numpy as np
import pytest

from bpre.stats import weighted_pmf


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
        se = math.sqrt(float(np.sum(resid**2))) / total if n > 1 else 0.0
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


def test_weighted_pmf_point_mass():
    weights = np.random.default_rng(7).random(50)
    assert weighted_pmf(np.full(50, 3), weights) == {3: (1.0, 0.0)}
    assert weighted_pmf(np.array([4]), np.array([2.0])) == {4: (1.0, 0.0)}


def test_weighted_pmf_zero_weight_is_empty():
    assert weighted_pmf(np.array([1, 2]), np.zeros(2)) == {}
