"""The exact oracles on cases that can be checked by hand or by brute force."""

import itertools
import math

import numpy as np
import pytest

import oracles as O

CRITICAL_GEOMETRIC = [(O.geometric_law(1.0), 1.0)]  # f(s) = 1/(2-s)
BERNOULLI = [(("fs", [0.4, 0.6]), 1.0)]


def brute_force_walk(steps, n):
    """(probability, partial sums S_0..S_n) of every path."""
    for path in itertools.product(steps, repeat=n):
        prob = math.prod(w for _, w in path)
        sums = [0]
        for d, _ in path:
            sums.append(sums[-1] + d)
        yield prob, sums


@pytest.mark.parametrize("n", [1, 2, 5, 10])
def test_critical_geometric_survival_is_one_over_n_plus_one(n):
    assert O.annealed_survival(CRITICAL_GEOMETRIC, 1, n) == pytest.approx(1 / (1 + n), rel=1e-13)


@pytest.mark.parametrize("n", [1, 3, 8])
def test_single_component_yaglom_law_is_geometric(n):
    # F_n(s) = (n - (n-1)s) / (n+1 - ns), so Z_n | Z_n > 0 is geometric
    # with pgf s / (n+1 - ns)
    grid = [0.0, 0.3, 0.6, 0.9, 1.0]
    law = O.yaglom_law(CRITICAL_GEOMETRIC, 1, n, grid)
    expected = [s / (n + 1 - n * s) for s in grid]
    np.testing.assert_allclose(law["pgf"], expected, rtol=1e-12, atol=1e-15)
    # one environment and no tilt: the estimator's spread is that of s**Z
    second = [s * s / (n + 1 - n * s * s) for s in grid]
    np.testing.assert_allclose(law["pgf_sd"] ** 2, np.array(second) - np.array(expected) ** 2,
                               rtol=1e-9, atol=1e-15)
    for j, p in law["pmf"].items():
        assert p == pytest.approx((1 / (n + 1)) * (n / (n + 1)) ** (j - 1), rel=1e-9)


def test_single_component_yaglom_from_two_particles():
    n = 4

    def big_f(s):
        return (n - (n - 1) * s) / (n + 1 - n * s)

    grid = [0.0, 0.5, 0.8]
    law = O.yaglom_law(CRITICAL_GEOMETRIC, 2, n, grid)
    expected = [(big_f(s) ** 2 - big_f(0) ** 2) / (1 - big_f(0) ** 2) for s in grid]
    np.testing.assert_allclose(law["pgf"], expected, rtol=1e-12, atol=1e-15)


def test_bernoulli_law_survives_with_p_to_the_n():
    assert O.annealed_survival(BERNOULLI, 1, 7) == pytest.approx(0.6**7, rel=1e-12)
    assert O.annealed_survival(BERNOULLI, 3, 7) == pytest.approx(1 - (1 - 0.6**7) ** 3, rel=1e-12)
    law = O.yaglom_law(BERNOULLI, 1, 5, [0.5])
    assert law["pgf"][0] == pytest.approx(0.5)
    assert law["pmf"][1] == pytest.approx(1.0)
    assert abs(law["pmf"][2]) < 1e-12


def test_joint_and_lineage_laws_on_one_component():
    n, k = 6, 3
    q = 1 / (n + 1)
    assert O.joint_survival(CRITICAL_GEOMETRIC, k, n) == pytest.approx(q**k)
    alive = 1 - (1 - q) ** k
    pmf = O.lineage_pmf(CRITICAL_GEOMETRIC, k, n)
    for j in range(1, k + 1):
        assert pmf[j] == pytest.approx(math.comb(k, j) * q**j * (1 - q) ** (k - j) / alive)
    assert O.env_selection(CRITICAL_GEOMETRIC, 1, n, [0.1, 0.2]) == {0.1: 1.0, 0.2: 0.0}


def test_lf_bracket_contains_enumeration_and_closed_form():
    n = 12
    brackets = O.lf_survival_bracket(O.WS_REF, n, ks=(1, 4))
    for k in (1, 4):
        lo, hi = brackets[k]
        exact = O.annealed_survival(O.WS_REF, k, n)
        assert lo <= exact <= hi
        assert hi - lo < 2e-3 * exact
    lo, hi = O.lf_survival_bracket(CRITICAL_GEOMETRIC, 100)[1]
    assert lo <= 1 / 101 <= hi


def test_ss_moment_bracket_matches_enumeration():
    n = 12
    lo, hi = O.ss_moment_bracket(O.SS_REF, n)
    assert lo == hi == pytest.approx(O.annealed_survival(O.SS_REF, 1, n), rel=1e-12)
    lo2, hi2 = O.ss_moment_bracket(O.SS_REF, n, power=2)
    assert lo2 == pytest.approx(O.joint_survival(O.SS_REF, 2, n), rel=1e-12)
    # truncating earlier gives a wider bracket around the tighter one
    wide = O.ss_moment_bracket(O.SS_REF, 30, depth=8)
    tight = O.ss_moment_bracket(O.SS_REF, 30, depth=16)
    assert wide[0] <= tight[0] <= tight[1] <= wide[1]
    assert (tight[1] - tight[0]) / tight[0] < 1e-4


def test_ss_lineage_bracket_contains_enumeration():
    n, k = 10, 3
    exact = O.lineage_pmf(O.SS_REF, k, n)
    for j, (lo, hi) in O.ss_lineage_bracket(O.SS_REF, k, n).items():
        assert lo * (1 - 1e-12) <= exact[j] <= hi * (1 + 1e-12)


def test_walk_tail_by_hand_and_by_brute_force():
    steps = O.WS_REF_WALK
    assert O.walk_tail(steps, 1, 1.0) == 0.5  # only the up-step stays above -1
    assert O.walk_tail(steps, 2, 1.0) == 0.5  # up-down ends at -1 exactly
    n, x = 10, 2.0
    brute = sum(p for p, s in brute_force_walk(steps, n) if min(s) >= -x)
    assert O.walk_tail(steps, n, x) == pytest.approx(brute, rel=1e-12)


@pytest.mark.parametrize("band,count,x", [(0, 2, 1.0), (1, 3, 2.0), (0, 1, 0.0)])
def test_walk_occupation_by_brute_force(band, count, x):
    steps, n = O.WS_REF_WALK, 10
    num = den = 0.0
    for p, s in brute_force_walk(steps, n):
        low = min(s)
        if low >= -x:
            den += p
            if sum(1 for v in s if v - low == band) >= count:
                num += p
    assert O.walk_occupation(steps, n, band, count, x) == pytest.approx(num / den, rel=1e-12)


def test_size_biased_chain_by_hand():
    model = [(("fs", [0.5, 0.25, 0.25]), 1.0)]  # mean 3/4
    laws = O.qprocess_ss_laws(model, 3)
    assert laws[0][1] == 1.0
    assert laws[1][1] == pytest.approx(1 / 3)  # 1 * 0.25 / 0.75
    assert laws[1][2] == pytest.approx(2 / 3)  # 2 * 0.25 / 0.75
    for law in laws:
        assert law.sum() == pytest.approx(1.0, abs=1e-12)


def test_conditioned_chain_at_the_horizon_is_the_yaglom_law():
    horizon = 4
    cdfs = O.qprocess_ws_cdfs(O.WS_REF, horizon, 0, level=0.99)
    assert list(cdfs[0]) == [0.0, 1.0]
    law = O.yaglom_law(O.WS_REF, 1, horizon, [0.0], atoms=6)
    np.testing.assert_allclose(cdfs[horizon][1:7], np.cumsum([law["pmf"][j] for j in range(1, 7)]),
                               rtol=1e-6)


def test_expected_ess_ratio_is_one_without_weight_spread():
    assert O.expected_ess_ratio(CRITICAL_GEOMETRIC, 1, 5) == pytest.approx(1.0)
    assert 0.0 < O.expected_ess_ratio(O.WS_REF, 1, 8) < 1.0


def test_median_bounds():
    cdf = np.array([0.0, 0.3, 0.6, 0.9])
    assert O.median_bounds_ok(cdf, 2, 0.0)
    assert not O.median_bounds_ok(cdf, 1, 0.0)
    assert O.median_bounds_ok(cdf, 1, 0.25)
    assert not O.median_bounds_ok(cdf, 3, 0.05)
