import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bpre.errors import ValidationError
from bpre.environment import EnvironmentModel
from bpre.lfexact import _log_step, _step_table
from bpre.offspring import (
    FiniteSupport,
    LinearFractional,
    geometric_lf,
    lf_from_moments,
    moments,
    pgf,
    sample,
    sample_many,
)
from bpre.streams import stream


def lf_quarter_half():
    return LinearFractional(0.25, 0.5)


class TestPgf:
    def test_lf_at_zero(self):
        # this law is f(s) = 1/(2 - s)
        assert pgf(lf_quarter_half(), 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_any_law_at_one(self):
        for law in [lf_quarter_half(), FiniteSupport([0.75, 0.0, 0.25])]:
            assert pgf(law, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_finite_support_polynomial(self):
        law = FiniteSupport([0.75, 0.0, 0.25])
        assert pgf(law, 0.5) == pytest.approx(0.8125, abs=1e-15)

    def test_domain_error(self):
        with pytest.raises(ValidationError):
            pgf(lf_quarter_half(), 1.5)
        with pytest.raises(ValidationError):
            pgf(lf_quarter_half(), -0.1)


class TestMoments:
    @pytest.mark.parametrize(
        "law, m, f2",
        [
            (LinearFractional(0.25, 0.5), 1.0, 2.0),
            (LinearFractional(0.5, 0.5), 2.0, 4.0),
            (FiniteSupport([0.5, 0.5]), 0.5, 0.0),
        ],
    )
    def test_known_values(self, law, m, f2):
        got_m, got_f2 = moments(law)
        assert got_m == pytest.approx(m, abs=1e-14)
        assert got_f2 == pytest.approx(f2, abs=1e-14)

    def test_one_sided_difference_matches_mean(self):
        h = 1e-5
        for law in [lf_quarter_half(), LinearFractional(0.5, 0.5), FiniteSupport([0.2, 0.3, 0.5])]:
            m = moments(law)[0]
            diff = (pgf(law, 1.0) - pgf(law, 1.0 - h)) / h
            assert abs(diff - m) / m < 1e-4


GRID = np.linspace(0.0, 1.0, 11)


def _law_strategy():
    lf = st.tuples(
        st.floats(0.01, 0.99), st.floats(0.0, 0.95)
    ).filter(lambda ab: ab[0] + ab[1] <= 1.0).map(lambda ab: LinearFractional(*ab))
    fs = st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6).filter(
        lambda v: sum(v) > 1e-3
    ).map(lambda v: FiniteSupport([x / sum(v) for x in v]))
    return st.one_of(lf, fs)


@settings(max_examples=60, deadline=None)
@given(_law_strategy())
def test_pgf_monotone_and_convex_on_grid(law):
    vals = [pgf(law, float(s)) for s in GRID]
    assert all(0.0 <= v <= 1.0 + 1e-12 for v in vals)
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    # midpoint convexity on the grid
    for i in range(len(GRID) - 2):
        assert vals[i] + vals[i + 2] >= 2 * vals[i + 1] - 1e-12
    assert vals[-1] == pytest.approx(1.0, abs=1e-12)


def decimal_log_step(law, log_u: float) -> float:
    """log(1 - f(1 - u)) at u = e**log_u, from the definition
    sum_{j>=1} p_j (1 - (1 - u)**j) in 80-digit decimal arithmetic, without
    the tail-sum form the kernel uses. For u <= 1/2 each 1 - (1 - u)**j is
    expanded by the binomial theorem, which keeps tiny u exact; above, 1 - u
    is the series of -expm1(log u). A linear-fractional law sums its series
    in closed form, A u / ((1 - B)(1 - B (1 - u)))."""
    if log_u == -math.inf:
        return -math.inf
    size = len(law.probs) if isinstance(law, FiniteSupport) else 0
    with localcontext() as ctx:
        ctx.prec = 80
        x = Decimal(log_u)
        u = x.exp()
        if u <= Decimal(0.5):
            d = 1 - u
            fail = [sum((-1) ** (k + 1) * math.comb(j, k) * u**k for k in range(1, j + 1)) for j in range(size)]
        else:
            d, term, k = Decimal(0), Decimal(1), 0
            while True:
                k += 1
                term = term * x / k
                if term == 0 or abs(term) < abs(d) * Decimal(10) ** -90:
                    break
                d -= term
            fail = [1 - d**j if j else Decimal(0) for j in range(size)]
        if isinstance(law, LinearFractional):
            a, b = Decimal(law.A), Decimal(law.B)
            value = a * u / ((1 - b) * (1 - b * d))
        else:
            value = sum((Decimal(p) * fail[j] for j, p in enumerate(law.probs) if j), Decimal(0))
        return float(value.ln()) if value > 0 else -math.inf


# log u at the ends of its range: u = 1, 1 - u below an ulp of 1, u subnormal,
# u below the float range, and u = 0
EXTREME_LOG_U = (0.0, -1e-300, -745.0, -1e4, -math.inf)
EDGE_LAWS = {
    "zero-mean": FiniteSupport((1.0,)),
    "p0-zero": FiniteSupport((0.0, 0.5, 0.5)),
    "p1-2**-24": FiniteSupport((0.9999999403953588, 5.960464122267716e-08)),
    "p1-1e-12": FiniteSupport((0.999999999999, 9.999999999990001e-13)),
    "p1-subnormal": FiniteSupport((1.0, 5e-324)),
}


def check_survival_step(law, log_u):
    # the kernel's one-generation step against the decimal reference: within
    # 1e-15 of it in log u', relative to max(1, |log u'|), so within 1e-15
    # relative in u' itself where u' is not tiny
    want = decimal_log_step(law, log_u)
    table = _step_table(EnvironmentModel([(law, 1.0)]))
    (step,) = _log_step(table, np.array([log_u]), np.zeros(1, dtype=np.intp))
    if want == -math.inf:
        assert step == -math.inf
    else:
        assert abs(step - want) <= 1e-15 * max(1.0, abs(want)), (step, want)


@settings(max_examples=40, deadline=None)
@given(_law_strategy(), st.one_of(st.floats(0.01, 1.0).map(math.log), st.sampled_from(EXTREME_LOG_U)))
@example(FiniteSupport((0.9999999403953588, 5.960464122267716e-08)), math.log(0.140625))
@example(FiniteSupport((0.999999999999, 9.999999999990001e-13)), math.log(0.5))
@example(FiniteSupport((1.0, 5e-324)), math.log(0.5))
@example(FiniteSupport((1.0, 5e-324)), 0.0)
def test_survival_step_consistency(law, log_u):
    check_survival_step(law, log_u)


@pytest.mark.parametrize("log_u", EXTREME_LOG_U)
@pytest.mark.parametrize("law", EDGE_LAWS.values(), ids=EDGE_LAWS.keys())
def test_survival_step_at_extreme_log_u(law, log_u):
    check_survival_step(law, log_u)


class TestSampling:
    def test_degenerate_always_one(self):
        law = FiniteSupport([0.0, 1.0])
        rng = stream(7, "test")
        assert all(sample(law, rng) == 1 for _ in range(100))

    def test_lf_empirical_mean(self):
        law = lf_quarter_half()
        m, f2 = moments(law)
        var = f2 + m - m * m
        rng = stream(11, "test")
        draws = sample_many(law, 10**6, rng)
        tol = 3.0 * math.sqrt(var) / 1e3
        assert abs(draws.mean() - m) < tol

    def test_lf_empirical_mass_at_zero(self):
        law = lf_quarter_half()
        p0 = pgf(law, 0.0)
        rng = stream(13, "test")
        draws = sample_many(law, 10**6, rng)
        frac = np.mean(draws == 0)
        se = math.sqrt(p0 * (1 - p0) / 1e6)
        assert abs(frac - p0) < 3.0 * se

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_empirical_pgf_matches(self, s):
        law = lf_quarter_half()
        rng = stream(17, "test")
        draws = sample_many(law, 10**6, rng)
        vals = np.power(s, draws)
        se = vals.std(ddof=1) / 1e3
        assert abs(vals.mean() - pgf(law, s)) < 4.0 * se


class TestConstruction:
    def test_lf_constraints(self):
        with pytest.raises(ValidationError):
            LinearFractional(0.8, 0.5)  # A + B > 1
        with pytest.raises(ValidationError):
            LinearFractional(0.5, 1.0)  # B = 1
        with pytest.raises(ValidationError):
            LinearFractional(-0.1, 0.5)

    def test_fs_renormalizes_within_tolerance(self):
        law = FiniteSupport([0.5, 0.5 + 5e-13])
        assert math.fsum(law.probs) == pytest.approx(1.0, abs=1e-15)

    def test_fs_rejects_bad_sum(self):
        with pytest.raises(ValidationError):
            FiniteSupport([0.5, 0.4])
        with pytest.raises(ValidationError):
            FiniteSupport([1.1, -0.1])
        with pytest.raises(ValidationError, match="^probs:"):
            FiniteSupport([0.5, math.nan, 0.5])

    def test_lf_from_moments_roundtrip(self):
        law = lf_from_moments(1.0, 2.0)
        assert law.A == pytest.approx(0.25, abs=1e-15)
        assert law.B == pytest.approx(0.5, abs=1e-15)
        for target_m, target_f2 in [(1.0, 1.0), (0.7, 0.3), (2.0, 9.0)]:
            m, f2 = moments(lf_from_moments(target_m, target_f2))
            assert m == pytest.approx(target_m, rel=1e-12)
            assert f2 == pytest.approx(target_f2, rel=1e-12)

    def test_lf_from_moments_infeasible(self):
        with pytest.raises(ValidationError):
            lf_from_moments(3.0, 0.1)  # needs f2 >= 2*m*(m-1) = 12

    def test_geometric_lf_any_mean(self):
        for m in [0.1, 1.0, math.e, 10.0]:
            law = geometric_lf(m)
            got_m, got_f2 = moments(law)
            assert got_m == pytest.approx(m, rel=1e-12)
            assert got_f2 == pytest.approx(2 * m * m, rel=1e-12)
