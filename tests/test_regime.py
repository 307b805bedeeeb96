import math

import pytest

from bpre.environment import (
    EnvironmentModel,
    env_expectation,
    is_ref,
    ss_ref,
    tilt,
    ws_ref,
)
from bpre import regime
from bpre.config import model_from_config
from bpre.errors import NotSubcriticalError
from bpre.offspring import LinearFractional, geometric_lf, moments
from bpre.regime import classify, solve_alpha, solve_gamma_tilde

WS_ALPHA = math.log(2.0) / 3.0
WS_GAMMA = (2.0 ** (-2.0 / 3.0) + 2.0 ** (1.0 / 3.0)) / 2.0


class TestClassify:
    def test_ss_ref(self):
        rep = classify(ss_ref())
        assert rep.regime == "SS"
        assert rep.e_m_log_m < 0
        # E[m log m] = ((1/2)(-ln2) + (1/4)(-2 ln2)) / 2 = -(ln2)/2
        assert rep.e_m_log_m == pytest.approx(-math.log(2) / 2, abs=1e-12)
        assert rep.gamma == pytest.approx(0.375, abs=1e-15)
        assert rep.alpha == 1.0

    def test_is_ref(self):
        rep = classify(is_ref())
        assert rep.regime == "IS"
        assert abs(rep.e_m_log_m) <= 1e-12
        assert rep.gamma == pytest.approx(0.6, abs=1e-15)
        assert rep.alpha == 1.0
        assert rep.e_log_m == pytest.approx(-1.4 * math.log(2), abs=1e-12)

    def test_ws_ref(self):
        rep = classify(ws_ref())
        assert rep.regime == "WS"
        assert rep.alpha == pytest.approx(WS_ALPHA, abs=1e-8)
        assert rep.gamma == pytest.approx(WS_GAMMA, abs=1e-8)

    def test_rejects_supercritical(self):
        model = EnvironmentModel([(LinearFractional(0.5, 0.5), 1.0)])  # mean 2
        with pytest.raises(NotSubcriticalError):
            classify(model)


class TestSolveAlpha:
    def test_deterministic_half(self):
        model = EnvironmentModel([(LinearFractional(0.125, 0.5), 1.0)])
        alpha, gamma = solve_alpha(model)
        assert alpha == 1.0
        assert gamma == pytest.approx(0.5, abs=1e-15)

    def test_interior_root_is_zero_of_derivative(self):
        model = ws_ref()
        alpha, _ = solve_alpha(model)
        val = env_expectation(
            model, lambda law: moments(law)[0] ** alpha * math.log(moments(law)[0])
        )
        assert abs(val) <= 1e-10

    def test_local_minimality(self):
        model = ws_ref()
        alpha, gamma = solve_alpha(model)

        def phi(t):
            return env_expectation(model, lambda law: moments(law)[0] ** t)

        assert phi(alpha - 1e-6) >= gamma
        assert phi(alpha + 1e-6) >= gamma

    def test_gamma_below_mean(self):
        for model in [ss_ref(), is_ref(), ws_ref()]:
            rep = classify(model)
            assert rep.gamma <= rep.e_m + 1e-15
            if rep.regime in ("SS", "IS"):
                assert rep.gamma == pytest.approx(rep.e_m, abs=1e-15)
            else:
                assert rep.gamma < rep.e_m

    def test_tilted_walk_centered_in_is_ws(self):
        for model in [is_ref(), ws_ref()]:
            alpha, _ = solve_alpha(model)
            tilted, _ = tilt(model, alpha)
            drift = env_expectation(
                tilted, lambda law: math.log(moments(law)[0])
            )
            assert abs(drift) <= 1e-10


class TestSolveAlphaMemo:
    """solve_alpha is cached per model."""

    FS_WS = {"components": [{"law": {"fs": [0.5, 0.3, 0.2]}, "weight": 0.5},
                            {"law": {"fs": [0.3, 0.3, 0.2, 0.2]}, "weight": 0.5}]}

    def test_rebuilt_model_gives_the_same_bits(self):
        solve_alpha.cache_clear()
        first = solve_alpha(model_from_config(self.FS_WS))
        cached = solve_alpha(model_from_config(self.FS_WS))
        solve_alpha.cache_clear()
        fresh = solve_alpha(model_from_config(self.FS_WS))
        assert 0.0 < first[0] < 1.0  # an interior root, found by bisection
        assert [x.hex() for x in first] == [x.hex() for x in cached] == [x.hex() for x in fresh]

    def test_second_solve_does_not_bisect(self, monkeypatch):
        calls = []
        dphi = regime._dphi
        monkeypatch.setattr(regime, "_dphi", lambda *args: calls.append(1) or dphi(*args))
        solve_alpha.cache_clear()
        model = ws_ref()
        first = solve_alpha(model)
        assert len(calls) > 30
        calls.clear()
        assert solve_alpha(model) == first
        assert calls == []

    def test_not_subcritical_raises_on_every_call(self):
        model = EnvironmentModel([(LinearFractional(0.5, 0.5), 1.0)])  # mean 2
        for _ in range(2):
            with pytest.raises(NotSubcriticalError):
                solve_alpha(model)


class TestGammaTilde:
    def test_ws_k1_interior(self):
        theta, rate, case = solve_gamma_tilde(ws_ref(), 1)
        assert case == "iii"
        assert theta == pytest.approx(WS_ALPHA, abs=1e-8)
        assert rate == pytest.approx(WS_GAMMA, abs=1e-8)

    def test_ss_k1_boundary(self):
        theta, rate, case = solve_gamma_tilde(ss_ref(), 1)
        assert case == "i"
        assert theta == 1.0
        assert rate == pytest.approx(0.375, abs=1e-15)

    @pytest.mark.parametrize("k", [1, 2, 5, 9])
    def test_ss_all_k_boundary(self, k):
        # both means below 1, so E[m**k log m] < 0 for every k
        theta, rate, case = solve_gamma_tilde(ss_ref(), k)
        assert case == "i"
        assert rate == pytest.approx((0.5**k + 0.25**k) / 2, rel=1e-12)

    @pytest.mark.parametrize("k", [700, 710, 1400, 10000])
    def test_ws_any_k_interior(self, k):
        # m**k overflowed a float once k log m passed 709; ws-ref's largest
        # mean is e, so from k = 710 on
        theta, rate, case = solve_gamma_tilde(ws_ref(), k)
        assert case == "iii"
        assert theta == pytest.approx(WS_ALPHA, abs=1e-8)
        assert rate == pytest.approx(WS_GAMMA, abs=1e-8)
        assert classify(ws_ref(), k).gamma_tilde_k == rate

    def test_rate_below_single_particle_rate(self):
        rep2 = classify(ws_ref(), k=2)
        assert rep2.gamma_tilde_k <= rep2.gamma + 1e-15

    def test_is_ref_k1_case_ii(self):
        theta, rate, case = solve_gamma_tilde(is_ref(), 1)
        assert case == "ii"
        assert rate == pytest.approx(0.6, abs=1e-12)


def test_mixed_family_model_classifies():
    # geometric realization of the same means classifies identically
    model = EnvironmentModel(
        [(geometric_lf(0.5), 0.5), (geometric_lf(0.25), 0.5)]
    )
    rep = classify(model)
    assert rep.regime == "SS"
    assert rep.gamma == pytest.approx(0.375, rel=1e-12)
