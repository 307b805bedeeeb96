import dataclasses
import decimal
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpre.environment import (
    EnvironmentModel,
    EnvSequence,
    draw_env,
    draw_env_batch,
    is_ref,
    pack_env,
    ss_ref,
    tilt_plan,
    ws_ref,
)
from bpre.errors import ValidationError
from bpre import lfexact
from bpre.lfexact import (
    SurvivorTail,
    _lf_tables,
    any_survive,
    closed_form_log_survival,
    conditioned_law,
    iterate_F,
    lf_minorant,
    log_survival,
    log_survival_env,
    log_survival_profile,
    quenched_survival,
    surviving_lines,
)
from bpre.offspring import FiniteSupport, LinearFractional, geometric_lf, moments, pgf
from bpre.rwalk import WalkPath, walk_stats
from bpre.simcore import evolve_lineages
from bpre.streams import stream
from helpers import MODELS, lf_model, reference_log_profile

LF = LinearFractional(0.25, 0.5)  # critical geometric: f(s) = 1/(2-s)


class TestIterateF:
    def test_empty_is_identity(self):
        assert iterate_F(EnvSequence([]), 0.3) == 0.3

    def test_two_steps(self):
        env = EnvSequence([LF, LF])
        assert iterate_F(env, 0.0) == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_normalization_preserved(self):
        env = draw_env(ss_ref(), 17, stream(5, "t"))
        assert iterate_F(env, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValidationError):
            iterate_F(EnvSequence([LF]), 1.2)


class TestQuenchedSurvival:
    def test_critical_geometric_constant_env(self):
        # constant composition of f(s) = 1/(2-s) gives survival 1/(1+n)
        for n in [1, 4, 10]:
            qs = quenched_survival(EnvSequence([LF] * n))
            assert qs.p == pytest.approx(1.0 / (1.0 + n), abs=1e-12)

    def test_empty(self):
        qs = quenched_survival(EnvSequence([]))
        assert qs.p == 1.0 and qs.log_p == 0.0

    def test_multi_particle_fields(self):
        qs = quenched_survival(EnvSequence([LF, LF]), k=2)
        assert qs.p_all_survive == pytest.approx(1.0 / 9.0, abs=1e-12)
        assert qs.p_any_survive == pytest.approx(5.0 / 9.0, abs=1e-12)

    def test_closed_form_agrees_long_horizon(self):
        # constant critical environment out to n = 1000
        env = EnvSequence([LF] * 1000)
        li = log_survival_env(env)
        lc = closed_form_log_survival(env)
        assert math.exp(li) == pytest.approx(1.0 / 1001.0, abs=1e-12)
        assert abs(li - lc) <= 1e-10 * max(1.0, abs(li))

    def test_closed_form_agrees_random_envs(self):
        for seed, model in [(1, ss_ref()), (2, is_ref()), (3, ws_ref())]:
            rng = stream(seed, "t")
            for n in [1, 7, 40, 300, 1000]:
                env = draw_env(model, n, rng)
                li = log_survival_env(env)
                lc = closed_form_log_survival(env)
                assert abs(li - lc) <= 1e-9 * max(1.0, abs(li))
                if math.exp(li) > 1e-250:
                    assert abs(math.exp(li) - math.exp(lc)) <= 1e-10

    def test_monotone_in_horizon(self):
        rng = stream(9, "t")
        env = list(draw_env(ws_ref(), 40, rng))
        last = 1.0
        for n in range(1, 41):
            p = quenched_survival(EnvSequence(env[:n])).p
            assert p <= last + 1e-15
            last = p

    def test_running_minimum_bound(self):
        # survival never exceeds exp(min of partial log-mean sums over 1..n)
        for seed, model in [(21, ss_ref()), (22, is_ref()), (23, ws_ref())]:
            rng = stream(seed, "t")
            for _ in range(200):
                env = draw_env(model, 30, rng)
                qs = quenched_survival(env)
                stats = walk_stats(WalkPath.from_env(env))
                assert qs.p <= math.exp(stats.min_from_1) + 1e-12


class TestMinorant:
    def test_bernoulli_is_its_own_dominator(self):
        tilde = lf_minorant(FiniteSupport([0.5, 0.5]))
        assert tilde.A == pytest.approx(0.5, abs=1e-15)
        assert tilde.B == pytest.approx(0.0, abs=1e-15)
        for s in np.linspace(0, 1, 11):
            assert pgf(tilde, float(s)) == pytest.approx((1 + s) / 2, abs=1e-14)

    def test_unit_mean_example(self):
        law = FiniteSupport([0.25, 0.5, 0.25])  # m = 1, f2 = 0.5
        # dominating law matches the mean and doubles f''(1)
        tilde = lf_minorant(law)
        m, f2 = moments(tilde)
        assert m == pytest.approx(1.0, rel=1e-12)
        assert f2 == pytest.approx(1.0, rel=1e-12)

    def test_lf_of_lf_is_different_law(self):
        m, f2 = moments(LF)
        tilde = lf_minorant(LF)
        tm, tf2 = moments(tilde)
        assert tm == pytest.approx(m, rel=1e-12)
        assert tf2 == pytest.approx(2 * f2, rel=1e-12)
        assert tilde != LF

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6).filter(
            lambda v: sum(v) > 1e-3 and sum(i * x for i, x in enumerate(v)) > 1e-3
        )
    )
    def test_dominates_on_grid(self, raw):
        law = FiniteSupport([x / sum(raw) for x in raw])
        tilde = lf_minorant(law)  # raises internally if dominance fails
        for s in np.linspace(0, 1, 21):
            assert pgf(tilde, float(s)) >= pgf(law, float(s)) - 1e-12

    def test_substitution_never_raises_survival(self):
        for seed, model in [(31, ss_ref()), (32, ws_ref())]:
            rng = stream(seed, "t")
            for _ in range(100):
                env = draw_env(model, 20, rng)
                p = quenched_survival(env).p
                p_tilde = quenched_survival(EnvSequence([lf_minorant(law) for law in env])).p
                assert p_tilde <= p + 1e-12


class TestQuenchedAgainstSimulation:
    def test_lineage_monte_carlo_matches_quenched(self):
        model = ss_ref()
        row = draw_env_batch(model, 6, stream(41, "t"), 1).idx
        p = quenched_survival(EnvSequence([model.laws[c] for c in row[0]])).p
        reps = 10**5
        pops = evolve_lineages(model, np.tile(row, (reps, 1)), 1, stream(42, "t"))
        frac = np.count_nonzero(pops[:, -1, 0]) / reps
        se = math.sqrt(p * (1 - p) / reps)
        assert abs(frac - p) < 4 * se


FS_MIXTURE = EnvironmentModel(
    [(FiniteSupport([0.5, 0.3, 0.2]), 0.5), (FiniteSupport([0.3, 0.3, 0.2, 0.2]), 0.5)]
)
MIXED_FAMILY = EnvironmentModel(
    [(FiniteSupport([0.6, 0.2, 0.1, 0.1]), 0.4), (LinearFractional(0.125, 0.5), 0.6)]
)
# means 0.1 and 0.3: log u passes -600 within 400 generations, far below where
# 1 - u rounds to 1
FS_SMALL_U = EnvironmentModel([(FiniteSupport([0.9, 0.1]), 0.5), (FiniteSupport([0.8, 0.1, 0.1]), 0.5)])
# A valid law has A <= 1 - B (up to 1e-12), so its mean A / (1 - B)**2 is at
# most about 1 / (1 - B); the first law here has B = 1 - 2**-52, mean 2**51
# and P(Z > 0) = 1/2.
B_TOP = 1.0 - 2.0**-52
EXTREME_LF = EnvironmentModel(
    [(LinearFractional((1.0 - B_TOP) / 2.0, B_TOP), 0.5), (LinearFractional(0.125, 0.5), 0.5)]
)
# Block edges for every block length the LF kernel picks (12, 7 and 5 at
# K = 2, 3 and 5; 1 at K = 300), those of the 8-generation blocks of stream
# layouts 3-7, and the horizons the estimators use.
HORIZONS = [0, 1, 5, 7, 8, 9, 11, 12, 13, 16, 24, 100, 400]
KERNEL_MODELS = {
    "lf": ws_ref(),
    "fs": FS_MIXTURE,
    "fs-small-u": FS_SMALL_U,
    "mixed": MIXED_FAMILY,
    **{f"lf{k}": model for k, model in MODELS.items()},
    "lf-extreme": EXTREME_LF,
}


class TestVectorizedKernel:
    def test_matches_scalar_path(self):
        model = ws_ref()
        batch = draw_env_batch(model, 25, stream(55, "t"), 50)
        log_q = log_survival_profile(model, batch.idx)[:, 0]
        laws = model.laws
        for r in range(50):
            env = [laws[i] for i in batch.idx[r]]
            expected = reference_log_profile(env)[0]
            assert log_q[r] == pytest.approx(expected, abs=1e-10)
            s_n = sum(math.log(moments(law)[0]) for law in env)
            assert model.log_means[batch.idx[r]].sum() == pytest.approx(s_n, abs=1e-10)

    def test_paths_are_cumulative_sums(self):
        model = ss_ref()
        batch = draw_env_batch(model, 10, stream(56, "t"), 20)
        *_, s_n = batch.partial_sums()
        np.testing.assert_array_equal(s_n, np.cumsum(model.log_means[batch.idx], axis=1)[:, -1])
        np.testing.assert_array_equal(batch.w, np.ones(20))

    @pytest.mark.parametrize("model", KERNEL_MODELS.values(), ids=KERNEL_MODELS.keys())
    def test_profile_matches_scalar_steps_everywhere(self, model):
        # the longest horizon takes fs-small-u below log u = -600
        count = 30
        laws = model.laws
        for n in HORIZONS:
            batch = draw_env_batch(model, n, stream(57, "t"), count)
            profile = log_survival_profile(model, batch.idx)
            log_q = log_survival(model, batch.idx)
            assert profile.shape == (count, n + 1)
            for r in range(count):
                env = [laws[j] for j in batch.idx[r]]
                assert profile[r, n] == 0.0
                np.testing.assert_allclose(profile[r], reference_log_profile(env), rtol=1e-12, atol=0)
                if model.all_linear_fractional:
                    exact = closed_form_log_survival(EnvSequence(env))
                    assert abs(log_q[r] - exact) <= 1e-12 * max(abs(exact), 1.0), (n, r)

    @pytest.mark.parametrize("model", KERNEL_MODELS.values(), ids=KERNEL_MODELS.keys())
    @pytest.mark.parametrize("n, count", [(120, 64), (0, 5), (7, 0), (9, 64), (1, 64)])
    def test_survival_is_profile_column_zero_bitwise(self, model, n, count):
        idx = draw_env_batch(model, n, stream(58, "t"), count).idx
        log_q = log_survival(model, idx)
        assert log_q.shape == (count,)
        assert log_q.tobytes() == log_survival_profile(model, idx)[:, 0].tobytes()


# a Bernoulli component (B = 0: c = 0) and a zero-mean component (A = 0)
BERNOULLI_LF = EnvironmentModel([(LinearFractional(0.6, 0.0), 0.5), (LinearFractional(0.5, 0.25), 0.5)])
ZERO_MEAN_LF = EnvironmentModel(
    [(LinearFractional(0.0, 0.3), 0.02), (LinearFractional(0.0, 0.0), 0.02), (geometric_lf(1.5), 0.96)]
)
ZERO_MEAN_FS = EnvironmentModel([(FiniteSupport([1.0]), 0.1), (FiniteSupport([0.2, 0.3, 0.5]), 0.9)])
ONE_ROW_MODELS = {**KERNEL_MODELS, "zero-mean-lf": ZERO_MEAN_LF, "zero-mean-fs": ZERO_MEAN_FS}


class TestOneRowKernel:
    """quenched_survival runs log_survival on a one-row batch of the
    sequence's distinct laws."""

    @pytest.mark.parametrize("model", ONE_ROW_MODELS.values(), ids=ONE_ROW_MODELS.keys())
    def test_matches_decimal_reference_and_batch(self, model):
        for n in (0, 1, 9, 400):
            batch = draw_env_batch(model, n, stream(59, "t"), 3)
            log_q = log_survival(model, batch)
            for r in range(3):
                env = [model.laws[j] for j in batch.idx[r]]
                got = quenched_survival(EnvSequence(env)).log_p
                assert got == pytest.approx(reference_log_profile(env)[0], rel=1e-12, abs=0.0)
                assert got == pytest.approx(log_q[r], rel=1e-13, abs=0.0)
        if model is FS_SMALL_U:
            assert log_q.max() < -600.0

    def test_distinct_laws_take_one_step_per_generation(self, monkeypatch):
        # 60 distinct laws, one per generation: 60 steps, not 60 * 60
        calls = []
        step = lfexact._log_step
        monkeypatch.setattr(lfexact, "_log_step", lambda *args: calls.append(1) or step(*args))
        laws = [FiniteSupport([0.5 - i / 200, 0.5, i / 200]) for i in range(60)]
        log_p = quenched_survival(EnvSequence(laws)).log_p
        assert len(calls) == 60
        assert log_p == pytest.approx(reference_log_profile(laws)[0], rel=1e-12)


class TestReciprocalKernel:
    """The all-LF kernel steps R = 1/u by its block tables (1/M, C/M)."""

    @pytest.mark.parametrize("model", [ss_ref(), is_ref()], ids=["ss", "is"])
    @pytest.mark.parametrize("n", [1200, 3000])
    def test_long_horizons_match_closed_form(self, model, n):
        batch = draw_env_batch(model, n, stream(61, "t"), 12)
        log_q = log_survival(model, batch)
        # R passes the renormalisation limit: log q < -log(limit)
        assert log_q.min() < -math.log(_lf_tables(model).limit)
        assert log_q.tobytes() == log_survival_profile(model, batch)[:, 0].tobytes()
        for r in range(len(log_q)):
            env = EnvSequence([model.laws[j] for j in batch.idx[r]])
            for exact in (closed_form_log_survival(env), reference_log_profile(env.laws)[0]):
                assert abs(log_q[r] - exact) <= 1e-12 * abs(exact), (r, log_q[r], exact)

    @pytest.mark.parametrize("n", [1, 8, 9, 40])
    def test_bernoulli_component(self, n):
        model = BERNOULLI_LF
        batch = draw_env_batch(model, n, stream(62, "t"), 40)
        profile = log_survival_profile(model, batch)
        for r in range(40):
            want = reference_log_profile([model.laws[j] for j in batch.idx[r]])
            np.testing.assert_allclose(profile[r], want, rtol=1e-12, atol=0)
        assert log_survival(model, batch).tobytes() == profile[:, 0].tobytes()

    @pytest.mark.parametrize("n", [1, 8, 9, 40])
    def test_zero_mean_component_gives_minus_inf(self, n):
        model = ZERO_MEAN_LF
        _lf_tables.cache_clear()  # build the tables under the checks below
        batch = draw_env_batch(model, n, stream(63, "t"), 200)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            log_q = log_survival(model, batch)
            profile = log_survival_profile(model, batch)
        dead = batch.idx < 2
        assert not np.isnan(profile).any()
        for r in range(200):
            want = reference_log_profile([model.laws[j] for j in batch.idx[r]])
            for i in range(n + 1):
                if dead[r, i:].any():
                    assert profile[r, i] == want[i] == -math.inf
                else:
                    assert profile[r, i] == pytest.approx(want[i], rel=1e-12, abs=0.0)
        assert dead.any(axis=1).any() and not dead.any(axis=1).all()
        assert log_q.tobytes() == profile[:, 0].tobytes()

    def test_tiny_means_fall_back_to_log_steps(self):
        # a block of 12 generations of mean 1e-40 has 1/M past 2**1000, so the
        # model steps log u one generation at a time
        model = EnvironmentModel([(LinearFractional(1e-40, 0.0), 0.5), (geometric_lf(1.5), 0.5)])
        assert _lf_tables(model) is None
        batch = draw_env_batch(model, 20, stream(65, "t"), 30)
        log_q = log_survival(model, batch)
        for r in range(30):
            want = reference_log_profile([model.laws[j] for j in batch.idx[r]])[0]
            assert log_q[r] == pytest.approx(want, rel=1e-12)

    def test_all_lf_models_take_no_log_domain_step(self, monkeypatch):
        def fail(*args):
            raise AssertionError("log-domain step on an all-LF model")

        monkeypatch.setattr(lfexact, "_log_step", fail)
        for model in (ws_ref(), MODELS[300], EXTREME_LF, BERNOULLI_LF, ZERO_MEAN_LF):
            batch = draw_env_batch(model, 19, stream(64, "t"), 50)
            log_survival(model, batch)
            log_survival_profile(model, batch)
        with pytest.raises(AssertionError):
            log_survival(MIXED_FAMILY, draw_env_batch(MIXED_FAMILY, 3, stream(64, "t"), 5))


# every block length of the kernel: 12, 7, 5, 2 and 1 at K = 2, 3, 5, 17
# and 300; 12 at K = 1
SLOT_MODELS = {
    **{f"lf{k}": model for k, model in MODELS.items()},
    "lf17": lf_model(np.linspace(0.3, 2.0, 17)),
    "lf-extreme": EXTREME_LF,
}
# means 2**-10 and 2**-3: R grows by up to about 2**120 per block of 12, so
# the kernel tests it for renormalisation from block 7 on, and at n = 100
# most chunks renormalise at block 8 or 9
SMALL_MEANS_LF = EnvironmentModel([(geometric_lf(2.0**-10), 0.9), (geometric_lf(2.0**-3), 0.1)])


class TestSlotPath:
    """A drawn batch steps by the alias slots its draw picked, a packed one
    by slot 2c + 1 of its codes; both go through the one ``_lf_blocks``."""

    @pytest.mark.parametrize("model", SLOT_MODELS.values(), ids=SLOT_MODELS.keys())
    @pytest.mark.parametrize("theta", [None, 0.5], ids=["base", "tilted"])
    def test_drawn_and_packed_batches_agree_bitwise(self, model, theta):
        plan = None if theta is None else tilt_plan(model, theta)
        for n in (0, 1, 11, 12, 13, 24, 100, 400):
            batch = draw_env_batch(model, n, stream(66, "slots"), 64, plan)
            packed = pack_env(model, batch.idx)
            assert log_survival(model, batch).tobytes() == log_survival(model, packed).tobytes(), n
            assert batch.s_n.tobytes() == packed.s_n.tobytes(), n
            np.testing.assert_array_equal(packed.codes, batch.codes)
            if n <= 24:
                want = log_survival_profile(model, packed).tobytes()
                assert log_survival_profile(model, batch).tobytes() == want, n

    @pytest.mark.parametrize(
        "model, n",
        [(SMALL_MEANS_LF, 100), (SMALL_MEANS_LF, 400), (ss_ref(), 1200), (ZERO_MEAN_LF, 40)],
        ids=["small-means-100", "small-means-400", "ss-1200", "zero-mean-40"],
    )
    def test_late_first_test_keeps_the_bits_of_testing_every_block(self, model, n, monkeypatch):
        lf = _lf_tables(model)
        batch = draw_env_batch(model, n, stream(67, "slots"), 256)
        log_q = log_survival(model, batch)
        profile = log_survival_profile(model, batch)
        if model is SMALL_MEANS_LF:
            assert 1 < lf.first_test <= 8
        assert log_q.min() < -math.log(lf.limit)  # some row passes the limit
        monkeypatch.setattr(lfexact, "_lf_tables", lambda m: dataclasses.replace(lf, first_test=1))
        assert log_survival(model, batch).tobytes() == log_q.tobytes()
        assert log_survival_profile(model, batch).tobytes() == profile.tobytes()

    def test_first_test_follows_the_growth_bound(self):
        assert _lf_tables(ZERO_MEAN_LF).first_test == 1
        for model in (ws_ref(), ss_ref(), SMALL_MEANS_LF):
            lf = _lf_tables(model)
            bound = max(float((inv + c)[np.isfinite(inv)].max()) for inv, c in lf.tables)
            assert bound ** (lf.first_test - 1) < lf.limit


class TestAnySurvive:
    LOG_Q = np.array([-np.inf, -800.0, -30.0, -1.0, -1e-12, 0.0, 0.5])

    @pytest.mark.parametrize("k", [1, 3, 64])
    def test_bits_of_the_formula_and_input_kept(self, k):
        log_q = self.LOG_Q.copy()
        with np.errstate(divide="ignore"):
            want = -np.expm1(k * np.log1p(-np.exp(np.minimum(log_q, 0.0))))
        assert any_survive(log_q, k).tobytes() == want.tobytes()
        assert log_q.tobytes() == self.LOG_Q.tobytes()

    @pytest.mark.parametrize("log_q", [-0.5, np.float64(-0.5), np.array(-0.5)], ids=["float", "float64", "0-d"])
    def test_scalar_log_q(self, log_q):
        got = any_survive(log_q, 3)
        assert np.ndim(got) == 0
        assert float(got) == float(any_survive(np.array([-0.5]), 3)[0])
        assert float(got) == pytest.approx(1.0 - (1.0 - math.exp(-0.5)) ** 3, rel=1e-15)


def _series(laws, k, atoms):
    """Coefficients of s**0..s**atoms of F_n(s)**k, with F_n the composition
    of the LF pgfs ``laws`` (first law outermost), by truncated power-series
    arithmetic: independent of the geometric/negative-binomial closed form."""
    g = np.zeros(atoms + 1)
    g[1] = 1.0
    for law in reversed(laws):
        den = -law.B * g
        den[0] += 1.0
        inv = np.zeros(atoms + 1)  # 1 / (1 - B g)
        inv[0] = 1.0 / den[0]
        for m in range(1, atoms + 1):
            inv[m] = -np.dot(den[1 : m + 1], inv[m - 1 :: -1]) / den[0]
        g = law.A * np.convolve(g, inv)[: atoms + 1]
        g[0] += 1.0 - law.A / (1.0 - law.B)
    out = np.zeros(atoms + 1)
    out[0] = 1.0
    for _ in range(k):
        out = np.convolve(out, g)[: atoms + 1]
    return out


def _any_alive(laws, k, s=0.0):
    """1 - F_n(s)**k, without cancellation for tiny survival."""
    u = math.exp(reference_log_profile(laws, s)[0])
    return 1.0 if u == 1.0 else -math.expm1(k * math.log1p(-u))


def _series_law(laws, k, atoms):
    """P(Z_n = z | Z_n > 0) from k particles, z = 1..atoms, by power series."""
    return _series(laws, k, atoms)[1:] / _any_alive(laws, k)


def _pgf_given_alive(laws, k):
    """(F_n(s)**k - F_n(0)**k) / (1 - F_n(0)**k) on S_GRID, formed from the
    survival-coordinate values 1 - F_n(s)**k so that tiny survival does not
    cancel."""
    alive = _any_alive(laws, k)
    return [(alive - _any_alive(laws, k, s)) / alive if s < 1.0 else 1.0 for s in S_GRID]


MIX3 = EnvironmentModel(
    [(LinearFractional(0.3, 0.4), 0.3), (LinearFractional(0.2, 0.6), 0.3), (geometric_lf(1.4), 0.4)]
)
S_GRID = tuple(i / 20 for i in range(21))


def _rows_of_law(log_q, s_n, k, atoms, s_grid):
    """The (replicates, atoms) pmf and (replicates, len(s_grid)) pgf of
    ``conditioned_law``, by one single-row call with unit weight per
    replicate; its three sums are then x, x and x**2 of that row."""
    pmf, pgf_rows = [], []
    for row in range(len(log_q)):
        one = slice(row, row + 1)
        sums, pgf_sum = conditioned_law(log_q[one], s_n[one], k, np.ones(1), atoms, s_grid)
        assert sums[1].tolist() == sums[0].tolist()
        assert sums[2].tolist() == (sums[0] * sums[0]).tolist()
        pmf.append(sums[0])
        pgf_rows.append(pgf_sum)
    return np.array(pmf), np.array(pgf_rows)


def _per_row_law(log_q, s_n, k, atoms, s_grid):
    """The pmf and pgf of every replicate, as ``_rows_of_law`` returns them,
    by the sequential negative-binomial recurrence: P(J = j) p**j at z = j,
    and each atom (1-p) (z-1)/(z-j) times the one before."""
    with np.errstate(invalid="ignore"):
        log_p = np.minimum(np.where(log_q > -np.inf, log_q - s_n, 0.0), 0.0)
    p, fail = np.exp(log_p), -np.expm1(log_p)
    s = np.asarray(s_grid, dtype=float)[:, None]
    h = s * p / (1.0 - s * fail)
    h_j, p_j, pgf_rows = np.ones_like(h), np.ones_like(p), np.zeros_like(h)
    pmf = np.zeros((atoms, len(log_q)))
    for j, line in enumerate(surviving_lines(log_q, k), 1):
        h_j *= h
        p_j *= p
        pgf_rows += line * h_j
        term = line * p_j
        for z in range(j, atoms + 1):
            pmf[z - 1] += term
            term *= fail if j == 1 else fail * (z / (z + 1 - j))
    return pmf.T, pgf_rows.T


MODEL_IDS = ["ws", "is", "ss", "mix3"]


class TestConditionedLaw:
    @pytest.mark.parametrize("model", [ws_ref(), is_ref(), ss_ref(), MIX3], ids=MODEL_IDS)
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_matches_power_series(self, model, k):
        # atoms and pgf of fixed environments against the coefficients and
        # values of the composed pgf to the power k, given survival
        atoms = 30
        idx = draw_env_batch(model, 12, np.random.default_rng(k), 6).idx
        log_q = log_survival(model, idx)
        s_n = model.log_means[idx].sum(axis=1)
        pmf, pgf_rows = _rows_of_law(log_q, s_n, k, atoms, S_GRID)
        for row, comps in enumerate(idx):
            laws = [model.laws[c] for c in comps]
            np.testing.assert_allclose(pmf[row], _series_law(laws, k, atoms), rtol=0, atol=1e-12)
            np.testing.assert_allclose(pgf_rows[row], _pgf_given_alive(laws, k), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_short_horizons_match_power_series(self, n):
        k, atoms = 3, 20
        idx = np.array(list(np.ndindex(*(3,) * n)), dtype=np.uint8).reshape(3**n, n)
        pmf, _ = _rows_of_law(log_survival(MIX3, idx), MIX3.log_means[idx].sum(axis=1), k, atoms, S_GRID)
        for row, comps in enumerate(idx):
            want = _series_law([MIX3.laws[c] for c in comps], k, atoms)
            np.testing.assert_allclose(pmf[row], want, rtol=0, atol=1e-12)

    def test_tiny_survival_keeps_the_geometric_law(self):
        # q = 1e-300: one surviving line, Geometric(p) with p = q e^{-S_n}
        log_q = np.array([math.log(1e-300)])
        s_n = log_q - math.log(0.25)
        pmf, pgf_rows = _rows_of_law(log_q, s_n, 4, 5, (0.0, 0.5, 1.0))
        np.testing.assert_allclose(pmf[0], 0.25 * 0.75 ** np.arange(5), rtol=1e-12)
        np.testing.assert_allclose(pgf_rows[0], [0.0, 0.125 / 0.625, 1.0], rtol=1e-12)

    def test_dead_rows_are_a_point_mass(self):
        pmf, pgf_rows = _rows_of_law(np.array([-np.inf]), np.array([-np.inf]), 2, 3, (0.0, 0.5))
        assert pmf.tolist() == [[1.0, 0.0, 0.0]]
        assert pgf_rows.tolist() == [[0.0, 0.5]]

    @pytest.mark.parametrize("model", [ws_ref(), is_ref(), ss_ref(), MIX3], ids=MODEL_IDS)
    @pytest.mark.parametrize("k", [1, 2, 3, 7, 70])
    @pytest.mark.parametrize("scale", [1.0, 2.0**-1000], ids=["unit", "tiny"])
    def test_block_sums_match_the_per_row_law(self, model, k, scale):
        # more rows than one block, weights with zeros, and a dead row with
        # weight: the sums of w x, w**2 x, w**2 x**2 and w G against the
        # same sums of the per-row law; with weights of 2**-1000 the squared
        # weights are 0 and the atoms of w x partly subnormal
        rows, atoms = 700, 64
        idx = draw_env_batch(model, 12, np.random.default_rng(k), rows).idx
        log_q = log_survival(model, idx)
        s_n = model.log_means[idx].sum(axis=1)
        log_q[3] = -np.inf
        rng = np.random.default_rng(100 + k)
        w = np.ldexp(rng.random(rows) * (rng.random(rows) > 0.2), -1000 if scale < 1 else 0)
        w[3] = 0.5 * scale
        sums, pgf_sum = conditioned_law(log_q, s_n, k, w, atoms, S_GRID)
        pmf, pgf_rows = _per_row_law(log_q, s_n, k, atoms, S_GRID)
        w2 = w * w
        want = [(w[:, None] * pmf).sum(axis=0), (w2[:, None] * pmf).sum(axis=0),
                (w2[:, None] * pmf * pmf).sum(axis=0)]
        for got, expected in zip(sums, want):
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-315)
        np.testing.assert_allclose(pgf_sum, (w[:, None] * pgf_rows).sum(axis=0), rtol=1e-12, atol=1e-315)
        assert sums[0][0] > 0.0 and (scale < 1) == (sums[1].max() == 0.0)


def _exact_lines(log_q: float, k: int) -> list[float]:
    """P(J = j | J >= 1), j = 1..k, for J ~ Binomial(k, e**log_q), in
    40-digit decimals: each C(k, j) q**(j-1) (1-q)**(k-j) over their sum."""
    if log_q == -math.inf:
        return [1.0] + [0.0] * (k - 1)
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        q = decimal.Decimal(log_q).exp()
        power = lambda x, e: x**e if e else decimal.Decimal(1)  # 0**0 = 1
        terms = [math.comb(k, j) * power(q, j - 1) * power(1 - q, k - j) for j in range(1, k + 1)]
        total = sum(terms)
        return [float(t / total) for t in terms]


class TestSurvivingLines:
    QS = [0.0, 1e-300, 1e-12, 0.3, 1 - 1e-9, 1.0]

    @pytest.mark.parametrize("k", [1, 2, 7, 1100])
    def test_matches_exact_binomial(self, k):
        # float binomial coefficients overflowed from k = 1030 on
        with np.errstate(divide="ignore"):
            log_q = np.log(self.QS)
        got = np.array(list(surviving_lines(log_q, k)))
        want = np.array([_exact_lines(float(lq), k) for lq in log_q]).T
        big = want > 1e-290
        np.testing.assert_allclose(got[big], want[big], rtol=1e-12, atol=0)
        assert np.all(got[~big] <= 1e-289)
        np.testing.assert_allclose(got.sum(axis=0), 1.0, rtol=0, atol=1e-12)

    def test_one_particle_is_exactly_one(self):
        (line,) = surviving_lines(np.array([-np.inf, -700.0, -1.0, 0.0]), 1)
        assert line.tolist() == [1.0] * 4

    def test_dead_rows_are_a_point_mass_at_one(self):
        lines = np.array(list(surviving_lines(np.array([-np.inf]), 5)))
        assert lines[:, 0].tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]


def _tail_by_convolution(pi, p, u, k, size=600):
    """P(Z > z, some of the Z particles has a descendant), z = 0..size-1,
    where Z is the sum of k iid lines, each 0 with probability 1 - pi and
    otherwise Geometric(p) on {1, 2, ...}, and each particle has a
    descendant with probability u: the k-fold convolution of the one-line
    pmf, summed atom by atom from the top."""
    line = np.zeros(size)
    line[0] = 1.0 - pi
    line[1:] = pi * p * (1.0 - p) ** np.arange(size - 1)
    law = np.zeros(size)
    law[0] = 1.0
    for _ in range(k):
        law = np.convolve(law, line)[:size]
    sizes = np.arange(size)
    alive = (sizes > 0).astype(float) if u == 1.0 else -np.expm1(sizes * math.log1p(-u))
    terms = law * alive
    return np.concatenate([np.cumsum(terms[::-1])[::-1][1:], [0.0]])


class TestSurvivorTail:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "s_t, g_t",
        [(0.0, 0.0), (-0.2, 0.4), (0.5, 1.5), (-7.0, 3.0)],
        ids=["deterministic", "near-one", "spread", "rare-line"],
    )
    def test_matches_convolution(self, k, s_t, g_t):
        # every z from 0 to 60, below and above k, and u from 1e-40 to 1
        u = np.array([1e-40, 1e-12, 1e-3, 0.5, 1.0])
        tail = SurvivorTail.of(np.full(5, s_t), np.full(5, g_t), np.log(u), k, np.ones(5))
        p = 1.0 / (1.0 + g_t)
        pi = math.exp(s_t) * p
        got = np.array([tail(z) for z in range(61)])
        for col, ui in enumerate(u):
            want = _tail_by_convolution(pi, p, float(ui), k)[:61]
            np.testing.assert_allclose(got[:, col], want, rtol=1e-12, atol=0)

    def test_thousand_particles(self):
        # the WS Q-process at k = 1100: finite, and tail(0) is the weight
        # times P(some line survives to n), with q = pi_t (1 - E[(1-u)^Z_t])
        k, w = 1100, np.array([1.0, 0.5, 2.0])
        s_t, g_t = np.array([-0.3, -4.0, 1.0]), np.array([0.8, 2.0, 5.0])
        log_u = np.log([0.2, 1e-5, 0.9])
        tail = SurvivorTail.of(s_t, g_t, log_u, k, w)
        pi, u = np.exp(s_t) / (1.0 + g_t), np.exp(log_u)
        q = pi * u / (1.0 / (1.0 + g_t) + (1.0 - 1.0 / (1.0 + g_t)) * u)
        np.testing.assert_allclose(tail(0), w * any_survive(np.log(q), k), rtol=1e-12)
        for z in (1, 50, 5000):
            assert np.all(np.isfinite(tail(z))) and np.all(tail(z) <= tail(0))

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_total_is_the_sum_over_replicates(self, k):
        # rows from u = 1e-40 to u = 1, with weights of every size and a 0
        rng = np.random.default_rng(k)
        u = np.tile([1e-40, 1e-12, 1e-3, 0.5, 1.0], 8)
        s_t, g_t = rng.normal(-1.0, 1.0, len(u)), rng.exponential(3.0, len(u))
        w = rng.random(len(u)) * 10.0 ** rng.integers(-30, 1, len(u))
        w[7] = 0.0
        tail = SurvivorTail.of(s_t, g_t, np.log(u), k, w)
        for z in (0, 1, 7, 60, 5000):
            total = tail.total(z)
            assert type(total) is float
            assert total == pytest.approx(float(tail(z).sum()), rel=1e-13, abs=0)
        assert tail.total(0) > tail.total(60) > 0.0

    def test_weight_scales_each_replicate(self):
        args = (np.full(2, -0.3), np.full(2, 0.8), np.log([0.2, 0.2]), 3)
        one = SurvivorTail.of(*args, np.ones(2))
        scaled = SurvivorTail.of(*args, np.array([1.0, 1e-30]))
        for z in (0, 2, 5):
            np.testing.assert_allclose(scaled(z), one(z) * [1.0, 1e-30], rtol=1e-15)
