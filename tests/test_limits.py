import functools
import itertools
import math
import sys

import numpy as np
import pytest

from bpre.environment import (
    EnvironmentModel,
    EnvSequence,
    draw_env,
    draw_env_batch,
    is_ref,
    pack_env,
    ss_ref,
    ws_ref,
)
from bpre import lfexact, limits, simcore, streams
from bpre.errors import ConditioningStarvationError, ValidationError
from bpre.lfexact import conditioned_law, log_survival, log_survival_profile, quenched_survival
from bpre.limits import (
    QPROCESS_LOOKAHEAD,
    _fs_totals,
    _kernel_rows,
    _lf_totals,
    conditioned_binomial_positive,
    conditioned_population_by_rejection,
    env_posterior,
    functional_residual,
    qprocess_kernel,
    qprocess_run,
    yaglom,
)
from bpre.offspring import FiniteSupport, LinearFractional
from bpre.regime import classify, solve_alpha
from bpre.simcore import draw_conditioned_env, evolve_lineages
from bpre.stats import (
    kish_neff,
    mean_and_se,
    pmf_tv_budget,
    pmf_tv_distance,
    ratio_and_se,
    weighted_pmf,
)
from bpre.streams import stream
from helpers import chi_square_pvalue

BERNOULLI = EnvironmentModel([(FiniteSupport([0.5, 0.5]), 1.0)])
BERNOULLI_MIX = EnvironmentModel(
    [(FiniteSupport([0.5, 0.5]), 0.25), (FiniteSupport([0.3, 0.7]), 0.75)]
)
FS_HALF = EnvironmentModel([(FiniteSupport([0.75, 0.0, 0.25]), 1.0)])  # mean 1/2
# two-component finite-support mixtures: means {0.7, 0.4} (SS), {0.7, 1.3} (WS)
FS_SS = EnvironmentModel(
    [(FiniteSupport([0.5, 0.3, 0.2]), 0.5), (FiniteSupport([0.7, 0.2, 0.1]), 0.5)]
)
FS_WS = EnvironmentModel(
    [(FiniteSupport([0.5, 0.3, 0.2]), 0.5), (FiniteSupport([0.3, 0.3, 0.2, 0.2]), 0.5)]
)
MIXED = EnvironmentModel(
    [(FiniteSupport([0.6, 0.2, 0.1, 0.1]), 0.4), (LinearFractional(0.125, 0.5), 0.6)]
)
# a zero-mean finite-support component next to a linear-fractional one
DEAD_MIXED = EnvironmentModel([(FiniteSupport([1.0]), 0.2), (LinearFractional(0.225, 0.5), 0.8)])
# SS mixtures with a zero-mean component, first or last: means {0, 0.7}
ZERO_MEAN_SS = {
    "first": EnvironmentModel(
        [(FiniteSupport([1.0]), 0.3), (FiniteSupport([0.5, 0.3, 0.2]), 0.7)]
    ),
    "last": EnvironmentModel(
        [(FiniteSupport([0.5, 0.3, 0.2]), 0.7), (FiniteSupport([1.0]), 0.3)]
    ),
}


def test_survival_profile_matches_quenched():
    model = ws_ref()
    env = draw_env(model, 12, stream(1, "t"))
    idx = np.array([[model.laws.index(law) for law in env]])
    u = np.exp(log_survival_profile(model, idx)[0])
    assert u[0] == pytest.approx(quenched_survival(env).p, rel=1e-12)
    assert u[-1] == 1.0
    sub = EnvSequence(tuple(env)[4:])
    assert u[4] == pytest.approx(quenched_survival(sub).p, rel=1e-12)


@pytest.mark.parametrize(
    "law", [LinearFractional(0.3, 0.5), FiniteSupport([0.3, 0.3, 0.2, 0.2])], ids=["lf", "fs"]
)
@pytest.mark.parametrize("m", [1, 3, 10])
def test_aggregate_totals_match_convolution(law, m):
    # one aggregate draw per replicate against the m-fold convolution of the
    # law. The finite-support draws take one column of weights per row: rows
    # alternate with a second law, whose weights are scaled by 3 and have a
    # zero, and the last 100 rows have no parent
    reps, cap = 20000, 200
    rng = stream(23, "t")
    if isinstance(law, LinearFractional):
        drawn = {law: _lf_totals(rng, np.full(reps, m), np.full(reps, law.A), np.full(reps, law.B))}
    else:
        other = FiniteSupport([0.6, 0.1, 0.0, 0.3])
        which = np.arange(2 * reps + 100) % 2
        n = np.where(np.arange(len(which)) < 2 * reps, m, 0)
        weights = np.array([law.probs, 3.0 * np.asarray(other.probs)]).T[:, which]
        totals = _fs_totals(rng, n, weights, np.arange(len(law.probs)))
        assert totals.dtype == np.int64 and (totals[2 * reps:] == 0).all()
        drawn = {law: totals[: 2 * reps : 2], other: totals[1 : 2 * reps : 2]}
    for each, totals in drawn.items():
        assert totals.max() <= cap
        exact = next(itertools.islice(_kernel_rows(EnvironmentModel([(each, 1.0)]), cap), m - 1, None))
        observed = np.bincount(totals, minlength=cap + 1)
        assert chi_square_pvalue(observed, reps * exact) > 1e-3


def test_fs_totals_of_an_all_zero_column_take_the_first_outcome():
    weights = np.array([[0.0, 0.0, 1.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.0]])
    totals = _fs_totals(stream(24, "t"), np.array([5, 4, 3]), weights, np.array([10, 20, 30]))
    np.testing.assert_array_equal(totals, [50, 80, 30])


class TestConditionedBinomial:
    def test_k1_always_one(self):
        log_q = np.array([-np.inf, math.log(0.5), math.log(1e-12)])
        draws = conditioned_binomial_positive(1, log_q, stream(2, "t"))
        assert (draws == 1).all()

    def test_matches_exact_pmf(self):
        k, q = 3, 0.3
        rng = stream(3, "t")
        draws = conditioned_binomial_positive(k, np.full(20000, math.log(q)), rng)
        s = 1.0 - (1.0 - q) ** k
        for j in range(1, k + 1):
            expect = math.comb(k, j) * q**j * (1 - q) ** (k - j) / s
            frac = float(np.mean(draws == j))
            se = math.sqrt(expect * (1 - expect) / 20000)
            assert abs(frac - expect) < 4 * se

    def test_tiny_q_is_one(self):
        draws = conditioned_binomial_positive(5, np.full(1000, math.log(1e-14)), stream(4, "t"))
        assert (draws == 1).all()


    def test_thousand_particles(self):
        # float binomial coefficients overflowed at k = 1100; q = 1 keeps
        # every line, q = 0 (weight zero) gives 1, q = 0.3 about 330 lines
        log_q = np.log(np.repeat([1.0, 0.3], 500))
        draws = conditioned_binomial_positive(1100, np.append(log_q, -np.inf), stream(5, "t"))
        assert (draws[:500] == 1100).all() and draws[-1] == 1
        assert abs(draws[500:1000].mean() - 330.0) < 4 * math.sqrt(1100 * 0.21 / 500)

class TestYaglom:
    def test_bernoulli_is_point_mass_at_one(self):
        est = yaglom(BERNOULLI, 1, 12, 4000, seed=5)
        assert est.pmf[1][0] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(est.pgf_values, est.s_grid, atol=1e-12)

    def test_horizon_zero(self):
        est = yaglom(ss_ref(), 1, 0, 500, seed=6)
        assert est.pmf[1][0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_rejection_oracle(self):
        # exact skeleton sampler against brute-force conditioning at a short horizon
        k, n = 2, 5
        est = yaglom(ss_ref(), k, n, 3 * 10**4, seed=7)
        rej = conditioned_population_by_rejection(ss_ref(), k, n, 4000, seed=8)
        rej_pmf = weighted_pmf(rej, np.ones(len(rej)))
        tv = pmf_tv_distance(est.pmf, rej_pmf)
        budget = pmf_tv_budget(est.pmf, rej_pmf, est.effective_events, float(len(rej)))
        assert tv <= 4 * budget

    def test_fs_matches_rejection_oracle(self):
        # multinomial skeleton steps of a two-component finite-support model
        k, n = 2, 4
        est = yaglom(FS_WS, k, n, 3 * 10**4, seed=24)
        rej = conditioned_population_by_rejection(FS_WS, k, n, 4000, seed=25)
        rej_pmf = weighted_pmf(rej, np.ones(len(rej)))
        tv = pmf_tv_distance(est.pmf, rej_pmf)
        budget = pmf_tv_budget(est.pmf, rej_pmf, est.effective_events, float(len(rej)))
        assert tv <= 4 * budget

    def test_rejection_oracle_edges(self, monkeypatch):
        none = conditioned_population_by_rejection(ss_ref(), 2, 5, 0, seed=8)
        assert none.dtype == np.int64 and len(none) == 0
        extinct = EnvironmentModel([(FiniteSupport([1.0]), 1.0)])
        monkeypatch.setattr(limits, "REJECTION_MAX_ATTEMPTS", 3 * streams.CHUNK_SIZE)
        with pytest.raises(ConditioningStarvationError):
            conditioned_population_by_rejection(extinct, 1, 2, 10, seed=8)

    def test_long_ws_horizon_keeps_its_mass(self):
        # the sampled path: populations past POPULATION_CAP are its tail mass
        est = yaglom(FS_WS, 1, 50, 8000, seed=1)
        assert est.method == "tilted-IS"
        assert est.tail_mass < 0.01

    def test_lf_tail_is_the_mass_above_the_atoms(self):
        # one line is Geometric(p) given the environment, so P(Z > A | env)
        # = (1-p)**A, with p = q e^{-S_n}, on the draws yaglom makes
        k, n, reps, seed = 1, 50, 20000, 1
        est = yaglom(ws_ref(), k, n, reps, seed=seed)
        assert est.method == "tilted-IS+closed-form"
        assert sorted(est.pmf) == list(range(1, limits.YAGLOM_ATOMS + 1))
        assert math.fsum(p for p, _ in est.pmf.values()) + est.tail_mass == pytest.approx(1.0, abs=1e-12)
        cond = draw_conditioned_env(ws_ref(), k, n, reps, seed, f"yaglom-k{k}-n{n}")
        p = np.exp(cond.log_q - cond.env.s_n)
        tail = np.sum(cond.survive_w * (1.0 - p) ** limits.YAGLOM_ATOMS) / np.sum(cond.survive_w)
        assert est.tail_mass == pytest.approx(tail, rel=1e-9)
        assert 0.5 < est.tail_mass < 0.7

    def test_lf_pgf_at_one_past_double_precision(self):
        # at n 200 p = q e^{-S_n} falls below 2**-53, where 1/s - (1-p)
        # cancels to 0 at s = 1 and numpy warned of a division by zero
        k, n, reps, seed = 1, 200, 4096, 1
        est = yaglom(ws_ref(), k, n, reps, seed=seed)
        assert est.pgf_values[-1] == 1.0
        assert np.all(np.diff(est.pgf_values) >= 0.0)
        cond = draw_conditioned_env(ws_ref(), k, n, reps, seed, f"yaglom-k{k}-n{n}")
        assert np.any(cond.log_q - cond.env.s_n < -53 * math.log(2.0))
        _, pgf_sum = conditioned_law(cond.log_q, cond.env.s_n, k, cond.survive_w, 1, (1.0,))
        assert pgf_sum[0] == pytest.approx(cond.survive_w.sum(), rel=1e-12)

    @pytest.mark.parametrize("model, n", [(ws_ref(), 10), (is_ref(), 10), (ss_ref(), 8)], ids=["ws", "is", "ss"])
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_lf_matches_enumeration(self, model, n, k):
        # every one of the 2**n environments, weighted by its probability
        # times P(some of k lineages survives | environment), each with its
        # closed-form law (checked against power series in test_lfexact)
        atoms = 8
        idx = np.array(list(itertools.product(range(2), repeat=n)), dtype=np.uint8)
        log_q = log_survival(model, idx)
        with np.errstate(divide="ignore"):  # q = 1 in some is-ref environments
            weight = model.weights[idx].prod(axis=1) * -np.expm1(k * np.log1p(-np.exp(log_q)))
        sums, pgf_sum = conditioned_law(log_q, model.log_means[idx].sum(axis=1), k, weight, atoms, limits.S_GRID)
        exact = sums[0] / weight.sum()
        est = yaglom(model, k, n, 20000, seed=30 + k)
        assert est.method.endswith("+closed-form")
        for z in range(1, atoms + 1):
            value, se = est.pmf[z]
            assert abs(value - exact[z - 1]) < 4 * se
        np.testing.assert_allclose(est.pgf_values, pgf_sum / weight.sum(), atol=0.02)

    @pytest.mark.parametrize("model", [FS_WS, MIXED, DEAD_MIXED], ids=["fs-ws", "mixed", "dead-mixed"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_sampled_matches_enumeration(self, model, k):
        # the sampled skeleton against P(Z_n = z | Z_n > 0) over every one of
        # the 2**n environments (lookahead 0: the law at the horizon itself);
        # DEAD_MIXED's only finite-support law has no child to draw
        n = 6
        _, _, joint, alive = _enumerated_marginals(model, k, n, 80, lookahead=0)
        est = yaglom(model, k, n, 10000, seed=40 + k)
        assert not est.method.endswith("+closed-form")
        for z in range(1, 7):
            value, se = est.pmf[z]
            assert abs(value - joint[n][z] / alive) < 4 * se

    def test_pgf_monotone_and_normalized(self):
        est = yaglom(ws_ref(), 1, 10, 10**4, seed=9)
        vals = np.array(est.pgf_values)
        assert vals[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(vals) >= -1e-12)
        # midpoint convexity within a small SE slack
        assert np.all(vals[:-2] + vals[2:] >= 2 * vals[1:-1] - 1e-3)
        total = sum(p for p, _ in est.pmf.values()) + est.tail_mass
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_ss_k_independence_trend(self):
        e1 = yaglom(ss_ref(), 1, 10, 4 * 10**4, seed=10)
        e3 = yaglom(ss_ref(), 3, 10, 4 * 10**4, seed=11)
        tv = pmf_tv_distance(e1.pmf, e3.pmf)
        budget = pmf_tv_budget(e1.pmf, e3.pmf, e1.effective_events, e3.effective_events)
        assert tv <= 4 * budget


class TestSharedTables:
    """The per-model step table is built once and shared by the chunks of
    every thread, so its arrays are read-only."""

    def test_step_table_is_read_only(self):
        table = lfexact._step_table(MIXED)
        for field in ("pmf", "joint", "outcomes"):
            with pytest.raises(ValueError):
                getattr(table, field)[0, 0] = 0

    @pytest.mark.parametrize("threads", ["2", "4"])
    def test_threads_match_one_thread_bitwise(self, monkeypatch, threads):
        # the Yaglom law of FS_WS at k 1, n 12 and its WS Q-process at k 2,
        # h 5, 600 replicates each, in chunks of 200 so that the draw and the
        # population sampler each run three chunks at once; the tables are
        # rebuilt under the threads, with a short switch interval
        monkeypatch.setattr(streams, "CHUNK_SIZE", 200)
        monkeypatch.setenv(streams.THREADS_ENV_VAR, "1")

        def runs():
            return yaglom(FS_WS, 1, 12, 600, seed=3), qprocess_run(FS_WS, 2, 5, 600, seed=3)

        one = runs()
        for cached in (lfexact._step_table, solve_alpha):
            cached.cache_clear()
        monkeypatch.setenv(streams.THREADS_ENV_VAR, threads)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            many = runs()
        finally:
            sys.setswitchinterval(interval)
        assert one[1].method == "finite-horizon-approximation(lookahead=10)"
        assert repr(many) == repr(one)


class TestPopulationSampler:
    def test_covers_every_row_of_an_escalated_draw(self, monkeypatch):
        # an effective-event target that no draw reaches escalates 300
        # replicates to 2400, in rounds of 300, 300, 600 and 1200 rows cut
        # into chunks of 200; the sampler then runs its own chunks over the
        # whole record, so the rows of every round get a population
        monkeypatch.setattr(streams, "CHUNK_SIZE", 200)
        monkeypatch.setattr(simcore, "MIN_EFFECTIVE_EVENTS", math.inf)
        cond = draw_conditioned_env(FS_WS, 2, 8, 300, 5, "yaglom-k2-n8")
        assert cond.reps_used == 2400
        lu = log_survival_profile(FS_WS, cond.env)
        calls = []
        run_chunks = streams.run_chunks
        monkeypatch.setattr(streams, "run_chunks", lambda *a: calls.append(a[1:]) or run_chunks(*a))
        z, overflow = limits._sample_populations(cond.env, cond.log_q, lu, 2, 8, False, 5, "yaglom-k2-n8")
        traj, over = limits._sample_populations(cond.env, cond.log_q, lu, 2, 8, True, 5, "yaglom-k2-n8")
        assert calls == [(2400, 5, "yaglom-k2-n8-pop")] * 2
        assert z.shape == (2400,) and traj.shape == (2400, 9)
        assert not overflow.any() and not over.any()
        # every prolific individual has a descendant at the horizon
        assert (z >= 1).all() and (traj[:, 0] == 2).all() and (traj[:, -1] >= 1).all()
        est = yaglom(FS_WS, 2, 8, 300, seed=5)
        assert est.reps_used == 2400
        assert est.pmf == weighted_pmf(z, cond.survive_w)

    @pytest.mark.parametrize("model", [FS_WS, MIXED], ids=["fs-ws", "mixed"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_given_the_environment(self, model, k):
        # the skeleton's Z_n and the dressed Z_1..Z_3 (given Z_n > 0), each
        # drawn 20 000 times for each of three hand-built environments of
        # n = 6 generations, against the law given that environment
        envs = [[0, 1, 0, 1, 1, 0], [1, 1, 1, 0, 0, 0], [0, 0, 0, 0, 1, 1]]
        reps, n, horizon = 20000, 6, 3
        idx = np.repeat(envs, reps, axis=0)
        env = pack_env(model, idx)
        log_q = log_survival(model, idx)
        cond = simcore.ConditionedEnvSamples(env, log_q, np.ones(len(idx)), "hand-built", len(idx), 0.0, "")
        lu = log_survival_profile(model, env)
        z, over = limits._sample_populations(cond.env, cond.log_q, lu, k, n, False, 7, "t")
        traj, over_dressed = limits._sample_populations(cond.env, cond.log_q, lu, k, horizon, True, 7, "t")
        assert not over.any() and not over_dressed.any()
        for e, laws in enumerate(_laws_given(model, envs, k)):
            rows = slice(e * reps, (e + 1) * reps)
            for t, sizes in [(n, z[rows])] + [(t, traj[rows, t]) for t in range(1, horizon + 1)]:
                law = laws[t]
                observed = np.bincount(sizes, minlength=9)
                assert observed[0] == 0
                for size in range(1, 9):
                    se = math.sqrt(law[size] * (1.0 - law[size]) / reps)
                    assert abs(observed[size] / reps - law[size]) < 4 * se + 1e-12, (e, t, size)


class TestFunctionalResidual:
    def test_bernoulli_identity_exact(self):
        # 0/1 offspring: G(s) = s, and E[f(s)] = gamma s + 1 - gamma only
        # when each component's G(f_c(s)) carries that component's weight
        for model in (BERNOULLI, BERNOULLI_MIX):
            max_res, curve = functional_residual(model, 1, 10, 2000, seed=12)
            assert max_res <= 1e-12
            assert curve[1.0] <= 1e-15

    def test_residual_at_one_vanishes(self):
        _, curve = functional_residual(ss_ref(), 1, 12, 10**4, seed=13)
        assert curve[1.0] <= 1e-12


class TestQKernel:
    def test_deterministic_row_is_delta_two(self):
        row = qprocess_kernel(FS_HALF, 1, state_cap=16)
        assert row.probs[2] == pytest.approx(1.0, abs=1e-12)
        assert row.row_sum == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("model_fn", [ss_ref, is_ref])
    @pytest.mark.parametrize("state", [1, 2, 5])
    def test_rows_normalize(self, model_fn, state):
        row = qprocess_kernel(model_fn(), state, state_cap=2**12)
        assert abs(row.row_sum - 1.0) <= 1e-10 + row.tail_mass

    def test_ws_rejected(self):
        with pytest.raises(ValidationError):
            qprocess_kernel(ws_ref(), 1)

    def test_state_above_the_cap_rejected(self):
        # a state past the cap has no row inside the capped kernel; 10**9
        # would have stepped the builder 10**9 times
        assert qprocess_kernel(ss_ref(), 20, state_cap=20).state == 20
        cap = limits.DEFAULT_STATE_CAP
        for state, state_cap in ((21, 20), (cap + 1, cap), (10**9, cap)):
            with pytest.raises(ValidationError) as exc:
                qprocess_kernel(ss_ref(), state, state_cap=state_cap)
            assert exc.value.field == "kernel_state"

    @pytest.mark.parametrize(
        "model", [ss_ref(), is_ref(), FS_SS, MIXED], ids=["ss-ref", "is-ref", "fs-ss", "mixed"]
    )
    @pytest.mark.parametrize("state", [1, 2, 5, 10, 40])
    def test_rows_match_independent_references(self, model, state):
        # each row against its law built here, not by the builder: repeated
        # np.convolve of a finite-support pmf, and the LF y-fold law in closed
        # form, size-biased by b / (y gamma)
        cap = 300
        row = qprocess_kernel(model, state, state_cap=cap).probs
        gamma = classify(model).e_m
        unbiased = np.zeros(cap + 1)
        for law, w in model.components:
            if isinstance(law, LinearFractional):
                unbiased += w * np.array([_lf_power(law, state, b) for b in range(cap + 1)])
            else:
                conv = np.array([1.0])
                for _ in range(state):
                    conv = np.convolve(conv, law.probs)
                unbiased[: len(conv)] += w * conv[: cap + 1]
        ref = unbiased * np.arange(cap + 1) / (state * gamma)
        atoms = ref >= 1e-12
        assert atoms.sum() >= min(state, 4)
        np.testing.assert_allclose(row[atoms], ref[atoms], rtol=1e-14, atol=0)
        assert (np.abs(row[~atoms] - ref[~atoms]) < 1e-14).all()

    def test_ss_ref_row_at_state_1000(self):
        # 100 atoms across the bulk of the row, against the LF law in logs;
        # binary powering through the FFT was up to 8e-5 off here
        model, state = ss_ref(), 1000
        row = qprocess_kernel(model, state).probs
        gamma = classify(model).e_m
        bulk = np.flatnonzero(row >= 1e-12 * row.max())
        for b in np.linspace(bulk[0], bulk[-1], 100).astype(int).tolist():
            logs = [math.log(w) + _log_lf_power(law, state, b) for law, w in model.components]
            top = max(logs)
            ref = math.exp(top) * math.fsum(math.exp(x - top) for x in logs) * b / (state * gamma)
            assert row[b] == pytest.approx(ref, rel=1e-12, abs=0), b

    def test_finite_support_row_has_its_true_support(self):
        # the row convolves zero-padded pmfs of length 2**14 + 1; it went
        # through the FFT and came back with 13 764 atoms of noise, summing to
        # 1 + 4.6e-11. By hand, with gamma = 0.55: 0.5 (p1*p1 + p2*p2) =
        # (0.37, 0.29, 0.235, 0.08, 0.025), times b / 1.1
        row = qprocess_kernel(FS_SS, 2)
        assert len(row.probs) == limits.DEFAULT_STATE_CAP + 1
        np.testing.assert_array_equal(np.flatnonzero(row.probs), [1, 2, 3, 4])
        np.testing.assert_allclose(row.probs[1:5], np.array([29, 47, 24, 10]) / 110, rtol=0, atol=1e-15)
        assert row.tail_mass < 1e-15

    @pytest.mark.parametrize("model_fn", [ss_ref, is_ref])
    def test_lf_rows_lose_no_excess(self, model_fn):
        # the geometric tails underflow to 0 past about 1100, so the trimmed
        # supports convolve directly; through the FFT the rows summed to
        # 1 + 7.6e-11
        row = qprocess_kernel(model_fn(), 2)
        assert abs(row.row_sum - 1.0) < 1e-14

    def test_product_formula_on_enumeration_fixture(self):
        # two-step joint law: kernel product vs size-biased path probability
        model = FS_SS
        rep = classify(model)
        assert rep.regime == "SS"
        gamma = rep.e_m
        cap = 20
        k = 2

        def pop_pmf(start: int) -> np.ndarray:
            out = np.zeros(cap + 1)
            for law, w in model.components:
                pmf = np.zeros(cap + 1)
                probs = np.asarray(law.probs)
                conv = np.array([1.0])
                for _ in range(start):
                    conv = np.convolve(conv, probs)
                pmf[: len(conv)] = conv[: cap + 1]
                out += w * pmf
            return out

        p1 = pop_pmf(k)
        rows = {}
        for a in range(1, cap + 1):
            rows[a] = qprocess_kernel(model, a, state_cap=cap).probs
        row_k = qprocess_kernel(model, k, state_cap=cap).probs
        for a in range(1, 7):
            pa = pop_pmf(a)
            for b in range(1, 7):
                chain = row_k[a] * rows[a][b]
                direct = gamma**-2 * (b / k) * p1[a] * pa[b]
                assert chain == pytest.approx(direct, abs=1e-10)


class TestQProcessRun:
    def test_first_step_deterministic_chain(self):
        run = qprocess_run(FS_HALF, 1, 1, 300, seed=14)
        assert run.final_pmf[2][0] == pytest.approx(1.0, abs=1e-12)

    def test_chain_never_dies(self):
        run = qprocess_run(ss_ref(), 1, 25, 2000, seed=15)
        assert min(run.medians) >= 1.0
        assert all(size >= 1 for size in run.final_pmf)

    def test_fs_chain_matches_kernel(self):
        # the exact law of the bounded finite-support chain against the
        # exact kernel row (test_exact_law_matches_the_kernel checks it to
        # 1e-12); test_chain_matches_exact_law samples the chain
        reps = 20000
        row = qprocess_kernel(FS_SS, 2, state_cap=64).probs
        run = qprocess_run(FS_SS, 2, 1, reps, seed=26)
        assert set(run.final_pmf) <= set(np.flatnonzero(row))
        for state in range(12):
            p_emp, se = run.final_pmf.get(state, (0.0, 0.0))
            se = max(se, math.sqrt(row[state] * (1 - row[state]) / reps))
            assert abs(p_emp - row[state]) < 4 * se + 1e-12

    @pytest.mark.parametrize(
        "model, k, horizon, cap",
        [(FS_SS, 1, 10, 64), (ss_ref(), 1, 4, 128), (ss_ref(), 3, 4, 128), (MIXED, 3, 5, 128)],
        ids=["fs-ss", "ss-ref", "ss-ref-k3", "mixed-k3"],
    )
    def test_chain_matches_exact_law(self, model, k, horizon, cap):
        # the sampled Y_h against pi_h = pi_0 P^h, stepped through the exact
        # kernel rows; atoms, not medians: P(Y_1 <= 2) is exactly 1/2 on ss-ref.
        # FS_SS at h 10 may reach 2**10 > EXACT_CHAIN_STATES, so it is sampled.
        # From k = 3 the two initial particles off the spine are doomed, and
        # the SS mixture steps both offspring families in one generation
        reps = 20000
        law = _capped_chain_law(model, k, horizon, cap)
        assert 1.0 - law.sum() < 1e-6
        run = qprocess_run(model, k, horizon, reps, seed=29)
        assert run.method == "exact-kernel-chain"
        _assert_atoms_match(run.final_pmf, law, reps)

    @pytest.mark.parametrize(
        "model", [FS_SS, *ZERO_MEAN_SS.values()], ids=["fs-ss", *(f"zero-{key}" for key in ZERO_MEAN_SS)]
    )
    def test_exact_law_matches_the_kernel(self, model):
        # a parent has at most 2 children, so the states stay bounded at
        # these horizons and the law is computed, not sampled: each row of
        # P, the one-step law from k, and pi_h match the rows of
        # qprocess_kernel within 1e-12, with SE 0, and nothing is drawn. Both
        # take their rows from _kernel_rows, so this checks the wiring;
        # test_rows_match_independent_references checks the rows
        for k in range(1, 21):
            run = qprocess_run(model, k, 1, 1000, seed=1)
            assert (run.method, run.seed_info, run.reps, run.overflow_mass) == ("exact-kernel-law", None, 1000, 0.0)
            row = qprocess_kernel(model, k, state_cap=64).probs
            assert set(run.final_pmf) == set(np.flatnonzero(row))
            for state, (p, se) in run.final_pmf.items():
                assert abs(p - row[state]) < 1e-12 and se == 0.0
        for k in (1, 2):
            for horizon in range(1, 6):
                law = _capped_chain_law(model, k, horizon, 64)
                run = qprocess_run(model, k, horizon, 1000, seed=1)
                assert run.method == "exact-kernel-law"
                got = np.zeros(65)
                for state, (p, _) in run.final_pmf.items():
                    got[state] = p
                np.testing.assert_allclose(got, law, rtol=0, atol=1e-12)
                assert run.medians[-1] == np.argmax(np.cumsum(law) >= 0.5)

    @pytest.mark.parametrize("model", ZERO_MEAN_SS.values(), ids=ZERO_MEAN_SS.keys())
    def test_zero_mean_component_never_drawn(self, model, monkeypatch):
        # the chain draws its spine's components with draw_env_batch under the
        # mean-size-biased plan, which gives the zero-mean component weight 0
        # (tilt_plan rejects such a model); at h 10 its states may pass
        # EXACT_CHAIN_STATES, so it is sampled, and Y_10 matches the capped law
        zero = model.laws.index(FiniteSupport([1.0]))
        batches = []
        draw = limits.draw_env_batch
        monkeypatch.setattr(limits, "draw_env_batch", lambda *a: batches.append(draw(*a)) or batches[-1])
        reps = 20000
        law = _capped_chain_law(model, 1, 10, 64)
        assert 1.0 - law.sum() < 1e-6
        run = qprocess_run(model, 1, 10, reps, seed=30)
        assert run.method == "exact-kernel-chain"
        assert len(batches) == -(-reps // streams.CHUNK_SIZE)
        for batch in batches:
            assert batch.plan.weights[zero] == 0.0
            assert np.all(batch.idx != zero)
        _assert_atoms_match(run.final_pmf, law, reps)
        # the exact law's medians; its CDF at 2 is 0.58 or more, at 1 0.43 or less
        assert qprocess_run(model, 1, 5, 2000, seed=1).medians == (1.0, 2.0, 2.0, 2.0, 2.0, 2.0)

    @pytest.mark.parametrize("model", [ss_ref(), FS_SS], ids=["ss-ref", "fs-ss"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_kernel_matches_conditioned_chain(self, model, k):
        # exact one-step kernel vs finite-lookahead conditioned trajectories;
        # from k = 2 a doomed initial parent also has children
        row = qprocess_kernel(model, k, state_cap=64).probs
        cond, traj, over = _trajectories(model, k, 1, 15, 3 * 10**4, seed=16)
        w = cond.survive_w
        ok = ~over
        emp = weighted_pmf(traj[ok, 1], w[ok])
        neff = kish_neff(w[ok])
        for state in range(1, 8):
            p_emp, se = emp.get(state, (0.0, 0.0))
            se = max(se, math.sqrt(row[state] * (1 - row[state]) / neff))
            assert abs(p_emp - row[state]) < 4 * se + 1e-9

    @pytest.mark.parametrize("model", [ws_ref(), FS_WS], ids=["ws-ref", "fs-ws"])
    def test_trajectories_match_rejection(self, model):
        # Z_1, Z_2 given survival at generation 3 from k = 2, against whole
        # simulated populations: doomed parents reproduce with x well below 1
        k, n = 2, 3
        cond, traj, _ = _trajectories(model, k, 2, n - 2, 3 * 10**4, seed=27)
        w = cond.survive_w
        rng = stream(28, "t")
        pops = evolve_lineages(model, draw_env_batch(model, n, rng, 3 * 10**4).idx, k, rng)
        sizes = pops.sum(axis=2)
        kept = sizes[sizes[:, -1] > 0, 1:3]
        assert len(kept) >= 6000
        kept = kept[:6000]
        for gen in (1, 2):
            est = weighted_pmf(traj[:, gen], w)
            rej = weighted_pmf(kept[:, gen - 1], np.ones(len(kept)))
            tv = pmf_tv_distance(est, rej)
            assert tv <= 4 * pmf_tv_budget(est, rej, kish_neff(w), float(len(kept)))
            mean_est, se_est = ratio_and_se(w * traj[:, gen], w)
            mean_rej, se_rej = mean_and_se(kept[:, gen - 1].astype(float))
            assert abs(mean_est - mean_rej) < 4 * math.hypot(se_est, se_rej)

    def test_every_component_dead_is_rejected(self):
        # gamma = 0: no chain survives (it ran into a 0/0 and a numpy warning)
        dead = EnvironmentModel([(FiniteSupport([1.0]), 1.0)])
        with pytest.raises(ValidationError) as err:
            qprocess_run(dead, 1, 3, 100, seed=1)
        assert err.value.field == "model"

    def test_is_chain_transient_trend(self):
        run = qprocess_run(is_ref(), 1, 20, 1500, seed=17)
        assert run.medians[20] > run.medians[5]

    def test_ws_run_is_labeled_approximation(self):
        run = qprocess_run(ws_ref(), 1, 6, 3000, seed=18)
        assert "approximation" in run.method
        assert len(run.medians) == 7
        assert run.medians[0] == 1.0

    def test_ws_populations_do_not_overflow(self):
        # the sampled trajectories, which the WS chain of a non-LF model
        # runs on, stay below POPULATION_CAP over a long horizon
        _, _, over = _trajectories(ws_ref(), 1, 20, QPROCESS_LOOKAHEAD, 10000, seed=1)
        assert not over.any()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_ws_closed_form_matches_enumeration(self, k):
        # P(Z_t <= z | Z_n > 0) averaged over all 2**12 ws-ref environments
        # against convolution powers of the offspring pmfs and composed pgfs,
        # and the median search against the first z where that CDF reaches 1/2
        model, horizon, cap = ws_ref(), 2, 120
        idx, prob, joint, alive = _enumerated_marginals(model, k, horizon, cap)
        lu = log_survival_profile(model, idx)
        total = float(np.dot(prob, -np.expm1(k * np.log1p(-np.exp(lu[:, 0])))))
        tails = limits._marginal_tails(model, k, lu, idx[:, :horizon], prob)
        for t, tail in enumerate(tails):
            want = np.cumsum(joint[t]) / alive
            got = np.array([1.0 - tail(z).sum() / total for z in range(cap + 1)])
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            summed = np.array([1.0 - tail.total(z) / total for z in range(cap + 1)])
            np.testing.assert_allclose(summed, want, rtol=0, atol=1e-12)
            assert limits._tail_median(tail.total, total, 1) == int(np.argmax(want >= 0.5))
        assert t == horizon

    def test_sampled_medians_match_the_weighted_cdf(self):
        # the search against the smallest z whose weighted CDF reaches 1/2,
        # on sampled columns with ties, zero weights and wide spreads
        rng = stream(31, "t")
        for scale in (1, 5, 1000):
            traj = 1 + rng.geometric(1.0 / scale, size=(300, 6))
            w = rng.random(300) * (rng.random(300) > 0.2)
            for col, median in zip(traj.T, limits._sampled_medians(traj, w)):
                values = np.unique(col)
                cdf = np.array([w[col <= v].sum() for v in values])
                assert median == values[np.argmax(cdf >= 0.5 * w.sum())]

    def test_ws_closed_form_run(self):
        run = qprocess_run(ws_ref(), 2, 4, 2000, seed=30)
        assert run.method == f"finite-horizon-approximation(lookahead={QPROCESS_LOOKAHEAD})+closed-form"
        assert run.overflow_mass == 0.0
        assert run.medians[0] == 2.0
        # the same draws, escalation and provenance as the sampled trajectories
        cond, _, _ = _trajectories(ws_ref(), 2, 4, QPROCESS_LOOKAHEAD, 2000, seed=30)
        assert (run.reps, run.seed_info) == (cond.reps_used, cond.seed_info)

    def test_fs_ws_samples_match_enumeration(self):
        # the sampled WS chain, which finite-support models keep, against the
        # exact conditioned laws of all 2**13 environments
        k, horizon, reps = 1, 3, 8000
        run = qprocess_run(FS_WS, k, horizon, reps, seed=29)
        assert run.regime == "WS"
        assert run.method == f"finite-horizon-approximation(lookahead={QPROCESS_LOOKAHEAD})"
        assert run.overflow_mass == 0.0
        cond, _, _ = _trajectories(FS_WS, k, horizon, QPROCESS_LOOKAHEAD, reps, seed=29)
        slack = 4 * 0.5 / math.sqrt(cond.effective_events)
        _, _, joint, alive = _enumerated_marginals(FS_WS, k, horizon, 40)
        for t, median in enumerate(run.medians):
            cdf = np.cumsum(joint[t]) / alive
            z = int(median)
            assert cdf[z] >= 0.5 - slack
            assert z == 0 or cdf[z - 1] <= 0.5 + slack


class TestEnvPosterior:
    def test_one_step_exact(self):
        post = env_posterior(ws_ref(), 1, 1, 0, 100, seed=19)
        model = ws_ref()
        # weights proportional to w_i * (1 - f_i(0))
        raw = [w * (1.0 - _f0(law)) for law, w in model.components]
        z = sum(raw)
        for i, r in enumerate(raw):
            assert post.per_position[0][i][0] == pytest.approx(r / z, abs=1e-12)
        assert post.method == "exact-enum"

    def test_single_component_posterior_is_prior(self):
        model = EnvironmentModel([(LinearFractional(0.125, 0.5), 1.0)])
        post = env_posterior(model, 2, 2, 4, 2000, seed=20)
        for pos in range(2):
            assert post.per_position[pos][0][0] == pytest.approx(1.0, abs=1e-12)

    def test_ws_selects_favorable_environment(self):
        # conditioning on survival overweights the supercritical component
        post = env_posterior(ws_ref(), 1, 1, 15, 6 * 10**4, seed=21)
        val, se = post.per_position[0][1]  # component 1 has mean e
        assert val - 0.5 > 3 * se

    def test_joint_tracks_marginals(self):
        post = env_posterior(ss_ref(), 1, 2, 3, 2 * 10**4, seed=22)
        marg0 = {c: 0.0 for c in range(2)}
        for key, (p, _) in post.joint.items():
            marg0[key[0]] += p
        for c in range(2):
            assert marg0[c] == pytest.approx(post.per_position[0][c][0], abs=1e-9)

    @pytest.mark.parametrize(
        "model, k, p, n, seed",
        [(ws_ref(), 1, 1, 15, 23), (is_ref(), 2, 2, 10, 24)],
        ids=["ws-ref", "is-ref"],
    )
    def test_matches_enumeration(self, model, k, p, n, seed):
        # every one of the K**(n+p) environments, weighted by its
        # probability times P(some of k lineages survives | environment)
        reps = 40_000
        idx = np.array(list(itertools.product(range(2), repeat=n + p)), dtype=np.uint8)
        q = np.exp(log_survival(model, idx))
        weight = model.weights[idx].prod(axis=1) * (1.0 - (1.0 - q) ** k)
        post = env_posterior(model, k, p, n, reps, seed=seed)
        assert post.method == "tilted-IS"
        assert post.effective_events >= 0.25 * reps
        for pos in range(p):
            for comp in range(2):
                exact = weight[idx[:, pos] == comp].sum() / weight.sum()
                val, se = post.per_position[pos][comp]
                assert abs(val - exact) < 4 * se

    def test_validation(self):
        with pytest.raises(ValidationError):
            env_posterior(ss_ref(), 1, 6, 2, 100, seed=0)
        with pytest.raises(ValidationError):
            env_posterior(ss_ref(), 1, 3, 23, 100, seed=0)


def _assert_atoms_match(pmf, law, reps):
    """Every atom of the sampled ``pmf`` lies on the support of the exact
    ``law`` and within 4 binomial SE of it (the larger of the sample's SE
    and the law's)."""
    assert set(pmf) <= set(np.flatnonzero(law))
    for state in range(len(law)):
        p_emp, se = pmf.get(state, (0.0, 0.0))
        se = max(se, math.sqrt(law[state] * (1 - law[state]) / reps))
        assert abs(p_emp - law[state]) < 4 * se + 1e-12, state


def _lf_power(law, y, b):
    """P(X_1 + ... + X_y = b) for iid LF X: j ~ Binomial(y, a) of the
    particles have children, a = A/(1-B), and their children number
    NegativeBinomial(j, 1-B) on top of j, so the atom is sum_j C(y,j) a^j
    (1-a)^(y-j) C(b-1,j-1) (1-B)^j B^(b-j)."""
    a, B = law.A / (1.0 - law.B), law.B
    if b == 0:
        return (1.0 - a) ** y
    return math.fsum(
        math.comb(y, j) * a**j * (1.0 - a) ** (y - j) * math.comb(b - 1, j - 1) * (1.0 - B) ** j * B ** (b - j)
        for j in range(1, min(y, b) + 1)
    )


@functools.cache
def _log_combs(n):
    """log C(n, k) for k = 0..n, each the log of the exact integer: closer
    than lgamma differences, which lose about 1e-12 near n = 1000."""
    logs, c = [], 1
    for k in range(n + 1):
        logs.append(math.log(c))
        c = c * (n - k) // (k + 1)
    return logs


def _log_lf_power(law, y, b):
    """log of ``_lf_power`` for b >= 1, summed in logs."""
    a, B = law.A / (1.0 - law.B), law.B
    log_cy, log_cb = _log_combs(y), _log_combs(b - 1)
    logs = [
        log_cy[j] + j * math.log(a) + (y - j) * math.log1p(-a)
        + log_cb[j - 1] + j * math.log1p(-B) + (b - j) * math.log(B)
        for j in range(1, min(y, b) + 1)
    ]
    top = max(logs)
    return top + math.log(math.fsum(math.exp(x - top) for x in logs))


def _capped_chain_law(model, k, horizon, cap):
    """pi_horizon = pi_0 P^horizon of the SS/IS chain from k, with the rows
    of P from qprocess_kernel, cut at cap. The rows share ``_kernel_rows``
    with ``_exact_chain_law``, so against it this checks the wiring;
    test_rows_match_independent_references checks the rows."""
    kernel = np.zeros((cap + 1, cap + 1))
    for state in range(1, cap + 1):
        kernel[state] = qprocess_kernel(model, state, state_cap=cap).probs
    law = np.zeros(cap + 1)
    law[k] = 1.0
    for _ in range(horizon):
        law = law @ kernel
    return law


def _trajectories(model, k, horizon, lookahead, reps, seed):
    """The conditioned draw of a WS ``qprocess_run`` at ``lookahead``, and
    its dressed trajectories Z_0..Z_horizon and overflow mask."""
    purpose = f"qtraj-k{k}-h{horizon}"
    cond = draw_conditioned_env(model, k, horizon + lookahead, reps, seed, purpose)
    lu = log_survival_profile(model, cond.env)
    return (cond, *limits._sample_populations(cond.env, cond.log_q, lu, k, horizon, True, seed, purpose))


def _laws_given(model, envs, k, cap=80):
    """For each environment (component indices of generations 0..n-1):
    P(Z_t = z | Z_n > 0, environment), z = 0..cap, for t = 0..n, from k
    particles, by convolution powers of the offspring pmfs and the composed
    pgfs."""
    out = []
    for env in envs:
        n = len(env)
        dead = [0.0] * (n + 1)
        for t in range(n - 1, -1, -1):
            dead[t] = float(_offspring_pgf(model.laws[env[t]], np.array(dead[t + 1])))
        law = np.zeros(cap + 1)
        law[k] = 1.0
        laws = []
        for t in range(n + 1):
            alive = law * (1.0 - dead[t] ** np.arange(cap + 1))
            laws.append(alive / (1.0 - dead[0] ** k))
            if t < n:
                step = _offspring_pmf(model.laws[env[t]], cap)
                power = np.eye(cap + 1)[0]
                nxt = np.zeros(cap + 1)
                for size in range(cap + 1):
                    nxt += law[size] * power
                    power = np.convolve(power, step)[: cap + 1]
                law = nxt
        out.append(laws)
    return out


def _offspring_pmf(law, cap: int) -> np.ndarray:
    """P(one parent has c children), c = 0..cap."""
    if isinstance(law, LinearFractional):
        pmf = law.A * law.B ** np.arange(-1.0, cap)
        pmf[0] = 1.0 - law.A / (1.0 - law.B)
        return pmf
    return np.pad(np.asarray(law.probs), (0, cap + 1 - len(law.probs)))


def _offspring_pgf(law, s: np.ndarray) -> np.ndarray:
    if isinstance(law, LinearFractional):
        return 1.0 - law.A / (1.0 - law.B) + law.A * s / (1.0 - law.B * s)
    return sum(p * s**c for c, p in enumerate(law.probs))


def _enumerated_marginals(model, k, horizon, cap, lookahead=QPROCESS_LOOKAHEAD):
    """Every environment of n = horizon + lookahead generations and its
    probability; for t = 0..horizon the annealed P(Z_t = z, Z_n > 0),
    z = 0..cap; and P(Z_n > 0); all from k particles. At lookahead 0 the
    last of these is P(Z_n = z) for z >= 1, the Yaglom law times P(Z_n > 0).

    Per environment the law of Z_t steps by convolution powers of the
    offspring pmfs, truncated at cap (choose cap so that Z_{horizon-1} stays
    below it), and P(Z_n > 0 | Z_t = z) = 1 - F^z, with F the pgf of
    generations t..n-1 composed at 0.
    """
    n = horizon + lookahead
    idx = np.array(list(itertools.product(range(len(model.laws)), repeat=n)), dtype=np.uint8)
    prob = model.weights[idx].prod(axis=1)
    powers = []
    for law in model.laws:
        rows = [np.eye(cap + 1)[0]]
        for _ in range(cap):
            rows.append(np.convolve(rows[-1], _offspring_pmf(law, cap))[: cap + 1])
        powers.append(np.array(rows))
    dead = np.zeros((n + 1, len(idx)))
    for t in range(n - 1, -1, -1):
        for comp, law in enumerate(model.laws):
            rows = idx[:, t] == comp
            dead[t, rows] = _offspring_pgf(law, dead[t + 1, rows])
    law_t = np.zeros((len(idx), cap + 1))
    law_t[:, k] = 1.0
    joint = []
    for t in range(horizon + 1):
        joint.append(prob @ (law_t * (1.0 - dead[t][:, None] ** np.arange(cap + 1))))
        if t == n:
            break
        for comp in range(len(model.laws)):
            rows = idx[:, t] == comp
            law_t[rows] = law_t[rows] @ powers[comp]
    return idx, prob, joint, float(prob @ (1.0 - dead[0] ** k))


def _f0(law):
    from bpre.offspring import pgf

    return pgf(law, 0.0)
