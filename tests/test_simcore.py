import itertools
import math
import os

import numpy as np
import pytest

from bpre import streams
from bpre.environment import EnvironmentModel, draw_env_batch, is_ref, ss_ref, ws_ref
from bpre.errors import (
    ConditioningStarvationError,
    PopulationCapError,
    UnderflowError,
    ValidationError,
)
from bpre.lfexact import log_survival
from bpre.limits import env_posterior, qprocess_run, yaglom
from bpre.offspring import FiniteSupport, LinearFractional
from bpre.rwalk import ln_tail
from bpre.simcore import (
    alpha_k_curve,
    annealed_survival,
    conditional_env_survival,
    conditional_lineage_counts,
    draw_env_samples,
    evolve_lineages,
    inclusion_exclusion_check,
    joint_survival,
    lineage_counts_by_simulation,
    run_conditioned,
)
from bpre.streams import stream
from helpers import chi_square_pvalue

LF = LinearFractional(0.25, 0.5)
BERNOULLI_MODEL = EnvironmentModel([(FiniteSupport([0.5, 0.5]), 1.0)])


class TestSimulateLineages:
    def test_time_zero(self):
        rng = stream(1, "t")
        pops = evolve_lineages(ss_ref(), draw_env_batch(ss_ref(), 0, rng, 1).idx, 1, rng)
        assert pops.shape == (1, 1, 1)
        assert pops[0, -1].sum() == 1
        assert np.count_nonzero(pops[0, -1]) == 1

    def test_bernoulli_survival_probability(self):
        # each lineage survives iff every generation draws a 1: prob 2**-10
        k, n, reps = 3, 10, 30000
        p_one = 2.0**-n
        expected = 1.0 - (1.0 - p_one) ** k
        rng = stream(2, "t")
        idx = draw_env_batch(BERNOULLI_MODEL, n, rng, reps).idx
        pops = evolve_lineages(BERNOULLI_MODEL, idx, k, rng)
        hits = np.count_nonzero(pops[:, -1].sum(axis=1) > 0)
        se = math.sqrt(expected * (1 - expected) / reps)
        assert abs(hits / reps - expected) < 4 * se

    def test_joint_survival_constant_env(self):
        # both of 2 lineages alive after 2 critical-geometric generations: 1/9
        reps = 20000
        idx = np.zeros((reps, 2), dtype=np.uint8)  # the environment (LF, LF) in every row
        pops = evolve_lineages(EnvironmentModel([(LF, 1.0)]), idx, 2, stream(3, "t"))
        hits = np.count_nonzero((pops[:, -1] > 0).all(axis=1))
        expected = 1.0 / 9.0
        se = math.sqrt(expected * (1 - expected) / reps)
        assert abs(hits / reps - expected) < 4 * se

    def test_population_cap(self):
        hot = EnvironmentModel([(LinearFractional(0.5, 0.5), 1.0)])  # mean 2
        idx = np.zeros((1, 40), dtype=np.uint8)
        with pytest.raises(PopulationCapError):
            evolve_lineages(hot, idx, 64, stream(4, "t"), population_cap=10**4)

    def test_population_cap_is_per_replicate(self):
        # every individual has exactly 2 children: each row holds 2**10 at n = 10,
        # and the 64 rows together hold 2**16
        doubling = EnvironmentModel([(FiniteSupport([0.0, 0.0, 1.0]), 1.0)])
        idx = np.zeros((64, 10), dtype=np.uint8)
        pops = evolve_lineages(doubling, idx, 1, stream(5, "t"), population_cap=2**10)
        assert (pops[:, -1, 0] == 2**10).all()
        with pytest.raises(PopulationCapError) as err:
            evolve_lineages(doubling, idx, 1, stream(5, "t"), population_cap=2**10 - 1)
        assert err.value.generation == 10


MONTE_CARLO_AT_ZERO_REPS = {
    "annealed": lambda: annealed_survival(ss_ref(), 1, 5, 0),
    "joint": lambda: joint_survival(ss_ref(), 2, 5, 0),
    "incl-excl": lambda: inclusion_exclusion_check(ss_ref(), 2, 5, 0),
    "alphak": lambda: alpha_k_curve(ss_ref(), [1, 2], [5], 0),
    "lincount": lambda: conditional_lineage_counts(ss_ref(), 2, 5, 0),
    "lincount-sim": lambda: lineage_counts_by_simulation(ss_ref(), 2, 5, 0),
    "envsel": lambda: conditional_env_survival(ss_ref(), 2, 5, 0, [0.1]),
    "yaglom": lambda: yaglom(ss_ref(), 1, 5, 0),
    "qprocess": lambda: qprocess_run(ws_ref(), 1, 5, 0),
    "envpost": lambda: env_posterior(ws_ref(), 1, 1, 3, 0),
    "ln-tail": lambda: ln_tail(ws_ref(), 5, 1.0, 0),
}


@pytest.mark.parametrize("estimate", MONTE_CARLO_AT_ZERO_REPS.values(), ids=MONTE_CARLO_AT_ZERO_REPS)
def test_zero_replicates_is_validation_error(estimate):
    with pytest.raises(ValidationError) as err:
        estimate()
    assert err.value.field == "reps"


class TestAnnealedSurvival:
    def test_horizon_zero_is_one(self):
        est = annealed_survival(ss_ref(), 1, 0, 100, seed=5)
        assert est.value == 1.0 and est.std_error == 0.0

    def test_deterministic_env_zero_variance(self):
        est = annealed_survival(BERNOULLI_MODEL, 1, 10, 500, seed=6)
        assert est.value == pytest.approx(2.0**-10, abs=1e-15)
        # env is degenerate, so the only spread is summation rounding
        assert est.std_error < 1e-15

    @pytest.mark.parametrize("model_fn", [is_ref, ws_ref])
    def test_env_exact_vs_tilted(self, model_fn):
        model = model_fn()
        a = annealed_survival(model, 1, 10, 40000, method="env-exact", seed=7)
        b = annealed_survival(model, 1, 10, 40000, method="tilted-IS", seed=8)
        comb = math.hypot(a.std_error, b.std_error)
        assert abs(a.value - b.value) < 4 * comb

    def test_ss_draws_at_theta_one_for_both_methods(self):
        # the same tilt, stream and weights whichever method is asked for
        a = annealed_survival(ss_ref(), 2, 10, 500, method="env-exact", seed=9)
        b = annealed_survival(ss_ref(), 2, 10, 500, method="tilted-IS", seed=9)
        assert a == b
        assert a.method == "tilted-IS"

    @pytest.mark.parametrize("n", [6, 12])
    @pytest.mark.parametrize("k", [1, 3])
    def test_ss_matches_enumeration(self, n, k):
        model = ss_ref()
        idx = np.array(list(itertools.product(range(2), repeat=n)), dtype=np.uint8)
        q = np.exp(log_survival(model, idx))
        exact = float(model.weights[idx].prod(axis=1) @ (1.0 - (1.0 - q) ** k))
        est = annealed_survival(model, k, n, 20000, seed=40 + n + k)
        assert abs(est.value - exact) < 4 * est.std_error

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_ss_far_horizon_matches_bracket(self, seed):
        # certified bracket of P(Z_400 > 0) for ss-ref from one particle;
        # untilted draws came out about 1000x low here
        lo, hi = 1.5202377942e-171, 1.5202378203e-171
        est = annealed_survival(ss_ref(), 1, 400, 4096, seed=seed)
        assert lo - 4 * est.std_error <= est.value <= hi + 4 * est.std_error
        assert est.std_error < 0.01 * est.value

    def test_bad_method(self):
        with pytest.raises(ValidationError):
            annealed_survival(ss_ref(), 1, 5, 10, method="what", seed=0)


class TestJointSurvival:
    def test_k1_equals_annealed(self):
        # same estimand; the two ops draw from different stream purposes
        a = annealed_survival(ss_ref(), 1, 8, 40000, seed=10)
        b = joint_survival(ss_ref(), 1, 8, 40000, seed=10)
        comb = math.hypot(a.std_error, b.std_error)
        assert abs(a.value - b.value) < 4 * comb

    def test_constant_env_exact(self):
        model = EnvironmentModel([(LF, 1.0)])
        est = joint_survival(model, 2, 2, 50, seed=11)
        assert est.value == pytest.approx(1.0 / 9.0, abs=1e-12)
        assert est.std_error < 1e-15

    def test_ss_joint_decay_rate(self):
        # two-lineage joint survival decays like E[m**2]**n = (5/32)**n
        ns = [8, 12, 16, 20]
        vals = [
            joint_survival(ss_ref(), 2, n, 10**4, method="tilted-IS", seed=12).value
            for n in ns
        ]
        slope = np.polyfit(ns, np.log(vals), 1)[0]
        assert abs(slope - math.log(5.0 / 32.0)) < 0.1 * abs(math.log(5.0 / 32.0))

    def test_tilted_env_exact_cross_check(self):
        a = joint_survival(ws_ref(), 2, 12, 40000, method="env-exact", seed=13)
        b = joint_survival(ws_ref(), 2, 12, 40000, method="tilted-IS", seed=14)
        comb = math.hypot(a.std_error, b.std_error)
        assert abs(a.value - b.value) < 4 * comb


class TestUnderflow:
    """An estimate that underflows to 0.0 while some environment survives
    raises; one whose environments are all dead is 0.0."""

    def test_annealed_survival_raises(self):
        with pytest.raises(UnderflowError):
            annealed_survival(ss_ref(), 1, 1200, 20000, seed=1)

    def test_joint_survival_raises(self):
        with pytest.raises(UnderflowError):
            joint_survival(ss_ref(), 2, 600, 4096, seed=1)

    def test_alpha_k_raises(self):
        # every P_1 sample is 0.0 at n = 2000, with log q up to about -800
        with pytest.raises(UnderflowError):
            alpha_k_curve(ws_ref(), [2], [2000], 512, seed=1)

    def test_all_dead_is_zero(self):
        # a zero-mean component in every one of 100 generations, bar 2**-100
        model = EnvironmentModel([(LinearFractional(0.0, 0.0), 0.5), (LF, 0.5)])
        for estimate in (annealed_survival, joint_survival):
            est = estimate(model, 2, 100, 4096, seed=1)
            assert est.value == 0.0 and est.std_error == 0.0

    def test_all_dead_alpha_k_is_nan(self):
        # P_k / P_1 is 0/0 when every drawn environment is dead
        model = EnvironmentModel([(LinearFractional(0.0, 0.0), 0.5), (LF, 0.5)])
        (row,) = alpha_k_curve(model, [2], [100], 512, seed=1).rows
        assert math.isnan(row.value)
        assert row.std_error == row.combined_se == math.inf


class TestInclusionExclusion:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_pathwise_identity(self, k):
        report = inclusion_exclusion_check(ss_ref(), k, 10, 5000, seed=15)
        assert report.max_pathwise_diff <= 1e-12
        assert report.passed

    def test_k_cap(self):
        with pytest.raises(ValidationError):
            inclusion_exclusion_check(ss_ref(), 7, 5, 10, seed=0)

    @pytest.mark.parametrize("k", [0, -2])
    def test_k_below_one(self, k):
        # k = 0 gave a vacuous passing report and k = -2 a negative mean
        with pytest.raises(ValidationError) as info:
            inclusion_exclusion_check(ss_ref(), k, 10, 100, seed=0)
        assert info.value.field == "k"


class TestAlphaK:
    def test_k1_is_exactly_one(self):
        table = alpha_k_curve(ss_ref(), [1], [5, 10], 2000, seed=16)
        for n in [5, 10]:
            assert table.at(1, n).value == pytest.approx(1.0, abs=1e-12)

    def test_ss_ratio_near_two(self):
        table = alpha_k_curve(ss_ref(), [2], [20], 10**5, seed=17)
        row = table.at(2, 20)
        assert abs(row.value - 2.0) < 3 * row.combined_se

    def test_monotone_n_list_required(self):
        with pytest.raises(ValidationError):
            alpha_k_curve(ss_ref(), [2], [10, 5], 100, seed=0)


class TestConditionalLineageCounts:
    def test_single_particle(self):
        dist = conditional_lineage_counts(ss_ref(), 1, 8, 4000, seed=18)
        assert dist.pmf[1][0] == pytest.approx(1.0, abs=1e-12)

    def test_ss_multiple_survivors_vanish(self):
        p5 = conditional_lineage_counts(ss_ref(), 3, 5, 3 * 10**4, seed=19).prob_at_least(2)
        p10 = conditional_lineage_counts(ss_ref(), 3, 10, 3 * 10**4, seed=20).prob_at_least(2)
        assert p10 < p5

    def test_matches_full_simulation(self):
        # mixture-of-binomials shortcut vs brute-force lineage simulation, on
        # a WS model where P(N > 1 | alive) does not vanish: about 17 000
        # surviving runs, 4600 with N = 2, so a P(N = 2) off by a tenth
        # gives p < 1e-8
        k, n = 3, 6
        dist = conditional_lineage_counts(ws_ref(), k, n, 2 * 10**5, seed=21)
        counts = lineage_counts_by_simulation(ws_ref(), k, n, 10**5, seed=22)
        total = sum(counts.values())
        assert total > 10**4 and counts[2] > 10**3
        observed = np.array([counts.get(j, 0) for j in range(1, k + 1)], dtype=float)
        expected = np.array([total * dist.pmf[j][0] for j in range(1, k + 1)])
        assert chi_square_pvalue(observed, expected) > 0.001


class TestConditionalEnvSurvival:
    def test_eps_zero_is_one(self):
        curve = conditional_env_survival(ss_ref(), 1, 8, 4000, [0.0], seed=23)
        assert curve.points[0.0][0] == pytest.approx(1.0, abs=1e-12)

    def test_ss_tail_hits_zero_exactly(self):
        # ss-ref survival is capped at (1/2)**n, so the 0.1-tail is empty at n=10
        curve = conditional_env_survival(ss_ref(), 1, 10, 10**4, [0.1], seed=24)
        assert curve.points[0.1][0] == 0.0

    def test_is_selection_fades(self):
        early = conditional_env_survival(is_ref(), 1, 8, 4 * 10**4, [0.01], seed=24)
        late = conditional_env_survival(is_ref(), 1, 16, 4 * 10**4, [0.01], seed=25)
        assert late.points[0.01][0] < early.points[0.01][0]


def enumerated(model, n):
    """Probability and exact survival q of every environment of n
    generations, all K**n of them."""
    k = len(model.laws)
    idx = np.array(list(itertools.product(range(k), repeat=n)), dtype=np.uint8).reshape(k**n, n)
    return model.weights[idx].prod(axis=1), np.exp(log_survival(model, idx))


class TestMatchesEnumeration:
    """Each Monte Carlo estimator against its exact value, the mixture over
    every environment of the horizon, within 4 reported SE."""

    @pytest.mark.parametrize("method", ["env-exact", "tilted-IS"])
    @pytest.mark.parametrize("model_fn, k", [(ss_ref, 2), (ws_ref, 3)], ids=["ss", "ws"])
    def test_joint_survival(self, model_fn, k, method):
        model = model_fn()
        p, q = enumerated(model, 10)
        est = joint_survival(model, k, 10, 20000, method=method, seed=50 + k)
        assert abs(est.value - p @ q**k) < 4 * est.std_error

    def test_alpha_k_curve(self):
        model = ws_ref()
        table = alpha_k_curve(model, [2, 4], [8, 12], 20000, seed=52)
        for n in (8, 12):
            p, q = enumerated(model, n)
            for k in (2, 4):
                row = table.at(k, n)
                exact = p @ (1.0 - (1.0 - q) ** k) / (p @ q)
                assert abs(row.value - exact) < 4 * row.std_error, (k, n)

    @pytest.mark.parametrize("model_fn", [ss_ref, is_ref, ws_ref], ids=["ss", "is", "ws"])
    def test_conditional_lineage_counts(self, model_fn):
        model, k, n = model_fn(), 3, 10
        p, q = enumerated(model, n)
        dist = conditional_lineage_counts(model, k, n, 20000, seed=53)
        alive = p @ (1.0 - (1.0 - q) ** k)
        for j, (value, se) in dist.pmf.items():
            exact = p @ (math.comb(k, j) * q**j * (1.0 - q) ** (k - j)) / alive
            assert abs(value - exact) < 4 * se, j

    @pytest.mark.parametrize("model_fn, k", [(is_ref, 1), (ws_ref, 1), (ws_ref, 4)], ids=["is", "ws", "ws-k4"])
    def test_conditional_env_survival(self, model_fn, k):
        model, n, grid = model_fn(), 10, [0.001, 0.01, 0.05]
        p, q = enumerated(model, n)
        curve = conditional_env_survival(model, k, n, 20000, grid, seed=54)
        alive = p * (1.0 - (1.0 - q) ** k)
        for eps in grid:
            value, se = curve.points[eps]
            assert abs(value - alive[q >= eps].sum() / alive.sum()) < 4 * se, eps


class TestSharedDrawInvariants:
    def test_survival_bounds_per_path(self):
        samples = draw_env_samples(ws_ref(), 15, 4000, 26, "inv")
        q = np.exp(samples.log_q)
        for k in [2, 5]:
            any_k = 1.0 - (1.0 - q) ** k
            assert np.all(any_k >= q - 1e-15)
            assert np.all(any_k <= k * q + 1e-15)

    def test_determinism_and_thread_independence(self):
        a = annealed_survival(ws_ref(), 2, 12, 20000, seed=27)
        b = annealed_survival(ws_ref(), 2, 12, 20000, seed=27)
        assert a.value == b.value and a.std_error == b.std_error
        os.environ["BPRE_THREADS"] = "4"
        try:
            c = annealed_survival(ws_ref(), 2, 12, 20000, seed=27)
        finally:
            del os.environ["BPRE_THREADS"]
        assert c.value == a.value and c.std_error == a.std_error

    def test_weights_reweight_back(self):
        # tilted draws with weights average to the base-model expectation
        est_direct = annealed_survival(ws_ref(), 1, 8, 60000, seed=28)
        est_tilted = annealed_survival(ws_ref(), 1, 8, 60000, method="tilted-IS", seed=29)
        comb = math.hypot(est_direct.std_error, est_tilted.std_error)
        assert abs(est_direct.value - est_tilted.value) < 4 * comb


class TestEscalation:
    def test_neighbouring_seeds_use_disjoint_streams(self, monkeypatch):
        keys = {1: set(), 2: set()}
        original = streams.stream
        for seed in keys:

            def recording(s, purpose, chunk_index=0, seen=keys[seed]):
                seen.add((s, purpose, chunk_index))
                return original(s, purpose, chunk_index)

            monkeypatch.setattr(streams, "stream", recording)
            try:
                conditional_lineage_counts(ss_ref(), 3, 60, 4096, seed=seed)
            except ConditioningStarvationError:
                pass  # the keys drawn before starvation still count
        assert len(keys[1]) > 1  # the request escalated
        assert not keys[1] & keys[2]

    def test_escalated_rounds_equal_one_longer_run(self):
        # about 143 events in 4096 replicates and 287 in 8192, so the loop
        # escalates exactly once past the 200-event target
        def chunk(rng, count, start):
            hits = (rng.random(count) < 0.035).astype(float)
            return hits, rng.random(count)

        fields, total, eff = run_conditioned(chunk, 4096, 3, "escalate")
        assert total == 8192
        single = streams.run_chunks(chunk, 8192, 3, "escalate")
        for merged, direct in zip(fields, single):
            np.testing.assert_array_equal(merged, direct)
        assert eff == fields[0].sum()
