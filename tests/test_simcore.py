import math
import os

import numpy as np
import pytest

from bpre import streams
from bpre.environment import EnvironmentModel, EnvSequence, is_ref, ss_ref, ws_ref
from bpre.errors import (
    ConditioningStarvationError,
    DegenerateTiltError,
    PopulationCapError,
    ValidationError,
)
from bpre.offspring import FiniteSupport, LinearFractional
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
    simulate_lineages,
)
from bpre.stats import chi_square_pvalue
from bpre.streams import stream

LF = LinearFractional(0.25, 0.5)
BERNOULLI_MODEL = EnvironmentModel([(FiniteSupport([0.5, 0.5]), 1.0)])


class TestSimulateLineages:
    def test_time_zero(self):
        traj = simulate_lineages(ss_ref(), 1, 0, stream(1, "t"))
        assert traj.total_alive == 1
        assert traj.lineages_alive == 1

    def test_bernoulli_survival_probability(self):
        # each lineage survives iff every generation draws a 1: prob 2**-10
        k, n, reps = 3, 10, 30000
        p_one = 2.0**-n
        expected = 1.0 - (1.0 - p_one) ** k
        rng = stream(2, "t")
        hits = 0
        for _ in range(reps):
            traj = simulate_lineages(BERNOULLI_MODEL, k, n, rng)
            hits += traj.lineages_alive >= 1
        se = math.sqrt(expected * (1 - expected) / reps)
        assert abs(hits / reps - expected) < 4 * se

    def test_joint_survival_constant_env(self):
        # both of 2 lineages alive after 2 critical-geometric generations: 1/9
        env = EnvSequence([LF, LF])
        reps = 20000
        rng = stream(3, "t")
        hits = 0
        for _ in range(reps):
            pops = evolve_lineages(env, 2, rng)
            hits += int((pops[-1] > 0).all())
        expected = 1.0 / 9.0
        se = math.sqrt(expected * (1 - expected) / reps)
        assert abs(hits / reps - expected) < 4 * se

    def test_population_cap(self):
        hot = EnvironmentModel([(LinearFractional(0.5, 0.5), 1.0)])  # mean 2
        with pytest.raises(PopulationCapError):
            simulate_lineages(hot, 64, 40, stream(4, "t"), population_cap=10**4)


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

    def test_ss_tilt_rejected(self):
        with pytest.raises(DegenerateTiltError):
            annealed_survival(ss_ref(), 1, 10, 100, method="tilted-IS", seed=9)

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


class TestInclusionExclusion:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_pathwise_identity(self, k):
        report = inclusion_exclusion_check(ss_ref(), k, 10, 5000, seed=15)
        assert report.max_pathwise_diff <= 1e-12
        assert report.passed

    def test_k_cap(self):
        with pytest.raises(ValidationError):
            inclusion_exclusion_check(ss_ref(), 7, 5, 10, seed=0)


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
        # mixture-of-binomials shortcut vs brute-force lineage simulation
        k, n = 3, 6
        dist = conditional_lineage_counts(ss_ref(), k, n, 2 * 10**5, seed=21)
        counts = lineage_counts_by_simulation(ss_ref(), k, n, 10**4, seed=22)
        total = sum(counts.values())
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


class TestSharedDrawInvariants:
    def test_survival_bounds_per_path(self):
        samples = draw_env_samples(ws_ref(), 15, 4000, 26, "inv")
        for k in [2, 5]:
            any_k = 1.0 - (1.0 - samples.q) ** k
            assert np.all(any_k >= samples.q - 1e-15)
            assert np.all(any_k <= k * samples.q + 1e-15)

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
