import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpre.environment import (
    EnvironmentModel,
    block_length,
    draw_env,
    draw_env_batch,
    ss_ref,
    tilt_plan,
    ws_ref,
)
from bpre.errors import NonLatticeError, ValidationError
from bpre.lfexact import quenched_survival
from bpre.offspring import FiniteSupport, geometric_lf, moments
from bpre.rwalk import (
    WalkPath,
    ln_tail,
    ln_tail_exact,
    occupation_tail,
    reflected_sum_check,
    walk_stats,
)
from bpre.streams import stream
from test_streams import MODELS


def unit_lattice_model(p_up=1.0 / 3.0):
    """Steps +1 with probability p_up, else -1."""
    return EnvironmentModel(
        [(geometric_lf(math.e), p_up), (geometric_lf(1.0 / math.e), 1.0 - p_up)]
    )


class TestWalkStats:
    def test_hand_example(self):
        stats = walk_stats(WalkPath((-1.0, 1.0, -1.0)))
        # partial sums (0, -1, 0, -1)
        assert stats.min_from_0 == -1.0
        assert stats.min_from_1 == -1.0
        assert stats.occupation == {0: 2, 1: 2}
        assert stats.reflected_sum == pytest.approx(2.0 + 2.0 * math.exp(-1.0), abs=1e-12)

    def test_empty(self):
        stats = walk_stats(WalkPath(()))
        assert stats.min_from_0 == 0.0
        assert stats.reflected_sum == 1.0
        assert stats.occupation == {0: 1}

    def test_strictly_decreasing(self):
        stats = walk_stats(WalkPath((-1.0, -1.0, -1.0)))
        assert stats.min_from_0 == -3.0
        assert stats.occupation == {0: 1, 1: 1, 2: 1, 3: 1}
        expected = sum(math.exp(-i) for i in range(4))
        assert stats.reflected_sum == pytest.approx(expected, abs=1e-12)
        # the bounded-by-geometric-series sanity bound
        assert stats.reflected_sum < math.e / (math.e - 1.0)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-3, 3), max_size=30))
    def test_conservation_and_bounds(self, steps):
        stats = walk_stats(WalkPath(tuple(steps)))
        assert stats.total_occupation == len(steps) + 1
        assert stats.min_from_0 <= 0.0
        assert stats.reflected_sum >= 1.0 - 1e-12
        assert stats.reflected_sum <= len(steps) + 1 + 1e-9


class TestExactTail:
    def test_two_step_enumeration(self):
        # only the two up-first paths keep the minimum at or above 0
        assert ln_tail_exact(unit_lattice_model(), 2, 0.0) == pytest.approx(
            1.0 / 3.0, abs=1e-12
        )

    def test_horizon_zero(self):
        assert ln_tail_exact(ws_ref(), 0, 3.0) == 1.0

    def test_pinned_enumeration_ws_lattice(self):
        # ws-ref steps are {+1, -2} with equal weight; brute enumeration at n=6
        model = ws_ref()
        n, x = 6, 2.0
        count = 0
        for path in itertools.product([1, -2], repeat=n):
            sums = np.concatenate([[0], np.cumsum(path)])
            if sums.min() >= -x:
                count += 1
        expected = count / 2.0**n
        assert expected == 19.0 / 64.0  # frozen from the enumeration
        assert ln_tail_exact(model, n, x) == pytest.approx(expected, abs=1e-10)

    def test_infinite_level_is_one(self):
        # no walk goes below -inf; as the Monte Carlo tail returns
        assert ln_tail_exact(ws_ref(), 8, math.inf) == 1.0
        assert ln_tail(ws_ref(), 8, math.inf, 100, seed=1).value == 1.0

    def test_rejects_off_lattice_x(self):
        with pytest.raises(ValidationError):
            ln_tail_exact(ws_ref(), 5, 0.5)

    def test_rejects_non_lattice_model(self):
        model = EnvironmentModel(
            [(geometric_lf(0.5), 0.5), (geometric_lf(1.0 / math.e), 0.5)]
        )
        with pytest.raises(NonLatticeError):
            ln_tail_exact(model, 5, 0.0)

    def test_horizon_cap(self):
        with pytest.raises(ValidationError):
            ln_tail_exact(ws_ref(), 65, 0.0)

    @pytest.mark.parametrize(
        "live, x",
        [
            ((0.3, 0.3, 0.2, 0.2), 0.0),
            ((0.3, 0.3, 0.2, 0.2), math.log(1.3)),  # one lattice step
            ((0.5, 0.0, 0.5), 0.0),
            ((0.5, 0.0, 0.5), 1.0),
        ],
        ids=["mean-1.3-x0", "mean-1.3-x1", "mean-1-x0", "mean-1-x1"],
    )
    def test_zero_mean_step_leaves_every_level(self, live, x):
        # the zero-mean component's step is -inf, below every finite -x, and
        # the other never steps down: the walk stays above -x with 0.5**3
        model = EnvironmentModel([(FiniteSupport((1.0,)), 0.5), (FiniteSupport(live), 0.5)])
        assert ln_tail_exact(model, 3, x) == 0.125
        assert ln_tail_exact(model, 3, math.inf) == 1.0
        est = ln_tail(model, 3, x, 20000, seed=6)
        assert abs(est.value - 0.125) < 4 * est.std_error


class TestMonteCarloTail:
    def test_horizon_zero(self):
        est = ln_tail(ws_ref(), 0, 5.0, 100, seed=1)
        assert est.value == 1.0

    @pytest.mark.parametrize("x", [0.0, 1.0])
    def test_direct_matches_exact(self, x):
        exact = ln_tail_exact(ws_ref(), 8, x)
        est = ln_tail(ws_ref(), 8, x, 4 * 10**4, seed=2)
        assert abs(est.value - exact) < 4 * est.std_error

    @pytest.mark.parametrize("x", [0.0, 2.0])
    def test_tilted_matches_exact(self, x):
        exact = ln_tail_exact(ws_ref(), 16, x)
        est = ln_tail(ws_ref(), 16, x, 4 * 10**4, method="tilted-IS", seed=3)
        assert abs(est.value - exact) < 4 * est.std_error

    def test_direct_vs_tilted(self):
        a = ln_tail(ws_ref(), 20, 1.0, 4 * 10**4, seed=4)
        b = ln_tail(ws_ref(), 20, 1.0, 4 * 10**4, method="tilted-IS", seed=5)
        comb = math.hypot(a.std_error, b.std_error)
        assert abs(a.value - b.value) < 4 * comb

    def test_tilted_rejected_for_ss(self):
        from bpre.errors import DegenerateTiltError

        with pytest.raises(DegenerateTiltError):
            ln_tail(ss_ref(), 10, 1.0, 100, method="tilted-IS", seed=6)

    @pytest.mark.parametrize("method", ["direct", "exact-enum"])
    def test_unknown_method_rejected(self, method):
        with pytest.raises(ValidationError):
            ln_tail(ws_ref(), 8, 1.0, 100, method=method, seed=6)


class TestOccupation:
    def test_l_zero_is_one(self):
        est = occupation_tail(ws_ref(), 10, 0, 0, 1.0, 4000, seed=6)
        assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_l_too_large_is_zero(self):
        est = occupation_tail(ws_ref(), 10, 0, 12, 1.0, 4000, seed=7)
        assert est.value == 0.0

    def test_minimum_band_always_visited(self):
        est = occupation_tail(ws_ref(), 15, 0, 1, 2.0, 4000, seed=8)
        assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_matches_lattice_enumeration(self):
        # ws-ref steps are -2 and +1 (up to rounding) with probability 1/2:
        # enumerate all integer-step paths for P(band-0 visits >= 3 | min >= -1)
        n, hits, kept = 14, 0, 0
        for steps in itertools.product((-2, 1), repeat=n):
            s = np.concatenate([[0], np.cumsum(steps)])
            if s.min() >= -1:
                kept += 1
                hits += int(np.count_nonzero(s == s.min()) >= 3)
        exact = hits / kept
        assert exact == pytest.approx(0.0998117, abs=1e-7)
        est = occupation_tail(ws_ref(), n, 0, 3, 1.0, 200000, seed=5)
        assert abs(est.value - exact) < 4 * est.std_error

    def test_float_lattice_levels_band_correctly(self):
        # log means -2.0 and 1.0000000000000002: the partial sums miss the
        # integers by rounding error, and one level up must still be band 1
        log_m = ws_ref().log_means
        stats = walk_stats(WalkPath((log_m[1], log_m[0])))
        # partial sums 0, 1, -1: levels above the minimum 1, 2, 0
        assert stats.occupation == {0: 1, 1: 1, 2: 1}


class TestReflectedSum:
    def test_requires_ws_small_alpha(self):
        with pytest.raises(ValidationError):
            reflected_sum_check(ss_ref(), reps=100, seed=9)

    def test_ws_ref_finds_beta(self):
        report = reflected_sum_check(ws_ref(), reps=8000, seed=10)
        assert report.passed
        assert report.beta_hat is not None and report.beta_hat <= 2**16
        # the reflected sum is at most n+1 <= 21 termwise, so 32 always works
        assert report.beta_hat <= 32.0


class TestSurvivalLink:
    def test_lower_bound_pathwise(self):
        # for all-LF sequences p >= (C/2) exp(min) / reflected_sum path by
        # path, with C = 1 / (1 + max over components of f''(1)/f'(1))
        model = ws_ref()
        floor = 1.0 / (1.0 + max(f2 / m for m, f2 in map(moments, model.laws)))
        rng = stream(11, "t")
        for _ in range(200):
            env = draw_env(model, 30, rng)
            p = quenched_survival(env).p
            stats = walk_stats(WalkPath.from_env(env))
            bound = 0.5 * floor * math.exp(stats.min_from_0) / stats.reflected_sum
            assert p >= bound - 1e-15


class TestWalkMinimum:
    """EnvBatch.walk_minimum and partial_sums read the walk from the block
    codes with the bits of a cumsum over the unpacked steps."""

    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize("tilted", [False, True])
    def test_matches_cumsum_bitwise(self, k, tilted):
        model = MODELS[k]
        b = block_length(k)
        plan = tilt_plan(model, 0.5) if tilted else None
        for n in (1, b - 1, 2 * b + 1, 5 * b + 2):
            batch = draw_env_batch(model, n, stream(71, "walk"), 300, plan)
            paths = np.cumsum(model.log_means[batch.idx], axis=1)
            sums = np.array([s.copy() for s in batch.partial_sums()]).T
            assert sums.tobytes() == paths.tobytes()
            assert batch.walk_minimum().tobytes() == paths.min(axis=1).tobytes()

    def test_empty_walk(self):
        batch = draw_env_batch(ws_ref(), 0, stream(72, "walk"), 4)
        assert list(batch.partial_sums()) == []
        assert np.all(batch.walk_minimum() == np.inf)


def test_occupation_benchmark_case_matches_lattice():
    # ws-ref steps are -2 and +1 (up to rounding) with probability 1/2:
    # P(band-0 visits >= 3 | min >= -1) at n = 16 from all 2**16 paths
    n = 16
    steps = np.array(list(itertools.product((-2, 1), repeat=n)))
    s = np.concatenate([np.zeros((len(steps), 1), dtype=int), np.cumsum(steps, axis=1)], axis=1)
    low = s.min(axis=1)
    kept = low >= -1
    hits = kept & ((s == low[:, None]).sum(axis=1) >= 3)
    exact = hits.sum() / kept.sum()
    est = occupation_tail(ws_ref(), n, 0, 3, 1.0, 20000, seed=1)
    assert abs(est.value - exact) < 4 * est.std_error
