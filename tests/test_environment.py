import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpre.environment import (
    EnvironmentModel,
    _alias_table,
    _draw_slots,
    block_length,
    builtin_model,
    draw_env,
    draw_env_batch,
    env_expectation,
    is_ref,
    pack_env,
    ss_ref,
    tilt,
    tilt_plan,
    ws_ref,
)
from bpre.errors import ValidationError
from bpre.lfexact import log_survival
from bpre.offspring import LinearFractional, geometric_lf, moments
from bpre.regime import solve_alpha
from bpre.streams import stream
from helpers import chi_square_pvalue


def test_builtin_means_are_exact():
    assert list(ss_ref().means) == [0.5, 0.25]
    assert list(is_ref().means) == [2.0, 0.25]
    np.testing.assert_allclose(ws_ref().means, [math.exp(-2.0), math.e], rtol=1e-15)


def test_unknown_builtin():
    with pytest.raises(ValidationError):
        builtin_model("nope")


class TestDrawEnv:
    def test_empty(self):
        env = draw_env(ss_ref(), 0, stream(1, "t"))
        assert len(env) == 0

    def test_single_component_degenerate(self):
        law = LinearFractional(0.125, 0.5)
        model = EnvironmentModel([(law, 1.0)])
        env = draw_env(model, 5, stream(1, "t"))
        assert all(l == law for l in env)

    def test_component_frequency(self):
        model = ss_ref()
        rng = stream(3, "t")
        env = draw_env(model, 10**5, rng)
        frac = sum(1 for law in env if law == model.laws[0]) / 1e5
        assert abs(frac - 0.5) < 0.005  # ~3 binomial SEs


class TestTilt:
    def test_identity(self):
        model = ss_ref()
        tilted, z = tilt(model, 0.0)
        assert tilted is model
        assert z == 1.0

    def test_ws_ref_normalizer(self):
        _, z = tilt(ws_ref(), math.log(2.0) / 3.0)
        expected = (2.0 ** (-2.0 / 3.0) + 2.0 ** (1.0 / 3.0)) / 2.0
        assert z == pytest.approx(expected, abs=1e-12)

    def test_single_component(self):
        model = EnvironmentModel([(LinearFractional(0.125, 0.5), 1.0)])
        tilted, z = tilt(model, 2.5)
        assert tilted.weights[0] == pytest.approx(1.0, abs=1e-15)
        assert z == pytest.approx(0.5**2.5, rel=1e-14)

    def test_normalizer_equals_expectation(self):
        model = is_ref()
        for theta in [0.3, 1.0, 2.7]:
            _, z = tilt(model, theta)
            direct = env_expectation(model, lambda law: moments(law)[0] ** theta)
            assert abs(z - direct) < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.0, 3.0), st.floats(0.0, 3.0))
    def test_composition(self, t1, t2):
        model = ws_ref()
        once, _ = tilt(*[model, t1])
        twice, _ = tilt(once, t2)
        joint, _ = tilt(model, t1 + t2)
        np.testing.assert_allclose(twice.weights, joint.weights, atol=1e-12)


class TestExpectation:
    def test_mean_mixture(self):
        model = EnvironmentModel(
            [
                (LinearFractional(0.5, 0.5), 0.2),  # mean 2
                (LinearFractional(0.0625, 0.5), 0.8),  # mean 1/4
            ]
        )
        assert env_expectation(model, lambda law: moments(law)[0]) == pytest.approx(
            0.6, abs=1e-15
        )

    def test_constant(self):
        assert env_expectation(ss_ref(), lambda law: 1.0) == 1.0

    def test_is_ref_centering(self):
        val = env_expectation(
            is_ref(), lambda law: moments(law)[0] * math.log(moments(law)[0])
        )
        assert abs(val) <= 1e-12


def test_weight_validation():
    with pytest.raises(ValidationError):
        EnvironmentModel([(LinearFractional(0.125, 0.5), 0.7)])
    with pytest.raises(ValidationError):
        EnvironmentModel(
            [(LinearFractional(0.125, 0.5), 0.0), (LinearFractional(0.125, 0.5), 1.0)]
        )
    with pytest.raises(ValidationError, match="^components:"):
        EnvironmentModel(
            [(LinearFractional(0.125, 0.5), math.nan), (LinearFractional(0.125, 0.5), 0.5)]
        )


# --- block-code draws -----------------------------------------------------------
#
# draw_env_batch draws one code per block of b generations through an alias
# table of the block's product law. The expected laws below are rebuilt from
# the component weights with numpy's own digit arithmetic.


def lf_model(means, weights):
    return EnvironmentModel([(geometric_lf(m), w) for m, w in zip(means, weights)])


BLOCK_MODELS = {
    1: lf_model([0.7], [1.0]),
    2: lf_model([0.5, 1.5], [0.7, 0.3]),
    3: lf_model([0.3, 0.9, 2.0], [0.5, 0.3, 0.2]),
    5: lf_model([0.2, 0.5, 0.8, 1.3, 2.5], [0.1, 0.15, 0.2, 0.25, 0.3]),
    300: lf_model(np.linspace(0.2, 2.5, 300), np.full(300, 1.0 / 300)),
}


def component_law(model, theta):
    return model.weights if theta is None else tilt_plan(model, theta).weights


def product_law(p, length):
    """P(code) of ``length`` iid components, first generation most significant."""
    digits = np.unravel_index(np.arange(len(p) ** length), (len(p),) * length)
    return np.prod([p[d] for d in digits], axis=0)


def unpack(codes, k, length):
    """(count, length) components of each code."""
    return np.stack(np.unravel_index(codes.astype(np.intp), (k,) * length), axis=-1)


class TestBlockDraw:
    @pytest.mark.parametrize(
        "k, b", [(1, 12), (2, 12), (3, 7), (5, 5), (16, 3), (17, 2), (64, 2), (65, 1), (300, 1)]
    )
    def test_block_length(self, k, b):
        assert block_length(k) == b

    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize("theta", [None, 0.7], ids=["base", "tilted"])
    def test_alias_table_holds_the_product_law(self, k, theta):
        # each cell j keeps itself with probability keep_j and otherwise
        # passes to its alias; the mass each code receives is its law
        p = component_law(BLOCK_MODELS[k], theta)
        for length in range(1, block_length(k) + 1):
            edge, pick = _alias_table(tuple(p), length)
            size = len(edge)
            keep = edge - np.arange(size)
            got = np.bincount(pick[1::2], keep, size) + np.bincount(pick[::2], 1.0 - keep, size)
            np.testing.assert_allclose(got / size, product_law(p, length), rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize("theta", [None, 0.7], ids=["base", "tilted"])
    def test_code_counts_match_product_law(self, k, theta):
        model = BLOCK_MODELS[k]
        p = component_law(model, theta)
        plan = None if theta is None else tilt_plan(model, theta)
        b = block_length(k)
        rest = b // 2 + 1  # a last, shorter block
        batch = draw_env_batch(model, 2 * b + rest, stream(31, "blocks"), 20000, plan)
        assert batch.codes.shape == (20000, 3)
        for codes, length in ((batch.codes[:, :2], b), (batch.codes[:, 2], rest)):
            observed = np.bincount(codes.ravel(), minlength=k**length)
            expected = codes.size * product_law(p, length)
            assert len(observed) == k**length
            assert chi_square_pvalue(observed, expected) > 0.001

    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize("theta", [None, 0.7], ids=["base", "tilted"])
    def test_unpacked_marginals_and_block_boundary(self, k, theta):
        model = BLOCK_MODELS[k]
        p = component_law(model, theta)
        plan = None if theta is None else tilt_plan(model, theta)
        b = block_length(k)
        count, n = 20000, 2 * b + 1
        batch = draw_env_batch(model, n, stream(32, "blocks"), count, plan)
        want = np.concatenate(
            [unpack(batch.codes[:, 0], k, b), unpack(batch.codes[:, 1], k, b), batch.codes[:, 2:]],
            axis=1,
        )
        np.testing.assert_array_equal(batch.idx, want)
        for i in range(n):
            assert chi_square_pvalue(np.bincount(batch.idx[:, i], minlength=k), count * p) > 0.001
        # generations b - 1 and b sit in different blocks and are independent
        pair = batch.idx[:, b - 1].astype(np.intp) * k + batch.idx[:, b]
        assert chi_square_pvalue(np.bincount(pair, minlength=k * k), count * product_law(p, 2)) > 0.001

    @pytest.mark.parametrize("k", [2, 3, 5, 300])
    @pytest.mark.parametrize("n", [0, 1, 7, 40])
    def test_tilt_weights_match_unpacked_idx(self, k, n):
        model = BLOCK_MODELS[k]
        plan = tilt_plan(model, 0.7)
        batch = draw_env_batch(model, n, stream(33, "blocks"), 500, plan)
        s_n = model.log_means[batch.idx.astype(np.intp)].sum(axis=1)
        want = plan.rate**n * np.exp(-plan.theta * s_n)
        np.testing.assert_allclose(batch.w, want, rtol=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 300])
    @pytest.mark.parametrize("count, n", [(50, 19), (0, 19), (50, 0), (0, 0)])
    @pytest.mark.parametrize("theta", [None, 0.7], ids=["base", "tilted"])
    def test_edge_shapes(self, k, count, n, theta):
        model = BLOCK_MODELS[k]
        plan = None if theta is None else tilt_plan(model, theta)
        batch = draw_env_batch(model, n, stream(34, "blocks"), count, plan)
        b = block_length(k)
        assert batch.n == n
        assert batch.codes.shape == (count, -(-n // b))
        assert batch.codes.dtype == (np.uint8 if k == 1 else np.uint16)
        assert batch.idx.shape == (count, n)
        assert batch.idx.dtype == (np.uint16 if k == 300 else np.uint8)
        assert batch.w.shape == (count,)
        assert np.all(batch.idx < k)
        if k == 1:
            assert not batch.idx.any() and not batch.codes.any()
        if k == 300:  # one generation per code
            np.testing.assert_array_equal(batch.codes, batch.idx)

    @pytest.mark.parametrize("k", [1, 2, 3, 300])
    def test_prefix_is_the_head_of_idx(self, k):
        # a prefix unpacks only the blocks that cover it, with the bits of idx
        b = block_length(k)
        n = 2 * b + 1
        for g in sorted({0, 1, b - 1, b, b + 1, n}):
            batch = draw_env_batch(BLOCK_MODELS[k], n, stream(37, "blocks"), 64)
            head = batch.prefix(g)
            assert "idx" not in vars(batch)
            assert head.shape == (64, g) and head.dtype == batch.idx.dtype
            np.testing.assert_array_equal(head, batch.idx[:, :g])
            np.testing.assert_array_equal(batch.prefix(g), head)  # sliced from idx

    @pytest.mark.parametrize("k", [1, 2, 3, 300])
    def test_pack_env_round_trip(self, k):
        model = BLOCK_MODELS[k]
        b = block_length(k)
        for n in (0, 2 * b, 2 * b + 1, 23):  # no block, whole blocks only, a short last block
            batch = draw_env_batch(model, n, stream(35, "blocks"), 64)
            packed = pack_env(model, batch.idx)
            np.testing.assert_array_equal(packed.codes, batch.codes)
            assert packed.codes.dtype == batch.codes.dtype
            np.testing.assert_array_equal(packed.idx, batch.idx)
            assert log_survival(model, batch.idx).tobytes() == log_survival(model, batch).tobytes()


class TestLogWeights:
    def test_log_weights_past_the_float_range(self):
        # is-ref at theta = 1 and n = 5000: every weight exp(n log rate -
        # S_n) is below the smallest float, and its log stays exact
        model, n = is_ref(), 5000
        plan = tilt_plan(model, 1.0)
        batch = draw_env_batch(model, n, stream(1, "x"), 256, plan)
        assert batch.plan is plan
        assert np.all(batch.w == 0.0)
        assert np.all(np.isfinite(batch.log_w))
        assert batch.log_w.max() < math.log(np.finfo(float).tiny) - 36.0
        want = n * math.log(plan.rate) - plan.theta * batch.s_n
        assert batch.log_w.tobytes() == want.tobytes()
        s_n = model.log_means[batch.idx.astype(np.intp)].sum(axis=1)
        np.testing.assert_allclose(batch.s_n, s_n, rtol=1e-12)

    def test_weights_are_the_exp_of_their_logs(self):
        model = ws_ref()
        plan = tilt_plan(model, solve_alpha(model)[0])
        batch = draw_env_batch(model, 40, stream(2, "x"), 300, plan)
        assert batch.w.tobytes() == np.exp(batch.log_w).tobytes()
        assert np.all(batch.w > 0.0)

    @pytest.mark.parametrize("n", [0, 9])
    def test_untilted_weights_are_exact_ones(self, n):
        model = ws_ref()
        drawn = draw_env_batch(model, n, stream(3, "x"), 30)
        for batch in (drawn, pack_env(model, drawn.idx)):
            assert batch.plan is None
            assert batch.log_w.tobytes() == np.zeros(30).tobytes()
            assert batch.w.tobytes() == np.ones(30).tobytes()


class TestRowDraw:
    """draw_env_batch draws one block row at a time (stream layout 3)."""

    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize("count", [0, 1, 4096])
    @pytest.mark.parametrize("extra", [-1, 0, 1], ids=["b-1", "b", "b+1"])
    @pytest.mark.parametrize("theta", [None, 0.7], ids=["base", "tilted"])
    def test_rows_match_one_whole_shape_draw(self, k, count, extra, theta):
        model = BLOCK_MODELS[k]
        plan = None if theta is None else tilt_plan(model, theta)
        p = component_law(model, theta)
        b = block_length(k)
        for n in {0, b + extra}:
            rng = stream(36, "rows")
            batch = draw_env_batch(model, n, rng, count, plan)
            ref = stream(36, "rows")
            full, rest = divmod(n, b)
            parts = [np.empty((full, count), dtype=np.intp)]
            if rest:
                parts.append(np.empty((1, count), dtype=np.intp))
            for part, length in zip(parts, (b, rest)):
                _draw_slots(ref, p, length, part)
            np.testing.assert_array_equal(batch.slots.T, np.concatenate(parts))
            # a callback drawing after the batch starts where one uniform
            # per code, in row order, leaves the stream
            ref = stream(36, "rows")
            ref.random(batch.codes.size)
            np.testing.assert_equal(rng.bit_generator.state, ref.bit_generator.state)
