"""Exact bits of a few seeded estimates.

Each pin is ``float.hex`` of an output at a fixed (config, seed). A change
that keeps the stream layout and the arithmetic leaves every pin as it is;
a change that alters either (how many variates a draw takes, the order of a
sum) must update the pins and say so in CHANGES.md.
"""

import numpy as np

from bpre.environment import EnvironmentModel, EnvSequence, ss_ref, ws_ref
from bpre.lfexact import log_survival, quenched_survival
from bpre.limits import env_posterior, qprocess_run, yaglom
from bpre.offspring import FiniteSupport, LinearFractional
from bpre.simcore import (
    annealed_survival,
    conditional_env_survival,
    conditional_lineage_counts,
    joint_survival,
)

FS_SS = EnvironmentModel(
    [(FiniteSupport((0.5, 0.3, 0.2)), 0.5), (FiniteSupport((0.7, 0.2, 0.1)), 0.5)]
)
FS_WS = EnvironmentModel(
    [(FiniteSupport((0.5, 0.3, 0.2)), 0.5), (FiniteSupport((0.3, 0.3, 0.2, 0.2)), 0.5)]
)
MIXED = EnvironmentModel(
    [(FiniteSupport((0.6, 0.2, 0.1, 0.1)), 0.4), (LinearFractional(0.125, 0.5), 0.6)]
)
ZERO_MEAN_FS = EnvironmentModel(
    [(FiniteSupport((1.0,)), 0.1), (FiniteSupport((0.2, 0.3, 0.5)), 0.9)]
)
# four environments of 20 generations over two components
ROWS = np.array(
    [
        [1, 0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1, 0, 1, 1, 0, 1, 1, 1],
        [0] * 20,
        [1] * 20,
        [1] * 10 + [0] + [1] * 9,
    ]
)


def pin(estimate):
    return estimate.value.hex(), estimate.std_error.hex()


def test_tilted_annealed_survival():
    est = annealed_survival(ws_ref(), 1, 100, 8192, "tilted-IS", seed=3)
    assert pin(est) == ("0x1.dd85791e7a3b4p-17", "0x1.65c10c7abeff6p-21")


def test_tilted_joint_survival():
    est = joint_survival(ws_ref(), 4, 16, 8192, "tilted-IS", seed=3)
    assert pin(est) == ("0x1.4465cd021214cp-10", "0x1.4856298458a7fp-15")


def test_yaglom_atom():
    # closed-form law per environment; P(Z_16 = 1 | alive) is 0.0732094464
    # by enumerating all 2**16 environments
    value, se = yaglom(ws_ref(), 1, 16, 4096, seed=3).pmf[1]
    assert (value.hex(), se.hex()) == ("0x1.25281115989c1p-4", "0x1.ca0e6442f3dcbp-9")
    assert abs(value - 0.0732094464) < se


def test_finite_support_qprocess():
    run = qprocess_run(FS_SS, 1, 5, 1500, seed=3)
    assert run.regime == "SS"
    assert [m.hex() for m in run.medians] == [x.hex() for x in (1.0, 2.0, 2.0, 2.0, 2.0, 2.0)]
    # the SE carries the n/(n-1) of ratio_and_se: sqrt(1500/1499) times the
    # 0x1.a1f14d0c7b7b4p-7 it was without it
    value, se = run.final_pmf[2]
    assert (value.hex(), se.hex()) == ("0x1.b0cf87d9c54a7p-2", "0x1.a214fbb61bb9cp-7")


def test_ss_qprocess_medians():
    # each median is the smallest z with P(Y_t <= z) >= 1/2, as in every
    # Q-process branch; the ECDF of Y_7 at 3 is exactly 1/2, where the
    # average of the two middle values, np.median, gave 3.5
    run = qprocess_run(ss_ref(), 1, 10, 1500, seed=2)
    assert run.medians == (1.0, 3.0, 3.0, 3.0, 4.0, 4.0, 4.0, 3.0, 4.0, 4.0, 4.0)


def test_ws_qprocess_medians():
    # medians of the closed-form conditioned laws, integrated over the drawn
    # environments; the sampled trajectories gave (2, 6, 16, 30, 37, 35, 63)
    run = qprocess_run(ws_ref(), 2, 6, 2048, seed=3)
    assert run.reps == 2048
    assert run.medians == (2.0, 6.0, 15.0, 27.0, 38.0, 37.0, 62.0)


def test_lineage_count_atom():
    # the weighted mean of exact ratios over the same draws is
    # 0x1.ec7f126239674p-3; the lines are formed in logs, one ulp above it
    value, se = conditional_lineage_counts(ws_ref(), 3, 12, 4096, seed=3).pmf[2]
    assert (value.hex(), se.hex()) == ("0x1.ec7f126239675p-3", "0x1.c988c916e061cp-9")


def test_env_survival_point():
    curve = conditional_env_survival(ws_ref(), 2, 12, 4096, [0.01, 0.1], seed=3)
    value, se = curve.points[0.1]
    assert (value.hex(), se.hex()) == ("0x1.831e3a0b21cfbp-1", "0x1.011b6769ba32cp-7")


def test_untilted_env_posterior_atom():
    value, se = env_posterior(ss_ref(), 2, 2, 6, 4096, seed=3).per_position[1][1]
    assert (value.hex(), se.hex()) == ("0x1.433ac8de86b20p-2", "0x1.35c5ba21c3f4ep-7")


def test_generic_kernel_log_survival():
    # models that are not all-LF step log u one generation at a time
    pins = {
        FS_WS: [
            "-0x1.1a364aa9d6ce8p+1",
            "-0x1.f8b92fc3449f6p+2",
            "-0x1.bd0250403f31cp-1",
            "-0x1.cc14f2b8c63ccp-1",
        ],
        MIXED: [
            "-0x1.935d237d03bf9p+3",
            "-0x1.093591495de84p+3",
            "-0x1.dec50f8b91306p+3",
            "-0x1.d40086bdcf9efp+3",
        ],
        ZERO_MEAN_FS: ["-inf", "-inf", "-0x1.056a18f0a8662p-1", "-inf"],
    }
    for model, want in pins.items():
        assert [x.hex() for x in log_survival(model, ROWS)] == want


def test_quenched_survival_of_distinct_laws():
    laws = [FiniteSupport([0.5 - i / 200, 0.5, i / 200]) for i in range(60)]
    assert quenched_survival(EnvSequence(laws)).log_p.hex() == "-0x1.18166968f7110p+4"


def test_finite_support_lineage_count_atom():
    value, se = conditional_lineage_counts(FS_WS, 3, 16, 1000, seed=3).pmf[2]
    assert (value.hex(), se.hex()) == ("0x1.fbd04c2f298b8p-4", "0x1.29e938a378fa5p-9")


def test_finite_support_yaglom_atom():
    # the SE is sqrt(600/599) times the 0x1.d5782de6656c1p-7 it was without
    # the n/(n-1) of ratio_and_se
    value, se = yaglom(FS_WS, 1, 12, 600, seed=3).pmf[1]
    assert (value.hex(), se.hex()) == ("0x1.e0d1e8c6ee8d2p-4", "0x1.d5dc754906d5ep-7")


def test_tilted_env_posterior_atom():
    post = env_posterior(ws_ref(), 1, 2, 8, 4096, seed=3)
    assert (post.method, post.reps_used) == ("tilted-IS", 4096)
    value, se = post.per_position[1][1]
    assert (value.hex(), se.hex()) == ("0x1.c4e7b262d7cfcp-1", "0x1.5b2b07d9c5497p-8")


def test_finite_support_ws_qprocess_medians():
    # the sampled conditioned trajectories, which a model that is not all-LF runs on
    run = qprocess_run(FS_WS, 2, 5, 2048, seed=3)
    assert run.method == "finite-horizon-approximation(lookahead=10)"
    assert (run.reps, run.overflow_mass) == (2048, 0.0)
    assert run.medians == (2.0, 3.0, 3.0, 4.0, 5.0, 5.0)


def test_mixed_yaglom_atom():
    # the sampled skeleton of a mixed LF + finite-support model; the SE
    # convention of sampled atoms is pinned by test_finite_support_yaglom_atom
    est = yaglom(MIXED, 2, 10, 2048, seed=3)
    assert (est.method, est.reps_used) == ("env-exact", 2048)
    assert [est.pmf[z][0].hex() for z in (1, 2)] == ["0x1.2d94870f52f1ap-2", "0x1.c37658f016886p-3"]
    assert est.pgf_values[10].hex() == "0x1.e0cad4121750bp-3"
