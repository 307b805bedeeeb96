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
    # re-pinned at stream layout 8 (blocks of 12 generations); layout 7 gave
    # 0x1.dd85791e7a3b4p-17 +- 0x1.65c10c7abeff6p-21, 0.86 of its SE below
    est = annealed_survival(ws_ref(), 1, 100, 8192, "tilted-IS", seed=3)
    assert pin(est) == ("0x1.f0c43bfdc954ep-17", "0x1.7d63a922fa656p-21")


def test_tilted_joint_survival():
    # re-pinned at stream layout 8; layout 7 gave 0x1.4465cd021214cp-10
    est = joint_survival(ws_ref(), 4, 16, 8192, "tilted-IS", seed=3)
    assert pin(est) == ("0x1.473c9c762f56ap-10", "0x1.4aed09fcbeaedp-15")


def test_yaglom_atom():
    # closed-form law per environment; P(Z_16 = 1 | alive) is 0.0732094464
    # by enumerating all 2**16 environments. Re-pinned when the law became
    # weighted block sums: the sums of w**2 x and w**2 x**2 are formed from
    # w x, so the SE moved by 2 ulps; the value kept its bits. Re-pinned at
    # stream layout 8: 0.07525 +- 0.00356, 0.57 SE above (layout 7: 0.07154)
    value, se = yaglom(ws_ref(), 1, 16, 4096, seed=3).pmf[1]
    assert (value.hex(), se.hex()) == ("0x1.343d1d5a6bdb2p-4", "0x1.d332ae2fb6386p-9")
    assert abs(value - 0.0732094464) < se


def test_finite_support_qprocess():
    run = qprocess_run(FS_SS, 1, 5, 1500, seed=3)
    assert run.regime == "SS"
    assert [m.hex() for m in run.medians] == [x.hex() for x in (1.0, 2.0, 2.0, 2.0, 2.0, 2.0)]
    # re-pinned at stream layout 6: the chain's states stay below 2**5, so
    # its law is computed exactly and nothing is drawn. P(Y_5 = 2) is the
    # 0.414798 of the exact law (oracles.qprocess_ss_laws agrees to 6e-17);
    # layout 5 sampled 0.42 +- 0.0127
    assert (run.method, run.seed_info, run.reps) == ("exact-kernel-law", None, 1500)
    value, se = run.final_pmf[2]
    assert (value.hex(), se) == ("0x1.a8c0e38e3c555p-2", 0.0)


def test_ss_qprocess_medians():
    # each median is the smallest z with P(Y_t <= z) >= 1/2, as in every
    # Q-process branch. The exact law of the chain gives (1, 2, 3, 3, 4, 4,
    # 4, 4, 4, 4, 4), with P(Y_1 <= 2) exactly 1/2, so a sample's median of
    # Y_1 is 2 or 3 about equally often, and a new draw may move it. Checked
    # again at stream layout 7 (the populations sampled at u = 0 by the
    # population sampler): the medians of layout 5 held. Re-pinned at
    # layout 8, where Y_3 moved from 3 to 4: P(Y_3 <= 3) is 0.5033 in the
    # exact law, a second knife edge, and 9 of seeds 0..29 read 4 there
    run = qprocess_run(ss_ref(), 1, 10, 1500, seed=2)
    assert run.medians == (1.0, 3.0, 3.0, 4.0, 4.0, 4.0, 4.0, 4.0, 4.0, 4.0, 4.0)


def test_ws_qprocess_medians():
    # medians of the closed-form conditioned laws, integrated over the drawn
    # environments; the sampled trajectories gave (2, 6, 16, 30, 37, 35, 63).
    # Re-pinned at stream layout 8; layout 7 gave (2, 6, 15, 27, 38, 37, 62),
    # and over seeds 0..7 the last median reads 61 to 72 at either layout
    run = qprocess_run(ws_ref(), 2, 6, 2048, seed=3)
    assert run.reps == 2048
    assert run.medians == (2.0, 6.0, 15.0, 27.0, 36.0, 43.0, 72.0)


def test_lineage_count_atom():
    # the lines are formed in logs; at stream layout 7 the atom sat one ulp
    # above the weighted mean of exact ratios over the same draws, and at
    # layout 8 it has its bits
    value, se = conditional_lineage_counts(ws_ref(), 3, 12, 4096, seed=3).pmf[2]
    assert (value.hex(), se.hex()) == ("0x1.f0a5f7f156baep-3", "0x1.c27aed83f6524p-9")


def test_env_survival_point():
    # re-pinned at stream layout 8; layout 7 gave 0x1.831e3a0b21cfbp-1
    curve = conditional_env_survival(ws_ref(), 2, 12, 4096, [0.01, 0.1], seed=3)
    value, se = curve.points[0.1]
    assert (value.hex(), se.hex()) == ("0x1.833e6129c728dp-1", "0x1.013880a2b9010p-7")


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
    # re-pinned at stream layout 8: 0.12528 (layout 7: 0.12398)
    value, se = conditional_lineage_counts(FS_WS, 3, 16, 1000, seed=3).pmf[2]
    assert (value.hex(), se.hex()) == ("0x1.0093eb733cd78p-3", "0x1.2c26ad40839e4p-9")


def test_finite_support_yaglom_atom():
    # re-pinned at stream layout 6, which steps every finite-support row of
    # a generation at once by stick-breaking binomials: 0.07527 +- 0.01157,
    # 2.78 SE below the exact 0.10747 of environment enumeration. Over seeds
    # 0..299 the z-scores of this atom have mean -0.11 and sd 1.11, and 4 of
    # them lie beyond 2.8 (layout 4 gave 0.10216 +- 0.01328, -0.40 SE).
    # Re-pinned at stream layout 8: 0.09106 +- 0.01218, -1.35 SE
    value, se = yaglom(FS_WS, 1, 12, 600, seed=3).pmf[1]
    assert (value.hex(), se.hex()) == ("0x1.74f863b38268ap-4", "0x1.8f09e760c5549p-7")


def test_tilted_env_posterior_atom():
    post = env_posterior(ws_ref(), 1, 2, 8, 4096, seed=3)
    assert (post.method, post.reps_used) == ("tilted-IS", 4096)
    # re-pinned at stream layout 8: 0.88762 (layout 7: 0.88458)
    value, se = post.per_position[1][1]
    assert (value.hex(), se.hex()) == ("0x1.c675bb33d569dp-1", "0x1.541787937fbd8p-8")


def test_finite_support_ws_qprocess_medians():
    # the sampled conditioned trajectories, which a model that is not all-LF
    # runs on; re-pinned at stream layout 6 (the gathered finite-support
    # step). They equal the enumerated medians (2, 3, 3, 4, 5, 5); layout 4
    # gave 6 at t = 5, where the exact P(Z_5 <= 5 | Z_15 > 0) is 0.5144
    run = qprocess_run(FS_WS, 2, 5, 2048, seed=3)
    assert run.method == "finite-horizon-approximation(lookahead=10)"
    assert (run.reps, run.overflow_mass) == (2048, 0.0)
    assert run.medians == (2.0, 3.0, 3.0, 4.0, 5.0, 5.0)


def test_mixed_yaglom_atom():
    # the sampled skeleton of a mixed LF + finite-support model; the SE
    # convention of sampled atoms is pinned by test_finite_support_yaglom_atom.
    # Re-pinned at stream layout 6 (the gathered finite-support step): atoms
    # 1 and 2 are 0.30186 +- 0.01156 and 0.23279 +- 0.01101, 0.16 SE below
    # and 1.85 SE above the enumerated 0.30370 and 0.21239; the pgf at 1/2
    # is 0.23968 against 0.23704 (layout 4: 0.30076, 0.21749 and 0.23708).
    # Re-pinned at stream layout 8: 0.29655 +- 0.01152 (-0.62 SE), 0.22413
    # +- 0.01063 (+1.10 SE) and 0.23697
    est = yaglom(MIXED, 2, 10, 2048, seed=3)
    assert (est.method, est.reps_used) == ("env-exact", 2048)
    assert [est.pmf[z][0].hex() for z in (1, 2)] == ["0x1.2faaed827ab9ap-2", "0x1.cb0633e54111fp-3"]
    assert est.pgf_values[10].hex() == "0x1.e54fb6f0c39edp-3"
