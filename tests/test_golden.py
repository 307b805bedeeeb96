"""Exact bits of a few seeded estimates.

Each pin is ``float.hex`` of an output at a fixed (config, seed). A change
that keeps the stream layout and the arithmetic leaves every pin as it is;
a change that alters either (how many variates a draw takes, the order of a
sum) must update the pins and say so in CHANGES.md.
"""

from bpre.environment import EnvironmentModel, ss_ref, ws_ref
from bpre.limits import env_posterior, qprocess_run, yaglom
from bpre.offspring import FiniteSupport
from bpre.simcore import (
    annealed_survival,
    conditional_env_survival,
    conditional_lineage_counts,
    joint_survival,
)

FS_SS = EnvironmentModel(
    [(FiniteSupport((0.5, 0.3, 0.2)), 0.5), (FiniteSupport((0.7, 0.2, 0.1)), 0.5)]
)


def pin(estimate):
    return estimate.value.hex(), estimate.std_error.hex()


def test_tilted_annealed_survival():
    est = annealed_survival(ws_ref(), 1, 100, 8192, "tilted-IS", seed=3)
    assert pin(est) == ("0x1.eb2cae9a1d674p-17", "0x1.776024d624807p-21")


def test_tilted_joint_survival():
    est = joint_survival(ws_ref(), 4, 16, 8192, "tilted-IS", seed=3)
    assert pin(est) == ("0x1.370810fb7e722p-10", "0x1.40094c3c16b69p-15")


def test_yaglom_atom():
    value, se = yaglom(ws_ref(), 1, 16, 4096, seed=3).pmf[1]
    assert (value.hex(), se.hex()) == ("0x1.0e0b4fc57e5efp-4", "0x1.ddb04e185778ep-8")


def test_finite_support_qprocess():
    run = qprocess_run(FS_SS, 1, 5, 1500, seed=3)
    assert run.regime == "SS"
    assert [m.hex() for m in run.medians] == [x.hex() for x in (1.0, 2.0, 2.0, 2.0, 2.0, 2.0)]
    value, se = run.final_pmf[2]
    assert (value.hex(), se.hex()) == ("0x1.8bf258bf258bfp-2", "0x1.9c05c40bdffecp-7")


def test_ws_qprocess_medians():
    run = qprocess_run(ws_ref(), 2, 6, 2048, seed=3)
    assert run.reps == 2048
    assert run.medians == (2.0, 6.0, 14.0, 25.0, 29.0, 43.0, 62.0)


def test_lineage_count_atom():
    value, se = conditional_lineage_counts(ws_ref(), 3, 12, 4096, seed=3).pmf[2]
    assert (value.hex(), se.hex()) == ("0x1.ea93c121cfb4ep-3", "0x1.cb7621f2bb130p-9")


def test_env_survival_point():
    curve = conditional_env_survival(ws_ref(), 2, 12, 4096, [0.01, 0.1], seed=3)
    value, se = curve.points[0.1]
    assert (value.hex(), se.hex()) == ("0x1.82e0ba15b51d1p-1", "0x1.01898abe9b9cep-7")


def test_untilted_env_posterior_atom():
    value, se = env_posterior(ss_ref(), 2, 2, 6, 4096, seed=3).per_position[1][1]
    assert (value.hex(), se.hex()) == ("0x1.4efafcc87329bp-2", "0x1.3b06d5816f639p-7")
