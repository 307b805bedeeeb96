"""Exact bits of a few seeded estimates.

Each pin is ``float.hex`` of an output at a fixed (config, seed). A change
that keeps the stream layout and the arithmetic leaves every pin as it is;
a change that alters either (how many variates a draw takes, the order of a
sum) must update the pins and say so in CHANGES.md.
"""

from bpre.environment import EnvironmentModel, ws_ref
from bpre.limits import qprocess_run, yaglom
from bpre.offspring import FiniteSupport
from bpre.simcore import annealed_survival, joint_survival

FS_SS = EnvironmentModel(
    [(FiniteSupport((0.5, 0.3, 0.2)), 0.5), (FiniteSupport((0.7, 0.2, 0.1)), 0.5)]
)


def pin(estimate):
    return estimate.value.hex(), estimate.std_error.hex()


def test_tilted_annealed_survival():
    est = annealed_survival(ws_ref(), 1, 100, 8192, "tilted-IS", seed=3)
    assert pin(est) == ("0x1.ed4fefde01ee7p-17", "0x1.6a90d9baedce3p-21")


def test_tilted_joint_survival():
    est = joint_survival(ws_ref(), 4, 16, 8192, "tilted-IS", seed=3)
    assert pin(est) == ("0x1.34949e54dba45p-10", "0x1.4010535b80db3p-15")


def test_yaglom_atom():
    value, se = yaglom(ws_ref(), 1, 16, 4096, seed=3).pmf[1]
    assert (value.hex(), se.hex()) == ("0x1.47018991bf3abp-4", "0x1.04160ac2702eap-7")


def test_finite_support_qprocess():
    run = qprocess_run(FS_SS, 1, 5, 1500, seed=3)
    assert run.regime == "SS"
    assert [m.hex() for m in run.medians] == [x.hex() for x in (1.0, 2.0, 2.0, 2.0, 2.0, 2.0)]
    value, se = run.final_pmf[2]
    assert (value.hex(), se.hex()) == ("0x1.8bf258bf258bfp-2", "0x1.9c05c40bdffecp-7")
