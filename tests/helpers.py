"""Reference computations the tests check the package against: a decimal
survival recursion independent of the float kernel, and a chi-square
goodness-of-fit p-value; and the equal-weight geometric models several test
modules share."""

import math
from decimal import Decimal, localcontext

import numpy as np

from bpre.environment import EnvironmentModel
from bpre.offspring import LinearFractional, geometric_lf

DECIMAL_DIGITS = 50
_LN10 = math.log(10.0)


def lf_model(means):
    """Equal-weight mixture of the geometric laws with the given means."""
    k = len(means)
    return EnvironmentModel([(geometric_lf(m), 1.0 / k) for m in means])


MODELS = {
    1: lf_model([0.7]),
    2: lf_model([0.5, 1.5]),
    3: lf_model([0.3, 0.9, 2.0]),
    5: lf_model([0.2, 0.5, 0.8, 1.3, 2.5]),
    300: lf_model(np.linspace(0.2, 2.5, 300)),  # past 256 entries: uint16 indices
}


def decimal_step(law):
    """u -> 1 - f(1 - u) of ``law``, to the precision of the context it is
    made in, as u times a sum of positive terms, so that tiny u loses no
    relative precision: u A / ((1-B)(1-B+Bu)) for a linear-fractional law,
    u sum_j p_j sum_{i<j} (1-u)**i for a finite-support one."""
    if isinstance(law, LinearFractional):
        b = Decimal(law.B)
        scale = Decimal(law.A) / (1 - b)
        return lambda u: u * scale / (1 - b + b * u)
    probs = [Decimal(p) for p in law.probs[1:]]

    def step(u: Decimal) -> Decimal:
        s = 1 - u
        total = partial = Decimal(0)
        power = Decimal(1)
        for p in probs:
            partial += power
            power *= s
            total += p * partial
        return u * total

    return step


def decimal_log(u: Decimal) -> float:
    """log u as a float, from the decimal exponent and mantissa."""
    if u == 0:
        return -math.inf
    e = u.adjusted()
    return math.log(float(u.scaleb(-e))) + e * _LN10


def reference_log_profile(laws, s: float = 0.0) -> list[float]:
    """log(1 - F(s)) over the generations i..n of ``laws``, for i = 0..n,
    with F the composition of their pgfs, stepped in decimal arithmetic of
    DECIMAL_DIGITS digits: the counterpart of one row of
    ``lfexact.log_survival_profile``, independent of its float kernel."""
    out = [0.0] * (len(laws) + 1)
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        steps = {law: decimal_step(law) for law in set(laws)}
        u = 1 - Decimal(s)
        out[-1] = decimal_log(u)
        for i in range(len(laws) - 1, -1, -1):
            u = steps[laws[i]](u)
            out[i] = decimal_log(u)
    return out


def chi_square_pvalue(observed, expected) -> float:
    """Pearson chi-square p-value after pooling cells with expected < 5."""
    from scipy.stats import chi2

    obs_pool: list[float] = []
    exp_pool: list[float] = []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += float(o)
        acc_e += float(e)
        if acc_e >= 5.0:
            obs_pool.append(acc_o)
            exp_pool.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0.0:
        if exp_pool:
            obs_pool[-1] += acc_o
            exp_pool[-1] += acc_e
        else:
            obs_pool, exp_pool = [acc_o], [acc_e]
    if len(exp_pool) < 2:
        return 1.0
    stat = math.fsum((o - e) ** 2 / e for o, e in zip(obs_pool, exp_pool))
    dof = len(exp_pool) - 1
    return float(chi2.sf(stat, dof))
