"""Exact quenched computations for a fixed environment sequence.

Survival after n generations is 1 - F_n(0) with F_n the composition of the
per-generation pgfs. The composition is iterated in survival coordinates
(and in log space), which keeps full relative precision for horizons far
beyond the point where 1 - F_n(0) underflows intermediate float math. For
all-linear-fractional sequences the same probability also has a closed form
driven by the partial products of the offspring means; both are computed and
cross-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .environment import EnvSequence, EnvironmentModel
from .errors import CrossCheckError, ValidationError
from .offspring import (
    _LOG_TINY,
    LinearFractional,
    OffspringLaw,
    lf_from_moments,
    log_survival_step,
    moments,
    pgf,
)

LOG_AGREE_TOL = 1e-8
P_AGREE_TOL = 1e-10


def iterate_F(env: EnvSequence, s: float) -> float:
    """Evaluate the n-fold pgf composition at s (first law outermost)."""
    if not 0.0 <= s <= 1.0:
        raise ValidationError(f"argument must lie in [0, 1], got {s}", field="s")
    x = s
    for law in reversed(tuple(env)):
        x = pgf(law, x)
    return x


def log_survival_env(env: EnvSequence) -> float:
    """log(1 - F_n(0)), iterated stably in survival coordinates."""
    lu = 0.0
    for law in reversed(tuple(env)):
        lu = log_survival_step(law, lu)
    return lu


def closed_form_log_survival(env: EnvSequence) -> float:
    """log(1 - F_n(0)) for an all-linear-fractional sequence.

    Uses the closed form 1 - F_n(0) = P_n / (1 + sum_j c_j * Q_j) with
    P_n the product of all means, c_j = f_j''(1) / (2 f_j'(1)) and Q_j the
    product of the means after generation j. Everything is kept in log
    space; the denominator goes through log-sum-exp.
    """
    laws = tuple(env)
    logs = {}  # per distinct law: (log m, log c)
    for law in set(laws):
        if not isinstance(law, LinearFractional):
            raise ValidationError("closed form requires all-linear-fractional laws")
        m, f2 = moments(law)
        ratio = f2 / (2.0 * m) if m > 0 else 0.0  # = B/(1-B)
        logs[law] = (
            math.log(m) if m > 0 else -math.inf,
            math.log(ratio) if ratio > 0 else -math.inf,
        )
    if not laws:
        return 0.0
    log_m, log_c = np.array([logs[law] for law in laws]).T.copy()
    # suffix[j] = sum of log means strictly after generation j
    suffix = np.concatenate([np.cumsum(log_m[::-1])[::-1][1:], [0.0]])
    terms = np.concatenate([[0.0], log_c + suffix])
    terms = terms[terms > -math.inf]
    log_den = terms.max() + math.log(np.exp(terms - terms.max()).sum())
    total = float(np.sum(log_m))
    return total - float(log_den)


@dataclass(frozen=True)
class QuenchedSurvival:
    """Survival probabilities for a fixed environment sequence."""

    n: int
    k: int
    p: float  # single-lineage survival 1 - F_n(0)
    log_p: float
    log_p_closed_form: float | None
    p_all_survive: float  # all k lineages alive: p**k
    p_any_survive: float  # at least one alive: 1 - (1-p)**k


def quenched_survival(env: EnvSequence, k: int = 1) -> QuenchedSurvival:
    """Exact survival record; cross-checks the closed form when it applies."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}", field="k")
    laws = tuple(env)
    log_p = log_survival_env(env)
    p = math.exp(log_p)
    log_cf: float | None = None
    if laws and all(isinstance(law, LinearFractional) for law in laws):
        log_cf = closed_form_log_survival(env)
        _check_agreement(log_p, log_cf)
    p_any = -math.expm1(k * math.log1p(-p)) if p < 1.0 else 1.0
    return QuenchedSurvival(
        n=len(laws),
        k=k,
        p=p,
        log_p=log_p,
        log_p_closed_form=log_cf,
        p_all_survive=math.exp(k * log_p),
        p_any_survive=p_any,
    )


def _check_agreement(log_p: float, log_cf: float) -> None:
    if log_p == -math.inf and log_cf == -math.inf:
        return
    dp = abs(math.exp(log_p) - math.exp(log_cf))
    dlog = abs(log_p - log_cf)
    if dp > P_AGREE_TOL or dlog > LOG_AGREE_TOL * max(1.0, abs(log_p)):
        raise CrossCheckError(
            f"survival iteration and closed form disagree: "
            f"log {log_p} vs {log_cf} (|dp| = {dp:.3g})"
        )


DOMINANCE_GRID = np.linspace(0.0, 1.0, 101)


def lf_minorant(law: OffspringLaw) -> LinearFractional:
    """Linear-fractional law that dominates the given pgf pointwise.

    The returned law matches f'(1) and has doubled f''(1); its pgf sits above
    the original on [0, 1], so substituting it can only lower survival.
    Dominance is re-verified on a grid as a post-check.
    """
    m, f2 = moments(law)
    if m <= 0.0:
        raise ValidationError(f"law must have positive mean, got {m}", field="law")
    try:
        tilde = lf_from_moments(m, 2.0 * f2)
    except ValidationError:
        raise ValidationError(
            f"no dominating linear-fractional law for mean {m}, f''(1) = {f2}: "
            f"needs f''(1) >= m*(m-1) = {m * (m - 1):.6g}"
        ) from None
    for s in DOMINANCE_GRID:
        if pgf(tilde, float(s)) < pgf(law, float(s)) - 1e-12:
            raise CrossCheckError(
                f"dominance violated at s = {s}: {pgf(tilde, float(s))} < {pgf(law, float(s))}"
            )
    return tilde


def minorant_env(env: EnvSequence) -> EnvSequence:
    """Replace every law in the sequence by its dominating linear-fractional law."""
    return EnvSequence([lf_minorant(law) for law in env])


# --- batch kernel -----------------------------------------------------------
#
# Monte Carlo over environments needs, per replicate, the survival profile
# of its environment. One kernel computes it for a whole chunk of
# replicates, in log space so that tiny survival probabilities keep their
# relative precision.


def log_survival_profile(model: EnvironmentModel, idx: np.ndarray) -> np.ndarray:
    """Log survival profiles for environments given as component indices.

    ``idx`` has shape (replicates, n), generations left to right. Entry
    [r, i] of the (replicates, n+1) result is the log probability that one
    individual at generation i has a descendant at generation n: column n
    is 0 and column 0 is the log survival probability. Linear-fractional
    models step every row at once; other models step, per generation, the
    rows that share a component.
    """
    if model.all_linear_fractional:
        return _lf_chunk(model, idx)
    count, n = idx.shape
    lu = np.zeros((n + 1, count))
    for i in range(n - 1, -1, -1):
        col = idx[:, i]
        for comp, (law, log_m) in enumerate(zip(model.laws, model.log_means)):
            rows = col == comp
            lu[i, rows] = _log_step_batch(law, log_m, lu[i + 1, rows])
    return lu.T


def _lf_step(lu, log_m, c):
    """Linear-fractional step in log space; c = B / (1 - B)."""
    return lu + log_m - np.log1p(c * np.exp(lu))


def _lf_chunk(model: EnvironmentModel, idx: np.ndarray) -> np.ndarray:
    log_m = model.log_means
    c = np.array([law.B / (1.0 - law.B) for law in model.laws])
    count, n = idx.shape
    lu = np.zeros((n + 1, count))
    for i in range(n - 1, -1, -1):
        col = idx[:, i]
        lu[i] = _lf_step(lu[i + 1], log_m[col], c[col])
    return lu.T


def _log_step_batch(law: OffspringLaw, log_m: float, lu: np.ndarray) -> np.ndarray:
    """``log_survival_step`` of one law applied to an array of log u."""
    if isinstance(law, LinearFractional):
        return _lf_step(lu, log_m, law.B / (1.0 - law.B))
    if log_m == -np.inf:
        return np.full_like(lu, -np.inf)
    p = np.asarray(law.probs[1:])
    top = p.max()
    with np.errstate(divide="ignore"):
        log_dead = np.log1p(-np.exp(lu))  # log(1 - u)
        terms = np.expm1(np.multiply.outer(log_dead, np.arange(1, len(p) + 1)))
        scaled = -(terms * (p / top)).sum(axis=1)  # (1 - f(1 - u)) / top
        return np.where(lu > _LOG_TINY, math.log(top) + np.log(scaled), lu + log_m)
