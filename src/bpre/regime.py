"""Subcriticality regimes and the decay-rate constants attached to them.

For a subcritical model (mean log offspring mean < 0) the survival decay
rate is the minimum of the convex map theta -> E[m**theta] over [0, 1]; the
regime (SS / IS / WS) is read off the sign of E[m * log m]. The k-particle
joint-survival rate comes from the same map minimized over [0, k].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .environment import EnvironmentModel, env_expectation
from .errors import NotSubcriticalError, ValidationError
from .offspring import moments

IS_TIE_TOL = 1e-10  # |E[m log m]| below this declares the intermediate regime
THETA_TOL = 1e-12


def _safe_log(m: float) -> float:
    return math.log(m) if m > 0.0 else -math.inf


def _phi(model: EnvironmentModel, theta: float) -> float:
    """E[m**theta], exact over the finite mixture."""
    return env_expectation(model, lambda law: moments(law)[0] ** theta)


def _dphi(model: EnvironmentModel, theta: float, top: float = 1.0) -> float:
    """E[m**theta * log m] / top**theta; its sign is increasing in theta by
    convexity. A ``top`` of at least every m keeps each term below 1."""

    def term(law):
        m = moments(law)[0]
        if m == 0.0:
            return -math.inf if theta == 0.0 else 0.0
        return (m / top) ** theta * math.log(m)

    return env_expectation(model, term)


def _bisect_dphi_root(model: EnvironmentModel, lo: float, hi: float, top: float = 1.0) -> float:
    # the sign of dphi is monotone increasing; the caller guarantees a change
    flo = _dphi(model, lo, top)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= THETA_TOL:
            break
        fmid = _dphi(model, mid, top)
        if (fmid < 0.0) == (flo < 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class RegimeReport:
    subcritical: bool
    regime: str  # "SS" | "IS" | "WS"
    alpha: float
    gamma: float
    k: int
    alpha_tilde_k: float
    gamma_tilde_k: float
    joint_case: str  # "i" | "ii" | "iii": sign of E[m**k log m]
    e_log_m: float
    e_m_log_m: float
    e_m: float


@lru_cache(maxsize=8)
def solve_alpha(model: EnvironmentModel) -> tuple[float, float]:
    """Minimize theta -> E[m**theta] over [0, 1]; returns (argmin, min).

    The minimizer is interior iff E[m * log m] > 0, in which case it is the
    unique root of the increasing map theta -> E[m**theta * log m]; otherwise
    the minimum sits at theta = 1. Bisection keeps a guaranteed bracket.
    Cached per model; a model that is not subcritical raises on every call.
    """
    _require_subcritical(model)
    if _dphi(model, 1.0) <= 0.0:
        return 1.0, _phi(model, 1.0)
    alpha = _bisect_dphi_root(model, 0.0, 1.0)
    return alpha, _phi(model, alpha)


def solve_gamma_tilde(model: EnvironmentModel, k: int) -> tuple[float, float, str]:
    """Joint-survival rate for k particles: minimize E[m**theta] over [0, k].

    Returns (theta*, rate, case) where case records the sign of
    E[m**k * log m]: "i" negative, "ii" zero within tolerance, "iii"
    positive (interior minimizer), read over the largest m**k when that is
    above 1, so that no term overflows at large k.
    """
    _require_subcritical(model)
    top = max(1.0, float(model.means.max()))
    d_at_k = _dphi(model, float(k), top)
    if d_at_k > IS_TIE_TOL:
        theta = _bisect_dphi_root(model, 0.0, float(k), top)
        return theta, _phi(model, theta), "iii"
    case = "ii" if abs(d_at_k) <= IS_TIE_TOL else "i"
    return float(k), _phi(model, float(k)), case


def regime_of(model: EnvironmentModel) -> str:
    """The regime tag of ``classify``, without solving for the rate constants."""
    _require_subcritical(model)
    return _regime(_dphi(model, 1.0))


def expected_mean(model: EnvironmentModel) -> float:
    """E[m]: the ``e_m`` of ``classify``, and the decay rate of the SS and IS
    regimes, without solving for the other rate constants."""
    return _phi(model, 1.0)


def _regime(e_m_log_m: float) -> str:
    if abs(e_m_log_m) <= IS_TIE_TOL:
        return "IS"
    return "SS" if e_m_log_m < 0.0 else "WS"


def classify(model: EnvironmentModel, k: int = 1) -> RegimeReport:
    """Regime tag plus all rate constants for a subcritical model with E[m] > 0."""
    check_k(k)
    e_log_m = _require_subcritical(model)
    if expected_mean(model) == 0.0:
        raise ValidationError("no regime: every component has mean 0", field="model")
    e_m_log_m = _dphi(model, 1.0)
    regime = _regime(e_m_log_m)
    alpha, gamma = solve_alpha(model)
    alpha_tilde, gamma_tilde, case = solve_gamma_tilde(model, k)
    return RegimeReport(
        subcritical=True,
        regime=regime,
        alpha=alpha,
        gamma=gamma,
        k=k,
        alpha_tilde_k=alpha_tilde,
        gamma_tilde_k=gamma_tilde,
        joint_case=case,
        e_log_m=e_log_m,
        e_m_log_m=e_m_log_m,
        e_m=expected_mean(model),
    )


def check_k(k: int) -> None:
    """Reject an initial particle count below 1."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}", field="k")


def _require_subcritical(model: EnvironmentModel) -> float:
    """E[log m]; raises ``NotSubcriticalError`` unless it is < 0."""
    e_log_m = env_expectation(model, lambda law: _safe_log(moments(law)[0]))
    if e_log_m >= 0.0:
        raise NotSubcriticalError(e_log_m)
    return e_log_m
