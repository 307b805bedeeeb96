"""Finite-support iid random-environment models.

An environment model is a finite mixture over offspring laws. Keeping the
mixture finite makes every expectation over the environment an exact finite
sum, so tilting weights, regime constants and importance-sampling ratios are
exact arithmetic rather than nested estimation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import ValidationError
from .offspring import (
    PROB_TOL,
    LinearFractional,
    OffspringLaw,
    geometric_lf,
    lf_from_moments,
    moments,
)
from .streams import categorical


@dataclass(frozen=True)
class EnvironmentModel:
    """Finite mixture of offspring laws; one draw per generation."""

    components: tuple[tuple[OffspringLaw, float], ...]

    def __init__(self, components: Sequence[tuple[OffspringLaw, float]]):
        components = tuple((law, float(w)) for law, w in components)
        if not components:
            raise ValidationError("model needs at least one component", field="components")
        if any(w <= 0.0 for _, w in components):
            raise ValidationError("component weights must be positive", field="components")
        total = math.fsum(w for _, w in components)
        if abs(total - 1.0) > PROB_TOL:
            raise ValidationError(
                f"weights sum to {total!r}, not 1 within {PROB_TOL}", field="components"
            )
        object.__setattr__(
            self, "components", tuple((law, w / total) for law, w in components)
        )

    @property
    def laws(self) -> tuple[OffspringLaw, ...]:
        return tuple(law for law, _ in self.components)

    @cached_property
    def weights(self) -> np.ndarray:
        return np.array([w for _, w in self.components])

    @cached_property
    def means(self) -> np.ndarray:
        return np.array([moments(law)[0] for law, _ in self.components])

    @cached_property
    def log_means(self) -> np.ndarray:
        """Steps of the log-mean walk; the one definition every estimator uses."""
        with np.errstate(divide="ignore"):
            return np.log(self.means)

    @cached_property
    def all_linear_fractional(self) -> bool:
        return all(isinstance(law, LinearFractional) for law, _ in self.components)


@dataclass(frozen=True)
class EnvSequence:
    """An ordered environment realization: one offspring law per generation."""

    laws: tuple[OffspringLaw, ...]

    def __init__(self, laws: Sequence[OffspringLaw]):
        object.__setattr__(self, "laws", tuple(laws))

    def __len__(self) -> int:
        return len(self.laws)

    def __iter__(self):
        return iter(self.laws)

    def __getitem__(self, i):
        return self.laws[i]


def draw_env(
    model: EnvironmentModel, n: int, stream: np.random.Generator
) -> EnvSequence:
    """Draw n iid generations from the component mixture."""
    if n < 0:
        raise ValidationError(f"generation count must be >= 0, got {n}", field="n")
    laws = model.laws
    return EnvSequence([laws[i] for i in draw_env_batch(model, n, stream, 1).idx[0]])


@dataclass(frozen=True)
class TiltPlan:
    """Draw plan of the environment law tilted by m**theta.

    Replicates drawn under ``weights`` carry the importance weight
    rate**n * exp(-theta * S_n), which reweights them back to the base model.
    """

    theta: float
    rate: float  # the normalizer E[m**theta]
    weights: np.ndarray  # component probabilities of the tilted mixture


def tilt_plan(model: EnvironmentModel, theta: float) -> TiltPlan:
    tilted, z = tilt(model, theta)
    return TiltPlan(theta=theta, rate=z, weights=tilted.weights)


@dataclass(frozen=True)
class EnvBatch:
    """A chunk of Monte Carlo environments, one row per replicate."""

    model: EnvironmentModel
    idx: np.ndarray  # (count, n) component indices (uint8 up to K = 256), generation order left to right
    w: np.ndarray  # (count,) importance weights back to the base model

    @property
    def steps(self) -> np.ndarray:
        """(count, n) log-mean walk steps."""
        # numpy gathers through intp indices on its fast path; through narrow
        # indices it casts element by element, which costs more than widening
        return self.model.log_means[self.idx.astype(np.intp)]


def draw_env_batch(
    model: EnvironmentModel,
    n: int,
    rng: np.random.Generator,
    count: int,
    plan: TiltPlan | None = None,
) -> EnvBatch:
    """Draw ``count`` iid environments of n generations, tilted when ``plan``
    is given; every Monte Carlo estimator draws its environments here.

    Component indices come from ``streams.categorical``: one uniform per
    generation, compared against the cumulative mixture weights, giving the
    indices ``rng.choice`` would give on the same stream. The tilt weight's
    S_n is sum_k log m_k * (count of component k in the row).
    """
    p = model.weights if plan is None else plan.weights
    idx = categorical(rng, p, (count, n))
    if plan is None:
        w = np.ones(count)
    else:
        rest = [np.count_nonzero(idx == k, axis=1) for k in range(1, len(p))]
        counts = [n - sum(rest, np.zeros(count, dtype=np.intp))] + rest
        s_n = sum(log_m * c for log_m, c in zip(model.log_means, counts))
        w = np.exp(n * math.log(plan.rate) - plan.theta * s_n)
    return EnvBatch(model=model, idx=idx, w=w)


def env_expectation(model: EnvironmentModel, g: Callable[[OffspringLaw], float]) -> float:
    """Exact mixture expectation of a functional of the offspring law."""
    return math.fsum(w * g(law) for law, w in model.components)


def tilt(model: EnvironmentModel, theta: float) -> tuple[EnvironmentModel, float]:
    """Exponentially tilt the environment law by the offspring mean.

    Component i's weight becomes w_i * m_i**theta / Z with Z the normalizer,
    which equals the mixture expectation of m**theta. Returns (tilted model, Z).
    """
    if theta < 0.0:
        raise ValidationError(f"tilt exponent must be >= 0, got {theta}", field="theta")
    if theta == 0.0:
        return model, 1.0
    ms = model.means
    if np.any(ms == 0.0):
        raise ValidationError(
            "cannot tilt a model with a zero-mean component", field="theta"
        )
    raw = [w * moments(law)[0] ** theta for law, w in model.components]
    z = math.fsum(raw)
    tilted = EnvironmentModel(
        [(law, r / z) for (law, _), r in zip(model.components, raw)]
    )
    return tilted, z


# --- reference models -------------------------------------------------------
#
# Three pinned mixtures, one per subcritical regime. Components are
# linear-fractional realizations of the target offspring means; where a
# choice with B = 1/2 exists (means <= 2) it is used because the target mean
# is then reproduced exactly in double precision.


def ss_ref() -> EnvironmentModel:
    """Strongly subcritical reference: means {1/2, 1/4}, weights (1/2, 1/2)."""
    return _two_point_lf_model([0.5, 0.25], [0.5, 0.5])


def is_ref() -> EnvironmentModel:
    """Intermediate subcritical reference: means {2, 1/4}, weights (1/5, 4/5).

    The mean of m*log(m) vanishes exactly for this mixture.
    """
    return _two_point_lf_model([2.0, 0.25], [0.2, 0.8])


def ws_ref() -> EnvironmentModel:
    """Weakly subcritical reference: means {e**-2, e}, weights (1/2, 1/2).

    Log means sit on the unit lattice, which the exact random-walk oracle
    relies on.
    """
    return EnvironmentModel([(geometric_lf(m), 0.5) for m in (math.exp(-2.0), math.e)])


def _two_point_lf_model(means, weights):
    laws = [lf_from_moments(m, 2.0 * m) for m in means]  # B = 1/2 exactly
    return EnvironmentModel(list(zip(laws, weights)))


BUILTIN_MODELS: dict[str, Callable[[], EnvironmentModel]] = {
    "ss-ref": ss_ref,
    "is-ref": is_ref,
    "ws-ref": ws_ref,
}


def builtin_model(name: str) -> EnvironmentModel:
    try:
        factory = BUILTIN_MODELS[name]
    except KeyError:
        raise ValidationError(
            f"unknown builtin model {name!r}; available: {sorted(BUILTIN_MODELS)}",
            field="model",
        ) from None
    return factory()
