"""Offspring laws: probability generating functions, moments at 1, samplers.

Two families are first class. ``LinearFractional`` is closed under
composition, which gives exact long-horizon survival probabilities.
``FiniteSupport`` enables exact convolutions and brute-force oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ValidationError

PROB_TOL = 1e-12


@dataclass(frozen=True)
class LinearFractional:
    """Law with pgf f(s) = 1 - A/(1-B) + A*s/(1 - B*s).

    Mass function: P(0) = 1 - A/(1-B), P(j) = A * B**(j-1) for j >= 1.
    Requires A in [0, 1], B in [0, 1) and A + B <= 1 so the coefficients
    form a probability distribution.
    """

    A: float
    B: float

    def __post_init__(self):
        if not 0.0 <= self.A <= 1.0:
            raise ValidationError(f"A must lie in [0, 1], got {self.A}", field="A")
        if not 0.0 <= self.B < 1.0:
            raise ValidationError(f"B must lie in [0, 1), got {self.B}", field="B")
        if self.A + self.B > 1.0 + PROB_TOL:
            raise ValidationError(
                f"A + B must not exceed 1, got {self.A + self.B}", field="A"
            )


@dataclass(frozen=True)
class FiniteSupport:
    """Law supported on {0, ..., K} given by its probability vector.

    The vector is renormalized on construction when it sums to 1 within
    1e-12 and rejected otherwise.
    """

    probs: tuple[float, ...]

    def __init__(self, probs):
        probs = tuple(float(p) for p in probs)
        if not probs:
            raise ValidationError("probability vector is empty", field="probs")
        if not all(p >= 0.0 for p in probs):  # NaN fails the test
            raise ValidationError("probabilities must be nonnegative", field="probs")
        total = math.fsum(probs)
        if abs(total - 1.0) > PROB_TOL:
            raise ValidationError(
                f"probabilities sum to {total!r}, not 1 within {PROB_TOL}",
                field="probs",
            )
        object.__setattr__(self, "probs", tuple(p / total for p in probs))


OffspringLaw = Union[LinearFractional, FiniteSupport]


def _check_unit_interval(s: float) -> None:
    if not 0.0 <= s <= 1.0:
        raise ValidationError(f"pgf argument must lie in [0, 1], got {s}", field="s")


def pgf(law: OffspringLaw, s: float) -> float:
    """Evaluate the probability generating function at s in [0, 1]."""
    _check_unit_interval(s)
    if isinstance(law, LinearFractional):
        return 1.0 - law.A / (1.0 - law.B) + law.A * s / (1.0 - law.B * s)
    return math.fsum(p * s**j for j, p in enumerate(law.probs))


def moments(law: OffspringLaw) -> tuple[float, float]:
    """Return (f'(1), f''(1)): mean and second factorial moment."""
    if isinstance(law, LinearFractional):
        one_m_b = 1.0 - law.B
        return law.A / one_m_b**2, 2.0 * law.A * law.B / one_m_b**3
    m = math.fsum(j * p for j, p in enumerate(law.probs))
    f2 = math.fsum(j * (j - 1) * p for j, p in enumerate(law.probs))
    return m, f2


def sample(law: OffspringLaw, stream: np.random.Generator) -> int:
    """Draw one offspring count."""
    if isinstance(law, LinearFractional):
        p0 = 1.0 - law.A / (1.0 - law.B)
        if stream.random() < p0:
            return 0
        return int(stream.geometric(1.0 - law.B))
    return int(stream.choice(len(law.probs), p=law.probs))


def sample_many(law: OffspringLaw, size: int, stream: np.random.Generator) -> np.ndarray:
    """Vectorized sampler; a fixed number of variates is consumed per call."""
    if size == 0:
        return np.zeros(0, dtype=np.int64)
    if isinstance(law, LinearFractional):
        p0 = 1.0 - law.A / (1.0 - law.B)
        u = stream.random(size)
        geo = stream.geometric(1.0 - law.B, size=size)
        return np.where(u < p0, 0, geo).astype(np.int64)
    return stream.choice(len(law.probs), size, p=law.probs)


def lf_from_moments(m: float, f2: float) -> LinearFractional:
    """Linear-fractional law with prescribed f'(1) = m and f''(1) = f2.

    Solvable iff f2 >= 2*m*(m - 1); below that no linear-fractional law has
    the requested moments.
    """
    if m <= 0.0:
        raise ValidationError(f"mean must be positive, got {m}", field="m")
    if f2 < 0.0:
        raise ValidationError(f"second factorial moment must be >= 0, got {f2}", field="f2")
    b = f2 / (2.0 * m + f2)
    a = m * (1.0 - b) ** 2
    if a + b > 1.0 + PROB_TOL:
        raise ValidationError(
            f"no linear-fractional law has mean {m} and f''(1) = {f2}; "
            f"requires f''(1) >= 2*m*(m-1) = {2 * m * (m - 1):.6g}",
            field="f2",
        )
    return LinearFractional(min(a, 1.0), b)


def geometric_lf(m: float) -> LinearFractional:
    """The plain geometric law with mean m, as a linear-fractional law.

    P(j) = (1/(1+m)) * (m/(1+m))**j; it has f''(1) = 2*m**2 and exists for
    every m > 0.
    """
    return LinearFractional(m / (1.0 + m) ** 2, m / (1.0 + m))
