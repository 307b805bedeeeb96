"""The log-mean random walk attached to an environment model.

Each generation contributes a step log m; survival events are controlled by
the walk's running minimum. This module provides exact path statistics
(running minimum, occupation counts above the minimum, the reflected
exponential sum), Monte Carlo and exact tail probabilities for the running
minimum, and conditioned occupation statistics.

Two running-minimum conventions coexist: over steps 1..n, and over 0..n
(which includes S_0 = 0, so it is always <= 0). Both are recorded; the
0..n convention is the default for occupation and reflected statistics.
For tail events {min >= -x} with x >= 0 the two conventions agree.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import streams
from .environment import EnvSequence, EnvironmentModel, draw_env_batch, tilt_plan
from .errors import NonLatticeError, ValidationError
from .offspring import moments
from .regime import regime_of, solve_alpha
from .simcore import (
    METHOD_ENV_EXACT,
    METHOD_TILTED,
    EstimateWithCI,
    _centered_tilt,
    method_name,
    method_plan,
    run_conditioned,
)
from .stats import mean_and_se, ratio_and_se

LATTICE_TOL = 1e-9


@dataclass(frozen=True)
class WalkPath:
    """Steps and partial sums, S_0 = 0."""

    steps: tuple[float, ...]

    @classmethod
    def from_env(cls, env: EnvSequence) -> "WalkPath":
        return cls(tuple(math.log(moments(law)[0]) for law in env))

    @property
    def partial_sums(self) -> np.ndarray:
        return np.concatenate([[0.0], np.cumsum(self.steps)])


@dataclass(frozen=True)
class WalkStats:
    n: int
    min_from_1: float  # min over S_1..S_n (0.0 for an empty path)
    min_from_0: float  # min over S_0..S_n, always <= 0
    occupation: dict[int, int]  # level band -> visit count, 0..n convention
    reflected_sum: float  # sum_i exp(min_from_0 - S_i), i = 0..n

    @property
    def total_occupation(self) -> int:
        return sum(self.occupation.values())


def walk_stats(path: WalkPath) -> WalkStats:
    """Exact running minimum, occupation counts, and reflected sum."""
    s = path.partial_sums
    n = len(path.steps)
    min0 = float(s.min())
    min1 = float(s[1:].min()) if n >= 1 else 0.0
    occupation: dict[int, int] = {}
    for b in level_bands(s):
        occupation[int(b)] = occupation.get(int(b), 0) + 1
    reflected = math.fsum(math.exp(min0 - si) for si in s)
    return WalkStats(
        n=n,
        min_from_1=min1,
        min_from_0=min0,
        occupation=occupation,
        reflected_sum=reflected,
    )


def level_bands(paths: np.ndarray) -> np.ndarray:
    """Unit band of each partial sum above its path's minimum (last axis).

    Levels are floored with the lattice tolerance, so a walk on a lattice
    whose steps carry rounding error still puts a visit one level above the
    minimum in band 1.
    """
    return _band(paths, paths.min(axis=-1, keepdims=True)).astype(np.int64)


def _band(s: np.ndarray, low: np.ndarray) -> np.ndarray:
    """Band, as a float, of partial sums s above a walk minimum ``low``."""
    return np.floor(s - low + LATTICE_TOL)


def _check_level(x: float) -> None:
    """Reject a walk level x below 0, or NaN."""
    if not x >= 0:
        raise ValidationError(f"x must be >= 0, got {x}", field="x")


# --- Monte Carlo tail of the running minimum ---------------------------------


def ln_tail(
    model: EnvironmentModel,
    n: int,
    x: float,
    reps: int,
    method: str = METHOD_ENV_EXACT,
    seed: int = 0,
) -> EstimateWithCI:
    """P(running minimum of the log-mean walk >= -x) by Monte Carlo.

    The tilted estimator draws the walk under the centered tilt and carries
    the weight rate**n * exp(-alpha * S_n); it is unbiased for the base
    probability.
    """
    _check_level(x)
    plan = method_plan(method, lambda: _centered_tilt(model))
    purpose = f"lntail-n{n}"

    def chunk(rng, count, start):
        batch = draw_env_batch(model, n, rng, count, plan)
        return (batch.w * (np.minimum(batch.walk_minimum(), 0.0) >= -x),)

    (vals,) = streams.run_chunks(chunk, reps, seed, purpose)
    value, se = mean_and_se(vals)
    return EstimateWithCI(
        value, se, reps, method_name(plan), streams.seed_provenance(seed, purpose)
    )


# --- exact lattice oracle -----------------------------------------------------

MAX_DP_HORIZON = 64


def _lattice_spacing(model: EnvironmentModel) -> float:
    """Common lattice spacing of the nonzero finite log means, or raise; a
    zero-mean component's step, -inf, is on no lattice and sets none."""
    values = [v for v in model.log_means if LATTICE_TOL < abs(v) < math.inf]
    if not values:
        return 0.0  # all steps are zero
    g = abs(values[0])
    for v in values[1:]:
        a, b = g, abs(v)
        while b > LATTICE_TOL:
            a, b = b, a % b
        g = a
    # a genuine desk-scale lattice has small integer step multipliers; an
    # absurdly fine spacing means the steps are incommensurable
    max_units = 10**4
    if g <= LATTICE_TOL or max(abs(v) for v in values) / g > max_units:
        raise NonLatticeError(
            "log offspring means do not share a lattice: "
            + ", ".join(f"{v:.12g}" for v in model.log_means)
        )
    for law, v in zip(model.laws, model.log_means):
        if abs(v) < math.inf and abs(v - round(v / g) * g) > LATTICE_TOL:
            raise NonLatticeError(
                f"component with mean {moments(law)[0]:.12g} is off the lattice "
                f"(log mean {v:.12g}, spacing {g:.12g})"
            )
    return g


def ln_tail_exact(model: EnvironmentModel, n: int, x: float) -> float:
    """Exact P(running minimum >= -x) by dynamic programming on the lattice.

    Requires every finite log mean on a common lattice and x a lattice
    point. The walk is absorbed as soon as it steps below -x, and a
    zero-mean component's step, -inf, takes it below every finite -x.
    """
    _check_level(x)
    if n < 0:
        raise ValidationError(f"n must be >= 0, got {n}", field="n")
    if n > MAX_DP_HORIZON:
        raise ValidationError(
            f"exact oracle capped at horizon {MAX_DP_HORIZON}, got {n}", field="n"
        )
    spacing = _lattice_spacing(model)
    if x == math.inf:
        return 1.0  # no step goes below -inf
    finite = model.log_means > -math.inf
    if spacing == 0.0:
        # every finite step is 0, so the walk leaves 0 only by a -inf step
        return (1.0 - math.fsum(model.weights[~finite])) ** n
    x_units_f = x / spacing
    x_units = round(x_units_f)
    if abs(x_units_f - x_units) > 1e-6:
        raise ValidationError(
            f"x = {x} is not on the lattice with spacing {spacing:.12g}", field="x"
        )
    # the mass of a -inf step leaves the walk, so it has no entry here
    step_units = [int(round(v / spacing)) for v in model.log_means[finite]]
    weights = model.weights[finite].tolist()
    floor_units = -x_units
    dist: dict[int, float] = {0: 1.0}
    for _ in range(n):
        acc: dict[int, list[float]] = {}
        for s, mass in dist.items():
            for du, w in zip(step_units, weights):
                s2 = s + du
                if s2 >= floor_units:
                    acc.setdefault(s2, []).append(mass * w)
        dist = {s: math.fsum(parts) for s, parts in acc.items()}
    return math.fsum(dist.values())


# --- conditioned occupation statistics ----------------------------------------


def occupation_tail(
    model: EnvironmentModel,
    n: int,
    band: int,
    count: int,
    x: float,
    reps: int,
    seed: int = 0,
) -> EstimateWithCI:
    """P(visits to ``band`` above the minimum >= ``count`` | minimum >= -x).

    Both numerator and denominator are tilted-importance-sampled from the
    same draws, so the conditional is a common-random-number ratio.
    Replicates escalate when the conditioning event carries too little
    effective mass, same policy as the survival-conditioned estimators.
    """
    if band < 0:
        raise ValidationError(f"band must be >= 0, got {band}", field="band")
    if count < 0:
        raise ValidationError(f"count must be >= 0, got {count}", field="count")
    _check_level(x)
    plan = _centered_tilt(model)
    purpose = f"occ-n{n}"

    def chunk(rng, size, start):
        batch = draw_env_batch(model, n, rng, size, plan)
        low = np.minimum(batch.walk_minimum(), 0.0)
        visits = np.zeros(size, dtype=np.int64)
        for s in itertools.chain([np.zeros(size)], batch.partial_sums()):  # S_0 = 0 counts
            visits += _band(s, low) == band
        return batch.w * (low >= -x), visits

    (cond, occ), total, _eff = run_conditioned(chunk, reps, seed, purpose)
    value, se = ratio_and_se(cond * (occ >= count), cond)
    return EstimateWithCI(value, se, total, METHOD_TILTED, streams.seed_provenance(seed, purpose))


@dataclass(frozen=True)
class ReflectedSumReport:
    """Smallest threshold on the grid keeping the reflected sum small with
    conditional probability at least 1/4 across the whole (n, x) grid."""

    beta_hat: float | None
    grid: tuple[float, ...]
    curve: dict[tuple[int, float, float], tuple[float, float]]  # (n, x, beta) -> (est, SE)
    passed: bool


# the (n, x) grid the bound must hold on, and the thresholds searched
REFLECTED_HORIZONS = (5, 10, 15, 20)
REFLECTED_LEVELS = (0.0, 1.0, 2.0)
REFLECTED_BETAS = tuple(float(2**j) for j in range(0, 17))


def reflected_sum_check(
    model: EnvironmentModel, reps: int = 20000, seed: int = 0
) -> ReflectedSumReport:
    """Search the geometric grid for a uniform reflected-sum bound.

    Requires a weakly subcritical model with minimizing exponent below 1/2.
    The reflected sum sum_i exp(min - S_i) is at most n+1 termwise, so the
    search cannot run off the grid at desk horizons; a missing threshold is
    reported as a failure rather than raised.
    """
    regime = regime_of(model)
    alpha, _ = solve_alpha(model)
    if regime != "WS" or alpha >= 0.5:
        raise ValidationError(
            f"requires a weakly subcritical model with exponent < 1/2 "
            f"(regime {regime}, exponent {alpha:.4g})",
            field="model",
        )
    plan = tilt_plan(model, alpha)  # the centred tilt: a WS exponent is interior
    curve: dict[tuple[int, float, float], tuple[float, float]] = {}
    for n in REFLECTED_HORIZONS:

        def chunk(rng, count, start):
            batch = draw_env_batch(model, n, rng, count, plan)
            low = np.minimum(batch.walk_minimum(), 0.0)
            reflected = np.exp(low)  # the S_0 = 0 term
            for s in batch.partial_sums():
                reflected += np.exp(low - s)
            return low, batch.w, reflected

        mins, w, reflected = streams.run_chunks(chunk, reps, seed, f"reflected-n{n}")
        for x in REFLECTED_LEVELS:
            cond = w * (mins >= -x)
            for beta in REFLECTED_BETAS:
                num = cond * (reflected <= beta)
                curve[(n, x, beta)] = ratio_and_se(num, cond)
    beta_hat = None
    for beta in REFLECTED_BETAS:
        if all(
            curve[(n, x, beta)][0] >= 0.25 for n in REFLECTED_HORIZONS for x in REFLECTED_LEVELS
        ):
            beta_hat = beta
            break
    return ReflectedSumReport(
        beta_hat=beta_hat, grid=REFLECTED_BETAS, curve=curve, passed=beta_hat is not None
    )
