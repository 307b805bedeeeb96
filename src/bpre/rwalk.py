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

import math
from dataclasses import dataclass

import numpy as np

from . import streams
from .environment import EnvSequence, EnvironmentModel, TiltPlan, draw_env_batch
from .errors import NonLatticeError, ValidationError
from .offspring import moments
from .regime import classify
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
    return np.floor(paths - paths.min(axis=-1, keepdims=True) + LATTICE_TOL).astype(np.int64)


# --- Monte Carlo tail of the running minimum ---------------------------------


def _walk_paths(
    model: EnvironmentModel, n: int, rng, count: int, plan: TiltPlan | None
) -> tuple[np.ndarray, np.ndarray]:
    """(count, n+1) walks including S_0 = 0, and their importance weights."""
    batch = draw_env_batch(model, n, rng, count, plan)
    paths = np.zeros((count, n + 1))
    np.cumsum(batch.steps, axis=1, out=paths[:, 1:])
    return paths, batch.w


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
    if x < 0:
        raise ValidationError(f"x must be >= 0, got {x}", field="x")
    plan = method_plan(method, lambda: _centered_tilt(model))
    purpose = f"lntail-n{n}"

    def chunk(rng, count, start):
        paths, w = _walk_paths(model, n, rng, count, plan)
        return (w * (paths.min(axis=1) >= -x),)

    (vals,) = streams.run_chunks(chunk, reps, seed, purpose)
    value, se = mean_and_se(vals)
    return EstimateWithCI(
        value, se, reps, method_name(plan), streams.seed_provenance(seed, purpose)
    )


# --- exact lattice oracle -----------------------------------------------------

MAX_DP_HORIZON = 64


def _lattice_spacing(model: EnvironmentModel) -> float:
    """Common lattice spacing of the nonzero log means, or raise."""
    values = [v for v in model.log_means if abs(v) > LATTICE_TOL]
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
        if abs(v - round(v / g) * g) > LATTICE_TOL:
            raise NonLatticeError(
                f"component with mean {moments(law)[0]:.12g} is off the lattice "
                f"(log mean {v:.12g}, spacing {g:.12g})"
            )
    return g


def ln_tail_exact(model: EnvironmentModel, n: int, x: float) -> float:
    """Exact P(running minimum >= -x) by dynamic programming on the lattice.

    Requires every log mean on a common lattice and x a lattice point.
    The walk is absorbed as soon as it steps below -x.
    """
    if x < 0:
        raise ValidationError(f"x must be >= 0, got {x}", field="x")
    if n > MAX_DP_HORIZON:
        raise ValidationError(
            f"exact oracle capped at horizon {MAX_DP_HORIZON}, got {n}", field="n"
        )
    spacing = _lattice_spacing(model)
    if spacing == 0.0:
        return 1.0  # zero-drift degenerate walk never goes below 0
    x_units_f = x / spacing
    x_units = round(x_units_f)
    if abs(x_units_f - x_units) > 1e-6:
        raise ValidationError(
            f"x = {x} is not on the lattice with spacing {spacing:.12g}", field="x"
        )
    step_units = [int(round(v / spacing)) for v in model.log_means]
    weights = [w for _, w in model.components]
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
    k: int,
    l: int,
    x: float,
    reps: int,
    seed: int = 0,
) -> EstimateWithCI:
    """P(occupation of band k above the minimum >= l | minimum >= -x).

    Both numerator and denominator are tilted-importance-sampled from the
    same draws, so the conditional is a common-random-number ratio.
    Replicates escalate when the conditioning event carries too little
    effective mass, same policy as the survival-conditioned estimators.
    """
    if l < 0:
        raise ValidationError(f"l must be >= 0, got {l}", field="l")
    plan = _centered_tilt(model)
    purpose = f"occ-n{n}"

    def chunk(rng, count, start):
        paths, w = _walk_paths(model, n, rng, count, plan)
        return w * (paths.min(axis=1) >= -x), (level_bands(paths) == k).sum(axis=1)

    (cond, occ), total, _eff = run_conditioned(chunk, reps, seed, purpose)
    value, se = ratio_and_se(cond * (occ >= l), cond)
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
    report = classify(model)
    if report.regime != "WS" or report.alpha >= 0.5:
        raise ValidationError(
            f"requires a weakly subcritical model with exponent < 1/2 "
            f"(regime {report.regime}, exponent {report.alpha:.4g})",
            field="model",
        )
    plan = _centered_tilt(model)
    curve: dict[tuple[int, float, float], tuple[float, float]] = {}
    for n in REFLECTED_HORIZONS:

        def chunk(rng, count, start):
            paths, w = _walk_paths(model, n, rng, count, plan)
            mins = paths.min(axis=1)
            return mins, w, np.exp(mins[:, None] - paths).sum(axis=1)

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


# --- path-wise link between walk and quenched survival -------------------------


def survival_floor_constant(model: EnvironmentModel) -> float:
    """1 / (1 + max over components of f''(1)/f'(1)).

    For all-linear-fractional sequences the quenched survival is at least
    (C/2) * exp(min) / reflected_sum with this C, path by path.
    """
    ratios = []
    for law, _ in model.components:
        m, f2 = moments(law)
        if m <= 0:
            raise ValidationError("requires positive offspring means", field="model")
        ratios.append(f2 / m)
    return 1.0 / (1.0 + max(ratios))


def reversed_walk(env: EnvSequence) -> WalkPath:
    """Walk of the reversed sequence: step i is the log mean of law n-1-i."""
    return WalkPath(tuple(math.log(moments(law)[0]) for law in reversed(tuple(env))))


def survival_lower_bound(env: EnvSequence, floor_constant: float) -> float:
    """(C/2) * exp(S'_n - max S'_j) / sum_i exp(S'_i - max S'_j), reversed walk.

    Algebraically equal to (C/2) * exp(min) / reflected_sum of the forward
    walk; computed from the reversed partial sums.
    """
    s = reversed_walk(env).partial_sums
    m = float(s.max())
    return 0.5 * floor_constant * math.exp(s[-1] - m) / float(np.exp(s - m).sum())
