"""Forward simulation and annealed Monte Carlo estimators.

Wherever the estimand is a functional of the environment path alone, the
estimators integrate the lineages out exactly (survival probabilities come
from the pgf composition) and Monte Carlo only over environments. Direct
population simulation is kept for validation and for path-dependent
functionals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import streams
from .environment import (
    EnvSequence,
    EnvironmentModel,
    TiltPlan,
    draw_env,
    draw_env_batch,
    tilt_plan,
)
from .errors import (
    ConditioningStarvationError,
    DegenerateTiltError,
    PopulationCapError,
    ValidationError,
)
from .lfexact import log_survival_profile
from .offspring import sample_many
from .regime import classify, solve_gamma_tilde
from .stats import kish_neff, mean_and_se, ratio_and_se, ratio_combined_se

DEFAULT_POPULATION_CAP = 10**7
TILT_CENTER_TOL = 1e-8

METHOD_ENV_EXACT = "env-exact"
METHOD_TILTED = "tilted-IS"
METHOD_EXACT = "exact-enum"


@dataclass(frozen=True)
class EstimateWithCI:
    """Monte Carlo point estimate with its standard error and provenance."""

    value: float
    std_error: float
    replicates: int
    method: str
    seed_info: str

    def __post_init__(self):
        if self.std_error < 0.0:
            raise ValidationError("standard error must be >= 0", field="std_error")


@dataclass(frozen=True)
class LineageTrajectory:
    """One simulated run: k lineages evolved under a shared environment."""

    env: EnvSequence
    pops: np.ndarray  # (n+1, k) per-lineage population sizes

    @property
    def n(self) -> int:
        return self.pops.shape[0] - 1

    @property
    def k(self) -> int:
        return self.pops.shape[1]

    @property
    def lineages_alive(self) -> int:
        return int(np.count_nonzero(self.pops[-1]))

    @property
    def total_alive(self) -> int:
        return int(self.pops[-1].sum())


def evolve_lineages(
    env: EnvSequence,
    k: int,
    stream: np.random.Generator,
    population_cap: int = DEFAULT_POPULATION_CAP,
) -> np.ndarray:
    """Evolve k independent lineages under a fixed environment sequence."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}", field="k")
    n = len(env)
    pops = np.zeros((n + 1, k), dtype=np.int64)
    pops[0] = 1
    current = pops[0].copy()
    for i, law in enumerate(env):
        total = int(current.sum())
        if total == 0:
            break
        draws = sample_many(law, total, stream)
        owners = np.repeat(np.arange(k), current)
        current = np.bincount(owners, weights=draws, minlength=k).astype(np.int64)
        if current.sum() > population_cap:
            raise PopulationCapError(population_cap, i + 1)
        pops[i + 1] = current
    return pops


def simulate_lineages(
    model: EnvironmentModel,
    k: int,
    n: int,
    stream: np.random.Generator,
    population_cap: int = DEFAULT_POPULATION_CAP,
) -> LineageTrajectory:
    """Draw one environment, then evolve k lineages under it."""
    env = draw_env(model, n, stream)
    pops = evolve_lineages(env, k, stream, population_cap)
    return LineageTrajectory(env=env, pops=pops)


# --- environment sampling with optional exponential tilt --------------------


@dataclass(frozen=True)
class EnvSamples:
    """Per-replicate quenched survival and importance weights."""

    q: np.ndarray  # single-lineage survival
    log_q: np.ndarray
    w: np.ndarray  # importance weight (all ones when drawn from the base law)
    method: str
    seed_info: str


def _centered_tilt(model: EnvironmentModel) -> TiltPlan:
    """Tilt at the minimizing exponent, for importance sampling of survival
    and walk-tail events.

    Rejects when the minimizing exponent sits at the boundary with a
    noncentered tilted walk (weights would be exponentially degenerate).
    """
    report = classify(model)
    drift = report.e_m_log_m / report.e_m  # tilted E[log m] at theta = 1
    if report.alpha >= 1.0 and abs(drift) > TILT_CENTER_TOL:
        raise DegenerateTiltError(
            f"tilted walk is not centered (E_tilted[log m] = {drift:.3g}); "
            "tilted importance sampling is unusable for this model"
        )
    return tilt_plan(model, report.alpha)


def conditioning_tilt(model: EnvironmentModel) -> TiltPlan | None:
    """Draw plan for conditioning on survival: tilted at the minimizing
    exponent in the intermediate and weakly subcritical regimes (the tilted
    walk is centered there), plain draws in the strongly subcritical one."""
    report = classify(model)
    return tilt_plan(model, report.alpha) if report.regime in ("IS", "WS") else None


def method_plan(method: str, tilted: Callable[[], TiltPlan]) -> TiltPlan | None:
    """The draw plan of an estimator's ``method``: none for env-exact,
    ``tilted()`` for tilted-IS. With no plan every weight is exactly 1.0, so
    one weighted mean serves both methods."""
    if method not in (METHOD_ENV_EXACT, METHOD_TILTED):
        raise ValidationError(
            f"method must be {METHOD_ENV_EXACT!r} or {METHOD_TILTED!r}, got {method!r}",
            field="method",
        )
    return tilted() if method == METHOD_TILTED else None


def method_name(plan: TiltPlan | None) -> str:
    """The method label of draws made under ``plan``."""
    return METHOD_ENV_EXACT if plan is None else METHOD_TILTED


def draw_env_samples(
    model: EnvironmentModel,
    n: int,
    reps: int,
    seed: int,
    purpose: str,
    plan: TiltPlan | None = None,
) -> EnvSamples:
    """Monte Carlo environments with exact quenched survival per replicate,
    drawn under the tilt ``plan`` when one is given."""

    def chunk(rng, count, start):
        batch = draw_env_batch(model, n, rng, count, plan)
        log_q = log_survival_profile(model, batch.idx)[:, 0].copy()
        return np.exp(log_q), log_q, batch.w

    q, log_q, w = streams.run_chunks(chunk, reps, seed, purpose)
    return EnvSamples(
        q=q,
        log_q=log_q,
        w=w,
        method=method_name(plan),
        seed_info=streams.seed_provenance(seed, purpose),
    )


def _any_survive(q: np.ndarray, k: int) -> np.ndarray:
    """1 - (1 - q)**k, stable for tiny q."""
    with np.errstate(divide="ignore"):
        return -np.expm1(k * np.log1p(-np.minimum(q, 1.0)))


def annealed_survival(
    model: EnvironmentModel,
    k: int,
    n: int,
    reps: int,
    method: str = METHOD_ENV_EXACT,
    seed: int = 0,
) -> EstimateWithCI:
    """Probability that a population started from k particles is alive at n."""
    plan = method_plan(method, lambda: _centered_tilt(model))
    samples = draw_env_samples(model, n, reps, seed, "annealed", plan)
    value, se = mean_and_se(samples.w * _any_survive(samples.q, k))
    return EstimateWithCI(value, se, reps, samples.method, samples.seed_info)


def joint_survival(
    model: EnvironmentModel,
    k: int,
    n: int,
    reps: int,
    method: str = METHOD_ENV_EXACT,
    seed: int = 0,
) -> EstimateWithCI:
    """Probability that all k initial lineages are simultaneously alive at n.

    The tilted estimator uses the k-particle minimizing exponent; its weights
    w * q**k are bounded by exp(k * (L_n - S_n)) <= 1, so the importance
    sampling stays well behaved in every regime.
    """
    plan = method_plan(method, lambda: tilt_plan(model, solve_gamma_tilde(model, k)[0]))
    samples = draw_env_samples(model, n, reps, seed, "joint", plan)
    value, se = mean_and_se(samples.w * np.exp(k * samples.log_q))
    return EstimateWithCI(value, se, reps, samples.method, samples.seed_info)


@dataclass(frozen=True)
class InclusionExclusionReport:
    k: int
    n: int
    reps: int
    direct_mean: float
    alternating_mean: float
    max_pathwise_diff: float

    @property
    def passed(self) -> bool:
        return self.max_pathwise_diff <= 1e-12


def inclusion_exclusion_check(
    model: EnvironmentModel,
    k: int,
    n: int,
    reps: int,
    seed: int = 0,
) -> InclusionExclusionReport:
    """Check 1-(1-q)**k = sum_i (-1)**(i+1) C(k,i) q**i path by path.

    With common draws the identity is algebraic, so agreement is to float
    rounding, not statistical.
    """
    if k > 6:
        raise ValidationError(
            f"alternating sums amplify noise; k must be <= 6, got {k}", field="k"
        )
    samples = draw_env_samples(model, n, reps, seed, "incl-excl")
    q = samples.q
    direct = 1.0 - (1.0 - q) ** k
    alternating = np.zeros_like(q)
    for i in range(1, k + 1):
        alternating += (-1.0) ** (i + 1) * math.comb(k, i) * q**i
    return InclusionExclusionReport(
        k=k,
        n=n,
        reps=reps,
        direct_mean=float(np.mean(direct)),
        alternating_mean=float(np.mean(alternating)),
        max_pathwise_diff=float(np.max(np.abs(direct - alternating))) if reps else 0.0,
    )


@dataclass(frozen=True)
class AlphaKEstimate:
    k: int
    n: int
    value: float
    std_error: float  # delta-method SE of the common-draw ratio
    combined_se: float  # conservative: numerator and denominator SEs combined
    denominator_rel_se: float
    noisy_denominator: bool


@dataclass(frozen=True)
class AlphaKTable:
    rows: tuple[AlphaKEstimate, ...]
    seed_info: str

    def at(self, k: int, n: int) -> AlphaKEstimate:
        for row in self.rows:
            if row.k == k and row.n == n:
                return row
        raise KeyError((k, n))


def alpha_k_curve(
    model: EnvironmentModel,
    k_list: list[int],
    n_list: list[int],
    reps: int,
    seed: int = 0,
) -> AlphaKTable:
    """Survival-probability ratios P_k(alive at n) / P_1(alive at n).

    Numerator and denominator average over the same environment draws, so
    the ratio is a smooth functional of one sample and its variance stays
    far below the naive two-sample version.
    """
    if sorted(n_list) != list(n_list):
        raise ValidationError("horizon list must be increasing", field="n_list")
    rows = []
    seed_info = ""
    for n in n_list:
        samples = draw_env_samples(model, n, reps, seed, f"alphak-n{n}")
        seed_info = samples.seed_info
        den = samples.q
        den_mean, den_se = mean_and_se(den)
        den_rel = den_se / den_mean if den_mean > 0 else math.inf
        for k in k_list:
            num = _any_survive(samples.q, k)
            value, se = ratio_and_se(num, den)
            combined = ratio_combined_se(num, den, scale=float(k))
            rows.append(
                AlphaKEstimate(
                    k=k,
                    n=n,
                    value=value,
                    std_error=se,
                    combined_se=combined,
                    denominator_rel_se=den_rel,
                    noisy_denominator=den_rel > 0.10,
                )
            )
    return AlphaKTable(rows=tuple(rows), seed_info=seed_info)


# --- conditioning on survival ------------------------------------------------

MIN_EFFECTIVE_EVENTS = 200.0
HARD_MIN_EFFECTIVE_EVENTS = 50.0
ESCALATION_CAP = 8


@dataclass(frozen=True)
class ConditionedEnvSamples:
    """Environment draws prepared for conditioning on survival from k particles.

    ``survive_w`` is the per-replicate product (importance weight) x
    P(some lineage survives | environment); every conditional expectation is
    a ratio of weighted means against it.
    """

    q: np.ndarray
    w: np.ndarray
    survive_w: np.ndarray
    method: str
    reps_used: int
    effective_events: float
    seed_info: str


def run_conditioned(chunk_fn, reps: int, seed: int, purpose: str):
    """Escalation loop shared by every estimator that conditions on an event.

    ``chunk_fn`` follows the ``streams.run_chunks`` contract and returns the
    per-replicate conditioning weight as its first field. Replicates double
    until the weights carry ``MIN_EFFECTIVE_EVENTS`` effective events or reach
    ``ESCALATION_CAP`` times the request; each round continues the chunk
    indices of the same (seed, purpose), so an escalated run draws a prefix
    of one stream family. Returns (merged fields, replicates used, effective
    events).
    """
    rounds = []
    total = next_chunk = 0
    target = reps
    while True:
        count = target - total
        rounds.append(streams.run_chunks(chunk_fn, count, seed, purpose, next_chunk))
        next_chunk += -(-count // streams.CHUNK_SIZE)
        total = target
        eff = kish_neff(np.concatenate([fields[0] for fields in rounds]))
        if eff >= MIN_EFFECTIVE_EVENTS or total >= reps * ESCALATION_CAP:
            break
        target = min(total * 2, reps * ESCALATION_CAP)
    if eff < HARD_MIN_EFFECTIVE_EVENTS:
        raise ConditioningStarvationError(eff, HARD_MIN_EFFECTIVE_EVENTS)
    return [np.concatenate(parts) for parts in zip(*rounds)], total, eff


def draw_conditioned_env(
    model: EnvironmentModel,
    k: int,
    n: int,
    reps: int,
    seed: int,
    purpose: str,
) -> ConditionedEnvSamples:
    """Environments for conditioning on survival from k particles, drawn
    under ``conditioning_tilt`` and escalated by ``run_conditioned``."""
    plan = conditioning_tilt(model)

    def chunk(rng, count, start):
        batch = draw_env_batch(model, n, rng, count, plan)
        q = np.exp(log_survival_profile(model, batch.idx)[:, 0])
        return batch.w * _any_survive(q, k), q, batch.w

    (survive_w, q, w), total, eff = run_conditioned(chunk, reps, seed, purpose)
    return ConditionedEnvSamples(
        q=q,
        w=w,
        survive_w=survive_w,
        method=method_name(plan),
        reps_used=total,
        effective_events=eff,
        seed_info=streams.seed_provenance(seed, purpose),
    )


@dataclass(frozen=True)
class LineageCountDistribution:
    """Conditional law of the number of surviving initial lineages."""

    k: int
    n: int
    pmf: dict[int, tuple[float, float]]  # j -> (estimate, SE)
    reps_used: int
    effective_events: float
    method: str
    seed_info: str

    def prob_at_least(self, j: int) -> float:
        return math.fsum(p for jj, (p, _) in self.pmf.items() if jj >= j)


def conditional_lineage_counts(
    model: EnvironmentModel,
    k: int,
    n: int,
    reps: int,
    seed: int = 0,
) -> LineageCountDistribution:
    """Distribution of surviving initial lineages given some lineage survives.

    Given the environment the lineage count is Binomial(k, q), so the
    conditional pmf is a ratio of mixture-of-binomial means; no lineage
    simulation is involved.
    """
    cond = draw_conditioned_env(model, k, n, reps, seed, f"lincount-k{k}-n{n}")
    q, w = cond.q, cond.w
    pmf: dict[int, tuple[float, float]] = {}
    for j in range(1, k + 1):
        num = w * math.comb(k, j) * q**j * (1.0 - q) ** (k - j)
        pmf[j] = ratio_and_se(num, cond.survive_w)
    return LineageCountDistribution(
        k=k,
        n=n,
        pmf=pmf,
        reps_used=cond.reps_used,
        effective_events=cond.effective_events,
        method=cond.method,
        seed_info=cond.seed_info,
    )


def lineage_counts_by_simulation(
    model: EnvironmentModel,
    k: int,
    n: int,
    reps: int,
    seed: int = 0,
) -> dict[int, int]:
    """Brute-force oracle: surviving-lineage counts from full population runs."""
    counts: dict[int, int] = {}
    for index, start, stop in streams.chunk_bounds(reps, 1024):
        rng = streams.stream(seed, "lincount-sim", index)
        for _ in range(stop - start):
            traj = simulate_lineages(model, k, n, rng)
            alive = traj.lineages_alive
            if alive > 0:
                counts[alive] = counts.get(alive, 0) + 1
    return counts


@dataclass(frozen=True)
class EnvSurvivalCurve:
    """Conditional tail curve of the quenched survival probability."""

    k: int
    n: int
    points: dict[float, tuple[float, float]]  # eps -> (estimate, SE)
    reps_used: int
    effective_events: float
    method: str
    seed_info: str


def conditional_env_survival(
    model: EnvironmentModel,
    k: int,
    n: int,
    reps: int,
    eps_grid: list[float],
    seed: int = 0,
) -> EnvSurvivalCurve:
    """P(quenched survival >= eps | some lineage survives), per eps."""
    cond = draw_conditioned_env(model, k, n, reps, seed, f"envsel-k{k}-n{n}")
    points: dict[float, tuple[float, float]] = {}
    for eps in eps_grid:
        num = cond.survive_w * (cond.q >= eps)
        points[float(eps)] = ratio_and_se(num, cond.survive_w)
    return EnvSurvivalCurve(
        k=k,
        n=n,
        points=points,
        reps_used=cond.reps_used,
        effective_events=cond.effective_events,
        method=cond.method,
        seed_info=cond.seed_info,
    )
