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
    EnvBatch,
    EnvironmentModel,
    TiltPlan,
    draw_env_batch,
    tilt_plan,
)
from .errors import (
    ConditioningStarvationError,
    DegenerateTiltError,
    PopulationCapError,
    UnderflowError,
    ValidationError,
)
from .lfexact import any_survive, log_survival, surviving_lines
from .offspring import sample_many
from .regime import _dphi, check_k, expected_mean, regime_of, solve_alpha, solve_gamma_tilde
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


def evolve_lineages(
    model: EnvironmentModel,
    idx: np.ndarray,
    k: int,
    rng: np.random.Generator,
    population_cap: int = DEFAULT_POPULATION_CAP,
) -> np.ndarray:
    """Evolve k lineages under each row of ``idx``, the (replicates, n)
    component indices of ``draw_env_batch``; returns the (replicates, n+1, k)
    per-lineage population sizes.

    Every individual's offspring is drawn on its own (one ``sample_many``
    call per component and generation, over the individuals of the rows
    that drew it), so this stays a brute-force reference for the aggregate
    samplers. Raises ``PopulationCapError`` when some replicate's total
    exceeds ``population_cap``.
    """
    check_k(k)
    reps, n = idx.shape
    pops = np.zeros((reps, n + 1, k), dtype=np.int64)
    pops[:, 0] = 1
    for i in range(n):
        # one entry per individual: its lineage, r * k + j for lineage j of replicate r
        owners = np.repeat(np.arange(reps * k), pops[:, i].ravel())
        comp = idx[owners // k, i]
        children = np.zeros(len(owners))
        for c in np.unique(comp):
            group = comp == c
            children[group] = sample_many(model.laws[c], np.count_nonzero(group), rng)
        pops[:, i + 1] = np.bincount(owners, weights=children, minlength=reps * k).reshape(reps, k)
        if np.any(pops[:, i + 1].sum(axis=1) > population_cap):
            raise PopulationCapError(population_cap, i + 1)
    return pops


# --- environment sampling with optional exponential tilt --------------------


@dataclass(frozen=True)
class EnvSamples:
    """Per-replicate quenched survival and importance weights."""

    log_q: np.ndarray  # log of single-lineage survival
    w: np.ndarray  # importance weight (all ones when drawn from the base law)
    method: str
    seed_info: str


def _centered_tilt(model: EnvironmentModel) -> TiltPlan:
    """Tilt at the minimizing exponent, for importance sampling of survival
    and walk-tail events.

    Rejects when the minimizing exponent sits at the boundary with a
    noncentered tilted walk (weights would be exponentially degenerate).
    """
    alpha, _ = solve_alpha(model)
    drift = _dphi(model, 1.0) / expected_mean(model)  # tilted E[log m] at theta = 1
    if alpha >= 1.0 and abs(drift) > TILT_CENTER_TOL:
        raise DegenerateTiltError(
            f"tilted walk is not centered (E_tilted[log m] = {drift:.3g}); "
            "tilted importance sampling is unusable for this model"
        )
    return tilt_plan(model, alpha)


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
        return log_survival(model, batch), batch.w

    log_q, w = streams.run_chunks(chunk, reps, seed, purpose)
    return EnvSamples(log_q, w, method_name(plan), streams.seed_provenance(seed, purpose))


def _checked_estimate(samples: EnvSamples, values: np.ndarray, what: str) -> EstimateWithCI:
    """The mean of ``values`` with its SE; raises ``UnderflowError`` when the
    mean is exactly 0.0 while some replicate has a finite log q. Replicates
    that are all dead, as under a zero-mean component, give 0.0."""
    value, se = mean_and_se(values)
    if value == 0.0 and np.isfinite(samples.log_q).any():
        raise UnderflowError(
            f"{what} underflowed to 0.0 although some environments survive "
            f"(largest log q {float(samples.log_q.max()):.6g})"
        )
    return EstimateWithCI(value, se, len(values), samples.method, samples.seed_info)


def annealed_survival(
    model: EnvironmentModel,
    k: int,
    n: int,
    reps: int,
    method: str = METHOD_ENV_EXACT,
    seed: int = 0,
) -> EstimateWithCI:
    """Probability that a population started from k particles is alive at n.

    In the strongly subcritical regime both methods draw at theta = 1, where
    the weights w * (1 - (1-q)**k) <= k * E[m]**n stay bounded; untilted
    draws there miss the environments that carry the mass. The estimate is
    labelled tilted-IS. A model with a zero-mean component cannot be tilted
    and keeps the method's own draw.
    """
    check_k(k)
    if (
        method in (METHOD_ENV_EXACT, METHOD_TILTED)
        and regime_of(model) == "SS"
        and np.all(model.means > 0.0)
    ):
        plan = tilt_plan(model, 1.0)
    else:
        plan = method_plan(method, lambda: _centered_tilt(model))
    samples = draw_env_samples(model, n, reps, seed, "annealed", plan)
    values = any_survive(samples.log_q, k)
    values *= samples.w
    return _checked_estimate(samples, values, "survival")


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
    check_k(k)
    plan = method_plan(method, lambda: tilt_plan(model, solve_gamma_tilde(model, k)[0]))
    samples = draw_env_samples(model, n, reps, seed, "joint", plan)
    values = k * samples.log_q
    np.exp(values, out=values)
    values *= samples.w
    return _checked_estimate(samples, values, "joint survival")


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
    check_k(k)
    if k > 6:
        raise ValidationError(
            f"alternating sums amplify noise; k must be <= 6, got {k}", field="k"
        )
    samples = draw_env_samples(model, n, reps, seed, "incl-excl")
    q = np.exp(samples.log_q)
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
        max_pathwise_diff=float(np.max(np.abs(direct - alternating))),
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
    # every entry is checked before the first environment is drawn
    for field, values, low in (("k_list", k_list, 1), ("n_list", n_list, 0)):
        if not values or min(values) < low:
            raise ValidationError(f"entries must be >= {low}, got {list(values)}", field=field)
    if sorted(n_list) != list(n_list):
        raise ValidationError("horizon list must be increasing", field="n_list")
    rows = []
    seed_info = ""
    for n in n_list:
        samples = draw_env_samples(model, n, reps, seed, f"alphak-n{n}")
        seed_info = samples.seed_info
        den = np.exp(samples.log_q)
        p_1 = _checked_estimate(samples, den, "single-particle survival")
        den_rel = p_1.std_error / p_1.value if p_1.value > 0 else math.inf
        for k in k_list:
            num = any_survive(samples.log_q, k)
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

    ``env`` holds every drawn environment, chunks in stream order, with the
    tilt plan they were drawn under; its ``w`` is the importance weight.
    ``survive_w`` is the per-replicate product (importance weight) x
    P(some lineage survives | environment); every conditional expectation is
    a ratio of weighted means against it.
    """

    env: EnvBatch
    log_q: np.ndarray
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
    """Environments conditioned on survival from k particles: the draw of
    every estimator that conditions on survival.

    Draws are tilted at the minimizing exponent in the intermediate and
    weakly subcritical regimes (the tilted walk is centered there) and plain
    in the strongly subcritical one, and ``run_conditioned`` escalates them.
    Each chunk runs the survival-only kernel. The record keeps the
    environments, so functionals of them (S_n, the component indices, the
    weights, the survival profile) and populations sampled given them are
    read from ``env`` after the draw.
    """
    check_k(k)
    plan = tilt_plan(model, solve_alpha(model)[0]) if regime_of(model) in ("IS", "WS") else None

    def chunk(rng, count, start):
        batch = draw_env_batch(model, n, rng, count, plan)
        log_q = log_survival(model, batch)
        survive_w = any_survive(log_q, k)
        survive_w *= batch.w
        return survive_w, log_q, batch.slots

    (survive_w, log_q, slots), total, eff = run_conditioned(chunk, reps, seed, purpose)
    return ConditionedEnvSamples(
        env=EnvBatch(model, n, slots, plan),
        log_q=log_q,
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

    Given the environment the lineage count follows ``surviving_lines``, so
    the pmf is a ratio of weighted means; no lineage is simulated.
    """
    cond = draw_conditioned_env(model, k, n, reps, seed, f"lincount-k{k}-n{n}")
    lines = surviving_lines(cond.log_q, k)
    pmf = {j: ratio_and_se(cond.survive_w * line, cond.survive_w) for j, line in enumerate(lines, 1)}
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

    def chunk(rng, count, start):
        batch = draw_env_batch(model, n, rng, count)
        return (np.count_nonzero(evolve_lineages(model, batch.idx, k, rng)[:, -1], axis=1),)

    (alive,) = streams.run_chunks(chunk, reps, seed, "lincount-sim")
    values, counts = np.unique(alive[alive > 0], return_counts=True)
    return {int(j): int(c) for j, c in zip(values, counts)}


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
    """P(quenched survival >= eps | some lineage survives), per eps in [0, 1]."""
    if not eps_grid or not all(0.0 <= eps <= 1.0 for eps in eps_grid):
        raise ValidationError(
            f"eps_grid must be a nonempty list of thresholds in [0, 1], got {list(eps_grid)}",
            field="eps_grid",
        )
    cond = draw_conditioned_env(model, k, n, reps, seed, f"envsel-k{k}-n{n}")
    q = np.exp(cond.log_q)
    points: dict[float, tuple[float, float]] = {}
    for eps in eps_grid:
        num = cond.survive_w * (q >= eps)
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
