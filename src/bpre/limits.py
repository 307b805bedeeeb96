"""Quasistationary limits: conditioned populations, size-biased kernels,
environment posteriors.

For all-linear-fractional models the conditioned laws are not sampled:
each drawn environment contributes its exact law, the Yaglom law through
``lfexact.conditioned_law`` and the marginals of the weakly subcritical
Q-process through ``lfexact.SurvivorTail``. Every other conditioned
population is sampled by one sampler, ``_sample_populations``, given drawn
environments, their log q, their survival profile and a stream of its own:
the Yaglom skeleton and the WS Q-process trajectories of finite-support and
mixed models, after the conditioned draw. The SS/IS Q-process is an exact
law where the chain's states are bounded (all-finite-support models at
short horizons). Otherwise it is the same sampler at u = 0, given spine
environments drawn under the mean-size-biased tilt: the conditioned
population is one prolific spine with size-biased children plus doomed
particles with the plain law (Lyons, Pemantle and Peres 1995).

Sampling Z_n given survival is done exactly, per environment, through the
prolific-skeleton decomposition: an individual is prolific when it has a
descendant alive at the horizon, every ancestor of a survivor is prolific,
and given the environment the prolific individuals form a branching process
whose offspring law has an explicit form. Each generation draws, per
replicate, the total children of all its prolific (and doomed) parents in
one step per offspring family: negative binomial and binomial totals for
linear-fractional components, stick-breaking binomials over the
finite-support outcomes otherwise. This replaces accept/reject on
the survival event, whose acceptance probability decays geometrically in
the horizon. A literal rejection sampler is kept for validation at short
horizons.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import streams
from .environment import EnvBatch, EnvironmentModel, TiltPlan, draw_env_batch
from .errors import ConditioningStarvationError, ValidationError
from .lfexact import (
    SurvivorTail, _step_table, conditioned_law, lf_forward, log_survival_profile, surviving_lines,
)
from .offspring import pgf
from .regime import expected_mean, regime_of, solve_alpha
from .simcore import METHOD_EXACT, check_k, draw_conditioned_env, evolve_lineages
from .stats import ratio_and_se, unit_scaled, weighted_means_and_se, weighted_pmf

DEFAULT_STATE_CAP = 2**14  # largest state of a qprocess_kernel row
# largest state of the SS/IS chain's exact law; its dense kernel takes at most 2 MB
EXACT_CHAIN_STATES = 512
# Sampled populations above this size are flagged as overflow and frozen at
# zero. The cap only keeps the aggregate draws inside numpy's samplers:
# binomial and negative_binomial counts stay far below int64, whatever the
# growth of one generation. Cost does not grow with population size.
POPULATION_CAP = 2**32
S_GRID = tuple(float(s) for s in np.linspace(0.0, 1.0, 21))  # where yaglom reports its pgf
YAGLOM_ATOMS = 64  # pmf atoms an all-LF yaglom reports; the mass above them is its tail_mass
REJECTION_MAX_ATTEMPTS = 10**7
# generations past the horizon that the WS Q-process conditions on surviving
QPROCESS_LOOKAHEAD = 10


# --- conditioned offspring laws ----------------------------------------------
#
# Survival probabilities come from ``log_survival_profile``: u = exp(lu) and
# x = 1 - u = -expm1(lu). Given the environment, the children of the z
# prolific and d doomed parents of one replicate at generation i (child
# survival u = u[i+1], extinction x = 1 - u) are drawn as per-replicate
# totals, one step per offspring family.
#   * Linear fractional (closed form): a prolific parent has a shifted
#     Geometric((1-B)/(1-B*x)) number of prolific children, so z parents have
#     z + NB(z, (1-B)/(1-B*x)); given J prolific children, their doomed
#     siblings number NB(J + z, 1 - B*x). A doomed parent's law is the
#     linear-fractional law A' = A*x/x_parent, B' = B*x: m = Binomial(d,
#     A'/(1-B')) parents have children, m + NB(m, 1 - B*x) in total.
#   * Finite support: every row of the generation at once, its outcome
#     weights gathered by component index from the pmfs of ``_step_table``.
#     A prolific parent has joint (prolific j >= 1, doomed c - j) children
#     with P ~ p_c C(c,j) u^(j-1) x^(c-j), merged over c where the doomed
#     children are not kept (the skeleton), and a doomed parent has c
#     children with P ~ p_c x^c; ``_fs_totals`` draws the totals by stick
#     breaking, one binomial per outcome.


def _neg_binomial(rng, n: np.ndarray, p: np.ndarray) -> np.ndarray:
    """NegativeBinomial(n, p) per row, 0 where n = 0; rows with n = 1 draw
    the same law as Geometric(p) - 1, which numpy samples faster."""
    out = np.zeros(len(n), dtype=np.int64)
    one = n == 1
    if one.any():
        out[one] = rng.geometric(p[one]) - 1
    more = n > 1
    if more.any():
        out[more] = rng.negative_binomial(n[more], p[more])
    return out


def _lf_totals(rng, n: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Total offspring of n[r] iid parents with linear-fractional law (a, b)[r];
    P(children) is clipped at 1 against rounding in conditioned laws."""
    j = rng.binomial(n, np.minimum(a / (1.0 - b), 1.0))
    return j + _neg_binomial(rng, j, 1.0 - b)


def _fs_totals(rng, n: np.ndarray, weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Sum of ``values`` (outcomes last) over n[r] iid outcomes drawn from
    column r of the (outcomes, rows) ``weights``, by stick breaking: outcome
    i takes Binomial(left, P(outcome i | outcome >= i)) of the draws the
    outcomes before it left. A column with no weight left from outcome i on
    puts all its draws there, so an all-zero column draws its first outcome."""
    rest = weights.copy()  # row i: the weight of outcomes i and after, summed from the last
    for i in range(len(rest) - 2, -1, -1):
        rest[i] += rest[i + 1]
    stick = np.divide(weights, rest, out=np.ones_like(rest), where=rest > 0.0)
    counts = np.empty(weights.shape, dtype=np.int64)
    left = np.array(n, dtype=np.int64)
    for i in range(len(weights) - 1):
        counts[i] = rng.binomial(left, stick[i])
        left -= counts[i]
    counts[-1] = left
    return values @ counts


def _generation(model, col, lu_child, lu_parent, z, d, rng):
    """Children of one generation, as per-replicate totals.

    Replicate r has z[r] prolific and d[r] doomed parents in component
    col[r]; ``lu_child`` and ``lu_parent`` are the log survival
    probabilities of a child and of a parent. Returns the prolific and the
    doomed children. With ``d`` None only the prolific children are drawn
    (the skeleton) and the doomed total is None.
    """
    x = -np.expm1(lu_child)
    table = _step_table(model)
    z_next = np.zeros_like(z)
    d_next = None if d is None else np.zeros_like(z)
    lf = table.lf[col]
    rows = slice(None)  # every row is finite-support: no copies
    if lf.any():
        ai, bi, xi, zi = table.a[col[lf]], table.b[col[lf]], x[lf], z[lf]
        geo_p = 1.0 - bi * xi
        j = zi + _neg_binomial(rng, zi, (1.0 - bi) / geo_p)
        z_next[lf] = j
        if d is not None:
            x_par = -np.expm1(lu_parent[lf])
            a_doomed = np.divide(ai * xi, x_par, out=np.zeros_like(xi), where=x_par > 0.0)
            d_next[lf] = _neg_binomial(rng, j + zi, geo_p) + _lf_totals(rng, d[lf], a_doomed, bi * xi)
        rows = ~lf
        if not rows.any():
            return z_next, d_next
    fs, xf, uf = col[rows], x[rows], np.exp(lu_child[rows])
    sizes = np.arange(len(table.pmf))
    if d is None:
        z_next[rows] = _fs_totals(rng, z[rows], _prolific_weights(table.pmf[:, fs], xf, uf), sizes[1:])
        return z_next, d_next
    j, doomed = table.outcomes
    x_powers = _powers(xf, len(sizes))
    weights = table.joint[:, fs] * _powers(uf, len(sizes) - 1)[j - 1] * x_powers[doomed]
    z_next[rows], born_doomed = _fs_totals(rng, z[rows], weights, table.outcomes)
    d_next[rows] = born_doomed + _fs_totals(rng, d[rows], table.pmf[:, fs] * x_powers, sizes)
    return z_next, d_next


def _powers(x, count):
    """(count, rows) table of x**0 .. x**(count-1) per row, by count - 1 multiplies."""
    out = np.empty((count, len(x)))
    out[0] = 1.0
    for i in range(1, count):
        np.multiply(out[i - 1], x, out=out[i])
    return out


def _prolific_weights(pmf, x, u):
    """Weights u^(j-1) sum_c p_c C(c,j) x^(c-j) of j = 1..T-1 prolific
    children of a prolific parent, the joint outcomes merged over c, for
    the (T, rows) pmfs ``pmf`` (overwritten). The sums over c are the
    coefficients of the pgf f(x + s) in s, taken by the Taylor shift of f
    by x: T(T-1)/2 multiply-adds, with no binomial coefficient."""
    top = len(pmf) - 1
    for i in range(top):
        for c in range(top - 1, i - 1, -1):
            pmf[c] += x * pmf[c + 1]
    power = u.copy()
    for j in range(2, top + 1):
        pmf[j] *= power
        power *= u
    return pmf[1:]


def conditioned_binomial_positive(k: int, log_q: np.ndarray, rng) -> np.ndarray:
    """Draw J of ``surviving_lines`` per replicate by inverse CDF, one uniform
    each for k > 1 and none for k = 1; q = 0 (weight zero) draws 1."""
    picks = np.ones(len(log_q), dtype=np.int64)
    u = rng.random(len(log_q)) if k > 1 else None  # k = 1 reads no line and draws nothing
    cdf = np.zeros(len(log_q))
    for _, line in zip(range(1, k), surviving_lines(log_q, k)):
        cdf += line
        picks += u >= cdf
    return picks


# --- populations sampled given the conditioned draw ----------------------------


def _sample_populations(env, log_q, lu, k, generations, dressed, seed, purpose):
    """Populations of every replicate of the environments ``env``, given the
    log survival probability ``log_q`` of one particle to the horizon and
    the log survival profile ``lu``.

    The lines of the k initial particles alive at the horizon are drawn by
    ``conditioned_binomial_positive``, then ``generations`` generations by
    ``_generation``. The skeleton (``dressed`` false) steps the prolific
    individuals alone and keeps the last generation's count; the dressed
    trajectories also draw the doomed individuals and keep the totals Z_0..
    Z_generations. Rows that pass ``POPULATION_CAP`` are frozen at zero and
    flagged. Chunk i of the rows draws from stream (seed, purpose + "-pop",
    i). Returns (sizes, overflow mask).
    """
    model, idx = env.model, env.idx

    def chunk(rng, count, start):
        rows = slice(start, start + count)
        prolific = conditioned_binomial_positive(k, log_q[rows], rng)
        doomed = k - prolific if dressed else None
        sizes = [np.full(count, k)]
        overflow = np.zeros(count, dtype=bool)
        for i in range(generations):
            prolific, doomed = _generation(
                model, idx[rows, i], lu[rows, i + 1], lu[rows, i], prolific, doomed, rng
            )
            over = (prolific if doomed is None else prolific + doomed) > POPULATION_CAP
            overflow |= over
            prolific[over] = 0
            if dressed:
                doomed[over] = 0
                sizes.append(prolific + doomed)
        return (np.stack(sizes, axis=1) if dressed else prolific), overflow

    return streams.run_chunks(chunk, len(log_q), seed, f"{purpose}-pop")


@dataclass(frozen=True)
class YaglomEstimate:
    """Law of the population at the horizon given survival.

    For an all-LF model ``pmf`` holds atoms 1..YAGLOM_ATOMS and
    ``tail_mass`` the mass above them, both integrated exactly per
    environment. Otherwise ``pmf`` holds the sampled sizes and ``tail_mass``
    the weight of replicates that passed ``POPULATION_CAP``.
    """

    k: int
    n: int
    pmf: dict[int, tuple[float, float]]  # size -> (estimate, SE)
    s_grid: tuple[float, ...]
    pgf_values: tuple[float, ...]
    tail_mass: float
    effective_events: float
    reps_used: int
    method: str
    seed_info: str


def yaglom(
    model: EnvironmentModel,
    k: int,
    n: int,
    reps: int,
    seed: int = 0,
) -> YaglomEstimate:
    """Estimate the law of Z_n given Z_n > 0, starting from k particles.

    Environments come from ``draw_conditioned_env``, each weighted by
    (importance weight) x P(survival | environment). For an all-LF model the
    conditioned law of each environment has a closed form
    (``lfexact.conditioned_law``), and the estimate is its weighted mean.
    Otherwise each environment carries one sample of Z_n, the skeleton of
    ``_sample_populations``: the number of surviving initial lineages is an
    exactly-sampled conditioned binomial, and each surviving lineage's
    population an exact skeleton sample.
    """
    cond, method, (pmf, pgf_values, tail_mass) = _yaglom_law(model, k, n, reps, seed, S_GRID)
    return YaglomEstimate(
        k=k,
        n=n,
        pmf=pmf,
        s_grid=S_GRID,
        pgf_values=pgf_values,
        tail_mass=tail_mass,
        effective_events=cond.effective_events,
        reps_used=cond.reps_used,
        method=method,
        seed_info=cond.seed_info,
    )


def _yaglom_law(model, k, n, reps, seed, s_grid):
    """The conditioned draw of ``yaglom``, its method label and the law it
    gives: (pmf, pgf values at ``s_grid``, tail mass)."""
    purpose = f"yaglom-k{k}-n{n}"
    cond = draw_conditioned_env(model, k, n, reps, seed, purpose)
    if model.all_linear_fractional:
        return cond, f"{cond.method}+closed-form", _closed_form_law(cond, k, s_grid)
    lu = log_survival_profile(model, cond.env)
    z, overflow = _sample_populations(cond.env, cond.log_q, lu, k, n, False, seed, purpose)
    return cond, cond.method, _sampled_law(z, overflow, cond.survive_w, s_grid)


def _sampled_law(z, overflow, survive_w, s_grid):
    """(pmf, pgf values at ``s_grid``, tail mass) of the sampled sizes ``z``
    weighted by ``survive_w``; overflowed rows are the tail mass, and the pmf
    mass is scaled so that pmf + tail mass accounts for all weight."""
    total_w = float(np.sum(survive_w))
    kept = np.where(overflow, 0.0, survive_w)
    ok = ~overflow
    ok_fraction = float(np.sum(kept)) / total_w if total_w > 0 else 0.0
    pmf = {
        size: (p * ok_fraction, se * ok_fraction)
        for size, (p, se) in weighted_pmf(z[ok], survive_w[ok]).items()
    }
    pgf_values = tuple(
        1.0 if s >= 1.0 else float(np.sum(kept * np.power(s, z)) / total_w) for s in s_grid
    )
    return pmf, pgf_values, 1.0 - ok_fraction


def _closed_form_law(cond, k, s_grid):
    """(pmf, pgf values at ``s_grid``, tail mass) of an all-LF draw: the
    weighted mean over environments of the closed-form conditioned law, atoms
    1..YAGLOM_ATOMS and the pgf, from the weighted sums of ``conditioned_law``."""
    w = unit_scaled(cond.survive_w)
    moments, pgf_sum = conditioned_law(cond.log_q, cond.env.s_n, k, w, YAGLOM_ATOMS, s_grid)
    values, ses = weighted_means_and_se(moments, w)
    pgf_values = pgf_sum / float(w.sum())
    return (
        {z: (float(v), float(se)) for z, v, se in zip(range(1, YAGLOM_ATOMS + 1), values, ses)},
        tuple(1.0 if s >= 1.0 else float(g) for s, g in zip(s_grid, pgf_values)),
        max(0.0, 1.0 - math.fsum(values)),
    )


def conditioned_population_by_rejection(
    model: EnvironmentModel,
    k: int,
    n: int,
    accepted: int,
    seed: int = 0,
) -> np.ndarray:
    """Brute-force oracle: simulate whole populations, keep survivors.

    Only usable at short horizons where survival is not rare; validates the
    skeleton sampler. Chunk i draws ``streams.CHUNK_SIZE`` environments and
    populations from stream (seed, "yaglom-reject", i); the first
    ``accepted`` survivors in chunk order are kept.
    """
    kept = [np.zeros(0, dtype=np.int64)]
    found = index = 0
    while found < accepted:
        if index * streams.CHUNK_SIZE >= REJECTION_MAX_ATTEMPTS:
            raise ConditioningStarvationError(float(found), float(accepted))
        rng = streams.stream(seed, "yaglom-reject", index)
        batch = draw_env_batch(model, n, rng, streams.CHUNK_SIZE)
        totals = evolve_lineages(model, batch.idx, k, rng)[:, -1].sum(axis=1)
        kept.append(totals[totals > 0])
        found += len(kept[-1])
        index += 1
    return np.concatenate(kept)[:accepted]


def functional_residual(
    model: EnvironmentModel, k: int, n: int, reps: int, seed: int = 0
) -> tuple[float, dict[float, float]]:
    """Residual |E[G(f(s))] - gamma G(s) - (1 - gamma)| of the stationarity
    equation of the Yaglom law at each s of ``S_GRID``; returns (max, curve).

    G is the conditioned pgf of the draw ``yaglom(model, k, n, reps, seed)``
    makes, read exactly at s and at every component's f_c(s) from that draw,
    and gamma is the decay rate of ``regime.solve_alpha``.
    """
    points = list(S_GRID) + [pgf(law, s) for law in model.laws for s in S_GRID]
    _, _, (_, values, _) = _yaglom_law(model, k, n, reps, seed, points)
    g = np.reshape(values, (-1, len(S_GRID)))  # row 0 holds G(s), row c G(f_c(s))
    gamma = solve_alpha(model)[1]
    residual = np.abs(np.einsum("c,cs->s", model.weights, g[1:]) - (gamma * g[0] + (1.0 - gamma)))
    return float(residual.max()), dict(zip(S_GRID, residual.tolist()))


# --- size-biased one-step kernel (SS / IS) -------------------------------------


@dataclass(frozen=True)
class QKernelRow:
    """One row of the survival-conditioned chain's transition kernel."""

    state: int
    probs: np.ndarray  # probs[m] = P(next = m), m = 0..cap (ceil at cap)
    tail_mass: float

    @property
    def row_sum(self) -> float:
        return float(self.probs.sum())


def _kernel_rows(model: EnvironmentModel, cap: int):
    """Yield row y = 1, 2, ... of the unbiased kernel, sum_c w_c pmf_c^{*y}
    on 0..cap. Each component's power is stepped from the one before by
    one more particle of its family, read from ``_step_table``: a
    finite-support law convolves its trimmed pmf; an LF law has P(X = 0) =
    1 - a with a = A/(1-B) and P(X = j) = A B^(j-1), so the new power is
    (1 - a) power + A g, g_i = power_(i-1) + B g_(i-1), the geometric sum
    taken by doubling until B**s underflows. Every term is positive, so
    nothing cancels."""
    table = _step_table(model)
    pmfs = [np.trim_zeros(pmf, "b") for pmf in table.pmf.T]
    steps = list(zip(table.lf.tolist(), table.a.tolist(), table.b.tolist(), pmfs))
    powers = np.zeros((len(pmfs), cap + 1))
    powers[:, 0] = 1.0
    while True:
        for power, (lf, a, b, pmf) in zip(powers, steps):
            if not lf:
                power[:] = np.convolve(power, pmf)[: cap + 1]
                continue
            g = np.zeros(cap + 1)
            g[1:] = power[:-1]
            s = 1
            while s <= cap and b**s > 0.0:
                g[s:] += b**s * g[:-s]
                s *= 2
            power *= 1.0 - a / (1.0 - b)
            power += a * g
        yield model.weights @ powers


def qprocess_kernel(
    model: EnvironmentModel, kernel_state: int, state_cap: int = DEFAULT_STATE_CAP
) -> QKernelRow:
    """Exact one-step kernel row, from ``kernel_state``, of the chain
    conditioned to survive forever.

    Only the strongly and intermediate subcritical regimes admit this closed
    form (size-biased, rate-normalized one-step law); weakly subcritical
    models are rejected because the size-bias weights there are not
    computable in closed form. The row takes ``kernel_state`` steps of
    ``_kernel_rows``; a state past ``state_cap`` has no row inside the
    capped kernel and is rejected.
    """
    if kernel_state < 1:
        raise ValidationError(
            f"kernel_state must be >= 1, got {kernel_state}", field="kernel_state"
        )
    if regime_of(model) == "WS":
        raise ValidationError(
            "no exact kernel in the weakly subcritical regime", field="model"
        )
    if kernel_state > state_cap:
        raise ValidationError(
            f"kernel_state must be <= the state cap {state_cap}, got {kernel_state}",
            field="kernel_state",
        )
    gamma = expected_mean(model)
    base = next(itertools.islice(_kernel_rows(model, state_cap), kernel_state - 1, None))
    row = base * np.arange(state_cap + 1) / (kernel_state * gamma)
    return QKernelRow(
        state=kernel_state, probs=row, tail_mass=max(0.0, 1.0 - float(row.sum()))
    )


@dataclass(frozen=True)
class QProcessRun:
    """Trajectory summaries of the survival-conditioned chain."""

    regime: str
    method: str  # exact kernel law or chain, or finite-horizon approximation
    horizon: int
    medians: tuple[float, ...]  # per generation, smallest z with P(Y_t <= z) >= 1/2
    final_pmf: dict[int, tuple[float, float]] | None
    overflow_mass: float
    reps: int
    seed_info: str | None  # None for the exact kernel law, which draws nothing


def _chain_states(model, k, horizon) -> int | None:
    """The largest state that Y_horizon of the SS/IS chain can reach from k,
    k * top**horizon with top the largest offspring count, for an
    all-finite-support model where it is at most ``EXACT_CHAIN_STATES``;
    None otherwise."""
    table = _step_table(model)
    if table.lf.any():
        return None
    top = len(table.pmf) - 1
    # past that many generations top**t > EXACT_CHAIN_STATES whenever top >= 2
    states = k * top ** min(horizon, EXACT_CHAIN_STATES.bit_length())
    return states if states <= EXACT_CHAIN_STATES else None


def _exact_chain_law(model, gamma, k, horizon, states):
    """Law of Y_0..Y_horizon of the SS/IS chain from k, exactly, on states
    0..``states``: pi_{t+1} = pi_t P, where row y of P is sum_c w_c pmf_c^{*y},
    size-biased by b / (y gamma). A parent has at most top = T - 1
    children, so before the horizon the chain is in states up to
    states // top only; those rows are taken in turn from ``_kernel_rows``."""
    top = len(_step_table(model).pmf) - 1
    sizes = np.arange(states + 1)
    kernel = np.zeros((states + 1, states + 1))
    for y, row in zip(range(1, states // top + 1), _kernel_rows(model, states)):
        kernel[y] = row * sizes / (y * gamma)
    law = np.zeros(states + 1)
    law[k] = 1.0
    laws = [law]
    for _ in range(horizon):
        laws.append(laws[-1] @ kernel)
    medians = _medians(
        (lambda z, cdf=np.cumsum(law): float(1.0 - cdf[min(z, states)]) for law in laws), 1.0
    )
    return medians, {int(b): (float(p), 0.0) for b, p in enumerate(laws[-1]) if p > 0.0}


def qprocess_run(
    model: EnvironmentModel,
    k: int,
    horizon: int,
    reps: int,
    seed: int = 0,
) -> QProcessRun:
    """Simulate the chain conditioned to survive in the distant future.

    SS/IS: the exact one-step kernel drives the chain. Where the chain's
    states are bounded (``_chain_states``) its law is computed exactly and
    nothing is drawn. Otherwise ``reps`` environments are drawn under the
    mean-size-biased tilt and the populations are sampled given them by
    ``_sample_populations`` with u = 0 at every generation: one prolific
    spine, whose children are size-biased, and doomed particles with the
    plain law. WS: no exact kernel exists, so Z_t is conditioned on survival
    ``QPROCESS_LOOKAHEAD`` generations past the horizon (finite-horizon
    approximation, labeled as such in the output). One conditioned draw and
    its survival profile serve both WS laws: for an all-LF model each median
    comes from the exact conditioned tails of the drawn environments;
    otherwise the dressed trajectories of ``_sample_populations`` are sampled
    given them.
    """
    check_k(k)
    if horizon < 0:
        raise ValidationError(f"horizon must be >= 0, got {horizon}", field="horizon")
    regime = regime_of(model)
    if regime in ("SS", "IS"):
        gamma = expected_mean(model)
        if gamma == 0.0:
            raise ValidationError("no chain survives: every component has mean 0", field="model")
        states = _chain_states(model, k, horizon)
        if states is not None:
            streams.check_reps_and_seed(reps, seed)
            medians, final_pmf = _exact_chain_law(model, gamma, k, horizon, states)
            return QProcessRun(
                regime=regime,
                method="exact-kernel-law",
                horizon=horizon,
                medians=medians,
                final_pmf=final_pmf,
                overflow_mass=0.0,
                reps=reps,
                seed_info=None,
            )
        # the spine's environments follow the mean-size-biased law w m / gamma,
        # the tilt by m; built here because tilt_plan rejects a model with a
        # zero-mean component, to which this law gives weight 0
        plan = TiltPlan(1.0, gamma, model.weights * model.means / gamma)
        method, purpose = "exact-kernel-chain", "qprocess"
        (slots,) = streams.run_chunks(
            lambda rng, count, start: (draw_env_batch(model, horizon, rng, count, plan).slots,),
            reps, seed, purpose,
        )
        # a particle's chance u to reach the distant future tends to 0, and the
        # conditioned population keeps one prolific particle, the spine
        env, log_q, w = EnvBatch(model, horizon, slots, plan), np.full(reps, -np.inf), np.ones(reps)
        lu = np.broadcast_to(-np.inf, (reps, horizon + 1))
        seed_info = streams.seed_provenance(seed, purpose)
    else:
        # WS: conditioned on survival QPROCESS_LOOKAHEAD generations past the horizon
        method = f"finite-horizon-approximation(lookahead={QPROCESS_LOOKAHEAD})"
        purpose = f"qtraj-k{k}-h{horizon}"
        cond = draw_conditioned_env(model, k, horizon + QPROCESS_LOOKAHEAD, reps, seed, purpose)
        lu = log_survival_profile(model, cond.env)
        env, log_q, w, seed_info = cond.env, cond.log_q, cond.survive_w, cond.seed_info
    total_w = float(w.sum())
    if regime == "WS" and model.all_linear_fractional:
        tails = _marginal_tails(model, k, lu, env.prefix(horizon), env.w)
        medians, final_pmf = _medians((tail.total for tail in tails), total_w), None
        method, overflow_mass = f"{method}+closed-form", 0.0
    else:
        traj, over = _sample_populations(env, log_q, lu, k, horizon, True, seed, purpose)
        medians = _sampled_medians(traj, np.where(over, 0.0, w))
        final_pmf = None if regime == "WS" else weighted_pmf(traj[~over, -1], w[~over])
        overflow_mass = float(np.sum(w[over])) / total_w if total_w > 0 else 0.0
    return QProcessRun(
        regime=regime,
        method=method,
        horizon=horizon,
        medians=medians,
        final_pmf=final_pmf,
        overflow_mass=overflow_mass,
        reps=len(w),
        seed_info=seed_info,
    )


def _marginal_tails(model, k, lu, idx, w):
    """Yield the ``SurvivorTail`` of generations t = 0, 1, ..., idx.shape[1],
    one at a time, of environments with component indices ``idx`` up to
    that generation, log survival profile ``lu`` (column t: from generation
    t to the horizon the tails condition on) and importance weights ``w``."""
    for t, (s, g) in enumerate(lf_forward(model, idx)):
        yield SurvivorTail.of(s, g, lu[:, t], k, w)


def _sampled_medians(traj, w) -> tuple[float, ...]:
    """``_medians`` of the columns of the sampled trajectories ``traj``, rows
    weighted by ``w``: the tail of column t is z -> sum of w over Y_t > z."""
    return _medians([lambda z, col=col: float(w[col > z].sum()) for col in traj.T], float(w.sum()))


def _medians(tails, total: float) -> tuple[float, ...]:
    """The ``_tail_median`` of each tail in turn: per generation, the
    smallest z with weighted P(Y_t <= z) >= 1/2. Each search starts from the
    median before it plus that median's step from the one before. NaN at
    every generation when ``total`` is 0."""
    if total == 0.0:
        return tuple(math.nan for _ in tails)
    medians, guess = [], 1
    for tail in tails:
        half_at = _tail_median(tail, total, guess)
        guess = max(2 * half_at - int(medians[-1]), 1) if medians else half_at
        medians.append(float(half_at))
    return tuple(medians)


def _tail_median(tail, total: float, guess: int) -> int:
    """Smallest z with tail(z) <= total / 2, where ``tail`` returns the
    weighted tail sum and tail(0) is ``total``: steps from ``guess`` >= 1 by
    doubling strides, the first an eighth of ``guess``, to a bracket, then
    bisects it."""
    half = 0.5 * total
    step = max(guess // 8, 1)
    lo = hi = guess
    if tail(lo) > half:
        while tail(lo + step) > half:
            lo += step
            step *= 2
        hi = lo + step
    else:
        while hi > step and tail(hi - step) <= half:
            hi -= step
            step *= 2
        lo = max(hi - step, 0)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if tail(mid) > half:
            lo = mid
        else:
            hi = mid
    return hi


# --- environment posterior ------------------------------------------------------


@dataclass(frozen=True)
class EnvPosterior:
    """Distribution of the first p environment draws given distant survival."""

    p: int
    per_position: tuple[dict[int, tuple[float, float]], ...]
    joint: dict[tuple[int, ...], tuple[float, float]] | None
    prior: tuple[float, ...]
    effective_events: float
    reps_used: int
    method: str
    seed_info: str | None  # None for the one-step exact case, which draws nothing


def env_posterior(
    model: EnvironmentModel,
    k: int,
    p: int,
    n: int,
    reps: int,
    seed: int = 0,
) -> EnvPosterior:
    """Posterior of the first p environment components given survival at n+p.

    Paths come from ``draw_conditioned_env``, each weighted by its exact
    survival probability from k particles (times its importance weight where
    the draw is tilted); the estimate is a weighted frequency. The p = 1,
    n = 0 case is a one-step exact computation (no sampling).
    """
    check_k(k)
    if p < 1 or p > 5:
        raise ValidationError(f"prefix length must be in 1..5, got {p}", field="p")
    if n < 0:
        raise ValidationError(f"n must be >= 0, got {n}", field="n")
    if n + p > 25:
        raise ValidationError(f"n + p must be <= 25, got {n + p}", field="n")
    ncomp = len(model.components)
    prior = tuple(float(w) for w in model.weights)
    if n == 0 and p == 1:
        raw = [
            w * (1.0 - pgf(law, 0.0) ** k) for law, w in model.components
        ]
        z = math.fsum(raw)
        dist = {i: (r / z, 0.0) for i, r in enumerate(raw)}
        return EnvPosterior(
            p=p,
            per_position=(dist,),
            joint={(i,): v for i, v in dist.items()},
            prior=prior,
            effective_events=math.inf,
            reps_used=0,
            method=METHOD_EXACT,
            seed_info=None,
        )
    cond = draw_conditioned_env(model, k, n + p, reps, seed, f"envpost-p{p}-n{n}")
    prefix, survive_w = cond.env.prefix(p), cond.survive_w
    per_position = []
    for pos in range(p):
        dist: dict[int, tuple[float, float]] = {}
        for comp in range(ncomp):
            num = survive_w * (prefix[:, pos] == comp)
            dist[comp] = ratio_and_se(num, survive_w)
        per_position.append(dist)
    joint = None
    if p <= 3:
        joint = {}
        keys = {tuple(row) for row in prefix.tolist()}
        for key in sorted(keys):
            match = np.all(prefix == np.array(key), axis=1)
            joint[tuple(int(v) for v in key)] = ratio_and_se(survive_w * match, survive_w)
    return EnvPosterior(
        p=p,
        per_position=tuple(per_position),
        joint=joint,
        prior=prior,
        effective_events=cond.effective_events,
        reps_used=cond.reps_used,
        method=cond.method,
        seed_info=cond.seed_info,
    )
