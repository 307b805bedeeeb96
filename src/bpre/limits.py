"""Quasistationary limits: conditioned populations, size-biased kernels,
environment posteriors.

Sampling Z_n given survival is done exactly, per environment, through the
prolific-skeleton decomposition: an individual is prolific when it has a
descendant alive at the horizon, every ancestor of a survivor is prolific,
and given the environment the prolific individuals form a branching process
whose offspring law has an explicit form. Each generation draws, per
replicate, the total children of all its prolific (and doomed) parents in
one step per offspring family: negative binomial and binomial totals for
linear-fractional components, one multinomial draw over the finite-support
outcomes otherwise. This replaces accept/reject on
the survival event, whose acceptance probability decays geometrically in
the horizon. A literal rejection sampler is kept for validation at short
horizons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator

from . import streams
from .environment import EnvironmentModel, draw_env, draw_env_batch
from .errors import (
    ConditioningStarvationError,
    ValidationError,
)
from .lfexact import log_survival_profile
from .offspring import FiniteSupport, LinearFractional, pgf
from .regime import classify
from .simcore import (
    METHOD_ENV_EXACT,
    METHOD_EXACT,
    _any_survive,
    conditioning_tilt,
    evolve_lineages,
    method_name,
    run_conditioned,
)
from .stats import (
    ratio_and_se,
    weighted_median,
    weighted_pmf,
)

DEFAULT_STATE_CAP = 2**14  # largest state of a qprocess_kernel row
# Sampled populations above this size are flagged as overflow and frozen at
# zero. The cap only keeps the aggregate draws inside numpy's samplers:
# binomial and negative_binomial counts stay far below int64, whatever the
# growth of one generation. Cost does not grow with population size.
POPULATION_CAP = 2**32
S_GRID = tuple(float(s) for s in np.linspace(0.0, 1.0, 21))  # where yaglom reports its pgf
REJECTION_MAX_ATTEMPTS = 10**7


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
#   * Finite support: one multinomial draw over the joint (prolific j >= 1,
#     doomed c - j) children of a prolific parent, P ~ p_c C(c,j) u^j x^(c-j),
#     and one over p_c x^c for a doomed parent; the rows that share a
#     component are stepped together.


def _lf_arrays(model) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per component: linear-fractional or not, and A and B (0 otherwise)."""
    laws = model.laws
    is_lf = np.array([isinstance(law, LinearFractional) for law in laws])
    a = np.array([law.A if lf else 0.0 for law, lf in zip(laws, is_lf)])
    b = np.array([law.B if lf else 0.0 for law, lf in zip(laws, is_lf)])
    return is_lf, a, b


def _fs_groups(model, col):
    """(rows, probability vector) of each finite-support component in ``col``
    that can have children; the rows of FiniteSupport((1.0,)) have none."""
    for comp, law in enumerate(model.laws):
        if isinstance(law, FiniteSupport) and len(law.probs) > 1:
            rows = col == comp
            if rows.any():
                yield rows, np.asarray(law.probs)


def _neg_binomial(rng, n: np.ndarray, p: np.ndarray) -> np.ndarray:
    """NegativeBinomial(n, p) per row, 0 where n = 0."""
    out = np.zeros(len(n), dtype=np.int64)
    pos = n > 0
    if pos.any():
        out[pos] = rng.negative_binomial(n[pos], p[pos])
    return out


def _lf_totals(rng, n: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Total offspring of n[r] iid parents with linear-fractional law (a, b)[r];
    P(children) is clipped at 1 against rounding in conditioned laws."""
    j = rng.binomial(n, np.minimum(a / (1.0 - b), 1.0))
    return j + _neg_binomial(rng, j, 1.0 - b)


def _fs_totals(rng, n: np.ndarray, weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Sum of ``values`` over n[r] iid categories drawn from row r of
    ``weights`` (normalized here; an all-zero row draws its first category)."""
    weights = np.atleast_2d(weights).astype(float)
    weights[weights.sum(axis=1) <= 0.0, 0] = 1.0
    counts = rng.multinomial(n, weights / weights.sum(axis=1, keepdims=True))
    return counts @ values


def _pair_table(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Offspring count c, prolific count j (1 <= j <= c) and p_c C(c, j) of
    every joint outcome of a prolific parent with finite-support law."""
    c, j = np.tril_indices(len(probs))
    c, j = c[j >= 1], j[j >= 1]
    coef = probs[c] * np.array([math.comb(ci, ji) for ci, ji in zip(c, j)], dtype=float)
    return c, j, coef


def _generation(model, col, lu_child, lu_parent, z, d, rng):
    """Children of one generation, as per-replicate totals.

    Replicate r has z[r] prolific and d[r] doomed parents in component
    col[r]; ``lu_child`` and ``lu_parent`` are the log survival
    probabilities of a child and of a parent. Returns the prolific and the
    doomed children. With ``d`` None only the prolific children are drawn
    (the skeleton) and the doomed total is None.
    """
    x = -np.expm1(lu_child)
    is_lf, a, b = _lf_arrays(model)
    z_next = np.zeros_like(z)
    d_next = None if d is None else np.zeros_like(z)
    lf = is_lf[col]
    if lf.any():
        ai, bi, xi, zi = a[col[lf]], b[col[lf]], x[lf], z[lf]
        geo_p = 1.0 - bi * xi
        j = zi + _neg_binomial(rng, zi, (1.0 - bi) / geo_p)
        z_next[lf] = j
        if d is not None:
            x_par = -np.expm1(lu_parent[lf])
            a_doomed = np.divide(ai * xi, x_par, out=np.zeros_like(xi), where=x_par > 0.0)
            d_next[lf] = _neg_binomial(rng, j + zi, geo_p) + _lf_totals(rng, d[lf], a_doomed, bi * xi)
    for rows, probs in _fs_groups(model, col):
        c, j, coef = _pair_table(probs)
        u = np.exp(lu_child[rows, None])
        weights = coef * u ** (j - 1) * x[rows, None] ** (c - j)
        born = _fs_totals(rng, z[rows], weights, np.stack([j, c - j], axis=1))
        z_next[rows] = born[:, 0]
        if d is not None:
            sizes = np.arange(len(probs))
            doomed = _fs_totals(rng, d[rows], probs * x[rows, None] ** sizes, sizes)
            d_next[rows] = born[:, 1] + doomed
    return z_next, d_next


def conditioned_binomial_positive(k: int, q: np.ndarray, rng) -> np.ndarray:
    """Draw Binomial(k, q) conditioned to be >= 1, vectorized over q.

    Uses pmf ratios scaled by 1/q so tiny survival probabilities stay exact.
    Rows with q = 0 return 1; they only occur with conditioning weight zero.
    """
    count = len(q)
    if k == 1:
        return np.ones(count, dtype=np.int64)
    js = np.arange(1, k + 1)
    # m_j = C(k,j) q**(j-1) (1-q)**(k-j), proportional to the conditioned pmf
    logs = np.where(q > 0, np.log(q, where=q > 0, out=np.zeros_like(q)), 0.0)
    m = np.empty((count, k))
    for idx, j in enumerate(js):
        m[:, idx] = math.comb(k, int(j)) * np.exp((j - 1) * logs) * (1.0 - q) ** (k - j)
    m[q == 0.0] = 0.0
    m[q == 0.0, 0] = 1.0
    cum = np.cumsum(m, axis=1)
    r = rng.random(count) * cum[:, -1]
    picks = (r[:, None] >= cum).sum(axis=1)
    return (picks + 1).astype(np.int64)


# --- conditioned environment + skeleton sampling ------------------------------


def _evolve_skeleton(model, idx, lu, z0, rng, cap) -> tuple[np.ndarray, np.ndarray]:
    """Evolve prolific counts generation by generation for a whole chunk.

    ``lu`` is the chunk's log survival profile. Returns (final counts,
    overflow mask); overflowed replicates are frozen at zero and must be
    folded into reported tail mass.
    """
    z = z0.astype(np.int64)
    overflow = np.zeros(len(z), dtype=bool)
    for i in range(idx.shape[1]):
        if not z.any():
            break
        z, _ = _generation(model, idx[:, i], lu[:, i + 1], None, z, None, rng)
        over = z > cap
        overflow |= over
        z[over] = 0
    return z, overflow


@dataclass(frozen=True)
class YaglomEstimate:
    """Empirical law of the population at the horizon given survival."""

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

    Per environment draw: the number of surviving initial lineages is an
    exactly-sampled conditioned binomial, each surviving lineage's
    population is an exact skeleton sample, and the replicate carries weight
    (importance weight) x P(survival | environment).
    """
    plan = conditioning_tilt(model)
    purpose = f"yaglom-k{k}-n{n}"

    def chunk(rng, count, start):
        batch = draw_env_batch(model, n, rng, count, plan)
        lu = log_survival_profile(model, batch.idx)
        q = np.exp(lu[:, 0])
        n_alive = conditioned_binomial_positive(k, q, rng)
        z, over = _evolve_skeleton(model, batch.idx, lu, n_alive, rng, POPULATION_CAP)
        return batch.w * _any_survive(q, k), z, over

    (survive_w, z, overflow), reps_used, eff = run_conditioned(chunk, reps, seed, purpose)
    total_w = float(np.sum(survive_w))
    ok = ~overflow
    ok_fraction = float(np.sum(survive_w[ok])) / total_w if total_w > 0 else 0.0
    # pmf mass is scaled so that pmf + tail_mass accounts for all weight
    pmf = {
        size: (p * ok_fraction, se * ok_fraction)
        for size, (p, se) in weighted_pmf(z[ok], survive_w[ok]).items()
    }
    tail_mass = 1.0 - ok_fraction
    pgf_values = []
    for s in S_GRID:
        if s >= 1.0:
            pgf_values.append(1.0)
        else:
            vals = np.where(overflow, 0.0, np.power(s, z))
            pgf_values.append(float(np.sum(survive_w * vals) / total_w))
    return YaglomEstimate(
        k=k,
        n=n,
        pmf=pmf,
        s_grid=S_GRID,
        pgf_values=tuple(pgf_values),
        tail_mass=tail_mass,
        effective_events=eff,
        reps_used=reps_used,
        method=method_name(plan),
        seed_info=streams.seed_provenance(seed, purpose),
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
    skeleton sampler.
    """
    out = []
    attempts = 0
    index = 0
    while len(out) < accepted:
        rng = streams.stream(seed, "yaglom-reject", index)
        index += 1
        for _ in range(4096):
            attempts += 1
            if attempts > REJECTION_MAX_ATTEMPTS:
                raise ConditioningStarvationError(float(len(out)), float(accepted))
            env = draw_env(model, n, rng)
            pops = evolve_lineages(env, k, rng)
            total = int(pops[-1].sum())
            if total > 0:
                out.append(total)
                if len(out) >= accepted:
                    break
    return np.array(out, dtype=np.int64)


def functional_residual(
    estimate: YaglomEstimate, model: EnvironmentModel, gamma: float
) -> tuple[float, dict[float, float]]:
    """Residual of the stationarity equation E[G(f(s))] = gamma*G(s) + 1-gamma.

    G is the estimated conditioned pgf, evaluated off-grid by monotone cubic
    interpolation (shape preserving, so the interpolant stays a plausible
    pgf between grid points).
    """
    grid = np.asarray(estimate.s_grid)
    values = np.asarray(estimate.pgf_values)
    interp = PchipInterpolator(grid, values)
    curve: dict[float, float] = {}
    for s in grid:
        lhs = math.fsum(
            w * float(interp(pgf(law, float(s)))) for law, w in model.components
        )
        rhs = gamma * float(interp(float(s))) + (1.0 - gamma)
        curve[float(s)] = abs(lhs - rhs)
    return max(curve.values()), curve


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


def _component_pmf(law, cap: int) -> np.ndarray:
    if isinstance(law, FiniteSupport):
        pmf = np.zeros(cap + 1)
        upto = min(len(law.probs), cap + 1)
        pmf[:upto] = law.probs[:upto]
        return pmf
    pmf = np.zeros(cap + 1)
    pmf[0] = 1.0 - law.A / (1.0 - law.B)
    j = np.arange(1, cap + 1)
    pmf[1:] = law.A * law.B ** (j - 1.0)
    return pmf


def _convolve(a: np.ndarray, b: np.ndarray, cap: int) -> np.ndarray:
    if len(a) * len(b) > 2**22:  # FFT pays off for long vectors
        from scipy.signal import fftconvolve

        out = fftconvolve(a, b)[: cap + 1]
        return np.clip(out, 0.0, None)
    return np.convolve(a, b)[: cap + 1]


def _convolve_power(pmf: np.ndarray, power: int, cap: int) -> np.ndarray:
    """power-fold convolution truncated to length cap+1 (binary powering)."""
    result = np.zeros(cap + 1)
    result[0] = 1.0
    base = pmf.copy()
    p = power
    while p > 0:
        if p & 1:
            result = _convolve(result, base, cap)
        p >>= 1
        if p:
            base = _convolve(base, base, cap)
    return result


def qprocess_kernel(
    model: EnvironmentModel, state: int, state_cap: int = DEFAULT_STATE_CAP
) -> QKernelRow:
    """Exact one-step kernel of the chain conditioned to survive forever.

    Only the strongly and intermediate subcritical regimes admit this closed
    form (size-biased, rate-normalized one-step law); weakly subcritical
    models are rejected because the size-bias weights there are not
    computable in closed form.
    """
    if state < 1:
        raise ValidationError(f"state must be >= 1, got {state}", field="state")
    report = classify(model)
    if report.regime == "WS":
        raise ValidationError(
            "no exact kernel in the weakly subcritical regime", field="model"
        )
    gamma = report.e_m
    base = np.zeros(state_cap + 1)
    for law, w in model.components:
        base += w * _convolve_power(_component_pmf(law, state_cap), state, state_cap)
    sizes = np.arange(state_cap + 1)
    row = base * sizes / (state * gamma)
    return QKernelRow(
        state=state, probs=row, tail_mass=max(0.0, 1.0 - float(row.sum()))
    )


@dataclass(frozen=True)
class QProcessRun:
    """Trajectory summaries of the survival-conditioned chain."""

    regime: str
    method: str  # exact kernel chain, or finite-horizon approximation
    horizon: int
    medians: tuple[float, ...]  # per-generation median population
    final_pmf: dict[int, tuple[float, float]] | None
    overflow_mass: float
    reps: int
    seed_info: str


def _chain_step(model, gamma, y, rng):
    """One exact kernel step of the chain conditioned to survive forever.

    Picks the component size-biased by its mean, then draws the size-biased
    sum: y-1 plain offspring plus one size-biased offspring (for a
    linear-fractional law, the sum of two shifted geometrics).
    """
    is_lf, a, b = _lf_arrays(model)
    pick_p = model.weights * model.means / gamma
    comp = rng.choice(len(a), size=len(y), p=pick_p / pick_p.sum())
    out = np.empty_like(y)
    lf = is_lf[comp]
    if lf.any():
        bi = b[comp[lf]]
        plain = _lf_totals(rng, y[lf] - 1, a[comp[lf]], bi)
        out[lf] = plain + rng.geometric(1.0 - bi) + rng.geometric(1.0 - bi) - 1
    for rows, probs in _fs_groups(model, comp):
        sizes = np.arange(len(probs))
        biased = sizes * probs
        plain = _fs_totals(rng, y[rows] - 1, probs, sizes)
        out[rows] = plain + rng.choice(len(probs), size=len(plain), p=biased / biased.sum())
    return out


def qprocess_run(
    model: EnvironmentModel,
    k: int,
    horizon: int,
    reps: int,
    seed: int = 0,
    lookahead: int = 10,
) -> QProcessRun:
    """Simulate the chain conditioned to survive in the distant future.

    SS/IS: the exact one-step kernel drives the chain. WS: no exact kernel
    exists, so trajectories are drawn conditioned on survival ``lookahead``
    generations past the horizon (finite-horizon approximation, labeled as
    such in the output).
    """
    report = classify(model)
    if report.regime in ("SS", "IS"):
        gamma = report.e_m
        purpose = "qprocess"

        def chunk(rng, count, start):
            traj = np.empty((count, horizon + 1), dtype=np.int64)
            traj[:, 0] = k
            for i in range(horizon):
                traj[:, i + 1] = _chain_step(model, gamma, traj[:, i], rng)
            return (traj,)

        (traj,) = streams.run_chunks(chunk, reps, seed, purpose)
        medians = tuple(float(np.median(traj[:, i])) for i in range(horizon + 1))
        final_pmf = weighted_pmf(traj[:, -1], np.ones(len(traj)))
        return QProcessRun(
            regime=report.regime,
            method="exact-kernel-chain",
            horizon=horizon,
            medians=medians,
            final_pmf=final_pmf,
            overflow_mass=0.0,
            reps=reps,
            seed_info=streams.seed_provenance(seed, purpose),
        )
    # WS: finite-horizon conditioned simulation
    traj, survive_w, over, reps_used = conditioned_trajectories(
        model, k, horizon, lookahead, reps, seed
    )
    ok = ~over
    total_w = float(np.sum(survive_w))
    medians = tuple(
        weighted_median(traj[ok, i], survive_w[ok]) for i in range(horizon + 1)
    )
    overflow_mass = float(np.sum(survive_w[~ok])) / total_w if total_w > 0 else 0.0
    return QProcessRun(
        regime="WS",
        method=f"finite-horizon-approximation(lookahead={lookahead})",
        horizon=horizon,
        medians=medians,
        final_pmf=None,
        overflow_mass=overflow_mass,
        reps=reps_used,
        seed_info=streams.seed_provenance(seed, _trajectory_purpose(k, horizon)),
    )


def _trajectory_purpose(k: int, horizon: int) -> str:
    """Stream purpose of ``conditioned_trajectories``, which WS
    ``qprocess_run`` also reports."""
    return f"qtraj-k{k}-h{horizon}"


def conditioned_trajectories(
    model: EnvironmentModel,
    k: int,
    horizon: int,
    lookahead: int,
    reps: int,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Population trajectories Z_0..Z_horizon given survival at horizon+lookahead.

    Returns (trajectories, weights, overflow mask, replicates used); weighted
    statistics of the rows approximate the conditioned law.
    """
    plan = conditioning_tilt(model)

    def chunk(rng, count, start):
        batch = draw_env_batch(model, horizon + lookahead, rng, count, plan)
        return _dressed_trajectories(model, k, horizon, batch, rng, POPULATION_CAP)

    (survive_w, traj, over), reps_used, _eff = run_conditioned(
        chunk, reps, seed, _trajectory_purpose(k, horizon)
    )
    return traj, survive_w, over, reps_used


def _dressed_trajectories(model, k, record, batch, rng, cap):
    """Full conditioned population trajectories (prolific + doomed parts).

    Prolific individuals carry the skeleton; each prolific parent also
    spawns doomed children, and doomed subtrees evolve under the
    extinction-conditioned offspring law. Records Z_0..Z_record; returns
    (conditioning weights, trajectories, overflow mask).
    """
    idx = batch.idx
    count = len(idx)
    lu = log_survival_profile(model, idx)
    q = np.exp(lu[:, 0])
    survive_w = batch.w * _any_survive(q, k)
    prolific = conditioned_binomial_positive(k, q, rng)
    doomed = k - prolific
    overflow = np.zeros(count, dtype=bool)
    traj = np.zeros((count, record + 1), dtype=np.int64)
    traj[:, 0] = k
    for i in range(record):
        prolific, doomed = _generation(model, idx[:, i], lu[:, i + 1], lu[:, i], prolific, doomed, rng)
        over = prolific + doomed > cap
        overflow |= over
        prolific[over] = 0
        doomed[over] = 0
        traj[:, i + 1] = prolific + doomed
    return survive_w, traj, overflow


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


def env_posterior(
    model: EnvironmentModel,
    k: int,
    p: int,
    n: int,
    reps: int,
    seed: int = 0,
) -> EnvPosterior:
    """Posterior of the first p environment components given survival at n+p.

    Each drawn path is weighted by its exact survival probability from k
    particles; the estimate is a weighted frequency. The p = 1, n = 0 case
    is a one-step exact computation (no sampling).
    """
    if p < 1 or p > 5:
        raise ValidationError(f"prefix length must be in 1..5, got {p}", field="p")
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
        )

    def chunk(rng, count, start):
        idx = draw_env_batch(model, n + p, rng, count).idx
        q = np.exp(log_survival_profile(model, idx)[:, 0])
        return _any_survive(q, k), idx[:, :p].copy()

    (survive_w, prefix), reps_used, eff = run_conditioned(
        chunk, reps, seed, f"envpost-p{p}-n{n}"
    )
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
        effective_events=eff,
        reps_used=reps_used,
        method=METHOD_ENV_EXACT,
    )
