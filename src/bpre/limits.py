"""Quasistationary limits: conditioned populations, size-biased kernels,
environment posteriors.

For all-linear-fractional models the conditioned laws are not sampled:
each drawn environment contributes its exact law, the Yaglom law through
``lfexact.conditioned_law`` and the marginals of the weakly subcritical
Q-process through ``lfexact.SurvivorTail``. Conditioned populations (the
Yaglom skeleton and the WS Q-process trajectories) are sampled only for
finite-support and mixed models; the SS/IS Q-process steps its exact
kernel for every model.

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
from functools import lru_cache

import numpy as np

from . import streams
from .environment import EnvironmentModel, _read_only, draw_env_batch
from .errors import (
    ConditioningStarvationError,
    ValidationError,
)
from .lfexact import (
    SurvivorTail, _step_table, conditioned_law, lf_forward, log_survival_profile, surviving_lines,
)
from .offspring import FiniteSupport, pgf
from .regime import expected_mean, regime_of
from .simcore import (
    METHOD_EXACT,
    ConditionedEnvSamples,
    check_k,
    draw_conditioned_env,
    evolve_lineages,
)
from .stats import (
    column_moments,
    ratio_and_se,
    weighted_means_and_se,
    weighted_pmf,
)

DEFAULT_STATE_CAP = 2**14  # largest state of a qprocess_kernel row
# Sampled populations above this size are flagged as overflow and frozen at
# zero. The cap only keeps the aggregate draws inside numpy's samplers:
# binomial and negative_binomial counts stay far below int64, whatever the
# growth of one generation. Cost does not grow with population size.
POPULATION_CAP = 2**32
S_GRID = tuple(float(s) for s in np.linspace(0.0, 1.0, 21))  # where yaglom reports its pgf
YAGLOM_ATOMS = 64  # pmf atoms an all-LF yaglom reports; the mass above them is its tail_mass
# replicates per block of the closed-form yaglom. Its per-replicate arrays
# stay at 256 KB or less, which malloc reuses from the heap; at 2048 they
# were mapped afresh and faulted in on every block (about 1000 minor page
# faults per ws-ref yaglom call, a third of its time)
CLOSED_FORM_BLOCK = 512
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
#   * Finite support: one multinomial draw over the joint (prolific j >= 1,
#     doomed c - j) children of a prolific parent, P ~ p_c C(c,j) u^j x^(c-j),
#     and one over p_c x^c for a doomed parent; the rows that share a
#     component are stepped together.


def _fs_groups(model, col):
    """(rows, probability tuple) of each finite-support component in ``col``
    that can have children; the rows of FiniteSupport((1.0,)) have none."""
    for comp, law in enumerate(model.laws):
        if isinstance(law, FiniteSupport) and len(law.probs) > 1:
            rows = col == comp
            if rows.any():
                yield rows, law.probs


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
    """Sum of ``values`` over n[r] iid categories drawn from row r of
    ``weights`` (normalized here; an all-zero row draws its first category)."""
    weights = np.atleast_2d(weights).astype(float)
    weights[weights.sum(axis=1) <= 0.0, 0] = 1.0
    counts = rng.multinomial(n, weights / weights.sum(axis=1, keepdims=True))
    return counts @ values


@lru_cache(maxsize=64)
def _pair_table(probs: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Offspring count c, prolific count j (1 <= j <= c) and p_c C(c, j) of
    every joint outcome of a prolific parent with finite-support law. Cached
    per law, so the arrays are read-only."""
    c, j = np.tril_indices(len(probs))
    c, j = c[j >= 1], j[j >= 1]
    coef = np.array(probs)[c] * np.array([math.comb(ci, ji) for ci, ji in zip(c, j)], dtype=float)
    return _read_only(c), _read_only(j), _read_only(coef)


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
    if lf.any():
        ai, bi, xi, zi = table.a[col[lf]], table.b[col[lf]], x[lf], z[lf]
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
            doomed = _fs_totals(rng, d[rows], np.asarray(probs) * x[rows, None] ** sizes, sizes)
            d_next[rows] = born[:, 1] + doomed
    return z_next, d_next


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


# --- conditioned environment + skeleton sampling ------------------------------


def _evolve_skeleton(model, idx, lu, z0, rng) -> tuple[np.ndarray, np.ndarray]:
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
        over = z > POPULATION_CAP
        overflow |= over
        z[over] = 0
    return z, overflow


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
    Otherwise each environment carries one sample: the number of surviving
    initial lineages is an exactly-sampled conditioned binomial, and each
    surviving lineage's population an exact skeleton sample.
    """
    purpose = f"yaglom-k{k}-n{n}"
    if model.all_linear_fractional:
        return _yaglom_closed_form(model, k, n, reps, seed, purpose)

    def then(batch, lu, rng):
        n_alive = conditioned_binomial_positive(k, lu[:, 0], rng)
        return _evolve_skeleton(model, batch.idx, lu, n_alive, rng)

    cond = draw_conditioned_env(model, k, n, reps, seed, purpose, then)
    (z, overflow), survive_w = cond.drawn, cond.survive_w
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
        effective_events=cond.effective_events,
        reps_used=cond.reps_used,
        method=cond.method,
        seed_info=cond.seed_info,
    )


def _yaglom_closed_form(model, k, n, reps, seed, purpose) -> YaglomEstimate:
    """``yaglom`` of an all-LF model: the weighted mean over environments of
    the closed-form conditioned law, atoms 1..YAGLOM_ATOMS and the pgf,
    integrated one block of CLOSED_FORM_BLOCK replicates at a time."""
    cond = draw_conditioned_env(model, k, n, reps, seed, purpose)
    s_n, log_q = cond.env.s_n, cond.log_q
    # the largest weight in [0.5, 1), so that squared weights do not underflow
    w = np.ldexp(cond.survive_w, -math.frexp(float(cond.survive_w.max()))[1])
    moments = np.zeros((3, YAGLOM_ATOMS))
    pgf_sum = np.zeros(len(S_GRID))
    for lo in range(0, len(w), CLOSED_FORM_BLOCK):
        rows = slice(lo, lo + CLOSED_FORM_BLOCK)
        pmf_rows, pgf_rows = conditioned_law(log_q[rows], s_n[rows], k, YAGLOM_ATOMS, S_GRID)
        moments += column_moments(pmf_rows, w[rows])
        pgf_sum += np.einsum("ij,i->j", pgf_rows, w[rows])
    values, ses = weighted_means_and_se(moments, w)
    pgf_values = pgf_sum / float(w.sum())
    return YaglomEstimate(
        k=k,
        n=n,
        pmf={z: (float(v), float(se)) for z, v, se in zip(range(1, YAGLOM_ATOMS + 1), values, ses)},
        s_grid=S_GRID,
        pgf_values=tuple(1.0 if s >= 1.0 else float(g) for s, g in zip(S_GRID, pgf_values)),
        tail_mass=max(0.0, 1.0 - math.fsum(values)),
        effective_events=cond.effective_events,
        reps_used=cond.reps_used,
        method=f"{cond.method}+closed-form",
        seed_info=cond.seed_info,
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
    estimate: YaglomEstimate, model: EnvironmentModel, gamma: float
) -> tuple[float, dict[float, float]]:
    """Residual of the stationarity equation E[G(f(s))] = gamma*G(s) + 1-gamma.

    G is the estimated conditioned pgf, evaluated off-grid by monotone cubic
    interpolation (shape preserving, so the interpolant stays a plausible
    pgf between grid points).
    """
    from scipy.interpolate import PchipInterpolator

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
    model: EnvironmentModel, kernel_state: int, state_cap: int = DEFAULT_STATE_CAP
) -> QKernelRow:
    """Exact one-step kernel row, from ``kernel_state``, of the chain
    conditioned to survive forever.

    Only the strongly and intermediate subcritical regimes admit this closed
    form (size-biased, rate-normalized one-step law); weakly subcritical
    models are rejected because the size-bias weights there are not
    computable in closed form.
    """
    if kernel_state < 1:
        raise ValidationError(
            f"kernel_state must be >= 1, got {kernel_state}", field="kernel_state"
        )
    if regime_of(model) == "WS":
        raise ValidationError(
            "no exact kernel in the weakly subcritical regime", field="model"
        )
    gamma = expected_mean(model)
    base = np.zeros(state_cap + 1)
    for law, w in model.components:
        base += w * _convolve_power(_component_pmf(law, state_cap), kernel_state, state_cap)
    sizes = np.arange(state_cap + 1)
    row = base * sizes / (kernel_state * gamma)
    return QKernelRow(
        state=kernel_state, probs=row, tail_mass=max(0.0, 1.0 - float(row.sum()))
    )


@dataclass(frozen=True)
class QProcessRun:
    """Trajectory summaries of the survival-conditioned chain."""

    regime: str
    method: str  # exact kernel chain, or finite-horizon approximation
    horizon: int
    medians: tuple[float, ...]  # per generation, smallest z with P(Y_t <= z) >= 1/2
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
    table = _step_table(model)
    pick_p = model.weights * model.means / gamma
    comp = streams.categorical(rng, pick_p / pick_p.sum(), len(y))
    out = np.empty_like(y)
    lf = table.lf[comp]
    if lf.any():
        bi = table.b[comp[lf]]
        plain = _lf_totals(rng, y[lf] - 1, table.a[comp[lf]], bi)
        out[lf] = plain + rng.geometric(1.0 - bi) + rng.geometric(1.0 - bi) - 1
    for rows, probs in _fs_groups(model, comp):
        probs = np.asarray(probs)
        sizes = np.arange(len(probs))
        biased = sizes * probs
        plain = _fs_totals(rng, y[rows] - 1, probs, sizes)
        out[rows] = plain + streams.categorical(rng, biased / biased.sum(), len(plain))
    return out


def qprocess_run(
    model: EnvironmentModel,
    k: int,
    horizon: int,
    reps: int,
    seed: int = 0,
) -> QProcessRun:
    """Simulate the chain conditioned to survive in the distant future.

    SS/IS: the exact one-step kernel drives the chain. WS: no exact kernel
    exists, so Z_t is conditioned on survival ``QPROCESS_LOOKAHEAD``
    generations past the horizon (finite-horizon approximation, labeled as
    such in the output). For an all-LF model each median comes from the
    exact conditioned tails of the drawn environments; otherwise the
    trajectories are sampled.
    """
    check_k(k)
    if horizon < 0:
        raise ValidationError(f"horizon must be >= 0, got {horizon}", field="horizon")
    regime = regime_of(model)
    if regime in ("SS", "IS"):
        gamma = expected_mean(model)
        purpose = "qprocess"

        def chunk(rng, count, start):
            traj = np.empty((count, horizon + 1), dtype=np.int64)
            traj[:, 0] = k
            for i in range(horizon):
                traj[:, i + 1] = _chain_step(model, gamma, traj[:, i], rng)
            return (traj,)

        (traj,) = streams.run_chunks(chunk, reps, seed, purpose)
        ones = np.ones(len(traj))
        return QProcessRun(
            regime=regime,
            method="exact-kernel-chain",
            horizon=horizon,
            medians=_sampled_medians(traj, ones),
            final_pmf=weighted_pmf(traj[:, -1], ones),
            overflow_mass=0.0,
            reps=reps,
            seed_info=streams.seed_provenance(seed, purpose),
        )
    # WS: finite-horizon conditioned laws
    method = f"finite-horizon-approximation(lookahead={QPROCESS_LOOKAHEAD})"
    if model.all_linear_fractional:
        return _qprocess_closed_form(model, k, horizon, reps, seed, method)
    cond = conditioned_trajectories(model, k, horizon, QPROCESS_LOOKAHEAD, reps, seed)
    (traj, over), survive_w = cond.drawn, cond.survive_w
    total_w = float(np.sum(survive_w))
    overflow_mass = float(np.sum(survive_w[over])) / total_w if total_w > 0 else 0.0
    kept = np.where(over, 0.0, survive_w)
    return QProcessRun(
        regime="WS",
        method=method,
        horizon=horizon,
        medians=_sampled_medians(traj, kept),
        final_pmf=None,
        overflow_mass=overflow_mass,
        reps=cond.reps_used,
        seed_info=cond.seed_info,
    )


def _qprocess_closed_form(model, k, horizon, reps, seed, method) -> QProcessRun:
    """The WS ``qprocess_run`` of an all-LF model: each median is that of the
    weighted mean over the drawn environments of P(Z_t > z, Z_n > 0 |
    environment), n = horizon + QPROCESS_LOOKAHEAD. The draws, escalation
    and provenance are those of ``conditioned_trajectories``; the survival
    profile is read from the record after the draw."""
    cond = draw_conditioned_env(
        model, k, horizon + QPROCESS_LOOKAHEAD, reps, seed, f"qtraj-k{k}-h{horizon}"
    )
    env = cond.env
    lu = log_survival_profile(model, env)
    tails = _marginal_tails(model, k, lu, env.idx[:, :horizon], env.w)
    return QProcessRun(
        regime="WS",
        method=f"{method}+closed-form",
        horizon=horizon,
        medians=_medians(tails, float(cond.survive_w.sum())),
        final_pmf=None,
        overflow_mass=0.0,
        reps=cond.reps_used,
        seed_info=cond.seed_info,
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
    weighted by ``w``: the tail of column t is z -> w (Y_t > z)."""
    return _medians([lambda z, col=col: w[col > z] for col in traj.T], float(w.sum()))


def _medians(tails, total: float) -> tuple[float, ...]:
    """The ``_tail_median`` of each tail in turn, each search started from
    the median before it: per generation, the smallest z with weighted
    P(Y_t <= z) >= 1/2. NaN at every generation when ``total`` is 0."""
    if total == 0.0:
        return tuple(math.nan for _ in tails)
    medians, guess = [], 1
    for tail in tails:
        guess = _tail_median(tail, total, guess)
        medians.append(float(guess))
    return tuple(medians)


def _tail_median(tail, total: float, guess: int) -> int:
    """Smallest z with tail(z).sum() <= total / 2, where tail(0) sums to
    ``total``: steps from ``guess`` >= 1 by doubling strides to a bracket,
    then bisects it."""
    half = 0.5 * total
    step = 1
    lo = hi = guess
    if tail(lo).sum() > half:
        while tail(lo + step).sum() > half:
            lo += step
            step *= 2
        hi = lo + step
    else:
        while hi > step and tail(hi - step).sum() <= half:
            hi -= step
            step *= 2
        lo = max(hi - step, 0)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if tail(mid).sum() > half:
            lo = mid
        else:
            hi = mid
    return hi


def conditioned_trajectories(
    model: EnvironmentModel,
    k: int,
    horizon: int,
    lookahead: int,
    reps: int,
    seed: int = 0,
) -> ConditionedEnvSamples:
    """Population trajectories Z_0..Z_horizon given survival at horizon+lookahead.

    Returns the conditioned draw with ``drawn`` = (trajectories, overflow
    mask); statistics of the rows weighted by ``survive_w`` approximate the
    conditioned law.
    """
    return draw_conditioned_env(
        model, k, horizon + lookahead, reps, seed, f"qtraj-k{k}-h{horizon}",
        lambda batch, lu, rng: _dressed_trajectories(model, k, horizon, batch.idx, lu, rng),
    )


def _dressed_trajectories(model, k, record, idx, lu, rng):
    """Full conditioned population trajectories (prolific + doomed parts).

    Prolific individuals carry the skeleton; each prolific parent also
    spawns doomed children, and doomed subtrees evolve under the
    extinction-conditioned offspring law. ``lu`` is the log survival profile
    of the environments ``idx``. Records Z_0..Z_record; returns
    (trajectories, overflow mask).
    """
    count = len(idx)
    prolific = conditioned_binomial_positive(k, lu[:, 0], rng)
    doomed = k - prolific
    overflow = np.zeros(count, dtype=bool)
    traj = np.zeros((count, record + 1), dtype=np.int64)
    traj[:, 0] = k
    for i in range(record):
        prolific, doomed = _generation(model, idx[:, i], lu[:, i + 1], lu[:, i], prolific, doomed, rng)
        over = prolific + doomed > POPULATION_CAP
        overflow |= over
        prolific[over] = 0
        doomed[over] = 0
        traj[:, i + 1] = prolific + doomed
    return traj, overflow


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
    prefix, survive_w = cond.env.idx[:, :p], cond.survive_w
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
