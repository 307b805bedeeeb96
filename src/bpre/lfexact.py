"""Exact quenched computations for a fixed environment sequence.

Survival after n generations is 1 - F_n(0) with F_n the composition of the
per-generation pgfs. The composition is iterated in survival coordinates
(and in log space), which keeps full relative precision for horizons far
beyond the point where 1 - F_n(0) underflows intermediate float math. For
all-linear-fractional sequences the same probability also has a closed form
driven by the partial products of the offspring means; both are computed and
cross-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import zip_longest

import numpy as np

from .environment import (
    EnvBatch,
    EnvSequence,
    EnvironmentModel,
    _alias_table,
    _read_only,
    block_length,
    pack_env,
)
from .errors import CrossCheckError, ValidationError
from .offspring import LinearFractional, OffspringLaw, lf_from_moments, moments, pgf

LOG_AGREE_TOL = 1e-8
P_AGREE_TOL = 1e-10


def iterate_F(env: EnvSequence, s: float) -> float:
    """Evaluate the n-fold pgf composition at s (first law outermost)."""
    if not 0.0 <= s <= 1.0:
        raise ValidationError(f"argument must lie in [0, 1], got {s}", field="s")
    x = s
    for law in reversed(tuple(env)):
        x = pgf(law, x)
    return x


def log_survival_env(env: EnvSequence) -> float:
    """log(1 - F_n(0)): ``log_survival`` of the one-row batch whose model
    holds the sequence's distinct laws, in order of first appearance, each
    with weight 1/K."""
    comp = {law: i for i, law in enumerate(dict.fromkeys(env))}
    if not comp:
        return 0.0
    model = EnvironmentModel([(law, 1.0 / len(comp)) for law in comp])
    return float(log_survival(model, np.array([[comp[law] for law in env]]))[0])


def closed_form_log_survival(env: EnvSequence) -> float:
    """log(1 - F_n(0)) for an all-linear-fractional sequence.

    Uses the closed form 1 - F_n(0) = P_n / (1 + sum_j c_j * Q_j) with
    P_n the product of all means, c_j = f_j''(1) / (2 f_j'(1)) and Q_j the
    product of the means after generation j. With S_j the sum of the log
    means through generation j this is
    log q = -logsumexp(-S_n, log c_j - S_j), which never subtracts two
    terms of size S_n.
    """
    laws = tuple(env)
    logs = {}  # per distinct law: (log m, log c)
    for law in set(laws):
        if not isinstance(law, LinearFractional):
            raise ValidationError("closed form requires all-linear-fractional laws")
        m, f2 = moments(law)
        ratio = f2 / (2.0 * m) if m > 0 else 0.0  # = B/(1-B)
        logs[law] = (
            math.log(m) if m > 0 else -math.inf,
            math.log(ratio) if ratio > 0 else -math.inf,
        )
    if not laws:
        return 0.0
    log_m, log_c = np.array([logs[law] for law in laws]).T.copy()
    partial = np.cumsum(log_m)
    if partial[-1] == -math.inf:  # a zero-mean generation
        return -math.inf
    terms = np.concatenate([[-partial[-1]], log_c - partial])
    terms = terms[terms > -math.inf]
    top = terms.max()
    return -float(top + math.log(np.exp(terms - top).sum()))


@dataclass(frozen=True)
class QuenchedSurvival:
    """Survival probabilities for a fixed environment sequence."""

    n: int
    k: int
    p: float  # single-lineage survival 1 - F_n(0)
    log_p: float
    log_p_closed_form: float | None
    p_all_survive: float  # all k lineages alive: p**k
    p_any_survive: float  # at least one alive: 1 - (1-p)**k


def quenched_survival(env: EnvSequence, k: int = 1) -> QuenchedSurvival:
    """Exact survival record; cross-checks the closed form when it applies."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}", field="k")
    laws = tuple(env)
    log_p = log_survival_env(env)
    p = math.exp(log_p)
    log_cf: float | None = None
    if laws and all(isinstance(law, LinearFractional) for law in laws):
        log_cf = closed_form_log_survival(env)
        _check_agreement(log_p, log_cf)
    return QuenchedSurvival(
        n=len(laws),
        k=k,
        p=p,
        log_p=log_p,
        log_p_closed_form=log_cf,
        p_all_survive=math.exp(k * log_p),
        p_any_survive=float(any_survive(log_p, k)),
    )


def _check_agreement(log_p: float, log_cf: float) -> None:
    if log_p == -math.inf and log_cf == -math.inf:
        return
    dp = abs(math.exp(log_p) - math.exp(log_cf))
    dlog = abs(log_p - log_cf)
    if dp > P_AGREE_TOL or dlog > LOG_AGREE_TOL * max(1.0, abs(log_p)):
        raise CrossCheckError(
            f"survival iteration and closed form disagree: "
            f"log {log_p} vs {log_cf} (|dp| = {dp:.3g})"
        )


DOMINANCE_GRID = np.linspace(0.0, 1.0, 101)


def lf_minorant(law: OffspringLaw) -> LinearFractional:
    """Linear-fractional law that dominates the given pgf pointwise.

    The returned law matches f'(1) and has doubled f''(1); its pgf sits above
    the original on [0, 1], so substituting it can only lower survival.
    Dominance is re-verified on a grid as a post-check.
    """
    m, f2 = moments(law)
    if m <= 0.0:
        raise ValidationError(f"law must have positive mean, got {m}", field="law")
    try:
        tilde = lf_from_moments(m, 2.0 * f2)
    except ValidationError:
        raise ValidationError(
            f"no dominating linear-fractional law for mean {m}, f''(1) = {f2}: "
            f"needs f''(1) >= m*(m-1) = {m * (m - 1):.6g}"
        ) from None
    for s in DOMINANCE_GRID:
        if pgf(tilde, float(s)) < pgf(law, float(s)) - 1e-12:
            raise CrossCheckError(
                f"dominance violated at s = {s}: {pgf(tilde, float(s))} < {pgf(law, float(s))}"
            )
    return tilde


# --- surviving lines and the conditioned law of an all-LF environment ----------


def any_survive(log_q: np.ndarray, k: int) -> np.ndarray:
    """P(J >= 1) = 1 - (1 - q)**k of ``surviving_lines`` from log q, stable
    for tiny q; formed in one new array (a scalar for a scalar log q)."""
    q = np.minimum(log_q, 0.0, out=np.empty(np.shape(log_q)))
    return _any_survive(np.exp(q, out=q), k)[()]


def _any_survive(q: np.ndarray, k: int) -> np.ndarray:
    """``any_survive`` from the array q <= 1 itself, formed in place in q."""
    with np.errstate(divide="ignore"):
        np.log1p(np.negative(q, out=q), out=q)
    q *= k
    return np.negative(np.expm1(q, out=q), out=q)


def surviving_lines(log_q: np.ndarray, k: int):
    """Yield P(J = j | J >= 1) for j = 1..k, one array over the replicates at
    a time, where J ~ Binomial(k, e**log_q) counts the lines of k particles
    alive: formed in logs from log C(k, j), (j-1) log q, (k-j) log(1-q) and
    log(P(J >= 1)/q), so that no q and no k lose precision or overflow. k = 1
    yields exact ones, and q = 0 the point mass at j = 1."""
    if k == 1:
        yield np.ones(len(log_q))
        return
    q = np.exp(log_q)
    with np.errstate(divide="ignore", invalid="ignore"):
        # min(e**log q, 1) is e**min(log q, 0), the q of ``any_survive``
        log_norm = np.log(_any_survive(np.minimum(q, 1.0), k) / q)
        # where q is not a normal float, P(J >= 1)/q is k to double precision
        log_norm[~(q >= np.finfo(float).tiny)] = math.log(k)
        # log(1 - q) to an ulp of 1, which is all an exponent needs; -inf at q = 1
        log_fail = np.log(-np.expm1(log_q))
    binom = 1
    for j in range(1, k + 1):
        binom = binom * (k - j + 1) // j  # exact, so its log is good to an ulp
        log_line = math.log(binom) - log_norm
        if j > 1:
            log_line += (j - 1) * log_q
        if j < k:
            log_line += (k - j) * log_fail
        yield np.exp(log_line, out=log_line)


# replicates per block of ``conditioned_law``. Its (atoms, replicates) work
# arrays are allocated once per call and stay at 256 KB or less for 64
# atoms; arrays allocated afresh per block were mapped and faulted in on
# every block, which made the law two to three times slower
CONDITIONED_LAW_BLOCK = 512


def conditioned_law(
    log_q: np.ndarray, s_n: np.ndarray, k: int, w: np.ndarray, atoms: int, s_grid
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted sums of the law of Z_n given Z_n > 0 from k particles, over
    all-LF environments with weights ``w``.

    ``log_q`` and ``s_n`` are each replicate's log survival probability and
    log-mean sum. Given the environment, the number J of surviving lines
    follows ``surviving_lines``, and Z_n - J is NegBin(J, p) with
    p = q e^{-S_n} = 1/(1 + G_n); one line alone is Geometric(p) on
    {1, 2, ...}. With x the pmf of Z_n = 1..atoms of a replicate and G its
    pgf, returns the (3, atoms) sums over the replicates of w x, w**2 x and
    w**2 x**2, and the sums of w G(s) for s in ``s_grid``. Replicates with
    q = 0 have the point mass at 1.

    The replicates are taken CONDITIONED_LAW_BLOCK at a time. In a block,
    the powers (1-p)**m are built by doubling, and line j adds
    w P(J = j) p**j C(z-1, j-1) (1-p)**(z-j) to w x at every z >= j. For
    k = 1, w p is folded into the first power, so the powers are w x itself.
    """
    s = np.asarray(s_grid, dtype=float)[:, None]
    inv_s_less_1 = np.divide(1.0, s, out=np.full_like(s, np.inf), where=s > 0.0) - 1.0
    # row j - 2 holds C(z-1, j-1) at z = j + m, the cumulative product over z
    # of z/(z+1-j) = (m+j)/(m+1)
    m = np.arange(atoms - 1)
    ratios = (m + np.arange(2, min(k, atoms) + 1)[:, None]) / (m + 1)
    choose = np.cumprod(np.hstack([np.ones((len(ratios), 1)), ratios]), axis=1)
    size = min(len(log_q), CONDITIONED_LAW_BLOCK)
    powers = np.empty((atoms, size))
    wx = powers if k == 1 else np.empty((atoms, size))
    buf = None if k == 1 else np.empty((atoms, size))
    with np.errstate(invalid="ignore"):  # -inf - -inf in dead rows
        log_p = np.minimum(np.where(log_q > -np.inf, log_q - s_n, 0.0), 0.0)  # p <= 1
    all_p, all_fail = np.exp(log_p), -np.expm1(log_p)
    sums, pgf_sum = np.zeros((3, atoms)), np.zeros(len(s))
    for lo in range(0, len(log_q), CONDITIONED_LAW_BLOCK):
        rows = slice(lo, lo + CONDITIONED_LAW_BLOCK)
        lq, wb, p, fail = log_q[rows], w[rows], all_p[rows], all_fail[rows]
        count = len(lq)
        lines = surviving_lines(lq, k)
        w_line = wb * next(lines)
        pw = powers[:, :count]
        pw[0] = w_line * p if k == 1 else 1.0
        fail_n, n = fail, 1
        while n < atoms:  # rows [n, 2n) are rows [0, n) times (1-p)**n
            np.multiply(pw[:min(n, atoms - n)], fail_n, out=pw[n:2 * n])
            fail_n, n = fail_n * fail_n, 2 * n
        x = wx[:, :count]
        if k > 1:
            np.multiply(pw, w_line * p, out=x)
        # E[s**Z | env, alive] = sum_j P(J = j) h**j, h = s p / (1 - (1-p) s),
        # formed as p / (p + (1/s - 1)), which is exactly 1 at s = 1
        h = p + inv_s_less_1
        np.divide(p, h, out=h)
        pgf_sum += np.einsum("sr,r->s", h, w_line)
        h_j, p_j = h, p
        for j, line in enumerate(lines, 2):
            w_line = wb * line
            h_j = h_j * h
            pgf_sum += np.einsum("sr,r->s", h_j, w_line)
            p_j = p_j * p
            if j <= atoms:
                # C(z-1, j-1) before the factors below 1, so that no product
                # falls below the term itself, which then underflows no sooner
                part = buf[: atoms + 1 - j, :count]
                np.multiply(pw[: atoms + 1 - j], choose[j - 2, : atoms + 1 - j, None], out=part)
                part *= line * p_j
                part *= wb
                x[j - 1:] += part
        # einsum, not a matrix product, keeps BLAS and its threads out
        sums[0] += np.einsum("ar->a", x)
        sums[1] += np.einsum("ar,r->a", x, wb)
        sums[2] += np.einsum("ar,ar->a", x, x)
    return sums, pgf_sum


# --- Q-process marginals of an all-LF environment -------------------------------


def lf_forward(model: EnvironmentModel, idx: np.ndarray):
    """Yield S_t and G_t for t = 0..n, one generation at a time, of every
    row of the (replicates, n) component indices ``idx`` of an all-LF model.
    The same two arrays are yielded every time, updated in place.

    S_t is the log-mean walk, G_0 = 0 and G_t = m G_{t-1} + c with m and
    c = B/(1-B) of generation t-1's law. From one particle Z_t is 0 with
    probability 1 - pi_t and otherwise Geometric(p) on {1, 2, ...}, with
    pi_t = e^{S_t} / (1 + G_t) and p = 1 / (1 + G_t).
    """
    c = _step_table(model).c
    s = np.zeros(len(idx))
    g = np.zeros(len(idx))
    yield s, g
    for col in np.ascontiguousarray(idx.T):
        s += model.log_means.take(col)
        g *= model.means.take(col)
        g += c.take(col)
        yield s, g


@dataclass(frozen=True)
class SurvivorTail:
    """z -> w P(Z_t > z, Z_n > 0 | environment), from k particles, for each
    all-LF environment of a batch with weight w; ``of`` builds it.

    Given the environment, J ~ Binomial(k, pi_t) lines are alive at t and
    each holds Geometric(p) particles (``lf_forward``), and a particle at t
    has a descendant at n with probability u. Count the particles as the
    failures before the J-th success of Bernoulli(p) trials, rho = 1 - p:
    Z_t > z when i < J of the first z trials succeed, with probability
    b_i(z) = C(z, i) p^i rho^(z-i). Given that, with x = 1 - u, all of them
    die out with probability x^z a^(J-i), where a = x / (1 + rho u / p)
    covers the particles of one line still to finish. Writing
    1 - x^z a^m = (1 - a^m) + (1 - x^z) a^m,
        w P(Z_t > z, Z_n > 0) = sum_{i <= min(z, k-1)} b_i(z) (W_i + (1 - x^z) U_i)
    with W_i = sum_{j>i} w P(J = j) (1 - a^(j-i)) and
    U_i = sum_{j>i} w P(J = j) a^(j-i): some or none of the particles of the
    lines still to finish has a descendant. Every term is positive, so the tail
    keeps its relative precision for tiny u. A call costs one expm1 per
    replicate and one exp per replicate per term.
    """

    log_p: np.ndarray
    log_rho: np.ndarray
    log_x: np.ndarray
    live: np.ndarray  # (k, replicates): W_i, i = 0..k-1
    die: np.ndarray  # (k, replicates): U_i

    @classmethod
    def of(cls, s_t, g_t, log_u, k: int, w) -> "SurvivorTail":
        """The tail at generation t of environments with walk ``s_t``,
        ``g_t`` (``lf_forward``) and log survival ``log_u`` to n."""
        u = np.exp(log_u)
        log_p = -np.log1p(g_t)
        with np.errstate(divide="ignore"):
            log_rho = np.log(g_t) + log_p  # -inf where G = 0: p = 1
            log_x = np.log1p(-u)  # -inf where u = 1
        log_a = log_x - np.log1p(g_t * u)
        log_pi = np.minimum(s_t + log_p, 0.0)  # pi <= 1 against rounding
        a, alive_w = np.exp(log_a), any_survive(log_pi, k)
        alive_w *= w
        # from i = k-1 down, with L_j = w P(J = j) and V_i = sum_{j>i} L_j:
        # U_i = a (L_{i+1} + U_{i+1}), and W_i = (1 - a) R_i with
        # R_i = sum_{j>i} L_j (1 + a + ... + a^(j-i-1)) = V_i + a R_{i+1}
        die, r = np.empty((k, len(a))), np.empty((k, len(a)))
        for i, line in reversed(list(enumerate(surviving_lines(log_pi, k)))):
            line = alive_w * line
            if i == k - 1:  # no line above: U = a L, R = V = L
                v = r[i] = line
                np.multiply(a, line, out=die[i])
                continue
            v = v + line
            np.multiply(a, line + die[i + 1], out=die[i])
            r[i] = v + a * r[i + 1]
        return cls(log_p, log_rho, log_x, r * -np.expm1(log_a), die)

    def __call__(self, z: int) -> np.ndarray:
        """w P(Z_t > z, Z_n > 0 | environment) of every replicate."""
        out = 0.0
        for term, b in self._terms(z):
            term *= b
            out = out + term
        return out

    def total(self, z: int) -> float:
        """The sum of ``self(z)`` over the replicates, without forming it."""
        return float(sum(np.einsum("r,r->", term, b) for term, b in self._terms(z)))

    def _terms(self, z: int):
        """Yield W_i + (1 - x^z) U_i and b_i(z) of every replicate, for
        i = 0..min(z, k-1)."""
        x_z = np.expm1(z * self.log_x) if z else np.zeros(len(self.log_x))  # x^z - 1
        for i in range(min(z, len(self.die) - 1) + 1):
            term = x_z * self.die[i]
            np.subtract(self.live[i], term, out=term)
            log_b = (z - i) * self.log_rho if z > i else np.zeros(len(term))
            if i:
                log_b += i * self.log_p + math.log(math.comb(z, i))
            yield term, np.exp(log_b, out=log_b)


# --- batch kernel -----------------------------------------------------------
#
# Monte Carlo over environments needs, per replicate, the survival profile
# of its environment. One kernel computes it for a whole chunk of
# replicates, keeping the relative precision of tiny survival probabilities.
#
# A linear-fractional step maps u to m*u/(1+c*u), so R = 1/u steps by the
# affine map R -> R/m + c/m, and affine maps compose. For an all-LF model
# the recursion steps a block of generations at once, with the composite
# (1/M, C/M) gathered by the alias slot of the block's code in the
# environment draw (``environment.block_length``): a multiply and an add per
# block, and one log per replicate at the end. Every replicate carries R as
# r * 2**E; when the chunk's largest r passes the model's limit, each r is
# renormalised by frexp. Other models step log u one generation at a time
# by ``_log_step``, every row at once: the family parameters of each
# component sit in one table per model (``_step_table``), gathered by
# component index.


def log_survival_profile(model: EnvironmentModel, env: EnvBatch | np.ndarray) -> np.ndarray:
    """Log survival profiles of a batch of environments.

    ``env`` is an ``EnvBatch``, or (replicates, n) component indices with
    generations left to right. Entry [r, i] of the (replicates, n+1) result
    is the log probability that one individual at generation i has a
    descendant at generation n: column n is 0 and column 0 is the log
    survival probability.
    """
    batch = _as_batch(model, env)
    lu = np.zeros((batch.n + 1, len(batch.slots)))
    lf = _lf_tables(model)
    if lf is None:
        for i, row in _log_steps(model, batch):
            lu[i] = row
        return lu.T
    inv_m, c_m = lf.tables[0]
    state = _Reciprocal(np.ones(len(batch.slots)))
    for lo, hi, block_end in _lf_blocks(model, lf, batch):
        # generations inside the block, stepped one at a time from its end
        for i in range(hi - 1, lo, -1):
            state = state.step(inv_m, c_m, batch.idx[:, i])
            lu[i] = state.log_u()
        lu[lo] = block_end.log_u()
        state = block_end
    return lu.T


def log_survival(model: EnvironmentModel, env: EnvBatch | np.ndarray) -> np.ndarray:
    """Column 0 of ``log_survival_profile``, the log survival probability of
    each replicate, without keeping the profile of earlier generations."""
    batch = _as_batch(model, env)
    lf = _lf_tables(model)
    if lf is None:
        lu = np.zeros(len(batch.slots))
        for _, lu in _log_steps(model, batch):
            pass
        return lu
    state = _Reciprocal(np.ones(len(batch.slots)))
    for _, _, state in _lf_blocks(model, lf, batch):
        pass
    return state.log_u()


def _as_batch(model: EnvironmentModel, env: EnvBatch | np.ndarray) -> EnvBatch:
    return env if isinstance(env, EnvBatch) else pack_env(model, env)


@dataclass(frozen=True)
class _LFTables:
    tables: tuple[tuple[np.ndarray, np.ndarray], ...]  # (1/M, C/M) per block length
    limit: float  # renormalise R once the largest r passes this
    first_test: int  # the first block after which r can pass the limit


@lru_cache(maxsize=8)
def _lf_tables(model: EnvironmentModel) -> _LFTables | None:
    """Composite (1/M, C/M) of every block of 1, ..., b generations of an
    all-LF model, indexed by block code; the first is the per-law (1/m, c/m)
    with c = B / (1 - B). A block with a zero-mean generation has 1/M = inf
    and C/M = 0, so its replicates end with R = inf and log u = -inf. Cached
    per model, so the arrays are read-only.

    With ``bound`` the largest 1/M + C/M of the other blocks, a step from
    r <= limit = 2**1020 / bound stays finite (2**-E <= 1 since 1/u >= 1).
    None for a model that is not all-LF, or whose bound passes 2**1000 (a
    block mean below about 2**-1000); those step log u per generation.

    From R = 1, a step takes max(R, 1) up by at most ``bound`` (and eight
    ulps of rounding), so the first blocks cannot pass the limit and the
    kernel tests r only from block ``first_test`` on; a model with a
    zero-mean component is tested from the first, since R = inf there.
    """
    if not model.all_linear_fractional:
        return None
    m = model.means
    zero = m == 0.0
    inv_m = np.divide(1.0, m, out=np.full(len(m), np.inf), where=~zero)
    c_m = np.divide(_step_table(model).c, m, out=np.zeros(len(m)), where=~zero)
    tables = [(inv_m, c_m)]
    dead = [zero]
    bound = float((inv_m + c_m)[~zero].max(initial=0.0))
    for _ in range(block_length(len(m)) - 1):
        inner_inv, inner_c = tables[-1]
        # inf * 0 happens in blocks zeroed below, overflow is caught by the bound
        with np.errstate(invalid="ignore", over="ignore"):
            outer_inv = (inv_m[:, None] * inner_inv).ravel()
            outer_c = (c_m[:, None] + inv_m[:, None] * inner_c).ravel()
        dead.append((zero[:, None] | dead[-1]).ravel())
        outer_inv[dead[-1]] = np.inf
        outer_c[dead[-1]] = 0.0
        tables.append((outer_inv, outer_c))
        bound = max(bound, float((outer_inv + outer_c)[~dead[-1]].max(initial=0.0)))
    if not bound < 2.0**1000:
        return None
    tables = tuple(tuple(map(_read_only, table)) for table in tables)
    limit = min(2.0**1020 / bound, 2.0**1000)
    # bound >= 1, since 1/u >= 1 after any step from R = 1; growth**j stays
    # below the limit for every block j before first_test
    growth = bound * (1.0 + 2.0**-50)
    first_test = 1 if zero.any() else max(1, math.floor(math.log(limit) / math.log(growth)))
    return _LFTables(tables, limit, first_test)


@dataclass(frozen=True)
class _Reciprocal:
    """R = 1/u of every replicate of a chunk, stored as r * 2**e; e and
    scale = 2**-e stay None until the first renormalisation. Many chunks
    never renormalise (ss-ref at n = 400 does not), and starting from e = 0
    and scale = 1 instead costs them a pass over the chunk per step and per
    log: about 7 % of ``log_survival`` on ws-ref at n = 100."""

    r: np.ndarray
    e: np.ndarray | None = None
    scale: np.ndarray | None = None

    def step(self, inv_m: np.ndarray, c_m: np.ndarray, index: np.ndarray) -> "_Reciprocal":
        """R -> R/M + C/M over the block of each replicate, gathered at its
        ``index`` in the tables."""
        r = inv_m.take(index)
        r *= self.r
        add = c_m.take(index)
        if self.scale is not None:
            add *= self.scale
        r += add
        return _Reciprocal(r, self.e, self.scale)

    def renormalised(self, limit: float) -> "_Reciprocal":
        if not self.r.max(initial=0.0) > limit:
            return self
        r, ex = np.frexp(self.r)
        e = ex.astype(np.int64) if self.e is None else self.e + ex
        return _Reciprocal(r, e, np.ldexp(1.0, -e))

    def log_u(self) -> np.ndarray:
        # 0.0 - x rather than -x: R = 1 gives log u = +0.0, as at generation n
        if self.e is None:
            return 0.0 - np.log(self.r)
        return 0.0 - (np.log(self.r) + self.e * _LN2)


_LN2 = math.log(2.0)


def _lf_blocks(model: EnvironmentModel, lf: _LFTables, batch: EnvBatch):
    """Yield (lo, hi, R at generation lo) for the blocks [lo, hi) of
    generations from last to first, starting from R = 1 at generation n;
    each block steps by the tables of its alias slots (``_lf_slot_tables``)."""
    blocks = list(batch.blocks())[::-1]
    # the last block and the one before it have every block length there is
    tables = {hi - lo: _lf_slot_tables(model, batch.law, hi - lo) for _, lo, hi in blocks[:2]}
    state = _Reciprocal(np.ones(len(batch.slots)))
    for j, (slot, lo, hi) in enumerate(blocks, 1):
        state = state.step(*tables[hi - lo], slot)
        if j >= lf.first_test:
            state = state.renormalised(lf.limit)
        yield lo, hi, state


@lru_cache(maxsize=64)
def _lf_slot_tables(model: EnvironmentModel, law: tuple[float, ...], length: int):
    """(1/M, C/M) of ``_lf_tables`` of the block code in each alias slot of
    blocks of ``length`` generations drawn from ``law``."""
    pick = _alias_table(law, length)[1]
    return tuple(_read_only(table.take(pick)) for table in _lf_tables(model).tables[length - 1])


@dataclass(frozen=True)
class _StepTable:
    """Offspring-family parameters of a model's components (``_step_table``)."""

    lf: np.ndarray  # (L,) True for a linear-fractional component
    a: np.ndarray  # (L,) A of an LF component, 0 otherwise
    b: np.ndarray  # (L,) B of an LF component, 0 otherwise
    c: np.ndarray  # (L,) B / (1 - B) of an LF component, 0 otherwise
    horner: np.ndarray  # (S, L): row i holds coefficient i of g of every component
    # the offspring laws of the finite-support components, zero-padded up to
    # the longest support (T entries); an LF component's column is all zero
    pmf: np.ndarray  # (T, L): row i holds P(X = i)
    joint: np.ndarray  # (J, L): p_c C(c, j) of each joint outcome (c, j), 1 <= j <= c < T
    outcomes: np.ndarray  # (2, J): j and c - j of each joint outcome, ordered by j, then c


@lru_cache(maxsize=8)
def _step_table(model: EnvironmentModel) -> _StepTable:
    """Cached per model, so the arrays are read-only and shared by the
    chunks of every thread. A survival step maps u to u g(1 - u) / (1 + c u):
    a finite-support law has c = 0 and g(d) = sum_i d**i P(X > i), each tail
    summed from the end so that tiny tails keep their relative precision,
    and an LF law has g = m. Zeros pad each column of ``horner`` up to the
    longest, which leaves Horner exact. The population samplers of
    ``limits`` gather each finite-support row's outcome weights from the
    pmfs and the joint outcome table."""
    laws = model.laws
    lf = np.array([isinstance(law, LinearFractional) for law in laws])
    a, b = np.array(
        [(law.A, law.B) if is_lf else (0.0, 0.0) for law, is_lf in zip(laws, lf)]
    ).T.copy()
    coefs = [
        [m] if is_lf
        else [math.fsum(law.probs[i + 1:]) for i in range(max(len(law.probs) - 1, 1))]
        for law, is_lf, m in zip(laws, lf, model.means)
    ]
    horner = np.array(list(zip_longest(*coefs, fillvalue=0.0)))
    fs = {col: law.probs for col, (law, is_lf) in enumerate(zip(laws, lf)) if not is_lf}
    # at least two rows, so that a prolific parent has an outcome even when
    # every finite-support component has mean 0
    pmf = np.zeros((max([2, *map(len, fs.values())]), len(laws)))
    for col, probs in fs.items():
        pmf[: len(probs), col] = probs
    j, c = np.triu_indices(len(pmf) - 1)
    j, c = j + 1, c + 1
    joint = np.array([math.comb(ci, ji) for ci, ji in zip(c, j)], dtype=float)[:, None] * pmf[c]
    outcomes = np.stack([j, c - j])
    return _StepTable(
        *(_read_only(x) for x in (lf, a, b, b / (1.0 - b), horner, pmf, joint, outcomes))
    )


def _log_steps(model: EnvironmentModel, batch: EnvBatch):
    """Yield (i, log u at generation i) for i = n - 1 down to 0 by ``_log_step``."""
    table = _step_table(model)
    lu = np.zeros(len(batch.slots))
    for i in range(batch.n - 1, -1, -1):
        lu = _log_step(table, lu, batch.idx[:, i].astype(np.intp))
        yield i, lu


def _log_step(table: _StepTable, lu: np.ndarray, col: np.ndarray) -> np.ndarray:
    """log(1 - f(1 - u)) = log u + log g(1 - u) - log1p(c u) of every row of
    log u, under the law of its component col[r] in ``table``: one generation
    of the survival recursion, exact down to log u = -inf. No coefficient of
    g is negative and d = 1 - u lies in [0, 1], so nothing cancels, and g(1)
    is the mean, so tiny u needs no branch. log1p is taken only for a model
    with some c > 0; on a row with c = 0 it would subtract an exact 0."""
    d = -np.expm1(lu)
    g = table.horner[-1].take(col)
    for coef in table.horner[-2::-1]:
        g *= d
        g += coef.take(col)
    with np.errstate(divide="ignore"):
        out = lu + np.log(g)
    if table.c.any():
        out -= np.log1p(table.c.take(col) * np.exp(lu))
    return out
