"""Exact reference values for the benchmark's checks.

Nothing here imports the package under test. A model is a list of
``(law, weight)`` pairs, where a law is ``("lf", A, B)`` (pgf
``1 - A/(1-B) + A*s/(1-B*s)``) or ``("fs", [p0, p1, ...])``.

Most values come from enumerating every environment of a short horizon.
The enumeration runs in survival coordinates, ``u -> 1 - f(1 - u)``, so no
survival probability is formed as a difference of numbers close to 1, and
it accepts complex arguments, which turns annealed pgfs into exact pmf
atoms by a discrete Cauchy integral.
"""

from __future__ import annotations

import math

import numpy as np

# --- models -----------------------------------------------------------------


def geometric_law(m: float):
    """Geometric law with mean m: P(j) = (1/(1+m)) * (m/(1+m))**j."""
    return ("lf", m / (1.0 + m) ** 2, m / (1.0 + m))


def lf_law_b_half(m: float):
    """Linear-fractional law with B = 1/2 and mean m."""
    return ("lf", m / 4.0, 0.5)


# The builtin reference models, written down from their published
# definitions (README table), not taken from the package.
WS_REF = [(geometric_law(math.exp(-2.0)), 0.5), (geometric_law(math.e), 0.5)]
SS_REF = [(lf_law_b_half(0.5), 0.5), (lf_law_b_half(0.25), 0.5)]
# Integer steps of the ws-ref log-mean walk (log e**-2 = -2, log e = 1).
WS_REF_WALK = ((-2, 0.5), (1, 0.5))


def model_from_spec(spec):
    """Oracle model for a config-format inline mixture or a builtin name."""
    if spec == "ws-ref":
        return WS_REF
    if spec == "ss-ref":
        return SS_REF
    model = []
    for comp in spec["components"]:
        law = comp["law"]
        if "lf" in law:
            model.append((("lf", float(law["lf"]["A"]), float(law["lf"]["B"])), comp["weight"]))
        else:
            model.append((("fs", [float(p) for p in law["fs"]]), comp["weight"]))
    return model


def law_mean(law) -> float:
    if law[0] == "lf":
        _, a, b = law
        return a / (1.0 - b) ** 2
    return math.fsum(j * p for j, p in enumerate(law[1]))


def law_pmf(law, size: int) -> np.ndarray:
    """P(0..size-1) of one offspring law."""
    pmf = np.zeros(size)
    if law[0] == "lf":
        _, a, b = law
        pmf[0] = 1.0 - a / (1.0 - b)
        pmf[1:] = a * b ** np.arange(size - 1)
    else:
        probs = law[1][:size]
        pmf[: len(probs)] = probs
    return pmf


def survival_map(law):
    """u -> 1 - f(1 - u), vectorized, valid for complex u with |1 - u| <= 1."""
    if law[0] == "lf":
        _, a, b = law
        return lambda u: a * u / ((1.0 - b) * (1.0 - b + b * u))
    probs = law[1]

    def step(u):
        with np.errstate(divide="ignore"):
            log_dead = np.log1p(-u)
        out = np.zeros_like(u)
        for j, p in enumerate(probs):
            if j and p:
                out = out - p * np.expm1(j * log_dead)
        return out

    return step


def tilt_exponent(model) -> tuple[float, float]:
    """(alpha, gamma): the minimizer of theta -> E[m**theta] on [0, 1] and the
    minimum, by bisection on the increasing derivative."""
    means = [(law_mean(law), w) for law, w in model]

    def dphi(theta):
        return math.fsum(w * m**theta * math.log(m) for m, w in means)

    if dphi(1.0) <= 0.0:
        alpha = 1.0
    else:
        lo, hi = 0.0, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if dphi(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        alpha = 0.5 * (lo + hi)
    return alpha, math.fsum(w * m**alpha for m, w in means)


# --- exhaustive enumeration ---------------------------------------------------


def enumerate_envs(model, n: int, u0, track_walk: bool = False):
    """Every environment of length n with its probability.

    Returns ``(probs, u, s_n)``: ``u[e, j]`` is ``1 - F_n(1 - u0[j])`` in
    environment e, ``s_n[e]`` the sum of its log means (or None). Rows
    number ``len(model)**n``.
    """
    maps = [survival_map(law) for law, _ in model]
    logm = [math.log(law_mean(law)) for law, _ in model]
    probs = np.ones(1)
    u = np.asarray(u0)[None, :]
    s_n = np.zeros(1) if track_walk else None
    for _ in range(n):
        u = np.concatenate([g(u) for g in maps])
        probs = np.concatenate([w * probs for _, w in model])
        if track_walk:
            s_n = np.concatenate([s_n + lm for lm in logm])
    return probs, u, s_n


def survival_probs(model, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(probs, q): quenched single-particle survival to n for every environment."""
    probs, u, _ = enumerate_envs(model, n, np.ones(1))
    return probs, u[:, 0]


def any_survive(q: np.ndarray, k: int) -> np.ndarray:
    """1 - (1 - q)**k without cancellation for small q."""
    with np.errstate(divide="ignore"):
        return -np.expm1(k * np.log1p(-np.minimum(q, 1.0)))


def annealed_survival(model, k: int, n: int) -> float:
    """P(Z_n > 0) from k particles."""
    probs, q = survival_probs(model, n)
    return float(np.dot(probs, any_survive(q, k)))


def joint_survival(model, k: int, n: int) -> float:
    """P(all k initial lineages alive at n)."""
    probs, q = survival_probs(model, n)
    return float(np.dot(probs, q**k))


def lineage_pmf(model, k: int, n: int) -> dict[int, float]:
    """P(j initial lineages alive at n | some alive), j = 1..k."""
    probs, q = survival_probs(model, n)
    alive = float(np.dot(probs, any_survive(q, k)))
    return {
        j: float(np.dot(probs, math.comb(k, j) * q**j * (1.0 - q) ** (k - j))) / alive
        for j in range(1, k + 1)
    }


def env_selection(model, k: int, n: int, eps_grid) -> dict[float, float]:
    """P(quenched survival >= eps | alive from k particles), per eps.

    Raises when some environment's survival lies within 1e-9 (relative) of
    a threshold, where rounding in the program could flip the indicator.
    """
    probs, q = survival_probs(model, n)
    surv = probs * any_survive(q, k)
    out = {}
    for eps in eps_grid:
        if np.any(np.abs(q - eps) <= 1e-9 * eps):
            raise ValueError(f"threshold {eps} is too close to an attained survival value")
        out[float(eps)] = float(np.sum(surv[q >= eps]) / np.sum(surv))
    return out


def annealed_pgf(model, k: int, n: int, points: np.ndarray, batch: int = 256) -> np.ndarray:
    """E[F_n(s)**k] at each (possibly complex) point s, enumerating in
    batches of points to bound memory."""
    out = []
    for lo in range(0, len(points), batch):
        probs, u, _ = enumerate_envs(model, n, 1.0 - points[lo : lo + batch])
        out.append(probs @ ((1.0 - u) ** k))
    return np.concatenate(out)


def _cauchy_points(size: int, radius: float) -> np.ndarray:
    return radius * np.exp(2j * math.pi * np.arange(size) / size)


def _cauchy_coeffs(values: np.ndarray, radius: float, count: int) -> np.ndarray:
    """First ``count`` Taylor coefficients from values on the circle (last axis)."""
    size = values.shape[-1]
    coeffs = np.fft.fft(values, axis=-1) / size
    return (coeffs[..., :count] / radius ** np.arange(count)).real


def conditioning_weights(model, n: int, s_n: np.ndarray) -> np.ndarray:
    """Importance weight of each environment under the program's conditioned
    sampling: draws tilted at alpha (weight gamma**n * exp(-alpha * S_n))
    unless the model is strongly subcritical, where draws are plain."""
    if strongly_subcritical(model):
        return np.ones_like(s_n)
    alpha, gamma = tilt_exponent(model)
    return np.exp(n * math.log(gamma) - alpha * s_n)


def yaglom_law(model, k: int, n: int, s_grid, atoms: int = 8) -> dict:
    """Law of Z_n given Z_n > 0, from k particles.

    ``pgf[i]`` is E[s**Z_n | Z_n > 0] at ``s_grid[i]``; ``pmf[j]`` is
    P(Z_n = j | Z_n > 0) for j = 1..atoms. ``pgf_sd`` and ``pmf_sd`` are the
    standard deviations, per replicate, of the program's self-normalized
    estimates of those values (delta method, under its conditioned sampling
    law), so the standard error at N replicates is ``sd / sqrt(N)``.
    """
    s = np.asarray(s_grid, dtype=float)
    starts = np.concatenate([[1.0], 1.0 - s, 1.0 - s * s])
    probs, u, s_n = enumerate_envs(model, n, starts, track_walk=True)
    dead = (1.0 - u) ** k  # F_n(s)**k: pgf of Z_n from k particles
    surv = any_survive(u[:, 0], k)
    alive = float(np.dot(probs, surv))
    given = (dead - dead[:, :1]) / surv[:, None]  # E[s**Z | env, alive]
    pgf = probs @ (given * surv[:, None]) / alive
    cut = 1 + len(s)
    radius = 0.5
    pts = _cauchy_points(32, radius)
    _, u_c, _ = enumerate_envs(model, n, 1.0 - pts)
    per_env = _cauchy_coeffs((1.0 - u_c) ** k, radius, atoms + 1)[:, 1:]  # P(Z = j | env)
    pmf = (probs @ per_env) / alive
    # Var of sum W (h - mu) / sum W: E'[W**2 E[(h - mu)**2 | env]] / P**2,
    # and E'[W**2 g] = E[w * surv**2 * g] for W = w * surv drawn under the tilt
    mass = probs * conditioning_weights(model, n, s_n) * surv**2
    mu = pgf[1:cut]
    pgf_var = mass @ (given[:, cut:] - 2 * mu * given[:, 1:cut] + mu**2) / alive**2
    pmf_var = mass @ ((1 - 2 * pmf) * per_env / surv[:, None] + pmf**2) / alive**2
    return {
        "alive": alive,
        "pgf": mu,
        "pgf_sd": np.sqrt(np.maximum(pgf_var, 0.0)),
        "pmf": {j + 1: float(p) for j, p in enumerate(pmf)},
        "pmf_sd": {j + 1: float(math.sqrt(max(v, 0.0))) for j, v in enumerate(pmf_var)},
    }


def expected_ess_ratio(model, k: int, n: int) -> float:
    """E[W]**2 / E[W**2] for W = (importance weight) * P(alive | environment):
    the effective sample size per replicate of survival-conditioned sampling."""
    probs, u, s_n = enumerate_envs(model, n, np.ones(1), track_walk=True)
    surv = any_survive(u[:, 0], k)
    mean = float(np.dot(probs, surv))
    second = float(np.dot(probs, conditioning_weights(model, n, s_n) * surv**2))
    return mean * mean / second


# --- survival beyond enumeration -----------------------------------------------


def lf_survival_bracket(model, n: int, ks=(1,), step: float = 2e-4, top: float = 50.0):
    """Rigorous (lower, upper) bounds on P(Z_n > 0) from k particles, for
    each k in ``ks``, for an all-linear-fractional model at any horizon.

    For linear-fractional laws 1/q = R_n with R_0 = 1 and
    R_j = (c + R_{j-1}) / m for the law drawn at step j (c = B/(1-B), m its
    mean); the map is increasing in R. Carrying the law of log R on a grid,
    rounding down at every step gives R below the truth (survival above),
    rounding up gives R above it; beyond ``top`` the first chain clamps and
    the second sends mass to R = infinity.
    """
    grid = np.arange(0.0, top + step, step)
    size = len(grid)
    down_maps, up_maps = [], []
    for law, w in model:
        _, a, b = law
        m = a / (1.0 - b) ** 2
        c = b / (1.0 - b)
        x = np.log(c + np.exp(grid)) - math.log(m)
        down = np.clip(np.floor(x / step).astype(np.int64), 0, size - 1)
        up = np.ceil(x / step).astype(np.int64)
        up = np.where(up >= size, size, np.maximum(up, 0))  # index size: R = inf
        down_maps.append((down, w))
        up_maps.append((up, w))
    lo_mass = np.zeros(size + 1)
    hi_mass = np.zeros(size)
    lo_mass[0] = hi_mass[0] = 1.0
    for _ in range(n):
        hi_mass = sum(
            np.bincount(idx, weights=w * hi_mass, minlength=size) for idx, w in down_maps
        )
        lo_mass = sum(
            np.bincount(idx, weights=w * lo_mass[:size], minlength=size + 1)
            for idx, w in up_maps
        ) + np.concatenate([np.zeros(size), [lo_mass[size]]])
    out = {}
    for k in ks:
        h = any_survive(np.exp(-grid), k)
        out[k] = (float(np.dot(lo_mass[:size], h)), float(np.dot(hi_mass, h)))
    return out


def ss_moment_bracket(model, n: int, power: int = 1, depth: int = 20) -> tuple[float, float]:
    """Rigorous bounds on E[q**power], q the single-particle survival to n,
    for an all-linear-fractional model whose means are all below 1.

    1 - F_n(0) = P_n / D with P_n the product of the means and
    D = 1 + sum_j c_j Q_j (c_j = B_j/(1-B_j), Q_j the product of the means
    after generation j). Tilting each draw by m**power gives
    E[q**power] = E[m**power]**n * E'[D**-power]. The last ``depth``
    generations are enumerated; the rest of D lies in
    [0, Q'_depth * c_max / (1 - m_max)].
    """
    laws = [(law[1] / (1.0 - law[2]) ** 2, law[2] / (1.0 - law[2]), w) for law, w in model]
    m_max = max(m for m, _, _ in laws)
    if m_max >= 1.0:
        raise ValueError("every mean must be below 1")
    c_max = max(c for _, c, _ in laws)
    rate = math.fsum(w * m**power for m, _, w in laws)
    depth = min(depth, n)
    probs = np.ones(1)
    d = np.ones(1)
    q = np.ones(1)
    for _ in range(depth):
        d = np.concatenate([d + c * q for _, c, _ in laws])
        q = np.concatenate([q * m for m, _, _ in laws])
        probs = np.concatenate([probs * w * m**power / rate for m, _, w in laws])
    rest = q * c_max / (1.0 - m_max) if depth < n else 0.0 * q
    scale = math.exp(n * math.log(rate))
    return (
        scale * float(np.dot(probs, (d + rest) ** -power)),
        scale * float(np.dot(probs, d**-power)),
    )


def ss_lineage_bracket(model, k: int, n: int) -> dict[int, tuple[float, float]]:
    """Bounds on P(j initial lineages alive at n | some alive), j = 1..k,
    from the moment bounds: P(N = j) = C(k,j) E[q**j (1-q)**(k-j)],
    expanded binomially and bounded term by term."""
    moments = {p: ss_moment_bracket(model, n, p) for p in range(1, k + 1)}
    joint = {}
    for j in range(1, k + 1):
        lo = hi = 0.0
        for i in range(k - j + 1):
            coef = math.comb(k, j) * math.comb(k - j, i) * (-1) ** i
            m_lo, m_hi = moments[j + i]
            lo += coef * (m_lo if coef > 0 else m_hi)
            hi += coef * (m_hi if coef > 0 else m_lo)
        joint[j] = (max(lo, 0.0), hi)
    den_lo = sum(lo for lo, _ in joint.values())
    den_hi = sum(hi for _, hi in joint.values())
    return {j: (lo / den_hi, min(hi / den_lo, 1.0)) for j, (lo, hi) in joint.items()}


def strongly_subcritical(model) -> bool:
    """E[m log m] < 0."""
    return math.fsum(w * law_mean(law) * math.log(law_mean(law)) for law, w in model) < 0.0


# --- the survival-conditioned chain ---------------------------------------------


def qprocess_ws_cdfs(model, horizon: int, lookahead: int, level: float = 0.75):
    """Law of Z_i given survival to T = horizon + lookahead, from one
    particle, for i = 0..horizon.

    Given Z_i = z, survival to T needs one of z independent particles to
    survive T - i generations of fresh environment, so
    P(Z_i = z, Z_T > 0) = P(Z_i = z) * P_{T-i}(alive | z particles).
    Returns one array per generation: the conditional CDF at z = 0, 1, ...,
    continued until it reaches ``level``.
    """
    total = horizon + lookahead
    p_alive = annealed_survival(model, 1, total)
    cdfs = [np.array([0.0, 1.0])]
    size = 4096
    radius = 0.998
    points = _cauchy_points(size, radius)
    for i in range(1, horizon + 1):
        pmf_i = _cauchy_coeffs(annealed_pgf(model, 1, i, points), radius, size)
        probs, q = survival_probs(model, total - i)
        dead = np.ones_like(q)
        cdf = [0.0]
        acc = 0.0
        z = 0
        while acc < level * p_alive:
            z += 1
            if z >= size:
                raise ValueError("conditioned law reaches beyond the coefficient window")
            dead *= 1.0 - q
            acc += max(pmf_i[z], 0.0) * (1.0 - float(np.dot(probs, dead)))
            cdf.append(acc / p_alive)
        cdfs.append(np.array(cdf))
    return cdfs


def qprocess_ss_laws(model, horizon: int, k: int = 1, cap: int = 200) -> list[np.ndarray]:
    """Law of the size-biased (Q-process) chain Y_t, t = 0..horizon, from k.

    P(Y_t = b) = b * K^t(k, b) / (k * gamma**t) with gamma = E[m] and
    K(z, b) = sum_i w_i p_i^{*z}(b), truncated to states 0..cap.
    """
    gamma = math.fsum(w * law_mean(law) for law, w in model)
    kernel = np.zeros((cap + 1, cap + 1))
    for law, w in model:
        base = law_pmf(law, cap + 1)
        power = np.zeros(cap + 1)
        power[0] = 1.0
        for z in range(cap + 1):
            kernel[z] += w * power
            power = np.convolve(power, base)[: cap + 1]
    sizes = np.arange(cap + 1)
    row = np.zeros(cap + 1)
    row[k] = 1.0
    laws = []
    for t in range(horizon + 1):
        laws.append(sizes * row / (k * gamma**t))
        row = row @ kernel
    return laws


def median_bounds_ok(cdf: np.ndarray, median: float, slack: float) -> bool:
    """Whether ``median`` can be a median of a sample from the law with this
    CDF, allowing each CDF value to be off by ``slack``."""
    lo = int(math.floor(median))
    hi = int(math.ceil(median)) - 1
    f_lo = cdf[lo] if lo < len(cdf) else 1.0
    f_hi = cdf[hi] if 0 <= hi < len(cdf) else (0.0 if hi < 0 else 1.0)
    return f_lo >= 0.5 - slack and f_hi <= 0.5 + slack


# --- the log-mean walk on its lattice ---------------------------------------------


def walk_tail(steps, n: int, x: float) -> float:
    """P(min_{0..n} S_i >= -x) for a walk with integer steps ``(step, prob)``."""
    floor = -math.floor(x)
    dist = {0: 1.0}
    for _ in range(n):
        nxt: dict[int, float] = {}
        for s, p in dist.items():
            for d, w in steps:
                if s + d >= floor:
                    nxt[s + d] = nxt.get(s + d, 0.0) + p * w
        dist = nxt
    return math.fsum(dist.values())


def walk_occupation(steps, n: int, band: int, count: int, x: float) -> float:
    """P(#{i <= n: S_i - min S = band} >= count | min S >= -x), integer steps.

    For each possible minimum level mu, paths stay at or above mu, must
    touch mu, and count their visits to mu + band (capped at ``count``).
    """
    joint = 0.0
    for mu in range(-math.floor(x), 1):
        target = mu + band
        start = (0, int(target == 0), mu == 0)
        dist = {start: 1.0}
        for _ in range(n):
            nxt: dict[tuple, float] = {}
            for (s, visits, touched), p in dist.items():
                for d, w in steps:
                    s2 = s + d
                    if s2 < mu:
                        continue
                    key = (s2, min(count, visits + (s2 == target)), touched or s2 == mu)
                    nxt[key] = nxt.get(key, 0.0) + p * w
            dist = nxt
        joint += math.fsum(p for (s, v, t), p in dist.items() if t and v >= count)
    return joint / walk_tail(steps, n, x)
