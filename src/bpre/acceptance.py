"""The acceptance gate: exact identities, oracle equivalences, and pinned
trend checks at desk scale.

Each criterion is a check returning (passed, one-line detail), wrapped by
``criterion`` into a function of the seed that returns a timed
CriterionResult; the suite runner prints one pass/fail line per criterion.
The ``fast`` suite runs the thirteen core criteria; ``full`` adds extended
invariant sweeps.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import streams
from .environment import (
    EnvironmentModel,
    EnvSequence,
    draw_env_batch,
    is_ref,
    ss_ref,
    ws_ref,
)
from .errors import ValidationError
from .lfexact import (
    closed_form_log_survival,
    lf_minorant,
    log_survival,
    log_survival_profile,
    quenched_survival,
)
from .limits import functional_residual, qprocess_kernel, qprocess_run, yaglom
from .offspring import FiniteSupport, LinearFractional, moments
from .regime import classify
from .rwalk import ln_tail, ln_tail_exact, occupation_tail, reflected_sum_check
from .simcore import (
    alpha_k_curve,
    conditional_env_survival,
    conditional_lineage_counts,
    inclusion_exclusion_check,
)
from .stats import linear_r_squared, pmf_tv_budget, pmf_tv_distance

DEFAULT_SEED = 20250801

CRITICAL_GEOMETRIC = LinearFractional(0.25, 0.5)  # f(s) = 1/(2-s)
BERNOULLI_MODEL = EnvironmentModel([(FiniteSupport([0.5, 0.5]), 1.0)])

WS_ALPHA_EXACT = math.log(2.0) / 3.0
WS_GAMMA_EXACT = (2.0 ** (-2.0 / 3.0) + 2.0 ** (1.0 / 3.0)) / 2.0


@dataclass(frozen=True)
class CriterionResult:
    label: str
    name: str
    passed: bool
    detail: str
    seconds: float
    budget_seconds: float

    @property
    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} [{self.label}] {self.name}: {self.detail} "
            f"({self.seconds:.2f}s / {self.budget_seconds:.0f}s budget)"
        )


# every criterion by label, in definition order
_REGISTRY: dict[str, Callable[[int], CriterionResult]] = {}


def criterion(label: str, name: str, budget: float):
    """Make a check returning (passed, detail) a criterion: a function of the
    seed returning the timed CriterionResult, registered under ``label``. A
    check that passes but runs past its budget in seconds fails."""

    def wrap(check: Callable[[int], tuple[bool, str]]) -> Callable[[int], CriterionResult]:
        @functools.wraps(check)
        def run(seed: int) -> CriterionResult:
            started = time.perf_counter()
            passed, detail = check(seed)
            elapsed = time.perf_counter() - started
            within_budget = bool(passed) and elapsed < budget
            return CriterionResult(label, name, within_budget, detail, elapsed, budget)

        _REGISTRY[label] = run
        return run

    return wrap


@criterion("C1", "linear-fractional closed form", 1.0)
def criterion_1(seed: int):
    """Closed-form vs iterated survival on the constant critical-geometric
    environment: both equal 1/(1+n) out to n = 1000."""
    # column i of the profile is the survival over 1000 - i generations, so
    # entry n of the reversed row is the survival over n
    model = EnvironmentModel([(CRITICAL_GEOMETRIC, 1.0)])
    iterated = np.exp(log_survival_profile(model, np.zeros((1, 1000), dtype=np.uint8))[0, ::-1])
    worst = 0.0
    laws: list[LinearFractional] = []
    for n in range(1, 1001):
        laws.append(CRITICAL_GEOMETRIC)
        p_closed = math.exp(closed_form_log_survival(EnvSequence(laws)))
        target = 1.0 / (1.0 + n)
        worst = max(worst, abs(iterated[n] - target), abs(p_closed - target))
    # full-record spot checks through the public record type
    for n in (1, 10, 100, 1000):
        qs = quenched_survival(EnvSequence([CRITICAL_GEOMETRIC] * n))
        worst = max(worst, abs(qs.p - 1.0 / (1.0 + n)))
    return worst <= 1e-10, f"max |p - 1/(1+n)| = {worst:.2e} over n <= 1000"


def _minimum_bound_gap(n: int, reps: int, seed: int, prefix: str) -> float:
    """Largest p - exp(running minimum) over environments of the three
    reference models."""
    worst = -math.inf
    for tag, model in (("ss", ss_ref()), ("is", is_ref()), ("ws", ws_ref())):

        def chunk(rng, count, start):
            batch = draw_env_batch(model, n, rng, count)
            log_q = log_survival(model, batch)
            return (np.exp(log_q) - np.exp(batch.walk_minimum()),)

        (gap,) = streams.run_chunks(chunk, reps, seed, f"{prefix}-{tag}")
        worst = max(worst, float(gap.max()))
    return worst


def _dominance_gap(model: EnvironmentModel, n: int, reps: int, seed: int, purpose: str) -> float:
    """Largest p_sub - p when every law is replaced by its dominating
    linear-fractional law, on shared environment draws."""
    tilde = EnvironmentModel([(lf_minorant(law), w) for law, w in model.components])

    def chunk(rng, count, start):
        batch = draw_env_batch(model, n, rng, count)
        base = np.exp(log_survival(model, batch))
        return (np.exp(log_survival(tilde, batch)) - base,)

    (gap,) = streams.run_chunks(chunk, reps, seed, purpose)
    return float(gap.max())


@criterion("C2", "running-minimum survival bound", 10.0)
def criterion_2(seed: int):
    """Survival never exceeds exp(running minimum), path by path."""
    reps = 10**5
    worst = _minimum_bound_gap(30, reps, seed, "c2")
    return worst <= 1e-12, f"max (p - exp(min)) = {worst:.2e} over 3x{reps} paths"


@criterion("C3", "coupling dominance", 5.0)
def criterion_3(seed: int):
    """Substituting each law by its dominating linear-fractional law never
    raises quenched survival."""
    reps = 10**4
    worst = max(
        _dominance_gap(model, 20, reps, seed, f"c3-{tag}")
        for tag, model in (("ss", ss_ref()), ("is", is_ref()), ("ws", ws_ref()))
    )
    return worst <= 1e-12, f"max (p_sub - p) = {worst:.2e} over 3x{reps} paths"


@criterion("C4", "regime solver constants", 1.0)
def criterion_4(seed: int):
    """Regime solver hits the analytic constants of the reference models."""
    ws = classify(ws_ref())
    is_rep = classify(is_ref())
    ss = classify(ss_ref())
    errors = (  # (name, error, tolerance)
        ("ws alpha err", abs(ws.alpha - WS_ALPHA_EXACT), 1e-8),
        ("ws gamma err", abs(ws.gamma - WS_GAMMA_EXACT), 1e-8),
        ("is |E m log m|", abs(is_rep.e_m_log_m), 1e-12),
        ("is gamma err", abs(is_rep.gamma - 0.6), 1e-15),
        ("ss gamma err", abs(ss.gamma - 0.375), 1e-15),
    )
    passed = all(err <= tol for _, err, tol in errors)
    return passed, ", ".join(f"{name} {err:.1e}" for name, err, _ in errors)


@criterion("C5", "inclusion-exclusion identity", 5.0)
def criterion_5(seed: int):
    """Inclusion-exclusion holds path-wise to float rounding."""
    worst = 0.0
    for k in (2, 3, 4):
        report = inclusion_exclusion_check(ss_ref(), k, 10, 10**4, seed=seed)
        worst = max(worst, report.max_pathwise_diff)
    return worst <= 1e-12, f"max path-wise |diff| = {worst:.2e}, k in 2..4"


@criterion("C6", "k-fold survival ratio (SS+IS)", 30.0)
def criterion_6(seed: int):
    """Survival-probability ratio equals the particle count in SS and IS."""
    details = []
    ok = True
    for tag, model in (("ss", ss_ref()), ("is", is_ref())):
        table = alpha_k_curve(model, [2, 3], [20], 10**5, seed=seed)
        for k in (2, 3):
            row = table.at(k, 20)
            gap = abs(row.value - k)
            ok &= gap <= 3.0 * row.combined_se
            details.append(f"{tag} k={k}: gap {gap:.1e} vs 3se {3 * row.combined_se:.1e}")
    return ok, "; ".join(details)


@criterion("C7", "sublinear particle value (WS)", 60.0)
def criterion_7(seed: int):
    """Sublinear growth of the particle-count value in the weak regime."""
    k_list = [2, 4, 8, 16, 32]
    table = alpha_k_curve(ws_ref(), k_list, [20], 10**5, seed=seed)
    vals = [table.at(k, 20).value for k in k_list]
    below = all(v < k for k, v in zip(k_list, vals) if k >= 4)
    slope = float(np.polyfit(np.log(k_list), np.log(vals), 1)[0])
    ok = below and 0.0 < slope < 0.7
    return ok, f"ratios {['%.2f' % v for v in vals]}, log-log slope {slope:.3f}"


@criterion("C8", "surviving-lineage counts", 60.0)
def criterion_8(seed: int):
    """Lineage-count conditioning: single survivor in SS, several in WS."""
    ss_vals = []
    for n in (5, 10, 15, 20):
        dist = conditional_lineage_counts(ss_ref(), 3, n, 10**5, seed=seed + n)
        ss_vals.append(dist.prob_at_least(2))
    ss_ok = all(b < a for a, b in zip(ss_vals, ss_vals[1:])) and ss_vals[-1] < 0.05
    # the WS quantity converges to a positive limit; at moderate replicates
    # the n=15 -> n=20 drift sits inside the noise band, and the no-collapse
    # guards make the stability claim explicit at any replicate count
    d15 = conditional_lineage_counts(ws_ref(), 3, 15, 5000, seed=seed)
    d20 = conditional_lineage_counts(ws_ref(), 3, 20, 5000, seed=seed + 1)
    v15, se15 = d15.pmf[3]
    v20, se20 = d20.pmf[3]
    comb = math.hypot(se15, se20)
    ws_ok = (
        abs(v20 - v15) <= 3.0 * comb and v20 > 3.0 * se20 and v20 > 0.5 * v15
    )
    return (
        ss_ok and ws_ok,
        f"ss P(N>1|alive) at n=20: {ss_vals[-1]:.1e} (decreasing); "
        f"ws P(N=3|alive): {v15:.4f}@15 vs {v20:.4f}@20, 3se {3 * comb:.4f}"
    )


@criterion("C9", "environment selection", 60.0)
def criterion_9(seed: int):
    """Environment selection: favorable environments persist under
    conditioning in WS, and fade as the particle count grows."""
    eps = 0.01
    c1 = conditional_env_survival(ws_ref(), 1, 20, 10**5, [eps], seed=seed)
    c64 = conditional_env_survival(ws_ref(), 64, 20, 10**5, [eps], seed=seed + 1)
    v1, se1 = c1.points[eps]
    v64, se64 = c64.points[eps]
    comb = math.hypot(se1, se64)
    ok = v1 >= 0.5 and (v1 - v64) >= 3.0 * comb
    return (
        ok,
        f"k=1: {v1:.3f} (floor 0.5); k=64: {v64:.3f}; gap {(v1 - v64):.3f} vs 3se {3 * comb:.3f}"
    )


@criterion("C10", "walk-tail oracle equivalence", 60.0)
def criterion_10(seed: int):
    """Monte Carlo tail of the running minimum matches the exact lattice
    oracle; the uniform exponential envelope fits and verifies."""
    ok = True
    worst_z = 0.0
    for n in (8, 16):
        for x in (0.0, 1.0, 2.0):
            exact = ln_tail_exact(ws_ref(), n, x)
            for method in ("env-exact", "tilted-IS"):
                est = ln_tail(ws_ref(), n, x, 10**5, method=method, seed=seed)
                z = abs(est.value - exact) / est.std_error
                worst_z = max(worst_z, z)
                ok &= z <= 4.0
    # envelope: fit the constant on even horizons, verify on odd ones
    rep = classify(ws_ref())
    theta = rep.alpha + 0.1
    ratios = {}
    for n in range(8, 25):
        for x in range(0, 5):
            p = ln_tail_exact(ws_ref(), n, float(x))
            ratios[(n, x)] = p / (math.exp(theta * x) * n**-1.5 * rep.gamma**n)
    c_fit = max(v for (n, _x), v in ratios.items() if n % 2 == 0)
    verify_max = max(v for (n, _x), v in ratios.items() if n % 2 == 1)
    envelope_ok = verify_max <= c_fit
    ok &= envelope_ok
    return ok, f"worst MC z-score {worst_z:.2f}; envelope verify/fit = {verify_max / c_fit:.4f}"


@criterion("C11", "reflected sum and occupation decay", 120.0)
def criterion_11(seed: int):
    """Reflected-sum threshold exists uniformly; occupation counts decay."""
    report = reflected_sum_check(ws_ref(), reps=2 * 10**4, seed=seed)
    vals = []
    for l in (1, 2, 4, 8, 16):
        est = occupation_tail(ws_ref(), 20, 0, l, 1.0, 10**5, seed=seed + l)
        vals.append((l, est.value))
    positive = [(l, v) for l, v in vals if v > 0]
    if len(positive) >= 3:
        slope = float(
            np.polyfit(
                np.log([l for l, _ in positive]), np.log([v for _, v in positive]), 1
            )[0]
        )
    else:
        slope = -math.inf  # decay so fast the tail is already empty
    ok = report.passed and slope <= -0.4
    return ok, f"beta_hat = {report.beta_hat}; occupation log-log slope {slope:.2f}"


@criterion("C12", "quasistationary functional equation", 120.0)
def criterion_12(seed: int):
    """Conditioned-population pgf satisfies the stationarity equation; the
    law does not depend on the particle count in SS."""
    est = yaglom(ss_ref(), 1, 20, 10**5, seed=seed)
    max_res, _ = functional_residual(ss_ref(), 1, 20, 10**5, seed=seed)
    bern_res, _ = functional_residual(BERNOULLI_MODEL, 1, 12, 2000, seed=seed)
    e3 = yaglom(ss_ref(), 3, 20, 10**5, seed=seed + 1)
    tv = pmf_tv_distance(est.pmf, e3.pmf)
    budget = pmf_tv_budget(est.pmf, e3.pmf, est.effective_events, e3.effective_events)
    ok = max_res <= 0.02 and bern_res <= 1e-12 and tv <= 4.0 * budget
    return (
        ok,
        f"max residual {max_res:.4f} (cap 0.02); degenerate-env residual {bern_res:.1e}; "
        f"TV(k=1,k=3) {tv:.4f} vs 4*budget {4 * budget:.4f}"
    )


@criterion("C13", "survival-conditioned chain", 120.0)
def criterion_13(seed: int):
    """Size-biased kernel: normalized rows, the SS chain's limit law, IS
    transience, and the two-step product identity."""
    row_ok = True
    worst_row = 0.0
    for model in (ss_ref(), is_ref()):
        for state in range(1, 11):
            row = qprocess_kernel(model, state)
            dev = abs(row.row_sum - 1.0)
            worst_row = max(worst_row, dev - row.tail_mass)
            row_ok &= dev <= 1e-10 + row.tail_mass
    run = qprocess_run(ss_ref(), 1, 30, 3 * 10**4, seed=seed)
    est = yaglom(ss_ref(), 1, 20, 10**5, seed=seed + 2)
    mean_y = sum(z * p for z, (p, _se) in est.pmf.items())
    size_biased = {z: (z * p / mean_y, z * se / mean_y) for z, (p, se) in est.pmf.items()}
    tv = pmf_tv_distance(run.final_pmf, size_biased)
    budget = pmf_tv_budget(run.final_pmf, size_biased, run.reps, est.effective_events)
    chain_ok = tv <= 4.0 * budget
    run_is = qprocess_run(is_ref(), 1, 30, 4000, seed=seed + 3)
    is_ok = run_is.medians[30] > run_is.medians[10]
    product_err = _product_formula_identity()
    ok = row_ok and chain_ok and is_ok and product_err <= 1e-10
    return (
        ok,
        f"row deviation {worst_row:.1e}; TV chain-vs-size-biased {tv:.4f} "
        f"vs 4*budget {4 * budget:.4f}; IS medians {run_is.medians[10]:.0f}->"
        f"{run_is.medians[30]:.0f}; product identity err {product_err:.1e}"
    )


def _product_formula_identity() -> float:
    """Max error of kernel(k->a)*kernel(a->b) vs the size-biased two-step
    path probability on a small exactly-enumerable mixture."""
    model = EnvironmentModel(
        [
            (FiniteSupport([0.5, 0.3, 0.2]), 0.5),
            (FiniteSupport([0.7, 0.2, 0.1]), 0.5),
        ]
    )
    gamma = classify(model).e_m
    cap = 20
    k = 2

    def pop_pmf(start: int) -> np.ndarray:
        out = np.zeros(cap + 1)
        for law, w in model.components:
            conv = np.array([1.0])
            for _ in range(start):
                conv = np.convolve(conv, np.asarray(law.probs))
            padded = np.zeros(cap + 1)
            padded[: min(len(conv), cap + 1)] = conv[: cap + 1]
            out += w * padded
        return out

    row_k = qprocess_kernel(model, k, state_cap=cap).probs
    p_first = pop_pmf(k)
    worst = 0.0
    for a in range(1, 7):
        row_a = qprocess_kernel(model, a, state_cap=cap).probs
        p_second = pop_pmf(a)
        for b in range(1, 7):
            chain = row_k[a] * row_a[b]
            direct = gamma**-2 * (b / k) * p_first[a] * p_second[b]
            worst = max(worst, abs(chain - direct))
    return worst


# --- extended sweeps for the full suite ---------------------------------------


@criterion("F1", "minimum bound, long horizon", 60.0)
def extended_minimum_bound(seed: int):
    n = 60
    worst = _minimum_bound_gap(n, 2 * 10**5, seed, "f1")
    return worst <= 1e-12, f"max (p - exp(min)) = {worst:.2e} at n={n}"


@criterion("F2", "closed form at long horizons", 30.0)
def extended_closed_form(seed: int):
    from .environment import draw_env
    from .lfexact import log_survival_env

    worst = 0.0
    for s, model in ((1, ss_ref()), (2, is_ref()), (3, ws_ref())):
        rng = streams.stream(seed, f"f2-{s}")
        for n in (200, 1000):
            env = draw_env(model, n, rng)
            closed = closed_form_log_survival(env)
            iterated = log_survival_env(env)
            worst = max(worst, abs(closed - iterated) / max(1.0, abs(iterated)))
    return worst <= 1e-9, f"max relative log disagreement {worst:.2e}"


@criterion("F3", "minimum-tail shape", 60.0)
def extended_min_tail_shape(seed: int):
    """Normalized exact minimum-tail values stabilize in n and follow an
    exp(alpha x) times affine shape in x.

    The reference lattice has period 3 (steps +1 and -2), so horizons are
    compared within one residue class; mixing classes folds a genuine
    parity oscillation into the comparison.
    """
    rep = classify(ws_ref())
    xs = np.arange(5.0)

    def normalized(n: int) -> np.ndarray:
        return np.array(
            [ln_tail_exact(ws_ref(), n, float(x)) * n**1.5 * rep.gamma**-n for x in xs]
        )

    v48, v60 = normalized(48), normalized(60)
    rel = float(np.max(np.abs(v60 - v48) / v48))
    r2 = linear_r_squared(xs, v60 * np.exp(-rep.alpha * xs))
    ok = rel < 0.10 and r2 >= 0.98
    return ok, f"max relative change 48->60: {rel:.3f}; affine-shape R^2 {r2:.4f}"


@criterion("F4", "tilt composition and normalizers", 10.0)
def extended_tilt_identities(seed: int):
    from .environment import env_expectation, tilt

    worst = 0.0
    for model in (ss_ref(), is_ref(), ws_ref()):
        for t1 in (0.0, 0.3, 1.0):
            for t2 in (0.2, 0.9):
                once, z1 = tilt(model, t1)
                twice, _ = tilt(once, t2)
                joint, zj = tilt(model, t1 + t2)
                worst = max(worst, float(np.max(np.abs(twice.weights - joint.weights))))
                direct = env_expectation(model, lambda law: moments(law)[0] ** t1)
                worst = max(worst, abs(z1 - direct))
    return worst <= 1e-12, f"max deviation {worst:.2e}"


@criterion("F5", "dominance on a mixed-family model", 30.0)
def extended_mixed_family_dominance(seed: int):
    model = EnvironmentModel(
        [
            (FiniteSupport([0.6, 0.2, 0.1, 0.1]), 0.4),  # mean 0.7
            (LinearFractional(0.125, 0.5), 0.6),  # mean 1/2
        ]
    )
    worst = _dominance_gap(model, 20, 10**4, seed, "f5")
    return worst <= 1e-12, f"max (p_sub - p) = {worst:.2e}"


# the core criteria are labelled C1..C13, the extended sweeps F1..F5
CRITERIA = tuple((label, fn) for label, fn in _REGISTRY.items() if label.startswith("C"))
EXTENDED = tuple((label, fn) for label, fn in _REGISTRY.items() if label.startswith("F"))


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    results: tuple[CriterionResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def summary(self) -> str:
        good = sum(r.passed for r in self.results)
        return f"{good}/{len(self.results)} criteria passed ({self.suite} suite)"


def run_criterion(label: str, seed: int = DEFAULT_SEED) -> CriterionResult:
    if label not in _REGISTRY:
        raise ValidationError(f"unknown criterion {label!r}", field="criterion")
    return _REGISTRY[label](seed)


def run_suite(
    suite: str, seed: int = DEFAULT_SEED, emit: Callable[[str], None] | None = print
) -> SuiteReport:
    if suite not in ("fast", "full"):
        raise ValidationError(f"suite must be 'fast' or 'full', got {suite!r}", field="suite")
    plan = CRITERIA if suite == "fast" else CRITERIA + EXTENDED
    results = []
    for _label, fn in plan:
        res = fn(seed)
        results.append(res)
        if emit is not None:
            emit(res.line)
    report = SuiteReport(suite=suite, results=tuple(results))
    if emit is not None:
        emit(report.summary)
    return report
