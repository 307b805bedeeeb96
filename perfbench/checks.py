"""Check the program's outputs against the exact oracles.

Every estimate must contain its exact value (or the exact bounds) within
Z standard errors. Standard errors come from the program's own output
where it reports them per estimate. For the Yaglom laws they are the exact
delta-method errors of the program's estimator under its sampling law, and
for the Q-process medians they come from the exact expected effective
sample size, so a wrong reported error cannot loosen those checks. Mass that the
program reports as lost to its state cap widens the interval on the side
where that mass would have landed.
"""

from __future__ import annotations

import json
import math

import numpy as np

import oracles
from workloads import QPROCESS_LOOKAHEAD, S_GRID, Op

Z = 7.0


def _within(label: str, value, se, lo: float, hi: float, problems: list[str]) -> None:
    slack = Z * float(se) + 1e-9 * max(abs(lo), abs(hi))
    if not (lo - slack <= value <= hi + slack):
        problems.append(f"{label}: {value!r} (se {se!r}) outside [{lo!r}, {hi!r}]")


class Checker:
    """Exact values for one workload's operations, computed once per run."""

    def __init__(self, ops: list[Op]):
        self._cache: dict = {}
        self.expected = {op.name: self._expected(op) for op in ops}

    def _cached(self, key, fn):
        key = json.dumps(key, sort_keys=True)
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def _expected(self, op: Op):
        model = oracles.model_from_spec(op.model)
        p = op.params
        spec = op.model
        if op.op in ("survival", "jointsurv"):
            k, n = p["k"], p["n"]
            if op.op == "jointsurv":
                value = oracles.joint_survival(model, k, n)
                return value, value
            if oracles.strongly_subcritical(model) and k == 1:
                return oracles.ss_moment_bracket(model, n)
            if n <= 20:
                value = oracles.annealed_survival(model, k, n)
                return value, value
            return self._cached(
                ["lfbracket", spec, n], lambda: oracles.lf_survival_bracket(model, n, ks=(1, 2, 3, 4))
            )[k]
        if op.op == "alphak":
            return {
                (k, n): oracles.annealed_survival(model, k, n) / oracles.annealed_survival(model, 1, n)
                for k in p["k_list"] for n in p["n_list"]
            }
        if op.op == "rwalk-tail":
            return oracles.walk_tail(_walk(spec), p["n"], p["x"])
        if op.op == "rwalk-occupation":
            return oracles.walk_occupation(_walk(spec), p["n"], p["band"], p["count"], p["x"])
        if op.op == "lineages":
            if p["n"] <= 20:
                return {j: (v, v) for j, v in oracles.lineage_pmf(model, p["k"], p["n"]).items()}
            return oracles.ss_lineage_bracket(model, p["k"], p["n"])
        if op.op == "envsel":
            return oracles.env_selection(model, p["k"], p["n"], p["eps_grid"])
        if op.op == "yaglom":
            return oracles.yaglom_law(model, p["k"], p["n"], S_GRID)
        if op.op == "qprocess":
            if oracles.strongly_subcritical(model):
                return {"laws": oracles.qprocess_ss_laws(model, p["horizon"], p["k"])}
            total = p["horizon"] + QPROCESS_LOOKAHEAD
            return {
                "cdfs": oracles.qprocess_ws_cdfs(model, p["horizon"], QPROCESS_LOOKAHEAD),
                "ess_ratio": oracles.expected_ess_ratio(model, p["k"], total),
            }
        raise ValueError(f"no oracle for operation {op.op!r}")

    def check(self, op: Op, result: dict, results: dict[str, dict]) -> list[str]:
        """Problems found in one operation's result ([] when it is correct).

        ``results`` holds the other results of the same pass, for checks
        that relate two operations run on the same draws.
        """
        exp = self.expected[op.name]
        p = op.params
        problems: list[str] = []
        if op.op in ("survival", "jointsurv", "rwalk-tail", "rwalk-occupation"):
            est = result["estimate"]
            lo, hi = exp if isinstance(exp, tuple) else (exp, exp)
            _within(op.name, est["value"], est["std_error"], lo, hi, problems)
            if op.relation is not None and op.relation in results:
                # same seed, purpose and tilt: the k-particle estimate is a
                # pathwise transform of the one-particle estimate
                p1 = results[op.relation]["estimate"]["value"]
                pk = est["value"]
                if not (p1 * (1 - 1e-12) <= pk <= p["k"] * p1 * (1 + 1e-12)):
                    problems.append(f"{op.name}: P_k = {pk!r} not in [P_1, k P_1] with P_1 = {p1!r}")
        elif op.op == "alphak":
            rows = {(r["k"], r["n"]): r for r in result["rows"]}
            for key, value in exp.items():
                row = rows.get(key)
                if row is None:
                    problems.append(f"{op.name}: row {key} missing")
                    continue
                _within(f"{op.name}{key}", row["value"], row["std_error"], value, value, problems)
        elif op.op == "lineages":
            pmf = result["pmf"]
            for j, (lo, hi) in exp.items():
                value, se = pmf.get(str(j), (math.nan, 0.0))
                _within(f"{op.name}[{j}]", value, se, lo, hi, problems)
        elif op.op == "envsel":
            for eps, value in exp.items():
                est, se = result["points"].get(str(eps), (math.nan, 0.0))
                _within(f"{op.name}[{eps}]", est, se, value, value, problems)
        elif op.op == "yaglom":
            self._check_yaglom(op, result, exp, problems)
        elif op.op == "qprocess":
            self._check_qprocess(op, result, exp, problems)
        return problems

    def _check_yaglom(self, op, result, exp, problems):
        tail = result["tail_mass"]
        if not 0.0 <= tail <= 1.0:
            problems.append(f"{op.name}: tail mass {tail!r} outside [0, 1]")
        root_n = math.sqrt(result["reps_used"])
        for s, est, g, sd in zip(S_GRID, result["pgf_values"], exp["pgf"], exp["pgf_sd"]):
            if s == 1.0:
                if est != 1.0:
                    problems.append(f"{op.name}: pgf(1) = {est!r}")
                continue
            # overflowed replicates count 0 in the estimate; their true
            # contribution s**Z lies in [0, tail]
            _within(f"{op.name} pgf({s})", est, sd / root_n, g - tail, g, problems)
        for j, value in exp["pmf"].items():
            est, _ = result["pmf"].get(str(j), (0.0, 0.0))
            _within(f"{op.name} P(Z={j})", est, exp["pmf_sd"][j] / root_n, value, value, problems)

    def _check_qprocess(self, op, result, exp, problems):
        medians = result["medians"]
        if len(medians) != op.params["horizon"] + 1:
            problems.append(f"{op.name}: {len(medians)} medians")
            return
        reps = result["reps"]
        if "laws" in exp:
            if result["overflow_mass"] != 0.0:
                problems.append(f"{op.name}: overflow {result['overflow_mass']!r} on the exact chain")
            slack = Z * 0.5 / math.sqrt(reps)
            for t, (law, median) in enumerate(zip(exp["laws"], medians)):
                if not oracles.median_bounds_ok(np.cumsum(law), median, slack):
                    problems.append(f"{op.name}: median {median!r} of Y_{t} inconsistent with the exact law")
            final = result["final_pmf"]
            law = exp["laws"][-1]
            for b in range(1, min(len(law), 41)):
                est = final.get(str(b), (0.0, 0.0))[0]
                # binomial error of an unweighted frequency, plus a few
                # counts for atoms too rare to have a normal error
                tol = Z * math.sqrt(law[b] * (1.0 - law[b]) / reps) + 3.0 / reps
                if abs(est - law[b]) > tol:
                    problems.append(f"{op.name}: P(Y={b}) = {est!r}, exact {law[b]!r}")
            return
        overflow = result["overflow_mass"]
        ess = exp["ess_ratio"] * reps
        # rows lost to the state cap shift the kept law's CDF by at most
        # overflow / 2 around the median
        slack = overflow / 2.0 + Z * 0.5 / math.sqrt(ess)
        for t, (cdf, median) in enumerate(zip(exp["cdfs"], medians)):
            if not oracles.median_bounds_ok(cdf, median, slack):
                problems.append(f"{op.name}: median {median!r} of Z_{t} inconsistent with the exact law")


def _walk(spec):
    if spec != "ws-ref":
        raise ValueError("the lattice walk oracle knows the ws-ref steps only")
    return oracles.WS_REF_WALK
