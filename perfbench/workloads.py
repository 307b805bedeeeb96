"""The benchmark's workloads: which experiment configs one pass runs.

Every pass of a workload runs the same operations, in order, with one seed
derived from the run's ``--seed`` and the pass index. Replicate counts are
fixed here, so a pass does the same amount of work on every commit.
"""

from __future__ import annotations

from dataclasses import dataclass

# Inline finite-support mixtures (config format). FS_WS is weakly
# subcritical (means 0.7 and 1.3, alpha ~ 0.496); FS_SS is strongly
# subcritical (means 0.7 and 0.4).
FS_WS = {
    "components": [
        {"law": {"fs": [0.5, 0.3, 0.2]}, "weight": 0.5},
        {"law": {"fs": [0.3, 0.3, 0.2, 0.2]}, "weight": 0.5},
    ]
}
FS_SS = {
    "components": [
        {"law": {"fs": [0.5, 0.3, 0.2]}, "weight": 0.5},
        {"law": {"fs": [0.7, 0.2, 0.1]}, "weight": 0.5},
    ]
}

# The Yaglom s-grid the program reports on (its default).
S_GRID = tuple(i / 20 for i in range(21))

# Conditioned pmfs are reported up to this atom; larger sizes are dropped
# from the worker's output (they are checked through the pgf instead).
ATOM_LIMIT = 40


@dataclass(frozen=True)
class Op:
    """One experiment config run once per pass.

    ``fault`` names a program fault that makes this operation fail on
    every seed; such an operation counts as failed instead of incorrect.
    """

    name: str
    op: str
    model: object
    params: dict
    reps: int
    fault: str | None = None
    relation: str | None = None  # an operation on the same draws, checked jointly

    def config(self, seed: int) -> dict:
        return {"op": self.op, "model": self.model, "params": self.params, "seed": seed, "reps": self.reps}

    def warmup_config(self, seed: int) -> dict:
        """A small call of the same operation: imports and first-call costs
        are paid here, outside the timed passes."""
        params = dict(self.params)
        if "n" in params:
            params["n"] = min(params["n"], 4)
        if "n_list" in params:
            params["n_list"] = [2, 4]
        if "horizon" in params:
            params["horizon"] = 1
        return {"op": self.op, "model": self.model, "params": params, "seed": seed, "reps": min(self.reps, 256)}


def _n16(op, k, method):
    return Op(f"{op}-k{k}-n16-{method}", op, "ws-ref", {"k": k, "n": 16, "method": method}, 50_000)


ENVMC_LF = [
    *(_n16(op, k, method) for op in ("survival", "jointsurv") for k in (1, 4)
      for method in ("env-exact", "tilted-IS")),
    Op("survival-k1-n100-tilted-IS", "survival", "ws-ref", {"k": 1, "n": 100, "method": "tilted-IS"}, 100_000),
    Op("survival-k4-n100-tilted-IS", "survival", "ws-ref", {"k": 4, "n": 100, "method": "tilted-IS"}, 100_000,
       relation="survival-k1-n100-tilted-IS"),
    Op("alphak", "alphak", "ws-ref", {"k_list": [2, 4], "n_list": [8, 16]}, 50_000),
    Op("rwalk-tail", "rwalk-tail", "ws-ref", {"n": 16, "x": 1.0, "method": "env-exact"}, 50_000),
    Op("lineages-k3-n16", "lineages", "ws-ref", {"k": 3, "n": 16}, 20_000),
    Op("envsel-k1-n16", "envsel", "ws-ref", {"k": 1, "n": 16, "eps_grid": [0.01, 0.1]}, 20_000),
    Op("rwalk-occupation", "rwalk-occupation", "ws-ref", {"n": 16, "band": 0, "count": 3, "x": 1.0}, 20_000,
       fault="walk bands are floored in floating point, so visits one level above the minimum "
             "land in band 0 on the ws-ref lattice"),
    Op("ss-survival-k1-n400", "survival", "ss-ref", {"k": 1, "n": 400, "method": "env-exact"}, 4096,
       fault="env-exact draws miss the environments that carry the mass, and the standard "
             "error underflows to 0.0"),
    Op("ss-lineages-k3-n200", "lineages", "ss-ref", {"k": 3, "n": 200}, 2000,
       fault="strongly subcritical conditioning uses untilted draws and starves"),
]

COND_POP_WS = [
    Op("yaglom-k1-n16", "yaglom", "ws-ref", {"k": 1, "n": 16}, 8192),
    Op("yaglom-k2-n16", "yaglom", "ws-ref", {"k": 2, "n": 16}, 4096),
    Op("qprocess-h10", "qprocess", "ws-ref", {"k": 1, "horizon": 10}, 4096),
]

FINITE_SUPPORT = [
    Op("fs-survival-k1-n20", "survival", FS_WS, {"k": 1, "n": 20, "method": "env-exact"}, 1024),
    Op("fs-lineages-k3-n16", "lineages", FS_WS, {"k": 3, "n": 16}, 1000),
    Op("fs-yaglom-k1-n12", "yaglom", FS_WS, {"k": 1, "n": 12}, 600),
    Op("fs-ss-qprocess-h5", "qprocess", FS_SS, {"k": 1, "horizon": 5}, 1500),
]

WORKLOADS = {
    "envmc-lf": ENVMC_LF,
    "cond-pop-ws": COND_POP_WS,
    "finite-support": FINITE_SUPPORT,
}

# qprocess lookahead the program applies in the weakly subcritical regime.
QPROCESS_LOOKAHEAD = 10


def pass_seed(seed: int, index: int) -> int:
    """Program seed of pass ``index`` in a run started with ``seed``."""
    return seed * 10_007 + index


def slim(result: dict) -> dict:
    """The parts of a report's result the checks read, with pmfs cut at
    ATOM_LIMIT so a pass's output stays small."""
    out = dict(result)
    for key in ("pmf", "final_pmf"):
        if isinstance(out.get(key), dict):
            out[key] = {a: v for a, v in out[key].items() if int(a) <= ATOM_LIMIT}
    return out
