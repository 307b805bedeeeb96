"""Command-line experiment runner.

Every stochastic subcommand requires an explicit seed; a (config, seed) pair
pins every emitted number bit-for-bit, independent of the worker count.
``BPRE_THREADS`` sets how many threads run the replicate chunks and does
scale: on a 2-core machine, ``BPRE_THREADS=2`` took a tilted
``annealed_survival`` on ws-ref (n = 100, 4e5 replicates) from 2.2 s to
1.4-1.6 s and ``yaglom(ws-ref, k=1, n=16, 16384 replicates)`` from 0.09 s
to 0.07 s.

Exit codes: 0 success, 2 validation error, 3 conditioning starvation,
4 population cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from typing import Any

import numpy as np

from . import __version__
from .acceptance import run_suite
from .config import (
    ExperimentConfig,
    config_from_dict,
    env_from_config,
    load_config,
    model_hash,
)
from .errors import (
    BpreError,
    ConditioningStarvationError,
    PopulationCapError,
    ValidationError,
)
from .lfexact import quenched_survival
from .limits import env_posterior, qprocess_kernel, qprocess_run, yaglom
from .regime import classify
from .rwalk import ln_tail, ln_tail_exact, occupation_tail, reflected_sum_check
from .simcore import (
    alpha_k_curve,
    annealed_survival,
    conditional_env_survival,
    conditional_lineage_counts,
    joint_survival,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_STARVATION = 3
EXIT_POPULATION_CAP = 4


def _plain_row(estimand, value, std_error, reps, method, mhash, seed) -> dict:
    """One flat CSV record."""
    return {
        "estimand": estimand,
        "value": value,
        "std_error": std_error,
        "reps": reps,
        "method": method,
        "model_hash": mhash,
        "seed": seed,
    }


def _jsonify(obj: Any) -> Any:
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonify(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


# --- operation handlers ------------------------------------------------------
#
# Each handler returns (payload, rows): payload is the full JSON result,
# rows are flat estimate records for CSV output.


def _op_regime(model, params, seed, reps):
    report = classify(model, k=int(params.get("k", 1)))
    mhash = model_hash(model)
    rows = [
        _plain_row("gamma", report.gamma, 0.0, 0, "exact-enum", mhash, seed),
        _plain_row("alpha", report.alpha, 0.0, 0, "exact-enum", mhash, seed),
    ]
    return report.as_dict(), rows


def _op_survival(model, params, seed, reps):
    k = int(params.get("k", 1))
    n = int(params.get("n", 10))
    method = params.get("method", "env-exact")
    est = annealed_survival(model, k, n, reps or 10**4, method=method, seed=seed)
    mhash = model_hash(model)
    return (
        {"k": k, "n": n, "estimate": dataclasses.asdict(est)},
        [_plain_row(
            f"survival[k={k},n={n}]",
            est.value, est.std_error, est.replicates, est.method, mhash, seed,
        )],
    )


def _op_jointsurv(model, params, seed, reps):
    k = int(params.get("k", 2))
    n = int(params.get("n", 10))
    method = params.get("method", "env-exact")
    est = joint_survival(model, k, n, reps or 10**4, method=method, seed=seed)
    mhash = model_hash(model)
    return (
        {"k": k, "n": n, "estimate": dataclasses.asdict(est)},
        [_plain_row(
            f"joint_survival[k={k},n={n}]",
            est.value, est.std_error, est.replicates, est.method, mhash, seed,
        )],
    )


def _op_alphak(model, params, seed, reps):
    k_list = [int(k) for k in params.get("k_list", [2])]
    n_list = [int(n) for n in params.get("n_list", [10, 20])]
    table = alpha_k_curve(model, k_list, n_list, reps or 10**4, seed=seed)
    mhash = model_hash(model)
    rows = [
        _plain_row(
            f"alpha_k[k={r.k},n={r.n}]", r.value, r.std_error, reps or 10**4,
            "env-exact", mhash, seed,
        )
        for r in table.rows
    ]
    return {"rows": [dataclasses.asdict(r) for r in table.rows]}, rows


def _op_lineages(model, params, seed, reps):
    k = int(params.get("k", 2))
    n = int(params.get("n", 10))
    dist = conditional_lineage_counts(model, k, n, reps or 10**4, seed=seed)
    mhash = model_hash(model)
    rows = [
        _plain_row(
            f"P(N={j}|alive)[k={k},n={n}]", p, se, dist.reps_used, dist.method, mhash, seed
        )
        for j, (p, se) in sorted(dist.pmf.items())
    ]
    return _jsonify(dist), rows


def _op_envsel(model, params, seed, reps):
    k = int(params.get("k", 1))
    n = int(params.get("n", 10))
    eps_grid = [float(e) for e in params.get("eps_grid", [0.01, 0.1])]
    curve = conditional_env_survival(model, k, n, reps or 10**4, eps_grid, seed=seed)
    mhash = model_hash(model)
    rows = [
        _plain_row(
            f"P(p>= {eps}|alive)[k={k},n={n}]", p, se, curve.reps_used, curve.method,
            mhash, seed,
        )
        for eps, (p, se) in sorted(curve.points.items())
    ]
    return _jsonify(curve), rows


def _op_rwalk_tail(model, params, seed, reps):
    n = int(params.get("n", 16))
    x = float(params.get("x", 0.0))
    method = params.get("method", "env-exact")
    mhash = model_hash(model)
    if method == "exact-enum":
        value = ln_tail_exact(model, n, x)
        rows = [_plain_row(f"P(min>=-{x})[n={n}]", value, 0.0, 0, method, mhash, seed)]
        return {"n": n, "x": x, "value": value, "method": method}, rows
    est = ln_tail(model, n, x, reps or 10**4, method=method, seed=seed)
    return (
        {"n": n, "x": x, "estimate": dataclasses.asdict(est)},
        [_plain_row(
            f"P(min>=-{x})[n={n}]",
            est.value, est.std_error, est.replicates, est.method, mhash, seed,
        )],
    )


def _op_rwalk_occupation(model, params, seed, reps):
    n = int(params.get("n", 20))
    band = int(params.get("band", 0))
    count = int(params.get("count", 2))
    x = float(params.get("x", 1.0))
    est = occupation_tail(model, n, band, count, x, reps or 10**4, seed=seed)
    mhash = model_hash(model)
    return (
        {"n": n, "band": band, "count": count, "x": x, "estimate": dataclasses.asdict(est)},
        [_plain_row(
            f"P(occ[{band}]>={count}|min>=-{x})",
            est.value, est.std_error, est.replicates, est.method, mhash, seed,
        )],
    )


def _op_rwalk_reflected(model, params, seed, reps):
    report = reflected_sum_check(model, reps=reps or 2 * 10**4, seed=seed)
    mhash = model_hash(model)
    rows = [
        _plain_row(
            "reflected_beta_hat",
            report.beta_hat if report.beta_hat is not None else float("nan"),
            0.0, reps or 2 * 10**4, "tilted-IS", mhash, seed,
        )
    ]
    payload = {
        "beta_hat": report.beta_hat,
        "passed": report.passed,
        "curve": {f"n={n},x={x},beta={b}": v for (n, x, b), v in report.curve.items()},
    }
    return _jsonify(payload), rows


def _op_yaglom(model, params, seed, reps):
    k = int(params.get("k", 1))
    n = int(params.get("n", 20))
    est = yaglom(model, k, n, reps or 10**4, seed=seed)
    mhash = model_hash(model)
    rows = [
        _plain_row(f"P(Z={z}|alive)[k={k},n={n}]", p, se, est.reps_used, est.method, mhash, seed)
        for z, (p, se) in sorted(est.pmf.items())
    ]
    return _jsonify(est), rows


def _op_qprocess(model, params, seed, reps):
    k = int(params.get("k", 1))
    horizon = int(params.get("horizon", 20))
    if params.get("kernel_state") is not None:
        row = qprocess_kernel(model, int(params["kernel_state"]))
        payload = {
            "state": row.state,
            "tail_mass": row.tail_mass,
            "probs": {str(m): float(p) for m, p in enumerate(row.probs) if p > 0},
        }
        return payload, []
    run = qprocess_run(model, k, horizon, reps or 4000, seed=seed)
    mhash = model_hash(model)
    rows = [
        _plain_row(f"median_Y[{i}]", v, 0.0, run.reps, run.method, mhash, seed)
        for i, v in enumerate(run.medians)
    ]
    return _jsonify(run), rows


def _op_envpost(model, params, seed, reps):
    k = int(params.get("k", 1))
    p = int(params.get("p", 1))
    n = int(params.get("n", 10))
    post = env_posterior(model, k, p, n, reps or 10**4, seed=seed)
    mhash = model_hash(model)
    rows = []
    for pos, dist in enumerate(post.per_position):
        for comp, (val, se) in sorted(dist.items()):
            rows.append(
                _plain_row(
                    f"P(f[{pos}]=comp{comp}|alive)", val, se, post.reps_used,
                    post.method, mhash, seed,
                )
            )
    return _jsonify(post), rows


OP_HANDLERS = {
    "regime": _op_regime,
    "survival": _op_survival,
    "jointsurv": _op_jointsurv,
    "alphak": _op_alphak,
    "lineages": _op_lineages,
    "envsel": _op_envsel,
    "rwalk-tail": _op_rwalk_tail,
    "rwalk-occupation": _op_rwalk_occupation,
    "rwalk-reflected": _op_rwalk_reflected,
    "yaglom": _op_yaglom,
    "qprocess": _op_qprocess,
    "envpost": _op_envpost,
}


def run(config: ExperimentConfig) -> dict:
    """Execute one experiment config and return the self-contained report."""
    started = time.time()
    model = config.resolve_model()
    handler = OP_HANDLERS[config.op]
    payload, rows = handler(model, config.params, config.seed, config.reps)
    report = {
        "config": config.echo(),
        "library_version": __version__,
        "model_hash": model_hash(model),
        "result": payload,
        "records": rows,
        "wall_time_s": time.time() - started,
    }
    return report


def _write_output(report: dict, out: str | None, fmt: str) -> None:
    if fmt == "csv":
        rows = report["records"]
        fieldnames = ["estimand", "value", "std_error", "reps", "method", "model_hash", "seed"]
        if out:
            with open(out, "w", newline="", encoding="utf-8") as fh:
                writer = csv.DictWriter(fh, fieldnames=fieldnames)
                writer.writeheader()
                writer.writerows(rows)
        else:
            writer = csv.DictWriter(sys.stdout, fieldnames=fieldnames)
            writer.writeheader()
            writer.writerows(rows)
        return
    text = json.dumps(report, indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# parsed arguments that are not operation parameters
_COMMON_ARGS = ("command", "walk_command", "model", "seed", "reps", "out", "format")


def _add_common(parser: argparse.ArgumentParser, need_seed: bool = True) -> None:
    parser.add_argument("--model", required=True, help="builtin name or path to a model JSON file")
    parser.add_argument("--seed", type=int, required=need_seed, default=None)
    parser.add_argument("--reps", type=int, default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--format", choices=["json", "csv"], default="json")


def _model_spec_from_arg(arg: str):
    if arg.endswith(".json"):
        with open(arg, "r", encoding="utf-8") as fh:
            return json.load(fh)
    return arg


def _config_from_args(args: argparse.Namespace, op: str, params: dict) -> ExperimentConfig:
    return config_from_dict(
        {
            "op": op,
            "model": _model_spec_from_arg(args.model),
            "params": params,
            "seed": args.seed if args.seed is not None else 0,
            "reps": args.reps,
            "out": args.out,
            "format": args.format,
        }
    )


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok]


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bpre",
        description="Subcritical branching processes in random environments: "
        "simulation and exact analysis",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("regime", help="classify a model and solve its rate constants")
    _add_common(p, need_seed=False)
    p.add_argument("--k", type=int, default=1)

    p = sub.add_parser("quenched", help="exact survival for a fixed environment file")
    p.add_argument("--env", required=True, help="path to a JSON list of laws")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("survival", help="annealed survival probability")
    _add_common(p)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--method", choices=["env-exact", "tilted-IS"], default="env-exact")

    p = sub.add_parser("jointsurv", help="all-lineages joint survival")
    _add_common(p)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--method", choices=["env-exact", "tilted-IS"], default="env-exact")

    p = sub.add_parser("alphak", help="k-particle survival ratios")
    _add_common(p)
    p.add_argument("--k", type=_ints, default=[2], dest="k_list", metavar="K1,K2,...")
    p.add_argument("--n", type=_ints, default=[10, 20], dest="n_list", metavar="N1,N2,...")

    p = sub.add_parser("lineages", help="surviving-lineage counts given survival")
    _add_common(p)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--n", type=int, default=10)

    p = sub.add_parser("envsel", help="conditional environment-survival curve")
    _add_common(p)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--eps", type=_floats, default=[0.01, 0.1], dest="eps_grid")

    p = sub.add_parser("rwalk", help="log-mean random walk statistics")
    walk_sub = p.add_subparsers(dest="walk_command", required=True)
    w = walk_sub.add_parser("tail", help="P(running minimum >= -x)")
    _add_common(w)
    w.add_argument("--n", type=int, default=16)
    w.add_argument("--x", type=float, default=0.0)
    w.add_argument(
        "--method", choices=["env-exact", "tilted-IS", "exact-enum"], default="env-exact"
    )
    w = walk_sub.add_parser("occupation", help="conditioned occupation tail")
    _add_common(w)
    w.add_argument("--n", type=int, default=20)
    w.add_argument("--band", type=int, default=0)
    w.add_argument("--count", type=int, default=2)
    w.add_argument("--x", type=float, default=1.0)
    w = walk_sub.add_parser("reflected", help="uniform reflected-sum threshold search")
    _add_common(w)

    p = sub.add_parser("yaglom", help="conditioned population law at a horizon")
    _add_common(p)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--n", type=int, default=20)

    p = sub.add_parser("qprocess", help="survival-conditioned chain")
    _add_common(p)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--horizon", type=int, default=20)
    p.add_argument("--kernel-state", type=int, default=None, dest="kernel_state")

    p = sub.add_parser("envpost", help="environment posterior given distant survival")
    _add_common(p)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--n", type=int, default=10)

    p = sub.add_parser("run", help="run an experiment config file")
    p.add_argument("--config", required=True)

    p = sub.add_parser("acceptance", help="run the acceptance suite")
    p.add_argument("suite", choices=["fast", "full"])
    p.add_argument("--seed", type=int, default=None)

    return parser


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "acceptance":
        kwargs = {} if args.seed is None else {"seed": args.seed}
        report = run_suite(args.suite, **kwargs)
        return EXIT_OK if report.passed else 1

    if args.command == "run":
        config = load_config(args.config)
        report = run(config)
        _write_output(report, config.out, config.format)
        return EXIT_OK

    if args.command == "quenched":
        with open(args.env, "r", encoding="utf-8") as fh:
            env = env_from_config(json.load(fh))
        qs = quenched_survival(env, k=args.k)
        payload = _jsonify(qs)
        _write_output(
            {"result": payload, "records": [], "library_version": __version__},
            args.out,
            "json",
        )
        return EXIT_OK

    if args.command == "rwalk":
        op = f"rwalk-{args.walk_command}"
    else:
        op = args.command
    params = {
        key: value for key, value in vars(args).items() if key not in _COMMON_ARGS
    }
    config = _config_from_args(args, op, params)
    report = run(config)
    _write_output(report, config.out, config.format)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConditioningStarvationError as exc:
        print(f"conditioning starved: {exc}", file=sys.stderr)
        return EXIT_STARVATION
    except PopulationCapError as exc:
        print(f"population cap exceeded: {exc}", file=sys.stderr)
        return EXIT_POPULATION_CAP
    except BpreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
