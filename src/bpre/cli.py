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
import contextlib
import csv
import dataclasses
import inspect
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
    convert,
    env_from_config,
    load_config,
    model_hash,
    strict_float as _float,
    strict_int as _int,
)
from .errors import BpreError, ConditioningStarvationError, PopulationCapError, ValidationError
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

# one flat record per estimate: handlers give the first five, run adds the rest
RECORD_FIELDS = ("estimand", "value", "std_error", "reps", "method", "model_hash", "seed")


def _jsonify(obj: Any) -> Any:
    if obj is None or type(obj) in (float, int, str, bool):
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonify(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
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


def _items(value: Any) -> Any:
    return [tok for tok in value.split(",") if tok] if isinstance(value, str) else value


def _ints(value: Any) -> list[int]:
    """A list of ints, from a JSON list or comma-separated flag text."""
    return [_int(v) for v in _items(value)]


def _floats(value: Any) -> list[float]:
    """A list of floats, from a JSON list or comma-separated flag text."""
    return [_float(v) for v in _items(value)]


# --- operation handlers ------------------------------------------------------
#
# A handler's signature declares its operation: ``model`` and ``seed`` come
# from the config; ``reps`` and the keywords after it are the operation's
# parameters, their defaults are the only defaults, and their annotations
# convert the values a config or a flag gives (a parameter whose default is
# None also takes None). A handler returns the payload and rows of
# (estimand, value, std_error, reps, method).


def _op_regime(model, seed, reps=None, k: _int = 1):
    report = classify(model, k=k)
    return report, [
        ("gamma", report.gamma, 0.0, 0, "exact-enum"),
        ("alpha", report.alpha, 0.0, 0, "exact-enum"),
    ]


def _op_survival(model, seed, reps=10**4, k: _int = 1, n: _int = 10, method: str = "env-exact"):
    est = annealed_survival(model, k, n, reps, method=method, seed=seed)
    return {"k": k, "n": n, "estimate": est}, [
        (f"survival[k={k},n={n}]", est.value, est.std_error, est.replicates, est.method)
    ]


def _op_jointsurv(model, seed, reps=10**4, k: _int = 2, n: _int = 10, method: str = "env-exact"):
    est = joint_survival(model, k, n, reps, method=method, seed=seed)
    return {"k": k, "n": n, "estimate": est}, [
        (f"joint_survival[k={k},n={n}]", est.value, est.std_error, est.replicates, est.method)
    ]


def _op_alphak(model, seed, reps=10**4, k_list: _ints = (2,), n_list: _ints = (10, 20)):
    table = alpha_k_curve(model, k_list, n_list, reps, seed=seed)
    return {"rows": table.rows}, [
        (f"alpha_k[k={r.k},n={r.n}]", r.value, r.std_error, reps, "env-exact") for r in table.rows
    ]


def _op_lineages(model, seed, reps=10**4, k: _int = 2, n: _int = 10):
    dist = conditional_lineage_counts(model, k, n, reps, seed=seed)
    return dist, [
        (f"P(N={j}|alive)[k={k},n={n}]", p, se, dist.reps_used, dist.method)
        for j, (p, se) in sorted(dist.pmf.items())
    ]


def _op_envsel(model, seed, reps=10**4, k: _int = 1, n: _int = 10, eps_grid: _floats = (0.01, 0.1)):
    curve = conditional_env_survival(model, k, n, reps, eps_grid, seed=seed)
    return curve, [
        (f"P(p>= {eps}|alive)[k={k},n={n}]", p, se, curve.reps_used, curve.method)
        for eps, (p, se) in sorted(curve.points.items())
    ]


def _op_rwalk_tail(
    model, seed, reps=10**4, n: _int = 16, x: _float = 0.0, method: str = "env-exact"
):
    estimand = f"P(min>=-{x})[n={n}]"
    if method == "exact-enum":
        value = ln_tail_exact(model, n, x)
        payload = {"n": n, "x": x, "value": value, "method": method}
        return payload, [(estimand, value, 0.0, 0, method)]
    est = ln_tail(model, n, x, reps, method=method, seed=seed)
    return {"n": n, "x": x, "estimate": est}, [
        (estimand, est.value, est.std_error, est.replicates, est.method)
    ]


def _op_rwalk_occupation(
    model, seed, reps=10**4, n: _int = 20, band: _int = 0, count: _int = 2, x: _float = 1.0
):
    est = occupation_tail(model, n, band, count, x, reps, seed=seed)
    return {"n": n, "band": band, "count": count, "x": x, "estimate": est}, [
        (f"P(occ[{band}]>={count}|min>=-{x})", est.value, est.std_error, est.replicates, est.method)
    ]


def _op_rwalk_reflected(model, seed, reps=2 * 10**4):
    report = reflected_sum_check(model, reps=reps, seed=seed)
    beta_hat = report.beta_hat if report.beta_hat is not None else float("nan")
    payload = {
        "beta_hat": report.beta_hat,
        "passed": report.passed,
        "curve": {f"n={n},x={x},beta={b}": v for (n, x, b), v in report.curve.items()},
    }
    return payload, [("reflected_beta_hat", beta_hat, 0.0, reps, "tilted-IS")]


def _op_yaglom(model, seed, reps=10**4, k: _int = 1, n: _int = 20):
    est = yaglom(model, k, n, reps, seed=seed)
    return est, [
        (f"P(Z={z}|alive)[k={k},n={n}]", p, se, est.reps_used, est.method)
        for z, (p, se) in sorted(est.pmf.items())
    ]


def _op_qprocess(
    model, seed, reps=4000, k: _int = 1, horizon: _int = 20, kernel_state: _int = None
):
    if kernel_state is not None:
        row = qprocess_kernel(model, kernel_state)
        payload = {
            "state": row.state,
            "tail_mass": row.tail_mass,
            "probs": {str(m): float(p) for m, p in enumerate(row.probs) if p > 0},
        }
        return payload, []
    run = qprocess_run(model, k, horizon, reps, seed=seed)
    return run, [
        (f"median_Y[{i}]", v, 0.0, run.reps, run.method) for i, v in enumerate(run.medians)
    ]


def _op_envpost(model, seed, reps=10**4, k: _int = 1, p: _int = 1, n: _int = 10):
    post = env_posterior(model, k, p, n, reps, seed=seed)
    return post, [
        (f"P(f[{pos}]=comp{comp}|alive)", val, se, post.reps_used, post.method)
        for pos, dist in enumerate(post.per_position)
        for comp, (val, se) in sorted(dist.items())
    ]


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

# handler arguments that are config fields, not operation parameters
_CALL_ARGS = ("model", "seed", "reps")
_SIGNATURES = {op: inspect.signature(fn, eval_str=True) for op, fn in OP_HANDLERS.items()}


def _bind(config: ExperimentConfig) -> inspect.BoundArguments:
    """The handler call for ``config``, every parameter converted.

    Unknown parameter keys and values that do not convert are validation
    errors, raised before any estimator runs.
    """
    sig = _SIGNATURES[config.op]
    names = [name for name in sig.parameters if name not in _CALL_ARGS]
    unknown = sorted(set(config.params) - set(names))
    if unknown:
        raise ValidationError(
            f"unknown parameters {unknown} for op {config.op!r}; it takes {names}", field="params"
        )
    given = config.params if config.reps is None else {**config.params, "reps": config.reps}
    call = sig.bind(config.model, config.seed, **given)
    call.apply_defaults()
    for name in names:
        param, value = sig.parameters[name], call.arguments[name]
        if value is None and param.default is None:
            continue
        call.arguments[name] = convert(param.annotation, value, f"params.{name}")
    return call


def run(config: ExperimentConfig) -> dict:
    """Execute one experiment config and return the self-contained report,
    whose config echo lists every parameter value used, defaults included."""
    started = time.perf_counter()
    call = _bind(config)
    payload, rows = OP_HANDLERS[config.op](*call.args, **call.kwargs)
    mhash = model_hash(config.model)
    params = {name: v for name, v in call.arguments.items() if name not in _CALL_ARGS}
    return {
        "config": {**config.echo(), "params": params},
        "library_version": __version__,
        "model_hash": mhash,
        "result": _jsonify(payload),
        "records": [dict(zip(RECORD_FIELDS, (*row, mhash, config.seed))) for row in rows],
        "wall_time_s": time.perf_counter() - started,
    }


def _write_output(report: dict, out: str | None, fmt: str) -> None:
    if out:
        sink = open(out, "w", newline="", encoding="utf-8")
    else:
        sink = contextlib.nullcontext(sys.stdout)
    with sink as fh:
        if fmt == "csv":
            writer = csv.DictWriter(fh, fieldnames=RECORD_FIELDS)
            writer.writeheader()
            writer.writerows(report["records"])
        else:
            fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")


# parsed arguments that are config fields, not operation parameters
_CONFIG_FIELDS = ("model", "seed", "reps", "out", "format")


def _op_parser(sub, name: str, help: str, need_seed: bool = True) -> argparse.ArgumentParser:
    """An operation's subparser: only the flags given reach the config, so
    an omitted flag takes the handler's default."""
    parser = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
    parser.add_argument("--model", required=True, help="builtin name or path to a model JSON file")
    parser.add_argument("--seed", type=int, required=need_seed)
    parser.add_argument("--reps", type=int)
    parser.add_argument("--out")
    parser.add_argument("--format", choices=["json", "csv"])
    return parser


def _model_spec_from_arg(arg: str):
    if arg.endswith(".json"):
        with open(arg, "r", encoding="utf-8") as fh:
            return json.load(fh)
    return arg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bpre",
        description="Subcritical branching processes in random environments: "
        "simulation and exact analysis",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = _op_parser(sub, "regime", "classify a model and solve its rate constants", need_seed=False)
    p.add_argument("--k")

    p = sub.add_parser("quenched", help="exact survival for a fixed environment file")
    p.add_argument("--env", required=True, help="path to a JSON list of laws")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--out", default=None)

    p = _op_parser(sub, "survival", "annealed survival probability")
    p.add_argument("--k")
    p.add_argument("--n")
    p.add_argument("--method", choices=["env-exact", "tilted-IS"])

    p = _op_parser(sub, "jointsurv", "all-lineages joint survival")
    p.add_argument("--k")
    p.add_argument("--n")
    p.add_argument("--method", choices=["env-exact", "tilted-IS"])

    p = _op_parser(sub, "alphak", "k-particle survival ratios")
    p.add_argument("--k", dest="k_list", metavar="K1,K2,...")
    p.add_argument("--n", dest="n_list", metavar="N1,N2,...")

    p = _op_parser(sub, "lineages", "surviving-lineage counts given survival")
    p.add_argument("--k")
    p.add_argument("--n")

    p = _op_parser(sub, "envsel", "conditional environment-survival curve")
    p.add_argument("--k")
    p.add_argument("--n")
    p.add_argument("--eps", dest="eps_grid", metavar="EPS1,EPS2,...")

    p = sub.add_parser("rwalk", help="log-mean random walk statistics")
    walk_sub = p.add_subparsers(dest="walk_command", required=True)
    w = _op_parser(walk_sub, "tail", "P(running minimum >= -x)")
    w.add_argument("--n")
    w.add_argument("--x")
    w.add_argument("--method", choices=["env-exact", "tilted-IS", "exact-enum"])
    w = _op_parser(walk_sub, "occupation", "conditioned occupation tail")
    w.add_argument("--n")
    w.add_argument("--band")
    w.add_argument("--count")
    w.add_argument("--x")
    _op_parser(walk_sub, "reflected", "uniform reflected-sum threshold search")

    p = _op_parser(sub, "yaglom", "conditioned population law at a horizon")
    p.add_argument("--k")
    p.add_argument("--n")

    p = _op_parser(sub, "qprocess", "survival-conditioned chain")
    p.add_argument("--k")
    p.add_argument("--horizon")
    p.add_argument("--kernel-state", dest="kernel_state")

    p = _op_parser(sub, "envpost", "environment posterior given distant survival")
    p.add_argument("--k")
    p.add_argument("--p")
    p.add_argument("--n")

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

    if args.command == "quenched":
        with open(args.env, "r", encoding="utf-8") as fh:
            env = env_from_config(json.load(fh))
        qs = quenched_survival(env, k=args.k)
        report = {"library_version": __version__, "records": [], "result": _jsonify(qs)}
        _write_output(report, args.out, "json")
        return EXIT_OK

    if args.command == "run":
        config = load_config(args.config)
    else:
        params = vars(args)
        op = params.pop("command")
        if op == "rwalk":
            op = f"rwalk-{params.pop('walk_command')}"
        raw = {"op": op, "seed": 0}
        raw.update((key, params.pop(key)) for key in _CONFIG_FIELDS if key in params)
        raw["model"] = _model_spec_from_arg(raw["model"])
        config = config_from_dict({**raw, "params": params})
    _write_output(run(config), config.out, config.format)
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
