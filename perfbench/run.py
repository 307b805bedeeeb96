"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload envmc-lf --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout. The workload runs in a separate
process (``worker.py``) with ``BPRE_THREADS=1``, as one caller that sends
its next experiment config only after the previous one returned. Set-up is
measured several times in fresh processes and reported as a median. The
parent computes the exact oracles, checks every output of every pass, and
prints one JSON object as the last line of standard output: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``). ``--workload all`` runs every workload in turn and prints one
such line per workload, labelled with its name. A fuller record goes to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS, Op

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 120.0
# Which module's estimator reports each conditioned operation's diagnostics.
OUTPUT_LAYER = {"yaglom": "limits", "qprocess": "limits", "lineages": "simcore", "envsel": "simcore"}


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["BPRE_THREADS"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(root: Path, argv: list[str], timeout: float) -> tuple[float, list[str]]:
    """Start a worker; return (seconds until READY, the lines after it)."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        cwd=root, env=worker_env(root), stdout=subprocess.PIPE, text=True,
    )
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - started
        lines = proc.stdout.readlines()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "READY" or code != 0:
        raise BenchmarkError(f"worker {' '.join(argv)} exited with code {code} before finishing")
    return setup, lines


def check_passes(ops: list[Op], checker, passes: list[dict]):
    """(attempted, failed, unexpected problems, first problem per op)."""
    attempted = failed = 0
    unexpected: list[str] = []
    first: dict[str, str] = {}
    for record in passes:
        results = {o["name"]: o["result"] for o in record["ops"] if "result" in o}
        for op, out in zip(ops, record["ops"]):
            attempted += 1
            if "error" in out:
                problems = [out["error"]]
            else:
                try:
                    problems = checker.check(op, out["result"], results)
                except (KeyError, TypeError, ValueError, IndexError) as exc:
                    problems = [f"{op.name}: unreadable output ({type(exc).__name__}: {exc})"]
            if problems:
                failed += 1
                first.setdefault(op.name, problems[0])
                if op.fault is None:
                    unexpected.extend(f"pass {record['pass']}: {p}" for p in problems)
    return attempted, failed, unexpected, first


def effective_events(record: dict) -> float:
    return sum(o["result"].get("effective_events", 0.0) for o in record["ops"] if "result" in o)


def trimmed_mean(values: list[float], cut: float = 0.1) -> float:
    """Mean of the values left after dropping the lowest and highest ``cut`` share.

    The host's speed switches between fast and slow stretches every few
    seconds (the same call in the same process can take 1.5x as long), so a
    run's pass times are a mix of the two. A mean moves smoothly with the
    share of slow stretches, where a median or a minimum jumps when that share
    crosses its quantile; the cut drops the warm-up pass and single stalls.
    """
    ordered = sorted(values)
    k = int(len(ordered) * cut)
    return statistics.fmean(ordered[k:len(ordered) - k])


def end_to_end_metrics(setups: list[float], untraced: list[dict], final: dict) -> dict:
    wall = trimmed_mean([r["wall_s"] for r in untraced])
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "ess_per_s": statistics.fmean(effective_events(r) for r in untraced) / wall,
        "peak_rss_mb": final["peak_rss_mb"],
    }


def per_layer_metrics(ops: list[Op], untraced: list[dict], traced: list[dict], final: dict):
    """(metrics, problems): per-pass means of the traced passes."""
    passes = len(traced)
    layers = final["layers"]
    counts = final["counts"]
    totals: dict[str, float] = {}
    problems = []
    for record in traced:
        tallies = layers.get(str(record["pass"]), {"self": {}, "inclusive": {}})
        self_sum = sum(tallies["self"].values())
        if self_sum > record["wall_s"] + 1e-6:
            problems.append(f"pass {record['pass']}: layer self times sum to {self_sum:.6f} s, "
                            f"more than the traced wall time {record['wall_s']:.6f} s")
        for kind in ("self", "inclusive"):
            for name, value in tallies[kind].items():
                totals[name] = totals.get(name, 0.0) + value
    metrics = {name: value / passes for name, value in totals.items()}
    for name in ("regime.classify_calls", "streams.rounds", "streams.chunks", "streams.reps",
                 "environment.draws", "lfexact.rep_gens", "limits.variates", "limits.kernel_rows",
                 "stats.pmf_atoms"):
        metrics[name] = counts.get(name, 0) / passes

    def per(numerator_s, count_name, scale=1e9):
        count = counts.get(count_name, 0)
        return scale * totals.get(numerator_s, 0.0) / count if count else 0.0

    metrics["environment.ns_per_draw"] = per("environment.draw_s", "environment.draws")
    metrics["lfexact.ns_per_rep_gen"] = per("lfexact.kernel_s", "lfexact.rep_gens")
    reps = counts.get("limits.reps", 0)
    metrics["limits.variates_per_rep"] = counts.get("limits.variates", 0) / reps if reps else 0.0

    kept, ess, drawn = [], {"limits": 0.0, "simcore": 0.0}, {"limits": 0, "simcore": 0}
    for record in traced:
        for op, out in zip(ops, record["ops"]):
            result = out.get("result")
            layer = OUTPUT_LAYER.get(op.op)
            if result is None or layer is None:
                continue
            if layer == "limits":
                kept.append(1.0 - result.get("tail_mass", result.get("overflow_mass", 0.0)))
            if "effective_events" in result:
                ess[layer] += result["effective_events"]
                drawn[layer] += result["reps_used"]
    metrics["limits.kept_mass"] = statistics.fmean(kept) if kept else 0.0
    for layer in ("limits", "simcore"):
        metrics[f"{layer}.ess_ratio"] = ess[layer] / drawn[layer] if drawn[layer] else 0.0
    walls = {r["pass"]: r["wall_s"] for r in untraced}
    metrics["trace.overhead_s"] = statistics.median(r["wall_s"] - walls[r["pass"]] for r in traced)
    return metrics, problems


def run_workload(root: Path, wanted: list[dict], workload: str, seed: int, seconds: float,
                 trace: int) -> dict:
    """Run one workload; return the result object (and write the fuller record)."""
    from checks import Checker

    ops = WORKLOADS[workload]
    checker = Checker(ops)
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}"
    common = ["--workload", workload, "--seed", str(seed)]
    setups = [
        run_worker(root, [*common, "--setup-only"], SETUP_TIMEOUT_S)[0]
        for _ in range(SETUP_SAMPLES - 1)
    ]
    setup, lines = run_worker(
        root,
        [*common, "--seconds", str(seconds), "--trace", str(trace),
         "--spans", str(out_dir / f"spans-{tag}.jsonl")],
        seconds + SETUP_TIMEOUT_S,
    )
    setups.append(setup)
    records = [json.loads(line) for line in lines if line.startswith("{")]
    if not records or not records[-1].get("final"):
        raise BenchmarkError("the worker gave no final record")
    final = records.pop()
    untraced = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]

    attempted, failed, unexpected, first = check_passes(ops, checker, records)
    if trace:
        values, problems = per_layer_metrics(ops, untraced, traced, final)
        unexpected.extend(problems)
    else:
        values = end_to_end_metrics(setups, untraced, final)
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    result = {"correct": not unexpected, "attempted": attempted, "failed": failed, "metrics": metrics}

    detail = {
        **result,
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "passes": len(untraced), "setup_samples_s": setups,
        "pass_wall_s": [r["wall_s"] for r in untraced],
        "pass_effective_events": [effective_events(r) for r in untraced],
        "op_wall_s": {op.name: [r["ops"][i]["wall_s"] for r in untraced] for i, op in enumerate(ops)},
        "failures": first, "unexpected": unexpected[:50],
        "known_faults": {op.name: op.fault for op in ops if op.fault},
        "unpatched": final.get("unpatched", []), "all_values": values,
    }
    (out_dir / f"{tag}.json").write_text(json.dumps(detail, indent=2) + "\n", encoding="utf-8")
    for problem in first.values():
        print(f"{workload}: failed: {problem}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run benchmark workloads.")
    parser.add_argument("--workload", required=True, help=f"one of {sorted(WORKLOADS)}, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "bpre" / "__init__.py").is_file():
        print("run from the root of a checkout: src/bpre is missing", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)} or all", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("--seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    for name in names:
        try:
            result = run_workload(root, wanted, name, args.seed, args.seconds, args.trace)
        except BenchmarkError as exc:
            print(f"benchmark failed on {name}: {exc}", file=sys.stderr)
            return 1
        # one workload prints the bare result; "all" labels each line
        print(json.dumps(result if len(names) == 1 else {"workload": name, **result}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
