"""One benchmark process: set up, warm up, then run timed passes.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the package sources
and ``BPRE_THREADS=1``. Protocol on standard output, one line each:
``READY`` once set-up (imports, model construction, one small call per
operation) is done; then one JSON object per timed pass; then a final JSON
object with ``"final": true``. With ``--setup-only`` it exits after
``READY``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from pathlib import Path

from bpre.errors import BpreError
from workloads import WORKLOADS, pass_seed, slim


def peak_rss_mb() -> float:
    """High-water resident memory of this process image (VmHWM). ru_maxrss
    is not used: Linux carries the parent's peak across fork and exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def run_pass(cli, config_from_dict, ops, seed: int) -> tuple[float, list[dict]]:
    """Run every operation once; return (seconds in the program, outputs)."""
    wall = 0.0
    outputs = []
    for op in ops:
        start = time.perf_counter()
        try:
            report = cli.run(config_from_dict(op.config(seed)))
        except Exception as exc:  # a failed operation is a result, not a crash
            took = time.perf_counter() - start
            wall += took
            error = f"{type(exc).__name__}: {exc}"
            if not isinstance(exc, BpreError):  # not a reported failure: keep the traceback
                error += "\n" + traceback.format_exc()
            outputs.append({"name": op.name, "wall_s": took, "error": error})
            continue
        took = time.perf_counter() - start
        wall += took
        outputs.append({"name": op.name, "wall_s": took, "result": slim(report["result"])})
    return wall, outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="file for the traced run's spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import bpre.cli as cli
    from bpre.config import config_from_dict

    ops = WORKLOADS[args.workload]
    for op in ops:
        try:
            cli.run(config_from_dict(op.warmup_config(args.seed)))
        except BpreError:
            pass  # the warm-up only pays first-call costs
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    started = time.perf_counter()
    index = 0
    while True:
        seed = pass_seed(args.seed, index)
        # traced runs repeat each pass traced, alternating which goes first,
        # so the pairs measure the tracing overhead
        order = (False, True) if index % 2 == 0 else (True, False)
        for traced in order if tracer is not None else (False,):
            if traced:
                tracer.install(index)
            try:
                wall, outputs = run_pass(cli, config_from_dict, ops, seed)
            finally:
                if traced:
                    tracer.uninstall()
            record = {"pass": index, "seed": seed, "traced": traced, "wall_s": wall, "ops": outputs}
            print(json.dumps(record), flush=True)
        index += 1
        if time.perf_counter() - started >= args.seconds:
            break

    final = {"final": True, "peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        final["layers"] = tracer.pass_layers()
        final["counts"] = dict(tracer.counts)
        final["unpatched"] = tracer.unpatched
        if args.spans:
            tracer.write_spans(Path(args.spans))
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
