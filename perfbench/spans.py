"""Per-layer spans recorded from outside the package.

The tracer replaces module-level functions by timing wrappers, in the
module that looks each name up: ``simcore`` calls ``draw_survival_chunk``
through its own ``from .lfexact import`` binding, so that binding is the
one wrapped. Draws are timed and counted by a proxy around every generator
that ``bpre.streams.stream`` returns. Spans stay in memory; a layer's self
time is its spans' time minus the time covered by their child spans.

Layers take the names of modules:

- ``cli.self``: ``cli.run`` outside the estimator it calls;
- ``<module>.self``: an estimator's own code, and the per-chunk closures it
  hands to ``streams.run_chunks``;
- ``regime.classify``, ``stats.self``, ``streams.self`` (stream
  construction and concatenation), ``environment.draw`` (component draws),
  ``lfexact.kernel`` (``_lf_chunk``, ``_generic_chunk``), ``limits.profile``
  (``_draw_env_profile_chunk``), ``limits.pop`` (skeleton and chain steps),
  ``limits.kernel_row`` (``qprocess_kernel``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

import numpy as np

# Generator methods timed and counted; the last three are unused today but
# are what aggregate sampling would call.
DRAW_METHODS = (
    "choice", "geometric", "negative_binomial", "binomial", "random",
    "multinomial", "poisson", "integers",
)
POP = "limits.pop"
# Spans whose component draws are environment draws.
ENV_DRAW_PARENTS = ("lfexact.self", "limits.profile", "rwalk.self")
ESTIMATORS = (
    "annealed_survival", "joint_survival", "alpha_k_curve", "conditional_lineage_counts",
    "conditional_env_survival", "ln_tail", "ln_tail_exact", "occupation_tail",
    "reflected_sum_check", "yaglom", "qprocess_run", "qprocess_kernel", "env_posterior",
)
SEARCHED_MODULES = ("cli", "simcore", "limits", "rwalk", "lfexact")
FS_PATH_SPANS = {
    "lfexact._generic_chunk": "lfexact.generic_s",
    "limits._evolve_skeleton[fs]": "limits.skeleton_fs_s",
    "limits._chain_step_generic": "limits.chain_generic_s",
}


def _module_layer(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1] + ".self"


def _is_fs_model(args) -> bool:
    return not args[0].all_linear_fractional


class CountingGenerator:
    """Forwards to a numpy Generator; times and counts the draws."""

    def __init__(self, gen, tracer: "Tracer"):
        self._gen = gen
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _draw_method(name):
    def method(self, *args, **kwargs):
        return self._tracer.draw(name, getattr(self._gen, name), args, kwargs)

    method.__name__ = name
    return method


for _name in DRAW_METHODS:
    setattr(CountingGenerator, _name, _draw_method(_name))


class Tracer:
    """Installs timing wrappers into the package and collects spans."""

    def __init__(self):
        self.spans: list[list] = []  # [id, parent, layer, name, start, end, pass]
        self.counts: Counter = Counter()
        self.unpatched: list[str] = []
        self._stack: list[list] = []
        self._patches: list[tuple] = []
        self._pass = -1

    # --- spans -------------------------------------------------------------

    def _open(self, layer: str, name: str) -> list:
        span = [len(self.spans), self._stack[-1][0] if self._stack else None, layer, name,
                time.perf_counter(), None, self._pass]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[5] = time.perf_counter()
        self._stack.pop()

    def draw(self, method: str, call, args, kwargs):
        layer = self._stack[-1][2] if self._stack else None
        if layer == POP:
            out = call(*args, **kwargs)
            self.counts["limits.variates"] += int(np.size(out))
            return out
        if method == "choice" and layer in ENV_DRAW_PARENTS:
            span = self._open("environment.draw", "Generator.choice")
            try:
                out = call(*args, **kwargs)
            finally:
                self._close(span)
            self.counts["environment.draws"] += int(np.size(out))
            return out
        return call(*args, **kwargs)

    # --- wrappers ----------------------------------------------------------

    def _wrap(self, fn, layer: str, label=None, after=None):
        """``label`` names the spans: a string, or a function of the call's
        positional arguments; by default ``<module>.<function>``."""
        tracer = self
        label = label or f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(layer, label(args) if callable(label) else label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _patch(self, module, name: str, wrapper) -> None:
        self._patches.append((module, name, getattr(module, name)))
        setattr(module, name, wrapper)

    def _patch_named(self, modname: str, name: str, layer: str, **kw) -> None:
        module = importlib.import_module(f"bpre.{modname}")
        fn = getattr(module, name, None)
        if fn is None:
            self.unpatched.append(f"{modname}.{name}")
            return
        self._patch(module, name, self._wrap(fn, layer, **kw))

    def install(self, pass_index: int) -> None:
        """Wrap the package's layer boundaries for one traced pass."""
        import bpre.cli
        import bpre.regime
        import bpre.stats
        import bpre.streams

        self._pass = pass_index
        count = self.counts

        self._patch_named(
            "cli", "run", "cli.self", label=lambda args: f"cli.run:{args[0].op}"
        )
        for est in ESTIMATORS:
            fn = getattr(bpre.cli, est, None)
            if fn is not None:
                self._patch(bpre.cli, est, self._wrap(fn, _module_layer(fn)))

        # names looked up by several modules: wrap every binding
        stats_fns = {
            f for f in vars(bpre.stats).values()
            if inspect.isfunction(f) and f.__module__ == "bpre.stats"
        }
        classify = bpre.regime.classify
        for modname in SEARCHED_MODULES:
            module = importlib.import_module(f"bpre.{modname}")
            for name, obj in list(vars(module).items()):
                if obj is classify:
                    self._patch(module, name, self._wrap(
                        obj, "regime.classify",
                        after=lambda a, k, r: count.update({"regime.classify_calls": 1})))
                elif inspect.isfunction(obj) and obj in stats_fns:
                    after = None
                    if name == "weighted_pmf":
                        after = lambda a, k, r: count.update({"stats.pmf_atoms": len(r)})
                    self._patch(module, name, self._wrap(obj, "stats.self", after=after))

        def rep_gens(args, kwargs, result):
            count["lfexact.rep_gens"] += int(np.size(args[1]))

        self._patch_named("simcore", "draw_survival_chunk", "lfexact.self")
        self._patch_named("lfexact", "_lf_chunk", "lfexact.kernel", after=rep_gens)
        self._patch_named("lfexact", "_generic_chunk", "lfexact.kernel", after=rep_gens)
        self._patch_named("limits", "_draw_env_profile_chunk", "limits.profile")
        self._patch_named(
            "limits", "_evolve_skeleton", POP,
            label=lambda args: "limits._evolve_skeleton" + ("[fs]" if _is_fs_model(args) else ""),
        )
        for name in ("_dressed_trajectories", "_chain_step_lf", "_chain_step_generic"):
            self._patch_named("limits", name, POP)
        self._patch_named(
            "limits", "qprocess_kernel", "limits.kernel_row",
            after=lambda a, k, r: count.update({"limits.kernel_rows": 1}),
        )

        run_chunks = bpre.streams.run_chunks
        stream = bpre.streams.stream
        tracer = self

        def traced_run_chunks(fn, reps, *args, **kwargs):
            layer = _module_layer(fn)

            def chunk(rng, size, start):
                count["streams.chunks"] += 1
                if layer == "limits.self":
                    count["limits.reps"] += size
                span = tracer._open(layer, "chunk")
                try:
                    return fn(rng, size, start)
                finally:
                    tracer._close(span)

            count["streams.rounds"] += 1
            count["streams.reps"] += reps
            span = tracer._open("streams.self", "streams.run_chunks")
            try:
                return run_chunks(chunk, reps, *args, **kwargs)
            finally:
                tracer._close(span)

        def traced_stream(*args, **kwargs):
            return CountingGenerator(stream(*args, **kwargs), tracer)

        self._patch(bpre.streams, "run_chunks", traced_run_chunks)
        self._patch(bpre.streams, "stream", traced_stream)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    # --- summaries ---------------------------------------------------------

    def pass_layers(self) -> dict[int, dict[str, dict[str, float]]]:
        """Per traced pass: ``self`` seconds per layer (``<layer>_s``), and
        ``inclusive`` seconds per ``cli.op.<op>_s`` and per FS-path function."""
        child_time = defaultdict(float)
        for sid, parent, layer, name, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict = defaultdict(lambda: {"self": defaultdict(float), "inclusive": defaultdict(float)})
        for sid, parent, layer, name, start, end, pass_index in self.spans:
            dur = end - start
            tallies = out[pass_index]
            tallies["self"][f"{layer}_s"] += dur - child_time[sid]
            if name.startswith("cli.run:"):
                tallies["inclusive"][f"cli.op.{name.split(':', 1)[1]}_s"] += dur
            if name in FS_PATH_SPANS:
                tallies["inclusive"][FS_PATH_SPANS[name]] += dur
        return {p: {kind: dict(v) for kind, v in t.items()} for p, t in out.items()}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, layer, name, start, end, pass_index in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "layer": layer, "name": name,
                                     "start": start, "end": end, "pass": pass_index}) + "\n")
