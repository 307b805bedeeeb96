"""Every top-level import of a package module is used by that module, the
brute-force oracles stay independent of the samplers they check, and the
package, its CLI ops and its acceptance suite run without importing scipy."""

import ast
import dataclasses
import json
import os
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import pytest

import bpre
from bpre.environment import EnvBatch, EnvironmentModel, ss_ref, ws_ref
from bpre.offspring import FiniteSupport
from bpre.simcore import ConditionedEnvSamples, EnvSamples

MODULES = sorted(
    path for path in Path(bpre.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_sees_an_unused_import():
    source = "import os\nfrom math import pi as tau, e\nimport numpy.linalg\nprint(e)\n"
    assert unused_imports(source) == ["os", "tau", "numpy"]


# the aggregate population sampler of ``limits``, the closed-form Q-process
# marginals that replace it for all-LF models, and the conditioned draw they run on
AGGREGATE_SAMPLER = (
    "_generation",
    "_lf_totals",
    "_fs_totals",
    "_prolific_weights",
    "_neg_binomial",
    "_exact_chain_law",
    "_sample_populations",
    "_marginal_tails",
    "SurvivorTail",
    "lf_forward",
    "draw_conditioned_env",
)
ORACLES = [
    ("simcore", "evolve_lineages"),
    ("simcore", "lineage_counts_by_simulation"),
    ("limits", "conditioned_population_by_rejection"),
]


def module_definitions(module: str) -> dict[str, ast.FunctionDef | ast.ClassDef]:
    tree = ast.parse((Path(bpre.__file__).parent / f"{module}.py").read_text(encoding="utf-8"))
    return {
        node.name: node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }


def names_in(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


@pytest.mark.parametrize("module, oracle", ORACLES, ids=[name for _, name in ORACLES])
def test_oracle_names_no_aggregate_sampler_helper(module, oracle):
    assert names_in(module_definitions(module)[oracle]).isdisjoint(AGGREGATE_SAMPLER)


def test_aggregate_sampler_helpers_exist():
    # a renamed helper would make the independence check pass vacuously
    defined = set().union(*(module_definitions(m) for m in ("limits", "simcore", "lfexact")))
    assert set(AGGREGATE_SAMPLER) <= defined


def test_environment_draws_block_codes_only():
    # environments are drawn one block code per uniform through an alias
    # table, never one categorical draw per generation, and no module
    # re-packs per-generation indices into block codes
    tree = ast.parse((Path(bpre.__file__).parent / "environment.py").read_text(encoding="utf-8"))
    assert "categorical" not in names_in(tree)
    for path in MODULES + [Path(bpre.__file__)]:
        module = ast.parse(path.read_text(encoding="utf-8"))
        defined = {node.name for node in ast.walk(module) if isinstance(node, ast.FunctionDef)}
        assert "_block_codes" not in names_in(module) | defined
    assert "_draw_slots" in names_in(module_definitions("environment")["draw_env_batch"])


def imports_from_streams(tree: ast.Module) -> list[str]:
    """Names a module imports from ``streams`` or of it, at any depth."""
    return [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if node.module == "streams" or alias.name == "streams"
    ]


def test_one_environment_draw():
    # draw_env_batch draws every environment, the SS/IS Q-process's
    # mean-size-biased spine included: no package module defines or names a
    # categorical sampler of its own, offspring draws through Generator.choice
    # and takes nothing from streams, and the population sampler reads its
    # components from the drawn batch instead of drawing them per generation
    for path in MODULES + [Path(bpre.__file__)]:
        module = ast.parse(path.read_text(encoding="utf-8"))
        defined = {node.name for node in ast.walk(module) if isinstance(node, ast.FunctionDef)}
        assert "categorical" not in names_in(module) | defined, path.stem
    offspring = ast.parse((Path(bpre.__file__).parent / "offspring.py").read_text(encoding="utf-8"))
    assert imports_from_streams(offspring) == []
    sampler = module_definitions("limits")["_sample_populations"]
    assert names_in(sampler).isdisjoint({"draw_env_batch", "_draw_slots", "weights", "means", "gamma"})
    assert "draw_env_batch" in names_in(module_definitions("limits")["qprocess_run"])


def test_one_population_sampler():
    # every sampled Q-process, SS/IS past the exact bound and WS of a model
    # that is not all-LF, steps its populations through _sample_populations:
    # qprocess_run calls it once, and returns only before it (the exact law,
    # which draws nothing) and after it, past every branch; no module keeps
    # a chain step of its own or a size-biased CDF for one
    run = module_definitions("limits")["qprocess_run"]
    calls = [sub.lineno for sub in ast.walk(run) if getattr(sub, "id", None) == "_sample_populations"]
    returns = sorted(sub.lineno for sub in ast.walk(run) if isinstance(sub, ast.Return))
    assert len(calls) == 1 and len(returns) == 2
    assert returns[0] < calls[0] < returns[1] and run.body[-1].lineno == returns[1]
    for path in MODULES:
        assert "_chain_step" not in module_definitions(path.stem), path.stem
    for name in ("_StepTable", "_step_table"):
        assert "biased_cdf" not in names_in(module_definitions("lfexact")[name])


def test_test_modules_import_no_test_module():
    # shared fixtures live in tests/helpers.py, so one test module failing
    # to collect does not stop the modules that use its fixtures
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            assert not [name for name in names if name.startswith("test_")], path.name


def test_streams_import_check_sees_an_import():
    assert imports_from_streams(ast.parse("from .streams import categorical")) == ["categorical"]
    assert imports_from_streams(ast.parse("from . import streams")) == ["streams"]
    assert imports_from_streams(ast.parse("from .errors import ValidationError")) == []


def test_one_survival_recursion():
    # the survival step is defined once, in the batch kernel of lfexact, and
    # the quenched survival of one sequence runs that kernel
    steps = {
        path.stem: [
            name
            for name in module_definitions(path.stem)
            if "survival_step" in name or name.startswith(("_log_step", "_lf_step"))
        ]
        for path in MODULES
    }
    assert sorted(steps.pop("lfexact")) == ["_log_step", "_log_steps"]
    assert not any(steps.values()), steps
    assert not [name for name in module_definitions("offspring") if "survival" in name]
    assert "log_survival" in names_in(module_definitions("lfexact")["log_survival_env"])


# the four readers of the law of the surviving lines, J ~ Binomial(k, q)
# given J >= 1, and the function or method of each that reads it
LINE_LAW_READERS = [
    ("simcore", "conditional_lineage_counts"),
    ("lfexact", "conditioned_law"),
    ("lfexact", "SurvivorTail.of"),
    ("limits", "conditioned_binomial_positive"),
]


def definition(module: str, dotted: str) -> ast.AST:
    node = module_definitions(module)[dotted.split(".")[0]]
    for name in dotted.split(".")[1:]:
        node = next(sub for sub in node.body if getattr(sub, "name", None) == name)
    return node


@pytest.mark.parametrize(
    "module, name", LINE_LAW_READERS, ids=[name for _, name in LINE_LAW_READERS]
)
def test_one_law_of_surviving_lines(module, name):
    # the law is formed once, in lfexact.surviving_lines; its readers take
    # it from there and form no binomial coefficient of their own
    names = names_in(definition(module, name))
    assert "surviving_lines" in names
    assert "comb" not in names


def loops_over_atoms(node: ast.AST) -> list[ast.AST]:
    """The ``for`` loops and comprehensions in ``node`` over a ``range``
    whose arguments name ``atoms``."""
    return [
        sub
        for sub in ast.walk(node)
        if isinstance(sub, (ast.For, ast.comprehension))
        and isinstance(sub.iter, ast.Call)
        and getattr(sub.iter.func, "id", None) == "range"
        and "atoms" in names_in(sub.iter)
    ]


def test_conditioned_law_takes_whole_arrays():
    # the closed-form Yaglom law is reduced as weighted block sums, each
    # line's atoms in one array operation; it looped over the atoms of every
    # line, and stats.column_moments reduced the rows it returned
    law = definition("lfexact", "conditioned_law")
    assert loops_over_atoms(law) == []
    names = names_in(law)
    assert "surviving_lines" in names and "comb" not in names
    assert "column_moments" not in module_definitions("stats")


def test_atom_loop_check_sees_a_loop():
    assert loops_over_atoms(ast.parse("for z in range(j, atoms + 1):\n    pass"))
    assert loops_over_atoms(ast.parse("[z for z in range(atoms)]"))
    assert not loops_over_atoms(ast.parse("for j, line in enumerate(lines, 2):\n    pass"))
    assert not loops_over_atoms(ast.parse("for i in range(k):\n    pass"))


def sum_calls(node: ast.AST) -> list[ast.Call]:
    """The ``.sum()`` method calls in ``node``."""
    return [
        sub
        for sub in ast.walk(node)
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute) and sub.func.attr == "sum"
    ]


def test_tail_median_reads_floats():
    # each tail returns its weighted sum as a float; the search summed the
    # per-replicate array of every evaluation
    assert sum_calls(definition("limits", "_tail_median")) == []
    assert sum_calls(ast.parse("tail(lo).sum() > half", mode="eval"))


# the linear per-replicate numbers of the draw records, each formed by exp
# from a log the draw holds: q (dropped from the records), the importance
# weight and the conditioning weight
LINEAR_DRAW_ATTRIBUTES = {"q", "w", "survive_w"}


def logs_a_draw_attribute(node: ast.AST) -> bool:
    """True for a ``log`` call (``np.log``, ``math.log``) on an expression
    that reads one of ``LINEAR_DRAW_ATTRIBUTES``."""
    return (
        isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "log"
        and any(
            isinstance(sub, ast.Attribute) and sub.attr in LINEAR_DRAW_ATTRIBUTES
            for arg in node.args
            for sub in ast.walk(arg)
        )
    )


def test_draw_quantities_are_held_in_logs():
    # the draw keeps log q, log w and S_n once: no linear q is stored beside
    # log q, the batch derives S_n and its weights from its codes and plan,
    # and no reader takes the log of a linear number the draw formed by exp
    for record in (EnvSamples, ConditionedEnvSamples):
        names = {f.name for f in dataclasses.fields(record)}
        assert "log_q" in names and "q" not in names, record
    assert "w" not in {f.name for f in dataclasses.fields(EnvBatch)}
    assert not hasattr(EnvBatch, "walk_end")
    for name in ("s_n", "log_w", "w"):
        assert isinstance(vars(EnvBatch).get(name), cached_property), name
    found = [
        (module, name)
        for module in ("simcore", "limits")
        for name, node in module_definitions(module).items()
        if any(logs_a_draw_attribute(sub) for sub in ast.walk(node))
    ]
    assert not found, found


def test_log_check_sees_a_draw_attribute():
    assert logs_a_draw_attribute(ast.parse("np.log(cond.q)", mode="eval").body)
    assert logs_a_draw_attribute(ast.parse("np.log(1.0 - batch.w)", mode="eval").body)
    assert not logs_a_draw_attribute(ast.parse("np.log(model.means)", mode="eval").body)
    assert not logs_a_draw_attribute(ast.parse("np.log(cond.log_q)", mode="eval").body)
    assert not logs_a_draw_attribute(ast.parse("np.exp(cond.log_q)", mode="eval").body)


# the readers of the per-component family parameters of ``lfexact._step_table``,
# and the generic survival step and population draws that gather them by
# component index, and the kernel-row builder that steps each family from them
STEP_TABLE_READERS = [
    ("lfexact", "_lf_tables"),
    ("lfexact", "lf_forward"),
    ("lfexact", "_log_steps"),
    ("limits", "_generation"),
    ("limits", "_chain_states"),
    ("limits", "_exact_chain_law"),
    ("limits", "_kernel_rows"),
]
FAMILY_GATHERS = [
    ("lfexact", "_log_step"),
    ("lfexact", "_log_steps"),
    ("limits", "_generation"),
    ("limits", "_exact_chain_law"),
    ("limits", "_kernel_rows"),
]


def forms_c(node: ast.AST) -> bool:
    """True for ``B / (1.0 - ...)`` or ``b / (1.0 - ...)``: c = B / (1 - B)."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)):
        return False
    left, right = node.left, node.right
    name = left.id if isinstance(left, ast.Name) else getattr(left, "attr", None)
    return (
        name in ("B", "b")
        and isinstance(right, ast.BinOp)
        and isinstance(right.op, ast.Sub)
        and isinstance(right.left, ast.Constant)
        and right.left.value == 1.0
    )


def test_c_is_formed_once():
    # c = B / (1 - B) of a linear-fractional law is formed in the step table
    # and read from there
    found = [
        (path.stem, name)
        for path in MODULES
        for name, node in module_definitions(path.stem).items()
        if any(forms_c(sub) for sub in ast.walk(node))
    ]
    assert found == [("lfexact", "_step_table")]
    assert forms_c(ast.parse("law.B / (1.0 - law.B)", mode="eval").body)
    assert not forms_c(ast.parse("law.A / (1.0 - law.B)", mode="eval").body)


def test_no_second_family_table():
    assert not [path for path in MODULES if "_lf_arrays" in module_definitions(path.stem)]


def is_component_mask(node: ast.AST) -> bool:
    """True for a comparison ``x == comp`` or ``comp == x``."""
    return (
        isinstance(node, ast.Compare)
        and any(isinstance(op, ast.Eq) for op in node.ops)
        and any(
            isinstance(sub, ast.Name) and sub.id == "comp" for sub in [node.left, *node.comparators]
        )
    )


@pytest.mark.parametrize(
    "module, name", STEP_TABLE_READERS, ids=[name for _, name in STEP_TABLE_READERS]
)
def test_family_parameters_come_from_the_step_table(module, name):
    assert "_step_table" in names_in(definition(module, name))


@pytest.mark.parametrize(
    "module, name", FAMILY_GATHERS, ids=[name for _, name in FAMILY_GATHERS]
)
def test_family_gathers_branch_on_no_law(module, name):
    # every row's family parameters are gathered by component index, and
    # the exact chain law reads the table's pmfs, with no isinstance test on
    # a law and no per-component row mask
    node = definition(module, name)
    assert not [
        sub
        for sub in ast.walk(node)
        if isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "isinstance"
    ]
    assert not [sub for sub in ast.walk(node) if is_component_mask(sub)]


def test_one_finite_support_step():
    # every finite-support row of a generation is stepped at once from the
    # step table's pmfs, by stick-breaking binomials: no multinomial draw,
    # no per-component row groups and no per-law joint outcome table
    names = names_in(ast.parse((Path(bpre.__file__).parent / "limits.py").read_text(encoding="utf-8")))
    assert names.isdisjoint({"multinomial", "_fs_groups", "_pair_table"})
    assert "binomial" in names_in(definition("limits", "_fs_totals"))


def test_exact_chain_law_draws_nothing():
    # the bounded SS/IS chain's law is computed: its branch draws no
    # environment and runs no chunk
    names = names_in(definition("limits", "_exact_chain_law"))
    assert names.isdisjoint({"draw_env_batch", "run_chunks", "rng", "stream"})
    assert "_exact_chain_law" in names_in(definition("limits", "qprocess_run"))


def test_one_kernel_row_builder():
    # the size-biased kernel and the exact chain law step their rows one
    # particle at a time in _kernel_rows: no binary powering, no FFT
    for name in ("qprocess_kernel", "_exact_chain_law"):
        assert "_kernel_rows" in names_in(definition("limits", name))
    source = (Path(bpre.__file__).parent / "limits.py").read_text(encoding="utf-8")
    for gone in ("_component_pmf", "_convolve", "_convolve_power", "fftconvolve"):
        assert gone not in source


def test_mask_check_sees_a_component_mask():
    assert is_component_mask(ast.parse("col == comp", mode="eval").body)
    assert is_component_mask(ast.parse("comp == col", mode="eval").body)
    assert not is_component_mask(ast.parse("col == 0", mode="eval").body)


def absolute_imports(tree: ast.Module) -> set[str]:
    """Top-level packages a module imports by absolute name, at any depth."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_package_imports_no_scipy():
    # numpy is the package's one runtime dependency; scipy serves the tests
    for path in MODULES + [Path(bpre.__file__)]:
        assert "scipy" not in absolute_imports(ast.parse(path.read_text(encoding="utf-8"))), path.stem


def test_scipy_check_sees_a_deferred_import():
    source = "def f():\n    from scipy.interpolate import PchipInterpolator\nfrom . import streams\n"
    assert absolute_imports(ast.parse(source)) == {"scipy"}
    assert absolute_imports(ast.parse("import scipy.signal as sig")) == {"scipy"}


# one small run of each op a survival, Yaglom or Q-process command makes, a
# kernel row far from the start, and criterion C12, which reads the Yaglom pgf
# off its functional equation; no scipy module may load, though the package
# and its acceptance suite are imported
SCIPY_FREE_OPS = [
    {"op": "survival", "model": "ws-ref", "params": {"k": 1, "n": 8}},
    {"op": "jointsurv", "model": "ws-ref", "params": {"k": 2, "n": 8, "method": "tilted-IS"}},
    {"op": "yaglom", "model": "ws-ref", "params": {"k": 1, "n": 8}},
    {"op": "lineages", "model": "ws-ref", "params": {"k": 2, "n": 8}},
    {"op": "envsel", "model": "ws-ref", "params": {"k": 1, "n": 8}},
    {"op": "qprocess", "model": "ws-ref", "params": {"k": 1, "horizon": 4}},
    {"op": "qprocess", "model": "ss-ref", "params": {"kernel_state": 1000}},
    {"op": "rwalk-tail", "model": "ws-ref", "params": {"n": 8, "x": 1.0}},
]
SCIPY_PROBE = """
import json, sys
import bpre, bpre.acceptance, bpre.cli
from bpre.config import config_from_dict
for raw in json.loads(sys.argv[1]):
    bpre.cli.run(config_from_dict({**raw, "seed": 1, "reps": 256}))
assert bpre.acceptance.run_criterion("C12").passed
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def test_cli_ops_import_no_scipy():
    src = str(Path(bpre.__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, json.dumps(SCIPY_FREE_OPS)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def passes_then(node: ast.AST) -> bool:
    """True for a ``draw_conditioned_env`` call given a seventh argument or ``then=``."""
    return (
        isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "draw_conditioned_env"
        and (len(node.args) > 6 or any(kw.arg == "then" for kw in node.keywords))
    )


def test_conditioned_draw_keeps_its_environments():
    # the record carries the drawn environments, whose ``w`` is the
    # importance weight, and nothing drawn after them: functionals of the
    # environments, the survival profile included, and the populations
    # sampled given them are read from ``env`` after the draw, so the draw
    # takes no callback and no caller passes one
    names = {f.name for f in dataclasses.fields(ConditionedEnvSamples)}
    assert "env" in names and names.isdisjoint({"w", "drawn"})
    draw = module_definitions("simcore")["draw_conditioned_env"]
    params = [arg.arg for arg in draw.args.args + draw.args.kwonlyargs]
    assert params == ["model", "k", "n", "reps", "seed", "purpose"]
    nested = [
        getattr(sub, "name", "lambda")
        for sub in ast.walk(draw)
        if isinstance(sub, (ast.FunctionDef, ast.Lambda)) and sub is not draw
    ]
    assert nested == ["chunk"], nested
    callers = [
        path.stem
        for path in MODULES
        for sub in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if passes_then(sub)
    ]
    assert callers == []


def test_then_check_sees_a_callback():
    assert passes_then(ast.parse("draw_conditioned_env(m, k, n, r, s, p, f)", mode="eval").body)
    assert passes_then(ast.parse("simcore.draw_conditioned_env(m, k, n, r, s, p, then=f)", mode="eval").body)
    assert not passes_then(ast.parse("draw_conditioned_env(m, k, n, r, s, p)", mode="eval").body)


def test_one_qprocess_median(monkeypatch):
    # every branch of qprocess_run, the SS/IS chain and its exact law and the
    # closed-form and sampled WS laws, reports its medians through the one
    # weighted-tail search, once per generation, and no other median is left
    # in limits or stats
    from bpre import limits

    assert "weighted_median" not in module_definitions("stats")
    limits_tree = ast.parse((Path(bpre.__file__).parent / "limits.py").read_text(encoding="utf-8"))
    assert names_in(limits_tree).isdisjoint({"median", "weighted_median"})
    searches = []
    search = limits._tail_median
    monkeypatch.setattr(limits, "_tail_median", lambda *a: searches.append(a) or search(*a))
    fs_ws = EnvironmentModel(
        [(FiniteSupport((0.5, 0.3, 0.2)), 0.5), (FiniteSupport((0.3, 0.3, 0.2, 0.2)), 0.5)]
    )
    fs_ss = EnvironmentModel(
        [(FiniteSupport((0.5, 0.3, 0.2)), 0.5), (FiniteSupport((0.7, 0.2, 0.1)), 0.5)]
    )
    for model, method in [
        (ss_ref(), "exact-kernel-chain"),
        (fs_ss, "exact-kernel-law"),
        (ws_ref(), "finite-horizon-approximation(lookahead=10)+closed-form"),
        (fs_ws, "finite-horizon-approximation(lookahead=10)"),
    ]:
        searches.clear()
        run = limits.qprocess_run(model, 1, 3, 512, seed=1)
        assert run.method == method
        assert len(searches) == len(run.medians) == 4
        # each search reads its tail as one float, the weighted tail sum
        for (tail, total, guess), found in zip(searches, run.medians):
            assert [type(tail(z)) for z in (0, guess, int(found))] == [float] * 3
            assert tail(0) == pytest.approx(total, rel=1e-12)
            assert tail(int(found)) <= 0.5 * total < tail(int(found) - 1)


# what a module needs to draw environments or read alias slots other than
# through ``draw_env_batch`` and an ``EnvBatch``
SLOT_DRAW = {"_draw_slots", "_alias_table", "_slot_log_means", "_slot_steps", "_lf_slot_tables", "block_length"}


def test_one_slot_draw_and_one_lf_kernel():
    # the alias-slot draw is named in draw_env_batch alone; the estimators
    # reach environments through draw_env_batch only and gather by no slot; and
    # drawn and packed batches step through the one _lf_blocks, the only
    # reader of the slot tables of the LF kernel
    for path in MODULES + [Path(bpre.__file__)]:
        module = ast.parse(path.read_text(encoding="utf-8"))
        callers = {
            node.name
            for node in ast.walk(module)
            if isinstance(node, ast.FunctionDef) and node.name != "_draw_slots"
            and "_draw_slots" in names_in(node)
        }
        assert callers == ({"draw_env_batch"} if path.stem == "environment" else set()), path.stem
    for module in ("simcore", "rwalk", "limits"):
        tree = ast.parse((Path(bpre.__file__).parent / f"{module}.py").read_text(encoding="utf-8"))
        assert names_in(tree).isdisjoint(SLOT_DRAW), module
        assert "draw_env_batch" in names_in(tree), module
    lfexact = module_definitions("lfexact")
    readers = {name for name, node in lfexact.items() if "_lf_slot_tables" in names_in(node)}
    assert readers == {"_lf_blocks"}
    for entry in ("log_survival", "log_survival_profile"):
        assert {"_as_batch", "_lf_blocks"} <= names_in(lfexact[entry]), entry
    assert "pack_env" in names_in(lfexact["_as_batch"])
    assert "_lf_blocks" not in names_in(module_definitions("environment")["EnvBatch"])
