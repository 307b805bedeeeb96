"""Every top-level import of a package module is used by that module, and
the brute-force oracles stay independent of the samplers they check."""

import ast
from pathlib import Path

import pytest

import bpre

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
    "_neg_binomial",
    "_evolve_skeleton",
    "_dressed_trajectories",
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
    assert "_draw_codes" in names_in(module_definitions("environment")["draw_env_batch"])
