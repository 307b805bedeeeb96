"""The checks accept exact outputs and reject wrong ones; the tracer splits a
call into layers whose self times fit inside it."""

import time

import pytest

import oracles as O
from checks import Checker
from workloads import COND_POP_WS, ENVMC_LF, S_GRID, Op


def survival_result(value, se):
    return {"estimate": {"value": value, "std_error": se}}


def test_survival_check_uses_the_reported_error():
    op = Op("s", "survival", "ws-ref", {"k": 1, "n": 8, "method": "env-exact"}, 100)
    checker = Checker([op])
    exact = O.annealed_survival(O.WS_REF, 1, 8)
    assert checker.check(op, survival_result(exact + 1e-4, 1e-4), {}) == []
    assert checker.check(op, survival_result(exact + 1e-2, 1e-4), {}) != []
    # a standard error of exactly zero passes only the exact value
    assert checker.check(op, survival_result(exact * 0.99, 0.0), {}) != []


def test_known_ss_fault_is_flagged():
    op = next(o for o in ENVMC_LF if o.name == "ss-survival-k1-n400")
    checker = Checker([op])
    # the program's output at seed 1: far below the exact 1.52e-171, SE 0.0
    assert checker.check(op, survival_result(1.14e-173, 0.0), {}) != []
    lo, hi = checker.expected[op.name]
    assert checker.check(op, survival_result(0.5 * (lo + hi), 0.0), {}) == []


def test_pathwise_relation_between_particle_counts():
    ops = [o for o in ENVMC_LF if "n100" in o.name]
    checker = Checker(ops)
    lo, hi = checker.expected[ops[0].name]
    p1 = survival_result(0.5 * (lo + hi), 1e-7)
    k4 = ops[1]
    lo4, hi4 = checker.expected[k4.name]
    inside = survival_result(0.5 * (lo4 + hi4), 1e-7)
    assert checker.check(k4, inside, {ops[0].name: p1}) == []
    too_big = survival_result(5 * p1["estimate"]["value"], 1.0)
    assert any("P_k" in p for p in checker.check(k4, too_big, {ops[0].name: p1}))


def test_yaglom_check_accepts_the_exact_law_and_rejects_a_shifted_one():
    op = COND_POP_WS[0]
    checker = Checker([op])
    exp = checker.expected[op.name]
    result = {
        "pgf_values": [1.0 if s == 1.0 else g for s, g in zip(S_GRID, exp["pgf"])],  # as reported
        "pmf": {str(j): [p, 0.0] for j, p in exp["pmf"].items()},
        "tail_mass": 0.0,
        "reps_used": op.reps,
    }
    assert checker.check(op, result, {}) == []
    result["pgf_values"] = [min(1.0, g + 0.2) for g in result["pgf_values"]]
    assert checker.check(op, result, {}) != []


def test_tracer_layers_fit_inside_the_call():
    pytest.importorskip("bpre")
    import bpre.cli as cli
    from bpre.config import config_from_dict

    from spans import Tracer

    original = cli.run
    config = config_from_dict({"op": "yaglom", "model": "ws-ref", "params": {"k": 1, "n": 6},
                               "seed": 3, "reps": 512})
    tracer = Tracer()
    tracer.install(0)
    try:
        start = time.perf_counter()
        cli.run(config)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    assert cli.run is original
    tallies = tracer.pass_layers()[0]
    assert {"cli.self_s", "limits.pop_s", "limits.profile_s", "environment.draw_s"} <= set(tallies["self"])
    assert sum(tallies["self"].values()) <= wall
    assert tallies["inclusive"]["cli.op.yaglom_s"] <= wall
    assert tracer.counts["limits.variates"] > 0
    assert tracer.counts["environment.draws"] == 512 * 6
    assert tracer.unpatched == []
