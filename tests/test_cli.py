import json
import math
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bpre import cli, simcore, streams
from bpre.cli import EXIT_STARVATION, EXIT_VALIDATION, OP_HANDLERS, build_parser, main, run
from bpre.config import config_from_dict, model_from_config, model_hash
from bpre.environment import ss_ref, ws_ref
from bpre.errors import BpreError, ValidationError
from bpre.limits import qprocess_kernel


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


class TestConfig:
    def test_missing_seed_names_field(self):
        with pytest.raises(ValidationError) as err:
            config_from_dict({"op": "regime", "model": "ss-ref"})
        assert err.value.field == "seed"

    def test_roundtrip_through_echo(self):
        cfg = config_from_dict(
            {"op": "survival", "model": "ss-ref", "seed": 7, "reps": 100,
             "params": {"k": 1, "n": 5}}
        )
        echoed = cfg.echo()
        again = config_from_dict(echoed)
        assert again.seed == cfg.seed
        assert again.op == cfg.op
        assert again.params == cfg.params

    def test_inline_model_parses(self):
        spec = {
            "components": [
                {"law": {"lf": {"A": 0.125, "B": 0.5}}, "weight": 0.5},
                {"law": {"fs": [0.75, 0.0, 0.25]}, "weight": 0.5},
            ]
        }
        model = model_from_config(spec)
        assert len(model.components) == 2

    def test_model_hash_stable(self):
        assert model_hash(ss_ref()) == model_hash(ss_ref())


class TestRun:
    def test_bad_op(self):
        # the op is checked when the config runs, against the handlers
        for op in ("na", None, ["survival"]):
            with pytest.raises(ValidationError) as err:
                run(config_from_dict({"op": op, "model": "ss-ref", "seed": 1}))
            assert err.value.field == "op"

    def test_regime_report_values(self):
        cfg = config_from_dict({"op": "regime", "model": "ss-ref", "seed": 1})
        report = run(cfg)
        assert report["result"]["regime"] == "SS"
        assert report["result"]["gamma"] == pytest.approx(0.375, abs=1e-15)

    def test_rerun_reproduces_bit_for_bit(self):
        raw = {
            "op": "survival", "model": "ws-ref", "seed": 123, "reps": 20000,
            "params": {"k": 2, "n": 12, "method": "tilted-IS"},
        }
        r1 = run(config_from_dict(raw))
        r2 = run(config_from_dict(raw))
        assert r1["records"] == r2["records"]
        # and re-running the echoed config reproduces the records too
        r3 = run(config_from_dict(r1["config"]))
        assert r3["records"] == r1["records"]


class TestCliEndToEnd:
    def test_regime_json(self, capsys):
        code, out, _ = run_cli(["regime", "--model", "ss-ref"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["gamma"] == pytest.approx(0.375)

    def test_json_report_is_strict_json(self, capsys):
        # the one-step exact posterior has infinitely many effective events
        args = ["envpost", "--model", "ws-ref", "--k", "1", "--p", "1", "--n", "0", "--seed", "1"]
        code, out, _ = run_cli(args, capsys)
        assert code == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        payload = json.loads(out, parse_constant=reject)
        assert payload["result"]["effective_events"] is None
        config = config_from_dict(
            {"op": "envpost", "model": "ws-ref", "seed": 1, "params": {"k": 1, "p": 1, "n": 0}}
        )
        assert run(config)["result"]["effective_events"] == math.inf

    def test_survival_csv_columns(self, capsys, tmp_path):
        out_file = tmp_path / "est.csv"
        code, _, _ = run_cli(
            ["survival", "--model", "ss-ref", "--k", "1", "--n", "5",
             "--reps", "500", "--seed", "3", "--format", "csv",
             "--out", str(out_file)],
            capsys,
        )
        assert code == 0
        header = out_file.read_text().splitlines()[0]
        assert header == "estimand,value,std_error,reps,method,model_hash,seed"

    def test_run_config_file(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {"op": "regime", "model": "ss-ref", "seed": 5, "params": {}}
            )
        )
        code, out, _ = run_cli(["run", "--config", str(cfg_path)], capsys)
        assert code == 0
        assert json.loads(out)["result"]["regime"] == "SS"

    def test_all_dead_alpha_k_writes_null(self, capsys, tmp_path):
        # every environment drawn to n = 100 is dead: alpha_k is 0/0
        dead = {"components": [{"law": {"lf": {"A": 0.0, "B": 0.0}}, "weight": 0.5},
                               {"law": {"lf": {"A": 0.25, "B": 0.5}}, "weight": 0.5}]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"op": "alphak", "model": dead, "seed": 1, "reps": 512,
                                        "params": {"k_list": [2], "n_list": [100]}}))
        code, out, _ = run_cli(["run", "--config", str(cfg_path)], capsys)
        assert code == 0
        report = json.loads(out)
        (row,) = report["result"]["rows"]
        assert row["value"] is None and row["std_error"] is None and row["combined_se"] is None
        (record,) = report["records"]
        assert record["value"] is None and record["std_error"] is None

    def test_missing_seed_in_config_is_validation_exit(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"op": "regime", "model": "ss-ref"}))
        code, _, err = run_cli(["run", "--config", str(cfg_path)], capsys)
        assert code == EXIT_VALIDATION
        assert "seed" in err

    @pytest.mark.parametrize("out", [True, 7, "", ["r.json"]], ids=["true", "7", "empty", "list"])
    def test_out_must_be_a_path(self, out):
        raw = {"op": "regime", "model": "ss-ref", "seed": 1, "out": out}
        with pytest.raises(ValidationError) as err:
            config_from_dict(raw)
        assert err.value.field == "out"

    @pytest.mark.parametrize("out", [True, 7], ids=["true", "7"])
    def test_non_path_out_is_validation_exit(self, out, tmp_path):
        # in a child process: before the check, true opened and closed fd 1
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"op": "regime", "model": "ss-ref", "seed": 1, "out": out}))
        proc = subprocess.run(
            [sys.executable, "-m", "bpre.cli", "run", "--config", str(cfg_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_VALIDATION
        assert proc.stdout == ""
        assert "out" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_quenched_config_is_validation_exit(self, capsys, tmp_path):
        # the quenched subcommand takes an environment file, not a model
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"op": "quenched", "model": "ss-ref", "seed": 1}))
        code, _, err = run_cli(["run", "--config", str(cfg_path)], capsys)
        assert code == EXIT_VALIDATION
        assert "op" in err

    def test_supercritical_model_validation_exit(self, capsys, tmp_path):
        model_path = tmp_path / "model.json"
        model_path.write_text(
            json.dumps(
                {"components": [{"law": {"lf": {"A": 0.5, "B": 0.5}}, "weight": 1.0}]}
            )
        )
        code, _, err = run_cli(["regime", "--model", str(model_path)], capsys)
        assert code == EXIT_VALIDATION
        assert "subcritical" in err

    def test_quenched_env_file(self, capsys, tmp_path):
        env_path = tmp_path / "env.json"
        env_path.write_text(json.dumps([{"lf": {"A": 0.25, "B": 0.5}}] * 4))
        code, out, _ = run_cli(
            ["quenched", "--env", str(env_path), "--k", "1"], capsys
        )
        assert code == 0
        assert json.loads(out)["result"]["p"] == pytest.approx(0.2, abs=1e-12)

    def test_exact_tail_subcommand(self, capsys):
        code, out, _ = run_cli(
            ["rwalk", "tail", "--model", "ws-ref", "--n", "8", "--x", "2",
             "--method", "exact-enum", "--seed", "1"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["result"]["value"] == pytest.approx(0.25, abs=1e-10)

    def test_unknown_acceptance_suite(self, capsys):
        with pytest.raises(SystemExit):
            # argparse rejects the unknown choice before dispatch
            main(["acceptance", "medium"])

    def test_starvation_exit_code(self, capsys):
        # far horizon + tiny replicate budget: the conditioning weights
        # degenerate and escalation cannot rescue the effective count
        code, _, err = run_cli(
            ["yaglom", "--model", "ss-ref", "--k", "1", "--n", "30",
             "--reps", "15", "--seed", "2"],
            capsys,
        )
        assert code == EXIT_STARVATION
        assert "starved" in err

    def test_underflow_exit_code(self, capsys):
        # survival at n = 1200 underflows in linear scale: an error, not 0.0
        code, out, err = run_cli(
            ["survival", "--model", "ss-ref", "--k", "1", "--n", "1200",
             "--reps", "4096", "--seed", "1"],
            capsys,
        )
        assert code == 1 and out == ""
        assert "underflowed" in err

    def test_unknown_param_key_is_validation_exit(self, capsys, tmp_path):
        # a misspelled key must not silently run at the default n = 20
        raw = {"op": "yaglom", "model": "ws-ref", "seed": 1, "params": {"k": 1, "N": 6}}
        with pytest.raises(ValidationError) as err:
            run(config_from_dict(raw))
        assert err.value.field == "params"
        assert "'N'" in str(err.value)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        code, out, _ = run_cli(["run", "--config", str(cfg_path)], capsys)
        assert code == EXIT_VALIDATION
        assert out == ""

    @pytest.mark.parametrize("k", ["abc", 2.5, True])
    def test_unconvertible_param_is_validation_exit(self, k, capsys, tmp_path):
        raw = {"op": "survival", "model": "ws-ref", "seed": 1, "params": {"k": k}}
        with pytest.raises(ValidationError) as err:
            run(config_from_dict(raw))
        assert err.value.field == "params.k"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        code, _, err_text = run_cli(["run", "--config", str(cfg_path)], capsys)
        assert code == EXIT_VALIDATION
        assert "params.k" in err_text

    @pytest.mark.parametrize(
        "field, raw",
        [
            ("seed", {"seed": 1.7}),
            ("seed", {"seed": True}),
            ("seed", {"seed": -1}),
            ("reps", {"seed": 1, "reps": 2.5}),
            ("reps", {"seed": 1, "reps": "abc"}),
            ("params.x", {"seed": 1, "params": {"x": True}}),
            ("params.eps_grid", {"seed": 1, "op": "envsel", "params": {"eps_grid": [0.1, True]}}),
        ],
        ids=["seed-1.7", "seed-true", "seed-negative", "reps-2.5", "reps-abc", "x-true", "eps_grid-true"],
    )
    def test_inexact_number_is_validation_exit(self, field, raw, capsys, tmp_path):
        # 1.7 must not run as seed 1, nor true as 1 or 1.0
        raw = {"op": "rwalk-tail", "model": "ws-ref", **raw}
        with pytest.raises(ValidationError) as err:
            run(config_from_dict(raw))
        assert err.value.field == field
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        code, out, err_text = run_cli(["run", "--config", str(cfg_path)], capsys)
        assert code == EXIT_VALIDATION
        assert out == ""
        assert field in err_text

    @pytest.mark.parametrize(
        "field, raw",
        [
            ("seed", {"seed": 1.5}),
            ("seed", {"seed": True}),
            ("seed", {"seed": -1}),
            ("reps", {"reps": 2.5}),
            ("reps", {"reps": True}),
        ],
        ids=["seed-1.5", "seed-true", "seed-negative", "reps-2.5", "reps-true"],
    )
    def test_library_rejects_inexact_seed_and_reps(self, field, raw):
        # called without the config parser, 1.5 and 2.5 raised numpy
        # TypeErrors and a seed of True ran as seed 1
        args = {"seed": 1, "reps": 100, **raw}
        with pytest.raises(ValidationError) as err:
            simcore.annealed_survival(ws_ref(), 1, 5, args["reps"], seed=args["seed"])
        assert err.value.field == field

    def test_library_takes_numpy_integer_seed_and_reps(self):
        est = simcore.annealed_survival(ws_ref(), 1, 5, np.int64(100), seed=np.int64(1))
        assert est == simcore.annealed_survival(ws_ref(), 1, 5, 100, seed=1)

    @pytest.mark.parametrize(
        "field, component",
        [
            ("components[0].weight", {"law": {"fs": [0.5, 0.5]}, "weight": True}),
            ("components[0].weight", {"law": {"fs": [0.5, 0.5]}, "weight": {"a": 1}}),
            ("components[0].law.fs[0]", {"law": {"fs": [True, False]}, "weight": 1.0}),
            ("components[0].law.fs[1]", {"law": {"fs": [0.5, "x"]}, "weight": 1.0}),
            ("components[0].law.lf.A", {"law": {"lf": {"A": [1], "B": 0.5}}, "weight": 1.0}),
        ],
        ids=["weight-true", "weight-object", "fs-bools", "fs-text", "A-list"],
    )
    def test_non_number_in_model_is_validation_exit(self, field, component, capsys, tmp_path):
        # true must not run as 1.0, and a list or text must not end in a traceback
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"op": "regime", "model": {"components": [component]}, "seed": 1}
        ))
        code, out, err = run_cli(["run", "--config", str(cfg_path)], capsys)
        assert (code, out) == (EXIT_VALIDATION, "")
        assert f"model.{field}" in err
        if ".law." in field:
            env_path = tmp_path / "env.json"
            env_path.write_text(json.dumps([component["law"]]))
            code, out, err = run_cli(["quenched", "--env", str(env_path)], capsys)
            assert (code, out) == (EXIT_VALIDATION, "")
            assert "env[0]." + field.split(".law.")[1] in err

    @pytest.mark.parametrize(
        "field, components",
        [
            ("model.components[0].weight",
             [{"law": {"lf": {"A": 0.25, "B": 0.5}}, "weight": math.nan},
              {"law": {"lf": {"A": 0.1, "B": 0.5}}, "weight": 0.5}]),
            ("model.components[0].law.fs", [{"law": {"fs": [0.5, math.nan, 0.5]}, "weight": 1.0}]),
        ],
        ids=["weight-nan", "fs-nan"],
    )
    def test_nan_in_model_is_validation_exit(self, field, components, capsys, tmp_path):
        # JSON configs may carry NaN; it must not run as a silently wrong model
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"op": "survival", "model": {"components": components},
             "params": {"k": 1, "n": 10}, "seed": 1, "reps": 1000}
        ))
        code, out, err = run_cli(["run", "--config", str(cfg_path)], capsys)
        assert (code, out) == (EXIT_VALIDATION, "")
        assert f"{field}:" in err

    @pytest.mark.parametrize(
        "field, components",
        [
            ("model.components[1].weight",
             [{"law": {"lf": {"A": 0.25, "B": 0.5}}, "weight": 1.5},
              {"law": {"lf": {"A": 0.1, "B": 0.5}}, "weight": -0.5}]),
            ("model.components[1].law.fs",
             [{"law": {"lf": {"A": 0.25, "B": 0.5}}, "weight": 0.5},
              {"law": {"fs": [0.5, -0.5, 1.0]}, "weight": 0.5}]),
            ("model.components[0].law.lf.A", [{"law": {"lf": {"A": 1.2, "B": 0.5}}, "weight": 1.0}]),
            ("model.components[1].law.lf.B",
             [{"law": {"fs": [0.5, 0.5]}, "weight": 0.5},
              {"law": {"lf": {"A": 0.2, "B": 1.5}}, "weight": 0.5}]),
            ("model.components", [{"law": {"lf": {"A": 0.2, "B": 0.5}}, "weight": 0.7}]),
        ],
        ids=["weight-negative", "fs-negative", "A-above-1", "B-above-1", "weights-sum"],
    )
    def test_bad_value_in_model_names_its_entry(self, field, components, capsys, tmp_path):
        # a value out of its law's range is named by its path in the config,
        # so the bad entry of a many-component model can be found
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"op": "regime", "model": {"components": components}, "seed": 1}))
        code, out, err = run_cli(["run", "--config", str(cfg_path)], capsys)
        assert (code, out) == (EXIT_VALIDATION, "")
        assert f"validation error: {field}: " in err

    def test_quenched_rejects_format_flag(self, capsys, tmp_path):
        # quenched has no records, so there is nothing to write as CSV
        env_path = tmp_path / "env.json"
        env_path.write_text(json.dumps([{"lf": {"A": 0.25, "B": 0.5}}]))
        with pytest.raises(SystemExit) as exc:
            main(["quenched", "--env", str(env_path), "--format", "csv"])
        assert exc.value.code == EXIT_VALIDATION

    def test_echo_lists_every_parameter_used(self):
        report = run(config_from_dict(
            {"op": "alphak", "model": "ws-ref", "seed": 1, "reps": 200,
             "params": {"k_list": [2, 3]}}
        ))
        assert report["config"]["params"] == {"k_list": [2, 3], "n_list": [10, 20]}
        again = run(config_from_dict(report["config"]))
        assert again["records"] == report["records"]


def _argv(op):
    return op.split("-", 1) if op.startswith("rwalk-") else [op]


@pytest.mark.parametrize("op", sorted(OP_HANDLERS))
def test_omitted_flag_and_omitted_key_share_defaults(op, capsys):
    code, out, _ = run_cli(
        [*_argv(op), "--model", "ws-ref", "--seed", "3", "--reps", "200"], capsys
    )
    assert code == 0
    from_cli = json.loads(out)
    report = run(config_from_dict(
        {"op": op, "model": "ws-ref", "seed": 3, "reps": 200, "params": {}}
    ))
    for key in ("result", "records"):
        assert json.dumps(from_cli[key], sort_keys=True) == json.dumps(report[key], sort_keys=True)
    assert from_cli["config"]["params"] == report["config"]["params"]


@pytest.mark.parametrize(
    "command", [_argv(op) for op in sorted(OP_HANDLERS)]
    + [["quenched"], ["run"], ["acceptance"], ["rwalk"]]
)
def test_subcommand_help_renders(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: bpre {' '.join(command)}")


def test_exact_kernel_row_needs_no_seed(capsys):
    # the kernel row draws nothing; it exited 2 demanding --seed
    code, out, _ = run_cli(["qprocess", "--model", "ss-ref", "--kernel-state", "2"], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    row = qprocess_kernel(ss_ref(), 2)
    assert (result["state"], result["tail_mass"]) == (2, row.tail_mass)
    assert result["probs"] == {str(m): float(p) for m, p in enumerate(row.probs) if p > 0}


def test_finite_support_kernel_row_prints_its_support(capsys, tmp_path):
    # FS_SS from state 2 can reach 1..4 children; the row printed 13 764
    # atoms of FFT noise (520 KB of JSON)
    model = {"components": [{"law": {"fs": [0.5, 0.3, 0.2]}, "weight": 0.5},
                            {"law": {"fs": [0.7, 0.2, 0.1]}, "weight": 0.5}]}
    model_path = tmp_path / "fs-ss.json"
    model_path.write_text(json.dumps(model))
    code, out, _ = run_cli(["qprocess", "--model", str(model_path), "--kernel-state", "2"], capsys)
    assert code == 0
    probs = json.loads(out)["result"]["probs"]
    assert sorted(probs) == ["1", "2", "3", "4"]
    for state, value in zip("1234", (29, 47, 24, 10)):
        assert abs(probs[state] - value / 110) < 1e-15


def test_all_dead_model_has_no_regime(capsys, tmp_path):
    # every component has mean 0: E[m] = 0, and regime printed IS with
    # gamma 0.0 and exit 0; qprocess rejects the same model on field "model"
    model_path = tmp_path / "dead.json"
    model_path.write_text(json.dumps({"components": [{"law": {"fs": [1.0]}, "weight": 1.0}]}))
    code, out, err = run_cli(["regime", "--model", str(model_path)], capsys)
    assert (code, out) == (EXIT_VALIDATION, "")
    assert "validation error: model:" in err


@pytest.mark.parametrize("op", sorted(op for op in OP_HANDLERS if op != "regime"))
def test_an_op_that_draws_demands_a_seed(op, capsys):
    # qprocess without --kernel-state draws, like every op but regime
    with pytest.raises(SystemExit) as exc:
        main([*_argv(op), "--model", "ss-ref"])
    assert exc.value.code == 2
    assert "the following arguments are required: --seed" in capsys.readouterr().err


def _seed_infos(obj):
    if isinstance(obj, dict):
        for key, value in obj.items():
            if key == "seed_info":
                yield value
            else:
                yield from _seed_infos(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _seed_infos(value)


@pytest.mark.parametrize(
    "op, model, params",
    [
        ("survival", "ws-ref", {}),
        ("survival", "ws-ref", {"method": "tilted-IS"}),
        ("jointsurv", "ws-ref", {"method": "tilted-IS"}),
        ("lineages", "ws-ref", {}),
        ("envsel", "ws-ref", {}),
        ("rwalk-tail", "ws-ref", {}),
        ("rwalk-occupation", "ws-ref", {}),
        ("yaglom", "ss-ref", {"n": 8}),
        ("qprocess", "ss-ref", {"horizon": 5}),
        ("qprocess", "ws-ref", {"horizon": 5}),
        ("envpost", "ws-ref", {}),
    ],
    ids=["survival", "survival-tilted", "jointsurv-tilted", "lineages", "envsel", "rwalk-tail",
         "rwalk-occupation", "yaglom-ss", "qprocess-ss", "qprocess-ws", "envpost"],
)
def test_reported_stream_purpose_was_drawn(op, model, params, monkeypatch):
    drawn = set()
    original = streams.stream

    def recording(seed, purpose, chunk_index=0):
        drawn.add((seed, purpose))
        return original(seed, purpose, chunk_index)

    monkeypatch.setattr(streams, "stream", recording)
    report = run(config_from_dict(
        {"op": op, "model": model, "seed": 4, "reps": 500, "params": params}
    ))
    infos = list(_seed_infos(report["result"]))
    assert infos
    for info in infos:
        fields = dict(token.split("=", 1) for token in info.split()[1:])
        assert (int(fields["seed"]), fields["purpose"]) in drawn, info


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "bpre.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0


@pytest.mark.parametrize("command", ["survival", "jointsurv", "rwalk tail"])
def test_unknown_method_is_validation_exit(command, capsys):
    # the estimators name the known methods; the parser has no copy of them
    args = [*command.split(), "--model", "ws-ref", "--method", "bogus", "--seed", "1"]
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (EXIT_VALIDATION, "")
    assert "validation error: method" in err


@pytest.mark.parametrize(
    "field, args",
    [
        ("n", "survival --n -1"),
        ("k", "survival --k -1"),
        ("k", "jointsurv --k -1"),
        ("k_list", "alphak --k -1"),
        ("n", "rwalk tail --n -1"),
        ("n", "rwalk tail --n -1 --method exact-enum"),
        ("n", "yaglom --n -1"),
        ("k", "yaglom --k 0"),
        ("n", "envpost --n -1"),
        ("horizon", "qprocess --horizon -1"),
        ("k", "qprocess --k 0"),
        ("k", "qprocess --k 0 --model ss-ref"),
        ("k", "envpost --k 0 --n 0 --p 1"),
    ],
)
def test_out_of_range_k_or_horizon_is_validation_exit(field, args, capsys):
    # each returned a probability outside [0, 1] or ended in a traceback
    argv = args.split()
    if "--model" not in argv:
        argv += ["--model", "ws-ref"]
    code, out, err = run_cli([*argv, "--reps", "500", "--seed", "1"], capsys)
    assert (code, out) == (EXIT_VALIDATION, "")
    assert f"validation error: {field}:" in err


@pytest.mark.parametrize(
    "field, args",
    [
        ("band", "rwalk occupation --band -1"),
        ("count", "rwalk occupation --count -1"),
        ("x", "rwalk occupation --x -1"),
        ("x", "rwalk tail --x nan"),
        ("k", "regime --k -3"),
        ("eps_grid", "envsel --eps="),
        ("eps_grid", "envsel --eps=nan"),
        ("eps_grid", "envsel --eps=-0.5,2"),
        ("k_list", "alphak --k="),
        ("n_list", "alphak --n="),
        ("kernel_state", "qprocess --kernel-state -1 --model ss-ref"),
    ],
)
def test_out_of_domain_parameter_names_its_flag(field, args, capsys):
    # each exited 0 with a number, exited 3, or named a field no flag has
    argv = args.split()
    if "--model" not in argv:
        argv += ["--model", "ws-ref"]
    code, out, err = run_cli([*argv, "--reps", "300", "--seed", "1"], capsys)
    assert (code, out) == (EXIT_VALIDATION, "")
    assert f"validation error: {field}:" in err


@pytest.mark.parametrize(
    "field, params",
    [
        ("n_list", {"k_list": [2], "n_list": [-1, 2]}),
        ("k_list", {"k_list": [0], "n_list": [2]}),
        ("k_list", {"k_list": [2, -3], "n_list": [2]}),
    ],
)
def test_alphak_entry_names_its_list(field, params, monkeypatch):
    # each entry is checked before any environment is drawn; a bad one named
    # the field "n" or "k" of another op
    def draw(*args):
        raise AssertionError("environments drawn before the lists were checked")

    monkeypatch.setattr(simcore, "draw_env_samples", draw)
    with pytest.raises(ValidationError) as err:
        run(config_from_dict({"op": "alphak", "model": "ws-ref", "seed": 1, "reps": 100,
                              "params": params}))
    assert err.value.field == field


ZERO_MEAN_FS = {
    "components": [
        {"law": {"fs": [1.0]}, "weight": 0.5},
        {"law": {"fs": [0.3, 0.3, 0.2, 0.2]}, "weight": 0.5},
    ]
}


@pytest.mark.parametrize(
    "op, params",
    [
        ("yaglom", {"k": 1, "n": 6}),
        ("lineages", {"k": 2, "n": 6}),
        ("envsel", {"k": 1, "n": 6}),
        ("envpost", {"k": 1, "n": 2}),
        ("qprocess", {"k": 1, "horizon": 3}),
        ("survival", {"k": 1, "n": 6, "method": "tilted-IS"}),
        ("jointsurv", {"k": 2, "n": 6, "method": "tilted-IS"}),
        ("rwalk-tail", {"n": 6, "x": 1.0, "method": "tilted-IS"}),
    ],
)
def test_untiltable_model_is_named(op, params, capsys, tmp_path):
    # a zero-mean component cannot be tilted; the op takes no tilt exponent,
    # so the rejection names the model, not "theta"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps({"op": op, "model": ZERO_MEAN_FS, "seed": 1, "reps": 200, "params": params})
    )
    code, out, err = run_cli(["run", "--config", str(cfg_path)], capsys)
    assert (code, out) == (EXIT_VALIDATION, "")
    assert "validation error: model:" in err


def _first_doc_line(op):
    return OP_HANDLERS[op].__doc__.splitlines()[0]


def _help_text(argv, capsys):
    with pytest.raises(SystemExit):
        main([*argv, "--help"])
    return " ".join(capsys.readouterr().out.split())


def test_help_lists_every_op_with_its_docstring(capsys):
    top = _help_text([], capsys)
    walk = _help_text(["rwalk"], capsys)
    for op in OP_HANDLERS:
        head, _, tail = op.partition("-")
        if tail:
            assert tail in top
            assert f"{tail} {_first_doc_line(op)}" in walk
        else:
            assert f"{op} {_first_doc_line(op)}" in top
    assert sum(op.startswith("rwalk-") for op in OP_HANDLERS) == 3


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands():
    """The ``bpre`` lines of README's "Command line" block, as argv lists."""
    block = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = block.split("```bash", 1)[1].split("```", 1)[0]
    return [
        shlex.split(line.split("#", 1)[0])[1:]
        for line in block.splitlines()
        if line.startswith("bpre ")
    ]


def _dispatched_config(argv, monkeypatch):
    configs = []
    monkeypatch.setattr(cli, "run", lambda config: configs.append(config) or {})
    monkeypatch.setattr(cli, "_write_output", lambda report, out, fmt: None)
    assert cli._dispatch(build_parser().parse_args(argv)) == 0
    (config,) = configs
    return config


def test_readme_has_command_examples():
    assert len(_readme_commands()) >= 13


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_parses(argv, monkeypatch):
    args = build_parser().parse_args(argv)
    if args.command in ("quenched", "run", "acceptance"):
        return
    config = _dispatched_config(argv, monkeypatch)
    assert config.op in OP_HANDLERS
    cli._bind(config)  # every key is a parameter of the op, and every value converts


@pytest.mark.parametrize(
    "args, params",
    [
        ("alphak --k 2,4 --n 10,20", {"k_list": "2,4", "n_list": "10,20"}),
        ("envsel --eps 0.01,0.1", {"eps_grid": "0.01,0.1"}),
        ("qprocess --kernel-state 3", {"kernel_state": "3"}),
        ("rwalk occupation --band 1", {"band": "1"}),
    ],
)
def test_flag_names_map_to_documented_params_keys(args, params, monkeypatch):
    config = _dispatched_config([*args.split(), "--model", "ws-ref", "--seed", "1"], monkeypatch)
    assert config.params == params


# every op with a particle count, bar qprocess: its closed-form tail search is
# O(k) per evaluation (about 3 s at k = 1100), so tests/test_lfexact.py
# checks its SurvivorTail at that k instead
K_OPS = sorted(
    op for op in OP_HANDLERS if op != "qprocess" and {"k", "k_list"} & set(cli._PARAMS[op])
)


@pytest.mark.parametrize("op", K_OPS)
def test_thousand_particles_run_or_name_a_parameter(op):
    # float binomial coefficients and m**k overflowed from k of about 710 on
    names, k = cli._PARAMS[op], 1100
    params = {"k_list": [k], "n_list": [8]} if "k_list" in names else {"k": k}
    if "n" in names:
        params["n"] = 8
    try:
        report = run(config_from_dict(
            {"op": op, "model": "ws-ref", "seed": 1, "reps": 128, "params": params}
        ))
    except BpreError as err:
        assert err.field in names
        return
    values = [rec["value"] for rec in report["records"]]
    assert values and all(math.isfinite(v) for v in values)
    # alpha_k is a ratio of survival probabilities, between 1 and k
    low, high = (1.0, k) if op == "alphak" else (0.0, 1.0)
    assert all(low <= v <= high for v in values)
    result = report["result"]
    if "pmf" in result:
        atoms = math.fsum(p for p, _ in result["pmf"].values())
        assert atoms + result.get("tail_mass", 0.0) == pytest.approx(1.0, abs=1e-9)
