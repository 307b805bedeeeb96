import json
import subprocess
import sys

import pytest

from bpre import streams
from bpre.cli import EXIT_STARVATION, EXIT_VALIDATION, OP_HANDLERS, main, run
from bpre.config import KNOWN_OPS, config_from_dict, model_from_config, model_hash
from bpre.environment import ss_ref
from bpre.errors import ValidationError


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


class TestConfig:
    def test_missing_seed_names_field(self):
        with pytest.raises(ValidationError) as err:
            config_from_dict({"op": "regime", "model": "ss-ref"})
        assert err.value.field == "seed"

    def test_bad_op(self):
        with pytest.raises(ValidationError):
            config_from_dict({"op": "na", "model": "ss-ref", "seed": 1})

    def test_every_known_op_has_a_handler(self):
        assert set(OP_HANDLERS) == set(KNOWN_OPS)

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

    def test_missing_seed_in_config_is_validation_exit(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"op": "regime", "model": "ss-ref"}))
        code, _, err = run_cli(["run", "--config", str(cfg_path)], capsys)
        assert code == EXIT_VALIDATION
        assert "seed" in err

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
            ("reps", {"seed": 1, "reps": 2.5}),
            ("reps", {"seed": 1, "reps": "abc"}),
            ("params.x", {"seed": 1, "params": {"x": True}}),
            ("params.eps_grid", {"seed": 1, "op": "envsel", "params": {"eps_grid": [0.1, True]}}),
        ],
        ids=["seed-1.7", "seed-true", "reps-2.5", "reps-abc", "x-true", "eps_grid-true"],
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
    ],
    ids=["survival", "survival-tilted", "jointsurv-tilted", "lineages", "envsel", "rwalk-tail",
         "rwalk-occupation", "yaglom-ss", "qprocess-ss", "qprocess-ws"],
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
