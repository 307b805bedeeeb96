"""Config serialization: offspring laws, environment models, experiment runs.

Law format: ``{"lf": {"A": 0.25, "B": 0.5}}`` or ``{"fs": [0.75, 0.0, 0.25]}``.
Model format: ``{"components": [{"law": <law>, "weight": 0.5}, ...]}`` or a
builtin name ("ss-ref", "is-ref", "ws-ref").
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable

from .environment import BUILTIN_MODELS, EnvironmentModel, EnvSequence, builtin_model
from .errors import ValidationError
from .offspring import FiniteSupport, LinearFractional, OffspringLaw


def strict_int(value: Any) -> int:
    """An int from an int, an integral float or integer text; rejects 2.5,
    true and "abc"."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError("not an integer")
    return int(value)


def strict_float(value: Any) -> float:
    """A float from a number or number text; rejects true and false."""
    if isinstance(value, bool):
        raise ValueError("not a number")
    return float(value)


def positive_float(value: Any) -> float:
    """A float above 0 from ``strict_float``; rejects NaN."""
    value = strict_float(value)
    if not value > 0.0:
        raise ValueError("a component weight must be positive")
    return value


def renamed(exc: ValidationError, field: str) -> ValidationError:
    """``exc`` naming ``field``, the config entry its value came from."""
    return ValidationError(exc.message, field=field)


def convert(to: Callable[[Any], Any], value: Any, field: str) -> Any:
    """``to(value)``; a value that does not convert is a ValidationError
    naming ``field``."""
    try:
        return to(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"cannot use {value!r}: {exc}", field=field) from None


def law_to_config(law: OffspringLaw) -> dict:
    if isinstance(law, LinearFractional):
        return {"lf": {"A": law.A, "B": law.B}}
    return {"fs": list(law.probs)}


def law_from_config(spec: Any, path: str = "law") -> OffspringLaw:
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ValidationError(
            "law must be {'lf': {'A':..,'B':..}} or {'fs': [..]}", field=path
        )
    if "lf" in spec:
        body = spec["lf"]
        if not isinstance(body, dict) or set(body) != {"A", "B"}:
            raise ValidationError("lf law needs exactly fields A and B", field=path)
        a, b = (convert(strict_float, body[name], f"{path}.lf.{name}") for name in ("A", "B"))
        try:
            return LinearFractional(a, b)
        except ValidationError as exc:  # names A or B
            raise renamed(exc, f"{path}.lf.{exc.field}") from None
    if "fs" in spec:
        body = spec["fs"]
        if not isinstance(body, list):
            raise ValidationError("fs law needs a probability list", field=path)
        probs = [convert(strict_float, v, f"{path}.fs[{j}]") for j, v in enumerate(body)]
        try:
            return FiniteSupport(probs)
        except ValidationError as exc:
            raise renamed(exc, f"{path}.fs") from None
    raise ValidationError(f"unknown law family {set(spec)}", field=path)


def model_to_config(model: EnvironmentModel) -> dict:
    return {
        "components": [
            {"law": law_to_config(law), "weight": w} for law, w in model.components
        ]
    }


def model_from_config(spec: Any, path: str = "model") -> EnvironmentModel:
    if isinstance(spec, str):
        return builtin_model(spec)
    if not isinstance(spec, dict) or "components" not in spec:
        raise ValidationError(
            f"model must be a builtin name {sorted(BUILTIN_MODELS)} or "
            "{'components': [...]}",
            field=path,
        )
    comps = []
    for i, entry in enumerate(spec["components"]):
        if not isinstance(entry, dict) or "law" not in entry or "weight" not in entry:
            raise ValidationError(
                "each component needs 'law' and 'weight'", field=f"{path}.components[{i}]"
            )
        comps.append(
            (
                law_from_config(entry["law"], path=f"{path}.components[{i}].law"),
                convert(positive_float, entry["weight"], f"{path}.components[{i}].weight"),
            )
        )
    try:
        return EnvironmentModel(comps)
    except ValidationError as exc:  # names components
        raise renamed(exc, f"{path}.{exc.field}") from None


def env_from_config(spec: Any, path: str = "env") -> EnvSequence:
    if not isinstance(spec, list):
        raise ValidationError("environment must be a list of laws", field=path)
    return EnvSequence([law_from_config(s, path=f"{path}[{i}]") for i, s in enumerate(spec)])


def model_hash(model: EnvironmentModel) -> str:
    """Short stable digest of the resolved model, for report rows."""
    canonical = json.dumps(model_to_config(model), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: an operation applied to a model with pinned seed."""

    op: str  # checked against cli.OP_HANDLERS when the config runs
    model_spec: Any  # builtin name or inline dict
    params: dict
    seed: int
    reps: int | None
    out: str | None
    format: str

    @cached_property
    def model(self) -> EnvironmentModel:
        """The resolved model, built once per config."""
        return model_from_config(self.model_spec)

    def echo(self) -> dict:
        data = {
            "op": self.op,
            "model": self.model_spec,
            "resolved_model": model_to_config(self.model),
            "params": self.params,
            "seed": self.seed,
            "format": self.format,
        }
        if self.reps is not None:
            data["reps"] = self.reps
        if self.out is not None:
            data["out"] = self.out
        return data


def config_from_dict(raw: Any) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ValidationError("config must be a JSON object", field="config")
    if "seed" not in raw:
        raise ValidationError("a fixed seed is required (no wall-clock defaults)", field="seed")
    seed = convert(strict_int, raw["seed"], "seed")
    if "model" not in raw:
        raise ValidationError("a model (builtin name or inline) is required", field="model")
    reps = raw.get("reps")
    if reps is not None:
        reps = convert(strict_int, reps, "reps")
        if reps < 1:
            raise ValidationError(f"reps must be >= 1, got {reps}", field="reps")
    fmt = raw.get("format", "json")
    if fmt not in ("json", "csv"):
        raise ValidationError(f"format must be 'json' or 'csv', got {fmt!r}", field="format")
    out = raw.get("out")
    if out is not None and not (isinstance(out, str) and out):
        raise ValidationError(f"out must be a non-empty file path, got {out!r}", field="out")
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise ValidationError("params must be an object", field="params")
    config = ExperimentConfig(
        op=raw.get("op"),
        model_spec=raw["model"],
        params=params,
        seed=seed,
        reps=reps,
        out=out,
        format=fmt,
    )
    config.model  # fail fast on malformed models before any work starts
    return config


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))
