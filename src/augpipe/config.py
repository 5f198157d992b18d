"""Declarative pipeline configuration.

A config document is versioned JSON:

    {"version": 1,
     "seed": 42,
     "operations": [
        {"op": <kind>, "probability": <p>, <parameter key>: <value>, ...},
        ...]}

The OpSpec dataclasses in ``ops`` are the schema: an entry's ``op`` names
a spec class by its ``kind``, and each dataclass field is one key (see the
``ops`` docstring), whose rules each spec checks as it is built. Operations
run in listed order. Unknown keys are rejected, every error in an
operation names it as ``operations[i].<key>``, and canonicalisation is
idempotent: parsing the canonical printout yields the same pipeline.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from typing import Any

from .errors import ConfigError
from .ops import OpSpec
from .pipeline import Pipeline

__all__ = ["CONFIG_VERSION", "parse_config", "canonical_text"]

CONFIG_VERSION = 1


def _key(field: dataclasses.Field) -> str:
    return field.metadata.get("key", field.name)


def _parse_operation(entry: Any, position: int, classes: dict[str, type[OpSpec]]) -> OpSpec:
    where = f"operations[{position}]"
    if not isinstance(entry, dict):
        raise ConfigError(f"{where} must be an object", field="operations")
    data = dict(entry)
    name = data.pop("op", None)
    if name is None:
        raise ConfigError(f"{where} is missing the 'op' key", field="op")
    if not isinstance(name, str) or name not in classes:
        raise ConfigError(f"unknown operation {name!r} at {where}", field="op")
    spec_cls = classes[name]
    kwargs: dict[str, Any] = {}
    for field in dataclasses.fields(spec_cls):
        key = _key(field)
        if key in data:
            kwargs[field.name] = data.pop(key)
        elif field.type in ("float", "int"):
            raise ConfigError(f"{where} ({name}) is missing '{key}'", field=key)
    if data:
        stray = ", ".join(sorted(data))
        raise ConfigError(f"unknown key(s) for operation {name!r}: {stray}", field=stray)
    try:
        return spec_cls(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{where}.{exc}", field=exc.field) from exc


def parse_config(text: str) -> Pipeline:
    """Parse and validate a config document into a pipeline.

    Syntax errors carry their line and column.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal beyond the int conversion limit
        raise ConfigError(f"a number has more than {sys.get_int_max_str_digits()} digits") from exc
    except RecursionError as exc:
        raise ConfigError("arrays and objects are nested too deeply") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    data = dict(doc)
    version = data.pop("version", None)
    if version != CONFIG_VERSION:
        raise ConfigError(f"version must be {CONFIG_VERSION}, got {version!r}", field="version")
    seed = data.pop("seed", None)
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise ConfigError(f"seed must be an integer, got {seed!r}", field="seed")
    operations = data.pop("operations", None)
    if not isinstance(operations, list):
        raise ConfigError("config must carry an 'operations' list", field="operations")
    if data:
        stray = ", ".join(sorted(data))
        raise ConfigError(f"unknown top-level key(s): {stray}", field=stray)
    classes = {cls.kind: cls for cls in OpSpec.__subclasses__()}
    specs = tuple(_parse_operation(entry, i, classes) for i, entry in enumerate(operations))
    return Pipeline(ops=specs, master_seed=seed if seed is not None else 0)


def _op_to_dict(spec: OpSpec) -> dict[str, Any]:
    out: dict[str, Any] = {"op": spec.kind}
    for field in dataclasses.fields(spec):
        out[_key(field)] = getattr(spec, field.name)
    return out


def canonical_text(pipeline: Pipeline) -> str:
    """Canonical printout of a pipeline; reparsing it reproduces the pipeline."""
    doc = {
        "version": CONFIG_VERSION,
        "seed": pipeline.master_seed,
        "operations": [_op_to_dict(spec) for spec in pipeline.ops],
    }
    return json.dumps(doc, indent=2)
