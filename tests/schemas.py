"""Output contracts for the command-line interface.

`test_cli.py` validates each command's JSON payload against the table
below, so the emitted shapes cannot drift silently.  The validator covers
the small schema dialect used here: type (possibly a union list),
required/properties for objects, items for arrays, enum, and a regex pattern
for strings.  Integers that may exceed 2^53 travel as decimal strings to stay
exact for any JSON consumer.
"""

from __future__ import annotations

import re
from typing import Any

__all__ = ["SchemaError", "validate", "SCHEMAS"]


class SchemaError(ValueError):
    """A payload does not match its declared schema."""


_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "null": type(None),
}


def _type_ok(value: Any, name: str) -> bool:
    if name == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if name == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return isinstance(value, _TYPES[name])


def validate(value: Any, schema: dict, path: str = "$") -> None:
    """Raise SchemaError (with a JSON-path hint) unless value matches schema."""
    types = schema.get("type")
    if types is not None:
        names = types if isinstance(types, list) else [types]
        if not any(_type_ok(value, n) for n in names):
            raise SchemaError(f"{path}: expected {'|'.join(names)}, got {value!r}")
        if value is None:
            return
    if "enum" in schema and value not in schema["enum"]:
        raise SchemaError(f"{path}: {value!r} not in {schema['enum']}")
    if "pattern" in schema and isinstance(value, str):
        if not re.fullmatch(schema["pattern"], value):
            raise SchemaError(f"{path}: {value!r} does not match {schema['pattern']}")
    if isinstance(value, dict):
        for key in schema.get("required", []):
            if key not in value:
                raise SchemaError(f"{path}: missing required key {key!r}")
        props = schema.get("properties", {})
        for key, sub in props.items():
            if key in value:
                validate(value[key], sub, f"{path}.{key}")
        extra = set(value) - set(props)
        if props and extra:
            raise SchemaError(f"{path}: unexpected keys {sorted(extra)}")
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            validate(item, schema["items"], f"{path}[{i}]")


DECIMAL = {"type": "string", "pattern": r"-?[0-9]+"}
_PAIR = {"type": "array", "items": DECIMAL}
_WORD = {"type": "array", "items": {"type": "string"}}
_INDICES = {"type": "array", "items": {"type": "integer"}}

_SOLUTION = {
    "type": ["object", "null"],
    "required": ["x", "y", "z", "w"],
    "properties": {"x": DECIMAL, "y": DECIMAL, "z": DECIMAL, "w": DECIMAL},
}

SCHEMAS: dict[str, dict] = {
    "navigate-diagonal": {
        "type": "object",
        "required": ["p", "q", "a", "b", "h", "word", "word_indices", "solution", "mode"],
        "properties": {
            "p": {"type": "integer"},
            "q": DECIMAL,
            "a": DECIMAL,
            "b": DECIMAL,
            "h": {"type": "integer"},
            "word": _WORD,
            "word_indices": _INDICES,
            "solution": _SOLUTION,
            "mode": {"type": "string", "enum": ["exact", "fast", "auto"]},
        },
    },
    "four-squares": {
        "type": "object",
        "required": ["n", "modulus", "r1", "r2", "status", "solution", "tried"],
        "properties": {
            "n": DECIMAL,
            "modulus": DECIMAL,
            "r1": DECIMAL,
            "r2": DECIMAL,
            "status": {"type": "string", "enum": ["found", "absent", "unknown"]},
            "solution": _SOLUTION,
            "tried": {"type": "integer"},
        },
    },
    "navigate": {
        "type": "object",
        "required": [
            "p",
            "q",
            "matrix",
            "word",
            "word_indices",
            "length",
            "s_index",
            "s_word",
            "xyz",
            "factor_heights",
        ],
        "properties": {
            "p": {"type": "integer"},
            "q": DECIMAL,
            "matrix": _PAIR,
            "word": _WORD,
            "word_indices": _INDICES,
            "length": {"type": "integer"},
            "s_index": {"type": "integer"},
            "s_word": _WORD,
            "xyz": _PAIR,
            "factor_heights": _INDICES,
        },
    },
    "predict-bounds": {
        "type": "object",
        "required": [
            "p",
            "q",
            "a",
            "b",
            "u1",
            "u2",
            "regime",
            "hole_bound",
            "typical_bound",
            "h_max",
        ],
        "properties": {
            "p": {"type": "integer"},
            "q": DECIMAL,
            "a": DECIMAL,
            "b": DECIMAL,
            "u1": _PAIR,
            "u2": _PAIR,
            "regime": {"type": "string", "enum": ["hole", "typical"]},
            "hole_bound": {"type": "integer"},
            "typical_bound": {"type": "integer"},
            "h_max": {"type": "integer"},
        },
    },
    "verify": {
        "type": "object",
        "required": [
            "p",
            "q",
            "order",
            "expected_order",
            "degree",
            "connected",
            "simple",
            "diagonal_count",
            "threshold",
            "census",
            "census_ok",
            "ok",
        ],
        "properties": {
            "p": {"type": "integer"},
            "q": DECIMAL,
            "order": {"type": "integer"},
            "expected_order": {"type": "integer"},
            "degree": {"type": "integer"},
            "connected": {"type": "boolean"},
            "simple": {"type": "boolean"},
            "diagonal_count": {"type": "integer"},
            "threshold": {"type": "integer"},
            "census": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["h", "count_at_least", "bound"],
                    "properties": {
                        "h": {"type": "integer"},
                        "count_at_least": {"type": "integer"},
                        "bound": {"type": ["number", "null"]},
                    },
                },
            },
            "census_ok": {"type": "boolean"},
            "ok": {"type": "boolean"},
        },
    },
    "np-reduce": {
        "type": "object",
        "required": ["targets", "target", "q", "s", "g", "residue", "pi", "primes", "n"],
        "properties": {
            "targets": _INDICES,
            "target": {"type": "integer"},
            "q": DECIMAL,
            "s": DECIMAL,
            "g": _PAIR,
            "residue": _PAIR,
            "pi": {"type": "array", "items": _PAIR},
            "primes": {"type": "array", "items": DECIMAL},
            "n": DECIMAL,
        },
    },
    "np-decode": {
        "type": "object",
        "required": ["x", "y", "valid", "epsilon", "xi", "subset_sum"],
        "properties": {
            "x": DECIMAL,
            "y": DECIMAL,
            "valid": {"type": "boolean"},
            "epsilon": _INDICES,
            "xi": {"type": "array", "items": DECIMAL},
            "subset_sum": {"type": "integer"},
        },
    },
}
