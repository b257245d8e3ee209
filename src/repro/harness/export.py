"""Machine-readable export of experiment results.

Every figure/table result object renders to text for humans; this module
serialises the same data to JSON so downstream tooling (plotting,
regression tracking across simulator versions) can consume it.
"""

from __future__ import annotations

import json
from dataclasses import asdict, is_dataclass
from typing import Any


def _jsonable(value: Any) -> Any:
    if is_dataclass(value) and not isinstance(value, type):
        return {k: _jsonable(v) for k, v in asdict(value).items()}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return str(value)


def result_to_dict(result: Any) -> dict:
    """Serialise a harness result object (dataclass) to plain dicts."""
    payload = _jsonable(result)
    if not isinstance(payload, dict):
        raise TypeError(f"cannot export {type(result).__name__}")
    payload["_type"] = type(result).__name__
    return payload


def export_results(results: dict[str, Any], path: str) -> None:
    """Write a {name: result} mapping as one JSON document."""
    document = {name: result_to_dict(result) for name, result in results.items()}
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)

