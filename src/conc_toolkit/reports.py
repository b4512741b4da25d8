"""Constant-estimate containers with bound-direction metadata.

Every numerically estimated "best constant" in the toolkit is one-sided:
witness families certify upper bounds on infima, candidate families
certify lower bounds on suprema, and only exact enumerations are
two-sided.  Carrying the direction next to the value prevents a bound
from being silently used on the wrong side of an inequality.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any

from .errors import ValidationError

_DIRECTIONS = ("upper", "lower", "two-sided")


@dataclass(frozen=True)
class ConstantEntry:
    """A single estimated constant.

    ``witnesses`` holds enough data (grid point, witness measure index,
    component values) to re-evaluate the reported value within 1e-6.
    """

    constant_id: str
    value: float
    direction: str
    method: str
    witnesses: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.direction not in _DIRECTIONS:
            raise ValidationError(f"direction {self.direction!r} is not one of {_DIRECTIONS}")

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "constant_id": self.constant_id,
            "value": _jsonable(self.value),
            "direction": self.direction,
            "method": self.method,
            "witnesses": _jsonable(self.witnesses),
        }


@dataclass
class ConstantsReport:
    """Named collection of constant estimates."""

    entries: list[ConstantEntry] = field(default_factory=list)

    def add(self, entry: ConstantEntry) -> None:
        self.entries.append(entry)

    def to_json_dict(self) -> dict[str, Any]:
        return {"entries": [e.to_json_dict() for e in self.entries]}

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=1, sort_keys=True)


def _jsonable(obj):
    """Recursively convert numpy scalars/arrays and infinities for JSON."""
    import numpy as np

    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
        return x
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj
