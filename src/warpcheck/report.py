"""Check records, reports and deterministic serialization.

The structured report format is a stability contract: a single top-level
object with keys ``version``, ``config``, ``checks``, ``verdict``; numbers
are serialized with 17 significant digits.  Serialization is hand-rolled so
output bytes are identical across platforms and runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np


@dataclass
class CheckRecord:
    """Outcome of one named check over a point sample."""

    name: str
    anchor: str          # stable slug identifying the check in the catalog
    worst: float         # worst residual (or most negative slack) over points
    tol: float
    passed: bool
    points: int = 0
    note: str = ""

    def as_dict(self) -> dict:
        d = {"name": self.name, "anchor": self.anchor, "worst": self.worst,
             "tol": self.tol, "pass": self.passed, "points": self.points}
        if self.note:
            d["note"] = self.note
        return d


@dataclass
class CheckReport:
    """Ordered collection of check records; aggregate fails iff any record fails."""

    records: list[CheckRecord] = field(default_factory=list)

    def add(self, name: str, anchor: str, worst: float, tol: float,
            points: int = 0, note: str = "", passed: bool | None = None) -> None:
        if passed is None:
            passed = worst <= tol
        # a non-finite worst value fails even an informational record
        self.records.append(CheckRecord(
            name=name, anchor=anchor, worst=float(worst), tol=float(tol),
            passed=bool(passed) and math.isfinite(worst), points=points, note=note))

    def __getitem__(self, name: str) -> CheckRecord:
        for rec in self.records:
            if rec.name == name:
                return rec
        raise KeyError(name)

    @property
    def passed(self) -> bool:
        return all(rec.passed for rec in self.records)


def nan_max(a: float, b: float) -> float:
    """max(a, b), except that a NaN in either argument is the result
    (max() keeps a when b is NaN, which would hide a bad point)."""
    return a if a != a or b <= a else b


def fold(per_point: Iterable[dict]) -> dict:
    """Fold value dicts into the worst value per key through :func:`nan_max`.
    A list folds each of its values; an array folds its first NaN or else its
    first maximum in C order, as its values one by one would; True/False
    values and bool arrays are counted instead."""
    worst: dict = {}
    for values in per_point:
        for key, v in values.items():
            if isinstance(v, np.ndarray) and v.dtype != bool:
                v = [v.flat[np.argmax(v)].item()] if v.size else []
            if isinstance(v, (bool, np.ndarray)):  # a bool array counts its True values
                worst[key] = worst.get(key, 0) + int(np.count_nonzero(v))
                continue
            for u in v if isinstance(v, list) else [v]:
                worst[key] = nan_max(worst[key], u) if key in worst else u
    return worst


# ---------------------------------------------------------------------------
# Deterministic serialization
# ---------------------------------------------------------------------------


def format_number(x) -> str:
    """17-significant-digit decimal form, stable across runs and platforms."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    v = float(x)
    if v != v:
        return '"nan"'
    if v in (float("inf"), float("-inf")):
        return '"inf"' if v > 0 else '"-inf"'
    return format(v, ".17g")


# JSON string escapes: quote, backslash and every control character below 0x20
_ESCAPES = {ord('"'): '\\"', ord("\\"): "\\\\",
            **{c: f"\\u{c:04x}" for c in range(0x20)}}


def _escape(s: str) -> str:
    return s.translate(_ESCAPES)


def to_json(obj, indent: int = 0) -> str:
    """Emit JSON with deterministic key order (dict insertion order) and
    fixed number formatting."""
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, float)):
        return format_number(obj)
    if isinstance(obj, str):
        return f'"{_escape(obj)}"'
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad_in}"{_escape(str(k))}": {to_json(v, indent + 1)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad_in}{to_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def to_json_bytes(obj) -> bytes:
    return (to_json(obj) + "\n").encode("utf-8")
