"""JSON round-trip for coefficient and symbol files.

Schema (one object per file):

    {
      "group":   {"kind": "torus" | "su2", "dim": int},
      "cutoff":  float,
      "role":    "coefficients" | "symbol",
      "entries": [{"label": [int, ...] | float,
                   "matrix": [[[re, im], ...], ...]}, ...]
    }

Matrices are row-major with one [re, im] pair per entry.  Floats are written
with ``repr`` semantics (shortest round-trip), so save -> load -> save is
byte stable and values are bit exact.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .dual import enumerate_dual
from .errors import ConfigurationError
from .groups import make_group
from .symbols import Symbol
from .transform import FourierCoefficients

_ROLES = ("coefficients", "symbol")


def _matrix_to_json(mat: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(mat, dtype=complex)]


def _matrix_from_json(data: list) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in data], dtype=complex)


def to_payload(obj: FourierCoefficients | Symbol) -> dict:
    if not isinstance(obj, FourierCoefficients):
        raise ConfigurationError(f"cannot serialise {type(obj).__name__}")
    role, dual = ("symbol" if isinstance(obj, Symbol) else "coefficients"), obj.dual
    entries = []
    for ir, blk in zip(dual.irreps, obj.blocks):
        label = list(ir.label) if isinstance(ir.label, tuple) else float(ir.label)
        entries.append({"label": label, "matrix": _matrix_to_json(blk)})
    return {
        "group": {"kind": dual.group.kind, "dim": dual.group.dim},
        "cutoff": float(dual.cutoff),
        "role": role,
        "entries": entries,
    }


def from_payload(payload: dict) -> FourierCoefficients | Symbol:
    for key in ("group", "cutoff", "role", "entries"):
        if key not in payload:
            raise ConfigurationError(f"coefficient file misses field {key!r}")
    role = payload["role"]
    if role not in _ROLES:
        raise ConfigurationError(f"unknown role {role!r}")
    gcfg = payload["group"]
    group = make_group(gcfg["kind"], int(gcfg.get("dim", 1)))
    dual = enumerate_dual(group, float(payload["cutoff"]))
    by_label = {}
    for entry in payload["entries"]:
        raw = entry["label"]
        label = tuple(int(v) for v in raw) if isinstance(raw, list) else float(raw)
        by_label[label] = _matrix_from_json(entry["matrix"])
    if set(by_label) != set(ir.label for ir in dual.irreps):
        raise ConfigurationError("entry labels do not match the dual slice of the stated cutoff")
    blocks = [by_label[ir.label] for ir in dual.irreps]
    return (Symbol if role == "symbol" else FourierCoefficients).from_blocks(dual, blocks)


def save(path: str | Path, obj: FourierCoefficients | Symbol) -> None:
    Path(path).write_text(json.dumps(to_payload(obj), indent=1) + "\n")


def load(path: str | Path) -> FourierCoefficients | Symbol:
    return from_payload(json.loads(Path(path).read_text()))
