"""Print a sha256 digest of every report and manifest of the shipped,
benchmark and ``CHECKS`` configs, to check that a change keeps reports
byte-identical, and list the report cells that moved between two such runs.

Usage:  PYTHONPATH=src python scripts/report_digests.py OUT
        PYTHONPATH=src python scripts/report_digests.py --compare OLD NEW

Runs ``scripts/configs/*.json``, the task configs of every
``perfbench/workloads.tasks(workload, seed=1)`` and the ``CHECKS`` below
through ``liefourier.cli.run_config``, writing under OUT, and prints one line per
written file: its sha256, the config's name, the file name and the exit
code.  The library comes from ``PYTHONPATH``, so running the script against
two source trees and diffing the output compares their reports:

    PYTHONPATH=/path/to/old/src python scripts/report_digests.py /tmp/a > a.txt
    PYTHONPATH=src python scripts/report_digests.py /tmp/b > b.txt
    diff a.txt b.txt
    PYTHONPATH=src python scripts/report_digests.py --compare /tmp/a /tmp/b

``--compare OLD NEW`` reads two such output directories.  For every CSV
report that differs it prints each moved cell (file, row, column), the two
values, their relative movement and their distance in units in the last
place; any other file that differs, or exists on one side only, gets one
line.  Identical files print nothing.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import struct
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from liefourier.cli import run_config  # noqa: E402
from perfbench.workloads import WORKLOADS, tasks  # noqa: E402


_T2, _T3, _SU2 = ({"kind": "torus", "dim": 2}, {"kind": "torus", "dim": 3}, {"kind": "su2", "dim": 3})


def _check(group: dict, cutoffs: dict, symbol: dict, checker: str, **param) -> dict:
    return {"task": "check-symbol", "group": group, **cutoffs, "symbol": symbol, "checker": checker, **param, "seed": 1}


# checker configs that the shipped and benchmark configs leave out: orders and
# s0 above 1, mixed differences on T^3, Hormander-Mihlin on the torus
CHECKS = [
    ("marcinkiewicz_t3_order2", _check(_T3, {"lams": [8.0, 16.0]}, {"type": "power_it", "t": 1.0}, "marcinkiewicz", order=2)),
    ("marcinkiewicz_su2_order2", _check(_SU2, {"ell_maxes": [7.5, 15.5]}, {"type": "wave"}, "marcinkiewicz", order=2)),
    ("marcinkiewicz_t2_order3", _check(_T2, {"lams": [16.0, 32.0]}, {"type": "wave"}, "marcinkiewicz", order=3)),
    ("weak_t2_s0_2", _check(_T2, {"lams": [16.0, 32.0]}, {"type": "power_it", "t": 3.0}, "weak-marcinkiewicz", s0=2)),
    ("weak_su2_s0_3", _check(_SU2, {"ell_maxes": [7.5, 15.5]}, {"type": "window", "ell": 3}, "weak-marcinkiewicz", s0=3)),
    ("hm_t2", _check(_T2, {"lams": [8.0, 16.0]}, {"type": "power_it", "t": 2.0}, "hormander-mihlin")),
]


def configs() -> list[tuple[str, dict]]:
    """(name, config) for every shipped config, every benchmark task, then
    every ``CHECKS`` config."""
    out = [(path.stem, json.loads(path.read_text())) for path in sorted((ROOT / "scripts" / "configs").glob("*.json"))]
    for workload in WORKLOADS:
        out += [(f"{workload}/{name}", cfg) for name, cfg, _ in tasks(workload, seed=1)]
    return out + [(f"checks/{name}", cfg) for name, cfg in CHECKS]


def ulps(a: float, b: float) -> int:
    """Number of float64 values between ``a`` and ``b`` (0 and -0 coincide)."""

    def ordered(x: float) -> int:
        bits = struct.unpack("<q", struct.pack("<d", x))[0]
        return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)

    return abs(ordered(a) - ordered(b))


def moved_cells(old: Path, new: Path) -> list[str]:
    """One line per CSV cell of ``old`` whose text differs in ``new``."""
    with open(old, newline="") as fh_old, open(new, newline="") as fh_new:
        rows_old, rows_new = list(csv.reader(fh_old)), list(csv.reader(fh_new))
    if [len(r) for r in rows_old] != [len(r) for r in rows_new] or rows_old[:1] != rows_new[:1]:
        return ["  header or shape differs"]
    header, lines = rows_old[0], []
    for i, (row_old, row_new) in enumerate(zip(rows_old[1:], rows_new[1:]), start=1):
        for column, a, b in zip(header, row_old, row_new):
            if a == b:
                continue
            try:
                x, y = float(a), float(b)
            except ValueError:
                lines.append(f"  row {i} {column}: {a} -> {b}")
                continue
            rel = abs(y - x) / abs(x) if x else math.inf
            lines.append(f"  row {i} {column}: {a} -> {b}  rel {rel:.1e}  ulps {ulps(x, y)}")
    return lines


def compare(old_root: Path, new_root: Path) -> None:
    """Print what differs between two output directories of this script."""
    names = sorted({p.relative_to(root) for root in (old_root, new_root) for p in root.rglob("*") if p.is_file()})
    for name in names:
        old, new = old_root / name, new_root / name
        if not (old.is_file() and new.is_file()):
            print(f"{name}: only in {old_root if old.is_file() else new_root}")
        elif old.read_bytes() != new.read_bytes():
            print(f"{name}: differs")
            if name.suffix == ".csv":
                print("\n".join(moved_cells(old, new)))


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        compare(Path(argv[1]), Path(argv[2]))
        return 0
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 1
    root = Path(argv[0])
    for name, cfg in configs():
        out = root / name
        code = run_config(cfg, out)
        for path in sorted(out.glob("*")):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {name}/{path.name}  exit={code}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
