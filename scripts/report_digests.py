"""Print a sha256 digest of every report and manifest of the shipped,
benchmark and ``CHECKS`` configs, to check that a change keeps reports
byte-identical, and list the report cells that moved between two such runs.

Usage:  PYTHONPATH=src python scripts/report_digests.py OUT
        python scripts/report_digests.py --compare OLD NEW

Runs ``scripts/configs/*.json``, the task configs of every
``perfbench/workloads.tasks(workload, seed=1)`` and the ``CHECKS`` below
through ``liefourier.cli.run_config``, writing under OUT, and prints one line per
written file: its sha256, the config's name, the file name and the exit
code.  A config that writes no file gets one line with its exit code.  The
library comes from ``PYTHONPATH``, so running the script against two source
trees and diffing the output compares their reports:

    PYTHONPATH=/path/to/old/src python scripts/report_digests.py /tmp/a > a.txt
    PYTHONPATH=src python scripts/report_digests.py /tmp/b > b.txt
    diff a.txt b.txt
    python scripts/report_digests.py --compare /tmp/a /tmp/b

``--compare OLD NEW`` reads two such output directories and imports
neither the library nor the benchmark.  For every CSV
report that differs it prints each moved cell (file, row, column), the two
values, their relative movement and their distance in units in the last
place; any other file that differs, or exists on one side only, gets one
line.  Identical files print nothing.  It exits 0 when the two directories
hold the same files with the same bytes and 1 otherwise, so it is the
byte-identity gate of a change on its own.
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


_T1, _T2, _T3 = ({"kind": "torus", "dim": n} for n in (1, 2, 3))
_SU2 = {"kind": "su2", "dim": 3}


def _check(group: dict, cutoffs: dict, symbol: dict, checker: str, **param) -> dict:
    return {"task": "check-symbol", "group": group, **cutoffs, "symbol": symbol, "checker": checker, **param, "seed": 1}


def _decay(group: dict, cutoff: dict, windows: list[int], z_distance: float, **param) -> dict:
    fields = {"symbol": {"type": "power_it", "t": 1.0}, "windows": windows, "z_distance": z_distance}
    return {"task": "kernel-decay", "group": group, **cutoff, **fields, **param, "seed": 1}


_L2 = [{"r": 0, "p": 2, "q": 2}]
_GAUSSIAN_1 = {"kind": "gaussian-coefficients", "count": 1}
_TL_NORM_T1 = {"task": "tl-norm", "group": _T1, "lam": 16.0, "specs": _L2, "seed": 1}
_SWEEP_T1 = {"task": "bound-sweep", "group": _T1, "lams": [16.0, 32.0], "symbol": {"type": "wave"}, "specs": _L2, "seed": 1}


# configs that the shipped and benchmark configs leave out: checker orders and
# s0 above 1, mixed differences on T^3, Hormander-Mihlin on the torus and at
# odd and fractional s (integer s comes from the q1^2 stencil, fractional s
# from the grid); kernel decay on T^2 and T^3, with c != 1, and with an
# empty far field (4c|z| >= pi on T^1, which exits 1 through the decay
# slope); a T^3 transform and tl-norm, whose random members are drawn in
# slice order and so move if the tie order of enumeration changes; the
# symbol types and spellings that no other config uses (identity, sign,
# dyadic_rademacher, an integer t), a tl-norm asking for an ensemble that
# needs a symbol (exit 1, no files), a directed-irrep sweep and an SU(2)
# selftest
CHECKS = [
    ("marcinkiewicz_t3_order2", _check(_T3, {"lams": [8.0, 16.0]}, {"type": "power_it", "t": 1.0}, "marcinkiewicz", order=2)),
    ("marcinkiewicz_su2_order2", _check(_SU2, {"ell_maxes": [7.5, 15.5]}, {"type": "wave"}, "marcinkiewicz", order=2)),
    ("marcinkiewicz_t2_order3", _check(_T2, {"lams": [16.0, 32.0]}, {"type": "wave"}, "marcinkiewicz", order=3)),
    ("weak_t2_s0_2", _check(_T2, {"lams": [16.0, 32.0]}, {"type": "power_it", "t": 3.0}, "weak-marcinkiewicz", s0=2)),
    ("weak_su2_s0_3", _check(_SU2, {"ell_maxes": [7.5, 15.5]}, {"type": "window", "ell": 3}, "weak-marcinkiewicz", s0=3)),
    ("hm_t2", _check(_T2, {"lams": [8.0, 16.0]}, {"type": "power_it", "t": 2.0}, "hormander-mihlin")),
    ("hm_su2_s3", _check(_SU2, {"ell_maxes": [7.5, 15.5]}, {"type": "power_it", "t": 1.0}, "hormander-mihlin", s=3)),
    ("hm_t1_s1", _check(_T1, {"lams": [32.0, 64.0]}, {"type": "wave"}, "hormander-mihlin", s=1)),
    ("hm_t3_s2", _check(_T3, {"lams": [6.0, 10.0]}, {"type": "power_it", "t": 2.0}, "hormander-mihlin", s=2)),
    ("hm_su2_s2_5", _check(_SU2, {"ell_maxes": [7.5, 15.5]}, {"type": "power_it", "t": 1.0}, "hormander-mihlin", s=2.5)),
    ("decay_t2", _decay(_T2, {"lam": 24.0}, [1, 2, 3], 0.3)),
    ("decay_t3", _decay(_T3, {"lam": 8.0}, [1, 2], 0.3)),
    ("decay_su2_c05", _decay(_SU2, {"ell_max": 15.5}, [1, 2, 3], 0.3, c=0.5)),
    ("decay_t1_empty", _decay(_T1, {"lam": 64.0}, [2, 3, 4], 0.8)),
    ("transform_t3", {"task": "transform", "group": _T3, "lam": 24.0, "count": 1, "seed": 1}),
    (
        "tl_norm_t3",
        {"task": "tl-norm", "group": _T3, "lam": 16.0, "specs": [{"r": 0, "p": 4, "q": 2}], "ensemble": _GAUSSIAN_1, "seed": 1},
    ),
    ("marcinkiewicz_t1_identity", _check(_T1, {"lams": [16.0, 32.0]}, {"type": "identity"}, "marcinkiewicz", order=1)),
    ("marcinkiewicz_t1_sign", _check(_T1, {"lams": [16.0, 32.0]}, {"type": "sign"}, "marcinkiewicz", order=1)),
    (
        "weak_t2_rademacher",
        _check(_T2, {"lams": [16.0, 32.0]}, {"type": "dyadic_rademacher", "seed": 9}, "weak-marcinkiewicz"),
    ),
    # an integer t spells t=1, not t=1.0
    (
        "marcinkiewicz_su2_integer_t",
        _check(_SU2, {"ell_maxes": [7.5, 15.5]}, {"type": "power_it", "t": 1}, "marcinkiewicz", order=1),
    ),
    ("tl_norm_adjoint_dirichlet", {**_TL_NORM_T1, "ensemble": {"kind": "adjoint-dirichlet", "count": 1}}),
    ("tl_norm_directed_irrep", {**_TL_NORM_T1, "ensemble": {"kind": "directed-irrep", "count": 1}}),
    ("sweep_t1_directed_irrep", {**_SWEEP_T1, "ensemble": {"kind": "directed-irrep", "count": 2}}),
    ("selftest_su2", {"task": "selftest", "group": _SU2, "ell_max": 3.5, "count": 1, "seed": 1}),
]


def configs() -> list[tuple[str, dict]]:
    """(name, config) for every shipped config, every benchmark task, then
    every ``CHECKS`` config."""
    from perfbench.workloads import WORKLOADS, tasks

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


def compare(old_root: Path, new_root: Path) -> bool:
    """Print what differs between two output directories of this script;
    True if nothing does."""
    names = sorted({p.relative_to(root) for root in (old_root, new_root) for p in root.rglob("*") if p.is_file()})
    same = True
    for name in names:
        old, new = old_root / name, new_root / name
        if not (old.is_file() and new.is_file()):
            print(f"{name}: only in {old_root if old.is_file() else new_root}")
            same = False
        elif old.read_bytes() != new.read_bytes():
            print(f"{name}: differs")
            if name.suffix == ".csv":
                print("\n".join(moved_cells(old, new)))
            same = False
    return same


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return 0 if compare(Path(argv[1]), Path(argv[2])) else 1
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 1
    from liefourier.cli import run_config  # the digest mode only: --compare reads files

    root = Path(argv[0])
    for name, cfg in configs():
        out = root / name
        code = run_config(cfg, out)
        paths = sorted(out.glob("*"))
        for path in paths:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {name}/{path.name}  exit={code}")
        if not paths:
            print(f"(no files)  {name}  exit={code}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
