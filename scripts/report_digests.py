"""Print a sha256 digest of every report and manifest of the shipped and
benchmark configs, to check that a change keeps reports byte-identical.

Usage:  PYTHONPATH=src python scripts/report_digests.py OUT

Runs ``scripts/configs/*.json`` and the task configs of every
``perfbench/workloads.tasks(workload, seed=1)`` through
``liefourier.cli.run_config``, writing under OUT, and prints one line per
written file: its sha256, the config's name, the file name and the exit
code.  The library comes from ``PYTHONPATH``, so running the script against
two source trees and diffing the output compares their reports:

    PYTHONPATH=/path/to/old/src python scripts/report_digests.py /tmp/a > a.txt
    PYTHONPATH=src python scripts/report_digests.py /tmp/b > b.txt
    diff a.txt b.txt
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from liefourier.cli import run_config  # noqa: E402
from perfbench.workloads import WORKLOADS, tasks  # noqa: E402


def configs() -> list[tuple[str, dict]]:
    """(name, config) for every shipped config, then every benchmark task."""
    out = [(path.stem, json.loads(path.read_text())) for path in sorted((ROOT / "scripts" / "configs").glob("*.json"))]
    for workload in WORKLOADS:
        out += [(f"{workload}/{name}", cfg) for name, cfg, _ in tasks(workload, seed=1)]
    return out


def main(argv: list[str]) -> int:
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
