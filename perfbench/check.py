"""Output checks for the benchmark's tasks.

A task passes when it exits with its expected code and its report holds up:

* seed-independent values (check-symbol constants, kernel-decay integrals
  and slope, bound-sweep ratios) match ``reference.json``, recorded from
  this library, to ``RTOL`` times the largest finite reference value of
  the task (infinite growth ratios must stay infinite), and every row keeps
  its recorded status;
* seed-dependent rows (transform, selftest, tl-norm) carry status ``ok``,
  which the library sets from its own round-trip and Plancherel
  tolerances; tl-norm rows must also satisfy the Hoelder chain
  weak-L^1 <= L^1 <= L^4 of the same aggregate on a probability space.

``RTOL`` admits a different exact algorithm (an FFT core agrees with the
direct sums to about 1e-11) and rejects a wrong one.

Run ``python3 perfbench/check.py --record`` to re-record the reference.
"""

from __future__ import annotations

import csv
import json
import math
import sys
import tempfile
from pathlib import Path

RTOL = 1e-8
HOELDER_SLACK = 1e-12
REFERENCE = Path(__file__).resolve().parent / "reference.json"
SEED_FREE = ("check-symbol", "kernel-decay", "bound-sweep")


def read_rows(task_dir: Path) -> list[dict]:
    reports = sorted(task_dir.glob("*_report.csv"))
    if len(reports) != 1:
        raise FileNotFoundError(f"expected one report in {task_dir}, found {len(reports)}")
    with open(reports[0], newline="") as fh:
        return list(csv.DictReader(fh))


def seed_free_values(rows: list[dict]) -> dict[str, list]:
    """``{row key: [value, status]}`` for a seed-independent report."""
    out = {}
    for row in rows:
        task = row["task"]
        if task == "check-symbol":
            key, value = f"lam={row['lam']}|{row['key']}", row["value"]
        elif task == "kernel-decay":
            key, value = f"window={row['window']}", row["value"]
        elif task == "bound-sweep":
            key, value = f"lam={row['lam']}|r={row['r']},p={row['p']},q={row['q']}", row["max_ratio"]
        else:
            raise ValueError(f"task {task!r} has seed-dependent values")
        out[key] = [float(value), row["status"]]
    return out


def _compare(values: dict, recorded: dict) -> list[str]:
    if set(values) != set(recorded):
        return [f"row keys differ from the reference: {sorted(set(values) ^ set(recorded))[:4]}"]
    scale = max((abs(v) for v, _ in recorded.values() if math.isfinite(v)), default=0.0)
    problems = []
    for key, (ref, status) in recorded.items():
        value, got_status = values[key]
        if not (value == ref or abs(value - ref) <= RTOL * scale):
            problems.append(f"{key}: {value!r} differs from the reference {ref!r}")
        if got_status != status:
            problems.append(f"{key}: status {got_status} instead of {status}")
    return problems


def _hoelder_chain(rows: list[dict]) -> list[str]:
    problems = []
    by_member: dict = {}
    for row in rows:
        norm = float(row["norm"])
        if not (math.isfinite(norm) and norm > 0):
            problems.append(f"member {row['member']}: norm {norm!r} is not finite and positive")
        by_member.setdefault((row["member"], row["r"], row["q"]), {})[float(row["p"])] = row
    for (member, _, _), by_p in by_member.items():
        if 1.0 in by_p and by_p[1.0]["weak_norm"] != "":
            weak, strong = float(by_p[1.0]["weak_norm"]), float(by_p[1.0]["norm"])
            if weak > strong * (1 + HOELDER_SLACK):
                problems.append(f"member {member}: weak norm {weak!r} exceeds the L1 norm {strong!r}")
        if 1.0 in by_p and 4.0 in by_p:
            l1, l4 = float(by_p[1.0]["norm"]), float(by_p[4.0]["norm"])
            if l1 > l4 * (1 + HOELDER_SLACK):
                problems.append(f"member {member}: L1 norm {l1!r} exceeds the L4 norm {l4!r}")
    return problems


def exactness(rows: list[dict]) -> dict[str, float]:
    """Worst round-trip and Plancherel residuals in a transform or selftest report."""
    rt = pl = 0.0
    for row in rows:
        if row["task"] == "transform":
            rt = max(rt, float(row["roundtrip_error"]))
            pl = max(pl, float(row["plancherel_rel_error"]))
        elif row["task"] == "selftest" and row["check"] in ("roundtrip", "plancherel"):
            if row["check"] == "roundtrip":
                rt = max(rt, float(row["residual"]))
            else:
                pl = max(pl, float(row["residual"]))
    return {"roundtrip_err_max": rt, "plancherel_err_max": pl}


def check_task(name: str, expected_exit: int, exit_code, task_dir: Path, reference: dict) -> tuple[list[str], list[dict]]:
    """Problems found with one task's outputs (empty if it passed), and its rows."""
    if exit_code is None:
        return ["crashed or timed out"], []
    problems = []
    if exit_code != expected_exit:
        problems.append(f"exit code {exit_code}, expected {expected_exit}")
    try:
        rows = read_rows(task_dir)
    except (OSError, ValueError) as exc:
        return problems + [f"unreadable report: {exc}"], []
    if not rows:
        return problems + ["empty report"], []
    if rows[0]["task"] in SEED_FREE:
        if name not in reference:
            return problems + ["no reference recorded"], rows
        try:
            problems += _compare(seed_free_values(rows), reference[name])
        except (KeyError, ValueError) as exc:
            problems.append(f"malformed report: {exc}")
        return problems, rows
    bad = [row.get("status") for row in rows if row.get("status") != "ok"]
    if bad:
        problems.append(f"{len(bad)} rows not ok ({bad[0]})")
    if rows[0]["task"] == "tl-norm":
        problems += _hoelder_chain(rows)
    return problems, rows


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def record(seed: int = 0) -> dict:
    """Run every seed-independent task once and return its values."""
    root = Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "src"))
    from liefourier.cli import run_config

    from workloads import WORKLOADS, tasks

    reference: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            for name, cfg, _ in tasks(workload, seed):
                if cfg["task"] not in SEED_FREE:
                    continue
                run_config(cfg, Path(tmp) / name)
                reference[name] = seed_free_values(read_rows(Path(tmp) / name))
    return reference


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python3 perfbench/check.py --record")
    REFERENCE.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
