"""The liefourier benchmark: run one workload of real tasks, check every
output and print the metrics named in ``BENCHMARK.json``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload torus-cli --seed 1 --seconds 40 --trace 0

Load model: a closed loop with one client.  Tasks run back to back from
this process, with no concurrency; each goes through
``liefourier.cli.run_config`` in a worker process (``worker.py``), one
process per task or one per pass as the workload says.  BLAS runs with
one thread, and the environment record says so.

A *pass* runs every task of the workload once.  Passes repeat until the
next one would end after ``--seconds``, and each end-to-end metric is the
median over passes of:

* ``wall_s``: summed time inside the task calls (the time to all reports);
* ``setup_s``: interpreter start, ``import liefourier`` and config
  generation, summed over the pass's processes;
* ``slowest_task_s``: the longest single task;
* ``peak_rss_mb``: the largest own-process peak RSS among the processes.

The times are scaled to a reference host speed (``speed.py``): each worker
runs a fixed numpy probe after its set-up and after every task, and a
pass's times are multiplied by the probe's reference time over the mean
of the pass's probes.  On a shared host the same code drifts 10-20% in
speed from one minute to the next; the probe drifts with it and uses no
liefourier code, so the scaled times keep every change of the program's
own speed and lose much of the host's drift.  The raw times and the mean
probe of every pass are in the detail record.

``ok_frac`` is the share of tasks attempted in the run that passed every
check (``check.py``).  Every pass uses the same seed, so every pass's
reports and manifests must also be byte-identical to the first pass's.

With ``--trace 1`` each pass is followed by a traced pass (``tracer.py``).
The traced reports must be byte-identical to the untraced ones, the
per-layer metrics are medians over traced passes, and
``trace.overhead_s`` is the traced minus the untraced median ``wall_s``.

Task outputs, logs, spans and the full result go to
``.perfbench_runs/<workload>-seed<n>-trace<0|1>/``.  The last line of
standard output is the result object; the line before it holds the
environment record and per-pass detail.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_runs"
DEADLINE_S = 170.0  # every run ends well inside three minutes
# One BLAS thread, which is at most nproc anywhere: on a 2-core x86 VM a
# second thread did not speed any workload up.
BLAS_THREADS = 1
PASS_DETAIL = (
    "traced", "wall_s", "raw_wall_s", "setup_s", "raw_setup_s", "probe_s", "slowest_task_s", "peak_rss_mb", "exactness"
)

sys.path.insert(0, str(HERE))
from check import check_task, exactness, load_reference  # noqa: E402
from speed import to_reference  # noqa: E402
from workloads import ONE_PROCESS_PER_TASK, WORKLOADS, tasks  # noqa: E402


class SetupError(RuntimeError):
    """The benchmark cannot run here (no library source, broken interpreter)."""


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": commit,
    }


def spawn(request: dict, env: dict, timeout: float, log) -> dict | None:
    """Run one worker; its reply, or None if it crashed or timed out."""
    request = dict(request, spawned=time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=log,
        text=True,
        env=env,
        cwd=ROOT,
    )
    try:
        out, _ = proc.communicate(json.dumps(request), timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None
    if proc.returncode != 0 or not out.strip():
        return None
    try:
        return json.loads(out.strip().splitlines()[-1])
    except json.JSONDecodeError:
        return None


def _digest(task_dir: Path) -> str | None:
    if not task_dir.is_dir():
        return None
    h = hashlib.sha256()
    for path in sorted(task_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def run_pass(workload, seed, trace, pass_dir: Path, env, deadline, reference, smoke=False) -> dict:
    """Run every task of the workload once and check its outputs
    (``smoke``: at toy sizes, for the benchmark's own tests)."""
    pass_dir.mkdir(parents=True)
    task_list = tasks(workload, seed, smoke)
    n = len(task_list)
    groups = [[i] for i in range(n)] if ONE_PROCESS_PER_TASK[workload] else [list(range(n))]
    results, setup, rss, probes, layers, absent = [], 0.0, 0.0, [], defaultdict(float), set()
    witness = {"roundtrip_err_max": 0.0, "plancherel_err_max": 0.0}
    with open(pass_dir / "stderr.log", "w") as log:
        for group in groups:
            request = {
                "workload": workload,
                "seed": seed,
                "tasks": group,
                "out": str(pass_dir),
                "trace": trace,
                "spans": str(pass_dir / f"spans-{group[0]}.json"),
                "smoke": smoke,
            }
            reply = spawn(request, env, deadline - time.monotonic(), log)
            by_name = {}
            if reply is not None:
                setup += reply["setup_s"]
                rss = max(rss, reply["peak_rss_mb"])
                probes += reply["probe_s"]
                by_name = {t["name"]: t for t in reply["tasks"]}
                for key, value in reply.get("layers", {}).items():
                    layers[key] += value
                absent.update(reply.get("absent", ()))
            for i in group:
                name, _, expected = task_list[i]
                got = by_name.get(name, {"exit": None, "wall_s": 0.0})
                problems, rows = check_task(name, expected, got["exit"], pass_dir / name, reference)
                for key, value in exactness(rows).items():
                    witness[key] = max(witness[key], value)
                results.append(
                    {
                        "name": name,
                        "exit": got["exit"],
                        "raw_wall_s": got["wall_s"],
                        "problems": problems,
                        "digest": _digest(pass_dir / name),
                    }
                )
    factor = to_reference(probes) if probes else 1.0
    for t in results:
        t["wall_s"] = t["raw_wall_s"] * factor
    walls = [t["wall_s"] for t in results]
    return {
        "traced": trace,
        "wall_s": sum(walls),
        "raw_wall_s": sum(t["raw_wall_s"] for t in results),
        "setup_s": setup * factor,
        "raw_setup_s": setup,
        "probe_s": statistics.mean(probes) if probes else None,
        "slowest_task_s": max(walls),
        "peak_rss_mb": rss,
        "tasks": results,
        "layers": dict(layers),
        "absent": sorted(absent),
        "exactness": witness,
    }


def compare_bytes(passes: list[dict]):
    """Same seed, same bytes: flag tasks whose outputs differ from pass 0."""
    first = {t["name"]: t["digest"] for t in passes[0]["tasks"]}
    for p in passes[1:]:
        for t in p["tasks"]:
            if t["digest"] is not None and first.get(t["name"]) is not None and t["digest"] != first[t["name"]]:
                kind = "traced" if p["traced"] else "repeated"
                t["problems"].append(f"{kind} pass wrote different report bytes than the first pass")


def layer_metrics(traced: list[dict]) -> dict:
    """Per-layer metrics: medians over the traced passes of each counter."""
    keys = set().union(*(p["layers"] for p in traced))
    med = {k: statistics.median(p["layers"].get(k, 0.0) for p in traced) for k in keys}
    out = defaultdict(float, med)
    calls = out["symbols.cached_grid.calls"]
    out["symbols.cached_grid.hit_ratio"] = out["symbols.cached_grid.hits"] / calls if calls else 0.0
    for key in ("roundtrip_err_max", "plancherel_err_max"):
        out[f"transform.{key}"] = max(p["exactness"][key] for p in traced)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    started = time.monotonic()
    deadline = started + DEADLINE_S
    if not (ROOT / "src" / "liefourier" / "__init__.py").is_file():
        raise SetupError(f"no liefourier source under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = load_reference()
    env = worker_env()
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    # warm-up: byte-compiles the library and proves it imports; not timed
    with open(run_dir / "warmup.log", "w") as log:
        warm = {"workload": args.workload, "seed": args.seed, "tasks": [], "out": str(run_dir), "trace": False}
        if spawn(warm, env, deadline - time.monotonic(), log) is None:
            raise SetupError(f"the worker cannot import liefourier; see {run_dir / 'warmup.log'}")

    plain, traced = [], []
    measure_end = time.monotonic() + args.seconds
    while True:
        cycle_start = time.monotonic()
        plain.append(run_pass(args.workload, args.seed, False, run_dir / f"pass{len(plain)}", env, deadline, reference))
        if args.trace:
            traced.append(
                run_pass(args.workload, args.seed, True, run_dir / f"pass{len(traced)}-traced", env, deadline, reference)
            )
        now = time.monotonic()
        if now + (now - cycle_start) > min(measure_end, deadline):
            break
    compare_bytes(plain + traced)

    every = [t for p in plain + traced for t in p["tasks"]]
    attempted = len(every)
    failed = sum(1 for t in every if t["problems"])
    wall_s = statistics.median(p["wall_s"] for p in plain)
    if args.trace:
        values = layer_metrics(traced)  # a layer that did not run reads 0
        values["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - wall_s
        values["failed_frac"] = failed / attempted
        chosen = spec["per_layer"]
    else:
        values = {key: statistics.median(p[key] for p in plain) for key in ("setup_s", "slowest_task_s", "peak_rss_mb")}
        values["wall_s"] = wall_s
        values["ok_frac"] = (attempted - failed) / attempted
        chosen = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen}

    detail = {
        "workload": args.workload,
        "environment": environment(args.seed),
        "passes": [
            {k: p[k] for k in PASS_DETAIL}
            # per task: scaled and raw seconds
            | {"tasks": {t["name"]: [round(t["wall_s"], 4), round(t["raw_wall_s"], 4)] for t in p["tasks"]}}
            for p in plain + traced
        ],
        "absent_boundaries": sorted(set().union(*(p["absent"] for p in traced))) if traced else [],
        "problems": [f"{t['name']}: {msg}" for t in every for msg in t["problems"]],
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    (run_dir / "result.json").write_text(json.dumps({"detail": detail, "result": result}, indent=1) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (SetupError, OSError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        sys.exit(2)
