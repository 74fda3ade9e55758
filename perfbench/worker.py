"""Run some of a workload's tasks in this process, one after another.

Reads a JSON request on stdin::

    {"workload": ..., "seed": ..., "tasks": [indices],
     "out": dir, "trace": bool, "spans": file, "spawned": monotonic time
     of the spawn, "smoke": optional bool (toy sizes, for tests)}

and prints one JSON line: the process's set-up time (spawn to configs
ready, which covers interpreter start, ``import liefourier`` and config
generation), each task's wall time and exit code, the speed probe's time
(``speed.py``) after set-up and after every task, the own-process peak RSS,
and with tracing on the per-layer counters.  Task reports go under
``out/<task name>/``; with tracing on, the spans go to the ``spans`` file.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    request = json.loads(sys.stdin.read())
    root = Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "src"))
    import liefourier
    from liefourier import cli

    if not Path(liefourier.__file__).resolve().is_relative_to(root / "src"):
        raise ImportError(f"liefourier imported from {liefourier.__file__}, not from {root / 'src'}")
    from workloads import tasks

    every = tasks(request["workload"], request["seed"], request.get("smoke", False))
    chosen = [every[i] for i in request["tasks"]]
    setup_s = time.monotonic() - request["spawned"]

    from speed import probe

    probes = [probe()]

    tracer = None
    if request["trace"]:
        from tracer import Tracer

        tracer = Tracer().install()
    out = Path(request["out"])
    results = []
    try:
        for name, cfg, _expected in chosen:
            if tracer is not None:
                tracer.task = name
            started = time.perf_counter()
            try:
                code = cli.run_config(cfg, out / name)
            except Exception:  # a crash is a failed task, the rest still run
                traceback.print_exc()
                code = None
            results.append({"name": name, "exit": code, "wall_s": time.perf_counter() - started})
            probes.append(probe())
    finally:
        if tracer is not None:
            tracer.restore()

    reply = {
        "setup_s": setup_s,
        "tasks": results,
        "probe_s": probes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        reply["layers"] = tracer.metrics()
        reply["absent"] = tracer.absent
        with open(request["spans"], "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "task"], "spans": tracer.spans}, fh)
    print(json.dumps(reply))
    return 0


if __name__ == "__main__":
    sys.exit(main())
