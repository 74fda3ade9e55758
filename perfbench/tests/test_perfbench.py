"""Tests of the benchmark itself: tracer patching and restore, span self
times, absent boundaries, the output checks, scaling to the reference
speed, and a smoke pass of every workload at toy sizes.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import liefourier  # noqa: E402
import liefourier.cli  # noqa: E402
from check import RTOL, SEED_FREE, check_task, load_reference  # noqa: E402
from run import run_pass, worker_env  # noqa: E402
from speed import REFERENCE_S, probe, to_reference  # noqa: E402
from tracer import BOUNDARIES, Tracer  # noqa: E402
from workloads import WORKLOADS, tasks  # noqa: E402

SMALL_CHECK = {
    "task": "check-symbol",
    "group": {"kind": "su2", "dim": 3},
    "ell_maxes": [2.5, 4.5],
    "symbol": {"type": "power_it", "t": 1.0},
    "checker": "marcinkiewicz",
    "order": 1,
    "seed": 0,
}


def _namespaces():
    return {name: dict(vars(m)) for name, m in sys.modules.items() if name.split(".")[0] == "liefourier" and m}


def test_install_reaches_every_binding_and_restore_puts_originals_back():
    before = _namespaces()
    tracer = Tracer().install()
    try:
        # bindings made with ``from .x import y`` in other modules are wrapped too
        assert liefourier.spaces.inverse_on_grid is not before["liefourier.transform"]["inverse_on_grid"]
        assert liefourier.symbols.forward_transform is not before["liefourier.transform"]["forward_transform"]
        assert liefourier.cli.window_samples is not before["liefourier.spaces"]["window_samples"]
        assert liefourier.cli.cached_grid is not before["liefourier.symbols"]["cached_grid"]
        assert liefourier.multipliers.build_partition is before["liefourier.spaces"]["build_partition"]
    finally:
        tracer.restore()
    after = _namespaces()
    for name, namespace in before.items():
        for attr, value in namespace.items():
            assert after[name][attr] is value, f"{name}.{attr} not restored"


def test_self_times_sum_to_the_root_span(tmp_path):
    with Tracer() as tracer:
        tracer.task = "small"
        assert liefourier.cli.run_config(dict(SMALL_CHECK), tmp_path) == 0
    spans = tracer.spans
    roots = [s for s in spans if s[4] is None]
    assert len(roots) == 1 and roots[0][1] == "cli.run_config"
    assert len(spans) > 10
    by_id = {s[0]: s for s in spans}
    for sid, _, start, end, parent, task in spans:
        assert task == "small"
        if parent is not None:
            assert by_id[parent][2] <= start <= end <= by_id[parent][3]
    root_duration = roots[0][3] - roots[0][2]
    assert math.isclose(sum(tracer.self_times()), root_duration, rel_tol=1e-9)
    metrics = tracer.metrics()
    assert metrics["symbols.check_marcinkiewicz.calls"] == 2
    assert metrics["transform.forward_transform.calls"] >= 2
    assert metrics["symbols.cached_grid.calls"] >= 2


def test_absent_boundary_is_reported_and_does_not_crash(tmp_path):
    boundaries = BOUNDARIES + (("transform.gone", "liefourier.transform", "_no_such_function", None),)
    with Tracer(boundaries) as tracer:
        assert liefourier.cli.run_config(dict(SMALL_CHECK), tmp_path) == 0
    assert tracer.absent == ["liefourier.transform._no_such_function"]
    assert "transform.gone.calls" not in tracer.metrics()


def test_tracing_leaves_reports_byte_identical(tmp_path):
    assert liefourier.cli.run_config(dict(SMALL_CHECK), tmp_path / "plain") == 0
    with Tracer():
        assert liefourier.cli.run_config(dict(SMALL_CHECK), tmp_path / "traced") == 0
    for name in ("check-symbol_report.csv", "run_manifest.json"):
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "traced" / name).read_bytes()


def test_every_layer_metric_comes_from_a_boundary():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = {metric for metric, *_ in BOUNDARIES}
    derived = {"transform.roundtrip_err_max", "transform.plancherel_err_max", "trace.overhead_s", "failed_frac"}
    for m in spec["per_layer"]:
        name = m["name"]
        assert name in derived or name.rsplit(".", 1)[0] in layers, name
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def _write_report(task_dir: Path, header: list[str], rows: list[list]):
    task_dir.mkdir(parents=True)
    lines = [",".join(header)] + [",".join(str(v) for v in row) for row in rows]
    (task_dir / "kernel-decay_report.csv").write_text("\n".join(lines) + "\n")


def test_check_catches_a_wrong_value_and_passes_a_close_one(tmp_path):
    header = ["task", "digest", "group", "symbol", "lam", "window", "value", "status"]
    reference = {"kd": {"window=2": [2.0, "ok"], "window=slope": [-0.5, "ok"]}}
    good = [
        ["kernel-decay", "x", "torus", "s", "8", "2", 2.0 * (1 + RTOL / 10), "ok"],
        ["kernel-decay", "x", "torus", "s", "8", "slope", -0.5, "ok"],
    ]
    _write_report(tmp_path / "good" / "kd", header, good)
    assert check_task("kd", 0, 0, tmp_path / "good" / "kd", reference)[0] == []
    wrong = [row[:] for row in good]
    wrong[0][6] = 2.0 * (1 + 1e-6)
    _write_report(tmp_path / "wrong" / "kd", header, wrong)
    problems, _ = check_task("kd", 0, 0, tmp_path / "wrong" / "kd", reference)
    assert len(problems) == 1 and "window=2" in problems[0]
    assert check_task("kd", 0, 2, tmp_path / "good" / "kd", reference)[0] == ["exit code 2, expected 0"]
    assert check_task("kd", 0, None, tmp_path / "good" / "kd", reference)[0] == ["crashed or timed out"]


def test_check_holds_tl_norms_to_the_hoelder_chain(tmp_path):
    header = ["task", "digest", "group", "lam", "member", "r", "p", "q", "norm", "weak_norm", "status"]
    rows = [
        ["tl-norm", "x", "su2", "8", 0, 0.0, 4.0, 2.0, 1.5, "", "ok"],
        ["tl-norm", "x", "su2", "8", 0, 0.0, 1.0, 2.0, 1.2, 1.3, "ok"],  # weak norm above the L1 norm
    ]
    task_dir = tmp_path / "tl"
    task_dir.mkdir()
    (task_dir / "tl-norm_report.csv").write_text("\n".join(",".join(map(str, r)) for r in [header] + rows) + "\n")
    problems, _ = check_task("tl", 0, 0, task_dir, {})
    assert len(problems) == 1 and "weak norm" in problems[0]


def test_reference_covers_every_seed_free_task():
    reference = load_reference()
    for workload in WORKLOADS:
        for name, cfg, _ in tasks(workload, 0):
            if cfg["task"] in SEED_FREE:
                assert reference[name], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_pass_runs_every_task_of_the_workload(workload, tmp_path):
    started = time.monotonic()
    result = run_pass(workload, 3, True, tmp_path / "pass", worker_env(), started + 120.0, {}, smoke=True)
    names = [name for name, _, _ in tasks(workload, 3)]
    assert [t["name"] for t in result["tasks"]] == names
    for task in result["tasks"]:
        assert task["exit"] in (0, 2) and task["digest"] is not None, task
    assert 0 < result["raw_setup_s"] < result["raw_wall_s"] + result["raw_setup_s"] < time.monotonic() - started
    assert result["setup_s"] > 0 and result["wall_s"] >= result["slowest_task_s"] > 0
    assert result["peak_rss_mb"] > 0 and result["absent"] == []
    layers = result["layers"]
    assert layers["cli.run_config.calls"] == len(names)
    assert layers["transform.plan.builds"] >= 1
    dominant = {
        "torus-cli": "transform.forward_transform.calls",
        "su2-cli": "multipliers.boundedness_sweep.members",
        "su2-session": "symbols.check_hormander_mihlin.calls",
    }[workload]
    assert layers[dominant] > 0


def test_scaling_to_reference_speed():
    assert math.isclose(2.0 * to_reference([REFERENCE_S, REFERENCE_S]), 2.0)
    # a host at half the reference speed: the probes and the tasks both take twice as long
    assert math.isclose(4.0 * to_reference([2 * REFERENCE_S] * 3), 2.0)
    assert math.isclose(3.0 * to_reference([REFERENCE_S, 3 * REFERENCE_S]), 1.5)
    assert probe() > 0
