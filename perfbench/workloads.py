"""The benchmark's three workloads: liefourier task configs built from a seed.

Each task is ``(name, config, expected_exit)``.  The seed goes into every
config's ``seed`` field; the library sees nothing else of the benchmark.
The shipped configs are copied here (as they stood when the benchmark was
defined) so that the benchmark does not change when a shipped config does.

Why these three:

* ``torus-cli``: a fresh process per torus task.  The torus plan/transform
  layer carries the load; T^2 at lam 40 lands above the torus plan's phase
  table cap (chunked path), T^3 at lam 8 below it (cached table).  No SU(2)
  code runs, so an SU(2)-only change must read "no change" here.
* ``su2-cli``: a fresh process per SU(2) task.  The cold synthesis path:
  every process builds its grids and little-d tables, then runs one inverse
  per dyadic window per ensemble member.
* ``su2-session``: one process runs every task in order.  Plans and grids
  are built once and then hit; the work is analysis (forward transforms on
  oversampled grids) and pointwise series evaluation, with many grids held.
"""

from __future__ import annotations

import copy

WORKLOADS = ("torus-cli", "su2-cli", "su2-session")

# one process per task, or every task of a pass in one process
ONE_PROCESS_PER_TASK = {"torus-cli": True, "su2-cli": True, "su2-session": False}

SHIPPED = {
    "selftest_torus": {
        "task": "selftest",
        "group": {"kind": "torus", "dim": 1},
        "lam": 64.0,
        "count": 8,
        "seed": 7,
    },
    "wave_divergence": {
        "task": "check-symbol",
        "group": {"kind": "torus", "dim": 1},
        "lams": [32.0, 64.0, 128.0, 256.0],
        "symbol": {"type": "wave"},
        "checker": "marcinkiewicz",
        "order": 1,
        "tolerances": {"max_growth": 4.0},
        "seed": 1,
    },
    "kernel_decay_torus": {
        "task": "kernel-decay",
        "group": {"kind": "torus", "dim": 1},
        "lam": 512.0,
        "symbol": {"type": "power_it", "t": 1.0},
        "windows": [2, 3, 4, 5, 6],
        "c": 1.0,
        "z_distance": 0.3141592653589793,
        "tolerances": {"slope_max": -0.2},
        "seed": 0,
    },
    "wave_sweep_su2": {
        "task": "bound-sweep",
        "group": {"kind": "su2", "dim": 3},
        "ell_maxes": [7.5, 15.5, 31.5],
        "symbol": {"type": "wave"},
        "specs": [{"r": 0, "p": 4, "q": 2}],
        "ensemble": {"kind": "adjoint-dirichlet", "count": 4},
        "trend": "increasing",
        "seed": 9,
    },
}

_T1 = {"kind": "torus", "dim": 1}
_T2 = {"kind": "torus", "dim": 2}
_T3 = {"kind": "torus", "dim": 3}
_SU2 = {"kind": "su2", "dim": 3}
_P4Q2 = {"r": 0, "p": 4, "q": 2}
_P1Q2 = {"r": 0, "p": 1, "q": 2}
_POWER_IT = {"type": "power_it", "t": 1.0}
_WAVE = {"type": "wave"}


def _gaussian(count: int) -> dict:
    return {"kind": "gaussian-coefficients", "count": count}


def _check(group, cutoffs: dict, symbol, checker: str, **extra) -> dict:
    return {"task": "check-symbol", "group": group, **cutoffs, "symbol": symbol, "checker": checker, **extra}


_TASKS = {
    "torus-cli": [
        ("selftest_torus", SHIPPED["selftest_torus"], 0),
        ("wave_divergence", SHIPPED["wave_divergence"], 2),
        ("kernel_decay_torus", SHIPPED["kernel_decay_torus"], 0),
        ("transform_t2", {"task": "transform", "group": _T2, "lam": 40.0, "count": 2}, 0),
        ("tl_norm_t3", {"task": "tl-norm", "group": _T3, "lam": 8.0, "specs": [_P4Q2], "ensemble": _gaussian(2)}, 0),
        ("check_power_it_t2", _check(_T2, {"lams": [12.0, 24.0]}, _POWER_IT, "marcinkiewicz", order=1), 0),
    ],
    "su2-cli": [
        ("wave_sweep_su2", SHIPPED["wave_sweep_su2"], 0),
        ("tl_norm_su2", {"task": "tl-norm", "group": _SU2, "ell_max": 31.5, "specs": [_P4Q2, _P1Q2], "ensemble": _gaussian(2)}, 0),
        ("transform_su2", {"task": "transform", "group": _SU2, "ell_max": 31.5, "count": 2}, 0),
    ],
    "su2-session": [
        ("check_power_it_su2", _check(_SU2, {"ell_maxes": [15.5, 31.5]}, _POWER_IT, "marcinkiewicz", order=1), 0),
        ("check_wave_su2", _check(_SU2, {"ell_maxes": [15.5, 31.5]}, _WAVE, "marcinkiewicz", order=1), 0),
        ("weak_wave_su2", _check(_SU2, {"ell_maxes": [15.5, 31.5]}, _WAVE, "weak-marcinkiewicz", s0=1), 0),
        ("hm_power_it_su2", _check(_SU2, {"ell_maxes": [7.5, 15.5]}, _POWER_IT, "hormander-mihlin"), 0),
        (
            "kernel_decay_su2",
            {"task": "kernel-decay", "group": _SU2, "ell_max": 31.5, "symbol": _POWER_IT, "windows": [1, 2, 3, 4], "z_distance": 0.3},
            0,
        ),
    ],
}


def _shrink(cfg: dict) -> dict:
    """The same task at toy sizes: every code path, a fraction of a second."""
    sizes = {"lam": 8.0, "lams": [4.0, 8.0], "ell_max": 5.5, "ell_maxes": [3.5, 5.5], "count": 1, "windows": [1, 2]}
    for key, small in sizes.items():
        if key in cfg:
            cfg[key] = min(cfg[key], small) if key in ("lam", "ell_max") else small
    if "ensemble" in cfg:
        cfg["ensemble"]["count"] = min(cfg["ensemble"]["count"], 2)
    return cfg


def tasks(workload: str, seed: int, smoke: bool = False) -> list[tuple[str, dict, int]]:
    """The workload's tasks, in run order, with ``seed`` in every config.

    ``smoke`` shrinks every task to toy sizes for the benchmark's own tests;
    the expected exit codes then no longer apply.
    """
    if workload not in _TASKS:
        raise KeyError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    out = []
    for name, cfg, expected in _TASKS[workload]:
        cfg = copy.deepcopy(cfg)
        cfg["seed"] = int(seed)
        out.append((name, _shrink(cfg) if smoke else cfg, expected))
    return out
