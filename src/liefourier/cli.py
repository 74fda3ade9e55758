"""Config-driven command line front end.

Usage:  liefourier --config cfg.json [--seed N] [--out DIR] [--tol NAME=VALUE]
                   [--format csv|json]

The config is a single JSON object selecting one task; see the README for
the schema.  It is read once, at entry: ``_validate_config`` checks,
defaults and converts every field and returns a frozen :class:`Task`, which
the task's runner executes; the raw config only feeds the digest and the
manifest echo.  ``--seed``, ``--format`` and ``--tol`` edit the config
before it is read; ``--out`` (default ``.``) is the output directory.
Outputs are a rows report (CSV by default) plus a JSON run manifest (config
echo, seed, library version, headline numbers).  Identical (config, seed)
pairs produce byte-identical reports: floats are written with 17
significant digits, rows are emitted in a fixed order, and wall time is
logged to stderr only.

Exit codes: 0 success, 1 configuration error, 2 a declared tolerance was
violated (or the task aborted, a Triebel-Lizorkin norm past float64
included; its rows are replaced by one ``failed`` marker row).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .dual import enumerate_dual, representation_stacks, spin_cutoff
from .errors import ConfigurationError, PreconditionError
from .groups import SU2, TORUS, GroupDescriptor, make_group, point_at_distance
from .multipliers import (
    SYMBOL_ENSEMBLE_KINDS,
    EnsembleConfig,
    boundedness_sweep,
    decay_slope,
    ensemble_member,
    kernel_difference_integrals,
)
from .spaces import NormSpec, psi, tl_norms, windows
from .symbols import (
    build_spectral_symbol,
    check_hormander_mihlin,
    check_marcinkiewicz,
    check_weak_marcinkiewicz,
    dyadic_rademacher_symbol,
    identity_symbol,
    sign_symbol,
)
from .transform import (
    default_grid,
    forward_transform,
    inverse_on_grid,
    plancherel_norm,
    random_coefficients,
)

_FORMATS = ("csv", "json")


@dataclass(frozen=True)
class Task:
    """A config read once: every field the task takes, checked, defaulted
    and converted.  Fields the task does not take keep their empty values."""

    name: str
    group: GroupDescriptor
    cutoffs: tuple[float, ...]  # ascending
    seed: int
    tol: dict  # the task's tolerances, defaults merged with the config's
    format: str
    count: int | None = None
    build_symbol: Callable | None = None  # dual -> Symbol
    symbol_name: str = ""
    specs: tuple[NormSpec, ...] = ()
    ensemble: EnsembleConfig | None = None
    checker: str = ""
    param: int | float | None = None  # the checker's one parameter; None takes the check's own default
    windows: tuple[int, ...] = ()
    c: float | None = None
    z_distance: float | None = None
    trend: str = ""


def fmt(value) -> str:
    """Deterministic cell formatting: 17 significant digits for floats."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def emit_report(rows: list[dict], path: str | Path, fmt_kind: str = "csv") -> Path:
    """Write rows bit-stably ('\\n' endings, '.' decimal separator)."""
    if not rows:
        raise PreconditionError("cannot emit an empty report")
    _choice("format", fmt_kind, _FORMATS)
    path = Path(path)
    header = list(rows[0].keys())
    for row in rows:
        if list(row.keys()) != header:
            raise PreconditionError("report rows must share one column set")
    if fmt_kind == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([fmt(v) for v in row.values()])
    else:
        payload = [{k: (fmt(v) if isinstance(v, (float, np.floating)) else v) for k, v in row.items()} for row in rows]
        with open(path, "w", newline="") as fh:
            fh.write(json.dumps(payload, indent=1))
            fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

def _validate_config(cfg: dict) -> Task:
    """Read a config once: check, default and convert every field and return
    the task to run.  Raises ConfigurationError on the first bad field."""
    if not isinstance(cfg, dict):
        raise ConfigurationError("config must be a JSON object")
    name = _choice("task", cfg.get("task"), tuple(_TASKS))
    kind = _TASKS[name]
    unknown = set(cfg) - _COMMON_FIELDS - set(kind.cutoffs) - kind.required - set(kind.defaults)
    if unknown:
        raise ConfigurationError(f"unknown config fields for task {name}: {sorted(unknown)}")
    missing = kind.required - set(cfg)
    if missing:
        raise ConfigurationError(f"task {name} needs the fields {sorted(missing)}")
    given = [field for field in kind.cutoffs if field in cfg]
    if len(given) != 1:
        raise ConfigurationError(f"task {name} needs exactly one of the cutoff fields {list(kind.cutoffs)}")
    gcfg = cfg.get("group")
    if not isinstance(gcfg, dict) or "kind" not in gcfg or set(gcfg) - {"kind", "dim"}:
        raise ConfigurationError(f"group must be an object with a 'kind' and at most a 'dim', got {gcfg!r}")
    if gcfg["kind"] == SU2 and gcfg.get("dim", 3) != 3:
        raise ConfigurationError(f"su2 has dim 3, got {gcfg['dim']!r}")
    group = make_group(gcfg["kind"], _integer("group dim", gcfg.get("dim", 1)))
    tol = cfg.get("tolerances", {})
    if not isinstance(tol, dict) or set(tol) - set(kind.tolerances):
        raise ConfigurationError(f"tolerances must be an object over the {name} tolerances {list(kind.tolerances)}")
    tol = {**kind.tolerances, **{k: _number(f"tolerance {k}", v, infinite=True) for k, v in tol.items()}}
    cutoffs = _cutoffs(given[0], cfg[given[0]], group)
    task = {
        "name": name,
        "group": group,
        "cutoffs": cutoffs,
        "seed": _integer("seed", cfg.get("seed", 0), 0),
        "tol": tol,
        "format": _choice("format", cfg.get("format", "csv"), _FORMATS),
    }

    fields = {**kind.defaults, **cfg}  # every field the task takes, defaulted
    if "count" in fields:
        task["count"] = _integer("count", fields["count"], 1)
    if "symbol" in fields:
        task["build_symbol"], task["symbol_name"] = _symbol(fields["symbol"], group)
    if "specs" in fields:
        if not isinstance(fields["specs"], list) or not fields["specs"]:
            raise ConfigurationError("specs must be a nonempty list")
        task["specs"] = tuple(_spec(item) for item in fields["specs"])
    if "ensemble" in fields:
        ens = fields["ensemble"]
        if not isinstance(ens, dict) or set(ens) != {"kind", "count"}:
            raise ConfigurationError(f"ensemble must be an object with exactly a 'kind' and a 'count', got {ens!r}")
        task["ensemble"] = EnsembleConfig(ens["kind"], _integer("ensemble count", ens["count"], 1))
        if "symbol" not in fields and ens["kind"] in SYMBOL_ENSEMBLE_KINDS:
            raise ConfigurationError(f"a {name} ensemble cannot be {ens['kind']!r}: it needs a symbol")
    if "checker" in fields:
        checker = _choice("checker", fields["checker"], tuple(_CHECKERS))
        field = _CHECKERS[checker][0]
        stray = set(cfg) & ({"order", "s", "s0"} - {field})
        if stray:
            raise ConfigurationError(f"the {checker} checker reads {field!r}, not {sorted(stray)}")
        param = fields[field]
        if field == "s" and field in cfg:
            param = _number("s", param)
            if param <= group.dim / 2.0:
                raise ConfigurationError(f"s must exceed n/2 = {group.dim / 2.0:g}, got {param!r}")
        elif field in cfg:
            param = _integer(field, param, 0, group.dim if field == "s0" else None)
        task.update(checker=checker, param=param)
    if "windows" in fields:
        if not isinstance(fields["windows"], list):
            raise ConfigurationError("windows must be a list")
        levels = tuple(_integer("each window", level, 0) for level in fields["windows"])
        if len(set(levels)) < 2:
            raise ConfigurationError("windows must hold at least two distinct levels to fit a slope")
        task["windows"] = levels
    if "c" in fields:
        task["c"] = _number("c", fields["c"])
        if task["c"] <= 0.0:
            raise ConfigurationError(f"c must be positive, got {fields['c']!r}")
    if "z_distance" in fields:
        task["z_distance"] = _number("z_distance", fields["z_distance"])
        # a torus translation by z_distance / (2 pi) wraps above pi
        if not 0.0 < task["z_distance"] <= math.pi:
            raise ConfigurationError(f"z_distance must lie in (0, pi], got {fields['z_distance']!r}")
    if "trend" in fields:
        task["trend"] = _choice("trend", fields["trend"], ("none", "increasing"))
    return Task(**task)


def _choice(name: str, value, options: tuple):
    if value not in options:
        raise ConfigurationError(f"{name} must be one of {options}, got {value!r}")
    return value


def _number(name: str, value, infinite: bool = False) -> float:
    """``value`` as a float if it is a JSON number (not a bool, not NaN),
    finite unless ``infinite``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or math.isnan(value):
        raise ConfigurationError(f"{name} must be a number, got {value!r}")
    if math.isinf(value) and not infinite:
        raise ConfigurationError(f"{name} must be finite, got {value!r}")
    return float(value)


def _integer(name: str, value, low: int | None = None, high: int | None = None) -> int:
    """``value`` if it is an integer (not a bool) in [low, high]."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if (low is not None and value < low) or (high is not None and value > high):
        raise ConfigurationError(f"{name} must lie in [{low}, {'inf' if high is None else high}], got {value}")
    return value


def _cutoffs(name: str, value, group) -> tuple[float, ...]:
    """The ascending cutoffs of the cutoff field ``name``: values of <xi> for
    ``lam``/``lams``, the exact spin cutoffs of ``ell_max``/``ell_maxes``
    (su2 only)."""
    if name in _CUTOFF_LISTS and (not isinstance(value, list) or not value):
        raise ConfigurationError(f"{name} must be a nonempty list")
    values = [_number(name, v) for v in (value if name in _CUTOFF_LISTS else [value])]
    if values != sorted(values):
        raise ConfigurationError(f"{name} must ascend, got {value}")
    if not name.startswith("ell"):
        return tuple(values)
    if group.kind != SU2:
        raise ConfigurationError(f"{name} applies to su2 only")
    if values[0] < 0:
        raise ConfigurationError(f"{name} must hold spins >= 0, got {value!r}")
    return tuple(spin_cutoff(v) for v in values)


def _spec(item) -> NormSpec:
    if not isinstance(item, dict) or set(item) != {"r", "p", "q"}:
        raise ConfigurationError(f"each spec must be an object with exactly r, p and q, got {item!r}")
    r, p = _number("spec r", item["r"]), _number("spec p", item["p"])
    return NormSpec(r, p, _number("spec q", item["q"], infinite=True))


# symbol type -> its fields besides "type" and their defaults (None: required)
_SYMBOLS = {
    "identity": {},
    "power_it": {"t": 1.0},
    "wave": {},
    "sign": {},
    "window": {"ell": None},
    "dyadic_rademacher": {"seed": 0},
}


def _symbol(cfg, group) -> tuple[Callable, str]:
    """The builder ``dual -> Symbol`` of a symbol config, e.g.
    {"type": "power_it", "t": 5.0}, and its report spelling, which keeps the
    config's own values ("power_it,t=5.0")."""
    if not isinstance(cfg, dict):
        raise ConfigurationError(f"symbol must be an object with a 'type', got {cfg!r}")
    kind = _choice("symbol type", cfg.get("type"), tuple(_SYMBOLS))
    fields = _SYMBOLS[kind]
    unknown = set(cfg) - {"type"} - set(fields)
    if unknown:
        raise ConfigurationError(f"unknown fields for a {kind} symbol: {sorted(unknown)}")
    missing = sorted(key for key, default in fields.items() if default is None and key not in cfg)
    if missing:
        raise ConfigurationError(f"a {kind} symbol needs the fields {missing}")
    value = {**fields, **cfg}
    if kind == "power_it":
        t = _number("symbol t", value["t"])
        build = lambda dual: build_spectral_symbol(lambda lam: lam ** (1j * t), dual)
    elif kind == "wave":
        build = lambda dual: build_spectral_symbol(lambda lam: np.exp(1j * lam), dual)
    elif kind == "window":
        ell = _integer("symbol ell", value["ell"], 0)
        build = lambda dual: build_spectral_symbol(lambda lam: psi(ell, lam).astype(complex), dual)
    elif kind == "dyadic_rademacher":
        seed = _integer("symbol seed", value["seed"], 0)
        build = lambda dual: dyadic_rademacher_symbol(dual, seed)
    elif kind == "sign":
        if group.kind != TORUS:
            raise ConfigurationError("the sign symbol is defined on the torus only")
        build = sign_symbol
    else:
        build = identity_symbol
    return build, ",".join([kind, *(f"{key}={cfg[key]}" for key in fields if key in cfg)])


def _digest(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Tasks
# ---------------------------------------------------------------------------

def _roundtrip_residuals(dual, seed: int, count: int) -> list[tuple[float, float]]:
    """(round-trip max block error, Plancherel relative error) for each of
    ``count`` seeded random members: coefficients -> default grid -> back."""
    grid = default_grid(dual)
    out = []
    for member in range(count):
        rng = np.random.default_rng([seed, member])
        coeffs = random_coefficients(dual, rng)
        samples = inverse_on_grid(coeffs, grid)
        back = forward_transform(samples, dual)
        rt = max(float(np.max(np.abs(a - b))) for a, b in zip(coeffs.stacks, back.stacks))
        pl = plancherel_norm(coeffs)
        l2 = float(np.sqrt(np.sum(grid.weights * np.abs(samples.values) ** 2)))
        out.append((rt, abs(pl - l2) / pl if pl > 0 else 0.0))
    return out


def _task_transform(task: Task):
    [lam] = task.cutoffs
    dual = enumerate_dual(task.group, lam)
    rows = []
    residuals = _roundtrip_residuals(dual, task.seed, task.count)
    for member, (rt, rel) in enumerate(residuals):
        ok = rt <= task.tol["roundtrip_max"] and rel <= task.tol["plancherel_max"]
        rows.append(
            {
                "lam": lam,
                "member": member,
                "roundtrip_error": rt,
                "plancherel_rel_error": rel,
                "status": "ok" if ok else "fail",
            }
        )
    headline = {"roundtrip_error": max(rt for rt, _ in residuals), "plancherel_rel_error": max(r for _, r in residuals)}
    return rows, headline


def _task_check_symbol(task: Task):
    lams = task.cutoffs
    check = _CHECKERS[task.checker][1]
    rows = []
    per_key: dict = {}
    headline_by_lam = {}
    for lam in lams:
        dual = enumerate_dual(task.group, lam)
        rep = check(task.build_symbol(dual), task.param)
        headline_by_lam[lam] = rep.headline
        for key in sorted(rep.constants, key=str):
            value = rep.constants[key]
            per_key.setdefault(str(key), {})[lam] = value
            rows.append(
                {
                    "symbol": task.symbol_name,
                    "checker": task.checker,
                    "lam": lam,
                    "key": str(key),
                    "value": value,
                    "status": "ok" if value <= task.tol["headline_max"] else "fail",
                }
            )
    if len(lams) > 1:
        for key, by_lam in per_key.items():
            lo, hi = by_lam.get(lams[0], 0.0), by_lam.get(lams[-1], 0.0)
            growth = hi / lo if lo > 0 else (math.inf if hi > 0 else 0.0)
            rows.append(
                {
                    "symbol": task.symbol_name,
                    "checker": task.checker,
                    "lam": lams[-1],
                    "key": f"growth[{key}]",
                    "value": growth,
                    "status": "ok" if growth <= task.tol["max_growth"] else "fail",
                }
            )
    headline = {"headline": max(headline_by_lam.values())}
    return rows, headline


def _task_tl_norm(task: Task):
    [lam] = task.cutoffs
    dual = enumerate_dual(task.group, lam)
    rows = []
    for member in range(task.ensemble.count):
        rng = np.random.default_rng([task.seed, member])
        coeffs = ensemble_member(task.ensemble, member, dual, rng)
        for spec, (strong, weak) in zip(task.specs, tl_norms(coeffs, task.specs)):
            rows.append(
                {
                    "lam": lam,
                    "member": member,
                    "r": spec.r,
                    "p": spec.p,
                    "q": spec.q,
                    "norm": strong,
                    "weak_norm": "" if weak is None else weak,
                    "status": "ok",
                }
            )
    return rows, {"rows": float(len(rows))}


def _task_kernel_decay(task: Task):
    [lam] = task.cutoffs
    dual = enumerate_dual(task.group, lam)
    # a window psi_ell that is zero at every eigenvalue has no integral to fit
    nonzero = [ell for ell, _ in windows(dual)]
    if not set(task.windows) <= set(nonzero):
        raise ConfigurationError(f"windows must lie among the slice's nonzero windows {nonzero}")
    z = point_at_distance(task.group, task.z_distance)
    integrals = kernel_difference_integrals(task.build_symbol(dual), task.windows, z, task.c)
    rows = [
        {"symbol": task.symbol_name, "lam": lam, "window": ell, "value": value, "status": "ok"}
        for ell, value in zip(task.windows, integrals)
    ]
    slope = decay_slope(task.windows, integrals)
    rows.append(
        {
            "symbol": task.symbol_name,
            "lam": lam,
            "window": "slope",
            "value": slope,
            "status": "ok" if slope <= task.tol["slope_max"] else "fail",
        }
    )
    return rows, {"slope": slope}


def _task_bound_sweep(task: Task):
    sweeps = boundedness_sweep(task.group, task.build_symbol, task.specs, task.cutoffs, task.ensemble, task.seed)
    rows = []
    worst_spread = 0.0
    for sweep in sweeps:
        ratios = sweep.max_ratios
        spread = (max(ratios) - min(ratios)) / max(ratios) if max(ratios) > 0 else 0.0
        worst_spread = max(worst_spread, spread)
        increasing = all(a < b for a, b in zip(ratios, ratios[1:]))
        ok = spread <= task.tol["spread_max"] and (task.trend != "increasing" or increasing)
        for lam, ratio, arg in zip(sweep.cutoffs, ratios, sweep.argmax_members):
            rows.append(
                {
                    "symbol": task.symbol_name,
                    "r": sweep.spec.r,
                    "p": sweep.spec.p,
                    "q": sweep.spec.q,
                    "lam": lam,
                    "max_ratio": ratio,
                    "argmax_member": arg,
                    "seed": task.seed,
                    "status": "ok" if ok else "fail",
                }
            )
    return rows, {"max_spread": worst_spread}


def _schur_residual(group) -> float:
    cutoff = math.sqrt(5.0) + 1e-9 if group.kind == TORUS else spin_cutoff(1.5)
    dual = enumerate_dual(group, cutoff)
    grid = default_grid(dual)
    # one (points, d, d) table per irrep, cut from the per-run stacks
    tables = [t for stack in representation_stacks(dual, grid.points) for t in np.moveaxis(stack, 1, 0)]
    worst = 0.0
    for i, d in enumerate(dual.dims):
        for j in range(len(dual)):
            gram = np.einsum("p,pab,pcd->abcd", grid.weights, tables[i], np.conj(tables[j]))
            eye = np.eye(d)
            expect = np.einsum("ac,bd->abcd", eye, eye) / d if i == j else 0.0
            worst = max(worst, float(np.max(np.abs(gram - expect))))
    return worst


def _task_selftest(task: Task):
    [lam] = task.cutoffs
    dual = enumerate_dual(task.group, lam)
    residuals = _roundtrip_residuals(dual, task.seed, task.count)
    lam_samples = np.geomspace(1.0, 1e6, 400)
    partition = sum(psi(ell, lam_samples) for ell in range(22))
    recon = sum(window for _, window in windows(dual))
    # (check, residual, the key of its tolerance), in report order
    checks = [
        ("weights_sum", abs(float(default_grid(dual).weights.sum()) - 1.0), "weights_max"),
        ("schur", _schur_residual(task.group), "schur_max"),
        ("roundtrip", max(rt for rt, _ in residuals), "roundtrip_max"),
        ("plancherel", max(rel for _, rel in residuals), "plancherel_max"),
        ("partition_sum", float(np.max(np.abs(partition - 1.0))), "partition_max"),
        ("reconstruction", float(np.max(np.abs(recon - 1.0))), "reconstruction_max"),
    ]
    rows = [
        {
            "lam": lam,
            "check": name,
            "residual": value,
            "tolerance": task.tol[key],
            "status": "ok" if value <= task.tol[key] else "fail",
        }
        for name, value, key in checks
    ]
    return rows, {f"{name}_residual": value for name, value, _ in checks}


class _TaskKind(NamedTuple):
    """One row of the task table that ``_validate_config`` reads."""

    cutoffs: tuple[str, ...]  # its cutoff fields; a config gives exactly one
    required: set[str]  # the other fields it cannot run without
    defaults: dict  # its optional fields -> their defaults (None: the library's own)
    tolerances: dict  # its tolerances -> their defaults
    runner: Callable


_ONE_CUTOFF = ("lam", "ell_max")
_CUTOFF_LISTS = ("lams", "ell_maxes")
_COMMON_FIELDS = {"task", "group", "seed", "tolerances", "format"}
# the round-trip and Plancherel tolerances of transform and selftest
_ROUNDTRIP = {"roundtrip_max": 1e-10, "plancherel_max": 1e-10}
_TASKS = {
    "transform": _TaskKind(_ONE_CUTOFF, set(), {"count": 8}, _ROUNDTRIP, _task_transform),
    "check-symbol": _TaskKind(
        _ONE_CUTOFF + _CUTOFF_LISTS,
        {"symbol"},
        {"checker": "marcinkiewicz", "order": None, "s": None, "s0": 1},
        {"headline_max": math.inf, "max_growth": math.inf},
        _task_check_symbol,
    ),
    "tl-norm": _TaskKind(_ONE_CUTOFF, {"specs"}, {"ensemble": {"kind": "gaussian-coefficients", "count": 4}}, {}, _task_tl_norm),
    "kernel-decay": _TaskKind(
        _ONE_CUTOFF, {"symbol", "windows", "z_distance"}, {"c": 1.0}, {"slope_max": -0.2}, _task_kernel_decay
    ),
    "bound-sweep": _TaskKind(
        _CUTOFF_LISTS, {"symbol", "specs", "ensemble"}, {"trend": "none"}, {"spread_max": math.inf}, _task_bound_sweep
    ),
    "selftest": _TaskKind(
        _ONE_CUTOFF,
        set(),
        {"count": 4},
        {**_ROUNDTRIP, "weights_max": 1e-13, "schur_max": 1e-10, "partition_max": 1e-12, "reconstruction_max": 1e-11},
        _task_selftest,
    ),
}
# checker -> (the field of its one parameter, the check).  The lambdas look
# each check up when it runs, so a rebound module name (a tracer's wrapper,
# a test double) is the one called.
_CHECKERS = {
    "marcinkiewicz": ("order", lambda symbol, order: check_marcinkiewicz(symbol, order)),
    "hormander-mihlin": ("s", lambda symbol, s: check_hormander_mihlin(symbol, s)),
    "weak-marcinkiewicz": ("s0", lambda symbol, s0: check_weak_marcinkiewicz(symbol, s0)),
}


def run_config(cfg: dict, out_dir: str | Path) -> int:
    """Validate and execute one task; write the rows report and manifest.

    Returns the process exit code (0 ok, 1 config error, 2 failure).
    """
    try:
        task = _validate_config(cfg)
    except (ConfigurationError, KeyError, TypeError, ValueError, OverflowError) as exc:  # JSON ints are unbounded
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    digest = _digest(cfg)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    status = "ok"
    headline: dict = {}
    try:
        rows, headline = _TASKS[task.name].runner(task)
        if any(row["status"] == "fail" for row in rows):
            status = "fail"
    except (ConfigurationError, PreconditionError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # flush whatever we have, marked failed
        rows = [{"status": "failed", "error": f"{type(exc).__name__}: {exc}"}]
        status = "failed"
    shared = {"task": task.name, "digest": digest, "group": task.group.kind}
    rows = [{**shared, **row} for row in rows]
    elapsed = time.perf_counter() - started

    report_path = out_dir / f"{task.name}_report.{task.format}"
    emit_report(rows, report_path, task.format)
    manifest = {
        "task": task.name,
        "config": cfg,
        "seed": task.seed,
        "version": __version__,
        "digest": digest,
        "headline": {k: fmt(v) for k, v in headline.items()},
        "status": status,
    }
    with open(out_dir / "run_manifest.json", "w", newline="") as fh:
        fh.write(json.dumps(manifest, indent=1, sort_keys=True))
        fh.write("\n")
    print(f"{task.name}: {status} ({elapsed:.2f}s wall), report at {report_path}", file=sys.stderr)
    return 0 if status == "ok" else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="liefourier", description=__doc__)
    parser.add_argument("--config", required=True, help="path to the JSON task config")
    parser.add_argument("--seed", type=int, default=None, help="set the config's seed")
    parser.add_argument("--out", default=".", help="output directory (default: .)")
    parser.add_argument("--format", choices=_FORMATS, default=None, help="set the config's report format")
    parser.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE", help="set one of the config's tolerances")
    args = parser.parse_args(argv)
    try:
        cfg = json.loads(Path(args.config).read_text())
    except (OSError, ValueError) as exc:  # ValueError: bad JSON, bad UTF-8, an integer of too many digits
        print(f"configuration error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        overrides = {name: float(value) for name, value in (item.split("=", 1) for item in args.tol)}
    except ValueError:  # an item without '=' does not unpack either
        print(f"configuration error: bad --tol in {args.tol}", file=sys.stderr)
        return 1
    # the flags only edit the config; anything that is not an object is left for the validator to refuse
    if isinstance(cfg, dict):
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.format is not None:
            cfg["format"] = args.format
        if overrides and isinstance(cfg.setdefault("tolerances", {}), dict):
            cfg["tolerances"].update(overrides)
    return run_config(cfg, args.out)


if __name__ == "__main__":
    sys.exit(main())
