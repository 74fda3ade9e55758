"""Config-driven command line front end.

Usage:  liefourier --config cfg.json [--seed N] [--out DIR] [--tol NAME=VALUE]
                   [--format csv|json]

The config is a single JSON object selecting one task; see the README for
the schema.  Outputs are a rows report (CSV by default) plus a JSON run
manifest (config echo, seed, library version, headline numbers).  Identical
(config, seed) pairs produce byte-identical reports: floats are written with
17 significant digits, rows are emitted in a fixed order, and wall time is
logged to stderr only.

Exit codes: 0 success, 1 configuration error, 2 a declared tolerance was
violated (or the task aborted; partial rows are flushed with a ``failed``
marker row).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .dual import enumerate_dual, evaluate_irrep, spin_cutoff
from .errors import ConfigurationError, PreconditionError
from .groups import SU2, TORUS, make_group, su2_point_from_distance
from .multipliers import (
    EnsembleConfig,
    boundedness_sweep,
    decay_slope,
    ensemble_member,
    kernel_difference_integral,
    window_kernel,
)
from .spaces import NormSpec, psi, tl_norms, window_levels
from .symbols import check_hormander_mihlin, check_marcinkiewicz, check_weak_marcinkiewicz, symbol_from_config
from .transform import (
    default_grid,
    forward_transform,
    inverse_on_grid,
    plancherel_norm,
    random_coefficients,
)

TASKS = ("transform", "check-symbol", "tl-norm", "kernel-decay", "bound-sweep", "selftest")

_COMMON_FIELDS = {"task", "group", "seed", "tolerances", "out", "format"}
_TASK_FIELDS = {
    "transform": {"lam", "ell_max", "count"},
    "check-symbol": {"lam", "lams", "ell_max", "ell_maxes", "symbol", "checker", "order", "s", "s0"},
    "tl-norm": {"lam", "ell_max", "specs", "count", "ensemble"},
    "kernel-decay": {"lam", "ell_max", "symbol", "windows", "c", "z_distance"},
    "bound-sweep": {"lams", "ell_maxes", "symbol", "specs", "ensemble", "trend"},
    "selftest": {"lam", "ell_max", "count"},
}
# fields each task cannot run without, besides a cutoff
_TASK_REQUIRED = {
    "transform": set(),
    "check-symbol": {"symbol"},
    "tl-norm": {"specs"},
    "kernel-decay": {"symbol", "windows", "z_distance"},
    "bound-sweep": {"symbol", "specs", "ensemble"},
    "selftest": set(),
}
_CUTOFF_FIELDS = ("lam", "ell_max", "lams", "ell_maxes")
# fields that must hold finite numbers; the list-valued ones must be nonempty
_NUMERIC_FIELDS = _CUTOFF_FIELDS + ("windows", "c", "z_distance", "s")
_LIST_FIELDS = ("lams", "ell_maxes", "windows")
_TASK_TOLERANCES = {
    "transform": {"roundtrip_max": 1e-10, "plancherel_max": 1e-10},
    "check-symbol": {"headline_max": math.inf, "max_growth": math.inf},
    "tl-norm": {},
    "kernel-decay": {"slope_max": -0.2},
    "bound-sweep": {"spread_max": math.inf},
    "selftest": {
        "weights_max": 1e-13,
        "schur_max": 1e-10,
        "roundtrip_max": 1e-10,
        "plancherel_max": 1e-10,
        "partition_max": 1e-12,
        "reconstruction_max": 1e-11,
    },
}


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
    _format(fmt_kind)
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

def _validate_config(cfg: dict) -> dict:
    if not isinstance(cfg, dict):
        raise ConfigurationError("config must be a JSON object")
    task = cfg.get("task")
    if task not in TASKS:
        raise ConfigurationError(f"task must be one of {TASKS}, got {task!r}")
    allowed = _COMMON_FIELDS | _TASK_FIELDS[task]
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigurationError(f"unknown config fields for task {task}: {sorted(unknown)}")
    gcfg = cfg.get("group")
    if not isinstance(gcfg, dict) or "kind" not in gcfg:
        raise ConfigurationError("config needs a group object with a 'kind'")
    extra = set(gcfg) - {"kind", "dim"}
    if extra:
        raise ConfigurationError(f"unknown group fields: {sorted(extra)}")
    group = _group(cfg)  # raises on bad values
    tol = cfg.get("tolerances", {})
    if not isinstance(tol, dict):
        raise ConfigurationError("tolerances must be a JSON object")
    bad = set(tol) - set(_TASK_TOLERANCES[task])
    if bad:
        raise ConfigurationError(f"unknown tolerances for task {task}: {sorted(bad)}")
    for name, value in tol.items():
        if isinstance(value, bool) or math.isnan(float(value)):
            raise ConfigurationError(f"tolerance {name} must be a number, got {value!r}")
    missing = _TASK_REQUIRED[task] - set(cfg)
    if missing:
        raise ConfigurationError(f"task {task} needs the fields {sorted(missing)}")
    cutoff_fields = [name for name in _CUTOFF_FIELDS if name in _TASK_FIELDS[task]]
    if not any(name in cfg for name in cutoff_fields):
        raise ConfigurationError(f"task {task} needs one of the cutoff fields {cutoff_fields}")
    for name in _NUMERIC_FIELDS:
        if name in cfg:
            values = cfg[name] if name in _LIST_FIELDS else [cfg[name]]
            if not isinstance(values, list) or not values:
                raise ConfigurationError(f"{name} must be a nonempty list")
            for value in values:
                _finite(name, value)
                if name in ("ell_max", "ell_maxes") and float(value) < 0:
                    raise ConfigurationError(f"{name} must hold spins >= 0, got {value!r}")
    cutoffs = _cutoffs(cfg, group)
    _integer("seed", cfg.get("seed", 0))
    for name, low, high in (("count", 1, None), ("order", 0, None), ("s0", 0, group.dim)):
        if name in cfg:
            _integer(name, cfg[name], low, high)
    if "windows" in cfg:
        for level in cfg["windows"]:
            _integer("each window", level, 0)
        if len(set(cfg["windows"])) < 2:
            raise ConfigurationError("windows must hold at least two distinct levels to fit a slope")
        levels = window_levels(cutoffs[0])
        if not set(cfg["windows"]) <= set(levels):
            raise ConfigurationError(f"windows must lie among the slice's nonzero windows {levels}")
    if float(cfg.get("c", 1.0)) <= 0.0:
        raise ConfigurationError(f"c must be positive, got {cfg['c']!r}")
    # a torus translation by z_distance / (2 pi) wraps above pi
    if "z_distance" in cfg and not 0.0 < float(cfg["z_distance"]) <= math.pi:
        raise ConfigurationError(f"z_distance must lie in (0, pi], got {cfg['z_distance']!r}")
    if "symbol" in cfg:
        symbol_from_config(cfg["symbol"], group)
    if "specs" in cfg:
        _specs(cfg)
    _format(cfg.get("format", "csv"))
    if cfg.get("trend", "none") not in ("none", "increasing"):
        raise ConfigurationError("trend must be 'none' or 'increasing'")
    checkers = ("marcinkiewicz", "hormander-mihlin", "weak-marcinkiewicz")
    checker = cfg.get("checker", "marcinkiewicz")
    if checker not in checkers:
        raise ConfigurationError(f"checker must be one of {checkers}, got {checker!r}")
    if checker == "hormander-mihlin" and "s" in cfg and float(cfg["s"]) <= group.dim / 2.0:
        raise ConfigurationError(f"s must exceed n/2 = {group.dim / 2.0:g}, got {cfg['s']!r}")
    if task in ("tl-norm", "bound-sweep"):
        kind = _ensemble(cfg).kind
        # a tl-norm task has no symbol to build these members from
        if task == "tl-norm" and kind in ("adjoint-dirichlet", "directed-irrep"):
            raise ConfigurationError(f"a tl-norm ensemble cannot be {kind!r}: it needs a symbol")
    return cfg


def _format(fmt_kind) -> str:
    if fmt_kind not in ("csv", "json"):
        raise ConfigurationError(f"format must be 'csv' or 'json', got {fmt_kind!r}")
    return fmt_kind


def _finite(name: str, value):
    if isinstance(value, bool) or not math.isfinite(float(value)):
        raise ConfigurationError(f"{name} must hold finite numbers, got {value!r}")


def _integer(name: str, value, low: int | None = None, high: int | None = None) -> int:
    """``value`` if it is an integer (not a bool) in [low, high]."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if (low is not None and value < low) or (high is not None and value > high):
        raise ConfigurationError(f"{name} must lie in [{low}, {'inf' if high is None else high}], got {value}")
    return value


def _tolerances(cfg: dict) -> dict:
    out = dict(_TASK_TOLERANCES[cfg["task"]])
    out.update(cfg.get("tolerances", {}))
    return {k: float(v) for k, v in out.items()}


def _group(cfg):
    gcfg = cfg["group"]
    if gcfg["kind"] == SU2 and gcfg.get("dim", 3) != 3:
        raise ConfigurationError(f"su2 has dim 3, got {gcfg['dim']!r}")
    return make_group(gcfg["kind"], _integer("group dim", gcfg.get("dim", 1)))


def _specs(cfg) -> list[NormSpec]:
    items = cfg["specs"]
    if not isinstance(items, list) or not items:
        raise ConfigurationError("specs must be a nonempty list")
    for item in items:
        if not isinstance(item, dict) or not {"r", "p", "q"} <= set(item):
            raise ConfigurationError(f"each spec must be an object with r, p and q, got {item!r}")
    return [NormSpec(float(item["r"]), float(item["p"]), float(item["q"])) for item in items]


def _ensemble(cfg) -> EnsembleConfig:
    """The probe ensemble; tl-norm defaults to ``count`` Gaussian members."""
    count = cfg.get("count", 4)
    ens_cfg = cfg.get("ensemble", {"kind": "gaussian-coefficients", "count": count})
    if not isinstance(ens_cfg, dict) or "kind" not in ens_cfg:
        raise ConfigurationError("ensemble must be a JSON object with a 'kind'")
    if cfg["task"] == "bound-sweep" and "count" not in ens_cfg:
        raise ConfigurationError("a bound-sweep ensemble needs a 'count'")
    return EnsembleConfig(ens_cfg["kind"], _integer("ensemble count", ens_cfg.get("count", count), 1))


def _digest(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _cutoffs(cfg, group) -> list[float]:
    """The task's cutoffs: ``lams`` or ``lam``, or the exact spin cutoffs of
    ``ell_maxes`` or ``ell_max`` (su2 only)."""
    for name in ("lams", "ell_maxes", "lam", "ell_max"):
        if name in cfg:
            values = cfg[name] if name in _LIST_FIELDS else [cfg[name]]
            if not name.startswith("ell"):
                return [float(v) for v in values]
            if group.kind != SU2:
                raise ConfigurationError(f"{name} applies to su2 only")
            return [spin_cutoff(float(v)) for v in values]
    raise ConfigurationError("config needs 'lam' (or 'ell_max' on su2)")


def _symbol_name(cfg) -> str:
    scfg = cfg["symbol"]
    parts = [str(scfg.get("type"))]
    for key in ("t", "ell", "seed"):
        if key in scfg:
            parts.append(f"{key}={scfg[key]}")
    return ",".join(parts)


# ---------------------------------------------------------------------------
# Tasks
# ---------------------------------------------------------------------------

def _roundtrip_residuals(dual, grid, seed: int, count: int) -> list[tuple[float, float]]:
    """(round-trip max block error, Plancherel relative error) for each of
    ``count`` seeded random members: coefficients -> grid samples -> back."""
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


def _task_transform(cfg, seed, tol):
    group = _group(cfg)
    [lam] = _cutoffs(cfg, group)
    count = cfg.get("count", 8)
    dual = enumerate_dual(group, lam)
    grid = default_grid(dual)
    rows = []
    residuals = _roundtrip_residuals(dual, grid, seed, count)
    for member, (rt, rel) in enumerate(residuals):
        ok = rt <= tol["roundtrip_max"] and rel <= tol["plancherel_max"]
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


def _task_check_symbol(cfg, seed, tol):
    group = _group(cfg)
    lams = _cutoffs(cfg, group)
    checker = cfg.get("checker", "marcinkiewicz")
    rows = []
    per_key: dict = {}
    headline_by_lam = {}
    build_symbol = symbol_from_config(cfg["symbol"], group)
    for lam in lams:
        dual = enumerate_dual(group, lam)
        symbol = build_symbol(dual)
        if checker == "marcinkiewicz":
            rep = check_marcinkiewicz(symbol, cfg.get("order"))
        elif checker == "hormander-mihlin":
            rep = check_hormander_mihlin(symbol, float(cfg["s"]) if "s" in cfg else None)
        else:
            rep = check_weak_marcinkiewicz(symbol, cfg.get("s0", 1))
        headline_by_lam[lam] = rep.headline
        for key in sorted(rep.constants, key=str):
            value = rep.constants[key]
            per_key.setdefault(str(key), {})[lam] = value
            rows.append(
                {
                    "symbol": _symbol_name(cfg),
                    "checker": checker,
                    "lam": lam,
                    "key": str(key),
                    "value": value,
                    "status": "ok" if value <= tol["headline_max"] else "fail",
                }
            )
    if len(lams) > 1:
        for key, by_lam in per_key.items():
            lo, hi = by_lam.get(lams[0], 0.0), by_lam.get(lams[-1], 0.0)
            growth = hi / lo if lo > 0 else (math.inf if hi > 0 else 0.0)
            rows.append(
                {
                    "symbol": _symbol_name(cfg),
                    "checker": checker,
                    "lam": lams[-1],
                    "key": f"growth[{key}]",
                    "value": growth,
                    "status": "ok" if growth <= tol["max_growth"] else "fail",
                }
            )
    headline = {"headline": max(headline_by_lam.values())}
    return rows, headline


def _task_tl_norm(cfg, seed, tol):
    group = _group(cfg)
    [lam] = _cutoffs(cfg, group)
    specs = _specs(cfg)
    ensemble = _ensemble(cfg)
    dual = enumerate_dual(group, lam)
    rows = []
    for member in range(ensemble.count):
        rng = np.random.default_rng([seed, member])
        coeffs = ensemble_member(ensemble, member, dual, rng)
        for spec, (strong, weak) in zip(specs, tl_norms(coeffs, specs)):
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


def _task_kernel_decay(cfg, seed, tol):
    group = _group(cfg)
    [lam] = _cutoffs(cfg, group)
    windows = cfg["windows"]
    c = float(cfg.get("c", 1.0))
    z_distance = float(cfg["z_distance"])
    dual = enumerate_dual(group, lam)
    grid = default_grid(dual)
    symbol = symbol_from_config(cfg["symbol"], group)(dual)
    if group.kind == TORUS:
        z = np.zeros(group.dim)
        z[0] = z_distance / (2.0 * np.pi)
    else:
        z = su2_point_from_distance(z_distance)
    rows = []
    integrals = []
    for ell in windows:
        kernel = window_kernel(symbol, ell)
        value = kernel_difference_integral(kernel, z, c, grid)
        integrals.append(value)
        rows.append(
            {
                "symbol": _symbol_name(cfg),
                "lam": lam,
                "window": ell,
                "value": value,
                "status": "ok",
            }
        )
    slope = decay_slope(windows, integrals)
    rows.append(
        {
            "symbol": _symbol_name(cfg),
            "lam": lam,
            "window": "slope",
            "value": slope,
            "status": "ok" if slope <= tol["slope_max"] else "fail",
        }
    )
    return rows, {"slope": slope}


def _task_bound_sweep(cfg, seed, tol):
    group = _group(cfg)
    lams = _cutoffs(cfg, group)
    specs = _specs(cfg)
    ensemble = _ensemble(cfg)
    builder = symbol_from_config(cfg["symbol"], group)
    sweeps = boundedness_sweep(group, builder, specs, lams, ensemble, seed, _symbol_name(cfg))
    trend = cfg.get("trend", "none")
    rows = []
    worst_spread = 0.0
    for sweep in sweeps:
        ratios = sweep.max_ratios
        spread = (max(ratios) - min(ratios)) / max(ratios) if max(ratios) > 0 else 0.0
        worst_spread = max(worst_spread, spread)
        increasing = all(a < b for a, b in zip(ratios, ratios[1:]))
        ok = spread <= tol["spread_max"] and (trend != "increasing" or increasing)
        for lam, ratio, arg in zip(sweep.cutoffs, ratios, sweep.argmax_members):
            rows.append(
                {
                    "symbol": sweep.symbol_id,
                    "r": sweep.spec.r,
                    "p": sweep.spec.p,
                    "q": sweep.spec.q,
                    "lam": lam,
                    "max_ratio": ratio,
                    "argmax_member": arg,
                    "seed": seed,
                    "status": "ok" if ok else "fail",
                }
            )
    return rows, {"max_spread": worst_spread}


def _schur_residual(group) -> float:
    cutoff = math.sqrt(5.0) + 1e-9 if group.kind == TORUS else spin_cutoff(1.5)
    dual = enumerate_dual(group, cutoff)
    grid = default_grid(dual)
    points = grid.points
    tables = [evaluate_irrep(group, ir, points) for ir in dual.irreps]
    worst = 0.0
    for i, ir1 in enumerate(dual.irreps):
        for j in range(len(dual)):
            gram = np.einsum("p,pab,pcd->abcd", grid.weights, tables[i], np.conj(tables[j]))
            eye = np.eye(ir1.dim)
            expect = np.einsum("ac,bd->abcd", eye, eye) / ir1.dim if i == j else 0.0
            worst = max(worst, float(np.max(np.abs(gram - expect))))
    return worst


def _task_selftest(cfg, seed, tol):
    group = _group(cfg)
    [lam] = _cutoffs(cfg, group)
    count = cfg.get("count", 4)
    dual = enumerate_dual(group, lam)
    grid = default_grid(dual)

    checks = {}
    checks["weights_sum"] = abs(float(grid.weights.sum()) - 1.0)
    checks["schur"] = _schur_residual(group)

    residuals = _roundtrip_residuals(dual, grid, seed, count)
    checks["roundtrip"] = max(rt for rt, _ in residuals)
    checks["plancherel"] = max(rel for _, rel in residuals)

    lam_samples = np.geomspace(1.0, 1e6, 400)
    total = np.zeros_like(lam_samples)
    for ell in range(22):
        total += psi(ell, lam_samples)
    checks["partition_sum"] = float(np.max(np.abs(total - 1.0)))

    recon = np.zeros(len(dual))
    for ell in window_levels(dual.cutoff):
        recon += psi(ell, dual.eigenvalues)
    checks["reconstruction"] = float(np.max(np.abs(recon - 1.0)))

    limits = {
        "weights_sum": tol["weights_max"],
        "schur": tol["schur_max"],
        "roundtrip": tol["roundtrip_max"],
        "plancherel": tol["plancherel_max"],
        "partition_sum": tol["partition_max"],
        "reconstruction": tol["reconstruction_max"],
    }
    rows = []
    for name, value in checks.items():
        rows.append(
            {
                "lam": lam,
                "check": name,
                "residual": value,
                "tolerance": limits[name],
                "status": "ok" if value <= limits[name] else "fail",
            }
        )
    headline = {f"{k}_residual": v for k, v in checks.items()}
    return rows, headline


_RUNNERS = {
    "transform": _task_transform,
    "check-symbol": _task_check_symbol,
    "tl-norm": _task_tl_norm,
    "kernel-decay": _task_kernel_decay,
    "bound-sweep": _task_bound_sweep,
    "selftest": _task_selftest,
}


def run_config(cfg: dict, out_dir: str | Path, fmt_kind: str | None = None) -> int:
    """Validate and execute one task; write the rows report and manifest.

    Returns the process exit code (0 ok, 1 config error, 2 failure).
    """
    try:
        cfg = _validate_config(cfg)
        fmt_kind = _format(fmt_kind or cfg.get("format", "csv"))
    except (ConfigurationError, KeyError, TypeError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    task = cfg["task"]
    seed = int(cfg.get("seed", 0))
    tol = _tolerances(cfg)
    digest = _digest(cfg)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    status = "ok"
    headline: dict = {}
    try:
        rows, headline = _RUNNERS[task](cfg, seed, tol)
        if any(row["status"] == "fail" for row in rows):
            status = "fail"
    except (ConfigurationError, PreconditionError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # flush whatever we have, marked failed
        rows = [{"status": "failed", "error": f"{type(exc).__name__}: {exc}"}]
        status = "failed"
    shared = {"task": task, "digest": digest, "group": cfg["group"]["kind"]}
    rows = [{**shared, **row} for row in rows]
    elapsed = time.perf_counter() - started

    report_path = out_dir / f"{task}_report.{fmt_kind}"
    emit_report(rows, report_path, fmt_kind)
    manifest = {
        "task": task,
        "config": cfg,
        "seed": seed,
        "version": __version__,
        "digest": digest,
        "headline": {k: fmt(v) for k, v in headline.items()},
        "status": status,
    }
    with open(out_dir / "run_manifest.json", "w", newline="") as fh:
        fh.write(json.dumps(manifest, indent=1, sort_keys=True))
        fh.write("\n")
    print(f"{task}: {status} ({elapsed:.2f}s wall), report at {report_path}", file=sys.stderr)
    return 0 if status == "ok" else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="liefourier", description=__doc__)
    parser.add_argument("--config", required=True, help="path to the JSON task config")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="output directory (default: config 'out' or '.')")
    parser.add_argument("--format", choices=("csv", "json"), default=None, help="rows report format")
    parser.add_argument(
        "--tol",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="override a named tolerance (repeatable)",
    )
    args = parser.parse_args(argv)
    try:
        cfg = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"configuration error: cannot read config: {exc}", file=sys.stderr)
        return 1
    if not isinstance(cfg, dict):
        print("configuration error: config must be a JSON object", file=sys.stderr)
        return 1
    if args.seed is not None:
        cfg["seed"] = args.seed
    overrides = {}
    for item in args.tol:
        if "=" not in item:
            print(f"configuration error: bad --tol {item!r}", file=sys.stderr)
            return 1
        name, value = item.split("=", 1)
        try:
            overrides[name] = float(value)
        except ValueError:
            print(f"configuration error: bad --tol value {value!r}", file=sys.stderr)
            return 1
    if overrides:
        cfg.setdefault("tolerances", {}).update(overrides)
    out_dir = args.out or cfg.get("out", ".")
    return run_config(cfg, out_dir, args.format)


if __name__ == "__main__":
    sys.exit(main())
