import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from liefourier.cli import emit_report, fmt, main, run_config
from liefourier.errors import ConfigurationError, PreconditionError


def _write(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def _selftest_cfg(**over):
    cfg = {"task": "selftest", "group": {"kind": "torus", "dim": 1}, "lam": 32.0, "seed": 7}
    cfg.update(over)
    return cfg


def test_selftest_ok(tmp_path):
    out = tmp_path / "out"
    assert run_config(_selftest_cfg(), out) == 0
    report = (out / "selftest_report.csv").read_text()
    assert "plancherel" in report and ",ok" in report and "fail" not in report
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert float(manifest["headline"]["plancherel_residual"]) <= 1e-10
    assert manifest["version"]


_KERNEL_DECAY = {
    "task": "kernel-decay",
    "group": {"kind": "torus", "dim": 1},
    "lam": 16.0,
    "symbol": {"type": "power_it", "t": 1.0},
    "windows": [1, 2],
    "z_distance": 0.3,
    "seed": 0,
}


_CHECK_WAVE = {
    "task": "check-symbol",
    "group": {"kind": "torus", "dim": 1},
    "lams": [8.0, 16.0],
    "symbol": {"type": "wave"},
    "checker": "marcinkiewicz",
}


_GAUSSIAN_SWEEP = {
    "task": "bound-sweep",
    "group": {"kind": "torus", "dim": 1},
    "lams": [8.0, 16.0],
    "symbol": {"type": "wave"},
    "specs": [{"r": 0, "p": 2, "q": 2}],
    "ensemble": {"kind": "gaussian-coefficients", "count": 2},
}
_TL_NORM = {
    "task": "tl-norm",
    "group": {"kind": "torus", "dim": 1},
    "lam": 16.0,
    "specs": [{"r": 0, "p": 2, "q": 2}],
}
_GAUSSIAN = {"kind": "gaussian-coefficients"}
_TRANSFORM = {"task": "transform", "group": {"kind": "torus", "dim": 1}, "lam": 8.0}
_SU2_TRANSFORM = {"task": "transform", "group": {"kind": "su2"}, "ell_max": 1.5, "count": 1}
_SU2_SWEEP = {**_GAUSSIAN_SWEEP, "group": {"kind": "su2"}}
_CHECK_HM = {**_CHECK_WAVE, "checker": "hormander-mihlin"}


def _without(cfg, key):
    return {k: v for k, v in cfg.items() if k != key}


@pytest.mark.parametrize(
    "cfg",
    [
        pytest.param(_without(_KERNEL_DECAY, "symbol"), id="no-symbol"),
        pytest.param(_without(_KERNEL_DECAY, "windows"), id="no-windows"),
        pytest.param({**_KERNEL_DECAY, "lam": "NaN"}, id="nan-lam"),
        pytest.param({**_KERNEL_DECAY, "lam": "inf"}, id="inf-lam"),
        pytest.param({**_KERNEL_DECAY, "lam": [16.0]}, id="list-lam"),
        pytest.param({**_KERNEL_DECAY, "seed": True}, id="bool-seed"),
        pytest.param({**_KERNEL_DECAY, "c": "NaN"}, id="nan-c"),
        pytest.param({**_KERNEL_DECAY, "z_distance": "inf"}, id="inf-z-distance"),
        pytest.param({**_KERNEL_DECAY, "windows": []}, id="empty-windows"),
        pytest.param({**_CHECK_WAVE, "lams": [8.0, float("nan")]}, id="nan-in-lams"),
        pytest.param({**_CHECK_WAVE, "lams": []}, id="empty-lams"),
        pytest.param({**_CHECK_WAVE, "lams": 8.0}, id="scalar-lams"),
        pytest.param(_without(_CHECK_WAVE, "lams"), id="no-cutoff"),
        pytest.param({**_TRANSFORM, "count": 0}, id="transform-count-0"),
        pytest.param({**_TRANSFORM, "count": -1}, id="transform-count-negative"),
        pytest.param(_selftest_cfg(count=0), id="selftest-count-0"),
        pytest.param({**_CHECK_WAVE, "checker": "weak-marcinkiewicz", "s0": 1.5}, id="fractional-s0"),
        pytest.param({**_CHECK_WAVE, "order": 1.5}, id="fractional-order"),
        pytest.param({**_CHECK_WAVE, "order": -1}, id="negative-order"),
        pytest.param({**_CHECK_HM, "s": None}, id="null-s"),
        pytest.param({**_KERNEL_DECAY, "windows": [1.5, 2]}, id="fractional-window"),
        pytest.param({**_KERNEL_DECAY, "windows": [2]}, id="one-window"),
        pytest.param({**_KERNEL_DECAY, "windows": [2, 2]}, id="one-distinct-window"),
        pytest.param({**_KERNEL_DECAY, "group": {"kind": "torus", "dim": 1.5}}, id="fractional-dim"),
        pytest.param({**_GAUSSIAN_SWEEP, "ensemble": {**_GAUSSIAN, "count": 1.5}}, id="fractional-ensemble-count"),
        pytest.param({**_GAUSSIAN_SWEEP, "ensemble": {**_GAUSSIAN, "count": True}}, id="bool-ensemble-count"),
        pytest.param({**_TRANSFORM, "lam": 10**400}, id="lam-beyond-float"),
        pytest.param({**_SU2_TRANSFORM, "ell_max": -2}, id="negative-ell-max"),
        pytest.param({**_SU2_TRANSFORM, "ell_max": -0.5}, id="negative-half-ell-max"),
        pytest.param({**_without(_SU2_SWEEP, "lams"), "ell_maxes": [-2, 1.5]}, id="negative-in-ell-maxes"),
    ],
)
def test_bad_config_exits_1(tmp_path, cfg):
    out = tmp_path / "out"
    assert run_config(cfg, out) == 1
    assert not any(out.glob("*_report.*"))


def test_spin_above_validated_range_refused_before_any_grid(tmp_path, monkeypatch):
    import liefourier.cli as cli

    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was requested")

    # an exit 1 proves that no grid was requested: the assertion would be a
    # task failure, exit 2
    monkeypatch.setattr(cli, "default_grid", no_grid)
    cfg = {"task": "transform", "group": {"kind": "su2"}, "ell_max": 64.5, "count": 1}
    assert run_config(cfg, tmp_path / "out") == 1
    assert not (tmp_path / "out" / "transform_report.csv").exists()




@pytest.mark.parametrize(
    "cfg,stage",
    [
        pytest.param({**_CHECK_WAVE, "checker": "mihlin"}, "enumerate_dual", id="unknown-checker"),
        pytest.param({**_GAUSSIAN_SWEEP, "trend": "decreasing"}, "boundedness_sweep", id="unknown-trend"),
        pytest.param(
            {**_TL_NORM, "ensemble": {"kind": "directed-irrep", "count": 1}},
            "enumerate_dual",
            id="tl-norm-directed-irrep",
        ),
        pytest.param(
            {**_TL_NORM, "ensemble": {"kind": "adjoint-dirichlet", "count": 1}},
            "enumerate_dual",
            id="tl-norm-adjoint-dirichlet",
        ),
        pytest.param({**_TL_NORM, "ensemble": ["gaussian-coefficients"]}, "enumerate_dual", id="ensemble-not-object"),
        pytest.param({**_CHECK_HM, "s": "NaN"}, "enumerate_dual", id="nan-s"),
        pytest.param({**_CHECK_HM, "s": "inf"}, "enumerate_dual", id="inf-s"),
        pytest.param({**_CHECK_HM, "s": "a"}, "enumerate_dual", id="text-s"),
        pytest.param({**_TL_NORM, "specs": [{"r": "NaN", "p": 2, "q": 2}]}, "enumerate_dual", id="nan-r"),
        pytest.param({**_TL_NORM, "specs": [{"r": 0, "p": 2}]}, "enumerate_dual", id="spec-without-q"),
        pytest.param({**_TL_NORM, "specs": {"r": 0, "p": 2, "q": 2}}, "enumerate_dual", id="specs-not-list"),
        pytest.param({**_TL_NORM, "ensemble": {"count": 2}}, "enumerate_dual", id="ensemble-without-kind"),
        pytest.param({**_CHECK_WAVE, "symbol": "wave"}, "enumerate_dual", id="symbol-not-object"),
        pytest.param({**_CHECK_WAVE, "symbol": {"type": "power_it", "t": "NaN"}}, "enumerate_dual", id="nan-t"),
        pytest.param({**_CHECK_WAVE, "symbol": {"type": "window", "ell": 1.5}}, "enumerate_dual", id="fractional-ell"),
        pytest.param({**_CHECK_WAVE, "symbol": {"type": "power_it", "t": math.nan}}, "enumerate_dual", id="float-nan-t"),
        pytest.param(
            {**_CHECK_WAVE, "symbol": {"type": "dyadic_rademacher", "seed": -1}}, "enumerate_dual", id="negative-symbol-seed"
        ),
        pytest.param(
            {**_CHECK_WAVE, "symbol": {"type": "dyadic_rademacher", "seed": True}}, "enumerate_dual", id="bool-symbol-seed"
        ),
        pytest.param({**_GAUSSIAN_SWEEP, "ensemble": _GAUSSIAN}, "boundedness_sweep", id="sweep-without-count"),
        pytest.param({**_TRANSFORM, "tolerances": {"roundtrip_max": math.nan}}, "default_grid", id="nan-tolerance"),
        pytest.param({**_KERNEL_DECAY, "windows": [1, 2, 9]}, "kernel_difference_integrals", id="window-outside-slice"),
        # psi_4 is zero at every eigenvalue up to spin 7.5, psi_6 at every one up to <xi> = 32
        pytest.param(
            {**_without(_KERNEL_DECAY, "lam"), "group": {"kind": "su2"}, "ell_max": 7.5, "windows": [2, 3, 4]},
            "kernel_difference_integrals",
            id="window-zero-on-su2-slice",
        ),
        pytest.param(
            {**_KERNEL_DECAY, "lam": 32.0, "windows": [5, 6]}, "kernel_difference_integrals", id="window-zero-on-torus-slice"
        ),
        pytest.param({**_TRANSFORM, "format": "xml"}, "enumerate_dual", id="unknown-format"),
        pytest.param({**_TRANSFORM, "seed": -1}, "enumerate_dual", id="negative-seed"),
        pytest.param({**_CHECK_WAVE, "symbol": {"type": "window"}}, "enumerate_dual", id="window-without-ell"),
        pytest.param({**_CHECK_WAVE, "symbol": {"type": "nope"}}, "enumerate_dual", id="unknown-symbol-type"),
        pytest.param({**_CHECK_WAVE, "symbol": {"type": "wave", "t": 3}}, "enumerate_dual", id="wave-with-t"),
        pytest.param(
            {**_CHECK_WAVE, "group": {"kind": "su2"}, "symbol": {"type": "sign"}}, "enumerate_dual", id="sign-on-su2"
        ),
        pytest.param({**_SU2_SWEEP, "symbol": {"type": "sign"}}, "boundedness_sweep", id="sign-on-su2-sweep"),
        pytest.param({**_CHECK_HM, "s": 0.5}, "enumerate_dual", id="hm-s-at-half-dim"),
        pytest.param(
            {**_CHECK_HM, "group": {"kind": "su2"}, "lams": [4.0], "s": 1.5}, "enumerate_dual", id="hm-s-at-half-dim-su2"
        ),
        pytest.param({**_KERNEL_DECAY, "c": 0}, "enumerate_dual", id="zero-c"),
        pytest.param({**_KERNEL_DECAY, "c": -1.0}, "enumerate_dual", id="negative-c"),
        pytest.param({**_KERNEL_DECAY, "z_distance": 7.0}, "enumerate_dual", id="z-distance-wraps"),
        pytest.param({**_KERNEL_DECAY, "z_distance": 5.0}, "enumerate_dual", id="z-distance-above-pi"),
        pytest.param({**_KERNEL_DECAY, "z_distance": -0.3}, "enumerate_dual", id="negative-z-distance"),
        pytest.param({**_KERNEL_DECAY, "z_distance": 0}, "enumerate_dual", id="zero-z-distance"),
        pytest.param(
            {**_KERNEL_DECAY, "group": {"kind": "su2"}, "z_distance": 5.0}, "enumerate_dual", id="z-distance-above-pi-su2"
        ),
        pytest.param({**_SU2_TRANSFORM, "group": {"kind": "su2", "dim": 2}}, "enumerate_dual", id="su2-dim-2"),
        pytest.param({**_without(_TRANSFORM, "lam"), "ell_max": 4.5}, "enumerate_dual", id="ell-max-on-torus"),
        pytest.param({**_without(_CHECK_WAVE, "lams"), "ell_maxes": [1.5, 2.5]}, "enumerate_dual", id="ell-maxes-on-torus"),
        # json.loads reads the literal Infinity as a float
        pytest.param({**_TRANSFORM, "lam": math.inf}, "enumerate_dual", id="infinite-lam"),
        pytest.param({**_KERNEL_DECAY, "windows": 3}, "enumerate_dual", id="windows-not-a-list"),
        # numbers written as strings
        pytest.param({**_TRANSFORM, "lam": "8"}, "enumerate_dual", id="string-lam"),
        pytest.param({**_TL_NORM, "specs": [{"r": "0", "p": 2, "q": 2}]}, "enumerate_dual", id="string-r"),
        pytest.param({**_TRANSFORM, "tolerances": {"roundtrip_max": "1e-3"}}, "enumerate_dual", id="string-tolerance"),
        pytest.param({**_CHECK_WAVE, "symbol": {"type": "power_it", "t": "1"}}, "enumerate_dual", id="string-t"),
        # descending cutoffs would invert the growth ratio
        pytest.param({**_CHECK_WAVE, "lams": [16.0, 8.0]}, "enumerate_dual", id="descending-lams"),
        pytest.param(
            {**_without(_CHECK_WAVE, "lams"), "group": {"kind": "su2"}, "ell_maxes": [2.5, 1.5]},
            "enumerate_dual",
            id="descending-ell-maxes",
        ),
        pytest.param({**_GAUSSIAN_SWEEP, "lams": [16.0, 8.0]}, "boundedness_sweep", id="descending-sweep-lams"),
        # fields the task would ignore
        pytest.param({**_CHECK_WAVE, "s": 0.5}, "enumerate_dual", id="s-with-marcinkiewicz"),
        pytest.param({**_CHECK_WAVE, "s0": 1}, "enumerate_dual", id="s0-with-marcinkiewicz"),
        pytest.param({**_CHECK_HM, "order": 5}, "enumerate_dual", id="order-with-hormander-mihlin"),
        pytest.param({**_CHECK_WAVE, "lam": 8.0}, "enumerate_dual", id="lam-next-to-lams"),
        pytest.param({**_TL_NORM, "specs": [{"r": 0, "p": 2, "q": 2, "s": 1}]}, "enumerate_dual", id="spec-extra-field"),
        pytest.param(
            {**_TL_NORM, "ensemble": {**_GAUSSIAN, "count": 1, "seed": 3}}, "enumerate_dual", id="ensemble-extra-field"
        ),
        pytest.param(
            {**_TL_NORM, "count": 2, "ensemble": {**_GAUSSIAN, "count": 3}}, "enumerate_dual", id="count-twice"
        ),
        # tl-norm takes its member count only as the ensemble's count
        pytest.param({**_TL_NORM, "count": 2}, "enumerate_dual", id="tl-norm-top-level-count"),
        pytest.param({**_TL_NORM, "ensemble": _GAUSSIAN}, "enumerate_dual", id="tl-norm-ensemble-without-count"),
        # the output directory is --out, not a config field
        pytest.param({**_TRANSFORM, "out": "elsewhere"}, "enumerate_dual", id="out-field"),
    ],
)
def test_bad_config_refused_before_any_work(tmp_path, monkeypatch, cfg, stage):
    import liefourier.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError(f"{stage} was called")

    # an exit 1 proves that the refusal came first: the assertion would be a
    # task failure, exit 2
    monkeypatch.setattr(cli, stage, no_work)
    out = tmp_path / "out"
    assert run_config(cfg, out) == 1
    assert not any(out.glob("*_report.*"))


_CONFIG_DIR = Path(__file__).resolve().parents[1] / "scripts" / "configs"
# every shipped config and one tl-norm config, each a valid start for one edit
_FUZZ_BASES = [json.loads(path.read_text()) for path in sorted(_CONFIG_DIR.glob("*.json"))] + [_TL_NORM]
# the field names of each place a field can be edited; "out" and a top-level
# "count" are there because a config must not be able to use them
_FUZZ_FIELDS = {
    None: (
        "task", "group", "seed", "tolerances", "out", "format", "lam", "lams", "ell_max", "ell_maxes", "count",
        "symbol", "specs", "ensemble", "checker", "order", "s", "s0", "windows", "c", "z_distance", "trend",
    ),
    "group": ("kind", "dim"),
    "symbol": ("type", "t", "ell", "seed"),
    "ensemble": ("kind", "count", "seed"),
    "specs": ("r", "p", "q", "s"),
    "tolerances": ("roundtrip_max", "plancherel_max", "spread_max", "slope_max", "max_growth", "headline_max"),
}
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(-1e308, 1e308) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _edited_config(draw):
    """A shipped config with one field replaced or added, at the top level
    (drawn half the time) or inside one of its objects."""
    cfg = json.loads(json.dumps(draw(st.sampled_from(_FUZZ_BASES))))
    where = draw(st.none() | st.sampled_from([place for place in _FUZZ_FIELDS if place is not None]))
    key = draw(st.sampled_from(_FUZZ_FIELDS[where]) | st.text(max_size=6))
    target = cfg if where is None else cfg.setdefault(where, {})
    if isinstance(target, list):  # specs: edit the first spec
        target = target[0]
    target[key] = draw(_JSON_VALUES)
    return cfg


_FLAGS = st.tuples(
    st.none() | (st.integers() | st.text(max_size=6)).map(lambda seed: f"--seed={seed}"),
    st.none() | (st.sampled_from(["csv", "json"]) | st.text(max_size=6)).map(lambda fmt: f"--format={fmt}"),
    st.lists(
        st.tuples(st.sampled_from(_FUZZ_FIELDS["tolerances"]) | st.text(max_size=6), st.floats() | st.text(max_size=6)),
        max_size=2,
    ).map(lambda items: [f"--tol={name}={value}" for name, value in items]),
)


@given(cfg=_edited_config(), flags=_FLAGS)
@settings(max_examples=400, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_no_config_or_flag_reaches_a_traceback(tmp_path, monkeypatch, cfg, flags):
    import liefourier.cli as cli

    # every runner is stubbed: what is tested is reading the config and the flags
    for name, kind in cli._TASKS.items():
        monkeypatch.setitem(cli._TASKS, name, kind._replace(runner=lambda task: ([{"status": "ok"}], {})))
    monkeypatch.chdir(tmp_path)  # without --out the outputs go to "."
    seed, report_format, tols = flags
    assert main(["--config", str(_write(tmp_path, cfg)), *filter(None, [seed, report_format]), *tols]) in (0, 1, 2)


def test_unknown_report_format_argument_refused_before_any_work(tmp_path, monkeypatch):
    import liefourier.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("enumerate_dual was called")

    # --format takes csv or json only; the validator refuses any other value before any work
    monkeypatch.setattr(cli, "enumerate_dual", no_work)
    out = tmp_path / "out"
    assert main(["--config", str(_write(tmp_path, _TRANSFORM)), "--out", str(out), "--format", "xml"]) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [
        pytest.param(["--seed", "x"], id="seed-text"),
        pytest.param(["--seed", "1.5"], id="seed-float"),
        pytest.param(["--seed", "-3"], id="seed-negative"),
        pytest.param(["--format", "xml"], id="format-xml"),
        pytest.param(["--colour"], id="unknown-flag"),
        pytest.param(["--seed"], id="seed-without-value"),
        pytest.param(None, id="no-config"),
    ],
)
def test_bad_flag_is_a_configuration_error(tmp_path, capsys, flags):
    # argparse's own refusals exit 1 with one line, like every other configuration error
    out = tmp_path / "out"
    argv = ["--out", str(out)] + (["--config", str(_write(tmp_path, _TRANSFORM)), *flags] if flags else [])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert not out.exists()


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == 0 and "--config" in capsys.readouterr().out


def test_flags_edit_the_config(tmp_path):
    # --seed, --format and --tol are edits of the config: the run equals the edited config's, digest included
    path = _write(tmp_path, {**_TRANSFORM, "count": 1, "format": "csv", "tolerances": {"plancherel_max": 1e-9}})
    flags = ["--seed", "3", "--format", "json", "--tol", "roundtrip_max=1e-3"]
    assert main(["--config", str(path), "--out", str(tmp_path / "flags"), *flags]) == 0
    edited = {**_TRANSFORM, "count": 1, "format": "json", "tolerances": {"plancherel_max": 1e-9, "roundtrip_max": 1e-3}}
    assert run_config({**edited, "seed": 3}, tmp_path / "edited") == 0
    for name in ("transform_report.json", "run_manifest.json"):
        assert (tmp_path / "flags" / name).read_bytes() == (tmp_path / "edited" / name).read_bytes()
    manifest = json.loads((tmp_path / "flags" / "run_manifest.json").read_text())
    assert manifest["config"]["seed"] == 3 and manifest["config"]["format"] == "json"
    assert manifest["config"]["tolerances"] == {"plancherel_max": 1e-9, "roundtrip_max": 1e-3}


_TOL = ["--tol", "roundtrip_max=1"]


@pytest.mark.parametrize(
    "text,flags",
    [
        pytest.param(json.dumps({**_TRANSFORM, "out": 5}), [], id="out-number"),
        pytest.param(json.dumps({**_TRANSFORM, "out": ["a"]}), [], id="out-list"),
        pytest.param(json.dumps({**_TRANSFORM, "tolerances": [1]}), _TOL, id="tolerances-list-with-tol"),
        pytest.param(json.dumps({**_TRANSFORM, "tolerances": None}), _TOL, id="tolerances-null-with-tol"),
        pytest.param(json.dumps({**_TRANSFORM, "tolerances": "x"}), _TOL, id="tolerances-text-with-tol"),
        pytest.param("[1]", ["--seed", "2", *_TOL], id="config-not-object"),
        # past the interpreter's limit on the digits of an int parsed from text
        pytest.param('{"task": "transform", "count": ' + "9" * 5000 + "}", [], id="integer-of-5000-digits"),
        pytest.param('{"task": "\xff"}', [], id="not-utf-8"),
    ],
)
def test_bad_config_through_main_is_one_error_line(tmp_path, capsys, text, flags):
    path, out = tmp_path / "cfg.json", tmp_path / "out"
    path.write_bytes(text.encode("latin-1"))
    assert main(["--config", str(path), "--out", str(out), *flags]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("configuration error:")
    assert not out.exists()


@pytest.mark.parametrize(
    "dim,lam",
    [
        # each squares past float64 (T^1), or its label box count past it (T^2, T^3)
        pytest.param(1, 1e200, id="t1-1e200"),
        pytest.param(2, 1e154, id="t2-1e154"),
        pytest.param(3, 1e110, id="t3-1e110"),
        pytest.param(3, 1e100, id="t3-1e100"),
        pytest.param(1, float(2**24 + 1), id="t1-just-above-the-limit"),
    ],
)
def test_huge_torus_cutoff_refused_with_a_short_message(tmp_path, capsys, dim, lam):
    cfg = {"task": "transform", "group": {"kind": "torus", "dim": dim}, "lam": lam, "count": 1}
    assert run_config(cfg, tmp_path / "out") == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("configuration error:") and len(line) < 160
    assert not (tmp_path / "out" / "transform_report.csv").exists()


def test_oversized_torus_slice_refused_before_any_label_array(tmp_path, monkeypatch, capsys):
    import numpy as np

    def no_box(*args, **kwargs):
        raise AssertionError("the label box was requested")

    # T^3 at lam 512 would lay out a norm box of about 10^9 float64 cells
    # (8.6 GB); an exit 1 proves the refusal came first, since the assertion
    # would be a task failure
    monkeypatch.setattr(np, "ix_", no_box)
    cfg = {"task": "transform", "group": {"kind": "torus", "dim": 3}, "lam": 512.0, "count": 1}
    assert run_config(cfg, tmp_path / "out") == 1
    assert "GB" in capsys.readouterr().err
    assert not (tmp_path / "out" / "transform_report.csv").exists()


_SU2_HM = {**_without(_CHECK_HM, "lams"), "group": {"kind": "su2"}}


@pytest.mark.parametrize(
    "cfg",
    [
        pytest.param({**_SU2_HM, "ell_maxes": [7.5], "s": 1e6}, id="su2-7.5"),
        pytest.param({**_SU2_HM, "ell_maxes": [63.5], "s": 1e6}, id="su2-63.5"),
        pytest.param({**_CHECK_HM, "lams": [64.0], "s": 1e6}, id="t1-64"),
        # a fractional s synthesises on the grid of bandlimit max_band + ceil(s):
        # 1060 x 530 x 1060 nodes at 63.5 + 201, 257^3 at 7 + 121 on T^3
        pytest.param({**_SU2_HM, "ell_maxes": [63.5], "s": 200.5}, id="su2-63.5-fractional"),
        pytest.param({**_CHECK_HM, "group": {"kind": "torus", "dim": 3}, "lams": [8.0], "s": 120.5}, id="t3-8-fractional"),
    ],
)
def test_oversized_sobolev_stencil_refused_before_any_state(tmp_path, monkeypatch, capsys, cfg):
    import liefourier.symbols as symbols

    def no_state(*args, **kwargs):
        raise AssertionError("a padded state or a grid was requested")

    # s = 1e6 pads the SU(2) ladder by 500000 half-spins (about 4e16 cells)
    # and on T^1 takes 500000 steps over 10^6 cells; an exit 1 proves the
    # refusal came first, since the assertion would be a task failure.  A
    # spectral symbol on SU(2) starts from the diagonal state, not the ladder
    for name in ("_su2_ladder", "_su2_diagonal", "_torus_box", "slice_grid"):
        monkeypatch.setattr(symbols, name, no_state)
    assert run_config(cfg, tmp_path / "out") == 1
    assert "GB per complex state" in capsys.readouterr().err
    assert not (tmp_path / "out" / "check-symbol_report.csv").exists()


def _spy_svd(monkeypatch) -> list:
    """Patch ``np.linalg.svd`` to list its calls."""
    import numpy as np

    calls, svd = [], np.linalg.svd

    def spy(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return calls


_SU2_CHECK = {"task": "check-symbol", "group": {"kind": "su2", "dim": 3}, "ell_maxes": [15.5, 31.5], "seed": 1}


@pytest.mark.parametrize(
    "cfg",
    [
        pytest.param({**_SU2_CHECK, "symbol": {"type": "power_it", "t": 1.0}, "checker": "marcinkiewicz", "order": 1}, id="power_it"),
        pytest.param({**_SU2_CHECK, "symbol": {"type": "wave"}, "checker": "marcinkiewicz", "order": 1}, id="wave"),
        pytest.param({**_SU2_CHECK, "symbol": {"type": "wave"}, "checker": "weak-marcinkiewicz", "s0": 1}, id="weak-wave"),
        pytest.param(
            {**_SU2_CHECK, "ell_maxes": [7.5, 15.5], "symbol": {"type": "power_it", "t": 1.0}, "checker": "hormander-mihlin"},
            id="hm-power_it",
        ),
    ],
)
def test_su2_checks_of_spectral_symbols_build_no_ladder(tmp_path, monkeypatch, cfg):
    # the SU(2) checker configs of the benchmark's session workload: every
    # difference and Sobolev step runs on the diagonal state, and the
    # Hormander-Mihlin sup norm is max |c| of the recorded scalars, so no
    # ladder step and no SVD is made
    import liefourier.symbols as symbols

    svd_calls, ladder_steps = _spy_svd(monkeypatch), []
    step = symbols._su2_step

    def spy_step(*args, **kwargs):
        ladder_steps.append(args[1])
        return step(*args, **kwargs)

    monkeypatch.setattr(symbols, "_su2_step", spy_step)
    assert run_config(cfg, tmp_path / "out") == 0
    assert ladder_steps == []
    assert svd_calls == []


_SU2_SPECTRAL_CHECK = {**_SU2_CHECK, "ell_maxes": [7.5, 15.5], "symbol": {"type": "wave"}}


@pytest.mark.parametrize(
    "cfg",
    [
        # the benchmark's su2-session kernel_decay_su2 task
        pytest.param(
            {**_without(_KERNEL_DECAY, "lam"), "group": {"kind": "su2", "dim": 3}, "ell_max": 31.5, "windows": [1, 2, 3, 4]},
            id="kernel-decay",
        ),
        pytest.param({**_SU2_SPECTRAL_CHECK, "checker": "marcinkiewicz", "order": 2}, id="marcinkiewicz"),
        pytest.param({**_SU2_SPECTRAL_CHECK, "checker": "weak-marcinkiewicz", "s0": 3}, id="weak"),
        pytest.param({**_SU2_SPECTRAL_CHECK, "checker": "hormander-mihlin", "s": 3}, id="hormander-mihlin"),
        pytest.param(json.loads((_CONFIG_DIR / "wave_sweep_su2.json").read_text()), id="wave-sweep"),
        pytest.param(
            {
                **_without(_TL_NORM, "lam"),
                "group": {"kind": "su2", "dim": 3},
                "ell_max": 15.5,
                "specs": [{"r": 0, "p": 4, "q": 2}],
                "ensemble": {"kind": "dirichlet-kernels", "count": 3},
            },
            id="dirichlet-tl-norm",
        ),
    ],
)
def test_su2_class_function_tasks_read_no_block_and_no_svd(tmp_path, monkeypatch, cfg):
    # every symbol and member of these tasks is a class function that records
    # its scalars, and no task reads the blocks derived from them or takes an
    # SVD: the checkers, the kernel-decay class sum and the theta rule of the
    # norms run on the scalars alone
    from conftest import spy_recorded_stack_reads

    svd_calls, reads = _spy_svd(monkeypatch), spy_recorded_stack_reads(monkeypatch)
    assert run_config(cfg, tmp_path / "out") == 0
    assert reads == []
    assert svd_calls == []


@pytest.mark.parametrize(
    "symbol,spelled",
    [
        ({"type": "identity"}, "identity"),
        ({"type": "power_it", "t": 5.0}, "power_it,t=5.0"),
        ({"type": "power_it", "t": 1}, "power_it,t=1"),  # the config's own values
        ({"type": "power_it"}, "power_it"),
        ({"type": "wave"}, "wave"),
        ({"type": "sign"}, "sign"),
        ({"type": "window", "ell": 2}, "window,ell=2"),
        ({"type": "dyadic_rademacher", "seed": 3}, "dyadic_rademacher,seed=3"),
    ],
)
def test_symbol_config_builds_on_the_slice(torus1, symbol, spelled):
    from liefourier import enumerate_dual
    from liefourier.cli import _validate_config

    task = _validate_config({**_CHECK_WAVE, "symbol": symbol})
    dual = enumerate_dual(torus1, 16.0)
    assert len(task.build_symbol(dual).blocks) == len(dual)
    assert task.symbol_name == spelled


# (r, p, q) = (1, 2, 300) on T^1 at lam 64: 2^(ell r) |f_ell| raised to the
# power 300 overflows float64 although the norm itself does not
_OVERFLOW_SPEC = [{"r": 1, "p": 2, "q": 300}]


@pytest.mark.parametrize(
    "cfg",
    [
        pytest.param({**_TL_NORM, "lam": 64.0, "specs": _OVERFLOW_SPEC, "ensemble": {**_GAUSSIAN, "count": 2}}, id="tl-norm"),
        pytest.param(
            {**_GAUSSIAN_SWEEP, "lams": [32.0, 64.0], "symbol": {"type": "power_it", "t": 1.0}, "specs": _OVERFLOW_SPEC},
            id="bound-sweep",
        ),
    ],
)
def test_overflowing_tl_norm_fails_with_exit_2(tmp_path, cfg):
    out = tmp_path / "out"
    assert run_config(cfg, out) == 2
    [row] = csv.DictReader((out / f"{cfg['task']}_report.csv").read_text().splitlines())
    assert row["status"] == "failed" and row["error"].startswith("FloatingPointError")


def test_tl_norm_below_overflow_keeps_its_bits(tmp_path):
    cfg = {**_TL_NORM, "lam": 64.0, "specs": [{"r": 1, "p": 2, "q": 100}], "ensemble": {**_GAUSSIAN, "count": 2}}
    out = tmp_path / "out"
    assert run_config(cfg, out) == 0
    rows = csv.DictReader((out / "tl-norm_report.csv").read_text().splitlines())
    assert [row["norm"] for row in rows] == ["385.51013025942626", "314.85341050031241"]


def test_window_symbol_above_every_slice_checks_to_zero(tmp_path):
    # psi_2000 is zero on every slice, and 2.0**2000 is past the float range
    cfg = {**_without(_CHECK_WAVE, "lams"), "lam": 16.0, "symbol": {"type": "window", "ell": 2000}}
    out = tmp_path / "out"
    assert run_config(cfg, out) == 0
    rows = list(csv.DictReader((out / "check-symbol_report.csv").read_text().splitlines()))
    assert rows and all(float(row["value"]) == 0.0 for row in rows)


def test_report_digest_compare_exits_1_on_any_difference(tmp_path):
    # --compare is a byte-identity gate: 0 only for the same files with the same bytes
    import liefourier

    script = Path(__file__).resolve().parents[1] / "scripts" / "report_digests.py"
    # --compare only reads files, so it runs without the package's source tree on the path
    src = Path(liefourier.__file__).parents[1].resolve()
    kept = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p and Path(p).resolve() != src]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(kept)}
    old, new = tmp_path / "old", tmp_path / "new"
    for root in (old, new):
        root.mkdir()
        (root / "x_report.csv").write_text("value\n1.0\n")
    argv = [sys.executable, str(script), "--compare", str(old), str(new)]
    compare = lambda: subprocess.run(argv, capture_output=True, env=env)
    same = compare()
    assert (same.returncode, same.stdout) == (0, b"")
    (new / "x_report.csv").write_text("value\n2.0\n")
    assert compare().returncode == 1
    (new / "x_report.csv").write_text("value\n1.0\n")
    (new / "run_manifest.json").write_text("{}\n")
    assert compare().returncode == 1


def _rows_without_digest(out):
    [report] = out.glob("*_report.csv")
    return [{k: v for k, v in row.items() if k != "digest"} for row in csv.DictReader(report.read_text().splitlines())]


@pytest.mark.parametrize(
    "bare,defaults",
    [
        pytest.param(_TRANSFORM, {"count": 8}, id="transform"),
        pytest.param(_without(_selftest_cfg(), "seed"), {"count": 4}, id="selftest"),
        pytest.param(_without(_CHECK_WAVE, "checker"), {"checker": "marcinkiewicz"}, id="check-symbol"),
        pytest.param({**_CHECK_WAVE, "checker": "weak-marcinkiewicz"}, {"s0": 1}, id="check-symbol-weak"),
        pytest.param(_TL_NORM, {"ensemble": {**_GAUSSIAN, "count": 4}}, id="tl-norm"),
        pytest.param(_without(_KERNEL_DECAY, "seed"), {"c": 1.0}, id="kernel-decay"),
        pytest.param(_GAUSSIAN_SWEEP, {"trend": "none"}, id="bound-sweep"),
    ],
)
def test_spelled_out_defaults_give_the_bare_rows(tmp_path, bare, defaults):
    spelled = {**bare, **defaults, "seed": 0, "format": "csv"}
    assert run_config(dict(bare), tmp_path / "bare") == run_config(spelled, tmp_path / "spelled") != 1
    assert _rows_without_digest(tmp_path / "bare") == _rows_without_digest(tmp_path / "spelled")


def test_determinism_byte_identical(tmp_path):
    cfg = {
        "task": "bound-sweep",
        "group": {"kind": "torus", "dim": 1},
        "lams": [8.0, 16.0],
        "symbol": {"type": "power_it", "t": 2.0},
        "specs": [{"r": 0, "p": 2, "q": 2}],
        "ensemble": {"kind": "gaussian-coefficients", "count": 3},
        "seed": 5,
    }
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_config(dict(cfg), out1) == 0
    assert run_config(dict(cfg), out2) == 0
    assert (out1 / "bound-sweep_report.csv").read_bytes() == (out2 / "bound-sweep_report.csv").read_bytes()
    assert (out1 / "run_manifest.json").read_bytes() == (out2 / "run_manifest.json").read_bytes()


def test_unknown_field_rejected(tmp_path):
    cfg = _selftest_cfg(bogus=1)
    out = tmp_path / "out"
    assert run_config(cfg, out) == 1
    assert not (out / "selftest_report.csv").exists()


def test_unknown_tolerance_rejected(tmp_path):
    cfg = _selftest_cfg(tolerances={"nope": 1.0})
    assert run_config(cfg, tmp_path / "out") == 1


def test_malformed_config_cli_exit1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--config", str(bad), "--out", str(tmp_path / "o")]) == 1


def test_wave_divergence_flag_exit2(tmp_path):
    cfg = {
        "task": "check-symbol",
        "group": {"kind": "torus", "dim": 1},
        "lams": [32.0, 128.0],
        "symbol": {"type": "wave"},
        "checker": "marcinkiewicz",
        "order": 1,
        "tolerances": {"max_growth": 3.0},
        "seed": 1,
    }
    out = tmp_path / "out"
    assert run_config(cfg, out) == 2
    report = (out / "check-symbol_report.csv").read_text()
    assert "growth[(1,)]" in report and "fail" in report


def test_bound_sweep_trend_assertion(tmp_path):
    cfg = {
        "task": "bound-sweep",
        "group": {"kind": "torus", "dim": 1},
        "lams": [16.0, 32.0],
        "symbol": {"type": "identity"},
        "specs": [{"r": 0, "p": 2, "q": 2}],
        "ensemble": {"kind": "gaussian-coefficients", "count": 3},
        "trend": "increasing",
        "seed": 5,
    }
    # identity ratios are flat at 1, so the increasing-trend assertion fails
    assert run_config(cfg, tmp_path / "out") == 2
    report = (tmp_path / "out" / "bound-sweep_report.csv").read_text()
    assert "fail" in report


def test_bound_sweep_skips_zero_inputs(tmp_path):
    # window 9 is zero below <xi> = 2^8, so every adjoint-dirichlet member is
    # zero: no ratio is formed (0 / 0), and the sweep reads 0 at member 0
    cfg = {
        "task": "bound-sweep",
        "group": {"kind": "torus", "dim": 1},
        "lams": [8, 16],
        "symbol": {"type": "window", "ell": 9},
        "specs": [{"r": 0, "p": 2, "q": 2}],
        "ensemble": {"kind": "adjoint-dirichlet", "count": 2},
    }
    assert run_config(cfg, tmp_path / "out") == 0
    with open(tmp_path / "out" / "bound-sweep_report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(row["lam"], row["max_ratio"], row["argmax_member"], row["status"]) for row in rows] == [
        ("8", "0", "0", "ok"),
        ("16", "0", "0", "ok"),
    ]


def test_tl_norm_task(tmp_path):
    cfg = {
        "task": "tl-norm",
        "group": {"kind": "torus", "dim": 1},
        "lam": 16.0,
        "specs": [{"r": 0, "p": 2, "q": 2}, {"r": 0, "p": 1, "q": 2}],
        "ensemble": {"kind": "gaussian-coefficients", "count": 2},
        "seed": 3,
    }
    out = tmp_path / "out"
    assert run_config(cfg, out) == 0
    lines = (out / "tl-norm_report.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 2
    header = lines[0].split(",")
    assert "weak_norm" in header


def test_kernel_decay_task(tmp_path):
    cfg = {
        "task": "kernel-decay",
        "group": {"kind": "torus", "dim": 1},
        "lam": 64.0,
        "symbol": {"type": "power_it", "t": 1.0},
        "windows": [2, 3, 4],
        "z_distance": 0.1 * 3.141592653589793,
        "seed": 0,
    }
    out = tmp_path / "out"
    assert run_config(cfg, out) == 0
    report = (out / "kernel-decay_report.csv").read_text()
    assert "slope" in report


def test_transform_task_and_seed_override(tmp_path):
    cfg = _selftest_cfg(task="transform", count=2)
    path = _write(tmp_path, cfg)
    out = tmp_path / "o1"
    assert main(["--config", str(path), "--out", str(out), "--seed", "9"]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["seed"] == 9
    assert main(["--config", str(path), "--out", str(tmp_path / "o2"), "--seed", "-1"]) == 1
    assert not (tmp_path / "o2" / "transform_report.csv").exists()


def test_tol_override_can_fail_run(tmp_path):
    path = _write(tmp_path, _selftest_cfg())
    # impossible roundtrip tolerance forces status fail -> exit 2
    code = main(["--config", str(path), "--out", str(tmp_path / "o"), "--tol", "roundtrip_max=1e-30"])
    assert code == 2


def test_json_row_format(tmp_path):
    path = _write(tmp_path, _selftest_cfg(format="json"))
    out = tmp_path / "o"
    assert main(["--config", str(path), "--out", str(out)]) == 0
    rows = json.loads((out / "selftest_report.json").read_text())
    assert isinstance(rows, list) and rows[0]["task"] == "selftest"


def test_emit_report_contract(tmp_path):
    with pytest.raises(PreconditionError):
        emit_report([], tmp_path / "x.csv")
    with pytest.raises(ConfigurationError):
        emit_report([{"a": 1}], tmp_path / "x.xml", "xml")
    with pytest.raises(PreconditionError):
        emit_report([{"a": 1}, {"b": 2}], tmp_path / "x.csv")
    emit_report([{"a": 1.5}], tmp_path / "x.csv")
    assert (tmp_path / "x.csv").read_text() == "a\n1.5\n"


def test_fmt_17_digits():
    assert fmt(1.0 / 3.0) == "0.33333333333333331"
    assert fmt(7) == "7"
    assert fmt(True) == "true"


def test_shipped_example_configs_validate(tmp_path):
    # the configs under scripts/configs must stay schema-valid; run the two
    # cheap ones end to end, only validate the expensive ones
    from pathlib import Path

    from liefourier.cli import _validate_config

    cfg_dir = Path(__file__).resolve().parent.parent / "scripts" / "configs"
    configs = sorted(cfg_dir.glob("*.json"))
    assert len(configs) >= 4
    for path in configs:
        _validate_config(json.loads(path.read_text()))
    cheap = json.loads((cfg_dir / "selftest_torus.json").read_text())
    assert run_config(cheap, tmp_path / "self") == 0
    diverge = json.loads((cfg_dir / "wave_divergence.json").read_text())
    assert run_config(diverge, tmp_path / "wave") == 2  # divergence flagged


def test_console_entry_point(tmp_path):
    import liefourier

    path = _write(tmp_path, _selftest_cfg())
    # the child imports the package the tests import, installed or not
    src = str(Path(liefourier.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "liefourier.cli", "--config", str(path), "--out", str(tmp_path / "o")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "selftest: ok" in proc.stderr


def test_su2_tasks_leave_numpy_polynomial_unimported(tmp_path):
    # the Gauss-Legendre rule of every SU(2) grid and class sum is the
    # library's own, so a fresh interpreter running the su2-session
    # kernel-decay task and an SU(2) transform never imports numpy.polynomial
    import liefourier

    decay = {
        "task": "kernel-decay",
        "group": {"kind": "su2"},
        "ell_max": 31.5,
        "symbol": {"type": "power_it", "t": 1.0},
        "windows": [1, 2, 3, 4],
        "z_distance": 0.3,
    }
    script = (
        "import json, sys\n"
        "from liefourier.cli import run_config\n"
        "for name, cfg in json.loads(sys.argv[1]).items():\n"
        "    assert run_config(cfg, sys.argv[2] + '/' + name) == 0\n"
        "print('numpy.polynomial' in sys.modules)\n"
    )
    src = str(Path(liefourier.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    configs = json.dumps({"decay": decay, "transform": {**_SU2_TRANSFORM, "ell_max": 7.5}})
    proc = subprocess.run([sys.executable, "-c", script, configs, str(tmp_path)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_only_the_round_trip_synthesises_whole_grids(tmp_path, monkeypatch):
    # the grid functionals stream inverse_slabs, so across the shipped, benchmark and CHECKS
    # configs of scripts/report_digests.py every call of transform.inverse_on_grid comes from
    # cli._roundtrip_residual, whose forward transform needs the samples themselves
    import importlib.util

    from liefourier import transform

    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts the repository root first
    script = Path(__file__).resolve().parents[1] / "scripts" / "report_digests.py"
    spec = importlib.util.spec_from_file_location("report_digests", script)
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    original, callers = transform.inverse_on_grid, []

    def spy(coeffs, grid):
        frame = sys._getframe(1)
        callers.append(f"{frame.f_globals['__name__']}.{frame.f_code.co_name}")
        return original(coeffs, grid)

    for name, module in list(sys.modules.items()):  # every binding, as modules import the name
        if name.split(".")[0] == "liefourier":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, spy)
    for i, (_, cfg) in enumerate(digests.configs()):
        run_config(cfg, tmp_path / str(i))
    assert callers and set(callers) == {"liefourier.cli._roundtrip_residual"}
