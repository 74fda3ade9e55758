import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import LONG_DOUBLE, chebyshev_u_long_double, index_of, irrep_labels, translate_coefficients
from liefourier import (
    EnsembleConfig,
    FourierCoefficients,
    NormSpec,
    Symbol,
    apply_multiplier,
    boundedness_sweep,
    build_spectral_symbol,
    enumerate_dual,
    identity_symbol,
    kernel_difference_integrals,
    make_group,
    plancherel_norm,
    random_coefficients,
)
from liefourier import multipliers, spaces, transform
from liefourier.cli import run_config
from liefourier.dual import representation_stacks, spin_cutoff
from liefourier.errors import ConfigurationError, PreconditionError
from liefourier.groups import (
    _su2_beta_rule,
    build_grid,
    distance_to_identity,
    grid_distance_to_identity,
    inverse,
    multiply,
    point_at_distance,
    su2_pair,
)
from liefourier.multipliers import decay_slope, ensemble_member
from liefourier.spaces import lp_project, psi, windows
from liefourier.symbols import operator_norms, symbol_linf
from liefourier.transform import default_grid, inverse_evaluate, inverse_on_grid, zero_coefficients
from tl_oracle import tl_norms as oracle_tl_norms


def test_identity_symbol_acts_trivially(torus1):
    dual = enumerate_dual(torus1, 16.0)
    f = random_coefficients(dual, np.random.default_rng(0))
    out = apply_multiplier(identity_symbol(dual), f)
    assert max(np.max(np.abs(a - b)) for a, b in zip(out.blocks, f.blocks)) == 0.0


def test_mode_projection_symbol(torus1):
    dual = enumerate_dual(torus1, 8.0)
    blocks = [
        (np.eye(1, dtype=complex) if label == (3,) else np.zeros((1, 1), complex))
        for label in irrep_labels(dual)
    ]
    sig = Symbol.from_blocks(dual, blocks)
    f = random_coefficients(dual, np.random.default_rng(1))
    out = apply_multiplier(sig, f)
    for label, fb, ob in zip(irrep_labels(dual), f.blocks, out.blocks):
        if label == (3,):
            assert abs(ob[0, 0] - fb[0, 0]) < 1e-15
        else:
            assert abs(ob[0, 0]) < 1e-15


def test_l2_contraction_bound(su2):
    dual = enumerate_dual(su2, spin_cutoff(3))
    rng = np.random.default_rng(2)
    sig = build_spectral_symbol(lambda lam: np.exp(1j * lam) / np.sqrt(lam), dual)
    bound = symbol_linf(sig)
    for _ in range(5):
        f = random_coefficients(dual, rng)
        assert plancherel_norm(apply_multiplier(sig, f)) <= bound * plancherel_norm(f) * (1 + 1e-12)


def test_multiplier_composition(su2):
    dual = enumerate_dual(su2, spin_cutoff(2))
    rng = np.random.default_rng(3)
    a = Symbol.from_blocks(dual, [rng.standard_normal((d, d)) + 0j for d in dual.dims])
    b = Symbol.from_blocks(dual, [rng.standard_normal((d, d)) + 0j for d in dual.dims])
    ab = Symbol.from_blocks(dual, [x @ y for x, y in zip(a.blocks, b.blocks)])
    f = random_coefficients(dual, rng)
    lhs = apply_multiplier(a, apply_multiplier(b, f))
    rhs = apply_multiplier(ab, f)
    assert max(np.max(np.abs(x - y)) for x, y in zip(lhs.blocks, rhs.blocks)) < 1e-12


def test_shape_mismatch_raises(torus1):
    f = random_coefficients(enumerate_dual(torus1, 8.0), np.random.default_rng(4))
    sig = identity_symbol(enumerate_dual(torus1, 4.0))
    with pytest.raises(PreconditionError):
        apply_multiplier(sig, f)


# ---------------------------------------------------------------------------
# Window kernels
# ---------------------------------------------------------------------------

def test_window_support_invariant(torus1):
    dual = enumerate_dual(torus1, 64.0)
    sig = build_spectral_symbol(lambda lam: lam ** (1j), dual)
    for ell in (1, 2, 3):
        kernel = lp_project(sig, ell)
        for lam, blk in zip(dual.eigenvalues, kernel.blocks):
            if not 2.0 ** (ell - 1) < lam < 2.0 ** (ell + 1):
                assert np.max(np.abs(blk)) <= 1e-15


def test_window_kernel_positive_at_identity(torus1):
    dual = enumerate_dual(torus1, 32.0)
    kernel = lp_project(identity_symbol(dual), 2)
    val = inverse_evaluate(kernel, np.zeros((1, 1)))
    expected = sum(psi(2, lam) for lam in dual.eigenvalues)
    assert val[0].real > 0
    assert abs(val[0] - expected) < 1e-10


def test_window_zero_mean_except_low_piece(torus1):
    # only the trivial irrep contributes to the mean; psi_0(1) = 1
    dual = enumerate_dual(torus1, 16.0)
    rng = np.random.default_rng(5)
    sig = Symbol.from_blocks(dual, [np.array([[rng.standard_normal() + 0j]]) for _ in range(len(dual))])
    k0 = lp_project(sig, 0)
    trivial = index_of(dual, (0,))
    assert abs(k0.blocks[trivial][0, 0] - sig.blocks[trivial][0, 0]) < 1e-15
    k2 = lp_project(sig, 2)
    assert abs(k2.blocks[trivial][0, 0]) < 1e-15


def test_window_sum_reconstructs_symbol(su2):
    dual = enumerate_dual(su2, spin_cutoff(4))
    sig = build_spectral_symbol(lambda lam: lam ** (2j), dual)
    acc = [np.zeros_like(b) for b in sig.blocks]
    for ell, _ in windows(dual):
        kernel = lp_project(sig, ell)
        acc = [a + b for a, b in zip(acc, kernel.blocks)]
    assert max(np.max(np.abs(a - b)) for a, b in zip(acc, sig.blocks)) < 1e-11


# ---------------------------------------------------------------------------
# Kernel difference integrals
# ---------------------------------------------------------------------------

def test_empty_domain_returns_zero(torus1):
    dual = enumerate_dual(torus1, 16.0)
    z = np.array([0.3])  # |z| = 0.6 pi, 4|z| = 2.4 pi > pi = diameter
    assert kernel_difference_integrals(identity_symbol(dual), [1], z, 1.0) == [0.0]


def test_oversampling_oracle_torus(torus1):
    # the coarse-grid quadrature must match a 10x denser reference within 1%
    dual = enumerate_dual(torus1, 64.0)
    sig = identity_symbol(dual)
    z = np.array([0.07])
    [coarse] = kernel_difference_integrals(sig, [0], z, 1.0)
    dense = _two_synthesis_difference_integral(lp_project(sig, 0), z, 1.0, build_grid(torus1, 10 * int(dual.max_band)))
    assert abs(coarse - dense) <= 0.01 * dense


def test_inverse_symmetry_real_kernel(torus1):
    # real symmetric kernels: the integral is invariant under z -> z^-1
    dual = enumerate_dual(torus1, 32.0)
    sig = identity_symbol(dual)
    z = np.array([0.06])
    zi = np.array([1.0 - 0.06])
    [v1] = kernel_difference_integrals(sig, [2], z, 1.0)
    [v2] = kernel_difference_integrals(sig, [2], zi, 1.0)
    assert abs(v1 - v2) < 1e-10 * max(1.0, v1)


def test_su2_class_function_path_matches_general(su2):
    # a class-function kernel (scalar blocks) must give the same integral on
    # the class sum and on the general grid path, taken by the same blocks
    # with no scalars recorded
    dual = enumerate_dual(su2, spin_cutoff(3))
    sig = build_spectral_symbol(lambda lam: lam ** (1j), dual)
    z = point_at_distance(su2, 0.4)
    [fast] = kernel_difference_integrals(sig, [1], z, 1.0)
    [general] = kernel_difference_integrals(Symbol(dual, sig.stacks), [1], z, 1.0)
    assert abs(fast - general) < 1e-9 * max(1.0, fast)


def _grid_spy(monkeypatch):
    # counts the grid builds and plan lookups of the transform layer
    calls = []
    for name in ("build_grid", "_get_plan"):
        original = getattr(transform, name)
        monkeypatch.setattr(transform, name, lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a))
    return calls


@pytest.mark.parametrize("spin", [3.5, 7.5, 15.5, 31.5])
def test_central_su2_integrals_equal_the_grid_path(su2, spin, monkeypatch):
    # a spectral symbol records its scalars c_l and point_at_distance puts z
    # on the diagonal torus, so the integrals are class sums with no grid; the
    # grid path, taken by the same blocks c_l I with no scalars recorded,
    # agrees within 1e-12 per integral.
    # At z distance 1.0 and c = 1.0 the far field 4c|z| > pi is empty
    dual = enumerate_dual(su2, spin_cutoff(spin))
    sig = build_spectral_symbol(lambda lam: lam ** (1j), dual)
    blocks = Symbol(dual, sig.stacks)
    levels = _nonzero_windows(dual)
    calls = _grid_spy(monkeypatch)
    for distance in (0.05 * 2.0 * math.pi, 0.3, 1.0):
        z = point_at_distance(su2, distance)
        for c in (0.5, 1.0):
            fast = kernel_difference_integrals(sig, levels, z, c)
            assert calls == []
            slow = kernel_difference_integrals(blocks, levels, z, c)
            del calls[:]
            empty = 4.0 * c * distance > math.pi
            assert all((value == 0.0) == empty for value in slow)
            for a, b in zip(fast, slow):
                assert abs(a - b) <= 1e-12 * b


def _central_representatives(dual, z, c):
    # the representatives r = 0 ... n_ag / 2 of each beta node, rebuilt from the grid's beta
    # rule: rows x' = Re(conj(a_z) a), x = Re a and x'' = Re(conj(a_z) conj(a)), and the
    # weights beta_weight * n_ag / 2 of their classes a, conj(a), -a and -conj(a) (classes r,
    # 2 n_ag - r, n_ag + r, n_ag - r), each where that class is far and is not another's:
    # conj(a) = a at r = 0, and -a = conj(a), -conj(a) = a at r = n_ag / 2.  Representatives
    # with no far class are dropped
    n_ag, beta, w_beta = _su2_beta_rule(dual.group, dual.max_band)
    radius = 4.0 * c * distance_to_identity(dual.group, z)
    r = np.arange(n_ag // 2 + 1)
    a = (np.cos(beta / 2.0)[:, None] * np.exp(-1j * np.pi / n_ag * r)).ravel()
    a_z = su2_pair(z)[0]
    points = np.stack([(np.conj(a_z) * a).real, a.real, (np.conj(a_z) * np.conj(a)).real])
    far = np.arccos(np.clip(a.real, -1.0, 1.0)) > radius
    far_neg = np.arccos(np.clip(-a.real, -1.0, 1.0)) > radius
    r = np.tile(r, len(beta))
    inner = (r > 0) & (2 * r < n_ag)
    weights = np.repeat(w_beta * (n_ag / 2), len(r) // len(beta)) * np.stack(
        [far, far & (r > 0), far_neg & (2 * r < n_ag), far_neg & inner]
    )
    keep = far | far_neg
    return points[:, keep], weights[:, keep]


def _central_classes(dual, z, c):
    # the far-field classes of the class sum, each with its own coordinates: the four
    # classes of every representative, x = Re a(x) and x' = Re(conj(a_z) a(x)) at a, conj(a),
    # -a and -conj(a), and each class's weight, the classes counted once
    (moved, x, moved_conj), weights = _central_representatives(dual, z, c)
    xs = np.concatenate([x, x, -x, -x])
    moveds = np.concatenate([moved, moved_conj, -moved, -moved_conj])
    weights = weights.ravel()
    return xs[weights > 0], moveds[weights > 0], weights[weights > 0]


def _unfolded_class_sum(dual, scalars, levels, z, c):
    # the class sum as it was before one representative stood for four classes: every
    # class (beta_j, r), r = 0 ... 2 n_ag - 1, its own a = cos(beta_j / 2) e^{-i pi r / n_ag}
    # and its own two recurrences, in chunks of 1e6 table entries
    n_ag, beta, w_beta = _su2_beta_rule(dual.group, dual.max_band)
    radius = 4.0 * c * distance_to_identity(dual.group, z)
    a = np.cos(beta / 2.0)[:, None] * np.exp(-1j * np.pi / n_ag * np.arange(2 * n_ag))
    x, moved = (b.real.ravel() for b in (a, np.conj(su2_pair(z)[0]) * a))
    far = np.arccos(np.clip(x, -1.0, 1.0)) > radius
    x, moved, weights = x[far], moved[far], np.repeat(w_beta * (n_ag / 2), 2 * n_ag)[far]
    psis = np.array([psi(ell, dual.eigenvalues) for ell in levels])
    coeffs = np.ascontiguousarray((psis * (dual.dims * scalars)).T).view(float)
    step = max(1, 1_000_000 // len(dual))
    sums = np.zeros(len(levels))
    for lo in range(0, len(x), step):
        chi = transform._su2_characters(moved[lo : lo + step], len(dual))
        chi -= transform._su2_characters(x[lo : lo + step], len(dual))
        sums += weights[lo : lo + step] @ np.abs((chi.T @ coeffs).view(complex))
    return sums.tolist()


@pytest.mark.skipif(not LONG_DOUBLE, reason="np.longdouble is no wider than float64 here")
@pytest.mark.parametrize("spin", [15.5, 31.5])
def test_central_su2_integrals_match_a_long_double_class_sum(su2, spin):
    # the kernel-decay task of the su2-session benchmark (power_it t = 1,
    # windows 1-4, z distance 0.3, c = 1) against the same node sum in long
    # double: the class coordinates x = Re a and x' = Re(conj(a_z) a) of the
    # library's representatives, expanded into their four classes and cast to
    # long double, the characters by the long-double recurrence, and the
    # library's float64 coefficients psi_ell (d_l c_l), in its order of
    # products (a product rounded another way moves window 4 at spin 31.5 by
    # 1e-14), cast too.  Within 1e-14 relative (measured 9.7e-16 with one
    # representative per four classes, 2.0e-15 with every class its own); the
    # sin(d theta) / sin(theta) table read from arccos(x) missed it at spin
    # 31.5, window 4 (1.7e-14)
    dual = enumerate_dual(su2, spin_cutoff(spin))
    sig = build_spectral_symbol(lambda lam: lam ** (1j), dual)
    levels, z, c = [1, 2, 3, 4], point_at_distance(su2, 0.3), 1.0
    integrals = kernel_difference_integrals(sig, levels, z, c)
    x, moved, weights = _central_classes(dual, z, c)
    assert len(weights) > 0
    chi = chebyshev_u_long_double(moved, len(dual)) - chebyshev_u_long_double(x, len(dual))
    coeffs = np.array([psi(ell, dual.eigenvalues) for ell in levels]) * (dual.dims * sig.scalars)
    re, im = (part.astype(np.longdouble) @ chi for part in (coeffs.real, coeffs.imag))
    exact = np.sqrt(re * re + im * im) @ weights.astype(np.longdouble)
    for value, reference in zip(integrals, exact):
        assert abs(value - reference) <= 1e-14 * reference


@pytest.mark.skipif(not LONG_DOUBLE, reason="np.longdouble is no wider than float64 here")
@pytest.mark.parametrize("spin", [31.5, 63.5])
def test_central_su2_antipodal_integrals_match_a_long_double_class_sum(su2, spin):
    # at z distance 0.7 and c = 1 the far field theta > 2.8 holds only classes
    # near -I, read from their representatives near I through (-1)^(d-1): every
    # window against the long-double class sum, within 5e-14 relative.  The
    # small windows there cancel (window 6 at spin 63.5 is 2.1e-5 of terms of
    # order 1): the class sum reads them within 2.5e-14, and so would every
    # class with its own recurrences (9.6e-13 at that window), while E - O from
    # separate GEMMs on the even and odd rows read 4.0e-12
    dual = enumerate_dual(su2, spin_cutoff(spin))
    sig = build_spectral_symbol(lambda lam: lam ** (1j), dual)
    levels, z, c = [ell for ell, _ in windows(dual)], point_at_distance(su2, 0.7), 1.0
    integrals = kernel_difference_integrals(sig, levels, z, c)
    x, moved, weights = _central_classes(dual, z, c)
    assert len(weights) > 0 and np.all(x < 0.0)
    chi = chebyshev_u_long_double(moved, len(dual)) - chebyshev_u_long_double(x, len(dual))
    coeffs = np.array([psi(ell, dual.eigenvalues) for ell in levels]) * (dual.dims * sig.scalars)
    re, im = (part.astype(np.longdouble) @ chi for part in (coeffs.real, coeffs.imag))
    exact = np.sqrt(re * re + im * im) @ weights.astype(np.longdouble)
    for value, reference in zip(integrals, exact):
        assert abs(value - reference) <= 5e-14 * reference


@pytest.mark.parametrize("spin", [3.5, 31.5, 63.5])
def test_central_su2_one_table_equals_the_two_table_class_sum(su2, spin):
    # the class sum fills one table of U(x') - U(x) and U(x) - U(x'') per chunk
    # of representatives, from one recurrence over (x', x, x''); full tables of
    # U(x'), U(x) and U(x''), subtracted, give the same integrals bit for bit,
    # with the same chunks of multipliers._CLASS_CHUNK representatives, the
    # GEMM against the coefficients and their (-1)^(d-1) multiples, and the
    # same order of the sums (spin 63.5 takes several chunks)
    dual = enumerate_dual(su2, spin_cutoff(spin))
    sig = build_spectral_symbol(lambda lam: lam ** (1j), dual)
    levels = [ell for ell, _ in windows(dual)]
    step, top, count = multipliers._CLASS_CHUNK, len(dual), len(levels)
    psis = np.array([psi(ell, dual.eigenvalues) for ell in levels])
    coeffs = np.ascontiguousarray((psis * (dual.dims * sig.scalars)).T).view(float)
    coeffs = np.hstack([coeffs, np.where(dual.dims % 2, 1.0, -1.0)[:, None] * coeffs])
    for distance, c in ((0.05 * 2.0 * math.pi, 0.5), (0.3, 1.0), (0.05, 0.5), (0.7, 1.0)):
        z = point_at_distance(su2, distance)
        (moved, x, moved_conj), weights = _central_representatives(dual, z, c)
        if spin == 63.5 and distance != 0.7:
            assert len(x) > 2 * step
        sums = np.zeros(count)
        for lo in range(0, len(x), step):
            chunk = slice(lo, lo + step)
            plain = transform._su2_characters(x[chunk], top)
            chi = np.hstack([transform._su2_characters(moved[chunk], top) - plain,
                             plain - transform._su2_characters(moved_conj[chunk], top)])
            mods = np.abs((chi.T @ coeffs).view(complex))
            w_plain, w_neg = weights[:2, chunk].ravel(), weights[2:, chunk].ravel()
            sums += w_plain @ mods[:, :count] + w_neg @ mods[:, count:]
        assert kernel_difference_integrals(sig, levels, z, c) == sums.tolist()


@pytest.mark.parametrize("spin", [3.5, 15.5, 31.5, 63.5])
def test_central_su2_representatives_match_every_class_its_own(su2, spin):
    # one representative per four classes against every class with its own a and
    # its own recurrences (the class sum before the fold), within 1e-14 relative
    # (measured 6.0e-15), at z distances 0.3 and 0.05 (every class far or most),
    # 0.7 (only the classes near -I far) and 1.0 (no class far: every integral 0).
    # Windows 1-4: at distance 0.7 the smaller windows cancel, and the formula
    # before the fold reads window 6 at spin 63.5 9.6e-13 from long double (the
    # antipodal long-double test)
    dual = enumerate_dual(su2, spin_cutoff(spin))
    sig = build_spectral_symbol(lambda lam: lam ** (1j), dual)
    levels = [ell for ell, _ in windows(dual)][:4]
    for distance, c in ((0.3, 1.0), (0.05, 0.5), (0.7, 1.0), (1.0, 1.0)):
        z = point_at_distance(su2, distance)
        folded = kernel_difference_integrals(sig, levels, z, c)
        unfolded = _unfolded_class_sum(dual, sig.scalars, levels, z, c)
        if distance == 1.0:
            assert folded == unfolded == [0.0] * len(levels)
        for a, b in zip(folded, unfolded):
            assert abs(a - b) <= 1e-14 * b


def test_central_su2_integrals_peak_memory(su2):
    # the class sum holds one table of 2 x 1024 columns per dimension (2 MB at
    # spin 63.5), reused by every chunk of representatives: tracemalloc read
    # 4.2 MB at spin 63.5, windows 1-4 (11.1 MB with one table of 1e6 entries
    # and every class its own column, 18.4 MB with two tables, one per
    # recurrence); a second table would pass 5 MB
    dual = enumerate_dual(su2, spin_cutoff(63.5))
    sig = build_spectral_symbol(lambda lam: lam ** (1j), dual)
    z = point_at_distance(su2, 0.3)
    expected = kernel_difference_integrals(sig, [1, 2, 3, 4], z, 1.0)
    tracemalloc.start()
    try:
        assert kernel_difference_integrals(sig, [1, 2, 3, 4], z, 1.0) == expected
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5e6, f"peak {peak / 1e6:.1f} MB"


def test_kernel_difference_integrals_take_numpy_integer_levels(su2):
    # levels from a numpy array are np.int64, on the class sum and on the grid path alike
    dual = enumerate_dual(su2, spin_cutoff(3.5))
    sig = build_spectral_symbol(lambda lam: lam ** (1j), dual)
    z = point_at_distance(su2, 0.3)
    central = kernel_difference_integrals(sig, np.array([1, 2]), z, 1.0)
    assert central == kernel_difference_integrals(sig, [1, 2], z, 1.0)
    blocks = Symbol(dual, sig.stacks)
    grid = kernel_difference_integrals(blocks, np.array([1, 2]), z, 1.0)
    assert grid == kernel_difference_integrals(blocks, [1, 2], z, 1.0)
    assert all(abs(a - b) <= 1e-12 * b for a, b in zip(central, grid))


def test_su2_kernel_decay_config_builds_no_grid(su2, tmp_path, monkeypatch):
    # the kernel-decay task of the su2-session benchmark: a spectral symbol
    # and z from point_at_distance take the class sum, with no grid or plan
    cfg = {
        "task": "kernel-decay",
        "group": {"kind": "su2", "dim": 3},
        "ell_max": 31.5,
        "symbol": {"type": "power_it", "t": 1.0},
        "windows": [1, 2, 3, 4],
        "z_distance": 0.3,
    }
    calls = _grid_spy(monkeypatch)
    assert run_config(cfg, tmp_path) == 0
    assert calls == []
    # a non-central symbol, or z off the diagonal torus, takes the grid path
    dual = enumerate_dual(su2, spin_cutoff(3.5))
    general = Symbol.from_blocks(dual, random_coefficients(dual, np.random.default_rng(5)).blocks)
    kernel_difference_integrals(general, [1, 2], point_at_distance(su2, 0.3), 1.0)
    assert calls.count("build_grid") == 1 and "_get_plan" in calls
    del calls[:]
    # a new slice, as the first one already holds its grid and plan
    central = build_spectral_symbol(lambda lam: lam ** (1j), enumerate_dual(su2, spin_cutoff(3.5)))
    kernel_difference_integrals(central, [1, 2], np.array([0.3, 0.2, 0.1]), 1.0)
    assert calls.count("build_grid") == 1 and "_get_plan" in calls


def test_su2_wave_sweep_config_builds_no_grid(tmp_path, monkeypatch):
    # the shipped SU(2) sweep (spins 7.5-31.5, adjoint-dirichlet members of
    # the wave symbol, F^0_{4,2}): every member and image records its
    # scalars by construction, so every norm takes the theta rule
    cfg = json.loads((Path(__file__).resolve().parents[1] / "scripts" / "configs" / "wave_sweep_su2.json").read_text())
    calls = _grid_spy(monkeypatch)
    assert run_config(cfg, tmp_path) == 0
    assert calls == []


def _pointwise_difference_integral(coeffs, z, c, grid):
    # oracle: the series summed directly at the translated points z^-1 x
    group = coeffs.dual.group
    mask = distance_to_identity(group, grid.points) > 4.0 * c * distance_to_identity(group, z)
    pts = grid.points[mask]
    base = inverse_evaluate(coeffs, pts)
    moved = inverse_evaluate(coeffs, multiply(group, inverse(group, z), pts))
    return float(np.sum(grid.weights[mask] * np.abs(moved - base)))


@pytest.mark.parametrize(
    "kind,n,cutoff,z",
    [("torus", 2, 12.0, [0.03, 0.05]), ("su2", 3, spin_cutoff(4), [0.3, 0.2, 0.1])],
)
def test_kernel_difference_matches_pointwise_oracle(kind, n, cutoff, z):
    # non-scalar symbol blocks on SU(2), so no class-function structure helps
    group = make_group(kind, n)
    dual = enumerate_dual(group, cutoff)
    grid = default_grid(dual)
    sig = Symbol.from_blocks(dual, random_coefficients(dual, np.random.default_rng(13)).blocks)
    z = np.array(z)
    [value] = kernel_difference_integrals(sig, [2], z, 1.0)
    oracle = _pointwise_difference_integral(lp_project(sig, 2), z, 1.0, grid)
    assert oracle > 0
    assert abs(value - oracle) <= 1e-10 * oracle


def _two_synthesis_difference_integral(kernel, z, c, grid):
    # oracle: the kernel and its translate synthesised on the grid one by one
    # and subtracted there, the path that one synthesis of the difference replaced
    group = kernel.dual.group
    mask = grid_distance_to_identity(grid) > 4.0 * c * distance_to_identity(group, z)
    base = inverse_on_grid(kernel, grid).values[mask]
    moved = inverse_on_grid(translate_coefficients(kernel, inverse(group, z)), grid).values[mask]
    return float(np.sum(grid.weights[mask] * np.abs(moved - base)))


@pytest.mark.parametrize(
    "kind,n,top,z,c",
    [
        ("torus", 1, 64.0, [0.07], 1.0),
        ("torus", 2, 12.0, [0.03, 0.05], 1.0),
        ("su2", 3, 7.5, [0.3, 0.2, 0.1], 0.5),
        # 4c|z| = 0.99992 pi is below the diameter pi, but no node of the
        # 33-point grid lies that far out: the far field is empty
        ("torus", 1, 16.0, [0.1], 1.2499),
    ],
)
def test_kernel_difference_matches_two_synthesis_oracle(kind, n, top, z, c):
    # non-scalar symbol blocks on SU(2) (top is its top spin), every window
    # that is nonzero on the slice
    group = make_group(kind, n)
    dual = enumerate_dual(group, top if kind == "torus" else spin_cutoff(top))
    grid = default_grid(dual)
    sig = Symbol.from_blocks(dual, random_coefficients(dual, np.random.default_rng(21)).blocks)
    z = np.array(z)
    levels = _nonzero_windows(dual)
    for ell, value in zip(levels, kernel_difference_integrals(sig, levels, z, c)):
        oracle = _two_synthesis_difference_integral(lp_project(sig, ell), z, c, grid)
        assert abs(value - oracle) <= 1e-12 * oracle
        assert (value == 0.0) == (c > 1.0)


def _nonzero_windows(dual):
    return [ell for ell, _ in windows(dual)]


def _per_window_difference_integral(kernel, z, c, grid):
    # oracle: one window kernel per call, with the distance, the far-field
    # mask and xi(z^-1) made anew each time and the diameter shortcut in front
    group = kernel.dual.group
    if c <= 0:
        raise PreconditionError("c must be positive")
    zlen = float(distance_to_identity(group, np.asarray(z, dtype=float)))
    if zlen == 0.0:
        raise PreconditionError("z must differ from the identity")
    threshold = 4.0 * c * zlen
    if threshold >= (np.pi * np.sqrt(group.dim) if group.kind == "torus" else np.pi):
        return 0.0
    dist = grid_distance_to_identity(grid)
    mask = dist > threshold
    if not np.any(mask):
        return 0.0
    moved = translate_coefficients(kernel, inverse(group, z))
    diff = FourierCoefficients(kernel.dual, [m - s for m, s in zip(moved.stacks, kernel.stacks)])
    values = inverse_on_grid(diff, grid).values[mask]
    return float(np.sum(grid.weights[mask] * np.abs(values)))


@pytest.mark.parametrize("c", [0.5, 1.0, 1.2499])
@pytest.mark.parametrize(
    "kind,n,top,z",
    [
        ("torus", 1, 64.0, [0.07]),
        ("torus", 2, 12.0, [0.03, 0.05]),
        ("torus", 3, 6.0, [0.03, 0.05, 0.02]),
        ("su2", 3, 7.5, [0.3, 0.2, 0.1]),
        # no node of the 33-point grid lies beyond 4c|z| at c = 1.2499
        ("torus", 1, 16.0, [0.1]),
    ],
)
def test_one_call_equals_per_window_oracle_bitwise(kind, n, top, z, c):
    # non-scalar symbol blocks on SU(2) (top is its top spin), every window
    # that is nonzero on the slice, in one call
    group = make_group(kind, n)
    dual = enumerate_dual(group, top if kind == "torus" else spin_cutoff(top))
    grid = default_grid(dual)
    sig = Symbol.from_blocks(dual, random_coefficients(dual, np.random.default_rng(23)).blocks)
    z = np.array(z)
    levels = _nonzero_windows(dual)
    oracle = [_per_window_difference_integral(lp_project(sig, ell), z, c, grid) for ell in levels]
    assert kernel_difference_integrals(sig, levels, z, c) == oracle
    empty_far_field = top == 16.0 and c > 1.0
    assert (max(oracle) == 0.0) == empty_far_field


def _whole_grid_difference_integrals(symbol, levels, z, c):
    # oracle: the grid path with each window's difference synthesised whole by inverse_on_grid,
    # a complex grid-sized array, and its modulus weighted and summed over the far field
    dual, group = symbol.dual, symbol.dual.group
    grid = default_grid(dual)
    mask = grid_distance_to_identity(grid).reshape(grid.shape) > 4.0 * c * distance_to_identity(group, z)
    reps = representation_stacks(dual, inverse(group, z))
    integrals = []
    for ell in levels:
        kernel = lp_project(symbol, ell)
        diff = FourierCoefficients(dual, [k @ r - k for k, r in zip(kernel.stacks, reps)])
        values = np.abs(inverse_on_grid(diff, grid).values.reshape(grid.shape))
        values *= grid.node_weights
        integrals.append(float(np.sum(values[mask])))
    return integrals


@pytest.mark.parametrize(
    "kind,n,cutoff,z",
    [
        ("torus", 1, 64.0, [0.07]),
        ("torus", 2, 12.0, [0.03, 0.05]),
        ("torus", 3, 6.0, [0.03, 0.05, 0.02]),
        ("su2", 3, spin_cutoff(15.5), [0.3, 0.2, 0.1]),
    ],
)
def test_streamed_difference_integrals_equal_the_whole_grid_formula(kind, n, cutoff, z, monkeypatch):
    # the grid path fills one real array slab by slab and reduces it as the whole-grid
    # formula does, so the integrals keep their bits.  On SU(2) the blocks of a spectral
    # symbol with nothing recorded, at a z off the diagonal torus, stream in 5 slabs
    dual = enumerate_dual(make_group(kind, n), cutoff)
    monkeypatch.setattr(transform, "_SLAB_BYTES", -(-len(default_grid(dual)) * 16 // 5))
    sig = Symbol(dual, build_spectral_symbol(lambda lam: lam ** (1j), dual).stacks)
    z = np.array(z)
    if kind == "su2":
        assert su2_pair(z)[1] != 0 and len(transform._get_plan(default_grid(dual), dual).slabs) == 5
    levels = _nonzero_windows(dual)
    got = kernel_difference_integrals(sig, levels, z, 1.0)
    assert got == _whole_grid_difference_integrals(sig, levels, z, 1.0)
    assert all(value > 0.0 for value in got)


def test_streamed_difference_integrals_peak_memory(su2, monkeypatch):
    # the grid path at spin 15.5 with a warm grid and plan on 16 slabs, windows 1-4 of
    # blocks with nothing recorded at a z off the diagonal torus.  The far-field distance
    # sets the peak before the moduli array exists (the complex a(x) of every node and its
    # clipped real part, 3 x N x 8 bytes); a streaming window holds less, the moduli array
    # (1), the compact class arrays (about 1) and a slab workspace.  Measured 3.01 x N x 8
    # bytes, against 4.01 when each window was synthesised whole next to its modulus
    dual = enumerate_dual(su2, spin_cutoff(15.5))
    monkeypatch.setattr(transform, "_SLAB_BYTES", -(-len(default_grid(dual)) * 16 // 16))
    sig = Symbol(dual, build_spectral_symbol(lambda lam: lam ** (1j), dual).stacks)
    z = np.array([0.3, 0.2, 0.1])
    expected = kernel_difference_integrals(sig, [1, 2, 3, 4], z, 1.0)  # warms the grid and the plan
    n = len(default_grid(dual))
    tracemalloc.start()
    try:
        assert kernel_difference_integrals(sig, [1, 2, 3, 4], z, 1.0) == expected
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.2 * n * 8, f"peak {peak / (n * 8):.2f} x N x 8 bytes"


def test_directed_irrep_reads_a_recorded_symbol_once(su2, monkeypatch):
    # the member of a symbol that records its scalars takes the argmax and the block at it
    # from one read of the derived c I blocks; it is the member built from symbol.block
    from conftest import spy_recorded_stack_reads

    dual = enumerate_dual(su2, spin_cutoff(7.5))
    sig = build_spectral_symbol(lambda lam: (1.0 + 0.5 * np.sin(lam)) * lam ** (2j), dual)
    best_i = int(np.argmax(operator_norms(sig.stacks)))
    want = zero_coefficients(dual)
    want.block(best_i)[:, 0] = np.linalg.svd(sig.block(best_i))[2][0].conj()
    reads = spy_recorded_stack_reads(monkeypatch)
    member = ensemble_member(EnsembleConfig("directed-irrep", 1), 0, dual, np.random.default_rng(0), sig)
    assert reads == [len(dual)]
    assert all(np.array_equal(a, b) for a, b in zip(member.stacks, want.stacks))


def test_one_call_builds_distance_and_translation_once(torus1, monkeypatch):
    calls = {"grid_distance_to_identity": 0, "representation_stacks": 0}

    def counted(name):
        original = getattr(multipliers, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(multipliers, name, counted(name))
    dual = enumerate_dual(torus1, 64.0)
    sig = build_spectral_symbol(lambda lam: lam ** (1j), dual)
    values = kernel_difference_integrals(sig, [1, 2, 3, 4], np.array([0.05]), 1.0)
    assert all(v > 0.0 for v in values)
    assert calls == {"grid_distance_to_identity": 1, "representation_stacks": 1}


def test_z_must_not_be_identity(torus1):
    dual = enumerate_dual(torus1, 8.0)
    with pytest.raises(PreconditionError):
        kernel_difference_integrals(identity_symbol(dual), [1], np.array([0.0]), 1.0)


@pytest.mark.parametrize("c", [0.0, -1.0])
def test_kernel_difference_integrals_refuse_nonpositive_c(torus1, c):
    dual = enumerate_dual(torus1, 8.0)
    with pytest.raises(PreconditionError, match="c must be positive"):
        kernel_difference_integrals(identity_symbol(dual), [1], np.array([0.1]), c)


def test_torus_decay_trend_small(torus1):
    dual = enumerate_dual(torus1, 128.0)
    sig = build_spectral_symbol(lambda lam: lam ** (1j), dual)
    z = np.array([0.05])
    vals = kernel_difference_integrals(sig, (2, 3, 4), z, 1.0)
    assert decay_slope((2, 3, 4), vals) <= -0.2


def test_decay_slope_refuses_nonpositive_integrals():
    # a zero integral (e.g. a window outside the slice) has no logarithm; a
    # clamp would report it as steep decay
    assert decay_slope((1, 2, 3), (4.0, 2.0, 1.0)) == pytest.approx(-1.0)
    for bad in ((0.5, 0.25, 0.0), (0.5, -0.25, 0.1), (0.5, math.nan, 0.1)):
        with pytest.raises(PreconditionError):
            decay_slope((1, 2, 9), bad)


# ---------------------------------------------------------------------------
# Exact L2 norm and ensembles
# ---------------------------------------------------------------------------

def test_exact_l2_norm_examples(torus1, su2):
    dual = enumerate_dual(torus1, 8.0)
    assert symbol_linf(identity_symbol(dual)) == 1.0
    dsu = enumerate_dual(su2, spin_cutoff(1))
    blocks = [np.zeros((d, d), complex) for d in dsu.dims]
    blocks[index_of(dsu, 0.5)] = np.diag([2.0, 0.5]).astype(complex)
    assert abs(symbol_linf(Symbol.from_blocks(dsu, blocks)) - 2.0) < 1e-15


def test_ensemble_kinds_and_determinism(torus1):
    dual = enumerate_dual(torus1, 16.0)
    sig = build_spectral_symbol(lambda lam: lam ** (1j), dual)
    for kind in ("gaussian-coefficients", "dirichlet-kernels", "translated-windows",
                 "adjoint-dirichlet", "directed-irrep"):
        cfg = EnsembleConfig(kind, 4)
        m1 = ensemble_member(cfg, 1, dual, np.random.default_rng([3, 0, 1]), sig)
        m2 = ensemble_member(cfg, 1, dual, np.random.default_rng([3, 0, 1]), sig)
        assert max(np.max(np.abs(a - b)) for a, b in zip(m1.blocks, m2.blocks)) == 0.0
        assert plancherel_norm(m1) > 0
    for kind in multipliers.SYMBOL_ENSEMBLE_KINDS:
        with pytest.raises(PreconditionError, match="need the symbol"):
            ensemble_member(EnsembleConfig(kind, 4), 1, dual, np.random.default_rng([3, 0, 1]))
    with pytest.raises(ConfigurationError):
        EnsembleConfig("bogus", 4)
    with pytest.raises(ConfigurationError, match="count"):
        EnsembleConfig("gaussian-coefficients", 0)


@pytest.mark.parametrize("kind,top", [("torus", 32.0), ("torus", 64.0), ("su2", 7.5), ("su2", 31.5)])
def test_translated_windows_are_never_zero(kind, top):
    # the top window of these slices (T^1 cutoffs, SU(2) top spins) is zero at
    # every eigenvalue; no member may pick it
    group = make_group(kind, 1 if kind == "torus" else 3)
    dual = enumerate_dual(group, top if kind == "torus" else spin_cutoff(top))
    cfg = EnsembleConfig("translated-windows", 6)
    for index in range(cfg.count):
        member = ensemble_member(cfg, index, dual, np.random.default_rng([4, 0, index]))
        assert plancherel_norm(member) > 0


def test_sweep_identity_ratios_one(torus1):
    sweeps = boundedness_sweep(
        torus1,
        identity_symbol,
        [NormSpec(0.0, 2.0, 2.0), NormSpec(1.0, 4.0, 1.5)],
        [8.0, 16.0],
        EnsembleConfig("gaussian-coefficients", 3),
        seed=12,
    )
    for sweep in sweeps:
        for ratio in sweep.max_ratios:
            assert abs(ratio - 1.0) <= 1e-9


def test_sweep_refuses_descending_cutoffs(torus1):
    with pytest.raises(PreconditionError, match="ascending"):
        boundedness_sweep(
            torus1, identity_symbol, [NormSpec(0.0, 2.0, 2.0)], [16.0, 8.0], EnsembleConfig("gaussian-coefficients", 1), 0
        )


def test_sweep_determinism(torus1):
    run = lambda: boundedness_sweep(
        torus1,
        lambda d: build_spectral_symbol(lambda lam: lam ** (3j), d),
        [NormSpec(0.0, 4.0, 2.0)],
        [16.0, 32.0],
        EnsembleConfig("gaussian-coefficients", 4),
        seed=99,
    )[0]
    assert run().max_ratios == run().max_ratios


def test_sweep_l2_never_exceeds_exact_norm(torus1):
    # after the F^0_{2,2} <-> L^2 comparison (ratio in [1/sqrt2, 1]) the
    # sweep lower bounds can reach at most sqrt(2) times the exact norm
    builder = lambda d: build_spectral_symbol(lambda lam: (1.0 + 0.5 * np.sin(lam)) * lam ** (2j), d)
    dual = enumerate_dual(torus1, 32.0)
    opnorm = symbol_linf(builder(dual))
    for kind, count in (("gaussian-coefficients", 6), ("dirichlet-kernels", 4), ("directed-irrep", 1)):
        sweep = boundedness_sweep(
            torus1, builder, [NormSpec(0.0, 2.0, 2.0)], [32.0],
            EnsembleConfig(kind, count), seed=21,
        )[0]
        assert sweep.max_ratios[0] / np.sqrt(2.0) <= opnorm + 1e-9
        if kind == "directed-irrep":
            assert sweep.max_ratios[0] >= 0.8 * opnorm


def test_multi_spec_sweep_equals_single_spec_sweeps(torus1, su2):
    # the specs share window passes and aggregates; each must still get
    # exactly its own single-spec ratios and argmax members
    specs = [
        NormSpec(0.0, 2.0, 2.0),
        NormSpec(0.5, 1.0, 4.0),
        NormSpec(0.0, 4.0, 2.0),
        NormSpec(-1.0, 1.5, math.inf),
        NormSpec(-1.0, 4.0, 4.0),
    ]
    builder = lambda d: build_spectral_symbol(lambda lam: (1.0 + 0.5 * np.sin(lam)) * lam ** (2j), d)
    for group, cutoffs in ((torus1, [16.0, 32.0]), (su2, [spin_cutoff(2.5), spin_cutoff(4.5)])):
        run = lambda spec_arg: boundedness_sweep(
            group, builder, spec_arg, cutoffs, EnsembleConfig("gaussian-coefficients", 3), seed=5
        )
        multi = run(specs)
        for spec, sweep in zip(specs, multi):
            single = run([spec])[0]
            assert sweep.spec == spec
            assert sweep.max_ratios == single.max_ratios
            assert sweep.argmax_members == single.argmax_members


def test_weak_numerator_for_p1(torus1):
    # p = 1 rows probe the weak-type ratio; for the identity symbol the weak
    # quasi-norm of Tf = f is Chebyshev-dominated by the strong norm
    sweep = boundedness_sweep(
        torus1,
        identity_symbol,
        [NormSpec(0.0, 1.0, 2.0)],
        [16.0],
        EnsembleConfig("gaussian-coefficients", 4),
        seed=17,
    )[0]
    assert 0.0 < sweep.max_ratios[0] <= 1.0 + 1e-12


def test_p1_sweep_computes_weak_sup_for_numerators_only(torus1, su2, monkeypatch):
    # the denominators are strong norms, so weak_sup runs once per p = 1
    # spec and member on T_sigma f only; the ratios are the bits of the
    # (strong, weak) pairs of both functions from the whole-array oracle
    specs = [NormSpec(0.0, 1.0, 2.0), NormSpec(0.5, 2.0, 2.0), NormSpec(-1.0, 1.0, math.inf)]
    ensemble = EnsembleConfig("gaussian-coefficients", 3)
    builder = lambda d: build_spectral_symbol(lambda lam: lam ** (3j), d)
    calls = []
    weak_sup = spaces.weak_sup
    monkeypatch.setattr(spaces, "weak_sup", lambda agg, w: calls.append(1) or weak_sup(agg, w))
    for group, cutoffs in ((torus1, [16.0, 32.0]), (su2, [spin_cutoff(2.5), spin_cutoff(4.5)])):
        calls.clear()
        sweeps = boundedness_sweep(group, builder, specs, cutoffs, ensemble, seed=3)
        assert len(calls) == len(cutoffs) * ensemble.count * 2
        expected = np.zeros((len(specs), len(cutoffs)))
        for ci, lam in enumerate(cutoffs):
            dual = enumerate_dual(group, lam)
            symbol = builder(dual)
            for mi in range(ensemble.count):
                f = ensemble_member(ensemble, mi, dual, np.random.default_rng([3, ci, mi]), symbol)
                denoms = oracle_tl_norms(f, specs)
                nums = oracle_tl_norms(apply_multiplier(symbol, f), specs)
                for si, ((denom, _), (strong, weak)) in enumerate(zip(denoms, nums)):
                    ratio = (strong if weak is None else weak) / denom
                    expected[si, ci] = max(expected[si, ci], ratio)
        assert [sweep.max_ratios for sweep in sweeps] == [tuple(row) for row in expected.tolist()]
