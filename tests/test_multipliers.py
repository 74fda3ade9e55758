import math

import numpy as np
import pytest

from conftest import index_of, irrep_labels
from liefourier import (
    EnsembleConfig,
    FourierCoefficients,
    NormSpec,
    Symbol,
    apply_multiplier,
    boundedness_sweep,
    build_spectral_symbol,
    enumerate_dual,
    exact_l2_operator_norm,
    identity_symbol,
    kernel_difference_integral,
    make_group,
    plancherel_norm,
    random_coefficients,
)
from liefourier import spaces
from liefourier.dual import spin_cutoff
from liefourier.errors import ConfigurationError, PreconditionError
from liefourier.groups import build_grid, distance_to_identity, inverse, multiply, su2_point_from_distance
from liefourier.multipliers import decay_slope, ensemble_member
from liefourier.spaces import lp_project, psi, window_levels
from liefourier.transform import cached_grid, inverse_evaluate
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
    bound = exact_l2_operator_norm(sig)
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
    for ell in window_levels(dual.cutoff):
        kernel = lp_project(sig, ell)
        acc = [a + b for a, b in zip(acc, kernel.blocks)]
    assert max(np.max(np.abs(a - b)) for a, b in zip(acc, sig.blocks)) < 1e-11


# ---------------------------------------------------------------------------
# Kernel difference integrals
# ---------------------------------------------------------------------------

def test_empty_domain_returns_zero(torus1):
    dual = enumerate_dual(torus1, 16.0)
    kernel = lp_project(identity_symbol(dual), 1)
    grid = cached_grid(torus1, dual.max_band)
    z = np.array([0.3])  # |z| = 0.6 pi, 4|z| = 2.4 pi > pi = diameter
    assert kernel_difference_integral(kernel, z, 1.0, grid) == 0.0


def test_oversampling_oracle_torus(torus1):
    # the coarse-grid quadrature must match a 10x denser reference within 1%
    dual = enumerate_dual(torus1, 64.0)
    sig = identity_symbol(dual)
    kernel = lp_project(sig, 0)
    z = np.array([0.07])
    coarse = kernel_difference_integral(kernel, z, 1.0, cached_grid(torus1, dual.max_band))
    dense = kernel_difference_integral(kernel, z, 1.0, build_grid(torus1, 10 * int(dual.max_band)))
    assert abs(coarse - dense) <= 0.01 * dense


def test_inverse_symmetry_real_kernel(torus1):
    # real symmetric kernels: the integral is invariant under z -> z^-1
    dual = enumerate_dual(torus1, 32.0)
    kernel = lp_project(identity_symbol(dual), 2)
    grid = cached_grid(torus1, dual.max_band)
    z = np.array([0.06])
    zi = np.array([1.0 - 0.06])
    v1 = kernel_difference_integral(kernel, z, 1.0, grid)
    v2 = kernel_difference_integral(kernel, zi, 1.0, grid)
    assert abs(v1 - v2) < 1e-10 * max(1.0, v1)


def test_su2_class_function_path_matches_general(su2):
    # a class-function kernel (scalar blocks) and the same kernel with a
    # negligible non-scalar perturbation must give the same integral: no
    # path may treat scalar blocks differently from general ones
    dual = enumerate_dual(su2, spin_cutoff(3))
    grid = cached_grid(su2, dual.max_band)
    sig = build_spectral_symbol(lambda lam: lam ** (1j), dual)
    kernel = lp_project(sig, 1)
    z = su2_point_from_distance(0.4)
    fast = kernel_difference_integral(kernel, z, 1.0, grid)
    bumped = FourierCoefficients.from_blocks(dual, [b.copy() for b in kernel.blocks])
    idx = index_of(dual, 1.0)
    bumped.blocks[idx][0, 1] += 1e-300  # makes the block non-scalar only
    general = kernel_difference_integral(bumped, z, 1.0, grid)
    assert abs(fast - general) < 1e-9 * max(1.0, fast)


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
    grid = cached_grid(group, dual.max_band)
    sig = Symbol.from_blocks(dual, random_coefficients(dual, np.random.default_rng(13)).blocks)
    kernel = lp_project(sig, 2)
    z = np.array(z)
    value = kernel_difference_integral(kernel, z, 1.0, grid)
    oracle = _pointwise_difference_integral(kernel, z, 1.0, grid)
    assert oracle > 0
    assert abs(value - oracle) <= 1e-10 * oracle


def test_z_must_not_be_identity(torus1):
    dual = enumerate_dual(torus1, 8.0)
    kernel = lp_project(identity_symbol(dual), 1)
    grid = cached_grid(torus1, dual.max_band)
    with pytest.raises(PreconditionError):
        kernel_difference_integral(kernel, np.array([0.0]), 1.0, grid)


def test_torus_decay_trend_small(torus1):
    dual = enumerate_dual(torus1, 128.0)
    grid = cached_grid(torus1, dual.max_band)
    sig = build_spectral_symbol(lambda lam: lam ** (1j), dual)
    z = np.array([0.05])
    vals = [
        kernel_difference_integral(lp_project(sig, ell), z, 1.0, grid)
        for ell in (2, 3, 4)
    ]
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
    assert exact_l2_operator_norm(identity_symbol(dual)) == 1.0
    dsu = enumerate_dual(su2, spin_cutoff(1))
    blocks = [np.zeros((d, d), complex) for d in dsu.dims]
    blocks[index_of(dsu, 0.5)] = np.diag([2.0, 0.5]).astype(complex)
    assert abs(exact_l2_operator_norm(Symbol.from_blocks(dsu, blocks)) - 2.0) < 1e-15


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
    with pytest.raises(ConfigurationError):
        EnsembleConfig("bogus", 4)


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


def test_sweep_determinism(torus1):
    run = lambda: boundedness_sweep(
        torus1,
        lambda d: build_spectral_symbol(lambda lam: lam ** (3j), d),
        NormSpec(0.0, 4.0, 2.0),
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
    opnorm = exact_l2_operator_norm(builder(dual))
    for kind, count in (("gaussian-coefficients", 6), ("dirichlet-kernels", 4), ("directed-irrep", 1)):
        sweep = boundedness_sweep(
            torus1, builder, NormSpec(0.0, 2.0, 2.0), [32.0],
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
            single = run(spec)[0]
            assert sweep.spec == spec
            assert sweep.max_ratios == single.max_ratios
            assert sweep.argmax_members == single.argmax_members


def test_weak_numerator_for_p1(torus1):
    # p = 1 rows probe the weak-type ratio; for the identity symbol the weak
    # quasi-norm of Tf = f is Chebyshev-dominated by the strong norm
    sweep = boundedness_sweep(
        torus1,
        identity_symbol,
        NormSpec(0.0, 1.0, 2.0),
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
