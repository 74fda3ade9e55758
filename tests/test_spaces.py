import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import index_of
from liefourier import (
    FourierCoefficients,
    GridFunction,
    NormSpec,
    default_grid,
    enumerate_dual,
    lebesgue_norm,
    lp_project,
    plancherel_norm,
    random_coefficients,
    triebel_lizorkin_norm,
    weak_tl_norm,
)
from liefourier import spaces
from liefourier.dual import spin_cutoff
from liefourier.errors import PreconditionError
from liefourier.spaces import eta, psi, quadrature_lp, tl_norms, window_levels
from liefourier.transform import inverse_on_grid
from tl_oracle import tl_aggregate, window_samples
from tl_oracle import tl_norms as oracle_tl_norms


# ---------------------------------------------------------------------------
# Partition
# ---------------------------------------------------------------------------

def test_eta_support():
    assert eta(0.49) == 0.0
    assert eta(2.01) == 0.0
    lam = np.linspace(0.55, 1.95, 64)
    vals = eta(lam)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    assert np.max(vals) > 0.5


def test_psi0_construction():
    assert psi(0, 0.5) == 1.0
    assert psi(0, 1.0) == 1.0
    assert psi(0, 2.5) == 0.0


@pytest.mark.parametrize("lam", [1.0, 3.7, 100.0])
def test_partition_sums_to_one(lam):
    total = sum(psi(ell, lam) for ell in range(20))
    assert abs(total - 1.0) < 1e-12


def test_dyadic_sum_identity():
    # sum over j in Z of eta(2^-j lam) telescopes to 1 for lam > 0
    lam = np.geomspace(1e-3, 1e6, 200)
    total = np.zeros_like(lam)
    for j in range(-15, 25):
        total += eta(lam / 2.0**j)
    assert np.max(np.abs(total - 1.0)) < 1e-12


@given(lam=st.floats(1.0, 1e6))
@settings(max_examples=80, deadline=None)
def test_partition_sum_property(lam):
    total = sum(psi(ell, lam) for ell in range(22))
    assert abs(total - 1.0) < 1e-12


def test_levels_skip_vanishing_pieces():
    levels = window_levels(16.0)
    assert levels[0] == 0
    assert 2.0 ** (levels[-1] - 1) < 16.0 * (1 + 1e-9)
    assert all(2.0 ** (ell - 1) < 16.0 * (1 + 1e-9) for ell in levels)


# ---------------------------------------------------------------------------
# Projections
# ---------------------------------------------------------------------------

def test_reconstruction_from_projections(torus1):
    dual = enumerate_dual(torus1, 20.0)
    rng = np.random.default_rng(0)
    coeffs = random_coefficients(dual, rng)
    acc = [np.zeros_like(b) for b in coeffs.blocks]
    for ell in window_levels(dual.cutoff):
        piece = lp_project(coeffs, ell)
        acc = [a + p for a, p in zip(acc, piece.blocks)]
    worst = max(np.max(np.abs(a - b)) for a, b in zip(acc, coeffs.blocks))
    assert worst < 1e-11


def test_projection_of_disjoint_support_is_zero(torus1):
    dual = enumerate_dual(torus1, 40.0)
    blocks = [
        (np.eye(1, dtype=complex) if 16.0 <= lam <= 40.0 else np.zeros((1, 1), complex))
        for lam in dual.eigenvalues
    ]
    coeffs = FourierCoefficients.from_blocks(dual, blocks)
    piece = lp_project(coeffs, 2)  # window (2, 8), disjoint from [16, 40]
    assert all(np.max(np.abs(b)) < 1e-15 for b in piece.blocks)


def test_dirichlet_projection_keeps_exact_band(torus1):
    dual = enumerate_dual(torus1, 32.0)
    dirichlet = FourierCoefficients.from_blocks(dual, [np.eye(1, dtype=complex) for _ in range(len(dual))])
    piece = lp_project(dirichlet, 2)
    for lam, blk in zip(dual.eigenvalues, piece.blocks):
        expected = eta(lam / 4.0)
        assert abs(blk[0, 0] - expected) < 1e-14
        if not 2.0 < lam < 8.0:
            assert abs(blk[0, 0]) < 1e-15


# ---------------------------------------------------------------------------
# Lebesgue norms
# ---------------------------------------------------------------------------

def test_lebesgue_constant_function(torus1):
    grid = default_grid(enumerate_dual(torus1, 8.0))
    one = GridFunction(grid, np.ones(len(grid), complex))
    for p in (1.0, 2.0, 4.0, math.inf):
        assert abs(lebesgue_norm(one, p) - 1.0) < 1e-13


def test_lebesgue_p2_matches_plancherel(torus1):
    dual = enumerate_dual(torus1, 16.0)
    grid = default_grid(dual)
    coeffs = random_coefficients(dual, np.random.default_rng(1))
    vals = inverse_on_grid(coeffs, grid)
    assert abs(lebesgue_norm(vals, 2.0) - plancherel_norm(coeffs)) < 1e-10


def test_lebesgue_l1_closed_form(torus1):
    # f(x) = exp(2 pi i x) + 1 has |f| = 2|cos(pi x)| and integral 4/pi;
    # |f| has a kink, so the quadrature needs a grid well beyond the band
    from liefourier.groups import build_grid

    grid = build_grid(torus1, 4096)
    f = GridFunction(grid, np.exp(2j * np.pi * grid.points[:, 0]) + 1.0)
    assert abs(lebesgue_norm(f, 1.0) - 4.0 / np.pi) < 1e-6


def test_lebesgue_validates_p(torus1):
    grid = default_grid(enumerate_dual(torus1, 4.0))
    with pytest.raises(PreconditionError):
        lebesgue_norm(GridFunction(grid, np.zeros(len(grid), complex)), 0.5)


def test_real_lp_of_aggregate_equals_complex_cast(su2):
    # the real samples give bit for bit what their complex copy gives
    dual = enumerate_dual(su2, spin_cutoff(5.5))
    grid = default_grid(dual)
    levels, mods = window_samples(random_coefficients(dual, np.random.default_rng(3)))
    agg = tl_aggregate(levels, mods, 0.5, 2.0)
    for p in (1.0, 1.5, 2.0, 4.0, math.inf):
        assert quadrature_lp(agg, grid.weights, p) == lebesgue_norm(GridFunction(grid, agg.astype(complex)), p)


# ---------------------------------------------------------------------------
# Triebel-Lizorkin norms
# ---------------------------------------------------------------------------

def test_norm_spec_validation():
    NormSpec(0.0, 1.0, 2.0)
    NormSpec(-1.0, 4.0, math.inf)
    with pytest.raises(PreconditionError):
        NormSpec(0.0, 0.5, 2.0)
    with pytest.raises(PreconditionError):
        NormSpec(0.0, 2.0, 1.0)
    with pytest.raises(PreconditionError):
        NormSpec(0.0, math.inf, 2.0)
    for r in (math.nan, math.inf, -math.inf):
        with pytest.raises(PreconditionError):
            NormSpec(r, 2.0, 2.0)


def test_single_irrep_function_factors_exactly(torus1):
    # one spectral value lam0: the aggregate is (sum_l psi_l(lam0)^q)^(1/q)
    # times |f|, so the norm is that constant times the L^p norm; at most two
    # adjacent windows overlap and the constant sits in [2^(1/q - 1), 1]
    dual = enumerate_dual(torus1, 16.0)
    grid = default_grid(dual)
    pos = index_of(dual, (6,))
    lam0 = dual.eigenvalues[pos]
    blocks = [np.zeros((1, 1), complex) for _ in range(len(dual))]
    blocks[pos] = np.eye(1, dtype=complex)
    coeffs = FourierCoefficients.from_blocks(dual, blocks)
    for p in (1.5, 2.0, 4.0):
        for q in (1.5, 2.0, 4.0):
            spec = NormSpec(0.0, p, q)
            weights = [psi(ell, lam0) for ell in window_levels(dual.cutoff)]
            const = float(np.sum(np.asarray(weights) ** q) ** (1.0 / q))
            assert 2.0 ** (1.0 / q - 1.0) - 1e-12 <= const <= 1.0 + 1e-12
            tl = triebel_lizorkin_norm(coeffs, spec)
            lp = lebesgue_norm(inverse_on_grid(coeffs, grid), p)
            assert abs(tl - const * lp) < 1e-10 * max(1.0, lp)


def test_f022_two_sided_l2_comparison(torus1, su2):
    rng = np.random.default_rng(2)
    spec = NormSpec(0.0, 2.0, 2.0)
    for group, cutoff in ((torus1, 32.0), (su2, spin_cutoff(4))):
        dual = enumerate_dual(group, cutoff)
        for _ in range(5):
            coeffs = random_coefficients(dual, rng)
            tl = triebel_lizorkin_norm(coeffs, spec)
            l2 = plancherel_norm(coeffs)
            ratio = tl / l2
            assert 1.0 / math.sqrt(2.0) - 1e-6 <= ratio <= 1.0 + 1e-6


def test_q_monotonicity(torus1):
    dual = enumerate_dual(torus1, 32.0)
    rng = np.random.default_rng(3)
    for _ in range(5):
        coeffs = random_coefficients(dual, rng)
        norms = [
            triebel_lizorkin_norm(coeffs, NormSpec(0.0, 2.0, q))
            for q in (1.5, 2.0, 4.0, math.inf)
        ]
        for a, b in zip(norms, norms[1:]):
            assert b <= a * (1 + 1e-12)


def test_r_monotonicity(torus1):
    dual = enumerate_dual(torus1, 32.0)
    rng = np.random.default_rng(4)
    for _ in range(5):
        coeffs = random_coefficients(dual, rng)
        norms = [
            triebel_lizorkin_norm(coeffs, NormSpec(r, 2.0, 2.0))
            for r in (-1.0, 0.0, 1.0)
        ]
        assert norms[0] <= norms[1] * (1 + 1e-12) <= norms[2] * (1 + 1e-12) ** 2


def test_q_infinity_embedding_pointwise(torus1):
    # the ell^q -> ell^inf inequality holds per sample point
    dual = enumerate_dual(torus1, 32.0)
    coeffs = random_coefficients(dual, np.random.default_rng(5))
    levels, mods = window_samples(coeffs)
    for q in (1.5, 2.0, 4.0):
        agg_q = tl_aggregate(levels, mods, 0.0, q)
        agg_inf = tl_aggregate(levels, mods, 0.0, math.inf)
        assert np.all(agg_inf <= agg_q * (1 + 1e-12))


def test_tl_norms_equal_one_aggregate_per_spec(torus1, torus2, su2):
    # one spec list with an (r, q) repeated at another p, a q shared by two
    # r, p = 1 specs and a q = inf spec; the streamed windows must give
    # exactly what one whole-array aggregate per spec gives, also where the
    # top window vanishes and is skipped (T^1 at 32, T^2 at 16, SU(2) at
    # spin 7.5)
    specs = [
        NormSpec(0.5, 2.0, 2.0),
        NormSpec(0.0, 1.0, 4.0),
        NormSpec(0.5, 4.0, 2.0),
        NormSpec(-1.0, 1.5, math.inf),
        NormSpec(0.5, 1.0, 2.0),
        NormSpec(-1.0, 2.0, 2.0),
        NormSpec(1.5, 1.0, 3.0),
    ]
    cases = ((torus1, 32.0), (torus2, 16.0), (su2, spin_cutoff(4.5)), (su2, spin_cutoff(7.5)))
    for group, cutoff in cases:
        dual = enumerate_dual(group, cutoff)
        coeffs = random_coefficients(dual, np.random.default_rng(8))
        expected = oracle_tl_norms(coeffs, specs)
        assert tl_norms(coeffs, specs) == expected
        assert tl_norms(coeffs, specs, weak=False) == [(strong, None) for strong, _ in expected]
        for spec, (strong, weak) in zip(specs, expected):
            assert triebel_lizorkin_norm(coeffs, spec) == strong
            if spec.p == 1.0:
                assert weak_tl_norm(coeffs, spec) == weak


def test_tl_norms_skip_only_vanishing_windows(torus1, su2, monkeypatch):
    # the streamed sum inverts exactly the windows whose psi is nonzero at
    # some eigenvalue of the slice
    for group, cutoff, skipped in ((torus1, 32.0, 1), (torus1, 20.0, 0), (su2, spin_cutoff(7.5), 1)):
        dual = enumerate_dual(group, cutoff)
        coeffs = random_coefficients(dual, np.random.default_rng(2))
        calls = []
        monkeypatch.setattr(spaces, "inverse_on_grid", lambda c, g: calls.append(1) or inverse_on_grid(c, g))
        tl_norms(coeffs, [NormSpec(0.0, 2.0, 2.0)])
        assert len(calls) == len(window_levels(dual.cutoff)) - skipped


def test_tl_norms_hold_no_levels_by_grid_array(su2):
    # numpy reports its buffers to tracemalloc; with a warm grid and plan
    # one spec must peak at a few grid-sized arrays (the inverse's complex
    # output and its intermediate, the modulus, one term and one
    # accumulator), well below the 7 x N x 8 bytes the window rows alone
    # took in the whole-array path
    dual = enumerate_dual(su2, spin_cutoff(15.5))
    coeffs = random_coefficients(dual, np.random.default_rng(4))
    spec = NormSpec(0.5, 2.0, 2.0)
    expected = tl_norms(coeffs, [spec])  # warms the grid and the plan
    n = len(default_grid(dual))
    tracemalloc.start()
    try:
        assert tl_norms(coeffs, [spec]) == expected
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * n * 8, f"peak {peak / (n * 8):.1f} x N x 8 bytes"


# ---------------------------------------------------------------------------
# Weak norm
# ---------------------------------------------------------------------------

def test_weak_norm_constant_level_set(torus1):
    # constant aggregate c has sup_t t|{g > t}| = c (approached at t -> c-)
    dual = enumerate_dual(torus1, 2.0)
    blocks = [
        (np.eye(1, dtype=complex) if lam == 1.0 else np.zeros((1, 1), complex))
        for lam in dual.eigenvalues
    ]
    coeffs = FourierCoefficients.from_blocks(dual, blocks)  # constant function 1
    val = weak_tl_norm(coeffs, NormSpec(0.0, 1.0, 2.0))
    assert abs(val - 1.0) < 1e-12


def test_weak_norm_zero(torus1):
    dual = enumerate_dual(torus1, 4.0)
    zero = FourierCoefficients.from_blocks(dual, [np.zeros((1, 1), complex) for _ in range(len(dual))])
    assert weak_tl_norm(zero, NormSpec(0.0, 1.0, 2.0)) == 0.0


def test_weak_below_strong_chebyshev(torus1, su2):
    rng = np.random.default_rng(6)
    for group, cutoff in ((torus1, 32.0), (su2, spin_cutoff(3))):
        dual = enumerate_dual(group, cutoff)
        for q in (1.5, 2.0, 4.0):
            spec = NormSpec(0.0, 1.0, q)
            coeffs = random_coefficients(dual, rng)
            weak = weak_tl_norm(coeffs, spec)
            strong = triebel_lizorkin_norm(coeffs, spec)
            assert weak <= strong * (1 + 1e-12)


def test_weak_norm_requires_p1(torus1):
    dual = enumerate_dual(torus1, 4.0)
    coeffs = random_coefficients(dual, np.random.default_rng(7))
    with pytest.raises(PreconditionError):
        weak_tl_norm(coeffs, NormSpec(0.0, 2.0, 2.0))
