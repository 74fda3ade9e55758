import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import index_of
from liefourier import (
    EnsembleConfig,
    FourierCoefficients,
    GridFunction,
    NormSpec,
    apply_difference,
    apply_multiplier,
    build_spectral_symbol,
    default_grid,
    enumerate_dual,
    lp_project,
    make_group,
    plancherel_norm,
    random_coefficients,
)
from liefourier import spaces, transform
from liefourier.dual import spin_cutoff
from liefourier.errors import PreconditionError
from liefourier.multipliers import ENSEMBLE_KINDS, ensemble_member
from liefourier.spaces import _transition, _window_levels, eta, psi, quadrature_lp, tl_norms, weak_sup, windows
from liefourier.symbols import check_marcinkiewicz, sign_symbol
from liefourier.transform import _get_plan, _su2_class_rule, inverse_on_grid, inverse_slabs
from su2_plan_oracle import WholeArrayPlan
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
    with pytest.raises(PreconditionError, match="window index"):
        psi(-1, 1.0)


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
    levels = _window_levels(16.0)
    assert levels[0] == 0
    assert 2.0 ** (levels[-1] - 1) < 16.0 * (1 + 1e-9)
    assert all(2.0 ** (ell - 1) < 16.0 * (1 + 1e-9) for ell in levels)


def test_windows_are_the_support_levels_not_zero_on_the_slice(torus1, su2):
    # no eigenvalue of T^1 at cutoff 32 reaches the support of psi_6, and
    # psi_4 rounds to zero at the top <xi> = 8.047 of SU(2) at spin 7.5
    for group, cutoff, dropped in ((torus1, 32.0, {6}), (torus1, 20.0, set()), (su2, spin_cutoff(7.5), {4})):
        dual = enumerate_dual(group, cutoff)
        pairs = list(windows(dual))
        assert [ell for ell, _ in pairs] == [ell for ell in _window_levels(dual.cutoff) if ell not in dropped]
        for ell, window in pairs:
            assert np.array_equal(window, psi(ell, dual.eigenvalues))


def test_psi_scales_by_exact_powers_of_two():
    # lam * 2**-ell is the same bits as lam / 2.0**ell wherever 2.0**ell is
    # a float, and stays defined past it: a window symbol's ell is unbounded
    rng = np.random.default_rng(0)
    for level in range(1024):
        lam = np.ldexp(rng.uniform(0.4, 1.99, 200), level)
        old = _transition(lam) if level == 0 else eta(lam / 2.0**level)
        assert np.array_equal(psi(level, lam), old), level
    lam = np.array([1.0, 1e300, 1.7e308])
    assert psi(1024, lam)[2] > 0.0  # 1.7e308 lies in the support (2**1023, 2**1025)
    for level in (1100, 2000, 10**30):
        assert np.array_equal(psi(level, lam), np.zeros(3))


def test_psi_and_lp_project_take_numpy_integer_levels(torus1):
    # a level read from a numpy array is an np.int64, which math.ldexp refuses
    lam = np.linspace(0.0, 9.0, 37)
    for level in (0, 2):
        assert np.array_equal(psi(np.int64(level), lam), psi(level, lam))
    with pytest.raises(TypeError):
        psi(2.0, lam)
    coeffs = random_coefficients(enumerate_dual(torus1, 8.0), np.random.default_rng(0))
    got, want = lp_project(coeffs, np.int64(2)), lp_project(coeffs, 2)
    assert all(np.array_equal(a, b) for a, b in zip(got.stacks, want.stacks))


# ---------------------------------------------------------------------------
# Projections
# ---------------------------------------------------------------------------

def test_reconstruction_from_projections(torus1):
    dual = enumerate_dual(torus1, 20.0)
    rng = np.random.default_rng(0)
    coeffs = random_coefficients(dual, rng)
    acc = [np.zeros_like(b) for b in coeffs.blocks]
    for ell, _ in windows(dual):
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
    one = np.ones(len(grid))
    for p in (1.0, 2.0, 4.0, math.inf):
        assert abs(quadrature_lp(one, grid.weights, p) - 1.0) < 1e-13


def test_lebesgue_p2_matches_plancherel(torus1):
    dual = enumerate_dual(torus1, 16.0)
    grid = default_grid(dual)
    coeffs = random_coefficients(dual, np.random.default_rng(1))
    mods = np.abs(inverse_on_grid(coeffs, grid).values)
    assert abs(quadrature_lp(mods, grid.weights, 2.0) - plancherel_norm(coeffs)) < 1e-10


def test_lebesgue_l1_closed_form(torus1):
    # f(x) = exp(2 pi i x) + 1 has |f| = 2|cos(pi x)| and integral 4/pi;
    # |f| has a kink, so the quadrature needs a grid well beyond the band
    from liefourier.groups import build_grid

    grid = build_grid(torus1, 4096)
    mods = np.abs(np.exp(2j * np.pi * grid.points[:, 0]) + 1.0)
    assert abs(quadrature_lp(mods, grid.weights, 1.0) - 4.0 / np.pi) < 1e-6


def test_lebesgue_validates_p(torus1):
    grid = default_grid(enumerate_dual(torus1, 4.0))
    with pytest.raises(PreconditionError):
        quadrature_lp(np.zeros(len(grid)), grid.weights, 0.5)


def test_real_lp_of_aggregate_equals_complex_cast(su2):
    # the real samples give bit for bit what their complex copy gives
    dual = enumerate_dual(su2, spin_cutoff(5.5))
    grid = default_grid(dual)
    levels, mods = window_samples(random_coefficients(dual, np.random.default_rng(3)))
    agg = tl_aggregate(levels, mods, 0.5, 2.0)
    for p in (1.0, 1.5, 2.0, 4.0, math.inf):
        cast = np.abs(GridFunction(grid, agg.astype(complex)).values)
        assert quadrature_lp(agg, grid.weights, p) == quadrature_lp(cast, grid.weights, p)


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
            weights = [psi(ell, lam0) for ell in _window_levels(dual.cutoff)]
            const = float(np.sum(np.asarray(weights) ** q) ** (1.0 / q))
            assert 2.0 ** (1.0 / q - 1.0) - 1e-12 <= const <= 1.0 + 1e-12
            [(tl, _)] = tl_norms(coeffs, [spec], weak=False)
            lp = quadrature_lp(np.abs(inverse_on_grid(coeffs, grid).values), grid.weights, p)
            assert abs(tl - const * lp) < 1e-10 * max(1.0, lp)


def test_f022_two_sided_l2_comparison(torus1, su2):
    rng = np.random.default_rng(2)
    spec = NormSpec(0.0, 2.0, 2.0)
    for group, cutoff in ((torus1, 32.0), (su2, spin_cutoff(4))):
        dual = enumerate_dual(group, cutoff)
        for _ in range(5):
            coeffs = random_coefficients(dual, rng)
            [(tl, _)] = tl_norms(coeffs, [spec], weak=False)
            l2 = plancherel_norm(coeffs)
            ratio = tl / l2
            assert 1.0 / math.sqrt(2.0) - 1e-6 <= ratio <= 1.0 + 1e-6


@pytest.mark.parametrize("kind,n,cutoff", [("torus", 1, 64.0), ("torus", 2, 24.0), ("su2", 3, spin_cutoff(15.5))])
def test_f_r22_equals_plancherel_identity(kind, n, cutoff):
    # the default grid integrates |psi_l f|^2 exactly, so ||f||_{F^r_{2,2}}^2
    # = sum_xi d_xi ||fhat(xi)||_HS^2 sum_l 2^(2lr) psi_l(<xi>)^2
    dual = enumerate_dual(make_group(kind, n), cutoff)
    coeffs = random_coefficients(dual, np.random.default_rng([6, n]))
    hs = np.concatenate([np.sum(np.abs(stack) ** 2, axis=(1, 2)) for stack in coeffs.stacks])
    for r in (-1.0, 0.0, 1.0):
        weight = sum(2.0 ** (2 * ell * r) * window**2 for ell, window in windows(dual))
        expected = math.sqrt(np.sum(dual.dims * hs * weight))
        [(tl, _)] = tl_norms(coeffs, [NormSpec(r, 2.0, 2.0)], weak=False)
        assert abs(tl - expected) <= 1e-12 * expected, r


def test_q_monotonicity(torus1):
    dual = enumerate_dual(torus1, 32.0)
    rng = np.random.default_rng(3)
    for _ in range(5):
        coeffs = random_coefficients(dual, rng)
        specs = [NormSpec(0.0, 2.0, q) for q in (1.5, 2.0, 4.0, math.inf)]
        norms = [strong for strong, _ in tl_norms(coeffs, specs, weak=False)]
        for a, b in zip(norms, norms[1:]):
            assert b <= a * (1 + 1e-12)


def test_r_monotonicity(torus1):
    dual = enumerate_dual(torus1, 32.0)
    rng = np.random.default_rng(4)
    for _ in range(5):
        coeffs = random_coefficients(dual, rng)
        specs = [NormSpec(r, 2.0, 2.0) for r in (-1.0, 0.0, 1.0)]
        norms = [strong for strong, _ in tl_norms(coeffs, specs, weak=False)]
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
            assert tl_norms(coeffs, [spec]) == [(strong, weak)]


@pytest.mark.parametrize(
    "spec",
    [
        pytest.param(NormSpec(2000.0, 2.0, 2.0), id="scales"),  # 2^(ell r) past the float range
        pytest.param(NormSpec(200.0, 2.0, math.inf), id="scales-q-inf"),
        pytest.param(NormSpec(1.0, 1.0, 300.0), id="q-th-powers"),
    ],
)
def test_tl_norms_refuse_a_norm_that_overflows(torus1, spec):
    dual = enumerate_dual(torus1, 64.0)
    coeffs = random_coefficients(dual, np.random.default_rng([0, 0]))
    with pytest.raises(FloatingPointError, match=f"r = {spec.r:g}, p = {spec.p:g}, q = {spec.q:g}"):
        tl_norms(coeffs, [NormSpec(0.0, 2.0, 2.0), spec])


def test_tl_norms_skip_only_vanishing_windows(torus1, su2, monkeypatch):
    # the streamed sum synthesises exactly the windows whose psi is nonzero at
    # some eigenvalue of the slice, each once
    for group, cutoff, skipped in ((torus1, 32.0, 1), (torus1, 20.0, 0), (su2, spin_cutoff(7.5), 1)):
        dual = enumerate_dual(group, cutoff)
        coeffs = random_coefficients(dual, np.random.default_rng(2))
        calls = []
        monkeypatch.setattr(spaces, "inverse_slabs", lambda c, g: calls.append(1) or inverse_slabs(c, g))
        tl_norms(coeffs, [NormSpec(0.0, 2.0, 2.0)])
        assert len(calls) == len(_window_levels(dual.cutoff)) - skipped


def _slabs_of(monkeypatch, dual, count):
    """Patch the SU(2) plan's workspace constant to 1 / count of a complex array of
    ``dual``'s default grid, so the plan that ``dual`` builds next streams ``count`` slabs."""
    monkeypatch.setattr(transform, "_SLAB_BYTES", -(-len(default_grid(dual)) * 16 // count))


def test_tl_norms_hold_no_levels_by_grid_array(su2, monkeypatch):
    # numpy reports its buffers to tracemalloc; with a warm grid and plan on
    # 16 slabs, one spec peaks at the real accumulator and the L^p sum's
    # temporary (1 + 1 x N x 8 bytes), next to the compact class arrays (about
    # 1 x N x 8 bytes, freed before the sum) and the slab workspace while the
    # windows stream: measured 2.69 x N x 8 bytes, against 5.7 when each
    # window was synthesised on the whole grid and 7 for the window rows alone
    # of the whole-array path
    dual = enumerate_dual(su2, spin_cutoff(15.5))
    _slabs_of(monkeypatch, dual, 16)
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
    assert peak < 3 * n * 8, f"peak {peak / (n * 8):.2f} x N x 8 bytes"


def test_weak_tl_norm_holds_no_more_than_the_strong_norm(su2, monkeypatch):
    # a p = 1 spec with a warm grid and plan on 16 slabs: the weak sup holds the accumulator,
    # the sort keys and their classes (2.13 x N x 8 bytes), then the sorted samples, so the
    # peak stays that of the streamed windows, measured 2.60 x N x 8 bytes as for p = 2
    # (3.08 with the gathered weights and the sorted samples held whole)
    dual = enumerate_dual(su2, spin_cutoff(15.5))
    _slabs_of(monkeypatch, dual, 16)
    coeffs = random_coefficients(dual, np.random.default_rng(4))
    spec = NormSpec(0.0, 1.0, 2.0)
    expected = tl_norms(coeffs, [spec])  # warms the grid and the plan
    n = len(default_grid(dual))
    tracemalloc.start()
    try:
        assert tl_norms(coeffs, [spec]) == expected
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.7 * n * 8, f"peak {peak / (n * 8):.2f} x N x 8 bytes"


@pytest.mark.parametrize("spin", [8.0, 15.5])
def test_streamed_tl_norms_equal_the_whole_array_path(su2, spin, monkeypatch):
    # five slabs per window against every window synthesised on the whole grid
    # at once (transform's whole-array plan arithmetic) and one (levels x N)
    # aggregate: the same bits at 15.5, where the two inverses are bitwise
    # equal; at 8 (odd Nb) BLAS may round a product's last rows apart
    dual = enumerate_dual(su2, spin_cutoff(spin))
    _slabs_of(monkeypatch, dual, 5)
    coeffs = random_coefficients(dual, np.random.default_rng(7))
    specs = [NormSpec(0.0, 2.0, 2.0), NormSpec(0.5, 1.0, 2.0), NormSpec(-1.0, 3.0, math.inf), NormSpec(1.0, 1.0, 3.0)]
    got = tl_norms(coeffs, specs)
    plan = _get_plan(default_grid(dual), dual)
    assert len(plan.slabs) == 5
    whole = WholeArrayPlan(plan)
    want = oracle_tl_norms(coeffs, specs, lambda c, grid: whole.inverse_on_grid(c.stacks))
    for (strong, weak), (strong_o, weak_o) in zip(got, want):
        if spin == 15.5:
            assert (strong, weak) == (strong_o, weak_o)
        else:
            assert abs(strong - strong_o) <= 1e-14 * strong_o
            assert weak is weak_o is None or abs(weak - weak_o) <= 1e-14 * weak_o


def _central_members(dual):
    """Class functions on an SU(2) slice: a dirichlet-kernels and an
    adjoint-dirichlet member, each with its images under the wave symbol and
    under power_it (t = 1), every one of them central by construction: the
    members and the images record their scalars."""
    out = []
    for profile in (lambda lam: np.exp(1j * lam), lambda lam: lam ** 1j):
        symbol = build_spectral_symbol(profile, dual)
        for kind in ("dirichlet-kernels", "adjoint-dirichlet"):
            f = ensemble_member(EnsembleConfig(kind, 3), 1, dual, np.random.default_rng(0), symbol)
            out += [f, apply_multiplier(symbol, f)]
    return out


def _grid_calls(monkeypatch):
    calls = []
    monkeypatch.setattr(spaces, "inverse_slabs", lambda c, g: calls.append(1) or inverse_slabs(c, g))
    return calls


@pytest.mark.parametrize("spin", [3.5, 7.5, 15.5, 31.5])
def test_central_su2_norms_equal_the_grid_path(su2, spin, monkeypatch):
    # class functions with even p and q = 2 take the theta rule, which the
    # 3-D grid path matches within 1e-12 for (0,2,2), exact on both, and for
    # (0.5,4,2) (measured within 2.8e-13); (r,2,2) is the Plancherel sum
    # (sum_ell 2^(2 ell r) sum_l d_l^2 |c_l psi_ell|^2)^(1/2)
    dual = enumerate_dual(su2, spin_cutoff(spin))
    specs = [NormSpec(0.0, 2.0, 2.0), NormSpec(0.5, 4.0, 2.0), NormSpec(-1.0, 2.0, 2.0), NormSpec(1.0, 2.0, 2.0)]
    calls = _grid_calls(monkeypatch)
    for f in _central_members(dual):
        fast = tl_norms(f, specs)
        assert calls == []
        slow = tl_norms(FourierCoefficients(dual, f.stacks), specs)  # the same blocks, nothing recorded
        assert len(calls) == len(list(windows(dual)))
        del calls[:]
        for (a, weak), (b, _) in zip(fast, slow):
            assert weak is None and abs(a - b) <= 1e-12 * b
        c = np.concatenate([np.trace(stack, axis1=1, axis2=2) for stack in f.stacks]) / dual.dims
        for spec, (strong, _) in zip(specs, fast):
            if spec.p == 2.0:
                terms = [2.0 ** (2 * ell * spec.r) * np.abs(dual.dims * c * w) ** 2 for ell, w in windows(dual)]
                assert abs(strong - math.sqrt(np.sum(terms))) <= 1e-12 * strong


def test_central_su2_norms_are_exact_at_high_even_p(su2, monkeypatch):
    # n = p top / 2 + 2 nodes integrate agg^p sin^2 exactly, so twice the
    # nodes give the same norm; the default grid, which is not exact past
    # p = 4, is off by up to 3.9e-4 on these members
    specs = [NormSpec(0.0, 6.0, 2.0), NormSpec(0.5, 8.0, 2.0)]
    for spin in (7.5, 31.5):
        members = _central_members(enumerate_dual(su2, spin_cutoff(spin)))
        norms = [tl_norms(f, specs) for f in members]
        with monkeypatch.context() as m:
            m.setattr(spaces, "_su2_class_rule", lambda dims, n: _su2_class_rule(dims, 2 * n))
            doubled = [tl_norms(f, specs) for f in members]
        for pairs, twice in zip(norms, doubled):
            for (a, _), (b, _) in zip(pairs, twice):
                assert abs(a - b) <= 1e-13 * b


def test_class_functions_record_their_scalars_by_construction(torus1, su2):
    # the constructors that know a class function record its scalars, and
    # hold nothing else; every other member, a difference, a spectral symbol
    # applied to a non-central f and the adjoint of a non-spectral symbol
    # record nothing
    dual = enumerate_dual(su2, spin_cutoff(7.5))
    rng = np.random.default_rng(0)
    symbol = build_spectral_symbol(lambda lam: lam**1j, dual)
    members = {kind: ensemble_member(EnsembleConfig(kind, 3), 1, dual, rng, symbol) for kind in ENSEMBLE_KINDS}
    central = [
        symbol,
        lp_project(symbol, 2),
        spaces._weigh(symbol, np.linspace(-1.0, 1.0, len(dual))),
        members["dirichlet-kernels"],
        members["adjoint-dirichlet"],
        apply_multiplier(symbol, members["dirichlet-kernels"]),
        lp_project(apply_multiplier(symbol, members["adjoint-dirichlet"]), 3),
        FourierCoefficients(dual, scalars=np.arange(len(dual)) * (1 + 2j)),
    ]
    assert all(f.scalars is not None for f in central)
    assert np.array_equal(members["adjoint-dirichlet"].scalars[:3], symbol.scalars[:3].conj())
    torus = enumerate_dual(torus1, 16.0)
    others = [
        members["gaussian-coefficients"],
        members["translated-windows"],
        members["directed-irrep"],
        apply_difference(symbol, (1, 0, 0, 0)),
        apply_multiplier(symbol, members["gaussian-coefficients"]),
        lp_project(members["gaussian-coefficients"], 2),
        ensemble_member(EnsembleConfig("adjoint-dirichlet", 1), 0, torus, rng, sign_symbol(torus)),
    ]
    assert all(f.scalars is None for f in others)
    for wrong in (np.ones(len(dual) - 1), np.ones((len(dual), 1))):
        with pytest.raises(PreconditionError):
            FourierCoefficients(dual, scalars=wrong)
    with pytest.raises(PreconditionError):
        FourierCoefficients(dual)  # neither blocks nor scalars
    with pytest.raises(PreconditionError):
        FourierCoefficients(dual, symbol.stacks, scalars=symbol.scalars)  # both


def test_a_recorded_class_function_holds_its_scalars_alone(su2):
    # an object that records its scalars stores no blocks: its stacks are
    # c I per run, built afresh on each read and read-only, so no write can
    # leave the record stale: the write below, were it allowed, would leave
    # check_marcinkiewicz at 1.0000000000000002 while the edited blocks give 20.35
    dual = enumerate_dual(su2, spin_cutoff(7.5))
    symbol = build_spectral_symbol(lambda lam: lam**1j, dual)
    assert set(vars(symbol)) == {"dual", "scalars", "valid"}
    want = check_marcinkiewicz(symbol, 2)
    for blocks in (symbol.stacks[5], symbol.block(5)):
        with pytest.raises(ValueError, match="read-only"):
            blocks[..., 0, 1] = 1.0
    assert check_marcinkiewicz(symbol, 2) == want
    assert symbol.stacks[5] is not symbol.stacks[5]
    assert all(
        np.array_equal(stack, c * np.eye(d)) and not stack.flags.writeable
        for c, d, stack in zip(dual.per_run(symbol.scalars), dual.run_dims, symbol.stacks)
    )


def test_unrecorded_scalar_blocks_take_the_grid_path(su2, monkeypatch):
    # blocks exactly c I with nothing recorded are read as blocks: the grid
    # path, bit for bit the whole-array oracle, with no centrality guessed
    dual = enumerate_dual(su2, spin_cutoff(7.5))
    specs = [NormSpec(0.0, 2.0, 2.0), NormSpec(0.5, 4.0, 2.0)]
    calls = _grid_calls(monkeypatch)
    for f in _central_members(dual):
        g = FourierCoefficients(dual, f.stacks)
        del calls[:]
        assert tl_norms(g, specs) == oracle_tl_norms(g, specs)
        assert len(calls) == len(list(windows(dual)))
        del calls[:]
        tl_norms(f, specs)
        assert calls == []


def test_tl_norms_keep_the_grid_path_outside_the_central_class(torus1, su2, monkeypatch):
    # the torus, non-central members, odd p, q != 2, a mixed spec list and a
    # p whose theta table would hold more numbers than the grid has nodes
    # (p top / 2 + 2 = 1037 nodes x 16 spins at spin 7.5, against 16,384)
    # give exactly the whole-array grid oracle
    central = _central_members(enumerate_dual(su2, spin_cutoff(7.5)))[1]
    gaussian = random_coefficients(enumerate_dual(su2, spin_cutoff(7.5)), np.random.default_rng(3))
    torus = random_coefficients(enumerate_dual(torus1, 32.0), np.random.default_rng(3))
    p4q2, p1q2 = NormSpec(0.0, 4.0, 2.0), NormSpec(0.0, 1.0, 2.0)
    cases = [
        (torus, [p4q2]),
        (gaussian, [p4q2]),
        (central, [p1q2]),
        (central, [NormSpec(0.0, 4.0, 3.0)]),
        (central, [p4q2, p1q2]),
        (central, [NormSpec(0.0, 3.0, 2.0)]),
        (central, [NormSpec(-2.0, 138.0, 2.0)]),
    ]
    calls = _grid_calls(monkeypatch)
    for coeffs, specs in cases:
        del calls[:]
        assert tl_norms(coeffs, specs) == oracle_tl_norms(coeffs, specs)
        assert calls


def test_central_tl_norms_build_no_grid(su2, monkeypatch):
    # the theta rule at spin 63.5 holds a 256 x 128 character table and
    # 256-node arrays, against 8.4M nodes on the default grid
    dual = enumerate_dual(su2, spin_cutoff(63.5))
    f = ensemble_member(EnsembleConfig("dirichlet-kernels", 1), 0, dual, np.random.default_rng(0))

    def refuse(*args):
        raise AssertionError("a central norm built a grid")

    monkeypatch.setattr(spaces, "default_grid", refuse)
    monkeypatch.setattr(spaces, "inverse_slabs", refuse)
    tracemalloc.start()
    try:
        [(strong, _)] = tl_norms(f, [NormSpec(0.0, 4.0, 2.0)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert strong > 0.0 and peak < 2**20, f"peak {peak} bytes"


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
    [(_, val)] = tl_norms(coeffs, [NormSpec(0.0, 1.0, 2.0)])
    assert abs(val - 1.0) < 1e-12


def test_weak_norm_zero(torus1):
    dual = enumerate_dual(torus1, 4.0)
    zero = FourierCoefficients.from_blocks(dual, [np.zeros((1, 1), complex) for _ in range(len(dual))])
    assert tl_norms(zero, [NormSpec(0.0, 1.0, 2.0)])[0][1] == 0.0


def test_weak_below_strong_chebyshev(torus1, su2):
    rng = np.random.default_rng(6)
    for group, cutoff in ((torus1, 32.0), (su2, spin_cutoff(3))):
        dual = enumerate_dual(group, cutoff)
        for q in (1.5, 2.0, 4.0):
            spec = NormSpec(0.0, 1.0, q)
            coeffs = random_coefficients(dual, rng)
            [(strong, weak)] = tl_norms(coeffs, [spec])
            assert weak <= strong * (1 + 1e-12)


def test_weak_norm_requires_p1(torus1):
    # the weak quasi-norm is defined for p = 1 specs only
    dual = enumerate_dual(torus1, 4.0)
    coeffs = random_coefficients(dual, np.random.default_rng(7))
    [(strong, weak)] = tl_norms(coeffs, [NormSpec(0.0, 2.0, 2.0)])
    assert strong > 0.0 and weak is None


def _weak_sup_formula(agg, weights):
    """weak_sup as first written, on one weight per node: four grid-sized temporaries."""
    agg, weights = np.ravel(agg), np.broadcast_to(weights, np.shape(agg)).ravel()
    order = np.argsort(agg)
    values = agg[order]
    measure_ge = np.cumsum(weights[order][::-1])[::-1]
    return float(np.max(values * measure_ge)) if len(values) else 0.0


def _weak_sup_exact(agg, weights) -> Fraction:
    """max over the distinct samples v of v * weight(agg >= v), in exact arithmetic."""
    agg, weights = np.ravel(agg), np.broadcast_to(weights, np.shape(agg)).ravel()
    pairs = sorted(zip(map(Fraction, agg.tolist()), map(Fraction, weights.tolist())), reverse=True)
    best, measure = Fraction(0), Fraction(0)
    for i, (v, w) in enumerate(pairs):
        measure += w
        if i + 1 == len(pairs) or pairs[i + 1][0] != v:
            best = max(best, v * measure)
    return best


def test_weak_sup_equals_its_first_formula():
    # one weight for every node, as on the torus grid: a plain value sort, the same bits as
    # the argsort formula on random samples with many ties, and agg left as it was
    rng = np.random.default_rng(11)
    for shape in ((0,), (1,), (7,), (1000,), (50_000,), (9, 9), (25, 13, 25)):
        n = math.prod(shape)
        agg = rng.integers(0, 1 + n // 10, shape) * rng.uniform(0.5, 2.0)
        weights = np.full((1,) * len(shape), 1.0 / max(n, 1))
        kept = agg.copy()
        assert weak_sup(agg, weights) == _weak_sup_formula(agg, weights)
        assert np.array_equal(agg, kept)


def _near_ties(rng, shape, spread):
    """Samples on a few values, each moved by up to ``spread`` units in the last place."""
    base = rng.choice(rng.uniform(0.1, 10.0, 5), shape)
    bits = base.view(np.uint64) + rng.integers(0, spread + 1, shape).astype(np.uint64)
    return bits.view(float)


@pytest.mark.parametrize("group", ["torus", "su2"])
def test_weak_sup_is_the_exact_sup(group):
    # against a sup in exact rational arithmetic on small grids, within n eps relative: exact
    # ties, near-ties that share their high bits across weight classes (the keys' low 3 bits
    # hold one of the 7 beta classes of the SU(2) grid of spin 3), and spread samples
    dual = enumerate_dual(make_group(group, 2), spin_cutoff(3) if group == "su2" else 5.0)
    grid = default_grid(dual)
    n = len(grid)
    rng = np.random.default_rng(13)
    for spread in (0, 1, 7, 1 << 20):
        for _ in range(3):
            agg = _near_ties(rng, grid.shape, spread)
            agg.flat[rng.integers(0, n, 3)] = 0.0
            exact = _weak_sup_exact(agg, grid.node_weights)
            got = weak_sup(agg, grid.node_weights)
            assert abs(Fraction(got) - exact) <= exact * n * np.finfo(float).eps
            assert abs(got - _weak_sup_formula(agg, grid.node_weights)) <= got * n * np.finfo(float).eps


def test_weak_sup_ranks_a_shared_prefix_by_its_lowest_sample():
    # three weight classes (k = 2), one value and its next float up in different classes:
    # the keys tie, and the sup is read at the lower sample whatever order they sort in
    lo = 1.0
    hi = np.nextafter(lo, 2.0)
    for agg in (np.array([[hi, lo, 0.5]]), np.array([[lo, hi, 0.5]])):
        weights = np.array([[0.2, 0.3, 0.5]])
        assert weak_sup(agg, weights) == _weak_sup_formula(agg, weights) == float(_weak_sup_exact(agg, weights))


@pytest.mark.parametrize("bad", [-1.0, -0.0, math.nan, -math.nan])
def test_weak_sup_refuses_samples_outside_its_domain(bad):
    # the bit order would rank -0.0 above every positive sample, and a NaN would come back
    # as a NaN sup
    agg = np.array([0.5, 1.0, 2.0, bad])
    with pytest.raises(PreconditionError, match="sign bit"):
        weak_sup(agg, np.full(1, 0.25))
    assert weak_sup(np.array([0.5, 1.0, 2.0, 0.0, math.inf]), np.full(1, 0.2)) == math.inf


def test_weak_sup_refuses_weights_that_cannot_rank():
    agg = np.ones((2, 3, 4))
    with pytest.raises(PreconditionError, match="one weight per class"):
        weak_sup(agg, np.ones((2, 3, 1)))
    with pytest.raises(PreconditionError, match="one weight per class"):
        weak_sup(agg, np.ones((1, 3, 4, 1)))
    # a class of weight 2^-60 of the total is below what 2 class bits leave of the samples
    with pytest.raises(PreconditionError, match="cannot rank"):
        weak_sup(agg, np.array([1.0, 1.0, 2.0**-60])[None, :, None])
    with pytest.raises(PreconditionError, match="cannot rank"):
        weak_sup(agg, np.zeros(1))


def test_weak_sup_holds_two_temporaries():
    # per-beta weights on an SU(2)-shaped grid: the sort keys and their classes (one byte
    # each), then, the keys freed, the classes, the sorted samples and one chunk of weights:
    # measured 1.28 x n x 8 bytes (2.00 with the gathered weights and the sorted samples held
    # whole, 3.00 when the samples were gathered through an argsort)
    n = 1 << 18
    rng = np.random.default_rng(12)
    agg = rng.uniform(size=(64, 64, 64))
    weights = rng.uniform(0.5, 1.0, (1, 64, 1)) / n
    tracemalloc.start()
    try:
        weak_sup(agg, weights)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * n * 8, f"peak {peak / (n * 8):.2f} x n x 8 bytes"
