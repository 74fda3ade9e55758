import numpy as np
import pytest

from conftest import index_of, irrep_labels, irrep_matrices
from liefourier import (
    FourierCoefficients,
    GridFunction,
    convolve,
    default_grid,
    enumerate_dual,
    forward_transform,
    inner_product,
    inverse_evaluate,
    inverse_on_grid,
    make_group,
    plancherel_norm,
    random_coefficients,
    translate_coefficients,
)
from liefourier.dual import spin_cutoff, wigner_matrix
from liefourier.errors import PreconditionError
from liefourier.groups import build_grid, multiply, random_point
from liefourier.transform import reality_defect, zero_coefficients


def _max_block_err(a, b):
    return max(float(np.max(np.abs(x - y))) for x, y in zip(a.blocks, b.blocks))


def test_default_grid_is_shared_per_slice(torus2, su2):
    # one grid (and so one plan cache) per slice, however often it is asked for
    for dual in (enumerate_dual(torus2, 4.0), enumerate_dual(su2, spin_cutoff(2))):
        assert default_grid(dual) is default_grid(dual)
        assert default_grid(dual) is default_grid(enumerate_dual(dual.group, dual.cutoff))


def test_torus_single_mode(torus1):
    dual = enumerate_dual(torus1, 8.0)
    grid = default_grid(dual)
    f = GridFunction(grid, np.exp(2j * np.pi * 3 * grid.points[:, 0]))
    coeffs = forward_transform(f, dual)
    for label, blk in zip(irrep_labels(dual), coeffs.blocks):
        target = 1.0 if label == (3,) else 0.0
        assert abs(blk[0, 0] - target) < 1e-12


def test_constant_function(torus2):
    dual = enumerate_dual(torus2, 4.0)
    grid = default_grid(dual)
    coeffs = forward_transform(GridFunction(grid, np.ones(len(grid), complex)), dual)
    for lam, blk in zip(dual.eigenvalues, coeffs.blocks):
        target = 1.0 if lam == 1.0 else 0.0
        assert abs(blk[0, 0] - target) < 1e-12


def test_su2_character_coefficients(su2):
    # Schur orthogonality: the character of spin 1/2 transforms to I/2
    dual = enumerate_dual(su2, spin_cutoff(2))
    grid = default_grid(dual)
    vals = np.array([np.trace(wigner_matrix(0.5, p)) for p in grid.points])
    coeffs = forward_transform(GridFunction(grid, vals), dual)
    for ell, blk in zip(dual.labels, coeffs.blocks):
        if ell == 0.5:
            assert np.max(np.abs(blk - np.eye(2) / 2)) < 1e-10
        else:
            assert np.max(np.abs(blk)) < 1e-10


def test_round_trip(torus1, torus2, su2):
    rng = np.random.default_rng(0)
    for group, cutoff in ((torus1, 16.0), (torus2, 5.0), (su2, spin_cutoff(3))):
        dual = enumerate_dual(group, cutoff)
        grid = default_grid(dual)
        coeffs = random_coefficients(dual, rng)
        back = forward_transform(inverse_on_grid(coeffs, grid), dual)
        assert _max_block_err(coeffs, back) < 1e-10


@pytest.mark.parametrize(
    "n,cutoff,extra",
    [(1, 16.0, 0), (1, 9.5, 3), (2, 5.0, 0), (2, 4.5, 3), (3, 3.0, 0), (3, 2.5, 3)],
)
def test_torus_fft_matches_direct_sums(n, cutoff, extra):
    # oracles: the explicit weighted phase sum (forward) and the pointwise
    # series at the grid nodes (inverse), also on grids finer than the dual
    group = make_group("torus", n)
    dual = enumerate_dual(group, cutoff)
    grid = build_grid(group, dual.max_band + extra)
    labels = dual.labels.astype(float)
    rng = np.random.default_rng(12)
    coeffs = random_coefficients(dual, rng)
    vals = inverse_on_grid(coeffs, grid).values
    np.testing.assert_allclose(vals, inverse_evaluate(coeffs, grid.points), rtol=0, atol=1e-12)
    samples = rng.standard_normal(len(grid)) + 1j * rng.standard_normal(len(grid))
    fft = np.array([b[0, 0] for b in forward_transform(GridFunction(grid, samples), dual).blocks])
    direct = np.exp(-2j * np.pi * grid.points @ labels.T).T @ (grid.weights * samples)
    np.testing.assert_allclose(fft, direct, rtol=0, atol=1e-12)


@pytest.mark.parametrize("extra", [0, 1])
def test_su2_plan_matches_pointwise_series(su2, extra):
    # oracles: the pointwise series at the grid nodes (inverse) and the explicit
    # weighted sum against conj(D^l(x))^T from wigner_matrix (forward)
    dual = enumerate_dual(su2, spin_cutoff(3.5))
    grid = build_grid(su2, dual.max_band + extra)
    wigner = [np.stack([wigner_matrix(ell, p) for p in grid.points]) for ell in dual.labels]
    rng = np.random.default_rng(13)
    full = random_coefficients(dual, rng)
    low = FourierCoefficients.from_blocks(  # nonzero up to spin 1: the inverse stops at that band
        dual, [b if ell <= 1 else 0 * b for ell, b in zip(dual.labels, full.blocks)]
    )
    samples = [rng.standard_normal(len(grid)) + 1j * rng.standard_normal(len(grid))]
    for coeffs in (full, low, zero_coefficients(dual)):
        vals = inverse_on_grid(coeffs, grid).values
        np.testing.assert_allclose(vals, inverse_evaluate(coeffs, grid.points), rtol=0, atol=1e-12)
        samples.append(vals)
    for vals in samples:
        blocks = forward_transform(GridFunction(grid, vals), dual).blocks
        for blk, mats in zip(blocks, wigner):
            direct = np.einsum("p,pba->ab", grid.weights * vals, mats.conj())
            np.testing.assert_allclose(blk, direct, rtol=0, atol=1e-12)


def test_inverse_at_trivial_long_constant(su2):
    dual = enumerate_dual(su2, spin_cutoff(1))
    blocks = [np.zeros((d, d), complex) for d in dual.dims]
    blocks[0][0, 0] = 1.0
    coeffs = FourierCoefficients.from_blocks(dual, blocks)
    rng = np.random.default_rng(1)
    pts = np.stack([random_point(dual.group, rng) for _ in range(5)])
    np.testing.assert_allclose(inverse_evaluate(coeffs, pts), np.ones(5), atol=1e-13)


def test_su2_character_inverse_value(su2):
    # coefficients I/2 at spin 1/2 reproduce Tr D^(1/2); at the identity = 2
    dual = enumerate_dual(su2, spin_cutoff(1))
    blocks = [np.zeros((d, d), complex) for d in dual.dims]
    blocks[index_of(dual, 0.5)] = np.eye(2) / 2
    coeffs = FourierCoefficients.from_blocks(dual, blocks)
    val = inverse_evaluate(coeffs, np.zeros((1, 3)))
    assert abs(val[0] - 2.0) < 1e-12


def test_inverse_evaluate_matches_naive(su2):
    dual = enumerate_dual(su2, spin_cutoff(2))
    rng = np.random.default_rng(2)
    coeffs = random_coefficients(dual, rng)
    pts = np.stack([random_point(su2, rng) for _ in range(7)])
    fast = inverse_evaluate(coeffs, pts)
    naive = np.array(
        [
            sum(
                d * np.trace(wigner_matrix(ell, p) @ blk)
                for ell, d, blk in zip(dual.labels, dual.dims, coeffs.blocks)
            )
            for p in pts
        ]
    )
    np.testing.assert_allclose(fast, naive, atol=1e-11)


def test_scalar_block_class_function_path(su2):
    # coefficients proportional to I describe a class function; the pointwise
    # series must match the explicit Wigner sum on them as on general blocks
    dual = enumerate_dual(su2, spin_cutoff(4))
    rng = np.random.default_rng(3)
    coeffs = FourierCoefficients.from_blocks(
        dual,
        [(rng.standard_normal() + 1j * rng.standard_normal()) * np.eye(d) for d in dual.dims],
    )
    pts = np.stack([random_point(su2, rng) for _ in range(9)])
    fast = inverse_evaluate(coeffs, pts)
    naive = np.array(
        [
            sum(
                d * np.trace(wigner_matrix(ell, p) @ blk)
                for ell, d, blk in zip(dual.labels, dual.dims, coeffs.blocks)
            )
            for p in pts
        ]
    )
    np.testing.assert_allclose(fast, naive, atol=1e-11)


def test_plancherel_examples(su2):
    dual = enumerate_dual(su2, spin_cutoff(1))
    blocks = [np.zeros((d, d), complex) for d in dual.dims]
    blocks[index_of(dual, 0.5)] = np.eye(2) / 2
    assert abs(plancherel_norm(FourierCoefficients.from_blocks(dual, blocks)) - 1.0) < 1e-14
    assert plancherel_norm(zero_coefficients(dual)) == 0.0


def test_plancherel_matches_grid_l2(torus2, su2):
    rng = np.random.default_rng(4)
    for group, cutoff in ((torus2, 6.0), (su2, spin_cutoff(3))):
        dual = enumerate_dual(group, cutoff)
        grid = default_grid(dual)
        coeffs = random_coefficients(dual, rng)
        vals = inverse_on_grid(coeffs, grid).values
        l2 = np.sqrt(np.sum(grid.weights * np.abs(vals) ** 2))
        assert abs(plancherel_norm(coeffs) - l2) < 1e-10 * max(1.0, l2)


def test_parseval_polarization(su2):
    dual = enumerate_dual(su2, spin_cutoff(2))
    grid = default_grid(dual)
    rng = np.random.default_rng(5)
    f = random_coefficients(dual, rng)
    g = random_coefficients(dual, rng)
    fv = inverse_on_grid(f, grid).values
    gv = inverse_on_grid(g, grid).values
    quad = np.sum(grid.weights * fv * np.conj(gv))
    assert abs(quad - inner_product(f, g)) < 1e-10


def test_translation_rule(torus1, su2):
    # coefficients of x -> f(zx) are fhat(xi) xi(z)
    rng = np.random.default_rng(6)
    for group, cutoff in ((torus1, 8.0), (su2, spin_cutoff(2))):
        dual = enumerate_dual(group, cutoff)
        grid = default_grid(dual)
        coeffs = random_coefficients(dual, rng)
        z = random_point(group, rng)
        translated_vals = inverse_evaluate(coeffs, multiply(group, z, grid.points))
        direct = forward_transform(GridFunction(grid, translated_vals), dual)
        rule = translate_coefficients(coeffs, z)
        assert _max_block_err(direct, rule) < 1e-10


def test_convolution_identity_and_scalars(torus1):
    dual = enumerate_dual(torus1, 8.0)
    rng = np.random.default_rng(7)
    f = random_coefficients(dual, rng)
    dirac = FourierCoefficients.from_blocks(dual, [np.eye(d, dtype=complex) for d in dual.dims])
    assert _max_block_err(convolve(f, dirac), f) < 1e-14
    g = random_coefficients(dual, rng)
    fg = convolve(f, g)
    for fb, gb, ob in zip(f.blocks, g.blocks, fg.blocks):
        assert abs(ob[0, 0] - fb[0, 0] * gb[0, 0]) < 1e-14


@pytest.mark.parametrize("kind,n,cutoff", [("torus", 1, 6.0), ("su2", 3, spin_cutoff(1))])
def test_convolution_against_double_quadrature(kind, n, cutoff):
    # oracle: (f*g)(x) = sum_y w(y) f(y) g(y^-1 x) evaluated pointwise
    group = make_group(kind, n)
    dual = enumerate_dual(group, cutoff)
    grid = default_grid(dual)
    rng = np.random.default_rng(8)
    f = random_coefficients(dual, rng)
    g = random_coefficients(dual, rng)
    fv = inverse_on_grid(f, grid).values
    direct = np.empty(len(grid), complex)
    from liefourier.groups import inverse as point_inverse

    for i, x in enumerate(grid.points):
        translated = multiply(group, np.stack([point_inverse(group, y) for y in grid.points]), x)
        direct[i] = np.sum(grid.weights * fv * inverse_evaluate(g, translated))
    oracle = forward_transform(GridFunction(grid, direct), dual)
    assert _max_block_err(oracle, convolve(f, g)) < 1e-9


def test_young_inequality_sanity(torus1):
    dual = enumerate_dual(torus1, 10.0)
    grid = default_grid(dual)
    rng = np.random.default_rng(9)
    for _ in range(5):
        f = random_coefficients(dual, rng)
        g = random_coefficients(dual, rng)
        l1_f = np.sum(grid.weights * np.abs(inverse_on_grid(f, grid).values))
        lhs = plancherel_norm(convolve(f, g))
        assert lhs <= l1_f * plancherel_norm(g) * (1 + 1e-9)


def test_linearity_and_conjugation(torus1):
    dual = enumerate_dual(torus1, 6.0)
    grid = default_grid(dual)
    rng = np.random.default_rng(10)
    f = random_coefficients(dual, rng)
    g = random_coefficients(dual, rng)
    combo = FourierCoefficients.from_blocks(dual, [2.0 * a - 1j * b for a, b in zip(f.blocks, g.blocks)])
    lhs = inverse_on_grid(combo, grid).values
    rhs = 2.0 * inverse_on_grid(f, grid).values - 1j * inverse_on_grid(g, grid).values
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_reality_symmetry(torus2, su2):
    rng = np.random.default_rng(11)
    for group, cutoff in ((torus2, 4.0), (su2, spin_cutoff(2))):
        dual = enumerate_dual(group, cutoff)
        grid = default_grid(dual)
        vals = rng.standard_normal(len(grid))  # real samples
        coeffs = forward_transform(GridFunction(grid, vals.astype(complex)), dual)
        assert reality_defect(coeffs) < 1e-12
        coeffs.blocks[1][0, 0] += 0.1  # break the symmetry
        assert reality_defect(coeffs) > 1e-3


def test_block_shape_guard(su2):
    dual = enumerate_dual(su2, spin_cutoff(1))
    blocks = [np.zeros((d, d), complex) for d in dual.dims]
    blocks[-1] = np.zeros((1, 1), complex)  # wrong shape for the top spin
    with pytest.raises(PreconditionError):
        FourierCoefficients.from_blocks(dual, blocks)
    with pytest.raises(PreconditionError):
        FourierCoefficients.from_blocks(dual, blocks[:-1])


def test_grid_too_coarse_raises(torus1):
    dual = enumerate_dual(torus1, 8.0)
    grid = build_grid(torus1, 3)
    with pytest.raises(PreconditionError):
        forward_transform(GridFunction(grid, np.zeros(len(grid), complex)), dual)


def test_dual_mismatch_raises(torus1):
    f = random_coefficients(enumerate_dual(torus1, 8.0), np.random.default_rng(0))
    g = random_coefficients(enumerate_dual(torus1, 4.0), np.random.default_rng(0))
    with pytest.raises(PreconditionError):
        convolve(f, g)


_PER_RUN_SLICES = [("torus", 1, 64.0), ("torus", 2, 16.0), ("torus", 3, 6.0), ("su2", 3, spin_cutoff(7.5))]


def _bitwise_equal(blocks, oracle):
    return len(blocks) == len(oracle) and all(np.array_equal(a, b) for a, b in zip(blocks, oracle))


@pytest.mark.parametrize("kind,n,cutoff", _PER_RUN_SLICES)
def test_per_run_paths_equal_per_block_loops(kind, n, cutoff):
    from liefourier import apply_multiplier, lp_project, psi, window_levels
    from liefourier.symbols import Symbol, operator_norms

    dual = enumerate_dual(make_group(kind, n), cutoff)
    coeffs = random_coefficients(dual, np.random.default_rng(21))
    rng = np.random.default_rng(21)
    drawn = [(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0) for d in dual.dims]
    assert _bitwise_equal(coeffs.blocks, drawn)

    symbol = Symbol(dual, random_coefficients(dual, np.random.default_rng(22)).stacks)
    product = apply_multiplier(symbol, coeffs)
    assert _bitwise_equal(product.blocks, [s @ f for s, f in zip(symbol.blocks, coeffs.blocks)])

    for level in window_levels(cutoff):
        scale = psi(level, dual.eigenvalues)
        piece = lp_project(coeffs, level)
        assert _bitwise_equal(piece.blocks, [s * blk for s, blk in zip(scale, coeffs.blocks)])

    norms = operator_norms(symbol.stacks)
    assert np.array_equal(norms, [np.linalg.svd(blk, compute_uv=False)[0] for blk in symbol.blocks])

    total = 0.0
    for dim, blk in zip(dual.dims, coeffs.blocks):
        total += dim * float(np.sum(np.abs(blk) ** 2))
    assert abs(plancherel_norm(coeffs) - np.sqrt(total)) <= 1e-15 * np.sqrt(total)


@pytest.mark.parametrize("kind,n,cutoff", _PER_RUN_SLICES)
def test_from_blocks_round_trip_and_views(kind, n, cutoff):
    dual = enumerate_dual(make_group(kind, n), cutoff)
    blocks = random_coefficients(dual, np.random.default_rng(5)).blocks
    packed = FourierCoefficients.from_blocks(dual, blocks)
    assert len(packed.stacks) == len(dual.runs)
    assert _bitwise_equal(packed.blocks, blocks)
    for i in (0, len(dual) // 2, len(dual) - 1):
        assert np.shares_memory(packed.blocks[i], packed.stacks[0] if kind == "torus" else packed.stacks[i])
        packed.blocks[i][0, 0] = 7.0 + 1j
        assert packed.block(i)[0, 0] == 7.0 + 1j
        assert blocks[i][0, 0] != 7.0 + 1j  # packing copied the source blocks


@pytest.mark.parametrize("kind,n,cutoff", [("torus", 2, 5.0), ("torus", 3, 3.0), ("su2", 3, spin_cutoff(3.5))])
def test_inverse_evaluate_across_chunks_equals_trace_sum(kind, n, cutoff, monkeypatch):
    import liefourier.transform as transform

    group = make_group(kind, n)
    dual = enumerate_dual(group, cutoff)
    rng = np.random.default_rng(4)
    coeffs = random_coefficients(dual, rng)
    pts = np.stack([random_point(group, rng) for _ in range(11)])
    entries = sum(d * d for d in dual.dims)
    # four points per chunk: 11 points end in a partial chunk
    monkeypatch.setattr(transform, "_EVALUATE_ENTRIES", 4 * entries + entries // 2)
    fast = inverse_evaluate(coeffs, pts)
    naive = np.array(
        [
            sum(d * np.trace(mat @ blk) for d, mat, blk in zip(dual.dims, irrep_matrices(dual, p), coeffs.blocks))
            for p in pts
        ]
    )
    np.testing.assert_allclose(fast, naive, rtol=0, atol=1e-12)


def test_cached_grid_hits_and_evicts_after_24_bandlimits(torus1, monkeypatch):
    import liefourier.transform as transform
    from liefourier.transform import cached_grid

    built = []

    def spy(group, bandlimit):
        built.append(bandlimit)
        return build_grid(group, bandlimit)

    monkeypatch.setattr(transform, "build_grid", spy)
    cached_grid.cache_clear()
    try:
        first = cached_grid(torus1, 1.0)
        assert cached_grid(torus1, 1.0) is first and built == [1.0]
        for band in range(2, 26):  # 24 more bandlimits push the first one out
            cached_grid(torus1, float(band))
        assert len(built) == 25
        assert cached_grid(torus1, 25.0) is cached_grid(torus1, 25.0) and len(built) == 25
        again = cached_grid(torus1, 1.0)
        assert again is not first and built[-1] == 1.0 and len(built) == 26
    finally:
        cached_grid.cache_clear()
