import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    LONG_DOUBLE,
    chebyshev_u_long_double,
    index_of,
    irrep_labels,
    irrep_matrices,
    translate_coefficients,
    ulp_distance,
)
from liefourier import (
    FourierCoefficients,
    GridFunction,
    Symbol,
    apply_multiplier,
    default_grid,
    enumerate_dual,
    forward_transform,
    inverse_evaluate,
    inverse_on_grid,
    make_group,
    plancherel_norm,
    random_coefficients,
)
from liefourier import transform
from liefourier.cli import _roundtrip_residuals
from liefourier.dual import little_d, spin_cutoff, wigner_matrix
from liefourier.errors import PreconditionError
from liefourier.groups import build_grid, multiply, random_point
from liefourier.spaces import lp_project, windows
from liefourier.transform import _get_plan, _su2_characters, _Su2Plan, zero_coefficients
from su2_plan_oracle import FullTablePlan, WholeArrayPlan


def _max_block_err(a, b):
    return max(float(np.max(np.abs(x - y))) for x, y in zip(a.blocks, b.blocks))


def _drain(plan, stacks):
    """A plan's inverse on the whole grid, flat: every slab of ``inverse_slabs`` written into one
    output, as ``transform.inverse_on_grid`` drains it."""
    out = np.empty(plan.shape, dtype=complex)
    for _ in plan.inverse_slabs(stacks, out):
        pass
    return out.ravel()


def _convolve(f, g):
    """Right convolution f * g: T_sigma f with sigma = ghat, i.e. ghat . fhat per irrep."""
    return apply_multiplier(Symbol(g.dual, g.stacks), f)


def test_default_grid_is_shared_per_slice(torus2, su2):
    # one grid (and so one plan) per slice, however often it is asked for; another slice holds its own
    for dual in (enumerate_dual(torus2, 4.0), enumerate_dual(su2, spin_cutoff(2))):
        assert default_grid(dual) is default_grid(dual)
        assert default_grid(dual) is not default_grid(enumerate_dual(dual.group, dual.cutoff))


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


@pytest.mark.parametrize(
    "top,extra",
    # Nb 8 and 10 (ids kept from the half-integer-only version), then Nb 7 and 9
    [pytest.param(3.5, 0, id="0"), pytest.param(3.5, 1, id="1"), (3.0, 0), (3.0, 1)],
)
def test_su2_plan_matches_pointwise_series(su2, top, extra):
    # oracles: the pointwise series at the grid nodes (inverse) and the explicit
    # weighted sum against conj(D^l(x))^T from wigner_matrix (forward)
    dual = enumerate_dual(su2, spin_cutoff(top))
    grid = build_grid(su2, dual.max_band + extra)
    wigner = [wigner_matrix(ell, grid.points) for ell in dual.labels]
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


@pytest.mark.parametrize("two_top", range(32))
def test_su2_plan_matches_full_table_oracle(su2, two_top):
    # the quarter-table plan against the full-table arithmetic it replaced, on
    # default grids: Nb = two_top + 1 is even for half-integer top spins and odd,
    # with a self-mirrored pi/2 node, for integer ones.  The function has unit
    # Plancherel norm, so 1e-12 absolute is about 1e-12 relative.
    # Beyond full coefficients, the inverse also sees each parity class alone,
    # every nonzero dyadic window (a band of live spins, most of them cut
    # below the top) and no live spin at all.
    dual = enumerate_dual(su2, spin_cutoff(two_top / 2))
    grid = default_grid(dual)
    plan = _get_plan(grid, dual)
    oracle = FullTablePlan(plan, grid)
    rng = np.random.default_rng(two_top)
    coeffs = random_coefficients(dual, rng)
    coeffs = FourierCoefficients(dual, [s / plancherel_norm(coeffs) for s in coeffs.stacks])
    stacks = coeffs.stacks
    inputs = [stacks, zero_coefficients(dual).stacks]
    inputs += [[s if k % 2 == parity else 0 * s for k, s in zip(plan.two_ells, stacks)] for parity in (0, 1)]
    inputs += [lp_project(coeffs, ell).stacks for ell, _ in windows(dual)]
    for given in inputs:
        np.testing.assert_allclose(_drain(plan, given), oracle.inverse_on_grid(given), rtol=0, atol=1e-12)
    vals = _drain(plan, stacks)
    noise = rng.standard_normal(len(grid)) + 1j * rng.standard_normal(len(grid))
    for samples in (vals, noise):
        for got, want in zip(plan.forward(samples), oracle.forward(samples)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("bandlimit", [15.5, 16.0])  # Nb 32 and 33
def test_su2_plan_quarters_unfold_to_little_d(su2, bandlimit):
    # the shell tables, unfolded through the four cells of each stored row, tile
    # every spin's table and equal little_d at every node
    dual = enumerate_dual(su2, spin_cutoff(15.5))
    grid = build_grid(su2, bandlimit)
    plan = _get_plan(grid, dual)
    beta = grid.axes[1]
    nb, half, mirror = len(beta), plan.half, plan.mirror
    assert plan.two_ells == list(range(32)) and (half, mirror) == ((nb + 1) // 2, nb // 2)
    stored, mirrored = slice(0, half), slice(nb - 1, nb - 1 - mirror, -1)  # node Nb - 1 - j

    def sign(exponent):  # (-1)^(exponent / 2)
        return np.where((exponent // 2) % 2, -1.0, 1.0)

    for k in plan.two_ells:
        table = np.full((nb, k + 1, k + 1), np.nan)  # [j, b, a]
        for s in range(k % 2, k + 1, 2):
            u, v = plan.uv[s % 2][plan.spans[s]].T
            d = plan.tables[s][:, (k - s) // 2]  # (positions, stored nodes)
            cells = [
                ((u, v), stored, 1.0),
                ((-u, -v), stored, sign(u - v)),  # (-1)^(m' - m)
                ((u, -v), mirrored, sign(k + u)),  # (-1)^(l + m')
                ((-u, v), mirrored, sign(k - v)),  # (-1)^(l - m)
            ]
            for (tu, tv), nodes, factor in cells:
                count = half if nodes is stored else mirror
                table[nodes, (k - tu) // 2, (k - tv) // 2] = factor * d[:, :count].T
        np.testing.assert_allclose(table, little_d(k, beta), rtol=0, atol=1e-13)


def test_su2_plan_tables_hold_a_quarter(su2):
    # at spin 31.5 the full tables took 45.8 MB; the stored quarters take 11.5 MB,
    # shell views of one buffer that hold each stored (spin, position) once
    dual = enumerate_dual(su2, spin_cutoff(31.5))
    plan = _get_plan(default_grid(dual), dual)
    buffer = plan.tables[0].base
    assert all(table.base is buffer for table in plan.tables)
    assert sum(table.size for table in plan.tables) == buffer.size
    assert buffer.shape[1] == plan.half and buffer.nbytes <= 12e6
    held = []
    for s, table in enumerate(plan.tables):
        u, v = plan.uv[s % 2][plan.spans[s]].T
        assert table.shape[:2] == (len(u), (plan.top - s) // 2 + 1)
        held += [(k, a, b) for a, b in zip(u.tolist(), v.tolist()) for k in range(s, plan.top + 1, 2)]
    quarter = {
        (k, a, b)
        for k in plan.two_ells
        for a in range(-k, k + 1, 2)
        for b in range(-k, k + 1, 2)
        if a > 0 or (a == 0 and b >= 0)
    }
    assert len(held) == len(set(held)) and set(held) == quarter


def test_su2_plan_build_holds_no_second_copy(su2):
    # the build fills the shell tables spin by spin from _little_d_rows: at spin 31.5 its
    # tracemalloc peak exceeds what the plan keeps (tables, cell index, phase tables) by one
    # spin's little-d evaluation, 0.26 of the tables; a second copy would add a whole one
    dual = enumerate_dual(su2, spin_cutoff(31.5))
    grid = default_grid(dual)
    _Su2Plan(grid, dual)  # warm the Gauss-Legendre rule, the one table the build caches
    tracemalloc.start()
    try:
        plan = _Su2Plan(grid, dual)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tables = plan.tables[0].base.nbytes
    phase = sum(t.nbytes for t in (plan.p_fwd_a, plan.p_fwd_g, plan.e_inv_a, plan.e_inv_g))
    kept = tables + plan.index[0][0].base.nbytes + phase
    assert peak <= kept + 0.4 * tables


def test_su2_plan_build_leaves_no_cache():
    # a fresh interpreter builds a spin-31.5 grid and plan and drops the slice:
    # what tracemalloc still holds after a collection is the cached Gauss-Legendre
    # rule and a few small objects, 6.5 KB measured; a cache of the 64 Jy
    # eigendecompositions of the build would hold 1.5 MB for the process's life
    script = (
        "import gc, tracemalloc\n"
        "from liefourier import enumerate_dual, make_group, spin_cutoff\n"
        "from liefourier.transform import _get_plan, default_grid\n"
        "gc.collect()\n"
        "tracemalloc.start()\n"
        "dual = enumerate_dual(make_group('su2'), spin_cutoff(31.5))\n"
        "_get_plan(default_grid(dual), dual)\n"
        "del dual\n"
        "gc.collect()\n"
        "print(tracemalloc.get_traced_memory()[0])\n"
    )
    src = str(Path(transform.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    held = int(proc.stdout)
    assert held < 64 * 1024, f"{held} bytes held"


def _slab_plan(monkeypatch, grid, dual, count):
    """A fresh SU(2) plan on ``count`` slabs: the workspace constant, patched for the
    test, is 1 / count of a complex grid-sized array, so plans built later split alike."""
    monkeypatch.setattr(transform, "_SLAB_BYTES", -(-len(grid) * 16 // count))
    plan = _Su2Plan(grid, dual)
    assert len(plan.slabs) == min(count, grid.shape[1])
    return plan


@pytest.mark.parametrize("spin", [0.5, 8.0, 15.5, 31.5])
def test_su2_slabs_match_the_whole_array_plan(su2, spin, monkeypatch):
    # the slab loop against the same arithmetic on the whole grid: one slab, five
    # (which divides no Nb here: 2, 17 with the pi/2 node stored once, 32, 64), and one
    # node per slab, on full coefficients, each parity class alone, every window (most
    # of them stop below the top spin) and no live spin.  Summation orders are the
    # same, but BLAS may round a product's last rows apart when its row count changes
    # (odd class sizes, one-row products), so values may differ by at most 1e-15 of the
    # largest; at spins 15.5 and 31.5, the benchmark's and most configs', all are bitwise equal
    dual = enumerate_dual(su2, spin_cutoff(spin))
    grid = default_grid(dual)
    rng = np.random.default_rng(int(2 * spin))
    coeffs = random_coefficients(dual, rng)
    oracle = WholeArrayPlan(_get_plan(grid, dual))
    two_ells = oracle.plan.two_ells
    inputs = [coeffs.stacks, zero_coefficients(dual).stacks]
    inputs += [[s if k % 2 == parity else 0 * s for k, s in zip(two_ells, coeffs.stacks)] for parity in (0, 1)]
    inputs += [lp_project(coeffs, ell).stacks for ell, _ in windows(dual)]
    counts = (1, 5, grid.shape[1])
    if spin == 31.5:  # 1M nodes: five slabs, and window 4, which stops below the top spin
        inputs, counts = [inputs[0], inputs[1], lp_project(coeffs, 4).stacks], (5,)
        assert not inputs[2][-1].any()
    noise = rng.standard_normal(len(grid)) + 1j * rng.standard_normal(len(grid))
    for count in counts:
        plan = _slab_plan(monkeypatch, grid, dual, count)
        pairs = [(plan.forward(noise), oracle.forward(noise))]
        for given in inputs:
            want = oracle.inverse_on_grid(given)
            got = _drain(plan, given)
            streamed = np.empty(plan.shape, dtype=complex)
            for index, values in plan.inverse_slabs(given):
                streamed[index] = values
            assert np.array_equal(streamed.ravel(), got)  # the same products, into a workspace
            pairs += [([got], [want]), (plan.forward(want), oracle.forward(want))]
        for got, want in pairs:
            scale = max(float(np.max(np.abs(w))) for w in want)
            for g, w in zip(got, want):
                if spin in (15.5, 31.5):
                    assert np.array_equal(g, w)
                else:
                    assert float(np.max(np.abs(g - w))) <= 1e-15 * scale


@pytest.mark.parametrize("spin", [0.5, 7.5, 8.0, 31.5])  # Nb 2, 16, 17 (odd, top spin an integer), 64
def test_su2_plan_folds_gamma_by_spin_parity(su2, spin):
    # spin l has e^{-im(gamma + 2 pi)} = (-1)^(2l) e^{-im gamma}, and the plan computes
    # only gamma < 2 pi.  A slice live on integer spins alone inverts to samples that are
    # bitwise 2 pi-periodic in gamma, one live on half-integer spins alone to bitwise
    # anti-periodic ones; the forward of periodic samples has exactly zero half-integer
    # blocks, that of anti-periodic ones exactly zero integer ones.  Narrow windows take
    # the class signs before one alpha product over the whole circle, whose columns gamma
    # and gamma + 2 pi BLAS may round apart (by 2e-15 of the largest at spin 8, where Ng/2
    # is odd; bitwise at the other spins here)
    dual = enumerate_dual(su2, spin_cutoff(spin))
    grid = default_grid(dual)
    plan = _get_plan(grid, dual)
    na, nb, ng = grid.shape
    h = ng // 2
    rng = np.random.default_rng(int(2 * spin))
    coeffs = random_coefficients(dual, rng)
    given = [coeffs] + [lp_project(coeffs, ell) for ell, _ in windows(dual)]
    modes = set()
    for parity, sign in ((0, 1.0), (1, -1.0)):  # k = 2l even: the integer spins
        for i, f in enumerate(given):
            stacks = [s if k % 2 == parity else 0 * s for k, s in zip(plan.two_ells, f.stacks)]
            live = [k for k, s in zip(plan.two_ells, stacks) if s.any()]
            if not live:
                continue
            butterfly = plan._butterfly(max(live))
            assert butterfly or i > 0 or spin == 0.5  # every whole slice past spin 0 takes the butterfly
            modes.add(butterfly)
            vals = _drain(plan, stacks).reshape(na, nb, ng)
            if butterfly or spin != 8.0:
                assert np.array_equal(vals[:, :, h:], sign * vals[:, :, :h])
            else:
                assert np.max(np.abs(vals[:, :, h:] - sign * vals[:, :, :h])) <= 1e-14 * np.max(np.abs(vals))
        half = rng.standard_normal((na, nb, h)) + 1j * rng.standard_normal((na, nb, h))
        samples = np.concatenate([half, sign * half], axis=2).ravel()
        for k, block in zip(plan.two_ells, plan.forward(samples)):
            if k % 2 != parity:
                assert not block.any()
    assert modes == {False, True}


def test_plans_synthesise_through_inverse_slabs_alone():
    # one synthesis method per plan; transform.inverse_on_grid drains it into one output
    for plan in (transform._TorusPlan, _Su2Plan):
        assert not hasattr(plan, "inverse_on_grid")
        assert callable(plan.inverse_slabs)


@pytest.mark.parametrize("n,cutoff", [(1, 64.0), (2, 12.0), (3, 6.0)])
def test_torus_inverse_slab_is_the_given_output(n, cutoff):
    # the one slab is the whole grid, the spectrum transformed in place: in the output when
    # one is given, which then holds the same bits as a slab into a fresh array
    dual = enumerate_dual(make_group("torus", n), cutoff)
    grid = default_grid(dual)
    plan = _get_plan(grid, dual)
    coeffs = random_coefficients(dual, np.random.default_rng(n))
    [(where, fresh)] = plan.inverse_slabs(coeffs.stacks)
    out = np.full(grid.shape, np.nan, dtype=complex)
    [(_, given)] = plan.inverse_slabs(coeffs.stacks, out)
    assert where is Ellipsis and given is out and fresh.shape == grid.shape
    assert np.array_equal(fresh, out)
    assert np.array_equal(inverse_on_grid(coeffs, grid).values, out.ravel())
    np.testing.assert_allclose(out.ravel(), inverse_evaluate(coeffs, grid.points), rtol=0, atol=1e-10)


def test_su2_plan_transient_peaks(su2, monkeypatch):
    # tracemalloc peaks of one warm inverse and one warm forward at spin 15.5, in units
    # of N x 8 bytes for N grid points, on 16 slabs of two nodes: the inverse's output
    # alone is 2 and the two compact class arrays together about 1; measured 3.38 and
    # 1.48 (5.94 and 3.90 when both products ran over the full ladder square, 5.0 and
    # 3.3 on the whole grid at once).  Streamed with no output, the inverse holds the
    # compact arrays and a slab workspace
    dual = enumerate_dual(su2, spin_cutoff(15.5))
    grid = default_grid(dual)
    plan = _slab_plan(monkeypatch, grid, dual, 16)
    stacks = random_coefficients(dual, np.random.default_rng(5)).stacks
    vals = _drain(plan, stacks)
    plan.forward(vals)
    unit = len(grid) * 8
    tracemalloc.start()
    try:
        _drain(plan, stacks)
        inverse_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        plan.forward(vals)
        forward_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        for _ in plan.inverse_slabs(stacks):
            pass
        streamed_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inverse_peak <= 3.5 * unit
    assert forward_peak <= 1.6 * unit
    assert streamed_peak <= 1.5 * unit


def test_su2_round_trip_peak(su2, monkeypatch):
    # one round trip of the transform task at spin 15.5 on 16 slabs, from the
    # coefficients to the residuals: the samples (2 units of N x 8 bytes) and the
    # forward's compact arrays (about 1), measured 3.66; the next member's round trip
    # starts after this one's arrays died, so two members peak the same
    dual = enumerate_dual(su2, spin_cutoff(15.5))
    grid = default_grid(dual)
    _slab_plan(monkeypatch, grid, dual, 16)
    _roundtrip_residuals(dual, 1, 1)  # builds the slice's own plan, on 16 slabs too
    assert len(_get_plan(grid, dual).slabs) == 16
    unit = len(grid) * 8
    peaks = []
    for count in (1, 2):
        tracemalloc.start()
        try:
            [(rt, rel), *_] = _roundtrip_residuals(dual, 1, count)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert rt < 1e-12 and rel < 1e-12
    assert peaks[0] <= 3.9 * unit
    assert peaks[1] <= peaks[0] + 0.1 * unit


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
    # Plancherel pairing sum_xi d_xi Tr(fhat(xi) ghat(xi)^*)
    pairing = sum(d * np.sum(fs * gs.conj()) for d, fs, gs in zip(dual.run_dims, f.stacks, g.stacks))
    assert abs(quad - pairing) < 1e-10


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
    assert _max_block_err(_convolve(f, dirac), f) < 1e-14
    g = random_coefficients(dual, rng)
    fg = _convolve(f, g)
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
    assert _max_block_err(oracle, _convolve(f, g)) < 1e-9


def test_young_inequality_sanity(torus1):
    dual = enumerate_dual(torus1, 10.0)
    grid = default_grid(dual)
    rng = np.random.default_rng(9)
    for _ in range(5):
        f = random_coefficients(dual, rng)
        g = random_coefficients(dual, rng)
        l1_f = np.sum(grid.weights * np.abs(inverse_on_grid(f, grid).values))
        lhs = plancherel_norm(_convolve(f, g))
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


def _reality_defect(coeffs):
    """How far the coefficients are from those of a real-valued function.

    Torus: max |fhat(-xi) - conj(fhat(xi))|.  SU(2): the corresponding Wigner
    conjugation symmetry conj(fhat[r, c]) = (-1)^(r-c) fhat[d-1-r, d-1-c].
    """
    dual = coeffs.dual
    if dual.group.kind == "torus":
        # the slice is symmetric: fhat(-xi) is read from the flipped label box
        vals = coeffs.stacks[0][:, 0, 0]
        bound = int(dual.max_band)
        box = np.zeros((2 * bound + 1,) * dual.group.dim, dtype=complex)
        cells = np.ravel_multi_index((dual.labels + bound).T, box.shape)
        np.put(box, cells, vals)
        return float(np.max(np.abs(np.take(np.flip(box), cells) - np.conj(vals))))
    worst = 0.0
    for d, stack in zip(dual.run_dims, coeffs.stacks):
        r = np.arange(d)
        signs = (-1.0) ** (r[:, None] - r[None, :])
        worst = max(worst, float(np.max(np.abs(np.conj(stack) - signs * stack[:, ::-1, ::-1]))))
    return worst


def test_reality_symmetry(torus2, su2):
    rng = np.random.default_rng(11)
    for group, cutoff in ((torus2, 4.0), (su2, spin_cutoff(2))):
        dual = enumerate_dual(group, cutoff)
        grid = default_grid(dual)
        vals = rng.standard_normal(len(grid))  # real samples
        coeffs = forward_transform(GridFunction(grid, vals.astype(complex)), dual)
        assert _reality_defect(coeffs) < 1e-12
        coeffs.blocks[1][0, 0] += 0.1  # break the symmetry
        assert _reality_defect(coeffs) > 1e-3


def test_block_shape_guard(su2):
    dual = enumerate_dual(su2, spin_cutoff(1))
    blocks = [np.zeros((d, d), complex) for d in dual.dims]
    blocks[-1] = np.zeros((1, 1), complex)  # wrong shape for the top spin
    with pytest.raises(PreconditionError):
        FourierCoefficients.from_blocks(dual, blocks)
    with pytest.raises(PreconditionError):
        FourierCoefficients.from_blocks(dual, blocks[:-1])
    stacks = zero_coefficients(dual).stacks
    with pytest.raises(PreconditionError, match="stack per run"):
        FourierCoefficients(dual, stacks[:-1] + [np.zeros((2, 3, 3), complex)])
    grid = default_grid(dual)
    with pytest.raises(PreconditionError, match="sample count"):
        GridFunction(grid, np.zeros(len(grid) - 1, complex))


def test_grid_too_coarse_raises(torus1):
    dual = enumerate_dual(torus1, 8.0)
    grid = build_grid(torus1, 3)
    with pytest.raises(PreconditionError):
        forward_transform(GridFunction(grid, np.zeros(len(grid), complex)), dual)


def test_dual_mismatch_raises(torus1):
    f = random_coefficients(enumerate_dual(torus1, 8.0), np.random.default_rng(0))
    g = random_coefficients(enumerate_dual(torus1, 4.0), np.random.default_rng(0))
    with pytest.raises(PreconditionError):
        _convolve(f, g)
    # as many irreps, another cutoff
    h = random_coefficients(enumerate_dual(torus1, 8.05), np.random.default_rng(0))
    assert len(h.dual) == len(f.dual)
    with pytest.raises(PreconditionError, match="different dual slices"):
        apply_multiplier(Symbol(h.dual, h.stacks), f)
    with pytest.raises(PreconditionError, match="different groups"):
        inverse_on_grid(f, build_grid(make_group("su2"), f.dual.max_band))


_PER_RUN_SLICES = [("torus", 1, 64.0), ("torus", 2, 16.0), ("torus", 3, 6.0), ("su2", 3, spin_cutoff(7.5))]


def _bitwise_equal(blocks, oracle):
    return len(blocks) == len(oracle) and all(np.array_equal(a, b) for a, b in zip(blocks, oracle))


@pytest.mark.parametrize("kind,n,cutoff", _PER_RUN_SLICES)
def test_per_run_paths_equal_per_block_loops(kind, n, cutoff):
    from liefourier import lp_project, windows
    from liefourier.symbols import operator_norms

    dual = enumerate_dual(make_group(kind, n), cutoff)
    coeffs = random_coefficients(dual, np.random.default_rng(21))
    rng = np.random.default_rng(21)
    drawn = [(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0) for d in dual.dims]
    assert _bitwise_equal(coeffs.blocks, drawn)

    symbol = Symbol(dual, random_coefficients(dual, np.random.default_rng(22)).stacks)
    product = apply_multiplier(symbol, coeffs)
    assert _bitwise_equal(product.blocks, [s @ f for s, f in zip(symbol.blocks, coeffs.blocks)])

    for level, scale in windows(dual):
        piece = lp_project(coeffs, level)
        assert _bitwise_equal(piece.blocks, [s * blk for s, blk in zip(scale, coeffs.blocks)])

    norms = operator_norms(symbol.stacks)
    oracle = np.array([np.linalg.svd(blk, compute_uv=False)[0] for blk in symbol.blocks])
    scalar = dual.dims == 1  # |sigma| instead of LAPACK: the 1 x 1 rule's ulp gate
    assert np.array_equal(norms[~scalar], oracle[~scalar])
    assert np.max(ulp_distance(norms[scalar], oracle[scalar])) <= 2

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
        assert np.array_equal(packed.block(i - len(dual)), packed.block(i))  # negative i counts from the end
    with pytest.raises(IndexError):
        packed.block(len(dual))


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


def test_slice_holds_its_grids_and_plans(su2, monkeypatch):
    import gc
    import weakref

    import liefourier.transform as transform
    from liefourier import build_spectral_symbol, check_hormander_mihlin

    built = []

    def spy(group, bandlimit):
        built.append(bandlimit)
        return build_grid(group, bandlimit)

    monkeypatch.setattr(transform, "build_grid", spy)
    dual = enumerate_dual(su2, spin_cutoff(3.5))
    grid = default_grid(dual)
    plan = _get_plan(grid, dual)
    assert default_grid(dual) is grid and _get_plan(default_grid(dual), dual) is plan and built == [3.5]
    # every half-octave window of a fractional-s check synthesises on the one oversampled grid
    symbol = build_spectral_symbol(lambda lam: lam ** (1j), dual)
    check_hormander_mihlin(symbol, 2.5)
    assert built == [3.5, 6.5]
    # a second enumeration of the same cutoff is another slice, with its own grid
    assert default_grid(enumerate_dual(su2, dual.cutoff)) is not grid and built == [3.5, 6.5, 3.5]
    held = [weakref.ref(grid), weakref.ref(plan)]
    del dual, grid, plan, symbol
    gc.collect()
    assert [ref() for ref in held] == [None, None]


@pytest.mark.skipif(not LONG_DOUBLE, reason="np.longdouble is no wider than float64 here")
@pytest.mark.parametrize("top", [64, 128])
def test_su2_characters_match_long_double_oracles(top):
    # at the 2 top midpoints of the theta rule (the p = 4 rule of tl_norms),
    # each error scaled by d, as |U_{d-1}| <= d: against the same recurrence
    # in long double from the same float64 x (measured 3.5e-15 / 2.1e-14 at
    # top 64 / 128), and against sin(d theta) / sin(theta) in long double at
    # the exact theta_j (measured 5.2e-14 / 1.5e-13, set by the rounding of
    # x = cos(theta_j); the float64 sin / sin table read 2.3e-14 / 4.1e-14)
    n = 2 * top
    x = np.cos((np.arange(n) + 0.5) * (np.pi / n))
    chi = _su2_characters(x, top)
    assert chi.shape == (top, n) and chi.flags.c_contiguous
    d = np.arange(1, top + 1, dtype=np.longdouble)[:, None]
    assert np.max(np.abs(chi - chebyshev_u_long_double(x, top)) / d) <= 1e-13
    theta = (np.arange(n, dtype=np.longdouble) + 0.5) * (np.arccos(np.longdouble(-1)) / n)
    assert np.max(np.abs(chi - np.sin(d * theta) / np.sin(theta)) / d) <= 5e-13


@pytest.mark.parametrize("top", [1, 2, 3, 64])
def test_su2_character_differences_equal_the_difference_of_two_tables(top):
    # with lag, each row is the table less itself lag points on, from one
    # recurrence: bit for bit the difference of two full tables, written into
    # out when given; the central class sum stacks (x', x, x'') with lag len(x)
    rng = np.random.default_rng(top)
    x = rng.uniform(-1.0, 1.0, 75)
    for lag in (25, 50):
        expected = _su2_characters(x[:-lag], top) - _su2_characters(x[lag:], top)
        assert np.array_equal(_su2_characters(x, top, lag), expected)
        out = np.empty((top, len(x) - lag))
        assert _su2_characters(x, top, lag, out=out) is out
        assert np.array_equal(out, expected)


@pytest.mark.parametrize("top", [64, 512])
def test_su2_characters_commute_with_negation(top):
    # U_{d-1}(-x) = (-1)^(d-1) U_{d-1}(x) bit for bit: the recurrence's 2x and
    # its subtraction only flip signs under x -> -x.  The central class sum
    # reads the classes of -a and -conj(a) from the table of a and conj(a)
    x = np.concatenate([np.linspace(-1.0, 1.0, 2001), np.random.default_rng(top).uniform(-1.0, 1.0, 2000)])
    sign = np.where(np.arange(top) % 2, -1.0, 1.0)[:, None]
    assert np.array_equal(_su2_characters(-x, top), sign * _su2_characters(x, top))


@pytest.mark.parametrize("top", [1, 2, 64, 128])
def test_su2_characters_exact_values(top):
    # U_{d-1}(1) = d (the dimension), U_{d-1}(-1) = (-1)^(d-1) d, and
    # U_{d-1}(0) = cos((d - 1) pi / 2): the recurrence is exact in integers
    d = np.arange(1, top + 1)
    chi = _su2_characters(np.array([1.0, -1.0, 0.0]), top)
    assert np.array_equal(chi[:, 0], d)
    assert np.array_equal(chi[:, 1], (-1.0) ** (d - 1) * d)
    assert np.array_equal(chi[:, 2], np.where(d % 2, (-1.0) ** ((d - 1) // 2), 0.0))
