import math

import numpy as np
import pytest

from conftest import irrep_labels
from liefourier import (
    FourierCoefficients,
    GridFunction,
    Symbol,
    apply_difference,
    build_spectral_symbol,
    check_hormander_mihlin,
    check_marcinkiewicz,
    check_weak_marcinkiewicz,
    dual_sobolev_norm,
    enumerate_dual,
    forward_transform,
    identity_symbol,
    inverse_on_grid,
    make_group,
    plancherel_norm,
)
from liefourier.dual import spin_cutoff
from liefourier.errors import ConfigurationError, MarginError, PreconditionError
from liefourier.groups import TORUS, build_grid, identity, su2_pair
from liefourier.spaces import psi
from liefourier.symbols import (
    _difference_batch,
    difference_validity,
    dyadic_rademacher_symbol,
    generator_count,
    multi_indices,
    operator_norms,
    sign_symbol,
    singular_values,
    symbol_from_config,
    symbol_linf,
)
from liefourier.transform import cached_grid


def _scalar_symbol_from_map(dual, mapping):
    return Symbol.from_blocks(dual, [np.array([[mapping[label]]], dtype=complex) for label in irrep_labels(dual)])


def _random_scalar_symbol(dual, rng):
    return Symbol.from_blocks(
        dual,
        [np.array([[rng.standard_normal() + 1j * rng.standard_normal()]]) for _ in range(len(dual))],
    )


# ---------------------------------------------------------------------------
# Generators and the grid-realised difference (the oracle of the stencils)
# ---------------------------------------------------------------------------

def generator_values(group, index, points):
    """The first-order generator function q_index evaluated at points."""
    points = np.asarray(points, dtype=float)
    if group.kind == TORUS:
        return np.exp(-2j * np.pi * points[..., index]) - 1.0
    a, b = su2_pair(points)
    return {(0, 0): a - 1.0, (0, 1): -np.conj(b), (1, 0): b, (1, 1): np.conj(a) - 1.0}[divmod(index, 2)]


def grid_difference(symbol, alpha):
    """Delta^alpha sigma = widehat(q^alpha f) by quadrature: realise f on a
    grid fine enough for q^alpha f, multiply pointwise, transform back."""
    dual = symbol.dual
    order = sum(alpha)
    extension = order if dual.group.kind == TORUS else order / 2.0
    grid = cached_grid(dual.group, dual.max_band + math.ceil(extension))
    values = inverse_on_grid(symbol, grid).values
    for idx, power in enumerate(alpha):
        values = values * generator_values(dual.group, idx, grid.points) ** power
    blocks = forward_transform(GridFunction(grid, values), dual).blocks
    return Symbol.from_blocks(dual, blocks, symbol.valid_mask() & difference_validity(dual, order))


def test_generators_vanish_at_identity(torus2, su2):
    for group in (torus2, su2):
        e = identity(group)
        for idx in range(generator_count(group)):
            assert abs(generator_values(group, idx, e)) < 1e-15


def test_strong_admissibility_on_grid(torus2, su2):
    # the generators' common zero set on the grid is only the identity
    for group, band in ((torus2, 3), (su2, 2.0)):
        grid = build_grid(group, band)
        stack = np.stack(
            [np.abs(generator_values(group, i, grid.points)) for i in range(generator_count(group))]
        )
        joint = stack.max(axis=0)
        from liefourier.groups import distance_to_identity

        dist = distance_to_identity(group, grid.points)
        assert np.all(joint[dist > 1e-12] > 1e-12)


@pytest.mark.parametrize(
    "kind,n,cutoff",
    [("torus", 1, 16.0), ("torus", 2, 6.0), ("torus", 3, 4.0), ("su2", 3, spin_cutoff(3)), ("su2", 3, spin_cutoff(7.5))],
)
def test_difference_matches_grid_oracle(kind, n, cutoff):
    # every multi-index of order <= 2 (mixed ones included) on random
    # non-scalar blocks, against the grid-realised difference
    group = make_group(kind, n)
    dual = enumerate_dual(group, cutoff)
    rng = np.random.default_rng([7, n, len(dual)])
    blocks = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for d in dual.dims]
    symbol = Symbol.from_blocks(dual, blocks)
    alphas = [a for k in range(3) for a in multi_indices(generator_count(group), k)]
    for alpha, diff in zip(alphas, _difference_batch(symbol, alphas)):
        oracle = grid_difference(symbol, alpha)
        assert np.array_equal(diff.valid_mask(), oracle.valid_mask())
        for got, want in zip(diff.blocks, oracle.blocks):
            assert np.max(np.abs(got - want)) < 1e-12, alpha


def test_multi_indices():
    assert multi_indices(2, 0) == [(0, 0)]
    assert set(multi_indices(2, 2)) == {(2, 0), (1, 1), (0, 2)}
    assert len(multi_indices(4, 2)) == 10


# ---------------------------------------------------------------------------
# Differences
# ---------------------------------------------------------------------------

def test_torus_difference_is_forward_shift(torus1):
    dual = enumerate_dual(torus1, 16.0)
    values = {label: 0.0 for label in irrep_labels(dual)}
    values[(0,)] = 1.0
    sig = _scalar_symbol_from_map(dual, values)
    diff = apply_difference(sig, (1,))
    got = {label: blk[0, 0] for label, blk in zip(irrep_labels(dual), diff.blocks)}
    assert abs(got[(-1,)] - 1.0) < 1e-12
    assert abs(got[(0,)] + 1.0) < 1e-12
    for label, val in got.items():
        if label not in ((-1,), (0,)):
            assert abs(val) < 1e-12


def test_torus_difference_matches_shift_oracle(torus1):
    rng = np.random.default_rng(0)
    dual = enumerate_dual(torus1, 24.0)
    for _ in range(5):
        sig = _random_scalar_symbol(dual, rng)
        vals = {label: blk[0, 0] for label, blk in zip(irrep_labels(dual), sig.blocks)}
        diff = apply_difference(sig, (1,))
        for keep, label, blk in zip(diff.valid_mask(), irrep_labels(dual), diff.blocks):
            if keep:
                oracle = vals.get((label[0] + 1,), 0.0) - vals[label]
                assert abs(blk[0, 0] - oracle) < 1e-12


def test_torus2_mixed_difference_oracle(torus2):
    rng = np.random.default_rng(1)
    dual = enumerate_dual(torus2, 6.0)
    sig = _random_scalar_symbol(dual, rng)
    vals = {label: blk[0, 0] for label, blk in zip(irrep_labels(dual), sig.blocks)}

    def get(label):
        return vals.get(label, 0.0)

    diff = apply_difference(sig, (1, 1))
    for keep, (a, b), blk in zip(diff.valid_mask(), irrep_labels(dual), diff.blocks):
        if keep:
            oracle = get((a + 1, b + 1)) - get((a + 1, b)) - get((a, b + 1)) + get((a, b))
            assert abs(blk[0, 0] - oracle) < 1e-12


def test_constant_symbol_difference_vanishes(torus1):
    dual = enumerate_dual(torus1, 12.0)
    sig = build_spectral_symbol(lambda lam: np.full_like(lam, 2.5), dual)
    diff = apply_difference(sig, (1,))
    for keep, blk in zip(diff.valid_mask(), diff.blocks):
        if keep:
            assert abs(blk[0, 0]) < 1e-12


def test_first_order_leibniz_on_torus(torus1):
    # Delta(sigma tau)(xi) = Delta sigma(xi) tau(xi+1) + sigma(xi) Delta tau(xi)
    rng = np.random.default_rng(2)
    dual = enumerate_dual(torus1, 12.0)
    sig = _random_scalar_symbol(dual, rng)
    tau = _random_scalar_symbol(dual, rng)
    prod = Symbol.from_blocks(dual, [a @ b for a, b in zip(sig.blocks, tau.blocks)])
    d_prod = apply_difference(prod, (1,))
    d_sig = apply_difference(sig, (1,))
    d_tau = apply_difference(tau, (1,))
    tau_vals = {label: blk[0, 0] for label, blk in zip(irrep_labels(dual), tau.blocks)}
    for keep, label, dp, ds, s, dt in zip(
        d_prod.valid_mask(), irrep_labels(dual), d_prod.blocks, d_sig.blocks, sig.blocks, d_tau.blocks
    ):
        if keep:
            shifted_tau = tau_vals.get((label[0] + 1,), 0.0)
            rhs = ds[0, 0] * shifted_tau + s[0, 0] * dt[0, 0]
            assert abs(dp[0, 0] - rhs) < 1e-12


@pytest.mark.parametrize("kind,cutoff", [("torus", 12.0), ("su2", spin_cutoff(4))])
def test_difference_composition(kind, cutoff, torus1, su2):
    group = torus1 if kind == "torus" else su2
    dual = enumerate_dual(group, cutoff)
    rng = np.random.default_rng(3)
    sig = build_spectral_symbol(lambda lam: np.exp(1j * lam) / lam, dual)
    m = generator_count(group)
    alpha = tuple([1] + [0] * (m - 1))
    beta = tuple([0] * (m - 1) + [1])
    once = apply_difference(apply_difference(sig, alpha), beta)
    combined = apply_difference(sig, tuple(a + b for a, b in zip(alpha, beta)))
    for keep, l, r in zip(combined.valid_mask(), once.blocks, combined.blocks):
        if keep:
            assert np.max(np.abs(l - r)) < 1e-11


def test_difference_linearity(su2):
    dual = enumerate_dual(su2, spin_cutoff(3))
    rng = np.random.default_rng(4)
    a = build_spectral_symbol(lambda lam: lam ** (1j), dual)
    b = build_spectral_symbol(lambda lam: 1.0 / lam, dual)
    combo = Symbol.from_blocks(dual, [2.0 * x + 3j * y for x, y in zip(a.blocks, b.blocks)])
    alpha = (0, 1, 0, 0)
    lhs = apply_difference(combo, alpha)
    da = apply_difference(a, alpha)
    db = apply_difference(b, alpha)
    for keep, l, x, y in zip(lhs.valid_mask(), lhs.blocks, da.blocks, db.blocks):
        if keep:
            assert np.max(np.abs(l - (2.0 * x + 3j * y))) < 1e-11


def test_validity_mask_margins(torus1, su2):
    # torus: trusted iff |xi| <= xi_max - |alpha|; su2: spin <= top - |alpha|/2
    dual = enumerate_dual(torus1, 16.0)
    diff = apply_difference(identity_symbol(dual), (1,))
    max_norm = np.sqrt(16.0**2 - 1.0)
    for keep, (xi,) in zip(diff.valid_mask(), irrep_labels(dual)):
        assert keep == (abs(xi) <= max_norm - 1.0 + 1e-9)
    dsu = enumerate_dual(su2, spin_cutoff(3))
    diff = apply_difference(identity_symbol(dsu), (1, 0, 0, 1))
    for keep, ell in zip(diff.valid_mask(), irrep_labels(dsu)):
        assert keep == (ell <= 2.0 + 1e-9)


def test_margin_error_lists_requirement(torus1):
    dual = enumerate_dual(torus1, 1.0)  # only the trivial irrep
    sig = identity_symbol(dual)
    with pytest.raises(MarginError, match="cutoff"):
        apply_difference(sig, (1,))


# ---------------------------------------------------------------------------
# Dual Sobolev norms
# ---------------------------------------------------------------------------

def test_sobolev_zero_symbol(torus1):
    dual = enumerate_dual(torus1, 8.0)
    zero = Symbol.from_blocks(dual, [np.zeros((1, 1), complex) for _ in range(len(dual))])
    assert dual_sobolev_norm(zero, 1.0) == 0.0


def test_sobolev_s0_is_plancherel(torus1, su2):
    rng = np.random.default_rng(5)
    for group, cutoff in ((torus1, 16.0), (su2, spin_cutoff(3))):
        dual = enumerate_dual(group, cutoff)
        sig = build_spectral_symbol(lambda lam: np.exp(1j * lam) / lam, dual)
        assert abs(dual_sobolev_norm(sig, 0.0) - plancherel_norm(sig)) < 1e-10


def test_sobolev_vs_max_difference_equivalence(torus1):
    # integer order: || q1^s f ||_L2 and max_{|alpha|=s} || D^alpha sigma ||_L2
    # agree up to two-sided constants; record the ratio and require it stable
    ratios = []
    for cutoff in (32.0, 64.0):
        dual = enumerate_dual(torus1, cutoff)
        sig = build_spectral_symbol(lambda lam: lam ** (2j), dual)
        lhs = dual_sobolev_norm(sig, 1.0)
        diff = apply_difference(sig, (1,))
        trusted = [b if keep else 0 * b for keep, b in zip(diff.valid_mask(), diff.blocks)]
        rhs = plancherel_norm(FourierCoefficients.from_blocks(dual, trusted))
        assert rhs > 0
        ratios.append(lhs / rhs)
    assert 0.1 < ratios[0] < 10.0
    assert abs(ratios[1] - ratios[0]) / ratios[0] < 0.25


def test_sobolev_rejects_negative_order(torus1):
    dual = enumerate_dual(torus1, 8.0)
    with pytest.raises(PreconditionError):
        dual_sobolev_norm(identity_symbol(dual), -1.0)


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------

def test_marcinkiewicz_identity_symbol(torus1):
    dual = enumerate_dual(torus1, 32.0)
    rep = check_marcinkiewicz(identity_symbol(dual), 1)
    assert rep.headline == 1.0
    assert abs(rep.constants[(0,)] - 1.0) < 1e-15
    assert rep.constants[(1,)] < 1e-11


def test_marcinkiewicz_power_it_stable(torus1):
    heads = []
    for cutoff in (64.0, 128.0):
        dual = enumerate_dual(torus1, cutoff)
        sig = build_spectral_symbol(lambda lam: lam ** (5j), dual)
        heads.append(check_marcinkiewicz(sig, 1).headline)
    assert abs(heads[1] - heads[0]) / heads[0] < 0.10


def test_marcinkiewicz_wave_diverges(torus1):
    c1 = []
    for cutoff in (32.0, 256.0):
        dual = enumerate_dual(torus1, cutoff)
        sig = build_spectral_symbol(lambda lam: np.exp(1j * lam), dual)
        c1.append(check_marcinkiewicz(sig, 1).constants[(1,)])
    assert c1[1] >= 8.0 * c1[0]


def test_hormander_mihlin_zero_symbol(torus1):
    dual = enumerate_dual(torus1, 16.0)
    zero = Symbol.from_blocks(dual, [np.zeros((1, 1), complex) for _ in range(len(dual))])
    rep = check_hormander_mihlin(zero, 1.0)
    assert rep.headline == 0.0


def test_hormander_mihlin_windowed_symbol_cutoff_independent(torus1):
    heads = []
    for cutoff in (32.0, 64.0):
        dual = enumerate_dual(torus1, cutoff)
        sig = build_spectral_symbol(lambda lam: psi(3, lam).astype(complex), dual)
        heads.append(check_hormander_mihlin(sig, 1.0).headline)
    assert abs(heads[1] - heads[0]) / heads[0] <= 0.01


def test_hormander_mihlin_bounded_by_marcinkiewicz(torus1):
    # windowed Sobolev norms are controlled by the difference constants; the
    # comparison factor is recorded and must be stable across the cutoff
    factors = []
    for cutoff in (32.0, 64.0):
        dual = enumerate_dual(torus1, cutoff)
        sig = build_spectral_symbol(lambda lam: lam ** (3j), dual)
        hm = check_hormander_mihlin(sig, 1.0).headline
        marc = check_marcinkiewicz(sig, 1).headline
        assert np.isfinite(hm) and marc > 0
        factors.append(hm / marc)
    assert abs(factors[1] - factors[0]) / factors[0] < 0.5


def test_hormander_mihlin_torus2(torus2):
    dual = enumerate_dual(torus2, 8.0)
    sig = build_spectral_symbol(lambda lam: lam ** (1j), dual)
    rep = check_hormander_mihlin(sig)  # default s = 2 > n/2
    assert rep.metadata["s"] == 2.0
    assert np.isfinite(rep.headline) and rep.headline >= 1.0


def test_hormander_mihlin_su2(su2):
    dual = enumerate_dual(su2, spin_cutoff(4))
    sig = build_spectral_symbol(lambda lam: lam ** (2j), dual)
    rep = check_hormander_mihlin(sig, 2.0)
    assert np.isfinite(rep.headline)
    assert rep.headline >= rep.metadata["linf"] == pytest.approx(1.0)


def test_hormander_mihlin_rejects_low_order(torus1, su2):
    with pytest.raises(PreconditionError):
        check_hormander_mihlin(identity_symbol(enumerate_dual(torus1, 8.0)), 0.5)
    with pytest.raises(PreconditionError):
        check_hormander_mihlin(identity_symbol(enumerate_dual(su2, 8.0)), 1.5)


def test_weak_marcinkiewicz_sign_symbol(torus1):
    # classical bounded-variation symbol: only the block containing the sign
    # jump at 0 contributes (difference first, then block restriction)
    dual = enumerate_dual(torus1, 64.0)
    rep = check_weak_marcinkiewicz(sign_symbol(dual), 1)
    assert abs(rep.constants[1] - 2.0) < 1e-11
    for j, val in rep.constants.items():
        if j != 1:
            assert val < 1e-10
    assert abs(rep.headline - 2.0) < 1e-11


def test_weak_marcinkiewicz_identity(torus1):
    dual = enumerate_dual(torus1, 32.0)
    rep = check_weak_marcinkiewicz(identity_symbol(dual), 1)
    assert rep.headline < 1e-10


def test_weak_marcinkiewicz_su2_stable(su2):
    heads = []
    for ell in (7.5, 15.5):
        dual = enumerate_dual(su2, spin_cutoff(ell))
        sig = build_spectral_symbol(lambda lam: lam ** (1j), dual)
        heads.append(check_weak_marcinkiewicz(sig, 1).headline)
    assert abs(heads[1] - heads[0]) / heads[0] < 0.15


def test_weak_marcinkiewicz_validates_order(torus1):
    dual = enumerate_dual(torus1, 16.0)
    with pytest.raises(PreconditionError):
        check_weak_marcinkiewicz(identity_symbol(dual), 3)


def test_batched_norms_equal_per_block_calls():
    rng = np.random.default_rng(11)
    shapes = ((3, 1), (1, 2), (2, 7), (1, 64))  # (run length, d)
    stacks = [rng.standard_normal((k, d, d)) + 1j * rng.standard_normal((k, d, d)) for k, d in shapes]
    blocks = [blk for stack in stacks for blk in stack]
    norms = operator_norms(stacks)
    assert len(norms) == len(blocks)
    for blk, norm, sv in zip(blocks, norms, [sv for svs in singular_values(stacks) for sv in svs]):
        assert norm == np.linalg.norm(blk, 2)
        assert np.sum(sv) == np.sum(np.linalg.svd(blk, compute_uv=False))


# ---------------------------------------------------------------------------
# Symbol constructors
# ---------------------------------------------------------------------------

def test_spectral_symbol_values(su2):
    dual = enumerate_dual(su2, spin_cutoff(2))
    sig = build_spectral_symbol(lambda lam: lam ** (1j * 2.0), dual)
    for lam, d, blk in zip(dual.eigenvalues, dual.dims, sig.blocks):
        assert np.max(np.abs(blk - lam ** (2j) * np.eye(d))) < 1e-14
        assert abs(np.linalg.norm(blk, 2) - 1.0) < 1e-12  # unimodular


def test_symbol_from_config_types(torus1, su2):
    dual = enumerate_dual(torus1, 16.0)
    for cfg in (
        {"type": "identity"},
        {"type": "power_it", "t": 5.0},
        {"type": "wave"},
        {"type": "sign"},
        {"type": "window", "ell": 2},
        {"type": "dyadic_rademacher", "seed": 3},
    ):
        sig = symbol_from_config(cfg, torus1)(dual)
        assert len(sig.blocks) == len(dual)
    # refused when the config is read, before any slice exists
    for cfg, group in (
        ({"type": "nope"}, torus1),
        ("wave", torus1),
        ({"type": "window"}, torus1),
        ({"type": "wave", "t": 3}, torus1),
        ({"type": "power_it", "t": float("nan")}, torus1),
        ({"type": "window", "ell": 1.5}, torus1),
        ({"type": "dyadic_rademacher", "seed": -1}, torus1),
        ({"type": "dyadic_rademacher", "seed": True}, torus1),
        ({"type": "sign"}, su2),
    ):
        with pytest.raises(ConfigurationError):
            symbol_from_config(cfg, group)


def test_sign_symbol_su2_rejected(su2):
    dual = enumerate_dual(su2, 4.0)
    with pytest.raises(ConfigurationError):
        sign_symbol(dual)


def test_dyadic_rademacher_is_marcinkiewicz_bounded(torus1):
    # block-constant symbols have differences only at block edges
    dual = enumerate_dual(torus1, 128.0)
    sig = dyadic_rademacher_symbol(dual, seed=9)
    rep = check_weak_marcinkiewicz(sig, 1)
    assert rep.headline <= 4.0 + 1e-9
    assert symbol_linf(sig) == 1.0


def test_scalar_profiles_commute_under_difference(torus1):
    dual = enumerate_dual(torus1, 16.0)
    a = build_spectral_symbol(lambda lam: lam ** (1j), dual)
    b = build_spectral_symbol(lambda lam: 1.0 / lam, dual)
    ab = Symbol.from_blocks(dual, [x @ y for x, y in zip(a.blocks, b.blocks)])
    ba = Symbol.from_blocks(dual, [y @ x for x, y in zip(a.blocks, b.blocks)])
    da = apply_difference(ab, (1,))
    db = apply_difference(ba, (1,))
    for keep, x, y in zip(da.valid_mask(), da.blocks, db.blocks):
        if keep:
            assert np.max(np.abs(x - y)) < 1e-13
