import itertools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import irrep_labels, spy_recorded_stack_reads, ulp_distance
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
from liefourier.groups import TORUS, build_grid, grid_q1_weight, identity, su2_pair
from liefourier.spaces import psi
from liefourier.symbols import (
    _differences,
    _require_margin,
    _require_sobolev_room,
    _su2_diagonal,
    _su2_diagonal_step,
    _su2_ladder,
    _su2_step,
    _torus_box,
    _torus_step,
    difference_validity,
    dyadic_rademacher_symbol,
    generator_count,
    operator_norms,
    sign_symbol,
    singular_values,
    symbol_linf,
)
from liefourier import transform
from liefourier.transform import default_grid, slice_grid


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
    grid = slice_grid(dual, dual.max_band + math.ceil(extension))
    values = inverse_on_grid(symbol, grid).values
    for idx, power in enumerate(alpha):
        values = values * generator_values(dual.group, idx, grid.points) ** power
    blocks = forward_transform(GridFunction(grid, values), dual).blocks
    return Symbol(dual, Symbol.from_blocks(dual, blocks).stacks, symbol.valid_mask() & difference_validity(dual, order))


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
    for alpha in (a for order in range(3) for a in lexicographic_indices(generator_count(group), order)):
        diff = apply_difference(symbol, alpha)
        oracle = grid_difference(symbol, alpha)
        assert np.array_equal(diff.valid_mask(), oracle.valid_mask())
        for got, want in zip(diff.blocks, oracle.blocks):
            assert np.max(np.abs(got - want)) < 1e-12, alpha


# ---------------------------------------------------------------------------
# The depth-first walk against the memoised batch it replaced
# ---------------------------------------------------------------------------

def batch_differences(symbol, alphas):
    """Differences for several multi-indices, every prefix state memoised
    until the end: a multi-index is one step of its last generator applied
    to its parent, composed once per shared prefix."""
    dual = symbol.dual
    count = generator_count(dual.group)
    orders = [int(sum(alpha)) for alpha in alphas]
    _require_margin(dual, max(orders))
    base_valid = symbol.valid_mask()
    if dual.group.kind == TORUS:
        start, gather = _torus_box(symbol)
        step = _torus_step
    else:
        start, gather = _su2_ladder(symbol, max(orders))
        step = _su2_step
    states = {tuple([0] * count): start}

    def state(alpha):
        if alpha not in states:
            k = max(i for i, a in enumerate(alpha) if a)
            states[alpha] = step(state(alpha[:k] + (alpha[k] - 1,) + alpha[k + 1 :]), k)
        return states[alpha]

    return [
        Symbol(dual, gather(state(alpha)), base_valid & difference_validity(dual, order))
        for alpha, order in zip(alphas, orders)
    ]


def lexicographic_indices(count, order):
    """Every multi-index over ``count`` generators with |alpha| = order, in
    ascending lexicographic order."""
    return sorted(a for a in itertools.product(range(order + 1), repeat=count) if sum(a) == order)


@pytest.mark.parametrize(
    "kind,n,cutoff",
    [("torus", 1, 12.0), ("torus", 2, 7.0), ("torus", 3, 5.0), ("su2", 3, spin_cutoff(7.5))],
)
def test_walk_matches_batch_oracle(kind, n, cutoff):
    # every node of order <= 3 bitwise, singular values and masks;
    # apply_difference composes its own steps and must land on the batch's bits
    group = make_group(kind, n)
    dual = enumerate_dual(group, cutoff)
    rng = np.random.default_rng([11, n, len(dual)])
    blocks = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for d in dual.dims]
    symbol = Symbol.from_blocks(dual, blocks)
    walk = list(_differences(symbol, 3))
    alphas = [alpha for alpha, _, _ in walk]
    for (alpha, values, valid), want in zip(walk, batch_differences(symbol, alphas)):
        assert np.array_equal(valid, want.valid_mask()), alpha
        assert all(np.array_equal(a, b) for a, b in zip(values, singular_values(want.stacks))), alpha
        single = apply_difference(symbol, alpha)
        assert np.array_equal(single.valid_mask(), want.valid_mask()), alpha
        assert all(np.array_equal(a, b) for a, b in zip(single.stacks, want.stacks)), alpha


@pytest.mark.parametrize("kind,n", [("torus", 1), ("torus", 2), ("torus", 3), ("su2", 3)])
def test_walk_yields_each_multi_index_once_in_lexicographic_order(kind, n):
    group = make_group(kind, n)
    dual = enumerate_dual(group, 8.0)
    count = generator_count(group)
    for order in range(4):
        alphas = [alpha for alpha, _, _ in _differences(identity_symbol(dual), order)]
        assert len(alphas) == len(set(alphas))
        for k in range(order + 1):
            assert [a for a in alphas if sum(a) == k] == lexicographic_indices(count, k)
        assert all(sum(a) <= order for a in alphas)


@pytest.mark.parametrize(
    "kind,n,cutoff,kappa",
    [("torus", 3, 16.0, 2), ("torus", 2, 64.0, 3), ("su2", 3, 32.6, 2)],
)
def test_marcinkiewicz_holds_only_the_current_path(kind, n, cutoff, kappa):
    # tracemalloc peak of a warm check in units of one difference state: a
    # (2B + 1)^n label box on T^n, a ladder of spins k/2, k <= 2 l_max +
    # kappa, on SU(2).  Keeping every prefix state took 17 / 20 / 28 units
    group = make_group(kind, n)
    dual = enumerate_dual(group, cutoff)
    symbol = build_spectral_symbol(lambda lam: lam ** (1j), dual)
    if kind == TORUS:
        state = (2 * int(dual.max_band) + 1) ** n * 16
    else:
        state = sum((k + 1) ** 2 for k in range(int(2 * dual.max_band) + kappa + 1)) * 16
    expected = check_marcinkiewicz(symbol, kappa)  # warms the slice's cached arrays
    tracemalloc.start()
    try:
        assert check_marcinkiewicz(symbol, kappa) == expected
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * state, f"peak {peak / state:.1f} states"


@pytest.mark.parametrize("path", ["diagonal", "ladder"])
def test_su2_walk_holds_only_the_current_path(path):
    # tracemalloc peak of a warm kappa-2 check at spin 31.5: a spectral symbol
    # takes the diagonal state, (2 l_max + kappa + 1)^2 complex entries; its
    # blocks with nothing recorded keep the ladder, of sum (k + 1)^2 such entries
    dual = enumerate_dual(make_group("su2"), spin_cutoff(31.5))
    spins = int(2 * dual.max_band) + 2 + 1
    symbol = build_spectral_symbol(lambda lam: lam ** (1j), dual)
    if path == "diagonal":
        state = spins**2 * 16
    else:
        symbol, state = Symbol(dual, symbol.stacks), sum((k + 1) ** 2 for k in range(spins)) * 16
    expected = check_marcinkiewicz(symbol, 2)  # warms the slice's cached arrays and the coupling tables
    tracemalloc.start()
    try:
        assert check_marcinkiewicz(symbol, 2) == expected
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * state, f"peak {peak / state:.1f} states"


# ---------------------------------------------------------------------------
# The diagonal SU(2) state against the ladder
# ---------------------------------------------------------------------------

def _diagonal_state(symbol, pad):
    """The diagonal state read off blocks that are zero off their main
    diagonal, scalar or not: row k holds the diagonal of spin k/2's block.
    The library enters the state only from recorded scalars; this fill keeps
    the diagonal steps checked on non-scalar diagonals."""
    spins = len(symbol.stacks) + pad
    state = np.zeros((spins, spins), dtype=complex)
    for k, stack in enumerate(symbol.stacks):
        assert np.array_equal(stack[0], np.diag(np.diagonal(stack[0])))
        state[k, : k + 1] = np.diagonal(stack[0])
    return state


def _diagonal_symbols(dual):
    """A spectral symbol and random non-scalar diagonal blocks."""
    rng = np.random.default_rng([13, len(dual)])
    return [
        build_spectral_symbol(lambda lam: lam ** (1j), dual),
        Symbol.from_blocks(dual, [np.diag(rng.standard_normal(d) + 1j * rng.standard_normal(d)) for d in dual.dims]),
    ]


@pytest.mark.parametrize("ell_max", [0.5, 1.0, 1.5, 3.0, 7.5, 15.5])
def test_diagonal_state_is_the_ladder_diagonal(ell_max):
    # every multi-index of order <= 3, composed as apply_difference composes
    # it: the ladder is exactly zero off the state's diagonal and equal to the
    # state on it (np.array_equal: the same bits, but a zero of either sign).
    # The spectral symbol's state, built from its scalars, is the fill of its blocks
    dual = enumerate_dual(make_group("su2"), spin_cutoff(ell_max))
    spectral, blocks = _diagonal_symbols(dual)
    assert np.array_equal(_su2_diagonal(spectral, 3), _diagonal_state(spectral, 3))
    assert _su2_diagonal(blocks, 3) is None
    for symbol in (spectral, blocks):
        for alpha in (a for order in range(4) for a in lexicographic_indices(4, order)):
            ladder, _ = _su2_ladder(symbol, 3)
            state = (_diagonal_state(symbol, 3), 0)
            for index, power in enumerate(alpha):
                for _ in range(power):
                    ladder, state = _su2_step(ladder, index), _su2_diagonal_step(state, index)
            diagonal, offset = state
            assert offset == alpha[2] - alpha[1], alpha  # q_ij moves the offset by i - j
            assert diagonal.shape == (len(ladder), len(ladder))
            for k, blk in enumerate(ladder):
                rows = np.arange(k + 1)
                inside = (rows + offset >= 0) & (rows + offset <= k)
                on = np.zeros_like(blk, dtype=bool)
                on[rows[inside], rows[inside] + offset] = True
                want = np.where(inside, blk[rows, np.clip(rows + offset, 0, k)], 0)
                assert np.array_equal(diagonal[k, : k + 1], want), (alpha, k)
                assert not blk[~on].any() and not diagonal[k, k + 1 :].any(), (alpha, k)


def _check_constants(symbol):
    return (
        {kappa: check_marcinkiewicz(symbol, kappa).constants for kappa in (1, 2, 3)},
        {s0: check_weak_marcinkiewicz(symbol, s0).constants for s0 in (0, 1, 2, 3)},
        {s: check_hormander_mihlin(symbol, float(s)).constants for s in (2, 3, 4)},
    )


def _assert_constants_agree(got, want):
    # the diagonal state's moduli against LAPACK's singular values of the
    # ladder blocks: within 4 ulps, the gate of np.abs for 1 x 1 blocks; the
    # Sobolev pairings sum in another order, within 1e-13
    (marc, weak, hm), (marc_want, weak_want, hm_want) = got, want
    for got, want in (*zip(marc.values(), marc_want.values()), *zip(weak.values(), weak_want.values())):
        assert list(got) == list(want)
        assert np.max(ulp_distance(list(got.values()), list(want.values()))) <= 4
    for got, want in zip(hm.values(), hm_want.values()):
        assert list(got) == list(want)
        assert all(abs(got[r] - want[r]) <= 1e-13 * want[r] for r in want)


@pytest.mark.parametrize("ell_max", [7.5, 15.5])
def test_diagonal_checkers_match_the_matrix_path(ell_max, monkeypatch):
    # the random diagonal blocks record no scalars, so they enter the diagonal
    # state through the fill of their blocks
    import liefourier.symbols as symbols

    dual = enumerate_dual(make_group("su2"), spin_cutoff(ell_max))
    spectral, blocks = _diagonal_symbols(dual)
    wave = build_spectral_symbol(lambda lam: np.exp(1j * lam), dual)
    with monkeypatch.context() as patch:
        patch.setattr(symbols, "_su2_diagonal", _diagonal_state)
        fast = [_check_constants(blocks)]
    fast += [_check_constants(symbol) for symbol in (spectral, wave)]
    monkeypatch.setattr(symbols, "_su2_diagonal", lambda symbol, pad: None)
    for got, symbol in zip(fast, (blocks, spectral, wave)):
        _assert_constants_agree(got, _check_constants(symbol))


def _spectral_symbols(dual):
    """The command line's power_it (t = 1) and wave symbols."""
    return [build_spectral_symbol(lambda lam: lam ** (1j), dual), build_spectral_symbol(lambda lam: np.exp(1j * lam), dual)]


@pytest.mark.parametrize("ell_max", [7.5, 15.5])
def test_su2_class_function_checks_read_no_block(ell_max, monkeypatch):
    # the difference checks, the Hormander-Mihlin check and the integer
    # Sobolev norm start from the recorded scalars: a spy on the derived
    # blocks sees no read, and the constants are those computed without it
    dual = enumerate_dual(make_group("su2"), spin_cutoff(ell_max))

    def constants(symbol):
        return (
            {kappa: check_marcinkiewicz(symbol, kappa).constants for kappa in (1, 2, 3)},
            {s0: check_weak_marcinkiewicz(symbol, s0).constants for s0 in (0, 1, 2, 3)},
            {s: check_hormander_mihlin(symbol, float(s)).constants for s in (2, 3, 4)},
            [dual_sobolev_norm(symbol, s) for s in (0, 1, 2, 3, 4)],
        )

    spectral = _spectral_symbols(dual)
    want = [constants(symbol) for symbol in spectral]
    reads = spy_recorded_stack_reads(monkeypatch)
    assert [constants(symbol) for symbol in spectral] == want
    assert reads == []


def test_unrecorded_blocks_take_the_ladder(monkeypatch):
    # the same c I blocks with nothing recorded take the ladder, diagonal as
    # they are, and agree with the recorded path within the gates above
    import liefourier.symbols as symbols

    dual = enumerate_dual(make_group("su2"), spin_cutoff(7.5))
    steps, step = [], symbols._su2_step

    def spy_step(*args):
        steps.append(args[1])
        return step(*args)

    monkeypatch.setattr(symbols, "_su2_step", spy_step)
    for sig in _spectral_symbols(dual):
        recorded = _check_constants(sig)
        assert steps == []
        unrecorded = _check_constants(Symbol(dual, sig.stacks))
        assert steps != []
        del steps[:]
        _assert_constants_agree(recorded, unrecorded)


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


@pytest.mark.parametrize(
    "n,cutoffs",
    [(1, [1.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0]), (2, [8.0, 12.0, 16.0, 24.0, 32.0, 40.0]), (3, [6.0, 8.0, 10.0, 16.0, 24.0, 64.0])],
)
def test_torus_validity_read_off_eigenvalues_equals_label_norms(n, cutoffs):
    # the torus mask reads |xi| off <xi> = sqrt(1 + |xi|^2); the oracle is
    # the norm of the integer labels, at the shipped and benchmark cutoffs
    for cutoff in cutoffs:
        dual = enumerate_dual(make_group("torus", n), cutoff)
        reach = math.sqrt(max(cutoff**2 - 1.0, 0.0))
        for order in range(4):
            oracle = np.sqrt(np.sum(dual.labels**2, axis=1)) <= reach - order + 1e-9
            assert np.array_equal(difference_validity(dual, order), oracle if order else np.ones(len(dual), dtype=bool))


def test_margin_error_lists_requirement(torus1):
    dual = enumerate_dual(torus1, 1.0)  # only the trivial irrep
    sig = identity_symbol(dual)
    with pytest.raises(MarginError, match="cutoff"):
        apply_difference(sig, (1,))
    spin_zero = identity_symbol(enumerate_dual(make_group("su2"), 1.0))
    with pytest.raises(MarginError, match="at least 1.32288"):  # spin_cutoff(1/2)
        apply_difference(spin_zero, (1, 0, 0, 0))


@pytest.mark.parametrize(
    "kind,alpha", [("torus", (1, 0)), ("torus", (-1,)), ("su2", (1, 0, 0)), ("su2", (0, 0, -1, 1))]
)
def test_apply_difference_refuses_bad_multi_index(kind, alpha):
    sig = identity_symbol(enumerate_dual(make_group(kind, 1), 8.0))
    with pytest.raises(PreconditionError, match="multi-index"):
        apply_difference(sig, alpha)


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


def grid_sobolev_norm(symbol, s):
    """|| q1^s f ||_2 by quadrature: f on the grid of bandlimit max_band +
    ceil(s), weighted by q1^(2s).  Exact for integer s, where q1^(2s) f is
    band limited; the library's own path for fractional s."""
    grid = build_grid(symbol.dual.group, symbol.dual.max_band + math.ceil(max(s, 0.0)))
    f = inverse_on_grid(symbol, grid)
    weight = grid_q1_weight(grid) ** (2.0 * s) if s > 0 else 1.0
    return float(np.sqrt(np.sum(grid.weights * weight * np.abs(f.values) ** 2)))


def _random_block_symbol(kind, n, cutoff, diagonal=False):
    dual = enumerate_dual(make_group(kind, n), cutoff)
    rng = np.random.default_rng([11, n, len(dual)])
    blocks = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for d in dual.dims]
    return Symbol.from_blocks(dual, [np.diag(np.diagonal(b)) for b in blocks] if diagonal else blocks)


@pytest.mark.parametrize(
    "kind,n,cutoff,diagonal",
    [
        pytest.param("su2", 3, spin_cutoff(7.5), False, id="su2-7.5"),
        pytest.param("su2", 3, spin_cutoff(15.5), False, id="su2-15.5"),
        pytest.param("su2", 3, spin_cutoff(31.5), False, id="su2-31.5"),
        pytest.param("su2", 3, spin_cutoff(15.5), True, id="su2-15.5-diagonal"),
        pytest.param("su2", 3, spin_cutoff(31.5), True, id="su2-31.5-diagonal"),
        pytest.param("torus", 1, 64.0, False, id="t1-64"),
        pytest.param("torus", 2, 24.0, False, id="t2-24"),
        pytest.param("torus", 3, 10.0, False, id="t3-10"),
    ],
)
def test_integer_sobolev_stencil_matches_grid_oracle(kind, n, cutoff, diagonal, monkeypatch):
    # random non-scalar blocks, so every block entry and every Clebsch-Gordan
    # coupling of the SU(2) stencil is exercised; random diagonal blocks
    # record no scalars and enter the diagonal state through the fill of
    # their blocks
    import liefourier.symbols as symbols

    symbol = _random_block_symbol(kind, n, cutoff, diagonal)
    if diagonal:
        filled = []
        monkeypatch.setattr(symbols, "_su2_diagonal", lambda symbol, pad: filled.append(pad) or _diagonal_state(symbol, pad))
    for s in (1, 2, 3):
        got, want = dual_sobolev_norm(symbol, float(s)), grid_sobolev_norm(symbol, float(s))
        assert abs(got - want) <= 1e-12 * want, s
        assert dual_sobolev_norm(symbol, s) == got
    if diagonal:
        assert filled == [0, 0, 1, 1, 1, 1]


@pytest.mark.parametrize(
    "kind,n,cutoff",
    [("su2", 3, spin_cutoff(7.5)), ("su2", 3, spin_cutoff(15.5)), ("torus", 1, 64.0), ("torus", 2, 16.0), ("torus", 3, 6.0)],
)
def test_fractional_sobolev_stays_on_the_grid(kind, n, cutoff):
    # the moduli stream into one real array slab by slab (two slabs at spin 15.5) and are
    # squared and weighted as the whole-grid oracle does, so the norm keeps its bits
    symbol = _random_block_symbol(kind, n, cutoff)
    for s in (1.6, 2.5):
        assert dual_sobolev_norm(symbol, s) == grid_sobolev_norm(symbol, s)


def test_fractional_sobolev_peak_memory(su2, monkeypatch):
    # s = 2.5 at spin 15.5 on the grid of bandlimit 18.5 (N nodes) with a warm plan on 27
    # slabs: the squared moduli (1 x N x 8 bytes) next to grid_q1_weight's complex a(x) of
    # every node and its clipped real part (3); the synthesis streams below that.
    # Measured 4.003 x N x 8 bytes, against 5.003 with the complex samples held whole
    symbol = _random_block_symbol("su2", 3, spin_cutoff(15.5))
    dual = symbol.dual
    monkeypatch.setattr(transform, "_SLAB_BYTES", -(-len(default_grid(dual)) * 16 // 16))
    expected = dual_sobolev_norm(symbol, 2.5)  # warms the grid and the plan
    n = len(slice_grid(dual, dual.max_band + 3))
    tracemalloc.start()
    try:
        assert dual_sobolev_norm(symbol, 2.5) == expected
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4.2 * n * 8, f"peak {peak / (n * 8):.2f} x N x 8 bytes"


def test_fractional_sobolev_weights_in_place(su2):
    # s = 2.5 at spin 31.5 (N nodes on the grid of bandlimit 34.5, default slabs): the
    # powers, node weights and density go into grid_q1_weight's array in place, next to
    # the squared moduli, so the weights add no grid-sized temporary. Measured
    # 2.240 x N x 8 bytes (24.6 MB), against 3.007 (33.0 MB) with the weights formed
    # out of place, which read the same bits
    symbol = _random_block_symbol("su2", 3, spin_cutoff(31.5))
    dual = symbol.dual
    expected = dual_sobolev_norm(symbol, 2.5)  # warms the grid and the plan
    n = len(slice_grid(dual, dual.max_band + 3))
    tracemalloc.start()
    try:
        assert dual_sobolev_norm(symbol, 2.5) == expected
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.4 * n * 8, f"peak {peak / (n * 8):.3f} x N x 8 bytes"


def test_integer_hormander_mihlin_builds_no_grid(torus1, torus2, su2, monkeypatch):
    import liefourier.symbols as symbols

    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was requested")

    monkeypatch.setattr(symbols, "slice_grid", no_grid)
    monkeypatch.setattr(symbols, "inverse_slabs", no_grid)
    for group, cutoff in ((torus1, 64.0), (torus2, 16.0), (make_group("torus", 3), 8.0), (su2, spin_cutoff(15.5))):
        sig = build_spectral_symbol(lambda lam: lam ** (1j), enumerate_dual(group, cutoff))
        assert np.isfinite(check_hormander_mihlin(sig).headline)


@pytest.mark.parametrize(
    "kind,n,max_band,s,refused",
    [
        pytest.param("torus", 3, 126.0, 2, False, id="t3-126"),
        pytest.param("torus", 3, 127.0, 2, True, id="t3-127"),  # 257^3 cells > 2^24
        pytest.param("torus", 2, 2046.0, 2, False, id="t2-2046"),
        pytest.param("torus", 2, 2047.0, 2, True, id="t2-2047"),  # 4097^2 cells > 2^24
        pytest.param("torus", 1, 4095.0, 1, False, id="t1-4095"),
        pytest.param("torus", 1, 64.0, 10**6, True, id="t1-steps"),  # few cells, many steps
        pytest.param("su2", 3, 64.0, 2, False, id="su2-64"),
        pytest.param("su2", 3, 63.5, 10**6, True, id="su2-1e6"),
        pytest.param("su2", 3, 7.5, 10**300, True, id="su2-1e300"),
        # fractional s: one synthesis on the grid of bandlimit max_band + ceil(s)
        pytest.param("su2", 3, 63.5, 2.5, False, id="su2-63.5-grid"),  # 268 x 134 x 268 nodes
        pytest.param("su2", 3, 63.5, 200.5, True, id="su2-63.5-s200.5-grid"),  # 1060 x 530 x 1060 nodes
        pytest.param("torus", 3, 124.0, 2.5, False, id="t3-124-grid"),  # 255^3 nodes
        pytest.param("torus", 3, 125.0, 2.5, True, id="t3-125-grid"),  # 257^3 nodes > 2^24
        pytest.param("torus", 1, 64.0, 1e15 + 0.5, True, id="t1-huge-s-grid"),
    ],
)
def test_stencil_room_counts_padded_cells_times_steps(kind, n, max_band, s, refused):
    # a stand-in slice: only the group and max_band are read, and the slices
    # at the edge would take hundreds of MB to enumerate
    dual = SimpleNamespace(group=make_group(kind, n), max_band=max_band)
    if refused:
        with pytest.raises(PreconditionError, match="GB per complex state"):
            _require_sobolev_room(dual, s)
    else:
        _require_sobolev_room(dual, s)


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


def test_hormander_mihlin_skips_windows_empty_on_the_slice(torus1):
    # at cutoff 2.1 the eigenvalues are 1 and sqrt 2: the half-octave window
    # at r = 2^1.5 vanishes at both, so it gets no constant
    sig = build_spectral_symbol(lambda lam: lam ** (1j), enumerate_dual(torus1, 2.1))
    assert list(check_hormander_mihlin(sig, 1.0).constants) == [1.0, 2.0**0.5, 2.0]


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
    assert rep == check_hormander_mihlin(sig, 2.0)
    assert np.isfinite(rep.headline) and rep.headline >= 1.0


def test_hormander_mihlin_su2(su2):
    dual = enumerate_dual(su2, spin_cutoff(4))
    sig = build_spectral_symbol(lambda lam: lam ** (2j), dual)
    rep = check_hormander_mihlin(sig, 2.0)
    assert np.isfinite(rep.headline)
    assert rep.headline >= symbol_linf(sig) == pytest.approx(1.0)


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


def _assert_scalar_rule(su2, entries, ulps):
    """|sigma| of 1 x 1 blocks is within ``ulps`` of LAPACK's singular value,
    on a torus-like run of them and as the spin-0 run of an SU(2) symbol,
    whose larger blocks keep LAPACK's bits."""
    stack = entries.reshape(-1, 1, 1)
    (fast,) = singular_values([stack])
    assert fast.shape == (len(entries), 1)
    assert np.max(ulp_distance(fast, np.linalg.svd(stack, compute_uv=False))) <= ulps
    symbol = _random_block_symbol("su2", 3, spin_cutoff(2))
    for entry in entries[:64]:
        symbol.stacks[0][0, 0, 0] = entry
        fast = singular_values(symbol.stacks)
        assert ulp_distance(fast[0], np.linalg.svd(symbol.stacks[0], compute_uv=False)).item() <= ulps
        assert all(np.array_equal(sv, np.linalg.svd(stack, compute_uv=False)) for sv, stack in zip(fast[1:], symbol.stacks[1:]))


@pytest.mark.parametrize(
    "scale,ulps",
    [(1e-20, 2), (1e-8, 2), (1.0, 2), (1e8, 2), (1e20, 2), (1e-150, 4), (1e150, 4), (1e-300, 4), (1e300, 4)],
)
def test_scalar_singular_values_within_ulps_of_lapack(su2, scale, ulps):
    # LAPACK rescales near 1e+-150 and beyond, which costs it up to 4 ulps there
    rng = np.random.default_rng([12, int(math.log10(scale)) + 300])
    _assert_scalar_rule(su2, scale * (rng.standard_normal(4000) + 1j * rng.standard_normal(4000)), ulps)


@pytest.mark.parametrize("decades,ulps", [(20, 0), (300, 4)])
def test_scalar_singular_values_on_the_axes(su2, decades, ulps):
    # |x +- 0i| and |+-0 + xi| are |x| exactly; LAPACK agrees until it rescales, beyond about 1e+-140
    rng = np.random.default_rng([13, decades])
    parts = rng.standard_normal(1000) * 10.0 ** rng.integers(-decades, decades + 1, 1000)
    parts[::7], parts[1::7] = 0.0, -0.0
    zeros = np.resize([0.0, -0.0], parts.size)
    real_only, imaginary_only = parts + 0j, np.empty(parts.size, dtype=complex)
    real_only.imag = zeros
    imaginary_only.real, imaginary_only.imag = zeros, parts
    for entries in (real_only, imaginary_only):
        assert np.array_equal(singular_values([entries.reshape(-1, 1, 1)])[0][:, 0], np.abs(parts))
        _assert_scalar_rule(su2, entries, ulps)


@pytest.mark.parametrize("n,cutoff", [(1, 64.0), (2, 16.0), (3, 8.0)])
def test_torus_checkers_call_no_lapack(n, cutoff, monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("LAPACK svd was called")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    sig = build_spectral_symbol(lambda lam: lam ** (1j), enumerate_dual(make_group("torus", n), cutoff))
    for kappa in (1, 2):
        assert np.isfinite(check_marcinkiewicz(sig, kappa).headline)
    assert np.isfinite(check_weak_marcinkiewicz(sig, 1).headline)
    assert np.isfinite(check_hormander_mihlin(sig).headline)


def _signed_box(rng, shape):
    box = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for part in (box.real, box.imag):
        flat = part.reshape(-1)
        flat[rng.random(flat.size) < 0.2] = 0.0
        flat[rng.random(flat.size) < 0.2] = -0.0
    return box


@pytest.mark.parametrize("shape", [(1,), (9,), (1, 1), (5, 7), (7, 7), (3, 4, 5), (5, 5, 5)])
def test_torus_step_is_np_diff_bitwise(shape):
    box = _signed_box(np.random.default_rng([14, *shape]), shape)
    for axis in range(len(shape)):
        want = np.diff(box, axis=axis, append=0)
        got = _torus_step(box, axis)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), axis


def test_torus_step_makes_no_padded_copy():
    # besides the output, only numpy's fixed ufunc buffers (3 x 8192 elements, off axis 0) are allocated
    box = _signed_box(np.random.default_rng(15), (81, 81, 81))
    for axis in range(3):
        tracemalloc.start()
        try:
            _torus_step(box, axis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * box.nbytes, (axis, peak / box.nbytes)


# ---------------------------------------------------------------------------
# Symbol constructors
# ---------------------------------------------------------------------------

def test_spectral_symbol_values(su2):
    dual = enumerate_dual(su2, spin_cutoff(2))
    sig = build_spectral_symbol(lambda lam: lam ** (1j * 2.0), dual)
    for lam, d, blk in zip(dual.eigenvalues, dual.dims, sig.blocks):
        assert np.max(np.abs(blk - lam ** (2j) * np.eye(d))) < 1e-14
        assert abs(np.linalg.norm(blk, 2) - 1.0) < 1e-12  # unimodular


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
