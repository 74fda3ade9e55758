"""Symbols on the unitary dual, difference operators, dual-side Sobolev
norms, and the symbol-condition checkers (Marcinkiewicz, Hormander-Mihlin,
weak Marcinkiewicz).

A difference operator is defined through the transform: for sigma = fhat, a
smooth q vanishing at the identity induces  Delta_q sigma = widehat(q f).
The first-order generator collections used here are

* torus:  q_j(x) = exp(-2*pi*i*x_j) - 1, one per coordinate;
* SU(2):  q_ij(g) = xi0(g)_ij - delta_ij for the fundamental (spin 1/2)
  representation xi0, four generators, index = 2*i + j, row 0 is m = +1/2.

Both collections are strongly admissible (the common zero set is {e}).
Multiplying by a generator acts on the coefficients by a fixed stencil, so
every difference is computed exactly on the coefficient side:

* torus:  (q_j f)^(xi) = fhat(xi + e_j) - fhat(xi), a label shift.  The
  steps of a multi-index are composed on the label box [-B, B]^n around the
  slice and the slice is gathered once at the end (the slice is a ball, so
  restricting to it between steps would drop terms of mixed differences);
* SU(2):  xi0_ij . D^l' is the Clebsch-Gordan series into spins
  L = l' +- 1/2, so (xi0_ij f)^(L) = sum_{l'} (d_l'/d_L) C_j^T fhat(l') C_i
  with C_i[a, s] = <1/2 m_i; l' m_a | L m_s>, one nonzero per row; the
  diagonal generators then subtract fhat.  Intermediate spins run up to
  the top spin + |alpha|/2 and the slice is kept at the end.

The checkers walk the multi-indices as a tree, depth first: Delta^alpha is
one generator step applied to its parent, the multi-index with one step
fewer of alpha's last generator.  Only the label boxes or ladders on the
current path are alive (at most order + 1), and each difference is read as
soon as it is made.

An SU(2) step keeps a block on one diagonal.  Each C_i has one nonzero
per row, at column s = a + shift_i with shift_m = m up a spin and m - 1
down one, so C_j^T B C_i moves entry (a, a + delta) of B to (a + shift_j,
a + delta + shift_i): a block supported on the diagonal of offset delta =
column - row lands on offset delta + i - j, in both directions.  Every
difference of a symbol whose blocks are zero off their main diagonal thus
has one nonzero per row and column, and its singular values are the
moduli of that diagonal.  A class function records its scalars c_k (blocks
c_k I, each spectral symbol g(<xi>) I for one), and from them alone the
difference walk and the integer Sobolev stencil build one complex
(spins, rows) array and the offset, row a of spin k/2 holding
B_k[a, a + delta], and read no block; each step is two shifted whole-array
products that form every entry with the ladder step's own operations, in
its order.  Blocks with nothing recorded keep the ladder, diagonal or not.

The dual-side Sobolev norm ||q1^s f||_2 is exact on the coefficient side
for integer s: q1^2 is a one-step stencil, sum_j (2 fhat(xi) -
fhat(xi + e_j) - fhat(xi - e_j)) on the torus and 2 - tr xi0 =
-(q_00 + q_11) on SU(2), and the norm is a Plancherel pairing of stencil
powers on a box or ladder padded by floor(s/2) steps.  Fractional s is a
quadrature approximation on an oversampled grid.

A degree-one generator couples <xi>-neighbours only, so a difference of
order |alpha| is trusted on irreps whose neighbours within |alpha| coupling
steps stay inside the working cutoff; every returned symbol carries that
validity mask and the checkers report constants over trusted irreps only.

Constants are basis dependent (the fundamental representation is fixed in
the standard spin basis); reports are convention relative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .dual import MAX_TORUS_LABELS, DualSlice, spin_cutoff
from .errors import ConfigurationError, MarginError, PreconditionError
from .groups import TORUS, GroupDescriptor, grid_q1_weight, grid_shape
from .spaces import _weigh, eta
from .transform import FourierCoefficients, inverse_slabs, slice_grid


@dataclass(eq=False)
class Symbol(FourierCoefficients):
    """Matrix-valued function on a dual slice, stored like coefficients (one
    stack of blocks per run).  ``valid`` marks the irreps on which the values
    are trusted after difference operations (None means all)."""

    valid: np.ndarray | None = None

    def valid_mask(self) -> np.ndarray:
        if self.valid is None:
            return np.ones(len(self.dual), dtype=bool)
        return self.valid


def identity_symbol(dual: DualSlice) -> Symbol:
    return build_spectral_symbol(np.ones_like, dual)


def build_spectral_symbol(profile, dual: DualSlice) -> Symbol:
    """sigma(xi) = g(<xi>) * I for a scalar profile g on [1, inf), its scalars g(<xi>) recorded."""
    return Symbol(dual, scalars=profile(dual.eigenvalues))


def sign_symbol(dual: DualSlice) -> Symbol:
    """sign of the first label coordinate (torus only); the classical
    bounded-variation test symbol."""
    if dual.group.kind != TORUS:
        raise ConfigurationError("the sign symbol is defined on the torus only")
    return Symbol(dual, dual.per_run(np.sign(dual.labels[:, 0]).astype(complex)))


def dyadic_rademacher_symbol(dual: DualSlice, seed: int) -> Symbol:
    """Random +-1 on each dyadic block 2^(j-1) <= <xi> < 2^j (seeded)."""
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], size=80)
    # <xi> >= 1, so its binary exponent is exactly j = floor(log2 <xi>) + 1
    j = np.frexp(dual.eigenvalues)[1]
    return build_spectral_symbol(lambda lam: signs[j], dual)


def singular_values(stacks: list[np.ndarray]) -> list[np.ndarray]:
    """The singular values of every block, descending: one (run length, d)
    array per stack.  A run of 1 x 1 blocks (every torus irrep, the SU(2)
    spin 0) is |sigma|, ``np.abs`` of its entries, which is within 2 ulps of
    LAPACK's value (4 near 1e+-150, where LAPACK rescales); larger blocks take
    one batched ``np.linalg.svd`` call per run."""
    return [np.abs(stack[:, 0]) if stack.shape[1:] == (1, 1) else np.linalg.svd(stack, compute_uv=False) for stack in stacks]


def operator_norms(stacks: list[np.ndarray]) -> np.ndarray:
    """Per-block operator norms ||blk||_op, the largest singular values."""
    return np.concatenate([sv[:, 0] for sv in singular_values(stacks)])


def symbol_linf(symbol: Symbol) -> float:
    """sup over the slice of the per-irrep operator norm: max |c| of a symbol that records its scalars c."""
    norms = operator_norms(symbol.stacks) if symbol.scalars is None else np.abs(symbol.scalars)
    return float(np.max(norms[symbol.valid_mask()], initial=0.0))


# ---------------------------------------------------------------------------
# Difference operators
# ---------------------------------------------------------------------------

def generator_count(group: GroupDescriptor) -> int:
    return group.dim if group.kind == TORUS else 4


def difference_validity(dual: DualSlice, order: int) -> np.ndarray:
    """Mask of irreps whose |alpha|-step neighbourhoods stay inside the slice."""
    if order == 0:
        return np.ones(len(dual), dtype=bool)
    if dual.group.kind == TORUS:
        reach = math.sqrt(max(dual.cutoff**2 - 1.0, 0.0)) - order + 1e-9  # |xi| <= reach, read off <xi>
        return (dual.eigenvalues <= math.hypot(1.0, reach)) & (reach >= 0.0)
    return dual.labels <= dual.max_band - order / 2.0 + 1e-9


def apply_difference(symbol: Symbol, alpha: tuple[int, ...]) -> Symbol:
    """The multi-index difference Delta_q^alpha sigma = widehat(q^alpha f).

    Computed exactly on the coefficient side: one label shift per torus
    generator, one Clebsch-Gordan ladder step per SU(2) generator (see the
    module docstring).  The result is valid on irreps with an |alpha|-step
    margin to the cutoff; if no irrep has that margin a :class:`MarginError`
    states the required cutoff.
    """
    dual = symbol.dual
    alpha = tuple(alpha)
    if len(alpha) != generator_count(dual.group):
        raise PreconditionError(f"multi-index {alpha} has wrong length for {dual.group.kind}")
    if any(a < 0 for a in alpha):
        raise PreconditionError("multi-index entries must be nonnegative")
    order = int(sum(alpha))
    _require_margin(dual, order)
    state, gather, step = _stencil(symbol, order)
    for k, power in enumerate(alpha):  # generator 0 first, as the walk composes them
        for _ in range(power):
            state = step(state, k)
    return Symbol(dual, gather(state), symbol.valid_mask() & difference_validity(dual, order))


def _differences(symbol: Symbol, order: int):
    """Yield (alpha, singular values, valid mask) of Delta^alpha sigma for
    every |alpha| <= order, depth first; the singular values are per run and
    descending, as :func:`singular_values` gives them.

    A child adds one step of a generator k at or after its parent's last
    generator; children come in descending k, so each order comes out in
    ascending lexicographic order.  Only the states on the current path are
    alive, at most order + 1 label boxes, ladders or diagonal states.
    """
    dual = symbol.dual
    _require_margin(dual, order)
    start, read, step = _walk_stencil(symbol, order)
    masks = [symbol.valid_mask() & difference_validity(dual, k) for k in range(order + 1)]
    count = generator_count(dual.group)

    def walk(alpha, state, last):
        depth = sum(alpha)
        yield alpha, read(state), masks[depth]
        if depth < order:
            for k in range(count - 1, last - 1, -1):
                yield from walk(alpha[:k] + (alpha[k] + 1,) + alpha[k + 1 :], step(state, k), k)

    yield from walk((0,) * count, start, 0)


def _walk_stencil(symbol: Symbol, order: int):
    """The start state, the singular-value read and the generator step of
    the difference walk: on SU(2) the diagonal state of a symbol that records
    its scalars, which reads no block, else the stencil of
    :func:`apply_difference`."""
    if symbol.dual.group.kind != TORUS:
        diagonal = _su2_diagonal(symbol, order)
        if diagonal is not None:
            runs = len(symbol.dual)  # one spin per run
            return (diagonal, 0), lambda state: _diagonal_singular_values(state[0], runs), _su2_diagonal_step
    start, gather, step = _stencil(symbol, order)
    return start, lambda state: singular_values(gather(state)), step


def _stencil(symbol: Symbol, order: int):
    """The start state, the slice gather and the generator step of the
    symbol's group, for differences up to ``order``."""
    if symbol.dual.group.kind == TORUS:
        return (*_torus_box(symbol), _torus_step)
    return (*_su2_ladder(symbol, order), _su2_step)


def _torus_box(symbol: Symbol, pad: int = 0):
    """The coefficients on the label box [-B - pad, B + pad]^n, and the slice
    gather.

    A shift reads only the next label up, and every difference of f vanishes
    above B, so the differences need no padding: the zero that the shift
    reads past the top face is the exact value there.  The q1^2 stencil of
    the Sobolev norms shifts both ways and grows the support, so it pads.
    """
    dual = symbol.dual
    bound = int(dual.max_band) + pad
    box = np.zeros((2 * bound + 1,) * dual.group.dim, dtype=complex)
    cells = np.ravel_multi_index((dual.labels + bound).T, box.shape)  # flat C-order cell of each label
    np.put(box, cells, symbol.stacks[0][:, 0, 0])
    return box, lambda box: [np.take(box, cells).reshape(-1, 1, 1)]


def _torus_step(box: np.ndarray, axis: int) -> np.ndarray:
    # (q_j f)^(xi) = fhat(xi + e_j) - fhat(xi), reading zero past the top face: np.diff(box, axis=axis,
    # append=0) without the padded copy of the box that np.diff concatenates first
    out = np.empty_like(box)
    src, dst = np.moveaxis(box, axis, 0), np.moveaxis(out, axis, 0)
    np.subtract(src[1:], src[:-1], out=dst[:-1])
    np.subtract(0, src[-1:], out=dst[-1:])
    return out


def _su2_ladder(symbol: Symbol, pad: int):
    """One block per spin k/2, k = 0 .. 2 l_max + pad (zero above the
    slice), and the slice gather.  The slice holds one spin per run, k = 0,
    1, 2, ... in order."""
    ladder = [stack[0] for stack in symbol.stacks]
    top = len(ladder) - 1
    ladder += [np.zeros((k + 1, k + 1), dtype=complex) for k in range(top + 1, top + pad + 1)]
    return ladder, lambda ladder: [blk[None].copy() for blk in ladder[: top + 1]]


def _su2_step(ladder: list[np.ndarray], index: int) -> list[np.ndarray]:
    # (q_ij f)^(L) = sum_{l' = L -+ 1/2} (d_l'/d_L) C_j^T fhat(l') C_i - delta_ij fhat(L)
    i, j = divmod(index, 2)
    size = 1 << (len(ladder) - 1).bit_length()
    out = [-blk if i == j else np.zeros_like(blk) for blk in ladder]
    for k, blk in enumerate(ladder):
        for target in (k + 1, k - 1):
            if not 0 <= target < len(ladder):
                continue
            up = target > k  # C_m moves row a to column a + m up a spin and a + m - 1 down one (module docstring)
            src_j, src_i = (slice(0, k + 1) if up else slice(1 - m, k + 1 - m) for m in (j, i))
            dst_j, dst_i = (slice(m, k + 1 + m) if up else slice(0, k) for m in (j, i))
            c_j, c_i = _cg_table(size, up, j)[k, src_j], _cg_table(size, up, i)[k, src_i]
            ratio = (k + 1) / (target + 1)
            out[target][dst_j, dst_i] += (ratio * c_j)[:, None] * blk[src_j, src_i] * c_i[None, :]
    return out


def _su2_diagonal(symbol: Symbol, pad: int) -> np.ndarray | None:
    """The diagonal state of a symbol that records its scalars c_k (blocks
    c_k I): row k, k = 0 .. 2 l_max + pad, holds c_k on its first k + 1
    entries (zero above the slice and past entry k).  None for a symbol that
    records none, whose blocks keep the ladder."""
    if symbol.scalars is None:
        return None
    c = np.concatenate([symbol.scalars, np.zeros(pad, dtype=complex)])
    return np.tril(np.broadcast_to(c[:, None], (len(c), len(c))))


def _diagonal_singular_values(state: np.ndarray, runs: int) -> list[np.ndarray]:
    # a block with one nonzero per row and column has the moduli of its entries as singular values; row
    # k of the state holds spin k/2's diagonal and zeros, so its k + 1 largest moduli are the block's
    moduli = -np.sort(-np.abs(state[:runs]), axis=1)
    return [moduli[k : k + 1, : k + 1] for k in range(runs)]


# Powers of two up to 512, as k <= 367 (_require_sobolev_room): at most 4 x 10 keys, the largest table 2 MB, 11 MB in all.
@cache
def _cg_table(size: int, up: bool, m_index: int) -> np.ndarray:
    """The nonzero of each source row a < size of C = <1/2 m; k/2 m_a | L m_s>, L = (k +- 1)/2, for m = +1/2
    (m_index 0) or -1/2 (m_index 1) and every spin k < size: zero past row k and on a row that has no target."""
    k = np.arange(size)[:, None]
    a = np.arange(size)
    if up:  # sqrt((l' + 2m M + 1/2)/(2l' + 1)), M = m_a + m
        numerator = k + 1 - a if m_index == 0 else a + 1
    else:  # -2m sqrt((l' - 2m M + 1/2)/(2l' + 1))
        numerator = a if m_index == 0 else k - a
    table = np.sqrt(np.where(a <= k, numerator, 0) / (k + 1))
    return -table if not up and m_index == 0 else table


def _su2_diagonal_step(state: tuple[np.ndarray, int], index: int) -> tuple[np.ndarray, int]:
    # _su2_step on a diagonal state (x, offset), x[k, a] = B_k[a, a + offset]: the term of spin k into
    # k +- 1 moves x[k, a] to row a + shift_j and offset offset + i - j (module docstring), with the
    # ladder step's factors ((ratio * c_j) * x) * c_i, added after the init in its order, up first
    x, offset = state
    i, j = divmod(index, 2)
    spins = len(x)
    size = 1 << (spins - 1).bit_length()
    out = -x if i == j else np.zeros_like(x)
    for up in (True, False):
        source, target = (slice(None, -1), slice(1, None)) if up else (slice(1, None), slice(None, -1))
        k = np.arange(spins)[source]
        ratio = (k + 1) / (k + 2 if up else k)
        c_j = ratio[:, None] * _cg_table(size, up, j)[:spins][source, :spins]
        c_i = np.zeros_like(c_j)  # c_i of column a + offset on row a
        dst, src = _shifted(spins, -offset)
        c_i[:, dst] = _cg_table(size, up, i)[:spins][source, src]
        term = c_j * x[source]
        term *= c_i
        dst, src = _shifted(spins, j if up else j - 1)
        out[target, dst] += term[:, src]
    return out, offset + i - j


def _shifted(n: int, by: int) -> tuple[slice, slice]:
    # the (destination, source) slices that move entry a of a length-n axis to a + by, dropping what leaves
    return slice(max(by, 0), n + min(by, 0)), slice(max(-by, 0), n - max(by, 0))


def _require_margin(dual: DualSlice, order: int):
    if order == 0:
        return
    if not difference_validity(dual, order).any():
        if dual.group.kind == TORUS:
            needed = math.sqrt(1.0 + float(order) ** 2)
        else:
            needed = spin_cutoff(order / 2.0)
        raise MarginError(
            f"no irrep has an order-{order} margin inside cutoff {dual.cutoff:g}; "
            f"the cutoff must be at least {needed:g} (and larger to trust useful irreps)"
        )


# ---------------------------------------------------------------------------
# Dual-side Sobolev norms
# ---------------------------------------------------------------------------

def dual_sobolev_norm(symbol: FourierCoefficients, s: float) -> float:
    """|| q1^s f ||_{L^2(G)} with sigma = fhat (homogeneous dual Sobolev norm).

    Exact on the dual side for integer s (see :func:`_stencil_sobolev_norm`);
    fractional s is approximated by quadrature on the oversampled grid of
    bandlimit max_band + ceil(s).  :func:`_require_sobolev_room` refuses first.
    """
    if s < 0:
        raise PreconditionError("the Sobolev order must be >= 0")
    _require_sobolev_room(symbol.dual, s)
    if float(s).is_integer():
        return _stencil_sobolev_norm(symbol, int(s))
    grid = slice_grid(symbol.dual, symbol.dual.max_band + math.ceil(s))
    density = np.empty(grid.shape)
    for where, values in inverse_slabs(symbol, grid):
        np.abs(values, out=density[where])
    values = None  # frees the synthesis workspace before the weights
    density **= 2
    weight = grid_q1_weight(grid).reshape(grid.shape)  # a fresh array: the weights go into it in place
    weight **= 2.0 * s
    weight *= grid.node_weights
    weight *= density
    return float(np.sqrt(np.sum(weight)))


def _stencil_sobolev_norm(symbol: FourierCoefficients, s: int) -> float:
    """|| q1^s f ||_2 for integer s from the q1^2 difference stencil.

    q1^2 is a combination of degree-one matrix coefficients, so it acts on
    the coefficients by a stencil that reaches one step: on the torus
    sum_j (2 fhat(xi) - fhat(xi + e_j) - fhat(xi - e_j)), on SU(2)
    2 - tr xi0 = -(q_00 + q_11).  With s = 2h + o, g = q1^(2h) sigma is h
    stencil steps on a box or ladder padded by h, and by Plancherel
    ||q1^s f||^2 = <g, g> for o = 0 and <q1^2 g, g> for o = 1.  Every
    stencil reads zero past the padded faces, which is the exact value of
    g there, and the odd pairing reads q1^2 g only where g can be nonzero,
    so h steps of padding are exact.
    """
    half, odd = divmod(s, 2)
    state, q1_squared, pairing = _sobolev_stencil(symbol, half)
    for _ in range(half):
        state = q1_squared(state)
    norm_sq = pairing(q1_squared(state), state) if odd else pairing(state, state)
    return math.sqrt(max(norm_sq, 0.0))


def _sobolev_stencil(symbol: Symbol, pad: int):
    """The start state padded by ``pad`` steps, the q1^2 step and the real
    Plancherel pairing Re sum_xi d_xi tr(a b^*) of the symbol's group."""
    if symbol.dual.group.kind == TORUS:
        box, _ = _torus_box(symbol, pad)
        return box, _torus_q1_squared, lambda a, b: np.vdot(b, a).real
    diagonal = _su2_diagonal(symbol, pad)
    if diagonal is not None:  # q1^2 keeps the offset at 0; spin k/2 has dimension k + 1
        dims = np.arange(1.0, len(diagonal) + 1)
        return diagonal, _su2_diagonal_q1_squared, lambda a, b: float(dims @ (a * b.conj()).real.sum(axis=1))
    ladder, _ = _su2_ladder(symbol, pad)
    # spin k/2 has dimension k + 1
    return ladder, _su2_q1_squared, lambda a, b: sum((k + 1) * np.vdot(y, x).real for k, (x, y) in enumerate(zip(a, b)))


def _torus_q1_squared(box: np.ndarray) -> np.ndarray:
    # (q1^2 f)^(xi) = sum_j 2 fhat(xi) - fhat(xi + e_j) - fhat(xi - e_j), zero past the faces
    return -sum(np.diff(box, 2, axis=axis, prepend=0, append=0) for axis in range(box.ndim))


def _su2_q1_squared(ladder: list[np.ndarray]) -> list[np.ndarray]:
    # q1^2 = 2 - tr xi0 = -(q_00 + q_11)
    out = _su2_step(ladder, 0)
    for blk, other in zip(out, _su2_step(ladder, 3)):
        blk += other
        np.negative(blk, out=blk)
    return out


def _su2_diagonal_q1_squared(state: np.ndarray) -> np.ndarray:
    # _su2_q1_squared on a diagonal state of offset 0
    out, _ = _su2_diagonal_step((state, 0), 0)
    out += _su2_diagonal_step((state, 0), 3)[0]
    return np.negative(out, out=out)


def _require_sobolev_room(dual: DualSlice, s: float):
    """Refuse an order whose passes over a complex state (the q1^2 steps on
    the padded box or ladder for integer s, one synthesis on the grid for
    fractional s), counted as cells times passes, exceed ``MAX_TORUS_LABELS``."""
    if not float(s).is_integer():
        bandlimit = dual.max_band + math.ceil(s)
        cells, steps = math.prod(grid_shape(dual.group, bandlimit)), 1
        work = f"one synthesis on a grid of bandlimit {bandlimit:g} with {cells:.3g} nodes"
    else:
        half, odd = divmod(int(s), 2)
        steps = half + odd
        pad = min(half, MAX_TORUS_LABELS)  # a larger pad is refused anyway; the clamp keeps cells printable as a float
        if dual.group.kind == TORUS:
            cells = (2 * (int(dual.max_band) + pad) + 1) ** dual.group.dim
            work = f"{steps:.3g} q1^2 step(s) on a label box of {cells:.3g} cells"
        else:
            top = round(2 * dual.max_band) + pad
            cells = (top + 1) * (top + 2) * (2 * top + 3) // 6  # sum of (k + 1)^2 over the ladder
            work = f"{steps:.3g} q1^2 step(s) on a ladder to spin {top / 2:g} of {cells:.3g} cells"
    if cells * max(steps, 1) > MAX_TORUS_LABELS:
        raise PreconditionError(
            f"a Sobolev order of {s:g} takes {work}, about {cells * 16 / 1e9:.3g} GB per complex state; "
            f"the limit is {MAX_TORUS_LABELS} cell steps"
        )


# ---------------------------------------------------------------------------
# Condition checkers
# ---------------------------------------------------------------------------

@dataclass
class CheckReport:
    """Outcome of one symbol-condition check.

    ``constants`` maps the per-order keys (multi-indices, dyadic scales or
    block indices) to nonnegative constants; ``headline`` is their max.
    """

    constants: dict
    headline: float


def default_kappa(group: GroupDescriptor) -> int:
    return group.dim // 2 + 1


def check_marcinkiewicz(symbol: Symbol, kappa: int | None = None) -> CheckReport:
    """C_alpha = sup_xi ||D^alpha sigma(xi)||_op <xi>^{|alpha|} for every
    multi-index with |alpha| <= kappa (default floor(n/2) + 1)."""
    dual = symbol.dual
    if kappa is None:
        kappa = default_kappa(dual.group)
    constants: dict = {}
    for alpha, values, valid in _differences(symbol, kappa):
        norms = np.concatenate([sv[:, 0] for sv in values])
        constants[alpha] = float(np.max(np.where(valid, norms * dual.eigenvalues ** sum(alpha), 0.0)))
    return CheckReport(constants, max(constants.values()))


def check_hormander_mihlin(symbol: Symbol, s: float | None = None) -> CheckReport:
    """||sigma||_Linf + sup_r r^{s - n/2} ||sigma . eta(<xi>/r)||_{L2_s(dual)}
    with the sup taken over the half-octave grid r = 2^{j/2}, j = 0 ..
    2*log2(cutoff).

    The half-octave spacing is a sup surrogate: refining the r grid changes
    the sup by at most the eta-overlap factor.
    """
    group = symbol.dual.group
    n = group.dim
    if s is None:
        s = float(default_kappa(group))
    if s <= n / 2.0:
        raise PreconditionError(f"the Sobolev order must exceed n/2 = {n / 2}")
    linf = symbol_linf(symbol)
    eigs = symbol.dual.eigenvalues
    constants: dict = {}
    j_top = int(math.ceil(2.0 * math.log2(max(symbol.dual.cutoff, 1.0))))
    for j in range(j_top + 1):  # r = 1 has the trivial irrep, eta(1) = 1, so constants is never empty
        r = 2.0 ** (j / 2.0)
        window = eta(eigs / r)
        if not np.any(window > 1e-15):
            continue
        constants[r] = linf + r ** (s - n / 2.0) * dual_sobolev_norm(_weigh(symbol, window), s)
    return CheckReport(constants, max(constants.values()))


def check_weak_marcinkiewicz(symbol: Symbol, s0: int) -> CheckReport:
    """Per dyadic block j: 2^{-j(n - s0)} sum_{|alpha| = s0}
    sum_{<xi> in block} d_xi Tr|D^alpha sigma(xi)|, headline = sup over j.

    Differences are taken of the full symbol and then summed over the block
    (the classical torus condition sums |sigma(xi+1) - sigma(xi)| over
    blocks), so blocks where the symbol is locally constant contribute 0.
    Blocks touching irreps without the order-s0 margin are skipped.
    """
    dual = symbol.dual
    n = dual.group.dim
    if s0 != int(s0) or not 0 <= s0 <= n:
        raise PreconditionError(f"s0 must be an integer in [0, {n}]")
    s0 = int(s0)
    valid = symbol.valid_mask() & difference_validity(dual, s0)
    # trace norms summed over the order-s0 multi-indices in walk order; blocks with untrusted irreps are skipped below
    nuclear = sum(
        np.concatenate([sv.sum(axis=1) for sv in values])
        for alpha, values, _ in _differences(symbol, s0)
        if sum(alpha) == s0
    )
    constants: dict = {}
    # <xi> >= 1, so its binary exponent j is the block 2^(j-1) <= <xi> < 2^j
    block = np.frexp(dual.eigenvalues)[1]
    for j in sorted(set(block.tolist())):  # np.unique would import numpy.ma, about 1.6 MB of RSS
        in_block = block == j
        if not valid[in_block].all():
            continue
        total = float(np.sum(dual.dims[in_block] * nuclear[in_block]))
        constants[j] = total * 2.0 ** (-j * (n - s0))
    return CheckReport(constants, max(constants.values()) if constants else 0.0)
