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

import numpy as np

from .dual import DualSlice
from .errors import ConfigurationError, MarginError, PreconditionError
from .groups import TORUS, GroupDescriptor, grid_q1_weight
from .spaces import eta, psi
from .transform import FourierCoefficients, cached_grid, inverse_on_grid


@dataclass
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
    """sigma(xi) = g(<xi>) * I for a scalar profile g defined on [1, inf)."""
    values = np.asarray(profile(dual.eigenvalues), dtype=complex)
    return Symbol(dual, [v * np.eye(d) for v, d in zip(dual.per_run(values), dual.run_dims)])


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


# symbol type -> its fields besides "type" (a window needs its ell)
_SYMBOL_FIELDS = {
    "identity": set(), "power_it": {"t"}, "wave": set(), "sign": set(), "window": {"ell"}, "dyadic_rademacher": {"seed"}
}


def symbol_from_config(cfg: dict, group: GroupDescriptor):
    """Check a declarative symbol config, e.g. {"type": "power_it", "t": 5.0},
    and return its builder ``dual -> Symbol`` for dual slices of ``group``.
    Types: identity, power_it (finite t, default 1), wave, sign (torus only),
    window (ell), dyadic_rademacher (seed, default 0); ell, seed >= 0."""
    if not isinstance(cfg, dict):
        raise ConfigurationError("symbol must be a JSON object")
    kind = cfg.get("type")
    if kind not in _SYMBOL_FIELDS:
        raise ConfigurationError(f"unknown symbol type {kind!r}; choose from {sorted(_SYMBOL_FIELDS)}")
    if kind == "window" and "ell" not in cfg:
        raise ConfigurationError("a window symbol needs the field 'ell'")
    unknown = set(cfg) - _SYMBOL_FIELDS[kind] - {"type"}
    if unknown:
        raise ConfigurationError(f"unknown fields for a {kind} symbol: {sorted(unknown)}")
    t = cfg.get("t", 1.0)
    if isinstance(t, bool) or not isinstance(t, (int, float)) or not math.isfinite(t):
        raise ConfigurationError(f"symbol t must be a finite number, got {t!r}")
    for name in ("ell", "seed"):
        value = cfg.get(name, 0)
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise ConfigurationError(f"symbol {name} must be an integer >= 0, got {value!r}")
    if kind == "sign" and group.kind != TORUS:
        raise ConfigurationError("the sign symbol is defined on the torus only")
    t, ell, seed = float(t), cfg.get("ell", 0), cfg.get("seed", 0)
    return {
        "identity": identity_symbol,
        "power_it": lambda dual: build_spectral_symbol(lambda lam: lam ** (1j * t), dual),
        "wave": lambda dual: build_spectral_symbol(lambda lam: np.exp(1j * lam), dual),
        "sign": sign_symbol,
        "window": lambda dual: build_spectral_symbol(lambda lam: psi(ell, lam).astype(complex), dual),
        "dyadic_rademacher": lambda dual: dyadic_rademacher_symbol(dual, seed),
    }[kind]


def singular_values(stacks: list[np.ndarray]) -> list[np.ndarray]:
    """The singular values of every block, descending: one (run length, d)
    array per stack, from one batched ``np.linalg.svd`` call."""
    return [np.linalg.svd(stack, compute_uv=False) for stack in stacks]


def operator_norms(stacks: list[np.ndarray]) -> np.ndarray:
    """Per-block operator norms ||blk||_op, the largest singular values."""
    return np.concatenate([sv[:, 0] for sv in singular_values(stacks)])


def symbol_linf(symbol: Symbol) -> float:
    """sup over the slice of the per-irrep operator norm."""
    return float(np.max(operator_norms(symbol.stacks)[symbol.valid_mask()], initial=0.0))


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
        max_norm = math.sqrt(max(dual.cutoff**2 - 1.0, 0.0))
        return np.sqrt(np.sum(dual.labels**2, axis=1)) <= max_norm - order + 1e-9
    return dual.labels <= dual.max_band - order / 2.0 + 1e-9


def apply_difference(symbol: Symbol, alpha: tuple[int, ...]) -> Symbol:
    """The multi-index difference Delta_q^alpha sigma = widehat(q^alpha f).

    Computed exactly on the coefficient side: one label shift per torus
    generator, one Clebsch-Gordan ladder step per SU(2) generator (see the
    module docstring).  The result is valid on irreps with an |alpha|-step
    margin to the cutoff; if no irrep has that margin a :class:`MarginError`
    states the required cutoff.
    """
    return _difference_batch(symbol, [tuple(alpha)])[0]


def _difference_batch(symbol: Symbol, alphas: list[tuple[int, ...]]) -> list[Symbol]:
    """Differences for several multi-indices; a multi-index is one generator
    step applied to a smaller one, and shared prefixes are composed once."""
    dual = symbol.dual
    count = generator_count(dual.group)
    orders = []
    for alpha in alphas:
        if len(alpha) != count:
            raise PreconditionError(f"multi-index {alpha} has wrong length for {dual.group.kind}")
        if any(a < 0 for a in alpha):
            raise PreconditionError("multi-index entries must be nonnegative")
        orders.append(int(sum(alpha)))
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


def _torus_box(symbol: Symbol):
    """The coefficients on the label box [-B, B]^n, and the slice gather.

    A shift reads only the next label up, and every difference of f vanishes
    above B, so the box needs no padding: the zero that the shift reads past
    the top face is the exact value there.
    """
    dual = symbol.dual
    box = np.zeros((2 * int(dual.max_band) + 1,) * dual.group.dim, dtype=complex)
    box[dual.box_index] = symbol.stacks[0][:, 0, 0]
    return box, lambda box: [box[dual.box_index].reshape(-1, 1, 1)]


def _torus_step(box: np.ndarray, axis: int) -> np.ndarray:
    # (q_j f)^(xi) = fhat(xi + e_j) - fhat(xi)
    return np.diff(box, axis=axis, append=0)


def _su2_ladder(symbol: Symbol, order: int):
    """One block per spin k/2, k = 0 .. 2 l_max + order (zero above the
    slice), and the slice gather.  The slice holds one spin per run, k = 0,
    1, 2, ... in order."""
    ladder = [stack[0] for stack in symbol.stacks]
    top = len(ladder) - 1
    ladder += [np.zeros((k + 1, k + 1), dtype=complex) for k in range(top + 1, top + order + 1)]
    return ladder, lambda ladder: [blk[None].copy() for blk in ladder[: top + 1]]


def _cg_rows(k: int, up: bool, m_index: int) -> tuple[slice, slice, np.ndarray]:
    """Nonzero rows of C = <1/2 m; k/2 m_a | L m_s> for L = (k +- 1)/2 and
    m = +1/2 (m_index 0) or -1/2 (m_index 1), in descending-m order: the
    source rows a, their target columns s = a + shift and the values."""
    a = np.arange(k + 1)
    if up:  # sqrt((l' + 2m M + 1/2)/(2l' + 1)), M = m_a + m
        if m_index == 0:
            return slice(0, k + 1), slice(0, k + 1), np.sqrt((k + 1 - a) / (k + 1))
        return slice(0, k + 1), slice(1, k + 2), np.sqrt((a + 1) / (k + 1))
    # -2m sqrt((l' - 2m M + 1/2)/(2l' + 1)); zero on the row that has no target
    if m_index == 0:
        return slice(1, k + 1), slice(0, k), -np.sqrt(a[1:] / (k + 1))
    return slice(0, k), slice(0, k), np.sqrt((k - a[:-1]) / (k + 1))


def _su2_step(ladder: list[np.ndarray], index: int) -> list[np.ndarray]:
    # (q_ij f)^(L) = sum_{l' = L -+ 1/2} (d_l'/d_L) C_j^T fhat(l') C_i - delta_ij fhat(L)
    i, j = divmod(index, 2)
    out = [-blk if i == j else np.zeros_like(blk) for blk in ladder]
    for k, blk in enumerate(ladder):
        for target in (k + 1, k - 1):
            if not 0 <= target < len(ladder):
                continue
            src_j, dst_j, c_j = _cg_rows(k, target > k, j)
            src_i, dst_i, c_i = _cg_rows(k, target > k, i)
            ratio = (k + 1) / (target + 1)
            out[target][dst_j, dst_i] += (ratio * c_j)[:, None] * blk[src_j, src_i] * c_i[None, :]
    return out


def _require_margin(dual: DualSlice, order: int):
    if order == 0:
        return
    if not difference_validity(dual, order).any():
        if dual.group.kind == TORUS:
            needed = math.sqrt(1.0 + float(order) ** 2)
        else:
            ell = order / 2.0
            needed = math.sqrt(1.0 + ell * (ell + 1.0))
        raise MarginError(
            f"no irrep has an order-{order} margin inside cutoff {dual.cutoff:g}; "
            f"the cutoff must be at least {needed:g} (and larger to trust useful irreps)"
        )


def multi_indices(count: int, order: int) -> list[tuple[int, ...]]:
    """All multi-indices over ``count`` generators with |alpha| = order."""
    if count == 1:
        return [(order,)]
    return [(head,) + tail for head in range(order + 1) for tail in multi_indices(count - 1, order - head)]


# ---------------------------------------------------------------------------
# Dual-side Sobolev norms
# ---------------------------------------------------------------------------

def dual_sobolev_norm(symbol: Symbol, s: float) -> float:
    """|| q1^s f ||_{L^2(G)} with sigma = fhat (homogeneous dual Sobolev norm).

    Exact quadrature for integer s (q1^2 is band limited); fractional s uses
    the same oversampled grid as an approximation.
    """
    if s < 0:
        raise PreconditionError("the Sobolev order must be >= 0")
    group = symbol.dual.group
    grid = cached_grid(group, symbol.dual.max_band + math.ceil(max(s, 0.0)))
    f = inverse_on_grid(symbol, grid)
    weight = grid_q1_weight(grid) ** (2.0 * s) if s > 0 else 1.0
    return float(np.sqrt(np.sum(grid.weights * weight * np.abs(f.values) ** 2)))


# ---------------------------------------------------------------------------
# Condition checkers
# ---------------------------------------------------------------------------

@dataclass
class CheckReport:
    """Outcome of one symbol-condition check.

    ``constants`` maps the per-order keys (multi-indices, dyadic scales or
    block indices) to nonnegative constants; ``headline`` is their max.
    """

    condition: str
    constants: dict
    headline: float
    metadata: dict


def default_kappa(group: GroupDescriptor) -> int:
    return group.dim // 2 + 1


def check_marcinkiewicz(symbol: Symbol, kappa: int | None = None) -> CheckReport:
    """C_alpha = sup_xi ||D^alpha sigma(xi)||_op <xi>^{|alpha|} for every
    multi-index with |alpha| <= kappa (default floor(n/2) + 1)."""
    group = symbol.dual.group
    if kappa is None:
        kappa = default_kappa(group)
    count = generator_count(group)
    alphas = [a for k in range(kappa + 1) for a in multi_indices(count, k)]
    diffs = _difference_batch(symbol, alphas)
    dual = symbol.dual
    constants: dict = {}
    for alpha, diff in zip(alphas, diffs):
        vals = np.where(diff.valid_mask(), operator_norms(diff.stacks) * dual.eigenvalues ** sum(alpha), 0.0)
        constants[alpha] = float(np.max(vals))
    return CheckReport("marcinkiewicz", constants, max(constants.values()), {"kappa": kappa, "cutoff": dual.cutoff})


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
        s = float(n // 2 + 1)
    if s <= n / 2.0:
        raise PreconditionError(f"the Sobolev order must exceed n/2 = {n / 2}")
    linf = symbol_linf(symbol)
    eigs = symbol.dual.eigenvalues
    constants: dict = {}
    worst_r = None
    worst_val = -1.0
    j_top = int(math.ceil(2.0 * math.log2(max(symbol.dual.cutoff, 1.0))))
    for j in range(j_top + 1):
        r = 2.0 ** (j / 2.0)
        window = eta(eigs / r)
        if not np.any(window > 1e-15):
            continue
        scaled = [w * stack for w, stack in zip(symbol.dual.per_run(window), symbol.stacks)]
        tau = Symbol(symbol.dual, scaled, symbol.valid)
        val = r ** (s - n / 2.0) * dual_sobolev_norm(tau, s)
        constants[r] = linf + val
        if val > worst_val:
            worst_val, worst_r = val, r
    headline = max(constants.values()) if constants else linf
    metadata = {"s": s, "cutoff": symbol.dual.cutoff, "linf": linf, "worst_scale": worst_r}
    return CheckReport("hormander-mihlin", constants, headline, metadata)


def check_weak_marcinkiewicz(symbol: Symbol, s0: int) -> CheckReport:
    """Per dyadic block j: 2^{-j(n - s0)} sum_{|alpha| = s0}
    sum_{<xi> in block} d_xi Tr|D^alpha sigma(xi)|, headline = sup over j.

    Differences are taken of the full symbol and then summed over the block
    (the classical torus condition sums |sigma(xi+1) - sigma(xi)| over
    blocks), so blocks where the symbol is locally constant contribute 0.
    Blocks touching irreps without the order-s0 margin are skipped and
    listed in the metadata.
    """
    group = symbol.dual.group
    n = group.dim
    if s0 != int(s0) or not 0 <= s0 <= n:
        raise PreconditionError(f"s0 must be an integer in [0, {n}]")
    s0 = int(s0)
    count = generator_count(group)
    alphas = multi_indices(count, s0)
    diffs = _difference_batch(symbol, alphas)
    valid = diffs[0].valid_mask()  # every multi-index has order s0
    eigs = symbol.dual.eigenvalues
    dims = symbol.dual.dims
    # trace norms summed over the multi-indices; blocks with untrusted irreps are skipped below
    nuclear = sum(np.concatenate([sv.sum(axis=1) for sv in singular_values(diff.stacks)]) for diff in diffs)
    constants: dict = {}
    skipped = []
    j_top = int(math.ceil(math.log2(max(symbol.dual.cutoff, 1.0)))) + 1
    for j in range(j_top + 1):
        in_block = (eigs >= 2.0 ** (j - 1)) & (eigs < 2.0**j)
        if not np.any(in_block):
            continue
        if not valid[in_block].all():
            skipped.append(j)
            continue
        total = float(np.sum(dims[in_block] * nuclear[in_block]))
        constants[j] = total * 2.0 ** (-j * (n - s0))
    headline = max(constants.values()) if constants else 0.0
    metadata = {"s0": s0, "cutoff": symbol.dual.cutoff, "linf": symbol_linf(symbol), "skipped_blocks": skipped}
    return CheckReport("weak-marcinkiewicz", constants, headline, metadata)
