"""Littlewood-Paley partition on the spectral axis and the function-space
norms built from it: L^p, Triebel-Lizorkin F^r_{p,q}, and the weak
F^r_{1,q} quasi-norm.

The partition is the standard dyadic one: a fixed smooth bump eta supported
in [1/2, 2] with sum_j eta(2^-j lam) = 1 for lam > 0, a low piece
psi_0 = sum_{j<=0} eta_j, and psi_j(lam) = eta(2^-j lam) for j >= 1.  One
concrete exp-gluing realisation of eta is fixed here, as the module
functions :func:`eta` and :func:`psi`, so every run of the library sees
the same windows (any admissible resolution gives an equivalent
quasi-norm).  :func:`windows` decides which windows a dual slice has.  The
Triebel-Lizorkin norms are sampled on the slice's
:func:`~liefourier.transform.default_grid`, which transforms the slice
exactly: :func:`tl_norms` streams the windows one at a time, and each
window slab by slab, into one real accumulator per distinct (r, q), so a
norm holds those accumulators and a slab workspace whatever the number of
windows; SU(2) class functions that record their scalars take, with even
p and q = 2, an exact 1-D rule in the rotation angle instead.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .dual import DualSlice
from .errors import PreconditionError
from .groups import SU2, grid_shape
from .transform import FourierCoefficients, _su2_class_rule, default_grid, inverse_slabs


def _transition(lam: np.ndarray) -> np.ndarray:
    """phi: identically 1 on lam <= 1, identically 0 on lam >= 2, smooth and
    monotone in between (exp-gluing)."""
    lam = np.asarray(lam, dtype=float)
    out = np.ones_like(lam)
    out[lam >= 2.0] = 0.0
    mid = (lam > 1.0) & (lam < 2.0)
    if np.any(mid):
        t = lam[mid] - 1.0  # in (0, 1); phi = h(1-t) / (h(1-t) + h(t))
        h_up = np.exp(-1.0 / (1.0 - t))
        h_dn = np.exp(-1.0 / t)
        out[mid] = h_up / (h_up + h_dn)
    return out


def eta(lam) -> np.ndarray:
    """The dyadic bump: supported in [1/2, 2] with values in [0, 1]."""
    lam = np.asarray(lam, dtype=float)
    return _transition(lam) - _transition(2.0 * lam)


def psi(level: int, lam) -> np.ndarray:
    """psi_0 = phi (the telescoped low piece) and psi_ell(lam) = eta(2**-ell lam)
    for ell >= 1; ``level`` is any integer, numpy's included."""
    level = operator.index(level)
    if level < 0:
        raise PreconditionError("window index must be >= 0")
    if level == 0:
        return _transition(lam)
    # 2**-level exactly, also past the float range of 2.0**level (JSON levels are unbounded)
    return eta(np.asarray(lam, dtype=float) * math.ldexp(1.0, -level))


def _window_levels(cutoff: float) -> list[int]:
    """Window indices 0, 1, 2, ... whose support (2**(ell-1), 2**(ell+1))
    meets [0, cutoff], up to a 1e-12 relative margin."""
    top = int(math.ceil(math.log2(max(cutoff, 1.0)))) + 1
    return [ell for ell in range(top + 1) if 2.0 ** (ell - 1) < cutoff * (1.0 + 1e-12)]


def windows(dual: DualSlice):
    """Yield (ell, psi_ell(<xi>)) lazily and in level order for every window
    that is not zero at every eigenvalue of the slice, although its support
    may meet [0, cutoff]."""
    for ell in _window_levels(dual.cutoff):
        window = psi(ell, dual.eigenvalues)
        if window.any():
            yield ell, window


@dataclass(frozen=True)
class NormSpec:
    """Smoothness r, integrability p and summability q of an F^r_{p,q} norm.

    p = 1 is admitted (it is the domain norm of the weak-type probes);
    q may be math.inf.
    """

    r: float
    p: float
    q: float

    def __post_init__(self):
        if not math.isfinite(self.r):
            raise PreconditionError(f"r = {self.r} is not finite")
        if not (1.0 <= self.p < math.inf):
            raise PreconditionError(f"p = {self.p} outside [1, inf)")
        if not (1.0 < self.q):
            raise PreconditionError(f"q = {self.q} outside (1, inf]")


def lp_project(coeffs: FourierCoefficients, level: int) -> FourierCoefficients:
    """Multiply the coefficients per irrep by psi_level(<xi>), which vanishes
    outside <xi> in (2^(level-1), 2^(level+1)).  A symbol's blocks project
    the same way: that is its dyadic window kernel, the right-convolution
    kernel of A psi_level(B)."""
    return _weigh(coeffs, psi(level, coeffs.dual.eigenvalues))


def _weigh(coeffs: FourierCoefficients, per_irrep: np.ndarray) -> FourierCoefficients:
    """Multiply each irrep's block, or its recorded scalar, by its entry of ``per_irrep``."""
    if coeffs.scalars is not None:
        return FourierCoefficients(coeffs.dual, scalars=per_irrep * coeffs.scalars)
    return FourierCoefficients(coeffs.dual, [s * stack for s, stack in zip(coeffs.dual.per_run(per_irrep), coeffs.stacks)])


def quadrature_lp(mods: np.ndarray, weights: np.ndarray, p: float) -> float:
    """(sum_x w(x) m(x)^p)^(1/p) for nonnegative real samples m, such as a
    Triebel-Lizorkin aggregate; p = inf takes the max.  ``weights`` is any
    array that broadcasts to ``mods``: a grid's ``node_weights`` against
    samples of the grid's shape, or one weight per sample."""
    if p < 1.0:
        raise PreconditionError("p must be >= 1")
    if p == math.inf:
        return float(np.max(mods)) if np.size(mods) else 0.0
    terms = mods**p
    terms *= weights  # in place: numpy elides no temporary that a broadcast operand meets
    return float(np.sum(terms) ** (1.0 / p))


_FINITE_TOP = np.uint64(0x7FF0000000000000)  # the bits of +inf: every larger pattern is a NaN or has the sign bit
_CHUNK = 1 << 14  # weak_sup gathers, sums and multiplies this many weights at a time


def weak_sup(agg: np.ndarray, weights: np.ndarray) -> float:
    """sup_t t * |{agg > t}| for samples agg >= +0.0 with quadrature weights.

    ``weights`` broadcasts to ``agg`` with at most one axis longer than 1,
    such as a grid's ``node_weights`` against samples of the grid's shape:
    each entry of that axis is one weight class.  The sup is exact for grid
    step functions: it is attained as t tends to an attained value v from
    below, where the super-level set has measure weight(agg >= v).

    One in-place sort of uint64 keys ranks the nodes: a node's key is its
    sample's float64 bits, complemented so that larger samples come first,
    with the low k bits replaced by its weight class, k the bit length of
    (classes - 1).  Nonnegative float64 bit patterns order like the values,
    so a block of keys that share their high bits holds samples within
    2^-(52-k) relative of each other (normal samples; below 2^-1022 the
    result is off by less than 2^-1022 times the total weight), ranked among
    themselves by class.  At the block's lowest sample the cumulative weight
    covers the whole block whatever the order inside it, so t weight(agg >= t)
    is read exactly there, and every other position of the block reads less
    as long as each weight exceeds 2^-(52-k) of the total; weights that fail
    this are refused.  Only the classes of the sorted keys are kept, in the
    smallest unsigned type that holds them; the samples come from
    ``np.sort(agg)``, and the weights are gathered from the class table,
    summed and multiplied with the samples one chunk at a time (the running
    sum carried over, so its bits are those of one ``np.cumsum``).  With one
    weight (k = 0) this is a plain value sort.  A sample with the sign bit
    set (negative or -0.0) or a NaN is refused.
    """
    agg = np.ascontiguousarray(agg, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if sum(n != 1 for n in weights.shape) > 1 or np.broadcast_shapes(weights.shape, agg.shape) != agg.shape:
        raise PreconditionError(f"weights of shape {weights.shape} are not one weight per class of samples {agg.shape}")
    if agg.size == 0:
        return 0.0
    bits = agg.view(np.uint64)
    if bits.max() > _FINITE_TOP:
        raise PreconditionError("weak_sup needs samples in [+0.0, inf], not a NaN or one with the sign bit")
    table = weights.ravel()
    k = (len(table) - 1).bit_length()
    total = float(np.sum(table)) * (agg.size // len(table))
    if not table.min() > math.ldexp(total, k - 52):
        raise PreconditionError(f"a weight at or below 2^-{52 - k} of the total {total:g} cannot rank its samples")
    if k == 0:
        classes = np.zeros(agg.size, dtype=np.uint8)
    else:
        low = np.uint64((1 << k) - 1)
        keys = np.invert(bits)
        keys &= ~low
        keys |= np.arange(len(table), dtype=np.uint64).reshape(weights.shape)
        keys = keys.reshape(-1)
        keys.sort()
        keys &= low
        classes = keys.astype(np.min_scalar_type(len(table) - 1))
        del keys
    values = np.sort(agg, axis=None)[::-1]  # descending, as the keys ranked the nodes
    best, carry = 0.0, 0.0
    for lo in range(0, len(values), _CHUNK):
        measure = table[classes[lo : lo + _CHUNK]]
        measure[0] += carry
        np.cumsum(measure, out=measure)  # measure[i]: the weight of the lo + i + 1 largest samples
        carry = measure[-1]
        measure *= values[lo : lo + _CHUNK]
        best = max(best, float(np.max(measure)))
    return best


def _central_rule(coeffs: FourierCoefficients, specs: list[NormSpec]):
    """(real and imaginary d_l c_l, character table, weights) of the theta rule of
    :func:`tl_norms` for the recorded scalars c_l of an SU(2) class function, or None."""
    dual = coeffs.dual
    if dual.group.kind != SU2 or coeffs.scalars is None or any(spec.q != 2.0 or spec.p % 2.0 for spec in specs):
        return None
    nodes = int(max((spec.p for spec in specs), default=2)) * (len(dual) - 1) // 2 + 2  # p top / 2 + 2
    if nodes * len(dual) > math.prod(grid_shape(dual.group, dual.max_band)):
        return None  # a table larger than the default grid (p in the hundreds)
    return (dual.dims * coeffs.scalars).view(float).reshape(-1, 2), *_su2_class_rule(dual.dims, nodes)


def tl_norms(
    coeffs: FourierCoefficients, specs: list[NormSpec], weak: bool = True
) -> list[tuple[float, float | None]]:
    """One (strong, weak) pair per spec, in order, for one function.

    strong is || (sum_ell 2^{ell r q} |psi_ell(B) f|^q)^{1/q} ||_{L^p} by
    quadrature; weak is the :func:`weak_sup` of the same aggregate for p = 1
    specs when ``weak`` is set, and None otherwise.  p never enters the
    aggregate, so the :func:`windows` stream once into one accumulator per
    distinct (r, q): each is synthesised and its weighted modulus added in
    level order (q = inf takes the running max), so no (levels x nodes)
    array is held.  A window arrives slab by slab from
    :func:`~liefourier.transform.inverse_slabs`; the modulus, the scale and
    the q-th power go in place into one slab buffer, which is added into
    that slab of the accumulator, so no complex, modulus or term array of
    the grid's size exists.  The nodes are the slice's default grid: adding row after
    row is how ``np.sum(axis=0)`` reduces a C-ordered array, and a window
    that is zero on the slice adds exact zeros, so the result is the same
    bits as one (levels x grid) aggregate, the tests' oracle.  Except: with
    even p and q = 2 in every spec, a central SU(2) function (recorded
    scalars c_l, blocks c_l I) has windows sum_l d_l c_l psi_ell chi_l(theta)
    of degree top = 2 l_max in the rotation angle, so agg^p sin^2 has degree
    p top + 2, and the Weyl integration formula on p top / 2 + 2 midpoint
    nodes gives the norm exactly, with no grid; its characters
    chi_l(theta) = U_{2l}(cos theta) come from the Chebyshev recurrence.  A
    strong norm past float64 (2^(ell r) or the q-th powers overflow) raises
    FloatingPointError.
    """
    dual = coeffs.dual
    central = _central_rule(coeffs, specs)
    if central is None:
        grid = default_grid(dual)
        weights, shape = grid.node_weights, grid.shape
    else:
        parts, chi, weights = central
        shape = weights.shape
    levels = np.asarray(_window_levels(dual.cutoff), dtype=float)
    pairs = list(dict.fromkeys((spec.r, spec.q) for spec in specs))
    # 2^(ell r) over every level of _window_levels (a level is its own index) by numpy's array
    # power, which need not round like a scalar pow: as a whole-array aggregate scales its rows
    # an overflow here or in the q-th powers is left to the finiteness check below to report
    with np.errstate(over="ignore"):
        scales = [2.0 ** (r * levels) for r, _ in pairs]
    accs = [np.zeros(shape) for _ in pairs]
    copies = min(len(pairs), 2)
    work = np.empty(0)  # per slab: the moduli, then the terms of every pair but the last
    for ell, window in windows(dual):
        if central is None:
            slabs = inverse_slabs(_weigh(coeffs, window), grid)
        else:
            slabs = [(..., np.hypot(*(chi @ (window[:, None] * parts)).T))]  # no complex copy of the table
        for where, values in slabs:
            n = values.size
            if len(work) < copies * n:
                work = np.empty(copies * n)
            mods = np.abs(values, out=work[:n].reshape(values.shape))
            for k, (_, q) in enumerate(pairs):
                term = mods  # the last pair scales the moduli in place
                if k < len(pairs) - 1:
                    term = work[n : 2 * n].reshape(values.shape)
                    term[...] = mods
                if scales[k][ell] != 1.0:  # every r = 0 spec: x * 1.0 is x
                    term *= scales[k][ell]
                if q != math.inf:
                    with np.errstate(over="ignore"):
                        term **= q
                acc = accs[k][where]
                if q == math.inf:
                    np.maximum(acc, term, out=acc)
                else:
                    acc += term
        values = None  # frees the window's workspace before the next window's inverse
    out: list = [None] * len(specs)
    for k, (r, q) in enumerate(pairs):
        agg = accs[k]
        accs[k] = None  # only one finished aggregate is held at a time
        if q != math.inf:
            agg **= 1.0 / q
        for i, spec in enumerate(specs):
            if (spec.r, spec.q) == (r, q):
                strong = quadrature_lp(agg, weights, spec.p)
                if not math.isfinite(strong):
                    raise FloatingPointError(f"the F^r_(p,q) norm at r = {r:g}, p = {spec.p:g}, q = {q:g} overflows")
                w = weak_sup(agg, weights) if weak and spec.p == 1.0 else None
                out[i] = (strong, w)
    return out

