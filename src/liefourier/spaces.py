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
exactly: :func:`tl_norms` streams the windows one at a time into one
accumulator per distinct (r, q), so a norm holds a few grid-sized arrays
whatever the number of windows; central SU(2) functions with even p and
q = 2 take an exact 1-D rule in the rotation angle instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dual import DualSlice
from .errors import PreconditionError
from .groups import SU2, grid_shape
from .transform import FourierCoefficients, _su2_class_rule, default_grid, inverse_on_grid


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
    for ell >= 1."""
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
    """Multiply each irrep's block by its entry of ``per_irrep``."""
    dual = coeffs.dual
    return FourierCoefficients(dual, [s * stack for s, stack in zip(dual.per_run(per_irrep), coeffs.stacks)])


def quadrature_lp(mods: np.ndarray, weights: np.ndarray, p: float) -> float:
    """(sum_x w(x) m(x)^p)^(1/p) for nonnegative real samples m, such as a
    Triebel-Lizorkin aggregate; p = inf takes the max."""
    if p < 1.0:
        raise PreconditionError("p must be >= 1")
    if p == math.inf:
        return float(np.max(mods)) if len(mods) else 0.0
    return float(np.sum(weights * mods**p) ** (1.0 / p))


def weak_sup(agg: np.ndarray, weights: np.ndarray) -> float:
    """sup_t t * |{agg > t}| for nonnegative samples with quadrature weights.

    The sup is exact for grid step functions: it is attained as t tends to an
    attained value v from below, where the super-level set has measure
    weight(agg >= v).
    """
    order = np.argsort(agg)
    values = agg[order]
    measure_ge = np.cumsum(weights[order][::-1])[::-1]  # weight of {agg >= values[i]}
    return float(np.max(values * measure_ge)) if len(values) else 0.0


def _central_rule(coeffs: FourierCoefficients, specs: list[NormSpec]):
    """(real and imaginary d_l c_l, character table, weights) of the theta rule
    of :func:`tl_norms`, or None.  B is c I when |B - (tr B / d) I|_max <=
    8 eps |B|_max, as a product of scalar blocks rounds its diagonal apart."""
    dual = coeffs.dual
    if dual.group.kind != SU2 or any(spec.q != 2.0 or spec.p % 2.0 for spec in specs):
        return None
    nodes = int(max((spec.p for spec in specs), default=2)) * (len(dual) - 1) // 2 + 2  # p top / 2 + 2
    if nodes * len(dual) > math.prod(grid_shape(dual.group, dual.max_band)):
        return None  # a table larger than the default grid (p in the hundreds)
    scalars = [np.trace(stack, axis1=1, axis2=2) / d for d, stack in zip(dual.run_dims, coeffs.stacks)]
    for d, stack, c in zip(dual.run_dims, coeffs.stacks, scalars):
        dev = np.abs(stack - c[:, None, None] * np.eye(d)).max(axis=(1, 2))
        if np.any(dev > 8 * np.finfo(float).eps * np.abs(stack).max(axis=(1, 2))):
            return None
    return ((dual.dims * np.concatenate(scalars)).view(float).reshape(-1, 2), *_su2_class_rule(dual.dims, nodes))


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
    array is held.  The nodes are the slice's default grid: adding row after
    row is how ``np.sum(axis=0)`` reduces a C-ordered array, and a window
    that is zero on the slice adds exact zeros, so the result is the same
    bits as one (levels x grid) aggregate, the tests' oracle.  Except: with
    even p and q = 2 in every spec, a central SU(2) function (every block
    c_l I to 8 eps relative) has windows sum_l d_l c_l psi_ell chi_l(theta)
    of degree top = 2 l_max in the rotation angle, so agg^p sin^2 has degree
    p top + 2, and the Weyl integration formula on p top / 2 + 2 midpoint
    nodes gives the norm exactly, with no grid.  A strong norm past float64
    (2^(ell r) or the q-th powers overflow) raises FloatingPointError.
    """
    dual = coeffs.dual
    central = _central_rule(coeffs, specs)
    if central is None:
        grid = default_grid(dual)
        weights = grid.weights
    else:
        parts, chi, weights = central
    levels = np.asarray(_window_levels(dual.cutoff), dtype=float)
    pairs = list(dict.fromkeys((spec.r, spec.q) for spec in specs))
    # 2^(ell r) over every level of _window_levels (a level is its own index) by numpy's array
    # power, which need not round like a scalar pow: as a whole-array aggregate scales its rows
    # an overflow here or in the q-th powers is left to the finiteness check below to report
    with np.errstate(over="ignore"):
        scales = [2.0 ** (r * levels) for r, _ in pairs]
    accs: list = [None] * len(pairs)
    for ell, window in windows(dual):
        if central is None:
            mods = np.abs(inverse_on_grid(_weigh(coeffs, window), grid).values)
        else:
            mods = np.hypot(*(chi @ (window[:, None] * parts)).T)  # no complex copy of the table
        for k, (_, q) in enumerate(pairs):
            term = mods * scales[k][ell]
            if q != math.inf:
                with np.errstate(over="ignore"):
                    term **= q
            if accs[k] is None:
                accs[k] = term
            elif q == math.inf:
                np.maximum(accs[k], term, out=accs[k])
            else:
                accs[k] += term
        mods = term = None  # free before the next window's inverse
    out: list = [None] * len(specs)
    for k, (r, q) in enumerate(pairs):
        agg = accs[k]  # level 0 holds the trivial irrep, so every accumulator has a term
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

