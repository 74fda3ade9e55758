"""Littlewood-Paley partition on the spectral axis and the function-space
norms built from it: L^p, Triebel-Lizorkin F^r_{p,q}, and the weak
F^r_{1,q} quasi-norm.

The partition is the standard dyadic one: a fixed smooth bump eta supported
in [1/2, 2] with sum_j eta(2^-j lam) = 1 for lam > 0, a low piece
psi_0 = sum_{j<=0} eta_j, and psi_j(lam) = eta(2^-j lam) for j >= 1.  One
concrete exp-gluing realisation of eta is fixed here, as the module
functions :func:`eta`, :func:`psi` and :func:`window_levels`, so every run
of the library sees the same windows (any admissible resolution gives an
equivalent quasi-norm).  The Triebel-Lizorkin norms are sampled on the
slice's :func:`~liefourier.transform.default_grid`, which transforms the
slice exactly: :func:`tl_norms` streams the windows one at a time into one
accumulator per distinct (r, q), so a norm holds a few grid-sized arrays
whatever the number of windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .transform import FourierCoefficients, GridFunction, default_grid, inverse_on_grid


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
    return eta(np.asarray(lam, dtype=float) / 2.0**level)


def window_levels(cutoff: float) -> list[int]:
    """Window indices whose support (2**(ell-1), 2**(ell+1)) meets [0, cutoff],
    up to a 1e-12 relative margin.

    This is a test on the support interval, not on the samples: the top
    level can be zero at every eigenvalue of a slice, either because no
    eigenvalue reaches its support (T^1 at cutoff 32 has <xi> <= 31.02) or
    because the exp-gluing is so flat at the support's lower edge that psi
    rounds to exactly zero there (SU(2) at spin 7.5: <xi> = 8.047, yet
    psi_4 = 0).  :func:`tl_norms` skips such windows; the list itself is
    kept as is, since the translated-windows ensemble indexes into it.
    """
    top = int(math.ceil(math.log2(max(cutoff, 1.0)))) + 1
    return [ell for ell in range(top + 1) if 2.0 ** (ell - 1) < cutoff * (1.0 + 1e-12)]


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


def lebesgue_norm(gridfn: GridFunction, p: float) -> float:
    """Quadrature L^p norm; p = inf takes the max over the grid."""
    return quadrature_lp(np.abs(gridfn.values), gridfn.grid.weights, p)


def quadrature_lp(mods: np.ndarray, weights: np.ndarray, p: float) -> float:
    """(sum_x w(x) m(x)^p)^(1/p) for nonnegative real samples m, such as a
    Triebel-Lizorkin aggregate; p = inf takes the max."""
    if p < 1.0:
        raise PreconditionError("p must be >= 1")
    if p == math.inf:
        return float(np.max(mods)) if len(mods) else 0.0
    return float(np.sum(weights * mods**p) ** (1.0 / p))


def triebel_lizorkin_norm(coeffs: FourierCoefficients, spec: NormSpec) -> float:
    """|| (sum_ell 2^{ell r q} |psi_ell(B) f|^q)^{1/q} ||_{L^p} by quadrature."""
    return tl_norms(coeffs, [spec], weak=False)[0][0]


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


def tl_norms(
    coeffs: FourierCoefficients, specs: list[NormSpec], weak: bool = True
) -> list[tuple[float, float | None]]:
    """One (strong, weak) pair per spec, in order, for one function.

    strong is || (sum_ell 2^{ell r q} |psi_ell(B) f|^q)^{1/q} ||_{L^p} by
    quadrature on the slice's default grid; weak is the :func:`weak_sup` of
    the same aggregate for p = 1 specs when ``weak`` is set, and None
    otherwise.  p never enters the aggregate, so the windows stream once
    into one accumulator per distinct (r, q): each window whose psi is not
    zero at every eigenvalue of the slice is inverted on the grid and its
    weighted modulus added in level order (q = inf takes the running max),
    so no (levels x grid) array is held.  Adding row after row is how
    ``np.sum(axis=0)`` reduces a C-ordered array, and a skipped window
    would only add exact zeros, so the result is the same bits as one
    (levels x grid) aggregate of all windows; the tests keep that path as
    the oracle.
    """
    dual = coeffs.dual
    grid = default_grid(dual)
    levels = window_levels(dual.cutoff)
    pairs = list(dict.fromkeys((spec.r, spec.q) for spec in specs))
    # 2^(ell r) from numpy's array power, which need not round like a
    # scalar pow: the factors a whole-array aggregate scales its rows by
    scales = [2.0 ** (r * np.asarray(levels, dtype=float)) for r, _ in pairs]
    accs: list = [None] * len(pairs)
    for i, ell in enumerate(levels):
        window = psi(ell, dual.eigenvalues)
        if not window.any():
            continue
        mods = np.abs(inverse_on_grid(_weigh(coeffs, window), grid).values)
        for k, (_, q) in enumerate(pairs):
            term = mods * scales[k][i]
            if q != math.inf:
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
        agg = accs[k] if accs[k] is not None else np.zeros(len(grid))
        accs[k] = None  # only one finished aggregate is held at a time
        if q != math.inf:
            agg **= 1.0 / q
        for i, spec in enumerate(specs):
            if (spec.r, spec.q) == (r, q):
                w = weak_sup(agg, grid.weights) if weak and spec.p == 1.0 else None
                out[i] = (quadrature_lp(agg, grid.weights, spec.p), w)
    return out


def weak_tl_norm(coeffs: FourierCoefficients, spec: NormSpec) -> float:
    """sup_t t * |{x : aggregate(x) > t}| for the p = 1 spec (see :func:`weak_sup`)."""
    if spec.p != 1.0:
        raise PreconditionError("weak norm is defined for p = 1 specs")
    return tl_norms(coeffs, [spec])[0][1]
