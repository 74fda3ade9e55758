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
slice exactly.
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
    """Window indices whose piece is not identically zero on a slice
    with <xi> <= cutoff (pieces with 2**(ell-1) > cutoff are skipped)."""
    top = int(math.ceil(math.log2(max(cutoff, 1.0)))) + 1
    return [ell for ell in range(top + 1) if 2.0 ** (ell - 1) < cutoff * (1.0 + 1e-12)]


def eta_sobolev_norm(s_prime: float) -> float:
    """Sobolev norm ||eta||_{H^{s'}}(R), recorded for reproducibility.

    Computed by FFT quadrature on a zero-padded fine grid; the bump is
    fixed, so this is a constant of the library.
    """
    length = 64.0
    n = 1 << 16
    x = np.arange(n) * (length / n)
    samples = eta(x)
    freq = np.fft.fftfreq(n, d=length / n) * 2.0 * np.pi
    spec = np.fft.fft(samples) * (length / n) / np.sqrt(2.0 * np.pi)
    dens = (1.0 + freq**2) ** s_prime * np.abs(spec) ** 2
    return float(np.sqrt(np.sum(dens) * (2.0 * np.pi / length)))


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
    """Multiply the coefficients per irrep by psi_level(<xi>).  A symbol's
    blocks project the same way (its dyadic window kernel)."""
    dual = coeffs.dual
    scale = dual.per_run(psi(level, dual.eigenvalues))
    return FourierCoefficients(dual, [s * stack for s, stack in zip(scale, coeffs.stacks)])


def lebesgue_norm(gridfn: GridFunction, p: float) -> float:
    """Quadrature L^p norm; p = inf takes the max over the grid."""
    return quadrature_lp(gridfn.values, gridfn.grid.weights, p)


def quadrature_lp(values: np.ndarray, weights: np.ndarray, p: float) -> float:
    """(sum_x w(x) |v(x)|^p)^(1/p) for real or complex samples; p = inf
    takes the max of |v|.  Real samples (an aggregate) need no complex copy."""
    if p < 1.0:
        raise PreconditionError("p must be >= 1")
    mods = np.abs(values)
    if p == math.inf:
        return float(np.max(mods)) if len(mods) else 0.0
    return float(np.sum(weights * mods**p) ** (1.0 / p))


def window_samples(coeffs: FourierCoefficients) -> tuple[list[int], np.ndarray]:
    """|psi_ell(B) f| on the slice's default grid for every non-vanishing window.

    Returns (levels, array of shape (len(levels), npoints)).  This is the
    expensive half of every Triebel-Lizorkin norm; callers evaluating many
    (r, p, q) specs on the same function should go through :func:`tl_norms`,
    which makes one pass for all of them.
    """
    grid = default_grid(coeffs.dual)
    levels = window_levels(coeffs.dual.cutoff)
    out = np.empty((len(levels), len(grid)))
    for i, ell in enumerate(levels):
        piece = lp_project(coeffs, ell)
        out[i] = np.abs(inverse_on_grid(piece, grid).values)
    return levels, out


def tl_aggregate(levels: list[int], mods: np.ndarray, r: float, q: float) -> np.ndarray:
    """Pointwise (sum_ell (2**(ell r) |psi_ell f|)^q)^(1/q); q = inf -> max."""
    weighted = mods * (2.0 ** (r * np.asarray(levels, dtype=float)))[:, None]
    if q == math.inf:
        return np.max(weighted, axis=0)
    return np.sum(weighted**q, axis=0) ** (1.0 / q)


def triebel_lizorkin_norm(coeffs: FourierCoefficients, spec: NormSpec) -> float:
    """|| (sum_ell 2^{ell r q} |psi_ell(B) f|^q)^{1/q} ||_{L^p} by quadrature."""
    return tl_norms(coeffs, [spec])[0][0]


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


def tl_norms(coeffs: FourierCoefficients, specs: list[NormSpec]) -> list[tuple[float, float | None]]:
    """One (strong, weak) pair per spec, in order, for one function.

    strong is || (sum_ell 2^{ell r q} |psi_ell(B) f|^q)^{1/q} ||_{L^p} by
    quadrature on the slice's default grid; weak is the :func:`weak_sup` of
    the same aggregate for p = 1 specs and None otherwise.  p never enters
    the aggregate, so one window pass serves every spec and one aggregate
    every distinct (r, q); only one aggregate is held at a time.
    """
    weights = default_grid(coeffs.dual).weights
    levels, mods = window_samples(coeffs)
    out: list = [None] * len(specs)
    for r, q in dict.fromkeys((spec.r, spec.q) for spec in specs):
        agg = tl_aggregate(levels, mods, r, q)
        for i, spec in enumerate(specs):
            if (spec.r, spec.q) == (r, q):
                weak = weak_sup(agg, weights) if spec.p == 1.0 else None
                out[i] = (quadrature_lp(agg, weights, spec.p), weak)
    return out


def weak_tl_norm(coeffs: FourierCoefficients, spec: NormSpec) -> float:
    """sup_t t * |{x : aggregate(x) > t}| for the p = 1 spec (see :func:`weak_sup`)."""
    if spec.p != 1.0:
        raise PreconditionError("weak norm is defined for p = 1 specs")
    return tl_norms(coeffs, [spec])[0][1]
