"""The whole-array Triebel-Lizorkin path, kept as the oracle of the streaming
``spaces.tl_norms``: every window's modulus in one (levels, N) array, then
one aggregate per (r, q) reduced over the level axis."""

import math

import numpy as np

from liefourier.spaces import _window_levels, lp_project, quadrature_lp, weak_sup
from liefourier.transform import default_grid, inverse_on_grid


def window_samples(coeffs, inverse=None):
    """(levels, |psi_ell(B) f| on the default grid, one row per level of
    ``_window_levels``, the windows that are zero on the slice included).
    ``inverse`` maps (coefficients, grid) to the samples, by default
    ``inverse_on_grid``'s."""
    grid = default_grid(coeffs.dual)
    levels = _window_levels(coeffs.dual.cutoff)
    out = np.empty((len(levels), len(grid)))
    for i, ell in enumerate(levels):
        projected = lp_project(coeffs, ell)
        out[i] = np.abs(inverse(projected, grid) if inverse else inverse_on_grid(projected, grid).values)
    return levels, out


def tl_aggregate(levels, mods, r, q):
    """Pointwise (sum_ell (2**(ell r) |psi_ell f|)^q)^(1/q); q = inf -> max."""
    weighted = mods * (2.0 ** (r * np.asarray(levels, dtype=float)))[:, None]
    if q == math.inf:
        return np.max(weighted, axis=0)
    return np.sum(weighted**q, axis=0) ** (1.0 / q)


def tl_norms(coeffs, specs, inverse=None):
    """(strong, weak) per spec from one aggregate per spec; weak is None
    unless p = 1.  The L^p sum takes the modulus of the aggregate again."""
    weights = default_grid(coeffs.dual).weights
    levels, mods = window_samples(coeffs, inverse)
    out = []
    for spec in specs:
        agg = tl_aggregate(levels, mods, spec.r, spec.q)
        weak = weak_sup(agg, weights) if spec.p == 1.0 else None
        out.append((quadrature_lp(np.abs(agg), weights, spec.p), weak))
    return out
