"""Fourier multiplier application, the far-field kernel-difference
integrals, and empirical operator-norm probes.

A multiplier acts per irrep as fhat(xi) -> sigma(xi) fhat(xi) (left product,
the right-convolution convention).  The window kernel at level ell, the
right-convolution kernel of A psi_ell(B), is
:func:`liefourier.spaces.lp_project` of the symbol.

Operator norms on F^r_{p,q} are probed from below with seeded function
ensembles: no finite ensemble certifies an upper bound, so sweep results are
empirical lower bounds and the meaningful assertions are stability (bounded
symbols) or growth trends (symbols violating the conditions).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dual import DualSlice, enumerate_dual, representation_stacks
from .errors import ConfigurationError, PreconditionError
from .groups import (
    GroupDescriptor,
    QuadratureGrid,
    distance_to_identity,
    grid_distance_to_identity,
    group_diameter,
    inverse,
    random_point,
)
from .spaces import NormSpec, psi, tl_norms, window_levels
from .symbols import Symbol, operator_norms
from .transform import (
    FourierCoefficients,
    inverse_on_grid,
    random_coefficients,
    require_same_dual,
    translate_coefficients,
    zero_coefficients,
)

ENSEMBLE_KINDS = (
    "gaussian-coefficients",
    "dirichlet-kernels",
    "translated-windows",
    "adjoint-dirichlet",
    "directed-irrep",
)


def apply_multiplier(symbol: Symbol, coeffs: FourierCoefficients) -> FourierCoefficients:
    """T_sigma on the coefficient side: per-irrep left product sigma . fhat."""
    require_same_dual(symbol.dual, coeffs.dual)
    return FourierCoefficients(coeffs.dual, [s @ f for s, f in zip(symbol.stacks, coeffs.stacks)])


def kernel_difference_integral(
    kernel: FourierCoefficients,
    z: np.ndarray,
    c: float,
    grid: QuadratureGrid,
) -> float:
    """integral over {|x| > 4c|z|} of |kappa(z^{-1} x) - kappa(x)| dx,
    by quadrature on the grid.  The translated kernel is synthesised on the
    grid from its exact coefficients kappa_hat(xi) xi(z^{-1}) (never grid
    interpolation).

    Returns 0 when the domain is empty (4c|z| at least the diameter).
    """
    group = kernel.dual.group
    if c <= 0:
        raise PreconditionError("c must be positive")
    zlen = float(distance_to_identity(group, np.asarray(z, dtype=float)))
    if zlen == 0.0:
        raise PreconditionError("z must differ from the identity")
    threshold = 4.0 * c * zlen
    if threshold >= group_diameter(group):
        return 0.0
    dist = grid_distance_to_identity(grid)
    mask = dist > threshold
    if not np.any(mask):
        return 0.0
    base = inverse_on_grid(kernel, grid).values[mask]
    moved = inverse_on_grid(translate_coefficients(kernel, inverse(group, z)), grid).values[mask]
    return float(np.sum(grid.weights[mask] * np.abs(moved - base)))


def decay_slope(levels, integrals) -> float:
    """Least-squares slope of log2(integral) against the window index.

    Every integral must be positive: a zero (a window outside the slice, or
    an empty far field) has no logarithm and would fabricate decay.
    """
    integrals = np.asarray(integrals, dtype=float)
    if not np.all(integrals > 0.0):
        raise PreconditionError(f"the decay slope needs positive integrals, got {integrals.tolist()}")
    return float(np.polyfit(np.asarray(levels, dtype=float), np.log2(integrals), 1)[0])


def exact_l2_operator_norm(symbol: Symbol) -> float:
    """sup_xi ||sigma(xi)||_op: the exact L2 -> L2 operator norm."""
    return float(np.max(operator_norms(symbol.stacks), initial=0.0))


# ---------------------------------------------------------------------------
# Seeded ensembles and boundedness sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnsembleConfig:
    """Which probe family to draw and how many members."""

    kind: str
    count: int

    def __post_init__(self):
        if self.kind not in ENSEMBLE_KINDS:
            raise ConfigurationError(f"unknown ensemble kind {self.kind!r}")
        if self.count < 1:
            raise ConfigurationError("ensemble count must be >= 1")


def ensemble_member(
    config: EnsembleConfig,
    index: int,
    dual: DualSlice,
    rng: np.random.Generator,
    symbol: Symbol | None = None,
) -> FourierCoefficients:
    """Deterministic member ``index`` of the ensemble (rng carries the seed).

    gaussian-coefficients: white complex Gaussian blocks.
    dirichlet-kernels: identity blocks up to a member-dependent cutoff.
    translated-windows: a dyadic window kernel translated by a random point.
    adjoint-dirichlet: sigma(xi)^* times a Dirichlet cutoff (probes T_sigma
        through its adjoint; the natural growth witness for chirp symbols).
    directed-irrep: the rank-one block aligned with the top singular
        direction at the irrep attaining ||sigma||_Linf.
    """
    if config.kind == "gaussian-coefficients":
        return random_coefficients(dual, rng)
    if config.kind in ("dirichlet-kernels", "adjoint-dirichlet"):
        if config.kind == "adjoint-dirichlet" and symbol is None:
            raise PreconditionError("adjoint-dirichlet members need the symbol")
        frac = (index + 1) / config.count
        inside = dual.per_run(dual.eigenvalues <= 1.0 + frac * (dual.cutoff - 1.0))
        if config.kind == "dirichlet-kernels":
            full = [np.eye(d, dtype=complex) for d in dual.run_dims]
        else:
            full = [s.conj().transpose(0, 2, 1) for s in symbol.stacks]
        return FourierCoefficients(dual, [np.where(keep, f, 0j) for keep, f in zip(inside, full)])
    if config.kind == "translated-windows":
        levels = window_levels(dual.cutoff)
        ell = levels[max(0, len(levels) - 1 - (index % min(3, len(levels))))]
        z = random_point(dual.group, rng)
        scale = dual.per_run(psi(ell, dual.eigenvalues))
        return FourierCoefficients(dual, [s * r for s, r in zip(scale, representation_stacks(dual, z))])
    if config.kind == "directed-irrep":
        if symbol is None:
            raise PreconditionError("directed-irrep members need the symbol")
        best_i = int(np.argmax(operator_norms(symbol.stacks)))
        _, _, vh = np.linalg.svd(symbol.block(best_i))
        member = zero_coefficients(dual)
        member.block(best_i)[:, 0] = vh[0].conj()
        return member
    raise ConfigurationError(f"unknown ensemble kind {config.kind!r}")


@dataclass
class BoundednessSweep:
    """max_{ensemble} ||T_sigma f|| / ||f|| per cutoff, for one (r, p, q).

    Ratios are empirical lower bounds of the operator norm; the p = 1 rows
    use the weak quasi-norm in the numerator (weak-type probing) over the
    strong F^r_{1,q} norm of the input.
    """

    symbol_id: str
    spec: NormSpec
    cutoffs: tuple[float, ...]
    max_ratios: tuple[float, ...]
    argmax_members: tuple[int, ...]
    ensemble: EnsembleConfig
    seed: int


def boundedness_sweep(
    group: GroupDescriptor,
    symbol_builder,
    specs: NormSpec | list[NormSpec],
    cutoffs: list[float],
    ensemble: EnsembleConfig,
    seed: int,
    symbol_id: str = "symbol",
) -> list[BoundednessSweep]:
    """Run the ensemble through T_sigma at each cutoff.

    ``symbol_builder`` maps a dual slice to the symbol on it (symbols must be
    rebuilt per cutoff).  Members are deterministic functions of
    (seed, cutoff index, member index); reductions run in member order.
    """
    spec_list = [specs] if isinstance(specs, NormSpec) else list(specs)
    if list(cutoffs) != sorted(cutoffs):
        raise PreconditionError("cutoffs must be ascending")
    ratios = np.zeros((len(spec_list), len(cutoffs)))
    argmax = np.zeros((len(spec_list), len(cutoffs)), dtype=int)
    for ci, lam in enumerate(cutoffs):
        dual = enumerate_dual(group, lam)
        symbol = symbol_builder(dual)
        for mi in range(ensemble.count):
            rng = np.random.default_rng([seed, ci, mi])
            f = ensemble_member(ensemble, mi, dual, rng, symbol)
            tf = apply_multiplier(symbol, f)
            denoms = tl_norms(f, spec_list, weak=False)  # strong norms only
            nums = tl_norms(tf, spec_list)
            for si, ((denom, _), (strong, weak)) in enumerate(zip(denoms, nums)):
                num = strong if weak is None else weak
                if denom <= 0.0:
                    continue
                ratio = num / denom
                if ratio > ratios[si, ci]:
                    ratios[si, ci] = ratio
                    argmax[si, ci] = mi
    cutoffs = tuple(float(c) for c in cutoffs)
    per_spec = zip(spec_list, ratios.tolist(), argmax.tolist())
    return [BoundednessSweep(symbol_id, spec, cutoffs, tuple(r), tuple(a), ensemble, seed) for spec, r, a in per_spec]
