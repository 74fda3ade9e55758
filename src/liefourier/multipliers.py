"""Fourier multiplier application, the far-field kernel-difference
integrals, and empirical operator-norm probes.

:func:`apply_multiplier` acts per irrep as fhat(xi) -> sigma(xi) fhat(xi),
the left product of the right-convolution convention of
:mod:`liefourier.transform`: T_sigma f = f * k with khat = sigma.  The
window kernel at level ell, the right-convolution kernel of A psi_ell(B),
is :func:`liefourier.spaces.lp_project` of the symbol.
:func:`kernel_difference_integrals` takes one symbol, one z and a list of
levels, and sums on the grid or, for a central SU(2) symbol with z on the
diagonal torus, over the classes of |x|.

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
    SU2,
    GroupDescriptor,
    _su2_beta_rule,
    distance_to_identity,
    grid_distance_to_identity,
    inverse,
    random_point,
    su2_pair,
)
from .spaces import NormSpec, _weigh, lp_project, psi, tl_norms, windows
from .symbols import Symbol, operator_norms
from .transform import (
    FourierCoefficients,
    _su2_characters,
    default_grid,
    inverse_slabs,
    random_coefficients,
    require_same_dual,
    zero_coefficients,
)

# the kinds whose members are drawn from the symbol
SYMBOL_ENSEMBLE_KINDS = ("adjoint-dirichlet", "directed-irrep")
ENSEMBLE_KINDS = ("gaussian-coefficients", "dirichlet-kernels", "translated-windows", *SYMBOL_ENSEMBLE_KINDS)


def apply_multiplier(symbol: Symbol, coeffs: FourierCoefficients) -> FourierCoefficients:
    """T_sigma on the coefficient side: per-irrep left product sigma . fhat, c_sigma c_f for class functions."""
    require_same_dual(symbol.dual, coeffs.dual)
    if symbol.scalars is not None and coeffs.scalars is not None:
        return FourierCoefficients(coeffs.dual, scalars=symbol.scalars * coeffs.scalars)
    return FourierCoefficients(coeffs.dual, [s @ f for s, f in zip(symbol.stacks, coeffs.stacks)])


def kernel_difference_integrals(symbol: Symbol, levels, z: np.ndarray, c: float) -> list[float]:
    """For each level ell, the integral over {|x| > 4c|z|} of
    |kappa_ell(z^{-1} x) - kappa_ell(x)| dx, kappa_ell the window kernel
    ``lp_project(symbol, ell)``, by quadrature on the slice's default grid.

    The far-field mask, xi(z^{-1}) and one real grid-sized array are made
    once per call.  Per level, the difference is synthesised once, from its
    exact coefficients kappa_hat(xi) (xi(z^{-1}) - I), its moduli streamed
    into that array slab by slab.  Every level gets 0 when no grid node lies
    in the far field.  On SU(2), a symbol that records its scalars c_l
    (blocks c_l I) needs no grid at b(z) = 0: |x| and |z^{-1} x| at node
    (alpha_i, beta_j, gamma_k) depend on beta_j and r = (i + 2k) mod 2 n_ag
    only, so the node sum runs over the classes (beta_j, r), n_ag / 2 nodes
    each, of the class functions K = sum_l d_l c_l psi_ell(<xi>_l) chi_l, and
    moves by roundoff only.  The characters there are U_{d-1}(x) at x = Re a
    = cos(theta), half the trace, of each class and of its translate, built
    by the Chebyshev recurrence, so no angle is taken but the far-field
    mask's.  One representative a stands for the four classes a, conj(a), -a
    and -conj(a), and one table holds the differences, in chunks of a fixed
    number of representatives.
    """
    dual = symbol.dual
    group = dual.group
    if c <= 0:
        raise PreconditionError("c must be positive")
    zlen = float(distance_to_identity(group, np.asarray(z, dtype=float)))
    if zlen == 0.0:
        raise PreconditionError("z must differ from the identity")
    if group.kind == SU2 and su2_pair(z)[1] == 0 and symbol.scalars is not None:
        return _central_difference_integrals(dual, symbol.scalars, levels, su2_pair(z)[0], 4.0 * c * zlen)
    grid = default_grid(dual)
    mask = grid_distance_to_identity(grid).reshape(grid.shape) > 4.0 * c * zlen
    if not np.any(mask):
        return [0.0] * len(levels)
    reps = representation_stacks(dual, inverse(group, z))
    mods = np.empty(grid.shape)
    integrals = []
    for ell in levels:
        kernel = lp_project(symbol, ell)
        diff = FourierCoefficients(dual, [k @ r - k for k, r in zip(kernel.stacks, reps)])
        for where, values in inverse_slabs(diff, grid):
            np.abs(values, out=mods[where])
        values = None  # frees the window's workspace before the reduction
        mods *= grid.node_weights
        integrals.append(float(np.sum(mods[mask])))
    return integrals


# Representatives per chunk of the central class sum.  A fixed count keeps the recurrence's
# vectors (3 points per representative) and the table (2 columns each) one length at every
# spin, so past spin 128 the per-row numpy calls do not outgrow the arithmetic.  1024: in
# the cold su2-session pass (spin 31.5) its kernel-decay task read 8.3-8.8 ms against
# 8.4-9.3 ms at 2048, which was 3-6% faster at spin 255.5 (windows 1-7) and slower at 127.5.
_CLASS_CHUNK = 1024


def _central_difference_integrals(dual: DualSlice, scalars, levels, a_z, radius: float) -> list[float]:
    """The class sum of :func:`kernel_difference_integrals`, from one representative per four
    classes.  The classes r, 2 n_ag - r, n_ag + r and n_ag - r of the beta node beta_j have
    a = cos(beta_j / 2) e^{-i pi r / n_ag}, conj(a), -a and -conj(a), and
    U_{d-1}(-x) = (-1)^(d-1) U_{d-1}(x), bit for bit in the recurrence.  So for r = 0 ... n_ag / 2
    one recurrence over x' = Re(conj(a_z) a), x = Re a and x'' = Re(conj(a_z) conj(a)) fills
    a table of U_{d-1}(x') - U_{d-1}(x) and U_{d-1}(x) - U_{d-1}(x''), in chunks of
    ``_CLASS_CHUNK`` representatives, and one GEMM on it gives all four classes: against
    d_l c_l psi_ell for a and conj(a), and against (-1)^(d-1) d_l c_l psi_ell for -a and
    -conj(a), the moduli taking no sign.  Each class keeps its own far field and weight."""
    n_ag, beta, w_beta = _su2_beta_rule(dual.group, dual.max_band)
    half = n_ag // 2 + 1
    a = (np.cos(beta / 2.0)[:, None] * np.exp(-1j * np.pi / n_ag * np.arange(half))).ravel()
    x = a.real
    points = np.stack([(np.conj(a_z) * a).real, x, (np.conj(a_z) * np.conj(a)).real])
    far, far_neg = (np.arccos(np.clip(s * x, -1.0, 1.0)) > radius for s in (1.0, -1.0))
    # the weights of a, conj(a) (the table's two columns), -a and -conj(a); r = 0 and r = n_ag / 2
    # are where two of the four classes coincide (conj(a) = a, and -a = conj(a)), counted once
    r = np.tile(np.arange(half), len(beta))
    weights = np.repeat(w_beta * (n_ag / 2), half) * np.stack(
        [far, far & (r > 0), far_neg & (2 * r < n_ag), far_neg & (r > 0) & (2 * r < n_ag)]
    )
    keep = far | far_neg  # a representative whose four classes are near is dropped
    points, weights = points[:, keep], weights[:, keep]
    psis = np.reshape([psi(ell, dual.eigenvalues) for ell in levels], (len(levels), len(dual)))
    # (spins, 4 levels): the real and imaginary parts of d_l c_l psi_ell(<xi>_l) side by side, then
    # the same times (-1)^(d-1).  A full GEMM per read sums the alternating series of -a in order;
    # E - O from separate GEMMs on the even and odd rows cancels (4e-12 relative, against 2.5e-14,
    # on window 6 at spin 63.5 and z distance 0.7, measured against a long-double class sum)
    coeffs = np.ascontiguousarray((psis * (dual.dims * scalars)).T).view(float)
    coeffs = np.hstack([coeffs, np.where(dual.dims % 2, 1.0, -1.0)[:, None] * coeffs])
    sums = np.zeros(len(levels))
    top = len(dual)
    count = points.shape[1]
    table = np.empty(top * 2 * min(_CLASS_CHUNK, count))
    for lo in range(0, count, _CLASS_CHUNK):
        chunk = slice(lo, lo + _CLASS_CHUNK)
        n = len(points[0, chunk])
        chi = table[: top * 2 * n].reshape(top, -1)
        _su2_characters(points[:, chunk].ravel(), top, n, out=chi)
        mods = np.abs((chi.T @ coeffs).view(complex))
        plain, neg = mods[:, : len(levels)], mods[:, len(levels) :]
        sums += weights[:2, chunk].ravel() @ plain + weights[2:, chunk].ravel() @ neg
    return sums.tolist()


def decay_slope(levels, integrals) -> float:
    """Least-squares slope of log2(integral) against the window index.

    Every integral must be positive: a zero (a window outside the slice, or
    an empty far field) has no logarithm and would fabricate decay.
    """
    integrals = np.asarray(integrals, dtype=float)
    if not np.all(integrals > 0.0):
        raise PreconditionError(f"the decay slope needs positive integrals, got {integrals.tolist()}")
    return float(np.polyfit(np.asarray(levels, dtype=float), np.log2(integrals), 1)[0])


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
    translated-windows: a dyadic window kernel translated by a random point,
        cycling through the top three windows that are nonzero on the slice.
    adjoint-dirichlet: sigma(xi)^* times a Dirichlet cutoff (probes T_sigma
        through its adjoint; the natural growth witness for chirp symbols).
    directed-irrep: the rank-one block aligned with the top singular
        direction at the irrep attaining ||sigma||_Linf.
    """
    if symbol is None and config.kind in SYMBOL_ENSEMBLE_KINDS:
        raise PreconditionError(f"{config.kind} members need the symbol")
    if config.kind == "gaussian-coefficients":
        return random_coefficients(dual, rng)
    if config.kind in ("dirichlet-kernels", "adjoint-dirichlet"):
        frac = (index + 1) / config.count
        inside = dual.eigenvalues <= 1.0 + frac * (dual.cutoff - 1.0)
        if config.kind == "dirichlet-kernels" or symbol.scalars is not None:
            scalars = np.where(inside, 1.0 if config.kind == "dirichlet-kernels" else symbol.scalars.conj(), 0j)
            return FourierCoefficients(dual, scalars=scalars)
        full = [s.conj().transpose(0, 2, 1) for s in symbol.stacks]
        return FourierCoefficients(dual, [np.where(keep, f, 0j) for keep, f in zip(dual.per_run(inside), full)])
    if config.kind == "translated-windows":
        levels = [ell for ell, _ in windows(dual)]
        ell = levels[-1 - index % min(3, len(levels))]
        z = random_point(dual.group, rng)
        return _weigh(FourierCoefficients(dual, representation_stacks(dual, z)), psi(ell, dual.eigenvalues))
    # directed-irrep, the last kind EnsembleConfig admits
    stacks = symbol.stacks  # read once: a symbol that records its scalars builds its c I blocks on each read
    best_i = int(np.argmax(operator_norms(stacks)))
    _, _, vh = np.linalg.svd(FourierCoefficients(dual, stacks).block(best_i))
    member = zero_coefficients(dual)
    member.block(best_i)[:, 0] = vh[0].conj()
    return member


@dataclass
class BoundednessSweep:
    """max_{ensemble} ||T_sigma f|| / ||f|| per cutoff, for one (r, p, q).

    Ratios are empirical lower bounds of the operator norm; the p = 1 rows
    use the weak quasi-norm in the numerator (weak-type probing) over the
    strong F^r_{1,q} norm of the input.
    """

    spec: NormSpec
    cutoffs: tuple[float, ...]
    max_ratios: tuple[float, ...]
    argmax_members: tuple[int, ...]


def boundedness_sweep(
    group: GroupDescriptor,
    symbol_builder,
    specs: list[NormSpec],
    cutoffs: list[float],
    ensemble: EnsembleConfig,
    seed: int,
) -> list[BoundednessSweep]:
    """Run the ensemble through T_sigma at each cutoff.

    ``symbol_builder`` maps a dual slice to the symbol on it (symbols must be
    rebuilt per cutoff).  Members are deterministic functions of
    (seed, cutoff index, member index); reductions run in member order.
    """
    if list(cutoffs) != sorted(cutoffs):
        raise PreconditionError("cutoffs must be ascending")
    ratios = np.zeros((len(specs), len(cutoffs)))
    argmax = np.zeros((len(specs), len(cutoffs)), dtype=int)
    for ci, lam in enumerate(cutoffs):
        dual = enumerate_dual(group, lam)
        symbol = symbol_builder(dual)
        for mi in range(ensemble.count):
            rng = np.random.default_rng([seed, ci, mi])
            f = ensemble_member(ensemble, mi, dual, rng, symbol)
            tf = apply_multiplier(symbol, f)
            denoms = tl_norms(f, specs, weak=False)  # strong norms only
            nums = tl_norms(tf, specs)
            for si, ((denom, _), (strong, weak)) in enumerate(zip(denoms, nums)):
                num = strong if weak is None else weak
                if denom <= 0.0:
                    continue
                ratio = num / denom
                if ratio > ratios[si, ci]:
                    ratios[si, ci] = ratio
                    argmax[si, ci] = mi
    cutoffs = tuple(float(c) for c in cutoffs)
    per_spec = zip(specs, ratios.tolist(), argmax.tolist())
    return [BoundednessSweep(spec, cutoffs, tuple(r), tuple(a)) for spec, r, a in per_spec]
