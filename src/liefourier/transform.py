"""Matrix-valued Fourier transform, Plancherel norm and convolution.

Orientation conventions, fixed globally:

* forward:  fhat(xi) = sum_x w(x) f(x) xi(x)^*          (exact for
  band-limited samples on a sufficient grid),
* inverse:  f(x) = sum_xi d_xi Tr(xi(x) fhat(xi)),
* right convolution: (f * k)(x) = integral f(y) k(y^{-1} x) dy, so that
  widehat(f * k) = khat . fhat (matrix product in that order),
* translation: the coefficients of x -> f(zx) are fhat(xi) xi(z).

All functions are identified with their band-limited truncation at the
working cutoff; no operation silently extends the dual slice.  Coefficients
live in one (run length, d, d) stack per run of equal dimension of the
slice (a single run of 1 x 1 blocks on the torus, one run per spin on
SU(2)), so every per-irrep operation is one batched numpy call per run.

Grid transforms go through one plan per (grid, dual slice), cached on the
grid.  On the torus the quadrature grid is a uniform lattice and the plan is
an FFT (``numpy.fft``) with a gather/scatter of the labels.  On SU(2) it is
separable: phase-table products in alpha and gamma and real little-d tables
at the Gauss-Legendre nodes in beta; its inverse stops at the largest nonzero
spin.  Both are exact for band-limited functions.
:func:`inverse_evaluate`, the tests' oracle, sums the series directly at
arbitrary points over :func:`liefourier.dual.representation_stacks`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dual import DualSlice, little_d, representation_stacks
from .errors import PreconditionError
from .groups import TORUS, GroupDescriptor, QuadratureGrid, build_grid


@dataclass
class GridFunction:
    """Complex samples of a function at the nodes of a quadrature grid."""

    grid: QuadratureGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (len(self.grid),):
            raise PreconditionError("sample count must equal the grid size")


@dataclass
class FourierCoefficients:
    """Band-limited function as one d_xi x d_xi complex matrix per irrep.

    The blocks are stored per run of ``dual.runs``: ``stacks[k]`` is a
    complex (run length, d, d) array, so per-irrep operations are one
    batched numpy call per run.  ``blocks`` lists the single blocks as views.
    """

    dual: DualSlice
    stacks: list[np.ndarray]

    def __post_init__(self):
        self.stacks = [np.asarray(s, dtype=complex) for s in self.stacks]
        shapes = [(run.stop - run.start, d, d) for run, d in zip(self.dual.runs, self.dual.run_dims)]
        if [s.shape for s in self.stacks] != shapes:
            raise PreconditionError("one (run length, d, d) stack per run of equal dimension required")

    @classmethod
    def from_blocks(cls, dual: DualSlice, blocks: list[np.ndarray], *args):
        """Pack one block per irrep, aligned with the slice order, into stacks."""
        blocks = [np.asarray(b, dtype=complex) for b in blocks]
        if [b.shape for b in blocks] != [(d, d) for d in dual.dims]:
            raise PreconditionError("one d_xi x d_xi block per irrep required")
        return cls(dual, [np.stack(blocks[run]) for run in dual.runs], *args)

    @property
    def blocks(self) -> list[np.ndarray]:
        return [blk for stack in self.stacks for blk in stack]

    def block(self, i: int) -> np.ndarray:
        """The block of irrep ``i``, a view into its stack."""
        k = next(k for k, run in enumerate(self.dual.runs) if i < run.stop)
        return self.stacks[k][i - self.dual.runs[k].start]


def zero_coefficients(dual: DualSlice) -> FourierCoefficients:
    return FourierCoefficients(
        dual, [np.zeros((run.stop - run.start, d, d), dtype=complex) for run, d in zip(dual.runs, dual.run_dims)]
    )


def random_coefficients(dual: DualSlice, rng: np.random.Generator) -> FourierCoefficients:
    """Independent standard complex Gaussian entries in every block.

    One draw per run, real then imaginary part block after block.
    """
    stacks = []
    for run, d in zip(dual.runs, dual.run_dims):
        draw = rng.standard_normal((run.stop - run.start, 2, d, d))
        stacks.append((draw[:, 0] + 1j * draw[:, 1]) / np.sqrt(2.0))
    return FourierCoefficients(dual, stacks)


# ---------------------------------------------------------------------------
# Grids and quadrature plans
# ---------------------------------------------------------------------------

@lru_cache(maxsize=24)
def cached_grid(group: GroupDescriptor, bandlimit: float) -> QuadratureGrid:
    """Memoised build_grid over the 24 most recently used (group, bandlimit)
    pairs.  Callers share each grid and so its plan cache: nodes and weights
    never change, plans are only added.  ``cache_info()`` counts the hits
    and misses."""
    return build_grid(group, bandlimit)


def default_grid(dual: DualSlice) -> QuadratureGrid:
    """The coarsest grid of :func:`build_grid` that transforms ``dual`` exactly,
    shared through :func:`cached_grid`."""
    return cached_grid(dual.group, dual.max_band)


class _TorusPlan:
    """FFT on the uniform (2B+1)^n product grid.

    Every label has |xi_j| <= max_band <= B, so the labels stay distinct
    modulo the grid shape: the forward transform gathers them from ``fftn``
    of the weighted samples and the inverse scatters them into ``ifftn``.
    """

    def __init__(self, grid: QuadratureGrid, dual: DualSlice):
        self.shape = grid.shape
        self.weights = grid.weights.reshape(self.shape)
        self.index = tuple(np.mod(dual.labels, self.shape).T)

    def forward(self, values: np.ndarray) -> list[np.ndarray]:
        spectrum = np.fft.fftn(self.weights * values.reshape(self.shape))
        return [spectrum[self.index].reshape(-1, 1, 1)]

    def inverse_on_grid(self, stacks: list[np.ndarray]) -> np.ndarray:
        spectrum = np.zeros(self.shape, dtype=complex)
        spectrum[self.index] = stacks[0][:, 0, 0]
        return np.fft.ifftn(spectrum, norm="forward").ravel()


class _Su2Plan:
    """Separable transform on the (alpha, beta, gamma) product grid.

    The alpha/gamma sums are plain matrix products against phase tables over
    the half-integer frequency ladder; the beta sum contracts with cached
    real little-d tables at the Gauss-Legendre nodes.  Spin l sits on every
    other ladder entry within 2l of the centre, a strided view of the cube.
    The inverse multiplies only the square of the largest nonzero spin.
    """

    def __init__(self, grid: QuadratureGrid, dual: DualSlice):
        alpha, beta, gamma = grid.axes
        self.shape = (len(alpha), len(beta), len(gamma))
        self.top = int(round(2.0 * dual.max_band))  # largest two_ell
        m = (self.top - np.arange(2 * self.top + 1)) / 2.0  # descending, half steps
        self.p_fwd_a = np.exp(1j * np.outer(m, alpha))
        self.p_fwd_g = np.exp(1j * np.outer(m, gamma))
        self.e_inv_a = np.exp(-1j * np.outer(alpha, m))
        self.e_inv_g = np.exp(-1j * np.outer(m, gamma))
        self.c_beta = grid.beta_weights
        self.two_ells = [d - 1 for d in dual.run_dims]  # one spin per run
        # d^l_{ba}(beta_j) stored as [b, j, a], the axis order of the ladder cube
        self.d_tables = {k: little_d(k, beta).transpose(1, 0, 2) for k in self.two_ells}

    def forward(self, values: np.ndarray) -> list[np.ndarray]:
        f3 = values.reshape(self.shape)
        t = np.tensordot(self.p_fwd_a, f3, axes=(1, 0))       # (nf, Nb, Ng)
        t = np.tensordot(t, self.p_fwd_g, axes=(2, 1))        # (nf, Nb, nf) [b, j, a]
        t *= self.c_beta[:, None]
        stacks = []
        for k in self.two_ells:
            ids = slice(self.top - k, self.top + k + 1, 2)
            stacks.append(np.einsum("bja,bja->ab", self.d_tables[k], t[ids, :, ids])[None])
        return stacks

    def inverse_on_grid(self, stacks: list[np.ndarray]) -> np.ndarray:
        # one spin per run
        live = [(k, stack[0]) for k, stack in zip(self.two_ells, stacks) if stack.any()]
        if not live:
            return np.zeros(int(np.prod(self.shape)), dtype=complex)
        band = max(k for k, _ in live)
        acc = np.zeros((2 * band + 1, self.shape[1], 2 * band + 1), dtype=complex)
        for k, blk in live:
            ids = slice(band - k, band + k + 1, 2)
            acc[ids, :, ids] += self.d_tables[k] * ((k + 1) * blk.T[:, None, :])
        square = slice(self.top - band, self.top + band + 1)
        out = np.tensordot(self.e_inv_a[:, square], acc, axes=(1, 0))  # (Na, Nb, 2 band + 1)
        out = np.tensordot(out, self.e_inv_g[square], axes=(2, 0))  # (Na, Nb, Ng)
        return out.ravel()


def _get_plan(grid: QuadratureGrid, dual: DualSlice):
    if grid.group != dual.group:
        raise PreconditionError("grid and dual slice belong to different groups")
    key = (round(dual.cutoff, 9), len(dual))
    plan = grid._plans.get(key)
    if plan is None:
        plan = _TorusPlan(grid, dual) if grid.group.kind == TORUS else _Su2Plan(grid, dual)
        grid._plans[key] = plan
    return plan


def _require_resolves(grid: QuadratureGrid, dual: DualSlice):
    if grid.bandlimit < dual.max_band - 1e-9:
        raise PreconditionError(
            f"grid bandlimit {grid.bandlimit} too coarse for dual slice (needs {dual.max_band})"
        )


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------

def forward_transform(gridfn: GridFunction, dual: DualSlice) -> FourierCoefficients:
    """fhat(xi) = sum_x w(x) f(x) xi(x)^*, exact for band-limited samples."""
    _require_resolves(gridfn.grid, dual)
    return FourierCoefficients(dual, _get_plan(gridfn.grid, dual).forward(gridfn.values))


def inverse_on_grid(coeffs: FourierCoefficients, grid: QuadratureGrid) -> GridFunction:
    """Evaluate the inversion series at every grid node through the grid's plan."""
    _require_resolves(grid, coeffs.dual)
    return GridFunction(grid, _get_plan(grid, coeffs.dual).inverse_on_grid(coeffs.stacks))


# points per chunk of inverse_evaluate: about this many matrix entries per chunk
_EVALUATE_ENTRIES = 2_000_000


def inverse_evaluate(coeffs: FourierCoefficients, points: np.ndarray) -> np.ndarray:
    """f(x) = sum_xi d_xi Tr(xi(x) fhat(xi)) at arbitrary points (P, dim).

    The direct pointwise sum over :func:`representation_stacks`, in chunks of
    points.  Grid evaluation goes through :func:`inverse_on_grid`.
    """
    dual = coeffs.dual
    points = np.atleast_2d(np.asarray(points, dtype=float))
    # d Tr(xi(x) fhat) = sum_ab xi(x)_ab (d fhat_ba): one dot product per run
    flat = [d * stack.transpose(0, 2, 1).ravel() for d, stack in zip(dual.run_dims, coeffs.stacks)]
    chunk = max(1, _EVALUATE_ENTRIES // sum(len(f) for f in flat))
    vals = np.zeros(len(points), dtype=complex)
    for lo in range(0, len(points), chunk):
        reps = representation_stacks(dual, points[lo : lo + chunk])
        vals[lo : lo + chunk] = sum(rep.reshape(len(rep), -1) @ f for rep, f in zip(reps, flat))
    return vals


def plancherel_norm(coeffs: FourierCoefficients) -> float:
    """(sum_xi d_xi ||fhat(xi)||_HS^2)^(1/2)."""
    total = sum(d * float(np.sum(np.abs(s) ** 2)) for d, s in zip(coeffs.dual.run_dims, coeffs.stacks))
    return float(np.sqrt(total))


def inner_product(f: FourierCoefficients, g: FourierCoefficients) -> complex:
    """Plancherel pairing sum_xi d_xi Tr(fhat(xi) ghat(xi)^*)."""
    require_same_dual(f.dual, g.dual)
    total = sum(d * np.sum(fs * gs.conj()) for d, fs, gs in zip(f.dual.run_dims, f.stacks, g.stacks))
    return complex(total)


def convolve(f: FourierCoefficients, g: FourierCoefficients) -> FourierCoefficients:
    """Right convolution f * g on the shared dual slice: ghat . fhat per irrep."""
    require_same_dual(f.dual, g.dual)
    return FourierCoefficients(f.dual, [gs @ fs for fs, gs in zip(f.stacks, g.stacks)])


def translate_coefficients(coeffs: FourierCoefficients, z: np.ndarray) -> FourierCoefficients:
    """Coefficients of x -> f(zx), namely fhat(xi) xi(z)."""
    reps = representation_stacks(coeffs.dual, z)
    return FourierCoefficients(coeffs.dual, [s @ r for s, r in zip(coeffs.stacks, reps)])


def reality_defect(coeffs: FourierCoefficients) -> float:
    """How far the coefficients are from those of a real-valued function.

    Torus: max |fhat(-xi) - conj(fhat(xi))|.  SU(2): the corresponding Wigner
    conjugation symmetry conj(fhat[r, c]) = (-1)^(r-c) fhat[d-1-r, d-1-c].
    Checked only on demand (for functions declared real).
    """
    dual = coeffs.dual
    if dual.group.kind == TORUS:
        # the slice is symmetric: fhat(-xi) is read from the flipped label box
        vals = coeffs.stacks[0][:, 0, 0]
        box = np.zeros((2 * int(dual.max_band) + 1,) * dual.group.dim, dtype=complex)
        box[dual.box_index] = vals
        return float(np.max(np.abs(np.flip(box)[dual.box_index] - np.conj(vals))))
    worst = 0.0
    for d, stack in zip(dual.run_dims, coeffs.stacks):
        r = np.arange(d)
        signs = (-1.0) ** (r[:, None] - r[None, :])
        worst = max(worst, float(np.max(np.abs(np.conj(stack) - signs * stack[:, ::-1, ::-1]))))
    return worst


def require_same_dual(left: DualSlice, right: DualSlice):
    if left.group != right.group or len(left) != len(right):
        raise PreconditionError("operands live on different dual slices")
    if abs(left.cutoff - right.cutoff) > 1e-9:
        raise PreconditionError("operands live on different dual slices")
