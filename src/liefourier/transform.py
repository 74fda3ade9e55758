"""Matrix-valued Fourier transform and Plancherel norm.

Orientation conventions, fixed globally:

* forward:  fhat(xi) = sum_x w(x) f(x) xi(x)^*          (exact for
  band-limited samples on a sufficient grid),
* inverse:  f(x) = sum_xi d_xi Tr(xi(x) fhat(xi)),
* right convolution: (f * k)(x) = integral f(y) k(y^{-1} x) dy, so that
  widehat(f * k) = khat . fhat (matrix product in that order); this is the
  product :func:`liefourier.multipliers.apply_multiplier` takes,
* translation: the coefficients of x -> f(zx) are fhat(xi) xi(z).

All functions are identified with their band-limited truncation at the
working cutoff; no operation silently extends the dual slice.  Coefficients
live in one (run length, d, d) stack per run of equal dimension of the
slice (a single run of 1 x 1 blocks on the torus, one run per spin on
SU(2)), so every per-irrep operation is one batched numpy call per run.

A dual slice holds the grids and plans it asks for, each built once and
freed with the slice.  On the torus the quadrature grid is a uniform lattice
and the plan is an FFT (``numpy.fft``) with a gather/scatter of the labels.
On SU(2) it is separable: phase-table products in alpha and gamma and real
little-d tables at the Gauss-Legendre nodes in beta; its inverse stops at the
largest nonzero spin.  Integer and half-integer spins sit on alternate
entries of the alpha/gamma frequency ladder, so the plan keeps the two parity
classes in separate compact arrays and never forms the zero half of the
ladder square.  The plan is separable per beta node, so its alpha and gamma
products run over slabs of beta nodes, through one workspace of about
``_SLAB_BYTES`` that each call allocates once and reuses slab after slab:
the inverse fills the compact arrays (the beta sum) and then, per slab, runs
one gamma product per class and one alpha product, writing the slab's
columns of its output; the forward runs, per slab, one alpha product and
one gamma product per class into the compact arrays, and the beta sum reads
them whole.  :func:`inverse_slabs` hands the slabs out one at a time, so a
caller that reduces over nodes (``spaces.tl_norms``) never holds a complex
grid-sized array; on the torus the one slab is the whole grid.  Each spin
stores a quarter of its little-d table, the rows m' >= 0
at half the nodes, and reads the rest through d_{-m',-m} = (-1)^(m'-m)
d_{m'm} and d_{m'm}(pi - beta) = (-1)^(l+m') d_{m',-m}(beta), as the nodes
are symmetric about pi/2.  Both plans are exact for band-limited functions.
:func:`inverse_evaluate`, the tests' oracle, sums the series directly at
arbitrary points over :func:`liefourier.dual.representation_stacks`.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .dual import DualSlice, _little_d_rows, representation_stacks
from .errors import PreconditionError
from .groups import TORUS, QuadratureGrid, build_grid


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
    def from_blocks(cls, dual: DualSlice, blocks: list[np.ndarray]):
        """Pack one block per irrep, aligned with the slice order, into stacks."""
        blocks = [np.asarray(b, dtype=complex) for b in blocks]
        if [b.shape for b in blocks] != [(d, d) for d in dual.dims]:
            raise PreconditionError("one d_xi x d_xi block per irrep required")
        return cls(dual, [np.stack(blocks[run]) for run in dual.runs])

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

# about the bytes of complex samples in one slab of beta nodes of an SU(2) plan; its workspace
# holds one slab of gamma products (and, when streamed, one of samples).  A fixed constant: at
# spin 31.5 it makes 8 slabs of 8 nodes, as fast as one product over the whole grid
_SLAB_BYTES = 2**21

# dual slice -> {bandlimit: [grid, plan or None]}; neither references the slice, so an entry dies with it
_HELD: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def slice_grid(dual: DualSlice, bandlimit: float) -> QuadratureGrid:
    """:func:`build_grid` for ``dual``'s group, built once per bandlimit and held by the slice."""
    held = _HELD.setdefault(dual, {})
    if bandlimit not in held:
        held[bandlimit] = [build_grid(dual.group, bandlimit), None]
    return held[bandlimit][0]


def default_grid(dual: DualSlice) -> QuadratureGrid:
    """The coarsest grid that transforms ``dual`` exactly, from :func:`slice_grid`."""
    return slice_grid(dual, dual.max_band)


class _TorusPlan:
    """FFT on the uniform (2B+1)^n product grid.

    Every label has |xi_j| <= max_band <= B, so the labels stay distinct
    modulo the grid shape.  ``index`` holds the flat C-order cell of each
    label's residue: the forward transform gathers them from ``fftn`` of the
    weighted samples and the inverse scatters them into ``ifftn``.
    """

    def __init__(self, grid: QuadratureGrid, dual: DualSlice):
        self.shape = grid.shape
        self.weights = grid.weights.reshape(self.shape)
        self.index = np.ravel_multi_index(np.mod(dual.labels, self.shape).T, self.shape)

    def forward(self, values: np.ndarray) -> list[np.ndarray]:
        spectrum = np.fft.fftn(self.weights * values.reshape(self.shape))
        return [np.take(spectrum, self.index).reshape(-1, 1, 1)]

    def inverse_on_grid(self, stacks: list[np.ndarray]) -> np.ndarray:
        spectrum = np.zeros(self.shape, dtype=complex)
        np.put(spectrum, self.index, stacks[0][:, 0, 0])
        return np.fft.ifftn(spectrum, norm="forward").ravel()

    def inverse_slabs(self, stacks: list[np.ndarray]):
        """The inverse as one slab: the whole grid."""
        yield ..., self.inverse_on_grid(stacks).reshape(self.shape)


class _Su2Plan:
    """Separable transform on the (alpha, beta, gamma) product grid.

    The alpha/gamma sums are matrix products against phase tables over the
    half-integer frequency ladder m = top/2, top/2 - 1/2, ..., -top/2; the
    beta sum contracts with real little-d tables at the Gauss-Legendre
    nodes.  Spin k = 2l sits on every other ladder entry within k of the
    centre, in alpha and in gamma alike, so the square of a largest spin
    ``band`` is a checkerboard of two parity classes: class 0 holds the
    spins k = band (mod 2) on the band + 1 entries of even offset, class 1
    the others on the band entries of odd offset.  Each class is a compact
    (Nb, n, n) array, one [b, a] square per beta node, in which spin k is
    the block at offset (band - k) // 2; the zero half of the ladder square
    is never formed.

    The alpha and gamma products run slab by slab over ``slabs``, runs of
    beta nodes of about ``_SLAB_BYTES`` of complex samples each, through one
    (2 band + 1, slab, Ng) workspace allocated per call and reused by every
    slab, so no grid-sized intermediate exists:

    * Inverse, on the square of the largest nonzero spin: the beta sum fills
      both compact arrays; then per slab, one gamma product per class (one
      matrix product per node) into its row block of the workspace, and one
      alpha product of the class-ordered alpha table columns with it, into
      the slab's columns of the output.
    * Forward, on the square of the top spin: per slab, one alpha product of
      the class-ordered rows with the slab's samples, then one gamma product
      per class into the compact arrays; the beta sum reads them whole.

    Each spin stores a quarter of its table d^l_{m'm}(beta_j), as [j, b, a]
    with rows b (m' = l - b) and columns a (m = l - a): the rows m' >= 0
    (b <= k//2, k = 2l) at the first ceil(Nb/2) nodes.  Two symmetries give
    the other three quarters as reversed views of it times signs:

    * d_{-m',-m} = (-1)^(m'-m) d_{m'm}: row b > k//2 is stored row k - b
      with the columns reversed, times (-1)^(b-a);
    * the Gauss-Legendre nodes are symmetric, beta_{Nb-1-j} = pi - beta_j,
      and d_{m'm}(pi - beta) = (-1)^(l+m') d_{m',-m}(beta): node Nb - 1 - j
      of row b is stored node j with the columns reversed, times (-1)^(k-b);
      for rows b > k//2 both reflections combine into (-1)^a.  With Nb odd
      the middle node pi/2 is stored once.

    ``pieces[k]`` lists four (side, rows, nodes, view) rectangles that tile
    spin k's full table, side 0 on the stored nodes and side 1 on the
    mirrored ones: the [nodes, rows] part of the table is
    ``signs[k][side, rows] * view``.  The signs scale the coefficient
    block (inverse) or the per-side sums (forward), so no unfolded copy of a
    table is made.
    """

    def __init__(self, grid: QuadratureGrid, dual: DualSlice):
        alpha, beta, gamma = grid.axes
        self.shape = (len(alpha), len(beta), len(gamma))
        self.top = int(round(2.0 * dual.max_band))  # largest two_ell
        m = (self.top - np.arange(2 * self.top + 1)) / 2.0  # descending, half steps
        self.p_fwd_a = np.exp(1j * np.outer(m[np.r_[self._classes(self.top)]], alpha))  # class-ordered rows
        self.p_fwd_g = np.exp(1j * np.outer(m, gamma))
        self.e_inv_a = np.exp(-1j * np.outer(alpha, m))
        self.e_inv_g = np.exp(-1j * np.outer(m, gamma))
        self.c_beta = grid.beta_weights
        # slabs of about _SLAB_BYTES of complex samples, as even as Nb allows; the wider ones
        # first, so a buffer sized for the first slab holds every slab
        count = min(len(beta), -(-16 * len(alpha) * len(beta) * len(gamma) // _SLAB_BYTES))
        wide, extra = divmod(len(beta), count)
        edges = np.cumsum([0] + [wide + 1] * extra + [wide] * (count - extra)).tolist()
        self.slabs = [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
        self.width = edges[1]  # the widest slab
        self.two_ells = [d - 1 for d in dual.run_dims]  # one spin per run
        half, mirror = (len(beta) + 1) // 2, len(beta) // 2  # stored and mirrored nodes
        stored, mirrored = slice(0, half), slice(half, None)
        self.pieces, self.signs = {}, {}
        for k in self.two_ells:
            low = k // 2 + 1  # stored rows; rows b >= low read row k - b
            up, down = slice(0, low), slice(low, None)
            q = _little_d_rows(k, beta[:half], up)  # [j, b, a]
            flip = q[:, : k + 1 - low, ::-1][:, ::-1]
            # node Nb - 1 - j reads node j with the columns reversed
            self.pieces[k] = [
                (0, up, stored, q),
                (1, up, mirrored, q[:mirror][::-1, :, ::-1]),
                (0, down, stored, flip),
                (1, down, mirrored, flip[:mirror][::-1, :, ::-1]),
            ]
            parity = (-1.0) ** np.arange(k + 1)  # (-1)^b, also (-1)^a
            above = np.arange(k + 1)[:, None] < low
            # [stored/mirrored nodes, b, a]; complex, so that they scale complex blocks without casts
            self.signs[k] = np.stack([
                np.where(above, 1.0, np.outer(parity, parity)),
                np.where(above, (-1) ** k * parity[:, None], parity),
            ]).astype(complex)

    def _classes(self, band: int) -> tuple[slice, slice]:
        """The ladder slices of parity classes 0 and 1 in the square of spin k = band."""
        lo = self.top - band
        return slice(lo, lo + 2 * band + 1, 2), slice(lo + 1, lo + 2 * band, 2)

    def forward(self, values: np.ndarray) -> list[np.ndarray]:
        na, nb, ng = self.shape
        rows, classes = 2 * self.top + 1, self._classes(self.top)
        compact = [np.empty((nb, n, n), dtype=complex) for n in (self.top + 1, self.top)]  # [j, b, a]
        work = np.empty(rows * self.width * ng, dtype=complex)
        columns = values.reshape(na, nb * ng)
        for j in self.slabs:
            t = work[: rows * (j.stop - j.start) * ng].reshape(rows, -1, ng)  # class-ordered rows
            np.matmul(self.p_fwd_a, columns[:, j.start * ng : j.stop * ng], out=t.reshape(rows, -1))
            row = 0
            for parity, ladder in enumerate(classes):
                n = self.top + 1 - parity
                np.matmul(t[row : row + n].transpose(1, 0, 2), self.p_fwd_g[ladder].T, out=compact[parity][j])
                row += n
        for cls in compact:
            cls *= self.c_beta[:, None, None]
        stacks = []
        for k in self.two_ells:
            ids = slice((self.top - k) // 2, (self.top - k) // 2 + k + 1)
            spin = compact[(self.top - k) % 2][:, ids, ids]
            sums = np.empty((2, k + 1, k + 1), dtype=complex)  # [stored/mirrored nodes, b, a]
            for side, rows_k, nodes, view in self.pieces[k]:
                np.einsum("jba,jba->ba", view, spin[nodes, rows_k], out=sums[side, rows_k])
            stacks.append(np.einsum("xba,xba->ab", self.signs[k], sums)[None])
        return stacks

    def inverse_slabs(self, stacks: list[np.ndarray], out: np.ndarray | None = None):
        """Yield (index, values) per slab: ``values`` is the inverse on the nodes ``index`` of an
        array of ``self.shape``, ``out[index]`` when ``out`` is given and otherwise a workspace
        that the next slab overwrites."""
        # one spin per run
        live = [(k, stack[0]) for k, stack in zip(self.two_ells, stacks) if stack.any()]
        band = max((k for k, _ in live), default=0)
        na, nb, ng = self.shape
        rows, classes = 2 * band + 1, self._classes(band)
        compact = [np.zeros((nb, n, n), dtype=complex) for n in (band + 1, band)]  # [j, b, a]
        for k, blk in live:
            ids = slice((band - k) // 2, (band - k) // 2 + k + 1)
            spin = compact[(band - k) % 2][:, ids, ids]
            c = (k + 1) * (self.signs[k] * blk.T)  # [stored/mirrored nodes, b, a]
            for side, rows_k, nodes, view in self.pieces[k]:
                part = spin[nodes, rows_k]
                part += view * c[side, rows_k]
        e_inv_a = self.e_inv_a[:, np.r_[classes]]
        work = np.empty(rows * self.width * ng, dtype=complex)  # gamma done, rows in class order
        # (alpha, nodes x gamma) columns: the output's, or a slab's worth at the workspace's start
        flat = (np.empty((na, self.width, ng), dtype=complex) if out is None else out).reshape(na, -1)
        for j in self.slabs:
            t = work[: rows * (j.stop - j.start) * ng].reshape(rows, -1, ng)
            row = 0
            for parity, ladder in enumerate(classes):
                n = band + 1 - parity
                np.matmul(compact[parity][j], self.e_inv_g[ladder], out=t[row : row + n].transpose(1, 0, 2))
                row += n
            lo = j.start * ng if out is not None else 0
            cols = flat[:, lo : lo + (j.stop - j.start) * ng]
            np.matmul(e_inv_a, t.reshape(rows, -1), out=cols)
            yield np.s_[:, j], cols.reshape(na, -1, ng)

    def inverse_on_grid(self, stacks: list[np.ndarray]) -> np.ndarray:
        out = np.empty(self.shape, dtype=complex)
        for _ in self.inverse_slabs(stacks, out):
            pass
        return out.ravel()


def _su2_class_rule(dims: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint nodes theta_j = (j + 1/2) pi / n in the rotation angle of SU(2)
    (``distance_to_identity``): the characters sin(d theta_j) / sin(theta_j)
    of dimension d in ``dims``, and the Weyl weights (2/n) sin^2(theta_j),
    exact for the Haar integral of cosine polynomials of degree < 2n - 2."""
    theta = (np.arange(n) + 0.5) * (np.pi / n)
    return _su2_characters(theta, dims), (2.0 / n) * np.sin(theta) ** 2


def _su2_characters(theta: np.ndarray, dims: np.ndarray) -> np.ndarray:
    """The characters chi_d(theta) = sin(d theta) / sin(theta) of SU(2), one row per rotation
    angle theta in (0, pi) (``distance_to_identity``) and one column per dimension d in ``dims``."""
    chi = np.outer(theta, dims)
    np.sin(chi, out=chi)
    chi /= np.sin(theta)[:, None]
    return chi


def _get_plan(grid: QuadratureGrid, dual: DualSlice):
    if grid.group != dual.group:
        raise PreconditionError("grid and dual slice belong to different groups")
    if grid.bandlimit < dual.max_band - 1e-9:
        raise PreconditionError(f"grid bandlimit {grid.bandlimit} too coarse for dual slice (needs {dual.max_band})")
    # build_grid is fixed by (group, bandlimit), so the plan sits next to the slice's grid of that bandlimit
    entry = _HELD.setdefault(dual, {}).setdefault(grid.bandlimit, [grid, None])
    if entry[1] is None:
        entry[1] = _TorusPlan(grid, dual) if grid.group.kind == TORUS else _Su2Plan(grid, dual)
    return entry[1]


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------

def forward_transform(gridfn: GridFunction, dual: DualSlice) -> FourierCoefficients:
    """fhat(xi) = sum_x w(x) f(x) xi(x)^*, exact for band-limited samples."""
    return FourierCoefficients(dual, _get_plan(gridfn.grid, dual).forward(gridfn.values))


def inverse_on_grid(coeffs: FourierCoefficients, grid: QuadratureGrid) -> GridFunction:
    """Evaluate the inversion series at every grid node through the slice's plan for the grid."""
    return GridFunction(grid, _get_plan(grid, coeffs.dual).inverse_on_grid(coeffs.stacks))


def inverse_slabs(coeffs: FourierCoefficients, grid: QuadratureGrid):
    """Yield (index, values): the inversion series on the nodes ``index`` of an array of
    ``grid.shape``, slab after slab.  ``values`` may be overwritten by the next slab."""
    return _get_plan(grid, coeffs.dual).inverse_slabs(coeffs.stacks)


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


def require_same_dual(left: DualSlice, right: DualSlice):
    if left.group != right.group or len(left) != len(right) or abs(left.cutoff - right.cutoff) > 1e-9:
        raise PreconditionError("operands live on different dual slices")
