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
ladder square.  The gamma axis spans 4 pi, and e^{-im(gamma + 2 pi)} =
(-1)^(2m) e^{-im gamma}, so a class's samples at gamma + 2 pi are its
samples at gamma times its sign, 1 for integer m and -1 for half-integer m:
the plan folds the gamma circle in half and holds its gamma phase tables on
the nodes gamma < 2 pi alone, as SO(3) FFTs do (Kostelec & Rockmore, *FFTs
on the rotation group*, JFAA 14, 2008).  The plan is separable per beta
node, so its alpha and gamma products run over slabs of beta nodes, through
one workspace of about ``_SLAB_BYTES`` per call (:class:`_Su2Plan` gives the
order of the products).  The beta sum runs over (m', m) shells: a position
(m', m) of the ladder square belongs to every spin l >= max(|m'|, |m|), so
its sum over spins is one small real matrix product, and the positions of a
shell (max(|m'|, |m|) fixed) make one batched product, each way.  The tables
hold a quarter of every little-d table, the positions m' > 0 (and m' = 0,
m >= 0) at half the nodes, and read the rest through d_{-m',-m} =
(-1)^(m'-m) d_{m'm} and d_{m'm}(pi - beta) = (-1)^(l+m') d_{m',-m}(beta),
as the nodes are symmetric about pi/2.  Both plans are exact for
band-limited functions.

Each plan synthesises through one method, ``inverse_slabs(stacks, out=None)``,
slab by slab (on the torus one slab, the whole grid, transformed in place):
every grid functional reads :func:`inverse_slabs` into a real grid-sized
array, and :func:`inverse_on_grid` drains it into a complex one for a caller
that needs the samples themselves.  :func:`inverse_evaluate`, the tests'
oracle, sums the series directly at arbitrary points over
:func:`liefourier.dual.representation_stacks`.
"""

from __future__ import annotations

import weakref
from dataclasses import InitVar, dataclass, field
from itertools import cycle

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


@dataclass(eq=False)
class FourierCoefficients:
    """Band-limited function as one d_xi x d_xi complex matrix per irrep.

    The blocks are stored per run of ``dual.runs``: ``stacks[k]`` is a
    complex (run length, d, d) array, so per-irrep operations are one
    batched numpy call per run.  ``blocks`` lists the single blocks as views.
    A class function holds its ``scalars`` alone, the c of every block c I,
    recorded by the constructors that know it and read by the central
    paths; its ``stacks`` are then c I per run, built on each read and
    read-only.  Blocks and scalars together are refused.
    """

    dual: DualSlice
    stacks: InitVar[list[np.ndarray] | None] = None
    scalars: np.ndarray | None = field(default=None, kw_only=True)

    def __post_init__(self, stacks):
        if (stacks is None) == (self.scalars is None):
            raise PreconditionError("the blocks or the scalars of a class function required, not both")
        if stacks is None:
            self.scalars = np.asarray(self.scalars, dtype=complex)
            if self.scalars.shape != (len(self.dual),):
                raise PreconditionError("one scalar per irrep required")
            return
        self._stacks = [np.asarray(s, dtype=complex) for s in stacks]
        shapes = [(run.stop - run.start, d, d) for run, d in zip(self.dual.runs, self.dual.run_dims)]
        if [s.shape for s in self._stacks] != shapes:
            raise PreconditionError("one (run length, d, d) stack per run of equal dimension required")

    def _read_stacks(self) -> list[np.ndarray]:
        if self.scalars is None:
            return self._stacks
        stacks = [c * np.eye(d) for c, d in zip(self.dual.per_run(self.scalars), self.dual.run_dims)]
        for stack in stacks:
            stack.flags.writeable = False
        return stacks

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
        """The block of irrep ``i``, a view into its stack; negative ``i`` counts from the end."""
        i = range(len(self.dual))[i]
        k = next(k for k, run in enumerate(self.dual.runs) if i < run.stop)
        return self.stacks[k][i - self.dual.runs[k].start]


FourierCoefficients.stacks = property(FourierCoefficients._read_stacks)  # in the class body it would be the field's default


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
# holds one slab of gamma or alpha products (and, when streamed, one of samples).  A fixed
# constant: at spin 31.5 it makes 8 slabs of 8 nodes, as fast as one product over the whole grid
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
        self.weight = grid.node_weights.item()  # the one weight 1/N of every node
        self.index = np.ravel_multi_index(np.mod(dual.labels, self.shape).T, self.shape)

    def forward(self, values: np.ndarray) -> list[np.ndarray]:
        spectrum = np.fft.fftn(self.weight * values.reshape(self.shape))
        return [np.take(spectrum, self.index).reshape(-1, 1, 1)]

    def inverse_slabs(self, stacks: list[np.ndarray], out: np.ndarray | None = None):
        """The inverse as one slab, the whole grid: the spectrum transformed in place, in ``out`` if given."""
        spectrum = np.empty(self.shape, dtype=complex) if out is None else out
        spectrum.fill(0)
        np.put(spectrum, self.index, stacks[0][:, 0, 0])
        yield ..., np.fft.ifftn(spectrum, norm="forward", out=spectrum)


def _shell_positions(top: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The positions (u, v) = (2m', 2m) of the ladder square of spin ``top`` whose little-d
    values an SU(2) plan stores, u > 0 or u = 0 and v >= 0, and their shells s = max(|u|, |v|):
    by shell, row-major within a shell."""
    ladder = np.arange(top, -top - 1, -1)
    u, v = np.repeat(ladder, len(ladder)), np.tile(ladder, len(ladder))
    keep = ((u - v) % 2 == 0) & ((u > 0) | ((u == 0) & (v >= 0)))
    u, v = u[keep], v[keep]
    s = np.maximum(np.abs(u), np.abs(v))
    order = np.argsort(s, kind="stable")
    return u[order], v[order], s[order]


def _cell_index(offsets: np.ndarray, u: np.ndarray, v: np.ndarray, k: np.ndarray) -> np.ndarray:
    """[stored / mirrored nodes, row, cell]: for the row of position (u, v) and spin k, the flat
    index t of each cell's target, ~t where the cell's sign is negative.  Entry [a, b] of spin k,
    the target (k - 2b, k - 2a), sits at offsets[k] + a (k + 1) + b."""
    w, twice = v * (k + 1), 2 * offsets[k] + k * (k + 2)
    index = np.empty((2, len(k), 2), dtype=np.intp)
    index[0, :, 0] = (twice - w - u) >> 1  # (u, v), sign 1
    index[0, :, 1] = ((twice + w + u) >> 1) ^ -(((u - v) >> 1) & 1)  # (-u, -v), (-1)^(m' - m)
    index[1, :, 0] = ((twice + w - u) >> 1) ^ -(((k + u) >> 1) & 1)  # (u, -v), (-1)^(l + m')
    index[1, :, 1] = ((twice - w + u) >> 1) ^ -(((k - v) >> 1) & 1)  # (-u, v), (-1)^(l - m)
    return index


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

    The gamma axis spans 4 pi in Ng nodes, and the node g + Ng/2 is the node
    g shifted by 2 pi, where the phase of ladder entry m is (-1)^(2m) times
    the phase at g.  Class c of the square of spin ``band`` holds the m with
    2m = band - c (mod 2), so at gamma + 2 pi its samples are its samples at
    gamma times s_c = (-1)^(band - c): the gamma tables ``e_inv_g`` and
    ``p_fwd_g`` hold the Ng/2 nodes gamma < 2 pi only, and every gamma
    product runs on them.  The alpha tables are class-ordered (rows of
    ``p_fwd_a``, columns of ``e_inv_a``: the top spin's class 0, then its
    class 1), so each class of any band is a run of one of them
    (:meth:`_alpha_columns`).

    The alpha and gamma products run slab by slab over ``slabs``, runs of
    beta nodes of about ``_SLAB_BYTES`` of complex samples each, through one
    workspace allocated per call and reused by every slab, so no grid-sized
    intermediate exists:

    * Inverse, on the square of the largest nonzero spin: the beta sum fills
      both compact arrays; then per slab, one gamma product per class (one
      matrix product per node) on the half circle, and the signs s_c go in
      one of two places, chosen by :meth:`_butterfly` from the shapes.  The
      butterfly parks the gamma products in the slab's output columns, takes
      each class's alpha product P_c on the half circle into the (Na, slab,
      Ng) workspace, and writes P_0 + P_1 below 2 pi and s_0 (P_0 - P_1)
      above (s_1 = -s_0).  Otherwise the gamma products fill the first half
      of each row of a (2 band + 1, slab, Ng) workspace, s_c times them the
      second half, and one alpha product of the class-ordered alpha columns
      with it writes the slab's columns of the output.
    * Forward, on the square of the top spin: per slab and class, the
      slab's samples folded onto the half circle, v(gamma) + s_c v(gamma +
      2 pi), in an (Na, slab, Ng/2) workspace, then the class's alpha
      product with its rows of ``p_fwd_a`` and its gamma product into the
      compact arrays, weighted by node; the beta sum reads them whole.

    The beta sum runs over shells.  A position (u, v) = (2m', 2m) of the
    ladder square belongs to every spin k >= s = max(|u|, |v|) with
    k = s (mod 2), so its sum over spins is one small matrix product, and a
    shell's positions make one batched product.  The tables store a quarter
    of every little-d table d^l_{m'm}(beta_j): the positions u > 0, or u = 0
    and v >= 0, at the first ceil(Nb/2) nodes.  ``tables[s]`` is shell s's
    (positions, spins s, s + 2, ..., top, stored nodes) view of one buffer,
    so a run of live spins is a slice of its middle axis.  The nodes are
    symmetric, beta_{Nb-1-j} = pi - beta_j, and with d_{-m',-m} =
    (-1)^(m'-m) d_{m'm} and d_{m'm}(pi - beta) = (-1)^(l+m') d_{m',-m}(beta)
    one stored row serves four cells: the targets (u, v) and (-u, -v) at
    the stored nodes, with signs 1 and (-1)^(m'-m), and (u, -v) and (-u, v)
    at the mirrored nodes Nb - 1 - j, with signs (-1)^(l+m') and (-1)^(l-m).
    With Nb odd the middle node pi/2 is stored once.

    The coefficients enter in one flat order, spin after spin and each block
    in C order.  ``index[s]`` holds, for the stored and for the mirrored
    cells of shell s, each cell's target t in that order, ~t where its sign
    is negative (:func:`_cell_index`).  The inverse gathers its (k + 1) blk
    entries from the flat blocks followed by their negatives in reverse
    order, where ~t reads -blk[t]; the forward scatters its sums into the
    same layout.  Per shell each way takes two real products, the stored
    cells at the stored nodes and the mirrored cells at the mirrored ones:
    (positions, nodes, spins) by (positions, spins, 2 cells x re/im) in the
    inverse, the transposed table by (positions, nodes, 2 cells x re/im) in
    the forward.  They write and read the compact arrays in place, in shell
    order (:meth:`_reorder`), so the class arrays are (Nb, n^2 + 1) planes.
    """

    def __init__(self, grid: QuadratureGrid, dual: DualSlice):
        alpha, beta, gamma = grid.axes
        self.shape = (len(alpha), len(beta), len(gamma))
        self.top = top = int(round(2.0 * dual.max_band))  # largest two_ell
        m = (top - np.arange(2 * top + 1)) / 2.0  # descending, half steps
        ordered = m[np.r_[self._classes(top)]]  # the classes of the top spin, one after the other
        self.p_fwd_a = np.exp(1j * np.outer(ordered, alpha))  # class-ordered rows
        self.e_inv_a = np.exp(-1j * np.outer(alpha, ordered))  # class-ordered columns
        circle = gamma[: len(gamma) // 2]  # gamma < 2 pi: the plan folds gamma + 2 pi onto it
        self.p_fwd_g = np.exp(1j * np.outer(m, circle))
        self.e_inv_g = np.exp(-1j * np.outer(m, circle))
        self.c_beta = grid.beta_weights
        # slabs of about _SLAB_BYTES of complex samples, as even as Nb allows; the wider ones
        # first, so a buffer sized for the first slab holds every slab
        count = min(len(beta), -(-16 * len(alpha) * len(beta) * len(gamma) // _SLAB_BYTES))
        wide, extra = divmod(len(beta), count)
        edges = np.cumsum([0] + [wide + 1] * extra + [wide] * (count - extra)).tolist()
        self.slabs = [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
        self.width = edges[1]  # the widest slab
        self.two_ells = [d - 1 for d in dual.run_dims]  # one spin per run: 0, 1, ..., top
        self.half, self.mirror = (len(beta) + 1) // 2, len(beta) // 2  # stored and mirrored nodes
        self.offsets = np.cumsum([0] + [(k + 1) ** 2 for k in self.two_ells]).tolist()  # the flat order
        u, v, s = _shell_positions(top)
        self.uv = [np.stack([u[s % 2 == parity], v[s % 2 == parity]], axis=1) for parity in (0, 1)]
        counts = np.bincount(s, minlength=top + 1).tolist()  # positions per shell
        # shell k's positions in the list of its parity
        self.spans = [slice(sum(counts[k % 2 : k : 2]), sum(counts[k % 2 : k + 1 : 2])) for k in self.two_ells]
        # one row per (position, spin): the spins s, s + 2, ..., top of each position in turn
        spins = (top - s) // 2 + 1
        first = np.cumsum(spins) - spins
        pos = np.repeat(np.arange(len(s)), spins)
        cells = _cell_index(np.asarray(self.offsets), u[pos], v[pos], 2 * np.arange(len(pos)) + (s - 2 * first)[pos])
        # the tables, filled spin by spin: row_of[top - u, top - v] + k // 2 is the row of spin k
        d = np.empty((len(pos), self.half))
        del pos
        row_of = np.full((2 * top + 1, 2 * top + 1), -1)
        row_of[top - u, top - v] = first - s // 2
        nodes = beta[: self.half]
        for k in self.two_ells:
            q = _little_d_rows(k, nodes, slice(0, k // 2 + 1))  # [j, b, a], the rows u = k - 2b >= 0
            rows = row_of[top - k : top + 1 : 2, top - k : top + k + 1 : 2] + k // 2
            if k % 2 == 0:  # the row u = 0 of an integer spin, stored for v >= 0
                d[rows[-1, : k // 2 + 1]] = q[:, -1, : k // 2 + 1].T
                rows, q = rows[:-1], q[:, :-1]
            d[rows] = q.transpose(1, 2, 0)
        self.tables, self.index = [], []
        for k in self.two_ells:
            lo, count = sum(counts[:k]), (top - k) // 2 + 1  # its first position, its spins
            rows = slice(first[lo], first[lo] + counts[k] * count)
            self.tables.append(d[rows].reshape(counts[k], count, self.half))
            self.index.append([cells[side, rows].reshape(counts[k], count, 2) for side in (0, 1)])
        self._orders = {}  # memo of _reorder's indices: the windows of tl_norms ask for a few bands, member after member

    def _classes(self, band: int) -> tuple[slice, slice]:
        """The ladder slices of parity classes 0 and 1 in the square of spin k = band."""
        lo = self.top - band
        return slice(lo, lo + 2 * band + 1, 2), slice(lo + 1, lo + 2 * band, 2)

    def _alpha_columns(self, band: int) -> list[np.ndarray]:
        """The columns of ``e_inv_a`` of parity classes 0 and 1 in the square of spin ``band``:
        each class's ladder entries are a run of one class of the top spin, so a view."""
        views = []
        for ladder, n in zip(self._classes(band), (band + 1, band)):
            first = (ladder.start % 2) * (self.top + 1) + ladder.start // 2
            views.append(self.e_inv_a[:, first : first + n])
        return views

    def _compact(self, band: int, allocs=(np.empty, np.empty)) -> list[np.ndarray]:
        """Both class arrays on the square of spin ``band``, as (Nb, n^2 + 1) planes: a node's
        [b, a] square and one spare entry, which the shell order needs for the target (0, 0)."""
        return [alloc((self.shape[1], n * n + 1), dtype=complex) for alloc, n in zip(allocs, (band + 1, band))]

    @staticmethod
    def _squares(planes: list[np.ndarray], band: int) -> list[np.ndarray]:
        """The (Nb, n, n) [j, b, a] views of :meth:`_compact`'s planes."""
        return [cls[:, : n * n].reshape(len(cls), n, n) for cls, n in zip(planes, (band + 1, band))]

    def _reorder(self, planes: np.ndarray, edge: int, to_shells: bool):
        """Move a class's planes (its largest spin ``edge``) between [b, a] order and shell order.

        In shell order, the plane of stored node j holds cells 0 and 1 of each position of the
        class, position after position, and plane half + j cells 2 and 3 of mirrored node
        Nb - 1 - j, so that both blocks ascend with j.  The four cells of (0, 0) share one
        target, which takes two slots of a plane: hence the spare entry.
        """
        if edge < 0:
            return
        key = (edge, to_shells)
        if key not in self._orders:
            n = edge + 1
            u, v = self.uv[edge % 2][: self.spans[edge].stop].T
            b0, b1, a0, a1 = (edge - u) // 2, (edge + u) // 2, (edge - v) // 2, (edge + v) // 2
            # the [b, a] entry of each slot, in the stored and in the mirrored planes
            slots = np.stack([b0 * n + a0, b1 * n + a1, b0 * n + a1, b1 * n + a0], axis=1)
            slots = slots.reshape(-1, 2, 2).transpose(1, 0, 2).reshape(2, -1)
            if not to_shells:  # the slot of each entry (of (0, 0), one of its two equal ones)
                entries = np.empty((2, n * n), dtype=np.intp)
                entries[0, slots[0]], entries[1, slots[1]] = np.arange(slots.shape[1]), np.arange(slots.shape[1])
                slots = entries
            self._orders[key] = slots
        index = self._orders[key]
        count = index.shape[1]
        nb, half, rows = len(planes), self.half, max(1, _SLAB_BYTES // (16 * planes.shape[1]))
        for j0 in range(0, half, rows):  # a stored node's plane holds its own cells
            block = planes[j0 : min(j0 + rows, half)]
            block[:, :count] = np.take(block, index[0], axis=1)
        end = (self.mirror + 1) // 2
        for j0 in range(0, end, rows):  # planes half + j and Nb - 1 - j trade places
            j1 = min(j0 + rows, end)
            low, high = planes[half + j0 : half + j1], planes[nb - j1 : nb - j0]
            swapped = np.take(high, index[1], axis=1)[::-1], np.take(low, index[1], axis=1)[::-1]
            low[:, :count], high[:, :count] = swapped

    def _products(self, cls: np.ndarray, shell: int) -> tuple[np.ndarray, np.ndarray]:
        """A shell's (positions, nodes, 2 cells x re/im) real views of a class's planes in shell
        order: its stored cells at the stored nodes, its mirrored cells at the mirrored ones."""
        span, size = self.spans[shell], self.spans[shell].stop - self.spans[shell].start
        return tuple(
            cls[nodes, 2 * span.start : 2 * span.stop].view(float).reshape(-1, size, 4).transpose(1, 0, 2)
            for nodes in (slice(0, self.half), slice(self.half, self.half + self.mirror))
        )

    def _beta_inverse(self, stacks: list[np.ndarray]) -> tuple[int, list[np.ndarray]]:
        """The beta sum of the inverse: the largest nonzero spin and both class arrays on its
        square, as :meth:`_compact`'s planes in [b, a] order."""
        live = [k for k, stack in zip(self.two_ells, stacks) if stack.any()]
        band = max(live, default=0)
        # each parity's lowest and highest live spin; the spins between them may be zero
        ranges = [[k for k in live if k % 2 == parity] for parity in (0, 1)]
        ranges = [(ks[0], ks[-1]) if ks else (0, -1) for ks in ranges]
        # a class is written whole when its parity is live up to the class's largest spin
        planes = self._compact(band, [np.empty if ranges[edge % 2][1] == edge else np.zeros for edge in (band, band - 1)])
        if not live:
            return band, planes
        # the (k + 1) blk of spins min(live)..band in the flat order, then their negatives reversed
        size, lo = self.offsets[band + 1], self.offsets[min(live)]
        coef = np.empty(2 * size, dtype=complex)
        np.concatenate([stack.reshape(-1) for stack in stacks[min(live) : band + 1]], out=coef[lo:size])
        for k in range(min(live), band + 1):
            coef[self.offsets[k] : self.offsets[k + 1]] *= k + 1
        np.negative(coef[lo:size][::-1], out=coef[size : 2 * size - lo])
        for s in range(band + 1):
            low, high = ranges[s % 2]
            if s > high:
                continue
            spins = slice((max(s, low) - s) // 2, (high - s) // 2 + 1)
            table = self.tables[s][:, spins].transpose(0, 2, 1)  # (positions, nodes, spins)
            stored, mirrored = self._products(planes[(band - s) % 2], s)
            np.matmul(table, coef[self.index[s][0][:, spins]].view(float), out=stored)
            np.matmul(table[:, : self.mirror], coef[self.index[s][1][:, spins]].view(float), out=mirrored)
        del coef
        for c, cls in enumerate(planes):
            self._reorder(cls, band - c, to_shells=False)
        return band, planes

    def _beta_forward(self, planes: list[np.ndarray]) -> list[np.ndarray]:
        """The beta sum of the forward: one (1, k + 1, k + 1) stack per spin, from both weighted
        class arrays on the square of the top spin (:meth:`_compact`'s planes in [b, a] order,
        which it leaves in shell order)."""
        for c, cls in enumerate(planes):
            self._reorder(cls, self.top - c, to_shells=True)
        size = self.offsets[-1]
        sums = np.zeros(2 * size, dtype=complex)  # each target's sum, or its negative at ~t
        for s, (table, (stored_cells, mirrored_cells)) in enumerate(zip(self.tables, self.index)):
            stored, mirrored = self._products(planes[(self.top - s) % 2], s)
            sums[stored_cells] = np.matmul(table, stored).view(complex)
            sums[mirrored_cells] += np.matmul(table[:, :, : self.mirror], mirrored).view(complex)
        flat = sums[:size] - sums[size:][::-1]
        return [flat[lo:hi].reshape(1, k + 1, k + 1) for k, lo, hi in zip(self.two_ells, self.offsets, self.offsets[1:])]

    def _butterfly(self, band: int) -> bool:
        """Whether the inverse on the square of spin ``band`` applies the class signs after its
        alpha product, which then runs on half the gamma circle, rather than before it.  The
        butterfly saves Na (2 band + 1) multiply-adds per node pair (gamma, gamma + 2 pi) and
        costs one more pass over the (Na, slab, Ng) output, so it pays once the 2 band ladder
        rows exceed a quarter of the Na alpha nodes (measured at spins 15.5 to 63.5)."""
        return 8 * band > self.shape[0]

    def forward(self, values: np.ndarray) -> list[np.ndarray]:
        na, nb, ng = self.shape
        h, top = ng // 2, self.top
        planes = self._compact(top)
        compact = self._squares(planes, top)  # [j, b, a]
        # a class's folded samples, then its alpha products
        work = np.empty((na + top + 1) * self.width * h, dtype=complex)
        samples = values.reshape(na, nb, ng)
        for j in self.slabs:
            v, w = samples[:, j], j.stop - j.start
            size = w * h
            folded = work[: na * size].reshape(na, w, h)
            row = 0
            for parity, ladder in enumerate(self._classes(top)):
                n = top + 1 - parity
                # v(gamma) + s v(gamma + 2 pi) on gamma < 2 pi, s = (-1)^(top - parity) the class's sign
                (np.subtract if (top - parity) % 2 else np.add)(v[:, :, :h], v[:, :, h:], out=folded)
                t = work[na * size : (na + n) * size].reshape(n, w, h)
                np.matmul(self.p_fwd_a[row : row + n], folded.reshape(na, size), out=t.reshape(n, size))
                np.matmul(t.transpose(1, 0, 2), self.p_fwd_g[ladder].T, out=compact[parity][j])
                compact[parity][j] *= self.c_beta[j, None, None]
                row += n
        del work, folded, t
        return self._beta_forward(planes)

    def inverse_slabs(self, stacks: list[np.ndarray], out: np.ndarray | None = None):
        """Yield (index, values) per slab: ``values`` is the inverse on the nodes ``index`` of an
        array of ``self.shape``, ``out[index]`` when ``out`` is given and otherwise a workspace
        that the next slab overwrites."""
        band, planes = self._beta_inverse(stacks)
        compact = self._squares(planes, band)  # [j, b, a]
        na, nb, ng = self.shape
        h, rows, classes = ng // 2, 2 * band + 1, self._classes(band)
        butterfly = self._butterfly(band)
        e_inv_a = self._alpha_columns(band)
        if not butterfly:
            e_inv_a = np.concatenate(e_inv_a, axis=1)
        # the butterfly's two alpha products on the half circle, or the gamma products on the whole one
        work = np.empty((na if butterfly else rows) * self.width * ng, dtype=complex)
        # (alpha, nodes x gamma) columns: the output's, or a slab's worth at the workspace's start
        flat = (np.empty((na, self.width, ng), dtype=complex) if out is None else out).reshape(na, -1)
        for j in self.slabs:
            w = j.stop - j.start
            size = w * h
            lo = j.start * ng if out is not None else 0
            cols = flat[:, lo : lo + 2 * size]
            # the class-ordered gamma products on gamma < 2 pi: parked in the slab's output columns,
            # which the butterfly writes last, or in the first half of each row of the workspace
            t = cols[:rows, :size].reshape(rows, w, h) if butterfly else work[: 2 * rows * size].reshape(rows, w, ng)
            row = 0
            for parity, ladder in enumerate(classes):
                n = band + 1 - parity
                g = t[row : row + n, :, :h]
                np.matmul(compact[parity][j], self.e_inv_g[ladder], out=g.transpose(1, 0, 2))
                if not butterfly:  # gamma + 2 pi, times the class's sign (-1)^(band - parity)
                    if (band - parity) % 2:
                        np.negative(g, out=t[row : row + n, :, h:])
                    else:
                        t[row : row + n, :, h:] = g
                row += n
            if butterfly:  # P and Q, the classes' alpha products: P + Q below 2 pi, (-1)^band (P - Q) above
                p, q = work[: 2 * na * size].reshape(2, na, size)
                np.matmul(e_inv_a[0], t[: band + 1].reshape(band + 1, size), out=p)
                np.matmul(e_inv_a[1], t[band + 1 :].reshape(band, size), out=q)
                p, q, res = p.reshape(na, w, h), q.reshape(na, w, h), cols.reshape(na, w, ng)
                np.add(p, q, out=res[:, :, :h])
                np.subtract(*((q, p) if band % 2 else (p, q)), out=res[:, :, h:])
            else:
                np.matmul(e_inv_a, t.reshape(rows, -1), out=cols)
            yield np.s_[:, j], cols.reshape(na, -1, ng)


def _su2_class_rule(dims: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint nodes theta_j = (j + 1/2) pi / n in the rotation angle of SU(2)
    (``distance_to_identity``): the characters U_{d-1}(cos theta_j) of the
    dimensions ``dims`` of an SU(2) slice, one row per node (the transpose of
    the :func:`_su2_characters` table, not a copy), and the Weyl weights
    (2/n) sin^2(theta_j), exact for the Haar integral of cosine polynomials of
    degree < 2n - 2."""
    theta = (np.arange(n) + 0.5) * (np.pi / n)
    return _su2_characters(np.cos(theta), len(dims)).T, (2.0 / n) * np.sin(theta) ** 2


def _su2_characters(x: np.ndarray, top: int, lag: int | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """The characters chi_d(theta) = sin(d theta) / sin(theta) = U_{d-1}(x) of SU(2), the
    Chebyshev polynomials of the second kind at x = cos(theta), theta the rotation angle
    (``distance_to_identity``), for the dimensions d = 1 ... ``top`` of an SU(2) slice: one
    contiguous row per dimension and one column per point, filled row by row by the
    recurrence U_{k+1} = 2x U_k - U_{k-1}, with no trigonometry.  With ``lag``, each row is
    U_{d-1}(x[:-lag]) - U_{d-1}(x[lag:]) instead, the table less itself ``lag`` points on:
    bit for bit the difference of two tables, from one recurrence in three rolling rows.  The
    table goes into ``out``, a C-contiguous (top, len(x) - lag) array, when one is given."""
    if lag is None:
        chi = np.empty((top, len(x))) if out is None else out
        for _ in _chebyshev_rows(x, top, chi):
            pass
        return chi
    chi = np.empty((top, len(x) - lag)) if out is None else out
    rolling = np.empty((3, len(x)))
    # each rolling row as its two overlapping runs, so the loop makes one call per row
    pairs = cycle([(row[:-lag], row[lag:]) for row in rolling])
    for row, _, (head, tail) in zip(chi, _chebyshev_rows(x, top, rolling), pairs):
        np.subtract(head, tail, out=row)
    return chi


def _chebyshev_rows(x: np.ndarray, top: int, rows: np.ndarray):
    """Yield U_0(x) ... U_{top-1}(x), U_k computed into ``rows[k % len(rows)]`` from the two
    rows before it: a full table when ``rows`` has ``top`` rows, rolling rows when it has 3."""
    rows = list(rows)  # one view per row, made once
    n = len(rows)
    twox = 2.0 * x
    rows[0][:] = 1.0
    yield rows[0]
    if top > 1:
        rows[1][:] = twox
        yield rows[1]
    for k in range(2, top):
        u = rows[k % n]
        np.multiply(twox, rows[(k - 1) % n], out=u)
        u -= rows[(k - 2) % n]
        yield u


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
    """Evaluate the inversion series at every grid node: :func:`inverse_slabs` drained into one
    complex grid-sized array, for a caller that needs the samples themselves."""
    out = np.empty(grid.shape, dtype=complex)
    for _ in _get_plan(grid, coeffs.dual).inverse_slabs(coeffs.stacks, out):
        pass
    return GridFunction(grid, out.ravel())


def inverse_slabs(coeffs: FourierCoefficients, grid: QuadratureGrid):
    """Yield (index, values): the inversion series on the nodes ``index`` of an array of
    ``grid.shape``, slab after slab.  ``values`` may be overwritten by the next slab."""
    return _get_plan(grid, coeffs.dual).inverse_slabs(coeffs.stacks)


# points per chunk of inverse_evaluate: about this many matrix entries per chunk
_EVALUATE_ENTRIES = 2_000_000


def inverse_evaluate(coeffs: FourierCoefficients, points: np.ndarray) -> np.ndarray:
    """f(x) = sum_xi d_xi Tr(xi(x) fhat(xi)) at arbitrary points (P, dim).

    The direct pointwise sum over :func:`representation_stacks`, in chunks of
    points.  Grid evaluation goes through :func:`inverse_slabs`.
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
