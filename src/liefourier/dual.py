"""Unitary dual of the supported groups: enumeration up to a cutoff,
Bessel-potential eigenvalues and evaluation of representation matrices.

Eigenvalue normalisation: the Laplacian eigenvalue is |xi|^2 on the torus and
l*(l+1) on SU(2), so <xi> = sqrt(1 + lambda_xi) >= 1 with <trivial> = 1.

SU(2) matrices are Wigner D-matrices in the ZYZ Euler angles of
:mod:`liefourier.groups`,

    D^l_{m'm}(alpha, beta, gamma) = exp(-1j*m'*alpha) d^l_{m'm}(beta)
                                    * exp(-1j*m*gamma),

with rows/columns ordered by descending m' and m (so the l = 1/2 matrix is
exactly the fundamental matrix of the point).  The little-d matrix is
evaluated as exp(-1j*beta*Jy) through an eigendecomposition of the tridiagonal
angular-momentum generator Jy; this is overflow-free and numerically stable
for all spins handled here (validated up to l = 64, enforced).

Representation matrices broadcast over points: one point gives (d, d)
matrices, (..., dim) points give (..., d, d) stacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import ConfigurationError, PreconditionError
from .groups import SU2, TORUS, GroupDescriptor

MAX_SPIN = 64.0
# largest torus label box (2B + 1)^n that enumerate_dual lays out before filtering
MAX_TORUS_LABELS = 2**24


@dataclass(frozen=True, eq=False)
class DualSlice:
    """All irreps with <xi> <= cutoff, sorted by eigenvalue (labels break ties).

    The slice is a set of arrays, one entry per irrep in that order:
    ``labels`` (an (m, n) integer array on T^n, the spins on SU(2)),
    ``dims`` and ``eigenvalues`` (<xi>).  The order makes irreps of equal
    dimension contiguous; ``runs`` are those stretches as slices (one run of
    1 x 1 blocks on the torus, one run per spin on SU(2)), and coefficients
    are stored as one stack of blocks per run.
    """

    group: GroupDescriptor
    cutoff: float
    labels: np.ndarray
    dims: np.ndarray
    eigenvalues: np.ndarray

    @cached_property
    def runs(self) -> tuple[slice, ...]:
        edges = np.flatnonzero(np.diff(self.dims)) + 1
        bounds = [0, *edges.tolist(), len(self.dims)]
        return tuple(slice(lo, hi) for lo, hi in zip(bounds, bounds[1:]))

    @cached_property
    def run_dims(self) -> tuple[int, ...]:
        """The block dimension of each run."""
        return tuple(int(self.dims[run.start]) for run in self.runs)

    def per_run(self, values: np.ndarray) -> list[np.ndarray]:
        """Per-irrep ``values`` cut into runs, shaped (run length, 1, 1) to
        broadcast against the coefficient stacks."""
        return [values[run, None, None] for run in self.runs]

    @cached_property
    def max_band(self) -> float:
        """Grid bandlimit needed to transform this slice exactly.

        Torus: the largest per-coordinate frequency.  SU(2): the top spin.
        """
        return float(np.max(np.abs(self.labels)))

    def __len__(self) -> int:
        return len(self.dims)


def spin_cutoff(ell_max: float) -> float:
    """Cutoff value whose SU(2) slice is exactly the spins l <= ell_max."""
    return float(np.sqrt(1.0 + ell_max * (ell_max + 1.0)))


def enumerate_dual(group: GroupDescriptor, cutoff: float) -> DualSlice:
    """Every irrep with <xi> <= cutoff.

    SU(2) cutoffs that admit a spin above ``MAX_SPIN`` are refused, and so
    are torus cutoffs whose label box has more than ``MAX_TORUS_LABELS``
    labels.
    """
    if not 1.0 <= cutoff < np.inf:
        raise PreconditionError("cutoff must be finite and >= 1 (the trivial irrep has <xi> = 1)")
    if group.kind == TORUS:
        n = group.dim
        # an axis holds 2 floor(sqrt(cutoff^2 - 1)) + 1 >= 2 cutoff - 3 labels; refuse before squaring
        if cutoff > MAX_TORUS_LABELS:
            raise ConfigurationError(f"cutoff {cutoff:g} on T^{n} needs more than {MAX_TORUS_LABELS} labels on each axis")
        max_sq = cutoff * cutoff - 1.0
        bound = int(np.floor(np.sqrt(max(max_sq, 0.0))))
        shape = (2 * bound + 1,) * n
        box = (2 * bound + 1) ** n
        if box > MAX_TORUS_LABELS:
            raise ConfigurationError(
                f"cutoff {cutoff:g} on T^{n} needs a box of {box} labels, about "
                f"{box * 8 / 1e9:.1f} GB for the float64 norm box alone; the limit is "
                f"{MAX_TORUS_LABELS} labels"
            )
        norms_sq = sum(np.ix_(*[np.arange(-bound, bound + 1, dtype=float) ** 2] * n)).ravel()
        # the ball's cells in C order, which is ascending label order; the
        # stable sort by norm keeps that order among equal eigenvalues
        cells = np.flatnonzero(norms_sq <= max_sq + 1e-12)
        cells = cells[np.argsort(norms_sq[cells], kind="stable")]
        eigenvalues = np.sqrt(1.0 + norms_sq[cells])
        del norms_sq  # the box goes before the labels are laid out
        labels = np.stack(np.unravel_index(cells, shape), axis=-1) - bound
        dims = np.ones(len(labels), dtype=np.int64)
    elif group.kind == SU2:
        # one candidate past the validated top spin, to refuse cutoffs that admit it
        two_ells = np.arange(int(2 * MAX_SPIN) + 2)
        spins = two_ells / 2.0
        eigenvalues = np.sqrt(1.0 + spins * (spins + 1.0))
        keep = eigenvalues <= cutoff + 1e-12
        if keep[-1]:
            _check_spin(spins[-1])
        labels, eigenvalues, dims = spins[keep], eigenvalues[keep], two_ells[keep] + 1
    else:
        raise ConfigurationError(f"unknown group kind {group.kind!r}")
    return DualSlice(group, float(cutoff), labels, dims, eigenvalues)


# ---------------------------------------------------------------------------
# Wigner machinery
# ---------------------------------------------------------------------------

@cache
def _jy_eig(two_ell: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (eigenvalues, vectors) of Jy for spin two_ell/2,
    in the descending-m basis."""
    ell = two_ell / 2.0
    dim = two_ell + 1
    m = ell - np.arange(dim)  # descending
    jy = np.zeros((dim, dim), dtype=complex)
    # <m+1|J+|m> = sqrt(l(l+1) - m(m+1)); Jy = (J+ - J-)/(2i)
    c = np.sqrt(ell * (ell + 1.0) - m[1:] * (m[1:] + 1.0))
    idx = np.arange(1, dim)
    jy[idx - 1, idx] = -0.5j * c
    jy[idx, idx - 1] = 0.5j * c
    return np.linalg.eigh(jy)


def _little_d_rows(two_ell: int, beta: float | np.ndarray, rows: slice) -> np.ndarray:
    """The rows ``rows`` of :func:`little_d`, built without the other rows.

    One batched matmul (V[rows] e^{-i beta lam}) V^H over all betas, so a
    slice of rows costs its share of the full table's flops and bytes.  The
    SU(2) grid plan builds only its stored rows m' >= 0 this way.
    """
    lam, vec = _jy_eig(two_ell)
    beta = np.asarray(beta, dtype=float)
    d = (vec[rows] * np.exp(-1j * beta[..., None] * lam)[..., None, :]) @ vec.conj().T
    return d.real.copy()  # a bare ``.real`` view would keep the complex buffer alive


def little_d(two_ell: int, beta: float | np.ndarray) -> np.ndarray:
    """Wigner little-d matrix d^l(beta) (real), descending-m ordering.

    ``beta`` may be an array; the matrix axes are appended last.  One batched
    matmul V e^{-i beta lam} V^H over all betas.
    """
    return _little_d_rows(two_ell, beta, slice(None))


def _check_spin(ell: float) -> int:
    two_ell = int(round(2.0 * ell))
    if abs(2.0 * ell - two_ell) > 1e-9 or two_ell < 0:
        raise ConfigurationError(f"spin must be a nonnegative half-integer, got {ell}")
    if ell > MAX_SPIN:
        raise ConfigurationError(f"spin {ell} outside the validated range (l <= {MAX_SPIN:g})")
    return two_ell


def wigner_matrix(ell: float, points: np.ndarray) -> np.ndarray:
    """Wigner D-matrices at spin ``ell``: (..., 3) points give (..., d, d)."""
    two_ell = _check_spin(ell)
    points = np.asarray(points, dtype=float)
    m = (two_ell / 2.0) - np.arange(two_ell + 1)
    left = np.exp(-1j * m * points[..., 0, None])[..., :, None]
    right = np.exp(-1j * m * points[..., 2, None])[..., None, :]
    return left * little_d(two_ell, points[..., 1]) * right


def representation_stacks(dual: DualSlice, x: np.ndarray) -> list[np.ndarray]:
    """xi(x) for every irrep of the slice, one (..., run length, d, d) stack
    per run, for one point or (..., dim) points.  Torus irreps are the 1 x 1
    matrices [[exp(2*pi*i x.xi)]]."""
    x = np.asarray(x, dtype=float)
    if dual.group.kind == TORUS:
        return [np.exp(2j * np.pi * np.tensordot(x, dual.labels, axes=(-1, 1)))[..., None, None]]
    return [wigner_matrix(ell, x)[..., None, :, :] for ell in dual.labels]
