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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, PreconditionError
from .groups import SU2, TORUS, GroupDescriptor

MAX_SPIN = 64.0
# largest torus label box (2B + 1)^n that enumerate_dual lays out before filtering
MAX_TORUS_LABELS = 2**24


@dataclass(frozen=True)
class IrrepIndex:
    """One equivalence class [xi]: label, dimension and <xi>."""

    label: tuple | float
    dim: int
    eigenvalue: float


@dataclass(frozen=True)
class DualSlice:
    """All irreps with <xi> <= cutoff, sorted by eigenvalue (labels break ties)."""

    group: GroupDescriptor
    cutoff: float
    irreps: tuple[IrrepIndex, ...]

    @cached_property
    def index_of(self) -> dict:
        return {ir.label: i for i, ir in enumerate(self.irreps)}

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        return np.array([ir.eigenvalue for ir in self.irreps])

    @cached_property
    def dims(self) -> np.ndarray:
        return np.array([ir.dim for ir in self.irreps], dtype=np.int64)

    @cached_property
    def max_band(self) -> float:
        """Grid bandlimit needed to transform this slice exactly.

        Torus: the largest per-coordinate frequency.  SU(2): the top spin.
        """
        if self.group.kind == TORUS:
            return float(max(max(abs(c) for c in ir.label) for ir in self.irreps))
        return float(max(ir.label for ir in self.irreps))

    def __len__(self) -> int:
        return len(self.irreps)


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
    irreps: list[IrrepIndex] = []
    if group.kind == TORUS:
        n = group.dim
        max_sq = cutoff * cutoff - 1.0
        bound = int(np.floor(np.sqrt(max(max_sq, 0.0))))
        box = (2 * bound + 1) ** n
        if box > MAX_TORUS_LABELS:
            raise ConfigurationError(
                f"cutoff {cutoff:g} on T^{n} needs a box of {box} labels, about "
                f"{box * n * 8 / 1e9:.1f} GB for the label array alone; the limit is "
                f"{MAX_TORUS_LABELS} labels"
            )
        ranges = [range(-bound, bound + 1)] * n
        grids = np.meshgrid(*ranges, indexing="ij")
        labels = np.stack([g.ravel() for g in grids], axis=-1)
        norms_sq = np.sum(labels.astype(float) ** 2, axis=-1)
        for lab, nsq in zip(labels, norms_sq):
            if nsq <= max_sq + 1e-12:
                irreps.append(IrrepIndex(tuple(int(c) for c in lab), 1, float(np.sqrt(1.0 + nsq))))
    elif group.kind == SU2:
        two_ell = 0
        while True:
            ell = two_ell / 2.0
            eig = np.sqrt(1.0 + ell * (ell + 1.0))
            if eig > cutoff + 1e-12:
                break
            _check_spin(ell)
            irreps.append(IrrepIndex(ell, two_ell + 1, float(eig)))
            two_ell += 1
    else:
        raise ConfigurationError(f"unknown group kind {group.kind!r}")
    irreps.sort(key=lambda ir: (ir.eigenvalue, ir.label))
    return DualSlice(group, float(cutoff), tuple(irreps))


# ---------------------------------------------------------------------------
# Wigner machinery
# ---------------------------------------------------------------------------

_JY_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _jy_eig(two_ell: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (eigenvalues, vectors) of Jy for spin two_ell/2,
    in the descending-m basis."""
    cached = _JY_CACHE.get(two_ell)
    if cached is not None:
        return cached
    ell = two_ell / 2.0
    dim = two_ell + 1
    m = ell - np.arange(dim)  # descending
    jy = np.zeros((dim, dim), dtype=complex)
    # <m+1|J+|m> = sqrt(l(l+1) - m(m+1)); Jy = (J+ - J-)/(2i)
    c = np.sqrt(ell * (ell + 1.0) - m[1:] * (m[1:] + 1.0))
    idx = np.arange(1, dim)
    jy[idx - 1, idx] = -0.5j * c
    jy[idx, idx - 1] = 0.5j * c
    lam, vec = np.linalg.eigh(jy)
    _JY_CACHE[two_ell] = (lam, vec)
    return lam, vec


def little_d(two_ell: int, beta: float | np.ndarray) -> np.ndarray:
    """Wigner little-d matrix d^l(beta) (real), descending-m ordering.

    ``beta`` may be an array; the matrix axes are appended last.  One batched
    matmul V e^{-i beta lam} V^H over all betas.
    """
    lam, vec = _jy_eig(two_ell)
    beta = np.asarray(beta, dtype=float)
    d = (vec * np.exp(-1j * beta[..., None] * lam)[..., None, :]) @ vec.conj().T
    return d.real.copy()  # a bare ``.real`` view would keep the complex buffer alive


def _check_spin(ell: float) -> int:
    two_ell = int(round(2.0 * ell))
    if abs(2.0 * ell - two_ell) > 1e-9 or two_ell < 0:
        raise ConfigurationError(f"spin must be a nonnegative half-integer, got {ell}")
    if ell > MAX_SPIN:
        raise ConfigurationError(f"spin {ell} outside the validated range (l <= {MAX_SPIN:g})")
    return two_ell


def wigner_matrix(ell: float, point: np.ndarray) -> np.ndarray:
    """Full Wigner D-matrix of one SU(2) point at spin ``ell``."""
    two_ell = _check_spin(ell)
    alpha, beta, gamma = np.asarray(point, dtype=float)
    m = (two_ell / 2.0) - np.arange(two_ell + 1)
    d = little_d(two_ell, beta)
    return np.exp(-1j * m * alpha)[:, None] * d * np.exp(-1j * m * gamma)[None, :]


def evaluate_irrep(group: GroupDescriptor, irrep: IrrepIndex | tuple | float, x: np.ndarray) -> np.ndarray:
    """Representation matrix xi(x) (unitary, d x d complex).

    ``irrep`` may be an :class:`IrrepIndex` or a raw label.  Torus irreps are
    the 1x1 matrices [[exp(2*pi*i x.xi)]].
    """
    label = irrep.label if isinstance(irrep, IrrepIndex) else irrep
    x = np.asarray(x, dtype=float)
    if group.kind == TORUS:
        xi = np.asarray(label, dtype=float)
        return np.array([[np.exp(2j * np.pi * float(np.dot(x, xi)))]])
    return wigner_matrix(float(label), x)

