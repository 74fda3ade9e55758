"""Concrete compact groups (torus T^n for n <= 3, and SU(2)) with exact Haar
quadrature, point arithmetic and geometric weight functions.

Conventions
-----------
* Torus points are coordinate vectors in [0, 1)^n; the group law is addition
  mod 1.  Frequencies live in Z^n.
* SU(2) points are ZYZ Euler angles (alpha, beta, gamma) with
  alpha in [0, 2*pi), beta in [0, pi], gamma in [0, 4*pi).  The 4*pi range of
  gamma keeps half-integer-spin matrix coefficients single valued.  The
  fundamental 2x2 matrix of a point is

      [[a, -conj(b)], [b, conj(a)]],
      a = exp(-1j*(alpha+gamma)/2) * cos(beta/2),
      b = exp(+1j*(alpha-gamma)/2) * sin(beta/2).

* At the gimbal-degenerate angles beta in {0, pi} the canonical form stores
  the full rotation phase in alpha; gamma keeps only the double-cover
  remainder, i.e. gamma in {0, 2*pi}.  (A plain "gamma = 0" convention cannot
  represent -I with alpha restricted to [0, 2*pi).)
* Haar measure is normalised to total mass 1.

|x| and q1 each have one implementation over broadcasting coordinate arrays:
points pass their coordinates and grids their ``np.ix_`` axes, so grid and
pointwise values agree bit for bit.

All functions here are pure, and grids are frozen: their nodes and weights
are fixed by (group, bandlimit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import ConfigurationError

TORUS = "torus"
SU2 = "su2"

TWO_PI = 2.0 * np.pi
FOUR_PI = 4.0 * np.pi

_GIMBAL_TOL = 1e-14


def _mod1(x: np.ndarray) -> np.ndarray:
    # np.mod can return the modulus itself when the argument rounds to a
    # multiple; fold so coordinates stay in [0, 1)
    out = np.mod(x, 1.0)
    return np.where(out >= 1.0, out - 1.0, out)


@dataclass(frozen=True)
class GroupDescriptor:
    """Which group we are working on.

    ``dim`` is the manifold dimension (n for the torus, 3 for SU(2)); the
    Haar measure is normalised to total mass 1.
    """

    kind: str
    dim: int


def make_group(kind: str, n: int = 1) -> GroupDescriptor:
    """Build a descriptor for ``torus`` (1 <= n <= 3) or ``su2``."""
    if kind == TORUS:
        if not 1 <= n <= 3:
            raise ConfigurationError(f"torus dimension {n} unsupported (need 1 <= n <= 3)")
        return GroupDescriptor(TORUS, n)
    if kind == SU2:
        return GroupDescriptor(SU2, 3)
    raise ConfigurationError(f"unknown group kind {kind!r}")


def identity(group: GroupDescriptor) -> np.ndarray:
    return np.zeros(group.dim)


# ---------------------------------------------------------------------------
# SU(2) <-> fundamental representation
# ---------------------------------------------------------------------------

def su2_pair(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cayley-Klein parameters (a, b) of Euler points, vectorised.

    ``points`` has shape (..., 3); returns complex arrays of shape (...).
    """
    points = np.asarray(points, dtype=float)
    alpha, beta, gamma = points[..., 0], points[..., 1], points[..., 2]
    return np.exp(-0.5j * (alpha + gamma)) * np.cos(beta / 2.0), np.exp(0.5j * (alpha - gamma)) * np.sin(beta / 2.0)


def su2_matrix(x: np.ndarray) -> np.ndarray:
    """Fundamental 2x2 matrix of one SU(2) point."""
    a, b = su2_pair(np.asarray(x, dtype=float))
    return np.array([[a, -np.conj(b)], [b, np.conj(a)]])


def euler_from_pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Canonical Euler angles from unit Cayley-Klein parameters, vectorised.

    Inverse of :func:`su2_pair` up to roundoff; applies the gimbal
    convention at beta in {0, pi}.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    absa = np.abs(a)
    absb = np.abs(b)
    beta = 2.0 * np.arctan2(absb, absa)
    phi_a = np.angle(a)  # -(alpha+gamma)/2 mod 2*pi, meaningful unless |a| = 0
    phi_b = np.angle(b)  # +(alpha-gamma)/2 mod 2*pi, meaningful unless |b| = 0

    lo = absb <= _GIMBAL_TOL  # beta = 0: only alpha+gamma is determined
    hi = absa <= _GIMBAL_TOL  # beta = pi: only alpha-gamma is determined
    beta = np.where(lo, 0.0, np.where(hi, np.pi, beta))

    alpha = np.mod(phi_b - phi_a, TWO_PI)
    alpha = np.where(lo, np.mod(-2.0 * phi_a, TWO_PI), alpha)
    alpha = np.where(hi, np.mod(2.0 * phi_b, TWO_PI), alpha)
    # np.mod may return the modulus itself when the argument rounds to a
    # multiple; fold before deriving gamma so the pair stays consistent.
    alpha = np.where(alpha >= TWO_PI, alpha - TWO_PI, alpha)

    # gamma is pinned mod 4*pi by whichever phase is reliable; shifting gamma
    # by 4*pi never changes the element, so the final fold needs no partner.
    gamma = np.mod(-2.0 * phi_a - alpha, FOUR_PI)
    gamma = np.where(hi, np.mod(alpha - 2.0 * phi_b, FOUR_PI), gamma)
    gamma = np.where(gamma >= FOUR_PI, gamma - FOUR_PI, gamma)
    return np.stack([alpha, beta, gamma], axis=-1)


def canonicalize(group: GroupDescriptor, x: np.ndarray) -> np.ndarray:
    """Reduce coordinates to the canonical ranges."""
    x = np.asarray(x, dtype=float)
    if group.kind == TORUS:
        return _mod1(x)
    return euler_from_pair(*su2_pair(x))


def multiply(group: GroupDescriptor, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Group product x*y in canonical coordinates.  Broadcasts over leading axes."""
    if group.kind == TORUS:
        return _mod1(np.asarray(x, dtype=float) + np.asarray(y, dtype=float))
    ax, bx = su2_pair(x)
    ay, by = su2_pair(y)
    # [[a,-b*],[b,a*]] multiplication in Cayley-Klein form
    a = ax * ay - np.conj(bx) * by
    b = bx * ay + np.conj(ax) * by
    return euler_from_pair(a, b)


def inverse(group: GroupDescriptor, x: np.ndarray) -> np.ndarray:
    """Group inverse in canonical coordinates."""
    if group.kind == TORUS:
        return _mod1(-np.asarray(x, dtype=float))
    a, b = su2_pair(x)
    return euler_from_pair(np.conj(a), -b)


# ---------------------------------------------------------------------------
# Geometric weights
# ---------------------------------------------------------------------------

def _distance(group: GroupDescriptor, coords) -> np.ndarray:
    """|x| from one coordinate array per axis; the arrays broadcast.

    On SU(2), |x| = arccos(Re a) with Re a = cos(beta/2) Re e^{-i(alpha+gamma)/2}
    (the real part of :func:`su2_pair`'s a, bit for bit), formed from the two
    factors as one real array and then clipped and mapped in place, so a grid's
    np.ix_ axes make one grid-sized array and no complex one."""
    if group.kind == TORUS:
        frac = [np.mod(c, 1.0) for c in coords]
        return TWO_PI * np.sqrt(sum(np.minimum(f, 1.0 - f) ** 2 for f in frac))
    alpha, beta, gamma = coords
    dist = np.asarray(np.exp(-0.5j * (alpha + gamma)).real * np.cos(beta / 2.0))
    np.clip(dist, -1.0, 1.0, out=dist)
    return np.arccos(dist, out=dist)[()]  # [()] gives one point's distance as a scalar


def _q1(group: GroupDescriptor, coords) -> np.ndarray:
    """q1 from one coordinate array per axis; the arrays broadcast.  On SU(2),
    2 |sin(|x| / 2)|, computed in place in the array of |x|."""
    if group.kind == TORUS:
        return 2.0 * np.sqrt(sum(np.sin(np.pi * np.mod(c, 1.0)) ** 2 for c in coords))
    q1 = np.asarray(_distance(group, coords))
    q1 /= 2.0
    np.abs(np.sin(q1, out=q1), out=q1)
    q1 *= 2.0
    return q1[()]


def distance_to_identity(group: GroupDescriptor, points: np.ndarray) -> np.ndarray:
    """Geodesic distance |x| to the identity, vectorised over (..., dim)."""
    return _distance(group, np.moveaxis(np.asarray(points, dtype=float), -1, 0))


def q1_weight(group: GroupDescriptor, points: np.ndarray) -> np.ndarray:
    """First-order weight q1, vanishing exactly at the identity, vectorised
    over (..., dim).

    Torus: sqrt(sum_j |exp(2*pi*i*x_j) - 1|^2).  SU(2): sqrt(2 - tr), where
    tr is the fundamental-representation trace.
    """
    return _q1(group, np.moveaxis(np.asarray(points, dtype=float), -1, 0))


# ---------------------------------------------------------------------------
# Quadrature grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureGrid:
    """Haar quadrature nodes, exact for products of two matrix coefficients
    of irreps within ``bandlimit``.

    ``axes`` keeps the per-axis node arrays of the product structure
    (torus: one array per coordinate; SU(2): (alpha, beta, gamma) nodes plus
    the Gauss-Legendre weights in cos(beta)).  ``node_weights`` holds the
    Haar weights as one array that broadcasts to ``shape``: the single
    weight 1/N of shape (1,) * n on the torus, the beta weights as
    (1, Nb, 1) on SU(2), where they depend on beta alone.  The grid stores
    no point list and no grid-sized weight array; ``points`` and ``weights``
    build the flattened C-order arrays on each access.
    """

    group: GroupDescriptor
    bandlimit: float
    node_weights: np.ndarray
    axes: tuple[np.ndarray, ...]
    beta_weights: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(ax) for ax in self.axes)

    @property
    def points(self) -> np.ndarray:
        """The nodes as an (npoints, dim) array in flattened C order."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    @property
    def weights(self) -> np.ndarray:
        """The Haar weight of every node as an (npoints,) array in flattened C order."""
        return np.broadcast_to(self.node_weights, self.shape).ravel()

    def __len__(self) -> int:
        return math.prod(self.shape)


def grid_shape(group: GroupDescriptor, bandlimit: float) -> tuple[int, ...]:
    """The node count per axis of ``build_grid(group, bandlimit)``."""
    if group.kind == TORUS:
        return (2 * int(np.ceil(bandlimit)) + 1,) * group.dim
    two_l = int(np.ceil(2.0 * bandlimit))
    return (2 * two_l + 2, two_l + 1, 2 * two_l + 2)


# One entry per beta node count of an SU(2) grid or kernel-decay class sum: two arrays of n floats each.
@cache
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1], bit for bit
    ``np.polynomial.legendre.leggauss(n)`` by the same steps, without importing
    ``numpy.polynomial``: the eigenvalues of the symmetric companion (Jacobi)
    matrix of P_n (Golub & Welsch), one Newton step on P_n, the weights
    1 / (P_{n-1} P_n') scaled by their maxima, then both symmetrised and the
    weights normalised to sum to 2.  Computed once per node count; read-only,
    as every caller shares them."""
    scl = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    jacobi = np.zeros((n, n))
    jacobi.flat[1 :: n + 1] = jacobi.flat[n :: n + 1] = np.arange(1, n) * scl[:-1] * scl[1:]
    x = np.linalg.eigvalsh(jacobi)
    # the Legendre coefficients of P_n and P_{n-1}, and of P_n' = sum of (2k + 1) P_k over the
    # k < n of the parity of n - 1
    p_n, p_below = ((np.arange(m + 1) == m) * 1.0 for m in (n, n - 1))
    dp_n = np.where(np.arange(n) % 2 == (n - 1) % 2, 2.0 * np.arange(n) + 1.0, 0.0)
    df = _legval(x, dp_n)
    x -= _legval(x, p_n) / df
    fm = _legval(x, p_below)
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _legval(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The Legendre series with coefficients ``c`` (lowest degree first) at
    ``x`` by Clenshaw's recurrence, in the order of operations of
    ``np.polynomial.legendre.legval``."""
    if len(c) == 1:
        return c[0] + 0 * x
    c0, c1 = c[-2], c[-1]
    for nd in range(len(c) - 1, 1, -1):
        c0, c1 = c[nd - 2] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


def _su2_beta_rule(group: GroupDescriptor, bandlimit: float) -> tuple[int, np.ndarray, np.ndarray]:
    """n_ag, the Gauss-Legendre nodes in beta and the Haar weight of one node (alpha, beta_j, gamma)
    of the SU(2) grid, (1/2) w_j / n_ag^2 before :func:`build_grid` renormalises the total to 1."""
    n_ag, n_b, _ = grid_shape(group, bandlimit)
    u, w_gl = _leggauss(n_b)
    return n_ag, np.arccos(u), 0.5 * w_gl / (n_ag * n_ag)


def build_grid(group: GroupDescriptor, bandlimit: float) -> QuadratureGrid:
    """Quadrature grid integrating products of two matrix coefficients of
    irreps within ``bandlimit`` exactly.

    Torus: (2*bandlimit + 1) equally weighted points per coordinate.
    SU(2): uniform alpha and gamma grids with 4*l_max + 2 points and
    Gauss-Legendre nodes in cos(beta) with 2*l_max + 1 nodes, carrying the
    (1/(16*pi^2))*sin(beta) Haar density, renormalised to total mass 1.
    """
    if bandlimit < 0:
        raise ConfigurationError("bandlimit must be >= 0")
    if group.kind == TORUS:
        npts = grid_shape(group, bandlimit)[0]
        nodes = np.arange(npts) / npts
        axes = tuple(nodes for _ in range(group.dim))
        return QuadratureGrid(group, float(bandlimit), np.full((1,) * group.dim, 1.0 / npts**group.dim), axes)

    n_ag, beta, w_beta = _su2_beta_rule(group, bandlimit)
    alpha = TWO_PI * np.arange(n_ag) / n_ag
    gamma = FOUR_PI * np.arange(n_ag) / n_ag
    w_beta = w_beta / _c_order_sum(w_beta, n_ag)
    return QuadratureGrid(
        group,
        float(bandlimit),
        w_beta[None, :, None],
        (alpha, beta, gamma),
        beta_weights=w_beta,
    )


def _c_order_sum(w_beta: np.ndarray, n_ag: int) -> float:
    """The sum of the SU(2) grid's weights in flattened C order, bit for bit
    ``np.broadcast_to(w_beta[None, :, None], shape).ravel().sum()``, without
    the grid-sized array.  numpy sums a contiguous float64 array pairwise,
    halving a part of n values at n // 2 rounded down to a multiple of 8, so
    the sum is a tree of part sums; a part of at most 2^16 values is summed
    by numpy whole, and its values depend on its offset modulo one alpha
    plane only."""
    n_b = len(w_beta)
    plane = n_b * n_ag

    @cache
    def part(offset: int, n: int) -> float:
        return w_beta[np.arange(offset, offset + n) // n_ag % n_b].sum()

    def tree(lo: int, n: int) -> float:
        if n <= 1 << 16:
            return part(lo % plane, n)
        half = n // 2 - n // 2 % 8
        return tree(lo, half) + tree(lo + half, n - half)

    return tree(0, n_ag * plane)


def grid_distance_to_identity(grid: QuadratureGrid) -> np.ndarray:
    """:func:`distance_to_identity` at every node of ``grid`` (flattened C
    order), broadcast from the per-axis nodes without the point list."""
    return _distance(grid.group, np.ix_(*grid.axes)).ravel()


def grid_q1_weight(grid: QuadratureGrid) -> np.ndarray:
    """:func:`q1_weight` at every node of ``grid`` (flattened C order),
    broadcast from the per-axis nodes without the point list."""
    return _q1(grid.group, np.ix_(*grid.axes)).ravel()


def random_point(group: GroupDescriptor, rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform random point."""
    if group.kind == TORUS:
        return rng.random(group.dim)
    v = rng.standard_normal(4)
    v /= np.linalg.norm(v)
    a = v[0] + 1j * v[1]
    b = v[2] + 1j * v[3]
    return euler_from_pair(a, b)


def point_at_distance(group: GroupDescriptor, distance: float) -> np.ndarray:
    """A point at geodesic distance ``distance`` in [0, pi] from the identity:
    a translation along the first torus axis, a rotation about the z-axis
    on SU(2)."""
    if not 0.0 <= distance <= np.pi:
        raise ConfigurationError(f"distances to the identity lie in [0, pi], got {distance!r}")
    if group.kind == TORUS:
        point = np.zeros(group.dim)
        point[0] = distance / TWO_PI
        return point
    return canonicalize(group, np.array([2.0 * distance, 0.0, 0.0]))
