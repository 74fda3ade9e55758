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

All functions here are pure.  A grid's nodes and weights are fixed at
construction, but a grid is not immutable: it carries a plan cache that
:mod:`liefourier.transform` fills on first use.  Threads sharing a grid may
each build the same plan; the last write wins and the plans are equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    return _su2_a(alpha, beta, gamma), np.exp(0.5j * (alpha - gamma)) * np.sin(beta / 2.0)


def _su2_a(alpha, beta, gamma) -> np.ndarray:
    """The Cayley-Klein parameter a from broadcasting Euler angle arrays."""
    return np.exp(-0.5j * (alpha + gamma)) * np.cos(beta / 2.0)


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
    """|x| from one coordinate array per axis; the arrays broadcast."""
    if group.kind == TORUS:
        frac = [np.mod(c, 1.0) for c in coords]
        return TWO_PI * np.sqrt(sum(np.minimum(f, 1.0 - f) ** 2 for f in frac))
    return np.arccos(np.clip(_su2_a(*coords).real, -1.0, 1.0))


def _q1(group: GroupDescriptor, coords) -> np.ndarray:
    """q1 from one coordinate array per axis; the arrays broadcast."""
    if group.kind == TORUS:
        return 2.0 * np.sqrt(sum(np.sin(np.pi * np.mod(c, 1.0)) ** 2 for c in coords))
    return 2.0 * np.abs(np.sin(_distance(group, coords) / 2.0))


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

@dataclass
class QuadratureGrid:
    """Haar quadrature nodes, exact for products of two matrix coefficients
    of irreps within ``bandlimit``.

    ``axes`` keeps the per-axis node arrays of the product structure
    (torus: one array per coordinate; SU(2): (alpha, beta, gamma) nodes plus
    the Gauss-Legendre weights in cos(beta)).  The grid stores no point
    list; ``points`` builds the flattened C-order product on each access.
    Nodes and weights are fixed after construction; ``_plans`` is the plan
    cache, keyed by dual slice, that :mod:`liefourier.transform` writes on
    first use.
    """

    group: GroupDescriptor
    bandlimit: float
    weights: np.ndarray
    axes: tuple[np.ndarray, ...]
    beta_weights: np.ndarray | None = None
    _plans: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(ax) for ax in self.axes)

    @property
    def points(self) -> np.ndarray:
        """The nodes as an (npoints, dim) array in flattened C order."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def __len__(self) -> int:
        return len(self.weights)


def grid_shape(group: GroupDescriptor, bandlimit: float) -> tuple[int, ...]:
    """The node count per axis of ``build_grid(group, bandlimit)``."""
    if group.kind == TORUS:
        return (2 * int(np.ceil(bandlimit)) + 1,) * group.dim
    two_l = int(np.ceil(2.0 * bandlimit))
    return (2 * two_l + 2, two_l + 1, 2 * two_l + 2)


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
        weights = np.full(npts**group.dim, 1.0 / npts**group.dim)
        return QuadratureGrid(group, float(bandlimit), weights, axes)

    n_ag, n_b, _ = grid_shape(group, bandlimit)
    alpha = TWO_PI * np.arange(n_ag) / n_ag
    gamma = FOUR_PI * np.arange(n_ag) / n_ag
    u, w_gl = np.polynomial.legendre.leggauss(n_b)
    beta = np.arccos(u)
    w_beta = 0.5 * w_gl / (n_ag * n_ag)
    weights = np.broadcast_to(w_beta[None, :, None], (n_ag, n_b, n_ag)).ravel()  # ravel copies the broadcast view
    total = weights.sum()
    weights /= total
    w_beta = w_beta / total
    return QuadratureGrid(
        group,
        float(bandlimit),
        weights,
        (alpha, beta, gamma),
        beta_weights=w_beta,
    )


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
