import numpy as np
import pytest

from liefourier import make_group
from liefourier.dual import representation_stacks
from liefourier.transform import FourierCoefficients


@pytest.fixture(scope="session")
def torus1():
    return make_group("torus", 1)


@pytest.fixture(scope="session")
def torus2():
    return make_group("torus", 2)


@pytest.fixture(scope="session")
def su2():
    return make_group("su2")


def point_gap(group, x, y):
    """Geodesic distance between two points (0 iff they coincide)."""
    from liefourier.groups import distance_to_identity, inverse, multiply

    return float(distance_to_identity(group, multiply(group, inverse(group, x), y)))


@pytest.fixture
def gap():
    return point_gap


def irrep_labels(dual):
    """The slice's labels as hashable Python values, in slice order: integer
    tuples on the torus, float spins on SU(2)."""
    if dual.group.kind == "torus":
        return [tuple(int(c) for c in label) for label in dual.labels]
    return [float(label) for label in dual.labels]


def index_of(dual, label):
    """The position in the slice of ``label``, given as in :func:`irrep_labels`."""
    return irrep_labels(dual).index(label)


def translate_coefficients(coeffs, z):
    """Coefficients of x -> f(zx), namely fhat(xi) xi(z): the translation
    convention, as the tests' oracle."""
    reps = representation_stacks(coeffs.dual, z)
    return FourierCoefficients(coeffs.dual, [s @ r for s, r in zip(coeffs.stacks, reps)])


def spy_recorded_stack_reads(monkeypatch):
    """Patch ``FourierCoefficients.stacks`` to list, by slice length, every
    read of an object that records its scalars (whose blocks are derived)."""
    reads, read = [], FourierCoefficients.stacks.fget

    def spy(coeffs):
        if coeffs.scalars is not None:
            reads.append(len(coeffs.dual))
        return read(coeffs)

    monkeypatch.setattr(FourierCoefficients, "stacks", property(spy))
    return reads


def ulp_distance(a, b):
    """How many float64 values lie between nonnegative ``a`` and ``b``,
    elementwise (0 when they are bitwise equal)."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return np.abs(a.view(np.int64) - b.view(np.int64))


def irrep_matrices(dual, x):
    """xi(x) for every irrep of the slice, in order: one (..., d, d) array
    each, cut from the per-run stacks of ``representation_stacks``."""
    return [m for stack in representation_stacks(dual, x) for m in np.moveaxis(stack, -3, 0)]


# an extended long double (x87, 64-bit mantissa) or wider; on platforms where
# np.longdouble is float64 the long-double oracles have nothing to say
LONG_DOUBLE = np.longdouble(1) + np.longdouble(2.0**-57) > 1  # a mantissa of 58 bits or more


def chebyshev_u_long_double(x, top):
    """U_0 ... U_{top-1} at the float64 points x, one row per degree, by the
    three-term recurrence in np.longdouble: the characters of SU(2) of
    dimensions 1 ... top at x = cos(theta)."""
    x = np.asarray(x, dtype=np.longdouble)
    u = np.empty((top, len(x)), dtype=np.longdouble)
    u[0] = 1
    if top > 1:
        u[1] = 2 * x
    for k in range(2, top):
        u[k] = 2 * x * u[k - 1] - u[k - 2]
    return u
