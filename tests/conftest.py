import numpy as np
import pytest

from liefourier import make_group
from liefourier.dual import representation_stacks


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


def irrep_matrices(dual, x):
    """xi(x) for every irrep of the slice, in order: one (..., d, d) array
    each, cut from the per-run stacks of ``representation_stacks``."""
    return [m for stack in representation_stacks(dual, x) for m in np.moveaxis(stack, -3, 0)]
