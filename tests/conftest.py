import pytest

from liefourier import make_group


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
