import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import irrep_matrices
from liefourier import build_grid, enumerate_dual, make_group
from liefourier.dual import spin_cutoff, wigner_matrix
from liefourier.errors import ConfigurationError
from liefourier.groups import (
    _leggauss,
    _su2_beta_rule,
    canonicalize,
    distance_to_identity,
    euler_from_pair,
    grid_distance_to_identity,
    grid_q1_weight,
    identity,
    inverse,
    multiply,
    point_at_distance,
    q1_weight,
    random_point,
    su2_matrix,
    su2_pair,
)
from liefourier.transform import inverse_evaluate, random_coefficients


def test_make_group():
    assert make_group("torus", 1).dim == 1
    assert make_group("torus", 3).dim == 3
    assert make_group("su2").dim == 3
    with pytest.raises(ConfigurationError):
        make_group("torus", 5)
    with pytest.raises(ConfigurationError):
        make_group("so3")


def test_torus_grid_counts(torus1):
    grid = build_grid(torus1, 4)
    assert len(grid) == 9  # Nyquist count 2*4+1
    np.testing.assert_allclose(grid.weights, 1 / 9)
    with pytest.raises(ConfigurationError, match="bandlimit"):
        build_grid(torus1, -1)


@pytest.mark.parametrize("kind,n,band", [("torus", 1, 4), ("torus", 2, 2), ("su2", 3, 2.0)])
def test_weights_sum_to_one(kind, n, band):
    grid = build_grid(make_group(kind, n), band)
    assert abs(grid.weights.sum() - 1.0) < 1e-13


@pytest.mark.parametrize("band", [0.0, 0.5, 7.5, 12.0, 31.5, 40.0])
def test_su2_weights_keep_the_c_order_total(su2, band):
    # the beta weights normalised by the sum of the flattened grid's weights in C order,
    # bit for bit, although the grid never forms that array
    grid = build_grid(su2, band)
    n_ag, beta, w_beta = _su2_beta_rule(su2, band)
    flat = np.broadcast_to(w_beta[None, :, None], grid.shape).ravel()
    assert np.array_equal(grid.beta_weights, w_beta / flat.sum())
    assert np.array_equal(grid.weights, flat / flat.sum())


def test_grids_hold_weights_per_axis(torus2, su2):
    # the torus keeps its one weight, SU(2) its beta weights; at spin 31.5 (1,048,576 nodes)
    # the grid's arrays take fewer bytes than it has nodes
    torus = build_grid(torus2, 4)
    assert torus.node_weights.shape == (1, 1) and torus.node_weights[0, 0] == 1.0 / 81
    assert np.array_equal(torus.weights, np.full(81, 1.0 / 81))
    grid = build_grid(su2, 31.5)
    assert grid.node_weights.shape == (1, 64, 1) and len(grid) == 128 * 64 * 128
    held = [grid.node_weights, grid.beta_weights, *grid.axes]
    assert sum(a.nbytes for a in held) < len(grid)


@pytest.mark.parametrize(
    "kind,n,cutoff",
    [
        ("torus", 1, np.sqrt(1 + 9.0)),       # labels up to |xi| = 3
        ("torus", 2, np.sqrt(1 + 2.0)),
        ("su2", 3, spin_cutoff(2)),
    ],
)
def test_schur_orthogonality_exhaustive(kind, n, cutoff):
    group = make_group(kind, n)
    dual = enumerate_dual(group, cutoff)
    grid = build_grid(group, dual.max_band)
    tables = irrep_matrices(dual, grid.points)
    for i, d in enumerate(dual.dims):
        for j in range(len(dual)):
            gram = np.einsum("p,pab,pcd->abcd", grid.weights, tables[i], np.conj(tables[j]))
            expect = np.zeros_like(gram)
            if i == j:
                for a in range(d):
                    for b in range(d):
                        expect[a, b, a, b] = 1.0 / d
            assert np.max(np.abs(gram - expect)) < 1e-10


def test_su2_spin1_entry_integral(su2):
    # Schur orthogonality gives integral |D^1_{00}|^2 = 1/d = 1/3
    dual = enumerate_dual(su2, spin_cutoff(2))
    grid = build_grid(su2, dual.max_band)
    table = wigner_matrix(1.0, grid.points)
    val = np.sum(grid.weights * np.abs(table[:, 0, 0]) ** 2)
    assert abs(val - 1.0 / 3.0) < 1e-10


def test_torus_multiply_example(torus1):
    out = multiply(torus1, np.array([0.3]), np.array([0.9]))
    np.testing.assert_allclose(out, [0.2], atol=1e-14)


def test_group_axioms_random(torus2, su2, gap):
    rng = np.random.default_rng(5)
    for group in (torus2, su2):
        for _ in range(25):
            x = random_point(group, rng)
            y = random_point(group, rng)
            z = random_point(group, rng)
            assert gap(group, multiply(group, x, inverse(group, x)), identity(group)) < 1e-12
            lhs = multiply(group, multiply(group, x, y), z)
            rhs = multiply(group, x, multiply(group, y, z))
            assert gap(group, lhs, rhs) < 1e-12


def test_su2_fundamental_homomorphism(su2):
    rng = np.random.default_rng(6)
    for _ in range(50):
        x = random_point(su2, rng)
        y = random_point(su2, rng)
        lhs = su2_matrix(multiply(su2, x, y))
        rhs = su2_matrix(x) @ su2_matrix(y)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_su2_gimbal_convention(su2, gap):
    # beta = 0: rotation goes to alpha, gamma keeps only the 2*pi cover sign
    z = canonicalize(su2, np.array([1.0, 0.0, 2.0]))
    assert z[2] in (0.0, 2 * np.pi) or abs(z[2]) < 1e-12 or abs(z[2] - 2 * np.pi) < 1e-12
    assert abs(z[0] - 3.0) < 1e-12  # alpha + gamma merged
    # -I needs the gamma = 2*pi remainder
    minus_i = euler_from_pair(np.asarray(-1.0 + 0j), np.asarray(0j))
    a, b = su2_pair(minus_i)
    assert abs(a + 1.0) < 1e-14 and abs(b) < 1e-14
    assert gap(su2, multiply(su2, minus_i, minus_i), identity(su2)) < 1e-12
    # beta = pi stays canonical
    w = canonicalize(su2, np.array([0.5, np.pi, 1.5]))
    aw, bw = su2_pair(w)
    a0, b0 = su2_pair(np.array([0.5, np.pi, 1.5]))
    assert abs(aw - a0) < 1e-12 and abs(bw - b0) < 1e-12


def test_geometric_weights_identity(torus1, su2):
    # the library's geometric weights: the distance |x| and q1
    for group in (torus1, su2):
        assert distance_to_identity(group, identity(group)) == 0.0
        assert q1_weight(group, identity(group)) == 0.0


def test_geometric_weights_su2_quarter_turn(su2):
    x = point_at_distance(su2, np.pi / 2)
    assert abs(distance_to_identity(su2, x) - np.pi / 2) < 1e-12
    assert abs(q1_weight(su2, x) - np.sqrt(2.0)) < 1e-12   # 2|sin(theta/2)|


def test_geometric_weights_torus_half(torus1):
    x = np.array([0.5])
    assert abs(distance_to_identity(torus1, x) - np.pi) < 1e-12
    assert abs(q1_weight(torus1, x) - 2.0) < 1e-12            # |exp(i pi) - 1| = 2


@pytest.mark.parametrize("kind,n", [("torus", 1), ("torus", 2), ("torus", 3), ("su2", 3)])
def test_point_at_distance_has_that_distance(kind, n):
    group = make_group(kind, n)
    for d in (0.0, 0.05 * 2.0 * np.pi, 0.3, 1.0, np.pi / 2, 3.0, np.pi):
        assert abs(distance_to_identity(group, point_at_distance(group, d)) - d) < 1e-12
    for d in (-0.3, np.pi + 1e-9, 7.0, np.nan):
        with pytest.raises(ConfigurationError):
            point_at_distance(group, d)


def test_distance_symmetry_on_grid(torus2, su2):
    for group, band in ((torus2, 2), (su2, 1.5)):
        grid = build_grid(group, band)
        d1 = distance_to_identity(group, grid.points)
        inv = np.stack([inverse(group, p) for p in grid.points])
        d2 = distance_to_identity(group, inv)
        assert np.max(np.abs(d1 - d2)) < 1e-10


@pytest.mark.parametrize("kind,n,band", [("torus", 1, 512), ("torus", 2, 40), ("torus", 3, 8), ("su2", 3, 7.5), ("su2", 3, 16)])
def test_grid_distance_from_axes_equals_pointwise(kind, n, band):
    group = make_group(kind, n)
    grid = build_grid(group, band)
    assert np.array_equal(grid_distance_to_identity(grid), distance_to_identity(group, grid.points))


@pytest.mark.parametrize("kind,n,band", [("torus", 1, 64), ("torus", 2, 20), ("torus", 3, 8), ("su2", 3, 7.5), ("su2", 3, 17.5)])
def test_points_and_q1_from_axes_equal_meshgrid(kind, n, band):
    # the grid keeps only its axes; the derived points and q1 must be bit
    # for bit what a stored meshgrid point list gave
    group = make_group(kind, n)
    grid = build_grid(group, band)
    mesh = np.meshgrid(*grid.axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=-1)
    assert points.shape == (len(grid), n)
    assert np.array_equal(grid.points, points)
    assert np.array_equal(grid_q1_weight(grid), q1_weight(group, points))


@pytest.mark.parametrize("n", [*range(1, 301), 511, 512, 1023, 1025])
def test_leggauss_equals_numpy_polynomial(n):
    # the library's Gauss-Legendre rule runs numpy's leggauss step for step
    # without importing numpy.polynomial: the same bytes, shared read-only
    nodes, weights = _leggauss(n)
    expected = np.polynomial.legendre.leggauss(n)
    assert nodes.tobytes() == expected[0].tobytes() and weights.tobytes() == expected[1].tobytes()
    assert not nodes.flags.writeable and not weights.flags.writeable


@pytest.mark.parametrize("spin,bound", [(15.5, 1.25), (31.5, 1.1)])
def test_su2_grid_distance_and_q1_hold_one_grid_sized_array(su2, spin, bound):
    # Re a = cos(beta/2) Re e^{-i(alpha+gamma)/2} from the per-axis factors,
    # clipped and mapped in place: tracemalloc read 1.19 / 1.05 N x 8 bytes
    # at spin 15.5 / 31.5 for both (3.00 with the complex a of every node)
    grid = build_grid(su2, spin)
    for func in (grid_distance_to_identity, grid_q1_weight):
        tracemalloc.start()
        try:
            values = func(grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert values.shape == (len(grid),)
        assert peak <= bound * 8 * len(grid), f"{func.__name__}: {peak / (8 * len(grid)):.2f} N x 8 bytes"


def test_q1_vanishes_only_at_identity(torus1, su2):
    for group, band in ((torus1, 4), (su2, 1.5)):
        grid = build_grid(group, band)
        q = q1_weight(group, grid.points)
        dist = distance_to_identity(group, grid.points)
        at_identity = dist < 1e-12
        assert np.all(q[at_identity] < 1e-12)
        assert np.all(q[~at_identity] > 1e-12)
        assert q1_weight(group, identity(group)) < 1e-15


@pytest.mark.parametrize("kind,n,cutoff", [("torus", 1, 8.0), ("su2", 3, spin_cutoff(3))])
def test_haar_invariance(kind, n, cutoff):
    # translation invariance of the discrete Haar integral on band-limited f
    group = make_group(kind, n)
    dual = enumerate_dual(group, cutoff)
    grid = build_grid(group, dual.max_band)
    rng = np.random.default_rng(7)
    coeffs = random_coefficients(dual, rng)
    base = np.sum(grid.weights * inverse_evaluate(coeffs, grid.points))
    for _ in range(3):
        z = random_point(group, rng)
        translated = multiply(group, z, grid.points)
        moved = np.sum(grid.weights * inverse_evaluate(coeffs, translated))
        assert abs(moved - base) < 1e-9


@given(coords=st.lists(st.floats(-10, 10, allow_nan=False), min_size=2, max_size=2))
@settings(max_examples=40, deadline=None)
def test_torus_canonicalize_ranges(coords):
    group = make_group("torus", 2)
    out = canonicalize(group, np.array(coords))
    assert np.all(out >= 0.0) and np.all(out < 1.0)


@given(
    raw=st.lists(st.floats(-1, 1, allow_nan=False).filter(lambda v: abs(v) > 1e-6), min_size=4, max_size=4)
)
@settings(max_examples=60, deadline=None)
def test_su2_pair_euler_roundtrip(raw):
    v = np.array(raw)
    v /= np.linalg.norm(v)
    a, b = v[0] + 1j * v[1], v[2] + 1j * v[3]
    e = euler_from_pair(np.asarray(a), np.asarray(b))
    assert 0 <= e[0] < 2 * np.pi and 0 <= e[1] <= np.pi and 0 <= e[2] < 4 * np.pi
    a2, b2 = su2_pair(e)
    assert abs(a - a2) < 1e-12 and abs(b - b2) < 1e-12
