import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import irrep_labels, irrep_matrices
from liefourier import enumerate_dual, make_group
from liefourier.dual import little_d, representation_stacks, spin_cutoff, wigner_matrix
from liefourier.errors import ConfigurationError, PreconditionError
from liefourier.groups import build_grid, distance_to_identity, identity, multiply, random_point, su2_matrix
from liefourier.transform import _Su2Plan


def test_enumerate_torus_sqrt2(torus1):
    dual = enumerate_dual(torus1, np.sqrt(2.0))
    assert irrep_labels(dual) == [(0,), (-1,), (1,)]
    assert dual.eigenvalues[0] == 1.0
    assert abs(dual.eigenvalues[1] - np.sqrt(2)) < 1e-15


def test_enumerate_su2_cutoff2(su2):
    dual = enumerate_dual(su2, 2.0)
    assert irrep_labels(dual) == [0.0, 0.5, 1.0]
    assert dual.dims.tolist() == [1, 2, 3]
    assert abs(dual.eigenvalues[2] - np.sqrt(3)) < 1e-15


def test_enumerate_su2_enforces_max_spin(su2):
    # enumeration only; no grid or table at these spins is built
    assert enumerate_dual(su2, spin_cutoff(64)).max_band == 64.0
    with pytest.raises(ConfigurationError):
        enumerate_dual(su2, spin_cutoff(64.5))


def test_enumerate_torus_label_ceiling(monkeypatch):
    # the advertised sizes reach the norm box's np.ix_ (stubbed, so nothing
    # is allocated); T^3 at lam 512 is refused with its byte estimate first
    class Admitted(Exception):
        pass

    def admitted(*args, **kwargs):
        raise Admitted

    monkeypatch.setattr(np, "ix_", admitted)
    for n, lam in ((1, 512.0), (2, 256.0), (3, 40.0)):
        with pytest.raises(Admitted):
            enumerate_dual(make_group("torus", n), lam)
    with pytest.raises(ConfigurationError, match="GB"):
        enumerate_dual(make_group("torus", 3), 512.0)


def test_enumerate_torus_label_limit_is_exact(monkeypatch):
    # the half-width B with (2B + 1)^n <= 2^24 is the last admitted one, on
    # every torus and on both sides of the cutoff past which the square of a
    # cutoff is not formed (np.ix_ is stubbed, so nothing is allocated)
    class Admitted(Exception):
        pass

    def admitted(*args, **kwargs):
        raise Admitted

    monkeypatch.setattr(np, "ix_", admitted)
    for n, last in ((1, 2**23 - 1), (2, 2047), (3, 127)):
        with pytest.raises(Admitted):
            enumerate_dual(make_group("torus", n), math.sqrt(1.0 + last**2))
        for refused in (math.sqrt(1.0 + (last + 1) ** 2), 2.0**24, 2.0**24 + 2.0, 1e200):
            with pytest.raises(ConfigurationError, match="labels"):
                enumerate_dual(make_group("torus", n), refused)


def test_enumerate_rejects_nonfinite_cutoff(torus1, su2):
    for group in (torus1, su2):
        for cutoff in (np.nan, np.inf):
            with pytest.raises(PreconditionError):
                enumerate_dual(group, cutoff)


def test_trivial_irrep_present(torus2, su2):
    for group in (torus2, su2):
        dual = enumerate_dual(group, 3.0)
        assert dual.dims[0] == 1 and dual.eigenvalues[0] == 1.0


def test_sorted_and_symmetric(torus2):
    dual = enumerate_dual(torus2, 5.0)
    eigs = dual.eigenvalues.tolist()
    assert eigs == sorted(eigs)
    labels = set(irrep_labels(dual))
    assert all(tuple(-c for c in lab) in labels for lab in labels)


def test_cutoff_precondition(torus1):
    with pytest.raises(PreconditionError):
        enumerate_dual(torus1, 0.5)


def test_identity_matrix_everywhere(torus2, su2):
    for group in (torus2, su2):
        dual = enumerate_dual(group, 8.0 if group.kind == "torus" else spin_cutoff(4))
        for d, mat in zip(dual.dims, irrep_matrices(dual, identity(group))):
            assert np.max(np.abs(mat - np.eye(d))) < 1e-13


def test_spin_half_is_fundamental(su2):
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = random_point(su2, rng)
        assert np.max(np.abs(wigner_matrix(0.5, x) - su2_matrix(x))) < 1e-14


def test_unitarity(su2):
    rng = np.random.default_rng(1)
    for ell in (0.5, 3.0, 8.5, 16.0):
        for _ in range(5):
            x = random_point(su2, rng)
            mat = wigner_matrix(ell, x)
            defect = mat @ mat.conj().T - np.eye(mat.shape[0])
            assert np.max(np.abs(defect)) < 1e-11


def test_homomorphism_all_small_irreps(torus2, su2):
    rng = np.random.default_rng(2)
    for group in (torus2, su2):
        dual = enumerate_dual(group, 8.0)
        for _ in range(5):
            x = random_point(group, rng)
            y = random_point(group, rng)
            xy = multiply(group, x, y)
            for lhs, a, b in zip(*(irrep_matrices(dual, p) for p in (xy, x, y))):
                assert np.max(np.abs(lhs - a @ b)) < 1e-10


def test_character_formula(su2):
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = random_point(su2, rng)
        theta = float(distance_to_identity(su2, x))
        if not 0.1 < theta < np.pi - 0.1:
            continue
        for ell in (0.5, 1.0, 2.5, 6.0):
            expected = np.sin((2 * ell + 1) * theta) / np.sin(theta)
            assert abs(np.trace(wigner_matrix(ell, x)) - expected) < 1e-10


def test_eigenvalue_monotone_in_spin(su2):
    dual = enumerate_dual(su2, spin_cutoff(10))
    eigs = dual.eigenvalues
    assert all(a < b for a, b in zip(eigs, eigs[1:]))


def test_spin_range_guard(su2):
    rng = np.random.default_rng(4)
    x = random_point(su2, rng)
    wigner_matrix(64.0, x)  # validated boundary
    with pytest.raises(ConfigurationError):
        wigner_matrix(64.5, x)
    with pytest.raises(ConfigurationError, match="half-integer"):
        wigner_matrix(0.3, x)


@pytest.mark.parametrize("ell", [0.5, 1.0, 7.5])
def test_little_d_batched_matches_per_beta(ell):
    betas = np.linspace(0.0, np.pi, 9)
    tables = little_d(int(2 * ell), betas)
    assert tables.dtype == np.float64 and tables.flags.owndata  # not a view of a complex buffer
    for beta, table in zip(betas, tables):
        np.testing.assert_allclose(table, wigner_matrix(ell, (0.0, beta, 0.0)), rtol=0, atol=1e-13)
    if ell == 1.0:
        c, s = np.cos(betas), np.sin(betas) / np.sqrt(2.0)
        closed = np.array(
            [
                [(1 + c) / 2, -s, (1 - c) / 2],
                [s, c, -s],
                [(1 - c) / 2, s, (1 + c) / 2],
            ]
        ).transpose(2, 0, 1)
        np.testing.assert_allclose(tables, closed, rtol=0, atol=1e-14)


def test_little_d_orthogonal_at_top_spin():
    # the tables of the spin-64 plan, at its Gauss-Legendre nodes in cos(beta)
    beta = np.arccos(np.polynomial.legendre.leggauss(129)[0])
    tables = little_d(128, beta)
    assert tables.shape == (129, 129, 129) and tables.flags.owndata
    assert np.max(np.abs(tables @ tables.transpose(0, 2, 1) - np.eye(129))) < 1e-10


def wigner_d_half_pi(two_j, two_mp, two_m):
    """d^j_{m'm}(pi/2) from Wigner's sum in exact arithmetic: at beta = pi/2
    every cos/sin power is 2^(-j), so d = S sqrt(N) 2^(-j) with S a rational
    sum and N = (j+m')!(j-m')!(j+m)!(j-m)!; only the last square root rounds."""
    fact = math.factorial
    jpm, jmm = (two_j + two_m) // 2, (two_j - two_m) // 2
    jpmp, jmmp = (two_j + two_mp) // 2, (two_j - two_mp) // 2
    shift = (two_mp - two_m) // 2  # m' - m
    total = Fraction(0)
    for s in range(max(0, -shift), min(jpm, jmmp) + 1):
        term = Fraction(1, fact(jpm - s) * fact(s) * fact(shift + s) * fact(jmmp - s))
        total += -term if (shift + s) % 2 else term
    square = total**2 * fact(jpmp) * fact(jmmp) * fact(jpm) * fact(jmm) / 2**two_j
    root = math.isqrt(square.numerator * 4**200 // square.denominator) / 2**200
    return math.copysign(root, total)


@pytest.mark.parametrize("two_j", [128, 127])
def test_little_d_exact_at_top_spin(su2, two_j):
    # orthogonality and unitarity pass under a sign-convention error; exact
    # values do not.  Rows and columns run over descending m, index a <-> m = j - a.
    # little_d and the grid plan's recurrence tables, whose stored rows m' >= 0
    # hold the Nb = 129 grid's middle node pi/2, are both held to them
    full = little_d(two_j, np.pi / 2)
    grid = build_grid(su2, 64.0)
    plan = _Su2Plan(grid, enumerate_dual(su2, spin_cutoff(two_j / 2)))
    assert grid.axes[1][plan.half - 1] == np.pi / 2
    last, mid = two_j, two_j // 2
    corners = [(0, 0), (0, last), (last, 0), (last, last)]
    centre = [(mid, mid), (mid, last - mid), (last - mid, mid)]
    mirrored = [(a, a) for a in (5, 30, 50)] + [(a, last - a) for a in (5, 30, 50)]  # m' = m and m' = -m
    interior = [(60, 70), (50, 64), (70, 55), (64, 30), (45, 80), (40, 47), (20, 45)]  # |d| of 0.008 to 0.11
    stored = 0
    for a, b in corners + centre + mirrored + interior:
        u, v = two_j - 2 * a, two_j - 2 * b
        exact = wigner_d_half_pi(two_j, u, v)
        assert abs(full[a, b] - exact) < 1e-13, (a, b)
        if u > 0 or (u == 0 and v >= 0):
            s = max(abs(u), abs(v))
            [row] = np.flatnonzero((plan.uv[s % 2][plan.spans[s]] == (u, v)).all(axis=1))
            assert abs(plan.tables[s][row, (two_j - s) // 2, plan.half - 1] - exact) < 1e-13, (a, b)
            stored += 1
    assert stored == {128: 17, 127: 15}[two_j]  # of the 24 entries, those with m' > 0, or m' = 0 and m >= 0


def test_large_spin_unitary(su2):
    # the eigendecomposition route must stay stable at the validated top
    rng = np.random.default_rng(5)
    x = random_point(su2, rng)
    mat = wigner_matrix(64.0, x)
    assert np.max(np.abs(mat @ mat.conj().T - np.eye(129))) < 1e-10


def _enumerate_lexsort_oracle(group, cutoff):
    """Torus enumeration through the whole label box: every label of
    [-B, B]^n, filtered to the ball, then one lexsort by (eigenvalue, label)."""
    max_sq = cutoff * cutoff - 1.0
    bound = int(np.floor(np.sqrt(max(max_sq, 0.0))))
    grids = np.meshgrid(*[range(-bound, bound + 1)] * group.dim, indexing="ij")
    labels = np.stack([g.ravel() for g in grids], axis=-1)
    norms_sq = np.sum(labels.astype(float) ** 2, axis=-1)
    keep = norms_sq <= max_sq + 1e-12
    labels, eigenvalues = labels[keep], np.sqrt(1.0 + norms_sq[keep])
    order = np.lexsort((*labels.T[::-1], eigenvalues))  # the last key sorts first
    return labels[order], np.ones(len(order), dtype=np.int64), eigenvalues[order]


def _enumerate_oracle(group, cutoff):
    """The per-label enumeration loop: (label, dim, <xi>) per irrep, sorted
    by (eigenvalue, label)."""
    irreps = []
    if group.kind == "torus":
        max_sq = cutoff * cutoff - 1.0
        bound = int(np.floor(np.sqrt(max(max_sq, 0.0))))
        grids = np.meshgrid(*[range(-bound, bound + 1)] * group.dim, indexing="ij")
        labels = np.stack([g.ravel() for g in grids], axis=-1)
        norms_sq = np.sum(labels.astype(float) ** 2, axis=-1)
        for lab, nsq in zip(labels, norms_sq):
            if nsq <= max_sq + 1e-12:
                irreps.append((tuple(int(c) for c in lab), 1, float(np.sqrt(1.0 + nsq))))
    else:
        two_ell = 0
        while True:
            ell = two_ell / 2.0
            eig = np.sqrt(1.0 + ell * (ell + 1.0))
            if eig > cutoff + 1e-12:
                break
            irreps.append((ell, two_ell + 1, float(eig)))
            two_ell += 1
    irreps.sort(key=lambda ir: (ir[2], ir[0]))
    return irreps


_BOUNDARY_CUTOFFS = (1.0, np.sqrt(2.0), np.sqrt(5.0), np.sqrt(3.0), 7.3)


@pytest.mark.parametrize(
    "kind,n,cutoff",
    [("torus", n, c) for n in (1, 2, 3) for c in _BOUNDARY_CUTOFFS]
    + [("torus", 2, 256.0), ("torus", 3, 40.0), ("torus", 3, 64.0)]
    + [("su2", 3, c) for c in (1.0, np.sqrt(2.0), spin_cutoff(0.5), spin_cutoff(7.5), spin_cutoff(64))],
)
def test_enumerate_dual_equals_per_label_loop(kind, n, cutoff):
    group = make_group(kind, n)
    dual = enumerate_dual(group, cutoff)
    if cutoff == 64.0:  # the per-label loop is too slow here; the label-box lexsort is the oracle
        labels, dims, eigs = _enumerate_lexsort_oracle(group, cutoff)
    else:
        oracle = _enumerate_oracle(group, cutoff)
        labels, dims, eigs = (np.array(col) for col in zip(*oracle))
        if len(oracle) < 1000:  # the per-irrep view of the arrays
            assert list(zip(irrep_labels(dual), dual.dims.tolist(), dual.eigenvalues.tolist())) == oracle
    assert np.array_equal(dual.labels, labels)
    assert np.array_equal(dual.dims, dims)
    assert np.array_equal(dual.eigenvalues, eigs)
    runs = dual.runs
    assert runs[0].start == 0 and runs[-1].stop == len(dual)
    assert all(a.stop == b.start for a, b in zip(runs, runs[1:]))
    assert all(len(set(dual.dims[run])) == 1 for run in runs)
    assert len(runs) == (1 if kind == "torus" else len(dual))


_BATCH_SLICES = [("torus", 1, 9.0), ("torus", 2, 6.0), ("torus", 3, 4.0), ("su2", 3, spin_cutoff(7.5))]


@pytest.mark.parametrize("kind,n,cutoff", _BATCH_SLICES)
def test_representation_batch_equals_per_point(kind, n, cutoff):
    # one implementation per group: a (P, dim) batch and a (2, P/2, dim)
    # block of points give the per-point matrices
    group = make_group(kind, n)
    dual = enumerate_dual(group, cutoff)
    rng = np.random.default_rng(11)
    pts = np.stack([random_point(group, rng) for _ in range(6)])
    batch = representation_stacks(dual, pts)
    block = representation_stacks(dual, pts.reshape(2, 3, n))
    for k, run in enumerate(dual.runs):
        per_point = np.stack([representation_stacks(dual, p)[k] for p in pts])
        assert batch[k].shape == (6, run.stop - run.start, dual.run_dims[k], dual.run_dims[k])
        np.testing.assert_allclose(batch[k], per_point, rtol=0, atol=1e-13)
        np.testing.assert_allclose(block[k].reshape(batch[k].shape), per_point, rtol=0, atol=1e-13)
    if kind == "su2":
        for ell in dual.labels[:: max(1, len(dual) // 12)]:
            per_point = np.stack([wigner_matrix(ell, p) for p in pts])
            np.testing.assert_allclose(wigner_matrix(ell, pts), per_point, rtol=0, atol=1e-13)


def test_enumerate_torus_peak_memory():
    # no box-sized label array is made and the norm box goes before the
    # labels are laid out, so the peak stays within twice the returned arrays
    group = make_group("torus", 3)
    tracemalloc.start()
    try:
        dual = enumerate_dual(group, 32.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = dual.labels.nbytes + dual.dims.nbytes + dual.eigenvalues.nbytes
    assert peak <= 2.0 * returned, peak / returned
