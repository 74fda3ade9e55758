import numpy as np
import pytest

from liefourier import enumerate_dual, evaluate_irrep, make_group
from liefourier.dual import little_d, representation_stacks, spin_cutoff, wigner_matrix
from liefourier.errors import ConfigurationError, PreconditionError
from liefourier.groups import distance_to_identity, identity, multiply, random_point, su2_matrix


def test_enumerate_torus_sqrt2(torus1):
    dual = enumerate_dual(torus1, np.sqrt(2.0))
    assert [ir.label for ir in dual.irreps] == [(0,), (-1,), (1,)]
    assert dual.irreps[0].eigenvalue == 1.0
    assert abs(dual.irreps[1].eigenvalue - np.sqrt(2)) < 1e-15


def test_enumerate_su2_cutoff2(su2):
    dual = enumerate_dual(su2, 2.0)
    assert [ir.label for ir in dual.irreps] == [0.0, 0.5, 1.0]
    assert [ir.dim for ir in dual.irreps] == [1, 2, 3]
    assert abs(dual.irreps[2].eigenvalue - np.sqrt(3)) < 1e-15


def test_enumerate_su2_enforces_max_spin(su2):
    # enumeration only; no grid or table at these spins is built
    assert enumerate_dual(su2, spin_cutoff(64)).max_band == 64.0
    with pytest.raises(ConfigurationError):
        enumerate_dual(su2, spin_cutoff(64.5))


def test_enumerate_torus_label_ceiling(monkeypatch):
    # the advertised sizes reach the label meshgrid (stubbed, so nothing is
    # allocated); T^3 at lam 512 is refused with its byte estimate first
    class Admitted(Exception):
        pass

    def admitted(*args, **kwargs):
        raise Admitted

    monkeypatch.setattr(np, "meshgrid", admitted)
    for n, lam in ((1, 512.0), (2, 256.0), (3, 40.0)):
        with pytest.raises(Admitted):
            enumerate_dual(make_group("torus", n), lam)
    with pytest.raises(ConfigurationError, match="GB"):
        enumerate_dual(make_group("torus", 3), 512.0)


def test_enumerate_rejects_nonfinite_cutoff(torus1, su2):
    for group in (torus1, su2):
        for cutoff in (np.nan, np.inf):
            with pytest.raises(PreconditionError):
                enumerate_dual(group, cutoff)


def test_trivial_irrep_present(torus2, su2):
    for group in (torus2, su2):
        dual = enumerate_dual(group, 3.0)
        first = dual.irreps[0]
        assert first.dim == 1 and first.eigenvalue == 1.0


def test_sorted_and_symmetric(torus2):
    dual = enumerate_dual(torus2, 5.0)
    eigs = [ir.eigenvalue for ir in dual.irreps]
    assert eigs == sorted(eigs)
    labels = {ir.label for ir in dual.irreps}
    assert all(tuple(-c for c in lab) in labels for lab in labels)


def test_cutoff_precondition(torus1):
    with pytest.raises(PreconditionError):
        enumerate_dual(torus1, 0.5)


def test_identity_matrix_everywhere(torus2, su2):
    for group in (torus2, su2):
        dual = enumerate_dual(group, 8.0 if group.kind == "torus" else spin_cutoff(4))
        for ir in dual.irreps:
            mat = evaluate_irrep(group, ir, identity(group))
            assert np.max(np.abs(mat - np.eye(ir.dim))) < 1e-13


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
            for ir in dual.irreps:
                lhs = evaluate_irrep(group, ir, xy)
                rhs = evaluate_irrep(group, ir, x) @ evaluate_irrep(group, ir, y)
                assert np.max(np.abs(lhs - rhs)) < 1e-10


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
    eigs = [ir.eigenvalue for ir in dual.irreps]
    assert all(a < b for a, b in zip(eigs, eigs[1:]))


def test_spin_range_guard(su2):
    rng = np.random.default_rng(4)
    x = random_point(su2, rng)
    wigner_matrix(64.0, x)  # validated boundary
    with pytest.raises(ConfigurationError):
        wigner_matrix(64.5, x)


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


def test_large_spin_unitary(su2):
    # the eigendecomposition route must stay stable at the validated top
    rng = np.random.default_rng(5)
    x = random_point(su2, rng)
    mat = wigner_matrix(64.0, x)
    assert np.max(np.abs(mat @ mat.conj().T - np.eye(129))) < 1e-10


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
    + [("torus", 2, 256.0), ("torus", 3, 40.0)]
    + [("su2", 3, c) for c in (1.0, np.sqrt(2.0), spin_cutoff(0.5), spin_cutoff(7.5), spin_cutoff(64))],
)
def test_enumerate_dual_equals_per_label_loop(kind, n, cutoff):
    group = make_group(kind, n)
    dual = enumerate_dual(group, cutoff)
    oracle = _enumerate_oracle(group, cutoff)
    labels, dims, eigs = (np.array(col) for col in zip(*oracle))
    assert np.array_equal(dual.labels, labels)
    assert np.array_equal(dual.dims, dims)
    assert np.array_equal(dual.eigenvalues, eigs)
    if len(oracle) < 1000:  # the derived per-irrep view
        assert [(ir.label, ir.dim, ir.eigenvalue) for ir in dual.irreps] == oracle
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
    for ir in dual.irreps[:: max(1, len(dual) // 12)]:
        per_point = np.stack([evaluate_irrep(group, ir, p) for p in pts])
        np.testing.assert_allclose(evaluate_irrep(group, ir, pts), per_point, rtol=0, atol=1e-13)
        if kind == "su2":
            per_point = np.stack([wigner_matrix(ir.label, p) for p in pts])
            np.testing.assert_allclose(wigner_matrix(ir.label, pts), per_point, rtol=0, atol=1e-13)


@pytest.mark.parametrize("kind,n,cutoff", _BATCH_SLICES)
def test_representation_stacks_at_one_point_equal_evaluate_irrep(kind, n, cutoff):
    group = make_group(kind, n)
    dual = enumerate_dual(group, cutoff)
    rng = np.random.default_rng(12)
    for _ in range(5):
        x = random_point(group, rng)
        stacked = np.concatenate([stack.reshape(-1) for stack in representation_stacks(dual, x)])
        single = np.concatenate([evaluate_irrep(group, ir, x).reshape(-1) for ir in dual.irreps])
        if kind == "su2" or n == 1:
            assert np.array_equal(stacked, single)
        else:
            # x.xi is one BLAS product against all labels, or a dot product
            # with one label; with two or three terms they may round apart
            np.testing.assert_allclose(stacked, single, rtol=0, atol=1e-13)
