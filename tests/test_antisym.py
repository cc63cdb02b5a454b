import numpy as np
import pytest

from posmaps import (
    BadDimension,
    CanonicalForm,
    NotAntisymmetricUnitary,
    OddDimension,
    canonical_decompose,
    certify_antisymmetric_unitary,
    make_rng,
    random_antisymmetric_unitary,
    u0,
)

from oracles import eigenphase_pairs

ISY = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)


def theta_block(theta):
    return np.exp(1j * theta) * ISY


class TestCertify:
    def test_u0_shapes(self):
        assert np.array_equal(u0(2).matrix, ISY)
        for n in (2, 4, 6, 8):
            u = u0(n)
            assert u.n == n
            assert np.allclose(u.matrix @ u.matrix, -np.eye(n))

    def test_u0_column_action(self):
        e = np.eye(4)
        assert np.allclose(u0(4).matrix @ e[0], -e[1])
        assert np.allclose(u0(4).matrix @ e[1], e[0])

    def test_odd_rejected(self):
        with pytest.raises(OddDimension):
            u0(5)
        with pytest.raises(OddDimension):
            certify_antisymmetric_unitary(np.zeros((3, 3)))

    def test_tiny_rejected(self):
        with pytest.raises(BadDimension):
            u0(0)

    def test_not_antisymmetric(self):
        with pytest.raises(NotAntisymmetricUnitary):
            certify_antisymmetric_unitary(np.eye(4))

    def test_not_unitary(self):
        with pytest.raises(NotAntisymmetricUnitary):
            certify_antisymmetric_unitary(2.0 * u0(4).matrix)


class TestRandomDraws:
    def test_certified_on_construction(self):
        rng = make_rng(0)
        for n in (4, 6, 8):
            for _ in range(100):
                u = random_antisymmetric_unitary(rng, n)
                m = u.matrix
                assert np.abs(m + m.T).max() <= 1e-12
                assert np.abs(m.conj().T @ m - np.eye(n)).max() <= 1e-12

    def test_deterministic(self):
        a = random_antisymmetric_unitary(make_rng(3), 6)
        b = random_antisymmetric_unitary(make_rng(3), 6)
        assert np.array_equal(a.matrix, b.matrix)


class TestCanonicalDecompose:
    def test_u0_all_phases_zero(self):
        for n in (2, 4, 6, 8):
            form = canonical_decompose(u0(n))
            assert form.n == n
            assert np.allclose(form.alphas, 0.0, atol=1e-12)
            assert np.abs(form.reconstruct() - u0(n).matrix).max() <= 1e-12

    def test_single_block_phase(self):
        # U = e^{i theta} (i sigma_y) has canonical phase exactly theta
        for theta in (0.0, 0.3, 1.1, 2.9):
            form = canonical_decompose(theta_block(theta))
            assert len(form.alphas) == 1
            assert abs(form.alphas[0] - theta) <= 1e-12

    def test_two_distinct_blocks(self):
        u = np.zeros((4, 4), dtype=complex)
        u[:2, :2] = theta_block(0.5)
        u[2:, 2:] = theta_block(2.0)
        form = canonical_decompose(u)
        assert np.allclose(form.alphas, [0.5, 2.0], atol=1e-10)

    def test_random_roundtrip(self):
        rng = make_rng(1)
        for n in (4, 6, 8):
            for _ in range(10):
                u = random_antisymmetric_unitary(rng, n)
                form = canonical_decompose(u)
                assert np.abs(form.reconstruct() - u.matrix).max() <= 1e-8
                r = form.r
                assert np.abs(r.conj().T @ r - np.eye(n)).max() <= 1e-10
                assert np.abs(r.imag).max() <= 1e-10
                a = np.asarray(form.alphas)
                assert np.all(a >= 0.0) and np.all(a < np.pi)
                assert np.all(np.diff(a) >= 0.0)

    def test_frame_property(self):
        # v from the form satisfies u = v u0 v^T with v = r diag(e^{i a/2}) blockwise
        rng = make_rng(2)
        u = random_antisymmetric_unitary(rng, 6)
        form = canonical_decompose(u)
        v = form.v
        assert np.abs(v @ u0(6).matrix @ v.T - u.matrix).max() <= 1e-8
        assert np.abs(v.conj().T @ v - np.eye(6)).max() <= 1e-8

    def test_block_diagonal_structure(self):
        form = canonical_decompose(u0(4))
        d = form.block_diagonal()
        expected = np.kron(np.diag(np.exp(1j * np.asarray(form.alphas))), ISY)
        assert np.array_equal(d, expected)

    def test_accepts_raw_matrix(self):
        form = canonical_decompose(u0(4).matrix)
        assert np.allclose(form.alphas, 0.0, atol=1e-12)

    def test_rejects_invalid_input(self):
        with pytest.raises(NotAntisymmetricUnitary):
            canonical_decompose(np.eye(4))

    def test_phase_multiset_orthogonal_covariance(self):
        # O U O^T for real orthogonal O preserves the canonical phases
        rng = make_rng(5)
        for _ in range(5):
            u = random_antisymmetric_unitary(rng, 6)
            q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
            w = certify_antisymmetric_unitary(q @ u.matrix @ q.T)
            a1 = np.sort(canonical_decompose(u).alphas)
            a2 = np.sort(canonical_decompose(w).alphas)
            assert np.abs(a1 - a2).max() <= 1e-8


class TestEigenphasePairs:
    def test_u0_4(self):
        pairs = eigenphase_pairs(u0(4))
        assert len(pairs) == 2
        for b, b2 in pairs:
            assert abs(b - np.pi / 2) <= 1e-12
            assert abs(b2 - 3 * np.pi / 2) <= 1e-12

    def test_structure_random(self):
        rng = make_rng(6)
        u = random_antisymmetric_unitary(rng, 8)
        pairs = eigenphase_pairs(u)
        assert len(pairs) == 4
        lam = np.linalg.eigvals(u.matrix)
        for b, b2 in pairs:
            assert 0 <= b < np.pi
            assert abs(b2 - (b + np.pi)) <= 1e-12
            # both members of the pair are genuine eigenvalues
            for phase in (b, b2):
                assert np.abs(lam - np.exp(1j * phase)).min() <= 1e-8

    def test_determinant_identity(self):
        # det U = prod over pairs of (-lambda_k^2)
        rng = make_rng(7)
        u = random_antisymmetric_unitary(rng, 6)
        det = np.linalg.det(u.matrix)
        prod = np.prod([-np.exp(2j * b) for b, _ in eigenphase_pairs(u)])
        assert abs(det - prod) <= 1e-8


class TestCanonicalForm:
    def test_validation(self):
        with pytest.raises(BadDimension):
            CanonicalForm(np.eye(3), np.zeros(1))
        with pytest.raises(BadDimension):
            CanonicalForm(np.eye(4), np.zeros(3))
