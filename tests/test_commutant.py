import numpy as np
import pytest

from posmaps import (
    breuer_hall,
    commutant_of_range,
    identity_map,
    is_irreducible,
    make_rng,
    map_from_action,
    nullspace,
    random_antisymmetric_unitary,
    random_haar_unitary,
    robertson_map,
    trace_map,
    transpose_map,
    u0,
    unvec,
)


def pinch_map(n):
    # range is the diagonal algebra, whose commutant is again the diagonal
    # algebra: dimension n, so never irreducible for n >= 2
    return map_from_action(n, lambda x: np.diag(np.diag(x)), f"pinch_{n}")


class TestCommutant:
    def test_identity_map_irreducible(self):
        res = commutant_of_range(identity_map(3))
        assert res.dim == 1
        assert res.contains_identity
        b = res.basis[:, 0]
        vi = np.eye(3).ravel() / np.sqrt(3)
        assert abs(abs(np.vdot(vi, b)) - 1.0) <= 1e-12

    def test_trace_map_full_commutant(self):
        # range is C I, so everything commutes
        assert commutant_of_range(trace_map(3)).dim == 9
        assert commutant_of_range(trace_map(4)).dim == 16

    def test_robertson_one_dimensional(self):
        res = commutant_of_range(robertson_map())
        assert res.dim == 1
        z = unvec(res.basis[:, 0])
        off = z - np.trace(z) / 4 * np.eye(4)
        assert np.abs(off).max() <= 1e-10

    def test_pinch_reducible(self):
        res = commutant_of_range(pinch_map(2))
        assert res.dim == 2
        assert not is_irreducible(pinch_map(2))
        # every commutant element is diagonal here
        for k in range(res.dim):
            m = unvec(res.basis[:, k])
            assert np.abs(m - np.diag(np.diag(m))).max() <= 1e-10

    def test_custom_basis_invariance(self):
        # any spanning operator basis gives the same commutant as the
        # matrix units that commutant_of_range uses
        rng = make_rng(0)
        phi = robertson_map()
        eye = np.eye(4)
        blocks = []
        for _ in range(16):
            y = phi.apply(rng.standard_normal((4, 4))
                          + 1j * rng.standard_normal((4, 4)))
            blocks.append(np.kron(y, eye) - np.kron(eye, y.T))
        other = nullspace(np.vstack(blocks))
        res = commutant_of_range(phi)
        assert other.shape[1] == res.dim == 1
        proj = res.basis @ res.basis.conj().T
        assert np.abs(other @ other.conj().T - proj).max() <= 1e-10

    @pytest.mark.parametrize("phi", [breuer_hall(u0(4)), trace_map(3),
                                     transpose_map(3)],
                             ids=["breuer_hall_4", "trace_3", "transpose_3"])
    def test_basis_matches_stacked_system(self, phi):
        # the preallocated system is the vstack of the per-unit kron
        # blocks, row for row, so the SVD and its basis are bitwise the same
        n = phi.n
        eye = np.eye(n, dtype=np.complex128)
        blocks = []
        for i in range(n):
            for j in range(n):
                e = np.zeros((n, n), dtype=np.complex128)
                e[i, j] = 1.0
                y = phi.apply(e)
                blocks.append(np.kron(y, eye) - np.kron(eye, y.T))
        expect = nullspace(np.vstack(blocks))
        assert np.array_equal(commutant_of_range(phi).basis, expect)

    def test_breuer_hall_random_irreducible(self):
        rng = make_rng(1)
        for n in (4, 6):
            phi = breuer_hall(random_antisymmetric_unitary(rng, n))
            assert is_irreducible(phi)

    def test_breuer_hall_n12_irreducible(self):
        # a 20736 x 144 system; a full SVD would also build a 20736^2 U
        # (~6.9 GB) that nullspace never reads
        assert commutant_of_range(breuer_hall(u0(12))).dim == 1

    def test_verdict_covariant_under_conjugation(self):
        # Psi(X) = W Phi(W^dag X W) W^dag has the same commutant dimension
        rng = make_rng(2)
        phi = robertson_map()
        w = random_haar_unitary(rng, 4)
        psi = map_from_action(
            4, lambda x: w @ phi.apply(w.conj().T @ x @ w) @ w.conj().T, "conj")
        assert is_irreducible(psi) == is_irreducible(phi) is True

        pin = pinch_map(2)
        w2 = random_haar_unitary(rng, 2)
        pin_c = map_from_action(
            2, lambda x: w2 @ pin.apply(w2.conj().T @ x @ w2) @ w2.conj().T, "conj")
        assert commutant_of_range(pin_c).dim == commutant_of_range(pin).dim == 2

    def test_basis_orthonormal(self):
        res = commutant_of_range(trace_map(3))
        g = res.basis.conj().T @ res.basis
        assert np.abs(g - np.eye(res.dim)).max() <= 1e-12
