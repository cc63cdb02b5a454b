import numpy as np
import pytest

from posmaps import (
    InconsistentResult,
    MapRep,
    breuer_hall,
    commutant_of_range,
    is_irreducible,
    make_rng,
    map_from_action,
    nullspace,
    random_antisymmetric_unitary,
    random_haar_unitary,
    random_unit_vector,
    robertson_map,
    trace_map,
    transpose_map,
    u0,
    unvec,
)
from posmaps import commutant
from posmaps.commutant import _probe_images, _system

from oracles import identity_map


def pinch_map(n):
    # range is the diagonal algebra, whose commutant is again the diagonal
    # algebra: dimension n, so never irreducible for n >= 2
    return map_from_action(n, lambda x: np.diag(np.diag(x)), f"pinch_{n}")


def pinching(p):
    # X -> PXP + QXQ: the range is the block algebra of P and Q = I - P,
    # whose commutant span{P, Q} is two-dimensional
    q = np.eye(p.shape[0]) - p
    return map_from_action(p.shape[0], lambda x: p @ x @ p + q @ x @ q,
                           f"pinching_{p.shape[0]}")


def half_rank_projector(rng, n):
    v = random_haar_unitary(rng, n)[:, :n // 2]
    return v @ v.conj().T


def conjugated(phi, w):
    # Psi(X) = W Phi(W^dag X W) W^dag
    return map_from_action(
        phi.n, lambda x: w @ phi.apply(w.conj().T @ x @ w) @ w.conj().T, "conj")


def unit_images(phi):
    # Phi(E_ij) in row-major unit order, read off the superop's columns
    n = phi.n
    return phi.superop.T.reshape(n * n, n, n)


def _random_bh(n):
    return breuer_hall(random_antisymmetric_unitary(make_rng(n), n))


# every map the commutant tests build, by name
TESTED_MAPS = {
    "identity_3": lambda: identity_map(3),
    "trace_3": lambda: trace_map(3),
    "trace_4": lambda: trace_map(4),
    "transpose_3": lambda: transpose_map(3),
    "robertson": robertson_map,
    "breuer_hall_u0_4": lambda: breuer_hall(u0(4)),
    "breuer_hall_random_4": lambda: _random_bh(4),
    "breuer_hall_random_6": lambda: _random_bh(6),
    "breuer_hall_random_8": lambda: _random_bh(8),
    "pinch_2": lambda: pinch_map(2),
    "pinch_4": lambda: pinch_map(4),
    "pinching_8": lambda: pinching(half_rank_projector(make_rng(3), 8)),
    "conj_robertson": lambda: conjugated(
        robertson_map(), random_haar_unitary(make_rng(2), 4)),
    "conj_pinch_2": lambda: conjugated(
        pinch_map(2), random_haar_unitary(make_rng(2), 2)),
}


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

    @pytest.mark.parametrize(
        "phi,fallback",
        [(breuer_hall(u0(4)), False), (trace_map(3), True),
         (transpose_map(3), False), (pinch_map(2), True)],
        ids=["breuer_hall_4", "trace_3", "transpose_3", "pinch_2"])
    def test_basis_matches_stacked_system(self, phi, fallback):
        # the broadcast fill over the matrix-unit images is the vstack of
        # the per-unit kron blocks, entry for entry
        n = phi.n
        eye = np.eye(n, dtype=np.complex128)
        blocks = []
        for i in range(n):
            for j in range(n):
                e = np.zeros((n, n), dtype=np.complex128)
                e[i, j] = 1.0
                y = phi.apply(e)
                blocks.append(np.kron(y, eye) - np.kron(eye, y.T))
        stacked = np.vstack(blocks)
        assert np.array_equal(_system(unit_images(phi), n), stacked)
        res = commutant_of_range(phi)
        if fallback:
            # the probe cannot decide a reducible map: the full system does,
            # with the same SVD and the same basis
            assert np.array_equal(res.basis, nullspace(stacked))
        else:
            vi = np.eye(n).ravel() / np.sqrt(n)
            assert res.dim == 1
            assert abs(abs(np.vdot(vi, res.basis[:, 0])) - 1.0) <= 1e-12

    @pytest.mark.parametrize("name", list(TESTED_MAPS))
    def test_probe_contains_full_commutant(self, name):
        # the probe's few range elements commute with at least the true
        # commutant; on every map here they also pin down its dimension
        phi = TESTED_MAPS[name]()
        n = phi.n
        probe = nullspace(_system(_probe_images(phi), n))
        full = nullspace(_system(unit_images(phi), n))
        assert probe.shape[1] == full.shape[1] == commutant_of_range(phi).dim
        assert np.abs(probe @ (probe.conj().T @ full) - full).max() <= 1e-10

    def test_apply_budget(self, monkeypatch):
        # the probe applies the map PROBE_IMAGES times; the fallback reads
        # the superop, so a reducible map is still applied at least once
        bh, tr = breuer_hall(u0(8)), trace_map(8)
        calls = []
        apply = MapRep.apply
        monkeypatch.setattr(MapRep, "apply",
                            lambda self, x: calls.append(self.n) or apply(self, x))
        assert commutant_of_range(bh).dim == 1
        assert len(calls) <= 4
        calls.clear()
        assert commutant_of_range(tr).dim == 64
        assert len(calls) >= 1

    def test_near_cut_maps_keep_identity(self):
        # a perturbed pinching whose smallest kept singular value sits
        # just above the rank cut: its null vectors drift from vec(I) by
        # about eps / (s / s0), far beyond a fixed 1e-8
        rng = make_rng(0)
        for n in (3, 4, 6, 8):
            pin = pinching(half_rank_projector(rng, n)).superop
            g = (rng.standard_normal((n * n, n * n))
                 + 1j * rng.standard_normal((n * n, n * n)))
            g /= np.linalg.norm(g, 2)
            for k in range(4, 32):
                for c in (1.0, 1e-8, 1e6):
                    phi = MapRep(n=n, superop=c * (pin + 10 ** (-k / 2) * g),
                                 name="near_cut")
                    assert commutant_of_range(phi).contains_identity

    def test_identity_missing_raises(self, monkeypatch):
        rng = make_rng(4)
        monkeypatch.setattr(
            commutant, "nullspace",
            lambda m: random_unit_vector(rng, m.shape[1])[:, None])
        with pytest.raises(InconsistentResult, match="identity missing"):
            commutant_of_range(robertson_map())

    def test_breuer_hall_random_irreducible(self):
        rng = make_rng(1)
        for n in (4, 6):
            phi = breuer_hall(random_antisymmetric_unitary(rng, n))
            assert is_irreducible(phi)

    def test_breuer_hall_n12_irreducible(self):
        # the probe decides from a 576 x 144 system; the matrix-unit
        # system would have 20736 rows
        assert commutant_of_range(breuer_hall(u0(12))).dim == 1

    def test_breuer_hall_n20_irreducible(self):
        # the matrix-unit system alone would take 1 GB at n = 20
        assert commutant_of_range(breuer_hall(u0(20))).dim == 1

    def test_verdict_covariant_under_conjugation(self):
        # Psi(X) = W Phi(W^dag X W) W^dag has the same commutant dimension
        rng = make_rng(2)
        phi = robertson_map()
        psi = conjugated(phi, random_haar_unitary(rng, 4))
        assert is_irreducible(psi) == is_irreducible(phi) is True

        pin = pinch_map(2)
        pin_c = conjugated(pin, random_haar_unitary(rng, 2))
        assert commutant_of_range(pin_c).dim == commutant_of_range(pin).dim == 2

    def test_basis_orthonormal(self):
        res = commutant_of_range(trace_map(3))
        g = res.basis.conj().T @ res.basis
        assert np.abs(g - np.eye(res.dim)).max() <= 1e-12
