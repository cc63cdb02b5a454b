import os
import subprocess
import sys
import textwrap

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
from posmaps.commutant import _probe_images, _probe_inputs, _system

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


def near_cut_maps():
    # perturbed pinchings c (P + 10^(-k/2) G) whose smallest kept singular
    # value sits near the rank cut, as (n, k, c, map)
    rng = make_rng(0)
    for n in (3, 4, 6, 8):
        pin = pinching(half_rank_projector(rng, n)).superop
        g = (rng.standard_normal((n * n, n * n))
             + 1j * rng.standard_normal((n * n, n * n)))
        g /= np.linalg.norm(g, 2)
        for k in range(4, 32):
            for c in (1.0, 1e-8, 1e6):
                yield n, k, c, MapRep(n=n, superop=c * (pin + 10 ** (-k / 2) * g),
                                      name="near_cut")


def near_cut_map(n, k, c=1.0):
    return next(phi for m, j, s, phi in near_cut_maps() if (m, j, s) == (n, k, c))


def count_nullspace_calls(monkeypatch):
    # the probe route solves one system; the fallback solves a second one
    calls = []
    solve = commutant.nullspace
    monkeypatch.setattr(commutant, "nullspace",
                        lambda m: calls.append(m.shape) or solve(m))
    return calls


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
        other, _ = nullspace(np.vstack(blocks))
        res = commutant_of_range(phi)
        assert other.shape[1] == res.dim == 1
        proj = res.basis @ res.basis.conj().T
        assert np.abs(other @ other.conj().T - proj).max() <= 1e-10

    @pytest.mark.parametrize(
        "build,route",
        [(lambda: breuer_hall(u0(4)), "irreducible"), (lambda: trace_map(3), "probe"),
         (lambda: transpose_map(3), "irreducible"), (lambda: pinch_map(2), "probe"),
         (lambda: near_cut_map(4, 16), "fallback")],
        ids=["breuer_hall_4", "trace_3", "transpose_3", "pinch_2", "near_cut_4_16"])
    def test_basis_matches_stacked_system(self, build, route, monkeypatch):
        # the broadcast fill over the matrix-unit images is the vstack of
        # the per-unit kron blocks, entry for entry
        phi = build()
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
        full, _ = nullspace(stacked)
        calls = count_nullspace_calls(monkeypatch)
        res = commutant_of_range(phi)
        assert len(calls) == (2 if route == "fallback" else 1)
        if route == "fallback":
            # the bounds cannot certify the probe: the full system decides,
            # with the same SVD and the same basis
            assert np.array_equal(res.basis, full)
        else:
            # the certified probe nullspace spans the full system's
            assert res.dim == full.shape[1]
            proj = res.basis @ res.basis.conj().T
            assert np.abs(proj - full @ full.conj().T).max() <= 1e-10
        if route == "irreducible":
            vi = np.eye(n).ravel() / np.sqrt(n)
            assert res.dim == 1
            assert abs(abs(np.vdot(vi, res.basis[:, 0])) - 1.0) <= 1e-12

    @pytest.mark.parametrize("name", list(TESTED_MAPS))
    def test_probe_contains_full_commutant(self, name, monkeypatch):
        # the probe's few range elements commute with at least the true
        # commutant; on every map here the bounds also certify that they
        # pin down its dimension, so the full system is never solved
        phi = TESTED_MAPS[name]()
        n = phi.n
        probe, _ = nullspace(_system(_probe_images(phi), n))
        full, _ = nullspace(_system(unit_images(phi), n))
        calls = count_nullspace_calls(monkeypatch)
        assert probe.shape[1] == full.shape[1] == commutant_of_range(phi).dim
        assert calls == [(4 * n * n, n * n)]
        assert np.abs(probe @ (probe.conj().T @ full) - full).max() <= 1e-10

    def test_apply_budget(self, monkeypatch):
        # the probe applies the map PROBE_IMAGES times, and its bounds read
        # the superop, with no further apply
        bh, tr = breuer_hall(u0(8)), trace_map(8)
        calls = []
        apply = MapRep.apply
        monkeypatch.setattr(MapRep, "apply",
                            lambda self, x: calls.append(self.n) or apply(self, x))
        assert commutant_of_range(bh).dim == 1
        assert len(calls) <= 4
        calls.clear()
        assert commutant_of_range(tr).dim == 64
        assert 1 <= len(calls) <= 4

    def test_near_cut_maps_keep_identity(self, monkeypatch):
        # a perturbed pinching whose smallest kept singular value sits
        # just above the rank cut: its null vectors drift from vec(I) by
        # about eps / (s / s0), far beyond a fixed 1e-8.  Whichever route
        # decides, the dimension is the full system's, and both routes run
        solve = commutant.nullspace
        calls = count_nullspace_calls(monkeypatch)
        routes = set()
        for n, k, c, phi in near_cut_maps():
            calls.clear()
            res = commutant_of_range(phi)
            routes.add(len(calls))
            assert res.contains_identity
            full, _ = solve(_system(unit_images(phi), n))
            assert res.dim == full.shape[1], (n, k, c)
        assert routes == {1, 2}

    def test_certified_route_builds_only_the_probe(self, monkeypatch):
        # a reducible map: the bounds certify the probe's two-dimensional
        # nullspace, so no system with more than 4 n^2 rows is built
        n = 8
        rows = []
        build = commutant._system
        monkeypatch.setattr(commutant, "_system",
                            lambda images, n: rows.append(images.shape[0] * n * n)
                            or build(images, n))
        phi = pinching(half_rank_projector(make_rng(3), n))
        assert commutant_of_range(phi).dim == 2
        assert rows and max(rows) <= 4 * n * n

    def test_probe_blind_part_falls_back(self):
        # Phi(X) = tr(X) C + f(X) B, with f(H_k) = 0 on the probe inputs:
        # the probe sees only C, whose commutant is the diagonal algebra,
        # while B leaves only the scalars.  The lower bound must refuse the
        # probe's n null vectors
        n = 4
        rng = make_rng(9)
        c = np.diag(np.arange(1.0, n + 1))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        f = nullspace(_probe_inputs(n).reshape(-1, n * n))[0][:, 0]
        phi = map_from_action(
            n, lambda x: np.trace(x) * c + (f @ x.ravel()) * b, "probe_blind")
        assert nullspace(_system(_probe_images(phi), n))[0].shape[1] == n
        assert nullspace(_system(unit_images(phi), n))[0].shape[1] == 1
        assert commutant_of_range(phi).dim == 1

    def test_near_scalar_map_falls_back(self, monkeypatch):
        # trace + 1e-6 pinching: rank ||S||_F, about 3e-15, sits below the
        # worst-case rounding of the probe images, n^2 eps ||Phi||_F, so the
        # bounds refuse the probe and the full system decides
        n = 4
        pin = pinching(half_rank_projector(make_rng(4), n)).superop
        phi = MapRep(n=n, superop=trace_map(n).superop + 1e-6 * pin,
                     name="near_scalar")
        full, _ = nullspace(_system(unit_images(phi), n))
        calls = count_nullspace_calls(monkeypatch)
        assert commutant_of_range(phi).dim == full.shape[1]
        assert len(calls) == 2

    def test_zero_probe_certifies_only_a_zero_system(self, monkeypatch):
        # a probe that returns zero images has the whole space as nullspace;
        # that certifies only when every unit image is a multiple of I
        monkeypatch.setattr(commutant, "_probe_images",
                            lambda phi: np.zeros((4, phi.n, phi.n), complex))
        assert commutant_of_range(robertson_map()).dim == 1
        assert commutant_of_range(trace_map(3)).dim == 9

    def test_pinching_n14_peak_memory(self):
        # the pinching by a rank-7 projector at n = 14: the full system
        # alone is 38416 x 196 complex entries (115 MiB) and its QR copies
        # it; the certified probe route stays far below that
        script = textwrap.dedent("""
            import resource
            import numpy as np
            from posmaps import (commutant_of_range, make_rng, map_from_action,
                                 random_haar_unitary)
            n = 14
            v = random_haar_unitary(make_rng(5), n)[:, :7]
            p = v @ v.conj().T
            q = np.eye(n) - p
            phi = map_from_action(n, lambda x: p @ x @ p + q @ x @ q, "pinching")
            base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            assert commutant_of_range(phi).dim == 2
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            print((peak - base) / 1024)
        """)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        out = subprocess.run([sys.executable, "-c", script], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert float(out.stdout) < 100

    def test_identity_missing_raises(self, monkeypatch):
        rng = make_rng(4)
        # the random basis fails the lower bound, so the fallback runs
        # and gets a random basis too
        monkeypatch.setattr(
            commutant, "nullspace",
            lambda m: (random_unit_vector(rng, m.shape[1])[:, None],
                       np.ones(m.shape[1])))
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
