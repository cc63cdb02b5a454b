import tracemalloc

import numpy as np
import pytest

from posmaps import (
    BadDimension,
    DimensionMismatch,
    DimensionTooSmall,
    MapRep,
    NotAntisymmetricUnitary,
    OddDimension,
    breuer_hall,
    choi,
    cli,
    make_rng,
    map_from_action,
    map_from_choi,
    posmap,
    positivity_sample_test,
    random_antisymmetric_unitary,
    random_unit_vector,
    reduction_map,
    robertson_map,
    superop_from_choi,
    trace_map,
    transpose_map,
    u0,
    unvec,
    vec,
)

from oracles import (apply_via_choi, identity_map, positivity_sample_one_batch,
                     robertson_block_form)


def proj(x):
    x = np.asarray(x, dtype=complex)
    x = x / np.linalg.norm(x)
    return np.outer(x, x.conj())


class TestVec:
    def test_row_major_convention(self):
        a = np.arange(4).reshape(2, 2).astype(complex)
        assert np.array_equal(vec(a), np.array([0, 1, 2, 3], dtype=complex))

    def test_projector_is_kron(self):
        x = np.array([1.0, 2.0j, -1.0])
        assert np.allclose(vec(np.outer(x, x.conj())), np.kron(x, x.conj()))

    def test_roundtrip(self):
        rng = make_rng(0)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.array_equal(unvec(vec(a)), a)

    def test_unvec_rejects_nonsquare_length(self):
        with pytest.raises(DimensionMismatch):
            unvec(np.zeros(5))
        with pytest.raises(DimensionMismatch):
            unvec(np.zeros((3, 5)))

    def test_unvec_of_rows(self):
        rng = make_rng(3)
        a = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
        assert np.array_equal(unvec(np.array([vec(m) for m in a])), a)


class TestMapRep:
    def test_apply_matches_action(self):
        phi = transpose_map(3)
        rng = make_rng(1)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.allclose(phi.apply(x), x.T)

    def test_shape_validation(self):
        with pytest.raises(DimensionMismatch):
            MapRep(2, np.zeros((3, 4)), "bad")
        with pytest.raises(BadDimension):
            MapRep(0, np.zeros((0, 0)), "bad")

    def test_stack_matches_single_bits(self):
        # every matrix of a stack gets the bits of superop @ vec(X)
        rng = make_rng(2)
        for phi in (transpose_map(3), breuer_hall(random_antisymmetric_unitary(rng, 6))):
            n = phi.n
            xs = rng.standard_normal((5, n, n)) + 1j * rng.standard_normal((5, n, n))
            out = phi.apply(xs)
            assert out.shape == xs.shape
            for x, y in zip(xs, out):
                assert (phi.apply(x).tobytes() == y.tobytes()
                        == (phi.superop @ vec(x)).tobytes())

    def test_apply_shape_validation(self):
        phi = transpose_map(3)
        for bad in (np.zeros((4, 4)), np.zeros((2, 4, 4)), np.zeros((2, 3, 4)),
                    np.zeros((2, 2, 3, 3)), np.zeros(9)):
            with pytest.raises(DimensionMismatch):
                phi.apply(bad)

    def test_map_from_action_identity(self):
        phi = map_from_action(3, lambda x: x, "id")
        assert np.allclose(phi.superop, np.eye(9))
        assert np.allclose(identity_map(3).superop, np.eye(9))


class TestTranspose:
    def test_matrix_unit(self):
        phi = transpose_map(2)
        e01 = np.zeros((2, 2), dtype=complex)
        e01[0, 1] = 1
        assert np.allclose(phi.apply(e01), e01.T)

    def test_kernel_condition(self):
        # tau(P_x) y = 0 exactly when y is orthogonal to conj(x)
        phi = transpose_map(2)
        x = np.array([1.0, 1.0j]) / np.sqrt(2)
        good = np.array([1.0, 1.0j]) / np.sqrt(2)
        bad = np.array([1.0, 0.0])
        assert np.linalg.norm(phi.apply(proj(x)) @ good) <= 1e-14
        assert np.linalg.norm(phi.apply(proj(x)) @ bad) > 0.1

    def test_min_dim(self):
        with pytest.raises(BadDimension):
            transpose_map(1)


class TestReduction:
    def test_identity_fixed(self):
        phi = reduction_map(2)
        assert np.allclose(phi.apply(np.eye(2)), np.eye(2))
        assert np.allclose(reduction_map(3).apply(np.eye(3)), 2 * np.eye(3))

    def test_kernel_is_state_itself(self):
        phi = reduction_map(3)
        x = np.array([1.0, -1.0j, 0.5])
        x /= np.linalg.norm(x)
        out = phi.apply(proj(x))
        assert np.linalg.norm(out @ x) <= 1e-14
        w = np.linalg.eigvalsh(out)
        assert abs(w[0]) <= 1e-14 and w[1] > 0.5

    def test_trace_map(self):
        phi = trace_map(3)
        rng = make_rng(2)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.allclose(phi.apply(a), np.trace(a) * np.eye(3) / 3)


class TestRobertson:
    def test_unital(self):
        assert np.allclose(robertson_map().apply(np.eye(4)), np.eye(4), atol=1e-14)

    def test_basis_state_image(self):
        out = robertson_map().apply(proj([1, 0, 0, 0]))
        assert np.allclose(out, np.diag([0, 0, 0.5, 0.5]), atol=1e-14)

    def test_equals_breuer_hall_at_u0(self):
        assert np.array_equal(robertson_map().superop, breuer_hall(u0(4)).superop)
        assert robertson_map().name == "robertson"

    def test_state_image_formula(self):
        # Phi0(P_x) = (I - P_x - P_{U0 conj(x)}) / 2
        phi = robertson_map()
        m = u0(4).matrix
        rng = make_rng(3)
        for _ in range(20):
            x = random_unit_vector(rng, 4)
            expected = (np.eye(4) - proj(x) - proj(m @ x.conj())) / 2
            assert np.abs(phi.apply(proj(x)) - expected).max() <= 1e-12

    def test_block_form_identity(self):
        assert np.allclose(robertson_block_form(np.eye(4)), np.eye(4), atol=1e-14)

    def test_block_form_matches_apply(self):
        phi = robertson_map()
        rng = make_rng(4)
        for _ in range(100):
            x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            assert np.abs(robertson_block_form(x) - phi.apply(x)).max() <= 1e-12

    def test_block_form_requires_4x4(self):
        with pytest.raises(BadDimension):
            robertson_block_form(np.eye(3))


class TestBreuerHall:
    def test_unital_and_trace_preserving(self):
        rng = make_rng(5)
        for n in (4, 6, 8):
            phi = breuer_hall(random_antisymmetric_unitary(rng, n))
            assert np.abs(phi.apply(np.eye(n)) - np.eye(n)).max() <= 1e-12
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            assert abs(np.trace(phi.apply(a)) - np.trace(a)) <= 1e-10

    def test_preserves_hermiticity(self):
        rng = make_rng(6)
        phi = breuer_hall(random_antisymmetric_unitary(rng, 6))
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        h = a + a.conj().T
        out = phi.apply(h)
        assert np.abs(out - out.conj().T).max() <= 1e-12

    def test_state_image_spectrum(self):
        # Phi_U(P_x) has eigenvalues {0, 0, 1/(n-2) repeated}
        rng = make_rng(7)
        n = 6
        u = random_antisymmetric_unitary(rng, n)
        phi = breuer_hall(u)
        x = random_unit_vector(rng, n)
        w = np.linalg.eigvalsh(phi.apply(proj(x)))
        assert np.allclose(w[:2], 0, atol=1e-12)
        assert np.allclose(w[2:], 1 / (n - 2), atol=1e-12)
        # the two kernel directions are x and U conj(x)
        out = phi.apply(proj(x))
        assert np.linalg.norm(out @ x) <= 1e-12
        assert np.linalg.norm(out @ (u.matrix @ x.conj())) <= 1e-12

    def test_partner_always_orthogonal(self):
        # <x | U conj(x)> vanishes identically for antisymmetric U
        rng = make_rng(8)
        u = random_antisymmetric_unitary(rng, 8)
        for _ in range(50):
            x = random_unit_vector(rng, 8)
            assert abs(np.vdot(x, u.matrix @ x.conj())) <= 1e-14

    def test_accepts_raw_matrix(self):
        phi = breuer_hall(u0(4).matrix)
        assert np.array_equal(phi.superop, robertson_map().superop)
        assert phi.name == "breuer_hall_4"

    def test_rejections(self):
        with pytest.raises(DimensionTooSmall):
            breuer_hall(u0(2))
        with pytest.raises(OddDimension):
            breuer_hall(np.eye(3))
        with pytest.raises(NotAntisymmetricUnitary):
            breuer_hall(np.eye(4))


class TestChoi:
    def test_identity_map_choi(self):
        # sum_ij e_ij (x) e_ij, a rank-one matrix of trace n
        c = choi(identity_map(2))
        expected = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                eij = np.zeros((2, 2), dtype=complex)
                eij[i, j] = 1
                expected += np.kron(eij, eij)
        assert np.array_equal(c, expected)

    def test_transpose_choi_is_swap(self):
        c = choi(transpose_map(2))
        swap = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                swap[2 * i + j, 2 * j + i] = 1
        assert np.allclose(c, swap)

    def test_robertson_choi_not_positive(self):
        w = np.linalg.eigvalsh(choi(robertson_map()))
        assert abs(w[0] - (-1.0)) <= 1e-12

    def test_roundtrip(self):
        rng = make_rng(9)
        for n in (2, 3, 4):
            s = rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal((n * n, n * n))
            phi = MapRep(n, s, "raw")
            back = superop_from_choi(choi(phi))
            assert np.array_equal(back, s)
            assert np.array_equal(map_from_choi(choi(phi), "raw").superop, s)

    def test_apply_via_choi(self):
        rng = make_rng(10)
        phi = breuer_hall(random_antisymmetric_unitary(rng, 4))
        c = choi(phi)
        for _ in range(100):
            x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            assert np.abs(apply_via_choi(c, x) - phi.apply(x)).max() <= 1e-12

    def test_choi_rejects_bad_shape(self):
        with pytest.raises(DimensionMismatch):
            superop_from_choi(np.zeros((3, 3)))


class TestPositivitySample:
    def test_identity_map_nonnegative(self):
        res = positivity_sample_test(identity_map(3), trials=1000, seed=0)
        assert res.min_value >= -1e-14
        assert res.trials == 1000

    def test_breuer_hall_nonnegative(self):
        rng = make_rng(11)
        phi = breuer_hall(random_antisymmetric_unitary(rng, 4))
        res = positivity_sample_test(phi, trials=10_000, seed=1)
        assert res.min_value >= -1e-10

    def test_negated_map_caught_fast(self):
        neg = map_from_action(3, lambda x: -x, "negate")
        res = positivity_sample_test(neg, trials=10, seed=2)
        assert res.min_value < -1e-10
        # the witness pair is returned and reproduces the reported value
        px = proj(res.x)
        val = float(np.real(res.y.conj() @ neg.apply(px) @ res.y))
        assert abs(val - res.min_value) <= 1e-12

    def test_deterministic(self):
        a = positivity_sample_test(robertson_map(), trials=500, seed=7)
        b = positivity_sample_test(robertson_map(), trials=500, seed=7)
        assert a.min_value == b.min_value
        assert np.array_equal(a.x, b.x)

    @pytest.mark.parametrize("trials", [
        1, 2, posmap.SAMPLE_BATCH_ROWS - 1, posmap.SAMPLE_BATCH_ROWS,
        posmap.SAMPLE_BATCH_ROWS + 1, 10_000])
    def test_batches_match_one_batch(self, trials):
        phi = breuer_hall(random_antisymmetric_unitary(make_rng(3), 6))
        xs, ys, vals = positivity_sample_one_batch(phi, trials, seed=4)
        assert np.array_equal(posmap._sample_values(phi, xs, ys), vals)
        res = positivity_sample_test(phi, trials, seed=4)
        k = int(np.argmin(vals))
        assert res.min_value == vals[k]
        assert np.array_equal(res.x, xs[k]) and np.array_equal(res.y, ys[k])

    def test_peak_below_one_full_batch(self):
        # one batch of all 10,000 pairs held three 10,000 x n^2 complex
        # arrays (19.4 MB at n = 6); the peak now stays under one of them,
        # and under what the CLI's size guard counts
        n, trials = 6, 10_000
        phi = breuer_hall(random_antisymmetric_unitary(make_rng(3), n))
        tracemalloc.start()
        try:
            positivity_sample_test(phi, trials, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * trials * n * n
        assert peak <= cli._positivity_bytes(n) - cli._superop_bytes(n)
