from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from posmaps import (
    DEFAULT_TOLS,
    DimensionMismatch,
    EmptyFamily,
    NotHermitian,
    SpanAccumulator,
    Tolerances,
    ToolkitError,
    family_rank,
    hermitian_eig,
    make_rng,
    nullspace,
    random_haar_unitary,
    random_unit_vector,
)
from posmaps.numlin import row_norms

SIGMA_Y = np.array([[0, -1j], [1j, 0]])


class TestHermitianEig:
    def test_identity(self):
        w, v = hermitian_eig(np.eye(4))
        assert np.allclose(w, 1.0)
        assert np.allclose(v.conj().T @ v, np.eye(4))

    def test_pauli_y(self):
        w, _ = hermitian_eig(SIGMA_Y)
        assert np.allclose(w, [-1.0, 1.0])

    def test_diagonal_half(self):
        m = np.diag([0.0, 0.0, 0.5, 0.5]).astype(complex)
        w, v = hermitian_eig(m)
        assert np.allclose(w, [0, 0, 0.5, 0.5])
        assert np.allclose(v.conj().T @ m @ v, np.diag(w), atol=1e-14)

    def test_eigen_equation_random(self):
        rng = make_rng(0)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        m = a + a.conj().T
        w, v = hermitian_eig(m)
        assert np.abs(m @ v - v * w).max() <= 1e-10 * np.linalg.norm(m)
        assert list(w) == sorted(w)

    def test_rejects_nonhermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("c", [1e-12, 1.0, 1e6])
    def test_cut_is_relative_to_max_entry(self, c):
        # 1e-12 * max|m| is the cut at every scale, so c * m gets the
        # verdict of m
        m = np.array([[1.0, 1.0], [1.0, 1.0]])
        hermitian_eig(c * (m + 0.4e-12j * np.array([[0, 1], [1, 0]])))
        with pytest.raises(NotHermitian):
            hermitian_eig(c * (m + 1e-12 * np.array([[0, 1], [-1, 0]])))
        hermitian_eig(np.zeros((2, 2)))

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            hermitian_eig(np.zeros((2, 3)))
        with pytest.raises(DimensionMismatch):
            hermitian_eig(np.zeros((4, 2, 3)))
        with pytest.raises(DimensionMismatch):
            hermitian_eig(np.zeros((2, 2, 2, 2)))

    def test_row_norms_are_linalg_norm_bits(self):
        # the kernel harvest normalizes x, and stage() scales each candidate,
        # with row_norms where the per-vector loop took np.linalg.norm
        rng = make_rng(9)
        s = 1 / np.sqrt(2)
        for width in (1, 2, 3, 4, 7, 10, 16, 100, 1000):
            a = rng.standard_normal((20, width)) + 1j * rng.standard_normal((20, width))
            a[0] = s * (np.eye(width)[0] + 1j * np.eye(width)[-1])
            assert row_norms(a).tobytes() == np.array(
                [np.linalg.norm(r) for r in a]).tobytes()

    def test_stack_matches_single_bits(self):
        rng = make_rng(1)
        a = rng.standard_normal((6, 5, 5)) + 1j * rng.standard_normal((6, 5, 5))
        m = a + a.conj().transpose(0, 2, 1)
        w, v = hermitian_eig(m)
        assert w.shape == (6, 5) and v.shape == (6, 5, 5)
        for i in range(6):
            wi, vi = hermitian_eig(m[i])
            assert w[i].tobytes() == wi.tobytes() and v[i].tobytes() == vi.tobytes()

    @pytest.mark.parametrize("i", [0, 3, 5])
    def test_stack_error_names_the_matrix(self, i):
        m = np.stack([np.eye(3, dtype=complex)] * 6)
        m[i, 0, 1] = 1.0
        with pytest.raises(NotHermitian, match=f"^matrix {i}: deviation 1.000e[+]00"):
            hermitian_eig(m)
        with pytest.raises(NotHermitian, match="^deviation 1.000e[+]00"):
            hermitian_eig(m[i])

    def test_stack_cut_is_per_matrix(self):
        # each matrix is cut at 1e-12 * its own max|m_i|, not the stack's
        m = np.array([[1.0, 1.0], [1.0, 1.0]])
        ok = m + 0.4e-12j * np.array([[0, 1], [1, 0]])
        bad = m + 1e-12 * np.array([[0, 1], [-1, 0]])
        hermitian_eig(np.stack([1e-8 * m, 1e8 * ok]))
        with pytest.raises(NotHermitian, match="^matrix 1: "):
            hermitian_eig(np.stack([1e8 * m, 1e-8 * bad]))


class TestNullspace:
    def test_zero_matrix_full_basis(self):
        ns, s = nullspace(np.zeros((3, 3)))
        assert ns.shape == (3, 3)
        assert np.array_equal(s, np.zeros(3))
        assert np.allclose(ns.conj().T @ ns, np.eye(3))

    def test_identity_empty(self):
        ns, s = nullspace(np.eye(2))
        assert ns.shape == (2, 0)
        assert np.allclose(s, [1.0, 1.0])

    def test_diagonal(self):
        ns, s = nullspace(np.diag([0.0, 0.0, 0.5, 0.5]))
        assert np.allclose(s, [0.5, 0.5, 0.0, 0.0])
        assert ns.shape == (4, 2)
        # kernel is the first two coordinates
        assert np.abs(ns[2:, :]).max() == 0.0

    def test_residual_bound(self):
        rng = make_rng(1)
        m = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        m[:, 3] = m[:, 0] + m[:, 1]  # force rank deficiency in the Gram sense
        ns, _ = nullspace(m.conj().T @ m)
        assert ns.shape[1] >= 1
        for v in ns.T:
            assert np.linalg.norm(m @ v) <= 1e-6

    def test_rank_plus_nullity(self):
        rng = make_rng(2)
        for _ in range(10):
            a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            h = a + a.conj().T
            r = family_rank(h)
            assert r + nullspace(h)[0].shape[1] == 5

    def test_wide_keeps_full_kernel(self):
        # a thin SVD of a wide matrix drops the kernel directions beyond rows
        assert nullspace(np.ones((1, 4)))[0].shape == (4, 3)
        rng = make_rng(7)
        m = rng.standard_normal((3, 7)) + 1j * rng.standard_normal((3, 7))
        ns, s = nullspace(m)
        assert ns.shape == (7, 4) and s.shape == (3,)
        assert np.abs(ns.conj().T @ ns - np.eye(4)).max() <= 1e-12
        assert np.abs(m @ ns).max() <= 1e-12 * np.linalg.norm(m)

    def test_tall_rank_deficient(self):
        rng = make_rng(8)
        a = rng.standard_normal((500, 4)) + 1j * rng.standard_normal((500, 4))
        b = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        m = a @ b  # rank 4
        ns, _ = nullspace(m)
        assert ns.shape == (6, 2)
        assert np.abs(ns.conj().T @ ns - np.eye(2)).max() <= 1e-12
        assert np.abs(m @ ns).max() <= 1e-9 * np.linalg.norm(m)

    @pytest.mark.parametrize("rows,cols,rank", [(200, 20, 13), (4096, 64, 62),
                                                (5, 12, 5)])
    def test_matches_reference_svd(self, rows, cols, rank):
        # tall systems go through their QR factor R, wide ones keep the
        # full vh; both must cut where an SVD of the matrix itself does
        rng = make_rng(rows + cols)
        a = rng.standard_normal((rows, rank)) + 1j * rng.standard_normal((rows, rank))
        b = rng.standard_normal((rank, cols)) + 1j * rng.standard_normal((rank, cols))
        m = a @ b
        _, s_ref, vh = np.linalg.svd(m, full_matrices=rows < cols)
        ref = vh[int(np.sum(s_ref > DEFAULT_TOLS.rank * s_ref[0])):].conj().T
        ns, s = nullspace(m)
        assert ns.shape == ref.shape == (cols, cols - rank)
        # the values it cut are the matrix's own singular values
        assert np.abs(s - s_ref).max() <= 1e-12 * s_ref[0]
        assert np.abs(ns @ ns.conj().T - ref @ ref.conj().T).max() <= 1e-12


class TestFamilyRank:
    def test_simple(self):
        e = np.eye(3)
        assert family_rank([e[0], e[1], e[0] + e[1]]) == 2

    def test_empty_raises(self):
        with pytest.raises(EmptyFamily):
            family_rank(np.zeros((0, 4)))

    def test_zero_family(self):
        assert family_rank(np.zeros((3, 4))) == 0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_permutation_invariant(self, seed):
        rng = make_rng(seed)
        fam = rng.integers(-4, 5, size=(12, 7)).astype(complex)
        base = family_rank(fam)
        perm = rng.permutation(12)
        assert family_rank(fam[perm]) == base
        assert base <= min(12, 7)

    def test_exact_rational_oracle_spot_check(self):
        sympy = pytest.importorskip("sympy")
        rng = make_rng(3)
        for _ in range(10):
            rows, cols = int(rng.integers(3, 9)), int(rng.integers(3, 9))
            m = rng.integers(-5, 6, (rows, cols)) + 1j * rng.integers(-5, 6, (rows, cols))
            exact = sympy.Matrix([
                [sympy.Integer(int(m[i, j].real)) + sympy.I * sympy.Integer(int(m[i, j].imag))
                 for j in range(cols)] for i in range(rows)]).rank()
            assert family_rank(m.astype(complex)) == exact


class TestSpanAccumulator:
    def test_grow_and_reject(self):
        acc = SpanAccumulator(3)
        e = np.eye(3)
        assert acc.try_add(e[0]) is True
        assert acc.dim == 1
        assert acc.try_add(2 * e[0]) is False
        assert acc.try_add((e[0] + e[1]) / np.sqrt(2)) is True
        assert acc.dim == 2

    def test_zero_vector_ignored(self):
        acc = SpanAccumulator(3)
        assert acc.try_add(np.zeros(3)) is False

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            SpanAccumulator(3).try_add(np.ones(4))

    def test_basis_orthonormal(self):
        rng = make_rng(4)
        acc = SpanAccumulator(8, DEFAULT_TOLS.rank)
        for _ in range(40):
            acc.try_add(rng.standard_normal(8) + 1j * rng.standard_normal(8))
        b = acc.basis
        gram = b.conj() @ b.T
        assert np.abs(gram - np.eye(acc.dim)).max() <= 10 * DEFAULT_TOLS.rank

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_agrees_with_svd_rank(self, seed):
        rng = make_rng(seed)
        fam = rng.integers(-3, 4, size=(10, 6)).astype(complex)
        acc = SpanAccumulator(6)
        for v in fam:
            acc.try_add(v)
        assert acc.dim == family_rank(fam)

    def test_grows_to_ambient_dim(self):
        # 300 Haar vectors fill C^300 one direction each, through the
        # buffer's doublings and its final cap at the ambient dimension
        rng = make_rng(9)
        acc = SpanAccumulator(300)
        for k in range(300):
            assert acc.try_add(random_unit_vector(rng, 300)) is True
            assert acc.dim == k + 1
        assert acc.try_add(random_unit_vector(rng, 300)) is False
        assert acc.dim == 300
        b = acc.basis
        assert b.shape == (300, 300)
        assert np.abs(b.conj() @ b.T - np.eye(300)).max() <= 1e-12

    def test_basis_is_a_copy(self):
        rng = make_rng(10)
        acc = SpanAccumulator(6)
        for _ in range(3):
            acc.try_add(random_unit_vector(rng, 6))
        before = acc.basis
        acc.basis[:] = 0.0
        assert np.array_equal(acc.basis, before)
        assert acc.try_add(before[0]) is False
        assert acc.dim == 3

    def test_rejects_member_after_growth(self):
        rng = make_rng(11)
        acc = SpanAccumulator(64)
        added = [random_unit_vector(rng, 64) for _ in range(20)]
        for v in added:
            assert acc.try_add(v) is True
        combo = sum((k + 1j) * v for k, v in enumerate(added))
        assert acc.try_add(combo) is False
        assert acc.dim == 20


    def test_rejects_member_after_growth_past_stage(self):
        # the staged residuals no longer see the rows added after stage(),
        # but try_add finishes the projection against them
        rng = make_rng(12)
        acc = SpanAccumulator(32)
        rows = np.array([random_unit_vector(rng, 32) for _ in range(8)])
        for v in acc.stage(rows):
            assert acc.try_add(v) is True
        for v in acc.stage(np.concatenate([rows, rows[::-1] * 1j])):
            assert acc.try_add(v) is False
        assert acc.dim == 8


BAD_CUTOFFS = [-1.0, 0.0, float("nan"), float("inf")]


class TestCutoffs:
    @pytest.mark.parametrize("tol", BAD_CUTOFFS + [1.0, 1.5])
    def test_span_rejects_bad_tol(self, tol):
        with pytest.raises(ToolkitError, match="finite and > 0 and < 1"):
            SpanAccumulator(4, tol=tol)

    def test_valid_cutoffs_still_accepted(self):
        assert SpanAccumulator(4, tol=0.5).tol == 0.5

    # spectra straddling the 1e-9 relative cut: both SVD routes cut them at
    # the same rank, at every scale
    @pytest.mark.parametrize("s, rank", [((1.0, 2e-9, 5e-10), 2),
                                         ((1.0, 1.1e-9, 9e-10, 0.0), 2),
                                         ((0.0, 0.0, 0.0), 0)])
    def test_nullspace_and_family_rank_share_the_cut(self, s, rank):
        rng = make_rng(4)
        k = len(s)
        for scale in (1e-12, 1.0, 1e8):
            u, v = random_haar_unitary(rng, k), random_haar_unitary(rng, k)
            m = (u * (scale * np.array(s))) @ v
            assert family_rank(m) == rank
            assert nullspace(m)[0].shape == (k, k - rank)


class TestStage:
    """stage() must never let try_add skip basis rows."""

    def filled(self, dim, count, seed):
        rng = make_rng(seed)
        acc = SpanAccumulator(dim)
        for _ in range(count):
            assert acc.try_add(random_unit_vector(rng, dim))
        return acc, rng

    def test_unstaged_vector_in_old_span_rejected(self):
        acc, rng = self.filled(16, 6, 0)
        old = acc.basis
        acc.stage(np.array([random_unit_vector(rng, 16) for _ in range(3)]))
        inside = (1 + 2j) * old[0] - 0.5 * old[3] + old[5]
        assert acc.try_add(inside) is False
        assert acc.dim == 6

    def test_out_of_order_rows_take_full_projection(self):
        acc, rng = self.filled(16, 6, 1)
        a, b = (random_unit_vector(rng, 16) for _ in range(2))
        sa, sb = acc.stage(np.array([a, b]))
        # b first: it is not the next staged row, so a's residual must not
        # be used for it
        assert acc.try_add(sb) is True
        assert acc.try_add(sb) is False
        assert acc.try_add(sa) is True
        assert acc.try_add(sa) is False
        assert acc.try_add(a + b) is False
        q = acc.basis
        for v in (a, b):
            assert np.linalg.norm(v - (q.conj() @ v) @ q) <= 1e-12
        assert np.abs(q.conj() @ q.T - np.eye(8)).max() <= 1e-12

    def test_staged_rows_are_copied(self):
        acc, rng = self.filled(16, 6, 2)
        rows = np.array([random_unit_vector(rng, 16) for _ in range(2)])
        staged = acc.stage(rows)
        rows[0] = acc.basis[2]  # now inside the span; its staged residual is not
        assert acc.try_add(rows[0]) is False
        assert acc.dim == 6
        assert not np.array_equal(staged[0], rows[0])
        with pytest.raises(ValueError, match="read-only"):
            staged[0][0] = 0.0

    def test_equal_vector_is_not_the_staged_row(self):
        # only the very rows stage() returned skip the staged projection:
        # an equal copy gets the full one and leaves the staged row next
        acc, rng = self.filled(16, 6, 4)
        rows = np.array([random_unit_vector(rng, 16) for _ in range(3)])
        staged = acc.stage(rows)
        assert acc.try_add(rows[0].copy()) is True
        assert acc.try_add(staged[0]) is False
        assert acc.try_add(staged[1]) is True
        assert acc.try_add(staged[2]) is True
        assert acc.dim == 9
        q = acc.basis
        assert np.abs(q.conj() @ q.T - np.eye(9)).max() <= 1e-12

    def test_staged_matches_unstaged(self):
        rng = make_rng(3)
        a, b = SpanAccumulator(40), SpanAccumulator(40)
        gen = rng.standard_normal((30, 5)) + 1j * rng.standard_normal((30, 5))
        mix = rng.standard_normal((5, 40)) + 1j * rng.standard_normal((5, 40))
        for block in np.split(np.concatenate([gen @ mix, rng.standard_normal((30, 40))]), 6):
            for v, staged in zip(block, a.stage(block)):
                assert a.try_add(staged) == b.try_add(v)
        assert a.dim == b.dim == 35
        assert np.abs(a.basis.conj() @ a.basis.T - np.eye(35)).max() <= 1e-12

    def test_stage_shape_checked(self):
        with pytest.raises(DimensionMismatch):
            SpanAccumulator(4).stage(np.ones((2, 5)))
        with pytest.raises(DimensionMismatch):
            SpanAccumulator(4).stage(np.ones(4))


class TestTolerances:
    def test_fields_are_the_span_flags(self):
        assert list(asdict(DEFAULT_TOLS)) == ["rank", "kernel"]

    @pytest.mark.parametrize("field", ["rank", "kernel"])
    @pytest.mark.parametrize("value", [0.0, -1e-9, float("nan"), float("inf"),
                                       -float("inf")])
    def test_rejects_nonpositive_or_nonfinite(self, field, value):
        with pytest.raises(ToolkitError, match="finite and > 0"):
            Tolerances(**{field: value})

    @pytest.mark.parametrize("value", [1.0, 2.0])
    def test_rejects_relative_rank_of_one_or_more(self, value):
        # both cutoffs are relative: a kernel cut of 1 or more counts every
        # eigenvalue of Phi(P_x) as zero
        with pytest.raises(ToolkitError, match="rank < 1"):
            Tolerances(rank=value)
        with pytest.raises(ToolkitError, match="kernel < 1"):
            Tolerances(kernel=value)


class TestSampling:
    def test_rejects_negative_seed(self):
        with pytest.raises(ToolkitError, match="seed must be >= 0"):
            make_rng(-1)

    def test_determinism(self):
        a = random_unit_vector(make_rng(42), 4)
        b = random_unit_vector(make_rng(42), 4)
        assert np.array_equal(a, b)
        u1 = random_haar_unitary(make_rng(42), 4)
        u2 = random_haar_unitary(make_rng(42), 4)
        assert np.array_equal(u1, u2)

    def test_unit_norm(self):
        rng = make_rng(5)
        for _ in range(50):
            assert abs(np.linalg.norm(random_unit_vector(rng, 6)) - 1) <= 1e-14

    def test_haar_unitarity(self):
        rng = make_rng(6)
        for _ in range(100):
            u = random_haar_unitary(rng, 4)
            assert np.abs(u.conj().T @ u - np.eye(4)).max() <= 1e-12

    def test_first_coordinate_moment(self):
        # uniform measure on the unit sphere of C^4 gives E|<e1|x>|^2 = 1/4
        rng = make_rng(123)
        z = rng.standard_normal((100_000, 4)) + 1j * rng.standard_normal((100_000, 4))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        mean = float((np.abs(z[:, 0]) ** 2).mean())
        assert abs(mean - 0.25) < 0.01
