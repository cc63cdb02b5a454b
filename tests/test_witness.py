import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from posmaps import (
    BadDimension,
    InconsistentResult,
    NonpositiveState,
    NotHermitian,
    SpanAccumulator,
    SpanReport,
    UnknownFamily,
    breuer_hall,
    dn_bound,
    dn_formula,
    estimate_M_dim,
    estimate_N_dim,
    family_rank,
    kernel_of_state,
    make_rng,
    map_from_action,
    paper_family,
    paper_family_pairs,
    random_antisymmetric_unitary,
    random_unit_vector,
    reduction_map,
    robertson_map,
    trace_map,
    transpose_map,
    u0,
)
from posmaps import witness
from posmaps.reports import FAIL, INCONCLUSIVE, PASS
from posmaps.witness import SPAN_BLOCK

from oracles import sequential_estimate, unitary_covariance_check


def pair_residual(phi, x, y):
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    x = x / np.linalg.norm(x)
    y = y / np.linalg.norm(y)
    return float(np.linalg.norm(phi.apply(np.outer(x, x.conj())) @ y))


class TestKernelOfState:
    def test_transpose_basis_state(self):
        ker = kernel_of_state(transpose_map(2), [1.0, 0.0])
        assert ker.shape == (2, 1)
        assert abs(abs(ker[1, 0]) - 1.0) <= 1e-14

    def test_reduction_kernel_is_input(self):
        x = np.array([1.0, 2.0j, -0.5])
        ker = kernel_of_state(reduction_map(3), x)
        assert ker.shape == (3, 1)
        xn = x / np.linalg.norm(x)
        assert abs(abs(np.vdot(xn, ker[:, 0])) - 1.0) <= 1e-12

    def test_robertson_two_dimensional(self):
        ker = kernel_of_state(robertson_map(), [1, 0, 0, 0])
        assert ker.shape == (4, 2)
        # kernel is the first coordinate pair: x = e1 and U0 conj(e1) = -e2
        assert np.abs(ker[2:, :]).max() <= 1e-12

    def test_unnormalized_input_ok(self):
        a = kernel_of_state(robertson_map(), [5, 0, 0, 0])
        b = kernel_of_state(robertson_map(), [1, 0, 0, 0])
        assert a.shape == b.shape

    def test_zero_vector_rejected(self):
        with pytest.raises(BadDimension):
            kernel_of_state(transpose_map(2), [0.0, 0.0])

    def test_negative_state_alarm(self):
        neg = map_from_action(2, lambda m: -m, "negate")
        with pytest.raises(NonpositiveState):
            kernel_of_state(neg, [1.0, 0.0])


def skewed_transpose(eps):
    # X -> X^T + eps i Tr(X) I: Phi(P_x) is off Hermitian by 2 eps
    return map_from_action(
        2, lambda m: m.T + eps * 1j * np.trace(m) * np.eye(2), "skewed")


def scaled(phi, c):
    return dataclasses.replace(phi, superop=c * phi.superop)


class TestHermTolerance:
    def test_default_cut_accepts_small_skew(self):
        # a 2e-13 deviation passes the 1e-12 cut relative to max|Phi(P_x)| = 1
        phi = skewed_transpose(1e-13)
        assert estimate_M_dim(phi).saturated
        assert kernel_of_state(phi, [1.0, 0.0]).shape == (2, 1)

    @pytest.mark.parametrize("c", [1e-12, 1.0, 1e6])
    def test_default_cut_rejects_larger_skew(self, c):
        # an 8e-12 deviation fails it at every scale
        with pytest.raises(NotHermitian):
            estimate_M_dim(scaled(skewed_transpose(4e-12), c))


class TestKernelPairs:
    def test_residuals_and_normalization(self):
        rng = make_rng(0)
        phi = breuer_hall(random_antisymmetric_unitary(rng, 4))
        for _ in range(10):
            x = 3.0 * random_unit_vector(rng, 4)
            ker = kernel_of_state(phi, x)
            assert ker.shape == (4, 2)
            assert np.abs(ker.conj().T @ ker - np.eye(2)).max() <= 1e-14
            for y in ker.T:
                assert pair_residual(phi, x, y) <= 1e-14


class TestScaleCovariance:
    """c Phi has the kernels, and so the span reports, of Phi for every c > 0."""

    CASES = [(reduction_map(2), estimate_M_dim), (transpose_map(3), estimate_M_dim),
             (robertson_map(), estimate_N_dim), (reduction_map(3), estimate_N_dim),
             (breuer_hall(random_antisymmetric_unitary(make_rng(3), 6)),
              estimate_N_dim)]

    @settings(max_examples=10, deadline=None)
    @given(log_c=st.floats(min_value=-12.0, max_value=8.0), case=st.integers(0, 4))
    def test_reports_unchanged_under_scaling(self, log_c, case):
        phi, est = self.CASES[case]
        assert est(scaled(phi, 10.0 ** log_c)) == est(phi)

    def test_false_pass_at_small_scale_is_gone(self):
        # at an absolute kernel cut every eigenvalue of 1e-12 * Phi(P_x) was
        # a kernel, so M reached n^2 and N the whole ambient space
        assert estimate_M_dim(scaled(reduction_map(2), 1e-12)).achieved_dim == 3
        assert estimate_N_dim(scaled(robertson_map(), 1e-12)).achieved_dim == 60

    def test_negative_state_alarm_at_small_scale(self):
        neg = map_from_action(2, lambda m: -1e-12 * m, "negate")
        with pytest.raises(NonpositiveState):
            kernel_of_state(neg, [1.0, 0.0])

    def test_large_scale_is_hermitian(self):
        assert estimate_N_dim(scaled(breuer_hall(u0(4)), 1e6)).achieved_dim == 60


class TestSpanEstimates:
    def test_N_dims_frozen(self):
        assert estimate_N_dim(transpose_map(2)).achieved_dim == 6
        assert estimate_N_dim(reduction_map(2)).achieved_dim == 6
        assert estimate_N_dim(reduction_map(3)).achieved_dim == 18
        assert estimate_N_dim(robertson_map()).achieved_dim == 60

    def test_M_dims_frozen(self):
        # every generator x (x) y has <xbar|y> = 0, so M lives inside the
        # trace-zero matrices for the transposition: dim n^2 - 1, never n^2
        assert estimate_M_dim(transpose_map(2)).achieved_dim == 3
        assert estimate_M_dim(transpose_map(3)).achieved_dim == 8
        assert estimate_M_dim(reduction_map(2)).achieved_dim == 3
        assert estimate_M_dim(reduction_map(3)).achieved_dim == 6
        assert estimate_M_dim(robertson_map()).achieved_dim == 16

    def test_reduction_M_is_symmetric_square(self):
        # generators x (x) x span Sym^2(C^n): dimension n(n+1)/2
        for n in (2, 3, 4, 5):
            rep = estimate_M_dim(reduction_map(n))
            assert rep.achieved_dim == n * (n + 1) // 2
            assert rep.saturated

    def test_checks_are_independent(self):
        rep_n = estimate_N_dim(reduction_map(2))
        rep_m = estimate_M_dim(reduction_map(2))
        assert rep_n.verdict(rep_n.target_dim) == PASS and rep_n.achieved_dim == 6
        assert rep_m.verdict(rep_m.target_dim) == FAIL and rep_m.achieved_dim == 3

    def test_robertson_passes_both(self):
        rep_m = estimate_M_dim(robertson_map())
        rep = estimate_N_dim(robertson_map())
        assert rep_m.verdict(rep_m.target_dim) == PASS
        assert rep.verdict(rep.target_dim) == PASS
        assert rep.target_dim == 60 and rep.ambient_dim == 64

    def test_verdict_rule(self):
        def report(achieved, saturated):
            return SpanReport(map_name="m", kind="N", target_dim=6,
                              ambient_dim=8, achieved_dim=achieved,
                              samples_used=10, saturated=saturated, seed=0)
        # saturated: PASS exactly at the expected dimension, FAIL on either side
        assert report(6, True).verdict(6) == PASS
        assert report(5, True).verdict(6) == FAIL
        assert report(7, True).verdict(6) == FAIL
        # stopped by budget: proves nothing, even at the expected dimension
        for achieved in (5, 6, 7):
            assert report(achieved, False).verdict(6) == INCONCLUSIVE

    def test_breuer_hall_seed_sweep(self):
        for seed in range(3):
            rng = make_rng(seed)
            phi = breuer_hall(random_antisymmetric_unitary(rng, 4))
            assert estimate_N_dim(phi, seed=seed).achieved_dim == 60

    def test_breuer_hall_n6_below_target(self):
        rng = make_rng(0)
        rep = estimate_N_dim(breuer_hall(random_antisymmetric_unitary(rng, 6)))
        assert rep.saturated
        assert rep.achieved_dim == 196 == dn_formula(6)
        assert rep.achieved_dim < rep.target_dim == 210

    def test_trace_map_has_empty_kernels(self):
        rep = estimate_N_dim(trace_map(2))
        assert rep.achieved_dim == 0
        assert rep.saturated
        assert rep.samples_used == 64

    def test_budget_exhaustion_not_saturated(self):
        rep = estimate_M_dim(transpose_map(2), budget=3)
        assert rep.samples_used == 3
        assert not rep.saturated

    def test_budget_monotone(self):
        phi = robertson_map()
        dims = [estimate_N_dim(phi, budget=b).achieved_dim
                for b in (1, 5, 20, 80, 640, 1280)]
        assert dims == sorted(dims)
        assert dims[-2] == dims[-1] == 60

    def test_seed_independent_when_saturated(self):
        for seed in (0, 12345):
            assert estimate_N_dim(transpose_map(2), seed=seed).achieved_dim == 6
            assert estimate_N_dim(reduction_map(3), seed=seed).achieved_dim == 18

    def test_deterministic(self):
        a = estimate_N_dim(robertson_map(), seed=9)
        b = estimate_N_dim(robertson_map(), seed=9)
        assert a.to_dict() == b.to_dict()

    def test_report_fields(self):
        d = estimate_N_dim(transpose_map(2), seed=4).to_dict()
        assert d["map_name"] == "transpose_2"
        assert d["kind"] == "N"
        assert d["ambient_dim"] == 8 and d["target_dim"] == 6
        assert d["seed"] == 4
        assert d["tolerances"] == {"rank": 1e-9, "kernel": 1e-10, "herm": 1e-12}

    def test_bad_budget(self):
        with pytest.raises(BadDimension):
            estimate_N_dim(transpose_map(2), budget=0)

    def test_mixed_state_generators_add_nothing(self):
        # Phi(a) h = 0 for a = 0.3 P_h + 0.7 P_{U hbar}; vec(a) (x) h must
        # already lie in the span of the rank-one generators
        rng = make_rng(1)
        u = random_antisymmetric_unitary(rng, 4)
        phi = breuer_hall(u)
        acc = SpanAccumulator(64)
        while acc.dim < 60:
            x = random_unit_vector(rng, 4)
            for y in kernel_of_state(phi, x).T:
                acc.try_add(np.kron(np.kron(x, x.conj()), y))
        for _ in range(5):
            h = random_unit_vector(rng, 4)
            g = u.matrix @ h.conj()
            a = 0.3 * np.outer(h, h.conj()) + 0.7 * np.outer(g, g.conj())
            assert np.linalg.norm(phi.apply(a) @ h) <= 1e-12
            assert not acc.try_add(np.kron(a.ravel(), h))


def outcome(rep):
    return rep.achieved_dim, rep.samples_used, rep.saturated


def estimate(phi, kind, **kwargs):
    return (estimate_M_dim if kind == "M" else estimate_N_dim)(phi, **kwargs)


def count_kernel_calls(monkeypatch, fail_after=None, error=NonpositiveState):
    """Count witness.kernel_of_state calls; raise error past fail_after."""
    calls = []
    real = witness.kernel_of_state

    def wrapped(*args, **kwargs):
        calls.append(1)
        if fail_after is not None and len(calls) > fail_after:
            raise error("look-ahead sample")
        return real(*args, **kwargs)

    monkeypatch.setattr(witness, "kernel_of_state", wrapped)
    return calls


def principal_sine(a, b):
    """Sine of the largest principal angle between two orthonormal row bases."""
    return float(np.linalg.norm(a - (a @ b.conj().T) @ b, 2))


class TestBlockedEstimate:
    """The blocked estimator against the one-sample-at-a-time oracle."""

    @pytest.mark.parametrize("n, seeds", [(4, range(4)), (6, range(3)),
                                          (8, range(2))])
    def test_breuer_hall_matches_sequential(self, n, seeds):
        for seed in seeds:
            phi = breuer_hall(random_antisymmetric_unitary(make_rng(seed + 100), n))
            rep = estimate_N_dim(phi, seed=seed)
            assert outcome(rep) == sequential_estimate(phi, "N", seed=seed)
            assert rep.achieved_dim == dn_formula(n) and rep.saturated

    @pytest.mark.parametrize("kind", ["M", "N"])
    @pytest.mark.parametrize("budget", [None, 1, 3, 50, SPAN_BLOCK - 1,
                                        SPAN_BLOCK, SPAN_BLOCK + 1])
    def test_named_maps_match_sequential(self, kind, budget):
        maps = [transpose_map(2), transpose_map(3), reduction_map(2),
                reduction_map(3), trace_map(2), robertson_map(),
                breuer_hall(random_antisymmetric_unitary(make_rng(7), 4))]
        for phi in maps:
            rep = estimate(phi, kind, budget=budget, seed=3)
            assert outcome(rep) == sequential_estimate(phi, kind, budget, seed=3), phi.name

    def test_staged_and_unstaged_bases_agree(self):
        rng = make_rng(5)
        phi = breuer_hall(random_antisymmetric_unitary(rng, 6))
        samples = []
        for _ in range(160):
            x = random_unit_vector(rng, 6)
            samples.append([np.kron(np.kron(x, x.conj()), y)
                            for y in kernel_of_state(phi, x).T])
        staged, plain = SpanAccumulator(216), SpanAccumulator(216)
        for start in range(0, len(samples), SPAN_BLOCK):
            block = [g for gens in samples[start:start + SPAN_BLOCK] for g in gens]
            staged.stage(np.array(block))
            for g in block:
                assert staged.try_add(g) == plain.try_add(g)
        assert staged.dim == plain.dim == dn_formula(6)
        assert principal_sine(staged.basis, plain.basis) <= 1e-12
        assert principal_sine(plain.basis, staged.basis) <= 1e-12

    @pytest.mark.parametrize("error", [NonpositiveState, NotHermitian])
    def test_look_ahead_error_past_stop_is_not_raised(self, monkeypatch, error):
        # the M span of the n=4 map fills C^16 in the middle of a block, so
        # the estimator has harvested samples it never uses
        phi = robertson_map()
        calls = count_kernel_calls(monkeypatch)
        rep = estimate_M_dim(phi)
        assert rep.achieved_dim == rep.ambient_dim and rep.saturated
        assert rep.samples_used < len(calls) < rep.samples_used + SPAN_BLOCK
        count_kernel_calls(monkeypatch, fail_after=rep.samples_used, error=error)
        assert estimate_M_dim(phi).to_dict() == rep.to_dict()

    def test_error_at_a_used_sample_is_raised(self, monkeypatch):
        rep = estimate_M_dim(robertson_map())
        count_kernel_calls(monkeypatch, fail_after=rep.samples_used - 1)
        with pytest.raises(NonpositiveState):
            estimate_M_dim(robertson_map())

    def test_window_and_budget_stops_harvest_nothing_extra(self, monkeypatch):
        phi = breuer_hall(random_antisymmetric_unitary(make_rng(2), 6))
        for budget in (None, 5, SPAN_BLOCK + 1, 100):
            calls = count_kernel_calls(monkeypatch)
            rep = estimate_N_dim(phi, budget=budget, seed=1)
            assert len(calls) == rep.samples_used


class TestFamilies:
    def test_counts(self):
        assert len(paper_family("example1")) == 6
        assert len(paper_family("example1-printed")) == 6
        assert len(paper_family("example2")) == 6
        assert len(paper_family("prop3")) == 60

    def test_ranks(self):
        assert family_rank(paper_family("example1")) == 6
        assert family_rank(paper_family("example2")) == 6
        assert family_rank(paper_family("prop3")) == 60
        # the printed variant happens to reach rank 6 as well, despite the
        # sixth pair failing the kernel condition
        assert family_rank(paper_family("example1-printed")) == 6

    def test_example1_pairs_are_kernel_pairs(self):
        phi = transpose_map(2)
        for x, y in paper_family_pairs("example1"):
            assert pair_residual(phi, x, y) <= 1e-14

    def test_printed_variant_breaks_kernel_condition(self):
        phi = transpose_map(2)
        residuals = [pair_residual(phi, x, y)
                     for x, y in paper_family_pairs("example1-printed")]
        assert max(residuals[:5]) <= 1e-14
        assert residuals[5] > 0.1

    def test_example2_pairs_are_kernel_pairs(self):
        phi = reduction_map(2)
        for x, y in paper_family_pairs("example2"):
            assert pair_residual(phi, x, y) <= 1e-14

    def test_prop3_pairs_are_kernel_pairs(self):
        phi = robertson_map()
        for x, y in paper_family_pairs("prop3"):
            assert pair_residual(phi, x, y) <= 1e-14

    def test_prop3_contains_both_partner_choices(self):
        pairs = paper_family_pairs("prop3")
        m = u0(4).matrix
        assert np.array_equal(pairs[0][0], pairs[1][0])
        assert np.array_equal(pairs[0][1], pairs[0][0])
        assert np.allclose(pairs[1][1], m @ pairs[1][0].conj())

    def test_unknown_family(self):
        with pytest.raises(UnknownFamily):
            paper_family("nope")


class TestAPrioriBound:
    @pytest.mark.parametrize("phi", [
        breuer_hall(random_antisymmetric_unitary(make_rng(2), 4)),
        robertson_map(), reduction_map(3), transpose_map(2)],
        ids=lambda phi: phi.name)
    def test_operator_identity(self, phi):
        # L @ kron(vec(X), y) == Phi(X) y, for kernel pairs and any others
        rng = make_rng(0)
        n = phi.n
        lop = witness.kernel_pair_operator(phi)
        assert lop.shape == (n, n ** 3)
        for _ in range(5):
            x, y = random_unit_vector(rng, n), random_unit_vector(rng, n)
            px = np.outer(x, x.conj())
            assert np.abs(lop @ np.kron(px.ravel(), y) - phi.apply(px) @ y).max() <= 1e-14
        mat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert np.allclose(lop @ np.kron(mat.ravel(), y), phi.apply(mat) @ y,
                           rtol=0, atol=1e-13)

    def test_bound_is_the_strong_spanning_target(self):
        # a map whose images Phi(X) y fill C^n has rank L = n
        phi = breuer_hall(random_antisymmetric_unitary(make_rng(2), 4))
        assert family_rank(witness.kernel_pair_operator(phi)) == 4
        assert 4 ** 3 - 4 == dn_bound(4)

    def test_whole_space_kernel_raises(self, monkeypatch):
        # a kernel harvest that returns all of C^n spans n^3 > n^3 - rank L
        phi = breuer_hall(random_antisymmetric_unitary(make_rng(2), 4))
        monkeypatch.setattr(witness, "kernel_of_state",
                            lambda phi, x, tols: np.eye(phi.n, dtype=complex))
        with pytest.raises(InconsistentResult, match="above its bound"):
            estimate_N_dim(phi, seed=0)
        assert estimate_M_dim(phi, seed=0).achieved_dim == 16

    def test_zero_map_is_not_refused(self):
        # rank L = 0, so the span of every vec(P_x) (x) y, n^3, is allowed
        phi = map_from_action(3, lambda x: np.zeros_like(x), name="zero")
        assert family_rank(witness.kernel_pair_operator(phi)) == 0
        rep = estimate_N_dim(phi, seed=0)
        assert rep.achieved_dim == 27 and rep.saturated


class TestDnFormula:
    def test_frozen_values(self):
        assert dn_formula(4) == 60
        assert dn_formula(6) == 196
        assert dn_formula(8) == 456
        assert dn_formula(10) == 880

    def test_bound_values(self):
        assert dn_bound(4) == 60
        assert dn_bound(6) == 210
        assert dn_bound(8) == 504

    @given(st.integers(1, 300))
    @settings(max_examples=60, deadline=None)
    def test_integrality(self, n):
        v = dn_formula(n)
        assert isinstance(v, int)
        assert 6 * v == n * (n + 1) * (5 * n - 2)

    def test_gap_identity(self):
        # bound - formula = n (n+1) (n-4) / 6: equality exactly at n = 4
        for n in range(4, 61):
            assert dn_bound(n) - dn_formula(n) == n * (n + 1) * (n - 4) // 6
        assert dn_bound(4) == dn_formula(4)
        for n in range(5, 61):
            assert dn_formula(n) < dn_bound(n)

    def test_rejects_nonpositive(self):
        with pytest.raises(BadDimension):
            dn_formula(0)
        with pytest.raises(BadDimension):
            dn_bound(0)


class TestCovariance:
    def test_n4(self):
        assert unitary_covariance_check(4, seed=0) is True

    def test_unsaturated_raises(self):
        with pytest.raises(InconsistentResult):
            unitary_covariance_check(4, seed=0, budget=2)
