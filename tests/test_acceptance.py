"""Acceptance gate: the full criteria list at pinned tolerances.

The conftest hook prints one [PASS]/[FAIL] line per criterion (keyed by the
test name number and labeled from CRITERIA) once the run finishes.  Timing
bounds are asserted with the margins built into the criteria; all
randomness is seeded.
"""

import time

import numpy as np
import pytest

from posmaps import (
    SpanAccumulator,
    breuer_hall,
    canonical_decompose,
    commutant_of_range,
    dn_bound,
    dn_formula,
    estimate_M_dim,
    estimate_N_dim,
    family_rank,
    is_irreducible,
    kernel_of_state,
    make_rng,
    map_from_action,
    paper_family,
    positivity_sample_test,
    random_antisymmetric_unitary,
    random_unit_vector,
    reduction_map,
    robertson_map,
    trace_map,
    transpose_map,
    u0,
)

from oracles import (eigenphase_pairs, robertson_block_form,
                     unitary_covariance_check)

CRITERIA = {
    1: "six-vector families for transposition and reduction have rank 6",
    2: "sixty-vector family for the n=4 map has rank 60",
    3: "N estimates saturate at 6, 6, 60; ten random n=4 draws all reach 60",
    4: "N dims at n=6,8 are 196, 456: the closed form, below the n(n^2-1) bound",
    5: "M estimates reach n^2 = 16, 36, 64 for n=4,6,8; reduction n=2 stops at 3",
    6: "commutant dim 1 for the n=4 map and random draws; n^2 for full depolarizing",
    7: "300 random canonical decompositions reconstruct to 1e-8 with real orthogonal frames",
    8: "construction identities: reference equality, unitality, block form, state images",
    9: "sampled state images stay PSD at n=4,6; the negated map is flagged in 10 draws",
    10: "invariants: permutation, monotonicity, seeds, residuals, covariance, exact oracle",
}


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def test_criterion_01_named_family_ranks():
    for name in ("example1", "example2"):
        rank, dt = timed(family_rank, paper_family(name))
        assert rank == 6
        assert dt < 0.1


def test_criterion_02_sixty_vector_family_rank():
    fam = paper_family("prop3")
    assert len(fam) == 60 and fam[0].size == 64
    rank, dt = timed(family_rank, fam)
    assert rank == 60
    assert dt < 0.1


def test_criterion_03_strong_spanning_saturation():
    for phi, expect in ((transpose_map(2), 6), (reduction_map(2), 6),
                        (robertson_map(), 60)):
        rep, dt = timed(estimate_N_dim, phi)
        assert rep.saturated and rep.achieved_dim == expect
        assert dt < 1.0
    for seed in range(10):
        u = random_antisymmetric_unitary(make_rng(seed), 4)
        rep, dt = timed(estimate_N_dim, breuer_hall(u), None, seed)
        assert rep.saturated and rep.achieved_dim == 60
        assert dt < 1.0


def test_criterion_04_dimension_count_reproduction():
    for n, bound_s in ((6, 5.0), (8, 30.0)):
        u = random_antisymmetric_unitary(make_rng(n), n)
        rep, dt = timed(estimate_N_dim, breuer_hall(u))
        assert rep.saturated
        assert rep.achieved_dim == dn_formula(n)
        assert rep.achieved_dim < dn_bound(n)
        assert dt < bound_s
    assert dn_formula(6) == 196 and dn_bound(6) == 210
    assert dn_formula(8) == 456 and dn_bound(8) == 504


def test_criterion_05_flat_spanning_dims():
    t0 = time.perf_counter()
    for n in (4, 6, 8):
        u = random_antisymmetric_unitary(make_rng(n), n)
        rep = estimate_M_dim(breuer_hall(u))
        assert rep.saturated and rep.achieved_dim == n * n
    rep = estimate_M_dim(reduction_map(2))
    assert rep.saturated and rep.achieved_dim == 3
    assert time.perf_counter() - t0 < 5.0


def test_criterion_06_irreducibility():
    res, dt = timed(commutant_of_range, robertson_map())
    assert res.dim == 1 and dt < 1.0
    rng = make_rng(0)
    for n, draws in ((4, 10), (6, 3)):
        for _ in range(draws):
            phi = breuer_hall(random_antisymmetric_unitary(rng, n))
            ok, dt = timed(is_irreducible, phi)
            assert ok and dt < 1.0
    for n in (3, 4):
        res, dt = timed(commutant_of_range, trace_map(n))
        assert res.dim == n * n and dt < 1.0


def test_criterion_07_canonical_form():
    rng = make_rng(1)
    t0 = time.perf_counter()
    for n in (4, 6, 8):
        for _ in range(100):
            u = random_antisymmetric_unitary(rng, n)
            form = canonical_decompose(u)
            assert np.abs(form.reconstruct() - u.matrix).max() <= 1e-8
            r = form.r
            assert np.abs(r.imag).max() == 0.0
            assert np.abs(r.T @ r - np.eye(n)).max() <= 1e-10
            lam = np.linalg.eigvals(u.matrix)
            for b, b2 in eigenphase_pairs(u):
                assert np.abs(lam - np.exp(1j * b)).min() <= 1e-8
                assert np.abs(lam - np.exp(1j * b2)).min() <= 1e-8
    assert time.perf_counter() - t0 < 10.0


def test_criterion_08_map_identities():
    assert np.abs(breuer_hall(u0(4)).superop
                  - robertson_map().superop).max() <= 1e-14
    rng = make_rng(2)
    for n in (4, 6, 8):
        phi = breuer_hall(random_antisymmetric_unitary(rng, n))
        assert np.abs(phi.apply(np.eye(n)) - np.eye(n)).max() <= 1e-12
    phi0 = robertson_map()
    m = u0(4).matrix
    for _ in range(1000):
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        blocked = robertson_block_form(x)
        direct = (np.eye(4) * np.trace(x) - x - m @ x.T @ m.conj().T) / 2
        assert np.abs(blocked - direct).max() <= 1e-12
        assert np.abs(blocked - phi0.apply(x)).max() <= 1e-12
    for _ in range(100):
        v = random_unit_vector(rng, 4)
        px = np.outer(v, v.conj())
        pu = np.outer(m @ v.conj(), (m @ v.conj()).conj())
        assert np.abs(phi0.apply(px)
                      - (np.eye(4) - px - pu) / 2).max() <= 1e-12


def test_criterion_09_positivity_sampling():
    for n in (4, 6):
        u = random_antisymmetric_unitary(make_rng(n), n)
        res = positivity_sample_test(breuer_hall(u), trials=10_000, seed=0)
        assert res.min_value >= -1e-10
    neg = map_from_action(3, lambda x: -x, "negate")
    res = positivity_sample_test(neg, trials=10, seed=0)
    assert res.min_value < -1e-10


def test_criterion_10_property_suite():
    sympy = pytest.importorskip("sympy")
    rng = make_rng(3)

    # rank is invariant under reordering of the family
    fam = rng.integers(-4, 5, size=(30, 12)).astype(complex)
    base = family_rank(fam)
    for _ in range(20):
        assert family_rank(fam[rng.permutation(30)]) == base

    # achieved dimension is monotone in budget and stable once saturated
    phi = robertson_map()
    dims = [estimate_N_dim(phi, budget=b).achieved_dim
            for b in (1, 5, 20, 80, 640, 1280)]
    assert dims == sorted(dims)
    assert dims[-2] == dims[-1] == 60

    # saturated dimensions do not depend on the seed
    for seed in (0, 271828):
        assert estimate_N_dim(transpose_map(2), seed=seed).achieved_dim == 6
        assert estimate_N_dim(reduction_map(3), seed=seed).achieved_dim == 18
        assert estimate_N_dim(phi, seed=seed).achieved_dim == 60

    # kernel pairs recheck below the kernel tolerance
    u = random_antisymmetric_unitary(rng, 4)
    bh = breuer_hall(u)
    for _ in range(50):
        x = random_unit_vector(rng, 4)
        px = bh.apply(np.outer(x, x.conj()))
        assert np.linalg.norm(px @ kernel_of_state(bh, x), axis=0).max() <= 1e-10

    # N-dimension is covariant under the unitary congruence of U
    for n in (4, 6):
        assert unitary_covariance_check(n, seed=0) is True

    # annihilating mixed states contribute nothing beyond rank-one inputs
    acc = SpanAccumulator(64)
    while acc.dim < 60:
        x = random_unit_vector(rng, 4)
        for y in kernel_of_state(bh, x).T:
            acc.try_add(np.kron(np.kron(x, x.conj()), y))
    for _ in range(5):
        h = random_unit_vector(rng, 4)
        g = u.matrix @ h.conj()
        a = 0.3 * np.outer(h, h.conj()) + 0.7 * np.outer(g, g.conj())
        assert np.linalg.norm(bh.apply(a) @ h) <= 1e-12
        assert not acc.try_add(np.kron(a.ravel(), h))

    # numerical rank agrees with exact rank over the Gaussian integers
    for _ in range(50):
        rows, cols = int(rng.integers(2, 10)), int(rng.integers(2, 10))
        m = rng.integers(-9, 10, (rows, cols)) + 1j * rng.integers(-9, 10, (rows, cols))
        exact = sympy.Matrix([
            [sympy.Integer(int(m[i, j].real)) + sympy.I * sympy.Integer(int(m[i, j].imag))
             for j in range(cols)] for i in range(rows)]).rank()
        assert family_rank(m.astype(complex)) == exact
