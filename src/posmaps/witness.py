"""Kernels of Phi(P_x), randomized span certificates, and the named families.

Two subspaces are estimated for a map Phi on M_n(C):

  M: span{ x (x) y : Phi(P_x) y = 0 },          ambient n^2, full dim n^2
  N: span{ vec(P_x) (x) y : Phi(P_x) y = 0 },   ambient n^3, target (n^2-1) n

Reaching the target dimension is a sufficient criterion (optimality for M,
exposedness for N when the map is also unital and irreducible), so a run
that stops by budget without saturating is inconclusive, never a refutation.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (
    BadDimension,
    EmptyFamily,
    InconsistentResult,
    NonpositiveState,
    ToolkitError,
    UnknownFamily,
)
from .numlin import (
    DEFAULT_TOLS,
    HERM_TOL,
    SpanAccumulator,
    Tolerances,
    hermitian_eig,
    make_rng,
    random_unit_vector,
)
from .posmap import MapRep
from .antisym import u0
from .reports import FAIL, INCONCLUSIVE, PASS

# consecutive sample vectors allowed to add no dimension before the
# estimator declares saturation
SATURATION_WINDOW = 64
# samples whose candidates are projected against the basis together
SPAN_BLOCK = 16


@dataclass(frozen=True)
class SpanReport:
    """Outcome of a randomized span estimation."""

    map_name: str
    kind: str  # "M" or "N"
    target_dim: int
    ambient_dim: int
    achieved_dim: int
    samples_used: int
    saturated: bool
    seed: int
    tolerances: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def verdict(self, expect_dim: int) -> str:
        """PASS, FAIL or INCONCLUSIVE for a span expected to saturate at expect_dim.

        A run that stopped by budget proves nothing, whatever it reached.  A
        saturated run passes at expect_dim and fails anywhere else.
        """
        if not self.saturated:
            return INCONCLUSIVE
        return PASS if self.achieved_dim == expect_dim else FAIL


def kernel_of_state(phi: MapRep, x, tols: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Orthonormal basis (columns) of ker Phi(P_x) for the normalized x.

    Phi(P_x) must pass hermitian_eig's check.  Eigenvalues up to the cut
    tols.kernel * max|eigenvalue| count as zero; one below minus the cut
    raises NonpositiveState, which doubles as a positivity alarm.  The cut
    scales with Phi, so c Phi has the kernels of Phi for every c > 0.
    """
    x = np.asarray(x, dtype=np.complex128).ravel()
    nx = np.linalg.norm(x)
    if nx == 0.0:
        raise BadDimension("x must be a nonzero vector")
    x = x / nx
    m = phi.apply(np.outer(x, x.conj()))
    w, v = hermitian_eig(m)
    cut = tols.kernel * np.abs(w).max()
    if w[0] < -cut:
        raise NonpositiveState(
            f"Phi(P_x) has eigenvalue {w[0]:.3e} < -{cut:.1e}")
    return v[:, w <= cut]


def _grid_vectors(n: int):
    """Deterministic unit-vector grid: e_k, then e_k +/- e_l and e_k +/- i e_l."""
    eye = np.eye(n, dtype=np.complex128)
    for k in range(n):
        yield eye[k]
    s = 1.0 / np.sqrt(2.0)
    for k, l in itertools.combinations(range(n), 2):
        yield s * (eye[k] + eye[l])
        yield s * (eye[k] - eye[l])
        yield s * (eye[k] + 1j * eye[l])
        yield s * (eye[k] - 1j * eye[l])


def _generators(phi: MapRep, kind: str, x: np.ndarray, tols: Tolerances) -> np.ndarray:
    """One row per kernel vector y of Phi(P_x): kron(x, y) for M, kron(x, xbar, y) for N."""
    ys = kernel_of_state(phi, x, tols).T
    w = x if kind == "M" else np.outer(x, x.conj()).ravel()
    k, n = ys.shape
    return (w[None, :, None] * ys[:, None, :]).reshape(k, w.size * n)


def _estimate(phi: MapRep, kind: str, budget: int | None, seed: int,
              tols: Tolerances) -> SpanReport:
    n = phi.n
    if kind == "M":
        ambient, target = n * n, n * n
    else:
        ambient, target = n ** 3, dn_bound(n)
    if budget is None:
        budget = 10 * n ** 3
    if budget < 1:
        raise BadDimension(f"budget must be >= 1, got {budget}")
    rng = make_rng(seed)
    acc = SpanAccumulator(ambient, tols.rank)
    xs = itertools.chain(_grid_vectors(n),
                         (random_unit_vector(rng, n) for _ in itertools.count()))
    used = 0
    misses = 0
    saturated = False
    while used < budget and not saturated:
        # Harvest a block and stage its candidates in one projection.  Sized
        # so that a window or budget stop lands on the block's last sample;
        # only a full span can stop earlier and leave samples unused.
        size = min(SPAN_BLOCK, SATURATION_WINDOW - misses, budget - used)
        block, error = [], None
        for x in itertools.islice(xs, size):
            try:
                block.append(_generators(phi, kind, x, tols))
            except ToolkitError as exc:  # raised only if the loop reaches x
                error = exc
                break
        if block:
            acc.stage(np.concatenate(block))
        for gens in block:
            used += 1
            grew = False
            for g in gens:
                if acc.try_add(g):
                    grew = True
            misses = 0 if grew else misses + 1
            if acc.dim == ambient or misses >= SATURATION_WINDOW:
                saturated = True
                break
        if error is not None and not saturated:
            raise error
    return SpanReport(map_name=phi.name, kind=kind, target_dim=target,
                      ambient_dim=ambient, achieved_dim=acc.dim,
                      samples_used=used, saturated=saturated, seed=seed,
                      tolerances=asdict(tols) | {"herm": HERM_TOL})


def estimate_M_dim(phi: MapRep, budget: int | None = None, seed: int = 0,
                   tols: Tolerances = DEFAULT_TOLS) -> SpanReport:
    """Randomized dimension of span{x (x) y} over kernel pairs."""
    return _estimate(phi, "M", budget, seed, tols)


def estimate_N_dim(phi: MapRep, budget: int | None = None, seed: int = 0,
                   tols: Tolerances = DEFAULT_TOLS) -> SpanReport:
    """Randomized dimension of span{x (x) xbar (x) y} over kernel pairs."""
    return _estimate(phi, "N", budget, seed, tols)


def _e(n: int, k: int) -> np.ndarray:
    v = np.zeros(n, dtype=np.complex128)
    v[k] = 1.0
    return v


def _example_xs() -> list[np.ndarray]:
    e1, e2 = _e(2, 0), _e(2, 1)
    return [e1, e2, e1 + e2, e1 - e2, e1 + 1j * e2, e1 - 1j * e2]


def paper_family_pairs(name: str) -> list[tuple[np.ndarray, np.ndarray]]:
    """The published (x, y) kernel-pair lists, verbatim and unnormalized.

    "example1": six pairs for the transposition on M_2, with the last y
      corrected to e1 - i e2 (the value forced by the kernel condition
      <xbar|y> = 0 for x = e1 - i e2).
    "example1-printed": same list but with the last y as printed, e1 - e2,
      which violates the kernel condition; kept for separate reporting.
    "example2": the reduction map on M_2, y = x throughout.
    "prop3": thirty vectors in C^4 paired with BOTH y = x and y = U0 xbar,
      sixty pairs total, for the n=4 map.
    """
    if name in ("example1", "example1-printed"):
        e1, e2 = _e(2, 0), _e(2, 1)
        ys = [e2, e1, e1 - e2, e1 + e2, e1 + 1j * e2,
              e1 - e2 if name == "example1-printed" else e1 - 1j * e2]
        return list(zip(_example_xs(), ys))
    if name == "example2":
        return [(x, x) for x in _example_xs()]
    if name == "prop3":
        es = [_e(4, k) for k in range(4)]
        skip = {(0, 1), (2, 3)}
        xs = list(es)
        xs += [es[k] + es[l] for k, l in itertools.combinations(range(4), 2)]
        xs += [es[k] - es[l] for k, l in itertools.combinations(range(4), 2)
               if (k, l) not in skip]
        xs += [es[k] + 1j * es[l] for k, l in itertools.combinations(range(4), 2)]
        xs += [es[k] - 1j * es[l] for k, l in itertools.combinations(range(4), 2)
               if (k, l) not in skip]
        xs += [es[0] + es[1] + es[2],
               1j * es[0] + es[1] + es[2],
               es[0] + 1j * es[1] + es[2],
               es[1] + es[2] + es[3],
               es[1] + 1j * es[2] + es[3],
               es[1] + es[2] + 1j * es[3]]
        m = u0(4).matrix
        pairs = []
        for x in xs:
            pairs.append((x, x.copy()))
            pairs.append((x, m @ x.conj()))
        return pairs
    raise UnknownFamily(f"unknown family {name!r}")


def paper_family(name: str) -> list[np.ndarray]:
    """The x (x) xbar (x) y vectors of the named family."""
    return [np.kron(np.kron(x, x.conj()), y) for x, y in paper_family_pairs(name)]


def dn_formula(n: int) -> int:
    """n (n+1) (5n-2) / 6, exactly; the product is divisible by 6 for every n."""
    if n < 1:
        raise BadDimension(f"n must be >= 1, got {n}")
    num = n * (n + 1) * (5 * n - 2)
    if num % 6 != 0:
        raise InconsistentResult(f"n(n+1)(5n-2) = {num} not divisible by 6")
    return num // 6


def dn_bound(n: int) -> int:
    """(n^2 - 1) n, the strong-spanning target dimension."""
    if n < 1:
        raise BadDimension(f"n must be >= 1, got {n}")
    return n * (n * n - 1)
