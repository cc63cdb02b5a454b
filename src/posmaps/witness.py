"""Kernels of Phi(P_x), randomized span certificates, and the named families.

Two subspaces are estimated for a map Phi on M_n(C):

  M: span{ x (x) y : Phi(P_x) y = 0 },          ambient n^2, full dim n^2
  N: span{ vec(P_x) (x) y : Phi(P_x) y = 0 },   ambient n^3, target (n^2-1) n

Reaching the target dimension is a sufficient criterion (optimality for M,
exposedness for N when the map is also unital and irreducible), so a run
that stops by budget without saturating is inconclusive, never a refutation.
Every N generator lies in the kernel of kernel_pair_operator(Phi), so an N
estimate above n^3 - rank of that operator is an error, never a result.
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
    family_rank,
    hermitian_eig,
    make_rng,
    random_unit_vector,
    row_norms,
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

    x may also be a (k, n) stack of vectors x_i.  The result is then a
    basis of the direct sum of the kernels, of shape (k n, K): each column
    is supported on one summand, and the columns come in the order of the
    x_i.  The stack takes one apply and one batched eigh, and each summand
    gets the bits its x_i gets alone; one vector is the case k = 1.

    Phi(P_x) must pass hermitian_eig's check.  Eigenvalues up to the cut
    tols.kernel * max|eigenvalue| count as zero; one below minus the cut
    raises NonpositiveState, which doubles as a positivity alarm.  The cut
    scales with Phi, so c Phi has the kernels of Phi for every c > 0.  A
    stack is cut summand by summand, and an error names the first failing x_i.
    """
    xs = np.asarray(x, dtype=np.complex128)
    where = "x {}: " if xs.ndim == 2 else ""  # an error names x_i of a stack
    if xs.ndim != 2:
        xs = xs.reshape(1, -1)
    nx = row_norms(xs)
    if not nx.all():
        raise BadDimension(f"{where.format(np.argmin(nx))}x must be a nonzero vector")
    xs = xs / nx[:, None]
    w, v = hermitian_eig(phi.apply(xs[:, :, None] * xs.conj()[:, None, :]))
    cut = tols.kernel * np.abs(w).max(axis=1)
    low = w[:, 0] < -cut
    if low.any():
        i = int(np.argmax(low))
        raise NonpositiveState(
            f"{where.format(i)}Phi(P_x) has eigenvalue {w[i, 0]:.3e} < -{cut[i]:.1e}")
    owner, col = np.nonzero(w <= cut[:, None])
    k, n = xs.shape
    out = np.zeros((k, n, owner.size), dtype=np.complex128)
    out[owner, :, np.arange(owner.size)] = v[owner, :, col]
    return out.reshape(k * n, owner.size)


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


def _generators(kind: str, xs: np.ndarray, ker: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows kron(x_i, y) for M, kron(x_i, xbar_i, y) for N, per column of ker.

    ker is kernel_of_state of the stacked samples xs, so its column y is
    supported on the summand of one x_i; that x_i enters as sampled, not
    normalized.  Returns the rows in column order and how many each x_i has.
    """
    k, n = xs.shape
    ker = ker.reshape(k, n, -1)
    cols = np.arange(ker.shape[2])
    owner = (ker != 0).any(axis=1).argmax(axis=0)
    w = xs if kind == "M" else (xs[:, :, None] * xs.conj()[:, None, :]).reshape(k, n * n)
    rows = w[owner][:, :, None] * ker[owner, :, cols][:, None, :]
    return rows.reshape(cols.size, w.shape[1] * n), np.bincount(owner, minlength=k)


def _harvest(phi: MapRep, kind: str, xs: np.ndarray, tols: Tolerances):
    """(rows, counts, error): the generators of the samples xs and how many each has.

    One stacked kernel_of_state call harvests every sample.  If it raises,
    the samples are harvested again one at a time up to the first that
    raises, and that error is returned, not raised: only a sample the
    estimator reaches may raise.
    """
    try:
        return (*_generators(kind, xs, kernel_of_state(phi, xs, tols)), None)
    except ToolkitError:
        pass
    parts, error = [], None
    for x in xs:
        try:
            parts.append(_generators(kind, x[None], kernel_of_state(phi, x, tols)))
        except ToolkitError as exc:
            error = exc
            break
    if not parts:
        return None, (), error
    rows, counts = zip(*parts)
    return np.concatenate(rows), np.concatenate(counts), error


def kernel_pair_operator(phi: MapRep) -> np.ndarray:
    """The n x n^3 matrix L with L @ kron(vec(X), y) == Phi(X) @ y for all X, y.

    Each N generator kron(vec(P_x), y) has Phi(P_x) y = 0, so lies in ker L:
    an N span has dimension at most n^3 - rank L, and rank L <= n.
    """
    n = phi.n
    # superop[i*n + j, kl] is Phi(E_kl)[i, j]; column kl*n + j of L pairs it with y_j
    return phi.superop.reshape(n, n, n * n).transpose(0, 2, 1).reshape(n, n ** 3)


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
        block = np.array(list(itertools.islice(xs, size)))
        rows, counts, error = _harvest(phi, kind, block, tols)
        rows = acc.stage(rows) if len(counts) else ()
        end = 0
        for count in counts:
            used += 1
            grew = False
            for g in rows[end:end + count]:
                if acc.try_add(g):
                    grew = True
            end += count
            misses = 0 if grew else misses + 1
            if acc.dim == ambient or misses >= SATURATION_WINDOW:
                saturated = True
                break
        if error is not None and not saturated:
            raise error
    # rank L <= n, so only a span above n^3 - n needs the rank
    if kind == "N" and acc.dim > ambient - n:
        bound = ambient - family_rank(kernel_pair_operator(phi))
        if acc.dim > bound:
            raise InconsistentResult(
                f"N span of dimension {acc.dim} above its bound n^3 - rank L = {bound}")
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
