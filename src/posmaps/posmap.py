"""Positive maps on M_n(C): constructors, application, Choi matrices.

A map is stored as its n^2 x n^2 superoperator acting on row-major
vectorizations, vec(A)[i*n + j] = A[i, j].  With this convention
vec(|x><x|) = x (x) xbar, so kernel-pair families translate literally
into x (x) xbar (x) y.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .antisym import AntisymmetricUnitary, certify_antisymmetric_unitary, u0
from .errors import BadDimension, DimensionMismatch, DimensionTooSmall
from .numlin import as_cmatrix, make_rng


def vec(m) -> np.ndarray:
    """Row-major vectorization."""
    return as_cmatrix(m).ravel()


def unvec(v) -> np.ndarray:
    """Inverse of vec for square matrices; each row of a 2-d v is one vec."""
    arr = np.asarray(v, dtype=np.complex128)
    if arr.ndim != 2:
        arr = arr.ravel()
    n = round(arr.shape[-1] ** 0.5)
    if n * n != arr.shape[-1]:
        raise DimensionMismatch(f"length {arr.shape[-1]} is not a perfect square")
    return arr.reshape(arr.shape[:-1] + (n, n))


@dataclass(frozen=True, eq=False)
class MapRep:
    """Linear map on M_n(C) held as a superoperator.

    superop columns follow the vec convention: column i*n+j is
    vec(Phi(E_ij)) for the matrix unit E_ij.
    """

    n: int
    superop: np.ndarray
    name: str

    def __post_init__(self):
        if self.n < 1:
            raise BadDimension(f"n must be >= 1, got {self.n}")
        if self.superop.shape != (self.n * self.n, self.n * self.n):
            raise DimensionMismatch(
                f"superop shape {self.superop.shape} for n={self.n}")

    def apply(self, x) -> np.ndarray:
        """Phi(X) for an n x n X, or Phi of each matrix of a (k, n, n) stack.

        Each matrix of a stack gets the bits it gets alone: np.matmul makes
        the same matrix-vector product superop @ vec(X) for every one.
        """
        x = as_cmatrix(x, square=True, stack=True)
        n = self.n
        if x.shape[-1] != n:
            raise DimensionMismatch(f"expected {n}x{n}, got {x.shape}")
        return np.matmul(self.superop, x.reshape(-1, n * n, 1)).reshape(x.shape)


def map_from_action(n: int, action, name: str) -> MapRep:
    """Build the superoperator of X -> action(X) by columns over matrix units."""
    if n < 1:
        raise BadDimension(f"n must be >= 1, got {n}")
    s = np.zeros((n * n, n * n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=np.complex128)
            e[i, j] = 1.0
            s[:, i * n + j] = np.asarray(action(e), dtype=np.complex128).ravel()
    return MapRep(n=n, superop=s, name=name)


def transpose_map(n: int) -> MapRep:
    """tau(X) = X^T."""
    if n < 2:
        raise BadDimension(f"transpose map defined here for n >= 2, got {n}")
    return map_from_action(n, lambda x: x.T, f"transpose_{n}")


def reduction_map(n: int) -> MapRep:
    """R_n(X) = I Tr(X) - X; unital only at n = 2."""
    if n < 2:
        raise BadDimension(f"reduction map defined here for n >= 2, got {n}")
    eye = np.eye(n, dtype=np.complex128)
    return map_from_action(n, lambda x: eye * np.trace(x) - x, f"reduction_{n}")


def trace_map(n: int) -> MapRep:
    """X -> Tr(X) I / n; the fully depolarizing map, maximally reducible."""
    if n < 1:
        raise BadDimension(f"n must be >= 1, got {n}")
    eye = np.eye(n, dtype=np.complex128)
    return map_from_action(n, lambda x: eye * (np.trace(x) / n), f"trace_{n}")


def breuer_hall(u) -> MapRep:
    """Phi_U(X) = (I Tr X - X - U X^T U^dag) / (n - 2) for antisymmetric unitary U.

    Unital and trace-preserving; the kernel of Phi_U(P_x) is span{x, U xbar}
    for every unit x.  n = 2 is rejected (normalization 1/(n-2) degenerates).
    """
    if not isinstance(u, AntisymmetricUnitary):
        u = certify_antisymmetric_unitary(u)
    n = u.n
    if n < 4:
        raise DimensionTooSmall(f"normalization 1/(n-2) needs n >= 4, got {n}")
    m = u.matrix
    eye = np.eye(n, dtype=np.complex128)
    udag = m.conj().T

    def action(x):
        return (eye * np.trace(x) - x - m @ x.T @ udag) / (n - 2)

    return map_from_action(n, action, f"breuer_hall_{n}")


def robertson_map() -> MapRep:
    """The n=4 map (I Tr X - X - U0 X^T U0^dag)/2; equals breuer_hall(u0(4))."""
    return dataclasses.replace(breuer_hall(u0(4)), name="robertson")


def choi(phi: MapRep) -> np.ndarray:
    """Choi matrix C = sum_ij E_ij (x) Phi(E_ij), via index reshuffle."""
    n = phi.n
    return (phi.superop.reshape(n, n, n, n)
            .transpose(2, 0, 3, 1)
            .reshape(n * n, n * n))


def superop_from_choi(c) -> np.ndarray:
    """Inverse reshuffle: recover the superoperator from a Choi matrix."""
    c = as_cmatrix(c, square=True)
    n = round(c.shape[0] ** 0.5)
    if n * n != c.shape[0]:
        raise DimensionMismatch(f"Choi side {c.shape[0]} is not a perfect square")
    return (c.reshape(n, n, n, n)
            .transpose(1, 3, 0, 2)
            .reshape(n * n, n * n))


def map_from_choi(c, name: str) -> MapRep:
    s = superop_from_choi(c)
    n = round(s.shape[0] ** 0.5)
    return MapRep(n=n, superop=s, name=name)


@dataclass(frozen=True)
class PositivitySample:
    """Sampled minimum of <y|Phi(P_x)|y> over random unit pairs."""

    min_value: float
    x: np.ndarray
    y: np.ndarray
    trials: int
    seed: int


# Most sampled pairs evaluated at once: each batch holds three rows x n^2
# complex arrays, however many trials are drawn.
SAMPLE_BATCH_ROWS = 1024


def _sample_values(phi: MapRep, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """<y_t|Phi(P_{x_t})|y_t> for each row t of the unit rows xs and ys.

    Evaluates even batches of at most SAMPLE_BATCH_ROWS rows.  With two or
    more rows no batch is a single row, whose product would take the
    matrix-vector route and could round differently from the one-batch
    product.
    """
    n = phi.n
    batches = -(-len(xs) // SAMPLE_BATCH_ROWS)
    out = []
    for x, y in zip(np.array_split(xs, batches), np.array_split(ys, batches)):
        # row t of px is vec(P_{x_t}); of wy is kron(ybar_t, y_t)
        px = (x[:, :, None] * x.conj()[:, None, :]).reshape(len(x), n * n)
        wy = (y.conj()[:, :, None] * y[:, None, :]).reshape(len(y), n * n)
        out.append(np.einsum("tp,tp->t", wy, px @ phi.superop.T).real)
    return np.concatenate(out)


def positivity_sample_test(phi: MapRep, trials: int, seed: int) -> PositivitySample:
    """Monte-Carlo necessary check of positivity.

    A sampled value below round-off certifies that Phi is not positive;
    `verify positivity-sample` draws that line at -DEFAULT_TOLS.kernel.  A
    nonnegative minimum is only evidence.  Draws every x first, then every
    y, so results are reproducible for a fixed seed, and evaluates the pairs
    in batches (`_sample_values`).
    """
    if trials < 1:
        raise BadDimension(f"trials must be >= 1, got {trials}")
    n = phi.n
    rng = make_rng(seed)

    def unit_rows(count):
        z = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
        return z / np.linalg.norm(z, axis=1, keepdims=True)

    xs = unit_rows(trials)
    ys = unit_rows(trials)
    vals = _sample_values(phi, xs, ys)
    k = int(np.argmin(vals))
    return PositivitySample(min_value=float(vals[k]), x=xs[k].copy(),
                            y=ys[k].copy(), trials=trials, seed=seed)
