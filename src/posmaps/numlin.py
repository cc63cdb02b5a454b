"""Shared numerical linear algebra: tolerances, ranks, nullspaces, spans, RNG.

All routines work on complex128 ndarrays.  Rank decisions are made two
ways on purpose: a batch SVD rank for one-shot questions, and an
incremental Gram-Schmidt accumulator for streaming span growth.  Tests
cross-check one against the other so a silent threshold bug in either
route gets caught.

Every cutoff is relative to the size of what it cuts, so c Phi gets the
decisions of Phi for every c > 0.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np


@dataclass(frozen=True)
class Tolerances:
    """The two cutoffs a span estimate takes (`span --tol-rank/--tol-kernel`).

    rank : singular-value and Gram-Schmidt cutoff, relative to the largest
        singular value or to the candidate's norm
    kernel : eigenvalue cutoff when harvesting kernels of PSD matrices,
        relative to the largest eigenvalue magnitude

    Both are relative, so every field must be finite, > 0 and < 1; anything
    else raises ToolkitError.  A zero, negative or NaN cutoff would count
    noise as span directions, and a kernel cutoff of 1 or more would count
    every eigenvalue as a kernel; either fakes a certificate.
    """

    rank: float = 1e-9
    kernel: float = 1e-10

    def __post_init__(self):
        from .errors import ToolkitError

        if not all(_valid_cutoff(t) for t in astuple(self)):
            raise ToolkitError(
                f"tolerances must be finite and > 0, with rank < 1 and kernel < 1; got {self}")


def _valid_cutoff(t: float) -> bool:
    """Finite, > 0 and < 1: a cutoff relative to a norm."""
    return math.isfinite(t) and 0 < t < 1


def _check_cutoff(name: str, t: float) -> float:
    """t as a float, or ToolkitError unless it is a valid relative cutoff."""
    from .errors import ToolkitError

    t = float(t)
    if not _valid_cutoff(t):
        raise ToolkitError(f"{name} must be finite and > 0 and < 1, got {t}")
    return t


DEFAULT_TOLS = Tolerances()
# max|m - m^dag| allowed, relative to max|m|, before hermitian_eig refuses m
HERM_TOL = 1e-12


def as_cmatrix(a, square: bool = False) -> np.ndarray:
    """Coerce to a 2-d complex128 array, validating shape."""
    from .errors import DimensionMismatch

    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d array, got ndim={m.ndim}")
    if square and m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def hermitian_eig(m):
    """Eigendecomposition of a Hermitian matrix, certifying hermiticity first.

    Returns (w, v) as np.linalg.eigh does (ascending eigenvalues).
    Raises NotHermitian if max|m - m^dag| exceeds HERM_TOL * max|m|.
    """
    from .errors import NotHermitian

    m = as_cmatrix(m, square=True)
    dev = np.abs(m - m.conj().T).max() if m.size else 0.0
    if dev > HERM_TOL * np.abs(m).max(initial=0.0):
        raise NotHermitian(f"deviation {dev:.3e} above {HERM_TOL:.0e} * max|m|")
    return np.linalg.eigh((m + m.conj().T) / 2.0)


def _rank(s: np.ndarray) -> int:
    """How many of the singular values s (descending) pass the rank cut."""
    return int(np.sum(s > DEFAULT_TOLS.rank * s[0])) if s.size else 0


def nullspace(m) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis of ker(m) as columns, via SVD, and the spectrum cut.

    Returns (basis, s): s holds the min(rows, cols) singular values of m in
    descending order, and singular values <= DEFAULT_TOLS.rank * s[0]
    count as zero.  So for a tall m, s[cols - k - 1] is the smallest value
    kept when basis has k < cols columns.  A zero (or empty) matrix
    returns the identity basis of its column space and zero values.
    """
    m = as_cmatrix(m)
    rows, cols = m.shape
    if rows == 0 or cols == 0 or not np.any(m):
        return np.eye(cols, dtype=np.complex128), np.zeros(min(rows, cols))
    # A tall system has the singular values and right factor of its
    # cols x cols QR factor R, so no rows x cols left factor is built.  A
    # wide system needs the full vh: its last cols - rows rows are kernel
    # directions the thin factor drops.
    if rows > cols:
        m = np.linalg.qr(m, mode="r")
    _, s, vh = np.linalg.svd(m, full_matrices=rows < cols)
    return vh[_rank(s):].conj().T, s


def family_rank(vectors) -> int:
    """Rank of a family of vectors (rows or a sequence), SVD route.

    Singular values <= DEFAULT_TOLS.rank * max(s) count as zero.
    """
    from .errors import EmptyFamily

    arr = np.asarray(vectors, dtype=np.complex128)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise EmptyFamily("family_rank needs at least one vector")
    return _rank(np.linalg.svd(arr, compute_uv=False))


class SpanAccumulator:
    """Incrementally grown orthonormal basis of a span.

    try_add projects the candidate onto the orthogonal complement of the
    current basis (twice, for numerical stability) and keeps the residual
    iff its norm stays above tol relative to the candidate's norm.  tol
    must be finite, > 0 and < 1, or ToolkitError is raised.

    stage(rows) does the expensive part of that projection for a block of
    candidates at once: two GEMM passes against the basis as it stands.
    try_add then finishes a vector equal to the next staged row against
    only the rows added since; any other vector gets the full projection.

    The basis lives in the first dim rows of an ambient_dim-row buffer,
    allocated once with np.zeros.  The OS commits its pages only as rows
    are written, so resident memory follows the span's size, and no row is
    ever copied to grow it.
    """

    def __init__(self, ambient_dim: int, tol: float = DEFAULT_TOLS.rank):
        from .errors import BadDimension

        if ambient_dim < 1:
            raise BadDimension(f"ambient_dim must be >= 1, got {ambient_dim}")
        self.ambient_dim = int(ambient_dim)
        self.tol = _check_cutoff("tol", tol)
        self._buf = np.zeros((self.ambient_dim, self.ambient_dim), dtype=np.complex128)
        self._dim = 0
        # stage(): copied rows, their residuals, the dim they were projected
        # at, and the index of the next row try_add expects
        self._staged = self._residuals = None
        self._mark = self._next = 0

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def basis(self) -> np.ndarray:
        """Current orthonormal basis, one vector per row (copy)."""
        return self._buf[:self._dim].copy()

    def _project(self, r: np.ndarray, start: int) -> np.ndarray:
        """r (one vector, or one per row) minus its part along basis rows start:dim."""
        b = self._buf[start:self._dim]
        for _ in range(2):  # reorthogonalize: one pass leaks for near-parallel input
            # r @ conj(b).T without copying b: conj(conj(r) @ b.T)
            r = r - (r.conj() @ b.T).conj() @ b
        return r

    def stage(self, rows) -> None:
        """Project a block of candidates against the current basis ahead of try_add.

        rows holds one candidate per row; they are copied, so later changes
        to the caller's array cannot pair a vector with a stale residual.
        """
        from .errors import DimensionMismatch

        rows = np.array(rows, dtype=np.complex128)
        if rows.ndim != 2 or rows.shape[1] != self.ambient_dim:
            raise DimensionMismatch(
                f"rows of shape {rows.shape} in ambient dim {self.ambient_dim}")
        self._staged = rows
        self._residuals = self._project(rows, 0)
        self._mark, self._next = self._dim, 0

    def _residual(self, r: np.ndarray) -> np.ndarray:
        """r projected off the whole basis, from its staged residual when it has one."""
        staged = self._staged
        if staged is None or not np.array_equal(r, staged[self._next]):
            return self._project(r, 0)
        r = self._project(self._residuals[self._next], self._mark)
        self._next += 1
        if self._next == len(staged):
            self._staged = self._residuals = None
        return r

    def try_add(self, v) -> bool:
        """Add v's new direction if any; return True iff dim grew."""
        from .errors import DimensionMismatch

        r = np.asarray(v, dtype=np.complex128).ravel()
        if r.shape != (self.ambient_dim,):
            raise DimensionMismatch(
                f"vector of length {r.size} in ambient dim {self.ambient_dim}")
        scale = np.linalg.norm(r)
        if scale == 0.0 or self._dim == self.ambient_dim:
            return False
        r = self._residual(r)
        rnorm = np.linalg.norm(r)
        if rnorm <= self.tol * scale:
            return False
        self._buf[self._dim] = r / rnorm
        self._dim += 1
        return True


def make_rng(seed: int | None) -> np.random.Generator:
    """PCG64 generator; the single RNG entry point for reproducibility.

    A negative seed raises ToolkitError; None draws fresh OS entropy.
    """
    from .errors import ToolkitError

    if seed is not None and seed < 0:
        raise ToolkitError(f"seed must be >= 0, got {seed}")
    return np.random.Generator(np.random.PCG64(seed))


def random_unit_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-uniform unit vector in C^n (normalized complex Gaussian)."""
    from .errors import BadDimension

    if n < 1:
        raise BadDimension(f"n must be >= 1, got {n}")
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    nz = np.linalg.norm(z)
    while nz == 0.0:  # pragma: no cover - probability zero
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        nz = np.linalg.norm(z)
    return z / nz


def random_haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary: QR of a Ginibre matrix with phase fix."""
    from .errors import BadDimension

    if n < 1:
        raise BadDimension(f"n must be >= 1, got {n}")
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
