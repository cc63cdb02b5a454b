"""Antisymmetric unitary matrices and their real canonical form.

An antisymmetric unitary U (U^T = -U, U^dag U = I, even dimension) can be
written U = R . diag{e^{i a_k} i sigma_y} . R^T with R real orthogonal.
The decomposition here works through the eigenstructure: if U v = lam v
then U vbar = -lam vbar (because U Ubar = -I), so eigenvalues come in
(lam, -lam) pairs on the unit circle and each pair supplies one 2x2 block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadDimension,
    DecompositionFailed,
    NotAntisymmetricUnitary,
    OddDimension,
    PairingFailed,
)
from .numlin import as_cmatrix, random_haar_unitary

ISY = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=np.complex128)  # i * sigma_y

TWO_PI = 2.0 * np.pi

# Width of the guard band at the alpha-window boundary.  Eigenvalue jitter
# from the eigensolver is ~1e-15; phases within _SNAP of the boundary are
# treated as sitting on it so that exactly degenerate spectra (u0 and its
# unitary congruences) select all representatives from one half-plane.
_SNAP = 1e-10

# Cutoffs: the max-abs residuals of U^T = -U and U^dag U = I that
# certify_antisymmetric_unitary accepts, and the eigenvalue-pairing and
# reconstruction residuals that canonical_decompose accepts.
ANTISYM_TOL = 1e-12
DECOMPOSE_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class AntisymmetricUnitary:
    """A certified antisymmetric unitary; build via certify_antisymmetric_unitary."""

    n: int
    matrix: np.ndarray


def certify_antisymmetric_unitary(matrix) -> AntisymmetricUnitary:
    """Validate U^T = -U and U^dag U = I within ANTISYM_TOL; wrap on success.

    Raises OddDimension for odd input (no antisymmetric unitary exists
    there: det U = det U^T = (-1)^n det U) and NotAntisymmetricUnitary
    when either residual exceeds ANTISYM_TOL.
    """
    u = as_cmatrix(matrix, square=True)
    n = u.shape[0]
    if n % 2 == 1:
        raise OddDimension(f"antisymmetric unitaries need even dimension, got {n}")
    if n < 2:
        raise BadDimension(f"dimension must be >= 2, got {n}")
    anti = np.abs(u.T + u).max()
    if anti > ANTISYM_TOL:
        raise NotAntisymmetricUnitary(
            f"antisymmetry residual {anti:.3e} > {ANTISYM_TOL:.1e}")
    unit = np.abs(u.conj().T @ u - np.eye(n)).max()
    if unit > ANTISYM_TOL:
        raise NotAntisymmetricUnitary(
            f"unitarity residual {unit:.3e} > {ANTISYM_TOL:.1e}")
    return AntisymmetricUnitary(n=n, matrix=u.copy())


def u0(n: int) -> AntisymmetricUnitary:
    """Block-diagonal reference form: n/2 copies of i*sigma_y."""
    if n < 2:
        raise BadDimension(f"dimension must be >= 2, got {n}")
    if n % 2 == 1:
        raise OddDimension(f"u0 needs even dimension, got {n}")
    m = np.kron(np.eye(n // 2, dtype=np.complex128), ISY)
    return AntisymmetricUnitary(n=n, matrix=m)


def random_antisymmetric_unitary(rng: np.random.Generator, n: int) -> AntisymmetricUnitary:
    """Draw U = V u0 V^T with Haar V."""
    if n % 2 == 1:
        raise OddDimension(f"antisymmetric unitaries need even dimension, got {n}")
    v = random_haar_unitary(rng, n)
    return certify_antisymmetric_unitary(v @ u0(n).matrix @ v.T)


@dataclass(frozen=True, eq=False)
class CanonicalForm:
    """Result of canonical_decompose: U = r . diag{e^{i a} i sigma_y} . r^T.

    alphas are reported in [0, pi): the pair (a, a + pi) describes the same
    block with the two real frame columns swapped, so the half-open interval
    fixes the representative.  Blocks are sorted by alpha ascending; for
    degenerate alphas the frame is any valid completion.
    """

    r: np.ndarray
    alphas: tuple[float, ...]

    def __post_init__(self):
        shape = self.r.shape
        if len(shape) != 2 or shape[0] != shape[1] or shape[0] % 2 or shape[0] < 2:
            raise BadDimension(f"frame must be square with even dimension, got {shape}")
        if len(self.alphas) != shape[0] // 2:
            raise BadDimension(
                f"{len(self.alphas)} phases do not match dimension {shape[0]}")

    @property
    def n(self) -> int:
        return self.r.shape[0]

    def block_diagonal(self) -> np.ndarray:
        """diag{e^{i alpha_k} i sigma_y}."""
        phases = np.exp(1j * np.asarray(self.alphas))
        return np.kron(np.diag(phases), ISY)

    def reconstruct(self) -> np.ndarray:
        return self.r @ self.block_diagonal() @ self.r.T

    @property
    def v(self) -> np.ndarray:
        """A unitary V with U = V u0 V^T, namely R . diag{e^{i a_k/2} I_2}."""
        half = np.exp(0.5j * np.asarray(self.alphas))
        return self.r @ np.kron(np.diag(half), np.eye(2))


def _pair_indices(lam: np.ndarray) -> list[tuple[int, int]]:
    """Greedy matching of eigenvalues into (lam, -lam) pairs within DECOMPOSE_TOL."""
    left = list(range(lam.size))
    pairs = []
    while left:
        i = left.pop(0)
        resid = np.abs(lam[i] + lam[left])
        k = int(np.argmin(resid))
        if resid[k] > DECOMPOSE_TOL:
            raise PairingFailed(
                f"no partner for eigenvalue {lam[i]:.6f} within {DECOMPOSE_TOL:.1e} "
                f"(best residual {resid[k]:.3e})")
        pairs.append((i, left.pop(k)))
    return pairs


def _select_representative(phases: np.ndarray, i: int, j: int) -> tuple[float, int]:
    """Pick the pair member whose phase, taken mod 2 pi, falls in the
    half-open window [-_SNAP, pi - _SNAP); return (phase clamped at 0, index).

    Exactly one member qualifies except for jitter straddling the window
    edge; the guard band keeps exactly degenerate +/-i spectra on one side,
    which is what makes the assembled R orthogonal (selected eigenvectors
    then never contain a conjugate pair across blocks).  Ties go to i, the
    smaller index as _pair_indices returns it.
    """
    cand = []
    for k in (i, j):
        a = float(phases[k] % TWO_PI)
        if a >= TWO_PI - _SNAP:
            a -= TWO_PI
        cand.append((a, k))
    inside = [c for c in cand if c[0] < np.pi - _SNAP]
    a, k = min(inside) if inside else min(cand)
    return max(a, 0.0), k


def canonical_decompose(u) -> CanonicalForm:
    """Factor an antisymmetric unitary as R . diag{e^{i a_k} i sigma_y} . R^T.

    Accepts an AntisymmetricUnitary or a raw matrix (certified first).
    Raises DecompositionFailed when the reconstruction residual exceeds
    DECOMPOSE_TOL or R is not orthogonal, which signals ill-conditioned
    pairing (e.g. two distinct blocks with phases straddling 0 and pi
    within roughly 1e-10 of each other).
    """
    if not isinstance(u, AntisymmetricUnitary):
        u = certify_antisymmetric_unitary(u)
    m = u.matrix
    n = u.n
    lam, w = np.linalg.eig(m)
    phases = np.angle(-1j * lam)  # block phase alpha of each eigenvalue
    reps = [_select_representative(phases, i, j)
            for i, j in _pair_indices(lam)]
    reps.sort(key=lambda t: t[0])
    # QR keeps each column inside its own (possibly degenerate) eigenspace
    # because same-phase columns are adjacent after the sort and distinct
    # eigenspaces of a normal matrix are orthogonal.
    stack = np.stack([w[:, k] for _, k in reps], axis=1)
    q, _ = np.linalg.qr(stack)
    r = np.empty((n, n), dtype=np.float64)
    for b in range(n // 2):
        # real frame of the pair plane: (v + vbar)/sqrt2 and -i(v - vbar)/sqrt2
        r[:, 2 * b] = np.sqrt(2.0) * q[:, b].real
        r[:, 2 * b + 1] = np.sqrt(2.0) * q[:, b].imag
    form = CanonicalForm(r=r, alphas=tuple(a for a, _ in reps))
    orth = np.abs(r.T @ r - np.eye(n)).max()
    if orth > 1e-10:
        raise DecompositionFailed(f"frame not orthogonal: residual {orth:.3e}")
    resid = np.abs(m - form.reconstruct()).max()
    if resid > DECOMPOSE_TOL:
        raise DecompositionFailed(
            f"reconstruction residual {resid:.3e} > {DECOMPOSE_TOL:.1e}")
    return form
