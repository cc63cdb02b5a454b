"""Numerical irreducibility: the commutant of a map's range.

A map Phi is irreducible when [Phi(X), Z] = 0 for all X forces Z to be a
scalar.  By linearity it is enough to quantify over the matrix units, so
the commutant is the nullspace of the stacked n^4 x n^2 system S:
Z -> Phi(E_ij) Z - Z Phi(E_ij).  Its cut is tau = DEFAULT_TOLS.rank * s_0(S).

Four random range elements Phi(H_k) give a 4 n^2 x n^2 probe system
P = (W (x) I) S, where row k of W is vec(H_k).  Its nullspace N, with k
columns, is returned when two singular-value bounds prove that S has
exactly k singular values <= tau; only otherwise is S built.  S has the
exact null vector vec(I), so ||S||_F / n <= s_0(S) <= ||S||_F, and
||S||_F is read off the n^2 unit images without forming S:

- lower bound: ||S N||_F <= rank ||S||_F / n <= tau, so S has at least k
  singular values <= tau (Courant-Fischer);
- upper bound: s_i(P) <= ||W|| s_i(S) (Horn & Johnson, Topics in Matrix
  Analysis, Thm 3.3.16), so when the (k+1)-th smallest singular value of
  P exceeds ||W||_F rank ||S||_F, at most k of S's are <= tau.

At k = n^2 the lower bound holds only for S = 0, that is when every unit
image is exactly a multiple of I, and the upper bound has nothing to check.
Both bounds carry a slack for rounding, so every term scales with Phi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InconsistentResult
from .numlin import DEFAULT_TOLS, make_rng, nullspace
from .posmap import MapRep, unvec, vec

# Random Hermitian inputs of the probe, drawn from a fixed seed so that
# every verdict is reproducible.  Four images reach the commutant's
# dimension on every map the tests and benchmark build.
PROBE_IMAGES = 4
PROBE_SEED = 0


@dataclass(frozen=True, eq=False)
class CommutantResult:
    """Nullspace of the commutation system, vectorized column per solution."""

    dim: int
    basis: np.ndarray  # (n^2, dim), orthonormal columns
    contains_identity: bool


def _system(images: np.ndarray, n: int) -> np.ndarray:
    """Stack Y (x) I - I (x) Y^T for each Y in images, of shape (k, n, n).

    vec([Y, Z]) = (Y (x) I - I (x) Y^T) vec(Z) under the row-major vec.
    Entry ((a, b), (c, d)) of the block is Y[a, c] [b == d] - [a == c] Y[d, b],
    so it is filled along n diagonal slices of each kind.
    """
    k = images.shape[0]
    system = np.zeros((k, n, n, n, n), dtype=np.complex128)
    for b in range(n):
        system[:, :, b, :, b] = images
    for a in range(n):
        system[:, a, :, a, :] -= images.transpose(0, 2, 1)
    return system.reshape(k * n * n, n * n)


def _probe_inputs(n: int) -> np.ndarray:
    """PROBE_IMAGES random Hermitian n x n matrices, shape (k, n, n)."""
    g = make_rng(PROBE_SEED).standard_normal((PROBE_IMAGES, 2, n, n))
    h = g[:, 0] + 1j * g[:, 1]
    return h + h.conj().transpose(0, 2, 1)


def _probe_images(phi: MapRep) -> np.ndarray:
    """Phi of the probe inputs, shape (k, n, n), from one stacked apply."""
    return phi.apply(_probe_inputs(phi.n))


def _certified(basis: np.ndarray, s: np.ndarray, units: np.ndarray) -> bool:
    """True iff the probe nullspace provably has the full system's dimension.

    basis and s are what nullspace returned for the probe system, units
    the n^2 matrix-unit images.  The slack bounds the rounding of the
    probe images (n^2 eps per entry of superop @ vec(H)), of the system
    built from them (Frobenius gain 2 sqrt(n)), of its QR and SVD and of
    the commutators below, all by 4 n^2.5 eps ||Phi||_F.
    """
    n2, n = units.shape[0], units.shape[1]
    k = basis.shape[1]
    eye = np.eye(n, dtype=bool)
    if k == n2:
        # S = 0 exactly: every image is diagonal with one repeated entry
        diag = units[:, eye].reshape(n2, n)
        return not units[:, ~eye].any() and bool((diag == diag[:, :1]).all())
    # the traceless parts D_m: ||S||_F^2 = 2n sum_m ||D_m||_F^2, and
    # [A_m, Z] = [D_m, Z]
    d = units - (np.trace(units, axis1=1, axis2=2) / n)[:, None, None] * eye
    cut = DEFAULT_TOLS.rank * np.sqrt(2 * n) * np.linalg.norm(d)
    slack = 4 * n ** 2.5 * np.finfo(float).eps * np.linalg.norm(units)
    if not s[n2 - k - 1] > np.linalg.norm(_probe_inputs(n)) * (cut + slack):
        return False
    # ||S N||_F from D_m Z_a and Z_a D_m for every m, two GEMMs per Z_a
    dz = d.reshape(n2 * n, n)
    zd = d.transpose(1, 0, 2).reshape(n, n2 * n)
    sq = 0.0
    for z in unvec(basis.T):
        comm = ((dz @ z).reshape(n2, n, n)
                - (z @ zd).reshape(n, n2, n).transpose(1, 0, 2))
        sq += np.vdot(comm, comm).real
    return np.sqrt(sq) + np.sqrt(k) * slack <= cut / n


def commutant_of_range(phi: MapRep) -> CommutantResult:
    """Solve {Z : [Phi(X), Z] = 0 for every X}.

    The probe system of PROBE_IMAGES random range elements is solved
    first; its nullspace is the commutant when _certified proves that it
    has the full system's dimension.  Otherwise the n^4 x n^2 system over
    the matrix units decides.
    """
    n = phi.n
    # superop column i n + j is vec(Phi(E_ij)), so the rows of its
    # transpose are the matrix-unit images, read without n^2 applies
    units = phi.superop.T.reshape(n * n, n, n)
    ns, s = nullspace(_system(_probe_images(phi), n))
    if not _certified(ns, s, units):
        ns, _ = nullspace(_system(units, n))
    dim = ns.shape[1]
    if dim == 0:
        raise InconsistentResult(
            "empty commutant; the identity always commutes")
    # A computed null vector drifts from the exact kernel by about
    # eps * s0 / s for the smallest kept singular value s > rank * s0, so
    # the identity check is bounded by a multiple of eps / rank.
    vi = vec(np.eye(n)) / np.sqrt(n)
    proj = ns @ (ns.conj().T @ vi)
    contains = bool(np.linalg.norm(proj - vi)
                    <= 100 * np.finfo(float).eps / DEFAULT_TOLS.rank)
    if not contains:
        raise InconsistentResult(
            "identity missing from the computed commutant")
    return CommutantResult(dim=dim, basis=ns, contains_identity=contains)


def is_irreducible(phi: MapRep) -> bool:
    """True iff the commutant of the range is one-dimensional.

    commutant_of_range has already checked that the identity lies in the
    commutant, so a one-dimensional commutant is spanned by it.
    """
    return commutant_of_range(phi).dim == 1
