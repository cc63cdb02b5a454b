"""Numerical irreducibility: the commutant of a map's range.

A map Phi is irreducible when [Phi(X), Z] = 0 for all X forces Z to be a
scalar.  By linearity it is enough to quantify over the matrix units, so
the commutant is the nullspace of the stacked n^4 x n^2 system
Z -> Phi(E_ij) Z - Z Phi(E_ij).

Any few range elements Phi(H_1), ..., Phi(H_k) give a one-sided
certificate first: their commutant contains the range's, so a
one-dimensional probe commutant proves irreducibility from a k n^2 x n^2
system.  A larger one proves nothing, and the full system decides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InconsistentResult
from .numlin import DEFAULT_TOLS, make_rng, nullspace
from .posmap import MapRep

# Random Hermitian inputs of the probe, drawn from a fixed seed so that
# every verdict is reproducible.  Four images reach a one-dimensional
# commutant on every irreducible map the tests and benchmark build.
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


def _probe_images(phi: MapRep) -> np.ndarray:
    """Phi of PROBE_IMAGES random Hermitian matrices, shape (k, n, n)."""
    n = phi.n
    g = make_rng(PROBE_SEED).standard_normal((PROBE_IMAGES, 2, n, n))
    h = g[:, 0] + 1j * g[:, 1]
    return np.stack([phi.apply(x + x.conj().T) for x in h])


def commutant_of_range(phi: MapRep) -> CommutantResult:
    """Solve {Z : [Phi(X), Z] = 0 for every X}.

    The probe system of PROBE_IMAGES random range elements is solved
    first; a one-dimensional nullspace is the commutant.  Otherwise the
    n^4 x n^2 system over the matrix units decides.
    """
    n = phi.n
    ns = nullspace(_system(_probe_images(phi), n))
    if ns.shape[1] != 1:
        # superop column i n + j is vec(Phi(E_ij)), so the rows of its
        # transpose are the matrix-unit images, read without n^2 applies
        ns = nullspace(_system(phi.superop.T.reshape(n * n, n, n), n))
    dim = ns.shape[1]
    if dim == 0:
        raise InconsistentResult(
            "empty commutant; the identity always commutes")
    # A computed null vector drifts from the exact kernel by about
    # eps * s0 / s for the smallest kept singular value s > rank * s0, so
    # the identity check is bounded by a multiple of eps / rank.
    vi = np.eye(n, dtype=np.complex128).ravel() / np.sqrt(n)
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
