"""Numerical irreducibility: the commutant of a map's range.

A map Phi is irreducible when [Phi(X), Z] = 0 for all X forces Z to be a
scalar.  By linearity it is enough to quantify over the matrix units, so
the commutant is the nullspace of the stacked n^4 x n^2 system
Z -> Phi(E_ij) Z - Z Phi(E_ij).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InconsistentResult
from .numlin import DEFAULT_TOLS, nullspace
from .posmap import MapRep, unvec


@dataclass(frozen=True, eq=False)
class CommutantResult:
    """Nullspace of the commutation system, vectorized column per solution."""

    dim: int
    basis: np.ndarray  # (n^2, dim), orthonormal columns
    contains_identity: bool

    def matrices(self) -> list[np.ndarray]:
        return [unvec(self.basis[:, k]) for k in range(self.dim)]


def commutant_of_range(phi: MapRep, tol: float = DEFAULT_TOLS.rank,
                       basis=None) -> CommutantResult:
    """Solve {Z : [Phi(B), Z] = 0 for every operator B}.

    By default B runs over the matrix units; any spanning operator basis
    gives the same commutant and can be passed for cross-checking.
    vec([Y, Z]) = (Y (x) I - I (x) Y^T) vec(Z) under the row-major vec.
    """
    n = phi.n
    eye = np.eye(n, dtype=np.complex128)
    if basis is None:
        basis = []
        for i in range(n):
            for j in range(n):
                e = np.zeros((n, n), dtype=np.complex128)
                e[i, j] = 1.0
                basis.append(e)
    blocks = []
    for b in basis:
        y = phi.apply(b)
        blocks.append(np.kron(y, eye) - np.kron(eye, y.T))
    ns = nullspace(np.vstack(blocks), tol)
    dim = ns.shape[1]
    if dim == 0:
        raise InconsistentResult(
            "empty commutant; the identity always commutes")
    vi = eye.ravel() / np.sqrt(n)
    proj = ns @ (ns.conj().T @ vi)
    contains = bool(np.linalg.norm(proj - vi) <= 1e-8)
    if not contains:
        raise InconsistentResult(
            "identity missing from the computed commutant")
    return CommutantResult(dim=dim, basis=ns, contains_identity=contains)


def is_irreducible(phi: MapRep, tol: float = DEFAULT_TOLS.rank) -> bool:
    """True iff the commutant of the range is one-dimensional.

    commutant_of_range has already checked that the identity lies in the
    commutant, so a one-dimensional commutant is spanned by it.
    """
    return commutant_of_range(phi, tol).dim == 1
