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
from .posmap import MapRep


@dataclass(frozen=True, eq=False)
class CommutantResult:
    """Nullspace of the commutation system, vectorized column per solution."""

    dim: int
    basis: np.ndarray  # (n^2, dim), orthonormal columns
    contains_identity: bool


def commutant_of_range(phi: MapRep, tol: float = DEFAULT_TOLS.rank) -> CommutantResult:
    """Solve {Z : [Phi(E_ij), Z] = 0 for every matrix unit E_ij}.

    The n^4 x n^2 system is filled in place, one n^2-row block per matrix
    unit in row-major order (block k = i n + j), so it is held once.
    vec([Y, Z]) = (Y (x) I - I (x) Y^T) vec(Z) under the row-major vec.
    """
    n = phi.n
    n2 = n * n
    eye = np.eye(n, dtype=np.complex128)
    system = np.empty((n2 * n2, n2), dtype=np.complex128)
    units = np.eye(n2, dtype=np.complex128).reshape(n2, n, n)
    for k in range(n2):
        y = phi.apply(units[k])
        system[k * n2:(k + 1) * n2] = np.kron(y, eye) - np.kron(eye, y.T)
    ns = nullspace(system, tol)
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
