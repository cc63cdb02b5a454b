"""Reference implementations that only the tests use.

Each computes something the package already computes, by a second route,
so that a test can compare the two: the n=4 map through its 2x2-block
shape, a map applied through its Choi matrix, the eigenphases of an
antisymmetric unitary, the unitary covariance of the N-dimension, the
span estimator one candidate at a time, with no staging, the span
estimator harvesting one sample at a time, the matrix file
writer one entry at a time, the matrix file reader in one `json.load`, and
the positivity sampler in one batch.
"""

import itertools
import json
import math
from itertools import chain
from pathlib import Path

import numpy as np

from posmaps import (
    AntisymmetricUnitary,
    BadDimension,
    DimensionMismatch,
    InconsistentResult,
    MapRep,
    ToolkitError,
    breuer_hall,
    certify_antisymmetric_unitary,
    estimate_N_dim,
    make_rng,
    random_antisymmetric_unitary,
    u0,
)
from posmaps.antisym import _pair_indices, _select_representative
from posmaps.numlin import DEFAULT_TOLS, SpanAccumulator, as_cmatrix, random_unit_vector
from posmaps.witness import SATURATION_WINDOW, SPAN_BLOCK, _grid_vectors, kernel_of_state


def identity_map(n: int) -> MapRep:
    return MapRep(n=n, superop=np.eye(n * n, dtype=np.complex128),
                  name=f"identity_{n}")


def robertson_block_form(x) -> np.ndarray:
    """Apply the n=4 map through its 2x2-block shape instead of the superop.

    Writing X in 2x2 blocks [[A, B], [C, D]], the map evaluates to
    (1/2) [[I tr D, -(B + r(C))], [-(C + r(B)), I tr A]] with
    r(Y) = I tr Y - Y.  Serves as an independent cross-check of
    robertson_map, which must agree within 1e-12.
    """
    x = as_cmatrix(x, square=True)
    if x.shape != (4, 4):
        raise BadDimension(f"expected 4x4, got {x.shape}")
    a, b = x[:2, :2], x[:2, 2:]
    c, d = x[2:, :2], x[2:, 2:]
    eye = np.eye(2, dtype=np.complex128)

    def r(y):
        return eye * np.trace(y) - y

    out = np.empty((4, 4), dtype=np.complex128)
    out[:2, :2] = eye * np.trace(d)
    out[:2, 2:] = -(b + r(c))
    out[2:, :2] = -(c + r(b))
    out[2:, 2:] = eye * np.trace(a)
    return 0.5 * out


def apply_via_choi(c, x) -> np.ndarray:
    """Phi(X)[k,l] = sum_ij X[i,j] C[(i,k),(j,l)]; contraction route."""
    c = as_cmatrix(c, square=True)
    x = as_cmatrix(x, square=True)
    n = x.shape[0]
    if c.shape[0] != n * n:
        raise DimensionMismatch(f"Choi side {c.shape[0]} does not match n={n}")
    c4 = c.reshape(n, n, n, n)
    return np.einsum("ij,ikjl->kl", x, c4)


def eigenphase_pairs(u) -> list[tuple[float, float]]:
    """Eigenphases of U grouped as (beta, beta + pi), beta in [0, pi).

    The (lam, -lam) pairing of the spectrum is certified with residual
    |lam_i + lam_j| <= antisym.DECOMPOSE_TOL; PairingFailed otherwise.
    Sorted by beta.
    """
    if not isinstance(u, AntisymmetricUnitary):
        u = certify_antisymmetric_unitary(u)
    lam = np.linalg.eigvals(u.matrix)
    phases = np.angle(lam)
    betas = [_select_representative(phases, i, j)[0]
             for i, j in _pair_indices(lam)]
    return sorted((b, b + np.pi) for b in betas)


def unitary_covariance_check(n: int, seed: int = 0,
                             budget: int | None = None) -> bool:
    """Saturated N-dimension is invariant under U -> V u0 V^T.

    Draws one Haar V from the seed and compares the saturated N estimates
    of the map built from V u0 V^T and from u0 itself.
    """
    rng = make_rng(seed)
    phi_ref = breuer_hall(u0(n))
    phi_rnd = breuer_hall(random_antisymmetric_unitary(rng, n))
    a = estimate_N_dim(phi_ref, budget=budget, seed=seed)
    b = estimate_N_dim(phi_rnd, budget=budget, seed=seed + 1)
    if not (a.saturated and b.saturated):
        raise InconsistentResult("covariance check did not saturate; raise budget")
    return a.achieved_dim == b.achieved_dim


def sequential_estimate(phi: MapRep, kind: str, budget: int | None = None,
                        seed: int = 0, tols=DEFAULT_TOLS) -> tuple[int, int, bool]:
    """(achieved_dim, samples_used, saturated) of the span estimator, one sample at a time.

    Harvests each sample's kernel only when the loop reaches it and feeds
    every candidate, built with np.kron, to try_add with nothing staged.
    """
    n = phi.n
    ambient = n * n if kind == "M" else n ** 3
    if budget is None:
        budget = 10 * n ** 3
    rng = make_rng(seed)
    acc = SpanAccumulator(ambient, tols.rank)
    xs = itertools.chain(_grid_vectors(n),
                         (random_unit_vector(rng, n) for _ in itertools.count()))
    used = 0
    misses = 0
    saturated = False
    for x in xs:
        if used >= budget:
            break
        used += 1
        grew = False
        for y in kernel_of_state(phi, x, tols).T:
            g = np.kron(x, y) if kind == "M" else np.kron(np.kron(x, x.conj()), y)
            if acc.try_add(g):
                grew = True
        misses = 0 if grew else misses + 1
        if acc.dim == ambient or misses >= SATURATION_WINDOW:
            saturated = True
            break
    return acc.dim, used, saturated


def per_sample_estimate(phi: MapRep, kind: str, budget: int | None = None,
                        seed: int = 0, tols=DEFAULT_TOLS) -> tuple[np.ndarray, int, bool]:
    """(basis, samples_used, saturated) of the blocked span estimator, harvesting per sample.

    Runs the block loop of the estimator with a k = 1 kernel_of_state call
    and a generator build for each sample, then stages each block and feeds
    its rows to try_add in sampling order.  The estimator, which harvests a
    block with one stacked call, must accumulate this basis bit for bit.
    """
    n = phi.n
    ambient = n * n if kind == "M" else n ** 3
    if budget is None:
        budget = 10 * n ** 3
    rng = make_rng(seed)
    acc = SpanAccumulator(ambient, tols.rank)
    xs = itertools.chain(_grid_vectors(n),
                         (random_unit_vector(rng, n) for _ in itertools.count()))
    used = 0
    misses = 0
    saturated = False
    while used < budget and not saturated:
        block = []
        for x in itertools.islice(xs, min(SPAN_BLOCK, SATURATION_WINDOW - misses,
                                          budget - used)):
            ys = kernel_of_state(phi, x, tols).T
            w = x if kind == "M" else np.outer(x, x.conj()).ravel()
            block.append((w[None, :, None] * ys[:, None, :]).reshape(len(ys), w.size * n))
        rows = iter(acc.stage(np.concatenate(block)))
        for gens in block:
            used += 1
            grew = False
            for g in itertools.islice(rows, len(gens)):
                if acc.try_add(g):
                    grew = True
            misses = 0 if grew else misses + 1
            if acc.dim == ambient or misses >= SATURATION_WINDOW:
                saturated = True
                break
    return acc.basis, used, saturated


def save_matrix_per_entry(path, m) -> None:
    """The matrix file writer one entry at a time.

    Converts each entry to a Python float pair and encodes the document
    with `json.dump`'s chunked encoder.  `save_matrix` must write the same
    bytes.
    """
    m = as_cmatrix(m)
    if not np.isfinite(m).all():
        raise ToolkitError("refusing to write non-finite entries")
    doc = {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": [[float(z.real), float(z.imag)] for z in m.ravel()],
    }
    with open(Path(path), "w", encoding="utf-8") as f:
        json.dump(doc, f, allow_nan=False, sort_keys=True)
        f.write("\n")


def _reject_constant(token: str):
    raise ToolkitError(f"non-finite literal {token!r} in matrix file")


def _entry_error(data: list) -> ToolkitError:
    """The error naming the first malformed entry; runs only on a bad file."""
    for k, entry in enumerate(data):
        if type(entry) is not list or len(entry) != 2:
            return ToolkitError(f"entry {k} is not an [re, im] pair")
        if not set(map(type, entry)) <= {int, float}:
            return ToolkitError(f"entry {k} is not a pair of numbers")
        try:
            finite = all(map(math.isfinite, entry))
        except OverflowError:  # an integer literal beyond float range
            finite = False
        if not finite:
            return ToolkitError(f"entry {k} is not finite")
    return ToolkitError("matrix data is malformed")


def load_matrix_json(path) -> np.ndarray:
    """The matrix file reader in one `json.load`.

    Holds the whole document as Python objects, about 145 B an entry, and
    ignores fields other than rows, cols and data.  `load_matrix` must
    return the same values, or raise where this raises, on every file that
    has no other field and no field twice.
    """
    with open(Path(path), "r", encoding="utf-8") as f:
        try:
            doc = json.load(f, parse_constant=_reject_constant)
        except json.JSONDecodeError as exc:
            raise ToolkitError(f"not a matrix file: {exc}") from exc
        except RecursionError as exc:  # the decoder recurses per nesting level
            raise ToolkitError("not a matrix file: nested too deeply") from exc
    if not isinstance(doc, dict):
        raise ToolkitError("matrix file must be a JSON object")
    try:
        rows, cols, data = doc["rows"], doc["cols"], doc["data"]
    except KeyError as exc:
        raise ToolkitError(f"matrix file missing field {exc}") from exc
    if not all(isinstance(v, int) and not isinstance(v, bool) and v > 0
               for v in (rows, cols)):
        raise ToolkitError("rows and cols must be positive integers")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise DimensionMismatch(
            f"expected {rows * cols} entries, got {len(data) if isinstance(data, list) else 'non-list'}")
    # the scan is not optional: np.array would convert "1.5" and true silently
    if not (set(map(type, data)) == {list} and set(map(len, data)) == {2}
            and set(map(type, chain.from_iterable(data))) <= {int, float}):
        raise _entry_error(data)
    try:
        pairs = np.array(data, dtype=float)
    except OverflowError as exc:
        raise _entry_error(data) from exc
    if not np.isfinite(pairs).all():  # a literal such as 1e400 parses to inf
        raise _entry_error(data)
    # row k of pairs is (re, im) of entry k: the memory layout of complex128
    return pairs.view(np.complex128).reshape(rows, cols)


def positivity_sample_one_batch(phi: MapRep, trials: int, seed: int):
    """(xs, ys, values) of the positivity sampler with every pair in one batch.

    Draws the pairs as `positivity_sample_test` does and holds three
    trials x n^2 complex arrays at once.  `posmap._sample_values` must
    compute the same values, batch by batch.
    """
    n = phi.n
    rng = make_rng(seed)

    def unit_rows(count):
        z = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
        return z / np.linalg.norm(z, axis=1, keepdims=True)

    xs = unit_rows(trials)
    ys = unit_rows(trials)
    px = (xs[:, :, None] * xs.conj()[:, None, :]).reshape(trials, n * n)
    wy = (ys.conj()[:, :, None] * ys[:, None, :]).reshape(trials, n * n)
    return xs, ys, np.einsum("tp,tp->t", wy, px @ phi.superop.T).real
