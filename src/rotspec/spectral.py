"""Numerical spectral kernels: Hermitian and normal eigenvalues, smallest
singular values, operator norms, and normality tests.

The Hermitian path computes eigenvalues only, through one banded route.
A clock-and-shift model with largest |u-power| J is cyclic-banded: its
nonzeros sit within cyclic distance J of the diagonal. The interleave
permutation 0, q-1, 1, q-2, ... is a unitary similarity, so it leaves
the spectrum exact, and it turns the cyclic band into an ordinary band
of half-bandwidth 2J (a full matrix gets q-1). The lower-triangle
nonzeros (a model's own, an array's from a dense scan) go straight into
LAPACK band storage through the inverse permutation, and LAPACK's banded
Hermitian eigensolver returns the values without eigenvectors: O(q*J)
band storage and O(q^2 * J) time, against O(q^3) for a dense solve.

The normal path also computes eigenvalues only, and avoids a general
nonsymmetric eigensolver: a normal A has commuting Hermitian and skew
parts H1 = (A+A*)/2 and H2 = (A-A*)/(2i). It diagonalizes H1 once,
splits the eigenvalues w1 into clusters where consecutive values
separate by more than 1e-8 * ||A||, and forms C = W* H2 W in H1's
eigenbasis W, which commuting makes block diagonal over the clusters.
One small Hermitian eigensolve per cluster block gives nu and the
rotation R; mu, the diagonal of R* diag(w1) R over the cluster, is the
|R|^2-weighted mean of its w1. The eigenvalues are mu + i*nu.

eigenvalues_auto is the one route picker: the Hermitian route when it
accepts the matrix (a Hermitian spec's model always), else the normal route.

smallest_singular_value and sigma_min_stack have one route: the SVD,
batched through the gufunc over (..., q, q) stacks, with a per-matrix
retry through LAPACK's QR-iteration SVD (gesvd) when numpy's
divide-and-conquer SVD fails to converge.

scipy is loaded on first use, inside the Hermitian route and the SVD
retry, so the grid path (numpy's batched SVD) and `expand` never pay for
its import.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConvergenceFailure, InvalidInput, NotHermitian, NotNormal
from .matmodel import MatrixModel

MatrixLike = Union[MatrixModel, np.ndarray]

CLUSTER_TOL = 1e-8        # relative eigenspace clustering threshold for H1
HERMITIAN_TOL = 1e-12     # relative Hermitian-defect acceptance
NORMAL_TOL = 1e-10        # relative normality tolerance


def as_matrix(A: MatrixLike) -> np.ndarray:
    if isinstance(A, MatrixModel):
        return A.entries
    a = np.asarray(A, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class EigenvalueSet:
    """Eigenvalues with multiplicity, without eigenvectors; real dtype on
    the hermitian path. Complex values are ordered by ascending real
    part, then ascending imaginary part.
    """

    values: np.ndarray
    order: int
    method_tag: str  # hermitian | normal | circulant_analytic


def _sort_complex(values: np.ndarray) -> np.ndarray:
    return values[np.lexsort((values.imag, values.real))]


def operator_norm(A: MatrixLike) -> float:
    """Largest singular value."""
    a = as_matrix(A)
    if a.size == 0 or not a.any():
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def is_normal(A: MatrixLike) -> bool:
    """||A A* - A* A|| <= NORMAL_TOL * ||A||^2.

    A Frobenius-norm screen decides clear cases first (it bounds the
    2-norm from above, and divided by sqrt(q) from below); only the
    borderline band pays for exact 2-norms.
    """
    a = as_matrix(A)
    q = a.shape[0]
    defect = a @ a.conj().T - a.conj().T @ a
    dfro = float(np.linalg.norm(defect))
    afro = float(np.linalg.norm(a))
    if dfro * q <= NORMAL_TOL * afro * afro:  # multiplied out: an empty matrix (q = 0) is normal
        return True
    if dfro > NORMAL_TOL * afro * afro:  # ||defect||_2 >= ||defect||_F / sqrt(q)
        if dfro / np.sqrt(q) > NORMAL_TOL * afro * afro:
            return False
    nrm = operator_norm(a)
    return float(np.linalg.norm(defect, 2)) <= NORMAL_TOL * nrm * nrm


def _interleaved_band(A: MatrixLike) -> np.ndarray:
    """Lower band storage ab[r - c, c] = B[r, c] of B = P A P^T, where P
    is the interleave permutation 0, q-1, 1, q-2, ...; the half-bandwidth
    is read off the nonzeros, so ab has k + 1 rows. A model's colliding
    terms sum in term order, as in its entries, and a sum that cancels
    exactly is no nonzero, as in a dense scan."""
    if isinstance(A, MatrixModel):
        q, cols, vals = A.order, A.columns.ravel(), A.values.ravel()
        rows = np.arange(cols.size) % q
    else:
        a = as_matrix(A)
        q, (rows, cols) = a.shape[0], np.nonzero(a)
        vals = a[rows, cols]
    perm = np.empty(q, dtype=np.intp)
    perm[0::2] = np.arange((q + 1) // 2)
    perm[1::2] = q - 1 - np.arange(q // 2)
    position = np.empty_like(perm)  # A's index i sits at row position[i] of B
    position[perm] = np.arange(q)
    r, c = position[rows], position[cols]
    lower = r >= c
    offset, col = r[lower] - c[lower], c[lower]
    ab = np.zeros((int(offset.max(initial=0)) + 1, q), dtype=np.complex128)
    np.add.at(ab, (offset, col), vals[lower])
    return ab[:np.flatnonzero(ab.any(axis=1)).max(initial=0) + 1]


def hermitian_eigenvalues(A: MatrixLike) -> EigenvalueSet:
    """All real eigenvalues, ascending, with multiplicity; no eigenvectors
    (see the module docstring for the banded route). A Hermitian spec's
    model is Hermitian by construction and skips the defect check."""
    if not (isinstance(A, MatrixModel) and A.spec.is_hermitian):
        a = as_matrix(A)
        scale = float(np.linalg.norm(a))
        defect = float(np.linalg.norm(a - a.conj().T))
        if defect > HERMITIAN_TOL * max(scale, 1e-300) and scale > 0:
            raise NotHermitian(
                f"Hermitian defect {defect:.3e} exceeds {HERMITIAN_TOL:.0e} * ||A||"
            )
    import scipy.linalg

    try:
        values = scipy.linalg.eig_banded(_interleaved_band(A), lower=True,
                                         eigvals_only=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"hermitian eigensolver failed: {exc}") from exc
    return EigenvalueSet(
        values=values,
        order=values.size,
        method_tag="hermitian",
    )


def normal_eigenvalues(A: MatrixLike) -> EigenvalueSet:
    """Complex eigenvalues of a normal matrix (normality tested against
    NORMAL_TOL) via the commuting pair (H1, H2); only H1's eigenbasis is
    formed, no eigenvector of A. See the module docstring."""
    a = as_matrix(A)
    if not is_normal(a):
        raise NotNormal(f"matrix is not normal within relative tolerance {NORMAL_TOL:.0e}")
    h1 = (a + a.conj().T) / 2
    h2 = (a - a.conj().T) / 2j
    try:
        w1, basis = np.linalg.eigh(h1)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver failed on Hermitian part: {exc}") from exc

    gap = CLUSTER_TOL * max(operator_norm(a), 1e-300)
    bounds = np.concatenate(([0], np.flatnonzero(np.diff(w1) > gap) + 1, [w1.size]))
    c = basis.conj().T @ (h2 @ basis)  # block diagonal over the clusters
    values = np.empty(w1.size, dtype=np.complex128)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        block = c[lo:hi, lo:hi]
        try:
            nu, rot = np.linalg.eigh((block + block.conj().T) / 2)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceFailure(f"eigensolver failed on a cluster: {exc}") from exc
        values[lo:hi] = (np.abs(rot) ** 2).T @ w1[lo:hi] + 1j * nu
    return EigenvalueSet(values=_sort_complex(values), order=w1.size, method_tag="normal")


def eigenvalues_auto(A: MatrixLike) -> EigenvalueSet:
    """The Hermitian route when the matrix is Hermitian within tolerance,
    else the normal route; the Hermitian route's own defect check
    decides, so each matrix is tested once."""
    try:
        return hermitian_eigenvalues(A)
    except NotHermitian:
        return normal_eigenvalues(A)


def circulant_four_term_eigenvalues(alpha_plus: complex, alpha_minus: complex,
                                    q: int) -> EigenvalueSet:
    """Analytic eigenvalues alpha_1 zeta^k + alpha_-1 conj(zeta^k) over the
    q-th roots of unity zeta^k; the independent oracle for circulant
    four-term specs (beta terms zero)."""
    if q < 1:
        raise InvalidInput(f"order must be >= 1, got {q}")
    zeta = np.exp(2j * np.pi * (np.arange(q) / q))
    values = complex(alpha_plus) * zeta + complex(alpha_minus) * np.conj(zeta)
    return EigenvalueSet(
        values=_sort_complex(values),
        order=q,
        method_tag="circulant_analytic",
    )


# ---------------------------------------------------------------------------
# smallest singular values
# ---------------------------------------------------------------------------

def _svd_sigma_min(a: np.ndarray) -> float:
    try:
        return float(np.linalg.svd(a, compute_uv=False)[-1])
    except np.linalg.LinAlgError:
        # numpy's divide-and-conquer (gesdd) can fail to converge; retry
        # with LAPACK's QR-iteration driver, a different algorithm
        import scipy.linalg

        try:
            return float(scipy.linalg.svd(a, compute_uv=False, check_finite=False,
                                          lapack_driver="gesvd")[-1])
        except Exception as exc:  # pragma: no cover - last resort
            raise ConvergenceFailure(f"SVD failed: {exc}") from exc


def smallest_singular_value(A: MatrixLike) -> float:
    """sigma_min(A) by the SVD; never negative."""
    a = as_matrix(A)
    if a.shape[0] == 0:
        raise InvalidInput("empty matrix")
    return _svd_sigma_min(a)


def sigma_min_stack(stack: np.ndarray) -> np.ndarray:
    """Batched sigma_min over a (..., q, q) stack via the gufunc SVD."""
    try:
        return np.linalg.svd(stack, compute_uv=False)[..., -1]
    except np.linalg.LinAlgError:
        flat = stack.reshape(-1, *stack.shape[-2:])
        out = np.array([_svd_sigma_min(m) for m in flat])
        return out.reshape(stack.shape[:-2])
