"""Numerical spectral kernels: Hermitian and normal eigenvalues, smallest
singular values, operator norms, and normality tests.

The Hermitian path computes eigenvalues only, through one banded route.
A clock-and-shift model with largest |u-power| J is cyclic-banded: its
nonzeros sit within cyclic distance J of the diagonal. The interleave
permutation 0, q-1, 1, q-2, ... is a unitary similarity, so it leaves
the spectrum exact, and it turns the cyclic band into an ordinary band
of half-bandwidth 2J (a full matrix gets q-1). The lower-triangle
nonzeros are scattered straight into LAPACK band storage through the
inverse permutation, with no permuted dense copy, and LAPACK's banded
Hermitian eigensolver returns the values without eigenvectors: O(q*J)
band storage and O(q^2 * J) time, against O(q^3) for a dense solve.

The normal path deliberately avoids a general nonsymmetric eigensolver:
a normal A has commuting Hermitian and skew parts H1 = (A+A*)/2 and
H2 = (A-A*)/(2i), so it diagonalizes H1, splits the basis into
eigenspace clusters (threshold 1e-8 * ||A||), diagonalizes H2 restricted
to each cluster, and reads eigenvalues off as Rayleigh quotient pairs
mu + i*nu.

smallest_singular_value and sigma_min_stack have one route: the SVD,
batched through the gufunc over (..., q, q) stacks, with a per-matrix
retry through scipy's LAPACK when numpy's SVD fails to converge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
import scipy.linalg

from .errors import ConvergenceFailure, InvalidInput, NotHermitian, NotNormal
from .matmodel import MatrixModel

MatrixLike = Union[MatrixModel, np.ndarray]

CLUSTER_TOL = 1e-8        # relative eigenspace clustering threshold for H1
HERMITIAN_TOL = 1e-12     # relative Hermitian-defect acceptance
NORMAL_TOL = 1e-10        # default relative normality tolerance


def as_matrix(A: MatrixLike) -> np.ndarray:
    if isinstance(A, MatrixModel):
        return A.entries
    a = np.asarray(A, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class EigenvalueSet:
    """Eigenvalues with multiplicity; real dtype on the hermitian path.

    residual_bound is max_j ||A v_j - lambda_j v_j|| over the computed
    eigenpairs on the normal path, 0.0 for the analytic circulant path,
    and None on the hermitian path, which computes no eigenvectors. Ties
    in the complex ordering break by ascending real part, then ascending
    imaginary part.
    """

    values: np.ndarray
    order: int
    residual_bound: Optional[float]
    method_tag: str  # hermitian | normal | circulant_analytic


def _sort_complex(values: np.ndarray) -> np.ndarray:
    return values[np.lexsort((values.imag, values.real))]


def _residual(a: np.ndarray, vectors: np.ndarray, values: np.ndarray) -> float:
    if a.shape[0] == 0:
        return 0.0
    resid = a @ vectors - vectors * values[np.newaxis, :]
    return float(np.max(np.linalg.norm(resid, axis=0)))


def operator_norm(A: MatrixLike) -> float:
    """Largest singular value."""
    a = as_matrix(A)
    if a.size == 0 or not a.any():
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def is_normal(A: MatrixLike, tol: float = NORMAL_TOL) -> bool:
    """||A A* - A* A|| <= tol * ||A||^2.

    A Frobenius-norm screen decides clear cases first (it bounds the
    2-norm from above, and divided by sqrt(q) from below); only the
    borderline band pays for exact 2-norms.
    """
    a = as_matrix(A)
    q = a.shape[0]
    defect = a @ a.conj().T - a.conj().T @ a
    dfro = float(np.linalg.norm(defect))
    afro = float(np.linalg.norm(a))
    if dfro <= tol * afro * afro / q:
        return True
    if dfro > tol * afro * afro:  # ||defect||_2 >= ||defect||_F / sqrt(q)
        if dfro / np.sqrt(q) > tol * afro * afro:
            return False
    nrm = operator_norm(a)
    return float(np.linalg.norm(defect, 2)) <= tol * nrm * nrm


def _interleaved_band(a: np.ndarray) -> np.ndarray:
    """Lower band storage ab[r - c, c] = B[r, c] of B = P A P^T, where P
    is the interleave permutation 0, q-1, 1, q-2, ...; the half-bandwidth
    is read off the nonzero pattern, so ab has k + 1 rows."""
    q = a.shape[0]
    perm = np.empty(q, dtype=np.intp)
    perm[0::2] = np.arange((q + 1) // 2)
    perm[1::2] = q - 1 - np.arange(q // 2)
    position = np.empty_like(perm)  # A's index i sits at row position[i] of B
    position[perm] = np.arange(q)
    rows, cols = np.nonzero(a)
    r, c = position[rows], position[cols]
    lower = r >= c
    offset, col = r[lower] - c[lower], c[lower]
    ab = np.zeros((int(offset.max(initial=0)) + 1, q), dtype=np.complex128)
    ab[offset, col] = a[rows[lower], cols[lower]]
    return ab


def hermitian_eigenvalues(A: MatrixLike) -> EigenvalueSet:
    """All real eigenvalues, ascending, with multiplicity; no eigenvectors
    (see the module docstring for the banded route)."""
    a = as_matrix(A)
    scale = float(np.linalg.norm(a))
    defect = float(np.linalg.norm(a - a.conj().T))
    if defect > HERMITIAN_TOL * max(scale, 1e-300) and scale > 0:
        raise NotHermitian(
            f"Hermitian defect {defect:.3e} exceeds {HERMITIAN_TOL:.0e} * ||A||"
        )
    try:
        values = scipy.linalg.eig_banded(_interleaved_band(a), lower=True,
                                         eigvals_only=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"hermitian eigensolver failed: {exc}") from exc
    return EigenvalueSet(
        values=values,
        order=a.shape[0],
        residual_bound=None,
        method_tag="hermitian",
    )


def normal_eigenvalues(A: MatrixLike, tol: float = NORMAL_TOL) -> EigenvalueSet:
    """Complex eigenvalues of a normal matrix via the commuting pair
    (H1, H2); see the module docstring for the clustering scheme."""
    a = as_matrix(A)
    if not is_normal(a, tol):
        raise NotNormal(f"matrix is not normal within relative tolerance {tol:.0e}")
    q = a.shape[0]
    h1 = (a + a.conj().T) / 2
    h2 = (a - a.conj().T) / 2j
    try:
        w1, basis = np.linalg.eigh(h1)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver failed on Hermitian part: {exc}") from exc

    scale = max(float(np.linalg.norm(a, 2)) if a.any() else 0.0, 1e-300)
    gap = CLUSTER_TOL * scale
    # cluster boundaries where consecutive H1 eigenvalues separate
    boundaries = [0]
    for i in range(1, q):
        if w1[i] - w1[i - 1] > gap:
            boundaries.append(i)
    boundaries.append(q)

    values = np.empty(q, dtype=np.complex128)
    vectors = np.empty_like(basis)
    for lo, hi in zip(boundaries[:-1], boundaries[1:]):
        block = basis[:, lo:hi]
        sub = block.conj().T @ h2 @ block  # Hermitian because H1, H2 commute
        sub = (sub + sub.conj().T) / 2
        try:
            _, rot = np.linalg.eigh(sub)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceFailure(f"eigensolver failed on a cluster: {exc}") from exc
        rotated = block @ rot
        vectors[:, lo:hi] = rotated
        # Rayleigh quotients on both parts give second-order accuracy
        mu = np.real(np.sum(rotated.conj() * (h1 @ rotated), axis=0))
        nu = np.real(np.sum(rotated.conj() * (h2 @ rotated), axis=0))
        values[lo:hi] = mu + 1j * nu

    order_idx = np.lexsort((values.imag, values.real))
    values = values[order_idx]
    vectors = vectors[:, order_idx]
    return EigenvalueSet(
        values=values,
        order=q,
        residual_bound=_residual(a, vectors, values),
        method_tag="normal",
    )


def circulant_four_term_eigenvalues(alpha_plus: complex, alpha_minus: complex,
                                    q: int) -> EigenvalueSet:
    """Analytic eigenvalues alpha_1 zeta^k + alpha_-1 conj(zeta^k) over the
    q-th roots of unity zeta^k; the independent oracle for circulant
    four-term specs (beta terms zero). No vectors, residual 0 by fiat."""
    if q < 1:
        raise InvalidInput(f"order must be >= 1, got {q}")
    zeta = np.exp(2j * np.pi * (np.arange(q) / q))
    values = complex(alpha_plus) * zeta + complex(alpha_minus) * np.conj(zeta)
    return EigenvalueSet(
        values=_sort_complex(values),
        order=q,
        residual_bound=0.0,
        method_tag="circulant_analytic",
    )


# ---------------------------------------------------------------------------
# smallest singular values
# ---------------------------------------------------------------------------

def _svd_sigma_min(a: np.ndarray) -> float:
    try:
        return float(np.linalg.svd(a, compute_uv=False)[-1])
    except np.linalg.LinAlgError:
        # divide-and-conquer can fail to converge; QR-based driver is sturdier
        try:
            return float(scipy.linalg.svdvals(a, check_finite=False)[-1])
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
