"""Numerical spectral kernels: Hermitian and normal eigenvalues, smallest
singular values, operator norms, and normality tests.

Every eigen route returns a bare array of eigenvalues with multiplicity:
real and ascending on the Hermitian route, complex in lexicographic
order (real part, then imaginary part) on the others.

The Hermitian path computes eigenvalues only, through one banded route.
A clock-and-shift model with largest |u-power| J is cyclic-banded: its
nonzeros sit within cyclic distance J of the diagonal. The interleave
permutation 0, q-1, 1, q-2, ... is a unitary similarity, so it leaves
the spectrum exact, and it turns the cyclic band into an ordinary band
of half-bandwidth 2J (a full matrix gets q-1). The nonzeros (a model's
own, an array's from a dense scan) go straight into general band
storage through the inverse permutation (_interleaved_band, which the
banded sigma_min below shares); the Hermitian route hands its lower half
to LAPACK's banded Hermitian eigensolver, which returns the values
without eigenvectors: O(q*J) band storage and O(q^2 * J) time, against
O(q^3) for a dense solve.

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

Every singular value of a dense matrix comes from one SVD route,
_singular_values: numpy's divide-and-conquer SVD, batched through the
gufunc over (..., m, n) stacks, with a per-matrix retry through LAPACK's
QR-iteration SVD (gesvd) when it fails to converge, and
ConvergenceFailure when the retry fails too. smallest_singular_value,
sigma_min_stack, operator_norm and the 2-norm in is_normal all read it.

sigma_min(lambda*I - A) of a model takes the band instead
(_banded_sigma_min; Trefethen & Embree, Spectra and Pseudospectra, 2005,
ch. 39): with B the interleaved lambda*I - A, sigma_min(B) > t exactly
when G - t^2 I is positive definite, G = B* B, and G is a Hermitian band
of half-bandwidth at most 4J, so a band Cholesky decides each t in
O(q * J^2). Bisection on that test brackets sigma_min; inverse iteration
with the last factor gives a vector x, and the value is ||Bx||/||x||,
never squared. The kernel is vectorized over the grid points of a chunk.

scipy is loaded on first use, inside the Hermitian route and the SVD
retry, so the non-Hermitian grid paths and `expand` never pay for its
import.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple, Union

import numpy as np

from .errors import ConvergenceFailure, InvalidInput, NotHermitian, NotNormal
from .matmodel import MatrixModel, spec_norm_bound

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


def _sort_complex(values: np.ndarray) -> np.ndarray:
    return values[np.lexsort((values.imag, values.real))]


def _singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values, descending, of a matrix or of each matrix in a
    (..., m, n) stack. numpy's divide-and-conquer SVD (gesdd) can fail to
    converge; the stack is then redone a matrix at a time with LAPACK's
    QR-iteration driver (gesvd), a different algorithm."""
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError:
        import scipy.linalg

        flat = a.reshape(-1, *a.shape[-2:])
        try:
            out = [scipy.linalg.svd(m, compute_uv=False, check_finite=False,
                                    lapack_driver="gesvd") for m in flat]
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise ConvergenceFailure(f"SVD failed: {exc}") from exc
        return np.reshape(out, (*a.shape[:-2], -1))


def operator_norm(A: MatrixLike) -> float:
    """Largest singular value."""
    a = as_matrix(A)
    if a.size == 0 or not a.any():
        return 0.0
    return float(_singular_values(a)[0])


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
    return operator_norm(defect) <= NORMAL_TOL * nrm * nrm


def _interleaved_band(A: MatrixLike) -> np.ndarray:
    """General band storage ab[k + r - c, c] = B[r, c] of B = P A P^T,
    where P is the interleave permutation 0, q-1, 1, q-2, ...; the
    half-bandwidth k is read off the nonzeros (the largest |r - c|), so ab
    has 2k + 1 rows and its lower half ab[k:] is LAPACK's lower band
    storage. A model's colliding terms sum in term order, as in its
    entries, and a sum that cancels exactly is no nonzero, as in a dense
    scan."""
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
    offset, col = position[rows] - position[cols], position[cols]
    k = int(np.abs(offset).max(initial=0))
    ab = np.zeros((2 * k + 1, q), dtype=np.complex128)
    np.add.at(ab, (k + offset, col), vals)
    kept = int(np.abs(np.flatnonzero(ab.any(axis=1)) - k).max(initial=0))
    return ab[k - kept:k + kept + 1]


def hermitian_eigenvalues(A: MatrixLike) -> np.ndarray:
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
        band = _interleaved_band(A)
        return scipy.linalg.eig_banded(band[band.shape[0] // 2:], lower=True,
                                       eigvals_only=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"hermitian eigensolver failed: {exc}") from exc


def normal_eigenvalues(A: MatrixLike) -> np.ndarray:
    """Complex eigenvalues, in lexicographic order, of a normal matrix
    (normality tested against NORMAL_TOL) via the commuting pair
    (H1, H2); only H1's eigenbasis is formed, no eigenvector of A. See
    the module docstring."""
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
    return _sort_complex(values)


def eigenvalues_auto(A: MatrixLike) -> np.ndarray:
    """The Hermitian route when the matrix is Hermitian within tolerance,
    else the normal route; the Hermitian route's own defect check
    decides, so each matrix is tested once."""
    try:
        return hermitian_eigenvalues(A)
    except NotHermitian:
        return normal_eigenvalues(A)


def circulant_four_term_eigenvalues(alpha_plus: complex, alpha_minus: complex,
                                    q: int) -> np.ndarray:
    """Analytic eigenvalues alpha_1 zeta^k + alpha_-1 conj(zeta^k) over the
    q-th roots of unity zeta^k; the independent oracle for circulant
    four-term specs (beta terms zero)."""
    if q < 1:
        raise InvalidInput(f"order must be >= 1, got {q}")
    zeta = np.exp(2j * np.pi * (np.arange(q) / q))
    return _sort_complex(complex(alpha_plus) * zeta + complex(alpha_minus) * np.conj(zeta))


# ---------------------------------------------------------------------------
# smallest singular values
# ---------------------------------------------------------------------------

def smallest_singular_value(A: MatrixLike) -> float:
    """sigma_min(A) by the SVD; never negative."""
    a = as_matrix(A)
    if a.shape[0] == 0:
        raise InvalidInput("empty matrix")
    return float(_singular_values(a)[-1])


def sigma_min_stack(stack: np.ndarray) -> np.ndarray:
    """Batched sigma_min over a (..., q, q) stack."""
    return _singular_values(stack)[..., -1]


# ---------------------------------------------------------------------------
# banded sigma_min of a model: a Gram-Cholesky test
# ---------------------------------------------------------------------------

_HALVINGS = 44        # bisection steps on sigma inside [0, smallest column norm]
_INVERSE_STEPS = 3    # shifted inverse-iteration steps after the bisection
# In the units of the scaled B, where |mu| + kappa = 1 and G is formed to
# about 1e-15: the shift below zero when no bisection test passed, and
# the widening of the bracket, in sigma^2, before a value counts as outside.
_SHIFT_FLOOR = 1e-13
_BRACKET_SLACK = 2.0 ** -36


class _GramBand(NamedTuple):
    """A model scaled by norm = sum |c|, interleaved: band is the general
    band storage of A1' = P A P^T / norm (see _interleaved_band), and
    gram, lower, upper hold the lower bands of A1'* A1', A1' and A1'* as
    (q, w + 1) arrays, [c, d] = M[c + d, c]. w is the half-bandwidth of
    the Gram matrix G = B* B of B = mu I - kappa A1', read off the
    nonzeros: 2 for U + 2V, at most 4J in general."""

    norm: float
    band: np.ndarray
    gram: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


def _gram_band(model: MatrixModel) -> _GramBand:
    norm = spec_norm_bound(model.spec)
    # numpy divides a complex array by a float as a * (1/norm), which
    # overflows for a subnormal norm and zeroes the band for an infinite one
    if norm == math.inf or 0 < norm < sys.float_info.min:
        raise InvalidInput(f"the banded sigma_min route scales the model by sum |c| = {norm!r}, "
                           "which is not a normal float")
    band = _interleaved_band(model) / norm
    k, q = band.shape[0] // 2, band.shape[1]
    gram = np.zeros((2 * k + 1, q), dtype=np.complex128)
    for d in range(min(2 * k, q - 1) + 1):
        for o in range(d - k, k + 1):  # rows c + o holding both columns c and c + d
            gram[d, :q - d] += band[k + o - d, d:].conj() * band[k + o, :q - d]
    lower = np.zeros_like(gram)
    upper = np.zeros_like(gram)
    lower[:k + 1] = band[k:]
    for d in range(min(k, q - 1) + 1):
        upper[d, :q - d] = band[k - d, d:].conj()
    w = int(np.flatnonzero((gram != 0).any(axis=1) | (lower != 0).any(axis=1)
                           | (upper != 0).any(axis=1)).max(initial=0))
    return _GramBand(norm=norm, band=band, gram=gram[:w + 1].T.copy(),
                     lower=lower[:w + 1].T.copy(), upper=upper[:w + 1].T.copy())


def _band_cholesky(g: np.ndarray) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Cholesky factorizations of G_p - shift_p I for a stack
    g[c, d, p] = G_p[c + d, c] of Hermitian bands, as a function
    shift -> (f, ok). f holds the lower band factors L, stored like g
    except that the diagonal holds 1/L[c, c]; ok[p] says whether every
    pivot of point p was positive. A failed pivot turns the rest of that
    point's factor into nan or inf, silently, and the point is judged by
    its diagonal alone. Every call refills one buffer, f, whose column
    views are sliced once here, so a call costs only arithmetic."""
    q, width, points = g.shape
    f = np.empty_like(g)
    col_h = np.empty((width - 1, points), dtype=g.dtype)
    steps = []
    for j in range(q):
        m = min(width - 1, q - 1 - j)
        col = f[j, 1:m + 1]
        updates = [(f[j + i, :m + 1 - i], col[i - 1:], col_h[i - 1]) for i in range(1, m + 1)]
        steps.append((f[j, 0], f[j, 0].real, col, col_h[:m], updates))

    def factor(shift: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        np.copyto(f, g)
        f[:, 0] -= shift
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for diagonal, pivot, col, conj, updates in steps:
                inv = 1.0 / np.sqrt(pivot)
                diagonal[...] = inv
                if updates:
                    col *= inv
                    np.conjugate(col, out=conj)
                    for below, column_below, head_h in updates:
                        below -= column_below * head_h
            return f, np.isfinite(f[:, 0].real).all(axis=0)

    return factor


def _band_solve(f: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(L L*)^{-1} x for each point's band factor from _band_cholesky."""
    q, width, _ = f.shape
    inv = f[:, 0].real
    y = x.copy()
    for j in range(q):  # L y = x, by columns
        y[j] *= inv[j]
        m = min(width - 1, q - 1 - j)
        if m:
            y[j + 1:j + m + 1] -= f[j, 1:m + 1] * y[j]
    for j in range(q - 1, -1, -1):  # L* z = y, by rows
        m = min(width - 1, q - 1 - j)
        if m:
            y[j] -= (f[j, 1:m + 1].conj() * y[j + 1:j + m + 1]).sum(axis=0)
        y[j] *= inv[j]
    return y


def _band_matvec(band: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M x for each column of x, M in general band storage band[k + r - c, c]."""
    k, q = band.shape[0] // 2, x.shape[0]
    y = np.zeros_like(x)
    for o in range(max(-k, 1 - q), min(k, q - 1) + 1):
        c0, c1 = max(0, -o), min(q, q - o)
        y[c0 + o:c1 + o] += band[k + o, c0:c1, None] * x[c0:c1]
    return y


def _start_vector(q: int) -> np.ndarray:
    """A fixed pseudo-random complex q-vector: splitmix64 of 1, 2, ..., 2q
    mapped to [-1/2, 1/2). (numpy.random would add megabytes of resident
    memory to a grid run, and the ones vector is a Fourier mode, so an
    eigenvector, of every circulant model.)"""
    z = np.arange(1, 2 * q + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    u = (z ^ (z >> np.uint64(31))) >> np.uint64(11)
    u = u * 2.0 ** -53 - 0.5
    return u[:q] + 1j * u[q:]


def _column_norms(x: np.ndarray) -> np.ndarray:
    return np.sqrt((x.real * x.real + x.imag * x.imag).sum(axis=0))


def _banded_sigma_min(gb: _GramBand, lam: np.ndarray) -> np.ndarray:
    """sigma_min(lam_p I - A) for each lam_p, from the model's band.

    B = P(lam I - A)P^T is scaled by s = |lam| + norm, which keeps every
    number near 1 for any coefficient scale. sigma_min(B) > t holds when
    G - t^2 I, G = B* B, has a Cholesky factor; 44 halvings of [0,
    smallest column norm of B] bracket sigma_min by that test. Three
    steps of inverse iteration with the factor at the last passing shift
    (or, when none passed, at -1e-13) then give a vector x, and sigma_min
    is reported as ||Bx||/||x||, so it is never squared. A value outside
    the bracket, widened by the test's rounding, is a ConvergenceFailure."""
    s = np.abs(lam) + gb.norm
    mu, kappa = lam / s, gb.norm / s
    q, width = gb.gram.shape
    g = np.empty((q, width, lam.size), dtype=np.complex128)
    for d in range(width):  # a diagonal at a time: no temporary as large as g
        g[:, d] = ((kappa * kappa) * gb.gram[:, d, None]
                   - (kappa * mu.conj()) * gb.lower[:, d, None]
                   - (kappa * mu) * gb.upper[:, d, None])
    g[:, 0] += (mu * mu.conj()).real
    lo, hi = np.zeros(lam.size), np.sqrt(np.maximum(g[:, 0].real.min(axis=0), 0))
    cholesky = _band_cholesky(g)
    for _ in range(_HALVINGS):
        t = 0.5 * (lo + hi)
        ok = cholesky(t * t)[1]
        lo, hi = np.where(ok, t, lo), np.where(ok, hi, t)
    factor, ok = cholesky(np.where(lo > 0, lo * lo, -_SHIFT_FLOOR))
    del cholesky, g  # at most two chunk-sized arrays are alive at a time
    if not ok.all():
        raise ConvergenceFailure(
            f"banded sigma_min: no Cholesky factor at lambda={lam[~ok][0]}")
    x = np.broadcast_to(_start_vector(q)[:, None], (q, lam.size))
    for _ in range(_INVERSE_STEPS):
        x = _band_solve(factor, x)
        x /= _column_norms(x)
    del factor
    bx = _band_matvec(gb.band, x)
    bx *= -kappa
    bx += mu * x
    value = _column_norms(bx)
    inside = ((value * value >= lo * lo - _BRACKET_SLACK)
              & (value * value <= hi * hi + _BRACKET_SLACK))
    if not inside.all():
        bad = np.flatnonzero(~inside)[0]
        raise ConvergenceFailure(
            f"banded sigma_min {s[bad] * value[bad]:.17g} at lambda={lam[bad]} lies "
            f"outside its bisection bracket [{s[bad] * lo[bad]:.17g}, {s[bad] * hi[bad]:.17g}]")
    return s * value
