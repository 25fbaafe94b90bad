"""Numerical spectral kernels: Hermitian and normal eigenvalues, and the
banded smallest singular values of models.

Every eigen route returns a bare array of eigenvalues with multiplicity:
real and ascending on the Hermitian route, complex in lexicographic
order (real part, then imaginary part) on the others. That is numpy's
order for complex values; the stable sort keeps exact ties in input
order.

The Hermitian path computes eigenvalues only, through one banded route,
_band_eigenvalues: of a model of a Hermitian spec (hermitian_eigenvalues),
or of an exactly Hermitian array (pseudospectra.sandwich_check).
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

normal_eigenvalues(A), the one eigen entry for a model, takes one route
per model, picked by the spec's coefficients at every order (the exact
OperatorSpec.is_normal decides normality, so no model is tested densely):
  Hermitian spec          the band solve of A itself
  (i) no V terms          circulant_four_term_eigenvalues
  (ii) no U terms         the same closed form over the powers of omega
  (iii) e^(-i phi) A = H  the band solve of H's model (the one model built), rotated back
  any other spec          ModelsNotNormal
_model_spectrum, shared with the grids, keeps class (iii)'s real values
of H and the rotation; OperatorSpec refuses a sum |c| past the floats.

No singular value comes from an SVD. Grids of models of normal specs
take sigma_min(lambda*I - A) = dist(lambda, sigma(A)) from the eigen
routes above (pseudospectra); grids of all other models take it from
the band (_banded_sigma_min; Trefethen & Embree, Spectra and
Pseudospectra, 2005, ch. 39): with B the interleaved lambda*I - A,
sigma_min(B) > t exactly when G - t^2 I is positive definite, G = B* B,
and G is a Hermitian band of half-bandwidth at most 4J, so a band
Cholesky decides each t in O(q * J^2). Halvings on that test bracket
sigma_min, inverse iteration gives the value v = ||Bx||, and two more
factorizations verify it (Rump, BIT 46 (2006) 433-452): at q = 8 a
point costs 15 factorizations and 3 band solves, where the whole
44-halving bisection took 45. One Gram stack per pass; the kernel takes
the model and a grid's nodes, which it reads only by size, slice and
index array (an array, or the source of pseudospectra that builds the
nodes of each read), vectorized over each chunk's points, and redoes the
points that fail to verify in one fallback stage.

LAPACK is reached through one handle, _lapack(), for one function, the
banded Hermitian eigensolver zhbevd: scipy's f2py extension
scipy.linalg._flapack, whose functions scipy.linalg.lapack re-exports,
loaded from its file on first use without running
scipy/linalg/__init__.py. That package import pulls in scipy's
array-API layer and through it numpy.f2py, numpy.testing, numpy.ma and
numpy.random: about 0.3 s and 20 MiB, where the handle costs a few ms
and under 3 MiB. When scipy.linalg is imported later, it finds the
module in sys.modules and shares it. The band sigma_min route, the
closed forms and `expand` never load it.
"""

from __future__ import annotations

import cmath
import functools
import importlib.machinery
import importlib.util
import math
import sys
from pathlib import Path
from types import ModuleType
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .errors import ConvergenceFailure, InvalidInput, ModelsNotNormal, NotHermitian
from .matmodel import MatrixModel, OperatorSpec, build_operator, spec_norm_bound

MatrixLike = Union[MatrixModel, np.ndarray]


@functools.cache
def _lapack() -> ModuleType:
    """scipy's f2py LAPACK module, scipy.linalg._flapack, whose zhbevd the
    Hermitian route calls (its one use): the one found in sys.modules, or
    else the extension file under scipy's linalg directory, found without
    importing scipy and loaded on its own (see the module docstring)."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("scipy, whose LAPACK module rotspec calls, is not installed",
                          name="scipy")
    linalg = Path(scipy.submodule_search_locations[0], "linalg")
    loaders = (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
    spec = importlib.machinery.FileFinder(str(linalg), loaders).find_spec(name)
    if spec is None:
        raise ImportError(f"no LAPACK extension _flapack in {linalg}", name=name, path=str(linalg))
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _interleaved_band(A: MatrixLike) -> np.ndarray:
    """General band storage ab[k + r - c, c] = B[r, c] of B = P A P^T,
    where P is the interleave permutation 0, q-1, 1, q-2, ...; the
    half-bandwidth k is read off the nonzeros (the largest |r - c|), so ab
    has 2k + 1 rows and its lower half ab[k:] is LAPACK's lower band
    storage. A model's terms that share a slot sum in term order, and a
    sum that cancels exactly is no nonzero, as in a dense scan."""
    if isinstance(A, MatrixModel):
        q, cols, vals = A.order, A.columns.ravel(), A.values.ravel()
        rows = np.arange(cols.size) % q
    else:  # a square finite array, as _hermitian_array checks it
        q, (rows, cols) = A.shape[0], np.nonzero(A)
        vals = A[rows, cols]
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


def hermitian_eigenvalues(A: MatrixModel) -> np.ndarray:
    """All real eigenvalues of a model, ascending, with multiplicity; no
    eigenvectors (see the module docstring for the banded route). A model
    is taken iff its spec is Hermitian, and is never made dense."""
    if not A.spec.is_hermitian:
        raise NotHermitian("the model's spec is not Hermitian (OperatorSpec.is_hermitian)")
    return _band_eigenvalues(A)


def _band_eigenvalues(A: MatrixLike) -> np.ndarray:
    """zhbevd on the lower half of A's interleaved band, for A Hermitian of order >= 1."""
    band = _interleaved_band(A)
    values, _, info = _lapack().zhbevd(band[band.shape[0] // 2:], compute_v=0, lower=1)
    if info:
        raise ConvergenceFailure(f"hermitian eigensolver zhbevd returned info={info}")
    return values


def circulant_four_term_eigenvalues(alpha_plus: complex, alpha_minus: complex,
                                    q: int) -> np.ndarray:
    """Eigenvalues alpha_1 zeta^k + alpha_-1 conj(zeta^k) over the q-th
    roots of unity zeta^k, in closed form: the route of the circulant
    alpha_1 u + alpha_-1 u* and, over the powers of omega, of the
    diagonal beta_1 v + beta_-1 v* (normal_eigenvalues)."""
    if q < 1:
        raise InvalidInput(f"order must be >= 1, got {q}")
    zeta = np.exp(2j * np.pi * (np.arange(q) / q))
    values = complex(alpha_plus) * zeta + complex(alpha_minus) * np.conj(zeta)
    return np.sort(values, kind="stable")


def normal_eigenvalues(A: MatrixModel) -> np.ndarray:
    """Eigenvalues of a model A of a Hermitian or normal spec by the route
    table of the module docstring; ModelsNotNormal for any other spec's A,
    also where A is normal (u = u* at q <= 2, omega^2 = 1 at 2p = 0 mod q)."""
    spectrum = _model_spectrum(A)
    if spectrum is None:
        raise ModelsNotNormal("the model's spec is not normal (OperatorSpec.is_normal)")
    values, r = spectrum
    return values if r == 1 else np.sort(r * values, kind="stable")


def _model_spectrum(A: MatrixModel) -> Optional[tuple[np.ndarray, complex]]:
    """(values, r), the eigenvalues of A being r * values, or None when its
    spec is not normal: r = 1, except r = e^(i phi) in class (iii), whose
    values are the real ascending ones of H = e^(-i phi) A."""
    spec, p, q = A.spec, A.p, A.order
    if not (spec.is_hermitian or spec.is_normal):
        return None
    if spec.is_hermitian:
        return _band_eigenvalues(A), 1
    a1, am, b1, bm = spec.canonical_four_term
    if not (b1 or bm):
        return circulant_four_term_eigenvalues(a1, am, q), 1
    if not (a1 or am):  # v takes each (q/g)-th root of unity g = gcd(p, q) times
        g = math.gcd(p, q)
        return np.repeat(circulant_four_term_eigenvalues(b1, bm, q // g), g), 1
    r = cmath.sqrt(a1 / abs(a1) * (am / abs(am)))  # e^(i phi): |a1| = |am| in class (iii)
    h, g = a1 * r.conjugate(), b1 * r.conjugate()
    rotated = OperatorSpec.canonical(h, h.conjugate(), g, g.conjugate())
    return _band_eigenvalues(build_operator(rotated, p, q)), r


# ---------------------------------------------------------------------------
# banded sigma_min: a Gram-Cholesky test
# ---------------------------------------------------------------------------

_HALVINGS = 44        # bisection steps on sigma inside [0, smallest column norm]
_INVERSE_STEPS = 3    # shifted inverse-iteration steps after the bisection
_CHUNK_BUDGET = 1 << 18  # complex entries per working array: 4 MiB
_BAND_POINTS = 2048      # points per banded chunk, so small orders keep small arrays
# In the units of the scaled B, where |mu| + kappa = 1 and G is formed to
# about 1e-15: the shift below zero when no bisection test passed, and
# the widening of the bracket, in sigma^2, before a value counts as outside.
_SHIFT_FLOOR = 1e-13
_BRACKET_SLACK = 2.0 ** -36
# The relative gap, in sigma^2, between the squared value and each
# verifying test, below _BRACKET_SLACK for every scaled value <= 1. On U+2V
# at every 31st point of a 256x256 grid of [-4, 4]^2, 2^-38 / 2^-40 /
# 2^-42 left 40 / 56 / 80 of 2115 points to fall back at q = 89 and 11 /
# 16 / 23 at q = 8 (after the counts of _coarse_halvings); at 2^-40 a
# verified value is within 4.6e-13 of sigma_min, relative, for a few more
# fallbacks.
_VERIFY_GAP = 2.0 ** -40


class _GramBand(NamedTuple):
    """A model scaled by its bound norm = sum |c| >= ||A|| and interleaved:
    band is the general band storage of A1' = P A P^T / norm (see
    _interleaved_band), and gram, lower, upper hold the lower bands of
    A1'* A1', A1' and A1'* as (q, w + 1) arrays, [c, d] = M[c + d, c]. w
    is the half-bandwidth of the Gram matrix G = B* B of B = mu I - kappa
    A1', read off the nonzeros: 2 for U + 2V, at most 4J in general."""

    norm: float
    band: np.ndarray
    gram: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


def _gram_band(A: MatrixModel) -> _GramBand:
    norm = spec_norm_bound(A.spec)
    # numpy divides a complex array by a float as a * (1/norm), which
    # overflows for a subnormal norm (OperatorSpec refuses an infinite one)
    if norm < sys.float_info.min:
        raise InvalidInput(f"the banded sigma_min route scales the model by sum |c| = "
                           f"{norm!r}, which is not a normal float")
    band = _interleaved_band(A) / norm
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


def _band_cholesky(diagonal: np.ndarray, off: np.ndarray) -> Callable[
        [np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Cholesky factorizations of G_p - shift_p I for a stack of Hermitian
    bands, diagonal[c, p] = G_p[c, c] (real) and off[c, d - 1, p] =
    G_p[c + d, c] for d = 1..w, as a function shift -> (inv, f, ok): f holds
    the lower band factors L, laid out like off, inv[c, p] = 1/L[c, c], and
    ok[p] says whether every pivot of point p was positive. A failed pivot
    turns the rest of that point's factor into nan or inf, silently. A call
    refills inv and f, whose views are sliced once here, and works in two
    more buffers, so it allocates nothing in its column loop."""
    q, w, points = off.shape
    inv, f = np.empty_like(diagonal), np.empty_like(off)
    col_h = np.empty((w, points), dtype=off.dtype)
    product = np.empty((w, points), dtype=off.dtype)
    steps = []
    for j in range(q):
        m = min(w, q - 1 - j)
        col = f[j, :m]
        updates = [(inv[j + i], f[j + i, :m - i], col[i - 1:], col_h[i - 1],
                    product[:m + 1 - i], product[0].real, product[1:m + 1 - i])
                   for i in range(1, m + 1)]
        steps.append((inv[j], col, col_h[:m], updates))

    def factor(shift: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        np.subtract(diagonal, shift, out=inv)
        np.copyto(f, off)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for pivot, col, conj, updates in steps:
                np.sqrt(pivot, out=pivot)
                np.divide(1.0, pivot, out=pivot)
                if updates:
                    col *= pivot  # cast to complex, as 1/L[c, c] always was
                    np.conjugate(col, out=conj)
                    for below, off_below, column_below, head_h, buffer, head, tail in updates:
                        np.multiply(column_below, head_h, out=buffer)
                        below -= head
                        off_below -= tail
            return inv, f, np.isfinite(inv).all(axis=0)

    return factor


def _band_solve(inv: np.ndarray, f: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(L L*)^{-1} x for each point's band factor (inv, f) from _band_cholesky.
    Each column's conjugates and products go into one (w, points) buffer
    and each row's sum into one more, so the loops allocate nothing."""
    q, w, points = f.shape
    y = x.copy()
    buffer = np.empty((w, points), dtype=f.dtype)
    total = np.empty(points, dtype=f.dtype)
    for j in range(q):  # L y = x, by columns
        y[j] *= inv[j]
        m = min(w, q - 1 - j)
        if m:
            y[j + 1:j + m + 1] -= np.multiply(f[j, :m], y[j], out=buffer[:m])
    for j in range(q - 1, -1, -1):  # L* z = y, by rows
        m = min(w, q - 1 - j)
        if m:
            product = np.conjugate(f[j, :m], out=buffer[:m])
            product *= y[j + 1:j + m + 1]
            y[j] -= product.sum(axis=0, out=total)
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


def _coarse_halvings(q: int) -> int:
    """The halvings every point runs before its first inverse iteration at
    order q: 2 * bits + 4 below q = 64 and 14 + bits from there, bits the
    bit length of q; the rest of the 44 run only where the value fails to
    verify. The singular values next to sigma_min crowd together about
    like 1/q, so the bracket must narrow with q for three inverse steps to
    reach the verifying gap. As the points that fail are redone together
    after the last chunk, a fallback costs about its points' share of a
    pass, and the count sits at the knee of the time against fallbacks.
    On the 65536 points of a 256x256 grid of [-4, 4]^2, c halvings left
    these points to fall back, for U + 2V, FOUR = U + 0.5i U* + 2V +
    (-0.3 + 0.1i) V* and PHASE = U + 2V with the unit phases that
    random.Random(3) draws for the benchmark's seed 3:

      c =            8      10     12     14     16     20
      U+2V   q = 5   11412  1029   125    32     20     15
             q = 8   21713  4046   454    190    97     37
             q = 13  36242  11001  2827   837    416    137
             q = 34  57148  38886  13333  4235   2119   1069
      FOUR   q = 5   10718  527    11     11     11     11
             q = 8   22098  3644   55     23     23     23
             q = 13  36706  10058  1567   94     38     38
             q = 34  57435  39304  12698  2767   621    124
      PHASE  q = 5   6956   209    16     16     16     16
             q = 8   19684  2749   32     18     18     18
             q = 13  36256  11137  2504   58     30     30
             q = 34  56939  38311  10561  1806   384    77

    2 * bits + 4 gives 10 / 12 / 12 / 16 there, at or just past the
    knee; U+2V's grid at q = 5 and 8 took 0.195 / 0.443 s at those counts
    against 0.252 / 0.552 s at 20 (best of two on a 2-vCPU Xeon). From q
    = 64 on: on U+2V at every 31st point of a 256x256 grid of [-4, 4]^2,
    16 / 18 / 20 / 22 / 24 halvings left 166 / 76 / 57 / 50 / 44 of 2114
    points to fall back at q = 89 and 63 / 18 / 6 / 2 / 1 of 576 at q =
    144, and at the points of a 12x12 grid 20 halvings left 2 / 2 / 5 /
    37 / 70 of 144 at q = 233 / 377 / 610 / 987 / 1597, where 14 + bits,
    22 / 23 / 24 / 24 / 25, left none."""
    bits = q.bit_length()
    return 2 * bits + 4 if q < 64 else 14 + bits


def _gram_stack(gb: _GramBand, mu: np.ndarray, kappa: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(diagonal, off) of G_p = B_p* B_p, B_p = mu_p I - kappa_p A1', as
    _band_cholesky takes them, built in place a diagonal at a time: the
    one temporary is a product buffer of q x points."""
    q, width = gb.gram.shape
    kk, km_h, km = kappa * kappa, kappa * mu.conj(), kappa * mu
    diagonal = np.multiply(kk, gb.gram[:, 0, None].real)
    off = np.empty((q, width - 1, mu.size), dtype=np.complex128)
    product = np.empty((q, mu.size), dtype=np.complex128)
    for d in range(width):
        out = off[:, d - 1] if d else diagonal
        if d:
            np.multiply(kk, gb.gram[:, d, None], out=out)
        for scale, band in ((km_h, gb.lower), (km, gb.upper)):
            np.multiply(scale, band[:, d, None], out=product)
            out -= product if d else product.real
    diagonal += (mu * mu.conj()).real
    return diagonal, off


def _bisect_and_iterate(gb: _GramBand, lam: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                        halvings: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                                                tuple[np.ndarray, np.ndarray]]:
    """Scale by s = |lam| + norm, halve each bracket [lo, min(hi, smallest
    column norm of B)] by the Cholesky test, then run inverse iteration
    with the factor at the last passing shift (-1e-13 where none passed).
    Returns s, the bracket, ||Bx|| at the iteration's unit x and the stack."""
    s = np.abs(lam) + gb.norm
    mu, kappa = lam / s, gb.norm / s
    stack = _gram_stack(gb, mu, kappa)
    hi = np.minimum(hi, np.sqrt(np.maximum(stack[0].min(axis=0), 0)))
    cholesky = _band_cholesky(*stack)
    for _ in range(halvings):
        t = 0.5 * (lo + hi)
        ok = cholesky(t * t)[2]
        lo, hi = np.where(ok, t, lo), np.where(ok, hi, t)
    inv, factor, ok = cholesky(np.where(lo > 0, lo * lo, -_SHIFT_FLOOR))
    del cholesky  # its per-column views; the stack, one factor and the vectors stay
    if not ok.all():
        raise ConvergenceFailure(
            f"banded sigma_min: no Cholesky factor at lambda={lam[~ok][0]}")
    q = factor.shape[0]
    x = np.broadcast_to(_start_vector(q)[:, None], (q, lam.size))
    for _ in range(_INVERSE_STEPS):
        x = _band_solve(inv, factor, x)
        x /= _column_norms(x)
    del inv, factor
    bx = _band_matvec(gb.band, x)
    bx *= -kappa
    bx += mu * x
    return s, lo, hi, _column_norms(bx), stack


def _bracketed(lam: np.ndarray, s: np.ndarray, lo: np.ndarray, hi: np.ndarray,
               value: np.ndarray, checked: Union[bool, np.ndarray] = True) -> np.ndarray:
    """s * value, or ConvergenceFailure for the first checked value outside
    its bisection bracket, widened by the test's rounding."""
    inside = ((value * value >= lo * lo - _BRACKET_SLACK)
              & (value * value <= hi * hi + _BRACKET_SLACK))
    bad = np.flatnonzero(checked & ~inside)
    if bad.size:
        bad = bad[0]
        raise ConvergenceFailure(
            f"banded sigma_min {s[bad] * value[bad]:.17g} at lambda={lam[bad]} lies "
            f"outside its bisection bracket [{s[bad] * lo[bad]:.17g}, {s[bad] * hi[bad]:.17g}]")
    return s * value


def _banded_sigma_min(A: MatrixModel, lam: np.ndarray) -> np.ndarray:
    """sigma_min(lam_p I - A) for each lam_p: one Gram stack per pass; the
    kernel takes the model A and builds its band once. lam is read only
    as lam.size, lam[start:start + chunk] and lam[index]: an array, or a
    grid's node source, which holds one chunk's nodes at a time.

    B = P(lam I - A)P^T is scaled by s = |lam| + norm, which keeps every
    number near 1 for any coefficient scale. sigma_min(B) > t holds when
    G - t^2 I, G = B* B, has a Cholesky factor. The points run in chunks
    of at most _BAND_POINTS whose stacks fit _CHUNK_BUDGET. In each chunk,
    _coarse_halvings(q) halvings of [0, smallest column norm of B] bracket
    sigma_min by that test; three steps of inverse iteration with the
    factor at the last passing shift then give a unit vector x and the
    value v = ||Bx||, so sigma_min is never squared. Two more tests on the
    stack verify v: G - v^2 (1 - 2^-40) I must factor and
    G - v^2 (1 + 2^-40) I must not. The points that fail either keep
    their index and bracket, and after the last chunk they resume their
    bisections together, chunked the same way, for the rest of the 44
    halvings and redo the inverse iteration, which gives the value of a
    44-halving bisection bit for bit. A value outside its bisection
    bracket, widened by the test's rounding, is a ConvergenceFailure."""
    gb = _gram_band(A)
    chunk = max(1, min(_BAND_POINTS, _CHUNK_BUDGET // gb.gram.size))
    coarse = _coarse_halvings(gb.gram.shape[0])
    out = np.empty(lam.size)
    redo = []  # (indices, lo, hi) of each chunk's points that failed to verify
    for start in range(0, lam.size, chunk):
        part = lam[start:start + chunk]
        s, lo, hi, value, stack = _bisect_and_iterate(
            gb, part, np.zeros(part.size), np.full(part.size, np.inf), coarse)
        cholesky = _band_cholesky(*stack)
        square = value * value
        verified = (cholesky(square * (1 - _VERIFY_GAP))[2]
                    & ~cholesky(square * (1 + _VERIFY_GAP))[2])
        del cholesky, stack  # before the next chunk builds its own
        out[start:start + chunk] = _bracketed(part, s, lo, hi, value, verified)
        failed = np.flatnonzero(~verified)
        if failed.size:
            redo.append((failed + start, lo[failed], hi[failed]))
    if not redo:
        return out
    index, lo, hi = (np.concatenate(a) for a in zip(*redo))
    for start in range(0, index.size, chunk):
        # numpy's loops along an axis of length 1 round differently (no
        # fused multiply-add, pairwise sums), so a lone point is redone
        # beside a copy of itself, as in a chunk of the full bisection
        at = np.arange(start, min(start + chunk, index.size))
        at = np.resize(at, max(at.size, 2))
        part = lam[index[at]]
        s, *found, _ = _bisect_and_iterate(gb, part, lo[at], hi[at], _HALVINGS - coarse)
        out[index[at]] = _bracketed(part, s, *found)
    return out
