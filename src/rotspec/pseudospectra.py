"""Grid-sampled pseudospectra and set-level operations.

The epsilon-pseudospectrum of a matrix is the sublevel set
{lambda : sigma_min(lambda*I - A) <= epsilon}; this module samples
sigma_min on a rectangular grid, extracts level-set masks, verifies the
perturbation sandwich mask_S(eps) within mask_T(eps+delta) within
mask_S(eps+2*delta) for delta = ||S - T||, and forms direct-sum spectra
as multiset unions without materializing block matrices.

compute_grid takes one of three routes, picked by the structure of its
input and never by an option:

* Hermitian input (a model of a Hermitian spec, or an array equal to its
  conjugate transpose exactly): one eigensolve, then
  sigma_min(lambda*I - H) = dist(lambda, sigma(H)) at each point, from
  the sorted eigenvalues by searchsorted;
* any other model: the banded Gram-Cholesky test of
  spectral._banded_sigma_min, O(q * w^2) per factorization with w the
  Gram half-bandwidth, on numpy only, without the dense matrix;
* any other array: a batched SVD of the stacks lambda*I - A.

Grid evaluation is deterministic by construction: the last two routes
split the points into chunks whose size depends only on the order, the
band and the grid (never on the worker count), and workers write
disjoint slices, so the same bytes come out at any parallelism degree.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

import numpy as np

from .errors import ConvergenceFailure, InvalidInput
from .exact import float_up
from .matmodel import MatrixModel
from .spectral import (
    MatrixLike,
    _banded_sigma_min,
    _gram_band,
    as_matrix,
    eigenvalues_auto,
    hermitian_eigenvalues,
    operator_norm,
    sigma_min_stack,
)

Region = tuple[float, float, float, float]  # re_min, re_max, im_min, im_max

DEFAULT_RESOLUTION = (256, 256)
_CHUNK_BUDGET = 1 << 18  # complex entries per working array: 4 MiB (SVD stacks: q <= 512)
_BAND_POINTS = 2048      # points per banded chunk, so small orders keep small arrays
_CSV_LINES = 4096        # cloud points per serialized piece


@dataclass(frozen=True)
class PointCloud:
    """Finite multiset of complex points (duplicates carry multiplicity)."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_1d(np.asarray(self.points, dtype=np.complex128))
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class GridParams:
    """Grid request: region None means derive one from the matrix norms."""

    region: Optional[Region] = None
    resolution: tuple[int, int] = DEFAULT_RESOLUTION
    jobs: int = 1


@dataclass(frozen=True)
class PseudospectrumGrid:
    """sigma_min samples on a rectangular grid.

    sigma_min_values[i, j] = sigma_min(lambda_ij * I - A) with
    lambda_ij = re[i] + 1j*im[j] for the evenly spaced axes of
    lambda_axes(); index i walks the real axis, j the imaginary axis,
    and exports iterate in row-major order (i outer, j inner).
    """

    region: Region
    resolution: tuple[int, int]
    sigma_min_values: np.ndarray
    matrix_fingerprint: str

    def __post_init__(self):
        self.sigma_min_values.setflags(write=False)

    def lambda_axes(self) -> tuple[np.ndarray, np.ndarray]:
        return _axes(self.region, self.resolution)

    def lambda_grid(self) -> np.ndarray:
        re, im = self.lambda_axes()
        return re[:, None] + 1j * im[None, :]


def _axes(region: Region, resolution: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The real and imaginary grid axes."""
    return (np.linspace(region[0], region[1], resolution[0]),
            np.linspace(region[2], region[3], resolution[1]))


def matrix_fingerprint(A: MatrixLike) -> str:
    """sha256 of the shape string, then of the C-order bytes of the dense
    matrix. A model's dense rows are built a block at a time from its
    nonzeros, summed in term order as in its entries, so the bytes match
    without the q x q matrix ever being formed."""
    h = hashlib.sha256()
    if not isinstance(A, MatrixModel):
        a = np.ascontiguousarray(as_matrix(A))
        h.update(str(a.shape).encode())
        h.update(a)
        return h.hexdigest()
    q = A.order
    h.update(str((q, q)).encode())
    step = max(1, _CHUNK_BUDGET // q)
    for start in range(0, q, step):
        rows = np.arange(start, min(start + step, q))
        block = np.zeros((rows.size, q), dtype=np.complex128)
        for cols, vals in zip(A.columns, A.values):
            block[rows - start, cols[rows]] += vals[rows]
        h.update(block)
    return h.hexdigest()


def _validate_grid_request(region: Region, resolution: tuple[int, int]) -> None:
    re_min, re_max, im_min, im_max = region
    nx, ny = resolution
    if not all(math.isfinite(x) for x in region):
        raise InvalidInput(f"region must be finite, got {region}")
    if not (re_min < re_max and im_min < im_max):
        raise InvalidInput(f"degenerate region {region}")
    if nx < 2 or ny < 2:
        raise InvalidInput(f"resolution must be >= 2 per axis, got {resolution}")


def default_region(norm_bound: float, margin: float) -> Region:
    """Square of half-width norm_bound + 2*margin centered at 0."""
    r = float(norm_bound) + 2.0 * float(margin)
    if r <= 0:
        r = 1.0
    return (-r, r, -r, r)


def compute_grid(A: MatrixLike, region: Region, resolution: tuple[int, int],
                 jobs: int = 1) -> PseudospectrumGrid:
    """Sample sigma_min(lambda*I - A) over the grid, by the route the
    structure of A picks (see the module docstring): distances to the
    eigenvalues of a Hermitian input, the banded Gram-Cholesky test for
    any other model, and batched SVDs for any other dense matrix. The
    last two split the row-major points into chunks whose size depends on
    the order and the band only, shared by a pool of jobs threads, so the
    values do not depend on jobs."""
    is_model = isinstance(A, MatrixModel)
    a = A if is_model else as_matrix(A)
    _validate_grid_request(region, resolution)
    if jobs < 1:
        raise InvalidInput(f"jobs must be >= 1, got {jobs}")
    re, im = _axes(region, resolution)
    lam = (re[:, None] + 1j * im[None, :]).reshape(-1)  # row-major flatten

    hermitian = a.spec.is_hermitian if is_model else np.array_equal(a, a.conj().T)
    if hermitian:
        out = _hermitian_distances(hermitian_eigenvalues(a), lam)
    elif is_model:
        gram = _gram_band(a)
        chunk = max(1, min(_BAND_POINTS, _CHUNK_BUDGET // gram.gram.size))
        out = _pooled(lambda lam_c: _banded_sigma_min(gram, lam_c), lam, chunk, jobs)
    else:
        chunk = max(1, min(4096, _CHUNK_BUDGET // max(1, a.size)))
        out = _pooled(lambda lam_c: _svd_sigma_min(a, lam_c), lam, chunk, jobs)

    return PseudospectrumGrid(
        region=tuple(float(x) for x in region),
        resolution=tuple(resolution),
        sigma_min_values=out.reshape(re.size, im.size),
        matrix_fingerprint=matrix_fingerprint(a),
    )


def _hermitian_distances(eigs: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """sigma_min(lambda*I - H) = dist(lambda, sigma(H)) for Hermitian H:
    the distance from Re lambda to the nearest ascending eigenvalue,
    combined with Im lambda."""
    x = lam.real
    idx = np.searchsorted(eigs, x)
    below = eigs[np.maximum(idx - 1, 0)]
    above = eigs[np.minimum(idx, eigs.size - 1)]
    return np.hypot(np.minimum(np.abs(x - below), np.abs(above - x)), lam.imag)


def _svd_sigma_min(a: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """sigma_min(lambda*I - a) for a chunk of lambdas, from one batched SVD."""
    try:
        return sigma_min_stack(lam[:, None, None] * np.eye(a.shape[0], dtype=np.complex128) - a)
    except ConvergenceFailure as exc:
        raise ConvergenceFailure(
            f"sigma_min failed in chunk starting at lambda={lam[0]}: {exc}"
        ) from exc


def _pooled(kernel, lam: np.ndarray, chunk: int, jobs: int) -> np.ndarray:
    """kernel over consecutive chunks of lam, writing disjoint slices of
    one output: on a pool of jobs threads, or, for one job, in the calling
    thread (a worker thread's malloc arena would keep the freed chunk
    arrays resident, 2.4 MiB of peak RSS on a 256x256 grid at q = 8)."""
    out = np.empty(lam.size, dtype=np.float64)

    def run(start: int) -> None:
        out[start:start + chunk] = kernel(lam[start:start + chunk])

    starts = range(0, lam.size, chunk)
    if jobs == 1:
        for start in starts:
            run(start)
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            list(pool.map(run, starts))
    return out


def level_set(grid: PseudospectrumGrid, epsilon: float) -> np.ndarray:
    """Boolean mask of grid points with sigma_min <= epsilon (the closed
    sublevel-set convention)."""
    if epsilon <= 0:
        raise InvalidInput(f"epsilon must be > 0, got {epsilon}")
    return grid.sigma_min_values <= epsilon


# ---------------------------------------------------------------------------
# sandwich verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SandwichReport:
    """Outcome of the two grid inclusions at resolvent tolerance slack.

    Violations beyond slack mean a computed sigma_min broke a certified
    inequality (a bug), and passed goes False; violations within slack
    only raise the advisory grid_too_coarse flag.
    """

    epsilon: float
    delta: float
    slack: float
    resolution: tuple[int, int]
    region: Region
    inner_count: int
    middle_count: int
    outer_count: int
    hard_violations: tuple[complex, ...]
    advisory_count: int
    grid_too_coarse: bool
    passed: bool


def sandwich_check(S: MatrixLike, T: MatrixLike, epsilon: float,
                   grid_params: Optional[GridParams] = None) -> SandwichReport:
    """Verify mask_S(eps) <= mask_T(eps+delta) <= mask_S(eps+2*delta)
    pointwise on a shared grid, delta = ||S - T||; both levels are the
    exact sums rounded up to a float."""
    s, t = as_matrix(S), as_matrix(T)
    if s.shape != t.shape:
        raise InvalidInput(f"order mismatch {s.shape} vs {t.shape}")
    if not 0 < epsilon < math.inf:
        raise InvalidInput(f"epsilon must be finite and > 0, got {epsilon}")
    gp = grid_params or GridParams()
    delta = operator_norm(s - t)
    norm_scale = max(operator_norm(s), operator_norm(t))
    region = gp.region or default_region(norm_scale, epsilon / 2 + delta + 0.25)

    grid_s = compute_grid(s, region, gp.resolution, gp.jobs)
    grid_t = compute_grid(t, region, gp.resolution, gp.jobs)
    lam = grid_s.lambda_grid()
    lam_max = float(np.max(np.abs(lam)))
    slack = 1e-7 * (norm_scale + lam_max)

    sig_s, sig_t = grid_s.sigma_min_values, grid_t.sigma_min_values
    middle_level = float_up(Fraction(epsilon) + Fraction(delta))
    outer_level = float_up(Fraction(epsilon) + 2 * Fraction(delta))
    inner = sig_s <= epsilon
    middle = sig_t <= middle_level
    outer = sig_s <= outer_level

    hard: list[complex] = []
    advisory = 0
    for bad_mask, sig, level in (
        (inner & ~middle, sig_t, middle_level),
        (middle & ~outer, sig_s, outer_level),
    ):
        if not bad_mask.any():
            continue
        vals = sig[bad_mask]
        pts = lam[bad_mask]
        beyond = vals > level + slack
        advisory += int(np.count_nonzero(~beyond))
        hard.extend(complex(z) for z in pts[beyond][:32])

    return SandwichReport(
        epsilon=float(epsilon),
        delta=float(delta),
        slack=float(slack),
        resolution=gp.resolution,
        region=grid_s.region,
        inner_count=int(inner.sum()),
        middle_count=int(middle.sum()),
        outer_count=int(outer.sum()),
        hard_violations=tuple(hard),
        advisory_count=advisory,
        grid_too_coarse=advisory > 0,
        passed=not hard,
    )


# ---------------------------------------------------------------------------
# direct-sum spectra
# ---------------------------------------------------------------------------

def spectra_union(ea: np.ndarray, eb: np.ndarray) -> PointCloud:
    """Multiset union of two computed spectra, in lexicographic order."""
    values = np.concatenate([ea, eb]).astype(np.complex128, copy=False)
    return PointCloud(points=values[np.lexsort((values.imag, values.real))])


def union_spectrum(A: MatrixLike, B: MatrixLike) -> PointCloud:
    """Multiset union of the two spectra: the spectrum of the direct sum
    without building it."""
    return spectra_union(eigenvalues_auto(A), eigenvalues_auto(B))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def cloud_to_csv(cloud: PointCloud) -> Iterator[str]:
    """The header re,im, then one line per point, every float as %.17g,
    in pieces of at most _CSV_LINES lines."""
    yield "re,im\n"
    pts = cloud.points
    for start in range(0, len(pts), _CSV_LINES):
        yield "".join([f"{z.real:.17g},{z.imag:.17g}\n"
                       for z in pts[start:start + _CSV_LINES].tolist()])


def grid_to_csv(grid: PseudospectrumGrid) -> Iterator[str]:
    """One line re,im,sigma_min per grid point in row-major order, every
    float as %.17g, after the header. Yields one piece per real-axis
    value: each imaginary-axis value is formatted once, and no whole-grid
    list of floats or lines is built."""
    re_ax, im_ax = grid.lambda_axes()
    sig = grid.sigma_min_values
    ims = [f",{y:.17g}," for y in im_ax.tolist()]
    yield "re,im,sigma_min\n"
    for x, sig_row in zip(re_ax.tolist(), sig):
        re_txt = f"{x:.17g}"
        yield "".join([f"{re_txt}{im_txt}{s:.17g}\n"
                       for im_txt, s in zip(ims, sig_row.tolist())])


def grid_to_pgm(grid: PseudospectrumGrid) -> Iterator[bytes]:
    """16-bit big-endian P5 graymap: gray = round((clip(log10 sigma, -8, 2)
    + 8)/10 * 65535). Pixel row r, column c shows grid point i = c,
    j = ny-1-r, so the top image row is the largest imaginary part.
    Yields the header, then the pixel buffer."""
    nx, ny = grid.resolution
    with np.errstate(divide="ignore"):
        logs = np.log10(grid.sigma_min_values)
    gray = np.clip(logs, -8.0, 2.0)
    gray = np.rint((gray + 8.0) / 10.0 * 65535.0).astype(np.uint16)
    image = gray.T[::-1, :]  # rows = descending imaginary axis
    yield f"P5\n{nx} {ny}\n65535\n".encode("ascii")
    yield image.astype(">u2").tobytes()
