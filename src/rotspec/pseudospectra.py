"""Grid-sampled pseudospectra and set-level operations.

The epsilon-pseudospectrum of a matrix is the sublevel set
{lambda : sigma_min(lambda*I - A) <= epsilon}; this module samples
sigma_min on a rectangular grid, extracts level-set masks, verifies the
perturbation sandwich mask_S(eps) within mask_T(eps+delta) within
mask_S(eps+2*delta) for delta = ||S - T||, and forms direct-sum spectra
as multiset unions without materializing block matrices.

Grid evaluation is deterministic by construction: points are split into
chunks whose size depends only on the order q (never on the worker
count), each chunk's values come from one batched SVD of its stack of
lambda*I - A, and workers write disjoint slices, so the same bytes come
out at any parallelism degree.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .errors import ConvergenceFailure, EmptyCloud, InvalidInput
from .exact import float_up
from .spectral import MatrixLike, as_matrix, eigenvalues_auto, operator_norm, sigma_min_stack

Region = tuple[float, float, float, float]  # re_min, re_max, im_min, im_max

DEFAULT_RESOLUTION = (256, 256)
_CHUNK_BUDGET = 1 << 18  # complex entries per chunk stack: 4 MiB caps grid memory (q <= 512)


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
    lambda_ij = re_min + i*h_x + 1j*(im_min + j*h_y); index i walks the
    real axis, j the imaginary axis, and exports iterate in row-major
    order (i outer, j inner).
    """

    region: Region
    resolution: tuple[int, int]
    sigma_min_values: np.ndarray
    matrix_fingerprint: str

    def __post_init__(self):
        self.sigma_min_values.setflags(write=False)

    @property
    def h_x(self) -> float:
        return (self.region[1] - self.region[0]) / (self.resolution[0] - 1)

    @property
    def h_y(self) -> float:
        return (self.region[3] - self.region[2]) / (self.resolution[1] - 1)

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
    a = np.ascontiguousarray(as_matrix(A))
    h = hashlib.sha256()
    h.update(str(a.shape).encode())
    h.update(a.tobytes())
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
    """Sample sigma_min(lambda*I - A) over the grid.

    Points go in row-major order into chunks of at most 4096 and at most
    _CHUNK_BUDGET // q^2 points; each chunk is one batched SVD
    (sigma_min_stack). A pool of jobs threads shares the chunks, and the
    values do not depend on jobs.
    """
    a = as_matrix(A)
    _validate_grid_request(region, resolution)
    if jobs < 1:
        raise InvalidInput(f"jobs must be >= 1, got {jobs}")
    q = a.shape[0]
    re, im = _axes(region, resolution)
    lam = (re[:, None] + 1j * im[None, :]).reshape(-1)  # row-major flatten

    out = np.empty(lam.size, dtype=np.float64)
    eye = np.eye(q, dtype=np.complex128)
    chunk = max(1, min(4096, _CHUNK_BUDGET // max(1, q * q)))
    starts = range(0, lam.size, chunk)

    def eval_chunk(start: int) -> None:
        stop = min(start + chunk, lam.size)
        lam_c = lam[start:stop]
        stack = lam_c[:, None, None] * eye - a
        try:
            out[start:stop] = sigma_min_stack(stack)
        except ConvergenceFailure as exc:
            raise ConvergenceFailure(
                f"sigma_min failed in chunk starting at lambda={lam_c[0]}: {exc}"
            ) from exc

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        list(pool.map(eval_chunk, starts))

    return PseudospectrumGrid(
        region=tuple(float(x) for x in region),
        resolution=tuple(resolution),
        sigma_min_values=out.reshape(re.size, im.size),
        matrix_fingerprint=matrix_fingerprint(a),
    )


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

def cloud_to_csv(cloud: PointCloud) -> str:
    lines = ["re,im"]
    lines.extend(f"{z.real:.17g},{z.imag:.17g}" for z in cloud.points)
    return "\n".join(lines) + "\n"


def read_cloud_csv(text: str) -> PointCloud:
    rows = text.strip().splitlines()
    if not rows or rows[0] != "re,im":
        raise InvalidInput("cloud CSV must start with header re,im")
    pts = [complex(float(r.split(",")[0]), float(r.split(",")[1])) for r in rows[1:]]
    if not pts:
        raise EmptyCloud("cloud CSV has no points")
    return PointCloud(points=np.array(pts))


def grid_to_csv(grid: PseudospectrumGrid) -> str:
    """One line re,im,sigma_min per grid point in row-major order, every
    float as %.17g. Formatted a row at a time: each imaginary-axis value
    is formatted once, and no whole-grid list of floats or lines is built."""
    re_ax, im_ax = grid.lambda_axes()
    sig = grid.sigma_min_values
    ims = [f",{y:.17g}," for y in im_ax.tolist()]
    rows = ["re,im,sigma_min\n"]
    for x, sig_row in zip(re_ax.tolist(), sig):
        re_txt = f"{x:.17g}"
        rows.append("".join([f"{re_txt}{im_txt}{s:.17g}\n"
                             for im_txt, s in zip(ims, sig_row.tolist())]))
    return "".join(rows)


def read_grid_csv(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rows = text.strip().splitlines()
    if not rows or rows[0] != "re,im,sigma_min":
        raise InvalidInput("grid CSV must start with header re,im,sigma_min")
    data = np.array([[float(x) for x in r.split(",")] for r in rows[1:]])
    return data[:, 0], data[:, 1], data[:, 2]


def grid_to_pgm(grid: PseudospectrumGrid) -> bytes:
    """16-bit big-endian P5 graymap: gray = round((clip(log10 sigma, -8, 2)
    + 8)/10 * 65535). Pixel row r, column c shows grid point i = c,
    j = ny-1-r, so the top image row is the largest imaginary part."""
    nx, ny = grid.resolution
    with np.errstate(divide="ignore"):
        logs = np.log10(grid.sigma_min_values)
    gray = np.clip(logs, -8.0, 2.0)
    gray = np.rint((gray + 8.0) / 10.0 * 65535.0).astype(np.uint16)
    image = gray.T[::-1, :]  # rows = descending imaginary axis
    header = f"P5\n{nx} {ny}\n65535\n".encode("ascii")
    return header + image.astype(">u2").tobytes()
