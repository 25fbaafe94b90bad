"""Grid-sampled pseudospectra and set-level operations.

The epsilon-pseudospectrum of a matrix is the sublevel set
{lambda : sigma_min(lambda*I - A) <= epsilon}; this module samples
sigma_min on a rectangular grid, extracts level-set masks, verifies the
perturbation sandwich mask_S(eps) within mask_T(eps+delta) within
mask_S(eps+2*delta) for delta = ||S - T||, and serializes grids and
point clouds (spectra, as the bare arrays the eigen routes return).

compute_grid takes a model (anything else is InvalidInput) on one of two
routes that no option picks:

* a model, of any order, of a Hermitian spec or of a spec with
  OperatorSpec.is_normal: sigma_min(lambda*I - A) = dist(lambda, sigma(A))
  (Trefethen & Embree, Spectra and Pseudospectra, 2005, ch. 2), by the
  nearest-point kernel _distances, which Hausdorff distances share and
  which fills one output block by block;
* a model of any other spec: the banded Gram-Cholesky test of
  spectral._banded_sigma_min, O(q * w^2) per factorization with w the
  Gram half-bandwidth, on numpy only, without the model's dense matrix.
  One Gram stack per pass; the kernel takes the model and the grid's
  nodes, in chunks of at most 4 MiB of working arrays, and redoes the
  points whose values failed to verify in one fallback stage, so a
  fallback costs about its points' share of a chunk's pass.

No grid holds its nodes: _grid_nodes validates a grid from its axes and
corners and returns a row-major node source, _Nodes, that builds the
nodes of each slice or index array it is read with, bit for bit those of
the whole array. A grid's peak memory is its 8 B per node of output plus
one chunk's or block's working set, on either route.

sandwich_check, the one array entry, reads its norms and grids off the
eigenvalues of two exactly Hermitian arrays (else NotHermitian).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

import numpy as np

from .errors import DEFAULT_RESOLUTION, InvalidInput, NotHermitian
from .exact import float_up
from .matmodel import MatrixModel, spec_norm_bound
from .spectral import (
    _CHUNK_BUDGET,
    _band_eigenvalues,
    _banded_sigma_min,
    _model_spectrum,
)

Region = tuple[float, float, float, float]  # re_min, re_max, im_min, im_max

_CSV_LINES = 4096        # cloud points per serialized piece
# nodes per block of real distances, a multiple of 64 so that numpy's
# vector loops end where they ended on the whole array; about as many
# pixels per PGM piece
_NODE_BLOCK = 1 << 14


@dataclass(frozen=True)
class PseudospectrumGrid:
    """sigma_min samples on a rectangular grid.

    sigma_min_values[i, j] = sigma_min(lambda_ij * I - A) with
    lambda_ij = re[i] + 1j*im[j] for the evenly spaced axes of
    lambda_axes(); index i walks the real axis, j the imaginary axis,
    and exports iterate in row-major order (i outer, j inner). No matrix
    fingerprint: certify_pseudospectrum hashes the models it reports.
    """

    region: Region
    resolution: tuple[int, int]
    sigma_min_values: np.ndarray

    def __post_init__(self):
        self.sigma_min_values.setflags(write=False)

    def lambda_axes(self) -> tuple[np.ndarray, np.ndarray]:
        return _axes(self.region, self.resolution)


def _axes(region: Region, resolution: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The real and imaginary grid axes."""
    return (np.linspace(region[0], region[1], resolution[0]),
            np.linspace(region[2], region[3], resolution[1]))


def matrix_fingerprint(A: MatrixModel) -> str:
    """sha256 of what the model stores: the tag b"rotspec-model-terms/1",
    the order as a little-endian int64, then each term's columns
    (little-endian int64) and values (little-endian complex128) in term
    order, O(q) bytes and no dense matrix. Where two terms share a slot
    (u-powers equal mod a small q) the digest tells them apart, a finer
    identity than the dense bytes, which sum them. The hash is CPython's
    built-in SHA-256, imported here: hashlib's digests without the OpenSSL
    libcrypto that hashlib loads (3.5 MiB resident)."""
    try:
        from _sha2 import sha256  # Python 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10 and 3.11
        except ImportError:
            from hashlib import sha256  # an interpreter built without it

    h = sha256(b"rotspec-model-terms/1")
    h.update(A.order.to_bytes(8, "little"))
    for cols, vals in zip(A.columns, A.values):
        h.update(np.ascontiguousarray(cols, dtype="<i8"))
        h.update(np.ascontiguousarray(vals, dtype="<c16"))
    return h.hexdigest()


class _Nodes:
    """A grid's nodes re[i] + 1j*im[j] in row-major order, times rotation,
    built only for the slice or index array they are read with: each is
    the float-plus-complex sum that (re[:, None] + 1j*im[None, :]).reshape(-1)
    holds, bit for bit, and no grid holds all of its nodes at once. reach
    is max |lambda|, over the corner nodes."""

    def __init__(self, re: np.ndarray, im: np.ndarray, reach: float):
        self.re, self.im, self.rotation, self.reach = re, 1j * im, 1, reach
        self.size = re.size * im.size

    def __getitem__(self, at) -> np.ndarray:
        i, j = np.divmod(np.arange(*at.indices(self.size)) if isinstance(at, slice) else at,
                         self.im.size)
        lam = self.re[i] + self.im[j]
        return lam if self.rotation == 1 else lam * self.rotation


def _grid_nodes(norm: float, region: Region, resolution: tuple[int, int]) -> _Nodes:
    """The grid's nodes; InvalidInput unless max |lambda| + norm (a bound
    on ||A||), read off the corner nodes, is finite, which bounds the band
    route's scale |lambda| + sum |c| and every distance |lambda - h|, and
    unless one grid's values, which each route allocates, can be."""
    re_min, re_max, im_min, im_max = region
    nx, ny = resolution
    if not all(math.isfinite(x) for x in region):
        raise InvalidInput(f"region must be finite, got {region}")
    if not (re_min < re_max and im_min < im_max):
        raise InvalidInput(f"degenerate region {region}")
    if nx < 2 or ny < 2:
        raise InvalidInput(f"resolution must be >= 2 per axis, got {resolution}")
    if not (math.isfinite(re_max - re_min) and math.isfinite(im_max - im_min)):
        raise InvalidInput(f"the axis spans of region {region} are outside the float range")
    with np.errstate(over="ignore"):
        corners = np.array([re_min, re_max])[:, None] + 1j * np.array([im_min, im_max])
        reach = float(np.abs(corners).max())
    if not math.isfinite(reach + norm):
        raise InvalidInput(f"max |lambda| + ||A|| over region {region} is outside the float range")
    try:  # tried and freed here, so a route's own allocation is no MemoryError
        np.empty(nx * ny)
    except (MemoryError, ValueError) as exc:  # past the address space, or past intp
        raise InvalidInput(f"resolution {nx}x{ny} needs {8 * nx * ny} bytes for a grid's "
                           f"values, more than can be allocated") from exc
    return _Nodes(*_axes(region, resolution), reach)


def default_region(norm_bound: float, margin: float, inputs: str) -> Region:
    """Square of half-width r = norm_bound + 2*margin (1 for r = 0) centered
    at 0. 2r + norm_bound bounds what _grid_nodes checks; past the floats,
    it is refused with InvalidInput naming the caller's inputs."""
    r = float(norm_bound) + 2.0 * float(margin)
    if not math.isfinite(2 * r + float(norm_bound)):
        raise InvalidInput(f"the default region is outside the float range: {inputs}")
    if r <= 0:
        r = 1.0
    return (-r, r, -r, r)


def compute_grid(A: MatrixModel, region: Region, resolution: tuple[int, int]) -> PseudospectrumGrid:
    """Sample sigma_min(lambda*I - A) over the grid by the route of the
    module docstring; each route is one call on the grid's node source."""
    if not isinstance(A, MatrixModel):
        raise InvalidInput(f"a grid takes a MatrixModel, got {type(A).__name__}")
    nodes = _grid_nodes(spec_norm_bound(A.spec), region, resolution)

    spectrum = _model_spectrum(A)
    if spectrum is None:
        out = _banded_sigma_min(A, nodes)
    else:  # |conj(r) lambda - h| = |lambda - r h| for the eigenvalues r * h
        values, r = spectrum
        nodes.rotation = r.conjugate()
        out = _distances(nodes, values)

    return PseudospectrumGrid(
        region=tuple(float(x) for x in region),
        resolution=tuple(resolution),
        sigma_min_values=out.reshape(resolution),
    )


def _distances(points, values: np.ndarray) -> np.ndarray:
    """Each point's distance to the nearest value, the points (an array or
    a grid's _Nodes) read in blocks into one output: for ascending real
    values, np.hypot of Im p and the distance from Re p to its sorted
    neighbours, _NODE_BLOCK points at a time; for complex values, one
    |points| x |values| pass of complex abs in row blocks of about
    _CHUNK_BUDGET differences."""
    out = np.empty(points.size)
    real = not np.iscomplexobj(values)
    rows = _NODE_BLOCK if real else max(1, _CHUNK_BUDGET // len(values))
    for s in range(0, points.size, rows):
        p = points[s:s + rows]
        if real:
            x = p.real
            idx = np.searchsorted(values, x)
            below = values[np.maximum(idx - 1, 0)]
            above = values[np.minimum(idx, values.size - 1)]
            np.hypot(np.minimum(np.abs(x - below), np.abs(above - x)), p.imag,
                     out=out[s:s + rows])
        else:
            np.min(np.abs(p[:, None] - values[None, :]), axis=1, out=out[s:s + rows])
    return out


def level_set(grid: PseudospectrumGrid, epsilon: float) -> np.ndarray:
    """Boolean mask of grid points with sigma_min <= epsilon (the closed
    sublevel-set convention)."""
    if not 0 < epsilon < math.inf:
        raise InvalidInput(f"epsilon must be finite and > 0, got {epsilon}")
    return grid.sigma_min_values <= epsilon


# ---------------------------------------------------------------------------
# sandwich verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SandwichReport:
    """Outcome of the two grid inclusions at the resolvent tolerance
    slack = 1e-7 * (max(||S||, ||T||) + max |lambda|) of sandwich_check.

    Violations beyond slack mean a computed sigma_min broke a certified
    inequality (a bug), and passed goes False; violations within slack
    only raise the advisory grid_too_coarse flag.
    """

    epsilon: float
    delta: float
    resolution: tuple[int, int]
    region: Region
    inner_count: int
    middle_count: int
    outer_count: int
    hard_violations: tuple[complex, ...]
    advisory_count: int
    grid_too_coarse: bool
    passed: bool


def _hermitian_array(A: np.ndarray) -> np.ndarray:
    """A as a complex array if it is square, nonempty, finite (LAPACK, run
    without its own finiteness check, needs that for a true answer) and
    exactly Hermitian. A model is refused: it is never made dense."""
    if isinstance(A, MatrixModel):
        raise InvalidInput("a model is never made dense: sandwich_check takes arrays only")
    a = np.asarray(A, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidInput("matrix entries must be finite")
    if a.shape[0] == 0:
        raise InvalidInput("empty matrix")
    if not np.array_equal(a, a.conj().T):
        raise NotHermitian("sandwich_check takes arrays equal to their conjugate transpose")
    return a


def sandwich_check(S: np.ndarray, T: np.ndarray, epsilon: float,
                   region: Optional[Region] = None,
                   resolution: tuple[int, int] = DEFAULT_RESOLUTION) -> SandwichReport:
    """Verify mask_S(eps) <= mask_T(eps+delta) <= mask_S(eps+2*delta)
    pointwise on a shared grid, delta = ||S - T||, at the exact levels
    rounded up to floats; region None derives one from the norms. S, T
    and so S - T are exactly Hermitian arrays: a norm is the largest
    |eigenvalue|, a grid the distances to S's or T's eigenvalues. A model
    is refused, as are, with InvalidInput before any grid, an S - T
    (before any eigensolve), a level or a derived default region past the
    floats."""
    s, t = _hermitian_array(S), _hermitian_array(T)
    if s.shape != t.shape:
        raise InvalidInput(f"order mismatch {s.shape} vs {t.shape}")
    if not 0 < epsilon < math.inf:
        raise InvalidInput(f"epsilon must be finite and > 0, got {epsilon}")
    with np.errstate(over="ignore"):
        difference = s - t
    if not np.isfinite(difference).all():
        raise InvalidInput("S - T has entries outside the float range")
    eigs_s, eigs_t, eigs_d = (_band_eigenvalues(a) for a in (s, t, difference))
    delta, *norms = (float(np.abs(e).max()) for e in (eigs_d, eigs_s, eigs_t))
    region = region or default_region(
        max(norms), epsilon / 2 + delta + 0.25,
        f"||S|| = {norms[0]:.6e}, ||T|| = {norms[1]:.6e}, delta = {delta:.6e}")
    middle_level = float_up(Fraction(epsilon) + Fraction(delta))
    outer_level = float_up(Fraction(epsilon) + 2 * Fraction(delta))

    nodes = _grid_nodes(max(norms), region, resolution)
    sig_s, sig_t = (_distances(nodes, e) for e in (eigs_s, eigs_t))
    slack = 1e-7 * (max(norms) + nodes.reach)

    inner = sig_s <= epsilon
    middle = sig_t <= middle_level
    outer = sig_s <= outer_level

    hard: list[complex] = []
    advisory = 0
    for bad_mask, sig, level in (
        (inner & ~middle, sig_t, middle_level),
        (middle & ~outer, sig_s, outer_level),
    ):
        beyond = sig[bad_mask] > level + slack
        advisory += int(np.count_nonzero(~beyond))
        hard.extend(complex(z) for z in nodes[np.flatnonzero(bad_mask)[beyond][:32]])

    return SandwichReport(
        epsilon=float(epsilon),
        delta=delta,
        resolution=tuple(resolution),
        region=tuple(float(x) for x in region),
        inner_count=int(inner.sum()),
        middle_count=int(middle.sum()),
        outer_count=int(outer.sum()),
        hard_violations=tuple(hard),
        advisory_count=advisory,
        grid_too_coarse=advisory > 0,
        passed=not hard,
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def cloud_to_csv(cloud: np.ndarray) -> Iterator[str]:
    """The header re,im, then one line per point of a real or complex
    cloud, every float as %.17g (a real point's imaginary part is 0), in
    pieces of at most _CSV_LINES lines."""
    yield "re,im\n"
    for start in range(0, len(cloud), _CSV_LINES):
        yield "".join([f"{z.real:.17g},{z.imag:.17g}\n"
                       for z in cloud[start:start + _CSV_LINES].tolist()])


def grid_to_csv(grid: PseudospectrumGrid) -> Iterator[str]:
    """One line re,im,sigma_min per grid point in row-major order, every
    float as %.17g, after the header. Yields one piece per real-axis
    value: each imaginary-axis value is formatted once, and no whole-grid
    list of floats or lines is built: a row is one % operation."""
    re_ax, im_ax = grid.lambda_axes()
    ims = [f",{y:.17g},%.17g\n" for y in im_ax.tolist()]
    yield "re,im,sigma_min\n"
    for x, sig_row in zip(re_ax.tolist(), grid.sigma_min_values):
        re_txt = f"{x:.17g}"
        yield (re_txt + re_txt.join(ims)) % tuple(sig_row.tolist())


def grid_to_pgm(grid: PseudospectrumGrid) -> Iterator[bytes]:
    """16-bit big-endian P5 graymap: gray = round((clip(log10 sigma, -8, 2)
    + 8)/10 * 65535). Pixel row r, column c shows grid point i = c,
    j = ny-1-r, so the top image row is the largest imaginary part.
    Yields the header, then the pixels in blocks of rows of about
    _NODE_BLOCK pixels, each worked in place in one float buffer."""
    nx, ny = grid.resolution
    image = grid.sigma_min_values.T[::-1, :]  # rows = descending imaginary axis
    yield f"P5\n{nx} {ny}\n65535\n".encode("ascii")
    rows = max(1, _NODE_BLOCK // nx)
    for start in range(0, ny, rows):
        with np.errstate(divide="ignore"):
            gray = np.log10(image[start:start + rows])
        np.clip(gray, -8.0, 2.0, out=gray)
        gray += 8.0
        gray /= 10.0
        gray *= 65535.0
        np.rint(gray, out=gray)
        yield gray.astype(">u2").tobytes()
