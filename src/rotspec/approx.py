"""Certified spectral approximation: error radii with outward rounding.

Two certified statements are implemented, each as a computed radius
attached to finite data:

  * two-sided level-n certificates: the union of the spectra (or epsilon-
    pseudospectra) of the models h at the two convergents p_{n-1}/q_{n-1}
    and p_n/q_n approximates the infinite-dimensional operator within
    epsilon_n, where epsilon_n has a clean form 204*M*(1/q_{n-1} + 1/q_n)
    and a sharper practical form assembled from 2*pi / tail-sum pieces;
  * one-sided sqrt(n) certificates: for any denominator n and
    p = round(n*theta), sigma(h_{p/n}) lies within C1/sqrt(n) of the
    operator's spectrum, C1 = 36*M*sqrt(3*pi).

Every irrational constant enters through rational enclosures and the
final float conversion rounds up, so returned radii are true bounds.
All inputs pass the irrationality gate: exactly rational theta is
rejected, surds certify irrationality, decimal inputs carry a recorded
caveat that irrationality is assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Union

import numpy as np

from .contfrac import (
    ContinuedFractionExpansion,
    RealNumberInput,
    expand,
    fibonacci,
    round_nearest,
    tail_constant_enclosure,
    theta_bounds,
    theta_is_irrational,
)
from .errors import (
    CertificateViolation,
    EmptyCloud,
    IndexOutOfRange,
    InvalidInput,
    ModelsNotNormal,
    NonCanonicalSpec,
    NotNormal,
    PrecisionExhausted,
    ResourceBudgetExceeded,
    ThetaRational,
)
from .exact import PI_HI, PI_LO, float_down, float_up, sqrt_lower, sqrt_upper
from .matmodel import MatrixModel, OperatorSpec, build_operator, spec_norm_bound
from .pseudospectra import (
    GridParams,
    PointCloud,
    PseudospectrumGrid,
    _hermitian_distances,
    compute_grid,
    default_region,
    level_set,
    spectra_union,
)
from .spectral import eigenvalues_auto

RATE_FLAG = "O(1/q_{n-1} + 1/q_n)"
MAX_Q = 4096  # default matrix-order budget of every entry point


# ---------------------------------------------------------------------------
# exact constant assembly
# ---------------------------------------------------------------------------

def _abs_upper(c: complex, digits: int = 30) -> Fraction:
    """Rational upper bound on |c| from the exact square of its parts."""
    sq = Fraction(c.real) ** 2 + Fraction(c.imag) ** 2
    return sqrt_upper(sq, digits)


def _canonical_weights(spec: OperatorSpec) -> tuple[Fraction, Fraction, Fraction]:
    """(|a1|+|a-1|, |b1|+|b-1|, M) as rational upper bounds."""
    if not spec.is_canonical:
        raise NonCanonicalSpec(
            "certified radii exist for the canonical four-term form only; "
            f"general specs converge at rate {RATE_FLAG} without a computed constant"
        )
    a1, am, b1, bm = spec.canonical_four_term
    ups = [_abs_upper(c) for c in (a1, am, b1, bm)]
    return ups[0] + ups[1], ups[2] + ups[3], max(ups)


def _q_triple(expansion: ContinuedFractionExpansion, n: int) -> tuple[int, int, int]:
    if n < 1:
        raise IndexOutOfRange(f"level must be >= 1 (needs q_(n-1)), got n={n}")
    if n + 1 >= len(expansion.convergents):
        raise IndexOutOfRange(
            f"level n={n} needs convergent {n + 1}; computed 0..{len(expansion.convergents) - 1}"
        )
    return expansion.q(n - 1), expansion.q(n), expansion.q(n + 1)


def sharp_bound_exact(spec: OperatorSpec, expansion: ContinuedFractionExpansion,
                      n: int) -> Fraction:
    """The practical radius: with T = 2*sqrt(5)/(sqrt(5)-1),
    (|a1|+|a-1|) * [2*pi*(1/q_{n-1} + 1/q_n) + 2*pi*T/q_{n+1}]
    + (|b1|+|b-1|) * [pi/q_{n-1} + 5*pi/q_n + 5*pi*T/q_{n+1}],
    every factor rounded toward +inf."""
    au, bu, _ = _canonical_weights(spec)
    qm, qn, qp = (Fraction(x) for x in _q_triple(expansion, n))
    tail_hi = tail_constant_enclosure()[1]
    u_part = 2 * PI_HI * (1 / qm + 1 / qn) + (2 * PI_HI * tail_hi) / qp
    v_part = PI_HI / qm + 5 * PI_HI / qn + (5 * PI_HI * tail_hi) / qp
    return au * u_part + bu * v_part


def sharp_bound(spec: OperatorSpec, expansion: ContinuedFractionExpansion,
                n: int) -> float:
    return float_up(sharp_bound_exact(spec, expansion, n))


def clean_bound_exact(spec: OperatorSpec, expansion: ContinuedFractionExpansion,
                      n: int) -> Fraction:
    """204 * M * (1/q_{n-1} + 1/q_n)."""
    _, _, m_up = _canonical_weights(spec)
    qm, qn, _ = _q_triple(expansion, n)
    value = 204 * m_up * (Fraction(1, qm) + Fraction(1, qn))
    # the clean constant majorizes the sharp expression by construction
    sharp = sharp_bound_exact(spec, expansion, n)
    if sharp > value:
        raise CertificateViolation(
            f"sharp radius {float(sharp):.17g} exceeds the clean radius "
            f"{float(value):.17g} at level n={n}"
        )
    return value


def clean_bound(spec: OperatorSpec, expansion: ContinuedFractionExpansion,
                n: int) -> float:
    return float_up(clean_bound_exact(spec, expansion, n))


def one_sided_constant_exact(spec: OperatorSpec) -> Fraction:
    """C1 = 36 * M * sqrt(3*pi), rounded up."""
    _, _, m_up = _canonical_weights(spec)
    return 36 * m_up * sqrt_upper(3 * PI_HI)


@dataclass(frozen=True)
class ConstantAudit:
    """Programmatic audit of the majorization constants: the exact chain
    behind the clean bound, 14*pi*(3*sqrt(5)-1)/(sqrt(5)-1) <= 204, and
    the tail-sum constant 2*sqrt(5)/(sqrt(5)-1)."""

    majorization_lower: float
    majorization_upper: float
    majorization_below_204: bool
    tail_lower: float
    tail_upper: float


def constant_audit() -> ConstantAudit:
    s5_lo, s5_hi = sqrt_lower(5), sqrt_upper(5)
    # 14*pi*(3*sqrt(5)-1)/(sqrt(5)-1), monotone in each enclosure endpoint:
    # increasing in pi and in the numerator root, decreasing in the
    # denominator root
    major_lo = 14 * PI_LO * (3 * s5_lo - 1) / (s5_hi - 1)
    major_hi = 14 * PI_HI * (3 * s5_hi - 1) / (s5_lo - 1)
    tail_lo, tail_hi = tail_constant_enclosure()
    return ConstantAudit(
        majorization_lower=float_down(major_lo),
        majorization_upper=float_up(major_hi),
        majorization_below_204=major_hi <= 204,
        tail_lower=float_down(tail_lo),
        tail_upper=float_up(tail_hi),
    )


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def _irrationality_caveat(theta: RealNumberInput) -> Optional[str]:
    irr = theta_is_irrational(theta)
    if irr is False:
        raise ThetaRational(
            f"theta {theta} is exactly rational; certified radii "
            "need irrational theta"
        )
    if irr is None:
        return "irrationality assumed: decimal input cannot certify it"
    return None


@dataclass(frozen=True)
class ApproximationCertificate:
    """Two-sided certificate at level n: every spectral point of the
    operator is within radius of the returned cloud and vice versa."""

    theta: RealNumberInput
    spec: OperatorSpec
    level_n: int
    pair: tuple[tuple[int, int], tuple[int, int]]  # ((p_{n-1}, q_{n-1}), (p_n, q_n))
    epsilon_clean: float
    epsilon_sharp: float
    mode: str  # normal_hausdorff | pseudospectrum_sandwich
    caveat: Optional[str] = None

    @property
    def radius(self) -> float:
        return self.epsilon_sharp  # clean_bound refuses a sharp radius above the clean one

    @property
    def q_pair(self) -> tuple[int, int]:
        return self.pair[0][1], self.pair[1][1]

    def to_json(self, cloud: Optional[PointCloud] = None) -> dict:
        doc = {
            "theta": str(self.theta),
            "spec": self.spec.to_json(),
            "n": self.level_n,
            "q_pair": list(self.q_pair),
            "epsilon_sharp": self.epsilon_sharp,
            "epsilon_clean": self.epsilon_clean,
            "mode": self.mode,
        }
        if self.caveat:
            doc["caveat"] = self.caveat
        if cloud is not None:
            doc["cloud"] = [[z.real, z.imag] for z in cloud.points]
        return doc


def _convergent_model(spec: OperatorSpec, expansion: ContinuedFractionExpansion,
                      k: int) -> MatrixModel:
    p, q = expansion.convergent(k)
    return build_operator(spec, p % q, q)  # v is q-periodic in p


def _check_budget(q: int, max_q: int, what: str) -> None:
    """Refuse a matrix order above the budget before anything is built."""
    if q > max_q:
        raise ResourceBudgetExceeded(f"{what} needs order q={q} > budget {max_q}")


def _expand_to_level(theta: RealNumberInput, n: int, max_q: int,
                     label: str) -> ContinuedFractionExpansion:
    """theta expanded through convergent n + 1, for a level-n certificate
    whose order q_n fits the budget. Level n is refused before theta is
    expanded when q_n >= F(n) (Fibonacci, F(0) = F(1) = 1) already
    exceeds the budget: n reaches the first index k with F(k) > max_q,
    and the message names F(k), never q_n. Then q_n itself is checked,
    with label naming the level."""
    k = 0
    while fibonacci(k) <= max_q:
        k += 1
    if n >= k:
        raise ResourceBudgetExceeded(
            f"level n={n} needs order q_{n} >= F({k}) = {fibonacci(k)} > budget {max_q}")
    expansion = expand(theta, n + 1)
    _q_triple(expansion, n)
    _check_budget(expansion.q(n), max_q, f"{label} n={n}")
    return expansion


def _spectrum_caveat(theta: RealNumberInput, spec: OperatorSpec) -> Optional[str]:
    """Input gate of the Hausdorff certificates: irrational theta and the
    canonical form; returns the irrationality caveat."""
    caveat = _irrationality_caveat(theta)
    if not spec.is_canonical:
        raise NonCanonicalSpec(
            "certified spectra need the canonical four-term form; "
            "general specs get grids with a rate flag via certify_pseudospectrum"
        )
    return caveat


def _model_spectrum(spec: OperatorSpec, expansion: ContinuedFractionExpansion,
                    k: int) -> np.ndarray:
    """Spectrum of the model at convergent k; a non-Hermitian spec must
    give a normal model."""
    try:
        return eigenvalues_auto(_convergent_model(spec, expansion, k))
    except NotNormal as exc:
        raise ModelsNotNormal(
            "models are not normal; use certify_pseudospectrum (Hausdorff "
            "control of the spectrum alone is not available here)"
        ) from exc


def _certify_level(theta: RealNumberInput, spec: OperatorSpec,
                   expansion: ContinuedFractionExpansion, n: int,
                   caveat: Optional[str],
                   spectra: dict[int, np.ndarray]) -> tuple[PointCloud, ApproximationCertificate]:
    """Level-n cloud and certificate; spectra memoizes the model spectra
    by convergent index and gains the two this level needs."""
    for k in (n - 1, n):
        if k not in spectra:
            spectra[k] = _model_spectrum(spec, expansion, k)
    cert = ApproximationCertificate(
        theta=theta,
        spec=spec,
        level_n=n,
        pair=(expansion.convergent(n - 1), expansion.convergent(n)),
        epsilon_clean=clean_bound(spec, expansion, n),
        epsilon_sharp=sharp_bound(spec, expansion, n),
        mode="normal_hausdorff",
        caveat=caveat,
    )
    return spectra_union(spectra[n - 1], spectra[n]), cert


def certify_normal(theta: RealNumberInput, spec: OperatorSpec, n: int,
                   max_q: int = MAX_Q) -> tuple[PointCloud, ApproximationCertificate]:
    """sigma(h_{n-1}) union sigma(h_n) with the certified radius
    epsilon_sharp; models must be normal."""
    caveat = _spectrum_caveat(theta, spec)
    expansion = _expand_to_level(theta, n, max_q, "level")
    return _certify_level(theta, spec, expansion, n, caveat, {})


@dataclass(frozen=True)
class PseudospectrumSandwich:
    """Grid enclosure pair: the inner union of level-epsilon masks and
    the outer union at epsilon + 2*epsilon_n (the exact sum rounded up to
    a float) bracket the operator's (epsilon + epsilon_n)-pseudospectrum.
    For non-canonical specs no epsilon_n exists and only the rate flag is
    carried."""

    theta: RealNumberInput
    spec: OperatorSpec
    level_n: int
    q_pair: tuple[int, int]
    epsilon: float
    epsilon_n: Optional[float]
    epsilon_sharp: Optional[float]
    epsilon_clean: Optional[float]
    certified: bool
    rate: str
    grid_prev: PseudospectrumGrid
    grid_curr: PseudospectrumGrid
    inner_mask: np.ndarray
    outer_mask: Optional[np.ndarray]
    inclusion_verified: bool
    mode: str = "pseudospectrum_sandwich"
    caveat: Optional[str] = None

    def to_json(self) -> dict:
        return {
            "theta": str(self.theta),
            "spec": self.spec.to_json(),
            "n": self.level_n,
            "q_pair": list(self.q_pair),
            "epsilon": self.epsilon,
            "epsilon_n": self.epsilon_n,
            "epsilon_sharp": self.epsilon_sharp,
            "epsilon_clean": self.epsilon_clean,
            "certified": self.certified,
            "rate": self.rate,
            "mode": self.mode,
            "caveat": self.caveat,
            "region": list(self.grid_prev.region),
            "resolution": list(self.grid_prev.resolution),
            "inner_count": int(self.inner_mask.sum()),
            "outer_count": int(self.outer_mask.sum()) if self.outer_mask is not None else None,
            "inclusion_verified": self.inclusion_verified,
            "grid_fingerprints": [
                self.grid_prev.matrix_fingerprint,
                self.grid_curr.matrix_fingerprint,
            ],
        }


def certify_pseudospectrum(theta: RealNumberInput, spec: OperatorSpec, n: int,
                           epsilon: float,
                           grid_params: Optional[GridParams] = None,
                           max_q: int = MAX_Q) -> PseudospectrumSandwich:
    """Grids for both convergent models plus the sandwich masks; the
    operator itself is never materialized. max_q bounds the model order."""
    if not 0 < epsilon < math.inf:
        raise InvalidInput(f"epsilon must be finite and > 0, got {epsilon}")
    caveat = _irrationality_caveat(theta)
    expansion = _expand_to_level(theta, n, max_q, "level")
    gp = grid_params or GridParams()

    if spec.is_canonical:
        eps_sharp = sharp_bound(spec, expansion, n)
        eps_clean = clean_bound(spec, expansion, n)
        eps_n: Optional[float] = eps_sharp
        certified = True
    else:
        eps_sharp = eps_clean = eps_n = None
        certified = False

    h_prev, h_curr = (_convergent_model(spec, expansion, k) for k in (n - 1, n))
    margin = epsilon + 2 * (eps_n or 0.0)
    region = gp.region or default_region(spec_norm_bound(spec), margin)
    grid_prev = compute_grid(h_prev, region, gp.resolution, gp.jobs)
    grid_curr = compute_grid(h_curr, region, gp.resolution, gp.jobs)

    inner = level_set(grid_prev, epsilon) | level_set(grid_curr, epsilon)
    if eps_n is not None:
        outer_level = float_up(Fraction(epsilon) + 2 * Fraction(eps_n))
        outer = level_set(grid_prev, outer_level) | level_set(grid_curr, outer_level)
        verified = bool(np.all(outer | ~inner))
    else:
        outer = None
        verified = True

    return PseudospectrumSandwich(
        theta=theta, spec=spec, level_n=n,
        q_pair=(expansion.q(n - 1), expansion.q(n)),
        epsilon=float(epsilon), epsilon_n=eps_n,
        epsilon_sharp=eps_sharp, epsilon_clean=eps_clean,
        certified=certified, rate=RATE_FLAG,
        grid_prev=grid_prev, grid_curr=grid_curr,
        inner_mask=inner, outer_mask=outer,
        inclusion_verified=verified, caveat=caveat,
    )


@dataclass(frozen=True)
class OneSidedCertificate:
    """sigma(h_{p/n}) lies within radius = C1/sqrt(n) of the operator's
    spectrum (containment one way only; no Hausdorff claim)."""

    theta: RealNumberInput
    spec: OperatorSpec
    denominator_n: int
    chosen_p: int
    radius: float
    wrapped: bool = False      # round(n*theta) = n, stored mod n
    tie_broken: bool = False   # decimal half-integer tie, broken to even
    caveat: Optional[str] = None

    def to_json(self) -> dict:
        return {
            "theta": str(self.theta),
            "spec": self.spec.to_json(),
            "n": self.denominator_n,
            "p": self.chosen_p,
            "radius": self.radius,
            "wrapped": self.wrapped,
            "tie_broken": self.tie_broken,
            "caveat": self.caveat,
        }


OneSidedResult = Union[PointCloud, PseudospectrumGrid]


def one_sided(theta: RealNumberInput, spec: OperatorSpec, n: int,
              grid_params: Optional[GridParams] = None,
              max_q: int = MAX_Q) -> tuple[OneSidedResult, OneSidedCertificate]:
    """Single model at denominator n with p = round(n*theta); returns its
    spectrum (normal case) or a sigma_min grid, plus the sqrt(n)-rate
    certificate. max_q bounds the model order n."""
    if n < 1:
        raise InvalidInput(f"denominator must be >= 1, got {n}")
    _check_budget(n, max_q, f"denominator n={n}")
    caveat = _irrationality_caveat(theta)
    p_star, tie = round_nearest(theta, n)
    p = p_star % n
    # the hypothesis |theta - p*/n| <= 1/(2n) must hold over theta's whole
    # enclosure; |x - p*/n| is convex, so checking both ends suffices
    if any(abs(end - Fraction(p_star, n)) > Fraction(1, 2 * n) for end in theta_bounds(theta)):
        raise PrecisionExhausted(
            f"theta {theta} is not known closely enough to certify "
            f"|theta - {p_star}/{n}| <= 1/(2n)"
        )
    radius = float_up(one_sided_constant_exact(spec) / sqrt_lower(n))

    model = build_operator(spec, p, n)
    result: OneSidedResult
    try:
        result = PointCloud(eigenvalues_auto(model))
    except NotNormal:
        gp = grid_params or GridParams()
        region = gp.region or default_region(spec_norm_bound(spec), radius)
        result = compute_grid(model, region, gp.resolution, gp.jobs)

    cert = OneSidedCertificate(
        theta=theta, spec=spec, denominator_n=n, chosen_p=p, radius=radius,
        wrapped=p != p_star, tie_broken=tie, caveat=caveat,
    )
    return result, cert


# ---------------------------------------------------------------------------
# set geometry
# ---------------------------------------------------------------------------

_DIRECTED_CHUNK = 1 << 18  # complex distances per block of rows of P


def _directed(p: np.ndarray, q: np.ndarray) -> float:
    """max over p of the distance to q, the same float as one |P| x |Q|
    pass of complex abs. Two real clouds take the distance to the nearest
    sorted neighbour: rounded subtraction is monotone, and the abs of a
    real difference is exact. Any other pair takes row blocks of about
    _DIRECTED_CHUNK distances, whose min and max are exact. (numpy's
    complex abs is not np.hypot, and the two can differ in the last bit,
    so a complex p keeps the blocks.)"""
    if not (p.imag.any() or q.imag.any()):
        return float(np.max(_hermitian_distances(np.sort(q.real), p)))
    rows = max(1, _DIRECTED_CHUNK // len(q))
    return max(
        float(np.max(np.min(np.abs(p[s:s + rows, None] - q[None, :]), axis=1)))
        for s in range(0, len(p), rows)
    )


def hausdorff_distance(P: PointCloud, Q: PointCloud) -> float:
    """max of the two directed max-min deviations, exact over the finite
    clouds."""
    if len(P) == 0 or len(Q) == 0:
        raise EmptyCloud("Hausdorff distance needs nonempty clouds")
    return max(_directed(P.points, Q.points), _directed(Q.points, P.points))


def one_sided_contains(P: PointCloud, Q: PointCloud, delta: float) -> bool:
    """True iff every point of P is strictly within delta of Q."""
    if delta <= 0:
        raise InvalidInput(f"delta must be > 0, got {delta}")
    if len(P) == 0 or len(Q) == 0:
        raise EmptyCloud("containment test needs nonempty clouds")
    return _directed(P.points, Q.points) < delta


# ---------------------------------------------------------------------------
# convergence ladder
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    q_prev: int
    q_n: int
    epsilon_sharp: float
    epsilon_clean: float
    empirical_dh: float
    certified_bound: float  # epsilon_sharp(n) + epsilon_sharp(n_max)

    @property
    def within_bound(self) -> bool:
        return self.empirical_dh <= self.certified_bound + 1e-8


@dataclass(frozen=True)
class ConvergenceTable:
    theta: RealNumberInput
    spec: OperatorSpec
    rows: tuple[ConvergenceRow, ...]
    reference_n: int

    @property
    def all_verified(self) -> bool:
        return all(r.within_bound for r in self.rows)

    def to_csv(self) -> Iterator[str]:
        """The header, then one line per row."""
        yield "n,q_prev,q_n,epsilon_sharp,epsilon_clean,empirical_dH\n"
        for r in self.rows:
            yield (f"{r.n},{r.q_prev},{r.q_n},{r.epsilon_sharp:.17g},"
                   f"{r.epsilon_clean:.17g},{r.empirical_dh:.17g}\n")


def convergence_study(theta: RealNumberInput, spec: OperatorSpec,
                      n_range, max_q: int = MAX_Q) -> ConvergenceTable:
    """Ladder of certificates with the deepest level as the reference
    proxy for the operator's spectrum: empirical_dH(n) compares cloud(n)
    against cloud(n_max) and must stay below epsilon_sharp(n) +
    epsilon_sharp(n_max) (triangle inequality through the true spectrum)."""
    levels = sorted(set(int(n) for n in n_range))
    if not levels:
        raise InvalidInput("empty level range")
    if levels[0] < 1:
        raise InvalidInput(f"levels must be >= 1, got {levels[0]}")
    n_max = levels[-1]
    caveat = _spectrum_caveat(theta, spec)
    expansion = _expand_to_level(theta, n_max, max_q, "deepest level")

    clouds: dict[int, PointCloud] = {}
    certs: dict[int, ApproximationCertificate] = {}
    spectra: dict[int, np.ndarray] = {}  # each convergent's model is solved once
    for n in levels:
        clouds[n], certs[n] = _certify_level(theta, spec, expansion, n, caveat, spectra)
    ref_sharp = certs[n_max].epsilon_sharp
    rows = tuple(
        ConvergenceRow(
            n=n,
            q_prev=certs[n].q_pair[0],
            q_n=certs[n].q_pair[1],
            epsilon_sharp=certs[n].epsilon_sharp,
            epsilon_clean=certs[n].epsilon_clean,
            empirical_dh=hausdorff_distance(clouds[n], clouds[n_max]),
            certified_bound=certs[n].epsilon_sharp + ref_sharp,
        )
        for n in levels
    )
    return ConvergenceTable(theta=theta, spec=spec, rows=rows, reference_n=n_max)
