"""Certified spectral approximation: error radii with outward rounding.

Two certified statements are implemented, each as a computed radius
attached to finite data:

  * two-sided level-n certificates: the union of the spectra (or epsilon-
    pseudospectra) of the models h at the two convergents p_{n-1}/q_{n-1}
    and p_n/q_n approximates the infinite-dimensional operator within
    epsilon_n, where epsilon_n has a clean form 204*M*(1/q_{n-1} + 1/q_n)
    and a sharper practical form assembled from 2*pi / tail-sum pieces;
  * one-sided sqrt(n) certificates: for any denominator n and
    p = round(n*theta), r = C1/sqrt(n), C1 = 36*M*sqrt(3*pi), bounds the
    perturbation between the operator h and the model h_{p/n}, so
    sigma(h_{p/n}) lies in Lambda_r(h) = {lambda : sigma_min(lambda - h) <= r}
    and Lambda_eps(h_{p/n}) in Lambda_{eps+r}(h) (Trefethen & Embree 2005,
    ch. 2); for a normal h, Lambda_r(h) is sigma(h) + D(0, r).

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
    Theta,
    _quoted,
    expand,
    round_nearest,
    tail_constant_enclosure,
)
from .errors import (
    DEFAULT_RESOLUTION,
    MAX_Q,
    RATE_FLAG,
    EmptyCloud,
    IndexOutOfRange,
    InvalidInput,
    ModelsNotNormal,
    NonCanonicalSpec,
    PrecisionExhausted,
    ResourceBudgetExceeded,
    ThetaRational,
)
from .exact import PI_HI, PI_LO, float_down, float_up, sqrt_lower, sqrt_upper
from .matmodel import OperatorSpec, build_operator, spec_norm_bound
from .pseudospectra import (
    PseudospectrumGrid,
    Region,
    _distances,
    compute_grid,
    default_region,
    level_set,
    matrix_fingerprint,
)
from .spectral import normal_eigenvalues


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
    """sharp_bound_exact at level n, rounded up to a float."""
    return float_up(sharp_bound_exact(spec, expansion, n))


def clean_bound_exact(spec: OperatorSpec, expansion: ContinuedFractionExpansion,
                      n: int) -> Fraction:
    """204 * M * (1/q_{n-1} + 1/q_n), which majorizes sharp_bound_exact
    at every level, so no level computes the sharp radius to compare.

    Proof: the weights satisfy |a1| + |a-1| <= 2M and |b1| + |b-1| <= 2M
    (each |c| is rounded up alone, and M is the largest), and q_{n+1} >
    q_n, so with PI_HI and T_hi the enclosures sharp_bound_exact uses,
    sharp <= 2M (2 PI_HI (1/q_{n-1} + 1/q_n) + 2 PI_HI T_hi/q_n
                  + PI_HI/q_{n-1} + 5 PI_HI/q_n + 5 PI_HI T_hi/q_n)
           = 2M (3 PI_HI/q_{n-1} + 7 PI_HI (1 + T_hi)/q_n)
          <= 14 PI_HI (1 + T_hi) M (1/q_{n-1} + 1/q_n),
    and 14 PI_HI (1 + T_hi) = 203.112... <= 204: with 1 + T =
    (3 sqrt(5) - 1)/(sqrt(5) - 1), this is the constant constant_audit
    encloses."""
    _, _, m_up = _canonical_weights(spec)
    qm, qn, _ = _q_triple(expansion, n)
    return 204 * m_up * (Fraction(1, qm) + Fraction(1, qn))


def clean_bound(spec: OperatorSpec, expansion: ContinuedFractionExpansion,
                n: int) -> float:
    """clean_bound_exact at level n, rounded up to a float."""
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
    """The ConstantAudit enclosures, each end rounded outward to a float."""
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

def _irrationality_caveat(theta: Theta) -> Optional[str]:
    irr = theta.irrational
    if irr is False:
        raise ThetaRational(
            f"theta {_quoted(str(theta))} is exactly rational; certified radii "
            "need irrational theta"
        )
    if irr is None:
        return "irrationality assumed: decimal input cannot certify it"
    return None


@dataclass(frozen=True)
class ApproximationCertificate:
    """Two-sided certificate at level n: every spectral point of the
    operator is within radius of the returned cloud and vice versa."""

    theta: Theta
    spec: OperatorSpec
    level_n: int
    pair: tuple[tuple[int, int], tuple[int, int]]  # ((p_{n-1}, q_{n-1}), (p_n, q_n))
    epsilon_clean: float
    epsilon_sharp: float
    caveat: Optional[str] = None

    @property
    def radius(self) -> float:
        return self.epsilon_sharp  # at most epsilon_clean (clean_bound_exact's proof)

    @property
    def q_pair(self) -> tuple[int, int]:
        return self.pair[0][1], self.pair[1][1]

    def to_json(self, cloud: Optional[np.ndarray] = None) -> dict:
        doc = {
            "theta": str(self.theta),
            "spec": self.spec.to_json(),
            "n": self.level_n,
            "q_pair": list(self.q_pair),
            "epsilon_sharp": self.epsilon_sharp,
            "epsilon_clean": self.epsilon_clean,
            "mode": "normal_hausdorff",
        }
        if self.caveat:
            doc["caveat"] = self.caveat
        if cloud is not None:
            doc["cloud"] = [[z.real, z.imag] for z in cloud.tolist()]
        return doc


def _check_budget(q: int, max_q: int, what: str) -> None:
    """Refuse a matrix order above the budget before anything is built."""
    if q > max_q:
        raise ResourceBudgetExceeded(f"{what} needs order q={q} > budget {max_q}")


def _expand_to_level(theta: Theta, n: int, max_q: int,
                     label: str) -> ContinuedFractionExpansion:
    """theta expanded through convergent n + 1, for a level-n certificate
    whose order q_n fits the budget. Level n is refused before theta is
    expanded when q_n >= F(n) (Fibonacci, F(0) = F(1) = 1) already
    exceeds the budget: n reaches the first index k with F(k) > max_q,
    and the message names F(k), never q_n. Then q_n itself is checked,
    with label naming the level."""
    k, f, g = 0, 1, 1  # F(k), F(k + 1)
    while f <= max_q:
        k, f, g = k + 1, g, f + g
    if n >= k:
        raise ResourceBudgetExceeded(
            f"level n={n} needs order q_{n} >= F({k}) = {f} > budget {max_q}")
    expansion = expand(theta, n + 1)
    _q_triple(expansion, n)
    _check_budget(expansion.q(n), max_q, f"{label} n={n}")
    return expansion


def _spectrum_caveat(theta: Theta, spec: OperatorSpec) -> Optional[str]:
    """Input gate of the Hausdorff certificates: irrational theta and a
    canonical normal spec (a Hermitian one among them), before theta is
    expanded or any model is built; returns the irrationality caveat."""
    caveat = _irrationality_caveat(theta)
    if not spec.is_canonical:
        raise NonCanonicalSpec(
            "certified spectra need the canonical four-term form; "
            "general specs get grids with a rate flag via certify_pseudospectrum"
        )
    if not spec.is_normal:
        raise ModelsNotNormal("models are not normal; use certify_pseudospectrum "
                              "(Hausdorff control of the spectrum alone is not "
                              "available here)")
    return caveat


def _certify_level(theta: Theta, spec: OperatorSpec,
                   expansion: ContinuedFractionExpansion, n: int,
                   caveat: Optional[str],
                   spectra: dict[int, np.ndarray]) -> tuple[np.ndarray, ApproximationCertificate]:
    """Level-n cloud, the multiset union of the two model spectra in the
    eigen routes' order, and certificate; spectra memoizes the model
    spectra by convergent index and gains the two this level needs."""
    for k in (n - 1, n):
        if k not in spectra:
            p, q = expansion.convergent(k)
            model = build_operator(spec, p % q, q)  # v is q-periodic in p
            spectra[k] = normal_eigenvalues(model)
    cert = ApproximationCertificate(
        theta=theta,
        spec=spec,
        level_n=n,
        pair=(expansion.convergent(n - 1), expansion.convergent(n)),
        epsilon_clean=clean_bound(spec, expansion, n),
        epsilon_sharp=sharp_bound(spec, expansion, n),
        caveat=caveat,
    )
    return np.sort(np.concatenate([spectra[n - 1], spectra[n]]), kind="stable"), cert


def certify_normal(theta: Theta, spec: OperatorSpec, n: int,
                   max_q: int = MAX_Q) -> tuple[np.ndarray, ApproximationCertificate]:
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
    For non-canonical specs no epsilon_n exists and the report gives only
    the rate flag. inclusion_verified checks outer | ~inner on masks
    nested by construction (the outer level is at least epsilon, on the
    same two grids), so no input makes it False and `pseudospectrum` exit
    5. grid_fingerprints are the matrix_fingerprint of the models behind
    grid_prev and grid_curr, hashed once for to_json: theta, spec and n
    name the operator, and the digests record the rounded models. Each
    covers a model's stored terms, a finer identity than its dense bytes
    where two terms share a slot at small q."""

    theta: Theta
    spec: OperatorSpec
    level_n: int
    q_pair: tuple[int, int]
    epsilon: float
    epsilon_n: Optional[float]
    epsilon_clean: Optional[float]
    grid_prev: PseudospectrumGrid
    grid_curr: PseudospectrumGrid
    grid_fingerprints: tuple[str, str]
    inner_mask: np.ndarray
    outer_mask: Optional[np.ndarray]
    inclusion_verified: bool
    caveat: Optional[str] = None

    @property
    def certified(self) -> bool:
        return self.epsilon_n is not None  # epsilon_n exists for canonical specs only

    def to_json(self) -> dict:
        return {
            "theta": str(self.theta),
            "spec": self.spec.to_json(),
            "n": self.level_n,
            "q_pair": list(self.q_pair),
            "epsilon": self.epsilon,
            "epsilon_n": self.epsilon_n,
            "epsilon_sharp": self.epsilon_n,  # the sharp radius is the one the sandwich uses
            "epsilon_clean": self.epsilon_clean,
            "certified": self.certified,
            "rate": RATE_FLAG,
            "mode": "pseudospectrum_sandwich",
            "caveat": self.caveat,
            "region": list(self.grid_prev.region),
            "resolution": list(self.grid_prev.resolution),
            "inner_count": int(self.inner_mask.sum()),
            "outer_count": int(self.outer_mask.sum()) if self.outer_mask is not None else None,
            "inclusion_verified": self.inclusion_verified,
            "grid_fingerprints": list(self.grid_fingerprints),
        }


def certify_pseudospectrum(theta: Theta, spec: OperatorSpec, n: int,
                           epsilon: float,
                           region: Optional[Region] = None,
                           resolution: tuple[int, int] = DEFAULT_RESOLUTION,
                           max_q: int = MAX_Q) -> PseudospectrumSandwich:
    """Grids for both convergent models plus the sandwich masks; the
    operator itself is never materialized. region None derives one from
    sum |c| and the levels; max_q bounds the model order."""
    if not 0 < epsilon < math.inf:
        raise InvalidInput(f"epsilon must be finite and > 0, got {epsilon}")
    caveat = _irrationality_caveat(theta)
    expansion = _expand_to_level(theta, n, max_q, "level")

    eps_n = sharp_bound(spec, expansion, n) if spec.is_canonical else None
    eps_clean = clean_bound(spec, expansion, n) if spec.is_canonical else None

    norm, margin = spec_norm_bound(spec), epsilon + 2 * (eps_n or 0.0)
    region = region or default_region(
        norm, margin, f"sum |c| = {norm:.6e}, epsilon + 2 epsilon_n = {margin:.6e}")
    h_prev, h_curr = (build_operator(spec, p % q, q)  # v is q-periodic in p
                      for p, q in map(expansion.convergent, (n - 1, n)))
    grid_prev = compute_grid(h_prev, region, resolution)
    grid_curr = compute_grid(h_curr, region, resolution)

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
        epsilon=float(epsilon), epsilon_n=eps_n, epsilon_clean=eps_clean,
        grid_prev=grid_prev, grid_curr=grid_curr,
        grid_fingerprints=(matrix_fingerprint(h_prev), matrix_fingerprint(h_curr)),
        inner_mask=inner, outer_mask=outer,
        inclusion_verified=verified, caveat=caveat,
    )


@dataclass(frozen=True)
class OneSidedCertificate:
    """sigma(h_{p/n}) lies in the operator's closed radius-pseudospectrum,
    radius = C1/sqrt(n): within radius of sigma(h) when h is normal
    (containment one way only; no Hausdorff claim)."""

    theta: Theta
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


OneSidedResult = Union[np.ndarray, PseudospectrumGrid]


def one_sided(theta: Theta, spec: OperatorSpec, n: int,
              region: Optional[Region] = None,
              resolution: tuple[int, int] = DEFAULT_RESOLUTION,
              max_q: int = MAX_Q) -> tuple[OneSidedResult, OneSidedCertificate]:
    """Single model at denominator n with p = round(n*theta), plus the
    sqrt(n)-rate certificate: its spectrum for a normal spec, within radius
    of the operator's; else a sigma_min grid, the model's epsilon-pseudospectrum
    lying in the operator's (epsilon + radius)-pseudospectrum. region None
    derives one from sum |c| and the radius; max_q bounds the model order n."""
    if n < 1:
        raise InvalidInput(f"denominator must be >= 1, got {n}")
    _check_budget(n, max_q, f"denominator n={n}")
    caveat = _irrationality_caveat(theta)
    p_star, tie = round_nearest(theta, n)
    p = p_star % n
    # the hypothesis |theta - p*/n| <= 1/(2n) must hold over theta's whole
    # enclosure; |x - p*/n| is convex, so checking both ends suffices
    if any(abs(end - Fraction(p_star, n)) > Fraction(1, 2 * n) for end in theta.bounds()):
        raise PrecisionExhausted(
            f"theta {_quoted(str(theta))} is not known closely enough to certify "
            f"|theta - {p_star}/{n}| <= 1/(2n)"
        )
    radius = float_up(one_sided_constant_exact(spec) / sqrt_lower(n))

    model = build_operator(spec, p, n)
    if spec.is_normal:
        result: OneSidedResult = normal_eigenvalues(model)
    else:
        norm = spec_norm_bound(spec)
        region = region or default_region(
            norm, radius, f"sum |c| = {norm:.6e}, radius = {radius:.6e}")
        result = compute_grid(model, region, resolution)

    cert = OneSidedCertificate(
        theta=theta, spec=spec, denominator_n=n, chosen_p=p, radius=radius,
        wrapped=p != p_star, tie_broken=tie, caveat=caveat,
    )
    return result, cert


# ---------------------------------------------------------------------------
# set geometry
# ---------------------------------------------------------------------------

def _directed(p: np.ndarray, q: np.ndarray) -> float:
    """max over p of the distance to q, the same float as one |P| x |Q|
    pass of complex abs. Two real clouds take the distance to the nearest
    sorted neighbour: rounded subtraction is monotone, and the abs of a
    real difference is exact. Any other pair takes the blocks, q cast to
    complex: numpy's complex abs is neither np.hypot (the two can differ in
    the last bit) nor monotone in |Re z| at fixed Im z."""
    if not (p.imag.any() or q.imag.any()):
        return float(np.max(_distances(p, np.sort(q.real))))
    return float(np.max(_distances(p, q.astype(complex, copy=False))))


def hausdorff_distance(P: np.ndarray, Q: np.ndarray) -> float:
    """max of the two directed max-min deviations, exact over the finite
    real or complex clouds."""
    if len(P) == 0 or len(Q) == 0:
        raise EmptyCloud("Hausdorff distance needs nonempty clouds")
    return max(_directed(P, Q), _directed(Q, P))


def one_sided_contains(P: np.ndarray, Q: np.ndarray, delta: float) -> bool:
    """True iff every point of P is strictly within delta of Q."""
    if not 0 < delta < math.inf:
        raise InvalidInput(f"delta must be finite and > 0, got {delta}")
    if len(P) == 0 or len(Q) == 0:
        raise EmptyCloud("containment test needs nonempty clouds")
    return _directed(P, Q) < delta


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
    """The rows of a convergence ladder against its deepest level reference_n."""

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


def convergence_study(theta: Theta, spec: OperatorSpec,
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

    clouds: dict[int, np.ndarray] = {}
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
    return ConvergenceTable(rows=rows, reference_n=n_max)
