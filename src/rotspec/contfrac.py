"""Continued fractions of rotation parameters in exact arithmetic.

The rotation parameter theta lives in (0,1) and is given exactly as a big
rational or quadratic surd, or approximately as a decimal string. This
module expands theta into partial quotients a_1..a_N and convergents
p_k/q_k (p_0 = 0, p_1 = 1, q_0 = 1, q_1 = a_1, then the usual three-term
recursion), entirely in exact arithmetic. Every exact theta has one
exact .value (a Fraction for rationals, an exact.Surd for quadratic
surds); a decimal stands for the certified interval
[v - 10^-prec, v + 10^-prec]. One loop runs the map x -> 1/x - floor(1/x)
on an interval (lo, hi), a point for exact theta, and emits a quotient
only when both ends agree on it:

  * rational inputs terminate at the exact finite expansion,
  * quadratic surds expand to arbitrary depth, and their first recurring
    state gives the periodic part,
  * decimal inputs stop, with the number of certified terms, once the
    ends disagree.

On top of the expansion sit the quantitative facts the error radii need:
the gap bound |theta - p_n/q_n| < 1/(q_n q_{n+1}), the Fibonacci numbers
F(k) <= q_{n+k}/q_n that bound a level's order from below, and the
geometric tail-sum constant 2*sqrt(5)/(sqrt(5)-1), which bounds
sum_k 1/q_{n+k} by its value over q_n.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import (
    CertificateViolation,
    IndexOutOfRange,
    InvalidInput,
    PrecisionExhausted,
)
from .exact import Surd, is_perfect_square, sqrt_lower, sqrt_upper


# ---------------------------------------------------------------------------
# theta input variants
# ---------------------------------------------------------------------------

def _too_many_digits(what: str, length: int) -> InvalidInput:
    return InvalidInput(f"{what} of {length} characters has a number past Python's "
                        f"{sys.get_int_max_str_digits()}-digit int conversion limit")


@dataclass(frozen=True)
class BigRational:
    """Exact rational number p/q, stored reduced with q > 0."""

    numerator: int
    denominator: int

    def __post_init__(self):
        if self.denominator == 0:
            raise InvalidInput("rational denominator must be nonzero")
        g = math.gcd(self.numerator, self.denominator)
        num, den = self.numerator // g, self.denominator // g
        if den < 0:
            num, den = -num, -den
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)

    @property
    def value(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    def __str__(self) -> str:
        return f"rational:{self.numerator}/{self.denominator}"


@dataclass(frozen=True)
class QuadraticSurd:
    """Exact quadratic irrational (a + b*sqrt(d))/c with integer fields;
    d must not be a perfect square and b must be nonzero (a degenerate
    surd is just a rational in disguise and is rejected)."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.c == 0:
            raise InvalidInput("surd denominator c must be nonzero")
        if self.b == 0:
            raise InvalidInput("degenerate surd (b = 0); use a rational input")
        if self.d < 2 or is_perfect_square(self.d):
            raise InvalidInput(f"surd radicand d={self.d} must be >= 2 and non-square")

    @property
    def value(self) -> Surd:
        return Surd(Fraction(self.a, self.c), Fraction(self.b, self.c), self.d)

    def __str__(self) -> str:
        return f"surd:({self.a}+{self.b}*sqrt({self.d}))/{self.c}"


@dataclass(frozen=True)
class DecimalString:
    """Decimal literal standing for the certified interval
    [v - 10^-precision, v + 10^-precision], where precision counts the
    digits after the decimal point (last-place uncertainty)."""

    digits: str

    def __post_init__(self):
        if not re.fullmatch(r"0?\.[0-9]+", self.digits):
            raise InvalidInput(f"malformed decimal digits {self.digits!r}")
        try:
            Fraction(self.digits)
        except ValueError:  # Fraction's int() past sys.get_int_max_str_digits()
            raise _too_many_digits("decimal text", len(self.digits)) from None

    @property
    def precision(self) -> int:
        return len(self.digits.split(".", 1)[1])

    @property
    def value(self) -> Fraction:
        return Fraction(self.digits)

    def interval(self) -> tuple[Fraction, Fraction]:
        ulp = Fraction(1, 10**self.precision)
        return self.value - ulp, self.value + ulp

    def __str__(self) -> str:
        return f"decimal:{self.digits}"


RealNumberInput = Union[BigRational, QuadraticSurd, DecimalString]

_THETA_GRAMMAR = {
    "rational": re.compile(r"rational:(-?\d+)/(-?\d+)\Z"),
    "surd": re.compile(r"surd:\((-?\d+)\+(-?\d+)\*sqrt\((\d+)\)\)/(-?\d+)\Z"),
    "decimal": re.compile(r"decimal:(0?\.[0-9]+)\Z"),
}


def _quoted(text: str) -> str:
    """text for an error message: quoted, and cut to its first 64 characters
    and its length when longer."""
    return repr(text) if len(text) <= 64 else f"{text[:64]!r}... ({len(text)} characters)"


def parse_theta(text: str) -> RealNumberInput:
    """Parse "rational:<p>/<q>", "surd:(<a>+<b>*sqrt(<d>))/<c>" or
    "decimal:<digits>" into the corresponding input variant."""
    try:
        if m := _THETA_GRAMMAR["rational"].fullmatch(text):
            return BigRational(int(m.group(1)), int(m.group(2)))
        if m := _THETA_GRAMMAR["surd"].fullmatch(text):
            return QuadraticSurd(int(m.group(1)), int(m.group(2)),
                                 int(m.group(4)), int(m.group(3)))
    except ValueError:  # int() past sys.get_int_max_str_digits()
        raise _too_many_digits("theta text", len(text)) from None
    if m := _THETA_GRAMMAR["decimal"].fullmatch(text):
        return DecimalString(m.group(1))
    raise InvalidInput(
        f"cannot parse theta {_quoted(text)}; expected rational:<p>/<q>, "
        "surd:(<a>+<b>*sqrt(<d>))/<c> or decimal:<digits>"
    )


def theta_is_exact(theta: RealNumberInput) -> bool:
    return not isinstance(theta, DecimalString)


def theta_is_irrational(theta: RealNumberInput) -> Optional[bool]:
    """True for surds, False for rationals, None (unknown, assumed) for
    decimal inputs."""
    return isinstance(theta.value, Surd) if theta_is_exact(theta) else None


def theta_bounds(theta: RealNumberInput, digits: int = 40) -> tuple[Fraction, Fraction]:
    """Rational enclosure of the represented value (a point for exact
    inputs, the certified interval for decimals)."""
    if not theta_is_exact(theta):
        return theta.interval()
    v = theta.value
    return v.enclosure(digits) if theta_is_irrational(theta) else (v, v)


def require_unit_interval(theta: RealNumberInput) -> None:
    """Reject rotation parameters outside the open interval (0,1). For a
    decimal input the check applies to the written value."""
    if not 0 < theta.value < 1:
        raise InvalidInput(f"theta {_quoted(str(theta))} is not in (0,1)")


# ---------------------------------------------------------------------------
# expansion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContinuedFractionExpansion:
    """Partial quotients a_1..a_N with convergents (p_k, q_k), k = 0..N.

    exact is False only for decimal (precision-limited) inputs;
    terminated marks a rational theta whose full finite expansion was
    reached; periodic_part = (preperiod length, period length) for surds.
    """

    theta: RealNumberInput
    partial_quotients: tuple[int, ...]
    convergents: tuple[tuple[int, int], ...]
    exact: bool
    periodic_part: Optional[tuple[int, int]] = None
    terminated: bool = False

    @property
    def n_terms(self) -> int:
        return len(self.partial_quotients)

    def convergent(self, k: int) -> tuple[int, int]:
        if not 0 <= k < len(self.convergents):
            raise IndexOutOfRange(
                f"convergent index {k} outside computed range 0..{len(self.convergents) - 1}"
            )
        return self.convergents[k]

    def p(self, k: int) -> int:
        return self.convergent(k)[0]

    def q(self, k: int) -> int:
        return self.convergent(k)[1]

    def __post_init__(self):
        # exact-integer recursion invariants; cheap, always on, and raised
        # rather than asserted so that python -O keeps them
        a, conv = self.partial_quotients, self.convergents
        if len(conv) != len(a) + 1 or conv[0] != (0, 1):
            raise CertificateViolation(f"convergents of {self.theta} must be (0, 1) "
                                       "followed by one per partial quotient")
        pm2, qm2 = 1, 0
        for k in range(1, len(conv)):
            (p, q), (pprev, qprev), ak = conv[k], conv[k - 1], a[k - 1]
            if not (ak >= 1 and p == ak * pprev + pm2 and q == ak * qprev + qm2
                    and p * qprev - pprev * q == (-1) ** (k - 1)  # gcd(p_k, q_k) = 1
                    and (k < 2 or q > qprev)):
                raise CertificateViolation(
                    f"convergent {k} = {p}/{q} of {self.theta} breaks a_k >= 1, the "
                    "recursion, the determinant +-1 or increasing q_k")
            pm2, qm2 = pprev, qprev


def _convergents_from_quotients(quotients) -> tuple[tuple[int, int], ...]:
    conv = [(0, 1)]
    pm1, qm1 = 1, 0  # virtual index -1 seeds the recursion
    p, q = 0, 1
    for a in quotients:
        p, q, pm1, qm1 = a * p + pm1, a * q + qm1, p, q
        conv.append((p, q))
    return tuple(conv)


def expand(theta: RealNumberInput, max_terms: int) -> ContinuedFractionExpansion:
    """Expand theta in (0,1) to at most max_terms partial quotients.

    Rational inputs may terminate early (exact finite expansion); surds
    always yield max_terms quotients plus the detected periodic part;
    decimal inputs either certify every requested quotient or raise
    PrecisionExhausted.
    """
    if max_terms < 1:
        raise InvalidInput(f"max_terms must be >= 1, got {max_terms}")
    require_unit_interval(theta)

    # the remainder x_k = 1/x_{k-1} - a_{k-1} (x_0 = theta) lies in [lo, hi],
    # a point for exact theta
    lo = hi = theta.value
    if not theta_is_exact(theta):
        lo, hi = theta.interval()
    quotients: list[int] = []
    seen: dict = {}  # remainder -> its index, until one recurs
    periodic_part: Optional[tuple[int, int]] = None
    while len(quotients) < max_terms and hi != 0:  # hi = 0: a rational theta ended
        if lo <= 0:
            raise PrecisionExhausted(
                f"{theta} certifies only {len(quotients)} partial quotients "
                f"(interval endpoint reached 0); supply more digits",
                certified_terms=len(quotients),
            )
        if periodic_part is None:
            first = seen.setdefault((lo, hi), len(quotients))
            if first < len(quotients):
                periodic_part = (first, len(quotients) - first)
        # 1/x maps [lo, hi] onto [1/hi, 1/lo]; a point keeps lo is hi, so an
        # exact theta pays for one end only
        inv_hi = 1 / hi
        inv_lo = inv_hi if lo is hi else 1 / lo
        a_hi, a_lo = math.floor(inv_hi), math.floor(inv_lo)
        if a_hi != a_lo:
            raise PrecisionExhausted(
                f"{theta} certifies only {len(quotients)} partial quotients "
                f"(endpoints give floors {a_hi} and {a_lo}); supply more digits "
                "or use rational:<p>/<q> for an exact rational",
                certified_terms=len(quotients),
            )
        quotients.append(a_hi)
        lo = inv_hi - a_hi
        hi = lo if inv_lo is inv_hi else inv_lo - a_hi

    return ContinuedFractionExpansion(
        theta=theta,
        partial_quotients=tuple(quotients),
        convergents=_convergents_from_quotients(quotients),
        exact=theta_is_exact(theta),
        periodic_part=periodic_part,
        terminated=hi == 0,
    )


# ---------------------------------------------------------------------------
# quantitative bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GapBound:
    """Certified data for |theta - p_n/q_n| against 1/(q_n * q_{n+1}).

    gap_lower/gap_upper is a rational enclosure of the gap (a point for
    rational theta); strict records whether gap < bound strictly (it
    fails, with exact equality, only at the final index of a terminated
    rational expansion). For n >= 1, convergent_gap also checks
    bound < (1/q_n)^2 and raises CertificateViolation when it fails.
    """

    n: int
    p: int
    q: int
    bound: Fraction
    gap_lower: Fraction
    gap_upper: Fraction
    strict: bool = True
    certified: bool = True

    @property
    def gap_float(self) -> float:
        return float((self.gap_lower + self.gap_upper) / 2)


def convergent_gap(expansion: ContinuedFractionExpansion, n: int) -> GapBound:
    """Certified gap data at index n; needs q_{n+1}, so n+1 must be
    within the computed range."""
    if not 0 <= n + 1 < len(expansion.convergents):
        raise IndexOutOfRange(
            f"gap at n={n} needs convergent {n + 1}; computed 0..{len(expansion.convergents) - 1}"
        )
    p, q = expansion.convergent(n)
    qnext = expansion.q(n + 1)
    bound = Fraction(1, q * qnext)
    target = Fraction(p, q)
    theta = expansion.theta

    strict = certified = True
    if theta_is_exact(theta):
        gap = abs(theta.value - target)
        # consecutive-convergent determinant makes the terminal gap of a
        # terminated rational an equality; every other gap is strict
        strict = not (expansion.terminated and n == expansion.n_terms - 1)
        if isinstance(gap, Surd):
            # the decimal digits of q*q_{n+1}, from its bit length: an int
            # of 4300 digits or more cannot be formatted
            digits = (q * qnext).bit_length() * 30103 // 100000 + 1  # exact or one more
            digits -= q * qnext < 10 ** (digits - 1)
            lo, hi = gap.enclosure(max(40, digits + 20))
            violation = f"|theta - p_{n}/q_{n}| >= 1/(q_{n} q_{n + 1})"
        else:
            lo = hi = gap
            violation = f"exact gap {gap} against bound {bound} at n={n}"
        if not (gap < bound if strict else gap == bound):
            raise CertificateViolation(f"{violation} for {theta}")
    else:
        tlo, thi = theta.interval()
        lo = max(Fraction(0), tlo - target, target - thi)
        hi = max(abs(tlo - target), abs(thi - target))
        certified = hi < bound

    if n >= 1 and not bound < Fraction(1, q) ** 2:
        raise CertificateViolation(f"1/(q_{n} q_{n + 1}) >= 1/q_{n}^2 for {theta}")
    return GapBound(
        n=n, p=p, q=q, bound=bound, gap_lower=lo, gap_upper=hi,
        strict=strict, certified=certified,
    )


def tail_constant_enclosure(digits: int = 30) -> tuple[Fraction, Fraction]:
    """Rational enclosure of 2*sqrt(5)/(sqrt(5)-1) = (5+sqrt(5))/2, the
    geometric tail-sum constant (about 3.618034)."""
    return (5 + sqrt_lower(5, digits)) / 2, (5 + sqrt_upper(5, digits)) / 2


def fibonacci(k: int) -> int:
    """F(0) = 1 = F(1), F(2) = 2, F(k) = F(k-1) + F(k-2)."""
    if k < 0:
        raise InvalidInput(f"Fibonacci index must be >= 0, got {k}")
    a, b = 1, 1
    for _ in range(k):
        a, b = b, a + b
    return a


# ---------------------------------------------------------------------------
# exact helpers consumed by the certificate layer
# ---------------------------------------------------------------------------

def round_nearest(theta: RealNumberInput, n: int) -> tuple[int, bool]:
    """Exact nearest integer to n*theta, with ties (possible only for
    rational-valued inputs) broken to even. Returns (value, tie_was_broken)."""
    if n < 1:
        raise InvalidInput(f"n must be >= 1, got {n}")
    v = theta.value * n
    m = math.floor(v)
    half = Fraction(2 * m + 1, 2)
    if v == half:
        return m + m % 2, True
    return (m if v < half else m + 1), False
