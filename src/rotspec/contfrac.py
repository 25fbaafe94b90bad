"""Continued fractions of rotation parameters in exact arithmetic.

The rotation parameter theta lives in (0,1) and is given exactly as a big
rational or quadratic surd, or approximately as a decimal string.
parse_theta reads any of the three into one Theta, which refuses a value
outside (0,1): its normalized text, its value (a Fraction, or an
exact.Surd for a quadratic surd) and a half-width, 0 for exact input and
10^-k for a decimal with k digits, which stands for the certified
interval [v - 10^-k, v + 10^-k]. This module expands theta into partial
quotients a_1..a_N and convergents p_k/q_k (p_0 = 0, p_1 = 1, q_0 = 1,
q_1 = a_1, then the usual three-term recursion), entirely in exact
arithmetic. One loop runs the map x -> 1/x - floor(1/x) on an interval
(lo, hi), a point for exact theta, and emits a quotient only when both
ends agree on it:

  * rational inputs terminate at the exact finite expansion,
  * quadratic surds expand to arbitrary depth, and their first recurring
    state gives the periodic part,
  * decimal inputs stop, with the number of certified terms, once the
    ends disagree.

On top of the expansion sit the quantitative facts the error radii need:
the gap bound |theta - p_n/q_n| < 1/(q_n q_{n+1}) and the geometric
tail-sum constant 2*sqrt(5)/(sqrt(5)-1), which bounds sum_k 1/q_{n+k} by
its value over q_n. The Fibonacci bound q_{n+k} >= F(k) q_n (F(0) = F(1)
= 1), which bounds a level's order from below, is counted where it is
used: in approx's level gate and the CLI's expand.
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
# theta
# ---------------------------------------------------------------------------

_ENCLOSURE_DIGITS = 40  # decimal digits of sqrt(d) in a surd's enclosure


@dataclass(frozen=True)
class Theta:
    """A parsed rotation parameter: text is its normalized input text
    (str(theta)), value its exact value (a Fraction, or a Surd for a
    quadratic surd) or a decimal's written value, and halfwidth is 0 for
    exact input and 10^-k for a decimal with k digits, which stands for
    the certified interval [value - halfwidth, value + halfwidth]. A value
    outside (0,1) is InvalidInput."""

    text: str
    value: Union[Fraction, Surd]
    halfwidth: Fraction

    def __post_init__(self):
        surd = isinstance(self.value, Surd)
        if surd and self.value.rb == 0:
            raise InvalidInput(f"theta {_quoted(self.text)} is a rational surd (rb = 0)")
        if self.halfwidth < 0 or (surd and self.halfwidth):
            raise InvalidInput(f"theta {_quoted(self.text)} has half-width {self.halfwidth}; "
                               "it must be >= 0, and 0 for a surd")
        if not 0 < self.value < 1:
            raise InvalidInput(f"theta {_quoted(self.text)} is not in (0,1)")

    def __str__(self) -> str:
        return self.text

    @property
    def exact(self) -> bool:
        return self.halfwidth == 0

    @property
    def irrational(self) -> Optional[bool]:
        """True for surds, False for rationals, None (unknown, assumed) for
        decimal inputs."""
        return isinstance(self.value, Surd) if self.exact else None

    def bounds(self) -> tuple[Fraction, Fraction]:
        """Rational enclosure of the value: a point for a rational, one of
        width <= 2|rb| 10^-40 for a surd, the interval for a decimal."""
        if isinstance(self.value, Surd):
            return self.value.enclosure(_ENCLOSURE_DIGITS)
        return self.value - self.halfwidth, self.value + self.halfwidth


_THETA_GRAMMAR = {
    "rational": re.compile(r"rational:(-?\d+)/(-?\d+)\Z"),
    "surd": re.compile(r"surd:\((-?\d+)\+(-?\d+)\*sqrt\((\d+)\)\)/(-?\d+)\Z"),
    "decimal": re.compile(r"decimal:(0?\.([0-9]+))\Z"),
}


def _quoted(text: str) -> str:
    """text for an error message: quoted, and cut to its first 64 characters
    and its length when longer."""
    return repr(text) if len(text) <= 64 else f"{text[:64]!r}... ({len(text)} characters)"


def parse_theta(text: str) -> Theta:
    """Parse "rational:<p>/<q>", "surd:(<a>+<b>*sqrt(<d>))/<c>" or
    "decimal:<digits>" into a Theta: a rational is reduced with a positive
    denominator, a surd's integers are printed as int() prints them, and
    a decimal's digits are kept as written."""
    try:
        if m := _THETA_GRAMMAR["rational"].fullmatch(text):
            num, den = int(m.group(1)), int(m.group(2))
            if den == 0:
                raise InvalidInput("rational denominator must be nonzero")
            v = Fraction(num, den)
            return Theta(f"rational:{v.numerator}/{v.denominator}", v, Fraction(0))
        if m := _THETA_GRAMMAR["surd"].fullmatch(text):
            a, b, d, c = map(int, m.groups())
            if c == 0:
                raise InvalidInput("surd denominator c must be nonzero")
            if b == 0:
                raise InvalidInput("degenerate surd (b = 0); use a rational input")
            if d < 2 or is_perfect_square(d):
                raise InvalidInput(f"surd radicand d={d} must be >= 2 and non-square")
            return Theta(f"surd:({a}+{b}*sqrt({d}))/{c}",
                         Surd(Fraction(a, c), Fraction(b, c), d), Fraction(0))
        if m := _THETA_GRAMMAR["decimal"].fullmatch(text):
            return Theta(text, Fraction(m.group(1)), Fraction(1, 10 ** len(m.group(2))))
    except ValueError:  # int() past sys.get_int_max_str_digits()
        raise InvalidInput(f"theta text of {len(text)} characters has a number past Python's "
                           f"{sys.get_int_max_str_digits()}-digit int conversion limit") from None
    raise InvalidInput(
        f"cannot parse theta {_quoted(text)}; expected rational:<p>/<q>, "
        "surd:(<a>+<b>*sqrt(<d>))/<c> or decimal:<digits>"
    )


# ---------------------------------------------------------------------------
# expansion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContinuedFractionExpansion:
    """Partial quotients a_1..a_N with convergents (p_k, q_k), k = 0..N.

    terminated marks a rational theta whose full finite expansion was
    reached; periodic_part = (preperiod length, period length) for surds.
    """

    theta: Theta
    partial_quotients: tuple[int, ...]
    convergents: tuple[tuple[int, int], ...]
    periodic_part: Optional[tuple[int, int]] = None
    terminated: bool = False

    def convergent(self, k: int) -> tuple[int, int]:
        if not 0 <= k < len(self.convergents):
            raise IndexOutOfRange(
                f"convergent index {k} outside computed range 0..{len(self.convergents) - 1}"
            )
        return self.convergents[k]

    def q(self, k: int) -> int:
        return self.convergent(k)[1]

    def __post_init__(self):
        """Raise, also under python -O, unless (p_0, q_0) = (0, 1), a_k >= 1 and
        the recursion holds from (p_-1, q_-1) = (1, 0). The rest follows from
        these: D_k = p_k q_(k-1) - p_(k-1) q_k = -D_(k-1) and D_1 = p_1 = 1, so
        D_k = (-1)^(k-1); q_0 = 1 and q_k >= q_(k-1) + q_(k-2) > q_(k-1) for k >= 2."""
        a, conv = self.partial_quotients, self.convergents
        if len(conv) != len(a) + 1 or conv[0] != (0, 1):
            raise CertificateViolation(f"convergents of theta {_quoted(str(self.theta))} must "
                                       "be (0, 1) followed by one per partial quotient")
        pm2, qm2 = 1, 0
        for k in range(1, len(conv)):
            (p, q), (pprev, qprev), ak = conv[k], conv[k - 1], a[k - 1]
            if not (ak >= 1 and p == ak * pprev + pm2 and q == ak * qprev + qm2):
                raise CertificateViolation(
                    f"convergent {k} = {p}/{q} of theta {_quoted(str(self.theta))} breaks "
                    "a_k >= 1 or the recursion")
            pm2, qm2 = pprev, qprev


def _convergents_from_quotients(quotients) -> tuple[tuple[int, int], ...]:
    conv = [(0, 1)]
    pm1, qm1 = 1, 0  # virtual index -1 seeds the recursion
    p, q = 0, 1
    for a in quotients:
        p, q, pm1, qm1 = a * p + pm1, a * q + qm1, p, q
        conv.append((p, q))
    return tuple(conv)


def expand(theta: Theta, max_terms: int) -> ContinuedFractionExpansion:
    """Expand theta in (0,1) to at most max_terms partial quotients.

    Rational inputs may terminate early (exact finite expansion); surds
    always yield max_terms quotients plus the detected periodic part;
    decimal inputs either certify every requested quotient or raise
    PrecisionExhausted.
    """
    if max_terms < 1:
        raise InvalidInput(f"max_terms must be >= 1, got {max_terms}")

    # the remainder x_k = 1/x_{k-1} - a_{k-1} (x_0 = theta) lies in [lo, hi],
    # a point for exact theta
    lo = hi = theta.value
    if not theta.exact:
        lo, hi = theta.bounds()
    quotients: list[int] = []
    seen: dict = {}  # remainder -> its index, until one recurs
    periodic_part: Optional[tuple[int, int]] = None
    while len(quotients) < max_terms and hi != 0:  # hi = 0: a rational theta ended
        if lo <= 0:
            raise PrecisionExhausted(
                f"theta {_quoted(str(theta))} certifies only {len(quotients)} partial quotients "
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
                f"theta {_quoted(str(theta))} certifies only {len(quotients)} partial quotients "
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
    rational expansion).
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
    if theta.exact:
        gap = abs(theta.value - target)
        # consecutive-convergent determinant makes the terminal gap of a
        # terminated rational an equality; every other gap is strict
        strict = not (expansion.terminated and n == len(expansion.partial_quotients) - 1)
        if isinstance(gap, Surd):
            # the decimal digits of q*q_{n+1}, from its bit length: an int
            # of 4300 digits or more cannot be formatted
            digits = (q * qnext).bit_length() * 30103 // 100000 + 1  # exact or one more
            digits -= q * qnext < 10 ** (digits - 1)
            lo, hi = gap.enclosure(max(40, digits + 20))
        else:
            lo = hi = gap
        if not (gap < bound if strict else gap == bound):
            # named, not printed: q_n q_(n+1) may have more digits than print
            raise CertificateViolation(f"|theta - p_{n}/q_{n}| {'>=' if strict else '!='} "
                                       f"1/(q_{n} q_{n + 1}) for theta {_quoted(str(theta))}")
    else:
        tlo, thi = theta.bounds()
        lo = max(Fraction(0), tlo - target, target - thi)
        hi = max(abs(tlo - target), abs(thi - target))
        certified = hi < bound

    return GapBound(
        n=n, p=p, q=q, bound=bound, gap_lower=lo, gap_upper=hi,
        strict=strict, certified=certified,
    )


def tail_constant_enclosure(digits: int = 30) -> tuple[Fraction, Fraction]:
    """Rational enclosure of 2*sqrt(5)/(sqrt(5)-1) = (5+sqrt(5))/2, the
    geometric tail-sum constant (about 3.618034)."""
    return (5 + sqrt_lower(5, digits)) / 2, (5 + sqrt_upper(5, digits)) / 2


# ---------------------------------------------------------------------------
# exact helpers consumed by the certificate layer
# ---------------------------------------------------------------------------

def round_nearest(theta: Theta, n: int) -> tuple[int, bool]:
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
