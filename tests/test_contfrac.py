"""Continued-fraction expansion, certified gaps, and convergent tests.

Oracle strategy: quotient sequences for the golden conjugate
(sqrt(5)-1)/2 = [0;1,1,1,...], sqrt(2)-1 = [0;2,2,2,...] and
1/sqrt(2) = [0;1,2,2,2,...] are classical closed forms asserted
directly; every quantitative claim (gaps, bounds, Fibonacci growth) is
re-derived in exact Fraction arithmetic inside the test.
"""

import math
import os
import random
import re
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from rotspec.contfrac import (
    ContinuedFractionExpansion,
    Theta,
    convergent_gap,
    expand,
    fibonacci,
    parse_theta,
    round_nearest,
    tail_constant_enclosure,
)
from rotspec.errors import (
    CertificateViolation,
    IndexOutOfRange,
    InvalidInput,
    PrecisionExhausted,
)
from rotspec.exact import Surd

GOLDEN = "surd:(-1+1*sqrt(5))/2"
SQRT2M1 = "surd:(-1+1*sqrt(2))/1"
INV_SQRT2 = "surd:(0+1*sqrt(2))/2"


class TestParseTheta:
    def test_rational(self):
        th = parse_theta("rational:7/10")
        assert (th.value, th.halfwidth) == (Fraction(7, 10), 0)
        assert th.exact and th.irrational is False
        assert str(th) == "rational:7/10"

    def test_rational_reduces(self):
        th = parse_theta("rational:14/20")
        assert th.value == Fraction(7, 10)
        assert str(th) == "rational:7/10"

    def test_surd(self):
        th = parse_theta(GOLDEN)
        assert th.value == Surd(Fraction(-1, 2), Fraction(1, 2), 5)
        assert th.exact and th.irrational is True
        assert str(th) == GOLDEN

    def test_decimal(self):
        th = parse_theta("decimal:0.6180339887")
        assert (th.value, th.halfwidth) == (Fraction(6180339887, 10 ** 10), Fraction(1, 10 ** 10))
        assert not th.exact and th.irrational is None
        lo, hi = th.bounds()
        assert hi - lo == 2 * Fraction(1, 10 ** 10)

    @pytest.mark.parametrize("text, normalized", [
        ("rational:14/-20", "rational:-7/10"),
        ("rational:0/5", "rational:0/1"),
        ("surd:(-01+1*sqrt(5))/2", "surd:(-1+1*sqrt(5))/2"),
        ("decimal:.5", "decimal:.5"),
    ])
    def test_normalized_text(self, text, normalized):
        assert str(parse_theta(text)) == normalized

    def test_bounds_of_each_kind(self):
        assert parse_theta("rational:7/10").bounds() == (Fraction(7, 10), Fraction(7, 10))
        lo, hi = parse_theta("decimal:0.618").bounds()
        assert (lo, hi) == (Fraction(617, 1000), Fraction(619, 1000))
        for text, rb in ((GOLDEN, Fraction(1, 2)), ("surd:(1+-3*sqrt(7))/-4", Fraction(3, 4))):
            th = parse_theta(text)
            lo, hi = th.bounds()
            assert lo < th.value < hi
            assert hi - lo <= 2 * rb * Fraction(1, 10 ** 40)

    @pytest.mark.parametrize("value, halfwidth", [
        (Surd(Fraction(1, 3), 0, 5), Fraction(0)),           # a rational claiming irrationality
        (Fraction(1, 2), Fraction(-1, 10)),                  # negative half-width
        (Surd(Fraction(-1, 2), Fraction(1, 2), 5), Fraction(1, 10)),  # an inexact surd
    ])
    def test_theta_refuses_what_no_parse_gives(self, value, halfwidth):
        with pytest.raises(InvalidInput):
            Theta("theta", value, halfwidth)

    @pytest.mark.parametrize("bad", [
        "rational:7/0", "rational:x/2", "surd:(1+0*sqrt(2))/2",
        "surd:(1+1*sqrt(4))/2", "surd:(1+1*sqrt(2))/0", "decimal:5",
        "decimal:.5x", "golden", "", "rational:7/10 ",
    ])
    def test_rejects(self, bad):
        with pytest.raises(InvalidInput):
            parse_theta(bad)


class TestExpansion:
    def test_golden_quotients_all_one(self):
        e = expand(parse_theta(GOLDEN), 40)
        assert e.partial_quotients == (1,) * 40
        assert e.periodic_part == (0, 1)
        assert e.exact and not e.terminated

    def test_golden_convergents_are_fibonacci(self):
        e = expand(parse_theta(GOLDEN), 40)
        assert e.convergents[:7] == ((0, 1), (1, 1), (1, 2), (2, 3), (3, 5),
                                     (5, 8), (8, 13))
        assert e.q(40) == 165580141

    def test_sqrt2_minus_1(self):
        e = expand(parse_theta(SQRT2M1), 20)
        assert e.partial_quotients == (2,) * 20
        assert e.periodic_part == (0, 1)
        assert e.convergents[:4] == ((0, 1), (1, 2), (2, 5), (5, 12))

    def test_inv_sqrt2_has_preperiod(self):
        e = expand(parse_theta(INV_SQRT2), 20)
        assert e.partial_quotients == (1,) + (2,) * 19
        assert e.periodic_part == (1, 1)

    def test_rational_terminates(self):
        e = expand(parse_theta("rational:7/10"), 10)
        assert e.partial_quotients == (1, 2, 3)
        assert e.convergents == ((0, 1), (1, 1), (2, 3), (7, 10))
        assert e.terminated

    def test_rational_truncated_by_budget(self):
        e = expand(parse_theta("rational:7/10"), 2)
        assert e.partial_quotients == (1, 2)
        assert not e.terminated

    def test_convergent_recursion_and_determinant(self):
        # the dataclass re-asserts these; re-derive here independently
        e = expand(parse_theta(SQRT2M1), 25)
        a = e.partial_quotients
        p = [0, a[0] * 0 + 1]
        q = [1, a[0] * 1 + 0]
        for k in range(2, len(a) + 1):
            p.append(a[k - 1] * p[k - 1] + p[k - 2])
            q.append(a[k - 1] * q[k - 1] + q[k - 2])
        assert list(e.convergents) == list(zip(p, q))
        for k in range(1, len(e.convergents)):
            pk, qk = e.convergents[k]
            pm, qm = e.convergents[k - 1]
            assert pk * qm - pm * qk == (-1) ** (k - 1)
            assert math.gcd(pk, qk) == 1

    def test_decimal_prefix_agrees_with_surd_route(self):
        dec = parse_theta("decimal:0.6180339887")
        surd = expand(parse_theta(GOLDEN), 30)
        # find how deep the decimal certifies, then check the full prefix
        try:
            e = expand(dec, 30)
            certified = e.n_terms
        except PrecisionExhausted as exc:
            certified = exc.certified_terms
        assert certified >= 8
        e = expand(dec, certified)
        assert e.partial_quotients == surd.partial_quotients[:certified]
        assert not e.exact

    def test_decimal_one_half_exhausts_immediately(self):
        with pytest.raises(PrecisionExhausted) as err:
            expand(parse_theta("decimal:0.5"), 5)
        assert err.value.certified_terms == 0

    def test_unit_interval_enforced(self):
        for text in ("rational:3/2", "rational:0/1", "rational:-1/3",
                     "surd:(0+1*sqrt(2))/1", "decimal:0.0"):
            with pytest.raises(InvalidInput):
                expand(parse_theta(text), 5)

    def test_convergent_accessors(self):
        e = expand(parse_theta(GOLDEN), 5)
        assert e.convergent(0) == (0, 1)
        assert e.convergent(4) == (3, 5) and e.q(4) == 5
        with pytest.raises(IndexOutOfRange):
            e.convergent(6)
        with pytest.raises(IndexOutOfRange):
            e.convergent(-1)


def run_without_asserts(code: str) -> subprocess.CompletedProcess:
    """Run code under python -O, which strips assert statements, with the
    package source on the path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-O", "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=120)


class TestExpansionInvariants:
    """ContinuedFractionExpansion refuses quotients and convergents that
    break the recursion invariants, also under python -O."""

    @pytest.mark.parametrize("quotients, convergents", [
        ((1, 1), ((0, 1), (1, 1))),                    # one convergent short
        ((1, 1), ((1, 1), (1, 1), (1, 2))),            # (p_0, q_0) != (0, 1)
        ((0, 1), ((0, 1), (1, 0), (1, 1))),            # a_1 < 1
        ((1, 1), ((0, 1), (1, 1), (1, 3))),            # recursion and determinant
        ((1, 2), ((0, 1), (1, 1), (3, 3))),            # recursion and gcd
    ])
    def test_broken_invariant_raises(self, quotients, convergents):
        with pytest.raises(CertificateViolation):
            ContinuedFractionExpansion(theta=parse_theta(GOLDEN), partial_quotients=quotients,
                                       convergents=convergents)

    @pytest.mark.parametrize("text", [GOLDEN, "rational:7/10", "decimal:0.6180339887"])
    def test_exact_is_read_off_theta(self, text):
        theta = parse_theta(text)
        e = ContinuedFractionExpansion(theta=theta, partial_quotients=(1, 1),
                                       convergents=((0, 1), (1, 1), (1, 2)))
        assert e.exact == theta.exact == (not text.startswith("decimal:"))

    def test_broken_determinant_raises_without_asserts(self):
        run = run_without_asserts("""
            from rotspec.contfrac import ContinuedFractionExpansion, parse_theta
            from rotspec.errors import CertificateViolation
            try:
                ContinuedFractionExpansion(
                    theta=parse_theta("surd:(-1+1*sqrt(5))/2"), partial_quotients=(1, 1),
                    convergents=((0, 1), (1, 1), (1, 3)))
            except CertificateViolation:
                raise SystemExit(0)
            raise SystemExit("no violation raised for p_2 q_1 - p_1 q_2 = -2")
        """)
        assert run.returncode == 0, run.stdout + run.stderr


def shifted_convergents(expansion: ContinuedFractionExpansion):
    """Each copy of the convergents with one p_k or q_k moved by +-1, with
    the entry it moved."""
    for k, pair in enumerate(expansion.convergents):
        for j in (0, 1):
            for delta in (-1, 1):
                moved = list(pair)
                moved[j] += delta
                yield (k, "pq"[j], delta), (expansion.convergents[:k] + (tuple(moved),)
                                            + expansion.convergents[k + 1:])


class TestShiftedConvergents:
    """The base, a_k >= 1 and the recursion are all that __post_init__
    checks: every single entry moved by one breaks the recursion (or the
    base), so the determinant and increasing q_k need no check of their own."""

    @pytest.mark.parametrize("text", [GOLDEN, SQRT2M1, "rational:7/10"])
    def test_every_shift_of_one_entry_raises(self, text):
        e = expand(parse_theta(text), 30)
        kept = []
        for entry, convergents in shifted_convergents(e):
            try:
                ContinuedFractionExpansion(e.theta, e.partial_quotients, convergents)
            except CertificateViolation:
                continue
            kept.append(entry)
        assert not kept, f"shifted entries accepted: {kept}"

    def test_every_shift_raises_without_asserts(self):
        run = run_without_asserts("""
            import sys
            sys.path.insert(0, %r)
            from test_contfrac import shifted_convergents
            from rotspec.contfrac import ContinuedFractionExpansion, expand, parse_theta
            from rotspec.errors import CertificateViolation
            e = expand(parse_theta("surd:(-1+1*sqrt(5))/2"), 30)
            kept = []
            for entry, convergents in shifted_convergents(e):
                try:
                    ContinuedFractionExpansion(e.theta, e.partial_quotients, convergents)
                except CertificateViolation:
                    continue
                kept.append(entry)
            raise SystemExit(f"shifted entries accepted: {kept}" if kept else 0)
        """ % str(Path(__file__).resolve().parent))
        assert run.returncode == 0, run.stdout + run.stderr


# The expansion routines that the single interval loop of expand replaced,
# kept here as an oracle: one routine per kind of theta, with the
# integer-state machine on (P + sqrt(D))/Q for quadratic surds.

def reference_expand_rational(value: Fraction, max_terms: int):
    num, den = value.denominator, value.numerator
    quotients = []
    while den != 0 and len(quotients) < max_terms:
        a, rem = divmod(num, den)
        quotients.append(a)
        num, den = den, rem
    return quotients, den == 0


def reference_floor_state(P: int, D: int, Q: int) -> int:
    s = math.isqrt(D)
    if Q > 0:
        return (P + s) // Q
    return (-P - s - 1) // (-Q)


def surd_state(theta: Theta) -> tuple[int, int, int]:
    """(P, D, Q) with theta = (P + sqrt(D))/Q, before any rescaling, from
    the integers a, b, d, c of theta's text (a + b*sqrt(d))/c."""
    a, b, d, c = map(int, re.findall(r"-?\d+", str(theta)))
    return (a, b * b * d, c) if b > 0 else (-a, b * b * d, -c)


def reference_expand_surd(theta: Theta, max_terms: int):
    P, D, Q = surd_state(theta)
    if (D - P * P) % Q != 0:
        P, D, Q = P * abs(Q), D * Q * Q, Q * abs(Q)
    assert reference_floor_state(P, D, Q) == 0
    P = -P
    Q = (D - P * P) // Q
    quotients = []
    seen = {}
    periodic_part = None
    while len(quotients) < max_terms:
        state = (P, Q)
        if periodic_part is None:
            if state in seen:
                first = seen[state]
                periodic_part = (first, len(quotients) - first)
            else:
                seen[state] = len(quotients)
        ak = reference_floor_state(P, D, Q)
        quotients.append(ak)
        P = ak * Q - P
        Q = (D - P * P) // Q
    return quotients, periodic_part


def reference_expand_decimal(theta: Theta, max_terms: int):
    lo, hi = theta.bounds()
    quotients = []
    while len(quotients) < max_terms:
        if lo <= 0:
            raise PrecisionExhausted(
                f"theta {str(theta)!r} certifies only {len(quotients)} partial quotients "
                f"(interval endpoint reached 0); supply more digits",
                certified_terms=len(quotients),
            )
        a_hi, a_lo = (1 / hi).__floor__(), (1 / lo).__floor__()
        if a_hi != a_lo:
            raise PrecisionExhausted(
                f"theta {str(theta)!r} certifies only {len(quotients)} partial quotients "
                f"(endpoints give floors {a_hi} and {a_lo}); supply more digits "
                "or use rational:<p>/<q> for an exact rational",
                certified_terms=len(quotients),
            )
        quotients.append(a_hi)
        lo, hi = 1 / hi - a_hi, 1 / lo - a_hi
    return quotients


def reference_convergents(quotients) -> tuple[tuple[int, int], ...]:
    p, q = [1, 0], [0, 1]  # p_{-1}, p_0 and q_{-1}, q_0
    for k, a in enumerate(quotients, 1):
        p.append(a * p[k] + p[k - 1])
        q.append(a * q[k] + q[k - 1])
    return tuple(zip(p[1:], q[1:]))


def reference_outcome(theta, max_terms: int):
    try:
        periodic, terminated = None, False
        kind = str(theta).split(":")[0]
        if kind == "rational":
            quotients, terminated = reference_expand_rational(theta.value, max_terms)
        elif kind == "surd":
            quotients, periodic = reference_expand_surd(theta, max_terms)
        else:
            quotients = reference_expand_decimal(theta, max_terms)
    except PrecisionExhausted as exc:
        return "PrecisionExhausted", exc.certified_terms, str(exc)
    return (tuple(quotients), reference_convergents(quotients), periodic, terminated)


def expand_outcome(theta, max_terms: int):
    try:
        e = expand(theta, max_terms)
    except PrecisionExhausted as exc:
        return "PrecisionExhausted", exc.certified_terms, str(exc)
    return e.partial_quotients, e.convergents, e.periodic_part, e.terminated


def random_unit_surd(rng: random.Random) -> Theta:
    while True:
        d = rng.randint(2, 60)
        if math.isqrt(d) ** 2 == d:
            continue
        b = rng.choice([x for x in range(-9, 10) if x != 0])
        c = rng.choice([x for x in range(-24, 25) if x != 0])
        th = parse_theta(f"surd:({rng.randint(-40, 40)}+{b}*sqrt({d}))/{c}")
        if reference_floor_state(*surd_state(th)) == 0:  # an irrational in [0, 1)
            return th


class TestExpandAgainstReference:
    """expand against the per-kind routines it replaced, on a fixed seed:
    quotients, convergents, periodic part, termination, and for decimals
    the PrecisionExhausted error, its certified_terms and its message."""

    N = 1000

    def test_surds(self):
        rng = random.Random(20260808)
        thetas = [parse_theta("surd:(1+1*sqrt(3))/4"), parse_theta(GOLDEN),
                  parse_theta(INV_SQRT2)] + [random_unit_surd(rng) for _ in range(self.N)]
        rescaled = 0
        for th in thetas:
            P, D, Q = surd_state(th)
            rescaled += (D - P * P) % Q != 0
            n = rng.randint(1, 30)
            assert expand_outcome(th, n) == reference_outcome(th, n), str(th)
        P, D, Q = surd_state(thetas[0])
        assert (D - P * P) % Q != 0  # (1+sqrt(3))/4 takes the rescaling branch
        assert rescaled >= self.N // 4

    def test_rationals(self):
        rng = random.Random(16180339)
        terminated = truncated = 0
        for _ in range(self.N):
            q = rng.randint(2, 10 ** rng.randint(1, 15))
            th = parse_theta(f"rational:{rng.randint(1, q - 1)}/{q}")
            n = rng.randint(1, 30)
            outcome = expand_outcome(th, n)
            assert outcome == reference_outcome(th, n), str(th)
            terminated += outcome[3]
            truncated += not outcome[3]
        assert terminated >= 100 and truncated >= 100

    def test_decimals(self):
        rng = random.Random(27182818)
        kinds = {"endpoint": 0, "floors": 0, "certified": 0}
        for _ in range(self.N):
            digits = "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 25)))
            if int(digits) == 0:
                continue
            th = parse_theta("decimal:0." + digits)
            n = rng.randint(1, 30)
            outcome = expand_outcome(th, n)
            assert outcome == reference_outcome(th, n), str(th)
            if outcome[0] != "PrecisionExhausted":
                kinds["certified"] += 1
            else:
                kinds["endpoint" if "reached 0" in outcome[2] else "floors"] += 1
        assert min(kinds.values()) >= 10, kinds


class TestGapBound:
    def test_golden_gap_values(self):
        e = expand(parse_theta(GOLDEN), 12)
        g1 = convergent_gap(e, 1)
        # |theta - 1| = 1 - (sqrt(5)-1)/2 = (3-sqrt(5))/2 = 0.3819660...
        assert abs(g1.gap_float - 0.38196601125010515) < 1e-15
        assert g1.bound == Fraction(1, 1 * 2)
        g4 = convergent_gap(e, 4)
        # |theta - 3/5| = (sqrt(5)-1)/2 - 3/5 = (5*sqrt(5)-11)/10
        assert abs(g4.gap_float - 0.018033988749894848) < 1e-15
        assert g4.bound == Fraction(1, 5 * 8)
        assert g4.strict and g4.certified

    def test_sqrt2_gap_value(self):
        e = expand(parse_theta(SQRT2M1), 8)
        g2 = convergent_gap(e, 2)
        # |sqrt(2)-1 - 2/5| = sqrt(2) - 7/5 = 0.0142135...
        assert abs(g2.gap_float - (math.sqrt(2) - 1.4)) < 1e-15
        assert g2.bound == Fraction(1, 5 * 12)

    def test_enclosure_brackets_bound(self):
        for text in (GOLDEN, SQRT2M1, INV_SQRT2):
            e = expand(parse_theta(text), 15)
            for n in range(0, 14):
                g = convergent_gap(e, n)
                assert g.gap_lower <= g.gap_upper
                assert g.gap_upper < g.bound  # strict inequality, certified
                if n >= 1:
                    assert g.bound < Fraction(1, g.q) ** 2

    def test_gap_past_the_int_to_str_digit_limit(self):
        # q_10300 * q_10301 has about 4300 decimal digits, past the limit
        # on formatting an int as text; the enclosure is sized without it
        e = expand(parse_theta(GOLDEN), 10402)
        g = convergent_gap(e, 10300)
        assert g.strict and g.certified
        assert g.gap_lower <= g.gap_upper < g.bound

    def test_rational_equality_at_last_interior_index(self):
        e = expand(parse_theta("rational:7/10"), 10)
        g = convergent_gap(e, 2)  # |7/10 - 2/3| = 1/30 = 1/(3*10) exactly
        assert g.gap_lower == g.gap_upper == Fraction(1, 30) == g.bound
        assert not g.strict
        g1 = convergent_gap(e, 1)
        assert g1.gap_lower == g1.gap_upper == Fraction(3, 10) < g1.bound
        assert g1.strict

    @staticmethod
    def tampered(text: str):
        """Expansion whose q_6 is 10 times too large, set past the
        dataclass's own recursion checks."""
        e = expand(parse_theta(text), 12)
        conv = list(e.convergents)
        conv[6] = (conv[6][0], 10 * conv[6][1])
        object.__setattr__(e, "convergents", tuple(conv))
        return e

    @pytest.mark.parametrize("text", [GOLDEN, "rational:89/144"])
    def test_violated_gap_raises(self, text):
        with pytest.raises(CertificateViolation):
            convergent_gap(self.tampered(text), 5)

    def test_violated_gap_raises_without_asserts(self):
        # python -O strips assert statements; the certificate must not
        # depend on them
        code = textwrap.dedent("""
            from rotspec.contfrac import convergent_gap, expand, parse_theta
            from rotspec.errors import CertificateViolation
            for text in ("surd:(-1+1*sqrt(5))/2", "rational:89/144"):
                e = expand(parse_theta(text), 12)
                conv = list(e.convergents)
                conv[6] = (conv[6][0], 10 * conv[6][1])
                object.__setattr__(e, "convergents", tuple(conv))
                try:
                    convergent_gap(e, 5)
                except CertificateViolation:
                    continue
                raise SystemExit("no violation raised for " + text)
        """)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stdout + run.stderr

    def test_needs_next_convergent(self):
        e = expand(parse_theta(GOLDEN), 5)
        with pytest.raises(IndexOutOfRange):
            convergent_gap(e, 5)

    def test_decimal_gap_certified_when_interval_allows(self):
        dec = parse_theta("decimal:0.6180339887")
        e = expand(dec, 8)
        g = convergent_gap(e, 4)
        assert g.certified
        assert g.gap_lower <= Fraction(1, 10 ** 9) + g.gap_upper


class TestTailBounds:
    def test_tail_constant_value(self):
        lo, hi = tail_constant_enclosure()
        # 2*sqrt(5)/(sqrt(5)-1) = (5+sqrt(5))/2 = 3.6180339887...
        target = (5 + math.sqrt(5)) / 2
        assert float(lo) == pytest.approx(target, abs=1e-12)
        assert float(hi) == pytest.approx(target, abs=1e-12)
        assert lo < hi
        # independent check: T = (5+sqrt(5))/2 means (2T-5)^2 = 5
        assert (2 * lo - 5) ** 2 < 5 < (2 * hi - 5) ** 2

    def test_tail_sum_bound_dominates_true_tail(self):
        # sharp_bound's tail term: sum over k >= 0 of 1/q_{n+k} <= T/q_n
        e = expand(parse_theta(GOLDEN), 40)
        tail_hi = tail_constant_enclosure()[1]
        for n in (2, 5, 8):
            bound = tail_hi / e.q(n)
            true_tail = sum(Fraction(1, e.q(n + k)) for k in range(0, 30))
            assert true_tail < bound
        assert abs(float(tail_hi / e.q(5)) - 3.6180339887498949 / 8) < 1e-12

    def test_fibonacci_convention(self):
        assert [fibonacci(k) for k in range(8)] == [1, 1, 2, 3, 5, 8, 13, 21]

    def test_fibonacci_growth_sweep(self):
        # q_{n+k} >= F(k) * q_n; the level budget refuses level n from F(n)
        for text in (GOLDEN, SQRT2M1, INV_SQRT2, "rational:355/452"):
            e = expand(parse_theta(text), 12)
            top = len(e.convergents) - 1
            for n in range(0, top):
                for k in range(0, top - n):
                    assert e.q(n + k) >= fibonacci(k) * e.q(n)


def legendre(theta, p: int, q: int) -> bool:
    """|theta - p/q| < 1/(2q^2), exactly: Legendre's sufficient condition
    for p/q to be a convergent of theta."""
    return abs(theta.value - Fraction(p, q)) < Fraction(1, 2 * q * q)


class TestConvergentDetection:
    def test_sufficient_condition_pins(self):
        th = parse_theta(GOLDEN)
        assert legendre(th, 2, 3)
        assert legendre(th, 1, 2)
        assert not legendre(th, 3, 7)

    def test_sufficient_condition_implies_convergent(self):
        # Legendre direction: any p/q passing the check must appear among
        # the convergents
        for text in (GOLDEN, SQRT2M1, INV_SQRT2):
            th = parse_theta(text)
            e = expand(th, 25)
            for q in range(2, 40):
                for p in range(1, q):
                    if math.gcd(p, q) != 1:
                        continue
                    if legendre(th, p, q):
                        assert (p, q) in e.convergents

    def test_golden_convergents_satisfy_sufficient_condition(self):
        # for the golden conjugate the gap is ~1/(sqrt(5) q^2), and
        # sqrt(5) > 2, so every convergent n >= 1 passes
        th = parse_theta(GOLDEN)
        e = expand(th, 15)
        for n in range(2, 15):
            p, q = e.convergent(n)
            assert legendre(th, p, q)


class TestRoundNearest:
    def test_golden_cases(self):
        th = parse_theta(GOLDEN)
        assert round_nearest(th, 10) == (6, False)   # 6.18...
        assert round_nearest(th, 1) == (1, False)    # 0.618 rounds to 1
        assert round_nearest(th, 50) == (31, False)  # 30.9...
        assert round_nearest(th, 200) == (124, False)

    def test_exact_integer_no_tie(self):
        th = parse_theta("rational:1/3")
        assert round_nearest(th, 3) == (1, False)
        assert round_nearest(th, 6) == (2, False)

    def test_half_integer_tie_breaks_to_even(self):
        th = parse_theta("rational:1/2")
        assert round_nearest(th, 1) == (0, True)   # 0.5 -> 0 (even)
        assert round_nearest(th, 3) == (2, True)   # 1.5 -> 2 (even)
        th4 = parse_theta("rational:1/4")
        assert round_nearest(th4, 2) == (0, True)  # 0.5 -> 0

    def test_decimal_midpoint(self):
        th = parse_theta("decimal:0.6180339887")
        assert round_nearest(th, 10) == (6, False)

    def test_rejects_bad_n(self):
        with pytest.raises(InvalidInput):
            round_nearest(parse_theta(GOLDEN), 0)

