"""Clock and shift matrices and operator specifications.

For a fraction p/q the q-dimensional model of the rotation relation is
built from u (the cyclic forward shift) and v = diag(omega^k) with
omega = e^{2*pi*i*p/q}: they satisfy u v = omega v u exactly. Operator
specifications are noncommutative Laurent polynomials sum c_{jk} U^j V^k;
the canonical four-term form alpha_1 U + alpha_-1 U* + beta_1 V +
beta_-1 V* is recognized structurally because the certified error radii
only exist for it.

A model is stored as its nonzeros, one per row and term, and no route
of the package makes it dense. Values come from exact integer residues:
omega^k is evaluated at the reduced exponent (p*k) mod q, and negative
powers use conjugated phases and shifted indices, so each adjoint pair
of terms is exactly adjoint in floating point; terms whose u-powers
agree mod q share slots, which can leave a few ulps of Hermitian defect.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional

import numpy as np

from .errors import EmptySpec, InvalidInput, InvalidOrder


# ---------------------------------------------------------------------------
# operator specifications
# ---------------------------------------------------------------------------

_CANONICAL_SLOTS = ((1, 0), (-1, 0), (0, 1), (0, -1))
_CANONICAL_KEYS = ("a+", "a-", "b+", "b-")


def _json_number(value, where: str) -> float:
    """A JSON number (not a bool) as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidInput(f"{where} must be a JSON number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise InvalidInput(f"{where} = {value} is outside the float range")


def _json_object(value, where: str, required: tuple[str, ...],
                 optional: tuple[str, ...]) -> None:
    """Refuse value unless it is an object with every required key and no unknown one."""
    if not isinstance(value, dict):
        raise InvalidInput(f"{where} must be a JSON object, got {value!r}")
    unknown = [k for k in value if k not in required + optional]
    if unknown:
        raise InvalidInput(f"{where} has unknown keys {unknown}")
    missing = [k for k in required if k not in value]
    if missing:
        raise InvalidInput(f"{where} lacks the key {missing[0]!r}")


def _json_term(t, where: str) -> tuple[int, int, complex]:
    _json_object(t, where, ("u", "v", "re"), ("im",))
    for key in ("u", "v"):
        if isinstance(t[key], bool) or not isinstance(t[key], int):
            raise InvalidInput(f'{where}: "{key}" must be a JSON integer, got {t[key]!r}')
    return t["u"], t["v"], complex(_json_number(t["re"], f'{where}: "re"'),
                                   _json_number(t.get("im", 0.0), f'{where}: "im"'))


def _json_canonical(c) -> tuple[complex, ...]:
    _json_object(c, '"canonical"', (), _CANONICAL_KEYS)
    coeffs = []
    for key in _CANONICAL_KEYS:
        pair = c.get(key, [0.0, 0.0])
        if not (isinstance(pair, list) and len(pair) == 2):
            raise InvalidInput(f'"canonical" "{key}" must be a pair [re, im], got {pair!r}')
        coeffs.append(complex(*(_json_number(x, f'"canonical" "{key}"') for x in pair)))
    return tuple(coeffs)


@dataclass(frozen=True)
class OperatorSpec:
    """Laurent polynomial sum c_{jk} U^j V^k (negative powers are adjoints).

    terms holds (u_power, v_power, coefficient), sorted by powers, with
    duplicate powers merged, zero coefficients dropped, and every
    coefficient and spec_norm_bound finite: general and canonical build it
    by one merge, and every other property is read off it. A spec with no
    terms is the canonical zero operator; general refuses one.
    """

    terms: tuple[tuple[int, int, complex], ...]

    @staticmethod
    def _merge(terms: Iterable[tuple[int, int, complex]]) -> "OperatorSpec":
        merged: dict[tuple[int, int], complex] = {}
        for j, k, c in terms:
            merged[(j, k)] = merged.get((j, k), 0) + complex(c)
        bad = [c for c in merged.values() if not cmath.isfinite(c)]
        if bad:
            raise InvalidInput(f"operator spec coefficients must be finite, got {bad[0]}")
        spec = OperatorSpec(tuple((j, k, c) for (j, k), c in sorted(merged.items()) if c != 0))
        if not math.isfinite(norm := spec_norm_bound(spec)):
            raise InvalidInput(f"sum |c| = {norm!r} of the spec is outside the float range")
        return spec

    @staticmethod
    def general(terms: Iterable[tuple[int, int, complex]]) -> "OperatorSpec":
        spec = OperatorSpec._merge(terms)
        if not spec.terms:
            raise EmptySpec("operator spec has no nonzero terms")
        return spec

    @staticmethod
    def canonical(alpha_plus: complex, alpha_minus: complex,
                  beta_plus: complex, beta_minus: complex) -> "OperatorSpec":
        coeffs = (alpha_plus, alpha_minus, beta_plus, beta_minus)
        return OperatorSpec._merge((j, k, c) for (j, k), c in zip(_CANONICAL_SLOTS, coeffs))

    @cached_property
    def canonical_four_term(self) -> Optional[tuple[complex, complex, complex, complex]]:
        """(alpha_plus, alpha_minus, beta_plus, beta_minus), zeros included,
        when every term sits in one of the slots U, U*, V, V*; else None."""
        by_slot = {(j, k): c for j, k, c in self.terms}
        if not by_slot.keys() <= set(_CANONICAL_SLOTS):
            return None
        return tuple(by_slot.get(slot, 0j) for slot in _CANONICAL_SLOTS)

    @property
    def is_canonical(self) -> bool:
        return self.canonical_four_term is not None

    @property
    def is_hermitian(self) -> bool:
        """True iff every model of the spec is hermitian, independent of
        the rotation parameter.

        The adjoint of u^j v^k is omega^(-jk) u^(-j) v^(-k), so conjugate
        coefficient pairing c_(-j,-k) = conj(c_(j,k)) gives a hermitian
        operator exactly when each term sits on an axis (j*k = 0); mixed
        terms pick up the parameter-dependent phase and are rejected.
        """
        by_slot = {(j, k): c for j, k, c in self.terms}
        return all(
            j * k == 0 and by_slot.get((-j, -k)) == c.conjugate()
            for j, k, c in self.terms
        )

    @property
    def is_normal(self) -> bool:
        """True iff the spec is canonical with a1 conj(b-1) = conj(a-1) b1 and
        a1 conj(b1) = conj(a-1) b-1, exactly on the float parts. [A, A*] = K + K*
        for K = c1 (1 - conj(omega)) u v + c2 (1 - omega) u v*, c1 and c2 the
        differences. For irrational theta, omega != 1 and the monomials U^j V^k
        are independent in A_theta, so the equations hold iff the operator is
        normal. Every model is normal then; a model at q >= 3 with omega^2 != 1
        (every convergent's model there) only then, while one at q <= 2 (u = u*)
        or omega^2 = 1 can be normal when the operator is not."""
        def times_conj(x: complex, y: complex) -> tuple[Fraction, Fraction]:
            (xr, xi), (yr, yi) = (map(Fraction, (z.real, z.imag)) for z in (x, y))
            return xr * yr + xi * yi, xi * yr - xr * yi

        if not self.is_canonical:
            return False
        a1, am, b1, bm = self.canonical_four_term
        return (times_conj(a1, bm) == times_conj(b1, am)
                and times_conj(a1, b1) == times_conj(bm, am))

    def to_json(self) -> dict:
        doc = {
            "terms": [
                {"u": j, "v": k, "re": c.real, "im": c.imag} for j, k, c in self.terms
            ]
        }
        if self.is_canonical:
            a1, am, b1, bm = self.canonical_four_term
            doc["canonical"] = {
                "a+": [a1.real, a1.imag], "a-": [am.real, am.imag],
                "b+": [b1.real, b1.imag], "b-": [bm.real, bm.imag],
            }
        return doc

    @staticmethod
    def from_json(doc: dict) -> "OperatorSpec":
        """The spec of a JSON object with "terms", "canonical" or both (which
        must agree); InvalidInput names the first bad entry. A term is an
        object with integer "u" and "v", a number "re" and an optional
        number "im"; "canonical" maps any of "a+", "a-", "b+", "b-" to a
        pair of numbers [re, im], an omitted slot being zero. Bools are not
        numbers, and unknown keys are refused."""
        _json_object(doc, "operator spec", (), ("terms", "canonical"))
        if "terms" not in doc:
            if "canonical" not in doc:
                raise InvalidInput('operator spec JSON needs "terms" or "canonical"')
            return OperatorSpec.canonical(*_json_canonical(doc["canonical"]))
        if not isinstance(doc["terms"], list):
            raise InvalidInput(f'"terms" must be a JSON list, got {doc["terms"]!r}')
        spec = OperatorSpec.general(_json_term(t, f'"terms"[{i}]')
                                    for i, t in enumerate(doc["terms"]))
        if "canonical" in doc and spec.canonical_four_term != _json_canonical(doc["canonical"]):
            raise InvalidInput("canonical block disagrees with the term list")
        return spec


def spec_norm_bound(spec: OperatorSpec) -> float:
    """sum |c_{jk}|, or inf past the float range; bounds the operator norm
    of every model since u, v are unitary."""
    try:
        return float(sum(abs(c) for _, _, c in spec.terms))
    except OverflowError:  # abs(c) of one coefficient past the float range
        return math.inf


# ---------------------------------------------------------------------------
# matrix models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatrixModel:
    """q x q realization of spec at p/q: term t puts values[t, i] at row i,
    column columns[t, i]. entries, the dense column-major matrix summed in
    term order, is built on first use for an outside oracle (bench/check.py);
    nothing in the package reads it. All arrays are write-protected."""

    order: int
    p: int
    spec: OperatorSpec
    columns: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.columns.setflags(write=False)
        self.values.setflags(write=False)

    @cached_property
    def entries(self) -> np.ndarray:
        a = np.zeros((self.order, self.order), dtype=np.complex128, order="F")
        for cols, vals in zip(self.columns, self.values):
            a[np.arange(self.order), cols] += vals
        a.setflags(write=False)
        return a


def _clock_diagonal(p: int, q: int, power: int = 1) -> np.ndarray:
    """Diagonal of v^power: phases omega^(power*k) with the exponent
    reduced mod q exactly; negative powers conjugate the positive phase."""
    r0 = (p * abs(power)) % q  # r0 < q and q*q fits in int64 at dense scale
    residues = (r0 * np.arange(q, dtype=np.int64)) % q
    phases = np.exp(2j * np.pi * (residues / q))
    return np.conj(phases) if power < 0 else phases


def build_operator(spec: OperatorSpec, p: int, q: int) -> MatrixModel:
    """Evaluate sum c_{jk} u^j v^k at u the cyclic shift and v the clock diagonal.

    u^j v^k has its only nonzero per row i at column (i+j) mod q, with
    value (v^k)_{(i+j) mod q}; the model stores these per term, so no
    matrix products and no dense matrix are formed.
    """
    if q < 1:
        raise InvalidOrder(f"matrix order must be >= 1, got q={q}")
    if not 0 <= p < q:
        raise InvalidOrder(f"need 0 <= p < q, got p={p}, q={q}")
    rows = np.arange(q)
    columns = np.empty((len(spec.terms), q), dtype=np.intp)
    values = np.empty((len(spec.terms), q), dtype=np.complex128)
    for t, (j, k, c) in enumerate(spec.terms):
        columns[t] = (rows + j % q) % q  # j may be past int64
        phases = _clock_diagonal(p, q, power=k)[columns[t]]
        # numpy's vector loop can flag an overflow in an intermediate of a
        # finite product (|c| <= sum |c| is finite); one that rounds past
        # the floats itself is refused below
        with np.errstate(over="ignore"):
            values[t] = c * phases
    if not np.isfinite(values).all():
        raise InvalidInput(f"a value c * omega^m of the model at q={q} is outside the float range")
    return MatrixModel(order=q, p=p, spec=spec, columns=columns, values=values)
