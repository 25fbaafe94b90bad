"""Clock and shift matrices and operator specifications.

For a fraction p/q the q-dimensional model of the rotation relation is
built from u (the cyclic forward shift) and v = diag(omega^k) with
omega = e^{2*pi*i*p/q}: they satisfy u v = omega v u exactly. Operator
specifications are noncommutative Laurent polynomials sum c_{jk} U^j V^k;
the canonical four-term form alpha_1 U + alpha_-1 U* + beta_1 V +
beta_-1 V* is recognized structurally because the certified error radii
only exist for it.

A model is stored as its nonzeros, one per row and term, and the dense
matrix is built on demand. Entries come from exact integer residues:
omega^k is evaluated at the reduced exponent (p*k) mod q, and negative
powers use conjugated phases and shifted indices, so each adjoint pair
of terms is exactly adjoint in floating point; terms whose u-powers
agree mod q share slots, which can leave a few ulps of Hermitian defect.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

import numpy as np

from .errors import EmptySpec, InvalidInput, InvalidOrder


# ---------------------------------------------------------------------------
# operator specifications
# ---------------------------------------------------------------------------

_CANONICAL_SLOTS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def _check_finite(coefficients: Iterable[complex]) -> None:
    bad = [c for c in coefficients if not cmath.isfinite(c)]
    if bad:
        raise InvalidInput(f"operator spec coefficients must be finite, got {bad[0]}")


@dataclass(frozen=True)
class OperatorSpec:
    """Laurent polynomial sum c_{jk} U^j V^k (negative powers are adjoints).

    terms holds (u_power, v_power, coefficient) with duplicate powers
    merged and zero coefficients dropped. canonical_four_term is set iff
    every term sits in one of the four slots U, U*, V, V*; it stores
    (alpha_plus, alpha_minus, beta_plus, beta_minus) including zeros.
    """

    terms: tuple[tuple[int, int, complex], ...]
    canonical_four_term: Optional[tuple[complex, complex, complex, complex]] = None

    @staticmethod
    def general(terms: Iterable[tuple[int, int, complex]]) -> "OperatorSpec":
        merged: dict[tuple[int, int], complex] = {}
        for j, k, c in terms:
            merged[(j, k)] = merged.get((j, k), 0) + complex(c)
        _check_finite(merged.values())
        kept = tuple(
            (j, k, c) for (j, k), c in sorted(merged.items()) if c != 0
        )
        canonical = None
        if kept and all((j, k) in _CANONICAL_SLOTS for j, k, _ in kept):
            by_slot = {(j, k): c for j, k, c in kept}
            canonical = tuple(by_slot.get(slot, 0j) for slot in _CANONICAL_SLOTS)
        if not kept and canonical is None:
            raise EmptySpec("operator spec has no nonzero terms")
        return OperatorSpec(terms=kept, canonical_four_term=canonical)

    @staticmethod
    def canonical(alpha_plus: complex, alpha_minus: complex,
                  beta_plus: complex, beta_minus: complex) -> "OperatorSpec":
        coeffs = (complex(alpha_plus), complex(alpha_minus),
                  complex(beta_plus), complex(beta_minus))
        _check_finite(coeffs)
        # same term ordering as general() so equal specs compare equal
        terms = tuple(
            (j, k, c)
            for (j, k), c in sorted(zip(_CANONICAL_SLOTS, coeffs))
            if c != 0
        )
        return OperatorSpec(terms=terms, canonical_four_term=coeffs)

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
        if "canonical" in doc and "terms" not in doc:
            c = doc["canonical"]
            vals = []
            for key in ("a+", "a-", "b+", "b-"):
                re_, im_ = c.get(key, [0.0, 0.0])
                vals.append(complex(re_, im_))
            return OperatorSpec.canonical(*vals)
        if "terms" not in doc:
            raise InvalidInput('operator spec JSON needs "terms" or "canonical"')
        spec = OperatorSpec.general(
            (int(t["u"]), int(t["v"]), complex(float(t["re"]), float(t.get("im", 0.0))))
            for t in doc["terms"]
        )
        if "canonical" in doc:
            c = doc["canonical"]
            stated = tuple(
                complex(*c.get(key, [0.0, 0.0])) for key in ("a+", "a-", "b+", "b-")
            )
            if spec.canonical_four_term != stated:
                raise InvalidInput("canonical block disagrees with the term list")
        return spec


def spec_norm_bound(spec: OperatorSpec) -> float:
    """sum |c_{jk}|; bounds the operator norm of every model since u, v
    are unitary."""
    if not spec.terms and not spec.is_canonical:
        raise EmptySpec("operator spec has no terms")
    return float(sum(abs(c) for _, _, c in spec.terms))


# ---------------------------------------------------------------------------
# matrix models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatrixModel:
    """q x q realization of spec: term t puts values[t, i] at row i,
    column columns[t, i]. entries, the dense column-major matrix, sums the
    terms in order on first use. All arrays are write-protected."""

    order: int
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


def _check_order(q: int, p: int) -> None:
    if q < 1:
        raise InvalidOrder(f"matrix order must be >= 1, got q={q}")
    if not 0 <= p < q:
        raise InvalidOrder(f"need 0 <= p < q, got p={p}, q={q}")


def _clock_diagonal(p: int, q: int, power: int = 1) -> np.ndarray:
    """Diagonal of v^power: phases omega^(power*k) with the exponent
    reduced mod q exactly; negative powers conjugate the positive phase."""
    r0 = (p * abs(power)) % q  # r0 < q and q*q fits in int64 at dense scale
    residues = (r0 * np.arange(q, dtype=np.int64)) % q
    phases = np.exp(2j * np.pi * (residues / q))
    return np.conj(phases) if power < 0 else phases


def shift_matrix(q: int) -> MatrixModel:
    """Cyclic forward shift: ones at (i, i+1), i = 1..q-1, and at (q, 1)."""
    return build_operator(OperatorSpec.general([(1, 0, 1)]), 0, q)


def clock_matrix(p: int, q: int) -> MatrixModel:
    """diag(1, omega, ..., omega^{q-1}) with omega = e^{2 pi i p/q}."""
    return build_operator(OperatorSpec.general([(0, 1, 1)]), p, q)


def build_operator(spec: OperatorSpec, p: int, q: int) -> MatrixModel:
    """Evaluate sum c_{jk} u^j v^k at u = shift_matrix(q), v = clock_matrix(p,q).

    u^j v^k has its only nonzero per row i at column (i+j) mod q, with
    value (v^k)_{(i+j) mod q}; the model stores these per term, so no
    matrix products and no dense matrix are formed.
    """
    _check_order(q, p)
    if not spec.terms and not spec.is_canonical:
        raise EmptySpec("operator spec has no terms")
    rows = np.arange(q)
    columns = np.empty((len(spec.terms), q), dtype=np.intp)
    values = np.empty((len(spec.terms), q), dtype=np.complex128)
    for t, (j, k, c) in enumerate(spec.terms):
        columns[t] = (rows + j) % q
        values[t] = c * _clock_diagonal(p, q, power=k)[columns[t]]
    return MatrixModel(order=q, spec=spec, columns=columns, values=values)


# ---------------------------------------------------------------------------
# exact structural checks
# ---------------------------------------------------------------------------

def commutation_defect(p: int, q: int) -> float:
    """Operator norm of u v - omega v u.

    Both products are supported on the shift pattern (i, (i+1) mod q):
    (u v)_{i,.} = d_{(i+1) mod q} and (omega v u)_{i,.} = omega d_i for
    d the clock diagonal. A matrix with at most one nonzero per row and
    column is a scaled permutation, whose 2-norm is the largest entry
    modulus; and because u has exactly one 1 per row, the dense products
    would produce bit-identical entries (1.0*x = x, x + 0.0 = x in IEEE),
    so this equals the dense-arithmetic norm.
    """
    _check_order(q, p)
    d = _clock_diagonal(p, q)
    omega = cmath.exp(2j * cmath.pi * (p / q))
    diff = np.roll(d, -1) - omega * d
    return float(np.max(np.abs(diff)))


def unitarity_defect(model: MatrixModel) -> float:
    """Operator norm of A*A - I. A one-term model (the shift, the clock,
    any c u^j v^k) is a scaled permutation, so A*A - I is diagonal with
    entries |a_i|^2 - 1 over its stored values; other models take the
    dense 2-norm."""
    if len(model.values) == 1:
        a = model.values[0]
        return float(np.max(np.abs(np.conj(a) * a - 1.0)))
    from .spectral import operator_norm  # spectral imports this module

    a = model.entries
    return operator_norm(a.conj().T @ a - np.eye(model.order))
