"""Clock and shift matrices and operator specifications.

For a fraction p/q the q-dimensional model of the rotation relation is
built from u (the cyclic forward shift) and v = diag(omega^k) with
omega = e^{2*pi*i*p/q}: they satisfy u v = omega v u exactly. Operator
specifications are noncommutative Laurent polynomials sum c_{jk} U^j V^k;
the canonical four-term form alpha_1 U + alpha_-1 U* + beta_1 V +
beta_-1 V* is recognized structurally because the certified error radii
only exist for it.

All matrix entries come from exact integer residues: omega^k is evaluated
at the reduced exponent (p*k) mod q, and negative powers use conjugated
phases and shifted indices rather than numerical inversion, so adjoint
pairs are exactly adjoint in floating point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import EmptySpec, InvalidInput, InvalidOrder


# ---------------------------------------------------------------------------
# operator specifications
# ---------------------------------------------------------------------------

_CANONICAL_SLOTS = ((1, 0), (-1, 0), (0, 1), (0, -1))


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
    def coefficient_bound_M(self) -> float:
        """max{|alpha_(+/-)1|, |beta_(+/-)1|} for canonical specs."""
        if not self.is_canonical:
            raise InvalidInput("coefficient bound M is defined for canonical specs only")
        return max(abs(c) for c in self.canonical_four_term)

    @property
    def is_hermitian(self) -> bool:
        """True iff every model of the spec is hermitian, independent of
        the rotation parameter.

        The adjoint of u^j v^k is omega^(-jk) u^(-j) v^(-k), so conjugate
        coefficient pairing c_(-j,-k) = conj(c_(j,k)) gives a hermitian
        operator exactly when each term sits on an axis (j*k = 0); mixed
        terms pick up the parameter-dependent phase and are rejected.
        """
        if self.is_canonical:
            a1, am, b1, bm = self.canonical_four_term
            return am == a1.conjugate() and bm == b1.conjugate()
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
    """Dense complex q x q realization with its structural tag. entries is
    column-major, write-protected."""

    order: int
    entries: np.ndarray
    structure_tag: str
    spec: Optional[OperatorSpec] = None

    def __post_init__(self):
        self.entries.setflags(write=False)


def _check_order(q: int, p: Optional[int] = None) -> None:
    if q < 1:
        raise InvalidOrder(f"matrix order must be >= 1, got q={q}")
    if p is not None and not 0 <= p < q:
        raise InvalidOrder(f"need 0 <= p < q, got p={p}, q={q}")


def _shift_entries(q: int) -> np.ndarray:
    u = np.zeros((q, q), dtype=np.complex128, order="F")
    idx = np.arange(q)
    u[idx, (idx + 1) % q] = 1.0
    return u


def _clock_diagonal(p: int, q: int, power: int = 1) -> np.ndarray:
    """Diagonal of v^power: phases omega^(power*k) with the exponent
    reduced mod q exactly; negative powers conjugate the positive phase."""
    r0 = (p * abs(power)) % q  # r0 < q and q*q fits in int64 at dense scale
    residues = (r0 * np.arange(q, dtype=np.int64)) % q
    phases = np.exp(2j * np.pi * (residues / q))
    return np.conj(phases) if power < 0 else phases


def shift_matrix(q: int) -> MatrixModel:
    """Cyclic forward shift: ones at (i, i+1), i = 1..q-1, and at (q, 1)."""
    _check_order(q)
    return MatrixModel(order=q, entries=_shift_entries(q), structure_tag="shift")


def clock_matrix(p: int, q: int) -> MatrixModel:
    """diag(1, omega, ..., omega^{q-1}) with omega = e^{2 pi i p/q}."""
    _check_order(q, p)
    entries = np.zeros((q, q), dtype=np.complex128, order="F")
    np.fill_diagonal(entries, _clock_diagonal(p, q))
    return MatrixModel(order=q, entries=entries, structure_tag="clock")


def build_operator(spec: OperatorSpec, p: int, q: int) -> MatrixModel:
    """Evaluate sum c_{jk} u^j v^k at u = shift_matrix(q), v = clock_matrix(p,q).

    u^j v^k has its only nonzero per row i at column (i+j) mod q, with
    value (v^k)_{(i+j) mod q}; entries are accumulated slot-wise, so no
    matrix products are formed.
    """
    _check_order(q, p)
    if not spec.terms and not spec.is_canonical:
        raise EmptySpec("operator spec has no terms")
    entries = np.zeros((q, q), dtype=np.complex128, order="F")
    rows = np.arange(q)
    for j, k, c in spec.terms:
        cols = (rows + j) % q
        entries[rows, cols] += c * _clock_diagonal(p, q, power=k)[cols]
    tag = "four_term" if spec.is_canonical else "general"
    return MatrixModel(order=q, entries=entries, structure_tag=tag, spec=spec)


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
    """Operator norm of A*A - I, exploiting structure where it is exact:
    for the shift, A*A composes inverse permutations and is the identity
    with exact 0/1 entries; for the clock, A*A - I is diagonal with
    entries |d_k|^2 - 1. Other tags fall back to the dense 2-norm."""
    a = model.entries
    if model.structure_tag == "shift":
        idx = np.arange(model.order)
        cols = (idx + 1) % model.order
        # (u* u)_{jj'} = sum_i conj(u_{ij}) u_{ij'}; composing the index
        # maps gives exactly the identity, entrywise in floating point
        vals = a[idx, cols]
        gram_diag = np.conj(vals) * vals
        return float(np.max(np.abs(gram_diag - 1.0)))
    if model.structure_tag == "clock":
        d = np.diag(a)
        return float(np.max(np.abs(np.conj(d) * d - 1.0)))
    q = model.order
    defect = a.conj().T @ a - np.eye(q)
    return float(np.linalg.norm(defect, 2))

