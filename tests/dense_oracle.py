"""Test oracles: the shift and clock models, their commutation and
unitarity defects, the dense matrix of a model and the nodes of a grid.
No route of the package forms any of them."""

import numpy as np

from rotspec.matmodel import OperatorSpec, build_operator


def shift(q: int):
    """build_operator's cyclic forward shift u of order q."""
    return build_operator(OperatorSpec.general([(1, 0, 1)]), 0, q)


def clock(p: int, q: int):
    """build_operator's clock diagonal v = diag(omega^k), omega = e^{2 pi i p/q}."""
    return build_operator(OperatorSpec.general([(0, 1, 1)]), p, q)


def clock_shift_defects(u, v, omega: complex) -> tuple[float, float]:
    """The 2-norms of u v - omega v u and of a*a - I over a in (u, v), read
    off the stored columns and values of a one-term model u and a diagonal
    one-term model v. (u v)_{i, c_i} = s_i d_{c_i} and (v u)_{i, c_i} =
    d_i s_i, for u's columns c and values s and v's diagonal d, so both
    matrices are scaled permutations, whose 2-norm is their largest entry
    modulus: for the shift this is max |d[(i+1) % q] - omega d[i]|, and
    a*a - I is diag(|a_i|^2 - 1)."""
    (c,), (s,) = u.columns, u.values
    (d,) = v.values
    assert np.array_equal(v.columns[0], np.arange(v.order))
    commutation = np.max(np.abs(s * d[c] - omega * d * s))
    unitarity = max(np.max(np.abs(a.real ** 2 + a.imag ** 2 - 1.0)) for a in (s, d))
    return float(commutation), float(unitarity)


def dense_matrix(model) -> np.ndarray:
    """The column-major q x q matrix of a model: term t adds values[t, i]
    at row i, column columns[t, i], the terms summed in order."""
    q = model.order
    a = np.zeros((q, q), dtype=np.complex128, order="F")
    for cols, vals in zip(model.columns, model.values):
        a[np.arange(q), cols] += vals
    return a


def grid_nodes(grid) -> np.ndarray:
    """The complex nodes re[i] + 1j*im[j] of a grid, indexed [i, j]."""
    re, im = grid.lambda_axes()
    return re[:, None] + 1j * im[None, :]
