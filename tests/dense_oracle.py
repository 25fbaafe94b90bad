"""The dense matrix of a model and the nodes of a grid, for test oracles:
no route of the package forms either."""

import numpy as np


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
