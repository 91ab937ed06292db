"""Exact linear algebra over prime fields F_p (numpy int64 arrays mod p)."""

from __future__ import annotations

import numpy as np


def rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p; returns (nonzero rows, pivot columns).

    Row operations keep a zero column zero, so only the columns that start
    non-zero are visited. Each pivot is taken from a row that has none yet,
    where that row lies, and eliminated in place from the pivot column on,
    since such a row is zero left of it; the pivot rows are put in order at
    the end. The reduced form is unique, so which rows hold the pivots does
    not change the result.

    Only the pivot column and the pivot row are reduced mod p at each step.
    An elimination subtracts products of two reduced entries, so it lowers an
    entry by at most (p - 1)^2; the block right of the pivot column is
    reduced once every ``((1 << 62) - p) // (p * p)`` eliminations, so no
    entry passes 2^62 (never within 64 columns at p <= 59, every fourth
    elimination at p = 10^9 + 7). When that budget is 0 (p^2 > 2^62 - p) the
    block is reduced before every elimination but the first, and an entry
    stays above -(p - 1)^2 > -2^63. The array is column-major, so the block
    ``a[:, c:]`` is contiguous.
    """
    a = np.array(mat, dtype=np.int64, order="F")
    if a.ndim != 2:
        raise ValueError("rref expects a 2-D array")
    a %= p
    budget = max(((1 << 62) - p) // (p * p), 1)
    pending = 0  # eliminations since the block was last reduced
    free = np.ones(len(a), dtype=bool)  # the rows without a pivot
    order: list[int] = []  # the pivot rows, by pivot column
    pivots: list[int] = []
    for c in np.flatnonzero(a.any(axis=0)).tolist():
        if len(order) == len(a):
            break
        col = a[:, c] % p
        candidates = col * free
        k = int(candidates.argmax())
        lead = int(candidates[k])
        if not lead:
            continue
        rest = a[:, c:]
        if pending == budget:
            rest %= p
            pending = 0
        row = rest[k] % p * pow(lead, p - 2, p) % p
        rest -= np.multiply.outer(row, col).T  # column-major, as ``rest`` is
        rest[k] = row
        pending += 1
        free[k] = False
        order.append(k)
        pivots.append(c)
    return a[order] % p, pivots


def rank(mat: np.ndarray, p: int) -> int:
    """Rank of the rows of ``mat``; a stack of arrays counts each array as one row."""
    if np.size(mat) == 0:
        return 0
    return rref(np.reshape(mat, (len(mat), -1)) if np.ndim(mat) > 2 else mat, p)[0].shape[0]


def nullspace(mat: np.ndarray, p: int) -> np.ndarray:
    """Basis of {x : mat @ x = 0 mod p}, as rows; shape (dim, cols)."""
    red, pivots = rref(mat, p)
    cols = red.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[range(len(free)), free] = 1
    basis[:, pivots] = -red[:, free].T % p
    return basis
