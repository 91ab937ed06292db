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
    """
    a = np.array(mat, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError("rref expects a 2-D array")
    a %= p
    free = np.ones(len(a), dtype=bool)  # the rows without a pivot
    order: list[int] = []  # the pivot rows, by pivot column
    pivots: list[int] = []
    for c in np.flatnonzero(a.any(axis=0)).tolist():
        if len(order) == len(a):
            break
        candidates = a[:, c] * free
        k = int(candidates.argmax())
        lead = int(candidates[k])
        if not lead:
            continue
        row = a[k, c:] * pow(lead, p - 2, p) % p
        rest = a[:, c:]
        rest -= a[:, c, None] * row
        rest %= p
        rest[k] = row
        free[k] = False
        order.append(k)
        pivots.append(c)
    return a[order], pivots


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


def row_spaces_equal(a: np.ndarray, b: np.ndarray, p: int) -> bool:
    ra, _ = rref(np.atleast_2d(a), p)
    rb, _ = rref(np.atleast_2d(b), p)
    return ra.shape == rb.shape and bool(np.array_equal(ra, rb))
