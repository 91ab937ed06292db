"""Exact linear algebra over prime fields F_p (numpy int64 arrays mod p)."""

from __future__ import annotations

import numpy as np


def rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p; returns (nonzero rows, pivot columns)."""
    a = np.array(mat, dtype=np.int64) % p
    if a.ndim != 2:
        raise ValueError("rref expects a 2-D array")
    rows, cols = a.shape
    r = 0
    pivots: list[int] = []
    for c in range(cols):
        nonzero = np.flatnonzero(a[r:, c])
        if not nonzero.size:
            continue
        pivot_row = r + int(nonzero[0])
        if pivot_row != r:
            a[[r, pivot_row]] = a[[pivot_row, r]]
        a[r] = (a[r] * pow(int(a[r, c]), p - 2, p)) % p
        col = a[:, c].copy()
        col[r] = 0
        a = (a - np.outer(col, a[r])) % p
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a[:r], pivots


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
