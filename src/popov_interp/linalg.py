"""Exact dense linear algebra over a prime field, numpy int64 backed.

Every routine is deterministic: pivots are chosen as the first usable row.
Residues and the modulus stay below 2**31 so products fit in int64.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def as_matrix(rows, p: int) -> np.ndarray:
    a = np.array(rows, dtype=np.int64)
    if a.ndim != 2:
        a = a.reshape(len(rows), -1)
    return a % p


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    # split the inner dimension so that out + step products of residues,
    # at most (p-1) + step*(p-1)**2, stays within int64
    step = (2**63 - p) // (p - 1) ** 2
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for lo in range(0, a.shape[1], step):
        out = (out + a[:, lo : lo + step] @ b[lo : lo + step, :]) % p
    return out


def _echelonize(m: np.ndarray, p: int, ncols: int) -> int:
    """Reduced row echelon over the first ncols columns; returns the rank."""
    r = 0
    nrows = m.shape[0]
    for col in range(ncols):
        if r == nrows:
            break
        hits = np.nonzero(m[r:, col])[0]
        if hits.size == 0:
            continue
        piv = r + int(hits[0])
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        m[r] = m[r] * pow(int(m[r, col]), p - 2, p) % p
        others = np.nonzero(m[:, col])[0]
        others = others[others != r]
        if others.size:
            m[others] = (m[others] - np.outer(m[others, col], m[r])) % p
        r += 1
    return r


def rank_mod(rows, p: int) -> int:
    m = as_matrix(rows, p)
    if m.size == 0:
        return 0
    return _echelonize(m, p, m.shape[1])


def inv_mod(rows, p: int) -> Optional[np.ndarray]:
    """Inverse of a square matrix, or None when singular."""
    a = as_matrix(rows, p)
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError("matrix is not square")
    m = np.hstack([a, np.eye(n, dtype=np.int64)])
    if _echelonize(m, p, n) < n:
        return None
    return m[:, n:]


def left_nullspace(rows, p: int) -> np.ndarray:
    """Basis of {x : x A = 0}, one length-nrows vector per row."""
    a = as_matrix(rows, p)
    n = a.shape[0]
    m = np.hstack([a, np.eye(n, dtype=np.int64)])
    r = _echelonize(m, p, a.shape[1])
    return m[r:, a.shape[1] :]
