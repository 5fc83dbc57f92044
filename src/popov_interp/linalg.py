"""Exact dense linear algebra over a prime field, numpy int64 backed.

Every routine is deterministic: pivots are chosen as the first usable row.
Residues and the modulus stay below 2**31 so products fit in int64.

``matmul_mod`` is the library's one exact modular matrix product.  For
p > 2**16 each entry of the left factor is split into 16-bit limbs,
``c = h * 2**16 + l`` with h < 2**15, so a limb times a residue is below
2**47 (below 2**32 for p <= 2**16, where the entry is its own limb) and
a chunk of ``CHUNK`` = 2**16 such terms sums below 2**63.  Each chunk is
reduced mod p before it is added in, and the limbs recombine as
``l_sum + h_sum * 2**16``, below 2**48, before the last remainder.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .ff_poly import residue_array


def as_matrix(rows, p: int) -> np.ndarray:
    """The rows as a new 2-D int64 array of residues (``residue_array``); no rows is 0 x 0."""
    a = residue_array(rows, p, "matrix entries")
    if a.ndim != 2:
        a = a.reshape(len(rows), -1 if a.size else 0)
    return a


# the most terms matmul_mod sums before a remainder (see the module docstring)
CHUNK = 1 << 16


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """``a @ b mod p``, exact, for int64 arrays of residues."""
    n = a.shape[0]
    limbs = np.concatenate([a & 0xFFFF, a >> 16]) if p > 1 << 16 else a
    out = np.zeros((limbs.shape[0], b.shape[1]), dtype=np.int64)
    for lo in range(0, a.shape[1], CHUNK):
        part = np.einsum("ik,kt->it", limbs[:, lo : lo + CHUNK], b[lo : lo + CHUNK])
        out += part % p
        out %= p
    if len(out) > n:  # recombine the limbs
        out = (out[:n] + (out[n:] << 16)) % p
    return out


def _echelonize(m: np.ndarray, p: int, ncols: int) -> int:
    """Reduced row echelon over the first ncols columns; returns the rank.

    Rows r and below are zero left of column col, so the pivot row and
    every update touch only the columns from col on.
    """
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
            m[[r, piv], col:] = m[[piv, r], col:]
        m[r, col:] = m[r, col:] * pow(int(m[r, col]), p - 2, p) % p
        pivot = m[r, col:]
        others = np.nonzero(m[:, col])[0]
        others = others[others != r]
        if others.size:
            m[others, col:] = (m[others, col:] - np.outer(m[others, col], pivot)) % p
        r += 1
    return r


def rank_mod(rows, p: int) -> int:
    m = as_matrix(rows, p)
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
