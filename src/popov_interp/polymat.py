"""Polynomial matrices with shifted-degree machinery.

A shift attaches an integer weight to each column; the s-degree of a row
is max_j (deg(row[j]) + s[j]), and its pivot is the rightmost entry
reaching it.  This module provides the s-row degrees, the weak Popov and
Popov predicates, the product, and the normalization from s-weak Popov
form to the canonical s-Popov form.

A matrix is one packed int64 coefficient array, ``coeffs``, with its
entry lengths: the canonical s-Popov basis always fits in m*(sigma+1)
coefficients, so one array holds every basis the library returns, and
the grid of coefficient lists ``rows`` is a view derived from it.
``matmul`` multiplies arrays by evaluation and interpolation, one
float64 FFT per limb of the residues, as PM-Basis does
(Giorgi-Jeannerod-Villard, ISSAC 2003).  ``weak_popov_to_popov`` works
on the rows: each reduction touches a few short entries, and an array
version with an exact Toeplitz product was bit-identical but 1.6-1.8x
slower.  The verification oracle reads the rows too, to stay
independent of the engines.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .ff_poly import (
    NEG_INF,
    Modulus,
    Poly,
    int_tuple,
    poly_divrem,
    poly_mul,
    poly_scale,
    poly_sub,
    residue_array,
)

Shift = Tuple[int, ...]


class PolyMat:
    """A rows x cols matrix of polynomials over a common prime field.

    Stored as ``coeffs``, an ``(nrows, ncols, length)`` int64 array of
    canonical residues, ``coeffs[i, j, k]`` the coefficient of X**k in
    entry (i, j), cut after the highest nonzero degree (``length`` is 0
    for the zero matrix), and ``lengths``, the ``(nrows, ncols)`` array of
    entry lengths (degree plus one, 0 for zero).  Both arrays are
    read-only.  ``rows``, a list of rows of coefficient lists, low degree
    first, trailing zeros trimmed, ``[]`` for zero, is derived from the
    array on first access and cached.

    ``PolyMat(field, rows)`` packs rows of canonical residues, trimmed (as
    ``from_rows`` makes them), raising ValueError on a coefficient that is
    not an integer in [0, p) or an entry ending in 0, and keeps them as
    the rows view, which must not be mutated; ``from_coeffs`` stores an
    array.  Equality compares the field and the array.
    """

    __slots__ = ("field", "nrows", "ncols", "coeffs", "lengths", "_rows")

    def __init__(self, field: Modulus, rows: List[List[Poly]]):
        coeffs, lengths = _pack(rows, field.p, reduce=False)
        # the last coefficient of each nonzero entry, its leading one
        nonzero = lengths > 0
        if not coeffs[nonzero, lengths[nonzero] - 1].all():
            raise ValueError("entries must have no trailing zero")
        self._store(field, coeffs, lengths)
        self._rows = rows

    @classmethod
    def from_coeffs(cls, field: Modulus, coeffs: np.ndarray) -> "PolyMat":
        """The matrix of a packed array of canonical residues.

        The array is stored without a copy, cut after its highest nonzero
        degree.
        """
        coeffs = np.asarray(coeffs, dtype=np.int64)
        if coeffs.ndim != 3 or coeffs.shape[0] < 1 or coeffs.shape[1] < 1:
            raise ValueError("matrix dimensions must be at least 1 x 1")
        nonzero = coeffs != 0
        n = coeffs.shape[2]
        lengths = np.zeros(coeffs.shape[:2], dtype=np.int64)
        if n:
            # one past the last nonzero coefficient of each entry
            last = n - np.argmax(nonzero[:, :, ::-1], axis=2)
            lengths = np.where(nonzero.any(2), last, 0)
        out = cls.__new__(cls)
        out._store(field, coeffs[:, :, : int(lengths.max())], lengths)
        out._rows = None
        return out

    def _store(self, field: Modulus, coeffs: np.ndarray, lengths: np.ndarray) -> None:
        coeffs.flags.writeable = False
        lengths.flags.writeable = False
        self.field = field
        self.nrows, self.ncols = lengths.shape
        self.coeffs = coeffs
        self.lengths = lengths

    @property
    def rows(self) -> List[List[Poly]]:
        if self._rows is None:
            self._rows = [
                [e[:n] for e, n in zip(row, lens)]
                for row, lens in zip(self.coeffs.tolist(), self.lengths.tolist())
            ]
        return self._rows

    def __eq__(self, other):
        if not isinstance(other, PolyMat):
            return NotImplemented
        return self.field == other.field and np.array_equal(self.coeffs, other.coeffs)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"PolyMat(field={self.field!r}, rows={self.rows!r})"

    @classmethod
    def zero(cls, field: Modulus, nrows: int, ncols: int) -> "PolyMat":
        return cls.from_coeffs(field, np.zeros((nrows, ncols, 0), dtype=np.int64))

    @classmethod
    def identity(cls, field: Modulus, n: int) -> "PolyMat":
        return cls.from_coeffs(field, np.eye(n, dtype=np.int64)[:, :, None])

    @classmethod
    def from_rows(cls, field: Modulus, rows) -> "PolyMat":
        """The matrix of rows of integer coefficient lists, reduced mod p and trimmed."""
        return cls.from_coeffs(field, _pack(rows, field.p, reduce=True)[0])

    def coefficient_count(self) -> int:
        """Number of field elements needed to store the matrix."""
        return int(self.lengths.sum())


def _pack(rows, p: int, reduce: bool) -> Tuple[np.ndarray, np.ndarray]:
    """The coefficient array and entry lengths of rows of coefficient lists."""
    if not rows or not rows[0]:
        raise ValueError("matrix dimensions must be at least 1 x 1")
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise ValueError("matrix rows have inconsistent lengths")
    lengths = np.array([[len(e) for e in row] for row in rows], dtype=np.int64)
    flat = list(chain.from_iterable(chain.from_iterable(rows)))
    coeffs = np.zeros((len(rows), ncols, int(lengths.max())), dtype=np.int64)
    # the rows' coefficients in C order fill the slots below each length
    coeffs[np.arange(coeffs.shape[2]) < lengths[:, :, None]] = residue_array(
        flat, p, "coefficients", reduce
    )
    return coeffs, lengths


def _check_shift(ncols: int, s: Sequence[int]) -> Shift:
    s = int_tuple(s, "shift entries must be integers")
    if len(s) != ncols:
        raise ValueError(f"shift length {len(s)} does not match {ncols} columns")
    return s


def _pivot_index(lengths: Iterable[int], s: Sequence[int]) -> int:
    """Index of the rightmost entry reaching the s-degree, -1 for a zero row.

    Read off the entry lengths (degree plus one, 0 for zero); shifts are
    integers of any size, compared in Python.
    """
    best = NEG_INF
    idx = -1
    for j, (n, sj) in enumerate(zip(lengths, s)):
        if n and n - 1 + sj >= best:
            best = n - 1 + sj
            idx = j
    return idx


def _pivots(m: PolyMat, s: Shift) -> List[int]:
    """Each row's pivot index, -1 for a zero row."""
    return [_pivot_index(lens, s) for lens in m.lengths.tolist()]


def shifted_row_degree(m: PolyMat, s: Sequence[int]) -> List[int]:
    """The s-degree of each row, read off the entry lengths at its pivot."""
    s = _check_shift(m.ncols, s)
    out = []
    for lens, j in zip(m.lengths.tolist(), _pivots(m, s)):
        if j < 0:
            raise ValueError("zero row has no s-degree")
        out.append(lens[j] - 1 + s[j])
    return out


def is_weak_popov(m: PolyMat, s: Sequence[int], diagonal: bool = False) -> bool:
    """Pairwise-distinct pivot indices; with diagonal=True, pivot i at column i."""
    s = _check_shift(m.ncols, s)
    if m.nrows != m.ncols:
        raise ValueError("weak Popov form is defined for square matrices")
    pivots = _pivots(m, s)
    if -1 in pivots or (diagonal and pivots != list(range(m.nrows))):
        return False
    return len(set(pivots)) == len(pivots)


def is_popov(m: PolyMat, s: Sequence[int]) -> bool:
    """Monic diagonal pivots, nonpivot column entries below the pivot degree.

    Read off the entry lengths and the diagonal's leading coefficients.
    """
    s = _check_shift(m.ncols, s)
    if m.nrows != m.ncols:
        raise ValueError("Popov form is defined for square matrices")
    lengths = m.lengths
    diag = np.arange(m.nrows)
    dlen = lengths[diag, diag]
    if not dlen.all() or (m.coeffs[diag, diag, dlen - 1] != 1).any():
        return False
    off = lengths.copy()
    off[diag, diag] = 0
    if (off >= dlen).any():
        return False
    return _pivots(m, s) == diag.tolist()


def matmul(a: PolyMat, b: PolyMat) -> PolyMat:
    """The product a * b, by evaluation and interpolation in float64.

    Residues are cut into c limbs of w bits, each limb array is taken to
    its real FFT of length 2**n >= da + db - 1, and the spectra of limb
    pairs (u, v) are summed over the inner dimension by batched ``@``, one
    group per u + v.  Each group's inverse FFT, rounded, is its exact
    convolution; the groups recombine mod p.  A group sums J <= c*a.ncols
    convolutions x * y with ||x||_2 ||y||_2 < 4**w sqrt(da db).  Percival
    (Math. Comp. 72, 2003, Thm. 5.1) bounds the float64 error of one by
    ||x||_2 ||y||_2 ((1+e)**3n (1+e sqrt 5)**(3n+1) (1+t)**3n - 1), where
    e = 2**-53 and t <= 2e is the twiddles' error; summing the spectra
    first adds a factor (1+e)**(J-1).  The error is below expm1 of the
    exponents times e, and c is the fewest limbs keeping it under 1/2.
    """
    if a.field != b.field:
        raise ValueError("mismatched moduli")
    if a.ncols != b.nrows:
        raise ValueError(f"dimension mismatch: {a.ncols} vs {b.nrows}")
    p, da, db = a.field.p, a.coeffs.shape[2], b.coeffs.shape[2]
    if not da or not db:
        return PolyMat.zero(a.field, a.nrows, b.ncols)
    size = da + db - 1
    n, bits = (size - 1).bit_length(), (p - 1).bit_length()
    for c in range(1, bits + 1):
        w, j = -(-bits // c), c * a.ncols
        grow = np.expm1(2.0**-53 * (9 * n + j - 1 + 5**0.5 * (3 * n + 1)))
        if j * 4.0**w * (da * db) ** 0.5 * grow < 0.5:
            break
    else:
        raise ValueError("product too large to evaluate exactly in float64")
    fa, fb = (
        [np.fft.rfft((x >> (w * u)) & ((1 << w) - 1), 2**n, axis=0) for u in range(c)]
        for x in (a.coeffs.transpose(2, 0, 1), b.coeffs.transpose(2, 0, 1))
    )
    out = np.zeros((a.nrows, b.ncols, size), dtype=np.int64)
    for g in range(2 * c - 1):
        us = range(max(0, g - c + 1), min(g, c - 1) + 1)
        z = np.fft.irfft(sum(fa[u] @ fb[g - u] for u in us), 2**n, axis=0)[:size]
        # in place, and freed before the next group's transform
        z = np.rint(z, out=z).astype(np.int64)
        z %= p
        z *= pow(2, w * g, p)
        out += z.transpose(1, 2, 0)
        out %= p
        del z
    return PolyMat.from_coeffs(a.field, out)


def weak_popov_to_popov(w: PolyMat, s: Sequence[int]) -> PolyMat:
    """The unique s-Popov matrix left-unimodularly equivalent to w.

    w must be in s-weak Popov form: its pivot indices, read off the entry
    lengths, are a permutation of the columns, else ValueError.  Rows are
    sorted by pivot index and made monic, then each row k is reduced
    against the pivot rows b in increasing order of delta_b + s_b, delta
    the pivot degrees.  Every such b has delta_b + s_b <= delta_k + s_k and
    is already in Popov form, so its entry j != b is shorter than
    delta_j + 1: dividing out an entry of row k that exceeds its column's
    pivot degree by e adds only entries exceeding theirs by less than e.
    So the loop terminates, and no intermediate entry is longer than the
    longest entry of w plus max(delta), whatever the shift.

    It works on the rows: each reduction is a few divisions and products
    of short entries, and an array version measured slower (see the
    module docstring).
    """
    s = _check_shift(w.ncols, s)
    if w.nrows != w.ncols:
        raise ValueError("normalization requires a square matrix")
    field = w.field
    p = field.p
    n = w.nrows
    pivots = _pivots(w, s)
    if sorted(pivots) != list(range(n)):
        raise ValueError("singular or not in s-weak Popov form")
    rows: List[List[Poly]] = [None] * n  # type: ignore[list-item]
    for j, row in zip(pivots, w.rows):
        lead = row[j][-1]
        # entries are replaced, never mutated, so w's rows are not touched
        rows[j] = list(row) if lead == 1 else [poly_scale(e, pow(lead, -1, p), p) for e in row]

    deg_piv = [len(rows[i][i]) - 1 for i in range(n)]
    order = sorted(range(n), key=lambda i: (deg_piv[i] + s[i], i))
    for k in order:
        row = rows[k]
        while True:
            best = None
            best_excess = 0
            for i in range(n):
                if i == k or not row[i]:
                    continue
                excess = len(row[i]) - 1 - deg_piv[i]
                if excess >= 0 and (best is None or excess > best_excess):
                    best, best_excess = i, excess
            if best is None:
                break
            q, r = poly_divrem(row[best], rows[best][best], field)
            row[best] = r
            for j in range(n):
                if j != best and rows[best][j]:
                    row[j] = poly_sub(row[j], poly_mul(q, rows[best][j], field), p)
    return PolyMat(field, rows)
