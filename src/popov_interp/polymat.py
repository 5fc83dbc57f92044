"""Polynomial matrices with shifted-degree machinery.

A shift attaches an integer weight to each column; the s-degree of a row
is max_j (deg(row[j]) + s[j]).  The pivot of a nonzero row is the
rightmost entry reaching the s-degree.  On top of pivots this module
provides the reduced / weak Popov / Popov predicates and the
normalization from weak Popov form to the canonical Popov form.

A matrix has two views, each built on first access: ``rows``, a grid of
coefficient lists, and ``coeffs``, one packed int64 coefficient array.
The normalization, the other predicates and verification read the
rows; ``is_popov`` reads the entry lengths and the diagonal, from the
array when there is one; the iterative engine builds the array, and the
divide-and-conquer Mib reads it, through ``matmul``, the residual and
the known-degree rebuild, so its bases stay packed from the base case
to the rebuild.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import linalg
from .ff_poly import (
    NEG_INF,
    Degree,
    Modulus,
    Poly,
    poly_deg,
    poly_divrem,
    poly_mul,
    poly_neg,
    poly_scale,
    poly_shift_up,
    poly_sub,
    poly_sub_scaled,
    poly_trim,
)

Shift = Tuple[int, ...]


class PivotProfile(NamedTuple):
    """Pivot of a nonzero row: 0-based column index and entry degree."""

    index: int
    degree: int


class PolyMat:
    """A rows x cols matrix of polynomials over a common prime field.

    Two views of one matrix, each derived on first access and cached:

    * ``rows``: a list of rows of coefficient lists, low degree first,
      trailing zeros trimmed, ``[]`` for zero;
    * ``coeffs``: an ``(nrows, ncols, length)`` int64 array of canonical
      residues, ``coeffs[i, j, k]`` the coefficient of X**k in entry
      (i, j); ``length`` is one past the highest degree, 0 for the zero
      matrix.

    ``PolyMat(field, rows)`` stores rows of canonical residues, trimmed
    (as ``from_rows`` makes them); ``from_coeffs`` stores an array.
    ``lengths`` is the ``(nrows, ncols)`` array of entry lengths (degree
    plus one, 0 for zero).  All views are shared, never copied, and are
    read-only: the arrays are flagged so, and the rows must not be
    mutated either, since the other views would not follow.  Equality
    compares the field and the rows.
    """

    __slots__ = ("field", "nrows", "ncols", "_rows", "_coeffs", "_lengths")

    def __init__(self, field: Modulus, rows: List[List[Poly]]):
        if not rows or not rows[0]:
            raise ValueError("matrix dimensions must be at least 1 x 1")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("matrix rows have inconsistent lengths")
        self.field = field
        self.nrows = len(rows)
        self.ncols = ncols
        self._rows: Optional[List[List[Poly]]] = rows
        self._coeffs: Optional[np.ndarray] = None
        self._lengths: Optional[np.ndarray] = None

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
        coeffs = coeffs[:, :, : int(lengths.max())]
        coeffs.flags.writeable = False
        lengths.flags.writeable = False
        out = cls.__new__(cls)
        out.field = field
        out.nrows, out.ncols = coeffs.shape[:2]
        out._rows, out._coeffs, out._lengths = None, coeffs, lengths
        return out

    @property
    def rows(self) -> List[List[Poly]]:
        if self._rows is None:
            self._rows = [
                [e[:n] for e, n in zip(row, lens)]
                for row, lens in zip(self._coeffs.tolist(), self.lengths.tolist())
            ]
        return self._rows

    @property
    def lengths(self) -> np.ndarray:
        if self._lengths is None:
            lengths = np.array([[len(e) for e in row] for row in self._rows], dtype=np.int64)
            lengths.flags.writeable = False
            self._lengths = lengths
        return self._lengths

    @property
    def coeffs(self) -> np.ndarray:
        if self._coeffs is None:
            lengths = self.lengths
            coeffs = np.zeros((self.nrows, self.ncols, int(lengths.max())), dtype=np.int64)
            # the rows' coefficients in C order fill the slots below each length
            coeffs[np.arange(coeffs.shape[2]) < lengths[:, :, None]] = np.fromiter(
                chain.from_iterable(chain.from_iterable(self._rows)),
                dtype=np.int64,
                count=int(lengths.sum()),
            )
            coeffs.flags.writeable = False
            self._coeffs = coeffs
        return self._coeffs

    def __eq__(self, other):
        if not isinstance(other, PolyMat):
            return NotImplemented
        return self.field == other.field and self.rows == other.rows

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"PolyMat(field={self.field!r}, rows={self.rows!r})"

    @classmethod
    def zero(cls, field: Modulus, nrows: int, ncols: int) -> "PolyMat":
        return cls(field, [[[] for _ in range(ncols)] for _ in range(nrows)])

    @classmethod
    def identity(cls, field: Modulus, n: int) -> "PolyMat":
        return cls(field, [[[1] if i == j else [] for j in range(n)] for i in range(n)])

    @classmethod
    def from_rows(cls, field: Modulus, rows) -> "PolyMat":
        p = field.p
        return cls(field, [[poly_trim([c % p for c in e]) for e in row] for row in rows])

    def coefficient_count(self) -> int:
        """Number of field elements needed to store the matrix."""
        return sum(len(e) for row in self.rows for e in row)


def _check_shift(ncols: int, s: Sequence[int]) -> Shift:
    s = tuple(int(v) for v in s)
    if len(s) != ncols:
        raise ValueError(f"shift length {len(s)} does not match {ncols} columns")
    return s


def row_sdeg(row: Sequence[Poly], s: Sequence[int]) -> int:
    """The s-degree of a nonzero row vector."""
    best = NEG_INF
    for e, sj in zip(row, s):
        if e:
            d = len(e) - 1 + sj
            if d > best:
                best = d
    if best is NEG_INF:
        raise ValueError("zero row has no s-degree")
    return best


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


def pivot_profile(row, s: Sequence[int]) -> PivotProfile:
    """Rightmost entry reaching the s-degree, with its degree.

    Accepts either a sequence of polynomials or a 1 x m matrix.
    """
    if isinstance(row, PolyMat):
        if row.nrows != 1:
            raise ValueError("pivot profile is defined for a single row")
        row = row.rows[0]
    idx = _pivot_index(map(len, row), s)
    if idx < 0:
        raise ValueError("zero row has no s-degree")
    return PivotProfile(idx, len(row[idx]) - 1)


def shifted_row_degree(m: PolyMat, s: Sequence[int]) -> List[int]:
    s = _check_shift(m.ncols, s)
    return [row_sdeg(row, s) for row in m.rows]


def shifted_leading_matrix(m: PolyMat, s: Sequence[int]) -> List[List[int]]:
    """Coefficient of degree d_i - s_j of entry (i, j), d the s-row degree."""
    s = _check_shift(m.ncols, s)
    out = []
    for row in m.rows:
        d = row_sdeg(row, s)
        lead = []
        for e, sj in zip(row, s):
            t = d - sj
            lead.append(e[t] if 0 <= t < len(e) else 0)
        out.append(lead)
    return out


def is_reduced(m: PolyMat, s: Sequence[int]) -> bool:
    """True iff the s-leading matrix has full row rank."""
    s = _check_shift(m.ncols, s)
    if any(not any(e for e in row) for row in m.rows):
        return False
    return linalg.rank_mod(shifted_leading_matrix(m, s), m.field.p) == m.nrows


def is_weak_popov(m: PolyMat, s: Sequence[int], diagonal: bool = False) -> bool:
    """Pairwise-distinct pivot indices; with diagonal=True, pivot i at column i."""
    s = _check_shift(m.ncols, s)
    if m.nrows != m.ncols:
        raise ValueError("weak Popov form is defined for square matrices")
    pivots = []
    for i, row in enumerate(m.rows):
        if not any(e for e in row):
            return False
        piv = pivot_profile(row, s).index
        if diagonal and piv != i:
            return False
        pivots.append(piv)
    return len(set(pivots)) == len(pivots)


def is_popov(m: PolyMat, s: Sequence[int]) -> bool:
    """Monic diagonal pivots, nonpivot column entries below the pivot degree.

    Read off the entry lengths and the diagonal's leading coefficients,
    taken from the packed array or, when the matrix was built from rows
    and has none, from the rows.
    """
    s = _check_shift(m.ncols, s)
    if m.nrows != m.ncols:
        raise ValueError("Popov form is defined for square matrices")
    lengths = m.lengths
    diag = np.arange(m.nrows)
    dlen = lengths[diag, diag]
    if not dlen.all():
        return False
    if m._coeffs is None:
        leads = [m.rows[i][i][-1] for i in range(m.nrows)]
    else:
        leads = m.coeffs[diag, diag, dlen - 1].tolist()
    if any(c != 1 for c in leads):
        return False
    off = lengths.copy()
    off[diag, diag] = 0
    if (off >= dlen).any():
        return False
    return all(_pivot_index(row, s) == i for i, row in enumerate(lengths.tolist()))


def pivot_degrees(m: PolyMat, s: Sequence[int]) -> Tuple[int, ...]:
    """Pivot degree per pivot index, for a matrix in s-weak Popov form."""
    s = _check_shift(m.ncols, s)
    out = [-1] * m.ncols
    for row in m.rows:
        piv = pivot_profile(row, s)
        if out[piv.index] >= 0:
            raise ValueError("duplicate pivot index: not in weak Popov form")
        out[piv.index] = piv.degree
    if any(v < 0 for v in out):
        raise ValueError("missing pivot index: not in weak Popov form")
    return tuple(out)


# about how many int64 entries matmul's padded pair products hold at once
_MATMUL_SLAB = 1 << 18


def matmul(a: PolyMat, b: PolyMat) -> PolyMat:
    """The product a * b, array to array.

    Every pair (a_ik, b_kl) of nonzero entries contributes the outer
    product of their coefficient vectors; shifting row t of that block
    right by t and summing the rows gives the convolution a_ik * b_kl,
    which is accumulated into entry (i, l).  Pairs are taken in slabs
    whose padded products hold about ``_MATMUL_SLAB`` entries, to bound
    memory.
    """
    if a.field != b.field:
        raise ValueError("mismatched moduli")
    if a.ncols != b.nrows:
        raise ValueError(f"dimension mismatch: {a.ncols} vs {b.nrows}")
    p = a.field.p
    ac, bc = a.coeffs, b.coeffs
    da, db = ac.shape[2], bc.shape[2]
    out = np.zeros((a.nrows, b.ncols, max(da + db - 1, 0)), dtype=np.int64)
    ii, kk, ll = np.nonzero((a.lengths > 0)[:, :, None] & (b.lengths > 0)[None])
    # an output coefficient sums at most a.ncols * min(da, db) products,
    # each below 2**62 as p < 2**31; they are reduced first unless that
    # sum stays within int64 as it is
    reduce = a.ncols * min(da, db) * (p - 1) ** 2 >= 2**63
    width = da + db  # rows padded so that reading them one shorter skews them
    per_slab = max(1, _MATMUL_SLAB // max(1, da * width))
    for lo in range(0, ii.size, per_slab):
        i, k, l = ii[lo : lo + per_slab], kk[lo : lo + per_slab], ll[lo : lo + per_slab]
        n = i.size
        prod = np.zeros((n, da, width), dtype=np.int64)
        block = prod[:, :, :db]
        np.multiply(ac[i, k, :, None], bc[k, l, None, :], out=block)
        if reduce:
            np.remainder(block, p, out=block)
        conv = prod.reshape(n, da * width)[:, : da * (width - 1)].reshape(n, da, width - 1)
        np.add.at(out, (i, l), conv.sum(1))
    np.remainder(out, p, out=out)
    return PolyMat.from_coeffs(a.field, out)


def column_degree(m: PolyMat) -> List[Degree]:
    """Per-column max degree; NEG_INF for a zero column."""
    return [
        max(poly_deg(m.rows[i][j]) for i in range(m.nrows)) for j in range(m.ncols)
    ]


def _scaled_shifted_sub(row, other, c: int, k: int, p: int):
    """row -= c * X**k * other, entrywise."""
    for j, e in enumerate(other):
        if e:
            row[j] = poly_sub_scaled(row[j], poly_shift_up(e, k) if k else e, c, p)


def _make_weak_popov(rows: List[List[Poly]], s: Shift, field: Modulus) -> None:
    """Simple transformations until pivot indices are pairwise distinct.

    Each step strictly decreases (s-degree, pivot index) of the modified
    row, so this terminates; a singular input surfaces as a zero row.
    """
    p = field.p
    while True:
        seen = {}
        clash = None
        for i, row in enumerate(rows):
            if not any(e for e in row):
                raise ValueError("singular matrix")
            piv = pivot_profile(row, s).index
            if piv in seen:
                clash = (seen[piv], i, piv)
                break
            seen[piv] = i
        if clash is None:
            return
        i, k, j = clash
        if len(rows[k][j]) < len(rows[i][j]):
            i, k = k, i
        shift_by = len(rows[k][j]) - len(rows[i][j])
        c = rows[k][j][-1] * field.inv(rows[i][j][-1]) % p
        _scaled_shifted_sub(rows[k], rows[i], c, shift_by, p)


def weak_popov_to_popov(w: PolyMat, s: Sequence[int]) -> PolyMat:
    """The unique s-Popov matrix left-unimodularly equivalent to w.

    Rows are sorted by pivot index, pivots made monic, then each row is
    reduced against the pivot rows in increasing order of pivot degree
    plus shift; reductions against already-reduced rows strictly lower
    the worst column violation, so the loop terminates.
    """
    s = _check_shift(w.ncols, s)
    if w.nrows != w.ncols:
        raise ValueError("normalization requires a square matrix")
    field = w.field
    p = field.p
    rows = [[list(e) for e in row] for row in w.rows]
    _make_weak_popov(rows, s, field)

    n = len(rows)
    ordered: List[List[Poly]] = [None] * n  # type: ignore[list-item]
    for row in rows:
        ordered[pivot_profile(row, s).index] = row
    rows = ordered
    for i in range(n):
        lead = rows[i][i][-1]
        if lead != 1:
            inv = field.inv(lead)
            rows[i] = [poly_scale(e, inv, p) for e in rows[i]]

    deg_piv = [len(rows[i][i]) - 1 for i in range(n)]
    order = sorted(range(n), key=lambda i: (deg_piv[i] + s[i], i))
    for k in order:
        row = rows[k]
        while True:
            best = None
            best_level = 0
            for i in range(n):
                if i == k or not row[i]:
                    continue
                level = len(row[i]) - 1 + s[i] - (deg_piv[i] + s[i])
                if level >= 0 and (best is None or level > best_level):
                    best, best_level = i, level
            if best is None:
                break
            q, r = poly_divrem(row[best], rows[best][best], field)
            row[best] = r
            for j in range(n):
                if j != best and rows[best][j]:
                    row[j] = poly_sub(row[j], poly_mul(q, rows[best][j], field), p)
    return PolyMat(field, rows)


def determinant(m: PolyMat) -> Poly:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    field = m.field
    p = field.p
    n = m.nrows
    work = [[list(e) for e in row] for row in m.rows]
    sign = 1
    prev: Poly = [1]
    for k in range(n - 1):
        if not work[k][k]:
            swap = next((r for r in range(k + 1, n) if work[r][k]), None)
            if swap is None:
                return []
            work[k], work[swap] = work[swap], work[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = poly_sub(
                    poly_mul(work[i][j], work[k][k], field),
                    poly_mul(work[i][k], work[k][j], field),
                    p,
                )
                q, r = poly_divrem(num, prev, field)
                if r:
                    raise ArithmeticError("fraction-free elimination lost exactness")
                work[i][j] = q
            work[i][k] = []
        prev = work[k][k]
    det = work[n - 1][n - 1]
    return det if sign == 1 else poly_neg(det, p)
