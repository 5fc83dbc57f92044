"""Polynomial matrices with shifted-degree machinery.

A shift attaches an integer weight to each column; the s-degree of a row
is max_j (deg(row[j]) + s[j]).  The pivot of a nonzero row is the
rightmost entry reaching the s-degree.  On top of pivots this module
provides the reduced / weak Popov / Popov predicates and the
normalization from weak Popov form to the canonical Popov form.

A matrix is one packed int64 coefficient array, ``coeffs``, with its
entry lengths: the canonical s-Popov basis always fits in m*(sigma+1)
coefficients, so one array holds every basis the library returns.  The
grid of coefficient lists ``rows`` is a view derived from the array.
``matmul``, the residual, the known-degree rebuild and the pivot
predicates read the array and the lengths.  The normalization
``weak_popov_to_popov`` and ``determinant`` work on the rows, because
their intermediate degrees outgrow the input's (the normalization's with
the spread of the shift, up to 2**70), so an array would have to be
sized by them; the verification oracle reads the rows too, to stay
independent of the engines.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, List, NamedTuple, Sequence, Tuple

import numpy as np

from . import linalg
from .ff_poly import (
    NEG_INF,
    Degree,
    Modulus,
    Poly,
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

    Stored as ``coeffs``, an ``(nrows, ncols, length)`` int64 array of
    canonical residues, ``coeffs[i, j, k]`` the coefficient of X**k in
    entry (i, j), cut after the highest nonzero degree (``length`` is 0
    for the zero matrix), and ``lengths``, the ``(nrows, ncols)`` array of
    entry lengths (degree plus one, 0 for zero).  Both arrays are
    read-only.  ``rows``, a list of rows of coefficient lists, low degree
    first, trailing zeros trimmed, ``[]`` for zero, is derived from the
    array on first access and cached.

    ``PolyMat(field, rows)`` packs rows of canonical residues, trimmed (as
    ``from_rows`` makes them), and keeps them as the rows view, which
    must not be mutated; ``from_coeffs`` stores an array.  Equality
    compares the field and the array.
    """

    __slots__ = ("field", "nrows", "ncols", "coeffs", "lengths", "_rows")

    def __init__(self, field: Modulus, rows: List[List[Poly]]):
        if not rows or not rows[0]:
            raise ValueError("matrix dimensions must be at least 1 x 1")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("matrix rows have inconsistent lengths")
        lengths = np.array([[len(e) for e in row] for row in rows], dtype=np.int64)
        coeffs = np.zeros((len(rows), ncols, int(lengths.max())), dtype=np.int64)
        # the rows' coefficients in C order fill the slots below each length
        coeffs[np.arange(coeffs.shape[2]) < lengths[:, :, None]] = np.fromiter(
            chain.from_iterable(chain.from_iterable(rows)),
            dtype=np.int64,
            count=int(lengths.sum()),
        )
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
        p = field.p
        return cls(field, [[poly_trim([c % p for c in e]) for e in row] for row in rows])

    def coefficient_count(self) -> int:
        """Number of field elements needed to store the matrix."""
        return int(self.lengths.sum())


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
        lengths = row.lengths[0].tolist()
    else:
        lengths = [len(e) for e in row]
    idx = _pivot_index(lengths, s)
    if idx < 0:
        raise ValueError("zero row has no s-degree")
    return PivotProfile(idx, lengths[idx] - 1)


def _pivots(m: PolyMat, s: Shift) -> List[int]:
    """Each row's pivot index, -1 for a zero row."""
    return [_pivot_index(lens, s) for lens in m.lengths.tolist()]


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
    if not m.lengths.any(1).all():
        return False
    return linalg.rank_mod(shifted_leading_matrix(m, s), m.field.p) == m.nrows


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


def pivot_degrees(m: PolyMat, s: Sequence[int]) -> Tuple[int, ...]:
    """Pivot degree per pivot index, for a matrix in s-weak Popov form."""
    s = _check_shift(m.ncols, s)
    out = [-1] * m.ncols
    for lens, j in zip(m.lengths.tolist(), _pivots(m, s)):
        if j < 0:
            raise ValueError("zero row has no s-degree")
        if out[j] >= 0:
            raise ValueError("duplicate pivot index: not in weak Popov form")
        out[j] = lens[j] - 1
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
    return [n - 1 if n else NEG_INF for n in m.lengths.max(0).tolist()]


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
    the worst column violation, so the loop terminates.  It works on the
    rows: the intermediate degrees grow with the spread of the shift,
    which reaches 2**70, so a packed array would be sized by the shift.
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
    """Exact determinant by fraction-free (Bareiss) elimination.

    On the rows: the intermediate minors reach the sum of the rows'
    degrees, far past any one entry's, and an array would be sized by it.
    """
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
