"""Polynomial matrices with shifted-degree machinery.

A shift attaches an integer weight to each column; the s-degree of a row
is max_j (deg(row[j]) + s[j]).  The pivot of a nonzero row is the
rightmost entry reaching the s-degree.  On top of pivots this module
provides the reduced / weak Popov / Popov predicates and the
normalization from weak Popov form to the canonical Popov form.

Row vectors are lists of coefficient lists; matrices wrap a rectangular
grid of them together with their modulus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Sequence, Tuple

from . import linalg
from .ff_poly import (
    NEG_INF,
    Degree,
    Modulus,
    Poly,
    poly_add,
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


@dataclass
class PolyMat:
    """A rows x cols grid of polynomials over a common prime field."""

    field: Modulus
    rows: List[List[Poly]]

    def __post_init__(self):
        if not self.rows or not self.rows[0]:
            raise ValueError("matrix dimensions must be at least 1 x 1")
        ncols = len(self.rows[0])
        if any(len(r) != ncols for r in self.rows):
            raise ValueError("matrix rows have inconsistent lengths")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

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


def pivot_profile(row, s: Sequence[int]) -> PivotProfile:
    """Rightmost entry reaching the s-degree, with its degree.

    Accepts either a sequence of polynomials or a 1 x m matrix.
    """
    if isinstance(row, PolyMat):
        if row.nrows != 1:
            raise ValueError("pivot profile is defined for a single row")
        row = row.rows[0]
    best = NEG_INF
    idx = -1
    for j, (e, sj) in enumerate(zip(row, s)):
        if e and len(e) - 1 + sj >= best:
            best = len(e) - 1 + sj
            idx = j
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
    """Monic diagonal pivots, nonpivot column entries below the pivot degree."""
    s = _check_shift(m.ncols, s)
    if m.nrows != m.ncols:
        raise ValueError("Popov form is defined for square matrices")
    for i, row in enumerate(m.rows):
        if not any(e for e in row):
            return False
        piv = pivot_profile(row, s)
        if piv.index != i or row[i][-1] != 1:
            return False
    for j in range(m.ncols):
        dj = len(m.rows[j][j]) - 1
        for i in range(m.nrows):
            if i != j and len(m.rows[i][j]) - 1 >= dj:
                return False
    return True


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


def matmul(a: PolyMat, b: PolyMat) -> PolyMat:
    if a.field != b.field:
        raise ValueError("mismatched moduli")
    if a.ncols != b.nrows:
        raise ValueError(f"dimension mismatch: {a.ncols} vs {b.nrows}")
    p = a.field.p
    out = []
    for row in a.rows:
        new = []
        for j in range(b.ncols):
            acc: Poly = []
            for k, e in enumerate(row):
                if e and b.rows[k][j]:
                    acc = poly_add(acc, poly_mul(e, b.rows[k][j], a.field), p)
            new.append(acc)
        out.append(new)
    return PolyMat(a.field, out)


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
