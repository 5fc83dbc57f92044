"""List-arithmetic references that the tests hold the library to.

They share no code path with the engines: each works on ``PolyMat.rows``
with the ``ff_poly`` list helpers.
"""

from popov_interp.ff_poly import NEG_INF, Poly, poly_divrem, poly_mul, poly_sub, poly_trim


def poly_deg(a: Poly):
    """The degree of a list polynomial, ``NEG_INF`` for zero."""
    return len(a) - 1 if a else NEG_INF


def poly_add(a: Poly, b: Poly, p: int) -> Poly:
    """The sum of two list polynomials, trimmed."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for t, c in enumerate(b):
        out[t] = (out[t] + c) % p
    return poly_trim(out)


def determinant(m) -> Poly:
    """Exact determinant of a square PolyMat by fraction-free (Bareiss)
    elimination.

    On the rows: the intermediate minors reach the sum of the rows'
    degrees, far past any one entry's.
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
    return det if sign == 1 else [(-c) % p for c in det]
