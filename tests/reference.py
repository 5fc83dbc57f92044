"""List-arithmetic references that the tests hold the library to.

They share no code path with the engines: each works on ``PolyMat.rows``
with the ``ff_poly`` list helpers.
"""

from typing import Sequence

from popov_interp.apps import GSProblem, _derivative_indices
from popov_interp.ff_poly import (
    NEG_INF,
    Poly,
    poly_divrem,
    poly_mul,
    poly_sub,
    poly_trim,
    taylor_prefix,
)


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


def q_vanishes_at(prob: GSProblem, row: Sequence[Poly], k: int) -> bool:
    """Explicit multivariate check of one interpolation condition.

    Reassembles Q = sum_gamma row[gamma] * Y**gamma, expands
    Q(X + x_k, Y + y_k) below X-degree mu by brute force (products of the
    shifted factors, no derivative shortcuts), and inspects every
    coefficient whose exponent lies in the multiplicity support.
    """
    p = prob.field.p
    r = prob.num_y
    x, ys = prob.points[k]
    mu = prob.multiplicities[k]

    # coefficients of Q(X+x, Y+y): Y-exponent tuple -> X-polynomial
    expanded: dict = {}
    for ex, e in zip(prob.exponents, row):
        if not e:
            continue
        px = taylor_prefix(e, x, mu, p)  # only X-degrees below mu are read
        ypart = {(0,) * r: 1}  # running expansion of prod_i (Y_i + y_i)**g_i
        for i, gi in enumerate(ex):
            for _ in range(gi):
                nxt: dict = {}
                for b, c in ypart.items():
                    up = b[:i] + (b[i] + 1,) + b[i + 1 :]
                    nxt[up] = (nxt.get(up, 0) + c) % p
                    nxt[b] = (nxt.get(b, 0) + c * ys[i]) % p
                ypart = nxt
        for b, c in ypart.items():
            if c == 0:
                continue
            acc = expanded.setdefault(b, [])
            acc.extend([0] * (len(px) - len(acc)))
            for t, v in enumerate(px):
                acc[t] = (acc[t] + c * v) % p

    for b in _derivative_indices(mu, r):
        acc = expanded.get(b, [])
        if any(acc[: mu - sum(b)]):
            return False
    return True
