"""Prime-field scalars and dense univariate polynomial arithmetic.

A polynomial is a plain list of canonical residues in ``[0, p)``, lowest
degree first, with no trailing zero; the zero polynomial is ``[]``.  The
degree of the zero polynomial is ``NEG_INF`` so that degree comparisons
(``deg + shift``) behave uniformly.

The module keeps only what the library runs and the tests' list
references read.  Products are schoolbook on short operands and
otherwise the float64 evaluation/interpolation product of
``polymat.matmul`` on 1 x 1 matrices, exact for every prime below 2**31;
both paths return bit-identical coefficient lists.  Inverses are the
built-in ``pow(v, -1, p)``.

Division, which the list normalization runs, takes a linear divisor by
one synthetic division (Horner), one remainder per step.  Any other
divisor takes the schoolbook loop, which reduces each coefficient once,
when it leads and its quotient coefficient is read, or at the end if it
is left in the remainder: Python integers do not overflow, so the
subtractions in between need no remainder.  The linear branch pays:
normalizing 20 order_basis_p97 weak bases (all 360 divisors linear) took
0.51-0.57 ms per basis with it, 0.80-0.83 ms without (2-core x86 host).

Every entry point reads caller-supplied integers through ``int_tuple``
or ``residue_array``: Python integers of any size and numpy integers
pass, and a bool, a float or anything else raises ValueError, where
``int()`` or an int64 array would read another integer (2.9 as 2).

The one Taylor shift is ``taylor_prefix``, ``a(X + x) mod X**n`` by n
synthetic divisions by X - x: the list reference of the module action
and the multivariate vanishing check read only such prefixes, and
``taylor_shift`` is the same routine at full length.

``_karatsuba`` and ``binom_mod`` are one-statement stand-ins that nothing
calls: ``perfbench/spans.py`` looks every traced function up by name and
wraps it by object identity, so each is its own ``def``, not an alias.
"""

from __future__ import annotations

from math import comb
from typing import List, Tuple

import numpy as np

Poly = List[int]

NEG_INF = float("-inf")

# poly_mul is schoolbook up to this many coefficient products and the FFT
# product past it: a tuned bound, near where the two measure level
_SCHOOLBOOK_MAX_TERMS = 2048

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for every n < 2**64."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _all_integers(values: list) -> bool:
    return all(t is int or issubclass(t, np.integer) for t in set(map(type, values)))


def int_tuple(values, error: str) -> Tuple[int, ...]:
    """The values, Python or numpy integers, as Python ints; else ValueError(error)."""
    values = list(values)
    if not _all_integers(values):
        raise ValueError(error)
    return tuple(map(int, values))


def residue_array(values, p: int, what: str, reduce: bool = True) -> np.ndarray:
    """An integer array, or nested lists of integers of any size, as a new
    int64 array of residues mod p; without ``reduce``, entries outside
    [0, p) raise ValueError.  No dtype is inferred: numpy would read
    [2**63, 1] as float64 and [True, 2] as int64.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        # uint64 past 2**63 would wrap in int64: reduce it first
        a = (values % np.uint64(p) if values.dtype == np.uint64 else values).astype(np.int64)
    else:
        flat, shape = values, -1
        if not isinstance(flat, list) or not _all_integers(flat):
            nested = np.array(values, dtype=object)  # the shape, no dtype inferred
            flat, shape = nested.ravel().tolist(), nested.shape
            if not _all_integers(flat):
                raise ValueError(f"{what} must be integers")
        try:
            a = np.fromiter(flat, np.int64, len(flat)).reshape(shape)
        except OverflowError:  # beyond int64
            if not reduce:
                raise ValueError(f"{what} must be residues mod p") from None
            a = np.fromiter((v % p for v in flat), np.int64, len(flat)).reshape(shape)
    if reduce:
        a %= p
    elif a.size and (a.min() < 0 or a.max() >= p):
        raise ValueError(f"{what} must be residues mod p")
    return a


class Modulus:
    """An odd prime modulus below 2**31.

    The prime must fit in 31 bits so that products of two residues stay
    inside int64, which the exact linear algebra backend relies on, and
    so that ``polymat.matmul`` evaluates products exactly in float64.
    """

    __slots__ = ("p",)

    def __init__(self, p: int):
        (p,) = int_tuple((p,), "modulus must be an integer")
        if not 2 < p < 2**31:
            raise ValueError("modulus must be an odd prime below 2**31")
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    def __eq__(self, other):
        return isinstance(other, Modulus) and other.p == self.p

    def __hash__(self):
        return hash(self.p)

    def __repr__(self):
        return f"Modulus({self.p})"


def poly_trim(c: Poly) -> Poly:
    """Drop trailing zeros in place and return the list."""
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_sub(a: Poly, b: Poly, p: int) -> Poly:
    out = list(a) + [0] * (len(b) - len(a))
    for t, c in enumerate(b):
        out[t] = (out[t] - c) % p
    return poly_trim(out)


def poly_scale(a: Poly, c: int, p: int) -> Poly:
    c %= p
    if c == 0:
        return []
    return [c * v % p for v in a]


def poly_mul_schoolbook(a: Poly, b: Poly, p: int) -> Poly:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    if len(a) > len(b):
        a, b = b, a
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return poly_trim([v % p for v in out])


def _karatsuba(a: Poly, b: Poly, p: int) -> Poly:
    """The schoolbook product; a stand-in kept only for perfbench's ``TRACED``."""
    return poly_mul_schoolbook(a, b, p)


def _ntt_mul(a: Poly, b: Poly, field: Modulus) -> Poly:
    """The long product: ``polymat.matmul`` on 1 x 1 matrices.

    The name predates the float64 product; it stays because
    perfbench/spans.py traces it by name and counts it as the ``ntt`` path.
    """
    from .polymat import PolyMat, matmul  # polymat imports this module

    x, y = (PolyMat.from_coeffs(field, [[c]]) for c in (a, b))
    return matmul(x, y).coeffs[0, 0].tolist()


def poly_mul(a: Poly, b: Poly, field: Modulus) -> Poly:
    """Exact product: schoolbook on short operands, else the FFT product."""
    if not a or not b:
        return []
    if len(a) * len(b) <= _SCHOOLBOOK_MAX_TERMS:
        return poly_mul_schoolbook(a, b, field.p)
    return _ntt_mul(a, b, field)


def poly_mul_trunc(a: Poly, b: Poly, k: int, field: Modulus) -> Poly:
    """a*b mod X**k."""
    if k <= 0 or not a or not b:
        return []
    return poly_trim(poly_mul(a[:k], b[:k], field)[:k])


def _synthetic_division(q: Poly, x: int, p: int) -> None:
    """Divide q by X - x in place, by Horner's rule: q[0] becomes the
    remainder q(x) and q[t] the quotient's coefficient of X**(t-1)."""
    acc = 0
    for t in range(len(q) - 1, -1, -1):
        acc = (acc * x + q[t]) % p
        q[t] = acc


def poly_divrem(a: Poly, b: Poly, field: Modulus):
    """Quotient and remainder of a by b; deg(rem) < deg(b).

    A linear divisor takes one synthetic division; any other takes the
    schoolbook loop with one remainder per coefficient, when it is read.
    """
    if not b:
        raise ValueError("zero divisor")
    p = field.p
    if len(a) < len(b):
        return [], list(a)
    inv_lead = pow(b[-1], -1, p)
    lb = len(b)
    if lb == 2:
        # by X - x, x the root of b, then the quotient divided by b's lead
        q = list(a)
        _synthetic_division(q, -b[0] * inv_lead % p, p)
        rem = q.pop(0)
        if inv_lead != 1:
            q = [v * inv_lead % p for v in q]
        return poly_trim(q), [rem] if rem else []
    # Python integers do not overflow: each coefficient is reduced once,
    # when it leads (to read the quotient) or ends in the remainder
    r = list(a)
    q = [0] * (len(a) - lb + 1)
    for k in range(len(a) - lb, -1, -1):
        c = r[k + lb - 1] * inv_lead % p
        if c:
            q[k] = c
            for j in range(lb - 1):
                r[k + j] -= c * b[j]
    return poly_trim(q), poly_trim([v % p for v in r[: lb - 1]])


def binom_mod(n: int, k: int, p: int) -> int:
    """C(n, k) mod p; a stand-in kept only for perfbench's ``TRACED``."""
    return comb(n, k) % p if 0 <= k <= n else 0


def taylor_prefix(a: Poly, x: int, n: int, p: int) -> Poly:
    """``a(X + x) mod X**n``, by n synthetic divisions by X - x.

    The k-th remainder is the coefficient of X**k in a(X + x); this costs
    O(n * len(a)), and is the one Taylor shift of the library.
    """
    x %= p
    if x == 0:
        return poly_trim(list(a[:n]))
    q = list(a)
    out = []
    for _ in range(min(n, len(q))):
        _synthetic_division(q, x, p)
        out.append(q.pop(0))
    return poly_trim(out)


def taylor_shift(a: Poly, x: int, field: Modulus) -> Poly:
    """The polynomial a(X + x): ``taylor_prefix`` at full length.

    Degree and leading coefficient are preserved.
    """
    return taylor_prefix(a, x, len(a), field.p)
