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
from typing import List

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


class Modulus:
    """An odd prime modulus below 2**31.

    The prime must fit in 31 bits so that products of two residues stay
    inside int64, which the exact linear algebra backend relies on, and
    so that ``polymat.matmul`` evaluates products exactly in float64.
    """

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int):
            raise ValueError("modulus must be an integer")
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


def poly_divrem(a: Poly, b: Poly, field: Modulus):
    """Quotient and remainder of a by b; deg(rem) < deg(b)."""
    if not b:
        raise ValueError("zero divisor")
    p = field.p
    if len(a) < len(b):
        return [], list(a)
    r = list(a)
    lb = len(b)
    q = [0] * (len(a) - lb + 1)
    inv_lead = pow(b[-1], -1, p)
    for k in range(len(a) - lb, -1, -1):
        c = r[k + lb - 1] * inv_lead % p
        if c:
            q[k] = c
            for j in range(lb):
                r[k + j] = (r[k + j] - c * b[j]) % p
    return poly_trim(q), poly_trim(r[: lb - 1])


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
        # Horner in place: q[t] becomes the quotient's coefficient of
        # X**(t-1), and q[0] the remainder q(x)
        acc = 0
        for t in range(len(q) - 1, -1, -1):
            acc = (acc * x + q[t]) % p
            q[t] = acc
        out.append(q.pop(0))
    return poly_trim(out)


def taylor_shift(a: Poly, x: int, field: Modulus) -> Poly:
    """The polynomial a(X + x): ``taylor_prefix`` at full length.

    Degree and leading coefficient are preserved.
    """
    return taylor_prefix(a, x, len(a), field.p)
