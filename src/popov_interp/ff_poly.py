"""Prime-field scalars and dense univariate polynomial arithmetic.

A polynomial is a plain list of canonical residues in ``[0, p)``, lowest
degree first, with no trailing zero; the zero polynomial is ``[]``.  The
degree of the zero polynomial is ``NEG_INF`` so that degree comparisons
(``deg + shift``) behave uniformly.

Products dispatch on operand size: schoolbook below a threshold, a
number-theoretic transform when the modulus has enough 2-adic roots of
unity for the result length, and Karatsuba otherwise.  All paths return
bit-identical coefficient lists.

The one Taylor shift is ``taylor_prefix``, ``a(X + x) mod X**n`` by n
synthetic divisions by X - x: the list reference of the module action
and the multivariate vanishing check read only such prefixes, and
``taylor_shift`` is the same routine at full length.
"""

from __future__ import annotations

from typing import List

import numpy as np

Poly = List[int]

NEG_INF = float("-inf")

_SCHOOLBOOK_MIN = 16  # below this (either operand) schoolbook wins
_KARATSUBA_BASE = 33  # recursion floor for the divide-and-conquer product

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
    """An odd prime modulus with cached NTT machinery.

    The prime must fit in 31 bits so that products of two residues stay
    inside int64, which the vectorized transform and the exact linear
    algebra backend rely on.
    """

    __slots__ = ("p", "two_adicity", "_root2", "_ntt_cache")

    def __init__(self, p: int):
        if not isinstance(p, int):
            raise ValueError("modulus must be an integer")
        if not 2 < p < 2**31:
            raise ValueError("modulus must be an odd prime below 2**31")
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        v = 0
        t = p - 1
        while t % 2 == 0:
            t //= 2
            v += 1
        self.two_adicity = v
        self._root2 = None  # primitive 2**two_adicity-th root, computed lazily
        self._ntt_cache = {}

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def max_ntt_len(self) -> int:
        return 1 << self.two_adicity

    def _primitive_2adic_root(self) -> int:
        if self._root2 is None:
            p = self.p
            # factor p-1 by trial division (p is small)
            n = p - 1
            factors = []
            f = 2
            while f * f <= n:
                if n % f == 0:
                    factors.append(f)
                    while n % f == 0:
                        n //= f
                f += 1
            if n > 1:
                factors.append(n)
            g = 2
            while any(pow(g, (p - 1) // q, p) == 1 for q in factors):
                g += 1
            self._root2 = pow(g, (p - 1) >> self.two_adicity, p)
        return self._root2

    def _ntt_tables(self, n: int):
        """Bit-reversal permutation and per-stage twiddles for length n."""
        tables = self._ntt_cache.get(n)
        if tables is not None:
            return tables
        p = self.p
        k = n.bit_length() - 1
        if n != 1 << k or n > self.max_ntt_len():
            raise ValueError(f"no order-{n} root of unity modulo {self.p}")
        idx = np.arange(n, dtype=np.int64)
        rev = np.zeros(n, dtype=np.int64)
        for bit in range(k):
            rev |= ((idx >> bit) & 1) << (k - 1 - bit)
        root = pow(self._primitive_2adic_root(), 1 << (self.two_adicity - k), p)
        iroot = pow(root, p - 2, p)
        fwd, inv = [], []
        for stage in range(1, k + 1):
            length = 1 << stage
            half = length >> 1
            w = pow(root, n // length, p)
            wi = pow(iroot, n // length, p)
            pw = np.ones(half, dtype=np.int64)
            pwi = np.ones(half, dtype=np.int64)
            for t in range(1, half):
                pw[t] = pw[t - 1] * w % p
                pwi[t] = pwi[t - 1] * wi % p
            fwd.append(pw)
            inv.append(pwi)
        tables = (rev, fwd, inv, pow(n, p - 2, p))
        self._ntt_cache[n] = tables
        return tables

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


def poly_add(a: Poly, b: Poly, p: int) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for t, c in enumerate(b):
        out[t] = (out[t] + c) % p
    return poly_trim(out)


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
    if min(len(a), len(b)) < _KARATSUBA_BASE:
        return poly_mul_schoolbook(a, b, p)
    h = max(len(a), len(b)) // 2
    a0, a1 = a[:h], a[h:]
    b0, b1 = b[:h], b[h:]
    z0 = _karatsuba(poly_trim(a0), poly_trim(b0), p)
    z2 = _karatsuba(a1, b1, p)
    z1 = poly_sub(
        poly_sub(_karatsuba(poly_add(a0, a1, p), poly_add(b0, b1, p), p), z0, p),
        z2,
        p,
    )
    out = [0] * (len(a) + len(b) - 1)
    for t, c in enumerate(z0):
        out[t] = c
    for t, c in enumerate(z1):
        out[h + t] = (out[h + t] + c) % p
    for t, c in enumerate(z2):
        out[2 * h + t] = (out[2 * h + t] + c) % p
    return poly_trim(out)


def _ntt_inplace(arr: np.ndarray, stages, rev: np.ndarray, p: int) -> np.ndarray:
    arr = arr[rev]
    for pw in stages:
        half = pw.shape[0]
        m2 = arr.reshape(-1, 2 * half)
        u = m2[:, :half]
        v = m2[:, half:] * pw % p
        s = (u + v) % p
        d = (u - v) % p
        m2[:, :half] = s
        m2[:, half:] = d
    return arr


def _ntt_mul(a: Poly, b: Poly, field: Modulus) -> Poly:
    p = field.p
    need = len(a) + len(b) - 1
    n = 1
    while n < need:
        n <<= 1
    rev, fwd, inv, n_inv = field._ntt_tables(n)
    fa = np.zeros(n, dtype=np.int64)
    fb = np.zeros(n, dtype=np.int64)
    fa[: len(a)] = a
    fb[: len(b)] = b
    fa = _ntt_inplace(fa, fwd, rev, p)
    fb = _ntt_inplace(fb, fwd, rev, p)
    fc = fa * fb % p
    fc = _ntt_inplace(fc, inv, rev, p)
    fc = fc * n_inv % p
    return poly_trim([int(v) for v in fc[:need]])


def poly_mul(a: Poly, b: Poly, field: Modulus) -> Poly:
    """Exact product; result independent of the dispatched algorithm."""
    if not a or not b:
        return []
    if min(len(a), len(b)) <= _SCHOOLBOOK_MIN or len(a) + len(b) <= 64:
        return poly_mul_schoolbook(a, b, field.p)
    need = len(a) + len(b) - 1
    n = 1
    while n < need:
        n <<= 1
    if n <= field.max_ntt_len():
        return _ntt_mul(a, b, field)
    return _karatsuba(a, b, field.p)


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
    inv_lead = field.inv(b[-1])
    for k in range(len(a) - lb, -1, -1):
        c = r[k + lb - 1] * inv_lead % p
        if c:
            q[k] = c
            for j in range(lb):
                r[k + j] = (r[k + j] - c * b[j]) % p
    return poly_trim(q), poly_trim(r[: lb - 1])


def _binom_digit(n: int, k: int, p: int) -> int:
    if k > n:
        return 0
    k = min(k, n - k)
    num = 1
    den = 1
    for j in range(1, k + 1):
        num = num * ((n - k + j) % p) % p
        den = den * j % p
    return num * pow(den, p - 2, p) % p


def binom_mod(n: int, k: int, p: int) -> int:
    """Binomial coefficient modulo p via Lucas' theorem."""
    if k < 0 or k > n:
        return 0
    res = 1
    while n or k:
        res = res * _binom_digit(n % p, k % p, p) % p
        if res == 0:
            return 0
        n //= p
        k //= p
    return res


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
