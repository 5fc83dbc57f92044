"""Application-level certificates: the encoders pose the problems that
the applications need, and minimality delivers what they rely on.

Both checks work on the solved basis with list arithmetic, independently
of the residual and of ``q_vanishes_at``, and both run on instances past
the Mib's base case (sigma > LEAF * m), so the recursion is covered.
"""

import random

import pytest

from conftest import poly_eval
from popov_interp import Modulus, PolyMat, popov_mib, shifted_row_degree
from popov_interp.apps import ApproximantProblem, GSProblem, gs_instance, order_basis
from popov_interp.ff_poly import poly_divrem, poly_mul, poly_scale, poly_trim
from popov_interp.mib_engine import LEAF
from reference import poly_add, poly_deg

PRIMES = (97, 998244353)


def _least_row(basis: PolyMat, shift):
    """The row of least shifted degree, and that degree."""
    degrees = shifted_row_degree(basis, shift)
    i = min(range(len(degrees)), key=degrees.__getitem__)
    return basis.rows[i], degrees[i]


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("seed", range(3))
def test_guruswami_sudan_decodes_past_half_the_distance(p, seed):
    # 40 points, k = 6: unique decoding reaches (40 - 6) // 2 = 17 errors,
    # and 19 lie past it.  With mu = 3 and Y-degree 4 the interpolant Q has
    # weighted degree below 21 agreements * 3, so Q(X, f(X)) = 0
    # (Guruswami-Sudan, IEEE T-IT 1999) when Q is minimal.
    rng = random.Random(seed)
    field = Modulus(p)
    n, k, mu, ydeg, errors = 40, 6, 3, 4, 19
    f = poly_trim([rng.randrange(p) for _ in range(k)])
    xs = rng.sample(range(p), n)
    ys = [poly_eval(f, x, p) for x in xs]
    for i in rng.sample(range(n), errors):
        ys[i] = (ys[i] + rng.randrange(1, p)) % p
    prob = GSProblem(
        field, 1, tuple((g,) for g in range(ydeg + 1)),
        tuple((x, (y,)) for x, y in zip(xs, ys)), (mu,) * n, (k - 1,),
    )
    inst = gs_instance(prob)
    assert inst.sigma == 240 > LEAF * inst.m
    basis, _ = popov_mib(inst)
    q, weighted = _least_row(basis, inst.shift)
    assert weighted < (n - errors) * mu
    # Q(X, f(X)) = sum_g q_g(X) f(X)**g, by Horner in f
    total = []
    for qg in reversed(q):
        total = poly_add(poly_mul(total, f, field), qg, p)
    assert total == []


def _series_quotient(a, b, sigma: int, p: int):
    """a / b mod X**sigma, b(0) != 0, one coefficient at a time."""
    inv = pow(b[0], -1, p)
    f = []
    for t in range(sigma):
        acc = a[t] if t < len(a) else 0
        acc -= sum(b[i] * f[t - i] for i in range(1, min(t, len(b) - 1) + 1))
        f.append(acc * inv % p)
    return poly_trim(f)


def _coprime(a, b, field: Modulus) -> bool:
    while b:
        a, b = b, poly_divrem(a, b, field)[1]
    return poly_deg(a) == 0


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize(
    "da, db",
    # m = 2: the last four have sigma > LEAF * m = 64 and recurse
    [(1, 0), (1, 1), (3, 5), (8, 2), (20, 20), (40, 30), (60, 60), (1, 70), (70, 1)],
)
def test_pade_reconstruction(p, da, db):
    # f = a/b mod X**sigma, sigma = da + db + 1: the order basis of [f, -1]
    # under the shift (-db, -(da - 1)) has (b, a) as its row of least
    # shifted degree, up to a constant (Beckermann-Labahn, SIMAX 1994)
    rng = random.Random(1000 * da + db)
    field = Modulus(p)
    sigma = da + db + 1
    while True:
        a = poly_trim([rng.randrange(p) for _ in range(da)])
        b = poly_trim([rng.randrange(1, p)] + [rng.randrange(p) for _ in range(db)])
        if _coprime(a, b, field):
            break
    f = _series_quotient(a, b, sigma, p)
    F = PolyMat.from_rows(field, [[f], [[p - 1]]])
    shift = (-db, -(da - 1))
    prob = ApproximantProblem(field, F, (sigma,), shift)
    basis, _ = order_basis(prob)
    row, degree = _least_row(basis, shift)
    assert degree <= 0
    c = row[0][0] * pow(b[0], -1, p) % p
    assert c and row == [poly_scale(b, c, p), poly_scale(a, c, p)]
