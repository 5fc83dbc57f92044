"""Field and polynomial arithmetic, checked against schoolbook oracles."""

import random

import pytest

from popov_interp.ff_poly import (
    Modulus,
    binom_mod,
    poly_divrem,
    poly_mul,
    poly_mul_schoolbook,
    poly_mul_trunc,
    poly_sub,
    poly_trim,
    taylor_prefix,
    taylor_shift,
)
from reference import poly_add, poly_deg

F97 = Modulus(97)
FNTT = Modulus(998244353)
PRIMES = (3, 97, 998244353, 2**31 - 1)


def rand_poly(rng, deg_max, p):
    return poly_trim([rng.randrange(p) for _ in range(rng.randint(0, deg_max + 1))])


def test_modulus_rejects_non_primes():
    for bad in (0, 1, 2, 4, 91, 2**31):
        with pytest.raises(ValueError):
            Modulus(bad)
    assert Modulus(3).p == 3


def test_mul_basics():
    # (X+1)(X-1) = X^2 - 1 mod 97
    assert poly_mul([1, 1], [96, 1], F97) == [96, 0, 1]
    assert poly_mul([5, 3, 1], [], F97) == []
    assert poly_mul([], [1, 2], F97) == []


@pytest.mark.parametrize("field", [F97, FNTT])
def test_fast_mul_matches_schoolbook(field):
    rng = random.Random(7)
    for _ in range(100):
        a = rand_poly(rng, 64, field.p)
        b = rand_poly(rng, 64, field.p)
        assert poly_mul(a, b, field) == poly_mul_schoolbook(a, b, field.p)


@pytest.mark.parametrize("field", [F97, FNTT])
def test_large_mul_paths(field):
    # large enough to leave the schoolbook path on both primes
    rng = random.Random(11)
    for deg in (150, 400):
        a = [rng.randrange(field.p) for _ in range(deg)] + [1]
        b = [rng.randrange(field.p) for _ in range(deg)] + [1]
        assert poly_mul(a, b, field) == poly_mul_schoolbook(a, b, field.p)


@pytest.mark.parametrize("p", [3, 97, 65537, 998244353, 2147483647])
def test_unbalanced_and_boundary_sizes(p):
    # both sides of the schoolbook bound len(a) * len(b) <= 2048, power-of-two
    # transform lengths, and long unbalanced pairs
    rng = random.Random(19)
    field = Modulus(p)
    sizes = (
        (40, 400), (33, 33), (32, 64), (32, 65), (1, 2048), (1, 2049),
        (64, 65), (127, 129), (17, 1000), (17, 4000),
    )
    for la, lb in sizes:
        a = [rng.randrange(p) for _ in range(la - 1)] + [rng.randrange(1, p)]
        b = [rng.randrange(p) for _ in range(lb - 1)] + [rng.randrange(1, p)]
        assert poly_mul(a, b, field) == poly_mul_schoolbook(a, b, p)


@pytest.mark.parametrize("p", [3, 2147483647])
def test_long_product_is_exact_at_its_worst_case(p):
    # all coefficients p - 1 at length 2**14: the largest limbs and sums the
    # float64 product takes through poly_mul; since (p - 1)**2 = 1 mod p,
    # coefficient k counts its min(k, 2n - 2 - k) + 1 terms
    n = 2**14
    a = [p - 1] * n
    expect = poly_trim([(min(k, 2 * n - 2 - k) + 1) % p for k in range(2 * n - 1)])
    assert poly_mul(a, a, Modulus(p)) == expect


def test_ring_axioms_randomized():
    rng = random.Random(3)
    p = 97
    for _ in range(50):
        a, b, c = (rand_poly(rng, 12, p) for _ in range(3))
        assert poly_add(poly_add(a, b, p), c, p) == poly_add(a, poly_add(b, c, p), p)
        left = poly_mul(a, poly_add(b, c, p), F97)
        right = poly_add(poly_mul(a, b, F97), poly_mul(a, c, F97), p)
        assert left == right


def test_divrem():
    rng = random.Random(5)
    for _ in range(100):
        a = rand_poly(rng, 20, 97)
        b = rand_poly(rng, 8, 97)
        if not b:
            with pytest.raises(ValueError, match="zero divisor"):
                poly_divrem(a, b, F97)
            continue
        q, r = poly_divrem(a, b, F97)
        assert poly_add(poly_mul(q, b, F97), r, 97) == a
        assert poly_deg(r) < poly_deg(b)
    # an untrimmed divisor has a zero leading coefficient, which has no inverse
    with pytest.raises(ValueError):
        poly_divrem([1, 2], [0], F97)


def test_truncated_product():
    rng = random.Random(9)
    for _ in range(50):
        a = rand_poly(rng, 20, 97)
        b = rand_poly(rng, 20, 97)
        k = rng.randint(0, 25)
        assert poly_mul_trunc(a, b, k, F97) == poly_trim(poly_mul(a, b, F97)[:k])


def test_taylor_shift_examples():
    assert taylor_shift([0, 0, 1], 1, F97) == [1, 2, 1]  # (X+1)^2
    assert taylor_shift([4, 5, 6], 0, F97) == [4, 5, 6]
    assert taylor_shift([], 13, F97) == []


def test_taylor_shift_round_trip_and_leading():
    rng = random.Random(13)
    for p in PRIMES:
        field = Modulus(p)
        for deg_max in (30, 150):
            for _ in range(20):
                a = rand_poly(rng, deg_max, p)
                x = rng.randrange(p)
                shifted = taylor_shift(a, x, field)
                assert taylor_shift(shifted, (-x) % p, field) == a
                assert poly_deg(shifted) == poly_deg(a)
                if a:
                    assert shifted[-1] == a[-1]


def test_taylor_shift_large_matches_horner():
    # plain Horner on (X + x), at lengths 66 and 201
    rng = random.Random(17)
    for p in PRIMES:
        field = Modulus(p)
        for n in (65, 200):
            a = [rng.randrange(p) for _ in range(n)] + [1]
            x = rng.randrange(1, p)
            ref = []
            for c in reversed(a):
                # ref * (X + x) + c
                ref = [(u + x * v) % p for u, v in zip([0] + ref, ref + [0])]
                ref[0] = (ref[0] + c) % p
            assert taylor_shift(a, x, field) == ref
            assert taylor_prefix(a, x, 10, p) == poly_trim(ref[:10])


def test_binom_mod_lucas():
    import math

    for n in range(0, 120):
        for k in range(0, n + 1, 7):
            assert binom_mod(n, k, 97) == math.comb(n, k) % 97
    assert binom_mod(5, 9, 97) == 0


def test_poly_sub_trims():
    assert poly_sub([1, 2, 3], [0, 0, 3], 97) == [1, 2]
    assert poly_sub([5], [5], 97) == []
