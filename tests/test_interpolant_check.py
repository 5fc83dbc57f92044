"""interpolant_check against the list reference ``residual_direct``.

The check multiplies a row's coefficients by gathered rows X**k . E_j of
the instance's power table in int64; the reference computes the same
module action on Python integers, block by block.  They must agree on
every row, whatever its shape, and the table must hold no more than the
rows it was asked for.
"""

import random

import numpy as np
import pytest

from popov_interp import (
    InterpInstance,
    JordanSpec,
    Modulus,
    PolyMat,
    interpolant_check,
    iterative_mib,
    kernel_oracle,
    popov_mib,
)
from popov_interp.jordan_module import residual_direct, strided_powers
from popov_interp.linalg import CHUNK

from conftest import random_instance

PRIMES = (3, 97, 998244353, 2**31 - 1)
SHAPES = ("sigma0", "m1", "sigma_lt_m", "repeated", "big_eigs", "nilpotent")


def reference(row, inst):
    """residual_direct's zero test, on the row read mod p."""
    p = inst.field.p
    pmat = PolyMat.from_rows(inst.field, [[[c % p for c in e] for e in row]])
    return not any(residual_direct(pmat, inst.E.tolist(), inst.jordan)[0])


def fresh(inst):
    """The same instance with an empty power table."""
    return InterpInstance(inst.field, inst.E, inst.jordan, inst.shift)


def edge_instance(rng, p, shape):
    """A small instance of one edge shape, with eigenvalues that repeat."""
    m = {"m1": 1, "sigma_lt_m": 4}.get(shape, rng.randint(1, 3))
    sigma = {"sigma0": 0, "sigma_lt_m": rng.randint(1, 3)}.get(shape, rng.randint(1, 10))
    eigs = [rng.randrange(p) for _ in range(2)]
    if shape == "nilpotent":
        blocks = [(0, sigma)] if sigma else []
    else:
        blocks = []
        left = sigma
        while left:
            n = rng.randint(1, min(left, 3))
            blocks.append((rng.choice(eigs), n))
            left -= n
        if shape == "big_eigs":
            # the same eigenvalues, plus multiples of p up to 2**40 * p
            blocks = [(x + rng.randint(1, 2**40) * p, n) for x, n in blocks]
    rows = [[0] * sigma if rng.random() < 0.2 else [rng.randrange(p) for _ in range(sigma)]
            for _ in range(m)]
    shift = tuple(rng.randint(0, 3) for _ in range(m))
    return InterpInstance(Modulus(p), rows, JordanSpec(tuple(blocks)), shift)


def perturb(rng, row, p, grow=True):
    """The row with one coefficient moved by a nonzero residue; with grow
    it may lie past the end of its entry, else it lies in a nonempty one."""
    bent = [list(e) for e in row]
    j = rng.choice([j for j, e in enumerate(bent) if e or grow])
    k = rng.randrange(len(bent[j]) + 2 * grow)
    bent[j] += [0] * (k + 1 - len(bent[j]))
    bent[j][k] = (bent[j][k] + rng.randrange(1, p)) % p
    return bent


def variants(rng, row, inst):
    """The row, then the row perturbed, lengthened, untrimmed and unreduced
    (the last three are interpolants exactly when the row is one)."""
    p, sigma = inst.field.p, inst.sigma
    yield row
    yield perturb(rng, row, p)
    # times X**(sigma+1) * q: longer than sigma, and still an interpolant
    # exactly when the row is one
    q = [rng.randrange(p) for _ in range(3)] + [1]
    shifted = [[0] * (sigma + 1) + e for e in row]
    yield [
        [sum(e[t - u] * q[u] for u in range(len(q)) if 0 <= t - u < len(e)) % p
         for t in range(len(e) + len(q) - 1)] if e else []
        for e in shifted
    ]
    # untrimmed: trailing zeros and multiples of p
    yield [list(e) + [0, p, -p] for e in row]
    # negative or large within int64, then beyond int64 either way
    yield [[c + rng.choice((-1, 1, -(2**31), 2**31)) * p for c in e] for e in row]
    yield [[c + rng.choice((-(2**70), 2**70)) * p for c in e] for e in row]


def rows_to_check(rng, inst):
    """The Popov basis, some oracle interpolants, and random rows."""
    p = inst.field.p
    basis, _ = iterative_mib(inst)
    assert popov_mib(inst)[0] == basis
    rows = list(basis.rows)
    rows += kernel_oracle(inst, max(inst.shift) + 2)[:6]
    for _ in range(3):
        rows.append([[rng.randrange(p) for _ in range(rng.randint(0, inst.sigma + 2))]
                     for _ in range(inst.m)])
    return rows


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("p", PRIMES)
def test_check_matches_residual_direct(p, shape):
    rng = random.Random(f"{p}-{shape}")
    hits = 0
    for _ in range(4):
        inst = edge_instance(rng, p, shape)
        for row in rows_to_check(rng, inst):
            for variant in variants(rng, row, inst):
                want = reference(variant, inst)
                assert interpolant_check(variant, inst) is want
                hits += want
    assert hits  # the interpolants pass, so both outcomes are covered


def test_check_on_sigma_zero_accepts_every_row():
    inst = InterpInstance(Modulus(97), [[], []], JordanSpec(()), (0, 0))
    assert interpolant_check([[5, 0, 96], [-3]], inst)
    assert interpolant_check([[], []], inst)


def test_table_grows_to_the_longest_entry(rng):
    """Rows of one basis checked short-then-long and long-then-short."""
    for _ in range(6):
        p = rng.choice(PRIMES)
        inst = random_instance(rng, p=p, sigma_range=(8, 40), m_range=(2, 5), max_eigs=2)
        basis, delta = popov_mib(inst)
        rows = basis.rows
        by_length = sorted(rows, key=lambda r: sum(map(len, r)))
        want_len = [max(1, max(len(r[j]) for r in rows)) for j in range(inst.m)]
        for order in (by_length, by_length[::-1]):
            case = fresh(inst)
            for row in order:
                assert interpolant_check(row, case)
                bent = perturb(rng, row, p, grow=False)
                assert interpolant_check(bent, case) is reference(bent, case)
            table = case.powers.columns
            # each column as long as its longest entry, delta_j + 1 on a
            # Popov basis, so the table holds at most (sigma + m) * sigma
            assert [len(c) for c in table] == want_len == [d + 1 for d in delta]
            assert sum(c.size for c in table) <= (inst.sigma + inst.m) * inst.sigma
            krylov = strided_powers(inst.E, inst.jordan, inst.field, want_len, 1)
            assert (np.concatenate(table) == krylov).all()
        # a longer row later extends the table and changes no answer
        long_row = [[0] * (inst.sigma + 2) + e for e in rows[0]]
        assert interpolant_check(long_row, case)
        assert all(interpolant_check(row, case) for row in rows)


def test_check_is_exact_past_one_chunk_near_2_31():
    """Coefficients p - 1 times residues p - 1, over 2**17 terms.

    With eigenvalues 1 and -1 (given as 2p - 1), X**k . E_0 stays p - 1,
    so every low-half product is near 2**47: a chunk of 2**17 of them
    would overflow int64.  L - 2 coefficients -1 followed by two (L - 2)/2
    vanish at 1 and, for even L, at -1, so the row is an interpolant.
    """
    p = 2**31 - 1
    jordan = JordanSpec(((1, 1), (2 * p - 1, 1)))
    inst = InterpInstance(Modulus(p), [[p - 1, p - 1]], jordan, (0,))
    length = 2 * CHUNK + 2
    half = (length - 2) // 2
    row = [[p - 1] * (length - 2) + [half, half]]
    assert interpolant_check(row, inst) and reference(row, inst)
    for k in (0, CHUNK, length - 1):
        bent = [list(row[0])]
        bent[0][k] = (bent[0][k] + 1) % p
        assert not interpolant_check(bent, inst)
        assert not reference(bent, inst)
    assert [len(c) for c in inst.powers.columns] == [length]
