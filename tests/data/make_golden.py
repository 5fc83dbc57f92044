"""Write ``golden_bases.json``: fixed instances and every engine's output.

    PYTHONPATH=src python tests/data/make_golden.py

The instances cover the four test primes (3, 97, 998244353, 2**31 - 1),
m from 1 to 6 and sigma from 0 to 88, so both single-leaf solves and
Mib splits occur.  They include rows of E equal to p - 1
everywhere, an eigenvalue recurring after another one, the eigenvalues 0
and p - 1, and negative or extreme shifts.  The outputs recorded are
those of ``iterative_weak_popov``, ``minimal_interpolation_basis`` and
the s-Popov basis, which ``iterative_mib`` and ``popov_mib`` must both
return.  The engines' output is a contract, so the file is written once
and ``tests/test_golden.py`` compares against it; rewriting it would
defeat that test.
"""

import json
import random
from pathlib import Path

from popov_interp import (
    InterpInstance,
    JordanSpec,
    Modulus,
    iterative_mib,
    iterative_weak_popov,
    minimal_interpolation_basis,
    popov_mib,
)

PRIMES = (3, 97, 998244353, 2**31 - 1)
BIG = 2**70
OUT = Path(__file__).with_name("golden_bases.json")


def blocks_of(rng, p, sigma, kind):
    """Jordan blocks in constraint order for one recipe."""
    if kind == "recur":
        # a, b, a, b, ...: every eigenvalue recurs after the other one
        eigs = tuple(rng.sample(range(p), 2))
    elif kind == "edge":
        eigs = (0, p - 1)
    else:
        eigs = tuple(rng.sample(range(p), min(p, 3)))
    blocks, left, k = [], sigma, 0
    while left:
        n = rng.randint(1, min(left, 5))
        blocks.append((eigs[k % len(eigs)] if kind != "random" else rng.choice(eigs), n))
        left -= n
        k += 1
    return tuple(blocks)


def shift_of(rng, m, sigma, kind):
    if kind == "negative":
        return tuple(rng.randint(-3 * sigma - 3, 0) for _ in range(m))
    if kind == "extreme":
        return tuple(rng.choice((BIG, -BIG)) + rng.randint(-sigma, sigma) for _ in range(m))
    if kind == "hermite":
        return tuple(i * sigma for i in range(m))
    return tuple(rng.randint(0, m * sigma) for _ in range(m))


# (m, sigma or its range, eigenvalue kind, shift kind, a row of p - 1);
# the ranges lie just past the Mib's base case LEAF * m for LEAF = 16
# and for LEAF = 32, so the Mib splits at either
RECIPES = (
    (1, 0, "random", "balanced", False),
    (3, 2, "edge", "negative", False),
    (2, 9, "recur", "extreme", True),
    (4, 17, "random", "hermite", False),
    (6, 30, "edge", "balanced", True),
    (5, 12, "recur", "negative", False),
    (1, (17, 40), "recur", "balanced", True),
    (2, (33, 56), "edge", "extreme", False),
    (3, (49, 72), "random", "negative", False),
    (4, (65, 88), "edge", "extreme", True),
    (1, (33, 56), "random", "negative", True),
    (2, (65, 88), "recur", "hermite", True),
)


def instances():
    rng = random.Random(20261018)
    for p in PRIMES:
        for m, sigma, eig_kind, shift_kind, full in RECIPES:
            if isinstance(sigma, tuple):
                sigma = rng.randint(*sigma)
            blocks = blocks_of(rng, p, sigma, eig_kind)
            rows = [[rng.randrange(p) for _ in range(sigma)] for _ in range(m)]
            if full:
                rows[0] = [p - 1] * sigma
            if m > 2:
                rows[1] = [0] * sigma
            shift = shift_of(rng, m, sigma, shift_kind)
            yield InterpInstance(Modulus(p), rows, JordanSpec(blocks), shift)


def solved(basis, degrees):
    return {"basis": basis.rows, "degrees": list(degrees)}


def main():
    cases = []
    for inst in instances():
        popov = popov_mib(inst)
        if iterative_mib(inst) != popov:
            raise SystemExit("the engines disagree; not writing a golden file")
        cases.append(
            {
                "p": inst.field.p,
                "blocks": [list(b) for b in inst.jordan.blocks],
                "E": inst.E.tolist(),
                "shift": list(inst.shift),
                "weak": solved(*iterative_weak_popov(inst)),
                "mib": solved(*minimal_interpolation_basis(inst)),
                "popov": solved(*popov),
            }
        )
    OUT.write_text(json.dumps(cases, separators=(",", ":")) + "\n", encoding="utf-8")
    print(f"{len(cases)} instances, {OUT.stat().st_size} bytes")


if __name__ == "__main__":
    main()
