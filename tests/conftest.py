"""Shared generators for the test suite.

Random instances are always built from a seeded Random so failures
reproduce; the acceptance suite reuses the same generator.
"""

import importlib
import random

import pytest

from popov_interp import InterpInstance, JordanSpec, Modulus, standardize

# the module; the package exports its driver function under the same name
POPOV_MIB = importlib.import_module("popov_interp.popov_mib")

NTT_PRIME = 998244353

F97 = Modulus(97)
FNTT = Modulus(NTT_PRIME)


def random_instance(
    rng: random.Random,
    p: int = 97,
    m_range=(1, 6),
    sigma_range=(0, 48),
    max_eigs: int = 4,
    hermite_prob: float = 0.12,
    kill_constant: bool = False,
) -> InterpInstance:
    """A random interpolation instance.

    With kill_constant the degree-0 slot of the first block is zeroed in
    every row, which forces the minimal degrees to sum to strictly less
    than sigma.
    """
    field = Modulus(p)
    m = rng.randint(*m_range)
    sigma = rng.randint(*sigma_range)
    if sigma == 0:
        jordan = JordanSpec(())
        rows = [[] for _ in range(m)]
    else:
        eigs = rng.sample(range(p), rng.randint(1, min(max_eigs, sigma)))
        blocks = []
        left = sigma
        while left > 0:
            n = rng.randint(1, left)
            blocks.append((rng.choice(eigs), n))
            left -= n
        raw = [[rng.randrange(p) for _ in range(sigma)] for _ in range(m)]
        jordan, rows = standardize(blocks, raw)
        if kill_constant:
            for r in rows:
                r[0] = 0
    if rng.random() < hermite_prob:
        shift = tuple(i * sigma for i in range(m))
    else:
        shift = tuple(rng.randint(0, m * sigma) for _ in range(m))
    return InterpInstance(field, rows, jordan, shift)


def capture(monkeypatch, name):
    """Record ``(args, result)`` of every call made through ``popov_mib.<name>``.

    The divide-and-conquer driver calls ``solve_halves``,
    ``known_mindeg_mib`` and ``minimal_interpolation_basis`` through
    those module-level bindings, so wrapping them sees every split.
    """
    calls = []
    original = getattr(POPOV_MIB, name)

    def recorded(*args):
        out = original(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(POPOV_MIB, name, recorded)
    return calls


def splits_of(halves, rebuilds):
    """Pair each ``solve_halves`` call with the rebuild of the same node.

    ``halves`` and ``rebuilds`` are the ``capture`` lists of one
    ``popov_mib`` run.  Yields the node's instance, the halves' bases
    and degrees, the degrees the rebuild was given, and its output.
    """
    rebuilt = {id(args[0]): (args[1], out) for args, out in rebuilds}
    assert len(rebuilt) == len(halves) == len(rebuilds)
    for (inst, _), (left, d1, right, d2) in halves:
        yield (inst, left, d1, right, d2) + rebuilt[id(inst)]


def leading_at(pmat, degrees):
    """Entry (i, u) is the coefficient of degree degrees[u] of pmat[i][u]."""
    return [[e[d] if d < len(e) else 0 for e, d in zip(row, degrees)] for row in pmat.rows]


@pytest.fixture
def rng():
    return random.Random(20240817)
