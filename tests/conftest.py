"""Shared generators for the test suite.

Random instances are always built from a seeded Random so failures
reproduce; the acceptance suite reuses the same generator.
"""

import importlib
import random

import numpy as np
import pytest

from popov_interp import InterpInstance, JordanSpec, Modulus, standardize
from popov_interp.linalg import rank_mod

# the modules; the package exports the function popov_mib under the same name
POPOV_MIB = importlib.import_module("popov_interp.popov_mib")
MIB_ENGINE = importlib.import_module("popov_interp.mib_engine")

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


def dense_krylov_rank(inst) -> int:
    """The colength: the rank of the rows X**k . E_i for k < sigma, each X
    step taken on dense per-column Jordan data, as perfbench's gate does."""
    p, sigma, m = inst.field.p, inst.sigma, inst.m
    if not sigma:
        return 0
    eig = np.zeros(sigma, dtype=np.int64)
    carry = np.ones(sigma, dtype=np.int64)  # 0 on the first column of each block
    for (x, n), off in zip(inst.jordan.blocks, inst.jordan.offsets):
        eig[off : off + n] = x % p
        carry[off] = 0
    v = np.array(inst.E, dtype=np.int64)
    krylov = np.empty((sigma, m, sigma), dtype=np.int64)
    for k in range(sigma):
        krylov[k] = v
        v = (v * eig + np.roll(v, 1, axis=1) * carry) % p
    return rank_mod(krylov.reshape(sigma * m, sigma), p)


def capture(monkeypatch, name, modules=(POPOV_MIB,)):
    """Record ``(args, result)`` of every call made through ``<module>.<name>``.

    Each module's binding is wrapped, all recording into one list in the
    order the calls return.  ``popov_mib`` calls ``iterative_mib``, the
    Mib and ``known_mindeg_mib`` through its own bindings, the rebuild
    calls the Mib through ``popov_mib``'s, and the recursion calls it
    through ``mib_engine``'s.  So wrapping both Mib bindings sees every
    Mib node of a solve past the leaf: the instance's tree, whose root
    gives the degrees, then the rebuild's tree.
    """
    calls = []
    for module in modules:
        original = getattr(module, name)

        def recorded(*args, original=original):
            out = original(*args)
            calls.append((args, out))
            return out

        monkeypatch.setattr(module, name, recorded)
    return calls


def mib_splits(calls):
    """Pair each recorded Mib node with the two halves it multiplied.

    ``calls`` is a ``capture`` list of ``minimal_interpolation_basis``
    over both bindings.  A node returns after its halves, so a stack
    rebuilds the trees: every node above the Mib's base-case bound,
    sigma > LEAF * m, pops its right half, then its left.  Returns the
    splits as ``(node, basis, degrees, left, right)``, each half as
    ``(instance, basis, degrees)``, and the roots left on the stack in
    the same form as the halves.
    """
    stack, splits = [], []
    for (node,), (basis, degrees) in calls:
        if node.sigma > MIB_ENGINE.LEAF * node.m:
            right = stack.pop()
            left = stack.pop()
            splits.append((node, basis, degrees, left, right))
        stack.append((node, basis, degrees))
    return splits, stack


def poly_eval(a, x, p):
    """a(x) mod p, by Horner's rule."""
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


def leading_at(pmat, degrees):
    """Entry (i, u) is the coefficient of degree degrees[u] of pmat[i][u]."""
    return [[e[d] if d < len(e) else 0 for e, d in zip(row, degrees)] for row in pmat.rows]


@pytest.fixture
def rng():
    return random.Random(20240817)
