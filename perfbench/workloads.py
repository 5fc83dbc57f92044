"""The benchmark's workloads and how each one calls the library.

Every workload draws its instances from the workload seed alone: instance
``i`` of seed ``s`` is generated from ``instance_seed(s, i)``.  All
instances of a run share one ``Modulus``, so the NTT tables it caches are
filled once, during set-up.

The library is reached only through its public functions, looked up on
the module objects at call time, so that the traced run sees the wrappers
it installs at every module-level binding.
"""

from __future__ import annotations

import importlib
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

NTT_PRIME = 998244353

# the package modules, one per layer; ``cli`` is not measured
LAYERS = ("ff_poly", "jordan_module", "polymat", "linalg", "mib_engine", "popov_mib", "apps")

SRC = Path(__file__).resolve().parent.parent / "src"


def load_library() -> SimpleNamespace:
    """Import ``popov_interp`` afresh from the checkout's ``src``.

    Any copy imported earlier is dropped first, so timing this call
    measures the library's import.  Refuses a copy found anywhere else,
    such as an installed package.
    """
    for name in [n for n in sys.modules if n == "popov_interp" or n.startswith("popov_interp.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    pkg = importlib.import_module("popov_interp")
    if Path(pkg.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"popov_interp was imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(
        **{layer: importlib.import_module(f"popov_interp.{layer}") for layer in LAYERS}
    )


def instance_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


@dataclass(frozen=True)
class Workload:
    """One family of instances and the calls the benchmark times on it.

    ``generate(lib, field, seed)`` makes a problem, ``popov(lib, problem)``
    is the timed call of the paper's engine, and ``encode(lib, problem)``
    gives the ``InterpInstance`` that the iterative engine, verification
    and the correctness gate use.
    """

    name: str
    prime: int
    generate: Callable[[SimpleNamespace, Any, int], Any]
    popov: Callable[[SimpleNamespace, Any], Any]
    encode: Callable[[SimpleNamespace, Any], Any]


def _mpade(lib, field, seed):
    """The ``popov-interp bench`` family at m=4, sigma=128."""
    rng = random.Random(seed)
    m, sigma, p = 4, 128, field.p
    eigs = rng.sample(range(p), 3)
    blocks = []
    left = sigma
    while left > 0:
        n = min(left, rng.randint(1, sigma // 4))
        blocks.append((rng.choice(eigs), n))
        left -= n
    rows = [[rng.randrange(p) for _ in range(sigma)] for _ in range(m)]
    jordan, rows = lib.jordan_module.standardize(blocks, rows)
    shift = tuple(rng.randint(0, m * sigma) for _ in range(m))
    return lib.mib_engine.InterpInstance(field, rows, jordan, shift)


def _adversarial(lib, field, seed):
    """The 8x1 Hermite-Pade family with shift (0,0,0,0,s,s,s,s), s=128."""
    return lib.apps.adversarial_instance(4, 128, seed, field)


def _gs(lib, field, seed):
    """Reed-Solomon Guruswami-Sudan: 16 points, multiplicity 3, Y-degree 4."""
    rng = random.Random(seed)
    p = field.p
    xs = rng.sample(range(p), 16)
    points = tuple((x, (rng.randrange(p),)) for x in xs)
    exponents = tuple((g,) for g in range(5))
    return lib.apps.GSProblem(field, 1, exponents, points, (3,) * len(points), (7,))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mpade_ntt",
            NTT_PRIME,
            _mpade,
            lambda lib, inst: lib.popov_mib.popov_mib(inst),
            lambda lib, inst: inst,
        ),
        Workload(
            "order_basis_p97",
            97,
            _adversarial,
            lambda lib, prob: lib.apps.order_basis(prob),
            lambda lib, prob: lib.apps.approximant_instance(prob),
        ),
        Workload(
            "gs_list_decode",
            NTT_PRIME,
            _gs,
            lambda lib, prob: lib.popov_mib.popov_mib(lib.apps.gs_instance(prob)),
            lambda lib, prob: lib.apps.gs_instance(prob),
        ),
    )
}
