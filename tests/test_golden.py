"""Every engine reproduces the recorded outputs of ``data/golden_bases.json``.

The differential tests compare ``popov_mib`` with ``iterative_mib``, and
both run on the one elimination kernel, so a fault in that kernel would
pass them.  These outputs were recorded once (``data/make_golden.py``)
and pin the kernel, the Mib and both s-Popov engines bit for bit.
"""

import json
from pathlib import Path

import pytest

from popov_interp import (
    InterpInstance,
    JordanSpec,
    Modulus,
    iterative_mib,
    iterative_weak_popov,
    minimal_interpolation_basis,
    popov_mib,
)

CASES = json.loads((Path(__file__).parent / "data" / "golden_bases.json").read_text())


def instance(case):
    jordan = JordanSpec(tuple((x, n) for x, n in case["blocks"]))
    return InterpInstance(Modulus(case["p"]), case["E"], jordan, case["shift"])


def solved(engine, inst):
    basis, degrees = engine(inst)
    return {"basis": basis.rows, "degrees": list(degrees)}


def name(case):
    return f"p{case['p']}-m{len(case['E'])}-sigma{sum(n for _, n in case['blocks'])}"


@pytest.mark.parametrize("case", CASES, ids=name)
def test_engines_reproduce_the_golden_bases(case):
    inst = instance(case)
    assert solved(iterative_weak_popov, inst) == case["weak"]
    assert solved(minimal_interpolation_basis, inst) == case["mib"]
    assert solved(iterative_mib, inst) == case["popov"]
    assert solved(popov_mib, inst) == case["popov"]
