"""Malformed JSON files never reach the CLI's internal-error exit.

Every document here is an input error (exit 1), a basis that fails
verification (exit 2) or, when a mutation happens to leave a valid file,
a success (exit 0); exit 3 would report an input fault as an engine
fault.  The CLI maps no encoder error to an input error, so the
``gs-interp`` cases hold ``GSProblem``'s own checks complete: a problem
they let through that ``gs_instance`` or the engines cannot take exits 3.  Hypothesis runs derandomized and without an example database,
so the cases are the same on every run and nothing is written to disk.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from popov_interp.cli import INTERNAL_ERROR, main

FIXED = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=100,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

INSTANCE = {"p": 97, "m": 2, "jordan": [[0, [1, 2]], [5, [1]]],
            "E": [[1, 2, 3, 4], [5, 6, 7, 8]], "shift": [0, 1]}
BASIS = {"p": 97, "basis": [[[0, 0, 92, 1], []], [[0, 94, 39], [0, 1]]], "delta": [3, 1]}
VALID = {
    "solve": INSTANCE,
    "check": BASIS,
    "order-basis": {"p": 97, "F": [[[1, 2]], [[3]]], "orders": [3], "shift": [0, 0]},
    "gs-interp": {"p": 97, "num_y": 1, "exponents": [[0], [1]], "points": [[1, [2]], [3, [4]]],
                  "multiplicities": [2, 2], "weights": [1]},
}
# two Y variables, so that one-field mutations reach GSProblem's
# per-variable checks: weights, Y-coordinates and exponent tuples
GS_TWO_Y = {"p": 97, "num_y": 2, "exponents": [[0, 0], [1, 0], [0, 1]],
            "points": [[1, [2, 3]], [4, [5, 6]]], "multiplicities": [2, 1], "weights": [1, 2]}
KEYS = sorted({k for doc in VALID.values() for k in doc} | {"groups"})

# small integers, and the edges of the field, of int64 and past it, which
# the size bounds refuse before anything is built; sizes in between pass
# MAX_CELLS, which bounds memory, not time, and would solve for minutes
integers = st.one_of(
    st.integers(-3, 40),
    st.sampled_from([96, 97, 2**31 - 1, 2**31, 2**63 - 1, 2**63, 2**70, -(2**70), 10**9]),
)
values = st.recursive(
    st.one_of(st.none(), st.booleans(), integers, st.floats(), st.text(max_size=3)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.one_of(st.sampled_from(KEYS), st.text(max_size=3)), inner, max_size=4),
    ),
    max_leaves=16,
)


def _paths(doc, prefix=()):
    """Every position in a JSON document, as a tuple of keys and indices."""
    yield prefix
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def mutations(draw, doc):
    """doc with one field replaced by any JSON value, or deleted."""
    doc = json.loads(json.dumps(doc))
    path = draw(st.sampled_from(list(_paths(doc))[1:]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(values)
    return doc


def _run(command, doc, tmp_path):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    if command == "check":
        other = tmp_path / "instance.json"
        other.write_text(json.dumps(INSTANCE))
        return main([command, str(other), str(path)])
    return main([command, str(path)])


def test_valid_files_pass(tmp_path):
    for command, doc in [*VALID.items(), ("gs-interp", GS_TWO_Y)]:
        assert _run(command, doc, tmp_path) == 0


@pytest.mark.parametrize("command", sorted(VALID))
@FIXED
@given(data=st.data())
def test_random_documents_are_never_internal_errors(command, data, tmp_path):
    doc = data.draw(st.one_of(
        values, st.dictionaries(st.sampled_from(KEYS), values, max_size=len(VALID[command]) + 1)
    ))
    assert _run(command, doc, tmp_path) != INTERNAL_ERROR


@pytest.mark.parametrize(
    "command, doc",
    [*sorted(VALID.items()), ("gs-interp", GS_TWO_Y)],
    ids=[*sorted(VALID), "gs-interp-num_y-2"],
)
@FIXED
@given(data=st.data())
def test_one_field_mutations_are_never_internal_errors(command, doc, data, tmp_path):
    assert _run(command, data.draw(mutations(doc)), tmp_path) != INTERNAL_ERROR


@FIXED
@given(data=st.data())
def test_check_with_a_mutated_instance_is_never_an_internal_error(data, tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(data.draw(mutations(INSTANCE))))
    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps(BASIS))
    assert main(["check", str(path), str(basis)]) != INTERNAL_ERROR
