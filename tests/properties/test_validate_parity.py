"""Property test: ``validate_payload``'s exact-type fast path for rows
decides exactly as the per-field loop does.

The oracle is the loop as it stood before the fast path; it must agree
on accept/reject and on the ``ScenarioError`` message for any row list,
including subclasses the fast path does not take (those fall through
to the loop).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios import SCHEMA, ScenarioError, validate_payload
from repro.scenarios.store import _rows_exact

_SCALAR = (str, int, float, bool, type(None))


def loop_verdict(rows):
    """The per-field row loop: ``None`` or the error message."""
    for idx, row in enumerate(rows):
        if not isinstance(row, dict):
            return f"invalid scenario result: row {idx} is not an object"
        for key, value in row.items():
            ok = isinstance(value, _SCALAR) or (
                isinstance(value, list) and all(isinstance(v, _SCALAR) for v in value)
            )
            if not ok:
                return (f"invalid scenario result: row {idx} field {key!r} "
                        f"is not a scalar or scalar list")
    return None


def validate_verdict(rows):
    payload = {
        "schema": SCHEMA, "scenario": "s", "kind": "delay_sweep", "spec": {},
        "spec_hash": "0" * 16, "backend": "auto", "rows": rows,
        "summary": {"ok": True}, "timings": {}, "environment": {},
    }
    try:
        validate_payload(payload)
    except ScenarioError as exc:
        return str(exc)
    return None


class SubFloat(float):
    pass


class SubInt(int):
    pass


class SubStr(str):
    pass


class SubList(list):
    pass


class SubDict(dict):
    pass


keys = st.text(max_size=3)
exact_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
                 | st.text(max_size=4))
subclass_scalars = (st.floats().map(SubFloat) | st.integers().map(SubInt)
                    | st.text(max_size=3).map(SubStr))
try:
    import numpy
except ImportError:  # the loop's numpy cases need numpy; the rest do not
    pass
else:
    # float64 subclasses float (accepted); int64 subclasses no scalar type.
    subclass_scalars |= (st.floats().map(numpy.float64)
                         | st.integers(-2**63, 2**63 - 1).map(numpy.int64))
scalars = exact_scalars | subclass_scalars
values = (
    scalars
    | st.lists(scalars, max_size=3)
    | st.lists(scalars, max_size=3).map(SubList)
    | st.lists(scalars, max_size=3).map(tuple)
    | st.lists(st.lists(scalars, max_size=2), max_size=2)
    | st.lists(st.dictionaries(keys, scalars, max_size=2), max_size=2)
    | st.dictionaries(keys, scalars, max_size=2)
)
exact_rows = st.dictionaries(
    keys, exact_scalars | st.lists(exact_scalars, max_size=3), max_size=5)
mixed_rows = st.dictionaries(keys, values, max_size=4)
any_row = (exact_rows | mixed_rows | mixed_rows.map(SubDict)
           | st.lists(scalars, max_size=2) | scalars)


@settings(max_examples=400, deadline=None)
@given(st.lists(exact_rows, max_size=6) | st.lists(any_row, max_size=6))
def test_fast_path_matches_the_loop(rows):
    assert validate_verdict(rows) == loop_verdict(rows)


@settings(max_examples=100, deadline=None)
@given(st.lists(exact_rows, max_size=6))
def test_exact_rows_take_the_fast_path(rows):
    assert _rows_exact(rows)
    assert loop_verdict(rows) is None
