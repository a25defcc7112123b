"""`report.render_json` against the stdlib: the same bytes as
`json.dumps(sort_keys=True, indent=2)` plus a newline, on every shape the
fast paths take and on the ones they hand back to the stdlib."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from txpar.report import render_json


def stdlib(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


ints = st.integers() | st.integers(-(10**40), 10**40)  # small, and huge
floats = st.floats() | st.sampled_from([-0.0, 0.0, 1e300, -1e-300, math.nan, math.inf, -math.inf])
texts = st.text(max_size=8) | st.sampled_from(["", "é", "\x00\n\t\"\\", " ", "\U0001f600", "</script>"])
scalars = st.none() | st.booleans() | ints | floats | texts
int_rows = st.lists(st.lists(ints, min_size=1, max_size=4), min_size=1, max_size=6)  # abort triples and the like
tuple_rows = st.lists(st.tuples(ints) | st.tuples(ints, ints, ints) | st.tuples(ints, ints | st.booleans() | floats), min_size=1, max_size=6)
json_values = st.recursive(
    scalars | int_rows | tuple_rows | st.lists(ints | st.booleans(), max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(texts, inner, max_size=4)
    | st.dictionaries(st.integers(-3, 3), inner, max_size=3),  # non-str keys: the stdlib fallback
    max_leaves=20,
)


@settings(max_examples=400, deadline=None)
@given(json_values)
def test_render_json_matches_the_stdlib(value):
    assert render_json(value) == stdlib(value)


@pytest.mark.parametrize(
    "value",
    [
        [],
        {},
        (),
        [[]],
        [[], [1]],
        [[1, 2], [3]],
        [[1, True], [2, 3]],
        [1, True, False, None, 2],
        [-0.0, 1e300, math.nan, math.inf, -math.inf],
        {"a": {1: [2.5, {"b": ()}], 3: None}, "c": [{"d": {}}]},
        {"rows": [[12, 0, -1], [74, 0, 95]], "order": list(range(5)), "x": 10**40},
        # Tuple rows of ints, as `simulate` writes abort rows: one width,
        # mixed widths, negative and huge ints; a bool, a float or an empty
        # row leaves the fast path.
        [(12, 0, -1)],
        [(12, 0, -1), (74, 1), (5,), (6, 7, 8, 9)],
        [(-1, -(2**70), 0), (2**64, 2**64 + 1, -(2**64) - 1)],
        ((1, 2), (3, 4)),
        {"aborts": [(12, 0, -1), (74, 0, 95)], "none": []},
        [(1, True), (2, 3)],
        [(1, 2), (False, 3)],
        [(1, 2.5), (3, 4)],
        [(1, 2), (3, -0.0)],
        [(1, 2), ()],
        [(1, 2), [3, 4]],
        "é\x00\n",
    ],
)
def test_render_json_edge_shapes(value):
    assert render_json(value) == stdlib(value)


def test_render_json_converts_and_raises_as_the_stdlib():
    class Count(int):
        def __repr__(self):
            return "Count()"

    class Ratio(float):
        def __repr__(self):
            return "Ratio()"

    value = {"n": [Count(3), Ratio(0.5)], "k": {2: 1, 1.5: 3, True: 0}}
    assert render_json(value) == stdlib(value)
    cycle = [1]
    cycle.append({"a": cycle})
    for bad, error in (([object()], TypeError), ({"a": {1: 2, "b": 3}}, TypeError), (cycle, ValueError)):
        with pytest.raises(error) as ours:
            render_json(bad)
        with pytest.raises(error) as theirs:
            stdlib(bad)
        assert str(ours.value) == str(theirs.value)
