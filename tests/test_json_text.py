"""The report's JSON writer against json.dumps(x, indent=2, sort_keys=True).

jsontext.json_text writes a report in one pass and takes only what a report
holds; every value it takes comes out as json.dumps writes it.
"""

import json
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dp5links.jsontext import json_text

# quotes, backslashes, control, non-ASCII and astral characters, beside any
# other character; short strings and containers keep the examples cheap
texts = (st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t a\xe9\u20ac\U0001f600'), max_size=8)
         | st.text(max_size=8))
ints = st.integers() | st.integers(-10 ** 100, 10 ** 100)
leaves = st.none() | st.booleans() | ints | texts
values = st.recursive(
    leaves,
    lambda children: (st.lists(children, max_size=5) | st.lists(children, max_size=5).map(tuple)
                      | st.dictionaries(texts, children, max_size=5)),
    max_leaves=20)


@settings(deadline=timedelta(milliseconds=2000), max_examples=100)
@given(values)
def test_json_text_equals_json_dumps(x):
    assert json_text(x) == json.dumps(x, indent=2, sort_keys=True)


def test_empty_and_nested_empty_containers():
    for x in ([], (), {}, [[]], {"a": {}}, [(), {}, [[], []]], {"": [""]}):
        assert json_text(x) == json.dumps(x, indent=2, sort_keys=True)


@pytest.mark.parametrize("x, name", [
    (1.5, "float"),
    ({1: "a"}, "int"),
    ({"a": [1, {2}]}, "set"),
    (["a", "b", 0.0], "float"),
])
def test_what_a_report_cannot_hold_raises_type_error(x, name):
    with pytest.raises(TypeError, match=name):
        json_text(x)
