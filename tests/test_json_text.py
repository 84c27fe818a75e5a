"""The report's JSON writer against json.dumps(x, indent=2, sort_keys=True).

jsontext.write_json streams a report to a text file as it is produced and
takes only what a report holds; every value it takes comes out as json.dumps
writes it, whichever file receives it.
"""

import io
import json
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dp5links.jsontext import write_json
from dp5links.report import run_checks

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


class Fragments:
    """A text file that keeps each write apart."""

    def __init__(self):
        self.writes = []

    def write(self, text: str) -> int:
        assert type(text) is str
        self.writes.append(text)
        return len(text)

    def getvalue(self) -> str:
        return "".join(self.writes)


# the files a report is streamed to: an in-memory text file and one that records
SINKS = (io.StringIO, Fragments)


def json_text(x, sink=io.StringIO) -> str:
    fh = sink()
    write_json(x, fh)
    return fh.getvalue()


@settings(deadline=timedelta(milliseconds=2000), max_examples=100)
@given(values, st.sampled_from(SINKS))
def test_json_text_equals_json_dumps(x, sink):
    assert json_text(x, sink) == json.dumps(x, indent=2, sort_keys=True)


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
    for sink in SINKS:
        with pytest.raises(TypeError, match=name):
            json_text(x, sink)


def test_a_report_is_written_as_it_is_produced():
    # the writer never holds a report's text: no write reaches 4 KB
    report = run_checks()
    for write, text in ((report.write_json, report.to_json()),
                        (report.write_markdown, report.to_markdown())):
        fh = Fragments()
        write(fh)
        assert len(fh.writes) > 1000
        assert max(map(len, fh.writes)) <= 4096
        assert fh.getvalue() == text
