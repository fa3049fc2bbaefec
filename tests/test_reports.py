"""JSON string escaping in ``reports`` against the loop it replaced."""

import json

from hypothesis import given, settings, strategies as st

from fbasis.reports import _escape, to_json_bytes

from escape_oracle import escape_by_loop

# the four characters the loop escaped differently from json.dumps
_DIFFERENT = "\b\f\r\x7f"


@settings(max_examples=200, deadline=None)
@given(st.text())
def test_escape_round_trips_any_text(s):
    out = _escape(s)
    assert out.isascii()
    assert json.loads(out) == s


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=st.characters(max_codepoint=0x7f, exclude_characters=_DIFFERENT)))
def test_escape_matches_the_loop_on_ascii(s):
    assert _escape(s) == escape_by_loop(s)


_documents = st.recursive(
    st.integers() | st.booleans() | st.none() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=5), inner,
                                                                 max_size=4),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(_documents | st.lists(st.lists(st.integers(), max_size=8), max_size=4))
def test_documents_render_as_indented_json(doc):
    # lists of ints take a joined fast path; json.dumps is the independent layout
    assert to_json_bytes(doc) == (json.dumps(doc, indent=2) + "\n").encode("ascii")


@settings(max_examples=300, deadline=None)
@given(st.text() | st.text(alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7f)))
def test_escape_is_json_dumps(s):
    # the quoted fast path for printable ASCII must give json.dumps's bytes
    assert _escape(s) == json.dumps(s)
