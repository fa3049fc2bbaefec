"""JSON string escaping in ``reports`` against the loop it replaced, and
whole documents against the encoder before its row templates."""

import json
import math
from fractions import Fraction

import numpy as np

from hypothesis import given, settings, strategies as st

from fbasis.reports import _escape, _text, to_json_bytes

import report_oracle
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


_KEYS = ("value", "method", "lower", "upper", "exact", "exact_square", "é", "ключ",
         'q"uote', "back\\slash", "tab\tkey", "")
_scalars = (st.none() | st.booleans() | st.integers(-10 ** 30, 10 ** 30)
            | st.floats(allow_nan=True, allow_infinity=True)
            | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])
            | st.floats(allow_nan=True, allow_infinity=True).map(np.float64)
            | st.fractions() | st.text(max_size=6))


@st.composite
def _rows(draw, values):
    """A list of dicts over a few key orders, so that rows share their keys
    or differ in them; some rows are stage rows, whose bounds are the very
    float object of their value, as an attained norm's are.  Some rows are
    listed again, as the same object or as an equal but distinct copy."""
    orders = draw(st.lists(st.lists(st.sampled_from(_KEYS) | st.text(max_size=3), unique=True,
                                    max_size=5), min_size=1, max_size=3))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            v = draw(st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([-0.0, 0.0]))
            rows.append({"value": v, "method": "ClosedFormL2", "lower": v, "upper": v,
                         "exact_square": draw(st.fractions())})
        else:
            rows.append({k: draw(values) for k in draw(st.sampled_from(orders))})
    for _ in range(draw(st.integers(0, 4)) if rows else 0):
        row = draw(st.sampled_from(rows))
        rows.insert(draw(st.integers(0, len(rows))), row if draw(st.booleans()) else dict(row))
    return rows


_nested = st.recursive(
    _scalars,
    lambda inner: (st.lists(inner, max_size=5) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=4), inner,
                                     max_size=4)
                   | _rows(inner)),
    max_leaves=30,
)


@settings(max_examples=120, deadline=None)
@given(_nested)
def test_documents_render_as_before_the_row_templates(doc):
    """Nested documents, with lists of rows that share and differ in their
    keys, give the bytes of the old encoder in ``report_oracle``."""
    assert to_json_bytes(doc) == (report_oracle._text(doc, "") + "\n").encode("ascii")


def test_a_repeated_value_object_is_formatted_once_per_row(monkeypatch):
    """A row whose bounds are its value formats that float once; a list of
    such rows escapes each key once."""
    from fbasis import reports

    calls = []
    for name, wrapped in (("_float_text", reports._float_text), ("_escape", reports._escape)):
        def counted(x, name=name, wrapped=wrapped):
            calls.append(name)
            return wrapped(x)
        monkeypatch.setattr(reports, name, counted)
    monkeypatch.setitem(reports._SCALAR_TEXT, float, reports._float_text)
    monkeypatch.setitem(reports._SCALAR_TEXT, str, reports._escape)
    rows = []
    for i in range(10):
        v = 1.0 + i / 3
        rows.append({"value": v, "method": "ColumnMax", "lower": v, "upper": v,
                     "exact": Fraction(i + 4, 3)})
    got = reports.to_json_bytes({"stage_norms": rows})
    assert got == (report_oracle._text({"stage_norms": rows}, "") + "\n").encode("ascii")
    assert calls.count("_float_text") == 10
    # 1 document key, 5 row keys once, and each row's method string
    assert calls.count("_escape") == 1 + 5 + 10


def test_a_row_listed_many_times_is_formatted_once(monkeypatch):
    """A stage row that 50 stages share formats its float once, and an equal
    row that is another object is formatted on its own."""
    from fbasis import reports

    calls, float_text = [], reports._float_text

    def counted(x):
        calls.append(x)
        return float_text(x)

    monkeypatch.setitem(reports._SCALAR_TEXT, float, counted)
    v = 1.5
    row = {"value": v, "method": "ColumnMax", "lower": v, "upper": v, "exact": Fraction(3, 2)}
    doc = {"stage_norms": [row] * 50}
    got = reports.to_json_bytes(doc)
    assert got == (report_oracle._text(doc, "") + "\n").encode("ascii")
    assert len(calls) == 1
    doc["stage_norms"].append(dict(row))
    calls.clear()
    assert reports.to_json_bytes(doc) == (report_oracle._text(doc, "") + "\n").encode("ascii")
    assert len(calls) == 2


def test_a_number_listed_many_times_is_formatted_once(monkeypatch):
    """A Fraction or float object that a list holds 50 times, as a defect
    shared by the stages of one ratio is, is formatted once; the bytes are
    those of the same list with every element a distinct copy, which is
    formatted element by element."""
    from fbasis import reports

    calls = []

    def counted(text):
        def inner(x):
            calls.append(x)
            return text(x)
        return inner

    monkeypatch.setattr(reports, "rational_text", counted(reports.rational_text))
    monkeypatch.setitem(reports._SCALAR_TEXT, float, counted(reports._float_text))
    for x, copy in ((Fraction(-7, 3), lambda x: Fraction(x.numerator, x.denominator)),
                    (2.5, lambda x: float(repr(x))), (-0.0, lambda x: float(repr(x))),
                    (math.nan, lambda x: float(repr(x)))):
        doc = {"values": [x] * 50 + [copy(x)]}
        copies = {"values": [copy(x) for _ in range(51)]}
        assert len({id(v) for v in copies["values"]}) == 51
        calls.clear()
        got = reports.to_json_bytes(doc)
        assert len(calls) == 2
        calls.clear()
        assert got == reports.to_json_bytes(copies)
        assert len(calls) == 51
        assert got == (report_oracle._text(doc, "") + "\n").encode("ascii")


_EDGES = (0, 1, 9, 10, 11, 99, 100, 101, 999_999, 10 ** 6, 2 ** 31, 10 ** 18 - 1, 10 ** 18)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.one_of(st.sampled_from(_EDGES), st.integers(0, 10 ** 18)),
                       max_size=200),
       pad=st.sampled_from(("", "  ", "    ", "      ")))
def test_an_index_array_renders_as_the_list_of_its_ints(values, pad):
    """An ascending int64 array of non-negative integers, as the witness
    blocks are, prints the bytes of the list of the same ints, whatever the
    digit counts and the indent: empty, one element, 9/10 and 99/100, and
    on either side of the 64 elements from which the arrays are rendered
    as bytes."""
    values.sort()
    array = np.array(values, dtype=np.int64)
    assert _text(array, pad) == _text(values, pad)
    assert _text([array, array[:1]], pad) == _text([values, values[:1]], pad)
