"""Recursive-descent parsers for the set, sequence, filter and vector
mini-languages.

Grammar (ASCII, whitespace-insensitive):

    SET    := INTER ("|" INTER)*
    INTER  := UNARY ("&" UNARY)*
    UNARY  := "!" UNARY | "(" SET ")" | ATOM
    ATOM   := finite{N,...} | cofinite{N,...} | residue(Q,R)
            | range(LO,HI) | range(LO,) | geom(B)
            | sampled{N,...;HORIZON} | shift(SET,K)
            | greedy(SEQ; SEQ; NUM) | thresh(SEQ; NUM)
    SEQ    := pow(C,BETA) | powlog(C,BETA,GAMMA) | const(C)
            | prefix[V,...]:SEQ | piece{SET => SEQ; ...}
    FILTER := frechet | statistical | summable(SEQ) | trace(FILTER; SET)
    VECTOR := e(K) | powtail(BETA[,SCALE]) | spike(SET; SEQ)

Numbers are integers, ratios N/D, or decimal literals; all are read as
exact rationals.  Each language is one table from a form's word to its
constructor and the steps that read the rest of the form, and ``_form``
reads every form of every language.  Errors carry the byte offset and
the expected tokens.
"""

from __future__ import annotations

import re
from fractions import Fraction

from ._lazy_numpy import _lazy
from .natset import (
    CoFinite,
    Complement,
    CriterionHolds,
    Finite,
    GeometricIndex,
    HorizonExceeded,
    Intersection,
    Range,
    Residue,
    Sampled,
    SetConstructionError,
    SetExpr,
    Shifted,
    Union,
)
from .filters import FilterSpec, Frechet, Statistical, Summable, Trace
from .sequences import (
    Constant,
    ExplicitPrefix,
    Piecewise,
    PowerLog,
    ScalarSeq,
    SeqConstructionError,
)

# only the greedy, thresh and vector forms build their objects
vectors = _lazy(__package__ + ".vectors")
witnesses = _lazy(__package__ + ".witnesses")


class ParseError(ValueError):
    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        detail = f"at byte {offset}: {message}"
        if expected:
            detail += " (expected " + " or ".join(expected) + ")"
        super().__init__(detail)
        self.offset = offset
        self.expected = expected


# Deepest nesting the parsers accept.  Each level costs up to four Python
# frames, so the limit stays well inside the interpreter's recursion limit.
_MAX_DEPTH = 100


def _ratio(text: str) -> tuple[int, int]:
    """Fraction(text) as a pair of ints (numerator, denominator > 0), not
    necessarily coprime; a literal [+-]digits[.digits] is read as Python
    ints, and any other text raises as Fraction(text) does."""
    sign = text[:1] if text[:1] in ("+", "-") else ""
    whole, _, frac = text[len(sign):].partition(".")
    if text.isascii() and (whole + frac).isdigit() and "." not in frac:
        return int(sign + whole + frac), 10 ** len(frac)
    x = Fraction(text)
    return x.numerator, x.denominator


# what skip_ws and word pass over: \s matches exactly the characters for
# which str.isspace holds, \w exactly those where isalnum() or "_" does
_SPACE = re.compile(r"\s*")
_WORD = re.compile(r"\w*")


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def nested(self, parse):
        """``parse(self)`` one nesting level down.  An exception ends the
        whole parse, so the depth needs no restoring on the way out."""
        if self.depth >= _MAX_DEPTH:
            raise ParseError(f"nested more than {_MAX_DEPTH} levels deep", self.pos)
        self.depth += 1
        out = parse(self)
        self.depth -= 1
        return out

    def skip_ws(self) -> None:
        self.pos = _SPACE.match(self.text, self.pos).end()

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, token: str) -> bool:
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def expect(self, token: str) -> None:
        if not self.take(token):
            raise ParseError(f"missing {token!r}", self.pos, (token,))

    def word(self) -> str:
        self.skip_ws()
        start = self.pos
        self.pos = _WORD.match(self.text, start).end()
        return self.text[start : self.pos]

    def number(self) -> Fraction:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        digits = 0
        while self.pos < len(self.text) and (
            self.text[self.pos].isdigit() or self.text[self.pos] == "."
        ):
            digits += 1
            self.pos += 1
        if digits == 0:
            raise ParseError("expected a number", start, ("number",))
        head = self.text[start : self.pos]
        den_start = None
        if self.take("/"):
            den_start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if self.pos == den_start:
                raise ParseError("expected a denominator", den_start, ("digits",))
        try:
            num, den = _ratio(head)
        except ValueError as exc:
            raise ParseError(str(exc), start, ("number",)) from None
        if den_start is None:
            return Fraction(num, den)
        try:
            k = _ratio(self.text[den_start : self.pos])[0]  # digits alone: an integer
        except ValueError as exc:
            raise ParseError(str(exc), den_start, ("digits",)) from None
        if not k:
            raise ParseError("zero denominator", den_start, ("a nonzero denominator",))
        return Fraction(num, den * k)

    def integer(self) -> int:
        v = self.number()
        if v.denominator != 1:
            raise ParseError("expected an integer", self.pos, ("integer",))
        return int(v)

    def done(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def _parse(text: str, reader):
    cur = _Cursor(text)
    out = reader(cur)
    if not cur.done():
        raise ParseError("trailing input", cur.pos, ("end of input",))
    return out


def parse_set_expr(text: str) -> SetExpr:
    return _parse(text, _set_union)


def parse_scalar_seq(text: str) -> ScalarSeq:
    return _parse(text, _seq)


def parse_filter(text: str) -> FilterSpec:
    return _parse(text, _filter)


def parse_test_vector(text: str) -> vectors.TestVector:
    return _parse(text, _vector)


def parse_test_vectors(text: str) -> list[vectors.TestVector]:
    """Test vectors separated by ``;``, empty entries skipped.  A ``;``
    inside ``spike(SET; SEQ)`` belongs to its vector."""
    cur = _Cursor(text)
    out = []
    while not cur.done():
        if cur.take(";"):
            continue
        out.append(_vector(cur))
        if not cur.done():
            cur.expect(";")
    return out


def _form(cur: _Cursor, table: dict, what: str, errors):
    """One form of a language: its word, then the steps its table entry
    lists after the constructor.  A string step is a token to expect; any
    other step reads one argument of the constructor.  A construction
    error in ``errors`` is a parse error at the word."""
    at = cur.pos
    word = cur.word()
    if word not in table:
        raise ParseError(f"unknown {what} {word!r}", at, tuple(table))
    make, *steps = table[word]
    args = []
    for step in steps:
        if isinstance(step, str):
            cur.expect(step)
        else:
            args.append(step(cur))
    try:
        return make(*args)
    except errors as exc:
        raise ParseError(str(exc), at) from None


# ---------------------------------------------------------------------------
# the languages

def _set_union(cur: _Cursor) -> SetExpr:
    parts = [_set_inter(cur)]
    while cur.take("|"):
        parts.append(_set_inter(cur))
    return parts[0] if len(parts) == 1 else Union(tuple(parts))


def _set_inter(cur: _Cursor) -> SetExpr:
    parts = [_set_unary(cur)]
    while cur.take("&"):
        parts.append(_set_unary(cur))
    return parts[0] if len(parts) == 1 else Intersection(tuple(parts))


def _set_unary(cur: _Cursor) -> SetExpr:
    if cur.take("!"):
        return Complement(cur.nested(_set_unary))
    if cur.take("("):
        inner = cur.nested(_set_union)
        cur.expect(")")
        return inner
    return _form(cur, _SETS, "set atom", (SetConstructionError, HorizonExceeded, CriterionHolds))


def _seq(cur: _Cursor) -> ScalarSeq:
    return _form(cur, _SEQS, "sequence form", SeqConstructionError)


def _filter(cur: _Cursor) -> FilterSpec:
    return _form(cur, _FILTERS, "filter", ValueError)


def _vector(cur: _Cursor) -> vectors.TestVector:
    return _form(cur, _VECTORS, "vector form", ValueError)


# readers: each reads one constructor argument

_int = _Cursor.integer
_num = _Cursor.number


def _list(read, closer: str):
    """Items read by ``read``, separated by ``,``, up to ``closer`` (left
    for the next step), as a tuple; none when ``closer`` comes first."""
    def reader(cur: _Cursor) -> tuple:
        if cur.peek() == closer:
            return ()
        out = [read(cur)]
        while cur.take(","):
            out.append(read(cur))
        return tuple(out)
    return reader


def _nest(parse):
    return lambda cur: cur.nested(parse)


def _range_hi(cur: _Cursor):
    """``range``'s upper bound and its ``)``; None for ``range(LO,)``."""
    if cur.take(")"):
        return None
    hi = cur.integer()
    cur.expect(")")
    return hi


def _pieces(cur: _Cursor) -> tuple:
    """``piece``'s ``SET => SEQ`` pairs, separated by ``;``."""
    pairs = []
    while not pairs or cur.take(";"):
        s = cur.nested(_set_union)
        cur.expect("=>")
        pairs.append((s, cur.nested(_seq)))
    return tuple(pairs)


def _scale(cur: _Cursor) -> Fraction:
    """``powtail``'s optional ``,SCALE``; 1 without it."""
    return cur.number() if cur.take(",") else Fraction(1)


_SETS = {
    "finite": (Finite, "{", _list(_int, "}"), "}"),
    "cofinite": (CoFinite, "{", _list(_int, "}"), "}"),
    "residue": (Residue, "(", _int, ",", _int, ")"),
    "range": (Range, "(", _int, ",", _range_hi),
    "geom": (GeometricIndex, "(", _num, ")"),
    "sampled": (lambda members, horizon: Sampled(frozenset(members), horizon),
                "{", _list(_int, ";"), ";", _int, "}"),
    "shift": (Shifted, "(", _nest(_set_union), ",", _int, ")"),
    "greedy": (lambda *args: witnesses.GreedyBlockSet(*args),
               "(", _nest(_seq), ";", _nest(_seq), ";", _num, ")"),
    "thresh": (lambda *args: witnesses.SparseThresholdSet(*args),
               "(", _nest(_seq), ";", _num, ")"),
}

_SEQS = {
    "pow": (PowerLog, "(", _num, ",", _num, ")"),
    "powlog": (PowerLog, "(", _num, ",", _num, ",", _num, ")"),
    "const": (Constant, "(", _num, ")"),
    "prefix": (ExplicitPrefix, "[", _list(_num, "]"), "]", ":", _nest(_seq)),
    "piece": (Piecewise, "{", _pieces, "}"),
}

_FILTERS = {
    "frechet": (Frechet,),
    "statistical": (Statistical,),
    "summable": (Summable, "(", _nest(_seq), ")"),
    "trace": (Trace, "(", _nest(_filter), ";", _nest(_set_union), ")"),
}

# spike's set and sequence are read at the vector's own depth
_VECTORS = {
    "e": (lambda *args: vectors.BasisVector(*args), "(", _int, ")"),
    "powtail": (lambda *args: vectors.PowerTail(*args), "(", _num, _scale, ")"),
    "spike": (lambda *args: vectors.Spike(*args), "(", _set_union, ";", _seq, ")"),
}
