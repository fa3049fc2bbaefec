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
exact rationals.  Errors carry the byte offset and the expected tokens.
"""

from __future__ import annotations

from fractions import Fraction

from .natset import (
    CoFinite,
    Complement,
    Finite,
    GeometricIndex,
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
from .vectors import BasisVector, PowerTail, Spike, TestVector


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
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

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
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
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
        if self.take("/"):
            den_start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if self.pos == den_start:
                raise ParseError("expected a denominator", den_start, ("digits",))
            return Fraction(head) / Fraction(self.text[den_start : self.pos])
        try:
            return Fraction(head)
        except ValueError as exc:
            raise ParseError(str(exc), start, ("number",)) from None

    def integer(self) -> int:
        v = self.number()
        if v.denominator != 1:
            raise ParseError("expected an integer", self.pos, ("integer",))
        return int(v)

    def int_list(self, closer: str) -> tuple[int, ...]:
        out = []
        self.skip_ws()
        if self.peek() == closer:
            return tuple(out)
        out.append(self.integer())
        while self.take(","):
            out.append(self.integer())
        return tuple(out)

    def done(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


# ---------------------------------------------------------------------------
# sets

_SET_ATOMS = ("finite", "cofinite", "residue", "range", "geom", "sampled", "shift",
              "greedy", "thresh")


def parse_set_expr(text: str) -> SetExpr:
    cur = _Cursor(text)
    out = _set_union(cur)
    if not cur.done():
        raise ParseError("trailing input", cur.pos, ("end of input",))
    return out


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
    return _set_atom(cur)


def _set_atom(cur: _Cursor) -> SetExpr:
    at = cur.pos
    word = cur.word()
    try:
        if word == "finite":
            cur.expect("{")
            vals = cur.int_list("}")
            cur.expect("}")
            return Finite(vals)
        if word == "cofinite":
            cur.expect("{")
            vals = cur.int_list("}")
            cur.expect("}")
            return CoFinite(vals)
        if word == "residue":
            cur.expect("(")
            q = cur.integer()
            cur.expect(",")
            r = cur.integer()
            cur.expect(")")
            return Residue(q, r)
        if word == "range":
            cur.expect("(")
            lo = cur.integer()
            cur.expect(",")
            cur.skip_ws()
            if cur.take(")"):
                return Range(lo, None)
            hi = cur.integer()
            cur.expect(")")
            return Range(lo, hi)
        if word == "geom":
            cur.expect("(")
            b = cur.number()
            cur.expect(")")
            return GeometricIndex(b)
        if word == "sampled":
            cur.expect("{")
            vals = cur.int_list(";")
            cur.expect(";")
            horizon = cur.integer()
            cur.expect("}")
            return Sampled(frozenset(vals), horizon)
        if word == "shift":
            cur.expect("(")
            base = cur.nested(_set_union)
            cur.expect(",")
            off = cur.integer()
            cur.expect(")")
            return Shifted(base, off)
        if word == "greedy":
            from .natset import HorizonExceeded
            from .witnesses import GreedyBlockSet

            cur.expect("(")
            target = cur.nested(_seq)
            cur.expect(";")
            weights = cur.nested(_seq)
            cur.expect(";")
            p = cur.number()
            cur.expect(")")
            try:
                return GreedyBlockSet(target, weights, p)
            except HorizonExceeded as exc:
                raise ParseError(str(exc), at) from None
        if word == "thresh":
            from .witnesses import CriterionHolds, SparseThresholdSet

            cur.expect("(")
            target = cur.nested(_seq)
            cur.expect(";")
            p = cur.number()
            cur.expect(")")
            try:
                return SparseThresholdSet(target, p)
            except CriterionHolds as exc:
                raise ParseError(str(exc), at) from None
    except SetConstructionError as exc:
        raise ParseError(str(exc), at) from None
    raise ParseError(f"unknown set atom {word!r}", at, _SET_ATOMS)


# ---------------------------------------------------------------------------
# sequences

_SEQ_ATOMS = ("pow", "powlog", "const", "prefix", "piece")


def parse_scalar_seq(text: str) -> ScalarSeq:
    cur = _Cursor(text)
    out = _seq(cur)
    if not cur.done():
        raise ParseError("trailing input", cur.pos, ("end of input",))
    return out


def _seq(cur: _Cursor) -> ScalarSeq:
    at = cur.pos
    word = cur.word()
    try:
        if word == "pow":
            cur.expect("(")
            c = cur.number()
            cur.expect(",")
            beta = cur.number()
            cur.expect(")")
            return PowerLog(c, beta)
        if word == "powlog":
            cur.expect("(")
            c = cur.number()
            cur.expect(",")
            beta = cur.number()
            cur.expect(",")
            gamma = cur.number()
            cur.expect(")")
            return PowerLog(c, beta, gamma)
        if word == "const":
            cur.expect("(")
            c = cur.number()
            cur.expect(")")
            return Constant(c)
        if word == "prefix":
            cur.expect("[")
            vals = []
            cur.skip_ws()
            if cur.peek() != "]":
                vals.append(cur.number())
                while cur.take(","):
                    vals.append(cur.number())
            cur.expect("]")
            cur.expect(":")
            tail = cur.nested(_seq)
            return ExplicitPrefix(tuple(vals), tail)
        if word == "piece":
            cur.expect("{")
            pieces = []
            while True:
                s = cur.nested(_set_union)
                cur.expect("=>")
                q = cur.nested(_seq)
                pieces.append((s, q))
                if not cur.take(";"):
                    break
            cur.expect("}")
            return Piecewise(tuple(pieces))
    except SeqConstructionError as exc:
        raise ParseError(str(exc), at) from None
    raise ParseError(f"unknown sequence form {word!r}", at, _SEQ_ATOMS)


# ---------------------------------------------------------------------------
# filters

_FILTER_ATOMS = ("frechet", "statistical", "summable", "trace")


def parse_filter(text: str) -> FilterSpec:
    cur = _Cursor(text)
    out = _filter(cur)
    if not cur.done():
        raise ParseError("trailing input", cur.pos, ("end of input",))
    return out


def _filter(cur: _Cursor) -> FilterSpec:
    at = cur.pos
    word = cur.word()
    if word == "frechet":
        return Frechet()
    if word == "statistical":
        return Statistical()
    if word == "summable":
        cur.expect("(")
        weights = cur.nested(_seq)
        cur.expect(")")
        try:
            return Summable(weights)
        except ValueError as exc:
            raise ParseError(str(exc), at) from None
    if word == "trace":
        cur.expect("(")
        base = cur.nested(_filter)
        cur.expect(";")
        index_set = cur.nested(_set_union)
        cur.expect(")")
        try:
            return Trace(base, index_set)
        except ValueError as exc:
            raise ParseError(str(exc), at) from None
    raise ParseError(f"unknown filter {word!r}", at, _FILTER_ATOMS)


# ---------------------------------------------------------------------------
# test vectors

_VECTOR_ATOMS = ("e", "powtail", "spike")


def parse_test_vector(text: str) -> TestVector:
    cur = _Cursor(text)
    out = _vector(cur)
    if not cur.done():
        raise ParseError("trailing input", cur.pos, ("end of input",))
    return out


def parse_test_vectors(text: str) -> list[TestVector]:
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


def _vector(cur: _Cursor) -> TestVector:
    at = cur.pos
    word = cur.word()
    out = None
    if word == "e":
        cur.expect("(")
        k = cur.integer()
        cur.expect(")")
        out = BasisVector(k)
    elif word == "powtail":
        cur.expect("(")
        beta = cur.number()
        if cur.take(","):
            scale = cur.number()
            out = PowerTail(beta, scale)
        else:
            out = PowerTail(beta)
        cur.expect(")")
    elif word == "spike":
        cur.expect("(")
        support = _set_union(cur)
        cur.expect(";")
        amp = _seq(cur)
        cur.expect(")")
        out = Spike(support, amp)
    if out is None:
        raise ParseError(f"unknown vector form {word!r}", at, _VECTOR_ATOMS)
    return out
