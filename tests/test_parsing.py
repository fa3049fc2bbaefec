"""The table-driven parser reads every text as the hand-written parser it
replaced (``parse_oracle``) did: an equal object, or an error of the same
type with the same message, offset and expected tokens.

The one intended difference is in the vector language: a vector whose
construction fails (``powtail(-1)``, ``e(0)``) is a parse error, where the
old parser let the constructor's ``ValueError`` out."""

import random

from hypothesis import given, settings, strategies as st

from fbasis import parsing

import fuzz_grammar
import parse_oracle

_PARSERS = {
    "set": "parse_set_expr",
    "seq": "parse_scalar_seq",
    "filter": "parse_filter",
    "vector": "parse_test_vector",
    "vectors": "parse_test_vectors",
}

_VECTOR_ERRORS = ("a power tail needs a positive decay exponent",
                  "a basis vector index must be >= 1")

# a construction error of each form that has one: a parse error at byte 0
CONSTRUCTION_ERRORS = [
    ("set", "residue(0,0)"), ("set", "range(5,2)"), ("set", "range(0,)"), ("set", "geom(1)"),
    ("set", "sampled{5;3}"), ("set", "finite{3,1}"), ("set", "cofinite{2,2}"),
    ("set", "thresh(const(2); 1)"), ("set", "greedy(pow(1,1); pow(1,-1); 1)"),
    ("seq", "piece{residue(2,0) => const(1); residue(3,0) => const(2)}"),
    ("seq", "piece{residue(2,0) => const(1)}"), ("seq", "pow(-1,1)"), ("seq", "const(0)"),
    ("seq", "prefix[0]:const(1)"),
    ("filter", "summable(pow(1,-2))"), ("filter", "trace(frechet; finite{1})"),
    ("vector", "powtail(-1)"), ("vector", "e(0)"), ("vectors", "powtail(-1,2)"),
]


def nested(depth: int) -> list:
    """Texts nested ``depth`` levels deep in each language; spike's set and
    sequence are read at the vector's own depth."""
    return [
        ("set", "!" * depth + "residue(2,0)"),
        ("set", "(" * depth + "residue(2,0)" + ")" * depth),
        ("set", "shift(" * depth + "geom(2)" + ",1)" * depth),
        ("seq", "prefix[2]:" * depth + "pow(1,1)"),
        ("filter", "trace(" * depth + "statistical" + "; residue(2,0))" * depth),
        ("vector", "spike(" + "!" * depth + "residue(2,0); const(1))"),
        ("vector", "spike(residue(2,0); " + "prefix[2]:" * depth + "const(1))"),
        ("vectors", "e(1); spike(" + "(" * depth + "geom(2)" + ")" * depth + "; const(1))"),
    ]


def _read(module, language: str, text: str):
    """("ok", object) or ("error", (type name, message, offset, expected))."""
    try:
        return "ok", getattr(module, _PARSERS[language])(text)
    except Exception as exc:  # every exception is part of the behaviour compared
        return "error", (type(exc).__name__, str(exc), getattr(exc, "offset", None),
                         getattr(exc, "expected", None))


def check_same(language: str, text: str) -> None:
    new = _read(parsing, language, text)
    old = _read(parse_oracle, language, text)
    if old[0] == "error" and old[1][0] == "ValueError" and old[1][1] in _VECTOR_ERRORS:
        assert new[0] == "error" and new[1][0] == "ParseError", (text, new)
    else:
        assert new == old, text


def test_nesting_limit_in_every_language():
    limit = parsing._MAX_DEPTH
    for (language, text), (_, deeper) in zip(nested(limit), nested(limit + 1)):
        assert _read(parsing, language, text)[0] == "ok", text
        kind, (_, message, _, _) = _read(parsing, language, deeper)
        assert kind == "error" and "nested more than 100 levels deep" in message


def test_construction_errors_are_parse_errors_at_the_word():
    for language, text in CONSTRUCTION_ERRORS:
        kind, (name, message, offset, expected) = _read(parsing, language, text)
        assert (kind, name, offset, expected) == ("error", "ParseError", 0, ()), (text, message)
    kind, (name, message, offset, _) = _read(parsing, "vectors", "e(1); e(0)")
    assert (name, offset) == ("ParseError", 6) and message.endswith("must be >= 1")


def test_edge_texts_read_as_before():
    limit = parsing._MAX_DEPTH
    for language, text in CONSTRUCTION_ERRORS + nested(limit) + nested(limit + 1):
        check_same(language, text)


def _vector_text(pick) -> str:
    kind = pick(("e", "powtail", "spike"))
    if kind == "e":
        return f"e({pick(('-1', '0', '1', '3', '1/2'))})"
    if kind == "powtail":
        beta = pick(fuzz_grammar.EXPONENTS)
        return pick((f"powtail({beta})", f"powtail({beta},{pick(fuzz_grammar.COEFFICIENTS)})"))
    return f"spike({fuzz_grammar.natset(pick, 1)}; {fuzz_grammar.seq(pick, 1)})"


# what an insertion puts in: tokens, words, numbers and junk
_FRAGMENTS = ("(", ")", "{", "}", "[", "]", ";", ",", ":", "=>", "=", ">", "!", "&", "|",
              "/", ".", "-", "+", " ", "0", "7", "1/0", "1e5", "x", "e", "pow", "range",
              "residue(2,0)", "const(1)", "frechet", "é")


@st.composite
def _texts(draw):
    rng = random.Random(draw(st.integers(0, 2 ** 32)))

    def pick(options):
        # both parsers build a greedy set in full: draw one in about ten texts
        if "greedy" in options and rng.random() < 0.9:
            options = tuple(o for o in options if o != "greedy")
        return rng.choice(options)

    language = rng.choice(tuple(_PARSERS))
    if language == "set":
        text = fuzz_grammar.natset(pick)
    elif language == "seq":
        text = fuzz_grammar.seq(pick)
    elif language == "filter":
        text = fuzz_grammar.filt(pick)
    else:
        count = 1 if language == "vector" else rng.randint(1, 3)
        text = "; ".join(_vector_text(pick) for _ in range(count))
    for _ in range(rng.randint(0, 3)):
        i = rng.randint(0, len(text))
        kind = rng.choice(("delete", "insert", "truncate"))
        if kind == "delete":
            text = text[:i] + text[i + rng.randint(1, 4):]
        elif kind == "insert":
            text = text[:i] + rng.choice(_FRAGMENTS) + text[i:]
        else:
            text = text[:i]
    return language, text


@settings(max_examples=600, derandomize=True, deadline=None, database=None)
@given(_texts())
def test_mutated_texts_read_as_before(case):
    check_same(*case)
