"""The README's grammar and its Python examples are checked against the
code: the words of each mini-language are those of the parser's tables and
of the ``parsing`` docstring, and each Python block prints what its
comments say."""

import contextlib
import io
import json
import re
from pathlib import Path

from fbasis import parsing
from fbasis.cli import EXIT_INCONCLUSIVE, load_config, run_command

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

# a form's word: lower case, at the start of the form, before its bracket
_WORD = re.compile(r"(?:^|\s)([a-z]+)(?=[({\[]|\s|$)")

TABLES = {"sets": parsing._SETS, "sequences": parsing._SEQS,
          "filters": parsing._FILTERS, "vectors": parsing._VECTORS}


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)


def _words(body: str) -> list[str]:
    return list(dict.fromkeys(_WORD.findall(body)))


def readme_words() -> dict:
    """Language -> its words, from the block under "Mini-languages"; a line
    that starts with spaces continues the language above it."""
    block = re.search(r"### Mini-languages\n\n```\n(.*?)```", README, re.S).group(1)
    bodies = {}
    for line in block.splitlines():
        if not line.startswith(" "):
            language, _, line = line.partition(":")
        bodies[language] = bodies.get(language, "") + " " + line
    return {language: _words(body) for language, body in bodies.items()}


def docstring_words() -> dict:
    """Language -> its words, from the grammar in ``parsing``'s docstring."""
    rules = {}
    for line in parsing.__doc__.splitlines():
        head, sep, body = line.partition(":=")
        if sep:
            name = head.strip()
        elif line.strip().startswith("|"):
            body = line
        else:
            continue
        rules[name] = rules.get(name, "") + " " + body.replace("|", " ")
    names = {"sets": "ATOM", "sequences": "SEQ", "filters": "FILTER", "vectors": "VECTOR"}
    return {language: _words(rules[name]) for language, name in names.items()}


def test_one_written_grammar():
    readme, docstring = readme_words(), docstring_words()
    for language, table in TABLES.items():
        assert readme[language] == list(table) == docstring[language], language
    assert readme["combined"] == []


def test_python_blocks_print_what_their_comments_say():
    blocks = python_blocks()
    assert blocks
    for block in blocks:
        want = [line.partition("# ")[2] for line in block.splitlines()
                if line.startswith("print(")]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, "README.md", "exec"), {})
        assert out.getvalue().splitlines() == want


def test_an_inconclusive_demo_exits_2_as_documented():
    """README's "Command line" names exit 2 for a ``demo-convergence`` whose
    verdict is inconclusive, and such a demo exits 2."""
    argv = ["demo-convergence", "--seq", "const(2)", "--space", "l1", "--filter", "frechet",
            "--vector", "spike(residue(1009,0)&residue(1013,0);const(1))"]
    code, payload = run_command(load_config(argv))
    assert json.loads(payload)["verdict"]["kind"] == "inconclusive"
    assert code == EXIT_INCONCLUSIVE == 2
    section = " ".join(README.partition("## Command line")[2].partition("```")[0].split())
    assert ("`demo-convergence` exits `0` when its verdict (in the report) is `converges` "
            "or `does-not-converge`, and `2` when it is `inconclusive`.") in section
