"""Random command lines over the documented grammar (``fuzz_grammar``),
the vector commands' included, answer with an exit code of the contract,
a JSON report and nothing on stderr: exit 70 is a bug, whatever the input."""

import contextlib
import io
import json
import warnings

from hypothesis import given, settings, strategies as st

from fbasis.cli import load_config, run_command

import fuzz_grammar


@st.composite
def command_lines(draw, lines=fuzz_grammar.argv):
    return lines(lambda options: draw(st.sampled_from(options)))


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(command_lines())
def test_commands_answer_within_their_contract(argv):
    _assert_within_contract(argv)


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(command_lines(fuzz_grammar.vector_argv))
def test_vector_commands_answer_within_their_contract(argv):
    _assert_within_contract(argv)


def _assert_within_contract(argv):
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code, payload = run_command(load_config(argv))
    assert code in fuzz_grammar.EXIT_CODES, payload
    json.loads(payload)
    assert err.getvalue() == "" and not caught, [str(w.message) for w in caught]
