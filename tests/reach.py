"""List every function in ``src/fbasis`` that no command-line path enters.

    python tests/reach.py

A ``sys.setprofile`` hook records each code object entered while this
script imports ``fbasis`` and runs, in process:

* every op pinned in ``tests/test_report_bytes.py``;
* the first 8 blocks of each benchmark workload (``perfbench/workloads.py``)
  at seeds 7 and 11;
* 600 ops of ``tests/fuzz_grammar.py`` (200 at each of seeds 1, 2, 3)
  and 200 of its vector ops (``vector_argv``, seed 1) through
  ``fbasis.cli.main``, each cut after 5 s;
* one ``check-admissible --band`` op, two ``classify-set`` ops (density
  bounds over a sampled part, a sum over a shifted geometric set), one
  ``build-basis`` op whose spike verdict asks for the under-sets (a
  two-piece target has no limsup bound, and the spike's support is not
  Frechet-negligible), one ``profile-lemma1`` op that sums a convergent
  weight over a greedy set, one op read from a ``--config`` file, and
  ``--help``;
* the five scripts in ``demos/`` and the Python blocks of ``README.md``.

It then prints each function defined in ``src/fbasis`` that none of these
entered, as ``module.qualname (file:line)``, marking an abstract hook (a
body that only raises ``NotImplementedError``), a method of the same name
as such a hook (a protocol method) and a function whose ``def`` line says
``# pragma: no cover - REASON``, with its reason.  An unmarked function on
that list is reached from the tests alone, or from inputs these paths do
not draw; the script exits 1 while one remains.  Takes under a minute; it
is not part of the test suite.
"""

from __future__ import annotations

import ast
import contextlib
import io
import itertools
import os
import random
import runpy
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fbasis"

entered = set()


def _hook(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.setprofile(_hook)  # before the first fbasis import: module bodies count
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

from fbasis.cli import load_config, main, run_command  # noqa: E402

import fuzz_grammar  # noqa: E402
import test_readme  # noqa: E402
import test_report_bytes as pins  # noqa: E402
from workloads import WORKLOADS, blocks  # noqa: E402


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


@contextlib.contextmanager
def _quiet():
    out = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        yield


def _cli(argv, seconds=None):
    with _quiet():
        if seconds:
            signal.alarm(seconds)
        try:
            main(list(argv))
        except (_Timeout, SystemExit):
            pass
        finally:
            signal.alarm(0)


def run_everything() -> None:
    signal.signal(signal.SIGALRM, _alarm)
    pinned = (pins.README + pins.CONSTRUCT + pins.NOT_ADMISSIBLE + pins.DEMO
              + [pins.FINITE_SUM, pins.RANGE_SUM] + pins.GREEDY)
    for argv, _, _ in pinned:
        run_command(load_config(list(argv)))
    for workload, seed in itertools.product(WORKLOADS, (7, 11)):
        for block in itertools.islice(blocks(workload, seed), 8):
            for op in block:
                run_command(load_config(list(op.argv)))
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        for _ in range(200):
            _cli(fuzz_grammar.argv(rng.choice), seconds=5)
    rng = random.Random(1)
    for _ in range(200):
        _cli(fuzz_grammar.vector_argv(rng.choice), seconds=5)
    _cli(["check-admissible", "--seq", "pow(1,1/2)", "--filter", "statistical",
          "--p", "3/2", "--band"])
    _cli(["classify-set", "--set", "residue(2,0)|sampled{1,4,9;20}", "--filter", "statistical"])
    _cli(["classify-set", "--set", "shift(geom(2),1)", "--filter", "summable(pow(1,-1/2))"])
    _cli(["build-basis", "--seq", "piece{residue(2,0)=>const(2);residue(2,1)=>const(3)}",
          "--space", "l1", "--filter", "frechet", "--n-max", "8"])
    _cli(["profile-lemma1", "--seq", "pow(1,1/2)", "--grid", "10,100",
          "--vectors", "spike(greedy(pow(1,5); pow(100,-2); 1); pow(100,-2))"])
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "query.cfg"
        cfg.write_text("set = residue(2,0)\nfilter = statistical\n", encoding="ascii")
        _cli(["classify-set", "--config", str(cfg)])
    _cli(["--help"])
    for demo in sorted((ROOT / "demos").glob("*.py")):
        with _quiet():
            runpy.run_path(str(demo), run_name="__main__")
    for block in test_readme.python_blocks():
        with _quiet():
            exec(compile(block, "README.md", "exec"), {})


def _marks(tree: ast.Module, lines: list[str]) -> dict:
    """(first line, name) -> mark, for abstract hooks and no-cover functions."""
    marks = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = node.body
        if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            body = body[1:]
        first = node.decorator_list[0].lineno if node.decorator_list else node.lineno
        if (len(body) == 1 and isinstance(body[0], ast.Raise)
                and "NotImplementedError" in ast.unparse(body[0])):
            marks[first, node.name] = "abstract"
        elif "pragma: no cover" in lines[node.lineno - 1]:
            reason = lines[node.lineno - 1].split("pragma: no cover", 1)[1].strip(" -")
            marks[first, node.name] = f"no cover: {reason}" if reason else "no cover"
    return marks


def _functions(code):
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            if not const.co_name.startswith("<"):
                yield const
            yield from _functions(const)


def unreached() -> list[tuple[str, str]]:
    """(where, mark) for each function never entered; a method named as an
    abstract hook of the package is marked as a protocol method."""
    seen = {(os.path.realpath(c.co_filename), c.co_firstlineno, c.co_qualname) for c in entered}
    sources = {path: path.read_text() for path in sorted(SRC.glob("*.py"))}
    marks = {path: _marks(ast.parse(source), source.splitlines())
             for path, source in sources.items()}
    hooks = {name for m in marks.values() for (_, name), mark in m.items() if mark == "abstract"}
    out = []
    for path, source in sources.items():
        real = os.path.realpath(path)
        for code in _functions(compile(source, str(path), "exec")):
            if (real, code.co_firstlineno, code.co_qualname) in seen:
                continue
            mark = marks[path].get((code.co_firstlineno, code.co_name), "")
            if not mark and "." in code.co_qualname and code.co_name in hooks:
                mark = "protocol"
            where = f"{path.stem}.{code.co_qualname} ({path.name}:{code.co_firstlineno})"
            out.append((where, mark))
    return out


if __name__ == "__main__":
    run_everything()
    sys.setprofile(None)
    missed = unreached()
    for where, mark in missed:
        print(where + (f"  [{mark}]" if mark else ""))
    plain = sum(1 for _, mark in missed if not mark)
    print(f"{len(missed)} functions never entered, {plain} of them unmarked")
    raise SystemExit(1 if plain else 0)
