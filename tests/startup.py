"""Start-up time of ``import fbasis.cli`` in fresh interpreters, and of
the README's commands against a second checkout.

    python tests/startup.py [N]
    python tests/startup.py --against BASE [N]

Imports ``fbasis.cli`` from a temporary copy of this checkout's
``src/fbasis`` in N (default 10) fresh interpreters per mode and prints the
median and minimum wall time of the import, in two modes:

* no cache: the ``fbasis`` modules are compiled from source each time, and
  no bytecode is written (the standard library keeps its own caches);
* cached: their bytecode is read from the cache a first, untimed import
  wrote into the copy.

It then prints each ``fbasis`` module's self time under ``-X importtime``
(cached, median over the N runs), largest first.

With ``--against BASE``, a checkout directory, it instead runs each
``fbasis ...`` example of README.md's shell blocks as its own process,
``python -m fbasis.cli ARGV``, from temporary copies of both checkouts'
``src/fbasis``, N times per side and mode (no cache, then cached); the
two sides alternate within each run, the side that goes first alternating
from run to run.  It prints, per example and mode, the median wall time of
each side and the ratio BASE / CHANGE (above 1: this checkout is faster),
and names any example whose exit code or stdout differs between the sides.

The checkouts' own ``__pycache__`` is neither read nor written.  No timing
is asserted; it is not part of the test suite.
"""

from __future__ import annotations

import argparse
import os
import re
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TIMER = ("import time; t0 = time.perf_counter(); import fbasis.cli; "
         "print(repr(time.perf_counter() - t0))")


def _env(src: Path, write: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if not write:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _run(env: dict, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120, check=True)


def _self_times(stderr: str) -> dict:
    """{module: self microseconds} of the fbasis modules in -X importtime output."""
    out = {}
    for line in stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip().startswith("fbasis"):
            out[fields[2].strip()] = int(fields[0].rsplit(":", 1)[1])
    return out


def _print_times(mode: str, env: dict, n: int) -> None:
    ms = [1000 * float(_run(env, "-c", TIMER).stdout) for _ in range(n)]
    print(f"import fbasis.cli, {mode:8}: median {statistics.median(ms):6.1f} ms, "
          f"min {min(ms):6.1f} ms over {n} fresh interpreters")


def _copy(src: Path, into: Path) -> Path:
    """``src/fbasis`` copied into ``into``, without its bytecode cache."""
    shutil.copytree(src / "fbasis", into / "fbasis", ignore=shutil.ignore_patterns("__pycache__"))
    return into


def readme_examples() -> list[tuple[str, list[str]]]:
    """(label, argv) of each ``fbasis ...`` line of README.md's shell blocks;
    a subcommand that appears more than once is labelled with its --space."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line)
            if argv[:1] == ["fbasis"]:
                examples.append(argv[1:])
    commands = [argv[0] for argv in examples]
    labels = [argv[0] if commands.count(argv[0]) == 1
              else f"{argv[0]} {argv[argv.index('--space') + 1]}" for argv in examples]
    return list(zip(labels, examples))


def _timed(env: dict, argv: list[str]) -> tuple[float, tuple[int, bytes]]:
    """Wall seconds of ``python -m fbasis.cli ARGV``, and its exit code and stdout."""
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "fbasis.cli", *argv], env=env,
                         capture_output=True, timeout=120)
    return time.perf_counter() - start, (out.returncode, out.stdout)


def against(base: Path, n: int) -> int:
    print(f"README examples, one process each, median ms over {n} interleaved runs per side")
    print(f"  {'example':<18} {'mode':<9} {'base':>7} {'change':>7} {'ratio':>6}")
    with tempfile.TemporaryDirectory() as tmp:
        srcs = [_copy(base / "src", Path(tmp, "base")), _copy(SRC, Path(tmp, "change"))]
        for mode, write in (("no cache", False), ("cached", True)):
            envs = [_env(src, write) for src in srcs]
            for label, argv in readme_examples():
                outputs = [_timed(env, argv)[1] for env in envs]  # writes the cache, if cached
                if outputs[0] != outputs[1]:
                    print(f"  {label}: exit code or stdout differs between the sides")
                times = ([], [])
                for run in range(n):
                    for side in ((0, 1) if run % 2 == 0 else (1, 0)):
                        times[side].append(1000 * _timed(envs[side], argv)[0])
                medians = [statistics.median(t) for t in times]
                print(f"  {label:<18} {mode:<9} {medians[0]:7.1f} {medians[1]:7.1f} "
                      f"{medians[0] / medians[1]:6.3f}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", type=Path, metavar="BASE",
                    help="time README.md's examples against the checkout BASE")
    ap.add_argument("n", type=int, nargs="?", default=10, help="runs per mode (default 10)")
    args = ap.parse_args(argv)
    if args.against is not None:
        return against(args.against.resolve(), args.n)
    n = args.n
    with tempfile.TemporaryDirectory() as tmp:
        src = _copy(SRC, Path(tmp))
        _print_times("no cache", _env(src, write=False), n)
        warm = _env(src, write=True)
        _run(warm, "-c", "import fbasis.cli")  # writes the cache
        _print_times("cached", warm, n)
        runs = [_self_times(_run(warm, "-X", "importtime", "-c", "import fbasis.cli").stderr)
                for _ in range(n)]
    print("self time under -X importtime, cached (median us):")
    medians = {m: statistics.median(r.get(m, 0) for r in runs) for m in runs[0]}
    for module, us in sorted(medians.items(), key=lambda kv: -kv[1]):
        print(f"  {us:8.0f}  {module}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
