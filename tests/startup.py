"""Start-up time of ``import fbasis.cli`` in fresh interpreters.

    python tests/startup.py [N]

Imports ``fbasis.cli`` from a temporary copy of this checkout's
``src/fbasis`` in N (default 10) fresh interpreters per mode and prints the
median and minimum wall time of the import, in two modes:

* no cache: the ``fbasis`` modules are compiled from source each time, and
  no bytecode is written (the standard library keeps its own caches);
* cached: their bytecode is read from the cache a first, untimed import
  wrote into the copy.

It then prints each ``fbasis`` module's self time under ``-X importtime``
(cached, median over the N runs), largest first.  The checkout's own
``__pycache__`` is neither read nor written.  No timing is asserted; it is
not part of the test suite.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
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


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    n = int(argv[0]) if argv else 10
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp)
        shutil.copytree(SRC / "fbasis", src / "fbasis",
                        ignore=shutil.ignore_patterns("__pycache__"))
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
