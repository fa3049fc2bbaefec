"""Random command lines over the documented mini-languages, for fuzzing.

``argv(pick)`` draws one ``check-admissible``, ``classify-set``,
``witness``, ``separate`` or ``dominates`` command line, and
``vector_argv(pick)`` one ``profile-lemma1`` or ``demo-convergence``
command line, whose vectors are ``e(k)``, ``powtail(...)`` and
``spike(SET; SEQ)`` over the grammar's sets.  ``pick(options)`` returns one
of the options: ``random.Random(seed).choice`` for a plain run, or a
hypothesis ``sampled_from`` draw.  Coefficients reach 10**400 and
10**-400, exponents +-400, and sets, sequences and filters nest through
``prefix``, ``piece``, ``greedy``, ``thresh``, ``shift``, ``summable`` and
``trace``.

    python tests/fuzz_grammar.py OPS SEED...
    python tests/fuzz_grammar.py --vectors OPS SEED...

runs OPS command lines per seed in this process, drawn by ``argv`` (by
``vector_argv`` with ``--vectors``), each under a 5 s alarm, and prints
the count of each exit code, every exit 70 and every timeout.  It also
prints the total time, the p50/p90/p99 latency, the process's
peak RSS (``ru_maxrss``, in MB), the ten slowest ops, and one
sha256 over every (argv, exit, report) triple: two checkouts that print
the same digest for the same OPS and SEEDs printed the same bytes for
every op.
"""

from __future__ import annotations

from fractions import Fraction

_HUGE = "1" + "0" * 400
_TINY = "0." + "0" * 399 + "1"
COEFFICIENTS = ("1", "2", "1/2", "100", "1/100", _HUGE, _TINY)
EXPONENTS = ("0", "1", "-1", "1/2", "-1/2", "2", "-2", "3/4", "-3/4", "5/4", "-5/4",
             "1/3", "-1/3", "1/1000", "-1/1000", "3", "-3", "60", "400", "-400")
DECAYS = tuple(e for e in EXPONENTS if Fraction(e) > 0)
PREFIX_VALUES = ("1/2", "5", "2", "3/4", _HUGE, _TINY)
P_VALUES = ("1", "3/2", "2")
EXIT_CODES = (0, 1, 2, 64, 65)  # every verdict and input error; 70 is a bug


def seq(pick, depth: int = 2) -> str:
    kinds = ("pow", "powlog", "const") + (("prefix", "piece") if depth else ())
    kind = pick(kinds)
    if kind == "pow":
        return f"pow({pick(COEFFICIENTS)},{pick(EXPONENTS)})"
    if kind == "powlog":
        return f"powlog({pick(COEFFICIENTS)},{pick(EXPONENTS)},{pick(EXPONENTS)})"
    if kind == "const":
        return f"const({pick(COEFFICIENTS)})"
    if kind == "prefix":
        values = ",".join(pick(PREFIX_VALUES) for _ in range(pick((1, 2, 3))))
        return f"prefix[{values}]:{seq(pick, depth - 1)}"
    return f"piece{{residue(2,0) => {seq(pick, depth - 1)}; residue(2,1) => {seq(pick, depth - 1)}}}"


def natset(pick, depth: int = 2) -> str:
    kinds = ("finite", "cofinite", "residue", "range", "geom", "sampled")
    if depth:
        kinds += ("shift", "greedy", "thresh", "not", "or", "and")
    kind = pick(kinds)
    small = range(1, 20)
    if kind == "finite":
        return f"finite{{{pick(small)},{pick(small)}}}"
    if kind == "cofinite":
        return f"cofinite{{{pick(small)}}}"
    if kind == "residue":
        q = pick((2, 3, 5))
        return f"residue({q},{pick(range(q))})"
    if kind == "range":
        lo = pick(small)
        return pick((f"range({lo},)", f"range({lo},{lo + pick(small)})"))
    if kind == "geom":
        return f"geom({pick(('2', '3', '3/2'))})"
    if kind == "sampled":
        return "sampled{1,4,9;20}"
    if kind == "shift":
        return f"shift({natset(pick, depth - 1)},{pick((-2, 1, 3))})"
    if kind == "greedy":
        return f"greedy({seq(pick, depth - 1)}; {seq(pick, depth - 1)}; {pick(P_VALUES)})"
    if kind == "thresh":
        return f"thresh({seq(pick, depth - 1)}; {pick(P_VALUES)})"
    if kind == "not":
        return f"!{natset(pick, depth - 1)}"
    op = "|" if kind == "or" else "&"
    return f"({natset(pick, depth - 1)}{op}{natset(pick, depth - 1)})"


def filt(pick, depth: int = 2) -> str:
    kind = pick(("frechet", "statistical", "summable") + (("trace",) if depth else ()))
    if kind == "summable":
        return f"summable({seq(pick, depth - 1)})"
    if kind == "trace":
        return f"trace({filt(pick, depth - 1)}; {natset(pick, depth - 1)})"
    return kind


def argv(pick) -> list[str]:
    command = pick(("check-admissible", "classify-set", "witness", "separate", "dominates"))
    if command == "check-admissible":
        return [command, "--seq", seq(pick), "--filter", filt(pick), "--p", pick(P_VALUES)]
    if command == "classify-set":
        return [command, "--set", natset(pick), "--filter", filt(pick)]
    if command == "witness":
        return [command, "--seq", seq(pick), "--weights", seq(pick), "--p", pick(P_VALUES)]
    if command == "separate":
        return [command, "--seq", seq(pick), "--dual", pick(("linf", "l2")), "--margin", "1/10"]
    return [command, "--filter", filt(pick), "--filter2", filt(pick)]


def vector(pick) -> str:
    kind = pick(("e", "powtail", "spike"))
    if kind == "e":
        return f"e({pick((1, 2, 5, 17))})"
    if kind == "powtail":
        return pick((f"powtail({pick(DECAYS)})", f"powtail({pick(DECAYS)},{pick(COEFFICIENTS)})"))
    return f"spike({natset(pick)}; {seq(pick)})"


def vector_argv(pick) -> list[str]:
    """A vector command line; its grids reach the greedy and threshold
    horizons (10**6 and past), and ``--n-max`` stays at most 30."""
    if pick(("profile-lemma1", "demo-convergence")) == "profile-lemma1":
        vectors = "; ".join(vector(pick) for _ in range(pick((1, 2))))
        grid = pick(("10,100", "10,1000", "10,20,200000", "10,200000", "10,2000000"))
        return ["profile-lemma1", "--seq", seq(pick), "--vectors", vectors, "--grid", grid]
    return ["demo-convergence", "--seq", seq(pick), "--space", pick(("l1", "l2", "lp(3/2)")),
            "--filter", filt(pick), "--n-max", str(pick((2, 5, 12, 30))), "--vector", vector(pick)]


def shown(line: list[str]) -> str:
    """The command line with 10**+-400 abbreviated."""
    return " ".join(repr(a) for a in line).replace(_HUGE, "1e400").replace(_TINY, "1e-400")


def _run(ops: int, seeds, draw=argv) -> int:
    import collections
    import contextlib
    import hashlib
    import io
    import json
    import random
    import resource
    import signal
    import statistics
    import sys
    import time
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from fbasis.cli import load_config, run_command

    class Timeout(Exception):
        pass

    def alarm(signum, frame):
        raise Timeout

    signal.signal(signal.SIGALRM, alarm)
    codes = collections.Counter()
    digest = hashlib.sha256()
    timed = []  # (seconds, argv)
    for seed in seeds:
        rng = random.Random(seed)
        for _ in range(ops):
            line = draw(rng.choice)
            err = io.StringIO()
            payload = b""
            start = time.perf_counter()
            signal.alarm(5)
            try:
                with contextlib.redirect_stderr(err):
                    code, payload = run_command(load_config(line))
            except Timeout:
                code = "timeout"
            finally:
                signal.alarm(0)
            elapsed = time.perf_counter() - start
            timed.append((elapsed, line))
            digest.update(json.dumps([line, code, hashlib.sha256(payload).hexdigest()]).encode())
            if code in EXIT_CODES and err.getvalue():
                code = "stderr"
            codes[code] += 1
            if code not in EXIT_CODES:
                last = err.getvalue().strip().splitlines()[-1:] or [""]
                print(f"{code} {elapsed:.2f}s {shown(line)} {last[0]}")
    print(dict(codes))
    times = [t for t, _ in timed]
    cuts = statistics.quantiles(times, n=100, method="inclusive")
    print(f"total {sum(times):.1f} s over {len(times)} ops; p50 {1e3 * cuts[49]:.2f} ms, "
          f"p90 {1e3 * cuts[89]:.1f} ms, p99 {1e3 * cuts[98]:.0f} ms; "
          f"{sum(t > 0.1 for t in times)} over 100 ms, {sum(t > 1.0 for t in times)} over 1 s; "
          f"peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f} MB")
    for t, line in sorted(timed, key=lambda x: -x[0])[:10]:
        print(f"{t:.2f}s {shown(line)}")
    print(f"sha256 {digest.hexdigest()}")
    return 0 if set(codes) <= set(EXIT_CODES) else 1


if __name__ == "__main__":
    import sys

    args = sys.argv[1:]
    draw = vector_argv if args[:1] == ["--vectors"] else argv
    args = args[1:] if draw is vector_argv else args
    raise SystemExit(_run(int(args[0]), [int(s) for s in args[1:]], draw))
