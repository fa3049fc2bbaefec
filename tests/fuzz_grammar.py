"""Random command lines over the documented mini-languages, for fuzzing.

``argv(pick)`` draws one ``check-admissible``, ``classify-set``,
``witness``, ``separate`` or ``dominates`` command line, and
``vector_argv(pick)`` one ``profile-lemma1`` or ``demo-convergence``
command line, whose vectors are ``e(k)``, ``powtail(...)`` and
``spike(SET; SEQ)`` over the grammar's sets, and ``period_argv(pick)`` one
``classify-set``, ``check-admissible`` or ``dominates`` command line whose
sets and ``trace(...; SET)`` index sets are residues with moduli up to
10**6, under complements, shifts, unions and intersections.
``build_argv(pick)`` draws one ``build-basis`` or ``demo-convergence``
command line in ``l1``, ``l2``, ``lp(3/2)`` or ``lp(4)``, its target given
by ``--seq`` or ``--a-squared``, with ``--n-max`` log-uniform in
[2, 10**4], where exact builds meet the float range and the interpreter's
digit limit.
``pick(options)`` returns one of the options: ``random.Random(seed).choice``
for a plain run, or a hypothesis ``sampled_from`` draw.  Coefficients
reach 10**400 and 10**-400, exponents +-400, and sets, sequences and
filters nest through ``prefix``, ``piece``, ``greedy``, ``thresh``,
``shift``, ``summable`` and ``trace``.

    python tests/fuzz_grammar.py OPS SEED...
    python tests/fuzz_grammar.py --vectors OPS SEED...
    python tests/fuzz_grammar.py --periods OPS SEED...
    python tests/fuzz_grammar.py --builds OPS SEED...

runs OPS command lines per seed in this process, drawn by ``argv`` (by
``vector_argv`` with ``--vectors``, by ``period_argv`` with ``--periods``,
by ``build_argv`` with ``--builds``),
each under a 5 s alarm, and prints the count of each exit code, every
exit 70 and every timeout.  It also prints the total time, the p50/p90/p99
latency, the process's peak RSS (``ru_maxrss``, in MB), the ten slowest
ops, and one sha256 over every (argv, exit, report) triple: two checkouts
that print the same digest for the same OPS and SEEDs printed the same
bytes for every op.
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


# up to the period cap of the set analysis (10**6), primes and powers of 2 among them
MODULI = (2, 3, 5, 12, 997, 999, 1000, 1024, 9973, 65536, 99991, 500000, 999983, 999999, 10 ** 6)


def period_set(pick, depth: int = 2) -> str:
    """A set over residues with large moduli.  Where two moduli have an lcm
    past the period cap (10**6), the set's questions are undecided, which
    must never show as an internal error."""
    kinds = ("residue",) + (("not", "shift", "or", "and", "geom", "finite") if depth else ())
    kind = pick(kinds)
    if kind == "residue":
        q = pick(MODULI)
        return f"residue({q},{pick(range(q))})"
    if kind == "geom":
        return f"geom({pick(('2', '3'))})"
    if kind == "finite":
        return f"finite{{{pick(range(1, 10))},{pick(range(10, 20))}}}"
    if kind == "not":
        return f"!{period_set(pick, depth - 1)}"
    if kind == "shift":
        return f"shift({period_set(pick, depth - 1)},{pick((-7, 1, 12, 999999))})"
    op = "|" if kind == "or" else "&"
    return f"({period_set(pick, depth - 1)}{op}{period_set(pick, depth - 1)})"


def period_filter(pick) -> str:
    base = pick(("frechet", "statistical", "summable(pow(1,-1))", "summable(pow(1,-1/2))"))
    return pick((base, f"trace({base}; {period_set(pick, 1)})"))


def period_argv(pick) -> list[str]:
    command = pick(("classify-set", "check-admissible", "dominates"))
    if command == "classify-set":
        return [command, "--set", period_set(pick), "--filter", period_filter(pick)]
    if command == "check-admissible":
        return [command, "--seq", seq(pick, 1), "--filter", period_filter(pick),
                "--p", pick(P_VALUES)]
    return [command, "--filter", period_filter(pick), "--filter2", period_filter(pick)]


SPACES = ("l1", "l2", "lp(3/2)", "lp(4)")


def build_argv(pick) -> list[str]:
    command = pick(("build-basis", "demo-convergence"))
    n_max = round(2 * 5000 ** (pick(range(1001)) / 1000))  # 2 .. 10**4, log-uniform
    line = [command, pick(("--seq", "--a-squared")), seq(pick), "--space", pick(SPACES),
            "--filter", filt(pick), "--n-max", str(n_max)]
    return line + ["--vector", vector(pick)] if command == "demo-convergence" else line


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

    class Timeout(BaseException):  # not an Exception: run_command would report it as exit 70
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


def main(args=None) -> int:
    import argparse

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    kinds = ap.add_mutually_exclusive_group()
    for flag, draw in (("--vectors", vector_argv), ("--periods", period_argv),
                       ("--builds", build_argv)):
        kinds.add_argument(flag, dest="draw", action="store_const", const=draw,
                           help=f"draw the command lines by {draw.__name__}")
    ap.add_argument("ops", type=int, metavar="OPS", help="command lines per seed")
    ap.add_argument("seeds", type=int, nargs="+", metavar="SEED")
    ap.set_defaults(draw=argv)
    args = ap.parse_args(args)
    return _run(args.ops, args.seeds, args.draw)


if __name__ == "__main__":
    raise SystemExit(main())
