"""Exit code and sha256 of the report of every benchmark op in the first
blocks of each workload, to show that two checkouts print the same bytes.

    python tests/op_digests.py OUT.json
    python tests/op_digests.py OUT.json --against PARENT.json

The first form writes ``{argv: [exit, sha256]}`` (argv as a JSON list) for
the first ``--blocks`` blocks (default 8) of every workload in
``perfbench/workloads.py`` at each of ``--seeds`` (default 7 and 11).  Ops
run in this process through ``fbasis.cli.run_command`` on the sources in
this checkout's ``src``.  With ``--against`` it also lists every op whose
(exit, sha256) differs from PARENT.json, or that only one file holds, and
exits 1 if there is any.  To compare with another commit, copy this file
into that checkout's ``tests/`` and run it there for PARENT.json.

    python tests/op_digests.py OUT.json --bounds BASE

imports the checkout BASE into the same process (``ab_ops.load_checkout``)
and runs on both sides every benchmark op and every op whose bytes
``tests/test_report_bytes.py`` pins; OUT.json holds the digests of both
kinds.  An op whose exit and sha256 differ must have the same exit, and
both JSON reports must be equal but for float entries of ``stage_norms``
(those with no exact value) that moved outward: ``lower`` went down,
``upper`` went up, the method stayed, and the new ``value`` lies inside
the old interval and the new one (or, where the old value had been raised
to its lower bound, at most 4 ulps below it).  It prints, per subcommand
and space, how many ops differ, names every op whose reports differ
otherwise, and exits 1 if there is one.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import itertools
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import fbasis.cli  # noqa: E402
from workloads import WORKLOADS, blocks  # noqa: E402


def benchmark_ops(n_blocks: int, seeds) -> list:
    """The distinct argv lists of the first ``n_blocks`` blocks of every
    workload at each seed, in order."""
    ops = (tuple(op.argv) for workload, seed in itertools.product(WORKLOADS, seeds)
           for block in itertools.islice(blocks(workload, seed), n_blocks) for op in block)
    return [list(argv) for argv in dict.fromkeys(ops)]


def digests(n_blocks: int, seeds) -> dict:
    out = {}
    for argv in benchmark_ops(n_blocks, seeds):
        code, payload = fbasis.cli.run_command(fbasis.cli.load_config(argv))
        out[json.dumps(argv)] = [code, hashlib.sha256(payload).hexdigest()]
    return out


def differing(got: dict, parent: dict) -> list:
    return sorted(k for k in got.keys() | parent.keys() if got.get(k) != parent.get(k))


def _moved_outward(old: dict, new: dict) -> bool:
    """A float stage-norm entry whose bounds moved outward around its value.
    The new value lies in the old interval too, unless the old value had
    been raised to the old lower bound: then it may lie below it by at
    most 4 ulps."""
    if ({"exact", "exact_square"} & (old.keys() | new.keys()) or old.keys() != new.keys()
            or old["method"] != new["method"]):
        return False
    value, lifted = new["value"], old["value"] == old["lower"]
    return (new["lower"] <= old["lower"] and new["upper"] >= old["upper"]
            and new["lower"] <= value <= new["upper"] and value <= old["upper"]
            and (old["lower"] <= value
                 or lifted and old["value"] - value <= 4 * math.ulp(old["value"])))


def outward_only(old: dict, new: dict) -> bool:
    """Two reports equal but for float ``stage_norms`` entries moved outward."""
    if old.keys() != new.keys() or any(old[k] != new[k] for k in old.keys() - {"stage_norms"}):
        return False
    norms = old.get("stage_norms", []), new.get("stage_norms", [])
    return len(norms[0]) == len(norms[1]) and all(
        a == b or _moved_outward(a, b) for a, b in zip(*norms))


def bounds(base: Path, n_blocks: int, seeds) -> tuple[dict, int]:
    """(digests, violations) of this checkout against BASE, each benchmark
    and pinned op run on both sides; prints each op whose reports differ
    otherwise than by float stage bounds moved outward, and a count per
    subcommand and space."""
    import ab_ops  # sets sys.dont_write_bytecode, so only this mode loads it
    import test_report_bytes

    base_cli = ab_ops.load_checkout(base.resolve(), "fbasis_base")
    ops = benchmark_ops(n_blocks, seeds)
    ops += [argv for argv, _, _ in test_report_bytes.PINNED if argv not in ops]
    out, kinds, violations = {}, collections.Counter(), 0
    for argv in ops:
        (code, payload), (base_code, base_payload) = (
            cli.run_command(cli.load_config(argv)) for cli in (fbasis.cli, base_cli))
        out[json.dumps(argv)] = [code, hashlib.sha256(payload).hexdigest()]
        kind = argv[0] + (" " + argv[argv.index("--space") + 1] if "--space" in argv else "")
        kinds[kind, "ops"] += 1
        if (code, payload) == (base_code, base_payload):
            continue
        kinds[kind, "differ"] += 1
        try:
            outward = code == base_code and outward_only(json.loads(base_payload),
                                                         json.loads(payload))
        except ValueError:  # a CSV report: every difference counts
            outward = False
        if not outward:
            violations += 1
            print(f"{json.dumps(argv)}: differs otherwise than by float stage bounds moved "
                  "outward")
    for kind in sorted({k for k, _ in kinds}):
        print(f"{kind}: {kinds[kind, 'differ']} of {kinds[kind, 'ops']} ops differ")
    print(f"{sum(kinds[k] for k in kinds if k[1] == 'differ')} of {len(out)} ops differ, "
          f"{violations} otherwise than by float stage bounds moved outward")
    return out, violations


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", type=Path)
    ap.add_argument("--against", type=Path)
    ap.add_argument("--bounds", type=Path, metavar="BASE")
    ap.add_argument("--blocks", type=int, default=8)
    ap.add_argument("--seeds", type=int, nargs="+", default=[7, 11])
    args = ap.parse_args(argv)
    if args.bounds is not None:
        got, violations = bounds(args.bounds, args.blocks, args.seeds)
    else:
        got, violations = digests(args.blocks, args.seeds), 0
    args.out.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
    print(f"{len(got)} ops -> {args.out}")
    if violations:
        return 1
    if args.against is None:
        return 0
    parent = json.loads(args.against.read_text())
    diff = differing(got, parent)
    for key in diff:
        print(f"{key}: {parent.get(key)} -> {got.get(key)}")
    print(f"{len(diff)} of {len(got.keys() | parent.keys())} ops differ")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
