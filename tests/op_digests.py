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
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from fbasis.cli import load_config, run_command  # noqa: E402
from workloads import WORKLOADS, blocks  # noqa: E402


def digests(n_blocks: int, seeds) -> dict:
    out = {}
    for workload, seed in itertools.product(WORKLOADS, seeds):
        for block in itertools.islice(blocks(workload, seed), n_blocks):
            for op in block:
                code, payload = run_command(load_config(list(op.argv)))
                out[json.dumps(list(op.argv))] = [code, hashlib.sha256(payload).hexdigest()]
    return out


def differing(got: dict, parent: dict) -> list:
    return sorted(k for k in got.keys() | parent.keys() if got.get(k) != parent.get(k))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", type=Path)
    ap.add_argument("--against", type=Path)
    ap.add_argument("--blocks", type=int, default=8)
    ap.add_argument("--seeds", type=int, nargs="+", default=[7, 11])
    args = ap.parse_args(argv)
    got = digests(args.blocks, args.seeds)
    args.out.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
    print(f"{len(got)} ops -> {args.out}")
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
