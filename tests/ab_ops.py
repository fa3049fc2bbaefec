"""Time one benchmark op list under two checkouts in one process.

    python tests/ab_ops.py BASE [CHANGE] [--workload construct_exact ...] [--seed 2001]
                           [--blocks 10] [--rounds 7]

BASE and CHANGE are checkout directories (CHANGE defaults to this one).
Each checkout's ``src/fbasis`` is imported under its own package name, so
both run in the same interpreter, and every op runs once per round on each
side, the side that goes first alternating from op to op and from round to
round.  A swing in the host's speed then falls on both sides alike.  Each
op list is the first ``--blocks`` blocks of one workload in this
checkout's ``perfbench/workloads.py``, which is only read; ``--workload``
names one or more, and all of them by default.  Before timing, every op
must give the same exit code and report sha256 on both sides.  The script
prints, per workload and side, the sum over the ops of each op's fastest
round, and the ratio BASE / CHANGE (above 1: CHANGE is faster).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import itertools
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leaves no cache file under perfbench/
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, blocks  # noqa: E402


def load_checkout(checkout: Path, name: str):
    """``fbasis.cli`` of the checkout, imported as the package ``name``."""
    pkg = checkout / "src" / "fbasis"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(name + ".cli")


def run(cli, argv) -> tuple[int, str]:
    code, payload = cli.run_command(cli.load_config(list(argv)))
    return code, hashlib.sha256(payload).hexdigest()


def compare(sides, workload: str, seed: int, n_blocks: int, rounds: int) -> bool:
    """Time one workload's op list on both sides and print its ratio; False,
    after naming the op, if some op's exit or sha256 differs."""
    ops = [op.argv for block in itertools.islice(blocks(workload, seed), n_blocks)
           for op in block]
    for op in ops:  # also the warm-up of both sides
        base, change = (run(cli, op) for cli in sides)
        if base != change:
            print(f"{' '.join(op)}: exit and sha256 {base} -> {change}")
            return False
    best = [[float("inf")] * len(ops) for _ in sides]
    for r in range(rounds):
        for i, op in enumerate(ops):
            order = (0, 1) if (i + r) % 2 == 0 else (1, 0)
            for side in order:
                cli = sides[side]
                cfg = cli.load_config(list(op))
                start = time.perf_counter()
                cli.run_command(cfg)
                best[side][i] = min(best[side][i], time.perf_counter() - start)
    base_s, change_s = (sum(times) for times in best)
    print(f"{workload} seed {seed}: {len(ops)} ops, same exit and sha256 on both sides; "
          f"sum of per-op minima over {rounds} rounds: base {base_s:.4f} s, "
          f"change {change_s:.4f} s, ratio {base_s / change_s:.3f}")
    return True


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("change", type=Path, nargs="?", default=ROOT)
    ap.add_argument("--workload", choices=WORKLOADS, nargs="+", default=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=2001)
    ap.add_argument("--blocks", type=int, default=10)
    ap.add_argument("--rounds", type=int, default=7)
    args = ap.parse_args(argv)
    sides = [load_checkout(args.base.resolve(), "fbasis_base"),
             load_checkout(args.change.resolve(), "fbasis_change")]
    same = [compare(sides, w, args.seed, args.blocks, args.rounds) for w in args.workload]
    return 0 if all(same) else 1

if __name__ == "__main__":
    sys.exit(main())
