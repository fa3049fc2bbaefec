"""Time one benchmark op list under two checkouts in one process.

    python tests/ab_ops.py BASE [CHANGE] [--workload construct_exact ...] [--seed 2001]
                           [--blocks 10] [--rounds 7] [--command witness]

BASE and CHANGE are checkout directories (CHANGE defaults to this one).
Each checkout's ``src/fbasis`` is imported under its own package name, so
both run in the same interpreter, and every op runs once per round on each
side, the side that goes first alternating from op to op and from round to
round.  A swing in the host's speed then falls on both sides alike.  Each
op list is the first ``--blocks`` blocks of one workload in this
checkout's ``perfbench/workloads.py``, which is only read; ``--workload``
names one or more, and all of them by default; ``--command`` keeps only
the ops of one subcommand.  Before timing, every op must give the same
exit code and report sha256 on both sides.  The script prints, per
workload and side, the sum over the ops of each op's fastest round, and
the ratio BASE / CHANGE (above 1: CHANGE is faster), then each side's
median op and the op that ``perfbench/run.py`` reports as
``latency_tail_ms`` (the slowest once the ``TAIL_BEYOND`` slowest are set
aside), both from the per-op fastest rounds.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import itertools
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leaves no cache file under perfbench/
sys.path.insert(0, str(ROOT / "perfbench"))

from run import TAIL_BEYOND  # noqa: E402
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


def compare(sides, workload: str, seed: int, n_blocks: int, rounds: int,
            command=None) -> bool:
    """Time one workload's op list (only the ops of ``command``, if given) on
    both sides and print its ratio; False, after naming the op, if some op's
    exit or sha256 differs."""
    ops = [op.argv for block in itertools.islice(blocks(workload, seed), n_blocks)
           for op in block if command in (None, op.argv[0])]
    if not ops:
        print(f"{workload} seed {seed}: no {command} op in {n_blocks} blocks")
        return True
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
    for name, times in zip(("base", "change"), best):
        lat = sorted(times)
        tail = (f"{1e3 * lat[len(lat) - TAIL_BEYOND - 1]:.3f} ms" if len(lat) > TAIL_BEYOND
                else "- (too few ops)")
        print(f"  {name}: p50 {1e3 * statistics.median(lat):.3f} ms, tail {tail}")
    return True


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("change", type=Path, nargs="?", default=ROOT)
    ap.add_argument("--workload", choices=WORKLOADS, nargs="+", default=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=2001)
    ap.add_argument("--blocks", type=int, default=10)
    ap.add_argument("--rounds", type=int, default=7)
    ap.add_argument("--command", help="time only the ops of this subcommand")
    args = ap.parse_args(argv)
    sides = [load_checkout(args.base.resolve(), "fbasis_base"),
             load_checkout(args.change.resolve(), "fbasis_change")]
    same = [compare(sides, w, args.seed, args.blocks, args.rounds, args.command)
            for w in args.workload]
    return 0 if all(same) else 1

if __name__ == "__main__":
    sys.exit(main())
