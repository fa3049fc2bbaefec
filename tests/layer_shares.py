"""Time the layers of one benchmark op list in process.

    python tests/layer_shares.py WORKLOAD SEED [--blocks 10] [--rounds 5]

The op list is the first ``--blocks`` blocks of WORKLOAD at SEED, from this
checkout's ``perfbench/workloads.py``, which is only read.  Every op runs
once per round through ``fbasis.cli.run_command`` on the sources in this
checkout's ``src``.  Each function named in ``LAYERS`` is wrapped, in every
``fbasis`` module that holds it, by a timer that counts its outermost calls
only, so neither a recursive call nor a call through another module's name
for the same function is counted twice.  Per op the script keeps its fastest round and
each layer's fewest seconds, as ``tests/ab_ops.py`` keeps per-op minima, so
that a slow spell of the host falls out.  It prints the sum of the ops'
fastest rounds and, per layer, the sum of its per-op minima and their share
of that sum.  Layers nest (``epsilon_table`` runs inside ``defect_report``),
so the shares do not add up to 1.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leaves no cache file under perfbench/ or src/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import WORKLOADS, blocks  # noqa: E402

LAYERS = (
    ("basis_builder", "build_basis"),
    ("basis_builder", "verify_biorthogonality"),
    ("basis_builder", "defect_report"),
    ("basis_builder", "convergence_demo"),
    ("reports", "emit_report"),
    ("filters", "epsilon_table"),
    ("sequences", "threshold_levels"),
    ("lp_operators", "_stage_norm"),
    ("lp_operators", "_closed_form_report"),
    ("lp_operators", "image_pairs"),
    ("admissibility", "check_admissible"),
)


def wrap_layers(spent: dict) -> None:
    """Replace each layer's function, wherever an ``fbasis`` module holds
    it, by one that adds its outermost calls' seconds to ``spent[name]``."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "fbasis" or name.startswith("fbasis.")]
    for module_name, name in LAYERS:
        inner = getattr(importlib.import_module("fbasis." + module_name), name)
        depth = [0]

        def timed(*args, _inner=inner, _name=name, _depth=depth, **kwargs):
            if _depth[0]:
                return _inner(*args, **kwargs)
            _depth[0] += 1
            start = time.perf_counter()
            try:
                return _inner(*args, **kwargs)
            finally:
                spent[_name] += time.perf_counter() - start
                _depth[0] -= 1

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is inner:
                    setattr(module, attr, timed)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", choices=WORKLOADS)
    ap.add_argument("seed", type=int)
    ap.add_argument("--blocks", type=int, default=10)
    ap.add_argument("--rounds", type=int, default=5)
    args = ap.parse_args(argv)
    cli = importlib.import_module("fbasis.cli")
    ops = [op.argv for block in itertools.islice(blocks(args.workload, args.seed), args.blocks)
           for op in block]
    for op in ops:  # warm-up: every module the ops reach gets imported
        cli.run_command(cli.load_config(list(op)))
    spent = dict.fromkeys((name for _, name in LAYERS), 0.0)
    wrap_layers(spent)
    best = [float("inf")] * len(ops)  # per op, its fastest round
    best_in = [dict.fromkeys(spent, float("inf")) for _ in ops]  # and each layer's
    for _ in range(args.rounds):
        for i, op in enumerate(ops):
            for name in spent:
                spent[name] = 0.0
            cfg = cli.load_config(list(op))
            start = time.perf_counter()
            cli.run_command(cfg)
            best[i] = min(best[i], time.perf_counter() - start)
            for name, s in spent.items():
                best_in[i][name] = min(best_in[i][name], s)
    total = sum(best)
    print(f"{args.workload} seed {args.seed}: {len(ops)} ops, sum of per-op minima over "
          f"{args.rounds} rounds {total:.4f} s")
    print(f"{'layer':<24} {'seconds':>9} {'share':>7}")
    for name in spent:
        s = sum(layers[name] for layers in best_in)
        print(f"{name:<24} {s:9.4f} {s / total:7.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
