"""Time the layers of one benchmark op list in process.

    python tests/layer_shares.py WORKLOAD SEED [--blocks 10] [--rounds 5] [--against BASE]

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

With ``--against BASE``, the checkout BASE is imported into the same
process under its own package name (``ab_ops.load_checkout``), and every op
runs once per round on each side, the side that goes first alternating from
op to op and from round to round, so that a swing in the host's speed falls
on both sides alike.  The table then gives each layer's seconds on BASE and
on this checkout, and their ratio (above 1: this checkout is faster).  A
layer that BASE does not have reads as 0 there.
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
    ("basis_builder", "_classify_defects"),
    ("basis_builder", "convergence_demo"),
    ("reports", "emit_report"),
    ("filters", "epsilon_table"),
    ("sequences", "threshold_levels"),
    ("sequences", "seq_mul"),
    ("lp_operators", "_stage_bounds"),
    ("lp_operators", "_closed_form_report"),
    ("lp_operators", "image_pairs"),
    ("admissibility", "check_admissible"),
    ("admissibility", "_library_sweep"),
    ("admissibility", "nonadmissibility_witness"),
    ("admissibility", "summable_criterion"),
    ("filters", "classify_set"),
    ("series", "weight_prefix_upper"),
    ("sequences", "to_float"),
    ("parsing", "_parse"),
)


def wrap_layers(spent: dict, package: str = "fbasis") -> None:
    """Replace each layer's function, wherever a module of ``package`` holds
    it, by one that adds its outermost calls' seconds to ``spent[name]``."""
    modules = [m for name, m in list(sys.modules.items())
               if name == package or name.startswith(package + ".")]
    for module_name, name in LAYERS:
        inner = getattr(importlib.import_module(f"{package}.{module_name}"), name, None)
        if inner is None:
            continue
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
    ap.add_argument("--against", type=Path, help="a checkout to time alongside this one")
    args = ap.parse_args(argv)
    sides = [("fbasis", importlib.import_module("fbasis.cli"))]
    if args.against:
        from ab_ops import load_checkout

        sides.insert(0, ("fbasis_base", load_checkout(args.against.resolve(), "fbasis_base")))
    ops = [op.argv for block in itertools.islice(blocks(args.workload, args.seed), args.blocks)
           for op in block]
    for op in ops:  # warm-up: every module the ops reach gets imported
        for _, cli in sides:
            cli.run_command(cli.load_config(list(op)))
    spents = []
    for package, _ in sides:
        spents.append(dict.fromkeys((name for _, name in LAYERS), 0.0))
        wrap_layers(spents[-1], package)
    # per side and op, its fastest round and each layer's fewest seconds
    best = [[float("inf")] * len(ops) for _ in sides]
    best_in = [[dict.fromkeys(spent, float("inf")) for _ in ops] for spent in spents]
    for r in range(args.rounds):
        for i, op in enumerate(ops):
            order = range(len(sides)) if (i + r) % 2 == 0 else reversed(range(len(sides)))
            for side in order:
                cli, spent = sides[side][1], spents[side]
                for name in spent:
                    spent[name] = 0.0
                cfg = cli.load_config(list(op))
                start = time.perf_counter()
                cli.run_command(cfg)
                best[side][i] = min(best[side][i], time.perf_counter() - start)
                for name, s in spent.items():
                    best_in[side][i][name] = min(best_in[side][i][name], s)
    totals = [sum(times) for times in best]
    layers = [{name: sum(per_op[name] for per_op in side) for name in spents[0]}
              for side in best_in]
    head = f"{args.workload} seed {args.seed}: {len(ops)} ops, sum of per-op minima over " \
           f"{args.rounds} rounds"
    if not args.against:
        print(f"{head} {totals[0]:.4f} s")
        print(f"{'layer':<24} {'seconds':>9} {'share':>7}")
        for name, s in layers[0].items():
            print(f"{name:<24} {s:9.4f} {s / totals[0]:7.1%}")
        return 0
    print(f"{head}: base {totals[0]:.4f} s, change {totals[1]:.4f} s, "
          f"ratio {totals[0] / totals[1]:.3f}")
    print(f"{'layer':<24} {'base s':>9} {'change s':>9} {'ratio':>7}")
    for name in layers[0]:
        base, change = layers[0][name], layers[1][name]
        ratio = f"{base / change:7.3f}" if change else f"{'-':>7}"
        print(f"{name:<24} {base:9.4f} {change:9.4f} {ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
