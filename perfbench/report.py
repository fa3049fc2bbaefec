"""Run every workload on one seed and write one BENCH file.

    python3 perfbench/report.py --seed 1

For each workload this runs `run.py` twice from the checkout root, once
untraced (end-to-end metrics, also in raw wall-clock time) and once traced
(per-layer metrics), then writes
`perfbench/results/BENCH_<git sha>_seed<seed>.json` with the environment,
every metric with its unit, the generation facts and every failed op, and
prints each metric by name.  Exit status 1 when any op failed, a
known-defect input still fails, or a run did not finish.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, environment, result_path  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_one(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, check=True, timeout=600,
    )
    return json.loads(result_path(workload, seed, trace).read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    root = HERE.parent
    env = environment(root)
    seconds = BENCHMARK["run_seconds"]
    bench = {"environment": env, "seed": args.seed, "seconds": seconds, "workloads": {}}
    failed = 0
    for workload in WORKLOADS:
        plain = run_one(root, workload, args.seed, seconds, 0)
        traced = run_one(root, workload, args.seed, seconds, 1)
        e2e = dict(plain["metrics"], **plain["end_to_end_extra"])
        wall = {k: {"value": v, "unit": END_TO_END[k]} for k, v in plain["wall_clock"].items()}
        bench["workloads"][workload] = {
            "end_to_end": e2e,
            "wall_clock": wall,
            "host_speed": plain["host_speed"],
            "blocks": plain["blocks"],
            "latency_tail_percentile": plain.get("latency_tail_percentile"),
            "per_layer": traced["metrics"],
            "facts": plain["facts"],
            "absent": traced["absent"],
            "failures": plain["failures"] + [f for f in traced["failures"]
                                             if not f.get("known_defect")],
            "known_defects": plain["known_defects"],
        }
        failed += plain["failed"] + traced["failed"]
        defects = sum(d["outcome"] != "ok" for d in plain["known_defects"])
        for kind, metrics in (("end_to_end", e2e), ("wall_clock", wall),
                              ("per_layer", traced["metrics"])):
            for name, m in metrics.items():
                print(f"{workload:16s} {kind:10s} {name:52s} {m['value']:>14.6g} {m['unit']}")
    out = HERE / "results" / f"BENCH_{env['git_sha'][:12]}_seed{args.seed}.json"
    out.write_text(json.dumps(bench, indent=2) + "\n")
    print(f"wrote {out.relative_to(root)}; {failed} failed ops, "
          f"{defects} known-defect inputs failing")
    return 1 if failed or defects else 0


if __name__ == "__main__":
    sys.exit(main())
