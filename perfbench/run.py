"""Run one benchmark workload against the `fbasis` sources in ./src.

    python3 perfbench/run.py --workload verdicts --seed 1 --seconds 15 --trace 0

Ops run in this process through `fbasis.cli.load_config` and
`fbasis.cli.run_command`, as a closed loop with one client: the next op
starts when the previous one returns.  Each report is checked by the
oracle in `oracle.py`.  Times are scaled to the host's nominal speed by
the probe in `calibrate.py`; the result file keeps the raw wall-clock
figures too.  A run's op list is fixed by the workload, the seed and
`--seconds`: as many blocks as take `--seconds` at nominal host speed on
the program of commit ef50221 (`NOMINAL_BLOCK_S`), so a faster or slower
program runs the same ops.  With `--trace 0` the run measures the
end-to-end metrics on that list.  With `--trace 1` it runs a third of the
blocks untraced, then replays the same ops with every layer wrapped by
`tracer.Tracer`, and reports the per-layer metrics.  The last line of
stdout is one JSON object; the full result goes to
`perfbench/results/BENCH_<workload>_seed<seed>_trace<0|1>.json`.

The run pins PYTHONHASHSEED (re-executing itself once if it is unset):
with a random hash seed the peak RSS of the same ops jumps between two
values 7 MB apart.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
from oracle import Tally  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import KNOWN_DEFECTS, WORKLOADS, blocks, readme_ops  # noqa: E402

HASH_SEED = "0"
SETUP_REPS = 7
TRACE_SHARE = 1 / 3  # of the blocks run untraced before the traced replay
# seconds one block takes at nominal host speed on the program of commit
# ef50221; fixed, so that every later commit runs the same op list
NOMINAL_BLOCK_S = {"verdicts": 0.95, "construct_exact": 2.0, "construct_float": 2.75}
# a run stops after whole blocks once its ops took this many times
# --seconds, so that even a much slower program ends in time
OVERRUN = 4
BUILDS = ("construct_exact", "construct_float")  # workloads made of builds only
TAIL_MIN_OPS = 20
TAIL_BEYOND = 10
# setup_s is scaled by the time another fresh interpreter takes to import
# a fixed set of modules that fbasis cannot change (REF_IMPORT): on the
# host this was written on, imports ran up to 30% slower for minutes at a
# time while the CPU probe in calibrate.py read the same.  REF_NOMINAL_S is
# that import's time when the host runs fast.
IMPORT_TIMER = ("import time; t0 = time.perf_counter(); import {}; "
                "print(repr(time.perf_counter() - t0))")
REF_IMPORT = ("numpy, asyncio, unittest, http.client, xml.dom.minidom, "
              "email.mime.multipart, sqlite3")
REF_NOMINAL_S = 0.18

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "stages_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "definite_share": "1",
    "peak_rss_mb": "MB",
}
# reported in the result file, not gated: both read 0 on a healthy run
END_TO_END_EXTRA = {"failed_share": "1", "inconclusive_share": "1"}

# "layer.name" spans whose metrics are reported even when they read 0
REQUIRED_SPANS = (
    "series.weight_sum", "series.weight_prefix_upper",
    "admissibility.check_admissible", "witnesses.materialized_blocks",
    "lp_operators.op_norm", "lp_operators.solve_b_next",
    "basis_builder.build_basis", "basis_builder.verify_biorthogonality",
    "basis_builder.defect_report", "basis_builder.convergence_demo",
    "separation.plank_separator", "separation.lemma1_profile",
    "reports.emit_report",
)
PER_LAYER = {}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.calls"] = "count"
    PER_LAYER[f"{_layer}.self_s"] = "s"
PER_LAYER.update({
    "series.weight_prefix_upper.calls": "count",
    "series.weight_prefix_upper.self_s": "s",
    "series.weight_sum.decided_share": "1",
    "series.weight_sum.repeat_share": "1",
    "admissibility.check_admissible.calls": "count",
    "admissibility.check_admissible.self_s": "s",
    "admissibility.check_admissible.inconclusive_share": "1",
    "witnesses.blocks_materialized": "count",
    "witnesses.materialized_blocks.self_s": "s",
    "lp_operators.op_norm.calls": "count",
    "lp_operators.op_norm_per_stage": "1",
    "lp_operators.solve_b_next.self_s": "s",
    "basis_builder.build_basis.self_s": "s",
    "basis_builder.verify_biorthogonality.self_s": "s",
    "basis_builder.defect_report.self_s": "s",
    "basis_builder.convergence_demo.calls": "count",
    "basis_builder.convergence_demo.self_s": "s",
    "separation.plank_separator.self_s": "s",
    "separation.lemma1_profile.self_s": "s",
    "reports.emit_report.self_s": "s",
    "reports.bytes": "B",
    "trace.overhead_share": "1",
    "trace.wall_s": "s",
    "trace.layer_self_s": "s",
    "workload.ops": "count",
    "workload.convergent_cert_share": "1",
    "workload.exact_stages": "count",
    "workload.float_stages": "count",
})


def result_path(workload: str, seed: int, trace: int) -> Path:
    return HERE / "results" / f"BENCH_{workload}_seed{seed}_trace{trace}.json"


def environment(root: Path) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(root),
    }


def git_sha(root: Path) -> str:
    """HEAD of a git checkout at `root`, read from its files; else "unknown"."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(root: Path) -> list[tuple[float, float]]:
    """(seconds of `import fbasis.cli`, seconds of the REF_IMPORT import), each
    in a fresh interpreter; the first pair also writes bytecode caches and
    is not kept."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + os.pathsep + env.get("PYTHONPATH", "")

    def timed_import(modules: str) -> float:
        out = subprocess.run([sys.executable, "-c", IMPORT_TIMER.format(modules)], cwd=root,
                             env=env, capture_output=True, text=True, timeout=60, check=True)
        return float(out.stdout)

    samples = [(timed_import("fbasis.cli"), timed_import(REF_IMPORT))
               for _ in range(SETUP_REPS + 1)]
    return samples[1:]


def run_op(cli, op, tally: Tally) -> float:
    """One closed-loop op: parse the argv, run it, judge the report."""
    error, code, payload = "", None, b""
    probe_s = calibrate.probe()
    start = time.perf_counter()
    try:
        code, payload = cli.run_command(cli.load_config(list(op.argv)))
    except (Exception, SystemExit) as exc:  # an escaped exception fails the op
        error = f"exception escaped run_command: {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    tally.record(op, code, payload, seconds, error, probe_s)
    return seconds


def probe_known_defects(cli) -> list[dict]:
    """Try each known-failing input once; a fixed one reads "ok"."""
    out = []
    for op in KNOWN_DEFECTS:
        tally = Tally()
        run_op(cli, op, tally)
        reason = tally.failures[0]["reason"] if tally.failures else "ok"
        out.append({"argv": list(op.argv), "outcome": reason})
    return out


def warmup_ops(workload: str) -> list:
    """README ops run untimed before the workload: lazy imports and
    first-call costs.  The construct workloads leave out all but their own
    commands, so that their peak RSS is set by their own ops and not by the
    ~80 MB the README witness op holds for a moment."""
    ops = readme_ops()
    if workload in BUILDS:
        ops = [op for op in ops if op.argv[0] in ("build-basis", "demo-convergence")]
    return ops


def block_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_BLOCK_S[workload]))


def run_blocks(cli, workload: str, seed: int, count: int, limit: float):
    """The first `count` blocks of the stream; stops early, after a whole
    block, only once the ops have taken `limit` seconds."""
    tally, ops, spent, done = Tally(), [], 0.0, 0
    for block in itertools.islice(blocks(workload, seed), count):
        if spent >= limit:
            break
        for op in block:
            spent += run_op(cli, op, tally)
            ops.append(op)
        done += 1
    return tally, ops, spent, done


def timings(latencies: list[float], stages: list[int], setup_s: float) -> dict:
    """`stages` holds each op's stage count.  stages_per_s is stages built
    per second of the whole op list: on the construct workloads every op
    builds; on verdicts only the README build ops do, so there it moves
    with ops_per_s."""
    lat = sorted(latencies)
    n, busy = len(lat), sum(lat)
    out = {
        "setup_s": setup_s,
        "ops_per_s": n / busy,
        "stages_per_s": sum(stages) / busy,
        "latency_p50_ms": statistics.median(lat) * 1e3,
    }
    if n >= TAIL_MIN_OPS:
        out["latency_tail_ms"] = lat[n - TAIL_BEYOND - 1] * 1e3
    return out


def end_to_end(tally: Tally, setup: list[tuple[float, float]], peak_rss_mb: float,
               defects: list[dict] = ()) -> tuple[dict, dict]:
    """(the metrics at nominal host speed, the timing metrics in wall-clock time).
    `defects` are the known-defect outcomes; they count toward failed_share."""
    n = tally.attempted
    stages = tally.op_stages
    scaled = calibrate.normalized(tally.latencies, tally.probes)
    setup_s = statistics.median(s for s, _ in setup)
    ref_s = statistics.median(ref for _, ref in setup)
    out = timings(scaled, stages, setup_s * REF_NOMINAL_S / ref_s)
    out.update({
        "definite_share": 1.0 - tally.inconclusive / n,
        "peak_rss_mb": peak_rss_mb,
        "failed_share": (tally.failed + sum(d["outcome"] != "ok" for d in defects))
                        / (n + len(defects)),
        "inconclusive_share": tally.inconclusive / n,
    })
    return out, timings(tally.latencies, stages, setup_s)


def _text(x) -> str:
    to_text = getattr(x, "to_text", None)
    return to_text() if to_text is not None else repr(x)


def attach_hooks(tr: Tracer) -> None:
    seen = set()

    def weight_sum(tr, args, kwargs, result):
        tr.counters["weight_sum.decided"] += result.kind in ("converges", "diverges")
        key = (_text(args[0]), _text(args[1] if len(args) > 1 else kwargs.get("w")))
        tr.counters["weight_sum.repeats"] += key in seen
        seen.add(key)

    def count(name, measure):
        def hook(tr, args, kwargs, result):
            tr.counters[name] += measure(result)
        return hook

    tr.hooks["series.weight_sum"] = weight_sum
    tr.hooks["admissibility.check_admissible"] = count(
        "check_admissible.inconclusive", lambda r: r.kind == "inconclusive")
    tr.hooks["witnesses.materialized_blocks"] = count("blocks", len)
    tr.hooks["reports.emit_report"] = count("bytes", len)
    tr.hooks["basis_builder.build_basis"] = count("stages", lambda r: len(r.stages))


def traced_replay(cli, ops, untraced: Tally):
    tr = Tracer()
    attach_hooks(tr)
    tally = Tally()
    with tr:
        tr.require(REQUIRED_SPANS)
        for op in ops:
            run_op(cli, op, tally)
    return tr, tally, per_layer(tr, tally, untraced)


def per_layer(tr: Tracer, tally: Tally, untraced: Tally) -> dict:
    def share(num, den):
        return num / den if den else 0.0

    c, calls, self_s = tr.counters, tr.calls, tr.self_s
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
    for span in ("series.weight_prefix_upper", "admissibility.check_admissible",
                 "lp_operators.op_norm", "basis_builder.convergence_demo"):
        out[f"{span}.calls"] = calls[span]
    for span in REQUIRED_SPANS:
        if f"{span}.self_s" in PER_LAYER:
            out[f"{span}.self_s"] = self_s[span]
    out.update({
        "series.weight_sum.decided_share": share(c["weight_sum.decided"], calls["series.weight_sum"]),
        "series.weight_sum.repeat_share": share(c["weight_sum.repeats"], calls["series.weight_sum"]),
        "admissibility.check_admissible.inconclusive_share": share(
            c["check_admissible.inconclusive"], calls["admissibility.check_admissible"]),
        "witnesses.blocks_materialized": c["blocks"],
        "lp_operators.op_norm_per_stage": share(calls["lp_operators.op_norm"], c["stages"]),
        "reports.bytes": c["bytes"],
        "trace.overhead_share": (sum(calibrate.normalized(tally.latencies, tally.probes))
                                 / sum(calibrate.normalized(untraced.latencies, untraced.probes))
                                 - 1.0),
        "trace.wall_s": sum(tally.latencies),
        "trace.layer_self_s": tr.layer_self_total(),
    })
    out.update({f"workload.{k}": v for k, v in facts(tally).items()})
    return out


def facts(tally: Tally) -> dict:
    """What later optimisations depend on, measured on the ops run."""
    return {
        "ops": tally.attempted,
        "convergent_cert_share": tally.convergent_cert / tally.attempted,
        "exact_stages": tally.exact_stages,
        "float_stages": tally.float_stages,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fbasis" / "cli.py").is_file():
        sys.stderr.write("run from the root of an fbasis checkout: src/fbasis/cli.py not found\n")
        return 2
    sys.path.insert(0, str(root / "src"))
    setup = [] if args.trace else measure_setup(root)
    import fbasis.cli as cli

    for op in warmup_ops(args.workload):
        run_op(cli, op, Tally())

    count = block_count(args.workload, args.seconds * (TRACE_SHARE if args.trace else 1))
    tally, ops, wall, done = run_blocks(cli, args.workload, args.seed, count,
                                        OVERRUN * args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    defects = probe_known_defects(cli)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(root),
        "blocks": count,
        "ops": tally.attempted,
        "op_wall_s": wall,
        "cut_short": done < count,
        "failed": tally.failed,
        "failures": tally.failures + [dict(argv=d["argv"], reason=d["outcome"], known_defect=True)
                                      for d in defects if d["outcome"] != "ok"],
        "facts": facts(tally),
        "known_defects": defects,
    }
    if args.trace:
        tr, traced, layers = traced_replay(cli, ops, tally)
        result["failed"] += traced.failed
        result["failures"] += [dict(f, traced=True) for f in traced.failures]
        result["absent"] = tr.absent
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
        attempted = tally.attempted + traced.attempted
    else:
        e2e, wall_clock = end_to_end(tally, setup, peak_rss_mb, defects)
        result["setup_samples_s"] = setup
        result["host_speed"] = calibrate.NOMINAL_S / statistics.median(tally.probes)
        result["wall_clock"] = wall_clock
        if "latency_tail_ms" in e2e:
            result["latency_tail_percentile"] = 100.0 * (1 - TAIL_BEYOND / tally.attempted)
        result["end_to_end_extra"] = {k: {"value": e2e[k], "unit": u}
                                      for k, u in END_TO_END_EXTRA.items()}
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items() if k in e2e}
        attempted = tally.attempted
    result["metrics"] = metrics

    out = result_path(args.workload, args.seed, args.trace)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=2, default=str) + "\n")
    for f in result["failures"]:
        label = "KNOWN DEFECT" if f.get("known_defect") else "FAILED"
        sys.stderr.write(f"{label} {f['argv']}: {f['reason']}\n")
    # the known-defect inputs are not part of the timed op list: they count
    # in failed_share and the failure list, not here
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": attempted,
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    sys.exit(main())
