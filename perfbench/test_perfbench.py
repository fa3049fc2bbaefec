"""Tests of the benchmark itself: its oracle, its tracer and its generator.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import fbasis.admissibility as admissibility  # noqa: E402
import fbasis.basis_builder as basis_builder  # noqa: E402
import fbasis.cli as cli  # noqa: E402
import fbasis.separation as separation  # noqa: E402
import fbasis.series as series  # noqa: E402
import fbasis.vectors as vectors  # noqa: E402
from fbasis import NATURALS, l1, parse_filter, parse_scalar_seq  # noqa: E402
from fbasis.lp_operators import TailOp  # noqa: E402

import run  # noqa: E402
from oracle import INCONCLUSIVE, OK, Tally  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, blocks, readme_ops  # noqa: E402


def execute(op):
    return cli.run_command(cli.load_config(list(op.argv)))


def readme(command, flag=None):
    return next(op for op in readme_ops()
                if op.argv[0] == command and (flag is None or flag in op.argv))


class TestOracle:
    def test_readme_commands_pass(self):
        tally = Tally()
        for op in readme_ops():
            code, payload = execute(op)
            assert tally.record(op, code, payload, 0.0) == OK, op.argv
        assert tally.failed == 0

    def test_tampered_reports_count_as_failed(self):
        verdict_op = readme("check-admissible")
        l1_op = readme("build-basis", "l1")
        witness_op = readme("witness")
        tally = Tally()

        code, payload = execute(verdict_op)
        flipped = replace(verdict_op, expect={"verdict": "refuted"})
        tally.record(flipped, code, payload, 0.1)

        code, payload = execute(l1_op)
        doc = json.loads(payload)
        stage = doc["stage_norms"][3]
        stage["exact"] = str(Fraction(stage["exact"]) + Fraction(1, 10 ** 9))
        tally.record(l1_op, code, json.dumps(doc).encode("ascii"), 0.2)

        # merge the first two blocks: the reported sum matches the block's
        # weights but leaves [1, 2]
        code, payload = execute(witness_op)
        doc = json.loads(payload)
        doc["blocks"][:2] = [doc["blocks"][0] + doc["blocks"][1]]
        doc["block_sums"][:2] = [doc["block_sums"][0] + doc["block_sums"][1]]
        assert doc["block_sums"][0] > 2.0
        tally.record(witness_op, code, json.dumps(doc).encode("ascii"), 0.3)

        assert tally.failed == 3
        assert [f["argv"] for f in tally.failures] == [
            list(flipped.argv), list(l1_op.argv), list(witness_op.argv)]
        metrics, _ = run.end_to_end(tally, [(0.25, 0.2)], 100.0)
        assert metrics["failed_share"] == 1.0

    def test_known_defects_count_as_failed(self):
        tally = Tally()
        op = readme("dominates")
        code, payload = execute(op)
        tally.record(op, code, payload, 0.1)
        defects = [{"argv": ["x"], "outcome": "exception escaped run_command: OverflowError"},
                   {"argv": ["y"], "outcome": "ok"}]
        metrics, _ = run.end_to_end(tally, [(0.25, 0.2)], 100.0, defects)
        assert metrics["failed_share"] == 1 / 3
        # every gated metric but the tail (fewer than 20 ops) is on every workload
        assert set(run.END_TO_END) - set(metrics) == {"latency_tail_ms"}

    def test_inconclusive_is_not_a_failure(self):
        op = replace(readme("check-admissible"), argv=(
            "check-admissible", "--seq", "pow(2,1/2)", "--filter",
            "trace(frechet; residue(3,1))", "--p", "1"), expect={"verdict": "refuted"})
        tally = Tally()
        code, payload = execute(op)
        assert tally.record(op, code, payload, 0.0) == INCONCLUSIVE
        assert (tally.failed, tally.inconclusive) == (0, 1)

    def test_escaped_exception_fails(self):
        tally = Tally()
        op = readme("dominates")
        tally.record(op, None, b"", 0.0, "exception escaped run_command: RuntimeError")
        assert tally.failed == 1


class TestTracer:
    def test_alias_calls_are_counted(self):
        assert vectors.weight_sum is series.weight_sum
        assert basis_builder.check_admissible is admissibility.check_admissible
        tracer = Tracer()
        with tracer:
            vectors.weight_sum(NATURALS, parse_scalar_seq("pow(1,-2)"))
            basis_builder.check_admissible(parse_scalar_seq("const(2)"), parse_filter("frechet"), 1)
            separation.op_norm(TailOp(1, (Fraction(1), Fraction(1)), l1(4)))
            cli.emit_report({"a": 1})
        assert tracer.calls["series.weight_sum"] >= 1
        assert tracer.calls["admissibility.check_admissible"] == 1
        assert tracer.calls["lp_operators.op_norm"] == 1
        assert tracer.calls["reports.emit_report"] == 1
        assert vectors.weight_sum is series.weight_sum  # restored on exit

    def test_recursion_is_not_counted_twice(self):
        tracer = Tracer()
        seq, filt = parse_scalar_seq("pow(2,1/2)"), parse_filter("trace(frechet; residue(3,1))")
        with tracer:
            start = perf_counter()
            admissibility.check_admissible(seq, filt, 1)
            wall = perf_counter() - start
        assert tracer.calls["admissibility.check_admissible"] == 2
        assert 0 < tracer.layer_self_total() <= wall

    def test_missing_names_are_recorded_as_absent(self):
        tracer = Tracer(layers=LAYERS + ("no_such_layer",),
                        methods={"witnesses": {"GreedyBlockSet": ("no_such_method",)}})
        with tracer:
            tracer.require(["series.no_such_function", "series.weight_sum"])
        assert sorted(tracer.absent) == ["no_such_layer", "series.no_such_function",
                                         "witnesses.GreedyBlockSet.no_such_method"]


class TestGeneration:
    @staticmethod
    def take(workload, seed, count=3):
        stream = blocks(workload, seed)
        return [(op.argv, op.expect) for _ in range(count) for op in next(stream)]

    def test_same_seed_same_ops(self):
        for workload in WORKLOADS:
            assert self.take(workload, 7) == self.take(workload, 7)
            assert self.take(workload, 7) != self.take(workload, 8)

    def test_op_list_does_not_depend_on_speed(self):
        class Instant:
            load_config = staticmethod(list)
            run_command = staticmethod(lambda config: (0, b"{}"))

        tally, ops, _, done = run.run_blocks(Instant, "construct_float", 1, 3, 100.0)
        stream = blocks("construct_float", 1)
        assert done == 3
        assert ops == [op for _ in range(3) for op in next(stream)]
        assert tally.attempted == len(ops)

    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
        assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
        for m in spec["end_to_end"]:
            assert m["unit"] == run.END_TO_END[m["name"]]
        for m in spec["per_layer"]:
            assert m["unit"] == run.PER_LAYER[m["name"]]
        assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "verdicts", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
