import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from fbasis import (
    GeometricIndex,
    PowerLog,
    Spike,
    parse_scalar_seq,
    parse_set_expr,
    parse_test_vector,
    weight_sum,
)
from fbasis.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_REFUTED,
    EXIT_USAGE,
    load_config,
    run_command,
)
from fbasis.reports import emit_report

from checkers import set_equal


def run(argv):
    return run_command(load_config(argv))


def get_json(payload: bytes):
    import json

    return json.loads(payload.decode("ascii"))


class TestExitCodes:
    def test_proved(self):
        code, out = run(
            ["check-admissible", "--seq", "pow(1,0.5)", "--filter", "statistical", "--p", "2"]
        )
        assert code == EXIT_OK
        assert get_json(out)["verdict"] == "proved"

    def test_refuted(self):
        code, out = run(
            ["check-admissible", "--seq", "pow(1,1)", "--filter", "statistical", "--p", "2"]
        )
        assert code == EXIT_REFUTED
        doc = get_json(out)
        assert doc["verdict"] == "refuted"
        assert doc["witness"] == "cofinite{}"
        assert doc["certificate"]["inverse_p_sum"]["kind"] == "converges"

    def test_inconclusive(self):
        code, out = run(
            [
                "check-admissible",
                "--seq",
                "powlog(1,1/2,1/4)",
                "--filter",
                "statistical",
                "--p",
                "2",
            ]
        )
        assert code == EXIT_INCONCLUSIVE

    def test_parse_error(self):
        code, out = run(["classify-set", "--set", "residue(2,2)", "--filter", "statistical"])
        assert code == EXIT_PARSE

    def test_usage_error(self):
        code, out = run(["classify-set", "--filter", "statistical"])
        assert code == EXIT_USAGE

    def test_not_separable(self):
        code, out = run(["separate", "--seq", "const(2)", "--dual", "linf"])
        assert code == EXIT_REFUTED

    @pytest.mark.parametrize("first,second", [("X", "!(X)"), ("!(X)", "X")])
    def test_a_set_and_its_complement_are_pieces_of_any_period(self, first, second):
        # X has period 1009 * 1013, past the periodic analysis of the partition
        # check; X and !X partition the naturals whatever X is
        x = "residue(1009,0)&residue(1013,0)"
        pieces = f"{first}=>pow(1,-1);{second}=>pow(1,-1)".replace("X", x)
        code, out = run(["witness", "--seq", "pow(1,2)", "--weights", "piece{%s}" % pieces,
                         "--p", "1"])
        assert code == EXIT_REFUTED
        assert get_json(out)["outcome"] == "witness"

    @pytest.mark.parametrize("argv", [
        ["build-basis"],
        ["demo-convergence", "--vector", "e(1)"],
    ])
    def test_not_admissible(self, argv):
        # sum of 1/(2 n**2) = pi**2/12 converges, so the whole line refutes
        code, out = run(argv + ["--seq", "pow(2,2)", "--space", "l1", "--filter", "frechet",
                                "--n-max", "5"])
        assert code == EXIT_REFUTED
        doc = get_json(out)
        assert (doc["outcome"], doc["verdict"], doc["witness"]) == (
            "not-admissible", "refuted", "cofinite{}")
        assert doc["certificate"]["inverse_p_sum"]["bound"] >= math.pi ** 2 / 12


class TestTruncation:
    BUILD = ["build-basis", "--seq", "const(2)", "--space", "l1", "--filter", "frechet"]

    def test_dim_defaults_to_n_max_plus_one(self):
        code, out = run(self.BUILD + ["--n-max", "100"])
        assert code == EXIT_OK
        assert len(get_json(out)["stage_norms"]) == 99

    def test_dim_below_n_max_plus_one_is_a_usage_error(self):
        code, out = run(self.BUILD + ["--n-max", "10", "--dim", "10"])
        assert code == EXIT_USAGE
        assert get_json(out)["error"] == "usage"

    def test_non_integer_sizes_are_usage_errors(self):
        assert run(self.BUILD + ["--n-max", "3.5"])[0] == EXIT_USAGE
        assert run(self.BUILD + ["--n-max", "8", "--dim", "x"])[0] == EXIT_USAGE

    @pytest.mark.parametrize("p", ["1001/1000", "101/100"])
    def test_exponents_close_to_one_build(self, p):
        # a**q and U**q leave the float range here (q = 1001 and 101)
        code, out = run(["build-basis", "--seq", "const(5)", "--space", f"lp({p})",
                         "--filter", "frechet", "--n-max", "4"])
        assert code == EXIT_OK
        doc = get_json(out)
        assert doc["biorthogonality"]["ok"] is True
        for rep in doc["stage_norms"]:
            assert rep["lower"] <= rep["value"] <= rep["upper"]
            assert abs(rep["lower"] - 5) <= 5e-9

    def test_squares_beyond_float_range_stay_exact(self):
        # the squares 2**n pass 1e308 before n = 1100
        code, out = run(["build-basis", "--a-squared", "const(2)", "--space", "l2",
                         "--filter", "frechet", "--n-max", "1100"])
        assert code == EXIT_OK
        doc = get_json(out)
        assert doc["biorthogonality"]["ok"] is True
        assert all(Fraction(r["exact_square"]) == 2 for r in doc["stage_norms"])

    def test_seed_is_not_an_option(self):
        from fbasis.cli import main

        argv = ["classify-set", "--set", "residue(2,0)", "--filter", "statistical"]
        assert main(argv + ["--seed", "1"]) == EXIT_USAGE


class TestReports:
    def test_build_basis_document(self):
        code, out = run(
            [
                "build-basis",
                "--seq",
                "const(2)",
                "--space",
                "l1",
                "--filter",
                "summable(const(0.5))",
                "--n-max",
                "4",
            ]
        )
        assert code == EXIT_OK
        doc = get_json(out)
        assert doc["coefficients"] == ["1", "1/2", "3/4", "9/8"]
        assert doc["stage_norms"][0]["exact"] == "2"
        assert doc["defect_check"]["exact_match_l1"] is True

    @pytest.mark.parametrize("seq,space,distinct", [
        ("const(3/2)", "l1", 1), ("prefix[3,5/2]:const(2)", "l1", 3), ("const(2)", "lp(3/2)", 40)])
    def test_a_build_makes_one_stage_row_per_distinct_report(self, seq, space, distinct):
        from fbasis.cli import _cmd_build_basis

        cfg = load_config(["build-basis", "--seq", seq, "--space", space, "--filter", "frechet",
                           "--n-max", "41"])
        code, doc = _cmd_build_basis(cfg)
        assert code == EXIT_OK and len(doc["stage_norms"]) == 40
        assert len({id(row) for row in doc["stage_norms"]}) == distinct
        # the rows print as they would, each one its own object
        copies = dict(doc, stage_norms=[dict(row) for row in doc["stage_norms"]])
        assert run_command(cfg)[1] == emit_report(copies)

    def test_classify(self):
        code, out = run(["classify-set", "--set", "residue(2,0)", "--filter", "statistical"])
        assert code == EXIT_OK
        assert get_json(out)["class"] == "stationary"

    def test_dominates(self):
        code, out = run(["dominates", "--filter", "frechet", "--filter2", "statistical"])
        assert code == EXIT_REFUTED
        doc = get_json(out)
        assert set_equal(parse_set_expr(doc["witness"]), parse_set_expr("!geom(2)"))

    def test_witness_command(self):
        code, out = run(
            ["witness", "--seq", "pow(1,2)", "--weights", "pow(1,-1)", "--p", "1"]
        )
        assert code == EXIT_REFUTED
        doc = get_json(out)
        assert doc["outcome"] == "witness"
        assert all(1.0 <= s <= 2.0 for s in doc["block_sums"])
        back = parse_set_expr(doc["witness"])
        assert back.to_text() == doc["witness"]

    def test_witness_criterion_holds(self):
        code, out = run(["witness", "--seq", "pow(1,1)", "--weights", "pow(1,-1)", "--p", "1"])
        assert code == EXIT_OK
        assert get_json(out)["outcome"] == "criterion-holds"

    def test_demo_convergence(self):
        args = [
            "demo-convergence",
            "--seq",
            "prefix[2]:pow(1,1)",
            "--space",
            "l1",
            "--filter",
            "summable(pow(1,-1))",
            "--n-max",
            "8",
            "--vector",
            "spike(shift(geom(2),1); powlog(1,0,-2))",
        ]
        code, out = run(args)
        assert code == EXIT_OK
        doc = get_json(out)
        assert doc["verdict"]["kind"] == "converges"
        code2, out2 = run(args + ["--under", "frechet"])
        doc2 = get_json(out2)
        assert doc2["verdict"]["kind"] == "does-not-converge"

    def test_profile_csv(self):
        code, out = run(
            [
                "profile-lemma1",
                "--seq",
                "pow(1,1/2)",
                "--vectors",
                "powtail(2); e(1)",
                "--grid",
                "10,100",
                "--format",
                "csv",
            ]
        )
        assert code == EXIT_OK
        lines = out.decode().strip().splitlines()
        assert lines[0] == "n,A,B"
        assert len(lines) == 3

    def test_demo_on_an_intersection_spike(self):
        # x is 1/n on the powers of two: every exceptional set lies in geom(2),
        # whose harmonic mass is finite
        code, out = run(["demo-convergence", "--seq", "prefix[2]:pow(1,1)", "--space", "l1",
                         "--filter", "summable(pow(1,-1))", "--n-max", "10",
                         "--vector", "spike(geom(2)&residue(2,0); pow(1,-1))"])
        assert code == EXIT_OK
        doc = get_json(out)
        assert doc["verdict"]["kind"] == "converges"
        assert {e["class"] for e in doc["epsilon_table"]} == {"negligible"}

    def test_profile_splits_vectors_at_top_level_semicolons(self):
        code, out = run(["profile-lemma1", "--seq", "pow(1,1/2)",
                         "--vectors", "spike(geom(2); pow(1,-1)); e(1);", "--grid", "10,100"])
        assert code == EXIT_OK
        doc = get_json(out)
        assert doc["inputs"]["vectors"] == ["spike(geom(2); pow(1,-1))", "e(1)"]
        # ||spike||_1 <= 1 (sum of 2**-k) and ||e(1)||_1 = 1, so B(n) = 2 / s_n
        for n, average, bound in doc["rows"]:
            s_n = math.fsum(m ** -0.5 for m in range(1, n + 1))
            mass = 1 + math.fsum(2.0 ** -k for k in range(1, n.bit_length()))
            assert average == pytest.approx(mass / s_n, rel=1e-12)
            assert bound == pytest.approx(2 / s_n, rel=1e-12)

    @pytest.mark.parametrize("vectors", ["e(1) e(2)", "spike(geom(2) pow(1,-1))"])
    def test_profile_vector_list_needs_its_semicolons(self, vectors):
        code, out = run(["profile-lemma1", "--seq", "pow(1,1/2)", "--vectors", vectors,
                         "--grid", "10"])
        assert code == EXIT_PARSE
        assert "missing ';'" in get_json(out)["detail"]

    def test_profile_reports_scaled_tails(self):
        code, out = run(["profile-lemma1", "--seq", "pow(1,1/2)",
                         "--vectors", "powtail(2,3); powtail(3/2,1/2)", "--grid", "10"])
        assert code == EXIT_OK
        assert get_json(out)["inputs"]["vectors"] == ["powtail(2,3)", "powtail(3/2,1/2)"]

    @pytest.mark.parametrize("vector,detail", [
        ("powtail(1/2)", "the tail is not in the space at p=1"),
        # known only up to 10, so no norm bound: the ';' in braces is its own
        ("e(2); spike(sampled{2,4;10}; const(1))", "the spike has no certified norm at p=1"),
    ])
    def test_profile_vector_without_a_norm_bound(self, capsys, vector, detail):
        code, out = run(["profile-lemma1", "--seq", "pow(1,1/2)", "--vectors", vector,
                         "--grid", "10"])
        assert code == EXIT_USAGE
        assert get_json(out)["detail"] == detail
        assert capsys.readouterr().err == ""

    def test_profile_of_a_spike_on_a_greedy_set_of_summable_weights(self):
        """The greedy set's own weights 100 n**-2 are summable, so its weight
        sum is not certified ``diverges``: the norm is bounded by the full
        sum, which covers the sum over the members below the horizon."""
        vector = "spike(greedy(pow(1,5); pow(100,-2); 1); pow(100,-2))"
        code, out = run(["profile-lemma1", "--seq", "pow(1,1/2)", "--vectors", vector,
                         "--grid", "10,100"])
        assert code == EXIT_OK
        x = parse_test_vector(vector)
        members = np.nonzero(x.support_set.mask(x.support_set.horizon))[0] + 1
        assert x.norm_upper(1) >= math.fsum((100.0 / members ** 2).tolist())
        for n, average, bound in get_json(out)["rows"]:
            s_n = math.fsum(m ** -0.5 for m in range(1, n + 1))
            assert bound == pytest.approx(x.norm_upper(1) / s_n, rel=1e-12)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_spike_norm_bound_covers_the_partial_sum(self, p):
        x = Spike(GeometricIndex(Fraction(2)), PowerLog(1, Fraction(-1)))
        partial = math.fsum(2.0 ** (-k * p) for k in range(1, 20))  # 2**k <= 10**6
        assert x.norm_upper(p) >= partial ** (1 / p)

    def test_round_trip_texts(self):
        code, out = run(
            ["check-admissible", "--seq", "pow(1,1)", "--filter", "frechet", "--p", "1"]
        )
        doc = get_json(out)
        assert doc["verdict"] == "refuted"
        w = parse_set_expr(doc["witness"])
        assert w.to_text() == doc["witness"]
        s = parse_scalar_seq(doc["inputs"]["seq"])
        assert s.to_text() == doc["inputs"]["seq"]


class TestDeterminism:
    def test_byte_identical_reruns(self):
        argv_sets = [
            ["check-admissible", "--seq", "pow(1,0.5)", "--filter", "statistical", "--p", "2"],
            [
                "build-basis",
                "--seq",
                "const(2)",
                "--space",
                "l2",
                "--filter",
                "frechet",
                "--n-max",
                "6",
            ],
            ["witness", "--seq", "pow(1,2)", "--weights", "pow(1,-1)", "--p", "1"],
            ["dominates", "--filter", "summable(pow(1,-1))", "--filter2", "frechet"],
        ]
        for argv in argv_sets:
            first = run(argv)
            second = run(argv)
            assert first == second


class TestConfig:
    def test_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "seq = pow(1,0.5)\nfilter = statistical\np = 2\n# comment\n", encoding="ascii"
        )
        code, out = run(["check-admissible", "--config", str(cfg)])
        assert code == EXIT_OK
        assert get_json(out)["verdict"] == "proved"

    def test_cli_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seq = pow(1,0.5)\nfilter = statistical\np = 2\n", encoding="ascii")
        code, out = run(["check-admissible", "--config", str(cfg), "--seq", "pow(1,1)"])
        assert code == EXIT_REFUTED

    def test_env_horizon(self, monkeypatch):
        monkeypatch.setenv("FBASIS_HORIZON", "5000")
        cfg = load_config(["classify-set", "--set", "geom(2)", "--filter", "statistical"])
        assert cfg.get("horizon") == "5000"
        monkeypatch.delenv("FBASIS_HORIZON")
        cfg = load_config(["classify-set", "--set", "geom(2)", "--filter", "statistical"])
        assert cfg.get("horizon") == "1000000"

    def test_output_file(self, tmp_path):
        out_path = tmp_path / "report.json"
        from fbasis.cli import main

        code = main(
            [
                "classify-set",
                "--set",
                "residue(2,0)",
                "--filter",
                "statistical",
                "--output",
                str(out_path),
            ]
        )
        assert code == EXIT_OK
        assert b"stationary" in out_path.read_bytes()


@pytest.mark.parametrize("argv", [
    ["build-basis", "--seq", "const(2)", "--space", "foo", "--filter", "frechet"],
    ["check-admissible", "--seq", "pow(1,2)", "--filter", "frechet", "--p", "abc"],
    ["separate", "--seq", "pow(1,2)", "--margin", "abc"],
    ["profile-lemma1", "--seq", "pow(1,1/2)", "--vectors", "e(1)", "--grid", "10,x"],
    ["demo-convergence", "--seq", "const(2)", "--space", "l1", "--filter", "frechet",
     "--n-max", "4", "--vector", "e(1)", "--horizon", "x"],
])
def test_malformed_numbers_are_usage_errors(argv):
    code, out = run(argv)
    assert code == EXIT_USAGE
    doc = get_json(out)
    assert doc["command"] == argv[0] and doc["error"] == "usage"


# ---------------------------------------------------------------------------
# the option table: each subcommand accepts only the options it reads

from fbasis import cli  # noqa: E402

# one accepted argv per subcommand, from the README
README_ARGV = {
    "check-admissible": ["--seq", "pow(1,0.5)", "--filter", "statistical", "--p", "2"],
    "build-basis": ["--seq", "const(2)", "--space", "l1", "--filter",
                    "summable(const(0.5))", "--n-max", "8"],
    "witness": ["--seq", "pow(1,2)", "--weights", "pow(1,-1)", "--p", "1"],
    "separate": ["--seq", "pow(1,2)", "--dual", "linf", "--margin", "0.1"],
    "classify-set": ["--set", "residue(2,0)", "--filter", "statistical"],
    "demo-convergence": ["--seq", "prefix[2]:pow(1,1)", "--space", "l1", "--filter",
                         "summable(pow(1,-1))", "--n-max", "10", "--vector",
                         "spike(shift(geom(2),1); powlog(1,0,-2))", "--under", "frechet"],
    "dominates": ["--filter", "frechet", "--filter2", "statistical"],
    "profile-lemma1": ["--seq", "pow(1,1/2)", "--vectors", "powtail(2); e(1)",
                       "--grid", "10,100,1000"],
}

_ALL_OPTIONS = sorted({o for _, row in cli._SUBCOMMANDS.values() for o in row})
_UNREAD = [(command, option) for command, (_, row) in cli._SUBCOMMANDS.items()
           for option in _ALL_OPTIONS if option not in row]


def _readme(command):
    return [command] + README_ARGV[command]


def test_table_covers_every_subcommand():
    assert sorted(README_ARGV) == sorted(cli._SUBCOMMANDS)
    assert sum(len(cli._COMMON + row) for _, row in cli._SUBCOMMANDS.values()) == 56


@pytest.mark.parametrize("command,option", _UNREAD)
def test_unread_option_is_a_usage_error(command, option):
    extra = ["--band"] if option == "band" else [f"--{option}", "1"]
    assert cli.main(_readme(command) + extra) == EXIT_USAGE


def test_handlers_read_exactly_their_row(monkeypatch):
    reads = []
    original = cli.RunConfig.get

    def recording_get(self, key, default=None):
        reads.append(key)
        return original(self, key, default)

    monkeypatch.setattr(cli.RunConfig, "get", recording_get)
    for command, (_, row) in cli._SUBCOMMANDS.items():
        reads.clear()
        code, _ = run(_readme(command))
        assert code not in (EXIT_USAGE, EXIT_PARSE), command
        names = {o.replace("-", "_") for o in row}
        common = {o.replace("-", "_") for o in cli._COMMON}
        assert set(reads) <= names | common, command
        assert names <= set(reads), command


def test_abbreviated_option_is_a_usage_error():
    argv = ["witness", "--seq", "pow(1,2)", "--wei", "pow(1,-1)", "--p", "1"]
    assert cli.main(argv) == EXIT_USAGE


@pytest.mark.parametrize("line", ["zzz = 1", "space = l9"])
def test_unread_config_key_is_a_usage_error(tmp_path, line):
    path = tmp_path / "run.cfg"
    path.write_text(f"set = residue(2,0)\nfilter = statistical\n{line}\n", encoding="ascii")
    assert cli.main(["classify-set", "--config", str(path)]) == EXIT_USAGE


def test_shared_parser_keeps_no_state(tmp_path):
    argv = _readme("check-admissible")
    assert load_config(argv + ["--band"]).get("band") is True
    assert load_config(argv).get("band") is None
    path = tmp_path / "run.cfg"
    path.write_text("band = true\n", encoding="ascii")
    assert load_config(argv + ["--config", str(path)]).get("band") is True
    assert load_config(argv).get("band") is None


# ---------------------------------------------------------------------------
# the argv scan reads every command line as argparse did (tests/argparse_oracle)

import itertools  # noqa: E402
import random  # noqa: E402

from hypothesis import given, settings, strategies as st  # noqa: E402

import argparse_oracle  # noqa: E402
import fuzz_grammar  # noqa: E402
import op_digests  # noqa: E402

_W = ["witness", "--seq", "pow(1,2)", "--weights", "pow(1,-1)"]
_EDGE = [
    ["witness", "--seq=pow(1,2)", "--weights=pow(1,-1)", "--p=1"],
    _W + ["--p", "1", "--seq="],
    _W + ["--p", "-1"],
    _W + ["--p", "-.5"],
    _W + ["--p", "-1/2"],
    _W + ["--p", "-"],
    ["witness", "--seq", "-x", "--p", "1"],
    ["witness", "--seq", "-1e5", "--p", "1"],
    _W + ["--p"],
    _W + ["--p", "1", "--weights", "pow(1,-2)"],
    ["witness", "--p", "1", "--output", "r.json", "--weights", "pow(1,-1)", "--format", "csv",
     "--seq", "pow(1,2)"],
    _W + ["--p", "1", "extra"],
    ["witness", "--", "--seq", "pow(1,2)"],
    _W + ["--p", "1", "--"],
    _W + ["--p", "--", "1"],
    _readme("check-admissible") + ["--band"],
    _readme("check-admissible") + ["--band=1"],
    _readme("check-admissible") + ["--band", "x"],
    _readme("check-admissible") + ["--band", "--band"],
    _W + ["--format", "xml"],
    _W + ["--format=csv"],
    _W + ["--format", "csv", "--format", "json"],
    ["witness", "---seq", "pow(1,2)"],
    ["witness", "-s", "pow(1,2)"],
    ["--seq", "pow(1,2)", "witness"],
    ["--format", "csv", "witness"],
    [],
    ["nope", "--seq", "pow(1,2)"],
    ["witness"],
    ["witness", "--config="],
    ["witness", "--config", "no/such/file.cfg"],
    _readme("build-basis") + ["--a-squared", "const(2)", "--dim", "20"],
    _readme("demo-convergence") + ["--horizon", "1000", "--output", ""],
]


def _scanned(argv):
    try:
        cfg = load_config(argv)
    except cli._Usage:
        return "usage"
    return cfg.command, list(cfg.options.items())


def _comparable(argv) -> bool:
    """Not an argv that argparse reads in one of the ways the scan does not
    keep: a help token (argparse also takes "-hh" for one), a token that
    starts with "-" and holds a space, which argparse takes for a value,
    and "--name=--", whose value argparse drops."""
    return not any(t == "--help" or t.startswith("-h") or (t.startswith("-") and " " in t)
                   or t.partition("=")[2] == "--" for t in argv)


def _argvs():
    yield from _EDGE
    yield from (_readme(command) for command in README_ARGV)
    for workload in op_digests.WORKLOADS:
        for seed in (7, 11):
            for block in itertools.islice(op_digests.blocks(workload, seed), 8):
                yield from (list(op.argv) for op in block)
    rng = random.Random(3)
    for _ in range(600):
        yield fuzz_grammar.argv(rng.choice)


def test_scan_reads_argv_as_argparse_did():
    argvs = [argv for argv in _argvs() if _comparable(argv)]
    assert len(argvs) > 1000
    for argv in argvs:
        assert _scanned(argv) == argparse_oracle.parse(argv), argv


@st.composite
def _mutated(draw):
    argv = list(draw(st.sampled_from(_EDGE + [_readme(c) for c in README_ARGV])))
    for _ in range(draw(st.integers(1, 3))):
        if not argv:
            break
        i = draw(st.integers(0, len(argv) - 1))
        j = draw(st.integers(0, len(argv) - 1))
        kind = draw(st.sampled_from(("drop", "duplicate", "swap", "join", "negate")))
        if kind == "drop":
            del argv[i]
        elif kind == "duplicate":
            argv.insert(i, argv[i])
        elif kind == "swap":
            argv[i], argv[j] = argv[j], argv[i]
        elif kind == "join" and i + 1 < len(argv):
            argv[i:i + 2] = [argv[i] + "=" + argv[i + 1]]
        elif kind == "negate":
            argv[i] = "-" + argv[i]
    return argv


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(_mutated())
def test_scan_reads_mutated_argv_as_argparse_did(argv):
    if _comparable(argv):
        assert _scanned(argv) == argparse_oracle.parse(argv)


@pytest.mark.parametrize("argv", [["-h"], ["--help", "witness"],
                                  _readme("witness") + ["-h"], ["witness", "--help", "--bogus"]])
def test_help_prints_the_table_and_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        load_config(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: fbasis") and cli.__doc__.strip() in out
    for command, (_, row) in cli._SUBCOMMANDS.items():
        assert command in out and all(f"--{o}" in out for o in cli._COMMON + row)


def test_help_token_in_a_value_place_is_a_missing_value():
    assert cli.main(["witness", "--seq", "-h"]) == EXIT_USAGE


@pytest.mark.parametrize("value", ["- 1", "-x y"])
def test_dash_value_with_a_space_is_a_usage_error(value):
    # argparse took such a token for a value; the scan takes it for an option
    assert cli.main(_W + ["--p", value]) == EXIT_USAGE
    assert load_config(_W + [f"--p={value}"]).get("p") == value


def test_double_dash_after_equals_is_the_value():
    # argparse dropped it and left the list [], which exited 70
    assert load_config(["classify-set", "--set=--", "--filter", "frechet"]).get("set") == "--"
    assert run(["classify-set", "--set=--", "--filter", "frechet"])[0] == EXIT_PARSE


# ---------------------------------------------------------------------------
# every failure maps to a documented exit code, never to 1


def _bad_io_argv(case, tmp_path):
    classify = _readme("classify-set")
    if case == "format-xml":
        return classify + ["--format", "xml"]
    if case == "no-csv-form":
        return classify + ["--format", "csv"]
    if case == "missing-output-dir":
        return classify + ["--output", str(tmp_path / "missing" / "x.json")]
    if case == "missing-config":
        return ["classify-set", "--config", str(tmp_path / "missing.cfg")]
    path = tmp_path / "run.cfg"
    path.write_bytes("set = residue(2,0)\nfilter = statistical # é\n".encode("utf-8"))
    return ["classify-set", "--config", str(path)]


@pytest.mark.parametrize("case,want", [
    ("format-xml", EXIT_USAGE),
    ("no-csv-form", EXIT_USAGE),
    ("missing-output-dir", EXIT_USAGE),
    ("missing-config", EXIT_USAGE),
    ("non-ascii-config", EXIT_PARSE),
])
def test_io_and_format_failures_have_codes(tmp_path, capsys, case, want):
    assert cli.main(_bad_io_argv(case, tmp_path)) == want
    out = capsys.readouterr().out
    assert out == "" or get_json(out.encode())["error"] in ("usage", "parse")


def test_non_ascii_input_is_a_parse_error():
    code, out = run(["classify-set", "--set", "é", "--filter", "statistical"])
    assert code == EXIT_PARSE
    doc = get_json(out)
    assert doc["error"] == "parse" and "é" in doc["detail"]


def test_internal_error_exits_70(capsys, monkeypatch):
    def broken(cfg):
        raise RuntimeError("a bug")

    row = cli._SUBCOMMANDS["classify-set"]
    monkeypatch.setitem(cli._SUBCOMMANDS, "classify-set", (broken, row[1]))
    code, out = run(_readme("classify-set"))
    assert code == cli.EXIT_SOFTWARE == 70
    doc = get_json(out)
    assert doc["error"] == "internal" and doc["detail"] == "RuntimeError: a bug"
    assert "RuntimeError" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["classify-set", "--set", "(" * 3000 + "residue(2,0)" + ")" * 3000,
     "--filter", "statistical"],
    ["classify-set", "--set", "!" * 3000 + "residue(2,0)", "--filter", "statistical"],
    ["check-admissible", "--seq", "prefix[2]:" * 3000 + "pow(1,1)", "--filter", "frechet",
     "--p", "1"],
    ["dominates", "--filter", "trace(" * 3000 + "frechet" + "; residue(2,0))" * 3000,
     "--filter2", "statistical"],
])
def test_deep_nesting_is_a_parse_error(capsys, argv):
    code, out = run(argv)
    assert code == EXIT_PARSE
    doc = get_json(out)
    assert doc["error"] == "parse" and "nested more than" in doc["detail"]
    assert capsys.readouterr().err == ""


def test_nesting_at_the_limit_parses():
    from fbasis.parsing import _MAX_DEPTH

    code, out = run(["classify-set", "--set", "(" * _MAX_DEPTH + "residue(2,0)"
                     + ")" * _MAX_DEPTH, "--filter", "statistical"])
    assert code == EXIT_OK and get_json(out)["class"] == "stationary"


def _band_config(tmp_path, value):
    path = tmp_path / "band.cfg"
    path.write_text(f"seq = pow(1,0.5)\nfilter = statistical\np = 3/2\nband = {value}\n",
                    encoding="ascii")
    return ["check-admissible", "--config", str(path)]


def test_config_flag_is_true_or_false(tmp_path):
    code, out = run(_band_config(tmp_path, "false"))
    assert code == EXIT_OK and "band" not in get_json(out)
    code, out = run(_band_config(tmp_path, "true"))
    assert code == EXIT_OK and "band" in get_json(out)
    # --band on the command line still turns it on over a config file
    code, out = run(_band_config(tmp_path, "false") + ["--band"])
    assert code == EXIT_OK and "band" in get_json(out)


@pytest.mark.parametrize("value", ["0", "1", "False", "yes", ""])
def test_config_flag_other_values_are_usage_errors(tmp_path, value):
    assert cli.main(_band_config(tmp_path, value)) == EXIT_USAGE


# 10**-200 squared lies below the smallest float, so the product's
# coefficient has no float log; the plain scan finds no block, as it always did
_TINY = "0." + "0" * 199 + "1"


@pytest.mark.parametrize("argv,want", [
    (["classify-set", "--set", f"greedy(pow({_TINY},1); pow(1,-1); 2)"], EXIT_PARSE),
    (["witness", "--seq", f"pow({_TINY},1)", "--weights", "pow(1,-1)", "--p", "2"],
     EXIT_INCONCLUSIVE),
])
def test_underflowing_greedy_product_reaches_the_horizon(capsys, argv, want):
    code, out = run(argv)
    assert code == want
    assert "only 0 greedy blocks complete below the horizon" in get_json(out)["detail"]
    assert capsys.readouterr().err == ""


# 10**400 has no float; a target there is a usage error, not a traceback
_HUGE = "1" + "0" * 400
_LARGE = "1" + "0" * 200  # a float, whose square is not


@pytest.mark.parametrize("c", [_HUGE, _LARGE], ids=["c", "c**p"])
def test_greedy_witness_past_the_float_range(capsys, c):
    """a(n)**p past the float range passes every block threshold, as
    10**200 n**2 does below the horizon: the same blocks."""
    code, out = run(["witness", "--seq", f"pow({c},1)", "--weights", "pow(1,-1)", "--p", "2"])
    assert code == EXIT_REFUTED
    doc = get_json(out)
    code, ref = run(["witness", "--seq", f"pow(1{'0' * 100},1)", "--weights", "pow(1,-1)",
                     "--p", "2"])
    assert doc["blocks"] == get_json(ref)["blocks"]
    assert doc["certificates"]["inverse_p_sum"] == {"kind": "converges", "bound": "2"}
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("gamma,blocks", [(400, 6), (380, 6), (360, 7)])
def test_greedy_witness_with_a_huge_coefficient_and_falling_values(capsys, gamma, blocks):
    """a(n) s(n) = 10**309 ln(n+1)**-gamma lies past the float range at the
    first indices only; every block index has an exact value above its
    block's 2**m, and the values fall short of the next block's."""
    code, out = run(["witness", "--seq", f"powlog(1{'0' * 309},2,-{gamma})",
                     "--weights", "pow(1,-1)", "--p", "1"])
    assert code == EXIT_REFUTED
    doc = get_json(out)
    assert len(doc["blocks"]) == blocks
    inverse = []
    with localcontext() as ctx:
        ctx.prec = 40
        for m, block in enumerate(doc["blocks"], 1):
            for n in block:
                a = Decimal(10) ** 309 * n * n / Decimal(n + 1).ln() ** gamma
                assert a / n > 2 ** m
                inverse.append(float(1 / a))
        # a(n) s(n) falls with n past the last block, and the indices still
        # above the next 2**m carry too little of s to complete its block
        n, mass = doc["blocks"][-1][-1] + 1, 0.0
        while Decimal(10) ** 309 * n / Decimal(n + 1).ln() ** gamma > 2 ** (blocks + 1):
            n, mass = n + 1, mass + 1 / n
        assert mass < 1
    assert doc["prefix_inverse_sum"] == pytest.approx(math.fsum(inverse), rel=1e-9, abs=0)
    assert capsys.readouterr().err == ""


def _greedy_refutation(doc):
    # a**p * s = 10**400 n**(1/2) is unbounded on a set of infinite mass
    assert doc["witness"].startswith("greedy(")
    assert doc["certificate"]["witness_filter_mass"] == {"kind": "diverges"}


def _inconclusive_class(doc):
    assert doc["class"] == "inconclusive"


def _bound_covers(*keys, upper):
    """The exact bound under ``keys`` is at least ``upper``, itself at least
    the true sum, so the bound is one."""
    def check(doc):
        for key in keys:
            doc = doc[key]
        assert Fraction(doc) >= upper
    return check


_TINY_400 = "0." + "0" * 399 + "1"
# upper estimates: pi**2 / 6 < 1.6449340668482264365, and
# sum_n n**-2 ln(n+1)**400 < 1.0001 * 400! (the integral, plus the
# largest term, plus the error of ln(x+1) against ln(x))
_ZETA_2 = 10 ** 400 * Fraction(16449340668482264365, 10 ** 19)


def _geom_negligible(doc):
    # the mass 10**400 sum_m 2**(-m/2) = 10**400 / (sqrt(2) - 1) of geom(2)
    # converges, with a bound past the float range
    assert doc["class"] == "negligible"
    v = weight_sum(GeometricIndex(2), PowerLog(10 ** 400, Fraction(-1, 2)))
    assert v.kind == "converges"
    assert v.bound >= 10 ** 400 * Fraction(24142135623730950489, 10 ** 19)


def _geom_log_power_negligible(doc):
    # sum_m 2**(-m/1000) ln(2**m + 1)**3 >= ln(2)**3 sum_m m**3 rho**m, rho =
    # 2**(-1/1000), which is ln(2)**3 rho (1 + 4 rho + rho**2) / (1 - rho)**4
    assert doc["class"] == "negligible"
    v = weight_sum(GeometricIndex(2), PowerLog(1, Fraction(-1, 1000), Fraction(3)))
    rho = 2.0 ** (-1 / 1000)
    assert v.kind == "converges"
    assert v.bound >= math.log(2) ** 3 * rho * (1 + 4 * rho + rho ** 2) / (1 - rho) ** 4


def _negligible_index_set(doc):
    # finite{4,19} carries finite mass under any summable filter
    assert doc["error"] == "parse"
    assert doc["detail"].endswith("the index set is negligible for the base filter")


def _no_blocks(doc):
    assert doc["outcome"] == "horizon-exceeded"
    assert doc["detail"] == "only 0 greedy blocks complete below the horizon"


def _pair_blocks(doc):
    # a(n)**2 s(n) = 10**4 n**800 / 2 passes every 2**m up to m = 1023, and
    # two indices of mass 1/2 complete each block
    assert doc["blocks"] == [[2 * m - 1, 2 * m] for m in range(1, 9)]
    assert doc["certificates"]["filter_mass"] == {"kind": "diverges"}
    # sum_n 10**-4 n**-800 < 1.0001 * 10**-4
    _bound_covers("certificates", "inverse_p_sum", "bound", upper=Fraction(10001, 10 ** 8))(doc)


def _separate_powlog_upper() -> Fraction:
    """(1 + 1/10) sum_n n**-400 ln(n+1)**(1/1000) / 10, from above: the first
    term to 40 digits plus 10**-30, and 2**-399 for the terms from n = 2."""
    with localcontext() as ctx:
        ctx.prec = 40
        first = (Decimal(2).ln().ln() / 1000).exp()
    return Fraction(11, 100) * (Fraction(first) + Fraction(1, 10 ** 30) + Fraction(1, 2 ** 399))


@pytest.mark.parametrize("argv,want,check", [
    (["classify-set", "--set", f"greedy(pow({_HUGE},1); pow(1,-1); 2)", "--filter", "frechet"],
     EXIT_INCONCLUSIVE, _inconclusive_class),
    (["check-admissible", "--seq", f"pow({_HUGE},1)", "--filter", "summable(pow(1,-1/2))",
      "--p", "1"], EXIT_REFUTED, _greedy_refutation),
    # thresholds 2**k k**2 past the float range end the scan, not the run
    *[(["classify-set", "--set", f"thresh({t})", "--filter", "summable(pow(1,-1))"],
       EXIT_INCONCLUSIVE, _inconclusive_class)
      for t in ("pow(1,60); 1", "pow(1,10); 6", f"pow({_HUGE},1); 1")],
    # sums whose coefficient or terms lie past the float range keep their
    # verdicts, with exact bounds
    (["check-admissible", "--seq", f"pow({_TINY_400},2)", "--filter", "frechet", "--p", "1"],
     EXIT_REFUTED, _bound_covers("certificate", "inverse_p_sum", "bound", upper=_ZETA_2)),
    (["separate", "--seq", f"pow({_TINY_400},2)", "--dual", "linf"],
     EXIT_OK, _bound_covers("norm_bound", upper=Fraction(11, 10) * _ZETA_2)),
    (["classify-set", "--set", "geom(2)", "--filter", f"summable(pow({_HUGE},-1/2))"],
     EXIT_OK, _geom_negligible),
    (["check-admissible", "--seq", "powlog(1,2,-400)", "--filter", "summable(pow(1,-1))",
      "--p", "1"],
     EXIT_REFUTED, _bound_covers("certificate", "inverse_p_sum", "bound",
                                 upper=Fraction(10001, 10000) * math.factorial(400))),
    # the settle test needs elements past e**3000: where they leave the float
    # range the tail is bounded on the element index instead
    (["classify-set", "--set", "geom(2)", "--filter", "summable(powlog(1,-1/1000,3))"],
     EXIT_OK, _geom_log_power_negligible),
    # a coefficient with no float, inside a power-log value
    (["dominates", "--filter", "trace(frechet; geom(2)|geom(2))", "--filter2",
      f"trace(summable(powlog({_HUGE},5/4,-5/4)); finite{{4,19}})"],
     EXIT_PARSE, _negligible_index_set),
    # the turn of n**(1/1000) ln(n+1)**-400 lies at e**400000
    (["witness", "--seq", "const(5)", "--weights", "powlog(100,1/1000,-400)", "--p", "1"],
     EXIT_INCONCLUSIVE, _no_blocks),
    # prefix values of a(n)**p s(n) below the float range
    (["witness", "--seq", "prefix[1/2,5]:pow(100,-3/4)", "--weights",
      f"powlog({_TINY_400},-5/4,-3)", "--p", "2"], EXIT_INCONCLUSIVE, _no_blocks),
    # block thresholds 2**m past the float range end the scan
    (["witness", "--seq", "pow(100,400)", "--weights", "const(1/2)", "--p", "2"],
     EXIT_REFUTED, _pair_blocks),
    # the integral test's factor (2**d / (e d))**k with d = 199500
    (["separate", "--seq", "powlog(10,400,-1/1000)"],
     EXIT_OK, _bound_covers("norm_bound", upper=_separate_powlog_upper())),
], ids=["classify-set", "check-admissible", "thresh-60", "thresh-10-6", "thresh-c",
        "sum-c-frechet", "sum-c-separate", "sum-c-geom", "sum-log-power", "sum-geom-settle",
        "powlog-c", "monotone-start", "prefix-product", "greedy-bar", "tail-factor"])
def test_witness_sets_past_the_float_range_answer(capsys, argv, want, check):
    code, out = run(argv)
    assert code == want
    check(get_json(out))
    assert capsys.readouterr().err == ""


_TARGET_1 = "target norm at stage 1 lies beyond the float range"


@pytest.mark.parametrize("argv,detail", [
    (["build-basis", "--seq", f"pow({_HUGE},1)", "--space", "l1", "--filter", "frechet",
      "--n-max", "3"], _TARGET_1),
    (["demo-convergence", "--seq", f"const({_HUGE})", "--space", "l1", "--filter", "frechet",
      "--n-max", "3", "--vector", "e(1)"], _TARGET_1),
    # the float mass S = b_1**p + ... + b_n**p passes the float range: the
    # next coefficient S / W would be +inf, and W = S / b**p nan
    (["build-basis", "--seq", "const(2)", "--space", "lp(3/2)", "--filter", "frechet",
      "--n-max", "2230"], "coefficient at stage 2215 lies beyond the float range"),
    (["build-basis", "--seq", "const(2)", "--space", "lp(4)", "--filter", "frechet",
      "--n-max", "4000"], "coefficient at stage 2833 lies beyond the float range"),
    # the exact l2 phase: the square b**2 stays exact, the coefficient b leaves the range
    (["build-basis", "--seq", "const(2)", "--space", "l2", "--filter", "frechet",
      "--n-max", "4941"], "coefficient at stage 4940 lies beyond the float range"),
    (["build-basis", "--a-squared", "const(2)", "--space", "l2", "--filter", "frechet",
      "--n-max", "2050"], "coefficient at stage 2049 lies beyond the float range"),
    # a = 1e200 is a float, W = a**4 (1 - a**(-4/3))**3 is not: b_2**4 = 1 / W underflows
    (["build-basis", "--seq", f"const(1{'0' * 200})", "--space", "lp(4)", "--filter",
      "frechet", "--n-max", "4"], "coefficient at stage 1 lies beyond the float range"),
    # an exponent p past the float range, refused where it meets the sequences
    (["check-admissible", "--seq", "pow(1,1)", "--filter", "frechet", "--p", "1e400"],
     "the exponent lies beyond the float range"),
    (["witness", "--seq", "pow(1,1)", "--weights", "pow(1,-1)", "--p", "1e400"],
     "the exponent lies beyond the float range"),
    (["build-basis", "--seq", "const(2)", "--space", "lp(1e400)", "--filter", "frechet",
      "--n-max", "4"], "the exponent lies beyond the float range"),
], ids=["argv0", "argv1", "mass-lp-3/2", "mass-lp-4", "exact-l2", "exact-l2-squares",
        "ratio-lp-4", "p-admissible", "p-witness", "p-space"])
def test_targets_beyond_the_float_range_are_usage_errors(capsys, argv, detail):
    code, out = run(argv)
    assert code == EXIT_USAGE
    doc = get_json(out)
    assert doc["error"] == "usage"
    assert doc["detail"] == detail
    assert capsys.readouterr().err == ""


# 1 + 10**-20, whose float is 1.0; 1 + 1.5 10**-16, whose float 1 + 2**-52
# overstates the excess over 1 by half; 1 + 10**-400, whose excess has no float
_NEAR_ONE = ("1.00000000000000000001", "1.00000000000000015", "1." + "0" * 399 + "1")


def _refuted_over_the_line(alpha: str):
    def check(doc):
        assert doc["verdict"] == "refuted" and doc["witness"] == "cofinite{}"
        _bound_covers("certificate", "inverse_p_sum", "bound",
                      upper=1 / (Fraction(alpha) - 1))(doc)
    return check


def _not_divergent(doc):
    assert doc["error"] == "parse"
    assert doc["detail"].endswith("summable filters need weights with a divergent total sum")


def _key_is(key, value):
    def check(doc):
        assert doc[key] == value
    return check


_SUBNORMAL = "0." + "0" * 322 + "1"  # 10**-323, a subnormal float


@pytest.mark.parametrize("argv,want,check", [
    # sum_m ln(2**m + 1)**-1000 over geom(2): ln(1.5)**-1000 has no float
    (["check-admissible", "--seq", "powlog(1,0,1)", "--filter", "frechet", "--p", "1000"],
     EXIT_REFUTED, _key_is("witness", "geom(2)")),
    # n**(10**-400) ln(n+1)**-(1 - 10**-20) turns near e**(10**400), past any scan
    (["witness", "--seq", f"powlog(1,{_TINY_400},-0.{'9' * 20})",
      "--weights", "pow(2,0)", "--p", "1.000000000000001"],
     EXIT_INCONCLUSIVE, _key_is("outcome", "horizon-exceeded")),
    # ln(n+1) / n**(10**-323) over geom(2) converges, with a subnormal decay
    # rate that the float bound cannot use
    (["classify-set", "--set", "!geom(2)", "--filter", f"summable(powlog(2,-{_SUBNORMAL},1))"],
     EXIT_INCONCLUSIVE, _key_is("class", "inconclusive")),
    # sum_n n**-alpha ln(n+1) at alpha = 1 + 10**-20, whose float is 1.0
    (["check-admissible", "--seq", f"powlog(1,{_NEAR_ONE[0]},-1)", "--filter", "frechet",
      "--p", "1"], EXIT_REFUTED, _refuted_over_the_line(_NEAR_ONE[0])),
], ids=["log-power-1000", "monotone-turn", "subnormal-decay", "log-numerator"])
def test_boundary_exponents_answer_within_the_contract(capsys, argv, want, check):
    code, out = run(argv)
    assert code == want
    check(get_json(out))
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv,want,check", [
    # sum_n n**-alpha and sum_n n**-1 ln(n+1)**-alpha are at least 1 / (alpha - 1),
    # the integral; the separator's norm bound is (1 + margin) times the sum
    *[(["separate", "--seq", seq, "--dual", "linf", "--margin", "0.1"], EXIT_OK,
       _bound_covers("norm_bound", upper=Fraction(11, 10) / (Fraction(alpha) - 1)))
      for alpha in _NEAR_ONE for seq in (f"pow(1,{alpha})", f"powlog(1,1,{alpha})")],
    *[(["check-admissible", "--seq", f"pow(1,{alpha})", "--filter", "frechet", "--p", "1"],
       EXIT_REFUTED, _refuted_over_the_line(alpha)) for alpha in _NEAR_ONE],
    (["classify-set", "--set", "residue(2,0)", "--filter",
      f"summable(pow(1,-{_NEAR_ONE[0]}))"], EXIT_PARSE, _not_divergent),
], ids=[*(f"separate-{kind}-{k}" for k in (20, 16, 400) for kind in ("pow", "powlog")),
        *(f"admissible-{k}" for k in (20, 16, 400)), "summable-weights"])
def test_exponents_just_past_one_are_decided_on_their_exact_value(capsys, argv, want, check):
    code, out = run(argv)
    assert code == want
    check(get_json(out))
    assert capsys.readouterr().err == ""


def test_exact_builds_stop_at_the_digit_limit(capsys):
    """An exact build whose stored power has more digits than ``str`` may
    make stops as that power is made, with a usage error that names the
    stage and the limit, not with the renderer's ValueError (exit 70).
    Builds up to that stage render, and the demo, which renders no
    coefficient, runs past it."""
    import sys

    argv = ["build-basis", "--seq", "const(2)", "--space", "l1", "--filter", "frechet"]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out = run(argv + ["--n-max", "1400"])
        assert code == EXIT_USAGE
        detail = get_json(out)["detail"]
        # stage n stores b_{n+1} = 3**(n-1) / 2**n; 3**1341 has 640 digits, 3**1342 641
        assert detail == ("coefficient at stage 1343 passes the limit of 640 digits "
                          "for integer string conversion")
        code, out = run(argv + ["--n-max", "1343"])
        assert code == EXIT_OK and get_json(out)["coefficients"][-1] == f"{3 ** 1341}/{2 ** 1342}"
        demo = ["demo-convergence"] + argv[1:] + ["--n-max", "1400", "--vector", "e(1)"]
        assert run(demo)[0] == EXIT_OK
    finally:
        sys.set_int_max_str_digits(limit)
    assert capsys.readouterr().err == ""


_BIG_PERIOD = "residue(1009,0) & residue(1013,0)"  # lcm 1022117, past the period cap


@pytest.mark.parametrize("argv,want,detail", [
    (["classify-set", "--set", _BIG_PERIOD, "--filter", "frechet"], EXIT_INCONCLUSIVE, None),
    (["check-admissible", "--seq", "pow(1,1)", "--filter",
      "trace(frechet;residue(1009,0)&residue(1013,0))", "--p", "1"], EXIT_PARSE,
     "at byte 0: could not verify the index set is stationary"),
    (["check-admissible", "--seq", "piece{residue(1009,0) => const(2); !residue(1009,0) & "
      "residue(1013,0) => const(2); !residue(1009,0) & !residue(1013,0) => const(3)}",
      "--filter", "frechet", "--p", "1"], EXIT_PARSE,
     "at byte 0: piece sets not provably disjoint"),
    (["profile-lemma1", "--seq", "pow(1,1/2)", "--vectors", "powtail(-1)", "--grid", "10"],
     EXIT_PARSE, "at byte 0: a power tail needs a positive decay exponent"),
    (["demo-convergence", "--seq", "const(2)", "--space", "l1", "--filter", "frechet",
      "--vector", "e(0)"], EXIT_PARSE, "at byte 0: a basis vector index must be >= 1"),
    (["check-admissible", "--seq", "pow(1,3/0)", "--filter", "frechet", "--p", "1"], EXIT_PARSE,
     "at byte 8: zero denominator (expected a nonzero denominator)"),
    (["classify-set", "--set", "geom(4/0)", "--filter", "frechet"], EXIT_PARSE,
     "at byte 7: zero denominator (expected a nonzero denominator)"),
    (["classify-set", "--set", "residue(2,0)", "--filter", "summable(pow(1,-1/0))"], EXIT_PARSE,
     "at byte 18: zero denominator (expected a nonzero denominator)"),
    (["check-admissible", "--seq", "prefix[2,1/0]:const(2)", "--filter", "frechet", "--p", "1"],
     EXIT_PARSE, "at byte 11: zero denominator (expected a nonzero denominator)"),
    (["classify-set", "--set", "geom(1.2.3/2)", "--filter", "frechet"], EXIT_PARSE,
     "at byte 5: Invalid literal for Fraction: '1.2.3' (expected number)"),
], ids=["period-classify", "period-trace", "period-piece", "powtail-negative", "e-0",
        "zero-den-seq", "zero-den-set", "zero-den-filter", "zero-den-prefix", "bad-numerator"])
def test_inputs_that_cannot_be_analysed_or_built_are_not_internal_errors(
        capsys, argv, want, detail):
    code, out = run(argv)
    assert code == want
    doc = get_json(out)
    if detail is None:
        assert doc["class"] == "inconclusive"
    else:
        assert doc["error"] == "parse" and doc["detail"] == detail
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv,detail", [
    (["profile-lemma1", "--seq", "pow(1,1/2)", "--vectors", "spike(sampled{1,3;10}; pow(1,-2))",
      "--grid", "10,20"], "the coordinates of spike(sampled{1,3;10}; pow(1,-2)) are unknown: "
     "membership only known up to 10, asked for 20"),
    (["profile-lemma1", "--seq", "pow(1,1/2)", "--vectors",
      "spike(thresh(pow(1,60); 1); pow(1,-60))", "--grid", "10,200000"],
     "the coordinates of spike(thresh(pow(1,60); 1); pow(1,-60)) are unknown: "
     "membership only known up to 137181, asked for 200000"),
    (["demo-convergence", "--seq", "const(2)", "--space", "l1", "--filter", "frechet",
      "--n-max", "12", "--vector", "spike(sampled{1,3;10}; const(1))"],
     "support membership undecidable at n=11"),
    (["profile-lemma1", "--seq", "pow(1,1/2)", "--vectors",
      "spike(greedy(pow(1,2); pow(1,-1); 1); pow(1,-2))", "--grid", "10,2000000"],
     "the coordinates of spike(greedy(pow(1,2); pow(1,-1); 1); pow(1,-2)) are unknown: "
     "membership only known up to 1000000, asked for 2000000"),
], ids=["sampled-profile", "thresh-profile", "sampled-demo", "greedy-profile"])
def test_coordinates_past_a_known_horizon_are_usage_errors(capsys, argv, detail):
    """A vector coordinate whose support membership is unknown, past a
    sampled, threshold or greedy horizon, is a usage error, never an
    internal error and never a non-member."""
    code, out = run(argv)
    assert code == EXIT_USAGE
    doc = get_json(out)
    assert doc["error"] == "usage" and doc["detail"] == detail
    assert capsys.readouterr().err == ""


def _demo(vector, seq="const(2)", space="l2", filt="frechet", n_max="5"):
    return ["demo-convergence", "--seq", seq, "--space", space, "--filter", filt,
            "--n-max", n_max, "--vector", vector]


def test_profile_of_a_spike_past_the_float_range_saturates(capsys):
    """10**400 n has no float: the norm bound and the profile saturate."""
    code, out = run(["profile-lemma1", "--seq", "pow(1,1)", "--vectors",
                     f"spike(finite{{3,7}}; pow({_HUGE},1))", "--grid", "10,200000"])
    assert code == EXIT_OK
    assert get_json(out)["rows"] == [[10, "inf", "inf"], [200000, "inf", "inf"]]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("vector", [f"spike(finite{{3,7}}; pow({_HUGE},1))",
                                    f"powtail(2,{_HUGE})"], ids=["spike", "powtail"])
def test_a_norm_bound_past_the_float_range_is_inf(vector):
    assert parse_test_vector(vector).norm_upper(1) == math.inf


def test_stage_defects_past_the_float_range_saturate(capsys):
    """x_2 = x_5 = 10**400: those defects are +inf, the others 0."""
    code, out = run(_demo(f"spike(residue(3,2); const({_HUGE}))"))
    assert code == EXIT_OK
    doc = get_json(out)
    assert doc["stage_defects"] == ["inf", 0, 0, "inf"]
    assert doc["verdict"] == {"kind": "does-not-converge", "epsilon": 1,
                              "witness": "residue(3,1)"}
    assert capsys.readouterr().err == ""


def test_shift_ratio_of_amplitudes_past_the_float_range(capsys):
    """10**-400 n**-400 is 0.0 in floats at every n; the ratios of its
    neighbours are exact, (n/(n+1))**400, so the levels are still decided."""
    code, out = run(_demo(f"spike(geom(2); pow({_TINY_400},-400))", filt="statistical",
                          n_max="30"))
    assert code == EXIT_OK
    doc = get_json(out)
    assert doc["stage_defects"] == [0] * 29
    assert doc["verdict"] == {"kind": "converges", "value": 0}
    assert capsys.readouterr().err == ""


def test_a_shift_ratio_past_the_float_range_leaves_the_levels_open(capsys):
    """2**2000 bounds the ratios of n**2000 and has no float: no over- or
    under-sets, while x_2 = 2**2000 and x_4 = 4**2000 saturate."""
    code, out = run(_demo("spike(geom(2); pow(1,2000))", space="l1"))
    assert code == EXIT_INCONCLUSIVE
    doc = get_json(out)
    assert doc["stage_defects"] == ["inf", 0, "inf", 0]
    assert doc["verdict"] == {"kind": "inconclusive", "reason": "21 epsilon levels undecided"}
    assert capsys.readouterr().err == ""


def test_a_head_product_past_the_float_range_leaves_the_limsup_open(capsys):
    """a = prefix[sqrt 5]:const(10**200) against 10**-400 n**(-1/3): their
    tail product tends to 0, but the head product sqrt(5) 10**-400 has no
    float, so the product has no listed head and no limit.  The limsup
    bound, read off the two tail forms, settles no level either."""
    code, out = run(["demo-convergence", "--a-squared", f"prefix[5]:const({_HUGE})",
                     "--space", "l1", "--filter", "frechet", "--n-max", "3",
                     "--vector", f"powtail(1/3,{_TINY_400})"])
    assert code == EXIT_INCONCLUSIVE
    assert get_json(out)["verdict"]["kind"] == "inconclusive"
    assert capsys.readouterr().err == ""


def test_a_scaled_defect_bound_past_the_float_range_leaves_its_levels_open(capsys):
    """The prefix value 10**-400 of the target times the shift ratio has no
    float, so the defect bound has no threshold sets: every level is open."""
    seq = (f"piece{{residue(2,0) => pow(1/2,60); "
           f"residue(2,1) => prefix[2,{_TINY_400},2]:powlog({_HUGE},-1,-1/2)}}")
    code, out = run(_demo("powtail(1,1/2)", seq=seq, space="l1", filt="statistical", n_max="2"))
    assert code == EXIT_INCONCLUSIVE
    doc = get_json(out)
    assert doc["verdict"] == {"kind": "inconclusive", "reason": "21 epsilon levels undecided"}
    assert {e["over_set"] for e in doc["epsilon_table"]} == {None}
    assert capsys.readouterr().err == ""


def test_profile_over_an_inverse_sum_that_underflows_is_a_usage_error(capsys):
    """a = 10**400: each a**-1 is 0.0 in floats, so A(n) and B(n) would
    divide by a partial sum of 0.0."""
    code, out = run(["profile-lemma1", "--seq", f"const({_HUGE})", "--vectors", "e(2)",
                     "--grid", "10,200000"])
    assert code == EXIT_USAGE
    assert get_json(out)["detail"] == "the partial sum of a**-1 up to n=10 underflows to 0.0"
    assert capsys.readouterr().err == ""


def test_a_saturated_profile_prints_no_nan():
    """Where the sums of a**-1, of the coordinates and of the norm bound all
    saturate to +inf in floats, A(n) is their ratio taken in logs, and B(n),
    whose certified norm bound is +inf itself, is "inf": no row is "nan"."""
    support = "finite{8,13}|geom(3)"
    code, out = run(["profile-lemma1", "--seq", f"pow({_TINY_400},-1/2)", "--vectors",
                     f"spike(({support}); powlog({_HUGE},-3/4,-1/3))", "--grid", "10,100"])
    assert code == EXIT_OK and b"nan" not in out
    members = np.flatnonzero(parse_set_expr(support).mask(100)) + 1
    for n, average, bound in get_json(out)["rows"]:
        m = members[members <= n]  # 10**400 cancels from the ratio
        want = np.sum(m ** -0.75 * np.log(m + 1) ** (-1 / 3)) / np.sum(np.arange(1, n + 1) ** 0.5)
        assert average == pytest.approx(float(want), rel=1e-9) and bound == "inf"


@pytest.mark.parametrize("argv,code", [(["--help"], 0), (["ten"], 2), (["--against"], 2)])
def test_the_startup_script_reads_its_options_first(argv, code, capsys):
    """``tests/startup.py`` prints its usage on --help and refuses a malformed
    run count with a message, before it starts any interpreter."""
    import startup

    with pytest.raises(SystemExit) as exc:
        startup.main(argv)
    assert exc.value.code == code
    assert "usage: " in capsys.readouterr()[code != 0]


@pytest.mark.parametrize("argv,code", [(["--help"], 0), (["ten", "1"], 2), (["5", "x"], 2),
                                       (["--builds", "5"], 2), (["--builds", "--vectors", "5", "1"], 2)])
def test_the_fuzz_script_reads_its_options_first(argv, code, capsys):
    """``tests/fuzz_grammar.py`` prints its usage on --help and refuses a
    malformed OPS or SEED with a message, before it runs any command line."""
    with pytest.raises(SystemExit) as exc:
        fuzz_grammar.main(argv)
    assert exc.value.code == code
    assert "usage: " in capsys.readouterr()[code != 0]


@pytest.mark.parametrize("margin,detail", [("nan", "the margin must be finite"),
                                           ("inf", "the margin must be finite"),
                                           ("1e309", "the margin must be finite"),
                                           ("0", "the margin must be positive"),
                                           ("-1", "the margin must be positive")])
def test_a_margin_outside_the_positive_floats_is_a_usage_error(margin, detail):
    """``separate`` refuses a margin that is not a positive float, nan and
    +inf (1e309 reads as +inf) included, with exit 64."""
    code, out = run(["separate", "--seq", "pow(1,2)", "--margin", margin])
    assert (code, get_json(out)["detail"]) == (EXIT_USAGE, detail)


def test_a_margin_reads_as_a_ratio_or_a_decimal():
    """``--margin`` takes the ratio syntax of every other number option; 1/10
    reads as the float of 0.1, so both print the same report."""
    reports = [run(["separate", "--seq", "pow(1,2)", "--dual", "linf", "--margin", m])
               for m in ("1/10", "0.1")]
    assert reports[0] == reports[1] and reports[0][0] == EXIT_OK


@pytest.mark.parametrize("grid", ["0", "-5", "10,0,100"])
def test_a_grid_point_below_1_is_a_usage_error(grid):
    """``profile-lemma1`` averages over the indices 1 .. n: a grid point
    below 1 exits 64."""
    code, out = run(["profile-lemma1", "--seq", "pow(1,1)", "--vectors", "e(1)", "--grid", grid])
    assert (code, get_json(out)["detail"]) == (EXIT_USAGE, "the grid points must be at least 1")


def test_an_exponent_near_1_builds_at_once():
    """At p = 1 + 10**-21 the admissibility check asks for the 10**21-th root
    of 2, which is not an integer: it is refused at once, not after a Newton
    step that forms 2**(10**21 - 1).  The build runs in a child process with
    a timeout, as no signal interrupts a power of that size."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import fbasis

    env = dict(os.environ)
    src = str(Path(fbasis.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    argv = ["build-basis", "--seq", "const(2)", "--space", "lp(1.000000000000000000001)",
            "--filter", "frechet", "--n-max", "4"]
    out = subprocess.run([sys.executable, "-m", "fbasis.cli", *argv],
                         env=env, capture_output=True, timeout=20)
    assert out.returncode == EXIT_OK and get_json(out.stdout)["outcome"] == "built"
