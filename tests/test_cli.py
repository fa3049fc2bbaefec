from fractions import Fraction


from fbasis import parse_scalar_seq, parse_set_expr, set_equal
from fbasis.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_REFUTED,
    EXIT_USAGE,
    load_config,
    run_command,
)


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
