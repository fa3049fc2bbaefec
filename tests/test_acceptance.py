"""Acceptance suite: one criterion per test, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time
from fractions import Fraction

import numpy as np
import pytest

from fbasis import (
    BasisVector,
    ClusterWitness,
    Constant,
    CriterionHolds,
    ExplicitPrefix,
    Frechet,
    GeometricIndex,
    NATURALS,
    NotAdmissible,
    NotSeparable,
    PowerLog,
    PowerTail,
    Shifted,
    Spike,
    Statistical,
    Summable,
    TailOp,
    build_basis,
    check_admissible,
    cluster_witness,
    convergence_demo,
    defect_report,
    l1,
    l2,
    lp,
    nonadmissibility_witness,
    op_norm,
    op_norm_bruteforce,
    parse_set_expr,
    plank_separator,
    remainder_norm,
    solve_b_next,
    sum_inverse_p_verdict,
    weight_sum,
)
from fbasis.cli import load_config, run_command
from fbasis.lp_operators import riesz_thorin_upper
from fbasis.sequences import is_bounded

from conftest import random_power_seq, random_set_expr, random_target_seq

HARMONIC = PowerLog(1, Fraction(-1))


def _report(num, text):
    print(f"ACCEPTANCE {num} PASS: {text}")


def test_criterion_1_l1_construction_exactness():
    start = time.perf_counter()
    sys = build_basis(Constant(2), l1(64), Summable(Constant(Fraction(1, 2))), n_max=50)
    b = sys.coefficients
    for n in range(1, 50):
        assert b[n] == sum(b[:n], Fraction(0)) / 2
    for T in sys.stages:
        brute = op_norm_bruteforce(T)
        assert brute.exact == 2
    assert all(c == 2 for c in sys.defect_coeffs)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _report(1, f"l1 recurrence, brute-force norms and defects exact at n=50 in {elapsed:.3f}s")


def test_criterion_2_l2_construction_exactness():
    sys = build_basis(None, l2(64), Frechet(), n_max=50, a_squared=Constant(2))
    sq = sys.coefficients_squared
    for n in range(1, 50):
        assert sq[n] == sum(sq[:n], Fraction(0))
    worst = 0.0
    for T, rep in zip(sys.stages, sys.norm_reports):
        assert rep.exact_square == 2
        svd = float(np.linalg.svd(T.dense_matrix(T.stage + 2), compute_uv=False)[0])
        worst = max(worst, abs(svd - rep.value))
    assert worst <= 1e-9
    _report(2, f"l2 squared recurrence exact at n=50; SVD oracle gap {worst:.2e}")


def test_criterion_3_lp_norm_prescription():
    start = time.perf_counter()
    rng = random.Random(0)
    space = lp(Fraction(3, 2), 32)
    b = [1.0]
    for trial in range(10):
        target = 1.0 + 0.05 + rng.random() * 2.9  # in (1, 4)
        nxt = solve_b_next(tuple(b), target, space)
        b.append(nxt)
        T = TailOp(len(b) - 1, tuple(b), space)
        rep = op_norm(T)
        assert abs(rep.value - target) <= 1e-6
        brute = op_norm_bruteforce(T, budget=300, seed=trial)
        assert rep.value - brute.value <= 1e-6
        assert brute.value <= riesz_thorin_upper(T.b_floats(), 1.5) + 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(3, f"10 seeded p=1.5 prescriptions within 1e-6, oracle-confirmed, in {elapsed:.2f}s")


def test_criterion_4_remainder_sandwich():
    checked = 0
    for space, a in (
        (l1(32), Constant(2)),
        (l2(32), Constant(2)),
        (lp(Fraction(3, 2), 32), Constant(Fraction(5, 2))),
    ):
        sys = build_basis(a, space, Frechet(), n_max=8)
        for T, rep in zip(sys.stages, sys.norm_reports):
            r = remainder_norm(T)
            assert max(1.0, rep.value - 1.0) - 1e-9 <= r.value <= rep.value + 1.0 + 1e-9
            if space.is_l1:
                assert r.exact == rep.exact + 1  # the upper edge is attained
            checked += 1
    _report(4, f"remainder sandwich held on {checked} stages across p in {{1, 1.5, 2}}")


def test_criterion_5_defect_inequality():
    rng = random.Random(19)
    spaces = [l1(32), l2(32), lp(Fraction(3, 2), 32)]
    checked = 0
    tries = 0
    while checked < 50 and tries < 400:
        tries += 1
        a = random_target_seq(rng)
        try:
            sys = build_basis(a, spaces[checked % 3], Frechet(), n_max=6)
        except NotAdmissible:
            continue
        rep = defect_report(sys)
        assert rep.within_unit
        checked += 1
    assert checked >= 50
    _report(5, f"|c_n - a_n| <= 1 on {checked} randomized admissible targets")


def test_criterion_6_admissibility_criteria():
    v = check_admissible(PowerLog(1, Fraction(1, 2)), Statistical(), 2)
    assert v.kind == "proved"
    linear = PowerLog(1, Fraction(1))
    for F in (Frechet(), Statistical(), Summable(HARMONIC)):
        v = check_admissible(linear, F, 2)
        assert v.kind == "refuted"
        assert v.witness == NATURALS
        assert v.certificate.inverse_p_sum.kind == "converges"
    rng = random.Random(17)
    coherent = 0
    for _ in range(100):
        a = random_power_seq(rng, beta_range=(-1, 2))
        b = is_bounded(a)
        verdict = check_admissible(a, Frechet(), 1)
        if b is True:
            assert verdict.kind == "proved"
        elif b is False:
            assert verdict.kind != "proved"
        coherent += 1
    assert coherent == 100
    _report(6, "statistical sqrt proved, linear refuted with certificate, "
               "Frechet boundedness coherent on 100 sequences")


def test_criterion_7_summable_criterion_equivalence():
    from fbasis.admissibility import summable_criterion, _library_sweep

    rng = random.Random(41)
    agreements = 0
    tries = 0
    while agreements < 50 and tries < 200:
        tries += 1
        a = random_power_seq(rng, beta_range=(0, 2), allow_log=False)
        s = PowerLog(1, -Fraction(rng.randrange(1, 4), 4))
        status, _ = summable_criterion(a, s, 1)
        if status == "unknown":
            continue
        F = Summable(s)
        verdict = check_admissible(a, F, 1)
        if status == "bounded":
            assert verdict.kind == "proved"
            assert _library_sweep(a, F, Fraction(1)).kind == "inconclusive"
            with pytest.raises(CriterionHolds):
                nonadmissibility_witness(a, s, 1)
        else:
            assert verdict.kind == "refuted"
            witness = nonadmissibility_witness(a, s, 1)
            sums = witness.block_sums()
            assert all(1.0 <= x <= 2.0 + 1e-12 for x in sums)
            assert witness.prefix_inverse_sum() <= 2.0
            assert weight_sum(witness, s).kind == "diverges"
        agreements += 1
    assert agreements >= 50
    _report(7, f"criterion and witness search agree on {agreements} pairs; "
               "all greedy certificates verified")


def test_criterion_8_separator_witness_dichotomy():
    from fbasis import Spike
    from fbasis.separation import ClusterNotFound

    rng = random.Random(37)
    separators = witnesses = 0
    tried = 0
    while separators + witnesses < 30 and tried < 300:
        tried += 1
        a = random_power_seq(rng, beta_range=(0, 3), allow_log=False)
        p, dual = ((1, "linf-diagonal"), (2, "l2-diagonal"))[tried % 2]
        verdict = sum_inverse_p_verdict(a, p)
        if verdict.kind == "converges":
            sep = plank_separator(a, dual, 0.25)
            assert sep.identity_exact  # |a_n x_n| = 1.25 algebraically
            assert float(sep.identity_constant) == pytest.approx(1.25)
            # the separator itself defeats the cluster search
            blocked = cluster_witness(a, p, [Spike(NATURALS, sep.vector)], horizon=2000)
            assert isinstance(blocked, ClusterNotFound)
            assert blocked.running_min == pytest.approx(1.25)
            separators += 1
        elif verdict.kind == "diverges":
            with pytest.raises(NotSeparable):
                plank_separator(a, dual, 0.25)
            w = cluster_witness(a, p, [BasisVector(1), PowerTail(Fraction(2))], horizon=10 ** 4)
            assert isinstance(w, ClusterWitness)
            witnesses += 1
    assert separators + witnesses >= 30
    assert separators >= 5 and witnesses >= 5
    _report(8, f"dichotomy fired on {separators} separators (each blocking the cluster "
               f"search at 1.25) and {witnesses} cluster witnesses")


def test_criterion_9_non_schauder_demo():
    a = ExplicitPrefix((2,), PowerLog(1, Fraction(1)))
    sys = build_basis(a, l1(64), Summable(HARMONIC), n_max=10)
    spike = Spike(
        Shifted(GeometricIndex(Fraction(2)), 1), PowerLog(1, Fraction(0), Fraction(-2))
    )
    under_filter = convergence_demo(sys, spike)
    assert under_filter.verdict.kind == "converges"
    under_frechet = convergence_demo(sys, spike, under=Frechet())
    assert under_frechet.verdict.kind == "does-not-converge"
    # the defect grows along the sparse support but that support is
    # negligible for the summable filter
    entry = under_filter.entries[0]
    assert entry.classification == "negligible"
    assert parse_set_expr(entry.over_set) is not None
    assert convergence_demo(sys, spike, under=Frechet()) == under_frechet
    _report(9, "sparse spike converges under the summable filter and fails under "
               "Frechet, deterministically")


def test_criterion_10_round_trips():
    rng = random.Random(23)
    for _ in range(100):
        s = random_set_expr(rng, depth=rng.randrange(0, 3))
        assert parse_set_expr(s.to_text()) == s
    argv_sets = [
        ["check-admissible", "--seq", "pow(1,0.5)", "--filter", "statistical", "--p", "2"],
        ["check-admissible", "--seq", "pow(1,1)", "--filter", "frechet", "--p", "1"],
        ["check-admissible", "--seq", "const(5)", "--filter", "statistical", "--p", "3/2",
         "--band"],
        ["build-basis", "--seq", "const(2)", "--space", "l1", "--filter",
         "summable(const(0.5))", "--n-max", "6"],
        ["build-basis", "--a-squared", "const(2)", "--space", "l2", "--filter", "frechet",
         "--n-max", "6"],
        ["build-basis", "--seq", "const(2)", "--space", "1.5", "--filter", "frechet",
         "--n-max", "5"],
        ["witness", "--seq", "pow(1,2)", "--weights", "pow(1,-1)", "--p", "1"],
        ["witness", "--seq", "pow(2,1/2)", "--weights", "pow(1,-1/2)", "--p", "2"],
        ["separate", "--seq", "pow(1,2)", "--dual", "linf", "--margin", "0.1"],
        ["separate", "--seq", "pow(1,1)", "--dual", "l2", "--margin", "0.25"],
        ["classify-set", "--set", "residue(2,0)", "--filter", "statistical"],
        ["classify-set", "--set", "!geom(2)", "--filter", "summable(pow(1,-1))"],
        ["classify-set", "--set", "geom(3) & range(10,)", "--filter", "frechet"],
        ["demo-convergence", "--seq", "prefix[2]:pow(1,1)", "--space", "l1", "--filter",
         "summable(pow(1,-1))", "--n-max", "8", "--vector",
         "spike(shift(geom(2),1); powlog(1,0,-2))"],
        ["demo-convergence", "--seq", "const(2)", "--space", "l1", "--filter", "frechet",
         "--n-max", "6", "--vector", "powtail(2)"],
        ["dominates", "--filter", "summable(pow(1,-1))", "--filter2", "frechet"],
        ["dominates", "--filter", "frechet", "--filter2", "statistical"],
        ["dominates", "--filter", "summable(pow(1,-1))", "--filter2",
         "summable(pow(1,-1/2))"],
        ["profile-lemma1", "--seq", "pow(1,1/2)", "--vectors", "powtail(2); e(1)",
         "--grid", "10,100"],
        ["profile-lemma1", "--seq", "const(1)", "--vectors", "e(1)", "--grid", "1,10,100",
         "--format", "csv"],
    ]
    assert len(argv_sets) == 20
    import json

    for argv in argv_sets:
        first = run_command(load_config(argv))
        second = run_command(load_config(argv))
        assert first == second, argv
        if "csv" in argv:
            continue
        doc = json.loads(first[1].decode("ascii"))
        _reparse_text_fields(doc)
    _report(10, "100 expression round-trips; 20 reports byte-identical and re-parseable")


def _reparse_text_fields(doc):
    from fbasis import parse_filter, parse_scalar_seq

    def walk(node):
        if isinstance(node, dict):
            for k, v in node.items():
                if not isinstance(v, str):
                    walk(v)
                    continue
                if k in ("witness", "set", "over_set", "under_set") and v:
                    assert parse_set_expr(v).to_text() == v
                elif k in ("seq", "weights", "a_squared", "vector_seq"):
                    assert parse_scalar_seq(v).to_text() == v
                elif k in ("filter", "filter2", "under"):
                    assert parse_filter(v).to_text() == v
        elif isinstance(node, list):
            for v in node:
                walk(v)

    walk(doc)
