import random
from fractions import Fraction

import pytest

from fbasis import (
    BasisVector,
    Constant,
    ExplicitPrefix,
    Frechet,
    GeometricIndex,
    NotAdmissible,
    PowerLog,
    PowerTail,
    Shifted,
    Spike,
    Statistical,
    Summable,
    apply,
    build_basis,
    convergence_demo,
    defect_report,
    l1,
    l2,
    lp,
    remainder_norm,
    verify_biorthogonality,
)
from fbasis import basis_builder
from fbasis.lp_operators import TailOp
from fbasis.sequences import DomainError

from conftest import random_target_seq

HARMONIC = PowerLog(1, Fraction(-1))


def summable_half():
    return Summable(Constant(Fraction(1, 2)))


class TestRecurrence:
    def test_l1_const_two(self):
        sys = build_basis(Constant(2), l1(64), summable_half(), n_max=4)
        assert sys.coefficients == [1, Fraction(1, 2), Fraction(3, 4), Fraction(9, 8)]

    def test_l1_closed_form_identity(self):
        sys = build_basis(Constant(2), l1(64), summable_half(), n_max=12)
        b = sys.coefficients
        for n in range(1, len(b)):
            lhs = sum(b[: n + 1], Fraction(0))
            rhs = (1 + Fraction(1, 2)) * sum(b[:n], Fraction(0))
            assert lhs == rhs

    def test_l2_squares_double(self):
        sys = build_basis(None, l2(64), Frechet(), n_max=6, a_squared=Constant(2))
        assert sys.coefficients_squared == [1, 1, 2, 4, 8, 16]

    def test_rational_l2_targets_stay_exact(self):
        sys = build_basis(Constant(2), l2(64), Frechet(), n_max=5)
        assert sys.coefficients_squared is not None
        for rep in sys.norm_reports:
            assert rep.exact_square == 4

    def test_requires_targets_above_one(self):
        with pytest.raises(DomainError):
            build_basis(PowerLog(1, Fraction(1)), l1(64), Frechet(), n_max=4)

    def test_admissibility_gate(self):
        a = ExplicitPrefix((2,), PowerLog(1, Fraction(1)))
        with pytest.raises(NotAdmissible) as ei:
            build_basis(a, l2(64), Statistical(), n_max=4)
        assert ei.value.verdict.kind == "refuted"

    def test_inconclusive_flagged(self):
        # boundary growth under the statistical filter: admissibility is
        # neither provable nor refutable in the set grammar
        a = ExplicitPrefix((2,), PowerLog(1, Fraction(1, 2), Fraction(1, 4)))
        sys = build_basis(a, l2(64), Statistical(), n_max=4)
        assert sys.warnings
        assert sys.admissibility.kind == "inconclusive"

    def test_partial_sum_identity(self):
        sys = build_basis(Constant(2), l1(64), summable_half(), n_max=6)
        rng = random.Random(8)
        for T in sys.stages:
            n = T.stage
            x = [Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(n + 3)]
            got = apply(T, x)
            q = Fraction(x[n]) / sys.coefficients[n]
            want = [x[i] - q * sys.coefficients[i] for i in range(n)]
            want += [Fraction(0)] * (len(x) - n)
            assert got == want


class TestDefects:
    def test_l1_defects_equal_targets(self):
        sys = build_basis(Constant(2), l1(64), summable_half(), n_max=10)
        rep = defect_report(sys)
        assert rep.exact_match_l1 is True
        assert rep.within_unit

    def test_l2_defect_constant_one(self):
        sys = build_basis(None, l2(64), Frechet(), n_max=8, a_squared=Constant(2))
        rep = defect_report(sys)
        assert all(v == pytest.approx(1.0) for v in rep.values)
        assert rep.within_unit

    def test_remainder_equals_one_plus_target_in_l1(self):
        sys = build_basis(Constant(2), l1(64), summable_half(), n_max=6)
        for T in sys.stages:
            assert remainder_norm(T).exact == 3

    def test_deviation_within_unit_randomized(self):
        rng = random.Random(19)
        spaces = [l1(32), l2(32), lp(Fraction(3, 2), 32)]
        checked = 0
        tries = 0
        while checked < 50 and tries < 400:
            tries += 1
            a = random_target_seq(rng)
            space = spaces[checked % 3]
            try:
                sys = build_basis(a, space, Frechet(), n_max=6)
            except NotAdmissible:
                continue
            rep = defect_report(sys)
            assert rep.within_unit, (a.to_text(), space.to_text())
            checked += 1
        assert checked >= 50


class TestBiorthogonality:
    def test_exact_l1(self):
        sys = build_basis(Constant(2), l1(64), summable_half(), n_max=8)
        rep = verify_biorthogonality(sys)
        assert rep.ok and rep.max_error == 0.0

    def test_float_stages_still_exact(self):
        sys = build_basis(Constant(2), lp(Fraction(3, 2), 64), Frechet(), n_max=6)
        rep = verify_biorthogonality(sys)
        assert rep.ok and rep.max_error == 0.0

    def test_corrupted_tail_operator_is_caught(self, monkeypatch):
        sys = build_basis(Constant(2), l1(64), summable_half(), n_max=8)

        def without_defect(T, x):  # drops the q * b_i term
            n = T.stage
            return [Fraction(v) for v in x[:n]] + [Fraction(0)] * (len(x) - n)

        monkeypatch.setattr(basis_builder, "apply", without_defect)
        rep = verify_biorthogonality(sys)
        assert rep.ok is False
        assert rep.max_error > 0


class TestStages:
    def test_stages_are_built_on_access(self):
        sys = build_basis(None, l2(64), Frechet(), n_max=6, a_squared=Constant(2))
        assert len(sys.stages) == 5
        assert [T.stage for T in sys.stages] == [1, 2, 3, 4, 5]
        last = sys.stages[-1]
        assert last == TailOp(5, tuple(sys.coefficients), sys.space,
                              b_squared=tuple(sys.coefficients_squared))
        with pytest.raises(IndexError):
            sys.stages[5]

    def test_l2_continues_in_floats_once_the_squares_leave_the_rationals(self):
        # targets 2 n**(1/4): the squared target 4 sqrt(n) is rational at n = 1 only
        sys = build_basis(PowerLog(2, Fraction(1, 4)), l2(64), Summable(HARMONIC), n_max=6)
        assert sys.coefficients_squared is None
        assert "squared targets left the rationals; continuing in floats" in sys.warnings
        assert sys.norm_reports[0].exact_square == 4
        assert all(r.exact_square is None for r in sys.norm_reports[1:])
        for n, rep in enumerate(sys.norm_reports, start=1):
            assert rep.lower <= rep.value <= rep.upper
            assert rep.value == pytest.approx(2 * n ** 0.25, rel=1e-12)


class TestConvergenceDemo:
    def test_basis_vector_always_converges(self):
        sys = build_basis(Constant(2), l1(64), summable_half(), n_max=6)
        rep = convergence_demo(sys, BasisVector(1))
        assert rep.verdict.kind == "converges"
        assert all(d == 0.0 for d in rep.stage_defects)

    def test_bounded_targets_converge_under_frechet(self):
        rng = random.Random(91)
        for _ in range(6):
            c = Fraction(rng.randrange(3, 9), 2)
            sys = build_basis(Constant(c), l1(64), Frechet(), n_max=5)
            rep = convergence_demo(sys, PowerTail(Fraction(2)))
            assert rep.verdict.kind == "converges"

    def test_sparse_spike_separates_filters(self):
        a = ExplicitPrefix((2,), PowerLog(1, Fraction(1)))
        sys = build_basis(a, l1(64), Summable(HARMONIC), n_max=10)
        spike = Spike(Shifted(GeometricIndex(Fraction(2)), 1), PowerLog(1, Fraction(0), Fraction(-2)))
        under_filter = convergence_demo(sys, spike)
        assert under_filter.verdict.kind == "converges"
        under_frechet = convergence_demo(sys, spike, under=Frechet())
        assert under_frechet.verdict.kind == "does-not-converge"
        # deterministic reruns
        again = convergence_demo(sys, spike, under=Frechet())
        assert again == under_frechet

    def test_power_tail_converges_classically(self):
        a = ExplicitPrefix((2,), PowerLog(1, Fraction(1)))
        sys = build_basis(a, l1(64), Summable(HARMONIC), n_max=8)
        rep = convergence_demo(sys, PowerTail(Fraction(2)), under=Frechet())
        assert rep.verdict.kind == "converges"
