import collections
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fbasis import (
    BasisVector,
    Constant,
    ExplicitPrefix,
    Frechet,
    GeometricIndex,
    NotAdmissible,
    Piecewise,
    PowerLog,
    PowerTail,
    Residue,
    Shifted,
    Spike,
    Statistical,
    Summable,
    Trace,
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
from fbasis import basis_builder, filters, sequences
from fbasis.basis_builder import BasisSystem
from fbasis.cli import load_config, run_command
from fbasis.lp_operators import TailOp, _root, image_pairs
from fbasis.natset import canonicalize
from fbasis.parsing import parse_filter, parse_scalar_seq, parse_set_expr
from fbasis.sequences import DomainError

import biorth_oracle
import build_oracle
import defect_table_oracle
from conftest import random_target_seq
from norm_oracle import _stage_norm

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

        def without_defect(bs, xs, n):  # drops the q * b_i term
            return list(xs[:n]) + [(0, 1)] * (len(xs) - n)

        monkeypatch.setattr(basis_builder, "image_pairs", without_defect)
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


@st.composite
def built_systems(draw):
    """Exact l1 and l2 systems, float lp systems, and irrational targets whose
    l1/l2 stages leave the rationals, at n_max 2 .. 40."""
    space = draw(st.sampled_from([l1(64), l2(64), lp(Fraction(3, 2), 64), lp(Fraction(4), 64)]))
    n_max = draw(st.integers(2, 40))
    c = Fraction(draw(st.integers(3, 12)), 2)
    if draw(st.booleans()):
        head = tuple(Fraction(draw(st.integers(3, 12)), 2)
                     for _ in range(draw(st.integers(0, 3))))
        a = ExplicitPrefix(head, Constant(c)) if head else Constant(c)
        return build_basis(a, space, Frechet(), n_max=n_max)
    return build_basis(PowerLog(c, Fraction(1, 4)), space, Summable(HARMONIC), n_max=n_max)


@st.composite
def oracle_builds(draw):
    """(args, kwargs) of a build: l1 from a target, l2 from its squares or
    from the target itself, with constant, prefixed and integer-power
    targets, and prefixes whose power tail leaves the rationals at stage 3
    and at every later index that is no fourth power, or no square."""
    c = Fraction(draw(st.integers(3, 12)), 2)
    shape = draw(st.sampled_from(["const", "prefix", "pow", "leaves"]))
    if shape == "const":
        a, filt = Constant(c), draw(st.sampled_from([Frechet(), Statistical()]))
    elif shape == "prefix":
        head = tuple(Fraction(draw(st.integers(3, 12)), 2) for _ in range(draw(st.integers(1, 3))))
        a, filt = ExplicitPrefix(head, Constant(c)), Frechet()
    elif shape == "pow":
        a, filt = PowerLog(c, draw(st.integers(0, 2))), Summable(HARMONIC)
    else:
        a = parse_scalar_seq(draw(st.sampled_from(["prefix[5/2,3]:pow(2,1/4)",
                                                   "prefix[3/2,2]:pow(2,1/2)"])))
        filt = Summable(HARMONIC)
    n_max = draw(st.integers(2, 90))
    space = draw(st.sampled_from(["l1", "l2-squared", "l2"]))
    if space == "l1":
        return (a, l1(n_max), filt, n_max), {}
    if space == "l2":
        return (a, l2(n_max), filt, n_max), {}
    return (None, l2(n_max), filt, n_max), {"a_squared": a}


def _built(build, args, kwargs):
    try:
        return build(*args, **kwargs)
    except (NotAdmissible, DomainError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _stored_fractions(system: BasisSystem):
    """Every Fraction a built system stores: in its coefficients, squares,
    defects and targets, and the exact values of its norm reports."""
    for name in ("coefficients", "coefficients_squared", "defect_coeffs", "targets"):
        yield from (v for v in getattr(system, name) or () if isinstance(v, Fraction))
    for rep in system.norm_reports:
        yield from (v for v in (rep.exact, rep.exact_square) if v is not None)


def _is_float(rep) -> bool:
    """A norm report of a float stage: one with no exact value."""
    return rep.exact is None and rep.exact_square is None


@settings(max_examples=100, deadline=None)
@given(oracle_builds())
def test_builds_equal_those_of_the_old_stage_loop(build):
    """The coefficients, squares, defects, targets and warnings equal those
    of the old stage loop in ``build_oracle``, field by field, in value and
    in type: the reprs agree, so a Fraction is never a float of the same
    value.  So do the norm reports of the exact stages; on every float stage
    the report's [lower, upper] holds its value and the old one's.  Every
    stored Fraction is in lowest terms, which an equal value alone would not
    show of the exact phase's integer pairs."""
    got = _built(build_basis, *build)
    want = _built(build_oracle.build_basis, *build)
    if isinstance(want, str):
        assert got == want
        return
    for name in BasisSystem.__annotations__:
        if name == "norm_reports":
            continue
        mine, theirs = getattr(got, name), getattr(want, name)
        assert repr(mine) == repr(theirs), name
        assert mine == theirs, name
        if isinstance(theirs, list):
            assert list(map(type, mine)) == list(map(type, theirs)), name
    assert len(got.norm_reports) == len(want.norm_reports)
    for n, (mine, theirs) in enumerate(zip(got.norm_reports, want.norm_reports), start=1):
        if not _is_float(theirs):
            assert repr(mine) == repr(theirs), n
        else:
            assert (mine.method, mine.exact, mine.exact_square) == (theirs.method, None, None), n
            assert mine.lower <= theirs.lower and theirs.upper <= mine.upper, n
            assert mine.lower <= mine.value <= mine.upper, n
    for v in _stored_fractions(got):
        assert v.denominator > 0 and math.gcd(v.numerator, v.denominator) == 1


@st.composite
def float_builds(draw):
    """(a, space, filter, n_max) with float stages: const targets in lp(p)
    past p = 1 and 2, and pow(c,1/4) targets, irrational from stage 2 on,
    in every space, at n_max up to 2000.  4/3 and 7/5 are not binary64
    numbers, so float(p) differs from p there."""
    p = draw(st.sampled_from([Fraction(1), Fraction(5, 4), Fraction(4, 3), Fraction(7, 5),
                              Fraction(3, 2), Fraction(2), Fraction(3), Fraction(4)]))
    c = Fraction(draw(st.integers(5, 24)), 2)
    if p in (1, 2) or draw(st.booleans()):
        a, filt = PowerLog(c, Fraction(1, 4)), Summable(HARMONIC)
    else:
        a, filt = Constant(c), Frechet()
    n_max = draw(st.integers(2, 2000))
    return a, lp(p, n_max), filt, n_max


def _exact_stage_norms(b: list, p: Fraction):
    """The norm of each stage operator on the stored floats b, taken exactly
    as rationals, from S = b_1**p + ... + b_n**p by Hoelder's formula:
    max(1, S / b_{n+1}) at p = 1, else (1 + U**q)**(1/q) with U = S**(1/p) /
    b_{n+1}.  mpmath works at 60 digits, so its rounding is far below the
    bounds' margins of about 1e-12."""
    import mpmath  # the oracle alone needs it

    with mpmath.workdps(60):
        pm = mpmath.mpf(p.numerator) / p.denominator
        q = pm / (pm - 1) if p != 1 else None
        b = [mpmath.mpf(v.numerator) / v.denominator for v in map(Fraction, b)]  # exactly
        mass = mpmath.mpf(0)
        for n in range(1, len(b)):
            mass += b[n - 1] ** pm
            last = b[n]
            if q is None:
                yield n, max(mpmath.mpf(1), mass / last)
            else:
                yield n, (1 + (mass ** (1 / pm) / last) ** q) ** (1 / q)


@settings(max_examples=40, deadline=None)
@given(float_builds())
@example(build=(Constant(Fraction(5, 2)), lp(Fraction(3, 2), 2000), Frechet(), 2000))
@example(build=(PowerLog(Fraction(5, 2), Fraction(1, 4)), l1(2000), Summable(HARMONIC), 2000))
@example(build=(Constant(2), lp(4, 2800), Frechet(), 2800))  # close to the float range
@example(build=(Constant(Fraction(5, 2)), lp(Fraction(4, 3), 1000), Frechet(), 1000))
def test_float_stage_bounds_bracket_the_exact_norm(build):
    """Every float stage's report brackets the exact norm of its stage
    operator on the stored coefficients: lower <= norm <= upper."""
    a, space, filt, n_max = build
    system = build_basis(a, space, filt, n_max=n_max)
    for n, norm in _exact_stage_norms(system.coefficients, space.p):
        rep = system.norm_reports[n - 1]
        if _is_float(rep):
            assert rep.lower <= norm <= rep.upper, (n, rep, norm)


@st.composite
def exact_targets(draw):
    """(a, space, filter, n_max): const, prefix[...]:const, pow(c,1) and
    pow(c,2) targets in l1 and l2, whose every stage is exact."""
    c = Fraction(draw(st.integers(3, 12)), 2)
    shape = draw(st.sampled_from(["const", "prefix", "pow1", "pow2"]))
    filt = Frechet()
    if shape == "const":
        a = Constant(c)
    elif shape == "prefix":
        a = ExplicitPrefix(tuple(Fraction(draw(st.integers(3, 12)), 2)
                                 for _ in range(draw(st.integers(1, 4)))), Constant(c))
    else:
        a, filt = PowerLog(c, 1 if shape == "pow1" else 2), Summable(HARMONIC)
    n_max = draw(st.integers(2, 60))
    return a, draw(st.sampled_from([l1, l2]))(n_max), filt, n_max


@settings(max_examples=100, deadline=None)
@given(exact_targets())
def test_exact_stage_reports_are_the_stage_norms_of_their_ratios(build):
    """Each exact stage's norm report and defect, taken from a_n**p, are the
    generic ``_stage_norm(W, p, b_1 .. b_{n+1})`` and the root of W, in text
    and in type, with W = a_n at p = 1 and a_n**2 - 1 at p = 2 evaluated in
    Fractions."""
    a, space, filt, n_max = build
    got = _built(build_basis, build, {})
    if isinstance(got, str):
        return
    p = 1 if space.is_l1 else 2
    for n in range(1, n_max):
        W = Fraction(a.value_at(n)) ** p - (p - 1)
        rep, c = _stage_norm(W, p, got.coefficients[: n + 1]), _root(W, p)
        c = c if p == 1 else float(c)
        got_rep, got_c = got.norm_reports[n - 1], got.defect_coeffs[n - 1]
        assert (repr(got_rep), type(got_rep.exact), type(got_rep.exact_square)) == (
            repr(rep), type(rep.exact), type(rep.exact_square)), n
        assert (repr(got_c), type(got_c)) == (repr(c), type(c)), n


# mutants of the kernel ``image_pairs(bs, xs, n)``, on the integer pairs of b and x


def _without_defect(bs, xs, n):  # drops the q * b_i term
    return list(xs[:n]) + [(0, 1)] * (len(xs) - n)


def _shifted_coefficient(bs, xs, n):  # pairs coordinate i with b_{i+1}
    q = Fraction(*xs[n]) / Fraction(*bs[n])
    out = [Fraction(*xs[i]) - q * Fraction(*bs[i + 1]) for i in range(n)]
    return [(v.numerator, v.denominator) for v in out] + [(0, 1)] * (len(xs) - n)


def _leaks_past_stage(bs, xs, n):  # a nonzero coordinate n + 1, which T sends to 0
    out = image_pairs(bs, xs, n)
    out[n] = (1, 1)
    return out


@pytest.mark.parametrize("corrupted", [_without_defect, _leaks_past_stage],
                         ids=["without-defect", "leaks"])
@pytest.mark.parametrize("space", ["l1", "l2", "lp(3/2)"])
def test_a_failed_biorthogonality_certificate_exits_70(monkeypatch, space, corrupted):
    """A build whose own biorthogonality certificate fails is an internal
    error (exit 70 and the error document), never a constructed system."""
    monkeypatch.setattr(basis_builder, "image_pairs", corrupted)
    code, payload = run_command(load_config(["build-basis", "--seq", "const(2)", "--space",
                                             space, "--filter", "frechet", "--n-max", "8"]))
    assert code == 70 and json.loads(payload)["error"] == "internal"


class TestBiorthogonalityOracle:
    @settings(max_examples=40, deadline=None)
    @given(built_systems())
    def test_matches_the_recomputing_loop(self, sys):
        rep = verify_biorthogonality(sys)
        assert rep == biorth_oracle.verify_biorthogonality(sys)
        assert rep.ok and rep.max_error == 0.0

    @pytest.mark.parametrize("corrupted",
                             [_without_defect, _shifted_coefficient, _leaks_past_stage])
    @settings(max_examples=15, deadline=None)
    @given(sys=built_systems())
    def test_corrupted_apply_gives_the_oracle_error(self, corrupted, sys):
        want = biorth_oracle.verify_biorthogonality(sys, kernel=corrupted)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(basis_builder, "image_pairs", corrupted)
            rep = verify_biorthogonality(sys)
        assert rep == want
        assert rep.ok is False and rep.max_error > 0

    # past the hypothesis range: numerators of thousands of digits in l1 and
    # on the l2 squares, and float coefficients of irrational targets
    LARGE = {
        "l1-const(3/2)-242": lambda: build_basis(Constant(Fraction(3, 2)), l1(242), Frechet(),
                                                 n_max=242),
        "l2-squared-const(9/2)-242": lambda: build_basis(None, l2(242), Frechet(), n_max=242,
                                                         a_squared=Constant(Fraction(9, 2))),
        "l1-pow(3,1/4)-40": lambda: build_basis(PowerLog(3, Fraction(1, 4)), l1(40),
                                                Summable(HARMONIC), n_max=40),
    }

    @pytest.mark.parametrize("corrupted",
                             [None, _without_defect, _shifted_coefficient, _leaks_past_stage],
                             ids=["sound", "without-defect", "shifted", "leaks"])
    @pytest.mark.parametrize("case", sorted(LARGE))
    def test_large_systems_match_the_oracle(self, case, corrupted):
        sys = self.LARGE[case]()
        want = biorth_oracle.verify_biorthogonality(sys, kernel=corrupted)
        with pytest.MonkeyPatch.context() as mp:
            if corrupted is not None:
                mp.setattr(basis_builder, "image_pairs", corrupted)
            rep = verify_biorthogonality(sys)
        assert rep == want
        assert rep.ok is (corrupted is None)
        assert (rep.max_error > 0) is (corrupted is not None)

    @settings(max_examples=15, deadline=None)
    @given(built_systems())
    def test_vanishing_verdicts_are_the_demo_verdicts(self, sys):
        rep = defect_report(sys)
        family = basis_builder.default_test_family(sys.space)
        assert rep.vanishing == tuple(
            (x.to_text(), convergence_demo(sys, x).verdict.kind) for x in family
        )


TABLE_SPACES = [l1(64), l2(64), lp(Fraction(3, 2), 64)]
TABLE_FILTERS = [Frechet(), Statistical(), Summable(HARMONIC),
                 Summable(PowerLog(1, Fraction(-1, 2))), Trace(Frechet(), Residue(2, 0)),
                 Trace(Statistical(), Residue(3, 1))]
TABLE_TARGETS = [Constant(Fraction(5, 2)), PowerLog(2, Fraction(1, 4)),
                 ExplicitPrefix((Fraction(3),), PowerLog(3, Fraction(1, 3))),
                 PowerLog(4, Fraction(1, 10), Fraction(-1))]


class TestDefectTable:
    @pytest.mark.parametrize("F", TABLE_FILTERS, ids=lambda F: F.to_text())
    @pytest.mark.parametrize("space", TABLE_SPACES, ids=lambda s: f"p={s.p}")
    def test_matches_the_per_level_oracle(self, space, F):
        """Entries and verdicts equal those of the old per-level loop, for
        the default test family and two vectors outside it."""
        vectors = basis_builder.default_test_family(space) + (
            Spike(Residue(2, 0), Constant(1)), PowerTail(Fraction(1, 2)))
        compared = 0
        for a in TABLE_TARGETS:
            try:
                sys = build_basis(a, space, F, n_max=6)
            except NotAdmissible:
                continue
            bounds = lambda: basis_builder._defect_bound_seqs(sys)  # noqa: E731
            for x in vectors:
                for under in [u for u in (None, Frechet()) if u != F]:
                    rep = convergence_demo(sys, x, under=under)
                    assert (rep.entries, rep.verdict) == defect_table_oracle.classify_defects(
                        sys, x, bounds, under=under)
                    compared += 1
        assert compared

    def test_lower_bound_needs_every_value_past_the_threshold(self):
        """a/2 bounds the l2 defect c = (a**2 - 1)**(1/2) from below only where
        a >= (4/3)**(1/2).  a = 4 n**(1/10) / ln(n+1) stays above that for
        n <= 64 but falls to 1.087 at n = 22027, where c = 0.427 < 1/2: no
        under-set may hold an index of that dip.  Past it a -> infinity, so
        the odd indices, where x_{n+1} = 1, are a stationary under-set."""
        a = PowerLog(4, Fraction(1, 10), Fraction(-1))
        at = float(a.value_at(22027))
        assert min(float(a.value_at(n)) for n in range(1, 65)) > (4 / 3) ** 0.5
        assert (at ** 2 - 1) ** 0.5 < 0.5
        sys = build_basis(a, l2(64), Statistical(), n_max=8)
        rep = convergence_demo(sys, Spike(Residue(2, 0), Constant(1)))
        assert (rep.verdict.kind, rep.verdict.epsilon) == ("does-not-converge", 1.0)
        horizon = 1_100_000
        n = np.arange(1, horizon + 1)
        a_n = 4 * n ** 0.1 / np.log(n + 1)
        dip = a_n < (4 / 3) ** 0.5
        assert dip[22026] and not dip[-1]
        unders = [(e.epsilon, parse_set_expr(e.under_set)) for e in rep.entries
                  if e.under_set is not None]
        assert unders
        for level, s in unders:
            members = s.mask(horizon)
            assert not (members & dip).any()
            head = np.flatnonzero(members[:2000]) + 1
            c = (a_n[head - 1] ** 2 - 1) ** 0.5
            assert ((head + 1) % 2 == 0).all() and (c >= level).all()


def test_settled_levels_build_no_lower_bound(monkeypatch):
    """In lp(4) the upper bound a = 5 settles every level for both vectors
    of the test family that are not basis vectors, so ``defect_report``
    multiplies no sequence, neither by the target (the limsup bound comes
    from the tail forms) nor by the lower bound sequence, and does not scan
    for the set where the lower bound holds."""
    factors, scans = [], []
    mul, ge = basis_builder.seq_mul, basis_builder.threshold_ge
    monkeypatch.setattr(basis_builder, "seq_mul", lambda a, b: factors.append(b) or mul(a, b))
    monkeypatch.setattr(basis_builder, "threshold_ge",
                        lambda *a, **k: scans.append(a) or ge(*a, **k))
    code, payload = run_command(load_config(["build-basis", "--seq", "const(5)", "--space",
                                             "lp(4)", "--filter", "frechet"]))
    vanishing = json.loads(payload)["defect_check"]["vanishing"]
    assert code == 0 and [v["verdict"] for v in vanishing] == ["converges"] * 3
    assert factors == [] and scans == []


def test_open_levels_match_the_per_level_oracle():
    """Where the upper bound leaves levels open, their under-sets are built
    and the table still equals the per-level oracle's, entry for entry."""
    sys = build_basis(PowerLog(4, Fraction(1, 10), Fraction(-1)), l2(64), Statistical(), n_max=8)
    x = Spike(Residue(2, 0), Constant(1))
    rep = convergence_demo(sys, x)
    assert sum(e.under_set is not None for e in rep.entries) > 1
    assert (rep.entries, rep.verdict) == defect_table_oracle.classify_defects(
        sys, x, lambda: basis_builder._defect_bound_seqs(sys))


def test_a_negligible_support_settles_what_the_table_leaves_open():
    """100 n**(1/1000) / ln(n+1)**2 falls below the levels only past the scan
    horizon, so the table leaves them open.  The spike's shifted support,
    geom(2), has density 0, so its defects vanish statistically all the
    same, and ``defect_report``, which asks the support first, says so."""
    sys = build_basis(PowerLog(100, Fraction(1, 1000)), l1(64), Statistical(), n_max=6)
    spike = basis_builder.default_test_family(sys.space)[-1]
    assert dict(defect_report(sys).vanishing)[spike.to_text()] == "converges"
    assert convergence_demo(sys, spike).verdict.kind == "inconclusive"


def _count_table_steps(monkeypatch):
    """Counts, by name, of the steps ``_classify_defects`` takes past its
    limsup bound: the epsilon tables, the threshold scans, the scaled bound
    sequences and the canonicalized sets."""
    counts = collections.Counter()
    for name in ("epsilon_table", "threshold_levels", "seq_scale", "canonicalize"):
        inner = getattr(basis_builder, name)
        monkeypatch.setattr(basis_builder, name, lambda *a, _n=name, _f=inner, **k:
                            counts.update([_n]) or _f(*a, **k))
    return counts


def test_a_limsup_settled_vector_builds_no_table(monkeypatch):
    """2 n**(1/4) n**-2 tends to 0, so the power tail's limsup bound lies
    below every level: its verdict comes with no epsilon table, no threshold
    scan, no scaled bound sequence and no canonicalized support."""
    sys = build_basis(PowerLog(2, Fraction(1, 4)), l1(64), Summable(HARMONIC), n_max=12)
    counts = _count_table_steps(monkeypatch)
    rep = defect_report(sys, test_family=[PowerTail(Fraction(2))])
    assert rep.vanishing == (("powtail(2)", "converges"),)
    assert counts == {}


def test_a_limsup_between_the_levels_still_runs_the_table(monkeypatch):
    """On the odds, 5 * 1/100 sits between the levels 1/16 and 1/32: the
    limsup bound settles the levels above it, the table decides the others,
    and the defects do not vanish, as ``convergence_demo`` finds too."""
    sys = build_basis(Constant(5), l1(64), Frechet(), n_max=8)
    x = Spike(Residue(2, 0), Constant(Fraction(1, 100)))
    counts = _count_table_steps(monkeypatch)
    rep = defect_report(sys, test_family=[x])
    assert rep.vanishing == ((x.to_text(), "does-not-converge"),)
    assert counts["epsilon_table"] == 1 and counts["threshold_levels"] >= 1
    demo = convergence_demo(sys, x)
    assert demo.verdict.kind == "does-not-converge" and demo.verdict.epsilon == 1 / 32


README_DEMO = ["demo-convergence", "--seq", "prefix[2]:pow(1,1)", "--space", "l1",
               "--filter", "summable(pow(1,-1))", "--n-max", "10",
               "--vector", "spike(shift(geom(2),1); powlog(1,0,-2))", "--under", "frechet"]
BUILD_L1 = ["build-basis", "--seq", "pow(2,1/4)", "--space", "l1",
            "--filter", "summable(pow(1,-1))", "--n-max", "12"]


def _run_cli(argv):
    return lambda: run_command(load_config(argv))[0] == 0


_run_build = _run_cli(BUILD_L1)


def _run_open_support():
    """Two spikes on the evens: their shifted support, the odds, is not
    statistically negligible, so each table scans the over- and the
    under-bound and refutes convergence."""
    sys = build_basis(PowerLog(2, Fraction(1, 4)), l1(64), Statistical(), n_max=12)
    family = [Spike(Residue(2, 0), Constant(1)), Spike(Residue(2, 0), PowerLog(1, 0, -2))]
    rep = defect_report(sys, test_family=family)
    return [kind for _, kind in rep.vanishing] == ["does-not-converge"] * 2


def _run_limit():
    """1 on the evens and 1/n on the odds, against the target 1: every
    level scans above 1 + e and below 1 - e."""
    x = Piecewise(((Residue(2, 0), Constant(1)), (Residue(2, 1), HARMONIC)))
    return filters.f_limit_scalar(x, Frechet(), 1).kind == "does-not-converge"


# the README demo scans heads shorter than a vector; the second open spike
# scans one to e**8
@pytest.mark.parametrize("run,vectors", [(_run_cli(README_DEMO), False), (_run_build, False),
                                         (_run_limit, False), (_run_open_support, True)],
                         ids=["demo", "build", "limit", "open-support"])
def test_each_table_classifies_each_set_once(monkeypatch, run, vectors):
    """Within one epsilon table, ``classify_set`` and ``not_negligible`` see
    each distinct set once, ``eval_vector`` evaluates each threshold
    sequence once, and at most two threshold scans are made (the filter
    limit, with levels on both sides of its target, makes both, and so does
    a spike whose support is not negligible).  The build makes no table and
    no scan at all: the power tail's limsup bound settles every level, and
    the spike's shifted support S is negligible, classified once.  An open
    support S is classified once per vector too: its table starts from S's
    class."""
    tables = []  # per table: a Counter of (function, argument)
    scans = []  # per table: the number of threshold scans
    all_scans = []  # every threshold scan, in a table or not
    in_levels = []

    def counting(module, name, only_in_levels=False):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            if tables and (in_levels or not only_in_levels):
                tables[-1][name, args[0]] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    levels, table = sequences.threshold_levels, filters.epsilon_table

    def traced_levels(*args, **kwargs):
        if not in_levels:
            all_scans.append(args[0])
        if tables and not in_levels:
            scans[-1] += 1
        in_levels.append(1)
        try:
            return levels(*args, **kwargs)
        finally:
            in_levels.pop()

    def traced_table(*args, **kwargs):
        tables.append(collections.Counter())
        scans.append(0)
        return table(*args, **kwargs)

    for module in (sequences, filters, basis_builder):
        monkeypatch.setattr(module, "threshold_levels", traced_levels)
    for module in (filters, basis_builder):
        monkeypatch.setattr(module, "epsilon_table", traced_table)
    counting(filters, "classify_set")
    counting(filters, "not_negligible")
    counting(sequences, "eval_vector", only_in_levels=True)
    supports = collections.Counter()  # the sets ``_classify_defects`` classifies itself
    classify = basis_builder.classify_set
    monkeypatch.setattr(basis_builder, "classify_set",
                        lambda s, F: supports.update([s]) or classify(s, F))
    assert run()
    if run is _run_build:
        spike = basis_builder.default_test_family(l1(64))[-1]
        support = canonicalize(Shifted(spike.support(), -1))
        assert tables == [] and all_scans == [] and supports == {support: 1}
        return
    assert tables
    for counts in tables:
        assert max(counts.values(), default=1) == 1, counts
    called = {name for counts in tables for name, _ in counts}
    assert ("eval_vector" in called) == vectors
    assert max(scans) <= 2 and (run is not _run_limit or scans == [2])
    assert run is not _run_open_support or scans == [2, 2]
    if run is _run_open_support:
        support = canonicalize(Shifted(Residue(2, 0), -1))
        assert supports == {support: 2}
        assert [counts["classify_set", support] for counts in tables] == [0, 0]
        assert "classify_set" in called
    else:
        assert "classify_set" in called


def test_a_default_family_build_multiplies_no_sequence(monkeypatch):
    """In BUILD_L1 the power tail's limsup bound, read off the tail forms of
    its amplitude and the target, settles every level, and the spike's
    shifted support is negligible: no verdict builds the product amp a.  The
    spike is built once per process and keeps its canonical shifted support,
    so a second build canonicalizes no set."""
    products, canonical = [], []
    mul, canon = basis_builder.seq_mul, basis_builder.canonicalize
    monkeypatch.setattr(basis_builder, "seq_mul", lambda a, b: products.append(b) or mul(a, b))
    assert _run_build()
    monkeypatch.setattr(basis_builder, "canonicalize", lambda s: canonical.append(s) or canon(s))
    assert _run_build()
    assert products == [] and canonical == []


@pytest.mark.parametrize("seq,space,filt", [
    ("const(2)", lp(Fraction(3, 2), 64), "frechet"),
    ("pow(2,1/4)", l1(64), "summable(pow(1,-1))"),
])
def test_float_stages_build_no_tail_operator(monkeypatch, seq, space, filt):
    """A float stage is certified on the builder's own coefficient list: no
    stage operator is built, and so none re-checks its coefficients."""
    built = []
    check = TailOp.__post_init__

    def counted(self):
        built.append(self.stage)
        check(self)

    monkeypatch.setattr(TailOp, "__post_init__", counted)
    system = build_basis(parse_scalar_seq(seq), space, parse_filter(filt), n_max=64)
    floats = [r for r in system.norm_reports if r.exact is None and r.exact_square is None]
    assert len(floats) >= 62
    assert built == []


@pytest.mark.parametrize("amp,probes,ratio", [
    (PowerLog(1, Fraction(-3, 2)), 0, 2.0 ** 1.5),
    (ExplicitPrefix((Fraction(1, 10),), PowerLog(1, Fraction(-3, 2))), 6, 10 * 2.0 ** -1.5),
], ids=["head-less", "with-head"])
def test_a_head_less_amplitude_is_not_probed(monkeypatch, amp, probes, ratio):
    """The family bound 2**|beta| (ln 3 / ln 2)**|gamma| covers every ratio of
    neighbours of a head-less amplitude, so only a form with explicit head
    values evaluates it, at n = 1 .. head + 2."""
    calls = []
    eval_at = basis_builder.eval_at

    def counted(a, n):
        calls.append(n)
        return eval_at(a, n)

    monkeypatch.setattr(basis_builder, "eval_at", counted)
    assert basis_builder._shift_ratio(amp) == pytest.approx(ratio)
    assert len(calls) == probes


@pytest.mark.parametrize("a,a_squared", [
    (Constant(Fraction(5, 2)), None),
    (ExplicitPrefix((3, Fraction(7, 2), 3, Fraction(9, 4)), Constant(2)), None),
    (None, Constant(2)),
    (None, ExplicitPrefix((3, 5, 3), Constant(Fraction(7, 2)))),
], ids=["const", "prefix", "squares-const", "squares-prefix"])
def test_an_exact_l2_stage_tries_one_root(monkeypatch, a, a_squared):
    """An exact l2 stage tries the root of its b_{n+1}**2 alone: the norm and
    the defect depend on the target only, so each distinct target tries the
    roots of a**2 and of W = a**2 - 1 once."""
    from fbasis import lp_operators

    calls = []
    exact_root = lp_operators.exact_root

    def counted(x, k):
        calls.append(x)
        return exact_root(x, k)

    monkeypatch.setattr(lp_operators, "exact_root", counted)
    sys = build_basis(a, l2(60), Frechet(), n_max=60, a_squared=a_squared)
    assert all(r.exact_square is not None for r in sys.norm_reports)
    stages, targets = sys.n_max - 1, len(set(sys.targets))
    assert len(calls) <= stages + 2 * targets


@pytest.mark.parametrize("a_squared,tried", [
    (Constant(Fraction(10, 9)), [9, 900, 90000, 9000000]),
    (ExplicitPrefix((2, 4, Fraction(10, 9), Fraction(25, 16), Fraction(5, 4)),
                    Constant(Fraction(10, 9))), None),
], ids=["const", "prefix"])
def test_an_l2_root_is_tried_only_where_it_can_be_rational(monkeypatch, a_squared, tried):
    """b_{n+1} = b_n a_{n-1} / sqrt(W_n) is irrational where exactly one
    factor is, so its square's root is not tried there.  At a**2 = 10/9,
    sqrt(W) = 1/3 and a is irrational: b_2 = 3, b_3 = sqrt(90), and b_4 =
    30 is rational again, from two irrational factors.  The coefficients
    and their squares are those of the old stage loop, in type and value."""
    from fbasis import lp_operators

    calls = []
    exact_root = lp_operators.exact_root

    def counted(x, k):
        calls.append(x)
        return exact_root(x, k)

    monkeypatch.setattr(lp_operators, "exact_root", counted)
    got = build_basis(None, l2(8), Frechet(), n_max=8, a_squared=a_squared)
    monkeypatch.undo()
    want = build_oracle.build_basis(None, l2(8), Frechet(), n_max=8, a_squared=a_squared)
    for name in ("coefficients", "coefficients_squared"):
        mine, theirs = getattr(got, name), getattr(want, name)
        assert repr(mine) == repr(theirs) and list(map(type, mine)) == list(map(type, theirs))
    squares = set(got.coefficients_squared[1:])
    targets = {a_squared.value_at(n) for n in range(1, 8)}
    tried_squares = [x for x in calls if x in squares and x not in targets]
    rational = [x for x in got.coefficients_squared[1:] if exact_root(x, 2) is not None]
    assert set(tried_squares) >= set(rational)
    if tried is not None:
        assert got.coefficients[1:4] == [3.0, math.sqrt(90), 30.0]
        assert tried_squares == tried == rational


def test_the_biorthogonality_check_validates_the_coefficients_once(monkeypatch):
    """The check builds no stage operator: it reads the integer pairs of the
    coefficients once, and refuses a zeroed coefficient as ``TailOp`` does,
    among Fractions and among floats."""
    built = []
    check = TailOp.__post_init__

    def counted(self):
        built.append(self.stage)
        check(self)

    monkeypatch.setattr(TailOp, "__post_init__", counted)
    for space in (l1(100), lp(Fraction(3, 2), 100)):
        sys = build_basis(Constant(Fraction(3, 2)), space, Frechet(), n_max=100)
        rep = verify_biorthogonality(sys)
        assert rep.ok and built == []
        fields = {name: getattr(sys, name) for name in BasisSystem.__annotations__}
        fields["coefficients"] = [*sys.coefficients[:40], 0 * sys.coefficients[40],
                                  *sys.coefficients[41:]]
        with pytest.raises(DomainError, match="positive"):
            verify_biorthogonality(BasisSystem(**fields))


@pytest.mark.parametrize("corrupted", [None, _without_defect, _shifted_coefficient],
                         ids=["sound", "without-defect", "shifted"])
@pytest.mark.parametrize("sizes", [(242, 5, 100), (100, 5, 242)], ids=["long-first", "short-first"])
def test_the_shared_probe_does_not_depend_on_the_order_of_checks(sizes, corrupted, monkeypatch):
    """Checks of several lengths in one process, from an undrawn probe, give
    the reports of the oracle, which draws its own x from a fresh Random(0);
    a corrupted kernel makes the reported error depend on x."""
    monkeypatch.setattr(basis_builder, "_PROBE", [])
    monkeypatch.setattr(basis_builder, "_PROBE_SOURCE", basis_builder._probe_draws())
    if corrupted is not None:
        monkeypatch.setattr(basis_builder, "image_pairs", corrupted)
    for n_max in sizes:
        sys = build_basis(Constant(Fraction(3, 2)), l1(n_max), Frechet(), n_max=n_max)
        want = biorth_oracle.verify_biorthogonality(sys, kernel=corrupted)
        assert verify_biorthogonality(sys) == want
    # drawn on need, up to the longest check, and never again
    assert len(basis_builder._PROBE) == max(sizes)
    rng = random.Random(0)
    fresh = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 10)) for _ in range(max(sizes))]
    assert basis_builder._probe(max(sizes)) == [(u.numerator, u.denominator) for u in fresh]


@pytest.mark.parametrize("space", ["l1", "l2"])
def test_the_exact_stage_certificate_rejects_a_broken_mass_update(space):
    """b_{n+1}**p W_n = b_n**p (W_{n-1} + 1) holds at every stage of a build
    and fails for the power a mass update to S (W_{n-1} + 2) would store."""
    a = ExplicitPrefix((3, Fraction(7, 2)), Constant(Fraction(5, 2)))
    if space == "l1":
        sys = build_basis(a, l1(20), Frechet(), n_max=20)
        powers, ratios = sys.coefficients, list(sys.targets)
    else:
        sys = build_basis(None, l2(20), Frechet(), n_max=20, a_squared=a)
        powers = sys.coefficients_squared
        ratios = [a.value_at(n) - 1 for n in range(1, 20)]
    pairs = [(0, 1)] + [(W.numerator, W.denominator) for W in ratios]
    for n in range(1, 20):
        basis_builder._certify_stage_mass(powers[: n + 1], pairs[n], pairs[n - 1], n)
        (w0, v0), (w, v) = pairs[n - 1], pairs[n]
        broken = powers[n - 1] * Fraction(w0 + 2 * v0, v0) / Fraction(w, v)
        with pytest.raises(ArithmeticError, match=f"stage {n}:"):
            basis_builder._certify_stage_mass(powers[:n] + [broken], pairs[n], pairs[n - 1], n)


def test_a_perturbed_stored_coefficient_fails_the_build(monkeypatch):
    """A stored l1 coefficient off by 10**-12 at stage 5 is an internal error
    (exit 70), not a built system."""
    root, coefficients = basis_builder._root, []

    def perturbed(x, k):
        if x == Fraction(5, 2):  # the defect U of W = 5/2, not a coefficient
            return root(x, k)
        coefficients.append(x)
        return root(x, k) + (Fraction(1, 10 ** 12) if len(coefficients) == 5 else 0)

    monkeypatch.setattr(basis_builder, "_root", perturbed)
    code, payload = run_command(load_config(["build-basis", "--seq", "const(5/2)", "--space",
                                             "l1", "--filter", "frechet", "--n-max", "12"]))
    assert code == 70 and b"ArithmeticError: stage 5:" in payload


def test_the_norming_vector_checks_the_float_stage_bounds(monkeypatch):
    """A stored lp(3/2) coefficient b_5 off by a factor 1 + 10**-6 leaves the
    O(1) bounds of stage 4, taken from W, as they were; the norming vector,
    evaluated on the stored coefficients at the probe stage 4, finds it."""
    root, calls = basis_builder._root, []

    def perturbed(x, k):  # calls alternate: b_{n+1}, then the defect of stage n
        calls.append(x)
        return root(x, k) * (1 + 1e-6 if len(calls) == 7 else 1)

    monkeypatch.setattr(basis_builder, "_root", perturbed)
    with pytest.raises(ArithmeticError, match="stage 4: the norming vector's ratio"):
        build_basis(Constant(2), lp(Fraction(3, 2), 12), Frechet(), n_max=12)
