import collections
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from fbasis.cli import load_config, run_command
from fbasis.lp_operators import TailOp
from fbasis.parsing import parse_filter, parse_scalar_seq, parse_set_expr
from fbasis.sequences import DomainError

import biorth_oracle
import build_oracle
import defect_table_oracle
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
    targets, and a prefix whose power tail leaves the rationals."""
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
        a, filt = parse_scalar_seq("prefix[5/2,3]:pow(2,1/4)"), Summable(HARMONIC)
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


@settings(max_examples=100, deadline=None)
@given(oracle_builds())
def test_builds_equal_those_of_the_old_stage_loop(build):
    """The coefficients, squares, norm reports, defects, targets and warnings
    equal those of the old stage loop in ``build_oracle``, in value and in
    type: the reprs agree, so a Fraction is never a float of the same value."""
    got = _built(build_basis, *build)
    want = _built(build_oracle.build_basis, *build)
    assert repr(got) == repr(want)
    assert got == want


def _without_defect(T, x):  # drops the q * b_i term
    n = T.stage
    return [Fraction(v) for v in x[:n]] + [Fraction(0)] * (len(x) - n)


def _shifted_coefficient(T, x):  # pairs coordinate i with b_{i+1}
    n = T.stage
    q = Fraction(x[n]) / T.b[n]
    return [x[i] - q * T.b[i + 1] for i in range(n)] + [Fraction(0)] * (len(x) - n)


def _leaks_past_stage(T, x):  # a nonzero coordinate n + 1, which T sends to 0
    out = apply(T, x)
    out[T.stage] = Fraction(1)
    return out


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
        want = biorth_oracle.verify_biorthogonality(sys, apply_op=corrupted)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(basis_builder, "apply", corrupted)
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
        want = biorth_oracle.verify_biorthogonality(sys, apply_op=corrupted or apply)
        with pytest.MonkeyPatch.context() as mp:
            if corrupted is not None:
                mp.setattr(basis_builder, "apply", corrupted)
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
                    got = basis_builder._classify_defects(sys, x, bounds, under=under)
                    assert got == defect_table_oracle.classify_defects(sys, x, bounds,
                                                                      under=under)
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


README_DEMO = ["demo-convergence", "--seq", "prefix[2]:pow(1,1)", "--space", "l1",
               "--filter", "summable(pow(1,-1))", "--n-max", "10",
               "--vector", "spike(shift(geom(2),1); powlog(1,0,-2))", "--under", "frechet"]
BUILD_L1 = ["build-basis", "--seq", "pow(2,1/4)", "--space", "l1",
            "--filter", "summable(pow(1,-1))", "--n-max", "12"]


def _run_cli(argv):
    return lambda: run_command(load_config(argv))[0] == 0


def _run_limit():
    """1 on the evens and 1/n on the odds, against the target 1: every
    level scans above 1 + e and below 1 - e."""
    x = Piecewise(((Residue(2, 0), Constant(1)), (Residue(2, 1), HARMONIC)))
    return filters.f_limit_scalar(x, Frechet(), 1).kind == "does-not-converge"


# the README demo scans heads shorter than a vector; the build's spike scans
# one to e**8
@pytest.mark.parametrize("run,vectors", [(_run_cli(README_DEMO), False),
                                         (_run_cli(BUILD_L1), True), (_run_limit, False)],
                         ids=["demo", "build", "limit"])
def test_each_table_classifies_each_set_once(monkeypatch, run, vectors):
    """Within one epsilon table, ``classify_set`` and ``not_negligible`` see
    each distinct set once, ``eval_vector`` evaluates each threshold
    sequence once, and at most two threshold scans are made (the filter
    limit, with levels on both sides of its target, makes both)."""
    tables = []  # per table: a Counter of (function, argument)
    scans = []  # per table: the number of threshold scans
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
    assert run() and tables
    for counts in tables:
        assert max(counts.values(), default=1) == 1, counts
    called = {name for counts in tables for name, _ in counts}
    assert "classify_set" in called and ("eval_vector" in called) == vectors
    assert max(scans) <= 2 and (run is not _run_limit or scans == [2])


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
