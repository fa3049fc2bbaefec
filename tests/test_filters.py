import hashlib
import json
import random
import time
import math
from fractions import Fraction

import pytest

from fbasis import (
    Complement,
    Constant,
    ExplicitPrefix,
    Finite,
    Frechet,
    GeometricIndex,
    Intersection,
    NotStationary,
    PowerLog,
    Residue,
    Sampled,
    SetClass,
    SpikeSeq,
    Statistical,
    Summable,
    Union,
    classify_set,
    dominates,
    f_limit_scalar,
    trace_filter,
)
from fbasis import parse_set_expr
from fbasis.cli import load_config, run_command
from fbasis.filters import FilterConstructionError, not_negligible, witness_library

from conftest import random_set_expr

HARMONIC = PowerLog(1, Fraction(-1))
GEOM2 = GeometricIndex(Fraction(2))


def all_filters():
    return [
        Frechet(),
        Statistical(),
        Summable(HARMONIC),
        Summable(PowerLog(1, Fraction(-1, 2))),
    ]


class TestConstruction:
    def test_summable_needs_divergence(self):
        with pytest.raises(FilterConstructionError):
            Summable(PowerLog(1, Fraction(-2)))

    def test_trace_rejects_negligible(self):
        with pytest.raises(NotStationary):
            trace_filter(Frechet(), Finite((1, 2)))
        with pytest.raises(NotStationary):
            trace_filter(Summable(HARMONIC), GEOM2)


class TestClassify:
    def test_spec_examples(self):
        assert classify_set(Residue(2, 0), Statistical()) == SetClass.STATIONARY
        assert classify_set(Complement(GEOM2), Summable(HARMONIC)) == SetClass.MEMBER
        assert classify_set(Finite((1, 2, 3)), Frechet()) == SetClass.NEGLIGIBLE

    def test_complement_of_a_greedy_set_is_a_member(self):
        """The greedy set G certifies sum over G of a**(-p) <= 2; its
        complement is a member because the sum over !!G = G converges."""
        g = parse_set_expr("greedy(pow(1,3/4); pow(1,-1/3); 1)")
        F = Summable(PowerLog(1, Fraction(-3, 4)))
        assert classify_set(g, F) == SetClass.NEGLIGIBLE
        assert classify_set(Complement(g), F) == SetClass.MEMBER

    def test_free_filters_kill_finite_sets(self):
        for F in all_filters():
            assert classify_set(Finite((1, 5, 7)), F) == SetClass.NEGLIGIBLE
            assert classify_set(CoFINITE, F) == SetClass.MEMBER

    def test_trichotomy_and_duality(self):
        rng = random.Random(11)
        decided = 0
        for _ in range(80):
            A = random_set_expr(rng)
            for F in all_filters():
                c = classify_set(A, F)
                cc = classify_set(Complement(A), F)
                if SetClass.INCONCLUSIVE in (c, cc):
                    continue
                decided += 1
                # the complement swaps member and negligible, fixes stationary
                assert (c == SetClass.MEMBER) == (cc == SetClass.NEGLIGIBLE)
                assert (c == SetClass.STATIONARY) == (cc == SetClass.STATIONARY)
        assert decided >= 200

    def test_filter_axioms_on_members(self):
        rng = random.Random(29)
        pairs = 0
        for _ in range(120):
            A = random_set_expr(rng)
            B = random_set_expr(rng)
            for F in all_filters():
                if (
                    classify_set(A, F) == SetClass.MEMBER
                    and classify_set(B, F) == SetClass.MEMBER
                ):
                    inter = classify_set(Intersection((A, B)), F)
                    if inter != SetClass.INCONCLUSIVE:
                        assert inter == SetClass.MEMBER
                        pairs += 1
                    sup = classify_set(Union((A, B)), F)
                    if sup != SetClass.INCONCLUSIVE:
                        assert sup == SetClass.MEMBER
        assert pairs >= 10


CoFINITE = Complement(Finite((1, 2)))


class TestLimits:
    def test_ordinary_convergence(self):
        v = f_limit_scalar(PowerLog(1, Fraction(-1)), Frechet(), 0)
        assert v.kind == "converges"

    def test_indicator_spike_under_summable(self):
        x = SpikeSeq(GEOM2, Constant(1))
        v = f_limit_scalar(x, Summable(HARMONIC), 0)
        assert v.kind == "converges"

    def test_indicator_fails_statistically(self):
        x = SpikeSeq(Residue(2, 0), Constant(1))
        v = f_limit_scalar(x, Statistical(), 0)
        assert v.kind == "does-not-converge"
        assert v.epsilon == pytest.approx(1.0)
        from fbasis import set_equal

        assert set_equal(v.witness, Residue(2, 0))

    def test_nonzero_target(self):
        v = f_limit_scalar(Constant(2), Frechet(), 2)
        assert v.kind == "converges"
        v = f_limit_scalar(Constant(2), Frechet(), 1)
        assert v.kind == "does-not-converge"

    def test_limit_past_the_monotone_start(self):
        """x(n) = ln(n+1)**30 / n rises until n ~ e**30 > 10**12, where no
        exceptional set can be located, and falls to 0 after: the limit rule
        alone settles it, for x and for x on a spike."""
        x = PowerLog(1, Fraction(-1), Fraction(30))
        # direct evaluation in logs: decreasing past e**30, below every
        # scheduled epsilon (2**-20 the smallest) by n = 10**100
        def log_x(n):
            return 30 * math.log(math.log(n + 1)) - math.log(n)

        assert log_x(10 ** 13) > log_x(10 ** 14) > log_x(10 ** 100)
        assert log_x(10 ** 100) < -20 * math.log(2)
        assert f_limit_scalar(x, Frechet(), 0).kind == "converges"
        assert f_limit_scalar(SpikeSeq(GEOM2, x), Frechet(), 0).kind == "converges"

    def test_undecided_exceptional_sets_leave_the_limit_open(self):
        # off geom(2) the spike is 0, at distance 1 from the target; on it
        # no crossing can be located
        x = SpikeSeq(GEOM2, PowerLog(1, Fraction(-1), Fraction(30)))
        v = f_limit_scalar(x, Frechet(), 1)
        assert (v.kind, v.reason) == ("inconclusive", "some exceptional sets were undecidable")

    def test_limit_through_the_wide_sense(self):
        # 1 on the evens: off the target 0 on an infinite set
        x = SpikeSeq(Union((Residue(2, 0), Sampled(frozenset({1}), 100))), Constant(1))
        v = f_limit_scalar(x, Frechet(), 0)
        assert (v.kind, v.epsilon) == ("does-not-converge", 1.0)
        # 1 at index 1, and past 100 unknown
        v = f_limit_scalar(SpikeSeq(Sampled(frozenset({1}), 100), Constant(1)), Frechet(), 0)
        assert v.kind == "inconclusive"

    def test_stationary_set_semantics(self):
        # convergence under the filter passes to traces on stationary sets
        x = SpikeSeq(GEOM2, Constant(1))
        base = Summable(HARMONIC)
        assert f_limit_scalar(x, base, 0).kind == "converges"
        carried = 0
        for I in witness_library():
            if classify_set(I, base) != SetClass.STATIONARY:
                continue
            tr = trace_filter(base, I)
            v = f_limit_scalar(x, tr, 0)
            if v.kind != "inconclusive":
                assert v.kind == "converges"
                carried += 1
        assert carried >= 1


def test_density_bounds_classify_statistically():
    """Past its horizon the sampled part is empty, so the set is residue(4,1)
    up to finitely many indices: density 1/4, inside the bounds [1/4, 3/4]."""
    s = Union((Intersection((Sampled(frozenset({1, 2}), 100), Residue(2, 0))), Residue(4, 1)))
    assert classify_set(s, Statistical()) == SetClass.STATIONARY
    tail = [n % 4 == 1 for n in range(101, 10 ** 5 + 1)]
    assert abs(sum(tail) / len(tail) - 1 / 4) < 1e-3
    # equal bounds are an exact density, never bounds
    assert classify_set(Intersection((Sampled(frozenset({2}), 100), GEOM2)),
                        Statistical()) == SetClass.NEGLIGIBLE


class TestDominates:
    def test_frechet_bottom(self):
        assert dominates(Summable(HARMONIC), Frechet()).kind == "proved"
        assert dominates(Statistical(), Frechet()).kind == "proved"

    def test_summable_comparison(self):
        v = dominates(Summable(HARMONIC), Summable(PowerLog(1, Fraction(-1, 2))))
        assert v.kind == "proved"

    def test_summable_comparison_by_log_factor(self):
        # 1/(n ln(n+1)) <= (1/ln 2) / n, so a set of finite harmonic mass has
        # finite mass under the smaller weights
        small = PowerLog(1, Fraction(-1), Fraction(-1))
        ratios = [1 / math.log(n + 1) for n in range(1, 10 ** 4)]
        assert max(ratios) == ratios[0] < 1.5
        assert dominates(Summable(small), Summable(HARMONIC)).kind == "proved"
        assert dominates(Summable(HARMONIC), Summable(small)).kind != "proved"
        # equal tail forms: an explicit head changes no tail
        head = ExplicitPrefix((Fraction(5),), HARMONIC)
        assert dominates(Summable(head), Summable(HARMONIC)).kind == "proved"

    def test_frechet_does_not_dominate_statistical(self):
        v = dominates(Frechet(), Statistical())
        assert v.kind == "refuted"
        from fbasis import set_equal

        assert set_equal(v.witness, Complement(GEOM2))

    def test_reflexive_and_transitive(self):
        fs = all_filters()
        proved = {}
        for f1 in fs:
            for f2 in fs:
                proved[(f1, f2)] = dominates(f1, f2).kind == "proved"
        for f in fs:
            assert proved[(f, f)]
        for f1 in fs:
            for f2 in fs:
                for f3 in fs:
                    if proved[(f1, f2)] and proved[(f2, f3)]:
                        assert dominates(f1, f3).kind != "refuted"

    def test_trace_dominates_base(self):
        base = Statistical()
        tr = trace_filter(base, Residue(2, 0))
        assert dominates(tr, base).kind == "proved"


class TestTrace:
    def test_member_through_trace(self):
        tr = trace_filter(Statistical(), Residue(2, 0))
        assert classify_set(Residue(2, 0), tr) == SetClass.MEMBER
        assert classify_set(Residue(2, 1), tr) == SetClass.NEGLIGIBLE

    def test_trace_of_trace(self):
        inner = trace_filter(Statistical(), Residue(2, 0))
        outer = trace_filter(inner, Residue(4, 0))
        assert classify_set(Residue(4, 0), outer) == SetClass.MEMBER
        assert classify_set(Residue(4, 2), outer) == SetClass.NEGLIGIBLE
        assert dominates(outer, inner).kind == "proved"
        with pytest.raises(NotStationary):
            trace_filter(inner, Residue(2, 1))  # odd indices vanished already

    def test_not_negligible_wide_sense(self):
        F = Summable(HARMONIC)
        assert not_negligible(Residue(2, 0), F) is True
        assert not_negligible(GEOM2, F) is False

    def test_not_negligible_past_an_inconclusive_class(self):
        # the evens are inside, the rest is known only up to 100: the class
        # stays open, but the set is infinite with divergent harmonic mass
        A = Union((Residue(2, 0), Sampled(frozenset({1}), 100)))
        evens = [1 / n for n in range(2, 10 ** 6 + 1, 2)]
        assert math.fsum(evens) > math.fsum(evens[:500]) + 3
        for F in (Summable(HARMONIC), Frechet()):
            assert classify_set(A, F) == SetClass.INCONCLUSIVE
            assert not_negligible(A, F) is True
        assert not_negligible(Sampled(frozenset({1}), 100), Frechet()) is None


# Reports for nested trace filters at depths 1 to 8 (classify-set, dominates
# and check-admissible), recorded when each trace level still classified
# against its base twice; folding the traces must keep every byte.
NESTED_TRACE_REPORTS = [
    (["dominates", "--filter", "trace(summable(const(1/2)); residue(5,2))", "--filter2", "trace(statistical; residue(2,1))"],
     1, "eef7449bf80607f9098700b90ce8ffdd5f6c680a704097e276b9b5f9e8baab29"),
    (["dominates", "--filter", "frechet", "--filter2", "trace(frechet; cofinite{1,2})"],
     2, "dbfce530c0e7aa2c360fe72e8b4108da7f8506d4bf4fd2aafa4e16d92ad0e9f8"),
    (["classify-set", "--set", "!residue(2,0)", "--filter", "trace(frechet; residue(2,0))"],
     0, "dda6899e1342efe33f3bf10bb2f69ea615a2751e1bfb2c258c8eefa7545b2c4b"),
    (["check-admissible", "--seq", "pow(1,2)", "--filter", "trace(trace(frechet; residue(2,0)); residue(3,1))", "--p", "3/2"],
     1, "fb5c2ff8ee554ba09af504bfaa5d9e1ab620a28615ab8afaeabcbfdf1228fe61"),
    (["classify-set", "--set", "residue(4,2)", "--filter", "trace(trace(summable(const(1/2)); range(5,)); range(5,))"],
     0, "0a960c6c855b589af9909da233cca98a026931cbf4e84e7f123316c5ca8a2439"),
    (["dominates", "--filter", "trace(statistical; range(5,))", "--filter2", "trace(trace(summable(const(1/2)); range(5,)); residue(5,2))"],
     2, "09c12cace003cd4a40a7d573e19f232154af51b29596a25e8d2657ae80d2686a"),
    (["check-admissible", "--seq", "pow(2,1)", "--filter", "trace(trace(trace(statistical; residue(2,0)); range(5,)); residue(2,0))", "--p", "1"],
     0, "e32057cab1dddf26c1b790d9a5038dc371ed540b5c64ef228041b28a6f003d1b"),
    (["dominates", "--filter", "trace(trace(trace(summable(const(1/2)); residue(2,1)); residue(2,0)); residue(2,1))", "--filter2", "statistical"],
     65, "b354b61a9b3e2908b0282e7ab6034bfae045c89cfdd568a5325d78731b2affb4"),
    (["dominates", "--filter", "statistical", "--filter2", "trace(trace(trace(statistical; !finite{3,4}); residue(3,1)); residue(3,1))"],
     1, "461897cfccc6566407056cc99e265731d85f8ebe1f4f53a62cca96859b725e42"),
    (["classify-set", "--set", "residue(2,0)", "--filter", "trace(trace(trace(trace(summable(const(1/2)); residue(3,1)); residue(5,2)); range(5,)); residue(5,2))"],
     0, "32912a3c39bf6f1305ace977afab23a8e8294c8ae2c48a0d05d89ad7eb3755ce"),
    (["dominates", "--filter", "summable(const(1/2))", "--filter2", "trace(trace(trace(trace(statistical; residue(3,1)); range(5,)); range(5,)); residue(2,0))"],
     1, "9c1eca346ecd7e95b9bea5fb490d950b8403397dbea89f19f1b95eae5b007137"),
    (["dominates", "--filter", "trace(trace(trace(trace(summable(const(1/2)); range(5,)); !finite{3,4}); residue(2,1)); !finite{3,4})", "--filter2", "summable(pow(1,-1))"],
     2, "8ef8c9c5dbbf9aa545e2e36a3bd623c2c1e2c379bae3f5d5b06d4c7e71c739dc"),
    (["dominates", "--filter", "trace(trace(trace(trace(trace(summable(pow(1,-1)); cofinite{1,2}); residue(3,1)); residue(3,1)); !geom(2)); residue(3,1))", "--filter2", "summable(const(1/2))"],
     2, "135f7143936e96462146369e5a70b714427ee22c29ff07d8f9397881feb30377"),
    (["check-admissible", "--seq", "pow(1,1/2)", "--filter", "trace(trace(trace(trace(trace(summable(pow(1,-1)); residue(3,1)); residue(2,0)); !finite{3,4}); residue(2,0)); range(5,))", "--p", "3/2"],
     0, "66738a8ffd677f61359fcece661445564a694cdc90e9d50c5d7c011fdf8fd77e"),
    (["dominates", "--filter", "frechet", "--filter2", "trace(trace(trace(trace(trace(statistical; !geom(2)); cofinite{1,2}); residue(5,2)); residue(5,2)); cofinite{1,2})"],
     1, "b79c676085fc2e8ce23fdfeddff408c2895d3680e6ac87d69269a70a445660ca"),
    (["check-admissible", "--seq", "pow(2,1)", "--filter", "trace(trace(trace(trace(trace(trace(summable(const(1/2)); residue(4,0) | geom(3)); !finite{3,4}); !geom(2)); range(5,)); residue(3,1)); residue(2,0))", "--p", "3/2"],
     65, "b42b6dc7940998cf8108cd09021ede89d88b18fde0aefaa770b32f7f3ca208be"),
    (["dominates", "--filter", "trace(trace(trace(trace(trace(trace(statistical; !geom(2)); !geom(2)); residue(2,1)); residue(3,1)); residue(3,1)); !finite{3,4})", "--filter2", "statistical"],
     2, "c5e06c94c094ea24e8274179c98ff4db1cceda639b5f48aab718c3d6726e79bb"),
    (["dominates", "--filter", "trace(statistical; residue(3,1))", "--filter2", "trace(trace(trace(trace(trace(trace(summable(pow(1,-1)); residue(2,1)); residue(5,2)); cofinite{1,2}); !finite{3,4}); range(5,)); residue(3,1))"],
     1, "12826ec8f490494c7125180aed0e385045b7bd0901553f9461954dea6c620a92"),
    (["classify-set", "--set", "residue(4,2)", "--filter", "trace(trace(trace(trace(trace(trace(trace(statistical; !finite{3,4}); residue(2,0)); residue(2,0)); residue(5,2)); residue(2,1)); residue(2,0)); residue(4,0) | geom(3))"],
     65, "a52db1841c5b15e0f799932425c1298e108512016abed786382286daf767052e"),
    (["dominates", "--filter", "statistical", "--filter2", "trace(trace(trace(trace(trace(trace(trace(frechet; residue(5,2)); !finite{3,4}); cofinite{1,2}); residue(2,0)); residue(5,2)); residue(2,0)); !finite{3,4})"],
     1, "11bc1a1f164190c85caad5c63adc7ece31ec19a04b0ceab3903fb763793059c9"),
    (["check-admissible", "--seq", "pow(2,1)", "--filter", "trace(trace(trace(trace(trace(trace(trace(summable(const(1/2)); !geom(2)); !finite{3,4}); !geom(2)); residue(2,1)); cofinite{1,2}); residue(3,1)); !finite{3,4})", "--p", "1"],
     2, "15f25ea686b31899ac51671f668ac91af07801ecb6032795adb3309f4871a9dc"),
    (["classify-set", "--set", "geom(2)", "--filter", "trace(trace(trace(trace(trace(trace(trace(trace(statistical; residue(3,1)); residue(2,0)); residue(2,0)); residue(3,1)); !finite{3,4}); cofinite{1,2}); residue(2,0)); range(5,))"],
     0, "fadbbcb9f7059830d2c0d0ccc029d518b9252fb90073510040e1401e89d01abb"),
    (["check-admissible", "--seq", "pow(1,2)", "--filter", "trace(trace(trace(trace(trace(trace(trace(trace(summable(pow(1,-1)); residue(2,0)); residue(2,1)); !geom(2)); !geom(2)); !geom(2)); !geom(2)); residue(5,2)); residue(3,1))", "--p", "2"],
     65, "b2de12b61df997f8ad854ba16964a25cfc5fa950fe755d59d34b1d223ff2a5e1"),
    (["dominates", "--filter", "trace(trace(trace(trace(trace(trace(trace(trace(summable(const(1/2)); !finite{3,4}); cofinite{1,2}); residue(5,2)); !finite{3,4}); cofinite{1,2}); range(5,)); residue(2,1)); !finite{3,4})", "--filter2", "trace(statistical; !geom(2))"],
     2, "249cd14cac6cf082cea1b4e32b1039048f44e784a4818bb6214a4c4bdc5fa717"),
]


def _nest(base: str, index_set: str, depth: int) -> str:
    text = base
    for _ in range(depth):
        text = f"trace({text}; {index_set})"
    return text


class TestNestedTraces:
    @pytest.mark.parametrize("argv,code,digest", NESTED_TRACE_REPORTS)
    def test_reports_match_the_unfolded_classification(self, argv, code, digest):
        got_code, payload = run_command(load_config(argv))
        assert (got_code, hashlib.sha256(payload).hexdigest()) == (code, digest)

    @pytest.mark.parametrize("depth", [16, 100])
    def test_deep_nesting_answers_in_linear_time(self, depth):
        filt = _nest("frechet", "residue(2,0)", depth)
        start = time.perf_counter()
        code, payload = run_command(load_config(["classify-set", "--set", "residue(6,0)",
                                                 "--filter", filt]))
        dominated = run_command(load_config(["dominates", "--filter", filt,
                                             "--filter2", "statistical"]))
        assert time.perf_counter() - start < 1.0
        assert (code, json.loads(payload)["class"]) == (0, "stationary")
        assert dominated[0] == 2

    def test_trace_of_trace_is_the_trace_on_the_intersection(self):
        nested = trace_filter(trace_filter(Statistical(), Residue(2, 0)), Residue(3, 0))
        folded = trace_filter(Statistical(), Intersection((Residue(2, 0), Residue(3, 0))))
        for A in (Residue(6, 0), Residue(6, 3), Residue(12, 0), Complement(Residue(6, 0)),
                  Union((Residue(6, 0), Residue(5, 1))), Finite((6, 12))):
            assert classify_set(A, nested) == classify_set(A, folded), A.to_text()
