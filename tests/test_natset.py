import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbasis import (
    CoFinite,
    Complement,
    Finite,
    GeometricIndex,
    HorizonExceeded,
    Intersection,
    NATURALS,
    PowerLog,
    Range,
    Residue,
    Sampled,
    SetConstructionError,
    Shifted,
    Union,
    canonicalize,
    enumerate_prefix,
    member,
    Frechet,
    SetClass,
    Statistical,
    classify_set,
    natural_density,
    parse_set_expr,
    weight_sum,
)
from fbasis.natset import is_certainly_finite, is_certainly_infinite
from fbasis.series import partial_sum

from checkers import count_prefix, set_equal
from conftest import random_set_expr


GEOM2 = GeometricIndex(Fraction(2))
HARMONIC = PowerLog(1, Fraction(-1))


class TestMembership:
    def test_residue(self):
        assert member(7, Residue(3, 1)) is True
        assert member(9, Residue(3, 1)) is False

    def test_geometric(self):
        assert member(8, GEOM2) is True
        assert member(9, GEOM2) is False
        assert member(2, GEOM2) is True

    def test_geometric_fractional_base(self):
        g = GeometricIndex(Fraction(5, 2))
        # floor(2.5), floor(6.25), floor(15.625), ...
        assert enumerate_prefix(g, 40) == [2, 6, 15, 39]

    def test_sampled_past_horizon(self):
        s = Sampled(frozenset({2, 4}), 10 ** 6)
        assert member(10 ** 9, s) is None
        assert member(4, s) is True

    def test_combinators(self):
        s = Union((Residue(3, 1), Finite((1, 5, 9))))
        assert member(7, s) is True
        assert member(5, s) is True
        assert member(6, s) is False
        assert member(2, Complement(s)) is True

    def test_shifted(self):
        s = Shifted(GEOM2, 1)
        assert member(3, s) is True
        assert member(2, s) is False
        assert enumerate_prefix(s, 20) == [3, 5, 9, 17]

    @pytest.mark.parametrize("text,want", [
        ("geom(2)&residue(2,0)", lambda n: _is_power(n, 2)),
        ("residue(3,0)&sampled{3,6,7;10}",
         lambda n: False if n % 3 else (n in (3, 6) if n <= 10 else None)),
    ])
    def test_intersection_against_a_direct_test(self, text, want):
        s = parse_set_expr(text)
        assert [member(n, s) for n in range(1, 3000)] == [want(n) for n in range(1, 3000)]


def _is_power(n: int, b: int) -> bool:
    """n in geom(b) = {b, b**2, ...}, by repeated division."""
    if n < b:
        return False
    while n % b == 0:
        n //= b
    return n == 1


class TestShiftedDescriptions:
    """A shifted set is described by shifting its base's description.  Each
    answer is checked against a direct membership test counted up to N."""

    N = 10 ** 5
    CASES = [
        ("shift(residue(3,1),2)", lambda n: n > 2 and (n - 2) % 3 == 1, Fraction(1, 3)),
        ("shift(residue(4,1)|geom(2),-3)",
         lambda n: (n + 3) % 4 == 1 or _is_power(n + 3, 2), Fraction(1, 4)),
        ("shift(shift(geom(2),1),-1)", lambda n: _is_power(n, 2), Fraction(0)),
        ("shift(!geom(3),5)", lambda n: n > 5 and not _is_power(n - 5, 3), Fraction(1)),
    ]

    @pytest.mark.parametrize("text,want,density", CASES)
    def test_density_and_classes_match_a_count(self, text, want, density):
        s = parse_set_expr(text)
        members = [n for n in range(1, self.N + 1) if want(n)]
        assert enumerate_prefix(s, self.N) == members
        d = natural_density(s)
        assert d.is_exact and d.value == density
        assert abs(len(members) / self.N - float(density)) < 1e-3
        # every case and its complement keep members past N
        assert classify_set(s, Frechet()) == SetClass.STATIONARY
        statistical = {0: SetClass.NEGLIGIBLE, 1: SetClass.MEMBER}.get(density, SetClass.STATIONARY)
        assert classify_set(s, Statistical()) == statistical

    def test_nested_shifts_collapse_to_the_base_token(self):
        lo, hi = parse_set_expr("shift(shift(geom(2),1),-1)").desc_pair()
        assert lo == hi == GEOM2.desc_pair()[0]


class TestInvariants:
    def test_residue_range(self):
        with pytest.raises(SetConstructionError):
            Residue(2, 2)
        with pytest.raises(SetConstructionError):
            Residue(0, 0)

    def test_finite_sorted(self):
        with pytest.raises(SetConstructionError):
            Finite((3, 2))
        with pytest.raises(SetConstructionError):
            Finite((0,))

    def test_geometric_base(self):
        with pytest.raises(SetConstructionError):
            GeometricIndex(Fraction(3, 2))


class TestEnumerate:
    def test_examples(self):
        assert enumerate_prefix(Residue(2, 0), 7) == [2, 4, 6]
        assert enumerate_prefix(Complement(Finite((1,))), 3) == [2, 3]
        assert enumerate_prefix(GEOM2, 20) == [2, 4, 8, 16]

    @pytest.mark.parametrize("s", [Range(3, 40), Range(5, 5), Range(1, 9), Range(7, None),
                                   Finite((2, 9, 30))])
    @pytest.mark.parametrize("horizon", [1, 5, 9, 40, 100])
    def test_own_elements_match_the_mask(self, s, horizon):
        want = [i + 1 for i, m in enumerate(s.mask(horizon)) if m]
        assert enumerate_prefix(s, horizon) == want

    def test_sampled_horizon_error(self):
        s = Sampled(frozenset({1}), 100)
        with pytest.raises(HorizonExceeded):
            enumerate_prefix(s, 101)
        assert enumerate_prefix(s, 100) == [1]


class TestDensity:
    def test_residue_exact_vs_counting(self):
        d = natural_density(Residue(4, 1))
        assert d.kind == "exact" and d.value == Fraction(1, 4)
        n = 10 ** 6
        assert count_prefix(Residue(4, 1), n) == 250000

    def test_geometric_zero(self):
        d = natural_density(GEOM2)
        assert d.kind == "zero"
        n = 10 ** 6
        assert count_prefix(GEOM2, n) == 19  # floor(log2(1e6))

    def test_union_additive(self):
        s = Union((Residue(2, 0), Residue(4, 1)))
        d = natural_density(s)
        assert d.value == Fraction(3, 4)
        n = 10 ** 5
        assert abs(count_prefix(s, n) / n - 0.75) < 1e-4

    def test_complement_identity(self):
        for s in (Residue(3, 2), Union((Residue(2, 0), GEOM2)), Range(5, None)):
            d = natural_density(s)
            dc = natural_density(Complement(s))
            assert d.is_exact and dc.is_exact
            assert d.value + dc.value == 1

    def test_sampled_inconclusive(self):
        d = natural_density(Sampled(frozenset({1, 2}), 50))
        assert d.kind == "inconclusive"
        assert d.horizon == 50

    def test_sampled_bounds_through_union(self):
        s = Union((Residue(2, 0), Sampled(frozenset({1}), 50)))
        d = natural_density(s)
        assert d.kind == "bounds"
        assert d.lower == Fraction(1, 2) and d.upper == 1

    def test_counting_within_exact_density(self):
        rng = random.Random(7)
        n = 10 ** 5
        checked = 0
        for _ in range(60):
            s = random_set_expr(rng)
            d = natural_density(s)
            if not d.is_exact:
                continue
            checked += 1
            assert abs(count_prefix(s, n) / n - float(d.value)) < 0.01
        assert checked >= 30


class TestWeightSum:
    def test_residue_harmonic_diverges(self):
        v = weight_sum(Residue(2, 0), HARMONIC)
        assert v.kind == "diverges"
        # partial sums over the enumerated prefix keep growing
        small = partial_sum(Residue(2, 0), HARMONIC, 10 ** 3).partial
        big = partial_sum(Residue(2, 0), HARMONIC, 10 ** 6).partial
        assert big > small + 3.0

    def test_geometric_harmonic_exact_bound(self):
        v = weight_sum(GEOM2, HARMONIC)
        assert v.kind == "converges"
        assert v.bound == Fraction(1)

    def test_full_square_bound(self):
        v = weight_sum(NATURALS, PowerLog(1, Fraction(-2)))
        assert v.kind == "converges"
        true_value = float(np.sum(1.0 / np.arange(1.0, 2e5) ** 2))
        assert true_value <= float(v.bound) <= 2.0

    def test_complement_of_geometric(self):
        assert weight_sum(Complement(GEOM2), HARMONIC).kind == "diverges"

    def test_log_boundary(self):
        # sum 1/(n log^2(n+1)) converges; sum 1/(n log(n+1)) diverges
        conv = weight_sum(NATURALS, PowerLog(1, Fraction(-1), Fraction(-2)))
        div = weight_sum(NATURALS, PowerLog(1, Fraction(-1), Fraction(-1)))
        assert conv.kind == "converges"
        assert div.kind == "diverges"

    def test_geometric_log_weights(self):
        # over {2^m}: terms like 1/log(n) ~ 1/m diverge, 1/log^2 converge
        div = weight_sum(GEOM2, PowerLog(1, Fraction(0), Fraction(-1)))
        conv = weight_sum(GEOM2, PowerLog(1, Fraction(0), Fraction(-2)))
        assert div.kind == "diverges"
        assert conv.kind == "converges"

    def test_growing_weights_on_sparse_set(self):
        assert weight_sum(GEOM2, PowerLog(1, Fraction(1))).kind == "diverges"

    def test_converging_bound_is_sound(self):
        rng = random.Random(13)
        for _ in range(40):
            s = random_set_expr(rng)
            alpha = Fraction(rng.randrange(2, 9), 4)
            w = PowerLog(1, -alpha)
            v = weight_sum(s, w)
            if v.kind == "converges":
                assert partial_sum(s, w, 10 ** 4).partial <= float(v.bound) + 1e-9

    def test_sampled_sums_stop_at_the_sampled_horizon(self):
        s = Sampled(frozenset({1, 2, 7}), 100)
        assert weight_sum(s, HARMONIC).kind == "inconclusive"
        assert weight_sum(Complement(s), HARMONIC).kind == "inconclusive"
        # a partial sum past the sampled horizon is not asked for
        with pytest.raises(HorizonExceeded):
            partial_sum(s, HARMONIC)
        with pytest.raises(HorizonExceeded):
            partial_sum(Complement(s), HARMONIC)

    def test_finite_set_exact(self):
        v = weight_sum(Finite((1, 2, 4)), HARMONIC)
        assert v.kind == "converges"
        assert v.bound == Fraction(1) + Fraction(1, 2) + Fraction(1, 4)


class TestParseRoundTrip:
    def test_atoms(self):
        assert parse_set_expr("residue(2,0)") == Residue(2, 0)
        got = parse_set_expr("residue(3,1) | finite{1,5,9}")
        assert got == Union((Residue(3, 1), Finite((1, 5, 9))))

    def test_parse_error_offset(self):
        from fbasis import ParseError

        with pytest.raises(ParseError):
            parse_set_expr("residue(2,2)")
        with pytest.raises(ParseError) as ei:
            parse_set_expr("residue(2,0) | bogus(3)")
        assert ei.value.offset > 0
        assert ei.value.expected

    def test_precedence(self):
        got = parse_set_expr("!geom(2) & residue(2,0) | finite{3}")
        assert isinstance(got, Union)
        assert isinstance(got.parts[0], Intersection)

    def test_generated_corpus(self):
        rng = random.Random(23)
        for _ in range(100):
            s = random_set_expr(rng, depth=rng.randrange(0, 3))
            text = s.to_text()
            back = parse_set_expr(text)
            assert back == s, text
            assert back.to_text() == text


class TestCanonicalize:
    def test_idempotent_and_sorted(self):
        rng = random.Random(5)
        for _ in range(50):
            s = random_set_expr(rng, depth=2)
            c1 = canonicalize(s)
            assert canonicalize(c1) == c1
            assert set_equal(s, c1)

    @pytest.mark.parametrize("a,b,want", [
        (Residue(3, 0), Intersection((Range(3), Residue(3, 0))), True),
        (Union((Residue(2, 0), Residue(2, 1))), NATURALS, True),
        (Residue(2, 0), Union((Residue(4, 0), Residue(4, 2))), True),
        (Residue(2, 0), Residue(4, 0), False),
        # the same first 10**4 members, told apart by their descriptions
        (Range(1, 20_000), NATURALS, False),
        # membership past 100 is unknown, so equality is not shown
        (Sampled(frozenset({1}), 100), Finite((1,)), False),
    ])
    def test_set_equal_on_different_canonical_forms(self, a, b, want):
        assert canonicalize(a) != canonicalize(b)
        same_prefix = all(member(n, a) == member(n, b) for n in range(1, 101))
        assert set_equal(a, b) is want
        assert same_prefix or not want

    def test_merges(self):
        assert canonicalize(Union((Finite((1,)), Finite((2,))))) == Finite((1, 2))
        assert canonicalize(Complement(Complement(GEOM2))) == GEOM2
        assert canonicalize(Complement(Finite((3,)))) == CoFinite((3,))
        assert canonicalize(Shifted(Shifted(GEOM2, 1), -1)) == GEOM2


@settings(max_examples=200, deadline=None)
@given(q=st.integers(1, 12), r=st.integers(0, 11), n=st.integers(1, 10 ** 6))
def test_residue_membership_matches_arithmetic(q, r, n):
    if r >= q:
        r = r % q
    assert member(n, Residue(q, r)) == (n % q == r)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_density_complement_hypothesis(data):
    seed = data.draw(st.integers(0, 10 ** 6))
    rng = random.Random(seed)
    s = random_set_expr(rng, depth=data.draw(st.integers(0, 2)))
    d = natural_density(s)
    if d.is_exact:
        dc = natural_density(Complement(s))
        assert dc.is_exact
        assert d.value + dc.value == 1
        assert 0 <= d.value <= 1


def test_descriptions_past_the_period_cap_are_not_certain():
    # lcm(1009, 1013) = 1022117 passes the period cap: "not certain", no exception
    both = Intersection((Residue(1009, 0), Residue(1013, 0)))
    for s in (both, Complement(both)):
        assert is_certainly_finite(s) is False
        assert is_certainly_infinite(s) is False
    assert classify_set(both, Frechet()) == SetClass.INCONCLUSIVE
