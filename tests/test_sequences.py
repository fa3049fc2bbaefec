import math
import random
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fbasis import (
    Complement,
    Constant,
    ExplicitPrefix,
    Finite,
    GeometricIndex,
    NATURALS,
    Piecewise,
    PowerLog,
    Range,
    Residue,
    SeqConstructionError,
    eval_at,
    parse_scalar_seq,
    seq_pow,
    sum_inverse_p_verdict,
    threshold_ge,
)
from fbasis.natset import member
from fbasis.sequences import (
    TailForm,
    _coprime,
    _int_root,
    _monotone_start,
    _as_float,
    _as_fraction,
    compare_pointwise,
    eval_at_indices,
    eval_vector,
    exact_pow,
    is_bounded,
    is_eventually_nondecreasing,
    limit_value,
    power_log_at,
    product_limit,
    seq_mul,
    seq_scale,
    tail_form,
    threshold_levels,
    to_float,
)
from fbasis.series import full_rule_diverges, geometric_rule_converges

import defect_table_oracle
from conftest import random_power_seq


class TestEval:
    def test_exact_square_root(self):
        v = eval_at(PowerLog(1, Fraction(1, 2)), 9)
        assert v == Fraction(3) and isinstance(v, Fraction)

    def test_constant(self):
        assert eval_at(Constant(2), 10 ** 6) == 2

    def test_exact_roots_beyond_float_range(self):
        from fbasis.sequences import exact_root

        big = 3 ** 1000 + 1
        for k in (2, 3, 5):
            assert exact_root(Fraction(big ** k, 7 ** k), k) == Fraction(big, 7)
            assert exact_root(Fraction(big ** k + 1), k) is None
        # a numerator with no root answers None whatever the denominator
        assert exact_root(Fraction(big ** 2 + 1, 4), 2) is None

    def test_prefix_tail(self):
        s = ExplicitPrefix((5, 7), Constant(1))
        assert eval_at(s, 1) == 5
        assert eval_at(s, 2) == 7
        assert eval_at(s, 3) == 1

    def test_inexact_falls_to_float(self):
        v = eval_at(PowerLog(1, Fraction(1, 2)), 10)
        assert isinstance(v, float)
        assert v == pytest.approx(math.sqrt(10))

    def test_exact_vs_float_cross_check(self):
        rng = random.Random(3)
        for _ in range(50):
            s = random_power_seq(rng)
            n = rng.randrange(1, 500)
            exact = eval_at(s, n)
            approx = float(eval_vector(s, n)[n - 1])
            assert float(exact) == pytest.approx(approx, rel=1e-12)

    @pytest.mark.parametrize("c,beta,gamma", [
        (10 ** 309, 1, -400),  # c has no float, its values fall into range
        (10 ** 400, -60, 0),
        (Fraction(1, 10 ** 300), 400, 0),  # n**400 has no float, the value does
        (1, 400, -1),
    ])
    def test_vector_past_the_float_range(self, c, beta, gamma):
        """Each entry is its value to 1e-12, or +inf where the value lies
        past the float range, whichever factor leaves it."""
        v = eval_vector(PowerLog(c, beta, gamma), 1000)
        c = Fraction(c)
        with localcontext() as ctx:
            ctx.prec = 40
            for n in (1, 2, 5, 10, 100, 1000):
                exact = (Decimal(c.numerator) / c.denominator * Decimal(n) ** beta
                         * Decimal(n + 1).ln() ** gamma)
                if exact > Decimal(sys.float_info.max):
                    assert v[n - 1] == math.inf
                else:
                    assert v[n - 1] == pytest.approx(float(exact), rel=1e-12)

    def test_positive_required(self):
        with pytest.raises(SeqConstructionError):
            Constant(0)
        with pytest.raises(SeqConstructionError):
            PowerLog(-1, Fraction(1))
        with pytest.raises(SeqConstructionError):
            ExplicitPrefix((1, 0), Constant(1))


class TestPiecewise:
    def test_rejects_overlap(self):
        with pytest.raises(SeqConstructionError):
            Piecewise(((Residue(2, 0), Constant(1)), (Residue(4, 0), Constant(2))))

    def test_rejects_gap(self):
        with pytest.raises(SeqConstructionError):
            Piecewise(((Residue(3, 0), Constant(1)), (Residue(3, 1), Constant(2))))

    def test_accepts_partition_and_evaluates(self):
        p = Piecewise(
            (
                (GeometricIndex(Fraction(2)), Constant(5)),
                (Complement(GeometricIndex(Fraction(2))), PowerLog(1, Fraction(1))),
            )
        )
        for n in list(range(1, 200)) + [1024, 1025]:
            want = 5 if member(n, GeometricIndex(Fraction(2))) else n
            assert eval_at(p, n) == want

    def test_piece_agreement_sampled(self):
        p = Piecewise(
            (
                (Residue(2, 0), Constant(3)),
                (Residue(2, 1), PowerLog(1, Fraction(1, 2))),
            )
        )
        vec = eval_vector(p, 10 ** 4)
        for n in random.Random(0).sample(range(1, 10 ** 4 + 1), 200):
            assert float(eval_at(p, n)) == pytest.approx(float(vec[n - 1]))

    # n on the evens, 3 on the odds; a head over it has no single tail form
    EVENS_N = Piecewise(((Residue(2, 0), PowerLog(1, Fraction(1))), (Residue(2, 1), Constant(3))))

    def test_head_over_a_piecewise_tail(self):
        a = ExplicitPrefix((Fraction(7), Fraction(1, 2)), self.EVENS_N)
        want = [7, 0.5] + [n if n % 2 == 0 else 3 for n in range(3, 101)]
        assert eval_vector(a, 100).tolist() == want
        assert tail_form(a) is None and threshold_ge(a, 1) is None

    def test_scale_acts_piece_by_piece(self):
        scaled = seq_scale(self.EVENS_N, Fraction(1, 3))
        assert [eval_at(scaled, n) for n in range(1, 9)] == [
            Fraction(n, 3) if n % 2 == 0 else 1 for n in range(1, 9)]

    def test_threshold_per_piece(self):
        got = threshold_ge(self.EVENS_N, 4)
        assert all(member(n, got) == (n % 2 == 0 and n >= 4) for n in range(1, 2000))
        assert threshold_ge(PowerLog(1, Fraction(-1)), 0) == NATURALS

    def test_threshold_levels_per_piece(self):
        # a piece monotone only past e**320 leaves every positive level undecided
        stalled = Piecewise(((Residue(2, 0), PowerLog(1, Fraction(1, 8), Fraction(-40))),
                             (Residue(2, 1), Constant(3))))
        levels = (4, 3, 1, 0, -1, 10 ** 9)
        for a in (self.EVENS_N, stalled):
            want = [defect_table_oracle.threshold_ge(a, t) for t in levels]
            assert threshold_levels(a, levels) == want
        undecided = [s is None for s in threshold_levels(stalled, levels)]
        assert undecided == [True, True, True, False, False, True]

    def test_boundedness_per_piece(self):
        # an unbounded piece on an infinite set makes the whole unbounded;
        # on a finite set it is harmless
        assert is_bounded(self.EVENS_N) is False
        finite = Piecewise(((Finite((1, 2)), PowerLog(1, Fraction(1))),
                            (Complement(Finite((1, 2))), Constant(3))))
        assert is_bounded(finite) is True
        assert max(float(eval_at(finite, n)) for n in range(1, 10 ** 4)) == 3
        assert max(float(eval_at(self.EVENS_N, 2 * k)) for k in range(1, 10 ** 4)) > 10 ** 4


class TestPredicates:
    def test_bounded(self):
        assert is_bounded(Constant(7)) is True
        assert is_bounded(PowerLog(1, Fraction(-1))) is True
        assert is_bounded(PowerLog(1, Fraction(1, 4))) is False
        assert is_bounded(PowerLog(1, Fraction(0), Fraction(1))) is False
        assert is_bounded(PowerLog(1, Fraction(0), Fraction(-1))) is True

    def test_nondecreasing(self):
        assert is_eventually_nondecreasing(PowerLog(1, Fraction(1, 2))) is True
        assert is_eventually_nondecreasing(PowerLog(1, Fraction(-1))) is False
        assert is_eventually_nondecreasing(Constant(1)) is True

    def test_seq_mul_family(self):
        a = PowerLog(2, Fraction(1, 2), Fraction(1))
        b = PowerLog(3, Fraction(-1, 2), Fraction(-1))
        prod = seq_mul(a, b)
        assert prod == Constant(6)

    def test_seq_pow(self):
        a = PowerLog(4, Fraction(1, 2))
        inv = seq_pow(a, Fraction(-2))
        assert eval_at(inv, 3) == Fraction(1, 16) / 3


class TestThresholds:
    def test_decreasing(self):
        s = threshold_ge(PowerLog(1, Fraction(-1)), 0.25)
        assert s == Range(1, 4)

    def test_increasing(self):
        s = threshold_ge(PowerLog(1, Fraction(1, 2)), 3)
        assert s == Range(9, None)

    def test_constant(self):
        assert threshold_ge(Constant(2), 1) == NATURALS
        assert threshold_ge(Constant(2), 3) == Finite(())

    def test_mixed_monotonicity(self):
        # n^(1/2) * log(n+1)^(-2) dips before growing
        s = PowerLog(1, Fraction(1, 2), Fraction(-2))
        got = threshold_ge(s, 1.0)
        assert got is not None
        for n in list(range(1, 2000)) + [10 ** 5]:
            want = float(eval_at(s, n)) >= 1.0
            assert member(n, got) == want, n


class TestSumInverse:
    def test_harmonic_from_sqrt(self):
        assert sum_inverse_p_verdict(PowerLog(1, Fraction(1, 2)), 2).kind == "diverges"

    def test_square_converges(self):
        v = sum_inverse_p_verdict(PowerLog(1, Fraction(1)), 2)
        assert v.kind == "converges"
        assert float(v.bound) <= 2.0

    def test_constant_over_infinite_set(self):
        assert sum_inverse_p_verdict(Constant(3), 1, Residue(5, 2)).kind == "diverges"

    def test_monotone_transfer(self):
        # pointwise larger sequences have smaller inverse sums
        small = PowerLog(1, Fraction(1, 4))
        large = PowerLog(1, Fraction(1, 2))
        for I in (NATURALS, Residue(2, 0)):
            if sum_inverse_p_verdict(large, 2, I).kind == "diverges":
                assert sum_inverse_p_verdict(small, 2, I).kind == "diverges"

    def test_exponent_domain(self):
        with pytest.raises(ValueError):
            sum_inverse_p_verdict(Constant(2), Fraction(1, 2))


class TestSeqParsing:
    def test_round_trip(self):
        texts = [
            "pow(1,1/2)",
            "powlog(3/2,-1,2)",
            "const(5)",
            "prefix[2,3]:pow(1,1)",
            "piece{residue(2,0) => const(3); residue(2,1) => pow(1,1/2)}",
        ]
        for t in texts:
            s = parse_scalar_seq(t)
            assert s.to_text() == t
            assert parse_scalar_seq(s.to_text()) == s

    def test_decimal_literals(self):
        s = parse_scalar_seq("pow(1,0.5)")
        assert s == PowerLog(1, Fraction(1, 2))


@st.composite
def _threshold_case(draw):
    """A sequence whose head scan runs to its monotone start (up to ~22000,
    with beta and gamma of opposite signs), and a threshold that is often
    one of its values, so that entries within rounding of it come up."""
    beta = Fraction(draw(st.sampled_from((-3, -2, -1, 1, 2, 3))), 8)
    gamma = Fraction(draw(st.integers(-10, 10)), 4)
    if draw(st.booleans()):
        gamma = -abs(gamma) if beta > 0 else abs(gamma)  # a dip or a bump first
    seq = PowerLog(draw(st.sampled_from((1, Fraction(3, 2), Fraction(1, 3)))), beta, gamma)
    head = draw(st.lists(st.builds(Fraction, st.integers(1, 9), st.integers(1, 3)), max_size=6))
    if head:
        seq = ExplicitPrefix(tuple(head), seq)
    f = tail_form(seq)
    n0 = _monotone_start(f)
    assume(n0 is not None and n0 <= 25_000)
    scan_to = max(n0, f.start, max([1] + [i for i, _ in f.head]))
    k = draw(st.integers(1, scan_to))
    t = float(seq.value_at(k))
    t = draw(st.sampled_from((t, math.nextafter(t, math.inf), math.nextafter(t, 0),
                              t * draw(st.floats(0.5, 2)))))
    return seq, t, scan_to


# numpy's vector of _DIP is one ulp below value_at at n = 37, that of _BUMP
# one ulp above it at n = 1105: thresholds there need the scalar re-check
_DIP = PowerLog(Fraction(3, 2), Fraction(1, 4), Fraction(-1))
_BUMP = PowerLog(Fraction(3, 2), Fraction(-1, 4), Fraction(2))


@settings(max_examples=60, deadline=None)
@given(case=_threshold_case())
@example(case=(_DIP, float(_DIP.value_at(37)), 56))
@example(case=(_BUMP, math.nextafter(float(_BUMP.value_at(1105)), math.inf), 2982))
def test_threshold_head_matches_per_index_scan(case):
    seq, t, scan_to = case
    levels = (t, math.nextafter(t, math.inf), t / 2, 2 * t, 0.0)
    got_levels = threshold_levels(seq, levels)
    assert got_levels == [defect_table_oracle.threshold_ge(seq, u) for u in levels]
    got = threshold_ge(seq, t)
    assert got == got_levels[0]
    assume(got is not None)  # no crossing below 2**60, so no set to compare
    want = [n for n in range(1, scan_to + 1) if float(seq.value_at(n)) >= t]
    assert (np.flatnonzero(got.mask(scan_to)) + 1).tolist() == want


@st.composite
def _run_case(draw):
    """A sequence whose evaluated head (of 16 entries or more) has one to
    five monotone runs: a power-log family that turns inside it, a
    ``prefix[...]`` head over a monotone family with one or two values moved,
    or a one-ulp case.  The levels fall on head values, value_at's and the
    vector's, one ulp either side of them, and between two of them."""
    kind = draw(st.sampled_from(("turn", "prefix", "ulp")))
    beta = Fraction(draw(st.sampled_from((-3, -2, -1, 1, 2, 3))), 8)
    c = draw(st.sampled_from((1, Fraction(3, 2), Fraction(1, 3))))
    if kind == "ulp":
        seq = draw(st.sampled_from((_DIP, _BUMP)))
    elif kind == "turn":  # the turn lies near e**k for the drawn k, inside the head
        seq = PowerLog(c, beta, -beta * draw(st.integers(3, 9)))
    else:
        tail = PowerLog(c, beta)
        values = [Fraction(float(tail.value_at(n))) for n in range(1, draw(st.integers(16, 40)))]
        for _ in range(draw(st.integers(1, 2))):
            values[draw(st.integers(0, len(values) - 1))] = draw(
                st.builds(Fraction, st.integers(1, 9), st.integers(1, 3)))
        seq = ExplicitPrefix(tuple(values), tail)
    f = tail_form(seq)
    scan_to = max(_monotone_start(f), f.start, max([1] + [i for i, _ in f.head]))
    vector = eval_vector(seq, scan_to)
    levels = []
    for _ in range(3):
        n = draw(st.integers(1, scan_to))
        for v in (float(seq.value_at(n)), float(vector[n - 1])):
            levels += [v, math.nextafter(v, math.inf), math.nextafter(v, 0)]
        m = draw(st.integers(1, scan_to))
        levels.append((float(vector[n - 1]) + float(vector[m - 1])) / 2)
    return seq, levels


@settings(max_examples=60, deadline=None)
@given(case=_run_case())
@example(case=(_DIP, [float(_DIP.value_at(37))]))
@example(case=(_BUMP, [math.nextafter(float(_BUMP.value_at(1105)), math.inf)]))
def test_run_search_matches_the_per_index_scan(case):
    """Every level's set from the head's monotone runs is the one that the
    per-index scan of the head gives."""
    seq, levels = case
    assert threshold_levels(seq, levels) == [defect_table_oracle.threshold_ge(seq, t)
                                             for t in levels]


_ROOTS = st.integers(0, 10 ** 300)


@settings(max_examples=300, derandomize=True, database=None)
@given(st.one_of(_ROOTS.map(lambda r: r * r),
                 st.builds(lambda r, d: max(r * r + d, 0), _ROOTS, st.sampled_from((-1, 1))),
                 st.integers(0, 10 ** 600)))
def test_square_root_filter_rejects_no_square(v):
    """The residue masks in front of isqrt turn away only non-squares."""
    r = math.isqrt(v)
    assert _int_root(v, 2) == (r if r * r == v else None)


@pytest.mark.parametrize("v", [2, 3, 255, 256, 3 ** 40, 10 ** 400])
def test_a_root_of_order_from_the_bit_length_on_is_none(v):
    """From k = v.bit_length() on, 1 < v < 2**k leaves v no integer k-th
    root; one order below, a power of 2 keeps its root 2."""
    for k in (v.bit_length(), v.bit_length() + 1, 10 ** 6):
        assert _int_root(v, k) is None
    k = max(v.bit_length() - 1, 2)
    assert _int_root(2 ** k, k) == 2 and _int_root(2 ** k + 1, k) is None


# Coefficients out to 10**+-400 send values past the float range both ways.
_COEFFICIENTS = st.sampled_from((Fraction(1, 3), Fraction(5, 2), Fraction(10 ** 400),
                                 Fraction(1, 10 ** 400)))


@st.composite
def nested_sequences(draw, depth=2):
    """Power-log and constant leaves under prefixes and piecewise splits
    mod 2 or 3, nested up to ``depth`` deep."""
    kind = draw(st.sampled_from(("pow", "const") + (("prefix", "piece") if depth else ())))
    if kind == "pow":
        return PowerLog(draw(_COEFFICIENTS), Fraction(draw(st.integers(-8, 8)), 4),
                        Fraction(draw(st.integers(-4, 4)), 2))
    if kind == "const":
        return Constant(draw(_COEFFICIENTS))
    if kind == "prefix":
        head = draw(st.lists(_COEFFICIENTS, min_size=1, max_size=5))
        return ExplicitPrefix(tuple(head), draw(nested_sequences(depth - 1)))
    q = draw(st.integers(2, 3))
    return Piecewise(tuple((Residue(q, r), draw(nested_sequences(depth - 1))) for r in range(q)))


# rationals out to 10**+-400 and floats whose products leave the float range
_FACTOR_VALUES = _COEFFICIENTS | st.sampled_from((math.sqrt(5), 1e-300, 1e300))


@st.composite
def product_factors(draw, depth=2):
    """Constant and power-log leaves, prefixes over them, and piecewise
    sequences of one piece (the naturals) or two (the residues mod 2)."""
    kind = draw(st.sampled_from(("pow", "const") + (("prefix", "piece") if depth else ())))
    if kind == "pow":
        return PowerLog(draw(_FACTOR_VALUES), Fraction(draw(st.integers(-8, 8)), 4),
                        Fraction(draw(st.integers(-2, 2)), 2))
    if kind == "const":
        return Constant(draw(_FACTOR_VALUES))
    if kind == "prefix":
        head = draw(st.lists(_FACTOR_VALUES, min_size=1, max_size=4))
        return ExplicitPrefix(tuple(head), draw(product_factors(depth - 1)))
    sets = draw(st.sampled_from(((NATURALS,), (Residue(2, 0), Residue(2, 1)))))
    return Piecewise(tuple((s, draw(product_factors(depth - 1))) for s in sets))


@settings(max_examples=300, deadline=None)
@given(a=product_factors(), b=product_factors())
@example(a=ExplicitPrefix((math.sqrt(5),), Constant(Fraction(10 ** 200))),
         b=PowerLog(Fraction(1, 10 ** 400), Fraction(-1, 3)))
def test_the_limit_from_tail_forms_is_the_limit_of_the_product(a, b):
    """``product_limit`` of the two tail forms is ``limit_value`` of the
    built product, None exactly where that is: in the example the tails'
    product tends to 0, but the head product sqrt(5) 10**-400 underflows."""
    assert product_limit(tail_form(a), tail_form(b)) == limit_value(seq_mul(a, b))


@settings(max_examples=80, deadline=None)
@given(a=nested_sequences(), top=st.integers(1, 3000),
       cuts=st.lists(st.integers(0, 3000), max_size=4),
       subset=st.sets(st.integers(1, 3000), max_size=40))
@example(a=Piecewise(((Residue(2, 0), PowerLog(Fraction(10 ** 400), 60, -400)),
                      (Residue(2, 1), ExplicitPrefix((Fraction(1, 10 ** 400),), Constant(2))))),
         top=3000, cuts=[1, 1024], subset={1, 2, 3, 2999})
def test_windows_and_subsets_get_the_bytes_of_one_evaluation(a, top, cuts, subset):
    """Each entry depends on its index alone: windows that join, and any
    ascending subset of indices, read what one evaluation from 1 gives."""
    whole = eval_vector(a, top)
    cuts = sorted({0, top} | {c for c in cuts if c < top})
    for lo, hi in zip(cuts, cuts[1:]):
        assert eval_vector(a, hi, lo).tobytes() == whole[lo:hi].tobytes()
    n = np.array(sorted(i for i in subset if i <= top), dtype=np.int64)
    assert eval_at_indices(a, n).tobytes() == whole[n - 1].tobytes()


@settings(max_examples=100, deadline=None)
@given(c=st.fractions(min_value=Fraction(1, 1000), max_value=1000, max_denominator=1000),
       k=st.integers(-3, 3), n=st.integers(1, 10 ** 4))
def test_integer_powers_are_the_exact_pow_values(c, k, n):
    """With an integer exponent and no log factor the value is c n**k, taken
    without a root; it is the Fraction that ``exact_pow`` gives."""
    got = power_log_at(c, Fraction(k), Fraction(0), n)
    assert type(got) is Fraction
    assert got == c * exact_pow(Fraction(n), Fraction(k))


@st.composite
def _int_power_args(draw):
    """(c, k, n) with n <= 10**6 and c's denominator sharing factors with n
    (a divisor of n, of n**2 or of neither, times a small cofactor)."""
    n = draw(st.integers(1, 10 ** 6))
    k = draw(st.integers(0, 4))
    shared = draw(st.sampled_from([1, math.gcd(n, draw(st.integers(1, 10 ** 6))), n, n * n]))
    den = shared * draw(st.integers(1, 60))
    num = draw(st.integers(-10 ** 6, 10 ** 6))
    return Fraction(num, den), k, n


@settings(max_examples=300, deadline=None)
@given(_int_power_args())
def test_the_integer_power_path_is_the_fraction_product(args):
    """At gamma = 0, beta = k >= 0 and an int n, the value is the Fraction
    c * Fraction(n)**k in value, text and type, in lowest terms though it is
    reduced by gcd(n**k, c.den) alone."""
    c, k, n = args
    got, want = power_log_at(c, Fraction(k), Fraction(0), n), c * Fraction(n) ** k
    assert type(got) is Fraction and repr(got) == repr(want) and got == want
    assert got.denominator > 0 and math.gcd(got.numerator, got.denominator) == 1


@settings(max_examples=300, deadline=None)
@given(c=st.fractions(min_value=Fraction(1, 1000), max_value=1000, max_denominator=1000),
       beta=st.builds(Fraction, st.integers(-12, 12).filter(bool), st.integers(1, 6)),
       n=st.integers(1, 10 ** 6)
       | st.builds(pow, st.integers(1, 30), st.integers(1, 6)).filter(lambda n: n <= 10 ** 6))
def test_fractional_powers_of_an_int_are_the_exact_pow_values(c, beta, n):
    """An int n takes its integer root directly; the value and its type are
    those of the path through ``exact_pow`` on Fraction(n), and where that
    has no root both are the binary64 value.  Perfect powers are drawn on
    purpose, so that exact roots occur."""
    want = exact_pow(Fraction(n), beta)
    want = to_float(c, beta, 0, n) if want is None else c * want
    got = power_log_at(c, beta, Fraction(0), n)
    assert type(got) is type(want)
    assert got == want


def test_coprime_is_the_fraction_of_its_pair():
    """On the running interpreter, the Fraction set through its slots is
    Fraction(n, d): equal, with the same hash, text, arithmetic and order."""
    rng = random.Random(5)
    for _ in range(300):
        d = rng.randrange(1, 10 ** rng.randrange(1, 40))
        n = rng.randrange(-10 ** 40, 10 ** 40)
        g = math.gcd(n, d)
        n, d = n // g, d // g
        got, want = _coprime(n, d), Fraction(n, d)
        other = Fraction(rng.randrange(-99, 100), rng.randrange(1, 100))
        assert type(got) is Fraction and (got.numerator, got.denominator) == (n, d)
        assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
        assert got + other == want + other and got * other == want * other
        assert (got < other, got > other, got <= want, got >= want) == (
            want < other, want > other, True, True)
        assert float(got) == float(want) and {got: 1} == {want: 1}


def _lex_sign(pair) -> int:
    """The sign of an exponent pair against (0, 0) in lexicographic order,
    the oracle of ``TailForm.growth``."""
    for x in pair:
        if x != 0:
            return 1 if x > 0 else -1
    return 0


def _lex_le(p, q) -> bool:
    return p[0] < q[0] or (p[0] == q[0] and p[1] <= q[1])


# 0, +-1, values within 10**-k of 0 and of +-1 for k up to 400 (past the
# float range, where 1 + 10**-k has the float 1.0), and plain rationals
_ORDER_EXPONENTS = st.one_of(
    st.sampled_from((Fraction(0), Fraction(1), Fraction(-1))),
    st.builds(lambda base, side, k: base + side * Fraction(1, 10 ** k),
              st.sampled_from((0, 1, -1)), st.sampled_from((1, -1)), st.integers(1, 400)),
    st.fractions(min_value=-3, max_value=3, max_denominator=12))


@settings(max_examples=400, deadline=None)
@given(beta=_ORDER_EXPONENTS, gamma=_ORDER_EXPONENTS, beta2=_ORDER_EXPONENTS,
       gamma2=_ORDER_EXPONENTS, c=st.sampled_from((Fraction(1), Fraction(7, 2), 0.25)))
def test_power_log_rules_are_the_lexicographic_order(beta, gamma, beta2, gamma2, c):
    """Growth, boundedness, monotonicity, limit, comparison and both sum
    rules of c n**beta ln(n+1)**gamma follow the lexicographic order of
    (beta, gamma), decided on the exact exponents however close they lie
    to 0 or 1.  The rule functions take (beta, gamma); the oracle states
    the sum rules on alpha = -beta and g = -gamma."""
    a, b = PowerLog(c, beta, gamma), PowerLog(1, beta2, gamma2)
    sign = _lex_sign((beta, gamma))
    assert tail_form(a).growth == TailForm(c, beta, gamma, 1).growth == sign
    for seq in (a, ExplicitPrefix((5,), a)):
        assert is_bounded(seq) is (sign <= 0)
        assert is_eventually_nondecreasing(seq) is (sign >= 0)
        assert limit_value(seq) == (math.inf if sign > 0 else 0.0 if sign < 0 else float(c))
    assert is_eventually_nondecreasing(Piecewise(((NATURALS, a),))) is None
    assert compare_pointwise(a, b) is _lex_le((beta, gamma), (beta2, gamma2))
    assert full_rule_diverges(beta, gamma) is _lex_le((-beta, -gamma), (1, 1))
    assert geometric_rule_converges(beta, gamma) is not _lex_le((-beta, -gamma), (0, 1))


_BIG = 10 ** 400


@settings(max_examples=300, deadline=None)
@given(num=st.integers(-_BIG, _BIG), den=st.integers(1, _BIG))
@example(num=1, den=10 ** 400)  # below the subnormals: 0.0
@example(num=-1, den=10 ** 400)  # -0.0
@example(num=2 ** 1024 - 2 ** 970, den=1)  # the largest float, exactly
@example(num=2 ** 1024, den=1)  # past it
def test_as_float_is_float_bit_for_bit(num, den):
    """``_as_float`` of a Fraction is float() of it, sign of zero included,
    and raises OverflowError exactly where float() does."""
    x = Fraction(num, den)
    try:
        want = float(x)
    except OverflowError:
        with pytest.raises(OverflowError):
            _as_float(x)
        return
    assert _as_float(x).hex() == want.hex()


class _Q(Fraction):
    pass


def test_as_fraction_passes_a_fraction_through():
    x = Fraction(7, 3)
    assert _as_fraction(x) is x
    for other, want in ((_Q(7, 3), x), (3, Fraction(3)), (0.25, Fraction(1, 4)), ("7/3", x)):
        out = _as_fraction(other)
        assert type(out) is Fraction and out == want
    assert type(_as_float(_Q(7, 3))) is float and _as_float(_Q(7, 3)) == float(x)


def test_power_log_keeps_the_fractions_it_is_given():
    c, beta, gamma = Fraction(7, 2), Fraction(-3, 2), Fraction(1, 3)
    a = PowerLog(c, beta, gamma)
    assert a.c is c and a.beta is beta and a.gamma is gamma
    b = PowerLog(2, 1)  # ints still become Fractions
    assert type(b.beta) is Fraction and type(b.gamma) is Fraction and b.gamma == 0
