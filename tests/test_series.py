"""Soundness of the float bounds in ``series`` against the exact oracle."""

import functools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbasis import (
    NATURALS,
    Constant,
    ExplicitPrefix,
    PowerLog,
    SumVerdict,
    parse_scalar_seq,
    parse_set_expr,
    weight_sum,
)
from fbasis.cli import load_config, run_command
from fbasis.sequences import TailForm, eval_vector, tail_form
from fbasis.series import _exp_upper, partial_sum, running_sum, weight_prefix_upper

from series_oracle import exact_prefix_sum

_RATIONALS = st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(1000),
                          max_denominator=1000)


@st.composite
def exact_forms(draw, betas):
    """Tail forms with rational coefficients, integer exponents and no log
    factor, so that every term, head entries included, is a Fraction."""
    head = draw(st.lists(_RATIONALS, max_size=4))
    return TailForm(draw(_RATIONALS), Fraction(draw(betas)), Fraction(0), len(head) + 1,
                    tuple(enumerate(head, start=1)))


@settings(max_examples=60, deadline=None)
@given(form=exact_forms(st.integers(-3, 4)), upto=st.integers(0, 4096))
def test_prefix_bound_covers_the_exact_prefix(form, upto):
    want = exact_prefix_sum(form, upto)
    assert isinstance(want, Fraction)
    got = weight_prefix_upper(form, upto)
    assert got >= want
    assert got <= want * (1 + Fraction(1, 10 ** 11)) + Fraction(1, 10 ** 300)


@settings(max_examples=12, deadline=None)
@given(form=exact_forms(st.integers(-5, -2)))
def test_convergent_bound_covers_the_exact_prefix(form):
    w = PowerLog(form.c, form.beta)
    if form.head:
        w = ExplicitPrefix(tuple(v for _, v in form.head), w)
    assert tail_form(w) == form
    v = weight_sum(NATURALS, w)
    assert v.kind == "converges"
    assert v.bound >= exact_prefix_sum(form, 4096)


@functools.cache
def _decimal_logs() -> tuple:
    """ln(n + 1) to 50 digits for n = 1 .. 4096, shared by the cases below."""
    with localcontext() as ctx:
        ctx.prec = 50
        return tuple(Decimal(n + 1).ln() for n in range(1, 4097))


@pytest.mark.parametrize("c,gamma", [
    (1, 400),  # terms past the float range: summed from their logs
    (10 ** 400, 0),  # a coefficient with no float: c times the unit bound
    (10 ** 400, Fraction(1, 2)),
], ids=["terms", "coefficient", "coefficient-log"])
def test_prefix_bound_past_the_float_range(c, gamma):
    head = ((1, Fraction(5)), (2, Fraction(7, 2)))
    form = TailForm(Fraction(c), Fraction(-2), Fraction(gamma), 3, head)
    got = weight_prefix_upper(form, 4096)
    assert isinstance(got, Fraction)
    with localcontext() as ctx:
        ctx.prec = 50
        g = Decimal(form.gamma.numerator) / form.gamma.denominator
        # at g = 1/2, sqrt gives the values of ** g, correctly rounded and far sooner
        powers = [v.sqrt() if g == Decimal("0.5") else v ** g for v in _decimal_logs()]
        family = [Decimal(c) / (n * n) * w for n, w in enumerate(powers, start=1)]
        want = Fraction(Decimal(5) + Decimal(7) / 2 + sum(family[2:]))
        replaced = Fraction(family[0] + family[1])
    assert got >= want * (1 + Fraction(1, 10 ** 40))
    # the coefficient path also counts the family values the head replaces
    assert got <= (want + replaced) * (1 + Fraction(1, 10 ** 5))


@pytest.mark.parametrize("c", [Fraction(1, 100), Fraction(3, 2), Fraction(100)],
                         ids=["c=1/100", "c=3/2", "c=100"])
def test_log_squared_bound_covers_the_sum(c):
    """alpha = 1, g = 2: the bound's integral tail against a direct sum.

    Past N the terms c / (n ln(n+1)**2) exceed c / ((x+1) ln(x+1)**2) on
    [n, n+1], so c / ln(N+2) is below the remainder."""
    v = weight_sum(NATURALS, parse_scalar_seq(f"powlog({c},-1,-2)"))
    assert v.kind == "converges"
    N = 2 ** 20
    n = np.arange(1, N + 1, dtype=float)
    head = math.fsum((float(c) / (n * np.log(n + 1) ** 2)).tolist())
    assert v.bound >= head + float(c) / math.log(N + 2)


@settings(max_examples=40, deadline=None)
@given(x=st.floats(0, 9000))
def test_exp_upper_covers_the_exponential(x):
    got = _exp_upper(x)
    with localcontext() as ctx:
        ctx.prec = 60
        want = Fraction(Decimal(x).exp())
    assert want * (1 + Fraction(1, 10 ** 55)) <= Fraction(got) <= want * (1 + Fraction(1, 10 ** 4))


def _vector_formula(c, beta, gamma, horizon):
    """The vectorized power-log formula, in the order eval_vector keeps."""
    n = np.arange(1, horizon + 1, dtype=float)
    out = float(c) * n ** float(beta)
    if gamma != 0:
        out *= np.log(n + 1) ** float(gamma)
    return out


def test_eval_vector_keeps_its_bits():
    """Greedy witness blocks depend on eval_vector bit for bit.  It stays the
    vectorized formula exactly, and within a few ulp of the scalar values
    (numpy's pow and log may round differently from the C library's)."""
    horizon = 1024
    for c in (Fraction(1, 3), 0.3):
        seqs = [Constant(c)] + [
            PowerLog(c, Fraction(beta), Fraction(gamma))
            for beta in ("0", "1", "-1", "-2", "1/2", "-7/8", "3/2")
            for gamma in ("0", "1", "-1", "-3/2")
        ]
        for a in seqs:
            f = tail_form(a)
            got = eval_vector(a, horizon)
            want = _vector_formula(f.c, f.beta, f.gamma, horizon)
            assert np.array_equal(got, want), a.to_text()
            scalar = np.array([float(a.value_at(n)) for n in range(1, horizon + 1)])
            assert np.all(np.abs(got - scalar) <= 1e-15 * scalar), a.to_text()


def test_head_entries_replace_family_values():
    w = ExplicitPrefix((Fraction(7), 0.25), PowerLog(1, Fraction(-2)))
    got = tail_form(w).vector(5)
    assert got.tolist() == [7.0, 0.25, 1 / 9, 1 / 16, 1 / 25]


# Sums over sparse sets against direct partial sums up to 10**6.  A
# `converges` bound must be at least the partial sum; any other verdict
# claims nothing about it.
_TOP = 10 ** 6


def _terms(elements, c, beta, gamma=0):
    return [c * n ** beta * math.log(n + 1) ** gamma for n in elements]


@pytest.mark.parametrize("base,offset,beta", [
    (3, 5, -0.25), (2, 1, -0.5), (2, -1, -1.0), (5, 2, -0.125),
])
def test_shifted_geometric_bound_covers_the_partial_sum(base, offset, beta):
    s = parse_set_expr(f"shift(geom({base}),{offset})")
    v = weight_sum(s, PowerLog(1, Fraction(beta)))
    assert v.kind == "converges"
    elements = [base ** m + offset for m in range(1, 40) if 1 <= base ** m + offset <= _TOP]
    assert float(v.bound) >= math.fsum(_terms(elements, 1, beta))


def _thresh_elements(c, beta, gamma, p):
    """thresh(a; p) up to 10**6 for a nondecreasing a = c n**beta ln(n+1)**gamma:
    the k-th element is the first index past the (k-1)-th where a(n)**p
    reaches 2**k k**2, found by bisection in the values."""
    n = np.arange(1, _TOP + 1, dtype=float)
    values = (c * n ** beta * np.log(n + 1) ** gamma) ** p
    out, k = [], 1
    while True:
        i = max(out[-1] if out else 0, int(np.searchsorted(values, 2.0 ** k * k * k)))
        if i >= _TOP:
            return out
        out.append(i + 1)
        k += 1


@functools.cache
def _thresh(c, beta, gamma, p):
    """One parsed set per target, so its scan runs once for all weights."""
    seq = f"powlog({c},{beta},{gamma})" if gamma else f"pow({c},{beta})"
    return parse_set_expr(f"thresh({seq};{p})"), _thresh_elements(c, beta, gamma, p)


_THRESH_TARGETS = [(1, 6, 0, 2), (1, 10, 0, 1), (1, 1, 2, 1), (2, 1, 0, 1.5)]
_THRESH_WEIGHTS = [(1, -1, 0), (1, -0.5, 0), (1, 0, -2), (1, -2, 0), (1, -12, 0), (1, -1, -2)]


@pytest.mark.parametrize("weight", _THRESH_WEIGHTS)
@pytest.mark.parametrize("target", _THRESH_TARGETS)
def test_thresh_bound_covers_the_partial_sum(target, weight):
    s, elements = _thresh(*target)
    assert s.mask(_TOP).nonzero()[0].tolist() == [e - 1 for e in elements]
    c, beta, gamma = weight
    w = PowerLog(c, Fraction(beta), Fraction(gamma))
    v = weight_sum(s, w)
    partial = math.fsum(_terms(elements, c, beta, gamma))
    if v.kind == "converges":
        assert float(v.bound) >= partial
    else:
        assert v.kind == "inconclusive"
        assert partial_sum(s, w).partial == pytest.approx(partial, rel=1e-12)


@pytest.mark.parametrize("target", _THRESH_TARGETS)
def test_thresh_certifies_its_defining_sum(target):
    """Sum of a**(-p) over thresh(a; p) is below sum 1/(2**k k**2) < 1, also
    for a weight equal to a**(-p) only once both are rounded to floats."""
    s, elements = _thresh(*target)
    c, beta, gamma, p = target
    inverse = (c ** -p, -beta * p, -gamma * p)
    for coefficient in (inverse[0], Fraction(repr(inverse[0]))):
        w = PowerLog(coefficient, Fraction(inverse[1]), Fraction(inverse[2]))
        v = weight_sum(s, w)
        assert v.kind == "converges" and v.bound == 1
        assert math.fsum(_terms(elements, *inverse)) <= 1
    assert weight_sum(s, Constant(1)).kind == "diverges"


def test_piecewise_weights_sum_piece_by_piece():
    w = parse_scalar_seq("piece{residue(2,0) => pow(1,-2); residue(2,1) => pow(3,-3/2)}")
    v = weight_sum(NATURALS, w)
    assert v.kind == "converges"
    n = np.arange(1, _TOP + 1, dtype=float)
    assert float(v.bound) >= math.fsum(np.where(n % 2 == 0, n ** -2, 3 * n ** -1.5).tolist())
    # a divergent piece over a set known only up to 100 leaves the sum open;
    # its partial sum is asked for up to there
    w = parse_scalar_seq("piece{residue(2,0) => pow(1,-1); residue(2,1) => pow(1,-2)}")
    s = parse_set_expr("sampled{1,2,3;100}")
    assert weight_sum(s, w) == SumVerdict.inconclusive()
    v = partial_sum(s, w, 100)
    assert (v.kind, v.horizon) == ("inconclusive", 100)
    assert v.partial == pytest.approx(1 + 1 / 2 + 1 / 9, rel=1e-15)


@pytest.mark.parametrize("c", [Fraction(1), Fraction(1, 100), Fraction(7)])
def test_geometric_set_with_a_log_power_in_the_numerator_converges(c):
    """sum over e = 2**m of c e**(-1/1000) ln(e+1)**3 converges, but
    ln(e+1) > 3000 never holds while e has a float.  The bound must cover
    the sum, which is at least L = c ln(2)**3 sum_m m**3 rho**m, rho =
    2**(-1/1000), as ln(2**m + 1) > m ln 2: L = c ln(2)**3 rho (1 + 4 rho +
    rho**2) / (1 - rho)**4, about 8.7e12 c."""
    from fbasis import GeometricIndex

    got = weight_sum(GeometricIndex(Fraction(2)), PowerLog(c, Fraction(-1, 1000), Fraction(3)))
    rho = 2.0 ** (-1 / 1000)
    lower = float(c) * math.log(2) ** 3 * rho * (1 + 4 * rho + rho ** 2) / (1 - rho) ** 4
    assert got.kind == "converges"
    assert lower <= got.bound < 10 * lower


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 400))
def test_sums_just_past_the_harmonic_series_are_bounded_soundly(k):
    """sum_n n**-alpha at alpha = 1 + 10**-k converges, with a bound of at
    least the integral 1 / (alpha - 1), also where alpha's float rounds up
    or to 1.0, and where 10**-k has no float."""
    alpha = 1 + Fraction(1, 10 ** k)
    v = weight_sum(NATURALS, PowerLog(1, -alpha))
    assert v.kind == "converges"
    assert Fraction(v.bound) >= 1 / (alpha - 1)


@settings(max_examples=40, deadline=None)
@given(j=st.integers(1, 999), k=st.integers(3, 20), upto=st.integers(4097, 10 ** 5))
def test_prefix_bound_just_below_the_harmonic_series_covers_it(j, k, upto):
    """sum_{n <= upto} n**-alpha at alpha = 1 - j 10**-k is at least the
    harmonic number H_upto; past the float-summed head the bound integrates
    x**-alpha, whose two powers of nearly 1 must not cancel."""
    alpha = 1 - Fraction(j, 10 ** k)
    harmonic = math.fsum(1.0 / n for n in range(1, upto + 1))
    assert weight_prefix_upper(TailForm(Fraction(1), -alpha, Fraction(0), 1), upto) >= (
        harmonic * (1 - 2.0 ** -50))


@pytest.mark.parametrize("k,upto", [
    (1, 200_000),  # the integral from lo alone fell 5e-6 short of the sum
    (2, 50_000),
    (100, 100_001),  # lo**k and the product past the float range: taken in logs
], ids=["n", "n-squared", "n-to-100"])
def test_growing_prefix_bound_past_the_cap_covers_the_exact_sum(k, upto):
    """sum_{n <= upto} n**k past the float-summed head: a growing weight is
    largest at upto, not at the cap, and the bound covers the exact sum to
    within the relative width (k + 1) / upto of that end term."""
    want = sum(n ** k for n in range(1, upto + 1))
    got = Fraction(weight_prefix_upper(TailForm(Fraction(1), Fraction(k), Fraction(0), 1), upto))
    assert want <= got <= want * (1 + Fraction(k + 1, upto))


def test_a_finite_set_with_weights_past_the_float_range_is_negligible():
    """range(1,200000) under summable(pow(1,300)): a finite set, so a
    negligible one, whose prefix bound passes the float range."""
    cfg = load_config(["classify-set", "--set", "range(1,200000)",
                       "--filter", "summable(pow(1,300))"])
    code, out = run_command(cfg)
    assert code == 0 and b'"class": "negligible"' in out
    v = weight_sum(parse_set_expr("range(1,200000)"), parse_scalar_seq("pow(1,300)"))
    assert v.kind == "converges" and isinstance(v.bound, Fraction)
    # n**300 is convex: the sum exceeds the integral from 0 plus half its last term
    assert v.bound >= Fraction(200_000 ** 301, 301) + Fraction(200_000 ** 300, 2)


_FLOATS = st.floats(min_value=0.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(_FLOATS, max_size=40))
def test_buffer_sums_are_the_list_sums(values):
    """The sums taken through an array's buffer, as ``weight_prefix_upper``
    and ``_log_prefix_sum`` take them, are bit for bit the sums of its
    ``tolist()``, empty arrays included."""
    a = np.array(values, dtype=float)
    assert repr(sum(memoryview(a))) == repr(sum(a.tolist()))
    try:
        want = math.fsum(a.tolist())
    except OverflowError:
        with pytest.raises(OverflowError):
            math.fsum(memoryview(a))
        return
    assert repr(math.fsum(memoryview(a))) == repr(want)


def test_running_sums_add_left_to_right_on_every_python():
    """1 + 2**-53 rounds back to 1 at each step of a running sum, while a
    compensated sum (Python 3.12's builtin sum, or fsum) keeps the two tiny
    terms: the margins of a running sum need the running sum's bits."""
    terms = [1.0, 2.0 ** -53, 2.0 ** -53]
    assert running_sum(terms) == 1.0
    assert math.fsum(terms) == 1.0 + 2.0 ** -52
    assert running_sum([Fraction(1, 3)] * 3) == 1 and running_sum([]) == 0


def test_a_convergent_prefix_is_bounded_by_its_finite_range():
    """sum_{n <= 10**6} n**-alpha at alpha = 1 + 10**-15 is 14.39 (Hurwitz
    zeta), far below the whole sum, about 10**15: past the float-summed
    head the bound takes the integral over the finite range."""
    import mpmath

    alpha = 1 + Fraction(1, 10 ** 15)
    with mpmath.workdps(40):
        s = mpmath.mpf(alpha.numerator) / alpha.denominator
        want = mpmath.zeta(s) - mpmath.zeta(s, 10 ** 6 + 1)
        got = weight_prefix_upper(TailForm(Fraction(1), -alpha, Fraction(0), 1), 10 ** 6)
        assert want <= got <= want * (1 + mpmath.mpf(10) ** -4)
