"""Soundness of the float bounds in ``series`` against the exact oracle."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from fbasis import NATURALS, Constant, ExplicitPrefix, PowerLog, weight_sum
from fbasis.sequences import TailForm, eval_vector, tail_form
from fbasis.series import weight_prefix_upper

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
