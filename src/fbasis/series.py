"""Convergence and divergence verdicts for weighted sums over structured sets.

Decides sum_{n in S} w(n) for weights in the power-log family
w(n) = c * n**(-alpha) * ln(n+1)**(-g) and sets built from the natset
atoms.  The families are ordered by growth as their exponent pairs
(alpha, g) are in lexicographic order (``TailForm.growth``), so the rule
table is two comparisons of exact rationals:

* over the naturals or any residue class the sum diverges iff
  (alpha, g) <= (1, 1);
* over a geometric index set it converges iff (alpha, g) > (0, 1).

Floats only evaluate bounds; they never decide whether a sum converges.

Sets are reduced through their under/over descriptions.  A set whose
under-approximation still contains a residue class keeps the positive
density that makes the divergence rule apply; a set that is covered by
sparse tokens is summed token by token with certified tail bounds.
Everything else is an honest inconclusive; where a report prints one,
it prints the partial sum at the horizon from ``partial_sum``.

Convergence verdicts always carry a certified upper bound: exact
rational where the terms are exact and the tail telescopes to a
geometric series, otherwise binary64 with explicit tail estimates,
rounded outward so that every float bound is an upper bound under IEEE
rounding.  A bound past the float range is an exact rational, or +inf
when that rational has more digits than a report can print.

A weight is taken in its tail form c * n**beta * ln(n+1)**gamma, so
alpha = -beta and g = -gamma above.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from fractions import Fraction
from typing import Optional

from ._lazy_numpy import np
from .natset import (
    DEFAULT_HORIZON,
    GeometricIndex,
    HorizonExceeded,
    Intersection,
    NATURALS,
    SetExpr,
    Shifted,
    SumVerdict,
    enumerate_prefix,
)
from .sequences import (
    Piecewise,
    ScalarSeq,
    TailForm,
    _as_float,
    _as_fraction,
    eval_at_indices,
    exact_pow,
    ln,
    seq_pow,
    tail_form,
    to_float,
)

_PREFIX_CAP = 4096
# A rational with more digits than Python prints (4300) cannot go in a
# report; a bound past this many bits is +inf instead, still a bound.
_EXACT_BITS = 13_000


def _margin(terms: int) -> float:
    """The relative margin of ``_round_up`` and ``_round_down``: 2**-40 for
    the few-ulp error of each pow/log term, plus gamma_{terms - 1} =
    k u / (1 - k u), k = terms - 1 and u = 2**-53, for a running sum of
    ``terms`` positive floats: |fl(x_1 + ... + x_m) - (x_1 + ... + x_m)|
    <= gamma_{m - 1} (x_1 + ... + x_m) (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., section 4.2).  One term, or a correctly
    rounded sum (fsum), adds 0."""
    k = (terms - 1) * 2.0 ** -53
    return 2.0 ** -40 + k / (1.0 - k)


def running_sum(xs):
    """The sum of xs added one at a time from 0, left to right: the running
    sum whose error ``_margin`` bounds, with the same bits on every Python
    (the builtin sum compensates float additions from 3.12 on)."""
    return functools.reduce(operator.add, xs, 0)


def _round_up(x: float, terms: int = 1) -> float:
    """An upper bound for a value computed as x in binary64, through at most
    a running sum of ``terms`` positive floats: the relative margin
    ``_margin(terms)``, then one ulp."""
    return math.nextafter(x * (1.0 + _margin(terms)), math.inf)


def _round_down(x: float, terms: int = 1) -> float:
    """A lower bound for a positive value computed as x, the twin of
    ``_round_up``."""
    return math.nextafter(x * (1.0 - _margin(terms)), 0.0)


# ---------------------------------------------------------------------------
# bounds past the float range
#
# Where a float bound cannot be formed (the coefficient has no float, or a
# term or factor overflows), the bound is taken exactly or in logs and
# reported as a rational.  Where the float path answers, it alone is used.


def _exact_bound(x: Fraction):
    """x as a bound: itself while a report can print it, else +inf."""
    if max(x.numerator.bit_length(), x.denominator.bit_length()) > _EXACT_BITS:
        return math.inf
    return x


def _exp_upper(log_bound: float):
    """An upper bound for e**log_bound: a float while one holds it, else
    exactly m * 2**k for a rounded-up float m.  A relative margin of 2**-30
    on the exponent covers the rounding of the logs that produced it."""
    log_bound += 2.0 ** -30 * (1.0 + abs(log_bound))
    if log_bound < 709.0:
        return _round_up(math.exp(log_bound))
    if log_bound > _EXACT_BITS * math.log(2.0):
        return math.inf
    k = int(log_bound / math.log(2.0)) - 1
    return _exact_bound(Fraction(_round_up(math.exp(log_bound - k * math.log(2.0)))) * 2 ** k)


def _log_prefix_sum(form: TailForm, upto: int) -> float:
    """ln of sum_{n=1}^{upto} w(n), head entries applied, summed from the
    logs of its terms scaled by the largest."""
    logs = form.family_logs(np.arange(1, upto + 1, dtype=float))
    for i, v in form.head:
        if i <= upto:
            logs[i - 1] = ln(v)
    top = float(logs.max())
    return top + math.log(math.fsum(memoryview(np.exp(logs - top))))


def _unit_family(form: TailForm) -> TailForm:
    """The family part of ``form`` with coefficient 1."""
    return TailForm(Fraction(1), form.beta, form.gamma, form.start)


def _with_coefficient(form: TailForm, unit_bound, upto: int):
    """For a coefficient c past the float range: c times ``unit_bound``, a
    bound for the coefficient-1 family over the same indices, plus every
    head value up to ``upto``; exact.  The family values the head entries
    replace are positive, so counting both over-counts only."""
    if unit_bound == math.inf:
        return math.inf
    heads = sum((Fraction(v) for i, v in form.head if i <= upto), Fraction(0))
    return _exact_bound(Fraction(form.c) * Fraction(unit_bound) + heads)


def full_rule_diverges(beta: Fraction, gamma: Fraction) -> bool:
    """Divergence over the naturals (equivalently any residue class) of the
    weight of tail form exponents (beta, gamma): (beta, gamma) >= (-1, -1),
    the same order as (alpha, g) <= (1, 1)."""
    return (beta, gamma) >= (-1, -1)


def geometric_rule_converges(beta: Fraction, gamma: Fraction) -> bool:
    """Convergence over a geometric index set of the weight of tail form
    exponents (beta, gamma): (beta, gamma) < (0, -1), the same order as
    (alpha, g) > (0, 1)."""
    return (beta, gamma) < (0, -1)


def _excess(e: Fraction, xf: float) -> float:
    """x - 1 in binary64 for x = -e > 1, a weight's alpha = -beta or
    g = -gamma, whose float is xf: xf - 1.0, unless rounding made that 0 or
    larger than x - 1, which would shrink an integral bound's 1 / (x - 1);
    then x - 1 rounded to nearest, by one integer division."""
    exact = (-e.numerator - e.denominator) / e.denominator
    return min(xf - 1.0, exact) or exact


# ---------------------------------------------------------------------------
# certified tail bounds


def full_tail_upper(form: TailForm, start: int):
    """Certified upper bound for sum_{n >= start} of the family part: a
    float, or past the float range an exact rational (or +inf).

    Requires the full-sum convergence condition (alpha, g) > (1, 1), as
    ``full_rule_diverges`` decides it.  Uses the integral test; a log
    factor in the numerator is absorbed via ln y <= y**d / (e*d).  Where
    1 / (alpha - 1) or 1 / (g - 1) has no float, the integral is bounded
    in logs.
    """
    c = to_float(form.c)
    if c == math.inf:
        return _with_coefficient(form, full_tail_upper(_unit_family(form), start), 0)
    a = -_as_float(form.beta)
    g = -_as_float(form.gamma)
    n0 = max(start, form.start, 2)
    if form.beta == -1:
        # terms <= c * x**-1 * ln(x)**-g for x >= 2; the first term carries c
        last = _as_float(form.value_at(n0))
        g1 = _excess(form.gamma, g)
        if g1 < sys.float_info.min:
            return _add_bounds([_exp_upper(
                ln(form.c) - ln(-form.gamma - 1) + _as_float(form.gamma + 1) * math.log(math.log(n0))),
                last])
        return _round_up(c * (math.log(n0) ** (1.0 - g) / g1) + last)
    a1 = _excess(form.beta, a)
    if a1 < sys.float_info.min:
        # the bounds below in logs, the integral's exponent b = alpha - d k taken
        # exact: n0**-b (n0 / (b - 1) + 1) <= (1 + 1/n0) / (b - 1), and the
        # factor's term k d ln 2 < alpha - 1 lies within _exp_upper's margin
        k = max(form.gamma, 0)
        b1 = (-form.beta - 1) / (2 if k else 1)  # b - 1, and d = b1 / k
        return _exp_upper(ln(form.c) + math.log1p(1.0 / n0) - ln(b1)
                          - (float(k) * (1.0 + ln(b1 / k)) if k else 0.0))
    if g >= 0:
        lead = c * math.log(n0 + 1) ** (-g) if g else c
        return _round_up(lead * (n0 ** (1.0 - a) / a1 + n0 ** (-a)))
    k = -g
    d = a1 / (2.0 * k)
    a2 = (a + 1.0) / 2.0
    half = min(a2 - 1.0, a1 / 2.0) or a1 / 2.0  # a2 - 1, as _excess takes a - 1
    rest = n0 ** (1.0 - a2) / half + n0 ** (-a2)
    try:
        cc = c * (2.0 ** d / (math.e * d)) ** k
    except OverflowError:
        # the factor has no float: the same bound, taken in logs, with
        # rest = n0**-a2 (n0 / (a2 - 1) + 1)
        return _exp_upper(ln(form.c) + k * (d * math.log(2.0) - 1.0 - math.log(d))
                          - a2 * math.log(n0) + math.log(n0 / half + 1.0))
    return _round_up(cc * rest)


def weight_prefix_upper(form: TailForm, upto: int):
    """Certified upper bound for sum_{n=1}^{upto} w(n): the first
    _PREFIX_CAP terms summed in floats, past them an integral bound.  Past
    the float range it is an exact rational (or +inf), as in
    ``full_tail_upper``."""
    if upto <= 0:
        return Fraction(0)
    if to_float(form.c) == math.inf:
        return _with_coefficient(form, weight_prefix_upper(_unit_family(form), upto), upto)
    try:
        head = _round_up(math.fsum(memoryview(form.vector(min(upto, _PREFIX_CAP)))))
    except OverflowError:
        head = math.inf
    if head == math.inf:
        # terms or their sum past the float range: take the sum in logs
        head = _exp_upper(_log_prefix_sum(form, min(upto, _PREFIX_CAP)))
    if upto <= _PREFIX_CAP:
        return head
    # explicit head entries past the cap are not family values
    extra = [_as_float(v) for i, v in form.head if _PREFIX_CAP < i <= upto]
    # w(n) <= lead * n**-a on (lo, upto], and the sum of a monotone n**-a there
    # is at most its integral over [lo, upto] plus its largest value, at lo
    # where it falls and at upto where it grows
    a = -_as_float(form.beta)
    g = -_as_float(form.gamma)
    lo = _PREFIX_CAP
    y = lo + 1 if g >= 0 else upto + 1  # ln(n+1)**-g <= ln(y)**-g on (lo, upto]
    edge = lo if a >= 0 else upto
    try:
        c = _as_float(form.c)
        lead = c * math.log(y) ** (-g) if g else c
        if a != 1:
            # (upto**(1-a) - lo**(1-a)) / (1 - a) through expm1: near a = 1 the powers cancel
            tail = lead * (edge ** (-a) + lo ** (1.0 - a)
                           * math.expm1((1.0 - a) * math.log(upto / lo)) / (1.0 - a))
        else:
            tail = lead * (lo ** (-a) + math.log(upto / lo))
    except OverflowError:
        tail = math.inf
    if not full_rule_diverges(form.beta, form.gamma):
        # a convergent family: the whole tail bounds the finite one too, and
        # is the smaller one once upto is far enough out
        return _add_bounds([head, min(tail, full_tail_upper(form, _PREFIX_CAP + 1))] + extra)
    if not tail < math.inf:
        # a factor or the product past the float range: the same bound in logs,
        # with ln expm1(x) = x + ln(-expm1(-x)) and ln(e**t1 + e**t2) taken stably
        if a < 1:
            x = (1.0 - a) * math.log(upto / lo)
            t1 = -a * math.log(edge)
            t2 = (1.0 - a) * math.log(lo) + x + math.log(-math.expm1(-x)) - math.log(1.0 - a)
            bracket = max(t1, t2) + math.log1p(math.exp(-abs(t1 - t2)))
        else:
            bracket = math.log(lo ** (-a) + math.log(upto / lo))
        tail = _exp_upper(ln(form.c) - (g * math.log(math.log(y)) if g else 0.0) + bracket)
    return _add_bounds([head, tail] + extra)


class _GeomElements:
    """Ascending elements of a sparse token, with a growth certificate."""

    def __init__(self, elements, ratio_lower: float, offset: int = 0):
        self.elements = elements
        self.ratio_lower = ratio_lower  # provable lower bound on n_{m+1}/n_m, > 1
        self.offset = offset


def _token_elements(token) -> _GeomElements:
    """The elements of a geometric set, possibly shifted."""
    if isinstance(token, Shifted):
        inner = _token_elements(token.base)
        off = token.offset + inner.offset

        def gen(inner_gen=inner.elements, off=off):
            for e in inner_gen():
                if e + off >= 1:
                    yield e + off

        return _GeomElements(gen, inner.ratio_lower, off)
    b = _as_float(token.base)
    # floor(b**(m+1)) / floor(b**m) >= b - 1/2 for elements >= 2
    return _GeomElements(token.elements, max(1.5, b - 0.5))


def _base_token(token):
    while isinstance(token, Shifted):
        token = token.base
    return token


def sparse_token_sum(token: SetExpr, w: ScalarSeq, form: TailForm) -> SumVerdict:
    """Verdict for the sum of w, of tail form ``form``, over one sparse token."""
    v = token.certified_weight_sum(w)
    if v is not None:
        return v
    if isinstance(_base_token(token), GeometricIndex):
        if geometric_rule_converges(form.beta, form.gamma):
            exact = _exact_geometric_sum(token, form)
            if exact is not None:
                return SumVerdict.converges(exact)
            return _sparse_converging_bound(_token_elements(token), form)
        return SumVerdict.diverges()
    if form.growth >= 0:
        # terms eventually bounded away from zero along an infinite set
        return SumVerdict.diverges()
    # a threshold set (thresh) has no growth ratio to sum a tail with: its
    # elements can be consecutive integers for as long as a(n)**p outruns
    # 2**k * k**2
    return SumVerdict.inconclusive()


def _exact_geometric_sum(token, form: TailForm) -> Optional[Fraction]:
    """Exact total for an integer-base geometric set and exact power weights."""
    if not isinstance(token, GeometricIndex) or token.base.denominator != 1:
        return None
    if form.gamma != 0 or not isinstance(form.c, Fraction):
        return None
    r = exact_pow(token.base, form.beta)
    if r is None or not 0 < r < 1:
        return None
    b = int(token.base)
    head_max = max([form.start - 1] + [i for i, _ in form.head])
    total = Fraction(0)
    m = 1
    elem = b
    while elem <= head_max:
        v = form.value_at(elem)
        if not isinstance(v, Fraction):
            return None
        total += v
        m += 1
        elem = b ** m
    # remaining terms are exactly c * r**k for k >= m
    total += form.c * r ** m / (1 - r)
    return total


# e <= _FLOAT_STEP_MAX / r keeps the float product e * r finite despite rounding
_FLOAT_STEP_MAX = sys.float_info.max * (1.0 - 2.0 ** -40)


def _sparse_converging_bound(elems: _GeomElements, form: TailForm) -> SumVerdict:
    """A bound from the growth ratio; the elements never run out, so the
    scan ends in one of its returns: at the latest after 4000 terms, or
    undecided where e * r, and with it the next element, has no float."""
    if to_float(form.c) == math.inf:
        v = _sparse_converging_bound(elems, _unit_family(form))
        if v.kind == "converges":
            return SumVerdict.converges(_with_coefficient(form, v.bound, math.inf))
        return v
    alpha = -_as_float(form.beta)
    g = -_as_float(form.gamma)
    # a positive shift dilutes the growth ratio; past e >= 4*offset the loss
    # is at most a quarter of (r - 1)
    r = elems.ratio_lower
    if elems.offset > 0:
        r = (3.0 * r + 1.0) / 4.0
    total = 0.0
    count = 0
    for e in elems.elements():
        count += 1
        settled = e > form.start and e >= 4 * max(1, abs(elems.offset)) and count >= 8
        if count > 4000 or e > _FLOAT_STEP_MAX / r:
            bound, h = math.inf, alpha / 2.0
            # ln(e+1) never passed -g/alpha; an h below the normal floats misstates ln h
            if h >= sys.float_info.min and g < 0 and settled:
                # with d = h / k, k = -g: ln y <= y**d / (d exp(1)) and x + 1 <= 2 x, so
                # the term at x is at most c (d exp(1))**-k 2**h x**-h, and the elements
                # from e on grow by r: a geometric series in their index, taken in logs
                bound = _add_bounds([total, _exp_upper(
                    ln(form.c) + g * (1.0 + math.log(-h / g)) + h * (math.log(2.0) - math.log(e))
                    - math.log(-math.expm1(-h * math.log(r))))])
            return SumVerdict.inconclusive() if bound == math.inf else SumVerdict.converges(bound)
        if alpha > 0 and settled and (g >= 0 or math.log(e + 1) > -g / alpha):
            # weights decrease beyond e; elements grow at least by factor r
            limit = r ** (-alpha)  # rho decreases to this as e grows
            if g >= 0:
                rho = limit
            else:
                rho = limit * (1.0 + math.log(r) / math.log(e + 1)) ** (-g)
            # the bound holds for every rho < 1; waiting for rho <= 0.95
            # only tightens it, and never ends when the limit is above 0.95
            if rho <= 0.95 or (limit > 0.95 and rho < 1.0):
                tail_first = to_float(form.value_at(max(int(e * r) - 1, e + 1)))
                return SumVerdict.converges(_round_up(total + tail_first / (1.0 - rho)))
        if alpha == 0 and g > 1 and count >= 16:
            # elements grow at least like r**m, so ln n_m >= (m-1) ln r
            m, g1 = count - 1, _excess(form.gamma, g)
            try:
                lead = _as_float(form.c) * math.log(r) ** (-g)
            except OverflowError:  # ln(r)**-g has no float: the tail in logs
                return SumVerdict.converges(_add_bounds([total, _exp_upper(
                    ln(form.c) - g * math.log(math.log(r)) + (1.0 - g) * math.log(m)
                    + math.log(1.0 / g1 + 1.0 / m))]))
            tail = lead * (m ** (1.0 - g) / g1 + m ** (-g))
            return SumVerdict.converges(_round_up(total + tail))
        total += to_float(form.value_at(e))


# ---------------------------------------------------------------------------
# the main verdict


def weight_sum(s: SetExpr, w: ScalarSeq) -> SumVerdict:
    """Verdict for sum_{n in s} w(n) with a certified bound on convergence."""
    v = s.certified_weight_sum(w)
    if v is not None:
        return v
    if isinstance(w, Piecewise):
        verdicts = []
        for piece_set, piece_seq in w.pieces:
            verdicts.append(weight_sum(Intersection((s, piece_set)), piece_seq))
        if any(v.kind == "diverges" for v in verdicts):
            return SumVerdict.diverges()
        if all(v.kind == "converges" for v in verdicts):
            return SumVerdict.converges(_add_bounds([v.bound for v in verdicts]))
        return SumVerdict.inconclusive()

    form = tail_form(w)
    if form is None:
        return SumVerdict.inconclusive()

    try:
        lo, hi = s.desc_pair()
    except HorizonExceeded:
        return SumVerdict.inconclusive()
    slack = s.slack_bound()

    if not full_rule_diverges(form.beta, form.gamma):
        # any subset inherits the full bound; a scanned set may bound its own
        bound = weight_prefix_upper(form, _PREFIX_CAP)
        tail = full_tail_upper(form, _PREFIX_CAP + 1)
        extra = [_as_float(v) for i, v in form.head if i > _PREFIX_CAP]
        bound = _add_bounds([bound, tail] + extra)
        members = getattr(s, "members_sum_upper", None)
        return SumVerdict.converges(bound if members is None else min(bound, members(w, form)))

    if not lo.ep.is_empty:
        # positive density survives sparse removals
        if form.beta > -1:  # alpha < 1
            return SumVerdict.diverges()
        removable = [sparse_token_sum(t, w, form) for t in lo.minus]
        if all(v.kind == "converges" for v in removable):
            return SumVerdict.diverges()
        return SumVerdict.inconclusive()

    if hi.ep.is_empty:
        # certified divergence from below
        for t in lo.plus:
            if sparse_token_sum(t, w, form).kind == "diverges":
                return SumVerdict.diverges()
        token_verdicts = [sparse_token_sum(t, w, form) for t in hi.plus]
        if all(v.kind == "converges" for v in token_verdicts):
            head = _prefix_sum_bound(s, form, slack)
            return SumVerdict.converges(_add_bounds([head] + [v.bound for v in token_verdicts]))

    return SumVerdict.inconclusive()


def _prefix_sum_bound(s: SetExpr, form: TailForm, slack: int):
    """Bound for the finite slack part below the description's validity."""
    if slack <= 0:
        return Fraction(0)
    if slack <= 10 ** 5:
        try:
            return _add_bounds([form.value_at(n) for n in enumerate_prefix(s, slack)])
        except HorizonExceeded:
            pass  # members unknown past a sampled horizon: bound every index
    return weight_prefix_upper(form, slack)


def _add_bounds(bounds):
    """The exact sum of rational bounds, else the outward-rounded float sum;
    past the float range the exact sum, or +inf if a bound is."""
    if all(isinstance(b, Fraction) for b in bounds):
        return sum(bounds, Fraction(0))
    try:
        return _round_up(math.fsum(_as_float(b) for b in bounds))
    except OverflowError:
        if math.inf in bounds:
            return math.inf
        return _exact_bound(sum((Fraction(b) for b in bounds), Fraction(0)))


def partial_sum(s: SetExpr, w, upto: int = DEFAULT_HORIZON) -> SumVerdict:
    """The inconclusive verdict with the float sum of w over the members of s
    up to ``upto``, or up to where a scanned set's membership is known if
    that is less: what a report prints for a sum ``weight_sum`` leaves
    undecided."""
    if hasattr(s, "known_up_to"):
        upto = min(upto, s.known_up_to())
    vals = eval_at_indices(w, np.flatnonzero(s.mask(upto)) + 1)
    with np.errstate(over="ignore"):  # a partial sum past the range is +inf
        partial = float(vals.sum())
    return SumVerdict("inconclusive", partial=partial, horizon=upto)


# ---------------------------------------------------------------------------
# sums of inverse powers


def sum_inverse_p_verdict(a: ScalarSeq, p, I: SetExpr = NATURALS) -> SumVerdict:
    """Verdict for sum_{n in I} a(n)**(-p)."""
    p = _as_fraction(p)
    if p < 1:
        raise ValueError("the exponent must satisfy p >= 1")
    return weight_sum(I, seq_pow(a, -p))
