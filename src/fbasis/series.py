"""Convergence and divergence verdicts for weighted sums over structured sets.

Decides sum_{n in S} w(n) for weights in the power-log family
w(n) = c * n**(-alpha) * ln(n+1)**(-g) and sets built from the natset
atoms.  The rule table:

* over the naturals or any residue class the sum diverges iff
  alpha < 1, or alpha = 1 and g <= 1;
* over a geometric index set it converges iff alpha > 0, or
  alpha = 0 and g > 1.

Sets are reduced through their under/over descriptions.  A set whose
under-approximation still contains a residue class keeps the positive
density that makes the divergence rule apply; a set that is covered by
sparse tokens is summed token by token with certified tail bounds.
Everything else is an honest inconclusive carrying the partial sum at
the horizon.

Convergence verdicts always carry a finite certified upper bound:
exact rational where the terms are exact and the tail telescopes to a
geometric series, binary64 with explicit tail estimates otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import natset
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
    eval_vector,
    seq_pow,
    tail_form,
)

_EXACT_PREFIX_CAP = 4096


@dataclass(frozen=True)
class WeightForm:
    """w(n) = c * n**(-alpha) * ln(n+1)**(-g) for n >= start, head explicit."""

    c: object  # Fraction or float, positive
    alpha: Fraction
    g: Fraction
    start: int
    head: tuple[tuple[int, object], ...] = ()

    def value_at(self, n: int):
        for i, v in self.head:
            if i == n:
                return v
        from .sequences import exact_pow

        if self.g == 0 and isinstance(self.c, Fraction):
            p = exact_pow(Fraction(n), -self.alpha)
            if p is not None:
                return self.c * p
        out = float(self.c) * float(n) ** (-float(self.alpha))
        if self.g != 0:
            out *= math.log(n + 1) ** (-float(self.g))
        return out

    def float_at(self, n: int) -> float:
        return float(self.value_at(n))


def weight_form(w: ScalarSeq) -> Optional[WeightForm]:
    f = tail_form(w)
    if f is None:
        return None
    return WeightForm(f.c, -f.beta, -f.gamma, f.start, f.head)


def full_rule_diverges(alpha: Fraction, g: Fraction) -> bool:
    """Divergence over the naturals (equivalently any residue class)."""
    return alpha < 1 or (alpha == 1 and g <= 1)


def geometric_rule_converges(alpha: Fraction, g: Fraction) -> bool:
    """Convergence over a geometric index set."""
    return alpha > 0 or (alpha == 0 and g > 1)


# ---------------------------------------------------------------------------
# certified tail bounds


def full_tail_upper(form: WeightForm, start: int) -> float:
    """Certified upper bound for sum_{n >= start} of the family part.

    Requires the full-sum convergence condition (alpha > 1, or alpha = 1
    with g > 1).  Uses the integral test; a log factor in the numerator
    is absorbed via ln y <= y**d / (e*d).
    """
    a = float(form.alpha)
    g = float(form.g)
    c = float(form.c)
    n0 = max(start, form.start, 2)
    if a > 1:
        if g >= 0:
            lead = c * math.log(n0 + 1) ** (-g) if g else c
            return lead * (n0 ** (1.0 - a) / (a - 1.0) + n0 ** (-a))
        k = -g
        d = (a - 1.0) / (2.0 * k)
        cc = c * (2.0 ** d / (math.e * d)) ** k
        a2 = (a + 1.0) / 2.0
        return cc * (n0 ** (1.0 - a2) / (a2 - 1.0) + n0 ** (-a2))
    if a == 1 and g > 1:
        # terms <= x**-1 * ln(x)**-g for x >= 2
        return c * (math.log(n0) ** (1.0 - g) / (g - 1.0) + form.float_at(n0))
    raise ValueError("tail bound requested for a divergent family")


def weight_prefix_upper(form: WeightForm, upto: int):
    """Certified upper bound for sum_{n=1}^{upto} w(n) (always finite)."""
    if upto <= 0:
        return Fraction(0)
    if upto <= _EXACT_PREFIX_CAP:
        total = Fraction(0)
        fl = 0.0
        exact = True
        for n in range(1, upto + 1):
            v = form.value_at(n)
            if isinstance(v, Fraction) and exact:
                total += v
            else:
                exact = False
                fl += float(v)
        return total if exact else float(total) + fl
    a = float(form.alpha)
    g = float(form.g)
    head = float(weight_prefix_upper(form, _EXACT_PREFIX_CAP))
    # explicit head entries past the exact cap are not family values
    head += sum(float(v) for i, v in form.head if _EXACT_PREFIX_CAP < i <= upto)
    if a > 1 or (a == 1 and g > 1):
        return head + full_tail_upper(form, _EXACT_PREFIX_CAP + 1)
    # divergent family: w(n) <= lead * n**-a on [lo, upto], then integrate
    c = float(form.c)
    lo = _EXACT_PREFIX_CAP
    if g >= 0:
        lead = c * math.log(lo + 1) ** (-g) if g else c
    else:
        lead = c * math.log(upto + 1) ** (-g)
    if a < 1:
        return head + lead * (lo ** (-a) + (upto ** (1.0 - a) - lo ** (1.0 - a)) / (1.0 - a))
    return head + lead * (lo ** (-a) + math.log(upto / lo))


class _GeomElements:
    """Ascending elements of a sparse token, with a growth certificate."""

    def __init__(self, elements, ratio_lower: float, offset: int = 0):
        self.elements = elements
        self.ratio_lower = ratio_lower  # provable lower bound on n_{m+1}/n_m, > 1
        self.offset = offset


def _token_elements(token) -> Optional[_GeomElements]:
    if isinstance(token, GeometricIndex):
        b = float(token.base)
        # floor(b**(m+1)) / floor(b**m) >= b - 1/2 for elements >= 2
        return _GeomElements(token.elements, max(1.5, b - 0.5))
    if isinstance(token, Shifted):
        inner = _token_elements(token.base)
        if inner is None:
            return None

        off = token.offset + inner.offset

        def gen(inner_gen=inner.elements, off=off):
            for e in inner_gen():
                if e + off >= 1:
                    yield e + off

        return _GeomElements(gen, inner.ratio_lower, off)
    hook = getattr(token, "sparse_elements", None)
    if hook is not None:
        return hook()
    return None


def _base_token(token):
    while isinstance(token, Shifted):
        token = token.base
    return token


def sparse_token_sum(token, form: WeightForm) -> SumVerdict:
    """Verdict for the weighted sum over one sparse token."""
    hook = getattr(token, "certified_weight_sum", None)
    if hook is not None:
        v = hook(form)
        if v is not None:
            return v
    elems = _token_elements(token)
    if elems is None:
        return SumVerdict.inconclusive(0.0, 0)
    alpha, g = form.alpha, form.g
    if isinstance(_base_token(token), GeometricIndex):
        if geometric_rule_converges(alpha, g):
            exact = _exact_geometric_sum(token, form)
            if exact is not None:
                return SumVerdict.converges(exact)
            return _sparse_converging_bound(elems, form)
        return SumVerdict.diverges()
    if alpha < 0 or (alpha == 0 and g <= 0):
        # terms eventually bounded away from zero along an infinite set
        return SumVerdict.diverges()
    if not geometric_rule_converges(alpha, g):
        return SumVerdict.inconclusive(0.0, 0)
    return _sparse_converging_bound(elems, form)


def _exact_geometric_sum(token, form: WeightForm) -> Optional[Fraction]:
    """Exact total for an integer-base geometric set and exact power weights."""
    from .sequences import exact_pow

    if not isinstance(token, GeometricIndex) or token.base.denominator != 1:
        return None
    if form.g != 0 or not isinstance(form.c, Fraction):
        return None
    r = exact_pow(token.base, -form.alpha)
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


def _sparse_converging_bound(elems: _GeomElements, form: WeightForm) -> SumVerdict:
    alpha = float(form.alpha)
    g = float(form.g)
    # a positive shift dilutes the growth ratio; past e >= 4*offset the loss
    # is at most a quarter of (r - 1)
    r = elems.ratio_lower
    if elems.offset > 0:
        r = (3.0 * r + 1.0) / 4.0
    total = 0.0
    count = 0
    for e in elems.elements():
        count += 1
        if count > 4000:
            return SumVerdict.inconclusive(total, count)
        settled = e > form.start and e >= 4 * max(1, abs(elems.offset)) and count >= 8
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
                tail_first = form.float_at(max(int(e * r) - 1, e + 1))
                return SumVerdict.converges(total + tail_first / (1.0 - rho))
        if alpha == 0 and g > 1 and count >= 16:
            # elements grow at least like r**m, so ln n_m >= (m-1) ln r
            m = count - 1
            lead = float(form.c) * math.log(r) ** (-g)
            tail = lead * (m ** (1.0 - g) / (g - 1.0) + m ** (-g))
            return SumVerdict.converges(total + tail)
        total += form.float_at(e)
    return SumVerdict.converges(total)


# ---------------------------------------------------------------------------
# the main verdict


def weight_sum(s: SetExpr, w: ScalarSeq, horizon: int = DEFAULT_HORIZON) -> SumVerdict:
    """Verdict for sum_{n in s} w(n) with a certified bound on convergence."""
    seq_hook = getattr(s, "certified_weight_sum_seq", None)
    if seq_hook is not None:
        v = seq_hook(w)
        if v is not None:
            return v
    if isinstance(w, Piecewise):
        verdicts = []
        for piece_set, piece_seq in w.pieces:
            verdicts.append(weight_sum(Intersection((s, piece_set)), piece_seq, horizon))
        if any(v.kind == "diverges" for v in verdicts):
            return SumVerdict.diverges()
        if all(v.kind == "converges" for v in verdicts):
            return SumVerdict.converges(_add_bounds([v.bound for v in verdicts]))
        return _numeric_fallback(s, w, horizon)

    hook = getattr(s, "certified_weight_sum", None)
    form = weight_form(w)
    if hook is not None and form is not None:
        v = hook(form)
        if v is not None:
            return v
    if form is None:
        return _numeric_fallback(s, w, horizon)

    try:
        lo, hi = s.desc_pair()
    except HorizonExceeded:
        return _numeric_fallback(s, w, horizon)
    slack = s.slack_bound()

    if not full_rule_diverges(form.alpha, form.g):
        # any subset inherits the full bound
        bound = weight_prefix_upper(form, _EXACT_PREFIX_CAP)
        tail = full_tail_upper(form, _EXACT_PREFIX_CAP + 1)
        extra = sum(float(v) for i, v in form.head if i > _EXACT_PREFIX_CAP)
        return SumVerdict.converges(_add_bounds([bound, tail, extra] if extra else [bound, tail]))

    if not lo.ep.is_empty:
        # positive density survives sparse removals
        if form.alpha < 1:
            return SumVerdict.diverges()
        removable = [sparse_token_sum(t, form) for t in lo.minus]
        if all(v.kind == "converges" for v in removable):
            return SumVerdict.diverges()
        return _numeric_fallback(s, w, horizon)

    if hi.ep.is_empty:
        # certified divergence from below
        for t in lo.plus:
            if sparse_token_sum(t, form).kind == "diverges":
                return SumVerdict.diverges()
        token_verdicts = [sparse_token_sum(t, form) for t in hi.plus]
        if all(v.kind == "converges" for v in token_verdicts):
            head = _prefix_sum_bound(s, form, slack, horizon)
            if head is not None:
                return SumVerdict.converges(
                    _add_bounds([head] + [v.bound for v in token_verdicts])
                )
        return _numeric_fallback(s, w, horizon)

    return _numeric_fallback(s, w, horizon)


def _prefix_sum_bound(s: SetExpr, form: WeightForm, slack: int, horizon: int):
    """Bound for the finite slack part below the description's validity."""
    if slack <= 0:
        return Fraction(0)
    if slack <= min(horizon, 10 ** 5):
        members = enumerate_prefix(s, slack)
        total = Fraction(0)
        fl = 0.0
        exact = True
        for n in members:
            v = form.value_at(n)
            if exact and isinstance(v, Fraction):
                total += v
            else:
                exact = False
                fl += float(v)
        return total if exact else float(total) + fl
    return weight_prefix_upper(form, slack)


def _add_bounds(bounds):
    if all(isinstance(b, Fraction) for b in bounds):
        return sum(bounds, Fraction(0))
    return float(sum(float(b) for b in bounds))


def _numeric_fallback(s: SetExpr, w, horizon: int) -> SumVerdict:
    cap = horizon
    try:
        mask = s.mask(cap)
    except HorizonExceeded:
        for a in natset.iter_atoms(s):
            if isinstance(a, natset.Sampled):
                cap = min(cap, a.horizon)
        mask = s.mask(cap)
    vals = eval_vector(w, cap)
    partial = float(vals[mask].sum())
    return SumVerdict.inconclusive(partial, cap)


def partial_sum(s: SetExpr, w, upto: int) -> float:
    """Numeric partial sum over the members of s up to the given index."""
    mask = s.mask(upto)
    vals = eval_vector(w, upto)
    return float(vals[mask].sum())


# ---------------------------------------------------------------------------
# sums of inverse powers


def sum_inverse_p_verdict(a: ScalarSeq, p, I: SetExpr = NATURALS,
                          horizon: int = DEFAULT_HORIZON) -> SumVerdict:
    """Verdict for sum_{n in I} a(n)**(-p)."""
    p = Fraction(p)
    if p < 1:
        raise ValueError("the exponent must satisfy p >= 1")
    return weight_sum(I, seq_pow(a, -p), horizon)
