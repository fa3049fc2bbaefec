"""An exact oracle for the prefix sums of a weight in tail form.

This is the exact accumulation ``series.weight_prefix_upper`` ran before it
summed in floats: every term is evaluated through ``TailForm.value_at``,
and the terms stay exact while they are Fractions.  On exact terms it
returns the true prefix sum, so a float bound can be compared with it
without rounding.
"""

from __future__ import annotations

import math
from fractions import Fraction


def exact_prefix_sum(form, upto: int):
    """sum_{n=1}^{upto} of the weight: a Fraction while every term is exact,
    else the exact part plus the float part, rounded to nearest."""
    exact = []  # the terms up to the first one that is no Fraction
    fl = 0.0
    for n in range(1, upto + 1):
        v = form.value_at(n)
        if isinstance(v, Fraction) and len(exact) == n - 1:
            exact.append(v)
        else:
            fl += float(v)
    total = Fraction(*_integer_sum(exact, 0, len(exact))) if exact else Fraction(0)
    return total if len(exact) == upto else float(total) + fl


def _integer_sum(terms: list, lo: int, hi: int) -> tuple:
    """terms[lo:hi] summed as integers: (numerator, denominator) over the
    least common denominator of the terms, each half summed first, so that
    the large numbers meet only near the top and one reduction ends it."""
    if hi - lo == 1:
        return terms[lo].numerator, terms[lo].denominator
    mid = (lo + hi) // 2
    (n1, d1), (n2, d2) = _integer_sum(terms, lo, mid), _integer_sum(terms, mid, hi)
    g = math.gcd(d1, d2)
    return n1 * (d2 // g) + n2 * (d1 // g), d1 // g * d2
