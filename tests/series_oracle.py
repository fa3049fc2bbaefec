"""An exact oracle for the prefix sums of a weight in tail form.

This is the exact accumulation loop ``series.weight_prefix_upper`` ran
before it summed in floats: every term is evaluated through
``TailForm.value_at`` and added as a Fraction while the terms stay exact.
On exact terms it returns the true prefix sum, so a float bound can be
compared with it without rounding.
"""

from __future__ import annotations

from fractions import Fraction


def exact_prefix_sum(form, upto: int):
    """sum_{n=1}^{upto} of the weight: a Fraction while every term is exact,
    else the exact part plus the float part, rounded to nearest."""
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
