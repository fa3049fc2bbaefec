"""Per-level oracle for filter limits of scalar sequences.

``f_limit_scalar`` is the body ``fbasis.filters.f_limit_scalar`` had before
its exceptional sets came from the shared epsilon table
(``fbasis.filters.epsilon_table``): per level it builds the exceptional set
from two threshold scans of its own (``exceptional_set``), falls back to
the limit only where no set is derived (``exceptional_certainly_finite``),
classifies each set afresh and returns at the first refuting level.  It is
kept as it was, so that the production routine can be compared with it
verdict for verdict.
"""

from __future__ import annotations

import math
from typing import Optional, Union as TUnion

from fbasis.filters import (
    DEFAULT_EPS_SCHEDULE,
    FilterSpec,
    LimitVerdict,
    SetClass,
    classify_set,
    not_negligible,
)
from fbasis.natset import Complement, Intersection, SetExpr, Union, canonicalize
from fbasis.sequences import ScalarSeq, SpikeSeq, threshold_ge

SignedSeq = TUnion[ScalarSeq, SpikeSeq]


def exceptional_set(x: SignedSeq, target, epsilon, horizon: int = 10 ** 6) -> Optional[SetExpr]:
    """{n : |x(n) - target| >= epsilon} as a SetExpr, when derivable."""
    t = float(target)
    eps = float(epsilon)
    if isinstance(x, SpikeSeq):
        off_support_bad = abs(0.0 - t) >= eps
        on_support = _scalar_exceptional(x.amplitude, t, eps, horizon)
        if on_support is None:
            return None
        inside = Intersection((x.support, on_support))
        if off_support_bad:
            return canonicalize(Union((Complement(x.support), inside)))
        return canonicalize(inside)
    return _scalar_exceptional(x, t, eps, horizon)


def _scalar_exceptional(x: ScalarSeq, t: float, eps: float, horizon: int) -> Optional[SetExpr]:
    high = threshold_ge(x, t + eps, horizon)
    if high is None:
        return None
    if t - eps < 0:
        # positive sequences never dip to t - eps
        return canonicalize(high)
    low_strict = threshold_ge(x, math.nextafter(t - eps, math.inf), horizon)
    if low_strict is None:
        return None
    return canonicalize(Union((high, Complement(low_strict))))


def exceptional_certainly_finite(x: SignedSeq, target, epsilon) -> bool:
    """Whether {n : |x(n) - target| >= epsilon} is finite on limit grounds.

    A sequence whose certified limit lies strictly inside the epsilon
    band leaves it only finitely often; no crossing location is needed.
    """
    from fbasis.sequences import limit_value

    t = float(target)
    eps = float(epsilon)
    if isinstance(x, SpikeSeq):
        if abs(t) >= eps:
            return False  # off-support indices are all exceptional
        x = x.amplitude
    lim = limit_value(x)
    return lim is not None and math.isfinite(lim) and abs(lim - t) < eps


def f_limit_scalar(
    x: SignedSeq,
    F: FilterSpec,
    target,
    eps_schedule=DEFAULT_EPS_SCHEDULE,
    horizon: int = 10 ** 6,
) -> LimitVerdict:
    """Filter limit verdict via exceptional-set classification.

    Convergence needs every scheduled exceptional set to classify as
    negligible; a stationary or member exceptional set at some epsilon
    refutes convergence with that witness.
    """
    any_unknown = False
    for eps in eps_schedule:
        E = exceptional_set(x, target, eps, horizon)
        if E is None:
            if not exceptional_certainly_finite(x, target, eps):
                any_unknown = True
            continue
        cls = classify_set(E, F)
        if cls in (SetClass.MEMBER, SetClass.STATIONARY):
            return LimitVerdict.does_not_converge(float(eps), E)
        if cls == SetClass.INCONCLUSIVE:
            wide = not_negligible(E, F)
            if wide is True:
                return LimitVerdict.does_not_converge(float(eps), E)
            if wide is None:
                any_unknown = True
    if any_unknown:
        return LimitVerdict.inconclusive("some exceptional sets were undecidable")
    return LimitVerdict.converges_to(target)
