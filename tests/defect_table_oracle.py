"""Per-level oracles for the defect epsilon table.

``threshold_ge`` is the body ``sequences.threshold_ge`` had before the
threshold sets of all levels came from one head evaluation: it scans the
head again for every threshold, index by index, and lists its hits with the
``_assemble`` of that time, kept here.  Production now splits the head into
its monotone runs and finds every level's hits with one search per run
(``sequences._head_hits``), re-deciding by ``value_at`` only the entries
within rounding of a level.  ``classify_defects`` is the loop
``basis_builder._classify_defects`` ran before its level-independent work
moved out of the loop: per level it re-evaluates the limit, re-scales the
bound sequences, builds the over- and under-set from their own head scans
and classifies each set afresh, and it builds the lower bound product for
every vector, where production builds it only for a table with levels
that the upper bound leaves open.  Both are kept as they were, so that the
production routines can be compared with them entry for entry; the changes
since are that an under-set is taken inside the set where the lower bound
sequence holds, as in production, and that ``bounds()`` returns that lower
side alone, (c_lower, T), the upper bound being the target itself.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from fbasis.basis_builder import BasisSystem, EpsilonEntry, _shift_ratio
from fbasis.filters import FilterSpec, LimitVerdict, SetClass, classify_set, not_negligible
from fbasis.natset import Finite, Intersection, Range, SetExpr, Shifted, Union, canonicalize
from fbasis.sequences import (
    _VECTOR_SCAN_MIN,
    Piecewise,
    ScalarSeq,
    _first_crossing,
    _monotone_start,
    eval_vector,
    seq_mul,
    seq_scale,
    tail_form,
)
from fbasis.vectors import BasisVector, TestVector


def threshold_ge(a: ScalarSeq, t, horizon: int = 10 ** 6) -> Optional[SetExpr]:
    """The set {n : a(n) >= t} as a SetExpr, or None if undecidable.

    The head up to the provable monotonicity point is scanned explicitly;
    past it a single crossing is located, so the result is a finite list,
    a final segment, or a union of the two.
    """
    t = float(t)
    if isinstance(a, Piecewise):
        parts = []
        for s, q in a.pieces:
            inner = threshold_ge(q, t, horizon)
            if inner is None:
                return None
            parts.append(Intersection((s, inner)))
        return Union(tuple(parts))
    f = tail_form(a)
    if f is None:
        return None
    if t <= 0:
        from fbasis.natset import NATURALS

        return NATURALS
    n0 = _monotone_start(f)
    if n0 is None or n0 > horizon:
        return None
    scan_to = min(max(n0, f.start, max([1] + [i for i, _ in f.head])), horizon)
    if scan_to < _VECTOR_SCAN_MIN:
        hits = [n for n in range(1, scan_to + 1) if float(a.value_at(n)) >= t]
    else:
        # the vector may differ from value_at in the last bits, so an entry
        # within rounding of t is decided by value_at
        v = eval_vector(a, scan_to)
        hit = v >= t
        for i in np.nonzero(np.abs(v - t) <= 1e-9 * t)[0].tolist():
            hit[i] = float(a.value_at(i + 1)) >= t
        hits = np.flatnonzero(hit) + 1
    direction = f.growth
    val0 = float(a.value_at(scan_to))
    # the crossing search is logarithmic, so it may run far past the
    # enumeration horizon
    search_to = max(horizon, 2 ** 60)
    if direction == 0:
        return _assemble(hits, Range(scan_to + 1, None) if val0 >= t else None)
    if direction > 0:
        # increasing without bound beyond scan_to
        if val0 >= t:
            return _assemble(hits, Range(scan_to + 1, None))
        cross = _first_crossing(a, t, scan_to, search_to, upward=True)
        if cross is None:
            return None
        return _assemble(hits, Range(cross, None))
    # decreasing to zero beyond scan_to
    if val0 < t:
        return _assemble(hits, None)
    cross = _first_crossing(a, t, scan_to, search_to, upward=False)
    if cross is None:
        return None
    if cross - 1 > scan_to:
        return _assemble(hits, Range(scan_to + 1, cross - 1))
    return _assemble(hits, None)


def _assemble(hits, tail: Optional[Range]) -> SetExpr:
    """The ascending hits joined with the tail range.  The hits are a list
    (a short head scan) or an array."""
    k = len(hits)
    if tail is not None:
        # absorb the trailing run of hits that abuts the range start: the
        # hits after the last one off the run lo - len(hits), ..., lo - 1
        if isinstance(hits, list):
            while k and hits[k - 1] == tail.lo - len(hits) + k - 1:
                k -= 1
        else:
            off_run = np.flatnonzero(hits != np.arange(tail.lo - len(hits), tail.lo))
            k = int(off_run[-1]) + 1 if off_run.size else 0
        tail = Range(tail.lo - (len(hits) - k), tail.hi)
    listed = Finite(tuple(hits[:k] if isinstance(hits, list) else hits[:k].tolist()))
    if tail is None:
        return listed
    if not k:
        if tail.lo == 1 and tail.hi is None:
            from fbasis.natset import NATURALS

            return NATURALS
        return tail
    return Union((listed, tail))


def classify_defects(sys: BasisSystem, x: TestVector, bounds, eps_schedule=None,
                     horizon: int = 10 ** 6, under: Optional[FilterSpec] = None):
    """The epsilon table and the limit verdict of ``convergence_demo``.
    ``bounds()`` returns the system's ``_defect_bound_seqs``, so a caller
    classifying several vectors computes them once."""
    filt = under if under is not None else sys.filter
    if eps_schedule is None:
        from fbasis.filters import DEFAULT_EPS_SCHEDULE

        eps_schedule = DEFAULT_EPS_SCHEDULE
    if isinstance(x, BasisVector):
        entries = tuple(
            EpsilonEntry(float(e), Finite(()).to_text(), Finite(()).to_text(), "negligible")
            for e in eps_schedule[:1]
        )
        return entries, LimitVerdict.converges_to(0)

    support = canonicalize(Shifted(x.support(), -1))
    amp = x.amplitude()
    kappa = _shift_ratio(amp)
    c_lower, lower_on = bounds()
    prod_hi = seq_mul(amp, sys.target)
    prod_lo = seq_mul(amp, c_lower) if c_lower is not None else None

    entries = []
    failures = 0
    unknowns = 0
    first_refutation = None
    from fbasis.sequences import limit_value

    for eps in eps_schedule:
        e = float(eps)
        over_txt = under_txt = None
        cls = "inconclusive"
        if kappa is not None and prod_hi is not None:
            lim = limit_value(prod_hi)
            if lim is not None and math.isfinite(lim) and lim * kappa < e:
                # the defect bound settles strictly below epsilon, so the
                # exceptional set is finite wherever its boundary lies
                cls = "negligible"
            else:
                over = threshold_ge(seq_scale(prod_hi, kappa), e, horizon)
                if over is not None:
                    over_set = canonicalize(Intersection((support, over)))
                    over_txt = over_set.to_text()
                    c = classify_set(over_set, filt)
                    if c == SetClass.NEGLIGIBLE:
                        cls = "negligible"
        if cls != "negligible" and kappa is not None and prod_lo is not None:
            under = threshold_ge(seq_scale(prod_lo, 1.0 / kappa), e, horizon)
            if under is not None:
                under_set = canonicalize(Intersection((support, lower_on, under)))
                under_txt = under_set.to_text()
                if not_negligible(under_set, filt) is True:
                    cls = "stationary-or-member"
                    if first_refutation is None:
                        first_refutation = (e, under_set)
        entries.append(EpsilonEntry(e, over_txt, under_txt, cls))
        if cls == "stationary-or-member":
            failures += 1
        elif cls == "inconclusive":
            unknowns += 1
    if first_refutation is not None:
        verdict = LimitVerdict.does_not_converge(first_refutation[0], first_refutation[1])
    elif unknowns:
        verdict = LimitVerdict.inconclusive(f"{unknowns} epsilon levels undecided")
    else:
        verdict = LimitVerdict.converges_to(0)
    return tuple(entries), verdict
