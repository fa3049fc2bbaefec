"""Free filters on the positive integers as symbolic objects.

Four kinds are supported: the Frechet filter (cofinite sets), the
statistical filter (ideal of density-zero sets), summable filters built
from divergent nonnegative weights, and traces of a filter on one of
its stationary sets.

``classify_set`` places a decidable set in exactly one of three classes:
member of the filter, negligible (member of the ideal), or stationary
together with its complement.  Sets the decision procedures cannot
settle come back as inconclusive rather than misclassified; verdicts
about limits and domination follow the same proved / refuted /
inconclusive discipline, with refutations carrying explicit witnesses.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import Optional, Union as TUnion

from ._record import record
from .natset import (
    Complement,
    GeometricIndex,
    Intersection,
    NATURALS,
    Residue,
    SetExpr,
    Union,
    canonicalize,
    is_certainly_finite,
    is_certainly_infinite,
    natural_density,
)
from .sequences import (
    ScalarSeq,
    SpikeSeq,
    compare_pointwise,
    limit_value,
    threshold_levels,
)
from .series import weight_sum


class FilterConstructionError(ValueError):
    """A filter description violated its invariants."""


class NotStationary(ValueError):
    """Trace construction over a negligible index set."""


class SetClass(enum.Enum):
    MEMBER = "member"
    NEGLIGIBLE = "negligible"
    STATIONARY = "stationary"
    INCONCLUSIVE = "inconclusive"


class FilterSpec:
    """Base class for filter descriptions; all filters here are free."""

    __slots__ = ()

    def to_text(self) -> str:
        raise NotImplementedError


@record
class Frechet(FilterSpec):
    def to_text(self):
        return "frechet"


@record
class Statistical(FilterSpec):
    def to_text(self):
        return "statistical"


@record
class Summable(FilterSpec):
    """Members are the sets whose complements have finite weighted sum."""

    weights: ScalarSeq

    def __post_init__(self):
        v = weight_sum(NATURALS, self.weights)
        if v.kind != "diverges":
            raise FilterConstructionError(
                "summable filters need weights with a divergent total sum"
            )

    def to_text(self):
        return f"summable({self.weights.to_text()})"


@record
class Trace(FilterSpec):
    """The filter generated by intersections of base members with one
    base-stationary set."""

    base: FilterSpec
    index_set: SetExpr

    def __post_init__(self):
        cls = classify_set(self.index_set, self.base)
        if cls == SetClass.NEGLIGIBLE:
            raise NotStationary("the index set is negligible for the base filter")
        if cls == SetClass.INCONCLUSIVE:
            raise NotStationary("could not verify the index set is stationary")

    def to_text(self):
        return f"trace({self.base.to_text()}; {self.index_set.to_text()})"


def trace_filter(base: FilterSpec, index_set: SetExpr) -> Trace:
    return Trace(base, index_set)


# ---------------------------------------------------------------------------
# classification


def classify_set(A: SetExpr, F: FilterSpec) -> SetClass:
    if isinstance(F, Frechet):
        return _classify_frechet(A)
    if isinstance(F, Statistical):
        return _classify_statistical(A)
    if isinstance(F, Summable):
        return _classify_summable(A, F.weights)
    if isinstance(F, Trace):
        return _classify_trace(A, F)
    raise TypeError(f"unknown filter kind {type(F).__name__}")


def _classify_frechet(A: SetExpr) -> SetClass:
    comp = Complement(A)
    if is_certainly_finite(comp):
        return SetClass.MEMBER
    if is_certainly_finite(A):
        return SetClass.NEGLIGIBLE
    if is_certainly_infinite(A) and is_certainly_infinite(comp):
        return SetClass.STATIONARY
    return SetClass.INCONCLUSIVE


def _classify_statistical(A: SetExpr) -> SetClass:
    d = natural_density(A)
    if d.is_exact:
        if d.value == 0:
            return SetClass.NEGLIGIBLE
        if d.value == 1:
            return SetClass.MEMBER
        return SetClass.STATIONARY
    # equal bounds come back exact, so bounds never have upper 0 or lower 1;
    # between 0 and 1, the set and its complement both keep density
    if d.kind == "bounds" and d.lower > 0 and d.upper < 1:
        return SetClass.STATIONARY
    return SetClass.INCONCLUSIVE


def _classify_summable(A: SetExpr, weights: ScalarSeq) -> SetClass:
    on_complement = weight_sum(canonicalize(Complement(A)), weights)
    if on_complement.kind == "converges":
        return SetClass.MEMBER
    on_set = weight_sum(A, weights)
    if on_set.kind == "converges":
        return SetClass.NEGLIGIBLE
    if on_set.kind == "diverges" and on_complement.kind == "diverges":
        return SetClass.STATIONARY
    return SetClass.INCONCLUSIVE


def _classify_trace(A: SetExpr, F: Trace) -> SetClass:
    # A is a member iff A contains (B and I) for a base member B, which
    # happens iff A union the complement of I is itself a base member.
    # Nested traces fold, trace(trace(G; J); I) = trace(G; I & J): the
    # widened and the restricted set are carried down, one index set at a
    # time, to the first base that is not a trace and classified there once.
    index_sets = []
    base: FilterSpec = F
    while isinstance(base, Trace):
        index_sets.append(base.index_set)
        base = base.base
    widened = A
    for I in index_sets:
        widened = canonicalize(Union((widened, Complement(I))))
    widened_cls = classify_set(widened, base)
    if widened_cls == SetClass.MEMBER:
        return SetClass.MEMBER
    restricted = A
    for I in index_sets:
        restricted = canonicalize(Intersection((restricted, I)))
    inner = classify_set(restricted, base)
    if inner == SetClass.NEGLIGIBLE:
        return SetClass.NEGLIGIBLE
    if inner == SetClass.INCONCLUSIVE or widened_cls == SetClass.INCONCLUSIVE:
        return SetClass.INCONCLUSIVE
    return SetClass.STATIONARY


def not_negligible(A: SetExpr, F: FilterSpec, cls: Optional[SetClass] = None) -> Optional[bool]:
    """Whether A is stationary in the wide sense (meets every member);
    ``cls`` is A's class, when the caller has it already.

    For summable filters this is exactly divergence of the weighted sum
    over A, which is decidable in cases where the three-way
    classification is not.
    """
    if cls is None:
        cls = classify_set(A, F)
    if cls in (SetClass.MEMBER, SetClass.STATIONARY):
        return True
    if cls == SetClass.NEGLIGIBLE:
        return False
    # past an inconclusive class, only the wide-sense half is left to decide:
    # a convergent sum or a certainly finite set would have been negligible
    if isinstance(F, Summable) and weight_sum(A, F.weights).kind == "diverges":
        return True
    if isinstance(F, Frechet) and is_certainly_infinite(A):
        return True
    return None


# ---------------------------------------------------------------------------
# filter limits of scalar sequences


@record
class LimitVerdict:
    kind: str  # "converges" | "does-not-converge" | "inconclusive"
    value: object = None
    epsilon: Optional[float] = None
    witness: Optional[SetExpr] = None
    reason: str = ""

    @staticmethod
    def converges_to(value) -> "LimitVerdict":
        return LimitVerdict("converges", value=value)

    @staticmethod
    def does_not_converge(epsilon, witness) -> "LimitVerdict":
        return LimitVerdict("does-not-converge", epsilon=epsilon, witness=witness)

    @staticmethod
    def inconclusive(reason: str) -> "LimitVerdict":
        return LimitVerdict("inconclusive", reason=reason)


DEFAULT_EPS_SCHEDULE = tuple(Fraction(1, 2 ** k) for k in range(0, 21))

SignedSeq = TUnion[ScalarSeq, SpikeSeq]


def epsilon_table(F: FilterSpec, levels, over_sets, under_sets, limsup=None, target=0,
                  classes=None):
    """The epsilon table of a filter limit, and its verdict.

    Level e asks whether the exceptional set at e is F-negligible.  A level
    above ``limsup``, a certified bound on the limit superior of the
    distance to the target, has a finite exceptional set and is settled.
    ``over_sets(ls)`` returns, for a list of levels, a certified superset of
    each one's exceptional set (or None); a negligible one makes its level
    negligible.  ``under_sets(ls)``, asked only for the levels left open,
    returns certified subsets; one that is not negligible in the wide sense
    makes its level stationary-or-member, and the first such level refutes
    convergence with it as the witness.  A provider that is None derives no
    sets.  Each distinct set is classified once, and not at all if it is a
    key of ``classes``, the classes the caller holds already.  Returns
    (over-sets, under-sets, classes, verdict), the first three one entry per
    level.
    """
    known = dict(classes or ())  # each set's class, the caller's or made on first ask
    wide_of = {}

    def classify(s):
        if s not in known:
            known[s] = classify_set(s, F)
        return known[s]

    def wide(s):
        if s not in wide_of:
            wide_of[s] = not_negligible(s, F, classify(s))
        return wide_of[s]

    overs: list = [None] * len(levels)
    unders: list = [None] * len(levels)
    cls = ["negligible" if limsup is not None and limsup < e else "inconclusive" for e in levels]
    open_levels = [i for i, c in enumerate(cls) if c != "negligible"]
    if open_levels and over_sets is not None:
        for i, s in zip(open_levels, over_sets([levels[i] for i in open_levels])):
            overs[i] = s
            if s is not None and classify(s) == SetClass.NEGLIGIBLE:
                cls[i] = "negligible"
    refuted = None
    open_levels = [i for i, c in enumerate(cls) if c != "negligible"]
    if open_levels and under_sets is not None:
        for i, s in zip(open_levels, under_sets([levels[i] for i in open_levels])):
            unders[i] = s
            if s is not None and wide(s) is True:
                cls[i] = "stationary-or-member"
                if refuted is None:
                    refuted = i
    unknowns = cls.count("inconclusive")
    if refuted is not None:
        verdict = LimitVerdict.does_not_converge(levels[refuted], unders[refuted])
    elif unknowns:
        verdict = LimitVerdict.inconclusive(f"{unknowns} epsilon levels undecided")
    else:
        verdict = LimitVerdict.converges_to(target)
    return overs, unders, cls, verdict


def f_limit_scalar(x: SignedSeq, F: FilterSpec, target) -> LimitVerdict:
    """Filter limit verdict through the epsilon table of x, at the levels of
    ``DEFAULT_EPS_SCHEDULE``.

    The exceptional set {n : |x(n) - t| >= e} is {x >= t + e} joined with
    the complement of {x > t - e}; the thresholds of all levels come from
    one scan on each side.  On a spike these are taken on its support, and
    every index off it is exceptional once |t| >= e.  The set is exact, so
    it is both the over- and the under-set of its level.  A certified limit
    of the amplitude within e of t (and, on a spike, |t| < e) settles
    level e.
    """
    t = float(target)
    amp, support = (x.amplitude, x.support) if isinstance(x, SpikeSeq) else (x, None)
    lim = limit_value(amp)
    limsup = None
    if lim is not None and math.isfinite(lim):
        limsup = abs(lim - t) if support is None else max(abs(lim - t), abs(t))
    sets: dict = {}

    def exceptional(levels):
        highs = threshold_levels(amp, [t + e for e in levels])
        dips = [e for e in levels if t - e >= 0]  # x > 0 > t - e at the others
        lows = threshold_levels(amp, [math.nextafter(t - e, math.inf)
                                      for e in dips]) if dips else []
        lows = dict(zip(dips, lows))
        for e, high in zip(levels, highs):
            low = lows.get(e, NATURALS)
            E = None if high is None or low is None else Union((high, Complement(low)))
            if E is not None and support is not None:
                E = Intersection((support, E))
                if abs(t) >= e:  # x is 0 off its support
                    E = Union((Complement(support), E))
            sets[e] = None if E is None else canonicalize(E)
        return [sets[e] for e in levels]

    levels = [float(e) for e in DEFAULT_EPS_SCHEDULE]
    return epsilon_table(F, levels, exceptional, lambda ls: [sets[e] for e in ls],
                         limsup, target)[3]


# ---------------------------------------------------------------------------
# domination


@record
class DominationVerdict:
    kind: str  # "proved" | "refuted" | "inconclusive"
    rule: str = ""
    witness: Optional[SetExpr] = None

    @staticmethod
    def proved(rule: str) -> "DominationVerdict":
        return DominationVerdict("proved", rule=rule)

    @staticmethod
    def refuted(witness: SetExpr) -> "DominationVerdict":
        return DominationVerdict("refuted", witness=witness)

    @staticmethod
    def inconclusive() -> "DominationVerdict":
        return DominationVerdict("inconclusive")


# built once, so that each set keeps its description across queries
_WITNESS_LIBRARY: tuple[SetExpr, ...] = (
    Complement(GeometricIndex(Fraction(2))),
    Complement(GeometricIndex(Fraction(3))),
    Residue(2, 0),
    Residue(2, 1),
    Residue(3, 0),
    Residue(3, 1),
    Residue(4, 0),
    GeometricIndex(Fraction(2)),
    GeometricIndex(Fraction(3)),
    Complement(Residue(2, 0)),
    Complement(Residue(3, 0)),
    Union((Residue(4, 0), GeometricIndex(Fraction(2)))),
)


def witness_library() -> tuple[SetExpr, ...]:
    """Deterministic library of structured refutation candidates."""
    return _WITNESS_LIBRARY


def dominates(F1: FilterSpec, F2: FilterSpec) -> DominationVerdict:
    """Whether every member of F2 is a member of F1."""
    if F1 == F2:
        return DominationVerdict.proved("identical filters")
    if isinstance(F2, Frechet):
        return DominationVerdict.proved("every free filter dominates Frechet")
    if isinstance(F1, Trace) and F1.base == F2:
        return DominationVerdict.proved("a trace filter dominates its base")
    if isinstance(F1, Summable) and isinstance(F2, Summable):
        cmp = compare_pointwise(F1.weights, F2.weights)
        if cmp is True:
            return DominationVerdict.proved(
                "weights dominated termwise, so small complements stay small"
            )
    for A in witness_library():
        if classify_set(A, F2) != SetClass.MEMBER:
            continue
        c1 = classify_set(A, F1)
        if c1 in (SetClass.NEGLIGIBLE, SetClass.STATIONARY):
            return DominationVerdict.refuted(A)
    return DominationVerdict.inconclusive()
