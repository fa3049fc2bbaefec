"""Decision procedures for (filter, p)-admissibility of norm sequences.

A positive sequence a is (F, p)-admissible when sum over I of a**(-p)
diverges for every F-stationary set I.  The universal quantifier is not
decidable in general, so verdicts are proved / refuted / inconclusive:

* proved by a sufficient criterion named in the verdict;
* refuted by an explicit stationary witness set together with a
  machine-checked certificate (the witness has divergent filter mass
  and convergent inverse-p sum over it);
* inconclusive when neither side has a finite certificate.

The criteria implemented: a convergent global sum refutes with the
whole line as witness; bounded sequences are admissible for every free
filter; for the Frechet filter admissibility is exactly boundedness;
for summable filters the boundedness of a**p * s modulo sets of finite
s-mass decides, with the greedy block construction supplying the
refutation witness; for the statistical filter an eventually
non-decreasing sequence is admissible exactly when a(n) / n**(1/p) is
bounded.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from ._lazy_numpy import _lazy
from ._record import record
from .natset import (
    NATURALS,
    CriterionHolds,
    GeometricIndex,
    HorizonExceeded,
    SetExpr,
    SumVerdict,
    is_certainly_finite,
)
from .filters import (
    FilterSpec,
    Frechet,
    SetClass,
    Statistical,
    Summable,
    Trace,
    classify_set,
    not_negligible,
    witness_library,
)
from .sequences import (
    DomainError,
    PowerLog,
    ScalarSeq,
    _as_fraction,
    is_bounded,
    is_eventually_nondecreasing,
    pieces_with_forms,
    seq_mul,
    seq_pow,
    tail_form,
)
from .series import partial_sum, sum_inverse_p_verdict, weight_sum

# the witness sets are built only by refutations that need one
witnesses = _lazy(__package__ + ".witnesses")


class NotDivergent(ValueError):
    """The inverse sum converges, so no summable filter is associated."""


@record
class RefutationCertificate:
    """Machine-checked evidence attached to a refutation witness."""

    stationarity: object  # SetClass or SumVerdict for the filter mass
    inverse_p_sum: SumVerdict


@record
class AdmissVerdict:
    kind: str  # "proved" | "refuted" | "inconclusive"
    criterion: str = ""
    witness: Optional[SetExpr] = None
    certificate: Optional[RefutationCertificate] = None
    reason: str = ""

    @staticmethod
    def proved(criterion: str) -> "AdmissVerdict":
        return AdmissVerdict("proved", criterion=criterion)

    @staticmethod
    def refuted(witness: SetExpr, certificate: RefutationCertificate) -> "AdmissVerdict":
        return AdmissVerdict("refuted", witness=witness, certificate=certificate)

    @staticmethod
    def inconclusive(reason: str) -> "AdmissVerdict":
        return AdmissVerdict("inconclusive", reason=reason)


def _refute(a: ScalarSeq, F: FilterSpec, p: Fraction, witness: SetExpr,
            inv: Optional[SumVerdict] = None) -> AdmissVerdict:
    """Build a refutation, machine-checking its certificate first; ``inv`` is
    the witness's inverse-p verdict when the caller already holds it."""
    if inv is None:
        inv = sum_inverse_p_verdict(a, p, witness)
    if inv.kind != "converges":
        raise ArithmeticError(
            f"refutation witness {witness.to_text()} lacks a certified convergent sum"
        )
    if isinstance(F, Summable):
        mass = weight_sum(witness, F.weights)
        stationary = mass.kind == "diverges" or not_negligible(witness, F) is True
        if mass.kind == "inconclusive":
            mass = partial_sum(witness, F.weights)  # the certificate prints it
    else:
        mass = classify_set(witness, F)
        stationary = mass in (SetClass.MEMBER, SetClass.STATIONARY) or (
            not_negligible(witness, F) is True
        )
    if not stationary:
        raise ArithmeticError(
            f"refutation witness {witness.to_text()} is not certified stationary"
        )
    return AdmissVerdict.refuted(witness, RefutationCertificate(mass, inv))


def check_admissible(a: ScalarSeq, F: FilterSpec, p) -> AdmissVerdict:
    """Admissibility verdict for the sequence a at exponent p >= 1."""
    p = _as_fraction(p)
    if p < 1:
        raise DomainError("the exponent must satisfy p >= 1")

    # a convergent global sum refutes over the whole line
    global_verdict = sum_inverse_p_verdict(a, p, NATURALS)
    if global_verdict.kind == "converges":
        return _refute(a, F, p, NATURALS, global_verdict)

    bounded = is_bounded(a)
    if bounded is True:
        # over any infinite set the terms are bounded below by a constant
        return AdmissVerdict.proved("bounded sequence over a free filter")

    if isinstance(F, Frechet):
        return _frechet_case(a, p, bounded)
    if isinstance(F, Summable):
        return _summable_case(a, F, p)
    if isinstance(F, Statistical):
        return _statistical_case(a, p, bounded)
    if isinstance(F, Trace):
        return _trace_case(a, F, p)
    return _library_sweep(a, F, p)


def _frechet_case(a: ScalarSeq, p: Fraction, bounded) -> AdmissVerdict:
    if bounded is not False:
        return AdmissVerdict.inconclusive("boundedness undecided in the symbolic family")
    # refutation: a sparse infinite set with convergent inverse-p sum
    geom = GeometricIndex(Fraction(2))
    on_geom = sum_inverse_p_verdict(a, p, geom)
    if on_geom.kind == "converges":
        return _refute(a, Frechet(), p, geom, on_geom)
    try:
        witness = witnesses.SparseThresholdSet(a, p)
    except CriterionHolds:
        return AdmissVerdict.inconclusive("unbounded but no sparse witness")
    return _refute(a, Frechet(), p, witness)


def _summable_case(a: ScalarSeq, F: Summable, p: Fraction) -> AdmissVerdict:
    s = F.weights
    status, detail = summable_criterion(a, s, p)
    if status == "bounded":
        return AdmissVerdict.proved(
            "a**p * s bounded outside a set of finite filter mass"
        )
    if status == "unbounded":
        try:
            witness = witnesses.GreedyBlockSet(a, s, p, criterion=status)
        except HorizonExceeded as exc:
            return AdmissVerdict.inconclusive(f"witness construction failed: {exc}")
        return _refute(a, F, p, witness)
    return AdmissVerdict.inconclusive(detail)


def summable_criterion(a: ScalarSeq, s: ScalarSeq, p) -> tuple[str, str]:
    """Is a**p * s bounded outside a set of finite s-mass?

    Returns ("bounded" | "unbounded" | "unknown", detail).  Piecewise
    inputs are handled piece by piece: an unbounded piece is harmless
    when its own s-mass is finite.
    """
    p = _as_fraction(p)
    prod = seq_mul(seq_pow(a, p), s)
    if prod is None:
        return "unknown", "the product a**p * s left the symbolic family"
    pieces = pieces_with_forms(prod)
    if pieces is None:
        return "unknown", "no piecewise decomposition for a**p * s"
    for piece_set, form in pieces:
        if form.growth <= 0 or is_certainly_finite(piece_set):
            continue
        mass = weight_sum(piece_set, s)
        if mass.kind == "diverges":
            return "unbounded", "a**p * s grows on a piece of infinite filter mass"
        if mass.kind != "converges":
            return "unknown", "filter mass of an unbounded piece undecided"
    return "bounded", ""


def _statistical_case(a: ScalarSeq, p: Fraction, bounded) -> AdmissVerdict:
    nondecr = is_eventually_nondecreasing(a)
    if nondecr is not True:
        return AdmissVerdict.inconclusive(
            "the statistical criterion needs an eventually non-decreasing sequence"
        )
    f = tail_form(a)
    if f is None:
        return AdmissVerdict.inconclusive("no tail form for the statistical criterion")
    if (f.beta, f.gamma) <= (1 / p, 0):
        return AdmissVerdict.proved("non-decreasing with a(n)/n**(1/p) bounded")
    # here beta == 1/p with a positive log factor: the global sum already
    # classified as divergent, and a genuine witness needs doubly
    # exponential blocks outside the expressible sets
    return AdmissVerdict.inconclusive(
        "boundary growth: refutation witness is not expressible in the set grammar"
    )


def _trace_case(a: ScalarSeq, F: Trace, p: Fraction) -> AdmissVerdict:
    inner = check_admissible(a, F.base, p)
    if inner.kind == "proved":
        # the trace has fewer stationary sets than its base
        return AdmissVerdict.proved(f"base filter: {inner.criterion}")
    on_index = sum_inverse_p_verdict(a, p, F.index_set)
    if on_index.kind == "converges":
        return _refute(a, F, p, F.index_set, on_index)
    return _library_sweep(a, F, p)


def _library_sweep(a: ScalarSeq, F: FilterSpec, p: Fraction) -> AdmissVerdict:
    inverse = seq_pow(a, -p)  # one a**-p for every library set
    for W in witness_library():
        if not_negligible(W, F) is not True:
            continue
        on_w = weight_sum(W, inverse)
        if on_w.kind == "converges":
            return _refute(a, F, p, W, on_w)
    return AdmissVerdict.inconclusive("no criterion applied and no library witness found")


# ---------------------------------------------------------------------------
# greedy witness


def nonadmissibility_witness(a: ScalarSeq, s: ScalarSeq, p) -> witnesses.GreedyBlockSet:
    """The greedy block set refuting (F^s, p)-admissibility.

    Raises CriterionHolds when a**p * s is in fact bounded outside a set
    of finite s-mass, and HorizonExceeded when blocks cannot be
    completed below the horizon.
    """
    p = _as_fraction(p)
    status, _ = summable_criterion(a, s, p)
    if status == "bounded":
        raise CriterionHolds("a**p * s is bounded outside a set of finite s-mass")
    return witnesses.GreedyBlockSet(a, s, p, criterion=status)


# ---------------------------------------------------------------------------
# derived reports


@record
class BandReport:
    """Sufficient verdict at p and necessary verdicts on a grid below p."""

    p: Fraction
    sufficient: AdmissVerdict
    necessary: tuple[tuple[Fraction, AdmissVerdict], ...]
    caveat: str = (
        "for 1 < p < 2 admissibility at p is sufficient and admissibility at "
        "every s in (1, p) is necessary; the two do not meet"
    )


def admissibility_band(a: ScalarSeq, F: FilterSpec, p) -> BandReport:
    p = _as_fraction(p)
    if not 1 < p < 2:
        raise DomainError("the band is defined for exponents strictly between 1 and 2")
    sufficient = check_admissible(a, F, p)
    schedule = [1 + Fraction(k) * (p - 1) / 4 for k in (1, 2, 3)]
    necessary = tuple((s, check_admissible(a, F, s)) for s in schedule)
    return BandReport(p, sufficient, necessary)


def associated_summable_filter(a: ScalarSeq) -> Summable:
    """The summable filter with weights 1/a, defined when they diverge."""
    if sum_inverse_p_verdict(a, 1, NATURALS).kind != "diverges":
        raise NotDivergent("the inverse sum converges")
    return Summable(seq_pow(a, -1))


@record
class SlowVerdict:
    kind: str  # "slow-by-rule" | "not-slow" | "inconclusive"
    witness: Optional[ScalarSeq] = None
    detail: str = ""


_ROOT_N = PowerLog(1, Fraction(1, 2))


def slow_certificate(F: FilterSpec) -> SlowVerdict:
    """Slowness verdict: a slow filter admits no admissible sequence that
    grows at least like sqrt(n)."""
    if isinstance(F, Summable):
        form = tail_form(F.weights)
        if form is not None and form.gamma == 0 and not form.head:
            alpha = -form.beta
            if 0 < alpha < Fraction(1, 2):
                return SlowVerdict(
                    "slow-by-rule",
                    detail=f"summable weights n**(-{alpha}) with exponent below 1/2",
                )
    for cand in (_ROOT_N, PowerLog(2, Fraction(1, 2)), PowerLog(1, Fraction(3, 5))):
        if check_admissible(cand, F, 1).kind == "proved":
            return SlowVerdict("not-slow", witness=cand)
    return SlowVerdict("inconclusive")
