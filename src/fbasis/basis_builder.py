"""End-to-end construction of filter bases with prescribed partial-sum norms.

Starting from the canonical basis, the rebuilt system is
v_n = b_1 e_1 + ... + b_n e_n with coordinate functionals
v*_n = e*_n / b_n - e*_{n+1} / b_{n+1}.  Its stage-n partial-sum
projection differs from the canonical one by the rank-one defect
(x_{n+1} / b_{n+1}) v_n, and the coefficients are chosen recurrently so
the projection norm at stage n equals the prescribed target a_n.

The builder refuses targets whose admissibility verdict is refuted (the
defining convergence property would provably fail) and flags
inconclusive verdicts in the produced system.  All stage-level claims
are certified on the materialized truncation; the symbolic
exceptional-set analysis in ``convergence_demo`` supplies the
infinite-tail content.
"""

from __future__ import annotations

import functools
import math
import random
from collections.abc import Sequence as SequenceABC
from fractions import Fraction
from typing import Optional

from ._record import field, record
from .admissibility import AdmissVerdict, check_admissible
from .filters import DEFAULT_EPS_SCHEDULE, FilterSpec, LimitVerdict, epsilon_table
from .natset import NATURALS, Finite, Intersection, Shifted, canonicalize
from .lp_operators import (
    DimensionMismatch,
    SpaceKind,
    TailOp,
    _prescribed_ratio,
    _root,
    _stage_norm,
    apply,
)
from .sequences import (
    DomainError,
    PowerLog,
    ScalarSeq,
    SeqConstructionError,
    eval_at,
    limit_value,
    seq_mul,
    seq_pow,
    seq_scale,
    tail_form,
    threshold_ge,
    threshold_levels,
    to_float,
)
from .vectors import BasisVector, PowerTail, Spike, TestVector


class NotAdmissible(ValueError):
    def __init__(self, verdict: AdmissVerdict):
        super().__init__(
            "the target norms are refuted for this filter; witness: "
            + (verdict.witness.to_text() if verdict.witness is not None else "?")
        )
        self.verdict = verdict


@record
class BasisSystem:
    space: SpaceKind
    target: ScalarSeq
    filter: FilterSpec
    coefficients: list  # b_1 .. b_{n_max}
    coefficients_squared: Optional[list]  # exact squares on the Hilbert path
    norm_reports: list
    defect_coeffs: list  # c_n = ||v_n|| / b_{n+1}
    admissibility: AdmissVerdict
    targets: list  # a_1 .. a_{n_max - 1}, as the recurrence evaluated them
    warnings: list = field(default_factory=list)

    @property
    def n_max(self) -> int:
        return len(self.coefficients)

    @property
    def stages(self) -> "_Stages":
        """The tail operators at stages 1 .. n_max - 1, built on access."""
        return _Stages(self)

    def stage(self, n: int) -> TailOp:
        sq = self.coefficients_squared
        return TailOp(n, tuple(self.coefficients[: n + 1]), self.space,
                      b_squared=None if sq is None else tuple(sq[: n + 1]))


class _Stages(SequenceABC):
    def __init__(self, system: BasisSystem):
        self._system = system

    def __len__(self) -> int:
        return self._system.n_max - 1

    def __getitem__(self, i: int) -> TailOp:
        return self._system.stage(range(1, len(self) + 1)[i])


def build_basis(
    a: Optional[ScalarSeq],
    space: SpaceKind,
    F: FilterSpec,
    n_max: int = 32,
    a_squared: Optional[ScalarSeq] = None,
) -> BasisSystem:
    """Run the recurrence and certify every stage invariant.

    The loop carries the mass S = b_1**p + ... + b_n**p and prescribes
    b_{n+1}**p = S / W with W = (a_n**q - 1)**(p - 1) (W = a_n at p = 1).
    It stays in rationals while the targets do: the coefficients for
    p = 1, the squares for p = 2.  There W is the prescribed ratio itself,
    and S = b_n**p (W' + 1), W' the last stage's, so b_{n+1}**p = S / W is
    b_n**p times a small ratio, reduced by gcds with its small terms alone.
    An exact stage's norm and defect are made once per distinct W, and its
    certificate compares the stored b_{n+1}**p with b_n**p.  From the first
    stage that leaves the rationals it continues in floats.
    ``a_squared`` optionally supplies exact squared targets for the
    Hilbert-space path (so irrational targets like sqrt(2) stay exact on
    squares).
    """
    if n_max < 2:
        raise DomainError("need at least two coefficients")
    if space.dim < n_max:
        raise DimensionMismatch(f"{n_max} coefficients need dimension {n_max}, got {space.dim}")
    admiss_seq = a
    if a is None:
        if a_squared is None:
            raise DomainError("a target sequence is required")
        admiss_seq = seq_pow(a_squared, Fraction(1, 2))
    targets = [eval_at(admiss_seq, n) for n in range(1, n_max)]
    for n, t in enumerate(targets, start=1):
        value = to_float(t)
        if value == math.inf:
            raise DomainError(f"target norm at stage {n} lies beyond the float range")
        if not value > 1:
            raise DomainError(f"target norm at stage {n} must exceed 1, got {value}")
    p = space.p if isinstance(space.p, Fraction) else Fraction(space.p).limit_denominator(10 ** 6)
    verdict = check_admissible(admiss_seq, F, max(p, Fraction(1)))
    if verdict.kind == "refuted":
        raise NotAdmissible(verdict)
    warnings = []
    if verdict.kind == "inconclusive":
        warnings.append(
            "admissibility inconclusive: the filter-basis property of the "
            "produced system is not certified (" + verdict.reason + ")"
        )

    on_l1, on_l2 = space.p == 1, space.is_l2  # tested once, not per stage
    p = 1 if on_l1 else 2 if on_l2 else space.p  # an int compares faster than a Fraction
    if on_l2 and a_squared is None:
        a_squared = seq_pow(a, 2)
    squares = [Fraction(1)] if on_l2 else None
    coeffs: list = [Fraction(1) if on_l1 else 1.0]
    mass, grow = Fraction(1), (1, 1)  # S = mass grow[0] / grow[1] while stages are exact
    # W_{n-1} as (num, den), W_0 + 1 = 1; (rep, U) per exact W, and under None at a float stage
    last_ratio, by_ratio = (0, 1), {}
    reports: list = []
    defects: list = []
    for n, t in enumerate(targets, start=1):
        t_square = eval_at(a_squared, n) if on_l2 else None
        W = _prescribed_ratio(t, p, t_square)
        if isinstance(mass, Fraction) and isinstance(W, Fraction):  # S / (S / W) is W itself
            w, v = ratio = W.numerator, W.denominator
            mass = nxt = mass * Fraction(grow[0] * v, grow[1] * w)
            grow = (w + v, v)  # S + S / W = nxt (W + 1)
        else:
            ratio = None
            mass, grow = mass * Fraction(*grow), (1, 1)  # S in full
            nxt = mass / W  # b_{n+1}**p
            if not 0.0 < nxt < math.inf:  # mass or ratio past the range
                raise DomainError(f"coefficient at stage {n} lies beyond the float range")
            W, mass = mass / nxt, mass + nxt
        if squares is not None and not isinstance(nxt, Fraction):
            squares = None
            warnings.append("squared targets left the rationals; continuing in floats")
        if squares is not None:
            squares.append(nxt)
        b = _root(nxt, p)
        if isinstance(coeffs[-1], Fraction) and not isinstance(b, Fraction):
            coeffs = [float(v) for v in coeffs]
        coeffs.append(b if on_l1 else float(b))
        if ratio is not None:
            _certify_stage_mass(coeffs if on_l1 else squares, ratio, last_ratio, n)
            last_ratio = ratio
        if ratio is None or ratio not in by_ratio:  # a float stage, or a new exact W
            rep = _stage_norm(W, p, coeffs)
            if ratio is None and abs(rep.lower - float(t)) > 1e-9 * float(t):
                raise ArithmeticError(f"stage {n}: certified norm {rep.value} (lower bound "
                                      f"{rep.lower}) misses the target {t}")
            # U = ||v_n||_p / b_{n+1}
            by_ratio[ratio] = rep, _root(W, p) if on_l1 else float(_root(W, p))
        rep, c = by_ratio[ratio]
        reports.append(rep)
        defects.append(c)
    return BasisSystem(space=space, target=admiss_seq, filter=F, coefficients=coeffs,
                       coefficients_squared=squares, norm_reports=reports,
                       defect_coeffs=defects, admissibility=verdict, targets=targets,
                       warnings=warnings)


def _certify_stage_mass(powers: list, ratio: tuple, last_ratio: tuple, n: int) -> None:
    """The stored b_{n+1}**p W_n = S_n = b_n**p (W_{n-1} + 1), with the ratios
    W = w / v: the mass they give, as integer cross-products with no gcd."""
    (w, v), (w0, v0), nxt, last = ratio, last_ratio, powers[-1], powers[-2]
    if nxt.numerator * last.denominator * (w * v0) != last.numerator * nxt.denominator * (
            (w0 + v0) * v):
        raise ArithmeticError(f"stage {n}: b_{n + 1}**p = {nxt} misses the mass that the "
                              f"prescribed ratios {w0}/{v0} and {w}/{v} give")


# ---------------------------------------------------------------------------
# verification reports


@record
class BiorthReport:
    size: int
    max_error: float
    ok: bool


def verify_biorthogonality(sys: BasisSystem) -> BiorthReport:
    """Check sum_{k<=n} v*_k(x) v_k == T_n x, with the coordinate functionals
    v*_k = e*_k / b_k - e*_{k+1} / b_{k+1} and T_n evaluated through ``apply``,
    for one seeded random rational x at the stages 1, 2, 4, ... and n_max - 1.

    v_k has b_i at every i <= k, so coordinate i <= n of the sum telescopes,
    b_i (v*_i(x) + ... + v*_n(x)) = x_i - q b_i, q = x_{n+1} / b_{n+1}; past
    n it is 0.  As the integer pair (e, d) = (x_i.num q.den b_i.den - q.num
    b_i.num x_i.den, x_i.den q.den b_i.den), q reduced, or (0, 1), it is what
    ``apply`` hands over, so a sound stage is one comparison of lists; another
    pair (u, v) misses by u d - e v over v d.  Float coefficients convert to
    Fractions exactly, so a reported error is exact, never rounding.  The
    checked stages are heads of one operator; x and b are read as integers once."""
    k = sys.n_max - 1
    b = [v if isinstance(v, Fraction) else Fraction(v) for v in sys.coefficients]
    whole = TailOp(k, tuple(b), sys.space)
    rng = random.Random(0)
    x = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 10)) for _ in b]
    xs = [(u.numerator, u.denominator) for u in x]
    bs = [(c.numerator, c.denominator) for c in b]
    stages = sorted({2 ** j for j in range(k.bit_length()) if 2 ** j < k} | {k})
    worst = Fraction(0)
    for n in stages:
        got = apply(whole.head(n), x)
        q = x[n] / b[n]
        qn, qd = q.numerator, q.denominator
        want = [(u * qd * cd - qn * cn * v, v * qd * cd) for (u, v), (cn, cd) in zip(xs[:n], bs)]
        want += [(0, 1)] * (len(x) - n)
        pairs = getattr(got, "pairs", None) or [(g.numerator, g.denominator) for g in got]
        if pairs != want:
            for (u, v), (e, d) in zip(pairs, want):
                miss = u * d - e * v
                if miss:
                    worst = max(worst, Fraction(abs(miss), v * d))
    return BiorthReport(size=k, max_error=float(worst), ok=worst == 0)


@record
class DefectReport:
    values: list
    deviations: list  # |c_n - a_n| per stage
    within_unit: bool
    exact_match_l1: Optional[bool]
    vanishing: tuple = ()  # (vector text, limit verdict kind) on the test family


def default_test_family(space: SpaceKind):
    """Finitely supported, a power tail inside the space, a sparse spike."""
    p = space.p if isinstance(space.p, Fraction) else Fraction(space.p).limit_denominator(10 ** 6)
    beta = Fraction(1) / p + 1
    from .natset import GeometricIndex

    return (
        BasisVector(1),
        PowerTail(beta),
        Spike(Shifted(GeometricIndex(Fraction(2)), 1), PowerLog(1, Fraction(0), Fraction(-2))),
    )


def defect_report(sys: BasisSystem, test_family=None) -> DefectReport:
    """The defect coefficients with their unit-band check and the
    filter-vanishing verdicts of the defect functionals on a test family."""
    values = [float(c) for c in sys.defect_coeffs]
    devs = [abs(v - float(t)) for v, t in zip(values, sys.targets)]
    exact_l1: Optional[bool] = None
    if sys.space.is_l1:
        exact_l1 = all(isinstance(c, Fraction) and c == t
                       for c, t in zip(sys.defect_coeffs, sys.targets))
    if test_family is None:
        test_family = default_test_family(sys.space)
    bounds = functools.cache(lambda: _defect_bound_seqs(sys))
    vanishing = tuple(
        (x.to_text(), _classify_defects(sys, x, bounds)[1].kind) for x in test_family
    )
    return DefectReport(
        values=values,
        deviations=devs,
        within_unit=all(d <= 1.0 + 1e-9 for d in devs),
        exact_match_l1=exact_l1,
        vanishing=vanishing,
    )


# ---------------------------------------------------------------------------
# convergence demonstrations


@record
class EpsilonEntry:
    epsilon: float
    over_set: Optional[str]  # certified superset of the exceptional set
    under_set: Optional[str]  # certified subset
    classification: str


@record
class ConvergenceReport:
    vector: str
    stage_defects: list
    entries: tuple
    verdict: LimitVerdict
    caveat: str


_TRUNCATION_CAVEAT = (
    "stage values certified on the materialized truncation; tail claims "
    "come from the symbolic exceptional-set analysis"
)


def _defect_bound_seqs(sys: BasisSystem):
    """(c_lower, c_upper, T): symbolic sequences with c_lower(n) <= c_n on
    the set T and c_n <= c_upper(n) at every n; c_lower is None where no
    lower bound is derived."""
    a = sys.target
    if sys.space.is_l1:
        return a, a, NATURALS
    # c_n = (a_n**q - 1)**(1/q) < a_n for the dual exponent q, and
    # c_n >= a_n/2 wherever a_n**q >= 1/(1 - 2**-q)
    p = sys.space.p_float
    q = p / (p - 1.0)
    T = threshold_ge(a, (1.0 / (1.0 - 2.0 ** (-q))) ** (1.0 / q))
    return (None if T is None else seq_scale(a, Fraction(1, 2))), a, T


def _shift_ratio(amp: ScalarSeq) -> Optional[float]:
    """Bound on max(amp(n+1)/amp(n), amp(n)/amp(n+1)) over all n; None where
    it has no float."""
    f = tail_form(amp)
    if f is None:
        return None
    try:
        worst = 2.0 ** abs(float(f.beta)) * (math.log(3.0) / math.log(2.0)) ** abs(float(f.gamma))
    except OverflowError:
        return None
    # explicit head values can break the family ratio; cover them by probing
    probe = max([1] + [i + 1 for i, _ in f.head])
    for n in range(1, probe + 2):
        hi, lo = eval_at(amp, n + 1), eval_at(amp, n)
        try:
            r = float(hi) / float(lo)
        except (OverflowError, ZeroDivisionError):  # values past the float range
            r = to_float(hi / lo) if isinstance(hi, Fraction) and isinstance(lo, Fraction) else 0.0
        if not 0.0 < r < math.inf:  # nan included
            return None
        worst = max(worst, r, 1.0 / r)
    return worst if worst < math.inf else None


def convergence_demo(
    sys: BasisSystem,
    x: TestVector,
    eps_schedule=None,
    horizon: int = 10 ** 6,
    under: Optional[FilterSpec] = None,
) -> ConvergenceReport:
    """Classify the defect terms of the rebuilt partial sums at x.

    The stage-n defect norm is |x_{n+1}| * c_n.  For each scheduled
    epsilon the exceptional set is bracketed between derived under- and
    over-approximations and classified under the system's filter (or the
    ``under`` override, for side-by-side comparisons).  The over-set
    (``over_set``) is a certified superset of the exceptional set, the
    under-set (``under_set``) a certified subset.  The upper bound c_n <= a_n
    holds at every n; the lower bound c_n >= a_n / 2 holds where a(n) >= t,
    t being the level from which it holds (see ``_defect_bound_seqs``), so
    the under-sets are taken inside that set."""
    # |x_{n+1}| c_n in binary64, saturated to +inf or 0.0 past the float range
    stage_defects = [to_float(abs(x_n), 1, 0, c) if (x_n := x.coordinate(n + 1)) else 0.0
                     for n, c in enumerate(sys.defect_coeffs, start=1)]
    entries, verdict = _classify_defects(sys, x, lambda: _defect_bound_seqs(sys),
                                         eps_schedule, horizon, under)
    return ConvergenceReport(x.to_text(), stage_defects, entries, verdict, _TRUNCATION_CAVEAT)


def _classify_defects(sys: BasisSystem, x: TestVector, bounds, eps_schedule=None,
                      horizon: int = 10 ** 6, under: Optional[FilterSpec] = None):
    """The epsilon table and the limit verdict of ``convergence_demo``.
    ``bounds()`` returns the system's ``_defect_bound_seqs``, so a caller
    classifying several vectors computes them once.

    Level e asks about the exceptional set {n : |x_{n+1}| c_n >= e}.  Its
    over-set, the support of x (shifted to n) intersected with
    {n : kappa amp(n) c_upper(n) >= e}, is a superset: a negligible over-set
    makes the level negligible.  Its under-set, the same with
    {n : amp(n) c_lower(n) / kappa >= e} and inside the set where c_lower
    bounds c, is a subset: an under-set that is not negligible makes the
    level stationary-or-member.  The over-sets of all levels come from one
    head scan of their sequence, the under-sets from one more, and
    ``epsilon_table`` classifies them."""
    filt = under if under is not None else sys.filter
    if eps_schedule is None:
        eps_schedule = DEFAULT_EPS_SCHEDULE
    if isinstance(x, BasisVector):
        entries = tuple(
            EpsilonEntry(float(e), Finite(()).to_text(), Finite(()).to_text(), "negligible")
            for e in eps_schedule[:1]
        )
        return entries, LimitVerdict.converges_to(0)

    levels = [float(e) for e in eps_schedule]
    support = canonicalize(Shifted(x.support(), -1))
    amp = x.amplitude()
    kappa = _shift_ratio(amp)
    c_lower, c_upper, lower_on = bounds()
    prod_hi = seq_mul(amp, c_upper)
    prod_lo = seq_mul(amp, c_lower) if c_lower is not None else None

    def bound_sets(prod, scale, *where):
        """The threshold sets of prod * scale at the asked levels, each
        intersected with the sets ``where``; None where prod * scale has a
        coefficient or value past the float range, which no family holds."""
        try:
            scaled = seq_scale(prod, scale)
        except SeqConstructionError:
            return None
        restrict = functools.cache(lambda s: canonicalize(Intersection((*where, s))))
        return lambda ls: [None if s is None else restrict(s)
                           for s in threshold_levels(scaled, ls, horizon)]

    over_sets = under_sets = limsup = None
    if kappa is not None and prod_hi is not None:
        over_sets = bound_sets(prod_hi, kappa, support)
        lim = limit_value(prod_hi)
        if lim is not None and math.isfinite(lim):
            # the defect bound settles below every level above lim * kappa
            limsup = lim * kappa
    if kappa is not None and prod_lo is not None:
        under_sets = bound_sets(prod_lo, 1.0 / kappa, support, lower_on)
    overs, unders, cls, verdict = epsilon_table(filt, levels, over_sets, under_sets, limsup)
    texts = [[None if s is None else s.to_text() for s in sets] for sets in (overs, unders)]
    return tuple(EpsilonEntry(*row) for row in zip(levels, *texts, cls)), verdict
