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

import itertools
import math
import random
from collections.abc import Sequence as SequenceABC
from fractions import Fraction
from sys import get_int_max_str_digits
from typing import Optional

from ._lazy_numpy import np
from ._record import field, record
from .admissibility import AdmissVerdict, check_admissible
from .filters import (DEFAULT_EPS_SCHEDULE, FilterSpec, LimitVerdict, SetClass, classify_set,
                      epsilon_table)
from .natset import (DEFAULT_HORIZON, NATURALS, Finite, GeometricIndex, Intersection, Shifted,
                     canonicalize)
from .lp_operators import (
    DimensionMismatch,
    SpaceKind,
    TailOp,
    _METHODS,
    _closed_form_report,
    _prescribed_ratio,
    _root,
    _scaled_sqrt,
    _stage_bounds,
    image_pairs,
    norm_ratio,
    norming_input,
)
from .sequences import (
    DomainError,
    _coprime,
    PowerLog,
    ScalarSeq,
    SeqConstructionError,
    _as_float,
    eval_at,
    product_limit,
    seq_mul,
    seq_pow,
    seq_scale,
    tail_form,
    threshold_ge,
    threshold_levels,
    to_float,
)
from .series import running_sum
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
    printable: bool = False,
) -> BasisSystem:
    """Run the recurrence and certify every stage invariant.

    The loop carries the mass S = b_1**p + ... + b_n**p and prescribes
    b_{n+1}**p = S / W with W = (a_n**q - 1)**(p - 1) (W = a_n at p = 1).
    The exact phase lasts while W is rational: the coefficients for p = 1,
    the squares for p = 2.  There S = b_n**p (W' + 1), W' the last stage's,
    so b_{n+1}**p = S / W is b_n**p times a small ratio.  The phase carries
    b_n**p and W' + 1 as integer pairs, reduces the product by gcds with the
    small terms alone and stores it as a Fraction in lowest terms.  An exact
    stage's norm is taken from a_n**p, its p-th power, and its defect is a_n
    itself at p = 1 and the root of W at p = 2, once per distinct W; its
    certificate compares the stored b_{n+1}**p with b_n**p.  The float
    phase, in floats, starts at the first stage whose W is a float, and
    keeps the coefficients in one float array.  Each of its stages costs
    O(1): the report (``_stage_bounds``) has the Hoelder closed form of W
    as its value, that value rounded down as its lower bound, and the larger
    of it and the Riesz-Thorin bound, from the running sum and maximum of
    b_1 .. b_n, rounded up as its upper bound, with ``series._round_up``'s
    margin and gamma_{n-1} for the running sums.  Every stage's lower bound
    must lie within 1e-9 of the target.  At the first float stage and at
    the probe stages 1, 2, 4, ..., n_max - 1 of ``verify_biorthogonality``,
    the ratio ||T x|| / ||x|| of the norming vector x, evaluated on a view
    of the array, checks the report independently: it must lie in [lower,
    upper] and within 1e-9 of the target.
    ``a_squared`` optionally supplies exact squared targets for the
    Hilbert-space path (so irrational targets like sqrt(2) stay exact on
    squares).  A coefficient past the float range, in either phase, is a
    ``DomainError``.  With ``printable`` (the caller renders the stored
    powers in decimal), so is an exact power with more bits than a number
    of ``sys.get_int_max_str_digits()`` digits can hold, found as it is
    made; a limit of 0 sets none.
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
    reports: list = []
    defects: list = []
    stages = enumerate(targets, start=1)
    # b_n**p = num / den, W_{n-1} + 1 = gn / gd (W_0 + 1 = 1); per exact W, (rep, U)
    # and whether the roots of a_n**p and W are rational
    num = den = gn = gd = 1
    last_ratio, by_ratio, float_from = (0, 1), {}, None
    rational_b = rational_last = True  # b_n and a_{n-1} rational (b_1 = a_0 = 1)
    limit = get_int_max_str_digits() if printable else 0  # 0: no limit
    # below the cap, bit_length() <= limit * 3.321928 < limit * log2(10): at most limit digits
    cap = 1 << limit * 3321928 // 10 ** 6 if limit else 0
    for n, t in stages:
        a_p = t if on_l1 else eval_at(a_squared, n) if on_l2 else None  # a_n**p
        if not isinstance(a_p, Fraction):
            float_from = n, t
            break
        # W = w / v = a_n**p - (p - 1), in lowest terms as a_n**p is
        w, v = ratio = a_p.numerator - on_l2 * a_p.denominator, a_p.denominator
        # b_{n+1}**p = S / W = b_n**p (gn v) / (gd w), reduced as in Fraction._mul
        g = math.gcd(sn := gn * v, sd := gd * w)
        sn, sd = sn // g, sd // g
        g1, g2 = math.gcd(num, sd), math.gcd(sn, den)
        num, den = (num // g1) * (sn // g2), (den // g2) * (sd // g1)
        gn, gd = w + v, v  # S + S / W = b_{n+1}**p (W + 1)
        if cap and (num >= cap or den >= cap):
            raise DomainError(f"coefficient at stage {n} passes the limit of {limit} digits "
                              "for integer string conversion")
        nxt = _coprime(num, den)  # b_{n+1}**p
        if ratio not in by_ratio:  # the stage norm's p-th power is a_n**p itself
            if on_l1:
                by_ratio[ratio] = _closed_form_report(a_p, 1, _METHODS[1]), a_p, True, True
            else:  # the roots of a_n**2 and W, each tried once, and which are rational
                root_a, root_w = _root(a_p, 2), _root(_coprime(w, v), 2)
                by_ratio[ratio] = (_closed_form_report(a_p, 2, _METHODS[2], root_a),
                                   _as_float(root_w), isinstance(root_a, Fraction),
                                   isinstance(root_w, Fraction))
        rep, c, rational_a, rational_w = by_ratio[ratio]
        if on_l2:
            squares.append(nxt)
        try:
            # at p = 2, b_{n+1} = b_n a_{n-1} / sqrt(W_n) is irrational where
            # exactly one factor is, and has no exact root to try
            one_irrational = on_l2 and rational_b + rational_last + rational_w == 2
            b = _scaled_sqrt(nxt) if one_irrational else _root(nxt, p)
            coeffs.append(b if on_l1 else _as_float(b))
        except OverflowError:  # at p = 2, b past the float range while its square is exact
            msg = f"coefficient at stage {n} lies beyond the float range"
            raise DomainError(msg) from None
        _certify_stage_mass(coeffs if on_l1 else squares, ratio, last_ratio, n)
        last_ratio, rational_b, rational_last = ratio, isinstance(b, Fraction), rational_a
        reports.append(rep)
        defects.append(c)
    if float_from is not None:  # the float phase, from the first stage whose W is a float
        first = float_from[0]
        try:  # S and b_1 .. b_first, as floats
            mass, head = num * gn / (den * gd), [_as_float(v) for v in coeffs]
        except OverflowError:
            raise DomainError(f"coefficient at stage {first} lies beyond the float range") from None
        bf = np.empty(n_max)  # b_1 .. b_{n_max}, filled stage by stage
        bf[:first] = head
        total, top = running_sum(head), max(head)  # b_1 + ... + b_n and max(b_1, ..., b_n)
        probes = {first, *_probe_stages(n_max - 1)}
        if on_l2:
            squares = None
            warnings.append("squared targets left the rationals; continuing in floats")
        p = float(p)
        for n, t in itertools.chain([float_from], stages):
            tf = _as_float(t)
            W = _prescribed_ratio(tf, p, eval_at(a_squared, n) if on_l2 else None)
            nxt = mass / to_float(W)  # b_{n+1}**p; +inf past the range for W
            if not 0.0 < nxt < math.inf:  # mass or ratio past the range
                raise DomainError(f"coefficient at stage {n} lies beyond the float range")
            W, mass = mass / nxt, mass + nxt
            b = bf[n] = float(_root(nxt, p))
            rep = _stage_bounds(W, p, total, top, b, n)
            if abs(rep.lower - tf) > 1e-9 * tf:
                raise ArithmeticError(f"stage {n}: certified norm {rep.value} (lower bound "
                                      f"{rep.lower}) misses the target {t}")
            if n in probes:  # the independent check, on the norming vector
                view = bf[:n + 1]
                ratio = norm_ratio(view, norming_input(view, p), p)
                if not (rep.lower <= ratio <= rep.upper and abs(ratio - tf) <= 1e-9 * tf):
                    raise ArithmeticError(f"stage {n}: the norming vector's ratio {ratio} lies "
                                          f"outside [{rep.lower}, {rep.upper}] or misses the "
                                          f"target {t}")
            reports.append(rep)
            defects.append(float(_root(W, p)))  # U = ||v_n||_p / b_{n+1}
            total, top = total + b, max(top, b)
        coeffs = bf.tolist()
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


def _probe_draws():
    """The probe's coordinates as reduced integer pairs, each x_i =
    randrange(-9, 10) / randrange(1, 10), drawn in turn from one Random(0)."""
    rng = random.Random(0)
    while True:
        u, v = rng.randrange(-9, 10), rng.randrange(1, 10)
        g = math.gcd(u, v)
        yield u // g, v // g


# the probe drawn so far, shared by every check in the process, and its source:
# its first m pairs are the same whatever length was asked for first
_PROBE: list = []
_PROBE_SOURCE = _probe_draws()


def _probe(size: int) -> list:
    """The first ``size`` coordinates of the probe, drawn on first need."""
    if len(_PROBE) < size:
        _PROBE.extend(itertools.islice(_PROBE_SOURCE, size - len(_PROBE)))
    return _PROBE[:size]


def _probe_stages(k: int) -> list:
    """The stages 1, 2, 4, ... below k, and k: where a system of k stages
    has its biorthogonality checked, and its float stage norms checked on
    their norming vectors."""
    return sorted({2 ** j for j in range(k.bit_length()) if 2 ** j < k} | {k})


def verify_biorthogonality(sys: BasisSystem) -> BiorthReport:
    """Check sum_{k<=n} v*_k(x) v_k == T_n x, with the coordinate functionals
    v*_k = e*_k / b_k - e*_{k+1} / b_{k+1} and T_n evaluated by
    ``image_pairs``, for one seeded random rational x at the stages 1, 2, 4,
    ... and n_max - 1.  x is the shared probe: its coordinates are drawn once
    per process from one Random(0), and a shorter check reads a prefix of a
    longer one's x.

    v_k has b_i at every i <= k, so coordinate i <= n of the sum telescopes,
    b_i (v*_i(x) + ... + v*_n(x)) = x_i - q b_i, q = x_{n+1} / b_{n+1}; past
    n it is 0.  As the integer pair (e, d) = (x_i.num q.den b_i.den - q.num
    b_i.num x_i.den, x_i.den q.den b_i.den), q reduced, or (0, 1), it is what
    a sound kernel returns, so a sound stage is one comparison of lists
    (q.den b_i.den is formed once per coordinate, for both entries);
    another pair (u, v) misses by u d - e v over v d.  b and x are read as
    integer pairs, b's from ``as_integer_ratio``, exact for a float too, so
    a reported error is exact, never rounding, and no Fraction is made per
    coordinate of either."""
    k = sys.n_max - 1
    bs = [v.as_integer_ratio() for v in sys.coefficients]
    if any(u <= 0 for u, _ in bs):
        raise DomainError("coefficients must be positive")
    xs = _probe(k + 1)
    worst = Fraction(0)
    for n in _probe_stages(k):
        got = image_pairs(bs, xs, n)
        q = Fraction(*xs[n]) / _coprime(*bs[n])  # as_integer_ratio's pairs are coprime
        qn, qd = q.numerator, q.denominator
        want = [(u * (m := qd * cd) - qn * cn * v, v * m)
                for (u, v), (cn, cd) in zip(xs[:n], bs)]
        want += [(0, 1)] * (len(xs) - n)
        if got != want:
            for (u, v), (e, d) in zip(got, want):
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


# e(1) and the spike of every default test family, built once, so what the
# defect verdicts derive from them (``_kept``) is made once per process
_BASIS_VECTOR = BasisVector(1)
_SPIKE = Spike(Shifted(GeometricIndex(Fraction(2)), 1), PowerLog(1, Fraction(0), Fraction(-2)))


def default_test_family(space: SpaceKind):
    """Finitely supported, a power tail inside the space, a sparse spike."""
    p = space.p if isinstance(space.p, Fraction) else Fraction(space.p).limit_denominator(10 ** 6)
    # 1/p + 1 = (den + num)/num, in lowest terms as p is
    return _BASIS_VECTOR, PowerTail(_coprime(p.denominator + p.numerator, p.numerator)), _SPIKE


def defect_report(sys: BasisSystem, test_family=None) -> DefectReport:
    """The defect coefficients with their unit-band check and the
    filter-vanishing verdicts of the defect functionals on a test family.

    Only each verdict's kind is kept, so ``_classify_defects`` may settle
    it without the epsilon table: a vector whose limsup bound lies below
    every level converges, and so does one whose shifted support is
    negligible."""
    # one float per distinct object: exact stages share their defects and targets
    distinct = {id(c): c for c in itertools.chain(sys.defect_coeffs, sys.targets)}
    floats = {k: _as_float(c) for k, c in distinct.items()}
    values = [floats[id(c)] for c in sys.defect_coeffs]
    devs = [abs(v - floats[id(t)]) for v, t in zip(values, sys.targets)]
    exact_l1: Optional[bool] = None
    if sys.space.is_l1:
        exact_l1 = all(isinstance(c, Fraction) and (c is t or c == t)
                       for c, t in zip(sys.defect_coeffs, sys.targets))
    if test_family is None:
        test_family = default_test_family(sys.space)
    vanishing = tuple(
        (_kept(x, _text), _classify_defects(sys, x, verdict_only=True)[-1].kind)
        for x in test_family
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
    """(c_lower, T): a symbolic sequence with c_lower(n) <= c_n on the set T,
    or None where no lower bound is derived.  The upper bound is the target
    a itself: c_n <= a_n at every n."""
    a = sys.target
    if sys.space.is_l1:
        return a, NATURALS
    # c_n = (a_n**q - 1)**(1/q) < a_n for the dual exponent q, and
    # c_n >= a_n/2 wherever a_n**q >= 1/(1 - 2**-q)
    p = sys.space.p_float
    q = p / (p - 1.0)
    T = threshold_ge(a, (1.0 / (1.0 - 2.0 ** (-q))) ** (1.0 / q))
    return (None if T is None else seq_scale(a, Fraction(1, 2))), T


def _shift_ratio(amp: ScalarSeq, f=None) -> Optional[float]:
    """Bound on max(amp(n+1)/amp(n), amp(n)/amp(n+1)) over all n; None where
    it has no float.  ``f`` is amp's tail form where the caller holds it."""
    f = tail_form(amp) if f is None else f
    if f is None:
        return None
    try:
        worst = (2.0 ** abs(_as_float(f.beta))
                 * (math.log(3.0) / math.log(2.0)) ** abs(_as_float(f.gamma)))
    except OverflowError:
        return None
    if not f.head:  # (n+1)/n <= 2 and ln(n+2)/ln(n+1) <= ln 3/ln 2 at every n >= 1
        return worst if worst < math.inf else None
    # explicit head values can break the family ratio; cover them by probing
    probe = max(i + 1 for i, _ in f.head)
    for n in range(1, probe + 2):
        hi, lo = eval_at(amp, n + 1), eval_at(amp, n)
        try:
            r = _as_float(hi) / _as_float(lo)
        except (OverflowError, ZeroDivisionError):  # values past the float range
            r = to_float(hi / lo) if isinstance(hi, Fraction) and isinstance(lo, Fraction) else 0.0
        if not 0.0 < r < math.inf:  # nan included
            return None
        worst = max(worst, r, 1.0 / r)
    return worst if worst < math.inf else None


def _kept(x, make):
    """``make(x)``, made on the first ask and kept on x, a vector or a
    system, in its ``__dict__``, as a set keeps its description: what the
    defect verdicts derive from one object alone is made once per object."""
    name = make.__name__
    if name not in x.__dict__:
        object.__setattr__(x, name, make(x))
    return x.__dict__[name]


def _text(x: TestVector) -> str:
    return x.to_text()


def _amplitude(x: TestVector):
    """(amp, its tail form, kappa = ``_shift_ratio(amp)``)."""
    amp = x.amplitude()
    form = tail_form(amp)
    return amp, form, _shift_ratio(amp, form)


def _shifted_support(x: TestVector):
    """The support of x shifted to the stage index n, canonicalized."""
    return canonicalize(Shifted(x.support(), -1))


def convergence_demo(
    sys: BasisSystem,
    x: TestVector,
    horizon: int = DEFAULT_HORIZON,
    under: Optional[FilterSpec] = None,
) -> ConvergenceReport:
    """Classify the defect terms of the rebuilt partial sums at x.

    The stage-n defect norm is |x_{n+1}| * c_n.  For each epsilon of
    ``DEFAULT_EPS_SCHEDULE`` the exceptional set is bracketed between
    derived under- and over-approximations and classified under the
    system's filter (or the ``under`` override, for side-by-side
    comparisons).  The over-set (``over_set``) is a certified superset of
    the exceptional set, the under-set (``under_set``) a certified subset.
    The upper bound c_n <= a_n holds at every n; the lower bound c_n >=
    a_n / 2 holds where a(n) >= t, t being the level from which it holds
    (see ``_defect_bound_seqs``), so the under-sets are taken inside that
    set."""
    # |x_{n+1}| c_n in binary64, saturated to +inf or 0.0 past the float range
    stage_defects = [to_float(abs(x_n), 1, 0, c) if (x_n := x.coordinate(n + 1)) else 0.0
                     for n, c in enumerate(sys.defect_coeffs, start=1)]
    levels, overs, unders, cls, verdict = _classify_defects(sys, x, horizon, under)
    texts = [[None if s is None else s.to_text() for s in sets] for sets in (overs, unders)]
    entries = tuple(EpsilonEntry(*row) for row in zip(levels, *texts, cls))
    return ConvergenceReport(x.to_text(), stage_defects, entries, verdict, _TRUNCATION_CAVEAT)


_DEFAULT_LEVELS = tuple(float(e) for e in DEFAULT_EPS_SCHEDULE)  # converted once
_CONVERGES = LimitVerdict.converges_to(0)
_NO_SET = Finite(())


def _classify_defects(sys: BasisSystem, x: TestVector, horizon: int = DEFAULT_HORIZON,
                      under: Optional[FilterSpec] = None, verdict_only: bool = False):
    """The levels, over-sets, under-sets and classes of the epsilon table of
    ``convergence_demo``, one entry per level, and its limit verdict.

    Level e asks about the exceptional set {n : |x_{n+1}| c_n >= e}.  Its
    over-set, the support of x (shifted to n) intersected with
    {n : kappa amp(n) a(n) >= e}, is a superset: a negligible over-set
    makes the level negligible.  Its under-set, the same with
    {n : amp(n) c_lower(n) / kappa >= e} and inside the set where c_lower
    bounds c, is a subset: an under-set that is not negligible makes the
    level stationary-or-member.  The over-sets of all levels come from one
    head scan of their sequence, and ``epsilon_table`` classifies them.
    Only if it asks for the under-sets of levels left open are the system's
    ``_defect_bound_seqs``, the product amp c_lower and its one head scan
    made.  The limsup bound kappa lim(amp a) is read off the tail forms of
    amp and a (``product_limit``); the product amp a itself is built when
    the table asks for the over-sets, or where that limit is None, as only
    a piecewise product can then exist.  What is derived from x alone is
    kept on x, and the defect bounds on the system (``_kept``).

    With ``verdict_only``, the cheapest certificate comes first.  A limsup
    bound below the smallest level settles every level, and the verdict
    ``converges`` comes before any set is made.  Once it leaves a level
    open, the shifted support S itself is classified.  The stage defect is 0
    off S, so every exceptional set lies in S; if S is negligible, so is
    every level, and ``converges`` comes with no table.  In both cases the
    sets and classes are None.  Otherwise the table starts from S's class
    and does not classify S again."""
    filt = under if under is not None else sys.filter
    levels = _DEFAULT_LEVELS
    if isinstance(x, BasisVector):
        return levels[:1], [_NO_SET], [_NO_SET], ["negligible"], _CONVERGES

    amp, form, kappa = _kept(x, _amplitude)
    lim = limsup = prod_hi = None
    if kappa is not None:
        lim = product_limit(form, tail_form(sys.target))  # limit_value(seq_mul(amp, a))
        if lim is None:  # a product exists only as a piecewise one, if at all
            prod_hi = seq_mul(amp, sys.target)
        elif math.isfinite(lim):
            # the defect bound settles below every level above lim * kappa
            limsup = lim * kappa
    if verdict_only and limsup is not None and limsup < min(levels):
        return levels, None, None, None, _CONVERGES
    support = _kept(x, _shifted_support)

    def bound_sets(prod, scale, *where):
        """The threshold sets of prod * scale at the asked levels, each
        intersected with the sets ``where``; None where prod * scale has a
        coefficient or value past the float range, which no family holds."""
        try:
            scaled = seq_scale(prod, scale)
        except SeqConstructionError:
            return None
        restricted = {}  # each threshold set intersected once

        def restrict(s):
            if s not in restricted:
                restricted[s] = canonicalize(Intersection((*where, s)))
            return restricted[s]

        return lambda ls: [None if s is None else restrict(s)
                           for s in threshold_levels(scaled, ls, horizon)]

    over_sets = under_sets = None
    known = {}  # the support's class, once asked
    if kappa is not None and (lim is not None or prod_hi is not None):
        def over_sets(ls):
            prod = seq_mul(amp, sys.target) if prod_hi is None else prod_hi
            sets = bound_sets(prod, kappa, support)
            return [None] * len(ls) if sets is None else sets(ls)

        if verdict_only:  # the limsup bound leaves a level open
            known[support] = classify_set(support, filt)
            if known[support] == SetClass.NEGLIGIBLE:
                return levels, None, None, None, _CONVERGES
    if kappa is not None:
        def under_sets(ls):
            c_lower, lower_on = _kept(sys, _defect_bound_seqs)
            prod_lo = None if c_lower is None else seq_mul(amp, c_lower)
            sets = None if prod_lo is None else bound_sets(prod_lo, 1.0 / kappa, support, lower_on)
            return [None] * len(ls) if sets is None else sets(ls)
    return levels, *epsilon_table(filt, levels, over_sets, under_sets, limsup, classes=known)
