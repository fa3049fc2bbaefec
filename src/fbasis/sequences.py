"""Symbolic positive scalar sequences.

The supported family is c * n**beta * ln(n+1)**gamma together with
constants, explicit finite prefixes over a symbolic tail, and piecewise
combinations over provably disjoint covering sets.  ln(n+1) is used
instead of ln(n) so that n = 1 is in-domain.

Evaluation is exact rational whenever the coefficient and the power of n
are (for example sqrt at perfect squares); otherwise binary64.  The
module also provides the symbolic predicates the rest of the package
leans on: boundedness, eventual monotonicity, pointwise comparison, and
threshold sets {n : a_n >= t} as set expressions.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import chain, starmap
from typing import Optional, Union as TUnion

from ._lazy_numpy import np
from ._record import record
from .natset import (
    DEFAULT_HORIZON,
    NATURALS,
    Complement,
    Finite,
    Intersection,
    Range,
    SetExpr,
    Union,
    _as_fraction,
    is_certainly_finite,
    is_certainly_infinite,
    member,
)
from .reports import rational_text

Number = TUnion[Fraction, float]
_ZERO = Fraction(0)


class SeqConstructionError(ValueError):
    """A sequence violated its structural invariants."""


class DomainError(ValueError):
    """An argument left the domain a construction requires."""


def _as_number(x) -> Number:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return float(x)


def _as_float(x) -> float:
    """float(x), bit for bit.  For a Fraction it is one integer division of
    its two slots, the division float(Fraction) makes, without that call's
    Python frame and property reads; so it raises OverflowError exactly
    where float(x) does."""
    return x._numerator / x._denominator if type(x) is Fraction else float(x)


def exact_root(value: Fraction, k: int) -> Optional[Fraction]:
    """The exact k-th root of a positive rational, or None."""
    if k == 1:
        return value
    num = _int_root(value.numerator, k)
    if num is None:
        return None
    den = _int_root(value.denominator, k)
    return None if den is None else _coprime(num, den)  # roots of a coprime pair are coprime


# The squares modulo 64, 63, 65 and 11 as bit masks, as in GMP's
# mpz_perfect_square_p: a number that is no square modulo one of them is no
# square, which rejects all but about 1 in 120 non-squares without an isqrt.
_SQUARE_MASKS = tuple((m, sum(1 << r for r in {i * i % m for i in range(m)}))
                      for m in (64, 63, 65, 11))


def _int_root(v: int, k: int) -> Optional[int]:
    """The exact integer k-th root of v, or None; integer arithmetic only, so
    any size of v works (Newton's iteration from above, isqrt at k = 2)."""
    if v < 2:
        return v if v >= 0 else None
    if k >= v.bit_length():  # 1 < v < 2**k: no integer root
        return None
    if k == 2:
        residue = v % (64 * 63 * 65 * 11)
        for m, mask in _SQUARE_MASKS:
            if not mask >> residue % m & 1:
                return None
        r = math.isqrt(v)
    else:
        r = 1 << -(-v.bit_length() // k)  # above the root
        while True:
            s = ((k - 1) * r + v // r ** (k - 1)) // k
            if s >= r:
                break
            r = s
    return r if r ** k == v else None


def _coprime(num: int, den: int) -> Fraction:
    """The Fraction num / den, set through its two slots with no gcd.  The
    caller guarantees what Fraction keeps: num and den coprime, den > 0."""
    out = object.__new__(Fraction)
    out._numerator, out._denominator = num, den
    return out


def exact_pow(base: Fraction, exponent: Fraction) -> Optional[Fraction]:
    """base**exponent as an exact rational when that is possible."""
    exponent = _as_fraction(exponent)
    if exponent == 0:
        return Fraction(1)
    root = exact_root(_as_fraction(base), exponent.denominator)
    return None if root is None else root ** exponent.numerator


# ---------------------------------------------------------------------------
# the float range: +inf and 0.0 mean a value past it, and nothing else

_LN_FLOAT_MAX = math.log(sys.float_info.max)  # e**x is finite iff x <= this


def ln(x: Number) -> float:
    """ln of a positive rational or float, which may lie past the float
    range; -inf or +inf for a float that saturated to 0.0 or +inf."""
    if isinstance(x, float) and not 0.0 < x < math.inf:
        return -math.inf if x == 0.0 else math.inf
    x = _as_fraction(x)
    return math.log(x.numerator) - math.log(x.denominator)


def power_log_ln(c: Number, beta: Fraction, gamma: Fraction, n: Number) -> float:
    """ln of c * n**beta * ln(n+1)**gamma for any positive coefficient, the
    scalar twin of ``TailForm.family_logs``; any positive n at gamma = 0."""
    out = _as_float(beta) * ln(n) + ln(c)
    if gamma != 0:
        out += _as_float(gamma) * math.log(math.log(n + 1))
    return out


def to_float(c: Number, beta=0, gamma=0, n: Number = 1) -> float:
    """c * n**beta * ln(n+1)**gamma in binary64, by default c itself: the
    direct float product of ``_as_float``'s conversions where it is finite and
    nonzero, else e to its log, so +inf or 0.0 only where the value lies past
    the float range."""
    try:
        out = _as_float(c) * _as_float(n) ** _as_float(beta)
        if gamma != 0:
            out *= math.log(n + 1) ** _as_float(gamma)
    except OverflowError:  # the float of a rational, or a power, past the range
        out = math.inf
    if 0.0 < out < math.inf:
        return out
    log = power_log_ln(c, beta, gamma, n)
    return math.exp(log) if log <= _LN_FLOAT_MAX else math.inf


def power_log_at(c: Number, beta: Fraction, gamma: Fraction, n: int) -> Number:
    """c * n**beta * ln(n+1)**gamma: exact when gamma = 0, c is rational and
    n**beta is; binary64 otherwise."""
    if gamma == 0 and isinstance(c, Fraction):
        # n**beta = r**k with r = n**(1/d): an int n's root is an integer one
        k, d = beta.numerator, beta.denominator
        if d == 1 and k >= 0 and isinstance(n, int):  # c * m, m = n**k, reduced by gcd(m, c.den)
            g = math.gcd(m := n ** k, c.denominator)
            return _coprime(c.numerator * (m // g), c.denominator // g)
        r = n if d == 1 else _int_root(n, d) if isinstance(n, int) and n >= 1 else exact_root(
            _as_fraction(n), d)
        if r is not None:
            return c * r ** k if k >= 0 else c / r ** -k
    return to_float(c, beta, gamma, n)


def power(x: Number, e: Fraction) -> Number:
    """x**e: exact for a rational x where that is possible, else binary64."""
    if isinstance(x, Fraction):
        out = exact_pow(x, e)
        if out is not None:
            return out
    out = to_float(1, e, 0, x)
    if not 0.0 < out < math.inf:
        raise DomainError("a power of a coefficient lies beyond the float range")
    return out


# ---------------------------------------------------------------------------
# sequence trees


class ScalarSeq:
    """Base class for strictly positive sequences indexed from 1."""

    __slots__ = ()

    def value_at(self, n: int) -> Number:
        raise NotImplementedError

    def to_text(self) -> str:
        raise NotImplementedError


@record
class Constant(ScalarSeq):
    c: Number

    def __post_init__(self):
        object.__setattr__(self, "c", _as_number(self.c))
        if self.c <= 0:
            raise SeqConstructionError("constant sequences must be positive")

    def value_at(self, n):
        return self.c

    def to_text(self):
        return f"const({_num_text(self.c)})"


@record
class PowerLog(ScalarSeq):
    """c * n**beta * ln(n+1)**gamma."""

    c: Number
    beta: Fraction
    gamma: Fraction = _ZERO

    def __post_init__(self):
        object.__setattr__(self, "c", _as_number(self.c))
        object.__setattr__(self, "beta", _as_fraction(self.beta))
        object.__setattr__(self, "gamma", _as_fraction(self.gamma))
        if self.c <= 0:
            raise SeqConstructionError("leading coefficient must be positive")

    def value_at(self, n):
        return power_log_at(self.c, self.beta, self.gamma, n)

    def to_text(self):
        if self.gamma == 0:
            return f"pow({_num_text(self.c)},{rational_text(self.beta)})"
        return f"powlog({_num_text(self.c)},{rational_text(self.beta)},{rational_text(self.gamma)})"


@record
class ExplicitPrefix(ScalarSeq):
    values: tuple[Number, ...]
    tail: ScalarSeq

    def __post_init__(self):
        vals = tuple(_as_number(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not all(0 < v < math.inf for v in vals):
            raise SeqConstructionError("prefix values must be finite and positive")

    def value_at(self, n):
        if n <= len(self.values):
            return self.values[n - 1]
        return self.tail.value_at(n)

    def to_text(self):
        body = ",".join(_num_text(v) for v in self.values)
        return f"prefix[{body}]:{self.tail.to_text()}"


@record
class Piecewise(ScalarSeq):
    pieces: tuple[tuple[SetExpr, ScalarSeq], ...]

    def __post_init__(self):
        validate_partition(tuple(s for s, _ in self.pieces))

    def value_at(self, n):
        for s, seq in self.pieces:
            v = member(n, s)
            if v is True:
                return seq.value_at(n)
            if v is None:
                raise DomainError(f"piece membership undecidable at n={n}")
        raise DomainError(f"no piece owns n={n}")

    def to_text(self):
        body = "; ".join(f"{s.to_text()} => {q.to_text()}" for s, q in self.pieces)
        return "piece{%s}" % body


_PARTITION_CHECK_CAP = 10 ** 5


def validate_partition(sets: tuple[SetExpr, ...]) -> None:
    """Reject piece sets that are not provably disjoint and covering."""
    if not sets:
        raise SeqConstructionError("piecewise needs at least one piece")
    if len(sets) == 2 and (sets[1] == Complement(sets[0]) or sets[0] == Complement(sets[1])):
        return  # X and !X: disjoint and covering, whatever X is
    slack = max(s.slack_bound() for s in sets)
    if slack > _PARTITION_CHECK_CAP:
        raise SeqConstructionError("piece sets too irregular to verify")
    horizon = max(64, min(_PARTITION_CHECK_CAP, max(slack, 1) * 2))
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            overlap = Intersection((sets[i], sets[j]))
            if not is_certainly_finite(overlap):
                raise SeqConstructionError("piece sets not provably disjoint")
            if overlap.mask(horizon).any():
                raise SeqConstructionError("piece sets overlap")
    gap = Complement(Union(sets))
    if not is_certainly_finite(gap):
        raise SeqConstructionError("piece sets not provably covering")
    if gap.mask(horizon).any():
        raise SeqConstructionError("piece sets leave a gap")


def _num_text(x: Number) -> str:
    # floats print as their exact binary value so the text re-parses to
    # the same number
    return rational_text(_as_fraction(x))


# ---------------------------------------------------------------------------
# evaluation


def eval_at(a: ScalarSeq, n: int) -> Number:
    """Value of the sequence at index n >= 1."""
    if n < 1:
        raise DomainError("indices start at 1")
    return a.value_at(n)


def eval_vector(a: ScalarSeq, horizon: int, start: int = 0) -> np.ndarray:
    """Float values at start+1..horizon: ``eval_at_indices`` on a window."""
    return eval_at_indices(a, np.arange(start + 1, horizon + 1))


def eval_at_indices(a: ScalarSeq, n: np.ndarray, logs: bool = False) -> np.ndarray:
    """Float values at the ascending indices n >= 1, an integer array, or
    with ``logs`` their ln, finite where a value lies past the float range.
    Each piece is evaluated only at its own members, and each entry depends
    on its index alone, so any window or subset of indices gets the bytes
    that one evaluation from 1 gives there."""
    if isinstance(a, Piecewise):
        out = np.zeros(n.size)
        if n.size:
            for s, seq in a.pieces:
                own = s.mask(int(n[-1]))[n - 1]
                out[own] = eval_at_indices(seq, n[own], logs)
        return out
    if isinstance(a, ExplicitPrefix):
        out = eval_at_indices(a.tail, n, logs)
        k = int(np.searchsorted(n, len(a.values), side="right"))
        out[:k] = [(ln if logs else to_float)(a.values[i - 1]) for i in n[:k].tolist()]
        return out
    if logs:  # a constant or power-log form, which has no head
        return tail_form(a).family_logs(n.astype(float))
    return tail_form(a).values(n)


# ---------------------------------------------------------------------------
# signed sequences for limit questions


@record
class SpikeSeq:
    """amplitude(n) on the support set, zero elsewhere."""

    support: SetExpr
    amplitude: ScalarSeq


# ---------------------------------------------------------------------------
# symbolic structure
#
# A "tail form" normalizes a sequence to the canonical family on a final
# segment: value(n) = c * n**beta * ln(n+1)**gamma for n >= start, with
# the finitely many earlier values listed explicitly.


@record
class TailForm:
    c: Number
    beta: Fraction
    gamma: Fraction
    start: int
    head: tuple[tuple[int, Number], ...] = ()

    @property
    def growth(self) -> int:
        """The sign of (beta, gamma) against (0, 0) in lexicographic order: +1,
        -1 or 0 as the family tends to +inf, to 0 or is constant.  On Hardy's
        scale (G. H. Hardy, Orders of Infinity, 1910) the families are ordered
        by growth as their pairs (beta, gamma) are in this order."""
        lead = self.beta.numerator or self.gamma.numerator  # the first nonzero of the pair
        return (lead > 0) - (lead < 0)

    def value_at(self, n: int) -> Number:
        for i, v in self.head:
            if i == n:
                return v
        return power_log_at(self.c, self.beta, self.gamma, n)

    def vector(self, horizon: int) -> np.ndarray:
        """Float values at 1..horizon, the head entries applied."""
        return self.values(np.arange(1, horizon + 1))

    def values(self, n: np.ndarray) -> np.ndarray:
        """Float values at the ascending indices n, an integer array, the
        head entries applied."""
        x = n.astype(float)
        c = to_float(self.c)
        with np.errstate(over="ignore", invalid="ignore"):
            out = x ** _as_float(self.beta)
            out *= c
            if self.gamma != 0:
                # in place: allocating fresh arrays this long costs more than the log
                x += 1
                np.log(x, out=x)
                x **= _as_float(self.gamma)
                out *= x
            # a factor past the float range leaves inf or nan; such an entry
            # is taken from its logarithm, +inf only if the value is past too
            bad = np.flatnonzero(~np.isfinite(out))
            if bad.size:
                out[bad] = np.exp(self.family_logs(n[bad].astype(float)))
        for i, v in self.head:
            j = int(np.searchsorted(n, i))
            if j < n.size and n[j] == i:
                out[j] = to_float(v)
        return out

    def family_logs(self, n: np.ndarray) -> np.ndarray:
        """ln of the family values c * n**beta * ln(n+1)**gamma at the float
        indices n, head entries not applied; finite for any coefficient."""
        logs = _as_float(self.beta) * np.log(n)
        logs += ln(self.c)
        if self.gamma != 0:
            logs += _as_float(self.gamma) * np.log(np.log(n + 1))
        return logs


def tail_form(a: ScalarSeq) -> Optional[TailForm]:
    """Canonical single-piece form, or None (e.g. for genuine piecewise)."""
    if isinstance(a, Constant):
        return TailForm(a.c, _ZERO, _ZERO, 1)
    if isinstance(a, PowerLog):
        return TailForm(a.c, a.beta, a.gamma, 1)
    if isinstance(a, ExplicitPrefix):
        inner = tail_form(a.tail)
        if inner is None:
            return None
        k = len(a.values)
        head = tuple((i + 1, a.values[i]) for i in range(k))
        head = head + tuple((i, v) for i, v in inner.head if i > k)
        return TailForm(inner.c, inner.beta, inner.gamma, max(inner.start, k + 1), head)
    if isinstance(a, Piecewise):
        if len(a.pieces) == 1:
            return tail_form(a.pieces[0][1])
        return None
    return None


def pieces_with_forms(a: ScalarSeq) -> Optional[list[tuple[SetExpr, TailForm]]]:
    """Decompose into (set, tail form) pieces covering the naturals."""
    if isinstance(a, Piecewise):
        out = []
        for s, seq in a.pieces:
            f = tail_form(seq)
            if f is None:
                return None
            out.append((s, f))
        return out
    f = tail_form(a)
    if f is None:
        return None
    return [(NATURALS, f)]


def seq_pow(a: ScalarSeq, e: Fraction) -> ScalarSeq:
    """Pointwise power a**e, staying in the symbolic family."""
    e = _as_fraction(e)
    if abs(e.numerator) >= e.denominator << 1024:  # |e| >= 2**1024, past the largest float
        raise DomainError("the exponent lies beyond the float range")
    if isinstance(a, Constant):
        return Constant(power(a.c, e))
    if isinstance(a, PowerLog):
        return PowerLog(power(a.c, e), a.beta * e, a.gamma * e)
    if isinstance(a, ExplicitPrefix):
        return ExplicitPrefix(tuple(power(v, e) for v in a.values), seq_pow(a.tail, e))
    if isinstance(a, Piecewise):
        return Piecewise(tuple((s, seq_pow(q, e)) for s, q in a.pieces))
    raise SeqConstructionError(f"cannot exponentiate {type(a).__name__}")


def seq_scale(a: ScalarSeq, k: Number) -> ScalarSeq:
    k = _as_number(k)
    if k <= 0:
        raise DomainError("scale factor must be positive")
    if isinstance(a, Constant):
        return Constant(_mul(a.c, k))
    if isinstance(a, PowerLog):
        return PowerLog(_mul(a.c, k), a.beta, a.gamma)
    if isinstance(a, ExplicitPrefix):
        return ExplicitPrefix(tuple(_mul(v, k) for v in a.values), seq_scale(a.tail, k))
    if isinstance(a, Piecewise):
        return Piecewise(tuple((s, seq_scale(q, k)) for s, q in a.pieces))
    raise SeqConstructionError(f"cannot scale {type(a).__name__}")


def seq_mul(a: ScalarSeq, b: ScalarSeq) -> Optional[ScalarSeq]:
    """Pointwise product when it stays in the family, else None."""
    if isinstance(a, Piecewise):
        pieces = tuple((s, seq_mul(q, b)) for s, q in a.pieces)
        return None if any(m is None for _, m in pieces) else Piecewise(pieces)
    if isinstance(b, Piecewise):
        return seq_mul(b, a)
    if isinstance(a, ExplicitPrefix) or isinstance(b, ExplicitPrefix):
        fa, fb = tail_form(a), tail_form(b)
        if fa is None or fb is None:
            return None
        k = max([0] + [i for i, _ in fa.head] + [i for i, _ in fb.head])
        vals = tuple(_mul(a.value_at(i), b.value_at(i)) for i in range(1, k + 1))
        tail = seq_mul(_family_of(fa), _family_of(fb))
        if tail is None or not all(0 < v < math.inf for v in vals):
            return None  # a value past the float range cannot be listed
        return ExplicitPrefix(vals, tail) if vals else tail
    fa, fb = tail_form(a), tail_form(b)
    if fa is None or fb is None:
        return None
    c = _mul(fa.c, fb.c)
    if not 0 < c < math.inf:
        return None
    return _family_of(TailForm(c, fa.beta + fb.beta, fa.gamma + fb.gamma, 1))


def _family_of(f: TailForm) -> ScalarSeq:
    return PowerLog(f.c, f.beta, f.gamma) if f.growth else Constant(f.c)


def _mul(x: Number, y: Number) -> Number:
    """x * y: exact for two rationals, else the float of x * y**1."""
    if isinstance(x, Fraction) and isinstance(y, Fraction):
        return x * y
    return to_float(x, 1, 0, y)


# ---------------------------------------------------------------------------
# symbolic predicates


def is_bounded(a) -> Optional[bool]:
    """Symbolic boundedness; None when the family cannot decide."""
    if isinstance(a, ExplicitPrefix):
        return is_bounded(a.tail)
    if isinstance(a, Piecewise):
        verdicts = []
        for s, q in a.pieces:
            if is_certainly_finite(s):
                continue
            v = is_bounded(q)
            if v is False:
                if is_certainly_infinite(s):
                    return False
                return None
            verdicts.append(v)
        if all(v is True for v in verdicts):
            return True
        return None
    f = tail_form(a)
    return None if f is None else f.growth <= 0


def is_eventually_nondecreasing(a) -> Optional[bool]:
    if isinstance(a, ExplicitPrefix):
        return is_eventually_nondecreasing(a.tail)
    f = None if isinstance(a, Piecewise) else tail_form(a)
    return None if f is None else f.growth >= 0


def limit_value(a) -> Optional[float]:
    """The limit of the sequence when the family decides it.

    Returns math.inf for unbounded growth, 0.0 for decay, the constant
    for flat families, None when undecided.
    """
    f = tail_form(a)
    return None if f is None else _family_limit(f.c, f.growth)


def product_limit(fa: Optional[TailForm], fb: Optional[TailForm]) -> Optional[float]:
    """``limit_value(seq_mul(a, b))`` for sequences a and b of tail forms fa
    and fb, with no product built: the exponents add and the coefficients
    multiply.  None where either form is None, and, as ``seq_mul`` then
    builds no product or one with no tail form, where the coefficients'
    product or that of the two values at an index up to the larger head
    index lies outside (0, +inf)."""
    if fa is None or fb is None:
        return None
    c = _mul(fa.c, fb.c)
    if _past_range(c):
        return None
    if fa.head or fb.head:
        for i in range(1, max(i for i, _ in chain(fa.head, fb.head)) + 1):
            if _past_range(_mul(fa.value_at(i), fb.value_at(i))):
                return None
    return _family_limit(c, _sum_sign(fa.beta, fb.beta) or _sum_sign(fa.gamma, fb.gamma))


def _past_range(x: Number) -> bool:
    """Whether x, a product of two positive numbers, lies outside (0, +inf):
    only a float can, one that fell past the float range."""
    return isinstance(x, float) and not 0.0 < x < math.inf


def _sum_sign(x: Fraction, y: Fraction) -> int:
    """The sign of x + y, in integers, with no Fraction made."""
    s = x.numerator * y.denominator + y.numerator * x.denominator
    return (s > 0) - (s < 0)


def _family_limit(c: Number, sign: int) -> float:
    """The limit of c * n**beta * ln(n+1)**gamma, whose growth has the sign
    ``sign`` (``TailForm.growth``)."""
    return math.inf if sign > 0 else 0.0 if sign < 0 else to_float(c)


def compare_pointwise(a: ScalarSeq, b: ScalarSeq) -> Optional[bool]:
    """True when a(n) <= C * b(n) for some constant C, decided symbolically."""
    fa, fb = tail_form(a), tail_form(b)
    if fa is None or fb is None:
        return None
    return (fa.beta, fa.gamma) <= (fb.beta, fb.gamma)


# ---------------------------------------------------------------------------
# threshold sets


def _monotone_start(f: TailForm) -> Optional[int]:
    """An index from which the family part is provably monotone."""
    if f.beta == 0 or f.gamma == 0 or (f.beta > 0) == (f.gamma > 0):
        return f.start
    ratio = abs(f.gamma / f.beta)  # the turn lies at e**ratio
    if ratio > 12 * math.log(10):
        return None
    return max(f.start, int(math.ceil(math.exp(ratio))) + 1)


# Head scans shorter than this take value_at per index: the vector path's
# fixed cost (~30 us of numpy calls on a 2-vCPU x86 host) exceeds the loop's.
_VECTOR_SCAN_MIN = 16


def threshold_ge(a: ScalarSeq, t, horizon: int = DEFAULT_HORIZON) -> Optional[SetExpr]:
    """The set {n : a(n) >= t} as a SetExpr, or None if undecidable."""
    return threshold_levels(a, (t,), horizon)[0]


def threshold_levels(a: ScalarSeq, ts, horizon: int = DEFAULT_HORIZON) -> list[Optional[SetExpr]]:
    """The sets {n : a(n) >= t} for each threshold t in ts, each a SetExpr
    or None if undecidable.

    The head up to the provable monotonicity point is evaluated once for
    all thresholds and searched run by run (``_head_hits``); past it a
    single crossing is located per threshold, so each result is a finite
    list, a final segment, or a union of the two.
    """
    ts = [float(t) for t in ts]
    if isinstance(a, Piecewise):
        per_piece = [(s, threshold_levels(q, ts, horizon)) for s, q in a.pieces]
        return [None if any(inner[j] is None for _, inner in per_piece)
                else Union(tuple(Intersection((s, inner[j])) for s, inner in per_piece))
                for j in range(len(ts))]
    f = tail_form(a)
    if f is None:
        return [None] * len(ts)
    n0 = _monotone_start(f)
    if n0 is None or n0 > horizon:
        return [NATURALS if t <= 0 else None for t in ts]
    scan_to = min(max(n0, f.start, max([1] + [i for i, _ in f.head])), horizon)
    direction = f.growth  # beyond _monotone_start
    # the crossing search is logarithmic, so it may run far past the
    # enumeration horizon
    search_to = max(horizon, 2 ** 60)
    positive = [t for t in ts if not t <= 0]  # nan included: it hits nothing
    heads = iter(_head_hits(a, scan_to, positive) if positive else ())
    val0 = to_float(a.value_at(scan_to)) if positive else None
    out: list[Optional[SetExpr]] = []
    for t in ts:
        if t <= 0:
            out.append(NATURALS)
            continue
        hits = next(heads)
        if direction == 0:
            out.append(_assemble(hits, Range(scan_to + 1, None) if val0 >= t else None))
        elif direction > 0:
            # increasing without bound beyond scan_to: the first index past
            # it with a(n) >= t starts the tail
            cross = (scan_to + 1 if val0 >= t
                     else _first_crossing(a, t, scan_to, search_to, upward=True))
            out.append(None if cross is None else _assemble(hits, Range(cross, None)))
        else:
            # decreasing to zero beyond scan_to: the first index past it
            # with a(n) < t ends the tail
            cross = (scan_to + 1 if val0 < t
                     else _first_crossing(a, t, scan_to, search_to, upward=False))
            out.append(None if cross is None else _assemble(
                hits, Range(scan_to + 1, cross - 1) if cross - 1 > scan_to else None))
    return out


def _head_hits(a: ScalarSeq, scan_to: int, ts) -> list:
    """Per positive threshold t in ts, the n <= scan_to with a(n) >= t as
    ascending half-open intervals (lo, hi).  A head of fewer than
    ``_VECTOR_SCAN_MIN`` entries is value_at's; a longer one is one vector,
    split at the signs of its steps into maximal monotone runs (a power-log
    family has three at most, an explicit head value adds two at most).  In a
    run the entries within 1e-9 t of t, where the vector may differ from
    value_at, form one window, as fl(x - t) is monotone in x: one search per
    run finds each level's window twice as wide, and value_at decides them."""
    if scan_to < _VECTOR_SCAN_MIN:
        head = [to_float(a.value_at(n)) for n in range(1, scan_to + 1)]
        return [[(n, n + 1) for n, v in enumerate(head, start=1) if v >= t] for t in ts]
    head = eval_vector(a, scan_to)
    d = np.diff(head)  # inf - inf is nan there: a flat step
    nz = np.flatnonzero((d > 0) | (d < 0))
    rise = d[nz] > 0
    starts, last = [0], -2
    for k in (np.flatnonzero(rise[1:] != rise[:-1]) + 1).tolist():
        if k > last + 1:  # a turn ends its run, unless it is the run's first step
            starts.append(int(nz[k]) + 1)
            last = k
    lo, hi = np.array([(t - 2e-9 * t, t + 2e-9 * t) if t < math.inf else (-math.inf, math.inf)
                       for t in ts]).T
    out: list = [[] for _ in ts]
    for s, e in zip(starts, starts[1:] + [scan_to]):
        up = bool(head[e - 1] >= head[s])
        keys = head[s:e] if up else -head[s:e]
        w0 = np.searchsorted(keys, lo if up else -hi, "left").tolist()
        w1 = np.searchsorted(keys, hi if up else -lo, "right").tolist()
        for hits, t, i, j in zip(out, ts, w0, w1):
            if not up and i:
                hits.append((s + 1, s + i + 1))
            if j > i:
                w = head[s + i:s + j]
                hit = w >= t
                for k in np.flatnonzero(np.abs(w - t) <= 1e-9 * t).tolist():
                    hit[k] = to_float(a.value_at(s + i + k + 1)) >= t
                hits.extend((n, n + 1) for n in (np.flatnonzero(hit) + s + i + 1).tolist())
            if up and j < e - s:
                hits.append((s + j + 1, e + 1))
    return out


def _first_crossing(a: ScalarSeq, t: float, lo: int, horizon: int, upward: bool) -> Optional[int]:
    """Smallest n > lo hitting the condition; the condition is monotone there."""

    def hit(n):
        v = to_float(a.value_at(n))
        return v >= t if upward else v < t

    step = 1
    n = lo + 1
    last_miss = lo
    while True:
        if n > horizon:
            return None
        if hit(n):
            break
        last_miss = n
        if n == horizon:
            return None
        step *= 2
        n = min(horizon, n + step)
    lo_s, hi_s = last_miss, n
    while hi_s - lo_s > 1:
        mid = (lo_s + hi_s) // 2
        if hit(mid):
            hi_s = mid
        else:
            lo_s = mid
    return hi_s


def _assemble(hits, tail: Optional[Range]) -> SetExpr:
    """The hits, ascending half-open index intervals (lo, hi), joined with
    the tail range: the intervals that run up to the range's start are
    absorbed into it, and only the others are listed."""
    k = len(hits)
    if tail is not None:
        lo = tail.lo
        while k and hits[k - 1][1] == lo:
            k -= 1
            lo = hits[k][0]
        tail = Range(lo, tail.hi)
    listed = Finite(tuple(chain.from_iterable(starmap(range, hits[:k]))))
    if tail is None:
        return listed
    if not k:
        if tail.lo == 1 and tail.hi is None:
            return NATURALS
        return tail
    return Union((listed, tail))
