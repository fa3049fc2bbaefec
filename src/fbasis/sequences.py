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
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union as TUnion

import numpy as np

from .natset import (
    Complement,
    Finite,
    Intersection,
    Range,
    SetExpr,
    Union,
    is_certainly_finite,
    member,
)

Number = TUnion[Fraction, float]


class SeqConstructionError(ValueError):
    """A sequence violated its structural invariants."""


class DomainError(ValueError):
    """An argument left the domain a construction requires."""


def _as_number(x) -> Number:
    if isinstance(x, (Fraction, int)):
        return Fraction(x)
    return float(x)


def exact_root(value: Fraction, k: int) -> Optional[Fraction]:
    """The exact k-th root of a positive rational, or None."""
    if k == 1:
        return value
    num = _int_root(value.numerator, k)
    den = _int_root(value.denominator, k)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _int_root(v: int, k: int) -> Optional[int]:
    if v < 0:
        return None
    r = round(v ** (1.0 / k))
    for c in (r - 1, r, r + 1):
        if c >= 0 and c ** k == v:
            return c
    return None


def exact_pow(base: Fraction, exponent: Fraction) -> Optional[Fraction]:
    """base**exponent as an exact rational when that is possible."""
    base = Fraction(base)
    exponent = Fraction(exponent)
    if exponent == 0:
        return Fraction(1)
    neg = exponent < 0
    exponent = abs(exponent)
    root = exact_root(base, exponent.denominator)
    if root is None:
        return None
    out = root ** exponent.numerator
    return 1 / out if neg else out


def power(base: Fraction, exponent: Fraction) -> Number:
    out = exact_pow(Fraction(base), Fraction(exponent))
    if out is not None:
        return out
    return float(base) ** float(exponent)


# ---------------------------------------------------------------------------
# sequence trees


class ScalarSeq:
    """Base class for strictly positive sequences indexed from 1."""

    __slots__ = ()

    def value_at(self, n: int) -> Number:
        raise NotImplementedError

    def to_text(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:  # pragma: no cover
        return self.to_text()


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class PowerLog(ScalarSeq):
    """c * n**beta * ln(n+1)**gamma."""

    c: Number
    beta: Fraction
    gamma: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "c", _as_number(self.c))
        object.__setattr__(self, "beta", Fraction(self.beta))
        object.__setattr__(self, "gamma", Fraction(self.gamma))
        if self.c <= 0:
            raise SeqConstructionError("leading coefficient must be positive")

    def value_at(self, n):
        if self.gamma == 0 and isinstance(self.c, Fraction):
            p = exact_pow(Fraction(n), self.beta)
            if p is not None:
                return self.c * p
        out = float(self.c) * float(n) ** float(self.beta)
        if self.gamma != 0:
            out *= math.log(n + 1) ** float(self.gamma)
        return out

    def to_text(self):
        if self.gamma == 0:
            return f"pow({_num_text(self.c)},{_frac_text(self.beta)})"
        return f"powlog({_num_text(self.c)},{_frac_text(self.beta)},{_frac_text(self.gamma)})"


@dataclass(frozen=True)
class ExplicitPrefix(ScalarSeq):
    values: tuple[Number, ...]
    tail: ScalarSeq

    def __post_init__(self):
        vals = tuple(_as_number(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if any(v <= 0 or (isinstance(v, float) and not math.isfinite(v)) for v in vals):
            raise SeqConstructionError("prefix values must be finite and positive")

    def value_at(self, n):
        if n <= len(self.values):
            return self.values[n - 1]
        return self.tail.value_at(n)

    def to_text(self):
        body = ",".join(_num_text(v) for v in self.values)
        return f"prefix[{body}]:{self.tail.to_text()}"


@dataclass(frozen=True)
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
    if isinstance(x, Fraction):
        return _frac_text(x)
    # floats print as their exact binary value so the text re-parses to
    # the same number
    return _frac_text(Fraction(float(x)))


def _frac_text(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# evaluation


def eval_at(a: ScalarSeq, n: int) -> Number:
    """Value of the sequence at index n >= 1."""
    if n < 1:
        raise DomainError("indices start at 1")
    return a.value_at(n)


def eval_vector(a, horizon: int) -> np.ndarray:
    """Float values at 1..horizon, vectorized for the symbolic family."""
    n = np.arange(1, horizon + 1, dtype=float)
    if isinstance(a, Constant):
        return np.full(horizon, float(a.c))
    if isinstance(a, PowerLog):
        out = float(a.c) * n ** float(a.beta)
        if a.gamma != 0:
            out *= np.log(n + 1) ** float(a.gamma)
        return out
    if isinstance(a, ExplicitPrefix):
        out = eval_vector(a.tail, horizon)
        k = min(len(a.values), horizon)
        out[:k] = [float(v) for v in a.values[:k]]
        return out
    if isinstance(a, Piecewise):
        out = np.zeros(horizon)
        for s, seq in a.pieces:
            m = s.mask(horizon)
            out[m] = eval_vector(seq, horizon)[m]
        return out
    if isinstance(a, SpikeSeq):
        out = eval_vector(a.amplitude, horizon)
        return np.where(a.support.mask(horizon), out, 0.0)
    return np.array([float(a.value_at(int(k))) for k in range(1, horizon + 1)])


# ---------------------------------------------------------------------------
# signed sequences for limit questions


@dataclass(frozen=True)
class SpikeSeq:
    """amplitude(n) on the support set, zero elsewhere."""

    support: SetExpr
    amplitude: ScalarSeq

    def value_at(self, n: int) -> Optional[Number]:
        v = member(n, self.support)
        if v is None:
            return None
        return self.amplitude.value_at(n) if v else Fraction(0)

    def to_text(self) -> str:
        return f"spike({self.support.to_text()}; {self.amplitude.to_text()})"


# ---------------------------------------------------------------------------
# symbolic structure
#
# A "tail form" normalizes a sequence to the canonical family on a final
# segment: value(n) = c * n**beta * ln(n+1)**gamma for n >= start, with
# the finitely many earlier values listed explicitly.


@dataclass(frozen=True)
class TailForm:
    c: Number
    beta: Fraction
    gamma: Fraction
    start: int
    head: tuple[tuple[int, Number], ...] = ()

    def value_at(self, n: int) -> Number:
        for i, v in self.head:
            if i == n:
                return v
        if self.gamma == 0 and isinstance(self.c, Fraction):
            p = exact_pow(Fraction(n), self.beta)
            if p is not None:
                return self.c * p
        out = float(self.c) * float(n) ** float(self.beta)
        if self.gamma != 0:
            out *= math.log(n + 1) ** float(self.gamma)
        return out


def tail_form(a: ScalarSeq) -> Optional[TailForm]:
    """Canonical single-piece form, or None (e.g. for genuine piecewise)."""
    if isinstance(a, Constant):
        return TailForm(a.c, Fraction(0), Fraction(0), 1)
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
    from .natset import NATURALS

    return [(NATURALS, f)]


def seq_pow(a: ScalarSeq, e: Fraction) -> ScalarSeq:
    """Pointwise power a**e, staying in the symbolic family."""
    e = Fraction(e)
    if isinstance(a, Constant):
        return Constant(power(a.c, e) if isinstance(a.c, Fraction) else float(a.c) ** float(e))
    if isinstance(a, PowerLog):
        c = power(a.c, e) if isinstance(a.c, Fraction) else float(a.c) ** float(e)
        return PowerLog(c, a.beta * e, a.gamma * e)
    if isinstance(a, ExplicitPrefix):
        vals = tuple(
            power(v, e) if isinstance(v, Fraction) else float(v) ** float(e) for v in a.values
        )
        return ExplicitPrefix(vals, seq_pow(a.tail, e))
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
        pieces = []
        for s, q in a.pieces:
            m = seq_mul(q, b)
            if m is None:
                return None
            pieces.append((s, m))
        return Piecewise(tuple(pieces))
    if isinstance(b, Piecewise):
        return seq_mul(b, a)
    if isinstance(a, ExplicitPrefix) or isinstance(b, ExplicitPrefix):
        fa, fb = tail_form(a), tail_form(b)
        if fa is None or fb is None:
            return None
        k = max([0] + [i for i, _ in fa.head] + [i for i, _ in fb.head])
        vals = tuple(_mul(a.value_at(i), b.value_at(i)) for i in range(1, k + 1))
        tail = seq_mul(_family_of(fa), _family_of(fb))
        if tail is None:
            return None
        return ExplicitPrefix(vals, tail) if vals else tail
    fa, fb = tail_form(a), tail_form(b)
    if fa is None or fb is None:
        return None
    c = _mul(fa.c, fb.c)
    beta = fa.beta + fb.beta
    gamma = fa.gamma + fb.gamma
    if beta == 0 and gamma == 0:
        return Constant(c)
    return PowerLog(c, beta, gamma)


def _family_of(f: TailForm) -> ScalarSeq:
    if f.beta == 0 and f.gamma == 0:
        return Constant(f.c)
    return PowerLog(f.c, f.beta, f.gamma)


def _mul(x: Number, y: Number) -> Number:
    if isinstance(x, Fraction) and isinstance(y, Fraction):
        return x * y
    return float(x) * float(y)


# ---------------------------------------------------------------------------
# symbolic predicates


def is_bounded(a) -> Optional[bool]:
    """Symbolic boundedness; None when the family cannot decide."""
    if isinstance(a, Constant):
        return True
    if isinstance(a, PowerLog):
        if a.beta < 0:
            return True
        if a.beta == 0:
            return a.gamma <= 0
        return False
    if isinstance(a, ExplicitPrefix):
        return is_bounded(a.tail)
    if isinstance(a, Piecewise):
        verdicts = []
        for s, q in a.pieces:
            if is_certainly_finite(s):
                continue
            v = is_bounded(q)
            if v is False:
                from .natset import is_certainly_infinite

                if is_certainly_infinite(s):
                    return False
                return None
            verdicts.append(v)
        if all(v is True for v in verdicts):
            return True
        return None
    return None


def is_eventually_nondecreasing(a) -> Optional[bool]:
    if isinstance(a, Constant):
        return True
    if isinstance(a, PowerLog):
        if a.beta > 0:
            return True
        if a.beta == 0:
            return a.gamma >= 0
        return False
    if isinstance(a, ExplicitPrefix):
        return is_eventually_nondecreasing(a.tail)
    return None


def limit_value(a) -> Optional[float]:
    """The limit of the sequence when the family decides it.

    Returns math.inf for unbounded growth, 0.0 for decay, the constant
    for flat families, None when undecided.
    """
    f = tail_form(a)
    if f is None:
        return None
    if f.beta > 0 or (f.beta == 0 and f.gamma > 0):
        return math.inf
    if f.beta < 0 or (f.beta == 0 and f.gamma < 0):
        return 0.0
    return float(f.c)


def compare_pointwise(a: ScalarSeq, b: ScalarSeq) -> Optional[bool]:
    """True when a(n) <= C * b(n) for some constant C, decided symbolically."""
    fa, fb = tail_form(a), tail_form(b)
    if fa is None or fb is None:
        return None
    if fa.beta != fb.beta:
        return fa.beta < fb.beta
    if fa.gamma != fb.gamma:
        return fa.gamma < fb.gamma
    return True


# ---------------------------------------------------------------------------
# threshold sets


def _monotone_start(f: TailForm) -> Optional[int]:
    """An index from which the family part is provably monotone."""
    if f.beta == 0 or f.gamma == 0 or (f.beta > 0) == (f.gamma > 0):
        return f.start
    ratio = abs(float(f.gamma) / float(f.beta))
    n0 = math.exp(ratio)
    if n0 > 10 ** 12:
        return None
    return max(f.start, int(math.ceil(n0)) + 1)


def _eventual_direction(f: TailForm) -> int:
    """-1 decreasing, 0 constant, +1 increasing (beyond _monotone_start)."""
    if f.beta != 0:
        return 1 if f.beta > 0 else -1
    if f.gamma != 0:
        return 1 if f.gamma > 0 else -1
    return 0


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
        from .natset import NATURALS

        return NATURALS
    n0 = _monotone_start(f)
    if n0 is None or n0 > horizon:
        return None
    scan_to = min(max(n0, f.start, max([1] + [i for i, _ in f.head])), horizon)
    hits = [n for n in range(1, scan_to + 1) if float(a.value_at(n)) >= t]
    direction = _eventual_direction(f)
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


def _first_crossing(a: ScalarSeq, t: float, lo: int, horizon: int, upward: bool) -> Optional[int]:
    """Smallest n > lo hitting the condition; the condition is monotone there."""

    def hit(n):
        v = float(a.value_at(n))
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


def _assemble(hits: list[int], tail: Optional[SetExpr]) -> SetExpr:
    hits = sorted(set(hits))
    if tail is None:
        return Finite(tuple(hits))
    # absorb a trailing run of hits that abuts the range start
    while hits and hits[-1] + 1 == tail.lo:
        tail = Range(hits.pop(), tail.hi)
    if not hits:
        if tail.lo == 1 and tail.hi is None:
            from .natset import NATURALS

            return NATURALS
        return tail
    return Union((Finite(tuple(hits)), tail))
