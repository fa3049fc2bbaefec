"""Finitely described subsets of the positive integers.

Sets are expression trees over structured atoms (finite lists, residue
classes, integer ranges, geometric index sets, sampled prefixes) closed
under union, intersection and complement.  Every atom except ``Sampled``
is fully decidable; ``Sampled`` only knows its membership up to an
explicit horizon, and queries past it are answered as inconclusive
rather than guessed.

Decision procedures (density, membership, prefix enumeration) work on a
sound abstract description of each set: an eventually periodic part
(residues modulo a common period) together with sparse zero-density
tokens, tracked as an under/over-approximation pair so that unknown
atoms degrade to honest bounds instead of wrong answers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Optional

from ._lazy_numpy import np
from ._record import record
from .reports import rational_text

DEFAULT_HORIZON = 10 ** 6

# Period cap for the eventually-periodic analysis; combinations whose
# lcm of moduli exceeds this degrade to inconclusive bounds.
_MAX_PERIOD = 10 ** 6


class HorizonExceeded(Exception):
    """A query needed information past an explicit horizon."""


class SetConstructionError(ValueError):
    """An atom violated its structural invariants."""


# ---------------------------------------------------------------------------
# expression trees


class SetExpr:
    """Base class for set expressions.  Instances are immutable."""

    __slots__ = ()

    # Subclasses added outside this module (witness sets) override the
    # hooks below; the core atoms are dispatched explicitly.

    def member_at(self, n: int) -> Optional[bool]:
        raise NotImplementedError

    def mask(self, horizon: int) -> np.ndarray:
        """Boolean membership mask for 1..horizon (index i is n = i + 1)."""
        raise NotImplementedError

    def desc_pair(self) -> "tuple[_Desc, _Desc]":
        """Sound (under, over) approximations, valid modulo finite sets."""
        raise NotImplementedError

    def slack_bound(self) -> int:
        """All finite discrepancies of desc_pair live in [1, slack_bound()]."""
        raise NotImplementedError

    def to_text(self) -> str:
        raise NotImplementedError

    def certified_weight_sum(self, w) -> "Optional[SumVerdict]":
        """A verdict on the sum of w over the set that the set certifies itself."""
        return None


class _KnownUpTo(SetExpr):
    """Membership known up to ``_known()`` (read after a scan, which may stop
    short of ``horizon``) from ``_members(limit)``, the ascending integer array
    of the members up to ``limit``.  Past it ``member_at`` answers None and
    ``mask`` raises."""

    __slots__ = ()

    def _known(self) -> int:
        return self.horizon

    def member_at(self, n):
        members = self._members(n) if n <= self._known() else None  # no scan past it
        return None if n > self._known() else n in members[-1:]

    def mask(self, horizon):
        members = self._members(horizon)
        if horizon > (known := self._known()):
            raise HorizonExceeded(f"membership only known up to {known}, asked for {horizon}")
        m = np.zeros(horizon + 1, dtype=bool)
        m[members] = True  # index n is member n: no shifted copy of the members
        return m[1:]


def _check_sorted(values: tuple, label: str) -> None:
    if any(v < 1 for v in values):
        raise SetConstructionError(f"{label} entries must be >= 1")
    if any(values[i] >= values[i + 1] for i in range(len(values) - 1)):
        raise SetConstructionError(f"{label} entries must be strictly increasing")


@record
class Finite(SetExpr):
    indices: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        _check_sorted(self.indices, "finite")

    def member_at(self, n):
        return n in self.indices

    def mask(self, horizon):
        m = np.zeros(horizon, dtype=bool)
        for i in self.indices:
            if i <= horizon:
                m[i - 1] = True
        return m

    def desc_pair(self):
        return _DESC_EMPTY, _DESC_EMPTY

    def slack_bound(self):
        return self.indices[-1] if self.indices else 0

    def to_text(self):
        return "finite{%s}" % ",".join(str(i) for i in self.indices)


@record
class CoFinite(SetExpr):
    excluded: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "excluded", tuple(int(i) for i in self.excluded))
        _check_sorted(self.excluded, "cofinite")

    def member_at(self, n):
        return n not in self.excluded

    def mask(self, horizon):
        m = np.ones(horizon, dtype=bool)
        for i in self.excluded:
            if i <= horizon:
                m[i - 1] = False
        return m

    def desc_pair(self):
        return _DESC_FULL, _DESC_FULL

    def slack_bound(self):
        return self.excluded[-1] if self.excluded else 0

    def to_text(self):
        return "cofinite{%s}" % ",".join(str(i) for i in self.excluded)


@record
class Residue(SetExpr):
    modulus: int
    residue: int

    def __post_init__(self):
        if self.modulus < 1:
            raise SetConstructionError("residue modulus must be >= 1")
        if not 0 <= self.residue < self.modulus:
            raise SetConstructionError("residue must satisfy 0 <= r < q")

    def member_at(self, n):
        return n % self.modulus == self.residue

    def mask(self, horizon):
        m = np.zeros(horizon, dtype=bool)
        start = self.residue if self.residue >= 1 else self.modulus
        m[start - 1 :: self.modulus] = True
        return m

    def desc_pair(self):
        d = _Desc(_EP(self.modulus, frozenset({self.residue})), frozenset(), frozenset())
        return d, d

    def slack_bound(self):
        return 0

    def to_text(self):
        return f"residue({self.modulus},{self.residue})"


@record
class Range(SetExpr):
    lo: int
    hi: Optional[int] = None  # inclusive; None means unbounded above

    def __post_init__(self):
        if self.lo < 1:
            raise SetConstructionError("range lower bound must be >= 1")
        if self.hi is not None and self.hi < self.lo:
            raise SetConstructionError("range upper bound below lower bound")

    def member_at(self, n):
        if n < self.lo:
            return False
        return True if self.hi is None else n <= self.hi

    def mask(self, horizon):
        m = np.zeros(horizon, dtype=bool)
        top = horizon if self.hi is None else min(self.hi, horizon)
        if self.lo <= top:
            m[self.lo - 1 : top] = True
        return m

    def desc_pair(self):
        d = _DESC_EMPTY if self.hi is not None else _DESC_FULL
        return d, d

    def slack_bound(self):
        return self.hi if self.hi is not None else self.lo

    def to_text(self):
        return f"range({self.lo},{'' if self.hi is None else self.hi})"


@record
class GeometricIndex(SetExpr):
    """The sparse set {floor(base**m) : m >= 1} for a rational base >= 2."""

    base: Fraction

    def __post_init__(self):
        object.__setattr__(self, "base", Fraction(self.base))
        if self.base < 2:
            raise SetConstructionError("geometric base must be >= 2")

    def elements(self) -> Iterator[int]:
        num, den = self.base.numerator, self.base.denominator
        pn, pd = num, den
        while True:
            yield pn // pd
            pn *= num
            pd *= den

    def element(self, m: int) -> int:
        """floor(base**m), exact."""
        return (self.base.numerator ** m) // (self.base.denominator ** m)

    def member_at(self, n):
        if n < self.element(1):
            return False
        # elements are strictly increasing, so only a local window matters
        m = max(1, int(math.log(n, float(self.base))) - 1)
        for k in range(m, m + 4):
            e = self.element(k)
            if e == n:
                return True
            if e > n:
                return False
        return False

    def mask(self, horizon):
        m = np.zeros(horizon, dtype=bool)
        for e in self.elements():
            if e > horizon:
                break
            m[e - 1] = True
        return m

    def desc_pair(self):
        d = _Desc(_EP_EMPTY, frozenset({self}), frozenset())
        return d, d

    def slack_bound(self):
        return 0

    def to_text(self):
        return f"geom({rational_text(self.base)})"


@record
class Sampled(_KnownUpTo):
    """Explicit membership known only up to ``horizon``."""

    members: frozenset[int]
    horizon: int

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(int(i) for i in self.members))
        if self.horizon < 1:
            raise SetConstructionError("sampled horizon must be >= 1")
        if any(i < 1 or i > self.horizon for i in self.members):
            raise SetConstructionError("sampled members must lie in [1, horizon]")

    def _members(self, limit):
        if "_sorted" not in self.__dict__:  # sorted once per set, on first use
            object.__setattr__(self, "_sorted", np.array(sorted(self.members), dtype=int))
        return self._sorted[: np.searchsorted(self._sorted, limit, side="right")]

    def desc_pair(self):
        return _DESC_EMPTY, _DESC_FULL

    def slack_bound(self):
        return self.horizon

    def to_text(self):
        body = ",".join(str(i) for i in sorted(self.members))
        return "sampled{%s;%d}" % (body, self.horizon)


@record
class Shifted(SetExpr):
    """{n >= 1 : n - offset in base}."""

    base: SetExpr
    offset: int

    def member_at(self, n):
        k = n - self.offset
        if k < 1:
            return False
        return self.base.member_at(k)

    def mask(self, horizon):
        need = horizon - self.offset
        m = np.zeros(horizon, dtype=bool)
        if need < 1:
            return m
        inner = self.base.mask(need)
        if self.offset >= 0:
            m[self.offset :] = inner[: horizon - self.offset]
        else:
            m[:] = inner[-self.offset : -self.offset + horizon]
        return m

    def desc_pair(self):
        lo, hi = self.base.desc_pair()
        return _shift_desc(lo, self.offset), _shift_desc(hi, self.offset)

    def slack_bound(self):
        return self.base.slack_bound() + abs(self.offset)

    def to_text(self):
        return f"shift({self.base.to_text()},{self.offset})"


@record
class Union(SetExpr):
    parts: tuple[SetExpr, ...]

    def member_at(self, n):
        saw_none = False
        for p in self.parts:
            v = p.member_at(n)
            if v is True:
                return True
            if v is None:
                saw_none = True
        return None if saw_none else False

    def mask(self, horizon):
        m = np.zeros(horizon, dtype=bool)
        for p in self.parts:
            m |= p.mask(horizon)
        return m

    def desc_pair(self):
        lo = hi = None
        for p in self.parts:
            plo, phi = p.desc_pair()
            lo = plo if lo is None else _desc_union_under(lo, plo)
            hi = phi if hi is None else _desc_union_over(hi, phi)
        if lo is None:
            return _DESC_EMPTY, _DESC_EMPTY
        return lo, hi

    def slack_bound(self):
        return max((p.slack_bound() for p in self.parts), default=0)

    def to_text(self):
        return " | ".join(
            f"({p.to_text()})" if isinstance(p, Union) else p.to_text() for p in self.parts
        )


@record
class Intersection(SetExpr):
    parts: tuple[SetExpr, ...]

    def member_at(self, n):
        saw_none = False
        for p in self.parts:
            v = p.member_at(n)
            if v is False:
                return False
            if v is None:
                saw_none = True
        return None if saw_none else True

    def mask(self, horizon):
        m = np.ones(horizon, dtype=bool)
        for p in self.parts:
            m &= p.mask(horizon)
        return m

    def desc_pair(self):
        lo = hi = None
        for p in self.parts:
            plo, phi = p.desc_pair()
            lo = plo if lo is None else _desc_intersect_under(lo, plo)
            hi = phi if hi is None else _desc_intersect_over(hi, phi)
        if lo is None:
            return _DESC_FULL, _DESC_FULL
        return lo, hi

    def slack_bound(self):
        return max((p.slack_bound() for p in self.parts), default=0)

    def to_text(self):
        out = []
        for p in self.parts:
            t = p.to_text()
            out.append(f"({t})" if isinstance(p, (Union, Intersection)) else t)
        return " & ".join(out)


@record
class Complement(SetExpr):
    inner: SetExpr

    def member_at(self, n):
        v = self.inner.member_at(n)
        return None if v is None else not v

    def mask(self, horizon):
        return ~self.inner.mask(horizon)

    def desc_pair(self):
        lo, hi = self.inner.desc_pair()
        return _desc_complement(hi), _desc_complement(lo)

    def slack_bound(self):
        return self.inner.slack_bound()

    def to_text(self):
        t = self.inner.to_text()
        if isinstance(self.inner, (Union, Intersection)):
            return f"!({t})"
        return f"!{t}"


NATURALS = CoFinite(())
EMPTY = Finite(())


# ---------------------------------------------------------------------------
# eventually periodic sets and the under/over description lattice


@record
class _EP:
    """An eventually periodic set: the residues mod ``modulus`` it occupies."""

    modulus: int
    residues: frozenset[int]

    def lift(self, modulus: int) -> "_EP":
        if modulus == self.modulus:
            return self
        k = modulus // self.modulus
        res = frozenset(r + j * self.modulus for r in self.residues for j in range(k))
        return _EP(modulus, res)

    def density(self) -> Fraction:
        return Fraction(len(self.residues), self.modulus)

    @property
    def is_empty(self) -> bool:
        return not self.residues

    @property
    def is_full(self) -> bool:
        return len(self.residues) == self.modulus


_EP_EMPTY = _EP(1, frozenset())
_EP_FULL = _EP(1, frozenset({0}))


def _ep_lcm(a: _EP, b: _EP) -> int:
    m = a.modulus * b.modulus // math.gcd(a.modulus, b.modulus)
    if m > _MAX_PERIOD:
        raise HorizonExceeded(f"period {m} exceeds the analysis cap")
    return m


def _ep_union(a: _EP, b: _EP) -> _EP:
    m = _ep_lcm(a, b)
    return _EP(m, a.lift(m).residues | b.lift(m).residues)


def _ep_intersect(a: _EP, b: _EP) -> _EP:
    m = _ep_lcm(a, b)
    return _EP(m, a.lift(m).residues & b.lift(m).residues)


def _ep_complement(a: _EP) -> _EP:
    return _EP(a.modulus, frozenset(range(a.modulus)) - a.residues)


def _ep_shift(a: _EP, offset: int) -> _EP:
    return _EP(a.modulus, frozenset((r + offset) % a.modulus for r in a.residues))


@record
class _Desc:
    """(ep union sparse ``plus`` tokens) minus sparse ``minus`` tokens, mod finite."""

    ep: _EP
    plus: frozenset
    minus: frozenset

    def normalized(self) -> "_Desc":
        shared = self.plus & self.minus
        if shared:
            return _Desc(self.ep, self.plus - shared, self.minus)
        return self

    @property
    def certainly_empty(self) -> bool:
        return self.ep.is_empty and not self.plus

    @property
    def certainly_infinite(self) -> bool:
        # a nonempty ep survives removal of sparse tokens; sparse tokens are
        # infinite by construction
        return not self.ep.is_empty or bool(self.plus)


_DESC_EMPTY = _Desc(_EP_EMPTY, frozenset(), frozenset())
_DESC_FULL = _Desc(_EP_FULL, frozenset(), frozenset())


def _desc_complement(d: _Desc) -> _Desc:
    return _Desc(_ep_complement(d.ep), d.minus, d.plus).normalized()


def _is_cofull_desc(d: _Desc) -> bool:
    # the full line minus sparse tokens; intersecting with it is exact
    return d.ep.is_full and not d.plus


def _desc_union_under(a: _Desc, b: _Desc) -> _Desc:
    if b.certainly_empty:
        return a
    if a.certainly_empty:
        return b
    # a plus token from a side without removals lies in the union entirely
    free = (a.plus if not a.minus else frozenset()) | (b.plus if not b.minus else frozenset())
    return _Desc(
        _ep_union(a.ep, b.ep), a.plus | b.plus, (a.minus | b.minus) - free
    ).normalized()


def _desc_union_over(a: _Desc, b: _Desc) -> _Desc:
    if b.certainly_empty:
        return a
    if a.certainly_empty:
        return b
    return _Desc(_ep_union(a.ep, b.ep), a.plus | b.plus, a.minus & b.minus).normalized()


def _desc_intersect_exactish(a: _Desc, b: _Desc) -> Optional[_Desc]:
    if a.certainly_empty or b.certainly_empty:
        return _DESC_EMPTY
    if _is_cofull_desc(b):
        return _Desc(a.ep, a.plus, a.minus | b.minus).normalized()
    if _is_cofull_desc(a):
        return _Desc(b.ep, b.plus, a.minus | b.minus).normalized()
    return None


def _desc_intersect_under(a: _Desc, b: _Desc) -> _Desc:
    exact = _desc_intersect_exactish(a, b)
    if exact is not None:
        return exact
    return _Desc(_ep_intersect(a.ep, b.ep), a.plus & b.plus, a.minus | b.minus).normalized()


def _desc_intersect_over(a: _Desc, b: _Desc) -> _Desc:
    exact = _desc_intersect_exactish(a, b)
    if exact is not None:
        return exact
    return _Desc(_ep_intersect(a.ep, b.ep), a.plus | b.plus, a.minus | b.minus).normalized()


def _shift_token(tok, offset: int):
    if offset == 0:
        return tok
    if isinstance(tok, Shifted):
        return _shift_token(tok.base, tok.offset + offset)
    return Shifted(tok, offset)


def _shift_desc(d: _Desc, offset: int) -> _Desc:
    return _Desc(
        _ep_shift(d.ep, offset),
        frozenset(_shift_token(t, offset) for t in d.plus),
        frozenset(_shift_token(t, offset) for t in d.minus),
    ).normalized()


# ---------------------------------------------------------------------------
# verdict types


@record
class DensityVerdict:
    kind: str  # "exact" | "zero" | "bounds" | "inconclusive"
    value: Optional[Fraction] = None
    lower: Optional[Fraction] = None
    upper: Optional[Fraction] = None
    horizon: Optional[int] = None

    @staticmethod
    def exact(value: Fraction) -> "DensityVerdict":
        value = Fraction(value)
        if not 0 <= value <= 1:
            raise ValueError("density outside [0, 1]")
        if value == 0:
            return DensityVerdict("zero", value=Fraction(0))
        return DensityVerdict("exact", value=value)

    @staticmethod
    def bounds(lower: Fraction, upper: Fraction) -> "DensityVerdict":
        lower, upper = Fraction(lower), Fraction(upper)
        if not 0 <= lower <= upper <= 1:
            raise ValueError("density bounds must satisfy 0 <= lower <= upper <= 1")
        return DensityVerdict("bounds", lower=lower, upper=upper)

    @staticmethod
    def inconclusive(horizon: int) -> "DensityVerdict":
        return DensityVerdict("inconclusive", horizon=horizon)

    @property
    def is_exact(self) -> bool:
        return self.kind in ("exact", "zero")


@record
class SumVerdict:
    """Verdict for a weighted sum.  Only ``series.partial_sum`` fills
    ``partial``/``horizon``, for a report that prints an undecided sum."""

    kind: str  # "diverges" | "converges" | "inconclusive"
    bound: object = None  # Fraction or float upper bound when converging
    partial: Optional[float] = None  # sum over the members up to the horizon
    horizon: Optional[int] = None

    @staticmethod
    def diverges() -> "SumVerdict":
        return SumVerdict("diverges")

    @staticmethod
    def converges(bound) -> "SumVerdict":
        return SumVerdict("converges", bound=bound)

    @staticmethod
    def inconclusive() -> "SumVerdict":
        return SumVerdict("inconclusive")


# ---------------------------------------------------------------------------
# operations


def member(n: int, s: SetExpr) -> Optional[bool]:
    """Three-valued membership: True, False, or None (inconclusive)."""
    if n < 1:
        raise ValueError("indices start at 1")
    return s.member_at(n)


def enumerate_prefix(s: SetExpr, horizon: int) -> list[int]:
    """Sorted list of the members of s in [1, horizon]."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if isinstance(s, Finite):  # its own indices, without an array
        return [i for i in s.indices if i <= horizon]
    if isinstance(s, Range) and s.hi is not None:  # its own bounds
        return list(range(s.lo, min(s.hi, horizon) + 1))
    m = s.mask(horizon)
    return [int(i) + 1 for i in np.nonzero(m)[0]]


def natural_density(s: SetExpr) -> DensityVerdict:
    """Density verdict from the eventually-periodic calculus.

    Exact whenever the expression avoids sampled atoms (sparse geometric
    parts contribute zero); otherwise bounds from the under/over pair,
    or inconclusive when those are vacuous.
    """
    try:
        lo, hi = s.desc_pair()
    except HorizonExceeded:
        return DensityVerdict.inconclusive(_sampled_floor(s))
    d_lo = lo.ep.density()
    d_hi = hi.ep.density()
    if d_lo == d_hi:
        return DensityVerdict.exact(d_lo)
    if d_lo == 0 and d_hi == 1:
        return DensityVerdict.inconclusive(_sampled_floor(s))
    return DensityVerdict.bounds(d_lo, d_hi)


def _sampled_floor(s: SetExpr) -> int:
    horizons = [a.horizon for a, _ in iter_atoms(s) if isinstance(a, Sampled)]
    return min(horizons) if horizons else DEFAULT_HORIZON


def iter_atoms(s: SetExpr, offset: int = 0) -> Iterator[tuple[SetExpr, int]]:
    """The atoms of s, each with the sum of the shifts it lies under."""
    if isinstance(s, Union) or isinstance(s, Intersection):
        for p in s.parts:
            yield from iter_atoms(p, offset)
    elif isinstance(s, Complement):
        yield from iter_atoms(s.inner, offset)
    elif isinstance(s, Shifted):
        yield from iter_atoms(s.base, offset + s.offset)
    else:
        yield s, offset


def is_certainly_finite(s: SetExpr) -> bool:
    """False when not certain, a description past the period cap included."""
    try:
        return s.desc_pair()[1].certainly_empty
    except HorizonExceeded:
        return False


def is_certainly_infinite(s: SetExpr) -> bool:
    """False when not certain, a description past the period cap included."""
    try:
        return s.desc_pair()[0].certainly_infinite
    except HorizonExceeded:
        return False


# ---------------------------------------------------------------------------
# canonicalization


def _sort_key(s: SetExpr) -> str:
    return s.to_text()


def canonicalize(s: SetExpr) -> SetExpr:
    """Deterministic normal form: flattened, sorted, trivially simplified.

    Unions and intersections are flattened and ordered by their printed
    form, duplicate parts dropped, finite parts merged, and identities
    with the empty and full set collapsed.
    """
    if isinstance(s, Union):
        parts: list[SetExpr] = []
        for p in s.parts:
            cp = canonicalize(p)
            if isinstance(cp, Union):
                parts.extend(cp.parts)
            else:
                parts.append(cp)
        finites: list[int] = []
        rest: list[SetExpr] = []
        for p in parts:
            if isinstance(p, Finite):
                finites.extend(p.indices)
            elif p == NATURALS:
                return NATURALS
            else:
                rest.append(p)
        if finites:
            rest.append(Finite(tuple(sorted(set(finites)))))
        rest = sorted(set(rest), key=_sort_key)
        if not rest:
            return EMPTY
        return rest[0] if len(rest) == 1 else Union(tuple(rest))
    if isinstance(s, Intersection):
        parts = []
        for p in s.parts:
            cp = canonicalize(p)
            if isinstance(cp, Intersection):
                parts.extend(cp.parts)
            else:
                parts.append(cp)
        rest = []
        for p in parts:
            if p == NATURALS:
                continue
            if isinstance(p, Finite) and not p.indices:
                return EMPTY
            rest.append(p)
        rest = sorted(set(rest), key=_sort_key)
        if not rest:
            return NATURALS
        return rest[0] if len(rest) == 1 else Intersection(tuple(rest))
    if isinstance(s, Complement):
        inner = canonicalize(s.inner)
        if isinstance(inner, Complement):
            return inner.inner
        if isinstance(inner, Finite):
            return CoFinite(inner.indices)
        if isinstance(inner, CoFinite):
            return Finite(inner.excluded)
        return Complement(inner)
    if isinstance(s, Shifted):
        base = canonicalize(s.base)
        if s.offset == 0:
            return base
        if isinstance(base, Shifted):
            return canonicalize(Shifted(base.base, base.offset + s.offset))
        if isinstance(base, Finite):
            return Finite(tuple(i + s.offset for i in base.indices if i + s.offset >= 1))
        if isinstance(base, Residue):
            return Residue(base.modulus, (base.residue + s.offset) % base.modulus)
        return Shifted(base, s.offset)
    return s
