"""Finite truncations of the sequence spaces and the tail operators.

The stage-n tail operator T x = (x_1 - q b_1, ..., x_n - q b_n, 0, ...),
q = x_{n+1} / b_{n+1}, is the partial-sum projection of the rebuilt
system v_k = b_1 e_1 + ... + b_k e_k.  Everything here is a closed form in
W = U**p = S / b_{n+1}**p, with the mass S = b_1**p + ... + b_n**p,
U = ||v_n||_p / b_{n+1} and q the dual exponent (Minkowski, then Hoelder
with equality): ||T|| = (1 + U**q)**(1/q), ||Id - T|| = (1 + U**p)**(1/p),
and the target norm a needs b_{n+1} = ||v_n||_p / (a**q - 1)**(1/q); at
p = 1 these are max(1, U), 1 + U and S / a.  Evaluated on rationals they
stay exact for p = 1, and on the squares for p = 2.  A stage norm that
leaves the rationals carries a certified lower bound, ||T x|| / ||x|| of
the extremal vector evaluated with ``apply``'s float arithmetic on the
coefficient array, and the Riesz-Thorin upper bound.
"""

from __future__ import annotations

import math
from collections.abc import Sequence as SequenceABC
from fractions import Fraction
from typing import Optional, Sequence

from ._lazy_numpy import np
from ._record import record
from .sequences import DomainError, _as_number, exact_root

_METHODS = {1: "ColumnMax", 2: "ClosedFormL2"}  # "ClosedForm" for every other p


class DimensionMismatch(ValueError):
    pass


@record
class SpaceKind:
    """An l_p space with an explicit truncation dimension."""

    p: object  # Fraction for exact kinds, float otherwise
    dim: int

    def __post_init__(self):
        p = _as_number(self.p)
        object.__setattr__(self, "p", p)
        if p < 1:
            raise DomainError("the exponent must satisfy p >= 1")
        if self.dim < 2:
            raise DomainError("truncation dimension must be at least 2")

    @property
    def p_float(self) -> float:
        return float(self.p)

    @property
    def is_l1(self) -> bool:
        return self.p == 1

    @property
    def is_l2(self) -> bool:
        return self.p == 2

    def to_text(self) -> str:
        if self.is_l1:
            return "l1"
        if self.is_l2:
            return "l2"
        return f"lp({self.p})" if isinstance(self.p, Fraction) else f"lp({self.p!r})"


def l1(dim: int = 64) -> SpaceKind:
    return SpaceKind(Fraction(1), dim)


def l2(dim: int = 64) -> SpaceKind:
    return SpaceKind(Fraction(2), dim)


def lp(p, dim: int = 64) -> SpaceKind:
    return SpaceKind(p, dim)


@record
class TailOp:
    """Stage-n tail operator, determined by the coefficients b_1..b_{n+1}."""

    stage: int
    b: tuple
    space: SpaceKind
    b_squared: Optional[tuple] = None  # exact squares when entries are irrational

    def __post_init__(self):
        if len(self.b) != self.stage + 1:
            raise DimensionMismatch(
                f"stage {self.stage} needs {self.stage + 1} coefficients, got {len(self.b)}"
            )
        b = tuple(_as_number(v) for v in self.b)
        object.__setattr__(self, "b", b)
        if any(v <= 0 for v in b):
            raise DomainError("coefficients must be positive")
        if self.b_squared is not None:
            sq = tuple(Fraction(v) for v in self.b_squared)
            if len(sq) != self.stage + 1:
                raise DimensionMismatch("b_squared length mismatch")
            object.__setattr__(self, "b_squared", sq)
        if self.space.dim < self.stage + 1:
            raise DimensionMismatch("truncation dimension below stage + 1")

    def b_floats(self) -> np.ndarray:
        return np.array([float(v) for v in self.b], dtype=float)

    def powers(self) -> tuple:
        """b_i**p: exact for rational entries at p = 1, and on the squares at p = 2."""
        if self.b_squared is not None and self.space.is_l2:
            return self.b_squared
        return tuple(v ** self.space.p for v in self.b)

    def dense_matrix(self, dim: Optional[int] = None) -> np.ndarray:
        dim = dim or self.space.dim
        if dim < self.stage + 1:
            raise DimensionMismatch("dense truncation below stage + 1")
        n = self.stage
        bf = self.b_floats()
        M = np.zeros((dim, dim))
        M[range(n), range(n)] = 1.0
        M[:n, n] = -bf[:n] / bf[n]
        return M


class ExactImage(SequenceABC):
    """T x for rational x and b: the unreduced integer pairs of its
    coordinates, x_i - q b_i at i <= n and (0, 1) past n.  Read as a sequence
    it is the list of Fractions, built once; a write drops ``pairs``."""

    def __init__(self, pairs: list):
        self.pairs, self._items = pairs, None

    def _list(self) -> list:
        if self._items is None:
            self._items = [Fraction(u, v) for u, v in self.pairs]
        return self._items

    def __len__(self) -> int:  # pragma: no cover - list protocol, which no command reads
        return len(self._list())

    def __getitem__(self, i):  # pragma: no cover - list protocol, which no command reads
        return self._list()[i]

    def __setitem__(self, i, value):  # pragma: no cover - list protocol, which no command reads
        self._list()[i] = value
        self.pairs = None

    def __eq__(self, other):  # pragma: no cover - list protocol, which no command reads
        return self._list() == other

    def __repr__(self) -> str:
        return repr(self._list())


def apply(T: TailOp, x: Sequence):
    """Apply the tail operator: an ``ExactImage`` for rational x and b, else floats."""
    n = T.stage
    if len(x) < n + 1:
        raise DimensionMismatch(f"need at least {n + 1} coordinates, got {len(x)}")
    b = T.b
    if all(isinstance(v, (int, Fraction)) for v in x) and all(isinstance(v, Fraction) for v in b):
        q = x[n] / b[n]  # a Fraction: b[n] is one
        qn, qd = q.numerator, q.denominator
        return ExactImage([(v.numerator * qd * c.denominator - qn * c.numerator * v.denominator,
                            v.denominator * qd * c.denominator)
                           for v, c in zip(x[:n], b)] + [(0, 1)] * (len(x) - n))
    q = float(x[n]) / float(b[n])
    return [float(x[i]) - q * float(b[i]) for i in range(n)] + [0.0] * (len(x) - n)


@record
class NormReport:
    value: float
    method: str  # ColumnMax | ClosedFormL2 | ClosedForm | BruteForce
    lower: float
    upper: float
    exact: Optional[Fraction] = None
    exact_square: Optional[Fraction] = None

    def __post_init__(self):
        if not (self.lower <= self.value * (1 + 1e-12) + 1e-300):
            raise ValueError("norm report lower bound above the value")
        if not (self.value <= self.upper * (1 + 1e-12) + 1e-300):
            raise ValueError("norm report value above the upper bound")


def lp_norm(v, p: float) -> float:
    v = np.abs(np.asarray(v, dtype=float))
    if math.isinf(p):
        return float(v.max()) if v.size else 0.0
    return float((v ** p).sum() ** (1.0 / p))


def norm_ratio(bf: np.ndarray, x, p: float) -> float:
    """||T x||_p / ||x||_p for the stage op with coefficients bf = (b_1, ...,
    b_{n+1}) and x of n + 1 coordinates, in ``apply``'s float arithmetic."""
    x = np.asarray(x, dtype=float)
    y = x - (x[-1] / bf[-1]) * bf
    y[-1] = 0.0
    nx = lp_norm(x, p)
    return lp_norm(y, p) / nx if nx > 0 else 0.0


def riesz_thorin_upper(bf: np.ndarray, p: float) -> float:
    """||T||_1**(1/p) ||T||_inf**(1 - 1/p) for the stage op with coefficients
    bf = (b_1, ..., b_{n+1}): interpolating the column and row maxima."""
    n = len(bf) - 1
    m1 = max(1.0, float(bf[:n].sum()) / float(bf[n]))
    minf = 1.0 + float(bf[:n].max()) / float(bf[n]) if n else 1.0
    return m1 ** (1.0 / p) * minf ** (1.0 - 1.0 / p)


def _log1p_exp(z: float) -> float:
    """ln(1 + e**z) without overflow."""
    return max(z, 0.0) + math.log1p(math.exp(-abs(z)))


def norming_input(bf: np.ndarray, p: float) -> np.ndarray:
    """A unit vector with ||T x||_p = ||T||_p for the stage op with
    coefficients bf = (b_1, ..., b_{n+1}), Hoelder's equality case: a basis
    column at p = 1, else x = (u / (U (1 + V)**(1/p)), -(V / (1 + V))**(1/p))
    with u = (b_1, ..., b_n) / b_{n+1} and V = U**q, evaluated in logs so
    that V may leave the float range (p close to 1)."""
    n = len(bf) - 1
    x = np.zeros(n + 1)
    if p == 1:
        x[n if bf[:n].sum() >= bf[n] else 0] = 1.0
        return x
    u = bf[:n] / bf[n]
    log_u = math.log(lp_norm(u, p))
    log_v = log_u * p / (p - 1.0)
    x[:n] = u * math.exp(-log_u - _log1p_exp(log_v) / p)
    x[n] = -math.exp(-_log1p_exp(-log_v) / p)
    return x


def _root(x, k):
    """x**(1/k): exact for k = 1 and for rational squares at k = 2.  A
    rational square root is taken after scaling by a power of four, so it
    neither overflows nor differs from math.sqrt where that one is finite;
    it is an integer shift, and int / int rounds as float(Fraction) does."""
    if k == 1:
        return x
    if k == 2:
        if not isinstance(x, Fraction):
            return math.sqrt(x)
        root = exact_root(x, 2)
        if root is not None:
            return root
        num, den = x.numerator, x.denominator
        j = (num.bit_length() - den.bit_length()) // 2
        scaled = num / (den << 2 * j) if j >= 0 else (num << -2 * j) / den
        return math.ldexp(math.sqrt(scaled), j)
    return float(x) ** (1.0 / float(k))


def _mass_ratio(T: TailOp):
    """W = U**p = S / b_{n+1}**p."""
    powers = T.powers()
    return sum(powers[:-1]) / powers[-1]


def _prescribed_ratio(a, p, a_square=None):
    """The W = S / b_{n+1}**p whose stage norm is a, (a**q - 1)**(p - 1): a
    itself at p = 1, a**2 - 1 at p = 2 (from the exact square when given),
    else a**p * (1 - a**-q)**(p - 1), which stays finite as q grows."""
    if not a > 1:
        raise DomainError("the target norm must exceed 1")
    if p == 1:
        return a
    if p == 2:
        return (a * a if a_square is None else a_square) - 1
    p, a = float(p), float(a)
    return a ** p * (-math.expm1(-math.log(a) * p / (p - 1))) ** (p - 1)


def _closed_form_report(power, k, method: str) -> NormReport:
    """An attained norm whose k-th power is ``power``; rational powers are
    reported exactly (the value at k = 1, the square at k = 2)."""
    value = float(_root(power, k))
    rational = isinstance(power, Fraction)
    return NormReport(value, method, value, value, exact=power if rational and k == 1 else None,
                      exact_square=power if rational and k == 2 else None)


def _stage_norm(W, p, b: Sequence) -> NormReport:
    """The stage norm from W = U**p.  A rational result certifies itself; a
    float one is bracketed by the extremal ratio on the coefficients
    b = (b_1, ..., b_{n+1}), converted to floats once, and the Riesz-Thorin
    bound.  Past p = 1 and 2 the norm (1 + U**q)**(1/q) is taken as
    max(1, U) (1 + m**q)**(1/q) with m = min(U, 1/U), finite for every q."""
    if p == 1:
        rep = _closed_form_report(max(W, type(W)(1)), 1, _METHODS[1])
    elif p == 2:
        rep = _closed_form_report(1 + W, 2, _METHODS[2])
    else:
        q = float(p) / (float(p) - 1.0)
        U = float(W) ** (1.0 / float(p))
        m = min(U, 1.0 / U)
        value = max(1.0, U) * math.exp(math.log1p(m ** q) / q)
        rep = NormReport(value, "ClosedForm", value, value)
    if rep.exact is not None or rep.exact_square is not None:
        return rep
    bf, p = np.array(b, dtype=float), float(p)
    lower = norm_ratio(bf, norming_input(bf, p), p)
    value = max(rep.value, lower)
    return NormReport(value, rep.method, lower, max(riesz_thorin_upper(bf, p), value))


def op_norm(T: TailOp) -> NormReport:
    """Norm of the tail operator in its space."""
    return _stage_norm(_mass_ratio(T), T.space.p, T.b)


def solve_b_next(b: Sequence, a_target, space: SpaceKind):
    """The coefficient b_{n+1} giving the stage-n operator norm a_target;
    exact for rational input at p = 1, and at p = 2 when the root is rational."""
    p = space.p
    mass = sum(_as_number(v) ** p for v in b)
    return _root(mass / _prescribed_ratio(_as_number(a_target), p), p)


def remainder_norm(T: TailOp, dim: Optional[int] = None) -> NormReport:
    """Norm of Id - T on the truncation (needs dim > stage + 1): it sends x
    to x_{n+1} (b_1, ..., b_n, b_{n+1}) / b_{n+1} plus the coordinates past
    n+1, so the norm is (1 + U**p)**(1/p)."""
    dim = dim or T.space.dim
    if dim <= T.stage + 1:
        raise DimensionMismatch("remainder needs the truncation to extend past stage + 1")
    p = T.space.p
    return _closed_form_report(1 + _mass_ratio(T), p, _METHODS.get(p, "ClosedForm"))
