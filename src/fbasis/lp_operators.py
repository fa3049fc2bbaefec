"""Finite truncations of the sequence spaces and the tail operators.

The stage-n tail operator T x = (x_1 - q b_1, ..., x_n - q b_n, 0, ...),
q = x_{n+1} / b_{n+1}, is the partial-sum projection of the rebuilt
system v_k = b_1 e_1 + ... + b_k e_k.  Everything here is a closed form in
W = U**p = S / b_{n+1}**p, with the mass S = b_1**p + ... + b_n**p,
U = ||v_n||_p / b_{n+1} and q the dual exponent (Minkowski, then Hoelder
with equality): ||T|| = (1 + U**q)**(1/q), ||Id - T|| = (1 + U**p)**(1/p),
and the target norm a needs b_{n+1} = ||v_n||_p / (a**q - 1)**(1/q); at
p = 1 these are max(1, U), 1 + U and S / a.  Evaluated on rationals they
stay exact for p = 1, and on the squares for p = 2: the exact phase of
``basis_builder.build_basis`` runs on integer pairs and takes a stage's
norm from a_n**p, its p-th power; ``image_pairs``, the image of a rational
x under a rational stage, which ``apply`` and the biorthogonality check
call, runs on integer pairs too.  In the float phase, from
the first stage whose W is a float, a stage norm is bracketed in O(1)
(``_stage_bounds``): the closed form rounded down, and the larger of it and
the Riesz-Thorin bound from running sums rounded up.  At the probe stages
the ratio ||T x|| / ||x|| of the extremal vector, evaluated with
``apply``'s float arithmetic on the coefficient array, checks that
bracket.  ``op_norm``, the norm of one operator, reports as a stage of
``build_basis`` does.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from ._lazy_numpy import np
from ._record import record
from .sequences import DomainError, _as_float, _as_number, exact_root
from .series import _round_down, _round_up, running_sum

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
        if isinstance(p, float) and not math.isfinite(p):  # a Fraction may pass the float range
            raise DomainError("the exponent must be finite")
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


def image_pairs(bs: Sequence, xs: Sequence, n: int) -> list:
    """T_n x for rational b and x given as their integer pairs (num, den),
    den > 0, with bs holding at least b_1 .. b_{n+1}: x_i - q b_i at i <= n
    as the unreduced pair (x_i.num q.den b_i.den - q.num b_i.num x_i.den,
    x_i.den q.den b_i.den), q = x_{n+1} / b_{n+1} reduced, and (0, 1) past
    n, one pair per coordinate of x.  Both entries of a pair share their
    large product q.den b_i.den, which is formed once."""
    (u, v), (cn, cd) = xs[n], bs[n]
    g = math.gcd(qn := u * cd, qd := v * cn)  # v, cn > 0 for b positive
    qn, qd = qn // g, qd // g
    return [(u * (m := qd * cd) - qn * cn * v, v * m)
            for (u, v), (cn, cd) in zip(xs[:n], bs)] + [(0, 1)] * (len(xs) - n)


def apply(T: TailOp, x: Sequence) -> list:
    """Apply the tail operator: Fractions through ``image_pairs`` for rational
    x and b, else floats."""
    n, b = T.stage, T.b
    if len(x) < n + 1:
        raise DimensionMismatch(f"need at least {n + 1} coordinates, got {len(x)}")
    if all(isinstance(v, Fraction) for v in b) and all(isinstance(v, (int, Fraction)) for v in x):
        pairs = image_pairs([v.as_integer_ratio() for v in b],
                            [v.as_integer_ratio() for v in x], n)
        return [Fraction(u, v) for u, v in pairs]
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
        if not self.lower <= self.value <= self.upper:  # a nan fails too
            raise ValueError("norm report value outside its bounds")


def lp_norm(v, p: float) -> float:
    v = np.abs(np.asarray(v, dtype=float))
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
    top = float(bf[:n].max()) if n else 0.0
    return riesz_thorin_bound(float(bf[:n].sum()), top, float(bf[n]), p)


def riesz_thorin_bound(total: float, top: float, last: float, p: float) -> float:
    """``riesz_thorin_upper`` from total = b_1 + ... + b_n, top = max(b_1,
    ..., b_n) and last = b_{n+1}: the column maximum max(1, total / last)
    and the row maximum 1 + top / last."""
    return max(1.0, total / last) ** (1.0 / p) * (1.0 + top / last) ** (1.0 - 1.0 / p)


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
    """x**(1/k): exact for k = 1 and for rational squares at k = 2, else
    a float (``_scaled_sqrt`` for a rational at k = 2)."""
    if k == 1:
        return x
    if k == 2:
        if not isinstance(x, Fraction):
            return math.sqrt(x)
        root = exact_root(x, 2)
        return _scaled_sqrt(x) if root is None else root
    return float(x) ** (1.0 / float(k))


def _scaled_sqrt(x: Fraction) -> float:
    """The float square root of a positive rational, taken after scaling by
    a power of four, so it neither overflows nor differs from math.sqrt
    where that one is finite; it is an integer shift, and int / int rounds
    as float(Fraction) does."""
    num, den = x.numerator, x.denominator
    j = (num.bit_length() - den.bit_length()) // 2
    scaled = num / (den << 2 * j) if j >= 0 else (num << -2 * j) / den
    return math.ldexp(math.sqrt(scaled), j)


def _mass_ratio(T: TailOp):
    """W = U**p = S / b_{n+1}**p."""
    powers = T.powers()
    return running_sum(powers[:-1]) / powers[-1]


def _prescribed_ratio(a, p, a_square=None):
    """The W = S / b_{n+1}**p whose stage norm is a, (a**q - 1)**(p - 1): a
    itself at p = 1, a**2 - 1 at p = 2 (from the exact square when given),
    else a**p * (1 - a**-q)**(p - 1), which stays finite as q grows; +inf
    where a**p passes the float range, as a * a does at p = 2."""
    if not a > 1:
        raise DomainError("the target norm must exceed 1")
    if p == 1:
        return a
    if p == 2:
        return (a * a if a_square is None else a_square) - 1
    p, a = float(p), float(a)
    try:
        return a ** p * (-math.expm1(-math.log(a) * p / (p - 1))) ** (p - 1)
    except OverflowError:
        return math.inf


def _closed_form_report(power, k, method: str, root=None) -> NormReport:
    """An attained norm whose k-th power is ``power``, with ``root`` its
    ``_root`` when the caller has it; rational powers are reported exactly
    (the value at k = 1, the square at k = 2)."""
    value = _as_float(_root(power, k) if root is None else root)
    rational = isinstance(power, Fraction)
    return NormReport(value, method, value, value, exact=power if rational and k == 1 else None,
                      exact_square=power if rational and k == 2 else None)


def _holder_value(W: float, p) -> float:
    """The stage norm (1 + U**q)**(1/q) from a float W = U**p: max(1, W) at
    p = 1, sqrt(1 + W) at p = 2, and past them max(1, U) (1 + m**q)**(1/q)
    with m = min(U, 1/U), finite for every q."""
    if p == 1:
        return max(W, 1.0)
    if p == 2:
        return math.sqrt(1.0 + W)
    q = float(p) / (float(p) - 1.0)
    U = W ** (1.0 / float(p))
    m = min(U, 1.0 / U) if U else 0.0  # U = 0 at stage 0: the norm is 1
    return max(1.0, U) * math.exp(math.log1p(m ** q) / q)


def _stage_bounds(W: float, p: float, total: float, top: float, last: float,
                  n: int) -> NormReport:
    """The stage-n norm in O(1), from W = S / b_{n+1}**p and the running
    total = b_1 + ... + b_n and top = max(b_1, ..., b_n), last = b_{n+1},
    all floats: ``value`` is ``_holder_value``, ``lower`` it rounded down,
    and ``upper`` the larger of it and ``riesz_thorin_bound`` rounded up.
    The norm moves by at most W's relative error (its log-derivative in W
    is at most 1/p), and S and total are running sums of n terms, so the
    rounding is ``series._round_up``'s with gamma_{n-1}."""
    value = _holder_value(W, p)
    upper = max(value, riesz_thorin_bound(total, top, last, p))
    return NormReport(value, _METHODS.get(p, "ClosedForm"), _round_down(value, n),
                      _round_up(upper, n))


def op_norm(T: TailOp) -> NormReport:
    """Norm of the tail operator in its space, reported as ``build_basis``
    reports a stage: exact from a rational W at p = 1 or 2, else
    ``_stage_bounds`` from the sum and maximum of b_1 .. b_n (the maximum
    0.0 at stage 0, as in ``riesz_thorin_upper``)."""
    W, p, n = _mass_ratio(T), T.space.p, T.stage
    if isinstance(W, Fraction) and p in _METHODS:
        return _closed_form_report(max(W, Fraction(1)) if p == 1 else 1 + W, p, _METHODS[p])
    bf = T.b_floats()
    top = float(bf[:n].max()) if n else 0.0
    return _stage_bounds(float(W), float(p), float(bf[:n].sum()), top, float(bf[n]), n)


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
