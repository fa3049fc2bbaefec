"""Symbolic test vectors for demonstrations and witness searches.

Three families, each with exact coordinate evaluation and a certified
bound on its norm: a single basis vector, a power-law tail, and a
sparse spike supported on a structured set with symbolic amplitudes.
A coordinate past the known horizon of its support is a ``DomainError``,
as a norm with no certified bound is.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union as TUnion

from ._lazy_numpy import np
from ._record import record
from .natset import NATURALS, HorizonExceeded, SetExpr, member
from .reports import rational_text
from .sequences import (DomainError, PowerLog, ScalarSeq, _as_fraction, eval_at,
                        eval_at_indices, ln, seq_pow)
from .series import weight_sum

_ZERO, _ONE = Fraction(0), Fraction(1)  # shared: coordinates are asked for one by one


@record
class BasisVector:
    index: int

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("a basis vector index must be >= 1")

    def coordinate(self, n: int):
        return _ONE if n == self.index else _ZERO

    def norm_upper(self, p) -> Fraction:
        return Fraction(1)

    def to_text(self) -> str:
        return f"e({self.index})"


@record
class PowerTail:
    """Coordinates scale * n**(-beta)."""

    beta: Fraction
    scale: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "beta", _as_fraction(self.beta))
        object.__setattr__(self, "scale", _as_fraction(self.scale))
        if self.beta <= 0:
            raise ValueError("a power tail needs a positive decay exponent")

    def coordinate(self, n: int):
        return eval_at(self.amplitude(), n)

    def support(self) -> SetExpr:
        return NATURALS

    def amplitude(self) -> ScalarSeq:
        return PowerLog(self.scale, -self.beta)

    def norm_upper(self, p):
        return _norm_upper(self, p, "the tail is not in the space")

    def to_text(self) -> str:
        if self.scale == 1:
            return f"powtail({rational_text(self.beta)})"
        return f"powtail({rational_text(self.beta)},{rational_text(self.scale)})"


@record
class Spike:
    """amplitude(n) on the support set, zero elsewhere."""

    support_set: SetExpr
    amp: ScalarSeq

    def coordinate(self, n: int):
        v = member(n, self.support_set)
        if v is None:
            raise DomainError(f"support membership undecidable at n={n}")
        return eval_at(self.amp, n) if v else _ZERO

    def support(self) -> SetExpr:
        return self.support_set

    def amplitude(self) -> ScalarSeq:
        return self.amp

    def norm_upper(self, p):
        return _norm_upper(self, p, "the spike has no certified norm")

    def to_text(self) -> str:
        return f"spike({self.support_set.to_text()}; {self.amp.to_text()})"


TestVector = TUnion[BasisVector, PowerTail, Spike]


def _norm_bound(x: TestVector, p, reason: str):
    """The certified bound on the sum of |x_n|**p over the support."""
    v = weight_sum(x.support(), seq_pow(x.amplitude(), _as_fraction(p)))
    if v.kind != "converges":
        raise DomainError(f"{reason} at p={p}")
    return v.bound


def _norm_upper(x: TestVector, p, reason: str) -> float:
    """The p-th root of ``_norm_bound``; +inf for a bound past the float
    range."""
    try:
        return float(_norm_bound(x, p, reason)) ** (1.0 / float(p))
    except OverflowError:
        return math.inf


def ln_norm_upper(x: TestVector, p) -> float:
    """ln of ``x.norm_upper(p)``, finite where the bound lies past the float
    range."""
    if isinstance(x, BasisVector):
        return 0.0
    return ln(_norm_bound(x, p, "the vector has no certified norm")) / float(p)


def coordinate_vector(v: TestVector, horizon: int, start: int = 0, logs: bool = False):
    """|coordinates| of the test vector at start+1..horizon, as a float
    array, or with ``logs`` their ln (-inf off the support), finite where a
    coordinate lies past the float range; the amplitude is evaluated only on
    the support."""
    out = np.full(horizon - start, -math.inf) if logs else np.zeros(horizon - start)
    if isinstance(v, BasisVector):
        if start < v.index <= horizon:
            out[v.index - 1 - start] = 0.0 if logs else 1.0
        return out
    try:
        on = v.support().mask(horizon)[start:]
        vals = eval_at_indices(v.amplitude(), np.flatnonzero(on) + start + 1, logs)
        out[on] = vals if logs else np.abs(vals)
    except HorizonExceeded as exc:
        raise DomainError(f"the coordinates of {v.to_text()} are unknown: {exc}") from None
    return out
