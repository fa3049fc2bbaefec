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
from .sequences import DomainError, PowerLog, ScalarSeq, eval_at, eval_at_indices, seq_pow
from .series import weight_sum


@record
class BasisVector:
    index: int

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("a basis vector index must be >= 1")

    def coordinate(self, n: int):
        return Fraction(1) if n == self.index else Fraction(0)

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
        object.__setattr__(self, "beta", Fraction(self.beta))
        object.__setattr__(self, "scale", Fraction(self.scale))
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
        return eval_at(self.amp, n) if v else Fraction(0)

    def support(self) -> SetExpr:
        return self.support_set

    def amplitude(self) -> ScalarSeq:
        return self.amp

    def norm_upper(self, p):
        return _norm_upper(self, p, "the spike has no certified norm")

    def to_text(self) -> str:
        return f"spike({self.support_set.to_text()}; {self.amp.to_text()})"


TestVector = TUnion[BasisVector, PowerTail, Spike]


def _norm_upper(x: TestVector, p, reason: str) -> float:
    """The p-th root of the certified bound on the sum of |x_n|**p over the
    support; +inf for a bound past the float range."""
    v = weight_sum(x.support(), seq_pow(x.amplitude(), Fraction(p)))
    if v.kind != "converges":
        raise DomainError(f"{reason} at p={p}")
    try:
        return float(v.bound) ** (1.0 / float(p))
    except OverflowError:
        return math.inf


def coordinate_vector(v: TestVector, horizon: int, start: int = 0):
    """|coordinates| of the test vector at start+1..horizon, as a float
    array; the amplitude is evaluated only on the support."""
    out = np.zeros(horizon - start)
    if isinstance(v, BasisVector):
        if start < v.index <= horizon:
            out[v.index - 1 - start] = 1.0
        return out
    try:
        on = v.support().mask(horizon)[start:]
        out[on] = np.abs(eval_at_indices(v.amplitude(), np.flatnonzero(on) + start + 1))
    except HorizonExceeded as exc:
        raise DomainError(f"the coordinates of {v.to_text()} are unknown: {exc}") from None
    return out
