"""Symbolic test vectors for demonstrations and witness searches.

Three families, each with exact coordinate evaluation and a certified
bound on its norm: a single basis vector, a power-law tail, and a
sparse spike supported on a structured set with symbolic amplitudes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union as TUnion

from ._lazy_numpy import np
from ._record import record
from .natset import NATURALS, SetExpr, member
from .reports import rational_text
from .sequences import DomainError, PowerLog, ScalarSeq, eval_at_indices, seq_pow
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
        from .sequences import eval_at

        return eval_at(self.amplitude(), n)

    def support(self) -> SetExpr:
        return NATURALS

    def amplitude(self) -> ScalarSeq:
        return PowerLog(self.scale, -self.beta)

    def norm_upper(self, p):
        v = weight_sum(NATURALS, seq_pow(self.amplitude(), Fraction(p)))
        if v.kind != "converges":
            raise DomainError(f"the tail is not in the space at p={p}")
        b = float(v.bound)
        return b ** (1.0 / float(p))

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
            raise ValueError(f"support membership undecidable at n={n}")
        from .sequences import eval_at

        return eval_at(self.amp, n) if v else Fraction(0)

    def support(self) -> SetExpr:
        return self.support_set

    def amplitude(self) -> ScalarSeq:
        return self.amp

    def norm_upper(self, p):
        v = weight_sum(self.support_set, seq_pow(self.amp, Fraction(p)))
        if v.kind != "converges":
            raise DomainError(f"the spike has no certified norm at p={p}")
        b = float(v.bound)
        return b ** (1.0 / float(p))

    def to_text(self) -> str:
        return f"spike({self.support_set.to_text()}; {self.amp.to_text()})"


TestVector = TUnion[BasisVector, PowerTail, Spike]


def coordinate_vector(v: TestVector, horizon: int, start: int = 0):
    """|coordinates| of the test vector at start+1..horizon, as a float
    array; the amplitude is evaluated only on the support."""
    out = np.zeros(horizon - start)
    if isinstance(v, BasisVector):
        if start < v.index <= horizon:
            out[v.index - 1 - start] = 1.0
        return out
    on = v.support().mask(horizon)[start:]
    out[on] = np.abs(eval_at_indices(v.amplitude(), np.flatnonzero(on) + start + 1))
    return out
