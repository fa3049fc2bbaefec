"""Symbolic test vectors for demonstrations and witness searches.

Three families, each with exact coordinate evaluation and a certified
bound on its norm: a single basis vector, a power-law tail, and a
sparse spike supported on a structured set with symbolic amplitudes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union as TUnion

from .natset import NATURALS, SetExpr, member
from .sequences import Constant, PowerLog, ScalarSeq, seq_pow
from .series import weight_sum


@dataclass(frozen=True)
class BasisVector:
    index: int

    def coordinate(self, n: int):
        return Fraction(1) if n == self.index else Fraction(0)

    def support(self) -> SetExpr:
        from .natset import Finite

        return Finite((self.index,))

    def amplitude(self) -> ScalarSeq:
        return Constant(1)

    def norm_upper(self, p) -> Fraction:
        return Fraction(1)

    def to_text(self) -> str:
        return f"e({self.index})"


@dataclass(frozen=True)
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
            raise ValueError(f"the tail is not in the space at p={p}")
        b = float(v.bound)
        return b ** (1.0 / float(p))

    def to_text(self) -> str:
        b = self.beta
        bt = str(b.numerator) if b.denominator == 1 else f"{b.numerator}/{b.denominator}"
        if self.scale == 1:
            return f"powtail({bt})"
        s = self.scale
        st = str(s.numerator) if s.denominator == 1 else f"{s.numerator}/{s.denominator}"
        return f"powtail({bt},{st})"


@dataclass(frozen=True)
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
            raise ValueError(f"the spike is not in the space at p={p}")
        b = float(v.bound)
        return b ** (1.0 / float(p))

    def to_text(self) -> str:
        return f"spike({self.support_set.to_text()}; {self.amp.to_text()})"


TestVector = TUnion[BasisVector, PowerTail, Spike]


def coordinate_vector(v: TestVector, horizon: int):
    """|coordinates| of the test vector at 1..horizon, as a float array."""
    import numpy as np

    from .sequences import eval_vector

    if isinstance(v, BasisVector):
        out = np.zeros(horizon)
        if v.index <= horizon:
            out[v.index - 1] = 1.0
        return out
    amps = np.abs(eval_vector(v.amplitude(), horizon))
    mask = v.support().mask(horizon)
    return np.where(mask, amps, 0.0)
