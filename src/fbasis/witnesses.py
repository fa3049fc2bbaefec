"""Constructed witness sets with built-in certificates.

Two set atoms that cannot be written with the basic constructors but
are fully determined by symbolic data:

``GreedyBlockSet`` is the disjoint-block construction that refutes the
boundedness criterion for summable filters: scanning the indices once
in increasing order, block m collects indices n with
a(n)**p * s(n) > 2**m until the block's s-sum lands in [1, 2].  The
resulting set D has divergent s-sum (at least one unit per block) while
the sum over D of a**(-p) stays below sum over m of 2**(-m) * 2 = 2.

``SparseThresholdSet`` picks, for an unbounded target sequence, the
first index at which a(n)**p reaches 2**k * k**2 for k = 1, 2, ...; the
resulting infinite set carries sum of a**(-p) at most 1 and has zero
density, which makes it a refutation witness for the Frechet filter.

Both atoms print in an extended grammar form (greedy(...), thresh(...))
so reports containing them re-parse to semantically equal objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .natset import (
    HorizonExceeded,
    SetExpr,
    SumVerdict,
    _Desc,
    _DESC_EMPTY,
    _DESC_FULL,
    _EP_EMPTY,
)
from .sequences import ScalarSeq, TailForm, eval_vector, is_bounded, seq_pow, tail_form

_DEFAULT_BLOCKS = 8
_MATERIALIZE_CAP = 10 ** 6
_CHUNK = 1 << 16


class CriterionHolds(Exception):
    """The boundedness criterion is satisfied, so no witness exists."""


def _forms_match(a: Optional[TailForm], b: Optional[TailForm]) -> bool:
    if a is None or b is None:
        return False
    return (
        a.beta == b.beta
        and a.gamma == b.gamma
        and float(a.c) == float(b.c)
        and a.start == b.start
        and tuple((i, float(v)) for i, v in a.head) == tuple((i, float(v)) for i, v in b.head)
    )


class _ChunkedValues:
    """Vectorized values of a sequence, materialized chunk by chunk."""

    def __init__(self, seq):
        self.seq = seq
        self.values = np.empty(0)

    def upto(self, limit: int) -> np.ndarray:
        if limit > len(self.values):
            size = ((limit // _CHUNK) + 1) * _CHUNK
            self.values = eval_vector(self.seq, size)
        return self.values


@dataclass(frozen=True)
class GreedyBlockSet(SetExpr):
    target: ScalarSeq  # the sequence a
    weights: ScalarSeq  # the filter weights s
    exponent: Fraction  # p
    blocks: Optional[int] = None  # None: as many as fit below the horizon
    horizon: int = _MATERIALIZE_CAP

    def __post_init__(self):
        object.__setattr__(self, "exponent", Fraction(self.exponent))
        object.__setattr__(
            self,
            "_state",
            {
                "blocks": [],  # completed blocks, tuples of indices
                "current": [],  # indices of the block being filled
                "current_sum": 0.0,
                "scan": 0,  # last examined index
                "m": 1,  # threshold exponent of the current block
                "svals": _ChunkedValues(self.weights),
                "pvals": _ChunkedValues(seq_pow(self.target, self.exponent)),
            },
        )
        count = self.blocks if self.blocks is not None else self._adaptive_count()
        object.__setattr__(self, "_target_blocks", count)
        self._scan_until_blocks(count)  # fail fast if blocks cannot complete

    def _adaptive_count(self) -> int:
        """As many blocks as actually complete below the horizon, capped at
        the default.  Fewer than two is too thin a certificate."""
        self._advance(self.horizon)
        count = min(_DEFAULT_BLOCKS, len(self._state["blocks"]))
        if count < 2:
            raise HorizonExceeded(
                f"only {count} greedy blocks complete below the horizon"
            )
        return count

    # scanning ---------------------------------------------------------------

    def _advance(self, upto: int) -> None:
        """Examine indices up to ``upto`` (capped by the horizon)."""
        st = self._state
        upto = min(upto, self.horizon)
        while st["scan"] < upto:
            lo = st["scan"] + 1
            hi = min(upto, lo + 4 * _CHUNK - 1)
            sv = st["svals"].upto(hi)[lo - 1 : hi]
            pv = st["pvals"].upto(hi)[lo - 1 : hi]
            prod = pv * sv
            pos = 0
            width = hi - lo + 1
            while pos < width:
                cand = np.nonzero(prod[pos:] > 2.0 ** st["m"])[0]
                if cand.size == 0:
                    break
                terms = sv[pos:][cand]
                if float(terms.max()) > 1.0:
                    pos = self._advance_scalar(lo, sv, pv, pos, width)
                    continue
                csum = np.cumsum(terms)
                need = 1.0 - st["current_sum"]
                k = int(np.searchsorted(csum, need))
                if k >= len(csum):
                    st["current"].extend((lo + pos + cand).tolist())
                    st["current_sum"] += float(csum[-1])
                    break
                st["current"].extend((lo + pos + cand[: k + 1]).tolist())
                st["blocks"].append(tuple(st["current"]))
                st["current"] = []
                st["current_sum"] = 0.0
                st["m"] += 1
                pos = pos + int(cand[k]) + 1
            st["scan"] = hi

    def _advance_scalar(self, lo: int, sv, pv, pos: int, width: int) -> int:
        """Plain scan for stretches containing weights above one."""
        st = self._state
        for i in range(pos, width):
            s_n = float(sv[i])
            if pv[i] * s_n > 2.0 ** st["m"] and st["current_sum"] + s_n <= 2.0:
                st["current"].append(lo + i)
                st["current_sum"] += s_n
                if st["current_sum"] >= 1.0:
                    st["blocks"].append(tuple(st["current"]))
                    st["current"] = []
                    st["current_sum"] = 0.0
                    st["m"] += 1
                    return i + 1
        return width

    def _scan_until_blocks(self, count: int) -> None:
        st = self._state
        while len(st["blocks"]) < count:
            if st["scan"] >= self.horizon:
                raise HorizonExceeded(
                    f"greedy block {len(st['blocks']) + 1} incomplete at the horizon"
                )
            self._advance(min(self.horizon, max(4096, st["scan"] * 4)))

    # certificates ------------------------------------------------------------

    def materialized_blocks(self) -> tuple[tuple[int, ...], ...]:
        count = self._target_blocks
        self._scan_until_blocks(count)
        return tuple(self._state["blocks"][:count])

    def block_sums(self) -> list[float]:
        sv = self._state["svals"]
        return [
            float(sum(float(sv.upto(blk[-1])[n - 1]) for n in blk))
            for blk in self.materialized_blocks()
        ]

    @property
    def materialized_count(self) -> int:
        return self._target_blocks

    def prefix_inverse_sum(self) -> float:
        """Sum of a**(-p) over the materialized prefix of the set."""
        pv = self._state["pvals"]
        return float(
            sum(
                1.0 / float(pv.upto(n)[n - 1])
                for blk in self.materialized_blocks()
                for n in blk
            )
        )

    # set protocol -------------------------------------------------------------

    def _decided_members(self, limit: int) -> list[int]:
        self._advance(limit)
        st = self._state
        out = [n for blk in st["blocks"] for n in blk if n <= limit]
        out.extend(n for n in st["current"] if n <= limit)
        return out

    def member_at(self, n):
        if n > self.horizon:
            return None
        return n in self._decided_members(n)

    def mask(self, horizon):
        m = np.zeros(horizon, dtype=bool)
        for n in self._decided_members(min(horizon, self.horizon)):
            m[n - 1] = True
        return m

    def desc_pair(self):
        return _DESC_EMPTY, _DESC_FULL

    def slack_bound(self):
        return 0

    def to_text(self):
        return (
            f"greedy({self.target.to_text()}; {self.weights.to_text()}; "
            f"{_frac(self.exponent)})"
        )

    def certified_weight_sum_seq(self, w) -> Optional[SumVerdict]:
        """Structural match against the defining sequences (covers the
        piecewise case the reduced form cannot express)."""
        if w == self.weights:
            return SumVerdict.diverges()
        if w == seq_pow(self.target, -self.exponent):
            return SumVerdict.converges(Fraction(2))
        return None

    def certified_weight_sum(self, form: TailForm) -> Optional[SumVerdict]:
        if _forms_match(form, tail_form(self.weights)):
            # every completed block contributes at least one unit
            return SumVerdict.diverges()
        inv = tail_form(seq_pow(self.target, -self.exponent))
        if _forms_match(form, inv):
            return SumVerdict.converges(Fraction(2))
        return None


@dataclass(frozen=True)
class SparseThresholdSet(SetExpr):
    target: ScalarSeq
    exponent: Fraction
    horizon: int = _MATERIALIZE_CAP

    def __post_init__(self):
        object.__setattr__(self, "exponent", Fraction(self.exponent))
        if is_bounded(self.target) is not False:
            raise CriterionHolds("a sparse threshold set needs an unbounded target")
        object.__setattr__(
            self,
            "_state",
            {
                "elements": [],
                "scan": 0,
                "k": 1,
                "pvals": _ChunkedValues(seq_pow(self.target, self.exponent)),
            },
        )

    def _advance(self, upto: int) -> None:
        st = self._state
        upto = min(upto, self.horizon)
        while st["scan"] < upto:
            lo = st["scan"] + 1
            hi = min(upto, lo + _CHUNK - 1)
            pv = st["pvals"].upto(hi)
            for n in range(lo, hi + 1):
                k = st["k"]
                if pv[n - 1] >= 2.0 ** k * k * k:
                    st["elements"].append(n)
                    st["k"] += 1
            st["scan"] = hi

    def elements_up_to(self, limit: int) -> list[int]:
        self._advance(limit)
        return [n for n in self._state["elements"] if n <= limit]

    def member_at(self, n):
        if n > self.horizon:
            return None
        return n in self.elements_up_to(n)

    def mask(self, horizon):
        m = np.zeros(horizon, dtype=bool)
        for n in self.elements_up_to(min(horizon, self.horizon)):
            m[n - 1] = True
        return m

    def sparse_elements(self):
        from .series import _GeomElements

        def gen():
            limit = 4096
            emitted = 0
            while limit <= self.horizon:
                elems = self.elements_up_to(limit)
                for e in elems[emitted:]:
                    yield e
                emitted = len(elems)
                limit *= 16
            return

        # thresholds double at every step, so for a power-family target the
        # selected indices grow at least geometrically
        return _GeomElements(gen, 1.2)

    def desc_pair(self):
        d = _Desc(_EP_EMPTY, frozenset({self}), frozenset())
        return d, d

    def slack_bound(self):
        return 0

    def to_text(self):
        return f"thresh({self.target.to_text()}; {_frac(self.exponent)})"

    def certified_weight_sum_seq(self, w) -> Optional[SumVerdict]:
        if w == seq_pow(self.target, -self.exponent):
            return SumVerdict.converges(Fraction(1))
        return None

    def certified_weight_sum(self, form: TailForm) -> Optional[SumVerdict]:
        inv = tail_form(seq_pow(self.target, -self.exponent))
        if _forms_match(form, inv):
            # a(n_k)**p >= 2**k * k**2, so the inverse sum stays below 1
            return SumVerdict.converges(Fraction(1))
        return None


def _frac(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
