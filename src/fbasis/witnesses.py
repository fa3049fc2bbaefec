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

import math
import sys
from fractions import Fraction
from typing import Optional

from ._lazy_numpy import np
from ._record import field, record
from .natset import (
    HorizonExceeded,
    SumVerdict,
    _KnownUpTo,
    _Desc,
    _DESC_EMPTY,
    _DESC_FULL,
    _EP_EMPTY,
)
from .reports import rational_text
from .sequences import (
    Piecewise,
    ScalarSeq,
    TailForm,
    _monotone_start,
    eval_at_indices,
    is_bounded,
    power_log_ln,
    seq_mul,
    seq_pow,
    tail_form,
    to_float,
)

_DEFAULT_BLOCKS = 8
_CERTIFICATE_BLOCKS = 2  # fewer is too thin a certificate
_MATERIALIZE_CAP = 10 ** 6
_CHUNK = 1 << 16


class CriterionHolds(Exception):
    """The boundedness criterion is satisfied, so no witness exists."""


def _form_key(f: Optional[TailForm]):
    """The tail form f, each number taken as its float, or past the float
    range as itself; None for None."""
    return f and (f.beta, f.gamma, f.start, [(i, x if 0.0 < (x := to_float(v)) < math.inf else v)
                                             for i, v in ((0, f.c),) + f.head])


def _certified(w, defining) -> Optional[SumVerdict]:
    """The verdict of the first (sequence, verdict) pair whose sequence w
    matches: structurally, or else, unless w is piecewise, by tail form.
    None with no match; a match returns its verdict, None included."""
    for seq, verdict in defining:
        if w == seq:
            return verdict()
    key = None if isinstance(w, Piecewise) else _form_key(tail_form(w))
    for seq, verdict in defining:
        if key is not None and key == _form_key(tail_form(seq)):
            return verdict()
    return None


class _ScannedSet(_KnownUpTo):
    """Scanned by ``_advance`` up to ``_state["known"]``: the horizon, or the
    last index before a threshold left the float range."""

    def known_up_to(self) -> int:
        self._advance(self.horizon)
        return self._state["known"]

    def _known(self) -> int:
        return self._state["known"]


@record
class GreedyBlockSet(_ScannedSet):
    """The greedy block set D of ``target``, ``weights`` and ``exponent``.

    Construction scans until the two blocks a certificate needs are complete
    and raises ``HorizonExceeded`` when they cannot complete below the
    horizon.  The count that ``materialized_blocks`` reports (up to eight)
    is found on its first call; the structural certificates and membership
    questions never need it, and scan only as far as they ask.
    """

    target: ScalarSeq  # the sequence a
    weights: ScalarSeq  # the filter weights s
    exponent: Fraction  # p
    horizon: int = _MATERIALIZE_CAP
    # summable_criterion's status, when the caller holds it; None: asked on first use
    criterion: Optional[str] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "exponent", Fraction(self.exponent))
        target_p = seq_pow(self.target, self.exponent)
        product = seq_mul(target_p, self.weights)
        object.__setattr__(
            self,
            "_state",
            {
                "product": tail_form(product) if product is not None else None,
                "blocks": [],  # completed blocks, index arrays
                "current": [],  # index arrays of the block being filled
                "current_sum": 0.0,
                "scan": 0,  # last examined index
                "m": 1,  # threshold exponent of the current block
                "known": self.horizon,  # membership is decided up to here
                "target_p": target_p,
                "count": None,  # blocks to materialize; None until asked
                "criterion": self.criterion,
            },
        )
        done = self._scan_for(_CERTIFICATE_BLOCKS)  # fail fast
        if done < _CERTIFICATE_BLOCKS:
            raise HorizonExceeded(f"only {done} greedy blocks complete below the horizon")

    # scanning ---------------------------------------------------------------

    def _advance(self, upto: int) -> None:
        """Examine indices up to ``upto`` (capped by the horizon)."""
        st = self._state
        upto = min(upto, st["known"])
        while st["scan"] < upto:
            lo = st["scan"] + 1
            hi = min(upto, lo + 4 * _CHUNK - 1)
            window = np.arange(lo, hi + 1)
            sv = eval_at_indices(self.weights, window)
            pv = eval_at_indices(st["target_p"], window)
            with np.errstate(over="ignore", invalid="ignore"):  # +inf passes any bar
                prod = pv * sv
            nan = np.isnan(prod)  # +inf times 0.0 says nothing: the scan ends before it
            if nan.any():
                cut = int(nan.argmax())
                st["known"] = upto = hi = lo + cut - 1
                prod, sv = prod[:cut], sv[:cut]
            pos = 0  # one past the index that closed the last block
            width = hi - lo + 1
            cand = None  # the offsets from pos on whose product passes the bar
            while pos < width:
                if st["m"] >= sys.float_info.max_exp:
                    # a value of +inf does not say whether a(n)**p s(n) passes
                    # a threshold 2**m past the float range: the scan ends here
                    st["known"] = upto = hi = lo + pos - 1
                    break
                bar = 2.0 ** st["m"]
                # the bar only rises inside a window: each block's candidates
                # are among the last block's
                cand = np.flatnonzero(prod > bar) if cand is None else cand[prod[cand] > bar]
                k = self._fill_block(cand, sv, lo)
                if k is None:
                    break
                pos = int(cand[k]) + 1
                cand = cand[k + 1 :]
            st["scan"] = hi

    def _fill_block(self, cand, sv, lo: int) -> Optional[int]:
        """Add the candidates at window offsets ``cand`` to the open block,
        in pieces of doubling length, up to the one that closes it: its
        position in ``cand``, or None when none does.

        The open block's sum c stays below 1: a term t <= 1 joins it, 1 < t
        <= 2 - c joins and closes it, a larger t is skipped and leaves c
        alone.  So c is the running sum of the small terms only, left to
        right from the block's first index, carried from piece to piece as
        from window to window, and the first small term that lifts it to 1
        closes the block unless a large term that fits comes first."""
        st = self._state
        start, reach = 0, 256
        while start < cand.size:
            piece = cand[start : start + reach]
            terms = sv[piece]
            small = terms <= 1.0
            csum = np.cumsum(np.concatenate(([st["current_sum"]], np.where(small, terms, 0.0))))
            k = int(np.searchsorted(csum[1:], 1.0))
            fits = np.flatnonzero(~small[:k] & (csum[:k] + terms[:k] <= 2.0))
            if fits.size:
                k = int(fits[0])
            elif k == len(terms):
                st["current"].append(lo + piece[small])
                st["current_sum"] = float(csum[-1])
                start, reach = start + reach, 2 * reach
                continue
            picked = small[: k + 1]
            picked[k] = True  # the closing term, small or not
            st["current"].append(lo + piece[: k + 1][picked])
            self._close_block()
            return start + k
        return None

    def _close_block(self) -> None:
        st = self._state
        st["blocks"].append(np.concatenate(st["current"]))
        st["current"] = []
        st["current_sum"] = 0.0
        st["m"] += 1

    def _scan_for(self, count: int) -> int:
        """Scan in growing windows until ``count`` blocks are complete, the
        horizon is reached, or no index left below it can join the open
        block; the number of complete blocks."""
        st = self._state
        while (len(st["blocks"]) < count and st["scan"] < st["known"]
               and not self._below_threshold_to_horizon()):
            self._advance(min(max(4096, st["scan"] * 4), st["scan"] + _CHUNK))
        return len(st["blocks"])

    def _below_threshold_to_horizon(self) -> bool:
        """Whether a(n)**p * s(n) provably stays below 2**m from the scan to
        the horizon, so that the open block cannot complete there: the
        product's tail form is monotone on that stretch, and at both ends its
        log is below m log 2 by far more than rounding."""
        st = self._state
        f = st["product"]
        lo = st["scan"] + 1
        n0 = _monotone_start(f) if f is not None else None
        if n0 is None or n0 > lo:
            return False
        top = max(power_log_ln(f.c, f.beta, f.gamma, n) for n in (lo, self.horizon))
        return top < st["m"] * math.log(2) - 1e-9

    # certificates ------------------------------------------------------------

    def _blocks(self) -> list:
        """The index arrays of the blocks ``materialized_blocks`` reports: as
        many as complete below the horizon, up to eight, counted on the first
        call.  The scan stops at the last block counted; later indices are
        scanned only when a membership question reaches them."""
        st = self._state
        if st["count"] is None:
            st["count"] = min(_DEFAULT_BLOCKS, self._scan_for(_DEFAULT_BLOCKS))
        return st["blocks"][: st["count"]]

    def materialized_blocks(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(blk.tolist()) for blk in self._blocks())

    def _member_values(self, seq: ScalarSeq) -> np.ndarray:
        """The values of ``seq`` at the members of the materialized blocks."""
        return eval_at_indices(seq, np.concatenate(self._blocks()))

    # Sums run left to right with the builtin sum, as the block scan adds;
    # numpy's pairwise sum would change the last bits.
    def block_sums(self) -> list[float]:
        ends = np.cumsum([blk.size for blk in self._blocks()])
        return [sum(v.tolist()) for v in np.split(self._member_values(self.weights), ends[:-1])]

    def prefix_inverse_sum(self) -> float:
        """Sum of a**(-p) over the materialized prefix of the set."""
        return sum((1.0 / self._member_values(self._state["target_p"])).tolist())

    # set protocol -------------------------------------------------------------

    def _members(self, limit: int) -> np.ndarray:
        self._advance(limit)
        st = self._state
        members = np.concatenate(st["blocks"] + st["current"] + [np.zeros(0, dtype=int)])
        return members[: np.searchsorted(members, limit, side="right")]

    def desc_pair(self):
        return _DESC_EMPTY, _DESC_FULL

    def slack_bound(self):
        return 0

    def to_text(self):
        return (
            f"greedy({self.target.to_text()}; {self.weights.to_text()}; "
            f"{rational_text(self.exponent)})"
        )

    def _weights_diverge(self) -> Optional[SumVerdict]:
        """``diverges`` when the summable criterion finds a**p * s unbounded,
        for then every block completes and adds a unit of s-mass; else None
        (summable weights, or an undecided criterion).  Asked once per set."""
        st = self._state
        if st["criterion"] is None:
            from .admissibility import summable_criterion  # it imports this module
            st["criterion"], _ = summable_criterion(self.target, self.weights, self.exponent)
        return SumVerdict.diverges() if st["criterion"] == "unbounded" else None

    def certified_weight_sum(self, w) -> Optional[SumVerdict]:
        # the s-sum diverges where every block completes; the blocks keep
        # the sum of a**(-p) below the sum of 2**(-m) * 2
        return _certified(w, ((self.weights, self._weights_diverge),
                              (seq_pow(self.target, -self.exponent),
                               lambda: SumVerdict.converges(Fraction(2)))))


def _first_reaching(values: np.ndarray, start: int, bar: float, reach: int) -> Optional[int]:
    """The first offset from ``start`` on where ``values`` reaches ``bar``, or
    None.  Searched in pieces of doubling length from ``reach`` on, as
    ``_fill_block`` walks its candidates: a hit g places past ``start``
    costs O(g + reach) comparisons, so elements each searched from the last
    gap on cost a few comparisons per index of the window."""
    while start < values.size:
        hit = np.flatnonzero(values[start : start + reach] >= bar)
        if hit.size:
            return start + int(hit[0])
        start, reach = start + reach, 2 * reach
    return None


@record
class SparseThresholdSet(_ScannedSet):
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
                "known": self.horizon,  # membership is decided up to here
                "target_p": seq_pow(self.target, self.exponent),
            },
        )

    def _advance(self, upto: int) -> None:
        st = self._state
        upto = min(upto, st["known"])
        while st["scan"] < upto:
            # one window at a time, each evaluated once: the next element is
            # the first index past the last one that reaches the current
            # threshold
            lo = st["scan"]
            hi = min(upto, lo + _CHUNK)
            pv = eval_at_indices(st["target_p"], np.arange(lo + 1, hi + 1))
            pos = gap = 0  # indices lo+1..lo+pos are decided; gap: the last step between elements
            while True:
                k = st["k"]
                if k + (k * k).bit_length() > sys.float_info.max_exp:
                    # a float value of +inf does not say whether a(n)**p
                    # reaches a threshold past the float range: the scan
                    # ends here
                    st["known"] = upto = hi = lo + pos
                    break
                at = _first_reaching(pv, pos, math.ldexp(k * k, k), max(gap, 1))  # 2**k * k**2
                if at is None:
                    break
                gap, pos = at + 1 - pos, at + 1
                st["elements"].append(lo + pos)
                st["k"] += 1
            st["scan"] = hi

    def _members(self, limit: int) -> np.ndarray:
        self._advance(limit)
        elements = np.array(self._state["elements"], dtype=int)
        return elements[: np.searchsorted(elements, limit, side="right")]

    def desc_pair(self):
        d = _Desc(_EP_EMPTY, frozenset({self}), frozenset())
        return d, d

    def slack_bound(self):
        return 0

    def to_text(self):
        return f"thresh({self.target.to_text()}; {rational_text(self.exponent)})"

    def certified_weight_sum(self, w) -> Optional[SumVerdict]:
        # a(n_k)**p >= 2**k * k**2, so the inverse sum stays below 1
        return _certified(w, ((seq_pow(self.target, -self.exponent),
                               lambda: SumVerdict.converges(Fraction(1))),))
