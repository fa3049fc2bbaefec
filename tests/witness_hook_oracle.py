"""The two certificate hooks each witness set had before ``certified_weight_sum(w)``.

``GreedyBlockSet`` and ``SparseThresholdSet`` each answered a weighted sum
over themselves through a structural hook, ``certified_weight_sum_seq(w)``,
and a tail-form hook, ``certified_weight_sum(form)``.  ``series.weight_sum``
asked the structural hook first, then, for a sequence that is not piecewise
and has a tail form, the form hook; ``sparse_token_sum`` asked the form hook
of a sparse token.  The four methods and their form comparison are below
as they were, bodies unedited, each method taking the set as ``self``.
``hook`` composes them in that order, as one ``certified_weight_sum(w)`` to
patch in for the new one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from fbasis.natset import SumVerdict
from fbasis.sequences import Piecewise, TailForm, seq_pow, tail_form, to_float
from fbasis.witnesses import GreedyBlockSet


def _forms_match(a: Optional[TailForm], b: Optional[TailForm]) -> bool:
    """Equal forms, each number taken as its float, or past the float range
    as itself."""
    def key(f):
        return (f.beta, f.gamma, f.start, [(i, x if 0.0 < (x := to_float(v)) < math.inf else v)
                                           for i, v in ((0, f.c),) + f.head])

    return a is not None and b is not None and key(a) == key(b)


class _Greedy:
    def certified_weight_sum_seq(self, w) -> Optional[SumVerdict]:
        """Structural match against the defining sequences (covers the
        piecewise case the reduced form cannot express)."""
        if w == self.weights:
            return self._weights_diverge()
        if w == seq_pow(self.target, -self.exponent):
            return SumVerdict.converges(Fraction(2))
        return None

    def certified_weight_sum(self, form: TailForm) -> Optional[SumVerdict]:
        if _forms_match(form, tail_form(self.weights)):
            return self._weights_diverge()
        inv = tail_form(seq_pow(self.target, -self.exponent))
        if _forms_match(form, inv):
            return SumVerdict.converges(Fraction(2))
        return None


class _Thresh:
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


def hook(self, w) -> Optional[SumVerdict]:
    """The old hooks of ``self``'s class, asked as ``weight_sum`` asked them."""
    pair = _Greedy if isinstance(self, GreedyBlockSet) else _Thresh
    v = pair.certified_weight_sum_seq(self, w)
    if v is not None or isinstance(w, Piecewise):
        return v
    form = tail_form(w)
    return None if form is None else pair.certified_weight_sum(self, form)
