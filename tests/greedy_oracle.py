"""Per-index oracles for the scans of ``witnesses.GreedyBlockSet`` and
``witnesses.SparseThresholdSet``.

This is the plain loop the vectorized scan must agree with: indices are
examined one at a time in increasing order, and block m takes index n when
a(n)**p * s(n) > 2**m and the block's sum stays at most 2 with s(n) added.
The sum runs left to right from the block's first index, and the block is
complete once it reaches 1.  The threshold set takes n as its k-th element
when a(n)**p reaches 2**k * k**2.  Values come from one ``eval_vector``
call per sequence, the evaluation the scans are specified against.
"""

from __future__ import annotations

import math
import sys

from fbasis.sequences import eval_vector, seq_pow


def greedy_run(target, weights, p, horizon: int, count: int = -1):
    """The complete blocks below ``horizon`` (the first ``count`` of them
    with count >= 0), the indices of the block still open, each complete
    block's sum of s, the sum of a**-p over the complete blocks as it
    stands at each one's close, and the last index whose membership the
    values decide: the horizon, or the index before a product of nan, or
    the one that closed a block whose successor's threshold 2**m has no
    float.  Every sum is added one index at a time from 0.0."""
    s = eval_vector(weights, horizon)
    a = eval_vector(seq_pow(target, p), horizon)
    blocks: list[tuple[int, ...]] = []
    current: list[int] = []
    sums: list[float] = []
    inverse: list[float] = []
    total = inverse_total = 0.0
    m = 1
    known = horizon
    for n in range(1, horizon + 1):
        if len(blocks) == count:
            break
        s_n, a_n = float(s[n - 1]), float(a[n - 1])
        if math.isnan(a_n * s_n):
            known = n - 1
            break
        if a_n * s_n > 2.0 ** m and total + s_n <= 2.0:
            current.append(n)
            total += s_n
            inverse_total += 1.0 / a_n
            if total >= 1.0:
                blocks.append(tuple(current))
                sums.append(total)
                inverse.append(inverse_total)
                current, total, m = [], 0.0, m + 1
                if m >= sys.float_info.max_exp:
                    known = n
                    break
    return blocks, current, sums, inverse, known


def greedy_scan(target, weights, p, count: int, horizon: int):
    """The first ``count`` complete blocks below ``horizon`` (or as many as
    complete there), and the indices of the block still open."""
    blocks, current, *_ = greedy_run(target, weights, p, horizon, count)
    return blocks, current


def threshold_scan(target, p, horizon: int) -> list[int]:
    """The elements of the threshold set below ``horizon``, up to the first
    threshold 2**k * k**2 that has no float."""
    a = eval_vector(seq_pow(target, p), horizon)
    out: list[int] = []
    for n in range(1, horizon + 1):
        k = len(out) + 1
        try:
            bar = math.ldexp(k * k, k)
        except OverflowError:
            break
        if float(a[n - 1]) >= bar:
            out.append(n)
    return out
