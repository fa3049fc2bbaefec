"""A per-index oracle for the greedy block scan of ``witnesses.GreedyBlockSet``.

This is the plain loop the vectorized scan must agree with: indices are
examined one at a time in increasing order, and block m takes index n when
a(n)**p * s(n) > 2**m and the block's sum stays at most 2 with s(n) added.
The sum runs left to right from the block's first index, and the block is
complete once it reaches 1.  Values come from one ``eval_vector`` call per
sequence, the evaluation the scan is specified against.
"""

from __future__ import annotations

from fbasis.sequences import eval_vector, seq_pow


def greedy_scan(target, weights, p, count: int, horizon: int):
    """The first ``count`` complete blocks below ``horizon`` (or as many as
    complete there), and the indices of the block still open."""
    s = eval_vector(weights, horizon)
    a = eval_vector(seq_pow(target, p), horizon)
    blocks: list[tuple[int, ...]] = []
    current: list[int] = []
    total = 0.0
    m = 1
    for n in range(1, horizon + 1):
        if len(blocks) == count:
            break
        s_n = float(s[n - 1])
        if float(a[n - 1]) * s_n > 2.0 ** m and total + s_n <= 2.0:
            current.append(n)
            total += s_n
            if total >= 1.0:
                blocks.append(tuple(current))
                current, total, m = [], 0.0, m + 1
    return blocks, current
