"""The greedy block scan against per-index oracles."""

import json
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbasis import (
    Constant,
    ExplicitPrefix,
    Frechet,
    Piecewise,
    PowerLog,
    Residue,
    Sampled,
    SetClass,
    classify_set,
    member,
    weight_sum,
)
from fbasis import admissibility, witnesses
from fbasis.cli import load_config, run_command
from fbasis.natset import HorizonExceeded, SumVerdict
from fbasis.parsing import parse_scalar_seq, parse_set_expr
from fbasis.sequences import seq_pow
from fbasis.series import partial_sum
from fbasis.witnesses import GreedyBlockSet, SparseThresholdSet

import witness_hook_oracle
from greedy_oracle import greedy_run, greedy_scan, threshold_scan

HARMONIC = PowerLog(1, Fraction(-1))

fractions = st.builds(Fraction, st.integers(1, 8), st.integers(1, 4))
eighths = st.builds(Fraction, st.integers(1, 24), st.just(8))


@st.composite
def targets(draw):
    gamma = draw(st.sampled_from((0, 0, Fraction(-1), Fraction(-1, 2), Fraction(1, 2), 1, 3)))
    tail = PowerLog(draw(fractions), draw(eighths), gamma)
    head = draw(st.lists(fractions, max_size=3))
    return ExplicitPrefix(tuple(head), tail) if head else tail


@st.composite
def weights(draw):
    alpha = Fraction(draw(st.integers(1, 4)), 4)
    tail = PowerLog(draw(st.sampled_from((1, Fraction(1, 2), 2))), -alpha)
    if draw(st.booleans()):
        # one residue class mod q takes a constant up to 3, so that terms
        # above one, which a block may pick or skip, run through the tail
        q = draw(st.integers(2, 4))
        r = draw(st.integers(0, q - 1))
        v = Constant(draw(st.builds(Fraction, st.integers(1, 12), st.just(4))))
        tail = Piecewise(tuple((Residue(q, i), v if i == r else tail) for i in range(q)))
    # a head above one as well
    head = draw(st.lists(st.builds(Fraction, st.integers(1, 6), st.just(2)), max_size=4))
    return ExplicitPrefix(tuple(head), tail) if head else tail


exponents = st.sampled_from((Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)))


def _built_at(horizon, kind, *args):
    """``kind(*args)``, a greedy or threshold set, scanned up to ``horizon``
    in place of ``DEFAULT_HORIZON``: each set reads it once, when built."""
    with mock.patch.object(witnesses, "DEFAULT_HORIZON", horizon):
        return kind(*args)


def _tuples(blocks):
    """Index arrays as tuples of ints, as the oracle lists blocks."""
    return tuple(tuple(b.tolist()) for b in blocks)


def _assert_matches_oracle(a, s, p, horizon):
    want, _, sums, inverse, known = greedy_run(a, s, p, horizon)
    if len(want) < 2:
        with pytest.raises(HorizonExceeded):
            _built_at(horizon, GreedyBlockSet, a, s, p)
        return None
    g = _built_at(horizon, GreedyBlockSet, a, s, p)
    count = min(8, len(want))
    assert _tuples(g.materialized_blocks()) == tuple(want[:count])
    # the sums add left to right, one index at a time, as the oracle's loop
    assert g.block_sums() == sums[:count]
    assert g.prefix_inverse_sum() == inverse[count - 1]
    # a membership question first scans to the horizon; the count found
    # afterwards takes the same blocks
    asked = _built_at(horizon, GreedyBlockSet, a, s, p)
    asked.mask(horizon)
    assert _tuples(asked.materialized_blocks()) == tuple(want[:count])
    assert asked.block_sums() == sums[:count]
    assert asked.prefix_inverse_sum() == inverse[count - 1]
    assert asked.known_up_to() == known
    return g


@settings(max_examples=60, deadline=None)
@given(a=targets(), s=weights(), p=exponents, horizon=st.integers(1, 20_000))
def test_blocks_match_the_per_index_scan(a, s, p, horizon):
    _assert_matches_oracle(a, s, p, horizon)


@st.composite
def turning_targets(draw):
    """c n**beta ln(n+1)**gamma with beta > 0 and gamma < 0: it falls while
    beta ln(n+1) is below about -gamma, then rises, so with falling weights
    the product a**p s can cross a block's bar, drop below it and cross it
    again inside one scan window."""
    tail = PowerLog(draw(fractions), draw(eighths), -draw(st.integers(1, 6)))
    head = draw(st.lists(st.builds(Fraction, st.integers(1, 400)), max_size=3))
    return ExplicitPrefix(tuple(head), tail) if head else tail


@settings(max_examples=60, deadline=None)
@given(a=st.one_of(targets(), turning_targets()), s=weights(), p=exponents,
       horizon=st.integers(1, 40_000))
def test_blocks_sums_and_horizon_match_the_per_index_loop(a, s, p, horizon):
    """Blocks, ``known_up_to``, the block sums (bit for bit) and the inverse
    prefix sum agree with the per-index loop of ``greedy_oracle``, on
    residue-piecewise weights with terms above 1 and on products that turn
    inside a window, so that a block's candidates have gaps."""
    _assert_matches_oracle(a, s, p, horizon)


def test_a_summable_weight_is_bounded_by_the_members_below_the_horizon():
    """greedy(pow(1,5); pow(100,-2); 1) holds every n >= 8 below its
    horizon; the sum of its own summable weight over it is the members' sum
    (13.31 at horizon 10**6) plus the tail past the horizon, not the
    weight's whole sum 164.49."""
    a, s, horizon = PowerLog(1, 5), PowerLog(100, -2), 20_000
    blocks, open_block, *_ = greedy_run(a, s, 1, horizon)
    members = [n for blk in blocks for n in blk] + open_block
    want = math.fsum(100 / n ** 2 for n in members)
    got = weight_sum(_built_at(horizon, GreedyBlockSet, a, s, 1), s)
    assert got.kind == "converges"
    assert want <= got.bound <= want * (1 + 1e-9) + 100 / horizon
    code, out = run_command(load_config([
        "profile-lemma1", "--seq", "pow(1,1/2)", "--grid", "10,100",
        "--vectors", "spike(greedy(pow(1,5); pow(100,-2); 1); pow(100,-2))"]))
    assert code == 0 and 2.6 < json.loads(out)["rows"][0][2] < 2.7  # 32.76 from the whole sum


@settings(max_examples=20, deadline=None)
@given(a=targets(), s=weights(), p=exponents, horizon=st.integers(4097, 20_000))
def test_membership_past_the_reported_blocks(a, s, p, horizon):
    """Indices past the last reported block are scanned on demand, with the
    same blocks as one scan to the horizon."""
    try:
        g = _built_at(horizon, GreedyBlockSet, a, s, p)
    except HorizonExceeded:
        return
    every, open_block = greedy_scan(a, s, p, horizon, horizon)
    members = [n for blk in every for n in blk] + open_block
    assert (np.flatnonzero(g.mask(horizon)) + 1).tolist() == members


def test_membership_questions_match_the_per_index_scan():
    """member() scans on demand and knows nothing past the horizon; a sum the
    blocks do not certify falls back to the members below the horizon."""
    a, horizon = PowerLog(1, 2), 4096
    g = _built_at(horizon, GreedyBlockSet, a, HARMONIC, 1)
    every, open_block = greedy_scan(a, HARMONIC, 1, horizon, horizon)
    members = [n for blk in every for n in blk] + open_block
    assert [n for n in range(1, horizon + 1) if member(n, g)] == members
    assert member(horizon + 1, g) is None
    assert classify_set(g, Frechet()) == SetClass.INCONCLUSIVE
    assert weight_sum(g, Constant(1)) == SumVerdict.inconclusive()
    assert partial_sum(g, Constant(1)).partial == len(members)


def test_coefficients_past_the_float_range_saturate():
    """a(n)**p = 10**800 n**2 has no float; as +inf it passes every threshold,
    as 10**200 n**2 does up to the horizon, so the blocks are those."""
    huge = GreedyBlockSet(PowerLog(10 ** 400, 1), HARMONIC, 2)
    large = _assert_matches_oracle(PowerLog(10 ** 100, 1), HARMONIC, Fraction(2), 20_000)
    assert _tuples(huge.materialized_blocks()) == _tuples(large.materialized_blocks())
    assert huge.block_sums() == large.block_sums()
    assert huge.prefix_inverse_sum() == 0.0


def test_huge_coefficients_with_falling_values_match_the_scan():
    """a(n) s(n) = 10**309 ln(n+1)**-380 has no float at the first indices,
    and falls below 2**7 for good within a thousand: six blocks."""
    g = _assert_matches_oracle(PowerLog(10 ** 309, 2, -380), HARMONIC, Fraction(1), 20_000)
    assert len(g.materialized_blocks()) == 6


def test_scan_ends_before_a_product_of_saturated_values():
    """Past index 1000, a(n) s(n) = sqrt(n) but a(n) = 10**400 n saturates to
    +inf and s(n) = 10**-400 n**-1/2 to 0.0: their float product is nan and
    says nothing about the bar, so membership is known up to 1000 only."""
    big, small = "1" + "0" * 400, "0." + "0" * 399 + "1"
    a = parse_scalar_seq(f"piece{{range(1,1000) => pow(1,2); range(1001,) => pow({big},1)}}")
    s = parse_scalar_seq(
        f"piece{{range(1,1000) => pow(1,-1); range(1001,) => pow({small},-1/2)}}")
    g = GreedyBlockSet(a, s, 1)
    assert [blk[-1] for blk in g.materialized_blocks()] == [7, 20, 56, 154, 420]
    assert g.known_up_to() == 1000
    assert member(1000, g) is True
    assert member(1001, g) is None and member(5000, g) is None
    assert weight_sum(g, Constant(1)).kind == "inconclusive"


def test_thresh_stops_where_its_thresholds_leave_the_float_range():
    """n**60 reaches 2**k k**2 for k = 1, ..., 1004 by index 137181; past
    that the next threshold has no float, so membership is known no further."""
    t = SparseThresholdSet(PowerLog(1, 60), 1)
    with pytest.raises(HorizonExceeded):
        t.mask(10 ** 6)
    known = t.known_up_to()
    want, k = [], 1
    for n in range(1, known + 1):
        if n ** 60 >= 2 ** k * k * k:
            want.append(n)
            k += 1
    assert len(want) == 1004 and 2.0 ** 1005 * 1005 ** 2 == math.inf
    assert (np.flatnonzero(t.mask(known)) + 1).tolist() == want
    assert member(known, t) is True and member(known + 1, t) is None
    assert weight_sum(t, HARMONIC).kind == "inconclusive"
    v = partial_sum(t, HARMONIC)
    assert (v.kind, v.horizon) == ("inconclusive", known)
    assert v.partial == pytest.approx(math.fsum(1 / n for n in want), rel=1e-12)


def test_thresh_membership_matches_a_direct_scan():
    # a(n)**p = n**4 reaches 2**k k**2 first at n = 2, 3, 4, 5, 7, ...
    t = _built_at(200, SparseThresholdSet, PowerLog(1, 2), 2)
    want, k = [], 1
    for n in range(1, 201):
        if n ** 4 >= 2 ** k * k * k:
            want.append(n)
            k += 1
    assert [n for n in range(1, 201) if member(n, t)] == want
    assert member(201, t) is None


def test_a_set_built_at_another_horizon_equals_the_parse_of_its_text():
    """A set's fields are the ones its text shows, the horizon none of them:
    the parse of its text is equal, and scans to ``DEFAULT_HORIZON``."""
    assert list(GreedyBlockSet.__annotations__) == ["target", "weights", "exponent", "criterion"]
    assert list(SparseThresholdSet.__annotations__) == ["target", "exponent"]
    for built in (_built_at(20_000, GreedyBlockSet, PowerLog(1, 2), HARMONIC, 1),
                  _built_at(200, SparseThresholdSet, PowerLog(1, 2), 2)):
        back = parse_set_expr(built.to_text())
        assert back == built and hash(back) == hash(built)
        assert back.known_up_to() == 10 ** 6 > built.known_up_to()


@pytest.mark.parametrize("target,p,horizon", [
    (PowerLog(1, 60), 1, 10 ** 6),  # 1,004 elements below 137,181, many per window
    (PowerLog(1, 2), 2, 5000),
    (PowerLog(3, Fraction(1, 2), 2), 3, 300_000),
    (ExplicitPrefix((5, 1, 40), PowerLog(1, 3)), 1, 100_000),
    (Piecewise(((Residue(2, 0), PowerLog(1, 8)), (Residue(2, 1), PowerLog(2, 6)))), 2, 200_000),
], ids=["pow60", "pow2", "powlog", "prefix", "piecewise"])
def test_thresh_elements_match_the_per_index_scan(target, p, horizon):
    want = threshold_scan(target, p, horizon)
    t = _built_at(horizon, SparseThresholdSet, target, p)
    known = t.known_up_to()
    assert known == (horizon if known == horizon else want[-1])
    assert (np.flatnonzero(t.mask(known)) + 1).tolist() == [n for n in want if n <= known]
    # asked in steps, the windows end elsewhere: the same elements
    stepped = _built_at(horizon, SparseThresholdSet, target, p)
    for limit in (7, 1000, 70_001, known):
        member(min(limit, known), stepped)
    assert stepped.known_up_to() == known
    assert (np.flatnonzero(stepped.mask(known)) + 1).tolist() == [n for n in want if n <= known]


class _Counted(np.ndarray):
    """An array that counts the values its ``>=`` compares."""

    compared = 0

    def __ge__(self, other):
        _Counted.compared += self.size
        return np.greater_equal(np.asarray(self), other)


def test_thresh_compares_each_scanned_index_a_few_times(monkeypatch):
    """The threshold scan searches each element from the last one on in
    pieces of doubling length: the values it compares add up to a small
    multiple of the indices it scans, however many elements a window holds."""
    evaluate = witnesses.eval_at_indices
    monkeypatch.setattr(witnesses, "eval_at_indices",
                        lambda a, n: evaluate(a, n).view(_Counted))
    monkeypatch.setattr(_Counted, "compared", 0)
    known = SparseThresholdSet(PowerLog(1, 60), 1).known_up_to()
    assert known == 137_181
    assert 0 < _Counted.compared <= 4 * known


def test_readme_witness_stops_after_its_blocks():
    g = GreedyBlockSet(PowerLog(1, 2), HARMONIC, 1)
    blocks = g.materialized_blocks()
    assert len(blocks) == 8
    assert _tuples(blocks) == tuple(greedy_scan(PowerLog(1, 2), HARMONIC, 1, 8, 65_536)[0])
    # its last block runs across the first scan window, which ends at 4096
    assert any(blk[0] <= 4096 < blk[-1] for blk in blocks)
    assert g._state["scan"] <= 65_536


@pytest.mark.parametrize("a,s,p,want", [
    (PowerLog(1, 2), HARMONIC, 1, "diverges"),  # the README witness
    (PowerLog(Fraction(3, 2), 1), PowerLog(1, Fraction(-2, 3)), 1, "diverges"),
    # a**p s = 100 n**3 is unbounded, but s is summable: finitely many blocks
    (PowerLog(1, 5), PowerLog(100, -2), 1, None),
])
def test_weights_diverge_only_where_the_criterion_is_unbounded(monkeypatch, a, s, p, want):
    calls = []
    criterion = admissibility.summable_criterion
    monkeypatch.setattr(admissibility, "summable_criterion",
                        lambda *args: calls.append(args) or criterion(*args))
    g = GreedyBlockSet(a, s, p)
    got = [g.certified_weight_sum(s), g.certified_weight_sum(ExplicitPrefix((), s)),
           weight_sum(g, s)]
    assert [v and v.kind for v in got[:2]] == [want, want]
    assert got[2].kind == (want or "converges")  # else bounded by the full sum of s
    assert len(calls) == 1  # once per set, whichever branch asks
    assert g.certified_weight_sum(seq_pow(a, -p)).kind == "converges"
    assert len(calls) == 1  # and never on the inverse-p branch
    if want is not None:
        calls.clear()
        built = admissibility.nonadmissibility_witness(a, s, p)
        assert weight_sum(built, s).kind == want
        assert len(calls) == 1  # the set reuses the criterion it was built on


def test_construction_scans_for_two_blocks_only():
    """a(n) s(n) = 3/2 n**(1/3): seven blocks complete below the horizon, so
    the count that ``witness`` prints scans until no later index can join an
    eighth; building the set for a certificate stops at the second block."""
    a, s = PowerLog(Fraction(3, 2), 1), PowerLog(1, Fraction(-2, 3))
    g = GreedyBlockSet(a, s, 1)
    assert g._state["scan"] <= 4096
    blocks = g.materialized_blocks()
    assert _tuples(blocks) == tuple(greedy_scan(a, s, 1, 8, 10 ** 6)[0])
    assert len(blocks) == 7 and g._state["scan"] > 65_536


def test_weights_above_one_match_the_per_index_scan():
    s = ExplicitPrefix((Fraction(3), Fraction(5, 2), Fraction(3, 2), Fraction(1, 2)), HARMONIC)
    g = _assert_matches_oracle(PowerLog(1, 2), s, Fraction(1), 20_000)
    assert len(g.materialized_blocks()) == 8


def test_dyadic_ties_in_the_block_sum():
    """Exact sums decide: 1/2 + 3/2 == 2 joins and closes block 1, 1/4 + 3/4
    reaches exactly 1 and closes block 2, 3/2 > 2 - 3/4 is skipped before
    1/4 closes block 3, and 2 alone closes block 4 before 5/2 is skipped."""
    head = tuple(Fraction(v) for v in ("1/2", "3/2", "1/4", "3/4", "3/4", "3/2", "1/4",
                                       "2", "5/2"))
    s = ExplicitPrefix(head, HARMONIC)
    g = _assert_matches_oracle(Constant(2 ** 40), s, Fraction(1), 20_000)
    assert _tuples(g.materialized_blocks()[:4]) == ((1, 2), (3, 4), (5, 7), (8,))
    assert g.block_sums()[:4] == [2.0, 1.0, 1.0, 2.0]
    assert g.materialized_blocks()[4][0] == 10


def test_adaptive_count_below_eight():
    # a(n) s(n) = n**(1/2) passes 2**m at n = 4**m, so below 20000 only
    # seven blocks can start
    g = _assert_matches_oracle(PowerLog(1, 1), PowerLog(1, Fraction(-1, 2)), Fraction(1),
                               20_000)
    assert len(g.materialized_blocks()) == 7


def test_scan_stops_once_no_index_can_join_a_block():
    # a(n) s(n) = 4 n**(1/4) passes 2**7 only past 32**4 > 200000, so once
    # block 6 is complete the scan ends without reaching the horizon
    a, s = PowerLog(4, Fraction(3, 4)), PowerLog(1, Fraction(-1, 2))
    g = _assert_matches_oracle(a, s, Fraction(1), 200_000)
    assert len(g.materialized_blocks()) == 6
    assert g._state["scan"] < 200_000


@pytest.mark.parametrize("a,p", [
    (PowerLog(4, Fraction(1, 8)), Fraction(2)),  # a(n) s(n) falls
    (PowerLog(4, Fraction(1, 8), 3), Fraction(1)),  # it rises, then falls
])
def test_scan_goes_on_while_an_index_can_join(a, p):
    _assert_matches_oracle(a, HARMONIC, p, 20_000)


def test_a_piecewise_witness_evaluates_each_piece_on_its_own_members():
    """Nested piecewise weights: each scan window is evaluated once, each
    piece only at its own members, and the partial sum only at the set's."""
    big = "1" + "0" * 400
    weights = (f"piece{{residue(2,0) => pow(1/100,5/4); residue(2,1) => piece{{"
               f"residue(2,0) => powlog({big},60,-400); residue(2,1) => powlog(1/100,-1,-1/2)}}}}")
    config = load_config(["witness", "--seq", "pow(2,1/2)", "--weights", weights, "--p", "1"])
    tracemalloc.start()
    try:
        code, _ = run_command(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert peak < 16 * 2 ** 20


def _related(draw, defining):
    """A sequence drawn from the defining sequences of a witness set, their
    prefix[...] and piece{...} variants, and unrelated sequences."""
    base = draw(st.sampled_from(defining + (PowerLog(1, -2), Constant(1), PowerLog(3, 1, -1))))
    other = draw(st.sampled_from(defining + (PowerLog(1, -2),)))
    return draw(st.sampled_from((
        base,
        ExplicitPrefix((), base),  # the same tail form, structurally other
        ExplicitPrefix((draw(fractions),), base),
        Piecewise(((Residue(2, 0), base), (Residue(2, 1), other))),
        Piecewise(((Residue(1, 0), base),)),
    )))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), a=targets(), s=weights(), p=exponents,
       greedy=st.booleans(), horizon=st.integers(1, 20_000))
def test_weight_sums_match_the_two_old_hooks(data, a, s, p, greedy, horizon):
    """``certified_weight_sum(w)`` answers every sum over a witness set as the
    old structural and tail-form hooks, asked in their old order, did."""
    try:
        t = (_built_at(horizon, GreedyBlockSet, a, s, p) if greedy
             else _built_at(horizon, SparseThresholdSet, a, p))
    except HorizonExceeded:
        return
    defining = (s, seq_pow(a, -p)) if greedy else (seq_pow(a, -p),)
    for w in [_related(data.draw, defining) for _ in range(3)] + list(defining):
        got = weight_sum(t, w)
        with mock.patch.object(type(t), "certified_weight_sum", witness_hook_oracle.hook):
            assert weight_sum(t, w) == got, w


@settings(max_examples=60, deadline=None)
@given(data=st.data(), kind=st.sampled_from(("sampled", "greedy", "greedy", "thresh")),
       horizon=st.integers(1, 20_000))
def test_sets_known_up_to_a_horizon_answer_alike(data, kind, horizon):
    """Sampled, greedy and threshold sets answer membership from one path:
    as the per-index oracles up to the horizon, None from ``member_at`` and
    ``HorizonExceeded`` from ``mask`` past it, at limits asked in any order."""
    if kind == "sampled":
        want = sorted(data.draw(st.frozensets(st.integers(1, horizon), max_size=50)))
        t = Sampled(frozenset(want), horizon)
    else:
        a, p = data.draw(targets()), data.draw(exponents)
        if kind == "thresh":
            t = _built_at(horizon, SparseThresholdSet, a, p)
            want = threshold_scan(a, p, horizon)
        else:
            s = data.draw(weights())
            try:
                t = _built_at(horizon, GreedyBlockSet, a, s, p)
            except HorizonExceeded:
                return
            every, open_block = greedy_scan(a, s, p, horizon, horizon)
            want = [n for blk in every for n in blk] + open_block
    for limit in data.draw(st.lists(st.integers(1, 2 * horizon + 2), min_size=1, max_size=6)):
        if limit > horizon:
            assert member(limit, t) is None
            with pytest.raises(HorizonExceeded):
                t.mask(limit)
        else:
            assert member(limit, t) is (limit in want)
            got = t.mask(limit)
            assert got.shape == (limit,) and got.dtype == bool
            assert (np.flatnonzero(got) + 1).tolist() == [n for n in want if n <= limit]
    if kind == "sampled":
        assert not hasattr(t, "known_up_to")
    else:
        assert t.known_up_to() == horizon


def test_a_greedy_mask_holds_its_members_in_one_integer_array():
    """The mask of 99,998 greedy members takes the mask itself and one array
    of 8-byte indices at its peak, with no Python list of the members."""
    g = _built_at(100_000, GreedyBlockSet, PowerLog(1, 2), HARMONIC, 1)
    assert g.known_up_to() == 100_000  # scanned first: the mask alone is measured
    tracemalloc.start()
    try:
        m = g.mask(100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    count = int(m.sum())
    assert count == 99_998
    assert peak < 100_001 + 12 * count


def test_greedy_membership_reads_one_member_array(monkeypatch):
    """200 membership questions on the README greedy set, scanned to its
    horizon first, build its member array at most once between them, and
    answer as the per-index scan does."""
    g = GreedyBlockSet(PowerLog(1, 2), HARMONIC, 1)
    assert g.known_up_to() == 10 ** 6
    joins = []
    concatenate = np.concatenate
    monkeypatch.setattr(np, "concatenate", lambda *a, **k: joins.append(1) or concatenate(*a, **k))
    indices = list(range(1, 101)) + list(range(400, 40_001, 400))
    got = [member(n, g) for n in indices]
    monkeypatch.undo()
    assert len(indices) == 200 and len(joins) <= 1
    blocks, current = greedy_scan(PowerLog(1, 2), HARMONIC, 1, 40_000, 40_000)
    members = {n for block in blocks for n in block} | set(current)
    assert got == [n in members for n in indices]
    assert True in got and False in got
