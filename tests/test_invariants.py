"""Cross-module property sweeps over generated corpora."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fbasis import (
    Complement,
    Constant,
    GeometricIndex,
    Piecewise,
    PowerLog,
    Residue,
    Sampled,
    SetClass,
    SpikeSeq,
    Statistical,
    Summable,
    TailOp,
    check_admissible,
    classify_set,
    f_limit_scalar,
    lp,
    member,
    op_norm,
    parse_set_expr,
    sum_inverse_p_verdict,
    threshold_ge,
    trace_filter,
    weight_sum,
)
from fbasis.filters import witness_library
from fbasis.sequences import eval_at
from fbasis.series import partial_sum

from conftest import random_power_seq, random_set_expr
from norm_oracle import golden_section_norm

HARMONIC = PowerLog(1, Fraction(-1))


class TestStationaryTheoremSemantics:
    def test_convergence_passes_to_traces(self):
        # filter convergence is inherited by every trace on a stationary set
        cases = [
            (SpikeSeq(GeometricIndex(Fraction(2)), Constant(1)), Summable(HARMONIC)),
            (PowerLog(1, Fraction(-1)), Statistical()),
            (SpikeSeq(GeometricIndex(Fraction(3)), PowerLog(1, Fraction(1, 4))), Summable(HARMONIC)),
        ]
        carried = 0
        for x, F in cases:
            if f_limit_scalar(x, F, 0).kind != "converges":
                continue
            for I in witness_library():
                if classify_set(I, F) != SetClass.STATIONARY:
                    continue
                v = f_limit_scalar(x, trace_filter(F, I), 0)
                assert v.kind != "does-not-converge", (x, I.to_text())
                if v.kind == "converges":
                    carried += 1
        assert carried >= 4


class TestDivergenceSpotChecks:
    def test_partial_sums_grow_on_divergent_corpus(self):
        rng = random.Random(101)
        checked = 0
        for _ in range(40):
            s = random_set_expr(rng)
            alpha = Fraction(rng.randrange(0, 5), 4)
            w = PowerLog(1, -alpha)
            if weight_sum(s, w).kind != "diverges":
                continue
            small = partial_sum(s, w, 10 ** 3)
            big = partial_sum(s, w, 10 ** 5)
            assert big > small * 1.5 + 0.5, (s.to_text(), str(alpha))
            checked += 1
        assert checked >= 15


class TestPiecewiseAdmissibility:
    def test_unbounded_only_on_filter_small_set(self):
        geom = GeometricIndex(Fraction(2))
        a = Piecewise(((geom, PowerLog(1, Fraction(2))), (Complement(geom), Constant(2))))
        v = check_admissible(a, Summable(HARMONIC), 1)
        assert v.kind == "proved"

    def test_unbounded_on_filter_big_set(self):
        a = Piecewise(
            ((Residue(2, 0), PowerLog(1, Fraction(2))), (Residue(2, 1), Constant(2)))
        )
        v = check_admissible(a, Summable(HARMONIC), 1)
        assert v.kind == "refuted"
        assert v.certificate.inverse_p_sum.kind == "converges"
        assert v.certificate.inverse_p_sum.bound <= 2
        assert weight_sum(v.witness, HARMONIC).kind == "diverges"
        sums = v.witness.block_sums()
        assert len(sums) >= 2
        assert all(1.0 <= x <= 2.0 + 1e-12 for x in sums)


class TestNormConsistency:
    def test_numeric_path_matches_dual_exponent_closed_form(self):
        # independent derivation: the norm is (1 + U**q)**(1/q) with
        # U = |v|_p / b_{n+1} and q the dual exponent; the golden-section
        # oracle and op_norm must both agree with it
        rng = random.Random(71)
        for _ in range(12):
            n = rng.randrange(1, 5)
            b = tuple(0.2 + rng.random() * 2 for _ in range(n + 1))
            p = rng.choice([1.2, 1.5, 2.5, 3.0])
            T = TailOp(n, b, lp(p, 12))
            got = golden_section_norm(T)
            q = p / (p - 1.0)
            U = sum(x ** p for x in b[:n]) ** (1.0 / p) / b[n]
            want = (1.0 + U ** q) ** (1.0 / q)
            assert got == pytest.approx(want, abs=1e-9)
            assert got == pytest.approx(op_norm(T).value, abs=1e-9)


class TestWitnessAtomTexts:
    def test_greedy_text_reparses(self):
        from fbasis import nonadmissibility_witness

        w = nonadmissibility_witness(PowerLog(1, Fraction(2)), HARMONIC, 1)
        back = parse_set_expr(w.to_text())
        assert back == w
        assert back.materialized_blocks() == w.materialized_blocks()

    def test_thresh_text_reparses(self):
        from fbasis import Frechet

        v = check_admissible(PowerLog(1, Fraction(0), Fraction(1, 2)), Frechet(), 1)
        assert v.kind == "refuted"
        back = parse_set_expr(v.witness.to_text())
        assert back == v.witness

    def test_sampled_text_reparses(self):
        s = Sampled(frozenset({2, 5, 9}), 50)
        assert parse_set_expr(s.to_text()) == s

    def test_bad_witness_text_is_a_parse_error(self):
        from fbasis import ParseError

        # bounded target: the threshold set cannot be constructed
        with pytest.raises(ParseError):
            parse_set_expr("thresh(const(2); 1)")


class TestDescriptionSoundness:
    @staticmethod
    def _desc_mask(d, horizon):
        import numpy as np

        mask = np.zeros(horizon, dtype=bool)
        for r in d.ep.residues:
            start = r if r >= 1 else d.ep.modulus
            mask[start - 1 :: d.ep.modulus] = True
        for tok in d.plus:
            mask |= tok.mask(horizon)
        for tok in d.minus:
            mask &= ~tok.mask(horizon)
        return mask

    def test_under_over_bracket_membership(self):
        # lo-desc <= true set <= hi-desc beyond the finite slack bound
        import numpy as np

        rng = random.Random(333)
        horizon = 3000
        checked = 0
        for _ in range(120):
            s = random_set_expr(rng, depth=rng.randrange(0, 3))
            lo, hi = s.desc_pair()
            slack = s.slack_bound()
            if slack >= horizon:
                continue
            true = s.mask(horizon)[slack:]
            lo_m = self._desc_mask(lo, horizon)[slack:]
            hi_m = self._desc_mask(hi, horizon)[slack:]
            assert not np.any(lo_m & ~true), s.to_text()
            assert not np.any(true & ~hi_m), s.to_text()
            checked += 1
        assert checked >= 100


class TestHeadlineEquivalence:
    def test_divergent_targets_build_over_their_own_filter(self):
        # any target sequence above 1 with divergent reciprocal sum admits
        # the construction over its associated summable filter
        from fbasis import NotDivergent, associated_summable_filter, build_basis, l1
        from fbasis.basis_builder import defect_report

        rng = random.Random(63)
        built = 0
        for _ in range(30):
            a = random_power_seq(rng, beta_range=(0, 1))
            if any(float(eval_at(a, n)) <= 1 for n in range(1, 64)):
                continue
            try:
                F = associated_summable_filter(a)
            except NotDivergent:
                assert sum_inverse_p_verdict(a, 1).kind != "diverges"
                continue
            assert check_admissible(a, F, 1).kind == "proved"
            system = build_basis(a, l1(64), F, n_max=6)
            assert not system.warnings
            assert defect_report(system).within_unit
            built += 1
        assert built >= 10

    def test_proved_verdicts_divergent_on_library_stationary_sets(self):
        # soundness of the proved side, spot-checked over the witness library
        from fbasis import Summable

        cases = [
            (PowerLog(1, Fraction(1, 2)), Statistical(), 2),
            (PowerLog(1, Fraction(1, 2)), Summable(PowerLog(1, Fraction(-1, 2))), 1),
            (Constant(3), Summable(HARMONIC), 1),
        ]
        for a, F, p in cases:
            assert check_admissible(a, F, p).kind == "proved"
            for I in witness_library():
                if classify_set(I, F) not in (SetClass.MEMBER, SetClass.STATIONARY):
                    continue
                v = sum_inverse_p_verdict(a, p, I)
                assert v.kind != "converges", (a.to_text(), I.to_text())


class TestDefectVanishing:
    def test_bounded_targets_vanish_on_the_whole_family(self):
        from fbasis import Summable, build_basis, defect_report, l1, l2

        for space in (l1(64), l2(64)):
            sys_ = build_basis(Constant(2), space, Summable(HARMONIC), n_max=6)
            rep = defect_report(sys_)
            assert all(kind == "converges" for _, kind in rep.vanishing), rep.vanishing


@settings(max_examples=120, deadline=None)
@given(
    c_num=st.integers(1, 8),
    c_den=st.integers(1, 4),
    beta4=st.integers(-8, 8),
    t_num=st.integers(1, 50),
)
def test_threshold_membership_matches_direct_eval(c_num, c_den, beta4, t_num):
    seq = PowerLog(Fraction(c_num, c_den), Fraction(beta4, 4))
    t = t_num / 10.0
    got = threshold_ge(seq, t, horizon=10 ** 6)
    if got is None:
        return
    for n in [1, 2, 3, 5, 17, 100, 4096]:
        want = float(eval_at(seq, n)) >= t
        assert member(n, got) is want, (seq.to_text(), t, n)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_weight_sum_bound_soundness_hypothesis(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    s = random_set_expr(rng, depth=data.draw(st.integers(0, 2)))
    alpha = Fraction(data.draw(st.integers(2, 10)), 4)
    w = PowerLog(1, -alpha)
    v = weight_sum(s, w)
    if v.kind == "converges":
        assert partial_sum(s, w, 10 ** 4) <= float(v.bound) + 1e-9
