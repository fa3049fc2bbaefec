import math
import random
from fractions import Fraction

import pytest

from fbasis import (
    Constant,
    CriterionHolds,
    Frechet,
    GeometricIndex,
    NATURALS,
    NotDivergent,
    PowerLog,
    Residue,
    SetClass,
    Statistical,
    Summable,
    admissibility_band,
    associated_summable_filter,
    check_admissible,
    classify_set,
    nonadmissibility_witness,
    slow_certificate,
    sum_inverse_p_verdict,
    trace_filter,
    weight_sum,
)
from fbasis.filters import not_negligible
from fbasis.sequences import is_bounded
from fbasis.witnesses import GreedyBlockSet

from conftest import random_power_seq

SQRT_N = PowerLog(1, Fraction(1, 2))
LINEAR = PowerLog(1, Fraction(1))
HARMONIC = PowerLog(1, Fraction(-1))


def assert_sound_refutation(a, F, p, verdict):
    """Every refutation witness must be stationary in the wide sense and
    carry a convergent inverse-p sum."""
    assert verdict.kind == "refuted"
    W = verdict.witness
    if isinstance(F, Summable):
        assert weight_sum(W, F.weights).kind == "diverges" or (
            classify_set(W, F) in (SetClass.MEMBER, SetClass.STATIONARY)
        )
    else:
        assert not_negligible(W, F) is True
    assert sum_inverse_p_verdict(a, p, W).kind == "converges"


class TestCriteria:
    def test_statistical_sqrt_proved(self):
        v = check_admissible(SQRT_N, Statistical(), 2)
        assert v.kind == "proved"

    def test_linear_refuted_globally(self):
        for F in (Statistical(), Frechet(), Summable(HARMONIC)):
            v = check_admissible(LINEAR, F, 2)
            assert v.kind == "refuted"
            assert v.witness == NATURALS
            assert_sound_refutation(LINEAR, F, 2, v)

    def test_refutation_sums_each_witness_once(self, monkeypatch):
        from fbasis import admissibility

        seen = []
        inner = admissibility.sum_inverse_p_verdict

        def counted(a, p, I=NATURALS, *args):
            seen.append(I)
            return inner(a, p, I, *args)

        monkeypatch.setattr(admissibility, "sum_inverse_p_verdict", counted)
        assert check_admissible(LINEAR, Frechet(), 2).kind == "refuted"
        assert seen == [NATURALS]
        seen.clear()
        assert check_admissible(SQRT_N, Frechet(), 1).kind == "refuted"
        assert seen == [NATURALS, GeometricIndex(Fraction(2))]

    def test_summable_prop_proved(self):
        v = check_admissible(SQRT_N, Summable(PowerLog(1, Fraction(-1, 2))), 1)
        assert v.kind == "proved"

    def test_bounded_always_proved(self):
        for F in (Frechet(), Statistical(), Summable(HARMONIC)):
            assert check_admissible(Constant(5), F, 1).kind == "proved"

    def test_frechet_boundedness_coherence(self):
        rng = random.Random(17)
        proved = refuted = 0
        for _ in range(100):
            a = random_power_seq(rng, beta_range=(-1, 2))
            b = is_bounded(a)
            v = check_admissible(a, Frechet(), 1)
            if b is True:
                assert v.kind == "proved"
                proved += 1
            elif b is False:
                assert v.kind != "proved"
                if v.kind == "refuted":
                    assert_sound_refutation(a, Frechet(), 1, v)
                    refuted += 1
        assert proved >= 20 and refuted >= 20

    def test_frechet_log_only_growth_witness(self):
        a = PowerLog(1, Fraction(0), Fraction(3))  # log^3, unbounded
        v = check_admissible(a, Frechet(), 1)
        # sum over {2^m} of 1/log^3 ~ sum 1/m^3 converges, so the geometric
        # witness already certifies the refutation
        assert v.kind == "refuted"
        assert_sound_refutation(a, Frechet(), 1, v)

    def test_frechet_slow_log_needs_threshold_witness(self):
        a = PowerLog(1, Fraction(0), Fraction(1, 2))  # log^(1/2)
        v = check_admissible(a, Frechet(), 1)
        assert v.kind == "refuted"
        assert_sound_refutation(a, Frechet(), 1, v)

    def test_statistical_boundary_inconclusive(self):
        a = PowerLog(1, Fraction(1, 2), Fraction(1, 4))  # sqrt(n) log^(1/4)
        v = check_admissible(a, Statistical(), 2)
        assert v.kind == "inconclusive"

    def test_monotone_in_p(self):
        # for targets above 1, inverse powers shrink as p grows, so a
        # proof at p carries to every smaller exponent
        rng = random.Random(5)
        checked = 0
        for _ in range(40):
            a = random_power_seq(rng, beta_range=(0, 1))
            if any(float(a.value_at(n)) <= 1 for n in range(1, 200)):
                continue
            for F in (Statistical(), Summable(HARMONIC)):
                if check_admissible(a, F, 2).kind == "proved":
                    assert check_admissible(a, F, Fraction(3, 2)).kind != "refuted"
                    assert check_admissible(a, F, 1).kind != "refuted"
                    checked += 1
        assert checked >= 5


class TestGreedyWitness:
    def test_blocks_certified(self):
        w = nonadmissibility_witness(PowerLog(1, Fraction(2)), HARMONIC, 1)
        assert isinstance(w, GreedyBlockSet)
        sums = w.block_sums()
        assert all(1.0 <= s <= 2.0 + 1e-12 for s in sums)
        assert w.prefix_inverse_sum() <= 2.0
        assert weight_sum(w, HARMONIC).kind == "diverges"
        assert sum_inverse_p_verdict(PowerLog(1, Fraction(2)), 1, w).kind == "converges"

    def test_criterion_holds(self):
        with pytest.raises(CriterionHolds):
            nonadmissibility_witness(Constant(2), HARMONIC, 1)
        with pytest.raises(CriterionHolds):
            nonadmissibility_witness(LINEAR, HARMONIC, 1)

    def test_desk_scale_equivalence(self):
        # criterion verdict vs exhaustive search over the library plus greedy
        from fbasis.admissibility import summable_criterion, _library_sweep

        rng = random.Random(41)
        agreements = 0
        for _ in range(60):
            a = random_power_seq(rng, beta_range=(0, 2), allow_log=False)
            s_exp = Fraction(rng.randrange(1, 4), 4)
            s = PowerLog(1, -s_exp)
            status, _ = summable_criterion(a, s, 1)
            if status == "unknown":
                continue
            F = Summable(s)
            verdict = check_admissible(a, F, 1)
            if status == "bounded":
                # no witness may exist anywhere in the library or greedy
                assert verdict.kind == "proved"
                assert _library_sweep(a, F, Fraction(1)).kind == "inconclusive"
                with pytest.raises(CriterionHolds):
                    nonadmissibility_witness(a, s, 1)
            else:
                assert verdict.kind == "refuted"
                assert_sound_refutation(a, F, 1, verdict)
            agreements += 1
        assert agreements >= 50


class TestBandAndFilters:
    def test_band_frechet_all_refuted(self):
        # unbounded target under the Frechet filter: sufficiency and every
        # necessary exponent refute, each with a sparse witness
        band = admissibility_band(PowerLog(1, Fraction(2, 3)), Frechet(), Fraction(3, 2))
        assert band.sufficient.kind == "refuted"
        for s, v in band.necessary:
            assert v.kind == "refuted"
            assert sum_inverse_p_verdict(PowerLog(1, Fraction(2, 3)), s, v.witness).kind == "converges"

    def test_band_monotone(self):
        rng = random.Random(3)
        for _ in range(20):
            a = random_power_seq(rng, beta_range=(0, 1))
            p = Fraction(rng.randrange(5, 8), 4)  # within (1, 2)
            try:
                band = admissibility_band(a, Statistical(), p)
            except Exception:
                continue
            if band.sufficient.kind == "proved":
                for s, v in band.necessary:
                    assert s < p
                    assert v.kind == "proved"

    def test_associated_summable_filter(self):
        F = associated_summable_filter(SQRT_N)
        assert F.weights == PowerLog(1, Fraction(-1, 2))
        assert check_admissible(SQRT_N, F, 1).kind == "proved"
        with pytest.raises(NotDivergent):
            associated_summable_filter(PowerLog(1, Fraction(2)))
        assert associated_summable_filter(Constant(2)).weights == Constant(Fraction(1, 2))

    def test_slow_certificates(self):
        v = slow_certificate(Summable(PowerLog(1, Fraction(-1, 4))))
        assert v.kind == "slow-by-rule"
        v = slow_certificate(Summable(HARMONIC))
        assert v.kind == "not-slow"
        assert v.witness == SQRT_N
        v = slow_certificate(Statistical())
        assert v.kind == "not-slow"
        # the boundary exponent 1/2 is not slow
        v = slow_certificate(Summable(PowerLog(1, Fraction(-1, 2))))
        assert v.kind == "not-slow"


class TestTraceAdmissibility:
    def test_proved_passes_to_trace(self):
        from fbasis import trace_filter, Residue

        tr = trace_filter(Statistical(), Residue(2, 0))
        assert check_admissible(SQRT_N, tr, 2).kind == "proved"

    def test_refuted_on_small_index_set(self):
        from fbasis import trace_filter

        tr = trace_filter(Frechet(), GeometricIndex(Fraction(2)))
        v = check_admissible(PowerLog(2, Fraction(1, 4)), tr, 1)
        # sum over {2^m} of n^(-1/4) converges, and the index set is a
        # member of its own trace filter
        assert v.kind == "refuted"
        assert v.witness == GeometricIndex(Fraction(2))

    def test_library_sweep_makes_the_inverse_power_once(self, monkeypatch):
        """One a**-p for the whole witness-library sweep, not one per
        library set the filter cannot ignore, and the same verdict as the
        per-set sums."""
        from fbasis import admissibility, series
        from fbasis.filters import witness_library
        from fbasis.parsing import parse_filter, parse_scalar_seq

        a, p = parse_scalar_seq("pow(2,1/3)"), Fraction(3, 2)
        F = parse_filter("trace(frechet; residue(5,1))")
        swept = [W for W in witness_library() if not_negligible(W, F) is True]
        assert len(swept) > 1
        real, powers = admissibility.seq_pow, []

        def counted(seq, e):
            powers.append(e)
            return real(seq, e)

        for module in (admissibility, series):
            monkeypatch.setattr(module, "seq_pow", counted)
        verdict = admissibility._library_sweep(a, F, p)
        assert powers.count(-p) == 1
        monkeypatch.undo()
        per_set = [sum_inverse_p_verdict(a, p, W) for W in swept]
        assert (verdict.kind == "refuted") == any(v.kind == "converges" for v in per_set)


class TestSlowGeometricSums:
    # the weights n**(-1/8) shrink by 2**(-1/8) ~ 0.917 per element of
    # geom(2); the sum over geom(2) once overflowed a float before settling

    def test_frechet_refutation_carries_a_true_bound(self):
        v = check_admissible(PowerLog(2, Fraction(1, 8)), Frechet(), 1)
        assert v.kind == "refuted"
        assert v.witness == GeometricIndex(Fraction(2))
        r = 2.0 ** (-1 / 8)
        exact = 0.5 * r / (1.0 - r)  # sum over k >= 1 of 1 / (2 * 2**(k/8))
        assert v.certificate.inverse_p_sum.kind == "converges"
        assert exact <= v.certificate.inverse_p_sum.bound < math.inf

    def test_trace_with_log_factor_is_never_proved(self):
        # unbounded, so refuted under any trace of Frechet; the engine may
        # stop short of a witness, but it must answer
        a = PowerLog(Fraction(3, 2), Fraction(1, 8), Fraction(1, 2))
        v = check_admissible(a, trace_filter(Frechet(), Residue(5, 2)), 1)
        assert v.kind in ("refuted", "inconclusive")
