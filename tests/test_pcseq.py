"""Pseudocauchy prefixes, the lambda sequence, and rational images."""

import random
from fractions import Fraction

import pytest

from aclab import pcseq
from aclab.logts import Frac, ell, logderiv, random_frac
from aclab.ogroup import GroupElem, ones, unit
from aclab.pcseq import (
    INCONCLUSIVE,
    NO,
    R_FAMILY,
    YES,
    RatFunc,
    _widths,
    equivalent_prefix,
    is_pc_prefix,
    kaplansky_check,
    kaplansky_fit,
    kaplansky_suite,
    lambda_free_witness,
    lambda_seq,
    lambda_suite,
    lambda_term,
    perturbed_lambda_seq,
    pseudolimit_check,
    shipped_pairs,
    width_prefix,
)

V = GroupElem.parse


def geometric_seq(count: int = 6) -> tuple[Frac, ...]:
    xi = ell(0).inv()
    return tuple(sum((xi ** (k + 1) for k in range(n)), Frac.ZERO)
                 for n in range(1, count + 1))


class TestPCPrefix:
    def test_geometric_prefix_is_pc(self):
        verdict = is_pc_prefix(geometric_seq())
        assert (verdict.status, verdict.index) == (YES, 0)

    def test_late_start_is_found(self):
        noisy = (Frac.from_rat(9), Frac.from_rat(10)) + geometric_seq()
        verdict = is_pc_prefix(noisy)
        assert (verdict.status, verdict.index) == (YES, 1)

    def test_level_differences_are_rejected(self):
        points = tuple(Frac.from_rat(n) for n in range(5))
        verdict = is_pc_prefix(points)
        assert verdict.status == NO
        assert verdict.witness["indices"] == [0, 1, 2]

    def test_repeated_point_before_a_finite_width(self):
        xi = ell(0).inv()
        sums = [sum((xi ** (k + 1) for k in range(n)), Frac.ZERO) for n in range(6)]
        cases = [
            ((sums[0], sums[1], sums[1], sums[2], sums[3]), 2, (NO, None)),
            ((sums[0], sums[1], sums[2], sums[2], sums[3], sums[4], sums[5]), 3, (YES, 3)),
        ]
        for points, start, equivalent in cases:
            verdict = is_pc_prefix(points)
            assert (verdict.status, verdict.index) == (YES, start)
            nudged = tuple(p + xi ** (10 + r) for r, p in enumerate(points))
            verdict = equivalent_prefix(points, nudged)
            assert (verdict.status, verdict.index) == equivalent

    def test_equivalence_witness_is_the_blocking_index(self):
        xi = ell(0).inv()
        points = (Frac.ZERO, xi, xi, xi + xi ** 2, xi + xi ** 2 + xi ** 3)
        nudged = tuple(p + xi ** (10 + r) for r, p in enumerate(points))
        verdict = equivalent_prefix(points, nudged)
        assert verdict.to_dict() == {"status": NO, "witness": {
            "index": 1, "width_a": "infinity", "width_b": [11], "cross": [11]}}

    def test_short_prefix_is_an_error(self):
        with pytest.raises(ValueError):
            is_pc_prefix((Frac.ZERO, Frac.ONE, Frac.from_rat(2)))

    def test_width_prefix_strictly_increases(self):
        widths = width_prefix(geometric_seq())
        assert widths == [V(f"[{k}]") for k in range(2, 7)]

    def test_width_prefix_rejects_stalls(self):
        points = (Frac.ZERO, Frac.ONE, Frac.from_rat(2), Frac.from_rat(3))
        with pytest.raises(ValueError):
            width_prefix(points)


class TestPseudolimit:
    def test_true_limit_is_accepted(self):
        for _, seq, limit in shipped_pairs()[:3]:
            verdict = pseudolimit_check(seq, limit)
            assert (verdict.status, verdict.index) == (YES, 0)

    def test_distant_point_is_rejected(self):
        verdict = pseudolimit_check(geometric_seq(), ell(1))
        assert verdict.status == NO

    def test_equal_then_moved_is_rejected(self):
        seq = geometric_seq()
        verdict = pseudolimit_check(seq, seq[0])
        assert verdict.status == NO
        assert verdict.witness["index"] == 0

    def test_equal_final_point_is_inconclusive(self):
        seq = geometric_seq()
        verdict = pseudolimit_check(seq, seq[len(seq) - 1])
        assert verdict.status == INCONCLUSIVE


class TestLambdaSequence:
    def test_first_terms(self):
        assert str(lambda_term(0)) == "x^-1"
        assert str(lambda_term(1)) == "x^-1 + (x*l1)^-1"
        assert lambda_term(0) == ell(0).inv()

    def test_prefix_is_pc_from_zero(self):
        verdict = is_pc_prefix(lambda_seq(8))
        assert (verdict.status, verdict.index) == (YES, 0)

    def test_widths_are_unit_prefixes(self):
        widths = width_prefix(lambda_seq(8))
        assert widths == [ones(n + 2) for n in range(7)]

    def test_perturbed_variant_is_equivalent(self):
        verdict = equivalent_prefix(lambda_seq(8), perturbed_lambda_seq(8))
        assert verdict.status == YES

    def test_offset_sequence_is_not_equivalent(self):
        shifted = tuple(p + Frac.ONE for p in lambda_seq(8))
        verdict = equivalent_prefix(lambda_seq(8), shifted)
        assert verdict.status == NO

    def test_lambda_free_witness_oracles(self):
        assert lambda_free_witness(-lambda_term(5), 10) == 6
        assert lambda_free_witness(Frac.ZERO, 5) == 0
        assert lambda_free_witness(lambda_term(5), 5) == 0
        assert lambda_free_witness(-lambda_term(5), 4) is None

    def test_suite_holds(self):
        assert lambda_suite(prefix_len=8, corpus_size=60, seed=5).ok


class TestRatFunc:
    def test_evaluation_is_exact(self):
        r = RatFunc((Fraction(-2), Fraction(1), Fraction(0), Fraction(1)))
        x = ell(0)
        assert r(x) == x * x * x + x - Frac.from_rat(2)

    def test_quotient_evaluation(self):
        r = RatFunc((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0), Fraction(1)))
        x = ell(0)
        assert r(x) == x / (x * x + Frac.ONE)

    def test_degree_and_constant_detection(self):
        assert RatFunc((Fraction(0), Fraction(1))).degree() == 1
        assert RatFunc((Fraction(2), Fraction(4)), (Fraction(1), Fraction(2))).is_constant()
        assert not RatFunc((Fraction(0), Fraction(1)), (Fraction(17), Fraction(1))).is_constant()

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc((Fraction(1),), (Fraction(0),))
        with pytest.raises(ValueError):
            RatFunc((Fraction(0),))

    def test_family_is_nonconstant(self):
        assert len(R_FAMILY) == 27
        assert all(not r.is_constant() for r in R_FAMILY)


class TestKaplansky:
    def test_fit_reads_integer_multiplier(self):
        gammas = [V("[1]"), V("[2]"), V("[3]")]
        ws = [V("[2, 1]"), V("[4, 1]"), V("[6, 1]")]
        assert kaplansky_fit(gammas, ws) == (2, unit(1))

    def test_fit_rejects_non_integer_ratio(self):
        gammas = [V("[2]"), V("[4]")]
        assert kaplansky_fit(gammas, [V("[1]"), V("[2]")]) is None
        assert kaplansky_fit(gammas, [V("[-2]"), V("[-4]")]) is None

    def test_fit_rejects_broken_law(self):
        gammas = [V("[1]"), V("[2]"), V("[3]")]
        ws = [V("[1]"), V("[2]"), V("[4]")]
        assert kaplansky_fit(gammas, ws) is None

    def test_square_doubles_widths(self):
        name, seq, limit = shipped_pairs()[0]
        assert name == "zero-limit"
        verdict = kaplansky_check(seq, limit, RatFunc((Fraction(0), Fraction(0), Fraction(1))))
        assert verdict.status == YES
        assert verdict.witness["multiplier"] == 2

    def test_affine_function_keeps_widths(self):
        _, seq, limit = shipped_pairs()[1]
        verdict = kaplansky_check(seq, limit, RatFunc((Fraction(5), Fraction(1))))
        assert verdict.status == YES
        assert verdict.witness["multiplier"] == 1

    def test_constant_function_rejected(self):
        _, seq, limit = shipped_pairs()[0]
        with pytest.raises(ValueError):
            kaplansky_check(seq, limit, RatFunc((Fraction(3),)))

    def test_suite_holds_at_low_degree(self):
        report = kaplansky_suite(max_degree=1)
        assert report.ok
        assert report.cases == 50


class TestDifferenceKernelRoute:
    """The widths and witnesses read through ``logts.vdiff`` agree with
    valuations of the differences formed in full."""

    def test_widths_of_shipped_pairs_and_their_images(self):
        family = [r for r in R_FAMILY if r.degree() <= 3 and not r.is_constant()]
        assert len(family) == 27
        checked = 0
        for _, seq, _ in shipped_pairs():
            for points in [seq] + [tuple(r(p) for p in seq) for r in family]:
                expect = [(points[i + 1] - points[i]).valuation() for i in range(len(points) - 1)]
                assert _widths(points) == expect
                checked += 1
        assert checked == 10 * 28

    def test_lambda_witness_against_the_sum(self):
        rng = random.Random(7)
        xi = ell(0).inv()
        seen = set()
        for _ in range(150):
            # -lambda_k plus a random smaller tail parts at varied indices.
            s = -lambda_term(rng.randint(0, 10)) + random_frac(rng) * xi ** rng.randint(1, 3)
            expect = next((n for n in range(13)
                           if (s + lambda_term(n)).valuation() <= ones(n + 1)), None)
            assert lambda_free_witness(s, 12) == expect
            seen.add(expect)
        assert len(seen) >= 10


class TestPerturbedTermCache:
    def test_cached_terms_equal_terms_built_without_the_cache(self):
        uncached = [-logderiv(logderiv(ell(n) * (Frac.ONE + ell(n + 1).inv()))) for n in range(14)]
        cached = perturbed_lambda_seq(14)
        assert len(cached) == 14
        for a, b in zip(cached, uncached):
            assert a == b and str(a) == str(b)
        assert all(a is b for a, b in zip(cached, perturbed_lambda_seq(14)))

    def test_cache_is_bounded_like_the_lambda_terms(self):
        assert pcseq._perturbed_term.cache_info().maxsize == pcseq.LAMBDA_CACHE_SIZE
        assert lambda_term.cache_info().maxsize == pcseq.LAMBDA_CACHE_SIZE
