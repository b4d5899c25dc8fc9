import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from expsums import power_sums
from expsums import (
    ConsistencyError,
    ParityError,
    Polynomial,
    eq4_check,
    h_faulhaber,
    h_naive,
    h_polynomial,
    h_recurrence,
)
from helpers import (
    PERTURBED_BINOMIALS,
    b2_off_by_a_third,
    fraction_h_polynomial,
    schoolbook_product,
)


def _k(coeffs):
    return Polynomial(coeffs, var="k")


SQUARED_TRIANGULAR = (_k([0, 1, 1]) / 2) ** 2  # [k(k+1)/2]^2
FIFTH_CLOSED_FORM = (_k([0, 1]) ** 2) * (_k([1, 1]) ** 2) * _k([-1, 2, 2]) / 12
FOURTH_CLOSED_FORM = _k([0, 1]) * _k([1, 1]) * _k([1, 2]) * _k([-1, 3, 3]) / 30


class TestNaive:
    def test_hand_sum(self):
        assert h_naive(3, 3) == 1 + 8 + 27 == 36

    def test_empty_sum(self):
        for p in (0, 1, 7):
            assert h_naive(p, 0) == 0

    def test_zeroth_power(self):
        for k in (1, 5, 40):
            assert h_naive(0, k) == k


class TestRecurrence:
    def test_matches_squared_triangular(self):
        assert h_recurrence(3, 3) == 36 == SQUARED_TRIANGULAR.evaluate(3)

    def test_small_value(self):
        assert h_recurrence(5, 2) == h_naive(5, 2) == 33

    def test_even_exponent_rejected(self):
        with pytest.raises(ParityError):
            h_recurrence(2, 5)
        with pytest.raises(ParityError):
            h_recurrence(8, 3)

    def test_matches_naive(self):
        for p in (1, 3, 7, 11):
            for k in range(13):
                assert h_recurrence(p, k) == h_naive(p, k)

    def test_polynomial_is_the_termwise_linear_map(self):
        # Any lower forms, not only the true ones, and of degree up to j+4,
        # above the accumulator's j+1 at their step: the Horner form must equal
        # (1/2)((k+1)^p k + sum_j (-1)^j C(p, j) (k+1)^(p-j) lower(j)) term by
        # term, with the powers of (k+1) built by schoolbook products, and it
        # must ask for lower(1..p-1) in ascending order.
        rng = random.Random(20261018)
        kp1 = _k([1, 1])
        for p in range(1, 22, 2):
            lower = {j: _k([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                            for _ in range(rng.randint(0, j + 5))])
                     for j in range(1, p)}
            powers = [_k([1])]
            for _ in range(p):
                powers.append(schoolbook_product(powers[-1], kp1))
            want = schoolbook_product(powers[p], _k([0, 1]))
            for j in range(1, p):
                want = want + schoolbook_product(powers[p - j], lower[j]) * (
                    (-1) ** j * math.comb(p, j))
            asked = []
            got = power_sums.odd_recurrence_polynomial(p, lambda j: asked.append(j) or lower[j])
            assert got == want / 2
            assert asked == list(range(1, p))


class TestFaulhaber:
    def test_k_sweep_builds_each_closed_form_once(self, cold_closed_forms, monkeypatch):
        # One build of each even form, and one clearing to integer numerators:
        # its own, inside faulhaber_polynomial, and that of h_recurrence.
        builds = Counter()
        clears = Counter()
        original = power_sums.faulhaber_polynomial
        clear = power_sums._integer_numerators

        def counted(p, bern):
            builds[p] += 1
            return original(p, bern)

        def counted_clear(coeffs):
            clears[len(coeffs) - 2] += 1
            return clear(coeffs)

        monkeypatch.setattr(power_sums, "faulhaber_polynomial", counted)
        monkeypatch.setattr(power_sums, "_integer_numerators", counted_clear)
        for k in range(200):
            assert h_recurrence(41, k) == h_naive(41, k)
        assert builds == Counter(range(2, 41, 2))
        assert clears == Counter({q: 2 for q in range(2, 41, 2)})

    def test_odd_form_clears_each_lower_form_once(self, cold_closed_forms, monkeypatch):
        # A cold h_polynomial(63), the CLI's poly cap: each lower form is
        # cleared to integer numerators once, in _h_numerators, and each even
        # one once more inside faulhaber_polynomial; 93 clears in all.
        clears = Counter()
        clear = power_sums._integer_numerators

        def counted_clear(coeffs):
            clears[len(coeffs) - 2] += 1
            return clear(coeffs)

        monkeypatch.setattr(power_sums, "_integer_numerators", counted_clear)
        h_polynomial(63)
        assert clears == Counter({q: 2 - q % 2 for q in range(1, 63)})

    def test_linear_case(self):
        for k in range(20):
            assert h_faulhaber(1, k) == Fraction(k * (k + 1), 2)

    def test_quartic_known_formula(self):
        for k in range(20):
            assert h_faulhaber(4, k) == FOURTH_CLOSED_FORM.evaluate(k)

    def test_cubic_value(self):
        assert h_faulhaber(3, 10) == h_naive(3, 10) == 3025

    def test_always_integral(self):
        for p in range(1, 12):
            for k in range(15):
                assert h_faulhaber(p, k).denominator == 1


class TestPolynomialForms:
    def test_quadratic(self):
        assert h_polynomial(2) == _k([0, Fraction(1, 6), Fraction(1, 2), Fraction(1, 3)])

    def test_cubic_is_squared_triangular(self):
        assert h_polynomial(3) == SQUARED_TRIANGULAR
        assert h_polynomial(3) == _k([0, 0, Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)])

    def test_quintic_closed_form(self):
        assert h_polynomial(5) == FIFTH_CLOSED_FORM

    def test_shape_invariants(self):
        for p in range(1, 16):
            poly = h_polynomial(p)
            assert poly.degree == p + 1
            assert poly.coefficient(p + 1) == Fraction(1, p + 1)
            assert poly.coefficient(0) == 0

    def test_odd_forms_equal_the_fraction_recurrence_bit_for_bit(self, cold_closed_forms):
        # The same coefficients, each of the same int or Fraction type, as
        # Horner's scheme on Polynomial values.
        for p in range(1, 64, 2):
            assert repr(h_polynomial(p)) == repr(fraction_h_polynomial(p)), p

    def test_evaluation_matches_naive(self):
        for p in range(1, 10):
            for k in range(12):
                assert h_polynomial(p).evaluate(k) == h_naive(p, k)


class TestFourWayAgreement:
    def test_all_evaluators_agree(self):
        for p in range(1, 10):
            poly = h_polynomial(p)
            for k in range(0, 21):
                reference = h_naive(p, k)
                assert h_faulhaber(p, k) == reference
                assert poly.evaluate(k) == reference
                if p % 2 == 1:
                    assert h_recurrence(p, k) == reference

    def test_telescoping(self):
        for p in range(1, 13):
            for k in range(1, 51):
                assert h_faulhaber(p, k) - h_faulhaber(p, k - 1) == k**p


class TestGatesCanFail:
    def test_flipped_binomial_breaks_exact_halving(self, cold_closed_forms, monkeypatch):
        # C(p, 1) with the wrong sign leaves the q = 3 and q = 5 totals even
        # but makes the q = 7 total odd, so the exact halving must refuse it.
        monkeypatch.setattr(power_sums, "binomial", PERTURBED_BINOMIALS["flip-r1-sign"])
        with pytest.raises(ConsistencyError, match=r"^odd intermediate in h_recurrence\(7,2\)$"):
            h_recurrence(7, 2)

    def test_wrong_bernoulli_number_gives_a_non_integer_power_sum(self, monkeypatch):
        monkeypatch.setattr(power_sums, "bernoulli_oracle", b2_off_by_a_third)
        with pytest.raises(ConsistencyError,
                           match=r"^closed form gave non-integer h\(2,1\) = 4/3$"):
            h_faulhaber(2, 1)

    def test_closed_form_off_by_half_k_is_refused(self, cold_closed_forms, monkeypatch):
        # h(2, .) + k/2 is an integer at even k only; at k = 3 the integer
        # Horner's final division must leave a remainder and refuse it.
        original = power_sums.h_polynomial
        monkeypatch.setattr(power_sums, "h_polynomial",
                            lambda p: original(p) + _k([0, Fraction(1, 2)]) if p == 2
                            else original(p))
        with pytest.raises(ConsistencyError,
                           match=r"^closed form gave non-integer h\(2,3\) = 31/2$"):
            h_recurrence(3, 3)


class TestEq4Check:
    def test_hand_case(self):
        # p=1, k=2: left side 1; right side 2*1 + (-1)*1*1*1 = 1.
        assert eq4_check(1, 2)

    def test_boundary(self):
        for p in (1, 2, 9):
            assert eq4_check(p, 1)

    def test_spot_case(self):
        assert eq4_check(4, 6)

    def test_sweep(self):
        for p in range(1, 11):
            for k in range(1, 31):
                assert eq4_check(p, k), (p, k)
