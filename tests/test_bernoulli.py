import math
import sys
import threading
from collections import Counter
from fractions import Fraction

import pytest

from expsums import arith, bernoulli, exact, power_sums
from expsums import (
    ConsistencyError,
    Polynomial,
    bernoulli_oracle,
    bernoulli_table,
    h_polynomial,
    retrieve_bernoulli,
    retrieve_bernoulli_detail,
)
from helpers import (
    PERTURBED_BINOMIALS,
    akiyama_tanigawa_bernoulli,
    fraction_retrieval_detail,
    seidel_zigzag,
    von_staudt_clausen_denominator,
)

# Classical table under the B_1 = -1/2 convention.
KNOWN = {
    0: Fraction(1),
    1: Fraction(-1, 2),
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
    14: Fraction(7, 6),
    16: Fraction(-3617, 510),
}


class TestOracle:
    def test_base(self):
        assert bernoulli_oracle(0) == 1

    def test_sign_convention_anchor(self):
        assert bernoulli_oracle(1) == Fraction(-1, 2)

    def test_classical_values(self):
        for n, value in KNOWN.items():
            assert bernoulli_oracle(n) == value, n

    def test_odd_indices_vanish(self):
        for m in range(1, 16):
            assert bernoulli_oracle(2 * m + 1) == 0

    def test_defining_recurrence_holds(self):
        # sum_{j<=n} C(n+1, j) B_j = 0 for n >= 1, up to the CLI cap n = 500.
        for n in [*range(1, 121), 500]:
            assert sum(math.comb(n + 1, j) * bernoulli_oracle(j) for j in range(n + 1)) == 0, n

    def test_von_staudt_clausen_denominators(self):
        for n in range(2, 501, 2):
            assert bernoulli_oracle(n).denominator == von_staudt_clausen_denominator(n), n

    def test_signs_alternate(self):
        for n in range(2, 501, 2):
            assert (bernoulli_oracle(n) > 0) == (n % 4 == 2), n

    def test_von_staudt_clausen_check_can_fail(self):
        # Adding 1/2 cancels the prime 2 from the denominator of B_500.
        perturbed = bernoulli_oracle(500) + Fraction(1, 2)
        assert perturbed.denominator != von_staudt_clausen_denominator(500)

    def test_matches_akiyama_tanigawa(self):
        assert [bernoulli_oracle(n) for n in range(121)] == akiyama_tanigawa_bernoulli(120)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bernoulli_oracle(-1)


@pytest.fixture
def fresh_tangents():
    """Give the oracle no tangent tables and an empty value cache;
    returns a function that does it again."""
    def reset():
        arith._tangents.cache_clear()
        bernoulli_oracle.cache_clear()

    reset()
    yield reset
    reset()


class TestTangentTable:
    def test_cold_oracle_grows_the_table_once(self, fresh_tangents):
        # B_500 needs T_250, read from the one table T_1..T_256.
        bernoulli_oracle(500)
        assert arith._tangents.cache_info().misses == 1

    def test_request_order_does_not_matter(self, fresh_tangents):
        # Either order builds at most the tables of sizes 1, 2, 4, ..., 256.
        descending = [bernoulli_oracle(n) for n in range(500, -1, -1)]
        assert arith._tangents.cache_info().currsize <= 9
        fresh_tangents()
        ascending = [bernoulli_oracle(n) for n in range(501)]
        assert arith._tangents.cache_info().currsize <= 9
        assert descending[::-1] == ascending

    def test_cold_oracle_is_thread_safe(self, fresh_tangents):
        # Four threads ask a cold oracle for distinct B_n while the
        # interpreter switches threads as often as it can.
        zigzag = seidel_zigzag(430)
        ns = list(range(400, 419, 2))
        want = {n: Fraction((1 if n % 4 == 2 else -1) * n * zigzag[n - 1],
                            (1 << n) * ((1 << n) - 1)) for n in ns}
        got = {}

        def ask(part):
            for n in part:
                got[n] = bernoulli_oracle(n)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ask, args=(ns[i::4],)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert got == want

    def test_tangent_numbers(self, fresh_tangents):
        # OEIS A000182, then the odd zigzag numbers of Seidel's boustrophedon.
        assert [arith._tangent(m) for m in range(1, 9)] == [
            1, 2, 16, 272, 7936, 353792, 22368256, 1903757312,
        ]
        zigzag = seidel_zigzag(199)
        assert [arith._tangent(m) for m in range(1, 101)] == zigzag[1::2]


class TestRetrieval:
    def test_first_index(self):
        assert retrieve_bernoulli(1) == Fraction(-1, 2)

    def test_second_index(self):
        assert retrieve_bernoulli(2) == Fraction(1, 6)

    def test_fourth_index(self):
        assert retrieve_bernoulli(4) == bernoulli_oracle(4) == Fraction(-1, 30)

    def test_matches_oracle(self):
        for n in [1] + list(range(2, 13, 2)):
            assert retrieve_bernoulli(n) == bernoulli_oracle(n), n

    def test_odd_indices_rejected(self):
        for n in (3, 5, 9):
            with pytest.raises(ValueError, match="odd Bernoulli numbers beyond the first vanish"):
                retrieve_bernoulli(n)
        for n in (0, -2):  # out of range, not odd: no parity reason is given
            with pytest.raises(ValueError, match=rf"^(?!.*odd).*got n={n}$"):
                retrieve_bernoulli(n)

    def test_detail_compares_the_stated_degree(self):
        d1 = retrieve_bernoulli_detail(1)
        assert (d1.p, d1.compared_degree) == (1, 1)
        d2 = retrieve_bernoulli_detail(2)
        assert (d2.p, d2.compared_degree) == (3, 2)
        d6 = retrieve_bernoulli_detail(6)
        assert (d6.p, d6.compared_degree) == (7, 2)

    def test_detail_polynomials_fully_agree(self):
        # Over the whole retrievable range, both polynomials are the closed
        # form of h(p, .) that h_polynomial builds without retrieval, and so
        # is each even lower form, built by the derivative rule.
        for n in [1] + list(range(2, 61, 2)):
            detail = retrieve_bernoulli_detail(n)
            assert detail.recurrence_poly == detail.closed_form_poly == h_polynomial(detail.p), n
            if n % 2 == 0:
                nums, den = bernoulli._lower_form(n)
                assert Polynomial((Fraction(c, den) for c in nums), var="k") == h_polynomial(n), n


    def test_detail_equals_the_fraction_solve_bit_for_bit(self, cold_closed_forms):
        # Value and both polynomials as the solve on Fraction coefficients
        # gives them, down to each coefficient's int or Fraction type.
        for n in [1] + list(range(2, 61, 2)):
            assert repr(retrieve_bernoulli_detail(n)) == repr(fraction_retrieval_detail(n)), n


class TestTable:
    def test_minimal(self):
        assert dict(bernoulli_table(0).values) == {0: Fraction(1)}

    def test_small(self):
        table = bernoulli_table(3)
        assert [table[n] for n in range(4)] == [
            Fraction(1), Fraction(-1, 2), Fraction(1, 6), Fraction(0),
        ]

    def test_entry_eight(self):
        assert bernoulli_table(8)[8] == Fraction(-1, 30)

    def test_matches_oracle_everywhere(self):
        table = bernoulli_table(16)
        assert len(table) == 17
        for n in range(17):
            assert table[n] == bernoulli_oracle(n)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bernoulli_table(-1)


class TestRetrievalOwnClosedForms:
    def test_retrieval_never_reads_oracle_closed_forms(self, cold_closed_forms, monkeypatch):
        # Fill the closed-form memo from a deliberately wrong oracle: retrieval
        # builds its own lower forms, and if it read these polynomials its
        # solved values or its coefficient check would break.
        monkeypatch.setattr(power_sums, "bernoulli_oracle",
                            lambda n: bernoulli_oracle(n) + (n == 2))
        for p in range(1, 14):
            h_polynomial(p)

        def unavailable(n):
            raise AssertionError(f"retrieval called the oracle for B_{n}")

        monkeypatch.setattr(power_sums, "bernoulli_oracle", unavailable)
        indices = [1] + list(range(2, 17, 2))
        values = {n: retrieve_bernoulli_detail(n).value for n in indices}
        monkeypatch.undo()
        assert values == {n: bernoulli_oracle(n) for n in indices}

    def test_cold_table_builds_each_closed_form_once(self, cold_closed_forms, monkeypatch):
        # Per retrieved n (1 and the 15 even n <= 30): one recurrence, run on
        # integer numerators, and one Faulhaber form to match it against (the
        # weight of B_n is read off C(p+1, n), not off a second form).  Per
        # j <= 29: one lower form (the step for B_30 solves for its own
        # h(31, .) and reads no h(30, .)).  No literal sum, no interpolation,
        # and no Polynomial product: the Horner steps, the solve, the
        # derivative rule and the division by p+1 all stay on integers, and
        # every form is cleared to integer numerators once: the 15 odd lower
        # forms and the 16 Faulhaber forms (the even lower forms are the
        # derivatives of cleared odd ones).
        calls = Counter()
        originals = {"_integer_numerators": exact._integer_numerators,
                     "_odd_recurrence": power_sums._odd_recurrence,
                     "odd_recurrence_polynomial": power_sums.odd_recurrence_polynomial,
                     "faulhaber_polynomial": power_sums.faulhaber_polynomial,
                     "h_naive": power_sums.h_naive,
                     "polynomial_from_points": exact.polynomial_from_points,
                     "Polynomial.__mul__": Polynomial.__mul__}

        def counted(name):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return originals[name](*args, **kwargs)

            return wrapper

        for module in (exact, power_sums, bernoulli):
            for name in originals:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name))
        for name in ("__mul__", "__rmul__"):
            monkeypatch.setattr(Polynomial, name, counted("Polynomial.__mul__"))
        table = bernoulli_table(30)
        assert [table[n] for n in range(31)] == [bernoulli_oracle(n) for n in range(31)]
        assert calls == Counter(_odd_recurrence=16, faulhaber_polynomial=16,
                                _integer_numerators=31)
        assert calls["Polynomial.__mul__"] == calls["odd_recurrence_polynomial"] == 0
        assert bernoulli._lower_form.cache_info().misses == 29
        for j in range(1, 30):  # the 29 forms built are those of j = 1..29
            bernoulli._lower_form(j)
        assert bernoulli._lower_form.cache_info().misses == 29

    def test_memos_hand_out_immutable_numerators(self, cold_closed_forms):
        # Every caller of a memo shares the value it returns, so no caller may
        # be able to change it for the next.  h_polynomial keeps no memo.
        for form in (power_sums._h_numerators(4), power_sums._h_numerators(5),
                     bernoulli._lower_form(4), bernoulli._lower_form(5)):
            assert type(form[0]) is tuple
        assert not hasattr(h_polynomial, "cache_info")


class TestGatesCanFail:
    def test_flipped_binomial_breaks_retrieval(self, cold_closed_forms, monkeypatch):
        # C(p, 1) with the wrong sign enters both the recurrence and
        # Faulhaber's form; retrieval's full-coefficient comparison must
        # refuse B_2, with no help from the table's oracle cross-check.
        monkeypatch.setattr(power_sums, "binomial", PERTURBED_BINOMIALS["flip-r1-sign"])
        with pytest.raises(ConsistencyError):
            retrieve_bernoulli(2)
        with pytest.raises(ConsistencyError):
            bernoulli_table(8)
        # At n = 1 the solved coefficient is the only one.  The weight it is
        # divided by takes arith's binomial, so the flip does not cancel out of
        # the value, and retrieval refuses before the table's oracle could.
        message = r"^retrieval of B_1: polynomials disagree beyond the solved coefficient$"
        with pytest.raises(ConsistencyError, match=message):
            retrieve_bernoulli(1)
        with pytest.raises(ConsistencyError, match=message):
            bernoulli_table(1)

    def test_wrong_earlier_value_is_refused_later(self, cold_closed_forms, monkeypatch):
        # B_4's own forms are right, but the closed form it is matched against
        # takes B_2 as retrieved: a wrong B_2 must refuse B_4.
        original = bernoulli._retrieved
        monkeypatch.setattr(bernoulli, "_retrieved",
                            lambda j: original(j) + Fraction(int(j == 2), 3))
        with pytest.raises(ConsistencyError, match=r"^retrieval of B_4: "):
            retrieve_bernoulli_detail(4)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 4, 6, 10, 30])
    def test_perturbed_even_power_sum_breaks_retrieval(self, cold_closed_forms, monkeypatch,
                                                      n, d):
        # A wrong earlier form shifts the recurrence with no binomial perturbed,
        # and B_n must still be refused.  For n >= 4 the form is the even
        # h(n-2, .); for n = 2, which reads no even form, it is h(1, .), and
        # the solve's left-over degree-2 equation is the gate that refuses it.
        wrong = max(n - 2, 1)
        original = bernoulli._lower_form

        def perturbed(j):  # the form plus k^d
            nums, den = original(j)
            if j != wrong:
                return nums, den
            nums = list(nums) + [0] * (d + 1 - len(nums))
            return nums[:d] + [nums[d] + den] + nums[d + 1:], den

        monkeypatch.setattr(bernoulli, "_lower_form", perturbed)
        reason = "the recurrence fails at degree 2" if n == 2 else ""
        with pytest.raises(ConsistencyError, match=rf"^retrieval of B_{n}: {reason}"):
            retrieve_bernoulli(n)
