import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expsums import (
    ConsistencyError,
    CyclotomicElement,
    Polynomial,
    binomial,
    cyclo_root_power,
    cyclotomic_polynomial,
    format_rational,
    h_naive,
    multinomial,
    parse_rational,
    poly_coefficient,
    polynomial_from_points,
)
from expsums.exp_sums import _is_zero_mod_phi
from helpers import (
    brute_totient,
    lagrange_cubic,
    pascal_binomial,
    schoolbook_divmod,
    schoolbook_product,
)

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)
# Mixed int/Fraction coefficients (zeros, negatives, large denominators), and
# all-integer ones; an empty or all-zero list is the zero polynomial.
coefficient_lists = st.one_of(
    st.lists(st.integers(-10**6, 10**6), max_size=8),
    st.lists(st.one_of(st.integers(-50, 50), rationals,
                       st.fractions(max_denominator=10**12)), max_size=8),
)
polynomials = st.builds(Polynomial, coefficient_lists, var=st.sampled_from(["x", "k"]))
# Divisors: dense mixed ones (mostly non-monic), and sparse ones with zero
# interior coefficients -- x^n + c and Phi_k for k <= 64 -- scaled by a
# nonzero rational.
nonzero_rationals = st.one_of(st.integers(-50, 50), rationals).filter(lambda q: q != 0)
divisors = st.one_of(
    polynomials.filter(lambda d: not d.is_zero),
    st.builds(lambda n, c, lead: Polynomial([c] + [0] * (n - 1) + [lead]),
              st.integers(1, 40), rationals, nonzero_rationals),
    st.builds(lambda k, lead: cyclotomic_polynomial(k) * lead,
              st.integers(1, 64), nonzero_rationals),
)


class TestBinomial:
    def test_known_values(self):
        assert binomial(3, 1) == 3
        assert binomial(10, 4) == 210

    def test_out_of_range_is_zero(self):
        assert binomial(5, -1) == 0
        assert binomial(5, 6) == 0

    @pytest.mark.parametrize("n", [0, 1, 4, 9])
    def test_empty_product(self, n):
        assert binomial(n, 0) == 1

    def test_matches_pascal_oracle(self):
        for n in range(13):
            for r in range(-1, n + 2):
                assert binomial(n, r) == pascal_binomial(n, r)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)


class TestMultinomial:
    def test_known_values(self):
        assert multinomial(3, [1, 1, 1]) == 6
        assert multinomial(4, [2, 2]) == 6

    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_single_part(self, n):
        assert multinomial(n, [n]) == 1

    def test_matches_factorial_oracle(self):
        from helpers import factorial_multinomial

        cases = [(5, [2, 3]), (6, [1, 2, 3]), (7, [7]), (8, [2, 2, 2, 2]), (4, [0, 4])]
        for n, parts in cases:
            assert multinomial(n, parts) == factorial_multinomial(n, parts)

    def test_sum_mismatch_rejected(self):
        with pytest.raises(ValueError):
            multinomial(4, [1, 2])
        with pytest.raises(ValueError):
            multinomial(3, [4, -1])


class TestRational:
    @given(a=rationals, b=rationals)
    def test_addition_round_trip(self, a, b):
        assert (a + b) - b == a

    @given(a=rationals, b=rationals.filter(lambda q: q != 0))
    def test_multiplication_round_trip(self, a, b):
        assert (a * b) / b == a

    def test_serialization(self):
        assert format_rational(Fraction(-1, 2)) == "-1/2"
        assert format_rational(Fraction(7)) == "7"
        assert format_rational(3) == "3"
        for s in ["-1/2", "7", "0", "355/113"]:
            assert format_rational(parse_rational(s)) == s


class TestPolynomial:
    def test_trailing_zeros_trimmed(self):
        assert Polynomial([1, 2, 0, 0]).coeffs == (1, 2)
        assert Polynomial([0, 0]).is_zero
        assert Polynomial(iter([0, 3, Fraction(0), 0])).coeffs == (0, 3)
        assert Polynomial((0, Fraction(1, 2))).coeffs == (0, Fraction(1, 2))

    def test_zero_degree_sentinel(self):
        assert Polynomial([]).degree is None
        assert Polynomial([5]).degree == 0
        assert Polynomial([0, 0, 1]).degree == 2

    def test_coefficient_past_degree(self):
        p = Polynomial([1, 2])
        assert p.coefficient(5) == 0
        assert Polynomial([]).coefficient(0) == 0

    def test_arithmetic(self):
        p = Polynomial([1, 1])
        assert p * p == Polynomial([1, 2, 1])
        assert p**3 == Polynomial([1, 3, 3, 1])
        assert p - p == Polynomial([])
        assert (p + 1) == Polynomial([2, 1])
        assert 2 * p == Polynomial([2, 2])
        assert p / 2 == Polynomial([Fraction(1, 2), Fraction(1, 2)])

    @given(polynomials, polynomials)
    def test_product_matches_schoolbook(self, a, b):
        got = a * b
        assert got == schoolbook_product(a, b)
        assert got.var == a.var
        # Canonical scalars: an int wherever the denominator divides.
        assert all(type(c) is int or c.denominator > 1 for c in got.coeffs)

    @given(st.lists(rationals, max_size=6), st.lists(rationals, max_size=6))
    def test_add_sub_round_trip(self, a, b):
        pa, pb = Polynomial(a), Polynomial(b)
        assert (pa + pb) - pb == pa

    def test_divmod(self):
        num = Polynomial([-1, 0, 0, 0, 0, 0, 1])  # x^6 - 1
        den = Polynomial([-1, 1]) * Polynomial([1, 1]) * Polynomial([1, 1, 1])
        q, r = divmod(num, den)
        assert r.is_zero
        assert q == cyclotomic_polynomial(6)

    @given(st.lists(st.one_of(st.integers(-10**6, 10**6), rationals), max_size=90),
           divisors)
    def test_divmod_matches_dense_long_division(self, coeffs, den):
        num = Polynomial(coeffs)
        q, r = divmod(num, den)
        assert (q, r) == schoolbook_divmod(num, den)
        assert q * den + r == num
        assert r.is_zero or r.degree < den.degree
        assert num % den == r

    def test_exact_div_rejects_remainder(self):
        with pytest.raises(ConsistencyError):
            Polynomial([1, 0, 1]).exact_div(Polynomial([1, 1]))

    def test_evaluate(self):
        p = Polynomial([Fraction(1, 2), 0, 1])
        assert p.evaluate(2) == Fraction(9, 2)
        assert Polynomial([]).evaluate(7) == 0

    def test_str(self):
        assert str(Polynomial([])) == "0"
        assert str(Polynomial([0, Fraction(-1, 2), 1], var="k")) == "k^2 - 1/2*k"

    def test_json_round_trip(self):
        p = Polynomial([0, Fraction(1, 4), 2])
        assert p.to_json_coeffs() == ["0", "1/4", "2"]
        assert Polynomial.from_json_coeffs(p.to_json_coeffs()) == p
        assert Polynomial([]).to_json_coeffs() == []

    def test_interpolation(self):
        pts = [(t, t * t + 1) for t in range(4)]
        assert polynomial_from_points(pts) == Polynomial([1, 0, 1])
        # Integral coefficients come back as ints, not as Fraction(n, 1).
        assert repr(polynomial_from_points([(1, 2), (2, 5), (3, 10)])) == (
            "Polynomial([1, 0, 1], var='x')")
        assert repr(polynomial_from_points([(0, Fraction(1, 2)), (2, 0)], var="k")) == (
            "Polynomial([Fraction(1, 2), Fraction(-1, 4)], var='k')")
        with pytest.raises(ValueError):
            polynomial_from_points([(0, 1), (0, 2)])

    @given(st.lists(rationals, max_size=12, unique=True), st.data())
    def test_interpolation_matches_lagrange_reference(self, xs, data):
        ys = data.draw(st.lists(rationals, min_size=len(xs), max_size=len(xs)))
        points = list(zip(xs, ys))
        assert polynomial_from_points(points, var="k") == lagrange_cubic(points, var="k")

    @pytest.mark.parametrize("n", [0, 2, 8, 16, 30])
    def test_interpolation_of_power_sum_values(self, n):
        points = [(t, h_naive(n, t)) for t in range(n + 2)]
        assert polynomial_from_points(points, var="k") == lagrange_cubic(points, var="k")


class TestPolyCoefficient:
    def test_solved_linear_coefficient(self):
        # (1/2) * (k^2 - 2*(-1/2)*k) has 1/2 in degree 1.
        p = (Polynomial([0, 0, 1], var="k") - Polynomial([0, 1], var="k") * (2 * Fraction(-1, 2))) / 2
        assert poly_coefficient(p, 1) == Fraction(1, 2)

    def test_zero_polynomial(self):
        for d in range(4):
            assert poly_coefficient(Polynomial([]), d) == 0

    def test_square_of_triangular(self):
        tri = Polynomial([0, 1, 1], var="k") / 2  # k(k+1)/2
        assert poly_coefficient(tri * tri, 4) == Fraction(1, 4)


class TestCyclotomic:
    def test_base_cases(self):
        assert cyclotomic_polynomial(1) == Polynomial([-1, 1])
        assert cyclotomic_polynomial(2) == Polynomial([1, 1])
        assert cyclotomic_polynomial(6) == Polynomial([1, -1, 1])

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            cyclotomic_polynomial(0)

    def test_divisor_product_recovers_xk_minus_1(self):
        for k in range(1, 61):
            prod = Polynomial.one()
            for d in range(1, k + 1):
                if k % d == 0:
                    prod = prod * cyclotomic_polynomial(d)
            assert prod == Polynomial([-1] + [0] * (k - 1) + [1]), k

    def test_degree_is_totient(self):
        for k in range(1, 61):
            assert cyclotomic_polynomial(k).degree == brute_totient(k), k

    def test_monic_integer_coefficients(self):
        for k in (4, 12, 30, 45):
            phi = cyclotomic_polynomial(k)
            assert phi.coeffs[-1] == 1
            assert all(Fraction(c).denominator == 1 for c in phi.coeffs)

    @settings(max_examples=200)
    @given(st.integers(2, 80), st.booleans(), st.data())
    def test_zero_test_agrees_with_long_division(self, k, multiple, data):
        # Half the vectors are multiples of Phi_k folded into Z[x]/(x^k - 1),
        # some of them then perturbed in one coefficient; the others are
        # drawn freely.  The oracle is a zero remainder of dense division.
        coeffs = st.integers(-10**6, 10**6)
        phi = cyclotomic_polynomial(k)
        if multiple:
            vec = [0] * k
            for i, q in enumerate(data.draw(st.lists(coeffs, min_size=1, max_size=k))):
                for j, c in enumerate(phi.coeffs):
                    vec[(i + j) % k] += q * c
            if data.draw(st.booleans()):
                vec[data.draw(st.integers(0, k - 1))] += data.draw(coeffs.filter(bool))
        else:
            vec = data.draw(st.lists(coeffs, min_size=k, max_size=k))
        remainder = schoolbook_divmod(Polynomial(vec), phi)[1]
        assert _is_zero_mod_phi(vec) == remainder.is_zero


class TestCyclotomicElement:
    def test_root_power_examples(self):
        assert cyclo_root_power(5, 7).residue == Polynomial([0, 0, 1])
        assert cyclo_root_power(4, 2) == -1
        for k in (1, 2, 5, 12):
            assert cyclo_root_power(k, 0) == 1

    def test_primitive_root_order(self):
        for k in range(2, 31):
            z = cyclo_root_power(k, 1)
            acc = CyclotomicElement(k, 1)
            for j in range(1, k):
                acc = acc * z
                assert acc != 1, (k, j)
            assert acc * z == 1, k

    def test_ring_arithmetic(self):
        x = cyclo_root_power(4, 1)
        assert x * x == -1
        assert x**4 == 1
        assert (x + x) - x == x
        assert x * 0 == 0
        assert (x - x).is_zero

    def test_mixed_moduli_rejected(self):
        with pytest.raises(ValueError):
            cyclo_root_power(4, 1) + cyclo_root_power(5, 1)

    def test_residue_stays_reduced(self):
        big = Polynomial([0] * 9 + [3])  # 3 x^9
        elem = CyclotomicElement(4, big)
        assert elem.residue.degree < cyclotomic_polynomial(4).degree
        assert elem == cyclo_root_power(4, 1) * 3


class TestPower:
    @pytest.mark.parametrize("n", [-1, 1.5])
    @pytest.mark.parametrize("value, kind", [
        (Polynomial([1, 1]), "polynomial"),
        (CyclotomicElement(5, Polynomial([1, 1])), "cyclotomic"),
    ], ids=["polynomial", "cyclotomic"])
    def test_rejects_exponent_outside_the_naturals(self, value, kind, n):
        with pytest.raises(ValueError, match=f"^{kind} power must be a non-negative integer$"):
            value ** n


OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul}
NON_NUMBERS = ["x", 1.5, None]
small_coefficients = st.lists(st.one_of(st.integers(-20, 20), rationals), max_size=40)
scalars = st.one_of(st.integers(-20, 20), rationals)


def _residue(operand):
    """An element's residue, or a scalar as a constant polynomial."""
    if isinstance(operand, CyclotomicElement):
        return operand.residue
    return Polynomial([operand])


class TestPolynomialOperators:
    def test_zero(self):
        assert Polynomial.zero(var="k") == Polynomial([], var="k")
        assert Polynomial.zero().is_zero

    @given(scalars, polynomials)
    def test_scalar_minus_polynomial(self, s, p):
        assert s - p == Polynomial([s]) - p
        assert s - p == -(p - s)

    @given(polynomials)
    def test_equal_polynomials_hash_equal(self, p):
        twin = Polynomial(list(p.coeffs) + [0, 0], var="k" if p.var == "x" else "x")
        assert twin == p
        assert hash(twin) == hash(p)
        # A constant equals its scalar, so it must hash as the scalar does.
        s = p.coefficient(0)
        assert Polynomial([s, 0], var=p.var) == s
        assert hash(Polynomial([s, 0], var=p.var)) == hash(s)
        assert len({Polynomial([2]), 2}) == len({Polynomial(), 0}) == 1

    @pytest.mark.parametrize("op", sorted(OPERATORS))
    @pytest.mark.parametrize("other", NON_NUMBERS, ids=repr)
    def test_unsupported_operands_raise_type_error(self, op, other):
        p = Polynomial([1, 2])
        with pytest.raises(TypeError):
            OPERATORS[op](p, other)
        with pytest.raises(TypeError):
            OPERATORS[op](other, p)
        assert (p == other) is False

    def test_unsupported_divisors_raise_type_error(self):
        with pytest.raises(TypeError):
            Polynomial([1, 2]) / "x"
        with pytest.raises(TypeError):
            divmod(Polynomial([1, 2]), 2)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError, match="zero scalar"):
            Polynomial([1, 2]) / 0
        with pytest.raises(ZeroDivisionError, match="zero polynomial"):
            divmod(Polynomial([1, 2]), Polynomial([]))

    def test_negative_degrees_rejected(self):
        with pytest.raises(ValueError, match="monomial degree"):
            Polynomial.monomial(-1)
        with pytest.raises(ValueError, match="coefficient degree"):
            Polynomial([1, 2]).coefficient(-1)

    def test_immutable(self):
        p = Polynomial([1, 2])
        with pytest.raises(AttributeError, match="immutable"):
            p.coeffs = (3,)
        with pytest.raises(AttributeError, match="immutable"):
            CyclotomicElement(5, p).residue = p


class TestCyclotomicOperators:
    @given(st.integers(1, 30), small_coefficients, small_coefficients, scalars,
           st.sampled_from(sorted(OPERATORS)), st.sampled_from(["both", "left", "right"]))
    def test_operators_act_on_residues(self, k, a, b, s, op, elements):
        # Every a op b, with a scalar on either side or none, is the residue
        # of the same operation on the two residues.
        left = s if elements == "right" else CyclotomicElement(k, Polynomial(a))
        right = s if elements == "left" else CyclotomicElement(k, Polynomial(b))
        got = OPERATORS[op](left, right)
        assert isinstance(got, CyclotomicElement)
        assert got.modulus_k == k
        assert got == CyclotomicElement(k, OPERATORS[op](_residue(left), _residue(right)))

    @given(st.integers(1, 30), small_coefficients, small_coefficients)
    def test_negation_and_equal_hashes(self, k, a, b):
        elem = CyclotomicElement(k, Polynomial(a))
        assert -elem == CyclotomicElement(k, -Polynomial(a))
        # A multiple of Phi_k added to the representative changes nothing.
        twin = CyclotomicElement(k, Polynomial(a) + cyclotomic_polynomial(k) * Polynomial(b))
        assert twin == elem
        assert hash(twin) == hash(elem)
        # A scalar plus a multiple of Phi_k equals the scalar and hashes as it.
        s = Polynomial(a).coefficient(0)
        constant = CyclotomicElement(k, cyclotomic_polynomial(k) * Polynomial(b) + s)
        assert constant == s
        assert hash(constant) == hash(s)
        assert len({CyclotomicElement(5, 1), 1}) == len({CyclotomicElement(k), 0}) == 1

    @pytest.mark.parametrize("op", sorted(OPERATORS))
    @pytest.mark.parametrize("other", NON_NUMBERS + [Polynomial([1, 1])], ids=repr)
    def test_unsupported_operands_raise_type_error(self, op, other):
        elem = cyclo_root_power(6, 1)
        with pytest.raises(TypeError):
            OPERATORS[op](elem, other)
        with pytest.raises(TypeError):
            OPERATORS[op](other, elem)
        assert (elem == other) is False

    @pytest.mark.parametrize("op", sorted(OPERATORS))
    def test_mixed_moduli_rejected(self, op):
        with pytest.raises(ValueError, match="^mixed cyclotomic moduli 4 and 5$"):
            OPERATORS[op](cyclo_root_power(4, 1), cyclo_root_power(5, 1))

    def test_repr(self):
        assert repr(cyclo_root_power(4, 3)) == "CyclotomicElement(k=4, residue=-x)"
        assert repr(CyclotomicElement(3, Fraction(1, 2))) == "CyclotomicElement(k=3, residue=1/2)"
