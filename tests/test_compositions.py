import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from expsums import compositions
from expsums import (
    Composition,
    DecreasingChain,
    SizeLimitError,
    binomial,
    chain_to_composition,
    composition_to_chain,
    enumerate_chains,
    enumerate_compositions,
    enumerate_compositions_length,
    gessel_coefficient_bruteforce,
    gessel_coefficient_series,
)
from helpers import bitmask_compositions


class TestTypes:
    def test_composition_validation(self):
        with pytest.raises(ValueError):
            Composition((1, 0, 2), 3)
        with pytest.raises(ValueError):
            Composition((1, 2), 4)
        with pytest.raises(ValueError):
            Composition((), 0)
        assert Composition.of(2, 1).length == 2

    def test_chain_validation(self):
        DecreasingChain((), 5, 0)  # empty chain is valid
        with pytest.raises(ValueError):
            DecreasingChain((2, 4), 5, 0)  # not decreasing
        with pytest.raises(ValueError):
            DecreasingChain((5,), 5, 0)  # endpoint not inside the open interval
        with pytest.raises(ValueError):
            DecreasingChain((2,), 5, 2)
        with pytest.raises(ValueError):
            DecreasingChain((), 3, 3)


class TestEnumeration:
    def test_single(self):
        assert [c.parts for c in enumerate_compositions(1)] == [(1,)]

    def test_lex_order_n3(self):
        assert [c.parts for c in enumerate_compositions(3)] == [
            (1, 1, 1), (1, 2), (2, 1), (3,),
        ]

    def test_count_powers_of_two(self):
        for n in range(1, 15):
            assert len(enumerate_compositions(n)) == 2 ** (n - 1)

    def test_matches_bitmask_oracle(self):
        for n in range(1, 11):
            assert [c.parts for c in enumerate_compositions(n)] == bitmask_compositions(n)

    def test_guard(self):
        with pytest.raises(SizeLimitError):
            enumerate_compositions(25)
        with pytest.raises(ValueError):
            enumerate_compositions(0)


class TestEnumerationByLength:
    def test_extremes(self):
        for n in (1, 4, 7):
            assert [c.parts for c in enumerate_compositions_length(n, 1)] == [(n,)]
            assert [c.parts for c in enumerate_compositions_length(n, n)] == [(1,) * n]

    def test_count_is_binomial(self):
        assert len(enumerate_compositions_length(5, 3)) == binomial(4, 2) == 6
        for n in range(1, 11):
            for m in range(1, n + 1):
                assert len(enumerate_compositions_length(n, m)) == binomial(n - 1, m - 1)

    def test_lengths_partition_the_full_set(self):
        for n in range(1, 15):
            total = sum(len(enumerate_compositions_length(n, m)) for m in range(1, n + 1))
            assert total == 2 ** (n - 1)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            enumerate_compositions_length(5, 0)
        with pytest.raises(ValueError):
            enumerate_compositions_length(5, 6)


class TestPartTuples:
    def test_matches_bitmask_oracle_by_length(self):
        # Past the cache depth, so the walk recurses as well as reading its cache.
        for n in range(1, compositions.CACHE_DEPTH + 5):
            oracle = bitmask_compositions(n)
            assert list(compositions._part_tuples(n)) == oracle
            for m in range(1, n + 1):
                assert list(compositions._part_tuples(n, m)) == [
                    parts for parts in oracle if len(parts) == m]

    def test_arguments_are_checked_at_the_call(self):
        # Not at the first item: a streaming caller validates before output.
        for args in [(0,), (25,), (5, 0), (5, 6)]:
            with pytest.raises(ValueError):
                compositions._part_tuples(*args)
        # No chain of length 1 fits (3, 3): only the interval check rejects it.
        for kwargs in [{}, {"length": 1}]:
            with pytest.raises(ValueError, match="need 0 <= lower < upper"):
                enumerate_chains(3, 3, **kwargs)


class TestChainBijection:
    def test_worked_examples(self):
        assert chain_to_composition(DecreasingChain((4, 2), 5, 0)).parts == (1, 2, 2)
        assert chain_to_composition(DecreasingChain((4, 3), 5, 2)).parts == (1, 1, 1)
        for p in (1, 3, 8):
            assert chain_to_composition(DecreasingChain((), p, 0)).parts == (p,)

    def test_inverse_examples(self):
        assert composition_to_chain(Composition.of(1, 2, 2), 5, 0).indices == (4, 2)
        assert composition_to_chain(Composition.of(1, 1, 1), 5, 2).indices == (4, 3)
        assert composition_to_chain(Composition.of(5), 5, 0).indices == ()

    def test_sum_mismatch_rejected(self):
        with pytest.raises(ValueError):
            composition_to_chain(Composition.of(1, 2), 5, 0)

    def test_round_trip_both_ways(self):
        for p in range(1, 13):
            for lower in range(p):
                chains = enumerate_chains(p, lower)
                seen = set()
                for ch in chains:
                    comp = chain_to_composition(ch)
                    assert comp.total == p - lower
                    assert composition_to_chain(comp, p, lower) == ch
                    seen.add(comp.parts)
                assert len(seen) == len(chains)
                for comp in enumerate_compositions(p - lower):
                    ch = composition_to_chain(comp, p, lower)
                    assert chain_to_composition(ch) == comp

    def test_chain_counts(self):
        for p in range(1, 13):
            chains = enumerate_chains(p, 0)
            assert len(chains) == 2 ** (p - 1)
            for r in range(p):
                assert sum(1 for c in chains if c.length == r) == binomial(p - 1, r)

    @given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=6))
    def test_round_trip_random_compositions(self, parts):
        comp = Composition.of(*parts)
        chain = composition_to_chain(comp, comp.total, 0)
        assert chain_to_composition(chain) == comp


def _inverse_factorials(n):
    return [Fraction(-1, math.factorial(i)) for i in range(1, n + 1)]


class TestGessel:
    def test_constant_term(self):
        assert gessel_coefficient_series([], 0) == 1
        assert gessel_coefficient_bruteforce([], 0) == 1

    def test_inverse_exponential(self):
        # (1 + sum x^i/i!)^(-1) = e^(-x): coefficient of x^n is (-1)^n/n!, here
        # at n = 3 and at the brute force's guard cap, 2^19 compositions.
        for n in (3, 20):
            expected = Fraction((-1) ** n, math.factorial(n))
            assert gessel_coefficient_series(_inverse_factorials(n), n) == expected
            assert gessel_coefficient_bruteforce(_inverse_factorials(n), n) == expected

    def test_all_ones_counts_compositions(self):
        assert gessel_coefficient_series([1] * 4, 4) == 8
        assert gessel_coefficient_bruteforce([1] * 5, 5) == 16

    def test_normalized_alternating_factorial_sum(self):
        # (-1)^p p! [x^p] e^(-x) = 1.
        for p in range(1, 11):
            c = gessel_coefficient_series(_inverse_factorials(p), p)
            assert (-1) ** p * math.factorial(p) * c == 1

    def test_guards(self):
        with pytest.raises(SizeLimitError):
            gessel_coefficient_bruteforce([1] * 21, 21)
        with pytest.raises(ValueError):
            gessel_coefficient_series([1], 2)  # too few weights
