"""Bernoulli numbers retrieved as the paper does, and a table of them.

``retrieve_bernoulli`` recovers B_n from power sums alone, sharing no code
with ``arith.bernoulli_oracle``.  In Faulhaber's closed form of
h(p, .), p = n+1 (p = 1 for n = 1), B_n enters exactly one coefficient, that
of k^(p-n+1), with weight (-1)^n C(p+1, n)/(p+1).  Retrieval reads B_n off
that coefficient of the odd-exponent halving recurrence, then insists the two
polynomials agree in every coefficient.  ``bernoulli_table`` lists retrieved
values and checks each against the oracle.

The lower closed forms h(j, .), j < p, are the recurrence's own, each built
once, even ones by the derivative rule h(j+1, .)' = (j+1) h(j, .) (B_(j+1) = 0),
by which each step also solves for its own h(p, .): every even B_n follows from
h(1, .).  The form they are matched against takes every earlier retrieved B_j.
Each lower form is kept as integer numerators over one denominator, cleared
once; the recurrence's Horner steps, the solve and the derivative run on them,
and each coefficient is reduced once, at the end.
"""

from __future__ import annotations

import math
import types
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .arith import bernoulli_oracle, binomial
from .errors import ConsistencyError, _Record
from .exact import Polynomial, _integer_numerators, _ratio, poly_coefficient
from .power_sums import _odd_recurrence, faulhaber_polynomial


class RetrievalDetail(_Record):
    """One retrieval step: the solved value and the two matched polynomials."""

    n: int
    p: int
    value: Fraction
    compared_degree: int
    recurrence_poly: Polynomial
    closed_form_poly: Polynomial


@lru_cache(maxsize=None)
def _lower_form(j: int) -> tuple[tuple[int, ...], int]:
    """h(j, .) as integer numerators over one denominator, cleared once: from
    the step whose p is j (odd j) or, by the derivative rule, from h(j+1, .)."""
    if j % 2:
        return _integer_numerators(retrieve_bernoulli_detail(max(j - 1, 1)).recurrence_poly.coeffs)
    nums, den = _lower_form(j + 1)
    return tuple([i * c for i, c in enumerate(nums) if i]), den * (j + 1)


def _retrieved(j: int) -> Fraction:
    """B_j as retrieval produces it (j = 1 or even); odd indices >= 3 vanish."""
    if j % 2 == 1 and j > 1:
        return Fraction(0)
    return retrieve_bernoulli(j)


@lru_cache(maxsize=None)
def retrieve_bernoulli_detail(n: int) -> RetrievalDetail:
    """Retrieval plus the two full polynomials, for auditing every coefficient."""
    if n < 1 or (n != 1 and n % 2 == 1):
        note = (" (odd Bernoulli numbers beyond the first vanish; nothing to solve)"
                if n >= 3 else "")
        raise ValueError(f"retrieval is defined for n = 1 and even n >= 2, got n={n}{note}")
    p = 1 if n == 1 else n + 1
    # S has s[i] / den at degree i; for p = 1 the recurrence reads no lower form and S is h.
    s, den = _odd_recurrence(p, lambda j: ([], 1) if j == p - 1 else _lower_form(j))
    c, f = s, 1
    if n > 1:
        # The recurrence's last term p (k+1) h(p-1, .) is (k+1) h' by the derivative rule,
        # so read with h(p-1, .) = 0 it gives S = h - (k+1) h'/2, that is (2-i) c_i -
        # (i+1) c_(i+1) = 2 S_i at degree i of h = sum c_i k^i.  Solve down to i = 3; c_0 =
        # c_1 = 0 (h(p, 0) = h'(p, 0) = 0), i = 1 gives c_2 = -S_1, and i = 2 must hold.
        # Each c_i is c[i] / (den f), f = (t-2)! for the top degree t of S: c[i+1] is then a
        # multiple of (i-2)! and f of i - 2, so each division by i - 2 is exact.
        f = math.factorial(len(s) - 3)
        c = [0] * (len(s) + 1)
        for i in range(len(s) - 1, 2, -1):
            c[i] = -(2 * s[i] * f + (i + 1) * c[i + 1]) // (i - 2)
        if -3 * c[3] != 2 * s[2] * f:
            raise ConsistencyError(f"retrieval of B_{n}: the recurrence fails at degree 2")
        c[2] = -s[1] * f
    recurrence_poly = Polynomial((_ratio(x, den * f) for x in c), var="k")
    # B_n enters Faulhaber's form at this degree only, with weight (-1)^n C(p+1, n)/(p+1).
    # The binomial is arith's, not the binding both closed forms read: a wrong binomial
    # there would cancel out of the solved value, which for n = 1 no other coefficient checks.
    degree = p - n + 1
    weight = Fraction((-1) ** n * binomial(p + 1, n), p + 1)
    value = poly_coefficient(recurrence_poly, degree) / weight
    closed_form_poly = faulhaber_polynomial(p, lambda j: value if j == n else _retrieved(j))
    if closed_form_poly != recurrence_poly:
        raise ConsistencyError(
            f"retrieval of B_{n}: polynomials disagree beyond the solved coefficient")
    return RetrievalDetail(n, p, value, degree, recurrence_poly, closed_form_poly)


def retrieve_bernoulli(n: int) -> Fraction:
    """Recover B_n (n = 1 or even) by matching power-sum closed forms."""
    return retrieve_bernoulli_detail(n).value


class BernoulliTable(_Record):
    """Immutable index -> B_n map under the B_1 = -1/2 convention."""

    values: Mapping[int, Fraction]

    def __getitem__(self, n: int) -> Fraction:
        return self.values[n]

    def __len__(self) -> int:
        return len(self.values)


def bernoulli_table(nmax: int) -> BernoulliTable:
    """Table of B_0..B_nmax, every entry cross-checked against the oracle.

    Index 1 and even indices >= 2 come from the retrieval path; odd indices
    >= 3 are set to zero.
    """
    if nmax < 0:
        raise ValueError(f"bernoulli_table requires nmax >= 0, got {nmax}")
    values: dict[int, Fraction] = {0: Fraction(1)}
    for n in range(1, nmax + 1):
        values[n] = _retrieved(n)
    for n, v in values.items():
        if v != bernoulli_oracle(n):
            raise ConsistencyError(f"table entry B_{n} = {v} disagrees with the oracle")
    return BernoulliTable(types.MappingProxyType(values))
