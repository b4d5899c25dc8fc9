"""Bernoulli numbers retrieved as the paper does, and a table of them.

``retrieve_bernoulli`` recovers B_n from power sums alone, sharing no code
with ``power_sums.bernoulli_oracle``.  In Faulhaber's closed form of
h(p, .), p = n+1 (p = 1 for n = 1), B_n enters exactly one coefficient, that
of k^(p-n+1), with weight (-1)^n C(p+1, n)/(p+1).  Retrieval reads B_n off
that coefficient of the odd-exponent halving recurrence, then insists the two
polynomials agree in every coefficient.  ``bernoulli_table`` lists retrieved
values and checks each against the oracle.

The lower closed forms h(j, .), j < p, are the recurrence's own, each built
once, even ones by the derivative rule h(j+1, .)' = (j+1) h(j, .) (B_(j+1) = 0),
by which each step also solves for its own h(p, .): every even B_n follows from
h(1, .).  The form they are matched against takes every earlier retrieved B_j.
"""

from __future__ import annotations

import types
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .errors import ConsistencyError, _Record
from .exact import Polynomial, poly_coefficient
from .power_sums import bernoulli_oracle, faulhaber_polynomial, odd_recurrence_polynomial


class RetrievalDetail(_Record):
    """One retrieval step: the solved value and the two matched polynomials."""

    n: int
    p: int
    value: Fraction
    compared_degree: int
    recurrence_poly: Polynomial
    closed_form_poly: Polynomial


@lru_cache(maxsize=None)
def _lower_form(j: int) -> Polynomial:
    """h(j, .) from the step whose p is j (odd j) or, by the derivative rule, j+1."""
    if j % 2:
        return retrieve_bernoulli_detail(max(j - 1, 1)).recurrence_poly
    upper = retrieve_bernoulli_detail(j).recurrence_poly.coeffs
    return Polynomial([i * c for i, c in enumerate(upper)][1:], var="k") / (j + 1)


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
    if n == 1:  # the recurrence for p = 1 reads no lower form
        recurrence_poly = odd_recurrence_polynomial(p, _lower_form)
    else:
        # The recurrence's last term p (k+1) h(p-1, .) is (k+1) h' by the derivative rule,
        # so read with h(p-1, .) = 0 it gives S = h - (k+1) h'/2, that is (2-i) c_i -
        # (i+1) c_(i+1) = 2 S_i at degree i of h = sum c_i k^i.  Solve down to i = 3; c_0 =
        # c_1 = 0 (h(p, 0) = h'(p, 0) = 0), i = 1 gives c_2 = -S_1, and i = 2 must hold.
        s = odd_recurrence_polynomial(p, lambda j: Polynomial() if j == p - 1 else _lower_form(j))
        c = [0] * (len(s.coeffs) + 1)
        for i in range(len(c) - 2, 2, -1):
            c[i] = (2 * poly_coefficient(s, i) + (i + 1) * c[i + 1]) / (2 - i)
        if -3 * c[3] != 2 * poly_coefficient(s, 2):
            raise ConsistencyError(f"retrieval of B_{n}: the recurrence fails at degree 2")
        c[2] = -poly_coefficient(s, 1)
        recurrence_poly = Polynomial((x.numerator if x.denominator == 1 else x for x in c), "k")
    # B_n enters Faulhaber's form at this degree only; its weight there is the
    # coefficient of the form with B_n = 1 and every other B_j = 0.
    degree = p - n + 1
    weight = poly_coefficient(faulhaber_polynomial(p, lambda j: int(j == n)), degree)
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
