"""Bernoulli numbers retrieved as the paper does, and a table of them.

``retrieve_bernoulli`` recovers B_n from power sums alone, sharing no code
with ``power_sums.bernoulli_oracle``.  In Faulhaber's closed form of
h(p, .), p = n+1 (p = 1 for n = 1), B_n enters exactly one coefficient, that
of k^(p-n+1), with weight (-1)^n C(p+1, n)/(p+1).  Retrieval reads B_n off
that coefficient of the odd-exponent halving recurrence, then insists the two
polynomials agree in every coefficient.  ``bernoulli_table`` lists retrieved
values and checks each against the oracle.

The lower closed forms h(j, .), j < p, are retrieval's own, each built once:
the Bernoulli-free interpolation for even j, the recurrence of the step whose
p is j for odd j.  The closed form they are matched against takes every
earlier retrieved B_j, so each is checked again at every later n.
"""

from __future__ import annotations

import types
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .errors import ConsistencyError, _Record
from .exact import Polynomial, poly_coefficient, polynomial_from_points
from .power_sums import bernoulli_oracle, faulhaber_polynomial, h_naive, odd_recurrence_polynomial


class RetrievalDetail(_Record):
    """One retrieval step: the solved value and the two matched polynomials."""

    n: int
    p: int
    value: Fraction
    compared_degree: int
    recurrence_poly: Polynomial
    closed_form_poly: Polynomial


@lru_cache(maxsize=None)
def _known_even_power_sum(n: int) -> Polynomial:
    """Closed form of h(n, .) for even n without any Bernoulli input.

    Exact interpolation of the summation oracle through k = 0..n+1; this
    plays the role of the classically known even-exponent formulas and keeps
    the retrieval independent of the value being solved for.
    """
    points = [(t, Fraction(h_naive(n, t))) for t in range(n + 2)]
    return polynomial_from_points(points, var="k")


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

    # Retrieval's own lower forms; for odd j, step max(j - 1, 1) has p = j.
    def lower(j: int) -> Polynomial:
        if j % 2 == 0:
            return _known_even_power_sum(j)
        return retrieve_bernoulli_detail(max(j - 1, 1)).recurrence_poly

    recurrence_poly = odd_recurrence_polynomial(p, lower)
    # B_n enters Faulhaber's form at this degree only; its weight there is the
    # coefficient of the form with B_n = 1 and every other B_j = 0.
    degree = p - n + 1
    weight = poly_coefficient(faulhaber_polynomial(p, lambda j: int(j == n)), degree)
    value = poly_coefficient(recurrence_poly, degree) / weight
    closed_form_poly = faulhaber_polynomial(p, lambda j: value if j == n else _retrieved(j))
    if closed_form_poly != recurrence_poly:
        raise ConsistencyError(
            f"retrieval of B_{n}: polynomials disagree beyond the solved coefficient"
        )
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
