"""Bernoulli numbers two independent ways.

``bernoulli_oracle`` reads even-index B_n off the tangent number T_(n/2),
B_n = (-1)^(n/2-1) n T_(n/2) / (2^n (2^n - 1)), and grows the tangent
numbers with Brent and Harvey's triangle ("Fast computation of Bernoulli,
Tangent and Secant numbers", arXiv:1108.0286), whose entries are sums of
small multiples of their neighbours, so no two large integers are multiplied;
B_0 = 1, B_1 = -1/2 and the odd B_n, n >= 3, vanish.  T_m is read from the
smallest table T_1..T_(2^e) that holds it; each table is built once, one
column at a time, and kept by an lru_cache, so asking for every n <= N in
any order costs O(N^2) triangle entries and no module state is mutated.

``retrieve_bernoulli`` recovers B_n a second way, sharing no code with the
oracle.  In Faulhaber's closed form of h(p, .), p = n+1 (p = 1 for n = 1),
B_n enters exactly one coefficient, that of k^(p-n+1), with weight
(-1)^n C(p+1, n)/(p+1).  Retrieval reads B_n off that coefficient of the
odd-exponent halving recurrence, then insists the two polynomials agree in
every coefficient.

The lower closed forms h(j, .), j < n, come from the memoised recursion that
also serves ``h_polynomial``, so each is built once for all n.  The memo is
keyed by the Bernoulli source, and retrieval's source is the retrieved values,
so it never reads a polynomial built from ``bernoulli_oracle``.
"""

from __future__ import annotations

import types
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .errors import ConsistencyError
from .exact import Polynomial, poly_coefficient, polynomial_from_points
from .power_sums import _closed_form, faulhaber_polynomial, h_naive, odd_recurrence_polynomial


@lru_cache(maxsize=None)
def _tangents(size: int) -> tuple[int, ...]:
    """T_1..T_size, from the first size columns of the triangle.

    Column j holds U(1, j), ..., U(j, j), where U(1, j) = (j-1)!,
    U(k, j) = (j-k) U(k, j-1) + (j-k+2) U(k-1, j) and T_j = U(j, j).
    """
    col, out = [1], [1]
    for j in range(1, size):  # column j becomes column j+1, top to bottom
        col[0] *= j
        for k in range(1, j):
            col[k] = (j - k) * col[k] + (j - k + 2) * col[k - 1]
        col.append(2 * col[-1])
        out.append(col[-1])
    return tuple(out)


def _tangent(m: int) -> int:
    """T_m (m >= 1), from the smallest power-of-two table that holds it."""
    return _tangents(1 << (m - 1).bit_length())[m - 1]


@lru_cache(maxsize=None)
def bernoulli_oracle(n: int) -> Fraction:
    """Exact B_n (convention B_1 = -1/2) from the tangent numbers."""
    if n < 0:
        raise ValueError(f"Bernoulli index must be >= 0, got {n}")
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2:
        return Fraction(0)
    sign = 1 if n % 4 == 2 else -1  # (-1)^(n/2 - 1)
    return Fraction(sign * n * _tangent(n // 2), (1 << n) * ((1 << n) - 1))


@dataclass(frozen=True)
class RetrievalDetail:
    """One retrieval step: the solved value and the two matched polynomials."""

    n: int
    p: int
    value: Fraction
    compared_degree: int
    recurrence_poly: Polynomial
    closed_form_poly: Polynomial


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

    # Lower closed forms come from retrieved B_j, j < n; at j = n the
    # Bernoulli-free even power sum stands in for the unknown B_n.
    def lower(j: int) -> Polynomial:
        return _known_even_power_sum(n) if j == n else _closed_form(j, _retrieved)

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


@dataclass(frozen=True)
class BernoulliTable:
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
