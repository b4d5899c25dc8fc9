"""Power sums h(p, k) = 1^p + 2^p + ... + k^p, four ways, and the Bernoulli
numbers Faulhaber's form reads.

The evaluators are a literal summation oracle, an odd-exponent halving
recurrence (h appears on both sides of a binomial reflection and survives
with factor 2 only when p is odd), the Bernoulli-number closed form, and
symbolic closed-form polynomials in k.  All agree exactly; h(p, 0) = 0 and
0^0 = 1 by convention.  The recurrence runs Horner's scheme in (k+1) on
integer numerators over one denominator, as shift-adds, and reduces each
output coefficient once; closed forms are evaluated the same way, with one
division at the end.  ``h_polynomial`` memoises one closed form per exponent,
and ``_h_numerators`` its integer numerators.

``bernoulli_oracle`` reads even-index B_n off the tangent number T_(n/2),
B_n = (-1)^(n/2-1) n T_(n/2) / (2^n (2^n - 1)), and grows the tangent
numbers with Brent and Harvey's triangle ("Fast computation of Bernoulli,
Tangent and Secant numbers", arXiv:1108.0286), whose entries are sums of
small multiples of their neighbours, so no two large integers are multiplied;
B_0 = 1, B_1 = -1/2 and the odd B_n, n >= 3, vanish.  T_m is read from the
smallest table T_1..T_(2^e) that holds it; each table is built once, one
column at a time, and kept by an lru_cache, so asking for every n <= N in
any order costs O(N^2) triangle entries and no module state is mutated.
``h_polynomial`` and ``h_faulhaber`` take their B_j from it; the paper's
retrieval in ``bernoulli`` checks it a second way.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from typing import Callable

from .errors import ConsistencyError, ParityError
from .exact import Polynomial, _integer_numerators, _ratio, binomial


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


def h_naive(p: int, k: int) -> int:
    """Ground-truth oracle: literal summation of s^p for s = 1..k."""
    if p < 0 or k < 0:
        raise ValueError(f"h_naive requires p >= 0 and k >= 0, got p={p}, k={k}")
    return sum(s**p for s in range(1, k + 1))


def faulhaber_polynomial(p: int, bern: Callable[[int], Fraction]) -> Polynomial:
    """Closed form of h(p, .) from a supplied Bernoulli source:

        (1/(p+1)) * (k^(p+1) + sum_{j=1}^{p} (-1)^j C(p+1, j) B_j k^(p-j+1))

    under the B_1 = -1/2 sign convention, filled into one coefficient list
    and divided by p+1 on its integer numerators.
    """
    if p < 1:
        raise ValueError(f"faulhaber_polynomial requires p >= 1, got {p}")
    coeffs = [0] * (p + 1) + [1]
    for j in range(1, p + 1):
        coeffs[p - j + 1] = (-1) ** j * binomial(p + 1, j) * bern(j)
    nums, den = _integer_numerators(coeffs)
    return Polynomial((_ratio(c, den * (p + 1)) for c in nums), var="k")


def _odd_recurrence(p: int,
                    lower: Callable[[int], tuple[list[int], int]]) -> tuple[list[int], int]:
    """The closed form of ``odd_recurrence_polynomial`` as (nums, den): the
    coefficient of k^i is nums[i] / den, nothing reduced.

    ``lower(j)`` gives h(j, .) the same way, as integer numerators over one
    denominator.  Each is scaled to the lcm D of their denominators, so acc,
    over D, takes each Horner step as integer shift-adds; den is 2D.  A lower
    form of higher degree than acc pads it.
    """
    if p < 1 or p % 2 == 0:
        raise ParityError(f"the halving recurrence needs odd p >= 1, got {p}")
    forms = [lower(j) for j in range(1, p)]
    den = math.lcm(*[d for _, d in forms])
    acc = [0, den]
    for j, (nums, d) in enumerate(forms, 1):
        scale = (-1) ** j * binomial(p, j) * (den // d)
        acc = [a + b + scale * c
               for a, b, c in zip_longest((0, *acc), (*acc, 0), nums, fillvalue=0)]
    return [a + b for a, b in zip((0, *acc), (*acc, 0))], 2 * den


def odd_recurrence_polynomial(p: int, lower: Callable[[int], Polynomial]) -> Polynomial:
    """Closed form of h(p, .) for odd p from lower closed forms:

        (1/2) * ((k+1)^p k + sum_{j=1}^{p-1} (-1)^j C(p, j) (k+1)^(p-j) h(j, k)),

    in Horner form: acc = k, then acc <- acc (k+1) + (-1)^j C(p, j) h(j, .)
    for j = 1..p-1 in turn, and the result is acc (k+1) / 2.
    """
    nums, den = _odd_recurrence(p, lambda j: _integer_numerators(lower(j).coeffs))
    return Polynomial((_ratio(c, den) for c in nums), var="k")


@lru_cache(maxsize=None)
def h_polynomial(p: int) -> Polynomial:
    """Closed-form polynomial for h(p, .): degree p+1, leading coefficient
    1/(p+1), zero constant term.

    Odd p is built symbolically through the halving recurrence, over the
    lower forms' memoised integer numerators; even p through the Bernoulli
    closed form with oracle Bernoulli numbers.
    """
    if p < 1:
        raise ValueError(f"h_polynomial requires p >= 1, got {p}")
    if p % 2 == 0:
        return faulhaber_polynomial(p, bernoulli_oracle)
    nums, den = _odd_recurrence(p, _h_numerators)
    return Polynomial((_ratio(c, den) for c in nums), var="k")


@lru_cache(maxsize=None)
def _h_numerators(p: int) -> tuple[list[int], int]:
    """``h_polynomial(p)`` as integer numerators over one denominator, cleared
    once per exponent."""
    return _integer_numerators(h_polynomial(p).coeffs)


def _integral_value(form: tuple[list[int], int], p: int, k: int) -> int:
    """The closed form (nums, den) of h(p, .) at k, by Horner's scheme on the
    integer numerators, divided once by den; a non-integer value is a fault."""
    nums, den = form
    total = 0
    for c in reversed(nums):
        total = total * k + c
    value, rem = divmod(total, den)
    if rem:
        raise ConsistencyError(
            f"closed form gave non-integer h({p},{k}) = {Fraction(total, den)}")
    return value


def h_faulhaber(p: int, k: int) -> Fraction:
    """Evaluate the Bernoulli closed form, built from oracle Bernoulli numbers
    on each call; asserted integral, never truncated."""
    if p < 1 or k < 0:
        raise ValueError(f"h_faulhaber requires p >= 1 and k >= 0, got p={p}, k={k}")
    form = faulhaber_polynomial(p, bernoulli_oracle)
    return Fraction(_integral_value(_integer_numerators(form.coeffs), p, k))


def h_recurrence(p: int, k: int) -> int:
    """Evaluate h(p, k) through the odd-exponent halving recurrence.

    Walks q = 1..p once, bottom-up: odd q by the recurrence (Horner's scheme
    in k+1) over the values below q, even q from ``h_polynomial`` (the
    recurrence cannot produce them), cleared to integer numerators once per q
    by ``_h_numerators``.  Each division by 2 must be exact.
    """
    if p < 1:
        raise ValueError(f"h_recurrence requires p >= 1, got {p}")
    if p % 2 == 0:
        raise ParityError(f"the halving recurrence is undefined for even p (got p={p})")
    if k < 0:
        raise ValueError(f"h_recurrence requires k >= 0, got {k}")
    values = [k]  # h(0, k), never read
    for q in range(1, p + 1):
        if q % 2 == 0:
            values.append(_integral_value(_h_numerators(q), q, k))
            continue
        total = k
        for j in range(1, q):
            total = total * (k + 1) + (-1) ** j * binomial(q, j) * values[j]
        half, rem = divmod(total * (k + 1), 2)
        if rem:
            raise ConsistencyError(f"odd intermediate in h_recurrence({q},{k})")
        values.append(half)
    return values[p]


def eq4_check(p: int, k: int) -> bool:
    """Check, with every side a literal summation, that

        sum_{s=1}^{k-1} s^p
            = k^p (k-1) + sum_{a=0}^{p-1} (-1)^(p-a) C(p, a) k^a sum_{s=1}^{k-1} s^(p-a).
    """
    if p < 1 or k < 1:
        raise ValueError(f"eq4_check requires p >= 1 and k >= 1, got p={p}, k={k}")
    lhs = h_naive(p, k - 1)
    rhs = k**p * (k - 1)
    for a in range(p):
        rhs += (-1) ** (p - a) * binomial(p, a) * k**a * h_naive(p - a, k - 1)
    return lhs == rhs
