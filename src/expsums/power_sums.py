"""Power sums h(p, k) = 1^p + 2^p + ... + k^p, four ways.

The evaluators are a literal summation oracle, an odd-exponent halving
recurrence (h appears on both sides of a binomial reflection and survives
with factor 2 only when p is odd), the Bernoulli-number closed form, and
symbolic closed-form polynomials in k.  All agree exactly; h(p, 0) = 0 and
0^0 = 1 by convention.  The recurrence runs Horner's scheme in (k+1) on
integer numerators over one denominator, as shift-adds, and reduces each
output coefficient once; closed forms are evaluated the same way, with one
division at the end.  ``_h_numerators`` memoises the integer numerators of
one closed form per exponent; ``h_polynomial`` builds a form on each call.

``h_polynomial`` and ``h_faulhaber`` take their B_j from the tangent-number
oracle ``arith.bernoulli_oracle``, read through this module's binding; the
paper's retrieval in ``bernoulli`` checks it a second way.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from typing import Callable, Sequence

from .arith import bernoulli_oracle, binomial
from .errors import ConsistencyError, ParityError
from .exact import Polynomial, _integer_numerators, _ratio


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
                    lower: Callable[[int], tuple[Sequence[int], int]]) -> tuple[list[int], int]:
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
def _h_numerators(p: int) -> tuple[tuple[int, ...], int]:
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
