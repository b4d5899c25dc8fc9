"""Power sums h(p, k) = 1^p + 2^p + ... + k^p, four ways.

The evaluators are a literal summation oracle, an odd-exponent halving
recurrence (h appears on both sides of a binomial reflection and survives
with factor 2 only when p is odd), the Bernoulli-number closed form, and
symbolic closed-form polynomials in k.  All agree exactly; h(p, 0) = 0 and
0^0 = 1 by convention.  The recurrence runs Horner's scheme in (k+1); the
one memo, ``_closed_form``, holds a polynomial per exponent and Bernoulli source.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .errors import ConsistencyError, ParityError
from .exact import Polynomial, binomial


def h_naive(p: int, k: int) -> int:
    """Ground-truth oracle: literal summation of s^p for s = 1..k."""
    if p < 0 or k < 0:
        raise ValueError(f"h_naive requires p >= 0 and k >= 0, got p={p}, k={k}")
    return sum(s**p for s in range(1, k + 1))


def faulhaber_polynomial(p: int, bern: Callable[[int], Fraction]) -> Polynomial:
    """Closed form of h(p, .) from a supplied Bernoulli source:

        (1/(p+1)) * (k^(p+1) + sum_{j=1}^{p} (-1)^j C(p+1, j) B_j k^(p-j+1))

    under the B_1 = -1/2 sign convention, filled into one coefficient list.
    """
    if p < 1:
        raise ValueError(f"faulhaber_polynomial requires p >= 1, got {p}")
    coeffs = [0] * (p + 1) + [1]
    for j in range(1, p + 1):
        coeffs[p - j + 1] = (-1) ** j * binomial(p + 1, j) * bern(j)
    return Polynomial(coeffs, var="k") / (p + 1)


def odd_recurrence_polynomial(p: int, lower: Callable[[int], Polynomial]) -> Polynomial:
    """Closed form of h(p, .) for odd p from lower closed forms:

        (1/2) * ((k+1)^p k + sum_{j=1}^{p-1} (-1)^j C(p, j) (k+1)^(p-j) h(j, k)),

    in Horner form: acc = k, then acc <- acc (k+1) + (-1)^j C(p, j) h(j, .)
    for j = 1..p-1 in turn, and the result is acc (k+1) / 2.
    """
    if p < 1 or p % 2 == 0:
        raise ParityError(f"the halving recurrence needs odd p >= 1, got {p}")
    kp1 = Polynomial((1, 1), var="k")
    acc = Polynomial((0, 1), var="k")
    for j in range(1, p):
        acc = acc * kp1 + lower(j) * ((-1) ** j * binomial(p, j))
    return acc * kp1 / 2


@lru_cache(maxsize=None)
def _closed_form(p: int, bern: Callable[[int], Fraction]) -> Polynomial:
    """Closed form of h(p, .): Faulhaber's from ``bern`` for even p, the
    halving recurrence for odd p.  Memoised per source, so sources never mix."""
    if p % 2 == 0:
        return faulhaber_polynomial(p, bern)
    return odd_recurrence_polynomial(p, lambda j: _closed_form(j, bern))


def h_polynomial(p: int) -> Polynomial:
    """Closed-form polynomial for h(p, .): degree p+1, leading coefficient
    1/(p+1), zero constant term.

    Odd p is built symbolically through the halving recurrence; even p through
    the Bernoulli closed form with oracle Bernoulli numbers.
    """
    if p < 1:
        raise ValueError(f"h_polynomial requires p >= 1, got {p}")
    from .bernoulli import bernoulli_oracle

    return _closed_form(p, bernoulli_oracle)


def _integral_value(poly: Polynomial, p: int, k: int) -> int:
    """poly(k) as the power sum h(p, k); a non-integer value is a fault."""
    value = Fraction(poly.evaluate(k))
    if value.denominator != 1:
        raise ConsistencyError(f"closed form gave non-integer h({p},{k}) = {value}")
    return value.numerator


def h_faulhaber(p: int, k: int) -> Fraction:
    """Evaluate the Bernoulli closed form, built from oracle Bernoulli numbers
    on each call; asserted integral, never truncated."""
    if p < 1 or k < 0:
        raise ValueError(f"h_faulhaber requires p >= 1 and k >= 0, got p={p}, k={k}")
    from .bernoulli import bernoulli_oracle

    return Fraction(_integral_value(faulhaber_polynomial(p, bernoulli_oracle), p, k))


def h_recurrence(p: int, k: int) -> int:
    """Evaluate h(p, k) through the odd-exponent halving recurrence.

    Walks q = 1..p once, bottom-up: odd q by the recurrence (Horner's scheme
    in k+1) over the values below q, even q from the shared closed form (the
    recurrence cannot produce them).  Each division by 2 must be exact.
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
            values.append(_integral_value(h_polynomial(q), q, k))
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
