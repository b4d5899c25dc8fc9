"""Power sums h(p, k) = 1^p + 2^p + ... + k^p, four ways.

The evaluators are a literal summation oracle, an odd-exponent halving
recurrence (h appears on both sides of a binomial reflection and survives
with factor 2 only when p is odd), the Bernoulli-number closed form, and
symbolic closed-form polynomials in k.  All agree exactly; h(p, 0) = 0 and
0^0 = 1 by convention.
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

    under the B_1 = -1/2 sign convention.
    """
    if p < 1:
        raise ValueError(f"faulhaber_polynomial requires p >= 1, got {p}")
    poly = Polynomial.monomial(p + 1, var="k")
    for j in range(1, p + 1):
        bj = bern(j)
        if bj == 0:
            continue
        coeff = (-1) ** j * binomial(p + 1, j) * bj
        poly = poly + Polynomial.monomial(p - j + 1, coeff, var="k")
    return poly / (p + 1)


def odd_recurrence_polynomial(p: int, lower: Callable[[int], Polynomial]) -> Polynomial:
    """Closed form of h(p, .) for odd p from lower closed forms:

        (1/2) * ((k+1)^p k + sum_{j=1}^{p-1} (-1)^j C(p, j) (k+1)^(p-j) h(j, k))
    """
    if p < 1 or p % 2 == 0:
        raise ParityError(f"the halving recurrence needs odd p >= 1, got {p}")
    kp1 = Polynomial((1, 1), var="k")
    acc = (kp1**p) * Polynomial((0, 1), var="k")
    for j in range(1, p):
        acc = acc + (kp1 ** (p - j)) * lower(j) * ((-1) ** j * binomial(p, j))
    return acc / 2


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


@lru_cache(maxsize=None)
def _oracle_faulhaber(p: int) -> Polynomial:
    """Faulhaber's closed form of h(p, .) from oracle Bernoulli numbers, built
    once per p for every k."""
    from .bernoulli import bernoulli_oracle

    return faulhaber_polynomial(p, bernoulli_oracle)


@lru_cache(maxsize=None)
def h_faulhaber(p: int, k: int) -> Fraction:
    """Evaluate the Bernoulli closed form; asserted integral, never truncated."""
    if p < 1 or k < 0:
        raise ValueError(f"h_faulhaber requires p >= 1 and k >= 0, got p={p}, k={k}")
    value = Fraction(_oracle_faulhaber(p).evaluate(k))
    if value.denominator != 1:
        raise ConsistencyError(f"closed form gave non-integer h({p},{k}) = {value}")
    return value


@lru_cache(maxsize=None)
def h_recurrence(p: int, k: int) -> int:
    """Evaluate h(p, k) through the odd-exponent halving recurrence.

    Lower odd exponents recurse; lower even exponents come from the Bernoulli
    closed form (the recurrence cannot produce them).  The final division by 2
    must be exact.
    """
    if p < 1:
        raise ValueError(f"h_recurrence requires p >= 1, got {p}")
    if p % 2 == 0:
        raise ParityError(f"the halving recurrence is undefined for even p (got p={p})")
    if k < 0:
        raise ValueError(f"h_recurrence requires k >= 0, got {k}")
    total = (k + 1) ** p * k
    for j in range(1, p):
        hj = h_recurrence(j, k) if j % 2 else int(h_faulhaber(j, k))
        total += (-1) ** j * binomial(p, j) * (k + 1) ** (p - j) * hj
    half, rem = divmod(total, 2)
    if rem:
        raise ConsistencyError(f"odd intermediate in h_recurrence({p},{k})")
    return half


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
