"""Integer arithmetic shared by the exact and the double-precision layers:
binomial and multinomial coefficients, prime factorization, the Bernoulli
oracle with the tangent numbers it reads, and the "a/b" wire format of exact
rationals.

The module imports nothing from the package, and ``fractions`` loads only in
the functions that build a ``Fraction`` (the oracle and the wire format), so a
command that needs only binomials and factorizations, such as ``characters``
or the floating prop1 sweep, loads neither the exact layer nor ``fractions``.

``bernoulli_oracle`` reads even-index B_n off the tangent number T_(n/2),
B_n = (-1)^(n/2-1) n T_(n/2) / (2^n (2^n - 1)), and grows the tangent
numbers with Brent and Harvey's triangle ("Fast computation of Bernoulli,
Tangent and Secant numbers", arXiv:1108.0286), whose entries are sums of
small multiples of their neighbours, so no two large integers are multiplied;
B_0 = 1, B_1 = -1/2 and the odd B_n, n >= 3, vanish.  T_m is read from the
smallest table T_1..T_(2^e) that holds it; each table is built once, one
column at a time, and kept by an lru_cache, so asking for every n <= N in
any order costs O(N^2) triangle entries and no module state is mutated.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from fractions import Fraction


def binomial(n: int, r: int) -> int:
    """Binomial coefficient C(n, r); 0 when r < 0 or r > n."""
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got n={n}")
    if r < 0 or r > n:
        return 0
    return math.comb(n, r)


def multinomial(n: int, parts: Sequence[int]) -> int:
    """Multinomial coefficient n! / (parts_1! * ... * parts_m!).

    The parts must be non-negative and sum to n.
    """
    if n < 0:
        raise ValueError(f"multinomial requires n >= 0, got n={n}")
    if any(p < 0 for p in parts):
        raise ValueError(f"multinomial parts must be non-negative, got {list(parts)}")
    if sum(parts) != n:
        raise ValueError(f"multinomial parts {list(parts)} do not sum to n={n}")
    out = 1
    remaining = n
    for p in parts:
        out *= math.comb(remaining, p)
        remaining -= p
    return out


def _factorize(n: int) -> list[tuple[int, int]]:
    """The prime factorization of n >= 1 as (prime, exponent) pairs, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


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
    from fractions import Fraction

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


def format_rational(q: int | Fraction) -> str:
    """Serialize an exact scalar as "a/b", or "a" when the denominator is 1."""
    from fractions import Fraction

    return str(Fraction(q))


def parse_rational(s: str) -> Fraction:
    """Inverse of :func:`format_rational`."""
    from fractions import Fraction

    return Fraction(s)
