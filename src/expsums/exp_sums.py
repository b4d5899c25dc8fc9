"""Exponential power sums sum_{s=1}^{k-1} s^p zeta^(+-ms) and their identities.

Let zeta be a primitive k-th root of unity.  Writing f(p) for the negative
frequency sum (sign -1) and g(p) for the positive one (sign +1), this module
verifies, exactly in Q[x]/Phi_k,

    f(p) = -k^p + sum_{a=0}^{p-1} (-1)^(p-a) C(p, a) k^a g(p-a)      (k does not divide m)

together with the periodicity-only reflection

    f(p) = (-1)^p g(p) + sum_{a=0}^{p-1} (-1)^(p+a+1) C(p, a) k^(p-a) f(a)

(checked mod x^k - 1 for every frequency m including 0), and the signed
binomial chain sums that collapse the recursive expansion of the reflection
into the single binomial coefficient in front of each k^a g(p-a).

Each exact identity is linear in the sums, and every sum is
sum_s w(s) x^(+-m*s mod k) for an integer weight w(s), so for fixed (p, k) a
residual puts one integer weight A(s) per s at frequency -m and one, B(s),
at +m: s^p and G(s) = -sum_a (-1)^(p-a) C(p, a) k^a s^(p-a) for prop1,
H(s) = s^p + sum_a (-1)^(p+a) C(p, a) k^(p-a) s^a and -(-1)^p s^p for the
reflection.  Since A(s) at -m*s is A(-t) at m*t for t = -s mod k, the two
sides are one summed table D(t) = A(-t mod k) + B(t) at +m.  One builder,
``_weights``, makes D for t = 0..k-1 from the two integer coefficient lists
by Horner's scheme, once per (p, k), from the module's ``binomial`` at call
time; one kernel, ``_class_vector``, places it in Z[x]/(x^k - 1), one vector
per residue class: coefficient j reads D(m^-1 * j) through cached index
tuples when m is a unit mod k, and D(s) is added at m*s otherwise.
``exp_power_sum_cyclo`` places its one side, s^p, the same way.

The prop1 sweep only asks whether each vector is 0 mod Phi_k, and
``_is_zero_mod_phi`` decides that by integer orbit sums, without dividing;
the reflection sweep asks whether its vectors are 0 outright.  So a passing
sweep is integer code alone and loads neither ``exact`` nor ``fractions``:
``exact`` is imported only by the two helpers that wrap a vector, one as a
``Polynomial`` (``eq3_residual_poly`` and the reflection's FAIL text), one as
a ``CyclotomicElement`` reduced mod Phi_k (``exp_power_sum_cyclo``,
``prop1_residual_cyclo`` and prop1's FAIL text).  Testing the vector equals
testing the sum of the reduced terms, because reduction
Z[x]/(x^k - 1) -> Q[x]/Phi_k is a ring homomorphism.

The chain sums form no chain's product.  ``_chain_sums`` sums the signed
products over every chain from p down to each i by back-substitution,
c_i = -sum_(j>i) C(j, i) c_j, on a Pascal table built from ``binomial`` when
the sum runs: one O(p^2) pass gives every a = 0..p at once, once per p for
the whole coeffs sweep.

The floating half of the prop1 check, its complex kernel and sweep, lives in
``floating``, with what both halves share: ``ExpSumQuery``, ``SweepResult``
and its failure records, and the argument checks, which this module imports.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

from .arith import _factorize, binomial
from .floating import (ExpSumQuery, SweepResult, _failure, _require_nondivisible,
                       _require_pk)

if TYPE_CHECKING:
    from .exact import CyclotomicElement, Polynomial


def _polynomial(vec: Sequence[int]) -> Polynomial:
    """The element of Z[x]/(x^k - 1) with coefficient list ``vec``, unreduced."""
    from .exact import Polynomial

    return Polynomial(vec)


def _cyclotomic(k: int, vec: Sequence[int]) -> CyclotomicElement:
    """The image mod Phi_k of the element of Z[x]/(x^k - 1) with coefficient
    list ``vec``: one reduction by long division."""
    from .exact import CyclotomicElement, Polynomial

    return CyclotomicElement(k, Polynomial(vec))


def exp_power_sum_cyclo(q: ExpSumQuery) -> CyclotomicElement:
    """The exact image of the sum in Q[x]/Phi_k under zeta -> x.

    Each term s^p zeta^(sign*m*s) becomes s^p x^((sign*m*s) mod k); the
    exponent vector in Z[x]/(x^k - 1) is reduced mod Phi_k once.
    """
    power = [0] * q.p + [1]
    minus, plus = (power, []) if q.sign == -1 else ([], power)
    return _cyclotomic(q.k, _class_vector(q.k, 0, _weights(minus, plus, q.k), q.m))


def _values(coeffs: Sequence[int], xs: Sequence[int]) -> list[int]:
    """The integer polynomial with ascending coefficient list ``coeffs`` at
    each x in ``xs``, by Horner's scheme over the whole row."""
    values = [0] * len(xs)
    for c in reversed(coeffs):
        values = [v * x + c for v, x in zip(values, xs)]
    return values


def _weights(minus: Sequence[int], plus: Sequence[int], k: int) -> list[int]:
    """The summed weight table of one identity, D(t) = A(-t mod k) + B(t) for
    t = 0..k-1, where A and B are the integer polynomials in s with ascending
    coefficient lists ``minus`` and ``plus`` (the weights at -m and +m)."""
    ts = range(k)
    return [a + b for a, b in zip(_values(minus, [-t % k for t in ts]), _values(plus, ts))]


def _prop1_weights(p: int, k: int) -> list[int]:
    """The residual's summed table for (p, k): s^p at frequency -m, and
    G(s) = -sum_a (-1)^(p-a) C(p, a) k^a s^(p-a) at +m."""
    g = [0] * (p + 1)
    for a in range(p):
        g[p - a] = -(-1) ** (p - a) * binomial(p, a) * k**a
    return _weights([0] * p + [1], g, k)


@lru_cache(maxsize=None)
def _gather_index(k: int, e: int) -> tuple[int, ...]:
    """For a unit e mod k, the s in [0, k) with e*s = j mod k, for j = 0..k-1."""
    inverse = pow(e, -1, k)
    return tuple(inverse * j % k for j in range(k))


def _class_vector(k: int, constant: int, table: Sequence[int], m: int) -> list[int]:
    """One residue class's residual in Z[x]/(x^k - 1): the constant plus the
    summed table D at frequency +m, sum_(s=1..k-1) D(s) x^(m*s mod k).

    For m a unit mod k, s -> m*s permutes the nonzero residues, so every
    coefficient j != 0 reads one entry, s = m^-1 * j (a gather through cached
    index tuples); otherwise the table is scattered.
    """
    if math.gcd(m, k) != 1:
        vec = [constant] + [0] * (k - 1)
        for s in range(1, k):
            vec[m * s % k] += table[s]
        return vec
    vec = [table[s] for s in _gather_index(k, m % k)]
    vec[0] = constant
    return vec


def _is_zero_mod_phi(vec: list[int]) -> bool:
    """Whether the element of Z[x]/(x^k - 1) with coefficient list ``vec``
    (k = len(vec) >= 2) is divisible by Phi_k, without dividing.

    Q[x]/(x^k - 1) is the product of the fields Q(zeta_d), d | k, and v is 0
    mod Phi_k when its d = k component vanishes.  For a prime q | k,
    q - sum_(a<q) x^(a*k/q) acts as 0 on the components with d | k/q and as q
    on the others, so applying it for every prime of k but the last keeps,
    each times a nonzero integer, exactly the components whose d holds the
    full power of each of those primes.  Of these only d = k fails d | k/q
    for the last prime q, so v is 0 mod Phi_k if and only if the result w
    has x^(k/q) w = w: it is (k/q)-periodic.  Each step is one pass of
    integer orbit sums, and for a prime power k only the periodicity test is
    left: the classical description of vanishing sums of roots of unity.
    """
    k = len(vec)
    *rest, last = [q for q, _ in _factorize(k)]
    for q in rest:
        d = k // q
        orbits = [sum(vec[r::d]) for r in range(d)] * q
        vec = [q * c - s for c, s in zip(vec, orbits)]
    d = k // last
    return vec[d:] == vec[:-d]


def prop1_residual_cyclo(p: int, k: int, m: int) -> CyclotomicElement:
    """f(p) minus its positive-frequency expansion, exactly in Q[x]/Phi_k.

    The residual f(p) + k^p - sum_a (-1)^(p-a) C(p, a) k^a g(p-a) is
    accumulated as one integer vector in Z[x]/(x^k - 1) and reduced mod
    Phi_k once; since reduction is a ring homomorphism onto canonical
    residues, the result equals the sum of the reduced terms.  Zero residue
    for every k that does not divide m; k | m is rejected (there g(0) = k - 1
    instead of -1 and the identity breaks).
    """
    mm = _require_nondivisible(p, k, m)
    return _cyclotomic(k, _class_vector(k, k**p, _prop1_weights(p, k), mm))


def _eq3_worst(p: int, k: int) -> list[int] | None:
    """The reflection residual's vector in Z[x]/(x^k - 1) of largest max-abs
    norm over the frequencies m = 0..k-1 (the one of least m among equals:
    ``max`` keeps the first), or None when all k vanish."""
    # H(s) at -m and -(-1)^p s^p at +m, as in the module docstring.
    h = [(-1) ** (p + a) * binomial(p, a) * k ** (p - a) for a in range(p)] + [1]
    table = _weights(h, [0] * p + [-(-1) ** p], k)
    vecs = [_class_vector(k, 0, table, m) for m in range(k)]
    if not any(map(any, vecs)):
        return None
    return max(vecs, key=lambda vec: max(map(abs, vec)))


def eq3_residual_poly(p: int, k: int) -> Polynomial:
    """Residual of the reflection identity in Q[x]/(x^k - 1), worst case over
    every frequency m in 0..k-1.

    Only periodicity x^k = 1 enters the identity's derivation, so it holds at
    every k-th root of unity including 1; the returned polynomial is zero when
    all k residuals vanish, otherwise the largest in max-abs norm (the one of
    least m among equals).
    """
    _require_pk(p, k)
    return _polynomial(_eq3_worst(p, k) or ())


def chain_coefficient_sum(p: int, a: int) -> int:
    """Signed binomial products over strictly decreasing chains in the open
    interval (p-a, p), empty chain included:

        sum (-1)^(p+r+1) C(p, i_1) C(i_1, i_2) ... C(i_r, p-a).

    This is the accumulated coefficient of k^a g(p-a) in the recursive
    expansion of f(p); it collapses to (-1)^(p-a) C(p, a), which is 1 at
    a = p.  At a = 0 no substitution step occurs and the direct leading term
    (-1)^p is the (degenerate, empty-product) value.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if a < 0 or a > p:
        raise ValueError(f"need 0 <= a <= p, got a={a}, p={p}")
    return _chain_sums(_pascal(p))[a][0]


def _pascal(p: int) -> list[list[int]]:
    """Rows 0..p of Pascal's triangle, from the module's ``binomial``."""
    return [[binomial(n, r) for r in range(n + 1)] for n in range(p + 1)]


def _chain_sums(pascal: list[list[int]]) -> list[tuple[int, int]]:
    """The chain sum and the number of chains for a = 0..p, p = len(pascal) - 1.

    One back-substitution over the table, by the distributive law: c_i, the
    signed sum over every chain from p down to i with the sign (-1)^(p+1) of
    the empty chain, is c_p = (-1)^(p+1) and c_i = -sum_(j>i) C(j, i) c_j, so
    the chain sum of (p-a, p) is -c_(p-a).  The counts n_i follow the same
    recursion without signs, n_p = 1 and n_i = sum_(j>i) n_j.
    """
    p = len(pascal) - 1
    c, n = [0] * p + [1 if p % 2 else -1], [0] * p + [1]
    for i in range(p - 1, -1, -1):
        c[i] = -sum(pascal[j][i] * c[j] for j in range(i + 1, p + 1))
        n[i] = sum(n[i + 1:])
    return [(-c[p - a], n[p - a]) for a in range(p + 1)]


def run_prop1_exact(pmax: int, kmax: int) -> SweepResult:
    """Exact sweep: residual must be the zero residue for all 1 <= p <= pmax,
    2 <= k <= kmax, 1 <= m <= 3k with k not dividing m.

    The residual depends on m only through m mod k, so each class is
    evaluated once per (p, k): the 3(k - 1) values of m are counted, and
    walked, in order, only to record the failures of a failing class.
    """
    _require_pk(pmax, kmax)
    cases = 0
    failures = []
    for p in range(1, pmax + 1):
        for k in range(2, kmax + 1):
            table, constant = _prop1_weights(p, k), k**p
            failing = {}
            for mm in range(1, k):
                vec = _class_vector(k, constant, table, mm)
                if not _is_zero_mod_phi(vec):
                    failing[mm] = _cyclotomic(k, vec).residue
            cases += 3 * (k - 1)
            if failing:
                failures.extend(_failure(f"p={p} k={k} m={m}",
                                         f"nonzero residue {failing[m % k]}")
                                for m in range(1, 3 * k + 1) if m % k in failing)
    return SweepResult("prop1-exact", cases, tuple(failures))


def run_eq3(pmax: int, kmax: int) -> SweepResult:
    """Exact reflection sweep mod x^k - 1, all frequencies per modulus."""
    _require_pk(pmax, kmax)
    cases = 0
    failures = []
    for p in range(1, pmax + 1):
        for k in range(2, kmax + 1):
            cases += k
            worst = _eq3_worst(p, k)
            if worst is not None:
                failures.append(_failure(f"p={p} k={k}",
                                         f"nonzero residual {_polynomial(worst)}"))
    return SweepResult("eq3", cases, tuple(failures))


def run_coefficient_check(pmax: int) -> SweepResult:
    """Chain-sum sweep: value (-1)^(p-a) C(p, a) for a < p, exactly 1 at a = p,
    and 2^(p-1) chains counted at a = p.

    One ``_chain_sums`` pass per p gives every a's sum and chain count; the
    a = p count covers every chain in (0, p).
    """
    _require_pk(pmax, 2)
    cases = 0
    failures = []
    for p in range(1, pmax + 1):
        for a, (got, n_chains) in enumerate(_chain_sums(_pascal(p))):
            cases += 1
            want = (-1) ** (p - a) * binomial(p, a)
            if got != want:
                failures.append(_failure(f"p={p} a={a}", f"chain sum {got}, closed form {want}"))
        cases += 1
        if n_chains != 2 ** (p - 1):
            failures.append(_failure(f"p={p} chain count",
                                     f"{n_chains} chains, expected {2 ** (p - 1)}"))
    return SweepResult("coeffs", cases, tuple(failures))
