"""Compositions (ordered partitions), decreasing index chains, and
coefficient extraction from (1 - sum u_i x^i)^(-1).

A composition of n is an ordered tuple of positive parts summing to n; there
are 2^(n-1) of them.  Strictly decreasing chains drawn from an open integer
interval are in bijection with compositions (subtract consecutive entries),
and that bijection is implemented once with an explicit ``lower`` endpoint.

Enumerating compositions is lazy.  They come from one prefix recursion that
yields blocks of rows sharing a prefix, their continuations enumerated once
per call for every remainder of at most ``CACHE_DEPTH`` units; it renders
rows as part tuples or, for the CLI, as text.  The chains are the subsets of
the interval from ``itertools.combinations``, each in descending order.  The
public ``enumerate_*`` functions build lists of validated objects.  The
brute-force coefficient sums one product per composition of ``_part_tuples``,
the same walk.  Only the coefficient functions use ``fractions``, and they
import it, so enumeration does not load it.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from .errors import SizeLimitError, _Record

if TYPE_CHECKING:
    from fractions import Fraction

    from .exact import Scalar

COMPOSITION_LIMIT = 24
# Remainders of at most this many units are enumerated once per call and
# shared by every prefix: 2^CACHE_DEPTH rows of each part count at most.
CACHE_DEPTH = 10
GESSEL_BRUTEFORCE_LIMIT = 20


class Composition(_Record):
    """Ordered tuple of positive parts summing to ``total``."""

    parts: tuple[int, ...]
    total: int

    def _validate(self) -> None:
        if not self.parts:
            raise ValueError("a composition has at least one part")
        if any(p < 1 for p in self.parts):
            raise ValueError(f"composition parts must be positive, got {self.parts}")
        if sum(self.parts) != self.total:
            raise ValueError(f"parts {self.parts} do not sum to {self.total}")

    @classmethod
    def of(cls, *parts: int) -> "Composition":
        return cls(tuple(parts), sum(parts))

    @property
    def length(self) -> int:
        return len(self.parts)


class DecreasingChain(_Record):
    """Strictly decreasing indices drawn from the open interval (lower, upper).

    The empty chain is valid; it corresponds to the one-part composition of
    upper - lower.
    """

    indices: tuple[int, ...]
    upper: int
    lower: int

    def _validate(self) -> None:
        if self.lower < 0 or self.upper <= self.lower:
            raise ValueError(f"need 0 <= lower < upper, got lower={self.lower} upper={self.upper}")
        if any(not (self.lower < i < self.upper) for i in self.indices):
            raise ValueError(f"chain indices {self.indices} leave ({self.lower}, {self.upper})")
        if any(a <= b for a, b in zip(self.indices, self.indices[1:])):
            raise ValueError(f"chain indices {self.indices} are not strictly decreasing")

    @property
    def length(self) -> int:
        return len(self.indices)


def _first_parts(r: int, k: int | None) -> range:
    """The first parts of the compositions of r with k parts (None: any)."""
    if k is None:
        return range(1, r + 1)
    if k == 1:
        return range(r, r + 1)
    return range(1, r - k + 2)


def _blocks(n: int, m: int | None, top, part: Callable, sep, end) -> Iterator[list]:
    """The compositions of n, or those with exactly m parts, in lexicographic
    order, as groups of (prefix, rows) blocks whose rows follow the prefix.

    A row is rendered from ``top``, ``part(a)`` for each part a, ``sep``
    between parts and ``end`` after the last, so the same walk serves part
    tuples (``()``, ``lambda a: (a,)``, ``()``, ``()``) and text rows.  It follows
    comps(r) = for a in first parts: (a) + comps(r - a), and stops where the
    remainder r - a is at most ``CACHE_DEPTH``: those continuations are built
    once per call, from the same recurrence, and shared by every prefix.  One
    group holds the blocks below one node of the walk; without m and with
    n > CACHE_DEPTH, that is 2^CACHE_DEPTH rows in each of 2^(n-1-CACHE_DEPTH)
    groups.

    The arguments are checked when this is called, so a caller can validate
    before it consumes (or writes) anything; the groups are produced lazily.
    """
    if n < 1:
        raise ValueError(f"compositions are defined for n >= 1, got {n}")
    if m is not None and (m < 1 or m > n):
        raise ValueError(f"length m must satisfy 1 <= m <= n, got m={m}, n={n}")
    if n > COMPOSITION_LIMIT:
        raise SizeLimitError(
            f"n={n} exceeds the composition enumeration limit {COMPOSITION_LIMIT}"
            + (" (2^(n-1) compositions)" if m is None else "")
        )
    cache: dict[tuple[int, int | None], list] = {}

    def rows(r: int, k: int | None) -> list:
        # What follows a part when r units remain for k more parts.
        if (r, k) not in cache:
            if r == 0:
                cache[r, k] = [end]
            else:
                rest = None if k is None else k - 1
                cache[r, k] = [sep + part(a) + row
                               for a in _first_parts(r, k) for row in rows(r - a, rest)]
        return cache[r, k]

    def walk(prefix, r: int, k: int | None) -> Iterator[list]:
        rest = None if k is None else k - 1
        below = []
        for a in _first_parts(r, k):  # remainders fall as a rises
            if r - a > CACHE_DEPTH:
                yield from walk(prefix + part(a) + sep, r - a, rest)
            else:
                below.append((prefix + part(a), rows(r - a, rest)))
        if below:  # with m fixed, every first part may leave a deep remainder
            yield below

    return walk(top, n, m)


def _part_tuples(n: int, m: int | None = None) -> Iterator[tuple[int, ...]]:
    """The compositions of n, or those with exactly m parts, as part tuples
    in lexicographic order; the arguments are checked when this is called."""
    return (prefix + row
            for group in _blocks(n, m, (), lambda a: (a,), (), ())
            for prefix, block in group for row in block)


def enumerate_compositions(n: int) -> list[Composition]:
    """All 2^(n-1) compositions of n in lexicographic order of parts."""
    return [Composition(parts, n) for parts in _part_tuples(n)]


def enumerate_compositions_length(n: int, m: int) -> list[Composition]:
    """All compositions of n with exactly m parts, lexicographic order."""
    return [Composition(parts, n) for parts in _part_tuples(n, m)]


def enumerate_chains(upper: int, lower: int, length: int | None = None) -> list[DecreasingChain]:
    """All strictly decreasing chains from the open interval (lower, upper).

    Ordered by chain length, then by the ascending subset they descend from;
    the empty chain comes first.  There are 2^(upper-lower-1) in total and
    C(upper-lower-1, r) of each length r.
    """
    # Checked here: a length with no chains would otherwise hide a bad interval.
    if lower < 0 or upper <= lower:
        raise ValueError(f"need 0 <= lower < upper, got lower={lower} upper={upper}")
    interval = range(lower + 1, upper)
    lengths = range(len(interval) + 1) if length is None else [length]
    return [DecreasingChain(combo[::-1], upper, lower)
            for r in lengths for combo in itertools.combinations(interval, r)]


def chain_to_composition(chain: DecreasingChain) -> Composition:
    """Consecutive differences (upper-i1, i1-i2, ..., ir-lower).

    Maps a chain of length r to a composition of upper - lower with r+1
    parts; the empty chain maps to the single part (upper - lower).
    """
    seq = (chain.upper,) + chain.indices + (chain.lower,)
    parts = tuple(a - b for a, b in zip(seq, seq[1:]))
    return Composition(parts, chain.upper - chain.lower)


def composition_to_chain(comp: Composition, upper: int, lower: int) -> DecreasingChain:
    """Inverse of :func:`chain_to_composition`: partial sums from the top."""
    if comp.total != upper - lower:
        raise ValueError(
            f"composition of {comp.total} cannot fill the interval ({lower}, {upper})"
        )
    indices = []
    acc = upper
    for part in comp.parts[:-1]:
        acc -= part
        indices.append(acc)
    return DecreasingChain(tuple(indices), upper, lower)


def _padded(u: Sequence[Scalar], n: int) -> list[Fraction]:
    from fractions import Fraction

    us = [Fraction(x) for x in u]
    if len(us) < n:
        raise ValueError(f"need weights u_1..u_{n}, got {len(us)}")
    return us


def gessel_coefficient_series(u: Sequence[Scalar], n: int) -> Fraction:
    """Coefficient of x^n in (1 - sum_{i>=1} u_i x^i)^(-1).

    Computed by truncated power-series inversion: c_0 = 1 and
    c_t = sum_{i=1}^{t} u_i c_{t-i}.
    """
    from fractions import Fraction

    if n < 0:
        raise ValueError(f"coefficient index must be >= 0, got {n}")
    if n == 0:
        return Fraction(1)
    us = _padded(u, n)
    c = [Fraction(1)] + [Fraction(0)] * n
    for t in range(1, n + 1):
        c[t] = sum((us[i - 1] * c[t - i] for i in range(1, t + 1)), Fraction(0))
    return c[n]


def gessel_coefficient_bruteforce(u: Sequence[Scalar], n: int) -> Fraction:
    """Same coefficient as a sum over all compositions of n of prod u_part.

    With u_i = N_i / D over the lcm D of the denominators of u_1..u_n, a
    composition with m parts contributes prod N_part / D^m: the integer
    products are summed per part count m, and the buckets are combined over
    D^n once at the end.
    """
    from fractions import Fraction

    if n < 0:
        raise ValueError(f"coefficient index must be >= 0, got {n}")
    if n == 0:
        return Fraction(1)
    if n > GESSEL_BRUTEFORCE_LIMIT:
        raise SizeLimitError(
            f"n={n} exceeds the brute-force limit {GESSEL_BRUTEFORCE_LIMIT}"
        )
    # Imported here, so that the CLI's enumeration never loads the exact layer.
    from .exact import _integer_numerators

    nums, den = _integer_numerators(_padded(u, n)[:n])
    buckets = [0] * (n + 1)
    for parts in _part_tuples(n):
        buckets[len(parts)] += math.prod(nums[a - 1] for a in parts)
    return Fraction(sum(b * den ** (n - m) for m, b in enumerate(buckets)), den**n)
