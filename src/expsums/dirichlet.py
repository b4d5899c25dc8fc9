"""Desk-scale numerics: Dirichlet characters mod k, Gauss sums, the power moments
S(m, chi) = sum_{j=1}^{k} (j/k)^m G(j, chi), L(r, chi), and a signed check of
the identity tying L(r, chi) to Bernoulli-weighted moments of Gauss sums.

Characters are stored as explicit value tables (complex doubles, zero off the
units); the unit group is decomposed into cyclic components so enumeration is
deterministic.  Every root of unity is read from one table per order n,
``cmath.rect(1, 2 pi t/n)``: a character value at the integer phase t mod L =
lcm(component orders), a frequency root at t = a*s mod k.  Each table is
computed once per orbit: one walk, ``_characters``, yields every character
with its phases over the units, each its exponent prefix's phases plus one
column, one add per unit, and reads its values off them; the CLI formats one
string per phase and places each row's strings by phase.  For real w,
reordering gives sum_j w(j/k) G(j, chi) = sum_a chi(a) T_a over the units,
T_a = sum_s w(s/k) e^(2 pi i a s/k) the paper's exponential sum at frequency
a: one ``_frequency_table`` per (k, w) serves S(m, chi) and the check's
right-hand side, as one ``_class_table`` per (r, k, N) of Euler-Maclaurin
class sums serves L(r, chi), each read by one dot product, ``_unit_dot``.
Exactness lives elsewhere in the package; this module is double precision by
design, with rigorous remainder bounds where series are cut and first-order
bounds on rounding.  Sums are left-to-right loops, not the builtin ``sum``,
which compensates float rounding from Python 3.12 on, so a report has the same
bits on 3.10 through 3.13.  From the package it imports only ``errors`` and
``arith``, so listing characters loads neither the exact layer nor
``fractions``.
"""


from __future__ import annotations

import cmath
import itertools
import math
import types
from functools import lru_cache
from typing import Iterator, Mapping, Optional

from .arith import _factorize, bernoulli_oracle, binomial
from .errors import ConsistencyError, DivergenceError, _Record

# Unit roundoff of IEEE double precision.
_U = 2.0**-53
# Error of one table root, in units of _U: its angle 2 pi (t/n) carries three
# roundings of a value below 2 pi (at most 19 _U), cos and sin one ulp each.
_ROOT_ERR = 24


def _prime_divisors(n: int) -> list[int]:
    return [p for p, _ in _factorize(n)]


def _least_generator(q: int, order: int) -> int:
    """The least unit of multiplicative order ``order`` mod q (q >= 3)."""
    ds = _prime_divisors(order)
    return next(g for g in range(2, q)
                if pow(g, order, q) == 1 and all(pow(g, order // d, q) != 1 for d in ds))


def _crt_lift(a: int, q: int, k: int) -> int:
    # x = a mod q, x = 1 mod k/q (q and k/q coprime).
    r = k // q
    if r == 1:
        return a % k
    t = ((1 - a) * pow(q % r, -1, r)) % r
    return (a + q * t) % k


class UnitGroupStructure(_Record):
    """(Z/kZ)* as independent cyclic components.

    ``generators[i]`` has multiplicative order ``orders[i]``, the component
    orders multiply to the unit count, and ``dlog`` maps every unit to its
    exponent vector.
    """

    modulus: int
    generators: tuple[int, ...]
    orders: tuple[int, ...]
    dlog: Mapping[int, tuple[int, ...]]


@lru_cache(maxsize=None)
def unit_group_structure(k: int) -> UnitGroupStructure:
    """Decompose (Z/kZ)* via the prime-power factorization of k.

    Odd prime powers contribute one cyclic component (their least generator,
    lifted); 2^e contributes nothing (e=1), one order-2 component (e=2), or the
    order-2 component of -1 plus the cyclic component of 3 (e>=3).  Every
    generator order and the exhaustive discrete-log table are self-checked.
    """
    if k < 1:
        raise ValueError(f"modulus must be >= 1, got {k}")
    components: list[tuple[int, int]] = []
    for p, e in _factorize(k):
        q = p**e
        if p == 2:
            if e == 2:
                components.append((_crt_lift(3, q, k), 2))
            elif e >= 3:
                components.append((_crt_lift(q - 1, q, k), 2))
                components.append((_crt_lift(3, q, k), 2 ** (e - 2)))
        else:
            order = (p - 1) * p ** (e - 1)
            components.append((_crt_lift(_least_generator(q, order), q, k), order))
    generators = tuple(g for g, _ in components)
    orders = tuple(o for _, o in components)

    for g, o in components:
        if pow(g, o, k) != 1 or any(pow(g, o // d, k) == 1 for d in _prime_divisors(o)):
            raise ConsistencyError(f"generator {g} mod {k} does not have order {o}")

    units = [n for n in range(k) if math.gcd(n, k) == 1]
    dlog: dict[int, tuple[int, ...]] = {}
    for exps in itertools.product(*(range(o) for o in orders)):
        residue = 1 % k
        for g, v in zip(generators, exps):
            residue = residue * pow(g, v, k) % k
        if residue in dlog:
            raise ConsistencyError(f"components of (Z/{k}Z)* are not independent")
        dlog[residue] = exps
    if len(dlog) != len(units):
        raise ConsistencyError(f"component orders do not cover (Z/{k}Z)*")
    return UnitGroupStructure(k, generators, orders, types.MappingProxyType(dlog))


class DirichletCharacter(_Record):
    """Value table of one character mod k: completely multiplicative on the
    units, zero elsewhere, determined by the root of unity assigned to each
    group generator (``exponents``)."""

    modulus: int
    index: int
    exponents: tuple[int, ...]
    values: tuple[complex, ...]
    parity: str
    principal: bool
    conductor: int
    primitive: bool

    def __call__(self, n: int) -> complex:
        return self.values[n % self.modulus]

    @property
    def is_odd(self) -> bool:
        return self.parity == "odd"


@lru_cache(maxsize=64)
def _roots(n: int) -> tuple[complex, ...]:
    """The n-th roots of unity e^(2 pi i t/n), t = 0..n-1."""
    return tuple(cmath.rect(1.0, 2.0 * math.pi * (t / n)) for t in range(n))


def _phase_tables(columns: list[tuple[int, list[int]]], order_lcm: int, size: int):
    """Every exponent tuple t with its phase table, t in lexicographic order.

    ``columns`` holds one (order o_i, column c_i) per component.  The table of
    t is sum_i t_i c_i mod L, entry by entry, so raising t_i by one adds c_i
    to the table of its prefix: one integer add per unit.
    """
    def walk(exps: tuple[int, ...], table: list[int]):
        if len(exps) == len(columns):
            yield exps, table
            return
        order, column = columns[len(exps)]
        for t in range(order):
            if t:
                table = [(n + c) % order_lcm for n, c in zip(table, column)]
            yield from walk(exps + (t,), table)

    return walk((), [0] * size)


def _phase_units(k: int) -> tuple[list[int], tuple[complex, ...]]:
    """The units mod k in the order of every phase table, and the value of
    each phase t: e^(2 pi i t/L), L = lcm(component orders)."""
    st = unit_group_structure(k)
    return list(st.dlog), _roots(math.lcm(*st.orders))


def _characters(k: int) -> Iterator[tuple[DirichletCharacter, list[int]]]:
    """Each character mod k, in the order of ``enumerate_characters``, with
    its phases: with (units, roots) = ``_phase_units(k)``, its value at
    units[i] is roots[phase[i]], and it is zero off the units.  The phase
    lists are the walk's own, and one may serve several characters: read
    them only.

    With L = lcm(orders), the character with exponents t sends the unit with
    discrete logs v to e^(2 pi i n/L), n = sum_i t_i v_i L/o_i mod L.  Its
    conductor is the least d | k such that every unit u = 1 mod d has n = 0.
    """
    st = unit_group_structure(k)
    units, roots = _phase_units(k)
    order_lcm = len(roots)
    columns = [(o, [order_lcm // o * logs[i] for logs in st.dlog.values()])
               for i, o in enumerate(st.orders)]
    kernels = [(d, [i for i, u in enumerate(units) if u % d == 1 % d])
               for d in range(1, k + 1) if k % d == 0]
    minus_one = units.index((k - 1) % k)
    for index, (exps, phase) in enumerate(_phase_tables(columns, order_lcm, len(units))):
        parity_phase = phase[minus_one]
        if 2 * parity_phase % order_lcm:
            raise ConsistencyError(f"character value at -1 is not a square root of 1: "
                                   f"phase {parity_phase}/{order_lcm}")
        conductor = next(d for d, kernel in kernels if not any(phase[i] for i in kernel))
        values = [0j] * k
        for u, n in zip(units, phase):
            values[u] = roots[n]
        chi = DirichletCharacter(
            modulus=k,
            index=index,
            exponents=exps,
            values=tuple(values),
            parity="odd" if parity_phase else "even",
            principal=all(t == 0 for t in exps),
            conductor=conductor,
            primitive=conductor == k,
        )
        yield chi, phase


def enumerate_characters(k: int) -> list[DirichletCharacter]:
    """All characters mod k, ordered by generator exponent tuple (principal
    first); the count equals the number of units."""
    return [chi for chi, _ in _characters(k)]


def gauss_sum(j: int, chi: DirichletCharacter) -> complex:
    """G(j, chi) = sum_{m=1}^{k} chi(m) e^(2 pi i m j / k), each root read
    from the table of k-th roots of unity at m j mod k."""
    k = chi.modulus
    roots = _roots(k)
    total = 0j
    for m, v in enumerate(chi.values):
        total += v * roots[m * j % k]
    return total


@lru_cache(maxsize=64)
def _frequency_table(k: int, coeffs: tuple[float, ...]) -> tuple[tuple[complex, float], ...]:
    """(T_a, its bound) per unit a = 1..k: T_a = sum_{s=1}^{k} w(s/k) e^(2 pi i a s/k),
    w(x) = sum_i coeffs[i] x^(d-i), d = len(coeffs) - 1, is real, so T_(k-a)
    is read as conj T_a.  The bound also covers chi(a) T_a in ``_unit_dot``."""
    d = len(coeffs) - 1
    weights = []
    shared = 0.0
    for x in (s / k for s in range(1, k + 1)):
        w = dominant = 0.0
        for c in coeffs:
            w = w * x + c
            dominant = dominant * x + abs(c)
        weights.append(w)
        # With W = sum_i |coeffs[i]| x^(d-i): Horner is off by 2d _U W (Higham,
        # eq. 5.3), x's rounding moves w by d _U W and coefficients within 2 _U
        # of exact by 2 _U W; the product with a root adds (_ROOT_ERR + 1) _U |w|.
        shared += (3 * d + 2) * dominant + (_ROOT_ERR + 1) * abs(w)
    units = [a for a in range(1, k + 1) if math.gcd(a, k) == 1]
    roots = _roots(k)
    half = []
    for a in units[:(len(units) + 1) // 2]:  # a <= k/2 (k > 1): units[-i] = k - units[i - 1]
        total, partials = 0j, 0.0
        for s, w in enumerate(weights, 1):
            total += w * roots[a * s % k]
            partials += abs(total)
        # Each partial sum P_s rounds within _U |P_s|.  In the dot product
        # chi(a) adds _ROOT_ERR _U |T_a|, its product sqrt(5) _U |T_a| and the
        # sum of the n = len(units) terms (n - 1) _U |T_a|.
        half.append((total, (shared + partials + (_ROOT_ERR + len(units) + 2) * abs(total)) * _U))
    return tuple(half) + tuple((t.conjugate(), e) for t, e in reversed(half[:len(units) // 2]))


def _unit_dot(chi: DirichletCharacter, table: tuple) -> tuple[complex, float]:
    """(sum_a chi(a) x_a, sum_a |chi(a)| y_a) over a table of (x_a, y_a) per unit a = 1..k."""
    value, bound = 0j, 0.0
    for v, (x, y) in zip([v for v in chi.values[1:] + chi.values[:1] if v != 0], table):
        value += v * x
        bound += abs(v) * y
    return value, bound


def s_sum(m: int, chi: DirichletCharacter) -> complex:
    """S(m, chi) = sum_{j=1}^{k} (j/k)^m G(j, chi), the j = k term included."""
    if m < 0:
        raise ValueError(f"moment m must be >= 0, got {m}")
    return _unit_dot(chi, _frequency_table(chi.modulus, (1.0,) + (0.0,) * m))[0]


class LSeriesValue(_Record):
    """L(r, chi) with a rigorous bound on the Euler-Maclaurin remainder and a
    first-order bound on the rounding error; every n <= truncation_N was
    summed directly, and truncation_N / k is the least N whose tail_bound
    is <= the target tolerance."""

    r: int
    value: complex
    truncation_N: int
    tail_bound: float
    rounding_bound: float


@lru_cache(maxsize=None)
def _bernoulli_weight(j: int) -> float:
    # B_2j / (2j)!, rounded once from the exact rational.
    return float(bernoulli_oracle(2 * j) / math.factorial(2 * j))


def _remainder_bound(r: int, k: int, N: int) -> float:
    """Bound on the remainder of the class a = 1 after N direct terms and
    N correction terms, scaled as in ``l_value``: X = 1 + N k is the first
    n not summed directly, at y = X / k.  The bound falls as a grows, so it
    bounds the remainder of every class mod k."""
    X = 1 + N * k
    y = X / k
    if r == 1:
        # Digamma at real y > 0: the first omitted term,
        # |B_(2N+2)| / ((2N+2) y^(2N+2)) / k = |B_(2N+2)/(2N+2)!| (2N+1)! / (X y^(2N+1)).
        bound = abs(_bernoulli_weight(N + 1)) / X
        for i in range(1, 2 * N + 2):
            bound *= i / y
        return bound
    # Hurwitz zeta (Johansson, arXiv:1309.2877, Theorem 1):
    # 4 (r)_2N / (2 pi)^2N * y^(1-r-2N) / (r+2N-1), times k^-r = y^r / X^r.
    bound = 4.0 * y / (r + 2 * N - 1) * (1 / X**r)
    for i in range(2 * N):
        bound *= (r + i) / (2.0 * math.pi * y)
    return bound


@lru_cache(maxsize=64)
def _class_table(r: int, k: int, N: int) -> tuple[tuple[float, float], ...]:
    """For each unit class a = 1..k, (its sum, its magnitude): the direct sum
    of 1/n^r over its first N terms plus its corrections, as in ``l_value``,
    and the same sum of absolute values.  Neither depends on the character."""
    weights = [_bernoulli_weight(j) for j in range(1, N + 1)]
    table = []
    for a in range(1, k + 1):
        if math.gcd(a, k) != 1:
            continue
        X = a + N * k
        y = X / k
        direct = 0.0
        for n in range(a, X, k):
            direct += 1 / n**r
        x_r = 1 / X**r
        terms = [-math.log1p(a / (N * k)) / k if r == 1 else x_r * y / (r - 1), 0.5 * x_r]
        rising = r / y  # (r)_(2j-1) y^(1-2j)
        for j, w in enumerate(weights, 1):
            terms.append(w * rising * x_r)
            rising *= (r + 2 * j - 1) * (r + 2 * j) / (y * y)
        total = magnitude = 0.0
        for t in terms:
            total += t
            magnitude += abs(t)
        table.append((direct + total, direct + magnitude))
    return tuple(table)


def l_value(r: int, chi: DirichletCharacter, target_tol: float) -> LSeriesValue:
    """L(r, chi) = sum_{n>=1} chi(n)/n^r by Euler-Maclaurin summation over
    the residue classes a = 1..k:

        L(r, chi) = k^-r sum_a chi(a) zeta(r, a/k)       (r >= 2),
        L(1, chi) = -(1/k) sum_a chi(a) psi(a/k)          (chi non-principal).

    Each class sums its first N terms 1/(a + t k)^r directly and adds M = N
    correction terms B_2j/(2j)! (r)_(2j-1) y^(-r-2j+1) k^-r at y = a/k + N,
    after the integral term: y^(1-r) k^-r/(r-1), or for r = 1 -log(y)/k, taken
    as -log1p(a/(N k))/k because the common log N cancels against
    sum_a chi(a) = 0.  The weights come from ``bernoulli_oracle``.

    tail_bound is the remainder bound of the class a = 1, which bounds every
    class, times sum_a |chi(a)|: Johansson's bound for Hurwitz zeta, and for
    digamma (real positive argument) the first omitted term.  N is the least
    for which tail_bound <= target_tol; truncation_N = N k: every n <= N k is
    summed directly.
    rounding_bound bounds the floating error to first order in the unit
    roundoff, from the magnitudes of the summed terms; each class's sum and
    magnitude are read from ``_class_table(r, k, N)``.
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    if not target_tol > 0:
        raise ValueError(f"target_tol must be positive, got {target_tol}")
    k = chi.modulus
    if r == 1 and chi.principal:
        raise DivergenceError("L(1, chi) diverges for the principal character")
    weight = 0.0
    for v in chi.values:
        weight += abs(v)
    N = 1
    while (tail_bound := weight * _remainder_bound(r, k, N)) > target_tol:
        N += 1
    table = _class_table(r, k, N)
    value, scale = _unit_dot(chi, table)
    # Per class the direct sum and the N + 2 corrections (at most 5N + 4
    # roundings each) are off by at most (6N + 6) _U of their magnitudes;
    # chi(a) and its product add _ROOT_ERR + 1, the sum one per class.
    rounding_bound = (6 * N + 7 + _ROOT_ERR + len(table)) * _U * scale
    return LSeriesValue(r, value, N * k, tail_bound, rounding_bound)


class AlkanReport(_Record):
    """Check of k r! / (2^(r-1) pi^r) L(r, chi) = (-1)^(r+1) i^r sum_q C(r, q)
    B_q S(r-q, chi): the magnitude ``ratio``, ``sign_observed`` and
    ``error_bound``, the relative error E the check can certify."""

    modulus: int
    r: int
    chi_index: int
    lhs_magnitude: Optional[float]
    rhs_magnitude: Optional[float]
    ratio: Optional[float]
    sign_observed: Optional[int]
    status: str
    reason: str = ""
    error_bound: Optional[float] = None


def _skipped(k: int, r: int, chi_index: int, reason: str) -> AlkanReport:
    return AlkanReport(k, r, chi_index, None, None, None, None, "SKIPPED", reason)


def _require_alkan_range(r: int, tol: float) -> None:
    if not 1 <= r <= 4:
        raise ValueError(f"the check is desk-scale only, need 1 <= r <= 4, got {r}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")


def alkan_check(r: int, chi: DirichletCharacter, tol: float) -> AlkanReport:
    """PASS when the magnitude ratio is within tol of 1 and the sign (-1)^(r+1).

    Requires a non-principal character whose parity matches r (a mismatch is
    reported as SKIPPED, not an error), primitive or not (the Fourier series
    of B_r(x), Apostol ch. 12), and small r.  The observed sign is the real
    sign of the full complex ratio with the i^r prefactor included.

    L(r, chi) is summed to a tail below the unit roundoff, whatever tol is.
    The ratio carries a stated error bound E (``error_bound``): the relative
    L error (tail_bound + rounding_bound) / |L|, the relative bound of the
    right-hand side from its frequency table, and first-order allowances for
    the prefactor and the quotient.  A tol below E is reported as FAIL with
    that reason, whatever the ratio, because double precision cannot certify
    it; then a magnitude miss is a FAIL with no reason, a wrong sign one
    naming both signs.
    """
    _require_alkan_range(r, tol)
    if chi.principal:
        raise ValueError("the identity requires a non-principal character")
    if chi.parity != ("odd" if r % 2 else "even"):
        return _skipped(chi.modulus, r, chi.index, "parity mismatch")
    k = chi.modulus
    # w(x) = sum_(q <= 2 floor(r/2)) C(r, q) B_q x^(r-q), coefficients within 2 _U.
    coeffs = tuple(binomial(r, q) * float(bernoulli_oracle(q)) if q <= 2 * (r // 2)
                   else 0.0 for q in range(r + 1))
    rhs, rhs_error = _unit_dot(chi, _frequency_table(k, coeffs))
    lv = l_value(r, chi, target_tol=_U)
    prefactor = k * math.factorial(r) / (2 ** (r - 1) * math.pi**r)
    lhs_magnitude = prefactor * abs(lv.value)
    rhs_magnitude = abs(rhs)
    if rhs_magnitude == 0.0:
        return AlkanReport(k, r, chi.index, lhs_magnitude, 0.0, None, None,
                           "FAIL", "zero right-hand side")
    ratio = lhs_magnitude / rhs_magnitude
    signed = prefactor / (1j**r) * lv.value / rhs
    sign_observed = 1 if signed.real > 0.5 else (-1 if signed.real < -0.5 else 0)
    # The prefactor (r + 5), both magnitudes and the quotient add (r + 11) _U.
    error_bound = ((lv.tail_bound + lv.rounding_bound) / abs(lv.value)
                   + rhs_error / rhs_magnitude + (r + 11) * _U)
    if tol < error_bound:
        status, reason = "FAIL", f"tol {tol:g} is below the certifiable error {error_bound:.2g}"
    elif abs(ratio - 1.0) > tol:
        status, reason = "FAIL", ""
    elif sign_observed != (-1) ** (r + 1):
        status, reason = "FAIL", f"sign {sign_observed:+d}, expected {(-1) ** (r + 1):+d}"
    else:
        status, reason = "PASS", ""
    return AlkanReport(k, r, chi.index, lhs_magnitude, rhs_magnitude, ratio,
                       sign_observed, status, reason, error_bound)


def alkan_sweep(k: int, r: int, tol: float,
                include_imprimitive: bool = False) -> list[AlkanReport]:
    """Run the signed check across the characters mod k: PASS, FAIL or SKIPPED.

    Principal and (by default) imprimitive characters are skipped; with
    ``include_imprimitive`` the latter are gated like primitive ones.
    """
    _require_alkan_range(r, tol)
    reports = []
    for chi in enumerate_characters(k):
        if chi.principal:
            reports.append(_skipped(k, r, chi.index, "principal character"))
            continue
        if not chi.primitive and not include_imprimitive:
            reports.append(_skipped(k, r, chi.index,
                                    f"imprimitive (conductor {chi.conductor})"))
            continue
        reports.append(alkan_check(r, chi, tol))
    return reports
