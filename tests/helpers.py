"""Shared test oracles and the canonical CLI invocation list.

Everything here is deliberately independent of the package internals: the
oracles recompute expected values by a different algorithm than the code
under test.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import os
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import repeat
from pathlib import Path

import expsums
from expsums import (
    CyclotomicElement,
    LSeriesValue,
    Polynomial,
    RetrievalDetail,
    bernoulli_oracle,
    dirichlet,
    enumerate_characters,
)
from expsums.cli import _fmt_complex
from expsums.compositions import enumerate_chains
from expsums.errors import ConsistencyError


def pascal_binomial(n: int, r: int) -> int:
    """Additive Pascal-triangle recurrence."""
    if r < 0 or r > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[r]


def factorial_multinomial(n: int, parts) -> int:
    denom = 1
    for p in parts:
        denom *= math.factorial(p)
    return math.factorial(n) // denom


def schoolbook_product(a: Polynomial, b: Polynomial) -> Polynomial:
    """Polynomial product with one Fraction multiply and add per pair of
    coefficients; labelled like ``a``."""
    out = [Fraction(0)] * max(len(a.coeffs) + len(b.coeffs) - 1, 0)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += Fraction(x) * y
    return Polynomial(out, var=a.var)


def schoolbook_divmod(a: Polynomial, d: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Dense long division in Fraction arithmetic: every step subtracts the
    whole divisor, zero coefficients included."""
    rem = [Fraction(c) for c in a.coeffs]
    dd = [Fraction(c) for c in d.coeffs]
    n = len(dd) - 1
    quot = [Fraction(0)] * max(len(rem) - n, 0)
    for i in range(len(rem) - 1, n - 1, -1):
        factor = rem[i] / dd[-1]
        quot[i - n] = factor
        for j in range(n + 1):
            rem[i - n + j] -= factor * dd[j]
    return Polynomial(quot, var=a.var), Polynomial(rem[:n], var=a.var)


def lagrange_cubic(points, var: str = "x") -> Polynomial:
    """Lagrange interpolation in O(n^3): every basis polynomial rebuilt from
    n - 1 schoolbook products, weights and sums in Fraction arithmetic."""
    xs = [Fraction(x) for x, _ in points]
    total = [Fraction(0)] * len(xs)
    for i, (_, yi) in enumerate(points):
        basis, denom = Polynomial((1,), var=var), Fraction(1)
        for j, xj in enumerate(xs):
            if j != i:
                basis = schoolbook_product(basis, Polynomial((-xj, 1), var=var))
                denom *= xs[i] - xj
        for d, c in enumerate(basis.coeffs):
            total[d] += c * Fraction(yi) / denom
    return Polynomial(total, var=var)


def akiyama_tanigawa_bernoulli(nmax: int) -> list[Fraction]:
    """B_0..B_nmax by the Akiyama-Tanigawa triangle, under B_1 = -1/2 (the
    triangle itself gives +1/2)."""
    row, out = [], []
    for m in range(nmax + 1):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    if nmax >= 1:
        out[1] = -out[1]
    return out


def seidel_zigzag(nmax: int) -> list[int]:
    """Zigzag numbers A_0..A_nmax (A_(2m-1) is the tangent number T_m): each
    row of Seidel's boustrophedon is the running sum of the previous row read
    backwards, and A_i ends row i."""
    row, out = [1], [1]
    for _ in range(nmax):
        new = [0]
        for x in reversed(row):
            new.append(new[-1] + x)
        row = new
        out.append(row[-1])
    return out


def von_staudt_clausen_denominator(n: int) -> int:
    """The denominator of B_n, n >= 2 even: the product of the primes p with
    (p - 1) | n (von Staudt-Clausen), by trial division."""
    return math.prod(p for p in range(2, n + 2)
                     if n % (p - 1) == 0 and all(p % q for q in range(2, math.isqrt(p) + 1)))


def fraction_faulhaber(p: int, bern) -> Polynomial:
    """Faulhaber's closed form of h(p, .) as a Polynomial divided by p+1."""
    coeffs = [0] * (p + 1) + [1]
    for j in range(1, p + 1):
        coeffs[p - j + 1] = (-1) ** j * math.comb(p + 1, j) * bern(j)
    return Polynomial(coeffs, var="k") / (p + 1)


def fraction_odd_recurrence(p: int, lower) -> Polynomial:
    """The odd recurrence's closed form of h(p, .) by Horner's scheme on
    Polynomial values: acc <- acc (k+1) + (-1)^j C(p, j) lower(j), then
    acc (k+1) / 2, each step a Polynomial product and sum."""
    kp1 = Polynomial((1, 1), var="k")
    acc = Polynomial((0, 1), var="k")
    for j in range(1, p):
        acc = acc * kp1 + lower(j) * ((-1) ** j * math.comb(p, j))
    return acc * kp1 / 2


@functools.lru_cache(maxsize=None)
def fraction_h_polynomial(p: int) -> Polynomial:
    """h(p, .) from ``fraction_faulhaber`` (even p) and
    ``fraction_odd_recurrence`` (odd p)."""
    if p % 2 == 0:
        return fraction_faulhaber(p, bernoulli_oracle)
    return fraction_odd_recurrence(p, fraction_h_polynomial)


@functools.lru_cache(maxsize=None)
def _fraction_lower_form(j: int) -> Polynomial:
    if j % 2:
        return fraction_retrieval_detail(max(j - 1, 1)).recurrence_poly
    upper = fraction_retrieval_detail(j).recurrence_poly.coeffs
    return Polynomial([i * c for i, c in enumerate(upper)][1:], var="k") / (j + 1)


@functools.lru_cache(maxsize=None)
def fraction_retrieval_detail(n: int) -> RetrievalDetail:
    """Retrieval of B_n (n = 1 or even) on Fraction coefficients: the recurrence
    read with h(p-1, .) = 0 gives S = h - (k+1) h'/2, solved top-down by
    (2-i) c_i - (i+1) c_(i+1) = 2 S_i in Fraction division, with c_2 = -S_1; B_n
    is read off Faulhaber's form at degree p-n+1 through that form's weight,
    and the form with every retrieved B_j must equal the solved one."""
    p = 1 if n == 1 else n + 1
    if n == 1:
        recurrence_poly = fraction_odd_recurrence(p, None)
    else:
        s = fraction_odd_recurrence(
            p, lambda j: Polynomial() if j == p - 1 else _fraction_lower_form(j))
        c = [0] * (len(s.coeffs) + 1)
        for i in range(len(c) - 2, 2, -1):
            c[i] = (2 * Fraction(s.coefficient(i)) + (i + 1) * c[i + 1]) / (2 - i)
        if -3 * c[3] != 2 * s.coefficient(2):
            raise ConsistencyError(f"retrieval of B_{n}: the recurrence fails at degree 2")
        c[2] = -Fraction(s.coefficient(1))
        recurrence_poly = Polynomial((x.numerator if x.denominator == 1 else x for x in c), "k")
    degree = p - n + 1
    weight = Fraction(fraction_faulhaber(p, lambda j: int(j == n)).coefficient(degree))
    value = Fraction(recurrence_poly.coefficient(degree)) / weight

    def retrieved(j):
        return value if j == n else (0 if j % 2 and j > 1 else fraction_retrieval_detail(j).value)

    closed_form_poly = fraction_faulhaber(p, retrieved)
    if closed_form_poly != recurrence_poly:
        raise ConsistencyError(f"retrieval of B_{n}: polynomials disagree")
    return RetrievalDetail(n, p, value, degree, recurrence_poly, closed_form_poly)


def brute_totient(k: int) -> int:
    return sum(1 for n in range(k) if math.gcd(n, k) == 1)


def bitmask_compositions(n: int) -> list[tuple[int, ...]]:
    """All compositions of n by cutting at gap bitmasks, sorted lexicographically."""
    out = []
    for mask in range(1 << (n - 1)):
        parts, run = [], 1
        for i in range(n - 1):
            if mask & (1 << i):
                parts.append(run)
                run = 1
            else:
                run += 1
        parts.append(run)
        out.append(tuple(parts))
    return sorted(out)


def s_sum_double_loop(m: int, chi) -> complex:
    """Independent double summation of (j/k)^m sum_mm chi(mm) e^(2 pi i mm j / k)."""
    k = chi.modulus
    total = 0j
    for j in range(1, k + 1):
        for mm in range(1, k + 1):
            total += (j / k) ** m * chi.values[mm % k] * cmath.exp(2j * math.pi * mm * j / k)
    return total


def alkan_coefficients(r: int) -> tuple[float, ...]:
    """w(x) = sum_q C(r, q) B_q x^(r-q) over q <= 2 floor(r/2), as
    ``alkan_check`` hands it to ``dirichlet._frequency_table``: doubles, the
    coefficient of x^r first."""
    return tuple(math.comb(r, q) * float(bernoulli_oracle(q)) if q <= 2 * (r // 2) else 0.0
                 for q in range(r + 1))


def negated_frequency_table(table):
    """A stand-in for ``dirichlet._frequency_table`` that negates every T_a
    and keeps its bound: a right-hand side of the right magnitude and the
    wrong sign."""
    return lambda k, coeffs: tuple((-t, bound) for t, bound in table(k, coeffs))


@functools.lru_cache(maxsize=None)
def _decimal_root(f: Fraction) -> tuple[Decimal, Decimal]:
    """(cos, sin) of 2 pi f, f in [0, 1), in the caller's decimal context:
    the Taylor-series recipes of the ``decimal`` documentation at
    x = 2 pi f reduced to [-pi, pi)."""
    pi = three = Decimal(3)
    lasts, t, n, na, d, da = 0, three, 1, 0, 0, 24
    while pi != lasts:
        lasts = pi
        n, na = n + na, na + 8
        d, da = d + da, da + 32
        t = t * n / d
        pi += t
    x = 2 * pi * (f - 1 if f >= Fraction(1, 2) else f).numerator / f.denominator
    out = []
    for i, s in ((0, Decimal(1)), (1, x)):
        lasts, fact, num, sign = 0, 1, s, 1
        while s != lasts:
            lasts = s
            i += 2
            fact *= i * (i - 1)
            num *= x * x
            sign = -sign
            s += num / fact * sign
        out.append(s)
    return out[0], out[1]


def rhs_reference_error(r: int, chi, value: complex) -> float:
    """|value - sum_(j=1..k) w(j/k) G(j, chi)| for the w of
    ``alkan_coefficients`` with exact Bernoulli numbers, the reference summed
    in ``decimal`` to 32 digits: each character value is the exact root of
    unity e^(2 pi i t/phi(k)) nearest its stored double, and each G(j, chi)
    term one root e^(2 pi i (t/phi(k) + n j/k))."""
    k = chi.modulus
    phi = brute_totient(k)
    bernoulli = akiyama_tanigawa_bernoulli(r)
    with localcontext() as ctx:
        ctx.prec = 32
        phases = {}
        for n, v in enumerate(chi.values):
            if v != 0:
                t = round(cmath.phase(v) / (2 * math.pi) * phi) % phi
                assert abs(cmath.exp(2j * math.pi * t / phi) - v) < 1e-12
                phases[n] = Fraction(t, phi)
        re = Decimal(value.real)
        im = Decimal(value.imag)
        for j in range(1, k + 1):
            x = Fraction(j, k)
            w = sum(math.comb(r, q) * bernoulli[q] * x ** (r - q)
                    for q in range(2 * (r // 2) + 1))
            w = Decimal(w.numerator) / w.denominator
            for n, t in phases.items():
                c, s = _decimal_root((t + Fraction(n * j, k)) % 1)
                re -= w * c
                im -= w * s
        return math.hypot(re, im)


@functools.lru_cache(maxsize=None)
def _class_sums(r: int, k: int, N: int) -> tuple[float, ...]:
    """S_a = sum of n^-r over n <= N with n = a (mod k), for a = 1..k: one
    ``math.fsum`` of the rounded terms per class, shared by every character
    mod k."""
    return tuple(math.fsum(map(pow, range(a, N + 1, k), repeat(-r))) for a in range(1, k + 1))


def l_reference(r: int, chi, N: int) -> complex:
    """Long plain truncation sum_(n <= N) chi(n)/n^r, coded independently:
    sum_a chi(a) S_a over the class sums of ``_class_sums``."""
    k = chi.modulus
    return sum(chi.values[a % k] * s for a, s in enumerate(_class_sums(r, k, N), 1))


def l_reference_tail(r: int, chi, N: int) -> float:
    """Bound on what l_reference(r, chi, N) leaves out.

    For non-principal chi, A(n) = chi(1) + ... + chi(n) has period k, since a
    period sums to 0, so |A(n)| <= P, the largest |A(n)| over one period.  By
    Abel summation, for M > N,

        sum_(N < n <= M) chi(n) n^-r = A(M) M^-r - A(N) (N + 1)^-r
                                       + sum_(N < n < M) A(n) (n^-r - (n + 1)^-r),

    and the differences are positive and telescope to (N + 1)^-r - M^-r, so
    the sum is at most P M^-r + P (N + 1)^-r + P ((N + 1)^-r - M^-r)
    = 2 P / (N + 1)^r in modulus, for every M and every r >= 1.  For
    principal chi the series converges only at r >= 2, and its tail is at
    most sum_(n > N) n^-r <= N^(1-r)/(r-1), the integral of x^-r from N."""
    if chi.principal:
        return N ** (1 - r) / (r - 1)
    prefix, largest = 0j, 0.0
    for n in range(1, chi.modulus + 1):
        prefix += chi.values[n % chi.modulus]
        largest = max(largest, abs(prefix))
    return 2 * largest / (N + 1) ** r


def per_class_tail_bound(r: int, chi, N: int) -> float:
    """sum_a |chi(a)| R_a over the classes a = 1..k, with R_a the remainder
    bound of class a alone after N direct terms and N correction terms, at
    X = a + N k and y = X / k: the first omitted term for digamma (r = 1),
    Johansson's bound (arXiv:1309.2877, Theorem 1) times k^-r for Hurwitz
    zeta.  It is the sum l_value once formed class by class; the bound of
    the class a = 1 times sum_a |chi(a)| dominates it."""
    k = chi.modulus
    first_omitted = abs(float(bernoulli_oracle(2 * N + 2) / math.factorial(2 * N + 2)))
    total = 0.0
    for a in filter(chi, range(1, k + 1)):
        X = a + N * k
        y = X / k
        if r == 1:
            bound = first_omitted / X
            for i in range(1, 2 * N + 2):
                bound *= i / y
        else:
            bound = 4.0 * y / (r + 2 * N - 1) * (1 / X**r)
            for i in range(2 * N):
                bound *= (r + i) / (2.0 * math.pi * y)
        total += abs(chi(a)) * bound
    return total


def characters_renderings(k: int) -> tuple[str, str]:
    """The text and the JSON output of ``characters --k K``, rendered from
    each record's ``values``, one ``_fmt_complex`` call per value, the whole
    JSON list in one ``json.dumps``."""
    lines, records = [f"{len(enumerate_characters(k))} characters mod {k}"], []
    for c in enumerate_characters(k):
        values = [_fmt_complex(v) for v in c.values]
        flags = [c.parity, "principal" if c.principal else "non-principal",
                 f"conductor {c.conductor}", "primitive" if c.primitive else "imprimitive"]
        lines += [f"chi_{c.index}: " + ", ".join(flags), "  values: " + ", ".join(values)]
        records.append({"conductor": c.conductor, "index": c.index, "modulus": c.modulus,
                        "parity": c.parity, "primitive": c.primitive,
                        "principal": c.principal, "values": values})
    return "\n".join(lines) + "\n", json.dumps(records, sort_keys=True) + "\n"


def shifted_phase_column(walk, position: int):
    """``dirichlet._characters`` with every character's phase at the unit in
    ``position`` raised by one mod L: a perturbed column of the phase walk."""
    def perturbed(k):
        order_lcm = len(dirichlet._phase_units(k)[1])
        for chi, phase in walk(k):
            shifted = list(phase)
            shifted[position] = (shifted[position] + 1) % order_lcm
            yield chi, shifted

    return perturbed


def l_value_per_character(r: int, chi, target_tol: float) -> LSeriesValue:
    """``l_value`` with every class's sum and magnitude recomputed for the
    character at hand, in the same floating-point order: the loop the class
    tables replaced."""
    k = chi.modulus
    classes = [(a, chi.values[a % k]) for a in range(1, k + 1) if chi.values[a % k] != 0]
    weight = sum(abs(v) for _, v in classes)
    N = 1
    while (tail_bound := weight * dirichlet._remainder_bound(r, k, N)) > target_tol:
        N += 1
    weights = [dirichlet._bernoulli_weight(j) for j in range(1, N + 1)]
    value = 0j
    scale = 0.0
    for a, v in classes:
        X = a + N * k
        y = X / k
        direct = 0.0
        for n in range(a, X, k):
            direct += 1 / n**r
        x_r = 1 / X**r
        terms = [-math.log1p(a / (N * k)) / k if r == 1 else x_r * y / (r - 1), 0.5 * x_r]
        rising = r / y
        for j, w in enumerate(weights, 1):
            terms.append(w * rising * x_r)
            rising *= (r + 2 * j - 1) * (r + 2 * j) / (y * y)
        value += v * (direct + sum(terms))
        scale += abs(v) * (direct + sum(abs(t) for t in terms))
    rounding_bound = (6 * N + 7 + dirichlet._ROOT_ERR + len(classes)) * dirichlet._U * scale
    return LSeriesValue(r, value, N * k, tail_bound, rounding_bound)


def prop1_residual_termwise(p: int, k: int, m: int, binom=math.comb) -> CyclotomicElement:
    """The prop1 residual f(p) - (-k^p + sum_a (-1)^(p-a) C(p, a) k^a g(p-a))
    built term by term: one CyclotomicElement per sum, combined with
    CyclotomicElement arithmetic, so every term is reduced mod Phi_k on its
    own.  ``binom`` lets a test apply the same perturbation as to the
    package."""

    def cyclo_sum(j: int, e: int) -> CyclotomicElement:
        vec = [0] * k
        for s in range(1, k):
            vec[(e * s) % k] += s**j
        return CyclotomicElement(k, Polynomial(vec))

    mm = m % k
    rhs = CyclotomicElement(k, -(k**p))
    for a in range(p):
        rhs = rhs + cyclo_sum(p - a, mm) * ((-1) ** (p - a) * binom(p, a) * k**a)
    return cyclo_sum(p, -mm) - rhs


def prop1_float_residual_per_term(p: int, k: int, f, g) -> tuple[float, float]:
    """The floating prop1 residual as the package first summed it: one
    ``math.comb`` call and one ``float(k) ** a`` per term, in the order
    sign * C(p, a) * k^a * g(p-a).  f and g hold the sums at -m and +m for
    exponents 0..P, P >= p; returns (absolute, relative)."""
    lhs = f[p]
    rhs = complex(-(float(k) ** p))
    for a in range(p):
        rhs += (-1) ** (p - a) * math.comb(p, a) * float(k) ** a * g[p - a]
    absolute = abs(lhs - rhs)
    return absolute, absolute / max(abs(lhs), 1.0)


def eq3_residual_termwise(p: int, k: int, binom=math.comb) -> Polynomial:
    """The reflection residual f(p) - (-1)^p g(p) - sum_a (-1)^(p+a+1)
    C(p, a) k^(p-a) f(a) mod x^k - 1, one s^j vector per term, for every
    frequency m in 0..k-1; the first residual of largest max-abs
    coefficient.  ``binom`` lets a test apply the same perturbation as to
    the package."""

    def add_sum(vec: list[int], c: int, j: int, e: int) -> None:
        for s in range(1, k):
            vec[(e * s) % k] += c * s**j

    worst, worst_norm = [], -1
    for m in range(k):
        res = [0] * k
        add_sum(res, 1, p, -m)
        add_sum(res, -((-1) ** p), p, m)
        for a in range(p):
            add_sum(res, (-1) ** (p + a) * binom(p, a) * k ** (p - a), a, -m)
        norm = max(abs(c) for c in res)
        if norm > worst_norm:
            worst, worst_norm = res, norm
    return Polynomial(worst)


def _chain_term(p: int, lower: int, chain, binom) -> int:
    """(-1)^(p+r+1) C(p, i_1) ... C(i_r, lower) for one chain of
    ``enumerate_chains(p, lower)``."""
    seq = (p, *chain.indices, lower)
    return (-1) ** (p + chain.length + 1) * math.prod(
        binom(hi, lo) for hi, lo in zip(seq, seq[1:]))


def chain_sum_reference(p: int, a: int, binom=math.comb) -> int:
    """sum (-1)^(p+r+1) C(p, i_1) ... C(i_r, p-a) over the validated chains
    of ``enumerate_chains(p, p-a)`` for 1 <= a <= p."""
    return sum(_chain_term(p, p - a, chain, binom) for chain in enumerate_chains(p, p - a))


# Perturbed binomials for mutation tests: each breaks the identities checked
# in expsums.exp_sums and expsums.floating when patched over their
# ``binomial``; "flip-r1-sign" also
# breaks the closed forms that Bernoulli retrieval matches (expsums.power_sums).
PERTURBED_BINOMIALS = {
    "drop-a0-term": lambda n, r: 0 if r == 0 else math.comb(n, r),
    "flip-r1-sign": lambda n, r: -math.comb(n, r) if r == 1 else math.comb(n, r),
}


def chains_without_the_empty_one(pascal) -> list[tuple[int, int]]:
    """A stand-in for ``exp_sums._chain_sums``, p = len(pascal) - 1, that
    drops the first chain of ``enumerate_chains(p, p-a)``, the empty one,
    from every a >= 1: the sum over the rest from ``math.comb``, not the
    table, and one chain fewer in the count; a = 0 keeps ((-1)^p, 1).  A
    perturbed chain side for the coeffs gate (every a >= 1 sum loses its
    C(p, p-a) term)."""
    p = len(pascal) - 1
    out = [((-1) ** p, 1)]
    for a in range(1, p + 1):
        chains = enumerate_chains(p, p - a)[1:]
        out.append((sum(_chain_term(p, p - a, chain, math.comb) for chain in chains),
                    len(chains)))
    return out


def b2_off_by_a_third(n: int) -> Fraction:
    """The oracle's B_n with B_2 raised by 1/3: a perturbed Bernoulli source
    under which Faulhaber's form gives h(2, 1) = 4/3."""
    return bernoulli_oracle(n) + Fraction(int(n == 2), 3)


def cli_env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports the same package
    the tests import."""
    env = dict(os.environ)
    src = str(Path(expsums.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_cli(args: list[str]) -> tuple[int, bytes, bytes]:
    """Run the CLI in a fresh interpreter; returns (exit, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "expsums", *args],
        capture_output=True,
        env=cli_env(),
    )
    return proc.returncode, proc.stdout, proc.stderr


# Every CLI invocation exercised by the test suite; the determinism criterion
# runs each of these twice and demands byte-identical output.
CLI_CASES: list[list[str]] = [
    ["powersum", "--p", "3", "--k", "3", "--method", "recurrence"],
    ["powersum", "--p", "3", "--k", "10", "--method", "faulhaber"],
    ["powersum", "--p", "4", "--k", "10", "--method", "naive", "--json"],
    ["powersum", "--p", "5", "--method", "poly"],
    ["powersum", "--p", "3", "--method", "poly", "--json"],
    ["bernoulli", "--n", "2", "--method", "retrieve"],
    ["bernoulli", "--n", "1", "--method", "oracle", "--json"],
    ["bernoulli", "--table", "6", "--json"],
    ["compositions", "--n", "4"],
    ["compositions", "--n", "5", "--length", "3", "--json"],
    ["characters", "--k", "5", "--json"],
    ["characters", "--k", "8"],
    ["verify", "prop1", "--pmax", "3", "--kmax", "6", "--exact"],
    ["verify", "prop1", "--pmax", "3", "--kmax", "12", "--float", "--json"],
    ["verify", "eq3", "--pmax", "3", "--kmax", "5", "--json"],
    ["verify", "coeffs", "--pmax", "6"],
    ["verify", "alkan", "--k", "5", "--r", "2", "--json"],
    ["verify", "alkan", "--k", "12", "--r", "2", "--include-imprimitive"],
]
