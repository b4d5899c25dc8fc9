"""Exact arithmetic substrate: rationals, dense polynomials, cyclotomic residues.

Rationals are stdlib ``fractions.Fraction`` (always canonical: positive
denominator, reduced).  Polynomials are dense ascending coefficient lists over
exact scalars (int or Fraction); the zero polynomial has an empty coefficient
tuple and degree ``None``.  A product, a scalar being a one-term polynomial,
clears each operand to integer numerators over one common denominator,
convolves the integers and reduces each output coefficient once, instead of
paying a gcd per ``Fraction`` term.  ``CyclotomicElement`` is a residue in
Q[x]/Phi_k(x), the exact stand-in for expressions in a primitive k-th root of
unity.  One long-division loop, ``Polynomial.__divmod__``, serves the whole
cyclotomic layer: it builds Phi_k by dividing x^k - 1 by each lower Phi_d, and
it reduces every residue.  The exact sweeps build none of these objects on
a PASS: their integer vectors, and the test whether one is 0 mod Phi_k
(``exp_sums._is_zero_mod_phi``, by integer orbit sums), live in
``exp_sums``, which loads this module only to wrap a vector it returns or
prints.

The "a/b" wire format this module reads (``format_rational``,
``parse_rational``) lives in ``arith`` with the binomials, so the
double-precision commands use it without loading this module or
``fractions``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence, Union

from .arith import format_rational, parse_rational
from .errors import ConsistencyError

Rational = Fraction
Scalar = Union[int, Fraction]


def _integer_numerators(coeffs: Sequence[Scalar]) -> tuple[tuple[int, ...], int]:
    """Integer numerators of ``coeffs``, as a tuple, over the lcm of their denominators."""
    den = math.lcm(*[c.denominator for c in coeffs])
    return tuple([c.numerator * (den // c.denominator) for c in coeffs]), den


def _ratio(num: int, den: int) -> Scalar:
    """num/den as an int when den divides num, else a canonical Fraction."""
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


def _power(base, n: int, one, kind: str):
    """base ** n by square-and-multiply, starting from the unit ``one``."""
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"{kind} power must be a non-negative integer")
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


class Polynomial:
    """Dense univariate polynomial over exact scalars.

    Coefficients are stored ascending by degree with trailing zeros trimmed,
    so representations are canonical.  ``var`` is a display label only; it is
    ignored by arithmetic and equality.  A constant hashes as its scalar.
    """

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs: Iterable[Scalar] = (), var: str = "x"):
        cs = tuple(coeffs)
        end = len(cs)
        while end and cs[end - 1] == 0:
            end -= 1
        object.__setattr__(self, "coeffs", cs[:end])
        object.__setattr__(self, "var", var)

    def __setattr__(self, name, value):  # immutable after construction
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def zero(cls, var: str = "x") -> "Polynomial":
        return cls((), var=var)

    @classmethod
    def one(cls, var: str = "x") -> "Polynomial":
        return cls((1,), var=var)

    @classmethod
    def monomial(cls, degree: int, coeff: Scalar = 1, var: str = "x") -> "Polynomial":
        if degree < 0:
            raise ValueError("monomial degree must be non-negative")
        return cls([0] * degree + [coeff], var=var)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self):
        """Degree as int, or None for the zero polynomial (never -1)."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def coefficient(self, d: int) -> Scalar:
        """Coefficient of degree d; 0 beyond the stored length."""
        if d < 0:
            raise ValueError("coefficient degree must be non-negative")
        if d >= len(self.coeffs):
            return 0
        return self.coeffs[d]

    def evaluate(self, x: Scalar) -> Scalar:
        acc: Scalar = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def _coerce(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial((other,), var=self.var)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Polynomial(out, var=self.var)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial((-c for c in self.coeffs), var=self.var)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero or o.is_zero:
            return Polynomial((), var=self.var)
        a_nums, a_den = _integer_numerators(self.coeffs)
        b_nums, b_den = _integer_numerators(o.coeffs)
        out = [0] * (len(a_nums) + len(b_nums) - 1)
        for i, a in enumerate(a_nums):
            if a:
                for j, b in enumerate(b_nums, i):
                    out[j] += a * b
        den = a_den * b_den
        return Polynomial((_ratio(c, den) for c in out), var=self.var)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        if scalar == 0:
            raise ZeroDivisionError("polynomial division by zero scalar")
        inv = Fraction(1) / Fraction(scalar)
        return self * inv

    def __pow__(self, n: int):
        return _power(self, n, Polynomial.one(var=self.var), "polynomial")

    def __divmod__(self, den: "Polynomial"):
        """Long division; quotient and remainder with deg(rem) < deg(den).

        Each step subtracts only the nonzero lower coefficients of ``den``
        (Phi_k is sparse), and the leading one, which would cancel the
        current coefficient exactly, is not subtracted at all: its slot takes
        the step's quotient coefficient instead, so one list ends holding the
        remainder below degree deg(den) and the quotient from there up.
        """
        if not isinstance(den, Polynomial):
            return NotImplemented
        if den.is_zero:
            raise ZeroDivisionError("polynomial division by zero polynomial")
        ddeg = den.degree
        rem = list(self.coeffs)
        if len(rem) <= ddeg:
            return Polynomial((), var=self.var), Polynomial(rem, var=self.var)
        lead = den.coeffs[-1]
        lower = [(j, dc) for j, dc in enumerate(den.coeffs[:-1]) if dc]
        for i in range(len(rem) - 1, ddeg - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            factor = c if lead == 1 else Fraction(c) / Fraction(lead)
            shift = i - ddeg
            rem[i] = factor  # coefficient shift of the quotient
            for j, dc in lower:
                rem[shift + j] -= factor * dc
        return Polynomial(rem[ddeg:], var=self.var), Polynomial(rem[:ddeg], var=self.var)

    def __mod__(self, den: "Polynomial"):
        return divmod(self, den)[1]

    def exact_div(self, den: "Polynomial") -> "Polynomial":
        """Division that must be remainder-free; raises ConsistencyError otherwise."""
        q, r = divmod(self, den)
        if not r.is_zero:
            raise ConsistencyError(f"expected exact polynomial division, remainder {r!r}")
        return q

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash(self.coefficient(0)) if len(self.coeffs) <= 1 else hash(self.coeffs)

    def to_json_coeffs(self) -> list[str]:
        """Ascending-degree coefficient strings; the shared wire format."""
        return [format_rational(c) for c in self.coeffs]

    @classmethod
    def from_json_coeffs(cls, items: Sequence[str], var: str = "x") -> "Polynomial":
        return cls((parse_rational(s) for s in items), var=var)

    def __str__(self):
        if self.is_zero:
            return "0"
        terms = []
        for d in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[d]
            if c == 0:
                continue
            mag = format_rational(abs(Fraction(c)))
            if d == 0:
                body = mag
            else:
                x = self.var if d == 1 else f"{self.var}^{d}"
                body = x if mag == "1" else f"{mag}*{x}"
            sign = "-" if c < 0 else "+"
            terms.append((sign, body))
        first_sign, first_body = terms[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in terms[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r}, var={self.var!r})"


def poly_coefficient(p: Polynomial, d: int) -> Fraction:
    """Coefficient of degree d as a canonical Rational (0 beyond the degree)."""
    return Fraction(p.coefficient(d))


def polynomial_from_points(points: Sequence[tuple[Scalar, Scalar]], var: str = "x") -> Polynomial:
    """Newton interpolation through distinct exact points, in O(n^2).

    Divided differences, built in place, are expanded by Horner's scheme on
    the Newton form: multiply by t - x_j, then add the next difference.
    """
    xs = [Fraction(x) for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation points must have distinct abscissae")
    diffs = [Fraction(y) for _, y in points]
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) / (xs[i] - xs[i - j])
    result = Polynomial((), var=var)
    for xj, d in zip(reversed(xs), reversed(diffs)):
        result = result * Polynomial((-xj, 1)) + d
    return Polynomial((_ratio(*c.as_integer_ratio()) for c in result.coeffs), var=var)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(k: int) -> Polynomial:
    """The k-th cyclotomic polynomial Phi_k, monic with integer coefficients.

    Computed as x^k - 1 divided by each Phi_d, d | k and d < k, in turn, by
    the same long division that reduces residues; every one of these
    divisions being remainder-free is a built-in self-check.  Results are
    memoised, so each Phi_d is built once.
    """
    if k < 1:
        raise ValueError(f"cyclotomic_polynomial requires k >= 1, got {k}")
    result = Polynomial([-1] + [0] * (k - 1) + [1])
    for d in range(1, k):
        if k % d == 0:
            result = result.exact_div(cyclotomic_polynomial(d))
    return result


class CyclotomicElement:
    """Residue in Q[x]/Phi_k(x); x stands for a primitive k-th root of unity.

    The residue polynomial is always fully reduced (degree < deg Phi_k), so
    x^k collapses to 1, equality is literal and the hash is the residue's.
    """

    __slots__ = ("modulus_k", "residue")

    def __init__(self, modulus_k: int, value: Polynomial | Scalar = 0):
        poly = value if isinstance(value, Polynomial) else Polynomial((value,))
        reduced = poly % cyclotomic_polynomial(modulus_k)
        object.__setattr__(self, "modulus_k", modulus_k)
        object.__setattr__(self, "residue", reduced)

    def __setattr__(self, name, value):
        raise AttributeError("CyclotomicElement is immutable")

    @property
    def is_zero(self) -> bool:
        return self.residue.is_zero

    def _operand(self, other) -> "Polynomial | Scalar | None":
        """Residue of a same-modulus element, or the scalar itself; None otherwise."""
        if isinstance(other, CyclotomicElement):
            if self.modulus_k != other.modulus_k:
                raise ValueError(
                    f"mixed cyclotomic moduli {self.modulus_k} and {other.modulus_k}"
                )
            return other.residue
        if isinstance(other, (int, Fraction)):
            return other
        return None

    def __add__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return CyclotomicElement(self.modulus_k, self.residue + o)

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicElement(self.modulus_k, -self.residue)

    def __sub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return CyclotomicElement(self.modulus_k, self.residue - o)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return CyclotomicElement(self.modulus_k, self.residue * o)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return _power(self, n, CyclotomicElement(self.modulus_k, 1), "cyclotomic")

    def __eq__(self, other):
        if isinstance(other, CyclotomicElement):
            return self.modulus_k == other.modulus_k and self.residue == other.residue
        if isinstance(other, (int, Fraction)):
            return self.residue == other
        return NotImplemented

    def __hash__(self):
        return hash(self.residue)

    def __repr__(self):
        return f"CyclotomicElement(k={self.modulus_k}, residue={self.residue})"


def cyclo_root_power(k: int, e: int) -> CyclotomicElement:
    """x^(e mod k) as a reduced residue mod Phi_k.

    The exponent is reduced into [0, k) first, so construction is total for
    any integer exponent.
    """
    if k < 1:
        raise ValueError(f"cyclo_root_power requires k >= 1, got {k}")
    return CyclotomicElement(k, Polynomial.monomial(e % k))
