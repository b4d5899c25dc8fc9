"""Exponential power sums in complex doubles, and what the exact and the
floating sweeps share: the query record, the argument checks, the sweep
result and its failure records.

With zeta = exp(2 pi i / k), f(p) the negative-frequency sum (sign -1) and
g(p) the positive one (sign +1) of sum_{s=1}^{k-1} s^p zeta^(+-ms), the
floating prop1 sweep checks

    f(p) = -k^p + sum_{a=0}^{p-1} (-1)^(p-a) C(p, a) k^a g(p-a)      (k does not divide m)

in double precision; ``exp_sums`` checks it, and the rest of the paper's
identities, exactly.

The floating sums share one kernel, ``_power_sums_complex``: the sums for
every exponent 0..P at one frequency class mod k, in one pass over s, from
the class's representative of smallest angle.  The floating prop1 residual
reads f from the table at -m and g from the one at +m.  Because the weights
s^j are real, f is the complex conjugate of g, and the kernel rounds the
same way: under e -> -e the angle of w is negated exactly, libm's cos is
even and its sin odd, and the complex products, the scaling by s and the
adds each negate an imaginary part exactly when their inputs' imaginary
parts are negated.  So the table at -e is the element-wise conjugate of the
one at +e, entry for entry (only the sign of a zero may differ).  The sweep
therefore sums only the classes e = 1 and floor(k/2) of each k and reads -1
and -floor(k/2) as their conjugates; for even k the frequencies +-k/2 are
one class, read as it is.  ``exp_power_sum_complex`` and
``prop1_residual_complex`` sum both signs themselves.  The binomials come
from this module's ``binomial`` at call time.
"""

from __future__ import annotations

import cmath
from typing import NamedTuple, Sequence

from .arith import binomial
from .errors import PreconditionError, _Record


class ExpSumQuery(_Record):
    """One sum: exponent p, modulus k >= 2, frequency m (reduced mod k), sign.

    sign +1 is the positive-frequency sum g, sign -1 the negative-frequency
    sum f.  k = 1 is rejected: the sum is empty and no frequency is admissible.
    """

    p: int
    k: int
    m: int
    sign: int

    def _validate(self) -> None:
        if self.p < 0:
            raise ValueError(f"exponent p must be >= 0, got {self.p}")
        if self.k < 2:
            raise ValueError(f"modulus k must be >= 2, got {self.k}")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        object.__setattr__(self, "m", self.m % self.k)


def _require_pk(p: int, k: int) -> None:
    if p < 1:
        raise ValueError(f"exponent p must be >= 1, got {p}")
    if k < 2:
        raise ValueError(f"modulus k must be >= 2, got {k}")


def _require_nondivisible(p: int, k: int, m: int) -> int:
    _require_pk(p, k)
    mm = m % k
    if mm == 0:
        raise PreconditionError(
            f"k divides m (k={k}, m={m}): the identity requires a nontrivial frequency"
        )
    return mm


class SweepResult(_Record):
    """Outcome of one verification sweep: case count and failing records.

    The ``run_*`` sweeps raise ValueError on an empty range, which would
    otherwise pass with 0 cases."""

    name: str
    cases: int
    failures: tuple[dict, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _failure(case: str, detail: str) -> dict:
    """One sweep failure record; every record a sweep keeps is a FAIL."""
    return {"case": case, "status": "FAIL", "detail": detail}


def _power_sums_complex(P: int, k: int, e: int) -> list[complex]:
    """sum_{s=1}^{k-1} s^j exp(2 pi i e s / k) for j = 0..P, in one pass over s.

    The sums depend on e only mod k; e is taken as its representative in
    [-k//2, k - k//2), so every frequency of one class gives the same numbers,
    from the smallest angle.
    """
    e = (e + k // 2) % k - k // 2
    w = cmath.exp(2j * cmath.pi * e / k)
    sums = [0j] * (P + 1)
    ws = 1 + 0j
    for s in range(1, k):
        ws *= w
        term = ws
        fs = float(s)
        for j in range(P + 1):
            sums[j] += term
            term *= fs
    return sums


def exp_power_sum_complex(q: ExpSumQuery) -> complex:
    """Direct double-precision summation of s^p exp(sign * 2 pi i m s / k)."""
    return _power_sums_complex(q.p, q.k, q.sign * q.m)[q.p]


class FloatResidual(NamedTuple):
    """Absolute residual plus the same normalized by max(|lhs|, 1)."""

    absolute: float
    relative: float


def _signed_binomials(p: int) -> list[int]:
    """(-1)^(p-a) C(p, a) for a = 0..p-1, from the module's ``binomial``."""
    return [(-1) ** (p - a) * binomial(p, a) for a in range(p)]


def _float_powers(k: int, P: int) -> list[float]:
    """float(k)^a for a = 0..P."""
    return [float(k) ** a for a in range(P + 1)]


def _prop1_residual_float(p: int, signed: Sequence[int], powers: Sequence[float],
                          f: Sequence[complex], g: Sequence[complex]) -> FloatResidual:
    # signed is _signed_binomials(p), powers float(k)^a for a = 0..P, and f
    # and g the sums at frequencies -m and +m for exponents 0..P, P >= p.
    lhs = f[p]
    rhs = complex(-powers[p])
    for a in range(p):
        rhs += signed[a] * powers[a] * g[p - a]
    absolute = abs(lhs - rhs)
    return FloatResidual(absolute, absolute / max(abs(lhs), 1.0))


def prop1_residual_complex(p: int, k: int, m: int) -> FloatResidual:
    """Floating cross-check of the prop1 identity in complex doubles."""
    mm = _require_nondivisible(p, k, m)
    return _prop1_residual_float(p, _signed_binomials(p), _float_powers(k, p),
                                 _power_sums_complex(p, k, -mm),
                                 _power_sums_complex(p, k, mm))


def float_tolerance_ok(res: FloatResidual, p: int, k: int, rel_tol: float = 1e-8) -> bool:
    """Pass rule for floating sweeps: absolute 1e-9 scaled by k^(p+1), or the
    relative tolerance, whichever is looser."""
    return res.absolute <= 1e-9 * float(k) ** (p + 1) or res.relative <= rel_tol


def run_prop1_float(pmax: int, kmax: int, tol: float = 1e-8) -> SweepResult:
    """Floating sweep over m in {1, k-1, floor(k/2)}.

    The sums for exponents 0..pmax are built once per frequency class
    (k, e mod k), e = 1 and floor(k/2), and shared by every p and by both
    signs that name the class; the class -e, when it is another one, reads
    the conjugate table (see the module docstring).  The signed binomials are
    built once per p, the powers of k once per k.
    """
    _require_pk(pmax, kmax)
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    cases = 0
    failures = []
    tables = {}
    for k in range(2, kmax + 1):
        for e in {1, k // 2}:
            tables[k, e] = table = _power_sums_complex(pmax, k, e)
            if 2 * e != k:
                tables[k, k - e] = [z.conjugate() for z in table]
    powers = {k: _float_powers(k, pmax) for k in range(2, kmax + 1)}
    for p in range(1, pmax + 1):
        signed = _signed_binomials(p)
        for k in range(2, kmax + 1):
            for m in sorted({1, k // 2, k - 1}):
                cases += 1
                res = _prop1_residual_float(p, signed, powers[k],
                                            tables[k, -m % k], tables[k, m % k])
                if not float_tolerance_ok(res, p, k, tol):
                    failures.append(_failure(f"p={p} k={k} m={m}",
                                             f"abs={res.absolute:.3e} rel={res.relative:.3e}"))
    return SweepResult("prop1-float", cases, tuple(failures))
