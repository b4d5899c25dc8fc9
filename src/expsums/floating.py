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
every exponent 0..P at one frequency class e mod k, in one pass over s, each
root read from the package's root table ``arith._roots(k)`` at e*s mod k,
which the Dirichlet sums read too.  Because the weights s^j are real, the
exact sums at -e are the conjugates of those at +e, so a class with 2e > k
is read as the conjugate of the class k - e, and a class with 2e = k is
summed as it is.  The sweep sums the classes e = 1 and floor(k/2) of each k
and reads -1 and -floor(k/2) as their conjugates, as the kernel would.

Each computed sum lies within an a-priori bound of the exact one, built
from the paper's power sums h(j, k-1) = sum_{s<k} s^j (``_table_bounds``),
and so does the prop1 residual (``_prop1_bound``): the sweep passes a case
only when its residual is within that bound E and ``float_tolerance_ok``.
E depends on (p, k) alone, so one E serves the three frequencies of a case.
The binomials come from this module's ``binomial`` at call time.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .arith import _ROOT_ERR, _U, _roots, binomial
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

    The sums depend on e only mod k, and a class with 2e > k returns the
    conjugate of the class k - e, so both signs of a frequency give the same
    numbers up to conjugation.
    """
    e %= k
    if 2 * e > k:
        return [z.conjugate() for z in _power_sums_complex(P, k, k - e)]
    roots, exponents = _roots(k), range(P + 1)
    sums = [0j] * (P + 1)
    for s in range(1, k):
        term = roots[e * s % k]
        fs = float(s)
        for j in exponents:
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


def _table_bounds(k: int, h: Sequence[int]) -> list[int]:
    """t(j), j = 0..len(h) - 2, from h[j] = h(j, k-1) = sum_{s<k} s^j: sum j of a
    kernel table at modulus k, or its conjugate, is within _U t(j) of exact."""
    # The root read at s is within R _U of exact, R = _ROOT_ERR, and its j
    # products by s put the term within (R + j) _U s^j; partial sum s rounds
    # within _U h(j, s), and sum_{s<k} h(j, s) = k h(j, k-1) - h(j+1, k-1).
    return [(_ROOT_ERR + j + k) * h[j] - h[j + 1] for j in range(len(h) - 1)]


def _prop1_bound(p: int, k: int, signed: Sequence[int], h: Sequence[int],
                 t: Sequence[int]) -> float:
    """A bound E on the rounding error of ``_prop1_residual_float``'s absolute
    residual at (p, k), whatever m, from the signed binomials it reads,
    h[j] = h(j, k-1) and t = ``_table_bounds(k, h)``; first order in _U, like
    the package's other bounds on rounding."""
    # f(p) is within _U t(p).  Term a of the right-hand side is C k^a g(p-a),
    # |g(p-a)| <= h(p-a, k-1): float(k)^a is within one ulp (2 _U), and C's
    # conversion to a double (exact below 2^53), its product with k^a and the
    # product with g are within one _U each, so c = 5.  The -k^p term is
    # within 2 _U k^p, and each of the p adds within _U of a partial sum, at
    # most k^p + sum_a |C| k^a h(p-a, k-1).  The last subtraction and abs
    # round the residual itself: second order.  In all,
    # E = _U (t(p) + (p + 2) k^p + sum_a |C| k^a (t(p-a) + (p + c) h(p-a, k-1))).
    error = t[p] + (p + 2) * k**p
    for a in range(p):
        error += abs(signed[a]) * k**a * (t[p - a] + (p + 5) * h[p - a])
    return error * _U


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
    """Floating sweep over m in {1, k-1, floor(k/2)}; a case passes when its
    residual is within E (``_prop1_bound``) and ``float_tolerance_ok`` holds.

    The sums for exponents 0..pmax are built once per class e = 1 and
    floor(k/2) of each k, shared by every p, and read at -e as their
    conjugates, as the kernel reads them.  The signed binomials are built
    once per p, the powers of k and h(j, k-1) once per k, E per (p, k).
    """
    _require_pk(pmax, kmax)
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    cases = 0
    failures = []
    tables, powers, sums = {}, {}, {}
    h = [0] * (pmax + 2)
    for k in range(2, kmax + 1):
        h = [hj + (k - 1) ** j for j, hj in enumerate(h)]
        sums[k] = h, _table_bounds(k, h)
        powers[k] = _float_powers(k, pmax)
        for e in {1, k // 2}:
            tables[k, e] = table = _power_sums_complex(pmax, k, e)
            if 2 * e != k:
                tables[k, k - e] = [z.conjugate() for z in table]
    for p in range(1, pmax + 1):
        signed = _signed_binomials(p)
        for k in range(2, kmax + 1):
            bound = _prop1_bound(p, k, signed, *sums[k])
            for m in sorted({1, k // 2, k - 1}):
                cases += 1
                res = _prop1_residual_float(p, signed, powers[k],
                                            tables[k, -m % k], tables[k, m % k])
                if not (float_tolerance_ok(res, p, k, tol) and res.absolute <= bound):
                    failures.append(_failure(f"p={p} k={k} m={m}",
                                             f"abs={res.absolute:.3e} rel={res.relative:.3e}"))
    return SweepResult("prop1-float", cases, tuple(failures))
