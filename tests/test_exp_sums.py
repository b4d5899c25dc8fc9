import cmath
import hashlib
import math
import random
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from expsums import exp_sums, floating
from expsums import (
    CyclotomicElement,
    ExpSumQuery,
    Polynomial,
    PreconditionError,
    binomial,
    chain_coefficient_sum,
    cyclo_root_power,
    enumerate_chains,
    eq3_residual_poly,
    eq4_check,
    exp_power_sum_complex,
    exp_power_sum_cyclo,
    prop1_residual_complex,
    prop1_residual_cyclo,
    run_coefficient_check,
    run_eq3,
    run_prop1_exact,
    run_prop1_float,
)
from helpers import (
    PERTURBED_BINOMIALS,
    _decimal_root,
    chain_sum_reference,
    chains_without_the_empty_one,
    eq3_residual_termwise,
    prop1_float_residual_per_term,
    prop1_residual_termwise,
)


class TestQuery:
    def test_modulus_one_rejected(self):
        with pytest.raises(ValueError):
            ExpSumQuery(1, 1, 1, 1)

    def test_sign_validated(self):
        with pytest.raises(ValueError):
            ExpSumQuery(1, 3, 1, 2)

    def test_frequency_normalized(self):
        assert ExpSumQuery(1, 5, 7, 1).m == 2
        assert ExpSumQuery(1, 5, -1, 1).m == 4
        assert ExpSumQuery(1, 5, 10, 1).m == 0


class TestComplexSum:
    def test_zeroth_power_is_minus_one(self):
        for k, m in [(3, 1), (5, 2), (7, 12), (4, 3)]:
            for sign in (1, -1):
                value = exp_power_sum_complex(ExpSumQuery(0, k, m, sign))
                assert abs(value - (-1)) < 1e-12

    def test_two_term_case(self):
        value = exp_power_sum_complex(ExpSumQuery(1, 2, 1, 1))
        assert abs(value - (-1)) < 1e-14

    def test_opposite_signs_conjugate(self):
        for p in range(4):
            for k in range(2, 8):
                for m in range(2 * k):
                    f = exp_power_sum_complex(ExpSumQuery(p, k, m, -1))
                    g = exp_power_sum_complex(ExpSumQuery(p, k, m, 1))
                    assert abs(f - g.conjugate()) < 1e-9


class TestCycloSum:
    def test_zeroth_power_reduces_to_minus_one(self):
        assert exp_power_sum_cyclo(ExpSumQuery(0, 3, 1, 1)) == -1

    def test_linear_mod_three(self):
        elem = exp_power_sum_cyclo(ExpSumQuery(1, 3, 1, 1))
        assert elem.residue == Polynomial([-2, -1])

    def test_shared_factor_frequency(self):
        # 1*x^2 + 2*x^0 + 3*x^2 collapses to 2 - 4 = -2 mod x^2 + 1.
        assert exp_power_sum_cyclo(ExpSumQuery(1, 4, 2, 1)) == -2

    def test_divisible_frequency_gives_k_minus_1(self):
        for k in (2, 3, 6):
            assert exp_power_sum_cyclo(ExpSumQuery(0, k, k, 1)) == k - 1

    def test_matches_complex_embedding(self):
        for p in range(3):
            for k in range(2, 9):
                for m in range(1, k):
                    elem = exp_power_sum_cyclo(ExpSumQuery(p, k, m, 1))
                    zeta = cmath.exp(2j * cmath.pi / k)
                    embedded = sum(
                        complex(c) * zeta**d for d, c in enumerate(elem.residue.coeffs)
                    )
                    direct = exp_power_sum_complex(ExpSumQuery(p, k, m, 1))
                    assert abs(embedded - direct) < 1e-9

    def test_conjugation_symmetry(self):
        for p in range(6):
            for k in range(2, 11):
                for m in range(k):
                    neg = exp_power_sum_cyclo(ExpSumQuery(p, k, m, -1))
                    pos = exp_power_sum_cyclo(ExpSumQuery(p, k, (k - m) % k, 1))
                    assert neg == pos

    def test_equals_the_termwise_sum_of_root_powers(self):
        # sum_{s=1}^{k-1} s^p zeta^(sign*m*s) with one reduced root power per
        # term, for both signs and every frequency, units or not, m = 0 too.
        for k in range(2, 25):
            for m in range(k):
                for sign in (-1, 1):
                    roots = [cyclo_root_power(k, sign * m * s) for s in range(1, k)]
                    for p in range(5):
                        want = CyclotomicElement(k, 0)
                        for s, root in enumerate(roots, 1):
                            want = want + root * s**p
                        got = exp_power_sum_cyclo(ExpSumQuery(p, k, m, sign))
                        assert got.residue == want.residue, (k, m, sign, p)


class TestProp1Exact:
    def test_worked_cases(self):
        assert prop1_residual_cyclo(1, 3, 1).is_zero
        assert prop1_residual_cyclo(2, 4, 2).is_zero

    def test_divisible_frequency_rejected(self):
        with pytest.raises(PreconditionError):
            prop1_residual_cyclo(1, 3, 3)
        with pytest.raises(PreconditionError):
            prop1_residual_cyclo(4, 7, 7)

    def test_small_grid_is_zero(self):
        for p in range(1, 6):
            for k in range(2, 11):
                for m in range(1, 2 * k + 1):
                    if m % k:
                        assert prop1_residual_cyclo(p, k, m).is_zero, (p, k, m)


class TestProp1Float:
    def test_moderate_case(self):
        res = prop1_residual_complex(3, 5, 2)
        assert res.relative <= 1e-9

    def test_tiny_case(self):
        res = prop1_residual_complex(1, 2, 1)
        assert res.absolute <= 1e-12

    def test_divisible_frequency_rejected(self):
        with pytest.raises(PreconditionError):
            prop1_residual_complex(2, 6, 12)


def _sweep_residuals(monkeypatch, pmax, kmax):
    """Every case of ``run_prop1_float(pmax, kmax)`` as (p, k, m, residual, E).

    Each residual is recorded at the tolerance rule and made a failure, so
    that its case label comes back beside it, and E is recorded as the sweep
    builds it for its (p, k)."""
    residuals, bounds = [], {}
    bound = floating._prop1_bound

    def record(res, p, k, rel_tol=1e-8):
        residuals.append(res)
        return False

    def recorded_bound(p, k, *args):
        bounds[p, k] = bound(p, k, *args)
        return bounds[p, k]

    monkeypatch.setattr(floating, "float_tolerance_ok", record)
    monkeypatch.setattr(floating, "_prop1_bound", recorded_bound)
    sweep = run_prop1_float(pmax, kmax)
    assert len(sweep.failures) == len(residuals) == sweep.cases
    cases = []
    for failure, res in zip(sweep.failures, residuals):
        p, k, m = (int(part.split("=")[1]) for part in failure["case"].split())
        cases.append((p, k, m, res, bounds[p, k]))
    return cases


class TestProp1FloatBound:
    def test_kernel_bound_holds_against_a_decimal_reference(self):
        # Sum j of every class's table is within _U t(j) of the sum taken to
        # 32 digits, and the worst error reaches a fair share of the bound
        # (0.158, at k = 3, e = 2, j = 4).
        worst = 0.0
        with localcontext() as ctx:
            ctx.prec = 32
            for k in range(2, 25):
                h = [sum(s**j for s in range(1, k)) for j in range(14)]
                t = floating._table_bounds(k, h)
                for e in range(k):
                    for j, z in enumerate(floating._power_sums_complex(12, k, e)):
                        re, im = Decimal(z.real), Decimal(z.imag)
                        for s in range(1, k):
                            c, sn = _decimal_root(Fraction(e * s % k, k))
                            re -= s**j * c
                            im -= s**j * sn
                        error = math.hypot(re, im)
                        assert error <= t[j] * floating._U, (k, e, j)
                        worst = max(worst, error / (t[j] * floating._U))
        assert worst >= 0.01

    def test_sweep_reads_the_power_sums(self, monkeypatch):
        # E is built from h(j, k-1) = sum_{s<k} s^j, j = 0..pmax+1, which the
        # sweep keeps as running sums over k.
        seen = {}
        bound = floating._prop1_bound

        def recorded_bound(p, k, signed, h, t):
            seen[k] = list(h)
            return bound(p, k, signed, h, t)

        monkeypatch.setattr(floating, "_prop1_bound", recorded_bound)
        assert run_prop1_float(6, 40).ok
        assert seen == {k: [sum(s**j for s in range(1, k)) for j in range(8)]
                        for k in range(2, 41)}

    def test_bound_holds_at_the_cap(self, monkeypatch):
        # No residual up to the CLI caps exceeds E; the worst residual/E is
        # 0.065, at (p, k, m) = (1, 3, 2), and the median 0.0042.
        cases = _sweep_residuals(monkeypatch, 12, 512)
        assert len(cases) == 18360
        assert all(res.absolute <= bound for *_, res, bound in cases)

    @pytest.mark.parametrize("perturbation", sorted(PERTURBED_BINOMIALS))
    def test_perturbed_residuals_exceed_the_bound(self, monkeypatch, perturbation):
        # Up to the caps, every case that reads a perturbed binomial exceeds
        # E: all of them without the a = 0 term, those with p >= 2 with C(p, 1)
        # flipped (p = 1 reads no C(1, 1)).
        monkeypatch.setattr(floating, "binomial", PERTURBED_BINOMIALS[perturbation])
        cases = _sweep_residuals(monkeypatch, 12, 512)
        exceeding = [(p, k, m) for p, k, m, res, bound in cases if res.absolute > bound]
        if perturbation == "drop-a0-term":
            assert len(exceeding) == len(cases) == 18360
        else:
            assert exceeding == [(p, k, m) for p, k, m, *_ in cases if p >= 2]

    def test_bound_is_not_vacuous(self, monkeypatch):
        # At every p, some residual with 64 <= k <= 128 reaches E/100: the
        # least of these worst ratios is 0.0125, at p = 9.
        cases = _sweep_residuals(monkeypatch, 12, 128)
        for p in range(1, 13):
            worst = max(res.absolute / bound for q, k, m, res, bound in cases
                        if q == p and k >= 64)
            assert worst > 0.01, p


class TestEq3:
    def test_small_cases(self):
        assert eq3_residual_poly(1, 2).is_zero
        assert eq3_residual_poly(3, 5).is_zero

    def test_small_grid(self):
        for p in range(1, 6):
            for k in range(2, 9):
                assert eq3_residual_poly(p, k).is_zero, (p, k)

    def test_consistency_with_plain_power_sums(self):
        # The m = 0 slice of the residual is the all-ones specialization,
        # which is exactly the plain power-sum identity.
        for p in range(1, 6):
            for k in range(2, 9):
                assert eq3_residual_poly(p, k).is_zero == eq4_check(p, k)


class TestChainCoefficientSum:
    def test_top_coefficient_is_one(self):
        for p in range(1, 11):
            assert chain_coefficient_sum(p, p) == 1

    def test_single_gap(self):
        assert chain_coefficient_sum(3, 1) == 3 == binomial(3, 1)

    def test_leading_term(self):
        for p in range(1, 11):
            assert chain_coefficient_sum(p, 0) == (-1) ** p

    def test_closed_form(self):
        for p in range(1, 11):
            for a in range(p + 1):
                assert chain_coefficient_sum(p, a) == (-1) ** (p - a) * binomial(p, a)

    def test_chain_population(self):
        for p in range(1, 11):
            assert len(enumerate_chains(p, 0)) == 2 ** (p - 1)

    def test_domain(self):
        with pytest.raises(ValueError):
            chain_coefficient_sum(0, 0)
        with pytest.raises(ValueError):
            chain_coefficient_sum(3, 4)


class TestSweeps:
    def test_prop1_exact_counts_and_passes(self):
        sweep = run_prop1_exact(3, 6)
        assert sweep.cases == 3 * sum(3 * k - 3 for k in range(2, 7))
        assert sweep.ok

    def test_prop1_float_passes(self):
        sweep = run_prop1_float(4, 30)
        assert sweep.ok and sweep.cases > 0

    def test_eq3_passes(self):
        sweep = run_eq3(4, 8)
        assert sweep.ok
        assert sweep.cases == 4 * sum(range(2, 9))

    def test_coefficient_sweep_passes(self):
        sweep = run_coefficient_check(8)
        assert sweep.ok

    @pytest.mark.parametrize("runner, args", [
        (run_prop1_exact, (0, 5)),
        (run_prop1_exact, (3, 1)),
        (run_prop1_float, (0, 5)),
        (run_prop1_float, (3, 1)),
        (run_eq3, (0, 4)),
        (run_eq3, (2, -1)),
        (run_coefficient_check, (0,)),
        (run_coefficient_check, (-3,)),
    ])
    def test_empty_range_raises(self, runner, args):
        with pytest.raises(ValueError, match="must be >="):
            runner(*args)

    def test_coefficient_sweep_sums_the_chains_once_per_p(self, monkeypatch):
        # One back-substitution per p gives every a; its counts for a >= 1
        # cover the chains in (p-a, p), 2^(a-1) each, 2^p - 1 in all.
        passes = []
        sums = exp_sums._chain_sums

        def counted(pascal):
            passes.append(sums(pascal))
            return passes[-1]

        monkeypatch.setattr(exp_sums, "_chain_sums", counted)
        sweep = run_coefficient_check(8)
        assert sweep.ok and sweep.cases == sum(p + 2 for p in range(1, 9))
        assert len(passes) == 8
        assert [sum(n for _, n in got[1:]) for got in passes] == [
            2**p - 1 for p in range(1, 9)]

    def test_coefficient_sweep_peak_memory_is_small(self):
        # Two lists of p + 1 integers beside the Pascal table, not one
        # product per chain (266 KiB at p = 16 for a walk over the chains).
        tracemalloc.start()
        try:
            assert run_coefficient_check(16).ok
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 << 10

    def test_coefficient_sweep_builds_one_pascal_table_per_p(self, monkeypatch):
        # Rows 0..p once per p, (p+1)(p+2)/2 entries, and one closed form per
        # (p, a): 815 + 135 binomials up to p = 15.
        calls = []
        binom = exp_sums.binomial

        def counted(n, r):
            calls.append((n, r))
            return binom(n, r)

        monkeypatch.setattr(exp_sums, "binomial", counted)
        assert run_coefficient_check(15).ok
        assert len(calls) == 950

    def test_prop1_float_shared_g_table_is_bit_identical(self):
        # The sweep's f and g tables run to P = pmax; the entries j <= p are
        # the numbers a call for p alone computes.
        for k in range(2, 21):
            for m in range(1, k):
                f = floating._power_sums_complex(9, k, -m)
                g = floating._power_sums_complex(9, k, m)
                for p in range(1, 10):
                    assert floating._prop1_residual_float(
                        p, floating._signed_binomials(p), floating._float_powers(k, 9),
                        f, g) == prop1_residual_complex(p, k, m), (p, k, m)

    def test_prop1_float_rows_match_the_per_term_loop_bit_for_bit(self):
        # The signed binomial row and the row of powers of k keep the order
        # sign * C * k^a * g of one binomial call and one power per term.
        for k in range(2, 129):
            powers = floating._float_powers(k, 12)
            for m in sorted({1, k // 2, k - 1}):
                f = floating._power_sums_complex(12, k, -m)
                g = floating._power_sums_complex(12, k, m)
                for p in range(1, 13):
                    got = floating._prop1_residual_float(
                        p, floating._signed_binomials(p), powers, f, g)
                    assert tuple(got) == prop1_float_residual_per_term(p, k, f, g), (p, k, m)

    def test_float_kernel_depends_on_the_class_only(self):
        for k in range(2, 21):
            for e in range(-k, 2 * k):
                sums = floating._power_sums_complex(6, k, e)
                assert floating._power_sums_complex(6, k, e + k) == sums, (k, e)
                assert floating._power_sums_complex(6, k, e - k) == sums, (k, e)

    def test_prop1_float_sweep_equals_public_residual(self, monkeypatch):
        # Every residual is recorded at the gate and made a failure, so that
        # its case label comes back beside it.  The sweep reads the classes -1
        # and -floor(k/2) as conjugates; each residual must still have the
        # bits of the one summed at both signs.
        residuals = []

        def record(res, p, k, rel_tol=1e-8):
            residuals.append(res)
            return False

        monkeypatch.setattr(floating, "float_tolerance_ok", record)
        sweep = run_prop1_float(12, 128)
        assert len(sweep.failures) == len(residuals) == sweep.cases == 4536
        for failure, res in zip(sweep.failures, residuals):
            p, k, m = (int(part.split("=")[1]) for part in failure["case"].split())
            assert repr(res) == repr(prop1_residual_complex(p, k, m)), failure["case"]

    def test_prop1_float_residuals_have_the_same_bits_on_every_interpreter(self, monkeypatch):
        # Every residual of the sweep, recorded as above with its case label.
        # The digest is that of CPython 3.10.13, 3.11.7, 3.12.1 and 3.13.0.
        text = "".join(f"p={p} k={k} m={m} {res!r}\n"
                       for p, k, m, res, _ in _sweep_residuals(monkeypatch, 12, 128))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "3b0d4fc631f2c472b1246367c73df5bff763c6d8a93b09d1c8e4c21bfcbc0e3e")

    def test_prop1_float_kernel_runs_once_per_class(self, monkeypatch):
        # Only the classes +1 and +floor(k/2) of each k are summed, each once;
        # -1 and -floor(k/2) are read as their conjugates, so no class is
        # summed when its conjugate class was (for even k, +-k/2 is one class).
        classes = []
        kernel = floating._power_sums_complex

        def counted(P, k, e):
            classes.append((k, e % k))
            return kernel(P, k, e)

        monkeypatch.setattr(floating, "_power_sums_complex", counted)
        assert run_prop1_float(12, 128).ok
        assert len(classes) == len(set(classes)) == 252
        assert not [(k, e) for k, e in classes if (k, -e % k) in classes and 2 * e % k]

    def test_float_kernel_is_conjugate_symmetric(self):
        # The sweep's conjugate read is the kernel's own: the table at -e is
        # the conjugate of the table at +e, entry by entry, over the sweep's
        # range, because the kernel reads a class past k/2 as the conjugate
        # of k - e.  (When 2e = k, -e and e name one class, summed as it is.)
        for k in range(2, 513):
            for e in (1, k // 2):
                if 2 * e == k:
                    continue
                plus = floating._power_sums_complex(12, k, e)
                minus = floating._power_sums_complex(12, k, -e)
                assert minus == [z.conjugate() for z in plus], (k, e)


def _prop1_grid(pmax, kmax):
    for p in range(1, pmax + 1):
        for k in range(2, kmax + 1):
            for m in range(1, 2 * k + 1):
                if m % k:
                    yield p, k, m


class TestClassVector:
    def test_gather_equals_the_scatter_for_every_frequency(self):
        # Each entry s of the two tables lands on x^(e*s mod k), e = -m and
        # +m; the constant on x^0.  The kernel places the one summed table
        # D(t) = A(-t mod k) + B(t) at +m: gathered for units m, scattered
        # for the rest.
        rng = random.Random(2201)
        for k in range(2, 41):
            weights = tuple([rng.randint(-10**9, 10**9) for _ in range(k)] for _ in "-+")
            constant = rng.randint(-10**9, 10**9)
            summed = [weights[0][-t % k] + weights[1][t] for t in range(k)]
            for m in range(k):
                want = [constant] + [0] * (k - 1)
                for e, table in zip((-m, m), weights):
                    for s in range(1, k):
                        want[e * s % k] += table[s]
                assert exp_sums._class_vector(k, constant, summed, m) == want, (k, m)

    def test_summed_table_reads_each_side_at_its_frequency(self):
        # The builder evaluates A at -t mod k and B at t, by Horner's scheme
        # on the coefficient lists; an empty list is the zero polynomial.
        def value(coeffs, s):
            return sum(c * s**i for i, c in enumerate(coeffs))

        rng = random.Random(2202)
        for k in range(2, 41):
            minus, plus = ([rng.randint(-99, 99) for _ in range(rng.randint(0, 6))]
                           for _ in "-+")
            assert exp_sums._weights(minus, plus, k) == [
                value(minus, -t % k) + value(plus, t) for t in range(k)], k


class TestProp1TermwiseReference:
    def test_equals_termwise_reference(self):
        for p, k, m in _prop1_grid(5, 10):
            got = prop1_residual_cyclo(p, k, m)
            want = prop1_residual_termwise(p, k, m)
            assert got == want and got.residue.coeffs == want.residue.coeffs, (p, k, m)

    @pytest.mark.parametrize("perturbation", sorted(PERTURBED_BINOMIALS))
    def test_equals_termwise_reference_when_perturbed(self, monkeypatch, perturbation):
        binom = PERTURBED_BINOMIALS[perturbation]
        monkeypatch.setattr(exp_sums, "binomial", binom)
        nonzero = 0
        for p, k, m in _prop1_grid(5, 10):
            got = prop1_residual_cyclo(p, k, m)
            want = prop1_residual_termwise(p, k, m, binom)
            assert got == want, (p, k, m)
            assert str(got.residue) == str(want.residue), (p, k, m)
            nonzero += not got.is_zero
        assert nonzero > 0


class TestEq3TermwiseReference:
    def test_equals_termwise_reference(self):
        for p in range(1, 6):
            for k in range(2, 11):
                assert eq3_residual_poly(p, k).coeffs == eq3_residual_termwise(p, k).coeffs, (p, k)

    @pytest.mark.parametrize("perturbation", sorted(PERTURBED_BINOMIALS))
    def test_equals_termwise_reference_when_perturbed(self, monkeypatch, perturbation):
        binom = PERTURBED_BINOMIALS[perturbation]
        monkeypatch.setattr(exp_sums, "binomial", binom)
        nonzero = 0
        for p in range(1, 6):
            for k in range(2, 11):
                got = eq3_residual_poly(p, k)
                assert got.coeffs == eq3_residual_termwise(p, k, binom).coeffs, (p, k)
                nonzero += not got.is_zero
        assert nonzero > 0


class TestChainSumReference:
    def test_equals_chain_reference(self):
        for p in range(1, 13):
            for a in range(1, p + 1):
                assert chain_coefficient_sum(p, a) == chain_sum_reference(p, a), (p, a)

    def test_sums_and_counts_equal_a_literal_loop(self):
        # Up to the coeffs cap: every a's total and its number of chains, and
        # at a = 0 the leading term (-1)^p of one (empty) product.
        for p in range(1, 17):
            want = [((-1) ** p, 1)] + [
                (chain_sum_reference(p, a), len(enumerate_chains(p, p - a)))
                for a in range(1, p + 1)]
            assert exp_sums._chain_sums(exp_sums._pascal(p)) == want, p

    def test_pascal_table_reads_the_module_binomial(self, monkeypatch):
        # The table is built from exp_sums.binomial when the sum runs, so a
        # perturbation patched over it reaches every product.
        binom = PERTURBED_BINOMIALS["flip-r1-sign"]
        monkeypatch.setattr(exp_sums, "binomial", binom)
        changed = 0
        for p in range(1, 13):
            for a in range(1, p + 1):
                got = chain_coefficient_sum(p, a)
                assert got == chain_sum_reference(p, a, binom), (p, a)
                changed += got != chain_sum_reference(p, a)
        assert changed > 0


class TestGatesCanFail:
    @pytest.mark.parametrize("perturbation", sorted(PERTURBED_BINOMIALS))
    def test_prop1_exact_reports_failures(self, monkeypatch, perturbation):
        binom = PERTURBED_BINOMIALS[perturbation]
        monkeypatch.setattr(exp_sums, "binomial", binom)
        sweep = run_prop1_exact(4, 8)
        expected = []
        for p in range(1, 5):
            for k in range(2, 9):
                for m in range(1, 3 * k + 1):
                    want = prop1_residual_termwise(p, k, m, binom) if m % k else None
                    if want is not None and not want.is_zero:
                        expected.append({"case": f"p={p} k={k} m={m}", "status": "FAIL",
                                         "detail": f"nonzero residue {want.residue}"})
        assert sweep.cases == 336
        assert expected and sweep.failures == tuple(expected)
        if perturbation == "drop-a0-term":
            assert len(sweep.failures) == sweep.cases

    @pytest.mark.parametrize("perturbation", sorted(PERTURBED_BINOMIALS))
    def test_eq3_reports_failures(self, monkeypatch, perturbation):
        monkeypatch.setattr(exp_sums, "binomial", PERTURBED_BINOMIALS[perturbation])
        sweep = run_eq3(4, 8)
        assert not sweep.ok
        if perturbation == "drop-a0-term":
            assert len(sweep.failures) == 4 * 7
        assert all(r["detail"].startswith("nonzero residual ") for r in sweep.failures)

    def test_coeffs_reports_failures(self, monkeypatch):
        # Only the chain side is perturbed: every chain sum with a >= 1 loses
        # its empty-chain term and every chain count falls short by one.
        monkeypatch.setattr(exp_sums, "_chain_sums", chains_without_the_empty_one)
        sweep = run_coefficient_check(4)
        assert sweep.cases == 18
        assert [r["case"] for r in sweep.failures] == [
            f"p={p} {what}" for p in range(1, 5)
            for what in [f"a={a}" for a in range(1, p + 1)] + ["chain count"]
        ]

    @pytest.mark.parametrize("perturbation", sorted(PERTURBED_BINOMIALS))
    def test_prop1_float_reports_failures(self, monkeypatch, perturbation):
        monkeypatch.setattr(floating, "binomial", PERTURBED_BINOMIALS[perturbation])
        sweep = run_prop1_float(4, 8)
        assert sweep.cases == 72
        assert not sweep.ok
        if perturbation == "drop-a0-term":
            assert len(sweep.failures) == sweep.cases
        assert all(r["detail"].startswith("abs=") for r in sweep.failures)

    @pytest.mark.parametrize("perturbation", sorted(PERTURBED_BINOMIALS))
    def test_prop1_float_bound_fails_the_sweep_on_its_own(self, monkeypatch, perturbation):
        # With the tolerance rule passing every residual, E alone still fails
        # each perturbed sweep.
        monkeypatch.setattr(floating, "binomial", PERTURBED_BINOMIALS[perturbation])
        monkeypatch.setattr(floating, "float_tolerance_ok", lambda res, p, k, rel_tol=1e-8: True)
        sweep = run_prop1_float(4, 8)
        assert sweep.cases == 72
        assert not sweep.ok
        assert all(r["detail"].startswith("abs=") for r in sweep.failures)

    def test_prop1_float_fails_at_its_cap(self, monkeypatch):
        # At the CLI caps, through the conjugate tables, every case fails
        # when the a = 0 term is dropped; no --tol can make a correct sweep
        # fail there, since the absolute allowance 1e-9 k^(p+1) ignores it.
        monkeypatch.setattr(floating, "binomial", PERTURBED_BINOMIALS["drop-a0-term"])
        sweep = run_prop1_float(12, 512)
        assert len(sweep.failures) == sweep.cases == 18360
