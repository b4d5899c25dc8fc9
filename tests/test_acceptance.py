"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import math
import random
from fractions import Fraction

from expsums import (
    Polynomial,
    alkan_sweep,
    bernoulli_oracle,
    binomial,
    chain_to_composition,
    composition_to_chain,
    enumerate_characters,
    enumerate_chains,
    enumerate_compositions,
    gessel_coefficient_bruteforce,
    gessel_coefficient_series,
    h_faulhaber,
    h_naive,
    h_polynomial,
    h_recurrence,
    retrieve_bernoulli,
    retrieve_bernoulli_detail,
    run_coefficient_check,
    run_eq3,
    run_prop1_exact,
)
from expsums.floating import float_tolerance_ok, prop1_residual_complex
from helpers import CLI_CASES, run_cli


def _report(number: int, ok: bool, detail: str):
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_prop1_exact():
    sweep = run_prop1_exact(10, 20)
    ok = sweep.ok and sweep.cases == 5700
    _report(1, ok, f"exact residue zero on {sweep.cases} (p,k,m) cases, "
                   f"{len(sweep.failures)} failures")


def test_criterion_02_prop1_float():
    failures = 0
    cases = 0
    worst = 0.0
    for p in range(1, 9):
        for k in range(2, 201):
            for m in sorted({1, k - 1}):
                cases += 1
                res = prop1_residual_complex(p, k, m)
                worst = max(worst, res.relative)
                if res.relative > 1e-8 and not float_tolerance_ok(res, p, k):
                    failures += 1
    ok = failures == 0
    _report(2, ok, f"floating relative residual <= 1e-8 on {cases} cases "
                   f"(worst {worst:.2e})")


def test_criterion_03_eq3_exact():
    sweep = run_eq3(8, 12)
    _report(3, sweep.ok, f"reflection residual exactly zero mod x^k - 1 on "
                         f"{sweep.cases} (p,k,m) cases")


def test_criterion_04_chain_coefficient_sums():
    sweep = run_coefficient_check(10)
    _report(4, sweep.ok, f"chain sums equal (-1)^(p-a) C(p,a), and 1 at a=p, "
                         f"{sweep.cases} checks")


def test_criterion_05_power_sum_agreement():
    ok = True
    for p in range(1, 16):
        poly = h_polynomial(p)
        for k in range(51):
            want = h_naive(p, k)
            ok = ok and h_faulhaber(p, k) == want and poly.evaluate(k) == want
            if p % 2 == 1:
                ok = ok and h_recurrence(p, k) == want
    cubic = (Polynomial([0, 1, 1], var="k") / 2) ** 2
    quintic = (Polynomial([0, 1], var="k") ** 2
               * Polynomial([1, 1], var="k") ** 2
               * Polynomial([-1, 2, 2], var="k") / 12)
    ok = ok and h_polynomial(3) == cubic and h_polynomial(5) == quintic
    _report(5, ok, "naive = recurrence = closed form = polynomial for p <= 15, "
                   "k <= 50; worked cubic/quintic expansions match")


def test_criterion_06_bernoulli_retrieval():
    ok = retrieve_bernoulli(1) == Fraction(-1, 2)
    ok = ok and retrieve_bernoulli(2) == Fraction(1, 6)
    indices = [1] + list(range(2, 31, 2))
    for n in indices:
        detail = retrieve_bernoulli_detail(n)
        ok = ok and detail.value == bernoulli_oracle(n)
        ok = ok and detail.recurrence_poly == detail.closed_form_poly
    _report(6, ok, f"retrieval equals the defining-recurrence oracle for "
                   f"n in {{1, evens <= 30}}; full-coefficient agreement at "
                   f"all {len(indices)} steps")


def test_criterion_07_chain_bijection():
    ok = True
    for p in range(1, 13):
        for lower in range(p):
            chains = enumerate_chains(p, lower)
            comps = enumerate_compositions(p - lower)
            ok = ok and len(chains) == len(comps)
            for ch in chains:
                ok = ok and composition_to_chain(chain_to_composition(ch), p, lower) == ch
            for comp in comps:
                ok = ok and chain_to_composition(composition_to_chain(comp, p, lower)) == comp
        for r in range(p):
            ok = ok and len(enumerate_chains(p, 0, length=r)) == binomial(p - 1, r)
    _report(7, ok, "bijection round-trips for p <= 12, all lower endpoints; "
                   "chain counts equal C(p-1, r)")


def test_criterion_08_gessel_agreement():
    rng = random.Random(20240811)
    families = [
        [Fraction(-1, math.factorial(i)) for i in range(1, 15)],
        [Fraction(1)] * 14,
    ]
    for _ in range(20):
        families.append(
            [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(14)]
        )
    ok = True
    for u in families:
        for n in range(15):
            ok = ok and gessel_coefficient_series(u, n) == gessel_coefficient_bruteforce(u, n)
    for p in range(1, 11):
        u = [Fraction(-1, math.factorial(i)) for i in range(1, p + 1)]
        ok = ok and (-1) ** p * math.factorial(p) * gessel_coefficient_series(u, p) == 1
    _report(8, ok, f"series inversion equals composition sums for n <= 14 on "
                   f"{len(families)} weight families; (-1)^p p! normalization is 1")


def test_criterion_09_lseries_magnitude():
    ok = True
    checked = 0
    for k in (3, 4, 5, 7, 8, 11, 12):
        for r in (1, 2, 3):
            for report in alkan_sweep(k, r, 1e-5):
                if report.status == "SKIPPED":
                    continue
                checked += 1
                ok = ok and report.status == "PASS"
                ok = ok and abs(report.ratio - 1) <= 1e-5
                ok = ok and report.sign_observed == (-1) ** (r + 1)
    ok = ok and checked > 0
    _report(9, ok, f"magnitude ratio within 1e-5 of 1 and sign (-1)^(r+1) on "
                   f"{checked} primitive matched-parity characters")


def test_criterion_10_cli_determinism():
    ok = True
    for case in CLI_CASES:
        first = run_cli(case)
        second = run_cli(case)
        ok = ok and first == second and first[0] == 0
    _report(10, ok, f"{len(CLI_CASES)} CLI invocations byte-identical across "
                    f"two runs each")
