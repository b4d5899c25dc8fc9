import cmath
import hashlib
import math
import operator
import re
from fractions import Fraction

import pytest

from expsums import (
    ConsistencyError,
    DivergenceError,
    alkan_check,
    alkan_sweep,
    bernoulli_oracle,
    dirichlet,
    enumerate_characters,
    gauss_sum,
    l_value,
    s_sum,
    unit_group_structure,
)
from helpers import (
    PERTURBED_BINOMIALS,
    alkan_coefficients,
    brute_totient,
    l_reference,
    l_reference_tail,
    l_value_per_character,
    negated_frequency_table,
    per_class_tail_bound,
    rhs_reference_error,
    s_sum_double_loop,
    shifted_phase_column,
)


def _assert_phase_walk(k, walk):
    # t(u) = phase[i] for u = units[i] reads chi(u) off the roots, and it is
    # additive on products (every unit against every generator and -1
    # covers every product).
    units, roots = dirichlet._phase_units(k)
    steps = [g % k for g in unit_group_structure(k).generators] + [(k - 1) % k]
    records = enumerate_characters(k)
    count = 0
    for chi, phase in walk:
        assert chi == records[count]
        count += 1
        t = dict(zip(units, phase))
        assert len(phase) == len(t) == len(units)
        for u in units:
            assert roots[t[u]] == chi.values[u], (k, chi.index, u)
            for g in steps:
                assert t[u * g % k] == (t[u] + t[g]) % len(roots), (k, chi.index, u, g)
    assert count == len(records)


def _quadratic(k):
    chars = [c for c in enumerate_characters(k)
             if not c.principal and all(abs(v.imag) < 1e-12 for v in c.values)]
    assert len(chars) >= 1
    return chars[0]


class TestUnitGroup:
    def test_trivial_moduli(self):
        assert unit_group_structure(1).orders == ()
        assert unit_group_structure(2).orders == ()
        assert dict(unit_group_structure(1).dlog) == {0: ()}

    def test_cyclic_prime(self):
        st = unit_group_structure(5)
        assert st.orders == (4,)
        assert sorted(st.dlog) == [1, 2, 3, 4]

    def test_two_by_two_mod_eight(self):
        st = unit_group_structure(8)
        assert sorted(st.orders) == [2, 2]
        # Brute force: the group has order 4 and exponent 2.
        units = [n for n in range(8) if math.gcd(n, 8) == 1]
        assert len(units) == 4
        assert all(n * n % 8 == 1 for n in units)

    def test_structure_covers_units(self):
        for k in range(1, 41):
            st = unit_group_structure(k)
            assert len(st.dlog) == brute_totient(k)
            prod = 1
            for o in st.orders:
                prod *= o
            assert prod == brute_totient(k)

    def test_dlog_reproduces_residues(self):
        for k in (7, 12, 16, 36):
            st = unit_group_structure(k)
            for residue, exps in st.dlog.items():
                acc = 1 % k
                for g, e in zip(st.generators, exps):
                    acc = acc * pow(g, e, k) % k
                assert acc == residue


class TestCharacters:
    def test_counts(self):
        for k in range(1, 41):
            assert len(enumerate_characters(k)) == brute_totient(k)

    def test_principal_first_and_all_ones(self):
        for k in (3, 8, 12):
            chars = enumerate_characters(k)
            assert chars[0].principal
            for n in range(k):
                expected = 1.0 if math.gcd(n, k) == 1 else 0.0
                assert abs(chars[0].values[n] - expected) < 1e-12

    def test_pairwise_distinct(self):
        for k in range(1, 41):
            chars = enumerate_characters(k)
            for i in range(len(chars)):
                for j in range(i + 1, len(chars)):
                    diff = max(
                        abs(a - b)
                        for a, b in zip(chars[i].values, chars[j].values)
                    )
                    assert diff > 1e-6, (k, i, j)

    def test_row_orthogonality(self):
        for k in range(2, 41):
            for chi in enumerate_characters(k):
                if chi.principal:
                    continue
                assert abs(sum(chi.values[n % k] for n in range(1, k + 1))) <= 1e-9

    def test_complete_multiplicativity(self):
        for k in range(2, 41):
            units = [n for n in range(k) if math.gcd(n, k) == 1]
            for chi in enumerate_characters(k):
                worst = max(
                    abs(chi.values[a * b % k] - chi.values[a] * chi.values[b])
                    for a in units
                    for b in units
                )
                assert worst <= 1e-10, k

    def test_unit_modulus_values(self):
        for k in range(2, 41):
            for chi in enumerate_characters(k):
                for n in range(k):
                    if math.gcd(n, k) == 1:
                        assert abs(abs(chi.values[n]) - 1) < 1e-12
                    else:
                        assert chi.values[n] == 0
                assert abs(chi.values[1 % k] - 1) < 1e-12

    def test_parity_flag_matches_value_at_minus_one(self):
        for k in range(3, 41):
            for chi in enumerate_characters(k):
                value = chi.values[k - 1]
                if chi.parity == "odd":
                    assert abs(value + 1) < 1e-12
                else:
                    assert abs(value - 1) < 1e-12

    def test_values_match_fraction_phases(self):
        # The value at a unit is e^(2 pi i theta) with theta = sum_i t_i v_i / o_i
        # mod 1, rounded once to a double: the same bits as from Fractions.
        for k in (8, 12, 36, 63, 100):
            st = unit_group_structure(k)
            for chi in enumerate_characters(k):
                for u, logs in st.dlog.items():
                    theta = sum(Fraction(t * v, o) for t, v, o
                                in zip(chi.exponents, logs, st.orders)) % 1
                    assert chi.values[u] == cmath.rect(1.0, 2.0 * math.pi * float(theta))

    def test_phase_tables_match_direct_phases(self):
        # Each unit's phase summed from its discrete logs, not from the
        # prefix tables; parity and conductor read off the same phases.
        for k in range(1, 301):
            st = unit_group_structure(k)
            order_lcm = math.lcm(*st.orders)
            roots = dirichlet._roots(order_lcm)
            scaled = [(u, [order_lcm // o * v for o, v in zip(st.orders, logs)])
                      for u, logs in st.dlog.items()]
            divisors = [d for d in range(1, k + 1) if k % d == 0]
            for chi in enumerate_characters(k):
                phase = {u: sum(map(operator.mul, chi.exponents, logs)) % order_lcm
                         for u, logs in scaled}
                assert all(chi.values[u] == roots[n] for u, n in phase.items()), (k, chi.index)
                assert chi.parity == ("odd" if phase[(k - 1) % k] else "even"), (k, chi.index)
                conductor = next(d for d in divisors
                                 if all(n == 0 for u, n in phase.items() if u % d == 1 % d))
                assert chi.conductor == conductor, (k, chi.index)

    def test_walk_phases_index_the_values_and_add_on_products(self):
        for k in [*range(1, 101), 600]:
            _assert_phase_walk(k, dirichlet._characters(k))

    def test_perturbed_phase_column_fails_the_phase_checks(self):
        walk = shifted_phase_column(dirichlet._characters, 2)
        with pytest.raises(AssertionError):
            _assert_phase_walk(7, walk(7))

    def test_known_conductors_mod_12(self):
        chars = enumerate_characters(12)
        conductors = sorted(c.conductor for c in chars)
        assert conductors == [1, 3, 4, 12]
        assert sum(1 for c in chars if c.primitive) == 1


class TestGaussSum:
    def test_quadratic_mod_five(self):
        value = gauss_sum(1, _quadratic(5))
        assert abs(value - math.sqrt(5)) < 1e-9
        assert abs(value.imag) < 1e-9

    def test_zero_frequency_vanishes(self):
        for k in (5, 7, 8):
            for chi in enumerate_characters(k):
                if not chi.principal:
                    assert abs(gauss_sum(0, chi)) <= 1e-10

    def test_primitive_magnitude_sqrt_k(self):
        for k in (3, 4, 5, 7, 8, 11, 12, 13):
            for chi in enumerate_characters(k):
                if chi.primitive and not chi.principal:
                    assert abs(abs(gauss_sum(1, chi)) - math.sqrt(k)) < 1e-9, k

    def test_orbit_table_matches_direct_sums(self):
        # sum_a chi(a) T_a over the frequency table, its conjugate half read
        # off the first, is sum_j w(j/k) G(j, chi) over direct Gauss sums,
        # within the table's stored bound.
        coeffs = [alkan_coefficients(r) for r in range(1, 5)]
        for k in range(1, 61):
            tables = [dirichlet._frequency_table(k, c) for c in coeffs]
            assert all(len(t) == brute_totient(k) for t in tables)
            for chi in enumerate_characters(k):
                gauss = [gauss_sum(j, chi) for j in range(1, k + 1)]
                for c, table in zip(coeffs, tables):
                    direct = 0j
                    for j, g in enumerate(gauss, 1):
                        w = 0.0
                        for b in c:
                            w = w * (j / k) + b
                        direct += w * g
                    value, bound = dirichlet._unit_dot(chi, table)
                    assert abs(value - direct) <= bound, (k, chi.index, c)

    def test_sums_left_to_right_on_every_interpreter(self):
        # A loop, not the builtin sum, which compensates complex sums from
        # CPython 3.14 on; the digest is that of 3.10 through 3.13.
        digest = hashlib.sha256()
        for k in range(1, 61):
            for chi in enumerate_characters(k):
                for j in range(k + 1):
                    digest.update(repr(gauss_sum(j, chi)).encode())
        assert digest.hexdigest() == (
            "dcd83bf3fefa209fe802b0c30be1ee7158e0d3038af7f30a0e758c088b341662")


class TestSSum:
    def test_matches_double_loop(self):
        for k in range(2, 13):
            for chi in enumerate_characters(k):
                for m in range(5):
                    assert abs(s_sum(m, chi) - s_sum_double_loop(m, chi)) <= 1e-10

    def test_zeroth_moment_vanishes(self):
        for k in (3, 5, 8, 12):
            for chi in enumerate_characters(k):
                if not chi.principal:
                    assert abs(s_sum(0, chi)) <= 1e-9

    def test_negative_moment_rejected(self):
        with pytest.raises(ValueError):
            s_sum(-1, _quadratic(5))


class TestLValue:
    def test_leibniz_value_mod_four(self):
        odd4 = [c for c in enumerate_characters(4) if c.parity == "odd"][0]
        lv = l_value(1, odd4, 1e-7)
        assert abs(lv.value - math.pi / 4) < 1e-6
        assert lv.tail_bound <= 1e-7

    def test_closed_form_mod_three(self):
        odd3 = [c for c in enumerate_characters(3) if not c.principal][0]
        lv = l_value(1, odd3, 1e-7)
        assert abs(lv.value - math.pi / (3 * math.sqrt(3))) < 1e-6

    def test_quadratic_second_moments_match_long_truncation(self):
        for k in (3, 5):
            chi = _quadratic(k)
            lv = l_value(2, chi, 1e-7)
            ref = l_reference(2, chi, 10**7)
            assert abs(lv.value - ref) < 1e-6

    def test_tail_bound_dominates_observed_tail(self):
        # Against a long plain partial sum, allowing for what the partial sum
        # itself leaves out and for its rounding.
        n_ref = 10**6
        for k, r in [(4, 1), (3, 1), (5, 2), (7, 2)]:
            for chi in enumerate_characters(k):
                if chi.principal:
                    continue
                lv = l_value(r, chi, 1e-4)
                assert lv.tail_bound <= 1e-4
                ref = l_reference(r, chi, n_ref)
                allowed = lv.tail_bound + l_reference_tail(r, chi, n_ref) + 1e-12
                assert abs(lv.value - ref) <= allowed

    def test_one_bound_picks_n_and_certifies_the_tail(self):
        # tail_bound is the bound of the class a = 1 times sum_a |chi(a)|, at
        # the least N that brings it to target_tol, and it dominates the
        # class-by-class sum.
        cases = [(k, r, 2.0**-53) for k in range(1, 41) for r in range(1, 5)]
        cases += [(k, r, 2.0**-53) for k in (191, 200) for r in (1, 2)]
        cases += [(k, r, 1e-4) for k in range(1, 13) for r in range(1, 5)]
        for k, r, tol in cases:
            for chi in enumerate_characters(k):
                if r == 1 and chi.principal:
                    continue
                lv = l_value(r, chi, tol)
                N = lv.truncation_N // k
                weight = sum(abs(chi(a)) for a in range(1, k + 1))
                assert lv.tail_bound == weight * dirichlet._remainder_bound(r, k, N)
                assert lv.tail_bound <= tol
                if N > 1:
                    assert weight * dirichlet._remainder_bound(r, k, N - 1) > tol
                assert lv.tail_bound >= per_class_tail_bound(r, chi, N), (k, r, chi.index)

    def test_class_tables_give_the_per_character_values_bit_for_bit(self):
        # Each class's sum and magnitude come from one table per (r, k, N);
        # the values, bounds and N are those of the loop that recomputed them
        # for every character, down to the last bit.
        for k in [*range(1, 61), *range(185, 201)]:
            for chi in enumerate_characters(k):
                for r in range(1, 5):
                    if r == 1 and chi.principal:
                        continue
                    got = l_value(r, chi, 2.0**-53)
                    assert repr(got) == repr(l_value_per_character(r, chi, 2.0**-53)), (
                        k, r, chi.index)

    @pytest.mark.parametrize("k, r, want", [
        (4, 1, math.pi / 4),
        (3, 1, math.pi / (3 * math.sqrt(3))),
        (4, 2, 0.915965594177219015),  # Catalan's constant
        (5, 2, 4 * math.pi**2 / (25 * math.sqrt(5))),
    ])
    def test_closed_forms(self, k, r, want):
        lv = l_value(r, _quadratic(k), 1e-15)
        assert lv.tail_bound <= 1e-15
        assert abs(lv.value - want) <= 1e-13
        assert lv.rounding_bound <= 1e-13

    def test_divergence_guard(self):
        principal = enumerate_characters(4)[0]
        with pytest.raises(DivergenceError):
            l_value(1, principal, 1e-6)
        # Convergent principal series at r >= 2 is allowed.
        assert l_value(2, principal, 1e-6).tail_bound <= 1e-6

    def test_tolerance_validated(self):
        with pytest.raises(ValueError):
            l_value(2, _quadratic(5), 0.0)


class TestAlkanCheck:
    def test_odd_case_mod_four(self):
        odd4 = [c for c in enumerate_characters(4) if c.parity == "odd"][0]
        report = alkan_check(1, odd4, 1e-5)
        assert report.status == "PASS"
        assert abs(report.ratio - 1) <= 1e-5

    def test_even_case_mod_five(self):
        even5 = [c for c in enumerate_characters(5)
                 if c.parity == "even" and not c.principal][0]
        report = alkan_check(2, even5, 1e-5)
        assert report.status == "PASS"

    def test_parity_mismatch_skipped(self):
        even5 = [c for c in enumerate_characters(5)
                 if c.parity == "even" and not c.principal][0]
        report = alkan_check(1, even5, 1e-5)
        assert report.status == "SKIPPED"
        assert report.reason == "parity mismatch"
        assert report.ratio is None

    def test_principal_rejected(self):
        with pytest.raises(ValueError):
            alkan_check(2, enumerate_characters(5)[0], 1e-5)

    @pytest.mark.parametrize("r, tol", [(9, 1e-5), (2, -1.0)])
    def test_sweep_validates_before_any_character(self, r, tol):
        # Mod 2 the only character is principal, so no check ever runs.
        with pytest.raises(ValueError):
            alkan_sweep(2, r, tol)

    def test_sweep_skips_imprimitive_by_default(self):
        reports = alkan_sweep(12, 2, 1e-5)
        skipped = [r for r in reports if r.status == "SKIPPED"]
        assert any("imprimitive" in r.reason for r in skipped)
        assert all(r.status != "FAIL" for r in reports)

    def test_ratio_within_stated_error_bound(self):
        # E is a first-order bound on the floating error of the ratio; every
        # matched-parity check up to k = 60, imprimitive characters included,
        # must sit inside it and carry the sign (-1)^(r+1).
        checked = 0
        for k in range(3, 61):
            for r in range(1, 5):
                for report in alkan_sweep(k, r, 1e-5, include_imprimitive=True):
                    if report.ratio is None:
                        continue
                    checked += 1
                    assert report.status == "PASS", (k, r, report.chi_index)
                    assert abs(report.ratio - 1) <= report.error_bound, (k, r, report)
                    assert report.error_bound < 1e-8
                    assert report.sign_observed == (-1) ** (r + 1), (k, r, report)
        assert checked == 2084

    @pytest.mark.parametrize("k, r", [(4, 1), (20, 2)])
    def test_tolerance_below_error_bound_fails(self, k, r):
        reports = [rep for rep in alkan_sweep(k, r, 1e-18) if rep.status != "SKIPPED"]
        assert reports
        for rep in reports:
            assert rep.status == "FAIL"
            assert rep.error_bound > 1e-18
            assert "below the certifiable error" in rep.reason

    @pytest.mark.parametrize("k, r", [(11, 1), (13, 2)])
    def test_error_bound_is_the_tolerance_threshold(self, k, r):
        # A tol just under a character's E fails for that reason alone, and
        # one just over it is gated on the ratio: E itself, not a fraction of
        # it, is where certification stops.
        chi = next(c for c in enumerate_characters(k)
                   if c.primitive and c.parity == ("odd" if r % 2 else "even"))
        bound = alkan_check(r, chi, 1e-5).error_bound
        below = alkan_check(r, chi, 0.9 * bound)
        assert below.status == "FAIL"
        assert "below the certifiable error" in below.reason
        above = alkan_check(r, chi, 1.1 * bound)
        assert "below the certifiable error" not in above.reason
        assert above.status == "PASS"

    def test_reports_have_the_same_bits_on_every_interpreter(self):
        # Every sum of real floats is a left-to-right loop; with the builtin sum,
        # which compensates float rounding from Python 3.12 on, the r = 1
        # reports mod 17, 19 and 39 differed from 3.11's in their last bits.
        # The digest is that of CPython 3.10.13, 3.11.7, 3.12.1 and 3.13.0.
        cases = [(17, 1), (19, 1), (39, 1), (12, 2), (15, 3), (16, 4)]
        text = "\n".join(repr(rep) for k, r in cases
                         for rep in alkan_sweep(k, r, 1e-5, include_imprimitive=True))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "d81fbac2d0049f072ff0dcda288fd5c4606245d166cfaa26d228095a0fba0eed")

    def test_frequency_table_built_once_per_sweep(self):
        # One table per (k, r), shared by every character the sweep checks.
        for k, r in [(13, 4), (15, 3), (20, 2)]:
            dirichlet._frequency_table.cache_clear()
            checked = _checked(k, r, include_imprimitive=True)
            info = dirichlet._frequency_table.cache_info()
            assert len(checked) > 1
            assert (info.misses, info.hits) == (1, len(checked) - 1), (k, r)

    def test_right_hand_side_bound_holds_against_a_decimal_reference(self):
        # The bound's constants are derived, not fitted: against sums taken to
        # 32 digits it must hold for every character mod k <= 13 at every r,
        # and the worst observed error must reach a fair share of it, or the
        # bound says little.
        worst = 0.0
        for k in range(2, 14):
            for chi in enumerate_characters(k):
                if chi.principal:
                    continue
                for r in range(1, 5):
                    table = dirichlet._frequency_table(k, alkan_coefficients(r))
                    value, bound = dirichlet._unit_dot(chi, table)
                    error = rhs_reference_error(r, chi, value)
                    assert error <= bound, (k, r, chi.index, error, bound)
                    worst = max(worst, error / bound)
        assert worst >= 0.01

    def test_certifies_a_tolerance_of_1e_10_at_the_cap(self):
        checked = _checked(199, 4, tol=1e-10)
        assert len(checked) == 98
        assert all(rep.status == "PASS" for rep in checked)


def _halved_b0(n):
    return bernoulli_oracle(n) / 2 if n == 0 else bernoulli_oracle(n)


# flip-r1-sign cannot move r <= 2: r = 1 has no q = 1 term, and at r = 2 that
# term multiplies S(1, chi), which vanishes for every even chi.  A halved
# Bernoulli weight B_0 stands in for it there.
ALKAN_MUTATIONS = [
    ("drop-a0-term", 4, 1), ("drop-a0-term", 5, 2), ("drop-a0-term", 7, 3),
    ("flip-r1-sign", 7, 3), ("flip-r1-sign", 5, 4),
    ("halve-b0", 4, 1), ("halve-b0", 5, 2), ("halve-b0", 13, 2),
]


def _perturb(monkeypatch, perturbation):
    if perturbation == "halve-b0":
        monkeypatch.setattr(dirichlet, "bernoulli_oracle", _halved_b0)
    else:
        monkeypatch.setattr(dirichlet, "binomial", PERTURBED_BINOMIALS[perturbation])


_factorize = dirichlet._factorize

# Each fake breaks one self-check of unit_group_structure(k).
UNIT_GROUP_MUTATIONS = [
    ("_least_generator", lambda q, order: 1, 5, "generator 1 mod 5 does not have order 4"),
    ("_crt_lift", lambda a, q, k: (q - 1) % k, 8, "components of (Z/8Z)* are not independent"),
    ("_factorize", lambda n: _factorize(n)[:-1], 15, "component orders do not cover (Z/15Z)*"),
]


@pytest.fixture
def cold_unit_groups():
    unit_group_structure.cache_clear()
    yield
    unit_group_structure.cache_clear()


def _checked(k, r, include_imprimitive=False, tol=1e-5):
    return [rep for rep in alkan_sweep(k, r, tol, include_imprimitive=include_imprimitive)
            if rep.status != "SKIPPED"]


_frequency_table = dirichlet._frequency_table


def _unconjugated_frequency_table(k, coeffs):
    # T_(k-a) read as T_a where the table reads conj T_a.
    units = [a for a in range(1, k + 1) if math.gcd(a, k) == 1]
    table = dict(zip(units, _frequency_table(k, coeffs)))
    return tuple(table[k - a] if 0 < k - a < a else table[a] for a in units)


class TestGatesCanFail:
    @pytest.mark.parametrize("perturbation, k, r", ALKAN_MUTATIONS)
    def test_perturbed_identity_fails(self, monkeypatch, perturbation, k, r):
        _perturb(monkeypatch, perturbation)
        checked = _checked(k, r)
        assert checked and all(rep.status == "FAIL" for rep in checked)

    def test_perturbed_sweep_refuses_a_nan_tolerance(self, monkeypatch):
        # Every comparison with NaN is false, so a NaN tol would pass the
        # magnitude gate and the certifiable-error one of a broken identity.
        _perturb(monkeypatch, "drop-a0-term")
        assert all(rep.status == "FAIL" for rep in _checked(13, 2))
        with pytest.raises(ValueError, match="tol must be positive, got nan"):
            alkan_sweep(13, 2, float("nan"))

    def test_imprimitive_characters_are_gated(self, monkeypatch):
        # At r = 1 the parity-eligible characters mod 12 are the odd ones, of
        # conductor 3 and 4: every check of this sweep is of an imprimitive one.
        imprimitive = [c.index for c in enumerate_characters(12)
                       if c.parity == "odd" and not c.primitive]
        checked = _checked(12, 1, include_imprimitive=True)
        assert [rep.chi_index for rep in checked] == imprimitive
        assert [rep.status for rep in checked] == ["PASS", "PASS"]
        for perturbation in ("drop-a0-term", "halve-b0"):
            with monkeypatch.context() as patch:
                _perturb(patch, perturbation)
                checked = _checked(12, 1, include_imprimitive=True)
                assert [rep.status for rep in checked] == ["FAIL", "FAIL"], perturbation

    def test_wrong_sign_fails(self, monkeypatch):
        # Negating the frequency table flips the right-hand side and keeps its
        # magnitude, so only the sign check can catch it.
        monkeypatch.setattr(dirichlet, "_frequency_table",
                            negated_frequency_table(_frequency_table))
        checked = _checked(13, 2)
        assert checked
        for rep in checked:
            assert abs(rep.ratio - 1) <= 1e-5
            assert (rep.status, rep.sign_observed) == ("FAIL", 1)
            assert rep.reason == "sign +1, expected -1"

    @pytest.mark.parametrize("k, r", [(7, 3), (13, 1), (13, 3), (11, 1), (15, 3)])
    def test_unconjugated_gauss_table_fails(self, monkeypatch, k, r):
        # The conjugate half of the frequency table read unconjugated.  At even
        # r, w(1 - x) = w(x) makes every T_a real and the two tables equal, so
        # every case is at odd r.
        monkeypatch.setattr(dirichlet, "_frequency_table", _unconjugated_frequency_table)
        checked = _checked(k, r, include_imprimitive=True)
        assert any(rep.status == "FAIL" for rep in checked)

    @pytest.mark.parametrize("k, r", [(5, 2), (7, 3), (12, 1), (13, 4)])
    def test_class_table_for_the_wrong_r_fails(self, monkeypatch, k, r):
        # A case of test_ratio_within_stated_error_bound, its L-series read
        # from the class table of r + 1.
        table = dirichlet._class_table
        monkeypatch.setattr(dirichlet, "_class_table", lambda r, k, N: table(r + 1, k, N))
        checked = _checked(k, r, include_imprimitive=True)
        assert checked and all(rep.status == "FAIL" for rep in checked)

    @pytest.mark.parametrize("name, fake, k, message", UNIT_GROUP_MUTATIONS,
                             ids=["order", "independence", "coverage"])
    def test_perturbed_unit_group_fails_its_self_check(self, cold_unit_groups, monkeypatch,
                                                       name, fake, k, message):
        monkeypatch.setattr(dirichlet, name, fake)
        with pytest.raises(ConsistencyError, match=f"^{re.escape(message)}$"):
            unit_group_structure(k)

    def test_wrong_discrete_log_of_minus_one_fails_the_parity_check(self, monkeypatch):
        # Mod 5 the log of 4 = -1 is 2; a table sending it to 1 gives the
        # character of exponent 1 the value i at -1.
        st = unit_group_structure(5)
        wrong = dirichlet.UnitGroupStructure(5, st.generators, st.orders, {**st.dlog, 4: (1,)})
        monkeypatch.setattr(dirichlet, "unit_group_structure", lambda k: wrong)
        with pytest.raises(ConsistencyError, match=re.escape(
                "character value at -1 is not a square root of 1: phase 1/4")):
            enumerate_characters(5)
