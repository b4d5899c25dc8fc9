"""Every public entry point refuses arguments outside its domain with a
ValueError (or its ParityError subclass) that names the offending value."""

import pytest

from expsums import (
    ExpSumQuery,
    ParityError,
    Polynomial,
    alkan_check,
    alkan_sweep,
    bernoulli_oracle,
    cyclo_root_power,
    enumerate_characters,
    eq4_check,
    faulhaber_polynomial,
    gessel_coefficient_bruteforce,
    gessel_coefficient_series,
    h_faulhaber,
    h_naive,
    h_polynomial,
    h_recurrence,
    l_value,
    multinomial,
    odd_recurrence_polynomial,
    run_prop1_float,
    unit_group_structure,
)

CHECKS = [
    ("h_naive-p", lambda: h_naive(-1, 3), ValueError, "p=-1, k=3"),
    ("h_naive-k", lambda: h_naive(2, -1), ValueError, "p=2, k=-1"),
    ("faulhaber_polynomial", lambda: faulhaber_polynomial(0, bernoulli_oracle),
     ValueError, "p >= 1, got 0"),
    ("odd_recurrence_polynomial", lambda: odd_recurrence_polynomial(4, lambda j: Polynomial([])),
     ParityError, "odd p >= 1, got 4"),
    ("h_polynomial", lambda: h_polynomial(0), ValueError, "p >= 1, got 0"),
    ("h_faulhaber-p", lambda: h_faulhaber(0, 3), ValueError, "p=0, k=3"),
    ("h_faulhaber-k", lambda: h_faulhaber(2, -1), ValueError, "p=2, k=-1"),
    ("h_recurrence-p", lambda: h_recurrence(0, 3), ValueError, "p >= 1, got 0"),
    ("h_recurrence-even", lambda: h_recurrence(4, 3), ParityError, "even p \\(got p=4\\)"),
    ("h_recurrence-k", lambda: h_recurrence(3, -1), ValueError, "k >= 0, got -1"),
    ("eq4_check-p", lambda: eq4_check(0, 3), ValueError, "p=0, k=3"),
    ("eq4_check-k", lambda: eq4_check(2, 0), ValueError, "p=2, k=0"),
    ("gessel_coefficient_series", lambda: gessel_coefficient_series([1], -1),
     ValueError, ">= 0, got -1"),
    ("gessel_coefficient_bruteforce", lambda: gessel_coefficient_bruteforce([1], -1),
     ValueError, ">= 0, got -1"),
    ("unit_group_structure", lambda: unit_group_structure(0), ValueError, ">= 1, got 0"),
    ("l_value", lambda: l_value(0, enumerate_characters(5)[1], 1e-9), ValueError,
     "r >= 1, got 0"),
    # A NaN tolerance compares false with everything, so it must be refused
    # rather than let every gate through.
    ("l_value-nan-tol", lambda: l_value(1, enumerate_characters(11)[1], float("nan")),
     ValueError, "target_tol must be positive, got nan"),
    ("alkan_check-nan-tol", lambda: alkan_check(1, enumerate_characters(11)[1], float("nan")),
     ValueError, "tol must be positive, got nan"),
    ("alkan_sweep-nan-tol", lambda: alkan_sweep(13, 2, float("nan")), ValueError,
     "tol must be positive, got nan"),
    ("run_prop1_float-nan-tol", lambda: run_prop1_float(2, 4, float("nan")), ValueError,
     "tol must be positive, got nan"),
    ("run_prop1_float-tol", lambda: run_prop1_float(2, 4, 0.0), ValueError,
     "tol must be positive, got 0.0"),
    ("multinomial", lambda: multinomial(-1, []), ValueError, "n >= 0, got n=-1"),
    ("ExpSumQuery", lambda: ExpSumQuery(p=-1, k=5, m=1, sign=1), ValueError, ">= 0, got -1"),
    ("cyclo_root_power", lambda: cyclo_root_power(0, 1), ValueError, "k >= 1, got 0"),
]


@pytest.mark.parametrize("call, error, message", [c[1:] for c in CHECKS],
                         ids=[c[0] for c in CHECKS])
def test_out_of_domain_argument_rejected(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("k", [5, 8, 12, 15])
def test_character_call_and_parity(k):
    # chi is periodic mod k, and odd exactly when chi(-1) = -1.
    for chi in enumerate_characters(k):
        for n in range(-2 * k, 2 * k):
            assert chi(n) == chi.values[n % k] == chi(n + k)
        assert chi.is_odd == (abs(chi(-1) + 1) < 1e-9)
        assert chi.is_odd != (abs(chi(-1) - 1) < 1e-9)
