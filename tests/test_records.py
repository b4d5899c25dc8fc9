"""The package's records behave as the frozen dataclasses they replace: built
by position or keyword, printed alike, equal only within one class, hashed
by their field tuple, and closed to assignment and deletion."""

import types
from fractions import Fraction

import pytest

from expsums import (
    AlkanReport,
    BernoulliTable,
    Composition,
    DecreasingChain,
    DirichletCharacter,
    ExpSumQuery,
    LSeriesValue,
    Polynomial,
    RetrievalDetail,
    SweepResult,
    UnitGroupStructure,
)
from expsums.errors import _Record

PROXY = types.MappingProxyType
KPOLY = Polynomial([0, 1, 2], var="k")

# (class, fields in order, the repr a frozen dataclass of them prints, hashable)
CASES = [
    (Composition, {"parts": (1, 2), "total": 3},
     "Composition(parts=(1, 2), total=3)", True),
    (DecreasingChain, {"indices": (5, 2), "upper": 7, "lower": 0},
     "DecreasingChain(indices=(5, 2), upper=7, lower=0)", True),
    (ExpSumQuery, {"p": 2, "k": 5, "m": 2, "sign": -1},
     "ExpSumQuery(p=2, k=5, m=2, sign=-1)", True),
    (SweepResult, {"name": "prop1-exact", "cases": 4,
                   "failures": ({"case": "c", "status": "FAIL", "detail": "d"},)},
     "SweepResult(name='prop1-exact', cases=4, "
     "failures=({'case': 'c', 'status': 'FAIL', 'detail': 'd'},))", False),
    (UnitGroupStructure, {"modulus": 5, "generators": (2,), "orders": (4,),
                          "dlog": PROXY({1: (0,), 2: (1,)})},
     "UnitGroupStructure(modulus=5, generators=(2,), orders=(4,), "
     "dlog=mappingproxy({1: (0,), 2: (1,)}))", False),
    (DirichletCharacter, {"modulus": 3, "index": 1, "exponents": (1,),
                          "values": (0j, 1 + 0j, -1 + 0j), "parity": "odd",
                          "principal": False, "conductor": 3, "primitive": True},
     "DirichletCharacter(modulus=3, index=1, exponents=(1,), "
     "values=(0j, (1+0j), (-1+0j)), parity='odd', principal=False, conductor=3, "
     "primitive=True)", True),
    (LSeriesValue, {"r": 2, "value": 1.5 + 0.25j, "truncation_N": 30,
                    "tail_bound": 1e-17, "rounding_bound": 2.5e-16},
     "LSeriesValue(r=2, value=(1.5+0.25j), truncation_N=30, tail_bound=1e-17, "
     "rounding_bound=2.5e-16)", True),
    (AlkanReport, {"modulus": 5, "r": 1, "chi_index": 1, "lhs_magnitude": 1.25,
                   "rhs_magnitude": 1.25, "ratio": 1.0, "sign_observed": 1,
                   "status": "PASS", "reason": "", "error_bound": 3e-15},
     "AlkanReport(modulus=5, r=1, chi_index=1, lhs_magnitude=1.25, "
     "rhs_magnitude=1.25, ratio=1.0, sign_observed=1, status='PASS', reason='', "
     "error_bound=3e-15)", True),
    (RetrievalDetail, {"n": 2, "p": 3, "value": Fraction(1, 6), "compared_degree": 2,
                       "recurrence_poly": KPOLY, "closed_form_poly": KPOLY},
     "RetrievalDetail(n=2, p=3, value=Fraction(1, 6), compared_degree=2, "
     "recurrence_poly=Polynomial([0, 1, 2], var='k'), "
     "closed_form_poly=Polynomial([0, 1, 2], var='k'))", True),
    (BernoulliTable, {"values": PROXY({0: Fraction(1), 1: Fraction(-1, 2)})},
     "BernoulliTable(values=mappingproxy({0: Fraction(1, 1), 1: Fraction(-1, 2)}))",
     False),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, fields, text, hashable", CASES, ids=IDS)
class TestRecord:
    def test_positional_and_keyword_construction(self, cls, fields, text, hashable):
        by_position = cls(*fields.values())
        by_keyword = cls(**fields)
        assert cls._fields == tuple(fields)
        for name, value in fields.items():
            assert getattr(by_position, name) is value
            assert getattr(by_keyword, name) is value
        first, *rest = fields
        assert cls(fields[first], **{name: fields[name] for name in rest}) == by_position

    def test_repr(self, cls, fields, text, hashable):
        assert repr(cls(**fields)) == text

    def test_equality_within_one_class_only(self, cls, fields, text, hashable):
        record = cls(**fields)
        assert record == cls(**fields)
        assert not record != cls(**fields)
        assert record != tuple(fields.values())
        assert record.__eq__(tuple(fields.values())) is NotImplemented

        class Twin(cls):  # the same fields under another class
            pass

        twin = Twin(**fields)
        assert Twin._fields == cls._fields
        assert record != twin and twin != record

    def test_hash(self, cls, fields, text, hashable):
        record = cls(**fields)
        if hashable:
            assert hash(record) == hash(tuple(fields.values()))
            assert hash(record) == hash(cls(**fields))
        else:
            with pytest.raises(TypeError, match="unhashable"):
                hash(record)

    def test_frozen(self, cls, fields, text, hashable):
        record = cls(**fields)
        name, value = next(iter(fields.items()))
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, value)
        with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
            record.extra = 1
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
        assert repr(record) == text

    def test_binding_errors(self, cls, fields, text, hashable):
        values = list(fields.values())
        with pytest.raises(TypeError, match="takes"):
            cls(*values, None)
        with pytest.raises(TypeError, match="missing field"):
            cls()
        with pytest.raises(TypeError, match="unexpected or repeated"):
            cls(*values, bogus=1)
        with pytest.raises(TypeError, match="unexpected or repeated"):
            cls(values[0], **fields)


class TestAlkanReportDefaults:
    def test_reason_and_error_bound_are_optional(self):
        report = AlkanReport(5, 2, 1, None, None, None, None, "SKIPPED")
        assert report.reason == "" and report.error_bound is None
        assert report == AlkanReport(5, 2, 1, None, None, None, None, "SKIPPED", "", None)
        assert repr(report) == (
            "AlkanReport(modulus=5, r=2, chi_index=1, lhs_magnitude=None, "
            "rhs_magnitude=None, ratio=None, sign_observed=None, status='SKIPPED', "
            "reason='', error_bound=None)")

    def test_a_default_can_be_given_by_keyword_alone(self):
        report = AlkanReport(5, 1, 1, 1.0, 1.0, 1.0, 1, "PASS", error_bound=1e-15)
        assert report.reason == "" and report.error_bound == 1e-15


class TestValidation:
    @pytest.mark.parametrize("parts, total, message", [
        ((), 0, "at least one part"),
        ((2, 0, 1), 3, "must be positive"),
        ((1, 2), 4, "do not sum to 4"),
    ])
    def test_composition(self, parts, total, message):
        with pytest.raises(ValueError, match=message):
            Composition(parts, total)
        with pytest.raises(ValueError, match=message):
            Composition(parts=parts, total=total)

    @pytest.mark.parametrize("indices, upper, lower, message", [
        ((), 3, 3, "need 0 <= lower < upper"),
        ((), 3, -1, "need 0 <= lower < upper"),
        ((5, 1), 5, 0, "leave"),
        ((2, 3), 5, 0, "not strictly decreasing"),
        ((2, 2), 5, 0, "not strictly decreasing"),
    ])
    def test_decreasing_chain(self, indices, upper, lower, message):
        with pytest.raises(ValueError, match=message):
            DecreasingChain(indices, upper, lower)

    @pytest.mark.parametrize("p, k, sign, message", [
        (-1, 5, 1, "exponent p must be >= 0"),
        (2, 1, 1, "modulus k must be >= 2"),
        (2, 5, 0, "sign must be"),
    ])
    def test_exp_sum_query(self, p, k, sign, message):
        with pytest.raises(ValueError, match=message):
            ExpSumQuery(p, k, 1, sign)

    @pytest.mark.parametrize("m, reduced", [(7, 2), (-1, 4), (5, 0), (2, 2)])
    def test_exp_sum_query_reduces_m_mod_k(self, m, reduced):
        assert ExpSumQuery(2, 5, m, 1).m == reduced
        assert ExpSumQuery(p=2, k=5, m=m, sign=-1).m == reduced
        assert ExpSumQuery(2, 5, m, 1) == ExpSumQuery(2, 5, reduced, 1)


def test_a_field_without_default_may_not_follow_one_with_it():
    with pytest.raises(TypeError, match="without a default follows"):
        class Bad(_Record):
            a: int = 0
            b: int
