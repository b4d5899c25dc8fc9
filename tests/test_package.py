"""The package namespace: every public name resolves, on first access, to the
object its home module defines, and the namespace lists them all."""

import ast
import graphlib
import importlib
import pathlib
import sys

import pytest

import expsums

EXPECTED_ALL = """
AlkanReport BernoulliTable Composition ConsistencyError CyclotomicElement
DecreasingChain DirichletCharacter DivergenceError ExpSumQuery FloatResidual
LSeriesValue ParityError Polynomial PreconditionError Rational RetrievalDetail
SizeLimitError SweepResult UnitGroupStructure alkan_check alkan_sweep
bernoulli_oracle bernoulli_table binomial chain_coefficient_sum
chain_to_composition composition_to_chain cyclo_root_power
cyclotomic_polynomial enumerate_chains enumerate_characters
enumerate_compositions enumerate_compositions_length eq3_residual_poly
eq4_check exp_power_sum_complex exp_power_sum_cyclo faulhaber_polynomial
format_rational gauss_sum gessel_coefficient_bruteforce
gessel_coefficient_series h_faulhaber h_naive h_polynomial h_recurrence
l_value multinomial odd_recurrence_polynomial parse_rational poly_coefficient
polynomial_from_points prop1_residual_complex prop1_residual_cyclo
retrieve_bernoulli retrieve_bernoulli_detail run_coefficient_check run_eq3
run_prop1_exact run_prop1_float s_sum unit_group_structure
""".split()


def test_all_is_unchanged():
    assert expsums.__all__ == EXPECTED_ALL


def test_each_public_name_has_one_home():
    # __all__ is derived from the table, so a name listed under two homes
    # would otherwise collapse into one entry without notice.
    listed = [name for names in expsums._HOMES.values() for name in names]
    assert len(listed) == len(expsums._HOME_OF)
    assert expsums.__all__ == sorted(set(expsums.__all__))


def test_modules_import_only_the_standard_library():
    # Every import in every module, including those inside functions and
    # under TYPE_CHECKING, is relative or names a standard-library module.
    paths = sorted(pathlib.Path(expsums.__file__).parent.glob("*.py"))
    assert "cli.py" in {path.name for path in paths}
    outside = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_tests_import_only_the_standard_library_pytest_and_hypothesis():
    # The test extra is pytest and hypothesis: every import in every test
    # module, including those inside functions, names one of them, the
    # standard library, the package or a local test module.
    paths = sorted(pathlib.Path(__file__).parent.glob("*.py"))
    assert "helpers.py" in {path.name for path in paths}
    allowed = {"pytest", "hypothesis", "expsums", "helpers", "conftest"}
    outside = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names | allowed]
    assert outside == []


def test_package_imports_form_an_acyclic_graph():
    # Every relative import counts: at module level, inside functions and
    # under TYPE_CHECKING.  Only the CLI handlers, which load what their
    # subcommand uses, the brute-force Gessel oracle and the two exp_sums
    # helpers that wrap an integer vector as an exact object import in a body.
    paths = sorted(pathlib.Path(expsums.__file__).parent.glob("*.py"))
    graph: dict[str, set[str]] = {}
    local = set()
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        enclosing = {id(node): f"{path.stem}.{func.name}"
                     for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
                     for node in ast.walk(func)}
        graph[path.stem] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                graph[path.stem].update([node.module] if node.module
                                        else [alias.name for alias in node.names])
                if id(node) in enclosing:
                    local.add(enclosing[id(node)])
    assert graph["bernoulli"] >= {"power_sums"}
    order = list(graphlib.TopologicalSorter(graph).static_order())  # CycleError names a cycle
    # The integer leaf imports nothing from the package, and the
    # double-precision modules reach neither the exact layer nor power sums.
    assert graph["arith"] == set()
    reach = {}
    for module in order:  # every import of a module precedes it
        reach[module] = set().union(*[{m} | reach[m] for m in graph.get(module, ())])
    for module in ("dirichlet", "floating"):
        assert reach[module] & {"exact", "power_sums"} == set(), module
    assert {site for site in local if not site.startswith("cli._cmd_")} == {
        "compositions.gessel_coefficient_bruteforce",
        "exp_sums._cyclotomic", "exp_sums._polynomial"}


def test_version():
    assert expsums.__version__ == "0.1.0"


@pytest.mark.parametrize("name", EXPECTED_ALL)
def test_public_name_is_its_home_modules_object(name):
    home = importlib.import_module(f"expsums.{expsums._HOME_OF[name]}")
    value = getattr(expsums, name)
    assert value is vars(home)[name]
    # Classes and functions are defined where the table says they live.
    if getattr(value, "__module__", "").startswith("expsums"):
        assert value.__module__ == home.__name__


def test_star_import_binds_all():
    namespace: dict = {}
    exec("from expsums import *", namespace)
    assert set(EXPECTED_ALL) <= set(namespace)
    for name in EXPECTED_ALL:
        assert namespace[name] is getattr(expsums, name)


def test_dir_lists_every_public_name():
    assert set(EXPECTED_ALL) <= set(dir(expsums))


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        expsums.no_such_name
    assert not hasattr(expsums, "no_such_name")
