"""Exact verification toolkit for power-sum and exponential power-sum
identities, Bernoulli-number retrieval, and a desk-scale Dirichlet L-series
magnitude check.

Each public name is imported from its home module on first access (PEP 562),
so ``import expsums`` loads no submodule, and a CLI run loads only the
modules its subcommand uses.
"""

import importlib

__version__ = "0.1.0"

# Home module of every public name: the one list of them.
_HOMES = {
    "arith": (
        "bernoulli_oracle", "binomial", "format_rational", "multinomial",
        "parse_rational",
    ),
    "bernoulli": (
        "BernoulliTable", "RetrievalDetail", "bernoulli_table",
        "retrieve_bernoulli", "retrieve_bernoulli_detail",
    ),
    "compositions": (
        "Composition", "DecreasingChain", "chain_to_composition",
        "composition_to_chain", "enumerate_chains", "enumerate_compositions",
        "enumerate_compositions_length", "gessel_coefficient_bruteforce",
        "gessel_coefficient_series",
    ),
    "dirichlet": (
        "AlkanReport", "DirichletCharacter", "LSeriesValue",
        "UnitGroupStructure", "alkan_check", "alkan_sweep",
        "enumerate_characters", "gauss_sum", "l_value", "s_sum",
        "unit_group_structure",
    ),
    "errors": (
        "ConsistencyError", "DivergenceError", "ParityError",
        "PreconditionError", "SizeLimitError",
    ),
    "exact": (
        "CyclotomicElement", "Polynomial", "Rational", "cyclo_root_power",
        "cyclotomic_polynomial", "poly_coefficient", "polynomial_from_points",
    ),
    "exp_sums": (
        "chain_coefficient_sum", "eq3_residual_poly", "exp_power_sum_cyclo",
        "prop1_residual_cyclo", "run_coefficient_check", "run_eq3",
        "run_prop1_exact",
    ),
    "floating": (
        "ExpSumQuery", "FloatResidual", "SweepResult", "exp_power_sum_complex",
        "prop1_residual_complex", "run_prop1_float",
    ),
    "power_sums": (
        "eq4_check", "faulhaber_polynomial", "h_faulhaber", "h_naive",
        "h_polynomial", "h_recurrence", "odd_recurrence_polynomial",
    ),
}
_HOME_OF = {name: home for home, names in _HOMES.items() for name in names}
__all__ = sorted(_HOME_OF)


def __getattr__(name: str):
    # Only the public names resolve here.  Submodules are bound by the import
    # system itself, so ``from . import dirichlet`` takes the ordinary path.
    home = _HOME_OF.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
