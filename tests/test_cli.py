import hashlib
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

from expsums import dirichlet, exp_sums, floating, power_sums
from expsums.cli import _print_sweep, main
from helpers import (
    CLI_CASES,
    PERTURBED_BINOMIALS,
    b2_off_by_a_third,
    bitmask_compositions,
    chains_without_the_empty_one,
    characters_renderings,
    cli_env,
    negated_frequency_table,
    run_cli,
    shifted_phase_column,
)


def run(capsys, *args):
    status = main(list(args))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestPowersum:
    def test_recurrence_value(self, capsys):
        status, out, _ = run(capsys, "powersum", "--p", "3", "--k", "3",
                             "--method", "recurrence")
        assert (status, out) == (0, "36\n")

    def test_faulhaber_value(self, capsys):
        status, out, _ = run(capsys, "powersum", "--p", "3", "--k", "10",
                             "--method", "faulhaber")
        assert (status, out) == (0, "3025\n")

    def test_polynomial_text(self, capsys):
        status, out, _ = run(capsys, "powersum", "--p", "3", "--method", "poly")
        assert status == 0
        assert out.strip() == "1/4*k^4 + 1/2*k^3 + 1/4*k^2"

    def test_polynomial_json(self, capsys):
        status, out, _ = run(capsys, "powersum", "--p", "3", "--method", "poly",
                             "--json")
        payload = json.loads(out)
        assert status == 0
        assert payload == {"method": "poly", "p": 3,
                           "polynomial": ["0", "0", "1/4", "1/2", "1/4"]}

    def test_polynomial_evaluated_at_k(self, capsys):
        status, out, _ = run(capsys, "powersum", "--p", "3", "--k", "3",
                             "--method", "poly", "--json")
        assert json.loads(out)["value"] == "36"

    def test_even_recurrence_is_usage_error(self, capsys):
        status, out, err = run(capsys, "powersum", "--p", "2", "--k", "3",
                               "--method", "recurrence")
        assert status == 2
        assert out == ""
        assert "error:" in err

    def test_missing_k_is_usage_error(self, capsys):
        status, _, err = run(capsys, "powersum", "--p", "2", "--method", "naive")
        assert status == 2
        assert "--k" in err

    @pytest.mark.parametrize("args, message", [
        (["--p", "2", "--method", "naive"], "--method naive requires --k"),
        (["--p", "3", "--method", "recurrence"], "--method recurrence requires --k"),
        (["--p", "3", "--method", "faulhaber"], "--method faulhaber requires --k"),
        (["--p", "0", "--method", "poly"], "--method poly requires --p >= 1"),
        (["--p", "0", "--k", "3", "--method", "poly"], "--method poly requires --p >= 1"),
        (["--p", "0", "--k", "3", "--method", "faulhaber"],
         "--method faulhaber requires --p >= 1"),
        # Both rules broken: the --k rule is checked first.
        (["--p", "0", "--method", "faulhaber"], "--method faulhaber requires --k"),
        (["--p", "3", "--k", "-1"], "--k must be >= 0"),
    ])
    def test_method_argument_rules(self, capsys, args, message):
        status, out, err = run(capsys, "powersum", *args)
        assert (status, out, err) == (2, "", f"error: {message}\n")


class TestBernoulli:
    def test_retrieve(self, capsys):
        status, out, _ = run(capsys, "bernoulli", "--n", "2", "--method", "retrieve")
        assert (status, out) == (0, "1/6\n")

    def test_oracle_json(self, capsys):
        status, out, _ = run(capsys, "bernoulli", "--n", "1", "--method", "oracle",
                             "--json")
        assert json.loads(out) == {"method": "oracle", "n": 1, "value": "-1/2"}

    def test_table(self, capsys):
        status, out, _ = run(capsys, "bernoulli", "--table", "3")
        assert status == 0
        assert out.splitlines() == ["B_0 = 1", "B_1 = -1/2", "B_2 = 1/6", "B_3 = 0"]

    def test_table_json_schema(self, capsys):
        status, out, _ = run(capsys, "bernoulli", "--table", "4", "--json")
        payload = json.loads(out)
        assert set(payload) == {"nmax", "table"}
        assert payload["table"][4] == {"n": 4, "value": "-1/30"}

    def test_retrieve_cap_names_flag(self, capsys):
        status, _, err = run(capsys, "bernoulli", "--n", "62", "--method", "retrieve")
        assert status == 2
        assert "--n" in err

    def test_retrieve_below_range_is_a_usage_error(self, capsys):
        status, out, err = run(capsys, "bernoulli", "--n", "0", "--method", "retrieve")
        assert (status, out) == (2, "")
        assert err == "error: retrieval is defined for n = 1 and even n >= 2, got n=0\n"

    def test_n_and_table_together_are_a_usage_error(self, capsys):
        # argparse refuses the pair: --table must not silently drop --n.
        status, out, err = run(capsys, "bernoulli", "--n", "4", "--table", "3")
        assert (status, out) == (2, "")
        assert "--n" in err and "--table" in err

    @pytest.mark.parametrize("method", ["oracle", "retrieve"])
    def test_method_and_table_together_are_a_usage_error(self, capsys, method):
        # The table is always retrieved and checked against the oracle, so a
        # --method there would have nothing to choose.
        status, out, err = run(capsys, "bernoulli", "--table", "3", "--method", method)
        assert (status, out, err) == (2, "", "error: --method applies to --n, not to --table\n")

    @pytest.mark.parametrize("args", [[], ["--method", "oracle"]], ids=["bare", "method"])
    def test_neither_n_nor_table_is_a_usage_error(self, capsys, args):
        assert run(capsys, "bernoulli", *args) == (
            2, "", "error: provide --n with --method, or --table NMAX\n")

    def test_oracle_is_the_default_method(self, capsys):
        status, out, _ = run(capsys, "bernoulli", "--n", "12", "--json")
        assert status == 0
        assert json.loads(out) == {"method": "oracle", "n": 12, "value": "-691/2730"}


class TestCompositions:
    def test_text_lines(self, capsys):
        status, out, _ = run(capsys, "compositions", "--n", "3")
        assert status == 0
        assert out.splitlines() == ["[1, 1, 1]", "[1, 2]", "[2, 1]", "[3]"]

    def test_json(self, capsys):
        status, out, _ = run(capsys, "compositions", "--n", "5", "--length", "3",
                             "--json")
        payload = json.loads(out)
        assert payload["count"] == 6
        assert payload["compositions"][0] == [1, 1, 3]

    def test_guard_names_flag(self, capsys):
        status, _, err = run(capsys, "compositions", "--n", "30")
        assert status == 2
        assert "--n" in err

    def test_streamed_bytes_match_json_dumps(self, capsys):
        # The rows are written as they are enumerated; the bytes must be those
        # of json.dumps over the whole list, which an independent oracle gives.
        for n in range(1, 13):
            every = bitmask_compositions(n)
            for length in [None, *range(1, n + 1)]:
                rows = [list(p) for p in every if length is None or len(p) == length]
                argv = ["compositions", "--n", str(n)]
                if length is not None:
                    argv += ["--length", str(length)]
                assert run(capsys, *argv) == (
                    0, "".join(json.dumps(row) + "\n" for row in rows), "")
                payload = {"compositions": rows, "count": len(rows),
                           "length": length, "n": n}
                assert run(capsys, *argv, "--json") == (
                    0, json.dumps(payload, sort_keys=True) + "\n", "")

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_memory_does_not_grow_with_the_output(self, monkeypatch, flags):
        # 2^15 rows; a list of them alone would take several megabytes.
        with open(os.devnull, "w") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            tracemalloc.start()
            try:
                status = main(["compositions", "--n", "16", *flags])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert status == 0
        assert peak < 1 << 20


class TestCharacters:
    def test_json_schema_and_digits(self, capsys):
        status, out, _ = run(capsys, "characters", "--k", "5", "--json")
        payload = json.loads(out)
        assert status == 0
        assert len(payload) == 4
        keys = {"conductor", "index", "modulus", "parity", "primitive",
                "principal", "values"}
        assert all(set(rec) == keys for rec in payload)
        assert payload[0]["principal"] is True
        assert payload[0]["values"][1] == "1+0i"

    def test_json_stream_is_pinned(self, capsys):
        # Written one character at a time, the stream keeps the bytes of one
        # json.dumps of the whole list; mod 120 the unit group has four
        # cyclic components.
        status, out, _ = run(capsys, "characters", "--k", "120", "--json")
        assert status == 0
        assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "36286874dba12a9066e07432ff1c72fac73b3006fcb00308e0ff6bcb42643e9b")

    def test_json_of_no_characters_is_an_empty_list(self, capsys, monkeypatch):
        monkeypatch.setattr(dirichlet, "_characters", lambda k: iter(()))
        assert run(capsys, "characters", "--k", "5", "--json") == (0, "[]\n", "")

    def test_text_mode(self, capsys):
        status, out, _ = run(capsys, "characters", "--k", "4")
        assert status == 0
        assert out.startswith("2 characters mod 4")

    def test_rows_by_phase_equal_the_rendering_of_the_values(self, capsys):
        # Each row is placed from one string per phase; the bytes must be
        # those of one _fmt_complex call per value of the records.
        for k in [*range(1, 101), 600, 997, 1000]:
            text, as_json = characters_renderings(k)
            assert run(capsys, "characters", "--k", str(k)) == (0, text, ""), k
            assert run(capsys, "characters", "--k", str(k), "--json") == (0, as_json, ""), k

    def test_perturbed_phase_column_breaks_the_rows(self, capsys, monkeypatch):
        monkeypatch.setattr(dirichlet, "_characters",
                            shifted_phase_column(dirichlet._characters, 2))
        text = run(capsys, "characters", "--k", "7")
        as_json = run(capsys, "characters", "--k", "7", "--json")
        monkeypatch.undo()
        want_text, want_json = characters_renderings(7)
        assert text[0] == as_json[0] == 0
        assert text[1] != want_text and as_json[1] != want_json


class TestVerify:
    def test_prop1_exact_pass(self, capsys):
        status, out, _ = run(capsys, "verify", "prop1", "--pmax", "4", "--kmax", "8",
                             "--exact")
        assert status == 0
        assert out == "PASS (336 cases)\n"

    def test_prop1_json_empty(self, capsys):
        status, out, _ = run(capsys, "verify", "prop1", "--pmax", "3", "--kmax", "6",
                             "--json")
        assert status == 0
        assert json.loads(out) == []

    def test_prop1_float(self, capsys):
        status, out, _ = run(capsys, "verify", "prop1", "--pmax", "3", "--kmax", "20",
                             "--float", "--tol", "1e-8")
        assert status == 0
        assert out.startswith("PASS (")

    def test_eq3(self, capsys):
        status, out, _ = run(capsys, "verify", "eq3", "--pmax", "3", "--kmax", "5")
        assert status == 0
        assert out == f"PASS ({3 * (2 + 3 + 4 + 5)} cases)\n"

    def test_coeffs(self, capsys):
        status, out, _ = run(capsys, "verify", "coeffs", "--pmax", "6")
        assert status == 0

    def test_alkan_pass(self, capsys):
        status, out, _ = run(capsys, "verify", "alkan", "--k", "4", "--r", "1")
        assert status == 0
        assert "PASS" in out

    def test_alkan_json_schema(self, capsys):
        status, out, _ = run(capsys, "verify", "alkan", "--k", "5", "--r", "2",
                             "--json")
        payload = json.loads(out)
        assert status == 0
        keys = {"chi_index", "k", "r", "ratio", "sign_observed", "status"}
        assert all(set(rec) == keys for rec in payload)
        passed = [rec for rec in payload if rec["status"] == "PASS"]
        assert len(passed) == 1
        assert abs(float(passed[0]["ratio"]) - 1) < 1e-5

    def test_alkan_unattainable_tolerance_fails(self, capsys):
        # Double precision cannot hit a 1e-18 window; an honest FAIL, exit 1.
        for k, r in [("4", "1"), ("20", "2")]:
            status, out, _ = run(capsys, "verify", "alkan", "--k", k, "--r", r,
                                 "--tol", "1e-18")
            assert status == 1
            assert "FAIL" in out
            assert "(tol 1e-18 is below the certifiable error " in out

    def test_alkan_json_fail_exits_one(self, capsys):
        status, out, _ = run(capsys, "verify", "alkan", "--k", "20", "--r", "2",
                             "--tol", "1e-18", "--json")
        payload = json.loads(out)
        assert status == 1
        assert [rec["chi_index"] for rec in payload if rec["status"] == "FAIL"] == [5, 7]
        assert all(rec["status"] == "SKIPPED" for rec in payload
                   if rec["chi_index"] not in (5, 7))

    def test_alkan_tally_counts_skips(self, capsys):
        status, out, _ = run(capsys, "verify", "alkan", "--k", "12", "--r", "2")
        assert status == 0
        assert out.endswith("\nPASS (1 characters, 3 skipped)\n")

    def test_alkan_gates_imprimitive_when_asked(self, capsys):
        # Mod 12 at r = 1 both parity-eligible characters are imprimitive.
        status, out, _ = run(capsys, "verify", "alkan", "--k", "12", "--r", "1",
                             "--include-imprimitive")
        assert status == 0
        assert [line.split()[1] for line in out.splitlines()[:-1]] == [
            "SKIPPED", "PASS", "PASS", "SKIPPED"]
        assert out.endswith("\nPASS (2 characters, 2 skipped)\n")

    @pytest.mark.parametrize("k, r, skipped", [("198", "2", 60), ("3", "2", 2), ("12", "1", 4)])
    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_alkan_checking_nothing_is_a_usage_error(self, capsys, k, r, skipped, json_flag):
        # Every character skipped: not a vacuous "PASS (0 characters, ...)".
        status, out, err = run(capsys, "verify", "alkan", "--k", k, "--r", r, *json_flag)
        assert (status, out) == (2, "")
        assert err == f"error: --k {k} --r {r} checks no character ({skipped} skipped)\n"

    def test_alkan_imprimitive_characters_are_checked_where_no_primitive_one_is(self, capsys):
        status, out, _ = run(capsys, "verify", "alkan", "--k", "198", "--r", "2",
                             "--include-imprimitive")
        assert status == 0
        assert out.endswith("\nPASS (29 characters, 31 skipped)\n")

    def test_guard_names_flag(self, capsys):
        status, _, err = run(capsys, "verify", "prop1", "--pmax", "99",
                             "--kmax", "8")
        assert status == 2
        assert "--pmax" in err


class TestTolerance:
    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf", "abc"])
    @pytest.mark.parametrize("command", [
        ["verify", "prop1", "--pmax", "2", "--kmax", "4", "--float"],
        ["verify", "alkan", "--k", "5", "--r", "2"],
    ], ids=["prop1", "alkan"])
    def test_rejects_non_positive_or_non_finite(self, capsys, command, value):
        status, out, err = run(capsys, *command, "--tol", value)
        assert status == 2
        assert out == ""
        assert "argument --tol: must be a positive finite number" in err

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize("mode", [[], ["--exact"]], ids=["default", "exact"])
    def test_exact_prop1_refuses_a_tolerance(self, capsys, mode, json_flag):
        # An exact residual is zero or not, so a --tol there would be ignored.
        assert run(capsys, "verify", "prop1", "--pmax", "1", "--kmax", "2", *mode,
                   "--tol", "5", *json_flag) == (
            2, "", "error: --tol applies to --float, not to the exact sweep\n")

    def test_float_prop1_takes_a_tolerance(self, capsys):
        assert run(capsys, "verify", "prop1", "--pmax", "3", "--kmax", "8", "--float",
                   "--tol", "1e-3") == (0, "PASS (54 cases)\n", "")


class TestGatesCanFail:
    @pytest.mark.parametrize("perturbation", sorted(PERTURBED_BINOMIALS))
    @pytest.mark.parametrize("command", [
        ["verify", "prop1", "--pmax", "4", "--kmax", "8", "--exact"],
        ["verify", "eq3", "--pmax", "4", "--kmax", "8"],
        ["verify", "prop1", "--pmax", "4", "--kmax", "8", "--float"],
        ["verify", "alkan", "--k", "7", "--r", "3"],
    ], ids=["prop1", "eq3", "prop1-float", "alkan"])
    def test_perturbed_identity_fails(self, capsys, monkeypatch, command, perturbation):
        for module in (exp_sums, floating, dirichlet):
            monkeypatch.setattr(module, "binomial", PERTURBED_BINOMIALS[perturbation])
        status, out, _ = run(capsys, *command)
        assert status == 1
        assert out.splitlines()[-1 if command[1] == "alkan" else 0].startswith("FAIL (")

    def test_perturbed_chains_fail_coeffs(self, capsys, monkeypatch):
        monkeypatch.setattr(exp_sums, "_chain_sums", chains_without_the_empty_one)
        status, out, _ = run(capsys, "verify", "coeffs", "--pmax", "4")
        assert status == 1
        assert out.startswith("FAIL (14 of 18 cases failed)\n")

    def test_self_check_is_one_error_line(self, cold_closed_forms, capsys, monkeypatch):
        # The retrieval's own consistency check fires: exit 1, no traceback.
        monkeypatch.setattr(power_sums, "binomial", PERTURBED_BINOMIALS["flip-r1-sign"])
        status, out, err = run(capsys, "bernoulli", "--table", "8")
        assert status == 1
        assert out == ""
        assert err == ("error: retrieval of B_1: polynomials disagree beyond the "
                       "solved coefficient\n")

    def test_non_integer_power_sum_is_one_error_line(self, capsys, monkeypatch):
        monkeypatch.setattr(power_sums, "bernoulli_oracle", b2_off_by_a_third)
        assert run(capsys, "powersum", "--p", "2", "--k", "1", "--method", "faulhaber") == (
            1, "", "error: closed form gave non-integer h(2,1) = 4/3\n")

    def test_zero_right_hand_side_is_reported(self, capsys, monkeypatch):
        # Dropping the q = 0 term empties the r = 1 sum.
        monkeypatch.setattr(dirichlet, "binomial", PERTURBED_BINOMIALS["drop-a0-term"])
        status, out, _ = run(capsys, "verify", "alkan", "--k", "4", "--r", "1")
        assert status == 1
        assert "chi_1: FAIL (zero right-hand side)\n" in out
        assert out.endswith("FAIL (1 of 1 characters failed, 1 skipped)\n")

    def test_wrong_sign_is_reported(self, capsys, monkeypatch):
        # A negated right-hand side keeps every magnitude: only the sign fails.
        monkeypatch.setattr(dirichlet, "_frequency_table",
                            negated_frequency_table(dirichlet._frequency_table))
        status, out, _ = run(capsys, "verify", "alkan", "--k", "5", "--r", "2")
        assert status == 1
        assert " sign=+1 (sign +1, expected -1)\n" in out
        assert out.endswith("FAIL (1 of 1 characters failed, 3 skipped)\n")


class TestAlkanRange:
    @pytest.mark.parametrize("r", ["0", "9"])
    @pytest.mark.parametrize("k", ["1", "2", "5"])
    def test_out_of_range_r_is_a_usage_error(self, capsys, k, r):
        # Mod 1 and mod 2 no character reaches the check itself.
        status, out, err = run(capsys, "verify", "alkan", "--k", k, "--r", r)
        assert status == 2
        assert out == ""
        assert f"need 1 <= r <= 4, got {r}" in err


class TestRuntimeImports:
    def test_numpy_not_imported(self, monkeypatch):
        # numpy is no dependency of the package or of its tests: neither
        # importing the package nor the floating verify path may load it.
        monkeypatch.setenv("PYTHONPROFILEIMPORTTIME", "1")
        status, out, err = run_cli(["verify", "alkan", "--k", "5", "--r", "2"])
        assert status == 0 and out.startswith(b"chi_0: SKIPPED")
        imported = [line.rsplit(b"|", 1)[-1].strip()
                    for line in err.splitlines() if line.startswith(b"import time:")]
        assert b"expsums.dirichlet" in imported
        assert not [name for name in imported if name.split(b".")[0] == b"numpy"]

    # The package modules each run loads: a subcommand imports only what it
    # uses, and ``import expsums`` alone imports no submodule.  The second
    # line names the costly standard-library modules the run loaded that the
    # interpreter had not loaded before it.
    FOOTPRINT = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import expsums\n"
        "if sys.argv[1:]:\n"
        "    from expsums.cli import main\n"
        "    status = main(sys.argv[1:])\n"
        "    assert status == 0, status\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'expsums'),"
        " file=sys.stderr)\n"
        "print('stdlib:', *sorted((set(sys.modules) - before) & {'dataclasses', 'fractions',"
        " 'inspect', 'json'}), file=sys.stderr)\n"
    )
    BASE = {"expsums", "expsums.cli", "expsums.errors"}
    # The double-precision commands load no exact layer: the integer helpers
    # they share with it live in arith.
    FLOAT = BASE | {"expsums.arith", "expsums.floating"}
    # A passing exact sweep is integer code: no exact layer, no Fraction.
    SWEEPS = FLOAT | {"expsums.exp_sums"}
    CLOSED_FORMS = BASE | {"expsums.arith", "expsums.exact", "expsums.power_sums"}
    DIRICHLET = BASE | {"expsums.arith", "expsums.dirichlet"}

    @pytest.mark.parametrize("argv, expected", [
        ([], {"expsums"}),
        (["compositions", "--n", "3"], BASE | {"expsums.compositions"}),
        (["verify", "prop1", "--pmax", "2", "--kmax", "3"], SWEEPS),
        (["verify", "prop1", "--pmax", "2", "--kmax", "3", "--float"], FLOAT),
        (["verify", "eq3", "--pmax", "2", "--kmax", "3"], SWEEPS),
        (["verify", "coeffs", "--pmax", "3"], SWEEPS),
        (["powersum", "--p", "3", "--k", "4"], CLOSED_FORMS),
        (["bernoulli", "--n", "4", "--method", "oracle"], BASE | {"expsums.arith"}),
        (["bernoulli", "--table", "3"], CLOSED_FORMS | {"expsums.bernoulli"}),
        (["bernoulli", "--n", "2", "--method", "retrieve"], CLOSED_FORMS | {"expsums.bernoulli"}),
        (["powersum", "--p", "3", "--method", "poly"], CLOSED_FORMS),
        (["characters", "--k", "5"], DIRICHLET),
        (["verify", "alkan", "--k", "5", "--r", "2"], DIRICHLET),
    ], ids=["import", "compositions", "prop1", "prop1-float", "eq3", "coeffs", "powersum",
            "bernoulli", "bernoulli-table", "bernoulli-retrieve", "powersum-poly", "characters",
            "alkan"])
    def test_module_footprint(self, argv, expected):
        package, stdlib = self.footprint(argv)
        assert package == expected
        # No record needs dataclasses (and its inspect), no run without
        # --json needs json, and enumeration, the character table and the
        # passing sweeps build no Fraction; the L-series weights do.
        assert not stdlib & {"dataclasses", "inspect", "json"}
        if argv[:1] in (["compositions"], ["characters"]) or argv[1:2] in (
                ["prop1"], ["eq3"], ["coeffs"]):
            assert "fractions" not in stdlib
        if argv[1:2] == ["alkan"]:
            assert "fractions" in stdlib

    def footprint(self, argv: list[str]) -> tuple[set[str], set[str]]:
        proc = subprocess.run([sys.executable, "-c", self.FOOTPRINT, *argv],
                              capture_output=True, env=cli_env())
        assert proc.returncode == 0, proc.stderr
        package, stdlib = proc.stderr.decode().splitlines()
        return set(package.split()), set(stdlib.split()[1:])

    def test_compositions_json_loads_neither_json_nor_fractions(self):
        package, stdlib = self.footprint(["compositions", "--n", "3", "--length", "2", "--json"])
        assert package == self.BASE | {"expsums.compositions"}
        assert not stdlib & {"dataclasses", "fractions", "inspect", "json"}

    def test_json_output_loads_json(self):
        # The watch list is live: a run that writes JSON shows json in it.
        package, stdlib = self.footprint(["verify", "coeffs", "--pmax", "3", "--json"])
        assert package == self.SWEEPS
        assert "json" in stdlib and not stdlib & {"dataclasses", "fractions", "inspect"}

    # A failing exact sweep, with helpers' "flip-r1-sign" binomial patched
    # over exp_sums.binomial, in a fresh interpreter.
    FAILING = (
        "import math, sys\n"
        "from expsums import exp_sums\n"
        "from expsums.cli import main\n"
        "exp_sums.binomial = lambda n, r: -math.comb(n, r) if r == 1 else math.comb(n, r)\n"
        "status = main(sys.argv[1:])\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'expsums'),"
        " file=sys.stderr)\n"
        "sys.exit(status)\n"
    )

    # The stdout digests are those tests/test_cli_contract.py pins for the
    # same perturbation and argv.
    @pytest.mark.parametrize("argv, digest", [
        ("verify prop1 --exact --pmax 6 --kmax 14",
         "2bcd28fbb4e367266cf19057182d3ed673b84c06cd62a98733a9ea9f56951568"),
        ("verify eq3 --pmax 6 --kmax 14",
         "089d270b7faa6d4f6218419d7a2e34556606cb5606dbdff513a0a8cb608d44b8"),
    ], ids=["prop1", "eq3"])
    def test_failing_sweep_loads_the_exact_layer_cold(self, argv, digest):
        # The exact layer is imported inside exp_sums only to wrap a FAIL
        # residue for printing, and the report is the contract's, byte for byte.
        proc = subprocess.run([sys.executable, "-c", self.FAILING, *argv.split()],
                              capture_output=True, env=cli_env())
        assert proc.returncode == 1, proc.stderr
        assert hashlib.sha256(proc.stdout).hexdigest() == digest
        assert set(proc.stderr.decode().split()) == self.SWEEPS | {"expsums.exact"}


class TestPrintSweep:
    def report(self, capsys, failures, cases, as_json):
        status = _print_sweep(exp_sums.SweepResult("t", cases, tuple(failures)), as_json)
        return capsys.readouterr().out, status

    def test_empty(self, capsys):
        assert self.report(capsys, [], 0, False) == ("PASS (0 cases)\n", 0)
        assert self.report(capsys, [], 0, True) == ("[]\n", 0)

    def test_failing_record_forces_exit_one(self, capsys):
        record = {"case": "p=2 k=3 m=1", "status": "FAIL", "detail": "residual"}
        out, status = self.report(capsys, [record], 10, False)
        assert status == 1
        assert "FAIL (1 of 10 cases failed)" in out
        assert "p=2 k=3 m=1" in out
        out, status = self.report(capsys, [record], 10, True)
        assert status == 1
        assert json.loads(out) == [record]


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        status, _, err = run(capsys, "powersum", "--p", "3", "--bogus")
        assert status == 2
        assert "usage" in err

    def test_missing_subcommand(self, capsys):
        status, _, _ = run(capsys)
        assert status == 2

    def test_help_exits_zero(self, capsys):
        status, _, _ = run(capsys, "--help")
        assert status == 0

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize("args, message", [
        (["--n", "0"], "compositions are defined for n >= 1, got 0"),
        (["--n", "25"], "--n=25 exceeds the supported cap 24; lower --n"),
        (["--n", "5", "--length", "0"], "length m must satisfy 1 <= m <= n, got m=0, n=5"),
        (["--n", "5", "--length", "6"], "length m must satisfy 1 <= m <= n, got m=6, n=5"),
    ])
    def test_compositions_validate_before_any_output(self, capsys, args, message, json_flag):
        assert run(capsys, "compositions", *args, *json_flag) == (2, "", f"error: {message}\n")

    # A range with no case would otherwise print PASS (0 cases) and exit 0.
    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize("args, message", [
        (["prop1", "--pmax", "0", "--kmax", "5"], "exponent p must be >= 1, got 0"),
        (["prop1", "--pmax", "3", "--kmax", "1", "--float"], "modulus k must be >= 2, got 1"),
        (["eq3", "--pmax", "2", "--kmax", "-1"], "modulus k must be >= 2, got -1"),
        (["coeffs", "--pmax", "-3"], "exponent p must be >= 1, got -3"),
    ])
    def test_empty_verify_sweep_is_a_usage_error(self, capsys, args, message, json_flag):
        assert run(capsys, "verify", *args, *json_flag) == (2, "", f"error: {message}\n")


class TestClosedStdout:
    @pytest.mark.parametrize("command", [
        ["compositions", "--n", "18"],
        ["compositions", "--n", "18", "--json"],
        ["characters", "--k", "600"],
    ], ids=["compositions", "compositions-json", "characters"])
    def test_closed_stdout_exits_1_without_traceback(self, command):
        # The reader takes the first bytes and closes the pipe, as ``| head -c
        # 16`` does (the JSON output is a single line); the output is far
        # larger than a pipe buffer, so a write must fail.
        proc = subprocess.Popen([sys.executable, "-m", "expsums", *command],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=cli_env())
        first = proc.stdout.read(16)
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert len(first) == 16
        assert (proc.returncode, err) == (1, b"")


class TestDeterminism:
    @pytest.mark.parametrize("case", CLI_CASES, ids=lambda c: " ".join(c))
    def test_repeat_invocations_match(self, capsys, case):
        first = run(capsys, *case)
        second = run(capsys, *case)
        assert first == second
        assert first[0] == 0
