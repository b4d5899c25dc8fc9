"""Self-tests of the benchmark: span self-times, case-count formulas, the
independent output checks (including that they can fail), and the tracer.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from array import array
from pathlib import Path

import pytest

import checks
import compare
import run
import spans
from checks import check_output, expected_cases

from expsums import cli


def cli_lines(argv: list[str]) -> tuple[int, list[str]]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(argv)
    return status, buf.getvalue().splitlines()


@pytest.fixture
def runner(tmp_path: Path):
    with run.Runner(tmp_path) as r:
        yield r


# --- self time -------------------------------------------------------------------

def test_self_times_on_nested_spans():
    # root [0, 10] has children A [1, 4] and B [5, 9], plus C [8, 12], which
    # overlaps B and runs past the root; A has a grandchild [2, 3].
    parents = array("i", [-1, 0, 1, 0, 0])
    starts = array("d", [0.0, 1.0, 2.0, 5.0, 8.0])
    ends = array("d", [10.0, 4.0, 3.0, 9.0, 12.0])
    assert spans.self_times(parents, starts, ends) == [2.0, 2.0, 1.0, 4.0, 4.0]


def test_layer_metrics_sum_self_times_and_form_ratios():
    header = {"names": ["cli.main", "exp_sums.exp_power_sum_cyclo"],
              "counters": {"exp_sums.distinct_sums": 1}}
    arrays = (array("i", [0, 1, 1]), array("i", [-1, 0, 0]),
              array("d", [0.0, 1.0, 3.0]), array("d", [5.0, 2.0, 4.5]))
    m = spans.layer_metrics([(header, arrays), (header, arrays)])
    assert m["cli.main.calls"] == 2
    assert m["cli.main.self_s"] == pytest.approx(2 * 2.5)
    assert m["exp_sums.exp_power_sum_cyclo.self_s"] == pytest.approx(2 * 2.5)
    assert m["exp_sums.distinct_sum_ratio"] == pytest.approx(2 / 4)
    assert m["dirichlet.gauss_sum.calls"] == 0


# --- case counts -------------------------------------------------------------------

SMALL_VERIFY = [
    ["verify", "prop1", "--exact", "--pmax", "3", "--kmax", "6"],
    ["verify", "prop1", "--float", "--pmax", "3", "--kmax", "2"],
    ["verify", "prop1", "--float", "--pmax", "2", "--kmax", "3"],
    ["verify", "prop1", "--float", "--pmax", "3", "--kmax", "9"],
    ["verify", "eq3", "--pmax", "3", "--kmax", "7"],
    ["verify", "coeffs", "--pmax", "6"],
    ["verify", "alkan", "--k", "12", "--r", "2"],
    ["verify", "alkan", "--k", "15", "--r", "3"],
    ["verify", "alkan", "--k", "16", "--r", "2"],
    ["verify", "alkan", "--k", "7", "--r", "1"],
]


@pytest.mark.parametrize("argv", SMALL_VERIFY, ids=" ".join)
def test_case_count_formula_matches_cli_tally(argv):
    status, lines = cli_lines(argv)
    assert status == 0
    tally = lines[-1]
    assert tally.startswith("PASS (")
    assert int(tally[6:].split()[0]) == expected_cases(argv)
    verdict = check_output(argv, status, lines)
    assert verdict.ok, verdict.detail
    assert verdict.count == expected_cases(argv)


def test_formulas_reproduce_the_baseline_counts():
    assert expected_cases(["verify", "prop1", "--exact", "--pmax", "12", "--kmax", "40"]) == 28080
    assert expected_cases(["verify", "prop1", "--float", "--pmax", "12", "--kmax", "512"]) == 18360
    assert expected_cases(["verify", "eq3", "--pmax", "12", "--kmax", "24"]) == 3588
    assert expected_cases(["verify", "coeffs", "--pmax", "16"]) == 168


def test_recorded_run_reproduces_the_baseline_counts(runner):
    for argv, count in ((["verify", "prop1", "--exact", "--pmax", "12", "--kmax", "40"], 28080),
                        (["verify", "prop1", "--float", "--pmax", "12", "--kmax", "512"], 18360)):
        result = runner.measure(argv)
        assert result.verdict.ok, result.verdict.detail
        assert result.verdict.count == count


def test_primitive_character_counts_by_enumeration():
    from expsums import enumerate_characters

    for k in range(1, 40):
        chars = enumerate_characters(k)
        for odd in (False, True):
            want = sum(1 for c in chars if c.primitive and not c.principal and c.is_odd == odd)
            assert checks.primitive_character_count(k, odd) == want, (k, odd)


# --- the checks can fail ---------------------------------------------------------------

def test_akiyama_tanigawa_matches_known_values():
    b = checks.bernoulli_numbers(12)
    assert b[:5] == (1, checks.Fraction(-1, 2), checks.Fraction(1, 6), 0, checks.Fraction(-1, 30))
    assert b[12] == checks.Fraction(-691, 2730)


@pytest.mark.parametrize("argv", [
    ["bernoulli", "--table", "12"],
    ["bernoulli", "--n", "40", "--method", "oracle"],
    ["powersum", "--p", "9", "--method", "poly"],
    ["compositions", "--n", "6"],
    ["compositions", "--n", "7", "--length", "3"],
    ["characters", "--k", "12"],
    ["verify", "alkan", "--k", "11", "--r", "1"],
], ids=" ".join)
def test_checker_accepts_real_output_and_rejects_a_perturbed_line(argv):
    status, lines = cli_lines(argv)
    assert check_output(argv, status, lines).ok
    assert not check_output(argv, 1, lines).ok
    last = lines[-1]
    perturbed = lines[:-1] + [last[:-1] + ("2" if last[-1] != "2" else "3")]
    assert not check_output(argv, status, perturbed).ok
    assert not check_output(argv, status, lines[:-1]).ok
    assert not check_output(argv, status, lines + [lines[-1]]).ok


def test_fail_ratio_counts_a_failing_command(runner):
    runner.program = [sys.executable, "-c",
                      "import sys; print('FAIL (1 of 20 cases failed)'); sys.exit(1)"]
    metrics, runs = run.end_to_end(runner, [["verify", "eq3", "--pmax", "2", "--kmax", "4"]], 0)
    assert metrics["fail_ratio"] == 1.0 and metrics["pass_ratio"] == 0.0
    assert "exit status 1" in runs[0].verdict.detail


def test_fail_ratio_counts_a_wrong_case_count(runner):
    # eq3 at pmax 2, kmax 4 must report 2 * (2 + 3 + 4) = 18 cases.
    runner.program = [sys.executable, "-c", "print('PASS (17 cases)')"]
    metrics, runs = run.end_to_end(runner, [["verify", "eq3", "--pmax", "2", "--kmax", "4"]], 0)
    assert metrics["fail_ratio"] == 1.0
    assert "PASS (18 cases)" in runs[0].verdict.detail


def test_child_rss_does_not_count_the_benchmark_process(runner):
    ballast = bytearray(200 * 2**20)
    ballast[::4096] = b"x" * len(ballast[::4096])  # touch every page
    _, _, rss_mb, status = runner.spawn([sys.executable, "-c", "pass"])
    assert status == 0 and rss_mb < 100


def test_a_child_past_the_deadline_is_killed(tmp_path):
    with run.Runner(tmp_path, deadline=time.monotonic()) as runner:
        t0 = time.monotonic()
        _, _, _, status = runner.spawn([sys.executable, "-c", "import time; time.sleep(60)"])
    assert status < 0 and time.monotonic() - t0 < 30


def test_benchmark_refuses_a_tree_without_the_package(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "exact-sweeps", "--seed", "1", "--seconds", "1"]) == 2


# --- tracer ---------------------------------------------------------------------------

def test_traced_run_sees_calls_made_through_imported_names(runner):
    p, k = 4, 6
    argv = ["verify", "prop1", "--exact", "--pmax", str(p), "--kmax", str(k)]
    path = runner.workdir / "spans.bin"
    result = runner.measure(argv, [sys.executable, str(run.BENCH / "spans.py"),
                                   str(path), "7", "--", *argv])
    assert result.verdict.ok, result.verdict.detail
    header, arrays = spans.load(str(path))
    assert header["command_id"] == 7
    m = spans.layer_metrics([(header, arrays)])
    cases = expected_cases(argv)
    # Each case builds f(p) and g(1..p): p + 1 sums; the distinct ones are
    # (p', k, m mod k, sign) with p' <= pmax, m mod k != 0 and two signs.
    calls = sum((q + 1) * 3 * (j - 1) for q in range(1, p + 1) for j in range(2, k + 1))
    assert m["exp_sums.exp_power_sum_cyclo.calls"] == calls
    assert m["exp_sums.distinct_sum_ratio"] == pytest.approx(p * k * (k - 1) / calls)
    assert m["exp_sums.prop1_residual_cyclo.calls"] == cases
    assert m["exact.CyclotomicElement.init.calls"] > cases
    assert m["cli.main.calls"] == 1
    _, _, starts, ends = arrays
    assert 0 < m["cli.main.self_s"] < ends[0] - starts[0]


def test_workload_inputs_come_from_the_seed():
    a = run.workload_commands("float-numerics", 3)
    assert a == run.workload_commands("float-numerics", 3)
    moduli = {next(c[3] for c in run.workload_commands("float-numerics", s) if c[-2:] == ["--r", "2"])
              for s in range(20)}
    assert moduli == {str(k) for k in run.ALKAN_MODULI}


def test_compare_refuses_runs_from_different_interpreters(tmp_path, capsys):
    def saved(name: str, python: str, wall: float) -> str:
        env = {"python": python, "implementation": "CPython", "platform": "Linux",
               "machine": "x86_64", "nproc": 2, "commit": None, "seed": 1}
        report = {"workload": "exact-sweeps", "trace": 0, "environment": env,
                  "metrics": {"wall_s": wall},
                  "commands": [{"argv": ["verify", "coeffs"], "sha256": [str(wall)]}]}
        path = tmp_path / name
        path.write_text(json.dumps({"report": report}) + "\n{}\n")
        return str(path)

    before = saved("before.txt", "3.11.7", 2.0)
    assert compare.main([before, saved("after.txt", "3.11.7", 1.8)]) == 0
    out = capsys.readouterr().out
    assert "-10.00%" in out and "stdout differs: verify coeffs" in out
    assert compare.main([before, saved("other.txt", "3.12.1", 1.8)]) == 2
