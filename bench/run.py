"""End-to-end benchmark of the expsums CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a short list of CLI commands.  The seed draws the free
inputs whose value barely changes the amount of work (the ``verify alkan``
modulus, from a band of equal cost) and the order of the commands.  The
commands run as a closed loop: one child interpreter at a time, started
through ``spawner.py`` only after the previous one has ended, in passes over
the list until the time budget is spent.  A fresh interpreter per command
matters because the package's memo tables would otherwise turn repeated
passes into cache hits that users never get.

With ``--trace 0`` it reports the end-to-end metrics named in BENCHMARK.json:
each command's fastest pass summed over the workload's commands (``wall_s``,
``cpu_s``), the median time to start an interpreter and import the package
(``setup_s``), the largest child max-RSS (``peak_rss_mb``) and the share of
commands whose output passed the independent checks in ``checks.py``
(``pass_ratio``; ``fail_ratio`` is printed in the report).
With ``--trace 1`` each command also runs under ``spans.py`` and the
per-layer metrics are reported instead, as medians over the passes.

The second-to-last stdout line is a JSON report (environment, every command
with its work count and stdout sha256, all metrics); the last line is the
result object.  ``compare.py`` compares two saved outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from checks import Verdict, check_output, parse_argv
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = ROOT / "BENCHMARK.json"

PROGRAM = [sys.executable, "-m", "expsums"]
SETUP_CODE = "import time\nimport expsums\nprint(time.monotonic())"
SETUP_PER_PASS = 2
MIN_PASSES = 3
RUN_DEADLINE_S = 170.0  # the whole run, children included, must end before 180 s

# The seed draws the ``verify alkan --r 2`` modulus from moduli near 200
# whose measured cost is equal within noise: both have 16 even primitive
# characters, so the same number of Gauss sums and L-values.  The
# ``characters`` modulus is fixed: moduli of similar size measured 8-20%
# cheaper or dearer, which would make the seed, not the program, move the
# metrics.
ALKAN_MODULI = (195, 200)


def _exact_sweeps(rng: random.Random) -> list[list[str]]:
    # CyclotomicElement construction and Polynomial.__divmod__ mod Phi_k on
    # small integers; no big-rational products, no dirichlet, no numpy.
    return [
        ["verify", "prop1", "--exact", "--pmax", "12", "--kmax", "20"],
        ["verify", "eq3", "--pmax", "12", "--kmax", "24"],
        ["verify", "coeffs", "--pmax", "15"],
    ]


def _bernoulli_retrieval(rng: random.Random) -> list[list[str]]:
    # Dense Polynomial mul/pow and interpolation on large Fractions, with no
    # cyclotomic reduction: a Polynomial change that helps exact-sweeps and
    # hurts this shows up.
    return [
        ["bernoulli", "--table", "30"],
        ["bernoulli", "--n", "500", "--method", "oracle"],
        ["powersum", "--p", "64", "--method", "poly"],
    ]


def _float_numerics(rng: random.Random) -> list[list[str]]:
    # Double-precision dirichlet code (_phase, gauss_sum, s_sum, the numpy
    # blocks of l_value) and the floating exp_sums loops; almost no exact
    # arithmetic.
    return [
        ["verify", "prop1", "--float", "--pmax", "12", "--kmax", "128"],
        ["characters", "--k", "600"],
        ["verify", "alkan", "--k", str(rng.choice(ALKAN_MODULI)), "--r", "2"],
        ["verify", "alkan", "--k", "11", "--r", "1", "--tol", "1e-5"],
    ]


def _compositions_stream(rng: random.Random) -> list[list[str]]:
    # The compositions enumeration and bulk CLI output (megabytes of lines).
    return [
        ["compositions", "--n", "18"],
        ["compositions", "--n", "18", "--length", "9"],
    ]


WORKLOADS = {
    "exact-sweeps": _exact_sweeps,
    "bernoulli-retrieval": _bernoulli_retrieval,
    "float-numerics": _float_numerics,
    "compositions-stream": _compositions_stream,
}


def workload_commands(name: str, seed: int) -> list[list[str]]:
    """The workload's commands, with seeded inputs, in seeded order."""
    rng = random.Random(seed)
    commands = WORKLOADS[name](rng)
    rng.shuffle(commands)
    return commands


@dataclass
class Run:
    """One child: its argv, resource use, output digest and check verdict."""

    argv: list[str]
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    sha256: str
    stdout_bytes: int
    verdict: Verdict


class Runner:
    """Runs commands one at a time through ``spawner.py`` and checks their output.

    Children are started by the small spawner process, not by this one,
    because on Linux a child's max-RSS also counts the peak RSS of the process
    that started it.  Child stdout goes to a file in ``workdir`` and is
    checked after the child ends, so checking never throttles the child.
    """

    def __init__(self, workdir: Path, program=PROGRAM, deadline: float | None = None):
        self.workdir = workdir
        self.program = list(program)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.deadline = deadline if deadline is not None else time.monotonic() + RUN_DEADLINE_S
        self._verdicts: dict[tuple, Verdict] = {}
        self._spawner = subprocess.Popen([sys.executable, str(BENCH / "spawner.py")],
                                         stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Stop the spawner, killing its running child if the run failed."""
        self._spawner.stdin.close()
        if exc_type is not None:
            self._spawner.terminate()
        self._spawner.wait()
        self._spawner.stdout.close()

    def spawn(self, cmd: list[str]) -> tuple[float, float, float, int]:
        """Run ``cmd`` to completion; (wall_s, cpu_s, max_rss_mb, returncode)."""
        request = {
            "cmd": cmd, "cwd": str(ROOT), "env": self.env,
            "stdout": str(self.workdir / "stdout"), "stderr": str(self.workdir / "stderr"),
            "timeout": max(self.deadline - time.monotonic(), 1.0),
        }
        self._spawner.stdin.write(json.dumps(request) + "\n")
        self._spawner.stdin.flush()
        reply = self._spawner.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner exited")
        r = json.loads(reply)
        return r["wall_s"], r["cpu_s"], r["rss_mb"], r["returncode"]

    def _lines(self):
        with open(self.workdir / "stdout", "rb") as f:
            for line in f:
                yield line.decode().rstrip("\n")

    def measure(self, argv: list[str], cmd: list[str] | None = None) -> Run:
        """Run one CLI command (``cmd`` overrides how it is started) and check it."""
        wall, cpu, rss, rc = self.spawn(cmd if cmd is not None else self.program + argv)
        digest = hashlib.sha256()
        size = 0
        with open(self.workdir / "stdout", "rb") as f:
            for chunk in iter(lambda: f.read(1 << 16), b""):
                digest.update(chunk)
                size += len(chunk)
        sha256 = digest.hexdigest()
        key = (tuple(argv), sha256, rc)
        if key not in self._verdicts:
            try:
                verdict = check_output(argv, rc, self._lines())
            except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
                verdict = Verdict(False, 0, f"unreadable output: {exc!r}")
            if not verdict.ok:
                errors = (self.workdir / "stderr").read_bytes()[-300:].decode(errors="replace")
                verdict = Verdict(False, verdict.count, f"{verdict.detail}; stderr: {errors!r}")
            self._verdicts[key] = verdict
        return Run(argv, wall, cpu, rss, rc, sha256, size, self._verdicts[key])

    def setup_time(self) -> float:
        """Seconds from starting an interpreter until ``import expsums`` returns."""
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=self.env,
                              capture_output=True, text=True,
                              timeout=max(self.deadline - t0, 1.0), check=True)
        return float(proc.stdout.split()[-1]) - t0


def run_passes(seconds: float, one_pass, min_passes: int) -> list:
    """Closed loop: repeat ``one_pass`` while the next pass, judged by the last
    one's length, still fits in ``seconds``; always at least ``min_passes``."""
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(one_pass())
        now = time.perf_counter()
        if len(passes) >= min_passes and (now - start) + (now - t0) > seconds:
            return passes


def end_to_end(runner: Runner, commands: list[list[str]], seconds: float) -> tuple[dict, list[Run]]:
    """Untraced passes over the commands, each pass preceded by set-up probes.

    ``wall_s`` and ``cpu_s`` sum, over the commands, each command's fastest
    pass.  Other tenants of a shared machine only ever add time, in phases
    that can last longer than a whole run, so the fastest of several passes
    spread over the run estimates the program's own cost far more steadily
    than their median; the medians are kept in the report for reference.
    """
    runner.setup_time()  # warm-up: compiles the package's bytecode once
    setup: list[float] = []

    def one_pass() -> list[Run]:
        setup.extend(runner.setup_time() for _ in range(SETUP_PER_PASS))
        return [runner.measure(argv) for argv in commands]

    passes = run_passes(seconds, one_pass, MIN_PASSES)
    runs = [r for p in passes for r in p]
    failed = sum(1 for r in runs if not r.verdict.ok)
    per_command = list(zip(*passes))  # one tuple of runs per command
    metrics = {
        "wall_s": sum(min(r.wall_s for r in rs) for rs in per_command),
        "cpu_s": sum(min(r.cpu_s for r in rs) for rs in per_command),
        "wall_median_s": sum(statistics.median(r.wall_s for r in rs) for rs in per_command),
        "cpu_median_s": sum(statistics.median(r.cpu_s for r in rs) for rs in per_command),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(r.rss_mb for r in runs),
        "pass_ratio": 1.0 - failed / len(runs),
        "fail_ratio": failed / len(runs),
        "passes": len(passes),
    }
    return metrics, runs


def subcommand_key(argv: list[str]) -> str:
    return "cli." + parse_argv(argv)[0].replace(" ", "_")


def per_layer(runner: Runner, commands: list[list[str]], seconds: float,
              subcommands: list[str]) -> tuple[dict, list[Run]]:
    """Traced passes: each command runs untraced, then traced under spans.py."""
    runs: list[Run] = []
    spans_file = runner.workdir / "spans.bin"

    def one_pass() -> dict:
        traces = []
        wall = {key: 0.0 for key in subcommands}
        untraced = traced = 0.0
        stdout_bytes = 0
        for cid, argv in enumerate(commands):
            plain = runner.measure(argv)
            cmd = [sys.executable, str(BENCH / "spans.py"), str(spans_file), str(cid), "--", *argv]
            run = runner.measure(argv, cmd)
            if run.sha256 != plain.sha256:
                run.verdict = Verdict(False, run.verdict.count, "traced stdout differs from untraced")
            if spans_file.exists():
                traces.append(spans.load(str(spans_file)))
                spans_file.unlink()
            else:
                run.verdict = Verdict(False, run.verdict.count, "the traced run wrote no spans")
            runs.extend((plain, run))
            wall[subcommand_key(argv) + ".wall_s"] += plain.wall_s
            untraced += plain.wall_s
            traced += run.wall_s
            stdout_bytes += plain.stdout_bytes
        metrics = spans.layer_metrics(traces)
        metrics.update(wall)
        metrics["cli.stdout_bytes"] = stdout_bytes
        metrics["trace.overhead_ratio"] = traced / untraced
        return metrics

    passes = run_passes(seconds, one_pass, 1)
    return {key: statistics.median(p[key] for p in passes) for key in passes[0]}, runs


def command_record(runs: list[Run]) -> dict:
    """One command's work count, verdicts, output digests and samples."""
    bad = [r.verdict for r in runs if not r.verdict.ok]
    return {
        "argv": runs[0].argv,
        "count": runs[0].verdict.count,
        "ok": not bad,
        "detail": bad[0].detail if bad else "",
        "sha256": sorted({r.sha256 for r in runs}),
        "stdout_bytes": runs[0].stdout_bytes,
        "wall_s": [r.wall_s for r in runs],
        "cpu_s": [r.cpu_s for r in runs],
        "rss_mb": max(r.rss_mb for r in runs),
    }


def git_commit(root: Path) -> str | None:
    """HEAD's commit id read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "numpy": numpy_version,
        "commit": git_commit(ROOT),
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "expsums" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: no expsums sources under {ROOT / 'src'} or no {SPEC.name}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    commands = workload_commands(args.workload, args.seed)

    workdir = Path(tempfile.mkdtemp(prefix=".run-", dir=BENCH))
    try:
        with Runner(workdir) as runner:
            if args.trace:
                keys = [m["name"] for m in spec["per_layer"] if m["name"].endswith(".wall_s")]
                measured, runs = per_layer(runner, commands, args.seconds, keys)
            else:
                measured, runs = end_to_end(runner, commands, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [r for r in runs if not r.verdict.ok]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    by_argv: dict[tuple, list[Run]] = {}
    for r in runs:
        by_argv.setdefault(tuple(r.argv), []).append(r)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "commands": [command_record(rs) for rs in by_argv.values()],
        "fail_ratio": len(failed) / len(runs),
        "metrics": {name: measured[name] for name in sorted(measured)},
    }
    print(json.dumps({"report": report}, sort_keys=True))
    for name, m in metrics.items():
        print(f"{args.workload:20} {name:45} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    print(f"{args.workload:20} {'fail_ratio':45} {report['fail_ratio']:14.6g} ratio", file=sys.stderr)
    for r in failed[:5]:
        print(f"FAILED {' '.join(r.argv)}: {r.verdict.detail}", file=sys.stderr)
    print(json.dumps({"correct": not failed, "attempted": len(runs), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
