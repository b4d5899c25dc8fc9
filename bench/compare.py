"""Compare saved benchmark outputs, metric by metric.

    python3 bench/compare.py BEFORE.txt AFTER.txt

Each file holds the stdout of one or more ``run.py`` invocations of the same
workload (append the runs of one side to one file).  For every metric it
prints the median of each side, the relative change and, for end-to-end
metrics, the bound from BENCHMARK.json; then it names every command whose
stdout differs byte for byte between the two sides.  It refuses, with exit
status 2, to compare runs taken on different machines or interpreters, of
different workloads, or mixing traced and untraced runs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# Environment fields that must agree; commit and seed may differ.
SAME = ("python", "implementation", "platform", "machine", "nproc")


def load_reports(path: str) -> list[dict]:
    reports = []
    for line in Path(path).read_text().splitlines():
        if line.startswith('{"report"'):
            reports.append(json.loads(line)["report"])
    if not reports:
        raise ValueError(f"{path}: no run.py report line")
    return reports


def identity(report: dict) -> tuple:
    env = report["environment"]
    return (report["workload"], report["trace"]) + tuple(env[key] for key in SAME)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = (load_reports(path) for path in argv)
    identities = {identity(r) for r in before + after}
    if len(identities) != 1:
        print("error: the runs differ in workload, trace mode, machine or interpreter:",
              file=sys.stderr)
        for ident in sorted(identities, key=repr):
            print(f"  {ident}", file=sys.stderr)
        return 2
    bounds = {m["name"]: m["bound"] for m in json.loads(SPEC.read_text())["end_to_end"]}
    print(f"workload {before[0]['workload']}: {len(before)} runs before, {len(after)} after")
    for name in sorted(before[0]["metrics"]):
        old = statistics.median(r["metrics"][name] for r in before)
        new = statistics.median(r["metrics"][name] for r in after)
        change = f"{(new - old) / old:+8.2%}" if old else "       -"
        bound = f"  bound {bounds[name]:.0%}" if name in bounds else ""
        print(f"{name:45} {old:14.6g} {new:14.6g} {change}{bound}")
    digests = [{tuple(c["argv"]): set(c["sha256"]) for r in side for c in r["commands"]}
               for side in (before, after)]
    for argv in digests[0].keys() & digests[1].keys():
        if digests[0][argv] != digests[1][argv]:
            print(f"stdout differs: {' '.join(argv)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
