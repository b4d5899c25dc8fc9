"""Single batch-oriented command line entry point.

Subcommands: powersum, bernoulli, compositions, characters, verify
(prop1 | eq3 | coeffs | alkan).  Every run is deterministic given its flags;
exit status is 0 on success or PASS, 1 when a verification records a FAIL
or an internal self-check fires (one "error:" line on stderr), 2 on usage
errors.  Exact values print as rationals ("a/b"); the character
and L-series subcommands print 12 significant digits.  ``compositions`` and
``characters`` write their rows as they enumerate them.  When the reader
closes stdout early (``| head``), the run stops with exit status 1 and no
traceback.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import TYPE_CHECKING

# Each handler imports the package modules its subcommand uses, and ``json``
# is imported only where JSON is written, so that a run loads (and, without
# cached bytecode, compiles) only what it runs.
from .errors import ConsistencyError, SizeLimitError

if TYPE_CHECKING:
    from .floating import SweepResult


def _cap(value: int, cap: int, flag: str):
    if value > cap:
        raise SizeLimitError(f"{flag}={value} exceeds the supported cap {cap}; lower {flag}")


def _tolerance(text: str) -> float:
    """argparse type for --tol: a positive, finite float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number, got {text!r}")
    return value


def _fmt_float(x: float) -> str:
    return f"{x:.12g}"


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}i"


def _verdict(n_fail: int, total: int, noun: str, note: str = "") -> tuple[str, int]:
    """The tally line of a verify run and its exit status, 1 on any FAIL."""
    if n_fail:
        return f"FAIL ({n_fail} of {total} {noun} failed{note})", 1
    return f"PASS ({total} {noun}{note})", 0


def _print_json(obj) -> None:
    import json

    print(json.dumps(obj, sort_keys=True))


def _cmd_powersum(args) -> int:
    from .arith import format_rational
    from .power_sums import h_faulhaber, h_naive, h_polynomial, h_recurrence

    _cap(args.p, 64, "--p")
    method = args.method
    if args.k is not None:
        if args.k < 0:
            raise ValueError("--k must be >= 0")
        _cap(args.k, 1_000_000, "--k")
    elif method != "poly":
        raise ValueError(f"--method {method} requires --k")
    if method in ("poly", "faulhaber") and args.p < 1:
        raise ValueError(f"--method {method} requires --p >= 1")
    if method == "poly":
        poly = h_polynomial(args.p)
        if args.k is None:
            if args.json:
                _print_json({"method": method, "p": args.p,
                             "polynomial": poly.to_json_coeffs()})
            else:
                print(str(poly))
            return 0
        value = format_rational(poly.evaluate(args.k))
    elif method == "naive":
        value = str(h_naive(args.p, args.k))
    elif method == "recurrence":
        value = str(h_recurrence(args.p, args.k))
    else:
        value = format_rational(h_faulhaber(args.p, args.k))
    if args.json:
        _print_json({"k": args.k, "method": method, "p": args.p, "value": value})
    else:
        print(value)
    return 0


def _cmd_bernoulli(args) -> int:
    from .arith import format_rational

    if args.table is not None:
        from .bernoulli import bernoulli_table

        if args.method is not None:
            raise ValueError("--method applies to --n, not to --table")
        _cap(args.table, 60, "--table")
        table = bernoulli_table(args.table)
        if args.json:
            _print_json({"nmax": args.table,
                         "table": [{"n": n, "value": format_rational(table[n])}
                                   for n in range(args.table + 1)]})
        else:
            for n in range(args.table + 1):
                print(f"B_{n} = {format_rational(table[n])}")
        return 0
    if args.n is None:
        raise ValueError("provide --n with --method, or --table NMAX")
    if args.method == "retrieve":
        from .bernoulli import retrieve_bernoulli

        _cap(args.n, 60, "--n")
        value = retrieve_bernoulli(args.n)
    else:
        from .arith import bernoulli_oracle

        _cap(args.n, 500, "--n")
        value = bernoulli_oracle(args.n)
    if args.json:
        _print_json({"method": args.method or "oracle", "n": args.n,
                     "value": format_rational(value)})
    else:
        print(format_rational(value))
    return 0


def _cmd_compositions(args) -> int:
    from .compositions import COMPOSITION_LIMIT, _blocks

    # Rows are written one group of blocks at a time: a block is the rows
    # that share a prefix, joined in one call, and its rows' continuations
    # are built once per run, so memory is bounded by that cache (at most
    # 2^CACHE_DEPTH rows of each part count), not by n.  A row is byte-equal
    # to str() of its int list and to its json.dumps; sort_keys puts
    # "compositions" first, so the JSON object is written around the stream,
    # and its count is the closed form 2^(n-1), or C(n-1, m-1) with m parts.
    # The other fields are integers or null, written without ``json``.
    _cap(args.n, COMPOSITION_LIMIT, "--n")
    between, end = (", ", "]") if args.json else ("", "]\n")
    groups = _blocks(args.n, args.length, "[", str, ", ", end)  # raises before any output
    out = sys.stdout
    if args.json:
        out.write('{"compositions": [')
    lead = ""
    for group in groups:
        out.write(lead + between.join([prefix + (between + prefix).join(rows)
                                       for prefix, rows in group]))
        lead = between
    if args.json:
        count = (2 ** (args.n - 1) if args.length is None
                 else math.comb(args.n - 1, args.length - 1))
        length = "null" if args.length is None else args.length
        out.write(f'], "count": {count}, "length": {length}, "n": {args.n}}}\n')
    return 0


def _cmd_characters(args) -> int:
    from .dirichlet import _characters, _phase_units

    _cap(args.k, 1000, "--k")
    # Every value is 0j or an L-th root of unity, read off its phase, so
    # each root is formatted once and a row's strings are placed by phase.
    # Characters are written as the walk yields them, so no more than one
    # row is alive.
    units, roots = _phase_units(args.k)
    texts = list(map(_fmt_complex, roots))
    blank = [_fmt_complex(0j)] * args.k

    def row(phase: list[int]) -> list[str]:
        strings = blank.copy()
        for u, t in zip(units, phase):
            strings[u] = texts[t]
        return strings

    if args.json:
        import json

        # One character at a time, joined as json.dumps joins a list, so the
        # bytes equal one json.dumps of the whole list without building it.
        out = sys.stdout
        out.write("[")
        for c, phase in _characters(args.k):
            out.write((", " if c.index else "") + json.dumps({
                "conductor": c.conductor,
                "index": c.index,
                "modulus": c.modulus,
                "parity": c.parity,
                "primitive": c.primitive,
                "principal": c.principal,
                "values": row(phase),
            }, sort_keys=True))
        out.write("]\n")
    else:
        print(f"{len(units)} characters mod {args.k}")
        for c, phase in _characters(args.k):
            flags = [c.parity, "principal" if c.principal else "non-principal",
                     f"conductor {c.conductor}",
                     "primitive" if c.primitive else "imprimitive"]
            print(f"chi_{c.index}: " + ", ".join(flags))
            print("  values: " + ", ".join(row(phase)))
    return 0


def _print_sweep(sweep: SweepResult, as_json: bool) -> int:
    """Print a sweep's report; returns the exit status, 1 on any failure.

    Text is one tally line ("PASS (N cases)") plus one line per failure;
    JSON is the failure record array itself (stable keys case/status/detail).
    """
    tally, status = _verdict(len(sweep.failures), sweep.cases, "cases")
    if as_json:
        _print_json(sweep.failures)
        return status
    print(tally)
    for r in sweep.failures:
        print(f"  FAIL {r.get('case')}: {r.get('detail')}")
    return status


def _cmd_verify_prop1(args) -> int:
    if args.float:
        from .floating import run_prop1_float

        _cap(args.pmax, 12, "--pmax")
        _cap(args.kmax, 512, "--kmax")
        sweep = run_prop1_float(args.pmax, args.kmax, 1e-8 if args.tol is None else args.tol)
    else:
        from .exp_sums import run_prop1_exact

        if args.tol is not None:  # an exact residual is zero or not: no tolerance
            raise ValueError("--tol applies to --float, not to the exact sweep")
        _cap(args.pmax, 16, "--pmax")
        _cap(args.kmax, 64, "--kmax")
        sweep = run_prop1_exact(args.pmax, args.kmax)
    return _print_sweep(sweep, args.json)


def _cmd_verify_eq3(args) -> int:
    from .exp_sums import run_eq3

    _cap(args.pmax, 12, "--pmax")
    _cap(args.kmax, 24, "--kmax")
    sweep = run_eq3(args.pmax, args.kmax)
    return _print_sweep(sweep, args.json)


def _cmd_verify_coeffs(args) -> int:
    from .exp_sums import run_coefficient_check

    _cap(args.pmax, 16, "--pmax")
    sweep = run_coefficient_check(args.pmax)
    return _print_sweep(sweep, args.json)


def _cmd_verify_alkan(args) -> int:
    from .dirichlet import alkan_sweep

    _cap(args.k, 200, "--k")
    reports = alkan_sweep(args.k, args.r, args.tol,
                          include_imprimitive=args.include_imprimitive)
    n_fail = sum(1 for rep in reports if rep.status == "FAIL")
    n_skip = sum(1 for rep in reports if rep.status == "SKIPPED")
    if n_skip == len(reports):  # a run that checks nothing must not PASS
        raise ValueError(f"--k {args.k} --r {args.r} checks no character ({n_skip} skipped)")
    tally, status = _verdict(n_fail, len(reports) - n_skip, "characters",
                             f", {n_skip} skipped" if n_skip else "")
    if args.json:
        _print_json([
            {
                "chi_index": rep.chi_index,
                "k": rep.modulus,
                "r": rep.r,
                "ratio": None if rep.ratio is None else _fmt_float(rep.ratio),
                "sign_observed": rep.sign_observed,
                "status": rep.status,
            }
            for rep in reports
        ])
        return status
    for rep in reports:
        if rep.ratio is None:
            print(f"chi_{rep.chi_index}: {rep.status} ({rep.reason})")
            continue
        line = (f"chi_{rep.chi_index}: {rep.status} ratio={_fmt_float(rep.ratio)} "
                f"sign={rep.sign_observed:+d}")
        if rep.status == "FAIL" and rep.reason:
            line += f" ({rep.reason})"
        print(line)
    print(tally)
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expsums",
        description="Exact power-sum and exponential power-sum identity toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("powersum", help="evaluate 1^p + ... + k^p")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--method", choices=["naive", "recurrence", "faulhaber", "poly"],
                   default="naive")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_powersum)

    b = sub.add_parser("bernoulli", help="Bernoulli numbers (oracle or retrieval)")
    which = b.add_mutually_exclusive_group()
    which.add_argument("--n", type=int)
    which.add_argument("--table", type=int)
    b.add_argument("--method", choices=["oracle", "retrieve"])
    b.add_argument("--json", action="store_true")
    b.set_defaults(func=_cmd_bernoulli)

    c = sub.add_parser("compositions", help="enumerate ordered partitions")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--length", type=int)
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=_cmd_compositions)

    d = sub.add_parser("characters", help="list the characters mod k")
    d.add_argument("--k", type=int, required=True)
    d.add_argument("--json", action="store_true")
    d.set_defaults(func=_cmd_characters)

    v = sub.add_parser("verify", help="run an identity verification sweep")
    vsub = v.add_subparsers(dest="check", required=True)

    vp = vsub.add_parser("prop1", help="negative-to-positive frequency expansion")
    vp.add_argument("--pmax", type=int, required=True)
    vp.add_argument("--kmax", type=int, required=True)
    mode = vp.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true")
    mode.add_argument("--float", action="store_true")
    vp.add_argument("--tol", type=_tolerance)
    vp.add_argument("--json", action="store_true")
    vp.set_defaults(func=_cmd_verify_prop1)

    ve = vsub.add_parser("eq3", help="periodicity-only reflection, all frequencies")
    ve.add_argument("--pmax", type=int, required=True)
    ve.add_argument("--kmax", type=int, required=True)
    ve.add_argument("--json", action="store_true")
    ve.set_defaults(func=_cmd_verify_eq3)

    vc = vsub.add_parser("coeffs", help="signed binomial chain sums")
    vc.add_argument("--pmax", type=int, required=True)
    vc.add_argument("--json", action="store_true")
    vc.set_defaults(func=_cmd_verify_coeffs)

    va = vsub.add_parser("alkan", help="L-series vs Gauss-sum moment magnitudes")
    va.add_argument("--k", type=int, required=True)
    va.add_argument("--r", type=int, required=True)
    va.add_argument("--tol", type=_tolerance, default=1e-5)
    va.add_argument("--include-imprimitive", action="store_true")
    va.add_argument("--json", action="store_true")
    va.set_defaults(func=_cmd_verify_alkan)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse argv and dispatch; returns the process exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/synopsis
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except ValueError as exc:  # every error type but ConsistencyError subclasses it
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:  # a self-check fired: a failed verification
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_entry() -> None:
    try:
        status = main()
        sys.stdout.flush()  # a closed pipe must show up here, not at exit
    except BrokenPipeError:
        # The reader closed stdout (``| head``).  Python flushes stdout again
        # at exit, so point it at devnull first; then exit 1 as for EPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(status)
