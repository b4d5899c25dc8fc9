"""Independent output checks and case-count formulas for the CLI workloads.

Nothing here imports ``expsums``: every expected value is recomputed by a
different route (closed-form case counts, Akiyama-Tanigawa Bernoulli numbers,
literal power sums, Moebius-inverted character counts), so a defect in the
package cannot also hide in its own check.

A checker reads the command's stdout as an iterator of lines and returns a
``Verdict``; the checkers of the large outputs (characters, compositions)
consume it one line at a time.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator


@dataclass(frozen=True)
class Verdict:
    """Outcome of one output check: pass/fail, the work count, and why."""

    ok: bool
    count: int
    detail: str = ""


def parse_argv(argv: list[str]) -> tuple[str, dict[str, str | bool]]:
    """Split a CLI argv into its subcommand path and a flag -> value map."""
    words: list[str] = []
    flags: dict[str, str | bool] = {}
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok.startswith("--"):
            if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
                flags[tok] = argv[i + 1]
                i += 2
                continue
            flags[tok] = True
        else:
            words.append(tok)
        i += 1
    return " ".join(words), flags


# --- number theory, recomputed without the package ---------------------------

def phi(n: int) -> int:
    """Euler's totient by trial-division factorisation."""
    result, m, d = n, n, 2
    while d * d <= m:
        if m % d == 0:
            while m % d == 0:
                m //= d
            result -= result // d
        d += 1
    if m > 1:
        result -= result // m
    return result


def mobius(n: int) -> int:
    result, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    return -result if n > 1 else result


def primitive_character_count(k: int, odd: bool) -> int:
    """Primitive characters mod k of the given parity, principal excluded.

    Every character mod k is induced by exactly one primitive character of a
    conductor d | k, with the same parity, so the parity counts of all
    characters (phi(d)/2 each for d >= 3; every character mod 1 or 2 is even)
    Moebius-invert to the primitive ones.
    """

    def total(d: int) -> int:
        if d <= 2:
            return 0 if odd else phi(d)
        return phi(d) // 2

    count = sum(mobius(k // d) * total(d) for d in range(1, k + 1) if k % d == 0)
    if k == 1 and not odd:
        count -= 1  # the principal character mod 1 is primitive
    return count


@lru_cache(maxsize=None)
def bernoulli_numbers(nmax: int) -> tuple[Fraction, ...]:
    """B_0..B_nmax by the Akiyama-Tanigawa algorithm, with B_1 = -1/2."""
    a: list[Fraction] = []
    out: list[Fraction] = []
    for m in range(nmax + 1):
        a.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    if nmax >= 1:
        out[1] = -out[1]  # the algorithm yields the B_1 = +1/2 convention
    return tuple(out)


def _rational(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den) if den else 1)


# --- case counts ---------------------------------------------------------------

def expected_cases(argv: list[str]) -> int:
    """The tally a verify command must print, derived from its flags alone."""
    cmd, f = parse_argv(argv)
    if cmd == "verify prop1":
        p, k = int(f["--pmax"]), int(f["--kmax"])
        if f.get("--float"):
            # m in {1, k-1, k//2}: one value at k=2, two at k=3, three beyond.
            return p * (3 * k - 6) if k >= 3 else p * max(k - 1, 0)
        # 1 <= m <= 3k with k not dividing m: 3(k-1) frequencies per modulus.
        return p * 3 * k * (k - 1) // 2
    if cmd == "verify eq3":
        p, k = int(f["--pmax"]), int(f["--kmax"])
        return p * (k * (k + 1) // 2 - 1)  # every m in 0..k-1 for k = 2..kmax
    if cmd == "verify coeffs":
        p = int(f["--pmax"])
        return p * (p + 5) // 2  # a = 0..p plus one chain count per p
    if cmd == "verify alkan":
        return primitive_character_count(int(f["--k"]), odd=int(f["--r"]) % 2 == 1)
    raise ValueError(f"no case-count formula for {argv}")


# --- per-command checkers --------------------------------------------------------

def _check_tally(argv: list[str], lines: Iterator[str]) -> Verdict:
    want = expected_cases(argv)
    got = list(lines)
    if got != [f"PASS ({want} cases)"]:
        return Verdict(False, want, f"expected 'PASS ({want} cases)', got {got[:3]}")
    return Verdict(True, want)


def _check_alkan(argv: list[str], lines: Iterator[str]) -> Verdict:
    _, f = parse_argv(argv)
    k = int(f["--k"])
    checked = expected_cases(argv)
    skipped = phi(k) - checked
    rows = list(lines)
    if not rows:
        return Verdict(False, 0, "no output")
    *chars, tally = rows
    note = f", {skipped} skipped" if skipped else ""
    want = f"PASS ({checked} characters{note})"
    if tally != want:
        return Verdict(False, checked, f"expected {want!r}, got {tally!r}")
    if len(chars) != phi(k) or not all(r.startswith("chi_") for r in chars):
        return Verdict(False, checked, f"{len(chars)} character lines, expected {phi(k)}")
    passed = sum(1 for r in chars if ": PASS ratio=" in r)
    if passed != checked:
        return Verdict(False, checked, f"{passed} PASS lines, expected {checked}")
    return Verdict(True, checked)


_COMPLEX = re.compile(r"([-+]?[\d.]+(?:e[-+]\d+)?)([-+][\d.]+(?:e[-+]\d+)?)i")


def _character_row_error(k: int, units: list[int], row: str) -> str:
    """Why one printed value table is not a character mod k ('' if it is)."""
    entries = row.split(", ")
    if len(entries) != k:
        return f"{len(entries)} values, expected {k}"
    values = []
    for text in entries:
        m = _COMPLEX.fullmatch(text)
        if m is None:
            return f"unreadable value {text!r}"
        values.append(complex(float(m[1]), float(m[2])))
    unit_set = set(units)
    for n, v in enumerate(values):
        if n in unit_set:
            if abs(abs(v) - 1) > 1e-9:
                return f"|chi({n})| = {abs(v)}"
        elif entries[n] != "0+0i":
            return f"chi({n}) = {entries[n]} off the units"
    if abs(values[1 % k] - 1) > 1e-9:
        return "chi(1) != 1"
    for a in units[1:4]:
        for b in units:
            if abs(values[a * b % k] - values[a] * values[b]) > 1e-9:
                return f"chi({a}*{b}) != chi({a}) chi({b})"
    return ""


def _check_characters(argv: list[str], lines: Iterator[str]) -> Verdict:
    """Count line phi(k), then each character's header and a value table that
    is unimodular on the units, zero elsewhere, 1 at 1 and multiplicative
    (spot-checked against three units); the phi(k) tables are pairwise
    distinct."""
    _, f = parse_argv(argv)
    k = int(f["--k"])
    n = phi(k)
    units = [u for u in range(k) if math.gcd(u, k) == 1]
    head = next(lines, "")
    if head != f"{n} characters mod {k}":
        return Verdict(False, n, f"count line {head!r}, expected '{n} characters mod {k}'")
    rows = 0
    tables = set()
    for i, line in enumerate(lines):
        if i % 2 == 0:
            error = "" if line.startswith(f"chi_{i // 2}: ") else "bad header"
        elif not line.startswith("  values: "):
            error = "bad value line"
        else:
            error = _character_row_error(k, units, line[len("  values: "):])
            tables.add(hash(line))
        if error:
            return Verdict(False, n, f"line {i + 2}: {error}")
        rows += 1
    if rows != 2 * n or len(tables) != n:
        return Verdict(False, n, f"{len(tables)} distinct characters listed, expected {n}")
    return Verdict(True, n)


def _check_bernoulli(argv: list[str], lines: Iterator[str]) -> Verdict:
    _, f = parse_argv(argv)
    rows = list(lines)
    if "--table" in f:
        nmax = int(f["--table"])
        want = [f"B_{n} = {_format(b)}" for n, b in enumerate(bernoulli_numbers(nmax))]
    else:
        if f.get("--method", "oracle") != "oracle":
            raise ValueError(f"unchecked bernoulli method in {argv}")
        n = int(f["--n"])
        want = [_format(bernoulli_numbers(n)[n])]
    if rows != want:
        bad = next((i for i, (a, b) in enumerate(zip(rows, want)) if a != b), len(want))
        return Verdict(False, len(want), f"line {bad} differs from Akiyama-Tanigawa")
    return Verdict(True, len(want))


def _format(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def parse_polynomial(text: str, var: str = "k") -> dict[int, Fraction]:
    """Read the CLI's 'a/b*k^d + ... - c' rendering into degree -> coefficient."""
    text = text.strip()
    words = (text[1:] if text.startswith("-") else text).split(" ")
    signs = ["-" if text.startswith("-") else "+"] + words[1::2]
    terms: dict[int, Fraction] = {}
    for sign, body in zip(signs, words[::2]):
        if sign not in "+-" or not body:
            raise ValueError(f"malformed polynomial {text!r}")
        if "*" in body:
            mag, power = body.split("*")
        elif body.startswith(var):
            mag, power = "1", body
        else:
            mag, power = body, ""
        degree = int(power.partition("^")[2] or 1) if power else 0
        if degree in terms:
            raise ValueError(f"repeated degree {degree} in {text!r}")
        terms[degree] = _rational(mag) * (-1 if sign == "-" else 1)
    return terms


def _check_powersum(argv: list[str], lines: Iterator[str]) -> Verdict:
    _, f = parse_argv(argv)
    if f.get("--method") != "poly" or "--k" in f:
        raise ValueError(f"unchecked powersum form {argv}")
    p = int(f["--p"])
    rows = list(lines)
    if len(rows) != 1:
        return Verdict(False, 1, f"{len(rows)} lines, expected 1")
    try:
        terms = parse_polynomial(rows[0])
    except ValueError as exc:
        return Verdict(False, 1, f"unparseable polynomial: {exc}")
    if max(terms) != p + 1:
        return Verdict(False, 1, f"degree {max(terms)}, expected {p + 1}")
    # p + 2 points fix a polynomial of degree p + 1; compare with literal sums.
    total = 0
    for k in range(p + 2):
        total += k**p if k else 0
        if sum(c * k**d for d, c in terms.items()) != total:
            return Verdict(False, 1, f"h({p}, {k}) = {total} not matched")
    return Verdict(True, 1)


def _check_compositions(argv: list[str], lines: Iterator[str]) -> Verdict:
    _, f = parse_argv(argv)
    n = int(f["--n"])
    length = int(f["--length"]) if "--length" in f else None
    want = 2 ** (n - 1) if length is None else math.comb(n - 1, length - 1)
    count = 0
    prev: list[int] = []
    for line in lines:
        try:
            parts = json.loads(line)
        except ValueError:
            parts = None
        # Strictly increasing lexicographic order makes every line distinct.
        if (not isinstance(parts, list) or not parts or sum(parts) != n or min(parts) < 1
                or parts <= prev or (length is not None and len(parts) != length)):
            return Verdict(False, want, f"bad composition at line {count + 1}: {line[:60]!r}")
        prev = parts
        count += 1
    if count != want:
        return Verdict(False, want, f"{count} compositions, expected {want}")
    return Verdict(True, want)


_CHECKERS = {
    "verify prop1": _check_tally,
    "verify eq3": _check_tally,
    "verify coeffs": _check_tally,
    "verify alkan": _check_alkan,
    "characters": _check_characters,
    "bernoulli": _check_bernoulli,
    "powersum": _check_powersum,
    "compositions": _check_compositions,
}


def check_output(argv: list[str], returncode: int, lines: Iterable[str]) -> Verdict:
    """Judge one command's exit status and stdout lines (without newlines)."""
    cmd, _ = parse_argv(argv)
    verdict = _CHECKERS[cmd](argv, iter(lines))
    if returncode != 0:
        return Verdict(False, verdict.count, f"exit status {returncode}; {verdict.detail}")
    return verdict
