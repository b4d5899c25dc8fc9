"""Span tracer for the traced benchmark run.

Run as a script, it executes one CLI command in a traced interpreter::

    python3 bench/spans.py SPANS_FILE COMMAND_ID -- ARGV...

It wraps the package's public functions listed in ``TARGETS`` at every
binding their callers use (modules copy names with ``from .exact import ...``,
so patching the defining module alone would miss calls), and class methods on
the class itself.  Each call records a span (name, start, end, parent) in
memory; the spans and a few counters are written to SPANS_FILE when the
command ends.  The benchmark process reads them back with ``load`` and turns
them into per-layer metrics with ``layer_metrics``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import Counter

# (span name, module, attribute) -- span names are the per-layer metric prefixes.
TARGETS = (
    ("cli.main", "expsums.cli", "main"),
    ("exp_sums.exp_power_sum_cyclo", "expsums.exp_sums", "exp_power_sum_cyclo"),
    ("exp_sums.prop1_residual_cyclo", "expsums.exp_sums", "prop1_residual_cyclo"),
    ("exp_sums.eq3_residual_poly", "expsums.exp_sums", "eq3_residual_poly"),
    ("exp_sums.chain_coefficient_sum", "expsums.exp_sums", "chain_coefficient_sum"),
    ("exp_sums.prop1_residual_complex", "expsums.exp_sums", "prop1_residual_complex"),
    ("exact.CyclotomicElement.init", "expsums.exact", "CyclotomicElement.__init__"),
    ("exact.Polynomial.divmod", "expsums.exact", "Polynomial.__divmod__"),
    ("exact.Polynomial.mul", "expsums.exact", "Polynomial.__mul__"),
    ("exact.cyclotomic_polynomial", "expsums.exact", "cyclotomic_polynomial"),
    ("exact.polynomial_from_points", "expsums.exact", "polynomial_from_points"),
    ("power_sums.faulhaber_polynomial", "expsums.power_sums", "faulhaber_polynomial"),
    ("power_sums.odd_recurrence_polynomial", "expsums.power_sums", "odd_recurrence_polynomial"),
    ("power_sums.h_naive", "expsums.power_sums", "h_naive"),
    ("bernoulli.retrieve_bernoulli", "expsums.bernoulli", "retrieve_bernoulli"),
    ("bernoulli.bernoulli_oracle", "expsums.bernoulli", "bernoulli_oracle"),
    ("dirichlet.enumerate_characters", "expsums.dirichlet", "enumerate_characters"),
    ("dirichlet.gauss_sum", "expsums.dirichlet", "gauss_sum"),
    ("dirichlet.s_sum", "expsums.dirichlet", "s_sum"),
    ("dirichlet.l_value", "expsums.dirichlet", "l_value"),
    ("dirichlet.alkan_check", "expsums.dirichlet", "alkan_check"),
    ("compositions.enumerate_compositions", "expsums.compositions", "enumerate_compositions"),
    ("compositions.enumerate_compositions_length", "expsums.compositions",
     "enumerate_compositions_length"),
    ("compositions.enumerate_chains", "expsums.compositions", "enumerate_chains"),
)

_ARRAY_CODES = ("i", "i", "d", "d")  # name id, parent index, start, end


class Tracer:
    """Spans of one traced process, kept in flat arrays until ``dump``."""

    def __init__(self):
        self.names: list[str] = []
        self.ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.counters: Counter = Counter()
        self.distinct_sums: set = set()

    def wrap(self, name, fn, before=None, after=None):
        """Return ``fn`` recording one span per call; ``before`` sees the
        arguments and ``after`` may replace the result."""
        nid = len(self.names)
        self.names.append(name)
        ids, parents, starts, ends, stack = self.ids, self.parents, self.starts, self.ends, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            if before is not None:
                before(args)
            stack.append(i)
            starts[i] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            return result if after is None else after(result)

        return traced

    def _count_items(self, key):
        counters = self.counters

        def after(result):
            if hasattr(result, "__len__"):
                counters[key] += len(result)
                return result

            def counted():  # a streamed result is counted as it is consumed
                for item in result:
                    counters[key] += 1
                    yield item

            return counted()

        return after

    def _hooks(self, exact_module):
        counters = self.counters
        cache = getattr(exact_module, "_CYCLOTOMIC_CACHE", {})

        def sum_key(args):
            q = args[0]
            self.distinct_sums.add((q.p, q.k, q.m, q.sign))

        def cyclo_hit(args):
            if args and args[0] in cache:
                counters["exact.cyclotomic_polynomial.hits"] += 1

        def l_terms(result):
            counters["dirichlet.l_value.terms"] += result.truncation_N
            return result

        return {
            "exp_sums.exp_power_sum_cyclo": (sum_key, None),
            "exact.cyclotomic_polynomial": (cyclo_hit, None),
            "dirichlet.l_value": (None, l_terms),
            "dirichlet.enumerate_characters":
                (None, self._count_items("dirichlet.enumerate_characters.items")),
            "compositions.enumerate_compositions":
                (None, self._count_items("compositions.enumerate_compositions.items")),
            "compositions.enumerate_compositions_length":
                (None, self._count_items("compositions.enumerate_compositions_length.items")),
            "compositions.enumerate_chains":
                (None, self._count_items("compositions.enumerate_chains.items")),
        }

    def install(self) -> None:
        """Replace every binding of each target by its traced wrapper.

        A target the package no longer defines is skipped; its metrics read 0.
        """
        hooks = self._hooks(importlib.import_module("expsums.exact"))
        for span, module_name, attr in TARGETS:
            owner = importlib.import_module(module_name)
            *class_path, name = attr.split(".")
            for part in class_path:
                owner = getattr(owner, part, None)
            original = vars(owner).get(name) if owner is not None else None
            if original is None:
                continue
            wrapped = self.wrap(span, original, *hooks.get(span, (None, None)))
            # Aliases such as ``__rmul__ = __mul__`` or ``run = main`` are the
            # same object under another name, so they are replaced too.
            holders = [owner] if class_path else [
                m for key, m in list(sys.modules.items())
                if key == "expsums" or key.startswith("expsums.")]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)

    def dump(self, path: str, command_id: int) -> None:
        header = {
            "command_id": command_id,
            "names": self.names,
            "spans": len(self.ids),
            "counters": dict(self.counters, **{"exp_sums.distinct_sums": len(self.distinct_sums)}),
        }
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.ids, self.parents, self.starts, self.ends):
                arr.tofile(f)


def load(path: str) -> tuple[dict, tuple[array, array, array, array]]:
    """Read a span file written by ``Tracer.dump``."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        arrays = []
        for code in _ARRAY_CODES:
            arr = array(code)
            arr.fromfile(f, header["spans"])
            arrays.append(arr)
    return header, tuple(arrays)


def self_times(parents, starts, ends) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans.

    Children are clipped to their parent and overlapping children are
    counted once (union of intervals).
    """
    own = [e - s for s, e in zip(starts, ends)]
    kids = sorted((p, starts[i], ends[i]) for i, p in enumerate(parents) if p >= 0)
    current, reach = -1, 0.0
    for p, s, e in kids:
        if p != current:
            current, reach = p, starts[p]
        s, e = max(s, reach), min(e, ends[p])
        if e > s:
            own[p] -= e - s
            reach = e
    return own


def layer_metrics(traces) -> dict[str, float]:
    """Per-layer metrics summed over the span files of one pass.

    Every target gets ``.calls`` and ``.self_s`` (zero when never called);
    counters pass through, and the two ratios are formed from their bases.
    """
    calls: Counter = Counter()
    self_s: Counter = Counter()
    counters: Counter = Counter()
    for header, (ids, parents, starts, ends) in traces:
        names = header["names"]
        for nid, t in zip(ids, self_times(parents, starts, ends)):
            calls[names[nid]] += 1
            self_s[names[nid]] += t
        counters.update(header["counters"])
    out: dict[str, float] = {}
    for span, _, _ in TARGETS:
        out[f"{span}.calls"] = calls[span]
        out[f"{span}.self_s"] = self_s[span]
    out.update(counters)
    for key in ("dirichlet.enumerate_characters.items", "dirichlet.l_value.terms",
                "compositions.enumerate_compositions.items",
                "compositions.enumerate_compositions_length.items",
                "compositions.enumerate_chains.items"):
        out.setdefault(key, 0)
    sums = calls["exp_sums.exp_power_sum_cyclo"]
    out["exp_sums.distinct_sum_ratio"] = counters["exp_sums.distinct_sums"] / sums if sums else 0.0
    cyclo = calls["exact.cyclotomic_polynomial"]
    out["exact.cyclotomic_polynomial.hit_ratio"] = (
        counters["exact.cyclotomic_polynomial.hits"] / cyclo if cyclo else 0.0)
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: spans.py SPANS_FILE COMMAND_ID -- ARGV...", file=sys.stderr)
        return 2
    path, command_id, cli_argv = argv[0], int(argv[1]), argv[3:]
    import expsums.cli

    tracer = Tracer()
    tracer.install()
    try:
        return expsums.cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        tracer.dump(path, command_id)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
