"""Run one ``j3o`` request in this process with every layer traced.

    python3 perfbench/tracer.py TRACE_JSON j3o-arguments...

The public functions and operators of the five package modules (sequences,
octonion_sequences, octonion, identities, cli) are replaced by wrappers that
time each call.  Because the package binds many of these names with
``from ... import``, every module namespace that holds a wrapped object is
patched, not only the defining one.  The request then runs through
``cli.main`` exactly as ``python3 -m jacobsthal_octonions`` would, with the
same stdout, stderr and exit code, a crash included.

Each call's self time is its duration minus the durations of the wrapped
calls it made, so the self times of all wrapped functions add up to the
duration of ``cli.main``.  Hot functions are aggregated (calls, self time);
the coarse ones in ``SPANNED`` also keep each span as (id, name, start, end,
parent id).  Everything stays in memory and is written to TRACE_JSON when the
request ends.

Two measurements sit on ``seq_value``: its first call in the process is the
cold term (the one that fills the term cache), timed and measured with
``tracemalloc``.  Octonion products record the largest coefficient bit
length they return.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import tracemalloc
from collections import defaultdict

from jacobsthal_octonions import cli, identities, octonion, octonion_sequences, sequences

# Wrapped entry points per module; "Class.method" patches the class.
ENTRY_POINTS = {
    sequences: ("seq_value", "seq_closed", "correction", "partial_sum",
                "partial_sum_closed", "scalar_identity_sides"),
    octonion_sequences: ("oct_seq", "oct_seq_closed", "epsilon_hat"),
    octonion: ("Octonion.__init__", "Octonion.__add__", "Octonion.__sub__",
               "Octonion.__neg__", "Octonion.__mul__", "Octonion.__rmul__",
               "Octonion.conjugate", "Octonion.norm_sq", "Octonion.is_zero",
               "Octonion.to_json", "ScaledOctonion.__init__", "ScaledOctonion.__eq__",
               "ScaledOctonion.__add__", "ScaledOctonion.__sub__",
               "ScaledOctonion.__mul__", "ScaledOctonion.__rmul__",
               "ScaledOctonion.is_zero", "ScaledOctonion.to_json"),
    identities: ("run_suite", "verify_range", "verify", "closed_product",
                 "value_to_json", "RangeReport.to_json", "VerificationReport.to_json"),
    cli: ("main",),
}

# Names whose individual spans are kept; all others are only aggregated.
SPANNED = {"cli.main", "identities.run_suite", "identities.verify_range"}


def metric_name(module, attribute: str) -> str:
    """``octonion`` + ``Octonion.__mul__`` -> ``octonion.Octonion.mul``."""
    return f"{module.__name__.rsplit('.', 1)[-1]}.{attribute.replace('__', '')}"


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.cold_term_s = 0.0
        self.cold_term_peak_bytes = 0
        self.max_coeff_bits = 0
        self._stack: list[list[float]] = []  # child seconds of each open call
        self._open_spans: list[int] = []

    def wrap(self, name: str, fn):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += elapsed - cell[0]
                if stack:
                    stack[-1][0] += elapsed

        return traced

    def wrap_spanned(self, name: str, fn):
        inner = self.wrap(name, fn)
        clock = time.perf_counter
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            label = name
            if name == "identities.verify_range":
                report = signature.bind(*args, **kwargs).arguments
                label = (f"identities.range_s.{report['identity'].name}."
                         f"{report['variant'].value}")
            span_id = len(self.spans)
            parent = self._open_spans[-1] if self._open_spans else None
            self.spans.append(None)
            self._open_spans.append(span_id)
            start = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                self._open_spans.pop()
                self.spans[span_id] = (span_id, label, start, clock(), parent)

        return spanned

    def wrap_first_call(self, fn):
        """Time the first call, the cold term, under tracemalloc."""
        first = [True]

        @functools.wraps(fn)
        def cold(*args, **kwargs):
            if not first[0]:
                return fn(*args, **kwargs)
            first[0] = False
            tracemalloc.start()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.cold_term_s = time.perf_counter() - start
                self.cold_term_peak_bytes = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()

        return cold

    def wrap_product(self, fn):
        """Record the largest coefficient bit length of octonion products."""

        @functools.wraps(fn)
        def product(*args, **kwargs):
            result = fn(*args, **kwargs)
            if isinstance(result, octonion.Octonion):
                bits = max(abs(c) for c in result.coefficients).bit_length()
                if bits > self.max_coeff_bits:
                    self.max_coeff_bits = bits
            return result

        return product

    def install(self) -> None:
        package = [m for m in sys.modules.values()
                   if getattr(m, "__name__", "").startswith("jacobsthal_octonions")]
        for module, attributes in ENTRY_POINTS.items():
            for attribute in attributes:
                owner_name, _, method = attribute.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = vars(owner)[method]
                name = metric_name(module, attribute)
                wrapped = (self.wrap_spanned if name in SPANNED else self.wrap)(name, original)
                if name == "sequences.seq_value":
                    wrapped = self.wrap_first_call(wrapped)
                elif name == "octonion.Octonion.mul":
                    wrapped = self.wrap_product(wrapped)
                if owner_name:
                    setattr(owner, method, wrapped)
                    continue
                for namespace in package:
                    for key, value in list(vars(namespace).items()):
                        if value is original:
                            setattr(namespace, key, wrapped)

    def to_json(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "spans": self.spans,
            "cold_term_s": self.cold_term_s,
            "cold_term_peak_bytes": self.cold_term_peak_bytes,
            "max_coeff_bits": self.max_coeff_bits,
        }


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.to_json(), handle)


if __name__ == "__main__":
    sys.exit(main())
