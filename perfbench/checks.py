"""Requests the benchmark sends to ``j3o`` and the checks on their outputs.

Each request knows its command-line arguments, the exit code a correct run
returns, and how to verify its standard output against values the benchmark
derives on its own: the identity registry's domains and the known errata for
``verify``, exact witness arithmetic for failure reports, and the radical-free
closed forms for sequence terms.  ``judge`` turns one finished run into an
``Outcome``:

* ``ok``: right exit code and every check passed;
* ``crash``: a Python traceback on stderr, so the run produced no result;
* ``wrong``: a result that disagrees with the checks, or a wrong exit code.

A crash and a wrong result both count as a failed operation.  Only a wrong
result makes the benchmark's output incorrect.

Checking values past 4,300 decimal digits needs the caller to lift its own
int-to-str digit limit (``sys.set_int_max_str_digits(0)``), as run.py does;
the children keep the interpreter's default.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

EXIT_OK = 0
EXIT_DISCREPANCY = 1

# The 28 registered identities in report order, with the smallest index and
# the residue class mod 3 on which each is defined.
REGISTRY = (
    ("E4", 0, None), ("E5", 3, None), ("EC5", 0, None), ("E6", 0, None),
    ("E7", 0, None), ("E8", 0, None), ("E9", 3, None), ("E10", 0, None),
    ("E11", 0, None), ("E12", 3, None), ("JSUM", 0, None), ("OCT_REC", 1, None),
    ("BINET_JO", 0, None), ("BINET_JOL", 0, None), ("T1_SUM", 0, None),
    ("T1_SHIFT4", 0, None), ("T1_NORM", 0, None), ("T2_SUM", 0, None),
    ("T2_SHIFT4", 0, None), ("T2_NORM", 0, None), ("T3_A", 0, None),
    ("T3_B", 0, None), ("T3_C", 0, None), ("T3_D", 0, None),
    ("T4_PROD_JOJ", 0, 0), ("T4_PROD_JJO", 0, 0), ("T5_QUAD", 0, None),
    ("T6_QUAD", 0, None),
)
WITH_CORRECTED = ("T5_QUAD", "T6_QUAD")

# Every (identity, variant) report that ``verify --all --variant both`` prints.
REPORTS = tuple(
    (name, variant)
    for name, _, _ in REGISTRY
    for variant in (("printed", "corrected") if name in WITH_CORRECTED else ("printed",))
)


class Mismatch(Exception):
    """The output disagrees with what the benchmark expects."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def _digits(text: str) -> int:
    return len(text.lstrip("-"))


def _in_domain(n: int, n_min: int, residue) -> bool:
    return n >= n_min and (residue is None or n % 3 == residue)


def _printed_failures(name: str, n: int) -> bool:
    """Whether the printed form fails at n: T5_QUAD fails everywhere and
    T6_QUAD everywhere except n = 0; every other identity holds."""
    return name == "T5_QUAD" or (name == "T6_QUAD" and n != 0)


def j3(n: int) -> int:
    """J3(n) = (2^(n+1) - V(n)) / 7 with V(n) = 2, -3, 1 by n mod 3."""
    return (2 ** (n + 1) - (2, -3, 1)[n % 3]) // 7


def jl3(n: int) -> int:
    """JL3(n) = (2^(n+3) + 3 V(n)) / 7."""
    return (2 ** (n + 3) + 3 * (2, -3, 1)[n % 3]) // 7


@dataclass(frozen=True)
class Verdict:
    """What a passing output is worth: identity checks the program reported
    and decimal digits of exact values the benchmark verified."""

    checks: int
    digits: int


@dataclass(frozen=True)
class Suite:
    """``verify --all --variant both`` over [0, n_to], csv counts only."""

    n_to: int
    expected_exit = EXIT_DISCREPANCY

    def argv(self) -> tuple[str, ...]:
        return ("verify", "--all", "--variant", "both", "--to", str(self.n_to),
                "--format", "csv")

    def verify(self, stdout: bytes) -> Verdict:
        rows = stdout.decode().splitlines()
        _expect(len(rows) == len(REPORTS), f"{len(rows)} csv rows, want {len(REPORTS)}")
        domains = {name: (n_min, residue) for name, n_min, residue in REGISTRY}
        checks = digits = 0
        for row, (name, variant) in zip(rows, REPORTS):
            fields = row.split(",")
            indices = [n for n in range(self.n_to + 1) if _in_domain(n, *domains[name])]
            failing = 0
            if variant == "printed":
                failing = sum(_printed_failures(name, n) for n in indices)
            want = [name, variant, "0", str(self.n_to), str(len(indices)),
                    str(self.n_to + 1 - len(indices)), str(failing)]
            _expect(fields == want, f"row {row!r}, want {','.join(want)!r}")
            checks += len(indices)
            digits += sum(_digits(f) for f in fields[2:])
        return Verdict(checks, digits)


def _octonion(value) -> list[Fraction]:
    """Parse an octonion witness: 8 decimal strings, or {"num": [...], "den": d}."""
    if isinstance(value, dict):
        _expect(set(value) == {"num", "den"}, f"bad rational octonion keys {sorted(value)}")
        den = int(value["den"])
        _expect(den > 1, f"rational octonion with denominator {den}")
        coefficients = value["num"]
    else:
        den, coefficients = 1, value
    _expect(isinstance(coefficients, list) and len(coefficients) == 8,
            "an octonion needs 8 coefficients")
    return [Fraction(int(c), den) for c in coefficients]


def _value_digits(value) -> int:
    if isinstance(value, dict):
        return _digits(value["den"]) + sum(_digits(c) for c in value["num"])
    return sum(_digits(c) for c in value)


@dataclass(frozen=True)
class Witness:
    """``verify --identity T5_QUAD|T6_QUAD --variant both`` as json: the
    printed form fails at every index of the window with an exact witness,
    the corrected form passes."""

    identity: str
    n_from: int
    n_to: int
    expected_exit = EXIT_DISCREPANCY

    def argv(self) -> tuple[str, ...]:
        return ("verify", "--identity", self.identity, "--variant", "both",
                "--from", str(self.n_from), "--to", str(self.n_to), "--format", "json")

    def verify(self, stdout: bytes) -> Verdict:
        reports = json.loads(stdout)
        _expect([(r["id"], r["variant"]) for r in reports]
                == [(self.identity, "printed"), (self.identity, "corrected")],
                "want one printed and one corrected report")
        indices = list(range(self.n_from, self.n_to + 1))
        checks = digits = 0
        for report in reports:
            _expect((report["n_from"], report["n_to"], report["checked"], report["skipped"])
                    == (self.n_from, self.n_to, len(indices), []),
                    f"{report['variant']} report header disagrees")
            failing = [n for n in indices
                       if report["variant"] == "printed" and _printed_failures(self.identity, n)]
            failures = report["failures"]
            _expect([f["n"] for f in failures] == failing,
                    f"{report['variant']} fails at the wrong indices")
            for failure in failures:
                lhs, rhs, delta = (_octonion(failure[k]) for k in ("lhs", "rhs", "delta"))
                _expect(all(a - b == d for a, b, d in zip(lhs, rhs, delta)),
                        f"lhs - rhs != delta at n={failure['n']}")
                _expect(any(delta), f"zero delta reported as a failure at n={failure['n']}")
                digits += sum(_value_digits(failure[k]) for k in ("lhs", "rhs", "delta"))
            checks += report["checked"]
        return Verdict(checks, digits)


@dataclass(frozen=True)
class Term:
    """``seq --kind j3|jl3 --from n --to n``: one deep term, plain format."""

    kind: str
    n: int
    expected_exit = EXIT_OK

    def argv(self) -> tuple[str, ...]:
        return ("seq", "--kind", self.kind, "--from", str(self.n), "--to", str(self.n))

    def verify(self, stdout: bytes) -> Verdict:
        value = str((j3 if self.kind == "j3" else jl3)(self.n))
        _expect(stdout == f"{self.n}\t{value}\n".encode(), f"wrong {self.kind}({self.n})")
        return Verdict(0, _digits(value))


@dataclass(frozen=True)
class ClosedOctonion:
    """``oct --kind JO --n n --closed --format json``: JO(n) by closed form,
    which the program cross-checks against the recurrence (one check)."""

    n: int
    expected_exit = EXIT_OK

    def argv(self) -> tuple[str, ...]:
        return ("oct", "--kind", "JO", "--n", str(self.n), "--closed", "--format", "json")

    def verify(self, stdout: bytes) -> Verdict:
        coefficients = [str(j3(self.n + s)) for s in range(8)]
        want = {"kind": "JO", "n": self.n, "coefficients": coefficients,
                "closed_equals_recurrence": True}
        _expect(json.loads(stdout) == want, f"wrong JO({self.n})")
        return Verdict(1, sum(_digits(c) for c in coefficients))


Request = Suite | Witness | Term | ClosedOctonion


@dataclass(frozen=True)
class Outcome:
    status: str  # "ok", "crash" or "wrong"
    verdict: Verdict
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.status != "ok"


NOTHING = Verdict(0, 0)


def judge(request: Request, exit_code: int, stdout: bytes, stderr: bytes) -> Outcome:
    """Classify one finished run of ``request``."""
    if b"Traceback (most recent call last)" in stderr:
        last = stderr.decode(errors="replace").strip().splitlines()[-1]
        return Outcome("crash", NOTHING, last)
    if exit_code != request.expected_exit:
        return Outcome("wrong", NOTHING, f"exit {exit_code}, want {request.expected_exit}")
    try:
        return Outcome("ok", request.verify(stdout))
    except (Mismatch, ValueError, LookupError, TypeError, AttributeError) as exc:
        return Outcome("wrong", NOTHING, f"{type(exc).__name__}: {exc}")
