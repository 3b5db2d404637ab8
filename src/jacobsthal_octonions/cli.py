"""Command-line interface.

Subcommands: ``seq`` (scalar sequence tables), ``oct`` (one octonion of a
sequence, optionally cross-checked against its closed form), ``mul-table``
(the signed basis multiplication table) and ``verify`` (identity range
reports).  Exit codes: 0 all checks pass, 1 at least one exact discrepancy,
2 usage error (an index outside its domain included), 3 any other error
(one ``j3o: error:`` line on stderr, no traceback), so a crash never reads
as a failed identity.  Data goes to
stdout (or ``--out``), diagnostics to stderr.  All numbers are emitted as
decimal strings: coefficients outgrow 64-bit integers quickly, and strings
round-trip losslessly through JSON and CSV.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import islice
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import DomainError, UnknownVariantError
from .octonion import MULTIPLICATION_TABLE, _decimal_str
from .octonion_sequences import OctonionSequenceKind, oct_seq, oct_seq_closed
from .sequences import SequenceKind, _check_index, seq_terms

if TYPE_CHECKING:
    from .identities import IdentityId, RangeReport, Variant

EXIT_OK = 0
EXIT_DISCREPANCY = 1
EXIT_USAGE = 2
EXIT_ERROR = 3


class UsageError(Exception):
    """Bad arguments detected after parsing; maps to exit code 2."""


def _compact(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_seq(args: argparse.Namespace) -> int:
    if args.n_from < 0 or args.n_to < args.n_from:
        raise UsageError(f"need 0 <= from <= to, got [{args.n_from}, {args.n_to}]")
    _check_index(args.n_to)
    kind = SequenceKind(args.kind)
    terms = islice(seq_terms(kind, args.n_from), args.n_to - args.n_from + 1)
    rows = [(n, _decimal_str(x)) for n, x in enumerate(terms, args.n_from)]
    if args.format == "json":
        text = json.dumps([{"n": n, "value": v} for n, v in rows], indent=2) + "\n"
    elif args.format == "csv":
        text = "".join(f"{n},{v}\n" for n, v in rows)
    else:
        text = "".join(f"{n}\t{v}\n" for n, v in rows)
    _emit(text, args.out)
    return EXIT_OK


def _cmd_oct(args: argparse.Namespace) -> int:
    if args.n < 0:
        raise UsageError(f"octonion index must be >= 0, got {args.n}")
    kind = OctonionSequenceKind(args.kind)
    value = oct_seq(kind, args.n)
    agree: Optional[bool] = None
    if args.closed:
        closed = oct_seq_closed(kind, args.n)
        agree = closed == value
        value = closed
    coefficients = value.to_json()
    if args.format == "json":
        payload = {"kind": kind.value, "n": args.n, "coefficients": coefficients}
        if agree is not None:
            payload["closed_equals_recurrence"] = agree
        text = json.dumps(payload, indent=2) + "\n"
    elif args.format == "csv":
        row = [str(args.n), *coefficients]
        if agree is not None:
            row.append(str(agree).lower())
        text = ",".join(row) + "\n"
    else:
        text = _compact(coefficients) + "\n"
        if agree is not None:
            text += f"closed=recurrence: {str(agree).lower()}\n"
    _emit(text, args.out)
    return EXIT_OK if agree in (None, True) else EXIT_DISCREPANCY


def _table_entry(sign: int, index: int) -> str:
    if index == 0:
        return "1" if sign > 0 else "-1"
    return f"e{index}" if sign > 0 else f"-e{index}"


def _cmd_mul_table(args: argparse.Namespace) -> int:
    if args.format == "json":
        table = [[{"sign": entry.sign, "e": entry.index} for entry in row]
                 for row in MULTIPLICATION_TABLE]
        text = json.dumps(table, indent=2) + "\n"
    elif args.format == "csv":
        lines = []
        for i, row in enumerate(MULTIPLICATION_TABLE):
            lines.append(",".join([f"e{i}"] + [_table_entry(*entry) for entry in row]))
        text = "\n".join(lines) + "\n"
    else:
        header = ["x"] + [f"e{j}" for j in range(8)]
        lines = ["  ".join(f"{cell:>3}" for cell in header)]
        for i, row in enumerate(MULTIPLICATION_TABLE):
            cells = [f"e{i}"] + [_table_entry(*entry) for entry in row]
            lines.append("  ".join(f"{cell:>3}" for cell in cells))
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return EXIT_OK


def _verify_targets(args: argparse.Namespace) -> list[tuple[IdentityId, Sequence[Variant]]]:
    # Only verify loads the identity table: seq, oct and mul-table never read it.
    from .identities import REGISTRY, IdentityId, Variant, _suite_targets

    if args.n_from < 0 or args.n_to < args.n_from:
        raise UsageError(f"need 0 <= from <= to, got [{args.n_from}, {args.n_to}]")
    if args.all:
        if args.variant == "corrected":
            raise UsageError("--variant corrected needs a single --identity; "
                             "use --variant both with --all")
        return _suite_targets(set(Variant) if args.variant == "both" else {Variant.AS_PRINTED})
    try:
        identity = IdentityId[args.identity]
    except KeyError:
        raise UsageError(f"unknown identity {args.identity!r}; known ids: "
                         + ", ".join(i.name for i in IdentityId)) from None
    if args.variant == "both":
        return [(identity, REGISTRY[identity].variants)]
    return [(identity, (Variant(args.variant),))]


def _counts(identity: IdentityId, variants: Sequence[Variant],
            n_from: int, n_to: int) -> list[tuple]:
    """The csv row of each variant's report, from counts alone: no report
    is built and no delta computed, so a range holds no witness."""
    from .identities import _evaluations

    checked = 0
    failed = [0] * len(variants)
    for _, _, failing in _evaluations(identity, variants, n_from, n_to):
        checked += 1
        for i, _ in failing:
            failed[i] += 1
    return [(identity.name, variant.value, n_from, n_to, checked,
             n_to - n_from + 1 - checked, count) for variant, count in zip(variants, failed)]


def _format_reports(reports: list[RangeReport], fmt: str) -> str:
    from .identities import value_to_json

    if fmt == "json":
        return json.dumps([r.to_json() for r in reports], indent=2) + "\n"
    lines = []
    for r in reports:
        status = "ok" if r.passed else "FAIL"
        lines.append(
            f"{r.identity.name} {r.variant.value} [{r.n_from},{r.n_to}]: "
            f"checked={r.total_checked} skipped={len(r.skipped)} "
            f"failures={len(r.failures)} {status}"
        )
        for failure in r.failures:
            lines.append(
                f"  n={failure.n} lhs={_compact(value_to_json(failure.lhs))} "
                f"rhs={_compact(value_to_json(failure.rhs))} "
                f"delta={_compact(value_to_json(failure.delta))}"
            )
    return "\n".join(lines) + "\n"


def _cmd_verify(args: argparse.Namespace) -> int:
    from .identities import verify_ranges

    targets = _verify_targets(args)
    try:
        if args.format == "csv":
            rows = [row for identity, variants in targets
                    for row in _counts(identity, variants, args.n_from, args.n_to)]
            text = "".join(",".join(map(str, row)) + "\n" for row in rows)
        else:
            reports = [report for identity, variants in targets
                       for report in verify_ranges(identity, variants, args.n_from, args.n_to)]
            text = _format_reports(reports, args.format)
            rows = [(r.identity.name, r.variant.value, r.n_from, r.n_to, r.total_checked,
                     len(r.skipped), len(r.failures)) for r in reports]
    except UnknownVariantError as exc:
        raise UsageError(str(exc)) from None
    _emit(text, args.out)
    for name, variant, n_from, n_to, checked, _, _ in rows:
        if not checked:
            print(f"j3o: warning: {name} {variant} [{n_from},{n_to}]: nothing checked, "
                  f"no index is in the identity's domain", file=sys.stderr)
    return EXIT_DISCREPANCY if any(row[-1] for row in rows) else EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "csv", "plain"),
                        default="plain", help="output format (default: plain)")
    parser.add_argument("--out", metavar="PATH",
                        help="write output to PATH instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="j3o",
        description="Exact third-order Jacobsthal octonion sequences and "
                    "identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_seq = sub.add_parser("seq", help="print a range of sequence values")
    p_seq.add_argument("--kind", required=True,
                       choices=[k.value for k in SequenceKind])
    p_seq.add_argument("--from", dest="n_from", type=int, default=0,
                       metavar="N", help="first index (default 0)")
    p_seq.add_argument("--to", dest="n_to", type=int, required=True,
                       metavar="N", help="last index, inclusive")
    _add_common(p_seq)
    p_seq.set_defaults(func=_cmd_seq)

    p_oct = sub.add_parser("oct", help="print one octonion of a sequence")
    p_oct.add_argument("--kind", required=True,
                       choices=[k.value for k in OctonionSequenceKind])
    p_oct.add_argument("--n", type=int, required=True, help="sequence index")
    p_oct.add_argument("--closed", action="store_true",
                       help="evaluate via the closed form and report "
                            "agreement with the recurrence path")
    _add_common(p_oct)
    p_oct.set_defaults(func=_cmd_oct)

    p_tab = sub.add_parser("mul-table", help="print the 8x8 signed basis table")
    _add_common(p_tab)
    p_tab.set_defaults(func=_cmd_mul_table)

    p_ver = sub.add_parser("verify", help="verify identities over an index range")
    target = p_ver.add_mutually_exclusive_group(required=True)
    target.add_argument("--identity", metavar="ID",
                        help="one identity id, e.g. E4 or T5_QUAD")
    target.add_argument("--all", action="store_true",
                        help="verify every registered identity")
    # The Variant values, spelled out so that parsing loads no identity table.
    p_ver.add_argument("--variant", choices=["printed", "corrected", "both"],
                       default="printed",
                       help="which form to check (default: printed)")
    p_ver.add_argument("--from", dest="n_from", type=int, default=0,
                       metavar="N", help="first index (default 0)")
    p_ver.add_argument("--to", dest="n_to", type=int, required=True,
                       metavar="N", help="last index, inclusive")
    _add_common(p_ver)
    p_ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, DomainError) as exc:
        print(f"j3o: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"j3o: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
