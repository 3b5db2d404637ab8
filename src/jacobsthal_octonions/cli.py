"""Command-line interface.

Subcommands: ``seq`` (scalar sequence tables), ``oct`` (one octonion of a
sequence, optionally cross-checked against its closed form), ``mul-table``
(the signed basis multiplication table) and ``verify`` (identity range
reports).  Exit codes: 0 all checks pass, 1 at least one exact discrepancy,
2 usage error.  Data goes to stdout (or ``--out``), diagnostics to stderr.
All numbers are emitted as decimal strings: coefficients outgrow 64-bit
integers quickly, and strings round-trip losslessly through JSON and CSV.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .errors import UnknownVariantError
from .identities import (
    REGISTRY,
    IdentityId,
    RangeReport,
    Variant,
    run_suite,
    value_to_json,
    verify_range,
)
from .octonion import MULTIPLICATION_TABLE
from .octonion_sequences import OctonionSequenceKind, oct_seq, oct_seq_closed
from .sequences import SequenceKind, seq_value

EXIT_OK = 0
EXIT_DISCREPANCY = 1
EXIT_USAGE = 2


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
    kind = SequenceKind(args.kind)
    rows = [(n, str(seq_value(kind, n))) for n in range(args.n_from, args.n_to + 1)]
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
        value = oct_seq_closed(kind, args.n)
        agree = value == oct_seq(kind, args.n)
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


def _verify_reports(args: argparse.Namespace) -> list[RangeReport]:
    if args.n_from < 0 or args.n_to < args.n_from:
        raise UsageError(f"need 0 <= from <= to, got [{args.n_from}, {args.n_to}]")
    if args.all:
        if args.variant == "corrected":
            raise UsageError("--variant corrected needs a single --identity; "
                             "use --variant both with --all")
        variants = set(Variant) if args.variant == "both" else {Variant.AS_PRINTED}
        return run_suite(variants, args.n_to, args.n_from)
    try:
        identity = IdentityId[args.identity]
    except KeyError:
        raise UsageError(f"unknown identity {args.identity!r}; known ids: "
                         + ", ".join(i.name for i in IdentityId)) from None
    if args.variant == "both":
        variants = REGISTRY[identity].variants
    else:
        variants = (Variant(args.variant),)
    try:
        return [verify_range(identity, variant, args.n_from, args.n_to)
                for variant in variants]
    except UnknownVariantError as exc:
        raise UsageError(str(exc)) from None


def _format_reports(reports: list[RangeReport], fmt: str) -> str:
    if fmt == "json":
        return json.dumps([r.to_json() for r in reports], indent=2) + "\n"
    if fmt == "csv":
        lines = [
            f"{r.identity.name},{r.variant.value},{r.n_from},{r.n_to},"
            f"{r.total_checked},{len(r.skipped)},{len(r.failures)}"
            for r in reports
        ]
        return "\n".join(lines) + "\n"
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
    reports = _verify_reports(args)
    _emit(_format_reports(reports, args.format), args.out)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_DISCREPANCY


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
    p_ver.add_argument("--variant", choices=[*(v.value for v in Variant), "both"],
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
    except UsageError as exc:
        print(f"j3o: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
