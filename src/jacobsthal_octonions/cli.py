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

A ``verify`` runs on up to one process per CPU available to this one, each
taking alternate chunks of the range (``_verified``): a part walks the
terms once for every row of the request and tallies their checks and
failures (``identities._tally``), for json and plain with each failure's
exact witness, so the costly decimal conversion is shared too.  Every
format writes the reports in their wire form (``_format_reports``).  The
output is that of one process.  It stays in one process when
the range is one chunk, the platform has no ``fork`` or
``sched_getaffinity``, or this process runs other threads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice
from typing import IO, TYPE_CHECKING, Callable, Optional, Sequence

from .errors import DomainError
from .octonion import MULTIPLICATION_TABLE, _decimal_str
from .octonion_sequences import OctonionSequenceKind, oct_seq, oct_seq_closed
from .sequences import SequenceKind, _check_index, seq_terms

if TYPE_CHECKING:
    from .identities import IdentityId, Variant, VerificationReport

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


def _verify_targets(args: argparse.Namespace) -> list[tuple[IdentityId, list[Variant]]]:
    # Only verify loads the identity table: seq, oct and mul-table never read it.
    from .identities import IdentityId, Variant, _suite_targets

    if args.n_from < 0 or args.n_to < args.n_from:
        raise UsageError(f"need 0 <= from <= to, got [{args.n_from}, {args.n_to}]")
    if args.all and args.variant == "corrected":
        raise UsageError("--variant corrected needs a single --identity; "
                         "use --variant both with --all")
    if not args.all and args.identity not in IdentityId.__members__:
        raise UsageError(f"unknown identity {args.identity!r}; known ids: "
                         + ", ".join(i.name for i in IdentityId))
    variants = set(Variant) if args.variant == "both" else {Variant(args.variant)}
    targets = [(identity, wanted) for identity, wanted in _suite_targets(variants)
               if args.all or identity.name == args.identity]
    if not targets:
        raise UsageError(f"{args.identity} has no corrected variant")
    return targets


def _parts(chunks: int) -> int:
    """How many processes verify a range of ``chunks`` chunks: one per CPU
    this process may run on, and no more than there are chunks.  Only one,
    so no fork, where the platform cannot fork or this process runs other
    threads: a fork copies their locks but not the threads that hold them."""
    if not hasattr(os, "sched_getaffinity") or not hasattr(os, "fork"):
        return 1
    threading = sys.modules.get("threading")
    if threading is not None and threading.active_count() > 1:
        return 1
    return min(len(os.sched_getaffinity(0)), chunks)


def _fork_part(part_results: Callable[[int], list[list]], part: int) -> tuple[int, IO[str]]:
    """A child process that runs ``part_results(part)``: its pid, and the
    pipe on which it sends one json line, its results or its error."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, open(read, encoding="utf-8")
    # The child leaves through os._exit whatever happens, so it never
    # returns to the caller, runs no atexit handler and flushes no stdio.
    try:
        os.close(read)
        try:
            result = {"results": part_results(part)}
        except DomainError as exc:
            result = {"domain": str(exc)}
        except Exception as exc:
            result = {"error": f"{type(exc).__name__}: {exc}"}
        with open(write, "w", encoding="utf-8") as pipe:
            pipe.write(json.dumps(result) + "\n")
    finally:
        os._exit(0)


def _received(pipe: IO[str]) -> list[list]:
    """The results a child sent; its error, or the lack of a result, raised."""
    line = pipe.read()
    result = json.loads(line) if line.endswith("\n") else {"error": "no result"}
    if "domain" in result:
        raise DomainError(result["domain"])
    if "error" in result:
        raise ChildProcessError(f"a counting process failed: {result['error']}")
    return result["results"]


def _verified(targets: list[tuple[IdentityId, Sequence[Variant]]], n_from: int, n_to: int,
              keep: Optional[Callable[[VerificationReport], dict]]) -> list[dict]:
    """The report of each variant of ``targets`` over [n_from, n_to] in
    wire form (``identities._range_json``), its failures as ``_tally``
    gives them: counted, or in order of n in the wire form ``keep`` makes,
    which a pipe carries as is.

    The range's chunks are dealt out to P = ``_parts`` processes: this one
    takes chunks 0, P, 2P, ... of the request, and forked child k chunks
    k, k + P, ..., so each gets a share of every row's cheap and costly
    indices.  Each walks the terms of the whole range once, which costs
    little beside evaluating the sides, and so reaches each of its chunks
    without powering into it.  A child sends its results as one json line.
    The counts add up, and the failures, joined and put in order of n, are
    those of one process.  No child outlives the call: on any error here
    the children are killed, and every child is reaped."""
    from .identities import _CHUNK, _range_json, _skipped, _tally

    # Every part's walk checks the bound too; checking it here forks nothing
    # for a request that is refused.
    _check_index(n_to)
    parts = _parts(len(range(n_from, n_to + 1, _CHUNK)))

    def part_results(part: int) -> list[list]:
        return _tally(targets, n_from, n_to, part, parts, keep)

    children: list[tuple[int, IO[str]]] = []
    try:
        for part in range(1, parts):
            children.append(_fork_part(part_results, part))
        results = part_results(0)
        for _, pipe in children:
            # Counts add up and failure lists join, in order of part.
            results = [[a + b for a, b in zip(mine, theirs)]
                       for mine, theirs in zip(results, _received(pipe))]
    except BaseException:
        import signal

        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)
    return [_range_json(identity, variant, n_from, n_to, checked,
                        _skipped(identity, n_from, n_to),
                        sorted(failed, key=lambda failure: failure["n"]) if keep else failed)
            for (identity, variants), (checked, *failures) in zip(targets, results)
            for variant, failed in zip(variants, failures)]


def _format_reports(reports: list[dict], fmt: str) -> str:
    """json, csv or plain text of reports in their wire form
    (``_range_json``); in csv their failures are counts, not lists."""
    if fmt == "json":
        return json.dumps(reports, indent=2) + "\n"
    if fmt == "csv":
        return "".join(f"{r['id']},{r['variant']},{r['n_from']},{r['n_to']},{r['checked']},"
                       f"{len(r['skipped'])},{r['failures']}\n" for r in reports)
    lines = []
    for r in reports:
        status = "FAIL" if r["failures"] else "ok"
        lines.append(
            f"{r['id']} {r['variant']} [{r['n_from']},{r['n_to']}]: "
            f"checked={r['checked']} skipped={len(r['skipped'])} "
            f"failures={len(r['failures'])} {status}"
        )
        for failure in r["failures"]:
            lines.append(
                f"  n={failure['n']} lhs={_compact(failure['lhs'])} "
                f"rhs={_compact(failure['rhs'])} delta={_compact(failure['delta'])}"
            )
    return "\n".join(lines) + "\n"


def _cmd_verify(args: argparse.Namespace) -> int:
    from .identities import VerificationReport

    reports = _verified(_verify_targets(args), args.n_from, args.n_to,
                        None if args.format == "csv" else VerificationReport.to_json)
    _emit(_format_reports(reports, args.format), args.out)
    for r in reports:
        if not r["checked"]:
            print(f"j3o: warning: {r['id']} {r['variant']} [{r['n_from']},{r['n_to']}]: "
                  f"nothing checked, no index is in the identity's domain", file=sys.stderr)
    return EXIT_DISCREPANCY if any(r["failures"] for r in reports) else EXIT_OK


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
