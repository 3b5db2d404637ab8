"""Command-line interface.

Subcommands: ``seq`` (scalar sequence tables), ``oct`` (one octonion of a
sequence, optionally cross-checked against its closed form), ``mul-table``
(the signed basis multiplication table) and ``verify`` (identity range
reports).  Exit codes: 0 all checks pass, 1 at least one exact discrepancy,
2 usage error (an index outside its domain included), 3 any other error
(one ``j3o: error:`` line on stderr, no traceback), so a crash never reads
as a failed identity; 130 on Ctrl-C, and 129 on SIGHUP and 143 on SIGTERM
to a request in parts, with one stderr line, and 141, silently, once
stdout is closed or its reader has gone.  Data goes to stdout (or ``--out``), diagnostics to
stderr, unless it cannot take them (``_say``).  The process (``run``)
leaves at its last flush, without the interpreter's teardown.  All numbers are emitted
as decimal strings: coefficients outgrow 64-bit integers quickly, and
strings round-trip losslessly through JSON and CSV.

A ``verify`` runs on up to one process per CPU available to this one, each
taking alternate chunks of the range (``_verified``): a part walks the
terms once for every row of the request and tallies their checks and
failures (``identities._tally``).  For json and plain a part also renders
each failure it finds as the text the output holds (``_json_failure``,
``_plain_failure``), so the costly decimal conversion and formatting are
shared too, and its one ``identities._witness_writer`` derives most
witnesses from earlier ones; csv only counts.  A child sends its result through a pipe in
``marshal`` form.  This process puts the failures in order of n, formats
the report headers and splices the texts in (``_format_reports``), so it
copies them but never parses or encodes them again.  The output is that
of one process.  It stays in one process when the range is one chunk, the
platform has no ``fork`` or ``sched_getaffinity``, or this process runs
other threads.
"""

from __future__ import annotations

import argparse
import errno
import marshal
import os
import sys
from itertools import islice
from typing import IO, TYPE_CHECKING, Callable, Iterable, Iterator, NoReturn, Optional, Sequence

from .errors import DomainError
from .octonion import MULTIPLICATION_TABLE, _decimal_str
from .octonion_sequences import OctonionSequenceKind, oct_seq, oct_seq_closed
from .sequences import SequenceKind, _check_index, seq_terms

if TYPE_CHECKING:
    from .identities import IdentityId, Variant

EXIT_OK = 0
EXIT_DISCREPANCY = 1
EXIT_USAGE = 2
EXIT_ERROR = 3
# 128 + the signal
EXIT_HUNG_UP, EXIT_INTERRUPTED, EXIT_BROKEN_PIPE, EXIT_TERMINATED = 129, 130, 141, 143


class UsageError(Exception):
    """Bad arguments detected after parsing; maps to exit code 2."""


class _Terminated(BaseException):
    """A SIGHUP or SIGTERM to this process while it has children
    (``_verified``); its one argument is the signal's number."""


def _compact(obj) -> str:
    import json

    return json.dumps(obj, separators=(",", ":"))


def _say(line: str) -> None:
    """Write a line to stderr; drop it, as argparse does, where stderr cannot take it."""
    try:
        sys.stderr.write(line + "\n")
    except (AttributeError, OSError):
        pass


def _broken_pipe() -> BrokenPipeError:
    return BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


def _emit(pieces: Iterable[str], out: Optional[str]) -> None:
    """Write the output, given as the strings it joins, to ``out`` or stdout.

    Stdout's bytes go to its buffer, when it has one, a piece at a time:
    a buffered write that the reader leaves midway returns the short count
    of what it wrote, which the text layer would drop, so a short count is
    raised as the closed pipe it is, as is a stdout closed from the start."""
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.writelines(pieces)
        return
    if sys.stdout is None:
        raise _broken_pipe()
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:  # a text stream, such as io.StringIO
        sys.stdout.writelines(pieces)
        sys.stdout.flush()
        return
    sys.stdout.flush()
    for piece in pieces:
        data = piece.encode(sys.stdout.encoding)
        if buffer.write(data) < len(data):
            raise _broken_pipe()
    buffer.flush()


def _cmd_seq(args: argparse.Namespace) -> int:
    if args.n_from < 0 or args.n_to < args.n_from:
        raise UsageError(f"need 0 <= from <= to, got [{args.n_from}, {args.n_to}]")
    _check_index(args.n_to)
    kind = SequenceKind(args.kind)
    terms = islice(seq_terms(kind, args.n_from), args.n_to - args.n_from + 1)
    rows = [(n, _decimal_str(x)) for n, x in enumerate(terms, args.n_from)]
    if args.format == "json":
        import json

        text = json.dumps([{"n": n, "value": v} for n, v in rows], indent=2) + "\n"
    elif args.format == "csv":
        text = "".join(f"{n},{v}\n" for n, v in rows)
    else:
        text = "".join(f"{n}\t{v}\n" for n, v in rows)
    _emit((text,), args.out)
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
        import json

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
        # _compact's text of decimal strings, which need no escaping.
        text = '["' + '","'.join(coefficients) + '"]\n'
        if agree is not None:
            text += f"closed=recurrence: {str(agree).lower()}\n"
    _emit((text,), args.out)
    return EXIT_OK if agree in (None, True) else EXIT_DISCREPANCY


def _table_entry(sign: int, index: int) -> str:
    if index == 0:
        return "1" if sign > 0 else "-1"
    return f"e{index}" if sign > 0 else f"-e{index}"


def _cmd_mul_table(args: argparse.Namespace) -> int:
    rows = [[f"e{i}"] + [_table_entry(*entry) for entry in row]
            for i, row in enumerate(MULTIPLICATION_TABLE)]
    if args.format == "json":
        import json

        table = [[{"sign": entry.sign, "e": entry.index} for entry in row]
                 for row in MULTIPLICATION_TABLE]
        text = json.dumps(table, indent=2) + "\n"
    elif args.format == "csv":
        text = "".join(",".join(cells) + "\n" for cells in rows)
    else:
        header = ["x"] + [f"e{j}" for j in range(8)]
        text = "".join("  ".join(f"{cell:>3}" for cell in cells) + "\n"
                       for cells in [header, *rows])
    _emit((text,), args.out)
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


def _fork_part(part_results: Callable[[int, Callable[[], None]], list[list]],
               part: int) -> tuple[int, IO[bytes]]:
    """A child process that runs ``part_results(part, stop_if_orphaned)``:
    its pid, and the pipe on which it sends one ``marshal`` dict, its
    results or its error.  Called before each of its chunks,
    ``stop_if_orphaned`` ends the child once this process has gone."""
    import signal

    parent = os.getpid()

    def stop_if_orphaned() -> None:
        # A parent killed by SIGKILL reaps and reads nothing; its child,
        # which has no one to send to, stops at its next chunk.
        if os.getppid() != parent:
            os._exit(0)

    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, open(read, "rb")
    # The child leaves through os._exit whatever happens, so it never
    # returns to the caller, runs no atexit handler and flushes no stdio.
    # Ctrl-C, which reaches the whole process group, is the parent's to act on.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        os.close(read)
        try:
            result = {"results": part_results(part, stop_if_orphaned)}
        except DomainError as exc:
            result = {"domain": str(exc)}
        except Exception as exc:
            result = {"error": f"{type(exc).__name__}: {exc}"}
        with open(write, "wb") as pipe:
            marshal.dump(result, pipe)
    finally:
        os._exit(0)


def _received(pipe: IO[bytes]) -> list[list]:
    """The results a child sent; its error, or the lack of a result, raised."""
    try:
        result = marshal.loads(pipe.read())
    except (EOFError, ValueError):
        # Nothing, or a truncated blob: the child ended before it had sent.
        result = {"error": "no result"}
    if "domain" in result:
        raise DomainError(result["domain"])
    if "error" in result:
        raise ChildProcessError(f"a counting process failed: {result['error']}")
    return result["results"]


def _terminated(signum: int, frame) -> None:
    raise _Terminated(signum)


def _verified(targets: list[tuple[IdentityId, Sequence[Variant]]], n_from: int, n_to: int,
              keep: Optional[Callable[[dict], tuple[int, str]]]) -> list[dict]:
    """The report of each variant of ``targets`` over [n_from, n_to] in
    wire form (``identities._range_json``), its failures as ``_tally``
    gives them: counted, or, with ``keep``, the text it renders of each
    from the wire form that its part's ``identities._witness_writer``
    writes, in order of n.

    The range's chunks, a multiple of P of nearly equal size (``_tally``),
    are dealt out to P = ``_parts`` processes: this one takes chunks 0, P,
    2P, ... of the request, and forked child k chunks k, k + P, ..., so
    each gets a share of every row's cheap and costly indices.  Each walks
    the terms of the whole range once, which costs little beside
    evaluating the sides, and so reaches each of its chunks without
    powering into it.  A child sends its results, the failures as (n,
    text) pairs.  The counts add up, and the failures, joined and put in
    order of n, are those of one process.  No child outlives the call: on
    any error here, Ctrl-C, SIGHUP and SIGTERM included, the children are
    killed, and every child is reaped.  A child whose parent is killed by
    SIGKILL, which no handler sees, stops at its next chunk (``_fork_part``)."""
    from .identities import _CHUNK, _range_json, _skipped, _tally, _witness_writer

    # Every part's walk checks the bound too; checking it here forks nothing
    # for a request that is refused.
    _check_index(n_to)
    parts = _parts(len(range(n_from, n_to + 1, _CHUNK)))

    def part_results(part: int, before_chunk: Optional[Callable[[], None]] = None) -> list[list]:
        # One writer per part, made here, so a forked child's starts empty.
        write = _witness_writer()
        return _tally(targets, n_from, n_to, part, parts,
                      keep and (lambda report: keep(write(report))), before_chunk)

    children: list[tuple[int, IO[bytes]]] = []
    if parts > 1:
        import signal

        previous = {signum: signal.signal(signum, _terminated)
                    for signum in (signal.SIGHUP, signal.SIGTERM)}
    try:
        for part in range(1, parts):
            children.append(_fork_part(part_results, part))
        results = part_results(0)
        for _, pipe in children:
            # Counts add up and failure lists join, in order of part.
            results = [[a + b for a, b in zip(mine, theirs)]
                       for mine, theirs in zip(results, _received(pipe))]
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)
        if parts > 1:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
    return [_range_json(identity, variant, n_from, n_to, checked,
                        _skipped(identity, n_from, n_to),
                        # n is unique within a variant, so no text is compared.
                        [text for _, text in sorted(failed)] if keep else failed)
            for (identity, variants), (checked, *failures) in zip(targets, results)
            for variant, failed in zip(variants, failures)]


# Where json.dumps(reports, indent=2) indents a failure: in a report's
# failure list, three levels deep.
_FAILURE_INDENT = " " * 6


def _json_text(value, indent: str) -> str:
    """``json.dumps(value, indent=2)`` with every line but the first
    indented by ``indent``, for a failure's wire form or a part of it: an
    int n, decimal strings, which need no escaping, and lists and dicts of
    them, none empty."""
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return f'"{value}"'
    inner = indent + "  "
    if isinstance(value, list):
        items = [inner + _json_text(item, inner) for item in value]
        return "[\n" + ",\n".join(items) + f"\n{indent}]"
    items = [f'{inner}"{key}": {_json_text(item, inner)}' for key, item in value.items()]
    return "{\n" + ",\n".join(items) + f"\n{indent}}}"


def _json_failure(wire: dict) -> tuple[int, str]:
    """A failure's n, and its text in the json output (``_format_reports``),
    from its wire form (``VerificationReport.to_json``)."""
    return wire["n"], _FAILURE_INDENT + _json_text(wire, _FAILURE_INDENT)


def _plain_failure(f: dict) -> tuple[int, str]:
    """A failure's n, and its line in the plain output, from its wire form."""
    return f["n"], (f"  n={f['n']} lhs={_compact(f['lhs'])} "
                    f"rhs={_compact(f['rhs'])} delta={_compact(f['delta'])}\n")


def _format_reports(reports: list[dict], fmt: str) -> Iterator[str]:
    """The json, csv or plain text of reports in their wire form
    (``_range_json``), as the strings it joins.  In csv their failures are
    counts; in json and plain, their texts (``_json_failure``,
    ``_plain_failure``), which are written as they are.  The json headers
    are encoded with their failure lists empty, and the texts spliced in."""
    if fmt == "csv":
        yield "".join(f"{r['id']},{r['variant']},{r['n_from']},{r['n_to']},{r['checked']},"
                      f"{len(r['skipped'])},{r['failures']}\n" for r in reports)
    elif fmt == "json":
        import json

        empty = '"failures": []'
        heads = json.dumps([{**r, "failures": []} for r in reports], indent=2).split(empty)
        yield heads[0]
        for r, head in zip(reports, heads[1:]):
            if not r["failures"]:
                yield empty
            else:
                yield '"failures": [\n'
                for i, text in enumerate(r["failures"]):
                    if i:
                        yield ",\n"
                    yield text
                # The list closes one level out from its failures.
                yield "\n    ]"
            yield head
        yield "\n"
    else:
        for r in reports:
            status = "FAIL" if r["failures"] else "ok"
            yield (f"{r['id']} {r['variant']} [{r['n_from']},{r['n_to']}]: "
                   f"checked={r['checked']} skipped={len(r['skipped'])} "
                   f"failures={len(r['failures'])} {status}\n")
            yield from r["failures"]


def _cmd_verify(args: argparse.Namespace) -> int:
    keep = {"csv": None, "json": _json_failure, "plain": _plain_failure}[args.format]
    targets = _verify_targets(args)
    if not args.out and sys.stdout is None:
        raise _broken_pipe()  # closed from the start: stop before any work
    reports = _verified(targets, args.n_from, args.n_to, keep)
    _emit(_format_reports(reports, args.format), args.out)
    for r in reports:
        if not r["checked"]:
            _say(f"j3o: warning: {r['id']} {r['variant']} [{r['n_from']},{r['n_to']}]: "
                 f"nothing checked, no index is in the identity's domain")
    return EXIT_DISCREPANCY if any(r["failures"] for r in reports) else EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser``, its subcommands' too, whose usage errors go
    through ``_say``, and whose help is output like any other: argparse
    would write its usage to stdout when stderr is closed, its help to
    stderr when stdout is closed, and drop a help that cannot be written.
    Either ends in ``SystemExit``, which ``run`` turns into the flush and
    exit of every request."""

    def error(self, message: str):
        _say(f"{self.format_usage()}{self.prog}: error: {message}")
        self.exit(EXIT_USAGE)

    def print_help(self, file=None) -> None:
        if sys.stdout is None:
            raise _broken_pipe()
        sys.stdout.write(self.format_help())


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "csv", "plain"),
                        default="plain", help="output format (default: plain)")
    parser.add_argument("--out", metavar="PATH",
                        help="write output to PATH instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    """Run one request and return its exit code; argparse raises
    ``SystemExit`` for ``--help`` and usage errors.  The process entry is
    ``run``."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (UsageError, DomainError) as exc:
        _say(f"j3o: error: {exc}")
        return EXIT_USAGE
    except BrokenPipeError:
        # What is left to flush goes nowhere (Python docs, "Note on SIGPIPE").
        if sys.stdout is not None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except Exception as exc:
        _say(f"j3o: error: {type(exc).__name__}: {exc}")
        return EXIT_ERROR
    except KeyboardInterrupt:
        _say("j3o: interrupted")
        return EXIT_INTERRUPTED
    except _Terminated as exc:
        import signal

        hung_up = exc.args[0] == signal.SIGHUP
        _say(f"j3o: {'hung up' if hung_up else 'terminated'}")
        return EXIT_HUNG_UP if hung_up else EXIT_TERMINATED


def _watched() -> bool:
    """Whether a tracer or profiler, such as coverage or cProfile, watches
    this process: it writes its results as the process exits.  Since
    Python 3.12 either may watch through ``sys.monitoring`` instead, as
    one of its tools 0 to 5."""
    monitoring = getattr(sys, "monitoring", None)
    return (sys.gettrace() is not None or sys.getprofile() is not None
            or (monitoring is not None
                and any(monitoring.get_tool(tool) is not None for tool in range(6))))


def run() -> NoReturn:
    """The ``j3o`` process: ``main`` on the command line, then the flush of
    stdout and stderr, and the exit.

    The process leaves through ``os._exit`` at that flush, as a forked part
    does, and so skips the interpreter's teardown, which takes longer than
    a short request's work.  Whatever the request opened is closed and its
    children reaped by then.  A flush that finds stdout's reader gone exits
    141 with nothing on stderr, any other failure to write 3 with one
    ``j3o: error:`` line; a stderr that cannot be written drops its line
    (``_say``).  A tracer or profiler that writes its results at exit
    (``_watched``) gets the usual ``sys.exit``."""
    try:
        code = main()
    except SystemExit as exc:  # argparse: --help or a usage error
        code = exc.code
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except BrokenPipeError:
        code = EXIT_BROKEN_PIPE
    except OSError as exc:
        if code != EXIT_ERROR:  # else main has said why
            _say(f"j3o: error: {type(exc).__name__}: {exc}")
        code = EXIT_ERROR
    try:
        sys.stderr.flush()
    except (AttributeError, OSError):
        pass
    if _watched():
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
