import argparse
import contextlib
import errno
import io
import json
import marshal
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time
from fractions import Fraction

import pytest

from jacobsthal_octonions import cli, identities, sequences
from jacobsthal_octonions.cli import main
from jacobsthal_octonions.errors import InconsistencyError
from jacobsthal_octonions.identities import IdentityId, Variant, VerificationReport
from jacobsthal_octonions.octonion import Octonion, ScaledOctonion, basis_product


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_same_text(actual, expected):
    """``actual == expected`` for outputs of up to megabytes, which fails
    with their lengths and their first differing offset: pytest's diff of
    two such strings takes minutes to build."""
    if actual == expected:
        return
    at = next((i for i, (a, b) in enumerate(zip(actual, expected)) if a != b),
              min(len(actual), len(expected)))
    pytest.fail(f"lengths {len(actual)} and {len(expected)} differ first at offset {at}: "
                f"{actual[at:at + 60]!r} against {expected[at:at + 60]!r}")


# --- seq --------------------------------------------------------------------


def test_seq_csv(capsys):
    code, out, err = run(capsys, "seq", "--kind", "j3", "--from", "0", "--to", "4",
                         "--format", "csv")
    assert code == 0
    assert out == "0,0\n1,1\n2,1\n3,2\n4,5\n"
    assert err == ""


def test_seq_plain_defaults(capsys):
    code, out, _ = run(capsys, "seq", "--kind", "jl3", "--from", "0", "--to", "2")
    assert code == 0
    assert [line.split("\t")[1] for line in out.splitlines()] == ["2", "1", "5"]


def test_seq_json(capsys):
    code, out, _ = run(capsys, "seq", "--kind", "jacobsthal", "--to", "3",
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == [
        {"n": 0, "value": "0"}, {"n": 1, "value": "1"},
        {"n": 2, "value": "1"}, {"n": 3, "value": "3"},
    ]


def test_seq_inverted_range(capsys):
    code, _, err = run(capsys, "seq", "--kind", "j3", "--from", "3", "--to", "2")
    assert code == 2
    assert "error" in err


def test_seq_unknown_kind_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["seq", "--kind", "fibonacci", "--to", "3"])
    assert excinfo.value.code == 2


# --- oct --------------------------------------------------------------------


def test_oct_plain(capsys):
    code, out, _ = run(capsys, "oct", "--kind", "JO", "--n", "0")
    assert code == 0
    assert out == '["0","1","1","2","5","9","18","37"]\n'


def test_oct_closed_agreement(capsys):
    code, out, _ = run(capsys, "oct", "--kind", "jO", "--n", "0", "--closed")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == '["2","1","5","10","17","37","74","145"]'
    assert lines[1] == "closed=recurrence: true"


def test_oct_json_closed(capsys):
    code, out, _ = run(capsys, "oct", "--kind", "JO", "--n", "2", "--closed",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "JO"
    assert payload["n"] == 2
    assert payload["coefficients"] == ["1", "2", "5", "9", "18", "37", "73", "146"]
    assert payload["closed_equals_recurrence"] is True


def test_oct_negative_index(capsys):
    code, _, err = run(capsys, "oct", "--kind", "JO", "--n", "-1")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("argv", [
    "seq --kind j3 --from 0 --to 1000001",
    "seq --kind jacobsthal --from 1000001 --to 1000001 --format json",
    "oct --kind JO --n 1000001 --closed",
    "oct --kind jO --n 1000001",
])
def test_index_past_the_bound_exits_2(capsys, monkeypatch, argv):
    def no_power(*args):
        raise AssertionError("a term past the bound was computed")

    monkeypatch.setattr(sequences, "_x_power", no_power)
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert err == "j3o: error: sequence index must be <= 1000000, got 1000001\n"


# --- mul-table ----------------------------------------------------------------


def test_mul_table_plain_row_e1(capsys):
    code, out, _ = run(capsys, "mul-table")
    assert code == 0
    rows = out.splitlines()
    e1 = rows[2].split()
    assert e1 == ["e1", "e1", "-1", "e3", "-e2", "e5", "-e4", "-e7", "e6"]


def test_mul_table_json_consistent_with_basis_product(capsys):
    code, out, _ = run(capsys, "mul-table", "--format", "json")
    assert code == 0
    table = json.loads(out)
    assert len(table) == 8 and all(len(row) == 8 for row in table)
    for i in range(8):
        for j in range(8):
            sign, index = basis_product(i, j)
            assert table[i][j] == {"sign": sign, "e": index}


# --- verify -------------------------------------------------------------------


def test_variant_choices_are_the_variant_values_and_both():
    parser = cli.build_parser()
    (verify_parser,) = (action.choices["verify"] for action in parser._actions
                        if isinstance(action, argparse._SubParsersAction))
    (variant,) = (action for action in verify_parser._actions if action.dest == "variant")
    assert list(variant.choices) == [v.value for v in Variant] + ["both"]
    assert variant.default == Variant.AS_PRINTED.value


def test_verify_single_identity_passes(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "E4", "--to", "100")
    assert code == 0
    assert "checked=101" in out


def test_verify_residue_filtered_identity(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "T4_PROD_JOJ", "--to", "9",
                       "--format", "json")
    assert code == 0
    (report,) = json.loads(out)
    assert report["checked"] == 4
    assert report["skipped"] == [1, 2, 4, 5, 7, 8]
    assert report["failures"] == []


def test_verify_all_printed(capsys):
    code, out, _ = run(capsys, "verify", "--all", "--to", "30",
                       "--variant", "printed", "--format", "json")
    assert code == 1
    failing = [r["id"] for r in json.loads(out) if r["failures"]]
    assert failing == ["T5_QUAD", "T6_QUAD"]


def test_verify_all_both(capsys):
    code, out, _ = run(capsys, "verify", "--all", "--to", "30",
                       "--variant", "both", "--format", "json")
    assert code == 1
    reports = json.loads(out)
    corrected = [r for r in reports if r["variant"] == "corrected"]
    assert [r["id"] for r in corrected] == ["T5_QUAD", "T6_QUAD"]
    assert all(r["failures"] == [] for r in corrected)


def test_verify_corrected_single(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "T5_QUAD", "--to", "20",
                       "--variant", "corrected", "--format", "json")
    assert code == 0
    (report,) = json.loads(out)
    assert report["variant"] == "corrected"
    assert report["checked"] == 21


def test_verify_corrected_unavailable(capsys):
    code, _, err = run(capsys, "verify", "--identity", "E4", "--to", "5",
                       "--variant", "corrected")
    assert code == 2
    assert "no corrected variant" in err


def test_verify_corrected_with_all_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--all", "--to", "5",
                       "--variant", "corrected")
    assert code == 2
    assert "error" in err


def test_verify_unknown_identity(capsys):
    code, _, err = run(capsys, "verify", "--identity", "E99", "--to", "5")
    assert code == 2
    assert "unknown identity" in err


def test_verify_plain_failure_lines(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "T6_QUAD", "--to", "2")
    assert code == 1
    assert "failures=2 FAIL" in out
    assert 'n=1 lhs=' in out and "delta=" in out


@pytest.mark.parametrize("identity", ["T5_QUAD", "T6_QUAD"])
def test_verify_both_makes_the_products_of_one_variant(capsys, octonion_products, identity):
    counts = []
    for variant in ("printed", "both"):
        octonion_products[0] = 0
        run(capsys, "verify", "--identity", identity, "--variant", variant,
            "--from", "30", "--to", "35", "--format", "csv")
        counts.append(octonion_products[0])
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("argv, report, skipped", [
    ("verify --identity E5 --to 2", "E5 printed [0,2]", 3),
    ("verify --identity T4_PROD_JOJ --from 1 --to 2", "T4_PROD_JOJ printed [1,2]", 2),
])
def test_vacuous_range_warns_on_stderr_only(capsys, argv, report, skipped):
    code, out, err = run(capsys, *argv.split())
    assert code == 0
    assert out == f"{report}: checked=0 skipped={skipped} failures=0 ok\n"
    assert err == (f"j3o: warning: {report}: nothing checked, no index is in "
                   f"the identity's domain\n")


def test_vacuous_reports_of_a_suite_each_warn(capsys):
    code, out, err = run(capsys, "verify", "--all", "--to", "2", "--format", "csv")
    assert code == 1
    assert "E5,printed,0,2,0,3,0\n" in out
    assert err.splitlines() == [
        f"j3o: warning: {name} printed [0,2]: nothing checked, no index is in "
        f"the identity's domain" for name in ("E5", "E9", "E12")]


@pytest.mark.parametrize("argv", [
    "verify --identity T3_D --from 1000005 --to 1000006",
    "verify --identity E10 --from 999990 --to 1000006",
    "verify --all --variant both --to 1000006 --format json",
])
def test_verify_range_past_the_bound_exits_2_before_any_walk(capsys, monkeypatch, argv):
    def no_walk(*args):
        raise AssertionError("a term was computed")

    monkeypatch.setattr(sequences, "_walk", no_walk)
    monkeypatch.setattr(sequences, "_x_power", no_walk)
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert err == "j3o: error: sequence index must be <= 1000000, got 1000006\n"


@pytest.mark.parametrize("identity", ["E10", "E11"])
def test_partial_sum_rows_reach_the_index_bound(capsys, identity):
    # Their right side reads term n, not n + 1, so the last index is in reach.
    code, out, err = run(capsys, "verify", "--identity", identity, "--from", "1000000",
                         "--to", "1000000", "--format", "csv")
    assert (code, out, err) == (0, f"{identity},printed,1000000,1000000,1,0,0\n", "")


# --- csv: counts only ------------------------------------------------------------


def csv_counts(out):
    """(id, variant) -> (checked, skipped, failures) of a csv report."""
    rows = [line.split(",") for line in out.splitlines()]
    return {(i, v): tuple(map(int, rest[2:])) for i, v, *rest in rows}


def json_counts(out):
    return {(r["id"], r["variant"]): (r["checked"], len(r["skipped"]), len(r["failures"]))
            for r in json.loads(out)}


def test_csv_builds_no_report_and_counts_what_json_reports(capsys, monkeypatch):
    built = []
    check = identities._check

    def counted(*args):
        built.append(args)
        return check(*args)

    monkeypatch.setattr(identities, "_check", counted)
    argv = ["verify", "--all", "--variant", "both", "--to", "30"]
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 1 and built == []
    code_json, out_json, _ = run(capsys, *argv, "--format", "json")
    assert code_json == 1 and built
    assert csv_counts(out) == json_counts(out_json)
    assert csv_counts(out)["T5_QUAD", "printed"] == (31, 0, 31)


def test_csv_of_a_printed_quadratic_row_holds_no_witnesses():
    # A fresh interpreter, so that the peak is this request's own.  Keeping
    # the 1,501 failing reports, each with its exact lhs, rhs and delta,
    # peaks near 9.5 MB; counting them stays near the failure-free variant.
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    # One CPU, so that the request counts in one process and the bound
    # covers all of it.
    probe = ("import contextlib, io, os, tracemalloc\n"
             "from jacobsthal_octonions.cli import main\n"
             "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
             "tracemalloc.start()\n"
             "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
             "    code = main(['verify', '--identity', 'T5_QUAD', '--to', '1500',"
             " '--format', 'csv'])\n"
             "print(code, out.getvalue().strip(), tracemalloc.get_traced_memory()[1])\n")
    result = subprocess.run([sys.executable, "-c", probe],
                            env={**os.environ, "PYTHONPATH": str(src)},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    code, line, peak = result.stdout.split()
    assert (code, line) == ("1", "T5_QUAD,printed,0,1500,1501,0,1501")
    assert int(peak) < 4 * 2 ** 20


def test_argv_fuzz_exits_cleanly_and_csv_agrees_with_json():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    from jacobsthal_octonions.identities import IdentityId

    def invoke(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses the arguments
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    target = st.one_of(st.just(["--all"]), st.sampled_from(
        [["--identity", i.name] for i in IdentityId] + [["--identity", "E99"]]))
    index = st.one_of(st.integers(-3, 40), st.sampled_from(["-0", "1e3", "x"]))

    @settings(max_examples=60, deadline=None)
    @given(target, st.sampled_from(["printed", "corrected", "both"]),
           index, index)
    def check(target, variant, n_from, n_to):
        argv = ["verify", *target, "--variant", variant,
                "--from", str(n_from), "--to", str(n_to)]
        code, out, err = invoke(argv + ["--format", "csv"])
        assert code in (0, 1, 2), (argv, err)
        assert "Traceback" not in err
        code_json, out_json, err_json = invoke(argv + ["--format", "json"])
        assert (code_json, err_json) == (code, err)
        if code != 2:
            assert csv_counts(out) == json_counts(out_json)

    check()


# --- verify: one process per available CPU --------------------------------------


FORMATS = ["csv", "json", "plain"]

# Requests of three or more chunks, so that two or three parts all run.
PART_REQUESTS = [
    "--all --variant both --to 300",
    # Four chunks of each quadratic row in both variants: with two or three
    # parts, each variant's failures come from every part, interleaved.
    "--identity T5_QUAD --variant both --from 3 --to 200",
    "--identity T6_QUAD --variant both --from 60 --to 260",
    # Off a chunk boundary, with a residue domain.
    "--identity T4_PROD_JJO --from 5 --to 400",
    # Running sums that cross chunk starts.
    "--identity E10 --from 60 --to 200",
    # Every row in one walk off a chunk boundary: E10 and E11 read their
    # sums off the window that every other row reads.
    "--all --variant both --from 60 --to 200",
]


def verify_on(capsys, monkeypatch, cpus, fmt, *argv):
    """(exit code, stdout, stderr, forks) of a request in format ``fmt``
    made with ``cpus`` CPUs available to this process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    forks = []
    fork = os.fork

    def counted():
        forks.append(cpus)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return (*run(capsys, *argv, "--format", fmt), len(forks))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("argv", PART_REQUESTS)
def test_verify_in_parts_is_byte_identical_to_one_part(capsys, monkeypatch, argv, fmt):
    argv = ["verify", *argv.split()]
    code, out, err, forks = verify_on(capsys, monkeypatch, 1, fmt, *argv)
    assert forks == 0
    for cpus in (2, 3):
        code_in_parts, out_in_parts, *rest = verify_on(capsys, monkeypatch, cpus, fmt, *argv)
        assert (code_in_parts, *rest) == (code, err, cpus - 1)
        assert_same_text(out_in_parts, out)
    assert_no_child_left()


def library_reports(argv):
    """The wire form of the reports that the library builds in one process
    for a verify request ``argv``."""
    args = cli.build_parser().parse_args(argv)
    if args.all:
        variants = set(Variant) if args.variant == "both" else {Variant.AS_PRINTED}
        return [r.to_json() for r in identities.run_suite(variants, args.n_to, args.n_from)]
    identity = identities.IdentityId[args.identity]
    variants = (identities.REGISTRY[identity].variants if args.variant == "both"
                else (Variant(args.variant),))
    return [r.to_json() for r in identities.verify_ranges(identity, variants,
                                                          args.n_from, args.n_to)]


@pytest.mark.parametrize("argv", PART_REQUESTS)
def test_json_and_csv_in_parts_are_the_library_reports(capsys, monkeypatch, argv):
    # The parts send their failures rendered, or their counts; joined and
    # spliced into the headers, they are byte for byte json.dumps of the
    # reports that verify_ranges builds in one process.
    argv = ["verify", *argv.split()]
    reports = library_reports(argv)
    failed = int(any(r["failures"] for r in reports))
    for cpus in (1, 2, 3):
        code, out, _, forks = verify_on(capsys, monkeypatch, cpus, "json", *argv)
        assert (code, forks) == (failed, cpus - 1)
        assert_same_text(out, json.dumps(reports, indent=2) + "\n")
    code, out, _, forks = verify_on(capsys, monkeypatch, 3, "csv", *argv)
    assert (code, forks, csv_counts(out)) == (failed, 2, json_counts(json.dumps(reports)))
    assert_no_child_left()


def test_a_request_of_many_rows_walks_its_terms_once(capsys, monkeypatch):
    # Every row of a request reads the one window of terms, so the library
    # and one CPU's part each walk them once.  The walk's chunks are of
    # nearly equal size: 201 indices make four chunks of 51 or fewer, and
    # 301 five of 61 or fewer.
    walks = []
    term_lists = identities._term_lists

    def walked(*args):
        walks.append(args)
        return term_lists(*args)

    monkeypatch.setattr(identities, "_term_lists", walked)
    assert len(identities.run_suite(set(Variant), 200)) == 30
    assert walks == [(0, 200, 51)]
    walks.clear()
    code, out, _, forks = verify_on(capsys, monkeypatch, 1, "csv",
                                    "verify", "--all", "--variant", "both", "--to", "300")
    assert (code, len(out.splitlines()), forks) == (1, 30, 0)
    assert walks == [(0, 300, 61)]


@pytest.mark.parametrize("fmt", FORMATS)
def test_a_part_that_raises_exits_3_and_leaves_no_child(capsys, monkeypatch, fmt):
    tally = identities._tally

    def failing(targets, n_from, n_to, part, parts, keep):
        if part:
            raise RuntimeError("chunk lost")
        return tally(targets, n_from, n_to, part, parts, keep)

    monkeypatch.setattr(identities, "_tally", failing)
    code, out, err, forks = verify_on(capsys, monkeypatch, 2, fmt,
                                      "verify", "--identity", "E4", "--to", "127")
    assert (code, out, forks) == (3, "", 1)
    assert err == ("j3o: error: ChildProcessError: a counting process failed: "
                   "RuntimeError: chunk lost\n")
    assert_no_child_left()


@pytest.mark.parametrize("sent", [
    lambda blob: b"",
    lambda blob: blob[:-1],
    lambda blob: blob[:len(blob) // 2],
], ids=["empty", "short-by-one", "half"])
@pytest.mark.parametrize("fmt", FORMATS)
def test_a_child_that_sends_no_whole_result_exits_3(capsys, monkeypatch, fmt, sent):
    # Only a child dumps: it writes nothing, or a truncated marshal blob.
    monkeypatch.setattr(marshal, "dump", lambda obj, pipe: pipe.write(sent(marshal.dumps(obj))))
    code, out, err, forks = verify_on(capsys, monkeypatch, 2, fmt,
                                      "verify", "--identity", "T6_QUAD", "--to", "127")
    assert (code, out, forks) == (3, "", 1)
    assert err == "j3o: error: ChildProcessError: a counting process failed: no result\n"
    assert_no_child_left()


@pytest.mark.parametrize("fmt", FORMATS)
def test_a_raise_in_this_process_kills_the_children_first(capsys, monkeypatch, fmt):
    def stalled(targets, n_from, n_to, part, parts, keep):
        if part:
            time.sleep(60)
        raise RuntimeError("chunk lost")

    monkeypatch.setattr(identities, "_tally", stalled)
    start = time.monotonic()
    code, out, err, forks = verify_on(capsys, monkeypatch, 3, fmt,
                                      "verify", "--identity", "E4", "--to", "200")
    assert time.monotonic() - start < 30
    assert (code, out, err, forks) == (3, "", "j3o: error: RuntimeError: chunk lost\n", 2)
    assert_no_child_left()


@pytest.mark.parametrize("fmt", FORMATS)
def test_ctrl_c_in_this_process_kills_the_children_and_exits_130(capsys, monkeypatch, fmt):
    def stalled(targets, n_from, n_to, part, parts, keep):
        if part:
            time.sleep(60)
        raise KeyboardInterrupt

    monkeypatch.setattr(identities, "_tally", stalled)
    start = time.monotonic()
    code, out, err, forks = verify_on(capsys, monkeypatch, 2, fmt,
                                      "verify", "--identity", "E4", "--to", "200")
    assert time.monotonic() - start < 30
    assert (code, out, err, forks) == (130, "", "j3o: interrupted\n", 1)
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 2])
def test_only_a_request_in_parts_handles_sigterm_and_its_children_ignore_ctrl_c(
        capsys, monkeypatch, cpus):
    # A child reports its SIGINT handler as its error; this process
    # handles SIGTERM only while it has children.
    before = signal.getsignal(signal.SIGTERM)
    tally = identities._tally

    def probe(targets, n_from, n_to, part, parts, keep):
        if part:
            raise RuntimeError(repr(signal.getsignal(signal.SIGINT)))
        assert signal.getsignal(signal.SIGTERM) is (cli._terminated if parts > 1 else before)
        return tally(targets, n_from, n_to, part, parts, keep)

    monkeypatch.setattr(identities, "_tally", probe)
    code, out, err, forks = verify_on(capsys, monkeypatch, cpus, "csv",
                                      "verify", "--identity", "E4", "--to", "127")
    if cpus == 1:
        assert (code, err, forks) == (0, "", 0)
    else:
        assert (code, out, forks) == (3, "", 1)
        assert err == ("j3o: error: ChildProcessError: a counting process failed: "
                       f"RuntimeError: {signal.SIG_IGN!r}\n")
    assert signal.getsignal(signal.SIGTERM) is before
    assert_no_child_left()


def children_of(pid):
    """The live processes whose parent is ``pid``, from ``/proc``."""
    return [int(entry) for entry in os.listdir("/proc")
            if entry.isdigit() and status(int(entry)) == pid]


def status(pid):
    """The parent of ``pid``, or None once it has ended, a zombie included."""
    try:
        stat = pathlib.Path("/proc", str(pid), "stat").read_text()
    except OSError:
        return None
    state, ppid = stat.rpartition(")")[2].split()[:2]
    return None if state == "Z" else int(ppid)


@pytest.mark.skipif(not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
                         and len(os.sched_getaffinity(0)) > 1 and os.path.isdir("/proc")),
                    reason="a request in parts needs fork, sched_getaffinity and two CPUs")
@pytest.mark.parametrize("signum, group, code, line", [
    (signal.SIGINT, True, 130, "j3o: interrupted"),
    (signal.SIGTERM, False, 143, "j3o: terminated"),
], ids=["ctrl-c-to-the-group", "sigterm-to-the-parent"])
def test_a_signal_ends_a_request_in_parts_with_one_line_and_no_child(signum, group, code, line):
    if signal.getsignal(signum) is signal.SIG_IGN:
        pytest.skip("this process ignores the signal, and so would the request")
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    # Ctrl-C reaches every process of the terminal's foreground group; the
    # request leads a group of its own here.  It runs for minutes if no
    # signal ends it.
    process = subprocess.Popen(
        [sys.executable, "-m", "jacobsthal_octonions", "verify", "--all", "--variant", "both",
         "--to", "30000", "--format", "csv"],
        env={**os.environ, "PYTHONPATH": str(src)}, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        deadline = time.monotonic() + 30
        children = []
        while not children and process.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
            children = children_of(process.pid)
        assert children, "no child forked"
        time.sleep(0.2)  # into their parts
        if group:
            os.killpg(process.pid, signum)
        else:
            process.send_signal(signum)
        out, err = process.communicate(timeout=60)
        left = [pid for pid in children if status(pid) is not None]
    finally:
        # Whatever of the request's group a failure leaves running.
        with contextlib.suppress(ProcessLookupError):
            os.killpg(process.pid, signal.SIGKILL)
        if process.poll() is None:
            process.communicate()
    assert (process.returncode, out, err) == (code, "", line + "\n")
    assert left == []


@pytest.mark.parametrize("fmt", FORMATS)
def test_a_domain_error_in_a_part_reads_as_in_one_part(capsys, monkeypatch, fmt):
    # A right side that reads J3(n + 1), as E10's once did, is past the
    # bound at the range's end, which only the child evaluates.
    monkeypatch.setattr(sequences, "_MAX_INDEX", 200)
    monkeypatch.setattr(identities, "partial_sum_closed",
                        lambda kind, n: sequences.seq_value(kind, n + 1))
    argv = ["verify", "--identity", "E10", "--from", "100", "--to", "200"]
    refused = (2, "", "j3o: error: sequence index must be <= 200, got 201\n")
    assert verify_on(capsys, monkeypatch, 1, fmt, *argv) == (*refused, 0)
    assert verify_on(capsys, monkeypatch, 2, fmt, *argv) == (*refused, 1)
    assert_no_child_left()


@pytest.mark.parametrize("argv, refusal", [
    ("verify --all --to 1000006",
     "sequence index must be <= 1000000, got 1000006"),
    ("verify --identity E4 --variant corrected --to 1000",
     "E4 has no corrected variant"),
    ("verify --all --variant corrected --to 1000",
     "--variant corrected needs a single --identity; use --variant both with --all"),
])
@pytest.mark.parametrize("fmt", FORMATS)
def test_a_refused_request_forks_nothing(capsys, monkeypatch, argv, refusal, fmt):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", no_fork)
    code, out, err = run(capsys, *argv.split(), "--format", fmt)
    assert (code, out, err) == (2, "", f"j3o: error: {refusal}\n")


@pytest.mark.parametrize("fmt", FORMATS)
def test_one_cpu_one_chunk_or_a_second_thread_runs_in_this_process(capsys, monkeypatch, fmt):
    argv = ["verify", "--all", "--to", "300"]
    expected = verify_on(capsys, monkeypatch, 2, fmt, *argv)[:3]
    assert verify_on(capsys, monkeypatch, 1, fmt, *argv) == (*expected, 0)
    assert verify_on(capsys, monkeypatch, 2, fmt, "verify", "--all", "--to", "63")[3] == 0
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert verify_on(capsys, monkeypatch, 2, fmt, *argv) == (*expected, 0)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


# --- rendered failures -----------------------------------------------------------


BIG = 10 ** 5000 + 7  # past CPython's 4,300-digit str() limit

WIRE_VALUES = [
    0, 12, -12, BIG, -BIG,
    Fraction(-98, 1), Fraction(3, 49), Fraction(-BIG, 7),
    Octonion((1, -2, 3, -4, 5, -6, 7, BIG)),
    ScaledOctonion(Octonion((7, -14, 21, 0, 0, 0, 0, 7 * BIG)), 7),
    ScaledOctonion(Octonion((1, -2, 3, -4, 5, -6, 7, -BIG)), 49),
]


@pytest.mark.parametrize("value", WIRE_VALUES, ids=range(len(WIRE_VALUES)))
def test_a_rendered_failure_is_what_json_dumps_writes(value):
    report = VerificationReport(IdentityId.T5_QUAD, Variant.AS_PRINTED, 3000, False,
                                value, -value, value + value)
    n, text = cli._json_failure(report)
    # A failure sits three levels deep: list, report, failure list.
    assert n == 3000
    assert_same_text("[\n  {\n    \"failures\": [\n" + text + "\n    ]\n  }\n]",
                     json.dumps([{"failures": [report.to_json()]}], indent=2))
    wire = report.to_json()
    n, line = cli._plain_failure(report)
    assert n == 3000
    assert_same_text(line, "  n=3000 lhs={} rhs={} delta={}\n".format(
        *(json.dumps(wire[side], separators=(",", ":")) for side in ("lhs", "rhs", "delta"))))


# --- determinism and --out ------------------------------------------------------


def test_outputs_are_byte_deterministic(capsys):
    runs = [run(capsys, "seq", "--kind", "j3", "--to", "40", "--format", "json"),
            run(capsys, "seq", "--kind", "j3", "--to", "40", "--format", "json")]
    assert runs[0] == runs[1]
    runs = [run(capsys, "oct", "--kind", "jO", "--n", "17", "--closed"),
            run(capsys, "oct", "--kind", "jO", "--n", "17", "--closed")]
    assert runs[0] == runs[1]
    runs = [run(capsys, "verify", "--all", "--to", "9", "--format", "json"),
            run(capsys, "verify", "--all", "--to", "9", "--format", "json")]
    assert runs[0] == runs[1]


def test_out_writes_same_bytes_as_stdout(capsys, tmp_path):
    _, stdout_text, _ = run(capsys, "verify", "--identity", "T5_QUAD", "--to", "3",
                            "--format", "json")
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--identity", "T5_QUAD", "--to", "3",
                       "--format", "json", "--out", str(target))
    assert code == 1
    assert out == ""
    assert target.read_text(encoding="utf-8") == stdout_text


# --- errors other than usage ----------------------------------------------------


def test_missing_out_directory_exits_3_without_traceback(tmp_path):
    # A fresh interpreter, so that whatever reaches stderr is what a user sees.
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    target = tmp_path / "no" / "such" / "dir" / "x.txt"
    result = subprocess.run(
        [sys.executable, "-m", "jacobsthal_octonions", "seq", "--kind", "j3", "--to", "3",
         "--out", str(target)],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        timeout=60)
    assert result.returncode == cli.EXIT_ERROR == 3
    assert result.stdout == ""
    (line,) = result.stderr.splitlines()
    assert line.startswith("j3o: error: FileNotFoundError: ")
    assert "Traceback" not in result.stderr


class ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone, on a file descriptor of its own."""

    def __init__(self, fd):
        self.fd = fd

    def fileno(self):
        return self.fd

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


class PartialPipe(io.TextIOWrapper):
    """A stdout whose reader goes during a write, on a file descriptor of
    its own: its buffer takes the first 16 bytes of each write and returns
    their count, as a pipe's buffered writer does, and the text layer
    drops that count."""

    class Buffer(io.BytesIO):
        def write(self, data):
            return super().write(bytes(data)[:16])

    def __init__(self, fd):
        super().__init__(self.Buffer(), encoding="utf-8")
        self.fd = fd

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("pipe", [ClosedPipe, PartialPipe], ids=["closed", "partial"])
@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("argv", ["seq --kind j3 --to 50", "oct --kind JO --n 40 --closed",
                                  "verify --all --variant both --to 300"])
def test_a_closed_stdout_exits_141_with_nothing_on_stderr(capsys, monkeypatch, tmp_path,
                                                          argv, fmt, cpus, pipe):
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        with contextlib.redirect_stdout(pipe(fd)):
            code, out, err, forks = verify_on(capsys, monkeypatch, cpus, fmt, *argv.split())
        assert (code, out, err) == (cli.EXIT_BROKEN_PIPE, "", "") == (141, "", "")
        assert forks == (cpus - 1 if argv.startswith("verify") else 0)
        # What is left to flush at exit goes to devnull.
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)
    assert_no_child_left()


def test_a_reader_that_stops_early_ends_the_request_with_141():
    # A fresh interpreter, whose flush at exit would raise again.
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    process = subprocess.Popen(
        [sys.executable, "-m", "jacobsthal_octonions", "verify", "--all", "--variant", "both",
         "--to", "300", "--format", "json"],
        env={**os.environ, "PYTHONPATH": str(src)}, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE)
    with process:
        assert process.stdout.read(20) == b'[\n  {\n    "id": "E4"'
        process.stdout.close()
        assert process.stderr.read() == b""
    assert process.returncode == 141


def test_a_reader_that_stops_early_ends_one_large_write_with_141():
    # One piece far larger than a pipe holds: the reader goes during the
    # write, whose short count is the only sign of it.
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    process = subprocess.Popen(
        [sys.executable, "-m", "jacobsthal_octonions", "seq", "--kind", "j3", "--to", "5000"],
        env={**os.environ, "PYTHONPATH": str(src)}, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE)
    with process:
        assert process.stdout.read(20) == b"0\t0\n1\t1\n2\t1\n3\t2\n4\t5\n"
        process.stdout.close()
        assert process.stderr.read() == b""
    assert process.returncode == 141


def test_internal_inconsistency_exits_3(capsys, monkeypatch):
    def broken(kind, n):
        raise InconsistencyError("closed form left a remainder")

    monkeypatch.setattr(cli, "oct_seq_closed", broken)
    code, out, err = run(capsys, "oct", "--kind", "JO", "--n", "5", "--closed")
    assert (code, out) == (3, "")
    assert err == "j3o: error: InconsistencyError: closed form left a remainder\n"
