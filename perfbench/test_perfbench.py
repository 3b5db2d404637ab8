"""Self-tests of the benchmark: the output checks catch tampered results, and
a tiny-size run prints every metric that BENCHMARK.json declares.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run

REPO = Path(__file__).resolve().parent.parent
DECLARED = json.loads((REPO / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def restore_int_digit_limit():
    limit = sys.get_int_max_str_digits()
    yield
    sys.set_int_max_str_digits(limit)


def j3o(request: checks.Request) -> tuple[int, bytes, bytes]:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run([sys.executable, "-m", "jacobsthal_octonions", *request.argv()],
                          capture_output=True, env=env, timeout=60)
    return done.returncode, done.stdout, done.stderr


def change_one_digit(stdout: bytes) -> bytes:
    """Change the middle digit of the longest decimal number in stdout."""
    longest = max(re.finditer(rb"\d+", stdout), key=lambda m: m.end() - m.start())
    at = (longest.start() + longest.end()) // 2
    digit = (stdout[at] - ord("0") + 1) % 10
    return stdout[:at] + str(digit).encode() + stdout[at + 1:]


REQUESTS = [checks.Suite(30), checks.Witness("T5_QUAD", 30, 33),
            checks.Witness("T6_QUAD", 0, 4), checks.Term("j3", 70),
            checks.Term("jl3", 71), checks.ClosedOctonion(40)]


@pytest.mark.parametrize("request_", REQUESTS, ids=lambda r: " ".join(r.argv()))
def test_checker_accepts_real_output_and_rejects_tampering(request_):
    code, stdout, stderr = j3o(request_)
    assert checks.judge(request_, code, stdout, stderr).status == "ok"

    tampered = checks.judge(request_, code, change_one_digit(stdout), stderr)
    assert tampered.failed and tampered.status == "wrong"

    wrong_code = 1 - request_.expected_exit
    mislabelled = checks.judge(request_, wrong_code, stdout, stderr)
    assert mislabelled.failed and mislabelled.status == "wrong"


def test_traceback_counts_as_a_crash_not_a_wrong_result():
    stderr = (b"Traceback (most recent call last):\n  ...\n"
              b"ValueError: Exceeds the limit (4300 digits) for integer string conversion\n")
    outcome = checks.judge(checks.Term("j3", 20000), 1, b"", stderr)
    assert outcome.failed and outcome.status == "crash"
    assert outcome.verdict == checks.NOTHING


def test_checker_verifies_values_past_the_digit_limit():
    # What a fixed program prints in the 40k band; run.py lifts its own limit.
    sys.set_int_max_str_digits(0)
    term = checks.Term("jl3", 40000)
    stdout = f"40000\t{checks.jl3(40000)}\n".encode()
    outcome = checks.judge(term, 0, stdout, b"")
    assert outcome.status == "ok" and outcome.verdict.digits == len(stdout) - 7


def test_seed_only_jitters_indices_and_keeps_bands_clear_of_the_digit_limit():
    assert run.build_requests("suite", 1) == run.build_requests("suite", 2)
    for seed in range(200):
        assert run.build_requests("deep-terms", seed) == run.build_requests("deep-terms", seed)
        for request in run.build_requests("deep-terms", seed):
            centre = min(run.DEEP_BANDS, key=lambda c: abs(c - request.n))
            assert abs(request.n - centre) <= centre // 100
            # JO(n) prints J3(n + 7); 4,300 digits start near n = 14,286.
            assert not 14000 <= request.n <= 14400
        witness = run.build_requests("witness", seed)
        assert {r.identity for r in witness} == {"T5_QUAD", "T6_QUAD"}
        assert abs(witness[0].n_from - run.WITNESS_START) <= run.WITNESS_JITTER


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
def test_tiny_run_prints_every_declared_metric(workload, trace, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", REPO / "src")
    monkeypatch.setattr(run, "SCRATCH", tmp_path)
    run.run_benchmark(workload, seed=7, seconds=0, trace=trace, tiny=True)
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_traced_self_times_and_remainder_add_up_to_the_wall_time(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", REPO / "src")
    monkeypatch.setattr(run, "SCRATCH", tmp_path)
    run.run_benchmark("suite", seed=1, seconds=0, trace=True, tiny=True)
    metrics = {k: v["value"] for k, v in
               json.loads(capsys.readouterr().out.splitlines()[-1])["metrics"].items()}
    parts = [f"{module}.self_s" for module in run.MODULES]
    parts += ["cli.main.self_s", "trace.uninstrumented_s"]
    assert sum(metrics[p] for p in parts) == pytest.approx(metrics["trace.traced_wall_s"])
    assert metrics["sequences.seq_value.calls"] > 0


def test_run_refuses_a_directory_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for source in Path(__file__).parent.glob("*.py"):
        (bench / source.name).write_text(source.read_text())
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "suite",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == b""
