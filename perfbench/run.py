"""Benchmark of the ``j3o`` command line on three workloads.

    python3 perfbench/run.py --workload suite|witness|deep-terms \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the package is imported from ``src/``.
Every request is a fresh ``python3 -m jacobsthal_octonions`` subprocess,
one at a time (closed loop), and every output is checked (see checks.py).
Requests repeat in whole cycles while one more cycle fits in ``--seconds``.

``--trace 0`` prints the end-to-end metrics, measured without tracing.
``--trace 1`` alternates untraced cycles with cycles whose requests run
under perfbench/tracer.py, and prints the per-layer metrics and the tracing
overhead.  The last line of stdout is the result object; the line before it
records the environment.  perfbench/README.md describes the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks

ROOT = Path.cwd()
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"
TRACER = Path(__file__).resolve().with_name("tracer.py")

# Set-up is timed this many times before the first cycle and once more
# before every cycle, so that its median spans the whole run.
SETUP_PROBES = 5
# A run must end within 180 s: every child still running 170 s after the
# start is killed.
HARD_LIMIT_S = 170.0

# Centres of the deep-terms bands; each n is drawn within 1% of its centre.
# The 20k and 40k bands lie past the 4,300-digit str() limit (n ~ 14,290).
DEEP_BANDS = (5000, 10000, 20000, 40000)
WITNESS_START, WITNESS_JITTER, WITNESS_WIDTH = 3000, 15, 300
SUITE_TO = 1000

END_TO_END = {
    "setup_s": "s",
    "checks_per_s": "1/s",
    "digits_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

REPORT_NAMES = [f"{name}.{variant}" for name, variant in checks.REPORTS]
MODULES = ("sequences", "octonion_sequences", "octonion", "identities")
PER_LAYER = {
    "sequences.seq_value.calls": "count",
    "sequences.seq_value.self_s": "s",
    "sequences.partial_sum.self_s": "s",
    "sequences.cold_term_s": "s",
    "sequences.cold_term_peak_mb": "MB",
    "octonion_sequences.oct_seq.calls": "count",
    "octonion_sequences.oct_seq.self_s": "s",
    "octonion_sequences.oct_seq_closed.self_s": "s",
    "octonion.Octonion.mul.calls": "count",
    "octonion.Octonion.mul.self_s": "s",
    "octonion.Octonion.init.calls": "count",
    "octonion.ScaledOctonion.init.calls": "count",
    "octonion.ScaledOctonion.init.self_s": "s",
    "octonion.max_coeff_bits": "bits",
    "identities.verify.calls": "count",
    "identities.verify.self_s": "s",
    **{f"identities.range_s.{name}": "s" for name in REPORT_NAMES},
    "identities.value_to_json.self_s": "s",
    "identities.RangeReport.to_json.self_s": "s",
    "cli.main.self_s": "s",
    "cli.output_bytes": "bytes",
    "cli.digits_emitted": "count",
    **{f"{module}.self_s": "s" for module in MODULES},
    "trace.uninstrumented_s": "s",
    "trace.traced_wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


def build_requests(workload: str, seed: int, tiny: bool = False) -> list[checks.Request]:
    """One cycle of a workload.  The seed only jitters indices: the witness
    window start and each deep-terms n within its band.  ``tiny`` shrinks
    every size for the self-test."""
    rng = random.Random(seed)
    if workload == "suite":
        return [checks.Suite(30 if tiny else SUITE_TO)]
    if workload == "witness":
        start = 30 if tiny else WITNESS_START + rng.randint(-WITNESS_JITTER, WITNESS_JITTER)
        end = start + (3 if tiny else WITNESS_WIDTH)
        return [checks.Witness(identity, start, end) for identity in ("T5_QUAD", "T6_QUAD")]
    requests: list[checks.Request] = []
    for centre in DEEP_BANDS:
        centre = centre // 100 if tiny else centre
        j3, jl3, jo = (centre + rng.randint(-(centre // 100), centre // 100) for _ in range(3))
        requests += [checks.Term("j3", j3), checks.Term("jl3", jl3), checks.ClosedOctonion(jo)]
    return requests


@dataclass(frozen=True)
class Run:
    """One finished request."""

    request: checks.Request
    wall_s: float
    rss_mb: float
    output_bytes: int
    outcome: checks.Outcome
    trace: dict | None


class Runner:
    """Starts one child at a time, waits for it with ``os.wait4`` and judges
    its output.  Identical requests must give byte-identical stdout."""

    def __init__(self, started: float) -> None:
        self.env = dict(os.environ)
        self.env.pop("PYTHONINTMAXSTRDIGITS", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.started = started
        self.digests: dict[tuple[str, ...], str] = {}

    def spawn(self, argv: list[str]) -> tuple[float, int, float, bytes, bytes]:
        """Run argv to completion, killing it at the run's time limit:
        (wall s, exit code or -signal, peak RSS MB, stdout, stderr)."""
        out_path, err_path = SCRATCH / "stdout", SCRATCH / "stderr"
        timeout = max(1.0, HARD_LIMIT_S - (time.perf_counter() - self.started))
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            child = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                     stderr=err, env=self.env)
            watchdog = threading.Timer(timeout, child.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            except BaseException:
                child.kill()
                child.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        return (wall, child.returncode, usage.ru_maxrss / 1024,
                out_path.read_bytes(), err_path.read_bytes())

    def run(self, request: checks.Request, traced: bool) -> Run:
        trace_path = SCRATCH / "trace.json"
        prefix = [str(TRACER), str(trace_path)] if traced else ["-m", "jacobsthal_octonions"]
        wall, code, rss, stdout, stderr = self.spawn([sys.executable, *prefix, *request.argv()])
        if code < 0:
            outcome = checks.Outcome("crash", checks.NOTHING, f"killed by signal {-code}")
        else:
            outcome = checks.judge(request, code, stdout, stderr)
        if outcome.status == "ok":
            digest = hashlib.sha256(stdout).hexdigest()
            if self.digests.setdefault(request.argv(), digest) != digest:
                outcome = checks.Outcome("wrong", checks.NOTHING,
                                         "stdout differs from an identical earlier request")
        trace = None
        if traced and trace_path.exists():
            trace = json.loads(trace_path.read_text())
            trace_path.unlink()
        return Run(request, wall, rss, len(stdout), outcome, trace)

    def cycle(self, requests: list[checks.Request], traced: bool = False) -> list[Run]:
        return [self.run(request, traced) for request in requests]


def check_import(runner: Runner) -> dict:
    """Check that the package imports from this checkout: the child facts."""
    probe = ("import json, sys, jacobsthal_octonions as p; print(json.dumps("
             "{'file': p.__file__, 'limit': sys.get_int_max_str_digits()}))")
    _, code, _, stdout, stderr = runner.spawn([sys.executable, "-c", probe])
    if code != 0:
        raise SystemExit(f"cannot import jacobsthal_octonions from {SRC}: "
                         + stderr.decode(errors="replace").strip())
    facts = json.loads(stdout)
    if not Path(facts["file"]).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"jacobsthal_octonions imports from {facts['file']}, not {SRC}")
    return facts


def time_setup(runner: Runner) -> float:
    """Wall time of a fresh interpreter that imports the package and exits."""
    return runner.spawn([sys.executable, "-c", "import jacobsthal_octonions"])[0]


def environment(workload: str, seed: int, facts: dict,
                requests: list[checks.Request]) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "child_int_max_str_digits": facts["limit"],
        "requests": [" ".join(r.argv()) for r in requests],
    }


def _typical_cycle(cycles: list[list[Run]]) -> tuple[float, float, float]:
    """(wall s, checks, digits) of one cycle as the sum, over its requests,
    of each request's fastest run and that run's work.

    The machine is shared: other tenants slow a request down by up to a
    factor of two for seconds at a time, and never speed it up.  So each
    request's fastest run is the steadiest estimate of its own cost (the
    argument of ``timeit``); medians across runs are taken by whoever
    compares runs."""
    wall = checks_done = digits = 0.0
    for repeats in zip(*cycles):
        fastest = min(repeats, key=lambda run: run.wall_s)
        wall += fastest.wall_s
        checks_done += fastest.outcome.verdict.checks
        digits += fastest.outcome.verdict.digits
    return wall, checks_done, digits


def end_to_end(cycles: list[list[Run]], setup_s: float) -> dict[str, float]:
    runs = [run for cycle in cycles for run in cycle]
    wall, checks_done, digits = _typical_cycle(cycles)
    return {
        "setup_s": setup_s,
        "checks_per_s": checks_done / wall,
        "digits_per_s": digits / wall,
        "peak_rss_mb": max(run.rss_mb for run in runs),
        "ok_ratio": sum(not run.outcome.failed for run in runs) / len(runs),
    }


def layers(cycle: list[Run]) -> dict[str, float]:
    """Per-layer metrics of one traced cycle, summed over its requests."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    range_s = dict.fromkeys(REPORT_NAMES, 0.0)
    for run in cycle:
        trace = run.trace or {}
        for name, count in trace.get("calls", {}).items():
            calls[name] = calls.get(name, 0) + count
        for name, seconds in trace.get("self_s", {}).items():
            self_s[name] = self_s.get(name, 0.0) + seconds
        for _, label, start, end, _ in trace.get("spans", ()):
            report = label.removeprefix("identities.range_s.")
            if report != label:
                range_s[report] += end - start
    wall = sum(run.wall_s for run in cycle)
    traces = [run.trace for run in cycle if run.trace]
    values: dict[str, float] = {}
    for name in PER_LAYER:
        key, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = calls.get(key, 0)
        elif kind == "self_s" and key in MODULES:
            values[name] = sum(s for k, s in self_s.items() if k.startswith(key + "."))
        elif kind == "self_s":
            values[name] = self_s.get(key, 0.0)
    values.update({
        "sequences.cold_term_s": sum(t["cold_term_s"] for t in traces),
        "sequences.cold_term_peak_mb": max(
            (t["cold_term_peak_bytes"] for t in traces), default=0) / 2 ** 20,
        "octonion.max_coeff_bits": max((t["max_coeff_bits"] for t in traces), default=0),
        **{f"identities.range_s.{name}": seconds for name, seconds in range_s.items()},
        "cli.output_bytes": sum(run.output_bytes for run in cycle),
        "cli.digits_emitted": sum(run.outcome.verdict.digits for run in cycle),
        "trace.uninstrumented_s": wall - sum(self_s.values()),
        "trace.traced_wall_s": wall,
    })
    return values


def per_layer(untraced: list[list[Run]], traced: list[list[Run]]) -> dict[str, float]:
    """Per-layer metrics of the fastest traced cycle, whose self times and
    remainder add up to its wall time, and the tracing overhead against the
    fastest untraced cycle."""
    values = min((layers(cycle) for cycle in traced),
                 key=lambda v: v["trace.traced_wall_s"])
    values["trace.untraced_wall_s"] = min(sum(run.wall_s for run in cycle) for cycle in untraced)
    values["trace.overhead_s"] = values["trace.traced_wall_s"] - values["trace.untraced_wall_s"]
    return values


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  tiny: bool = False) -> dict:
    """Measure one workload and print the environment and result lines."""
    started = time.perf_counter()
    # The checks compare values of any size; the children keep the default.
    sys.set_int_max_str_digits(0)
    SCRATCH.mkdir(exist_ok=True)
    runner = Runner(started)
    requests = build_requests(workload, seed, tiny)
    facts = check_import(runner)
    setup_times = [time_setup(runner) for _ in range(SETUP_PROBES)]
    untraced: list[list[Run]] = []
    traced: list[list[Run]] = []
    # Start another cycle only if one more, as long as the last, still ends
    # within --seconds of the start; the first cycle always runs.
    while True:
        cycle_start = time.perf_counter()
        setup_times.append(time_setup(runner))
        untraced.append(runner.cycle(requests))
        if trace:
            traced.append(runner.cycle(requests, traced=True))
        now = time.perf_counter()
        if 2 * now - cycle_start - started > seconds:
            break
    for name in ("stdout", "stderr"):
        (SCRATCH / name).unlink(missing_ok=True)
    if traced:
        (SCRATCH / f"trace-{workload}-{seed}.json").write_text(json.dumps(
            [{"request": list(run.request.argv()), **run.trace} for run in traced[-1] if run.trace]))
    runs = [run for cycle in untraced + traced for run in cycle]
    if trace:
        metrics, units = per_layer(untraced, traced), PER_LAYER
    else:
        metrics, units = end_to_end(untraced, statistics.median(setup_times)), END_TO_END
    record = environment(workload, seed, facts, requests)
    record["failures"] = sorted({f"{' '.join(run.request.argv())}: {run.outcome.status}: "
                                 f"{run.outcome.detail}"
                                 for run in runs if run.outcome.failed})
    result = {
        "correct": all(run.outcome.status != "wrong" for run in runs),
        "attempted": len(runs),
        "failed": sum(run.outcome.failed for run in runs),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps({"environment": record}))
    print(json.dumps(result), flush=True)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("suite", "witness", "deep-terms"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "jacobsthal_octonions" / "__init__.py").is_file():
        print(f"run.py: no package source under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
