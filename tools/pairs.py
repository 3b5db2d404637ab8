"""Launcher pairs: two source trees timed on the same ``j3o`` requests.

    python3 tools/pairs.py --parent DIR --change DIR --label NAME \
        [--pairs N] [--seed S] [--pin both|pinned|unpinned] [--out FILE] \
        REQUEST [REQUEST ...]

Each REQUEST is one ``j3o`` argv in one string, for example ``"verify
--identity T6_QUAD --variant both --from 100000 --to 100063 --format
csv"``.  Each tree is a checkout whose package is imported from its
``src/``.  For every request and pinning, the two trees run N pairs, one
request at a time, alternately: the seed picks which tree runs first in the
first pair, and the order swaps at every pair.  Pinned requests run on one
CPU (``os.sched_setaffinity`` in the child); unpinned ones on every CPU this
process may use, so a ``verify`` forks its parts.

Every request is forked from here and ``os.execve``-d into ``python -m
jacobsthal_octonions``, with stdout to a file, and reaped by ``os.wait4``.
Its wall time runs from the fork to the reap, and its peak is the
``ru_maxrss`` that ``wait4`` reports: that of the largest of the request's
own processes, its reaped parts included (Linux takes the maximum).  Linux
counts into it the resident size of this small script at the fork, ~10 MB,
so a peak below that does not show.

A pair whose stdouts or exit codes differ is listed with no timing, and
its request's summary says so: a timing of a changed output compares
nothing.  The json written to ``--out`` (``BENCH_<label>.json`` by
default) holds every run, and per request and pinning each side's median
and quartiles of wall time and peak, the parent-to-change ratio of the
median wall times, and how many pairs the change won.  It records the
Python version, the CPU count, ``PYTHONDONTWRITEBYTECODE`` and a hash of
each tree's ``src/``.  It gates nothing: claims on the ``perfbench``
workloads still go through ``perfbench/run.py``.  Only the standard
library is used.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shlex
import statistics
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")


def tree_hash(tree: Path) -> str:
    """A sha256 of the names and contents of the ``.py`` files under
    ``tree/src``, so a record names the code it timed."""
    digest = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*.py")):
        digest.update(str(path.relative_to(tree)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def file_hash(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def run_one(tree: Path, argv: list[str], cpu: int | None, out: Path) -> dict:
    """One request of ``tree``, pinned to ``cpu`` unless it is None: its
    wall time, peak, exit code and the hash and size of its stdout."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    args = [sys.executable, "-m", "jacobsthal_octonions", *argv]
    with open(out, "wb") as stdout, open(os.devnull, "wb") as stderr:
        start = time.perf_counter()
        pid = os.fork()
        if pid == 0:
            try:
                os.dup2(stdout.fileno(), 1)
                os.dup2(stderr.fileno(), 2)
                if cpu is not None:
                    os.sched_setaffinity(0, {cpu})
                os.execve(sys.executable, args, env)
            finally:
                os._exit(127)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    return {"wall_s": round(wall, 4), "peak_mb": round(usage.ru_maxrss / 1024, 1),
            "exit": os.waitstatus_to_exitcode(status),
            "stdout_sha256": file_hash(out), "stdout_bytes": out.stat().st_size}


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0] if values else None, "q1": None, "q3": None}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summary(pairs: list[dict]) -> dict:
    """Medians, quartiles, ratio and wins over the pairs whose outputs
    agree; none at all when any pair's differ."""
    differ = [p["pair"] for p in pairs if not p["same_output"]]
    if differ:
        return {"outputs_differ_in_pairs": differ}
    result = {side: {"wall_s": quartiles([p[side]["wall_s"] for p in pairs]),
                     "peak_mb": quartiles([p[side]["peak_mb"] for p in pairs])}
              for side in SIDES}
    parent, change = (result[side]["wall_s"]["median"] for side in SIDES)
    result["speedup"] = round(parent / change, 3) if change else None
    result["change_won"] = f"{sum(p['change']['wall_s'] < p['parent']['wall_s'] for p in pairs)}" \
                           f"/{len(pairs)}"
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent's source tree")
    parser.add_argument("--change", type=Path, required=True, help="the change's source tree")
    parser.add_argument("--label", required=True, help="names the output, BENCH_<label>.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pin", choices=("both", "pinned", "unpinned"), default="both")
    parser.add_argument("--out", type=Path, help="default: BENCH_<label>.json here")
    parser.add_argument("requests", nargs="+", metavar="REQUEST", help="one j3o argv")
    args = parser.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    cpus = sorted(os.sched_getaffinity(0))
    pins = {"both": (cpus[0], None), "pinned": (cpus[0],), "unpinned": (None,)}[args.pin]
    rng = random.Random(args.seed)
    rows = []
    with tempfile.TemporaryDirectory(prefix="pairs-") as scratch:
        outs = {side: Path(scratch, side) for side in SIDES}
        for request in args.requests:
            for cpu in pins:
                first = rng.randrange(2)
                pairs = []
                for pair in range(args.pairs):
                    order = SIDES if (pair + first) % 2 == 0 else SIDES[::-1]
                    record = {"pair": pair, "order": list(order)}
                    for side in order:
                        record[side] = run_one(trees[side], shlex.split(request), cpu,
                                               outs[side])
                    record["same_output"] = all(
                        record["parent"][key] == record["change"][key]
                        for key in ("exit", "stdout_sha256"))
                    if not record["same_output"]:
                        for side in SIDES:
                            del record[side]["wall_s"]
                    pairs.append(record)
                    print(json.dumps({"request": request, "pinned": cpu is not None, **record}),
                          file=sys.stderr)
                rows.append({"request": request, "pinned": cpu is not None,
                             "summary": summary(pairs), "pairs": pairs})

    result = {
        "label": args.label,
        "tool": "tools/pairs.py",
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "cpus_available": len(cpus),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "pairs": args.pairs,
        "seed": args.seed,
        "trees": {side: {"src_sha256": tree_hash(tree)} for side, tree in trees.items()},
        "requests": rows,
    }
    out = args.out or Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(result, indent=2) + "\n")
    differ = [row["request"] for row in rows if "outputs_differ_in_pairs" in row["summary"]]
    for request in differ:
        print(f"pairs: outputs differ, no timing: {request}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
