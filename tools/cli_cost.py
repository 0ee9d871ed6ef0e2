"""Run one `pseudosup` command in fresh processes and report what each cost.

Run: `python3 tools/cli_cost.py [--runs K] -- <pseudosup args>`, for example
`python3 tools/cli_cost.py -- gen-data --out d.txt --seed 1 --n-per-class 500
--grid 16 16 --multimodal`. The command runs K times (default 3), one after
another, each in a new Python process with `PYTHONPATH` set to the `src/`
beside `tools/` and `OPENBLAS_NUM_THREADS=1`. The command's stdout is
discarded; its stderr passes through.

The child imports numpy first, as the bench's `calib` module does before
the program. Each run prints one line: its exit code, the seconds of each
phase of the process, the seconds of `import pseudosup.cli` alone, the number
of garbage collections that ran during that import (the difference of
`gc.get_stats()` across it, all generations), and the process's own peak RSS
(`RUSAGE_SELF`, MB of 1024 KiB, as the bench reports it). The phases are
set-up, from process start to the end of `import pseudosup.cli`; the run, the
wall time from there to the command's return; and shutdown, from that return
to the end of the process (the interpreter's exit: its garbage collections,
module teardown, flushing stdout). The import alone is the stretch in which
`bench/child.py` must take its first speed sample, one per 50 ms
(`SAMPLE_EVERY_S`). Set-up and shutdown join the parent's `time.monotonic_ns()`, read
just before the process starts and once it has ended, with the child's,
read after the import and at the return; CLOCK_MONOTONIC is shared by every
process of the machine. A run that exits before it can report prints `-`
for every figure. The exit status is 1 if any run exits non-zero, else 0.
"""

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# argv: the report's file descriptor, then the command's arguments
_CHILD = """\
import gc, os, resource, sys, time
import numpy
def collections():
    return sum(gen["collections"] for gen in gc.get_stats())
before, importing = collections(), time.monotonic_ns()
import pseudosup.cli
ready = time.monotonic_ns()
collected = collections() - before
start = time.perf_counter()
try:
    code = pseudosup.cli.main(sys.argv[2:])
finally:
    seconds = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    os.write(int(sys.argv[1]), b"%d %.3f %d %.3f %.1f %d"
             % (ready, (ready - importing) / 1e9, collected, seconds, peak, time.monotonic_ns()))
sys.exit(code)
"""


def run_once(command: list[str]) -> tuple[int, str, str, str, str, str, str]:
    """Exit code, set-up seconds, seconds of the import alone, collections
    during it, run and exit seconds and peak RSS MB of one run of `command` in
    a fresh process; `-` for a figure it did not report."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    read_fd, write_fd = os.pipe()
    try:
        started_ns = time.monotonic_ns()
        code = subprocess.run([sys.executable, "-c", _CHILD, str(write_fd), *command],
                              env=env, pass_fds=(write_fd,),
                              stdout=subprocess.DEVNULL).returncode
        ended_ns = time.monotonic_ns()
    finally:
        os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        report = fh.read().decode().split()
    if not report:
        return code, "-", "-", "-", "-", "-", "-"
    ready_ns, import_s, collected, seconds, peak, returned_ns = report
    return (code, f"{(int(ready_ns) - started_ns) / 1e9:.3f}", import_s, collected, seconds,
            f"{(ended_ns - int(returned_ns)) / 1e9:.3f}", peak)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3, help="runs, one after another")
    parser.add_argument("command", nargs="+", help="the pseudosup arguments, after --")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error(f"--runs must be >= 1, got {args.runs}")
    failed = False
    for i in range(1, args.runs + 1):
        code, setup_s, import_s, collected, run_s, exit_s, peak = run_once(args.command)
        failed |= code != 0
        print(f"run {i}: exit {code}, set-up {setup_s} s, import {import_s} s, "
              f"import collections {collected}, run {run_s} s, shutdown {exit_s} s, "
              f"peak RSS {peak} MB", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
