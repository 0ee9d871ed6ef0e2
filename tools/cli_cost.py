"""Run one `pseudosup` command in fresh processes and report what each cost.

Run: `python3 tools/cli_cost.py [--runs K] -- <pseudosup args>`, for example
`python3 tools/cli_cost.py -- gen-data --out d.txt --seed 1 --n-per-class 500
--grid 16 16 --multimodal`. The command runs K times (default 3), one after
another, each in a new Python process with `PYTHONPATH` set to the `src/`
beside `tools/` and `OPENBLAS_NUM_THREADS=1`. The command's stdout is
discarded; its stderr passes through.

Each run prints one line: its exit code, the wall seconds from after
`import pseudosup.cli` to the command's return, and the process's own peak
RSS (`RUSAGE_SELF`, MB of 1024 KiB, as the bench reports it). A run that
exits before it can report prints `-` for both. The exit status is 1 if any
run exits non-zero, else 0.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# argv: the report's file descriptor, then the command's arguments
_CHILD = """\
import os, resource, sys, time
import pseudosup.cli
start = time.perf_counter()
try:
    code = pseudosup.cli.main(sys.argv[2:])
finally:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    os.write(int(sys.argv[1]), b"%.3f %.1f" % (time.perf_counter() - start, peak))
sys.exit(code)
"""


def run_once(command: list[str]) -> tuple[int, str, str]:
    """Exit code, seconds after import and peak RSS MB of one run of `command`
    in a fresh process; `-` for a figure the process did not report."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    read_fd, write_fd = os.pipe()
    try:
        code = subprocess.run([sys.executable, "-c", _CHILD, str(write_fd), *command],
                              env=env, pass_fds=(write_fd,),
                              stdout=subprocess.DEVNULL).returncode
    finally:
        os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        report = fh.read().decode().split()
    seconds, peak = report or ("-", "-")
    return code, seconds, peak


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3, help="runs, one after another")
    parser.add_argument("command", nargs="+", help="the pseudosup arguments, after --")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error(f"--runs must be >= 1, got {args.runs}")
    failed = False
    for i in range(1, args.runs + 1):
        code, seconds, peak = run_once(args.command)
        failed |= code != 0
        print(f"run {i}: exit {code}, {seconds} s after import, peak RSS {peak} MB", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
