"""One timed CLI process of the benchmark.

    python3 child.py SPAWN_NS RESULT_JSON TRACE -- CLI_ARGS...

SPAWN_NS is `time.monotonic_ns()` read by the parent just before it started
this process; CLOCK_MONOTONIC is shared by all processes of the machine, so
`setup_s` covers interpreter start-up plus `import pseudosup.cli`. With no
CLI_ARGS the process stops there (a set-up probe). With TRACE set to 1 the
layer functions are wrapped by `spans.Tracer` after the import and the spans
are added to the result. The CLI's own exit code is stored in the result and
returned.

Untraced processes also sample the speed of their vCPU while they run: every
`SAMPLE_EVERY_S` a timer signal runs `calib.Kernel.sample()`, a fixed
millisecond of work, and records how long it took. The handler's time and the
kernel's set-up are left out of `setup_s` and `run_s`; the samples taken during each of the two go
into the result, so the parent can scale both to a reference speed. numpy is
imported with `calib`, before the program, which imports it anyway.
"""

import gc
import json
import resource
import signal
import sys
import time

import calib

SAMPLE_EVERY_S = 0.05


class SpeedSampler:
    """Timer-driven `calib.Kernel.sample()` calls: (start_ns, duration_ns) of each."""

    def __init__(self, kernel: calib.Kernel) -> None:
        self.kernel = kernel
        self.starts: list[int] = []
        self.durations: list[int] = []

    def _on_alarm(self, signum, frame) -> None:
        gc_was_on = gc.isenabled()
        gc.disable()  # a collection of the program's garbage is not calibration
        t0 = time.monotonic_ns()
        self.kernel.sample()
        self.durations.append(time.monotonic_ns() - t0)
        self.starts.append(t0)
        if gc_was_on:
            gc.enable()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def window(self, t0: int, t1: int) -> tuple[float, list[float]]:
        """Seconds spent in samples that started in [t0, t1), and their durations."""
        durs = [d / 1e9 for s, d in zip(self.starts, self.durations) if t0 <= s < t1]
        return sum(durs), durs


def main() -> int:
    spawn_ns, result_path, trace = int(sys.argv[1]), sys.argv[2], sys.argv[3] == "1"
    cli_args = sys.argv[sys.argv.index("--") + 1:]
    sampler = None
    init_ns = 0
    if not trace:
        t0 = time.monotonic_ns()
        sampler = SpeedSampler(calib.Kernel())
        init_ns = time.monotonic_ns() - t0
        sampler.start()
    start_ns = time.monotonic_ns()
    from pseudosup.cli import main as cli_main

    ready_ns = time.monotonic_ns()
    result: dict = {"setup_s": (ready_ns - spawn_ns - init_ns) / 1e9}
    if sampler is not None:
        spent, durs = sampler.window(start_ns, ready_ns)
        result.update(setup_s=result["setup_s"] - spent, setup_samples=durs)
    if not cli_args:
        if sampler is not None:
            sampler.stop()
        result["rc"] = 0
        with open(result_path, "w") as fh:
            json.dump(result, fh)
        return 0
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        cli_main = sys.modules["pseudosup.cli"].main
    t0 = time.monotonic_ns()
    rc = cli_main(cli_args)
    t1 = time.monotonic_ns()
    result.update(rc=rc, run_s=(t1 - t0) / 1e9,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if sampler is not None:
        sampler.stop()
        spent, durs = sampler.window(t0, t1)
        result.update(run_s=result["run_s"] - spent, run_samples=durs,
                      sampled_s=(init_ns + sum(sampler.durations)) / 1e9)
    if tracer is not None:
        result["spans"] = tracer.dump()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
