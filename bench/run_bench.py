"""pseudosup benchmark: three CLI workloads, end-to-end metrics, traced layers.

    python3 bench/run_bench.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported from
`src/` next to this directory, nothing is installed. The workload seed feeds
`pseudosup gen-data`, which writes the input file outside the timed region;
the program under test then gets only that file and its flags.

The client is one closed loop: a single parent runs one CLI process at a time,
each with `OPENBLAS_NUM_THREADS=1`, until the next run would not fit in
`--seconds`. Every run's outputs are checked; a failed run counts in `failed`
and its timings are dropped. Each untraced process samples the speed of its
vCPU while it is timed (see `calib.py` and `child.py`), and its times are
scaled to a reference speed. `--trace 0` reports the end-to-end metrics as
medians of the scaled times over the runs. `--trace 1` alternates untraced
and traced runs and reports per-layer metrics (calls, self time, per-call
percentiles) as medians over the traced runs, plus the tracing overhead. The
last line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}.

`--workload all` runs the three workloads in turn. `--record` stores the
run's output digest, machine and metrics in `bench/reference.json`.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import calib
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference.json"

# A run must end within 180 s; leave room for reporting after the last process.
RUN_DEADLINE_S = 170.0
# Import-only processes run before the timed loop; with the CLI runs' own
# set-up they give setup_s enough values on the slow analyze_corr workload.
SETUP_PROBES = 3

# Re-anchor baseline from ROADMAP.md (single runs, same machine class), used
# only to flag traced per-call means that differ by more than 2x.
ROADMAP_BASELINE_US = {
    "engine.classifier_step": 259.0,
    "engine.eval_val_loss": 66.0,
    "engine.policy_update": 4700.0,
    "engine.evaluate": 1200.0,
}
ROADMAP_IMPORT_S = 0.94

TRAIN_FLAGS = ("--epochs", "20", "--classifier-lr", "1e-3", "--policy-lr", "1e-3")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    gen_args: tuple[str, ...]
    cli_args: tuple[str, ...]  # "{data}" and "{out}" are filled in per run
    cells: tuple[tuple[str, tuple[int, ...]], ...] = ()  # (method, seeds)
    step_rows: int = 0  # step rows per history.csv
    epochs: int = 0
    summary: str = ""  # summary.csv or comparison.csv
    corr_bins: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train_pseudo_sup",
            "hot REINFORCE loop: 5 pseudo_sup cells x 320 steps, beta=50, on the criterion-8 data shape",
            ("--n-per-class", "1430", "--dim", "20", "--label-fraction", "0.25"),
            ("run", "--dataset", "{data}", "--output-dir", "{out}", "--method", "pseudo_sup",
             "--seeds", "1", "2", "3", "4", "5", *TRAIN_FLAGS),
            cells=(("pseudo_sup", (1, 2, 3, 4, 5)),),
            step_rows=320, epochs=20, summary="summary.csv",
        ),
        Workload(
            "compare_methods",
            "cli orchestration over three training paths (no policy, REINFORCE, self-training), 9 cells",
            ("--n-per-class", "500", "--dim", "20"),
            ("compare", "--dataset", "{data}", "--output-dir", "{out}",
             "--methods", "supervised", "pseudo_sup", "self_training",
             "--confidence-threshold", "0.9", "--seeds", "1", "2", "3", *TRAIN_FLAGS),
            cells=tuple((m, (1, 2, 3)) for m in ("supervised", "pseudo_sup", "self_training")),
            step_rows=220, epochs=20, summary="comparison.csv",
        ),
        Workload(
            "analyze_corr",
            "metrics and data loading only: 210,925 pairwise correlations over 308 multimodal features",
            ("--n-per-class", "500", "--grid", "16", "16", "--multimodal"),
            ("analyze-corr", "--dataset", "{data}", "--out-dir", "{out}", "--bins", "50"),
            corr_bins=50,
        ),
    )
}

# BENCHMARK.json lists train_pseudo_sup and analyze_corr only; between them
# they cover every layer. compare_methods stays available by name and in
# `--workload all`.

# (name, unit, better, bound); BENCHMARK.json mirrors this list. Over ten
# seeds the quartile spread of the scaled times measured 0.02-0.08 (of the
# unscaled ones 0.07-0.43). Scaling leaves a bias: when the vCPU is 1.5x
# slower the program slows about 1.3x as much as the calibration in log
# terms, so scaled medians rise by up to about 15%. Each time bound is at least
# three times the widest spread seen, which takes the widest bound allowed.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("items_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
)


def per_layer_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric; BENCHMARK.json mirrors it."""
    specs = []
    for qualname in spans.traced_names():
        specs.append((f"{qualname}.calls", "count", "lower"))
        specs.append((f"{qualname}.self_s", "s", "lower"))
        if qualname in spans.PER_CALL:
            specs.append((f"{qualname}.p50_us", "us", "lower"))
            specs.append((f"{qualname}.tail_us", "us", "lower"))
            specs.append((f"{qualname}.tail_pct", "%", "higher"))
    specs.extend((f"{layer}.self_s", "s", "lower") for layer in spans.TRACED)
    specs.extend((name, "count", "lower") for name, _ in spans.COUNTERS.values())
    specs.append(("engine.reward_nonzero_ratio", "ratio", "higher"))
    specs.append(("trace.overhead_s", "s", "lower"))
    return specs


# ---------------------------------------------------------------------------
# inputs and output checks

def bench_env(work: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1", TMPDIR=str(work))
    return env


def gen_input(wl: Workload, seed: int, path: Path, env: dict[str, str],
              timeout: float) -> None:
    """Write the workload's input file for `seed` with `pseudosup gen-data`."""
    cmd = [sys.executable, "-m", "pseudosup.cli", "gen-data", "--out", str(path),
           "--seed", str(seed), *wl.gen_args]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"gen-data failed ({proc.returncode}): {proc.stderr.strip()}")


def count_labeled(path: Path) -> int:
    """Labeled samples (train-labeled, validation, test) in a dataset file."""
    with open(path) as fh:
        return sum(1 for line in fh if line.split(" ", 1)[0] in ("trainL", "val", "test"))


def _unit_float(text: str, what: str, errors: list[str]) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and 0.0 <= value <= 1.0):
        errors.append(f"{what}: {text!r} is not a finite value in [0, 1]")
    return value


def _read_rows(path: Path, errors: list[str]) -> list[dict[str, str]]:
    if not path.is_file():
        errors.append(f"missing {path.name} ({path.parent})")
        return []
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_outputs(wl: Workload, out: Path) -> tuple[list[str], dict]:
    """Check one run's output directory. Returns the failures found and facts
    read from the outputs (step rows, cells, mean test AUC, reward counts)."""
    errors: list[str] = []
    facts = {"steps": 0, "cells": 0, "rewards": 0, "rewards_nonzero": 0}
    if wl.corr_bins:
        for group in ("within", "between"):
            rows = _read_rows(out / f"corr_{group}.csv", errors)
            if not rows:
                continue
            centers = [float(r["bin_center"]) for r in rows]
            dens = [float(r["density"]) for r in rows]
            width = (centers[-1] - centers[0]) / (len(centers) - 1) if len(centers) > 1 else 0.0
            mass = sum(dens) * width
            if len(rows) != wl.corr_bins or not math.isclose(mass, 1.0, abs_tol=1e-9):
                errors.append(f"corr_{group}.csv: {len(rows)} bins, density mass {mass!r}")
        return errors, facts
    for method, seeds in wl.cells:
        for seed in seeds:
            cell = out / method / str(seed)
            needed = ["classifier.ckpt"]
            if method.startswith("pseudo_sup"):
                needed.append("policy.ckpt")
            errors.extend(f"missing {cell / n}" for n in needed if not (cell / n).is_file())
            history = _read_rows(cell / "history.csv", errors)
            steps = [r for r in history if r["record"] == "step"]
            epochs = [r for r in history if r["record"] == "epoch"]
            if history and (len(steps) != wl.step_rows or len(epochs) != wl.epochs):
                errors.append(f"{cell}/history.csv: {len(steps)} step rows, "
                              f"{len(epochs)} epoch rows")
            for r in epochs:
                _unit_float(r["auc"], f"{cell}/history.csv epoch {r['epoch']} auc", errors)
            for r in steps:
                if r["reward"]:
                    facts["rewards"] += 1
                    facts["rewards_nonzero"] += float(r["reward"]) > 0.0
            for r in _read_rows(cell / "metrics.csv", errors):
                _unit_float(r["auc"], f"{cell}/metrics.csv auc", errors)
            facts["steps"] += len(steps)
            facts["cells"] += 1
    summary = _read_rows(out / wl.summary, errors)
    methods = [m for m, _ in wl.cells]
    if summary and [r["method"] for r in summary] != methods:
        errors.append(f"{wl.summary}: methods {[r['method'] for r in summary]}, expected {methods}")
    aucs = [_unit_float(r["auc_mean"], f"{wl.summary} auc_mean", errors) for r in summary]
    if aucs:
        facts["auc_mean"] = statistics.fmean(aucs)
    if summary and "split_hash" in summary[0] and len({r["split_hash"] for r in summary}) != 1:
        errors.append(f"{wl.summary}: rows do not share one split_hash")
    return errors, facts


DIGEST_NAMES = ("history.csv", "metrics.csv", "summary.csv", "comparison.csv")


def output_digest(out: Path) -> str:
    """sha256 over the deterministic outputs (path and bytes of each file)."""
    h = hashlib.sha256()
    for path in sorted(out.rglob("*")):
        if path.is_file() and (path.name in DIGEST_NAMES or path.suffix == ".ckpt"
                               or path.name.startswith("corr_")):
            h.update(path.relative_to(out).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# runs

def spawn_child(result_path: Path, env: dict[str, str], timeout: float,
                trace: bool = False, cli: list[str] = ()) -> tuple[dict | None, float, str]:
    """Run child.py once; returns its result (None on failure), the wall time
    from spawn to exit, and an error text."""
    t0 = time.monotonic_ns()
    cmd = [sys.executable, str(BENCH / "child.py"), str(t0), str(result_path),
           "1" if trace else "0", "--", *cli]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    wall_s = (time.monotonic_ns() - t0) / 1e9
    if proc.returncode != 0 or not result_path.is_file():
        return None, wall_s, f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    with open(result_path) as fh:
        res = json.load(fh)
    result_path.unlink()
    return res, wall_s, ""


def run_once(wl: Workload, data: Path, out: Path, env: dict[str, str], trace: bool,
             timeout: float) -> dict:
    """One CLI process plus its output checks."""
    cli = [a.replace("{data}", str(data)).replace("{out}", str(out)) for a in wl.cli_args]
    try:
        res, wall_s, error = spawn_child(out.with_suffix(".json"), env, timeout, trace, cli)
    except subprocess.TimeoutExpired:
        return {"ok": False, "errors": [f"timed out after {timeout:.0f} s"], "trace": trace}
    if res is None:
        return {"ok": False, "errors": [error], "trace": trace}
    errors, facts = check_outputs(wl, out)
    res.update(ok=not errors, errors=errors, facts=facts, wall_s=wall_s, trace=trace,
               digest=output_digest(out))
    shutil.rmtree(out, ignore_errors=True)
    return res


def machine_info() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "OPENBLAS_NUM_THREADS": "1",
    }


def _median(runs: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in runs)


def scaled(seconds: float, samples: list[float]) -> float:
    """`seconds` measured while the vCPU ran `calib.Kernel.sample()` in the
    mean time of `samples`, scaled to the reference speed `calib.REF_SAMPLE_S`.
    The mean, not the median, because a timed stretch mixes a fast and a slow
    speed."""
    if not samples:
        raise RuntimeError("no vCPU speed sample in a timed stretch")
    return seconds * calib.REF_SAMPLE_S / statistics.fmean(samples)


def end_to_end_metrics(runs: list[dict], probes: list[dict], items: float) -> dict[str, float]:
    """Medians over the window of the times of each process, each scaled by
    the vCPU speed sampled inside that process while it was timed."""
    run_s = [scaled(r["run_s"], r["run_samples"]) for r in runs]
    return {
        "setup_s": statistics.median(scaled(r["setup_s"], r["setup_samples"])
                                     for r in probes + runs),
        "run_s": statistics.median(run_s),
        "wall_s": statistics.median(scaled(r["wall_s"] - r["sampled_s"],
                                           r["setup_samples"] + r["run_samples"])
                                    for r in runs),
        "items_per_s": statistics.median(items / s for s in run_s),
        "peak_rss_mb": _median(runs, "peak_rss_mb"),
    }


def layer_metrics(stats: dict[str, dict], counters: dict[str, int]) -> dict[str, float]:
    out: dict[str, float] = {}
    layer_self = {layer: 0.0 for layer in spans.TRACED}
    for qualname, entry in stats.items():
        for key in ("calls", "self_s", "p50_us", "tail_us", "tail_pct"):
            if key in entry:
                out[f"{qualname}.{key}"] = entry[key]
        layer = qualname.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += entry["self_s"]
    out.update((f"{layer}.self_s", v) for layer, v in layer_self.items())
    out.update(counters)
    return out


def cross_check(dump: dict, setup_s: float) -> list[str]:
    """Per-call means in the first traced `engine.train` cell against the
    ROADMAP re-anchor baseline."""
    nested = spans.first_span_children(dump, "engine.train")
    lines = []
    for name, base in ROADMAP_BASELINE_US.items():
        durs = nested.get(name)
        if not durs:
            lines.append(f"cross-check {name}: not called in the first cell")
            continue
        mean = statistics.fmean(durs) / 1e3
        ratio = mean / base
        flag = "  DIFFERS >2x" if not 0.5 <= ratio <= 2.0 else ""
        lines.append(f"cross-check {name}: {mean:.1f} us/call (traced) vs {base:g} us "
                     f"baseline, x{ratio:.2f}{flag}")
    ratio = setup_s / ROADMAP_IMPORT_S
    flag = "  DIFFERS >2x" if not 0.5 <= ratio <= 2.0 else ""
    lines.append(f"cross-check setup_s: {setup_s:.3f} s (spawn to import) vs "
                 f"{ROADMAP_IMPORT_S} s import baseline, x{ratio:.2f}{flag}")
    return lines


def trace_metrics(wl: Workload, traced_runs: list[dict], raw_run_s: float, setup_s: float,
                  facts: dict) -> dict[str, float]:
    """Per-layer metrics: medians over the traced runs, plus derived ratios;
    prints the layer shares of run_s and the baseline cross-check. Traced
    runs do not sample the vCPU speed, so their times are not scaled, and the
    overhead is taken against the unscaled untraced median `raw_run_s`."""
    stats = [spans.function_stats(r["spans"]) for r in traced_runs]
    per_run = [layer_metrics(st, r["spans"]["counters"]) for st, r in zip(stats, traced_runs)]
    metrics = {name: statistics.median_low(m[name] for m in per_run) for name in per_run[0]}
    metrics["engine.reward_nonzero_ratio"] = (
        facts["rewards_nonzero"] / facts["rewards"] if facts["rewards"] else 0.0)
    metrics["trace.overhead_s"] = _median(traced_runs, "run_s") - raw_run_s
    absent = traced_runs[0]["spans"]["absent"]
    if absent:
        print("absent (reported as 0): " + " ".join(absent))
    pairs = list(zip(per_run, traced_runs))
    shares = "  ".join(
        f"{layer} {statistics.median(m[f'{layer}.self_s'] / r['run_s'] for m, r in pairs):.1%}"
        for layer in spans.TRACED)
    print(f"median self time share of traced run_s: {shares}")
    corr = statistics.median(st["metrics.correlation_density"]["total_s"] / r["run_s"]
                             for st, r in zip(stats, traced_runs))
    print(f"metrics.correlation_density inclusive share: {corr:.1%}")
    if wl.name == "train_pseudo_sup":
        for line in cross_check(traced_runs[0]["spans"], setup_s):
            print(line)
    return metrics


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, record: bool) -> int:
    deadline = time.monotonic() + RUN_DEADLINE_S
    work = WORK / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = bench_env(work)
    load_start = os.getloadavg()
    data = work / "data.txt"
    gen_input(wl, seed, data, env, timeout=deadline - time.monotonic())
    n_labeled = count_labeled(data)
    probes = []
    for i in range(SETUP_PROBES):
        res, _, error = spawn_child(work / f"probe{i}.json", env, deadline - time.monotonic())
        if res is None:
            raise RuntimeError(f"set-up probe failed: {error}")
        probes.append(res)

    runs: list[dict] = []
    last_s = {False: 0.0, True: 0.0}
    loop_start = time.monotonic()
    while True:
        traced = trace and len(runs) % 2 == 1
        t = time.monotonic()
        res = run_once(wl, data, work / f"out{len(runs)}", env, traced,
                       timeout=max(1.0, deadline - t))
        last_s[traced] = time.monotonic() - t
        runs.append(res)
        nxt = trace and len(runs) % 2 == 1
        elapsed = time.monotonic() - loop_start
        if len(runs) >= (2 if trace else 1) and (
                elapsed + last_s[nxt] > seconds or time.monotonic() + last_s[nxt] > deadline):
            break

    digest = next((r["digest"] for r in runs if r["ok"]), None)
    for r in runs:
        if r["ok"] and r["digest"] != digest:
            r["ok"] = False
            r["errors"] = ["outputs differ from the first checked run of this seed"]
    good = [r for r in runs if r["ok"]]
    failed = len(runs) - len(good)
    for i, r in enumerate(runs):
        for err in r["errors"]:
            print(f"run {i} FAILED: {err}")
        if r["ok"]:
            print(f"run {i} {'traced' if r['trace'] else 'untraced'}: setup_s {r['setup_s']:.4f}"
                  f"  run_s {r['run_s']:.4f}  wall_s {r['wall_s']:.4f}"
                  f"  peak_rss_mb {r['peak_rss_mb']:.1f}")
    plain = [r for r in good if not r["trace"]]
    traced_runs = [r for r in good if r["trace"]]
    if not plain or (trace and not traced_runs):
        print(f"{wl.name}: no successful run to report", file=sys.stderr)
        return 1

    facts = plain[0]["facts"]
    items = facts["steps"] if wl.cells else n_labeled * (n_labeled - 1) / 2
    e2e = end_to_end_metrics(plain, probes, items)
    raw = {key: _median(plain, key) for key in ("setup_s", "run_s", "wall_s")}
    speed = statistics.median(statistics.fmean(r["run_samples"]) for r in plain)
    print(f"workload {wl.name}  seed {seed}  runs {len(runs)} "
          f"({len(plain)} untraced, {len(traced_runs)} traced ok, {failed} failed)")
    report = [(name, unit, e2e[name]) for name, unit, _, _ in END_TO_END]
    if wl.cells:
        report += [("train_steps_per_s", "1/s", e2e["items_per_s"]),
                   ("cells_per_s", "1/s",
                    statistics.median(facts["cells"] / r["run_s"] for r in plain)),
                   ("test_auc_mean", "AUC", facts["auc_mean"])]
    else:
        report.append(("corr_pairs_per_s", "1/s", e2e["items_per_s"]))
    report.append(("error_rate", "ratio", failed / len(runs)))
    for name, unit, value in report:
        print(f"  {name:<18} {value:>14.6g} {unit}")
    print(f"  unscaled medians: setup_s {raw['setup_s']:.4f} s  run_s {raw['run_s']:.4f} s"
          f"  wall_s {raw['wall_s']:.4f} s; calibration sample {speed * 1e3:.3f} ms"
          f" (reference {calib.REF_SAMPLE_S * 1e3:.3f} ms)")
    ref = _load_reference().get("workloads", {}).get(wl.name, {}).get("digests", {}).get(str(seed))
    status = ("no reference" if ref is None
              else "matches reference" if ref == digest else "DIFFERS from reference")
    print(f"output digest {digest} ({status})")
    machine = machine_info()
    loadavg = {"start": load_start, "end": os.getloadavg()}
    print("machine " + json.dumps({**machine, "loadavg": loadavg}))

    if trace:
        metrics = trace_metrics(wl, traced_runs, raw["run_s"], raw["setup_s"], facts)
        units = {name: unit for name, unit, _ in per_layer_specs()}
    else:
        metrics = e2e
        units = {name: unit for name, unit, _, _ in END_TO_END}

    if record:
        _record(wl.name, seed, digest, machine, {**metrics, "seconds": seconds,
                                                 "loadavg": loadavg}, trace)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    sys.stdout.flush()
    return 0 if failed == 0 else 1


def _load_reference() -> dict:
    try:
        with open(REFERENCE) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def _record(workload: str, seed: int, digest: str, machine: dict, entry_metrics: dict,
            trace: bool) -> None:
    ref = _load_reference()
    ref["machine"] = machine
    entry = ref.setdefault("workloads", {}).setdefault(workload, {})
    entry.setdefault("digests", {})[str(seed)] = digest
    key = "per_layer" if trace else "end_to_end"
    entry.setdefault(key, {})[str(seed)] = entry_metrics
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store digest, machine and metrics in bench/reference.json")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "pseudosup" / "cli.py").is_file():
        print(f"error: no pseudosup sources at {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        try:
            status |= run_workload(WORKLOADS[name], args.seed, args.seconds,
                                   bool(args.trace), args.record)
        except (OSError, RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
