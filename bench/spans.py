"""Span tracer for the benchmark's traced runs.

`Tracer.install()` wraps the functions named in `TRACED` at every binding in
the loaded `pseudosup.*` modules where callers look them up (`engine.mlp_forward`,
`cli.train`, the class attribute `AdamW.step`, ...), so a call made through any
of those names opens a span. Spans live in memory as parallel lists (name,
parent span, start, end, in `perf_counter_ns`) and are written out once, at the
end of the traced process. A name that no longer exists is reported as absent
instead of failing, so functions can be merged or dropped without editing the
benchmark. Calls made through references the scan cannot see (a dispatch
table, a default argument, a closure) are not traced.

`function_stats()` turns a span dump into per-function calls, self time and
per-call percentiles; it runs in `run_bench.py`, outside the traced
process.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time

PACKAGE = "pseudosup"

TRACED = {
    "cli": ("main", "run_experiment", "compare_methods", "build_splits"),
    "data": ("load_dataset", "serialize_splits"),
    "engine": (
        "train", "train_supervised_only", "train_self_training",
        "warmup_supervised", "sample_pseudo_labels", "eval_val_loss",
        "classifier_step", "compute_reward", "discounted_return",
        "policy_update", "evaluate",
    ),
    "nn_core": (
        "mlp_forward", "mlp_backward", "softmax_cross_entropy", "log_softmax",
        "AdamW.step", "clone_model", "save_model",
    ),
    "metrics": ("auc_roc", "accuracy", "f1_binary", "correlation_density", "pearson"),
}

# Functions called per step, per batch or per pair: these also report the
# median and a tail percentile of their per-call duration.
PER_CALL = (
    "engine.sample_pseudo_labels", "engine.eval_val_loss", "engine.classifier_step",
    "engine.compute_reward", "engine.discounted_return", "engine.policy_update",
    "engine.evaluate", "nn_core.mlp_forward", "nn_core.mlp_backward",
    "nn_core.softmax_cross_entropy", "nn_core.log_softmax", "nn_core.AdamW.step",
    "metrics.pearson",
)

# Tail percentiles tried from the highest down; the first one with at least
# TAIL_MIN_BEYOND calls beyond it is reported.
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def _rows(args, kwargs, result):
    batch = kwargs["batch"] if "batch" in kwargs else args[1]
    return len(batch)


def _skipped_pairs(args, kwargs, result):
    return result.skipped_pairs


# Counters taken at a span boundary: traced name -> (counter name, extractor).
COUNTERS = {
    "nn_core.mlp_forward": ("nn_core.mlp_forward.rows", _rows),
    "metrics.correlation_density": ("metrics.correlation_density.skipped_pairs",
                                    _skipped_pairs),
}


def traced_names() -> list[str]:
    return [f"{layer}.{name}" for layer, names in TRACED.items() for name in names]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name: list[int] = []
        self.parent: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.counters: dict[str, int] = {c: 0 for c, _ in COUNTERS.values()}
        self.absent: list[str] = []
        self._stack = [-1]

    def _wrap(self, qualname: str, fn):
        index = len(self.names)
        self.names.append(qualname)
        counter = COUNTERS.get(qualname)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(self.start)
            self.name.append(index)
            self.parent.append(self._stack[-1])
            self.end.append(0)
            self._stack.append(span)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[span] = clock()
                self._stack.pop()
            if counter is not None:
                try:
                    self.counters[counter[0]] += int(counter[1](args, kwargs, result))
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    pass
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every name in TRACED; call after `pseudosup.cli` is imported."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for layer, names in TRACED.items():
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            for name in names:
                qualname = f"{layer}.{name}"
                if module is None or not self._install_one(modules, module, name, qualname):
                    self.absent.append(qualname)

    def _install_one(self, modules, module, name: str, qualname: str) -> bool:
        owner_name, _, attr = name.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            raw = inspect.getattr_static(owner, attr, None) if owner is not None else None
            if not inspect.isfunction(raw):
                return False
            setattr(owner, attr, self._wrap(qualname, raw))
            return True
        target = getattr(module, name, None)
        if not inspect.isfunction(target):
            return False
        wrapper = self._wrap(qualname, target)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is target:
                    setattr(mod, key, wrapper)
        return True

    def dump(self) -> dict:
        return {
            "names": self.names, "name": self.name, "parent": self.parent,
            "start": self.start, "end": self.end,
            "counters": self.counters, "absent": self.absent,
        }


def self_times(parent: list[int], start: list[int], end: list[int]) -> list[int]:
    """Each span's duration minus the part of its interval that its direct
    child spans cover (overlapping children are counted once)."""
    children: dict[int, list[int]] = {}
    for span, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(span)
    out = []
    for span in range(len(parent)):
        lo, hi = start[span], end[span]
        covered = 0
        cur_lo = cur_hi = None
        for c in sorted(children.get(span, ()), key=lambda c: start[c]):
            a, b = max(start[c], lo), min(end[c], hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(hi - lo - covered)
    return out


def _rank(pct: float, n: int) -> int:
    """Nearest rank (1-based) of percentile pct among n values."""
    return max(1, math.ceil(round(pct / 100.0 * n, 9)))


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[_rank(pct, len(sorted_values)) - 1]


def tail_percentile(n: int) -> float | None:
    """Highest percentile of TAIL_LADDER with at least TAIL_MIN_BEYOND of n
    calls beyond it, or None when n is too small for any."""
    for pct in TAIL_LADDER:
        if n - _rank(pct, n) >= TAIL_MIN_BEYOND:
            return pct
    return None


def function_stats(dump: dict) -> dict[str, dict]:
    """Per traced name: calls, self_s, total_s, and for names in PER_CALL the
    p50/tail of inclusive per-call durations (microseconds)."""
    selfs = self_times(dump["parent"], dump["start"], dump["end"])
    durations: dict[str, list[int]] = {n: [] for n in traced_names()}
    self_ns: dict[str, int] = {n: 0 for n in traced_names()}
    for span, idx in enumerate(dump["name"]):
        qualname = dump["names"][idx]
        durations.setdefault(qualname, []).append(dump["end"][span] - dump["start"][span])
        self_ns[qualname] = self_ns.get(qualname, 0) + selfs[span]
    stats = {}
    for qualname, durs in durations.items():
        entry = {"calls": len(durs), "self_s": self_ns[qualname] / 1e9,
                 "total_s": sum(durs) / 1e9}
        if qualname in PER_CALL:
            ordered = sorted(durs)
            pct = tail_percentile(len(ordered))
            entry["p50_us"] = percentile(ordered, 50.0) / 1e3 if ordered else 0.0
            entry["tail_us"] = percentile(ordered, pct) / 1e3 if pct else 0.0
            entry["tail_pct"] = pct or 0.0
        stats[qualname] = entry
    return stats


def first_span_children(dump: dict, root: str) -> dict[str, list[int]]:
    """Inclusive durations (ns) of every span nested under the first span named
    `root`, grouped by name; empty when `root` never ran."""
    try:
        root_idx = dump["names"].index(root)
        first = dump["name"].index(root_idx)
    except ValueError:
        return {}
    lo, hi = dump["start"][first], dump["end"][first]
    out: dict[str, list[int]] = {}
    for span, idx in enumerate(dump["name"]):
        if span != first and lo <= dump["start"][span] and dump["end"][span] <= hi:
            out.setdefault(dump["names"][idx], []).append(
                dump["end"][span] - dump["start"][span])
    return out
