"""Tests of the benchmark's own code: span arithmetic, speed scaling, the
tracer, output checks and input generation. Run with `python3 -m pytest bench/tests -q`."""

import hashlib
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import calib  # noqa: E402
import child  # noqa: E402
import run_bench  # noqa: E402
import spans  # noqa: E402

from pseudosup import cli, engine, nn_core  # noqa: E402


def test_self_time_is_duration_minus_child_coverage():
    # root [0,100] > a [10,30], b [40,90]; b > c [45,55], d [50,60] (overlapping)
    parent = [-1, 0, 0, 2, 2]
    start = [0, 10, 40, 45, 50]
    end = [100, 30, 90, 55, 60]
    assert spans.self_times(parent, start, end) == [100 - 20 - 50, 20, 50 - 15, 10, 10]


def test_child_outside_parent_is_clipped():
    assert spans.self_times([-1, 0], [0, 90], [100, 120]) == [90, 30]


@pytest.mark.parametrize("n, pct", [(5, None), (20, 50.0), (100, 90.0),
                                    (1000, 99.0), (10000, 99.9)])
def test_tail_percentile_leaves_ten_calls_beyond(n, pct):
    assert spans.tail_percentile(n) == pct


def test_scaled_time_cancels_a_uniform_slowdown():
    ref = calib.REF_SAMPLE_S
    assert run_bench.scaled(3.0, [ref, ref]) == pytest.approx(3.0)
    fast = run_bench.scaled(2.0, [0.9e-3, 1.1e-3])
    assert run_bench.scaled(3.0, [1.35e-3, 1.65e-3]) == pytest.approx(fast)


def test_sampler_window_takes_samples_started_inside():
    sampler = child.SpeedSampler(kernel=None)
    sampler.starts = [100, 200, 300, 400]
    sampler.durations = [10, 20, 30, 40]
    spent, durs = sampler.window(200, 400)
    assert durs == [20e-9, 30e-9] and spent == pytest.approx(50e-9)


def test_probe_samples_its_vcpu_during_setup(tmp_path):
    result = tmp_path / "probe.json"
    res, wall_s, error = run_bench.spawn_child(result, run_bench.bench_env(tmp_path), 120)
    assert error == "" and res["rc"] == 0
    assert len(res["setup_samples"]) >= 3
    assert 0.0 < res["setup_s"] < wall_s


@pytest.fixture
def restore_modules():
    """Undo the tracer's rebinding of module attributes after a test."""
    modules = {name: dict(vars(mod)) for name, mod in sys.modules.items()
               if name.startswith("pseudosup")}
    step = nn_core.AdamW.__dict__["step"]
    yield
    for name, saved in modules.items():
        vars(sys.modules[name]).update(saved)
    nn_core.AdamW.step = step


def test_tracer_wraps_every_binding(restore_modules, monkeypatch):
    monkeypatch.setitem(spans.TRACED, "engine", (*spans.TRACED["engine"], "no_such_fn"))
    original = nn_core.mlp_forward
    tracer = spans.Tracer()
    tracer.install()
    assert "engine.no_such_fn" in tracer.absent
    assert engine.mlp_forward is nn_core.mlp_forward is not original
    assert cli.train is engine.train
    assert nn_core.AdamW.step.__wrapped__.__name__ == "step"

    rng = np.random.default_rng(0)
    model = nn_core.init_mlp([3, 4, 2], rng)
    x = rng.standard_normal((5, 3))
    loss = engine.eval_val_loss(model, x, np.array([0, 1, 0, 1, 1]))
    assert loss > 0
    dump = tracer.dump()
    stats = spans.function_stats(dump)
    assert stats["engine.eval_val_loss"]["calls"] == 1
    assert stats["nn_core.mlp_forward"]["calls"] == 1
    assert dump["counters"]["nn_core.mlp_forward.rows"] == 5
    span_of = {dump["names"][i]: span for span, i in enumerate(dump["name"])}
    assert dump["parent"][span_of["nn_core.mlp_forward"]] == span_of["engine.eval_val_loss"]
    assert dump["parent"][span_of["nn_core.log_softmax"]] \
        == span_of["nn_core.softmax_cross_entropy"]
    total = stats["engine.eval_val_loss"]["total_s"]
    assert sum(s["self_s"] for s in stats.values()) == pytest.approx(total)


TRAIN = run_bench.Workload(
    "tiny_compare", "", ("--n-per-class", "40", "--dim", "4"),
    ("compare", "--dataset", "{data}", "--output-dir", "{out}", "--methods",
     "supervised", "pseudo_sup", "--seeds", "1", "2", "--epochs", "2", "--beta", "3",
     "--warmup-steps", "2"),
    cells=(("supervised", (1, 2)), ("pseudo_sup", (1, 2))),
    step_rows=2, epochs=2, summary="comparison.csv",
)
CORR = run_bench.Workload(
    "tiny_corr", "", ("--n-per-class", "10", "--grid", "2", "2", "--multimodal"),
    ("analyze-corr", "--dataset", "{data}", "--out-dir", "{out}", "--bins", "10"),
    corr_bins=10,
)


def _run_cli(wl, root: Path) -> Path:
    data, out = root / "data.txt", root / "out"
    assert cli.main(["gen-data", "--out", str(data), "--seed", "3", *wl.gen_args]) == 0
    args = [a.replace("{data}", str(data)).replace("{out}", str(out)) for a in wl.cli_args]
    assert cli.main(args) == 0
    return out


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return {wl.name: _run_cli(wl, tmp_path_factory.mktemp(wl.name)) for wl in (TRAIN, CORR)}


def _edit(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def _drop_last_step(out):
    path = out / "pseudo_sup" / "1" / "history.csv"
    lines = path.read_text().splitlines(keepends=True)
    last = max(i for i, line in enumerate(lines) if line.startswith("step,"))
    path.write_text("".join(lines[:last] + lines[last + 1:]))


def _auc_out_of_range(out):
    path = out / "supervised" / "2" / "metrics.csv"
    header, row = path.read_text().splitlines()
    fields = row.split(",")
    fields[header.split(",").index("auc")] = "1.5"
    path.write_text(f"{header}\n{','.join(fields)}\n")


def _split_hash_differs(out):
    path = out / "comparison.csv"
    lines = path.read_text().splitlines()
    lines[-1] = lines[-1][:-1] + ("0" if lines[-1][-1] != "0" else "1")
    path.write_text("\n".join(lines) + "\n")


def _missing_checkpoint(out):
    (out / "pseudo_sup" / "2" / "policy.ckpt").unlink()


def _density_off(out):
    path = out / "corr_between.csv"
    lines = path.read_text().splitlines()
    center, density = lines[5].split(",")
    lines[5] = f"{center},{float(density) + 0.5!r}"
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("wl", [TRAIN, CORR], ids=lambda w: w.name)
def test_untouched_outputs_pass(outputs, wl):
    errors, facts = run_bench.check_outputs(wl, outputs[wl.name])
    assert errors == []
    if wl.cells:
        assert facts["cells"] == 4 and facts["steps"] == 8
        assert 0.0 <= facts["auc_mean"] <= 1.0


@pytest.mark.parametrize("wl, tamper", [
    (TRAIN, _drop_last_step), (TRAIN, _auc_out_of_range),
    (TRAIN, _split_hash_differs), (TRAIN, _missing_checkpoint), (CORR, _density_off),
], ids=lambda v: getattr(v, "__name__", None))
def test_tampered_output_fails_check(outputs, tmp_path, wl, tamper):
    out = tmp_path / "out"
    shutil.copytree(outputs[wl.name], out)
    tamper(out)
    errors, _ = run_bench.check_outputs(wl, out)
    assert errors


def test_digest_covers_outputs(outputs, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(outputs[TRAIN.name], out)
    before = run_bench.output_digest(out)
    _edit(out / "supervised" / "1" / "classifier.ckpt", "\n", "0\n")
    assert run_bench.output_digest(out) != before


def test_input_generation_is_seed_deterministic(tmp_path):
    wl = run_bench.WORKLOADS["compare_methods"]
    env = run_bench.bench_env(tmp_path)

    def digest(seed, name):
        path = tmp_path / name
        run_bench.gen_input(wl, seed, path, env, timeout=120)
        return hashlib.sha256(path.read_bytes()).hexdigest()

    assert digest(5, "a.txt") == digest(5, "b.txt") != digest(6, "c.txt")


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        assert w["why"] == run_bench.WORKLOADS[w["name"]].why
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == list(run_bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == run_bench.per_layer_specs()
