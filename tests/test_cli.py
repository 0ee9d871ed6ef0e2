import configparser
import contextlib
import csv
import dataclasses
import gc
import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from blas_kernel import PIN_KERNELS, openblas_core

from pseudosup import cli, engine
from pseudosup.cli import (
    PER_CELL,
    ConfigError,
    DatasetSpec,
    ExperimentConfig,
    _config_from_args,
    build_parser,
    build_splits,
    compare_methods,
    config_from_ini,
    config_to_ini,
    main,
    run_ablation,
    run_experiment,
)
from pseudosup.data import load_dataset, splits_digest
from pseudosup.engine import EngineConfig

ROOT = Path(__file__).resolve().parents[1]
CONFIG_CLASSES = (EngineConfig, DatasetSpec, ExperimentConfig)
# (class, field) for each config field: every field has a type rule
RULED_FIELDS = [(cls, name) for cls in CONFIG_CLASSES for name in engine._field_types(cls)]


def run_python(cwd, *args):
    """`python *args` in a fresh process importing `src/`, output captured."""
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, timeout=120, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"})


def small_cfg(tmp_path, method="supervised", seeds=(1, 2)):
    return ExperimentConfig(
        method=method,
        seeds=tuple(seeds),
        output_dir=str(tmp_path / "out"),
        dataset=DatasetSpec(n_per_class=60, dim=4, class_separation=1.5,
                            label_fraction=0.5, grid=(2, 2)),
        engine=EngineConfig(epochs=2, warmup_steps=10, classifier_lr=1e-2,
                            policy_lr=1e-2, beta=5, batch_labeled=16,
                            batch_unlabeled=16, batch_val=16, hidden_dims=(8,)),
        confidence_threshold=0.9,
    )


def count_calls(monkeypatch, *names):
    """Counts of the calls `cli` makes to each of its module-level `names`."""
    calls = dict.fromkeys(names, 0)

    def counted(name):
        real = getattr(cli, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in names:
        monkeypatch.setattr(cli, name, counted(name))
    return calls


def nondefault_cfg():
    """Every flag-settable field away from its default."""
    return ExperimentConfig(
        method="self_training", seeds=(3, 4), output_dir="runs/x",
        dataset=DatasetSpec(path="data.txt", n_per_class=7, dim=5,
                            class_separation=2.5, label_fraction=0.25,
                            fractions=(0.6, 0.2, 0.2), grid=(2, 3),
                            multimodal=True, vf_target_len=60),
        engine=EngineConfig(hidden_dims=(4, 3), n_classes=3, beta=7, gamma=0.5,
                            policy_lr=0.002, classifier_lr=0.003,
                            weight_decay=0.01, epochs=3, batch_labeled=5,
                            batch_unlabeled=6, batch_val=9, warmup_steps=8,
                            pseudo_loss_weight=0.75, crop_scale_min=0.5,
                            policy_warm_start=False),
        confidence_threshold=0.95,
    )


NONDEFAULT_ARGV = [
    "run", "--method", "self_training", "--seeds", "3", "4",
    "--output-dir", "runs/x", "--confidence-threshold", "0.95",
    "--dataset", "data.txt", "--n-per-class", "7", "--dim", "5",
    "--class-separation", "2.5", "--label-fraction", "0.25",
    "--fractions", "0.6", "0.2", "0.2", "--grid", "2", "3", "--multimodal",
    "--vf-target-len", "60", "--hidden-dims", "4", "3", "--n-classes", "3",
    "--beta", "7", "--gamma", "0.5", "--policy-lr", "0.002",
    "--classifier-lr", "0.003", "--weight-decay", "0.01", "--epochs", "3",
    "--batch-labeled", "5", "--batch-unlabeled", "6", "--batch-val", "9",
    "--warmup-steps", "8", "--pseudo-loss-weight", "0.75",
    "--crop-scale-min", "0.5", "--no-policy-warm-start",
]

# small generated runs: 2 seeds x 14 steps, 2 policy updates per pseudo_sup seed
TRAIN_FLAGS = [
    "--seeds", "1", "2", "--epochs", "2", "--warmup-steps", "10",
    "--n-per-class", "40", "--dim", "4", "--hidden-dims", "8", "--beta", "5",
    "--batch-labeled", "4", "--batch-unlabeled", "16", "--batch-val", "16",
    "--classifier-lr", "0.01", "--policy-lr", "0.01",
]

# sha256 over each cell's history.csv, metrics.csv and checkpoints; pins
# every training RNG stream and floating-point operation of the four
# methods. Last re-recorded when metrics.csv lost its constant
# positive_class column; the files written before, with that column
# stripped, give these same digests.
TRAINING_PINS = [
    ("pseudo_sup", [],
     "de4f853ea1b169969009b235d597d053c947bc20cf63de33dd6f0b513e533f30"),
    ("pseudo_sup_aug", ["--grid", "2", "2"],
     "95de9b384502d58a4137c97abfe0af3a0ba1e36bd161e45376ec0497aa9a15a7"),
    ("supervised", [],
     "b2950aea8f9dd65a6ec1df4ba99e2f51c7765939033cdbf976e7f0426f75427b"),
    ("self_training", ["--confidence-threshold", "0.6"],
     "f48022589c7d04a4b22cc322d53ec1e8018ba70b0575e13e84dfd973714a94c6"),
    ("pseudo_sup", ["--no-policy-warm-start"],
     "d8a085018a35aed8ebf956b7cd83b524535c2ccf0ad63971baefc410e9c9d555"),
    # sides of 4 and 5 can be cropped at the default crop_scale_min 0.8;
    # sides of 2, as in the row above, only ever flip
    ("pseudo_sup_aug", ["--dim", "20", "--grid", "4", "5"],
     "f8b79bb5448133b0d5f37d6b013a52d73f9b303b65a245547bd94173248d09e9"),
]


def pin_digest(out: Path, method: str, flags: list[str]) -> str:
    """The digest of a TRAINING_PINS row: `run --method <method>` with
    TRAIN_FLAGS and `flags` into `out`, then sha256 over each written file's
    path under `out` and its bytes, in sorted order."""
    assert main(["run", "--method", method, *TRAIN_FLAGS, *flags,
                 "--output-dir", str(out)]) == 0
    files = sorted(p for p in (out / method).rglob("*") if p.is_file())
    assert len(files) == (8 if method.startswith("pseudo_sup") else 6)
    h = hashlib.sha256()
    for path in files:
        h.update(path.relative_to(out).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# Run as `python -c _KERNEL_CHILD OUT_DIR I...`: the TRAINING_PINS rows I into
# OUT_DIR, then, as the last stdout line, JSON of the OpenBLAS core and their digests
_KERNEL_CHILD = """
import json, sys
from pathlib import Path
from blas_kernel import openblas_core
from test_cli import TRAINING_PINS, pin_digest
digests = [pin_digest(Path(sys.argv[1]) / i, *TRAINING_PINS[int(i)][:2]) for i in sys.argv[2:]]
print(json.dumps({"core": openblas_core(), "digests": digests}))
"""


# config.ini as written before the schema was derived from the dataclasses
# (`grid` last in [dataset]); such files must keep parsing.
EARLIER_LAYOUT_INI = """\
[experiment]
method = self_training
seeds = 3 4
output_dir = runs/x
confidence_threshold = 0.95

[dataset]
path = data.txt
n_per_class = 7
dim = 5
class_separation = 2.5
label_fraction = 0.25
fractions = 0.6 0.2 0.2
multimodal = true
vf_target_len = 60
grid = 2 3

[engine]
hidden_dims = 4 3
n_classes = 3
beta = 7
gamma = 0.5
policy_lr = 0.002
classifier_lr = 0.003
weight_decay = 0.01
epochs = 3
batch_labeled = 5
batch_unlabeled = 6
batch_val = 9
warmup_steps = 8
pseudo_loss_weight = 0.75
crop_scale_min = 0.5
policy_warm_start = false
"""


class TestConfigRoundTrip:
    def test_ini_round_trip(self, tmp_path):
        cfg = small_cfg(tmp_path, method="self_training")
        parsed = config_from_ini(config_to_ini(cfg))
        assert parsed == cfg

    def test_defaults_round_trip(self):
        cfg = ExperimentConfig()
        assert config_from_ini(config_to_ini(cfg)) == cfg

    def test_malformed_config_rejected(self):
        with pytest.raises(ConfigError):
            config_from_ini("[engine]\nbeta = not-a-number\n")

    def test_every_field_has_flag_and_ini_key(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--help"])
        flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        ini = configparser.ConfigParser()
        ini.read_string(config_to_ini(nondefault_cfg()))
        for section, cls in (("dataset", DatasetSpec), ("engine", EngineConfig)):
            for f in dataclasses.fields(cls):
                if f.name in PER_CELL:
                    continue
                flag = "--dataset" if f.name == "path" else "--" + f.name.replace("_", "-")
                assert flag in flags, flag
                assert ini.has_option(section, f.name), f.name

    def test_flags_and_ini_reach_same_config(self, tmp_path):
        cfg = nondefault_cfg()
        default = ExperimentConfig()
        for spec, base in ((cfg, default), (cfg.dataset, default.dataset),
                           (cfg.engine, default.engine)):
            for f in dataclasses.fields(spec):
                if f.name not in PER_CELL and not dataclasses.is_dataclass(
                        getattr(spec, f.name)):
                    assert getattr(spec, f.name) != getattr(base, f.name), f.name
        from_flags = _config_from_args(build_parser().parse_args(NONDEFAULT_ARGV))
        assert from_flags == cfg
        ini = tmp_path / "c.ini"
        ini.write_text(config_to_ini(cfg))
        from_ini = _config_from_args(build_parser().parse_args(
            ["run", "--config", str(ini)]))
        assert from_ini == cfg

    def test_bool_flag_negation_overrides_ini(self, tmp_path):
        ini = tmp_path / "c.ini"
        ini.write_text("[engine]\npolicy_warm_start = false\n"
                       "[dataset]\nmultimodal = true\ngrid = 2 2\n")
        args = build_parser().parse_args(
            ["run", "--config", str(ini), "--policy-warm-start", "--no-multimodal"])
        cfg = _config_from_args(args)
        assert cfg.engine.policy_warm_start is True
        assert cfg.dataset.multimodal is False

    def test_earlier_config_ini_layout_parses(self):
        assert config_from_ini(EARLIER_LAYOUT_INI) == nondefault_cfg()

    def test_percent_read_as_written(self):
        assert config_from_ini("[experiment]\noutput_dir = o%%3\n").output_dir == "o%%3"

    def test_percent_in_paths_round_trips(self, tmp_path):
        ds, out = tmp_path / "d%1.txt", tmp_path / "o%2"
        assert main(["gen-data", "--out", str(ds), "--n-per-class", "20", "--dim", "3"]) == 0
        argv = ["run", "--method", "supervised", "--dataset", str(ds), "--seeds", "1",
                "--epochs", "1", "--warmup-steps", "2", "--hidden-dims", "4",
                "--output-dir", str(out)]
        assert main(argv) == 0
        written = config_from_ini((out / "config.ini").read_text())
        assert written == _config_from_args(build_parser().parse_args(argv))
        assert (written.dataset.path, written.output_dir) == (str(ds), str(out))

    def test_tuple_length_checked(self):
        with pytest.raises(ConfigError, match=r"^grid must be 2 integers, got \(3,\)$"):
            config_from_ini("[dataset]\ngrid = 3\n")

    def test_validation_names_missing_field(self, tmp_path):
        cfg = small_cfg(tmp_path, method="self_training")
        with pytest.raises(ConfigError, match="confidence_threshold"):
            dataclasses.replace(cfg, confidence_threshold=None)


class TestConfigsCheckedWhenBuilt:
    @pytest.mark.parametrize("cfg, name, value", [
        (ExperimentConfig(), "method", "supervised"),
        (DatasetSpec(), "dim", 5),
        (EngineConfig(), "gamma", 7.0),
    ])
    def test_fields_cannot_be_assigned(self, cfg, name, value):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, value)

    @pytest.mark.parametrize("cls, name", RULED_FIELDS,
                             ids=[f"{cls.__name__}.{name}" for cls, name in RULED_FIELDS])
    def test_wrong_type_raises_config_error_naming_the_field(self, cls, name):
        with pytest.raises(ConfigError, match=f"^{name} must be .*, got <object object at "):
            cls(**{name: object()})

    def test_every_field_has_a_type_rule(self):
        # a scalar with a _TYPE_RULES row, or a nested config, checked by isinstance
        assert {(cls, f.name) for cls in CONFIG_CLASSES
                for f in dataclasses.fields(cls)} == set(RULED_FIELDS)
        for cls, name in RULED_FIELDS:
            scalar = engine._field_types(cls)[name][0]
            assert scalar in engine._TYPE_RULES or scalar in CONFIG_CLASSES, (cls, name)

    @pytest.mark.parametrize("cls, kwargs, message", [
        (DatasetSpec, {"path": 3}, "path must be a string, got 3"),
        (DatasetSpec, {"grid": (2,)}, "grid must be 2 integers, got (2,)"),
        (DatasetSpec, {"grid": [2, 2]}, "grid must be 2 integers, got [2, 2]"),
        (DatasetSpec, {"fractions": (0.5, 0.5)}, "fractions must be 3 numbers, got (0.5, 0.5)"),
        (DatasetSpec, {"multimodal": "no"}, "multimodal must be a bool, got 'no'"),
        (DatasetSpec, {"label_fraction": True}, "label_fraction must be a number, got True"),
        (DatasetSpec, {"n_per_class": 20.5}, "n_per_class must be an integer, got 20.5"),
        (DatasetSpec, {"class_separation": "1"}, "class_separation must be a number, got '1'"),
        (EngineConfig, {"hidden_dims": np.array([4, 8])},
         "hidden_dims must be integers, got array([4, 8])"),
        (ExperimentConfig, {"seeds": ([1],)}, "seeds must be integers, got ([1],)"),
        (ExperimentConfig, {"seeds": 7}, "seeds must be integers, got 7"),
        (ExperimentConfig, {"seeds": [1, 2]}, "seeds must be integers, got [1, 2]"),
        (ExperimentConfig, {"method": 3}, "method must be a string, got 3"),
        (ExperimentConfig, {"dataset": EngineConfig()},
         f"dataset must be a DatasetSpec, got {EngineConfig()!r}"),
        (ExperimentConfig, {"engine": DatasetSpec()},
         f"engine must be an EngineConfig, got {DatasetSpec()!r}"),
    ])
    def test_each_type_rule_raises_config_error(self, cls, kwargs, message):
        with pytest.raises(ConfigError) as info:
            cls(**kwargs)
        assert str(info.value) == message

    @pytest.mark.parametrize("name", PER_CELL[1:])
    def test_engine_field_a_method_sets_rejected(self, name):
        # config.ini cannot record it, so a rerun from that file would differ
        value = next(sets[name] for _, sets, _ in cli.METHODS.values() if name in sets)
        with pytest.raises(ConfigError) as info:
            ExperimentConfig(engine=EngineConfig(**{name: value}))
        assert str(info.value) == f"engine.{name} is set by the method, got {value!r}"
        ExperimentConfig(engine=EngineConfig(seed=7))  # the seed is set per cell

    def test_replace_is_checked(self):
        with pytest.raises(ValueError, match="^beta must be >= 1$"):
            dataclasses.replace(EngineConfig(), beta=0)
        with pytest.raises(ConfigError, match="^seeds must be distinct"):
            dataclasses.replace(ExperimentConfig(), seeds=(1, 1))

    @pytest.mark.parametrize("threshold", [True, "0.9", np.bool_(True)])
    def test_threshold_follows_the_float_rule(self, threshold):
        with pytest.raises(ConfigError) as info:
            ExperimentConfig(method="self_training", confidence_threshold=threshold)
        assert str(info.value) == f"confidence_threshold must be a number, got {threshold!r}"

    def test_ini_alone_is_checked(self):
        with pytest.raises(ConfigError, match="^beta must be >= 1$"):
            config_from_ini("[engine]\nbeta = 0\n")
        with pytest.raises(ConfigError, match="requires confidence_threshold"):
            config_from_ini("[experiment]\nmethod = self_training\n")

    def test_flag_overrides_ini_value_before_checks(self, tmp_path):
        ini = tmp_path / "b.ini"
        ini.write_text("[engine]\nbeta = 0\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(ini), "--beta", "5", "--seeds", "1",
                     "--n-per-class", "20", "--dim", "3", "--epochs", "1",
                     "--warmup-steps", "2", "--hidden-dims", "4",
                     "--output-dir", str(out)]) == 0
        assert config_from_ini((out / "config.ini").read_text()).engine.beta == 5

    def test_config_error_is_engines(self):
        assert ConfigError is engine.ConfigError

    @pytest.mark.parametrize("ini, message", [
        ("beta = 5\n", "malformed config: File contains no section headers."),
        ("[experiment]\nseeds =\n", "at least one seed is required"),
        ("[dataset]\nmultimodal = maybe\n", "multimodal: expected a boolean, got 'maybe'"),
        ("[engine]\nepoch = 1\n", "unknown key engine.epoch"),
        ("[engine]\nseed = 7\n", "unknown key engine.seed"),
        ("[engine]\naugment = true\n", "unknown key engine.augment"),
        ("[experimnt]\nmethod = bogus\n", "unknown section experimnt"),
        ("[DEFAULT]\nepochs = 1\n", "unknown section DEFAULT"),
        ("[engine]\nepoch = 1\nseed = 7\n[experimnt]\nmethod = bogus\n",
         "unknown key engine.epoch"),
        ("[experimnt]\n", "unknown section experimnt"),
        ("[Engine]\n", "unknown section Engine"),
        ("[DEFAULT]\n", "unknown section DEFAULT"),
        ("[engine]\nbeta = 5\n[extra]\n", "unknown section extra"),
        ("[engine]\nhidden_dims =\n", "hidden_dims must not be empty"),
    ])
    def test_bad_ini_exits_2_before_any_output(self, tmp_path, capsys, ini, message):
        path, out = tmp_path / "c.ini", tmp_path / "o"
        path.write_text(ini)
        assert main(["run", "--config", str(path), "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err.splitlines()[0] == f"config error: {message}"
        assert not out.exists()

    def test_ini_tuple_of_wrong_length_exits_2(self, tmp_path, capsys):
        path, out = tmp_path / "c.ini", tmp_path / "o"
        path.write_text("[dataset]\ngrid = 3\n")
        assert main(["run", "--config", str(path), "--output-dir", str(out)]) == 2
        assert capsys.readouterr() == ("", "config error: grid must be 2 integers, got (3,)\n")
        assert not out.exists()

    def test_absent_config_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["run", "--config", str(tmp_path / "absent.ini"),
                     "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: cannot read config: ")
        assert not out.exists()

    def test_config_file_not_utf8_exits_2_naming_it(self, tmp_path, capsys):
        path, out = tmp_path / "c.ini", tmp_path / "o"
        path.write_bytes(b"[engine]\nbeta = 5\xff\n")
        assert main(["run", "--config", str(path), "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: cannot read config: {path}: 'utf-8' codec can't decode byte 0xff")
        assert not out.exists()

    def test_malformed_config_file_error_names_it(self, tmp_path, capsys):
        path, out = tmp_path / "c.ini", tmp_path / "o"
        path.write_bytes(b"beta = 5\n")
        assert main(["run", "--config", str(path), "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err.splitlines()[:2] == [
            "config error: malformed config: File contains no section headers.",
            f"file: {str(path)!r}, line: 1"]
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["run", "--method", "bogus"],
         "method must be one of ('pseudo_sup', 'pseudo_sup_aug', 'supervised', "
         "'self_training'), got 'bogus'"),
        (["compare", "--methods", "supervised", "bogus"],
         "method must be one of ('pseudo_sup', 'pseudo_sup_aug', 'supervised', "
         "'self_training'), got 'bogus'"),
        (["compare", "--methods", "supervised", "self_training"],
         "method self_training requires confidence_threshold"),
        (["run", "--method", "self_training", "--confidence-threshold", "0.5"],
         "confidence_threshold must be in (0.5, 1]"),
    ])
    def test_bad_method_exits_2_before_any_output(self, tmp_path, capsys, argv, message):
        out = tmp_path / "o"
        assert main(argv + ["--seeds", "1", "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()


class TestRunExperiment:
    def test_outputs_and_summary(self, tmp_path):
        cfg = small_cfg(tmp_path)
        reports = run_experiment(cfg)
        assert len(reports) == 2
        out = cfg.output_dir
        for seed in cfg.seeds:
            cell = os.path.join(out, "supervised", str(seed))
            for name in ("history.csv", "metrics.csv", "classifier.ckpt"):
                assert os.path.exists(os.path.join(cell, name))
        with open(os.path.join(out, "summary.csv")) as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("method,n_seeds")

    def test_summary_recomputable_from_per_seed_metrics(self, tmp_path):
        cfg = small_cfg(tmp_path)
        reports = run_experiment(cfg)
        with open(os.path.join(cfg.output_dir, "summary.csv")) as fh:
            row = fh.read().splitlines()[1].split(",")
        aucs = [r.auc for r in reports]
        assert float(row[6]) == pytest.approx(np.mean(aucs), abs=1e-12)
        assert float(row[7]) == pytest.approx(np.std(aucs, ddof=1), abs=1e-12)

    def test_config_echo_reparses_equal(self, tmp_path):
        cfg = small_cfg(tmp_path)
        run_experiment(cfg)
        with open(os.path.join(cfg.output_dir, "config.ini")) as fh:
            assert config_from_ini(fh.read()) == cfg

    def test_rerun_identical_files(self, tmp_path):
        cfg = small_cfg(tmp_path, seeds=(3,))
        run_experiment(cfg)
        files = ["summary.csv", "supervised/3/history.csv"]
        first = {}
        for f in files:
            with open(os.path.join(cfg.output_dir, f), "rb") as fh:
                first[f] = fh.read()
        run_experiment(cfg)
        for f in files:
            with open(os.path.join(cfg.output_dir, f), "rb") as fh:
                assert fh.read() == first[f]

    def test_pseudo_sup_writes_policy_checkpoint(self, tmp_path):
        cfg = small_cfg(tmp_path, method="pseudo_sup", seeds=(1,))
        run_experiment(cfg)
        assert os.path.exists(
            os.path.join(cfg.output_dir, "pseudo_sup", "1", "policy.ckpt")
        )

    def test_pseudo_sup_without_unlabeled_rows_is_supervised(self, tmp_path):
        # with every train row labeled, pseudo_sup trains no policy: its cell
        # holds no policy.ckpt and the supervised cell's files, byte for byte
        for method in ("pseudo_sup", "supervised"):
            assert main(["run", "--method", method, *TRAIN_FLAGS,
                         "--label-fraction", "1.0",
                         "--output-dir", str(tmp_path / method)]) == 0
        for seed in ("1", "2"):
            cells = [tmp_path / method / method / seed
                     for method in ("pseudo_sup", "supervised")]
            names = ["classifier.ckpt", "history.csv", "metrics.csv"]
            assert sorted(p.name for p in cells[0].iterdir()) == names
            for name in names:
                assert (cells[0] / name).read_bytes() == (cells[1] / name).read_bytes()


class TestCompare:
    def test_rows_and_split_hash_equality(self, tmp_path):
        cfg = small_cfg(tmp_path)
        path = compare_methods(cfg, ["supervised", "pseudo_sup"])
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 3
        hashes = [line.split(",")[-1] for line in lines[1:]]
        assert hashes[0] == hashes[1]

    def test_adding_method_adds_one_row(self, tmp_path):
        cfg = small_cfg(tmp_path, seeds=(1,))
        path = compare_methods(cfg, ["supervised", "pseudo_sup", "pseudo_sup_aug"])
        # pseudo_sup_aug needs grid dims for cropping
        with open(path) as fh:
            assert len(fh.read().splitlines()) == 4

    def test_each_method_reaches_the_trainer_bound_to_its_row_name(self, tmp_path,
                                                                   monkeypatch):
        # a row names its trainer, so a trainer rebound after import (as the
        # bench tracer rebinds `cli.train`) is the one each cell calls
        calls = []

        def spy(name):
            real = getattr(cli, name)

            def wrapper(splits, engine, *rest):
                calls.append((name, engine.augment, rest))
                return real(splits, engine, *rest)
            return wrapper

        for name in ("train", "train_supervised_only", "train_self_training"):
            monkeypatch.setattr(cli, name, spy(name))
        cfg = small_cfg(tmp_path, seeds=(1,))
        compare_methods(cfg, ["pseudo_sup", "pseudo_sup_aug", "supervised", "self_training"])
        # train_supervised_only hands its splits to the real `engine.train`,
        # which the spy on `cli.train` does not see
        assert calls == [("train", False, ()), ("train", True, ()),
                         ("train_supervised_only", False, ()),
                         ("train_self_training", False, (0.9,))]

    def test_too_few_methods_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            compare_methods(small_cfg(tmp_path), ["supervised"])


class TestAblation:
    def test_degenerate_grid_matches_plain_run(self, tmp_path):
        cfg = small_cfg(tmp_path, method="pseudo_sup", seeds=(1,))
        run_ablation(cfg, [5], [0.9])
        with open(os.path.join(cfg.output_dir, "ablation.csv")) as fh:
            rows = fh.read().splitlines()[1:]
        assert len(rows) == 1
        auc_ablate = float(rows[0].split(",")[3])
        cfg2 = small_cfg(tmp_path / "plain", method="pseudo_sup", seeds=(1,))
        reports = run_experiment(cfg2)
        assert auc_ablate == pytest.approx(reports[0].auc, abs=1e-15)

    def test_row_count(self, tmp_path):
        cfg = small_cfg(tmp_path, method="pseudo_sup", seeds=(1, 2))
        run_ablation(cfg, [2, 5], [0.0, 0.9])
        with open(os.path.join(cfg.output_dir, "ablation.csv")) as fh:
            rows = fh.read().splitlines()[1:]
        assert [r.split(",")[:3] for r in rows] == [
            [b, g, seed] for b in ("2", "5") for g in ("0", "0.90000000000000002")
            for seed in ("1", "2")]

    @pytest.mark.parametrize("betas, gammas", [([], [0.9]), ([5], [])])
    def test_empty_grid_rejected(self, tmp_path, betas, gammas):
        cfg = small_cfg(tmp_path, method="pseudo_sup")
        with pytest.raises(ConfigError, match="^ablation grids must be non-empty$"):
            run_ablation(cfg, betas, gammas)
        assert not os.path.exists(cfg.output_dir)

    def test_gamma_out_of_range_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="gamma"):
            run_ablation(small_cfg(tmp_path, method="pseudo_sup"), [5], [1.5])

    def test_other_method_exits_2(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["ablate", "--method", "self_training",
                   "--confidence-threshold", "0.9", "--seeds", "1",
                   "--beta-grid", "5", "--gamma-grid", "0.9",
                   "--output-dir", str(out)])
        assert rc == 2
        assert not out.exists()


class TestCliEntry:
    def test_gen_data_and_run(self, tmp_path):
        ds = str(tmp_path / "ds.txt")
        assert main(["gen-data", "--out", ds, "--n-per-class", "40",
                     "--dim", "3", "--seed", "2"]) == 0
        splits = load_dataset(ds)
        assert splits.labeled_train and splits.test
        out = str(tmp_path / "out")
        rc = main(["run", "--dataset", ds, "--method", "supervised",
                   "--seeds", "1", "--epochs", "1", "--warmup-steps", "5",
                   "--classifier-lr", "0.01", "--hidden-dims", "8",
                   "--output-dir", out])
        assert rc == 0
        assert os.path.exists(os.path.join(out, "summary.csv"))

    def test_module_entry_point_in_a_fresh_process(self, tmp_path):
        """`python -m pseudosup.cli` imports the package in a clean interpreter
        and exits with `main`'s return code through the `__main__` guard."""
        def child(*argv):
            return run_python(tmp_path, "-m", "pseudosup.cli", *argv)

        usage = child("-h")
        assert usage.returncode == 0 and usage.stdout.startswith("usage: pseudosup"), usage.stderr
        bad = child("analyze-corr", "--dataset", str(tmp_path / "absent.txt"),
                    "--out-dir", str(tmp_path / "o"), "--bins", "0")
        assert (bad.returncode, bad.stdout, bad.stderr) == (
            2, "", "config error: bins must be >= 1, got 0\n")
        assert list(tmp_path.iterdir()) == []

    def test_import_freezes_its_heap_with_the_collector_paused(self, tmp_path):
        """In a fresh process `import pseudosup` runs no collection, freezes
        the heap it built (scipy's import leaves most of it) and restores the
        collector's state, also when the import fails; neither importing
        `pseudosup.cli` nor `main` freezes anything more. Both commands print
        to a pipe, block-buffered, so their lines reach it only when the
        process exits with that heap frozen."""
        script = """if True:
            import gc, sys
            phases = []
            def hook(phase, info):
                phases.append(phase)
            gc.callbacks.append(hook)
            counts = [gc.get_freeze_count()]
            import pseudosup
            gc.callbacks.remove(hook)
            counts.append(gc.get_freeze_count())
            from pseudosup.cli import main
            counts.append(gc.get_freeze_count())
            for argv in (["gen-data", "--out", "d.txt", "--n-per-class", "20"],
                         ["analyze-corr", "--dataset", "d.txt", "--out-dir", "o"]):
                assert main(argv) == 0
                counts.append(gc.get_freeze_count())
            print(phases.count("start"), gc.isenabled(), *counts, file=sys.stderr)
        """
        proc = run_python(tmp_path, "-c", script)
        assert proc.returncode == 0, proc.stderr
        collections, enabled, *counts = proc.stderr.split()
        assert (collections, enabled) == ("0", "True")
        before, imported, ready, first, second = map(int, counts)
        # a frozen object can still be freed, so after the import the count
        # may fall (the first `main` frees 3 here) but never rise
        assert before == 0 < second == first <= ready <= imported, counts
        within, between = os.path.join("o", "corr_within.csv"), os.path.join("o", "corr_between.csv")
        assert proc.stdout == f"wrote d.txt\nwrote {within}\nwrote {between}\n"
        for name in ("d.txt", within, between):
            assert (tmp_path / name).read_text().endswith("\n")
        paused = run_python(tmp_path, "-c", "import gc; gc.disable(); import pseudosup; "
                            "print(gc.isenabled(), gc.get_freeze_count() > 0)")
        assert paused.stdout == "False True\n", paused.stderr
        failed = run_python(tmp_path, "-c", "import gc, sys; sys.modules['scipy.stats'] = None\n"
                            "try: import pseudosup\nexcept ImportError: print(gc.isenabled())")
        assert failed.stdout == "True\n", failed.stderr

    def test_gen_data_deterministic(self, tmp_path):
        a = str(tmp_path / "a.txt")
        b = str(tmp_path / "b.txt")
        main(["gen-data", "--out", a, "--n-per-class", "20", "--seed", "5"])
        main(["gen-data", "--out", b, "--n-per-class", "20", "--seed", "5"])
        assert Path(a).read_text() == Path(b).read_text()

    # sha256 of gen-data output, recorded before datasets became arrays; pins
    # every generator and split RNG stream and the file format
    @pytest.mark.parametrize("flags, digest", [
        (["--dim", "5", "--seed", "3"],
         "40409f5629960ab5a219b8becb8e0719ee8d8e94cbcd911d731aba550f2ed339"),
        (["--dim", "12", "--grid", "3", "4", "--seed", "4"],
         "b05d14b207f60f5c3506e42ccc44d039da2f2361c1ef5b08a09baa1235eb7990"),
        (["--grid", "3", "4", "--multimodal", "--vf-target-len", "104", "--seed", "5"],
         "fecc9c457d134b924033501297b4ae293e24cf52922b84f5507fe2c7838afbc3"),
    ])
    def test_gen_data_digest_pinned(self, tmp_path, flags, digest):
        path = tmp_path / "d.txt"
        assert main(["gen-data", "--out", str(path), "--n-per-class", "60", *flags]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("method", ["supervised", "pseudo_sup", "self_training"])
    def test_label_out_of_range_exits_3(self, tmp_path, capsys, method):
        ds = tmp_path / "ds.txt"
        ds.write_text("gdp-synth v1\nn_features 1\n"
                      "trainL a 0 1.0\ntrainL b 1 2.0\ntrainU c ? 3.0\n"
                      "val d 0 1.0\nval e 1 2.0\ntest f 0 1.0\ntest g 2 2.0\n")
        out = tmp_path / "o"
        rc = main(["run", "--dataset", str(ds), "--method", method, "--seeds", "1",
                   "--confidence-threshold", "0.9", "--output-dir", str(out)])
        assert rc == 3
        assert "test has a label outside [0, 2)" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_threshold_exits_2(self, tmp_path):
        rc = main(["run", "--method", "self_training", "--seeds", "1",
                   "--output-dir", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("argv", [
        [cmd, "--seeds", "1", "--epochs", "1", *flags]
        for cmd in ("run", "compare", "ablate")
        for flags in (["--multimodal"], ["--confidence-threshold", "1.5"])
    ] + [["gen-data", "--multimodal"]] + [
        # the secondary modality (52 values) cannot be up-scaled to 10
        [*cmd, "--multimodal", "--grid", "3", "4", "--vf-target-len", "10"]
        for cmd in (["run", "--seeds", "1"], ["compare", "--seeds", "1"],
                    ["ablate", "--seeds", "1"], ["gen-data"])
    ] + [
        # range checks on engine, generated-data and seed values
        ["run", "--epochs", "1", *flags] for flags in (
            ["--batch-labeled", "0"],
            ["--batch-unlabeled", "0"],
            ["--hidden-dims", "0"],
            ["--method", "pseudo_sup", "--batch-val", "0"],
            ["--n-classes", "1"],
            ["--method", "pseudo_sup_aug", "--grid", "4", "5", "--crop-scale-min", "1.5"],
            ["--crop-scale-min", "0"],
            ["--weight-decay", "-1"],
            ["--pseudo-loss-weight", "-2"],
            ["--label-fraction", "2"],
            ["--fractions", "0.5", "0.6", "-0.1"],
            ["--fractions", "0.5", "0.2", "0.2"],
            ["--grid", "3", "3"],
            ["--multimodal", "--grid", "0", "4"],
            ["--n-per-class", "0"],
            ["--dim", "0"],
            ["--class-separation", "-1"],
            ["--seeds", "1", "1"],
        )
    ] + [
        ["ablate", "--epochs", "1", "--seeds", "2", "2"],
        ["compare", "--epochs", "1", "--batch-labeled", "0"],
        ["gen-data", "--label-fraction", "0"],
        ["gen-data", "--grid", "3", "3"],
        # checked before the dataset is read, so its absence does not matter
        ["analyze-corr", "--dataset", "absent.txt", "--bins", "0"],
        ["analyze-corr", "--dataset", "absent.txt", "--bins", "-3"],
    ] + [
        # rules only `data` checks, when the first seed's splits are built:
        # fractions whose rounding empties a partition, a non-finite
        # separation, and negative grid dims whose product still tiles dim 20
        ["run", "--seeds", "1", "--n-per-class", "2", "--fractions", "0.9", "0.05", "0.05"],
        ["run", "--seeds", "1", "--n-per-class", "10", "--label-fraction", "0.001"],
        ["run", "--seeds", "1", "--epochs", "1", "--class-separation", "inf"],
        ["run", "--seeds", "1", "--epochs", "1", "--grid", "-4", "-5"],
    ] + [
        ["run", "--seeds", "1", "--epochs", "1", flag, value] for flag, value in (
            ("--policy-lr", "inf"),
            ("--classifier-lr", "nan"),
            ("--weight-decay", "inf"),
            ("--pseudo-loss-weight", "inf"),
        )
    ] + [
        [cmd, "--seeds", "1", "--epochs", "0"] for cmd in ("run", "compare", "ablate")
    ] + [
        ["run", "--epochs", "1", "--seeds", "-1"],
        ["gen-data", "--seed", "-3"],
        ["gen-data", "--n-per-class", "2", "--fractions", "0.9", "0.05", "0.05"],
        ["ablate", "--epochs", "1", "--seeds", "1", "--beta-grid", "5", "5"],
        ["ablate", "--epochs", "1", "--seeds", "1", "--gamma-grid", "0.9", "0.5", "0.9"],
    ])
    def test_bad_config_exits_2_before_any_output(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        flag = {"gen-data": "--out", "analyze-corr": "--out-dir"}.get(argv[0], "--output-dir")
        assert main(argv + [flag, str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["gen-data", "--seed", "-3"], "seed must be >= 0, got -3"),
        (["run", "--seeds", "2", "-1"], "seed must be >= 0, got -1"),
        (["run", "--epochs", "0"], "epochs must be >= 1, got 0"),
        (["run", "--seeds", "1", "--n-per-class", "2", "--fractions", "0.9", "0.05", "0.05"],
         "a split partition would be empty: 2 labeled train, 0 validation and 0 test "
         "of 4 rows"),
        (["run", "--fractions", "0.5", "0.6", "-0.1"],
         "fractions must be positive and sum to 1, got (0.5, 0.6, -0.1)"),
        (["run", "--grid", "-4", "-5"], "grid dims must be >= 1, got (-4, -5)"),
        (["run", "--grid", "3", "3"], "grid 3x3 must tile dim 20"),
        (["run", "--class-separation", "nan"],
         "class_separation must be finite and >= 0, got nan"),
        (["run", "--policy-lr", "nan"], "learning rates must be positive and finite"),
        (["run", "--multimodal"], "multimodal mode requires dataset grid dims"),
        (["run", "--multimodal", "--grid", "3", "4", "--vf-target-len", "10"],
         "vf_target_len must be >= 52, the length of the secondary modality, got 10"),
        (["ablate", "--beta-grid", "5", "5", "--gamma-grid", "0.9"],
         "beta grid values must be distinct, got [5, 5]"),
        (["ablate", "--beta-grid", "5", "--gamma-grid", "0.9", "0.9"],
         "gamma grid values must be distinct, got [0.9, 0.9]"),
    ])
    def test_config_error_names_the_value(self, tmp_path, capsys, argv, message):
        flag = "--out" if argv[0] == "gen-data" else "--output-dir"
        assert main(argv + [flag, str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_generated_splits_built_once_per_seed(self, tmp_path, monkeypatch):
        # the first seed's splits are built before anything is written and
        # reused for that seed, not built again
        calls = count_calls(monkeypatch, "split_dataset", "splits_digest")
        assert main(["compare", "--methods", "supervised", "pseudo_sup",
                     "--seeds", "1", "2", "3", "--n-per-class", "20", "--dim", "3",
                     "--epochs", "1", "--warmup-steps", "2", "--hidden-dims", "4",
                     "--output-dir", str(tmp_path / "cmp")]) == 0
        assert calls == {"split_dataset": 3, "splits_digest": 3}

    def test_generated_splits_held_for_their_seed_only(self, tmp_path, monkeypatch):
        built, seed_1_alive = [], []
        real_build, real_train = cli.build_splits, cli.train_supervised_only

        def build(spec, seed):
            splits = real_build(spec, seed)
            built.append(weakref.ref(splits))
            return splits

        def train_supervised_only(splits, engine):
            if engine.seed == 3:
                gc.collect()
                seed_1_alive.append(built[0]() is not None)
            return real_train(splits, engine)

        monkeypatch.setattr(cli, "build_splits", build)
        monkeypatch.setattr(cli, "train_supervised_only", train_supervised_only)
        assert main(["run", "--method", "supervised", "--seeds", "1", "2", "3",
                     "--n-per-class", "20", "--dim", "3", "--epochs", "1",
                     "--warmup-steps", "2", "--hidden-dims", "4",
                     "--output-dir", str(tmp_path / "run")]) == 0
        assert len(built) == 3
        assert seed_1_alive == [False]

    @pytest.mark.parametrize("method", ["supervised", "pseudo_sup", "self_training"])
    def test_single_class_test_split_exits_3_before_training(self, tmp_path, capsys,
                                                             method):
        ds = tmp_path / "ds.txt"
        ds.write_text("gdp-synth v1\nn_features 1\n"
                      "trainL a 0 1.0\ntrainL b 1 2.0\ntrainU c ? 3.0\n"
                      "val d 0 1.0\nval e 1 2.0\ntest f 0 1.0\ntest g 0 2.0\n")
        out = tmp_path / "o"
        rc = main(["run", "--dataset", str(ds), "--method", method, "--seeds", "1",
                   "--confidence-threshold", "0.9", "--output-dir", str(out)])
        assert rc == 3
        assert "error: test must hold class 1 and another" in capsys.readouterr().err
        assert not out.exists()

    # a rule one row breaks names that row's line; a rule of the whole split cannot
    @pytest.mark.parametrize("test_rows, message, line", [
        ("test f 0 1.0\ntest g 2 2.0\n", "test has a label outside [0, 2): 2 at id 'g'",
         ", line 8"),
        ("test f 0 1.0\ntest g 0 2.0\n",
         "test must hold class 1 and another class for the AUC", ""),
    ], ids=["label_out_of_range", "single_class_test"])
    def test_engine_rule_on_a_dataset_file_names_the_file(self, tmp_path, capsys, test_rows,
                                                          message, line):
        ds = tmp_path / "ds.txt"
        ds.write_text("gdp-synth v1\nn_features 1\n"
                      "trainL a 0 1.0\ntrainL b 1 2.0\nval d 0 1.0\nval e 1 2.0\n" + test_rows)
        rc = main(["run", "--dataset", str(ds), "--method", "supervised", "--seeds", "1",
                   "--output-dir", str(tmp_path / "o")])
        assert rc == 3
        assert capsys.readouterr().err == f"error: {message} (dataset file {ds}{line})\n"

    def test_label_out_of_range_names_its_line_after_a_grid_header(self, tmp_path, capsys):
        ds = tmp_path / "ds.txt"
        ds.write_text("gdp-synth v1\nn_features 2\ngrid 1 2\n"
                      "trainL a 0 1 2\ntrainU b ? 1 2\ntrainL c 1 2 1\nval d 0 1 2\n"
                      "val e 1 2 1\nval f 3 1 1\ntest g 0 1 2\ntest h 1 2 1\n")
        out = tmp_path / "o"
        rc = main(["compare", "--dataset", str(ds), "--methods", "supervised", "pseudo_sup",
                   "--seeds", "1", "--output-dir", str(out)])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"error: validation has a label outside [0, 2): 3 at id 'f' "
            f"(dataset file {ds}, line 9)\n")
        assert not out.exists()

    def test_divergence_on_a_dataset_file_names_the_file(self, tmp_path, capsys):
        ds = tmp_path / "ds.txt"
        ds.write_text("gdp-synth v1\nn_features 2\ntrainL a 0 0.5 -1.5\ntrainL b 1 1.5 2\n"
                      "trainU c ? 1 0.25\nval d 0 -0.5 1\nval e 1 11111111111111111111 0\n"
                      "test f 0 0 -1\ntest g 1 1.25 1\n")
        rc = main(["run", "--dataset", str(ds), "--seeds", "1", "--epochs", "1",
                   "--warmup-steps", "1", "--hidden-dims", "2", "--beta", "1",
                   "--output-dir", str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: training diverged at seed 1, step 1: reward overflows")
        assert err.endswith(f" (dataset file {ds})\n")

    @pytest.mark.parametrize("flags, spec", [
        (["--dim", "5"], DatasetSpec(n_per_class=30, dim=5)),
        (["--dim", "12", "--grid", "3", "4"],
         DatasetSpec(n_per_class=30, dim=12, grid=(3, 4))),
        (["--grid", "3", "4", "--multimodal", "--vf-target-len", "104"],
         DatasetSpec(n_per_class=30, grid=(3, 4), multimodal=True, vf_target_len=104)),
    ])
    def test_gen_data_round_trip(self, tmp_path, flags, spec):
        path = str(tmp_path / "d.txt")
        assert main(["gen-data", "--out", path, "--n-per-class", "30", "--seed", "3",
                     *flags]) == 0
        expected, loaded = build_splits(spec, 3), load_dataset(path)
        assert loaded.grid == expected.grid
        for name in ("labeled_train", "unlabeled_train", "validation", "test"):
            for field in ("ids", "X", "y"):
                np.testing.assert_array_equal(getattr(getattr(loaded, name), field),
                                              getattr(getattr(expected, name), field))

    def test_dataset_file_loaded_and_hashed_once(self, tmp_path, monkeypatch):
        ds = str(tmp_path / "ds.txt")
        main(["gen-data", "--out", ds, "--n-per-class", "20", "--dim", "3"])
        calls = count_calls(monkeypatch, "load_dataset", "splits_digest")
        flags = ["--dataset", ds, "--seeds", "1", "2", "3", "--epochs", "1",
                 "--warmup-steps", "2", "--hidden-dims", "4"]
        assert main(["run", "--method", "supervised", *flags,
                     "--output-dir", str(tmp_path / "run")]) == 0
        assert calls == {"load_dataset": 1, "splits_digest": 1}
        assert main(["compare", "--methods", "supervised", "pseudo_sup", *flags,
                     "--output-dir", str(tmp_path / "cmp")]) == 0
        assert calls == {"load_dataset": 2, "splits_digest": 2}
        # the combined hash still covers one digest per seed
        digest = splits_digest(load_dataset(ds))
        with open(tmp_path / "cmp" / "comparison.csv") as fh:
            rows = fh.read().splitlines()[1:]
        expected = hashlib.sha256((digest * 3).encode()).hexdigest()
        assert [r.split(",")[-1] for r in rows] == [expected, expected]

    @pytest.mark.parametrize("shape", [["--dim", "3"], ["--grid", "2", "2", "--multimodal"]])
    def test_dataset_file_split_hash_equals_generated(self, tmp_path, shape):
        # hidden labels are not in the file, and not in the hash
        ds = str(tmp_path / "ds.txt")
        spec = ["--n-per-class", "20", *shape]
        assert main(["gen-data", "--out", ds, "--seed", "4", *spec]) == 0

        def split_hashes(name, *flags):
            out = tmp_path / name
            assert main(["compare", "--methods", "supervised", "pseudo_sup", "--seeds", "4",
                         "--epochs", "1", "--warmup-steps", "2", "--hidden-dims", "4",
                         *flags, "--output-dir", str(out)]) == 0
            rows = (out / "comparison.csv").read_text().splitlines()[1:]
            return {row.rsplit(",", 1)[1] for row in rows}

        from_file = split_hashes("file", "--dataset", ds)
        assert len(from_file) == 1
        assert from_file == split_hashes("generated", *spec)

    @pytest.mark.parametrize("flags", [
        ["--multimodal"],
        ["--multimodal", "--grid", "3", "4", "--vf-target-len", "10"],
        ["--n-per-class", "0"],
        ["--grid", "3", "3"],
    ])
    def test_dataset_file_ignores_generation_settings(self, tmp_path, flags):
        ds = str(tmp_path / "ds.txt")
        main(["gen-data", "--out", ds, "--n-per-class", "20", "--dim", "3"])
        assert main(["run", "--method", "supervised", "--dataset", ds, "--seeds", "1",
                     "--epochs", "1", "--warmup-steps", "2", "--hidden-dims", "4",
                     *flags, "--output-dir", str(tmp_path / "run")]) == 0

    def test_augment_without_grid_exits_3_before_any_cell(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["run", "--method", "pseudo_sup_aug", "--n-per-class", "20",
                     "--dim", "4", "--seeds", "1", "--epochs", "1",
                     "--output-dir", str(out)]) == 3
        assert capsys.readouterr().err == "error: augment requires splits with grid dims\n"
        assert not out.exists()

    def test_compare_augment_without_grid_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["compare", "--methods", "supervised", "pseudo_sup_aug",
                     "--n-per-class", "20", "--dim", "4", "--seeds", "1", "--epochs", "1",
                     "--output-dir", str(out)]) == 3
        assert capsys.readouterr().err == "error: augment requires splits with grid dims\n"
        assert not out.exists()

    def test_missing_dataset_file_exits_3(self, tmp_path):
        rc = main(["run", "--dataset", str(tmp_path / "absent.txt"),
                   "--method", "supervised", "--seeds", "1",
                   "--output-dir", str(tmp_path / "o")])
        assert rc == 3
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("cmd", [["run", "--method", "supervised"],
                                     ["compare"], ["ablate"]])
    def test_rejected_dataset_file_writes_nothing(self, tmp_path, capsys, cmd):
        ds = tmp_path / "ds.txt"
        ds.write_text("gdp-synth v1\nn_features 1\n"
                      "trainL a 0 1.0\ntrainL b 1 2.0\nval c 0 1.0\n")
        out = tmp_path / "o"
        assert main([*cmd, "--dataset", str(ds), "--seeds", "1",
                     "--output-dir", str(out)]) == 3
        assert "no test rows" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method, flags, digest", TRAINING_PINS)
    def test_training_digest_pinned(self, tmp_path, method, flags, digest):
        assert pin_digest(tmp_path / "o", method, flags) == digest, (
            f"digest on OpenBLAS kernel {openblas_core()}; the pins are known to hold "
            f"on {', '.join(PIN_KERNELS)}")

    def test_pins_hold_on_each_pin_kernel(self, tmp_path):
        # the pseudo_sup pin and the cropping pseudo_sup_aug pin, run in one
        # child process per kernel; a kernel the CPU cannot run falls back to
        # another core, which the child reports, and is skipped
        picked = (0, 5)
        path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
        with contextlib.ExitStack() as stack:
            children = {kernel: stack.enter_context(subprocess.Popen(
                [sys.executable, "-c", _KERNEL_CHILD, str(tmp_path / kernel), *map(str, picked)],
                env={**os.environ, "OPENBLAS_CORETYPE": kernel, "OPENBLAS_NUM_THREADS": "1",
                     "PYTHONPATH": path},
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
                for kernel in PIN_KERNELS}
            outputs = {kernel: child.communicate(timeout=300)
                       for kernel, child in children.items()}
        ran, skipped = {}, {}
        for kernel, (out, err) in outputs.items():
            assert children[kernel].returncode == 0, err
            report = json.loads(out.splitlines()[-1])
            if report["core"] == kernel:
                ran[kernel] = report["digests"]
            else:
                skipped[kernel] = report["core"]
        if not ran:
            pytest.skip(f"no pin kernel runs here: {skipped}")
        assert ran == dict.fromkeys(ran, [TRAINING_PINS[i][2] for i in picked]), skipped

    def test_openblas_core_is_unknown_without_the_library(self, tmp_path, monkeypatch):
        assert openblas_core() != ""
        monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
        assert openblas_core() == "unknown"

    def test_analyze_corr(self, tmp_path):
        ds = str(tmp_path / "ds.txt")
        main(["gen-data", "--out", ds, "--n-per-class", "15", "--dim", "4"])
        out = str(tmp_path / "corr")
        assert main(["analyze-corr", "--dataset", ds, "--bins", "10",
                     "--out-dir", out]) == 0
        for group in ("within", "between"):
            path = os.path.join(out, f"corr_{group}.csv")
            with open(path) as fh:
                lines = fh.read().splitlines()
            assert lines[0] == "bin_center,density"
            assert len(lines) == 11

    def test_analyze_corr_rule_names_the_dataset_file(self, tmp_path, capsys):
        ds = tmp_path / "ds.txt"
        ds.write_text("gdp-synth v1\nn_features 2\ntrainL a 0 0.5 -1.5\ntrainL b 0 1.5 2\n"
                      "trainU c ? 1 0.25\nval d 0 -0.5 1\ntest e 1 0 -1\n")
        out = tmp_path / "corr"
        assert main(["analyze-corr", "--dataset", str(ds), "--out-dir", str(out)]) == 3
        assert capsys.readouterr() == (
            "", f"error: need at least 2 samples per class (dataset file {ds})\n")
        assert not out.exists()

    # sha256 over corr_within.csv then corr_between.csv; pins the correlations
    # from row-block Gram products, their routing by label and the histogram densities
    def test_analyze_corr_digest_pinned(self, tmp_path):
        ds = str(tmp_path / "ds.txt")
        assert main(["gen-data", "--out", ds, "--n-per-class", "30", "--grid", "3", "4",
                     "--multimodal", "--seed", "2"]) == 0
        out = tmp_path / "corr"
        assert main(["analyze-corr", "--dataset", ds, "--bins", "16",
                     "--out-dir", str(out)]) == 0
        h = hashlib.sha256()
        for group in ("within", "between"):
            h.update((out / f"corr_{group}.csv").read_bytes())
        assert h.hexdigest() == (
            "55765efc518d58c482b1658633b7ed73797e27774bc894568462626969477fcb")


class TestBuildSplits:
    def test_multimodal_inline(self):
        spec = DatasetSpec(n_per_class=20, grid=(3, 4), multimodal=True,
                           vf_target_len=52, class_separation=1.0)
        splits = build_splits(spec, seed=1)
        assert splits.labeled_train.X.shape[1] == 12 + 52
        assert splits.grid == (3, 4)

    def test_multimodal_requires_grid(self, tmp_path):
        spec = dataclasses.replace(small_cfg(tmp_path).dataset, multimodal=True, grid=None)
        with pytest.raises(ConfigError, match="multimodal mode requires dataset grid dims"):
            build_splits(spec, 1)


class TestBenchmarkCommandLines:
    """The command lines of the workloads BENCHMARK.json gates, as
    bench/run_bench.py spells them, still parse, and a `run` line's config
    passes its checks."""

    @pytest.mark.parametrize("name", [w["name"] for w in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["workloads"]])
    def test_workload_parses(self, monkeypatch, tmp_path, name):
        monkeypatch.syspath_prepend(str(ROOT / "bench"))
        workload = importlib.import_module("run_bench").WORKLOADS[name]
        parser = build_parser()
        parser.parse_args(["gen-data", "--out", "x", "--seed", "1", *workload.gen_args])
        args = parser.parse_args([a.replace("{data}", str(tmp_path / "d.txt"))
                                  .replace("{out}", str(tmp_path / "out"))
                                  for a in workload.cli_args])
        if args.command == "run":
            _config_from_args(args)


# One argv per command that sets every flag the command takes.
EVERY_FLAG_ARGV = {
    "run": [*NONDEFAULT_ARGV, "--config", "c.ini"],
    "ablate": ["ablate", *NONDEFAULT_ARGV[1:], "--config", "c.ini",
               "--beta-grid", "5", "9", "--gamma-grid", "0.3"],
    "compare": ["compare", *NONDEFAULT_ARGV[1:], "--config", "c.ini",
                "--methods", "supervised", "self_training"],
    "gen-data": ["gen-data", "--out", "d.txt", "--seed", "4", "--n-per-class", "7",
                 "--dim", "5", "--class-separation", "2.5", "--label-fraction", "0.25",
                 "--fractions", "0.6", "0.2", "0.2", "--grid", "2", "3", "--multimodal",
                 "--vf-target-len", "60"],
    "analyze-corr": ["analyze-corr", "--dataset", "d.txt", "--bins", "7", "--out-dir", "o"],
}


class TestCommandParser:
    """The parser `main` builds for the command it runs parses and explains
    that command exactly as the parser of every command does."""

    def test_every_command_has_an_argv(self):
        assert list(EVERY_FLAG_ARGV) == list(cli.COMMANDS)

    @pytest.mark.parametrize("command", list(EVERY_FLAG_ARGV))
    def test_same_namespace(self, command):
        argv = EVERY_FLAG_ARGV[command]
        full = build_parser().parse_args(argv)
        assert None not in vars(full).values()  # the argv sets every flag
        assert build_parser(command).parse_args(argv) == full

    @staticmethod
    def help_text(capsys, parse, argv):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        assert exc.value.code == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["-h"], *([c, "-h"] for c in EVERY_FLAG_ARGV)])
    def test_same_help(self, capsys, argv):
        full = self.help_text(capsys, build_parser().parse_args, argv)
        assert full.startswith("usage: pseudosup")
        # the top-level help lists every command whichever one gets its flags
        for command in EVERY_FLAG_ARGV if argv == ["-h"] else argv[:1]:
            assert self.help_text(capsys, build_parser(command).parse_args, argv) == full
        assert self.help_text(capsys, main, argv) == full

    @pytest.mark.parametrize("argv", [[], ["runn", "--seeds", "1"], ["run", "--bogus"],
                                      ["--bogus", "run"], ["analyze-corr", "--bins", "x"]])
    def test_same_error(self, capsys, argv):
        errors = []
        for parse in (build_parser().parse_args, main):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            errors.append((exc.value.code, capsys.readouterr()))
        assert errors[0] == errors[1] and errors[0][0] == 2


class TestCsvFiles:
    """Every CSV table the commands write follows `engine.csv_text`'s cell
    rule: each row is as wide as its header, and each number is written with
    17 significant digits."""

    def test_every_table_follows_the_cell_rule(self, tmp_path):
        ds = str(tmp_path / "ds.txt")
        for argv in (
            ["run", "--method", "pseudo_sup", *TRAIN_FLAGS],
            ["compare", "--methods", "supervised", "pseudo_sup", "self_training",
             "--confidence-threshold", "0.9", *TRAIN_FLAGS],
            ["ablate", "--beta-grid", "5", "--gamma-grid", "0.3", "0.9", *TRAIN_FLAGS],
        ):
            assert main([*argv, "--output-dir", str(tmp_path / argv[0])]) == 0
        assert main(["gen-data", "--out", ds, "--n-per-class", "15", "--dim", "4"]) == 0
        assert main(["analyze-corr", "--dataset", ds, "--bins", "10",
                     "--out-dir", str(tmp_path / "analyze-corr")]) == 0
        tables = {}
        for path in sorted(tmp_path.rglob("*.csv")):
            with open(path, newline="") as fh:
                tables[path.relative_to(tmp_path).as_posix()] = list(csv.reader(fh))
        assert {Path(name).name for name in tables} == {
            "history.csv", "metrics.csv", "summary.csv", "comparison.csv", "ablation.csv",
            "ablation_pivot.csv", "corr_within.csv", "corr_between.csv"}
        bad = []
        for name, (header, *rows) in tables.items():
            for i, row in enumerate(rows, start=1):
                if len(row) != len(header):
                    bad.append((name, i, row))
                for column, cell in zip(header, row):
                    with contextlib.suppress(ValueError):
                        if column != "split_hash" and cell != f"{float(cell):.17g}":
                            bad.append((name, i, column, cell))
        assert bad == []
        # the cases the rule is there for: an empty cell and an inexact float
        history = tables["compare/self_training/1/history.csv"]
        assert history[1][history[0].index("loss_val_before")] == ""
        assert {row[1] for row in tables["ablate/ablation.csv"][1:]} == {
            "0.29999999999999999", "0.90000000000000002"}
