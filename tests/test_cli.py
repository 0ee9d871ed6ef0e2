import configparser
import dataclasses
import hashlib
import os
import re

import numpy as np
import pytest

from pseudosup import cli
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
from pseudosup.data import load_dataset
from pseudosup.engine import EngineConfig


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

    def test_tuple_length_checked(self):
        with pytest.raises(ConfigError, match="grid"):
            config_from_ini("[dataset]\ngrid = 3\n")

    def test_validation_names_missing_field(self, tmp_path):
        cfg = small_cfg(tmp_path, method="self_training")
        cfg.confidence_threshold = None
        with pytest.raises(ConfigError, match="confidence_threshold"):
            cfg.validate()


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

    def test_gen_data_deterministic(self, tmp_path):
        a = str(tmp_path / "a.txt")
        b = str(tmp_path / "b.txt")
        main(["gen-data", "--out", a, "--n-per-class", "20", "--seed", "5"])
        main(["gen-data", "--out", b, "--n-per-class", "20", "--seed", "5"])
        assert open(a).read() == open(b).read()

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
        assert not (out / method).exists()

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
    ])
    def test_bad_config_exits_2_before_any_output(self, tmp_path, argv):
        out = tmp_path / "o"
        flag = "--out" if argv[0] == "gen-data" else "--output-dir"
        assert main(argv + [flag, str(out)]) == 2
        assert not out.exists()

    def test_dataset_file_loaded_and_hashed_once(self, tmp_path, monkeypatch):
        ds = str(tmp_path / "ds.txt")
        main(["gen-data", "--out", ds, "--n-per-class", "20", "--dim", "3"])
        calls = {"load_dataset": 0, "serialize_splits": 0}

        def counted(name):
            real = getattr(cli, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(cli, name, counted(name))
        flags = ["--dataset", ds, "--seeds", "1", "2", "3", "--epochs", "1",
                 "--warmup-steps", "2", "--hidden-dims", "4"]
        assert main(["run", "--method", "supervised", *flags,
                     "--output-dir", str(tmp_path / "run")]) == 0
        assert calls == {"load_dataset": 1, "serialize_splits": 0}
        assert main(["compare", "--methods", "supervised", "pseudo_sup", *flags,
                     "--output-dir", str(tmp_path / "cmp")]) == 0
        assert calls == {"load_dataset": 2, "serialize_splits": 1}
        # the combined hash still covers one digest per seed
        with open(ds) as fh:
            digest = hashlib.sha256(fh.read().encode()).hexdigest()
        with open(tmp_path / "cmp" / "comparison.csv") as fh:
            rows = fh.read().splitlines()[1:]
        expected = hashlib.sha256((digest * 3).encode()).hexdigest()
        assert [r.split(",")[-1] for r in rows] == [expected, expected]

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

    # sha256 over each cell's history.csv, metrics.csv and checkpoints,
    # recorded before the parameters moved into one flat buffer; pins every
    # training RNG stream and floating-point operation of the four methods
    @pytest.mark.parametrize("method, flags, digest", [
        ("pseudo_sup", [],
         "066d1d8aa8b399a9a9d68c97c8a68f48fe40fb81810640510888af143a626afa"),
        ("pseudo_sup_aug", ["--grid", "2", "2"],
         "742b816a35cf73a6408ed992f19bdea0d2d48a778b50f8c70b764b07caa8da1e"),
        ("supervised", [],
         "751b24ca68b74d13eb3aa9f90d4a69094fbf714b0ffd4a1f7b488762f70aa1af"),
        ("self_training", ["--confidence-threshold", "0.6"],
         "6dfc9e4c5bd9b7f691ec1825cb2ad82e488ba9a76680bdebb04273fdbab19d84"),
    ])
    def test_training_digest_pinned(self, tmp_path, method, flags, digest):
        out = tmp_path / "o"
        assert main(["run", "--method", method, *TRAIN_FLAGS, *flags,
                     "--output-dir", str(out)]) == 0
        files = sorted(p for p in (out / method).rglob("*") if p.is_file())
        assert len(files) == (8 if method.startswith("pseudo_sup") else 6)
        h = hashlib.sha256()
        for path in files:
            h.update(path.relative_to(out).as_posix().encode())
            h.update(path.read_bytes())
        assert h.hexdigest() == digest

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


class TestBuildSplits:
    def test_multimodal_inline(self):
        spec = DatasetSpec(n_per_class=20, grid=(3, 4), multimodal=True,
                           vf_target_len=52, class_separation=1.0)
        splits = build_splits(spec, seed=1)
        assert splits.labeled_train.X.shape[1] == 12 + 52
        assert splits.grid == (3, 4)

    def test_multimodal_requires_grid(self, tmp_path):
        cfg = small_cfg(tmp_path)
        cfg.dataset.multimodal = True
        cfg.dataset.grid = None
        with pytest.raises(ConfigError):
            cfg.validate()
