"""Experiment front-end: `run`, `ablate`, `compare`, `gen-data`, `analyze-corr`.

Configs are INI-style `key = value` files with [experiment], [dataset] and
[engine] sections; explicit CLI flags override file values. Every field of
`ExperimentConfig`, `DatasetSpec` and `EngineConfig` is both a flag (dashes)
and an INI key (underscores), except the per-cell fields in `PER_CELL`: the
seed, and each field that a row of `METHODS` sets. Each method is one row of
`METHODS`, which names its trainer; every command runs its cells through that
table. Exit codes: 0 success, 2 config error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import io
import os
import sys
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from typing import Any

import numpy as np

from .data import (
    VF_LOCATIONS,
    DatasetSplits,
    generate_multimodal_gaussians,
    generate_overlapping_gaussians,
    load_dataset,
    row_line,
    save_dataset,
    split_dataset,
    splits_digest,
)
from .engine import (
    ConfigError,
    EngineConfig,
    RowError,
    TrainResult,
    _field_types,
    _TYPE_RULES,
    check_splits,
    check_types,
    csv_text,
    train,
    train_self_training,
    train_supervised_only,
)
from .metrics import MetricsReport, correlation_density
from .nn_core import save_model

# method -> (the name of its trainer, the EngineConfig fields it sets, whether
# it requires confidence_threshold, which its trainer then takes after the
# splits and the engine). A row names its trainer, looked up in this module
# when a cell runs, rather than holding it, so whatever that name is bound to
# then (a tracer's wrapper, a test's spy) is called. A new method is one row.
METHODS = {
    "pseudo_sup": ("train", {}, False),
    "pseudo_sup_aug": ("train", {"augment": True}, False),
    "supervised": ("train_supervised_only", {}, False),
    "self_training": ("train_self_training", {}, True),
}

# EngineConfig fields the runner sets for each cell; neither flags nor INI keys.
PER_CELL = ("seed", *dict.fromkeys(name for _, sets, _ in METHODS.values() for name in sets))
# Flags not spelled as their field name with dashes.
FLAG_NAMES = {"path": "--dataset"}


@dataclass(frozen=True)
class DatasetSpec:
    path: str | None = None
    n_per_class: int = 500
    dim: int = 20
    class_separation: float = 1.0
    label_fraction: float = 0.5
    fractions: tuple[float, float, float] = (0.7, 0.1, 0.2)
    grid: tuple[int, int] | None = None
    multimodal: bool = False
    vf_target_len: int = VF_LOCATIONS

    def __post_init__(self):
        """Each field's type rule (`check_types`); `data` owns the rest."""
        check_types(self)


@dataclass(frozen=True)
class ExperimentConfig:
    method: str = "pseudo_sup"
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)
    output_dir: str = "out"
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    engine: EngineConfig = field(default_factory=EngineConfig)
    confidence_threshold: float | None = None

    def __post_init__(self):
        """Each field's type rule (`check_types`), checked first, then that
        the engine leaves each field a METHODS row sets at its default (a
        config.ini cannot record it), then the method, seed list and
        threshold rules; `data` and EngineConfig own the rest, the seed range
        included."""
        check_types(self)
        for name in PER_CELL[1:]:  # PER_CELL[0], the seed, is set from `seeds`
            if (value := getattr(self.engine, name)) != getattr(EngineConfig(), name):
                raise ConfigError(f"engine.{name} is set by the method, got {value!r}")
        if self.method not in (methods := tuple(METHODS)):
            raise ConfigError(f"method must be one of {methods}, got {self.method!r}")
        if METHODS[self.method][2] and self.confidence_threshold is None:
            raise ConfigError(f"method {self.method} requires confidence_threshold")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must be distinct, got {self.seeds}")
        for seed in self.seeds:  # each must pass EngineConfig's seed rule
            replace(self.engine, seed=seed)
        if self.confidence_threshold is not None and not 0.5 < self.confidence_threshold <= 1.0:
            raise ConfigError("confidence_threshold must be in (0.5, 1]")


# ---------------------------------------------------------------------------
# config schema: one entry per settable field, derived from the dataclasses

_TOP = "experiment"  # INI section of ExperimentConfig's own fields


@dataclass(frozen=True)
class _Field:
    section: str  # _TOP, or the ExperimentConfig field holding the spec
    name: str
    scalar: type
    nargs: int | str | None  # None: scalar; "+": tuple[T, ...]; n: n-tuple

    def parse(self, raw: str) -> Any:
        parse = _TYPE_RULES[self.scalar][3]
        return parse(raw) if self.nargs is None else tuple(parse(tok) for tok in raw.split())

    def format(self, value: Any) -> str:
        fmt = _TYPE_RULES[self.scalar][4]
        return fmt(value) if self.nargs is None else " ".join(fmt(v) for v in value)


def _build_schema() -> tuple[_Field, ...]:
    sections = {_TOP: ExperimentConfig} | {
        name: tp for name, (tp, _, _) in _field_types(ExperimentConfig).items() if is_dataclass(tp)
    }
    return tuple(
        _Field(section, name, scalar, nargs)
        for section, cls in sections.items()
        for name, (scalar, nargs, _) in _field_types(cls).items()
        if name not in PER_CELL and not is_dataclass(scalar)
    )


SCHEMA = _build_schema()


def _override(cfg: ExperimentConfig, values: dict[_Field, Any]) -> ExperimentConfig:
    """`cfg` with each field in `values` set, checked by the dataclasses."""
    by_section: dict[str, dict[str, Any]] = {}
    for f, value in values.items():
        by_section.setdefault(f.section, {})[f.name] = value
    top = by_section.pop(_TOP, {})
    nested = {s: replace(getattr(cfg, s), **kw) for s, kw in by_section.items()}
    return replace(cfg, **top, **nested)


# ---------------------------------------------------------------------------
# config file I/O

def config_to_ini(cfg: ExperimentConfig) -> str:
    cp = configparser.ConfigParser(interpolation=None)
    for f in SCHEMA:
        if not cp.has_section(f.section):
            cp.add_section(f.section)
        spec = cfg if f.section == _TOP else getattr(cfg, f.section)
        value = getattr(spec, f.name)
        if value is not None:
            cp[f.section][f.name] = f.format(value)
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def _ini_values(text: str, source: str = "<string>") -> dict[_Field, Any]:
    """The value of each schema field that the INI `text` sets, read as written
    (`%` is plain). Any other section, even an empty one, or key is a
    ConfigError, [DEFAULT] too: no header can name the default section "", so
    [DEFAULT] is an ordinary one. A malformed text's error names `source`."""
    cp = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        cp.read_string(text, source)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None
    fields = {(f.section, f.name): f for f in SCHEMA}
    known_sections = {f.section for f in SCHEMA}
    values = {}
    for section in cp.sections():
        if section not in known_sections:
            raise ConfigError(f"unknown section {section}")
        for key, raw in cp.items(section):
            f = fields.get((section, key))
            if f is None:
                raise ConfigError(f"unknown key {section}.{key}")
            try:
                values[f] = f.parse(raw)
            except ValueError as exc:
                raise ConfigError(f"{f.name}: {exc}") from None
    return values


def config_from_ini(text: str) -> ExperimentConfig:
    return _override(ExperimentConfig(), _ini_values(text))


# ---------------------------------------------------------------------------
# experiment execution

def build_splits(spec: DatasetSpec, seed: int) -> DatasetSplits:
    """The splits read from `spec.path`, or generated for `seed`; a generated
    data setting that `data` rejects raises ConfigError."""
    if spec.path is not None:
        return load_dataset(spec.path)
    try:
        if spec.multimodal:
            data = generate_multimodal_gaussians(
                spec.n_per_class, spec.grid, spec.class_separation, seed,
                spec.vf_target_len,
            )
        else:
            data = generate_overlapping_gaussians(
                spec.n_per_class, spec.dim, spec.class_separation, seed, spec.grid
            )
        return split_dataset(data, spec.label_fraction, spec.fractions, seed, spec.grid)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _write_csv(path: str, header: list[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w") as fh:
        fh.write(csv_text(header, rows))


def _write_cell(out_dir: str, seed: int, result: TrainResult) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "history.csv"), "w") as fh:
        fh.write(result.history.to_csv())
    report = asdict(result.final_metrics)
    _write_csv(os.path.join(out_dir, "metrics.csv"), ["seed", *report], [[seed, *report.values()]])
    save_model(result.classifier, os.path.join(out_dir, "classifier.ckpt"))
    if result.policy is not None:
        save_model(result.policy, os.path.join(out_dir, "policy.ckpt"))


def _run_cells(cfg: ExperimentConfig, cells: list[tuple[str, EngineConfig]],
               write_cells: bool = True) -> list[tuple[str, list[MetricsReport]]]:
    """Set on each (method, engine) cell's engine the fields its METHODS row
    sets. Build the first seed's splits, which checks the dataset settings or
    file, and check them against every cell's engine (`check_splits`), then
    write config.ini; per seed, build and digest the splits once (a dataset
    file: once in all) and train every cell with its row's trainer, writing
    each under `<output_dir>/<method>/<seed>` if `write_cells`. Returns, per
    seed, the `splits_digest` of its splits and one report per cell. A
    ValueError raised once a dataset file is loaded, by a rule of the engine
    or by a run that diverges on its values, ends with `(dataset file <path>)`,
    or `(dataset file <path>, line N)` for a RowError, whose row's line is
    looked up in the file on that path only."""
    cells = [(method, replace(engine, **METHODS[method][1])) for method, engine in cells]
    splits = build_splits(cfg.dataset, cfg.seeds[0])
    try:
        for _, engine in cells:
            check_splits(splits, engine)
        ini = config_to_ini(cfg)
        os.makedirs(cfg.output_dir, exist_ok=True)
        with open(os.path.join(cfg.output_dir, "config.ini"), "w", encoding="utf-8") as fh:
            fh.write(ini)
        split_hash = splits_digest(splits)
        per_seed = []
        for seed in cfg.seeds:
            if seed != cfg.seeds[0] and cfg.dataset.path is None:
                splits = build_splits(cfg.dataset, seed)
                split_hash = splits_digest(splits)
            reports = []
            for method, engine in cells:
                trainer, _, thresholded = METHODS[method]
                args = (cfg.confidence_threshold,) if thresholded else ()
                result = globals()[trainer](splits, replace(engine, seed=seed), *args)
                if write_cells:
                    _write_cell(os.path.join(cfg.output_dir, method, str(seed)), seed, result)
                reports.append(result.final_metrics)
            per_seed.append((split_hash, reports))
        return per_seed
    except ValueError as exc:
        path = cfg.dataset.path
        if path is None:
            raise
        where = f"dataset file {path}"
        if isinstance(exc, RowError) and (line := row_line(path, exc.row_id)):
            where += f", line {line}"
        raise ValueError(f"{exc} ({where})") from None


def _mean_std(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    std = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
    return float(arr.mean()), std


SUMMARY_HEADER = ["method", "n_seeds", "accuracy_mean", "accuracy_std", "f1_mean", "f1_std",
                  "auc_mean", "auc_std"]


def _summary_row(method: str, reports: list[MetricsReport]) -> list:
    stats = (_mean_std([getattr(r, m) for r in reports]) for m in ("accuracy", "f1", "auc"))
    return [method, len(reports), *(v for pair in stats for v in pair)]


def run_experiment(cfg: ExperimentConfig) -> list[MetricsReport]:
    """One method over all seeds; per-seed cells plus a root summary.csv."""
    reports = [r for _, (r,) in _run_cells(cfg, [(cfg.method, cfg.engine)])]
    _write_csv(os.path.join(cfg.output_dir, "summary.csv"), SUMMARY_HEADER,
               [_summary_row(cfg.method, reports)])
    return reports


def compare_methods(cfg: ExperimentConfig, methods: list[str]) -> str:
    """Run several methods on byte-identical per-seed splits; emits
    comparison.csv with one mean/std row per method plus the shared split hash."""
    if len(methods) < 2 or len(set(methods)) != len(methods):
        raise ConfigError("compare requires at least 2 distinct methods")
    for method in methods:  # each must pass ExperimentConfig's method rules
        replace(cfg, method=method)
    per_seed = _run_cells(cfg, [(m, cfg.engine) for m in methods])
    combined = hashlib.sha256("".join(h for h, _ in per_seed).encode()).hexdigest()
    path = os.path.join(cfg.output_dir, "comparison.csv")
    _write_csv(path, [*SUMMARY_HEADER, "split_hash"],
               [[*_summary_row(method, [reports[i] for _, reports in per_seed]), combined]
                for i, method in enumerate(methods)])
    return path


def run_ablation(cfg: ExperimentConfig, beta_grid: list[int],
                 gamma_grid: list[float]) -> str:
    """Grid over (beta, gamma, seed) for the pseudo supervisor; emits
    ablation.csv (one row per cell) and ablation_pivot.csv (mean AUC table)."""
    if not beta_grid or not gamma_grid:
        raise ConfigError("ablation grids must be non-empty")
    for name, values in (("beta", beta_grid), ("gamma", gamma_grid)):
        if len(set(values)) != len(values):
            raise ConfigError(f"{name} grid values must be distinct, got {values}")
    if cfg.method != "pseudo_sup":
        raise ConfigError(f"ablate runs method pseudo_sup only, got {cfg.method!r}")
    grid = [(beta, gamma) for beta in beta_grid for gamma in gamma_grid]
    cells = [(cfg.method, replace(cfg.engine, beta=b, gamma=g)) for b, g in grid]
    per_seed = _run_cells(cfg, cells, write_cells=False)
    aucs = [[reports[i].auc for _, reports in per_seed] for i in range(len(grid))]
    path = os.path.join(cfg.output_dir, "ablation.csv")
    _write_csv(path, ["beta", "gamma", "seed", "auc"],
               [[beta, gamma, seed, auc] for (beta, gamma), cell_aucs in zip(grid, aucs)
                for seed, auc in zip(cfg.seeds, cell_aucs)])
    mean_auc = {key: float(np.mean(a)) for key, a in zip(grid, aucs)}
    _write_csv(os.path.join(cfg.output_dir, "ablation_pivot.csv"),
               ["beta", *(f"gamma={g:.17g}" for g in gamma_grid)],
               [[beta, *(mean_auc[(beta, g)] for g in gamma_grid)] for beta in beta_grid])
    return path


# ---------------------------------------------------------------------------
# argument parsing

def _flags(schema: Iterable[_Field]) -> Iterator[tuple[str, dict[str, Any]]]:
    """Each field of `schema` as a flag: (name, `add_argument` keywords)."""
    for f in schema:
        flag = FLAG_NAMES.get(f.name, "--" + f.name.replace("_", "-"))
        if f.scalar is bool:
            yield flag, {"dest": f.name, "action": argparse.BooleanOptionalAction}
        else:
            yield flag, {"dest": f.name, "type": f.scalar, "nargs": f.nargs}


def _given(args: argparse.Namespace, schema: Iterable[_Field]) -> dict[_Field, Any]:
    values = {f: getattr(args, f.name) for f in schema}
    return {f: tuple(v) if isinstance(v, list) else v
            for f, v in values.items() if v is not None}


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The `--config` file's values with the flags on top, checked as one."""
    values = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"cannot read config: {args.config}: {exc}") from None
        values = _ini_values(text, args.config)
    return _override(ExperimentConfig(), values | _given(args, SCHEMA))


# gen-data synthesizes a dataset, so it takes no input-file flag.
_GEN_SCHEMA = tuple(f for f in SCHEMA
                    if f.section == "dataset" and f.name not in FLAG_NAMES)


def _cmd_run(args: argparse.Namespace) -> None:
    cfg = _config_from_args(args)
    run_experiment(cfg)
    print(f"wrote {os.path.join(cfg.output_dir, 'summary.csv')}")


def _cmd_ablate(args: argparse.Namespace) -> None:
    print(f"wrote {run_ablation(_config_from_args(args), args.beta_grid, args.gamma_grid)}")


def _cmd_compare(args: argparse.Namespace) -> None:
    print(f"wrote {compare_methods(_config_from_args(args), args.methods)}")


def _cmd_gen_data(args: argparse.Namespace) -> None:
    cfg = _override(ExperimentConfig(seeds=(args.seed,)), _given(args, _GEN_SCHEMA))
    save_dataset(build_splits(cfg.dataset, args.seed), args.out)
    print(f"wrote {args.out}")


def _cmd_analyze_corr(args: argparse.Namespace) -> None:
    if args.bins < 1:
        raise ConfigError(f"bins must be >= 1, got {args.bins}")
    splits = load_dataset(args.dataset)
    labeled = (splits.labeled_train, splits.validation, splits.test)
    X, y = np.concatenate([p.X for p in labeled]), np.concatenate([p.y for p in labeled])
    del splits, labeled  # every split, unlabeled rows too, freed before the pass
    try:
        density = correlation_density(X, y, bins=args.bins)
    except ValueError as exc:
        raise ValueError(f"{exc} (dataset file {args.dataset})") from None
    os.makedirs(args.out_dir, exist_ok=True)
    centers = density.bin_centers()
    for group in ("within", "between"):
        path = os.path.join(args.out_dir, f"corr_{group}.csv")
        _write_csv(path, ["bin_center", "density"], zip(centers, density.density(group)))
        print(f"wrote {path}")


_CONFIG_FLAG = [("--config", {"help": "INI config file; flags override its values"})]

# command -> (help line, flags before the schema's, the schema given as flags,
# flags after it, handler), in the order `--help` lists them; a flag is
# (name, `add_argument` keywords)
COMMANDS = {
    "run": ("run one method over the seed list", _CONFIG_FLAG, SCHEMA, [], _cmd_run),
    "ablate": ("beta/gamma grid ablation", _CONFIG_FLAG, SCHEMA, [
        ("--beta-grid", {"type": int, "nargs": "+", "default": [10, 50, 100]}),
        ("--gamma-grid", {"type": float, "nargs": "+", "default": [0.0, 0.5, 0.9, 1.0]}),
    ], _cmd_ablate),
    "compare": ("compare methods on shared splits", _CONFIG_FLAG, SCHEMA, [
        ("--methods", {"nargs": "+", "default": ["supervised", "pseudo_sup"]}),
    ], _cmd_compare),
    "gen-data": ("generate a synthetic dataset file", [
        ("--out", {"required": True}),
        ("--seed", {"type": int, "default": 1}),
    ], _GEN_SCHEMA, [], _cmd_gen_data),
    "analyze-corr": ("within/between-group correlation densities", [
        ("--dataset", {"required": True}),
        ("--bins", {"type": int, "default": 50}),
        ("--out-dir", {"required": True}),
    ], (), [], _cmd_analyze_corr),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `pseudosup` parser, one subparser per entry of COMMANDS. Given a
    command name, only that subparser gets its flags: all that an argv which
    starts with the name needs, and what `main` builds. Given None or any
    other string, every subparser gets its flags."""
    parser = argparse.ArgumentParser(
        prog="pseudosup",
        description="Pseudo-supervisor semi-supervised learning experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, before, schema, after, _) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        if command in COMMANDS and command != name:
            continue
        for flag, kwargs in (*before, *_flags(schema), *after):
            p.add_argument(flag, **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; returns its exit code. It freezes nothing: importing
    `pseudosup` already moved the heap that import built (about 120,000
    objects, most of them left by scipy's) into the collector's permanent
    generation, and each call's own garbage stays collectable."""
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        COMMANDS[args.command][-1](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
