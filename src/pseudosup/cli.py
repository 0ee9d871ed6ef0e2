"""Experiment front-end: `run`, `ablate`, `compare`, `gen-data`, `analyze-corr`.

Configs are INI-style `key = value` files with [experiment], [dataset] and
[engine] sections; explicit CLI flags override file values. Every field of
`ExperimentConfig`, `DatasetSpec` and `EngineConfig` is both a flag (dashes)
and an INI key (underscores), except the per-cell fields in `PER_CELL`.
Exit codes: 0 success, 2 config error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import io
import os
import sys
import types
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, is_dataclass, replace
from typing import Any, get_args, get_origin, get_type_hints

import numpy as np

from .data import (
    VF_LOCATIONS,
    DatasetSplits,
    generate_multimodal_gaussians,
    generate_overlapping_gaussians,
    load_dataset,
    save_dataset,
    split_dataset,
    splits_digest,
)
from .engine import (
    ConfigError,
    EngineConfig,
    TrainResult,
    check_splits,
    train,
    train_self_training,
    train_supervised_only,
)
from .metrics import MetricsReport, correlation_density
from .nn_core import save_model

METHODS = ("pseudo_sup", "pseudo_sup_aug", "supervised", "self_training")

# EngineConfig fields the runner sets for each cell; neither flags nor INI keys.
PER_CELL = ("seed", "augment")
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


@dataclass(frozen=True)
class ExperimentConfig:
    method: str = "pseudo_sup"
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)
    output_dir: str = "out"
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    engine: EngineConfig = field(default_factory=EngineConfig)
    confidence_threshold: float | None = None

    def __post_init__(self):
        """Method, seed list and threshold rules; `data` and EngineConfig own the
        rest, the seed range included."""
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.method == "self_training" and self.confidence_threshold is None:
            raise ConfigError("method self_training requires confidence_threshold")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must be distinct, got {self.seeds}")
        for seed in self.seeds:  # each must pass EngineConfig's seed rule
            replace(self.engine, seed=seed)
        threshold = self.confidence_threshold
        if threshold is not None and not 0.5 < threshold <= 1.0:
            raise ConfigError("confidence_threshold must be in (0.5, 1]")


# ---------------------------------------------------------------------------
# config schema: one entry per settable field, derived from the dataclasses

def _parse_bool(raw: str) -> bool:
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


# scalar type -> (parse one token, format one value)
_SCALARS: dict[type, tuple[Callable[[str], Any], Callable[[Any], str]]] = {
    int: (int, str),
    float: (float, repr),
    str: (str, str),
    bool: (_parse_bool, lambda v: str(v).lower()),
}

_TOP = "experiment"  # INI section of ExperimentConfig's own fields


@dataclass(frozen=True)
class _Field:
    section: str  # _TOP, or the ExperimentConfig field holding the spec
    name: str
    scalar: type
    nargs: int | str | None  # None: scalar; "+": tuple[T, ...]; n: n-tuple

    def parse(self, raw: str) -> Any:
        parse = _SCALARS[self.scalar][0]
        if self.nargs is None:
            return parse(raw)
        items = tuple(parse(tok) for tok in raw.split())
        if self.nargs != "+" and len(items) != self.nargs:
            raise ValueError(f"expected {self.nargs} values, got {len(items)}")
        return items

    def format(self, value: Any) -> str:
        fmt = _SCALARS[self.scalar][1]
        return fmt(value) if self.nargs is None else " ".join(fmt(v) for v in value)


def _build_schema() -> tuple[_Field, ...]:
    def unwrap(tp):
        if isinstance(tp, types.UnionType):  # X | None
            (tp,) = (a for a in get_args(tp) if a is not type(None))
        if get_origin(tp) is tuple:
            args = get_args(tp)
            return args[0], "+" if args[-1] is Ellipsis else len(args)
        return tp, None

    top = get_type_hints(ExperimentConfig)
    sections = {_TOP: top} | {
        name: get_type_hints(tp) for name, tp in top.items() if is_dataclass(tp)
    }
    return tuple(
        _Field(section, name, *unwrap(tp))
        for section, hints in sections.items()
        for name, tp in hints.items()
        if name not in PER_CELL and not is_dataclass(tp)
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


def _cell(method: str, engine: EngineConfig) -> tuple[str, EngineConfig]:
    """The (method, engine) cell that trains `method`; pseudo_sup_aug is
    pseudo_sup with `augment` set."""
    return method, replace(engine, augment=True) if method == "pseudo_sup_aug" else engine


def _run_method(method: str, splits: DatasetSplits, engine: EngineConfig,
                confidence_threshold: float | None) -> TrainResult:
    if method == "supervised":
        return train_supervised_only(splits, engine)
    if method == "self_training":
        return train_self_training(splits, engine, confidence_threshold)
    return train(splits, engine)  # pseudo_sup and pseudo_sup_aug


def _write_cell(out_dir: str, seed: int, result: TrainResult) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "history.csv"), "w") as fh:
        fh.write(result.history.to_csv())
    with open(os.path.join(out_dir, "metrics.csv"), "w") as fh:
        fh.write("seed," + MetricsReport.CSV_HEADER + "\n")
        fh.write(f"{seed},{result.final_metrics.to_csv_row()}\n")
    save_model(result.classifier, os.path.join(out_dir, "classifier.ckpt"))
    if result.policy is not None:
        save_model(result.policy, os.path.join(out_dir, "policy.ckpt"))


def _run_cells(cfg: ExperimentConfig, cells: list[tuple[str, EngineConfig]],
               write_cells: bool = True) -> list[tuple[str, list[MetricsReport]]]:
    """Build the first seed's splits, which checks the dataset settings or
    file, and check them against every cell's engine (`check_splits`), then
    write config.ini; per seed, build and digest the splits once (a dataset
    file: once in all) and train every (method, engine) cell on them, writing
    each under `<output_dir>/<method>/<seed>` if `write_cells`. Returns, per
    seed, the `splits_digest` of its splits and one report per cell. A
    ValueError raised once a dataset file is loaded, by a rule of the engine
    or by a run that diverges on its values, ends with `(dataset file <path>)`."""
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
                result = _run_method(method, splits, replace(engine, seed=seed),
                                     cfg.confidence_threshold)
                if write_cells:
                    _write_cell(os.path.join(cfg.output_dir, method, str(seed)), seed, result)
                reports.append(result.final_metrics)
            per_seed.append((split_hash, reports))
        return per_seed
    except ValueError as exc:
        if cfg.dataset.path is None:
            raise
        raise ValueError(f"{exc} (dataset file {cfg.dataset.path})") from None


def _mean_std(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    std = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
    return float(arr.mean()), std


SUMMARY_HEADER = "method,n_seeds,accuracy_mean,accuracy_std,f1_mean,f1_std,auc_mean,auc_std"


def _summary_row(method: str, reports: list[MetricsReport]) -> str:
    stats = (_mean_std([getattr(r, m) for r in reports]) for m in ("accuracy", "f1", "auc"))
    return ",".join([method, str(len(reports))] + [f"{v:.17g}" for pair in stats for v in pair])


def run_experiment(cfg: ExperimentConfig) -> list[MetricsReport]:
    """One method over all seeds; per-seed cells plus a root summary.csv."""
    reports = [r for _, (r,) in _run_cells(cfg, [_cell(cfg.method, cfg.engine)])]
    with open(os.path.join(cfg.output_dir, "summary.csv"), "w") as fh:
        fh.write(SUMMARY_HEADER + "\n")
        fh.write(_summary_row(cfg.method, reports) + "\n")
    return reports


def compare_methods(cfg: ExperimentConfig, methods: list[str]) -> str:
    """Run several methods on byte-identical per-seed splits; emits
    comparison.csv with one mean/std row per method plus the shared split hash."""
    if len(methods) < 2 or len(set(methods)) != len(methods):
        raise ConfigError("compare requires at least 2 distinct methods")
    for method in methods:  # each must pass ExperimentConfig's method rules
        replace(cfg, method=method)
    per_seed = _run_cells(cfg, [_cell(m, cfg.engine) for m in methods])
    combined = hashlib.sha256("".join(h for h, _ in per_seed).encode()).hexdigest()
    path = os.path.join(cfg.output_dir, "comparison.csv")
    with open(path, "w") as fh:
        fh.write(SUMMARY_HEADER + ",split_hash\n")
        for i, method in enumerate(methods):
            row = _summary_row(method, [reports[i] for _, reports in per_seed])
            fh.write(row + f",{combined}\n")
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
    with open(path, "w") as fh:
        fh.write("beta,gamma,seed,auc\n")
        for (beta, gamma), cell_aucs in zip(grid, aucs):
            for seed, auc in zip(cfg.seeds, cell_aucs):
                fh.write(f"{beta},{gamma:.17g},{seed},{auc:.17g}\n")
    mean_auc = {key: float(np.mean(a)) for key, a in zip(grid, aucs)}
    with open(os.path.join(cfg.output_dir, "ablation_pivot.csv"), "w") as fh:
        fh.write("beta," + ",".join(f"gamma={g:.17g}" for g in gamma_grid) + "\n")
        for beta in beta_grid:
            row = ",".join(f"{mean_auc[(beta, g)]:.17g}" for g in gamma_grid)
            fh.write(f"{beta},{row}\n")
    return path


# ---------------------------------------------------------------------------
# argument parsing

def _add_flags(p: argparse.ArgumentParser, schema: Iterable[_Field]) -> None:
    for f in schema:
        flag = FLAG_NAMES.get(f.name, "--" + f.name.replace("_", "-"))
        if f.scalar is bool:
            p.add_argument(flag, dest=f.name, action=argparse.BooleanOptionalAction)
        else:
            p.add_argument(flag, dest=f.name, type=f.scalar, nargs=f.nargs)


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pseudosup",
        description="Pseudo-supervisor semi-supervised learning experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def experiment_parser(name: str, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="INI config file; flags override its values")
        _add_flags(p, SCHEMA)
        return p

    experiment_parser("run", "run one method over the seed list")
    p_abl = experiment_parser("ablate", "beta/gamma grid ablation")
    p_abl.add_argument("--beta-grid", type=int, nargs="+", default=[10, 50, 100])
    p_abl.add_argument("--gamma-grid", type=float, nargs="+",
                       default=[0.0, 0.5, 0.9, 1.0])
    p_cmp = experiment_parser("compare", "compare methods on shared splits")
    p_cmp.add_argument("--methods", nargs="+", default=["supervised", "pseudo_sup"])

    p_gen = sub.add_parser("gen-data", help="generate a synthetic dataset file")
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--seed", type=int, default=1)
    _add_flags(p_gen, _GEN_SCHEMA)

    p_corr = sub.add_parser("analyze-corr",
                            help="within/between-group correlation densities")
    p_corr.add_argument("--dataset", required=True)
    p_corr.add_argument("--bins", type=int, default=50)
    p_corr.add_argument("--out-dir", required=True)
    return parser


def _cmd_gen_data(args: argparse.Namespace) -> None:
    cfg = _override(ExperimentConfig(seeds=(args.seed,)), _given(args, _GEN_SCHEMA))
    save_dataset(build_splits(cfg.dataset, args.seed), args.out)
    print(f"wrote {args.out}")


def _cmd_analyze_corr(args: argparse.Namespace) -> None:
    if args.bins < 1:
        raise ConfigError(f"bins must be >= 1, got {args.bins}")
    splits = load_dataset(args.dataset)
    labeled = (splits.labeled_train, splits.validation, splits.test)
    density = correlation_density(np.concatenate([p.X for p in labeled]),
                                  np.concatenate([p.y for p in labeled]), bins=args.bins)
    os.makedirs(args.out_dir, exist_ok=True)
    centers = density.bin_centers()
    for group in ("within", "between"):
        path = os.path.join(args.out_dir, f"corr_{group}.csv")
        with open(path, "w") as fh:
            fh.write("bin_center,density\n")
            for c, d in zip(centers, density.density(group)):
                fh.write(f"{c:.17g},{d:.17g}\n")
        print(f"wrote {path}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gen-data":
            _cmd_gen_data(args)
        elif args.command == "analyze-corr":
            _cmd_analyze_corr(args)
        else:
            cfg = _config_from_args(args)
            if args.command == "run":
                run_experiment(cfg)
                path = os.path.join(cfg.output_dir, "summary.csv")
            elif args.command == "ablate":
                path = run_ablation(cfg, args.beta_grid, args.gamma_grid)
            else:
                path = compare_methods(cfg, args.methods)
            print(f"wrote {path}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
