"""Synthetic data generation, splitting, QC filtering, progression labels,
multimodal concatenation, weak augmentation, and dataset file I/O."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "Sample",
    "DatasetSplits",
    "LongitudinalSeries",
    "QcRecord",
    "QcReport",
    "ProgressionResult",
    "DatasetFormatError",
    "generate_overlapping_gaussians",
    "generate_multimodal_gaussians",
    "split_dataset",
    "qc_filter",
    "derive_progression_labels",
    "concat_modalities",
    "augment_weak",
    "apply_crop_flip",
    "serialize_splits",
    "save_dataset",
    "load_dataset",
]


@dataclass
class Sample:
    id: str
    features: np.ndarray
    label: int | None = None
    grid_dims: tuple[int, int] | None = None
    # ground truth retained on unlabeled samples for diagnostics only;
    # training code must never read it
    hidden_label: int | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.grid_dims is not None:
            h, w = self.grid_dims
            if h * w > len(self.features):
                raise ValueError(
                    f"grid {h}x{w} exceeds feature length {len(self.features)}"
                )


@dataclass
class DatasetSplits:
    labeled_train: list[Sample]
    unlabeled_train: list[Sample]
    validation: list[Sample]
    test: list[Sample]

    def all_samples(self) -> list[Sample]:
        return self.labeled_train + self.unlabeled_train + self.validation + self.test


@dataclass
class QcRecord:
    signal_strength: int
    fixation_loss_rate: float
    false_positive_rate: float
    false_negative_rate: float

    def __post_init__(self):
        if not 0 <= self.signal_strength <= 10:
            raise ValueError("signal strength must be in [0, 10]")
        for rate in (self.fixation_loss_rate, self.false_positive_rate, self.false_negative_rate):
            if not 0.0 <= rate <= 1.0:
                raise ValueError("rates must be in [0, 1]")


@dataclass
class QcReport:
    n_input: int
    n_retained: int
    excluded_low_signal: int
    excluded_fixation_loss: int
    excluded_false_positive: int
    excluded_false_negative: int


TD_MIN, TD_MAX = -38.0, 26.0
VF_LOCATIONS = 52


@dataclass
class LongitudinalSeries:
    timestamps: np.ndarray  # years
    td_values: np.ndarray  # [visits x 52], decibels
    md_values: np.ndarray  # per visit, decibels

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=np.float64)
        self.td_values = np.asarray(self.td_values, dtype=np.float64)
        self.md_values = np.asarray(self.md_values, dtype=np.float64)
        if np.any(np.diff(self.timestamps) <= 0):
            raise ValueError("timestamps must be strictly increasing")
        if self.td_values.shape != (len(self.timestamps), VF_LOCATIONS):
            raise ValueError(f"td_values must be [visits x {VF_LOCATIONS}]")
        if self.md_values.shape != (len(self.timestamps),):
            raise ValueError("md_values must have one entry per visit")
        if self.td_values.min() < TD_MIN or self.td_values.max() > TD_MAX:
            raise ValueError(f"TD values must lie in [{TD_MIN}, {TD_MAX}] dB")


@dataclass
class ProgressionResult:
    td_progression: bool
    md_fast_progression: bool
    td_slopes: np.ndarray
    md_slope: float


class DatasetFormatError(ValueError):
    pass


def generate_overlapping_gaussians(
    n_per_class: int,
    dim: int,
    class_separation: float,
    seed: int,
    grid_dims: tuple[int, int] | None = None,
) -> list[Sample]:
    """Two unit-covariance Gaussian classes whose means differ by
    class_separation along the first feature axis. Balanced, seed-deterministic."""
    if n_per_class < 1 or dim < 1:
        raise ValueError("n_per_class and dim must be >= 1")
    if class_separation < 0:
        raise ValueError("class_separation must be >= 0")
    if grid_dims is not None and grid_dims[0] * grid_dims[1] != dim:
        raise ValueError("grid_dims must multiply to dim")
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(2 * n_per_class):
        label = i % 2
        x = rng.standard_normal(dim)
        if label == 1:
            x[0] += class_separation
        samples.append(Sample(id=f"s{i:05d}", features=x, label=label, grid_dims=grid_dims))
    return samples


def generate_multimodal_gaussians(
    n_per_class: int,
    grid_dims: tuple[int, int],
    class_separation: float,
    seed: int,
    vf_target_len: int = VF_LOCATIONS,
) -> list[Sample]:
    """Grid modality plus a correlated 52-length secondary vector, concatenated
    after up-scaling the secondary vector to vf_target_len."""
    dim = grid_dims[0] * grid_dims[1]
    base = generate_overlapping_gaussians(n_per_class, dim, class_separation, seed, grid_dims)
    rng = np.random.default_rng([seed, 52])
    out = []
    for s in base:
        vf = rng.standard_normal(VF_LOCATIONS)
        if s.label == 1:
            vf += class_separation / 2.0
        out.append(concat_modalities(s, vf, vf_target_len))
    return out


def split_dataset(
    samples: list[Sample],
    label_fraction: float,
    fractions: tuple[float, float, float],
    seed: int,
) -> DatasetSplits:
    """Disjoint labeled-train / unlabeled-train / validation / test partitions.

    Within the train portion, label_fraction of samples keep their labels;
    the rest have labels hidden (retained only as hidden_label diagnostics).
    """
    f_train, f_val, f_test = fractions
    if abs(f_train + f_val + f_test - 1.0) > 1e-9:
        raise ValueError("fractions must sum to 1")
    if not 0.0 < label_fraction <= 1.0:
        raise ValueError("label_fraction must be in (0, 1]")
    n = len(samples)
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_train = int(round(n * f_train))
    n_val = int(round(n * f_val))
    n_test = n - n_train - n_val
    n_labeled = int(round(n_train * label_fraction))
    if min(n_train, n_val, n_test, n_labeled) < 1:
        raise ValueError("a split partition would be empty")
    train = [samples[i] for i in order[:n_train]]
    val = [samples[i] for i in order[n_train : n_train + n_val]]
    test = [samples[i] for i in order[n_train + n_val :]]
    labeled = train[:n_labeled]
    unlabeled = [
        replace(s, label=None, hidden_label=s.label) for s in train[n_labeled:]
    ]
    for part, name in ((labeled, "labeled_train"), (val, "validation"), (test, "test")):
        if any(s.label is None for s in part):
            raise ValueError(f"{name} must be fully labeled")
    return DatasetSplits(labeled, unlabeled, val, test)


def qc_filter(records: list[tuple[Sample, QcRecord]]) -> tuple[list[Sample], QcReport]:
    """Retain samples meeting clinical quality criteria.

    Exclusion is strict: signal strength < 6, or any of fixation loss > 0.33,
    false positive rate > 0.20, false negative rate > 0.20. Boundary values
    are retained. A sample violating several rules is counted under each.
    """
    retained = []
    low_signal = fixation = false_pos = false_neg = 0
    for sample, qc in records:
        bad = False
        if qc.signal_strength < 6:
            low_signal += 1
            bad = True
        if qc.fixation_loss_rate > 0.33:
            fixation += 1
            bad = True
        if qc.false_positive_rate > 0.20:
            false_pos += 1
            bad = True
        if qc.false_negative_rate > 0.20:
            false_neg += 1
            bad = True
        if not bad:
            retained.append(sample)
    report = QcReport(
        n_input=len(records),
        n_retained=len(retained),
        excluded_low_signal=low_signal,
        excluded_fixation_loss=fixation,
        excluded_false_positive=false_pos,
        excluded_false_negative=false_neg,
    )
    return retained, report


def derive_progression_labels(series: LongitudinalSeries) -> ProgressionResult:
    """Per-location and MD slopes via least squares against timestamps (dB/year).

    TD progression: at least three locations with slope <= -1.
    MD fast progression: MD slope <= -1.
    """
    if len(series.timestamps) < 2:
        raise ValueError("at least 2 visits required for slope fitting")
    t = series.timestamps
    design = np.column_stack([t, np.ones_like(t)])
    td_coef, *_ = np.linalg.lstsq(design, series.td_values, rcond=None)
    md_coef, *_ = np.linalg.lstsq(design, series.md_values, rcond=None)
    td_slopes = td_coef[0]
    md_slope = float(md_coef[0])
    return ProgressionResult(
        td_progression=bool(np.sum(td_slopes <= -1.0) >= 3),
        md_fast_progression=md_slope <= -1.0,
        td_slopes=td_slopes,
        md_slope=md_slope,
    )


def concat_modalities(sample: Sample, secondary: np.ndarray, target_len: int) -> Sample:
    """Append a secondary modality, up-scaled to target_len by nearest-neighbor
    index mapping (output i takes source index floor(i * src_len / target_len))."""
    secondary = np.asarray(secondary, dtype=np.float64)
    src_len = len(secondary)
    if target_len < src_len:
        raise ValueError(f"target_len {target_len} < secondary length {src_len}")
    idx = (np.arange(target_len) * src_len) // target_len
    upscaled = secondary[idx]
    return replace(sample, features=np.concatenate([sample.features, upscaled]))


def apply_crop_flip(
    grid: np.ndarray,
    flip: bool,
    crop_h: int,
    crop_w: int,
    top: int,
    left: int,
) -> np.ndarray:
    """Deterministic core of the weak augmentation: optional horizontal flip,
    then crop and nearest-neighbor resize back to the original grid shape."""
    h, w = grid.shape
    if flip:
        grid = grid[:, ::-1]
    crop = grid[top : top + crop_h, left : left + crop_w]
    rows = (np.arange(h) * crop_h) // h
    cols = (np.arange(w) * crop_w) // w
    return crop[np.ix_(rows, cols)]


def augment_weak(sample: Sample, rng: np.random.Generator | int,
                 scale_min: float = 0.8) -> Sample:
    """Random horizontal flip (p=0.5) plus random crop-and-resize of the grid
    portion of the features; crop scale per dimension uniform in [scale_min, 1]."""
    if sample.grid_dims is None:
        raise ValueError("augment_weak requires grid_dims")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    h, w = sample.grid_dims
    grid = sample.features[: h * w].reshape(h, w)
    tail = sample.features[h * w :]
    flip = rng.random() < 0.5
    crop_h = max(1, int(round(rng.uniform(scale_min, 1.0) * h)))
    crop_w = max(1, int(round(rng.uniform(scale_min, 1.0) * w)))
    top = int(rng.integers(0, h - crop_h + 1))
    left = int(rng.integers(0, w - crop_w + 1))
    out = apply_crop_flip(grid, flip, crop_h, crop_w, top, left)
    return replace(sample, features=np.concatenate([out.ravel(), tail]))


_SPLIT_TAGS = ("trainL", "trainU", "val", "test")


def serialize_splits(splits: DatasetSplits) -> str:
    """Line-oriented text format: `gdp-synth v1` header, feature count, optional
    grid dims, then one `<tag> <id> <label-or-?> <features...>` line per sample."""
    samples = splits.all_samples()
    if not samples:
        raise ValueError("cannot serialize empty splits")
    n_features = len(samples[0].features)
    lines = ["gdp-synth v1", f"n_features {n_features}"]
    grid = samples[0].grid_dims
    if grid is not None:
        lines.append(f"grid {grid[0]} {grid[1]}")
    for tag, part in zip(
        _SPLIT_TAGS,
        (splits.labeled_train, splits.unlabeled_train, splits.validation, splits.test),
    ):
        for s in part:
            if len(s.features) != n_features:
                raise ValueError("inconsistent feature lengths across samples")
            label = "?" if s.label is None else str(s.label)
            feats = " ".join(f"{x:.17g}" for x in s.features)
            lines.append(f"{tag} {s.id} {label} {feats}")
    return "\n".join(lines) + "\n"


def save_dataset(splits: DatasetSplits, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(serialize_splits(splits))


def _header_ints(path: str, lineno: int, tokens: list[str], count: int) -> tuple[int, ...]:
    """The `count` integers after a header keyword, or a DatasetFormatError."""
    try:
        values = tuple(int(t) for t in tokens[1:])
    except ValueError:
        values = ()
    if len(values) != count:
        raise DatasetFormatError(
            f"{path}: line {lineno}: expected '{tokens[0]}' and {count} integer(s)"
        )
    return values


def load_dataset(path: str) -> DatasetSplits:
    parts: dict[str, list[Sample]] = {tag: [] for tag in _SPLIT_TAGS}
    grid: tuple[int, int] | None = None
    n_features = None
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "gdp-synth v1":
        raise DatasetFormatError(f"{path}: line 1: missing 'gdp-synth v1' header")
    body_start = None
    for lineno, line in enumerate(lines[1:], start=2):
        tokens = line.split()
        if not tokens:
            continue
        if tokens[0] == "n_features":
            (n_features,) = _header_ints(path, lineno, tokens, 1)
            continue
        if tokens[0] == "grid":
            grid = _header_ints(path, lineno, tokens, 2)
            continue
        body_start = lineno
        break
    if n_features is None:
        raise DatasetFormatError(f"{path}: missing n_features header")
    first_seen: dict[str, int] = {}
    for lineno, line in enumerate(lines, start=1):
        if body_start is None or lineno < body_start:
            continue
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != 3 + n_features:
            raise DatasetFormatError(
                f"{path}: line {lineno}: expected {3 + n_features} fields, got {len(tokens)}"
            )
        tag, sid, label_tok = tokens[:3]
        if tag not in _SPLIT_TAGS:
            raise DatasetFormatError(f"{path}: line {lineno}: unknown split tag {tag!r}")
        if sid in first_seen:
            raise DatasetFormatError(
                f"{path}: line {lineno}: duplicate id {sid!r} (first on line "
                f"{first_seen[sid]})"
            )
        first_seen[sid] = lineno
        if label_tok == "?":
            label = None
            if tag in ("val", "test"):
                raise DatasetFormatError(
                    f"{path}: line {lineno}: {tag} samples must be labeled"
                )
        else:
            try:
                label = int(label_tok)
            except ValueError:
                raise DatasetFormatError(
                    f"{path}: line {lineno}: bad label {label_tok!r}"
                ) from None
            if label < 0:
                raise DatasetFormatError(
                    f"{path}: line {lineno}: negative label {label}"
                )
        try:
            feats = np.array([float(x) for x in tokens[3:]])
        except ValueError:
            raise DatasetFormatError(
                f"{path}: line {lineno}: non-numeric feature value"
            ) from None
        if not np.isfinite(feats).all():
            raise DatasetFormatError(f"{path}: line {lineno}: non-finite feature value")
        parts[tag].append(Sample(id=sid, features=feats, label=label, grid_dims=grid))
    return DatasetSplits(parts["trainL"], parts["trainU"], parts["val"], parts["test"])
