"""Synthetic data generation, splitting, QC filtering, progression labels,
multimodal concatenation, weak augmentation, and dataset file I/O."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "Sample",
    "Split",
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
    "splits_digest",
    "save_dataset",
    "load_dataset",
]


@dataclass
class Sample:
    """One record as `qc_filter` passes it through."""
    id: str
    features: np.ndarray
    label: int | None = None


@dataclass
class Split:
    """One partition as arrays: row ids, features (float64, n x d), labels
    (int64, -1 where hidden) and `hidden`, the ground truth of hidden labels
    (-1 where unknown). `hidden` is for diagnostics only; training code must
    never read it."""
    ids: np.ndarray
    X: np.ndarray
    y: np.ndarray
    hidden: np.ndarray

    def __len__(self) -> int:
        return len(self.y)

    def take(self, rows) -> Split:
        """The rows selected by `rows`, an index array or a boolean mask."""
        return Split(self.ids[rows], self.X[rows], self.y[rows], self.hidden[rows])


@dataclass
class DatasetSplits:
    labeled_train: Split
    unlabeled_train: Split
    validation: Split
    test: Split
    # (h, w) of the grid held by the first h*w features; weak augmentation needs it
    grid: tuple[int, int] | None = None


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
) -> Split:
    """Two unit-covariance Gaussian classes whose means differ by
    class_separation along the first feature axis. Balanced (rows alternate
    labels 0, 1), seed-deterministic; `grid_dims`, if given, must tile `dim`."""
    if grid_dims is not None and min(grid_dims) < 1:
        raise ValueError(f"grid dims must be >= 1, got {grid_dims}")
    if n_per_class < 1 or dim < 1:
        raise ValueError("n_per_class and dim must be >= 1")
    if not 0 <= class_separation < np.inf:
        raise ValueError(f"class_separation must be finite and >= 0, got {class_separation}")
    if grid_dims is not None and grid_dims[0] * grid_dims[1] != dim:
        raise ValueError(f"grid {grid_dims[0]}x{grid_dims[1]} must tile dim {dim}")
    n = 2 * n_per_class
    x = np.random.default_rng(seed).standard_normal((n, dim))
    y = np.arange(n, dtype=np.int64) % 2
    x[y == 1, 0] += class_separation
    ids = np.array([f"s{i:05d}" for i in range(n)])
    return Split(ids, x, y, np.full(n, -1, dtype=np.int64))


def generate_multimodal_gaussians(
    n_per_class: int,
    grid_dims: tuple[int, int],
    class_separation: float,
    seed: int,
    vf_target_len: int = VF_LOCATIONS,
) -> Split:
    """Grid modality plus a correlated 52-length secondary vector, concatenated
    after up-scaling the secondary vector to vf_target_len."""
    if grid_dims is None:
        raise ValueError("multimodal mode requires dataset grid dims")
    dim = grid_dims[0] * grid_dims[1]
    base = generate_overlapping_gaussians(n_per_class, dim, class_separation, seed, grid_dims)
    vf = np.random.default_rng([seed, 52]).standard_normal((len(base), VF_LOCATIONS))
    vf[base.y == 1] += class_separation / 2.0
    return replace(base, X=concat_modalities(base.X, vf, vf_target_len))


def split_dataset(
    data: Split,
    label_fraction: float,
    fractions: tuple[float, float, float],
    seed: int,
    grid: tuple[int, int] | None = None,
) -> DatasetSplits:
    """Disjoint labeled-train / unlabeled-train / validation / test partitions.

    Within the train portion, label_fraction of the rows keep their labels;
    the rest have labels hidden (y = -1, the label kept in `hidden` for
    diagnostics only). `grid` is carried to the result for augmentation.
    """
    f_train, f_val, f_test = fractions
    if not (min(fractions) > 0 and abs(f_train + f_val + f_test - 1.0) <= 1e-9):
        raise ValueError(f"fractions must be positive and sum to 1, got {fractions}")
    if not 0.0 < label_fraction <= 1.0:
        raise ValueError("label_fraction must be in (0, 1]")
    n = len(data)
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_train = int(round(n * f_train))
    n_val = int(round(n * f_val))
    n_test = n - n_train - n_val
    n_labeled = int(round(n_train * label_fraction))
    if min(n_train, n_val, n_test, n_labeled) < 1:
        raise ValueError(f"a split partition would be empty: {n_labeled} labeled train, "
                         f"{n_val} validation and {n_test} test of {n} rows")
    labeled = data.take(order[:n_labeled])
    unlabeled = data.take(order[n_labeled:n_train])
    unlabeled.hidden, unlabeled.y = unlabeled.y, np.full(len(unlabeled), -1, dtype=np.int64)
    val = data.take(order[n_train : n_train + n_val])
    test = data.take(order[n_train + n_val :])
    for part, name in ((labeled, "labeled_train"), (val, "validation"), (test, "test")):
        if (part.y < 0).any():
            raise ValueError(f"{name} must be fully labeled")
    return DatasetSplits(labeled, unlabeled, val, test, grid)


# Each QcReport counter and the clinical quality rule that excludes a sample
# under it. Every rule is strict, so a boundary value is retained.
_QC_RULES = {
    "excluded_low_signal": lambda qc: qc.signal_strength < 6,
    "excluded_fixation_loss": lambda qc: qc.fixation_loss_rate > 0.33,
    "excluded_false_positive": lambda qc: qc.false_positive_rate > 0.20,
    "excluded_false_negative": lambda qc: qc.false_negative_rate > 0.20,
}


def qc_filter(records: list[tuple[Sample, QcRecord]]) -> tuple[list[Sample], QcReport]:
    """Retain the samples that break none of the `_QC_RULES`. A sample that
    breaks several rules is counted under each."""
    retained = []
    excluded = dict.fromkeys(_QC_RULES, 0)
    for sample, qc in records:
        broken = [name for name, rule in _QC_RULES.items() if rule(qc)]
        for name in broken:
            excluded[name] += 1
        if not broken:
            retained.append(sample)
    return retained, QcReport(len(records), len(retained), **excluded)


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


def concat_modalities(features: np.ndarray, secondary: np.ndarray,
                      target_len: int) -> np.ndarray:
    """Append a secondary modality to each row of `features`, up-scaled to
    target_len by nearest-neighbor index mapping (output i takes source index
    floor(i * src_len / target_len)). Works on one row or a stack of rows."""
    secondary = np.asarray(secondary, dtype=np.float64)
    src_len = secondary.shape[-1]
    if target_len < src_len:
        raise ValueError(f"vf_target_len must be >= {src_len}, the length of the "
                         f"secondary modality, got {target_len}")
    idx = (np.arange(target_len) * src_len) // target_len
    return np.concatenate([features, secondary[..., idx]], axis=-1)


def apply_crop_flip(grid: np.ndarray, flip, crop_h, crop_w, top, left) -> np.ndarray:
    """Deterministic core of the weak augmentation: optional horizontal flip,
    then crop and nearest-neighbor resize back to the original grid shape.
    `grid` is one (h, w) grid with scalar parameters, or an (n, h, w) stack
    with one value of each per grid; row- and column-index maps (the column
    map reversed for a flip) gather the whole stack in one fancy index."""
    h, w = grid.shape[-2:]
    flip, crop_h, crop_w, top, left = np.asarray([flip, crop_h, crop_w, top, left])[..., None]
    rows = top + (np.arange(h) * crop_h) // h
    cols = left + (np.arange(w) * crop_w) // w
    cols = np.where(flip, w - 1 - cols, cols)
    which = np.arange(grid.size // (h * w)).reshape(grid.shape[:-2] + (1, 1))
    return grid.reshape(-1, h, w)[which, rows[..., :, None], cols[..., None, :]]


def augment_weak(x: np.ndarray, grid: tuple[int, int] | None,
                 rng: np.random.Generator, scale_min: float = 0.8) -> np.ndarray:
    """Random horizontal flip (p=0.5) plus random crop-and-resize of the
    leading h*w features of each row of the (n, d) batch `x`, viewed as the
    (h, w) `grid`. The crop is max(1, round(u*h)) x max(1, round(u'*w)) with
    u, u' ~ U[scale_min, 1], so at the default 0.8 a side of 2 or less is
    never cropped (only flipped). Row after row, `rng` draws flip, crop_h,
    crop_w, top and left in that order, as if each row were augmented alone;
    then one `apply_crop_flip` gathers the batch. The other features pass through."""
    if grid is None:
        raise ValueError("augment_weak requires grid dims")
    h, w = grid
    draws = []
    for _ in range(len(x)):
        flip = rng.random() < 0.5
        crop_h = max(1, round(rng.uniform(scale_min, 1.0) * h))
        crop_w = max(1, round(rng.uniform(scale_min, 1.0) * w))
        draws.append((flip, crop_h, crop_w, rng.integers(0, h - crop_h + 1),
                      rng.integers(0, w - crop_w + 1)))
    params = np.array(draws, dtype=np.int64).reshape(len(x), 5).T
    out = apply_crop_flip(x[:, : h * w].reshape(-1, h, w), *params)
    return np.concatenate([out.reshape(len(x), h * w), x[:, h * w :]], axis=1)


_SPLIT_TAGS = ("trainL", "trainU", "val", "test")


def splits_digest(splits: DatasetSplits) -> str:
    """sha256 over the grid and, per split in file order, its shape, its ids
    joined by newlines, `y` as `<i8` and `X` as C-order `<f8`. `hidden` is left
    out, so a loaded dataset file digests as the splits it was written from."""
    h = hashlib.sha256(b"grid none\n" if splits.grid is None else b"grid %d %d\n" % splits.grid)
    for part in (splits.labeled_train, splits.unlabeled_train, splits.validation, splits.test):
        h.update(b"%d %d\n" % part.X.shape + "\n".join(part.ids.tolist()).encode() + b"\n")
        h.update(np.ascontiguousarray(part.y, dtype="<i8"))
        h.update(np.ascontiguousarray(part.X, dtype="<f8"))
    return h.hexdigest()


def save_dataset(splits: DatasetSplits, path: str) -> None:
    """Write the text format: `gdp-synth v1` header, feature count, optional grid
    dims, then one `<tag> <id> <label-or-?> <17-digit features...>` line per row."""
    parts = (splits.labeled_train, splits.unlabeled_train, splits.validation, splits.test)
    if not any(len(part) for part in parts):
        raise ValueError("cannot serialize empty splits")
    widths = {part.X.shape[1] for part in parts}
    if len(widths) != 1:
        raise ValueError("inconsistent feature lengths across splits")
    lines = ["gdp-synth v1", f"n_features {widths.pop()}"]
    if splits.grid is not None:
        lines.append(f"grid {splits.grid[0]} {splits.grid[1]}")
    for tag, part in zip(_SPLIT_TAGS, parts):
        for sid, label, row in zip(part.ids.tolist(), part.y.tolist(), part.X.tolist()):
            feats = " ".join(f"{x:.17g}" for x in row)
            lines.append(f"{tag} {sid} {'?' if label < 0 else label} {feats}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _header_ints(path: str, lineno: int, line: str, key: str, count: int) -> tuple[int, ...]:
    """The `count` positive integers after `key` on header line `lineno`, or a
    DatasetFormatError."""
    tokens = line.split()
    try:
        values = tuple(int(t) for t in tokens[1:])
    except ValueError:
        values = ()
    if tokens[:1] != [key] or len(values) != count or min(values) < 1:
        raise DatasetFormatError(
            f"{path}: line {lineno}: expected '{key}' and {count} positive integer(s)"
        )
    return values


def load_dataset(path: str) -> DatasetSplits:
    """Read a file in the layout `save_dataset` writes: line 1 `gdp-synth
    v1`, line 2 `n_features N`, an optional line 3 `grid H W`, then one row per
    line to the end of the file. Rows are streamed line by line; a malformed
    header or row (a blank line or a misplaced header among them) raises
    DatasetFormatError naming the path and line. A label is `?` or an integer
    in [0, 2**63) written as `str` writes it: `01`, `+1` or `1_0` is a bad
    label."""
    rows = {tag: ([], [], []) for tag in _SPLIT_TAGS}  # ids, labels, features
    first_seen: dict[str, int] = {}
    with open(path) as fh:
        if fh.readline().rstrip("\n") != "gdp-synth v1":
            raise DatasetFormatError(f"{path}: line 1: missing 'gdp-synth v1' header")
        (n_features,) = _header_ints(path, 2, fh.readline(), "n_features", 1)
        grid, body_start = None, fh.tell()
        line = fh.readline()
        if line.split()[:1] == ["grid"]:
            grid = _header_ints(path, 3, line, "grid", 2)
            if grid[0] * grid[1] > n_features:
                raise DatasetFormatError(f"{path}: line 3: grid {grid[0]}x{grid[1]} "
                                         f"exceeds {n_features} features")
        else:
            fh.seek(body_start)
        for lineno, line in enumerate(fh, start=3 if grid is None else 4):
            tokens = line.split()
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
                label = -1
                if tag != "trainU":
                    raise DatasetFormatError(
                        f"{path}: line {lineno}: {tag} samples must be labeled"
                    )
            else:
                try:
                    label = int(label_tok)
                except ValueError:
                    label = None
                # only the form save_dataset writes, str(label), within int64
                if label is None or str(label) != label_tok or label >= 2**63:
                    raise DatasetFormatError(f"{path}: line {lineno}: bad label {label_tok!r}")
                if label < 0:
                    raise DatasetFormatError(
                        f"{path}: line {lineno}: negative label {label}"
                    )
            try:
                x = np.array(tokens[3:], dtype=np.float64)  # each value as float() parses it
            except ValueError:
                raise DatasetFormatError(
                    f"{path}: line {lineno}: non-numeric feature value"
                ) from None
            if not np.isfinite(x).all():
                raise DatasetFormatError(f"{path}: line {lineno}: non-finite feature value")
            ids, labels, xs = rows[tag]
            ids.append(sid)
            labels.append(label)
            xs.append(x)
    parts = []
    for tag in _SPLIT_TAGS:
        ids, labels, xs = rows.pop(tag)
        if tag != "trainU" and not ids:
            raise DatasetFormatError(f"{path}: no {tag} rows")
        n = len(ids)
        parts.append(Split(np.array(ids, dtype=str),
                           np.array(xs, dtype=np.float64).reshape(n, n_features),
                           np.array(labels, dtype=np.int64), np.full(n, -1, dtype=np.int64)))
    return DatasetSplits(*parts, grid=grid)
