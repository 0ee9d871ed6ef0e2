"""Synthetic data generation, splitting, QC filtering, progression labels,
multimodal concatenation, weak augmentation, and dataset file I/O."""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, replace

import numpy as np

from . import _public_names


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
        for name in ("timestamps", "td_values", "md_values"):
            values = np.asarray(getattr(self, name), dtype=np.float64)
            if not np.isfinite(values).all():
                raise ValueError(f"{name} must be finite")
            setattr(self, name, values)
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
    values = np.column_stack([series.td_values, series.md_values])  # one fit for both
    slopes = np.linalg.lstsq(design, values, rcond=None)[0][0]
    td_slopes, md_slope = slopes[:-1], float(slopes[-1])
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


def check_grid(grid: tuple[int, int], n_features: int) -> None:
    """Raise ValueError unless the (h, w) `grid` has sides >= 1 and at most
    `n_features` cells."""
    h, w = grid
    if min(h, w) < 1 or h * w > n_features:
        raise ValueError(f"grid {h}x{w} needs sides >= 1 and at most {n_features} cells")


def augment_weak(x: np.ndarray, grid: tuple[int, int] | None,
                 rng: np.random.Generator, scale_min: float = 0.8) -> np.ndarray:
    """Random horizontal flip (p=0.5) plus random crop-and-resize of the
    leading h*w features of each row of the (n, d) batch `x`, viewed as the
    (h, w) `grid`. The crop is max(1, round(u*h)) x max(1, round(u'*w)) with
    u, u' ~ U[scale_min, 1], so at the default 0.8 a side of 2 or less is
    never cropped (only flipped). Row after row, `rng` draws flip, crop_h,
    crop_w, top and left in that order, as if each row were augmented alone;
    then one `apply_crop_flip` gathers the batch. The other features pass through.
    A `grid` that `check_grid` rejects for the batch, or a `scale_min` outside
    (0, 1], NaN included, raises before any draw."""
    if grid is None:
        raise ValueError("augment_weak requires grid dims")
    check_grid(grid, x.shape[1])
    if not 0.0 < scale_min <= 1.0:
        raise ValueError(f"scale_min must be in (0, 1], got {scale_min!r}")
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
    dims, then one `<tag> <id> <label-or-?> <17-digit features...>` line per row.
    The formatted lines are first read back by `load_dataset`'s own reader;
    splits it rejects raise ValueError `cannot save <path>: line N: <rule>`,
    naming the line the row would go on, before `path` is opened. So does an
    id that is not one token without whitespace: the reader splits its lines
    on whitespace, so such an id would read as another field count, or, with
    only leading or trailing whitespace (`' s'`), load back as another id."""
    parts = (splits.labeled_train, splits.unlabeled_train, splits.validation, splits.test)
    lines = ["gdp-synth v1", f"n_features {splits.labeled_train.X.shape[1]}"]
    if splits.grid is not None:
        h, w = splits.grid
        lines.append(f"grid {h} {w}")
    for tag, part in zip(_SPLIT_TAGS, parts):
        for sid, label, x in zip(part.ids.tolist(), part.y.tolist(), part.X):
            if sid.split() != [sid]:  # also keeps `\n` and `\r` out of every line
                raise ValueError(f"cannot save {path}: line {len(lines) + 1}: id {sid!r} "
                                 f"is empty or holds whitespace")
            feats = " ".join(f"{v:.17g}" for v in x.tolist())
            lines.append(f"{tag} {sid} {'?' if label < 0 else label} {feats}")
    try:
        _read(path, lines)  # the file's lines, as `open` will yield them but for the `\n`
    except DatasetFormatError as exc:
        raise ValueError(f"cannot save {exc}") from None
    with open(path, "w", encoding="utf-8") as fh:  # the encoding load_dataset reads
        fh.writelines(line + "\n" for line in lines)


def _str_int(token: str) -> int | None:
    """The integer `token` holds if it is written as `str` writes one, else
    None: `+1`, `01`, `1_0` and non-ASCII digits are not."""
    try:
        value = int(token)
    except ValueError:
        return None
    return value if str(value) == token else None


def _str_float(token: str) -> float | None:
    """The decimal `token` holds if it is ASCII without `_` and `float` reads
    it, else None: `+2`, `.5`, `-0`, `1e5` and `inf` are decimals, while
    `1_0` and non-ASCII digits are not. The bulk reader (`_features`) takes
    the same tokens to the same values."""
    try:
        return float(token) if token.isascii() and "_" not in token else None
    except ValueError:
        return None


def _header_ints(path: str, lineno: int, line: str, key: str, count: int) -> tuple[int, ...]:
    """The `count` positive integers after `key` on header line `lineno`,
    each written as `str` writes it, or a DatasetFormatError."""
    tokens = line.split()
    values = tuple(_str_int(t) for t in tokens[1:])
    if tokens[:1] != [key] or len(values) != count or None in values or min(values) < 1:
        raise DatasetFormatError(
            f"{path}: line {lineno}: expected '{key}' and {count} positive integer(s)"
        )
    return values


# Body lines parsed per np.loadtxt call: enough to spread the call's fixed
# cost, few enough that the text held at once stays a fraction of the file.
_CHUNK_ROWS = 256


def _is_utf8(text: str) -> bool:
    """False if `text` holds a surrogate code point, the only kind that does not
    encode as UTF-8. The reader keeps a byte of the file that is not UTF-8 as
    one (U+DC80 to U+DCFF)."""
    return text.isascii() or not any("\ud800" <= c <= "\udfff" for c in text)


def _text(path: str, lineno: int, line: str) -> str:
    """`line`, or a DatasetFormatError if it is not UTF-8 text."""
    if not _is_utf8(line):
        raise DatasetFormatError(f"{path}: line {lineno}: not UTF-8 text")
    return line


def _label(token: str) -> int | None:
    """The label `token` holds: -1 for `?`, else an integer in [0, 2**63)
    (within int64) written as `str` writes it; None if it is neither."""
    if token == "?":
        return -1
    label = _str_int(token)
    return label if label is not None and 0 <= label < 2**63 else None


def _features(texts, n_features: int) -> np.ndarray | None:
    """The feature texts `texts`, one per body line, as one float64 block from
    one np.loadtxt call, or None if a text is not `n_features` numbers."""
    try:
        x = np.loadtxt(texts, dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        return None
    return x if x.shape[1] == n_features else None


def _row_problem(n_features: int, line: str, seen: dict[str, int]) -> str | None:
    """The first rule that body `line` breaks, as the message that names it, or
    None. The rules rank as the README lists them: UTF-8 text, field count,
    split tag, label, numeric features, an id new to `seen` (which maps each id
    to its line), a label outside trainU, then finite features."""
    if not _is_utf8(line):
        return "not UTF-8 text"
    got = len(line.split())
    if got != 3 + n_features:
        return f"expected {3 + n_features} fields, got {got}"
    tag, sid, token, text = line.split(None, 3)
    if tag not in _SPLIT_TAGS:
        return f"unknown split tag {tag!r}"
    if _label(token) is None:
        value = _str_int(token)
        if value is not None and value < 0:
            return f"negative label {value}"
        return f"bad label {token!r}"
    x = _features([text], n_features)
    if x is None:
        return "non-numeric feature value"
    if sid in seen:
        return f"duplicate id {sid!r} (first on line {seen[sid]})"
    if token == "?" and tag != "trainU":
        return f"{tag} samples must be labeled"
    if not np.isfinite(x).all():
        return "non-finite feature value"
    return None


def _parse_chunk(n_features: int, heads: list[list[str]], seen: dict[str, int]) -> tuple | None:
    """The tags, ids, labels and float64 feature block of the body lines split
    into `heads` (each line's tag, id, label and feature text), or None if one
    of them breaks a rule of `_row_problem`. Each rule is checked over the
    whole chunk at once, and one np.loadtxt call parses its features."""
    if any(len(head) != 4 for head in heads):
        return None
    tags, ids, tokens, texts = zip(*heads)
    labels = [_label(token) for token in tokens]
    x = _features(texts, n_features)
    good = (all(map(_is_utf8, itertools.chain.from_iterable(heads)))
            and x is not None and None not in labels
            and len(set(ids)) == len(ids) and seen.keys().isdisjoint(ids)
            and all(tag in _SPLIT_TAGS and (label >= 0 or tag == "trainU")
                    for tag, label in zip(tags, labels))
            and np.isfinite(x).all())
    return (tags, ids, labels, x) if good else None


def _read(path: str, lines) -> DatasetSplits:
    """The splits of the dataset text whose lines `lines` yields, read as
    `load_dataset` describes; `path` names the file in errors. `lines` may be an
    open file or a list of lines without their line endings: any iterable of
    non-empty lines, read once, in order."""
    lines = iter(lines)
    if _text(path, 1, next(lines, "")).rstrip("\n") != "gdp-synth v1":
        raise DatasetFormatError(f"{path}: line 1: missing 'gdp-synth v1' header")
    (n_features,) = _header_ints(path, 2, _text(path, 2, next(lines, "")), "n_features", 1)
    grid, line = None, _text(path, 3, next(lines, ""))
    if line.split()[:1] == ["grid"]:
        grid = _header_ints(path, 3, line, "grid", 2)
        if grid[0] * grid[1] > n_features:
            raise DatasetFormatError(f"{path}: line 3: grid {grid[0]}x{grid[1]} "
                                     f"exceeds {n_features} features")
    elif line:  # the first body line
        lines = itertools.chain([line], lines)
    seen: dict[str, int] = {}  # id -> its line
    columns = ([], [], [])  # the tag, id and label of each body line
    pieces = {tag: [] for tag in _SPLIT_TAGS}  # each split's feature rows, per chunk

    def read_chunk(first: int, chunk: list[list[str]]) -> None:
        """Check the body lines split into `chunk` (each line's tag, id, label
        and feature text), the first on line `first`, then free their text and
        file their rows by split, so the whole file's features are never held
        in one array besides. A chunk that breaks a rule is read again line by
        line, so the first bad line is the one named."""
        parsed = _parse_chunk(n_features, chunk, seen)
        if parsed is None:
            for lineno, head in enumerate(chunk, start=first):
                # one space between the first four fields: no rule reads what parts them
                problem = _row_problem(n_features, " ".join(head), seen)
                if problem:
                    raise DatasetFormatError(f"{path}: line {lineno}: {problem}")
                seen[head[1]] = lineno
        tags, ids, labels, x = parsed
        seen.update(zip(ids, itertools.count(first)))
        chunk.clear()
        for column, values in zip(columns, (tags, ids, labels)):
            column.extend(values)
        tags = np.array(tags)
        for tag, kept in pieces.items():
            kept.append(x[tags == tag])

    heads = (line.split(None, 3) for line in lines)  # split as read: a chunk holds its text once
    for k, chunk in enumerate(iter(lambda: list(itertools.islice(heads, _CHUNK_ROWS)), [])):
        read_chunk((3 if grid is None else 4) + k * _CHUNK_ROWS, chunk)
    tags = np.array(columns[0], dtype=str)
    for tag in _SPLIT_TAGS:
        if tag != "trainU" and tag not in tags:
            raise DatasetFormatError(f"{path}: no {tag} rows")
    ids = np.array(columns[1], dtype=str)
    labels = np.array(columns[2], dtype=np.int64)
    masks = [tags == tag for tag in _SPLIT_TAGS]
    # pop: each split's pieces are freed once its own array is built
    return DatasetSplits(*(Split(ids[m], np.concatenate(pieces.pop(tag)), labels[m],
                                 np.full(np.count_nonzero(m), -1, dtype=np.int64))
                           for tag, m in zip(_SPLIT_TAGS, masks)), grid=grid)


def load_dataset(path: str) -> DatasetSplits:
    """Read a file in the layout `save_dataset` writes: line 1 `gdp-synth
    v1`, line 2 `n_features N`, an optional line 3 `grid H W`, then one row per
    line to the end of the file. Rows are streamed in chunks of lines; each
    chunk's rules are checked at once and its features parsed by one np.loadtxt
    call. A chunk that breaks a rule is read again line by line, so a malformed
    header or row (a blank line, a misplaced header or a byte that is not UTF-8
    among them) raises DatasetFormatError naming the path and the first bad
    line. A label is `?` or an integer in [0, 2**63) written as `str` writes
    it: `01`, `+1` or `1_0` is a bad label. A feature is an ASCII decimal
    number with an optional sign, point and exponent, rounded to the nearest
    double as `float` rounds it: `+2`, `.5`, `-0` and `1e5` load.
    `1_0`, `0x10`, `1,5`, `1e`, `nan(1)` and non-ASCII digits are non-numeric;
    `nan`, `inf` and `Infinity` parse but are rejected as non-finite.
    `save_dataset` reads the lines it formats with the same reader."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        return _read(path, fh)


def row_line(path: str, row_id: str) -> int | None:
    """The line of dataset file `path` that holds the row with id `row_id`, or
    None. It reads the file again, so a `Split` need carry no line numbers."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.split(None, 2)
            if len(fields) > 1 and fields[0] in _SPLIT_TAGS and fields[1] == row_id:
                return lineno
    return None


__all__ = _public_names(globals())
