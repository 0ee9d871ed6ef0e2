"""Evaluation metrics (accuracy, binary F1, rank-statistic AUC) and the
within-group vs between-group pairwise-correlation density analysis."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import rankdata

from . import _public_names


@dataclass
class MetricsReport:
    """The test metrics of one evaluation. A cell's `metrics.csv` holds its
    final report after a `seed` column, one column per field in field
    order."""
    accuracy: float
    f1: float
    auc: float
    n_samples: int


def _check_lengths(predictions, labels):
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape or predictions.size == 0:
        raise ValueError("predictions and labels must be equal-length and non-empty")
    return predictions, labels


def accuracy(predictions, labels) -> float:
    predictions, labels = _check_lengths(predictions, labels)
    return float(np.mean(predictions == labels))


def f1_binary(predictions, labels) -> float:
    """2 P R / (P + R) with class 1 positive. Degenerate convention: 0 unless
    there are neither predicted nor actual positives, in which case 1."""
    predictions, labels = _check_lengths(predictions, labels)
    pred_pos = predictions == 1
    true_pos = labels == 1
    tp = int(np.sum(pred_pos & true_pos))
    if not pred_pos.any() and not true_pos.any():
        return 1.0
    if tp == 0:
        return 0.0
    precision = tp / pred_pos.sum()
    recall = tp / true_pos.sum()
    return float(2 * precision * recall / (precision + recall))


def auc_roc(scores, labels) -> float:
    """ROC AUC via the Mann-Whitney rank statistic; ties get half credit and
    +-inf scores rank as the extremes. A NaN score, which has no rank, raises
    ValueError."""
    scores, labels = _check_lengths(np.asarray(scores, dtype=np.float64), labels)
    if np.isnan(scores).any():
        raise ValueError("AUC scores must not be NaN")
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC requires at least one positive and one negative label")
    ranks = rankdata(scores)  # average ranks handle ties
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    """The correlation of two non-empty finite 1-D arrays of equal length;
    any other input, or a zero-variance one, raises ValueError."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape or not len(x) or not np.isfinite([x, y]).all():
        raise ValueError(f"pearson needs two non-empty finite 1-D arrays of equal length, got "
                         f"shapes {x.shape} and {y.shape}")
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt((xc * xc).sum() * (yc * yc).sum())
    if denom == 0.0:
        raise ValueError("zero-variance vector has undefined correlation")
    return float((xc * yc).sum() / denom)


@dataclass
class CorrelationDensity:
    """The kept correlations of each group, the histogram's equal-width
    `bin_edges` and the count of skipped pairs; `density` bins a group."""
    within_group: np.ndarray  # float64, in (i, j) pair order, i < j
    between_group: np.ndarray
    bin_edges: np.ndarray
    skipped_pairs: int

    def density(self, group: str) -> np.ndarray:
        """Histogram of the "within" or "between" correlations over
        `bin_edges`, normalised to unit area (all zeros for an empty group).
        Any other group name raises ValueError."""
        if group not in ("within", "between"):
            raise ValueError(f"unknown group {group!r}: expected 'within' or 'between'")
        rho = self.within_group if group == "within" else self.between_group
        counts, _ = np.histogram(rho, bins=self.bin_edges)
        total = counts.sum()
        width = self.bin_edges[1] - self.bin_edges[0]
        if total == 0:
            return np.zeros_like(counts, dtype=np.float64)
        return counts / (total * width)

    def bin_centers(self) -> np.ndarray:
        return (self.bin_edges[:-1] + self.bin_edges[1:]) / 2.0


# Rows per Gram block of `correlation_density`: a block holds a few arrays of
# 64 rows by N columns at once (the Gram products and their denominators, 0.5
# KB per column each, and the kept-pair mask), so the pass never holds an
# N x N matrix.
_BLOCK_ROWS = 64


def correlation_density(X: np.ndarray, y: np.ndarray, bins: int = 50) -> CorrelationDensity:
    """Pearson correlation for every unordered pair of rows of `X`, routed to
    the within-group or between-group array by equality of their labels `y`.

    The rows are centred once and the covariances come from Gram products of
    `_BLOCK_ROWS` rows at a time against every row from the block's first on;
    each block's upper triangle is kept and divided in one vectorised pass,
    so besides one block only the kept correlations are held. A pair is
    skipped and counted when the product of the two rows' sums of squares is
    0, as in `pearson`: a zero-variance member, or an underflow. `pearson`
    stays the per-pair reference; the sums run in another order, so values
    agree with it to rounding. A `bins` that is not an int >= 1, an `X` that
    is not 2-D, one whose row count is not `len(y)`, or one that holds NaN or
    +-inf, raises ValueError before any work."""
    if isinstance(bins, bool) or not isinstance(bins, (int, np.integer)) or bins < 1:
        raise ValueError(f"bins must be an int >= 1, got {bins!r}")
    y = np.asarray(y)
    if np.ndim(X) != 2 or len(X) != len(y):
        raise ValueError(f"X must be 2-D with one row per label: got shape "
                         f"{np.shape(X)} for {len(y)} labels")
    if not np.isfinite(X).all():
        raise ValueError("X must hold only finite values")
    if (y < 0).any():
        raise ValueError("correlation_density requires labeled rows")
    if (np.unique(y, return_counts=True)[1] < 2).any():
        raise ValueError("need at least 2 samples per class")
    x = X - X.mean(axis=1, keepdims=True)
    sq = (x * x).sum(axis=1)
    n = len(y)
    within, between = [np.empty(0)], [np.empty(0)]  # np.concatenate([]) raises
    for b in range(0, n - 1, _BLOCK_ROWS):
        rows = slice(b, b + _BLOCK_ROWS)
        gram = x[rows] @ x[b:].T  # pair (i, j) at gram[i - b, j - b]
        denom = np.sqrt(sq[rows, None] * sq[b:])
        # the kept pairs: i < j and a non-zero denominator; boolean indexing
        # reads them row-major, so in (i, j) order
        ok = (np.arange(len(gram))[:, None] < np.arange(n - b)) & (denom != 0.0)
        rho = gram[ok]
        rho /= denom[ok]
        same = (y[rows, None] == y[b:])[ok]
        del gram, denom, ok  # freed before the next block is built
        within.append(rho[same])
        between.append(rho[~same])
    del x  # freed before the kept values are copied together, to hold the peak
    within, between = np.concatenate(within), np.concatenate(between)
    skipped = n * (n - 1) // 2 - len(within) - len(between)
    return CorrelationDensity(within, between, np.linspace(-1.0, 1.0, bins + 1), skipped)


__all__ = _public_names(globals())
