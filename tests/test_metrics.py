import re
import tracemalloc

import numpy as np
import pytest

from pseudosup.metrics import (
    _BLOCK_ROWS,
    accuracy,
    auc_roc,
    correlation_density,
    f1_binary,
    pearson,
)


def auc_pair_oracle(scores, labels):
    """Brute-force enumeration over all positive-negative pairs, ties = 1/2."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestAccuracy:
    def test_identical(self):
        assert accuracy([0, 1, 1], [0, 1, 1]) == 1.0

    def test_disjoint(self):
        assert accuracy([0, 0, 1], [1, 1, 0]) == 0.0

    def test_three_quarters(self):
        assert accuracy([0, 1, 1, 0], [0, 1, 0, 0]) == 0.75

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            accuracy([0, 1], [0])


class TestF1:
    def test_perfect(self):
        assert f1_binary([0, 1, 1], [0, 1, 1]) == 1.0

    def test_no_predicted_positives(self):
        assert f1_binary([0, 0, 0], [0, 1, 1]) == 0.0

    def test_tp2_fp1_fn1(self):
        preds = [1, 1, 1, 0, 0]
        labels = [1, 1, 0, 1, 0]
        assert f1_binary(preds, labels) == pytest.approx(2 / 3)

    def test_both_empty_positive_sets(self):
        assert f1_binary([0, 0], [0, 0]) == 1.0

    def test_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = rng.integers(0, 2, 10)
            l = rng.integers(0, 2, 10)
            assert 0.0 <= f1_binary(p, l) <= 1.0


class TestAuc:
    def test_perfect_separation(self):
        assert auc_roc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties(self):
        assert auc_roc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auc_roc([0.1, 0.2], [1, 1])

    @pytest.mark.parametrize("at", [0, 1])
    def test_nan_score_rejected(self, at):
        scores = [0.1, 0.2, 0.3, 0.4]
        scores[at] = np.nan
        with pytest.raises(ValueError, match="^AUC scores must not be NaN$"):
            auc_roc(scores, [0, 1, 0, 1])

    @pytest.mark.parametrize("scores", [[-np.inf, np.inf, 0.3, 0.4], [np.inf, -np.inf, 0.3, 0.4],
                                        [np.inf, np.inf, 0.3, 0.4]])
    def test_infinite_scores_rank_as_extremes(self, scores):
        assert auc_roc(scores, [0, 1, 0, 1]) == auc_pair_oracle(scores, [0, 1, 0, 1])

    def test_matches_pair_enumeration_with_ties(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n = int(rng.integers(4, 20))
            scores = rng.integers(0, 5, size=n).astype(float)  # force ties
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                continue
            assert auc_roc(scores, labels) == pytest.approx(
                auc_pair_oracle(scores, labels), abs=1e-12
            )

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(22)
        scores = rng.normal(size=30)
        labels = rng.integers(0, 2, size=30)
        labels[0], labels[1] = 0, 1
        base = auc_roc(scores, labels)
        assert auc_roc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
        assert auc_roc(3.0 * scores + 7.0, labels) == pytest.approx(base, abs=1e-12)

    def test_negation_complement_without_ties(self):
        rng = np.random.default_rng(23)
        scores = rng.normal(size=40)
        labels = rng.integers(0, 2, size=40)
        labels[0], labels[1] = 0, 1
        assert auc_roc(scores, labels) + auc_roc(-scores, labels) == pytest.approx(
            1.0, abs=1e-12
        )


class TestPearson:
    def test_self_correlation(self):
        v = np.array([1.0, 2.0, 5.0])
        assert pearson(v, v) == pytest.approx(1.0)

    def test_exact_anticorrelation(self):
        assert pearson([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == pytest.approx(-1.0)

    def test_matches_formula_oracle(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=20)
        y = rng.normal(size=20)
        cov = np.mean((x - x.mean()) * (y - y.mean()))
        expected = cov / (x.std() * y.std())
        assert pearson(x, y) == pytest.approx(expected, abs=1e-12)

    def test_symmetry_and_scale_invariance(self):
        rng = np.random.default_rng(32)
        x = rng.normal(size=15)
        y = rng.normal(size=15)
        assert pearson(x, y) == pytest.approx(pearson(y, x), abs=1e-12)
        assert pearson(2.0 * x + 1.0, y) == pytest.approx(pearson(x, y), abs=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            pearson(np.ones(5), np.arange(5.0))

    @pytest.mark.parametrize("x, y", [
        ([1.0, 2.0, 3.0], [[1.0], [2.0], [4.0]]),  # broadcasts to a 3 x 3 product
        ([[1.0, 2.0], [3.0, 5.0]], [[1.0, 2.0], [3.0, 4.0]]),
        ([1.0, 2.0, 3.0], [1.0, 2.0]),
        ([], []),
        ([1.0, np.nan, 3.0], [1.0, 2.0, 4.0]),
        ([1.0, 2.0, 3.0], [1.0, np.inf, 4.0]),
        ([-np.inf, 2.0, 3.0], [1.0, 2.0, 4.0]),
    ], ids=["column", "two_dim", "lengths", "empty", "nan", "inf", "minus_inf"])
    def test_not_two_finite_vectors_rejected(self, x, y):
        with pytest.raises(ValueError, match=r"^pearson needs two non-empty finite 1-D arrays "
                                             r"of equal length, got shapes "):
            pearson(x, y)


class TestCorrelationDensity:
    @staticmethod
    def samples():
        rng = np.random.default_rng(40)
        return rng.normal(size=(8, 10)), np.arange(8) % 2

    def test_pair_routing(self):
        x, y = self.samples()
        before = x.copy()
        density = correlation_density(x, y)
        np.testing.assert_array_equal(x, before)
        # 8 samples -> 28 pairs; 4+4 per class -> 6+6 within, 16 between
        assert len(density.within_group) == 12
        assert len(density.between_group) == 16

    def test_correlations_bounded(self):
        density = correlation_density(*self.samples())
        for rho in np.concatenate([density.within_group, density.between_group]):
            assert -1.0 <= rho <= 1.0 + 1e-12

    def test_zero_variance_pair_skipped(self):
        x, y = self.samples()
        x = np.vstack([x, np.zeros(10), np.ones(10)])
        density = correlation_density(x, np.append(y, [0, 1]))
        assert density.skipped_pairs == 2 * 8 + 1

    @pytest.mark.parametrize("shape, n_labels", [((10, 5), 6), ((6, 5), 10), ((10,), 10)],
                             ids=["more_rows", "more_labels", "one_dim"])
    def test_shape_mismatch_rejected_before_any_work(self, shape, n_labels):
        x = np.random.default_rng(41).normal(size=shape)
        y = np.arange(n_labels) % 2
        with pytest.raises(ValueError, match=rf"^X must be 2-D with one row per label: got "
                                             rf"shape {re.escape(str(shape))} for {n_labels} "
                                             rf"labels$"):
            correlation_density(x, y)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        x, y = self.samples()
        x[3, 4] = bad
        with pytest.raises(ValueError, match="^X must hold only finite values$"):
            correlation_density(x, y)

    # Every pair (i, j), i < j, through `pearson` in that order; a pair that
    # `pearson` rejects for a zero-variance member is counted as skipped.
    @staticmethod
    def pair_oracle(x, y):
        within, between, skipped = [], [], 0
        for i in range(len(x)):
            for j in range(i + 1, len(x)):
                try:
                    rho = pearson(x[i], x[j])
                except ValueError:
                    skipped += 1
                    continue
                (within if y[i] == y[j] else between).append(rho)
        return within, between, skipped

    # `correlation_density`'s pass before its blocks were vectorised: the same
    # 64-row Gram blocks, each row against the rows after it, one row at a
    # time. The byte-level reference for the one-pass blocks.
    @staticmethod
    def row_walk(X, y):
        x = X - X.mean(axis=1, keepdims=True)
        sq = (x * x).sum(axis=1)
        n = len(y)
        within, between = [np.empty(0)], [np.empty(0)]
        for b in range(0, n - 1, _BLOCK_ROWS):
            gram = x[b : b + _BLOCK_ROWS] @ x[b:].T
            for i in range(b, min(b + _BLOCK_ROWS, n - 1)):
                denom = np.sqrt(sq[i] * sq[i + 1 :])
                ok = denom != 0.0
                rho = gram[i - b, i - b + 1 :][ok] / denom[ok]
                same = y[i + 1 :][ok] == y[i]
                within.append(rho[same])
                between.append(rho[~same])
        within, between = np.concatenate(within), np.concatenate(between)
        return within, between, n * (n - 1) // 2 - len(within) - len(between)

    def assert_matches_row_walk(self, x, y):
        density = correlation_density(x, y)
        within, between, skipped = self.row_walk(x, y)
        assert density.within_group.tobytes() == within.tobytes()
        assert density.between_group.tobytes() == between.tobytes()
        assert density.skipped_pairs == skipped
        return density

    # every row count next to a block edge, with 2 and 3 classes (1 for 2 rows)
    @pytest.mark.parametrize("n, classes", sorted({
        (n, min(k, n // 2)) for n in (2, 63, 64, 65, 129, 131) for k in (2, 3)}))
    @pytest.mark.parametrize("constant", [False, True], ids=["", "constant_rows"])
    def test_blocks_match_row_walk_bytes(self, n, classes, constant):
        rng = np.random.default_rng(100 * n + classes)
        x = rng.normal(size=(n, 7))
        if constant:  # pairs of them inside one block and across blocks
            x[[r for r in (1, 5, _BLOCK_ROWS - 1, _BLOCK_ROWS, n - 1) if r < n]] = 2.0
        y = rng.permutation(np.arange(n) % classes)
        density = self.assert_matches_row_walk(x, y)
        assert len(density.within_group) > 0 or constant

    def test_underflowing_denominator_skipped(self):
        """Two rows of values about 1e-160 each have a non-zero sum of
        squares, but its product for the pair underflows to 0: the pair is
        skipped by the denominator, not for a zero-variance row."""
        rng = np.random.default_rng(44)
        x = rng.normal(size=(2 * _BLOCK_ROWS + 3, 7))
        tiny = [3, _BLOCK_ROWS + 5]
        x[tiny] = 1e-160 * rng.normal(size=(2, 7))
        centred = x[tiny] - x[tiny].mean(axis=1, keepdims=True)
        sq = (centred * centred).sum(axis=1)
        assert (sq > 0).all() and sq[0] * sq[1] == 0.0
        density = self.assert_matches_row_walk(x, np.arange(len(x)) % 3)
        assert density.skipped_pairs == 1

    @pytest.mark.parametrize("bins", [0, -1, True, False, 2.0, "3", None])
    def test_bad_bins_rejected_before_any_work(self, bins):
        with pytest.raises(ValueError, match=rf"^bins must be an int >= 1, got "
                                             rf"{re.escape(repr(bins))}$"):
            correlation_density(np.zeros(3), np.zeros(5, dtype=np.int64), bins=bins)

    @pytest.mark.parametrize("bins", [1, np.int64(7)])
    def test_bins_give_equal_width_edges(self, bins):
        density = correlation_density(*self.samples(), bins=bins)
        np.testing.assert_array_equal(density.bin_edges, np.linspace(-1.0, 1.0, int(bins) + 1))
        assert density.density("within").shape == (bins,)

    @pytest.mark.parametrize("n, constant_rows", [
        (2, ()),
        (_BLOCK_ROWS - 1, ()),
        (_BLOCK_ROWS, (5,)),
        (_BLOCK_ROWS + 1, (_BLOCK_ROWS - 1, _BLOCK_ROWS)),
        (2 * _BLOCK_ROWS + 3, (3, 7, _BLOCK_ROWS + 2, 2 * _BLOCK_ROWS + 2)),
    ])
    def test_every_pair_matches_pearson(self, n, constant_rows):
        rng = np.random.default_rng(n)
        x = rng.normal(size=(n, 7))
        x[list(constant_rows)] = 2.0  # a row whose centred values are exactly 0
        y = rng.permutation(np.arange(n) % 3) if n > 5 else np.zeros(n, dtype=np.int64)
        density = correlation_density(x, y)
        within, between, skipped = self.pair_oracle(x, y)
        assert density.skipped_pairs == skipped
        for got, expected in ((density.within_group, within), (density.between_group, between)):
            assert got.shape == (len(expected),)
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_peak_memory_below_the_gram_matrix(self):
        """At N = 1,200 rows of 4 features an N x N Gram matrix (8 N^2 bytes)
        held beside the kept correlations (4 N^2 bytes) passes 10 N^2 bytes;
        with row blocks the peak is the kept correlations and their
        concatenated copy, about 8 N^2."""
        n = 1200
        rng = np.random.default_rng(42)
        x, y = rng.normal(size=(n, 4)), np.arange(n) % 2
        tracemalloc.start()
        try:
            correlation_density(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * n * n

    def test_needs_two_per_class(self):
        x, y = self.samples()
        with pytest.raises(ValueError):
            correlation_density(x[:3], y[:3])

    def test_unlabeled_rows_rejected(self):
        x, y = self.samples()
        y[3] = -1
        with pytest.raises(ValueError, match="^correlation_density requires labeled rows$"):
            correlation_density(x, y)

    def test_empty_group_density_is_zero(self):
        x, _ = self.samples()
        density = correlation_density(x, np.zeros(len(x), dtype=np.int64))
        assert len(density.between_group) == 0
        np.testing.assert_array_equal(density.density("between"), np.zeros(50))
        width = density.bin_edges[1] - density.bin_edges[0]
        assert density.density("within").sum() * width == pytest.approx(1.0)

    def test_zero_rows_give_empty_groups(self):
        density = correlation_density(np.empty((0, 10)), np.empty(0, dtype=np.int64))
        for group in ("within", "between"):
            rho = getattr(density, f"{group}_group")
            assert rho.dtype == np.float64 and rho.shape == (0,)
            np.testing.assert_array_equal(density.density(group), np.zeros(50))
        assert density.skipped_pairs == 0

    def test_density_integrates_to_one(self):
        density = correlation_density(*self.samples())
        width = density.bin_edges[1] - density.bin_edges[0]
        assert density.density("within").sum() * width == pytest.approx(1.0)

    @pytest.mark.parametrize("group", ["withn", "Within", ""])
    def test_unknown_group_rejected(self, group):
        density = correlation_density(*self.samples())
        with pytest.raises(ValueError, match=f"^unknown group {group!r}: expected "
                                             "'within' or 'between'$"):
            density.density(group)
