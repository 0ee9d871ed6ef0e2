import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from pseudosup.data import (
    DatasetFormatError,
    DatasetSplits,
    LongitudinalSeries,
    QcRecord,
    QcReport,
    Sample,
    Split,
    apply_crop_flip,
    augment_weak,
    concat_modalities,
    derive_progression_labels,
    generate_overlapping_gaussians,
    generate_multimodal_gaussians,
    load_dataset,
    qc_filter,
    row_line,
    save_dataset,
    split_dataset,
    splits_digest,
)
from pseudosup.data import TD_MAX, TD_MIN
from pseudosup.cli import main
from pseudosup.data import _CHUNK_ROWS, _features, _str_float
from pseudosup.metrics import auc_roc


def ols_slope_oracle(t, v):
    """Closed-form least squares slope: sum((t-tb)(v-vb)) / sum((t-tb)^2)."""
    tb = np.mean(t)
    vb = np.mean(v)
    return np.sum((t - tb) * (v - vb)) / np.sum((t - tb) ** 2)


class TestGaussians:
    def test_separation_two_bayes_auc(self):
        # Bayes discriminant on the first axis; AUC should approach Phi(2/sqrt(2))
        data = generate_overlapping_gaussians(20000, 2, 2.0, seed=11)
        scores, labels = data.X[:, 0], data.y
        target = 0.5 * (1 + math.erf((2.0 / math.sqrt(2)) / math.sqrt(2)))
        assert auc_roc(scores, labels) == pytest.approx(target, abs=0.02)

    def test_same_seed_identical(self):
        a = generate_overlapping_gaussians(10, 4, 1.0, seed=3)
        b = generate_overlapping_gaussians(10, 4, 1.0, seed=3)
        for field in ("ids", "X", "y", "hidden"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

    def test_balanced_labels(self):
        data = generate_overlapping_gaussians(25, 3, 0.5, seed=1)
        assert np.bincount(data.y).tolist() == [25, 25]

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            generate_overlapping_gaussians(0, 3, 1.0, seed=1)
        with pytest.raises(ValueError):
            generate_overlapping_gaussians(5, 3, -0.1, seed=1)

    @pytest.mark.parametrize("separation, grid_dims, message", [
        (math.inf, None, "class_separation must be finite and >= 0, got inf"),
        (math.nan, None, "class_separation must be finite and >= 0, got nan"),
        # (-4, -5) multiplies to dim 20, so only the sign check rejects it
        (1.0, (-4, -5), r"grid dims must be >= 1, got \(-4, -5\)"),
        (1.0, (3, 3), "grid 3x3 must tile dim 20"),
    ])
    def test_invalid_shape_settings_rejected(self, separation, grid_dims, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            generate_overlapping_gaussians(5, 20, separation, 1, grid_dims)

    def test_multimodal_feature_length(self):
        data = generate_multimodal_gaussians(5, (3, 4), 1.0, seed=2,
                                             vf_target_len=104)
        assert data.X.shape == (10, 12 + 104)


class TestSplit:
    def test_counts(self):
        samples = generate_overlapping_gaussians(50, 2, 1.0, seed=0)
        splits = split_dataset(samples, 0.5, (0.7, 0.1, 0.2), seed=0)
        assert len(splits.labeled_train) == 35
        assert len(splits.unlabeled_train) == 35
        assert len(splits.validation) == 10
        assert len(splits.test) == 20

    def test_full_label_fraction_means_no_unlabeled(self):
        samples = generate_overlapping_gaussians(50, 2, 1.0, seed=0)
        splits = split_dataset(samples, 1.0, (0.7, 0.1, 0.2), seed=0)
        assert len(splits.unlabeled_train) == 0

    def test_disjoint_ids_over_many_seeds(self):
        samples = generate_overlapping_gaussians(30, 2, 1.0, seed=0)
        for seed in range(100):
            splits = split_dataset(samples, 0.5, (0.6, 0.2, 0.2), seed=seed)
            parts = [
                set(splits.labeled_train.ids),
                set(splits.unlabeled_train.ids),
                set(splits.validation.ids),
                set(splits.test.ids),
            ]
            for i in range(4):
                for j in range(i + 1, 4):
                    assert not parts[i] & parts[j]
            assert set.union(*parts) == set(samples.ids)

    def test_unlabeled_hide_but_retain_ground_truth(self):
        samples = generate_overlapping_gaussians(50, 2, 1.0, seed=0)
        splits = split_dataset(samples, 0.5, (0.7, 0.1, 0.2), seed=0)
        unlabeled = splits.unlabeled_train
        assert (unlabeled.y == -1).all()
        assert np.isin(unlabeled.hidden, (0, 1)).all()
        by_id = dict(zip(samples.ids, samples.y))
        assert unlabeled.hidden.tolist() == [by_id[i] for i in unlabeled.ids]
        for part in (splits.labeled_train, splits.validation, splits.test):
            assert (part.hidden == -1).all()
            assert part.y.tolist() == [by_id[i] for i in part.ids]

    def test_source_with_hidden_labels_rejected(self):
        samples = generate_overlapping_gaussians(10, 2, 1.0, seed=0)
        samples.y[:] = -1
        with pytest.raises(ValueError, match="^labeled_train must be fully labeled$"):
            split_dataset(samples, 0.5, (0.6, 0.2, 0.2), seed=0)

    def test_bad_fractions_rejected(self):
        samples = generate_overlapping_gaussians(10, 2, 1.0, seed=0)
        with pytest.raises(ValueError):
            split_dataset(samples, 0.5, (0.5, 0.2, 0.2), seed=0)
        with pytest.raises(ValueError, match="fractions must be positive and sum to 1"):
            split_dataset(samples, 0.5, (0.5, 0.6, -0.1), seed=0)
        with pytest.raises(ValueError, match="a split partition would be empty"):
            split_dataset(samples.take(np.arange(4)), 0.5, (0.9, 0.05, 0.05), seed=0)
        with pytest.raises(ValueError):
            split_dataset(samples, 0.0, (0.7, 0.1, 0.2), seed=0)


class TestQcFilter:
    @staticmethod
    def make(signal=10, fix=0.0, fp=0.0, fn=0.0):
        sample = Sample(id="x", features=np.zeros(2), label=0)
        return (sample, QcRecord(signal, fix, fp, fn))

    def test_signal_boundary(self):
        retained, report = qc_filter([self.make(signal=6), self.make(signal=5)])
        assert len(retained) == 1
        assert report.excluded_low_signal == 1

    def test_fixation_boundary(self):
        retained, _ = qc_filter([self.make(fix=0.33), self.make(fix=0.34)])
        assert len(retained) == 1

    def test_false_rate_boundaries(self):
        retained, report = qc_filter(
            [self.make(fp=0.20), self.make(fp=0.21),
             self.make(fn=0.20), self.make(fn=0.21)]
        )
        assert len(retained) == 2
        assert report.excluded_false_positive == 1
        assert report.excluded_false_negative == 1

    def test_report_totals(self):
        _, report = qc_filter([self.make(), self.make(signal=2, fp=0.5)])
        assert report.n_input == 2
        assert report.n_retained == 1
        assert report.excluded_low_signal == 1
        assert report.excluded_false_positive == 1

    @pytest.mark.parametrize("record, message", [
        ((11, 0.0, 0.0, 0.0), "signal strength must be in \\[0, 10\\]"),
        ((-1, 0.0, 0.0, 0.0), "signal strength must be in \\[0, 10\\]"),
        ((6, 1.5, 0.0, 0.0), "rates must be in \\[0, 1\\]"),
        ((6, 0.0, -0.1, 0.0), "rates must be in \\[0, 1\\]"),
        ((6, 0.0, 0.0, math.nan), "rates must be in \\[0, 1\\]"),
    ])
    def test_out_of_range_record_rejected(self, record, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            QcRecord(*record)

    def test_every_rule_broken_counts_once_under_each(self):
        records = [self.make(fix=0.33, fp=0.20, fn=0.20),
                   self.make(signal=5, fix=0.34, fp=0.21, fn=0.21)]
        retained, report = qc_filter(records)
        assert retained == [records[0][0]]
        assert report == QcReport(n_input=2, n_retained=1, excluded_low_signal=1,
                                  excluded_fixation_loss=1, excluded_false_positive=1,
                                  excluded_false_negative=1)


class TestProgression:
    @staticmethod
    def series(t, td, md):
        return LongitudinalSeries(np.asarray(t), np.asarray(td), np.asarray(md))

    def test_flat_series_no_progression(self):
        t = [0.0, 1.0, 2.0]
        td = np.full((3, 52), -2.0)
        md = np.zeros(3)
        result = derive_progression_labels(self.series(t, td, md))
        assert not result.td_progression
        assert not result.md_fast_progression
        np.testing.assert_allclose(result.td_slopes, 0.0, atol=1e-12)

    def test_exactly_three_boundary_locations(self):
        t = [0.0, 1.0, 2.0]
        td = np.zeros((3, 52))
        for loc in range(3):
            td[:, loc] = [0.0, -1.0, -2.0]  # slope exactly -1
        result = derive_progression_labels(self.series(t, td, np.zeros(3)))
        assert result.td_progression

    def test_two_locations_not_enough(self):
        t = [0.0, 1.0, 2.0]
        td = np.zeros((3, 52))
        for loc in range(2):
            td[:, loc] = [0.0, -1.0, -2.0]
        result = derive_progression_labels(self.series(t, td, np.zeros(3)))
        assert not result.td_progression

    def test_md_boundary(self):
        t = [0.0, 1.0, 2.0]
        td = np.zeros((3, 52))
        result = derive_progression_labels(self.series(t, td, [0.0, -1.0, -2.0]))
        assert result.md_fast_progression

    def test_slopes_match_closed_form_oracle(self):
        rng = np.random.default_rng(8)
        t = np.sort(rng.uniform(0, 10, size=6))
        t += np.arange(6) * 1e-3  # guarantee strict increase
        td = rng.uniform(-10, 10, size=(6, 52))
        md = rng.uniform(-10, 5, size=6)
        result = derive_progression_labels(self.series(t, td, md))
        for loc in range(52):
            assert result.td_slopes[loc] == pytest.approx(
                ols_slope_oracle(t, td[:, loc]), abs=1e-10
            )
        assert result.md_slope == pytest.approx(ols_slope_oracle(t, md), abs=1e-10)

    def test_fewer_than_two_visits_rejected(self):
        with pytest.raises(ValueError):
            derive_progression_labels(
                self.series([0.0], np.zeros((1, 52)), [0.0])
            )

    @pytest.mark.parametrize("t, td_shape, md_len, message", [
        ([0.0, 1.0, 1.0], (3, 52), 3, "timestamps must be strictly increasing"),
        ([1.0, 0.0], (2, 52), 2, "timestamps must be strictly increasing"),
        ([0.0, 1.0], (2, 51), 2, "td_values must be \\[visits x 52\\]"),
        ([0.0, 1.0], (52,), 2, "td_values must be \\[visits x 52\\]"),
        ([0.0, 1.0], (2, 52), 3, "md_values must have one entry per visit"),
    ])
    def test_malformed_series_rejected(self, t, td_shape, md_len, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            self.series(t, np.zeros(td_shape), np.zeros(md_len))

    def test_td_range_enforced(self):
        with pytest.raises(ValueError):
            self.series([0.0, 1.0], np.full((2, 52), 30.0), [0.0, 0.0])

    def test_non_finite_td_rejected(self):
        # a NaN in one of three progressing locations once gave slopes
        # [nan, -2, -2] and no TD progression
        td = np.zeros((3, 52))
        td[:, :3] = [[0.0], [-2.0], [-4.0]]
        td[1, 0] = np.nan
        with pytest.raises(ValueError, match="^td_values must be finite$"):
            self.series([0.0, 1.0, 2.0], td, np.zeros(3))

    def test_non_finite_md_rejected(self):
        with pytest.raises(ValueError, match="^md_values must be finite$"):
            self.series([0.0, 1.0, 2.0], np.zeros((3, 52)), [0.0, np.nan, -4.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_timestamp_rejected(self, bad, capfd):
        with pytest.raises(ValueError, match="^timestamps must be finite$"):
            self.series([0.0, 1.0, bad], np.zeros((3, 52)), np.zeros(3))
        assert capfd.readouterr().err == ""  # LAPACK never ran

    @pytest.mark.parametrize("seed", range(5))
    def test_one_fit_equals_two_separate_fits(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        t = np.cumsum(rng.uniform(0.01, 3.0, size=n))
        td = rng.uniform(TD_MIN, TD_MAX, size=(n, 52))
        md = rng.uniform(-30.0, 5.0, size=n)
        result = derive_progression_labels(self.series(t, td, md))
        design = np.column_stack([t, np.ones_like(t)])
        np.testing.assert_array_equal(
            result.td_slopes, np.linalg.lstsq(design, td, rcond=None)[0][0])
        assert result.md_slope == float(np.linalg.lstsq(design, md, rcond=None)[0][0])


class TestConcatModalities:
    def test_identity_upscale(self):
        vec = np.arange(52.0)
        out = concat_modalities(np.arange(4.0), vec, 52)
        np.testing.assert_array_equal(out, np.concatenate([np.arange(4.0), vec]))

    def test_constant_vector_invariance(self):
        out = concat_modalities(np.zeros(4), np.full(52, 3.5), 104)
        np.testing.assert_array_equal(out[4:], np.full(104, 3.5))

    def test_double_length_replicates_each_element(self):
        vec = np.arange(52.0)
        tail = concat_modalities(np.zeros(1), vec, 104)[1:]
        for k in range(52):
            assert tail[2 * k] == vec[k]
            assert tail[2 * k + 1] == vec[k]

    def test_rows_match_one_row_at_a_time(self):
        rng = np.random.default_rng(3)
        x, vf = rng.normal(size=(5, 4)), rng.normal(size=(5, 52))
        out = concat_modalities(x, vf, 104)
        for i in range(5):
            np.testing.assert_array_equal(out[i], concat_modalities(x[i], vf[i], 104))

    def test_target_too_short_rejected(self):
        with pytest.raises(ValueError):
            concat_modalities(np.zeros(4), np.zeros(52), 51)


class TestAugmentWeak:
    @staticmethod
    def grid_row(h=6, w=8, tail=0):
        return np.random.default_rng(0).normal(size=h * w + tail)

    def test_identity_when_forced(self):
        grid = np.arange(48.0).reshape(6, 8)
        out = apply_crop_flip(grid, flip=False, crop_h=6, crop_w=8, top=0, left=0)
        np.testing.assert_array_equal(out, grid)

    def test_flip_is_involution(self):
        grid = np.arange(48.0).reshape(6, 8)
        once = apply_crop_flip(grid, True, 6, 8, 0, 0)
        twice = apply_crop_flip(once, True, 6, 8, 0, 0)
        np.testing.assert_array_equal(twice, grid)

    def test_crop_resize_known_answer(self):
        grid = np.arange(16.0).reshape(4, 4)
        # the 2x2 crop at (1, 1) is [[5, 6], [9, 10]]; each cell doubles
        np.testing.assert_array_equal(
            apply_crop_flip(grid, False, 2, 2, 1, 1),
            [[5, 5, 6, 6], [5, 5, 6, 6], [9, 9, 10, 10], [9, 9, 10, 10]])
        # flipped first: the crop is [[6, 5], [10, 9]]
        np.testing.assert_array_equal(
            apply_crop_flip(grid, True, 2, 2, 1, 1),
            [[6, 6, 5, 5], [6, 6, 5, 5], [10, 10, 9, 9], [10, 10, 9, 9]])
        # 3 output columns from 2 crop columns take crop columns 0, 0, 1
        np.testing.assert_array_equal(
            apply_crop_flip(np.arange(9.0).reshape(3, 3), False, 3, 2, 0, 1),
            [[1, 1, 2], [4, 4, 5], [7, 7, 8]])

    def test_sides_of_two_only_flip_at_default_scale(self):
        row = np.arange(4.0)[None]
        outputs = {tuple(augment_weak(row, (2, 2), np.random.default_rng(seed))[0])
                   for seed in range(200)}
        assert outputs == {(0, 1, 2, 3), (1, 0, 3, 2)}
        cropped = {tuple(augment_weak(np.arange(16.0)[None], (4, 4),
                                      np.random.default_rng(seed))[0])
                   for seed in range(200)}
        assert len(cropped) > 2

    def test_constant_grid_stays_constant(self):
        for seed in range(10):
            out = augment_weak(np.full((1, 48), 2.5), (6, 8), np.random.default_rng(seed))
            np.testing.assert_array_equal(out, np.full((1, 48), 2.5))

    def test_label_and_tail_unchanged(self):
        row = self.grid_row(tail=10)[None]
        out = augment_weak(row, (6, 8), np.random.default_rng(5))
        assert out.shape == row.shape
        np.testing.assert_array_equal(out[:, 48:], row[:, 48:])

    def test_deterministic_per_seed(self):
        row = self.grid_row()[None]
        a = augment_weak(row, (6, 8), np.random.default_rng(9))
        b = augment_weak(row, (6, 8), np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_requires_grid_dims(self):
        with pytest.raises(ValueError):
            augment_weak(np.zeros((1, 4)), None, np.random.default_rng(0))

    @pytest.mark.parametrize("grid", [(3, 3), (0, 2), (2, 0), (-1, -1)])
    def test_unusable_grid_rejected_before_any_draw(self, grid):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        message = f"^grid {grid[0]}x{grid[1]} needs sides >= 1 and at most 4 cells$"
        with pytest.raises(ValueError, match=message):
            augment_weak(np.zeros((2, 4)), grid, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("scale_min", [1.5, 0.0, -0.5, math.nan, math.inf])
    def test_scale_min_outside_unit_interval_rejected_before_any_draw(self, scale_min):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        message = f"^scale_min must be in \\(0, 1\\], got {scale_min!r}$"
        with pytest.raises(ValueError, match=message):
            augment_weak(np.zeros((2, 4)), (2, 2), rng, scale_min)
        assert rng.bit_generator.state == state

    def test_scale_min_of_one_only_flips(self):
        out = augment_weak(np.arange(8.0).reshape(2, 4), (2, 2), np.random.default_rng(0), 1.0)
        assert {tuple(row) for row in out} <= {(0, 1, 2, 3), (1, 0, 3, 2), (4, 5, 6, 7),
                                               (5, 4, 7, 6)}


def crop_flip_reference(grid, flip, crop_h, crop_w, top, left):
    """One (h, w) grid augmented by slicing: flip, crop, nearest-neighbor resize."""
    h, w = grid.shape
    if flip:
        grid = grid[:, ::-1]
    crop = grid[top : top + crop_h, left : left + crop_w]
    rows = (np.arange(h) * crop_h) // h
    cols = (np.arange(w) * crop_w) // w
    return crop[np.ix_(rows, cols)]


class TestBatchedCropFlip:
    @staticmethod
    def random_params(rng, n, h, w, scale_min):
        flip = rng.random(n) < 0.5
        crop_h = np.maximum(1, np.round(rng.uniform(scale_min, 1.0, n) * h)).astype(np.int64)
        crop_w = np.maximum(1, np.round(rng.uniform(scale_min, 1.0, n) * w)).astype(np.int64)
        top = rng.integers(0, h - crop_h + 1)
        left = rng.integers(0, w - crop_w + 1)
        return flip, crop_h, crop_w, top, left

    @pytest.mark.parametrize("h, w, scale_min", [
        (1, 1, 0.05), (1, 7, 0.05), (6, 1, 0.3), (4, 5, 0.8), (7, 3, 0.05), (8, 8, 1.0)])
    def test_stack_matches_reference_and_scalar_calls(self, h, w, scale_min):
        rng = np.random.default_rng([h, w])
        n = 25
        stack = rng.standard_normal((n, h, w))
        params = self.random_params(rng, n, h, w, scale_min)
        out = apply_crop_flip(stack, *params)
        assert out.shape == stack.shape
        for i, p in enumerate(zip(*params)):
            expected = crop_flip_reference(stack[i], *p)
            assert out[i].tobytes() == expected.tobytes()
            assert apply_crop_flip(stack[i], *p).tobytes() == expected.tobytes()

    def test_stack_covers_flips_and_full_size_crops(self):
        stack = np.arange(3 * 4 * 5.0).reshape(3, 4, 5)
        out = apply_crop_flip(stack, [False, True, True], [4, 4, 1], [5, 5, 1],
                              [0, 0, 3], [0, 0, 4])
        np.testing.assert_array_equal(out[0], stack[0])
        np.testing.assert_array_equal(out[1], stack[1, :, ::-1])
        # a 1x1 crop of the flipped grid at (3, 4) is cell (3, 0) of the grid
        np.testing.assert_array_equal(out[2], np.full((4, 5), stack[2, 3, 0]))

    @pytest.mark.parametrize("h, w, scale_min", [(1, 1, 0.05), (2, 2, 0.8), (4, 5, 0.8),
                                                 (3, 8, 0.05), (5, 1, 0.5)])
    def test_batch_matches_rows_augmented_in_turn(self, h, w, scale_min):
        x = np.random.default_rng([h, w, 1]).standard_normal((31, h * w + 3))
        batch = augment_weak(x, (h, w), np.random.default_rng(4), scale_min)
        rng = np.random.default_rng(4)
        rows = [augment_weak(row[None], (h, w), rng, scale_min) for row in x]
        assert batch.tobytes() == np.concatenate(rows).tobytes()
        assert batch.shape == x.shape
        assert augment_weak(x[:0], (h, w), rng, scale_min).shape == (0, x.shape[1])


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        samples = generate_overlapping_gaussians(20, 6, 1.0, seed=4, grid_dims=(2, 3))
        splits = split_dataset(samples, 0.5, (0.7, 0.1, 0.2), seed=4, grid=(2, 3))
        path = str(tmp_path / "data.txt")
        save_dataset(splits, path)
        loaded = load_dataset(path)
        assert loaded.grid == (2, 3)
        for name in ("labeled_train", "unlabeled_train", "validation", "test"):
            orig, new = getattr(splits, name), getattr(loaded, name)
            for field in ("ids", "X", "y"):
                np.testing.assert_array_equal(getattr(orig, field), getattr(new, field))
            assert new.X.dtype == np.float64 and new.y.dtype == np.int64

    def test_load_peak_stays_below_twice_the_returned_arrays(self, tmp_path):
        # the bench's analyze-corr shape: 1,000 rows x 308 features; each
        # chunk's rows are filed by split as parsed, so the whole file's
        # features and the per-split arrays are never alive together
        data = generate_multimodal_gaussians(500, (16, 16), 1.0, 1)
        splits = split_dataset(data, 0.5, (0.7, 0.1, 0.2), 1, (16, 16))
        path = str(tmp_path / "d.txt")
        save_dataset(splits, path)
        tracemalloc.start()
        try:
            loaded = load_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        parts = (loaded.labeled_train, loaded.unlabeled_train, loaded.validation, loaded.test)
        returned = sum(a.nbytes for p in parts for a in (p.ids, p.X, p.y, p.hidden))
        assert sum(map(len, parts)) == 1000 and loaded.test.X.shape[1] == 308
        assert peak < 2 * returned, (peak, returned)
        assert splits_digest(loaded) == splits_digest(splits)

    def test_row_line_finds_body_rows_only(self, tmp_path):
        # ids equal to a header's second token: line 1's `v1`, line 2's `4`, line 3's `2`
        path = tmp_path / "d.txt"
        path.write_text("gdp-synth v1\nn_features 4\ngrid 2 2\n"
                        "trainU 4 ? 1 2 3 4\ntrainL v1 0 1 2 3 4\nval 2 1 1 2 3 4\n"
                        "test test 0 1 2 3 4\n")
        load_dataset(str(path))
        assert [row_line(str(path), sid) for sid in ("4", "v1", "2", "test", "grid", "?")] == [
            4, 5, 6, 7, None, None]

    def test_unlabeled_row_loads_label_absent(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text(
            "gdp-synth v1\nn_features 2\n"
            "trainL a 0 1.0 2.0\ntrainU b ? 3.0 4.0\n"
            "val c 1 0.0 0.0\ntest d 0 1.0 1.0\n"
        )
        splits = load_dataset(str(path))
        assert splits.unlabeled_train.y.tolist() == [-1]
        assert splits.unlabeled_train.hidden.tolist() == [-1]

    def test_non_numeric_feature_names_line(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text(
            "gdp-synth v1\nn_features 2\n"
            "trainL a 0 1.0 2.0\ntrainL b 0 oops 4.0\n"
        )
        with pytest.raises(DatasetFormatError, match="line 4"):
            load_dataset(str(path))

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("trainL a 0 1.0\n")
        with pytest.raises(DatasetFormatError, match="line 1"):
            load_dataset(str(path))

    @pytest.mark.parametrize("header, lineno", [
        ("n_features\n", 2),
        ("n_features two\n", 2),
        ("n_features 1\ngrid\n", 3),
        ("n_features 1\ngrid 3\n", 3),
        ("n_features 1\ngrid 3 x\n", 3),
        ("grid 1 2\nn_features 1\n", 2),
        ("n_features 0\n", 2),
        ("n_features 1\ngrid 0 2\n", 3),
        ("n_features 6\ngrid -2 -3\n", 3),
        ("\nn_features 1\n", 2),
        # a repeated header is read as a row, with too few fields
        ("n_features 1\nn_features 1\n", 3),
        ("n_features 1\ngrid 1 1\ngrid 1 1\n", 4),
        ("n_features 1\ngrid 2 2\n", 3),
        # a header integer loads only as save_dataset writes it, str(n)
        ("n_features \u0661\n", 2),
        ("n_features 0_1\n", 2),
        ("n_features +1\n", 2),
        ("n_features 01\n", 2),
        ("n_features 4\ngrid +2 2\n", 3),
        ("n_features 4\ngrid 2 02\n", 3),
    ])
    def test_malformed_header_names_file_and_line(self, tmp_path, header, lineno):
        path = tmp_path / "d.txt"
        path.write_text("gdp-synth v1\n" + header + "test a 0 1.0\n")
        with pytest.raises(DatasetFormatError, match=f"d.txt: line {lineno}:"):
            load_dataset(str(path))

    @pytest.mark.parametrize("rows, message", [
        ("trainL a 0 1.0\ntrainL b 0 nan\n", "line 4: non-finite feature"),
        ("trainL a 0 1.0\ntest b 0 -inf\n", "line 4: non-finite feature"),
        ("trainL a 0 1.0\nval b -1 2.0\n", "line 4: negative label -1"),
        ("trainL a 0 1.0\ntrainU b ? 2.0\ntest a 1 3.0\n",
         "line 5: duplicate id 'a' \\(first on line 3\\)"),
        ("trainU a ? 1.0\nval b 0 2.0\ntest c 1 3.0\n", "no trainL rows"),
        ("trainL a 0 1.0\ntest b 0 2.0\n", "no val rows"),
        ("trainL a 0 1.0\nval b 0 2.0\n", "no test rows"),
        ("trainL a ? 1.0\n", "line 3: trainL samples must be labeled"),
        ("trainL a 0 1.0\n\nval b 0 2.0\n", "line 4: expected 4 fields, got 0"),
        ("trainL a 0 1.0\nval b 0 2.0\ntest c 0 3.0\n\n", "line 6: expected 4 fields, got 0"),
        ("trainL a 0 1.0\ngrid 1 1\n", "line 4: expected 4 fields, got 3"),
        ("trainL a 0 1.0\nn_features 1\n", "line 4: expected 4 fields, got 2"),
        ("bogus a 0 1.0\n", "line 3: unknown split tag 'bogus'"),
        ("trainL a x 1.0\n", "line 3: bad label 'x'"),
        # a label loads only as save_dataset writes it, str(label), within int64
        ("trainL a 0_1 1.0\n", "line 3: bad label '0_1'"),
        ("trainL a 1_0 1.0\n", "line 3: bad label '1_0'"),
        ("trainL a +1 1.0\n", "line 3: bad label '\\+1'"),
        ("trainL a 01 1.0\n", "line 3: bad label '01'"),
        ("trainL a \u0663 1.0\n", "line 3: bad label '\u0663'"),
        ("trainL a 99999999999999999999 1.0\n", "line 3: bad label '99999999999999999999'"),
        ("trainL a 9223372036854775808 1.0\n", "line 3: bad label '9223372036854775808'"),
    ])
    def test_bad_row_names_file_and_line(self, tmp_path, rows, message):
        path = tmp_path / "d.txt"
        path.write_text("gdp-synth v1\nn_features 1\n" + rows)
        with pytest.raises(DatasetFormatError, match=f"d.txt: {message}"):
            load_dataset(str(path))

    def test_largest_int64_label_loads(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("gdp-synth v1\nn_features 1\ntrainL a 9223372036854775807 1.0\n"
                        "val b 0 2.0\ntest c 1 3.0\n")
        assert load_dataset(str(path)).labeled_train.y.tolist() == [2**63 - 1]

    def test_unlabeled_test_row_rejected(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("gdp-synth v1\nn_features 1\ntest a ? 1.0\n")
        with pytest.raises(DatasetFormatError):
            load_dataset(str(path))


_HEAD = "gdp-synth v1\nn_features 2\n"  # body row i is on line i + 3


def _rows(n):
    """Body lines of a valid two-feature file: trainL, val and test rows in turn."""
    return [f"{('trainL', 'val', 'test')[i % 3]} r{i:05d} {i % 2} {i}.5 -{i}.25"
            for i in range(n)]


def _write(tmp_path, rows, head=_HEAD):
    """The file `head` + `rows`; a lone surrogate in the text writes its raw byte."""
    path = tmp_path / "d.txt"
    path.write_text(head + "".join(row + "\n" for row in rows), encoding="utf-8",
                    errors="surrogateescape")
    return str(path)


class TestFeatureTokens:
    """A feature is an ASCII decimal number; Python-only number forms are not."""

    @pytest.mark.parametrize("token", ["1_0", "\u0663", "0x10", "1,5", "1e", "nan(1)"])
    def test_non_numeric_token_names_its_line(self, tmp_path, token):
        rows = _rows(6)
        rows[4] = f"val r00004 0 1.0 {token}"
        with pytest.raises(DatasetFormatError, match="d.txt: line 7: non-numeric feature value$"):
            load_dataset(_write(tmp_path, rows))

    def test_signed_and_bare_point_forms_load(self, tmp_path):
        rows = _rows(6)
        rows[3] = "trainL r00003 1 +2 .5"
        rows[4] = "val r00004 0 -0 1E5"
        splits = load_dataset(_write(tmp_path, rows))
        assert splits.labeled_train.X[1].tolist() == [2.0, 0.5]
        x = splits.validation.X[1]
        assert x.tolist() == [0.0, 1e5] and np.signbit(x[0])

    def test_infinity_is_non_finite(self, tmp_path):
        rows = _rows(6)
        rows[2] = "test r00002 0 1.0 Infinity"
        with pytest.raises(DatasetFormatError, match="d.txt: line 5: non-finite feature value$"):
            load_dataset(_write(tmp_path, rows))

    def test_one_token_rule_matches_the_bulk_reader(self):
        """`_str_float`, which reads one token (a checkpoint value, an INI
        value, a flag), and `_features`, which reads a dataset's features in
        bulk with np.loadtxt, reject the same tokens and read the others to the
        same bits."""
        rng = np.random.default_rng(42)
        big = np.finfo(float).max
        doubles = np.concatenate([
            rng.integers(0, 2**64, 500, dtype=np.uint64).view(np.float64),
            rng.integers(1, 2**52, 50, dtype=np.uint64).view(np.float64),  # subnormals
            rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200),
            [5e-324, -5e-324, 2.2250738585072009e-308, big, -big],
        ])
        tokens = ["1e5", "+2", ".5", "-0", "1.", "inf", "Infinity", "-nan", "1e", "0x10", "1,5",
                  "1d5", "nan(1)", "e5", ".", "+", "1.5.2", "1j", "1_0", "\u0661",
                  *(text for v in doubles.tolist() for text in (repr(v), "%.17g" % v))]
        differ = []
        for token in tokens:
            one, bulk = _str_float(token), _features([token], 1)
            if (None if one is None else np.float64(one).tobytes()) != (
                    None if bulk is None else bulk[0, 0].tobytes()):
                differ.append(f"{token!r}: {one!r} against {bulk!r}")
        assert differ == []


class TestNotUtf8:
    @pytest.mark.parametrize("line, old, new", [
        (2, "n_features 2", "n_features 2\udcff"),
        (1, "gdp-synth v1", "gdp-synth\udcff v1"),
        (5, "r00002", "r\udcff0002"),
        (4, "val r00001 1", "val r00001 \udcff"),
        (6, "-3.25", "-3.2\udcff5"),
    ], ids=["header", "first_header", "id", "label", "feature"])
    def test_byte_that_is_not_utf8_names_its_line(self, tmp_path, line, old, new):
        lines = _HEAD.splitlines() + _rows(6)
        assert old in lines[line - 1]
        lines[line - 1] = lines[line - 1].replace(old, new)  # \udcff writes the byte 0xff
        with pytest.raises(DatasetFormatError, match=f"d.txt: line {line}: not UTF-8 text$"):
            load_dataset(_write(tmp_path, lines, head=""))


# Faults of each kind at body row i, with the message that names them.
_FAULTS = {
    "non_numeric": (lambda i: f"trainL r{i:05d} 0 1.0 oops", "non-numeric feature value"),
    "bad_tag": (lambda i: f"bogus r{i:05d} 0 1.0 2.0", "unknown split tag 'bogus'"),
    "bad_label": (lambda i: f"trainL r{i:05d} x 1.0 2.0", "bad label 'x'"),
    "duplicate_id": (lambda i: "test r00000 1 1.0 2.0",
                     "duplicate id 'r00000' \\(first on line 3\\)"),
    "labeled_unknown": (lambda i: f"val r{i:05d} ? 1.0 2.0", "val samples must be labeled"),
    "nan": (lambda i: f"test r{i:05d} 1 nan 2.0", "non-finite feature value"),
    "not_utf8": (lambda i: f"test r{i:05d}\udcff 1 1.0 2.0", "not UTF-8 text"),
    "short": (lambda i: f"test r{i:05d} 1", "expected 5 fields, got 3"),
}


class TestFirstBadLineWins:
    """Over a file longer than two parse chunks, the first bad line in file
    order is the one named, whatever the kinds of the two faults."""

    @pytest.mark.parametrize("rows_at", [(_CHUNK_ROWS - 1, _CHUNK_ROWS + 3), (4, 9),
                                         (2 * _CHUNK_ROWS + 8, 2 * _CHUNK_ROWS + 9)],
                             ids=["across_chunks", "one_chunk", "last_line"])
    @pytest.mark.parametrize("numeric_first", [True, False])
    @pytest.mark.parametrize("other", [k for k in _FAULTS if k != "non_numeric"])
    def test_earlier_fault_named(self, tmp_path, other, numeric_first, rows_at):
        kinds = ("non_numeric", other) if numeric_first else (other, "non_numeric")
        rows = _rows(2 * _CHUNK_ROWS + 10)
        for kind, i in zip(kinds, rows_at):
            rows[i] = _FAULTS[kind][0](i)
        message = _FAULTS[kinds[0]][1]
        with pytest.raises(DatasetFormatError, match=f"d.txt: line {rows_at[0] + 3}: {message}$"):
            load_dataset(_write(tmp_path, rows))

    @pytest.mark.parametrize("row, message", [
        ("trainL r00004 0 oops 1.0 2.0", "expected 5 fields, got 6"),
        ("trainL r00000 0 oops 2.0", "non-numeric feature value"),
        ("bogus r00004 0 1.0", "expected 5 fields, got 4"),
        ("trainL r00004 x 1.0 2.0 3.0", "expected 5 fields, got 6"),
        ("bogus r00004 x 1.0 2.0", "unknown split tag 'bogus'"),
        ("val r00000 ? nan 1.0", "duplicate id 'r00000' \\(first on line 3\\)"),
        ("val r00004 ? nan 1.0", "val samples must be labeled"),
        ("val r\udcff ? oops", "not UTF-8 text"),
        ("trainL r00004 x oops 1.0", "bad label 'x'"),
        ("bogus r00004 0 oops 1.0", "unknown split tag 'bogus'"),
        ("trainL r00000 x 1.0 2.0", "bad label 'x'"),
        ("val r00004 0 oops nan", "non-numeric feature value"),
    ])
    def test_rules_on_one_line_keep_their_rank(self, tmp_path, row, message):
        rows = _rows(8)
        rows[4] = row
        with pytest.raises(DatasetFormatError, match=f"d.txt: line 7: {message}$"):
            load_dataset(_write(tmp_path, rows))


class TestChunkedReaderMatchesFloat:
    def test_values_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(23)
        n, d = 2 * _CHUNK_ROWS + 3, 5
        x = rng.integers(0, 2**64, size=(n, d), dtype=np.uint64).view(np.float64)
        x[~np.isfinite(x)] = 1.0
        x[:, 1] = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        x[0, :3] = [5e-324, -0.0, 1.7976931348623157e308]
        x[1, :3] = [-5e-324, 0.0, -1.7976931348623157e308]
        y = np.arange(n, dtype=np.int64) % 2
        split = Split(np.array([f"r{i}" for i in range(n)]), x, y, np.full(n, -1))
        parts = [split.take(np.arange(k, n, 4)) for k in range(4)]
        parts[1].y[:] = -1
        source = DatasetSplits(*parts)
        path = str(tmp_path / "d.txt")
        save_dataset(source, path)
        with open(path) as fh:
            body = fh.read().splitlines()[2:]
        # the oracle: float() over each feature token, as the loader read them before
        by_tag = {}
        for line in body:
            tag, _, _, *tokens = line.split()
            by_tag.setdefault(tag, []).append([float(t) for t in tokens])
        loaded = load_dataset(path)
        for tag, part, new in zip(("trainL", "trainU", "val", "test"), parts,
                                  (loaded.labeled_train, loaded.unlabeled_train,
                                   loaded.validation, loaded.test)):
            expected = np.array(by_tag[tag]).view(np.uint64)
            np.testing.assert_array_equal(new.X.view(np.uint64), expected)
            np.testing.assert_array_equal(new.X.view(np.uint64), part.X.view(np.uint64))
        assert splits_digest(loaded) == splits_digest(source)

    @pytest.mark.parametrize("n_rows", [_CHUNK_ROWS, 2 * _CHUNK_ROWS, 2 * _CHUNK_ROWS + 1])
    def test_chunk_boundaries_load_every_row(self, tmp_path, n_rows):
        splits = load_dataset(_write(tmp_path, _rows(n_rows)))
        loaded = np.concatenate([splits.labeled_train.X, splits.validation.X, splits.test.X])
        assert sorted(loaded[:, 0].tolist()) == [i + 0.5 for i in range(n_rows)]

    def test_interleaved_tags_keep_file_order_per_split(self, tmp_path):
        tags = ("trainL", "trainU", "val", "test")
        rng = np.random.default_rng(29)
        n = 2 * _CHUNK_ROWS + 37  # three parse chunks
        line_tags = [tags[k] for k in rng.integers(0, 4, n)]
        assert all(len(set(line_tags[k : k + _CHUNK_ROWS])) == 4 for k in range(0, n, _CHUNK_ROWS))
        ids = [f"r{k:05d}" for k in rng.permutation(n)]  # file order is not id order
        x = rng.standard_normal((n, 2))
        y = np.where(np.array(line_tags) == "trainU", -1, rng.integers(0, 2, n))
        rows = [f"{tag} {sid} {'?' if label < 0 else label} {a!r} {b!r}"
                for tag, sid, label, (a, b) in zip(line_tags, ids, y.tolist(), x.tolist())]
        loaded = load_dataset(_write(tmp_path, rows))
        # each split as its rows stand in the file, in file order
        whole = Split(np.array(ids), x, y, np.full(n, -1))
        source = DatasetSplits(*(whole.take([i for i in range(n) if line_tags[i] == tag])
                                 for tag in tags))
        for part, new in zip((source.labeled_train, source.unlabeled_train,
                              source.validation, source.test),
                             (loaded.labeled_train, loaded.unlabeled_train,
                              loaded.validation, loaded.test)):
            assert new.ids.tolist() == part.ids.tolist()
        assert splits_digest(loaded) == splits_digest(source)

    def test_body_without_rows_never_reaches_the_parser(self, tmp_path):
        # np.loadtxt warns on empty input, and the test settings make that an error
        with pytest.raises(DatasetFormatError, match="d.txt: no trainL rows$"):
            load_dataset(_write(tmp_path, []))


def _space_in_id(s):
    s.test.ids = s.test.ids.astype("<U8")
    s.test.ids[2] = "s 1"


def _id_in_two_splits(s):
    s.validation.ids[1] = s.labeled_train.ids[3]


def _unlabeled_row_in_labeled_split(s):
    s.labeled_train.y[0] = -1


def _nan_feature(s):
    s.unlabeled_train.X[4, 2] = np.nan


def _empty_validation(s):
    s.validation = s.validation.take([])


def _grid_beyond_features(s):
    s.grid = (3, 3)


def _test_split_narrower(s):
    s.test.X = s.test.X[:, :5]


def _no_features(s):
    s.grid = None
    for part in (s.labeled_train, s.unlabeled_train, s.validation, s.test):
        part.X = part.X[:, :0]


def _surrogate_in_id(s):
    s.test.ids = s.test.ids.astype("<U8")
    s.test.ids[2] = "s\udcff"


def _high_surrogate_in_id(s):
    s.test.ids = s.test.ids.astype("<U8")
    s.test.ids[2] = "s\ud800"  # outside surrogateescape's U+DC80-U+DCFF


def _float_grid(s):
    s.grid = (2.0, 3.0)


_PARTS = ("labeled_train", "unlabeled_train", "validation", "test")
_ODD_IDS = ["s 1", "s\r1", "s\x851", "s\u20281", "", "s\udcff", "s\ud800", "é-ü_1,?", "?"]
_EDGE_FEATURES = [np.nan, np.inf, -np.inf, -0.0, 5e-324, np.finfo(float).max]
_EDGE_GRIDS = [None, (0, 2), (2, 0), (3, 2), (2.0, 2.0), (True, 2), (2, False),
               (np.int64(2), np.int64(2)), (np.int64(1), np.int64(3))]


def _row_of(s, rng):
    """A random (split, row index) among the non-empty splits of `s`."""
    parts = [getattr(s, name) for name in _PARTS if len(getattr(s, name))]
    part = parts[rng.integers(len(parts))]
    return part, rng.integers(len(part))


def _odd_id(s, rng):
    part, i = _row_of(s, rng)
    part.ids = part.ids.astype("<U8")
    part.ids[i] = _ODD_IDS[rng.integers(len(_ODD_IDS))]


def _shared_id(s, rng):
    (a, i), (b, j) = _row_of(s, rng), _row_of(s, rng)
    b.ids[j] = a.ids[i]


def _unlabeled(s, rng):
    part, i = _row_of(s, rng)
    part.y[i] = -1


def _edge_feature(s, rng):
    part, i = _row_of(s, rng)
    part.X[i, rng.integers(part.X.shape[1])] = _EDGE_FEATURES[rng.integers(len(_EDGE_FEATURES))]


def _width(s, rng):
    if rng.random() < 0.25:
        _no_features(s)
        return
    part = getattr(s, _PARTS[rng.integers(4)])
    part.X = part.X[:, :-1] if rng.random() < 0.5 else np.hstack([part.X, part.X[:, :1]])


def _edge_grid(s, rng):
    s.grid = _EDGE_GRIDS[rng.integers(len(_EDGE_GRIDS))]


def _empty_split(s, rng):
    name = _PARTS[rng.integers(4)]
    setattr(s, name, getattr(s, name).take([]))


_EDITS = (_odd_id, _shared_id, _unlabeled, _edge_feature, _width, _edge_grid, _empty_split)


class TestSaveDatasetRules:
    """save_dataset writes only files that load_dataset accepts."""

    @staticmethod
    def splits(grid=(2, 3)):
        samples = generate_overlapping_gaussians(20, 6, 1.0, seed=4, grid_dims=(2, 3))
        return split_dataset(samples, 0.5, (0.7, 0.1, 0.2), seed=4, grid=grid)

    # {path} stands for the path being saved to
    @pytest.mark.parametrize("edit, message", [
        (_space_in_id, "cannot save {path}: line 38: id 's 1' is empty or holds whitespace"),
        (_id_in_two_splits, "cannot save {path}: line 33: duplicate id 's00039' "
                            "\\(first on line 7\\)"),
        (_unlabeled_row_in_labeled_split,
         "cannot save {path}: line 4: trainL samples must be labeled"),
        (_nan_feature, "cannot save {path}: line 22: non-finite feature value"),
        (_empty_validation, "cannot save {path}: no val rows"),
        (_grid_beyond_features, "cannot save {path}: line 3: grid 3x3 exceeds 6 features"),
        (_no_features, "cannot save {path}: line 2: expected 'n_features' and 1 positive "
                       "integer\\(s\\)"),
        (_test_split_narrower, "cannot save {path}: line 36: expected 9 fields, got 8"),
        (_surrogate_in_id, "cannot save {path}: line 38: not UTF-8 text"),
        (_float_grid, "cannot save {path}: line 3: expected 'grid' and 2 positive "
                      "integer\\(s\\)"),
        (_high_surrogate_in_id, "cannot save {path}: line 38: not UTF-8 text"),
    ], ids=["space_in_id", "id_in_two_splits", "unlabeled_row_in_labeled_split",
            "nan_feature", "empty_validation", "grid_beyond_features", "no_features",
            "test_split_narrower", "surrogate_in_id", "float_grid", "high_surrogate_in_id"])
    def test_rejected_before_writing(self, tmp_path, edit, message):
        splits = self.splits()
        edit(splits)
        path = tmp_path / "d.txt"
        with pytest.raises(ValueError, match=f"^{message.format(path=re.escape(str(path)))}$"):
            save_dataset(splits, str(path))
        assert not path.exists()

    def test_refused_save_leaves_an_existing_file_as_it_was(self, tmp_path):
        path = tmp_path / "d.txt"
        save_dataset(self.splits(), str(path))
        before = path.read_bytes()
        for edit in (_space_in_id, _nan_feature, _surrogate_in_id, _float_grid):
            splits = self.splits()
            edit(splits)
            with pytest.raises(ValueError, match="^cannot save "):
                save_dataset(splits, str(path))
            assert path.read_bytes() == before

    @pytest.mark.parametrize("grid", [(2, 3), None])
    def test_accepted_edge_splits_load_back_with_the_same_digest(self, tmp_path, grid):
        # no unlabeled rows, a labeled trainU row, ids of any non-space
        # characters, and the float edge values -0, the smallest subnormal
        # and the largest finite double
        splits = self.splits(grid)
        for edge in (replace(splits, unlabeled_train=splits.unlabeled_train.take([])),
                     splits):
            edge.test.ids = edge.test.ids.astype("<U8")
            edge.test.ids[0] = "é-ü_1,?"
            edge.validation.X[0, :3] = [-0.0, 5e-324, -np.finfo(float).max]
            path = str(tmp_path / "d.txt")
            save_dataset(edge, path)
            assert splits_digest(load_dataset(path)) == splits_digest(edge)
        splits.unlabeled_train.y[0] = 1
        save_dataset(splits, path)
        loaded = load_dataset(path)
        assert loaded.unlabeled_train.y[0] == 1
        assert splits_digest(loaded) == splits_digest(splits)

    def test_save_holds_at_most_four_times_the_file_size(self, tmp_path):
        data = generate_multimodal_gaussians(50, (16, 16), 1.0, 1)
        splits = split_dataset(data, 0.5, (0.7, 0.1, 0.2), 1, (16, 16))
        path = tmp_path / "d.txt"
        tracemalloc.start()
        try:
            save_dataset(splits, str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * path.stat().st_size, (peak, path.stat().st_size)

    @pytest.mark.parametrize("grid", [(2, 3), None])
    @pytest.mark.parametrize("ending", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_other_line_endings_load_with_the_same_digest(self, tmp_path, grid, ending):
        splits = self.splits(grid)
        path = tmp_path / "d.txt"
        save_dataset(splits, str(path))
        path.write_bytes(path.read_bytes().replace(b"\n", ending))
        assert splits_digest(load_dataset(str(path))) == splits_digest(splits)

    def test_each_edit_round_trips_or_is_refused_leaving_no_file(self, tmp_path):
        # 200 seeded splits sets of 16 rows, each with one or two edits drawn
        # from the edge cases of ids, labels, features, widths, grids and
        # empty splits
        outcomes = {"refused": 0, "round trip": 0}
        for seed in range(200):
            rng = np.random.default_rng(seed)
            data = generate_overlapping_gaussians(8, 4, 1.0, seed=seed, grid_dims=(2, 2))
            splits = split_dataset(data, 0.5, (0.5, 0.25, 0.25), seed=seed, grid=(2, 2))
            for _ in range(rng.integers(1, 3)):
                _EDITS[rng.integers(len(_EDITS))](splits, rng)
            path = tmp_path / f"d{seed}.txt"
            try:
                save_dataset(splits, str(path))
            except ValueError as exc:
                assert str(exc).startswith("cannot save "), exc
                assert not path.exists(), f"seed {seed}: {exc}"
                outcomes["refused"] += 1
                continue
            assert splits_digest(load_dataset(str(path))) == splits_digest(splits), seed
            outcomes["round trip"] += 1
        assert min(outcomes.values()) >= 20, outcomes  # neither side is vacuous


class TestSplitsDigest:
    @staticmethod
    def splits(grid=(2, 3)):
        samples = generate_overlapping_gaussians(20, 6, 1.0, seed=4, grid_dims=(2, 3))
        return split_dataset(samples, 0.5, (0.7, 0.1, 0.2), seed=4, grid=grid)

    @pytest.mark.parametrize("grid", [(2, 3), None])
    def test_loaded_file_digests_as_its_source(self, tmp_path, grid):
        splits = self.splits(grid)
        path = str(tmp_path / "d.txt")
        save_dataset(splits, path)
        assert splits_digest(load_dataset(path)) == splits_digest(splits)

    def test_hidden_labels_and_id_width_left_out(self):
        splits = self.splits()
        before = splits_digest(splits)
        unlabeled = splits.unlabeled_train
        permuted = unlabeled.hidden[::-1].copy()
        assert (permuted != unlabeled.hidden).any()
        unlabeled.hidden = permuted
        splits.test.ids = splits.test.ids.astype("<U20")
        assert splits_digest(splits) == before

    def test_each_trained_value_changes_it(self):
        before = splits_digest(self.splits())
        edited = [replace(self.splits(), grid=(3, 2)), replace(self.splits(), grid=None)]
        s = self.splits()
        s.test.ids[0] = "x"
        edited.append(s)
        s = self.splits()
        s.validation.y[0] = 1 - s.validation.y[0]
        edited.append(s)
        s = self.splits()
        x = s.unlabeled_train.X
        x[0, 5] = np.nextafter(x[0, 5], np.inf)
        edited.append(s)
        digests = [splits_digest(s) for s in edited]
        assert before not in digests and len(set(digests)) == len(digests)


# A small valid file on which `run` exits 0, one token list per line
_MUTATION_BASE = [
    [b"gdp-synth", b"v1"], [b"n_features", b"2"], [b"grid", b"1", b"2"],
    [b"trainL", b"a", b"0", b"0.5", b"-1.5"], [b"trainL", b"b", b"1", b"1.5", b"2"],
    [b"trainU", b"c", b"?", b"1", b"0.25"], [b"val", b"d", b"0", b"-0.5", b"1"],
    [b"val", b"e", b"1", b"2", b"0"], [b"test", b"f", b"0", b"0", b"-1"],
    [b"test", b"g", b"1", b"1.25", b"1"],
]
_MUTANT_TOKENS = [b"", b"nan", b"1e999", b"-1", b"?", b"1" * 20, b"\xff"]


def _mutants(kind):
    """(name, file bytes) of each mutant of _MUTATION_BASE of one kind: a token
    replaced by one of _MUTANT_TOKENS, a line deleted or a line duplicated."""
    lines = [b" ".join(tokens) for tokens in _MUTATION_BASE]
    for i, tokens in enumerate(_MUTATION_BASE):
        if kind == "delete":
            yield f"line {i + 1} deleted", lines[:i] + lines[i + 1:]
        elif kind == "duplicate":
            yield f"line {i + 1} doubled", lines[:i + 1] + lines[i:]
        else:
            for j in range(len(tokens)):
                mutant = b" ".join(tokens[:j] + [kind] + tokens[j + 1:])
                yield f"line {i + 1} token {j + 1}", lines[:i] + [mutant] + lines[i + 1:]


def _reference_number(token: str) -> float | None:
    """`float(token)` for an ASCII token without `_`, else None: the feature
    numbers that the format accepts, as far as the mutations below reach."""
    try:
        return float(token) if token.isascii() and "_" not in token else None
    except ValueError:
        return None


def _reference_problem(line: bytes, seen: dict[str, int]) -> str | None:
    """The first rule of the README's rank list that the two-feature body line
    `line` breaks, or None; `seen` maps each id on an earlier good line to it."""
    try:
        fields = line.decode().split()
    except UnicodeDecodeError:
        return "not UTF-8 text"
    if len(fields) != 5:
        return f"expected 5 fields, got {len(fields)}"
    tag, sid, label, *values = fields
    if tag not in ("trainL", "trainU", "val", "test"):
        return f"unknown split tag {tag!r}"
    if label != "?" and re.fullmatch("-[1-9][0-9]*", label):
        return f"negative label {label}"
    if label != "?" and not (re.fullmatch("0|[1-9][0-9]*", label) and int(label) < 2**63):
        return f"bad label {label!r}"
    values = [_reference_number(v) for v in values]
    if None in values:
        return "non-numeric feature value"
    if sid in seen:
        return f"duplicate id {sid!r} (first on line {seen[sid]})"
    if label == "?" and tag != "trainU":
        return f"{tag} samples must be labeled"
    if not all(map(math.isfinite, values)):
        return "non-finite feature value"
    return None


def _reference_error(path: str, body: list[bytes]) -> str | None:
    """The DatasetFormatError message for a file whose three header lines are
    good and whose body lines, from line 4, are `body`; None if it loads."""
    seen, tags = {}, set()
    for lineno, line in enumerate(body, start=4):
        problem = _reference_problem(line, seen)
        if problem:
            return f"{path}: line {lineno}: {problem}"
        seen[line.split()[1].decode()] = lineno
        tags.add(line.split()[0].decode())
    missing = [tag for tag in ("trainL", "val", "test") if tag not in tags]
    return f"{path}: no {missing[0]} rows" if missing else None


class TestLoaderMutations:
    """Every one-token, one-line mutation of a valid file loads, or is rejected
    with an error naming the file and a line (or, for a whole-file rule, the
    split it lacks); `run` on one that loads exits 0, or 3 naming the file."""

    def test_base_file_runs(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_bytes(b"".join(b" ".join(t) + b"\n" for t in _MUTATION_BASE))
        assert self.run(path, tmp_path / "o") == 0

    @staticmethod
    def run(path, out):
        return main(["run", "--dataset", str(path), "--seeds", "1", "--epochs", "1",
                     "--warmup-steps", "1", "--hidden-dims", "2", "--beta", "1",
                     "--output-dir", str(out)])

    @pytest.mark.parametrize("kind", [*_MUTANT_TOKENS, "delete", "duplicate"],
                             ids=["empty", "nan", "1e999", "-1", "?", "20-digit",
                                  "not-utf8", "delete", "duplicate"])
    def test_each_mutant_loads_or_names_file_and_line(self, tmp_path, capsys, kind):
        bad = []
        for n, (name, lines) in enumerate(_mutants(kind)):
            path = tmp_path / f"m{n}.txt"
            path.write_bytes(b"".join(line + b"\n" for line in lines))
            try:
                load_dataset(str(path))
            except DatasetFormatError as exc:
                named = re.escape(str(path)) + r": (line \d+: |no (trainL|val|test) rows$)"
                if not re.match(named, str(exc)):
                    bad.append(f"{name}: {exc}")
                continue
            capsys.readouterr()
            rc = self.run(path, tmp_path / f"o{n}")
            err = capsys.readouterr().err
            if rc not in (0, 3) or (rc == 3 and str(path) not in err):
                bad.append(f"{name}: run exited {rc}: {err}")
        assert bad == []

    @pytest.mark.parametrize("kind", [*_MUTANT_TOKENS, "delete", "duplicate"],
                             ids=["empty", "nan", "1e999", "-1", "?", "20-digit",
                                  "not-utf8", "delete", "duplicate"])
    def test_each_body_mutant_names_the_rule_of_the_reference(self, tmp_path, kind):
        """A mutant of a body line (lines 4 to 10) loads, or names the line and
        the rule that `_reference_error` gives: the right line with the wrong
        rule fails too."""
        wrong = []
        for n, (name, lines) in enumerate(_mutants(kind)):
            if int(name.split()[1]) < 4:
                continue  # a header line
            path = tmp_path / f"m{n}.txt"
            path.write_bytes(b"".join(line + b"\n" for line in lines))
            try:
                load_dataset(str(path))
                got = None
            except DatasetFormatError as exc:
                got = str(exc)
            expected = _reference_error(str(path), lines[3:])
            if got != expected:
                wrong.append(f"{name}: {got!r}, expected {expected!r}")
        assert wrong == []
