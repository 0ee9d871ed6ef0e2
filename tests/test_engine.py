import math
from dataclasses import replace

import numpy as np
import pytest

from pseudosup import engine
from pseudosup.data import (
    DatasetSplits,
    Split,
    augment_weak,
    generate_overlapping_gaussians,
    split_dataset,
)
from pseudosup.engine import (
    ConfigError,
    EngineConfig,
    RowError,
    Trajectory,
    TrajectoryStep,
    _policy_loss_grads,
    _step_batch,
    _step_blocks,
    check_splits,
    compute_reward,
    discounted_return,
    eval_val_loss,
    evaluate,
    policy_update,
    sample_pseudo_labels,
    train,
    train_self_training,
    train_supervised_only,
    warmup_supervised,
)
from pseudosup.nn_core import (
    AdamW,
    MlpModel,
    NonFiniteError,
    clone_model,
    init_mlp,
    log_softmax,
    mlp_forward,
    mlp_backward,
    save_model,
    softmax_cross_entropy,
)


def make_splits(n_per_class=60, dim=4, sep=1.0, seed=0, label_fraction=0.5):
    samples = generate_overlapping_gaussians(n_per_class, dim, sep, seed)
    return split_dataset(samples, label_fraction, (0.7, 0.1, 0.2), seed)


def fast_cfg(**overrides):
    base = dict(epochs=2, warmup_steps=10, classifier_lr=1e-2, policy_lr=1e-2,
                beta=5, batch_labeled=16, batch_unlabeled=16, batch_val=16,
                hidden_dims=(8,), seed=1)
    base.update(overrides)
    return EngineConfig(**base)


class TestReward:
    def test_equal_losses(self):
        assert compute_reward(0.7, 0.7) == 0.0

    def test_clamp_when_loss_worsens(self):
        assert compute_reward(0.5, 0.9) == 0.0

    def test_ln2_improvement_gives_one(self):
        assert compute_reward(math.log(2) + 0.1, 0.1) == pytest.approx(1.0, abs=1e-15)

    def test_positive_branch_formula(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            before = float(rng.uniform(0, 3))
            after = float(rng.uniform(0, 3))
            r = compute_reward(before, after)
            assert r >= 0.0
            if before > after:
                assert r == pytest.approx(math.exp(before - after) - 1.0, abs=1e-15)

    def test_monotone_in_improvement(self):
        assert compute_reward(1.0, 0.2) > compute_reward(1.0, 0.5)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            compute_reward(float("nan"), 0.5)
        with pytest.raises(ValueError):
            compute_reward(0.5, float("inf"))

    def test_overflowing_reward_names_both_losses(self):
        # exp overflows a float once the gain exceeds about 709.78
        assert compute_reward(709.0, 0.0) == pytest.approx(math.exp(709.0) - 1.0)
        with pytest.raises(NonFiniteError,
                           match="^reward overflows: loss_before 800.0, loss_after 0.0$"):
            compute_reward(800.0, 0.0)


class TestDiscountedReturn:
    def test_gamma_zero_is_immediate_reward(self):
        assert discounted_return([3.0, 2.0, 1.0], 0.0, 1) == 2.0

    def test_three_ones(self):
        assert discounted_return([1.0, 1.0, 1.0], 0.9, 0) == pytest.approx(2.71)

    def test_gamma_one_is_suffix_sum(self):
        rewards = [0.5, 1.5, 2.0, 0.25]
        assert discounted_return(rewards, 1.0, 1) == pytest.approx(sum(rewards[1:]),
                                                                   abs=1e-12)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(1, 12))
            rewards = rng.uniform(0, 2, size=n)
            gamma = float(rng.choice([0.0, 1.0, rng.uniform()]))
            t = int(rng.integers(0, n))
            expected = sum(gamma**k * rewards[t + k] for k in range(n - t))
            assert discounted_return(rewards, gamma, t) == pytest.approx(expected,
                                                                         abs=1e-12)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            discounted_return([1.0], 0.9, 1)

    @pytest.mark.parametrize("gamma", [-0.1, 1.5, math.nan])
    def test_gamma_out_of_range(self, gamma):
        with pytest.raises(ValueError, match=r"^gamma must be in \[0, 1\]$"):
            discounted_return([1.0, 2.0], gamma, 0)


class TestSamplePseudoLabels:
    def test_near_deterministic_distribution(self):
        model = MlpModel([1, 2], np.array([0.0, 0.0, 20.0, -20.0]))
        rng = np.random.default_rng(3)
        batch = np.zeros((10000, 1))
        actions, _ = sample_pseudo_labels(model, batch, rng)
        assert np.mean(actions == 0) > 0.999

    def test_uniform_logits_fair_coin(self):
        model = MlpModel([1, 2], np.zeros(4))
        rng = np.random.default_rng(4)
        actions, _ = sample_pseudo_labels(model, np.zeros((10000, 1)), rng)
        assert np.mean(actions == 0) == pytest.approx(0.5, abs=0.02)

    def test_log_probs_match_recomputation(self):
        rng = np.random.default_rng(5)
        model = init_mlp([3, 6, 2], rng)
        batch = rng.normal(size=(20, 3))
        actions, log_probs = sample_pseudo_labels(model, batch, rng)
        logits, _ = mlp_forward(model, batch)
        logp = log_softmax(logits)
        for i, (a, lp) in enumerate(zip(actions, log_probs)):
            assert lp == pytest.approx(logp[i, a], abs=1e-12)
        assert np.all(log_probs <= 0.0)

    def test_empty_batch_rejected(self):
        model = init_mlp([3, 2], np.random.default_rng(0))
        with pytest.raises(ValueError):
            sample_pseudo_labels(model, np.zeros((0, 3)), np.random.default_rng(0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_policy_raises(self):
        model = MlpModel([1, 2], np.array([1e308, -1e308, 0.0, 0.0]))
        with pytest.raises(NonFiniteError, match="policy log-probabilities are non-finite"):
            sample_pseudo_labels(model, np.array([[10.0]]), np.random.default_rng(0))


class TestEvalValLoss:
    def test_zero_parameter_classifier_gives_ln2(self):
        model = MlpModel([2, 2], np.zeros(6))
        loss = eval_val_loss(model, np.ones((4, 2)), np.array([0, 1, 0, 1]))
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(6)
        model = init_mlp([3, 4, 2], rng)
        x = rng.normal(size=(5, 3))
        y = rng.integers(0, 2, 5)
        logits, _ = mlp_forward(model, x)
        expected, _ = softmax_cross_entropy(logits, y)
        assert eval_val_loss(model, x, y) == expected

    def test_no_parameter_mutation(self):
        rng = np.random.default_rng(7)
        model = init_mlp([3, 4, 2], rng)
        before = [p.copy() for p in model.parameters()]
        eval_val_loss(model, rng.normal(size=(5, 3)), rng.integers(0, 2, 5))
        for a, b in zip(before, model.parameters()):
            np.testing.assert_array_equal(a, b)

    def test_empty_batch_rejected(self):
        model = init_mlp([3, 2], np.random.default_rng(0))
        with pytest.raises(ValueError):
            eval_val_loss(model, np.zeros((0, 3)), np.zeros(0, dtype=int))


class TestClassifierStep:
    def test_zero_weight_equals_labeled_only_step(self):
        rng = np.random.default_rng(8)
        lr = fast_cfg().classifier_lr
        a = init_mlp([3, 4, 2], np.random.default_rng(9))
        b = clone_model(a)
        xl = rng.normal(size=(4, 3))
        yl = rng.integers(0, 2, 4)
        xu = rng.normal(size=(4, 3))
        yu = rng.integers(0, 2, 4)
        x, y, weights = _step_batch(xl, yl, xu, yu, 0.0)
        assert weights is None
        engine.classifier_step(*mlp_forward(a, x), y, AdamW(a.flat, lr), weights)
        engine.classifier_step(*mlp_forward(b, xl), yl, AdamW(b.flat, lr))
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa, pb)

    def test_step_blocks_of_a_stack(self):
        # the stack [l_1; u_1; l_2; u_2] of steps with 2 and 3 labeled rows
        # and 4 pseudo-labeled rows each
        (r1, w1), (r2, w2) = _step_blocks([2, 3], 4, 0.5)
        assert (r1, r2) == (slice(0, 6), slice(6, 13))
        assert w1.tolist() == [0.5] * 2 + [0.125] * 4
        assert w2.tolist() == [1 / 3] * 3 + [0.125] * 4
        assert _step_blocks([2, 3], 4, 0.0) == [(slice(0, 2), None), (slice(6, 9), None)]

    def test_one_pass_matches_two_pass_reference(self):
        rng = np.random.default_rng(15)
        cfg = fast_cfg(pseudo_loss_weight=0.7)
        a = init_mlp([3, 6, 4, 2], rng)
        b = clone_model(a)
        opt_a = AdamW(a.flat, cfg.classifier_lr)
        opt_b = AdamW(b.flat, cfg.classifier_lr)
        for _ in range(5):
            xl, yl = rng.normal(size=(6, 3)), rng.integers(0, 2, 6)
            xu, yu = rng.normal(size=(9, 3)), rng.integers(0, 2, 9)
            x, y, weights = _step_batch(xl, yl, xu, yu, 0.7)
            engine.classifier_step(*mlp_forward(a, x), y, opt_a, weights)
            # reference: one forward/backward per batch, gradients summed
            parts = []
            for x, y in ((xl, yl), (xu, yu)):
                logits, cache = mlp_forward(b, x)
                _, g = softmax_cross_entropy(logits, y)
                parts.append(mlp_backward(cache, g))
            opt_b.step(parts[0] + 0.7 * parts[1])
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_allclose(pa, pb, rtol=0, atol=1e-12)

    def test_zero_learning_rate_leaves_params(self):
        rng = np.random.default_rng(10)
        model = init_mlp([3, 4, 2], rng)
        before = [p.copy() for p in model.parameters()]
        engine.classifier_step(*mlp_forward(model, rng.normal(size=(4, 3))),
                               rng.integers(0, 2, 4), AdamW(model.flat, 0.0))
        for a, b in zip(before, model.parameters()):
            np.testing.assert_array_equal(a, b)

    def test_combined_gradient_is_sum_of_parts(self):
        rng = np.random.default_rng(11)
        model = init_mlp([3, 4, 2], rng)
        xl, yl = rng.normal(size=(4, 3)), rng.integers(0, 2, 4)
        xu, yu = rng.normal(size=(5, 3)), rng.integers(0, 2, 5)

        def grads_for(x, y):
            logits, cache = mlp_forward(model, x)
            _, g = softmax_cross_entropy(logits, y)
            return mlp_backward(cache, g)

        gl = grads_for(xl, yl)
        gu = grads_for(xu, yu)
        captured = []

        class SpyOpt:
            def step(self, grad):
                captured.append(grad)

        x, y, weights = _step_batch(xl, yl, xu, yu, 0.7)
        engine.classifier_step(*mlp_forward(model, x), y, SpyOpt(), weights)
        np.testing.assert_allclose(captured[0], gl + 0.7 * gu, atol=1e-12)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_steps_on_the_leading_rows_of_a_forward(self, weighted):
        # a forward over [x; extra] with len(y) == len(x) steps as one over x
        # alone; 8-row blocks keep OpenBLAS's bits equal
        rng = np.random.default_rng(16)
        a = init_mlp([3, 6, 2], rng)
        b, before = clone_model(a), a.flat.copy()
        x, extra, y = rng.normal(size=(8, 3)), rng.normal(size=(8, 3)), rng.integers(0, 2, 8)
        weights = rng.uniform(size=8) if weighted else None
        engine.classifier_step(*mlp_forward(a, np.concatenate([x, extra])), y,
                               AdamW(a.flat, 1e-2), weights)
        engine.classifier_step(*mlp_forward(b, x), y, AdamW(b.flat, 1e-2), weights)
        assert not np.array_equal(a.flat, before)
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa, pb)

    def test_empty_batch_rejected(self):
        model = init_mlp([3, 2], np.random.default_rng(0))
        with pytest.raises(ValueError, match="^classifier step needs a non-empty batch$"):
            engine.classifier_step(*mlp_forward(model, np.zeros((0, 3))),
                                   np.zeros(0, dtype=int), AdamW(model.flat, 0.1))


class TestPolicyUpdate:
    @staticmethod
    def single_step_trajectory(policy, rng, reward=1.0, batch=1):
        states = rng.normal(size=(batch, policy.layer_dims[0]))
        actions, log_probs = sample_pseudo_labels(policy, states, rng)
        traj = Trajectory(5)
        traj.append(TrajectoryStep(states, actions, log_probs, reward))
        return traj, states, actions

    def test_zero_rewards_leave_policy_unchanged(self):
        rng = np.random.default_rng(12)
        policy = init_mlp([3, 4, 2], rng)
        cfg = fast_cfg()
        traj, _, _ = self.single_step_trajectory(policy, rng, reward=0.0)
        before = [p.copy() for p in policy.parameters()]
        policy_update(policy, traj, cfg)
        for a, b in zip(before, policy.parameters()):
            np.testing.assert_array_equal(a, b)

    def test_positive_reward_increases_log_prob(self):
        cfg = fast_cfg(policy_lr=1e-3)
        for trial in range(100):
            rng = np.random.default_rng(1000 + trial)
            policy = init_mlp([3, 4, 2], rng)
            traj, states, actions = self.single_step_trajectory(policy, rng)
            logits, _ = mlp_forward(policy, states)
            before = log_softmax(logits)[0, actions[0]]
            policy_update(policy, traj, cfg)
            logits, _ = mlp_forward(policy, states)
            after = log_softmax(logits)[0, actions[0]]
            assert after > before

    def test_surrogate_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        policy = init_mlp([2, 3, 2], rng)
        cfg = fast_cfg()
        traj = Trajectory(4)
        for _ in range(3):
            states = rng.normal(size=(4, 2))
            actions, log_probs = sample_pseudo_labels(policy, states, rng)
            traj.append(TrajectoryStep(states, actions, log_probs,
                                       float(rng.uniform(0, 2))))

        def surrogate():
            rewards = [s.reward for s in traj.steps]
            total = 0.0
            for t, step in enumerate(traj.steps):
                g_t = discounted_return(rewards, cfg.gamma, t)
                logits, _ = mlp_forward(policy, step.states)
                logp = log_softmax(logits)
                total += g_t * logp[np.arange(len(step.actions)), step.actions].mean()
            return total

        _, grad = _policy_loss_grads(policy, traj, cfg.gamma)
        step = 1e-5
        for p, a in zip(policy.parameters(), policy.views(-grad)):
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = p[idx]
                p[idx] = orig + step
                hi = surrogate()
                p[idx] = orig - step
                lo = surrogate()
                p[idx] = orig
                numeric = (hi - lo) / (2 * step)
                denom = max(abs(numeric), 1e-8)
                assert abs(a[idx] - numeric) / denom < 1e-4

    def test_one_pass_matches_per_step_loop(self):
        rng = np.random.default_rng(16)
        policy = init_mlp([3, 6, 2], rng)
        for gamma in (0.0, 0.9, 1.0):
            traj = Trajectory(6)
            for size in (4, 4, 3, 4, 1, 4):
                states = rng.normal(size=(size, 3))
                actions, log_probs = sample_pseudo_labels(policy, states, rng)
                traj.append(TrajectoryStep(states, actions, log_probs,
                                           float(rng.uniform(0, 2))))
            # reference: one forward/backward per step, weighted by its return
            rewards = [s.reward for s in traj.steps]
            ref_j = 0.0
            ref_grad = np.zeros_like(policy.flat)
            for t, step in enumerate(traj.steps):
                g_t = discounted_return(rewards, gamma, t)
                logits, cache = mlp_forward(policy, step.states)
                logp = log_softmax(logits)
                n = len(step.actions)
                ref_j += g_t * logp[np.arange(n), step.actions].mean()
                dlogits = -np.exp(logp)
                dlogits[np.arange(n), step.actions] += 1.0
                ref_grad += mlp_backward(cache, dlogits * g_t / n)
            loss, grad = _policy_loss_grads(policy, traj, gamma)
            assert -loss == pytest.approx(ref_j, rel=0, abs=1e-12)
            np.testing.assert_allclose(-grad, ref_grad, rtol=0, atol=1e-12)

    def test_trajectory_cleared_after_update(self):
        rng = np.random.default_rng(14)
        policy = init_mlp([3, 4, 2], rng)
        traj, _, _ = self.single_step_trajectory(policy, rng)
        policy_update(policy, traj, fast_cfg())
        assert len(traj) == 0

    def test_empty_trajectory_rejected(self):
        policy = init_mlp([3, 2], np.random.default_rng(0))
        with pytest.raises(ValueError):
            policy_update(policy, Trajectory(3), fast_cfg())


class TestTrajectoryDiscipline:
    def test_append_beyond_window_rejected(self):
        traj = Trajectory(1)
        step = TrajectoryStep(np.zeros((1, 2)), np.zeros(1, dtype=int),
                              np.zeros(1), 0.0)
        traj.append(step)
        with pytest.raises(ValueError):
            traj.append(step)

    def test_update_count_is_floor_of_steps_over_beta(self):
        splits = make_splits()
        cfg = fast_cfg(beta=7, epochs=3)
        result = train(splits, cfg)
        total_steps = len(result.history.epoch)
        updates = sum(result.history.policy_update)
        assert updates == total_steps // cfg.beta


def warmup_args(model, cfg):
    """The seeded generator and AdamW that `_warm_classifier` passes."""
    return (np.random.default_rng([cfg.seed, 1]),
            AdamW(model.flat, cfg.classifier_lr, weight_decay=cfg.weight_decay))


class TestWarmup:
    def test_zero_steps_unchanged(self):
        splits = make_splits()
        cfg = fast_cfg(warmup_steps=0)
        model = init_mlp([4, 8, 2], np.random.default_rng(0))
        before = [p.copy() for p in model.parameters()]
        warmup_supervised(model, splits.labeled_train, cfg, *warmup_args(model, cfg))
        for a, b in zip(before, model.parameters()):
            np.testing.assert_array_equal(a, b)

    def test_separable_data_trains(self):
        splits = make_splits(sep=6.0, n_per_class=100)
        cfg = fast_cfg(warmup_steps=200)
        model = init_mlp([4, 8, 2], np.random.default_rng(0))
        warmup_supervised(model, splits.labeled_train, cfg, *warmup_args(model, cfg))
        logits, _ = mlp_forward(model, splits.labeled_train.X)
        assert np.mean(logits.argmax(axis=1) == splits.labeled_train.y) > 0.95

    def test_deterministic(self):
        splits = make_splits()
        cfg = fast_cfg(warmup_steps=30)
        models = []
        for _ in range(2):
            m = init_mlp([4, 8, 2], np.random.default_rng(5))
            warmup_supervised(m, splits.labeled_train, cfg, *warmup_args(m, cfg))
            models.append(m)
        for a, b in zip(models[0].parameters(), models[1].parameters()):
            np.testing.assert_array_equal(a, b)

    def test_empty_labeled_rejected(self):
        model, cfg = init_mlp([4, 2], np.random.default_rng(0)), fast_cfg()
        with pytest.raises(ValueError):
            warmup_supervised(model, [], cfg, *warmup_args(model, cfg))


class TestHistory:
    @pytest.mark.parametrize("columns", [
        dict(epoch=[1, 1], policy_update=[False]),
        dict(epoch=[1, 1], policy_update=[False, True], loss_val_before=[0.5, 0.4],
             loss_val_after=[0.4, 0.3], reward=[0.1]),
    ], ids=["flags_short", "reward_short"])
    def test_unequal_columns_raise(self, columns):
        with pytest.raises(ValueError):
            engine.History(**columns).to_csv()


class TestCsvText:
    # (cell, its text): every kind of cell the written tables hold
    CELLS = [
        (None, ""),
        (0.1, "0.10000000000000001"),
        (np.float64(0.1), "0.10000000000000001"),
        (1.0, "1"),
        (-0.0, "-0"),
        (5e-324, "4.9406564584124654e-324"),
        (1e16, "10000000000000000"),
        (3, "3"),
        (np.int64(3), "3"),
    ]

    def test_known_answers(self):
        header = [f"c{i}" for i in range(len(self.CELLS))]
        cells = [cell for cell, _ in self.CELLS]
        assert engine.csv_text(header, [cells, cells[::-1]]) == (
            ",".join(header) + "\n"
            + ",".join(text for _, text in self.CELLS) + "\n"
            + ",".join(text for _, text in self.CELLS[::-1]) + "\n")

    def test_float_cells_read_back_as_the_same_double(self):
        floats = [cell for cell, _ in self.CELLS if isinstance(cell, float)]
        line = engine.csv_text(["x"] * len(floats), [floats]).splitlines()[1]
        assert [float(text).hex() for text in line.split(",")] == [v.hex() for v in floats]

    def test_header_only(self):
        assert engine.csv_text(["a", "b"], []) == "a,b\n"


class TestTrainLoop:
    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError, match="^epochs must be >= 1, got 0$"):
            fast_cfg(epochs=0)

    def test_deterministic_history(self):
        splits = make_splits()
        cfg = fast_cfg()
        a = train(splits, cfg).history.to_csv()
        b = train(splits, cfg).history.to_csv()
        assert a == b

    def test_rewards_non_negative_and_clamped(self):
        splits = make_splits()
        result = train(splits, fast_cfg())
        h = result.history
        for before, after, reward in zip(h.loss_val_before, h.loss_val_after, h.reward,
                                         strict=True):
            assert reward >= 0.0
            if after >= before:
                assert reward == 0.0

    def test_empty_unlabeled_matches_supervised_only(self):
        splits = make_splits()
        cfg = fast_cfg()
        stripped = DatasetSplits(splits.labeled_train, [], splits.validation,
                                 splits.test)
        a = train(stripped, cfg).final_metrics
        b = train_supervised_only(splits, cfg).final_metrics
        assert abs(a.accuracy - b.accuracy) < 1e-12
        assert abs(a.f1 - b.f1) < 1e-12
        assert abs(a.auc - b.auc) < 1e-12

    def test_zero_pseudo_weight_matches_supervised_only(self):
        splits = make_splits()
        cfg = fast_cfg(pseudo_loss_weight=0.0)
        a = train(splits, cfg).final_metrics
        b = train_supervised_only(splits, fast_cfg()).final_metrics
        assert abs(a.accuracy - b.accuracy) < 1e-12
        assert abs(a.f1 - b.f1) < 1e-12
        assert abs(a.auc - b.auc) < 1e-12

    def test_empty_split_rejected(self):
        splits = make_splits()
        bad = DatasetSplits([], splits.unlabeled_train, splits.validation,
                            splits.test)
        with pytest.raises(ValueError):
            train(bad, fast_cfg())

    @pytest.mark.parametrize("name", ["labeled_train", "validation", "test"])
    def test_label_out_of_range_rejected(self, name):
        splits = make_splits()
        getattr(splits, name).y[0] = 2
        with pytest.raises(ValueError, match=f"{name} has a label outside"):
            train(splits, fast_cfg())
        with pytest.raises(ValueError, match=f"{name} has a label outside"):
            train_self_training(splits, fast_cfg(), 0.9)

    @pytest.mark.parametrize("label", [-1, 2, 7])
    def test_label_out_of_range_names_the_first_such_row(self, label):
        splits = make_splits()
        splits.validation.y[[1, 3]] = label
        sid = str(splits.validation.ids[1])
        with pytest.raises(RowError, match=rf"^validation has a label outside \[0, 2\): "
                                           rf"{label} at id '{sid}'$") as exc:
            check_splits(splits, fast_cfg())
        assert exc.value.row_id == sid

    @pytest.mark.parametrize("trainer", ["pseudo_sup", "self_training"])
    @pytest.mark.parametrize("label", [0, 1])
    def test_single_class_test_split_rejected_before_warmup(self, monkeypatch,
                                                            trainer, label):
        # the AUC needs class 1 and another class in the test split
        def no_warmup(*args):
            raise AssertionError("warmup ran")

        monkeypatch.setattr(engine, "warmup_supervised", no_warmup)
        splits = make_splits()
        splits.test.y[:] = label
        with pytest.raises(ValueError, match="^test must hold class 1 and another"):
            if trainer == "pseudo_sup":
                train(splits, fast_cfg())
            else:
                train_self_training(splits, fast_cfg(), 0.9)

    @pytest.mark.parametrize("trainer", ["pseudo_sup", "self_training"])
    def test_augment_without_grid_rejected_before_warmup(self, monkeypatch, trainer):
        def no_warmup(*args):
            raise AssertionError("warmup ran")

        monkeypatch.setattr(engine, "warmup_supervised", no_warmup)
        splits, cfg = make_splits(), fast_cfg(augment=True)
        assert splits.grid is None
        with pytest.raises(ValueError, match="^augment requires splits with grid dims$"):
            if trainer == "pseudo_sup":
                train(splits, cfg)
            else:
                train_self_training(splits, cfg, 0.9)
        # the grid must fit the features, the rule load_dataset applies to files
        data = generate_overlapping_gaussians(60, 10, 1.0, 0)
        for grid in [(0, 4), (2, -1), (4, 5)]:
            splits = split_dataset(data, 0.5, (0.7, 0.1, 0.2), 0, grid=grid)
            with pytest.raises(ValueError, match=f"^grid {grid[0]}x{grid[1]} needs sides "
                                                 ">= 1 and at most 10 cells$"):
                if trainer == "pseudo_sup":
                    train(splits, cfg)
                else:
                    train_self_training(splits, cfg, 0.9)

    @pytest.mark.parametrize("trainer", ["pseudo_sup", "self_training"])
    @pytest.mark.parametrize("split", ["unlabeled_train", "validation", "test"])
    def test_feature_count_mismatch_rejected_before_warmup(self, monkeypatch, trainer,
                                                           split):
        def no_warmup(*args):
            raise AssertionError("warmup ran")

        monkeypatch.setattr(engine, "warmup_supervised", no_warmup)
        splits = make_splits()
        part = getattr(splits, split)
        splits = replace(splits, **{split: replace(part, X=part.X[:, :3])})
        with pytest.raises(ValueError, match=f"^{split} has 3 features, labeled_train has 4$"):
            if trainer == "pseudo_sup":
                train(splits, fast_cfg())
            else:
                train_self_training(splits, fast_cfg(), 0.9)

    def test_empty_split_of_another_width_accepted(self):
        splits = make_splits()
        empty = replace(splits.unlabeled_train.take([]), X=np.zeros((0, 3)))
        engine.check_splits(replace(splits, unlabeled_train=empty), fast_cfg())

    @pytest.mark.parametrize("trainer", ["pseudo_sup", "self_training"])
    @pytest.mark.parametrize("split", ["labeled_train", "unlabeled_train",
                                       "validation", "test"])
    def test_non_finite_feature_rejected(self, trainer, split):
        splits = make_splits()
        getattr(splits, split).X[0, 0] = np.nan
        with pytest.raises(ValueError, match=f"^{split} has non-finite features$"):
            if trainer == "pseudo_sup":
                train(splits, fast_cfg())
            else:
                train_self_training(splits, fast_cfg(), 0.9)

    def test_evaluate_rejects_hidden_labels(self):
        model = init_mlp([4, 8, 2], np.random.default_rng(0))
        with pytest.raises(ValueError, match="fully labeled"):
            evaluate(model, make_splits().unlabeled_train)

    def test_evaluate_scores_class_1_against_the_rest(self):
        # with three classes, F1 and AUC count classes 0 and 2 as negatives
        rng = np.random.default_rng(5)
        model = init_mlp([4, 8, 3], rng)
        x, y = rng.normal(size=(30, 4)), np.arange(30) % 3
        report = evaluate(model, Split(np.arange(30), x, y, np.full(30, -1)))
        logits, _ = mlp_forward(model, x)
        preds = logits.argmax(axis=1)
        assert set(preds) == {0, 1, 2}
        tp = np.sum((preds == 1) & (y == 1))
        assert report.accuracy == np.mean(preds == y)
        assert report.f1 == pytest.approx(2 * tp / (np.sum(preds == 1) + np.sum(y == 1)))
        scores = np.exp(log_softmax(logits))[:, 1]
        pairs = scores[y == 1, None] - scores[y != 1]
        assert report.auc == pytest.approx(np.mean((pairs > 0) + 0.5 * (pairs == 0)))


def classifier_step(model, xl, yl, xu, yu, optimizer, cfg):
    """The classifier step of `reference_train`, in its two-halves form:
    CE(labeled) + pseudo_loss_weight * CE(pseudo) from one pass over the
    halves as `_step_batch` lays them out (at weight 0 the labeled rows
    alone)."""
    x, y, weights = _step_batch(xl, yl, xu, yu, cfg.pseudo_loss_weight)
    engine.classifier_step(*mlp_forward(model, x), y, optimizer, weights)


def reference_train(splits, cfg):
    """`train` as a step-by-step loop on a non-empty unlabeled split: each
    step evaluates the validation loss, samples pseudo labels, updates the
    classifier and evaluates the same validation batch again, and every
    cfg.beta steps `policy_update` runs its own forward over the window."""
    rngs, classifier, opt_c = engine._warm_classifier(splits, cfg)
    labeled, unlabeled, val = splits.labeled_train, splits.unlabeled_train, splits.validation
    if cfg.policy_warm_start:
        policy = clone_model(classifier)
    else:
        policy = init_mlp(classifier.layer_dims, rngs["init"])
    opt_p = AdamW(policy.flat, cfg.policy_lr, weight_decay=cfg.weight_decay)

    def rows(x, idx):
        if cfg.augment:
            return augment_weak(x[idx], splits.grid, rngs["aug"], cfg.crop_scale_min)
        return x[idx]

    columns = {name: [] for name in ("epoch", "policy_update", "loss_val_before",
                                     "loss_val_after", "reward")}
    epochs = []
    trajectory = Trajectory(cfg.beta)
    step = 0
    try:
        for epoch in range(1, cfg.epochs + 1):
            for idx in engine._labeled_batches(len(labeled), cfg.batch_labeled, rngs["data"]):
                step += 1
                xl, yl = rows(labeled.X, idx), labeled.y[idx]
                v = engine._draw(len(val), cfg.batch_val, rngs["val"])
                xv, yv = val.X[v], val.y[v]
                loss_before = eval_val_loss(classifier, xv, yv)
                u = engine._draw(len(unlabeled), cfg.batch_unlabeled, rngs["policy"])
                xu = rows(unlabeled.X, u)
                actions, log_probs = sample_pseudo_labels(policy, xu, rngs["policy"])
                classifier_step(classifier, xl, yl, xu, actions, opt_c, cfg)
                loss_after = eval_val_loss(classifier, xv, yv)
                reward = compute_reward(loss_before, loss_after)
                trajectory.append(TrajectoryStep(xu, actions, log_probs, reward))
                updated = trajectory.full()
                if updated:
                    policy_update(policy, trajectory, cfg, opt_p)
                for name, value in zip(columns, (epoch, updated, loss_before, loss_after,
                                                 reward)):
                    columns[name].append(value)
            epochs.append(evaluate(classifier, splits.test))
    except NonFiniteError as exc:
        raise engine._diverged(cfg, f"step {step}", exc) from exc
    return engine.TrainResult(classifier, policy, engine.History(**columns, epochs=epochs))


class TestStepByStepReference:
    """`train` runs one classifier forward per step and equals the
    step-by-step loop. make_splits() has 42 labeled, 42 unlabeled and 12
    validation rows."""

    def test_forward_count(self, monkeypatch):
        # 3 steps per epoch at beta 4: windows of steps 1-4 and 5-8 cross an
        # epoch boundary, and the window of step 9 is partial. One forward
        # per step, one over v_T after the last, one policy forward per
        # window and one evaluation per epoch: at the benchmark's shape (320
        # steps, beta 50, 20 epochs, 100 warmup steps) 100 + 320 + 1 + 7 + 20
        # = 448 per cell.
        calls = []

        def counted(model, batch):
            calls.append(len(batch))
            return mlp_forward(model, batch)

        monkeypatch.setattr(engine, "mlp_forward", counted)
        cfg = fast_cfg(epochs=3, beta=4)
        n_steps = len(train(make_splits(), cfg).history.epoch)
        assert n_steps == 9
        assert len(calls) == (cfg.warmup_steps + n_steps + 1
                              + math.ceil(n_steps / cfg.beta) + cfg.epochs)

    @staticmethod
    def assert_same_bytes(got, ref, tmp_path):
        assert got.history.to_csv() == ref.history.to_csv()
        for name in ("classifier", "policy"):
            paths = [tmp_path / f"{name}_{side}.ckpt" for side in ("got", "ref")]
            save_model(getattr(got, name), str(paths[0]))
            save_model(getattr(ref, name), str(paths[1]))
            assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("augment", [False, True])
    @pytest.mark.parametrize("warm_start", [True, False])
    def test_byte_equal_at_multiples_of_4(self, tmp_path, augment, warm_start):
        # 16 unlabeled and 12 validation rows per step; labeled batches of
        # 16, 16 and 10 rows are never stacked with another step's
        splits = replace(make_splits(dim=20), grid=(4, 5))
        cfg = fast_cfg(epochs=3, beta=4, augment=augment, policy_warm_start=warm_start)
        self.assert_same_bytes(train(splits, cfg), reference_train(splits, cfg), tmp_path)

    @pytest.mark.parametrize("overrides", [
        dict(pseudo_loss_weight=0.0),  # each step trains on its labeled rows alone
        dict(batch_val=64),  # the draw clamps to the 12 validation rows
        dict(epochs=1, beta=5),  # 3 steps: one partial window, no policy update
    ], ids=["zero_pseudo_weight", "val_batch_clamped", "fewer_steps_than_beta"])
    @pytest.mark.parametrize("augment", [False, True])
    def test_byte_equal_at_edge_shapes(self, tmp_path, overrides, augment):
        splits = replace(make_splits(dim=20), grid=(4, 5))
        cfg = fast_cfg(**{"epochs": 3, "beta": 4, "augment": augment, **overrides})
        got, ref = train(splits, cfg), reference_train(splits, cfg)
        self.assert_same_bytes(got, ref, tmp_path)
        if len(got.history.epoch) < cfg.beta:
            assert not any(got.history.policy_update)

    @pytest.mark.parametrize("beta", [1, 9], ids=["every_step_closes_a_window",
                                                 "one_window_closed_after_v_T"])
    @pytest.mark.parametrize("augment", [False, True])
    def test_byte_equal_at_window_edges(self, tmp_path, beta, augment):
        # 9 steps: at beta 1 each step's forward closes the previous step's
        # window; at beta 9 the one policy update follows the forward over v_T
        splits = replace(make_splits(dim=20), grid=(4, 5))
        cfg = fast_cfg(epochs=3, beta=beta, augment=augment)
        got, ref = train(splits, cfg), reference_train(splits, cfg)
        self.assert_same_bytes(got, ref, tmp_path)
        assert sum(got.history.policy_update) == 9 // beta

    @pytest.mark.parametrize("augment", [False, True])
    def test_streams_end_where_the_step_by_step_loop_leaves_them(self, monkeypatch,
                                                                 augment):
        # train draws the run's validation batches and each window's
        # policy and aug draws ahead; every stream ends in the same state
        made, engine_rngs = [], engine._rngs

        def recorded(seed):
            made.append(engine_rngs(seed))
            return made[-1]

        monkeypatch.setattr(engine, "_rngs", recorded)
        splits = replace(make_splits(dim=20), grid=(4, 5))
        cfg = fast_cfg(epochs=3, beta=4, augment=augment, policy_warm_start=False)
        train(splits, cfg)
        reference_train(splits, cfg)
        got, ref = made
        assert list(got) == list(ref) == ["init", "warmup", "data", "policy", "val", "aug"]
        for name in got:
            assert got[name].bit_generator.state == ref[name].bit_generator.state, name

    @pytest.mark.parametrize("pseudo_loss_weight", [1.0, 0.0])
    @pytest.mark.parametrize("trainer", ["pseudo_sup", "self_training", "supervised"])
    def test_every_update_goes_through_classifier_step(self, monkeypatch, trainer,
                                                       pseudo_loss_weight):
        # the warmup's, self-training's and train's steps all update through
        # classifier_step; a step's labeled rows are its update's rows
        calls, engine_step = [], engine.classifier_step

        def counted(logits, cache, y, optimizer, weights=None):
            calls.append((len(y), weights))
            return engine_step(logits, cache, y, optimizer, weights)

        monkeypatch.setattr(engine, "classifier_step", counted)
        cfg = fast_cfg(epochs=3, beta=4, pseudo_loss_weight=pseudo_loss_weight)
        if trainer == "pseudo_sup":
            result = train(make_splits(), cfg)
        elif trainer == "self_training":
            result = train_self_training(make_splits(sep=6.0), cfg, 0.9)
            assert sum(result.diagnostics["n_selected"]) > 0
        else:
            result = train_supervised_only(make_splits(), cfg)
        n_steps = len(result.history.epoch)
        assert n_steps == 9
        assert len(calls) == cfg.warmup_steps + n_steps
        if pseudo_loss_weight and trainer != "supervised":
            assert max(n for n, _ in calls) > cfg.batch_labeled  # steps with pseudo rows
        else:  # every step is the labeled-only step
            assert all(n <= cfg.batch_labeled and w is None for n, w in calls)

    def test_close_at_other_batch_sizes(self):
        # 6 unlabeled and 9 validation rows per step: stacked blocks may
        # round differently from separate ones (on OpenBLAS a few losses and
        # a reward here differ in their last bits, and so does the policy)
        splits = make_splits(n_per_class=300, dim=20, seed=3)
        cfg = fast_cfg(seed=3, hidden_dims=(64, 32), batch_labeled=5, batch_unlabeled=6,
                       batch_val=9)
        got, ref = train(splits, cfg).history, reference_train(splits, cfg).history
        assert got.epoch == ref.epoch and got.policy_update == ref.policy_update
        for name in ("loss_val_before", "loss_val_after", "reward"):
            assert list(getattr(got, name)) == pytest.approx(getattr(ref, name), rel=1e-9,
                                                             abs=0)


def random_case(case):
    """Splits and a config for `train` drawn from a fixed seed, over 20-90
    rows per class at dim 20, label fraction 0.1-0.8, epochs 1-4, beta in
    {1, 2, 3, 5, 7, 50}, batch sizes 1-24 and warmup 0-5, with augmentation
    on a random grid in 30% of cases. Even cases redraw until every block
    has a multiple of 4 rows (`four_row_rule`)."""
    rng = np.random.default_rng([2026, case])
    aligned = case % 2 == 0
    while True:
        splits = make_splits(n_per_class=int(rng.integers(20, 91)), dim=20,
                             seed=int(rng.integers(1000)),
                             label_fraction=float(rng.uniform(0.1, 0.8)))
        h = int(rng.integers(1, 6))
        splits = replace(splits, grid=(h, int(rng.integers(1, 20 // h + 1))))
        unit = 4 if aligned else 1
        batches = rng.integers(1, 24 // unit + 1, size=3) * unit
        cfg = EngineConfig(
            epochs=int(rng.integers(1, 5)), beta=int(rng.choice([1, 2, 3, 5, 7, 50])),
            batch_labeled=int(batches[0]), batch_unlabeled=int(batches[1]),
            batch_val=int(batches[2]), warmup_steps=int(rng.integers(0, 6)),
            hidden_dims=[(8,), (16, 8)][rng.integers(2)],
            pseudo_loss_weight=float(rng.choice([0.0, 0.5, 1.0])),
            gamma=float(rng.choice([0.0, 0.9, 1.0])), policy_warm_start=bool(rng.integers(2)),
            augment=bool(rng.random() < 0.3), classifier_lr=1e-2, policy_lr=1e-2,
            seed=int(rng.integers(100)))
        if np.unique(splits.test.y).size == 2 and (four_row_rule(splits, cfg) or not aligned):
            return splits, cfg, rng


def four_row_rule(splits, cfg):
    """The module docstring's condition for `train` to equal the step-by-step
    loop bit for bit: every update block, unlabeled batch and validation
    batch has a multiple of 4 rows."""
    n_l, b = len(splits.labeled_train), cfg.batch_labeled
    m = min(cfg.batch_unlabeled, len(splits.unlabeled_train))
    n_v = min(cfg.batch_val, len(splits.validation))
    labeled = {min(b, n_l), n_l % b or min(b, n_l)}  # full batches and the last
    blocks = {n + m if cfg.pseudo_loss_weight else n for n in labeled}
    return all(k % 4 == 0 for k in (m, n_v, *blocks))


@pytest.mark.parametrize("case", range(60))
def test_train_matches_reference_at_random_shapes(tmp_path, monkeypatch, case):
    """`train` against `reference_train`: equal update flags and epochs
    everywhere, equal bytes where the 4-row rule holds, losses and rewards
    within 1e-9 relative elsewhere. Every tenth case fails `compute_reward`
    at a random call, and both loops must name the same step."""
    splits, cfg, rng = random_case(case)
    if case % 10 == 9:
        n_steps = cfg.epochs * -(-len(splits.labeled_train) // cfg.batch_labeled)
        fail_at = int(rng.integers(1, n_steps + 1))
        errors, engine_reward = [], engine.compute_reward
        for run in (train, reference_train):
            calls = []

            def failing(loss_before, loss_after):
                calls.append(loss_before)
                if len(calls) == fail_at:
                    raise NonFiniteError("reward fails here")
                return engine_reward(loss_before, loss_after)

            with monkeypatch.context() as patch:
                patch.setitem(globals(), "compute_reward", failing)  # reference_train's
                patch.setattr(engine, "compute_reward", failing)
                with pytest.raises(ValueError) as info:
                    run(splits, cfg)
            errors.append(str(info.value))
        assert errors[0] == errors[1] == (f"training diverged at seed {cfg.seed}, "
                                          f"step {fail_at}: reward fails here")
        return
    got, ref = train(splits, cfg), reference_train(splits, cfg)
    assert got.history.epoch == ref.history.epoch
    assert got.history.policy_update == ref.history.policy_update
    if four_row_rule(splits, cfg):
        TestStepByStepReference.assert_same_bytes(got, ref, tmp_path)
    for name in ("loss_val_before", "loss_val_after", "reward"):
        assert list(getattr(got.history, name)) == pytest.approx(
            getattr(ref.history, name), rel=1e-9, abs=0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestDivergence:
    """A loss or parameter that goes non-finite stops training with an error
    naming the seed and the step."""

    def test_absurd_learning_rate_names_seed_and_step(self):
        # the first step moves every parameter by about 1e308, so the next
        # loss overflows
        cfg = fast_cfg(seed=6, classifier_lr=1e308)
        with pytest.raises(ValueError, match="diverged at seed 6, warmup step 2: "
                                             "cross-entropy loss is"):
            train(make_splits(), cfg)
        with pytest.raises(ValueError, match="diverged at seed 6, step 1: "
                                             "losses must be finite"):
            train(make_splits(), replace(cfg, warmup_steps=0))
        with pytest.raises(ValueError, match="diverged at seed 6, warmup step 2: "
                                             "cross-entropy loss is"):
            train_self_training(make_splits(), cfg, 0.9)

    @pytest.mark.parametrize("trainer, split, message", [
        ("pseudo_sup", "test", "step 3: evaluated split logits are non-finite"),
        ("self_training", "test", "step 3: evaluated split logits are non-finite"),
        ("self_training", "unlabeled_train",
         "step 0: unlabeled_train logits are non-finite"),
    ])
    def test_overflowing_whole_split_logits_name_seed_and_step(self, trainer, split,
                                                               message):
        # finite features whose logits overflow in the once-per-epoch passes
        splits = make_splits()
        x = getattr(splits, split).X
        x[0], x[1] = np.finfo(float).max, -np.finfo(float).max
        with pytest.raises(ValueError, match=f"diverged at seed 3, {message}"):
            if trainer == "pseudo_sup":
                train(splits, fast_cfg(seed=3))
            else:
                train_self_training(splits, fast_cfg(seed=3), 0.9)

    def test_overflowing_reward_names_seed_and_step(self):
        # features of scale 100 at lr 1: a val-loss gain beyond ~709.78 overflows exp
        data = generate_overlapping_gaussians(100, 4, 1.0, 1)
        splits = split_dataset(replace(data, X=data.X * 100), 0.5, (0.7, 0.1, 0.2), 1)
        cfg = EngineConfig(epochs=2, warmup_steps=0, classifier_lr=1.0, policy_lr=1.0,
                           hidden_dims=(8,), seed=1)
        with pytest.raises(ValueError, match="^training diverged at seed 1, step 3: "
                                             "reward overflows: loss_before "):
            train(splits, cfg)

    @pytest.mark.parametrize("k", [2, 4, 9], ids=["inside_a_window", "last_step_of_a_window",
                                                 "last_step_of_the_run"])
    def test_failed_reward_names_its_own_step(self, monkeypatch, k):
        # train rewards a window's steps once a later forward completes their
        # after-losses; a reward that fails is still named at its own step
        # (9 steps at beta 4: windows of steps 1-4, 5-8 and 9)
        calls, engine_reward = [], engine.compute_reward

        def failing(loss_before, loss_after):
            calls.append(loss_before)
            if len(calls) == k:
                raise NonFiniteError("reward fails here")
            return engine_reward(loss_before, loss_after)

        monkeypatch.setattr(engine, "compute_reward", failing)
        with pytest.raises(ValueError, match=f"^training diverged at seed 1, step {k}: "
                                             "reward fails here$"):
            train(make_splits(), fast_cfg(epochs=3, beta=4))

    def test_overflowing_policy_names_first_step_of_its_window(self):
        # an unlabeled row that the policy stream first draws at step 3 makes
        # the policy's log-probabilities non-finite (at seed 4 its logits
        # overflow; at some seeds they stay finite); train samples the whole
        # window at step 1 and names that step, where the step-by-step loop
        # names step 3
        splits = make_splits()
        cfg = fast_cfg(seed=4, beta=5)
        rng = engine._rngs(cfg.seed)["policy"]
        first_step = {}
        for step in (1, 2, 3):
            u = engine._draw(len(splits.unlabeled_train), cfg.batch_unlabeled, rng)
            rng.random(len(u))
            for row in u.tolist():
                first_step.setdefault(row, step)
        row = min(r for r, step in first_step.items() if step == 3)
        splits.unlabeled_train.X[row] = np.finfo(float).max
        message = "policy log-probabilities are non-finite$"
        with pytest.raises(ValueError, match=f"^training diverged at seed 4, step 1: {message}"):
            train(splits, cfg)
        with pytest.raises(ValueError, match=f"^training diverged at seed 4, step 3: {message}"):
            reference_train(splits, cfg)

    def test_overflowing_logits_in_evaluate_raise(self):
        # finite features, but the logits overflow to +-inf: the scores would be NaN
        model = MlpModel([1, 2], np.array([1e308, -1e308, 0.0, 0.0]))
        split = Split(np.arange(2), np.array([[10.0], [-10.0]]), np.array([0, 1]),
                      np.array([-1, -1]))
        with pytest.raises(NonFiniteError, match="evaluated split logits are non-finite"):
            evaluate(model, split)


class TestHiddenLabelLeakGuard:
    """`hidden` is diagnostics only: permuting it must not move training."""

    @staticmethod
    def permuted(splits):
        hidden = splits.unlabeled_train.hidden
        shuffled = hidden[np.random.default_rng(0).permutation(len(hidden))]
        assert (shuffled != hidden).any()
        return replace(splits, unlabeled_train=replace(splits.unlabeled_train,
                                                       hidden=shuffled))

    @staticmethod
    def assert_same_models(a, b):
        for model_a, model_b in ((a.classifier, b.classifier), (a.policy, b.policy)):
            if model_a is None:
                assert model_b is None
                continue
            for pa, pb in zip(model_a.parameters(), model_b.parameters()):
                np.testing.assert_array_equal(pa, pb)

    def test_train_never_reads_hidden(self):
        splits = make_splits()
        a = train(splits, fast_cfg())
        b = train(self.permuted(splits), fast_cfg())
        self.assert_same_models(a, b)
        assert a.history.to_csv() == b.history.to_csv()

    def test_self_training_reads_hidden_only_for_accuracy(self):
        splits = make_splits(sep=2.0)
        cfg = fast_cfg(epochs=3)
        a = train_self_training(splits, cfg, 0.6)
        b = train_self_training(self.permuted(splits), cfg, 0.6)
        self.assert_same_models(a, b)
        assert a.history.to_csv() == b.history.to_csv()
        n_selected = a.diagnostics["n_selected"]
        assert n_selected == b.diagnostics["n_selected"] and sum(n_selected) > 0
        assert a.final_metrics == b.final_metrics
        assert not np.array_equal(a.diagnostics["pseudo_label_accuracy"],
                                  b.diagnostics["pseudo_label_accuracy"], equal_nan=True)


class TestSupervisedOnly:
    def test_separable_high_auc(self):
        splits = make_splits(sep=6.0, n_per_class=150)
        cfg = fast_cfg(epochs=5, warmup_steps=100)
        result = train_supervised_only(splits, cfg)
        assert result.final_metrics.auc > 0.95

    def test_no_signal_auc_near_half(self):
        aucs = []
        for seed in range(1, 6):
            splits = make_splits(sep=0.0, n_per_class=200, seed=seed)
            cfg = fast_cfg(seed=seed)
            aucs.append(train_supervised_only(splits, cfg).final_metrics.auc)
        assert 0.45 <= float(np.mean(aucs)) <= 0.55

    def test_deterministic(self):
        splits = make_splits()
        cfg = fast_cfg()
        a = train_supervised_only(splits, cfg).final_metrics
        b = train_supervised_only(splits, cfg).final_metrics
        assert a == b


class TestSelfTraining:
    def test_invalid_threshold_rejected(self):
        splits = make_splits()
        with pytest.raises(ValueError):
            train_self_training(splits, fast_cfg(), 1.0 + 1e-9)
        with pytest.raises(ValueError):
            train_self_training(splits, fast_cfg(), 0.5)

    @pytest.mark.parametrize("augment, threshold, weight", [
        # pseudo rows are selected and drawn, but a step at weight 0 trains
        # on its labeled rows alone
        pytest.param(False, 0.9, 0.0, id="False"),
        pytest.param(True, 0.9, 0.0, id="True"),
        # no row reaches probability 1.0, so no pseudo row is drawn
        pytest.param(False, 1.0, 1.0, id="nothing_qualifies"),
    ])
    def test_zero_pseudo_weight_is_supervised_bit_for_bit(self, tmp_path, augment,
                                                          threshold, weight):
        splits = replace(make_splits(dim=20, sep=6.0), grid=(4, 5))
        cfg = fast_cfg(epochs=3, augment=augment, pseudo_loss_weight=weight)
        st = train_self_training(splits, cfg, threshold)
        assert (sum(st.diagnostics["n_selected"]) > 0) == (threshold < 1.0)
        sup = train_supervised_only(splits, cfg)
        assert st.history.to_csv() == sup.history.to_csv()
        assert st.history.epochs == sup.history.epochs
        paths = [tmp_path / f"{side}.ckpt" for side in ("st", "sup")]
        save_model(st.classifier, str(paths[0]))
        save_model(sup.classifier, str(paths[1]))
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_result_is_a_train_result_with_one_diagnostic_per_epoch(self):
        cfg = fast_cfg(epochs=3)
        st = train_self_training(make_splits(sep=6.0), cfg, 0.9)
        assert type(st) is engine.TrainResult and st.policy is None
        assert sorted(st.diagnostics) == ["n_selected", "pseudo_label_accuracy"]
        assert all(len(column) == cfg.epochs for column in st.diagnostics.values())
        assert train(make_splits(), cfg).diagnostics == {}

    def test_separable_pseudo_labels_accurate(self):
        splits = make_splits(sep=6.0, n_per_class=150)
        cfg = fast_cfg(epochs=3, warmup_steps=150)
        st = train_self_training(splits, cfg, 0.9)
        accs = [a for a in st.diagnostics["pseudo_label_accuracy"] if not math.isnan(a)]
        assert accs and min(accs) > 0.95


class TestEngineConfig:
    @pytest.mark.parametrize("name", ["policy_lr", "classifier_lr", "weight_decay",
                                      "pseudo_loss_weight"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_float_rejected(self, name, value):
        with pytest.raises(ValueError, match="finite"):
            EngineConfig(**{name: value})

    @pytest.mark.parametrize("kwargs, message", [
        ({"gamma": 1.5}, "gamma must be in [0, 1]"),
        ({"beta": 0}, "beta must be >= 1"),
        ({"classifier_lr": 0.0}, "learning rates must be positive and finite"),
        ({"epochs": 0}, "epochs must be >= 1, got 0"),
        ({"warmup_steps": -1}, "warmup_steps must be non-negative"),
        ({"batch_unlabeled": 0}, "batch sizes must be >= 1"),
        ({"hidden_dims": (4, 0)}, "hidden dims must be >= 1"),
        ({"n_classes": 1}, "n_classes must be >= 2"),
        ({"weight_decay": -0.5},
         "weight_decay and pseudo_loss_weight must be finite and >= 0"),
        ({"crop_scale_min": 0.0}, "crop_scale_min must be in (0, 1]"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"hidden_dims": ()}, "hidden_dims must not be empty"),
        # an integer field takes an int or a numpy integer, not a float or a bool
        ({"beta": 2.5}, "beta must be an integer, got 2.5"),
        ({"beta": True}, "beta must be an integer, got True"),
        ({"epochs": 1.5}, "epochs must be an integer, got 1.5"),
        ({"warmup_steps": 2.5}, "warmup_steps must be an integer, got 2.5"),
        ({"n_classes": 2.0}, "n_classes must be an integer, got 2.0"),
        ({"seed": 1.0}, "seed must be an integer, got 1.0"),
        ({"batch_labeled": 4.0}, "batch_labeled must be an integer, got 4.0"),
        ({"batch_unlabeled": False}, "batch_unlabeled must be an integer, got False"),
        ({"batch_val": np.float64(8.0)},
         "batch_val must be an integer, got np.float64(8.0)"),
        ({"hidden_dims": (4.5,)}, "hidden_dims must be integers, got (4.5,)"),
        ({"hidden_dims": (8, True)}, "hidden_dims must be integers, got (8, True)"),
        ({"hidden_dims": 8}, "hidden_dims must be integers, got 8"),
        # a float field takes an int or a float, numpy scalars included, not a
        # bool or a string; a bool field takes a bool
        ({"gamma": "0.5"}, "gamma must be a number, got '0.5'"),
        ({"policy_lr": None}, "policy_lr must be a number, got None"),
        ({"crop_scale_min": True}, "crop_scale_min must be a number, got True"),
        ({"weight_decay": np.bool_(False)},
         "weight_decay must be a number, got np.False_"),
        ({"augment": "no"}, "augment must be a bool, got 'no'"),
        ({"policy_warm_start": 1}, "policy_warm_start must be a bool, got 1"),
    ])
    def test_each_rule_raises_config_error(self, kwargs, message):
        with pytest.raises(ConfigError) as info:
            EngineConfig(**kwargs)
        assert str(info.value) == message
        assert isinstance(info.value, ValueError)

    def test_numpy_integers_accepted(self):
        cfg = EngineConfig(beta=np.int64(3), seed=np.uint8(2), hidden_dims=(np.int32(4), 8))
        assert (cfg.beta, cfg.seed, cfg.hidden_dims) == (3, 2, (4, 8))

    def test_ints_and_numpy_scalars_accepted_as_floats(self):
        cfg = EngineConfig(gamma=1, policy_lr=np.float32(0.5), weight_decay=np.int64(0))
        assert (cfg.gamma, cfg.policy_lr, cfg.weight_decay) == (1, 0.5, 0)
