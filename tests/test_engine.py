import math
from dataclasses import replace

import numpy as np
import pytest

from pseudosup import engine
from pseudosup.data import (
    DatasetSplits,
    Split,
    generate_overlapping_gaussians,
    split_dataset,
)
from pseudosup.engine import (
    ConfigError,
    EngineConfig,
    Trajectory,
    TrajectoryStep,
    _policy_surrogate_grads,
    classifier_step,
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


class TestSamplePseudoLabels:
    def test_near_deterministic_distribution(self):
        model = MlpModel([1, 2], [np.array([[0.0, 0.0]])], [np.array([20.0, -20.0])])
        rng = np.random.default_rng(3)
        batch = np.zeros((10000, 1))
        actions, _ = sample_pseudo_labels(model, batch, rng)
        assert np.mean(actions == 0) > 0.999

    def test_uniform_logits_fair_coin(self):
        model = MlpModel([1, 2], [np.zeros((1, 2))], [np.zeros(2)])
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
        model = MlpModel([1, 2], [np.array([[1e308, -1e308]])], [np.zeros(2)])
        with pytest.raises(NonFiniteError, match="policy log-probabilities are non-finite"):
            sample_pseudo_labels(model, np.array([[10.0]]), np.random.default_rng(0))


class TestEvalValLoss:
    def test_zero_parameter_classifier_gives_ln2(self):
        model = MlpModel([2, 2], [np.zeros((2, 2))], [np.zeros(2)])
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
        cfg = fast_cfg(pseudo_loss_weight=0.0)
        a = init_mlp([3, 4, 2], np.random.default_rng(9))
        b = clone_model(a)
        xl = rng.normal(size=(4, 3))
        yl = rng.integers(0, 2, 4)
        xu = rng.normal(size=(4, 3))
        yu = rng.integers(0, 2, 4)
        classifier_step(a, xl, yl, xu, yu, AdamW(a.parameters(), cfg.classifier_lr), cfg)
        classifier_step(b, xl, yl, None, None, AdamW(b.parameters(), cfg.classifier_lr),
                        replace(cfg, pseudo_loss_weight=1.0))
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa, pb)

    def test_one_pass_matches_two_pass_reference(self):
        rng = np.random.default_rng(15)
        cfg = fast_cfg(pseudo_loss_weight=0.7)
        a = init_mlp([3, 6, 4, 2], rng)
        b = clone_model(a)
        opt_a = AdamW(a.parameters(), cfg.classifier_lr)
        opt_b = AdamW(b.parameters(), cfg.classifier_lr)
        for _ in range(5):
            xl, yl = rng.normal(size=(6, 3)), rng.integers(0, 2, 6)
            xu, yu = rng.normal(size=(9, 3)), rng.integers(0, 2, 9)
            classifier_step(a, xl, yl, xu, yu, opt_a, cfg)
            # reference: one forward/backward per batch, gradients summed
            parts = []
            for x, y in ((xl, yl), (xu, yu)):
                logits, cache = mlp_forward(b, x)
                _, g = softmax_cross_entropy(logits, y)
                parts.append(mlp_backward(cache, g))
            opt_b.step([gl + 0.7 * gu for gl, gu in zip(*parts)])
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_allclose(pa, pb, rtol=0, atol=1e-12)

    def test_zero_learning_rate_leaves_params(self):
        rng = np.random.default_rng(10)
        cfg = fast_cfg()
        model = init_mlp([3, 4, 2], rng)
        before = [p.copy() for p in model.parameters()]
        classifier_step(model, rng.normal(size=(4, 3)), rng.integers(0, 2, 4),
                        None, None, AdamW(model.parameters(), 0.0), cfg)
        for a, b in zip(before, model.parameters()):
            np.testing.assert_array_equal(a, b)

    def test_combined_gradient_is_sum_of_parts(self):
        rng = np.random.default_rng(11)
        cfg = fast_cfg(pseudo_loss_weight=0.7)
        model = init_mlp([3, 4, 2], rng)
        xl, yl = rng.normal(size=(4, 3)), rng.integers(0, 2, 4)
        xu, yu = rng.normal(size=(5, 3)), rng.integers(0, 2, 5)

        def grads_for(x, y):
            logits, cache = mlp_forward(model, x)
            _, g = softmax_cross_entropy(logits, y)
            return mlp_backward(cache, g)

        gl = grads_for(xl, yl)
        gu = grads_for(xu, yu)
        expected = [a + 0.7 * b for a, b in zip(gl, gu)]

        captured = []

        class SpyOpt:
            def step(self, grads):
                captured.extend(grads)

        classifier_step(model, xl, yl, xu, yu, SpyOpt(), cfg)
        for got, exp in zip(captured, expected):
            np.testing.assert_allclose(got, exp, atol=1e-12)

    def test_empty_batch_rejected(self):
        model = init_mlp([3, 2], np.random.default_rng(0))
        cfg = fast_cfg()
        with pytest.raises(ValueError):
            classifier_step(model, np.zeros((0, 3)), np.zeros(0, dtype=int),
                            None, None, AdamW(model.parameters(), 0.1), cfg)


class TestPolicyUpdate:
    @staticmethod
    def single_step_trajectory(policy, rng, reward=1.0, batch=1):
        states = rng.normal(size=(batch, policy.input_dim))
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

        _, analytic = _policy_surrogate_grads(policy, traj, cfg.gamma)
        step = 1e-5
        for p, a in zip(policy.parameters(), analytic):
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
            ref_grads = [np.zeros_like(p) for p in policy.parameters()]
            for t, step in enumerate(traj.steps):
                g_t = discounted_return(rewards, gamma, t)
                logits, cache = mlp_forward(policy, step.states)
                logp = log_softmax(logits)
                n = len(step.actions)
                ref_j += g_t * logp[np.arange(n), step.actions].mean()
                dlogits = -np.exp(logp)
                dlogits[np.arange(n), step.actions] += 1.0
                for acc, g in zip(ref_grads, mlp_backward(cache, dlogits * g_t / n)):
                    acc += g
            surrogate, grads = _policy_surrogate_grads(policy, traj, gamma)
            assert surrogate == pytest.approx(ref_j, rel=0, abs=1e-12)
            for got, exp in zip(grads, ref_grads):
                np.testing.assert_allclose(got, exp, rtol=0, atol=1e-12)

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
        total_steps = len(result.history.steps)
        updates = sum(r.policy_update for r in result.history.steps)
        assert updates == total_steps // cfg.beta


class TestWarmup:
    def test_zero_steps_unchanged(self):
        splits = make_splits()
        cfg = fast_cfg(warmup_steps=0)
        model = init_mlp([4, 8, 2], np.random.default_rng(0))
        before = [p.copy() for p in model.parameters()]
        warmup_supervised(model, splits.labeled_train, cfg)
        for a, b in zip(before, model.parameters()):
            np.testing.assert_array_equal(a, b)

    def test_separable_data_trains(self):
        splits = make_splits(sep=6.0, n_per_class=100)
        cfg = fast_cfg(warmup_steps=200)
        model = init_mlp([4, 8, 2], np.random.default_rng(0))
        warmup_supervised(model, splits.labeled_train, cfg)
        logits, _ = mlp_forward(model, splits.labeled_train.X)
        assert np.mean(logits.argmax(axis=1) == splits.labeled_train.y) > 0.95

    def test_deterministic(self):
        splits = make_splits()
        cfg = fast_cfg(warmup_steps=30)
        models = []
        for _ in range(2):
            m = init_mlp([4, 8, 2], np.random.default_rng(5))
            warmup_supervised(m, splits.labeled_train, cfg)
            models.append(m)
        for a, b in zip(models[0].parameters(), models[1].parameters()):
            np.testing.assert_array_equal(a, b)

    def test_empty_labeled_rejected(self):
        with pytest.raises(ValueError):
            warmup_supervised(init_mlp([4, 2], np.random.default_rng(0)), [],
                              fast_cfg())


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
        for rec in result.history.steps:
            assert rec.reward >= 0.0
            if rec.loss_val_after >= rec.loss_val_before:
                assert rec.reward == 0.0

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

    def test_overflowing_logits_in_evaluate_raise(self):
        # finite features, but the logits overflow to +-inf: the scores would be NaN
        model = MlpModel([1, 2], [np.array([[1e308, -1e308]])], [np.zeros(2)])
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
        assert a.n_selected == b.n_selected and sum(a.n_selected) > 0
        assert a.final_metrics == b.final_metrics
        assert not np.array_equal(a.pseudo_label_accuracy, b.pseudo_label_accuracy,
                                  equal_nan=True)


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

    def test_nothing_qualifies_matches_supervised(self):
        splits = make_splits()
        cfg = fast_cfg()
        st = train_self_training(splits, cfg, 1.0)
        assert all(n == 0 for n in st.n_selected)
        sup = train_supervised_only(splits, cfg).final_metrics
        assert abs(st.final_metrics.accuracy - sup.accuracy) < 1e-12
        assert abs(st.final_metrics.auc - sup.auc) < 1e-12

    def test_separable_pseudo_labels_accurate(self):
        splits = make_splits(sep=6.0, n_per_class=150)
        cfg = fast_cfg(epochs=3, warmup_steps=150)
        st = train_self_training(splits, cfg, 0.9)
        accs = [a for a in st.pseudo_label_accuracy if not math.isnan(a)]
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
    ])
    def test_each_rule_raises_config_error(self, kwargs, message):
        with pytest.raises(ConfigError) as info:
            EngineConfig(**kwargs)
        assert str(info.value) == message
        assert isinstance(info.value, ValueError)
