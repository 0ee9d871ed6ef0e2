"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -v tests/test_acceptance.py -s` to see the per-criterion
report lines.
"""

import contextlib
import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from pseudosup.cli import (
    DatasetSpec,
    ExperimentConfig,
    run_ablation,
    run_experiment,
)
from pseudosup.data import (
    DatasetSplits,
    LongitudinalSeries,
    QcRecord,
    Sample,
    derive_progression_labels,
    generate_overlapping_gaussians,
    qc_filter,
    split_dataset,
)
from pseudosup.engine import (
    EngineConfig,
    Trajectory,
    TrajectoryStep,
    _policy_loss_grads,
    compute_reward,
    discounted_return,
    policy_update,
    sample_pseudo_labels,
    train,
    train_supervised_only,
)
from pseudosup.metrics import auc_roc
from pseudosup.nn_core import (
    AdamW,
    init_mlp,
    log_softmax,
    mlp_backward,
    mlp_forward,
    softmax_cross_entropy,
)


@contextlib.contextmanager
def report(number, description, budget_s=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s"
    print(f"PASS  criterion {number}: {description}  ({elapsed:.1f}s)")


def test_criterion_1_gradient_oracle():
    with report(1, "analytic gradients match finite differences", budget_s=5):
        rng = np.random.default_rng(101)
        for _ in range(20):
            dims = [int(rng.integers(2, 6)) for _ in range(int(rng.integers(2, 4)))]
            model = init_mlp(dims, rng)
            x = rng.normal(size=(int(rng.integers(1, 5)), dims[0]))
            labels = rng.integers(0, dims[-1], size=len(x))
            logits, cache = mlp_forward(model, x)
            _, grad_logits = softmax_cross_entropy(logits, labels)
            analytic = mlp_backward(cache, grad_logits)
            step = 1e-5
            for p, a in zip(model.parameters(), model.views(analytic)):
                it = np.nditer(p, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = p[idx]
                    p[idx] = orig + step
                    hi, _ = softmax_cross_entropy(mlp_forward(model, x)[0], labels)
                    p[idx] = orig - step
                    lo, _ = softmax_cross_entropy(mlp_forward(model, x)[0], labels)
                    p[idx] = orig
                    numeric = (hi - lo) / (2 * step)
                    denom = max(abs(numeric), 1e-8)
                    assert abs(a[idx] - numeric) / denom < 1e-4


def test_criterion_2_reward_law():
    with report(2, "reward law r = max(exp(delta) - 1, 0)", budget_s=1):
        rng = np.random.default_rng(102)
        for _ in range(2000):
            before = float(rng.uniform(0, 4))
            after = float(rng.uniform(0, 4))
            r = compute_reward(before, after)
            assert r >= 0.0
            if after >= before:
                assert r == 0.0
            else:
                assert abs(r - (math.exp(before - after) - 1.0)) <= 1e-15
        assert abs(compute_reward(math.log(2), 0.0) - 1.0) <= 1e-15


def test_criterion_3_return_oracle():
    with report(3, "discounted return matches naive-loop summation", budget_s=1):
        rng = np.random.default_rng(103)
        gammas = [0.0, 1.0]
        for trial in range(1000):
            n = int(rng.integers(1, 15))
            rewards = rng.uniform(0, 3, size=n)
            gamma = gammas[trial % 2] if trial < 100 else float(rng.uniform())
            t = int(rng.integers(0, n))
            naive = 0.0
            for k in range(n - t):
                naive += gamma**k * rewards[t + k]
            assert abs(discounted_return(rewards, gamma, t) - naive) <= 1e-12


def test_criterion_4_policy_ascent():
    with report(4, "single-step ascent 100/100 and surrogate gradient oracle",
                budget_s=10):
        cfg = EngineConfig(policy_lr=1e-3)
        for trial in range(100):
            rng = np.random.default_rng(4000 + trial)
            policy = init_mlp([3, 5, 2], rng)
            states = rng.normal(size=(1, 3))
            actions, log_probs = sample_pseudo_labels(policy, states, rng)
            traj = Trajectory(1)
            traj.append(TrajectoryStep(states, actions, log_probs, 1.0))
            before = log_softmax(mlp_forward(policy, states)[0])[0, actions[0]]
            policy_update(policy, traj, cfg)
            after = log_softmax(mlp_forward(policy, states)[0])[0, actions[0]]
            assert after > before

        # surrogate gradient vs central finite differences
        rng = np.random.default_rng(104)
        policy = init_mlp([2, 4, 2], rng)
        traj = Trajectory(5)
        for _ in range(4):
            states = rng.normal(size=(3, 2))
            actions, log_probs = sample_pseudo_labels(policy, states, rng)
            traj.append(TrajectoryStep(states, actions, log_probs,
                                       float(rng.uniform(0, 2))))

        def surrogate():
            rewards = [s.reward for s in traj.steps]
            total = 0.0
            for t, step in enumerate(traj.steps):
                g_t = discounted_return(rewards, 0.9, t)
                logp = log_softmax(mlp_forward(policy, step.states)[0])
                total += g_t * logp[np.arange(len(step.actions)),
                                    step.actions].mean()
            return total

        _, grad = _policy_loss_grads(policy, traj, 0.9)
        h = 1e-5
        for p, a in zip(policy.parameters(), policy.views(-grad)):
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = p[idx]
                p[idx] = orig + h
                hi = surrogate()
                p[idx] = orig - h
                lo = surrogate()
                p[idx] = orig
                numeric = (hi - lo) / (2 * h)
                denom = max(abs(numeric), 1e-8)
                assert abs(a[idx] - numeric) / denom < 1e-4


def test_criterion_5_bandit_convergence():
    with report(5, "bandit: P(action 0) > 0.99 within 5000 updates, 5/5 seeds",
                budget_s=30):
        for seed in (1, 2, 3, 4, 5):
            rng = np.random.default_rng(seed)
            policy = init_mlp([4, 8, 2], rng)
            cfg = EngineConfig(policy_lr=5e-3, beta=1, gamma=0.9)
            opt = AdamW(policy.flat, cfg.policy_lr)
            state = rng.standard_normal((1, 4))
            converged = False
            for _ in range(5000):
                actions, log_probs = sample_pseudo_labels(policy, state, rng)
                reward = 1.0 if actions[0] == 0 else 0.0
                traj = Trajectory(1)
                traj.append(TrajectoryStep(state, actions, log_probs, reward))
                policy_update(policy, traj, cfg, opt)
                p0 = np.exp(log_softmax(mlp_forward(policy, state)[0]))[0, 0]
                if p0 > 0.99:
                    converged = True
                    break
            assert converged, f"seed {seed} did not converge"


def test_criterion_6_degeneracy_equivalence():
    with report(6, "empty-unlabeled and zero-pseudo-weight runs match supervised"):
        samples = generate_overlapping_gaussians(80, 4, 1.0, seed=6)
        splits = split_dataset(samples, 0.5, (0.7, 0.1, 0.2), seed=6)
        cfg = EngineConfig(epochs=3, warmup_steps=20, classifier_lr=1e-2,
                           policy_lr=1e-2, beta=5, batch_labeled=16,
                           batch_unlabeled=16, batch_val=16, hidden_dims=(8,),
                           seed=6)
        sup = train_supervised_only(splits, cfg).final_metrics
        stripped = DatasetSplits(splits.labeled_train, [], splits.validation,
                                 splits.test)
        empty_u = train(stripped, cfg).final_metrics
        zero_w = train(splits, replace(cfg, pseudo_loss_weight=0.0)).final_metrics
        for got in (empty_u, zero_w):
            assert abs(got.accuracy - sup.accuracy) < 1e-12
            assert abs(got.f1 - sup.f1) < 1e-12
            assert abs(got.auc - sup.auc) < 1e-12


def test_criterion_7_auc_oracle():
    with report(7, "rank-statistic AUC matches pair enumeration and is "
                   "monotone-transform invariant"):
        rng = np.random.default_rng(107)
        for _ in range(1000):
            n = int(rng.integers(4, 16))
            # integer scores force ties
            scores = rng.integers(0, 6, size=n).astype(float)
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                continue
            pos = scores[labels == 1]
            neg = scores[labels == 0]
            total = 0.0
            for p in pos:
                for q in neg:
                    total += 1.0 if p > q else (0.5 if p == q else 0.0)
            oracle = total / (len(pos) * len(neg))
            got = auc_roc(scores, labels)
            assert abs(got - oracle) <= 1e-12
            jitter = scores + rng.normal(size=n) * 1e-3
            base = auc_roc(jitter, labels)
            assert abs(auc_roc(np.exp(jitter), labels) - base) <= 1e-12
            assert abs(auc_roc(2.5 * jitter + 1.0, labels) - base) <= 1e-12


def test_criterion_8_directional_ssl_benefit():
    with report(8, "pseudo_sup mean AUC >= supervised - 0.005 and wins >= 3/5",
                budget_s=300):
        wins = 0
        pseudo_aucs = []
        supervised_aucs = []
        for seed in (1, 2, 3, 4, 5):
            # dim 20, separation 1.0, ~2000 train samples, 25% labeled
            samples = generate_overlapping_gaussians(1430, 20, 1.0, seed)
            splits = split_dataset(samples, 0.25, (0.7, 0.1, 0.2), seed)
            cfg = EngineConfig(classifier_lr=1e-3, policy_lr=1e-3, epochs=20,
                               warmup_steps=100, batch_labeled=32,
                               batch_unlabeled=32, batch_val=64, seed=seed)
            a = train(splits, cfg).final_metrics.auc
            b = train_supervised_only(splits, cfg).final_metrics.auc
            pseudo_aucs.append(a)
            supervised_aucs.append(b)
            wins += a > b
        assert np.mean(pseudo_aucs) >= np.mean(supervised_aucs) - 0.005
        assert wins >= 3, f"pseudo_sup won only {wins}/5 seeds"


def test_criterion_9_ablation_harness(tmp_path):
    with report(9, "full beta/gamma grid completes; AUC stable across beta "
                   "at gamma 0.9", budget_s=1200):
        beta_grid = [10, 50, 100]
        gamma_grid = [0.0, 0.5, 0.9, 1.0]
        cfg = ExperimentConfig(
            method="pseudo_sup",
            seeds=(1,),
            output_dir=str(tmp_path / "ablation"),
            dataset=DatasetSpec(n_per_class=200, dim=10, class_separation=1.0,
                                label_fraction=0.5),
            engine=EngineConfig(epochs=10, warmup_steps=50, classifier_lr=1e-3,
                                policy_lr=1e-3, batch_labeled=8,
                                batch_unlabeled=8, batch_val=32,
                                hidden_dims=(16,)),
        )
        path = run_ablation(cfg, beta_grid, gamma_grid)
        with open(path) as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        assert len(rows) == len(beta_grid) * len(gamma_grid) * 1
        aucs_at_09 = [float(r[3]) for r in rows if float(r[1]) == 0.9]
        assert len(aucs_at_09) == len(beta_grid)
        assert max(aucs_at_09) - min(aucs_at_09) <= 0.05
        assert os.path.exists(os.path.join(cfg.output_dir, "ablation_pivot.csv"))


def test_criterion_10_progression_labels():
    with report(10, "progression-label boundary suite and OLS slope oracle"):
        t = np.array([0.0, 1.0, 2.0])
        flat = LongitudinalSeries(t, np.zeros((3, 52)), np.zeros(3))
        res = derive_progression_labels(flat)
        assert not res.td_progression and not res.md_fast_progression

        td = np.zeros((3, 52))
        for loc in range(3):
            td[:, loc] = [0.0, -1.0, -2.0]
        res = derive_progression_labels(LongitudinalSeries(t, td, np.zeros(3)))
        assert res.td_progression

        res = derive_progression_labels(
            LongitudinalSeries(t, np.zeros((3, 52)), np.array([0.0, -1.0, -2.0]))
        )
        assert res.md_fast_progression

        rng = np.random.default_rng(110)
        ts = np.cumsum(rng.uniform(0.5, 1.5, size=7))
        td = rng.uniform(-20, 10, size=(7, 52))
        md = rng.uniform(-15, 5, size=7)
        res = derive_progression_labels(LongitudinalSeries(ts, td, md))
        tb = ts.mean()
        denom = np.sum((ts - tb) ** 2)
        for loc in range(52):
            v = td[:, loc]
            oracle = np.sum((ts - tb) * (v - v.mean())) / denom
            assert abs(res.td_slopes[loc] - oracle) <= 1e-10
        oracle = np.sum((ts - tb) * (md - md.mean())) / denom
        assert abs(res.md_slope - oracle) <= 1e-10


def test_criterion_11_qc_boundaries():
    with report(11, "quality-control boundary semantics"):
        def rec(**kw):
            defaults = dict(signal_strength=10, fixation_loss_rate=0.0,
                            false_positive_rate=0.0, false_negative_rate=0.0)
            defaults.update(kw)
            return (Sample(id="x", features=np.zeros(1), label=0),
                    QcRecord(**defaults))

        def retained(record):
            kept, _ = qc_filter([record])
            return len(kept) == 1

        assert retained(rec(signal_strength=6))
        assert not retained(rec(signal_strength=5))
        assert retained(rec(fixation_loss_rate=0.33))
        assert not retained(rec(fixation_loss_rate=0.34))
        assert retained(rec(false_positive_rate=0.20))
        assert not retained(rec(false_positive_rate=0.21))
        assert retained(rec(false_negative_rate=0.20))
        assert not retained(rec(false_negative_rate=0.21))


def test_criterion_12_determinism(tmp_path):
    with report(12, "re-run produces byte-identical history and summary CSVs"):
        cfg = ExperimentConfig(
            method="pseudo_sup",
            seeds=(1, 2),
            output_dir=str(tmp_path / "det"),
            dataset=DatasetSpec(n_per_class=60, dim=4, class_separation=1.0,
                                label_fraction=0.5),
            engine=EngineConfig(epochs=2, warmup_steps=10, classifier_lr=1e-2,
                                policy_lr=1e-2, beta=5, batch_labeled=16,
                                batch_unlabeled=16, batch_val=16,
                                hidden_dims=(8,)),
        )
        files = ["summary.csv", "pseudo_sup/1/history.csv",
                 "pseudo_sup/2/history.csv"]
        run_experiment(cfg)
        first = {}
        for f in files:
            with open(os.path.join(cfg.output_dir, f), "rb") as fh:
                first[f] = fh.read()
        run_experiment(cfg)
        for f in files:
            with open(os.path.join(cfg.output_dir, f), "rb") as fh:
                assert fh.read() == first[f], f"{f} differs between runs"
