import math
import re

import numpy as np
import pytest

from pseudosup.nn_core import (
    AdamW,
    MlpModel,
    NonFiniteError,
    clone_model,
    init_mlp,
    load_model,
    log_softmax,
    mlp_backward,
    mlp_forward,
    save_model,
    softmax_cross_entropy,
)


class ReferenceAdamW:
    """The per-array AdamW loop that the flat-buffer step replaced (no decay)."""

    def __init__(self, params, lr, betas=(0.9, 0.999), eps=1e-8):
        self.params, self.lr, self.eps = params, lr, eps
        self.beta1, self.beta2 = betas
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, grads):
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def per_value_checkpoint_text(model):
    """The checkpoint text as the per-layer, per-value writer produced it."""
    lines = ["mlp " + " ".join(str(d) for d in model.layer_dims)]
    for w, b in zip(model.weights, model.biases):
        lines.extend(f"{x:.17g}" for x in w.ravel())
        lines.extend(f"{x:.17g}" for x in b)
    return "\n".join(lines) + "\n"


def scalar_forward(model, x):
    """Independent straight-line re-computation with plain Python loops."""
    a = list(x)
    for layer, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = []
        for j in range(w.shape[1]):
            s = b[j]
            for i in range(w.shape[0]):
                s += a[i] * w[i, j]
            z.append(s)
        if layer < len(model.weights) - 1:
            z = [max(v, 0.0) for v in z]
        a = z
    return a


def numeric_gradient(loss_fn, params, step=1e-5):
    grads = []
    for p in params:
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + step
            hi = loss_fn()
            p[idx] = orig - step
            lo = loss_fn()
            p[idx] = orig
            g[idx] = (hi - lo) / (2 * step)
        grads.append(g)
    return grads


class TestForward:
    def test_zero_weights_give_zero_logits(self):
        model = MlpModel([3, 4, 2], np.zeros(3 * 4 + 4 + 4 * 2 + 2))
        logits, _ = mlp_forward(model, np.random.default_rng(0).normal(size=(5, 3)))
        assert np.all(logits == 0.0)

    def test_identity_single_layer(self):
        model = MlpModel([3, 3], np.concatenate([np.eye(3).ravel(), np.zeros(3)]))
        v = np.array([[1.5, -2.0, 0.25]])
        logits, _ = mlp_forward(model, v)
        np.testing.assert_array_equal(logits, v)

    def test_random_242_matches_scalar_recompute(self):
        rng = np.random.default_rng(42)
        model = init_mlp([2, 4, 2], rng)
        x = rng.normal(size=2)
        logits, _ = mlp_forward(model, x[None, :])
        expected = scalar_forward(model, x)
        np.testing.assert_allclose(logits[0], expected, rtol=1e-12)

    def test_dimension_mismatch_rejected(self):
        model = init_mlp([3, 2], np.random.default_rng(0))
        with pytest.raises(ValueError):
            mlp_forward(model, np.zeros((4, 5)))

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        model = init_mlp([4, 8, 2], rng)
        x = rng.normal(size=(6, 4))
        a, _ = mlp_forward(model, x)
        b, _ = mlp_forward(model, x)
        np.testing.assert_array_equal(a, b)


class TestFlatBuffer:
    def test_layout_follows_parameters_order(self):
        model = init_mlp([3, 4, 2], np.random.default_rng(1))
        assert model.flat.dtype == np.float64
        assert model.flat.shape == (3 * 4 + 4 + 4 * 2 + 2,)
        np.testing.assert_array_equal(
            model.flat, np.concatenate([p.ravel() for p in model.parameters()]))

    def test_writes_through_views_reach_flat(self):
        model = init_mlp([3, 4, 2], np.random.default_rng(2))
        model.parameters()[2][1, 0] = 7.0        # W1[1, 0]
        assert model.flat[3 * 4 + 4 + 1 * 2 + 0] == 7.0
        model.weights[0][2, 3] = -5.0
        assert model.flat[2 * 4 + 3] == -5.0
        model.biases[1][1] = 9.0
        assert model.flat[-1] == 9.0
        model.flat[12] = 3.0                     # b0[0]
        assert model.biases[0][0] == 3.0 and model.parameters()[1][0] == 3.0
        buf = np.zeros_like(model.flat)
        model.views(buf)[2][1, 0] = 4.0          # W1[1, 0] of another buffer
        assert buf[3 * 4 + 4 + 1 * 2 + 0] == 4.0 and model.flat[3 * 4 + 4 + 1 * 2] == 7.0

    def test_constructor_copies_flat(self):
        flat = np.arange(9)                      # integers: stored as float64
        model = MlpModel([2, 3], flat)
        assert model.flat.dtype == np.float64
        assert not np.shares_memory(model.flat, flat)
        flat[0] = 50
        assert model.weights[0][0, 0] == 0.0
        np.testing.assert_array_equal(model.weights[0], [[0, 1, 2], [3, 4, 5]])
        np.testing.assert_array_equal(model.biases[0], [6, 7, 8])
        buf = np.zeros(9)
        assert not np.shares_memory(MlpModel([2, 3], buf).flat, buf)

    def test_clone_has_independent_buffer(self):
        model = init_mlp([3, 4, 2], np.random.default_rng(3))
        copy = clone_model(model)
        assert not np.shares_memory(copy.flat, model.flat)
        np.testing.assert_array_equal(copy.flat, model.flat)
        before = model.flat.copy()
        copy.weights[0][0, 0] += 1.0
        copy.flat[-1] = 42.0
        np.testing.assert_array_equal(model.flat, before)
        assert copy.layer_dims == model.layer_dims
        assert copy.layer_dims is not model.layer_dims

    def test_constructor_checks_size(self):
        with pytest.raises(ValueError, match="5 parameter values, expected 6"):
            MlpModel([2, 2], np.zeros(5))
        with pytest.raises(ValueError, match="7 parameter values, expected 6"):
            MlpModel([2, 2], np.zeros(7))
        for bad in (np.zeros((2, 3)), np.zeros((6, 1))):
            message = f"parameter buffer of shape {bad.shape}, expected (6,)"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                MlpModel([2, 2], bad)
        for dims in ([], [5], [2, 0], [2, -1]):
            with pytest.raises(ValueError, match="invalid layer dims"):
                MlpModel(dims, np.zeros(0))
            with pytest.raises(ValueError, match="invalid layer dims"):
                init_mlp(dims, np.random.default_rng(0))


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_loss_is_ln2(self):
        loss, _ = softmax_cross_entropy(np.array([[0.0, 0.0]]), np.array([1]))
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_saturated_correct_no_overflow(self):
        loss, grad = softmax_cross_entropy(np.array([[1000.0, -1000.0]]), np.array([0]))
        assert loss < 1e-6
        assert np.all(np.isfinite(grad))

    def test_random_matches_brute_force(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(3, 2))
        labels = np.array([0, 1, 1])
        loss, _ = softmax_cross_entropy(logits, labels)
        expected = 0.0
        for row, lab in zip(logits, labels):
            denom = sum(math.exp(v) for v in row)
            expected -= math.log(math.exp(row[lab]) / denom)
        expected /= 3
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((2, 2)), np.array([0, 2]))

    @pytest.mark.parametrize("logits_shape, n_labels, n_weights, message", [
        ((4,), 4, None, "logits must be \\[B x C\\] with one label per row"),
        ((2, 3, 2), 2, None, "logits must be \\[B x C\\] with one label per row"),
        ((3, 2), 2, None, "logits must be \\[B x C\\] with one label per row"),
        ((3, 2), 3, 2, "weights must hold one value per row"),
        ((3, 2), 3, 4, "weights must hold one value per row"),
    ])
    def test_shapes_checked(self, logits_shape, n_labels, n_weights, message):
        weights = None if n_weights is None else np.ones(n_weights)
        with pytest.raises(ValueError, match=f"^{message}$"):
            softmax_cross_entropy(np.zeros(logits_shape), np.zeros(n_labels, dtype=int),
                                  weights)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        probs = np.exp(log_softmax(rng.normal(size=(10, 4)) * 50))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("n_classes", [2, 3, 8, 13])
    def test_log_softmax_matches_row_formula(self, n_classes):
        logits = np.random.default_rng(n_classes).normal(size=(9, n_classes)) * 20
        shifted = logits - logits.max(axis=1, keepdims=True)
        expected = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        np.testing.assert_allclose(log_softmax(logits), expected, rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("layout", ["one_row", "fortran", "view"])
    def test_log_softmax_leaves_input_unchanged(self, layout):
        logits = np.random.default_rng(17).normal(size=(5, 3)) + 4.0
        if layout == "one_row":
            logits = logits[:1].copy()
        elif layout == "fortran":
            logits = np.asfortranarray(logits)
        else:
            logits = logits[:, ::2]
        before = logits.copy()
        logp = log_softmax(logits)
        np.testing.assert_array_equal(logits, before)
        np.testing.assert_allclose(np.exp(logp).sum(axis=1), 1.0, atol=1e-12)
        _, grad = softmax_cross_entropy(logits, np.zeros(len(logits), dtype=int))
        np.testing.assert_array_equal(logits, before)
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(11)
        logits = rng.normal(size=(6, 3))
        labels = rng.integers(0, 3, size=6)
        base, _ = softmax_cross_entropy(logits, labels)
        shifted, _ = softmax_cross_entropy(logits + 123.456, labels)
        assert shifted == pytest.approx(base, abs=1e-9)

    def test_grad_rows_sum_to_zero(self):
        rng = np.random.default_rng(13)
        _, grad = softmax_cross_entropy(rng.normal(size=(8, 3)), rng.integers(0, 3, 8))
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-9)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_loss_raises(self, bad):
        logits = np.array([[0.0, 1.0], [bad, 0.0]])
        with pytest.raises(NonFiniteError, match="cross-entropy loss is nan"):
            softmax_cross_entropy(logits, np.array([0, 1]))
        with pytest.raises(NonFiniteError):
            softmax_cross_entropy(logits, np.array([0, 1]), np.array([0.5, 0.5]))

    def test_loss_never_negative(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            loss, _ = softmax_cross_entropy(rng.normal(size=(4, 3)) * 10,
                                            rng.integers(0, 3, 4))
            assert loss >= 0.0


class TestBackward:
    def test_zero_grad_logits(self):
        model = init_mlp([3, 4, 2], np.random.default_rng(0))
        _, cache = mlp_forward(model, np.ones((2, 3)))
        grad = mlp_backward(cache, np.zeros((2, 2)))
        assert grad.shape == model.flat.shape
        assert np.all(grad == 0.0)

    def test_single_linear_layer_closed_form(self):
        model = MlpModel([3, 2], np.concatenate([np.random.default_rng(1).normal(size=6),
                                                 np.zeros(2)]))
        x = np.array([[1.0, -2.0, 0.5]])
        _, cache = mlp_forward(model, x)
        g = np.array([[0.3, -0.7]])
        grads = model.views(mlp_backward(cache, g))
        np.testing.assert_array_equal(grads[0], x.T @ g)
        np.testing.assert_array_equal(grads[1], g[0])

    def test_mismatched_cache_rejected(self):
        model = init_mlp([3, 2], np.random.default_rng(0))
        _, cache = mlp_forward(model, np.ones((2, 3)))
        with pytest.raises(ValueError):
            mlp_backward(cache, np.zeros((3, 2)))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(99)
        for _ in range(5):
            dims = [int(rng.integers(2, 5)) for _ in range(3)]
            model = init_mlp(dims, rng)
            x = rng.normal(size=(int(rng.integers(1, 6)), dims[0]))
            labels = rng.integers(0, dims[-1], size=len(x))

            def loss_fn():
                logits, _ = mlp_forward(model, x)
                return softmax_cross_entropy(logits, labels)[0]

            logits, cache = mlp_forward(model, x)
            _, grad_logits = softmax_cross_entropy(logits, labels)
            analytic = mlp_backward(cache, grad_logits)
            numeric = numeric_gradient(loss_fn, model.parameters())
            for a, n in zip(model.views(analytic), numeric):
                denom = np.maximum(np.abs(n), 1e-8)
                assert np.max(np.abs(a - n) / denom) < 1e-4


class TestAdamW:
    def test_zero_gradients_leave_params_unchanged(self):
        p = np.array([1.0, -2.0, 3.0])
        opt = AdamW(p, lr=0.1)
        before = p.copy()
        opt.step(np.zeros(3))
        np.testing.assert_array_equal(p, before)

    def test_single_step_magnitude_equals_lr(self):
        # bias-corrected m/sqrt(v) = 1 for the first step with g = 1
        p = np.array([0.0])
        opt = AdamW(p, lr=0.05)
        opt.step(np.array([1.0]))
        assert p[0] == pytest.approx(-0.05, rel=1e-6)

    def test_matches_per_array_reference_for_20_steps(self):
        rng = np.random.default_rng(31)
        model = init_mlp([4, 6, 5, 3], rng)
        ref_params = [p.copy() for p in model.parameters()]
        ref = ReferenceAdamW(ref_params, lr=1e-2)
        opt = AdamW(model.flat, lr=1e-2)
        for _ in range(20):
            x = rng.normal(size=(7, 4))
            labels = rng.integers(0, 3, size=7)
            logits, cache = mlp_forward(model, x)
            _, grad = softmax_cross_entropy(logits, labels)
            flat_grad = mlp_backward(cache, grad)
            ref.step([g.copy() for g in model.views(flat_grad)])
            opt.step(flat_grad)
            for a, b in zip(model.parameters(), ref_params):
                np.testing.assert_array_equal(a, b)

    def test_weight_decay_two_steps_by_hand(self):
        # decay scales the pre-update parameters, then the Adam update applies
        lr, wd, b1, b2, eps = 0.1, 0.1, 0.9, 0.999, 1e-8
        p = np.array([2.0, -1.0])
        opt = AdamW(p, lr=lr, weight_decay=wd)
        grads = [np.array([0.5, -3.0]), np.array([-1.5, 0.25])]
        for i in range(2):
            expected, post_order = [], []
            for p0, m0, v0, g in zip(p.tolist(), opt.m.tolist(), opt.v.tolist(),
                                     grads[i].tolist()):
                m = m0 * b1 + (1 - b1) * g
                v = v0 * b2 + (1 - b2) * g * g
                update = lr * (m / (1 - b1 ** (i + 1))) / (
                    math.sqrt(v / (1 - b2 ** (i + 1))) + eps)
                expected.append((p0 - lr * wd * p0) - update)
                post_order.append((p0 - update) - lr * wd * (p0 - update))
            opt.step(grads[i])
            assert p.tolist() == expected
            assert p.tolist() != post_order
        # step 1 moves each entry by lr * sign(g); step 2 worked out on paper
        assert p.tolist() == pytest.approx([1.910619, -0.820509], abs=1e-6)

    def test_decoupled_decay_shrinks_params(self):
        p = np.array([2.0])
        opt = AdamW(p, lr=0.1, weight_decay=0.5)
        opt.step(np.array([0.0]))
        assert p[0] == pytest.approx(2.0 * (1 - 0.1 * 0.5), rel=1e-12)

    def test_shape_mismatch_rejected(self):
        opt = AdamW(np.zeros(3), lr=0.1)
        with pytest.raises(ValueError):
            opt.step(np.zeros(4))

    def test_gradient_size_and_layout_checked(self):
        rng = np.random.default_rng(33)
        model = init_mlp([3, 4, 2], rng)
        opt = AdamW(model.flat, lr=0.1)
        logits, cache = mlp_forward(model, rng.normal(size=(5, 3)))
        grad = mlp_backward(cache, rng.normal(size=logits.shape))
        other = init_mlp([3, 2, 4, 2], rng)
        _, other_cache = mlp_forward(other, rng.normal(size=(5, 3)))
        bad_grads = [
            grad[:-1],                                    # one value short
            np.append(grad, 0.0),                         # one value too many
            grad.reshape(2, -1),                          # right size, not flat
            mlp_backward(other_cache, np.zeros((5, 2))),  # another layout
        ]
        before = model.flat.copy()
        for bad in bad_grads:
            with pytest.raises(ValueError, match="gradient shape"):
                opt.step(bad)
        np.testing.assert_array_equal(model.flat, before)
        assert opt.t == 0

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_parameters_raise(self):
        p = np.array([0.0, 1.0])
        opt = AdamW(p, lr=1e308)
        opt.step(np.ones(2))
        assert np.isfinite(p).all()
        with pytest.raises(NonFiniteError, match="non-finite after AdamW step 2"):
            opt.step(np.ones(2))

    @pytest.mark.parametrize("name", ["lr", "weight_decay"])
    @pytest.mark.parametrize("value", [float("nan"), math.inf, -math.inf, -1e-12])
    def test_bad_hyperparameter_rejected_before_any_step(self, name, value):
        p = np.array([1.0, -2.0])
        kwargs = {"lr": 0.1, "weight_decay": 0.0, name: value}
        with pytest.raises(ValueError, match=rf"^AdamW {name} must be finite and >= 0, "
                                             rf"got {re.escape(repr(value))}$"):
            AdamW(p, **kwargs)
        np.testing.assert_array_equal(p, [1.0, -2.0])

    @pytest.mark.parametrize("kwargs", [{"lr": 0.0}, {"lr": 1e308},
                                        {"lr": 0.1, "weight_decay": 0.0},
                                        {"lr": 0.1, "weight_decay": 1e308}])
    def test_zero_and_large_finite_hyperparameters_accepted(self, kwargs):
        opt = AdamW(np.zeros(2), **kwargs)
        assert (opt.lr, opt.weight_decay) == (kwargs["lr"], kwargs.get("weight_decay", 0.0))

    def test_step_counter_increases(self):
        p = np.zeros(2)
        opt = AdamW(p, lr=0.1)
        for expected in (1, 2, 3):
            opt.step(np.ones(2))
            assert opt.t == expected


class TestCheckpoint:
    def test_text_matches_per_value_writer(self, tmp_path):
        rng = np.random.default_rng(24)
        model = init_mlp([5, 7, 3], rng)
        model.biases[0][:] = rng.normal(size=7) * 1e-300   # subnormal values
        model.biases[1][:] = [-0.0, 1e300, 0.1]
        path = tmp_path / "model.ckpt"
        save_model(model, str(path))
        assert path.read_text() == per_value_checkpoint_text(model)

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(23)
        model = init_mlp([5, 7, 3], rng)
        model.biases[0][:3] = [-0.0, 5e-324, -1e300]      # signed zero, subnormal, huge
        path, again = tmp_path / "model.ckpt", tmp_path / "again.ckpt"
        save_model(model, str(path))
        loaded = load_model(str(path))
        assert loaded.layer_dims == model.layer_dims
        assert loaded.flat.tobytes() == model.flat.tobytes()
        save_model(loaded, str(again))
        assert again.read_text() == path.read_text()

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        for header, message in [("nope 1 2", "not an mlp checkpoint"),
                                ("mlp", "invalid layer dims []"),
                                ("mlp 5", "invalid layer dims [5]"),
                                ("mlp 2 0", "invalid layer dims [2, 0]"),
                                ("mlp 2 -1", "invalid layer dims [2, -1]"),
                                # a dim loads only as save_model writes it, str(d)
                                ("mlp \u0662 3 2", "line 1: bad layer dim '\u0662'"),
                                ("mlp 2 0_3 2", "line 1: bad layer dim '0_3'"),
                                ("mlp +2 3 2", "line 1: bad layer dim '+2'"),
                                ("mlp 02 3 2", "line 1: bad layer dim '02'")]:
            path.write_text(header + "\n")
            with pytest.raises(ValueError, match=re.escape(f"bad.ckpt: {message}")):
                load_model(str(path))

    def test_value_count_checked(self, tmp_path):
        path = tmp_path / "short.ckpt"
        path.write_text("mlp 2 2\n" + "0.5\n" * 5)
        with pytest.raises(ValueError, match="short.ckpt: 5 parameter values, expected 6"):
            load_model(str(path))

    def test_non_numeric_value_names_path_and_line(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("mlp 2 2\n" + "0.5\n" * 3 + "abc\n" + "0.5\n" * 2)
        with pytest.raises(ValueError, match="bad.ckpt: line 5: non-numeric value 'abc'"):
            load_model(str(path))

    @pytest.mark.parametrize("data, message", [
        (b"mlp 2 2\n" + b"0.5\n" * 3 + b"0.5\xff\n" + b"0.5\n" * 2,
         "line 5: non-numeric value '0.5\\udcff'"),
        (b"mlp 2 2\xff\n" + b"0.5\n" * 6, "line 1: bad layer dim '2\\udcff'"),
    ], ids=["value", "header"])
    def test_byte_that_is_not_utf8_names_path_and_line(self, tmp_path, data, message):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=re.escape(f"bad.ckpt: {message}") + "$"):
            load_model(str(path))

    @pytest.mark.parametrize("value", ["1_0", "\u0663"])
    def test_python_only_number_form_is_non_numeric(self, tmp_path, value):
        path = tmp_path / "bad.ckpt"
        path.write_text("mlp 2 2\n" + "0.5\n" * 3 + value + "\n" + "0.5\n" * 2,
                        encoding="utf-8")
        with pytest.raises(ValueError, match=f"bad.ckpt: line 5: non-numeric value {value!r}$"):
            load_model(str(path))

    def test_plain_number_forms_load(self, tmp_path):
        path = tmp_path / "ok.ckpt"
        path.write_text("mlp 2 2\n+2\n.5\n-0\n1e5\n-1.5E-3\n7\n")
        loaded = load_model(str(path))
        assert loaded.flat.tolist() == [2.0, 0.5, 0.0, 1e5, -1.5e-3, 7.0]
        assert math.copysign(1.0, loaded.flat[2]) == -1.0

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_value_names_path_and_line(self, tmp_path, value):
        path = tmp_path / "bad.ckpt"
        path.write_text("mlp 2 2\n" + "0.5\n" * 2 + value + "\n" + "0.5\n" * 3)
        with pytest.raises(ValueError, match="bad.ckpt: line 4: non-finite value"):
            load_model(str(path))

    @pytest.mark.parametrize("body, lineno", [
        ("\n" + "0.5\n" * 6, 2),                     # first line
        ("0.5\n" * 3 + "  \n" + "0.5\n" * 3, 5),      # among the values
        ("0.5\n" * 6 + "\n", 8),                      # after the last value
    ])
    def test_blank_line_names_path_and_line(self, tmp_path, body, lineno):
        path = tmp_path / "bad.ckpt"
        path.write_text("mlp 2 2\n" + body)
        with pytest.raises(ValueError, match=f"bad.ckpt: line {lineno}: blank line"):
            load_model(str(path))
