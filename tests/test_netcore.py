import dataclasses
import gc
import importlib
import json
import re
import threading
import time
import tracemalloc

import numpy as np
import pytest

from penscript.dataio import Sample
from penscript.losses import ctc_loss, greedy_decode
from penscript.netcore import (
    Adam,
    BatchNorm1d,
    BiLSTM,
    Conv1d,
    Dense,
    Dropout,
    LSTM,
    MaxPool1d,
    ModelConfig,
    RecognitionModel,
    Tensor,
    TrainConfig,
    load_checkpoint,
    predict,
    save_checkpoint,
    train,
)
from penscript.netcore import tensor as T
from penscript.netcore.model import BLOB_DTYPE, _blob_arrays
from penscript.seeding import stream
from oracles import central_diff, conv_block_oracle, lstm_oracle, maxpool_oracle, rel_err

# the package's `train` names the function, so fetch the module by its path
train_module = importlib.import_module("penscript.netcore.train")


def projection_grad(build, x_data, rng):
    """Analytic dx of sum(proj * build(x)) plus the matching scalar closure."""
    x = Tensor(x_data.copy())
    out = build(x)
    proj = rng.normal(0, 1, out.data.shape)
    out.backward(proj)

    def scalar():
        return float(np.sum(proj * build(Tensor(x_data)).data))

    return x.grad, scalar


def tape_nodes(out):
    """Every tensor in out's graph, out included."""
    seen = {id(out): out}
    stack = [out]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen[id(p)] = p
                stack.append(p)
    return list(seen.values())


class TestTensorBasics:
    def test_backward_seed_shape_checked(self):
        x = Tensor(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            x.backward(np.zeros((3, 2)))

    def test_shared_parent_accumulates(self):
        x = Tensor(np.array([3.0]))

        def back(g):  # x enters y twice, once per entry
            return g[:1], g[1:]

        y = Tensor(np.concatenate([x.data, x.data]), (x, x), back)
        y.backward(np.array([2.0, 5.0]))
        assert np.allclose(x.grad, [7.0])

    def test_grad_accumulates_across_backwards(self):
        x = Tensor(np.array([2.0]))
        T.relu(x).backward(np.ones(1))
        first = x.grad.copy()
        T.relu(x).backward(np.ones(1))
        assert np.allclose(first, [1.0])
        assert np.allclose(x.grad, 2 * first)

    def test_grad_is_made_on_first_read(self):
        a = Tensor(np.ones((2, 3)))
        b = T.relu(a)
        with T.no_tape():
            c = T.relu(a)
        assert a._grad is None and b._grad is None and c._grad is None
        grads = [t.grad for t in (a, b, c)]
        for grad in grads:
            assert grad.shape == (2, 3) and not grad.any()
        assert a.grad is grads[0]
        for i, first in enumerate(grads):
            for second in grads[i + 1 :]:
                assert not np.shares_memory(first, second)

    def test_backward_frees_the_graph_but_output_and_leaves_keep_grads(self, rng):
        x, w, b = (Tensor(rng.normal(0, 1, shape)) for shape in [(2, 3), (3, 4), (4,)])
        seed = rng.normal(0, 1, (2, 4))

        def graph():
            mid = T.affine(x, w, b)
            return mid, T.log_softmax_op(mid)

        mid, out = graph()
        out.backward(seed)
        assert np.array_equal(out.grad, seed)
        assert mid._grad is None
        for node in (mid, out):
            assert node._parents == ()
        first = [t.grad.copy() for t in (x, w, b)]
        assert all(g.any() for g in first)
        graph()[1].backward(seed)  # a second graph over the same leaves
        for t, g in zip((x, w, b), first):
            assert np.allclose(t.grad, 2 * g)

    def test_second_backward_through_a_graph_raises(self, rng):
        x, w, b = (Tensor(rng.normal(0, 1, shape)) for shape in [(2, 3), (3, 3), (3,)])
        mid = T.relu(x)
        out = T.log_softmax_op(mid)
        seed = rng.normal(0, 1, (2, 3))
        out.backward(seed)
        held = [out.grad.copy(), x.grad.copy()]
        with pytest.raises(ValueError, match="^backward through a graph that was already backpropagated$"):
            out.backward(seed)
        # a new graph over a used node fails before any pullback runs
        later = T.affine(mid, w, b)
        with pytest.raises(ValueError, match="already backpropagated"):
            later.backward(seed)
        assert w._grad is None and b._grad is None
        assert np.array_equal(out.grad, held[0]) and np.array_equal(x.grad, held[1])

    def test_backward_on_an_untaped_result_runs(self):
        x = Tensor(np.array([1.0, -2.0]))
        with T.no_tape():
            out = T.relu(x)
        for _ in range(2):
            out.backward(np.ones(2))
        assert out.grad.tolist() == [2.0, 2.0]
        assert x._grad is None


class TestOpGradients:
    CASES = {
        "log_softmax": (lambda x: T.log_softmax_op(x), (3, 5)),
        "mean_time": (lambda x: T.mean_time(x), (2, 5, 3)),
        "reverse_time": (lambda x: T.reverse_time(x), (2, 4, 3)),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_finite_differences(self, name, rng):
        build, shape = self.CASES[name]
        x_data = rng.normal(0, 1, shape)
        grad, scalar = projection_grad(build, x_data, rng)
        fd = central_diff(scalar, x_data)
        assert rel_err(grad, fd) < 1e-6, name

    def test_relu_gradient_off_kink(self, rng):
        x_data = rng.normal(0, 1, (3, 4))
        x_data[np.abs(x_data) < 0.05] = 0.1
        grad, scalar = projection_grad(lambda x: T.relu(x), x_data, rng)
        assert rel_err(grad, central_diff(scalar, x_data)) < 1e-6


class TestConv:
    def manual_conv(self, x, w, b):
        bsz, t_len, c_in = x.shape
        c_out, _, k = w.shape
        left = (k - 1) // 2
        xp = np.pad(x, ((0, 0), (left, k - 1 - left), (0, 0)))
        out = np.zeros((bsz, t_len, c_out))
        for t in range(t_len):
            for co in range(c_out):
                out[:, t, co] = np.einsum("bic,ci->b", xp[:, t : t + k, :], w[co]) + b[co]
        return out

    @pytest.mark.parametrize("kernel", [1, 2, 3, 4])
    def test_matches_manual_loop(self, kernel, rng):
        x = rng.normal(0, 1, (2, 6, 3))
        w = rng.normal(0, 1, (4, 3, kernel))
        b = rng.normal(0, 1, 4)
        got = T.conv1d_op(Tensor(x), Tensor(w), Tensor(b)).data
        assert np.allclose(got, self.manual_conv(x, w, b), atol=1e-12)

    def test_kernel_one_is_framewise_dense(self, rng):
        x = rng.normal(0, 1, (2, 5, 3))
        w = rng.normal(0, 1, (4, 3, 1))
        b = rng.normal(0, 1, 4)
        got = T.conv1d_op(Tensor(x), Tensor(w), Tensor(b)).data
        expected = x @ w[:, :, 0].T + b
        assert np.allclose(got, expected, atol=1e-12)

    def test_constant_input_constant_core(self, rng):
        # away from the padded borders a constant input stays constant
        w = rng.normal(0, 1, (2, 1, 3))
        x = np.full((1, 8, 1), 0.7)
        got = T.conv1d_op(Tensor(x), Tensor(w), Tensor(np.zeros(2))).data
        assert np.allclose(got[0, 1:-1, :], got[0, 1, :], atol=1e-12)

    def test_gradients(self, rng):
        x = rng.normal(0, 1, (2, 5, 3))
        w = rng.normal(0, 1, (2, 3, 4))
        b = rng.normal(0, 1, 2)
        w_t, b_t = Tensor(w), Tensor(b)
        grad, scalar = projection_grad(lambda v: T.conv1d_op(v, w_t, b_t), x, rng)
        assert rel_err(grad, central_diff(scalar, x)) < 1e-6
        x_t = Tensor(x)
        grad, scalar = projection_grad(lambda v: T.conv1d_op(x_t, v, b_t), w, rng)
        assert rel_err(grad, central_diff(scalar, w)) < 1e-6

    def test_channel_mismatch_rejected(self, rng):
        layer = Conv1d(3, 2, 2, rng)
        with pytest.raises(ValueError):
            layer(Tensor(np.zeros((1, 4, 5))))


class TestMaxPool:
    def test_example(self):
        x = Tensor(np.array([1.0, 3.0, 2.0, 0.0]).reshape(1, 4, 1))
        assert T.maxpool1d_op(x, 2).data.ravel().tolist() == [3.0, 2.0]

    def test_pool_one_is_identity(self, rng):
        x = rng.normal(0, 1, (2, 5, 3))
        assert np.array_equal(T.maxpool1d_op(Tensor(x), 1).data, x)

    def test_partial_window(self):
        x = Tensor(np.array([1.0, 5.0, 2.0]).reshape(1, 3, 1))
        assert T.maxpool1d_op(x, 2).data.ravel().tolist() == [5.0, 2.0]

    def test_gradient_routes_to_argmax(self):
        x = Tensor(np.array([1.0, 3.0, 2.0, 0.0]).reshape(1, 4, 1))
        out = T.maxpool1d_op(x, 2)
        out.backward(np.array([10.0, 20.0]).reshape(1, 2, 1))
        assert x.grad.ravel().tolist() == [0.0, 10.0, 20.0, 0.0]

    def test_tie_goes_to_first(self):
        x = Tensor(np.array([4.0, 4.0]).reshape(1, 2, 1))
        out = T.maxpool1d_op(x, 2)
        out.backward(np.ones((1, 1, 1)))
        assert x.grad.ravel().tolist() == [1.0, 0.0]

    def test_gradient_matches_fd_on_tie_free_input(self, rng):
        x = (np.arange(24, dtype=np.float64) * 0.37) % 5.0
        x = x.reshape(2, 4, 3)
        grad, scalar = projection_grad(lambda v: T.maxpool1d_op(v, 2), x, rng)
        assert rel_err(grad, central_diff(scalar, x)) < 1e-6

    @staticmethod
    def assert_matches_oracle(x, pool, rng):
        """Output and input gradient carry the argmax oracle's exact bits."""
        g = rng.normal(0, 1, (x.shape[0], -(-x.shape[1] // pool), x.shape[2]))
        xt = Tensor(x)
        out = T.maxpool1d_op(xt, pool)
        out.backward(g)
        want, want_dx = maxpool_oracle(x, pool, g)
        assert np.array_equal(out.data, want, equal_nan=True)
        assert np.array_equal(out.data.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(xt.grad.view(np.uint64), want_dx.view(np.uint64))

    @pytest.mark.parametrize("pool", [1, 2, 3, 4])
    @pytest.mark.parametrize("t_len", range(1, 10))
    def test_matches_argmax_oracle_with_ties(self, pool, t_len, rng):
        # three values over 2 * t_len * 3 entries: most windows hold a tie
        x = rng.integers(-1, 2, (2, t_len, 3)).astype(np.float64)
        self.assert_matches_oracle(x, pool, rng)

    @pytest.mark.parametrize("pool", [2, 3, 4])
    def test_signed_zero_tie_keeps_the_first(self, pool, rng):
        x = np.zeros((1, pool, 2))
        x[0, 0, 0] = -0.0
        x[0, 1:, 1] = -0.0
        self.assert_matches_oracle(x, pool, rng)

    @pytest.mark.parametrize("pool", [1, 2, 3, 4])
    @pytest.mark.parametrize("t_len", [4, 5, 7])
    def test_minus_inf_windows(self, pool, t_len, rng):
        x = rng.normal(0, 1, (2, t_len, 2))
        x[0, :, 0] = -np.inf  # every window of a channel
        x[1, -1, 1] = -np.inf  # the last frame, which may sit in a partial window
        x[1, :pool, 0] = -np.inf  # one whole first window
        self.assert_matches_oracle(x, pool, rng)

    @pytest.mark.parametrize("pool", [2, 3, 4])
    @pytest.mark.parametrize("t_len", [4, 5, 7])
    def test_nan_at_each_offset_wins_its_window(self, pool, t_len, rng):
        for k in range(pool):
            x = rng.normal(0, 1, (1, t_len, 3))
            x[0, k::pool, 0] = np.nan  # offset k of every window
            x[0, :, 1] = 9.0
            x[0, k::pool, 1] = np.nan  # where a NaN-blind max would pick a 9.0
            x[0, k:, 2] = np.nan  # a run of NaNs: the first of a window wins
            self.assert_matches_oracle(x, pool, rng)
            assert np.isnan(T.maxpool1d_op(Tensor(x), pool).data[0, 0]).all()

    def test_nan_after_max_is_not_hidden(self):
        x = Tensor(np.array([1.0, np.nan]).reshape(1, 2, 1))
        assert np.isnan(T.maxpool1d_op(x, 2).data).all()


class TestBatchNorm:
    def test_train_output_normalized(self, rng):
        layer = BatchNorm1d(4)
        x = Tensor(rng.normal(3.0, 2.5, (6, 5, 4)))
        out = layer(x, "train").data
        flat = out.reshape(-1, 4)
        assert np.allclose(flat.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(flat.var(axis=0), 1.0, atol=1e-3)

    def test_gamma_zero_gives_beta(self, rng):
        layer = BatchNorm1d(3)
        layer.gamma.data[...] = 0.0
        layer.beta.data[...] = np.array([1.0, -2.0, 0.5])
        out = layer(Tensor(rng.normal(0, 1, (4, 3))), "train").data
        assert np.allclose(out, [1.0, -2.0, 0.5])

    def test_eval_before_train_raises(self, rng):
        layer = BatchNorm1d(3)
        with pytest.raises(RuntimeError):
            layer(Tensor(rng.normal(0, 1, (4, 3))), "eval")

    def test_running_stats_blend(self, rng):
        layer = BatchNorm1d(2)
        x = rng.normal(1.0, 2.0, (50, 2))
        layer(Tensor(x), "train")
        assert np.allclose(layer.running_mean, 0.1 * x.mean(axis=0), atol=1e-12)
        assert np.allclose(layer.running_var, 0.9 + 0.1 * x.var(axis=0), atol=1e-12)

    def test_train_gradient_matches_fd(self, rng):
        layer = BatchNorm1d(4)
        layer.gamma.data[...] = rng.normal(1, 0.2, 4)
        layer.beta.data[...] = rng.normal(0, 0.2, 4)
        x = rng.normal(0, 1, (3, 5, 4))
        grad, scalar = projection_grad(lambda v: layer(v, "train"), x, rng)
        assert rel_err(grad, central_diff(scalar, x)) < 1e-5

    def test_eval_gradient_matches_fd(self, rng):
        layer = BatchNorm1d(4)
        layer(Tensor(rng.normal(0, 1, (8, 4))), "train")
        x = rng.normal(0, 1, (3, 4))
        grad, scalar = projection_grad(lambda v: layer(v, "eval"), x, rng)
        assert rel_err(grad, central_diff(scalar, x)) < 1e-6

    def test_bad_mode_rejected(self, rng):
        with pytest.raises(ValueError):
            BatchNorm1d(2)(Tensor(np.zeros((2, 2))), "predict")


class TestDropout:
    def test_rate_zero_and_eval_are_identity(self, rng):
        x = Tensor(rng.normal(0, 1, (3, 4)))
        assert Dropout(0.0)(x, "train", rng) is x
        assert Dropout(0.5)(x, "eval") is x

    def test_zero_fraction_near_rate(self):
        rng = np.random.default_rng(7)
        x = Tensor(np.ones((100, 1000)))
        out = Dropout(0.2)(x, "train", rng).data
        frac = float((out == 0.0).mean())
        assert 0.19 <= frac <= 0.21

    def test_survivors_scaled(self):
        rng = np.random.default_rng(7)
        out = Dropout(0.2)(Tensor(np.ones((100, 100))), "train", rng).data
        kept = out[out != 0.0]
        assert np.allclose(kept, 1.0 / 0.8)

    def test_train_without_rng_rejected(self):
        with pytest.raises(ValueError):
            Dropout(0.5)(Tensor(np.zeros((2, 2))), "train")

    @pytest.mark.parametrize("rate", [0.0, 0.5])
    def test_unknown_mode_rejected(self, rate, rng):
        # checked before the rate, so a rate of 0 does not hide the fault
        with pytest.raises(ValueError) as exc:
            Dropout(rate)(Tensor(np.ones((2, 2))), "predict", rng)
        assert str(exc.value) == "mode must be 'train' or 'eval', got 'predict'"

    @pytest.mark.parametrize("rate", [0.2, 0.5, 0.7])
    def test_matches_the_scaled_mask_bit_for_bit(self, rate, rng):
        x = rng.normal(0, 1, (3, 7, 5))
        g = rng.normal(0, 1, x.shape)
        xt = Tensor(x)
        out = T.dropout_op(xt, rate, np.random.default_rng(11))
        out.backward(g)
        scale = (np.random.default_rng(11).random(x.shape) >= rate) / (1 - rate)
        want_dx = g * scale  # adopted as made: -0.0 where a negative g is dropped
        assert np.array_equal(out.data.view(np.uint64), (x * scale).view(np.uint64))
        assert np.array_equal(xt.grad.view(np.uint64), want_dx.view(np.uint64))

    def test_rate_validated(self):
        with pytest.raises(ValueError):
            Dropout(1.0)
        with pytest.raises(ValueError):
            Dropout(-0.1)


class TestConvBlock:
    """conv_block_op computes the output and parameter gradients of a chain
    of four single-stage nodes bit for bit: the oracle's self-contained
    chain (oracles.conv_block_oracle) and that of conv1d_op, maxpool1d_op,
    batchnorm_op and dropout_op."""

    @staticmethod
    def run(block, g, params):
        for p in params:
            p.zero_grad()
        out = block()
        out.backward(g)
        return [out.data] + [p.grad.copy() for p in params]

    def check(self, x, g, kernel, pool, use_bn, rate, rng):
        conv = Conv1d(x.shape[-1], g.shape[-1], kernel, rng)
        conv.b.data[...] = rng.normal(0, 1, conv.b.data.shape)
        params = [conv.w, conv.b]
        norm = oracle_norm = None
        if use_bn:
            bn = BatchNorm1d(g.shape[-1])
            bn.gamma.data[...] = rng.normal(1, 0.5, bn.gamma.data.shape)
            bn.beta.data[...] = rng.normal(0, 0.5, bn.beta.data.shape)
            params += [bn.gamma, bn.beta]
            norm, oracle_norm = bn.block_norm("train"), (bn.gamma, bn.beta)
        got = self.run(
            lambda: T.conv_block_op(x, conv.w, conv.b, pool, norm, rate, np.random.default_rng(3)),
            g, params,
        )
        want = self.run(
            lambda: conv_block_oracle(x, conv.w, conv.b, pool, oracle_norm, rate, np.random.default_rng(3)),
            g, params,
        )
        for name, a, b in zip(["output", "w", "b", "gamma", "beta"], got, want):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), name

    @pytest.mark.parametrize("use_bn", [True, False], ids=["bn", "no-bn"])
    @pytest.mark.parametrize("rate", [0.0, 0.5])
    @pytest.mark.parametrize("pool", [1, 2, 3])
    @pytest.mark.parametrize("kernel", [1, 2, 3, 4])
    @pytest.mark.parametrize("bsz", [1, 3])
    def test_output_and_gradients_equal_the_oracle(self, use_bn, rate, pool, kernel, bsz, rng):
        # 7 frames leave pools 2 and 3 a partial final window
        x = rng.normal(0, 1, (bsz, 7, 2))
        g = rng.normal(0, 1, (bsz, -(-7 // pool), 4))
        self.check(x, g, kernel, pool, use_bn, rate, rng)

    def test_chain_of_single_ops_equals_the_block(self, rng):
        # dropout's pullback makes -0.0 where a negative gradient meets a
        # dropped unit, and both the chain and the block hand it on as it
        # is; no output or parameter bit may differ
        conv, pool, bn, drop = Conv1d(2, 6, 3, rng), MaxPool1d(2), BatchNorm1d(6), Dropout(0.5)
        conv.b.data[...] = rng.normal(0, 1, conv.b.data.shape)
        bn.gamma.data[...] = rng.normal(1, 0.5, bn.gamma.data.shape)
        bn.beta.data[...] = rng.normal(0, 0.5, bn.beta.data.shape)
        params = [conv.w, conv.b, bn.gamma, bn.beta]
        x = rng.normal(0, 1, (2, 7, 2))
        g = -np.abs(rng.normal(0, 1, (2, 4, 6)))
        chain = self.run(
            lambda: drop(bn(pool(conv(Tensor(x))), "train"), "train", np.random.default_rng(3)),
            g, params,
        )
        block = self.run(
            lambda: T.conv_block_op(x, conv.w, conv.b, 2, bn.block_norm("train"), 0.5, np.random.default_rng(3)),
            g, params,
        )
        for name, a, b in zip(["output", "w", "b", "gamma", "beta"], chain, block):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), name

    def test_model_forward_runs_the_block_as_one_node(self, rng):
        cfg = ModelConfig(num_classes=4, conv_filters=6, bilstm_units=3)
        model = RecognitionModel(cfg, 3, "seq2seq", rng)
        out = model.forward(rng.normal(0, 1, (2, 9, 3)), "train", rng)
        inner = [n for n in tape_nodes(out) if n._parents]
        # the block, two BiLSTM layers, the head's affine and log-softmax
        assert len(inner) == 5
        block = next(n for n in inner if any(p is model.conv.w for p in n._parents))
        params = (model.conv.w, model.conv.b, model.norm.gamma, model.norm.beta)
        assert [id(p) for p in block._parents] == [id(p) for p in params]
        out.backward(np.ones_like(out.data))


class TestOwnedGradients:
    """The batchnorm and dropout pullbacks make the input gradient in the
    gradient they are handed, which a pullback owns; backward() hands the
    pullback of the output it started from a copy, so the caller's seed
    is never written."""

    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    def test_batchnorm_pullback_returns_the_array_it_was_handed(self, train, rng):
        gamma, beta = Tensor(rng.normal(1, 0.5, 4)), Tensor(rng.normal(0, 0.5, 4))
        x = rng.normal(0, 1, (3, 5, 4))
        _, saved = T._bn_forward(x - x.mean(axis=(0, 1)), x.var(axis=(0, 1)), 1e-5, gamma.data, beta.data)
        g = rng.normal(0, 1, x.shape)
        assert T._bn_pullback(g, saved, gamma.data, train)[0] is g

    def test_dropout_pullback_returns_the_array_it_was_handed(self, rng):
        g = rng.normal(0, 1, (3, 5, 4))
        assert T._dropout_pullback(g, rng.random(g.shape) >= 0.5, 0.5) is g

    @pytest.mark.parametrize("root", ["conv_block", "batchnorm_train", "batchnorm_eval", "dropout"])
    def test_backward_leaves_the_seed_as_it_was(self, root, rng):
        x = rng.normal(0, 1, (2, 7, 4))
        conv, bn = Conv1d(4, 4, 3, rng), BatchNorm1d(4)
        bn.gamma.data[...] = rng.normal(1, 0.5, 4)
        bn(Tensor(x), "train")  # running statistics for eval
        if root == "conv_block":
            out = T.conv_block_op(x, conv.w, conv.b, 2, bn.block_norm("train"), 0.5, rng)
        elif root == "dropout":
            out = T.dropout_op(Tensor(x), 0.5, rng)
        else:
            out = T.batchnorm_op(Tensor(x), bn.block_norm(root.split("_")[1]))
        seed = rng.normal(0, 1, out.data.shape)
        kept = seed.copy()
        out.backward(seed)
        assert np.array_equal(seed.view(np.uint64), kept.view(np.uint64))
        assert np.array_equal(out.grad.view(np.uint64), kept.view(np.uint64))


def _batchnorm_graph(mode, rng):
    x, bn = rng.normal(0, 1, (2, 7, 4)), BatchNorm1d(4)
    bn(Tensor(x), "train")  # running statistics for eval
    return T.batchnorm_op(Tensor(x), bn.block_norm(mode))


def _conv_block_graph(use_bn, rate, rng):
    x, conv, bn = rng.normal(0, 1, (2, 7, 3)), Conv1d(3, 4, 3, rng), BatchNorm1d(4)
    norm = bn.block_norm("train") if use_bn else None
    return T.conv_block_op(x, conv.w, conv.b, 2, norm, rate, rng)


class TestPullbackContract:
    """Each pullback returns one writable array per parent, in the parents'
    order and of each parent's shape, and owns every one: none overlaps
    another it returns, the data of a tensor in the graph or the caller's
    seed. That is what lets backward() adopt each as a parent's gradient."""

    GRAPHS = {
        "affine": lambda rng: T.affine(*(Tensor(rng.normal(0, 1, s)) for s in [(2, 3, 4), (4, 5), (5,)])),
        "relu": lambda rng: T.relu(Tensor(rng.normal(0, 1, (3, 4)))),
        "reverse_time": lambda rng: T.reverse_time(Tensor(rng.normal(0, 1, (2, 4, 3)))),
        "mean_time": lambda rng: T.mean_time(Tensor(rng.normal(0, 1, (2, 5, 3)))),
        "log_softmax": lambda rng: T.log_softmax_op(Tensor(rng.normal(0, 1, (3, 5)))),
        "lstm": lambda rng: LSTM(3, 4, rng)(Tensor(rng.normal(0, 1, (2, 6, 3)))),
        "bilstm": lambda rng: BiLSTM(3, 4, rng)(Tensor(rng.normal(0, 1, (2, 6, 3)))),
        "conv1d": lambda rng: Conv1d(3, 4, 3, rng)(Tensor(rng.normal(0, 1, (2, 7, 3)))),
        "maxpool": lambda rng: T.maxpool1d_op(Tensor(rng.normal(0, 1, (2, 7, 3))), 2),
        "batchnorm_train": lambda rng: _batchnorm_graph("train", rng),
        "batchnorm_eval": lambda rng: _batchnorm_graph("eval", rng),
        "dropout": lambda rng: T.dropout_op(Tensor(rng.normal(0, 1, (3, 4))), 0.5, rng),
        "conv_block": lambda rng: _conv_block_graph(False, 0.0, rng),
        "conv_block_bn": lambda rng: _conv_block_graph(True, 0.0, rng),
        "conv_block_dropout": lambda rng: _conv_block_graph(False, 0.5, rng),
        "conv_block_bn_dropout": lambda rng: _conv_block_graph(True, 0.5, rng),
    }

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_each_pullback_returns_arrays_it_owns(self, name, rng):
        out = self.GRAPHS[name](rng)
        nodes = tape_nodes(out)
        held = [n.data for n in nodes]
        returned = []
        for node in nodes:
            if node._backward is None:
                continue

            def traced(g, pullback=node._backward, parents=node._parents):
                grads = pullback(g)
                returned.append((parents, grads))
                return grads

            node._backward = traced
        seed = rng.normal(0, 1, out.data.shape)
        out.backward(seed)
        assert returned
        for parents, grads in returned:
            assert len(grads) == len(parents)
            for i, (p, g) in enumerate(zip(parents, grads)):
                assert isinstance(g, np.ndarray) and g.flags.writeable
                assert g.shape == p.data.shape
                for other in [*grads[i + 1 :], *held, seed]:
                    assert not np.shares_memory(g, other)


class TestDense:
    def test_zero_input_gives_bias(self, rng):
        layer = Dense(3, 2, rng)
        layer.b.data[...] = np.array([0.5, -1.0])
        out = layer(Tensor(np.zeros((4, 3)))).data
        assert np.allclose(out, [0.5, -1.0])

    def test_identity_weight_passes_through(self, rng):
        layer = Dense(3, 3, rng)
        layer.w.data[...] = np.eye(3)
        layer.b.data[...] = 0.0
        x = rng.normal(0, 1, (2, 3))
        assert np.allclose(layer(Tensor(x)).data, x)

    def test_xavier_bound(self, rng):
        layer = Dense(40, 60, rng)
        bound = np.sqrt(6.0 / 100)
        assert np.abs(layer.w.data).max() <= bound
        assert np.allclose(layer.b.data, 0.0)


class TestLSTM:
    def test_zeroed_weights_emit_zeros(self, rng):
        layer = LSTM(3, 4, rng)
        layer.wx.data[...] = 0.0
        layer.wh.data[...] = 0.0
        layer.b.data[...] = 0.0
        out = layer(Tensor(rng.normal(0, 1, (2, 5, 3)))).data
        assert np.allclose(out, 0.0)

    def test_forget_bias_is_one(self, rng):
        layer = LSTM(3, 4, rng)
        assert np.allclose(layer.b.data[4:8], 1.0)
        assert np.allclose(layer.b.data[:4], 0.0)
        assert np.allclose(layer.b.data[8:], 0.0)

    def test_single_step_matches_manual_cell(self, rng):
        h = 3
        layer = LSTM(2, h, rng)
        x = rng.normal(0, 1, (1, 1, 2))
        out = layer(Tensor(x)).data[0, 0]

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        gates = x[0, 0] @ layer.wx.data + layer.b.data
        i_g = sig(gates[:h])
        f_g = sig(gates[h : 2 * h])
        g_g = np.tanh(gates[2 * h : 3 * h])
        o_g = sig(gates[3 * h :])
        c = i_g * g_g
        assert np.allclose(out, o_g * np.tanh(c), atol=1e-12)

    def test_sequence_matches_per_step_reference(self, rng):
        h = 4
        layer = LSTM(5, h, rng)
        layer.b.data[...] = rng.normal(0, 1, 4 * h)
        x = rng.normal(0, 1, (3, 7, 5))
        x[0, 0, :] = 1e4  # drives some gates into the sigmoid clip
        got = layer(Tensor(x)).data

        def sig(v):
            return 1.0 / (1.0 + np.exp(-np.clip(v, -500, 500)))

        # same operations in the same order, so the match is exact
        xw = (x.reshape(-1, 5) @ layer.wx.data + layer.b.data).reshape(3, 7, 4 * h)
        h_t = np.zeros((3, h))
        c_t = np.zeros((3, h))
        for t in range(7):
            z = xw[:, t, :] + h_t @ layer.wh.data
            i_g, f_g = sig(z[:, :h]), sig(z[:, h : 2 * h])
            g_g, o_g = np.tanh(z[:, 2 * h : 3 * h]), sig(z[:, 3 * h :])
            c_t = f_g * c_t + i_g * g_g
            h_t = o_g * np.tanh(c_t)
            assert np.array_equal(got[:, t, :], h_t), t

    def test_gradient_matches_fd(self, rng):
        layer = LSTM(2, 2, rng)
        x = rng.normal(0, 1, (2, 3, 2))
        grad, scalar = projection_grad(lambda v: layer(v), x, rng)
        assert rel_err(grad, central_diff(scalar, x)) < 1e-5

        for name in ("wx", "wh", "b"):
            w = getattr(layer, name).data.copy()

            def build_w(v):
                setattr(layer, name, v)
                return layer(Tensor(x))

            grad, scalar = projection_grad(build_w, w, rng)
            assert rel_err(grad, central_diff(scalar, w)) < 1e-5, name
            setattr(layer, name, Tensor(w))

    def test_paper_shaped_model_tape_is_short(self, rng):
        # one node per LSTM layer, not a dozen per timestep
        model = RecognitionModel(ModelConfig(num_classes=15), 13, "seq2seq", rng)
        out = model.forward(rng.normal(0, 1, (1, 800, 13)), "train", rng)
        assert len(tape_nodes(out)) < 100


class TestBiLSTM:
    def test_composition(self, rng):
        layer = BiLSTM(2, 3, rng)
        x = rng.normal(0, 1, (2, 4, 2))
        out = layer(Tensor(x)).data
        fwd = layer.fwd(Tensor(x)).data
        bwd = layer.bwd(Tensor(x[:, ::-1, :].copy())).data[:, ::-1, :]
        assert np.array_equal(out, np.concatenate([fwd, bwd], axis=-1))

    @pytest.mark.parametrize("bsz", [1, 3])
    @pytest.mark.parametrize("t_len", [1, 7])
    def test_two_direction_op_equals_two_single_direction_ops(self, bsz, t_len, rng):
        layer = BiLSTM(5, 4, rng)
        for _, p in layer.parameters():
            if p.data.ndim == 1:
                p.data[...] = rng.normal(0, 1, p.data.shape)
        x = rng.normal(0, 1, (bsz, t_len, 5))
        x[0, 0, :] = 1e4  # drives some gates into the sigmoid clip
        g = rng.normal(0, 1, (bsz, t_len, 8))

        def run(build, x, g):
            for _, p in layer.parameters():
                p.zero_grad()
            xt = Tensor(x)
            out = build(xt)
            out.backward(g)
            return [out.data, xt.grad] + [p.grad.copy() for _, p in layer.parameters()]

        fused = run(layer, x, g)
        # each direction alone, the backward one on time-reversed rows
        fwd = run(lambda xt: T.lstm_op(xt, [layer.fwd.cell]), x, g[..., :4])
        bwd = run(
            lambda xt: T.lstm_op(xt, [layer.bwd.cell]),
            x[:, ::-1].copy(),
            g[:, ::-1, 4:].copy(),
        )
        parts = [
            np.concatenate([fwd[0], bwd[0][:, ::-1]], axis=-1),
            fwd[1] + bwd[1][:, ::-1],
        ] + [a + b for a, b in zip(fwd[2:], bwd[2:])]
        names = ["output", "x"] + [n for n, _ in layer.parameters()]
        for name, a, b in zip(names, fused, parts):
            assert np.array_equal(a, b), name

    def test_paper_shaped_forward_has_one_node_per_layer(self, rng):
        model = RecognitionModel(ModelConfig(num_classes=15), 13, "seq2seq", rng)
        out = model.forward(rng.normal(0, 1, (1, 800, 13)), "train", rng)
        nodes = tape_nodes(out)
        for layer in model.recurrent:
            params = {id(p) for _, p in layer.parameters()}
            users = [n for n in nodes if params & {id(p) for p in n._parents}]
            assert len(users) == 1
            assert params <= {id(p) for p in users[0]._parents}

    def test_direction_count_checked(self, rng):
        layer = LSTM(2, 3, rng)
        x = Tensor(rng.normal(0, 1, (1, 4, 2)))
        for cells in ([], [layer.cell] * 3):
            with pytest.raises(ValueError, match="one or two directions"):
                T.lstm_op(x, cells)

    def test_gradient_matches_fd(self, rng):
        layer = BiLSTM(2, 2, rng)
        x = rng.normal(0, 1, (1, 3, 2))
        grad, scalar = projection_grad(lambda v: layer(v), x, rng)
        assert rel_err(grad, central_diff(scalar, x)) < 1e-5

    @pytest.mark.parametrize("d_n", [1, 2])
    def test_root_gradient_is_the_seed_after_backward(self, d_n, rng):
        # the pullback writes h_{t-1} over the gradient it is handed, so
        # backward() hands the output it started from a copy of its own
        cells = [LSTM(3, 4, rng).cell for _ in range(d_n)]
        y = T.lstm_op(Tensor(rng.normal(0, 1, (2, 6, 3))), cells)
        seed = rng.normal(0, 1, y.data.shape)
        y.backward(seed)
        assert np.array_equal(y.grad.view(np.uint64), seed.view(np.uint64))


class TestLSTMOracle:
    """lstm_op computes every bit its pre-buffer form (oracles.lstm_oracle) did."""

    @staticmethod
    def run(op, x, g, cells, held):
        # held is None for an x with no gradient yet, else the one it holds
        params = [p for cell in cells for p in cell]
        for p in params:
            p.zero_grad()
        xt = Tensor(x.copy())
        if held is not None:
            xt.grad = held.copy()
        out = op(xt, cells)
        out.backward(g)
        return [out.data, xt.grad] + [p.grad.copy() for p in params]

    @pytest.mark.parametrize(
        "d_n, shared", [(1, False), (2, False), (2, True)], ids=["lstm", "bilstm", "shared-cell"]
    )
    @pytest.mark.parametrize("bsz", [1, 3])
    @pytest.mark.parametrize("c_in, h", [(5, 4), (13, 3)])
    def test_output_and_gradients_equal_the_oracle(self, d_n, shared, bsz, c_in, h, rng):
        t_len = 7
        cells = [LSTM(c_in, h, rng).cell for _ in range(1 if shared else d_n)]
        cells *= d_n // len(cells)
        for _, _, b in cells:
            b.data[...] = rng.normal(0, 1, b.data.shape)
        x = rng.normal(0, 1, (bsz, t_len, c_in))
        x[0, 0, :] = 1e4  # drives some gates into the sigmoid clip
        g = rng.normal(0, 1, (bsz, t_len, d_n * h))
        # -0.0 rows: two frames in every batch row and direction, and
        # direction 0 throughout the last batch row
        g[:, [1, t_len - 1]] = -0.0
        g[-1, :, :h] = -0.0
        names = ["output", "x"] + [f"{n}[{d}]" for d in range(d_n) for n in ("wx", "wh", "b")]
        # x without a gradient takes direction 0's input gradient as its own;
        # x with one adds it in
        for held in (None, rng.normal(0, 1, x.shape)):
            got = self.run(T.lstm_op, x, g, cells, held)
            want = self.run(lstm_oracle, x, g, cells, held)
            for name, a, b in zip(names, got, want):
                assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), (name, held is None)


    @pytest.mark.parametrize("d_n", [1, 2])
    def test_frames_past_a_scratch_chunk_equal_the_oracle(self, d_n, rng):
        # the pullback's elementwise scratch spans T._CHUNK frames; a
        # sequence of two full chunks and a partial one keeps every bit
        t_len = 2 * T._CHUNK + 5
        cells = [LSTM(5, 4, rng).cell for _ in range(d_n)]
        x = rng.normal(0, 1, (2, t_len, 5))
        g = rng.normal(0, 1, (2, t_len, d_n * 4))
        got = self.run(T.lstm_op, x, g, cells, None)
        want = self.run(lstm_oracle, x, g, cells, None)
        for a, b in zip(got, want):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.fixture
def forced_split(monkeypatch):
    """Every BiLSTM call, however few its rows, runs its halves on two threads."""
    monkeypatch.setattr(T, "_SPLIT_ROWS", 1)


def counted_thread_starts(monkeypatch):
    """A list that grows by one name per threading.Thread started from here on."""
    started = []
    start = threading.Thread.start

    def counting_start(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    return started


class TestDirectionSplit:
    """lstm_op's two directions share out their array work over two threads
    from T._SPLIT_ROWS rows per direction on, and run in turn below it."""

    def test_results_in_direction_order(self):
        def where(d):
            return d, threading.current_thread().name

        here = threading.current_thread().name
        assert T._per_direction(where, 2, True) == [(0, here), (1, "lstm_op direction 1")]
        assert T._per_direction(where, 2, False) == [(0, here), (1, here)]
        assert T._per_direction(where, 1, True) == [(0, here)]

    @pytest.mark.parametrize("rows_past_rule, threads", [(-1, 0), (0, 3)])
    def test_threads_start_from_the_row_rule(self, rng, monkeypatch, rows_past_rule, threads):
        # one forward and backward starts a thread per split (the projection,
        # the prelude and the gradient products) once batch * time reaches it
        bsz, t_len = 2, 6
        monkeypatch.setattr(T, "_SPLIT_ROWS", bsz * t_len - rows_past_rule)
        layer = BiLSTM(5, 4, rng)
        started = counted_thread_starts(monkeypatch)
        out = layer(Tensor(rng.normal(0, 1, (bsz, t_len, 5))))
        out.backward(np.ones_like(out.data))
        assert started == ["lstm_op direction 1"] * threads

    def test_paper_batch_1_forward_and_backward_start_no_thread(self, rng, monkeypatch):
        # decode forwards one recording at a time, which falls below the rule
        model = RecognitionModel(ModelConfig(num_classes=15), 13, "seq2seq", rng)
        started = counted_thread_starts(monkeypatch)
        out = model.forward(rng.normal(0, 1, (1, 800, 13)), "train", rng)
        out.backward(np.ones_like(out.data))
        model.forward(rng.normal(0, 1, (1, 800, 13)), "eval", rng)
        assert started == []

    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("bsz", [1, 3])
    def test_threaded_and_in_turn_runs_match(self, rng, monkeypatch, bsz, layers):
        stack = [BiLSTM(5, 4, rng)] + [BiLSTM(8, 4, rng) for _ in range(layers - 1)]
        params = [p for layer in stack for _, p in layer.parameters()]
        for p in params:
            if p.data.ndim == 1:
                p.data[...] = rng.normal(0, 1, p.data.shape)
        x = rng.normal(0, 1, (bsz, 7, 5))
        x[0, 0, :] = 1e4  # drives some gates into the sigmoid clip
        g = rng.normal(0, 1, (bsz, 7, 8))

        def run(split_rows):
            monkeypatch.setattr(T, "_SPLIT_ROWS", split_rows)
            for p in params:
                p.zero_grad()
            xt = Tensor(x)
            out = xt
            for layer in stack:
                out = layer(out)
            out.backward(g)
            return [out.data, xt.grad] + [p.grad.copy() for p in params]

        in_turn = run(bsz * 7 + 1)
        threaded = run(1)
        assert len(in_turn) == 2 + 6 * layers
        for a, b in zip(in_turn, threaded):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))

    @pytest.mark.parametrize("failing", [0, 1])
    def test_fault_is_raised_after_both_halves_finish(self, failing):
        finished = []
        started = threading.Event()

        def half(d):
            if d == failing:
                started.wait(5)
                raise RuntimeError(f"half {d}")
            started.set()
            time.sleep(0.05)
            finished.append(d)
            return d

        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"half {failing}"):
            T._per_direction(half, 2, True)
        assert finished == [1 - failing]
        assert threading.active_count() == before

    def test_bilstm_leaves_no_thread_behind(self, rng, forced_split):
        layer = BiLSTM(5, 4, rng)
        before = threading.active_count()
        x = Tensor(rng.normal(0, 1, (2, 6, 5)))
        out = layer(x)
        out.backward(np.ones_like(out.data))
        assert threading.active_count() == before
        # direction 1's input width does not fit x: its projection raises
        # in the helper thread, which is joined before the fault surfaces
        wrong = LSTM(6, 4, rng).cell
        with pytest.raises(ValueError):
            T.lstm_op(x, [layer.fwd.cell, wrong])
        assert threading.active_count() == before

    def test_shared_cell_sums_both_directions(self, rng):
        cell = LSTM(3, 4, rng).cell
        x = rng.normal(0, 1, (2, 5, 3))
        g = rng.normal(0, 1, (2, 5, 8))

        def run(x, g, cells):
            for p in cell:
                p.zero_grad()
            xt = Tensor(x)
            out = T.lstm_op(xt, cells)
            out.backward(g)
            return [out.data, xt.grad] + [p.grad.copy() for p in cell]

        both = run(x, g, [cell, cell])
        fwd = run(x, g[..., :4], [cell])
        bwd = run(x[:, ::-1].copy(), g[:, ::-1, 4:].copy(), [cell])
        parts = [
            np.concatenate([fwd[0], bwd[0][:, ::-1]], axis=-1),
            fwd[1] + bwd[1][:, ::-1],
        ] + [a + b for a, b in zip(fwd[2:], bwd[2:])]
        for name, a, b in zip(["output", "x", "wx", "wh", "b"], both, parts):
            assert np.array_equal(a, b), name


SMALL = ModelConfig(
    num_classes=4,
    conv_filters=6,
    conv_kernel=3,
    pool_size=2,
    dropout_rate=0.0,
    bilstm_units=3,
    bilstm_layers=1,
    dense_units=5,
)


class TestModel:
    def test_seq2seq_shapes_and_normalization(self, rng):
        model = RecognitionModel(SMALL, 3, "seq2seq", rng)
        out = model.forward(rng.normal(0, 1, (5, 9, 3)), "train").data
        assert out.shape == (5, 5, 5)  # ceil(9/2) frames, 4 classes + blank
        assert np.allclose(np.exp(out).sum(axis=-1), 1.0, atol=1e-12)

    def test_char_shapes_and_normalization(self, rng):
        model = RecognitionModel(SMALL, 3, "char", rng)
        out = model.forward(rng.normal(0, 1, (4, 8, 3)), "train").data
        assert out.shape == (4, 4)
        assert np.allclose(np.exp(out).sum(axis=-1), 1.0, atol=1e-12)

    def test_eval_is_deterministic(self, rng):
        cfg = ModelConfig(
            num_classes=3, conv_filters=4, conv_kernel=2, pool_size=2,
            dropout_rate=0.5, bilstm_units=2, bilstm_layers=1,
        )
        model = RecognitionModel(cfg, 2, "seq2seq", rng)
        x = rng.normal(0, 1, (2, 6, 2))
        model.forward(x, "train", rng)
        a = model.forward(x, "eval").data
        b = model.forward(x, "eval").data
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("task", ["seq2seq", "char"])
    def test_tape_leaves_are_the_parameters(self, task, rng):
        # the data batch enters conv as a constant, not as a leaf
        model = RecognitionModel(SMALL, 3, task, rng)
        out = model.forward(rng.normal(0, 1, (2, 8, 3)), "train", rng)
        leaves = {id(n) for n in tape_nodes(out) if not n._parents}
        assert leaves == {id(p) for _, p in model.parameters()}

    @pytest.mark.parametrize("task", ["seq2seq", "char"])
    def test_tape_freed_without_cycle_collector(self, task, rng):
        # a closure that held its own output Tensor would make each tape a
        # reference cycle, alive until the cyclic collector happened to run
        cfg = ModelConfig(
            num_classes=3, conv_filters=4, conv_kernel=2, pool_size=2,
            dropout_rate=0.5, bilstm_units=2, bilstm_layers=2,
        )
        model = RecognitionModel(cfg, 2, task, rng)
        x = rng.normal(0, 1, (2, 6, 2))
        gc.collect()
        gc.disable()
        try:
            for mode in ("train", "eval"):
                out = model.forward(x, mode, rng)
                out.backward(np.ones_like(out.data))
                del out
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_dropout_perturbs_train_mode(self, rng):
        cfg = ModelConfig(
            num_classes=3, conv_filters=4, conv_kernel=2, pool_size=2,
            dropout_rate=0.5, bilstm_units=2, bilstm_layers=1,
        )
        model = RecognitionModel(cfg, 2, "seq2seq", rng)
        x = rng.normal(0, 1, (2, 6, 2))
        a = model.forward(x, "train", rng).data
        b = model.forward(x, "train", rng).data
        assert not np.array_equal(a, b)

    def test_lstm_variant_builds(self, rng):
        cfg = ModelConfig(
            num_classes=3, conv_filters=4, conv_kernel=2, pool_size=2,
            dropout_rate=0.0, recurrent_kind="LSTM", lstm_units=3,
        )
        model = RecognitionModel(cfg, 2, "seq2seq", rng)
        out = model.forward(rng.normal(0, 1, (1, 4, 2)), "train").data
        assert out.shape == (1, 2, 4)

    def test_whole_model_gradient(self, rng):
        model = RecognitionModel(SMALL, 2, "seq2seq", rng)
        x = rng.normal(0, 1, (2, 6, 2))
        if model.norm is not None:
            model.forward(x, "train")  # prime running stats

        def build(v):
            return model.forward(v.data, "eval")

        # eval mode keeps batchnorm frozen so FD sees a fixed function
        x_t = Tensor(x)
        out = model.forward(x, "eval")
        proj = rng.normal(0, 1, out.data.shape)

        def scalar():
            return float(np.sum(proj * model.forward(x_mut, "eval").data))

        x_mut = x.copy()
        fd = central_diff(scalar, x_mut)

        # rebuild the graph on a Tensor input via the layers directly
        t = Tensor(x)
        y = model.conv(t)
        y = model.pool(y)
        if model.norm is not None:
            y = model.norm(y, "eval")
        for layer in model.recurrent:
            y = layer(y)
        y = T.log_softmax_op(model.head(y))
        y.backward(proj)
        assert rel_err(t.grad, fd) < 1e-5

    def test_invalid_task_and_mode(self, rng):
        with pytest.raises(ValueError):
            RecognitionModel(SMALL, 3, "ctc", rng)
        model = RecognitionModel(SMALL, 3, "seq2seq", rng)
        with pytest.raises(ValueError):
            model.forward(np.zeros((1, 4, 3)), "predict")

    def test_config_round_trip_and_validation(self):
        assert ModelConfig.from_dict(SMALL.to_dict()) == SMALL
        with pytest.raises(ValueError):
            ModelConfig(num_classes=0)
        with pytest.raises(ValueError):
            ModelConfig(num_classes=2, recurrent_kind="GRU")
        with pytest.raises(ValueError):
            ModelConfig.from_dict({"num_classes": 2, "bogus": 1})


def taped_forward(model, x):
    """model.forward(x, "eval") rebuilt from its layers, which record a tape."""
    y = model.pool(model.conv(Tensor(x)))
    if model.norm is not None:
        y = model.norm(y, "eval")
    for layer in model.recurrent:
        y = layer(y)
    if model.task == "char":
        y = T.relu(model.char_hidden(T.mean_time(y)))
    return T.log_softmax_op(model.head(y))


class TestEvalWithoutTape:
    @pytest.mark.parametrize("task", ["seq2seq", "char"])
    def test_equals_the_taped_layer_chain(self, task, rng):
        cfg = dataclasses.replace(SMALL, dropout_rate=0.5)
        model = RecognitionModel(cfg, 3, task, rng)
        x = rng.normal(0, 1, (4, 9, 3))
        model.forward(x, "train", rng)  # prime batchnorm
        taped = taped_forward(model, x)
        assert len(tape_nodes(taped)) > 10
        out = model.forward(x, "eval")
        assert np.array_equal(out.data, taped.data)
        assert out._parents == ()

    def test_backward_reaches_no_parameter(self, rng):
        model = RecognitionModel(SMALL, 3, "seq2seq", rng)
        x = rng.normal(0, 1, (2, 8, 3))
        model.forward(x, "train")
        out = model.forward(x, "eval")
        out.backward(np.ones_like(out.data))
        assert not any(p.grad.any() for _, p in model.parameters())

    def test_failed_eval_forward_leaves_taping_on(self, rng):
        x = rng.normal(0, 1, (2, 8, 3))
        model = RecognitionModel(SMALL, 3, "seq2seq", np.random.default_rng(5))
        with pytest.raises(RuntimeError, match="eval-mode batchnorm before any training step"):
            model.forward(x, "eval")
        fresh = RecognitionModel(SMALL, 3, "seq2seq", np.random.default_rng(5))
        proj = rng.normal(0, 1, (2, 4, SMALL.num_classes + 1))
        for m in (model, fresh):
            out = m.forward(x, "train")
            assert len(tape_nodes(out)) > 10
            out.backward(proj)
        for (name, p), (_, q) in zip(model.parameters(), fresh.parameters()):
            assert p.grad.any(), name
            assert np.array_equal(p.grad, q.grad), name

    def test_paper_shaped_eval_peak_is_far_below_taped(self, rng):
        # tracemalloc sees numpy's buffers; at batch 4 and 800 frames the
        # taped chain peaked at 2.28 times the eval forward (61 vs 27 MiB)
        model = RecognitionModel(ModelConfig(num_classes=15), 13, "seq2seq", rng)
        x = rng.normal(0, 1, (4, 800, 13))
        model.forward(x, "train", rng)
        peaks = []
        for forward in (lambda: model.forward(x, "eval"), lambda: taped_forward(model, x)):
            tracemalloc.start()
            try:
                out = forward()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            del out
        eval_peak, taped_peak = peaks
        assert eval_peak < 0.6 * taped_peak


class TestTapeMemory:
    def test_backward_frees_the_training_tape(self, rng):
        # a paper-shaped step at batch 2: once backward returns, the caller
        # holds its output, not the activations (about 2%; 100% when the
        # tape lived until the output went)
        model = RecognitionModel(ModelConfig(num_classes=15), 13, "seq2seq", rng)
        x = rng.normal(0, 1, (2, 800, 13))
        targets = [(1, 2, 3), (4, 4, 5)]

        def step():
            out = model.forward(x, "train", rng)
            live = tracemalloc.get_traced_memory()[0]
            seed = ctc_loss(out.data, targets).grad_logits
            for _, p in model.parameters():
                p.zero_grad()
            out.backward(seed)
            return out, live

        step()  # the parameters' grads exist from here on
        tracemalloc.start()
        try:
            out, forward_live = step()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 0.1 * forward_live

    def test_bilstm_tape_holds_its_buffer_and_output(self, rng):
        # the (D, B, T, 4H) buffer and the (B, T, D * H) output, plus 2% for
        # the node (it held 1.26 times this floor while the tape kept the
        # (T + 1, D, B, H) cell states besides, and 1.06 times while it kept
        # a stacked copy of wh)
        bsz, t_len, c_in, h = 2, 400, 200, 60
        layer = BiLSTM(c_in, h, rng)
        x = Tensor(rng.normal(0, 1, (bsz, t_len, c_in)))
        floor = 8 * (2 * bsz * t_len * 4 * h + bsz * t_len * 2 * h)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = layer(x)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held <= 1.02 * floor
        out.backward(np.ones_like(out.data))

    def test_bilstm_pullback_adds_at_most_four_arrays(self, rng):
        # above the tape and the output gradient, the pullback holds the
        # rebuilt cell states and the forget gates' copy, (D, B, T, H) each,
        # the reversed input and one input gradient, (B, T, c_in) each, which
        # becomes x's, plus 10% for the per-direction weight gradients, the
        # BPTT state and the frame-chunk scratch; h_{t-1} goes into the spent
        # output gradient (here the copy backward() hands the pullback of
        # the output it started from), where a separate h_{t-1} array once
        # took a fifth place in this floor
        bsz, t_len, c_in, h = 2, 400, 200, 60
        layer = BiLSTM(c_in, h, rng)
        for _, p in layer.parameters():
            p.grad = np.zeros_like(p.data)  # made before the trace
        x = Tensor(rng.normal(0, 1, (bsz, t_len, c_in)))
        g = rng.normal(0, 1, (bsz, t_len, 2 * h))
        tape = 2 * bsz * t_len * 4 * h + bsz * t_len * 2 * h
        cs_and_fs = (t_len + 1) * 2 * bsz * h + 2 * bsz * t_len * h
        floor = 8 * (tape + bsz * t_len * 2 * h + cs_and_fs + 2 * bsz * t_len * c_in)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = layer(x)
            out.backward(g)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * floor

    def test_paper_shaped_step_peaks_at_the_upper_pullback_floor(self, rng):
        # at batch 2 a training step peaks in the upper BiLSTM's pullback,
        # over the tape beneath it (the conv block's padded input, xhat,
        # output, pool and dropout masks, a byte each, and the lower
        # BiLSTM's buffer and output) with the pullback's own dz, its
        # stacked wh and four (B, T, 2H) arrays: its output, its output
        # gradient, which then holds h_{t-1}, and the rebuilt cell states
        # and forget gates' copy, or, once those are freed, the
        # reversed input and the input gradient. 10% more covers the weight
        # gradients and the head's few (B, T, classes + 1) arrays; the step
        # peaked at 1.2 times this floor while the tape kept the cell
        # states and the pullback a separate h_{t-1}
        cfg = ModelConfig(num_classes=15)
        model = RecognitionModel(cfg, 13, "seq2seq", rng)
        bsz, t_len = 2, 800
        x = rng.normal(0, 1, (bsz, t_len, 13))
        targets = [(1, 2, 3), (4, 4, 5)]
        h = cfg.bilstm_units
        pooled = bsz * (t_len // cfg.pool_size) * cfg.conv_filters
        seq = bsz * (t_len // cfg.pool_size) * 2 * h  # one (B, T, 2H) array
        conv = 8 * bsz * (t_len + cfg.conv_kernel - 1) * 13 + 2 * 8 * pooled + cfg.pool_size * pooled
        lower = 8 * (4 * seq + seq)
        floor = conv + lower + 8 * (4 * seq + 2 * h * 4 * h) + 4 * 8 * seq

        def step():
            out = model.forward(x, "train", rng)
            seed = ctc_loss(out.data, targets).grad_logits
            for _, p in model.parameters():
                p.zero_grad()
            out.backward(seed)

        step()  # the parameters' grads exist from here on
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            step()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * floor

    def test_head_pullback_hands_its_product_to_x(self, rng):
        # affine's pullback makes x's gradient, g @ w.T, as one (B, T, c_in)
        # array, which x adopts as it has none yet; adding it into a
        # zero-filled .grad took two
        bsz, t_len, c_in, c_out = 2, 400, 120, 16
        x = Tensor(rng.normal(0, 1, (bsz, t_len, c_in)))
        w, b = Tensor(rng.normal(0, 1, (c_in, c_out))), Tensor(rng.normal(0, 1, c_out))
        for p in (w, b):
            p.grad = np.zeros_like(p.data)
        y = T.affine(x, w, b)
        pullback, rises = y._backward, []

        def traced(g):
            entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            grads = pullback(g)
            rises.append(tracemalloc.get_traced_memory()[1] - entry)
            return grads

        y._backward = traced
        g = rng.normal(0, 1, y.data.shape)
        tracemalloc.start()
        try:
            y.backward(g)
        finally:
            tracemalloc.stop()
        assert rises[0] <= 1.1 * 8 * bsz * t_len * c_in
        want = np.zeros(x.data.shape) + (g.reshape(-1, c_out) @ w.data.T).reshape(x.data.shape)
        assert np.array_equal(x.grad.view(np.uint64), want.view(np.uint64))

    def test_conv_block_tape_holds_its_padded_input_masks_xhat_and_output(self, rng):
        # conv's zero-padded (B, T + k - 1, c_in) input, pool's bool mask per
        # offset past the first, batchnorm's xhat, dropout's bool mask and the
        # output, plus 10% for the node (the (B * T, c_in * k) columns held
        # instead of the padded input came to 1.17 times this floor)
        cfg = ModelConfig(num_classes=15)
        model = RecognitionModel(cfg, 13, "seq2seq", rng)
        bsz, t_len = 2, 800
        x = rng.normal(0, 1, (bsz, t_len, 13))
        padded = bsz * (t_len + cfg.conv_kernel - 1) * 13
        pooled = bsz * (t_len // cfg.pool_size) * cfg.conv_filters
        # 8-byte padded input, xhat and output; pool_size - 1 pool masks and dropout's, a byte each
        floor = 8 * padded + 2 * 8 * pooled + cfg.pool_size * pooled
        norm = model.norm.block_norm("train")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = T.conv_block_op(x, model.conv.w, model.conv.b, cfg.pool_size, norm, cfg.dropout_rate, rng)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held <= 1.1 * floor
        out.backward(np.ones_like(out.data))

    def test_direction_halves_allocate_nothing(self, rng, monkeypatch, forced_split):
        # a helper thread allocates from its own malloc arena, so every array
        # a half writes is allocated before the split, on either path (the
        # split's measured cost is a second concurrent BLAS call's working
        # memory, which tracemalloc does not see); the split is forced, as
        # batch 2 falls below the row rule, and one direction's reversed
        # input or input gradient is 1.2 MiB there
        model = RecognitionModel(ModelConfig(num_classes=15), 13, "seq2seq", rng)
        x = rng.normal(0, 1, (2, 800, 13))
        split = T._per_direction
        rises = []

        def traced_split(fn, d_n, threaded):
            assert threaded
            entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = split(fn, d_n, threaded)
            rises.append(tracemalloc.get_traced_memory()[1] - entry)
            return result

        monkeypatch.setattr(T, "_per_direction", traced_split)
        tracemalloc.start()
        try:
            out = model.forward(x, "train", rng)
            out.backward(rng.normal(0, 1, out.data.shape))
        finally:
            tracemalloc.stop()
        assert len(rises) == 3 * len(model.recurrent)
        assert max(rises) <= 2**20


class TestAdam:
    def test_zero_grad_leaves_params(self):
        p = Tensor([1.0, -2.0])
        Adam([p], lr=0.1).step()
        assert np.allclose(p.data, [1.0, -2.0])

    def test_first_step_is_signed_lr(self):
        p = Tensor(np.zeros(3))
        p.grad += [0.5, -3.0, 0.001]
        Adam([p], lr=0.1).step()
        assert np.allclose(p.data, -0.1 * np.sign(p.grad), atol=1e-4)

    def test_state_advances(self):
        p = Tensor(np.zeros(2))
        p.grad += 1.0
        opt = Adam([p], lr=0.1)
        assert opt.steps == 0
        opt.step()
        assert opt.steps == 1
        opt.step()
        assert opt.steps == 2

    def test_first_step_moments(self, rng):
        params = [Tensor(rng.normal(0, 1, (3, 2))), Tensor(rng.normal(0, 1, 4))]
        opt = Adam(params, lr=0.01, beta1=0.8, beta2=0.99)
        for p in params:
            p.grad += rng.normal(0, 1, p.shape)
        opt.step()
        for p, m, v in zip(params, opt.m, opt.v):
            assert np.array_equal(m, (1 - 0.8) * p.grad)
            assert np.array_equal(v, (1 - 0.99) * p.grad * p.grad)

    def test_wrapper_trajectories_bit_equal(self, rng):
        w0 = rng.normal(0, 1, (3, 2))
        runs = []
        for _ in range(2):
            p = Tensor(w0.copy())
            opt = Adam([p], lr=0.01)
            for step in range(5):
                opt.zero_grad()
                p.grad += np.sin(p.data + step)
                opt.step()
            runs.append(p.data.copy())
        assert np.array_equal(runs[0], runs[1])

    def test_lr_validated(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.0)

    @pytest.mark.parametrize(
        "name, value, problem",
        [
            ("lr", float("nan"), "in (0, inf)"),
            ("lr", float("inf"), "in (0, inf)"),
            ("lr", -0.1, "in (0, inf)"),
            ("eps", 0.0, "in (0, inf)"),
            ("eps", float("nan"), "in (0, inf)"),
            ("beta1", 1.0, "in [0, 1)"),
            ("beta1", float("nan"), "in [0, 1)"),
            ("beta2", -0.5, "in [0, 1)"),
            ("beta2", 1.5, "in [0, 1)"),
        ],
    )
    def test_bad_setting_names_the_argument(self, name, value, problem):
        settings = {"lr": 0.1, name: value}
        with pytest.raises(ValueError, match="^" + re.escape(f"{name} must be {problem}, got ")):
            Adam([Tensor(np.zeros(2))], **settings)

    def test_setting_edges_accepted(self):
        p = Tensor(np.zeros(2))
        p.grad += [1.0, 0.0]
        Adam([p], lr=5.0, beta1=0.0, beta2=0.0, eps=1e-300).step()
        assert np.isfinite(p.data).all()


class TestCheckpoint:
    def test_round_trip(self, tmp_path, rng):
        model = RecognitionModel(SMALL, 3, "seq2seq", rng)
        x = rng.normal(0, 1, (2, 8, 3))
        model.forward(x, "train")  # give batchnorm real running stats
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, model, extra={"alphabet": list("abcd"), "epochs_completed": 3})
        loaded, header = load_checkpoint(path)

        assert header["epochs_completed"] == 3
        assert header["alphabet"] == list("abcd")
        for (n1, p1), (n2, p2) in zip(model.parameters(), loaded.parameters()):
            assert n1 == n2
            assert np.array_equal(p1.data, p2.data)
        for (n1, b1), (n2, b2) in zip(model.buffers(), loaded.buffers()):
            assert n1 == n2
            assert np.array_equal(b1, b2)
        assert np.array_equal(
            model.forward(x, "eval").data, loaded.forward(x, "eval").data
        )

    @pytest.mark.parametrize("loss", ["ctc", "cce"])
    @pytest.mark.parametrize("use_batchnorm", [True, False], ids=["bn", "no-bn"])
    @pytest.mark.parametrize("kind", ["BiLSTM", "LSTM"])
    def test_every_kind_train_writes_round_trips(self, tmp_path, rng, loss, use_batchnorm, kind):
        cfg = dataclasses.replace(SMALL, recurrent_kind=kind, lstm_units=3, use_batchnorm=use_batchnorm)
        train_cfg = TrainConfig(epochs=1, batch_size=4, seed=9, target_len=12)
        model, _ = train(tiny_dataset(rng), (range(8), ()), cfg, train_cfg, loss)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, model)
        loaded, header = load_checkpoint(path)

        arrays = _blob_arrays(model)
        assert header["arrays"] == [{"name": n, "shape": list(a.shape)} for n, a in arrays]
        assert [n for n, _ in arrays] == [n for n, _ in model.parameters()] + [n for n, _ in model.buffers()]
        for (n1, a1), (n2, a2) in zip(arrays, _blob_arrays(loaded), strict=True):
            assert n1 == n2
            assert np.array_equal(a1, a2)

    def test_truncated_blob_rejected(self, tmp_path, rng):
        model = RecognitionModel(SMALL, 3, "char", rng)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, model)
        with open(path, "rb") as f:
            raw = f.read()
        with open(path, "wb") as f:
            f.write(raw[:-16])
        with pytest.raises(ValueError):
            load_checkpoint(path)


def saved_checkpoint(tmp_path, rng):
    """A saved char checkpoint with batchnorm: (path, header, blob)."""
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, RecognitionModel(SMALL, 3, "char", rng))
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        blob = f.read()
    return path, header, blob


def rewrite(path, header, blob):
    with open(path, "wb") as f:
        f.write(json.dumps(header).encode("utf-8") + b"\n" + blob)


def with_first_entry(header, blob, name, value):
    """blob with the first entry of array name set to value."""
    offset = 0
    for spec in header["arrays"]:
        if spec["name"] == name:
            break
        offset += BLOB_DTYPE.itemsize * int(np.prod(spec["shape"]))
    return blob[:offset] + np.array([value], BLOB_DTYPE).tobytes() + blob[offset + BLOB_DTYPE.itemsize :]


def entry(name, shape):
    return {"name": name, "shape": shape}


def set_entry(i, value):
    def mutate(header, blob):
        header["arrays"][i] = value
        return blob

    return mutate


def drop_last(header, blob):
    """norm.running_var unlisted, and cut from the blob."""
    spec = header["arrays"].pop()
    return blob[: -BLOB_DTYPE.itemsize * spec["shape"][0]]


def append_extra(header, blob):
    """An array the model lacks, listed and stored after the model's own."""
    header["arrays"].append(entry("norm.extra", [2]))
    return blob + np.zeros(2, BLOB_DTYPE).tobytes()


def swap_first_two(header, blob):
    """conv.b listed and stored before conv.w: the model's arrays, reordered."""
    w, b = (BLOB_DTYPE.itemsize * int(np.prod(s["shape"])) for s in header["arrays"][:2])
    header["arrays"][:2] = header["arrays"][1::-1]
    return blob[w : w + b] + blob[:w] + blob[w + b :]


# (mutation of the saved SMALL char checkpoint, first entry that differs,
# what the file lists there, what the model holds there; None for nothing)
MANIFEST_FAULTS = [
    pytest.param(set_entry(1, entry("conv.bias", [6])), 1, entry("conv.bias", [6]), entry("conv.b", [6]), id="rename"),
    pytest.param(set_entry(1, entry("conv.w", [6])), 1, entry("conv.w", [6]), entry("conv.b", [6]), id="repeat"),
    pytest.param(drop_last, 15, None, entry("norm.running_var", [6]), id="drop-last"),
    pytest.param(
        set_entry(12, entry("head.w", [4, 5])), 12, entry("head.w", [4, 5]), entry("head.w", [5, 4]), id="transpose"
    ),
    pytest.param(set_entry(0, ["conv.w"]), 0, ["conv.w"], entry("conv.w", [6, 3, 3]), id="non-object"),
    pytest.param(append_extra, 16, entry("norm.extra", [2]), None, id="extra"),
    pytest.param(swap_first_two, 0, entry("conv.b", [6]), entry("conv.w", [6, 3, 3]), id="reordered"),
]


def rejected(path, problem):
    """Expect load_checkpoint to fail with a message starting with problem."""
    return pytest.raises(ValueError, match="^" + re.escape(f"checkpoint {path}: {problem}"))


def misshapen(path, problem):
    """Expect load_checkpoint's check_object to fail, naming the file in its subject."""
    return pytest.raises(ValueError, match="^" + re.escape(f"checkpoint {path} {problem}"))


class TestCheckpointChecks:
    """Every rejected checkpoint names the file and the key or array."""

    @pytest.mark.parametrize(
        "line, problem",
        [
            (b"{not json", "header: not JSON: "),
            (b"\xff\xfe\x00", "header: not JSON: "),
            (b"[1, 2]", "header must be a JSON object, got list"),
        ],
        ids=["bad-json", "binary", "list"],
    )
    def test_bad_header_line(self, tmp_path, line, problem):
        path = tmp_path / "m.ckpt"
        path.write_bytes(line + b"\n")
        with misshapen(path, problem):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("key", ["model", "task", "in_channels", "arrays"])
    def test_missing_header_key(self, tmp_path, rng, key):
        path, header, blob = saved_checkpoint(tmp_path, rng)
        del header[key]
        rewrite(path, header, blob)
        with misshapen(path, f"header is missing the key(s) {key}"):
            load_checkpoint(path)

    def test_bad_model_config_names_the_file(self, tmp_path, rng):
        path, header, blob = saved_checkpoint(tmp_path, rng)
        header["model"]["conv_filters"] = "6"
        rewrite(path, header, blob)
        with rejected(path, "ModelConfig: conv_filters must be an integer, got '6'"):
            load_checkpoint(path)

    def test_model_config_range_fault_names_the_file_and_class(self, tmp_path, rng):
        path, header, blob = saved_checkpoint(tmp_path, rng)
        header["model"]["conv_filters"] = 0
        rewrite(path, header, blob)
        with rejected(path, "ModelConfig: conv_filters must be in [1, inf), got 0"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "value, expect, problem",
        [
            ("3", misshapen, "header: in_channels must be an integer, got '3'"),
            (0, misshapen, "header: in_channels must be in [1, inf), got 0"),
            (True, misshapen, "header: in_channels must be an integer, got True"),
        ],
        ids=["3", "0", "True"],
    )
    def test_bad_in_channels(self, tmp_path, rng, value, expect, problem):
        path, header, blob = saved_checkpoint(tmp_path, rng)
        header["in_channels"] = value
        rewrite(path, header, blob)
        with expect(path, problem):
            load_checkpoint(path)

    @pytest.mark.parametrize("mutate, index, listed, held", MANIFEST_FAULTS)
    def test_manifest_is_the_models(self, tmp_path, rng, mutate, index, listed, held):
        path, header, blob = saved_checkpoint(tmp_path, rng)
        rewrite(path, header, mutate(header, blob))
        listed, held = ("nothing" if e is None else json.dumps(e) for e in (listed, held))
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"checkpoint {path}: array entry {index}: the file lists {listed}, the model holds {held}"

    @pytest.mark.parametrize(
        "name, value", [("norm.running_var", np.nan), ("conv.w", np.inf), ("head.b", -np.inf)]
    )
    def test_non_finite_array(self, tmp_path, rng, name, value):
        path, header, blob = saved_checkpoint(tmp_path, rng)
        rewrite(path, header, with_first_entry(header, blob, name, value))
        with rejected(path, f"array {name!r} holds a non-finite value"):
            load_checkpoint(path)

    def test_negative_running_var(self, tmp_path, rng):
        # finite, but eval batchnorm would take the square root of it
        path, header, blob = saved_checkpoint(tmp_path, rng)
        rewrite(path, header, with_first_entry(header, blob, "norm.running_var", -1e-3))
        with rejected(path, "array 'norm.running_var' holds a negative variance"):
            load_checkpoint(path)

    def test_zero_running_var_loads(self, tmp_path, rng):
        path, header, blob = saved_checkpoint(tmp_path, rng)
        rewrite(path, header, with_first_entry(header, blob, "norm.running_var", 0.0))
        model, _ = load_checkpoint(path)
        assert model.norm.running_var[0] == 0.0

    def test_short_blob_names_the_file(self, tmp_path, rng):
        path, header, blob = saved_checkpoint(tmp_path, rng)
        rewrite(path, header, blob[:-3])
        with rejected(path, "the blob holds"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "field, value, problem",
        [
            ("epochs_completed", -1, " header: epochs_completed must be in [0, inf), got -1"),
            ("alphabet", list("abc"), ": 'alphabet' has 3 symbols, but the model has 4 classes"),
            ("train", {"target_len": 0}, " header 'train': target_len must be in [1, inf), got 0"),
        ],
        ids=["epochs", "alphabet", "train"],
    )
    def test_run_field_is_checked_when_present(self, tmp_path, rng, field, value, problem):
        path, header, blob = saved_checkpoint(tmp_path, rng)
        rewrite(path, {**header, field: value}, blob)
        with pytest.raises(ValueError, match="^" + re.escape(f"checkpoint {path}{problem}") + "$"):
            load_checkpoint(path)


def tiny_dataset(rng, n=8, t_len=12, channels=2, classes=3):
    samples = []
    for i in range(n):
        values = rng.normal(0, 1, (t_len, channels))
        label = (int(rng.integers(classes)),)
        samples.append(Sample(values, label, writer_id=i % 2, rate_hz=100.0))
    return samples


SMALL_TRAIN = TrainConfig(epochs=2, learning_rate=1e-3, batch_size=4, seed=9, target_len=12)

# (key, this run's value, the message after "the model to continue has "),
# one row per key train() checks on a model built from SMALL for 2 channels
CONTINUE_CASES = [
    ("task", "seq2seq", "task = 'char', but this run asks for 'seq2seq' (loss 'ctc')"),
    ("in_channels", 5, "in_channels = 2, but this run asks for 5"),
    ("num_classes", 5, "num_classes = 4, but this run asks for 5"),
    ("conv_filters", 7, "conv_filters = 6, but this run asks for 7"),
    ("conv_kernel", 2, "conv_kernel = 3, but this run asks for 2"),
    ("pool_size", 3, "pool_size = 2, but this run asks for 3"),
    ("dropout_rate", 0.5, "dropout_rate = 0.0, but this run asks for 0.5"),
    ("recurrent_kind", "LSTM", "recurrent_kind = 'BiLSTM', but this run asks for 'LSTM'"),
    ("lstm_units", 7, "lstm_units = 100, but this run asks for 7"),
    ("bilstm_units", 4, "bilstm_units = 3, but this run asks for 4"),
    ("bilstm_layers", 2, "bilstm_layers = 1, but this run asks for 2"),
    ("dense_units", 6, "dense_units = 5, but this run asks for 6"),
    ("use_batchnorm", False, "use_batchnorm = True, but this run asks for False"),
]


class TestTrain:
    def test_zero_epochs_empty_history(self, rng):
        data = tiny_dataset(rng)
        cfg = TrainConfig(epochs=0, seed=1, target_len=12)
        model, history = train(data, (range(8), ()), SMALL, cfg, "cce")
        assert history == []
        assert model.task == "char"

    def test_history_length_and_keys(self, rng):
        data = tiny_dataset(rng)
        model, history = train(data, (range(6), range(6, 8)), SMALL, SMALL_TRAIN, "cce")
        assert len(history) == 2
        for i, rec in enumerate(history):
            assert rec["epoch"] == i
            assert np.isfinite(rec["train_loss"])
            assert rec["skipped"] == 0
            assert 0.0 <= rec["crr"] <= 1.0

    def test_seq2seq_with_ctc_and_skips(self, rng):
        data = tiny_dataset(rng, t_len=8)
        # pooled to 4 frames: (0,) fits, (0,0,0,1,1) cannot
        hard = [s.with_values(s.values) for s in data[:2]]
        hard = [
            Sample(s.values, (0, 0, 0, 1, 1), s.writer_id, s.rate_hz) for s in hard
        ]
        mixed = hard + data[2:]
        cfg = TrainConfig(epochs=1, batch_size=8, seed=3, target_len=8)
        model, history = train(mixed, (range(8), ()), SMALL, cfg, "ctc")
        assert model.task == "seq2seq"
        assert history[0]["skipped"] == 2

    def test_validation_wer_matches_evaluate(self, rng, monkeypatch):
        # 4 of 5 exact: 1 - 4/5 is 0.19999999999999996, evaluate's (5 - 4)/5 is 0.2
        labels = [(0,), (1,), (2,), (0, 1), (1, 2)]
        hyps = labels[:4] + [(2, 1)]
        monkeypatch.setattr(train_module, "predict", lambda *args: hyps)
        model = RecognitionModel(SMALL, 3, "seq2seq", rng)
        scores = train_module._evaluate_split(model, np.zeros((5, 4, 3)), labels, range(5), 5)
        assert scores["wer"] == 0.2

    def test_ctc_scores_each_batch_in_one_call(self, rng, monkeypatch):
        train_module = importlib.import_module("penscript.netcore.train")
        real = train_module.ctc_loss
        calls = []

        def spy(log_probs, targets):
            calls.append((log_probs.shape, list(targets)))
            return real(log_probs, targets)

        monkeypatch.setattr(train_module, "ctc_loss", spy)
        data = tiny_dataset(rng, t_len=8)
        # pooled to 4 frames, (0, 0, 0, 1, 1) cannot fit
        hard = (0, 0, 0, 1, 1)
        data = [Sample(s.values, hard, s.writer_id, s.rate_hz) for s in data[:2]] + data[2:]
        cfg = TrainConfig(epochs=2, batch_size=4, seed=3, target_len=8)
        _, history = train(data, (range(8), ()), SMALL, cfg, "ctc")
        assert [rec["skipped"] for rec in history] == [2, 2]
        # the two rows that cannot fit leave before batching, so the six
        # that fit make two batches an epoch, of four and two rows
        assert len(calls) == 4
        assert sum(shape[0] for shape, _ in calls) == 2 * 6
        for shape, targets in calls:
            assert shape[0] == len(targets) and hard not in targets

    def test_infeasible_samples_leave_before_batching(self, rng):
        # pooled to 4 frames, (0, 0, 0, 1, 1) cannot fit
        data = tiny_dataset(rng, t_len=8)
        hard = (1, 4, 6)
        for i in hard:
            data[i] = Sample(data[i].values, (0, 0, 0, 1, 1), data[i].writer_id, data[i].rate_hz)
        fits = [i for i in range(8) if i not in hard]
        model_cfg = dataclasses.replace(SMALL, dropout_rate=0.3)
        cfg = TrainConfig(epochs=3, learning_rate=1e-2, batch_size=2, seed=4, target_len=8)
        mixed, h_mixed = train(data, (range(8), ()), model_cfg, cfg, "ctc")
        clean, h_clean = train(data, (fits, ()), model_cfg, cfg, "ctc")
        assert [rec["skipped"] for rec in h_mixed] == [3, 3, 3]
        assert [rec["skipped"] for rec in h_clean] == [0, 0, 0]
        assert [rec["train_loss"] for rec in h_mixed] == [rec["train_loss"] for rec in h_clean]
        for (name, a), (_, b) in zip(mixed.parameters(), clean.parameters()):
            assert np.array_equal(a.data, b.data), name
        for (name, a), (_, b) in zip(mixed.buffers(), clean.buffers()):
            assert np.array_equal(a, b), name

    def test_all_infeasible_steps_nothing(self, rng):
        data = tiny_dataset(rng, t_len=8)
        data = [Sample(s.values, (0, 0, 0, 1, 1), s.writer_id, s.rate_hz) for s in data]
        cfg = TrainConfig(epochs=2, batch_size=4, seed=3, target_len=8)
        model, history = train(data, (range(8), ()), SMALL, cfg, "ctc")
        fresh = RecognitionModel(SMALL, 2, "seq2seq", stream(cfg.seed, 0))
        for (name, a), (_, b) in zip(model.parameters(), fresh.parameters()):
            assert np.array_equal(a.data, b.data), name
        for (name, a), (_, b) in zip(model.buffers(), fresh.buffers()):
            assert np.array_equal(a, b), name
        assert [rec["skipped"] for rec in history] == [8, 8]
        assert all(np.isnan(rec["train_loss"]) for rec in history)
        # a new model's batchnorm has no running stats to validate with
        message = "none of the 6 training targets fits 4 output frames"
        with pytest.raises(ValueError, match=message):
            train(data, (range(6), (6, 7)), SMALL, cfg, "ctc")

    @pytest.mark.parametrize(
        "loss, problem",
        [("ctc", "row 0: log_probs are NaN at frame 0"), ("cce", "logits contain non-finite values")],
    )
    def test_nan_output_names_epoch_batch_and_rows(self, rng, loss, problem):
        data = tiny_dataset(rng)
        train_idx = (6, 2, 7, 3, 5)
        model = RecognitionModel(SMALL, 2, "seq2seq" if loss == "ctc" else "char", rng)
        model.head.b.data[0] = np.nan
        cfg = TrainConfig(epochs=1, batch_size=2, seed=3, target_len=12)
        rows = [train_idx[i] for i in stream(cfg.seed, 1).permutation(5)[:2]]
        message = f"epoch 0, batch 0 (dataset indices {rows}): {problem}"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            train(data, (train_idx, ()), SMALL, cfg, loss, model=model)

    def test_failed_loss_names_a_later_batch(self, rng, monkeypatch):
        train_module = importlib.import_module("penscript.netcore.train")
        real = train_module.ctc_loss
        calls = []

        def fails_fourth(log_probs, targets):
            calls.append(len(targets))
            if len(calls) == 4:
                raise ValueError("boom")
            return real(log_probs, targets)

        monkeypatch.setattr(train_module, "ctc_loss", fails_fourth)
        data = tiny_dataset(rng)
        train_idx = (7, 0, 5, 1, 6, 2, 4, 3)
        cfg = TrainConfig(epochs=2, batch_size=4, seed=3, target_len=12)
        order = stream(cfg.seed, 1)
        order.permutation(8)
        rows = [train_idx[i] for i in order.permutation(8)[4:]]
        message = f"epoch 1, batch 1 (dataset indices {rows}): boom"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            train(data, (train_idx, ()), SMALL, cfg, "ctc")

    @pytest.mark.parametrize("pool", [1, 2, 3, 4])
    def test_output_frames_matches_forward(self, rng, pool):
        model = RecognitionModel(
            dataclasses.replace(SMALL, pool_size=pool), 2, "seq2seq", rng
        )
        for frames in (1, 2, 5, 7, 8, 12):
            out = model.forward(rng.normal(0, 1, (1, frames, 2)), "train")
            assert model.output_frames(frames) == out.shape[1]

    def test_joint_opt_path(self, rng):
        data = tiny_dataset(rng)
        cfg = TrainConfig(epochs=1, batch_size=4, seed=2, target_len=12)
        _, history = train(data, (range(8), ()), SMALL, cfg, "joint_opt")
        assert len(history) == 1
        assert np.isfinite(history[0]["train_loss"])

    def test_same_seed_bit_identical(self, rng):
        data = tiny_dataset(rng)
        m1, h1 = train(data, (range(6), range(6, 8)), SMALL, SMALL_TRAIN, "cce")
        m2, h2 = train(data, (range(6), range(6, 8)), SMALL, SMALL_TRAIN, "cce")
        assert h1 == h2
        for (_, p1), (_, p2) in zip(m1.parameters(), m2.parameters()):
            assert np.array_equal(p1.data, p2.data)

    def test_resume_continues_model(self, rng):
        data = tiny_dataset(rng)
        model, _ = train(data, (range(8), ()), SMALL, SMALL_TRAIN, "cce")
        before = [p.data.copy() for _, p in model.parameters()]
        model2, history = train(
            data, (range(8), ()), SMALL, SMALL_TRAIN, "cce", model=model
        )
        assert model2 is model
        assert len(history) == 2
        assert any(
            not np.array_equal(b, p.data)
            for b, (_, p) in zip(before, model.parameters())
        )

    @pytest.mark.parametrize("key, want, message", CONTINUE_CASES, ids=[c[0] for c in CONTINUE_CASES])
    def test_continued_model_must_match_the_run(self, rng, key, want, message):
        model = RecognitionModel(SMALL, 2, "char", rng)
        loss = "ctc" if key == "task" else "cce"
        data = tiny_dataset(rng, channels=want if key == "in_channels" else 2)
        cfg = SMALL if key in ("task", "in_channels") else dataclasses.replace(SMALL, **{key: want})
        with pytest.raises(ValueError) as exc:
            train(data, (range(8), ()), cfg, SMALL_TRAIN, loss, model=model)
        assert str(exc.value) == f"the model to continue has {message}"

    def test_every_model_field_has_a_continue_case(self):
        fields = [f.name for f in dataclasses.fields(ModelConfig)]
        assert [c[0] for c in CONTINUE_CASES] == ["task", "in_channels", *fields]

    def test_model_from_another_config_is_rejected(self, rng):
        # two fields differ; the first in declaration order is named
        other = dataclasses.replace(SMALL, conv_filters=7, dense_units=9)
        model = RecognitionModel(other, 2, "char", rng)
        with pytest.raises(ValueError) as exc:
            train(tiny_dataset(rng), (range(8), ()), SMALL, SMALL_TRAIN, "cce", model=model)
        assert str(exc.value) == "the model to continue has conv_filters = 7, but this run asks for 6"

    @pytest.mark.parametrize(
        "loss, problem",
        [("cce", "model output is NaN"), ("ctc", "log_probs are NaN at frame 0")],
        ids=["cce", "ctc"],
    )
    def test_nan_validation_output_names_the_sample(self, rng, loss, problem):
        data = tiny_dataset(rng)
        model, _ = train(data, (range(8), ()), SMALL, SMALL_TRAIN, loss)
        # train mode normalises with batch statistics, so only eval sees the NaN
        model.norm.running_mean = np.full_like(model.norm.running_mean, np.nan)
        with pytest.raises(ValueError, match=f"^epoch 0, validation sample 5: {problem}$"):
            train(data, ((0, 1, 2, 3), (5, 6)), SMALL, SMALL_TRAIN, loss, model=model)

    def test_validation_decodes_through_the_train_module(self, rng, monkeypatch):
        real = train_module.greedy_decode
        frames = []

        def spy(log_probs):
            frames.append(len(log_probs))
            return real(log_probs)

        monkeypatch.setattr(train_module, "greedy_decode", spy)
        _, history = train(tiny_dataset(rng), ((0, 1, 2, 3), (4, 5, 6)), SMALL, SMALL_TRAIN, "ctc")
        assert frames == [6] * 6  # 3 samples, 2 epochs, 12 frames pooled by 2
        assert len(history) == 2

    @pytest.mark.parametrize("loss", ["cce", "ctc"])
    def test_validation_forwards_at_most_a_batch(self, rng, monkeypatch, loss):
        real = RecognitionModel.forward
        eval_rows = []

        def spy(self, x, mode, *args, **kwargs):
            if mode == "eval":
                eval_rows.append(len(x))
            return real(self, x, mode, *args, **kwargs)

        monkeypatch.setattr(RecognitionModel, "forward", spy)
        data = tiny_dataset(rng, n=10)
        cfg = TrainConfig(epochs=2, learning_rate=1e-3, batch_size=3, seed=9, target_len=12)
        _, history = train(data, ((0, 1, 2), range(3, 10)), SMALL, cfg, loss)
        assert eval_rows == [3, 3, 1] * 2
        assert len(history) == 2

    @pytest.mark.parametrize("fold", [((0, 1, 5), ()), ((0, 1), (2, 5))], ids=["train", "validation"])
    def test_character_loss_needs_one_symbol_labels(self, rng, fold):
        data = tiny_dataset(rng)
        data[5] = Sample(data[5].values, (0, 1, 2), writer_id=0, rate_hz=100.0)
        expected = "^dataset index 5: a character loss needs a one-symbol label, got 3 symbols$"
        with pytest.raises(ValueError, match=expected):
            train(data, fold, SMALL, SMALL_TRAIN, "cce")

    def test_bad_selector_and_empty_split(self, rng):
        data = tiny_dataset(rng)
        with pytest.raises(ValueError):
            train(data, (range(8), ()), SMALL, SMALL_TRAIN, "mse")
        with pytest.raises(ValueError):
            train(data, ((), range(8)), SMALL, SMALL_TRAIN, "cce")

    @pytest.mark.parametrize(
        "fold, index", [(((0, 1, -1), ()), -1), (((0, 1), (8,)), 8)], ids=["negative", "past-end"]
    )
    def test_fold_index_out_of_range_is_named(self, rng, fold, index):
        data = tiny_dataset(rng)
        with pytest.raises(ValueError, match=f"fold index {index} is out of range for 8 samples"):
            train(data, fold, SMALL, SMALL_TRAIN, "cce")

    def test_config_round_trip_and_validation(self):
        assert TrainConfig.from_dict(SMALL_TRAIN.to_dict()) == SMALL_TRAIN
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)
        with pytest.raises(ValueError):
            TrainConfig(epochs=1, learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig.from_dict({"epochs": 1, "bogus": 2})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("learning_rate", float("nan")),
            ("learning_rate", float("inf")),
            ("learning_rate", -1e-4),
            ("adam_eps", 0.0),
            ("adam_eps", -1.0),
            ("adam_eps", float("nan")),
            ("adam_beta1", 1.0),
            ("adam_beta1", -0.1),
            ("adam_beta2", -0.5),
            ("adam_beta2", float("nan")),
        ],
    )
    def test_bad_optimizer_setting_names_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            TrainConfig(epochs=1, **{field: value})

    def test_optimizer_setting_edges_accepted(self):
        TrainConfig(epochs=1, adam_beta1=0.0, adam_beta2=0.0, adam_eps=1e-300, learning_rate=5.0)


def in_batches(x, size):
    return (x[start : start + size] for start in range(0, len(x), size))


class TestPredict:
    NO_NORM = dataclasses.replace(SMALL, use_batchnorm=False)
    NAMES = [f"row {i}" for i in range(5)]

    def test_char_rows_give_their_argmax(self, rng):
        model = RecognitionModel(self.NO_NORM, 2, "char", rng)
        x = rng.normal(0, 1, (5, 12, 2))
        out = np.concatenate([model.forward(b, "eval").data for b in in_batches(x, 2)])
        want = [(int(k),) for k in out.argmax(axis=1)]
        assert predict(model, in_batches(x, 2), self.NAMES, greedy_decode) == want

    def test_seq2seq_rows_go_through_the_decoder(self, rng):
        model = RecognitionModel(self.NO_NORM, 2, "seq2seq", rng)
        x = rng.normal(0, 1, (5, 12, 2))
        out = np.concatenate([model.forward(b, "eval").data for b in in_batches(x, 2)])
        seen = []

        def decode(log_probs):
            seen.append(log_probs)
            return (len(seen),)

        assert predict(model, in_batches(x, 2), self.NAMES, decode) == [(i,) for i in range(1, 6)]
        assert len(seen) == 5
        assert all(np.array_equal(a, b) for a, b in zip(seen, out))

    @pytest.mark.parametrize(
        "task, problem",
        [("char", "model output is NaN"), ("seq2seq", "log_probs are NaN at frame 0")],
        ids=["char", "seq2seq"],
    )
    def test_a_nan_row_is_named_in_a_later_batch(self, rng, task, problem):
        model = RecognitionModel(self.NO_NORM, 2, task, rng)
        x = rng.normal(0, 1, (5, 12, 2))
        x[3] = np.nan
        with pytest.raises(ValueError, match=f"^row 3: {problem}$"):
            predict(model, in_batches(x, 2), self.NAMES, greedy_decode)

    def test_a_decoder_error_is_prefixed_with_the_name(self, rng):
        model = RecognitionModel(self.NO_NORM, 2, "seq2seq", rng)

        def decode(log_probs):
            raise ValueError("no path")

        with pytest.raises(ValueError, match="^recording 0: no path$"):
            predict(model, [np.zeros((1, 12, 2))], ["recording 0"], decode)
