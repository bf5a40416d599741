import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exact
from uavdsa import iqsynth, nnet, sensing
from uavdsa import scheduler as sch
from uavdsa.seeds import derive_rng


def linear_net(w, b):
    return nnet.Network([nnet.Layer(np.array([[float(w)]]), np.array([float(b)]),
                                    "identity")])


class TestForward:
    def test_identity_layer_passes_input_through(self):
        net = nnet.Network([nnet.Layer(np.eye(3), np.zeros(3), "identity")])
        x = np.array([0.3, -1.2, 4.0])
        assert np.allclose(nnet.forward(net, x), x)

    def test_relu_clips_negative_preactivations(self):
        net = nnet.Network([nnet.Layer(np.eye(2), np.array([-5.0, -5.0]), "relu")])
        assert np.allclose(nnet.forward(net, np.array([1.0, 2.0])), 0.0)

    def test_fixed_2_2_1_hand_computed(self):
        # z1 = [2.1, 2.8] (both positive), z2 = 2.1*1.5 - 2.8*0.5 + 0.25 = 2.0
        net = nnet.Network([
            nnet.Layer(np.array([[1.0, -1.0], [0.5, 2.0]]), np.array([0.1, -0.2]), "relu"),
            nnet.Layer(np.array([[1.5], [-0.5]]), np.array([0.25]), "identity"),
        ])
        assert nnet.forward(net, np.array([1.0, 2.0]))[0] == pytest.approx(2.0)

    def test_batch_matches_single(self):
        net = nnet.build_network([3, 5, 2], ["relu", "sigmoid"], seed=0)
        xs = np.random.default_rng(1).normal(size=(4, 3))
        batch = nnet.forward(net, xs)
        for i, x in enumerate(xs):
            assert np.allclose(batch[i], nnet.forward(net, x))

    def test_dimension_mismatch(self):
        net = nnet.build_network([3, 2], ["identity"], seed=0)
        with pytest.raises(ValueError):
            nnet.forward(net, np.zeros(4))


@pytest.mark.parametrize("hidden", [(64, 64), (128, 128)])
@pytest.mark.parametrize("m", [2, 4, 8, 16])
@settings(max_examples=10, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_trace_rows_equal_separate_passes(m, hidden, seed):
    # the learner step traces [batch; next states] at once and slices it
    rng = np.random.default_rng(seed)
    net = nnet.build_network([m, *hidden, m + 1], ["relu", "relu", "identity"], seed=seed)
    a, b = rng.normal(size=(32, m)), rng.choice([0.0, 0.5, 1.0], size=(32, m))
    pre, post = nnet.forward_trace(net, np.vstack((a, b)))
    (pre_a, post_a), (pre_b, post_b) = nnet.forward_trace(net, a), nnet.forward_trace(net, b)
    for whole, top, bottom in zip(pre + post, pre_a + post_a, pre_b + post_b):
        assert np.array_equal(whole[:32], top) and np.array_equal(whole[32:], bottom)


def _padded_table(m):  # as DqnAgent pads it, to a multiple of 4 rows
    return np.pad(sch.feature_table(m), ((0, -(2 ** m + 1) % 4), (0, 0)))


def _learner_net(m, hidden, seed):
    net = nnet.build_network([m, *hidden, m + 1], ["relu"] * len(hidden) + ["identity"],
                             seed=seed)
    net.params += np.random.default_rng(seed).normal(scale=0.05, size=net.params.size)
    return net


# The DQN step runs primary and target as one NetworkStack over the feature
# table and reads the batch's next-state Q rows from it, so each table row
# must equal that state's row of a batch pass. A one-row pass is not
# covered: numpy sends a one-row product to BLAS gemv, whose rows differ
# from gemm's in the last bits, so `select` (one state a call) keeps its
# own pass: reading its row from the table would round the training logs'
# `mean_q` column (and any near-tie of its greedy picks) differently, a
# named rounding change.
@pytest.mark.parametrize("hidden", [(64, 64), (16, 16), (128,)])
@pytest.mark.parametrize("m", [1, 2, 4])
def test_stack_slices_equal_each_networks_own_pass(m, hidden):
    nets = [_learner_net(m, hidden, seed) for seed in (1, 2, 3)]
    table = _padded_table(m)
    own = [nnet.forward_trace(net, table) for net in nets]
    stack = nnet.NetworkStack(nets)
    pre, post = nnet.forward_trace(stack, table)
    assert post[0].tobytes() == table.tobytes()
    for i, (own_pre, own_post) in enumerate(own):
        assert [z[i].tobytes() for z in pre] == [z.tobytes() for z in own_pre]
        assert [a[i].tobytes() for a in post[1:]] == [a.tobytes() for a in own_post[1:]]


@pytest.mark.parametrize("hidden", [(64, 64), (16, 16), (128,)])
@pytest.mark.parametrize("m", [1, 2, 4])
def test_table_rows_gathered_by_state_equal_a_batch_pass(m, hidden):
    net = _learner_net(m, hidden, m)
    states = np.random.default_rng(m).integers(0, 2 ** m + 1, size=64)
    table = _padded_table(m)
    whole, batch = nnet.forward_trace(net, table), nnet.forward_trace(net, table[states])
    for got, want in zip(whole[0] + whole[1], batch[0] + batch[1]):
        assert got.take(states, axis=0).tobytes() == want.tobytes()


def test_stacked_networks_keep_their_own_params_and_layer_views():
    primary, target = _learner_net(3, (8,), 1), _learner_net(3, (8,), 2)
    before = primary.params.copy(), target.params.copy()
    stack = nnet.NetworkStack([primary, target])
    assert stack.params.shape == (2, primary.params.size)
    assert stack.params[0].tobytes() == before[0].tobytes()
    assert stack.params[1].tobytes() == before[1].tobytes()
    for net in (primary, target):  # every view reads and writes the stack's buffer
        assert all(np.shares_memory(a, stack.params) for l in net.layers for a in (l.w, l.b))
    assert all(np.shares_memory(a, stack.params) for l in stack.layers for a in (l.w, l.b))
    target.params *= 0.5  # as soft_update does
    target.layers[0].b[1] = 3.0
    x = _padded_table(3)
    assert nnet.forward_trace(stack, x)[1][-1][1].tobytes() == nnet.forward(target, x).tobytes()


class TestBackward:
    def test_zero_gradient_at_perfect_fit(self):
        net = linear_net(2.0, 1.0)
        x, y = np.array([3.0]), np.array([7.0])  # 2*3+1 = 7
        grads = exact.mse_gradients(net, x, y)
        assert exact.mse_loss(nnet.forward(net, x), y) == 0.0
        assert np.allclose(grads[0][0], 0.0) and np.allclose(grads[0][1], 0.0)

    def test_single_linear_neuron_closed_form(self):
        # dL/dw = 2(wx+b-y)x, dL/db = 2(wx+b-y)
        net = linear_net(0.7, 0.1)
        x, y = np.array([2.0]), np.array([0.5])
        grads = exact.mse_gradients(net, x, y)
        err = 0.7 * 2.0 + 0.1 - 0.5
        assert grads[0][0][0, 0] == pytest.approx(2 * err * 2.0)
        assert grads[0][1][0] == pytest.approx(2 * err)

    def test_matches_finite_differences_on_random_net(self):
        rng = np.random.default_rng(5)
        net = nnet.build_network([4, 8, 3], ["relu", "identity"], seed=5)
        x = rng.normal(size=4)
        y = rng.normal(size=3)
        assert exact.gradient_check(net, x, y, exact.MSE, eps=1e-3) <= 1e-4

    def test_batch_gradient_is_mean_of_singles(self):
        net = nnet.build_network([2, 4, 2], ["relu", "sigmoid"], seed=3)
        xs = np.random.default_rng(6).normal(size=(3, 2))
        ys = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        # backward reuses one gradient buffer per network, so keep copies
        batch_w = [gw.copy() for gw, _ in nnet.backward(net, xs, ys)]
        singles = [[gw.copy() for gw, _ in nnet.backward(net, x, y)]
                   for x, y in zip(xs, ys)]
        for li in range(2):
            mean_w = np.mean([g[li] for g in singles], axis=0)
            assert np.allclose(batch_w[li], mean_w)

    def test_nonfinite_aborts_with_layer_index(self):
        net = linear_net(1e200, 0.0)
        with np.errstate(over="ignore"), \
                pytest.raises(nnet.NonFiniteLossError, match="layer"):
            exact.mse_gradients(net, np.array([1e200]), np.array([0.0]))

    # (1e-300, 1e308): the output error is finite and overflows only below
    # layer 1; (1e200, 1e200): the output overflows, so both layers break
    @pytest.mark.parametrize("w0, w1, layer", [(1e-300, 1e308, 0), (1e200, 1e200, 1)])
    def test_nonfinite_names_the_top_most_layer(self, w0, w1, layer):
        net = nnet.Network([nnet.Layer(np.array([[w0]]), np.zeros(1), "identity"),
                            nnet.Layer(np.array([[w1]]), np.zeros(1), "identity")])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(nnet.NonFiniteLossError, match=f"at layer {layer}$"):
            exact.mse_gradients(net, np.array([1.0]), np.array([0.0]))


class TestOptimizers:
    def test_zero_gradients_leave_parameters_unchanged(self):
        net = nnet.build_network([2, 2], ["identity"], seed=1)
        before = net.layers[0].w.copy()
        state = nnet.OptimizerState(learning_rate=0.1)
        net.gradient()[0][:] = 0.0
        nnet.optimizer_step(net, state)
        assert np.array_equal(net.layers[0].w, before)

    def test_adam_first_step_magnitude_is_lr(self):
        # bias correction makes |step| = lr * g / (|g| + eps) at t=1
        for g in (1e-3, 1.0, 1e3):
            net = linear_net(0.0, 0.0)
            state = nnet.OptimizerState(learning_rate=0.01)
            net.gradient()[0][:] = (g, 0.0)  # dW then db
            nnet.optimizer_step(net, state)
            assert abs(net.layers[0].w[0, 0]) == pytest.approx(0.01, rel=1e-4)


def reference_step(layers, grads, state, slots):
    """Per-layer Adam update with the bias corrections folded into a step
    size and an epsilon, kept as the oracle for the flat one."""
    state.step_count += 1
    lr, t = state.learning_rate, state.step_count
    root = math.sqrt(1.0 - nnet.ADAM_BETA2 ** t)
    alpha, eps = lr * root / (1.0 - nnet.ADAM_BETA1 ** t), nnet.ADAM_EPS * root
    for (w, b), (gw, gb), slot in zip(layers, grads, slots):
        for p, g, (m, v) in ((w, gw, slot[0]), (b, gb, slot[1])):
            m *= nnet.ADAM_BETA1
            m += (1.0 - nnet.ADAM_BETA1) * g
            v *= nnet.ADAM_BETA2
            v += (1.0 - nnet.ADAM_BETA2) * g ** 2
            p -= m * alpha / (np.sqrt(v) + eps)


def textbook_step(p, g, m, v, lr, t):
    """Kingma & Ba's Algorithm 1 on flat vectors, bias-corrected moments and all."""
    m[:] = nnet.ADAM_BETA1 * m + (1.0 - nnet.ADAM_BETA1) * g
    v[:] = nnet.ADAM_BETA2 * v + (1.0 - nnet.ADAM_BETA2) * g ** 2
    m_hat = m / (1.0 - nnet.ADAM_BETA1 ** t)
    v_hat = v / (1.0 - nnet.ADAM_BETA2 ** t)
    p -= lr * m_hat / (np.sqrt(v_hat) + nnet.ADAM_EPS)


def flat_of(pairs):
    """Per-layer (w, b) arrays laid out as one flat vector, like `params`."""
    return np.concatenate([a.ravel() for pair in pairs for a in pair])


class TestFlatParameters:
    def test_layers_are_views_of_one_vector(self):
        net = nnet.build_network([3, 4, 2], ["relu", "identity"], seed=0)
        assert net.params.size == 3 * 4 + 4 + 4 * 2 + 2
        for layer in net.layers:
            assert np.shares_memory(layer.w, net.params)
            assert np.shares_memory(layer.b, net.params)
        net.params[:] = 0.0
        assert not net.layers[1].w.any()
        net.layers[1].b[1] = 7.0
        assert net.params[-1] == 7.0

    def test_backward_reuses_one_gradient_buffer(self):
        net = nnet.build_network([3, 5, 2], ["relu", "identity"], seed=1)
        x = np.random.default_rng(1).normal(size=(4, 3))
        buf, _ = net.gradient()
        for _ in range(2):
            grads = exact.mse_gradients(net, x, np.zeros((4, 2)))
            assert all(np.shares_memory(gw, buf) and np.shares_memory(gb, buf)
                       for gw, gb in grads)
        assert net.gradient()[0] is buf

    def test_backward_from_a_held_trace_is_identical(self):
        net = nnet.build_network([3, 5, 2], ["relu", "identity"], seed=2)
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=(6, 3)), rng.normal(size=(6, 2))
        grads = exact.mse_gradients(net, x, y)
        fresh = [(gw.copy(), gb.copy()) for gw, gb in grads]
        grads2 = exact.mse_gradients(net, x, y, nnet.forward_trace(net, x))
        for (gw, gb), (hw, hb) in zip(fresh, grads2):
            assert np.array_equal(gw, hw) and np.array_equal(gb, hb)

    def test_flat_update_is_bitwise_the_per_layer_update(self):
        net = nnet.build_network([4, 8, 3], ["relu", "identity"], seed=3)
        ref = [(l.w.copy(), l.b.copy()) for l in net.layers]
        ref_slots = [tuple([np.zeros_like(p), np.zeros_like(p)] for p in pair)
                     for pair in ref]
        state = nnet.OptimizerState(learning_rate=0.01)
        ref_state = nnet.OptimizerState(learning_rate=0.01)
        rng = np.random.default_rng(3)
        for _ in range(5):
            x, y = rng.normal(size=(8, 4)), rng.normal(size=(8, 3))
            grads = exact.mse_gradients(net, x, y)
            reference_step(ref, [(gw.copy(), gb.copy()) for gw, gb in grads],
                           ref_state, ref_slots)
            nnet.optimizer_step(net, state)
            for layer, (w, b) in zip(net.layers, ref):
                assert np.array_equal(layer.w, w) and np.array_equal(layer.b, b)


    def test_blocked_update_is_bitwise_the_per_layer_update(self):
        """Two full Adam blocks and a ragged tail: every block's params and
        moments match the per-layer reference bit for bit."""
        net = nnet.build_network([600, 64, 4], ["relu", "identity"], seed=4)
        n = net.params.size
        assert n // nnet.ADAM_BLOCK == 2 and n % nnet.ADAM_BLOCK == 5956
        ref = [(l.w.copy(), l.b.copy()) for l in net.layers]
        ref_slots = [tuple([np.zeros_like(p), np.zeros_like(p)] for p in pair)
                     for pair in ref]
        state = nnet.OptimizerState(learning_rate=0.01)
        ref_state = nnet.OptimizerState(learning_rate=0.01)
        rng = np.random.default_rng(4)
        for _ in range(6):
            x, y = rng.normal(size=(8, 600)), rng.normal(size=(8, 4))
            grads = exact.mse_gradients(net, x, y)
            reference_step(ref, [(gw.copy(), gb.copy()) for gw, gb in grads],
                           ref_state, ref_slots)
            nnet.optimizer_step(net, state)
            expected = [flat_of(pairs) for pairs in (
                ref, [(w[0], b[0]) for w, b in ref_slots], [(w[1], b[1]) for w, b in ref_slots])]
            for got, want in zip((net.params, *state.slots), expected):
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert len(state.blocks) == 3


class TestAdamForms:
    @pytest.mark.parametrize("scale", [1e-9, 1e-3, 1.0, 1e3])
    def test_folded_step_tracks_the_textbook_update(self, scale):
        """60 steps of one gradient sequence (the eps term matters at the
        smallest scale): the folded step rounds differently but stays
        within 1e-12 of the textbook parameters, relative to the distance
        they travel."""
        rng = np.random.default_rng(6)
        net = nnet.build_network([5, 7, 3], ["relu", "identity"], seed=6)
        start = net.params.copy()
        p, m, v = start.copy(), np.zeros_like(start), np.zeros_like(start)
        state = nnet.OptimizerState(learning_rate=0.01)
        for t in range(1, 61):
            g = scale * rng.normal(size=start.size)
            g[rng.random(start.size) < 0.2] = 0.0
            net.gradient()[0][:] = g
            nnet.optimizer_step(net, state)
            textbook_step(p, g, m, v, 0.01, t)
        travelled = np.abs(p - start).max()
        assert travelled > 0.01
        assert np.abs(net.params - p).max() <= 1e-12 * travelled
        assert np.array_equal(state.slots[0], m) and np.array_equal(state.slots[1], v)

    @staticmethod
    def _planted(dtype):
        """A network of `dtype` and its optimizer two steps before a flush
        step, after a step whose gradient (kept) is zero on every third
        nonzero parameter, whose first moments are then set subnormal (or
        zero)."""
        net = nnet.build_network([4, 8, 3], ["relu", "identity"], seed=5, dtype=dtype)
        rng = np.random.default_rng(5)
        g = rng.normal(size=net.params.size)
        dead = np.flatnonzero(net.params)[::3]  # no parameter within 1e-22 of zero
        g[dead] = 0.0
        net.gradient()[0][:] = g
        state = nnet.OptimizerState(learning_rate=0.01)
        nnet.optimizer_step(net, state)
        tiny, least = np.finfo(dtype).tiny, np.finfo(dtype).smallest_subnormal
        planted = np.array([tiny / 2 ** 10, -tiny / 2 ** 20, least, -tiny / 2, tiny * 0.99, 0.0])
        state.slots[0][dead] = np.resize(planted, dead.size)
        state.step_count = nnet.ADAM_FLUSH_PERIOD - 2
        return net, state, dead

    @staticmethod
    def _subnormal(m):
        return np.count_nonzero((m != 0.0) & (np.abs(m) < np.finfo(m.dtype).tiny))

    def test_flush_runs_on_period_steps_only_and_moves_no_parameter_bit(self, monkeypatch):
        """In float64 and in float32, each below its own smallest normal."""
        for dtype in (np.float64, np.float32):
            net, state, dead = self._planted(dtype)
            twin, twin_state, _ = self._planted(dtype)
            nnet.optimizer_step(net, state)  # step PERIOD - 1: no flush
            assert self._subnormal(state.slots[0]) == self._subnormal(state.slots[0][dead]) > 0
            nnet.optimizer_step(net, state)  # step PERIOD: flush
            assert self._subnormal(state.slots[0]) == 0 and not state.slots[0][dead].any()
            with monkeypatch.context() as patch:
                patch.setattr(nnet, "ADAM_FLUSH_PERIOD", 2 * nnet.ADAM_FLUSH_PERIOD)
                for _ in range(2):
                    nnet.optimizer_step(twin, twin_state)
            assert self._subnormal(twin_state.slots[0]) > 0
            assert net.params.tobytes() == twin.params.tobytes()
            assert np.array_equal(state.slots[1], twin_state.slots[1])
            live = np.setdiff1d(np.arange(net.params.size), dead)
            assert np.array_equal(state.slots[0][live], twin_state.slots[0][live])


class TestGradientCheck:
    def test_quadratic_loss_is_exact(self):
        net = nnet.build_network([3, 2], ["identity"], seed=2)
        rng = np.random.default_rng(2)
        err = exact.gradient_check(net, rng.normal(size=3), rng.normal(size=2),
                                   exact.MSE, eps=1e-3)
        assert err <= 1e-8

    def test_relu_net_away_from_kinks(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            net = nnet.build_network([3, 6, 2], ["relu", "identity"],
                                     seed=int(rng.integers(10 ** 6)))
            x = rng.normal(size=3)
            pre, _ = nnet.forward_trace(net, x)
            if min(np.abs(pre[0]).min(), np.abs(pre[1]).min()) < 1e-2:
                continue  # resample configs near a kink
            assert exact.gradient_check(net, x, rng.normal(size=2), exact.MSE,
                                        eps=1e-3) <= 1e-4

    def test_planted_sign_flip_is_detected(self):
        # a sign-flipped analytic gradient sits ~2 relative error from the slope
        net = linear_net(0.7, 0.1)
        x, y = np.array([2.0]), np.array([0.5])
        grads = exact.mse_gradients(net, x, y)
        g = grads[0][0][0, 0]
        eps = 1e-4
        net.layers[0].w[0, 0] += eps
        up = exact.mse_loss(nnet.forward(net, x), y)
        net.layers[0].w[0, 0] -= 2 * eps
        down = exact.mse_loss(nnet.forward(net, x), y)
        net.layers[0].w[0, 0] += eps
        fd = (up - down) / (2 * eps)
        flipped_err = abs(-g - fd) / max(abs(g), abs(fd))
        assert flipped_err == pytest.approx(2.0, abs=1e-3)


class TestCloneAndCheckpoint:
    def test_clone_is_independent(self):
        src = nnet.build_network([2, 3, 1], ["relu", "sigmoid"], seed=4)
        clone = nnet.clone_weights(src)
        src.layers[0].w += 10.0
        assert not np.allclose(src.layers[0].w, clone.layers[0].w)

    def test_clone_matches_on_probes(self):
        src = nnet.build_network([3, 4, 2], ["relu", "identity"], seed=8)
        clone = nnet.clone_weights(src)
        for x in np.random.default_rng(8).normal(size=(5, 3)):
            assert np.allclose(nnet.forward(src, x), nnet.forward(clone, x))

    def test_repeated_clone_idempotent(self):
        src = nnet.build_network([2, 2], ["sigmoid"], seed=3)
        c1 = nnet.clone_weights(src)
        c2 = nnet.clone_weights(c1)
        assert np.array_equal(c1.layers[0].w, c2.layers[0].w)

    def test_checkpoint_roundtrip(self, tmp_path):
        net = nnet.build_network([4, 8, 3], ["relu", "sigmoid"], seed=12)
        path = str(tmp_path / "net.ckpt")
        nnet.save_checkpoint(net, path)
        loaded = nnet.load_checkpoint(path)
        assert [l.activation for l in loaded.layers] == ["relu", "sigmoid"]
        x = np.random.default_rng(0).normal(size=4)
        # weights are stored as f32, so outputs agree to float precision
        assert np.allclose(nnet.forward(net, x), nnet.forward(loaded, x), atol=1e-5)

    def test_checkpoint_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError):
            nnet.load_checkpoint(str(path))


class TestDtypes:
    def test_float32_sigmoid_saturates_without_warnings(self):
        """exp(100) overflows float32: the sigmoid still gives its exact
        limits, warning-free, and the bce loss (whose clip at 1 - 1e-12
        holds only in float64) and the gradient of saturated outputs stay
        finite."""
        net = nnet.Network([nnet.Layer(np.ones((1, 2), np.float32),
                                       np.zeros(2, np.float32), "sigmoid")])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, t = [[-100.0], [100.0]], [[1.0, 0.0], [0.0, 1.0]]
            y = nnet.forward(net, x)
            loss = nnet.output_loss(nnet.forward(net, x), t)
            grads = nnet.backward(net, x, t)
        assert y.dtype == np.float32 and y.tolist() == [[0.0, 0.0], [1.0, 1.0]]
        assert math.isfinite(loss)
        assert all(np.isfinite(g).all() for pair in grads for g in pair)

    @pytest.mark.parametrize("mode", sensing.INPUT_MODES)
    def test_classifier_is_float32_and_dqn_float64_through_training(self, mode, monkeypatch):
        """Through 300 training steps (one subnormal flush), the
        classifier's features, trace, parameters, gradient buffer and Adam
        moments and scratch stay float32; a DqnAgent's networks and
        moments stay float64."""
        traces, steps = [], []
        trace, step = nnet.forward_trace, nnet.optimizer_step

        def recording_trace(net, x):
            pre, post = trace(net, x)
            traces.append((x, *pre, *post))
            return pre, post

        def recording_step(net, state):
            out = step(net, state)
            steps.append((net.params, net.gradient()[0], *state.slots, *state.scratch))
            return out

        monkeypatch.setattr(nnet, "forward_trace", recording_trace)
        monkeypatch.setattr(nnet, "optimizer_step", recording_step)
        cfg = iqsynth.SynthConfig(seed=3, num_subchannels=4, samples_per_observation=64,
                                  subcarriers_per_subchannel=16, sinr_grid_db=(10.0,))
        ds = iqsynth.generate_dataset(cfg, lambda rng: tuple(rng.integers(0, 2, 4)), 86)
        spec = sensing.SensingSpec(hidden=(8,), epochs=20, batch_size=4, input_mode=mode)
        model = sensing.train_classifier(ds, spec, 0)
        assert len(traces) == len(steps) == 20 * 15
        assert {a.dtype for record in traces + steps for a in record} == {np.dtype(np.float32)}
        assert model.network.params.dtype == np.float32
        agent = sch.DqnAgent(num_subchannels=2, seed=1, batch_size=8)
        sch.train_agent(agent, exact.preset_scheduling_env(2), episodes=2,
                        slots_per_episode=30, seed=1)
        opt = agent.optimizer
        assert opt.step_count > 0
        assert {a.dtype for a in (agent.primary.params, agent.target.params,
                                  agent.primary.gradient()[0], *opt.slots, *opt.scratch)} \
            == {np.dtype(np.float64)}


class TestLearnability:
    def test_xor_smoke(self):
        xs = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        ys = np.array([[0.0], [1.0], [1.0], [0.0]])
        successes = 0
        for seed in (0, 1, 2):
            net = nnet.build_network([2, 8, 1], ["relu", "sigmoid"], seed=seed)
            state = nnet.OptimizerState(learning_rate=0.02)
            loss = np.inf
            for _ in range(5000):
                nnet.backward(net, xs, ys)
                loss = nnet.output_loss(nnet.forward(net, xs), ys)
                if loss < 0.05:
                    break
                nnet.optimizer_step(net, state)
            if loss < 0.05:
                successes += 1
        assert successes >= 2


class TestSpecs:
    def test_network_rejects_mismatched_chain(self):
        with pytest.raises(ValueError):
            nnet.Network([
                nnet.Layer(np.zeros((2, 3)), np.zeros(3), "relu"),
                nnet.Layer(np.zeros((4, 1)), np.zeros(1), "identity"),
            ])

    def test_bce_requires_sigmoid_head(self):
        net = nnet.build_network([2, 2], ["identity"], seed=0)
        with pytest.raises(ValueError):
            nnet.backward(net, np.zeros(2), np.zeros(2))


def _backward_of(dims, acts, target):
    return lambda: nnet.backward(nnet.build_network(dims, acts, seed=0),
                                 np.zeros(dims[0]), target)


# (misuse, message): each would otherwise go on silently wrong: an unknown
# activation would pass as identity, a short bias (or a stacked layer's bias
# without its row axis) would broadcast, a short activation list would drop
# layers, a target would broadcast against the output, and a sigmoid outside
# a bce head would be differentiated as identity
MISUSES = [
    (lambda: nnet.Layer(np.zeros((2, 2)), np.zeros(2), "tanh"), "unknown activation"),
    (lambda: nnet.Layer(np.zeros((2, 3)), np.zeros(1), "relu"), "inconsistent layer shapes"),
    (lambda: nnet.Layer(np.zeros((2, 3, 4)), np.zeros((2, 4)), "relu"),
     "inconsistent layer shapes"),
    (lambda: nnet.build_network([2, 3, 1], ["relu"], seed=0), "one activation per layer"),
    (_backward_of([2, 3], ["sigmoid"], np.zeros(1)), "target shape"),
    (_backward_of([2, 3, 2], ["sigmoid", "sigmoid"], np.zeros(2)), "output of a bce loss"),
]


@pytest.mark.parametrize("misuse,message", MISUSES, ids=[
    "activation", "layer-shapes", "stacked-layer-shapes", "activation-count", "target-shape",
    "sigmoid-hidden"])
def test_misuse_is_refused(misuse, message):
    with pytest.raises(ValueError, match=message):
        misuse()


# ---------------------------------------------------------------------------
# The learner step's kernels against their earlier, one-expression-per-step
# form: every result must match bit for bit (compared as bytes, so that the
# sign of a zero counts)


def reference_trace(net, x):
    a = np.atleast_2d(np.asarray(x, dtype=float))
    pre, post = [], [a]
    for layer in net.layers:
        z = post[-1] @ layer.w + layer.b
        pre.append(z)
        post.append(np.maximum(z, 0.0) if layer.activation == "relu"
                    else 1.0 / (1.0 + np.exp(-z)) if layer.activation == "sigmoid" else z)
    return pre, post


def reference_grads(net, x, target, loss):
    def act_grad(z, act):
        return (z > 0.0).astype(float) if act == "relu" else np.ones_like(z)

    pre, post = reference_trace(net, x)
    t = np.atleast_2d(np.asarray(target, dtype=float))
    y = post[-1]
    if loss is exact.BCE:
        delta = (y - t) / y.size
    else:
        delta = 2.0 * (y - t) / y.size * act_grad(pre[-1], net.layers[-1].activation)
    grads = []
    for i in range(len(net.layers) - 1, -1, -1):
        grads.append((post[i].T @ delta, delta.sum(axis=0)))
        if i > 0:
            delta = (delta @ net.layers[i].w.T) * act_grad(pre[i - 1],
                                                           net.layers[i - 1].activation)
    return grads[::-1]


REFERENCE_NETS = {
    "relu-identity-mse": ([4, 64, 64, 5], ["relu", "relu", "identity"], exact.MSE),
    "relu-relu-mse": ([3, 16, 6], ["relu", "relu"], exact.MSE),
    "relu-sigmoid-bce": ([8, 32, 4], ["relu", "sigmoid"], exact.BCE),
}


@pytest.mark.parametrize("rows", [1, 32, 64])
@pytest.mark.parametrize("name", sorted(REFERENCE_NETS))
def test_trace_and_gradients_match_the_reference_bit_for_bit(name, rows):
    dims, acts, loss = REFERENCE_NETS[name]
    rng = np.random.default_rng(rows)
    net = nnet.build_network(dims, acts, seed=rows)
    net.layers[0].b[::2] = rng.normal(scale=0.1, size=net.layers[0].b[::2].shape)
    x = rng.choice([0.0, 0.5, 1.0, -0.75], size=(rows, dims[0]))
    x[0] = 0.0  # the odd first-layer units, with zero biases, sit on the ReLU kink
    y = reference_trace(net, x)[1][-1]
    target = (rng.integers(0, 2, size=y.shape).astype(float) if loss is exact.BCE
              else np.where(rng.random(y.shape) < 0.5, y, rng.normal(size=y.shape)))
    for got, want in zip(nnet.forward_trace(net, x), reference_trace(net, x)):
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    grads = loss.gradients(net, x, target)
    for (gw, gb), (rw, rb) in zip(grads, reference_grads(net, x, target, loss)):
        assert gw.tobytes() == rw.tobytes() and gb.tobytes() == rb.tobytes()
    if rows == 1:  # a single 1-D input takes the conversion path
        assert nnet.forward(net, x[0]).tobytes() == y[0].tobytes()


@pytest.mark.parametrize("name", ["relu-sigmoid-bce"])
def test_backward_is_its_output_error_then_backpropagate(name):
    # the sigmoid and the cross-entropy cancel: the output error is (y - t) / size
    dims, acts, _ = REFERENCE_NETS[name]
    rng = np.random.default_rng(7)
    net = nnet.build_network(dims, acts, seed=7)
    x = rng.choice([0.0, 0.5, 1.0, -0.75], size=(32, dims[0]))
    trace = nnet.forward_trace(net, x)
    target = rng.integers(0, 2, size=trace[1][-1].shape).astype(float)
    whole = [(gw.copy(), gb.copy()) for gw, gb in nnet.backward(net, x, target)]
    split = nnet.backpropagate(net, trace, (trace[1][-1] - target) / target.size)
    for (gw, gb), (sw, sb) in zip(whole, split):
        assert gw.tobytes() == sw.tobytes() and gb.tobytes() == sb.tobytes()


@pytest.mark.parametrize("m", [2, 4, 8, 16])
def test_backward_from_a_slice_of_a_stacked_trace_equals_its_own_trace(m):
    # the learner step backpropagates the first 32 rows of a 64-row trace
    rng = np.random.default_rng(m)
    net = nnet.build_network([m, 64, 64, m + 1], ["relu", "relu", "identity"], seed=m)
    x = rng.choice([0.0, 0.5, 1.0], size=(64, m))
    target = rng.normal(size=(32, m + 1))
    pre, post = nnet.forward_trace(net, x)
    sliced = [(gw.copy(), gb.copy()) for gw, gb in exact.mse_gradients(
        net, x[:32], target, ([z[:32] for z in pre], [a[:32] for a in post]))]
    own = exact.mse_gradients(net, x[:32], target)
    for (gw, gb), (ow, ob) in zip(sliced, own):
        assert gw.tobytes() == ow.tobytes() and gb.tobytes() == ob.tobytes()


def test_nan_in_a_q_column_no_action_took_still_stops_the_step():
    # M = 2: Q columns idle, 1 and 2; every stored transition takes action 1,
    # so column 2's NaN reaches the loss only through y - t of an untouched column
    agent = sch.DqnAgent(num_subchannels=2, hidden=(4,), batch_size=2, seed=0)
    agent.primary.layers[-1].b[2] = np.nan
    rng = derive_rng(0)
    agent.observe(2, 1, 1.0, 1, rng)  # too few transitions for a batch yet
    with pytest.raises(nnet.NonFiniteLossError, match="non-finite gradient"):
        agent.observe(1, 1, 0.5, 2, rng)
    assert agent.train_steps == 0
