import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddlab import (ConcatView, OptimizerConfig, Rng, ScheduleConfig,
                   TrainConfig, TrainingDivergedError, build_concat_test,
                   classify_error, forward, gen_mixture_classification,
                   grad_check, init_mlp, lift_model, loss_and_grad, one_hot,
                   opt_step, pinv_solve, sample_pairs, split_k, train)
from ddlab import nnet
from ddlab.cli import _near_kink
from ddlab.datagen import ClassificationDataset
from ddlab.nnet import (LOSS_BCE, LOSS_CE, LOSS_KINDS, TRAIN_LOSS_MODES,
                        MlpGrads, MlpModel, _epoch_batches, make_optim_state)


def random_model(rng, d_in=4, h=5, c=3, bias_scale=0.3):
    model = init_mlp(d_in, h, c, rng)
    model.b1[:] = bias_scale * rng.standard_normal(h)
    model.b2[:] = bias_scale * rng.standard_normal(c)
    return model


def random_targets(rng, rows, c, kind):
    if kind == LOSS_CE:
        raw = rng.random((rows, c)) + 1e-3
        return raw / raw.sum(axis=1, keepdims=True)
    return (rng.random((rows, c)) < 0.5).astype(float)


# -- per-array reference ---------------------------------------------------
#
# The forward/backward pass and the optimizer update as they were written
# before parameters moved into one flat vector: four separate arrays, four
# separately allocated gradients, one update loop iteration per array.  The
# flat implementation must reproduce them bit for bit.


def reference_loss_and_grad(params, X, T, kind):
    W1, b1, W2, b2 = params
    batch = X.shape[0]
    Z1 = X @ W1.T + b1
    H = np.maximum(Z1, 0.0)
    Z2 = H @ W2.T + b2
    if kind == LOSS_CE:
        shifted = Z2 - Z2.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        loss = -float(np.sum(T * logp)) / batch
        row_mass = T.sum(axis=1, keepdims=True)
        dZ2 = (np.exp(logp) * row_mass - T) / batch
    else:
        per = np.maximum(Z2, 0.0) - Z2 * T + np.log1p(np.exp(-np.abs(Z2)))
        loss = float(np.sum(per)) / batch
        sig = 1.0 / (1.0 + np.exp(-Z2))
        dZ2 = (sig - T) / batch
    gW2 = dZ2.T @ H
    gb2 = dZ2.sum(axis=0)
    dH = dZ2 @ W2
    dZ1 = dH * (Z1 > 0.0)
    gW1 = dZ1.T @ X
    gb1 = dZ1.sum(axis=0)
    return loss, [gW1, gb1, gW2, gb2]


def reference_opt_step(params, gs, slot_a, slot_b, cfg, lr, t):
    if cfg.weight_decay:
        for p in params:
            p *= 1.0 - lr * cfg.weight_decay
    if cfg.kind == "sgd":
        for p, g in zip(params, gs):
            p -= lr * g
    elif cfg.kind == "momentum":
        for p, g, v in zip(params, gs, slot_a):
            v *= cfg.momentum
            v += g
            p -= lr * v
    else:
        c1 = 1.0 - cfg.beta1 ** t
        c2 = 1.0 - cfg.beta2 ** t
        for p, g, m, v in zip(params, gs, slot_a, slot_b):
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * g * g
            p -= lr * (m / c1) / (np.sqrt(v / c2) + cfg.eps)


@settings(max_examples=80, deadline=None)
@given(opt=st.sampled_from(["sgd", "momentum", "adam"]),
       weight_decay=st.sampled_from([0.0, 0.1]),
       lr=st.sampled_from([0.001, 0.3]),
       loss_kind=st.sampled_from([LOSS_CE, LOSS_BCE]),
       d=st.integers(1, 5), h=st.integers(1, 6), c=st.integers(1, 4),
       batch=st.integers(1, 9), steps=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
def test_flat_training_step_matches_per_array_reference(
        opt, weight_decay, lr, loss_kind, d, h, c, batch, steps, seed):
    rng = Rng(seed)
    model = random_model(rng, d_in=d, h=h, c=c)
    params = [a.copy() for a in model.arrays()]
    slot_a = [np.zeros_like(a) for a in params]
    slot_b = [np.zeros_like(a) for a in params]
    cfg = OptimizerConfig(opt, lr=lr, weight_decay=weight_decay)
    state = make_optim_state(cfg, model)
    for t in range(1, steps + 1):
        X = rng.standard_normal((batch, d))
        T = random_targets(rng, batch, c, loss_kind)
        loss, grads = loss_and_grad(model, X, T, loss_kind)
        ref_loss, ref_grads = reference_loss_and_grad(params, X, T, loss_kind)
        assert loss == ref_loss
        for got, want in zip(grads.arrays(), ref_grads):
            assert got.shape == want.shape and np.array_equal(got, want)
        opt_step(model, grads, state)
        reference_opt_step(params, ref_grads, slot_a, slot_b, cfg, lr, t)
        for got, want in zip(model.arrays(), params):
            assert np.array_equal(got, want)
        for slot, ref in ((state.slot_a, slot_a), (state.slot_b, slot_b)):
            if slot is not None:
                for got, want in zip(slot.arrays(), ref):
                    assert np.array_equal(got, want)


# -- stacked models --------------------------------------------------------
#
# A stack of S models must step exactly as S models stepped one at a time:
# the CSV digests cannot see a last-ulp change in Adam's second moment, so
# the optimizer slots are compared too.


@settings(max_examples=80, deadline=None)
@given(stack=st.integers(1, 4),
       opt=st.sampled_from(["sgd", "momentum", "adam"]),
       weight_decay=st.sampled_from([0.0, 0.1]),
       loss_kind=st.sampled_from([LOSS_CE, LOSS_BCE]),
       d=st.integers(1, 6), h=st.integers(1, 6), c=st.integers(1, 6),
       batch=st.integers(1, 9), steps=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_steps_match_separate_models(
        stack, opt, weight_decay, loss_kind, d, h, c, batch, steps, seed):
    rng = Rng(seed)
    models = [random_model(rng, d_in=d, h=h, c=c) for _ in range(stack)]
    stacked = MlpModel.stack(models)
    cfg = OptimizerConfig(opt, lr=0.3, weight_decay=weight_decay)
    states = [make_optim_state(cfg, m) for m in models]
    stacked_state = make_optim_state(cfg, stacked)
    for _ in range(steps):
        X = rng.standard_normal((stack, batch, d))
        T = np.stack([random_targets(rng, batch, c, loss_kind)
                      for _ in range(stack)])
        losses, grads = loss_and_grad(stacked, X, T, loss_kind)
        assert losses.shape == (stack,)
        for s, (model, state) in enumerate(zip(models, states)):
            loss, single = loss_and_grad(model, X[s], T[s], loss_kind)
            assert losses[s] == loss
            assert np.array_equal(grads.theta[s], single.theta)
            opt_step(model, single, state)
        opt_step(stacked, grads, stacked_state)
        for s, (model, state) in enumerate(zip(models, states)):
            assert np.array_equal(stacked.theta[s], model.theta)
            for got, want in ((stacked_state.slot_a, state.slot_a),
                              (stacked_state.slot_b, state.slot_b)):
                assert (got is None) == (want is None)
                if got is not None:
                    assert np.array_equal(got.theta[s], want.theta)
    shared = rng.standard_normal((batch, d))  # one input for every slice
    logits = forward(stacked, shared)
    for s, model in enumerate(models):
        assert np.array_equal(logits[s], forward(model, shared))


def reference_epoch_batches(sources, config, rngs):
    """Each slice's epoch by a fresh fancy-index gather per step (a dataset)
    or by ``view.batch`` of its sampled pairs (a view), stacked per step."""
    bs = config.batch_size
    steps = []
    for source, rng in zip(sources, rngs):
        if isinstance(source, ConcatView):
            m = min(source.n * config.e_mult, source.pair_count)
            features, targets = source.batch(sample_pairs(source, m, rng))
            steps.append([(features[lo:lo + bs], targets[lo:lo + bs])
                          for lo in range(0, m, bs)])
        else:
            perm = rng.permutation(source.n)
            steps.append([(source.features[perm[lo:lo + bs]],
                           source.targets[perm[lo:lo + bs]])
                          for lo in range(0, source.n, bs)])
    for step in zip(*steps):
        yield np.stack([x for x, _ in step]), np.stack([t for _, t in step])


@settings(max_examples=100, deadline=None)
@given(stack=st.integers(1, 3), view=st.booleans(),
       loss=st.sampled_from(LOSS_KINDS), n=st.integers(1, 30),
       d=st.integers(1, 4), c=st.integers(1, 4), e_mult=st.integers(1, 3),
       epochs=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_epoch_gather_matches_per_step_gather(stack, view, loss, n, d, c,
                                              e_mult, epochs, seed, data):
    rows = min(n * e_mult, n * n) if view else n
    batch_size = data.draw(st.integers(1, rows + 3))  # partial batches too
    rng = Rng(seed)
    bases = [ClassificationDataset(rng.standard_normal((n, d)),
                                   one_hot(rng.integers(c, size=n), c),
                                   TRAIN_LOSS_MODES[loss])
             for _ in range(stack)]
    sources = [ConcatView(b) for b in bases] if view else bases
    config = TrainConfig(loss, epochs, batch_size, e_mult)
    seeds = [seed + s for s in range(stack)]
    rngs, ref_rngs = [Rng(s) for s in seeds], [Rng(s) for s in seeds]
    X = np.empty((stack, rows, (1 + view) * d))
    T = np.empty((stack, rows, c))
    for _ in range(epochs):  # later epochs reuse the buffers
        got = [(x.copy(), t.copy())
               for x, t in _epoch_batches(sources, config, rngs, X, T)]
        want = list(reference_epoch_batches(sources, config, ref_rngs))
        assert len(got) == len(want)
        for (x, t), (ref_x, ref_t) in zip(got, want):
            assert np.array_equal(x, ref_x) and np.array_equal(t, ref_t)
            assert x.shape == ref_x.shape and t.shape == ref_t.shape
    for a, b in zip(rngs, ref_rngs):
        assert a.random() == b.random()


class TestStack:
    def test_stack_copies_and_unstack_views(self):
        rng = Rng(44)
        models = [random_model(rng) for _ in range(3)]
        stacked = MlpModel.stack(models)
        assert stacked.theta.shape == (3, models[0].param_count)
        assert stacked.W1.shape == (3, 5, 4) and stacked.b2.shape == (3, 3)
        assert stacked.shapes == models[0].shapes
        assert stacked.param_count == models[0].param_count
        assert (stacked.d_in, stacked.hidden_units, stacked.n_out) == (4, 5, 3)
        for s, model in enumerate(models):
            assert not np.shares_memory(stacked.theta, model.theta)
            for got, want in zip(stacked.arrays(), model.arrays()):
                assert np.shares_memory(got, stacked.theta)
                np.testing.assert_array_equal(got[s], want)
        slices = stacked.unstack()
        slices[1].W2[0, 0] = 99.0
        assert stacked.W2[1, 0, 0] == 99.0
        assert all(a.theta.ndim == 1 for a in slices)

    def test_mixed_shapes_rejected(self):
        rng = Rng(45)
        with pytest.raises(ValueError):
            MlpModel.stack([random_model(rng, h=3), random_model(rng, h=4)])
        with pytest.raises(ValueError):
            MlpModel.stack([])
        with pytest.raises(ValueError):
            random_model(rng).unstack()

    def test_classify_error_per_slice(self):
        ds = gen_mixture_classification(60, 4, 3, 4.0, Rng(47))
        models = [init_mlp(4, 5, 3, Rng(s)) for s in range(3)]
        errors = classify_error(MlpModel.stack(models), ds)
        assert errors.shape == (3,)
        assert list(errors) == [classify_error(m, ds) for m in models]


class TestParameterStorage:
    def test_constructor_copies_inputs(self):
        blocks = [np.ones((3, 2)), np.zeros(3), np.ones((2, 3)), np.zeros(2)]
        model = MlpModel(*blocks)
        for block in blocks:
            block += 7.0
        assert (model.W1 == 1.0).all() and (model.b2 == 0.0).all()
        assert not any(np.shares_memory(model.theta, b) for b in blocks)

    def test_copy_shares_no_memory(self):
        model = random_model(Rng(40))
        twin = model.copy()
        assert not np.shares_memory(model.theta, twin.theta)
        for a, b in zip(model.arrays(), twin.arrays()):
            assert not np.shares_memory(a, b)
            np.testing.assert_array_equal(a, b)
        twin.W1[0, 0] += 1.0
        assert twin.W1[0, 0] != model.W1[0, 0]

    def test_fields_are_views_of_theta_in_checkpoint_order(self):
        model = random_model(Rng(41), d_in=4, h=5, c=3)
        assert model.theta.shape == (model.param_count,)
        np.testing.assert_array_equal(
            model.theta, np.concatenate([a.ravel() for a in model.arrays()]))
        for a in model.arrays():
            assert np.shares_memory(a, model.theta)
        model.theta[:] = np.arange(model.param_count)
        assert model.W1[0, 1] == 1.0
        assert model.b1[0] == 20.0  # after the 5 x 4 W1 block
        assert model.b2[-1] == model.param_count - 1

    def test_grads_share_the_layout(self):
        rng = Rng(42)
        model = random_model(rng)
        _, grads = loss_and_grad(model, rng.standard_normal((3, 4)),
                                 one_hot([0, 1, 2], 3), LOSS_CE)
        assert [g.shape for g in grads.arrays()] == \
            [p.shape for p in model.arrays()]
        for g in grads.arrays():
            assert np.shares_memory(g, grads.theta)
        assert not np.shares_memory(grads.theta, model.theta)

    def test_fields_cannot_be_rebound(self):
        model = random_model(Rng(43))
        with pytest.raises(AttributeError):
            model.W1 = np.zeros((5, 4))


class TestInit:
    def test_minimal_dims(self):
        model = init_mlp(1, 1, 1, Rng(0))
        assert model.param_count == 4
        assert abs(model.W1[0, 0]) <= 1.0

    def test_param_count_arithmetic(self):
        model = init_mlp(784, 50, 10, Rng(0))
        assert model.param_count == 784 * 50 + 50 + 500 + 10 == 39760

    def test_deterministic(self):
        a = init_mlp(7, 6, 4, Rng(9))
        b = init_mlp(7, 6, 4, Rng(9))
        np.testing.assert_array_equal(a.W1, b.W1)
        np.testing.assert_array_equal(a.W2, b.W2)

    def test_bounds(self):
        model = init_mlp(16, 32, 4, Rng(3))
        assert np.abs(model.W1).max() <= 1 / 4
        assert np.abs(model.W2).max() <= 1 / np.sqrt(32)
        assert not model.b1.any() and not model.b2.any()

    def test_zero_dims_rejected(self):
        with pytest.raises(ValueError):
            init_mlp(0, 3, 2, Rng(0))


class TestForward:
    def test_zero_weights_give_bias(self):
        model = MlpModel(np.zeros((3, 2)), np.zeros(3), np.zeros((2, 3)),
                         np.array([0.5, -1.0]))
        out = forward(model, Rng(0).standard_normal((4, 2)))
        np.testing.assert_array_equal(out, np.tile([0.5, -1.0], (4, 1)))

    def test_dead_relu_gives_bias(self):
        model = MlpModel(np.ones((3, 2)), np.full(3, -100.0),
                         Rng(1).standard_normal((2, 3)), np.array([1.0, 2.0]))
        out = forward(model, np.full((5, 2), -1.0))
        np.testing.assert_array_equal(out, np.tile([1.0, 2.0], (5, 1)))

    def test_against_straight_line_evaluation(self):
        # duplicate implementation with explicit python loops
        rng = Rng(5)
        model = random_model(rng)
        X = rng.standard_normal((6, 4))
        expected = np.empty((6, 3))
        for r in range(6):
            hidden = [max(0.0, sum(model.W1[k, i] * X[r, i] for i in range(4))
                          + model.b1[k]) for k in range(5)]
            for o in range(3):
                expected[r, o] = sum(model.W2[o, k] * hidden[k]
                                     for k in range(5)) + model.b2[o]
        np.testing.assert_allclose(forward(model, X), expected, atol=1e-12)

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            forward(init_mlp(4, 3, 2, Rng(0)), np.zeros((1, 5)))


class TestLosses:
    @pytest.mark.parametrize("c", [2, 10, 100])
    def test_uniform_logits_one_hot(self, c):
        model = init_mlp(3, 2, c, Rng(0))
        model.W2[:] = 0.0
        model.b2[:] = 0.7  # equal logits
        T = one_hot([c - 1], c)
        loss, _ = loss_and_grad(model, np.ones((1, 3)), T, LOSS_CE)
        assert loss == pytest.approx(math.log(c), abs=1e-12)

    @pytest.mark.parametrize("c", [2, 10, 100])
    def test_uniform_logits_two_hot(self, c):
        model = init_mlp(3, 2, c, Rng(0))
        model.W2[:] = 0.0
        T = np.zeros((1, c))
        T[0, 0] = T[0, c - 1] = 0.5
        loss, _ = loss_and_grad(model, np.ones((1, 3)), T, LOSS_CE)
        assert loss == pytest.approx(math.log(c), abs=1e-12)

    def test_bce_stable_for_large_logits(self):
        model = MlpModel(np.zeros((1, 1)), np.zeros(1), np.zeros((2, 1)),
                         np.array([500.0, -500.0]))
        T = np.array([[1.0, 0.0]])
        loss, _ = loss_and_grad(model, np.zeros((1, 1)), T, LOSS_BCE)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_ce_rejects_unnormalized_targets(self):
        model = init_mlp(2, 2, 3, Rng(0))
        with pytest.raises(ValueError):
            loss_and_grad(model, np.zeros((1, 2)), np.array([[0.9, 0.9, 0.9]]),
                          LOSS_CE)

    @pytest.mark.parametrize("bad", [1.0 + 2e-6, math.nan])
    def test_ce_rejects_an_off_mass_or_nan_row(self, bad):
        model = init_mlp(2, 3, 3, Rng(0))
        T = np.full((4, 3), 1.0 / 3.0)
        T[2] = [bad - 2.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]
        # the target check raises before the non-finite-loss check
        with pytest.raises(ValueError, match="sum to 1 per row"):
            loss_and_grad(model, np.zeros((4, 2)), T, LOSS_CE)

    def test_ce_accepts_mass_within_tolerance(self):
        model = init_mlp(2, 3, 3, Rng(0))
        T = np.full((2, 3), 1.0 / 3.0)
        T[1, 0] += 5e-7
        loss_and_grad(model, np.zeros((2, 2)), T, LOSS_CE)

    def test_ce_rejects_one_bad_slice_of_a_stack(self):
        rng = Rng(3)
        stacked = MlpModel.stack([random_model(rng) for _ in range(3)])
        T = np.stack([random_targets(rng, 5, 3, LOSS_CE) for _ in range(3)])
        X = rng.standard_normal((3, 5, 4))
        loss_and_grad(stacked, X, T, LOSS_CE)
        T[1, 4, 0] += 2e-6
        with pytest.raises(ValueError, match="sum to 1 per row"):
            loss_and_grad(stacked, X, T, LOSS_CE)

    def test_ce_vanishes_with_growing_margin(self):
        # perfect one-hot prediction: loss -> 0 as the logit margin grows
        T = one_hot([0], 3)
        losses = []
        for margin in (1.0, 5.0, 20.0, 60.0):
            model = MlpModel(np.zeros((1, 2)), np.zeros(1), np.zeros((3, 1)),
                             np.array([margin, 0.0, 0.0]))
            loss, _ = loss_and_grad(model, np.zeros((1, 2)), T, LOSS_CE)
            losses.append(loss)
        assert all(a > b for a, b in zip(losses, losses[1:]))
        assert losses[-1] < 1e-12
        assert all(v >= 0.0 for v in losses)

    @pytest.mark.parametrize("kind", ["mse", "hinge"])
    def test_unknown_loss_rejected(self, kind):
        model = init_mlp(2, 3, 1, Rng(0))
        with pytest.raises(ValueError, match="unknown loss kind"):
            loss_and_grad(model, np.zeros((2, 2)), np.zeros((2, 1)), kind)

    @pytest.mark.parametrize("kind", [LOSS_CE, LOSS_BCE])
    def test_one_dimensional_inputs_are_one_row(self, kind):
        rng = Rng(4)
        model = random_model(rng)
        x, t = rng.standard_normal(4), random_targets(rng, 1, 3, kind)[0]
        loss, grads = loss_and_grad(model, x, t, kind)
        want_loss, want = loss_and_grad(model, x[None], t[None], kind)
        assert loss == want_loss and np.array_equal(grads.theta, want.theta)


class TestGradients:
    @staticmethod
    def _draws(seed, kind, count=5):
        """(model, X, T) draws from ``Rng(seed)``, the same in every
        process, redrawing inputs near a ReLU kink (gradcheck's rule)."""
        rng = Rng(seed)
        while count:
            model = random_model(rng)
            X = rng.standard_normal((3, 4))
            if _near_kink(model, X, 1e-5):
                continue
            yield model, X, random_targets(rng, 3, 3, kind)
            count -= 1

    @pytest.mark.parametrize("kind", [LOSS_CE, LOSS_BCE])
    def test_finite_difference_agreement(self, kind):
        # one seed per kind (Python salts hash(str) per process)
        for model, X, T in self._draws(LOSS_KINDS.index(kind), kind):
            assert grad_check(model, X, T, kind) < 1e-4

    def test_tiny_component_judged_by_absolute_error(self):
        # a -2.8e-8 component that agrees with its difference quotient to
        # 1.7e-11 read 3.0e-4 against a 1e-8 floor
        for model, X, T in self._draws(485, LOSS_BCE):
            assert grad_check(model, X, T, LOSS_BCE) < 1e-4

    @pytest.mark.parametrize("w2_scale", [1.0, 1e-4])
    @pytest.mark.parametrize("kind", [LOSS_CE, LOSS_BCE])
    def test_wrong_gradient_fails(self, kind, w2_scale, monkeypatch):
        # b1's gradient 0.1% off reads past the 1e-4 limit, also when a
        # small W2 shrinks it to about 1e-5, so the floor is not too loose
        right = nnet.loss_and_grad

        def wrong(*args, **kwargs):
            loss, grads = right(*args, **kwargs)
            grads.b1[...] *= 1.001
            return loss, grads

        monkeypatch.setattr(nnet, "loss_and_grad", wrong)
        for model, X, T in self._draws(LOSS_KINDS.index(kind), kind):
            model.W2[...] *= w2_scale
            assert grad_check(model, X, T, kind) > 1e-4


class TestBackwardMemory:
    ROWS, D_IN, WIDTH, CLASSES = 2000, 40, 320, 10

    def _problem(self, kind, stack):
        """One model and 2-D arrays for stack == 1, else a stack."""
        rng = Rng(91)
        models = [random_model(rng, self.D_IN, self.WIDTH, self.CLASSES)
                  for _ in range(stack)]
        X = rng.standard_normal((stack, self.ROWS, self.D_IN))
        T = np.stack([random_targets(rng, self.ROWS, self.CLASSES, kind)
                      for _ in range(stack)])
        if stack == 1:
            return models[0], X[0], T[0]
        return MlpModel.stack(models), X, T

    def test_backward_holds_one_hidden_array(self):
        # The backward pass writes dZ1 into the dead hidden buffer H, so
        # it holds one (rows, width) float array where it used to hold
        # two: 6.16 MiB instead of 11.04 MiB here, against 4.88 MiB for
        # one such array.
        model, X, T = self._problem(LOSS_CE, 1)
        hidden_bytes = self.ROWS * self.WIDTH * 8
        loss_and_grad(model, X, T, LOSS_CE)  # warm numpy's caches
        tracemalloc.start()
        try:
            loss_and_grad(model, X, T, LOSS_CE)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * hidden_bytes, peak / 2**20

    @pytest.mark.parametrize("kind", [LOSS_CE, LOSS_BCE])
    @pytest.mark.parametrize("stack", [1, 2])
    def test_inputs_untouched_and_grads_unaliased(self, kind, stack):
        model, X, T = self._problem(kind, stack)
        X, T = X[..., :7, :], T[..., :7, :]
        before = [a.copy() for a in (X, T, model.theta)]
        _, grads = loss_and_grad(model, X, T, kind)
        for got, want in zip((X, T, model.theta), before):
            assert np.array_equal(got, want)
            assert not np.shares_memory(grads.theta, got)

    @pytest.mark.parametrize("kind", [LOSS_CE, LOSS_BCE])
    @pytest.mark.parametrize("stack", [1, 2])
    def test_out_leaves_inputs_untouched_and_unaliased(self, kind, stack):
        model, X, T = self._problem(kind, stack)
        X, T = X[..., :7, :], T[..., :7, :]
        before = [a.copy() for a in (X, T, model.theta)]
        out = MlpGrads._from_theta(np.empty_like(model.theta), model.shapes)
        _, grads = loss_and_grad(model, X, T, kind, out=out)
        assert grads is out
        for got, want in zip((X, T, model.theta), before):
            assert np.array_equal(got, want)
            assert not np.shares_memory(out.theta, got)


class TestGradientBuffer:
    @pytest.mark.parametrize("kind", [LOSS_CE, LOSS_BCE])
    @pytest.mark.parametrize("stack", [1, 3])
    def test_out_equals_a_fresh_gradient(self, kind, stack):
        rng = Rng(17)
        models = [random_model(rng, 4, 6, 3) for _ in range(stack)]
        X = rng.standard_normal((stack, 9, 4))
        T = np.stack([random_targets(rng, 9, 3, kind) for _ in range(stack)])
        if stack == 1:
            model, X, T = models[0], X[0], T[0]
        else:
            model = MlpModel.stack(models)
        loss, fresh = loss_and_grad(model, X, T, kind)
        # NaN-filled, so an element the pass fails to write shows up
        out = MlpGrads._from_theta(np.full(model.theta.shape, math.nan),
                                   model.shapes)
        for _ in range(2):  # a reused buffer gives the same bytes again
            got_loss, grads = loss_and_grad(model, X, T, kind, out=out)
            assert grads is out
            assert np.array_equal(got_loss, loss)
            assert np.array_equal(out.theta, fresh.theta)

    def test_wrong_layout_rejected(self):
        rng = Rng(18)
        model = random_model(rng, 4, 5, 3)  # 43 parameters
        X, T = rng.standard_normal((6, 4)), random_targets(rng, 6, 3, LOSS_CE)
        stack = MlpModel.stack([model, model])
        for out in (MlpGrads(*random_model(rng, 4, 6, 3).arrays()),
                    MlpGrads._from_theta(np.empty_like(stack.theta),
                                         stack.shapes)):
            with pytest.raises(ValueError, match="gradient buffer shape"):
                loss_and_grad(model, X, T, LOSS_CE, out=out)
        with pytest.raises(ValueError, match="gradient buffer shape"):
            loss_and_grad(stack, X, T, LOSS_CE,
                          out=MlpGrads(*model.arrays()))
        # also 43 parameters, in other blocks: numpy's out= shape checks
        same_size = MlpGrads(np.zeros((1, 40)), np.zeros(1), np.zeros((1, 1)),
                             np.zeros(1))
        with pytest.raises(ValueError):
            loss_and_grad(model, X, T, LOSS_CE, out=same_size)


class TestConfigRanges:
    @pytest.mark.parametrize("key,value", [
        ("kind", "rmsprop"), ("lr", 0.0), ("lr", -0.1), ("lr", math.inf),
        ("lr", math.nan), ("momentum", -1.0), ("momentum", 1.0),
        ("beta1", 1.5), ("beta1", -0.1), ("beta2", 1.0), ("beta2", math.nan),
        ("eps", 0.0), ("eps", -1e-8), ("eps", math.nan),
        ("weight_decay", -5.0), ("weight_decay", math.inf),
        ("weight_decay", math.nan),
        # True would pass for 1 and False for 0; parsing refuses both
        ("lr", True), ("beta1", False), ("weight_decay", False),
        ("eps", "1e-8")])
    def test_optimizer_rejects(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be"):
            OptimizerConfig(**{key: value})

    @pytest.mark.parametrize("key,value", [
        ("momentum", 0.0), ("beta1", 0.0), ("beta2", 0.0), ("eps", 1e-300),
        ("weight_decay", 0.0), ("lr", 1e150)])
    def test_optimizer_accepts_range_ends(self, key, value):
        assert getattr(OptimizerConfig(**{key: value}), key) == value

    @pytest.mark.parametrize("factor,every,key", [
        (0.0, 1, "factor"), (-1.0, 1, "factor"), (math.inf, 1, "factor"),
        (math.nan, 1, "factor"), (0.1, 0, "every_k_epochs"),
        (0.1, -2, "every_k_epochs"), (0.5, True, "every_k_epochs"),
        (0.5, 2.0, "every_k_epochs"), (True, 1, "factor")])
    def test_schedule_rejects(self, factor, every, key):
        with pytest.raises(ValueError, match=f"^{key} must be"):
            ScheduleConfig(factor, every)

    def test_schedule_accepts_growth(self):
        assert ScheduleConfig(2.0, 1).factor == 2.0

    @pytest.mark.parametrize("key,value", [
        ("loss", "hinge"), ("epochs", -1), ("batch_size", 0),
        ("e_mult", 0), ("batch_size", True), ("epochs", 2.5),
        ("e_mult", 1.0)])
    def test_train_config_rejects(self, key, value):
        fields = dict(loss=LOSS_CE, epochs=1, batch_size=1)
        with pytest.raises(ValueError, match=f"^{key} must be"):
            TrainConfig(**dict(fields, **{key: value}))

    def test_train_config_names_the_first_non_integer(self):
        with pytest.raises(ValueError, match=r"^epochs must be an integer "
                                             r">= 0, got 2\.5$"):
            TrainConfig(batch_size=True, epochs=2.5)

    def test_train_config_accepts_range_ends(self):
        cfg = TrainConfig(LOSS_CE, epochs=0, batch_size=1, e_mult=1)
        assert (cfg.epochs, cfg.batch_size, cfg.e_mult) == (0, 1, 1)


class TestOptimizers:
    def _toy(self):
        model = MlpModel(np.ones((1, 1)), np.zeros(1), np.ones((1, 1)),
                         np.zeros(1))
        grads = MlpGrads(np.full((1, 1), 0.25), np.full(1, 0.5),
                         np.full((1, 1), -1.0), np.full(1, 2.0))
        return model, grads

    def test_sgd_unit_lr(self):
        model, grads = self._toy()
        state = make_optim_state(OptimizerConfig("sgd", lr=1.0), model)
        opt_step(model, grads, state)
        assert model.W1[0, 0] == 1.0 - 0.25
        assert model.b2[0] == -2.0

    def test_adam_first_step_magnitude(self):
        model, grads = self._toy()
        cfg = OptimizerConfig("adam", lr=0.001, eps=1e-12)
        state = make_optim_state(cfg, model)
        before = model.W1[0, 0]
        opt_step(model, grads, state)
        assert abs(model.W1[0, 0] - before) == pytest.approx(0.001, rel=1e-6)

    def test_momentum_two_identical_grads(self):
        model, grads = self._toy()
        cfg = OptimizerConfig("momentum", lr=0.1, momentum=0.9)
        state = make_optim_state(cfg, model)
        opt_step(model, grads, state)
        before = model.W1[0, 0]
        opt_step(model, grads, state)
        # velocity after two steps: g then 1.9 g
        assert model.W1[0, 0] - before == pytest.approx(-0.1 * 1.9 * 0.25)

    def test_decoupled_weight_decay_before_gradient(self):
        model, grads = self._toy()
        zero = MlpGrads(*[np.zeros_like(a) for a in grads.arrays()])
        cfg = OptimizerConfig("sgd", lr=0.5, weight_decay=0.1)
        state = make_optim_state(cfg, model)
        opt_step(model, zero, state)
        assert model.W1[0, 0] == pytest.approx(1.0 * (1 - 0.5 * 0.1))

    def test_shape_mismatch(self):
        model, grads = self._toy()
        bad = MlpGrads(np.zeros((2, 2)), grads.b1, grads.W2, grads.b2)
        state = make_optim_state(OptimizerConfig("sgd"), model)
        with pytest.raises(ValueError):
            opt_step(model, bad, state)

    def test_lr_schedule_step_decay(self):
        cfg = OptimizerConfig("sgd", lr=0.1,
                              schedule=ScheduleConfig(0.1, 200))
        assert cfg.lr_at(1) == pytest.approx(0.1)
        assert cfg.lr_at(200) == pytest.approx(0.1)
        assert cfg.lr_at(201) == pytest.approx(0.01)
        assert cfg.lr_at(401) == pytest.approx(0.001)


class TestTrain:
    def _task(self, n=120, seed=0):
        return gen_mixture_classification(n, 6, 2, 5.0, Rng(seed))

    def test_zero_epochs(self):
        ds = self._task()
        model = init_mlp(6, 4, 2, Rng(1))
        fitted, records = train(model, ds, TrainConfig(LOSS_CE, 0, 16), 2)
        assert records == []
        np.testing.assert_array_equal(fitted.W1, model.W1)

    def test_input_model_untouched(self):
        ds = self._task()
        model = init_mlp(6, 4, 2, Rng(1))
        w1 = model.W1.copy()
        train(model, ds, TrainConfig(LOSS_CE, 3, 16), 2)
        np.testing.assert_array_equal(model.W1, w1)

    def test_separable_task_reaches_zero_train_error(self):
        ds = self._task(n=200)
        # oracle: a linear probe already separates this mixture
        half = ds.n // 2
        probes = [pinv_solve(ds.features[:half], ds.targets[:half, k]).theta_hat
                  for k in range(2)]
        probe_err = np.mean(
            (ds.features[half:] @ np.stack(probes, 1)).argmax(1)
            != ds.targets[half:].argmax(1))
        assert probe_err < 0.02
        model = init_mlp(6, 16, 2, Rng(4))
        cfg = TrainConfig(LOSS_CE, 200, 32,
                          optimizer=OptimizerConfig("adam", lr=0.01))
        fitted, records = train(model, ds, cfg, 5)
        assert records[-1].train_error == 0.0

    def test_bit_identical_reruns(self):
        ds = self._task()
        cfg = TrainConfig(LOSS_CE, 5, 16,
                          optimizer=OptimizerConfig("adam", lr=0.003))
        runs = []
        for _ in range(2):
            fitted, records = train(init_mlp(6, 8, 2, Rng(3)), ds, cfg, 11,
                                    test_set=ds)
            runs.append((fitted, [r.train_loss for r in records],
                         [r.test_loss for r in records]))
        np.testing.assert_array_equal(runs[0][0].W1, runs[1][0].W1)
        assert runs[0][1] == runs[1][1]
        assert runs[0][2] == runs[1][2]

    def test_concat_view_source(self):
        ds = self._task(n=40)
        view = ConcatView(ds)
        ctest = build_concat_test(ds)
        cfg = TrainConfig(LOSS_CE, 4, 16, e_mult=2,
                          optimizer=OptimizerConfig("adam", lr=0.01))
        fitted, records = train(init_mlp(12, 8, 2, Rng(7)), view, cfg, 6,
                                test_set=ctest)
        assert records[-1].train_error is None  # soft pair targets
        assert 0.0 <= records[-1].test_error <= 1.0

    def test_divergence_reports_epoch(self):
        ds = self._task()
        cfg = TrainConfig(LOSS_CE, 10, 16,
                          optimizer=OptimizerConfig("sgd", lr=1e18))
        with pytest.raises(TrainingDivergedError) as info:
            train(init_mlp(6, 8, 2, Rng(9)), ds, cfg, 8)
        assert info.value.epoch >= 1

    def test_divergence_in_evaluation_reports_epoch(self):
        # a step can leave weights whose test loss is no longer finite;
        # the evaluation after it meets that before the next step does
        ds = gen_mixture_classification(64, 3, 2, 3.0, Rng(0))
        test = gen_mixture_classification(32, 3, 2, 3.0, Rng(1))
        cfg = TrainConfig(LOSS_CE, 5, 64,
                          optimizer=OptimizerConfig("sgd", lr=1e100))
        with pytest.raises(TrainingDivergedError) as info:
            train(init_mlp(3, 4, 2, Rng(2)), ds, cfg, 0, test_set=test)
        assert info.value.epoch == 2

    def test_loss_mode_mismatch_rejected(self):
        ds = self._task()
        with pytest.raises(ValueError):
            train(init_mlp(6, 4, 2, Rng(0)), ds, TrainConfig(LOSS_BCE, 1, 16),
                  0)

    def test_regression_sources_rejected(self):
        # networks fit classification data; linreg fits regression data
        from ddlab import gen_linreg, sample_theta
        ds = gen_linreg(20, 4, 0.05, sample_theta(4, Rng(0)), Rng(1))
        cfg = TrainConfig(LOSS_CE, 1, 16)
        with pytest.raises(ValueError, match="classification data"):
            train(init_mlp(4, 4, 1, Rng(0)), ds, cfg, 0)
        with pytest.raises(ValueError, match="classification data"):
            train(init_mlp(8, 4, 1, Rng(0)), ConcatView(ds), cfg, 0)
        with pytest.raises(ValueError, match="classification data"):
            train([init_mlp(4, 4, 1, Rng(j)) for j in range(2)], [ds, ds],
                  cfg, [0, 1])
        with pytest.raises(ValueError,
                           match=r"^loss must be ce or bce, got 'mse'$"):
            TrainConfig("mse", 1, 16)


class TestStackedTrain:
    def _splits(self, k=3, size=50):
        # 50 rows at batch size 16 leave a partial last batch of 2
        full = gen_mixture_classification(k * size, 5, 3, 3.0, Rng(60))
        return split_k(full, k, size, Rng(61))

    SEEDS = [100, 101, 102]

    def _config(self, batch_size=16,
                optimizer=OptimizerConfig("adam", lr=0.01)):
        return TrainConfig(LOSS_CE, 4, batch_size, optimizer=optimizer)

    @pytest.mark.parametrize("opt", ["sgd", "momentum", "adam"])
    def test_one_stacked_call_equals_serial_calls(self, opt):
        splits = self._splits()
        test = gen_mixture_classification(30, 5, 3, 3.0, Rng(62))
        config = self._config(optimizer=OptimizerConfig(
            opt, lr=0.05, weight_decay=0.01))
        models = [init_mlp(5, 7, 3, Rng(70 + j)) for j in range(3)]
        before = [m.theta.copy() for m in models]
        fitted, traces = train(models, splits, config, self.SEEDS,
                               test_set=test)
        assert len(fitted) == len(traces) == 3
        for j in range(3):
            np.testing.assert_array_equal(models[j].theta, before[j])
            alone, records = train(models[j], splits[j], config,
                                   self.SEEDS[j], test_set=test)
            assert np.array_equal(fitted[j].theta, alone.theta)
            assert len(traces[j]) == len(records) == 4
            for got, want in zip(traces[j], records):
                assert got.epoch == want.epoch
                assert got.train_loss == want.train_loss
                assert got.train_error == want.train_error
                assert got.test_loss == want.test_loss
                assert got.test_error == want.test_error
                assert type(got.train_loss) is float
                assert type(got.test_loss) is float

    def test_stack_without_test_set_equals_serial_calls(self):
        # the biasvar shape: k splits, no test set
        splits = self._splits(k=2, size=20)
        config = self._config(batch_size=6)
        models = [init_mlp(5, 4, 3, Rng(80 + j)) for j in range(2)]
        fitted, traces = train(models, splits, config, self.SEEDS[:2])
        for j in range(2):
            alone, records = train(models[j], splits[j], config,
                                   self.SEEDS[j])
            assert np.array_equal(fitted[j].theta, alone.theta)
            assert [(r.train_loss, r.train_error) for r in traces[j]] == \
                [(r.train_loss, r.train_error) for r in records]
            assert traces[j][-1].test_loss is None  # no test set
            assert traces[j][-1].test_error is None

    @pytest.mark.parametrize("loss", LOSS_KINDS)
    @pytest.mark.parametrize("e_mult", [1, 2])
    def test_concat_view_stack_equals_serial_calls(self, loss, e_mult):
        # ce trains on averaged pair targets, bce on their multi-hot max
        mode = TRAIN_LOSS_MODES[loss]
        splits = [ClassificationDataset(s.features, s.targets, mode)
                  for s in self._splits(k=3, size=12)]
        views = [ConcatView(s) for s in splits]
        test = build_concat_test(gen_mixture_classification(
            20, 5, 3, 3.0, Rng(63)))
        test = ClassificationDataset(test.features, test.targets, mode)
        config = TrainConfig(loss, 3, 10, e_mult,
                             OptimizerConfig("adam", lr=0.01))
        models = [init_mlp(10, 6, 3, Rng(90 + j)) for j in range(3)]
        fitted, traces = train(models, views, config, self.SEEDS,
                               test_set=test)
        for j in range(3):
            alone, records = train(models[j], views[j], config,
                                   self.SEEDS[j], test_set=test)
            assert np.array_equal(fitted[j].theta, alone.theta)
            fields = ("epoch", "train_loss", "train_error", "test_loss",
                      "test_error")
            assert [[getattr(r, f) for f in fields] for r in traces[j]] == \
                [[getattr(r, f) for f in fields] for r in records]
            assert traces[j][-1].train_error is None  # pair targets
            assert type(traces[j][-1].test_error) is float

    def test_stack_needs_sources_of_one_kind_and_shape(self):
        splits = self._splits(k=2)
        models = [init_mlp(5, 4, 3, Rng(j)) for j in range(2)]
        config, seeds = self._config(), self.SEEDS[:2]
        # the sources are checked before the models are stacked
        views = [ConcatView(s) for s in splits]
        for mixed in ([splits[0], views[1]], [views[0], splits[1]]):
            with pytest.raises(ValueError, match="all datasets or all"):
                train(models, mixed, config, seeds)
        short = splits[1].take(np.arange(40))
        with pytest.raises(ValueError, match="one shape"):
            train(models, [splits[0], short], config, seeds)
        with pytest.raises(ValueError, match="one shape"):
            train(models, [views[0], ConcatView(short)], config, seeds)
        # a soft-target slice would have no train error where the other has
        soft = ClassificationDataset(splits[1].features,
                                     0.5 * splits[1].targets + 0.5 / 3)
        with pytest.raises(ValueError, match="one-hot or not"):
            train(models, [splits[0], soft], config, seeds)
        with pytest.raises(ValueError, match="equally many"):
            train(models, splits[:1], config, seeds)
        with pytest.raises(ValueError, match="equally many"):
            train(models, splits, config, seeds[:1])
        with pytest.raises(ValueError, match="equally many"):
            train(models[:1], splits, config, seeds)

    def test_one_diverging_slice_fails_the_stack(self):
        (tame,) = self._splits(k=1, size=20)
        wild = ClassificationDataset(tame.features * 1e200, tame.targets)
        models = [init_mlp(5, 4, 3, Rng(j)) for j in range(2)]
        config = self._config(batch_size=6,
                              optimizer=OptimizerConfig("sgd", lr=0.01))
        train([models[0]], [tame], config, self.SEEDS[:1])  # tame alone
        with pytest.raises(TrainingDivergedError) as info:
            train(models, [tame, wild], config, self.SEEDS[:2])
        assert info.value.epoch == 1


class TestClassifyError:
    def test_perfect_logits(self):
        ds = gen_mixture_classification(20, 3, 2, 3.0, Rng(0))
        model = MlpModel(np.eye(3), np.full(3, 100.0),
                         np.zeros((2, 3)), np.zeros(2))
        # logits copied straight from the targets via a crafted W2
        logits_model = MlpModel(np.zeros((1, 3)), np.zeros(1),
                                np.zeros((2, 1)), np.zeros(2))
        errs = []
        for cls in (0, 1):
            m = MlpModel(np.zeros((1, 3)), np.zeros(1), np.zeros((2, 1)),
                         one_hot([cls], 2)[0])
            errs.append(classify_error(m, ds))
        # constant prediction of one class errs exactly on the other half
        assert errs[0] + errs[1] == pytest.approx(1.0)

    def test_anti_targets(self):
        ds = gen_mixture_classification(10, 3, 2, 3.0, Rng(1))
        preds = -ds.targets  # argmax lands on the wrong class via tie-break
        assert np.mean(preds.argmax(1) == ds.targets.argmax(1)) == 0.0

    def test_chance_level_ten_classes(self):
        ds = gen_mixture_classification(10_000, 8, 10, 0.5, Rng(2))
        model = init_mlp(8, 4, 10, Rng(3))
        assert 0.87 <= classify_error(model, ds) <= 0.93

    def test_soft_targets_rejected(self):
        soft = ClassificationDataset(np.zeros((2, 2)), np.full((2, 2), 0.5))
        with pytest.raises(ValueError):
            classify_error(init_mlp(2, 2, 2, Rng(0)), soft)


class TestLift:
    def test_self_concat_identity(self):
        rng = Rng(21)
        for _ in range(20):
            model = random_model(rng, d_in=5, h=4, c=3)
            lifted = lift_model(model)
            x = rng.standard_normal(5)
            np.testing.assert_allclose(
                forward(lifted, np.concatenate([x, x])), forward(model, x),
                atol=1e-12)

    def test_pair_average_identity(self):
        rng = Rng(22)
        for _ in range(20):
            model = random_model(rng, d_in=5, h=4, c=3)
            lifted = lift_model(model)
            x1, x2 = rng.standard_normal(5), rng.standard_normal(5)
            np.testing.assert_allclose(
                forward(lifted, np.concatenate([x1, x2])),
                0.5 * (forward(model, x1) + forward(model, x2)), atol=1e-12)

    def test_shapes_and_param_count(self):
        model = init_mlp(7, 5, 3, Rng(0))
        lifted = lift_model(model)
        assert lifted.hidden_units == 10
        assert lifted.d_in == 14
        h, d, c = 5, 7, 3
        assert lifted.param_count == 2 * h * 2 * d + 2 * h + 2 * h * c + c
