"""One-hidden-layer ReLU network with hand-written gradients.

Logits are ``W2 @ relu(W1 @ x + b1) + b2``.  Two losses are supported:

* ``"ce"``   - softmax cross entropy with soft targets, computed through
  the log-sum-exp shift;
* ``"bce"``  - per-logit sigmoid binary cross entropy in the numerically
  stable max(z,0) - z*t + log1p(exp(-|z|)) form.

Gradients are exact derivatives of the batch-mean loss; relu'(0) is taken
as 0.  The training loop is deterministic for a fixed seed: epoch order
comes from the dataset permutation (or pair sampling for concatenated
sources) on the trainer's own stream.  Each epoch of a concrete dataset is
gathered in permuted order once, into feature and target buffers that
``train`` allocates once per call, and every step trains on a contiguous
slice of them.  ``train`` also allocates one gradient vector per call and
passes it to ``loss_and_grad(..., out=)`` on every step, so a step
allocates no new parameter-sized array.

Parameters live in one contiguous float64 vector ``theta`` laid out as
W1 (h x d_in, row-major), b1 (h), W2 (c x h, row-major), b2 (c).
``MlpModel.W1`` .. ``b2`` are reshaped views into it, and ``MlpGrads``
and the optimizer slots use the same layout, so ``copy()`` is one copy
and an optimizer step is a handful of whole-vector ufunc calls instead of
a loop over four arrays.

A model may also be a stack of S models of one shape: ``theta`` then has
shape (S, P), the fields are views of shape (S, h, d_in), (S, h), (S, c, h)
and (S, c), and ``MlpModel.stack``/``unstack`` convert between a list of
models and a stack.  ``forward``, ``loss_and_grad``, ``opt_step`` and
``classify_error`` take either form: inputs of shape (S, B, d_in) pair
slice s with model s, and 2-D inputs are shared by every slice.  For a
stack, losses and errors are (S,) arrays.  Each slice is computed by the
same numpy and BLAS calls, on operands of the same shape and layout, as
one model on its own, so a stack reproduces S separate models bit for bit
wherever ``matmul`` and the reductions give per-slice identical results,
which the tests check.  ``train`` runs a stack in one loop when given
sequences of models, datasets and seeds.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .augment import ConcatView, sample_pairs
from .datagen import MODE_AVERAGED, MODE_MULTI_HOT, ClassificationDataset
from .rng import Rng

LOSS_CE = "ce"
LOSS_BCE = "bce"
# each loss (classification data only) and the target mode train needs for it
TRAIN_LOSS_MODES = {LOSS_CE: MODE_AVERAGED, LOSS_BCE: MODE_MULTI_HOT}
LOSS_KINDS = tuple(TRAIN_LOSS_MODES)


class TrainingDivergedError(RuntimeError):
    def __init__(self, epoch: int):
        super().__init__(f"training diverged to a non-finite loss at epoch {epoch}")
        self.epoch = epoch


class _ParamVector:
    """W1, b1, W2, b2 stored as reshaped views into one float64 ``theta``.

    The constructor copies its inputs; each block keeps the shape it was
    given, so a block of the wrong shape is caught where it is used.  A
    stack has a (S, P) ``theta`` and every view a leading S axis.
    """

    __slots__ = ("theta", "_views")

    def __init__(self, W1, b1, W2, b2):
        blocks = [np.asarray(a, dtype=np.float64) for a in (W1, b1, W2, b2)]
        self._bind(np.concatenate([b.ravel() for b in blocks]),
                   [b.shape for b in blocks])

    @classmethod
    def _from_theta(cls, theta: np.ndarray, shapes):
        """Wrap ``theta`` itself (no copy) with the given block shapes."""
        obj = cls.__new__(cls)
        obj._bind(theta, shapes)
        return obj

    @classmethod
    def stack(cls, items):
        """One stack holding copies of equally shaped single vectors."""
        items = list(items)
        if not items:
            raise ValueError("cannot stack an empty sequence")
        shapes = items[0].shapes
        if any(m.theta.ndim != 1 or m.shapes != shapes for m in items):
            raise ValueError("stacked models must be single and of one shape")
        return cls._from_theta(np.stack([m.theta for m in items]), shapes)

    def unstack(self):
        """The slices of a stack, as single vectors viewing its ``theta``."""
        if self.theta.ndim != 2:
            raise ValueError("only a stack can be unstacked")
        return [self._from_theta(t, self.shapes) for t in self.theta]

    def _bind(self, theta, shapes):
        lead = theta.shape[:-1]
        views, offset = [], 0
        for shape in shapes:
            size = math.prod(shape)
            views.append(theta[..., offset:offset + size].reshape(lead + shape))
            offset += size
        self.theta = theta
        self._views = tuple(views)

    W1 = property(lambda self: self._views[0])
    b1 = property(lambda self: self._views[1])
    W2 = property(lambda self: self._views[2])
    b2 = property(lambda self: self._views[3])

    @property
    def shapes(self):
        """Block shapes of one model, without a stack's leading axis."""
        skip = self.theta.ndim - 1
        return [a.shape[skip:] for a in self._views]

    def arrays(self):
        return self._views

    def copy(self):
        return self._from_theta(self.theta.copy(), self.shapes)


class MlpModel(_ParamVector):
    """W1 (h, d_in), b1 (h,), W2 (c, h), b2 (c,) over one ``theta``."""

    __slots__ = ()

    @property
    def d_in(self) -> int:
        return self.W1.shape[-1]

    @property
    def hidden_units(self) -> int:
        return self.W1.shape[-2]

    @property
    def n_out(self) -> int:
        return self.W2.shape[-2]

    @property
    def param_count(self) -> int:
        """Parameters of one model (of each slice, for a stack)."""
        return self.theta.shape[-1]


class MlpGrads(_ParamVector):
    __slots__ = ()


def init_mlp(d_in: int, h: int, c: int, rng: Rng) -> MlpModel:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, zero biases.

    Draw order: the W1 block row-major, then the W2 block row-major, one
    uniform per entry.
    """
    if min(d_in, h, c) < 1:
        raise ValueError("all dimensions must be >= 1")
    bound1 = 1.0 / np.sqrt(d_in)
    bound2 = 1.0 / np.sqrt(h)
    W1 = (2.0 * rng.random((h, d_in)) - 1.0) * bound1
    W2 = (2.0 * rng.random((c, h)) - 1.0) * bound2
    return MlpModel(W1, np.zeros(h), W2, np.zeros(c))


def _affine(X, W, b):
    """X @ W.T + b, slice by slice for a stack, in one new array."""
    out = X @ W.swapaxes(-1, -2)
    out += b[..., None, :]
    return out


def forward(model: MlpModel, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[-1] != model.d_in:
        raise ValueError(
            f"input width {X.shape[-1]} does not match model d_in {model.d_in}")
    hidden = _affine(X, model.W1, model.b1)
    np.maximum(hidden, 0.0, out=hidden)
    return _affine(hidden, model.W2, model.b2)


def _log_softmax(Z: np.ndarray) -> np.ndarray:
    shifted = Z - Z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _total(values: np.ndarray):
    """Sum of each (batch, c) block: a float, or an (S,) array for a stack."""
    total = values.sum(axis=(-2, -1))
    return float(total) if total.ndim == 0 else total


def loss_and_grad(model: MlpModel, X: np.ndarray, T: np.ndarray, kind: str,
                  out: MlpGrads | None = None):
    """Batch-mean loss and its gradient with respect to every parameter.

    For a stack the loss is an (S,) array and the gradient a stack.  The
    gradient goes into a new ``MlpGrads``, or into ``out`` (which is
    returned) when given; ``out`` must have the model's layout.
    """
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}")
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    T = np.atleast_2d(np.asarray(T, dtype=np.float64))
    if X.shape[-2] != T.shape[-2]:
        raise ValueError("feature and target batch sizes differ")
    if T.shape[-1] != model.n_out:
        raise ValueError(
            f"target width {T.shape[-1]} does not match model output {model.n_out}")
    if out is not None and out.theta.shape != model.theta.shape:
        raise ValueError(f"gradient buffer shape {out.theta.shape} does not "
                         f"match the model's {model.theta.shape}")
    if kind == LOSS_BCE and (T.min() < 0.0 or T.max() > 1.0):
        raise ValueError("binary cross-entropy targets must lie in [0, 1]")

    batch = X.shape[-2]
    # relu in place: relu'(z) = [z > 0] = [relu(z) > 0], NaN included
    H = _affine(X, model.W1, model.b1)
    np.maximum(H, 0.0, out=H)
    Z2 = _affine(H, model.W2, model.b2)

    if kind == LOSS_CE:
        # the one row sum both checks the targets and scales the softmax;
        # NaN fails the comparison, so it is rejected too
        row_mass = T.sum(axis=-1, keepdims=True)
        if not (np.abs(row_mass - 1.0) <= 1e-6).all():
            raise ValueError("cross-entropy targets must sum to 1 per row")
        logp = _log_softmax(Z2)
        loss = -_total(T * logp) / batch
        dZ2 = (np.exp(logp) * row_mass - T) / batch
    else:  # LOSS_BCE
        per = np.maximum(Z2, 0.0) - Z2 * T + np.log1p(np.exp(-np.abs(Z2)))
        loss = _total(per) / batch
        sig = 1.0 / (1.0 + np.exp(-Z2))
        dZ2 = (sig - T) / batch

    # math.isfinite on one model's float costs a fraction of np.isfinite
    if not (math.isfinite(loss) if isinstance(loss, float)
            else np.isfinite(loss).all()):
        raise FloatingPointError(f"non-finite {kind} loss")

    grads = out if out is not None else MlpGrads._from_theta(
        np.empty(model.theta.shape), model.shapes)
    np.matmul(dZ2.swapaxes(-1, -2), H, out=grads.W2)
    dZ2.sum(axis=-2, out=grads.b2)
    # H is dead once gW2 and the relu mask exist: dZ1 reuses its buffer,
    # so the backward pass holds one (batch, h) float array, not two
    active = H > 0.0
    dZ1 = np.matmul(dZ2, model.W2, out=H)
    dZ1 *= active
    np.matmul(dZ1.swapaxes(-1, -2), X, out=grads.W1)
    dZ1.sum(axis=-2, out=grads.b1)
    return loss, grads


# -- optimizers --------------------------------------------------------------


OPTIMIZER_KINDS = ("sgd", "momentum", "adam")


def _require(ok: bool, key: str, rule: str, value) -> None:
    """Range check of one config field; the message starts with its name."""
    if not ok:
        raise ValueError(f"{key} must be {rule}, got {value!r}")


def _number(value) -> bool:
    """An int or a float; a bool is neither here, or True would pass for 1."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _int_at_least(value, low) -> bool:
    return isinstance(value, int) and _number(value) and value >= low


def _require_counts(section, lows) -> None:
    """Each (key, low) field is an integer (parsing makes it one first, so
    only a section built in code meets that rule) and at least ``low``."""
    for key, low in lows:
        value = getattr(section, key)
        _require(isinstance(value, int) and _number(value), key,
                 "an integer", value)
        _require(value >= low, key, f">= {low}", value)


@dataclass(frozen=True)
class ScheduleConfig:
    factor: float
    every_k_epochs: int

    def __post_init__(self):
        _require(_number(self.factor) and 0 < self.factor < math.inf,
                 "factor", "a finite number > 0", self.factor)
        _require_counts(self, [("every_k_epochs", 1)])


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str = "adam"  # one of OPTIMIZER_KINDS
    lr: float = 0.001
    momentum: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    schedule: ScheduleConfig | None = None

    def __post_init__(self):
        _require(self.kind in OPTIMIZER_KINDS, "kind",
                 f"one of {', '.join(OPTIMIZER_KINDS)}", self.kind)
        _require(_number(self.lr) and 0 < self.lr < math.inf, "lr",
                 "a finite number > 0", self.lr)
        for key in ("momentum", "beta1", "beta2"):
            value = getattr(self, key)
            _require(_number(value) and 0.0 <= value < 1.0, key, "in [0, 1)",
                     value)
        _require(_number(self.eps) and 0 < self.eps < math.inf, "eps",
                 "a finite number > 0", self.eps)
        _require(_number(self.weight_decay)
                 and 0 <= self.weight_decay < math.inf, "weight_decay",
                 "a finite number >= 0", self.weight_decay)

    def lr_at(self, epoch: int) -> float:
        """Step decay: lr * factor^floor((epoch - 1) / every_k), epoch >= 1."""
        if self.schedule is None:
            return self.lr
        steps = (epoch - 1) // self.schedule.every_k_epochs
        return self.lr * self.schedule.factor ** steps


@dataclass
class OptimState:
    config: OptimizerConfig
    lr: float
    step: int = 0
    slot_a: MlpGrads | None = None  # momentum velocity / Adam first moment
    slot_b: MlpGrads | None = None  # Adam second moment
    scratch: tuple = ()  # Adam's two work vectors, reused every step


def make_optim_state(config: OptimizerConfig, model: MlpModel) -> OptimState:
    def zeros():
        return MlpGrads._from_theta(np.zeros_like(model.theta), model.shapes)

    state = OptimState(config, lr=config.lr)
    if config.kind in ("momentum", "adam"):
        state.slot_a = zeros()
    if config.kind == "adam":
        state.slot_b = zeros()
        state.scratch = (np.empty_like(model.theta),
                         np.empty_like(model.theta))
    return state


def opt_step(model: MlpModel, grads: MlpGrads, state: OptimState):
    """In-place parameter update; returns the mutated (model, state).

    Weight decay is decoupled and applied as theta *= (1 - lr * wd) before
    the gradient step.  The update runs once over the whole parameter
    vector, or stack of vectors; every element sees the same operations in
    the same order as a per-array update would, so results are
    bit-identical to it.
    """
    cfg = state.config
    for p, g in zip(model.arrays(), grads.arrays()):
        if p.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} does not match "
                             f"parameter shape {p.shape}")
    state.step += 1
    lr = state.lr
    theta, g = model.theta, grads.theta
    if cfg.weight_decay:
        theta *= 1.0 - lr * cfg.weight_decay
    if cfg.kind == "sgd":
        theta -= lr * g
    elif cfg.kind == "momentum":
        v = state.slot_a.theta
        v *= cfg.momentum
        v += g
        theta -= lr * v
    else:  # adam: p -= lr * (m / c1) / (sqrt(v / c2) + eps)
        t = state.step
        c1 = 1.0 - cfg.beta1 ** t
        c2 = 1.0 - cfg.beta2 ** t
        m, v = state.slot_a.theta, state.slot_b.theta
        step, denom = state.scratch
        m *= cfg.beta1
        np.multiply(1.0 - cfg.beta1, g, out=step)
        m += step
        v *= cfg.beta2
        np.multiply(1.0 - cfg.beta2, g, out=step)
        step *= g
        v += step
        np.divide(v, c2, out=denom)
        np.sqrt(denom, out=denom)
        denom += cfg.eps
        np.divide(m, c1, out=step)
        np.multiply(lr, step, out=step)
        step /= denom
        theta -= step
    return model, state


# -- evaluation ---------------------------------------------------------------


def classify_error(model: MlpModel, ds: ClassificationDataset):
    """Fraction of argmax misclassifications; ties go to the lowest index.

    A float for one model, an (S,) array for a stack.
    """
    if not ds.is_one_hot:
        raise ValueError("classification error is defined on one-hot targets")
    logits = forward(model, ds.features)
    wrong = logits.argmax(axis=-1) != ds.targets.argmax(axis=-1)
    error = wrong.mean(axis=-1)
    return float(error) if error.ndim == 0 else error


def eval_loss(model: MlpModel, X: np.ndarray, T: np.ndarray, kind: str):
    loss, _ = loss_and_grad(model, X, T, kind)
    return loss


# -- training -----------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    """How to train; its defaults are the config file's ``train`` defaults."""

    loss: str = LOSS_CE
    epochs: int = 100
    batch_size: int = 32
    e_mult: int = 1
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)

    def __post_init__(self):
        _require(self.loss in TRAIN_LOSS_MODES, "loss", "ce or bce",
                 self.loss)
        _require_counts(self, [("epochs", 0), ("batch_size", 1),
                               ("e_mult", 1)])


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    train_error: float | None
    test_loss: float | None  # None without a test set
    test_error: float | None  # None unless the test set is one-hot
    seconds: float


def _check_source_mode(source, kind: str):
    base = source.base if isinstance(source, ConcatView) else source
    if not isinstance(base, ClassificationDataset):
        raise ValueError("a network trains on classification data")
    if source.mode != TRAIN_LOSS_MODES[kind]:
        raise ValueError(f"{kind} loss needs {TRAIN_LOSS_MODES[kind]} targets")


@dataclass(frozen=True)
class _DatasetStack:
    """Concrete datasets of one shape, stacked on a leading slice axis."""

    features: np.ndarray  # (S, n, d)
    targets: np.ndarray  # (S, n, c)
    is_one_hot: bool

    @property
    def n(self) -> int:
        return self.features.shape[1]


def _stack_sources(sources, kind: str) -> _DatasetStack:
    first = sources[0]
    for source in sources:
        if not isinstance(source, ClassificationDataset):
            raise ValueError("stacks train on concrete classification data")
        if (source.features.shape != first.features.shape
                or source.targets.shape != first.targets.shape):
            raise ValueError("stacked sources must be datasets of one shape")
        _check_source_mode(source, kind)
    one_hot = {s.is_one_hot for s in sources}
    if len(one_hot) != 1:
        raise ValueError("stacked sources must be all one-hot or none")
    return _DatasetStack(np.stack([s.features for s in sources]),
                         np.stack([s.targets for s in sources]),
                         one_hot.pop())


def _epoch_buffers(source):
    """Feature and target arrays one epoch of ``source`` is gathered into.

    None for a ConcatView, whose epochs ``ConcatView.batch`` gathers.
    """
    if isinstance(source, ConcatView):
        return None
    return np.empty_like(source.features), np.empty_like(source.targets)


def _epoch_batches(source, config: TrainConfig, rngs, buffers):
    """Yield (features, targets) minibatches for one epoch.

    Concrete datasets are shuffled by a fresh permutation and cut into
    batch_size slices (final partial batch included).  The whole permuted
    epoch is gathered once into ``buffers`` (from ``_epoch_buffers``,
    reused every epoch), so each step gets a contiguous slice instead of a
    fresh gather.  A stack draws one permutation per slice, each from that
    slice's own stream, and gathers each slice's rows with its own
    permutation.  A ConcatView epoch is min(n * e_mult, n^2) pairs sampled
    without replacement, consumed in sampled order.
    """
    bs = config.batch_size
    if isinstance(source, ConcatView):
        (rng,) = rngs
        m = min(source.n * config.e_mult, source.pair_count)
        features, targets = source.batch(sample_pairs(source, m, rng))
        for lo in range(0, m, bs):
            yield features[lo:lo + bs], targets[lo:lo + bs]
        return
    X, T = buffers
    if isinstance(source, _DatasetStack):
        lead, slices = (slice(None),), zip(source.features, source.targets, X, T)
    else:
        lead, slices = (), [(source.features, source.targets, X, T)]
    for (features, targets, x_out, t_out), rng in zip(slices, rngs):
        perm = rng.permutation(source.n)
        # a permutation is always in range; mode="clip" lets take write
        # straight into out, where the default mode goes through a buffer
        np.take(features, perm, axis=0, out=x_out, mode="clip")
        np.take(targets, perm, axis=0, out=t_out, mode="clip")
    for lo in range(0, source.n, bs):
        rows = (*lead, slice(lo, lo + bs))
        yield X[rows], T[rows]


def _per_slice(value, count: int) -> list:
    """One Python float per slice from a float or an (S,) array."""
    if value is None:
        return [None] * count
    return [float(v) for v in np.reshape(value, count)]


def train(model: MlpModel, source, config: TrainConfig, seed, test_set=None):
    """Train a copy of ``model`` on ``source``; the input model is untouched.

    Returns the fitted model and its list of ``EpochRecord``s, one per
    epoch.  Epoch order is drawn from ``Rng(seed)``, so a run is fully
    determined by its inputs and ``seed``.  ``test_set``, if given, is
    evaluated after every epoch with the training loss kind (plus argmax
    error if it is one-hot).

    Given equal-length sequences of models, sources and seeds instead,
    the models train as one stack under the one ``config``, and ``train``
    returns a list of fitted models and one record list per slice.  The
    sources must be classification datasets of one shape.  Slice s draws
    its epoch permutations from ``Rng(seeds[s])``, exactly as a separate
    call would, and its records equal that call's; ``seconds`` is the
    epoch time of the whole stack.  A non-finite loss in any slice raises
    ``TrainingDivergedError`` for the stack.
    """
    stacked = not isinstance(model, MlpModel)
    if stacked:
        models, sources, seeds = list(model), list(source), list(seed)
        if not len(models) == len(sources) == len(seeds) >= 1:
            raise ValueError("a stack needs equally many models, sources "
                             "and seeds, at least one of each")
        model = MlpModel.stack(models)
        source = _stack_sources(sources, config.loss)
        rngs = [Rng(s) for s in seeds]
    else:
        _check_source_mode(source, config.loss)
        model = model.copy()
        rngs = [Rng(seed)]
    train_one_hot = not isinstance(source, ConcatView) and source.is_one_hot
    count = len(rngs)
    state = make_optim_state(config.optimizer, model)
    buffers = _epoch_buffers(source)
    grads = MlpGrads._from_theta(np.empty_like(model.theta), model.shapes)
    records = [[] for _ in range(count)]
    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        state.lr = config.optimizer.lr_at(epoch)
        total_loss = 0.0
        total_rows = 0
        test_loss = test_error = None
        # overflow in a diverging run, in its steps or its evaluation, is
        # reported via the explicit non-finite loss check, not as numpy
        # warnings; an epoch's last step may blow up unseen until the
        # evaluation after it, so that evaluation sits in the same try
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                for X, T in _epoch_batches(source, config, rngs, buffers):
                    loss, _ = loss_and_grad(model, X, T, config.loss, grads)
                    opt_step(model, grads, state)
                    total_loss += loss * X.shape[-2]
                    total_rows += X.shape[-2]
                train_error = (classify_error(model, source) if train_one_hot
                               else None)
                if test_set is not None:
                    test_loss = eval_loss(model, test_set.features,
                                          test_set.targets, config.loss)
                    if test_set.is_one_hot:
                        test_error = classify_error(model, test_set)
            except FloatingPointError as exc:
                raise TrainingDivergedError(epoch) from exc
        rows = zip(_per_slice(total_loss / total_rows, count),
                   _per_slice(train_error, count),
                   _per_slice(test_loss, count), _per_slice(test_error, count))
        seconds = time.perf_counter() - started
        for slice_records, row in zip(records, rows):
            slice_records.append(EpochRecord(epoch, *row, seconds))
    if stacked:
        return model.unstack(), records
    return model, records[0]


# -- model lifting ------------------------------------------------------------


def lift_model(model: MlpModel) -> MlpModel:
    """Width-2h model for concatenated inputs whose logits are the mean of
    the base model's logits on the two input halves.

    W1 doubles block-diagonally, b1 is repeated, W2 is halved and repeated,
    b2 is kept, so forward(lift(m), [x1 || x2]) = (f(x1) + f(x2)) / 2.
    """
    h, d = model.W1.shape
    W1 = np.zeros((2 * h, 2 * d))
    W1[:h, :d] = model.W1
    W1[h:, d:] = model.W1
    b1 = np.concatenate([model.b1, model.b1])
    W2 = 0.5 * np.hstack([model.W2, model.W2])
    return MlpModel(W1, b1, W2, model.b2.copy())


# -- gradient checking --------------------------------------------------------


def grad_check(model: MlpModel, X: np.ndarray, T: np.ndarray, kind: str,
               eps: float = 1e-5) -> float:
    """Max relative deviation between analytic and central-difference grads.

    Deviation per parameter is |a - f| / max(1e-8, |a| + |f|).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    _, grads = loss_and_grad(model, X, T, kind)
    probe = model.copy()
    theta = probe.theta
    worst = 0.0
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + eps
        hi = loss_and_grad(probe, X, T, kind)[0]
        theta[i] = orig - eps
        lo = loss_and_grad(probe, X, T, kind)[0]
        theta[i] = orig
        fd = (hi - lo) / (2.0 * eps)
        a = grads.theta[i]
        worst = max(worst, abs(a - fd) / max(1e-8, abs(a) + abs(fd)))
    return worst
