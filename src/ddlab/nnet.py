"""One-hidden-layer ReLU network with hand-written gradients.

Logits are ``W2 @ relu(W1 @ x + b1) + b2``.  Two losses are supported:

* ``"ce"``   - softmax cross entropy with soft targets, computed through
  the log-sum-exp shift;
* ``"bce"``  - per-logit sigmoid binary cross entropy in the numerically
  stable max(z,0) - z*t + log1p(exp(-|z|)) form.

Gradients are exact derivatives of the batch-mean loss; relu'(0) is taken
as 0.  There is one training loop, over a stack: a single model trains
as a stack of one.  It is deterministic for fixed seeds: each slice's
epoch order comes from its dataset's permutation, or its pair sampling
for a ``ConcatView``, on the slice's own stream.  Each epoch is gathered
once into buffers that ``train`` allocates once per call, and every step
trains on a contiguous slice of them.  ``train`` also allocates one
gradient vector per call and passes it to ``loss_and_grad(..., out=)`` on
every step, so a step allocates no new parameter-sized array.

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
which the tests check.  Given sequences of models, sources and seeds,
``train`` returns the fitted stack's slices; the sources are all datasets
or all ``ConcatView``s, of one shape.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import time
import typing
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
    shifted -= np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted


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
        dZ2 = np.exp(logp)
        dZ2 *= row_mass
        dZ2 -= T
        dZ2 /= batch
    else:  # LOSS_BCE
        per = np.maximum(Z2, 0.0) - Z2 * T + np.log1p(np.exp(-np.abs(Z2)))
        loss = _total(per) / batch
        sig = 1.0 / (1.0 + np.exp(-Z2))
        dZ2 = (sig - T) / batch

    if not np.isfinite(loss).all():
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
    """Type-then-range check of one config field (a wrong type must not
    reach a comparison); the message starts with the field's name."""
    if not ok:
        raise ValueError(f"{key} must be {rule}, got {value!r}")


def _number(value) -> bool:
    """An int or a float; a bool is neither here, or True would pass for 1."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(value) -> bool:
    """A number in float range; an int past it passes ``< math.inf``."""
    return _number(value) and abs(value) <= sys.float_info.max


def _int_at_least(value, low) -> bool:
    return isinstance(value, int) and _number(value) and value >= low


def _require_structure(section) -> None:
    """Each list or section field holds a list or that section (or None if
    annotated ``| None``); the first rule, as later rules read them."""
    for key, hint in typing.get_type_hints(type(section)).items():
        kind, *unset = typing.get_args(hint) or (hint,)
        value = getattr(section, key)
        if kind is list or dataclasses.is_dataclass(kind):
            _require(isinstance(value, kind) or (unset and value is None),
                     key, f"of type {kind.__name__}", value)


def _require_counts(section, lows) -> None:
    """Each (key, low) field is an integer >= ``low``, or None if the field
    is annotated ``| None``."""
    for key, low in lows:
        value = getattr(section, key)
        unset = value is None and "| None" in str(
            section.__dataclass_fields__[key].type)
        _require(unset or _int_at_least(value, low), key,
                 f"an integer >= {low}", value)


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str = "adam"  # one of OPTIMIZER_KINDS
    lr: float = 0.001
    momentum: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0

    def __post_init__(self):
        _require(self.kind in OPTIMIZER_KINDS, "kind",
                 f"one of {', '.join(OPTIMIZER_KINDS)}", self.kind)
        _require(_finite(self.lr) and self.lr > 0, "lr",
                 "a finite number > 0", self.lr)
        for key in ("momentum", "beta1", "beta2"):
            value = getattr(self, key)
            _require(_number(value) and 0.0 <= value < 1.0, key, "in [0, 1)",
                     value)
        _require(_finite(self.eps) and self.eps > 0, "eps",
                 "a finite number > 0", self.eps)
        _require(_finite(self.weight_decay) and self.weight_decay >= 0,
                 "weight_decay", "a finite number >= 0", self.weight_decay)


@dataclass
class OptimState:
    config: OptimizerConfig
    step: int = 0
    slot_a: MlpGrads | None = None  # momentum velocity / Adam first moment
    slot_b: MlpGrads | None = None  # Adam second moment
    scratch: tuple = ()  # Adam's two work vectors, reused every step


def make_optim_state(config: OptimizerConfig, model: MlpModel) -> OptimState:
    def zeros():
        return MlpGrads._from_theta(np.zeros_like(model.theta), model.shapes)

    state = OptimState(config)
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
    lr = cfg.lr
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
        _require_structure(self)
        _require(isinstance(self.loss, str) and self.loss in TRAIN_LOSS_MODES,
                 "loss", "ce or bce", self.loss)
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


@dataclass(frozen=True)
class _DatasetStack:
    """A stack's datasets as (S, n, .) arrays, for one ``classify_error``."""
    features: np.ndarray
    targets: np.ndarray
    is_one_hot: bool = True


def _epoch_batches(sources, config: TrainConfig, rngs, X, T):
    """Yield one epoch's (features, targets) minibatches of every slice.

    Slice s fills row s of the (S, rows, .) buffers ``X`` and ``T``, which
    ``train`` allocates once per call, from its own stream: a dataset with
    its rows in a fresh permutation, a ConcatView with min(n * e_mult, n^2)
    pairs sampled without replacement, in sampled order.  Each step then
    trains on a contiguous batch_size slice of every row (final partial
    batch included) instead of a fresh gather.
    """
    for source, rng, x_out, t_out in zip(sources, rngs, X, T):
        if isinstance(source, ConcatView):
            x_out[...], t_out[...] = source.batch(
                sample_pairs(source, len(x_out), rng))
        else:
            perm = rng.permutation(source.n)
            # a permutation is always in range; mode="clip" lets take write
            # straight into out, where the default mode goes through a buffer
            np.take(source.features, perm, axis=0, out=x_out, mode="clip")
            np.take(source.targets, perm, axis=0, out=t_out, mode="clip")
    bs = config.batch_size
    for lo in range(0, X.shape[1], bs):
        yield X[:, lo:lo + bs], T[:, lo:lo + bs]


def train(model: MlpModel, source, config: TrainConfig, seed, test_set=None):
    """Train a copy of ``model`` on ``source``; the input model is untouched.

    Returns the fitted model and its list of ``EpochRecord``s, one per
    epoch.  Epoch order is drawn from ``Rng(seed)``, so a run is fully
    determined by its inputs and ``seed``.  ``test_set``, if given, is
    evaluated after every epoch with the training loss kind (plus argmax
    error if it is one-hot).

    Every call trains a stack, in one loop: given equal-length sequences
    of models, sources and seeds, the models train as one stack under the
    one ``config``, and ``train`` returns the fitted models and one record
    list per slice; a single model is a stack of one.  The sources are
    all classification datasets or all ``ConcatView``s of them, of one
    shape.  Slice s draws its epochs from ``Rng(seeds[s])`` and equals a
    separate call bit for bit; ``seconds`` is the whole stack's epoch
    time.  A non-finite loss in any slice raises ``TrainingDivergedError``.
    """
    single = isinstance(model, MlpModel)
    if single:
        model, source, seed = [model], [source], [seed]
    model, sources, rngs = list(model), list(source), [Rng(s) for s in seed]
    if not len(sources) == len(rngs) == len(model) >= 1:
        raise ValueError("a stack needs equally many models, sources "
                         "and seeds, at least one of each")
    view = isinstance(sources[0], ConcatView)
    base = sources[0].base if view else sources[0]
    for s in sources:
        s_base = s.base if isinstance(s, ConcatView) else s
        if not isinstance(s_base, ClassificationDataset):
            raise ValueError("a network trains on classification data")
        if s.mode != TRAIN_LOSS_MODES[config.loss]:
            raise ValueError(f"{config.loss} loss needs "
                             f"{TRAIN_LOSS_MODES[config.loss]} targets")
        if (isinstance(s, ConcatView) != view
                or s_base.features.shape != base.features.shape
                or s_base.targets.shape != base.targets.shape
                or (not view and s.is_one_hot != base.is_one_hot)):
            raise ValueError("stacked sources must be all datasets or all "
                             "concat views, of one shape, one-hot or not")
    model = MlpModel.stack(model)
    # a view's epoch is min(n * e_mult, n^2) pairs of width 2d
    rows = min(base.n * config.e_mult, base.n ** 2) if view else base.n
    X = np.empty((len(sources), rows, (1 + view) * base.dim),
                 base.features.dtype)
    T = np.empty((len(sources), rows, base.class_count),
                 np.result_type(base.targets, 0.5))  # pair means of ints
    train_set = None if view or not base.is_one_hot else _DatasetStack(
        np.stack([s.features for s in sources]),
        np.stack([s.targets for s in sources]))
    test_one_hot = test_set is not None and test_set.is_one_hot
    state = make_optim_state(config.optimizer, model)
    grads = MlpGrads._from_theta(np.empty_like(model.theta), model.shapes)
    records = [[] for _ in sources]
    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        total_loss = 0.0
        test_loss = test_error = None
        # overflow in a diverging run, in its steps or its evaluation, is
        # reported via the explicit non-finite loss check, not as numpy
        # warnings; an epoch's last step may blow up unseen until the
        # evaluation after it, so that evaluation sits in the same try
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                for x, t in _epoch_batches(sources, config, rngs, X, T):
                    loss, _ = loss_and_grad(model, x, t, config.loss, grads)
                    opt_step(model, grads, state)
                    total_loss += loss * x.shape[1]
                train_error = (None if train_set is None
                               else classify_error(model, train_set))
                if test_set is not None:
                    test_loss = eval_loss(model, test_set.features,
                                          test_set.targets, config.loss)
                    if test_one_hot:
                        test_error = classify_error(model, test_set)
            except FloatingPointError as exc:
                raise TrainingDivergedError(epoch) from exc
        columns = (total_loss / rows, train_error, test_loss, test_error)
        seconds = time.perf_counter() - started
        for s, slice_records in enumerate(records):
            slice_records.append(EpochRecord(
                epoch, *(None if c is None else float(c[s]) for c in columns),
                seconds))
    fitted = model.unstack()
    return (fitted[0], records[0]) if single else (fitted, records)


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

    Deviation per parameter is |a - f| / max(1e-6, |a| + |f|): the floor
    judges a tiny component by its absolute error, as the quotient's own
    rounding (about 1e-11 at eps = 1e-5) would dwarf it relatively.
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
        worst = max(worst, abs(a - fd) / max(1e-6, abs(a) + abs(fd)))
    return worst
