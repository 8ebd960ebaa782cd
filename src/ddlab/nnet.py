"""One-hidden-layer ReLU network with hand-written gradients.

Logits are ``W2 @ relu(W1 @ x + b1) + b2``.  Three losses are supported:

* ``"mse"``  - 0.5 * ||logits - targets||^2 summed per row, batch mean;
* ``"ce"``   - softmax cross entropy with soft targets, computed through
  the log-sum-exp shift;
* ``"bce"``  - per-logit sigmoid binary cross entropy in the numerically
  stable max(z,0) - z*t + log1p(exp(-|z|)) form.

Gradients are exact derivatives of the batch-mean loss; relu'(0) is taken
as 0.  The training loop is deterministic for a fixed seed: epoch order
comes from the dataset permutation (or pair sampling for concatenated
sources) on the trainer's own stream.

Parameters live in one contiguous float64 vector ``theta`` laid out in
checkpoint order: W1 (h x d_in, row-major), b1 (h), W2 (c x h, row-major),
b2 (c).  ``MlpModel.W1`` .. ``b2`` are reshaped views into it, and
``MlpGrads`` and the optimizer slots use the same layout, so ``copy()`` is
one copy and an optimizer step is a handful of whole-vector ufunc calls
instead of a loop over four arrays.
"""

from __future__ import annotations

import math
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from .augment import ConcatView, sample_pairs
from .datagen import MODE_AVERAGED, MODE_MULTI_HOT, ClassificationDataset
from .rng import Rng

LOSS_MSE = "mse"
LOSS_CE = "ce"
LOSS_BCE = "bce"
LOSS_KINDS = (LOSS_MSE, LOSS_CE, LOSS_BCE)

CHECKPOINT_MAGIC = b"DDLABMLP"
CHECKPOINT_VERSION = 1


class TrainingDivergedError(RuntimeError):
    def __init__(self, epoch: int):
        super().__init__(f"training diverged to a non-finite loss at epoch {epoch}")
        self.epoch = epoch


class _ParamVector:
    """W1, b1, W2, b2 stored as reshaped views into one float64 ``theta``.

    The constructor copies its inputs; each block keeps the shape it was
    given, so a block of the wrong shape is caught where it is used.
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

    def _bind(self, theta, shapes):
        views, offset = [], 0
        for shape in shapes:
            size = math.prod(shape)
            views.append(theta[offset:offset + size].reshape(shape))
            offset += size
        self.theta = theta
        self._views = tuple(views)

    W1 = property(lambda self: self._views[0])
    b1 = property(lambda self: self._views[1])
    W2 = property(lambda self: self._views[2])
    b2 = property(lambda self: self._views[3])

    @property
    def shapes(self):
        return [a.shape for a in self._views]

    def arrays(self):
        return self._views

    def copy(self):
        return self._from_theta(self.theta.copy(), self.shapes)


class MlpModel(_ParamVector):
    """W1 (h, d_in), b1 (h,), W2 (c, h), b2 (c,) over one ``theta``."""

    __slots__ = ()

    @property
    def d_in(self) -> int:
        return self.W1.shape[1]

    @property
    def hidden_units(self) -> int:
        return self.W1.shape[0]

    @property
    def n_out(self) -> int:
        return self.W2.shape[0]

    @property
    def param_count(self) -> int:
        return self.theta.size


class MlpGrads(_ParamVector):
    __slots__ = ()


def mlp_param_count(d_in: int, h: int, c: int) -> int:
    return h * d_in + h + c * h + c


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


def forward(model: MlpModel, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != model.d_in:
        raise ValueError(
            f"input width {X.shape[1]} does not match model d_in {model.d_in}")
    hidden = np.maximum(X @ model.W1.T + model.b1, 0.0)
    return hidden @ model.W2.T + model.b2


def _log_softmax(Z: np.ndarray) -> np.ndarray:
    shifted = Z - Z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _check_targets(T: np.ndarray, kind: str):
    if kind == LOSS_CE:
        if not np.all(np.abs(T.sum(axis=1) - 1.0) <= 1e-6):
            raise ValueError("cross-entropy targets must sum to 1 per row")
    elif kind == LOSS_BCE:
        if T.min() < 0.0 or T.max() > 1.0:
            raise ValueError("binary cross-entropy targets must lie in [0, 1]")


def loss_and_grad(model: MlpModel, X: np.ndarray, T: np.ndarray, kind: str):
    """Batch-mean loss and its gradient with respect to every parameter."""
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}")
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    T = np.asarray(T, dtype=np.float64)
    if T.ndim == 1:
        T = T.reshape(-1, 1)
    if X.shape[0] != T.shape[0]:
        raise ValueError("feature and target batch sizes differ")
    if T.shape[1] != model.n_out:
        raise ValueError(
            f"target width {T.shape[1]} does not match model output {model.n_out}")
    _check_targets(T, kind)

    batch = X.shape[0]
    Z1 = X @ model.W1.T + model.b1
    H = np.maximum(Z1, 0.0)
    Z2 = H @ model.W2.T + model.b2

    if kind == LOSS_MSE:
        diff = Z2 - T
        loss = 0.5 * float(np.sum(diff * diff)) / batch
        dZ2 = diff / batch
    elif kind == LOSS_CE:
        logp = _log_softmax(Z2)
        loss = -float(np.sum(T * logp)) / batch
        row_mass = T.sum(axis=1, keepdims=True)
        dZ2 = (np.exp(logp) * row_mass - T) / batch
    else:  # LOSS_BCE
        per = np.maximum(Z2, 0.0) - Z2 * T + np.log1p(np.exp(-np.abs(Z2)))
        loss = float(np.sum(per)) / batch
        sig = 1.0 / (1.0 + np.exp(-Z2))
        dZ2 = (sig - T) / batch

    if not np.isfinite(loss):
        raise FloatingPointError(f"non-finite {kind} loss")

    grads = MlpGrads._from_theta(np.empty(model.theta.size), model.shapes)
    np.matmul(dZ2.T, H, out=grads.W2)
    dZ2.sum(axis=0, out=grads.b2)
    dH = dZ2 @ model.W2
    dZ1 = dH * (Z1 > 0.0)
    np.matmul(dZ1.T, X, out=grads.W1)
    dZ1.sum(axis=0, out=grads.b1)
    return loss, grads


# -- optimizers --------------------------------------------------------------


@dataclass(frozen=True)
class ScheduleConfig:
    factor: float
    every_k_epochs: int

    def __post_init__(self):
        if self.every_k_epochs < 1:
            raise ValueError("every_k_epochs must be >= 1")


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str = "sgd"  # sgd | momentum | adam
    lr: float = 0.1
    momentum: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    schedule: ScheduleConfig | None = None

    def __post_init__(self):
        if self.kind not in ("sgd", "momentum", "adam"):
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")

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
    vector; every element sees the same operations in the same order as a
    per-array update would, so results are bit-identical to it.
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


def classify_error(model: MlpModel, ds: ClassificationDataset) -> float:
    """Fraction of argmax misclassifications; ties go to the lowest index."""
    if not ds.is_one_hot:
        raise ValueError("classification error is defined on one-hot targets")
    logits = forward(model, ds.features)
    return float(np.mean(logits.argmax(axis=1) != ds.targets.argmax(axis=1)))


def eval_loss(model: MlpModel, X: np.ndarray, T: np.ndarray, kind: str) -> float:
    loss, _ = loss_and_grad(model, X, T, kind)
    return loss


# -- training -----------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    loss: str
    epochs: int
    batch_size: int
    seed: int
    e_mult: int = 1
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)

    def __post_init__(self):
        if self.loss not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.loss!r}")
        if self.epochs < 0 or self.batch_size < 1 or self.e_mult < 1:
            raise ValueError("bad epoch, batch size, or e_mult value")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    train_error: float | None
    eval_loss: dict
    eval_error: dict
    seconds: float


@dataclass
class TrainTrace:
    records: list

    def __len__(self):
        return len(self.records)

    def final(self) -> EpochRecord:
        if not self.records:
            raise ValueError("empty trace")
        return self.records[-1]


def _check_source_mode(source, kind: str):
    if isinstance(source, ConcatView):
        base = source.base
        mode = source.mode if isinstance(base, ClassificationDataset) else None
    elif isinstance(source, ClassificationDataset):
        mode = source.mode
    else:
        mode = None
    if mode is None:
        if kind != LOSS_MSE:
            raise ValueError("regression sources train with the mse loss")
        return
    if kind == LOSS_MSE:
        raise ValueError("mse loss expects a regression source")
    if kind == LOSS_CE and mode != MODE_AVERAGED:
        raise ValueError("ce loss needs sum-to-one targets")
    if kind == LOSS_BCE and mode != MODE_MULTI_HOT:
        raise ValueError("bce loss needs multi-hot targets")


def _epoch_batches(source, config: TrainConfig, rng: Rng):
    """Yield (features, targets) minibatches for one epoch.

    Concrete datasets are shuffled by a fresh permutation and cut into
    batch_size slices (final partial batch included).  A ConcatView epoch
    is min(n * e_mult, n^2) pairs sampled without replacement, consumed in
    sampled order.
    """
    bs = config.batch_size
    if isinstance(source, ConcatView):
        m = min(source.n * config.e_mult, source.pair_count)
        batch = sample_pairs(source, m, rng)
        for lo in range(0, m, bs):
            yield batch.features[lo:lo + bs], batch.targets[lo:lo + bs]
    else:
        perm = rng.permutation(source.n)
        for lo in range(0, source.n, bs):
            sel = perm[lo:lo + bs]
            yield source.features[sel], source.targets[sel]


def train(model: MlpModel, source, config: TrainConfig, eval_sets=None):
    """Train a copy of ``model`` on ``source``; the input model is untouched.

    ``eval_sets`` maps names to datasets evaluated after every epoch with
    the training loss kind (plus argmax error for one-hot sets).  Fully
    deterministic for a fixed seed.
    """
    _check_source_mode(source, config.loss)
    eval_sets = eval_sets or {}
    model = model.copy()
    rng = Rng(config.seed)
    state = make_optim_state(config.optimizer, model)
    records = []
    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        state.lr = config.optimizer.lr_at(epoch)
        total_loss = 0.0
        total_rows = 0
        try:
            # overflow in a diverging run is reported via the explicit
            # non-finite loss check, not as numpy warnings
            with np.errstate(over="ignore", invalid="ignore"):
                for X, T in _epoch_batches(source, config, rng):
                    loss, grads = loss_and_grad(model, X, T, config.loss)
                    opt_step(model, grads, state)
                    total_loss += loss * X.shape[0]
                    total_rows += X.shape[0]
        except FloatingPointError as exc:
            raise TrainingDivergedError(epoch) from exc
        train_loss = total_loss / total_rows
        train_error = None
        if isinstance(source, ClassificationDataset) and source.is_one_hot:
            train_error = classify_error(model, source)
        losses, errors = {}, {}
        for name, ds in eval_sets.items():
            losses[name] = eval_loss(model, ds.features, ds.targets, config.loss)
            if isinstance(ds, ClassificationDataset) and ds.is_one_hot:
                errors[name] = classify_error(model, ds)
        records.append(EpochRecord(epoch, train_loss, train_error, losses,
                                   errors, time.perf_counter() - started))
    return model, TrainTrace(records)


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


# -- checkpoints ---------------------------------------------------------------
#
# Flat binary container: 16-byte header (magic "DDLABMLP", version u32 LE,
# hidden units u32 LE), then d_in u32 LE, output count u32 LE, then the
# parameter blocks W1, b1, W2, b2 as little-endian float64 row-major, which
# is exactly the model's theta vector.


def save_mlp(model: MlpModel, path) -> None:
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<2I", CHECKPOINT_VERSION, model.hidden_units))
        fh.write(struct.pack("<2I", model.d_in, model.n_out))
        fh.write(model.theta.astype("<f8").tobytes())


def load_mlp(path) -> MlpModel:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:8] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a model checkpoint")
    version, h = struct.unpack("<2I", data[8:16])
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    d_in, c = struct.unpack("<2I", data[16:24])
    count = mlp_param_count(d_in, h, c)
    need = 24 + 8 * count
    if len(data) != need:
        raise ValueError(f"{path}: expected {need} bytes, found {len(data)}")
    theta = np.frombuffer(data, dtype="<f8", count=count, offset=24)
    return MlpModel._from_theta(theta.astype(np.float64),
                                [(h, d_in), (h,), (c, h), (c,)])
