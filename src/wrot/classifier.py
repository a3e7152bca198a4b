"""Linear softmax classifier trained with transport losses.

The model is a single weight matrix; predictions are shift-stable softmax
probabilities over labels. Training runs per-sample SGD: each step solves the
transport loss between the current prediction and the normalized target,
backpropagates the loss gradient through the softmax Jacobian, and applies
L2 weight decay. The loss family (robust or plain entropic squared-distance)
is the ``metric`` of the loss's :class:`~wrot.frank_wolfe.FWConfig`; the two
trainer paths differ only in that configuration. Training reads only each loss
result's value, so it never builds the result's plan or worst-case metric.

Evaluation reports micro-averaged AUC (rank statistic over all
instance-label pairs, ties averaged) and mean average precision (per-instance
label ranking). A checkpoint is the weight matrix as a float64 NumPy ``.npy``
file.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from numpy.lib import format as npy

from .data_io import Dataset, _read_npy, _write_npy
from .measures import _as_float_array, _check_config, _check_count, _check_real, _freeze
from .frank_wolfe import FWConfig
from .rot_loss import _LOSS_CONFIG, LabelSpace, rot_loss_gradient

__all__ = [
    "SoftmaxModel",
    "TrainConfig",
    "TrainResult",
    "EvalMetrics",
    "TrainingDivergedError",
    "sgd_train",
    "evaluate",
    "save_model",
    "load_model",
]

_LOSS_ABORT = 1e6


class TrainingDivergedError(RuntimeError):
    """Raised when a per-sample loss passes the abort threshold or is not
    finite, or a predicted probability is 0 (``loss`` NaN). The message is
    ``training diverged`` then `` at epoch E, sample S: <reason>``."""

    def __init__(self, reason: str, epoch: int, sample: int, loss: float):
        super().__init__(f"training diverged at epoch {epoch}, sample {sample}: {reason}")
        self.reason = reason
        self.epoch = epoch
        self.sample = sample
        self.loss = loss

    def __reduce__(self):
        return type(self), (self.reason, self.epoch, self.sample, self.loss)


@dataclass(frozen=True, eq=False)
class SoftmaxModel:
    """Linear softmax classifier with a (features x labels) weight matrix."""

    weights: np.ndarray

    def __post_init__(self):
        w = _as_float_array(self.weights, "weights", 2)
        object.__setattr__(self, "weights", _freeze(w, self.weights))

    @property
    def n_features(self) -> int:
        return self.weights.shape[0]

    @property
    def n_labels(self) -> int:
        return self.weights.shape[1]

    def probabilities(self, features) -> np.ndarray:
        """Softmax label probabilities for one row or a batch of rows."""
        x = np.asarray(features, dtype=np.float64)
        if x.ndim not in (1, 2):
            raise ValueError(f"features must be 1- or 2-dimensional, got shape {x.shape}")
        if x.shape[-1] != self.n_features:
            raise ValueError(
                f"features have {x.shape[-1]} columns, model expects {self.n_features}"
            )
        return _softmax_rows(x @ self.weights)


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    # softmax along the last axis: of each row, or of one 1-d row
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class TrainConfig:
    """SGD settings; ``loss`` picks the family via its ``metric`` field. Its
    default is :func:`~wrot.rot_loss.rot_loss`'s: one Frank-Wolfe step.
    Each loss runs exactly ``loss.max_iter`` steps, so a ``loss`` with a
    ``gap_tol`` other than ``None`` is refused: ``FWConfig(metric)`` would
    otherwise train on the distance's converging solve of up to 200."""

    loss: FWConfig = _LOSS_CONFIG
    learning_rate: float = 0.01
    epochs: int = 50
    weight_decay: float = 0.0005
    seed: int = 0

    def __post_init__(self):
        _check_config(self.loss, "loss", FWConfig)
        if self.loss.gap_tol is not None:
            raise ValueError("loss must be run to max_iter: training takes only gap_tol=None")
        _check_real(self.learning_rate, "learning_rate")
        _check_count(self.epochs, "epochs")
        _check_real(self.weight_decay, "weight_decay", positive=False)
        _check_count(self.seed, "seed", least=0)


@dataclass(frozen=True)
class TrainResult:
    model: SoftmaxModel
    epoch_losses: tuple[float, ...]
    epoch_seconds: tuple[float, ...]


@dataclass(frozen=True)
class EvalMetrics:
    auc: float
    mean_average_precision: float


def sgd_train(dataset: Dataset, labels: LabelSpace, config: TrainConfig = TrainConfig()) -> TrainResult:
    """Train a softmax model on ``dataset`` with per-sample SGD.

    Weights start at zero, and each epoch visits the samples in a fresh
    permutation drawn from ``config.seed``. A sample's target is its label
    row divided by its label count, unsmoothed: a one-hot target has one
    plan, so its loss and gradient need no oracle solve (see
    :func:`~wrot.rot_loss.rot_loss_gradient`). Each sample's update is
    ``W <- W - lr * (x (J_softmax grad_h)^T + 2 * weight_decay * W)``, where
    ``grad_h`` is the transport-loss gradient at the current prediction.
    Returns the model with per-epoch mean losses and wall times. Raises
    :class:`TrainingDivergedError` if any per-sample loss exceeds 1e6 or is
    not finite, or if a predicted probability is not above 0: a too large
    ``learning_rate`` drives the softmax to an exact 0, where the loss
    gradient is undefined.
    """
    _check_config(dataset, "dataset", Dataset)
    _check_config(labels, "labels", LabelSpace)
    _check_config(config, "config", TrainConfig)
    if dataset.n_labels != labels.size:
        raise ValueError(
            f"dataset has {dataset.n_labels} labels, label space has {labels.size}"
        )
    if dataset.n_instances == 0:
        raise ValueError("dataset has 0 instances; training needs at least one")
    features = dataset.features
    n, n_features = features.shape
    rng = np.random.default_rng(config.seed)
    weights = np.zeros((n_features, labels.size))
    targets = dataset.labels / dataset.labels.sum(axis=1, keepdims=True)

    epoch_losses = []
    epoch_seconds = []
    for epoch in range(config.epochs):
        started = time.perf_counter()
        order = rng.permutation(n)
        total = 0.0
        for i in order:
            x = features[i]
            h = _softmax_rows(x @ weights)
            try:
                grad_h, loss = rot_loss_gradient(h, targets[i], labels, config.loss)
            except ValueError:
                # the loss refuses a zero predicted weight, which a softmax
                # reaches only when a too large learning rate drove it there
                if np.minimum.reduce(h) > 0.0:
                    raise
                raise TrainingDivergedError(
                    "a predicted probability underflowed to 0; lower learning_rate",
                    epoch, int(i), float("nan"),
                ) from None
            if not np.isfinite(loss.value) or abs(loss.value) > _LOSS_ABORT:
                raise TrainingDivergedError(
                    f"loss {loss.value!r}", epoch, int(i), float(loss.value)
                )
            grad_z = h * (grad_h - float(h @ grad_h))
            weights -= config.learning_rate * (
                x[:, None] * grad_z + 2.0 * config.weight_decay * weights
            )
            total += loss.value
        epoch_losses.append(total / n)
        epoch_seconds.append(time.perf_counter() - started)
    return TrainResult(
        model=SoftmaxModel(weights=weights),
        epoch_losses=tuple(epoch_losses),
        epoch_seconds=tuple(epoch_seconds),
    )


def evaluate(model: SoftmaxModel, dataset: Dataset) -> EvalMetrics:
    """Micro-averaged AUC and mean average precision on ``dataset``.

    AUC pools every (instance, label) pair, ranks the scores (ties averaged),
    and applies the rank-sum statistic; it is undefined (an error) when all
    pairs are positive or all negative. Average precision ranks each
    instance's labels by score and averages precision at the relevant ranks.
    Raises ``ValueError`` when the dataset's label count is not the model's.
    """
    _check_config(model, "model", SoftmaxModel)
    _check_config(dataset, "dataset", Dataset)
    if dataset.n_labels != model.n_labels:
        raise ValueError(
            f"dataset has {dataset.n_labels} labels, model has {model.n_labels}"
        )
    scores = model.probabilities(dataset.features)
    relevance = dataset.labels.astype(bool)
    flat_scores = scores.ravel()
    flat_rel = relevance.ravel()
    n_pos = int(flat_rel.sum())
    n_neg = flat_rel.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC undefined: labels contain a single class")
    ranks = _average_ranks(flat_scores)
    auc = (ranks[flat_rel].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)

    # each row's labels by descending score, ties in label order
    hits = np.take_along_axis(relevance, np.argsort(-scores, axis=1, kind="stable"), axis=1)
    precision = np.cumsum(hits, axis=1) / np.arange(1, scores.shape[1] + 1)
    ap_values = (precision * hits).sum(1) / hits.sum(1)
    return EvalMetrics(auc=float(auc), mean_average_precision=float(ap_values.mean()))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    # 1-based ranks of a 1-d array; a run of equal values shares the mean
    # (start + end) / 2 of the ranks start..end it spans
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], values.size]
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def save_model(model: SoftmaxModel, path) -> None:
    """Write a checkpoint: the weights as a float64 ``.npy`` array."""
    _check_config(model, "model", SoftmaxModel)
    _write_npy(path, model.weights, "<f8")


def load_model(path) -> SoftmaxModel:
    """Read a checkpoint written by :func:`save_model`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob.startswith(b"WROTCKPT"):
        raise ValueError(f"{path}: old WROTCKPT binary layout; re-save it with save_model")
    if not blob.startswith(npy.MAGIC_PREFIX):
        raise ValueError(f"{path} is not a model checkpoint (bad magic)")
    return SoftmaxModel(weights=_read_npy(path, blob, "<f8"))
