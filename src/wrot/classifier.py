"""Linear softmax classifier trained with transport losses.

The model is a single weight matrix; predictions are shift-stable softmax
probabilities over labels. Training runs per-sample SGD: each step solves the
transport loss between the current prediction and the smoothed target,
backpropagates the loss gradient through the softmax Jacobian, and applies
L2 weight decay. The loss family (robust or plain entropic squared-distance)
is whatever the :class:`~wrot.rot_loss.RotLossConfig` says; the two trainer
paths differ only in that configuration.

Evaluation reports micro-averaged AUC (rank statistic over all
instance-label pairs, ties averaged) and mean average precision (per-instance
label ranking). Checkpoints are a small versioned binary format.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass

import numpy as np
from scipy.stats import rankdata

from .data_io import Dataset
from .measures import _as_float_array, _freeze
from .rot_loss import LabelSpace, RotLossConfig, rot_loss_gradient, smooth_target

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

_CHECKPOINT_MAGIC = b"WROTCKPT"
_CHECKPOINT_VERSION = 1


class TrainingDivergedError(RuntimeError):
    """Raised when a per-sample loss passes the abort threshold."""

    def __init__(self, message: str, epoch: int, sample: int, loss: float):
        super().__init__(message)
        self.epoch = epoch
        self.sample = sample
        self.loss = loss


@dataclass(frozen=True, eq=False)
class SoftmaxModel:
    """Linear softmax classifier with a (features x labels) weight matrix."""

    weights: np.ndarray

    def __post_init__(self):
        w = _as_float_array(self.weights, "weights", 2)
        object.__setattr__(self, "weights", _freeze(w))

    @property
    def n_features(self) -> int:
        return self.weights.shape[0]

    @property
    def n_labels(self) -> int:
        return self.weights.shape[1]

    def probabilities(self, features) -> np.ndarray:
        """Softmax label probabilities for one row or a batch of rows."""
        x = np.asarray(features, dtype=np.float64)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[None, :]
        if x.shape[1] != self.n_features:
            raise ValueError(
                f"features have {x.shape[1]} columns, model expects {self.n_features}"
            )
        probs = _softmax_rows(x @ self.weights)
        return probs[0] if squeeze else probs


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


@dataclass(frozen=True)
class TrainConfig:
    """SGD settings; ``loss`` picks the family via its ``metric`` field."""

    loss: RotLossConfig = RotLossConfig()
    learning_rate: float = 0.01
    epochs: int = 50
    weight_decay: float = 0.0005
    seed: int = 0

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be nonnegative")


@dataclass(frozen=True)
class TrainResult:
    model: SoftmaxModel
    epoch_losses: tuple[float, ...]
    epoch_seconds: tuple[float, ...]


@dataclass(frozen=True)
class EvalMetrics:
    auc: float
    mean_average_precision: float


def _sample_loss_and_grad(h, target, labels, loss_config):
    # Separated out so tests can exercise the divergence guard.
    return rot_loss_gradient(h, target, labels, loss_config, return_loss=True)


def sgd_train(dataset: Dataset, labels: LabelSpace, config: TrainConfig | None = None) -> TrainResult:
    """Train a softmax model on ``dataset`` with per-sample SGD.

    Weights start at zero, and each epoch visits the samples in a fresh
    permutation drawn from ``config.seed``. Each sample's update is
    ``W <- W - lr * (x (J_softmax grad_h)^T + 2 * weight_decay * W)``, where
    ``grad_h`` is the transport-loss gradient at the current prediction.
    Returns the model with per-epoch mean losses and wall times. Raises
    :class:`TrainingDivergedError` if any per-sample loss exceeds 1e6.
    """
    if config is None:
        config = TrainConfig()
    if dataset.n_labels != labels.size:
        raise ValueError(
            f"dataset has {dataset.n_labels} labels, label space has {labels.size}"
        )
    features = dataset.features
    n, n_features = features.shape
    rng = np.random.default_rng(config.seed)
    weights = np.zeros((n_features, labels.size))
    alpha = config.loss.target_smoothing_alpha

    epoch_losses = []
    epoch_seconds = []
    for epoch in range(config.epochs):
        started = time.perf_counter()
        order = rng.permutation(n)
        total = 0.0
        for i in order:
            x = features[i]
            target = smooth_target(dataset.labels[i], alpha)
            h = _softmax_rows((x @ weights)[None, :])[0]
            grad_h, loss = _sample_loss_and_grad(h, target, labels, config.loss)
            if not np.isfinite(loss.value) or abs(loss.value) > _LOSS_ABORT:
                raise TrainingDivergedError(
                    f"training diverged at epoch {epoch}, sample {int(i)}: "
                    f"loss {loss.value!r}",
                    epoch=epoch,
                    sample=int(i),
                    loss=float(loss.value),
                )
            grad_z = h * (grad_h - float(h @ grad_h))
            weights -= config.learning_rate * (
                np.outer(x, grad_z) + 2.0 * config.weight_decay * weights
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
    """
    scores = model.probabilities(dataset.features)
    relevance = dataset.labels.astype(bool)
    flat_scores = scores.ravel()
    flat_rel = relevance.ravel()
    n_pos = int(flat_rel.sum())
    n_neg = flat_rel.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC undefined: labels contain a single class")
    ranks = rankdata(flat_scores)
    auc = (ranks[flat_rel].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)

    ap_values = np.empty(scores.shape[0])
    for i in range(scores.shape[0]):
        order = np.argsort(-scores[i], kind="stable")
        hits = relevance[i][order]
        hit_ranks = np.nonzero(hits)[0] + 1
        precision_at_hits = np.cumsum(hits)[hits.astype(bool)] / hit_ranks
        ap_values[i] = precision_at_hits.mean()
    return EvalMetrics(auc=float(auc), mean_average_precision=float(ap_values.mean()))


def save_model(model: SoftmaxModel, path) -> None:
    """Write a checkpoint: magic, version byte, dims, row-major float64 weights."""
    header = _CHECKPOINT_MAGIC + struct.pack(
        "<BII", _CHECKPOINT_VERSION, model.n_features, model.n_labels
    )
    body = np.ascontiguousarray(model.weights, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(body)


def load_model(path) -> SoftmaxModel:
    """Read a checkpoint written by :func:`save_model`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    magic_len = len(_CHECKPOINT_MAGIC)
    if blob[:magic_len] != _CHECKPOINT_MAGIC:
        raise ValueError(f"{path} is not a model checkpoint (bad magic)")
    version, n_features, n_labels = struct.unpack_from("<BII", blob, magic_len)
    if version != _CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    offset = magic_len + struct.calcsize("<BII")
    expected = n_features * n_labels * 8
    if len(blob) - offset != expected:
        raise ValueError(
            f"checkpoint payload is {len(blob) - offset} bytes, expected {expected}"
        )
    weights = np.frombuffer(blob, dtype="<f8", offset=offset).reshape(
        n_features, n_labels
    )
    return SoftmaxModel(weights=weights.astype(np.float64))
